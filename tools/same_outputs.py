"""Compare the outputs of two bryantflux source trees, bit for bit.

Run from the repository root:

    python tools/same_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the package ``bryantflux/``, such
as the ``src/`` of two checkouts.  Both packages are copied into one
temporary directory, each under its own name, and imported side by side:
the package imports its own modules by relative imports only, so neither
copy sees the other.

Every end spec of a fixed grid is built by both at several orders:
catenoidal ends at five mu, one of them (0.6) a mu where a root formula
that is off by one ulp moves the frame, with a finite or an infinite
axis point, with one and with two perturbation terms; horospherical
ends with mu 2-4 at a finite boundary point, at infinity and at one of
modulus >= 2^52; orders 8, 32, 64 (the survey benchmark's middle order)
and 128; perturbations 1e-2 to 10.  For each spec it compares, bit for bit:

- the JSON of the standard frame of its mu and h, made by
  canonical_catenoidal_frame or canonical_horospherical_frame;
- the built frame's JSON (frame_to_json, which holds the validity
  radius) and its validity radius;
- the descriptor that build_end returns with it, as its type and the
  exact bits of each field;
- the JSON of the frame read back (frame_from_json), and of that frame
  moved by one fixed isometry (transform_frame);
- the flux triple (flux_triple), and the axis (extract_axis) of a
  catenoidal end;
- the triple's residue bound (FluxTriple.residue_bound), where both
  trees' FluxTriple has one;
- the quadrature's triple and round-off bounds (circle_samples) on 64
  nodes of one circle inside the validity radius, read from the
  FluxTriple it returns or, in older trees, from a record that holds the
  triple as ``triple`` next to its ``roundoff``;
- the det, null and omega defects that the builds log at DEBUG.

It also runs the CLI's verify (cli.run) of both trees on three specs
shaped like the verify benchmark's pool, a catenoidal end with one axis
point at infinity, one with two finite axis points and a perturbed
horospherical end of mu 2 at a finite point, with --geodesics 4 --seed 7:
with --samples 256 at --rho 0.02 and 0.1, as the outputs named
``verify --rho R``, and with --samples 4096 at --rho 0.1, where the
quadrature sums its moments over several slices of nodes, as
``verify --samples 4096``.  On the same three specs it runs the CLI's
flux, the residue route, with --kind translation and with --kind
rotation, along a geodesic with an infinite endpoint and along one with
two finite endpoints, as the outputs ``flux --kind K --geodesic G``.  It
compares each verify and flux run's exit code and standard output, bit
for bit: the benchmark's digits read those numbers, which ulp-level
changes to the samples move, and an output number that is not finite is
an exit of 2 with nothing on stdout.  On the same three specs it runs
the CLI's mesh with --model halfspace and with --model ball, as the
outputs ``mesh --model M``, on 8 rings of 16 nodes from rho 0.02 to 0.1,
fewer nodes than the terms, so that eval_branch folds them into its
bins: it compares each run's exit code and OBJ text, bit for bit.

Each output that raises is compared as the class and message of its
error.  Only public names are used, so any two trees of the package can
be compared.  When the trees differ it prints the first difference, then
one line per output name that differs anywhere, with the number of specs
where it differs of those where either tree has it (``defects: 12 of 616
specs``), and exits 1; otherwise it prints the number of specs compared
and exits 0.  A change that moves one output on purpose so shows that no
other moved.

In process, tree_outputs(src, name) gives one tree's outputs and
report(parent, change) compares two such lists, as main does: a caller
that compares several trees with one can compute that one's outputs
once.
"""

import contextlib
import importlib
import io
import json
import logging
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

CATENOIDAL_AXES = ([[0.0, 0.0], "inf"], [[0.3, 0.1], "inf"],
                   ["inf", [0.4, -0.2]], [[0.3, 0.1], [-0.5, 0.2]])
HOROSPHERICAL_BOUNDARIES = ([2.0, -0.5], "inf", [2.0 ** 53, 3.0])
ORDERS = (8, 32, 64, 128)
# The isometry that moves each reloaded frame, and the circle sampled.
MOVE = (1.2 + 0.3j, 0.25 - 0.5j, -0.4j, 0.7 + 0.1j)
SAMPLES, MAX_RHO = 64, 0.1
PERTURBATIONS = (1e-2, 0.3, 10.0)
# Specs that every order refuses: overflow of the frame and of the placed
# frame, and a z^1 coefficient that violates the constraint.
REFUSED = (
    {"type": "catenoidal", "mu": 0.5, "axis": [[0.3, 0.1], "inf"],
     "h_perturbation": [0.0, 1e150]},
    {"type": "catenoidal", "mu": 0.5, "axis": [[0.3, 0.1], "inf"],
     "h_perturbation": [0.1]},
    {"type": "horospherical", "mu": 2, "h0": 0.5, "boundary": [2.0, 0.0],
     "h_perturbation": [0.3, 1.0]},
    {"type": "horospherical", "mu": 3, "h0": 0.5, "boundary": [1e300, 0.0],
     "h_perturbation": [0.0, 1e10]},
)

# Specs shaped like the verify benchmark's pool, and the CLI's verify
# arguments past --end and --rho.
VERIFY_SPECS = (
    {"type": "catenoidal", "mu": 0.55, "axis": [[0.3, 0.1], "inf"]},
    {"type": "catenoidal", "mu": 0.65, "axis": [[-0.2, 0.4], [0.5, -0.1]]},
    {"type": "horospherical", "mu": 2, "h0": [0.6, 0.0],
     "boundary": [0.2, -0.3], "h_perturbation": [1.2, 0.25]},
)
VERIFY_ARGV = ["--geodesics", "4", "--seed", "7"]
# Each spec's verify runs: (output name, --rho and --samples).  N = 4096
# sums circle_samples's moments over more than one slice of nodes.
VERIFY_RUNS = (
    ("verify --rho 0.02", ["--rho", "0.02", "--samples", "256"]),
    ("verify --rho 0.1", ["--rho", "0.1", "--samples", "256"]),
    ("verify --samples 4096", ["--rho", "0.1", "--samples", "4096"]),
)
# Each spec's flux runs past --end: each kind of field along a geodesic
# with an infinite endpoint and along one with two finite endpoints.
FLUX_RUNS = tuple(
    ("flux --kind %s --geodesic %s" % (kind, geodesic),
     ["--kind", kind, "--geodesic", geodesic])
    for kind in ("translation", "rotation")
    for geodesic in ("0.5-0.2i,inf", "0.1+0.3i,-0.6+0.2i"))
# Each spec's mesh runs past --end and --out, on 8 rings of 16 nodes: the
# default order's 33 terms fold into 16 bins.
MESH_ARGV = ["--rho-min", "0.02", "--rho-max", "0.1", "--radial", "8",
             "--angular", "16"]
MESH_RUNS = tuple(("mesh --model %s" % model, ["--model", model])
                  for model in ("halfspace", "ball"))

# An output that one tree has for a spec and the other has not.
MISSING = object()


def specs():
    """The grid: (spec, order) pairs."""
    for order in ORDERS:
        for p in PERTURBATIONS:
            # at mu = 1.3, -1 - mu rounds and 1 - mu does not; at mu = 0.6,
            # a root off (1 - mu)/2 by one ulp moves every frame
            for mu in (0.35, 0.6, 0.8, 1.3, 1.7):
                for axis in CATENOIDAL_AXES:
                    for pert in ([0.0, p], [0.0, p, 0.5 * p]):
                        yield {"type": "catenoidal", "mu": mu, "axis": axis,
                               "h_perturbation": pert}, order
            for mu in (2, 3, 4):
                for h0 in (0.5, 0.7 - 0.2j):
                    first = 2.0 * h0 if mu == 2 else 0.0
                    for b in HOROSPHERICAL_BOUNDARIES:
                        yield {"type": "horospherical", "mu": mu,
                               "h0": [h0.real, h0.imag], "boundary": b,
                               "h_perturbation": [[first.real, first.imag],
                                                  p]}, order
        for spec in REFUSED:
            yield spec, order


class _Defects(logging.Handler):
    """Keeps the arguments of every 'frame defects' DEBUG record."""

    def __init__(self):
        super().__init__(logging.DEBUG)
        self.args = []

    def emit(self, record):
        if str(record.msg).startswith("frame defects"):
            self.args.append(record.args)


def _bits(x) -> str:
    """A float or complex as exact hex, so -0.0 and 0.0 differ."""
    if isinstance(x, complex):
        return "%s%+sj" % (x.real.hex(), x.imag.hex())
    return float(x).hex()


def _triple_bits(t) -> list:
    """A flux triple's three components as exact hex."""
    return [_bits(complex(v)) for v in (t.phi0, t.phi1, t.phi2)]


def _point_bits(x) -> str:
    """A boundary point as exact hex, or as the repr of infinity."""
    return _bits(x) if isinstance(x, complex) else repr(x)


def _descriptor_bits(end) -> list:
    """An end descriptor as its type name and the exact bits of each
    field: mu, kappa and finite boundary points as hex, infinity by its
    repr."""
    return [type(end).__name__] + [
        _bits(v) if isinstance(v, (float, complex)) else repr(v)
        for v in vars(end).values()]


def _complex(x) -> complex:
    """A spec's number, [re, im] or a real."""
    return complex(*x) if isinstance(x, list) else complex(x)


def _attempt(fn, *args, **kwargs):
    """fn(*args, **kwargs), or the class and message of the error it
    raises: a refusal is itself an output."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:
        return "%s: %s" % (type(exc).__name__, exc)


def canonical(pkg, spec, order):
    """The JSON of the standard frame of the spec's mu and h =
    h(0)(1 + sum p_k z^k), p as the spec's perturbation."""
    mu = spec["mu"]
    if spec["type"] == "catenoidal":
        h0, make = (1.0 - mu * mu) / (4.0 * mu), pkg.canonical_catenoidal_frame
    else:
        h0, make = _complex(spec["h0"]), pkg.canonical_horospherical_frame
    coeffs = np.zeros(order + 1, dtype=complex)
    coeffs[0] = 1.0
    pert = [_complex(p) for p in spec["h_perturbation"]][:order]
    coeffs[1:len(pert) + 1] = pert
    return pkg.frame_to_json(make(mu, pkg.GeneralizedSeries(0.0, h0 * coeffs),
                                  order))


def samples(pkg, frame):
    """The quadrature's triple and round-off bounds on one circle."""
    rho = min(MAX_RHO, 0.5 * frame.validity_radius)
    s = pkg.circle_samples(frame, pkg.QuadratureGrid(rho, SAMPLES))
    return _triple_bits(getattr(s, "triple", s)) + [
        _bits(b) for b in s.roundoff]


def outputs(pkg, handler, spec, order, bound=False):
    """(name, value) pairs of everything compared for one spec; with
    ``bound``, the flux triple's residue bound too."""
    handler.args = []
    out = [("canonical frame", _attempt(canonical, pkg, spec, order))]
    built = _attempt(pkg.build_end, spec, order=order)
    if isinstance(built, str):
        out.append(("build_end", built))
    else:
        frame = built[0]
        out.append(("descriptor", _descriptor_bits(built[1])))

        def reloaded():
            return pkg.frame_from_json(pkg.frame_to_json(frame))

        for name, fn in (
                ("frame_to_json", lambda: pkg.frame_to_json(frame)),
                ("validity_radius", lambda: _bits(frame.validity_radius)),
                ("reloaded", lambda: pkg.frame_to_json(reloaded())),
                ("transform_frame", lambda: pkg.frame_to_json(
                    pkg.transform_frame(pkg.IsometrySL2(*MOVE),
                                        reloaded()))),
                ("flux_triple", lambda: _triple_bits(pkg.flux_triple(frame))),
                ("circle_samples", lambda: samples(pkg, frame))):
            out.append((name, _attempt(fn)))
        if bound:
            out.append(("residue_bound", _attempt(
                lambda: _bits(pkg.flux_triple(frame).residue_bound))))
        if spec["type"] == "catenoidal":
            out.append(("extract_axis", _attempt(lambda: [
                _point_bits(x) for x in pkg.extract_axis(frame)])))
    out.append(("defects", [[_bits(v) for v in a] for a in handler.args]))
    return out


def cli_outputs(pkg, path):
    """(name, value) pairs of the CLI on the spec file at ``path``: one
    per run of VERIFY_RUNS and of FLUX_RUNS, its exit code and standard
    output, and one per run of MESH_RUNS, its exit code and the OBJ text
    it wrote (None when it wrote no file)."""
    run = importlib.import_module(pkg.__name__ + ".cli").run
    out = []
    runs = [(name, ["verify", "--end", path] + argv + VERIFY_ARGV)
            for name, argv in VERIFY_RUNS]
    runs += [(name, ["flux", "--end", path] + argv)
             for name, argv in FLUX_RUNS]
    for name, argv in runs:
        text = io.StringIO()
        with contextlib.redirect_stdout(text):
            code = run(argv)
        out.append((name, (code, text.getvalue())))
    obj = Path(path).with_suffix(".obj")
    for name, argv in MESH_RUNS:
        obj.unlink(missing_ok=True)
        code = run(["mesh", "--end", path, "--out", str(obj)] + argv
                   + MESH_ARGV)
        out.append((name, (code, obj.read_text() if obj.exists() else None)))
    return out


def load(src: Path, name: str, into: Path):
    """The package under ``src`` imported as ``name``."""
    shutil.copytree(src / "bryantflux", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def tree_outputs(src, name):
    """The outputs of the package under ``src``, imported as ``name``: a
    list of (where, [(output name, value), ...]) pairs, one per grid spec
    and then one per spec of VERIFY_SPECS for its CLI runs.  The package
    is imported from a temporary copy and dropped from sys.modules
    afterwards, and the bryantflux logger is restored, so that a process
    can compute several trees' outputs, one name at a time.  Warnings
    are ignored: they change no output."""
    log = logging.getLogger("bryantflux")
    saved = log.level, log.propagate
    log.setLevel(logging.DEBUG)
    log.propagate = False
    handler = _Defects()
    log.addHandler(handler)
    try:
        with tempfile.TemporaryDirectory() as tmp, \
                warnings.catch_warnings():
            warnings.simplefilter("ignore")
            sys.path.insert(0, tmp)
            try:
                pkg = load(Path(src), name, Path(tmp))
                bound = hasattr(pkg.FluxTriple, "residue_bound")
                got = [("%r at order %d" % (spec, order),
                        outputs(pkg, handler, spec, order, bound))
                       for spec, order in specs()]
                for i, spec in enumerate(VERIFY_SPECS):
                    path = Path(tmp) / ("verify%d.json" % i)
                    path.write_text(json.dumps(spec))
                    got.append((repr(spec), cli_outputs(pkg, str(path))))
            finally:
                sys.path.remove(tmp)
                for module in [m for m in sys.modules
                               if m == name or m.startswith(name + ".")]:
                    del sys.modules[module]
    finally:
        log.removeHandler(handler)
        log.setLevel(saved[0])
        log.propagate = saved[1]
    return got


def report(parent, change):
    """(exit code, text) of the comparison of two trees' tree_outputs.
    A tree with no residue bound gives no such output, and then neither
    tree's is compared."""
    if not all(any(name == "residue_bound" for _, out in tree
                   for name, _ in out) for tree in (parent, change)):
        parent, change = ([(where, [(name, v) for name, v in out
                                    if name != "residue_bound"])
                           for where, out in tree]
                          for tree in (parent, change))
    first = None
    # For each output name: [specs where it differs, specs that have it]
    tally = {}
    for (where, a), (_, b) in zip(parent, change, strict=True):
        # Both lists of a grid spec start with the canonical frame and end
        # with the defects, and a refused build differs from a built one
        # in the name of its second output, so the first unequal pair
        # exists whenever the lists differ.
        if first is None:
            first = next(("first difference: %s of %s\nparent: %s\n"
                          "change: %s" % (name, where, x, y)
                          for (name, x), (other, y) in zip(a, b)
                          if (name, x) != (other, y)), None)
        a, b = dict(a), dict(b)
        for name in {**a, **b}:
            count = tally.setdefault(name, [0, 0])
            count[0] += a.get(name, MISSING) != b.get(name, MISSING)
            count[1] += 1
    if first is None:
        return 0, "%d specs: every output bitwise equal" % (
            len(parent) - len(VERIFY_SPECS))
    return 1, "\n".join([first] + [
        "%s: %d of %d specs" % (name, differ, have)
        for name, (differ, have) in tally.items() if differ])


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("\n\n".join(__doc__.split("\n\n")[1:3]), file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    code, text = report(*(tree_outputs(src, name) for src, name in
                          zip(argv, ("bryantflux_parent",
                                     "bryantflux_change"))))
    print(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
