"""Compare the outputs of two bryantflux source trees, bit for bit.

Run from the repository root:

    python tools/same_outputs.py PARENT_SRC CHANGE_SRC

Each argument is a directory that holds the package ``bryantflux/``, such
as the ``src/`` of two checkouts.  Both packages are copied into one
temporary directory, each under its own name, and imported side by side:
the package imports its own modules by relative imports only, so neither
copy sees the other.

Every end spec of a fixed grid is built by both at several orders:
catenoidal ends with a finite or an infinite axis point, with one and
with two perturbation terms; horospherical ends with mu 2-4 at a finite
boundary point, at infinity and at one of modulus >= 2^52; orders 8 to
128; perturbations 1e-2 to 10.  For each build it compares, bit for bit,
the frame's JSON (frame_to_json, which holds the validity radius), the
validity radius, the JSON of the frame read back (frame_from_json), the
flux triple (flux_triple) and the det, null and omega defects that the
build logs at DEBUG, or the class and message of the error raised.  It
prints the first difference and exits 1, or prints the number of builds
compared and exits 0.
"""

import importlib
import logging
import shutil
import sys
import tempfile
from pathlib import Path

CATENOIDAL_AXES = ([[0.0, 0.0], "inf"], [[0.3, 0.1], "inf"],
                   ["inf", [0.4, -0.2]], [[0.3, 0.1], [-0.5, 0.2]])
HOROSPHERICAL_BOUNDARIES = ([2.0, -0.5], "inf", [2.0 ** 53, 3.0])
ORDERS = (8, 32, 128)
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


def specs():
    """The grid: (spec, order) pairs."""
    for order in ORDERS:
        for p in PERTURBATIONS:
            # at mu = 1.3, -1 - mu rounds and 1 - mu does not
            for mu in (0.35, 0.8, 1.3, 1.7):
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


def outputs(pkg, handler, spec, order):
    """(name, value) pairs of everything compared for one build."""
    handler.args = []
    try:
        frame, _ = pkg.build_end(spec, order=order)
        text = pkg.frame_to_json(frame)
        out = [("frame_to_json", text),
               ("validity_radius", _bits(frame.validity_radius)),
               ("reloaded", pkg.frame_to_json(pkg.frame_from_json(text)))]
        t = pkg.flux_triple(frame)
        out.append(("flux_triple", [_bits(complex(v)) for v in
                                    (t.phi0, t.phi1, t.phi2)]))
    except Exception as exc:  # the refusal is itself an output
        out = [("error", "%s: %s" % (type(exc).__name__, exc))]
    out.append(("defects", [[_bits(v) for v in a] for a in handler.args]))
    return out


def load(src: Path, name: str, into: Path):
    """The package under ``src`` imported as ``name``."""
    shutil.copytree(src / "bryantflux", into / name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(name)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    log = logging.getLogger("bryantflux")
    log.setLevel(logging.DEBUG)
    log.propagate = False
    handler = _Defects()
    log.addHandler(handler)
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        pkgs = [load(Path(src), name, Path(tmp)) for src, name in
                zip(argv, ("bryantflux_parent", "bryantflux_change"))]
        n = 0
        for spec, order in specs():
            got = [outputs(pkg, handler, spec, order) for pkg in pkgs]
            # Every output list ends with the defects, and an error
            # replaces all the others, so the first unequal pair exists
            # whenever the lists differ.
            for (name, a), (_, b) in zip(*got):
                if a != b:
                    print("first difference: %s of %r at order %d\n"
                          "parent: %s\nchange: %s" % (name, spec, order, a, b))
                    return 1
            n += 1
    print("%d builds: every output bitwise equal" % n)
    return 0


if __name__ == "__main__":
    sys.exit(main())
