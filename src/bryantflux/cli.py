"""Command-line front end.

One table, _COMMANDS, keyed by the words that name each command, holds
its summary, its handler and its options.  run looks up argv's leading
words there and builds one parser, with only that command's options; an
argv that names no command gets a parser with no options, whose help
lists the commands and which refuses anything else.  No parser outlives
its run.

flux, verify and mesh take their frame from exactly one source, --end (an
end-spec JSON file, built by ends.build_end at --order) or --frame (a
frame JSON file, checked by bryant.frame_from_json); the parser refuses
both or neither.  end build and --end read a spec through one reader
(_build), and every command writes its output, a JSON document, a frame
or an OBJ mesh, through one writer (_write), to --out or to stdout.  Bad
input is reported as one JSON object on stderr with exit code 2.
"""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import re
import sys

import numpy as np

from .balance import (ConcurrencyResult, concurrency_check, three_end_axes,
                      two_end_solve)
from .bryant import (_check_radius, _frame_rows, _zeta_w, frame_from_json,
                     frame_to_json)
from .ends import Catenoidal, build_end
from .errors import ConsistencyError, DomainError
from .flux import (circle_samples, field_flux, field_roundoff,
                   flux_for_geodesic, flux_result_json, flux_triple)
from .geometry import (INF, Geodesic, cross_ratio, is_inf, parse_complex,
                       parse_real)
from .killing import KillingField, field_polynomial
from .series import DEFAULT_ORDER, QuadratureGrid, eval_branch

log = logging.getLogger("bryantflux")


def _parse_point(text):
    """The boundary point written as ``text``: inf, or a complex number
    such as 1+2i or -1.  Other text raises DomainError naming it."""
    text = text.strip()
    if text in ("inf", "Inf", "INF"):
        return INF
    try:
        z = complex(text.replace("i", "j"))
    except ValueError:
        raise DomainError("expected a point such as 1+2i, -1 or inf, got %r"
                          % text) from None
    return parse_complex([z.real, z.imag])


def _parse_real(text):
    """The finite real number written as ``text``; other text raises
    DomainError naming it."""
    try:
        return parse_real(float(text))
    except ValueError:
        raise DomainError("expected a finite real number, got %r"
                          % text) from None


def _point_json(z):
    if is_inf(z):
        return "inf"
    return [z.real, z.imag]


def _split(text, n, what, read=_parse_point):
    """The n comma-separated fields of ``text``, each read by ``read``;
    DomainError when there are not n."""
    parts = text.split(",")
    if len(parts) != n:
        raise DomainError("%s needs %d comma-separated values" % (what, n))
    return [read(part) for part in parts]


def _build(path, order):
    """(frame, descriptor) of the end-spec JSON file at ``path``."""
    with open(path) as fh:
        return build_end(json.load(fh), order=order)


def _load_frame(args):
    """The frame of --end, built, or of --frame, checked; the parser
    requires exactly one of them."""
    if args.end:
        return _build(args.end, args.order)[0]
    with open(args.frame) as fh:
        return frame_from_json(fh.read())


def _write(text, path=None):
    """``text`` and a newline to the file at ``path``, or to stdout."""
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _emit(obj, path=None):
    """The JSON document of ``obj`` through _write.  A number in it that
    is not finite is a ValueError, raised before anything is written."""
    _write(json.dumps(obj, indent=2, allow_nan=False), path)


def _cmd_crossratio(args):
    val = cross_ratio(*(_parse_point(z) for z in args.points))
    _emit({"value": [val.real, val.imag]})
    return 0


def _cmd_end_build(args):
    frame, desc = _build(args.spec, args.order)
    _write(frame_to_json(frame), args.out)
    log.info("built %s end", type(desc).__name__.lower())
    return 0


# A residue triple is refused when its round-off bound exceeds this
# fraction of max(1, the largest modulus of its components).
RESIDUE_BOUND_FRACTION = 1e-6


def _triple_scale(t):
    return max(1.0, abs(t.phi0), abs(t.phi1), abs(t.phi2))


def _certified_triple(frame):
    """flux_triple(frame), or DomainError when its residue bound exceeds
    RESIDUE_BOUND_FRACTION of its scale: the triple is then lost to the
    cancellation in its residue sums."""
    t = flux_triple(frame)
    scale = _triple_scale(t)
    if not t.residue_bound <= RESIDUE_BOUND_FRACTION * scale:
        raise DomainError("the residue triple is lost to round-off: its bound "
                          "%.3e exceeds %g of its scale %.3e"
                          % (t.residue_bound, RESIDUE_BOUND_FRACTION, scale))
    return t


def _cmd_flux(args):
    frame = _load_frame(args)
    triple = _certified_triple(frame)
    geod = Geodesic(*_split(args.geodesic, 2, "a geodesic"))
    value = flux_for_geodesic(triple, geod, args.kind)
    _emit(flux_result_json(triple, value), args.out)
    return 0


def _cmd_verify(args):
    if args.geodesics < 1:
        raise DomainError("--geodesics must be at least 1")
    frame = _load_frame(args)
    triple = _certified_triple(frame)
    quad = circle_samples(frame, QuadratureGrid(args.rho, args.samples))
    rng = np.random.default_rng(args.seed)
    worst = bound = 0.0
    for i in range(args.geodesics):
        pts = []
        for _ in range(2):
            if rng.random() < 0.15:
                pts.append(INF)
            else:
                pts.append(complex(rng.normal(), rng.normal()))
        if is_inf(pts[0]) and is_inf(pts[1]):
            pts[1] = complex(rng.normal(), rng.normal())
        geod = Geodesic(pts[0], pts[1])
        for kind in ("translation", "rotation"):
            # The field's quadratic, formed once for both triples and the
            # bound.
            c = field_polynomial(KillingField(kind, geod))
            defect = abs(field_flux(quad, c) - field_flux(triple, c))
            if not math.isfinite(defect):
                raise DomainError("quadrature on |z| = %g gave a non-finite "
                                  "flux" % args.rho)
            worst = max(worst, defect)
            bound = max(bound, field_roundoff(quad, c))
    if not bound < 1e-5:
        raise DomainError("quadrature on |z| = %g is lost to round-off "
                          "(bound %.3e)" % (args.rho, bound))
    triple_defect = max(abs(quad.phi0 - triple.phi0),
                        abs(quad.phi1 - triple.phi1),
                        abs(quad.phi2 - triple.phi2))
    _emit({"max_defect": worst, "roundoff_bound": bound,
           "geodesics": args.geodesics, "rho": args.rho,
           "samples": args.samples, "residue_bound": triple.residue_bound,
           "triple_defect": triple_defect,
           "triple_defect_relative": triple_defect / _triple_scale(triple)})
    return 0 if worst < 1e-5 else 1


def _cmd_balance_two(args):
    e1 = Catenoidal(parse_real(args.mu), *_split(args.axis, 2, "--axis"))
    e2 = two_end_solve(e1, _parse_point(args.b2))
    _emit({"type": "catenoidal", "mu": e2.mu,
           "axis": [_point_json(e2.axis_from), _point_json(e2.boundary)]})
    return 0


def _concurrency_json(res: ConcurrencyResult):
    if res.kind in ("interior", "common-perpendicular"):
        return {"kind": res.kind, "point": list(res.point)}
    if res.kind == "boundary":
        return {"kind": "boundary",
                "point": "inf" if is_inf(res.point) else res.point}
    return {"kind": "not-concurrent"}


def _cmd_balance_three(args):
    sigmas = _split(args.sigma, 3, "--sigma", _parse_real)
    bs = _split(args.boundaries, 3, "--boundaries")
    axes = three_end_axes(*sigmas, boundaries=bs)
    geodesics = [Geodesic(a, b) for a, b in zip(axes, bs)]
    res = concurrency_check(geodesics)
    _emit({"axes": [_point_json(a) for a in axes],
           "concurrency": _concurrency_json(res)})
    return 0


def _to_ball(u, v, w):
    """The ball model's point of the half-space point (u + iv, w).  Where
    the squares of u, v and w + 1 overflow, u, v, w and w + 1 are first
    divided by the power of two s at or below the largest of |u|, |v|
    and w + 1, which is exact, and s is folded back into the quotients.
    Elsewhere s = 1, so those points get the plain formula's bits."""
    t = w + 1.0
    s = np.where(np.isfinite(u * u + v * v + t * t), 1.0, np.ldexp(
        1.0, np.frexp(np.maximum(np.maximum(abs(u), abs(v)), t))[1] - 1))
    u, v, w, t, one = u / s, v / s, w / s, t / s, 1.0 / s
    den = u * u + v * v + t * t
    return (2.0 * u / den / s, 2.0 * v / den / s,
            (u * u + v * v + w * w - one * one) / den)


def _cmd_mesh(args):
    # One ring has no faces, and two nodes per ring give degenerate ones.
    if args.radial < 2 or args.angular < 3:
        raise DomainError("--radial must be at least 2 and --angular at "
                          "least 3")
    for rho in (args.rho_min, args.rho_max):
        if not (math.isfinite(rho) and rho > 0):
            raise DomainError("--rho-min and --rho-max must be finite and "
                              "positive, got %r" % rho)
    frame = _load_frame(args)
    rows = np.zeros((8, max(len(x) for _, x, _ in frame.columns)), complex)
    lines = []
    # Overflow is left to the vertices' check.
    with np.errstate(all="ignore"):
        offsets = _frame_rows(frame.columns, rows)
        # Ring nodes are rho times the --angular-th roots of unity.
        for rho in np.geomspace(args.rho_min, args.rho_max, args.radial):
            _check_radius(frame, rho)
            a, c, b, d = eval_branch(offsets[:4], rows[:4], rho, args.angular)
            zeta, w = _zeta_w(a, b, c, d)
            ring = (zeta.real, zeta.imag, w)
            if args.model == "ball":
                ring = _to_ball(*ring)
            if not np.isfinite(ring).all():
                raise DomainError("mesh vertices on |z| = %g are not finite"
                                  % rho)
            lines += ["v %.9g %.9g %.9g" % vertex for vertex in zip(*ring)]
    m = args.angular
    for i in range(args.radial - 1):
        for j in range(m):
            # Vertices a and b on ring i, and a + m and b + m on ring i + 1.
            a, b = i * m + j + 1, i * m + (j + 1) % m + 1
            lines.append("f %d %d %d" % (a, b, b + m))
            lines.append("f %d %d %d" % (a, b + m, a + m))
    _write("\n".join(lines), args.out)
    log.info("wrote %d vertices to %s", args.radial * m, args.out)
    return 0


# A token that starts with "-" and a digit, or with "-." and a digit, such
# as -1,inf or -1+1i, is a value: no option of this CLI starts so.
_VALUE = re.compile(r"-\.?\d")


class _Parser(argparse.ArgumentParser):
    """Reports bad arguments as DomainError, so they reach run's JSON
    handler instead of argparse's plain-text usage and exit, and reads
    every token that _VALUE matches as a value, where argparse's own rule
    reads only plain numbers such as -1 so."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _VALUE

    def error(self, message):
        raise DomainError("%s: %s" % (self.prog, message))


# Stands in a command's options for its frame source: --end (an end spec,
# built at --order) or --frame (a frame JSON), exactly one of them.
_FRAME_SOURCE = ("--end", "--frame")
_ORDER = ("--order", dict(type=int, default=DEFAULT_ORDER))
_REQUIRED = dict(required=True)
_REQUIRED_REAL = dict(type=float, required=True)

# Each command, keyed by the words that name it: its summary, its handler
# and its options, each a name and the keywords of its add_argument call.
_COMMANDS = {
    ("crossratio",): ("cross-ratio of four boundary points", _cmd_crossratio, [
        ("points", dict(nargs=4, metavar="Z"))]),
    ("end", "build"): ("end-spec JSON to frame JSON", _cmd_end_build, [
        ("--spec", _REQUIRED), ("--out", {}), _ORDER]),
    ("flux",): ("flux along a geodesic", _cmd_flux, [
        _FRAME_SOURCE, _ORDER, ("--geodesic", _REQUIRED),
        ("--kind", dict(choices=("translation", "rotation"),
                        default="translation")), ("--out", {})]),
    ("verify",): ("quadrature vs residue route on random geodesics",
                  _cmd_verify, [
        _FRAME_SOURCE, _ORDER, ("--rho", dict(type=float, default=0.1)),
        ("--samples", dict(type=int, default=1024)),
        ("--geodesics", dict(type=int, default=20)),
        ("--seed", dict(type=int, default=0))]),
    ("balance", "two"): ("solve the rigid two-end case", _cmd_balance_two, [
        ("--mu", _REQUIRED_REAL),
        ("--axis", dict(required=True, help="'a,b' of the first end")),
        ("--b2", dict(required=True, help="boundary of the second end"))]),
    ("balance", "three"): ("symmetric three-end axes", _cmd_balance_three, [
        ("--sigma", dict(required=True, help="'s1,s2,s3'")),
        ("--boundaries", dict(default="-1,0,1",
                              help="'b1,b2,b3' (default -1,0,1)"))]),
    ("mesh",): ("OBJ export of the immersed annulus", _cmd_mesh, [
        _FRAME_SOURCE, _ORDER,
        ("--rho-min", _REQUIRED_REAL), ("--rho-max", _REQUIRED_REAL),
        ("--radial", dict(type=int, default=32)),
        ("--angular", dict(type=int, default=64)),
        ("--model", dict(choices=("halfspace", "ball"), default="halfspace")),
        ("--out", _REQUIRED)]),
}


def run(argv=None) -> int:
    """Runs the command that argv names; returns its exit code.  Only that
    command's parser is built.  An argv that names no command gets a
    parser with no options, whose help lists the commands."""
    argv = sys.argv[1:] if argv is None else argv
    level = os.environ.get("BRYANTFLUX_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    try:
        words = next((tuple(argv[:n]) for n in (2, 1)
                      if tuple(argv[:n]) in _COMMANDS), ())
        summary, handler, options = _COMMANDS.get(words) or (
            "commands, each with its own --help:\n" + "\n".join(
                "  %-15s%s" % (" ".join(w), entry[0])
                for w, entry in _COMMANDS.items()), None, ())
        p = _Parser(prog=" ".join(("bryantflux",) + words),
                    description=summary,
                    formatter_class=argparse.RawDescriptionHelpFormatter)
        for option in options:
            if option is _FRAME_SOURCE:
                source = p.add_mutually_exclusive_group(required=True)
                for flag in option:
                    source.add_argument(flag)
            else:
                p.add_argument(option[0], **option[1])
        args = p.parse_args(argv[len(words):])
        return handler(args) if handler else p.error("name a command")
    except (DomainError, ConsistencyError, OSError, ValueError,
            KeyError, MemoryError, RecursionError) as exc:
        # numpy refuses an allocation with a private MemoryError subclass.
        kind = MemoryError if isinstance(exc, MemoryError) else type(exc)
        json.dump({"error": kind.__name__, "message": str(exc)}, sys.stderr)
        sys.stderr.write("\n")
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
