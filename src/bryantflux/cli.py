"""Command-line front end."""

from __future__ import annotations

import argparse
import json
import logging
import math
import os
import sys

import numpy as np

from .balance import (ConcurrencyResult, concurrency_check, three_end_axes,
                      two_end_solve)
from .bryant import frame_from_json, frame_to_json, immersion_samples
from .ends import Catenoidal, build_end
from .errors import ConsistencyError, DomainError
from .flux import (circle_samples, flux_for_geodesic, flux_from_samples,
                   flux_result_json, flux_triple)
from .geometry import INF, Geodesic, is_inf, parse_complex
from .killing import KillingField
from .series import DEFAULT_ORDER, QuadratureGrid

log = logging.getLogger("bryantflux")


def _parse_point(text):
    text = text.strip()
    if text in ("inf", "Inf", "INF"):
        return INF
    z = complex(text.replace("i", "j"))
    return parse_complex([z.real, z.imag])


def _point_json(z):
    if is_inf(z):
        return "inf"
    return [z.real, z.imag]


def _parse_geodesic(text) -> Geodesic:
    parts = text.split(",")
    if len(parts) != 2:
        raise DomainError("geodesic must be given as 'c,d'")
    return Geodesic(_parse_point(parts[0]), _parse_point(parts[1]))


def _load_frame(args):
    if getattr(args, "end", None):
        with open(args.end) as fh:
            spec = json.load(fh)
        frame, _ = build_end(spec, order=args.order)
        return frame
    if getattr(args, "frame", None):
        with open(args.frame) as fh:
            return frame_from_json(fh.read())
    raise DomainError("one of --end or --frame is required")


def _emit(obj, path=None):
    text = json.dumps(obj, indent=2)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_crossratio(args):
    from .geometry import cross_ratio
    val = cross_ratio(*(_parse_point(z) for z in args.points))
    _emit({"value": [val.real, val.imag]})
    return 0


def _cmd_end_build(args):
    with open(args.spec) as fh:
        spec = json.load(fh)
    frame, desc = build_end(spec, order=args.order)
    text = frame_to_json(frame)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    log.info("built %s end", type(desc).__name__.lower())
    return 0


def _cmd_flux(args):
    frame = _load_frame(args)
    triple = flux_triple(frame)
    geod = _parse_geodesic(args.geodesic)
    value = flux_for_geodesic(triple, geod, args.kind)
    _emit(flux_result_json(triple, value), args.out)
    return 0


def _cmd_verify(args):
    frame = _load_frame(args)
    triple = flux_triple(frame)
    samples = circle_samples(frame, QuadratureGrid(args.rho, args.samples))
    rng = np.random.default_rng(args.seed)
    worst = 0.0
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
            numeric = flux_from_samples(samples, KillingField(kind, geod))
            closed = flux_for_geodesic(triple, geod, kind)
            worst = max(worst, abs(numeric - closed))
    _emit({"max_defect": worst, "geodesics": args.geodesics,
           "rho": args.rho, "samples": args.samples})
    return 0 if worst < 1e-5 else 1


def _cmd_balance_two(args):
    axis = args.axis.split(",")
    e1 = Catenoidal(args.mu, _parse_point(axis[0]), _parse_point(axis[1]))
    e2 = two_end_solve(e1, _parse_point(args.b2))
    _emit({"type": "catenoidal", "mu": e2.mu,
           "axis": [_point_json(e2.axis_from), _point_json(e2.boundary)]})
    return 0


def _concurrency_json(res: ConcurrencyResult):
    if res.kind == "interior":
        return {"kind": "interior", "point": list(res.point)}
    if res.kind == "boundary":
        return {"kind": "boundary",
                "point": "inf" if is_inf(res.point) else res.point}
    if res.kind == "common-perpendicular":
        return {"kind": "common-perpendicular", "point": list(res.point)}
    return {"kind": "not-concurrent"}


def _cmd_balance_three(args):
    sigmas = [float(s) for s in args.sigma.split(",")]
    if len(sigmas) != 3:
        raise DomainError("--sigma needs three comma-separated values")
    boundaries = None
    if args.boundaries:
        boundaries = [_parse_point(b) for b in args.boundaries.split(",")]
    axes = three_end_axes(*sigmas, boundaries=boundaries)
    bs = boundaries or [-1.0 + 0.0j, 0.0 + 0.0j, 1.0 + 0.0j]
    geodesics = [Geodesic(a, b) for a, b in zip(axes, bs)]
    res = concurrency_check(geodesics)
    _emit({"axes": [_point_json(a) for a in axes],
           "concurrency": _concurrency_json(res)})
    return 0


def _to_ball(u, v, w):
    den = u * u + v * v + (w + 1.0) ** 2
    return 2.0 * u / den, 2.0 * v / den, (u * u + v * v + w * w - 1.0) / den


def _cmd_mesh(args):
    frame = _load_frame(args)
    rhos = np.geomspace(args.rho_min, args.rho_max, args.radial)
    taus = 2.0 * math.pi * np.arange(args.angular) / args.angular
    lines = []
    for rho in rhos:
        zeta, w = immersion_samples(frame, rho, taus)
        for z, wv in zip(zeta, w):
            u, v, ww = z.real, z.imag, wv
            if args.model == "ball":
                u, v, ww = _to_ball(u, v, ww)
            lines.append("v %.9g %.9g %.9g" % (u, v, ww))
    m = args.angular
    for i in range(args.radial - 1):
        for j in range(m):
            a = i * m + j + 1
            b = i * m + (j + 1) % m + 1
            c = (i + 1) * m + (j + 1) % m + 1
            d = (i + 1) * m + j + 1
            lines.append("f %d %d %d" % (a, b, c))
            lines.append("f %d %d %d" % (a, c, d))
    with open(args.out, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    log.info("wrote %d vertices to %s", args.radial * m, args.out)
    return 0


def _build_parser():
    top = argparse.ArgumentParser(
        prog="bryantflux",
        description="Flux of Killing fields through ends of constant mean "
                    "curvature one surfaces in hyperbolic 3-space.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("crossratio", help="cross-ratio of four boundary points")
    p.add_argument("points", nargs=4, metavar="Z")
    p.set_defaults(func=_cmd_crossratio)

    p_end = sub.add_parser("end", help="end construction")
    sub_end = p_end.add_subparsers(dest="end_command", required=True)
    p = sub_end.add_parser("build", help="end-spec JSON to frame JSON")
    p.add_argument("--spec", required=True)
    p.add_argument("--out")
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.set_defaults(func=_cmd_end_build)

    p = sub.add_parser("flux", help="flux along a geodesic")
    p.add_argument("--end")
    p.add_argument("--frame")
    p.add_argument("--geodesic", required=True)
    p.add_argument("--kind", choices=("translation", "rotation"),
                   default="translation")
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_flux)

    p = sub.add_parser("verify",
                       help="quadrature vs residue route on random geodesics")
    p.add_argument("--end")
    p.add_argument("--frame")
    p.add_argument("--rho", type=float, default=0.1)
    p.add_argument("--samples", type=int, default=1024)
    p.add_argument("--geodesics", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.set_defaults(func=_cmd_verify)

    p_bal = sub.add_parser("balance", help="balancing problems")
    sub_bal = p_bal.add_subparsers(dest="balance_command", required=True)
    p = sub_bal.add_parser("two", help="solve the rigid two-end case")
    p.add_argument("--mu", type=float, required=True)
    p.add_argument("--axis", required=True, help="'a,b' of the first end")
    p.add_argument("--b2", required=True, help="boundary of the second end")
    p.set_defaults(func=_cmd_balance_two)
    p = sub_bal.add_parser("three", help="symmetric three-end axes")
    p.add_argument("--sigma", required=True, help="'s1,s2,s3'")
    p.add_argument("--boundaries", help="'b1,b2,b3' (default -1,0,1)")
    p.set_defaults(func=_cmd_balance_three)

    p = sub.add_parser("mesh", help="OBJ export of the immersed annulus")
    p.add_argument("--end")
    p.add_argument("--frame")
    p.add_argument("--rho-min", type=float, required=True, dest="rho_min")
    p.add_argument("--rho-max", type=float, required=True, dest="rho_max")
    p.add_argument("--radial", type=int, default=32)
    p.add_argument("--angular", type=int, default=64)
    p.add_argument("--model", choices=("halfspace", "ball"),
                   default="halfspace")
    p.add_argument("--order", type=int, default=DEFAULT_ORDER)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_mesh)
    return top


def run(argv=None) -> int:
    level = os.environ.get("BRYANTFLUX_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DomainError, ConsistencyError, OSError, ValueError,
            KeyError) as exc:
        json.dump({"error": type(exc).__name__, "message": str(exc)},
                  sys.stderr)
        sys.stderr.write("\n")
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
