"""Time the survey benchmark's builds and flux triples on two bryantflux
source trees, side by side in one process.

Run from the repository root:

    python tools/ab_builds.py PARENT_SRC CHANGE_SRC --seed S [--passes N]

Each tree argument is a directory that holds the package ``bryantflux/``,
such as the ``src/`` of two checkouts; both are imported side by side by
same_outputs.py's loader.  The end specs are those of the survey pool of
seed S (perfbench/workloads.py, which this only reads): every
``build_end`` call that one pass over the pool makes, with its order,
recorded once by running the pool on CHANGE_SRC's package.  A refused
build is a call too, and an op stops at it, as in the benchmark.

A pass builds every recorded spec and takes the flux triple of each built
frame, on each tree: the trees take each build in turn, so that a swing
in the host's speed reaches both, and which tree goes first alternates
from one pass to the next.  It prints, for each tree, its best pass
and, within that pass, the time in build_end and in flux_triple, and
then the ratio of the change's best pass to the parent's.  The best
pass reads the host's faster level, as the benchmark's end-to-end times
do; the per-step times come from one process, which the benchmark's
traced self times (per-pass means at the host's speed of the moment)
cannot give.
"""

import argparse
import gc
import sys
import tempfile
import time
from pathlib import Path

from same_outputs import load

ROOT = Path(__file__).resolve().parent.parent


def recorded_builds(change_src: Path, seed: int) -> list:
    """The (spec, order) of every build_end call of one pass over the
    survey pool of ``seed``, run on the package under ``change_src``."""
    sys.path[:0] = [str(change_src), str(ROOT / "perfbench")]
    import bryantflux
    import workloads

    build_end, calls = bryantflux.build_end, []

    def recording(spec, order):
        calls.append((spec, order))
        return build_end(spec, order=order)

    bryantflux.build_end = recording
    try:
        for op in workloads.survey_ops(seed):
            workloads.run_survey(op, None)
    finally:
        bryantflux.build_end = build_end
    return calls


def one_round(pkgs, builds, first: int) -> list:
    """Each package's (build_end seconds, flux_triple seconds) over one
    pass of ``builds``, the packages taking each build in turn, package
    ``first`` first."""
    clock, times = time.perf_counter, [[0.0, 0.0], [0.0, 0.0]]
    order = (first, 1 - first)
    for spec, n in builds:
        for i in order:
            pkg, t = pkgs[i], times[i]
            t0 = clock()
            try:
                frame, _ = pkg.build_end(spec, order=n)
            except pkg.ConsistencyError:
                t[0] += clock() - t0
                continue
            t1 = clock()
            pkg.flux_triple(frame)
            t2 = clock()
            t[0] += t1 - t0
            t[1] += t2 - t1
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--passes", type=int, default=20,
                        help="passes per tree (default 20)")
    args = parser.parse_args(argv)
    if args.passes < 1:
        parser.error("--passes must be at least 1")
    sys.dont_write_bytecode = True
    builds = recorded_builds(args.change, args.seed)
    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        pkgs = [load(src, name, Path(tmp)) for src, name in
                ((args.parent, "bryantflux_parent"),
                 (args.change, "bryantflux_change"))]
        best = [None, None]
        for r in range(args.passes):
            gc.collect()
            for i, t in enumerate(one_round(pkgs, builds, r % 2)):
                if best[i] is None or sum(t) < sum(best[i]):
                    best[i] = t
    print("seed %d: %d builds per pass, %d passes per tree"
          % (args.seed, len(builds), args.passes))
    for name, (b, t) in zip(("parent", "change"), best):
        print("%s: best pass %.2f ms (build_end %.2f, flux_triple %.2f)"
              % (name, 1e3 * (b + t), 1e3 * b, 1e3 * t))
    print("change / parent: %.3f" % (sum(best[1]) / sum(best[0])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
