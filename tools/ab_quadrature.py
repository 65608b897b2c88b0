"""Time the verify benchmark's quadrature (circle_samples) on two
bryantflux source trees, call by call, each in a process of its own.

Run from the repository root:

    python tools/ab_quadrature.py PARENT_SRC CHANGE_SRC --seed S [--passes N]

Each tree argument is a directory that holds the package ``bryantflux/``,
such as the ``src/`` of two checkouts.  The calls are those of the verify
pool of seed S (perfbench/workloads.py, which this only reads): one
circle_samples call per op, on the frame that the op's CLI call builds
(build_end at the default order, built once per spec by each tree) and
the op's grid of N nodes on |z| = rho.

Each tree runs in a worker process of its own, which imports only that
tree: the page faults of a call depend on what the process's allocator
kept from earlier calls, and in one shared process each tree's frees
would move the other's faults.  A pass makes every call on each tree:
the workers take each call in turn, so that a swing in the host's speed
reaches both, and which goes first alternates from one pass to the next.
For each N of the pool it prints each tree's best pass over that N's
calls and its minor page faults per call over all passes, read by
resource.getrusage in the worker around each call, and then the ratio of
the change's best pass to the parent's.  The faults count the memory
that a call takes fresh from the system: a buffer the allocator keeps
from one call to the next costs none.
"""

import argparse
import multiprocessing
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def pool(change_src: Path, seed: int):
    """The verify pool of ``seed``: its end specs and, per op, the
    (spec index, N, rho) of its quadrature.  workloads.py imports the
    package under ``change_src``."""
    sys.path[:0] = [str(change_src), str(ROOT / "perfbench")]
    import workloads

    specs, ops = workloads.verify_ops(seed)
    return specs, [(op["spec"], op["samples"], op["rho"]) for op in ops]


def worker(conn, src: str, specs, calls):
    """Worker process: import the package under ``src``, build the
    specs' frames, then time call k of ``calls`` for each k received,
    and send back its (seconds, minor faults), until None arrives."""
    sys.dont_write_bytecode = True
    sys.path.insert(0, src)
    import bryantflux as pkg

    frames = [pkg.build_end(s)[0] for s in specs]
    grids = [(frames[spec], pkg.QuadratureGrid(rho, n))
             for spec, n, rho in calls]
    clock, usage = time.perf_counter, resource.getrusage
    conn.send(None)
    for k in iter(conn.recv, None):
        f0 = usage(resource.RUSAGE_SELF).ru_minflt
        t0 = clock()
        pkg.circle_samples(*grids[k])
        t1 = clock()
        conn.send((t1 - t0, usage(resource.RUSAGE_SELF).ru_minflt - f0))
    conn.close()


def one_round(conns, calls, first: int) -> list:
    """Each tree's {N: [seconds, minor faults]} over one pass of
    ``calls``, the workers taking each call in turn, worker ``first``
    first."""
    totals = [{}, {}]
    order = (first, 1 - first)
    for k, (_, n, _) in enumerate(calls):
        for i in order:
            conns[i].send(k)
            t, f = conns[i].recv()
            total = totals[i].setdefault(n, [0.0, 0])
            total[0] += t
            total[1] += f
    return totals


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
    specs, calls = pool(args.change, args.seed)
    ctx = multiprocessing.get_context("spawn")
    conns, procs = [], []
    try:
        for src in (args.parent, args.change):
            here, there = ctx.Pipe()
            proc = ctx.Process(target=worker,
                               args=(there, str(src.resolve()), specs, calls))
            proc.start()
            there.close()
            conns.append(here)
            procs.append(proc)
        for conn in conns:
            conn.recv()
        best, faults = [{}, {}], [{}, {}]
        for r in range(args.passes):
            for i, totals in enumerate(one_round(conns, calls, r % 2)):
                for n, (t, f) in totals.items():
                    best[i][n] = min(best[i].get(n, t), t)
                    faults[i][n] = faults[i].get(n, 0) + f
        for conn in conns:
            conn.send(None)
    finally:
        for proc in procs:
            proc.join(timeout=60)
            if proc.is_alive():
                proc.terminate()
                proc.join()
    per_n = {n: sum(1 for _, m, _ in calls if m == n) for _, n, _ in calls}
    print("seed %d: %d calls per pass, %d passes per tree"
          % (args.seed, len(calls), args.passes))
    for n in sorted(per_n):
        k = per_n[n] * args.passes
        print("N %d, %d calls: %s, change / parent %.3f" % (
            n, per_n[n], ", ".join(
                "%s best pass %.2f ms, %.1f faults per call"
                % (name, 1e3 * best[i][n], faults[i][n] / k)
                for i, name in enumerate(("parent", "change"))),
            best[1][n] / best[0][n]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
