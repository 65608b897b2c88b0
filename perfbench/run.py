"""Benchmark of bryantflux: one workload per process, one closed-loop client.

Run from the repository root:

    python3 perfbench/run.py --workload survey --seed 1 --seconds 10 --trace 0

With ``--trace 0`` it prints the end-to-end metrics, with ``--trace 1`` the
per-layer metrics from spans around each module's public functions. The last
line of standard output is one JSON object. See perfbench/README.md.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# BLAS is pinned to one thread before numpy is imported.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# A run makes at least this many passes over the pool and stops at the first
# op boundary after --seconds; an op's latency is its best over the passes.
# On a shared host the speed of a core swings within a second between a fast
# and a slower level; the best of several passes, taken seconds apart, reads
# the faster level and varies less from run to run than a mean or median
# over the passes.
MIN_PASSES = 3
# Set-up probes per run, spread evenly over the timed loop; set-up time is
# their median.
SETUP_PROBES = 8
# A run stops after this long, whatever its pass count.
HARD_STOP_S = 120.0
# Best time of reference_kernel on the 2-core host the baseline was measured
# on. Timed metrics are scaled by this over the kernel's best time in the run.
REFERENCE_KERNEL_S = 1.85e-4

# Outcomes of ops that produced no digits.
ERROR = "error"
WRONG = "wrong"

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "ok_frac": "ratio",
    "digits_min": "digits",
    "peak_rss_mb": "MB",
}


def _import_package():
    """Import bryantflux from this checkout's src/ and nothing else."""
    if not (SRC / "bryantflux" / "__init__.py").is_file():
        raise SystemExit("perfbench: no bryantflux sources under %s" % SRC)
    sys.path[:0] = [str(SRC), str(HERE)]
    import bryantflux
    if SRC.resolve() not in Path(bryantflux.__file__).resolve().parents:
        raise SystemExit("perfbench: bryantflux imported from %s, not %s"
                         % (bryantflux.__file__, SRC))


def reference_kernel(vec):
    """Fixed work that uses no bryantflux code: complex arithmetic, float
    formatting and small numpy calls, the mix the workloads spend their
    time in."""
    z, lines = 0.3 + 0.1j, []
    for _ in range(100):
        z = z * (0.9 - 0.2j) + 0.01j
        lines.append("v %.17g %.17g %.17g\n" % (z.real, z.imag, abs(z)))
    x = vec
    for _ in range(10):
        x = np.exp(1j * x.real) * 0.5 + vec[::-1]
    return "".join(lines), complex(np.dot(x, vec))


class CoreSpeed:
    """Best time of reference_kernel over a run, timed between ops.

    The host's cores run at a speed that drifts over minutes with the load
    of other tenants; a run that never sees the fast level has slower best
    op latencies and a slower best kernel time alike. The scale
    REFERENCE_KERNEL_S / best kernel time maps timed metrics to one core
    speed."""

    def __init__(self):
        self.vec = np.linspace(0.0, 1.0, 64) * (1.0 + 1.0j)
        self.best = math.inf

    def sample(self):
        t = time.perf_counter()
        reference_kernel(self.vec)
        self.best = min(self.best, time.perf_counter() - t)

    def scale(self):
        return REFERENCE_KERNEL_S / self.best


def _pass(workload, ops, ctx, tracer=None, after_op=None):
    """Run the ops of the pool once, in order. Returns (latencies,
    outcomes, bytes out) of the ops run. An outcome is the op's digits,
    REFUSED when build_end refused a survey configuration, ERROR when the op
    raised or the CLI exited non-zero, or WRONG when its output failed the
    check. ``after_op`` runs after each op and its check, outside the timed
    interval; the pass ends early when it returns true."""
    import workloads
    latencies, outcomes, bytes_out = [], [], 0
    for i, op in enumerate(ops):
        t = time.perf_counter()
        try:
            if tracer is None:
                out = workloads.run_op(workload, op, ctx)
            else:
                with tracer.op(i):
                    out = workloads.run_op(workload, op, ctx)
        except Exception:
            latencies.append(time.perf_counter() - t)
            outcomes.append(ERROR)
        else:
            latencies.append(time.perf_counter() - t)
            bytes_out += out.get("bytes_out", 0)
            try:
                outcomes.append(workload.check(op, out, ctx))
            except workloads.CheckFailed as exc:
                print("perfbench: op %d output check failed: %s" % (i, exc),
                      file=sys.stderr)
                outcomes.append(WRONG)
        if after_op is not None and after_op():
            break
    return latencies, outcomes, bytes_out


def _setup_probe(args):
    """Child process: import, generate the inputs, run the cold anchor op."""
    _import_package()
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        specs, ops = workload.generate(args.seed)
        ctx = workloads.Context(workdir, specs)
        workloads.run_op(workload, ops[0], ctx)
        elapsed = time.perf_counter() - _T0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"setup_s": elapsed}))
    return 0


def _setup_seconds(args):
    """Set-up time measured by one fresh child process."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise SystemExit("perfbench: set-up probe failed:\n" + proc.stderr)
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def _metric(name, value, units):
    return {"value": value, "unit": units[name]}


def _summary(outcomes):
    """(correct, attempted, failed). Correct means no op returned a wrong
    output; ops that raise count as failed but not as incorrect."""
    failed = sum(1 for o in outcomes if o in (ERROR, WRONG))
    return WRONG not in outcomes, len(outcomes), failed


def _end_to_end(args, workload, ops, ctx):
    _pass(workload, ops[:1], ctx)   # warm-up, not counted
    setup, passes = [], 0
    per_op, per_op_outcomes = [[] for _ in ops], [[] for _ in ops]
    speed = CoreSpeed()
    start = time.perf_counter()
    due = [start]

    def between_ops():
        speed.sample()
        if len(setup) < SETUP_PROBES and time.perf_counter() >= due[0]:
            setup.append(_setup_seconds(args))
            due[0] = time.perf_counter() + args.seconds / SETUP_PROBES
        return time_up()

    def time_up():
        elapsed = time.perf_counter() - start
        return elapsed >= HARD_STOP_S or (elapsed >= args.seconds
                                          and passes >= MIN_PASSES)

    while not time_up():
        lat, out, _ = _pass(workload, ops, ctx, after_op=between_ops)
        for times, t in zip(per_op, lat):
            times.append(t)
        for results, o in zip(per_op_outcomes, out):
            results.append(o)
        if len(lat) == len(ops):
            passes += 1
    while len(setup) < SETUP_PROBES:
        setup.append(_setup_seconds(args))
    scale = speed.scale()
    print("perfbench: %d passes over %d ops, best kernel %.1f us, scale %.4f"
          % (passes, len(ops), 1e6 * speed.best, scale), file=sys.stderr)
    correct, attempted, failed = _summary(sum(per_op_outcomes, []))
    latencies = [min(times) for times in per_op]
    deciles = statistics.quantiles(latencies, n=10)
    digits = [o for results in per_op_outcomes for o in results
              if isinstance(o, float)]
    # An op is ok when every run of it returned a checked result.
    ok = [all(isinstance(o, float) for o in results)
          for results in per_op_outcomes]
    metrics = {
        "setup_s": scale * statistics.median(setup),
        # The closed-loop client completes one op per op latency, so its rate
        # is the pool's size over the sum of the pool's best latencies.
        "ops_per_s": len(ops) / (scale * sum(latencies)),
        "op_p50_ms": 1e3 * scale * statistics.median(latencies),
        "op_p90_ms": 1e3 * scale * deciles[8],
        "ok_frac": sum(ok) / len(ops),
        "digits_min": min(digits) if digits else 0.0,
        "peak_rss_mb":
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    return correct, attempted, failed, {
        k: _metric(k, v, END_TO_END_UNITS) for k, v in metrics.items()}


def _per_layer(args, workload, ops, ctx):
    """Alternate untraced and traced passes over the pool. Counts and times
    are per traced pass; the overhead compares the summed best op latencies
    of the two kinds of pass."""
    import tracing
    _pass(workload, ops[:1], ctx)   # warm-up, not counted
    tracer = tracing.Tracer()
    plain, traced = [[] for _ in ops], [[] for _ in ops]
    outcomes, bytes_out, passes = [], 0, 0
    start = time.perf_counter()
    while True:
        lat, out, _ = _pass(workload, ops, ctx)
        for times, t in zip(plain, lat):
            times.append(t)
        outcomes += out
        tracer.install()
        try:
            lat, out, nbytes = _pass(workload, ops, ctx, tracer)
        finally:
            tracer.remove()
        for times, t in zip(traced, lat):
            times.append(t)
        outcomes += out
        bytes_out += nbytes
        passes += 1
        elapsed = time.perf_counter() - start
        if elapsed >= args.seconds or elapsed >= HARD_STOP_S:
            break
    metrics = tracing.layer_metrics(tracer.spans, passes)
    metrics["cli.bytes_out"] = bytes_out / passes
    metrics["trace.overhead"] = (sum(map(min, traced))
                                 / sum(map(min, plain)) - 1.0)
    correct, attempted, failed = _summary(outcomes)
    return correct, attempted, failed, {
        k: _metric(k, v, tracing.PER_LAYER_UNITS) for k, v in metrics.items()}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("survey", "verify"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        return _setup_probe(args)
    _import_package()
    import workloads
    workload = workloads.WORKLOADS[args.workload]
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        specs, ops = workload.generate(args.seed)
        ctx = workloads.Context(workdir, specs)
        measure = _per_layer if args.trace else _end_to_end
        correct, attempted, failed, metrics = measure(args, workload, ops, ctx)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
