"""Cost per digit of the quadrature oracle, outside the gated workloads.

For one catenoidal and one horospherical end, and every sample count N from
16 to 8192 and radius rho from 0.01 to 0.2, run ``bryantflux verify`` in
process on the prebuilt frame of the end, and record its time and the digits
of its ``max_defect`` against the residue route. Run from the repository
root:

    python3 perfbench/sweep.py

Prints one JSON object per point, then a table.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import bryantflux as bf  # noqa: E402
import workloads  # noqa: E402

SAMPLES = tuple(2 ** k for k in range(4, 14))
RHOS = (0.01, 0.02, 0.05, 0.1, 0.2)
ENDS = {
    "catenoidal": workloads.ANCHOR_SPEC,
    "horospherical": workloads.horospherical_spec(2, 0.5, [0.2, -0.1], 0.2),
}
# Geodesics per verify call, each with two Killing fields.
GEODESICS = 10
# Calls per point; the point's time is their median.
REPEATS = 3


def sweep_point(frame_path, rho, samples):
    """Time and digits of ``verify`` on a frame file. Passing the frame
    instead of the end spec keeps the end's build out of the time."""
    argv = ["verify", "--frame", frame_path, "--rho", repr(rho),
            "--samples", str(samples), "--geodesics", str(GEODESICS)]
    times = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        rc, text = workloads.capture_cli(argv)
        times.append(time.perf_counter() - t)
    # Exit code 1 means max_defect reached 1e-5; the point is still reported.
    if rc not in (0, 1):
        raise SystemExit("sweep: verify exited %d on %r" % (rc, argv))
    defect = json.loads(text)["max_defect"]
    return {"time_ms": 1e3 * statistics.median(times),
            "digits_min": workloads.digits(defect)}


def main():
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=HERE.parent)
    rows = []
    try:
        for name, spec in ENDS.items():
            frame_path = os.path.join(workdir, name + ".json")
            with open(frame_path, "w") as fh:
                fh.write(bf.frame_to_json(bf.build_end(spec)[0]))
            for rho in RHOS:
                for n in SAMPLES:
                    row = {"end": name, "rho": rho, "samples": n,
                           **sweep_point(frame_path, rho, n)}
                    rows.append(row)
                    print(json.dumps(row), flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("%-14s %6s  %s" % ("end", "rho", "  ".join(
        "%13s" % ("N=%d" % n) for n in SAMPLES)))
    for name in ENDS:
        for rho in RHOS:
            cells = ["%6.1fms %4.1fd" % (r["time_ms"], r["digits_min"])
                     for r in rows if r["end"] == name and r["rho"] == rho]
            print("%-14s %6.2f  %s" % (name, rho, "  ".join(cells)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
