"""pdconv benchmark: one workload per call, one JSON result on the last line.

    python3 perfbench/run.py --workload train --seed 0 --seconds 20 --trace 0

Workloads (why each exists is recorded in BENCHMARK.json):
  train      SGD steps of the default ToyPdcNet, batch 8, 48x48
  eval       batch-16 inference from a checkpoint and dataset read from disk
  ops        cpdc_raw + pdc_forward + ecf_fuse, forward and backward, N=4 C=32 64x64
  gradcheck  the checks.REGISTRY gradcheck suite at f64

This process imports no numpy.  It pins OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS to nproc, then starts workload.py in fresh processes one
after another: with --trace 0, SETUP_PROBES processes that stop after
set-up and then the measuring process; with --trace 1, the measuring process
alone.  setup_s is the median over those processes of the time from starting
the process to its first timed unit.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics
from a traced run.  A full report (environment, sample counts, failures,
tracing overhead) and, for traced runs, the span list are written under
.perfbench_out/ in the checkout.  Exit code 0 means the run finished; a
result with "correct": false means an output check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORKLOADS = ("train", "eval", "ops", "gradcheck")
SETUP_PROBES = 2
DEADLINE_S = 170


def end_to_end(res: dict, setups: list[float]) -> dict:
    latencies = res["latencies"]
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[8] \
        if len(latencies) > 1 else latencies[0]
    return {
        "setup_s": {"value": statistics.median(setups), "unit": "s"},
        "items_per_s": {"value": res["items"] / res["busy_s"], "unit": "1/s"},
        "unit_ms_p50": {"value": statistics.median(latencies) * 1e3, "unit": "ms"},
        "unit_ms_p90": {"value": p90 * 1e3, "unit": "ms"},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
        "success_rate": {"value": (res["attempted"] - res["failed"]) / res["attempted"],
                         "unit": "ratio"},
    }


def run_child(args: list[str], env: dict, deadline: float) -> tuple[dict, float]:
    """Run workload.py to completion; return its result and its start time."""
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "workload.py"), *args],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        stdout, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit(f"workload {args} did not finish in time")
    if proc.returncode != 0:
        raise SystemExit(f"workload {args} exited with code {proc.returncode}")
    lines = stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"workload {args} printed no result")
    return json.loads(lines[-1]), started


def main() -> int:
    deadline = time.monotonic() + DEADLINE_S
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "pdconv", "__init__.py")):
        print(f"no pdconv sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    env["OPENBLAS_NUM_THREADS"] = env["OMP_NUM_THREADS"] = threads
    os.makedirs(OUT_DIR, exist_ok=True)
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    setups = []
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT_DIR)
    try:
        for _ in range(0 if args.trace else SETUP_PROBES):
            probe, started = run_child([*common, "--probe", "--workdir", workdir],
                                       env, deadline)
            setups.append(probe["ready_at"] - started)
            shutil.rmtree(workdir)
            os.makedirs(workdir)
        res, started = run_child([*common, "--workdir", workdir], env, deadline)
        setups.append(res["ready_at"] - started)
        stem = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}")
        if args.trace:
            os.replace(os.path.join(workdir, "spans.json"), stem + ".spans.json")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    problems = res["problems"] + res.get("span_problems", [])
    failed = res["failed"] + (1 if res.get("span_problems") else 0)
    attempted = res["attempted"]
    metrics = res["per_layer"] if args.trace else end_to_end(res, setups)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "env": res["env"], "setup_samples_s": setups,
        "units_untraced": len(res["durations"]), "units_traced": len(res["traced_durations"]),
        "latency_samples": len(res["latencies"]),
        "passes": res.get("passes"), "spans": res.get("spans"),
        "error_rate": failed / attempted, "problems": problems[:50], "metrics": metrics,
    }
    with open(stem + ".json", "w") as f:
        json.dump(report, f, indent=1)
    print(json.dumps({k: report[k] for k in ("env", "setup_samples_s", "units_untraced",
                                            "units_traced", "latency_samples", "error_rate")}))
    for p in problems[:10]:
        print(f"check failed: {p}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
