"""growthcomp benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload bridge-sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; growthcomp is imported from its src/
directory.  The run repeats whole rounds of the workload, each in a fresh
worker process (bench/worker.py), one process at a time and with one BLAS
thread, until --seconds have passed.  The operations of a round come from
the seed alone, so every round repeats the same work.

--trace 0 reports the end-to-end metrics of BENCHMARK.json.  --trace 1 runs
one untraced and one traced round and reports the per-layer metrics, with
trace.overhead_s the traced minus the untraced wall time.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  A run record with the machine, versions, seed,
per-round figures and the verdict digest goes to bench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_SAMPLES = 15
MIN_BEYOND_P97 = 10
RUN_DEADLINE_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


class BenchError(Exception):
    """The benchmark could not produce a result."""


def beyond_p97(n: int) -> int:
    """Operations strictly beyond the nearest-rank 97th percentile of n."""
    return n - math.ceil(0.97 * n)


def hd_quantile(values: list[float], q: float) -> float:
    """Harrell-Davis estimate of the q-quantile: a Beta-weighted mean of all
    order statistics.  The operation mixes are clustered (the bridge pairs
    split into a cheap and a costly half right at the median), and a single
    order statistic would jump between the clusters from run to run."""
    import numpy as np
    from scipy.special import betainc

    x = np.sort(np.asarray(values, dtype=float))
    n = len(x)
    cdf = betainc((n + 1) * q, (n + 1) * (1 - q), np.arange(n + 1) / n)
    return float(np.dot(np.diff(cdf), x))


def worker_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_worker(args, t_run: float, *, trace: int = 0, setup_only: bool = False) -> dict:
    budget = RUN_DEADLINE_S - (time.monotonic() - t_run)
    if budget <= 5.0:
        raise BenchError("run deadline reached before the workload finished")
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    spawned = time.monotonic()
    cmd += ["--spawned-at", repr(spawned)]
    try:
        proc = subprocess.run(cmd, env=worker_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=budget)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker exceeded the run deadline: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr.strip()}")
    rec = json.loads(proc.stdout.strip().splitlines()[-1])
    rec["process_s"] = time.monotonic() - spawned
    return rec


def measure(args, t_run: float) -> tuple[list[dict], list[float]]:
    """Set-ups alone, whole rounds for --seconds, then set-ups alone again.

    The machine's speed drifts over seconds, so the set-up-only processes are
    split before and after the rounds instead of run back to back."""
    setups = [run_worker(args, t_run, setup_only=True)["setup_s"]
              for _ in range(SETUP_SAMPLES // 2)]
    rounds: list[dict] = []
    t_rounds = time.monotonic()
    while True:
        rounds.append(run_worker(args, t_run))
        n_ops = sum(r["attempted"] for r in rounds)
        if beyond_p97(n_ops) >= MIN_BEYOND_P97 and time.monotonic() - t_rounds >= args.seconds:
            break
    setups += [r["setup_s"] for r in rounds]
    while len(setups) < SETUP_SAMPLES:
        setups.append(run_worker(args, t_run, setup_only=True)["setup_s"])
    return rounds, setups


def source_digest() -> str:
    h = hashlib.sha256()
    for p in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(p.relative_to(ROOT)).encode())
        h.update(p.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    t_run = time.monotonic()

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "growthcomp" / "__init__.py").is_file() or not spec_path.is_file():
        print("bench: run from a growthcomp checkout (needs src/growthcomp and "
              "BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"bench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            plain = run_worker(args, t_run)
            traced = run_worker(args, t_run, trace=1)
            rounds = [plain, traced]
            values = dict(traced["per_layer"])
            values["trace.overhead_s"] = traced["wall_s"] - plain["wall_s"]
            wanted = spec["per_layer"]
        else:
            rounds, setups = measure(args, t_run)
            latencies = [x for r in rounds for x in r["latencies_s"]]
            if beyond_p97(len(latencies)) < MIN_BEYOND_P97:
                raise BenchError("too few operations for the 97th percentile")
            values = {
                "setup_s": statistics.median(setups),
                "wall_s": statistics.median(r["wall_s"] for r in rounds),
                "op_p50_ms": 1e3 * hd_quantile(latencies, 0.50),
                "op_p97_ms": 1e3 * hd_quantile(latencies, 0.97),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
            }
            wanted = spec["end_to_end"]
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1

    problems = [p for r in rounds for p in r["problems"]]
    digests = sorted({r["digest"] for r in rounds})
    if len(digests) > 1:
        problems.append(f"rounds on identical inputs gave different outputs: {digests}")
    for p in problems[:20]:
        print(f"bench: check failed: {p}", file=sys.stderr)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": not problems,
              "attempted": sum(r["attempted"] for r in rounds),
              "failed": sum(r["failed"] for r in rounds),
              "metrics": metrics}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "cores": os.cpu_count(), "python": platform.python_version(),
        "numpy": rounds[0]["numpy"], "git_sha": git_sha(), "src_sha256": source_digest(),
        "rounds": [{k: r[k] for k in ("setup_s", "wall_s", "peak_rss_mb", "attempted",
                                      "failed", "digest", "process_s")} for r in rounds],
        "digest": digests[0], "problems": problems, "result": result,
    }
    if args.trace:
        record["trace_file"] = rounds[1]["trace_file"]
        record["spans"] = rounds[1]["spans"]
    OUT.mkdir(exist_ok=True)
    rec_path = OUT / f"run-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    rec_path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"record {rec_path.relative_to(ROOT)}")
    print(f"digest {args.workload} {digests[0]}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
