"""Steadiness check: two sets of benchmark runs of one commit, spread vs bound.

    python3 bench/steady.py

Each set runs bench/run.py once per seed (set 1: seeds 1..10, set 2: seeds
101..110) on every workload of BENCHMARK.json, with its run length.  For each
end-to-end metric and workload it prints the spread of each set (the distance
between the first and third quartiles over the median, as
statistics.quantiles(values, n=4) gives them) against the metric's bound, and
how far the second set's median moved from the first's.  A metric is steady
when its spread is within the bound and the second median is not worse by
more than the bound; the share of failed operations must be the same in both
sets.  The table and every run result go to bench/out/steady.json.  Exit code
0 when every check passes.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SET_SEEDS = (range(1, 11), range(101, 111))


def run_once(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]

    runs: dict[str, list[list[dict]]] = {w: [] for w in workloads}
    for s, seeds in enumerate(SET_SEEDS):
        for w in workloads:
            results = []
            for seed in seeds:
                res = run_once(w, seed, spec["run_seconds"])
                print(f"set {s + 1} {w} seed {seed}: correct={res['correct']} "
                      f"attempted={res['attempted']} failed={res['failed']} "
                      + " ".join(f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()),
                      flush=True)
                results.append(res)
            runs[w].append(results)

    ok = True
    table = []
    print(f"\n{'workload':18} {'metric':12} {'bound':>6} {'median1':>11} {'spread1':>8} "
          f"{'median2':>11} {'spread2':>8}  drift")
    for w in workloads:
        sets = runs[w]
        shares = [Fraction(sum(r["failed"] for r in rs), sum(r["attempted"] for r in rs))
                  for rs in sets]
        if shares[0] != shares[1] or not all(r["correct"] for rs in sets for r in rs):
            ok = False
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            vals = [[r["metrics"][name]["value"] for r in rs] for rs in sets]
            meds = [statistics.median(v) for v in vals]
            spreads = [spread(v) for v in vals]
            drift = (meds[1] - meds[0]) / meds[0]
            if m["better"] == "higher":
                drift = -drift
            steady = max(spreads) <= bound and drift <= bound
            ok &= steady
            table.append({"workload": w, "metric": name, "bound": bound, "medians": meds,
                          "spreads": spreads, "drift": drift, "steady": steady,
                          "failed_shares": [str(x) for x in shares]})
            print(f"{w:18} {name:12} {bound:6.3f} " + " ".join(
                f"{med:11.5g} {sp:8.4f}" for med, sp in zip(meds, spreads))
                + f" {drift:+7.4f}" + ("" if steady else "  UNSTEADY"))
        print(f"{w:18} failed share per set: {', '.join(str(x) for x in shares)}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / "steady.json").write_text(json.dumps({"table": table, "runs": runs}, indent=1))
    print("steady" if ok else "NOT steady")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
