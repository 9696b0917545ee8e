"""One round of a benchmark workload in a fresh interpreter.

run.py starts this file once per round: it imports growthcomp, builds the
workload's inputs from the seed, runs every operation once under the timer,
checks the outputs outside the timing, and prints one JSON line.  With
--setup-only it stops after building the inputs; with --trace 1 it records
spans around the package's public functions and writes them out at the end.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import shutil
import sys
import tempfile
import time
import warnings
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before the spawn")
    args = ap.parse_args()

    warnings.simplefilter("ignore")
    import growthcomp as gc
    import growthcomp.cli  # noqa: F401  (cli-mix reaches it as gc.cli)

    src = (ROOT / "src").resolve()
    if src not in Path(gc.__file__).resolve().parents:
        print(f"growthcomp imported from {gc.__file__}, not from {src}", file=sys.stderr)
        return 2

    sys.path.insert(0, str(HERE))
    import tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    build, check = workloads.WORKLOADS[args.workload]
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        ops = build(gc, args.seed, workdir)
        setup_s = time.monotonic() - args.spawned_at
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        latencies, results = [], []
        clock = time.perf_counter
        if tracer:
            tracer.enabled = True
        t0 = clock()
        for i, op in enumerate(ops):
            if tracer:
                tracer.op = i
            start = clock()
            try:
                r = op.run()
            except (Exception, SystemExit) as exc:  # a raising operation is a failed one
                r = exc
            latencies.append(clock() - start)
            results.append(r)
        wall_s = clock() - t0
        if tracer:
            tracer.enabled = False
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

        kept = [(o, r) for o, r in zip(ops, results)
                if not isinstance(r, (Exception, SystemExit))]
        raised = [f"{o.key}: raised {r!r}" for o, r in zip(ops, results)
                  if isinstance(r, (Exception, SystemExit))]
        checked = check(gc, [o for o, _ in kept], [r for _, r in kept], args.seed)
        digest = hashlib.sha256("\n".join(sorted(checked.digest)).encode()).hexdigest()
        record = {
            "setup_s": setup_s,
            "wall_s": wall_s,
            "latencies_s": latencies,
            "peak_rss_mb": peak_rss_mb,
            "attempted": len(ops),
            "failed": len(raised) + checked.failed,
            "problems": raised + [message for _, message in checked.problems],
            "digest": digest,
            "numpy": sys.modules["numpy"].__version__,
        }
        if tracer:
            pairs = len(ops) if args.workload == "bridge-sweep" else 0
            record["per_layer"] = tracing.per_layer(tracer, pairs)
            trace_path = OUT / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
            tracer.write(trace_path)
            record["trace_file"] = str(trace_path.relative_to(ROOT))
            record["spans"] = len(tracer.spans)
        print(json.dumps(record))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
