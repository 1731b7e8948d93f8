#!/usr/bin/env python3
"""Run-to-run spread of the benchmark: runs perfbench/run.py once per seed
and prints, for every metric, the median and the inter-quartile range as a
share of the median next to the metric's bound.

    python3 perfbench/spread.py --workload fc_optimize --seeds 1-10 \
        [--trace 0] [--seconds N] [--out runs.json]

--seconds defaults to BENCHMARK.json's run_seconds.  --out keeps every
run's result line.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import metrics  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def seed_list(text):
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10", type=seed_list)
    parser.add_argument("--trace", default=0, type=int, choices=(0, 1))
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out")
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = args.seconds or spec["run_seconds"]
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    results = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
             args.workload, "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(args.trace)],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
        line = proc.stdout.strip().splitlines()[-1] if proc.stdout else "{}"
        result = json.loads(line) if line.startswith("{") else {}
        print(f"seed {seed}: exit {proc.returncode}, correct "
              f"{result.get('correct')}", file=sys.stderr, flush=True)
        results.append(result)
    if args.out:
        Path(args.out).write_text(json.dumps(results, indent=1))

    for m in wanted:
        values = [r["metrics"][m["name"]]["value"] for r in results
                  if m["name"] in r.get("metrics", {})]
        if len(values) < 2:
            continue
        med = metrics.median(values)
        share = metrics.spread(values) if med else float("nan")
        bound = m.get("bound")
        flag = ""
        if bound is not None:
            flag = "ok" if share <= bound / 3 else (
                "WIDE" if share <= bound else "OVER")
        print(f"{m['name']:36s} median {med:>14.6g} {m['unit']:10s} "
              f"spread {share:7.4f}  bound {bound if bound is not None else '-'}"
              f"  {flag}")


if __name__ == "__main__":
    main()
