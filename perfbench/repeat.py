"""Run one workload on several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload pipeline --seeds 1-10 --seconds 30 \
        [--trace 0|1] [--out runs.json]

For every metric of the result line it prints the median, the quartiles
from ``statistics.quantiles(values, n=4)`` and the spread, the distance
between the quartiles as a share of the median. With ``--out`` it also
writes the raw results, the report lines included.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def summarize(results: list[dict]) -> dict:
    """Median, quartiles and spread of every metric over the runs."""
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
        out[name] = {"unit": results[0]["metrics"][name]["unit"], "median": median,
                     "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / median if median else 0.0}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", required=True, help="e.g. 1-10 or 1,4,7")
    parser.add_argument("--seconds", required=True)
    parser.add_argument("--trace", default="0")
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    results = []
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", args.workload,
                               "--seed", str(seed), "--seconds", args.seconds,
                               "--trace", args.trace],
                              capture_output=True, text=True, check=True)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        result["seed"] = seed
        result["report"] = {}
        for line in lines[:-1]:
            name, eq, value = line.strip().partition(" = ")
            if eq:
                result["report"][name] = float(value.split()[0])
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} " + " ".join(
                  f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
    summary = summarize(results)
    for name, s in summary.items():
        print(f"{name}: median {s['median']:.6g} {s['unit']}, quartiles "
              f"{s['q1']:.6g}..{s['q3']:.6g}, spread {s['spread']:.4f}")
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "runs": results, "summary": summary},
                      fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
