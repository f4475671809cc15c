"""Record the reference outputs that run.py checks, for a range of seeds.

    python3 perfbench/record_references.py --workload pipeline --seeds 0-20

For each seed it runs one untraced pass of the workload and stores the
selected subset (and for pipeline the ensemble confusion matrix) in
references.json. Record only from a commit whose outputs are known good:
later runs fail when their outputs differ.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys

import run
from repeat import parse_seeds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("pipeline", "ingest"))
    parser.add_argument("--seeds", required=True, help="e.g. 0-20")
    args = parser.parse_args(argv)

    references = run.load_references()
    for seed in parse_seeds(args.seeds):
        bench = run.Bench(args.workload, seed, 0.0, trace=False, smoke=False)
        bench.work.mkdir(parents=True)
        try:
            bench.generate()
            bench.cli_pass(traced=False)
            outputs = bench.outputs()
        finally:
            shutil.rmtree(bench.work, ignore_errors=True)
        if bench.failures:
            print(f"seed {seed}: not recorded, {bench.failures}", file=sys.stderr)
            return 1
        references.setdefault(args.workload, {})[str(seed)] = outputs
        print(f"seed {seed}: {outputs['selected']}", flush=True)
        with open(run.REFERENCES, "w", encoding="utf-8") as fh:
            json.dump(references, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
