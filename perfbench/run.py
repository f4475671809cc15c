"""idsforge benchmark: one workload, end to end or traced.

    python3 perfbench/run.py --workload {pipeline,ingest,score} --seed N \
        --seconds S --trace {0,1} [--smoke]

Run from the root of a source checkout; the program is imported from its
``src/`` directory, nothing is installed. The inputs are NSL-KDD-shaped CSVs
generated from ``--seed`` (see gen.py); idsforge sees only the generated
files. The timed part repeats whole passes for about ``--seconds`` and
reports medians. Every pass is checked (see README.md).

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of one traced pass with ``--trace 1``. The lines before it
print every metric of the workload by name and unit.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

import gen
import spans
from worker import run_passes

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCES = HERE / "references.json"

# One thread: at these sizes evaluate measured slower on two threads than on
# one, and on a shared 2-core host two busy threads time the scheduler as
# much as idsforge.
THREADS = 1
# pipeline's evaluate runs on these columns, the ones CFS-BA selects most
# often (each in at least 18 of the 21 recorded subsets). The swarm's whole
# pick varies from 6 to 11 columns between seeds, which would move
# evaluate_s by about 20% from seed to seed; select itself still runs and is
# checked every pass.
EVALUATE_FEATURES = ("protocol_type", "service", "flag", "src_bytes", "dst_bytes", "count",
                     "srv_count", "dst_host_srv_count")
# Set-up runs at least SETUP_REPEATS times and, when it is cheap, until
# SETUP_MIN_S have passed, so that its median is not one short measurement.
SETUP_REPEATS = 3
SETUP_MIN_S = 2.0
SETUP_MAX_REPEATS = 25
STARTUP_REPEATS = 5
CHILD_TIMEOUT_S = 150

# Why each workload exists is in README.md. The sizes keep a full set of
# repeated runs of all three workloads inside a fixed time budget on a
# 2-core machine.
WORKLOADS = {
    "pipeline": {"rows": 3000, "overlap": 0.02, "folds": 5, "n_trees": 5},
    "ingest": {"rows": 126_000, "overlap": 0.02},
    "score": {"rows": 12_000, "overlap": 0.02, "train_rows": 3000, "n_trees": 5},
}
# --smoke: tiny inputs for the benchmark's own test.
SMOKE = {
    "pipeline": {"rows": 400, "overlap": 0.02, "folds": 3, "n_trees": 2},
    "ingest": {"rows": 1500, "overlap": 0.02},
    "score": {"rows": 4800, "overlap": 0.02, "train_rows": 500, "n_trees": 2},
}

END_TO_END = {"setup_s": "s", "total_s": "s", "peak_rss_mb": "MB"}
UNITS = {
    "preprocess_s": "s", "select_s": "s", "evaluate_s": "s", "score_rows_per_s": "rows/s",
    "score_small_ms_p50": "ms", "score_small_ms_p99": "ms", "score_large_ms_p50": "ms",
    "accuracy": "fraction", "error_rate": "failed/attempted", "cli.startup_s": "s",
    "trace.overhead_s": "s", "dataset.cells": "count", "dataset.peak_rss_rise_mb": "MB",
    "featsel.merit_evals": "count", "trees.fit_calls": "count", "trees.trees_built": "count",
    "trees.nodes": "count", "trees.max_depth": "count", "trees.sweep_row_features": "count",
    "trees.predict_calls": "count", "ensemble.combine_calls": "count",
    "evaluation.cross_validate_calls": "count", "passes": "count", "small_batches": "count",
    **END_TO_END,
}


def unit(name: str) -> str:
    return UNITS.get(name, "s")


class Child:
    """Outcome of one child process: exit code, wall time, peak RSS."""

    def __init__(self, code: int, seconds: float, rss_mb: float, log: Path):
        self.code, self.seconds, self.rss_mb, self.log = code, seconds, rss_mb, log


class Bench:
    def __init__(self, workload: str, seed: int, seconds: float, trace: bool, smoke: bool):
        self.workload, self.seed, self.seconds, self.trace = workload, seed, seconds, trace
        self.smoke = smoke
        self.size = (SMOKE if smoke else WORKLOADS)[workload]
        self.work = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.attempted = 0
        self.failures: list[str] = []
        self.dumps: list[dict] = []
        self.spans_seq = 0
        self.csv = self.work / "traffic.csv"
        self.prep = self.work / "prep"
        self.sel = self.work / "sel"
        self.eval = self.work / "eval"
        self.models = self.work / "models"
        self.artifact_digest = None
        self.reference = None
        self.reference_source = "none"
        self.accuracy = None

    # -- children ---------------------------------------------------------

    def child(self, argv: list[str], dump: Path | None = None) -> Child:
        """Run one child to completion through spawn.py, which measures it.
        A traced worker writes its spans to dump; they are kept, and its
        bookkeeping time is not counted."""
        log, report = self.work / "child.log", self.work / "child.json"
        report.unlink(missing_ok=True)
        with open(log, "wb") as out:
            proc = subprocess.Popen([sys.executable, "-S", str(HERE / "spawn.py"), str(report)]
                                    + argv, cwd=ROOT, env=self.env, stdout=out,
                                    stderr=subprocess.STDOUT, start_new_session=True)
            try:
                proc.wait(timeout=CHILD_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        if not report.exists():
            return Child(proc.returncode or -signal.SIGKILL, CHILD_TIMEOUT_S, 0.0, log)
        with open(report, encoding="utf-8") as fh:
            outcome = json.load(fh)
        result = Child(outcome["code"], outcome["seconds"], outcome["rss_mb"], log)
        if dump is not None and dump.exists():
            with open(dump, encoding="utf-8") as fh:
                doc = json.load(fh)
            self.dumps.append(doc)
            result.seconds -= doc["bookkeeping_s"]
        return result

    def op(self, what: str, argv: list[str], dump: Path | None = None) -> Child:
        """A counted operation: a CLI command or worker job that must exit 0."""
        self.attempted += 1
        result = self.child(argv, dump)
        if result.code != 0:
            tail = result.log.read_text(errors="replace")[-2000:]
            self.failures.append(f"{what} exited {result.code}: {tail}")
        return result

    def job(self, argv: list[str], traced: bool) -> Child:
        """A worker job (see worker.py), traced or not."""
        prefix = [sys.executable, str(HERE / "worker.py")]
        dump = None
        if traced:
            self.spans_seq += 1
            dump = self.work / f"spans-{self.spans_seq}.json"
            prefix += ["--spans", str(dump),
                       "--run-id", f"{self.workload}-{self.seed}-{self.spans_seq}"]
        return self.op(argv[0] if argv[0] != "cli" else argv[2], prefix + argv, dump)

    def cli(self, args: list[str], traced: bool) -> Child:
        if traced:
            return self.job(["cli", "--"] + args, traced=True)
        return self.op(args[0], [sys.executable, "-m", "idsforge"] + args)

    def check(self, what: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(f"check failed: {what}")

    # -- set-up -----------------------------------------------------------

    def generate(self) -> None:
        size = self.size
        min_rows = 2 * size.get("folds", 5)
        if "train_rows" in size:
            header, columns, labels = gen.generate_parts(
                [size["train_rows"], size["rows"] - size["train_rows"]], self.seed,
                size["overlap"], min_rows)
        else:
            header, columns, labels = gen.generate(size["rows"], self.seed, size["overlap"],
                                                   min_rows)
        gen.write_csv(self.csv, header, columns, labels)
        self.table = (header, columns, labels, [gen.CLASSES[i] for i in labels])

    def setup_once(self, traced: bool = False) -> float:
        start = time.perf_counter()
        self.generate()
        if self.workload == "score":
            self.preprocess(traced)
            self.job(["fit", str(self.prep), str(self.models),
                      "--train-rows", str(self.size["train_rows"]),
                      "--n-trees", str(self.size["n_trees"]), "--threads", str(THREADS),
                      "--seed", str(self.seed)], traced)
        return time.perf_counter() - start

    # -- CLI passes (pipeline, ingest) ---------------------------------------

    def preprocess(self, traced: bool) -> Child:
        return self.cli(["preprocess", "--input", str(self.csv), "--label-column", gen.LABEL,
                         "--normal-class", "normal", "--out", str(self.prep)], traced)

    def cli_pass(self, traced: bool) -> dict:
        stages = {"preprocess_s": self.preprocess(traced)}
        stages["select_s"] = self.cli(["select", "--input", str(self.prep), "--selector",
                                       "cfs-ba", "--seed", str(self.seed), "--out",
                                       str(self.sel)], traced)
        if self.workload == "pipeline":
            stages["evaluate_s"] = self.cli(
                ["evaluate", "--input", str(self.prep),
                 "--features", self.evaluate_features(),
                 "--classifiers", "c45,rf,forest_pa", "--rule", "average-of-probabilities",
                 "--k", str(self.size["folds"]), "--n-trees", str(self.size["n_trees"]),
                 "--threads", str(THREADS), "--seed", str(self.seed),
                 "--out", str(self.eval)], traced)
        self.check_outputs()
        return stages

    def evaluate_features(self) -> str:
        """EVALUATE_FEATURES as artifact column indices."""
        with open(self.prep / "dataset.csv", newline="", encoding="utf-8") as fh:
            header = next(csv.reader(fh))
        return ",".join(str(header.index(name)) for name in EVALUATE_FEATURES)

    def outputs(self) -> dict:
        """The pass outputs that must match the seed's reference: the selected
        subset and, for pipeline, the ensemble's confusion matrix (the
        per-member blocks are left out on purpose)."""
        outputs = {"selected": read_json(self.sel / "subset.json", "selected")}
        if self.workload == "pipeline":
            outputs["confusion"] = read_json(self.eval / "report.json", "confusion")
        return outputs

    def check_outputs(self) -> None:
        """Check the artifact against the oracle on the first pass and for
        byte identity after it; check subset and confusion matrix against
        the recorded reference for the seed, or the first pass when the seed
        has none."""
        artifact = self.prep / "dataset.csv"
        digest = hashlib.sha256(artifact.read_bytes()).hexdigest() if artifact.exists() else None
        if self.artifact_digest is None:
            self.artifact_digest = digest
            self.check("artifact matches the independent preprocessing oracle",
                       digest is not None and self.artifact_matches_oracle())
        else:
            self.check("artifact identical to the first pass", digest == self.artifact_digest)

        outputs = self.outputs()
        if self.workload == "pipeline":
            self.accuracy = (read_json(self.eval / "report.json", "results")
                             or {}).get("ensemble", {}).get("accuracy")
            confusion = outputs["confusion"] or {"class_names": [], "counts": []}
            support = dict(zip(confusion["class_names"],
                               (sum(row) for row in confusion["counts"])))
            self.check("confusion matrix holds every row once, under its class",
                       support == dict(Counter(self.table[3])))
        if self.reference is None:
            recorded = None if self.smoke else (
                load_references().get(self.workload, {}).get(str(self.seed)))
            self.reference_source = "recorded" if recorded else "first pass"
            self.reference = recorded or outputs
        for key, value in outputs.items():
            self.check(f"{key} matches the reference for seed {self.seed}",
                       value is not None and value == self.reference.get(key))

    def artifact_matches_oracle(self) -> bool:
        names, expected, class_order, row_classes = gen.expected_artifact(*self.table[:3])
        try:
            with open(self.prep / "dataset.meta.json", encoding="utf-8") as fh:
                sidecar = json.load(fh)
            with open(self.prep / "dataset.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            header, body = rows[0], rows[1:]
            got = np.array([row[:-1] for row in body], dtype=np.float64)
        except (OSError, ValueError, IndexError):
            return False
        return (header == names + [gen.LABEL]
                and sidecar["class_names"] == class_order
                and [row[-1] for row in body] == row_classes
                and got.shape == expected.shape and np.array_equal(got, expected))

    # -- score ---------------------------------------------------------------

    def score(self, traced: bool) -> dict:
        out = self.work / "score.json"
        argv = ["score", str(self.prep), str(self.models),
                "--train-rows", str(self.size["train_rows"]),
                "--seconds", str(self.seconds), "--out", str(out)]
        if traced:
            argv += ["--max-passes", "1"]
        child = self.job(argv, traced)
        if child.code != 0:
            raise SystemExit(f"score worker failed:\n{self.failures[-1]}")
        with open(out, encoding="utf-8") as fh:
            result = json.load(fh)
        self.attempted += len(result["small_ms"]) + len(result["large_ms"]) + result["checks"]
        self.failures += result["check_failures"]
        result["rss_mb"] = child.rss_mb
        return result

    def check_score_artifact(self) -> None:
        if self.workload == "score":
            self.check("artifact matches the independent preprocessing oracle",
                       self.artifact_matches_oracle())

    # -- runs --------------------------------------------------------------------

    def run(self) -> tuple[dict, dict]:
        """(metrics for the result line, every metric for the report)."""
        if self.trace:
            self.setup_once(traced=True)
            self.check_score_artifact()
            untraced = self.timed(traced=False)
            traced = self.timed(traced=True)
            report = spans.summarize(self.dumps)
            report["cli.startup_s"] = self.startup_s()
            report["trace.overhead_s"] = traced["total_s"] - untraced["total_s"]
            return dict(report), report
        setups: list[float] = []
        while len(setups) < SETUP_REPEATS or (sum(setups) < SETUP_MIN_S
                                              and len(setups) < SETUP_MAX_REPEATS):
            setups.append(self.setup_once())
        setup_s = statistics.median(setups)
        self.check_score_artifact()
        report = {"setup_s": setup_s, **self.timed(traced=False)}
        return {name: report[name] for name in END_TO_END}, report

    def timed(self, traced: bool) -> dict:
        """Timed passes (one when traced) and their metrics."""
        if self.workload == "score":
            r = self.score(traced)
            small, large = np.array(r["small_ms"]), np.array(r["large_ms"])
            return {
                "total_s": float(np.median(r["passes_s"])),
                "peak_rss_mb": r["rss_mb"],
                "score_rows_per_s": r["rows"] / r["batch_s"],
                "score_small_ms_p50": float(np.percentile(small, 50)),
                "score_small_ms_p99": float(np.percentile(small, 99)),
                "score_large_ms_p50": float(np.percentile(large, 50)),
                "accuracy": r["accuracy"],
                "small_batches": small.size,
            }
        passes: list[dict] = []
        run_passes(lambda: passes.append(self.cli_pass(traced)), self.seconds,
                   1 if traced else None)
        metrics = {"total_s": statistics.median(sum(c.seconds for c in p.values())
                                                for p in passes),
                   "peak_rss_mb": max(c.rss_mb for p in passes for c in p.values())}
        for stage in passes[0]:
            metrics[stage] = statistics.median(p[stage].seconds for p in passes)
        if self.workload == "pipeline":
            metrics["accuracy"] = self.accuracy
        metrics["passes"] = len(passes)
        return metrics

    def startup_s(self) -> float:
        """Interpreter plus import time of a CLI command that does no work."""
        times = [self.op("--version", [sys.executable, "-m", "idsforge", "--version"]).seconds
                 for _ in range(STARTUP_REPEATS)]
        return statistics.median(times)


def read_json(path: Path, key: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh).get(key)
    except (OSError, ValueError):
        return None


def load_references() -> dict:
    if not REFERENCES.exists():
        return {}
    with open(REFERENCES, encoding="utf-8") as fh:
        return json.load(fh)


def machine() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": np.__version__}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="idsforge benchmark (see README.md)")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny inputs, for tests")
    args = parser.parse_args(argv)

    if not (SRC / "idsforge" / "__init__.py").is_file():
        print(f"error: no idsforge sources under {SRC}", file=sys.stderr)
        return 2
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)
    bench.work.mkdir(parents=True)
    try:
        found = subprocess.run([sys.executable, "-c", "import idsforge; print(idsforge.__file__)"],
                               cwd=ROOT, env=bench.env, capture_output=True, text=True)
        if found.returncode != 0 or Path(found.stdout.strip()).parent != SRC / "idsforge":
            print(f"error: idsforge does not import from {SRC}: {found.stderr}",
                  file=sys.stderr)
            return 2
        result_metrics, report = bench.run()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass

    failed = len(bench.failures)
    report["error_rate"] = failed / bench.attempted
    for failure in bench.failures:
        print(f"FAILED: {failure}", file=sys.stderr)
    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}, "
          f"{machine()}, reference outputs: {bench.reference_source}")
    for name, value in report.items():
        if value is not None:
            print(f"  {name} = {value:.6g} {unit(name)}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": bench.attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit(name)}
                    for name, value in result_metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
