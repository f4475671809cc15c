"""Child process of the benchmark: one idsforge job, optionally traced.

    python3 perfbench/worker.py [--spans FILE --run-id ID] cli -- ARGS...
    python3 perfbench/worker.py [...] fit ARTIFACT MODELS --train-rows N --n-trees T --threads H --seed S
    python3 perfbench/worker.py [...] score ARTIFACT MODELS --train-rows N --seconds S --out FILE

``cli`` runs the idsforge CLI in-process, so that its calls can be traced.
``fit`` fits c45, rf and forest_pa on the first N rows of an artifact and
saves them with ``save_model``. ``score`` loads the models with
``load_model`` and classifies the artifact's remaining rows in 64-row and
4096-row batches, rotating through the five combination rules. With
``--spans`` the spans and counters of the job are written to FILE.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from spans import Recorder

KINDS = ("c45", "rf", "forest_pa")
SMALL_ROWS = 64
LARGE_ROWS = 4096
# One scoring pass: 200 small batches and one large batch per rule. Short
# passes give the median pass time many samples in a run; an untraced run
# makes at least MIN_PASSES of them, 1000 small batches, so that their p99
# has ten samples beyond it.
SMALL_PER_PASS = 200
LARGE_PER_PASS = 5
MIN_PASSES = 5
CHECK_ROWS = 50
# Held-out accuracy below this means scoring used the wrong class codes or
# scaling; the models reach about 0.97 on the generated tables.
MIN_ACCURACY = 0.8


def run_passes(one_pass, seconds: float, max_passes: int | None = None,
               min_passes: int = 1) -> list[float]:
    """Run one_pass() until the next pass would end after ``seconds`` (at
    least min_passes times, at most max_passes); return each pass's wall
    time."""
    times: list[float] = []
    start = time.perf_counter()
    while len(times) < min(min_passes, max_passes or sys.maxsize) or (
            len(times) < (max_passes or sys.maxsize)
            and time.perf_counter() - start + float(np.median(times)) <= seconds):
        t0 = time.perf_counter()
        one_pass()
        times.append(time.perf_counter() - t0)
    return times


def do_fit(args) -> int:
    from idsforge import dataset, trees
    ds = dataset.read_dataset_artifact(args.artifact)
    rows = np.arange(args.train_rows)
    models = {
        "c45": trees.c45_fit(ds, rows),
        "rf": trees.rf_fit(ds, rows, n_trees=args.n_trees, seed=args.seed,
                           threads=args.threads),
        "forest_pa": trees.forest_pa_fit(ds, rows, n_trees=args.n_trees, seed=args.seed),
    }
    for kind, model in models.items():
        trees.save_model(model, os.path.join(args.models, f"{kind}.json"))
    return 0


def do_score(args) -> int:
    from idsforge import dataset, ensemble, trees
    rules = list(ensemble.CombinationRule)
    ds = dataset.read_dataset_artifact(args.artifact)
    held = ds.features[args.train_rows:]
    truth = ds.labels[args.train_rows:]
    n_held = held.shape[0]
    if n_held <= LARGE_ROWS:
        raise SystemExit(f"need more than {LARGE_ROWS} held-out rows, have {n_held}")
    small_ms: list[float] = []
    large_ms: list[float] = []

    def ensembles():
        members = [trees.load_model(os.path.join(args.models, f"{k}.json")) for k in KINDS]
        return [ensemble.VoteEnsemble(members=members, rule=r) for r in rules]

    def one_pass():
        by_rule = ensembles()
        for i in range(SMALL_PER_PASS):
            start = (i * SMALL_ROWS) % (n_held - SMALL_ROWS)
            t0 = time.perf_counter()
            ensemble.ensemble_predict_batch(by_rule[i % len(rules)],
                                            held[start:start + SMALL_ROWS])
            small_ms.append((time.perf_counter() - t0) * 1e3)
        for j in range(LARGE_PER_PASS):
            start = (j * LARGE_ROWS) % (n_held - LARGE_ROWS)
            t0 = time.perf_counter()
            ensemble.ensemble_predict_batch(by_rule[j % len(rules)],
                                            held[start:start + LARGE_ROWS])
            large_ms.append((time.perf_counter() - t0) * 1e3)

    passes = run_passes(one_pass, args.seconds, args.max_passes, MIN_PASSES)

    # Output checks, outside the timed passes: batch labels equal single-row
    # labels on a fixed sample for every rule, and the average rule classifies
    # the held-out rows of the training artifact well (a mismatch of class codes
    # or scaling between fit and score shows up as a collapse in accuracy).
    sample = np.linspace(0, n_held - 1, CHECK_ROWS).astype(np.int64)
    check_failures = []
    by_rule = ensembles()
    for ens in by_rule:
        batch_labels, _ = ensemble.ensemble_predict_batch(ens, held[sample])
        single = [ensemble.ensemble_predict(ens, held[i]).label for i in sample]
        if list(map(int, batch_labels)) != single:
            check_failures.append(f"batch and single-row labels differ for {ens.rule.value}")
    labels, _ = ensemble.ensemble_predict_batch(by_rule[0], held)
    accuracy = float(np.mean(labels == truth))
    if accuracy < MIN_ACCURACY:
        check_failures.append(f"held-out accuracy {accuracy:.4f} < {MIN_ACCURACY}")

    n_small, n_large = len(small_ms), len(large_ms)
    result = {
        "passes_s": passes,
        "small_ms": small_ms,
        "large_ms": large_ms,
        "rows": n_small * SMALL_ROWS + n_large * LARGE_ROWS,
        "batch_s": (sum(small_ms) + sum(large_ms)) / 1e3,
        "accuracy": accuracy,
        "checks": len(rules) + 1,
        "check_failures": check_failures,
    }
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", help="trace the job and write its spans here")
    parser.add_argument("--run-id", default="untraced")
    sub = parser.add_subparsers(dest="task", required=True)
    p = sub.add_parser("cli")
    p.add_argument("argv", nargs=argparse.REMAINDER)
    for name in ("fit", "score"):
        p = sub.add_parser(name)
        p.add_argument("artifact")
        p.add_argument("models")
        p.add_argument("--train-rows", type=int, required=True)
    p = sub.choices["fit"]
    p.add_argument("--n-trees", type=int, required=True)
    p.add_argument("--threads", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p = sub.choices["score"]
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--max-passes", type=int)
    p.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    recorder = None
    if args.spans:
        recorder = Recorder(args.run_id)
        recorder.install()
    if args.task == "cli":
        from idsforge import cli
        cli_argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        job = (recorder.span("cli.main", cli.main) if recorder else cli.main)
        code = job(cli_argv)
    else:
        code = {"fit": do_fit, "score": do_score}[args.task](args)
    if recorder:
        recorder.dump(args.spans)
    return code


if __name__ == "__main__":
    sys.exit(main())
