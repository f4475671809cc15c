"""The benchmark's own tests, on tiny inputs (``--smoke``).

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import gen  # noqa: E402
import spans  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", trace, "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    spec = SPEC["end_to_end" if trace == "0" else "per_layer"]
    assert {m["name"]: m["unit"] for m in spec} == {
        name: m["unit"] for name, m in result["metrics"].items()}


def test_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "pipeline", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_generator_is_seeded_and_shaped():
    header, columns, labels = gen.generate(2000, 5, 0.02)
    again = gen.generate(2000, 5, 0.02)
    assert all(np.array_equal(a, b) for a, b in zip(columns, again[1]))
    assert len(header) == 42 and header[-1] == gen.LABEL
    counts = np.bincount(labels, minlength=len(gen.CLASSES))
    assert counts.min() >= 10 and counts[0] > counts[1] > counts[2] > counts[3] >= counts[4]
    const = columns[header.index(gen.CONSTANT_COLUMN)]
    assert set(const) == {"0"}
    assert len(set(columns[header.index("service")])) > 40


def test_sweep_counter_matches_the_split_engine(monkeypatch):
    """The outside-in replay counts the same rows x candidate features that
    the split search itself sees."""
    from idsforge import dataset, trees
    header, columns, labels = gen.generate(600, 2, 0.05)
    names, features, class_order, row_classes = gen.expected_artifact(header, columns, labels)
    ds = dataset.Dataset(
        features=features,
        feature_meta=[dataset.FeatureMeta(n, "numeric", 0.0, 1.0) for n in names],
        labels=[class_order.index(c) for c in row_classes], class_names=class_order,
        normal_class=0)
    seen = {"sweep": 0}
    best_split = trees._best_split

    def counting(X, onehot, feature_ids, *rest):
        seen["sweep"] += X.shape[0] * len(feature_ids)
        return best_split(X, onehot, feature_ids, *rest)

    monkeypatch.setattr(trees, "_best_split", counting)
    rows = np.arange(0, 600, 2)
    fits = [("trees.c45_fit", ds, rows, trees.c45_fit(ds, rows)),
            ("trees.rf_fit", ds, rows, trees.rf_fit(ds, rows, n_trees=3, seed=4)),
            ("trees.forest_pa_fit", ds, None, trees.forest_pa_fit(ds, None, n_trees=2))]
    counted = spans.tree_counters(fits)
    assert counted["sweep_row_features"] == seen["sweep"] > 0
    assert counted["trees_built"] == 6
    assert counted["max_depth"] == max(
        trees.tree_height(t) for t in [fits[0][3]] + fits[1][3].trees + fits[2][3].trees)
