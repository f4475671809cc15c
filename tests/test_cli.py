import json
import os
import subprocess
import sys

import numpy as np
import pytest

from idsforge.cli import main
from idsforge.dataset import (normalize, read_dataset_artifact,
                              write_dataset_artifact)
from idsforge.evaluation import ClassifierSpec, cross_validate

from conftest import make_leak_dataset

MEAN_RANKS_CSV = (
    "Voting,Stacking,AdaBoost,GBM,kNN,CART,MLP\n"
    "1.667,3.133,3.867,2.067,5.467,4.867,6.933\n"
)


def write_toy_csv(tmp_path, name="toy.csv"):
    rng = np.random.default_rng(0)
    lines = ["f1,f2,f3,f4,f5,proto,const,class"]
    for i in range(60):
        label = "normal" if i % 2 == 0 else "dos"
        vals = rng.random(5)
        vals[0] = 0.0 if label == "normal" else 1.0
        proto = ["tcp", "udp", "icmp"][i % 3]
        lines.append(",".join(f"{v:.6f}" for v in vals) + f",{proto},5,{label}")
    path = tmp_path / name
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


RUN_VARYING = ("mbt_seconds", "seconds", "created_utc")


def without_run_varying(doc):
    """The document with every timing and timestamp field removed."""
    if isinstance(doc, dict):
        return {k: without_run_varying(v) for k, v in doc.items() if k not in RUN_VARYING}
    if isinstance(doc, list):
        return [without_run_varying(v) for v in doc]
    return doc


@pytest.fixture
def artifact_dir(tmp_path):
    ds = normalize(make_leak_dataset(seed=5, n=80, d=6, classes=2))
    out = tmp_path / "artifact"
    write_dataset_artifact(ds, out)
    return str(out)


class TestPreprocess:
    def test_toy_pipeline(self, tmp_path, capsys):
        csv_path = write_toy_csv(tmp_path)
        out = str(tmp_path / "prep")
        assert main(["preprocess", "--input", csv_path, "--label-column", "class",
                     "--out", out]) == 0
        meta = read_json(os.path.join(out, "dataset.meta.json"))
        assert len(meta["feature_meta"]) == 6  # const column dropped
        assert meta["class_names"] == ["normal", "dos"]
        assert meta["normal_class"] == 0
        report = read_json(os.path.join(out, "preprocess_report.json"))
        assert report["dropped_constant_features"] == ["const"]
        assert report["rows_in"] == 60

    def test_missing_input_exit_code(self, tmp_path, capsys):
        assert main(["preprocess", "--input", str(tmp_path / "nope.csv"),
                     "--label-column", "class"]) == 2
        assert "error" in capsys.readouterr().err

    def test_ragged_input_exit_code(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,class\n1,2,x\n1,y\n1,2,x\n", encoding="utf-8")
        assert main(["preprocess", "--input", str(path), "--label-column", "class",
                     "--out", str(tmp_path / "o")]) == 2


class TestSelect:
    def test_cfs_ba_finds_leak_feature(self, artifact_dir, tmp_path, capsys):
        out = str(tmp_path / "sel")
        assert main(["select", "--input", artifact_dir, "--selector", "cfs-ba",
                     "--seed", "3", "--iterations", "30", "--out", out]) == 0
        payload = read_json(os.path.join(out, "subset.json"))
        assert 0 in payload["selected"]
        assert payload["merit"] > 0.9
        txt = open(os.path.join(out, "subset.txt"), encoding="utf-8").read().strip()
        assert txt == ",".join(str(i) for i in payload["selected"])

    def test_ig_top(self, artifact_dir, tmp_path, capsys):
        out = str(tmp_path / "sel_ig")
        assert main(["select", "--input", artifact_dir, "--selector", "ig",
                     "--top", "3", "--out", out]) == 0
        payload = read_json(os.path.join(out, "subset.json"))
        assert len(payload["selected"]) == 3
        assert 0 in payload["selected"]

    def test_seed_reproducibility_modulo_timing(self, artifact_dir, tmp_path, capsys):
        outs = []
        for run in ("a", "b"):
            out = str(tmp_path / f"sel_{run}")
            assert main(["select", "--input", artifact_dir, "--selector", "cfs-ba",
                         "--seed", "11", "--iterations", "20", "--out", out]) == 0
            payload = read_json(os.path.join(out, "subset.json"))
            payload.pop("seconds")
            outs.append(json.dumps(payload, sort_keys=True))
        assert outs[0] == outs[1]


class TestEvaluate:
    def test_leak_dataset_reaches_full_accuracy(self, artifact_dir, tmp_path, capsys):
        out = str(tmp_path / "eval")
        assert main(["evaluate", "--input", artifact_dir,
                     "--classifiers", "c45,rf,forest_pa",
                     "--features", "0",
                     "--min-leaf", "1", "--min-gain", "0",
                     "--n-trees", "5", "--k", "4", "--seed", "1",
                     "--out", out]) == 0
        report = read_json(os.path.join(out, "report.json"))
        assert set(report["results"]) == {"c45", "rf", "forest_pa", "ensemble"}
        assert report["results"]["ensemble"]["accuracy"] == 1.0
        assert report["results"]["ensemble"]["far"] == 0.0
        assert report["selection"]["selected"] == [0]
        assert os.path.exists(os.path.join(out, "confusion.csv"))

    def test_rule_sweep(self, artifact_dir, tmp_path):
        accs = {}
        for rule in ("average-of-probabilities", "majority-voting",
                     "product-of-probabilities", "minimum-probability",
                     "maximum-probability"):
            out = str(tmp_path / f"eval_{rule}")
            assert main(["evaluate", "--input", artifact_dir,
                         "--classifiers", "c45,rf", "--rule", rule,
                         "--n-trees", "3", "--k", "3", "--seed", "0",
                         "--out", out]) == 0
            accs[rule] = read_json(os.path.join(out, "report.json"))["results"]["ensemble"]["accuracy"]
        assert len(accs) == 5
        assert all(0.0 <= a <= 1.0 for a in accs.values())

    @pytest.mark.parametrize("subset_name, subset_text", [
        ("bad.json", "{"),
        ("no_key.json", '{"chosen": [0]}'),
        ("not_object.json", "[0, 1]"),
        ("not_ints.json", '{"selected": ["0"]}'),
        ("high.json", '{"selected": [999]}'),
        ("negative.json", '{"selected": [-1]}'),
        ("high.txt", "0,999"),
    ])
    def test_bad_subset_file_exit_code(self, artifact_dir, tmp_path, capsys,
                                       subset_name, subset_text):
        subset = tmp_path / subset_name
        subset.write_text(subset_text, encoding="utf-8")
        assert main(["evaluate", "--input", artifact_dir, "--subset-file", str(subset),
                     "--classifiers", "c45", "--k", "3",
                     "--out", str(tmp_path / "eval")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("command", ["select", "evaluate"])
    @pytest.mark.parametrize("features", ["-1", "6", "0,999"])
    def test_out_of_range_features_exit_code(self, artifact_dir, tmp_path, capsys,
                                             command, features):
        argv = [command, "--input", artifact_dir, f"--features={features}",
                "--out", str(tmp_path / "out")]
        argv += (["--selector", "list"] if command == "select"
                 else ["--classifiers", "c45", "--k", "3"])
        assert main(argv) == 2
        assert "out of range" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    def test_config_file_with_flag_override(self, artifact_dir, tmp_path):
        config = tmp_path / "exp.conf"
        config.write_text("k = 3\nn-trees = 2\nclassifiers = c45\nseed = 5\n",
                          encoding="utf-8")
        out = str(tmp_path / "eval_cfg")
        assert main(["evaluate", "--input", artifact_dir, "--config", str(config),
                     "--k", "4", "--out", out]) == 0
        report = read_json(os.path.join(out, "report.json"))
        assert report["config"]["k"] == 4  # flag beats config
        assert report["config"]["n_trees"] == 2
        assert report["config"]["classifiers"] == ["c45"]


class TestReproducibility:
    def test_full_run_repeats_byte_for_byte(self, tmp_path, monkeypatch, capsys):
        csv_path = write_toy_csv(tmp_path)
        runs = {}
        for run in ("a", "b"):
            run_dir = tmp_path / run
            run_dir.mkdir()
            monkeypatch.chdir(run_dir)  # config.input names the same relative path
            assert main(["preprocess", "--input", csv_path, "--label-column", "class",
                         "--out", "prep"]) == 0
            assert main(["select", "--input", "prep", "--selector", "cfs-ba",
                         "--iterations", "10", "--seed", "4", "--out", "sel"]) == 0
            assert main(["evaluate", "--input", "prep", "--subset-file", "sel/subset.json",
                         "--classifiers", "c45,rf,forest_pa", "--n-trees", "3",
                         "--k", "3", "--repeats", "2", "--seed", "4", "--out", "eval"]) == 0
            files = {}
            for path in sorted(p for p in run_dir.rglob("*") if p.is_file()):
                name = str(path.relative_to(run_dir))
                files[name] = (without_run_varying(read_json(path)) if name.endswith(".json")
                               else path.read_bytes())
            runs[run] = files
        assert "eval/confusion.csv" in runs["a"]
        assert runs["a"] == runs["b"]

        # The c45 block, taken from the ensemble's fold models, is what a
        # standalone one-member cross-validation reports.
        report = read_json(tmp_path / "a" / "eval" / "report.json")
        ds = read_dataset_artifact(str(tmp_path / "a" / "prep"))
        alone = cross_validate(ds, [ClassifierSpec("c45", n_trees=3)], k=3, repeats=2,
                               seed=4, feature_indices=report["selection"]["selected"])
        assert without_run_varying(report["results"]["c45"]) == without_run_varying(
            alone.report.to_dict())
        assert without_run_varying(report["per_repeat"]["c45"]) == without_run_varying(
            [r.to_dict() for r in alone.per_repeat])


class TestStats:
    def test_paper_mean_ranks(self, tmp_path, capsys):
        table = tmp_path / "ranks.csv"
        table.write_text(MEAN_RANKS_CSV, encoding="utf-8")
        out = str(tmp_path / "stats")
        assert main(["stats", "--input", str(table), "--mean-ranks",
                     "--n-datasets", "3", "--cd-summary", "--out", out]) == 0
        payload = read_json(os.path.join(out, "stats.json"))
        assert payload["friedman"]["f_statistic"] == pytest.approx(6.5665, abs=0.005)
        assert payload["friedman"]["p_value"] == pytest.approx(0.0029, abs=0.002)
        pairs = payload["nemenyi"]["0.05"]["significant_pairs"]
        assert [(p["first"], p["second"]) for p in pairs] == [("Voting", "MLP")]
        summary = open(os.path.join(out, "cd_summary.txt"), encoding="utf-8").read()
        assert "Voting vs MLP" in summary

    def test_metric_values_are_ranked(self, tmp_path):
        table = tmp_path / "metrics.csv"
        table.write_text("dataset,a,b\nD1,0.9,0.8\nD2,0.85,0.8\nD3,0.9,0.7\n",
                         encoding="utf-8")
        out = str(tmp_path / "stats2")
        assert main(["stats", "--input", str(table), "--out", out]) == 0
        payload = read_json(os.path.join(out, "stats.json"))
        assert payload["mean_ranks"]["a"] == 1.0
        assert payload["friedman"]["p_value"] == 0.0  # perfectly consistent

    def test_identical_columns_accept_null(self, tmp_path):
        table = tmp_path / "metrics.csv"
        table.write_text("a,b\n0.9,0.9\n0.8,0.8\n", encoding="utf-8")
        out = str(tmp_path / "stats3")
        assert main(["stats", "--input", str(table), "--out", out]) == 0
        payload = read_json(os.path.join(out, "stats.json"))
        assert payload["friedman"]["chi2_f"] == 0.0
        assert payload["friedman"]["p_value"] == 1.0


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "idsforge", "--version"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert "idsforge" in proc.stdout

    def test_threads_env_fallback(self, artifact_dir, tmp_path):
        out_a = str(tmp_path / "env_a")
        out_b = str(tmp_path / "env_b")
        env = dict(os.environ, IDSFORGE_THREADS="2")
        for out in (out_a, out_b):
            proc = subprocess.run(
                [sys.executable, "-m", "idsforge", "evaluate",
                 "--input", artifact_dir, "--classifiers", "rf",
                 "--n-trees", "4", "--k", "3", "--seed", "2", "--out", out],
                capture_output=True, text=True, env=env,
            )
            assert proc.returncode == 0, proc.stderr
        a = read_json(os.path.join(out_a, "report.json"))
        b = read_json(os.path.join(out_b, "report.json"))
        assert a["config"]["threads"] == 2
        for doc in (a, b):
            doc["created_utc"] = None
            for block in doc["results"].values():
                block["mbt_seconds"] = None
            for reports in doc["per_repeat"].values():
                for block in reports:
                    block["mbt_seconds"] = None
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
