import csv
import io
import json
import os
import subprocess
import sys
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from idsforge.cli import _read_subset_file, main
from idsforge.dataset import (normalize, read_dataset_artifact,
                              write_dataset_artifact)
from idsforge.errors import InputError
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


def read_text(path):
    with open(path, encoding="utf-8") as fh:
        return fh.read()


RUN_VARYING = ("mbt_seconds", "seconds", "created_utc")
# JSON nested deeper than the parser's recursion limit.
DEEPLY_NESTED = "[" * 200_000


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

    @pytest.mark.parametrize("header, label", [
        ("a,class,b,class", "class"),  # the label is the first 'class'
        ("class,a,b,class", "3"),  # the label comes after its namesake
    ])
    def test_feature_named_like_label_is_dropped(self, tmp_path, capsys, header, label):
        names = header.split(",")
        label_j = int(label) if label.isdigit() else names.index(label)
        lines = [header]
        for i in range(8):
            cells = [str(i % 3 + 0.5 * k) for k in range(len(names))]
            cells[label_j] = ("normal", "dos")[i % 2]
            lines.append(",".join(cells))
        path = tmp_path / "named.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        prep = str(tmp_path / "prep")
        assert main(["preprocess", "--input", str(path), "--label-column", label,
                     "--out", prep]) == 0
        report = read_json(os.path.join(prep, "preprocess_report.json"))
        assert report["dropped_duplicate_features"] == ["class"]
        assert read_text(os.path.join(prep, "dataset.csv")).splitlines()[0] == "a,b,class"
        out = str(tmp_path / "sel")
        assert main(["select", "--input", prep, "--selector", "none", "--out", out]) == 0
        assert read_json(os.path.join(out, "subset.json"))["names"] == ["a", "b"]


def write_cell(art, row, col, text):
    path = os.path.join(art, "dataset.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    cells = lines[row].split(",")
    cells[col] = text
    lines[row] = ",".join(cells)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def edit_sidecar(art, edit):
    """Rewrite the artifact's sidecar as edit(doc)."""
    path = os.path.join(art, "dataset.meta.json")
    doc = edit(read_json(path))
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh)


def without_first_name(doc):
    del doc["feature_meta"][0]["name"]
    return doc


def with_text_minimum(doc):
    doc["feature_meta"][0]["observed_min"] = "zero"
    return doc


# Each breaks a valid artifact in one way, with a fragment of the error.
ARTIFACT_DEFECTS = {
    "non_numeric_cell": (lambda art: write_cell(art, 2, 1, "abc"), "column 'f1'"),
    "meta_without_name": (lambda art: edit_sidecar(art, without_first_name),
                          "missing 'name'"),
    "min_not_a_number": (lambda art: edit_sidecar(art, with_text_minimum),
                         "'observed_min' has the wrong type"),
    "sidecar_is_list": (lambda art: edit_sidecar(art, lambda doc: [doc]),
                        "not a JSON object"),
}


class TestSelect:
    def test_cfs_ba_finds_leak_feature(self, artifact_dir, tmp_path, capsys):
        out = str(tmp_path / "sel")
        assert main(["select", "--input", artifact_dir, "--selector", "cfs-ba",
                     "--seed", "3", "--iterations", "30", "--out", out]) == 0
        payload = read_json(os.path.join(out, "subset.json"))
        assert 0 in payload["selected"]
        assert payload["merit"] > 0.9
        trace = payload["best_merit_per_iteration"]
        assert len(trace) == payload["iterations"] + 1 == 31
        assert trace == sorted(trace) and trace[-1] == payload["merit"]
        txt = read_text(os.path.join(out, "subset.txt")).strip()
        assert txt == ",".join(str(i) for i in payload["selected"])

    @pytest.mark.parametrize("defect", sorted(ARTIFACT_DEFECTS))
    def test_bad_artifact_exit_code(self, artifact_dir, tmp_path, capsys, defect):
        breaks, message = ARTIFACT_DEFECTS[defect]
        breaks(artifact_dir)
        assert main(["select", "--input", artifact_dir, "--selector", "none",
                     "--out", str(tmp_path / "sel")]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and message in err

    def test_deeply_nested_sidecar_exit_code(self, artifact_dir, tmp_path, capsys):
        with open(os.path.join(artifact_dir, "dataset.meta.json"), "w", encoding="utf-8") as fh:
            fh.write(DEEPLY_NESTED)
        assert main(["select", "--input", artifact_dir, "--selector", "none",
                     "--out", str(tmp_path / "sel")]) == 2
        assert capsys.readouterr().err.startswith("error: malformed dataset sidecar")

    def test_ig_top(self, artifact_dir, tmp_path, capsys):
        out = str(tmp_path / "sel_ig")
        assert main(["select", "--input", artifact_dir, "--selector", "ig",
                     "--top", "3", "--out", out]) == 0
        payload = read_json(os.path.join(out, "subset.json"))
        assert len(payload["selected"]) == 3
        assert 0 in payload["selected"]

    @pytest.mark.parametrize("selector", ["cfs-ba", "ig", "igr"])
    @pytest.mark.parametrize("bins", ["1", "0", "-3"])
    def test_fewer_than_two_bins_exit_code(self, artifact_dir, tmp_path, capsys,
                                           selector, bins):
        out = tmp_path / "sel"
        assert main(["select", "--input", artifact_dir, "--selector", selector,
                     f"--bins={bins}", "--out", str(out)]) == 2
        assert "at least 2 bins" in capsys.readouterr().err
        assert not out.exists()

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

    def test_deeply_nested_subset_file_exit_code(self, artifact_dir, tmp_path, capsys):
        subset = tmp_path / "nested.json"
        subset.write_text(DEEPLY_NESTED, encoding="utf-8")
        with pytest.raises(InputError, match="is not a JSON object"):
            _read_subset_file(str(subset))
        assert main(["evaluate", "--input", artifact_dir, "--subset-file", str(subset),
                     "--classifiers", "c45", "--k", "3",
                     "--out", str(tmp_path / "eval")]) == 2
        assert capsys.readouterr().err.startswith("error: subset file")

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

    def test_subset_order_does_not_change_result(self, artifact_dir, tmp_path):
        subset = tmp_path / "subset.txt"
        subset.write_text("4,0,3,1\n", encoding="utf-8")
        reports = []
        for name, choice in (("file", ["--subset-file", str(subset)]),
                             ("list", ["--features", "1,3,0,4,3"])):
            out = str(tmp_path / name)
            assert main(["evaluate", "--input", artifact_dir, *choice,
                         "--classifiers", "c45,rf", "--n-trees", "5", "--k", "3",
                         "--seed", "3", "--out", out]) == 0
            report = without_run_varying(read_json(os.path.join(out, "report.json")))
            assert report["selection"].pop("selector") == name
            assert report["selection"]["selected"] == [0, 1, 3, 4]
            reports.append(report)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("value", ["0", "-3"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_thread_count_below_one_exit_code(self, artifact_dir, tmp_path, capsys,
                                              source, value):
        argv = ["evaluate", "--input", artifact_dir, "--classifiers", "rf",
                "--n-trees", "2", "--k", "3", "--out", str(tmp_path / "out")]
        if source == "flag":
            argv.append(f"--threads={value}")
        else:
            config = tmp_path / "threads.conf"
            config.write_text(f"threads = {value}\n", encoding="utf-8")
            argv += ["--config", str(config)]
        assert main(argv) == 2
        assert "thread count must be at least 1" in capsys.readouterr().err
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("command", [
        ["preprocess", "--input", "in.csv", "--label-column", "class"],
        ["select", "--input", "prep", "--selector", "ig", "--top", "3"],
        ["stats", "--input", "table.csv"],
    ])
    def test_threads_flag_only_on_evaluate(self, tmp_path, capsys, command):
        # only evaluate runs worker threads; elsewhere the flag is an argparse error
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--threads", "2", "--out", str(tmp_path / "out")])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --threads 2" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["preprocess", "--input", "in.csv", "--label-column", "class"],
        ["stats", "--input", "table.csv"],
    ])
    def test_seed_flag_only_on_select_and_evaluate(self, tmp_path, capsys, command):
        # neither command draws random numbers, so a seed would be ignored
        with pytest.raises(SystemExit) as exit_info:
            main([*command, "--seed", "99", "--out", str(tmp_path / "out")])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --seed 99" in capsys.readouterr().err

    @pytest.mark.parametrize("kinds, repeated", [("rf,rf", "rf"), ("c45,rf,c45", "c45")])
    def test_repeated_classifier_exit_code(self, artifact_dir, tmp_path, capsys,
                                           kinds, repeated):
        # results and per_repeat are keyed by kind, so a second member of a
        # kind would overwrite the first
        out = tmp_path / "out"
        assert main(["evaluate", "--input", artifact_dir, "--classifiers", kinds,
                     "--k", "3", "--n-trees", "2", "--out", str(out)]) == 2
        assert f"classifier {repeated!r} is listed more than once" in capsys.readouterr().err
        assert not out.exists()

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


    def test_swarm_flags_match_config_keys(self, artifact_dir, tmp_path):
        swarm = {"n-bats": "5", "iterations": "4", "alpha": "0.5", "gamma": "2",
                 "f-min": "0.5", "f-max": "3"}
        config = tmp_path / "swarm.conf"
        config.write_text("".join(f"{k} = {v}\n" for k, v in swarm.items()),
                          encoding="utf-8")
        flags = [arg for k, v in swarm.items() for arg in (f"--{k}", v)]
        reports = []
        for name, extra in (("flags", flags), ("config", ["--config", str(config)])):
            out = str(tmp_path / name)
            assert main(["evaluate", "--input", artifact_dir, "--selector", "cfs-ba",
                         *extra, "--classifiers", "c45", "--k", "3", "--seed", "2",
                         "--out", out]) == 0
            reports.append(without_run_varying(read_json(os.path.join(out, "report.json"))))
        assert reports[0]["selection"]["evaluations"] == 5 * (4 + 1)
        assert reports[0] == reports[1]

    @pytest.mark.parametrize("argv, message", [
        (["evaluate", "--classifiers", "forest_pa", "--rho", "nan"], "rho must be finite"),
        (["evaluate", "--classifiers", "c45", "--rho", "inf"], "rho must be finite"),
        (["evaluate", "--classifiers", "c45", "--min-gain", "nan"], "min_gain must be finite"),
        (["evaluate", "--classifiers", "c45", "--min-gain", "inf"], "min_gain must be finite"),
        (["select", "--selector", "cfs-ba", "--f-max", "nan"], "must be finite"),
        (["select", "--selector", "cfs-ba", "--f-min=-inf"], "must be finite"),
        (["evaluate", "--selector", "cfs-ba", "--gamma", "inf"], "must be finite"),
        (["evaluate", "--selector", "cfs-ba", "--alpha", "nan"], "alpha must lie in"),
    ])
    def test_non_finite_parameter_exit_code(self, artifact_dir, tmp_path, capsys,
                                            argv, message):
        command, *flags = argv
        extra = ["--k", "3", "--n-trees", "2"] if command == "evaluate" else []
        out = tmp_path / "out"
        assert main([command, "--input", artifact_dir, *flags, *extra,
                     "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


class TestSelection:
    """select and evaluate resolve their feature subset the same way."""

    def test_select_honours_features(self, artifact_dir, tmp_path):
        out = str(tmp_path / "sel")
        assert main(["select", "--input", artifact_dir, "--features", "2,0",
                     "--out", out]) == 0
        payload = read_json(os.path.join(out, "subset.json"))
        assert payload["selector"] == "list"
        assert payload["selected"] == [0, 2]
        assert read_text(os.path.join(out, "subset.txt")) == "0,2\n"

    def test_evaluate_times_its_selector(self, artifact_dir, tmp_path):
        out = str(tmp_path / "eval")
        assert main(["evaluate", "--input", artifact_dir, "--selector", "ig", "--top", "3",
                     "--classifiers", "c45", "--k", "3", "--out", out]) == 0
        assert read_json(os.path.join(out, "report.json"))["selection"]["seconds"] > 0

    def test_evaluate_without_source_reports_no_selection(self, artifact_dir, tmp_path):
        out = str(tmp_path / "eval")
        assert main(["evaluate", "--input", artifact_dir, "--classifiers", "c45",
                     "--k", "3", "--out", out]) == 0
        report = read_json(os.path.join(out, "report.json"))
        assert report["selection"] is None
        assert report["config"]["threads"] == (os.cpu_count() or 1)

    @pytest.mark.parametrize("source", ["file", "list", "none", "ig", "igr", "cfs-ba"])
    def test_select_and_evaluate_agree(self, artifact_dir, tmp_path, source):
        subset = tmp_path / "subset.txt"
        subset.write_text("4,1,1\n", encoding="utf-8")
        config = tmp_path / "subset.conf"
        config.write_text(f"subset-file = {subset}\n", encoding="utf-8")
        flags = {
            "file": ["--config", str(config)],
            "list": ["--features", "3,0,3"],
            "none": ["--selector", "none"],
            "ig": ["--selector", "ig", "--top", "3"],
            "igr": ["--selector", "igr", "--top", "3"],
            "cfs-ba": ["--selector", "cfs-ba", "--iterations", "5", "--seed", "2"],
        }[source]
        sel, ev = str(tmp_path / "sel"), str(tmp_path / "eval")
        assert main(["select", "--input", artifact_dir, *flags, "--out", sel]) == 0
        assert main(["evaluate", "--input", artifact_dir, *flags, "--classifiers", "c45",
                     "--k", "3", "--out", ev]) == 0
        written = read_json(os.path.join(sel, "subset.json"))
        reported = read_json(os.path.join(ev, "report.json"))["selection"]
        assert written["selector"] == source
        assert set(written) == set(reported)
        assert written["selected"] == reported["selected"]
        assert without_run_varying(written) == without_run_varying(reported)

    @pytest.mark.parametrize("command", ["select", "evaluate"])
    @pytest.mark.parametrize("flags, message", [
        (["--selector", "list"], "selector 'list' needs --features"),
        (["--features="], "the feature subset is empty"),
    ], ids=["list-without-features", "empty-features"])
    def test_missing_or_empty_list_exit_code(self, artifact_dir, tmp_path, capsys,
                                             command, flags, message):
        out = tmp_path / "out"
        extra = ["--classifiers", "c45", "--k", "3"] if command == "evaluate" else []
        assert main([command, "--input", artifact_dir, *flags, *extra,
                     "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["select", "evaluate"])
    def test_features_take_precedence_over_selector(self, artifact_dir, tmp_path, capsys,
                                                    command):
        out = str(tmp_path / "out")
        extra = ["--classifiers", "c45", "--k", "3"] if command == "evaluate" else []
        assert main([command, "--input", artifact_dir, "--selector", "ig",
                     "--features", "0,1", *extra, "--out", out]) == 0
        assert "note: --features takes precedence over --selector ig" in capsys.readouterr().err
        doc = read_json(os.path.join(out, "subset.json" if command == "select"
                                     else "report.json"))
        selection = doc if command == "select" else doc["selection"]
        assert (selection["selector"], selection["selected"]) == ("list", [0, 1])


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
        summary = read_text(os.path.join(out, "cd_summary.txt"))
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


    @pytest.mark.parametrize("mode, table, row", [
        ([], "dataset,a,b\nD1,0.9,0.8\nD2,0.7,-inf\n", 2),
        (["--ranks"], "a,b,c\n1,2,3\nnan,1,2\n", 2),
        (["--mean-ranks", "--n-datasets", "3"], "a,b,c\n1,nan,2\n", 1),
        (["--mean-ranks", "--n-datasets", "3"], "a,b,c\n1,inf,2\n", 1),
    ])
    def test_non_finite_cell_exit_code(self, tmp_path, capsys, mode, table, row):
        path = tmp_path / "table.csv"
        path.write_text(table, encoding="utf-8")
        out = tmp_path / "stats"
        assert main(["stats", "--input", str(path), *mode, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "non-finite cell" in err and err.rstrip().endswith(f"row {row}")
        assert not out.exists()


    @pytest.mark.parametrize("row, bad", [("1,7,-2", "7.0"), ("1,1e308,2", "1e+308")])
    def test_out_of_range_mean_rank_exit_code(self, tmp_path, capsys, row, bad):
        path = tmp_path / "table.csv"
        path.write_text(f"a,b,c\n{row}\n", encoding="utf-8")
        out = tmp_path / "stats"
        assert main(["stats", "--input", str(path), "--mean-ranks", "--n-datasets", "3",
                     "--out", str(out)]) == 2
        assert f"mean rank {bad} is outside [1, 3]" in capsys.readouterr().err
        assert not out.exists()


class TestEntryPoint:
    @pytest.mark.parametrize("under", [False, True], ids=["file", "under_file"])
    @pytest.mark.parametrize("command", ["preprocess", "select", "evaluate", "stats"])
    def test_out_not_a_directory_exit_code(self, artifact_dir, tmp_path, capsys, command,
                                           under):
        """An --out path that is a file, or lies under one, exits 2 and
        leaves the file as it was."""
        ranks = tmp_path / "ranks.csv"
        ranks.write_text(MEAN_RANKS_CSV, encoding="utf-8")
        inputs = {"preprocess": ["--input", write_toy_csv(tmp_path), "--label-column", "class"],
                  "select": ["--input", artifact_dir, "--selector", "none"],
                  "evaluate": ["--input", artifact_dir, "--classifiers", "c45", "--k", "2",
                               "--threads", "1"],
                  "stats": ["--input", str(ranks), "--mean-ranks", "--n-datasets", "3"]}
        taken = tmp_path / "taken"
        taken.write_text("kept\n", encoding="utf-8")
        out = taken / "out" if under else taken
        assert main([command, *inputs[command], "--out", str(out)]) == 2
        assert "is not a directory" in capsys.readouterr().err
        assert taken.read_text(encoding="utf-8") == "kept\n"

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "idsforge", "--version"],
            capture_output=True, text=True, encoding="utf-8",
        )
        assert proc.returncode == 0
        assert "idsforge" in proc.stdout


# Cell spellings a capture may hold: blanks, non-finite and extreme numbers,
# odd zero and float spellings, quotes and symbols.
FUZZ_CELLS = ("", "NaN", "nan", "Infinity", "-inf", "1e308", "-1e308", "-0", "0", "1",
              "1.0", "2.5", "007", '"', 'a"b', ",", "tcp", "#", "\u00e9", " ")
FUZZ_NAMES = ("f", "g", "class", "", "f g")
FUZZ_LABELS = ("normal", "dos", "probe", "")


@st.composite
def fuzz_tables(draw):
    n_features = draw(st.integers(min_value=1, max_value=4))
    n_rows = draw(st.integers(min_value=2, max_value=12))
    label_j = draw(st.integers(min_value=0, max_value=n_features))
    names = [draw(st.sampled_from(FUZZ_NAMES)) for _ in range(n_features)]
    names.insert(label_j, "class")
    rows = []
    for _ in range(n_rows):
        row = [draw(st.sampled_from(FUZZ_CELLS)) for _ in range(n_features)]
        row.insert(label_j, draw(st.sampled_from(FUZZ_LABELS)))
        rows.append(row)
    label = draw(st.sampled_from(["class", str(label_j)]))
    return [names] + rows, label


# Bytes spliced into a fuzzed file: nothing, bytes that are not UTF-8 (a stray
# continuation byte, a truncated sequence, an encoded surrogate), a
# byte-order mark, a NUL, or any three bytes.
RAW_BYTES = st.sampled_from((b"", b"\xff", b"\x80", b"\xc3", b"\xed\xa0\x80",
                             b"\xef\xbb\xbf", b"\x00")) | st.binary(max_size=3)
# Subset files as select writes them and as a hand-written index list.
SUBSET_TEXTS = ('{"selected": [0]}\n', '{"selected": [1, 0], "merit": null}\n', "0\n", "0,1\n")
# Config lines: comments, blanks, keys that preprocess or stats read, and
# lines that do not parse.
CONFIG_LINES = ("# note", "", "seed = 3", "seed = x", "alpha-list = 0.05,0.1",
                "lower-is-better = yes", "normal-class = dos", "label-column = 0", "oops")


def write_fuzzed(path, text, junk, at):
    """Write text as UTF-8 with the bytes junk spliced in at byte offset at
    (clipped to the length)."""
    raw = text.encode("utf-8")
    at = min(at, len(raw))
    with open(path, "wb") as fh:
        fh.write(raw[:at] + junk + raw[at:])


def csv_text(rows):
    buf = io.StringIO()
    csv.writer(buf).writerows(rows)
    return buf.getvalue()


# Metric table cells: non-finite and blank spellings, numbers, text.
STATS_CELLS = ("", "nan", "NaN", "inf", "-inf", "0", "1", "2", "2.5", "-3", "1e308",
               "x", "D1")
STATS_MODES = ([], ["--ranks"], ["--mean-ranks", "--n-datasets", "3"])


@st.composite
def metric_tables(draw):
    """Small metric tables, some with ragged rows (one cell short or over)."""
    n_columns = draw(st.integers(min_value=1, max_value=5))
    header = [draw(st.sampled_from(("a", "b", "c", "", "dataset")))
              for _ in range(n_columns)]
    rows = []
    for _ in range(draw(st.integers(min_value=0, max_value=5))):
        width = n_columns + draw(st.sampled_from((0, 0, 0, -1, 1)))
        rows.append([draw(st.sampled_from(STATS_CELLS)) for _ in range(width)])
    return [header] + rows


class TestNonUtf8:
    """A file with a byte that is not UTF-8 exits 2, and the error names it."""

    @pytest.mark.parametrize("kind", ["input", "sidecar", "config", "subset", "stats"])
    def test_exit_code(self, kind, tmp_path, capsys):
        csv_path = write_toy_csv(tmp_path)
        prep = str(tmp_path / "prep")
        assert main(["preprocess", "--input", csv_path, "--label-column", "class",
                     "--out", prep]) == 0
        bad = tmp_path / "bad.txt"
        argv = {
            "input": ["preprocess", "--input", str(bad), "--label-column", "class"],
            "sidecar": ["select", "--input", prep, "--selector", "none"],
            "config": ["select", "--input", prep, "--config", str(bad)],
            "subset": ["evaluate", "--input", prep, "--subset-file", str(bad),
                       "--classifiers", "c45", "--k", "2", "--threads", "1"],
            "stats": ["stats", "--input", str(bad)],
        }[kind]
        if kind == "sidecar":
            bad = tmp_path / "prep" / "dataset.meta.json"
            text = bad.read_bytes()
        else:
            text = {"input": b"a,b,class\n1,2,x\n", "config": b"selector = none\n",
                    "subset": b"0,1\n", "stats": MEAN_RANKS_CSV.encode("utf-8")}[kind]
        bad.write_bytes(text[:5] + b"\xff" + text[5:])
        assert main(argv + ["--out", str(tmp_path / "out")]) == 2
        assert os.path.basename(str(bad)) in capsys.readouterr().err


class TestFuzz:
    @settings(max_examples=150, deadline=None)
    @given(table=metric_tables(), mode=st.sampled_from(STATS_MODES))
    def test_stats_exits_zero_or_two(self, table, mode):
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "table.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows(table)
            assert main(["stats", "--input", path, *mode,
                         "--out", os.path.join(work, "stats")]) in (0, 2)

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(table=fuzz_tables(),
           selector=st.sampled_from([["none"], ["ig"],
                                     ["cfs-ba", "--n-bats", "3", "--iterations", "3"]]))
    def test_pipeline_exits_zero_or_two(self, table, selector):
        rows, label = table
        with tempfile.TemporaryDirectory() as work:
            path = os.path.join(work, "in.csv")
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh).writerows(rows)
            prep = os.path.join(work, "prep")
            code = main(["preprocess", "--input", path, "--label-column", label,
                         "--out", prep])
            assert code in (0, 2)
            if code != 0:
                return
            assert main(["select", "--input", prep, "--selector", "none",
                         "--out", os.path.join(work, "all")]) == 0
            sel = os.path.join(work, "sel")
            code = main(["select", "--input", prep, "--selector", *selector, "--out", sel])
            assert code in (0, 2)
            subset = ["--subset-file", os.path.join(sel, "subset.json")] if code == 0 else []
            assert main(["evaluate", "--input", prep, *subset, "--classifiers", "c45",
                         "--k", "2", "--threads", "1",
                         "--out", os.path.join(work, "eval")]) in (0, 2)

    @settings(max_examples=100, deadline=None)
    @given(table=fuzz_tables(), metrics=metric_tables(), mode=st.sampled_from(STATS_MODES),
           config=st.lists(st.sampled_from(CONFIG_LINES), max_size=4),
           subset=st.sampled_from(SUBSET_TEXTS),
           target=st.sampled_from(["csv", "config", "stats", "subset", "npy"]), junk=RAW_BYTES,
           at=st.integers(min_value=0, max_value=200))
    def test_raw_bytes_exit_zero_or_two(self, table, metrics, mode, config, subset, target,
                                        junk, at):
        """Bytes that may not be UTF-8, spliced into the input CSV, the config
        file, the stats table or a subset file: preprocess, stats and evaluate
        exit 0 or 2. Spliced into the artifact's dataset.npy (at a share at/200
        of its length), they leave select's output as it was."""
        rows, label = table
        texts = {"csv": csv_text(rows), "config": "".join(line + "\n" for line in config),
                 "stats": csv_text(metrics), "subset": subset}
        with tempfile.TemporaryDirectory() as work:
            paths = {name: os.path.join(work, name) for name in texts}
            for name, text in texts.items():
                write_fuzzed(paths[name], text, junk if name == target else b"", at)
            config = ["--config", paths["config"]]
            prep = os.path.join(work, "prep")
            code = main(["preprocess", "--input", paths["csv"], "--label-column", label,
                         *config, "--out", prep])
            assert code in (0, 2)
            assert main(["stats", "--input", paths["stats"], *mode, *config,
                         "--out", os.path.join(work, "stats")]) in (0, 2)
            if code != 0:
                return
            if target == "subset":
                assert main(["evaluate", "--input", prep, "--subset-file", paths["subset"],
                             "--classifiers", "c45", "--k", "2", "--threads", "1",
                             "--out", os.path.join(work, "eval")]) in (0, 2)
            elif target == "npy":
                select = ["select", "--input", prep, "--selector", "ig", "--top", "1", "--out"]
                assert main([*select, os.path.join(work, "sel")]) == 0
                companion = os.path.join(prep, "dataset.npy")
                with open(companion, "rb") as fh:
                    raw = fh.read()
                where = at * len(raw) // 200
                with open(companion, "wb") as fh:
                    fh.write(raw[:where] + junk + raw[where:])
                assert main([*select, os.path.join(work, "sel_fuzzed")]) == 0
                assert without_run_varying(read_json(os.path.join(work, "sel", "subset.json"))) \
                    == without_run_varying(read_json(os.path.join(work, "sel_fuzzed",
                                                                  "subset.json")))
