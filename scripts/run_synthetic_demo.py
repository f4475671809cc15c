#!/usr/bin/env python3
"""End-to-end demo on generated traffic-like data.

Writes a toy CSV (symbolic protocol column, one constant column, a couple of
informative features), then drives the full pipeline: preprocess -> subset
selection -> cross-validated ensemble evaluation, leaving all artifacts under
an output directory. The Dataset read back from the preprocessed artifact
is written again through write_dataset_artifact, and the script fails unless
dataset.csv, dataset.meta.json and dataset.npy equal the files preprocess
wrote from the coded table, byte for byte. The evaluation runs twice: once reading the artifact's
binary companion dataset.npy and once, with the companion deleted, parsing
dataset.csv; the script fails unless both give the same confusion.csv. It
also selects by information gain and evaluates a c45 on an explicit feature
list, so every kind of subset source runs end to end. Last, it fits c45, rf
and forest_pa on three quarters of the rows, saves and reloads them, and
scores the other rows through a VoteEnsemble under every combination rule;
it fails unless the labels and distribution bytes equal those of a
per-row descent through each tree's node arrays, averaged per member and
combined by combine_stack, and the labels equal single-row ensemble_predict.

Usage: python scripts/run_synthetic_demo.py [out_dir] [seed]
"""

import csv
import json
import os
import sys

import numpy as np

from idsforge.cli import main as cli_main
from idsforge.dataset import PreprocessReport, read_dataset_artifact, write_dataset_artifact
from idsforge.ensemble import (CombinationRule, VoteEnsemble, combine_stack,
                               ensemble_predict, ensemble_predict_batch)
from idsforge.trees import Forest, c45_fit, forest_pa_fit, load_model, rf_fit, save_model


def write_toy_csv(path, seed, n=400):
    rng = np.random.default_rng(seed)
    protocols = ["tcp", "udp", "icmp"]
    classes = ["normal", "dos", "probe"]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["duration", "src_bytes", "dst_bytes", "rate_a", "rate_b",
                         "protocol", "const_col", "class"])
        for _ in range(n):
            label = classes[rng.integers(0, 3)]
            base = classes.index(label)
            duration = base / 2.0 + rng.normal(0, 0.15)
            src = base * 100 + rng.normal(0, 40)
            row = [f"{duration:.5f}", f"{src:.2f}", f"{rng.random() * 1000:.2f}",
                   f"{rng.random():.5f}", f"{rng.random():.5f}",
                   protocols[rng.integers(0, 3)], "1", label]
            writer.writerow(row)


def run(argv):
    code = cli_main(argv)
    if code != 0:
        raise SystemExit(code)


def check_rewrite(prep_dir, out):
    """Write the Dataset read back from prep_dir to out, with the sidecar's
    report and label name, and fail unless the three artifact files equal
    those in prep_dir."""
    with open(os.path.join(prep_dir, "dataset.meta.json"), encoding="utf-8") as fh:
        sidecar = json.load(fh)
    report = PreprocessReport(**{key: tuple(v) if isinstance(v, list) else v
                                 for key, v in sidecar["preprocess_report"].items()})
    write_dataset_artifact(read_dataset_artifact(prep_dir), out, report,
                           label_name=sidecar["label_name"])
    for name in ("dataset.csv", "dataset.meta.json", "dataset.npy"):
        with open(os.path.join(prep_dir, name), "rb") as cli, \
                open(os.path.join(out, name), "rb") as rewritten:
            if cli.read() != rewritten.read():
                raise SystemExit(f"{name} differs between the coded-table and Dataset writers")


def descend(tree, row):
    """The leaf distribution a row reaches, found one node at a time: the
    reference for the ensemble's walk over all trees at once."""
    node = 0
    while tree.left[node] >= 0:
        go_left = row[tree.feature[node]] <= tree.threshold[node]
        node = tree.left[node] if go_left else tree.right[node]
    return tree.value[node]


def member_mean(model, rows):
    """A model's distributions: its trees' leaf distributions added to zeros
    in tree order, over its tree count."""
    trees = model.trees if isinstance(model, Forest) else [model]
    acc = np.zeros((len(rows), model.n_classes))
    for tree in trees:
        acc += [descend(tree, row) for row in rows]
    return acc / len(trees)


def check_saved_models(prep_dir, model_dir, seed):
    """Fit, save and reload the three members, then score the held-out rows
    through VoteEnsemble under every rule and check them against the members
    scored row by row. Returns the held-out accuracy of the average rule."""
    ds = read_dataset_artifact(prep_dir)
    cut = ds.n_rows * 3 // 4
    train = np.arange(cut)
    fitted = {"c45": c45_fit(ds, train), "rf": rf_fit(ds, train, n_trees=10, seed=seed),
              "forest_pa": forest_pa_fit(ds, train, n_trees=10, seed=seed)}
    os.makedirs(model_dir, exist_ok=True)
    members = []
    for kind, model in fitted.items():
        path = os.path.join(model_dir, f"{kind}.json")
        save_model(model, path)
        members.append(load_model(path))
    held = ds.features[cut:]
    one_by_one = np.stack([member_mean(m, held) for m in members])
    for rule in CombinationRule:
        ens = VoteEnsemble(members=members, rule=rule)
        labels, distributions = ensemble_predict_batch(ens, held)
        want_labels, want_distributions = combine_stack(one_by_one, rule)
        if not (np.array_equal(labels, want_labels)
                and distributions.tobytes() == want_distributions.tobytes()):
            raise SystemExit(f"ensemble and row-by-row scores differ under {rule.value}")
        if [ensemble_predict(ens, row).label for row in held] != labels.tolist():
            raise SystemExit(f"batch and single-row labels differ under {rule.value}")
        if rule is CombinationRule.AVERAGE_OF_PROBABILITIES:
            accuracy = float(np.mean(labels == ds.labels[cut:]))
    return accuracy


def main():
    out_dir = sys.argv[1] if len(sys.argv) > 1 else "demo_output"
    seed = sys.argv[2] if len(sys.argv) > 2 else "7"
    os.makedirs(out_dir, exist_ok=True)
    csv_path = os.path.join(out_dir, "toy_traffic.csv")
    write_toy_csv(csv_path, int(seed))

    prep_dir = os.path.join(out_dir, "preprocessed")
    sel_dir = os.path.join(out_dir, "selection")
    eval_dir = os.path.join(out_dir, "evaluation")

    run(["preprocess", "--input", csv_path, "--label-column", "class",
         "--normal-class", "normal", "--out", prep_dir])
    check_rewrite(prep_dir, os.path.join(out_dir, "rewritten"))
    run(["select", "--input", prep_dir, "--selector", "cfs-ba",
         "--seed", seed, "--iterations", "50", "--out", sel_dir])
    evaluate = ["evaluate", "--input", prep_dir,
                "--subset-file", os.path.join(sel_dir, "subset.json"),
                "--classifiers", "c45,rf,forest_pa", "--n-trees", "25",
                "--k", "5", "--seed", seed, "--out"]
    run(evaluate + [eval_dir])
    # Both read paths of the artifact: the companion above, dataset.csv here.
    os.remove(os.path.join(prep_dir, "dataset.npy"))
    csv_eval_dir = os.path.join(out_dir, "evaluation_from_csv")
    run(evaluate + [csv_eval_dir])
    confusions = []
    for directory in (eval_dir, csv_eval_dir):
        with open(os.path.join(directory, "confusion.csv"), "rb") as fh:
            confusions.append(fh.read())
    if confusions[0] != confusions[1]:
        raise SystemExit("confusion.csv differs between the companion and dataset.csv reads")
    # The other subset sources: a ranking selector and an explicit index list.
    run(["select", "--input", prep_dir, "--selector", "ig", "--top", "3",
         "--out", os.path.join(out_dir, "selection_ig")])
    run(["evaluate", "--input", prep_dir, "--features", "0,1", "--classifiers", "c45",
         "--k", "5", "--seed", seed, "--out", os.path.join(out_dir, "evaluation_list")])

    saved_accuracy = check_saved_models(prep_dir, os.path.join(out_dir, "models"), int(seed))

    with open(os.path.join(eval_dir, "report.json"), encoding="utf-8") as fh:
        report = json.load(fh)
    print("\nper-classifier accuracy:")
    for name, block in sorted(report["results"].items()):
        print(f"  {name:10s} acc={block['accuracy']:.4f} far={block['far']:.4f} "
              f"adr={block['adr']:.4f} mbt={block['mbt_seconds']:.3f}s")
    print(f"  saved models on held-out rows, average rule: acc={saved_accuracy:.4f}")
    print(f"\nartifacts in {out_dir}/")


if __name__ == "__main__":
    main()
