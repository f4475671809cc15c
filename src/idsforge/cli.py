"""Command-line front end: preprocess, select, evaluate, stats.

Every command takes an optional properties-style config file ("key = value"
per line, '#' comments); command-line flags win over config values. With a
fixed seed all primary outputs are byte-identical across runs; only the
timing fields and timestamps vary.

Exit codes: 0 success, 2 input or validation error, 3 internal error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from datetime import datetime, timezone

from . import __version__
from .dataset import (encode_scaled, filter_table, load_csv, read_dataset_artifact,
                      write_dataset_artifact)
# Not called here, but perfbench/spans.py traces the CLI's lookups of them,
# so the names stay in this module's namespace.
from .dataset import encode, normalize  # noqa: F401
from .ensemble import CombinationRule
from .errors import InputError
from .evaluation import ClassifierSpec, cross_validate
from .featsel import BatSwarmConfig, cfs_ba_select, ig_rank, igr_rank
from .stats import (ALPHAS, RankTable, friedman_from_mean_ranks, friedman_test,
                    load_metric_table, nemenyi_cd, rank_algorithms)
from .trees import TreeParams

SELECTORS = ("cfs-ba", "ig", "igr", "none", "list")

# Flag -> (field, type, help) of the object that holds the flag's default:
# BatSwarmConfig for the swarm flags, TreeParams for the tree flags and
# ClassifierSpec for the forest flags.
SWARM_FLAGS = {
    "n-bats": ("n_bats", int, "swarm size"),
    "iterations": ("max_iterations", int, "swarm iterations"),
    "alpha": ("alpha", float, "loudness decay in (0,1)"),
    "gamma": ("gamma", float, "pulse-rate growth > 0"),
    "f-min": ("f_min", float, "lowest flight frequency"),
    "f-max": ("f_max", float, "highest flight frequency"),
}
TREE_FLAGS = {
    "min-leaf": ("min_leaf", int, "fewest rows per leaf"),
    "max-depth": ("max_depth", int, "depth limit, unset for none"),
    "min-gain": ("min_gain", float, "smallest weighted gain ratio that splits"),
}
FOREST_FLAGS = {
    "n-trees": ("n_trees", int, "trees per forest"),
    "rho": ("rho", float, "weight-band separation"),
}


def _load_config(path) -> dict[str, str]:
    config: dict[str, str] = {}
    try:
        with open(path, encoding="utf-8") as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise InputError(f"{path}:{lineno}: expected 'key = value'")
                key, value = line.split("=", 1)
                config[key.strip()] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read config {path}: {exc}") from exc
    return config


class Options:
    """Flag values with config-file fallback; flags win."""

    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.config = _load_config(args.config) if getattr(args, "config", None) else {}

    def get(self, key: str, default=None, cast=str):
        flag = getattr(self.args, key.replace("-", "_"), None)
        if flag is not None:
            return flag
        if key in self.config:
            raw = self.config[key]
            try:
                if cast is bool:
                    return raw.lower() in ("1", "true", "yes", "on")
                return cast(raw)
            except ValueError:
                raise InputError(f"config key {key!r}: cannot parse {raw!r}") from None
        return default

    def require(self, key: str, cast=str):
        value = self.get(key, None, cast)
        if value is None:
            raise InputError(f"missing required option --{key}")
        return value

    def given(self, flags) -> dict:
        """Field -> value for each flag of a flag table set by flag or config
        key; the fields left out keep their defaults."""
        values = {field: self.get(flag, None, cast) for flag, (field, cast, _) in flags.items()}
        return {field: value for field, value in values.items() if value is not None}


def _thread_count(opts: Options) -> int:
    threads = opts.get("threads", os.cpu_count() or 1, int)
    if threads < 1:
        raise InputError(f"thread count must be at least 1, got {threads}")
    return threads


def _out_dir(opts: Options, default: str) -> str:
    """The --out directory, checked before the command's main work: the
    nearest part of the path that exists must be a directory. The directory
    itself is made only when the command writes, so a command that fails
    leaves none behind."""
    out = opts.get("out", default)
    existing = os.path.abspath(out)
    while not os.path.exists(existing):
        existing = os.path.dirname(existing)
    if not os.path.isdir(existing):
        raise InputError(f"output directory {out}: {existing} exists and is not a directory")
    return out


def _write_json(path, payload) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat()


def cmd_preprocess(opts: Options) -> int:
    path = opts.require("input")
    label = opts.require("label-column")
    has_header = not opts.get("no-header", False, bool)
    out_dir = _out_dir(opts, "preprocessed")

    filtered, report = filter_table(load_csv(path, label, has_header=has_header))
    label_name = filtered.column_names[filtered.label_column]
    ds = encode_scaled(filtered, normal_class_name=opts.get("normal-class"))
    # The coded table's matrix is freed here, before the writer's blocks.
    del filtered
    write_dataset_artifact(ds, out_dir, report=report, label_name=label_name)
    _write_json(os.path.join(out_dir, "preprocess_report.json"), report.to_dict())
    print(f"wrote {ds.n_rows} rows x {ds.n_features} features "
          f"({ds.n_classes} classes) to {out_dir}")
    return 0


def _parse_feature_list(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise InputError(f"cannot parse feature list {text!r}") from None


def _read_subset_file(path) -> list[int]:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read subset file {path}: {exc}") from exc
    if not path.endswith(".json"):
        return _parse_feature_list(text)
    try:
        selected = json.loads(text)["selected"]
    except (json.JSONDecodeError, RecursionError, KeyError, TypeError):
        raise InputError(f"subset file {path} is not a JSON object with a "
                         "'selected' list") from None
    if not isinstance(selected, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in selected):
        raise InputError(f"subset file {path}: 'selected' must be a list of integers")
    return selected


def _checked_indices(ds, indices) -> list[int]:
    """The feature indices sorted and without repeats; rejects an empty list
    and any index outside 0 <= i < n_features."""
    indices = sorted({int(i) for i in indices})
    if not indices:
        raise InputError("the feature subset is empty")
    for i in indices:
        if not 0 <= i < ds.n_features:
            raise InputError(f"feature index {i} out of range; the dataset has "
                             f"{ds.n_features} features (0-{ds.n_features - 1})")
    return indices


def _selection(ds, opts: Options, fallback: str | None) -> dict | None:
    """The feature subset that select writes as subset.json and evaluate
    trains on and reports as report.json["selection"], or None when no
    source is given and there is no fallback selector.

    The first source given wins: --subset-file, then --features, then
    --selector, then the fallback. ig and igr keep their indices in rank
    order; every other source's are sorted and without repeats. seconds
    times the whole resolution, selector run included.
    """
    start = time.perf_counter()
    subset_file, features = opts.get("subset-file"), opts.get("features")
    selector = opts.get("selector")
    if selector is not None and selector not in SELECTORS:
        raise InputError(f"unknown selector {selector!r}; expected one of {SELECTORS}")
    source = ("file" if subset_file is not None else "list" if features is not None
              else selector or fallback)
    if source is None:
        return None
    if selector not in (None, source):
        flag = "--subset-file" if source == "file" else "--features"
        print(f"note: {flag} takes precedence over --selector {selector}", file=sys.stderr)

    payload = {"selector": source, "merit": None}
    if source == "file":
        indices = _read_subset_file(subset_file)
    elif source == "list":
        if features is None:
            raise InputError("selector 'list' needs --features")
        indices = _parse_feature_list(features)
    elif source == "none":
        indices = range(ds.n_features)
    elif source == "cfs-ba":
        config = BatSwarmConfig(**opts.given({**SWARM_FLAGS, "seed": ("seed", int, None)}))
        subset, trace = cfs_ba_select(ds, config, bins=opts.get("bins", 10, int))
        indices = subset.indices
        payload.update(merit=trace.best_merit,
                       best_merit_per_iteration=list(trace.best_merit_per_iteration),
                       iterations=len(trace.best_merit_per_iteration) - 1,
                       evaluations=trace.evaluations)
    else:
        rank = ig_rank if source == "ig" else igr_rank
        ranked = rank(ds, opts.get("bins", 10, int))
        top = opts.get("top", 10, int)
        if top < 1:
            raise InputError("--top must be at least 1")
        chosen = ranked[:top]
        indices = [i for i, _ in chosen]
        payload["scores"] = [s for _, s in chosen]
    if source not in ("ig", "igr"):
        indices = _checked_indices(ds, indices)
    payload.update(selected=indices, names=[ds.feature_meta[i].name for i in indices],
                   seconds=time.perf_counter() - start)
    return payload


def cmd_select(opts: Options) -> int:
    ds = read_dataset_artifact(opts.require("input"))
    out_dir = _out_dir(opts, "selection")
    payload = _selection(ds, opts, fallback="cfs-ba")
    _write_json(os.path.join(out_dir, "subset.json"), payload)
    with open(os.path.join(out_dir, "subset.txt"), "w", encoding="utf-8") as fh:
        fh.write(",".join(str(i) for i in payload["selected"]))
        fh.write("\n")
    merit = payload.get("merit")
    summary = f"selected {len(payload['selected'])} features"
    if merit is not None:
        summary += f" (merit {merit:.5f})"
    print(summary + f" -> {out_dir}")
    return 0


def _classifier_specs(opts: Options) -> list[ClassifierSpec]:
    text = opts.get("classifiers", "c45,rf,forest_pa")
    kinds = [tok.strip() for tok in text.split(",") if tok.strip()]
    if not kinds:
        raise InputError("no classifiers configured")
    for kind in kinds:
        if kinds.count(kind) > 1:
            raise InputError(f"classifier {kind!r} is listed more than once; "
                             "report results are keyed by classifier")
    params = TreeParams(**opts.given(TREE_FLAGS))
    return [ClassifierSpec(kind=k, params=params, **opts.given(FOREST_FLAGS)) for k in kinds]


def _confusion_to_csv(cm, path) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["true\\predicted"] + cm.class_names)
        for i, name in enumerate(cm.class_names):
            writer.writerow([name] + [int(v) for v in cm.counts[i]])


def cmd_evaluate(opts: Options) -> int:
    ds = read_dataset_artifact(opts.require("input"))
    rule = CombinationRule.from_string(opts.get("rule", "average-of-probabilities"))
    k = opts.get("k", 10, int)
    repeats = opts.get("repeats", 1, int)
    seed = opts.get("seed", 0, int)
    threads = _thread_count(opts)
    adr_mode = opts.get("adr-mode", "exact_class")
    out_dir = _out_dir(opts, "evaluation")

    specs = _classifier_specs(opts)
    selection = _selection(ds, opts, fallback=None)
    # A subset of every column trains on the artifact's own matrix, uncopied.
    indices = (sorted(selection["selected"])
               if selection and len(selection["selected"]) < ds.n_features else None)

    ensemble_cv = cross_validate(ds, specs, k=k, repeats=repeats, seed=seed, rule=rule,
                                 feature_indices=indices, threads=threads, adr_mode=adr_mode)
    blocks = [(s.kind, cv) for s, cv in zip(specs, ensemble_cv.members)]
    blocks.append(("ensemble", ensemble_cv))
    results = {kind: cv.report.to_dict() for kind, cv in blocks}
    per_repeat = {kind: [r.to_dict() for r in cv.per_repeat] for kind, cv in blocks}

    report = {
        "tool": {"name": "idsforge", "version": __version__},
        "created_utc": _utc_now(),
        "config": {
            "input": opts.require("input"),
            "classifiers": [s.kind for s in specs],
            "rule": rule.value,
            "k": k,
            "repeats": repeats,
            "seed": seed,
            "threads": threads,
            "adr_mode": adr_mode,
            "n_trees": specs[0].n_trees,
            "min_leaf": specs[0].params.min_leaf,
            "max_depth": specs[0].params.max_depth,
            "min_gain": specs[0].params.min_gain,
            "rho": specs[0].rho,
        },
        "selection": selection,
        "majority_caveat": (rule is CombinationRule.MAJORITY_VOTING
                            and len(specs) < ds.n_classes),
        "results": results,
        "per_repeat": per_repeat,
        "confusion": {
            "class_names": ensemble_cv.confusion.class_names,
            "counts": [[int(v) for v in row] for row in ensemble_cv.confusion.counts],
        },
    }
    _write_json(os.path.join(out_dir, "report.json"), report)
    _confusion_to_csv(ensemble_cv.confusion, os.path.join(out_dir, "confusion.csv"))
    print(f"ensemble accuracy {ensemble_cv.report.accuracy:.4f}, "
          f"FAR {ensemble_cv.report.far:.4f} -> {out_dir}")
    return 0


def _parse_alphas(opts: Options) -> list[float]:
    text = opts.get("alpha-list", None)
    if text is None:
        return list(ALPHAS)
    alphas = []
    for tok in str(text).replace(",", " ").split():
        try:
            alphas.append(float(tok))
        except ValueError:
            raise InputError(f"cannot parse alpha {tok!r}") from None
    return alphas or list(ALPHAS)


def cmd_stats(opts: Options) -> int:
    path = opts.require("input")
    values, algorithms, datasets = load_metric_table(path)
    alphas = _parse_alphas(opts)
    out_dir = _out_dir(opts, "stats")

    if opts.get("mean-ranks", False, bool):
        if values.shape[0] != 1:
            raise InputError("--mean-ranks expects a single row of mean ranks")
        n = opts.require("n-datasets", int)
        mean_ranks = values[0]
        friedman = friedman_from_mean_ranks(mean_ranks, n)
    elif opts.get("ranks", False, bool):
        table = RankTable(algorithms=algorithms, datasets=datasets, ranks=values,
                          higher_is_better=False)
        n = table.n
        friedman = friedman_test(table)
        mean_ranks = table.mean_ranks()
    else:
        higher = not opts.get("lower-is-better", False, bool)
        table = rank_algorithms(values, higher_is_better=higher,
                                algorithms=algorithms, datasets=datasets)
        n = table.n
        friedman = friedman_test(table)
        mean_ranks = table.mean_ranks()

    nemenyi = {}
    for alpha in alphas:
        nemenyi[str(alpha)] = nemenyi_cd(mean_ranks, n, alpha,
                                         algorithms=algorithms).to_dict()

    payload = {
        "algorithms": algorithms,
        "n_datasets": n,
        "mean_ranks": {name: float(r) for name, r in zip(algorithms, mean_ranks)},
        "friedman": friedman.to_dict(),
        "nemenyi": nemenyi,
    }
    _write_json(os.path.join(out_dir, "stats.json"), payload)

    if opts.get("cd-summary", False, bool):
        lines = []
        for alpha in alphas:
            entry = nemenyi[str(alpha)]
            lines.append(f"alpha={alpha}: CD={entry['cd']:.4f}")
            if entry["significant_pairs"]:
                for pair in entry["significant_pairs"]:
                    lines.append(f"  {pair['first']} vs {pair['second']}: "
                                 f"rank gap {pair['rank_difference']:.3f}")
            else:
                lines.append("  no significant pairs")
        with open(os.path.join(out_dir, "cd_summary.txt"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")

    print(f"F-statistic {friedman.f_statistic:.4f}, p {friedman.p_value:.4f} -> {out_dir}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idsforge",
        description="Feature selection and tree-ensemble evaluation for intrusion detection CSVs.",
    )
    parser.add_argument("--version", action="version", version=f"idsforge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def flags(p, table, defaults):
        for flag, (field, cast, text) in table.items():
            p.add_argument(f"--{flag}", type=cast,
                           help=f"{text} (default {getattr(defaults, field)})")

    def common(p):
        p.add_argument("--config", help="properties-style config file; flags win")
        p.add_argument("--out", help="output directory")

    def selection(p):
        # select and evaluate share these flags and are the only commands that
        # draw random numbers, so --seed lives here
        p.add_argument("--seed", type=int, help="random seed (default 0)")
        p.add_argument("--selector", choices=SELECTORS)
        p.add_argument("--top", type=int, help="feature count for ig / igr")
        p.add_argument("--features", help="comma list of feature indices")
        p.add_argument("--bins", type=int, help="discretization bins (default 10)")
        flags(p, SWARM_FLAGS, BatSwarmConfig())

    p = sub.add_parser("preprocess", help="clean, encode and scale a raw CSV")
    common(p)
    p.add_argument("--input", help="raw CSV file")
    p.add_argument("--label-column", help="label column name or 0-based index")
    p.add_argument("--normal-class", help="class name treated as benign traffic")
    p.add_argument("--no-header", action="store_const", const=True, default=None,
                   help="input CSV has no header row")

    p = sub.add_parser("select", help="pick a feature subset from a preprocessed dataset")
    common(p)
    p.add_argument("--input", help="dataset artifact directory")
    selection(p)

    p = sub.add_parser("evaluate", help="cross-validate classifiers and their ensemble")
    common(p)
    p.add_argument("--threads", type=int,
                   help="worker threads (default: machine parallelism)")
    p.add_argument("--input", help="dataset artifact directory")
    selection(p)
    p.add_argument("--subset-file", help="subset.json or subset.txt from 'select'")
    p.add_argument("--classifiers", help="comma list from: c45, rf, forest_pa")
    p.add_argument("--rule", choices=[r.value for r in CombinationRule])
    p.add_argument("--k", type=int, help="fold count (default 10)")
    p.add_argument("--repeats", type=int, help="repetitions (default 1)")
    flags(p, FOREST_FLAGS, ClassifierSpec("forest_pa"))
    flags(p, TREE_FLAGS, TreeParams())
    p.add_argument("--adr-mode", choices=["exact_class", "binary"])

    p = sub.add_parser("stats", help="Friedman / Nemenyi analysis of a metric table")
    common(p)
    p.add_argument("--input", help="metric table CSV")
    p.add_argument("--alpha-list", help="significance levels, e.g. '0.05,0.1'")
    p.add_argument("--lower-is-better", action="store_const", const=True, default=None,
                   help="rank smaller metric values as better")
    p.add_argument("--ranks", action="store_const", const=True, default=None,
                   help="input rows are already rank rows")
    p.add_argument("--mean-ranks", action="store_const", const=True, default=None,
                   help="input is a single row of mean ranks (needs --n-datasets)")
    p.add_argument("--n-datasets", type=int, help="dataset count behind mean ranks")
    p.add_argument("--cd-summary", action="store_const", const=True, default=None,
                   help="also write a plain-text critical-difference summary")
    return parser


COMMANDS = {
    "preprocess": cmd_preprocess,
    "select": cmd_select,
    "evaluate": cmd_evaluate,
    "stats": cmd_stats,
}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = Options(args)
        return COMMANDS[args.command](opts)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - map unexpected failures to exit 3
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
