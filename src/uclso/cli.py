"""Command-line orchestrator.

Subcommands: stats, cluster, oversample, experiment, toy-gen. All runs are
driven by a YAML config file; every output embeds the config hash and the
global seed so identical configs produce byte-identical artifacts. Every
command prepares its datasets through `_checked`: one pass loads each
dataset once and applies the command's checks, naming the dataset in any
error, before anything is computed. The command then writes its files
through `_staged`, which publishes them into the output directory only
when the whole run succeeds.

Exit codes: 0 success, 1 computation error, 2 usage/config error.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import shutil
import sys
import tempfile
from collections.abc import Iterator
from contextlib import contextmanager
from dataclasses import astuple, fields, replace

import numpy as np

from .arff_io import ArffError, float_rows, write_mulan
from .clustering import check_distances, check_k, kmeans
from .config import ConfigError, DatasetSource, ExperimentConfig, load_config
from .dataset import (
    DatasetError,
    DatasetStats,
    compute_stats,
    filter_labels,
    make_fold_plan,
    scale_min_max,
)
from .experiment import MethodSpec, auc_defined, check_plan, run_cv
from .oversample import LabelUnusableError, iter_augments
from .ranking import ranked_tables

STATS_COLUMNS = ["dataset", *(f.name for f in fields(DatasetStats)), "variant"]


def _fmt(v) -> str:
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def _csv_rows(fh, header: list[str], rows) -> None:
    writer = csv.writer(fh, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(v) for v in row])


def _write_rows(path: str, cfg: ExperimentConfig, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# config_hash={cfg.config_hash} seed={cfg.seed}\n")
        _csv_rows(fh, header, rows)


@contextmanager
def _staged(cfg: ExperimentConfig) -> Iterator[str]:
    """A staging directory for a command's files. When the block succeeds
    they move into cfg.out_dir, made then if missing, unless one of their
    names is a directory there: then none moves. The staging directory is
    made in cfg.out_dir, or in its nearest existing ancestor, and is
    removed either way, so a failed run leaves the file system as it was."""
    parent = os.path.abspath(cfg.out_dir)
    while not os.path.isdir(parent):
        parent = os.path.dirname(parent)
    staging = tempfile.mkdtemp(prefix=".staging-", dir=parent)
    try:
        yield staging
        names = os.listdir(staging)
        for name in names:
            target = os.path.join(cfg.out_dir, name)
            if os.path.isdir(target):
                raise ConfigError(f"output file {target} is a directory")
        os.makedirs(cfg.out_dir, exist_ok=True)
        for name in names:
            os.replace(os.path.join(staging, name), os.path.join(cfg.out_dir, name))
    finally:
        shutil.rmtree(staging)


def _csv_field(text: str) -> str:
    """text as csv.writer writes it in a row of several fields."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


@contextmanager
def _naming(source: DatasetSource) -> Iterator[None]:
    """Re-raise an error inside the block as one that names the dataset it
    was raised on: an ArffError stays one, so a malformed file stays a
    usage error (exit 2), and any other ValueError becomes a DatasetError."""
    try:
        yield
    except ArffError as exc:
        raise ArffError(f"dataset {source.name!r}: {exc}") from exc
    except ValueError as exc:
        raise DatasetError(f"dataset {source.name!r}: {exc}") from exc


@contextmanager
def _checked(cfg: ExperimentConfig, check, sources=None) -> Iterator[tuple[str, list]]:
    """Load each of `sources` (by default every dataset of cfg) once and
    pass it to check, which returns what the command computes on; a
    failure names its dataset. Only when every dataset has passed, yield
    the _staged directory and the (source, checked) pairs, so a run that
    cannot finish fails before it computes or writes anything."""
    checked = []
    for source in cfg.datasets if sources is None else sources:
        with _naming(source):
            checked.append((source, check(source.load())))
    with _staged(cfg) as out:
        yield out, checked


def _stats_row(name: str, ds, variant: str) -> list:
    return [name, *astuple(compute_stats(ds)), variant]


def cmd_stats(cfg: ExperimentConfig) -> int:
    scale = scale_min_max if cfg.scale == "minmax" else lambda ds: ds
    with _checked(cfg, scale) as (out, loaded):
        rows = []
        for source, ds in loaded:
            rows.append(_stats_row(source.name, ds, "raw"))
            try:
                filtered, _ = filter_labels(ds, cfg.max_ir, cfg.min_pos)
                rows.append(_stats_row(source.name, filtered, "filtered"))
            except DatasetError as exc:
                print(f"warning: {source.name}: {exc}", file=sys.stderr)
        _write_rows(os.path.join(out, "stats.csv"), cfg, STATS_COLUMNS, rows)
    _csv_rows(sys.stdout, STATS_COLUMNS, rows)
    return 0


def _per_dataset(cfg: ExperimentConfig, write, clustered: bool) -> int:
    """Prepare every dataset, checking its row norms by check_distances
    and, if `clustered`, k_clusters against its rows. Then call
    write(cfg, ds, assign, dataset, out) on each, `assign` its k-means
    clustering (or None), `out` the staging directory."""
    k = cfg.oversample.k_clusters

    def check(ds):
        ds = cfg.prepare(ds)
        check_distances(ds.features)
        if clustered:
            check_k(k, ds.n)
        return ds

    with _checked(cfg, check) as (out, prepared):
        for source, ds in prepared:
            with _naming(source):
                assign = kmeans(ds.features, k, cfg.oversample.seed) if clustered else None
                write(cfg, ds, assign, source.name, out)
    return 0


def cmd_cluster(cfg: ExperimentConfig) -> int:
    return _per_dataset(cfg, _write_clusters, True)


def _write_clusters(cfg: ExperimentConfig, ds, assign, dataset: str, out: str) -> None:
    _write_rows(
        os.path.join(out, f"{dataset}__assignments.csv"),
        cfg,
        ["row", "cluster"],
        [(i, int(c)) for i, c in enumerate(assign.assignment)],
    )
    _write_rows(
        os.path.join(out, f"{dataset}__centroids.csv"),
        cfg,
        ["cluster"] + list(ds.feature_names),
        [[p] + [float(v) for v in assign.centroids[p]] for p in range(assign.k)],
    )


def cmd_oversample(cfg: ExperimentConfig) -> int:
    if cfg.oversample.mode == "none":
        raise ConfigError("oversample mode is 'none': nothing to oversample")
    return _per_dataset(cfg, _write_synthetic, cfg.oversample.mode == "uclso")


def _write_synthetic(cfg: ExperimentConfig, ds, assign, dataset: str, out: str) -> None:
    """One file per label, each written as soon as the label is drawn, so
    no more than one label's points are held at a time; then the manifest."""
    header = ["label", "cluster", "r", "parent_u", "parent_v"] + [
        f"feature_{j}" for j in range(ds.d)
    ]
    manifest = []
    for l, aug in enumerate(iter_augments(ds, cfg.oversample, assign)):
        name = ds.label_names[l]
        if isinstance(aug, LabelUnusableError):
            print(f"warning: skipping label {name!r}: {aug}", file=sys.stderr)
            continue
        # provenance is read by column: attribute reads on each record
        # cost far more than one tolist() per field. Each point is one
        # f-string that writes what _write_rows would: the name as
        # csv.writer quotes it, ints by str(), and the r column and the
        # point's coordinates by float_rows, whose text is repr()'s
        prov = aug.extra.provenance
        columns = (prov[f].tolist() for f in ("cluster", "parent_u", "parent_v"))
        quoted = _csv_field(name)
        path = os.path.join(out, f"{dataset}__label_{l}__synthetic.csv")
        _write_rows(path, cfg, header, ())
        with open(path, "a", encoding="utf-8", newline="") as fh:
            fh.writelines(
                f"{quoted},{c},{r},{u},{v},{point}\n"
                for c, u, v, r, point in zip(
                    *columns, float_rows(prov.r[:, None]), float_rows(aug.extra.points)
                )
            )
        clusters, counts = np.unique(prov.cluster, return_counts=True)
        if not clusters.size:
            manifest.append([name, -1, 0])
        manifest += [[name, c, n] for c, n in zip(clusters.tolist(), counts.tolist())]
    _write_rows(
        os.path.join(out, f"{dataset}__manifest.csv"),
        cfg,
        ["label", "cluster", "count"],
        manifest,
    )


def cmd_experiment(cfg: ExperimentConfig) -> int:
    methods = [
        MethodSpec(name, replace(cfg.oversample, mode=name)) for name in cfg.methods
    ]
    ranked = len(cfg.datasets) >= 2 and len(methods) >= 2

    def check(ds):
        # the rank tables need a defined AUC on every dataset, and the
        # fold plan shows whether there is one
        ds = cfg.prepare(ds)
        plan = make_fold_plan(ds.n, cfg.cv_reps, cfg.cv_folds, cfg.seed)
        check_plan(ds, methods, plan, cfg.train)
        if ranked and not auc_defined(ds.labels, plan):
            raise DatasetError(
                "no cross-validation cell has a label with both classes in its "
                "test fold, so no AUC can be defined"
            )
        return ds, plan

    f1_scores = np.zeros((len(cfg.datasets), len(methods)))
    auc_scores = np.zeros_like(f1_scores)
    with _checked(cfg, check) as (out, prepared):
        for di, (source, (ds, plan)) in enumerate(prepared):
            with _naming(source):
                reports = run_cv(ds, methods, plan, cfg.train)
            for mi, method in enumerate(methods):
                report = reports[method.name]
                base = f"{source.name}__{method.name}"
                _write_rows(
                    os.path.join(out, f"{base}__cells.csv"),
                    cfg,
                    ["rep", "fold", "label", "metric", "value"],
                    report.rows(),
                )
                summary = report.summary()
                summary["config_hash"] = cfg.config_hash
                summary["dataset"] = source.name
                with open(
                    os.path.join(out, f"{base}__summary.json"), "w", encoding="utf-8"
                ) as fh:
                    json.dump(summary, fh, sort_keys=True, indent=2)
                    fh.write("\n")
                f1_scores[di, mi] = summary["macro_f1_mean"]
                auc_scores[di, mi] = summary["macro_auc_mean"]
        if ranked:
            names = [source.name for source in cfg.datasets]
            for metric, scores in (("f1", f1_scores), ("auc", auc_scores)):
                for stem, (header, rows) in ranked_tables(scores, names, cfg.methods).items():
                    _write_rows(os.path.join(out, f"{stem}_{metric}.csv"), cfg, header, rows)
    return 0


def cmd_toy_gen(cfg: ExperimentConfig) -> int:
    toys = [source for source in cfg.datasets if source.toy is not None]
    if not toys:
        raise ConfigError("toy-gen: config contains no toy datasets")
    with _checked(cfg, lambda ds: ds, toys) as (out, loaded):
        for source, ds in loaded:
            write_mulan(
                ds,
                os.path.join(out, f"{source.name}.arff"),
                os.path.join(out, f"{source.name}.xml"),
                relation=source.name,
            )
    return 0


COMMANDS = {
    "stats": (cmd_stats, "emit raw and filtered dataset statistics as CSV"),
    "cluster": (cmd_cluster, "run k-means and dump assignments and centroids"),
    "oversample": (
        cmd_oversample, "export per-label synthetic point sets and a manifest"
    ),
    "experiment": (
        cmd_experiment, "run the cross-validation experiment for each method"
    ),
    "toy-gen": (cmd_toy_gen, "write configured toy datasets as ARFF + XML"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="uclso",
        description="Cluster-guarded label-specific oversampling toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="YAML experiment config")
        p.add_argument("--seed", type=int, default=None, help="override config seed")
        p.add_argument("--out", default=None, help="override output directory")
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help="accepted for compatibility; has no effect",
        )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config, args.seed, args.out)
        command, _ = COMMANDS[args.command]
        return command(cfg)
    except (ConfigError, ArffError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
