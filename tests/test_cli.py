import csv
import hashlib
import io
import json
import os
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import uclso.cli
from uclso.arff_io import write_mulan
from uclso.cli import _fmt, main
from uclso.dataset import DatasetStats, MultiLabelDataset
from uclso.clustering import kmeans
from uclso.config import ConfigError, DatasetSource, load_config
from uclso.experiment import run_cv
from uclso.oversample import iter_augments, uclso_augment

CONFIG = """\
seed: 7
out: {out}
datasets:
  - name: toy_a
    toy:
      points_per_blob: [60, 60, 20]
      blob_centers: [[0, 0], [5, 5], [3, 0]]
      blob_spreads: [1.0, 1.0, 0.8]
      minority_rules:
        - {{2: 0.8}}
        - {{1: 0.4}}
      seed: 11
  - name: toy_b
    toy:
      points_per_blob: [50, 50]
      blob_centers: [[0, 0], [4, 4]]
      blob_spreads: [1.0, 1.0]
      minority_rules:
        - {{1: 0.3}}
      seed: 12
oversample: {{k_clusters: 3, m_neighbors: 5}}
train: {{epochs: 6}}
cv: {{reps: 2, folds: 2}}
methods: [none, smote, uclso]
"""


# Mulan's label list for a dataset whose one label is `lab`
LAB_XML = '<labels xmlns="http://mulan.sourceforge.net/labels"><label name="lab"/></labels>\n'


@pytest.fixture
def config_path(tmp_path):
    out = tmp_path / "results"
    path = tmp_path / "config.yaml"
    path.write_text(CONFIG.format(out=out))
    return str(path), str(out)


def read_all(out_dir):
    digest = {}
    for name in sorted(os.listdir(out_dir)):
        with open(os.path.join(out_dir, name), "rb") as fh:
            digest[name] = hashlib.sha256(fh.read()).hexdigest()
    return digest


class TestStats:
    def test_emits_raw_and_filtered_rows(self, config_path, capsys):
        config, out = config_path
        assert main(["stats", "--config", config]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("dataset,instances,inputs,labels,type")
        body = [l.split(",") for l in lines[1:]]
        assert any(row[0] == "toy_a" and row[-1] == "raw" for row in body)
        assert os.path.exists(os.path.join(out, "stats.csv"))

    def test_columns_are_the_dataset_stats_fields(self, config_path, capsys):
        # one layout: the dataset's name, then DatasetStats' fields in
        # their order, then the variant, in stats.csv and on stdout
        config, out = config_path
        assert main(["stats", "--config", config]) == 0
        header = ["dataset", *(f.name for f in fields(DatasetStats)), "variant"]
        assert header[4] == "type"
        with open(os.path.join(out, "stats.csv"), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[1] == ",".join(header)
        assert capsys.readouterr().out.splitlines()[0] == ",".join(header)
        assert all(row.split(",")[4] == "numeric" for row in lines[2:])

    def test_missing_config_is_usage_error(self, tmp_path):
        assert main(["stats", "--config", str(tmp_path / "nope.yaml")]) == 2

    def test_missing_mulan_path_is_usage_error(self, tmp_path):
        path = tmp_path / "bad.yaml"
        path.write_text(
            "datasets:\n  - name: x\n    mulan: {arff: /nonexistent.arff, xml: /nonexistent.xml}\n"
        )
        assert main(["stats", "--config", str(path)]) == 2

    @pytest.mark.parametrize(
        "old, new, message",
        [
            pytest.param("seed: 7\n", "seed: 7\nthreshold: 5.0\n",
                         "config: unknown key 'threshold'", id="threshold"),
            pytest.param("seed: 7\n", "seed: 7\ndataset: {name: x}\n",
                         "config: unknown key 'dataset'", id="dataset_alias"),
            pytest.param("train: {epochs: 6}", "train: {epochs: 6, tolerance: 0.5}",
                         "train: unknown key 'tolerance'", id="train_tolerance"),
            pytest.param("train: {epochs: 6}", "train: {tolerence: 0.5}",
                         "train: unknown key 'tolerence'", id="train_typo"),
            pytest.param("k_clusters: 3,", "k_cluster: 3,",
                         "oversample: unknown key 'k_cluster'", id="oversample_typo"),
            pytest.param("  - name: toy_b\n", "  - name: toy_b\n    weight: 2\n",
                         "dataset entry 1: unknown key 'weight'", id="entry_key"),
            pytest.param("      seed: 12\n", "      seed: 12\n      spread: 1\n",
                         "dataset 'toy_b' toy: unknown key 'spread'", id="toy_key"),
            pytest.param("cv: {reps: 2, folds: 2}", "cv: {reps: 2, fold: 2}",
                         "cv: unknown key 'fold'", id="cv_key"),
            pytest.param("methods:", "filter: {enable: true}\nmethods:",
                         "filter: unknown key 'enable'", id="filter_key"),
            pytest.param("cv: {reps: 2, folds: 2}", "cv: {reps: 0, folds: 2}",
                         "cv needs reps >= 1, folds >= 2; got 0, 2", id="cv_reps_0"),
            pytest.param("cv: {reps: 2, folds: 2}", "cv: {reps: 2, folds: 1}",
                         "cv needs reps >= 1, folds >= 2; got 2, 1", id="cv_folds_1"),
            pytest.param("cv: {reps: 2, folds: 2}", "cv: {reps: x, folds: 2}",
                         "cv: reps must be an integer, got 'x'", id="cv_reps_type"),
            pytest.param("methods:", "filter: {min_pos: x}\nmethods:",
                         "filter: min_pos must be an integer, got 'x'", id="filter_type"),
            pytest.param("methods:", "filter: {enabled: 'false'}\nmethods:",
                         "filter.enabled must be a boolean", id="filter_enabled_type"),
            pytest.param("seed: 7\n", "seed: x\n",
                         "config: seed must be an integer, got 'x'", id="seed_type"),
            pytest.param("methods:", "scale: [1]\nmethods:",
                         "unknown scale mode", id="scale_type"),
            pytest.param("methods: [none, smote, uclso]", "methods: 5",
                         "config: methods must be a list, got 5", id="methods_type"),
            # a repeated YAML key keeps its last value
            pytest.param("methods:", "datasets: 3\nmethods:",
                         "config: datasets must be a list, got 3", id="datasets_type"),
            pytest.param("methods:", "filter: {max_ir: -3}\nmethods:",
                         "filter: max_ir must be > 1, got -3.0", id="max_ir_range"),
            pytest.param("methods:", "filter: {max_ir: 1}\nmethods:",
                         "filter: max_ir must be > 1, got 1.0", id="max_ir_one"),
            pytest.param("methods:", "filter: {min_pos: -1}\nmethods:",
                         "filter: min_pos must be >= 0, got -1", id="min_pos_range"),
            pytest.param("methods: [none, smote, uclso]", "methods: [uclso, uclso]",
                         "config: duplicate method 'uclso'", id="methods_duplicate"),
            # integer keys take a YAML int only: no truncation, parsing or bools
            pytest.param("seed: 7\n", "seed: 7.0\n",
                         "config: seed must be an integer, got 7.0", id="seed_float"),
            pytest.param("k_clusters: 3", "k_clusters: 2.7",
                         "oversample: k_clusters must be an integer, got 2.7",
                         id="k_clusters_float"),
            pytest.param("m_neighbors: 5", "m_neighbors: '3'",
                         "oversample: m_neighbors must be an integer, got '3'",
                         id="m_neighbors_string"),
            pytest.param("m_neighbors: 5", "m_neighbors: 5, seed: 1.0",
                         "oversample: seed must be an integer, got 1.0",
                         id="oversample_seed_float"),
            pytest.param("epochs: 6", "epochs: 1.9",
                         "train: epochs must be an integer, got 1.9", id="epochs_float"),
            pytest.param("epochs: 6", "epochs: 6, batch_size: true",
                         "train: batch_size must be an integer, got True",
                         id="batch_size_bool"),
            pytest.param("epochs: 6", "epochs: 6, seed: '4'",
                         "train: seed must be an integer, got '4'", id="train_seed_string"),
            pytest.param("reps: 2", "reps: 1.5",
                         "cv: reps must be an integer, got 1.5", id="cv_reps_float"),
            pytest.param("folds: 2", "folds: false",
                         "cv: folds must be an integer, got False", id="cv_folds_bool"),
            pytest.param("methods:", "filter: {min_pos: 3.0}\nmethods:",
                         "filter: min_pos must be an integer, got 3.0", id="min_pos_float"),
            pytest.param("      seed: 12\n", "      seed: '12'\n",
                         "dataset 'toy_b' toy: seed must be an integer, got '12'",
                         id="toy_seed_string"),
            # float keys take a YAML int or float; PyYAML reads 1e-3 as a string
            pytest.param("epochs: 6", "epochs: 6, reg_c: true",
                         "train: reg_c must be a number, got True", id="reg_c_bool"),
            pytest.param("epochs: 6", "epochs: 6, reg_c: 1e-3",
                         "train: reg_c must be a number, got '1e-3'", id="reg_c_string"),
            # NaN passes the number check; reg_c must be > 0, which NaN is not
            pytest.param("epochs: 6", "epochs: 6, reg_c: .nan",
                         "invalid train config: reg_c, epochs and batch_size must be positive",
                         id="reg_c_nan"),
            # below its floor lambda = 1 / (reg_c * n) would overflow float32
            pytest.param("epochs: 6", "epochs: 6, reg_c: 1.0e-45",
                         "invalid train config: reg_c must be at least "
                         "1.175494420887215e-38 (4 / float32's largest value), got 1e-45",
                         id="reg_c_below_floor"),
            pytest.param("methods:", "filter: {max_ir: yes}\nmethods:",
                         "filter: max_ir must be a number, got True", id="max_ir_bool"),
            # a dataset name becomes file names and toy-gen's @relation line
            pytest.param("name: toy_b", "name: ../escaped",
                         "dataset entry 1: name '../escaped' is not a plain file name",
                         id="name_parent"),
            pytest.param("name: toy_b", "name: sub/toy_b",
                         "dataset entry 1: name 'sub/toy_b' is not a plain file name",
                         id="name_slash"),
            pytest.param("name: toy_b", "name: ''",
                         "dataset entry 1: name '' is not a plain file name", id="name_empty"),
            pytest.param("name: toy_b", "name: .",
                         "dataset entry 1: name '.' is not a plain file name", id="name_dot"),
            pytest.param("name: toy_b", "name: ..",
                         "dataset entry 1: name '..' is not a plain file name",
                         id="name_dotdot"),
            pytest.param("name: toy_b", 'name: "toy\\nb"',
                         "dataset entry 1: name 'toy\\nb' is not a plain file name",
                         id="name_newline"),
            pytest.param("name: toy_b", 'name: "toy\\rb"',
                         "dataset entry 1: name 'toy\\rb' is not a plain file name",
                         id="name_return"),
            pytest.param("name: toy_b", 'name: "toy\\0b"',
                         "dataset entry 1: name 'toy\\x00b' is not a plain file name",
                         id="name_nul"),
            # a name is a YAML string; no value, or a number, is not one
            pytest.param("name: toy_b", "name:",
                         "dataset entry 1: name must be a non-empty string, got None",
                         id="name_null"),
            pytest.param("name: toy_b", "name: 5",
                         "dataset entry 1: name must be a non-empty string, got 5",
                         id="name_int"),
            # toy counts and rule keys are YAML ints, centres, spreads and
            # fractions YAML numbers: no truncation, parsing or bools
            pytest.param("[50, 50]", "[40.9, true]",
                         "dataset 'toy_b' toy: points_per_blob must be a list of integers, "
                         "got [40.9, True]", id="toy_counts_float_bool"),
            pytest.param("[50, 50]", "50",
                         "dataset 'toy_b' toy: points_per_blob must be a list of integers, "
                         "got 50", id="toy_counts_scalar"),
            pytest.param("[[0, 0], [4, 4]]", '[[0, 0], [4, "4"]]',
                         "dataset 'toy_b' toy: blob_centers must be a list of lists of "
                         "numbers, got [[0, 0], [4, '4']]", id="toy_center_string"),
            pytest.param("[[0, 0], [4, 4]]", "[[0, 0], 4]",
                         "dataset 'toy_b' toy: blob_centers must be a list of lists of "
                         "numbers, got [[0, 0], 4]", id="toy_center_scalar"),
            pytest.param("blob_spreads: [1.0, 1.0]\n", 'blob_spreads: [1.0, "1.0"]\n',
                         "dataset 'toy_b' toy: blob_spreads must be a list of numbers, "
                         "got [1.0, '1.0']", id="toy_spread_string"),
            pytest.param("blob_spreads: [1.0, 1.0]\n", "blob_spreads: 1.0\n",
                         "dataset 'toy_b' toy: blob_spreads must be a list of numbers, "
                         "got 1.0", id="toy_spread_scalar"),
            pytest.param("{1: 0.3}", "{1: '0.3'}",
                         "dataset 'toy_b' toy: minority_rules must be a list of mappings "
                         "from blob index (an integer) to fraction (a number), "
                         "got [{1: '0.3'}]", id="toy_fraction_string"),
            pytest.param("{1: 0.3}", "{'1': 0.3}",
                         "dataset 'toy_b' toy: minority_rules must be a list of mappings",
                         id="toy_rule_key_string"),
            pytest.param("{1: 0.3}", "{true: 0.3}",
                         "dataset 'toy_b' toy: minority_rules must be a list of mappings",
                         id="toy_rule_key_bool"),
            pytest.param("{1: 0.3}", "{1.0: 0.3}",
                         "dataset 'toy_b' toy: minority_rules must be a list of mappings",
                         id="toy_rule_key_float"),
            # the step size follows from reg_c alone; there is no step-size key
            pytest.param("epochs: 6", "epochs: 6, lr_decay: 0.05",
                         "train: unknown key 'lr_decay' (accepted: reg_c, epochs, "
                         "batch_size, seed)", id="lr_decay_unknown"),
            pytest.param("epochs: 6", "epochs: 6, learning_rate: 0.5",
                         "train: unknown key 'learning_rate'", id="learning_rate_unknown"),
            # numpy's generators take no negative seed
            pytest.param("seed: 7\n", "seed: -1\n",
                         "config: seed must be >= 0, got -1", id="seed_negative"),
            pytest.param("m_neighbors: 5", "m_neighbors: 5, seed: -2",
                         "oversample: seed must be >= 0, got -2",
                         id="oversample_seed_negative"),
            pytest.param("epochs: 6", "epochs: 6, seed: -3",
                         "train: seed must be >= 0, got -3", id="train_seed_negative"),
            pytest.param("      seed: 12\n", "      seed: -12\n",
                         "dataset 'toy_b' toy: seed must be >= 0, got -12",
                         id="toy_seed_negative"),
            # every toy message names its dataset; blob centres share one
            # length, which is the dimension of the data
            pytest.param("      blob_spreads: [1.0, 1.0]\n", "",
                         "dataset 'toy_b' toy: missing key 'blob_spreads'",
                         id="toy_key_missing"),
            pytest.param("blob_spreads: [1.0, 1.0]\n", "blob_spreads: [1.0, -1.0]\n",
                         "dataset 'toy_b' toy: blob spreads must be positive",
                         id="toy_spread_negative"),
            pytest.param("[[0, 0], [4, 4]]", "[[0, 0], [4]]",
                         "dataset 'toy_b' toy: blob_centers must share one non-zero "
                         "length, got lengths [2, 1]", id="toy_center_short"),
            pytest.param("[[0, 0], [4, 4]]", "[[0, 0], [4, 4, 4]]",
                         "dataset 'toy_b' toy: blob_centers must share one non-zero "
                         "length, got lengths [2, 3]", id="toy_center_long"),
            pytest.param("[[0, 0], [4, 4]]", "[[], []]",
                         "dataset 'toy_b' toy: blob_centers must share one non-zero "
                         "length, got lengths [0, 0]", id="toy_center_empty"),
        ],
    )
    def test_rejected_config_is_usage_error(self, tmp_path, capsys, old, new, message):
        out = tmp_path / "results"
        path = tmp_path / "config.yaml"
        text = CONFIG.format(out=out)
        assert old in text
        path.write_text(text.replace(old, new, 1))
        assert main(["experiment", "--config", str(path)]) == 2
        assert message in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize("command", ["stats", "cluster", "oversample", "experiment", "toy-gen"])
@pytest.mark.parametrize("blocker_kind", ["file", "below_file", "dangling_link"])
def test_out_naming_a_file_is_usage_error(tmp_path, capsys, command, blocker_kind):
    # rejected when the config loads, before any compute or output
    blocker = tmp_path / "taken"
    if blocker_kind == "dangling_link":
        blocker.symlink_to(tmp_path / "nowhere")
    else:
        blocker.write_text("kept\n")
    out = blocker / "results" if blocker_kind == "below_file" else blocker
    path = tmp_path / "config.yaml"
    path.write_text(CONFIG.format(out=out))
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: out {str(out)!r}: {blocker} is not a directory\n"
    assert blocker_kind == "dangling_link" or blocker.read_text() == "kept\n"
    assert sorted(os.listdir(tmp_path)) == ["config.yaml", "taken"]


@pytest.mark.parametrize("command", ["stats", "cluster", "oversample", "experiment", "toy-gen"])
@pytest.mark.parametrize("how, shown", [("yaml_null", "None"), ("flag_empty", "''")])
def test_empty_or_null_out_is_usage_error(tmp_path, capsys, monkeypatch, command, how,
                                          shown):
    # rejected when the config loads, before any compute. The run starts in
    # tmp_path, so a directory made from the value would show up there
    monkeypatch.chdir(tmp_path)
    calls = []
    for name in ("compute_stats", "kmeans", "iter_augments", "run_cv", "write_mulan"):
        monkeypatch.setattr(f"uclso.cli.{name}", lambda *a, name=name, **k: calls.append(name))
    argv = [command, "--config", "config.yaml"]
    if how == "yaml_null":
        (tmp_path / "config.yaml").write_text(CONFIG.format(out=""))
    else:
        (tmp_path / "config.yaml").write_text(CONFIG.format(out="results"))
        argv += ["--out", ""]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: config: out must be a non-empty string, got {shown}\n"
    assert calls == []
    assert os.listdir(tmp_path) == ["config.yaml"]


class TestCluster:
    def test_writes_assignments_and_centroids(self, config_path):
        config, out = config_path
        assert main(["cluster", "--config", config]) == 0
        with open(os.path.join(out, "toy_a__assignments.csv")) as fh:
            lines = fh.read().splitlines()
        assert lines[0].startswith("# config_hash=")
        assert lines[1] == "row,cluster"
        assert len(lines) == 2 + 140
        assert os.path.exists(os.path.join(out, "toy_a__centroids.csv"))


def _synthetic_references(config, mode, augments):
    """Each label's synthetic CSV as csv.writer and _fmt, which writes
    floats by repr(), write it, for the points that augments draws."""
    cfg = load_config(str(config))
    ds = cfg.prepare(cfg.datasets[0].load())
    assign = kmeans(ds.features, 2, seed=cfg.oversample.seed) if mode == "uclso" else None
    header = ["label", "cluster", "r", "parent_u", "parent_v"] + [
        f"feature_{j}" for j in range(ds.d)
    ]
    for l, aug in enumerate(augments(ds, cfg.oversample, assign)):
        prov = aug.extra.provenance
        rows = [
            [ds.label_names[l], int(p.cluster), float(p.r), int(p.parent_u), int(p.parent_v),
             *(float(v) for v in point)]
            for p, point in zip(prov, aug.extra.points)
        ]
        assert rows
        reference = io.StringIO()
        reference.write(f"# config_hash={cfg.config_hash()} seed={cfg.seed}\n")
        writer = csv.writer(reference, lineterminator="\n")
        writer.writerow(header)
        writer.writerows([_fmt(v) for v in row] for row in rows)
        yield reference.getvalue()


class TestOversample:
    def test_writes_synthetic_and_manifest(self, config_path):
        config, out = config_path
        assert main(["oversample", "--config", config]) == 0
        manifest = os.path.join(out, "toy_a__manifest.csv")
        with open(manifest) as fh:
            rows = [l.split(",") for l in fh.read().splitlines()[2:]]
        totals = {}
        for label, cluster, count in rows:
            totals[label] = totals.get(label, 0) + int(count)
        # balance bound per label: n_maj - n_min <= total <= that + k
        from uclso.config import load_config

        cfg = load_config(config)
        ds = cfg.datasets[0].load()
        for l, name in enumerate(ds.label_names):
            n_min = int(ds.labels[:, l].sum())
            n_maj = ds.n - n_min
            assert n_maj - n_min <= totals[name] <= n_maj - n_min + cfg.oversample.k_clusters

    @pytest.mark.parametrize("mode", ["uclso", "smote"])
    def test_all_zero_label_is_skipped(self, tmp_path, capsys, mode):
        out = tmp_path / "results"
        path = tmp_path / "config.yaml"
        text = CONFIG.format(out=out).replace("- {1: 0.4}", "- {}")
        path.write_text(text.replace("m_neighbors: 5", f"m_neighbors: 5, mode: {mode}"))
        assert main(["oversample", "--config", str(path)]) == 0
        assert "skipping label 'label_1'" in capsys.readouterr().err
        files = os.listdir(out)
        assert "toy_a__label_0__synthetic.csv" in files
        assert "toy_a__label_1__synthetic.csv" not in files
        assert "toy_b__label_0__synthetic.csv" in files
        from uclso.config import load_config

        cfg = load_config(str(path))
        k = cfg.oversample.k_clusters if mode == "uclso" else 0
        for source in cfg.datasets:
            with open(os.path.join(out, f"{source.name}__manifest.csv")) as fh:
                rows = [l.split(",") for l in fh.read().splitlines()[2:]]
            totals = {}
            for label, cluster, count in rows:
                totals[label] = totals.get(label, 0) + int(count)
            ds = source.load()
            usable = [
                name for l, name in enumerate(ds.label_names) if ds.labels[:, l].any()
            ]
            assert sorted(totals) == usable
            for name in usable:
                n_min = int(ds.labels[:, ds.label_names.index(name)].sum())
                n_maj = ds.n - n_min
                assert n_maj - n_min <= totals[name] <= n_maj - n_min + k

    def test_csv_rows_equal_augmenter(self, config_path):
        # repr round-trips floats, so the parsed rows equal the arrays
        config, out = config_path
        assert main(["oversample", "--config", config]) == 0
        cfg = load_config(config)
        for source in cfg.datasets:
            ds = cfg.prepare(source.load())
            assign = kmeans(ds.features, cfg.oversample.k_clusters, seed=cfg.oversample.seed)
            with open(os.path.join(out, f"{source.name}__manifest.csv")) as fh:
                manifest = list(csv.reader(fh.read().splitlines()[2:]))
            for l, name in enumerate(ds.label_names):
                aug = uclso_augment(ds, assign, l, cfg.oversample)
                prov = aug.extra.provenance
                with open(os.path.join(out, f"{source.name}__label_{l}__synthetic.csv")) as fh:
                    rows = list(csv.reader(fh.read().splitlines()[2:]))
                assert len(rows) == len(aug.extra) > 0
                assert {row[0] for row in rows} == {name}
                assert [int(row[1]) for row in rows] == prov.cluster.tolist()
                assert [float(row[2]) for row in rows] == prov.r.tolist()
                assert [int(row[3]) for row in rows] == prov.parent_u.tolist()
                assert [int(row[4]) for row in rows] == prov.parent_v.tolist()
                points = [[float(x) for x in row[5:]] for row in rows]
                assert points == aug.extra.points.tolist()
                counts = Counter(row[1] for row in rows)
                assert [row[1:] for row in manifest if row[0] == name] == [
                    [c, str(counts[c])] for c in sorted(counts, key=int)
                ]

    @pytest.mark.parametrize("mode", ["uclso", "smote"])
    def test_label_names_quoted_as_csv_writer_does(self, tmp_path, mode):
        # each synthetic row is one f-string; it must equal what csv.writer
        # (QUOTE_MINIMAL) and _fmt write: a name holding the delimiter or
        # the quote character is quoted, with the quote doubled, and a
        # space alone does not quote
        rng = np.random.default_rng(3)
        names = ("a,b", 'say "hi"', "x y", "plain")
        labels = (rng.random((60, 4)) < [0.2, 0.3, 0.25, 0.15]).astype(int)
        ds = MultiLabelDataset(rng.normal(size=(60, 3)), labels, ("f0", "f1", "f2"), names)
        arff, xml = str(tmp_path / "q.arff"), str(tmp_path / "q.xml")
        write_mulan(ds, arff, xml)
        path = tmp_path / "config.yaml"
        path.write_text(
            f"seed: 4\nout: {tmp_path / 'out'}\ndatasets:\n  - name: q\n"
            f"    mulan: {{arff: {arff}, xml: {xml}}}\n"
            f"oversample: {{k_clusters: 2, m_neighbors: 3, mode: {mode}}}\n"
        )
        assert main(["oversample", "--config", str(path)]) == 0
        quoted = ['"a,b"', '"say ""hi"""', "x y", "plain"]
        for l, reference in enumerate(_synthetic_references(path, mode, iter_augments)):
            written = tmp_path / "out" / f"q__label_{l}__synthetic.csv"
            assert written.read_bytes() == reference.encode("utf-8")
            body = reference.splitlines()[2:]
            assert all(line.startswith(quoted[l] + ",") for line in body)

    @pytest.mark.parametrize("mode", ["uclso", "smote"])
    def test_values_outside_the_orjson_band_are_written_as_repr(self, tmp_path, monkeypatch,
                                                                mode):
        # float_rows writes a row by repr when it holds a value below 1e-4
        # or past 1e16, where orjson's notation is not repr's. Rows 0-19
        # are scaled into 1e-6..1e-4, so the points drawn from them hold
        # such coordinates; every third point's r is scaled down as well
        rng = np.random.default_rng(3)
        features = rng.normal(size=(60, 3))
        features[:20] *= 1e-5
        labels = (rng.random((60, 2)) < [0.3, 0.2]).astype(int)
        ds = MultiLabelDataset(features, labels, ("f0", "f1", "f2"), ("a", "b"))
        arff, xml = str(tmp_path / "q.arff"), str(tmp_path / "q.xml")
        write_mulan(ds, arff, xml)
        path = tmp_path / "config.yaml"
        path.write_text(
            f"seed: 4\nout: {tmp_path / 'out'}\ndatasets:\n  - name: q\n"
            f"    mulan: {{arff: {arff}, xml: {xml}}}\n"
            f"oversample: {{k_clusters: 2, m_neighbors: 3, mode: {mode}}}\n"
        )

        def small_r(*args):
            for aug in iter_augments(*args):
                aug.extra.provenance.r[::3] *= 1e-5
                yield aug

        monkeypatch.setattr(uclso.cli, "iter_augments", small_r)
        assert main(["oversample", "--config", str(path)]) == 0
        outside = {"r": 0, "point": 0}
        for l, reference in enumerate(_synthetic_references(path, mode, small_r)):
            written = tmp_path / "out" / f"q__label_{l}__synthetic.csv"
            assert written.read_bytes() == reference.encode("utf-8")
            for row in csv.reader(reference.splitlines()[2:]):
                outside["r"] += 0 < float(row[2]) < 1e-4
                outside["point"] += any(0 < abs(float(v)) < 1e-4 for v in row[5:])
        assert outside["r"] > 0 and outside["point"] > 0

    def test_mode_none_is_error(self, tmp_path):
        path = tmp_path / "c.yaml"
        path.write_text(
            "datasets:\n  - name: t\n    toy:\n"
            "      points_per_blob: [20, 20]\n"
            "      blob_centers: [[0, 0], [3, 3]]\n"
            "      blob_spreads: [1.0, 1.0]\n"
            "      minority_rules: [{1: 0.4}]\n"
            "oversample: {mode: none}\n"
        )
        assert main(["oversample", "--config", str(path)]) == 2


@pytest.mark.parametrize("command, mode", [
    ("cluster", "uclso"), ("cluster", "smote"), ("oversample", "uclso"),
])
def test_too_large_k_fails_before_clustering(tmp_path, capsys, monkeypatch, command, mode):
    # toy_a has 140 rows, toy_b 100: k-means cannot make 120 clusters of
    # toy_b's, and the check comes before toy_a is clustered. cluster
    # clusters in every mode
    out = tmp_path / "results"
    path = tmp_path / "config.yaml"
    text = CONFIG.format(out=out).replace("k_clusters: 3", f"k_clusters: 120, mode: {mode}")
    path.write_text(text)
    calls = []
    for name in ("kmeans", "iter_augments"):
        monkeypatch.setattr(f"uclso.cli.{name}", lambda *a, name=name, **k: calls.append(name))
    assert main([command, "--config", str(path)]) == 1
    assert capsys.readouterr().err == "error: dataset 'toy_b': k=120 must be in [1, 100]\n"
    assert calls == [] and not out.exists()
    if command == "oversample":
        # smote oversampling clusters nothing, so it does not check k
        monkeypatch.undo()
        path.write_text(text.replace("mode: uclso", "mode: smote"))
        assert main([command, "--config", str(path)]) == 0


# The function each command is made to fail with on toy_b, the second
# dataset; each gets its name, or a file name made from it, as an argument.
FAILS_ON_TOY_B = {
    "stats": "_stats_row",
    "cluster": "_write_clusters",
    "oversample": "_write_synthetic",
    "experiment": "_write_rows",
    "toy-gen": "write_mulan",
}


@pytest.mark.parametrize("command", list(FAILS_ON_TOY_B))
def test_failed_dataset_leaves_output_directory_as_it_was(tmp_path, capsys, monkeypatch,
                                                          command):
    # toy_b fails after toy_a is computed and, in every command but stats,
    # after toy_a's files are written. An --out that existed keeps exactly
    # its files; a missing one, and its missing parent, stay missing
    name = FAILS_ON_TOY_B[command]
    real = getattr(uclso.cli, name)

    def fail_on_toy_b(*args, **kwargs):
        if any(isinstance(a, str) and "toy_b" in a for a in args):
            raise ValueError("injected failure")
        return real(*args, **kwargs)

    existing = tmp_path / "existing"
    existing.mkdir()
    (existing / "earlier.txt").write_text("kept\n")
    outs = [existing, tmp_path / "missing", tmp_path / "new" / "missing"]
    path = tmp_path / "config.yaml"
    monkeypatch.setattr(f"uclso.cli.{name}", fail_on_toy_b)
    for out in outs:
        path.write_text(CONFIG.format(out=out))
        assert main([command, "--config", str(path)]) == 1
        captured = capsys.readouterr()
        named = "dataset 'toy_b': " if command in ("cluster", "oversample") else ""
        assert captured.out == "" and captured.err == f"error: {named}injected failure\n"
        assert sorted(os.listdir(tmp_path)) == ["config.yaml", "existing"]
        assert os.listdir(existing) == ["earlier.txt"]
        assert (existing / "earlier.txt").read_text() == "kept\n"
    # a run that succeeds moves its files in and leaves no staging directory
    monkeypatch.undo()
    for out in outs:
        path.write_text(CONFIG.format(out=out))
        assert main([command, "--config", str(path)]) == 0
    assert sorted(os.listdir(tmp_path)) == ["config.yaml", "existing", "missing", "new"]
    assert os.listdir(tmp_path / "new") == ["missing"]
    published = [sorted(os.listdir(out)) for out in outs]
    assert published[0] == sorted(["earlier.txt"] + published[1])
    assert published[1] == published[2]
    assert not any(n.startswith(".") for n in published[0])
    assert command == "stats" or any(n.startswith("toy_b") for n in published[1])


@pytest.mark.parametrize("command, blocked", [
    ("cluster", "toy_b__centroids.csv"), ("experiment", "toy_b__uclso__cells.csv"),
])
def test_output_name_taken_by_a_directory_publishes_nothing(tmp_path, capsys, command,
                                                            blocked):
    # the run computes everything, then finds a target it cannot replace:
    # a usage error that names it, and --out keeps exactly what it had
    out = tmp_path / "results"
    (out / blocked).mkdir(parents=True)
    (out / "earlier.txt").write_text("kept\n")
    path = tmp_path / "config.yaml"
    path.write_text(CONFIG.format(out=out))
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: output file {out / blocked} is a directory\n"
    assert sorted(os.listdir(out)) == sorted([blocked, "earlier.txt"])
    assert os.listdir(out / blocked) == []
    assert sorted(os.listdir(tmp_path)) == ["config.yaml", "results"]


@pytest.mark.parametrize("command, mode", [
    ("stats", "uclso"), ("cluster", "uclso"), ("oversample", "uclso"),
    ("oversample", "smote"), ("experiment", "uclso"),
])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_feature_is_rejected_before_any_compute(tmp_path, capsys, monkeypatch,
                                                           command, mode, value):
    # toy_a loads first and is finite; the ARFF's first non-finite value
    # (row-major) is in row 5, a minority row, column f1. No dataset can
    # hold it, so the ARFF is written as text
    rng = np.random.default_rng(5)
    features = rng.normal(size=(60, 3))
    features[5, 1] = value
    features[9, 0] = np.nan
    labels = np.zeros(60, dtype=int)
    labels[:12] = 1
    arff, xml = tmp_path / "bad.arff", tmp_path / "bad.xml"
    arff.write_text(
        "@relation bad\n"
        + "".join(f"@attribute f{j} numeric\n" for j in range(3))
        + "@attribute lab {0,1}\n@data\n"
        + "".join(f"{','.join(map(repr, x))},{y}\n"
                  for x, y in zip(features.tolist(), labels.tolist()))
    )
    xml.write_text(LAB_XML)
    out = tmp_path / "results"
    out.mkdir()
    (out / "earlier.txt").write_text("kept\n")
    text = CONFIG.format(out=out).replace("m_neighbors: 5", f"m_neighbors: 5, mode: {mode}")
    text = text.replace(
        "oversample:", f"  - name: bad\n    mulan: {{arff: {arff}, xml: {xml}}}\noversample:"
    )
    path = tmp_path / "config.yaml"
    path.write_text(text)
    calls = []
    for name in ("compute_stats", "kmeans", "iter_augments", "run_cv"):
        monkeypatch.setattr(f"uclso.cli.{name}", lambda *a, name=name, **k: calls.append(name))
    assert main([command, "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: dataset 'bad': feature 'f1' holds the non-finite value {value!r} "
        "in row 5\n"
    )
    assert calls == []
    assert os.listdir(out) == ["earlier.txt"]
    assert (out / "earlier.txt").read_text() == "kept\n"


@pytest.mark.parametrize("command", ["stats", "cluster", "oversample", "experiment"])
def test_minmax_names_a_column_too_wide_to_scale(tmp_path, capsys, monkeypatch, recwarn,
                                                  command):
    # w spans 2e308, which overflows: scaling it would give nan, so the
    # run stops at preparation and names the column and its range
    rng = np.random.default_rng(6)
    features = rng.normal(size=(40, 2))
    features[3, 1], features[8, 1] = 1e308, -1e308
    labels = (np.arange(40) % 4 == 0).astype(int)[:, None]
    arff, xml = str(tmp_path / "wide.arff"), str(tmp_path / "wide.xml")
    write_mulan(MultiLabelDataset(features, labels, ("v", "w"), ("lab",)), arff, xml)
    out = tmp_path / "results"
    text = CONFIG.format(out=out).replace("methods:", "scale: minmax\nmethods:")
    text = text.replace(
        "oversample:", f"  - name: wide\n    mulan: {{arff: {arff}, xml: {xml}}}\noversample:"
    )
    path = tmp_path / "config.yaml"
    path.write_text(text)
    calls = []
    for name in ("compute_stats", "kmeans", "iter_augments", "run_cv"):
        monkeypatch.setattr(f"uclso.cli.{name}", lambda *a, name=name, **k: calls.append(name))
    assert main([command, "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: dataset 'wide': feature 'w' ranges from -1e+308 to 1e+308, wider than "
        "the largest float, so it cannot be scaled\n"
    )
    assert recwarn.list == []
    assert calls == []
    assert not out.exists()


def test_non_finite_toy_feature_is_rejected(tmp_path, capsys):
    # YAML's .inf is a float, so a toy blob centre can make inf features
    out = tmp_path / "results"
    path = tmp_path / "config.yaml"
    path.write_text(CONFIG.format(out=out).replace("[[0, 0], [4, 4]]", "[[0, 0], [4, .inf]]"))
    assert main(["cluster", "--config", str(path)]) == 1
    assert capsys.readouterr().err == (
        "error: dataset 'toy_b': feature 'x1' holds the non-finite value inf in row 50\n"
    )
    assert not out.exists()


# toy_b's largest training fold has 50 rows; its models train on at most
# 100 rows for 6 epochs of 4 steps each, so the T = 24 steps bound the
# weights before reg_c * 100 does: R = sqrt((F / 4 - 24) / 24)
TRAINING_LIMIT = "past 1.8827128770698616e+18, the largest that float32 training keeps in range"


@pytest.mark.parametrize("command", ["stats", "cluster", "oversample", "experiment"])
def test_feature_beyond_single_precision_stops_experiment_before_any_compute(
        tmp_path, capsys, monkeypatch, command):
    # toy_b's second blob is centred at x1 = 1e39: finite, so every command
    # can load it and its distances stay finite, but past float32's range.
    # The training range rule rejects it: toy_a is checked first and is
    # fine, and neither dataset is clustered or trained on
    out = tmp_path / "results"
    path = tmp_path / "config.yaml"
    path.write_text(CONFIG.format(out=out).replace("[[0, 0], [4, 4]]", "[[0, 0], [4, 1.0e+39]]"))
    if command != "experiment":
        assert main([command, "--config", str(path)]) == 0
        assert out.is_dir()
        return
    calls = []
    for name in ("uclso.cli.run_cv", "uclso.experiment.kmeans", "uclso.experiment.fit_lockstep"):
        monkeypatch.setattr(name, lambda *a, name=name, **k: calls.append(name))
    assert main([command, "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: dataset 'toy_b': row 50 has norm 1e+39, {TRAINING_LIMIT}: rescale the "
        "features, for example by scale: minmax\n"
    )
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("centre", ["1.0e+19", "1.0e+20"])
def test_norm_past_training_range_stops_experiment_before_any_compute(
        tmp_path, capsys, monkeypatch, centre):
    # inside float32's range, but a training margin could reach about
    # |x|^2 * reg_c * 100 and overflow it: rejected before run_cv, with the
    # remedy, and no --out
    out = tmp_path / "results"
    path = tmp_path / "config.yaml"
    path.write_text(CONFIG.format(out=out).replace("[[0, 0], [4, 4]]", f"[[0, 0], [4, {centre}]]"))
    calls = []
    for name in ("uclso.cli.run_cv", "uclso.experiment.kmeans", "uclso.experiment.fit_lockstep"):
        monkeypatch.setattr(name, lambda *a, name=name, **k: calls.append(name))
    assert main(["experiment", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"error: dataset 'toy_b': row 50 has norm {float(centre)!r}, {TRAINING_LIMIT}: "
        "rescale the features, for example by scale: minmax\n"
    )
    assert calls == []
    assert not out.exists()


@pytest.mark.parametrize("command, mode", [
    ("cluster", "uclso"), ("oversample", "uclso"), ("oversample", "smote")])
def test_norm_past_distance_range_stops_before_any_compute(
        tmp_path, capsys, monkeypatch, command, mode):
    # at 1e160 squared distances overflow float64, and k-means and the
    # neighbour search would return arbitrary results: rejected before any
    # of them, with the remedy, and no --out
    out = tmp_path / "results"
    path = tmp_path / "config.yaml"
    text = CONFIG.format(out=out).replace("[[0, 0], [4, 4]]", "[[0, 0], [4, 1.0e+160]]")
    path.write_text(text.replace("m_neighbors: 5", f"m_neighbors: 5, mode: {mode}"))
    calls = []
    for name in ("kmeans", "iter_augments"):
        monkeypatch.setattr(f"uclso.cli.{name}", lambda *a, name=name, **k: calls.append(name))
    assert main([command, "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: dataset 'toy_b': row 50 has norm 1e+160, past 4.740375954054588e+153, the "
        "largest whose squared distances stay finite: rescale the features, for example "
        "by scale: minmax\n"
    )
    assert calls == []
    assert not out.exists()


def test_dataset_error_at_load_names_the_dataset(tmp_path, capsys):
    # the dataset type rejects the duplicate feature name; the load adds
    # the name of the dataset it was reading
    arff, xml = tmp_path / "dup.arff", tmp_path / "dup.xml"
    arff.write_text("@relation dup\n@attribute a numeric\n@attribute a numeric\n"
                    "@attribute lab {0,1}\n@data\n1,2,1\n3,4,0\n")
    xml.write_text(LAB_XML)
    out = tmp_path / "results"
    path = tmp_path / "config.yaml"
    path.write_text(f"out: {out}\ndatasets:\n  - name: dup\n"
                    f"    mulan: {{arff: {arff}, xml: {xml}}}\n")
    assert main(["stats", "--config", str(path)]) == 1
    assert capsys.readouterr().err == "error: dataset 'dup': duplicate feature names\n"
    assert not out.exists()


def test_arff_error_at_load_names_the_dataset(tmp_path, capsys):
    # a malformed cell in the second of two Mulan datasets: still a usage
    # error (exit 2), and the message says which dataset holds the line
    paths = {}
    for name, cell in (("good", "1.5"), ("bad", "abc")):
        arff, xml = tmp_path / f"{name}.arff", tmp_path / f"{name}.xml"
        arff.write_text("@relation r\n@attribute f0 numeric\n@attribute lab {0,1}\n"
                        f"@data\n0.5,1\n{cell},0\n")
        xml.write_text(LAB_XML)
        paths[name] = arff, xml
    out = tmp_path / "results"
    path = tmp_path / "config.yaml"
    path.write_text(f"out: {out}\ndatasets:\n" + "".join(
        f"  - name: {name}\n    mulan: {{arff: {arff}, xml: {xml}}}\n"
        for name, (arff, xml) in paths.items()
    ))
    assert main(["stats", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        "error: dataset 'bad': line 6: invalid numeric value 'abc' for attribute 'f0'\n"
    )
    assert not out.exists()


@pytest.mark.parametrize("command", ["stats", "cluster", "oversample", "experiment", "toy-gen"])
def test_each_dataset_loaded_once(config_path, monkeypatch, command):
    # one pass loads and checks every dataset before any compute, and the
    # compute uses that same load: a ranked experiment checks every
    # dataset's AUC from it
    loads = Counter()
    load = DatasetSource.load

    def counting_load(source):
        loads[source.name] += 1
        return load(source)

    config, _ = config_path
    monkeypatch.setattr(DatasetSource, "load", counting_load)
    assert main([command, "--config", config]) == 0
    assert loads == {"toy_a": 1, "toy_b": 1}


@pytest.mark.parametrize("key", ["arff", "xml", "config"])
@pytest.mark.parametrize("value, shown", [
    pytest.param(1, "must be a path string, got 1", id="int"),
    pytest.param(True, "must be a path string, got True", id="bool"),
    pytest.param(["d.arff"], "must be a path string, got ['d.arff']", id="list"),
    pytest.param("folder", "folder is not a regular file", id="directory"),
])
def test_path_naming_no_regular_file_is_usage_error(tmp_path, capsys, monkeypatch, key,
                                                    value, shown):
    # open() would take 1 or True for file descriptor 1, standard output,
    # cannot open a list and cannot read a directory: each is rejected
    # when the config loads, and the message names the dataset and the key
    monkeypatch.chdir(tmp_path)
    (tmp_path / "folder").mkdir()
    (tmp_path / "d.arff").write_text("@relation d\n@attribute f0 numeric\n"
                                     "@attribute lab {0,1}\n@data\n0.5,1\n1.5,0\n")
    (tmp_path / "d.xml").write_text(LAB_XML)
    if key == "config":
        if isinstance(value, str):
            assert main(["stats", "--config", value]) == 2
            assert capsys.readouterr().err == f"error: config file {shown}\n"
        else:
            with pytest.raises(ConfigError) as info:
                load_config(value)
            assert str(info.value) == f"config file {shown}"
        assert sorted(os.listdir(tmp_path)) == ["d.arff", "d.xml", "folder"]
        return
    mulan = {"arff": "d.arff", "xml": "d.xml", key: value}
    (tmp_path / "config.yaml").write_text(
        f"out: results\ndatasets:\n  - name: d\n    mulan: {json.dumps(mulan)}\n"
    )
    assert main(["stats", "--config", "config.yaml"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: dataset 'd': mulan {key} {shown}\n"
    assert sorted(os.listdir(tmp_path)) == ["config.yaml", "d.arff", "d.xml", "folder"]


def test_config_that_is_not_utf8_is_usage_error(tmp_path, capsys):
    # a Latin-1 é in a comment
    path = tmp_path / "config.yaml"
    path.write_bytes(b"# caf\xe9\n" + CONFIG.format(out=tmp_path / "results").encode())
    assert main(["stats", "--config", str(path)]) == 2
    assert capsys.readouterr().err == (
        f"error: config file {path} is not UTF-8 text: byte 0xe9 (invalid continuation "
        "byte)\n"
    )
    assert os.listdir(tmp_path) == ["config.yaml"]


@pytest.mark.parametrize("command", ["stats", "cluster", "oversample", "experiment"])
def test_arff_that_is_not_utf8_is_usage_error_naming_the_dataset(tmp_path, capsys,
                                                                 monkeypatch, command):
    # a Latin-1 é in the @relation line of the third dataset: a malformed
    # file, so a usage error, found before the toys are computed on
    arff, xml = tmp_path / "latin1.arff", tmp_path / "latin1.xml"
    arff.write_bytes(b"@relation caf\xe9\n@attribute f0 numeric\n@attribute lab {0,1}\n"
                     b"@data\n0.5,1\n1.5,0\n")
    xml.write_text(LAB_XML)
    out = tmp_path / "results"
    path = tmp_path / "config.yaml"
    path.write_text(CONFIG.format(out=out).replace(
        "oversample:", f"  - name: latin1\n    mulan: {{arff: {arff}, xml: {xml}}}\noversample:"
    ))
    calls = []
    for name in ("compute_stats", "kmeans", "iter_augments", "run_cv"):
        monkeypatch.setattr(f"uclso.cli.{name}", lambda *a, name=name, **k: calls.append(name))
    assert main([command, "--config", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: dataset 'latin1': not UTF-8 text: byte 0xe9 (invalid continuation byte)\n"
    )
    assert calls == [] and not out.exists()


class TestExperiment:
    def test_outputs_and_rank_tables(self, config_path):
        config, out = config_path
        assert main(["experiment", "--config", config]) == 0
        files = os.listdir(out)
        for ds_name in ("toy_a", "toy_b"):
            for m in ("none", "smote", "uclso"):
                assert f"{ds_name}__{m}__cells.csv" in files
                assert f"{ds_name}__{m}__summary.json" in files
        for metric in ("f1", "auc"):
            assert f"rank_{metric}.csv" in files
            assert f"friedman_{metric}.csv" in files
            assert f"cd_{metric}.csv" in files
        # rank rows sum to M(M+1)/2 = 6 for 3 methods
        with open(os.path.join(out, "rank_f1.csv")) as fh:
            lines = fh.read().splitlines()
        header = lines[1].split(",")
        rank_cols = [i for i, h in enumerate(header) if h.endswith("_rank")]
        for line in lines[2:]:
            row = line.split(",")
            if row[0] == "average_rank":
                continue
            assert sum(float(row[i]) for i in rank_cols) == pytest.approx(6.0)

    def test_summary_embeds_hash_and_seed(self, config_path):
        config, out = config_path
        assert main(["experiment", "--config", config]) == 0
        with open(os.path.join(out, "toy_a__uclso__summary.json")) as fh:
            summary = json.load(fh)
        assert "config_hash" in summary and summary["seed"] == 7

    def test_no_defined_auc_fails_before_compute(self, tmp_path, capsys):
        # toy_b's only label is all zero: no test fold of any cell has both
        # classes, so no AUC can be defined for it
        out = tmp_path / "results"
        path = tmp_path / "config.yaml"
        path.write_text(CONFIG.format(out=out).replace("- {1: 0.3}", "- {}"))
        assert main(["experiment", "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("error: dataset 'toy_b': no cross")
        assert not out.exists()

    @pytest.mark.parametrize("methods", ["[none, smote, uclso]", "[uclso]"])
    def test_preparation_error_names_dataset(self, tmp_path, capsys, methods):
        # ranked runs (two datasets, three methods) and unranked ones alike
        # prepare every dataset before any compute
        out = tmp_path / "results"
        path = tmp_path / "config.yaml"
        path.write_text(
            CONFIG.format(out=out)
            .replace("methods: [none, smote, uclso]", f"methods: {methods}")
            .replace("cv:", "filter: {enabled: true, min_pos: 1000}\ncv:")
        )
        assert main(["experiment", "--config", str(path)]) == 1
        assert capsys.readouterr().err == (
            "error: dataset 'toy_a': all labels dropped by filtering; dataset unusable\n"
        )
        assert not out.exists()

    def test_preparation_error_comes_before_any_compute(self, tmp_path, capsys,
                                                        monkeypatch):
        # one method, so no rank tables: toy_a keeps a label with 29
        # positives, toy_b's only label has 16 and is dropped. Every
        # command that computes per dataset fails before toy_a's compute
        out = tmp_path / "results"
        path = tmp_path / "config.yaml"
        path.write_text(
            CONFIG.format(out=out)
            .replace("methods: [none, smote, uclso]", "methods: [uclso]")
            .replace("cv:", "filter: {enabled: true, min_pos: 20}\ncv:")
        )
        calls = []
        for name in ("kmeans", "iter_augments", "run_cv"):
            monkeypatch.setattr(f"uclso.cli.{name}", lambda *a, **k: calls.append(a))
        for command in ("experiment", "cluster", "oversample"):
            assert main([command, "--config", str(path)]) == 1
            assert capsys.readouterr().err == (
                "error: dataset 'toy_b': all labels dropped by filtering; "
                "dataset unusable\n"
            )
            assert calls == [] and not out.exists()

    def test_compute_error_names_dataset_and_writes_nothing(self, tmp_path, capsys,
                                                            monkeypatch):
        # toy_a's training folds hold 70 rows, toy_b's only 50: too few for
        # 60 clusters. The check runs while the datasets are prepared, so
        # the error comes before toy_a's cross-validation
        out = tmp_path / "results"
        path = tmp_path / "config.yaml"
        path.write_text(CONFIG.format(out=out).replace("k_clusters: 3", "k_clusters: 60"))
        calls = []
        monkeypatch.setattr("uclso.cli.run_cv", lambda *a, **k: calls.append(a))
        assert main(["experiment", "--config", str(path)]) == 1
        assert capsys.readouterr().err == "error: dataset 'toy_b': k=60 must be in [1, 50]\n"
        assert calls == []
        assert not out.exists()
        # without uclso no fold is clustered, so k is not checked
        monkeypatch.undo()
        path.write_text(
            path.read_text().replace("methods: [none, smote, uclso]", "methods: [none, smote]")
        )
        assert main(["experiment", "--config", str(path)]) == 0

    @pytest.mark.parametrize("k, code", [(66, 0), (67, 1)])
    def test_k_bound_is_the_smallest_training_fold(self, tmp_path, capsys, monkeypatch, k,
                                                   code):
        # toy_b's 100 rows in 3 folds of 34, 33 and 33: training folds of
        # 66, 67 and 67 rows. A k that fits stops no run; one that does not
        # stops it before run_cv
        out = tmp_path / "results"
        text = CONFIG.format(out=out)
        text = text[:text.index("  - name: toy_a")] + text[text.index("  - name: toy_b"):]
        path = tmp_path / "config.yaml"
        path.write_text(
            text.replace("k_clusters: 3", f"k_clusters: {k}")
            .replace("cv: {reps: 2, folds: 2}", "cv: {reps: 1, folds: 3}")
            .replace("methods: [none, smote, uclso]", "methods: [uclso]")
        )
        runs = []

        def spy(*args, **kwargs):
            runs.append(args)
            return run_cv(*args, **kwargs)

        monkeypatch.setattr("uclso.cli.run_cv", spy)
        assert main(["experiment", "--config", str(path)]) == code
        err = capsys.readouterr().err
        assert err == ("" if code == 0 else "error: dataset 'toy_b': k=67 must be in [1, 66]\n")
        assert len(runs) == (code == 0) and out.exists() == (code == 0)

    @pytest.mark.parametrize("keep", ["toy_b only", "uclso only"])
    def test_no_defined_auc_without_ranking_still_runs(self, tmp_path, keep):
        # with one dataset, or one method, no rank table is written, so a
        # dataset with no defined AUC still gets its cells and a NaN AUC
        out = tmp_path / "results"
        text = CONFIG.format(out=out).replace("- {1: 0.3}", "- {}")
        if keep == "toy_b only":
            text = text[:text.index("  - name: toy_a")] + text[text.index("  - name: toy_b"):]
        else:
            text = text.replace("methods: [none, smote, uclso]", "methods: [uclso]")
        path = tmp_path / "config.yaml"
        path.write_text(text)
        assert main(["experiment", "--config", str(path)]) == 0
        with open(out / "toy_b__uclso__summary.json") as fh:
            summary = json.load(fh)
        assert np.isnan(summary["macro_auc_mean"])
        assert not (out / "rank_auc.csv").exists()

    def test_byte_identical_reruns_and_thread_invariance(self, tmp_path):
        out1, out2, out3 = (str(tmp_path / d) for d in ("r1", "r2", "r3"))
        path = tmp_path / "config.yaml"
        path.write_text(CONFIG.format(out="PLACEHOLDER"))
        config = str(path)
        assert main(["experiment", "--config", config, "--out", out1]) == 0
        assert main(["experiment", "--config", config, "--out", out2]) == 0
        assert main(["experiment", "--config", config, "--out", out3, "--threads", "4"]) == 0
        d1, d2, d3 = read_all(out1), read_all(out2), read_all(out3)
        assert d1 == d2 == d3


THREADED_RUN = """
import hashlib, os, sys
import numpy as np
from uclso import (MethodSpec, MultiLabelDataset, OversampleConfig, TrainConfig,
                   make_fold_plan, run_cv)
from uclso.cli import main
config, out = sys.argv[1:]
assert main(["experiment", "--config", config, "--out", out]) == 0
for name in sorted(os.listdir(out)):
    with open(os.path.join(out, name), "rb") as fh:
        print(name, hashlib.sha256(fh.read()).hexdigest())
# a reduced wide_cv: at d = 60 a BLAS product's bits depend on the threads
rng = np.random.default_rng(7)
n, d, q = 2400, 60, 6
X = rng.normal(0.0, 0.6, (6, d))[rng.integers(6, size=n)] + rng.normal(size=(n, d))
Y = (rng.random((n, q)) < np.geomspace(0.03, 0.3, q)).astype(int)
ds = MultiLabelDataset(X, Y, tuple(f"f{j}" for j in range(d)),
                       tuple(f"y{l}" for l in range(q)))
methods = [MethodSpec(m, OversampleConfig(k_clusters=5, seed=7, mode=m))
           for m in ("none", "smote", "uclso")]
reports = run_cv(ds, methods, make_fold_plan(n, 1, 2, 7), TrainConfig(epochs=2, seed=7))
for name, report in reports.items():
    print(name, report.cells)
"""


def test_whole_run_is_the_same_at_any_blas_thread_count(tmp_path):
    # `uclso experiment` output hashes and wide run_cv cells, each run in
    # a fresh process under one and under two BLAS threads
    path = tmp_path / "config.yaml"
    path.write_text(CONFIG.format(out="unused"))
    src = str(Path(__file__).resolve().parents[1] / "src")
    printed = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                   PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, "-c", THREADED_RUN, str(path), str(tmp_path / threads)],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        printed.append(proc.stdout)
    assert printed[0].count("__cells.csv") == 6
    assert printed[0] == printed[1]


class TestToyGen:
    def test_writes_arff_xml(self, config_path):
        config, out = config_path
        assert main(["toy-gen", "--config", config]) == 0
        assert os.path.exists(os.path.join(out, "toy_a.arff"))
        assert os.path.exists(os.path.join(out, "toy_a.xml"))
        from uclso.arff_io import load_mulan
        from uclso.config import load_config

        cfg = load_config(config)
        ds = cfg.datasets[0].load()
        back = load_mulan(
            os.path.join(out, "toy_a.arff"), os.path.join(out, "toy_a.xml")
        )
        assert np.array_equal(ds.features, back.features)
        assert np.array_equal(ds.labels, back.labels)


@pytest.mark.parametrize("command", ["cluster", "oversample", "experiment"])
def test_negative_seed_override_is_usage_error(config_path, capsys, command):
    config, out = config_path
    assert main([command, "--config", config, "--seed", "-1"]) == 2
    assert capsys.readouterr().err == "error: config: seed must be >= 0, got -1\n"
    assert not os.path.exists(out)


def test_seed_override_changes_hash(config_path):
    config, out = config_path
    from uclso.config import load_config

    a = load_config(config)
    b = load_config(config, seed_override=99)
    assert a.config_hash() != b.config_hash()
    assert b.seed == 99
