"""The package's public surface: what `uclso` exports, and the calls the
benchmark under `perfbench/` makes, in the form it makes them. A change
that breaks one of those calls fails here, on every supported Python."""

import ast
import dataclasses
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import uclso
import uclso.arff_io
import uclso.cli
from uclso.config import ExperimentConfig
from uclso.experiment import FoldCell
from uclso.linear import TrainingError
from uclso.oversample import OversampleError

# the exports, in full: a name removed from the package, such as the
# single-label fit and cell entry points run_cv's path replaced, the
# per-model class the lockstep weight matrix replaced, or the one-model
# score that a unit's one product replaced, must not come back,
# and a new export is added here on purpose
EXPORTS = {
    "ArffError", "AugmentedDataset", "ClusterAssignment", "ConfusionCounts",
    "DatasetError", "DatasetStats", "FoldPlan", "FriedmanResult",
    "LabelUnusableError", "MethodSpec", "MetricReport", "MultiLabelDataset",
    "OversampleConfig", "RankTable", "SyntheticSet", "ToyConfig", "TrainConfig",
    "auc_label", "average_ranks", "compute_stats", "confusion", "f1_label",
    "filter_labels", "friedman", "generate_toy", "interpolate", "kmeans",
    "load_mulan", "macro_average", "make_fold_plan", "minority_class", "quota",
    "run_cv", "scale_min_max", "smote_augment", "uclso_augment",
    "write_mulan",
}


def test_exports_resolve_and_are_exactly_the_known_set():
    assert len(set(uclso.__all__)) == len(uclso.__all__)
    assert set(uclso.__all__) == EXPORTS
    namespace = {}
    exec("from uclso import *", namespace)
    for name in uclso.__all__:
        assert namespace[name] is getattr(uclso, name), name


def test_benchmark_calls_work_as_made():
    rng = np.random.default_rng(0)
    ds = uclso.MultiLabelDataset(
        rng.normal(size=(40, 3)),
        (rng.random((40, 2)) < 0.25).astype(int),
        ("f0", "f1", "f2"),
        ("y0", "y1"),
    )
    cfg = uclso.OversampleConfig(2, 5, 1, "smote")
    assert (cfg.k_clusters, cfg.m_neighbors, cfg.seed, cfg.mode) == (2, 5, 1, "smote")

    # an augmentation built positionally, and one read as the tracer reads it
    aug = uclso.smote_augment(ds, 0, cfg)
    assert aug.label_index == 0 and aug.extra.label_index == 0
    padded = uclso.AugmentedDataset(
        ds, uclso.SyntheticSet(0, np.vstack([aug.extra.points] * 2), ()), 0
    )
    assert padded.label_index == 0 and len(padded.extra) == 2 * len(aug.extra)
    assert padded.base is ds and padded.base.label_names[0] == "y0"

    methods = [
        uclso.MethodSpec(m, uclso.OversampleConfig(2, 5, 1, m))
        for m in ("none", "smote", "uclso")
    ]
    plan = uclso.make_fold_plan(ds.n, 1, 2, 1)
    train = uclso.TrainConfig(epochs=2, seed=1)
    reports = uclso.run_cv(ds, methods, plan, train, threads=1)
    assert set(reports) == {"none", "smote", "uclso"}
    for report in reports.values():
        assert len(report.cells) == 2
        assert all(len(c.f1) == ds.q for c in report.cells)
        assert np.isfinite(report.summary()["macro_f1_mean"])
    assert callable(uclso.cli.main) and callable(uclso.arff_io.load_mulan)
    assert callable(uclso.write_mulan)



def test_records_hold_only_what_they_cannot_derive():
    # a fold plan is its folds, and a cell and a clustering compute their
    # summaries from what they hold, so no record can contradict itself; a
    # loaded config keeps its settings' hash, not the YAML they came from
    records = (uclso.FoldPlan, FoldCell, uclso.ClusterAssignment, ExperimentConfig)
    assert [tuple(f.name for f in dataclasses.fields(r)) for r in records] == [
        ("assignments",),
        ("rep", "fold", "f1", "auc", "constant_labels"),
        ("assignment", "centroids", "inertia_history"),
        ("seed", "out_dir", "datasets", "methods", "oversample", "train", "cv_reps",
         "cv_folds", "filter_enabled", "max_ir", "min_pos", "scale", "config_hash"),
    ]
    cell = FoldCell(0, 1, (0.5, 1.0, 0.0), (math.nan, 0.75, 0.25), ())
    assert cell.auc_defined == (False, True, True)
    assert (cell.macro_f1, cell.macro_auc) == (0.5, 0.5)
    assert math.isnan(FoldCell(0, 0, (1.0,), (math.nan,), ()).macro_auc)
    assign = uclso.kmeans(np.array([[0.0], [1.0], [5.0], [6.0]]), 2, seed=0)
    assert (assign.k, assign.inertia) == (2, 1.0) == (2, assign.inertia_history[-1])
    assert assign.iterations_run == len(assign.inertia_history)

@pytest.mark.parametrize("config, error, key, value", [
    (uclso.TrainConfig, TrainingError, "epochs", 2.5),
    (uclso.TrainConfig, TrainingError, "epochs", True),
    (uclso.TrainConfig, TrainingError, "batch_size", 2.5),
    (uclso.OversampleConfig, OversampleError, "k_clusters", 2.5),
    (uclso.OversampleConfig, OversampleError, "k_clusters", True),
    (uclso.OversampleConfig, OversampleError, "m_neighbors", 2.5),
    (uclso.TrainConfig, TrainingError, "seed", 2.5),
    (uclso.TrainConfig, TrainingError, "seed", True),
    (uclso.OversampleConfig, OversampleError, "seed", 2.5),
    (uclso.OversampleConfig, OversampleError, "seed", True),
])
def test_config_counts_are_integers(config, error, key, value):
    # a count or seed that is not an integer fails when the config is
    # made, not with a TypeError once clustering and synthesis have run; a
    # bool is not a count (epochs=True would train one epoch). numpy
    # integers are
    with pytest.raises(error, match=f"^{key} must be an integer, got {re.escape(repr(value))}$"):
        config(**{key: value})
    assert getattr(config(**{key: np.int64(3)}), key) == 3


@pytest.mark.parametrize("config, error", [
    (uclso.TrainConfig, TrainingError), (uclso.OversampleConfig, OversampleError)])
@pytest.mark.parametrize("seed", [-1, np.int64(-1)])
def test_config_seeds_are_non_negative(config, error, seed):
    # a negative seed fails when the config is made, not once run_cv has
    # clustered and synthesised and derives the first cell's seed from it
    with pytest.raises(error, match="^seed must be >= 0, got -1$"):
        config(seed=seed)
    assert config(seed=np.int64(0)).seed == 0


def test_readme_library_example_runs(capsys):
    # the README's library example uses only names the package exports
    readme = (Path(__file__).parent.parent / "README.md").read_text(encoding="utf-8")
    start = readme.index("```python\n", readme.index("\n## Library\n")) + 10
    code = readme[start:readme.index("\n```", start)]
    exec(compile(code, "README.md", "exec"), {})
    printed = ast.literal_eval(capsys.readouterr().out)
    assert set(printed) == {"none", "smote", "uclso"}
    assert all(0.0 <= v <= 1.0 for v in printed.values())


def run_python(code: str) -> str:
    """The standard output of `code`, run by a fresh interpreter that
    imports this checkout's uclso."""
    src = str(Path(uclso.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_import_loads_no_scipy():
    # scipy.stats alone took about a second to import; the Friedman test
    # imports scipy.special when it first runs, and nothing else uses scipy.
    # orjson (about 0.7 MB) is imported when float text is first written
    # or a dense ARFF block is first read
    code = ("import sys, uclso, uclso.cli; "
            "print(sorted(m for m in sys.modules if m.startswith(('scipy', 'orjson'))))")
    assert run_python(code) == "[]\n"


def test_commands_on_arff_load_no_numpy_ma(tmp_path):
    # np.unique imports numpy.ma (about 20 ms); the ARFF label check counts
    # domain indices instead, so these commands import it nowhere
    rng = np.random.default_rng(3)
    ds = uclso.MultiLabelDataset(rng.normal(size=(60, 3)), (rng.random((60, 2)) < 0.3).astype(int),
                                 ("f0", "f1", "f2"), ("y0", "y1"))
    arff, xml = tmp_path / "d.arff", tmp_path / "d.xml"
    uclso.write_mulan(ds, str(arff), str(xml))
    config = tmp_path / "c.yaml"
    config.write_text(f"seed: 1\nout: {tmp_path / 'out'}\ndatasets:\n  - name: d\n"
                      f"    mulan: {{arff: {arff}, xml: {xml}}}\n"
                      "oversample: {k_clusters: 2, m_neighbors: 3}\n")
    code = ("import contextlib, io, sys, uclso.cli\n"
            "for command in ('stats', 'cluster', 'oversample'):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            f"        assert uclso.cli.main([command, '--config', {str(config)!r}]) == 0\n"
            "    print(command, 'numpy.ma' in sys.modules)\n")
    assert run_python(code) == "stats False\ncluster False\noversample False\n"


def test_fit_lockstep_loads_no_numpy_ma():
    # plain np.unique imports numpy.ma (about 13 ms cold); the class check
    # of every model that experiment and run_cv train must not
    code = ("import sys, numpy as np\n"
            "from uclso.linear import TrainConfig, fit_lockstep\n"
            "X = np.arange(12.0).reshape(6, 2) / 10\n"
            "rows = [np.arange(6), np.arange(3)]\n"
            "targets = [np.array([0, 1, 0, 1, 1, 0]), np.array([1, 1, 1])]\n"
            "_, _, constant = fit_lockstep(X, rows, targets, [1, 2], TrainConfig(epochs=2))\n"
            "print(constant, 'numpy.ma' in sys.modules)\n")
    assert run_python(code) == "[1] False\n"
