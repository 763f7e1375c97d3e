"""The package's public surface: what `uclso` exports, and the calls the
benchmark under `perfbench/` makes, in the form it makes them. A change
that breaks one of those calls fails here, on every supported Python."""

import numpy as np

import uclso
import uclso.arff_io
import uclso.cli

# the exports, in full: a name removed from the package, such as the
# single-label fit and cell entry points run_cv's path replaced, must not
# come back, and a new export is added here on purpose
EXPORTS = {
    "ArffError", "AugmentedDataset", "ClusterAssignment", "ConfusionCounts",
    "DatasetError", "DatasetStats", "FoldPlan", "FriedmanResult",
    "LabelUnusableError", "LinearModel", "MethodSpec", "MetricReport",
    "MultiLabelDataset", "OversampleConfig", "RankTable", "SyntheticSet",
    "ToyConfig", "TrainConfig", "auc_label", "average_ranks", "compute_stats",
    "confusion", "f1_label", "filter_labels", "friedman", "generate_toy",
    "interpolate", "kmeans", "load_mulan", "macro_average", "make_fold_plan",
    "minority_class", "quota", "run_cv", "scale_min_max", "score",
    "smote_augment", "uclso_augment", "write_mulan",
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
