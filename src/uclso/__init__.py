"""Cluster-guarded label-specific minority oversampling for imbalanced
multi-label data, with the evaluation harness to go with it."""

from .arff_io import ArffError, load_mulan, write_mulan
from .clustering import ClusterAssignment, kmeans
from .dataset import (
    DatasetError,
    DatasetStats,
    FoldPlan,
    MultiLabelDataset,
    ToyConfig,
    compute_stats,
    filter_labels,
    generate_toy,
    make_fold_plan,
    scale_min_max,
)
from .experiment import MethodSpec, MetricReport, run_cv
from .linear import TrainConfig
from .metrics import ConfusionCounts, auc_label, confusion, f1_label, macro_average
from .oversample import (
    AugmentedDataset,
    LabelUnusableError,
    OversampleConfig,
    SyntheticSet,
    interpolate,
    minority_class,
    quota,
    smote_augment,
    uclso_augment,
)
from .ranking import FriedmanResult, RankTable, average_ranks, friedman

__version__ = "0.1.0"

__all__ = [
    "ArffError",
    "AugmentedDataset",
    "ClusterAssignment",
    "ConfusionCounts",
    "DatasetError",
    "DatasetStats",
    "FoldPlan",
    "FriedmanResult",
    "LabelUnusableError",
    "MethodSpec",
    "MetricReport",
    "MultiLabelDataset",
    "OversampleConfig",
    "RankTable",
    "SyntheticSet",
    "ToyConfig",
    "TrainConfig",
    "auc_label",
    "average_ranks",
    "compute_stats",
    "confusion",
    "f1_label",
    "filter_labels",
    "friedman",
    "generate_toy",
    "interpolate",
    "kmeans",
    "load_mulan",
    "macro_average",
    "make_fold_plan",
    "minority_class",
    "quota",
    "run_cv",
    "scale_min_max",
    "smote_augment",
    "uclso_augment",
    "write_mulan",
]
