"""Linear relevance classifiers: L2-regularized hinge loss fit by
stochastic subgradient descent, one independent model per label.

Training is the fixed-T minibatch Pegasos update (Shalev-Shwartz, Singer
& Srebro, ICML 2007): every fit runs exactly `epochs` passes; there is no
early stop."""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dataset import MultiLabelDataset
from .oversample import AugmentedDataset


class TrainingError(ValueError):
    pass


class SingleClassError(TrainingError):
    """Training targets contain only one class."""


@dataclass(frozen=True)
class TrainConfig:
    reg_c: float = 1.0  # inverse regularization strength
    epochs: int = 100
    learning_rate: float = 1.0
    lr_decay: float | None = None  # defaults to lambda = 1 / (reg_c * n)
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        if self.reg_c <= 0 or self.epochs < 1 or self.learning_rate <= 0:
            raise TrainingError("reg_c, epochs and learning_rate must be positive")
        if self.batch_size < 1:
            raise TrainingError("invalid batch_size")


@dataclass(frozen=True)
class TrainMeta:
    reg_c: float
    epochs_run: int
    objective: float


@dataclass(frozen=True)
class LinearModel:
    weights: np.ndarray
    bias: float
    train_meta: TrainMeta

    def __post_init__(self):
        self.weights.setflags(write=False)


def train_linear(X: np.ndarray, y: np.ndarray, cfg: TrainConfig) -> LinearModel:
    """Fit a hinge-loss linear model on binary targets y in {0, 1}.

    Shuffled mini-batch subgradient steps with 1/t-style decay for exactly
    cfg.epochs passes; the run is deterministic under cfg.seed.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y)
    if X.ndim != 2 or X.shape[0] != y.shape[0]:
        raise TrainingError("X rows must match y length")
    if not np.isfinite(X).all():
        raise TrainingError("non-finite feature values")
    classes = np.unique(y)
    if classes.size < 2:
        raise SingleClassError(f"targets contain a single class: {classes.tolist()}")
    n, d = X.shape
    s = np.where(y == 1, 1.0, -1.0)
    lam = 1.0 / (cfg.reg_c * n)
    decay = cfg.lr_decay if cfg.lr_decay is not None else lam
    rng = np.random.default_rng(cfg.seed)

    w = np.zeros(d)
    b = 0.0
    t = 0
    for _ in range(cfg.epochs):
        perm = rng.permutation(n)
        for start in range(0, n, cfg.batch_size):
            batch = perm[start:start + cfg.batch_size]
            Xb, sb = X[batch], s[batch]
            margins = sb * (Xb @ w + b)
            viol = margins < 1.0
            t += 1
            eta = cfg.learning_rate / (1.0 + cfg.learning_rate * decay * t)
            grad_w = lam * w
            if viol.any():
                grad_w = grad_w - (sb[viol, None] * Xb[viol]).sum(axis=0) / batch.size
                grad_b = -float(sb[viol].sum()) / batch.size
            else:
                grad_b = 0.0
            w = w - eta * grad_w
            b = b - eta * grad_b
    hinge = np.maximum(0.0, 1.0 - s * (X @ w + b)).mean()
    objective = 0.5 * lam * float(w @ w) + float(hinge)
    return LinearModel(w, float(b), TrainMeta(cfg.reg_c, cfg.epochs, objective))


def constant_model(d: int, bias: float) -> LinearModel:
    """Zero-weight fallback used when a training fold is single-class."""
    return LinearModel(np.zeros(d), float(bias), TrainMeta(0.0, 0, 0.0))


def score(model: LinearModel, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.shape[1] != model.weights.shape[0]:
        raise TrainingError(
            f"feature dimension {X.shape[1]} does not match model "
            f"({model.weights.shape[0]})"
        )
    return X @ model.weights + model.bias


def predict(model: LinearModel, X: np.ndarray, threshold: float = 0.0) -> np.ndarray:
    return (score(model, X) > threshold).astype(int)


@dataclass(frozen=True)
class BRModels:
    """One model per label plus the labels that fell back to a constant
    scorer because their training data was single-class."""

    models: tuple[LinearModel, ...]
    constant_labels: tuple[str, ...] = ()


def br_fit(
    ds: MultiLabelDataset,
    augments: list[AugmentedDataset],
    cfg: TrainConfig,
    on_single_class: str = "raise",
) -> BRModels:
    """Binary relevance: fit label l's model on its augmented training set.

    on_single_class: "raise" propagates the error with the label name;
    "constant" substitutes a zero-weight scorer biased toward the sole
    observed class and records the label.
    """
    if len(augments) != ds.q:
        raise TrainingError("need exactly one augmentation per label")
    models = []
    constant = []
    for l, aug in enumerate(augments):
        if aug.label_index != l:
            raise TrainingError("augmentations out of label order")
        X = aug.features()
        y = aug.label_vector()
        label_cfg = replace(
            cfg, seed=int(np.random.SeedSequence([cfg.seed, l]).generate_state(1)[0])
        )
        try:
            models.append(train_linear(X, y, label_cfg))
        except SingleClassError as exc:
            if on_single_class != "constant":
                raise SingleClassError(
                    f"label {ds.label_names[l]!r}: {exc}"
                ) from None
            only = int(np.unique(y)[0])
            models.append(constant_model(ds.d, 1.0 if only == 1 else -1.0))
            constant.append(ds.label_names[l])
    return BRModels(tuple(models), tuple(constant))
