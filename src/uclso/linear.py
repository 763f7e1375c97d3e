"""Linear relevance classifiers: L2-regularized hinge loss fit by
stochastic subgradient descent, one independent model per label.

Training is the fixed-T minibatch Pegasos update (Shalev-Shwartz, Singer
& Srebro, ICML 2007): every fit runs exactly `epochs` passes; there is no
early stop. Many independent models are fit in lockstep, as one
(models x features) weight matrix over one shared row matrix: each step
advances every model by one minibatch of its own rows, with its own random
stream, step counter and regularization. A model's arithmetic does not
depend on which other models share its run, so fitting it alone, with the
other labels of its cell, or with other cells of its method gives bit-equal
weights, as long as the minibatch width, min(batch_size, largest row
count), is the same: always so when each run has a problem with at least
batch_size rows.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np


class TrainingError(ValueError):
    pass


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


def fit_lockstep(
    X: np.ndarray,
    rows: Sequence[np.ndarray],
    targets: Sequence[np.ndarray],
    seeds: Sequence[int],
    cfg: TrainConfig,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[int]]:
    """Fit one hinge-loss model per problem, all in one lockstep loop.

    Problem i trains on the rows X[rows[i]] with binary targets
    targets[i] in {0, 1}, under seeds[i]; its regularization is
    lambda = 1 / (cfg.reg_c * n_i). Every epoch each model draws its own
    permutation of its n_i rows; step j then takes its minibatch j, the
    last one partial when cfg.batch_size does not divide n_i. A model whose
    epoch has no steps left waits for the others.

    A problem whose targets hold a single class is not trained: it gets a
    zero weight row, a bias of +1 or -1 toward that class and an objective
    of 0. Returns, in problem order, the (problems x features) weights,
    the biases and the final training objectives (the regularized mean
    hinge loss), and the indices of the constant problems.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise TrainingError("X must be a 2-d matrix")
    if not np.isfinite(X).all():
        raise TrainingError("non-finite feature values")
    d = X.shape[1]
    weights = np.zeros((len(rows), d))
    bias = np.zeros(len(rows))
    objective = np.zeros(len(rows))
    constant = []
    fit = []
    for i, (r, y) in enumerate(zip(rows, targets)):
        if len(r) != len(y):
            raise TrainingError("X rows must match y length")
        classes = np.unique(y)
        if classes.size >= 2:
            fit.append(i)
            continue
        bias[i] = 1.0 if classes[0] == 1 else -1.0
        constant.append(i)
    if not fit:
        return weights, bias, objective, constant

    # models by decreasing row count, so those still in their epoch at any
    # step are a prefix [:active]
    order = sorted(fit, key=lambda i: -len(rows[i]))
    M = len(order)
    B = cfg.batch_size
    n = np.array([len(rows[i]) for i in order])
    width = min(B, int(n[0]))  # rows per minibatch slot
    steps = -(-n // B)
    cols = int(steps[0]) * width
    # each model's rows and +-1 targets, padded to `cols` with row 0 and
    # target 0: a padding slot has margin 0 and adds nothing to a gradient
    R = np.zeros((M, cols), dtype=np.intp)
    S = np.zeros((M, cols))
    for k, i in enumerate(order):
        R[k, :n[k]] = rows[i]
        S[k, :n[k]] = np.where(np.asarray(targets[i]) == 1, 1.0, -1.0)
    # this epoch's order of slots, as flat indices into R and S
    P = np.arange(M * cols).reshape(M, cols)
    rngs = [np.random.default_rng(seeds[i]) for i in order]
    lam = 1.0 / (cfg.reg_c * n)
    decay = lam if cfg.lr_decay is None else cfg.lr_decay
    lr = cfg.learning_rate
    active = [int((steps > j).sum()) for j in range(int(steps[0]))]
    step = np.arange(len(active))[:, None]
    # true size of each model's minibatch j: the gradient divides by it
    batch = np.minimum(B, n[None, :] - B * step)

    w = np.zeros((M, d))
    b = np.zeros(M)
    for epoch in range(cfg.epochs):
        for k in range(M):
            P[k, :n[k]] = rngs[k].permutation(int(n[k])) + k * cols
        rows_e = R.take(P)
        s_e = S.take(P)
        # step size of each model's minibatch j: its t-th step overall
        t = (epoch * steps + 1 + step).astype(float)
        eta = lr / (1.0 + lr * decay * t)
        for j, a in enumerate(active):
            slots = slice(j * width, (j + 1) * width)
            Xb = X.take(rows_e[:a, slots], axis=0)
            sb = s_e[:a, slots]
            wa = w[:a]
            margins = sb * (np.matmul(Xb, wa[:, :, None])[:, :, 0] + b[:a, None])
            viol = sb * (margins < 1.0)  # +-1 where the hinge is active, else 0
            size = batch[j, :a]
            # each model's violators summed row after row, in batch order
            hinge_sum = np.einsum("mb,mbd->md", viol, Xb)
            grad_w = lam[:a, None] * wa - hinge_sum / size[:, None]
            grad_b = -viol.sum(axis=1) / size
            w[:a] = wa - eta[j, :a, None] * grad_w
            b[:a] = b[:a] - eta[j, :a] * grad_b

    weights[order] = w
    bias[order] = b
    for k, i in enumerate(order):
        s = S[k, :n[k]]
        hinge = np.maximum(0.0, 1.0 - s * (X[rows[i]] @ w[k] + b[k])).mean()
        objective[i] = 0.5 * lam[k] * float(w[k] @ w[k]) + float(hinge)
    return weights, bias, objective, constant


def score(weights: np.ndarray, bias: float, X: np.ndarray) -> np.ndarray:
    """Decision values of one model, its weight row and bias, on X's rows."""
    X = np.asarray(X, dtype=float)
    if X.shape[1] != weights.shape[0]:
        raise TrainingError(
            f"feature dimension {X.shape[1]} does not match model "
            f"({weights.shape[0]})"
        )
    return X @ weights + bias


def br_problems(
    labels: np.ndarray, start: int, extra_counts: Sequence[int], seed: int
) -> tuple[list[np.ndarray], list[np.ndarray], list[int]]:
    """Rows, targets and seeds of one cell's binary-relevance problems.

    The cell's training matrix holds its n base rows from row `start`,
    then extra_counts[0] synthetic rows of label 0, then those of label 1,
    and so on. Label l's model trains on the base rows and its own
    synthetic rows, which are all relevant, under a seed derived from
    (seed, l).
    """
    n, q = labels.shape
    base = np.arange(start, start + n)
    rows, targets, seeds = [], [], []
    offset = start + n
    for l in range(q):
        k = extra_counts[l]
        rows.append(np.concatenate([base, np.arange(offset, offset + k)]))
        targets.append(np.concatenate([labels[:, l], np.ones(k, dtype=int)]))
        seeds.append(int(np.random.SeedSequence([seed, l]).generate_state(1)[0]))
        offset += k
    return rows, targets, seeds
