"""Linear relevance classifiers: L2-regularized hinge loss fit by
stochastic subgradient descent, one independent model per label.

Training is the fixed-T minibatch Pegasos update (Shalev-Shwartz, Singer
& Srebro, ICML 2007): `epochs` passes, no early stop. A model of n rows
has regularization lambda = 1 / (reg_c * n) and its t-th step has size
eta_t = 1 / (1 + lambda * t). Many independent models are fit in
lockstep, as one (models x features) weight matrix over one shared row
matrix: each step advances every model by one minibatch of its own rows,
with its own random stream, step counter and regularization. A model's
arithmetic does not depend on which other models share its run, so
fitting it alone or with any other models gives bit-equal weights. A
fit returns each model's weight row and bias only; it computes no loss.
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
    batch_size: int = 32
    seed: int = 0

    def __post_init__(self):
        # not > 0 also rejects a NaN reg_c, which would make every weight NaN
        if not self.reg_c > 0 or self.epochs < 1 or self.batch_size < 1:
            raise TrainingError("reg_c, epochs and batch_size must be positive")


def fit_lockstep(
    X: np.ndarray,
    rows: Sequence[np.ndarray],
    targets: Sequence[np.ndarray],
    seeds: Sequence[int],
    cfg: TrainConfig,
) -> tuple[np.ndarray, np.ndarray, list[int]]:
    """Fit one hinge-loss model per problem, all in one lockstep loop.

    Problem i trains on the rows X[rows[i]] with binary targets
    targets[i] in {0, 1}, under seeds[i]; its regularization is
    lambda = 1 / (cfg.reg_c * n_i). Every epoch each model draws its own
    permutation of its n_i rows; step j then takes its minibatch j, the
    last one partial when cfg.batch_size does not divide n_i. A model whose
    epoch has no steps left waits for the others.

    A problem whose targets hold a single class is not trained: it gets a
    zero weight row and a bias of +1 or -1 toward that class. Returns, in
    problem order, the (problems x features) weights and the biases, and
    the indices of the constant problems.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim != 2:
        raise TrainingError("X must be a 2-d matrix")
    if not np.isfinite(X).all():
        raise TrainingError("non-finite feature values")
    d = X.shape[1]
    weights = np.zeros((len(rows), d))
    bias = np.zeros(len(rows))
    constant = []
    fit = []
    for i, (r, y) in enumerate(zip(rows, targets)):
        if len(r) != len(y):
            raise TrainingError("X rows must match y length")
        classes = np.unique(y)
        if classes.size >= 2:
            if np.min(r) < 0 or np.max(r) >= X.shape[0]:
                raise TrainingError("row index out of range of X")
            fit.append(i)
            continue
        bias[i] = 1.0 if classes[0] == 1 else -1.0
        constant.append(i)
    if not fit:
        return weights, bias, constant

    # models by decreasing row count, so those still in their epoch at any
    # step are a prefix [:a]
    order = sorted(fit, key=lambda i: -len(rows[i]))
    M = len(order)
    B = cfg.batch_size
    n = np.array([len(rows[i]) for i in order])
    steps = -(-n // B)
    cols = int(steps[0]) * B
    # each model's rows and +-1 targets in this epoch's order, padded to
    # `cols` with row 0 and target 0: a padding slot has margin 0 and adds
    # nothing to a gradient. Every minibatch slot is B wide, also when all
    # models have fewer rows, so no model's arithmetic depends on another's.
    index = np.int32 if X.shape[0] <= np.iinfo(np.int32).max else np.intp
    rows_e = np.zeros((M, cols), dtype=index)
    s_e = np.zeros((M, cols), dtype=np.int8)
    models = [(np.random.default_rng(seeds[i]), np.asarray(rows[i], dtype=index),
               np.where(np.asarray(targets[i]) == 1, 1, -1).astype(np.int8),
               rows_e[k, :n[k]], s_e[k, :n[k]]) for k, i in enumerate(order)]
    lam = 1.0 / (cfg.reg_c * n)
    step = np.arange(int(steps[0]))[:, None]
    # true size of each model's minibatch j: the gradient divides by it
    batch = np.minimum(B, n[None, :] - B * step)

    eta = np.empty(batch.shape)
    w = np.zeros((M, d))
    b = np.zeros(M)
    Xb = np.empty((M, B, d))  # step j's minibatch rows, in Xb[:a]
    margins = np.empty((M, B, 1))
    # step j's views: the first `a` models, those still in their epoch
    views = []
    for j in range(len(step)):
        a = int((steps > j).sum())
        slots = slice(j * B, (j + 1) * B)
        views.append((rows_e[:a, slots], s_e[:a, slots], Xb[:a], margins[:a],
                      w[:a], w[:a, :, None], b[:a], b[:a, None], lam[:a, None],
                      batch[j, :a], batch[j, :a, None], eta[j, :a], eta[j, :a, None]))
    for epoch in range(cfg.epochs):
        for rng, r, s, r_e, s_e_k in models:
            perm = rng.permutation(r.size)
            r.take(perm, out=r_e, mode="clip")
            s.take(perm, out=s_e_k, mode="clip")
        # step size of each model's minibatch j: its t-th step overall
        t = (epoch * steps + 1 + step).astype(float)
        np.divide(1.0, 1.0 + lam * t, out=eta)
        for rj, sj, xb, m3, wa, wa3, ba, ba2, la, size, size2, ej, ej2 in views:
            X.take(rj, axis=0, out=xb, mode="clip")
            np.matmul(xb, wa3, out=m3)
            m = m3[:, :, 0]
            m += ba2
            m *= sj
            # +-1 where the hinge is active, else 0 (signed, as sj * 0.0)
            viol = np.multiply(sj, m < 1.0, dtype=float)
            # at d > 1 each model's violators are summed row after row, in
            # batch order; at d = 1 einsum sums the batch axis in SIMD lanes
            hinge = np.einsum("mb,mbd->md", viol, xb)
            hinge /= size2
            grad_w = la * wa - hinge
            grad_w *= ej2
            wa -= grad_w
            grad_b = viol.sum(axis=1) / size
            grad_b *= ej
            ba += grad_b  # bit for bit b - eta * (-sum / size)

    weights[order] = w
    bias[order] = b
    return weights, bias, constant


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
    labels: np.ndarray, start: int, synth: int, extra_counts: Sequence[int], seed: int
) -> tuple[list[np.ndarray], list[np.ndarray], list[int]]:
    """Rows, targets and seeds of one cell's binary-relevance problems.

    The training matrix holds the cell's n base rows from row `start`, and
    from row `synth` extra_counts[0] synthetic rows of label 0, then those
    of label 1, and so on. Label l's model trains on the base rows and its
    own synthetic rows, which are all relevant, under a seed derived from
    (seed, l).
    """
    n, q = labels.shape
    end = max(start + n, synth + sum(extra_counts))
    index = np.int32 if end <= np.iinfo(np.int32).max else np.intp  # as fit_lockstep's
    base = np.arange(start, start + n, dtype=index)
    labels = labels.astype(np.int8)
    rows, targets, seeds = [], [], []
    offset = synth
    for l in range(q):
        k = extra_counts[l]
        rows.append(np.concatenate([base, np.arange(offset, offset + k, dtype=index)]))
        targets.append(np.concatenate([labels[:, l], np.ones(k, dtype=np.int8)]))
        seeds.append(int(np.random.SeedSequence([seed, l]).generate_state(1)[0]))
        offset += k
    return rows, targets, seeds
