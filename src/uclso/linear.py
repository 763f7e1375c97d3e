"""Linear relevance classifiers: L2-regularized hinge loss fit by
stochastic subgradient descent, one independent model per problem. Which
rows and targets make up a problem, one per label in binary relevance, is
the caller's to say (see `experiment._fit_group`).

Training is the fixed-T minibatch Pegasos update (Shalev-Shwartz, Singer
& Srebro, ICML 2007): `epochs` passes, no early stop. A model of n rows
has regularization lambda = 1 / (reg_c * n) and its t-th step has size
eta_t = 1 / (1 + lambda * t). Many independent models are fit in
lockstep, as one (models x (features + 1)) weight matrix over one shared
row matrix: each step advances every model by one minibatch of its own
rows, with its own random stream, step counter and regularization. Each
model's bias trains as column d of its weight row, under a zero weight
decay, so one update advances both. A step is 13 numpy calls over the
models still in their epoch; its hinge sum is one BLAS gemv per model
over its own batch_size rows, and its temporaries are buffers allocated
once per fit. A model's arithmetic does not depend on which other models
share its run, so fitting it alone or with any other models gives
bit-equal weights. A float32 row matrix trains in float32, at half the
bytes per step; any other trains in float64. The epoch loop has no error
path and no input scan: the rows must be finite, which
`dataset.MultiLabelDataset` guarantees, and `norm_limit` bounds the row
norms at which float32 training stays in range, which `experiment`
checks before any compute. A fit returns each model's weight row and
bias only, as float64; it computes no loss.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

F32_MAX = float(np.finfo(np.float32).max)
# the smallest reg_c: lambda = 1 / (reg_c * n) <= 1 / reg_c stays at most
# F32_MAX / 4, also when it is rounded to float32
REG_C_FLOOR = 4 / F32_MAX


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
        if self.reg_c < REG_C_FLOOR:
            raise TrainingError(
                f"reg_c must be at least {REG_C_FLOOR!r} (4 / float32's largest "
                f"value), got {self.reg_c!r}"
            )


def norm_limit(cfg: TrainConfig, rows: int) -> float:
    """The largest row norm R at which fit_lockstep on a float32 matrix
    keeps every value inside float32's range, for models of at most `rows`
    rows.

    Let F be float32's largest value, B the batch size and T = epochs *
    ceil(rows / B), the most steps a model takes. The update w <- (1 - eta
    lambda) w + eta h / size has 0 < eta lambda < 1, eta <= 1 and |h /
    size| <= R. So by induction |w| <= R / lambda = R reg_c n_i <= R reg_c
    rows, and, as each step moves w by at most eta R <= R, also |w| <= R T:
    |w| <= R min(reg_c rows, T). The bias moves by at most eta <= 1 a step,
    so |b| <= T. Every margin, and every partial sum of one, is then at
    most R^2 min(reg_c rows, T) + T, and a minibatch's hinge sum before its
    division at most B R. The limit keeps both at most F / 4, the factor 4
    covering float32's rounding. B R <= F / 4 also keeps every feature
    finite in float32, and REG_C_FLOOR keeps lambda at most F / 4.
    """
    quarter = F32_MAX / 4
    steps = cfg.epochs * -(-rows // cfg.batch_size)
    room = quarter - steps if steps < quarter else 0.0
    reach = min(cfg.reg_c * rows, steps)  # |w| <= R * reach
    return min(math.sqrt(room / reach), quarter / cfg.batch_size)


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

    A float32 X trains in float32: weights, bias, margins, violators and
    updates. Any other X is converted to float64 and trains in it. The
    step sizes are worked out in float64 and rounded to the training
    dtype once per epoch, lambda once per fit. The rows must be finite,
    and of norm at most norm_limit(cfg, max n_i), which keeps every
    float32 value finite; the loop checks neither. On run_cv's path
    MultiLabelDataset guarantees the first and check_training_range the
    second.
    """
    X = np.asarray(X)
    if X.dtype != np.float32:
        X = np.asarray(X, dtype=float)
    dtype = X.dtype
    if X.ndim != 2:
        raise TrainingError("X must be a 2-d matrix")
    d = X.shape[1]
    weights = np.zeros((len(rows), d))
    bias = np.zeros(len(rows))
    constant = []
    fit = []
    for i, (r, y) in enumerate(zip(rows, targets)):
        if len(r) != len(y):
            raise TrainingError("X rows must match y length")
        # return_counts: np.unique without it imports numpy.ma (13 ms cold)
        classes, _ = np.unique(y, return_counts=True)
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
    batch = np.minimum(B, n[None, :] - B * step).astype(dtype)

    eta = np.empty(batch.shape, dtype=dtype)
    # each model's weights, with its bias as column d
    wb = np.zeros((M, d + 1), dtype=dtype)
    # lambda in the training dtype for the weight decay, 0 for the bias
    lam_wb = np.zeros((M, d + 1), dtype=dtype)
    lam_wb[:, :d] = lam[:, None]
    # every step's temporaries, allocated once and used as their first [:a]
    Xb = np.empty((M, B, d), dtype=dtype)  # minibatch rows
    margins = np.empty((M, B, 1), dtype=dtype)
    active = np.empty((M, B), dtype=bool)  # margin < 1
    viol = np.empty((M, 1, B), dtype=dtype)  # +-1 where the hinge is active, else 0
    hinge = np.empty((M, 1, d + 1), dtype=dtype)  # violator sums, the bias's in column d
    grad = np.empty((M, d + 1), dtype=dtype)
    ones = np.ones(B, dtype=dtype)
    # step j's views: the first `a` models, those still in their epoch
    views = []
    for j in range(len(step)):
        a = int((steps > j).sum())
        slots = slice(j * B, (j + 1) * B)
        views.append((rows_e[:a, slots], s_e[:a, slots], Xb[:a], margins[:a],
                      margins[:a, :, 0], active[:a], viol[:a], viol[:a, 0],
                      hinge[:a, :, :d], hinge[:a, 0, d], hinge[:a, 0], grad[:a], wb[:a],
                      wb[:a, :d, None], wb[:a, d, None], lam_wb[:a], batch[j, :a, None],
                      eta[j, :a, None]))
    for epoch in range(cfg.epochs):
        for rng, r, s, r_e, s_e_k in models:
            perm = rng.permutation(r.size)
            r.take(perm, out=r_e, mode="clip")
            s.take(perm, out=s_e_k, mode="clip")
        # step size of each model's minibatch j: its t-th step overall
        t = (epoch * steps + 1 + step).astype(float)
        eta[:] = 1.0 / (1.0 + lam * t)
        for (rj, sj, xb, m3, m, act, vi3, vi, hw3, hb, h, g, wba, wa3, ba2, la, size,
             ej) in views:
            X.take(rj, axis=0, out=xb, mode="clip")
            np.matmul(xb, wa3, out=m3)
            m += ba2
            m *= sj
            np.less(m, 1.0, out=act)
            # signed, as sj * 0.0
            np.multiply(sj, act, out=vi, dtype=dtype)
            # each model's violators summed over its B rows: one gemv
            # per model, so no model's sum depends on another's
            np.matmul(vi3, xb, out=hw3)
            # +-1 and +-0 sum to an exact integer in any order: one gemv
            # against ones sums each model's violators for its bias
            np.matmul(vi, ones, out=hb)
            h /= size
            np.multiply(la, wba, out=g)
            g -= h
            g *= ej
            # column d is b - eta * (0 * b - x) for x = s / size and the
            # violator sum s: bit for bit b + eta * x, the Pegasos bias
            # step, as 0 * b is +-0 and +-0 - x is -x for x != 0. For x =
            # +-0 both leave b as it is, since b is never -0: it starts at
            # +0, and a difference that rounds to 0 is +0
            wba -= g

    weights[order] = wb[:, :d]
    bias[order] = wb[:, d]
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
