"""Nuisance learners and the cross-fitting driver.

Three conditional-mean functions enter the scores: the outcome regression
g(z, x) = E(Y | Z=z, X=x), the treatment regression r(z, x) = E(A | Z=z, X=x)
and the instrument propensity m(x) = P(Z=1 | X=x).  Each unit's prediction
is produced by a model fitted on the units outside its fold, and the
per-unit predictions from all folds are pooled before any moments are
taken.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import Dataset, FoldAssignment, _check_integer, _read_only, _trusted
from .errors import DegenerateDataError, DegenerateFoldError, InvalidConfigError

G_LEARNERS = ("ols_linear", "cell_mean")
R_LEARNERS = ("logistic", "cell_mean")
M_LEARNERS = ("logistic", "known_constant")

# IRLS stops after this many Newton steps or once every gradient entry
# is this small.
_IRLS_MAX_ITER = 100
_IRLS_GRAD_TOL = 1e-8


@dataclass(frozen=True)
class LearnerSpec:
    """Configuration of the nuisance learners and the cross-fitting split.

    ``m_value`` is used only with ``m_learner="known_constant"``.
    """

    g_learner: str = "ols_linear"
    r_learner: str = "logistic"
    m_learner: str = "logistic"
    m_value: float = 0.5
    K: int = 5
    clip_eps: float = 0.01

    def __post_init__(self) -> None:
        if self.g_learner not in G_LEARNERS:
            raise InvalidConfigError(f"unknown g learner {self.g_learner!r}")
        if self.r_learner not in R_LEARNERS:
            raise InvalidConfigError(f"unknown r learner {self.r_learner!r}")
        if self.m_learner not in M_LEARNERS:
            raise InvalidConfigError(f"unknown m learner {self.m_learner!r}")
        if not 0.0 < self.clip_eps < 0.5:
            raise InvalidConfigError(f"clip_eps must lie in (0, 0.5), got {self.clip_eps}")
        _check_integer(self.K, "fold count", least=2)
        if self.m_learner == "known_constant" and not 0.0 < self.m_value < 1.0:
            raise InvalidConfigError(f"known propensity must lie in (0, 1), got {self.m_value}")


@dataclass(frozen=True)
class NuisancePredictions:
    """Pooled out-of-fold predictions for every unit.

    g1/g0 are outcome predictions at z=1/z=0, r1/r0 the treatment
    probabilities at z=1/z=0, and m1 the (clipped) probability of z=1.
    Each is a read-only view of its input, which it shares memory with
    where no cast is needed.  A known propensity from ``cross_fit`` is one
    number: its m1 is a stride-0 view of it, n entries long.
    """

    g1: np.ndarray
    g0: np.ndarray
    r1: np.ndarray
    r0: np.ndarray
    m1: np.ndarray

    def __post_init__(self) -> None:
        if np.ndim(self.g1) != 1:
            raise InvalidConfigError(f"g1 has shape {np.shape(self.g1)}, expected a 1-d array")
        n = np.shape(self.g1)[0]
        for name in ("g1", "g0", "r1", "r0", "m1"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (n,):
                raise InvalidConfigError(f"{name} has shape {arr.shape}, expected ({n},)")
            if not np.all(np.isfinite(arr)):
                raise InvalidConfigError(f"{name} contains non-finite predictions")
            object.__setattr__(self, name, _read_only(arr))
        for name in ("r1", "r0"):
            arr = getattr(self, name)
            if arr.min() < 0.0 or arr.max() > 1.0:
                raise InvalidConfigError(f"{name} has entries outside [0, 1]")
        if self.m1.min() <= 0.0 or self.m1.max() >= 1.0:
            raise InvalidConfigError("m1 has entries outside (0, 1)")

    @property
    def n(self) -> int:
        return self.g1.shape[0]


def _sigmoid_inplace(t: np.ndarray, scratch: np.ndarray) -> np.ndarray:
    """Overwrite the float array t with the logistic function of t and
    return it; ``scratch``, of t's shape, is overwritten too."""
    # exp(-|t|) never overflows: 1/(1+e) for t >= 0 and e/(1+e) below.
    np.abs(t, out=scratch)
    np.negative(scratch, out=scratch)
    np.exp(scratch, out=scratch)
    positive = t >= 0
    np.add(scratch, 1.0, out=t)
    # e <= 1 where t >= 0, so max(e, 1{t >= 0}) is the numerator, 1 or e;
    # it takes a fraction of the time of a masked select.
    np.maximum(scratch, positive, out=scratch)
    return np.divide(scratch, t, out=t)


@dataclass(frozen=True)
class LinearModel:
    """Least-squares coefficients, intercept first; ``ridge_fallback`` marks
    a rank-deficient design."""

    beta: np.ndarray
    ridge_fallback: bool = False


def fit_ols(design: np.ndarray, targets: np.ndarray) -> LinearModel:
    """Fit least squares, intercept in column 0 of ``design``, via the normal equations.

    A rank-deficient Gram matrix gets the ridge 1e-8 * max(trace, 1)/dim and
    the fallback flag, so degenerate folds cannot crash a Monte Carlo run.
    The floor of 1 acts only without the intercept's ones, as on a zero design.
    A Gram matrix that overflows gives NaN coefficients: LAPACK, asked for
    its rank, would print to standard output.
    """
    targets = np.asarray(targets, dtype=float)
    design = np.asarray(design, dtype=float)
    if design.shape[0] < 1:
        raise InvalidConfigError("fit_ols needs at least one row")
    gram = design.T @ design
    moment = design.T @ targets
    d = gram.shape[0]
    if not np.isfinite(gram).all():
        return LinearModel(beta=np.full(d, math.nan))
    fallback = np.linalg.matrix_rank(gram) < d
    if fallback:
        gram = gram + (1e-8 * max(np.trace(gram), 1.0) / d) * np.eye(d)
    return LinearModel(beta=np.linalg.solve(gram, moment), ridge_fallback=fallback)


@dataclass(frozen=True)
class LogisticModel:
    """Logistic coefficients, intercept first.

    ``warning`` marks an untrustworthy likelihood optimum: either IRLS
    hit its iteration cap or the fitted linear predictor saturated (the
    perfect-separation signature, where the MLE does not exist).
    Predictions are clipped away from exact 0/1 either way.
    """

    beta: np.ndarray
    converged: bool = True
    warning: bool = False


def fit_logistic(design: np.ndarray, labels: np.ndarray) -> LogisticModel:
    """Maximum-likelihood logistic regression of 0/1 labels via IRLS.

    Column 0 of ``design`` must be the intercept's ones: labels of a single
    class yield the MLE's limit, an infinite coefficient there of the
    class's sign and zero slopes.  Under perfect separation the iteration
    cap stops the divergence and the model is returned with ``converged=False``.
    A step that leaves a NaN coefficient, as an overflowing Hessian does,
    ends the fit at once with all-NaN coefficients and ``converged=False``.
    """
    labels = np.asarray(labels, dtype=float)
    design = np.asarray(design, dtype=float)
    n, d = design.shape
    beta = np.zeros(d)
    if labels.min() == labels.max():
        beta[0] = math.inf if labels[0] else -math.inf
        return LogisticModel(beta=beta)
    # p holds the probabilities, w the residuals and then the weights; both
    # are reused as scratch, so no step builds an n-by-d temporary.
    p, w = np.empty(n), np.empty(n)
    hess = np.empty((d, d))
    converged = False
    for _ in range(_IRLS_MAX_ITER):
        _sigmoid_inplace(np.dot(design, beta, out=p), w)
        np.clip(p, 1e-10, 1.0 - 1e-10, out=p)
        grad = design.T @ np.subtract(labels, p, out=w) / n
        if np.max(np.abs(grad)) <= _IRLS_GRAD_TOL:
            converged = True
            break
        np.subtract(1.0, p, out=w)
        w *= p
        # The Hessian's upper triangle, a row at a time from the weighted
        # column j; the lower triangle is its mirror image.  Column 0 is the
        # ones, whose weighted column is w itself.
        hess[0] = design.T @ w
        hess[:, 0] = hess[0]
        for j in range(1, d):
            hess[j, j:] = design[:, j:].T @ np.multiply(design[:, j], w, out=p)
            hess[j:, j] = hess[j, j:]
        hess /= n
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            hess = hess + (1e-10 * max(np.trace(hess), 1.0) / d) * np.eye(d)
            step = np.linalg.solve(hess, grad)
        beta = beta + step
        if np.isnan(beta).any():
            # Every later probability and gradient would be NaN as well.
            beta = np.full(d, math.nan)
            break
    saturated = bool(np.max(np.abs(np.dot(design, beta, out=p), out=p)) > 30.0)
    return LogisticModel(beta=beta, converged=converged, warning=(not converged) or saturated)


def _predict(model, block: np.ndarray) -> np.ndarray:
    """The fitted values block @ beta at the rows of the design ``block``;
    a logistic model's go through the sigmoid and are clipped to
    [1e-12, 1 - 1e-12], so an infinite intercept gives one of those ends."""
    t = block @ model.beta
    if isinstance(model, LinearModel):
        return t
    return np.clip(_sigmoid_inplace(t, np.empty_like(t)), 1e-12, 1.0 - 1e-12, out=t)


def fit_cell_mean(sums: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Means of a 2x2 table indexed [z, 1{x1 > 0}], given its sums and counts.

    A cell without units takes the marginal mean of the whole table.  The
    means are exactly correct for data whose conditional means depend on
    the covariates only through the sign of the first one.
    """
    # On the table's four Python floats; cross_fit calls this once per fold
    # and target.  Each total is np.add.reduce's sum of four elements: from
    # 0.0, left to right.
    (s00, s01), (s10, s11) = np.asarray(sums, dtype=float).tolist()
    (c00, c01), (c10, c11) = np.asarray(counts, dtype=float).tolist()
    total = 0.0 + c00 + c01 + c10 + c11
    if total < 1:
        raise InvalidConfigError("fit_cell_mean needs a non-empty table")
    fill = (0.0 + s00 + s01 + s10 + s11) / total
    return np.array([
        [s00 / c00 if c00 > 0 else fill, s01 / c01 if c01 > 0 else fill],
        [s10 / c10 if c10 > 0 else fill, s11 / c11 if c11 > 0 else fill],
    ])


def _cell_mean_predictions(folds, key, counts, targets):
    """Cross-fitted cell means of each target, predicted at z=1 and z=0.

    ``key`` numbers each unit's (fold, z, 1{x1 > 0}) cell as 4*fold +
    2*z + 1{x1 > 0}, and ``counts`` holds the units per cell in that order.
    ``targets`` maps a name to per-unit values.  One pass per target
    tabulates each fold's target sums per (z, 1{x1 > 0}) cell.  Fold k is
    fitted on the sum of the other folds' tables, added in fold order: the
    total minus fold k could cancel in a small cell.  Returns one (pred at
    z=1, pred at z=0) pair per target.
    """
    K, T = folds.K, len(targets)
    sums = [np.bincount(key, weights=w, minlength=4 * K) for w in targets.values()]
    # [counts or target sums, fold, z, pos]
    tables = np.stack([counts.reshape(-1), *sums]).reshape(-1, K, 2, 2)
    train = np.zeros((K, T + 1, 2, 2))  # [fold, counts or target sums, z, pos]
    others = ~np.eye(K, dtype=bool)[:, :, None, None, None]
    for j in range(K):
        np.add(train, tables[:, j], out=train, where=others[:, j])
    means = np.empty((T, 2, K, 2))  # [target, z, fold, pos]
    for k in range(K):
        for t in range(T):
            means[t, :, k] = fit_cell_mean(train[k, t + 1], train[k, 0])
    # Spread over the unit's own z, which a prediction does not depend on,
    # so that a unit reads its predictions at its key.
    means = np.repeat(means.reshape(2 * T, K, 1, 2), 2, axis=2).reshape(2 * T, 4 * K)
    preds = [row.take(key) for row in means]
    return [(preds[2 * t + 1], preds[2 * t]) for t in range(T)]


def _gather(out, values, parts):
    """Write the rows of ``values`` at the index arrays ``parts``, one after
    another, into the start of ``out``; returns the part written."""
    start = 0
    for part in parts:
        out[start : start + part.size] = np.take(values, part, axis=0)
        start += part.size
    return out[:start]


def _design(buffer, parts, x, z=None):
    """The design [1, x], or [1, z, x] given z, at the rows ``parts``,
    gathered into the start of the flat float ``buffer`` as a contiguous
    column-major view."""
    rows = sum(part.size for part in parts)
    j = 1 if z is None else 2
    d = j + x.shape[1]
    design = buffer[: rows * d].reshape((rows, d), order="F")
    design[:, 0] = 1.0
    if z is not None:
        _gather(design[:, 1], z, parts)
    _gather(design[:, j:], x, parts)
    return design


# Fits that overflow are reported once, as non-finite predictions, not warned of.
@np.errstate(over="ignore", invalid="ignore")
def cross_fit(data: Dataset, spec: LearnerSpec, folds: FoldAssignment) -> NuisancePredictions:
    """Produce out-of-fold nuisance predictions for every unit.

    For each fold the learners are fitted on its complement and used to
    predict inside the fold; g and r are predicted at both instrument
    levels by switching the z feature (or cell).  Cell means are read from
    per-fold sums.  OLS and logistic fits take two passes over the folds:
    every fold is fitted before any is predicted, and the training designs
    are freed before the predictions are allocated.  In the
    known-propensity mode m1 is a read-only stride-0 view of the one
    clipped value, with no fitting.  All propensities are clipped to
    [clip_eps, 1 - clip_eps].  The per-unit predictions are checked once,
    in the order g1, g0, r1, r0, m1: non-finite ones, which finite data
    gives only by overflow, raise :class:`DegenerateDataError`.
    """
    if folds.n != data.n:
        raise InvalidConfigError(f"folds cover {folds.n} units but the data has {data.n}")
    if data.p == 0 and "cell_mean" in (spec.g_learner, spec.r_learner):
        raise InvalidConfigError("cell-mean learners split on the first covariate; the data has none")
    n = data.n
    if spec.m_learner == "known_constant":
        m1 = np.broadcast_to(float(min(max(spec.m_value, spec.clip_eps), 1.0 - spec.clip_eps)), (n,))

    learners = {"g": (spec.g_learner, data.y), "r": (spec.r_learner, data.a)}
    cell = {name: target for name, (learner, target) in learners.items() if learner == "cell_mean"}
    # The units per (fold, z, 1{x1 > 0}), the last only for cell means, whose
    # count table it is; summed over it, the units per (fold, z).
    key = folds.fold_of * 4
    key += 2 * data.z
    if cell:
        key += data.x[:, 0] > 0
    counts = np.bincount(key, minlength=4 * folds.K).reshape(folds.K, 2, 2)
    z_counts = counts.sum(axis=-1)
    z_train = z_counts.sum(axis=0) - z_counts  # integer counts: subtraction is exact
    degenerate = np.flatnonzero(z_train.min(axis=1) == 0)
    if degenerate.size:
        k = int(degenerate[0])
        raise DegenerateFoldError(
            f"training complement of fold {k} contains only instrument level {int(z_train[k, 1] > 0)}"
        )

    preds = {}  # name -> (prediction at z=1, prediction at z=0)
    if cell:
        preds.update(zip(cell, _cell_mean_predictions(folds, key, counts, cell)))
    del key  # n int64s, which the regression fits below do not read
    per_fold = [name for name in learners if name not in preds]
    if per_fold or spec.m_learner == "logistic":
        # Units sorted by fold, stably: fold k's test units are one slice of
        # ``order`` and its training units the two slices around it.  Two
        # passes over the folds.  The fit pass gathers each training design
        # into the start of one buffer, sized for the largest training
        # complement, as a contiguous column-major view: a row slice of a
        # larger array would have another column stride, which BLAS rounds
        # differently.  Per fold, g and r fit on [1, z, x], then the
        # propensity on [1, x] with z as its labels; only the models are
        # kept.  The buffer and the label vector are freed before the
        # predict pass allocates the outputs and a buffer sized for the
        # largest fold, which takes each fold's test units' [1, x] and then
        # [1, z, x], the latter predicted at z=1 and at z=0 by overwriting
        # its z column.  A key of 16 bits or fewer takes numpy's radix
        # sort, not timsort.
        order = np.argsort(folds.fold_of.astype(np.min_scalar_type(folds.K - 1)), kind="stable")
        sizes = z_counts.sum(axis=1)
        ends = np.cumsum(sizes).tolist()
        spans = list(zip([0, *ends], ends))
        size = n - int(sizes.min())
        buffer, labels = np.empty(size * (2 + data.p)), np.empty(size)
        fitted = []  # per fold: the g and r models by name, and the propensity's
        for lo, hi in spans:
            train = (order[:lo], order[hi:])
            features = _design(buffer, train, data.x, data.z)
            models = {}
            for name in per_fold:
                learner, target = learners[name]
                fit = fit_ols if learner == "ols_linear" else fit_logistic
                models[name] = fit(features, _gather(labels, target, train))
            m_model = None
            if spec.m_learner == "logistic":
                m_model = fit_logistic(_design(buffer, train, data.x), _gather(labels, data.z, train))
            fitted.append((models, m_model))
        del buffer, labels, features  # a view left bound would keep the buffer

        for name in per_fold:
            preds[name] = (np.empty(n), np.empty(n))
        if spec.m_learner == "logistic":
            m1 = np.empty(n)
        buffer = np.empty(int(sizes.max()) * (2 + data.p))
        for (lo, hi), (models, m_model) in zip(spans, fitted):
            test = order[lo:hi]
            if m_model is not None:
                m1[test] = _predict(m_model, _design(buffer, (test,), data.x))
            block = _design(buffer, (test,), data.x, data.z)
            for column, z_level in enumerate((1.0, 0.0)):
                block[:, 1] = z_level
                for name, model in models.items():
                    preds[name][column][test] = _predict(model, block)

    (g1, g0), (r1, r0) = preds["g"], preds["r"]
    if spec.m_learner == "logistic":
        np.clip(m1, spec.clip_eps, 1.0 - spec.clip_eps, out=m1)
    # Cell means of a 0/1 treatment lie in [0, 1], and logistic fits and
    # every m1 are clipped, so only overflow can make a prediction unusable.
    # A cell that no unit reads is never checked.
    for name, pred in zip(("g1", "g0", "r1", "r0", "m1"), (g1, g0, r1, r0, m1)):
        if not np.isfinite(pred).all():
            raise DegenerateDataError(f"{name} contains non-finite predictions")
    return _trusted(NuisancePredictions, g1=g1, g0=g0, r1=r1, r0=r0, m1=m1)
