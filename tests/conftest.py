import csv
import math
import sys
from contextlib import contextmanager
from typing import NamedTuple

import numpy as np
import pytest

from latescore import (
    ConfidenceSet,
    Dataset,
    DegenerateDataError,
    DegenerateFoldError,
    FoldAssignment,
    InvalidConfigError,
    NuisancePredictions,
    ReplicationResult,
    ScoreSample,
    drml_estimate,
    invert_score_test,
    quad_coefficients,
)
from latescore.inference import _z_crit
from latescore.nuisance import _cell_mean_predictions, _sigmoid_inplace
from latescore.simulation import _draw, _splitmix64, aggregate, replication_seed
from latescore.weakiv import sample_bivariate_normal


def reference_draw(params, rng, size):
    """The law's per-unit draw as it was written before the oracle cell
    table: (x, z, a, y) with z an int array and a a float array."""
    u = rng.standard_normal(size)
    x = rng.standard_normal(size)
    z = (rng.random(size) < 0.5).astype(int)
    a = (params.pi * z * (x > 0) + u > 0).astype(float)
    y = 2.0 * np.sign(u) + params.treatment_shift * a
    return x, z, a, y


def reference_oracle_scores(params, rng, size):
    """The per-unit oracle score formula that the cell table replaced,
    kept as the reference: (psi_a, psi_b, r1 - r0, g1 - g0)."""
    x, z, a, y = reference_draw(params, rng, size)
    pos = x > 0
    phi_pi = 0.5 * math.erfc(-params.pi / math.sqrt(2.0))
    r1 = np.where(pos, phi_pi, 0.5)
    r0 = 0.5
    g1 = params.treatment_shift * r1
    g0 = params.treatment_shift * r0
    sign = 2.0 * z - 1.0
    r_z = np.where(z == 1, r1, r0)
    g_z = np.where(z == 1, g1, g0)
    psi_a = sign / 0.5 * (a - r_z) + r1 - r0
    psi_b = sign / 0.5 * (y - g_z) + g1 - g0
    return psi_a, psi_b, r1 - r0, g1 - g0


def reference_draw_oracle_cells(params, rng, size):
    """The oracle cell draw that the block reader replaced: the law's full
    float arrays from _draw, then the cell formula on them."""
    x, z, a, u = _draw(params, rng, size)
    return np.uint8(12) * z + np.uint8(6) * (x > 0) + np.uint8(3) * a + (u > 0) + (u >= 0)


@pytest.fixture(scope="session")
def reference_oracle():
    return reference_oracle_scores


@pytest.fixture(scope="session")
def reference_oracle_cells():
    return reference_draw_oracle_cells


@pytest.fixture(scope="session")
def reference_dgp():
    return reference_draw


# The per-line CSV loops that the block writer replaced, kept as the
# references its output must equal byte for byte.


def reference_write_draws(handle, draws):
    """weakiv-limit's draw rows: one write per draw."""
    for v in draws:
        handle.write(f"{float(v)!r}\n")


def reference_write_scores(handle, psi_a, psi_b):
    """scan --dump-scores's rows: one write per unit."""
    for va, vb in zip(psi_a, psi_b):
        handle.write(f"{float(va)!r},{float(vb)!r}\n")


def reference_write_csv(data, path, schema):
    """write_csv: one csv.writer row per unit, header included."""
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow([schema.outcome, schema.treatment, schema.instrument, *schema.covariates])
        for i in range(data.n):
            writer.writerow(
                [
                    repr(float(data.y[i])),
                    int(data.a[i]),
                    int(data.z[i]),
                    *(repr(float(v)) for v in data.x[i]),
                ]
            )


@pytest.fixture(scope="session")
def reference_writers():
    return reference_write_draws, reference_write_scores, reference_write_csv


def reference_write_rows(handle, *columns, block=1 << 14):
    """The block writer as it was before it filled one ``%s`` template a
    block: each row's cells through ``str`` and ``",".join``, and the rows
    through ``"\\n".join``, with a single column written without the join."""
    for start in range(0, len(columns[0]) if columns else 0, block):
        blocks = [c[start : start + block] for c in columns]
        cells = [map(str, b.tolist() if isinstance(b, np.ndarray) else b) for b in blocks]
        lines = cells[0] if len(cells) == 1 else map(",".join, zip(*cells))
        handle.write("\n".join(lines) + "\n")


@pytest.fixture(scope="session")
def reference_join_writer():
    return reference_write_rows


def reference_sample_weak_limit(cfg, rng, size):
    """The one-shot limit sampler that the block sampler replaced: all
    pairs at once, then the zero-denominator redraws in index order."""
    na, nb = sample_bivariate_normal(cfg.sigma_ab, rng, size=size)
    num = cfg.c_a * nb - cfg.c_b * na
    den = cfg.c_a * cfg.c_a + cfg.c_a * na
    bad = den == 0.0
    while np.any(bad):
        na2, nb2 = sample_bivariate_normal(cfg.sigma_ab, rng, size=int(bad.sum()))
        num[bad] = cfg.c_a * nb2 - cfg.c_b * na2
        den[bad] = cfg.c_a * cfg.c_a + cfg.c_a * na2
        bad = den == 0.0
    return num / den


@pytest.fixture(scope="session")
def reference_weak_limit():
    return reference_sample_weak_limit


# The f-string row loops that the replication, summary and analyze writers
# used before they went through the block writer, kept as references.


def reference_write_replications_csv(cells, path):
    with open(path, "w", newline="") as handle:
        handle.write("setting,n,rep_id,covered_score,covered_wald,diam_score,diam_wald,set_tag,dn0,phi_hat\n")
        for cell in cells:
            for r in cell.results:
                handle.write(
                    f"{cell.setting},{cell.n},{r.rep_id},{int(r.covered_score)},"
                    f"{int(r.covered_wald)},{r.diam_score!r},{r.diam_wald!r},"
                    f"{r.set_tag},{r.dn0!r},{r.phi_hat!r}\n"
                )


def reference_write_summary_csv(cells, path):
    with open(path, "w", newline="") as handle:
        handle.write(
            "setting,n,coverage_score,coverage_wald,se_score,se_wald,"
            "median_diam_score,median_diam_wald,frac_infinite,median_ratio\n"
        )
        for cell in cells:
            s = aggregate(cell.results)
            handle.write(
                f"{cell.setting},{cell.n},{s.coverage_score!r},{s.coverage_wald!r},"
                f"{s.se_score!r},{s.se_wald!r},{s.median_diam_score!r},"
                f"{s.median_diam_wald!r},{s.frac_infinite!r},{s.median_ratio!r}\n"
            )


def reference_write_analysis(path, n, alpha, drml, cset, dn0, weak, coeffs, tol_a, tol_delta, diam_s, diam_w, ratio):
    """analyze --out's header and one row."""
    e = cset.endpoints()
    e1 = repr(e[0]) if len(e) > 0 else ""
    e2 = repr(e[1]) if len(e) > 1 else ""
    with open(path, "w", newline="") as handle:
        handle.write(
            "n,alpha,phi_hat,sigma2_hat,wald_lo,wald_hi,set_tag,set_e1,set_e2,"
            "dn0,weak_instrument,a,b,c,delta,zero_tol_a,zero_tol_delta,"
            "diam_score,diam_wald,diam_ratio\n"
        )
        handle.write(
            f"{n},{alpha!r},{drml.phi_hat!r},{drml.sigma2_hat!r},"
            f"{drml.wald_lo!r},{drml.wald_hi!r},{cset.tag},{e1},{e2},"
            f"{dn0!r},{int(weak)},{coeffs.a!r},{coeffs.b!r},{coeffs.c!r},"
            f"{coeffs.delta!r},{tol_a!r},{tol_delta!r},"
            f"{diam_s!r},{diam_w!r},{ratio!r}\n"
        )


@pytest.fixture(scope="session")
def reference_row_writers():
    return reference_write_replications_csv, reference_write_summary_csv, reference_write_analysis


def reference_write_scan_rows(theta, s, by_quad, by_stat, defined):
    """scan's grid rows as its per-row f-string wrote them: theta, S_n, the
    quadratic's membership and, where S_n is defined, the statistic's."""
    rows = zip(theta.tolist(), s.tolist(), by_quad.tolist(), by_stat.tolist(), defined.tolist())
    return "".join(f"{t!r},{v!r},{int(q)},{int(b) if d else ''}\n" for t, v, q, b, d in rows)


@pytest.fixture(scope="session")
def reference_scan_rows():
    return reference_write_scan_rows


def ks_distance(sample1, sample2):
    """Two-sample Kolmogorov-Smirnov statistic sup |F1 - F2|."""
    s1 = np.sort(np.asarray(sample1, dtype=float))
    s2 = np.sort(np.asarray(sample2, dtype=float))
    if s1.size == 0 or s2.size == 0:
        raise InvalidConfigError("both samples must be non-empty")
    merged = np.concatenate([s1, s2])
    cdf1 = np.searchsorted(s1, merged, side="right") / s1.size
    cdf2 = np.searchsorted(s2, merged, side="right") / s2.size
    return float(np.max(np.abs(cdf1 - cdf2)))


def iv_data(n, seed):
    """n rows with an endogenous treatment and two covariates, as the
    benchmark draws them: x1, x2, u, e ~ N(0, 1) and z ~ Bernoulli(0.5),
    a = 1{-0.2 + z + 0.5*x1 + u > 0} and y = a + 0.5*x1 - 0.25*x2 + u + e."""
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.standard_normal((n, 2))
    z = (rng.random(n) < 0.5).astype(int)
    u = rng.standard_normal(n)
    a = (-0.2 + z + 0.5 * x[:, 0] + u > 0).astype(int)
    y = a + 0.5 * x[:, 0] - 0.25 * x[:, 1] + u + rng.standard_normal(n)
    return Dataset(y=y, a=a, z=z, x=x)


# The score quadratic as it was before its record carried the zero bands:
# the record kept the scales a and delta cancel at and the all-zero flag,
# and zero_tolerances turned the scales into the bands.  Kept as the
# reference the record's bands are compared against, and to give
# reference_invert_score_test the records it reads.
ZERO_TOL = 1e-12
DELTA_ROUNDING = 64 * sys.float_info.epsilon


class ReferenceQuadCoefficients(NamedTuple):
    a: float
    b: float
    c: float
    delta: float
    z_crit: float
    a_scale: float = 1.0
    delta_scale: float = 0.0
    degenerate: bool = False
    ma: float | None = None
    mb: float | None = None
    dn0: float | None = None


def reference_quad_coefficients(scores, alpha):
    z = _z_crit(alpha)
    n = scores.n
    if n < 2:
        raise InvalidConfigError(f"need at least 2 score pairs, got {n}")
    z2 = z * z
    ma, mb, maa, mbb, mab = scores.moments()
    a = n * ma * ma - z2 * maa
    b = -2.0 * n * ma * mb + 2.0 * z2 * mab
    c = n * mb * mb - z2 * mbb
    delta = b * b - 4.0 * a * c
    a_scale = max(n * ma * ma, z2 * maa)
    b_scale = 2.0 * max(abs(n * ma * mb), abs(z2 * mab))
    c_scale = max(n * mb * mb, z2 * mbb)
    delta_scale = max(abs(b) * b_scale, 4.0 * abs(a) * c_scale, 4.0 * abs(c) * a_scale)
    if not (math.isfinite(delta) and math.isfinite(delta_scale)):
        raise DegenerateDataError("the quadratic's coefficients overflow double precision")
    products = (
        (a_scale, ma != 0.0 or maa != 0.0 or scores.psi_a.any()),
        (b_scale, (ma != 0.0 and mb != 0.0) or mab != 0.0),
        (c_scale, mb != 0.0 or mbb != 0.0 or scores.psi_b.any()),
        (max(b * b, 4.0 * abs(a * c)), b != 0.0 or (a != 0.0 and c != 0.0)),
    )
    if any(nonzero and larger < sys.float_info.min for larger, nonzero in products):
        raise DegenerateDataError("the quadratic's coefficients underflow double precision")
    return ReferenceQuadCoefficients(
        a=a,
        b=b,
        c=c,
        delta=delta,
        z_crit=z,
        a_scale=a_scale,
        delta_scale=delta_scale,
        degenerate=(maa == 0.0 and mbb == 0.0),
        ma=ma,
        mb=mb,
        dn0=n * ma * ma / maa if ma != 0.0 else 0.0,
    )


def zero_tolerances(coeffs):
    tol_a = ZERO_TOL * coeffs.a_scale
    tol_delta = max(
        ZERO_TOL * max(coeffs.b * coeffs.b, 4.0 * abs(coeffs.a * coeffs.c)),
        DELTA_ROUNDING * coeffs.delta_scale,
    )
    return tol_a, tol_delta


# invert_score_test as it was before each verdict had one exit: two
# `c <= 0` rules and two ways to the empty set, one of which gives an
# empty set from scores that the ratio estimate mb/ma satisfies.
# Kept as the reference the current case analysis is compared against.
_REFERENCE_EMPTY = ConfidenceSet("empty", math.inf, -math.inf)
_REFERENCE_WHOLE_LINE = ConfidenceSet("whole_line")


def reference_invert_score_test(coeffs):
    if coeffs.degenerate:
        raise DegenerateDataError("both score vectors are identically zero")
    a, b, c, delta = coeffs.a, coeffs.b, coeffs.c, coeffs.delta
    tol_a, tol_delta = zero_tolerances(coeffs)
    a_zero = abs(a) <= tol_a
    delta_zero = abs(delta) <= tol_delta

    if a_zero and delta_zero:
        return _REFERENCE_WHOLE_LINE if c <= 0.0 else _REFERENCE_EMPTY
    if a_zero:
        if b > 0.0:
            return ConfidenceSet("left_ray", hi=-c / b)
        if b < 0.0:
            return ConfidenceSet("right_ray", lo=-c / b)
        # b is exactly zero yet delta escaped the band: a and b are both
        # negligible, so the inequality reduces to c <= 0.
        return _REFERENCE_WHOLE_LINE if c <= 0.0 else _REFERENCE_EMPTY
    if delta_zero:
        if a > 0.0:
            vertex = -b / (2.0 * a) if coeffs.ma is None else coeffs.mb / coeffs.ma
            return ConfidenceSet("point", vertex, vertex)
        return _REFERENCE_WHOLE_LINE
    if delta > 0.0:
        root = math.sqrt(delta)
        r1 = (-b - root) / (2.0 * a)
        r2 = (-b + root) / (2.0 * a)
        if a > 0.0:
            return ConfidenceSet("finite_interval", r1, r2)
        return ConfidenceSet("two_rays", r2, r1)
    return _REFERENCE_EMPTY if a > 0.0 else _REFERENCE_WHOLE_LINE


@pytest.fixture(scope="session")
def reference_inversion():
    return reference_invert_score_test


# The regression half of cross_fit as it was before the fitters shared one
# column-major design per fold: per-learner column_stack features, a C-order
# design per fit, and the IRLS Hessian as design.T @ (design * w[:, None]).
# Kept as the reference the current code is compared against.


def _reference_design(features):
    features = np.asarray(features, dtype=float)
    return np.column_stack([np.ones(features.shape[0]), features])


def _reference_sigmoid(t):
    e = np.exp(-np.abs(t))
    return np.where(t >= 0, 1.0, e) / (1.0 + e)


def reference_fit_ols(features, targets):
    """(predict, ridge_fallback) of the old normal-equations fit."""
    targets = np.asarray(targets, dtype=float)
    design = _reference_design(features)
    gram = design.T @ design
    moment = design.T @ targets
    d = gram.shape[0]
    fallback = np.linalg.matrix_rank(gram) < d
    if fallback:
        gram = gram + (1e-8 * np.trace(gram) / d) * np.eye(d)
    try:
        coef = np.linalg.solve(gram, moment)
    except np.linalg.LinAlgError:
        fallback = True
        gram = gram + (1e-8 * max(np.trace(gram), 1.0) / d) * np.eye(d)
        coef = np.linalg.solve(gram, moment)
    return (lambda f: float(coef[0]) + np.asarray(f, dtype=float) @ coef[1:]), bool(fallback)


def reference_fit_logistic(features, labels):
    """(predict_proba, (constant model, converged, warning)) of the old IRLS."""
    labels = np.asarray(labels, dtype=float)
    design = _reference_design(features)
    n, d = design.shape
    if labels.min() == labels.max():
        constant = float(labels[0])
        predict = lambda f: np.clip(np.full(f.shape[0], constant), 1e-12, 1.0 - 1e-12)
        return predict, (True, True, False)
    beta = np.zeros(d)
    converged = False
    for _ in range(100):
        p = _reference_sigmoid(design @ beta)
        p = np.clip(p, 1e-10, 1.0 - 1e-10)
        grad = design.T @ (labels - p) / n
        if np.max(np.abs(grad)) <= 1e-8:
            converged = True
            break
        w = p * (1.0 - p)
        hess = design.T @ (design * w[:, None]) / n
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            hess = hess + (1e-10 * max(np.trace(hess), 1.0) / d) * np.eye(d)
            step = np.linalg.solve(hess, grad)
        beta = beta + step
    saturated = bool(np.max(np.abs(design @ beta)) > 30.0)
    intercept, slopes = float(beta[0]), beta[1:]

    def predict(f):
        p = _reference_sigmoid(intercept + np.asarray(f, dtype=float) @ slopes)
        return np.clip(p, 1e-12, 1.0 - 1e-12)

    return predict, (False, converged, (not converged) or saturated)


def reference_regression_cross_fit(data, spec, folds):
    """Out-of-fold g1, g0, r1, r0 and clipped m1 from the old per-fold loop
    with OLS g, logistic r and known or logistic m, and each fit's flags in
    call order (g, r, then m per fold)."""
    n = data.n
    out = {name: np.empty(n) for name in ("g1", "g0", "r1", "r0")}
    out["m1"] = np.full(n, spec.m_value)
    flags = []
    for k in range(folds.K):
        train, test = np.flatnonzero(folds.fold_of != k), np.flatnonzero(folds.fold_of == k)
        features = np.column_stack([data.z[train], data.x[train]])
        x_test = data.x[test]
        ones = np.ones(x_test.shape[0])
        at_one, at_zero = np.column_stack([ones, x_test]), np.column_stack([0.0 * ones, x_test])
        predict, fallback = reference_fit_ols(features, data.y[train])
        flags.append(("ols", fallback))
        out["g1"][test], out["g0"][test] = predict(at_one), predict(at_zero)
        predict, state = reference_fit_logistic(features, data.a[train])
        flags.append(("logistic", state))
        out["r1"][test], out["r0"][test] = predict(at_one), predict(at_zero)
        if spec.m_learner == "logistic":
            predict, state = reference_fit_logistic(data.x[train], data.z[train])
            flags.append(("logistic", state))
            out["m1"][test] = predict(x_test)
    out["m1"] = np.clip(out["m1"], spec.clip_eps, 1.0 - spec.clip_eps)
    return out, flags


@pytest.fixture(scope="session")
def reference_regression():
    return reference_regression_cross_fit


# cross_fit as it was before each fold gathered its training design into one
# reused buffer: the units sorted by fold into one column-major [1, z, x]
# design, each fold's training rows one np.concatenate of the two slices
# around its test slice, the propensity's design an np.delete of column 1, and
# the IRLS Hessian's row 0 from the weighted ones column.  Kept as the
# reference the current code must equal byte for byte.


def _sorted_fit_ols(design, targets):
    gram = design.T @ design
    moment = design.T @ targets
    d = gram.shape[0]
    fallback = np.linalg.matrix_rank(gram) < d
    if fallback:
        gram = gram + (1e-8 * np.trace(gram) / d) * np.eye(d)
    try:
        coef = np.linalg.solve(gram, moment)
    except np.linalg.LinAlgError:
        fallback = True
        gram = gram + (1e-8 * max(np.trace(gram), 1.0) / d) * np.eye(d)
        coef = np.linalg.solve(gram, moment)
    return coef, ("ols", bool(fallback))


def _sorted_fit_logistic(design, labels):
    labels = np.asarray(labels, dtype=float)
    n, d = design.shape
    beta = np.zeros(d)
    if labels.min() == labels.max():
        beta[0] = math.inf if labels[0] else -math.inf
        return beta, ("logistic", (True, True, False))
    p, w = np.empty(n), np.empty(n)
    hess = np.empty((d, d))
    converged = False
    for _ in range(100):
        _sigmoid_inplace(np.dot(design, beta, out=p), w)
        np.clip(p, 1e-10, 1.0 - 1e-10, out=p)
        grad = design.T @ np.subtract(labels, p, out=w) / n
        if np.max(np.abs(grad)) <= 1e-8:
            converged = True
            break
        np.subtract(1.0, p, out=w)
        w *= p
        for j in range(d):
            hess[j, j:] = design[:, j:].T @ np.multiply(design[:, j], w, out=p)
            hess[j:, j] = hess[j, j:]
        hess /= n
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            hess = hess + (1e-10 * max(np.trace(hess), 1.0) / d) * np.eye(d)
            step = np.linalg.solve(hess, grad)
        beta = beta + step
    saturated = bool(np.max(np.abs(np.dot(design, beta, out=p))) > 30.0)
    return beta, ("logistic", (False, converged, (not converged) or saturated))


def _sorted_predict(beta, logistic, block):
    t = block @ beta
    if not logistic:
        return t
    return np.clip(_sigmoid_inplace(t, np.empty_like(t)), 1e-12, 1.0 - 1e-12, out=t)


def reference_sorted_design_cross_fit(data, spec, folds):
    """g1, g0, r1, r0 and m1 of the sorted-design cross_fit for any learner
    triple, as a dict, and each regression fit's flags in call order (g, r,
    then m per fold)."""
    n = data.n
    if spec.m_learner == "known_constant":
        m1 = np.full(n, min(max(spec.m_value, spec.clip_eps), 1.0 - spec.clip_eps), dtype=float)
    else:
        m1 = np.empty(n)
    learners = {"g": (spec.g_learner, data.y), "r": (spec.r_learner, data.a)}
    cell = {name: target for name, (learner, target) in learners.items() if learner == "cell_mean"}
    key = folds.fold_of * 4
    key += 2 * data.z
    if cell:
        key += data.x[:, 0] > 0
    counts = np.bincount(key, minlength=4 * folds.K).reshape(folds.K, 2, 2)
    z_counts = counts.sum(axis=-1)
    preds, flags = {}, []
    if cell:
        preds.update(zip(cell, _cell_mean_predictions(folds, key, counts, cell)))
    per_fold = [name for name in learners if name not in preds]
    for name in per_fold:
        preds[name] = (np.empty(n), np.empty(n))
    if per_fold or spec.m_learner == "logistic":
        order = np.argsort(folds.fold_of.astype(np.min_scalar_type(folds.K - 1)), kind="stable")
        design = np.empty((n, 2 + data.p), order="F")
        design[:, 0] = 1.0
        design[:, 1] = np.take(data.z, order)
        design[:, 2:] = np.take(data.x, order, axis=0)
        ends = np.cumsum(z_counts.sum(axis=1)).tolist()
        for lo, hi in zip([0, *ends], ends):
            test = order[lo:hi]
            train = np.concatenate((order[:lo], order[hi:]))
            features, block = np.concatenate((design[:lo], design[hi:])), design[lo:hi].copy(order="F")
            models = {}
            for name in per_fold:
                learner, target = learners[name]
                fit = _sorted_fit_ols if learner == "ols_linear" else _sorted_fit_logistic
                beta, flag = fit(features, np.asarray(np.take(target, train), dtype=float))
                models[name] = (beta, learner == "logistic")
                flags.append(flag)
            if spec.m_learner == "logistic":
                beta, flag = _sorted_fit_logistic(np.delete(features, 1, axis=1), features[:, 1])
                flags.append(flag)
                m1[test] = _sorted_predict(beta, True, np.delete(block, 1, axis=1))
            for column, z_level in enumerate((1.0, 0.0)):
                block[:, 1] = z_level
                for name, (beta, logistic) in models.items():
                    preds[name][column][test] = _sorted_predict(beta, logistic, block)
    if spec.m_learner == "logistic":
        np.clip(m1, spec.clip_eps, 1.0 - spec.clip_eps, out=m1)
    (g1, g0), (r1, r0) = preds["g"], preds["r"]
    return dict(g1=g1, g0=g0, r1=r1, r0=r0, m1=m1), flags


@pytest.fixture(scope="session")
def reference_sorted_design():
    return reference_sorted_design_cross_fit


@pytest.fixture(scope="session")
def reference_ols():
    return _sorted_fit_ols


# One replication as it ran before the trust-boundary constructors: every
# container through its validating public constructor, the cell-mean fit
# one fold and target at a time on a generator sum of the other folds'
# tables, and the score formula with a temporary per term.  Kept as the
# reference run_replication must equal bit for bit.


def reference_fit_cell_mean(sums, counts):
    sums = np.asarray(sums, dtype=float)
    counts = np.asarray(counts, dtype=float)
    total = counts.sum()
    if total < 1:
        raise InvalidConfigError("fit_cell_mean needs a non-empty table")
    return np.divide(sums, counts, out=np.full((2, 2), sums.sum() / total), where=counts > 0)


@pytest.fixture(scope="session")
def reference_cell_mean_fit():
    return reference_fit_cell_mean


def reference_make_folds(n, K, seed):
    perm = np.random.Generator(np.random.PCG64(seed)).permutation(n)
    base, extra = divmod(n, K)
    fold_of = np.empty(n, dtype=int)
    fold_of[perm] = np.repeat(np.arange(K), [base + (k < extra) for k in range(K)])
    return FoldAssignment(fold_of=fold_of, K=K)


@contextmanager
def _computed():
    """Report the constructors' InvalidConfigError, which predictions or
    scores computed from finite data fail only by being non-finite, as the
    package's cross_fit and compute_scores do."""
    try:
        yield
    except InvalidConfigError as exc:
        raise DegenerateDataError(str(exc)) from None


def reference_cell_mean_cross_fit(data, spec, folds):
    """cross_fit with cell-mean g and r and a known propensity."""
    K = folds.K
    fold_z = folds.fold_of * 2 + data.z
    z_counts = np.bincount(fold_z, minlength=2 * K).reshape(K, 2)
    z_train = z_counts.sum(axis=0) - z_counts
    degenerate = np.flatnonzero(z_train.min(axis=1) == 0)
    if degenerate.size:
        k = int(degenerate[0])
        raise DegenerateFoldError(
            f"training complement of fold {k} contains only instrument level {int(z_train[k, 1] > 0)}"
        )
    pos = data.x[:, 0] > 0
    key = fold_z * 2 + pos
    tables = np.stack([np.bincount(key, weights=w, minlength=4 * K) for w in (None, data.y, data.a)])
    tables = tables.reshape(-1, K, 2, 2)
    means = np.empty((2, 2, K, 2))
    for k in range(K):
        train = sum(tables[:, j] for j in range(K) if j != k)
        for t in range(2):
            means[t, :, k] = reference_fit_cell_mean(train[t + 1], train[0])
    preds = np.take(means.reshape(4, 2 * K), folds.fold_of * 2 + pos, axis=1)
    m1 = np.clip(np.full(data.n, spec.m_value), spec.clip_eps, 1.0 - spec.clip_eps)
    with _computed():
        return NuisancePredictions(g1=preds[1], g0=preds[0], r1=preds[3], r0=preds[2], m1=m1)


def reference_compute_scores(data, preds):
    if preds.n != data.n:
        raise InvalidConfigError(f"predictions cover {preds.n} units but the data has {data.n}")
    z = data.z
    sign = 2.0 * z - 1.0
    m_z = np.where(z == 1, preds.m1, 1.0 - preds.m1)
    g_z = np.where(z == 1, preds.g1, preds.g0)
    r_z = np.where(z == 1, preds.r1, preds.r0)
    psi_b = sign / m_z * (data.y - g_z) + preds.g1 - preds.g0
    psi_a = sign / m_z * (data.a - r_z) + preds.r1 - preds.r0
    with _computed():
        return ScoreSample(psi_a=psi_a, psi_b=psi_b)


# The package's D_n(0) before quad_coefficients returned it as QuadCoefficients.dn0.
def _dn_ratio(n: int, m: float, second: float, theta: float) -> float:
    if m == 0.0:
        return 0.0
    if second <= 0.0:
        raise DegenerateDataError(f"second moment of psi_a - theta is zero at theta={theta}")
    return n * m * m / second


def instrument_is_weak(scores: ScoreSample, alpha: float) -> tuple[float, bool]:
    """D_n(0), read from the score moments, and the flag D_n(0) <= z^2,
    marking an uninformative instrument.

    At theta = 0, mean(psi_a) - theta and mean((psi_a - theta)^2) are
    mean(psi_a) and mean(psi_a^2) bit for bit, so D_n(0) equals
    ``dn_statistic(scores.psi_a, 0.0)`` exactly, errors included.  The
    score confidence set has infinite diameter exactly when the flag is
    set (apart from the degenerate all-zero-coefficient corner).
    """
    z = _z_crit(alpha)
    ma, _, maa, _, _ = scores.moments()
    dn0 = _dn_ratio(scores.n, ma, maa, 0.0)
    return dn0, dn0 <= z * z


def reference_replication(params, spec, rep_id):
    """run_replication for a study with cell-mean g and r and a known propensity."""
    rep_seed = replication_seed(spec.seed, params.n, rep_id)
    x, z, a, y = reference_draw(params, np.random.Generator(np.random.PCG64(rep_seed)), params.n)
    data = Dataset(y=y, a=a, z=z, x=x.reshape(-1, 1))
    folds = reference_make_folds(params.n, spec.learner.K, _splitmix64(rep_seed))
    scores = reference_compute_scores(data, reference_cell_mean_cross_fit(data, spec.learner, folds))
    cset = invert_score_test(quad_coefficients(scores, spec.alpha))
    drml = drml_estimate(scores, spec.alpha)
    return ReplicationResult(
        rep_id=rep_id,
        covered_score=cset.contains(params.treatment_shift),
        covered_wald=drml.contains(params.treatment_shift),
        diam_score=cset.diameter(),
        diam_wald=drml.diameter(),
        set_tag=cset.tag,
        dn0=instrument_is_weak(scores, spec.alpha)[0],
        phi_hat=drml.phi_hat,
    )


@pytest.fixture(scope="session")
def reference_cell_means():
    return reference_cell_mean_cross_fit


@pytest.fixture(scope="session")
def reference_engine():
    return reference_replication
