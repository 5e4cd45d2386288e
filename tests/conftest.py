import csv
import math

import numpy as np
import pytest


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


@pytest.fixture(scope="session")
def reference_oracle():
    return reference_oracle_scores


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
        train, test = folds.complement(k), folds.members(k)
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
