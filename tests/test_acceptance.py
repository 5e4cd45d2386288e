"""Acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every line.
Criterion 7's distribution check is expected to fail at the stated
sample size for a quantified structural reason; its test docstring and
failure message carry the analysis, and the same check passes in its
asymptotic regime (see tests/test_weakiv.py).
"""

import math
import time
from statistics import NormalDist

import numpy as np
import pytest

from latescore import (
    DgpParams,
    QuadCoefficients,
    ScoreSample,
    StudySpec,
    WeakIVConfig,
    compute_scores,
    cross_fit,
    dgp_generate,
    drml_estimate,
    invert_score_test,
    make_folds,
    quad_coefficients,
    run_study,
    sample_weak_limit,
)
from latescore.cli import main as cli_main
from latescore.simulation import (
    _splitmix64,
    aggregate,
    cell_probabilities,
    oracle_cell_values,
    replication_seed,
)
from latescore.weakiv import estimate_weakiv_config

from conftest import ks_distance

Z2 = NormalDist().inv_cdf(0.975) ** 2


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def make_coeffs(a: float, b: float, c: float) -> QuadCoefficients:
    return QuadCoefficients(
        a=a, b=b, c=c, delta=b * b - 4.0 * a * c, z_crit=math.sqrt(Z2),
        tol_a=1e-12 * max(abs(a), 1.0), tol_delta=1e-12 * max(b * b, 4.0 * abs(a * c)),
    )


@pytest.fixture(scope="module")
def strong_cells():
    return run_study(StudySpec(setting="strong", n_grid=(2000,), reps=500, seed=12))


@pytest.fixture(scope="module")
def weak_cells():
    return run_study(StudySpec(setting="weak", n_grid=(2000,), reps=500, seed=11))


def test_criterion_1_quadratic_inversion_matches_grid_oracle():
    """1000 randomized score samples, 2001-point membership grid."""
    rng = np.random.Generator(np.random.PCG64(2024))
    thetas = np.linspace(-10.0, 10.0, 2001)
    t0 = time.monotonic()
    disagreements = 0
    for i in range(1000):
        mean_a = 2.0 if i % 2 == 0 else 0.05 * rng.standard_normal()
        psi_a = rng.standard_normal(50) + mean_a
        psi_b = rng.standard_normal(50) + rng.uniform(-1, 1) * psi_a
        s = ScoreSample(psi_a=psi_a, psi_b=psi_b)
        co = quad_coefficients(s, 0.05)
        cset = invert_score_test(co)
        member_quad = cset.contains(thetas)

        d = s.psi_b[None, :] - thetas[:, None] * s.psi_a[None, :]
        stat = math.sqrt(50) * d.mean(axis=1) / np.sqrt((d**2).mean(axis=1))
        member_stat = np.abs(stat) <= co.z_crit

        quad_vals = co.a * thetas**2 + co.b * thetas + co.c
        band = 1e-6 * (abs(co.a) * thetas**2 + abs(co.b) * np.abs(thetas) + abs(co.c) + 1.0)
        outside = np.abs(quad_vals) > band
        disagreements += int(np.sum(outside & (member_quad != member_stat)))
    elapsed = time.monotonic() - t0
    ok = disagreements == 0 and elapsed < 60.0
    report("1 (grid-oracle equivalence)", ok, f"{disagreements} disagreements, {elapsed:.1f}s")
    assert disagreements == 0
    assert elapsed < 60.0


def test_criterion_2_case_coverage_and_totality():
    """All seven set forms reached; classification total over a 1e6 fuzz."""
    t0 = time.monotonic()
    constructed = [
        (1.0, 0.0, -1.0),   # finite interval
        (-1.0, 0.0, 1.0),   # two rays
        (1.0, 0.0, 1.0),    # empty
        (-1.0, 0.0, -1.0),  # whole line
        (0.0, 2.0, -4.0),   # left ray  (b > 0)
        (0.0, -2.0, -4.0),  # right ray (b < 0)
        (1.0, -2.0, 1.0),   # point
        (0.0, 0.0, -1.0),   # whole line, constant case
        (0.0, 0.0, 1.0),    # empty, constant case
    ]
    tags = set()
    for a, b, c in constructed:
        tags.add(invert_score_test(make_coeffs(a, b, c)).tag)

    rng = np.random.Generator(np.random.PCG64(99))
    n_fuzz = 1_000_000
    abc = rng.standard_normal((n_fuzz, 3)) * 10.0 ** rng.uniform(-6, 6, size=(n_fuzz, 1))
    zero_a = rng.random(n_fuzz) < 0.15
    abc[zero_a, 0] = 0.0
    zero_b = rng.random(n_fuzz) < 0.15
    abc[zero_b, 1] = 0.0
    zero_c = rng.random(n_fuzz) < 0.15
    abc[zero_c, 2] = 0.0
    tangent = (rng.random(n_fuzz) < 0.10) & (abc[:, 0] != 0.0)
    abc[tangent, 2] = abc[tangent, 1] ** 2 / (4.0 * abc[tangent, 0])

    a_col, b_col, c_col = abc[:, 0], abc[:, 1], abc[:, 2]
    # make_coeffs' bands, elementwise.
    tol_a_col = 1e-12 * np.maximum(np.abs(a_col), 1.0)
    tol_delta_col = 1e-12 * np.maximum(b_col * b_col, 4.0 * np.abs(a_col * c_col))
    z = math.sqrt(Z2)
    for i in range(n_fuzz):
        a, b, c = a_col[i], b_col[i], c_col[i]
        co = QuadCoefficients(
            a=a, b=b, c=c, delta=b * b - 4.0 * a * c, z_crit=z, tol_a=tol_a_col[i], tol_delta=tol_delta_col[i]
        )
        tags.add(invert_score_test(co).tag)
    elapsed = time.monotonic() - t0
    expected = {"finite_interval", "two_rays", "empty", "whole_line", "left_ray", "right_ray", "point"}
    ok = tags >= expected and elapsed < 10.0
    report("2 (case coverage)", ok, f"tags={sorted(tags)}, {elapsed:.1f}s")
    assert tags >= expected
    assert elapsed < 10.0


def test_criterion_3_infinite_diameter_equivalence(strong_cells, weak_cells):
    """diam = inf exactly when D_n(0) <= z^2, across criteria 4-5 runs."""
    violations = 0
    empties = 0
    total = 0
    for cells in (strong_cells, weak_cells):
        for cell in cells:
            for r in cell.results:
                total += 1
                if r.set_tag == "empty":
                    empties += 1
                    continue
                if (not math.isfinite(r.diam_score)) != (r.dn0 <= Z2):
                    violations += 1
    ok = violations == 0 and empties == 0
    report(
        "3 (infinite-diameter equivalence)",
        ok,
        f"{violations} violations, {empties} empty sets over {total} replications",
    )
    assert violations == 0
    assert empties == 0


def test_criterion_4_strong_instrument_coverage(strong_cells):
    """pi=5, n=2000, 500 reps: both coverages within 0.95 +/- 3 binomial SEs."""
    summary = aggregate(strong_cells[0].results)
    ok = 0.92 <= summary.coverage_score <= 0.98 and 0.92 <= summary.coverage_wald <= 0.98
    report(
        "4 (strong-instrument coverage)",
        ok,
        f"score={summary.coverage_score:.3f}, wald={summary.coverage_wald:.3f}",
    )
    assert 0.92 <= summary.coverage_score <= 0.98
    assert 0.92 <= summary.coverage_wald <= 0.98
    assert len(strong_cells[0].failures) == 0


def test_criterion_5_weak_instrument_behavior(weak_cells):
    """pi=0.15/sqrt(n): score set keeps coverage, Wald interval loses it."""
    summary = aggregate(weak_cells[0].results)
    ok = (
        0.92 <= summary.coverage_score <= 0.98
        and summary.coverage_wald < 0.90
        and summary.frac_infinite > 0.5
    )
    report(
        "5 (weak-instrument behavior)",
        ok,
        f"score={summary.coverage_score:.3f}, wald={summary.coverage_wald:.3f}, "
        f"frac_inf={summary.frac_infinite:.3f}",
    )
    assert 0.92 <= summary.coverage_score <= 0.98
    assert summary.coverage_wald < 0.90
    assert summary.frac_infinite > 0.5
    assert len(weak_cells[0].failures) == 0


def test_criterion_6_diameter_ratio_convergence():
    """Median |diam ratio - 1| shrinks from n=1500 to n=12000."""
    cells = run_study(StudySpec(setting="strong", n_grid=(1500, 12000), reps=300, seed=21))
    med_ratio = {}
    med_dev = {}
    for cell in cells:
        ratios = np.array(
            [
                r.diam_score / r.diam_wald
                for r in cell.results
                if math.isfinite(r.diam_score) and math.isfinite(r.diam_wald) and r.diam_wald > 0
            ]
        )
        med_ratio[cell.n] = float(np.median(ratios))
        med_dev[cell.n] = float(np.median(np.abs(ratios - 1.0)))
    ok = med_dev[12000] < med_dev[1500] and 0.98 <= med_ratio[12000] <= 1.02
    report(
        "6 (diameter-ratio convergence)",
        ok,
        f"median|ratio-1|: n=1500 {med_dev[1500]:.4f} -> n=12000 {med_dev[12000]:.4f}; "
        f"median ratio at 12000 = {med_ratio[12000]:.4f}",
    )
    assert med_dev[12000] < med_dev[1500]
    assert 0.98 <= med_ratio[12000] <= 1.02


@pytest.fixture(scope="module")
def weakiv_calibration():
    n = 5000
    params = DgpParams(pi=0.15 / math.sqrt(n), n=n)
    cal = estimate_weakiv_config(params, oracle_draws=10_000_000, seed=123)
    return params, cal


def test_criterion_7_limit_distribution_ks(weakiv_calibration):
    """KS between replicated estimator errors and limit-sampler draws, as stated.

    This check cannot pass at the stated configuration, for a structural
    reason: at n=5000 with instrument strength 0.15/sqrt(n), the number of
    sample units whose treatment the instrument flips is ~Poisson(1.06).
    With zero flipped units (probability e^{-1.06} ~ 0.35) the outcome
    is an exact affine function of treatment in-sample, the two score
    vectors become exactly proportional and the estimator lands on the
    atom 4.0 exactly, while the limit law is continuous there -- so the
    KS distance of ANY correct sampler is at least ~e^{-1.06}/2 ~ 0.17.
    The identical check passes once the flip count is well past one
    (measured 0.028 at n=45000; see tests/test_weakiv.py).
    """
    params, cal = weakiv_calibration
    cfg = WeakIVConfig(c_a=cal.c_a, c_b=cal.c_b, sigma_ab=cal.sigma_ab)
    cells = run_study(StudySpec(setting="weak", n_grid=(params.n,), reps=4000, seed=77))
    truth = 0.0
    emp = np.array([r.phi_hat - truth for r in cells[0].results])
    rng = np.random.Generator(np.random.PCG64(999))
    draws = sample_weak_limit(cfg, rng, size=100_000)
    ks = ks_distance(emp, draws)
    lam = params.n * 0.25 * (0.5 * math.erfc(-params.pi / math.sqrt(2.0)) - 0.5)
    ok = ks < 0.05
    report(
        "7a (weak-IV limit, KS at stated n)",
        ok,
        f"KS={ks:.3f} (structural floor ~exp(-{lam:.2f})/2 = {math.exp(-lam) / 2:.3f}; "
        f"same check passes at n=45000, KS~0.03)",
    )
    assert ks < 0.05, (
        f"KS={ks:.3f} >= 0.05 at n={params.n}: the replicated estimator has an atom of "
        f"mass ~exp(-{lam:.2f})={math.exp(-lam):.3f} at exactly 4.0 (zero instrument-flipped "
        f"units), so no continuous limit law can come closer than ~{math.exp(-lam) / 2:.3f}. "
        "The sampler itself is validated in tests/test_weakiv.py at n=45000 (KS~0.03)."
    )


def test_criterion_7_heavy_tails(weakiv_calibration):
    """t*P(|V|>t) stable across three decades: no finite mean."""
    _, cal = weakiv_calibration
    cfg = WeakIVConfig(c_a=cal.c_a, c_b=cal.c_b, sigma_ab=cal.sigma_ab)
    rng = np.random.Generator(np.random.PCG64(1000))
    draws = sample_weak_limit(cfg, rng, size=10_000_000)
    levels = [float(t * np.mean(np.abs(draws) > t)) for t in (10.0, 100.0, 1000.0)]
    spread = max(levels) / min(levels)
    ok = spread < 3.0
    report("7b (weak-IV limit, heavy tails)", ok, f"t*P(|V|>t)={levels}, max/min={spread:.2f}")
    assert spread < 3.0


def test_criterion_8_equivariance_suite():
    """Shift and scale equivariance at 1e-10 relative, 1000 samples x grids."""
    rng = np.random.Generator(np.random.PCG64(31))
    kappas = (-2.0, 0.7, 3.0)
    lambdas = (0.5, 2.0, 10.0)
    worst = 0.0
    for i in range(1000):
        mean_a = 2.0 if i % 2 == 0 else 0.5
        psi_a = rng.standard_normal(50) + mean_a
        psi_b = rng.standard_normal(50) + rng.uniform(-1, 1) * psi_a
        s = ScoreSample(psi_a=psi_a, psi_b=psi_b)
        base_set = invert_score_test(quad_coefficients(s, 0.05))
        base_drml = drml_estimate(s, 0.05)
        base_pts = np.asarray(base_set.endpoints())
        for kappa in kappas:
            shifted = ScoreSample(psi_a=psi_a, psi_b=psi_b + kappa * psi_a)
            cs = invert_score_test(quad_coefficients(shifted, 0.05))
            assert cs.tag == base_set.tag
            if base_pts.size:
                scale = np.maximum(np.abs(base_pts + kappa), 1.0)
                worst = max(worst, float(np.max(np.abs(np.asarray(cs.endpoints()) - (base_pts + kappa)) / scale)))
            dr = drml_estimate(shifted, 0.05)
            worst = max(
                worst,
                abs(dr.phi_hat - (base_drml.phi_hat + kappa)) / max(abs(base_drml.phi_hat + kappa), 1.0),
                abs(dr.sigma2_hat - base_drml.sigma2_hat) / max(base_drml.sigma2_hat, 1.0),
            )
        for lam in lambdas:
            scaled = ScoreSample(psi_a=psi_a, psi_b=lam * psi_b)
            cs = invert_score_test(quad_coefficients(scaled, 0.05))
            assert cs.tag == base_set.tag
            if base_pts.size:
                scale = np.maximum(np.abs(lam * base_pts), 1.0)
                worst = max(worst, float(np.max(np.abs(np.asarray(cs.endpoints()) - lam * base_pts) / scale)))
            dr = drml_estimate(scaled, 0.05)
            worst = max(
                worst,
                abs(dr.phi_hat - lam * base_drml.phi_hat) / max(abs(lam * base_drml.phi_hat), 1.0),
                abs(dr.sigma2_hat - lam * lam * base_drml.sigma2_hat) / max(lam * lam * base_drml.sigma2_hat, 1.0),
            )
    ok = worst < 1e-10
    report("8 (equivariance suite)", ok, f"worst relative error {worst:.2e}")
    assert worst < 1e-10


def test_criterion_9_determinism(tmp_path):
    """Byte-identical CSVs on rerun; results invariant to execution order."""
    args = ["simulate", "--setting", "weak", "--n", "1000", "--reps", "30", "--seed", "5"]
    dir1, dir2 = str(tmp_path / "a"), str(tmp_path / "b")
    assert cli_main(args + ["--out-dir", dir1]) == 0
    assert cli_main(args + ["--out-dir", dir2]) == 0
    identical = True
    for name in ("replications.csv", "summary.csv"):
        with open(f"{dir1}/{name}", "rb") as f1, open(f"{dir2}/{name}", "rb") as f2:
            identical &= f1.read() == f2.read()

    spec = StudySpec(setting="strong", n_grid=(700,), reps=16, seed=6)
    sequential = run_study(spec)
    order = np.random.Generator(np.random.PCG64(1)).permutation(16).tolist()
    shuffled = run_study(spec, order=order)
    order_invariant = sequential[0].results == shuffled[0].results
    ok = identical and order_invariant
    report("9 (determinism)", ok, f"byte-identical={identical}, order-invariant={order_invariant}")
    assert identical
    assert order_invariant


def test_criterion_10_score_set_approaches_the_wald_interval_at_rate_1_over_n():
    """The paper's central claim at its rate.  On the strong law, the score
    set is a finite interval whose midpoint lies -z^2*C/a from the ratio
    estimate (C = mean(psi_a*psi_b) - phi_hat*mean(psi_a^2), a = n*mean(psi_a)^2
    - z^2*mean(psi_a^2)), so n*(midpoint - phi_hat) tends to
    -z^2*E[psi_a*psi_b]/E[psi_a]^2 at the law's effect 0, and the half-widths
    of the score set and the Wald interval agree up to O(1/n)."""
    t0 = time.monotonic()
    spec = StudySpec(setting="strong", n_grid=(1500, 6000, 24_000), reps=100, seed=5)
    z2 = NormalDist().inv_cdf(1.0 - spec.alpha / 2.0) ** 2
    tags, shifts, gaps = set(), [], []
    for n in spec.n_grid:
        params = DgpParams(pi=spec.pi_for(n), n=n)
        shift, gap = [], []
        for rep_id in range(spec.reps):
            # run_replication's data, folds and scores for this replication
            rep_seed = replication_seed(spec.seed, n, rep_id)
            data = dgp_generate(params, rep_seed)
            folds = make_folds(n, spec.learner.K, _splitmix64(rep_seed))
            scores = compute_scores(data, cross_fit(data, spec.learner, folds))
            cset = invert_score_test(quad_coefficients(scores, spec.alpha))
            wald = drml_estimate(scores, spec.alpha)
            tags.add(cset.tag)
            shift.append(n * ((cset.lo + cset.hi) / 2.0 - wald.phi_hat))
            gap.append(abs(cset.diameter() / wald.diameter() - 1.0))
        shifts.append(float(np.median(shift)))
        gaps.append(float(np.median(gap)))
    law = DgpParams(pi=spec.pi_for(spec.n_grid[-1]), n=spec.n_grid[-1])
    p, (psi_a, psi_b, _, _) = cell_probabilities(law), oracle_cell_values(law)
    exact = -z2 * float(p @ (psi_a * psi_b)) / float(p @ psi_a) ** 2
    slope = float(np.polyfit(np.log(spec.n_grid), np.log(gaps), 1)[0])
    elapsed = time.monotonic() - t0
    off = abs(shifts[-1] / exact - 1.0)
    ok = tags == {"finite_interval"} and off <= 0.03 and -1.25 <= slope <= -0.75 and elapsed < 5.0
    report(
        "10 (score set vs Wald at rate 1/n)", ok,
        f"tags={sorted(tags)}, median n*(midpoint - phi_hat)={[round(v, 2) for v in shifts]} "
        f"vs exact {exact:.4f} ({off:.2%} off at n={spec.n_grid[-1]}), "
        f"median |half-width ratio - 1| slope {slope:.3f}, {elapsed:.2f}s",
    )
    assert tags == {"finite_interval"}
    assert off <= 0.03
    assert -1.25 <= slope <= -0.75
    assert elapsed < 5.0
