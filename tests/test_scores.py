import math
import warnings

import numpy as np
import pytest

from latescore import (
    Dataset,
    DegenerateDataError,
    InvalidConfigError,
    NuisancePredictions,
    ScoreSample,
    compute_scores,
)
from latescore.scores import functional_oracle


def _preds(n, g1, g0, r1, r0, m1):
    return NuisancePredictions(
        g1=np.full(n, g1),
        g0=np.full(n, g0),
        r1=np.full(n, r1),
        r0=np.full(n, r0),
        m1=np.full(n, m1),
    )


def _loop_scores(data, preds):
    """Straight per-unit transcription of the score formulas."""
    psi_a = np.empty(data.n)
    psi_b = np.empty(data.n)
    for i in range(data.n):
        if data.z[i] == 1:
            m = preds.m1[i]
            psi_b[i] = (data.y[i] - preds.g1[i]) / m + preds.g1[i] - preds.g0[i]
            psi_a[i] = (data.a[i] - preds.r1[i]) / m + preds.r1[i] - preds.r0[i]
        else:
            m = 1.0 - preds.m1[i]
            psi_b[i] = -(data.y[i] - preds.g0[i]) / m + preds.g1[i] - preds.g0[i]
            psi_a[i] = -(data.a[i] - preds.r0[i]) / m + preds.r1[i] - preds.r0[i]
    return psi_a, psi_b


class TestComputeScores:
    def test_zero_residual_hand_case(self):
        data = Dataset(y=[1.0, 1.0], a=[1, 1], z=[1, 1], x=[[0.0], [0.0]])
        preds = _preds(2, g1=1.0, g0=0.3, r1=0.5, r0=0.5, m1=0.5)
        s = compute_scores(data, preds)
        assert s.psi_b[0] == pytest.approx(0.7, abs=1e-12)

    def test_control_arm_hand_case(self):
        data = Dataset(y=[0.0, 0.0], a=[0, 0], z=[0, 0], x=[[0.0], [0.0]])
        preds = _preds(2, g1=0.0, g0=0.0, r1=0.5, r0=0.5, m1=0.5)
        s = compute_scores(data, preds)
        assert s.psi_a[0] == pytest.approx(1.0, abs=1e-12)

    def test_matches_loop_transcription(self):
        rng = np.random.Generator(np.random.PCG64(17))
        n = 20
        data = Dataset(
            y=rng.standard_normal(n),
            a=rng.integers(0, 2, n),
            z=rng.integers(0, 2, n),
            x=rng.standard_normal((n, 2)),
        )
        preds = NuisancePredictions(
            g1=rng.standard_normal(n),
            g0=rng.standard_normal(n),
            r1=rng.random(n),
            r0=rng.random(n),
            m1=0.1 + 0.8 * rng.random(n),
        )
        s = compute_scores(data, preds)
        psi_a, psi_b = _loop_scores(data, preds)
        assert np.max(np.abs(s.psi_a - psi_a)) < 1e-12
        assert np.max(np.abs(s.psi_b - psi_b)) < 1e-12

    def test_linear_in_outcome_scale(self):
        rng = np.random.Generator(np.random.PCG64(18))
        n = 30
        data = Dataset(
            y=rng.standard_normal(n),
            a=rng.integers(0, 2, n),
            z=rng.integers(0, 2, n),
            x=rng.standard_normal((n, 1)),
        )
        g1 = rng.standard_normal(n)
        g0 = rng.standard_normal(n)
        r1, r0, m1 = rng.random(n), rng.random(n), 0.2 + 0.6 * rng.random(n)
        lam = 3.5
        base = compute_scores(data, NuisancePredictions(g1=g1, g0=g0, r1=r1, r0=r0, m1=m1))
        scaled_data = Dataset(y=lam * data.y, a=data.a, z=data.z, x=data.x)
        scaled = compute_scores(
            scaled_data, NuisancePredictions(g1=lam * g1, g0=lam * g0, r1=r1, r0=r0, m1=m1)
        )
        assert np.max(np.abs(scaled.psi_b - lam * base.psi_b)) < 1e-12 * max(
            1.0, np.max(np.abs(lam * base.psi_b))
        )
        assert np.array_equal(scaled.psi_a, base.psi_a)

    def test_oracle_nuisance_reduction(self):
        # deterministic Y given (Z, X): residual term vanishes exactly
        rng = np.random.Generator(np.random.PCG64(19))
        n = 25
        z = rng.integers(0, 2, n)
        x = rng.standard_normal((n, 1))

        def g(zv, xv):
            return 2.0 * zv + np.sin(xv[:, 0])

        y = g(z, x)
        data = Dataset(y=y, a=rng.integers(0, 2, n), z=z, x=x)
        preds = NuisancePredictions(
            g1=g(np.ones(n), x),
            g0=g(np.zeros(n), x),
            r1=rng.random(n),
            r0=rng.random(n),
            m1=np.full(n, 0.5),
        )
        s = compute_scores(data, preds)
        assert np.max(np.abs(s.psi_b - (preds.g1 - preds.g0))) < 1e-12

    def test_length_mismatch_rejected(self):
        data = Dataset(y=[1.0, 2.0], a=[0, 1], z=[0, 1], x=[[0.0], [0.0]])
        with pytest.raises(InvalidConfigError):
            compute_scores(data, _preds(3, 0.0, 0.0, 0.5, 0.5, 0.5))

    def test_non_finite_scores_rejected(self):
        # y - g(z) overflows to +inf for the treated unit.
        data = Dataset(y=[1e308, 0.0], a=[0, 1], z=[1, 0], x=[[0.0], [0.0]])
        with np.errstate(over="ignore"), pytest.raises(DegenerateDataError, match="scores must be finite") as caught:
            compute_scores(data, _preds(2, -1e308, 0.0, 0.5, 0.5, 0.5))
        assert type(caught.value) is DegenerateDataError

    def test_scores_that_overflow_are_degenerate_data_without_a_warning(self):
        data = Dataset(y=[1e308, 0.0], a=[0, 1], z=[1, 0], x=[[0.0], [0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDataError, match="scores must be finite") as caught:
                compute_scores(data, _preds(2, -1e308, 0.0, 0.5, 0.5, 0.5))
        assert type(caught.value) is DegenerateDataError

    def test_non_finite_scores_from_a_caller_are_a_config_error(self):
        with pytest.raises(InvalidConfigError, match="scores must be finite") as caught:
            ScoreSample(psi_a=[1.0, math.inf], psi_b=[0.0, 0.0])
        assert not isinstance(caught.value, DegenerateDataError)


def _mc_itt_ratio(draw_fn, draws, seed):
    """Independent oracle: ratio of intent-to-treat contrasts by simulation.

    ``draw_fn(rng, size)`` must return (y1, y0, a1, a0): potential outcomes
    and treatments under both instrument levels.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    y1, y0, a1, a0 = draw_fn(rng, draws)
    return float(np.mean(y1 - y0) / np.mean(a1 - a0))


class TestFunctionalOracle:
    def test_zero_for_default_family(self):
        for pi in (0.01, 0.15, 1.0, 5.0):
            assert functional_oracle(pi) == 0.0

    def test_undefined_at_pi_zero(self):
        with pytest.raises(InvalidConfigError):
            functional_oracle(0.0)

    def test_treatment_shift_three_against_mc_oracle(self):
        pi = 1.0

        def draw(rng, size):
            u = rng.standard_normal(size)
            x = rng.standard_normal(size)
            a1 = ((pi * (x > 0) + u) > 0).astype(float)
            a0 = (u > 0).astype(float)
            y1 = 2.0 * np.sign(u) + 3.0 * a1
            y0 = 2.0 * np.sign(u) + 3.0 * a0
            return y1, y0, a1, a0

        oracle = _mc_itt_ratio(draw, draws=10_000_000, seed=23)
        assert oracle == pytest.approx(3.0, abs=1e-9)
        assert functional_oracle(pi, treatment_shift=3.0) == 3.0

    def test_perfect_compliance_identity_outcome(self):
        # A equals Z and Y equals A: the contrast ratio is exactly one
        def draw(rng, size):
            a1 = np.ones(size)
            a0 = np.zeros(size)
            return a1.copy(), a0.copy(), a1, a0

        assert _mc_itt_ratio(draw, draws=1000, seed=1) == pytest.approx(1.0)


class TestScoreSample:
    def test_rejects_mismatched_lengths(self):
        with pytest.raises(InvalidConfigError):
            ScoreSample(psi_a=np.zeros(3), psi_b=np.zeros(4))

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidConfigError):
            ScoreSample(psi_a=np.array([1.0, np.inf]), psi_b=np.zeros(2))

    def test_writing_the_callers_arrays_leaves_the_moments_unchanged(self):
        psi_a, psi_b = np.array([1.0, 2.0, 4.0]), np.array([0.5, -1.0, 3.0])
        scores = ScoreSample(psi_a=psi_a, psi_b=psi_b)
        want = ScoreSample(psi_a=psi_a.copy(), psi_b=psi_b.copy()).moments()
        psi_a[:] = 100.0
        psi_b[:] = -100.0
        assert scores.moments() == want
        assert scores.psi_a.tolist() == [1.0, 2.0, 4.0]
        assert scores.psi_b.tolist() == [0.5, -1.0, 3.0]

    @pytest.mark.parametrize("psi_a, psi_b", [
        ([1e200, -1e200], [0.0, 1.0]),  # mean(psi_a^2) overflows
        ([0.0, 1.0], [1.7e308, 1.7e308]),  # the sum of psi_b overflows
    ])
    def test_moments_that_overflow_raise_degenerate_data(self, psi_a, psi_b):
        scores = ScoreSample(psi_a=np.array(psi_a), psi_b=np.array(psi_b))
        for _ in range(2):  # a failed call caches nothing
            with pytest.raises(DegenerateDataError, match="overflow"):
                scores.moments()
