import csv
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from latescore import (
    DecompositionError,
    DgpParams,
    InvalidConfigError,
    StudySpec,
    WeakIVConfig,
    exact_weakiv_config,
    run_study,
    sample_weak_limit,
)
from latescore import weakiv
from latescore.cli import main
from latescore.simulation import cell_probabilities, oracle_cell_values
from latescore.weakiv import estimate_weakiv_config, sample_bivariate_normal

from conftest import ks_distance


class TestBivariateNormal:
    def test_zero_covariance_gives_zeros(self):
        rng = np.random.Generator(np.random.PCG64(0))
        na, nb = sample_bivariate_normal(np.zeros((2, 2)), rng, size=100)
        assert np.all(na == 0.0) and np.all(nb == 0.0)

    def test_identity_variances(self):
        rng = np.random.Generator(np.random.PCG64(1))
        na, nb = sample_bivariate_normal(np.eye(2), rng, size=100_000)
        assert 0.97 < na.var() < 1.03
        assert 0.97 < nb.var() < 1.03
        assert abs(np.corrcoef(na, nb)[0, 1]) < 0.02

    def test_half_correlation(self):
        rng = np.random.Generator(np.random.PCG64(2))
        sigma = np.array([[1.0, 0.5], [0.5, 1.0]])
        na, nb = sample_bivariate_normal(sigma, rng, size=100_000)
        assert abs(np.corrcoef(na, nb)[0, 1] - 0.5) < 0.02

    def test_singular_but_psd(self):
        rng = np.random.Generator(np.random.PCG64(3))
        sigma = np.array([[1.0, 2.0], [2.0, 4.0]])
        na, nb = sample_bivariate_normal(sigma, rng, size=10_000)
        assert np.max(np.abs(nb - 2.0 * na)) < 1e-12

    @pytest.mark.parametrize("sigma", [
        np.array([[1.0, 0.3], [0.0, 1.0]]),           # asymmetric
        np.array([[-1.0, 0.0], [0.0, 1.0]]),          # negative variance
        np.array([[1.0, 2.0], [2.0, 1.0]]),           # indefinite
        np.array([[0.0, 0.5], [0.5, 1.0]]),           # zero variance, nonzero cov
        np.array([[1e200, 2e200], [2e200, 1e200]]),   # indefinite, determinant overflows
        np.array([[1e-20, 0.0], [5e-13, 1e-20]]),     # asymmetric, far above its variances
    ])
    def test_rejects_non_psd(self, sigma):
        rng = np.random.Generator(np.random.PCG64(4))
        with pytest.raises(DecompositionError):
            sample_bivariate_normal(sigma, rng, size=10)


    def test_huge_psd_variances(self):
        rng = np.random.Generator(np.random.PCG64(4))
        na, nb = sample_bivariate_normal(np.diag([1e200, 1e200]), rng, size=10_000)
        assert np.all(np.isfinite(na)) and np.all(np.isfinite(nb))
        assert 0.97 < (na / 1e100).var() < 1.03


class TestPairTransform:
    sigma = np.array([[1.0, 0.5], [0.5, 2.0]])

    def test_a_pair_does_not_depend_on_how_many_pairs_a_call_draws(self):
        # A BLAS product takes one row through a matrix-vector kernel, which
        # rounds N_b differently from the matrix kernel in about 3 pairs of 10.
        one_call = np.stack(sample_bivariate_normal(self.sigma, np.random.Generator(np.random.PCG64(7)), 1000))
        rng = np.random.Generator(np.random.PCG64(7))
        one_by_one = np.hstack([np.stack(sample_bivariate_normal(self.sigma, rng, 1)) for _ in range(1000)])
        assert one_call.tobytes() == one_by_one.tobytes()

    def test_pairs_are_the_elementwise_sums_of_the_square_root(self):
        na, nb = sample_bivariate_normal(self.sigma, np.random.Generator(np.random.PCG64(8)), 10_000)
        e = np.random.Generator(np.random.PCG64(8)).standard_normal((10_000, 2))
        l21, l22 = 0.5, math.sqrt(2.0 - 0.25)
        assert na.tobytes() == e[:, 0].copy().tobytes()
        assert nb.tobytes() == (e[:, 0] * l21 + e[:, 1] * l22).tobytes()

    @pytest.mark.parametrize("sigma", [np.zeros((2, 2)), np.diag([0.0, 4.0]), np.diag([4.0, 0.0])])
    def test_no_pair_holds_a_negative_zero(self, sigma):
        # As from a matrix product, whose sums start from +0.0.
        pairs = sample_bivariate_normal(sigma, np.random.Generator(np.random.PCG64(9)), 10_000)
        for values in pairs:
            assert not np.any(np.signbit(values) & (values == 0.0))


class TestHugeCovarianceCli:
    """Covariances whose determinant overflows are judged on the scaled entries."""

    def _run(self, tmp_path, s12):
        out = tmp_path / "draws.csv"
        status = main([
            "weakiv-limit", "--ca", "1", "--cb", "0", "--s11", "1e200", "--s12", s12,
            "--s22", "1e200", "--samples", "1000", "--seed", "3", "--out", str(out),
        ])
        return status, out

    def test_indefinite_exits_2(self, tmp_path, capsys):
        status, out = self._run(tmp_path, "2e200")
        assert status == 2
        assert not out.exists()
        assert "positive semidefinite" in capsys.readouterr().err

    def test_psd_exits_0_with_finite_draws(self, tmp_path):
        status, out = self._run(tmp_path, "0")
        assert status == 0
        with open(out, newline="") as handle:
            draws = [float(row["draw"]) for row in csv.DictReader(handle)]
        assert len(draws) == 1000
        assert all(math.isfinite(v) for v in draws)


class TestCovarianceUnits:
    """Symmetry and PSD are judged relative to the largest entry, so a
    covariance is accepted or refused alike in any units."""

    SIGMAS = {
        "psd": [[2.0, 0.5], [0.5, 1.0]],
        "singular_psd": [[1.0, 2.0], [2.0, 4.0]],
        "indefinite": [[1.0, 2.0], [2.0, 1.0]],
        "asymmetric": [[1.0, 0.0], [0.3, 1.0]],
    }

    @staticmethod
    def _accepted(sigma):
        try:
            WeakIVConfig(c_a=1.0, c_b=0.0, sigma_ab=sigma)
        except DecompositionError:
            return False
        return True

    @pytest.mark.parametrize("kind", SIGMAS)
    @pytest.mark.parametrize("scale", [1e-300, 1e-20, 1.0, 1e20, 1e300])
    def test_the_verdict_does_not_depend_on_the_scale(self, kind, scale):
        assert self._accepted(scale * np.array(self.SIGMAS[kind])) == kind.endswith("psd")

    def test_a_tiny_indefinite_covariance_exits_2(self, tmp_path, capsys):
        out = tmp_path / "w.csv"
        status = main([
            "weakiv-limit", "--ca", "1", "--cb", "0", "--s11", "1e-20", "--s12", "1e-19",
            "--s22", "1e-20", "--samples", "5", "--out", str(out),
        ])
        assert status == 2
        assert capsys.readouterr().err == "error: covariance is not positive semidefinite\n"
        assert not out.exists()


class TestWeakIVConfig:
    def test_rejects_zero_ca(self):
        with pytest.raises(InvalidConfigError):
            WeakIVConfig(c_a=0.0, c_b=1.0, sigma_ab=np.eye(2))

    @pytest.mark.parametrize("c_a,c_b", [
        (math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf), (1.0, -math.inf),
    ])
    def test_rejects_non_finite_limit_means(self, c_a, c_b):
        with pytest.raises(InvalidConfigError, match="finite"):
            WeakIVConfig(c_a=c_a, c_b=c_b, sigma_ab=np.eye(2))

    def test_allows_zero_cb(self):
        cfg = WeakIVConfig(c_a=1.0, c_b=0.0, sigma_ab=np.eye(2))
        assert cfg.c_b == 0.0


class TestSampleWeakLimit:
    def test_zero_sigma_gives_zero(self):
        cfg = WeakIVConfig(c_a=1.0, c_b=1.0, sigma_ab=np.zeros((2, 2)))
        rng = np.random.Generator(np.random.PCG64(5))
        draws = sample_weak_limit(cfg, rng, size=1000)
        assert np.all(draws == 0.0)

    def test_median_against_brute_force_oracle(self):
        cfg = WeakIVConfig(c_a=1.0, c_b=1.0, sigma_ab=np.eye(2))
        rng = np.random.Generator(np.random.PCG64(6))
        draws = sample_weak_limit(cfg, rng, size=1_000_000)

        # independent transcription, separate stream
        rng2 = np.random.Generator(np.random.PCG64(7))
        e = rng2.standard_normal((10_000_000, 2))
        na, nb = e[:, 0], e[:, 1]
        oracle = (1.0 * nb - 1.0 * na) / (1.0 + 1.0 * na)
        assert abs(np.median(draws) - np.median(oracle)) < 0.02

    def test_tiny_sigma_collapses_to_zero(self):
        cfg = WeakIVConfig(c_a=1.0, c_b=1.0, sigma_ab=1e-20 * np.eye(2))
        rng = np.random.Generator(np.random.PCG64(8))
        draws = sample_weak_limit(cfg, rng, size=10_000)
        assert np.max(np.abs(draws)) <= 1e-8

    def test_negation_symmetry(self):
        sigma = np.array([[1.0, 0.5], [0.5, 2.0]])
        flipped = np.array([[1.0, -0.5], [-0.5, 2.0]])
        cfg = WeakIVConfig(c_a=0.7, c_b=1.3, sigma_ab=sigma)
        cfg_neg = WeakIVConfig(c_a=0.7, c_b=-1.3, sigma_ab=flipped)
        rng = np.random.Generator(np.random.PCG64(9))
        d1 = sample_weak_limit(cfg, rng, size=100_000)
        d2 = sample_weak_limit(cfg_neg, rng, size=100_000)
        assert ks_distance(-d1, d2) < 0.02


_B = weakiv._LIMIT_BLOCK


class TestBlockSampler:
    """The block sampler against the one-shot sampler it replaced."""

    @pytest.mark.parametrize("size", [1, _B - 1, _B, _B + 1, 2 * _B + 1, 3 * _B + 7, 10**6])
    @pytest.mark.parametrize("sigma", [
        [[1.0, 0.5], [0.5, 2.0]],
        [[0.0, 0.0], [0.0, 16.0]],
        [[1.0, 0.0], [0.0, 0.0]],
    ], ids=["full-rank", "s11-zero", "s22-zero"])
    @pytest.mark.parametrize("seed", [7, 8])
    def test_same_bytes_as_the_one_shot_sampler(self, reference_weak_limit, size, sigma, seed):
        cfg = WeakIVConfig(c_a=0.03, c_b=0.5, sigma_ab=np.array(sigma))
        got = sample_weak_limit(cfg, np.random.Generator(np.random.PCG64(seed)), size=size)
        want = reference_weak_limit(cfg, np.random.Generator(np.random.PCG64(seed)), size=size)
        assert got.tobytes() == want.tobytes()

    def test_peak_memory_is_at_most_twice_the_result(self):
        cfg = WeakIVConfig(c_a=0.03, c_b=0.0, sigma_ab=np.array([[1.0, 4.0], [4.0, 16.0]]))
        rng = np.random.Generator(np.random.PCG64(1))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            draws = sample_weak_limit(cfg, rng, size=10**6)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 2 * draws.nbytes


class _ScriptedNormals:
    """A generator stand-in whose standard_normal hands out a fixed script
    of normals in order and records the shape of every request."""

    def __init__(self, script):
        self.script = np.asarray(script, dtype=float).ravel()
        self.used = 0
        self.requests = []

    def standard_normal(self, shape):
        count = shape[0] * shape[1]
        self.requests.append(shape)
        out = self.script[self.used : self.used + count].reshape(shape)
        self.used += count
        return out.copy()


def _per_block(reference, cfg, rng, size):
    """The one-shot sampler run on each block in turn, which reads the
    stream as the rule does: a block's redraws follow its own pairs."""
    return np.concatenate([reference(cfg, rng, size=min(_B, size - lo)) for lo in range(0, size, _B)])


class TestZeroDenominatorRedraw:
    # c_a = 1 and Sigma = I, so N_a is the first normal of a pair and the
    # denominator 1 + N_a is exactly zero where that normal is -1.
    cfg = WeakIVConfig(c_a=1.0, c_b=0.5, sigma_ab=np.eye(2))
    size, first, later = 2 * _B + 10, 3, _B + 5
    # The redraws of block 0 (first) and of block 1 (later).  Block 0's
    # round one hits zero again, so its round two redraws first once more.
    redraws = ([[-1.0, 7.0], [0.5, 2.0]], [[0.25, -3.0]])

    def _script(self, zeros=(first, later), redraws=redraws):
        """Primary pairs with a zero denominator at ``zeros``, each block's
        redraw pairs following the block's own pairs."""
        primary = np.random.Generator(np.random.PCG64(0)).uniform(-0.5, 0.5, (self.size, 2))
        primary[list(zeros), 0] = -1.0
        parts = [primary[: _B], redraws[0], primary[_B : 2 * _B], redraws[1], primary[2 * _B :]]
        return np.concatenate([np.reshape(part, (-1, 2)) for part in parts])

    def _limit(self, na, nb):
        c_a, c_b = self.cfg.c_a, self.cfg.c_b
        return (c_a * nb - c_b * na) / (c_a * c_a + c_a * na)

    def test_redraws_follow_their_own_blocks_pairs(self):
        rng = _ScriptedNormals(self._script())
        draws = sample_weak_limit(self.cfg, rng, size=self.size)
        assert rng.requests == [(_B, 2), (1, 2), (1, 2), (_B, 2), (1, 2), (10, 2)]
        assert rng.used == rng.script.size
        assert draws[self.first] == self._limit(0.5, 2.0)
        assert draws[self.later] == self._limit(0.25, -3.0)
        assert np.all(np.isfinite(draws))

    def test_matches_the_one_shot_sampler_block_by_block(self, reference_weak_limit):
        got = sample_weak_limit(self.cfg, _ScriptedNormals(self._script()), size=self.size)
        want = _per_block(reference_weak_limit, self.cfg, _ScriptedNormals(self._script()), self.size)
        assert got.tobytes() == want.tobytes()


def _blockwise(cfg, rng, size):
    """``sample_weak_limit`` called once per block of at most ``_B`` draws,
    as weakiv-limit calls it, yielding each block as it is drawn."""
    for lo in range(0, size, _B):
        yield sample_weak_limit(cfg, rng, min(_B, size - lo))


class TestLimitBlocks:
    """The sampler called block by block, as weakiv-limit writes from it."""

    cfg = TestZeroDenominatorRedraw.cfg

    def test_hands_over_a_zero_free_block_before_drawing_the_next(self):
        script = np.random.Generator(np.random.PCG64(1)).uniform(-0.5, 0.5, (2 * _B + 10, 2))
        script[_B + 5, 0] = -1.0
        rng = _ScriptedNormals(np.concatenate([script[: 2 * _B], [[0.5, 2.0]], script[2 * _B :]]))
        blocks = _blockwise(self.cfg, rng, 2 * _B + 10)
        first = next(blocks)
        assert rng.requests == [(_B, 2)]
        na, nb = script[:_B, 0], script[:_B, 1]
        assert first.tobytes() == ((nb - 0.5 * na) / (1.0 + na)).tobytes()
        rest = list(blocks)
        assert [b.size for b in rest] == [_B, 10]
        assert rng.requests == [(_B, 2), (_B, 2), (1, 2), (10, 2)]
        assert rng.used == rng.script.size

    @pytest.mark.parametrize("zeros, redraws", [
        ((3, _B + 5), TestZeroDenominatorRedraw.redraws),
        # Both blocks' round one hits zero again.
        ((3, _B + 5), ([[-1.0, 7.0], [0.5, 2.0]], [[-1.0, 1.0], [0.25, -3.0]])),
        # Two zeros in block 0, redrawn in index order; round one hits zero
        # again at the second.
        ((3, 7), ([[0.5, 2.0], [-1.0, 1.0], [0.25, -3.0]], [])),
    ], ids=["second-round", "second-round-in-both", "two-in-one-block"])
    def test_blocks_match_the_one_shot_sampler_block_by_block(self, reference_weak_limit, zeros, redraws):
        case = TestZeroDenominatorRedraw()
        script = case._script(zeros, redraws)
        got = np.concatenate(list(_blockwise(self.cfg, _ScriptedNormals(script), case.size)))
        want = _per_block(reference_weak_limit, self.cfg, _ScriptedNormals(script), case.size)
        assert got.tobytes() == want.tobytes()
        assert np.all(np.isfinite(got))

    def test_draws_beyond_double_range_raise_without_a_warning(self):
        cfg = WeakIVConfig(c_a=1e-150, c_b=1e200, sigma_ab=np.eye(2))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidConfigError, match="double range"):
                sample_weak_limit(cfg, np.random.Generator(np.random.PCG64(0)), size=1000)


class TestSizeArguments:
    cfg = WeakIVConfig(c_a=0.03, c_b=0.5, sigma_ab=np.array([[1.0, 0.5], [0.5, 2.0]]))
    params = DgpParams(pi=1.0, n=1000)

    @pytest.mark.parametrize("size", [-1, 2.5, True, 3.0, "3"])
    def test_samplers_refuse_a_size_that_is_not_a_non_negative_integer(self, size):
        rng = np.random.Generator(np.random.PCG64(0))
        with pytest.raises(InvalidConfigError, match="size"):
            sample_weak_limit(self.cfg, rng, size)
        with pytest.raises(InvalidConfigError, match="size"):
            sample_bivariate_normal(self.cfg.sigma_ab, rng, size)

    def test_a_numpy_size_runs_as_its_python_int(self):
        got = sample_weak_limit(self.cfg, np.random.Generator(np.random.PCG64(3)), np.int64(70_000))
        want = sample_weak_limit(self.cfg, np.random.Generator(np.random.PCG64(3)), 70_000)
        assert got.tobytes() == want.tobytes()

    def test_size_zero_gives_an_empty_array(self):
        draws = sample_weak_limit(self.cfg, np.random.Generator(np.random.PCG64(0)), 0)
        assert draws.shape == (0,) and draws.dtype == float

    @pytest.mark.parametrize("draws", [2.5, True, 1e4])
    def test_calibrator_refuses_a_draw_count_that_is_not_an_integer(self, draws):
        with pytest.raises(InvalidConfigError, match="oracle_draws"):
            estimate_weakiv_config(self.params, draws)

    def test_calibrator_runs_a_numpy_draw_count_as_its_python_int(self):
        got = estimate_weakiv_config(self.params, np.int32(10_000), seed=2)
        want = estimate_weakiv_config(self.params, 10_000, seed=2)
        assert got.sigma_ab.tobytes() == want.sigma_ab.tobytes()
        for name in ("c_a", "c_b", "ca_se", "cb_se", "draws"):
            assert repr(getattr(got, name)) == repr(getattr(want, name)), name


class TestEstimateWeakIVConfig:
    def test_zero_instrument_effect_flagged(self):
        cal = estimate_weakiv_config(DgpParams(pi=0.0, n=1000), oracle_draws=100_000, seed=0)
        assert cal.ca_violated
        assert cal.c_a == 0.0

    def test_zero_outcome_effect_flagged(self):
        # default family: outcome unaffected by (Z, A), so c_b is zero
        cal = estimate_weakiv_config(DgpParams(pi=1.0, n=1000), oracle_draws=100_000, seed=1)
        assert cal.cb_violated
        assert not cal.ca_violated

    def test_reproducible_across_seeds_within_mc_error(self):
        n = 1000
        params = DgpParams(pi=0.15 / math.sqrt(n), n=n)
        cal1 = estimate_weakiv_config(params, oracle_draws=2_000_000, seed=2)
        cal2 = estimate_weakiv_config(params, oracle_draws=2_000_000, seed=3)
        se = math.hypot(cal1.ca_se, cal2.ca_se)
        assert abs(cal1.c_a - cal2.c_a) <= 3.0 * se
        assert np.max(np.abs(cal1.sigma_ab - cal2.sigma_ab)) < 0.02

    def test_treatment_shift_makes_cb_nonzero(self):
        cal = estimate_weakiv_config(
            DgpParams(pi=1.0, n=1000, treatment_shift=2.0), oracle_draws=500_000, seed=4
        )
        assert not cal.cb_violated
        assert cal.c_b == pytest.approx(2.0 * cal.c_a, rel=1e-9)

    @pytest.mark.parametrize("shift", [math.nan, math.inf, -math.inf])
    def test_non_finite_treatment_shift_is_refused(self, shift):
        # It would give c_b = nan and a NaN Sigma_ab without an error.
        with pytest.raises(InvalidConfigError, match="treatment_shift must be finite"):
            estimate_weakiv_config(DgpParams(pi=1.0, n=1000, treatment_shift=shift), oracle_draws=20_000)


def _covariance_se(params, draws):
    """The exact standard error of the calibrator's Sigma_ab entries, the
    sample covariances of ``draws`` oracle score pairs, from the cell
    probabilities: for the unbiased sample covariance s_jk of N draws,
    Var(s_jk) = mu22/N - (N-2)/(N(N-1)) sigma_jk^2 + sigma_jj sigma_kk/(N(N-1)),
    and the calibrator's divisor N scales s_jk by (N-1)/N."""
    p = cell_probabilities(params)
    psi = oracle_cell_values(params)[:2]
    dev = psi - (psi @ p)[:, None]
    sigma = (dev * p) @ dev.T
    mu22 = (dev * dev * p) @ (dev * dev).T
    n = draws
    var = mu22 / n - (n - 2) / (n * (n - 1)) * sigma**2 + np.outer(np.diag(sigma), np.diag(sigma)) / (n * (n - 1))
    return (n - 1) / n * np.sqrt(var)


class TestExactWeakIVConfig:
    """The exact limit parameters against the Monte Carlo calibrator."""

    # The four laws, and one with a treatment shift, where c_b is not zero.
    @pytest.mark.parametrize("pi, shift", [(0.15 / math.sqrt(5000), 0.0), (0.5, 0.0), (5.0, 0.0), (-3.0, 0.0), (0.5, 2.0)])
    def test_calibrator_within_its_monte_carlo_error(self, pi, shift):
        params = DgpParams(pi=pi, n=5000, treatment_shift=shift)
        draws = 10**6
        exact = exact_weakiv_config(params)
        cal = estimate_weakiv_config(params, oracle_draws=draws, seed=123)
        assert abs(cal.c_a - exact.c_a) <= 4.0 * cal.ca_se
        assert abs(cal.c_b - exact.c_b) <= 4.0 * cal.cb_se
        assert np.all(np.abs(cal.sigma_ab - exact.sigma_ab) <= 5.0 * _covariance_se(params, draws))

    def test_weak_law_at_n_5000(self):
        # c_b = 0 and Sigma_bb = 16 exactly: psi_b = +-4 and the outcome is
        # unaffected by (z, a) at a zero treatment shift.
        exact = exact_weakiv_config(DgpParams(pi=0.15 / math.sqrt(5000), n=5000))
        assert exact.c_a == pytest.approx(0.0299206, abs=5e-8) and exact.c_b == 0.0
        assert exact.sigma_ab == pytest.approx(np.array([[0.999999, 3.998307], [3.998307, 16.0]]), abs=5e-7)


def _brute_force_calibration(reference_oracle, params, batches, seed):
    """The calibration from per-unit reference score arrays, drawn batch by
    batch like the calibrator and summed with math.fsum."""
    rng = np.random.Generator(np.random.PCG64(seed))
    draws = [reference_oracle(params, rng, m) for m in batches]
    psi_a, psi_b, ca, cb = (np.concatenate(parts) for parts in zip(*draws))
    total = psi_a.size

    def mean(v):
        return math.fsum(v) / total

    mu_a, mu_b, mean_a, mean_b = mean(psi_a), mean(psi_b), mean(ca), mean(cb)
    root_n = math.sqrt(params.n)
    c_a, c_b = root_n * mean_a, root_n * mean_b
    ca_se = root_n * math.sqrt(max(mean(ca * ca) - mean_a * mean_a, 0.0) / total)
    cb_se = root_n * math.sqrt(max(mean(cb * cb) - mean_b * mean_b, 0.0) / total)
    cov_ab = mean(psi_a * psi_b) - mu_a * mu_b
    sigma = [mean(psi_a * psi_a) - mu_a * mu_a, cov_ab, cov_ab, mean(psi_b * psi_b) - mu_b * mu_b]
    return dict(
        c_a=c_a, c_b=c_b, ca_se=ca_se, cb_se=cb_se, sigma=sigma, draws=total,
        ca_violated=abs(c_a) <= 3.0 * ca_se, cb_violated=abs(c_b) <= 3.0 * cb_se,
    )


class TestCalibratorAgainstBruteForce:
    @pytest.mark.parametrize("params", [
        DgpParams(pi=0.15 / math.sqrt(5000), n=5000),
        DgpParams(pi=1.0, n=1000, treatment_shift=3.0),
        DgpParams(pi=-0.7, n=50, treatment_shift=-2.5),
        DgpParams(pi=0.0, n=10, treatment_shift=1.5),
        DgpParams(pi=5.0, n=7500, treatment_shift=0.25),
    ])
    def test_matches_brute_force_sums(self, monkeypatch, reference_oracle, params):
        # Batches of 1,000 over 4,321 draws: four full batches and a partial one.
        monkeypatch.setattr(weakiv, "_ORACLE_BATCH", 1000)
        cal = estimate_weakiv_config(params, oracle_draws=4321, seed=17)
        ref = _brute_force_calibration(reference_oracle, params, [1000] * 4 + [321], seed=17)
        assert cal.draws == ref["draws"] == 4321
        assert cal.ca_violated == ref["ca_violated"]
        assert cal.cb_violated == ref["cb_violated"]
        got = [cal.c_a, cal.c_b, cal.ca_se, cal.cb_se, *cal.sigma_ab.ravel()]
        want = [ref["c_a"], ref["c_b"], ref["ca_se"], ref["cb_se"], *ref["sigma"]]
        for g, w in zip(got, want):
            assert math.isclose(g, w, rel_tol=1e-12, abs_tol=0.0), (got, want)


class TestCalibratorAgainstFullArrayCells:
    @pytest.mark.parametrize("pi", [0.15 / math.sqrt(5000), 5.0, -3.0], ids=["weak", "5", "-3"])
    def test_same_calibration_as_counting_the_reference_cells(self, monkeypatch, reference_oracle_cells, pi):
        # 1,000,001 draws: one full batch and a one-draw batch.
        params = DgpParams(pi=pi, n=5000)
        got = estimate_weakiv_config(params, oracle_draws=1_000_001, seed=5)
        monkeypatch.setattr(weakiv, "draw_oracle_cells", reference_oracle_cells)
        want = estimate_weakiv_config(params, oracle_draws=1_000_001, seed=5)
        assert got.sigma_ab.tobytes() == want.sigma_ab.tobytes()
        for name in ("c_a", "c_b", "ca_se", "cb_se", "ca_violated", "cb_violated", "draws"):
            assert repr(getattr(got, name)) == repr(getattr(want, name)), name


class TestCalibratorCounts:
    def test_count_slices_do_not_change_the_calibration(self, monkeypatch):
        # 250,003 draws in one batch, counted in slices of 65,536 and of 999.
        params = DgpParams(pi=0.15 / math.sqrt(5000), n=5000)
        want = estimate_weakiv_config(params, oracle_draws=250_003, seed=6)
        monkeypatch.setattr(weakiv, "_CELL_BLOCK", 999)
        got = estimate_weakiv_config(params, oracle_draws=250_003, seed=6)
        assert got.sigma_ab.tobytes() == want.sigma_ab.tobytes()
        for name in ("c_a", "c_b", "ca_se", "cb_se", "ca_violated", "cb_violated", "draws"):
            assert repr(getattr(got, name)) == repr(getattr(want, name)), name

    def test_peak_memory_of_a_batch_is_at_most_3_mb(self):
        # One batch of 10^6 draws holds 1 MB of cells; counting them all at
        # once would cast them to 8 MB of indices.
        params = DgpParams(pi=0.15 / math.sqrt(5000), n=5000)
        estimate_weakiv_config(params, oracle_draws=1000)
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            estimate_weakiv_config(params, oracle_draws=10**6)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 3_000_000


class TestKsDistance:
    def test_identical_samples(self):
        x = np.array([3.0, 1.0, 2.0])
        assert ks_distance(x, x) == 0.0

    def test_disjoint_point_masses(self):
        assert ks_distance(np.zeros(7), np.ones(7)) == 1.0

    def test_same_distribution_small(self):
        rng = np.random.Generator(np.random.PCG64(11))
        a = rng.standard_normal(10_000)
        b = rng.standard_normal(10_000)
        # null 99% quantile is ~1.63*sqrt(2/10000) ~ 0.023
        assert ks_distance(a, b) < 0.03

    def test_empty_rejected(self):
        with pytest.raises(InvalidConfigError):
            ks_distance(np.array([]), np.array([1.0]))

    def test_matches_scipy(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        rng = np.random.Generator(np.random.PCG64(12))
        a = rng.standard_normal(500)
        b = rng.standard_normal(700) + 0.3
        ours = ks_distance(a, b)
        theirs = scipy_stats.ks_2samp(a, b, method="asymp").statistic
        assert ours == pytest.approx(theirs, abs=1e-12)


class TestLimitMatchesReplications:
    def test_ks_small_once_flip_count_is_large(self):
        """Distributional validation of the sampler in its asymptotic regime.

        At instrument strength 0.15/sqrt(n) the expected number of units
        whose treatment the instrument flips is ~0.015*sqrt(n); the
        normal limit describes the estimator only once that count is
        well past one.  n=45000 gives ~3.2 flips per sample and the
        two-sample KS against the sampler is comfortably small.  (At
        n=5000 the count is ~1.06 and the estimator has an atom of mass
        ~e^{-1.06} ~ 0.35 at exactly 4, so no continuous law can be
        closer than ~0.17 there; see test_acceptance for the stated-n
        measurement.)
        """
        n = 45_000
        params = DgpParams(pi=0.15 / math.sqrt(n), n=n)
        cal = estimate_weakiv_config(params, oracle_draws=4_000_000, seed=13)
        cfg = WeakIVConfig(c_a=cal.c_a, c_b=cal.c_b, sigma_ab=cal.sigma_ab)
        cells = run_study(StudySpec(setting="weak", n_grid=(n,), reps=800, seed=14))
        emp = np.array([r.phi_hat for r in cells[0].results])
        rng = np.random.Generator(np.random.PCG64(15))
        draws = sample_weak_limit(cfg, rng, size=100_000)
        assert ks_distance(emp, draws) < 0.05
