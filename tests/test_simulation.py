import itertools
import math
import re
import tracemalloc
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from latescore import (
    DegenerateDataError,
    DgpParams,
    InvalidConfigError,
    LearnerSpec,
    ReplicationResult,
    StudySpec,
    compute_scores,
    cross_fit,
    dgp_generate,
    drml_estimate,
    invert_score_test,
    make_folds,
    quad_coefficients,
    run_replication,
    run_study,
    simulation,
)
from latescore.data import _INDICATOR
from latescore.simulation import _CELL_BLOCK as _B
from latescore.simulation import (
    N_CELLS,
    _draw,
    _splitmix64,
    aggregate,
    cell_probabilities,
    draw_oracle_cells,
    oracle_cell_values,
    oracle_scores,
    replication_seed,
    write_replications_csv,
    write_summary_csv,
)

_PI = st.sampled_from([0.0, -0.0, 0.15 / math.sqrt(5000), 1.0, -1.0, 5.0, -40.0]) | st.floats(-10.0, 10.0)
_SHIFT = (st.floats(-1e3, 1e3) | st.sampled_from([1.0, -2.5, 1e-300, 1e300, -1e300])).filter(lambda v: v != 0.0)


class TestDgpParams:
    @pytest.mark.parametrize("kwargs", [
        dict(pi=1.0, n=1),
        dict(pi=math.nan, n=10),
        dict(pi=math.inf, n=10),
        dict(pi=1.0, n=10, treatment_shift=math.nan),
        dict(pi=1.0, n=10, treatment_shift=math.inf),
        dict(pi=1.0, n=10, treatment_shift=-math.inf),
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(InvalidConfigError):
            DgpParams(**kwargs)

    @pytest.mark.parametrize("n", [300.0, 300.5, True, np.float64(300.0), "300"])
    def test_rejects_a_sample_size_that_is_not_an_integer(self, n):
        with pytest.raises(InvalidConfigError, match="sample size must be an integer"):
            DgpParams(pi=1.0, n=n)

    def test_keeps_a_numpy_integer_sample_size_as_a_python_int(self):
        n = DgpParams(pi=1.0, n=np.int64(300)).n
        assert n == 300 and type(n) is int


class TestDgpGenerate:
    def test_no_instrument_effect_balanced_treatment(self):
        data = dgp_generate(DgpParams(pi=0.0, n=100_000), seed=0)
        rate = data.a.mean()
        se = math.sqrt(0.25 / 100_000)
        assert abs(rate - 0.5) <= 3.0 * se

    def test_strong_instrument_cell_rate_matches_normal_cdf(self):
        data = dgp_generate(DgpParams(pi=5.0, n=1_000_000), seed=1)
        mask = (data.z == 1) & (data.x[:, 0] > 0)
        rate = data.a[mask].mean()
        target = 0.5 * math.erfc(-5.0 / math.sqrt(2.0))  # Phi(5)
        assert target == pytest.approx(0.9999997, abs=1e-7)
        assert abs(rate - target) < 3e-4

    def test_outcome_structure(self):
        data = dgp_generate(DgpParams(pi=1.0, n=1000, treatment_shift=3.0), seed=2)
        base = data.y - 3.0 * data.a
        assert set(np.unique(base)) <= {-2.0, 0.0, 2.0}

    def test_deterministic(self):
        a = dgp_generate(DgpParams(pi=1.0, n=500), seed=3)
        b = dgp_generate(DgpParams(pi=1.0, n=500), seed=3)
        for column in ("y", "a", "z", "x"):
            assert np.array_equal(getattr(a, column), getattr(b, column))

    def test_rejects_tiny_n(self):
        with pytest.raises(InvalidConfigError):
            DgpParams(pi=1.0, n=1)

    @settings(max_examples=60, deadline=None)
    @given(pi=_PI, shift=st.floats(-1e3, 1e3), n=st.integers(2, 3000), seed=st.integers(0, 2**64 - 1))
    def test_matches_the_reference_draw_bit_for_bit(self, reference_dgp, pi, shift, n, seed):
        params = DgpParams(pi=pi, n=n, treatment_shift=shift)
        data = dgp_generate(params, seed)
        x, z, a, y = reference_dgp(params, np.random.Generator(np.random.PCG64(seed)), n)
        z, a = z.astype(_INDICATOR), a.astype(_INDICATOR)
        for got, want in ((data.x, x.reshape(-1, 1)), (data.z, z), (data.a, a), (data.y, y)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


class TestOracleScores:
    def test_contrasts(self):
        params = DgpParams(pi=1.0, n=100, treatment_shift=3.0)
        _, _, contrast_a, contrast_b = oracle_scores(params, np.random.Generator(np.random.PCG64(4)), 1000)
        x = _draw(params, np.random.Generator(np.random.PCG64(4)), 1000)[0]
        assert 0 < np.count_nonzero(x > 0) < 1000
        phi1 = 0.5 * math.erfc(-1.0 / math.sqrt(2.0))
        assert np.array_equal(contrast_a, np.where(x > 0, phi1 - 0.5, 0.0))
        np.testing.assert_allclose(contrast_b, 3.0 * contrast_a, rtol=1e-14, atol=0.0)


class _ScriptedRng:
    """Stands in for a Generator: hands out the given arrays in call order."""

    def __init__(self, *arrays):
        self.arrays = list(arrays)

    def _next(self, size):
        out = self.arrays.pop(0)
        assert out.shape == (size,)
        return out.copy()

    standard_normal = random = _next


def _assert_same_bits(got, want):
    assert len(got) == len(want) == 4
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        assert g.tobytes() == w.tobytes()


_NORMAL = st.floats(-6.0, 6.0) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324])


class TestOracleCellTable:
    """The oracle cell table against the per-unit score formula it replaced."""

    @settings(max_examples=150, deadline=None)
    @given(pi=_PI, shift=_SHIFT, size=st.integers(0, 5000), seed=st.integers(0, 2**64 - 1))
    @example(pi=0.15 / math.sqrt(5000), shift=1.0, size=100_003, seed=5)
    @example(pi=1.0, shift=3.0, size=100_003, seed=6)
    def test_matches_the_per_unit_formula_bit_for_bit(self, reference_oracle, pi, shift, size, seed):
        params = DgpParams(pi=pi, n=2, treatment_shift=shift)
        got = oracle_scores(params, np.random.Generator(np.random.PCG64(seed)), size)
        want = reference_oracle(params, np.random.Generator(np.random.PCG64(seed)), size)
        _assert_same_bits(got, want)

    @settings(max_examples=150, deadline=None)
    @given(data=st.data(), pi=_PI, shift=_SHIFT, size=st.integers(1, 40))
    def test_every_cell_on_scripted_draws(self, reference_oracle, data, pi, shift, size):
        # Exact zeros of u (sign 0) and x, and u = -pi (the treatment boundary),
        # never come out of a real generator.
        u = data.draw(arrays(np.float64, size, elements=_NORMAL | st.just(-pi)))
        x = data.draw(arrays(np.float64, size, elements=_NORMAL))
        uniform = data.draw(arrays(np.float64, size, elements=st.sampled_from([0.0, 0.25, 0.5, 0.75])))
        params = DgpParams(pi=pi, n=2, treatment_shift=shift)
        got = oracle_scores(params, _ScriptedRng(u, x, uniform), size)
        _assert_same_bits(got, reference_oracle(params, _ScriptedRng(u, x, uniform), size))

    def test_cell_numbers(self):
        # (z, x, u) -> 12*z + 6*1{x > 0} + 3*a + sign(u) + 1, over the 13 cells
        # the law can reach at pi = 1, where a = 1{u > -1} if z = 1 and x > 0
        # and a = 1{u > 0} otherwise.
        cases = [
            (0, -1.0, -0.5, 0), (0, -1.0, 0.0, 1), (0, -1.0, 0.5, 5),
            (0, 1.0, -0.5, 6), (0, 1.0, -0.0, 7), (0, 1.0, 0.5, 11),
            (1, 0.0, -0.5, 12), (1, -1.0, 0.0, 13), (1, -1.0, 0.5, 17),
            (1, 1.0, -2.0, 18), (1, 1.0, -0.5, 21), (1, 1.0, 0.0, 22), (1, 1.0, 0.5, 23),
        ]
        z, x, u, expected = (np.array(column) for column in zip(*cases))
        rng = _ScriptedRng(u, x, np.where(z == 1, 0.25, 0.75))
        cells = draw_oracle_cells(DgpParams(pi=1.0, n=2), rng, len(cases))
        assert cells.dtype == np.uint8
        assert cells.tolist() == expected.tolist()
        assert N_CELLS == 24

    def test_a_shift_whose_scores_overflow_is_refused(self):
        # At pi = 1 a unit with z = 1, x > 0 and a = 0 has psi_b of about
        # -2 * Phi(1) * shift + (Phi(1) - 0.5) * shift, beyond double range.
        with np.errstate(over="ignore"), pytest.raises(DegenerateDataError, match="scores must be finite") as caught:
            oracle_cell_values(DgpParams(pi=1.0, n=2, treatment_shift=1.7e308))
        assert type(caught.value) is DegenerateDataError


class TestCellProbabilities:
    """The closed-form law of the cells against draws from ``draw_oracle_cells``."""

    @pytest.mark.parametrize("pi", [0.15 / math.sqrt(5000), 0.5, 5.0, -3.0])
    def test_a_million_draws_fall_within_5_binomial_ses_of_every_cell(self, pi):
        params = DgpParams(pi=pi, n=5000)
        p = cell_probabilities(params)
        draws = 10**6
        cells = draw_oracle_cells(params, np.random.Generator(np.random.PCG64(0)), draws)
        counts = np.bincount(cells, minlength=N_CELLS)
        assert p.shape == (N_CELLS,) and math.isclose(p.sum(), 1.0, rel_tol=1e-15)
        # A cell of probability zero has a zero SE, so it must stay empty.
        assert np.all(np.abs(counts - draws * p) <= 5.0 * np.sqrt(draws * p * (1.0 - p)))


class TestDrawTreatment:
    """_draw's treatment threshold against the law's formula it replaced."""

    @pytest.mark.parametrize("pi", [0.15 / math.sqrt(5000), 5.0, -3.0, 1e-300], ids=["weak", "5", "-3", "1e-300"])
    def test_matches_the_law_at_the_boundaries(self, pi):
        edges = [0.0, -0.0, 5e-324, -5e-324, -pi, math.nextafter(-pi, math.inf), math.nextafter(-pi, -math.inf)]
        # Every edge value of u with each (z, sign of x) pair, x = +-0.0 included.
        u, x, z = (np.array(column) for column in zip(*itertools.product(edges, [1.0, -1.0, 0.0, -0.0], [0, 1])))
        uniform = np.where(z == 1, 0.25, 0.75)
        x_got, z_got, a, u_got = _draw(DgpParams(pi=pi, n=2), _ScriptedRng(u, x, uniform), u.size)
        assert u_got.tobytes() == u.tobytes() and x_got.tobytes() == x.tobytes()
        assert z_got.tolist() == (z == 1).tolist()
        assert a.dtype == np.bool_
        assert a.tolist() == (pi * (z == 1) * (x > 0) + u > 0).tolist()


class _RecordingRng:
    """A Generator that records the kind and size of every request."""

    def __init__(self, seed):
        self.rng = np.random.Generator(np.random.PCG64(seed))
        self.requests = []

    def standard_normal(self, size):
        self.requests.append(("normal", size))
        return self.rng.standard_normal(size)

    def random(self, size):
        self.requests.append(("uniform", size))
        return self.rng.random(size)


class TestBlockCellReader:
    """The block-wise cell reader against the full-array draw it replaced."""

    @pytest.mark.parametrize("size", [_B - 1, _B, _B + 1, 2 * _B + 1])
    @pytest.mark.parametrize("pi", [0.15 / math.sqrt(5000), 5.0, -3.0], ids=["weak", "5", "-3"])
    def test_same_bytes_as_the_full_array_draw(self, reference_oracle_cells, pi, size):
        params = DgpParams(pi=pi, n=5000)
        got = draw_oracle_cells(params, np.random.Generator(np.random.PCG64(9)), size)
        want = reference_oracle_cells(params, np.random.Generator(np.random.PCG64(9)), size)
        assert got.dtype == want.dtype == np.uint8
        assert got.tobytes() == want.tobytes()

    def test_reads_u_then_x_then_the_uniforms_block_by_block(self, reference_oracle_cells):
        params = DgpParams(pi=0.5, n=100)
        rng = _RecordingRng(3)
        cells = draw_oracle_cells(params, rng, 2 * _B + 3)
        blocks = [_B, _B, 3]
        assert rng.requests == [("normal", m) for m in 2 * blocks] + [("uniform", m) for m in blocks]
        want = reference_oracle_cells(params, np.random.Generator(np.random.PCG64(3)), 2 * _B + 3)
        assert cells.tobytes() == want.tobytes()

    def test_peak_memory_is_at_most_three_times_the_result(self):
        params = DgpParams(pi=0.15 / math.sqrt(5000), n=5000)
        rng = np.random.Generator(np.random.PCG64(1))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            cells = draw_oracle_cells(params, rng, 10**6)
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert peak <= 3 * cells.nbytes


class TestReplicationSeeds:
    def test_distinct_over_grid(self):
        seeds = {
            replication_seed(42, n, rep)
            for n in (1500, 4500, 7500, 10500, 12000)
            for rep in range(1000)
        }
        assert len(seeds) == 5000

    def test_depends_on_all_inputs(self):
        assert replication_seed(1, 100, 0) != replication_seed(2, 100, 0)
        assert replication_seed(1, 100, 0) != replication_seed(1, 101, 0)
        assert replication_seed(1, 100, 0) != replication_seed(1, 100, 1)


class TestRunReplication:
    def test_strong_setting_gives_finite_interval(self):
        spec = StudySpec(setting="strong", n_grid=(1500,), reps=1, seed=0)
        r = run_replication(DgpParams(pi=5.0, n=1500), spec, rep_id=0)
        assert r.set_tag == "finite_interval"
        assert math.isfinite(r.diam_score)

    def test_weak_setting_mostly_infinite(self):
        n = 1500
        spec = StudySpec(setting="weak", n_grid=(n,), reps=40, seed=1)
        cells = run_study(spec)
        inf_frac = np.mean([not math.isfinite(r.diam_score) for r in cells[0].results])
        assert inf_frac > 0.5

    def test_bit_identical_repeat(self):
        spec = StudySpec(setting="strong", n_grid=(800,), reps=1, seed=2)
        params = DgpParams(pi=5.0, n=800)
        r1 = run_replication(params, spec, rep_id=7)
        r2 = run_replication(params, spec, rep_id=7)
        assert r1 == r2


def _mc_itt_ratio(draw_fn, draws, seed):
    """Independent oracle: ratio of intent-to-treat contrasts by simulation.

    ``draw_fn(rng, size)`` must return (y1, y0, a1, a0): potential outcomes
    and treatments under both instrument levels.
    """
    rng = np.random.Generator(np.random.PCG64(seed))
    y1, y0, a1, a0 = draw_fn(rng, draws)
    return float(np.mean(y1 - y0) / np.mean(a1 - a0))


class TestTargetRatio:
    """run_replication scores coverage against the law's target ratio, its
    treatment_shift, which is undefined at pi = 0."""

    @pytest.mark.parametrize("pi", [0.0, -0.0])
    def test_undefined_at_pi_zero(self, pi, monkeypatch):
        def dgp_generate(params, seed):
            raise AssertionError("the sample was drawn")

        monkeypatch.setattr(simulation, "dgp_generate", dgp_generate)
        spec = StudySpec(setting="strong", n_grid=(500,), reps=1, seed=0)
        message = "the target ratio is undefined at pi=0 (zero instrument effect on treatment)"
        with pytest.raises(InvalidConfigError, match=re.escape(message)):
            run_replication(DgpParams(pi=pi, n=500, treatment_shift=3.0), spec, rep_id=0)

    @pytest.mark.parametrize("shift", [0.0, 3.0])
    def test_coverage_is_membership_of_the_shift(self, shift):
        # At seed 0, these four replications cover with both sets, miss with
        # both, and cover with one set only.
        n = 1500
        spec = StudySpec(setting="strong", n_grid=(n,), reps=1, seed=0)
        params = DgpParams(pi=spec.pi_for(n), n=n, treatment_shift=shift)
        outcomes = set()
        for rep_id in (0, 8, 12, 26):
            seed = replication_seed(spec.seed, n, rep_id)
            data = dgp_generate(params, seed)
            folds = make_folds(n, spec.learner.K, _splitmix64(seed))
            scores = compute_scores(data, cross_fit(data, spec.learner, folds))
            cset = invert_score_test(quad_coefficients(scores, spec.alpha))
            drml = drml_estimate(scores, spec.alpha)
            result = run_replication(params, spec, rep_id)
            assert result.covered_score == cset.contains(shift)
            assert result.covered_wald == drml.contains(shift)
            outcomes.add((result.covered_score, result.covered_wald))
        assert outcomes == set(itertools.product([False, True], repeat=2))

    def test_the_laws_ratio_is_the_shift(self):
        # Y(1) - Y(0) = 3 (A(1) - A(0)) unit by unit, so the ratio of the
        # intent-to-treat contrasts is the shift at any number of draws.
        params = DgpParams(pi=1.0, n=2, treatment_shift=3.0)

        def draw(rng, size):
            u = rng.standard_normal(size)
            x = rng.standard_normal(size)
            a1 = ((params.pi * (x > 0) + u) > 0).astype(float)
            a0 = (u > 0).astype(float)
            y1 = 2.0 * np.sign(u) + 3.0 * a1
            y0 = 2.0 * np.sign(u) + 3.0 * a0
            return y1, y0, a1, a0

        y1, y0, a1, a0 = draw(np.random.Generator(np.random.PCG64(23)), 100_000)
        assert np.array_equal(y1 - y0, params.treatment_shift * (a1 - a0))
        assert np.count_nonzero(a1 != a0) > 0
        oracle = _mc_itt_ratio(draw, draws=100_000, seed=23)
        assert oracle == pytest.approx(params.treatment_shift, abs=1e-9)

    def test_perfect_compliance_identity_outcome(self):
        # A equals Z and Y equals A: the contrast ratio is exactly one
        def draw(rng, size):
            a1 = np.ones(size)
            a0 = np.zeros(size)
            return a1.copy(), a0.copy(), a1, a0

        assert _mc_itt_ratio(draw, draws=1000, seed=1) == pytest.approx(1.0)


class TestPointSetHoldsTheEstimate:
    """A point set from scores is {mb/ma}, the ratio estimate, on the
    zero-complier replications where the vertex -b/(2a) missed it by a few ulps."""

    @pytest.mark.parametrize(
        "n, rep_id", [(1500, 155), (1500, 164), (1500, 216), (5000, 70), (5000, 132), (5000, 208), (5000, 383)]
    )
    def test_phi_hat_is_the_point(self, n, rep_id):
        spec = StudySpec(setting="weak", seed=0)
        seed = replication_seed(spec.seed, n, rep_id)
        data = dgp_generate(DgpParams(pi=spec.pi_for(n), n=n), seed)
        folds = make_folds(n, spec.learner.K, _splitmix64(seed))
        scores = compute_scores(data, cross_fit(data, spec.learner, folds))
        cset = invert_score_test(quad_coefficients(scores, spec.alpha))
        phi_hat = drml_estimate(scores, spec.alpha).phi_hat
        assert cset.tag == "point"
        assert cset.contains(phi_hat)
        assert cset.lo == cset.hi == phi_hat


def _bits(outcome):
    """A replication's outcome with floats as hex text: the result's fields,
    or the type and text of the error it raised."""
    try:
        result = outcome()
    except Exception as exc:  # the reference must fail the same way
        return type(exc).__name__, str(exc)
    return tuple(v.hex() if isinstance(v, float) else v for v in vars(result).values())


class TestReplicationAgainstReference:
    """run_replication must give the bits, or the error, of the pipeline it
    replaced (``reference_replication`` in conftest.py)."""

    @settings(max_examples=200, deadline=None)
    @given(
        setting=st.sampled_from(["weak", "strong", "custom"]),
        pi=st.floats(-10.0, 10.0).filter(lambda v: v != 0.0),
        K=st.integers(2, 10),
        extra=st.one_of(st.integers(0, 30), st.integers(0, 2990)),
        seed=st.integers(0, 2**32 - 1),
        rep_id=st.integers(0, 10**6),
        shift=(
            st.sampled_from([0.0, 1.0, -2.5, 0.1, 1e17, 1e300, -1.7e308])
            | st.floats(allow_nan=False, allow_infinity=False)
        ),
    )
    @example(setting="strong", pi=1.0, K=5, extra=1495, seed=7, rep_id=0, shift=1e308)
    @example(setting="strong", pi=1.0, K=5, extra=1495, seed=7, rep_id=0, shift=-1e308)
    @example(setting="weak", pi=1.0, K=5, extra=0, seed=11, rep_id=0, shift=0.0)
    @example(setting="custom", pi=0.3, K=5, extra=295, seed=3, rep_id=4, shift=0.1)
    def test_same_bits_or_same_error(self, reference_engine, setting, pi, K, extra, seed, rep_id, shift):
        n = K + extra
        learner = LearnerSpec(g_learner="cell_mean", r_learner="cell_mean", m_learner="known_constant", K=K)
        custom_pi = pi if setting == "custom" else None
        spec = StudySpec(setting=setting, pi=custom_pi, n_grid=(n,), reps=1, seed=seed, learner=learner)
        params = DgpParams(pi=spec.pi_for(n), n=n, treatment_shift=shift)
        # The reference sums its tables without the package's np.errstate.
        with np.errstate(over="ignore", invalid="ignore"):
            expected = _bits(lambda: reference_engine(params, spec, rep_id))
        assert _bits(lambda: run_replication(params, spec, rep_id)) == expected


class TestAggregate:
    def _result(self, rep_id, covered_score=True, covered_wald=True, diam_score=1.0,
                diam_wald=1.0, tag="finite_interval", dn0=10.0, phi_hat=0.0):
        return ReplicationResult(
            rep_id=rep_id, covered_score=covered_score, covered_wald=covered_wald,
            diam_score=diam_score, diam_wald=diam_wald, set_tag=tag, dn0=dn0, phi_hat=phi_hat,
        )

    def test_all_covered(self):
        s = aggregate([self._result(i) for i in range(4)])
        assert s.coverage_score == 1.0
        assert s.coverage_wald == 1.0
        assert s.se_score == 0.0

    def test_median_with_infinity(self):
        results = [
            self._result(0, diam_score=1.0),
            self._result(1, diam_score=2.0),
            self._result(2, diam_score=math.inf, tag="whole_line"),
        ]
        s = aggregate(results)
        assert s.median_diam_score == 2.0
        assert s.frac_infinite == pytest.approx(1.0 / 3.0)

    def test_ratio_restricted_to_jointly_finite(self):
        results = [
            self._result(0, diam_score=2.0, diam_wald=1.0),
            self._result(1, diam_score=math.inf, diam_wald=1.0, tag="whole_line"),
        ]
        s = aggregate(results)
        assert s.median_ratio == 2.0

    def test_empty_rejected(self):
        with pytest.raises(InvalidConfigError):
            aggregate([])


class TestRunStudy:
    def test_order_invariance(self):
        spec = StudySpec(setting="strong", n_grid=(600,), reps=12, seed=9)
        sequential = run_study(spec)
        rng = np.random.Generator(np.random.PCG64(0))
        order = rng.permutation(12).tolist()
        shuffled = run_study(spec, order=order)
        assert sequential[0].results == shuffled[0].results

    def test_stops_at_the_first_grid_point_without_a_success(self):
        # At n=5 and seed 11 both weak replications fail; n=300 would succeed.
        spec = StudySpec(setting="weak", n_grid=(5, 300), reps=2, seed=11)
        with pytest.raises(DegenerateDataError) as caught:
            run_study(spec)
        assert str(caught.value) == (
            "setting=weak n=5: all 2 replications failed; the first (rep 0): "
            "training complement of fold 0 contains only instrument level 0"
        )

    def test_bad_order_rejected(self):
        spec = StudySpec(setting="strong", n_grid=(600,), reps=3, seed=9)
        with pytest.raises(InvalidConfigError):
            run_study(spec, order=[0, 0, 1])

    def test_infinite_diameter_equivalence_small_run(self):
        z2 = NormalDist().inv_cdf(0.975) ** 2
        spec = StudySpec(setting="weak", n_grid=(1000,), reps=60, seed=3)
        cells = run_study(spec)
        for r in cells[0].results:
            assert (not math.isfinite(r.diam_score)) == (r.dn0 <= z2)

    def test_custom_setting_uses_pi(self):
        spec = StudySpec(setting="custom", pi=0.7, n_grid=(500,), reps=1, seed=4)
        assert spec.pi_for(500) == 0.7

    def test_weak_pi_scales_with_n(self):
        spec = StudySpec(setting="weak", n_grid=(100, 400), reps=1, seed=5)
        assert spec.pi_for(100) == pytest.approx(0.015)
        assert spec.pi_for(400) == pytest.approx(0.0075)


class TestStudySpecValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(setting="unknown"),
        dict(setting="custom"),
        dict(reps=0),
        dict(alpha=0.0),
        dict(alpha=1.0),
        dict(alpha=1e-17),
        dict(n_grid=()),
        dict(n_grid=(1,)),
        dict(setting="custom", pi=0.0),
        dict(setting="custom", pi=math.nan),
        dict(setting="custom", pi=math.inf),
        dict(setting="custom", pi=-math.inf),
        dict(seed=2**64),
        dict(setting="weak", pi=0.3),  # each of these settings fixes its own pi
        dict(setting="strong", pi=5.0),
    ])
    def test_rejects(self, kwargs):
        with pytest.raises(InvalidConfigError):
            StudySpec(**kwargs)

    def test_takes_every_64_bit_seed(self):
        assert StudySpec(seed=2**64 - 1).seed == 2**64 - 1

    def test_rejects_n_below_fold_count(self):
        with pytest.raises(InvalidConfigError, match=r"n=4 is below the fold count K=5"):
            StudySpec(n_grid=(300, 4, 3))

    @pytest.mark.parametrize("kwargs, field", [
        (dict(reps=2.5), "replication count"),
        (dict(reps=3.0), "replication count"),
        (dict(reps=True), "replication count"),
        (dict(n_grid=(300.5,)), "sample size"),
        (dict(n_grid=(300, 600.0)), "sample size"),
        (dict(n_grid=(True, 300)), "sample size"),
        (dict(seed=2.5), "seed"),
        (dict(seed=True), "seed"),
    ])
    def test_rejects_sizes_that_are_not_integers(self, kwargs, field):
        with pytest.raises(InvalidConfigError, match=f"{field} must be an integer"):
            StudySpec(**kwargs)

    def test_takes_numpy_integer_sizes(self):
        spec = StudySpec(reps=np.int64(2), n_grid=(np.int32(40), np.int64(50)))
        assert [len(cell.results) + len(cell.failures) for cell in run_study(spec)] == [2, 2]

    def test_a_numpy_integer_seed_runs_as_its_python_int(self, tmp_path):
        for seed in (3, np.int64(3)):
            spec = StudySpec(seed=seed, reps=2, n_grid=(50,))
            assert type(spec.seed) is int
            write_replications_csv(run_study(spec), str(tmp_path / f"{type(seed).__name__}.csv"))
        assert (tmp_path / "int64.csv").read_bytes() == (tmp_path / "int.csv").read_bytes()


class TestStudyWritersAgainstFStringReference:
    @pytest.mark.parametrize("setting", ["weak", "strong"])
    def test_same_bytes(self, tmp_path, reference_row_writers, setting):
        cells = run_study(StudySpec(setting=setting, n_grid=(200, 600), reps=5, seed=3))
        if setting == "weak":
            # Unbounded sets write inf diameters, and a cell without a bounded
            # one a NaN median ratio.
            assert math.isinf(cells[0].results[0].diam_score)
            assert math.isnan(aggregate(cells[0].results).median_ratio)
        write_reps, write_summary, _ = reference_row_writers
        pairs = ((write_replications_csv, write_reps), (write_summary_csv, write_summary))
        for (ours, reference), written in itertools.product(pairs, (cells, [])):
            ours(written, str(tmp_path / "ours.csv"))
            reference(written, str(tmp_path / "reference.csv"))
            assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()
