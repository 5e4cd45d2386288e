import math
import re
import struct
import warnings
from fractions import Fraction
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from latescore import (
    ConfidenceSet,
    Dataset,
    DegenerateDataError,
    InvalidConfigError,
    LearnerSpec,
    QuadCoefficients,
    ScoreSample,
    WeakDenominatorError,
    compute_scores,
    cross_fit,
    drml_estimate,
    invert_score_test,
    make_folds,
    quad_coefficients,
    score_statistic,
)
from latescore.inference import dn_statistic

from conftest import ReferenceQuadCoefficients, iv_data, reference_quad_coefficients, zero_tolerances

Z975 = 1.959963984540054
EMPTY = ConfidenceSet("empty", math.inf, -math.inf)
WHOLE_LINE = ConfidenceSet("whole_line")


def make_coeffs(a, b, c):
    return QuadCoefficients(
        a=a, b=b, c=c, delta=b * b - 4.0 * a * c, z_crit=Z975,
        tol_a=1e-12 * max(abs(a), 1.0), tol_delta=1e-12 * max(b * b, 4.0 * abs(a * c)),
    )


def random_scores(rng, n=50, strong=False):
    psi_a = rng.standard_normal(n) + (2.0 if strong else 0.0)
    psi_b = rng.standard_normal(n) + 0.5 * psi_a
    return ScoreSample(psi_a=psi_a, psi_b=psi_b)


class TestNormalQuantile:
    """The critical value z, the 1-alpha/2 standard-normal quantile."""

    SCORES = ScoreSample(psi_a=np.array([1.0, 2.0]), psi_b=np.array([0.0, 1.0]))

    def test_upper_975(self):
        assert abs(quad_coefficients(self.SCORES, 0.05).z_crit - 1.959963984540054) < 1e-12

    def test_against_scipy_oracle(self):
        scipy_stats = pytest.importorskip("scipy.stats")
        alphas = np.concatenate([np.linspace(1e-9, 1 - 1e-9, 4001), [1e-15, 0.05, 1 - 1e-15]])
        for alpha in alphas:
            z = quad_coefficients(self.SCORES, float(alpha)).z_crit
            assert abs(z - scipy_stats.norm.ppf(1.0 - alpha / 2.0)) < 1e-12

    # 1e-300 is inside (0, 1), but 1 - alpha/2 rounds to 1.0 and z is infinite.
    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5, 1e-300, math.nan])
    def test_domain(self, alpha):
        with pytest.raises(InvalidConfigError):
            quad_coefficients(self.SCORES, alpha)
        with pytest.raises(InvalidConfigError):
            drml_estimate(self.SCORES, alpha)


class TestScoreStatistic:
    def test_zero_mean_numerator(self):
        s = ScoreSample(psi_a=np.array([0.0, 0.0]), psi_b=np.array([1.0, -1.0]))
        assert score_statistic(s, 5.0) == 0.0

    def test_hand_value(self):
        s = ScoreSample(psi_a=np.array([0.0, 0.0]), psi_b=np.array([1.0, 1.0]))
        for theta in (-3.0, 0.0, 11.0):
            assert score_statistic(s, theta) == pytest.approx(math.sqrt(2.0), abs=1e-14)

    def test_matches_transcription(self):
        rng = np.random.Generator(np.random.PCG64(3))
        s = random_scores(rng)
        for theta in np.linspace(-4, 4, 17):
            d = s.psi_b - theta * s.psi_a
            oracle = math.sqrt(s.n) * d.mean() / math.sqrt((d**2).mean())
            assert abs(score_statistic(s, theta) - oracle) < 1e-12

    def test_degenerate(self):
        s = ScoreSample(psi_a=np.array([1.0, 1.0]), psi_b=np.array([2.0, 2.0]))
        with pytest.raises(DegenerateDataError):
            score_statistic(s, 2.0)

    def test_an_overflowing_second_moment_is_undefined_without_a_warning(self):
        # theta*theta overflows once |theta| passes about 1.3e154.
        s = random_scores(np.random.Generator(np.random.PCG64(5)))
        thetas = np.array([-1e200, -2e154, 1e155, 1.7e308, math.inf])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isnan(score_statistic(s, thetas)).all()
            for theta in thetas.tolist():
                with pytest.raises(DegenerateDataError, match=re.escape(f"at theta={theta}")):
                    score_statistic(s, theta)

    # ratio makes psi_b = ratio * psi_a, so the second moment vanishes (or
    # nearly) at theta = ratio; ratio 0 leaves psi_b identically zero.
    @settings(max_examples=200, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 40),
        ratio=st.sampled_from([None, 0.0, 0.5, 2.0, -3.0]),
        thetas=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=20),
    )
    def test_array_matches_float_calls_bit_for_bit(self, seed, n, ratio, thetas):
        rng = np.random.Generator(np.random.PCG64(seed))
        psi_a = rng.standard_normal(n)
        psi_b = rng.standard_normal(n) if ratio is None else ratio * psi_a
        s = ScoreSample(psi_a=psi_a, psi_b=psi_b)
        thetas = np.array(thetas + ([] if ratio is None else [ratio]))
        got = score_statistic(s, thetas)
        assert got.shape == thetas.shape
        for theta, value in zip(thetas.tolist(), got.tolist()):
            try:
                expected = score_statistic(s, theta)
            except DegenerateDataError:
                assert math.isnan(value)
            else:
                assert type(expected) is float
                assert struct.pack("<d", value) == struct.pack("<d", expected)


class TestQuadCoefficients:
    def test_hand_case(self):
        s = ScoreSample(psi_a=np.array([1.0, 1.0]), psi_b=np.array([0.0, 0.0]))
        co = quad_coefficients(s, 0.05)
        z2 = co.z_crit**2
        assert co.a == pytest.approx(2.0 - z2, abs=1e-12)
        assert co.b == 0.0
        assert co.c == 0.0

    def test_all_zero_scores_flagged(self):
        s = ScoreSample(psi_a=np.zeros(4), psi_b=np.zeros(4))
        with pytest.raises(DegenerateDataError, match="^both score vectors are identically zero$"):
            quad_coefficients(s, 0.05)

    @pytest.mark.parametrize("swap", [False, True])
    def test_a_nonzero_score_vector_whose_moments_underflow_raises(self, swap):
        # The mean is 0 and every square underflows, so a (or c) reads 0;
        # exactly it is -z^2 * 1e-340, and with tiny psi_a the set is two
        # rays, not the empty set that a = b = 0, c > 0 gave.
        tiny, ones = np.array([1e-170, -1e-170] * 2), np.ones(4)
        psi_a, psi_b = (ones, tiny) if swap else (tiny, ones)
        with pytest.raises(DegenerateDataError, match="underflow"):
            quad_coefficients(ScoreSample(psi_a=psi_a, psi_b=psi_b), 0.05)

    def test_grid_membership_agrees_with_statistic(self):
        rng = np.random.Generator(np.random.PCG64(8))
        s = random_scores(rng, n=100, strong=True)
        co = quad_coefficients(s, 0.05)
        cset = invert_score_test(co)
        for theta in np.linspace(-10, 10, 2001):
            quad = co.a * theta**2 + co.b * theta + co.c
            band = 1e-6 * (abs(co.a) * theta**2 + abs(co.b) * abs(theta) + abs(co.c) + 1.0)
            if abs(quad) <= band:
                continue
            by_stat = abs(score_statistic(s, theta)) <= co.z_crit
            assert cset.contains(theta) == by_stat

    def test_delta_consistency(self):
        rng = np.random.Generator(np.random.PCG64(9))
        for _ in range(50):
            s = random_scores(rng)
            co = quad_coefficients(s, 0.1)
            ref = max(abs(co.b * co.b), abs(4 * co.a * co.c), 1.0)
            assert abs(co.delta - (co.b * co.b - 4 * co.a * co.c)) <= 8 * np.finfo(float).eps * ref


class TestInvertScoreTest:
    def test_finite_interval(self):
        cset = invert_score_test(make_coeffs(1.0, 0.0, -1.0))
        assert cset == ConfidenceSet("finite_interval", -1.0, 1.0)

    def test_two_rays(self):
        cset = invert_score_test(make_coeffs(-1.0, 0.0, 1.0))
        assert cset == ConfidenceSet("two_rays", -1.0, 1.0)
        assert cset.contains(-2.0) and cset.contains(2.0) and not cset.contains(0.0)

    def test_empty(self):
        assert invert_score_test(make_coeffs(1.0, 0.0, 1.0)) == EMPTY

    def test_whole_line_negative_definite(self):
        assert invert_score_test(make_coeffs(-1.0, 0.0, -1.0)) == WHOLE_LINE

    def test_left_ray(self):
        assert invert_score_test(make_coeffs(0.0, 2.0, -4.0)) == ConfidenceSet("left_ray", hi=2.0)

    def test_right_ray(self):
        assert invert_score_test(make_coeffs(0.0, -2.0, -4.0)) == ConfidenceSet("right_ray", lo=-2.0)

    def test_point_requires_upward_parabola(self):
        assert invert_score_test(make_coeffs(1.0, -2.0, 1.0)) == ConfidenceSet("point", 1.0, 1.0)

    def test_tangent_downward_parabola_is_whole_line(self):
        # -(theta-1)^2 <= 0 holds everywhere, not only at the vertex
        cset = invert_score_test(make_coeffs(-1.0, 2.0, -1.0))
        assert cset == WHOLE_LINE

    def test_degenerate_constant_cases(self):
        assert invert_score_test(make_coeffs(0.0, 0.0, -1.0)) == WHOLE_LINE
        assert invert_score_test(make_coeffs(0.0, 0.0, 1.0)) == EMPTY
        assert invert_score_test(make_coeffs(0.0, 0.0, 0.0)) == WHOLE_LINE

    def test_root_ordering(self):
        rng = np.random.Generator(np.random.PCG64(10))
        for _ in range(500):
            a, b, c = rng.standard_normal(3) * 10.0
            cset = invert_score_test(make_coeffs(a, b, c))
            if cset.tag in ("finite_interval", "two_rays"):
                assert cset.lo <= cset.hi

    @given(
        a=st.floats(allow_nan=False, allow_infinity=False, width=64),
        b=st.floats(allow_nan=False, allow_infinity=False, width=64),
        c=st.floats(allow_nan=False, allow_infinity=False, width=64),
        force_a_zero=st.booleans(),
        force_b_zero=st.booleans(),
    )
    @settings(max_examples=400, deadline=None)
    def test_total_on_arbitrary_floats(self, a, b, c, force_a_zero, force_b_zero):
        if force_a_zero:
            a = 0.0
        if force_b_zero:
            b = 0.0
        if max(abs(a), abs(b), abs(c)) > 1e150:
            return  # delta overflows double precision
        cset = invert_score_test(make_coeffs(a, b, c))
        assert cset.diameter() >= 0.0
        tag = cset.tag
        assert tag in {
            "finite_interval", "two_rays", "empty", "whole_line", "left_ray", "right_ray", "point",
        }

    def test_membership_matches_quadratic_sign(self):
        rng = np.random.Generator(np.random.PCG64(11))
        for _ in range(200):
            a, b, c = rng.standard_normal(3)
            co = make_coeffs(a, b, c)
            cset = invert_score_test(co)
            for theta in rng.standard_normal(20) * 5.0:
                quad = a * theta**2 + b * theta + c
                band = 1e-6 * (abs(a) * theta**2 + abs(b) * abs(theta) + abs(c) + 1.0)
                if abs(quad) <= band:
                    continue
                assert cset.contains(theta) == (quad < 0.0)


class TestMidpointShift:
    """The 1/n term of the score set in closed form.  With phi = mb/ma,
    C = mab - phi*maa and a = n*ma^2 - z^2*maa, the midpoint -b/(2a) of a
    finite interval lies exactly -z^2*C/a from the ratio estimate phi,
    which is -z^2*C/(n*ma^2) * (1 + O(1/n))."""

    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(20, 3000),
        mean_a=st.floats(0.3, 5.0),
        ratio=st.floats(-20.0, 20.0),
        noise=st.floats(0.1, 10.0),
        alpha=st.sampled_from([0.01, 0.05, 0.2]),
    )
    @settings(max_examples=300, deadline=None)
    def test_midpoint_minus_phi_is_minus_z2_c_over_a(self, seed, n, mean_a, ratio, noise, alpha):
        rng = np.random.Generator(np.random.PCG64(seed))
        psi_a = rng.standard_normal(n) + mean_a
        psi_b = ratio * psi_a + noise * rng.standard_normal(n)
        scores = ScoreSample(psi_a=psi_a, psi_b=psi_b)
        coeffs = quad_coefficients(scores, alpha)
        cset = invert_score_test(coeffs)
        assume(cset.tag == "finite_interval")
        ma, mb, maa, _, mab = scores.moments()
        z2 = coeffs.z_crit * coeffs.z_crit
        phi = mb / ma
        C = mab - phi * maa
        a = n * ma * ma - z2 * maa
        assert a == coeffs.a
        vertex = -coeffs.b / (2.0 * a)

        # Exact in rational arithmetic on the same moments.
        fa, fb, faa, fab, fz2 = map(Fraction, (ma, mb, maa, mab, z2))
        f_phi = fb / fa
        f_a = n * fa * fa - fz2 * faa
        f_b = -2 * n * fa * fb + 2 * fz2 * fab
        assert -f_b / (2 * f_a) - f_phi == -fz2 * (fab - f_phi * faa) / f_a

        # In floats, to the rounding of the terms each side is formed from:
        # kappa is the condition number of the difference that forms a.
        eps = np.finfo(float).eps
        kappa = (n * ma * ma + z2 * maa) / a
        terms = (n * abs(ma * mb) + z2 * abs(mab) + z2 * (abs(mab) + abs(phi) * maa)) / a
        assert abs((vertex - phi) - (-z2 * C / a)) <= 16 * eps * (terms * (1.0 + kappa) + abs(phi))

        assert abs((cset.lo + cset.hi) / 2.0 - vertex) <= 1e-9 * (abs(cset.lo) + abs(cset.hi))


class TestDiameters:
    def test_forms(self):
        assert ConfidenceSet("finite_interval", 1.0, 3.5).diameter() == 2.5
        assert ConfidenceSet("two_rays", 0.0, 1.0).diameter() == math.inf
        assert EMPTY.diameter() == 0.0
        assert WHOLE_LINE.diameter() == math.inf
        assert ConfidenceSet("left_ray", hi=2.0).diameter() == math.inf
        assert ConfidenceSet("right_ray", lo=2.0).diameter() == math.inf
        assert ConfidenceSet("point", 4.0, 4.0).diameter() == 0.0


class TestConfidenceSetRecord:
    # (set, str, endpoints, diameter, membership of each of THETAS)
    THETAS = np.array([-1e9, -1.23456789, 0.0, 2e-7, 3.5, 4.0, 1e9, math.inf, -math.inf])
    FORMS = [
        (ConfidenceSet("finite_interval", -1.23456789, 3.5), "[-1.23457, 3.5]",
         (-1.23456789, 3.5), 4.73456789, [0, 1, 1, 1, 1, 0, 0, 0, 0]),
        (ConfidenceSet("two_rays", -0.5, 2e-7), "(-inf, -0.5] U [2e-07, inf)",
         (-0.5, 2e-7), math.inf, [1, 1, 0, 1, 1, 1, 1, 1, 1]),
        (EMPTY, "{}", (), 0.0, [0, 0, 0, 0, 0, 0, 0, 0, 0]),
        (WHOLE_LINE, "(-inf, inf)", (), math.inf, [1, 1, 1, 1, 1, 1, 1, 1, 1]),
        (ConfidenceSet("left_ray", hi=1234567.0), "(-inf, 1.23457e+06]",
         (1234567.0,), math.inf, [1, 1, 1, 1, 1, 1, 0, 0, 1]),
        (ConfidenceSet("right_ray", lo=-2.0), "[-2, inf)", (-2.0,), math.inf, [0, 1, 1, 1, 1, 1, 1, 1, 0]),
        (ConfidenceSet("point", 4.0, 4.0), "{4}", (4.0,), 0.0, [0, 0, 0, 0, 0, 1, 0, 0, 0]),
    ]

    @pytest.mark.parametrize("form", FORMS, ids=lambda form: form[0].tag)
    def test_text_endpoints_diameter_membership(self, form):
        cset, text, endpoints, diameter, members = form
        assert str(cset) == text
        assert cset.endpoints() == endpoints
        assert cset.diameter() == diameter
        by_element = [cset.contains(float(t)) for t in self.THETAS]
        assert by_element == [bool(m) for m in members]
        by_array = cset.contains(self.THETAS)
        assert by_array.shape == self.THETAS.shape
        assert by_array.tolist() == by_element

    def test_all_seven_shapes_pinned(self):
        assert {form[0].tag for form in self.FORMS} == {
            "finite_interval", "two_rays", "empty", "whole_line", "left_ray", "right_ray", "point",
        }

    @pytest.mark.parametrize("tag,lo,hi", [
        ("interval", 0.0, 1.0),
        ("finite_interval", 2.0, 1.0),
        ("finite_interval", math.nan, 1.0),
        ("two_rays", 1.0, -1.0),
        ("empty", -math.inf, math.inf),
        ("empty", 0.0, 0.0),
    ])
    def test_rejects_unknown_shape_and_disordered_endpoints(self, tag, lo, hi):
        with pytest.raises(InvalidConfigError):
            ConfidenceSet(tag, lo, hi)


class TestDrmlEstimate:
    def test_exact_proportionality(self):
        s = ScoreSample(psi_a=np.array([1.0, 3.0]), psi_b=np.array([2.0, 6.0]))
        result = drml_estimate(s, 0.05)
        assert result.phi_hat == 2.0
        assert result.sigma2_hat == 0.0
        assert result.wald_lo == result.wald_hi == 2.0

    def test_hand_case(self):
        s = ScoreSample(psi_a=np.array([1.0, 1.0]), psi_b=np.array([3.0, 1.0]))
        result = drml_estimate(s, 0.05)
        assert result.phi_hat == 2.0
        assert result.sigma2_hat == pytest.approx(1.0, abs=1e-14)

    def test_weak_denominator(self):
        s = ScoreSample(psi_a=np.array([1.0, -1.0]), psi_b=np.array([1.0, 2.0]))
        with pytest.raises(WeakDenominatorError, match="score confidence set"):
            drml_estimate(s, 0.05)

    def test_the_interval_is_free_of_units(self):
        psi_a, psi_b = np.array([1.0, 3.0, 2.0]), np.array([2.0, 5.0, 1.0])
        unit = drml_estimate(ScoreSample(psi_a=psi_a, psi_b=psi_b), 0.05)
        assert unit.phi_hat == pytest.approx(4.0 / 3.0, rel=1e-15)
        for u in range(-150, 151, 10):
            s = 10.0**u
            got = drml_estimate(ScoreSample(psi_a=psi_a * s, psi_b=psi_b * s), 0.05)
            assert math.isfinite(got.wald_lo) and math.isfinite(got.wald_hi), u
            assert abs(got.phi_hat - unit.phi_hat) <= 1e-14 * unit.phi_hat, u
            assert abs(got.sigma2_hat - unit.sigma2_hat) <= 1e-14 * unit.sigma2_hat, u

    def test_a_mean_whose_square_underflows_is_weak(self):
        # mean(psi_a^2) underflows to 0, so the relative rule alone passes it.
        s = ScoreSample(psi_a=np.array([0.0, 6.36e-171]), psi_b=np.zeros(2))
        assert s.moments()[2] == 0.0
        with pytest.raises(WeakDenominatorError, match="score confidence set"):
            drml_estimate(s, 0.05)

    def test_an_overflowing_variance_estimate_is_degenerate_without_a_warning(self):
        # mean(psi_a) = 1e-9 under a unit spread: phi_hat is finite, but the
        # residuals' squares, and with them sigma2_hat, overflow.
        rng = np.random.Generator(np.random.PCG64(3))
        psi_a = rng.standard_normal(50)
        psi_a += 1e-9 - psi_a.mean()
        for sd in (1e146, 1e150, 1e153):
            s = ScoreSample(psi_a=psi_a, psi_b=rng.normal(0.0, sd, 50))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(DegenerateDataError, match="the Wald interval overflows") as caught:
                    drml_estimate(s, 0.05)
            assert type(caught.value) is DegenerateDataError

    def test_wald_symmetric_with_exact_diameter(self):
        rng = np.random.Generator(np.random.PCG64(12))
        for _ in range(50):
            s = random_scores(rng, strong=True)
            r = drml_estimate(s, 0.05)
            z = NormalDist().inv_cdf(0.975)
            assert r.wald_hi - r.phi_hat == pytest.approx(r.phi_hat - r.wald_lo, rel=1e-12)
            assert r.diameter() == pytest.approx(
                2.0 * z * math.sqrt(r.sigma2_hat / s.n), rel=1e-12
            )


class TestDnStatistic:
    def test_zero_numerator(self):
        assert dn_statistic(np.array([1.0, 1.0, 1.0]), 1.0) == 0.0

    def test_hand_value(self):
        assert dn_statistic(np.array([2.0, 0.0]), 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_constant_scores_at_theta_give_zero(self):
        # 0/0 corner: the zero numerator wins (and by Jensen a zero
        # denominator cannot occur with a nonzero numerator)
        assert dn_statistic(np.array([3.0, 3.0]), 3.0) == 0.0

    def test_constant_scores_away_from_theta(self):
        assert dn_statistic(np.array([3.0, 3.0, 3.0]), 0.0) == pytest.approx(3.0)

    def test_weak_flag_threshold(self):
        coeffs = quad_coefficients(ScoreSample(psi_a=np.array([2.0, 0.0]), psi_b=np.zeros(2)), 0.05)
        assert coeffs.dn0 == pytest.approx(1.0)
        assert coeffs.dn0 <= coeffs.z_crit**2  # weak, so the set is unbounded
        assert invert_score_test(coeffs).diameter() == math.inf

    @settings(max_examples=300, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n=st.integers(2, 60),
        scale=st.sampled_from([1.0, 1e-3, 1e150, 1e-160, 1e-200, 0.0]),
        shift=st.sampled_from([0.0, 1.0, -2.5, 1e-170]),
        constant=st.booleans(),
    )
    def test_moments_form_matches_dn_statistic_bit_for_bit(self, seed, n, scale, shift, constant):
        rng = np.random.Generator(np.random.PCG64(seed))
        psi_a = (np.full(n, rng.standard_normal()) if constant else rng.standard_normal(n)) * scale + shift
        s = ScoreSample(psi_a=psi_a, psi_b=rng.standard_normal(n))
        try:
            expected = dn_statistic(psi_a, 0.0)
        except DegenerateDataError:
            with pytest.raises(DegenerateDataError):
                quad_coefficients(s, 0.05)
            return
        try:
            got = quad_coefficients(s, 0.05).dn0
        except DegenerateDataError:
            return  # psi_b, or the quadratic, leaves double precision
        assert type(got) is type(expected)
        assert struct.pack("<d", got) == struct.pack("<d", expected)

    def test_tiny_scores_are_degenerate_in_both_forms(self):
        # mean(psi_a) is nonzero but every square underflows to zero
        psi_a = np.array([1e-200, 1e-200])
        with pytest.raises(DegenerateDataError):
            dn_statistic(psi_a, 0.0)
        with pytest.raises(DegenerateDataError):
            quad_coefficients(ScoreSample(psi_a=psi_a, psi_b=psi_a), 0.05)


class TestScoreSampleMoments:
    def test_taken_once_and_kept(self):
        s = random_scores(np.random.Generator(np.random.PCG64(3)))
        twin = ScoreSample(psi_a=s.psi_a, psi_b=s.psi_b)
        first = s.moments()
        # Other scores behind the cache: whatever takes the moments again,
        # however it sums, reads these and gets other numbers.
        object.__setattr__(s, "psi_a", s.psi_a[::-1] * 3.0)
        object.__setattr__(s, "psi_b", s.psi_b[::-1] - 1.0)
        assert s.moments() is first
        assert quad_coefficients(s, 0.05) == quad_coefficients(twin, 0.05)
        theta = np.linspace(-1.0, 1.0, 5)
        assert score_statistic(s, theta).tobytes() == score_statistic(twin, theta).tobytes()


class TestEquivariance:
    def test_shift_moves_set_and_estimate(self):
        rng = np.random.Generator(np.random.PCG64(13))
        s = random_scores(rng, strong=True)
        kappa = 1.75
        shifted = ScoreSample(psi_a=s.psi_a, psi_b=s.psi_b + kappa * s.psi_a)
        c1 = invert_score_test(quad_coefficients(s, 0.05))
        c2 = invert_score_test(quad_coefficients(shifted, 0.05))
        assert c1.tag == c2.tag
        assert np.allclose(
            np.asarray(c2.endpoints()), np.asarray(c1.endpoints()) + kappa, rtol=1e-10, atol=1e-10
        )
        d1 = drml_estimate(s, 0.05)
        d2 = drml_estimate(shifted, 0.05)
        assert d2.phi_hat == pytest.approx(d1.phi_hat + kappa, rel=1e-10)
        assert d2.sigma2_hat == pytest.approx(d1.sigma2_hat, rel=1e-10, abs=1e-12)

    def test_scale_maps_set_and_estimate(self):
        rng = np.random.Generator(np.random.PCG64(14))
        s = random_scores(rng, strong=True)
        lam = 2.5
        scaled = ScoreSample(psi_a=s.psi_a, psi_b=lam * s.psi_b)
        c1 = invert_score_test(quad_coefficients(s, 0.05))
        c2 = invert_score_test(quad_coefficients(scaled, 0.05))
        assert c1.tag == c2.tag
        assert np.allclose(
            np.asarray(c2.endpoints()), lam * np.asarray(c1.endpoints()), rtol=1e-10, atol=1e-10
        )
        d1 = drml_estimate(s, 0.05)
        d2 = drml_estimate(scaled, 0.05)
        assert d2.phi_hat == pytest.approx(lam * d1.phi_hat, rel=1e-10)
        assert d2.sigma2_hat == pytest.approx(lam * lam * d1.sigma2_hat, rel=1e-10)

    # 2**-60 scales every value exactly; the others round each y.
    OUTCOME_UNITS = (1e-12, 1e-9, 1e-6, 1e3, 1e12, 1e100, 2.0**-60)

    @pytest.mark.parametrize("n", [2000, 300, 50])
    @pytest.mark.parametrize("m_learner", ["known_constant", "logistic"])
    def test_set_scales_with_the_outcome(self, n, m_learner):
        """The whole pipeline on y * s: the set of y, scaled by s, with its
        shape, however small or large the outcome's units are."""
        spec = LearnerSpec(m_learner=m_learner, m_value=0.5)
        for seed in range(6):
            data = iv_data(n, seed)
            folds = make_folds(n, spec.K, seed=1)

            def score_set(s):
                scaled = Dataset(y=data.y * s, a=data.a, z=data.z, x=data.x)
                scores = compute_scores(scaled, cross_fit(scaled, spec, folds))
                return invert_score_test(quad_coefficients(scores, 0.05))

            unit = score_set(1.0)
            for s in self.OUTCOME_UNITS:
                cset = score_set(s)
                assert cset.tag == unit.tag, (seed, s)
                got, want = np.array(cset.endpoints()) / s, np.array(unit.endpoints())
                assert np.all(np.abs(got - want) <= 1e-14 * np.abs(want)), (seed, s)


@st.composite
def _score_samples(draw):
    """ScoreSamples of 2 to 11 pairs, psi_a and psi_b each in units of
    10**u with |u| <= 150; psi_b is k*psi_a, the point atom, in a third of them."""
    n = draw(st.integers(2, 11))
    units = st.integers(-150, 150).map(lambda u: 10.0**u)
    values = st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n).map(np.array)
    psi_a = (draw(values) + draw(st.sampled_from([0.0, 0.5, 2.0]))) * draw(units)
    if draw(st.integers(0, 2)) == 0:
        psi_b = psi_a * draw(st.floats(-10.0, 10.0)) * draw(units)
    else:
        psi_b = draw(values) * draw(units)
    assume(np.isfinite(psi_a).all() and np.isfinite(psi_b).all())
    return ScoreSample(psi_a=psi_a, psi_b=psi_b)


class TestRatioEstimateInSet:
    """mb/ma always satisfies the membership inequality (its value there
    is -z^2 * mean((psi_b - phi*psi_a)^2) <= 0), so wherever the ratio
    estimate is defined the set holds it, and so is not empty."""

    @settings(max_examples=300, deadline=None)
    @given(scores=_score_samples(), alpha=st.sampled_from([0.01, 0.05, 0.2]))
    def test_phi_hat_is_in_a_non_empty_set(self, scores, alpha):
        try:
            phi_hat = drml_estimate(scores, alpha).phi_hat
        except DegenerateDataError:  # a weak denominator, or moments that overflow
            assume(False)
        try:
            coeffs = quad_coefficients(scores, alpha)
        except DegenerateDataError as exc:
            assert "the quadratic's coefficients" in str(exc)
            assume(False)
        cset = invert_score_test(coeffs)
        assert cset.tag != "empty"
        assert cset.contains(phi_hat)

    def test_the_point_atom_near_the_weak_boundary(self):
        # psi_b = k*psi_a with D_n(0) within 1e-9 to 1e-1 of z^2: a nearly
        # cancels, which multiplies delta's rounding error by the larger of
        # a's two cancelling terms over |a|.  Exactly, delta = 0, and the set
        # is the point {k} (a > 0) or the whole line (a < 0).
        rng = np.random.Generator(np.random.PCG64(17))
        z2 = Z975 * Z975
        for _ in range(3000):
            n = int(rng.choice([3, 8, 30, 200, 2000]))
            x = rng.standard_normal(n)
            x -= x.mean()
            target = z2 * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-9.0, -1.0))
            if n <= target:
                continue
            # n*m^2 / (m^2 + mean(x^2)) = target at the mean m
            psi_a = x + math.sqrt(target * np.mean(x * x) / (n - target))
            k = float(rng.choice([-2.5, 7.0, 0.3, 1.0, 4.0, -1e3]))
            scores = ScoreSample(psi_a=psi_a, psi_b=k * psi_a)
            cset = invert_score_test(quad_coefficients(scores, 0.05))
            assert cset.tag in ("point", "whole_line"), (n, k, cset)
            assert cset.contains(drml_estimate(scores, 0.05).phi_hat), (n, k, cset)

    @pytest.mark.parametrize("gap", [1e-14, 1e-13, 3.2e-13, 1e-12])
    def test_the_point_atom_just_above_the_weak_boundary(self, gap):
        # psi_b = k*psi_a with D_n(0) = z^2 * (1 + gap): a and c both fall
        # in a's zero band with c > 0, yet exactly the set is the point {k}.
        rng = np.random.Generator(np.random.PCG64(23))
        t = Z975 * Z975 * (1.0 + gap)
        for _ in range(1000):
            n = int(rng.integers(4, 12))
            x = rng.standard_normal(n)
            m = x.mean()
            # the larger root s of n*(m + s)^2 = t*(mean(x^2) + 2*s*m + s^2)
            psi_a = x + (-m + math.sqrt(t * (np.mean(x * x) - m * m) / (n - t)))
            k = float(rng.choice([4.0, -2.0, 0.5, 3.7, 1e-3]))
            scores = ScoreSample(psi_a=psi_a, psi_b=k * psi_a)
            cset = invert_score_test(quad_coefficients(scores, 0.05))
            assert cset.contains(drml_estimate(scores, 0.05).phi_hat), (n, k, cset)

    @settings(max_examples=300, deadline=None)
    @given(
        scores=_score_samples(),
        alpha=st.sampled_from([0.01, 0.05, 0.2]),
        zero_a=st.booleans(),
    )
    def test_a_set_from_scores_is_empty_only_when_psi_a_is_zero(self, scores, alpha, zero_a):
        if zero_a:
            scores = ScoreSample(psi_a=np.zeros(scores.n), psi_b=scores.psi_b)
        try:
            cset = invert_score_test(quad_coefficients(scores, alpha))
        except DegenerateDataError as exc:  # moments outside double precision, or all zero
            assert re.search("double precision|identically zero", str(exc))
            assume(False)
        assert cset.tag != "empty" or not scores.psi_a.any()


def _bits(cset):
    return cset.tag, _float_bits(cset.lo, cset.hi)


def _float_bits(*values):
    return struct.pack(f"<{len(values)}d", *values)


class TestInversionAgainstReference:
    """The case analysis gives the tag and endpoint bits of the reference,
    which tested `c <= 0` twice and reached the empty set two ways.  The
    one difference: an empty set from scores with mean(psi_a) != 0 is now
    the point {mb/ma}, which the exact set holds."""

    def test_hand_built_coefficients(self, reference_inversion):
        # Built as acceptance criterion 2 builds its fuzz, on another seed.
        rng = np.random.Generator(np.random.PCG64(2525))
        count = 200_000
        abc = rng.standard_normal((count, 3)) * 10.0 ** rng.uniform(-6, 6, size=(count, 1))
        for j in range(3):
            abc[rng.random(count) < 0.15, j] = 0.0
        tangent = (rng.random(count) < 0.10) & (abc[:, 0] != 0.0)
        abc[tangent, 2] = abc[tangent, 1] ** 2 / (4.0 * abc[tangent, 0])
        tags = set()
        for a, b, c in abc.tolist():
            delta = b * b - 4.0 * a * c
            co = QuadCoefficients(
                a, b, c, delta, Z975, 1e-12 * max(abs(a), 1.0), 1e-12 * max(b * b, 4.0 * abs(a * c))
            )
            ref = ReferenceQuadCoefficients(a, b, c, delta, Z975, max(abs(a), 1.0))
            assert _float_bits(co.tol_a, co.tol_delta) == _float_bits(*zero_tolerances(ref)), (a, b, c)
            got = invert_score_test(co)
            assert _bits(got) == _bits(reference_inversion(ref)), (a, b, c)
            tags.add(got.tag)
        assert len(tags) == 7

    def test_coefficients_from_scores(self, reference_inversion):
        rng = np.random.Generator(np.random.PCG64(2526))
        z2 = Z975 * Z975
        tags, mended = set(), 0
        for i in range(20_000):
            n = int(rng.integers(2, 60))
            psi_a = rng.standard_normal(n)
            if i % 3 == 0:
                psi_a += 2.0
            elif i % 3 == 1 and n >= 4:
                # D_n(0) within 1e-14 to 1e-2 of z^2, on either side
                m = psi_a.mean()
                t = z2 * (1.0 + rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-14.0, -2.0))
                psi_a += -m + math.sqrt(t * (np.mean(psi_a * psi_a) - m * m) / (n - t))
            if i % 5 == 0:
                psi_b = float(rng.choice([4.0, -2.0, 0.5, 3.7, 1e-3])) * psi_a
            else:
                psi_b = rng.standard_normal(n) + rng.uniform(-1.0, 1.0) * psi_a
            scores = ScoreSample(psi_a=psi_a, psi_b=psi_b)
            co, ref = quad_coefficients(scores, 0.05), reference_quad_coefficients(scores, 0.05)
            assert co[:5] + co[-3:] == ref[:5] + ref[-3:], (i, co)
            assert _float_bits(co.tol_a, co.tol_delta) == _float_bits(*zero_tolerances(ref)), (i, co)
            got, want = invert_score_test(co), reference_inversion(ref)
            if want.tag == "empty" and co.ma:
                want = ConfidenceSet("point", co.mb / co.ma, co.mb / co.ma)
                mended += 1
            assert _bits(got) == _bits(want), (i, co)
            tags.add(got.tag)
        assert tags >= {"finite_interval", "two_rays", "whole_line", "point"}
        assert mended > 0


class TestStrongSampleSizeAgreement:
    def test_wald_and_score_set_nearly_identical(self):
        from latescore import DgpParams, StudySpec, run_replication

        spec = StudySpec(setting="strong", n_grid=(10500,), reps=1, seed=5)
        params = DgpParams(pi=5.0, n=10500)
        r = run_replication(params, spec, rep_id=0)
        assert r.set_tag == "finite_interval"
        assert abs(r.diam_score / r.diam_wald - 1.0) < 0.05
