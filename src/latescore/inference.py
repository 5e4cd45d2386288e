"""Score-test inversion, the ratio estimator and its Wald interval.

The level 1-alpha confidence set is {theta : |S_n(theta)| <= z} with

    S_n(theta) = sqrt(n) * mean(psi_b - theta*psi_a)
                 / sqrt(mean((psi_b - theta*psi_a)^2))

and z the 1-alpha/2 standard-normal quantile.  Membership is equivalent
to the quadratic inequality a*theta^2 + b*theta + c <= 0, whose solution
set is one of seven forms: a finite interval, a union of two rays, the
empty set, the whole line, a left or right ray, or a single point.

The denominator of S_n is the raw (uncentered) second moment, and the
variance estimate of the ratio estimator uses the uncentered residual
second moment; both choices are deliberate and load-bearing.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from statistics import NormalDist
from typing import NamedTuple

import numpy as np

from .errors import DegenerateDataError, InvalidConfigError, WeakDenominatorError
from .scores import ScoreSample

#: Relative tolerance for treating a or delta as zero when classifying
#: the quadratic, and mean(psi_a) as zero in the ratio estimator; the
#: matching absolute tolerances of the quadratic are exposed through
#: :func:`zero_tolerances` for auditing.
ZERO_TOL = 1e-12

#: delta is also treated as zero within this many times its rounding
#: scale (``QuadCoefficients.delta_scale``): 64 ulps.
DELTA_ROUNDING = 64 * sys.float_info.epsilon


def _z_crit(alpha: float) -> float:
    """The 1-alpha/2 standard-normal quantile, for 0 < alpha < 1.

    An alpha below about 1.1e-16 leaves 1 - alpha/2 == 1.0 in double
    precision, where the quantile is infinite; it is rejected too.
    """
    if not 0.0 < alpha < 1.0:
        raise InvalidConfigError(f"alpha must lie in (0, 1), got {alpha}")
    p = 1.0 - alpha / 2.0
    if p == 1.0:
        raise InvalidConfigError(f"alpha={alpha} is too small: 1 - alpha/2 rounds to 1")
    return NormalDist().inv_cdf(p)


def score_statistic(scores: ScoreSample, theta: float | np.ndarray) -> float | np.ndarray:
    """Studentized score statistic S_n(theta), from the five score moments.

    theta is a float or a numpy array.  The second moment
    mean((psi_b - theta*psi_a)^2) = mbb - 2*theta*mab + theta^2*maa must
    be positive and finite.  Where it is not (it rounds to zero, or it
    overflows, as theta*theta does once |theta| exceeds about 1.3e154), an
    array gets NaN and a float raises :class:`DegenerateDataError`, with no
    numpy warning.  Both forms give the same bits.
    """
    ma, mb, maa, mbb, mab = scores.moments()
    t = np.asarray(theta, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        second = mbb - 2.0 * t * mab + t * t * maa
        usable = (second > 0.0) & (second < math.inf)
        if t.ndim == 0 and not usable:
            raise DegenerateDataError(f"second moment of psi_b - theta*psi_a is {float(second)} at theta={theta}")
        s = math.sqrt(scores.n) * (mb - t * ma) / np.sqrt(np.where(usable, second, np.nan))
    return float(s) if t.ndim == 0 else s


class QuadCoefficients(NamedTuple):
    """Coefficients of the membership inequality a*t^2 + b*t + c <= 0.

    ``a_scale`` is the magnitude of the two cancelling terms in a and is
    the reference against which a is treated as zero.  ``delta_scale`` is
    the scale of delta's rounding error: the larger of |b| times b's
    cancelling terms, and 4|a| and 4|c| times c's and a's.  Where a, b or c
    cancels, as a does when D_n(0) is near z^2, it exceeds b^2 and 4|ac|
    by the same factor.  ``degenerate`` marks identically-zero score data,
    for which no set is meaningful.
    ``ma``/``mb`` are the score means where the coefficients come from
    scores; a point set is then {mb/ma}, the ratio estimate bit for bit.
    ``dn0`` is then D_n(0), ``dn_statistic(psi_a, 0.0)`` bit for bit: as a =
    mean(psi_a^2) * (D_n(0) - z^2), the set is unbounded exactly when D_n(0) <= z^2.
    """

    a: float
    b: float
    c: float
    delta: float
    n: int
    z_crit: float
    a_scale: float = 1.0
    delta_scale: float = 0.0
    degenerate: bool = False
    ma: float | None = None
    mb: float | None = None
    dn0: float | None = None


def quad_coefficients(scores: ScoreSample, alpha: float) -> QuadCoefficients:
    """Assemble the quadratic from the empirical score moments.

    Moments whose products leave double precision, as in scores of order
    1e-160 or 1e160, give no reliable quadratic and raise
    :class:`DegenerateDataError`.
    """
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
    # Each of a, b and c is a difference of two products, and its scale the
    # larger one; delta rounds to within some ulps of delta_scale.
    a_scale = max(n * ma * ma, z2 * maa)
    b_scale = 2.0 * max(abs(n * ma * mb), abs(z2 * mab))
    c_scale = max(n * mb * mb, z2 * mbb)
    delta_scale = max(abs(b) * b_scale, 4.0 * abs(a) * c_scale, 4.0 * abs(c) * a_scale)
    if not (math.isfinite(delta) and math.isfinite(delta_scale)):  # a, b and c are then finite too
        raise DegenerateDataError("the quadratic's coefficients overflow double precision")
    # A difference has lost its precision when its larger product falls
    # below the smallest normal double although the factors of one product
    # are all nonzero (a nonzero score vector whose moments are both zero
    # has underflowed).
    products = (
        (a_scale, ma != 0.0 or maa != 0.0 or scores.psi_a.any()),
        (b_scale, (ma != 0.0 and mb != 0.0) or mab != 0.0),
        (c_scale, mb != 0.0 or mbb != 0.0 or scores.psi_b.any()),
        (max(b * b, 4.0 * abs(a * c)), b != 0.0 or (a != 0.0 and c != 0.0)),
    )
    if any(nonzero and larger < sys.float_info.min for larger, nonzero in products):
        raise DegenerateDataError("the quadratic's coefficients underflow double precision")
    return QuadCoefficients(
        a=a,
        b=b,
        c=c,
        delta=delta,
        n=n,
        z_crit=z,
        a_scale=a_scale,
        delta_scale=delta_scale,
        degenerate=(maa == 0.0 and mbb == 0.0),
        ma=ma,
        mb=mb,
        # Where ma != 0, maa > 0: a zero maa there was refused as underflow above.
        dn0=n * ma * ma / maa if ma != 0.0 else 0.0,
    )


# Per shape: its text form over the endpoints it keeps, and their names.
_SHAPES = {
    "finite_interval": ("[{}, {}]", ("lo", "hi")),
    "two_rays": ("(-inf, {}] U [{}, inf)", ("lo", "hi")),
    "empty": ("{{}}", ()),
    "whole_line": ("(-inf, inf)", ()),
    "left_ray": ("(-inf, {}]", ("hi",)),
    "right_ray": ("[{}, inf)", ("lo",)),
    "point": ("{{{}}}", ("lo",)),
}


@dataclass(frozen=True)
class ConfidenceSet:
    """The solution set of the membership inequality, one of seven shapes.

    ``tag`` names the shape and ``lo``/``hi`` bound it.  The set is
    ``[lo, hi]`` for every shape but two_rays, which is
    ``(-inf, lo] U [hi, inf)``; so a left_ray keeps lo = -inf, a
    right_ray hi = inf, the whole_line both, and a point lo = hi.  The
    empty set is the one shape with lo > hi (it keeps lo = inf,
    hi = -inf), which leaves no theta between them.
    """

    tag: str
    lo: float = -math.inf
    hi: float = math.inf

    def __post_init__(self) -> None:
        if self.tag not in _SHAPES:
            raise InvalidConfigError(f"unknown set shape {self.tag!r}")
        ordered = self.lo > self.hi if self.tag == "empty" else self.lo <= self.hi
        if not ordered:
            raise InvalidConfigError(f"{self.tag} endpoints out of order: [{self.lo}, {self.hi}]")

    def contains(self, theta):
        """Membership of theta, elementwise when theta is a numpy array."""
        if self.tag == "two_rays":
            return (theta <= self.lo) | (theta >= self.hi)
        return (self.lo <= theta) & (theta <= self.hi)

    def diameter(self) -> float:
        if self.tag in ("empty", "point"):
            return 0.0
        if self.tag == "finite_interval":
            return self.hi - self.lo
        return math.inf

    def endpoints(self) -> tuple[float, ...]:
        return tuple(getattr(self, name) for name in _SHAPES[self.tag][1])

    def __str__(self) -> str:
        return _SHAPES[self.tag][0].format(*(f"{v:.6g}" for v in self.endpoints()))


_EMPTY = ConfidenceSet("empty", math.inf, -math.inf)
_WHOLE_LINE = ConfidenceSet("whole_line")


def zero_tolerances(coeffs: QuadCoefficients) -> tuple[float, float]:
    """Absolute thresholds below which a and delta are classified as zero.

    Each is ZERO_TOL times the larger of the terms that cancel in it, with
    no absolute floor, so the classification does not depend on the units
    of the outcome or the treatment.  delta's is at least DELTA_ROUNDING
    times its rounding scale, which binds only where a, b or c cancel.
    """
    tol_a = ZERO_TOL * coeffs.a_scale
    tol_delta = max(
        ZERO_TOL * max(coeffs.b * coeffs.b, 4.0 * abs(coeffs.a * coeffs.c)),
        DELTA_ROUNDING * coeffs.delta_scale,
    )
    return tol_a, tol_delta


def invert_score_test(coeffs: QuadCoefficients) -> ConfidenceSet:
    """Solve a*theta^2 + b*theta + c <= 0 exactly, by case analysis.

    a and delta count as zero within the bands of :func:`zero_tolerances`.
    Each verdict is reached once, in this order:

    - a = 0, delta != 0, b != 0: (-inf, -c/b] if b > 0 else [-c/b, inf)
    - a = 0 otherwise, c <= 0: whole line
    - a != 0, delta > 0: [r1, r2] if a > 0 else (-inf, r2] U [r1, inf)
    - a < 0, delta <= 0: whole line
    - a > 0, delta = 0: the point {-b / (2a)}, or {mb / ma} given the means
    - otherwise the quadratic is positive everywhere: the empty set

    with r1 = (-b - sqrt(delta)) / (2a) and r2 = (-b + sqrt(delta)) / (2a).
    The ratio estimate mb/ma satisfies the inequality wherever ma != 0, so
    from scores "positive everywhere" is rounding, and the set is {mb/ma}:
    a set from scores is empty only when psi_a is identically zero.
    Identically-zero score data (``coeffs.degenerate``) has no set and
    raises :class:`DegenerateDataError`.
    At delta = 0 the quadratic is a*(theta + b/(2a))^2; for a < 0 this
    is a downward parabola with maximum zero, so the inequality holds
    everywhere and only a > 0 pins the set to the vertex.  That branch
    is not a theoretical corner: whenever the instrument moves no
    treatment decision in the realized sample, psi_b can be an exact
    multiple of psi_a and delta vanishes identically.  The ratio estimate
    mb/ma satisfies the inequality, so in exact arithmetic it is the vertex.
    """
    if coeffs.degenerate:
        raise DegenerateDataError("both score vectors are identically zero")
    a, b, c, delta = coeffs.a, coeffs.b, coeffs.c, coeffs.delta
    tol_a, tol_delta = zero_tolerances(coeffs)
    if abs(a) <= tol_a:
        if b != 0.0 and abs(delta) > tol_delta:
            if b > 0.0:
                return ConfidenceSet("left_ray", hi=-c / b)
            return ConfidenceSet("right_ray", lo=-c / b)
        if c <= 0.0:
            return _WHOLE_LINE
    elif delta > tol_delta:
        root = math.sqrt(delta)
        lo, hi = sorted(((-b - root) / (2.0 * a), (-b + root) / (2.0 * a)))
        return ConfidenceSet("finite_interval" if a > 0.0 else "two_rays", lo, hi)
    elif a < 0.0:
        return _WHOLE_LINE
    elif delta >= -tol_delta:
        vertex = -b / (2.0 * a) if coeffs.ma is None else coeffs.mb / coeffs.ma
        return ConfidenceSet("point", vertex, vertex)
    if coeffs.ma:
        return ConfidenceSet("point", coeffs.mb / coeffs.ma, coeffs.mb / coeffs.ma)
    return _EMPTY


def score_confidence_set(scores: ScoreSample, alpha: float) -> ConfidenceSet:
    """Convenience wrapper: coefficients plus inversion in one call."""
    return invert_score_test(quad_coefficients(scores, alpha))


@dataclass(frozen=True)
class DrmlResult:
    """Ratio estimate, variance estimate and Wald interval."""

    phi_hat: float
    sigma2_hat: float
    wald_lo: float
    wald_hi: float

    def diameter(self) -> float:
        return self.wald_hi - self.wald_lo

    def contains(self, theta: float) -> bool:
        return self.wald_lo <= theta <= self.wald_hi


def drml_estimate(scores: ScoreSample, alpha: float) -> DrmlResult:
    """Point estimate mean(psi_b)/mean(psi_a) with its Wald interval.

    The variance estimate is mean((psi_b - phi_hat*psi_a)^2) divided by
    mean(psi_a)^2; the interval is phi_hat -/+ z * sigma_hat / sqrt(n).
    The denominator is weak, and :class:`WeakDenominatorError` raised, when
    |mean(psi_a)| <= ZERO_TOL * sqrt(mean(psi_a^2)), a rule free of units,
    or when mean(psi_a)^2 underflows double precision.
    """
    z = _z_crit(alpha)
    n = scores.n
    ma, mb, maa, _, _ = scores.moments()
    if abs(ma) <= ZERO_TOL * math.sqrt(maa) or ma * ma < sys.float_info.min:
        raise WeakDenominatorError(
            "mean(psi_a) is numerically zero; the ratio estimator is undefined "
            "and the score confidence set should be used instead"
        )
    phi_hat = mb / ma
    # mean((psi_b - phi_hat*psi_a)^2), in one buffer.
    resid = np.multiply(scores.psi_a, phi_hat)
    np.subtract(scores.psi_b, resid, out=resid)
    sigma2 = float(np.add.reduce(np.multiply(resid, resid, out=resid))) / n / (ma * ma)
    half = z * math.sqrt(sigma2 / n)
    return DrmlResult(
        phi_hat=phi_hat,
        sigma2_hat=sigma2,
        wald_lo=phi_hat - half,
        wald_hi=phi_hat + half,
    )


def dn_statistic(psi_a: np.ndarray, theta: float) -> float:
    """Instrument-strength statistic n*(mean(psi_a)-theta)^2 / mean((psi_a-theta)^2).

    A zero numerator yields 0 outright (this covers the constant
    psi_a = theta sample, where the ratio is formally 0/0); a zero
    denominator with a nonzero numerator cannot occur in exact
    arithmetic and is reported as degenerate data.
    """
    psi_a = np.asarray(psi_a, dtype=float)
    d = psi_a - theta
    m, second = float(np.mean(psi_a)) - theta, float(np.mean(d * d))
    if m == 0.0:
        return 0.0
    if second <= 0.0:
        raise DegenerateDataError(f"second moment of psi_a - theta is zero at theta={theta}")
    return psi_a.shape[0] * m * m / second
