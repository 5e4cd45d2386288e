"""Sampler and calibration for the weak-instrument limit of the ratio estimator.

Under laws drifting to zero instrument strength at the 1/sqrt(n) rate,
with sqrt(n)*E[psi_a] = c_a and sqrt(n)*E[psi_b] = c_b, the scaled score
means sqrt(n)*(mean(psi_a), mean(psi_b)) converge to (c_a + N_a,
c_b + N_b) with (N_a, N_b) bivariate normal, mean zero, covariance
Sigma_ab.  The estimation error of the ratio estimator therefore
converges in distribution to

    (c_b + N_b) / (c_a + N_a) - c_b / c_a
        = (c_a * N_b - c_b * N_a) / (c_a^2 + c_a * N_a).

The limit has no finite mean (Cauchy-like tails), which is what breaks
Wald inference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .data import _check_integer
from .errors import DecompositionError, InvalidConfigError
from .simulation import _CELL_BLOCK, N_CELLS, DgpParams, cell_probabilities, draw_oracle_cells, oracle_cell_values

# Oracle draws per batch in the calibrator, which bounds its memory.  The
# batch edges fix the order in which the random stream is read.
_ORACLE_BATCH = 1_000_000

# Pairs per block in the limit sampler, which bounds its temporaries to a
# block's worth.  Blocks read the random stream in order, so, unless a
# denominator is exactly zero, the draws do not depend on the block size.
_LIMIT_BLOCK = 65_536


def _cholesky_2x2(sigma: np.ndarray) -> np.ndarray:
    """Lower-triangular square root of a symmetric PSD 2x2 matrix."""
    sigma = np.asarray(sigma, dtype=float)
    if sigma.shape != (2, 2):
        raise DecompositionError(f"covariance must be 2x2, got shape {sigma.shape}")
    if not np.all(np.isfinite(sigma)):
        raise DecompositionError("covariance contains non-finite entries")
    s11, s12, s21, s22 = sigma[0, 0], sigma[0, 1], sigma[1, 0], sigma[1, 1]
    # Both tolerances are relative to the largest entry, so the verdict does
    # not depend on the units; a zero matrix keeps scale 1.
    scale = max(abs(s11), abs(s22), abs(s12), abs(s21)) or 1.0
    if abs(s12 - s21) > 1e-12 * scale:
        raise DecompositionError(f"covariance is not symmetric: {s12} vs {s21}")
    # The determinant test runs on entries divided by scale: on the raw
    # entries, s11*s22 - s12*s12 can be inf - inf = nan, which passes.
    t11, t12, t22 = s11 / scale, s12 / scale, s22 / scale
    if s11 < 0.0 or s22 < 0.0 or t11 * t22 - t12 * t12 < -1e-12:
        raise DecompositionError("covariance is not positive semidefinite")
    if s11 == 0.0:
        if s12 != 0.0:
            raise DecompositionError("covariance is not positive semidefinite")
        return np.array([[0.0, 0.0], [0.0, math.sqrt(s22)]])
    l11 = math.sqrt(s11)
    l21 = s12 / l11
    l22 = math.sqrt(max(s22 - l21 * l21, 0.0))
    return np.array([[l11, 0.0], [l21, l22]])


@dataclass(frozen=True)
class WeakIVConfig:
    """Limit parameters (c_a, c_b, Sigma_ab); c_a must be nonzero, both finite."""

    c_a: float
    c_b: float
    sigma_ab: np.ndarray

    def __post_init__(self) -> None:
        if not (math.isfinite(self.c_a) and math.isfinite(self.c_b)):
            raise InvalidConfigError(f"c_a and c_b must be finite, got {self.c_a} and {self.c_b}")
        # c_a^2 centres the denominator.  Where it underflows to zero and N_a
        # has no variance, the redraw loop never ends; where it overflows,
        # every draw is 0 or NaN.
        if not 0.0 < self.c_a * self.c_a < math.inf:
            raise InvalidConfigError(f"c_a must be nonzero with c_a^2 in double range, got {self.c_a}")
        sigma = np.array(self.sigma_ab, dtype=float)  # a copy, so the caller's stays writable
        _cholesky_2x2(sigma)  # validates symmetry and PSD
        sigma.setflags(write=False)
        object.__setattr__(self, "sigma_ab", sigma)


def sample_bivariate_normal(sigma_ab: np.ndarray, rng: np.random.Generator, size: int):
    """Draw ``size`` pairs (N_a, N_b) ~ N(0, Sigma_ab) via the triangular square root.

    Each pair is the product of the square root with its two standard
    normals (e0, e1), summed elementwise, so its bits depend on those
    normals alone; a BLAS matrix product rounds differently from build to
    build, and for one pair than for many.  The sums start from +0.0, as a
    matrix product's do, so that neither gives -0.0.
    """
    (l11, _), (l21, l22) = _cholesky_2x2(sigma_ab)
    e = rng.standard_normal((_check_integer(size, "size", least=0), 2))
    e0, e1 = e[:, 0], e[:, 1]
    return 0.0 + e0 * l11, 0.0 + e0 * l21 + e1 * l22


def _draw_into(cfg: WeakIVConfig, rng: np.random.Generator, out: np.ndarray) -> np.ndarray:
    """Fill ``out`` with limit draws and return it.

    A pair whose denominator is exactly zero is redrawn after the pairs of
    ``out``, in index order, and so on until none is zero.  Parameters whose
    draws overflow double precision are refused, not warned about.
    """
    na, nb = sample_bivariate_normal(cfg.sigma_ab, rng, size=out.size)
    with np.errstate(all="ignore"):
        num = cfg.c_a * nb - cfg.c_b * na
        den = cfg.c_a * cfg.c_a + cfg.c_a * na
        np.divide(num, den, out=out)
    zero = np.flatnonzero(den == 0.0)
    if zero.size:  # a probability-zero event
        out[zero] = _draw_into(cfg, rng, np.empty(zero.size))
    if not np.isfinite(out).all():
        raise InvalidConfigError("the limit parameters give draws beyond double range")
    return out


def sample_weak_limit(cfg: WeakIVConfig, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` values of (c_a*N_b - c_b*N_a) / (c_a^2 + c_a*N_a).

    An exactly-zero denominator (a probability-zero event) triggers a
    redraw, which leaves the distribution unchanged.  Parameters whose
    draws overflow double precision are rejected.  The pairs are drawn
    ``_LIMIT_BLOCK`` at a time, each block's redraws following its pairs, so
    ``weakiv-limit``, which draws a block a call, writes these same draws.
    """
    draws = np.empty(_check_integer(size, "size", least=0))
    for lo in range(0, draws.size, _LIMIT_BLOCK):
        _draw_into(cfg, rng, draws[lo : lo + _LIMIT_BLOCK])
    return draws


def _cell_terms(params: DgpParams) -> np.ndarray:
    """The nine terms whose means give the limit parameters, at each cell, as
    a (24, 9) array: psi_a, psi_b, psi_a^2, psi_b^2, psi_a*psi_b, then r1 - r0
    and g1 - g0, each followed by its square."""
    psi_a, psi_b, ca, cb = oracle_cell_values(params)
    terms = [psi_a, psi_b, psi_a * psi_a, psi_b * psi_b, psi_a * psi_b, ca, ca * ca, cb, cb * cb]
    return np.stack(terms, axis=1)


def _limit_parameters(means: np.ndarray, n: int):
    """(c_a, c_b, Sigma_ab) from the means of the nine cell terms at size n."""
    mu_a, mu_b, m_aa, m_bb, m_ab, mean_a, _, mean_b, _ = means
    cov = np.array(
        [
            [m_aa - mu_a * mu_a, m_ab - mu_a * mu_b],
            [m_ab - mu_a * mu_b, m_bb - mu_b * mu_b],
        ]
    )
    return math.sqrt(n) * mean_a, math.sqrt(n) * mean_b, cov


def exact_weakiv_config(params: DgpParams) -> WeakIVConfig:
    """The limit parameters of a law at its n, exactly: the nine cell terms
    averaged over :func:`cell_probabilities` rather than over draws."""
    return WeakIVConfig(*_limit_parameters(cell_probabilities(params) @ _cell_terms(params), params.n))


@dataclass(frozen=True)
class WeakIVCalibration:
    """Monte-Carlo estimates of the limit parameters, with diagnostics.

    ``ca_violated``/``cb_violated`` flag estimates within 3 standard
    errors of zero, for which the drifting-law premise (nonzero c_a, c_b)
    fails.
    """

    c_a: float
    c_b: float
    sigma_ab: np.ndarray
    ca_se: float
    cb_se: float
    ca_violated: bool
    cb_violated: bool
    draws: int


def estimate_weakiv_config(
    params: DgpParams,
    oracle_draws: int,
    seed: int = 0,
) -> WeakIVCalibration:
    """Calibrate (c_a, c_b, Sigma_ab) for a law by oracle Monte Carlo.

    Scores are drawn with the true nuisance functions plugged in.  The
    means are estimated from the conditional-mean contrasts (exact
    conditional expectations of the scores given X), whose variance is
    orders of magnitude below that of the raw scores -- essential here,
    since c_a itself is O(1) while sqrt(n) * sd(psi_a) is O(sqrt(n)).
    The covariance uses the raw score draws.  Every score is a function
    of the unit's cell, so the draws are only counted per cell, and the
    sums are read from the cell values at the end.
    """
    oracle_draws = _check_integer(oracle_draws, "oracle_draws", least=2)
    rng = np.random.Generator(np.random.PCG64(seed))
    total = 0
    counts = np.zeros(N_CELLS, dtype=np.int64)
    while total < oracle_draws:
        m = min(_ORACLE_BATCH, oracle_draws - total)
        cells = draw_oracle_cells(params, rng, m)
        # np.bincount casts its input to intp, eight bytes a cell: count a
        # block at a time, not the whole uint8 batch at once.
        for lo in range(0, m, _CELL_BLOCK):
            counts += np.bincount(cells[lo : lo + _CELL_BLOCK], minlength=N_CELLS)
        total += m
    means = counts @ _cell_terms(params) / total
    c_a, c_b, cov = _limit_parameters(means, params.n)
    *_, mean_a, m_ca2, mean_b, m_cb2 = means
    root_n = math.sqrt(params.n)
    ca_se = root_n * math.sqrt(max(m_ca2 - mean_a * mean_a, 0.0) / total)
    cb_se = root_n * math.sqrt(max(m_cb2 - mean_b * mean_b, 0.0) / total)
    return WeakIVCalibration(
        c_a=c_a,
        c_b=c_b,
        sigma_ab=cov,
        ca_se=ca_se,
        cb_se=cb_se,
        ca_violated=abs(c_a) <= 3.0 * ca_se,
        cb_violated=abs(c_b) <= 3.0 * cb_se,
        draws=total,
    )

