"""Per-unit influence-function scores.

For nuisances (m, r, g) the two score components of unit i are

    psi_b = (2z - 1) / m(z | x) * (y - g(z, x)) + g(1, x) - g(0, x)
    psi_a = (2z - 1) / m(z | x) * (a - r(z, x)) + r(1, x) - r(0, x)

with m(1 | x) stored once and m(0 | x) = 1 - m(1 | x).  The target ratio
equals E[psi_b] / E[psi_a], so every downstream statistic is a function
of empirical moments of these two vectors.  No trimming or winsorizing is
applied.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .data import Dataset, _trusted
from .errors import DegenerateDataError, InvalidConfigError
from .nuisance import NuisancePredictions


def _check_finite(psi_a: np.ndarray, psi_b: np.ndarray, error=InvalidConfigError) -> None:
    if not (np.isfinite(psi_a).all() and np.isfinite(psi_b).all()):
        raise error("scores must be finite")


@dataclass(frozen=True)
class ScoreSample:
    """The paired per-unit score vectors (psi_a, psi_b).

    Each is held as a read-only copy of its input, so the caller's arrays
    stay writable and writing them cannot change the cached moments.
    """

    psi_a: np.ndarray
    psi_b: np.ndarray

    def __post_init__(self) -> None:
        psi_a = np.array(self.psi_a, dtype=float)
        psi_b = np.array(self.psi_b, dtype=float)
        if psi_a.shape != psi_b.shape or psi_a.ndim != 1:
            raise InvalidConfigError(
                f"score vectors must be 1-d and equal length, got {psi_a.shape} and {psi_b.shape}"
            )
        _check_finite(psi_a, psi_b)
        psi_a.setflags(write=False)
        psi_b.setflags(write=False)
        object.__setattr__(self, "psi_a", psi_a)
        object.__setattr__(self, "psi_b", psi_b)

    @property
    def n(self) -> int:
        return self.psi_a.shape[0]

    def moments(self) -> tuple[float, float, float, float, float]:
        """The five empirical moments every statistic is built from:
        mean(psi_a), mean(psi_b), mean(psi_a^2), mean(psi_b^2), mean(psi_a*psi_b).

        They are taken on the first call and kept, which is safe because
        the score arrays are read-only.  Finite scores whose moments
        overflow raise :class:`DegenerateDataError`.
        """
        if "_moments" not in self.__dict__:
            psi_a, psi_b, n = self.psi_a, self.psi_b, self.n
            # np.mean's pairwise sum divided by n, with the products in one
            # buffer; an overflow is reported below, not warned of.
            with np.errstate(over="ignore", invalid="ignore"):
                product = np.multiply(psi_a, psi_a)
                sums = [np.add.reduce(psi_a), np.add.reduce(psi_b), np.add.reduce(product)]
                sums.append(np.add.reduce(np.multiply(psi_b, psi_b, out=product)))
                sums.append(np.add.reduce(np.multiply(psi_a, psi_b, out=product)))
            moments = tuple(float(v) / n for v in sums)
            if not np.isfinite(moments).all():
                raise DegenerateDataError("score moments overflow double precision")
            self.__dict__["_moments"] = moments
        return self.__dict__["_moments"]


def compute_scores(data: Dataset, preds: NuisancePredictions) -> ScoreSample:
    """Plug nuisance predictions into the score formulas, unit by unit.

    Scores that overflow raise :class:`DegenerateDataError`, with no
    numpy warning.
    """
    if preds.n != data.n:
        raise InvalidConfigError(f"predictions cover {preds.n} units but the data has {data.n}")
    treated = data.z == 1
    # (2z - 1) / m(z | x), with m(0 | x) = 1 - m1.
    weight = np.where(treated, preds.m1, 1.0 - preds.m1)
    np.divide(2.0 * data.z - 1.0, weight, out=weight)
    with np.errstate(over="ignore", invalid="ignore"):
        psi_b = _score(weight, data.y, preds.g1, preds.g0, treated)
        psi_a = _score(weight, data.a, preds.r1, preds.r0, treated)
    # Both arrays are new and equal in length; no caller holds them, so
    # they are frozen in place rather than copied.
    _check_finite(psi_a, psi_b, DegenerateDataError)
    return _trusted(ScoreSample, psi_a=psi_a, psi_b=psi_b)


def _score(weight, target, fit1, fit0, treated):
    """weight * (target - fit(z)) + fit1 - fit0, in that order, in one new array."""
    out = np.where(treated, fit1, fit0)
    np.subtract(target, out, out=out)
    out *= weight
    out += fit1
    out -= fit0
    return out

