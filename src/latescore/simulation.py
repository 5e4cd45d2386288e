"""Synthetic data-generating process, replication engine and metrics, and
:func:`score_set`, the one path from data to the score set that
``analyze``, ``scan`` and each replication share.

One law in the family is parametrized by the instrument strength pi and
the sample size n:

    U ~ N(0,1),  X ~ N(0,1),  Z ~ Bernoulli(0.5),
    A = 1{pi * Z * 1{X > 0} + U > 0},
    Y = 2 * sign(U) + treatment_shift * A,

with sign(0) = 0.  U is independent of (Z, X), so the intent-to-treat
contrast of Y is treatment_shift times that of A: the target ratio is
treatment_shift exactly, and undefined at pi = 0, where Z does not move A.
The weak-instrument regime uses pi = 0.15 / sqrt(n), the strong regime
pi = 5.

Replications are independent tasks keyed by (master seed, n, rep_id)
through a splitmix64 mixer, so results do not depend on execution order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields
from operator import attrgetter
from typing import Iterable, Optional, Sequence

import numpy as np

from .data import _INDICATOR, Dataset, _check_integer, _read_only, _trusted, _write_columns, make_folds
from .errors import DegenerateDataError, InvalidConfigError, LatescoreError
from .inference import _z_crit, drml_estimate, invert_score_test, quad_coefficients
from .nuisance import LearnerSpec, NuisancePredictions, cross_fit
from .scores import compute_scores

_MASK64 = (1 << 64) - 1

WEAK_KAPPA = 0.15
STRONG_PI = 5.0


def _splitmix64(state: int) -> int:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def replication_seed(master_seed: int, n: int, rep_id: int) -> int:
    """64-bit seed for one replication, collision-free over a study grid."""
    h = _splitmix64(master_seed & _MASK64)
    h = _splitmix64(h ^ (n & _MASK64))
    h = _splitmix64(h ^ (rep_id & _MASK64))
    return h


@dataclass(frozen=True)
class DgpParams:
    """Parameters of one law: instrument strength, sample size, true effect."""

    pi: float
    n: int
    treatment_shift: float = 0.0

    def __post_init__(self) -> None:
        # Sizes are kept as Python ints: a numpy integer overflows the seed mixer.
        object.__setattr__(self, "n", _check_integer(self.n, "sample size", least=2))
        if not np.isfinite(self.pi):
            raise InvalidConfigError(f"pi must be finite, got {self.pi}")
        if not np.isfinite(self.treatment_shift):
            raise InvalidConfigError(f"treatment_shift must be finite, got {self.treatment_shift}")


def _draw(params: DgpParams, rng: np.random.Generator, size: int):
    """Draw ``size`` units (x, z, a, u) from the law, with z and a boolean.

    It reads the law's random stream in a fixed order: u, then x, then the
    uniform behind z.  :func:`draw_oracle_cells` reads it in the same order.
    """
    u = rng.standard_normal(size)
    x = rng.standard_normal(size)
    z = rng.random(size) < 0.5
    # The law's pi*z*1{x > 0} + u > 0, read as a threshold on u: pi + u > 0
    # exactly when u > -pi, and elsewhere the threshold is a zero of either sign.
    a = u > np.multiply(z & (x > 0), -params.pi)
    return x, z, a, u


def dgp_generate(params: DgpParams, seed: int) -> Dataset:
    """Draw one sample from the law, deterministically in the seed."""
    x, z, a, u = _draw(params, np.random.Generator(np.random.PCG64(seed)), params.n)
    y = 2.0 * np.sign(u) + params.treatment_shift * a
    # n >= 2, a and z are boolean, and y is finite with a finite shift.
    return _trusted(Dataset, y=y, a=a.astype(_INDICATOR), z=z.astype(_INDICATOR), x=x.reshape(-1, 1))


def _norm_cdf(t: float) -> float:
    return 0.5 * math.erfc(-t / math.sqrt(2.0))


# Every oracle score is a function of the unit's cell (z, 1{x > 0}, a,
# sign(u)), numbered 12*z + 6*1{x > 0} + 3*a + sign(u) + 1: the mixed-radix
# number of its four digits, decoded once below with sign(u) stored + 1.
N_CELLS = 24
_CELL_Z, _CELL_POS, _CELL_A, _CELL_SIGN = map(_read_only, np.unravel_index(np.arange(N_CELLS), (2, 2, 2, 3)))

# Units per block in draw_oracle_cells, which bounds its float temporaries
# to a block's worth.  Blocks read the random stream in order, so the cells
# do not depend on the block size.
_CELL_BLOCK = 65_536

# The cell of each code, the cell's number with 1{pi + u > 0} in place of a:
# a equals it where z = 1 and x > 0 and is 1{u > 0} elsewhere.
_CELL_OF_CODE = np.ravel_multi_index(
    (_CELL_Z, _CELL_POS, np.where(_CELL_Z & _CELL_POS, _CELL_A, _CELL_SIGN == 2), _CELL_SIGN), (2, 2, 2, 3)
).astype(np.uint8)


def oracle_cell_values(params: DgpParams) -> np.ndarray:
    """The oracle's (psi_a, psi_b, r1 - r0, g1 - g0) at each cell, as a (4, 24) array.

    Each cell's representative unit, with no covariate columns, goes
    through :func:`compute_scores` with the true nuisances: r(1, x) =
    Phi(pi) for x > 0 and 0.5 otherwise, r(0, x) = 0.5, g(z, x) =
    treatment_shift * r(z, x) and m = 0.5.  The contrasts r(1,X)-r(0,X)
    and g(1,X)-g(0,X) have sample means that are exact (Rao-Blackwellized)
    estimates of E[psi_a] and E[psi_b].  A shift whose scores overflow
    raises :class:`DegenerateDataError`.
    """
    shift = params.treatment_shift
    y = 2.0 * (_CELL_SIGN - 1.0) + shift * _CELL_A
    r1 = np.where(_CELL_POS == 1, _norm_cdf(params.pi), 0.5)
    r0 = np.full(N_CELLS, 0.5)
    preds = NuisancePredictions(g1=shift * r1, g0=shift * r0, r1=r1, r0=r0, m1=r0)
    scores = compute_scores(Dataset(y=y, a=_CELL_A, z=_CELL_Z, x=np.empty((N_CELLS, 0))), preds)
    return np.stack([scores.psi_a, scores.psi_b, r1 - r0, preds.g1 - preds.g0])


def cell_probabilities(params: DgpParams) -> np.ndarray:
    """The probability of each cell under the law, as a (24,) array in the
    numbering of :func:`oracle_cell_values`.

    z and 1{x > 0} are fair and independent of u, and sign(u) = 0 has
    probability 0.  Off z = 1, x > 0 the treatment is 1{u > 0}; on it,
    1{u > -pi}, which puts Phi(pi) - 1/2 on (a = 1, u < 0) for pi > 0 and
    1/2 - Phi(pi) on (a = 0, u > 0) for pi < 0.
    """
    phi = _norm_cdf(params.pi)
    still = [0.5, 0.0, 0.0, 0.0, 0.0, 0.5]  # (a, sign(u) + 1) = (0, 0), ..., (1, 2)
    moved = [min(_norm_cdf(-params.pi), 0.5), 0.0, max(0.5 - phi, 0.0), max(phi - 0.5, 0.0), 0.0, min(phi, 0.5)]
    return 0.25 * np.array(still * 3 + moved)


def draw_oracle_cells(params: DgpParams, rng: np.random.Generator, size: int) -> np.ndarray:
    """Draw ``size`` units from the law and return their cell numbers as uint8.

    The stream is read as :func:`_draw` reads it, all u, then all x, then
    all uniforms behind z, each pass ``_CELL_BLOCK`` units at a time.  A
    unit keeps one byte between passes, a code that the last pass maps to
    its cell through ``_CELL_OF_CODE``.
    """
    cells = np.empty(size, dtype=np.uint8)
    blocks = [cells[lo : lo + _CELL_BLOCK] for lo in range(0, size, _CELL_BLOCK)]
    for code in blocks:
        u = rng.standard_normal(code.size)
        # sign(u) + 1 is 1{u > 0} + 1{u >= 0}, so a zero of either sign gives 1.
        np.greater(u, 0.0, out=code.view(np.bool_))
        code += u >= 0.0
        # pi + u is _draw's pi*z*1{x > 0} + u, bit for bit, where z = 1 and x > 0.
        u += params.pi
        code += np.uint8(3) * (u > 0.0)
    for code in blocks:
        code += np.uint8(6) * (rng.standard_normal(code.size) > 0.0)
    for code in blocks:
        code += np.uint8(12) * (rng.random(code.size) < 0.5)
        np.take(_CELL_OF_CODE, code, out=code)
    return cells


def oracle_scores(params: DgpParams, rng: np.random.Generator, size: int):
    """Draw (psi_a, psi_b) pairs with the true nuisances plugged in, plus the
    conditional-mean contrasts r(1,X)-r(0,X) and g(1,X)-g(0,X); see
    :func:`oracle_cell_values`.
    """
    return tuple(oracle_cell_values(params)[:, draw_oracle_cells(params, rng, size)])


@dataclass(frozen=True)
class ReplicationResult:
    """Outcome of one replication: coverage, diameters, diagnostics."""

    rep_id: int
    covered_score: bool
    covered_wald: bool
    diam_score: float
    diam_wald: float
    set_tag: str
    dn0: float
    phi_hat: float


@dataclass(frozen=True)
class StudySpec:
    """Study grid: instrument regime, sample sizes, replication budget."""

    setting: str = "strong"
    n_grid: tuple[int, ...] = (1500, 4500, 7500, 10500, 12000)
    reps: int = 1000
    alpha: float = 0.05
    seed: int = 0
    learner: LearnerSpec = field(
        default_factory=lambda: LearnerSpec(
            g_learner="cell_mean", r_learner="cell_mean", m_learner="known_constant", m_value=0.5
        )
    )
    pi: Optional[float] = None  # required for setting="custom"

    def __post_init__(self) -> None:
        if self.setting not in ("weak", "strong", "custom"):
            raise InvalidConfigError(f"unknown setting {self.setting!r}")
        if self.setting != "custom" and self.pi is not None:
            raise InvalidConfigError(f"pi applies to setting='custom' only, not {self.setting!r}")
        if self.setting == "custom" and self.pi is None:
            raise InvalidConfigError("setting='custom' requires pi")
        if self.setting == "custom" and self.pi == 0.0:
            raise InvalidConfigError("setting='custom' needs pi != 0, where the target ratio is defined")
        if self.setting == "custom" and not math.isfinite(self.pi):
            raise InvalidConfigError(f"setting='custom' needs a finite pi, got {self.pi}")
        # Sizes and the seed are kept as Python ints: a numpy integer overflows the seed mixer.
        object.__setattr__(self, "seed", _check_integer(self.seed, "seed", least=0))
        if self.seed > _MASK64:  # replication_seed reads the seed modulo 2**64
            raise InvalidConfigError(f"seed must be below 2**64, got {self.seed}")
        object.__setattr__(self, "reps", _check_integer(self.reps, "replication count", least=1))
        _z_crit(self.alpha)  # refuses an alpha whose normal quantile is not finite
        object.__setattr__(self, "n_grid", tuple(_check_integer(n, "sample size", least=2) for n in self.n_grid))
        if len(self.n_grid) == 0:
            raise InvalidConfigError("n_grid must list at least one sample size")
        for n in self.n_grid:
            if n < self.learner.K:
                raise InvalidConfigError(f"sample size n={n} is below the fold count K={self.learner.K}")

    def pi_for(self, n: int) -> float:
        if self.setting == "weak":
            return WEAK_KAPPA / math.sqrt(n)
        if self.setting == "strong":
            return STRONG_PI
        return float(self.pi)


def score_set(data: Dataset, learner: LearnerSpec, fold_seed: int, alpha: float):
    """``(scores, coeffs, cset)`` at level ``alpha`` of ``learner`` cross-fitted on
    ``data`` over ``fold_seed``'s folds.  The Wald estimate is the caller's, so
    that a weak denominator fails only the callers that report it."""
    # The folds are not kept: n int64s that the scores do not read.
    preds = cross_fit(data, learner, make_folds(data.n, learner.K, fold_seed))
    scores = compute_scores(data, preds)
    coeffs = quad_coefficients(scores, alpha)
    return scores, coeffs, invert_score_test(coeffs)


def run_replication(params: DgpParams, spec: StudySpec, rep_id: int) -> ReplicationResult:
    """Generate, cross-fit, score and test a single replication."""
    if params.pi == 0.0:
        raise InvalidConfigError("the target ratio is undefined at pi=0 (zero instrument effect on treatment)")
    rep_seed = replication_seed(spec.seed, params.n, rep_id)
    data = dgp_generate(params, rep_seed)
    scores, coeffs, cset = score_set(data, spec.learner, _splitmix64(rep_seed), spec.alpha)
    drml = drml_estimate(scores, spec.alpha)
    return ReplicationResult(
        rep_id=rep_id,
        covered_score=cset.contains(params.treatment_shift),
        covered_wald=drml.contains(params.treatment_shift),
        diam_score=cset.diameter(),
        diam_wald=drml.diameter(),
        set_tag=cset.tag,
        dn0=coeffs.dn0,
        phi_hat=drml.phi_hat,
    )


@dataclass
class StudyCell:
    """All replications for one (setting, n) grid point."""

    setting: str
    pi: float
    n: int
    results: list[ReplicationResult]
    failures: list[tuple[int, str]]


def run_study(spec: StudySpec, order: Optional[Sequence[int]] = None) -> list[StudyCell]:
    """Run the full grid.  ``order`` permutes replication execution (the
    collected results are identical for any order); per-replication
    degenerate-data failures are recorded, not raised.  A grid point where
    every replication failed raises DegenerateDataError before the next
    point runs."""
    cells = []
    rep_ids = list(order) if order is not None else list(range(spec.reps))
    if sorted(rep_ids) != list(range(spec.reps)):
        raise InvalidConfigError("order must be a permutation of range(reps)")
    for n in spec.n_grid:
        params = DgpParams(pi=spec.pi_for(n), n=n)
        results = []
        failures = []
        for rep_id in rep_ids:
            try:
                results.append(run_replication(params, spec, rep_id))
            except LatescoreError as exc:
                failures.append((rep_id, str(exc)))
        results.sort(key=lambda r: r.rep_id)
        failures.sort()
        if not results:
            rep_id, reason = failures[0]
            raise DegenerateDataError(
                f"setting={spec.setting} n={n}: all {len(failures)} replications failed; "
                f"the first (rep {rep_id}): {reason}"
            )
        cells.append(StudyCell(setting=spec.setting, pi=params.pi, n=n, results=results, failures=failures))
    return cells


@dataclass(frozen=True)
class CellSummary:
    """Coverage and diameter metrics aggregated over one grid point."""

    coverage_score: float
    coverage_wald: float
    se_score: float
    se_wald: float
    median_diam_score: float
    median_diam_wald: float
    frac_infinite: float
    median_ratio: float


def aggregate(results: Sequence[ReplicationResult]) -> CellSummary:
    """Collapse one grid point's replications into coverage/length metrics.

    Medians are taken over the extended reals (+inf sorts above every
    finite value); the diameter ratio uses only replications where both
    sets are bounded.
    """
    if len(results) == 0:
        raise InvalidConfigError("cannot aggregate an empty result list")
    reps = len(results)
    cov_s = np.array([r.covered_score for r in results], dtype=float)
    cov_w = np.array([r.covered_wald for r in results], dtype=float)
    diam_s = np.array([r.diam_score for r in results], dtype=float)
    diam_w = np.array([r.diam_wald for r in results], dtype=float)
    both_finite = np.isfinite(diam_s) & np.isfinite(diam_w) & (diam_w > 0)
    ratios = diam_s[both_finite] / diam_w[both_finite]
    return CellSummary(
        coverage_score=float(cov_s.mean()),
        coverage_wald=float(cov_w.mean()),
        se_score=float(np.sqrt(cov_s.mean() * (1.0 - cov_s.mean()) / reps)),
        se_wald=float(np.sqrt(cov_w.mean() * (1.0 - cov_w.mean()) / reps)),
        median_diam_score=float(np.median(diam_s)),
        median_diam_wald=float(np.median(diam_w)),
        frac_infinite=float(np.mean(~np.isfinite(diam_s))),
        median_ratio=float(np.median(ratios)) if ratios.size else float("nan"),
    )


def _write_records(path: str, record_type, rows: Iterable) -> None:
    """Write ``rows``, pairs of a StudyCell and a ``record_type`` record, as
    a CSV table: the cell's setting and n, then the record's fields in the
    order ``record_type`` declares them, under their names.  Bools are 0/1."""
    names = [f.name for f in fields(record_type)]
    get = attrgetter(*names)
    table = [
        (cell.setting, cell.n, *(int(v) if isinstance(v, (bool, np.bool_)) else v for v in get(record)))
        for cell, record in rows
    ]
    _write_columns(path, ["setting", "n", *names], *zip(*table))


def write_replications_csv(cells: Iterable[StudyCell], path: str) -> None:
    _write_records(path, ReplicationResult, ((cell, r) for cell in cells for r in cell.results))


def write_summary_csv(cells: Iterable[StudyCell], path: str) -> None:
    _write_records(path, CellSummary, ((cell, aggregate(cell.results)) for cell in cells))
