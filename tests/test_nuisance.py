import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latescore import (
    Dataset,
    DegenerateDataError,
    DgpParams,
    DegenerateFoldError,
    FoldAssignment,
    InvalidConfigError,
    LearnerSpec,
    NuisancePredictions,
    cross_fit,
    dgp_generate,
    fit_cell_mean,
    fit_logistic,
    fit_ols,
    make_folds,
)
from latescore import nuisance
from latescore.nuisance import _predict


def _design(features):
    """The design [1, features]: the fitters take the intercept's ones as column 0."""
    features = np.asarray(features, dtype=float)
    return np.column_stack([np.ones(features.shape[0]), features])


class TestFitOls:
    def test_exact_line(self):
        model = fit_ols(_design([[1.0], [2.0], [3.0]]), np.array([2.0, 4.0, 6.0]))
        assert abs(model.beta[1] - 2.0) < 1e-10
        assert abs(model.beta[0]) < 1e-10

    def test_constant_targets(self):
        model = fit_ols(_design([[1.0], [2.0], [3.0]]), np.array([7.0, 7.0, 7.0]))
        assert abs(model.beta[0] - 7.0) < 1e-10
        assert abs(model.beta[1]) < 1e-10

    def test_against_lstsq_oracle(self):
        rng = np.random.Generator(np.random.PCG64(0))
        x = rng.standard_normal((50, 3))
        y = rng.standard_normal(50)
        model = fit_ols(_design(x), y)
        design = np.column_stack([np.ones(50), x])
        oracle, *_ = np.linalg.lstsq(design, y, rcond=None)
        assert abs(model.beta[0] - oracle[0]) < 1e-8
        assert np.max(np.abs(model.beta[1:] - oracle[1:])) < 1e-8

    def test_rank_deficient_uses_ridge(self):
        x = np.array([[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])  # duplicated column
        model = fit_ols(_design(x), np.array([1.0, 2.0, 3.0]))
        assert model.ridge_fallback
        assert np.all(np.isfinite(model.beta[1:]))

    def test_predictions(self):
        model = fit_ols(_design([[0.0], [1.0]]), np.array([1.0, 3.0]))
        pred = _predict(model, _design([[2.0]]))
        assert abs(pred[0] - 5.0) < 1e-10


_OLS_VALUE = st.floats(-1e6, 1e6)


@st.composite
def _rank_deficient_designs(draw):
    """A design [1, x] made rank-deficient by a duplicated column, a
    constant column or fewer rows than columns, or an all-zero design;
    with targets for its rows."""
    kind = draw(st.sampled_from(["duplicate", "constant", "few rows", "zero"]))
    k = draw(st.integers(1 if kind == "few rows" else 0, 4))
    rows = draw(st.integers(1, k) if kind == "few rows" else st.integers(1, 12))
    x = draw(st.lists(_OLS_VALUE, min_size=rows * k, max_size=rows * k))
    design = _design(np.reshape(x, (rows, k)))
    if kind == "duplicate":
        design = np.column_stack([design, design[:, draw(st.integers(0, k))]])
    elif kind == "constant":
        design = np.column_stack([design, np.full(rows, draw(_OLS_VALUE))])
    elif kind == "zero":
        design = np.zeros_like(design)
    targets = draw(st.lists(_OLS_VALUE, min_size=rows, max_size=rows))
    return design, np.array(targets)


class TestFitOlsAgainstReference:
    """fit_ols against the form with a second, floored ridge after a failed solve."""

    @settings(max_examples=300, deadline=None)
    @given(case=_rank_deficient_designs())
    def test_same_bits_and_flag_on_rank_deficient_designs(self, reference_ols, case):
        design, targets = case
        want, (_, want_flag) = reference_ols(design, targets)
        model = fit_ols(design, targets)
        assert model.ridge_fallback == want_flag
        assert model.beta.tobytes() == want.tobytes()


class TestFitLogistic:
    def test_pure_labels_fall_back_to_constant(self):
        model = fit_logistic(_design([[0.1], [0.2], [0.3]]), np.array([1, 1, 1]))
        assert model.beta[0] == np.inf and model.beta[1] == 0.0
        eps = 0.01
        clipped = np.clip(_predict(model, _design([[0.5]])), eps, 1 - eps)
        assert clipped[0] == 1 - eps

    @pytest.mark.parametrize("label", [0, 1])
    @pytest.mark.parametrize("p", [0, 1, 2])
    def test_pure_label_predictions_are_the_clipped_label(self, label, p):
        # The constant model these fits replaced predicted exactly these bits.
        rng = np.random.Generator(np.random.PCG64(label + 2 * p))
        features = rng.standard_normal((9, p)) * 1e3
        model = fit_logistic(_design(features), np.full(9, label))
        assert (model.converged, model.warning) == (True, False)
        block = rng.standard_normal((6, p)) * 1e3
        want = np.clip(np.full(6, float(label)), 1e-12, 1 - 1e-12)
        assert _predict(model, _design(block)).tobytes() == want.tobytes()

    def test_balanced_labels_independent_of_features(self):
        # same feature values carry both labels: exact symmetry
        x = np.repeat(np.linspace(-1, 1, 10), 2).reshape(-1, 1)
        labels = np.tile([0, 1], 10)
        model = fit_logistic(_design(x), labels)
        assert abs(model.beta[0]) < 1e-6
        assert abs(model.beta[1]) < 1e-6
        assert np.max(np.abs(_predict(model, _design(x)) - 0.5)) < 1e-6

    def test_recovers_slope_against_grid_mle_oracle(self):
        rng = np.random.Generator(np.random.PCG64(7))
        n = 200
        x = rng.standard_normal(n)
        p = 1.0 / (1.0 + np.exp(-1.5 * x))
        labels = (rng.random(n) < p).astype(int)
        model = fit_logistic(_design(x.reshape(-1, 1)), labels)
        assert model.converged
        assert abs(model.beta[1] - 1.5) < 0.3

        # independent oracle: fine grid search of the slope-only likelihood
        grid = np.linspace(0.0, 3.0, 3001)
        loglik = np.empty_like(grid)
        for i, beta in enumerate(grid):
            t = beta * x
            loglik[i] = np.sum(labels * t - np.logaddexp(0.0, t))
        slope_oracle = grid[np.argmax(loglik)]
        assert abs(model.beta[1] - slope_oracle) < 0.15

    def test_perfect_separation_sets_warning(self):
        x = np.linspace(-1, 1, 20).reshape(-1, 1)
        labels = (x[:, 0] > 0).astype(int)
        model = fit_logistic(_design(x), labels)
        assert model.warning
        p = _predict(model, _design(x))
        assert np.all(p > 0) and np.all(p < 1)

    def test_clean_fit_has_no_warning(self):
        rng = np.random.Generator(np.random.PCG64(1))
        x = rng.standard_normal(300)
        labels = (rng.random(300) < 1.0 / (1.0 + np.exp(-x))).astype(int)
        model = fit_logistic(_design(x.reshape(-1, 1)), labels)
        assert model.converged
        assert not model.warning

    def test_a_nan_coefficient_ends_the_fit(self, monkeypatch):
        # Covariates of order 1e200 overflow the Hessian, so the first step
        # leaves beta = [nan, 0]; every later probability and gradient is NaN.
        calls = []
        sigmoid = nuisance._sigmoid_inplace
        monkeypatch.setattr(nuisance, "_sigmoid_inplace", lambda *args: calls.append(1) or sigmoid(*args))
        rng = np.random.Generator(np.random.PCG64(0))
        x = rng.standard_normal(20_000) * 1e200
        labels = (rng.random(20_000) < 0.5).astype(float)
        with np.errstate(all="ignore"):
            model = fit_logistic(_design(x.reshape(-1, 1)), labels)
        assert len(calls) <= 3
        assert np.isnan(model.beta).all() and model.beta.shape == (2,)
        assert (model.converged, model.warning) == (False, True)


class TestFitCellMean:
    # Tables are indexed [z, 1{x1 > 0}].
    def test_constant_values(self):
        means = fit_cell_mean(np.full((2, 2), 3.0), np.ones((2, 2)))
        assert means.tolist() == [[3.0, 3.0], [3.0, 3.0]]

    def test_hand_tabulated_cells(self):
        # (z=1, x>0): values 1,1,1,0,1 -> 0.8 ; (z=0, x>0): 1,0 -> 0.5
        # (z=1, x<=0): 0,0 -> 0.0 ; (z=0, x<=0): 1 -> 1.0
        sums = np.array([[1.0, 1.0], [0.0, 4.0]])
        counts = np.array([[1, 2], [2, 5]])
        means = fit_cell_mean(sums, counts)
        assert means[1, 1] == pytest.approx(0.8)
        assert means[0, 1] == pytest.approx(0.5)
        assert means[1, 0] == pytest.approx(0.0)
        assert means[0, 0] == pytest.approx(1.0)

    def test_single_row_falls_back_everywhere(self):
        # one unit, z=1 and x1=0.5, with value 2.5
        means = fit_cell_mean(np.array([[0.0, 0.0], [0.0, 2.5]]), np.array([[0, 0], [0, 1]]))
        assert means.tolist() == [[2.5, 2.5], [2.5, 2.5]]


def _fit_outcome(fit, sums, counts):
    """A fit's result as (dtype, shape, bytes), or its error as (type, message)."""
    try:
        means = fit(sums, counts)
    except InvalidConfigError as exc:
        return type(exc), str(exc)
    return means.dtype, means.shape, means.tobytes()


_CELL_SUM = st.floats(allow_nan=False) | st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308])
_CELL_COUNT = st.integers(0, 3) | st.integers(0, 2**53)


class TestFitCellMeanAgainstReference:
    """fit_cell_mean on Python floats against the numpy form it replaced."""

    @settings(max_examples=300, deadline=None)
    @given(
        # Four equal sums reach the signed zeros: only -0.0 four times sums to -0.0.
        sums=st.lists(_CELL_SUM, min_size=4, max_size=4) | _CELL_SUM.map(lambda v: [v] * 4),
        counts=st.lists(_CELL_COUNT, min_size=4, max_size=4),
        form=st.sampled_from(["array", "float array", "list"]),
    )
    @example(sums=[-0.0] * 4, counts=[0, 1, 2, 0], form="array")
    def test_same_bits_or_same_error(self, reference_cell_mean_fit, sums, counts, form):
        if form == "list":
            tables = [sums[:2], sums[2:]], [counts[:2], counts[2:]]
        else:
            kind = float if form == "float array" else int
            tables = np.array(sums).reshape(2, 2), np.array(counts, dtype=kind).reshape(2, 2)
        with np.errstate(over="ignore", invalid="ignore"):
            want = _fit_outcome(reference_cell_mean_fit, *tables)
        assert _fit_outcome(fit_cell_mean, *tables) == want

    def test_an_all_empty_table_raises_the_same_error(self, reference_cell_mean_fit):
        sums, counts = [[1.0, -0.0], [2.5, 0.0]], np.zeros((2, 2), dtype=int)
        want = _fit_outcome(reference_cell_mean_fit, sums, counts)
        assert want[0] is InvalidConfigError
        assert _fit_outcome(fit_cell_mean, sums, counts) == want

    def test_returns_a_new_array(self):
        sums, counts = np.ones((2, 2)), np.ones((2, 2))
        means = fit_cell_mean(sums, counts)
        assert not np.shares_memory(means, sums) and not np.shares_memory(means, counts)
        assert means.flags.writeable


def _simple_dataset(n=60, seed=0, pi=5.0):
    return dgp_generate(DgpParams(pi=pi, n=n), seed=seed)


def _cellmean_spec(**kwargs):
    return LearnerSpec(
        g_learner="cell_mean",
        r_learner="cell_mean",
        m_learner="known_constant",
        m_value=0.5,
        **kwargs,
    )


class TestCrossFit:
    @pytest.mark.parametrize("g, r", [("cell_mean", "cell_mean"), ("ols_linear", "logistic")])
    def test_known_propensity_fills_constant(self, g, r):
        data = _simple_dataset()
        folds = make_folds(data.n, 5, seed=1)
        spec = LearnerSpec(g_learner=g, r_learner=r, m_learner="known_constant", m_value=0.5)
        preds = cross_fit(data, spec, folds)
        assert np.all(preds.m1 == 0.5)
        # One clipped number, viewed n times over.
        assert preds.m1.strides == (0,) and not preds.m1.flags.writeable

    def test_zero_outcome_gives_zero_g(self):
        n = 20
        rng = np.random.Generator(np.random.PCG64(2))
        data = Dataset(
            y=np.zeros(n),
            a=rng.integers(0, 2, n),
            z=np.tile([0, 1], n // 2),
            x=rng.standard_normal((n, 1)),
        )
        folds = make_folds(n, 2, seed=0)
        preds = cross_fit(data, _cellmean_spec(K=2), folds)
        assert np.all(preds.g1 == 0.0)
        assert np.all(preds.g0 == 0.0)

    def test_cell_means_match_hand_recomputation(self):
        data = _simple_dataset(n=100, seed=3)
        folds = make_folds(100, 5, seed=9)
        preds = cross_fit(data, _cellmean_spec(), folds)
        for k in range(5):
            train = np.flatnonzero(folds.fold_of != k)
            test = np.flatnonzero(folds.fold_of == k)
            for i in test:
                pos = int(data.x[i, 0] > 0)
                for z_level, vec in ((1, preds.r1), (0, preds.r0)):
                    mask = (data.z[train] == z_level) & ((data.x[train, 0] > 0) == bool(pos))
                    cell = data.a[train][mask]
                    expected = cell.mean() if cell.size else data.a[train].mean()
                    assert vec[i] == pytest.approx(expected, abs=1e-12)

    def test_out_of_fold_purity(self):
        data = _simple_dataset(n=80, seed=4)
        folds = make_folds(80, 4, seed=5)
        spec = _cellmean_spec(K=4)
        preds = cross_fit(data, spec, folds)
        fold0 = np.flatnonzero(folds.fold_of == 0)
        # At scale 1e17 the fold-0 values would swamp a training table
        # taken as the total minus fold 0.
        for scale in (1.0, 1e17):
            rng = np.random.Generator(np.random.PCG64(6))
            y2 = data.y.copy()
            y2[fold0] = scale * rng.standard_normal(fold0.size)  # perturb only fold 0 targets
            data2 = Dataset(y=y2, a=data.a, z=data.z, x=data.x)
            preds2 = cross_fit(data2, spec, folds)
            assert np.array_equal(preds.g1[fold0], preds2.g1[fold0])
            assert np.array_equal(preds.g0[fold0], preds2.g0[fold0])

    def test_degenerate_fold_names_fold(self):
        data = Dataset(
            y=[1.0, 2.0, 3.0, 4.0],
            a=[0, 1, 0, 1],
            z=[1, 1, 0, 0],
            x=[[0.1], [0.2], [0.3], [0.4]],
        )
        folds = FoldAssignment(fold_of=np.array([0, 0, 1, 1]), K=2)
        with pytest.raises(DegenerateFoldError, match="fold 0"):
            cross_fit(data, _cellmean_spec(K=2), folds)

    def test_mixed_learners_match_each_learner_alone(self):
        # The cell-mean and per-fold halves of one cross_fit share the fold
        # counts; each half must predict as it does without the other.
        data = dgp_generate(DgpParams(pi=5.0, n=301), seed=4)
        folds = make_folds(301, 5, seed=5)
        cells = cross_fit(data, LearnerSpec(g_learner="cell_mean", r_learner="cell_mean", K=5), folds)
        regressions = cross_fit(data, LearnerSpec(K=5), folds)
        for g, r, g_from, r_from in [
            ("cell_mean", "logistic", cells, regressions),
            ("ols_linear", "cell_mean", regressions, cells),
        ]:
            mixed = cross_fit(data, LearnerSpec(g_learner=g, r_learner=r, K=5), folds)
            for name, want in [("g1", g_from), ("g0", g_from), ("r1", r_from), ("r0", r_from), ("m1", regressions)]:
                assert getattr(mixed, name).tobytes() == getattr(want, name).tobytes(), (g, r, name)

    def test_deterministic(self):
        data = _simple_dataset(n=64, seed=7)
        folds = make_folds(64, 4, seed=8)
        spec = LearnerSpec(K=4)  # ols + logistic + logistic-m defaults
        p1 = cross_fit(data, spec, folds)
        p2 = cross_fit(data, spec, folds)
        for name in ("g1", "g0", "r1", "r0", "m1"):
            assert np.array_equal(getattr(p1, name), getattr(p2, name))

    def test_estimated_propensity_is_clipped(self):
        data = _simple_dataset(n=40, seed=10)
        folds = make_folds(40, 2, seed=11)
        spec = LearnerSpec(K=2, clip_eps=0.2)
        preds = cross_fit(data, spec, folds)
        assert preds.m1.min() >= 0.2
        assert preds.m1.max() <= 0.8

    def test_probability_ranges(self):
        data = _simple_dataset(n=50, seed=12)
        folds = make_folds(50, 5, seed=13)
        preds = cross_fit(data, LearnerSpec(), folds)
        for vec in (preds.r1, preds.r0):
            assert vec.min() >= 0.0 and vec.max() <= 1.0
        assert preds.m1.min() > 0.0 and preds.m1.max() < 1.0


class TestLearnerSpecValidation:
    @pytest.mark.parametrize("kwargs", [
        dict(g_learner="forest"),
        dict(r_learner="ols_linear"),
        dict(m_learner="mystery"),
        dict(clip_eps=0.0),
        dict(clip_eps=0.5),
        dict(K=1),
        dict(m_learner="known_constant", m_value=0.0),
        dict(K=2.5),
        dict(K=5.0),
        dict(K=True),
    ])
    def test_rejects(self, kwargs):
        from latescore import InvalidConfigError

        with pytest.raises(InvalidConfigError):
            LearnerSpec(**kwargs)


def _per_slice_cell_means(data, folds):
    """Reference cell-mean cross-fit: gather each fold's training slice and
    average every (z, 1{x1 > 0}) cell with a mask, falling back to the
    slice's mean for an empty cell."""
    out = {name: np.empty(data.n) for name in ("g1", "g0", "r1", "r0")}
    for k in range(folds.K):
        train = np.flatnonzero(folds.fold_of != k)
        test = np.flatnonzero(folds.fold_of == k)
        z_train = data.z[train]
        if z_train.min() == z_train.max():
            raise DegenerateFoldError(
                f"training complement of fold {k} contains only instrument level {int(z_train[0])}"
            )
        pos_train = (data.x[train, 0] > 0).astype(int)
        pos_test = (data.x[test, 0] > 0).astype(int)
        for name, values in (("g", data.y[train].astype(float)), ("r", data.a[train].astype(float))):
            means = np.full((2, 2), np.nan)
            for zi in (0, 1):
                for pi in (0, 1):
                    mask = (z_train == zi) & (pos_train == pi)
                    if mask.any():
                        means[zi, pi] = values[mask].mean()
            for zi in (0, 1):
                pred = means[zi, pos_test]
                out[f"{name}{zi}"][test] = np.where(np.isnan(pred), values.mean(), pred)
    return out


def _both(data, folds):
    """(reference outcome, cross_fit outcome): prediction dicts or error messages."""
    results = []
    for fit in (_per_slice_cell_means, lambda d, f: vars(cross_fit(d, _cellmean_spec(K=f.K), f))):
        try:
            results.append(fit(data, folds))
        except DegenerateFoldError as exc:
            results.append(str(exc))
    return results


def _assert_bitwise_equal(fast, reference):
    assert fast.tobytes() == reference.tobytes()


def _assert_agree(data, folds, same):
    """Both raise the same DegenerateFoldError message, or ``same`` holds
    for each of g1, g0, r1, r0."""
    reference, fast = _both(data, folds)
    if isinstance(reference, str) or isinstance(fast, str):
        assert fast == reference
        return
    for name in ("g1", "g0", "r1", "r0"):
        same(fast[name], reference[name])


def _continuous(K, n, seed):
    """Normal outcomes scaled by 10**k for k in [-3, 3], and K seeded folds."""
    rng = np.random.Generator(np.random.PCG64(seed))
    data = Dataset(
        y=rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4),
        a=rng.integers(0, 2, n),
        z=np.arange(n) % 2,
        x=rng.standard_normal((n, 2)),
    )
    return data, make_folds(n, K, seed=seed)


def _within_cell_scale(data, folds, fast, reference):
    """Whether each prediction is within 1e-10 of its cell's sum of |y| (or
    of a) over its count of the reference.  A cell mean can nearly cancel,
    so a bound relative to the mean itself fails on correct code."""
    scale = _per_slice_cell_means(Dataset(y=np.abs(data.y), a=data.a, z=data.z, x=data.x), folds)
    return all(
        np.all(np.abs(fast[name] - reference[name]) <= 1e-10 * scale[name])
        for name in ("g1", "g0", "r1", "r0")
    )


class TestCellMeansAgainstPerSliceReference:
    @settings(max_examples=150, deadline=None)
    @given(
        K=st.integers(2, 10),
        extra=st.one_of(st.integers(0, 40), st.integers(0, 2990)),
        seed=st.integers(0, 2**32 - 1),
        weak=st.booleans(),
    )
    def test_bit_identical_on_the_dgp(self, K, extra, seed, weak):
        # y in {-2, 0, 2} and a in {0, 1}: every cell sum is exact in any order.
        n = K + extra
        pi = 0.15 / np.sqrt(n) if weak else 5.0
        data = dgp_generate(DgpParams(pi=pi, n=n), seed=seed)
        _assert_agree(data, make_folds(n, K, seed=seed + 1), _assert_bitwise_equal)

    # K=2, n=2001, seed=0 has a cell mean of -9.7e-11 that two summation
    # orders put 1.1e-20 apart: 1.1e-10 of the mean, 1e-20 of its mean |y|.
    @settings(max_examples=60, deadline=None)
    @given(K=st.integers(2, 10), n=st.integers(10, 3000), seed=st.integers(0, 2**32 - 1))
    @example(K=2, n=2001, seed=0)
    def test_close_on_continuous_outcomes(self, K, n, seed):
        data, folds = _continuous(K, n, seed)
        reference, fast = _both(data, folds)
        if isinstance(reference, str) or isinstance(fast, str):
            assert fast == reference
            return
        assert _within_cell_scale(data, folds, fast, reference)

    def test_the_bound_fails_with_one_unit_too_many_in_a_cell(self):
        data, folds = _continuous(2, 2001, 0)
        reference, fast = _both(data, folds)
        assert _within_cell_scale(data, folds, fast, reference)
        # Fold 0's (z = 1, x1 > 0) training cell mean, taken over one more unit.
        train, pos = folds.fold_of != 0, data.x[:, 0] > 0
        cell = train & (data.z == 1) & pos
        extra = np.flatnonzero(train & ~cell)[0]
        wrong = (data.y[cell].sum() + data.y[extra]) / (cell.sum() + 1)
        fast["g1"] = np.where(~train & pos, wrong, fast["g1"])
        assert not _within_cell_scale(data, folds, fast, reference)

    def test_empty_training_cell_takes_the_marginal_mean(self):
        # Unit 4 is the only (z=0, x1 <= 0) unit, so the training complement
        # of its fold 1, which is fold 0, has none: units 4 and 5 (x1 = 0.0
        # counts as x1 <= 0) get fold 0's marginal means at z=0.
        data = Dataset(
            y=[1.0, 2.0, 3.0, 10.0, 5.0, 6.0, 7.0, 8.0],
            a=[0, 1, 0, 1, 1, 0, 1, 1],
            z=[0, 1, 1, 0, 0, 1, 1, 0],
            x=[[0.5], [-0.5], [0.5], [0.5], [-0.5], [0.0], [0.5], [0.5]],
        )
        folds = FoldAssignment(fold_of=np.array([0, 0, 0, 0, 1, 1, 1, 1]), K=2)
        reference, fast = _both(data, folds)
        marginal_y, marginal_a = 4.0, 0.5
        assert fast["g0"][4] == marginal_y and fast["r0"][4] == marginal_a
        assert fast["g0"][5] == marginal_y and fast["r0"][5] == marginal_a
        for name in ("g1", "g0", "r1", "r0"):
            _assert_bitwise_equal(fast[name], reference[name])

    @pytest.mark.parametrize("z, fold_of", [
        ([1, 1, 0, 0], [0, 0, 1, 1]),
        ([1, 1, 0, 0], [1, 1, 0, 0]),
        ([0, 0, 1, 1, 0, 0], [0, 0, 1, 1, 2, 2]),
        ([1, 1, 1, 1, 0, 0], [0, 0, 1, 1, 2, 2]),
    ])
    def test_same_degenerate_fold_message(self, z, fold_of):
        n = len(z)
        data = Dataset(y=np.arange(n, dtype=float), a=np.arange(n) % 2, z=z, x=np.ones((n, 1)))
        reference, fast = _both(data, FoldAssignment(fold_of=np.array(fold_of), K=max(fold_of) + 1))
        assert isinstance(reference, str) and fast == reference


def _masked_sigmoid(t):
    """Reference sigmoid: one masked scatter per half line."""
    out = np.empty_like(t, dtype=float)
    pos = t >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def test_sigmoid_matches_the_masked_formula_bit_for_bit():
    from latescore.nuisance import _sigmoid_inplace

    rng = np.random.Generator(np.random.PCG64(11))
    t = np.concatenate([
        rng.standard_normal(50_000) * 10.0 ** rng.integers(-8, 4, 50_000),
        [0.0, -0.0, 745.0, -745.0, 1e308, -1e308, 709.8, -709.8, 5e-324, -5e-324],
    ])
    assert _sigmoid_inplace(t.copy(), np.empty_like(t)).tobytes() == _masked_sigmoid(t).tobytes()


# cross_fit's OLS and logistic fits sum their Gram and Hessian entries in
# another order than the reference (a column-major design, one column
# product at a time), so predictions may move by rounding.  Each entry is a
# sum of at most 2**12 terms here, which reordering moves by at most
# 2**12 eps of its scale; the designs below are well conditioned, and the
# solve and the fitted linear predictor may amplify that by 2**8.
_REGRESSION_TOL = 2.0**20 * np.finfo(float).eps


def _regression_data(n, p, seed, logistic_z):
    """Continuous outcomes, an endogenous treatment and, with ``logistic_z``,
    an instrument whose probability depends on x1."""
    rng = np.random.Generator(np.random.PCG64(seed))
    x = rng.standard_normal((n, p))
    shift = 0.8 * x[:, 0] if p and logistic_z else 0.0
    z = (rng.random(n) < 1.0 / (1.0 + np.exp(-shift))).astype(int)
    u = rng.standard_normal(n)
    a = (-0.2 + z + (0.5 * x[:, 0] if p else 0.0) + u > 0).astype(int)
    y = a + x @ np.linspace(0.5, -0.25, p) + u + rng.standard_normal(n)
    return Dataset(y=y, a=a, z=z, x=x)


def _regression_spec(K, m_logistic):
    if m_logistic:
        return LearnerSpec(K=K)
    return LearnerSpec(m_learner="known_constant", m_value=0.5, K=K)


def _recorded_cross_fit(monkeypatch, data, spec, folds):
    """cross_fit's predictions, with the flags of every fit it made in call order."""
    from latescore import nuisance

    flags = []
    fit_ols, fit_logistic = nuisance.fit_ols, nuisance.fit_logistic

    def recording_ols(features, targets):
        model = fit_ols(features, targets)
        flags.append(("ols", model.ridge_fallback))
        return model

    def recording_logistic(features, labels):
        model = fit_logistic(features, labels)
        flags.append(("logistic", (bool(np.isinf(model.beta[0])), model.converged, model.warning)))
        return model

    with monkeypatch.context() as patch:
        patch.setattr(nuisance, "fit_ols", recording_ols)
        patch.setattr(nuisance, "fit_logistic", recording_logistic)
        preds = cross_fit(data, spec, folds)
    return vars(preds), flags


def _assert_same_bytes_as_sorted_design(monkeypatch, reference_sorted_design, data, spec, folds):
    """The five prediction vectors byte for byte and the same fit flags as
    the sorted-design reference.  Returns the predictions and the flags."""
    want, want_flags = reference_sorted_design(data, spec, folds)
    got, got_flags = _recorded_cross_fit(monkeypatch, data, spec, folds)
    assert got_flags == want_flags
    for name in ("g1", "g0", "r1", "r0", "m1"):
        assert got[name].tobytes() == want[name].tobytes(), name
    return got, got_flags


def _assert_matches_reference(
    monkeypatch, reference_regression, reference_sorted_design, data, spec, folds
):
    """Same flags as both references; each prediction vector byte-identical to
    the sorted-design reference's, and byte-identical to the per-fold
    reference's or within the tolerance of its scale.  Returns the flags."""
    want, want_flags = reference_regression(data, spec, folds)
    got, got_flags = _assert_same_bytes_as_sorted_design(
        monkeypatch, reference_sorted_design, data, spec, folds
    )
    assert got_flags == want_flags
    for name in ("g1", "g0", "r1", "r0", "m1"):
        if got[name].tobytes() != want[name].tobytes():
            scale = max(1.0, float(np.max(np.abs(want[name]))))
            np.testing.assert_allclose(got[name], want[name], rtol=0, atol=_REGRESSION_TOL * scale)
    return got_flags


class TestRegressionCrossFitAgainstPerFoldReference:
    @pytest.mark.parametrize("p", [0, 1, 2])
    @pytest.mark.parametrize("K", [2, 5])
    @pytest.mark.parametrize("m_logistic", [False, True])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches(
        self, monkeypatch, reference_regression, reference_sorted_design, p, K, m_logistic, seed
    ):
        data = _regression_data(900 + 37 * seed, p, seed, m_logistic)
        folds = make_folds(data.n, K, seed=seed + 10)
        flags = _assert_matches_reference(
            monkeypatch, reference_regression, reference_sorted_design, data,
            _regression_spec(K, m_logistic), folds,
        )
        assert len(flags) == K * (3 if m_logistic else 2)

    @pytest.mark.parametrize("m_logistic", [False, True])
    def test_constant_covariate_takes_the_ridge_fallback(
        self, monkeypatch, reference_regression, reference_sorted_design, m_logistic
    ):
        base = _regression_data(800, 1, 3, m_logistic)
        data = Dataset(y=base.y, a=base.a, z=base.z, x=np.column_stack([base.x, np.full(base.n, 0.3)]))
        flags = _assert_matches_reference(
            monkeypatch, reference_regression, reference_sorted_design, data,
            _regression_spec(5, m_logistic),
            make_folds(data.n, 5, seed=4),
        )
        assert all(fallback for kind, fallback in flags if kind == "ols")

    @pytest.mark.parametrize("m_logistic", [False, True])
    def test_pure_label_training_fold_fits_a_constant(
        self, monkeypatch, reference_regression, reference_sorted_design, m_logistic
    ):
        base = _regression_data(600, 2, 5, m_logistic)
        folds = make_folds(base.n, 2, seed=6)
        # Fold 1 trains on fold 0, where every unit is untreated.
        a = np.where(folds.fold_of == 0, 0, base.a)
        data = Dataset(y=base.y, a=a, z=base.z, x=base.x)
        flags = _assert_matches_reference(
            monkeypatch, reference_regression, reference_sorted_design, data,
            _regression_spec(2, m_logistic), folds,
        )
        assert ("logistic", (True, True, False)) in flags

    @pytest.mark.parametrize("m_logistic", [False, True])
    def test_separable_fold_sets_the_warning(
        self, monkeypatch, reference_regression, reference_sorted_design, m_logistic
    ):
        base = _regression_data(600, 2, 7, m_logistic)
        # The treatment is the sign of x1, so every training fold separates.
        a = (base.x[:, 0] > 0).astype(int)
        data = Dataset(y=base.y, a=a, z=base.z, x=base.x)
        flags = _assert_matches_reference(
            monkeypatch, reference_regression, reference_sorted_design, data,
            _regression_spec(5, m_logistic),
            make_folds(data.n, 5, seed=8),
        )
        assert any(kind == "logistic" and state[2] for kind, state in flags)


# Every learner triple at each covariate count; cell means need a covariate.
_TRIPLES_BY_P = [
    (g, r, m, p)
    for g in ("ols_linear", "cell_mean")
    for r in ("logistic", "cell_mean")
    for m in ("logistic", "known_constant")
    for p in (0, 1, 3)
    if p or (g, r) == ("ols_linear", "logistic")
]


class TestRegressionCrossFitAgainstSortedDesign:
    """Every fit sees the matrix the whole-sample sorted design gave it, in
    the same layout, so every prediction keeps its bits.  n mod K != 0 gives
    training complements of two sizes, where a layout that reads the
    training design as a row slice of one larger array would round apart."""

    @pytest.mark.parametrize("g, r, m, p", _TRIPLES_BY_P)
    @pytest.mark.parametrize("K", [2, 3, 5])
    @pytest.mark.parametrize("extra", [0, 1])
    def test_same_bytes(self, monkeypatch, reference_sorted_design, g, r, m, p, K, extra):
        n = 30 * K * (5 + K) + extra * (K - 1)
        data = _regression_data(n, p, seed=K + p, logistic_z=m == "logistic")
        spec = LearnerSpec(g_learner=g, r_learner=r, m_learner=m, m_value=0.3, K=K)
        _assert_same_bytes_as_sorted_design(
            monkeypatch, reference_sorted_design, data, spec, make_folds(n, K, seed=K * p + extra)
        )

    @pytest.mark.parametrize("n", [200_000, 200_003])
    def test_same_bytes_at_benchmark_size(self, monkeypatch, reference_sorted_design, n):
        data = _regression_data(n, 2, seed=1, logistic_z=True)
        _assert_same_bytes_as_sorted_design(
            monkeypatch, reference_sorted_design, data, LearnerSpec(K=5), make_folds(n, 5, seed=2)
        )


class TestCrossFitMemory:
    """The regression path runs in two passes.  The fit pass holds the fold
    order, one training design and one label vector, and keeps only the
    models; the predict pass holds the fold order, the outputs and one
    test design.  So the training design and the outputs are never held at
    once, and the fold key, a whole-sample sorted design and per-fold
    copies of it are never held at all.  At n = 200,000 and p = 2 a single
    pass, with the outputs allocated before the fits, peaked at 17.2 MB
    with a known propensity and 18.8 MB with a logistic one; the sorted
    design and its per-fold copies at 31.7 and 33.0 MB."""

    @staticmethod
    def _peak(spec):
        data = _regression_data(200_000, 2, seed=1, logistic_z=True)
        folds = make_folds(data.n, 5, seed=2)
        cross_fit(_regression_data(100, 2, seed=1, logistic_z=True), spec, make_folds(100, 5, seed=2))
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            cross_fit(data, spec, folds)
            return tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()

    def test_known_propensity_peak_is_at_most_12_mb(self):
        assert self._peak(_regression_spec(5, m_logistic=False)) <= 12_000_000

    def test_logistic_propensity_peak_is_at_most_13_6_mb(self):
        assert self._peak(_regression_spec(5, m_logistic=True)) <= 13_600_000


def _overflow_data(big_z):
    """40 units, five in each (fold, z, 1{x1 > 0}) cell of folds i % 2, with
    y = 1e308 at the instrument levels in ``big_z``: two such values already
    overflow a cell's sum."""
    i = np.arange(40)
    z = (i // 2) % 2
    y = np.where(np.isin(z, big_z), 1e308, 0.25 * i)
    data = Dataset(y=y, a=(i // 8) % 2, z=z, x=np.where((i // 4) % 2 == 1, 1.0, -1.0))
    return data, FoldAssignment(fold_of=i % 2, K=2)


def _message(fit):
    try:
        fit()
    except DegenerateDataError as exc:
        assert type(exc) is DegenerateDataError
        return str(exc)
    return None


class TestCellMeanPredictionChecks:
    """cross_fit checks each per-unit prediction once, after every fold, in
    the order g1, g0, r1, r0, m1, whichever learner made it; it must raise
    the NuisancePredictions constructor's message, as DegenerateDataError."""

    @pytest.mark.parametrize("big_z, name", [([1], "g1"), ([0], "g0"), ([0, 1], "g1")])
    def test_overflowing_outcomes_name_the_first_non_finite_prediction(
        self, reference_cell_means, big_z, name
    ):
        data, folds = _overflow_data(big_z)
        spec = _cellmean_spec(K=2)
        expected = f"{name} contains non-finite predictions"
        assert _message(lambda: reference_cell_means(data, spec, folds)) == expected
        assert _message(lambda: cross_fit(data, spec, folds)) == expected

    def test_the_full_check_runs_beside_a_logistic_fit(self):
        data, folds = _overflow_data([0])
        spec = LearnerSpec(g_learner="cell_mean", r_learner="logistic", m_learner="logistic", K=2)
        assert _message(lambda: cross_fit(data, spec, folds)) == "g0 contains non-finite predictions"

    def test_cell_mean_g_is_named_before_an_overflowing_propensity_fit(self):
        # Covariates of order 1e200 overflow the propensity's Hessian but
        # leave the cells, split on their sign, as they are.
        rng = np.random.default_rng(5)
        i, z, a, x = np.arange(40), rng.integers(0, 2, 40), rng.integers(0, 2, 40), 1e200 * rng.standard_normal(40)
        folds = FoldAssignment(fold_of=i % 2, K=2)
        spec = LearnerSpec(g_learner="cell_mean", r_learner="cell_mean", m_learner="logistic", K=2)
        for y, name in ((np.where(z == 1, 1e308, 0.25 * i), "g1"), (0.25 * i, "m1")):
            data = Dataset(y=y, a=a, z=z, x=x)
            assert _message(lambda: cross_fit(data, spec, folds)) == f"{name} contains non-finite predictions"

    @pytest.mark.parametrize("g_learner", ["cell_mean", "ols_linear"])
    @pytest.mark.parametrize("m_learner", ["known_constant", "logistic"])
    def test_overflow_is_degenerate_data_without_a_warning(self, g_learner, m_learner):
        data, folds = _overflow_data([1])
        spec = LearnerSpec(g_learner=g_learner, r_learner="cell_mean", m_learner=m_learner, K=2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDataError, match="g1 contains non-finite predictions") as caught:
                cross_fit(data, spec, folds)
        assert type(caught.value) is DegenerateDataError

    def test_non_finite_predictions_from_a_caller_are_a_config_error(self):
        with pytest.raises(InvalidConfigError, match="g0 contains non-finite predictions") as caught:
            NuisancePredictions(g1=[0.0], g0=[np.inf], r1=[0.5], r0=[0.5], m1=[0.5])
        assert not isinstance(caught.value, DegenerateDataError)

    def test_a_cell_no_unit_reads_may_overflow(self, reference_cell_means):
        # Fold 0 has no unit with x1 > 0, so its x1 > 0 cells, fitted on
        # fold 1's overflowing ones, are never read.
        i = np.arange(16)
        x = np.where((i >= 8) & (i < 12), 1.0, -1.0)
        data = Dataset(y=np.where(x > 0, 1e308, 0.5 * i), a=i % 3 == 0, z=i % 2, x=x)
        folds = FoldAssignment(fold_of=i // 8, K=2)
        spec = _cellmean_spec(K=2)
        preds, reference = cross_fit(data, spec, folds), reference_cell_means(data, spec, folds)
        for name in ("g1", "g0", "r1", "r0", "m1"):
            assert np.all(np.isfinite(getattr(preds, name)))
            _assert_bitwise_equal(getattr(preds, name), getattr(reference, name))

    def test_package_built_containers_equal_checked_ones(self):
        data = dgp_generate(DgpParams(pi=5.0, n=60), seed=3)
        folds = make_folds(60, 4, seed=2)
        preds = cross_fit(data, _cellmean_spec(K=4), folds)
        pairs = [
            (data, Dataset(y=data.y, a=data.a, z=data.z, x=data.x), ("y", "a", "z", "x")),
            (folds, FoldAssignment(fold_of=folds.fold_of, K=4), ("fold_of",)),
            (preds, NuisancePredictions(**vars(preds)), ("g1", "g0", "r1", "r0", "m1")),
        ]
        for built, checked, names in pairs:
            for name in names:
                got, want = getattr(built, name), getattr(checked, name)
                assert got.dtype == want.dtype and got.shape == want.shape
                assert not got.flags.writeable
                _assert_bitwise_equal(got, want)
        assert folds.K == 4
