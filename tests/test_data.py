import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from latescore import (
    CsvParseError,
    CsvSchema,
    Dataset,
    InvalidConfigError,
    load_csv,
    make_folds,
    write_csv,
)


class TestMakeFolds:
    def test_two_folds_of_two(self):
        folds = make_folds(4, 2, seed=0)
        sizes = np.bincount(folds.fold_of, minlength=2)
        assert sorted(sizes) == [2, 2]

    def test_odd_split_sizes(self):
        folds = make_folds(5, 2, seed=7)
        sizes = np.bincount(folds.fold_of, minlength=2)
        assert sorted(sizes) == [2, 3]

    def test_balanced_and_deterministic(self):
        first = make_folds(1500, 5, seed=42)
        again = make_folds(1500, 5, seed=42)
        sizes = np.bincount(first.fold_of, minlength=5)
        assert list(sizes) == [300] * 5
        assert np.array_equal(first.fold_of, again.fold_of)

    def test_seed_changes_assignment(self):
        a = make_folds(100, 4, seed=1)
        b = make_folds(100, 4, seed=2)
        assert not np.array_equal(a.fold_of, b.fold_of)

    @pytest.mark.parametrize("n,k", [(10, 1), (10, 0), (3, 4), (2, 3)])
    def test_bad_fold_counts(self, n, k):
        with pytest.raises(InvalidConfigError):
            make_folds(n, k, seed=0)

    @given(n=st.integers(2, 400), k=st.integers(2, 12), seed=st.integers(0, 2**32))
    @settings(max_examples=200, deadline=None)
    def test_balance_property(self, n, k, seed):
        if k > n:
            return
        folds = make_folds(n, k, seed)
        sizes = np.bincount(folds.fold_of, minlength=k)
        assert sizes.min() >= 1
        assert sizes.max() - sizes.min() <= 1
        assert sizes.sum() == n

    def test_members_complement_partition(self):
        folds = make_folds(23, 4, seed=3)
        for k in range(4):
            members = set(folds.members(k))
            complement = set(folds.complement(k))
            assert members | complement == set(range(23))
            assert not members & complement


class TestDataset:
    def test_requires_two_rows(self):
        with pytest.raises(InvalidConfigError):
            Dataset(y=[1.0], a=[0], z=[0], x=[[0.0]])

    def test_rejects_nonbinary(self):
        with pytest.raises(InvalidConfigError):
            Dataset(y=[1.0, 2.0], a=[0, 2], z=[0, 1], x=[[0.0], [1.0]])

    def test_arrays_read_only(self):
        data = Dataset(y=[1.0, 2.0], a=[0, 1], z=[0, 1], x=[[0.0], [1.0]])
        with pytest.raises(ValueError):
            data.y[0] = 5.0

    @pytest.mark.parametrize("kwargs", [
        dict(y=1.0, a=2, z=0, x=(0.0,)),
        dict(y=1.0, a=0, z=-1, x=(0.0,)),
        dict(y=float("nan"), a=0, z=0, x=(0.0,)),
        dict(y=0.0, a=0, z=0, x=(float("inf"),)),
    ])
    def test_rejects_invalid_row(self, kwargs):
        rows = [dict(y=0.5, a=1, z=1, x=(0.25,)), kwargs]
        with pytest.raises(InvalidConfigError):
            Dataset(
                y=[r["y"] for r in rows], a=[r["a"] for r in rows],
                z=[r["z"] for r in rows], x=[r["x"] for r in rows],
            )


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestLoadCsv:
    def test_three_rows(self, tmp_path):
        path = _write(tmp_path, "y,a,z,x1\n1.0,0,1,0.5\n2.0,1,0,-0.5\n3.0,1,1,0.0\n")
        data = load_csv(path)
        assert data.n == 3
        assert data.p == 1
        assert list(data.y) == [1.0, 2.0, 3.0]

    def test_nonbinary_treatment_names_row_and_column(self, tmp_path):
        rows = ["%d.0,0,1,0.1" % i for i in range(1, 5)] + ["5.0,2,1,0.1", "6.0,1,0,0.2"]
        path = _write(tmp_path, "y,a,z,x1\n" + "\n".join(rows) + "\n")
        with pytest.raises(CsvParseError, match=r"row 5.*column a"):
            load_csv(path)

    def test_missing_column(self, tmp_path):
        path = _write(tmp_path, "y,a,x1\n1.0,0,0.5\n2.0,1,-0.5\n")
        with pytest.raises(CsvParseError, match="'z'"):
            load_csv(path)

    def test_non_numeric_cell(self, tmp_path):
        path = _write(tmp_path, "y,a,z,x1\n1.0,0,1,0.5\nbad,1,0,-0.5\n")
        with pytest.raises(CsvParseError, match=r"row 2.*column y"):
            load_csv(path)

    def test_missing_value(self, tmp_path):
        path = _write(tmp_path, "y,a,z,x1\n1.0,0,1,0.5\n2.0,1,0,\n")
        with pytest.raises(CsvParseError, match=r"missing value.*row 2"):
            load_csv(path)

    def test_single_row_rejected(self, tmp_path):
        path = _write(tmp_path, "y,a,z,x1\n1.0,0,1,0.5\n")
        with pytest.raises(CsvParseError, match="fewer than 2 rows"):
            load_csv(path)

    def test_round_trip_identity(self, tmp_path):
        rng = np.random.Generator(np.random.PCG64(5))
        n = 40
        data = Dataset(
            y=rng.standard_normal(n) * 1e3,
            a=rng.integers(0, 2, n),
            z=rng.integers(0, 2, n),
            x=rng.standard_normal((n, 3)),
        )
        schema = CsvSchema(covariates=("x1", "x2", "x3"))
        path = str(tmp_path / "round.csv")
        write_csv(data, path, schema)
        loaded = load_csv(path, schema)
        assert np.array_equal(loaded.y, data.y)
        assert np.array_equal(loaded.a, data.a)
        assert np.array_equal(loaded.z, data.z)
        assert np.array_equal(loaded.x, data.x)


class TestDgpExportRoundTrip:
    def test_scores_identical_after_reload(self, tmp_path):
        from latescore import DgpParams, LearnerSpec, compute_scores, cross_fit, dgp_generate

        data = dgp_generate(DgpParams(pi=5.0, n=200), seed=99)
        path = str(tmp_path / "dgp.csv")
        write_csv(data, path)
        reloaded = load_csv(path)
        spec = LearnerSpec(
            g_learner="cell_mean", r_learner="cell_mean", m_learner="known_constant", m_value=0.5
        )
        folds = make_folds(200, 5, seed=1)
        s1 = compute_scores(data, cross_fit(data, spec, folds))
        s2 = compute_scores(reloaded, cross_fit(reloaded, spec, folds))
        assert np.array_equal(s1.psi_a, s2.psi_a)
        assert np.array_equal(s1.psi_b, s2.psi_b)
