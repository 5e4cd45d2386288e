import contextlib
import io
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from latescore import (
    CsvParseError,
    CsvSchema,
    Dataset,
    DgpParams,
    FoldAssignment,
    InvalidConfigError,
    LearnerSpec,
    NuisancePredictions,
    ScoreSample,
    StudySpec,
    WeakIVConfig,
    dgp_generate,
    load_csv,
    make_folds,
    sample_weak_limit,
    write_csv,
)
from latescore import data as data_module
from latescore.cli import _MEMBERSHIP
from latescore.simulation import _draw
from latescore.weakiv import estimate_weakiv_config, sample_bivariate_normal


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

    @pytest.mark.parametrize("n,k", [(10, 1), (10, 0), (3, 4), (2, 3), (10, 2.5), (10, 3.0), (10, True)])
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
            members = set(np.flatnonzero(folds.fold_of == k))
            complement = set(np.flatnonzero(folds.fold_of != k))
            assert members | complement == set(range(23))
            assert not members & complement


_CELL_MEANS = LearnerSpec(g_learner="cell_mean", r_learner="cell_mean", m_learner="known_constant", K=2)
_LIMIT = WeakIVConfig(c_a=0.03, c_b=0.5, sigma_ab=np.eye(2))


class TestIntegerLowerBounds:
    """Every caller of _check_integer with a lower bound: (call, name, least)."""

    SITES = {
        "DgpParams.n": (lambda v: DgpParams(pi=1.0, n=v), "sample size", 2),
        "StudySpec.reps": (lambda v: StudySpec(reps=v, n_grid=(100,)), "replication count", 1),
        "StudySpec.n_grid": (lambda v: StudySpec(n_grid=(v,), learner=_CELL_MEANS), "sample size", 2),
        "StudySpec.seed": (lambda v: StudySpec(seed=v, n_grid=(100,)), "seed", 0),
        "LearnerSpec.K": (lambda v: LearnerSpec(K=v), "fold count", 2),
        "sample_weak_limit": (
            lambda v: sample_weak_limit(_LIMIT, np.random.Generator(np.random.PCG64(0)), v), "size", 0,
        ),
        "sample_bivariate_normal": (
            lambda v: sample_bivariate_normal(np.eye(2), np.random.Generator(np.random.PCG64(0)), v), "size", 0,
        ),
        "estimate_weakiv_config": (lambda v: estimate_weakiv_config(DgpParams(pi=1.0, n=100), v), "oracle_draws", 2),
    }

    @pytest.fixture(params=sorted(SITES))
    def site(self, request):
        return self.SITES[request.param]

    def test_one_below_the_bound_is_refused_with_the_bound(self, site):
        call, name, least = site
        with pytest.raises(InvalidConfigError, match=f"^{name} must be at least {least}, got {least - 1}$"):
            call(least - 1)

    def test_a_numpy_integer_at_the_bound_runs(self, site):
        call, _, least = site
        call(np.int64(least))

    def test_a_bool_is_refused(self, site):
        call, name, _ = site
        with pytest.raises(InvalidConfigError, match=f"^{name} must be an integer, got True$"):
            call(True)


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


_COLUMNS = dict(y=[0.5, 1.0], a=[1, 0], z=[0, 1], x=[[0.25], [0.5]])
_PREDICTIONS = dict(g1=[1.0, 2.0], g0=[0.0, 1.0], r1=[0.5, 0.75], r0=[0.25, 0.5], m1=[0.5, 0.5])


@pytest.mark.parametrize("build", [
    lambda: Dataset(**dict(_COLUMNS, a=[0.5, 1])),
    lambda: Dataset(**dict(_COLUMNS, z=[1, 0.5])),
    lambda: Dataset(**dict(_COLUMNS, y=1.0)),
    lambda: Dataset(**dict(_COLUMNS, a=[[1], [0]], z=[[0], [1]])),
    lambda: Dataset(**dict(_COLUMNS, x=np.zeros((2, 1, 1)))),
    lambda: FoldAssignment(fold_of=[0, 1, 2, 0, 1, 2], K=2),
    lambda: FoldAssignment(fold_of=[0, 1, -1, 0], K=2),
    lambda: FoldAssignment(fold_of=[0, 1, 0.5, 1], K=2),
    lambda: FoldAssignment(fold_of=[[0, 1], [1, 0]], K=2),
    lambda: FoldAssignment(fold_of=[], K=0),
    lambda: FoldAssignment(fold_of=[0, 1, 2], K=2.5),
    lambda: FoldAssignment(fold_of=[0, 1, 0], K=np.float64(2.0)),
    lambda: FoldAssignment(fold_of=[0, 0], K=True),
    lambda: NuisancePredictions(**dict(_PREDICTIONS, r1=[0.5, 1.5])),
    lambda: NuisancePredictions(**dict(_PREDICTIONS, g1=1.0)),
], ids=[
    "fractional-a", "fractional-z", "scalar-y", "2d-a-z", "3d-x", "fold-past-K", "negative-fold",
    "fractional-fold", "2d-folds", "empty-folds", "fractional-K", "float-K", "bool-K",
    "list-predictions-r1-above-1", "scalar-g1",
])
def test_public_constructors_check_before_casting(build):
    with pytest.raises(InvalidConfigError):
        build()


def test_public_constructors_leave_the_callers_arrays_writable():
    columns = dict(
        y=np.array([0.5, 1.0]), a=np.array([1, 0], dtype=np.int8), z=np.array([0, 1], dtype=np.int8),
        x=np.array([[0.25], [0.5]]),
    )
    wide = dict(a=np.array([1, 0]), z=np.array([0, 1]))
    predictions = {name: np.array(values) for name, values in _PREDICTIONS.items()}
    fold_of = np.array([0, 1, 1, 0])
    scores = dict(psi_a=np.array([0.5, -1.0]), psi_b=np.array([2.0, 0.0]))
    sigma = {"sigma_ab": np.array([[1.0, 0.5], [0.5, 2.0]])}
    # (container, its array inputs, whether it holds views of them)
    built = [
        (Dataset(**columns), columns, True),
        # A copy: int64 indicators are cast to int8.
        (Dataset(**dict(columns, **wide)), wide, False),
        (NuisancePredictions(**predictions), predictions, True),
        (FoldAssignment(fold_of=fold_of, K=2), {"fold_of": fold_of}, True),
        # A copy: the cached moments need score arrays nobody can write.
        (ScoreSample(**scores), scores, False),
        (WeakIVConfig(c_a=1.0, c_b=0.0, **sigma), sigma, False),
    ]
    for container, inputs, views in built:
        for name, given in inputs.items():
            held = getattr(container, name)
            assert given.flags.writeable and not held.flags.writeable, name
            # No cast was needed, so a container of views shares the memory.
            assert np.shares_memory(held, given) == views, name


def test_public_constructors_take_lists():
    preds = NuisancePredictions(**_PREDICTIONS)
    assert preds.n == 2 and preds.r1.tolist() == [0.5, 0.75]
    assert FoldAssignment(fold_of=[0, 1, 1.0, 0], K=2).fold_of.tolist() == [0, 1, 1, 0]
    assert Dataset(**dict(_COLUMNS, a=[1.0, 0.0])).a.tolist() == [1, 0]


def _write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


class TestIndicatorWidth:
    """a and z are held as int8, with the values given, on every path that builds a dataset."""

    A, Z = [1, 0, 1], [0, 1, 1]

    @staticmethod
    def _assert_int8(data, a, z):
        for held, want in ((data.a, a), (data.z, z)):
            assert held.dtype == np.int8 and held.tolist() == want

    @pytest.mark.parametrize("form", [list, np.int64, bool, float], ids=["list", "int64", "bool", "float"])
    def test_the_public_constructor(self, form):
        a, z = (v if form is list else np.array(v, dtype=form) for v in (self.A, self.Z))
        data = Dataset(y=[0.5, 1.0, 2.0], a=a, z=z, x=[[0.0], [1.0], [2.0]])
        self._assert_int8(data, self.A, self.Z)

    @pytest.mark.parametrize("value", [0.5, 2, 256, -255])
    def test_a_value_other_than_0_or_1_is_refused_before_the_cast(self, value):
        # int8 would read 256 as 0 and -255 as 1.
        with pytest.raises(InvalidConfigError, match="treatment column"):
            Dataset(y=[0.5, 1.0], a=np.array([value, 1]), z=[0, 1], x=[[0.0], [1.0]])

    def test_load_csv_on_the_column_path(self, tmp_path, monkeypatch):
        path = _write(tmp_path, "y,a,z,x1\n0.5,1,0,0\n1,0,1,1\n2,1,1,2\n")

        def refuse(*args):
            raise AssertionError("a clean file reached the per-cell parser")

        monkeypatch.setattr(data_module, "_load_cells", refuse)
        self._assert_int8(load_csv(path), self.A, self.Z)

    def test_load_csv_on_the_per_cell_path(self, tmp_path):
        path = _write(tmp_path, 'y,a,z,x1\n"0.5",1,0,0\n1,0.0,1,1\n2,1,1.0,2\n')
        assert data_module._load_columns(path, CsvSchema()) is None
        self._assert_int8(load_csv(path), self.A, self.Z)

    def test_dgp_generate(self):
        params = DgpParams(pi=1.0, n=500)
        _, z, a, _ = _draw(params, np.random.Generator(np.random.PCG64(3)), params.n)
        self._assert_int8(dgp_generate(params, 3), a.astype(int).tolist(), z.astype(int).tolist())


class TestCsvSchema:
    @pytest.mark.parametrize("kwargs", [
        dict(outcome="x1", covariates=("x1", "x2")),
        dict(covariates=("x1", "x1")),
        dict(treatment="z"),
        dict(instrument="y", covariates=()),
    ])
    def test_a_column_named_twice_is_refused(self, kwargs):
        with pytest.raises(InvalidConfigError, match="is named more than once"):
            CsvSchema(**kwargs)


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

    def test_not_utf8_names_the_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"y,a,z,x1\n1,0,1,2\n3,1,0,\xff\n")
        with pytest.raises(CsvParseError, match="not UTF-8") as exc:
            load_csv(str(path))
        assert str(path) in str(exc.value)

    @pytest.mark.parametrize("text", [
        "y,a,z,x1\n1,0,1,2\n\n3,1,0,4\n",
        "y,a,z,x1\n1,0,1,2\n3,1,0,4\n\n",
    ])
    def test_blank_line_is_a_row_without_cells(self, tmp_path, text):
        with pytest.raises(CsvParseError, match=r"row [23] has 0 cells, expected 4"):
            load_csv(_write(tmp_path, text))

    def test_short_row_names_its_length(self, tmp_path):
        path = _write(tmp_path, "y,a,z,x1,w\n1,0,1,2,7\n3,1,0,4\n")
        with pytest.raises(CsvParseError, match="row 2 has 4 cells, expected 5"):
            load_csv(path)

    @pytest.mark.parametrize("text", [
        "y,a,z,x1\r\n1,0,1,2\r\n3,1,0,4\r\n",
        "y,a,z,x1\n1_000,0,1,2\n3,1,0,4\n",
        'y,a,z,x1\n"1",0,1,2\n3,1.0,-0,4',
        "y,a,z,x1,note\n1,0,1,2,first\n3,1,0,4,inf\n",
    ])
    def test_files_for_the_per_cell_parser_load(self, tmp_path, text):
        data = load_csv(_write(tmp_path, text))
        assert data.y[0] in (1.0, 1000.0) and list(data.x[:, 0]) == [2.0, 4.0]

    @pytest.mark.parametrize("final_newline", [True, False])
    def test_clean_file_takes_the_column_path(self, tmp_path, monkeypatch, final_newline):
        rng = np.random.Generator(np.random.PCG64(11))
        n = 600
        bits = rng.integers(0, 2**64, size=(n, 4), dtype=np.uint64, endpoint=False)
        values = bits.view(np.float64)
        values[~np.isfinite(values)] = 0.5
        special = [5e-324, -5e-324, 1e-310, 0.0, -0.0, 1.7976931348623157e308, -1.7976931348623157e308]
        values[: len(special), 0] = special
        values[-len(special):, 3] = special
        data = Dataset(
            y=values[:, 0], a=rng.integers(0, 2, n), z=rng.integers(0, 2, n), x=values[:, 1:]
        )
        schema = CsvSchema(covariates=("x1", "x2", "x3"))
        path = str(tmp_path / "clean.csv")
        write_csv(data, path, schema)
        if not final_newline:
            with open(path, "rb+") as handle:
                handle.truncate(handle.seek(0, 2) - 1)

        def refuse(*args):
            raise AssertionError("a clean file reached the per-cell parser")

        monkeypatch.setattr(data_module, "_load_cells", refuse)
        loaded = load_csv(path, schema)
        for name in ("y", "a", "z", "x"):
            got, want = getattr(loaded, name), getattr(data, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()


    @pytest.mark.parametrize("final_newline", [True, False])
    def test_text_columns_the_schema_does_not_name_take_the_column_path(
        self, tmp_path, monkeypatch, final_newline
    ):
        rng = np.random.Generator(np.random.PCG64(12))
        n = 300
        data = Dataset(
            y=rng.standard_normal(n), a=rng.integers(0, 2, n), z=rng.integers(0, 2, n),
            x=rng.standard_normal((n, 2)),
        )
        notes = ["", "ok", "n/a", "caf\u00e9 \u2013 1e999", " nan ", "#", "x\ty", "'q'", "1_000"]
        y, a, z, x = data.y.tolist(), data.a.tolist(), data.z.tolist(), data.x.tolist()
        lines = ["id,y,a,z,note,x1,x2,comment"] + [
            f"u{i:05d},{y[i]!r},{a[i]},{z[i]},{notes[i % len(notes)]},"
            f"{x[i][0]!r},{x[i][1]!r},{notes[-1 - i % len(notes)]}"
            for i in range(n)
        ]
        path = tmp_path / "text.csv"
        path.write_text("\n".join(lines) + ("\n" if final_newline else ""), encoding="utf-8")

        def refuse(*args):
            raise AssertionError("a file with text columns reached the per-cell parser")

        monkeypatch.setattr(data_module, "_load_cells", refuse)
        loaded = load_csv(str(path), CsvSchema(covariates=("x1", "x2")))
        for name in ("y", "a", "z", "x"):
            got, want = getattr(loaded, name), getattr(data, name)
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.flags.c_contiguous
            assert got.tobytes() == want.tobytes()


    @pytest.mark.parametrize("eol", ["\r\n", "mixed"])
    def test_crlf_line_ends_take_the_column_path(self, tmp_path, monkeypatch, eol):
        rng = np.random.Generator(np.random.PCG64(13))
        n = 200
        data = Dataset(
            y=rng.standard_normal(n), a=rng.integers(0, 2, n), z=rng.integers(0, 2, n),
            x=rng.standard_normal((n, 1)),
        )
        y, a, z, x = data.y.tolist(), data.a.tolist(), data.z.tolist(), data.x[:, 0].tolist()
        lines = ["y,a,z,x1,note"] + [f"{y[i]!r},{a[i]},{z[i]},{x[i]!r},n{i}" for i in range(n)]
        ends = ["\r\n" if eol == "\r\n" or i % 3 else "\n" for i in range(len(lines))]
        lf, crlf = tmp_path / "lf.csv", tmp_path / "crlf.csv"
        lf.write_bytes("".join(line + "\n" for line in lines).encode())
        crlf.write_bytes("".join(map(str.__add__, lines, ends)).encode())
        # np.loadtxt, given a path, splits \r\n lines as \n lines, the last
        # named column and a text column after it included.
        for usecols in ([0, 1, 2, 3], [3, 4]):
            args = dict(delimiter=",", skiprows=1, comments=None, encoding="utf-8", ndmin=2, usecols=usecols)
            want = np.loadtxt(str(lf), dtype=float if usecols[-1] == 3 else str, **args)
            got = np.loadtxt(str(crlf), dtype=want.dtype, **args)
            assert got.tobytes() == want.tobytes()

        def refuse(*args):
            raise AssertionError("a file with \\r\\n line ends reached the per-cell parser")

        monkeypatch.setattr(data_module, "_load_cells", refuse)
        loaded = load_csv(str(crlf))
        for name in ("y", "a", "z", "x"):
            assert getattr(loaded, name).tobytes() == getattr(data, name).tobytes()


def _bom_files(tmp_path, quoted):
    """A data file and the same bytes behind a UTF-8 byte-order mark, as
    Excel's "CSV UTF-8" export writes it; ``quoted`` quotes one cell."""
    rng = np.random.Generator(np.random.PCG64(14))
    n = 50
    y, x = rng.standard_normal(n).tolist(), rng.standard_normal(n).tolist()
    a, z = rng.integers(0, 2, n).tolist(), rng.integers(0, 2, n).tolist()
    lines = ["y,a,z,x1"] + [f"{y[i]!r},{a[i]},{z[i]},{x[i]!r}" for i in range(n)]
    if quoted:
        lines[1] = f'"{y[0]!r}",{a[0]},{z[0]},{x[0]!r}'
    text = ("\n".join(lines) + "\n").encode()
    plain, bom = tmp_path / "plain.csv", tmp_path / "bom.csv"
    plain.write_bytes(text)
    bom.write_bytes(b"\xef\xbb\xbf" + text)
    return str(plain), str(bom)


class TestByteOrderMark:
    def test_a_plain_file_takes_the_column_path_to_the_same_arrays(self, tmp_path, monkeypatch):
        plain, bom = _bom_files(tmp_path, quoted=False)
        want = _outcome(load_csv, plain)
        assert isinstance(want, list)
        assert _outcome(data_module._load_cells, bom) == want

        def refuse(*args):
            raise AssertionError("a file behind a byte-order mark reached the per-cell parser")

        monkeypatch.setattr(data_module, "_load_cells", refuse)
        assert _outcome(load_csv, bom) == want

    def test_a_quoted_cell_takes_the_per_cell_parser_to_the_same_arrays(self, tmp_path):
        plain, bom = _bom_files(tmp_path, quoted=True)
        want = _outcome(load_csv, plain)
        assert isinstance(want, list)
        assert data_module._load_columns(bom, CsvSchema()) is None
        assert _outcome(load_csv, bom) == want


# Cells and lines on which a column parser and a per-cell parser can part:
# padding, quotes, comment marks, digit separators, non-finite and
# out-of-range numbers, binary columns written as floats, non-ASCII text.
_TRAP_CELLS = [
    "", " ", " 0.5 ", "\t2", '"0.5"', "#1", "1_000", "inf", "-inf", "nan", "1e999", "-1e400",
    "1e-400", "abc", "1.0", "-0", "+1", "1e0", "2", "-1", "0.5", "0x1p3", "\xa01", "\xff",
    "\x1c1", "\x0b1\x0c", "1\x002", "\u0661", "1 2", "1e", ".", "+.5e-0", "infinity", "1j",
]
_TRAP_LINES = ["", "   ", "# note", "0.5,1,1", "0.5,1,1,0.25,9,9", '"0.5",1,1,0.25']
_HEADERS = ["y,a,z,x1"] * 4 + ["y,a,z,x1,w", " y , a ,z,x1", "x1,z,a,y", "y,a,x1", "y,a\r,z,x1"]
_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _csv_bytes(draw):
    """CSV text of clean numeric rows with up to two traps placed in it."""
    header = draw(st.sampled_from(_HEADERS))
    names = [h.strip() for h in header.split(",")]
    lines = []
    for _ in range(draw(st.integers(1, 6))):
        cells = {
            "y": repr(draw(_FINITE)), "a": draw(st.sampled_from("01")),
            "z": draw(st.sampled_from("01")), "x1": repr(draw(_FINITE)),
            "w": draw(st.sampled_from(["7", "-1e300", "note"])),
        }
        lines.append([cells.get(name, "0") for name in names])
    for _ in range(draw(st.sampled_from([0, 0, 1, 2]))):
        at = draw(st.integers(0, len(lines)))
        if at < len(lines) and draw(st.booleans()):
            lines[at][draw(st.integers(0, len(lines[at]) - 1))] = draw(st.sampled_from(_TRAP_CELLS))
        else:
            lines.insert(at, [draw(st.sampled_from(_TRAP_LINES))])
    eol = draw(st.sampled_from(["\n"] * 3 + ["\r\n"]))
    text = eol.join([header, *(",".join(cells) for cells in lines)])
    text += draw(st.sampled_from([eol] * 3 + [""]))
    text = draw(st.sampled_from([text] * 6 + ["", header + eol]))
    return text.encode("utf-8").replace("\xff".encode("utf-8"), b"\xff")


def _outcome(loader, path):
    """The four arrays as (dtype, shape, bytes), or the parse error's message."""
    try:
        data = loader(path, CsvSchema())
    except CsvParseError as exc:
        return str(exc)
    return [(v.dtype.str, v.shape, v.tobytes()) for v in (data.y, data.a, data.z, data.x)]


@pytest.fixture(scope="module")
def differential_path(tmp_path_factory):
    return tmp_path_factory.mktemp("differential") / "data.csv"


_H = b"y,a,z,x1\n"


class TestParsersAgree:
    @given(content=_csv_bytes())
    @example(_H + b"1e999,0,1,2\n3,1,0,4\n")
    @example(_H + b"1,0,1,-1e400\n3,1,0,4\n")
    @example(_H + b"1,2,1,2\n3,1,0,4\n")
    @example(_H + b"1,0,0.5,2\n3,1,0,4\n")
    @example(_H + b"1,1.0,-0,2\n3,1,0,4")
    @example(_H + b"1,0,1,2\n\n3,1,0,4\n")
    @example(_H + b"1,0,1\n3,1,0,4\n")
    @example(_H + b"1,0,1,2,5\n3,1,0,4,6\n")
    @example(_H + b"1_000,0,1,2\n3,1,0,4\n")
    @example(_H + b"1,0,1,2\n3,1,0,\xff\n")
    @example(_H + b"1,0,1,2\n")
    @example(_H + b"\n\n")
    @example(b"y,a,z,x1,w\n1,0,1,2\n3,1,0,4\n")
    @example(_H)
    @example(b"")
    @example(b"y,a,z,x1\r\n1,0,1,2\r\n3,1,0,4\r\n")
    @example(b"\xef\xbb\xbfy,a,z,x1\n1,0,1,2\n3,1,0,4\n")
    @example(b'\xef\xbb\xbf"y",a,z,x1\n1,0,1,2\n3,1,0,4\n')
    @example(b"y,a\r,z,x1\n1,0,1,2\n3,1,0,4\n")
    @example(b'"y,a",z,x1,y,a\n5,1,0,2,0,1\n6,0,1,4,1,0\n')
    @example(b"id,y,a,z,x1\nu1,1,0,1,2\nu2,3,1,0,4\n")
    @example(b"y,a,z,x1,note\n1,0,1,2,caf\xc3\xa9\n3,1,0,4,1e999\n")
    @example(b"y,a,z,x1,note\n1,0,1,2,text\n3,1,0,4\n")
    @example(b"y,note,a,z,x1\n1,,0,1,2\n3,a b,1,0,4,extra\n")
    @example(b"y,a,z,x1,note\n1,0,1,2,\x00\n3,1,0,4,x\n")
    @example(b"y,a,z,x1\n1,0,1,1\x002\n3,1,0,4\n")
    @example(b"y,a,z,x1\n1,0,1,2\x00\n3,1,0,\x004\n")
    @example(b"y,a,z,x1\n1,0,1,\xc2\xa02\n3,1,0,\x1c4\n")
    @example(b"y,a,z,x1\n1,0,1,\xd9\xa1\n3,1,0,4\n")
    @example(b"y,a,z,x1,note\n1,0,1,2,x\n3,1,0,4,\xff\n")
    @settings(max_examples=150, deadline=None)
    def test_load_csv_matches_the_per_cell_parser(self, differential_path, content):
        differential_path.write_bytes(content)
        path = str(differential_path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _outcome(load_csv, path) == _outcome(data_module._load_cells, path)

    @given(content=_csv_bytes(), block=st.integers(1, 24))
    @settings(max_examples=100, deadline=None)
    def test_scan_blocks_do_not_change_the_outcome(self, differential_path, content, block):
        differential_path.write_bytes(content)
        path = str(differential_path)
        with mock.patch.object(data_module, "_READ_BLOCK", block), warnings.catch_warnings():
            warnings.simplefilter("error")
            assert _outcome(load_csv, path) == _outcome(data_module._load_cells, path)


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


# Floats whose repr is easy to get wrong: signed zero, the smallest
# subnormal, the switch to and from exponent notation, the largest double.
_EDGE_FLOATS = [
    -0.0, 0.0, 5e-324, -5e-324, 1e-5, 9.999999999999999e-05, 1e-4, 1e16, 9999999999999998.0,
    1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0 / 3.0, 2.0**-1074 * 3,
]
_FLOATS = st.sampled_from(_EDGE_FLOATS) | st.floats(allow_nan=False, allow_infinity=False)
_BLOCK = 8


class _Recorder(io.StringIO):
    """Stands in for the handle _write_columns writes through: counts its
    writes and keeps its text when closed."""

    writes = 0

    def write(self, text):
        self.writes += 1
        return super().write(text)

    def close(self):
        self.text = self.getvalue()
        super().close()


def _written(header, *columns):
    handle = _Recorder()
    with mock.patch.object(data_module, "SCAN_BLOCK", _BLOCK), \
            mock.patch.object(data_module, "_output", lambda path: contextlib.closing(handle)):
        data_module._write_columns("unused.csv", header, *columns)
    return handle


def _reference(header, write, *columns):
    handle = io.StringIO()
    handle.write(header)
    write(handle, *columns)
    return handle.getvalue()


@st.composite
def _datasets(draw, min_n=2, max_n=3 * _BLOCK + 2):
    n = draw(st.integers(min_n, max_n))
    p = draw(st.integers(0, 3))
    floats = st.lists(_FLOATS, min_size=n * (p + 1), max_size=n * (p + 1))
    values = np.array(draw(floats), dtype=float)
    binary = st.lists(st.integers(0, 1), min_size=n, max_size=n)
    return Dataset(
        y=values[:n], a=draw(binary), z=draw(binary), x=values[n:].reshape(n, p)
    )


@pytest.fixture(scope="module")
def written_path(tmp_path_factory):
    return tmp_path_factory.mktemp("written")


class TestWriteColumns:
    @given(
        draws=st.lists(_FLOATS | st.sampled_from([np.nan, np.inf, -np.inf]), max_size=3 * _BLOCK + 2),
        data=_datasets(),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_per_line_writers(self, reference_writers, written_path, draws, data):
        write_draws, write_scores, reference_write_csv = reference_writers
        draws = np.array(draws, dtype=float)
        assert _written(["draw"], draws).text == _reference("draw\n", write_draws, draws)
        assert _written(["psi_a", "psi_b"], draws, draws[::-1]).text == _reference(
            "psi_a,psi_b\n", write_scores, draws, draws[::-1]
        )
        schema = CsvSchema(covariates=tuple(f"x{j}" for j in range(data.p)))
        reference_write_csv(data, str(written_path / "reference.csv"), schema)
        with mock.patch.object(data_module, "SCAN_BLOCK", _BLOCK):
            write_csv(data, str(written_path / "written.csv"), schema)
        assert (written_path / "written.csv").read_bytes() == (written_path / "reference.csv").read_bytes()

    @pytest.mark.parametrize("rows", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
    def test_one_write_per_block_at_the_block_edges(self, reference_writers, tmp_path, rows):
        write_draws, write_scores, reference_write_csv = reference_writers
        rng = np.random.Generator(np.random.PCG64(rows))
        values = rng.standard_normal(rows) * 10.0 ** rng.integers(-320, 300, rows)
        blocks = -(-rows // _BLOCK)
        single = _written(["draw"], values)
        assert single.text == _reference("draw\n", write_draws, values)
        assert single.writes == 1 + blocks  # the header, then one write per block
        pair = _written(["psi_a", "psi_b"], values, -values)
        assert pair.text == _reference("psi_a,psi_b\n", write_scores, values, -values)
        assert pair.writes == 1 + blocks
        binary = rng.integers(0, 2, rows)
        assert _written(["v", "b", "c"], values, binary, binary).text == "v,b,c\n" + "".join(
            f"{v!r},{b},{b}\n" for v, b in zip(values.tolist(), binary.tolist())
        )
        if rows >= 2:
            data = Dataset(y=values, a=binary, z=1 - binary, x=np.column_stack([values[::-1], -values]))
            schema = CsvSchema(covariates=("x,1", 'x"2'))
            reference_write_csv(data, str(tmp_path / "reference.csv"), schema)
            with mock.patch.object(data_module, "SCAN_BLOCK", _BLOCK):
                write_csv(data, str(tmp_path / "written.csv"), schema)
            assert (tmp_path / "written.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()

    def test_a_header_alone_for_no_rows(self):
        handle = _written(["draw"], np.array([]))
        assert handle.text == "draw\n" and handle.writes == 1


class _Sink:
    """A text handle that keeps nothing it is given."""

    def write(self, text):
        return len(text)


def _join_written(reference_join_writer, *columns):
    handle = _Recorder()
    reference_join_writer(handle, *columns, block=_BLOCK)
    handle.close()
    return handle


# A cell of any kind the writers are given; text with % signs included.
_CELLS = _FLOATS | st.sampled_from([np.nan, np.inf, -np.inf]) | st.integers() | st.sampled_from(
    ["", "weak", "point", "%s", "100%", "%%"]
)


class TestWriteRowsAgainstJoinWriter:
    """The ``%`` template writer against the join writer it replaced, byte for byte."""

    @pytest.mark.parametrize("rows", [1, _BLOCK - 1, _BLOCK, _BLOCK + 1, 2 * _BLOCK + 1])
    def test_same_text_and_writes_at_the_block_edges(self, reference_join_writer, rows):
        rng = np.random.Generator(np.random.PCG64(rows))
        values = rng.standard_normal(rows) * 10.0 ** rng.integers(-320, 300, rows)
        statistic = np.where(rng.random(rows) < 0.3, np.nan, -values)
        edges = np.resize(np.array(_EDGE_FLOATS), rows)
        # simulate's tuple columns: str, int and float cells; analyze --out's
        # endpoint cells, a float or "".
        tags = tuple(rng.choice(["weak", "strong"], rows).tolist())
        flags = tuple(rng.integers(0, 2, rows).tolist())
        ends = [v if keep else "" for v, keep in zip(values.tolist(), rng.random(rows) < 0.5)]
        cases = [
            (tags, flags, tuple(values.tolist()), ends, tuple(edges.tolist())),
            (values, statistic, _MEMBERSHIP[rng.integers(0, 6, rows)]),  # scan's grid, as cmd_scan passes it
            (edges,),
            (edges, -edges[::-1]),
            (edges.tolist(),),
            tuple([cell] for cell in (rows, 0.05, values[0], "point", values[0], "", 1, edges[-1])),
        ]
        for columns in cases:
            got, want = _written(["h"] * len(columns), *columns), _join_written(reference_join_writer, *columns)
            assert got.text == ",".join(["h"] * len(columns)) + "\n" + want.text
            assert got.writes == want.writes + 1

    @given(data=st.data(), rows=st.integers(0, 3 * _BLOCK + 2), width=st.integers(1, 4))
    @settings(max_examples=200, deadline=None)
    def test_same_text_on_any_cells(self, reference_join_writer, data, rows, width):
        columns = [tuple(data.draw(st.lists(_CELLS, min_size=rows, max_size=rows))) for _ in range(width)]
        handle = _Recorder()
        with mock.patch.object(data_module, "SCAN_BLOCK", _BLOCK):
            data_module._write_rows(handle, *columns)
        handle.close()
        assert handle.text == _join_written(reference_join_writer, *columns).text

    @pytest.mark.parametrize("width", [1, 2, 3])
    def test_peak_memory_of_a_block_is_at_most_the_join_writers(self, reference_join_writer, width):
        rng = np.random.Generator(np.random.PCG64(width))
        rows = data_module.SCAN_BLOCK
        columns = [rng.standard_normal(rows) for _ in range(min(width, 2))]
        if width == 3:
            columns.append(_MEMBERSHIP[rng.integers(0, 6, rows)])

        def peak(write):
            write(_Sink(), *columns)  # a first call makes any lazy caches
            tracemalloc.start()
            try:
                write(_Sink(), *columns)
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        assert peak(data_module._write_rows) <= peak(reference_join_writer)
