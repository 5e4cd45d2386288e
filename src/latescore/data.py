"""Observational data containers, fold bookkeeping and CSV ingestion.

A sample is a table of rows (y, a, z, x_1..x_p) where the treatment a and
the instrument z are binary and the covariate vector x has a common
dimension across rows.  Containers hold read-only arrays and cannot be
written through.  A public constructor views an input array that needs
no cast rather than copying it, so the caller's array stays writable and
writing it shows through.  The indicators a and z are held as int8, one
byte per unit, so an indicator input is viewed only when it is int8.
"""

from __future__ import annotations

import contextlib
import contextvars
import csv
import os
import shutil
import tempfile
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import CsvParseError, InvalidConfigError


# The dtype of a dataset's 0/1 treatment and instrument columns.
_INDICATOR = np.dtype(np.int8)


def _read_only(arr: np.ndarray) -> np.ndarray:
    """A read-only view of ``arr``, which itself stays writable."""
    view = arr.view()
    view.setflags(write=False)
    return view


def _check_integer(value, name: str, least: int | None = None) -> int:
    """``value`` as a Python int; a ``name`` that is not a Python or numpy
    integer is refused, and so are a bool and an integer below ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InvalidConfigError(f"{name} must be an integer, got {value!r}")
    value = int(value)
    if least is not None and value < least:
        raise InvalidConfigError(f"{name} must be at least {least}, got {value}")
    return value


class Dataset:
    """An ordered sample of n >= 2 units, stored as read-only arrays.

    The arrays are read-only views of the inputs, without a copy where no
    cast is needed, so the dataset shares memory with its inputs: the
    caller's arrays stay writable, and writing them changes the dataset.
    y and x are held as float64 and a and z as int8, so an indicator input
    is viewed only when it is already int8.

    Parameters
    ----------
    y : array of shape (n,)
        Outcomes.
    a : array of shape (n,)
        Binary treatment indicators.
    z : array of shape (n,)
        Binary instrument indicators.
    x : array of shape (n, p)
        Covariates; p may be zero.
    """

    def __init__(self, y, a, z, x) -> None:
        y = np.asarray(y, dtype=float)
        a, z = np.asarray(a), np.asarray(z)
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x.reshape(-1, 1)
        if not (y.ndim == a.ndim == z.ndim == 1 and x.ndim == 2):
            raise InvalidConfigError(
                f"y, a and z must be 1-d and x at most 2-d, got {y.ndim}, {a.ndim}, {z.ndim} and {x.ndim}"
            )
        n = y.shape[0]
        if n < 2:
            raise InvalidConfigError(f"a dataset needs at least 2 rows, got {n}")
        if not (a.shape[0] == z.shape[0] == x.shape[0] == n):
            raise InvalidConfigError(
                f"column lengths differ: y={n}, a={a.shape[0]}, z={z.shape[0]}, x={x.shape[0]}"
            )
        if not np.all((a == 0) | (a == 1)):
            raise InvalidConfigError("treatment column contains values other than 0/1")
        if not np.all((z == 0) | (z == 1)):
            raise InvalidConfigError("instrument column contains values other than 0/1")
        if not np.all(np.isfinite(y)) or not np.all(np.isfinite(x)):
            raise InvalidConfigError("outcome and covariates must be finite")
        # Cast only now: a cast first would turn a 0.5 or a 256 into a valid 0.
        a, z = a.astype(_INDICATOR, copy=False), z.astype(_INDICATOR, copy=False)
        self.y, self.a, self.z, self.x = (_read_only(arr) for arr in (y, a, z, x))

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def p(self) -> int:
        return self.x.shape[1]

    def __repr__(self) -> str:
        return f"Dataset(n={self.n}, p={self.p})"


def _trusted(cls, **fields):
    """An instance of ``cls`` with ``fields`` set as given and no check run.

    Only for values the package has just built and that are valid by
    construction; outside input goes through the public constructor, which
    checks everything.  Arrays are made read-only in place: no caller
    holds them.
    """
    obj = object.__new__(cls)
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        object.__setattr__(obj, name, value)
    return obj


@dataclass(frozen=True)
class FoldAssignment:
    """Assignment of n units to K cross-fitting folds.

    ``fold_of[i]`` is the fold index of unit i.  Every fold is non-empty
    and fold sizes differ by at most one.  ``fold_of`` is a read-only view
    of the input, which it shares memory with where no cast is needed.
    """

    fold_of: np.ndarray
    K: int

    def __post_init__(self) -> None:
        _check_integer(self.K, "fold count")
        fold_of = np.asarray(self.fold_of)
        if fold_of.size == 0:
            raise InvalidConfigError("a fold assignment needs at least one unit")
        if fold_of.ndim != 1 or fold_of.dtype.kind not in "biuf" or not np.all(
            (fold_of >= 0) & (fold_of < self.K) & (fold_of % 1 == 0)
        ):
            raise InvalidConfigError(f"fold indices must be integers in [0, {self.K})")
        fold_of = _read_only(fold_of.astype(int, copy=False))
        object.__setattr__(self, "fold_of", fold_of)
        sizes = np.bincount(fold_of, minlength=self.K)
        if np.any(sizes == 0):
            raise InvalidConfigError("every fold must contain at least one unit")
        if sizes.max() - sizes.min() > 1:
            raise InvalidConfigError("fold sizes must differ by at most 1")

    @property
    def n(self) -> int:
        return self.fold_of.shape[0]


def make_folds(n: int, K: int, seed: int) -> FoldAssignment:
    """Assign n units to K balanced folds, deterministically in the seed.

    Indices are shuffled with a seeded Fisher-Yates permutation and the
    permuted order is split contiguously, so the first ``n mod K`` folds
    receive one extra unit.
    """
    _check_integer(K, "fold count")
    if K < 2 or K > n:
        raise InvalidConfigError(f"fold count must satisfy 2 <= K <= n, got K={K}, n={n}")
    rng = np.random.Generator(np.random.PCG64(seed))
    perm = rng.permutation(n)
    base, extra = divmod(n, K)
    fold_of = np.empty(n, dtype=int)
    fold_of[perm] = np.repeat(np.arange(K), [base + (k < extra) for k in range(K)])
    # 2 <= K <= n, so every fold has base or base + 1 >= 1 units.
    return _trusted(FoldAssignment, fold_of=fold_of, K=K)


@dataclass(frozen=True)
class CsvSchema:
    """Column names for the outcome, treatment, instrument and covariates."""

    outcome: str = "y"
    treatment: str = "a"
    instrument: str = "z"
    covariates: tuple[str, ...] = ("x1",)

    def __post_init__(self) -> None:
        names = [self.outcome, self.treatment, self.instrument, *self.covariates]
        for name in names:
            if names.count(name) > 1:
                raise InvalidConfigError(f"column {name!r} is named more than once")


def _parse_float(text: str, row: int, col: str) -> float:
    text = text.strip()
    if text == "":
        raise CsvParseError(f"missing value in row {row}, column {col}")
    try:
        value = float(text)
    except ValueError:
        raise CsvParseError(f"non-numeric value {text!r} in row {row}, column {col}") from None
    if not np.isfinite(value):
        raise CsvParseError(f"non-finite value {text!r} in row {row}, column {col}")
    return value


def _parse_binary(text: str, row: int, col: str) -> int:
    value = _parse_float(text, row, col)
    if value not in (0.0, 1.0):
        raise CsvParseError(f"non-binary value {text.strip()!r} in row {row}, column {col}")
    return int(value)


def _refused(text: bytes) -> bool:
    """Whether raw file text holds a quote or a carriage return outside a
    \\r\\n line end.  Without them, csv.reader's cells are the text between
    the commas of one line, and a line ends at \\n as in np.loadtxt."""
    return b'"' in text or (b"\r" in text and text.count(b"\r") != text.count(b"\r\n"))


# _load_columns scans a file this many bytes at a time, plus the rest of
# the line the block ends in, which bounds the memory the scan takes.
_READ_BLOCK = 1 << 20

# Every byte but the comma and the line feed.
_NOT_CUTS = bytes(sorted(set(range(256)) - set(b",\n")))


def _load_columns(path: str, schema: CsvSchema):
    """Parse the schema's columns by column; None defers to ``_load_cells``.

    Columns the schema does not name may hold any text.  Returns None,
    rather than raising, for anything the per-cell parser might treat
    differently (short or blank lines, cells np.loadtxt cannot read, values
    outside the schema's domain), so every error comes from there.
    """
    needed = [schema.outcome, schema.treatment, schema.instrument, *schema.covariates]
    try:
        with open(path, "rb") as handle:
            head = handle.readline()
            header = [h.strip() for h in head.decode("utf-8-sig").split(",")]
            if _refused(head) or not set(needed) <= set(header):
                return None
            # Every data line needs a cell per header name, so this many
            # commas.  A block runs to a line end, so no line spans two.
            fewest, rows = len(header) - 1, 0
            while block := handle.read(_READ_BLOCK) + handle.readline():
                if _refused(block):
                    return None
                # The block's commas and line ends, in order; those between
                # two line ends are the commas of one line.
                cuts = np.frombuffer(block.translate(None, _NOT_CUTS), dtype=np.uint8)
                ends = np.flatnonzero(cuts == ord("\n"))
                if block[-1:] != b"\n":  # the file's last line, unterminated
                    ends = np.append(ends, cuts.size)
                if np.diff(ends, prepend=-1).min() - 1 < fewest:
                    return None
                rows += ends.size
    except (OSError, UnicodeDecodeError):
        return None
    if rows < 2:
        return None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            table = np.loadtxt(
                path, delimiter=",", skiprows=1, comments=None, dtype=float, encoding="utf-8",
                ndmin=2, usecols=[header.index(name) for name in needed],
            )
        except (ValueError, Warning):
            return None
    if table.shape != (rows, len(needed)):
        return None
    y, x = table[:, 0].copy(), np.ascontiguousarray(table[:, 3:])
    try:
        return Dataset(y=y, a=table[:, 1], z=table[:, 2], x=x)
    except InvalidConfigError:
        return None


def _csv_rows(handle, path: str):
    """csv.reader over ``handle``, with decoding and framing errors as CsvParseError."""
    reader = csv.reader(handle)
    try:
        yield from reader
    except UnicodeDecodeError:
        raise CsvParseError(f"{path} is not UTF-8 text") from None
    except csv.Error as exc:
        raise CsvParseError(f"{path}, line {reader.line_num}: {exc}") from None


def _load_cells(path: str, schema: CsvSchema) -> Dataset:
    """Parse cell by cell: the reference grammar and the source of every error."""
    try:
        handle = open(path, newline="", encoding="utf-8-sig")
    except OSError as exc:
        raise CsvParseError(f"cannot open {path}: {exc}") from None
    with handle:
        reader = _csv_rows(handle, path)
        try:
            header = next(reader)
        except StopIteration:
            raise CsvParseError(f"{path} is empty") from None
        header = [h.strip() for h in header]
        needed = [schema.outcome, schema.treatment, schema.instrument, *schema.covariates]
        col_index: dict[str, int] = {}
        for name in needed:
            if name not in header:
                raise CsvParseError(f"missing column {name!r} in {path}")
            col_index[name] = header.index(name)
        y, a, z, x = [], [], [], []
        for row_num, cells in enumerate(reader, start=1):
            if len(cells) < len(header):
                raise CsvParseError(f"row {row_num} has {len(cells)} cells, expected {len(header)}")
            y.append(_parse_float(cells[col_index[schema.outcome]], row_num, schema.outcome))
            a.append(_parse_binary(cells[col_index[schema.treatment]], row_num, schema.treatment))
            z.append(_parse_binary(cells[col_index[schema.instrument]], row_num, schema.instrument))
            x.append(tuple(_parse_float(cells[col_index[c]], row_num, c) for c in schema.covariates))
    if len(y) < 2:
        raise CsvParseError(f"{path} has fewer than 2 rows of data")
    return Dataset(y=y, a=a, z=z, x=np.array(x, dtype=float).reshape(len(y), -1))


def load_csv(path: str, schema: CsvSchema = CsvSchema()) -> Dataset:
    """Load a dataset from a headered, UTF-8 CSV file; a leading byte-order mark is skipped.

    Rows are kept in file order.  Row numbers in error messages are
    1-based and count data rows (the header is row 0).  Missing values
    are a hard error.  A file without quotes or carriage returns outside
    \\r\\n line ends is parsed by column, its named columns in one
    ``np.loadtxt`` call.  Any other file, and any file that fails a check,
    goes through the per-cell parser, which gives the same arrays and names
    the row and column of a fault.
    """
    data = _load_columns(path, schema)
    return _load_cells(path, schema) if data is None else data


def write_csv(data: Dataset, path: str, schema: CsvSchema = CsvSchema()) -> None:
    """Write a dataset to CSV with exact (round-trippable) float text."""
    if len(schema.covariates) != data.p:
        raise InvalidConfigError(
            f"schema names {len(schema.covariates)} covariates but the data has {data.p}"
        )
    header = [schema.outcome, schema.treatment, schema.instrument, *schema.covariates]
    _write_columns(path, header, data.y, data.a, data.z, *data.x.T)


# The package's one block of rows: _write_rows formats and writes this many
# rows at a time, and scan evaluates its grid this many points at a time,
# which bounds the text and the temporaries each holds.
SCAN_BLOCK = 4096


def _is_file_path(path: str) -> bool:
    """Whether ``path`` names a file, new or existing, rather than a device
    or a pipe such as /dev/stdout, which takes rows as they come.  A path
    that ends in a separator names a directory, which open refuses."""
    return not path.endswith(os.sep) and (os.path.isfile(path) or not os.path.exists(path))


_held: contextvars.ContextVar[list[tuple[str, str]] | None] = contextvars.ContextVar("_held", default=None)


@contextlib.contextmanager
def _together():
    """Rename each file that ``_output`` writes in the body over its path
    only once the whole body completes, so a failed run that writes several
    files leaves every one as it was and no new file behind."""
    held = []
    token = _held.set(held)
    try:
        yield
        while held:
            os.replace(*held.pop(0))
    finally:
        _held.reset(token)
        for temp, _ in held:
            with contextlib.suppress(OSError):
                os.remove(temp)


@contextlib.contextmanager
def _output(path: str):
    """The package's one way to write a file: a text handle whose writes
    reach ``path`` only once the body (or the enclosing ``_together``)
    completes, so a failed run leaves it as it was.  The handle is on a new
    file beside the real path, with the permissions open(path, "w") would
    leave, which then replaces it.  A device or a pipe is written directly."""
    if not _is_file_path(path):
        with open(path, "w", newline="") as handle:
            yield handle
        return
    held = _held.get()
    if held is None:
        with _together(), _output(path) as handle:
            yield handle
        return
    path = os.path.realpath(path)
    fd, temp = tempfile.mkstemp(dir=os.path.dirname(path), prefix=f".{os.path.basename(path)}.")
    held.append((temp, path))
    with open(fd, "w", newline="") as handle:
        if os.path.exists(path):
            shutil.copymode(path, temp)
        else:
            umask = os.umask(0)
            os.umask(umask)
            os.chmod(temp, 0o666 & ~umask)
        yield handle


def _write_columns(path: str, header, *columns) -> None:
    """Write a CSV file: ``header`` through csv.writer, then the rows of the
    equal-length columns (1-D numpy arrays, lists or tuples; none for a
    header alone) as ``str`` text: exact floats, plain ints and unquoted
    strings, so a numpy string array is written as-is.  Pass bools as ints."""
    with _output(path) as handle:
        csv.writer(handle, lineterminator="\n").writerow(header)
        _write_rows(handle, *columns)


def _write_rows(handle, *columns) -> None:
    """Write ``_write_columns``' rows to ``handle``: one filled ``%s`` template a block."""
    for start in range(0, len(columns[0]) if columns else 0, SCAN_BLOCK):
        blocks = [c[start : start + SCAN_BLOCK] for c in columns]
        cells = [None] * (len(blocks) * len(blocks[0]))  # the block's cells, row by row
        for j, block in enumerate(blocks):
            cells[j :: len(blocks)] = block.tolist() if isinstance(block, np.ndarray) else block
        handle.write((",".join(["%s"] * len(blocks)) + "\n") * len(blocks[0]) % tuple(cells))
