"""Dataset ingestion, standardization and train/test splitting.

CSV contract: first line is the header, comma separator, decimal point,
UTF-8. The target column is selected by header name, else by zero-based
position (an int, or a string of digits that is not a header name).
Quotes around a cell are stripped, whitespace around a number is ignored,
blank lines are skipped, and ``#`` is an ordinary character, not a comment.
Every other cell must be a finite number as numpy's parser reads it; forms
that only Python's float() accepts (digit-group underscores such as
``1_0``, non-ASCII digits) are errors. Errors name the line and column.
"""

from __future__ import annotations

import csv
import math
import warnings
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "Scaler",
    "load_csv",
    "standardize",
    "split",
]


@dataclass(frozen=True)
class Dataset:
    """An (n, p) feature matrix with a length-n target vector.

    Everything is validated and coerced to contiguous float64 on
    construction; non-finite entries are rejected outright.
    """

    features: np.ndarray
    targets: np.ndarray
    names: tuple[str, ...] | None = None

    def __post_init__(self):
        X = np.ascontiguousarray(np.asarray(self.features, dtype=np.float64))
        y = np.ascontiguousarray(np.asarray(self.targets, dtype=np.float64))
        if X.ndim != 2:
            raise ValueError("features must be a 2-d matrix")
        if y.ndim != 1:
            raise ValueError("targets must be a 1-d vector")
        if X.shape[0] != y.shape[0]:
            raise ValueError(
                "row mismatch: %d feature rows vs %d targets" % (X.shape[0], y.shape[0])
            )
        if X.shape[0] == 0:
            raise ValueError("empty dataset")
        if not np.all(np.isfinite(X)):
            raise ValueError("feature matrix contains non-finite entries")
        if not np.all(np.isfinite(y)):
            raise ValueError("target vector contains non-finite entries")
        if self.names is not None:
            names = tuple(self.names)
            if len(names) != X.shape[1]:
                raise ValueError("names length does not match feature columns")
            object.__setattr__(self, "names", names)
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "targets", y)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def p(self) -> int:
        return self.features.shape[1]


@dataclass(frozen=True)
class Scaler:
    """Column statistics for standardization and its inverse.

    Standard deviations use the population convention (divisor n). Columns
    with zero variance keep scale 1 and are flagged in ``constant_columns``.
    """

    feature_mean: np.ndarray
    feature_scale: np.ndarray
    target_mean: float
    target_scale: float
    constant_columns: np.ndarray

    def transform(self, d: Dataset) -> Dataset:
        X = (d.features - self.feature_mean) / self.feature_scale
        y = (d.targets - self.target_mean) / self.target_scale
        return Dataset(X, y, d.names)

    def inverse(self, d: Dataset) -> Dataset:
        X = d.features * self.feature_scale + self.feature_mean
        y = d.targets * self.target_scale + self.target_mean
        return Dataset(X, y, d.names)

    def inverse_targets(self, y: np.ndarray) -> np.ndarray:
        return np.asarray(y, dtype=np.float64) * self.target_scale + self.target_mean


def load_csv(path, target) -> Dataset:
    """Read a numeric CSV into a Dataset.

    Args:
        path: file path; first line must be a header.
        target: target column: a header name, else a zero-based position
            given as an int or as a string of digits.

    The target column is removed from the features; row order is preserved.
    The body is parsed in one vectorized pass; only when that pass fails or
    finds a bad cell does a cell-by-cell scan run, to raise with the
    offending line and column named.
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except FileNotFoundError:
        raise FileNotFoundError("no such CSV file: %s" % path) from None
    with fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise ValueError("empty dataset: %s has no header line" % path) from None
        header = [h.strip() for h in header]

        if isinstance(target, int) and not isinstance(target, bool):
            tcol = target
        elif str(target) in header:
            tcol = header.index(str(target))
        elif str(target).isascii() and str(target).isdigit():
            tcol = int(target)
        else:
            raise ValueError("target column %r absent from header %r" % (target, header))
        if not 0 <= tcol < len(header):
            raise ValueError(
                "target column index %d out of range for %d columns" % (tcol, len(header))
            )

        with warnings.catch_warnings():
            # a body of blank lines is reported as an empty dataset below
            warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
            try:
                table = np.loadtxt(
                    fh, dtype=np.float64, delimiter=",", quotechar='"', comments=None, ndmin=2
                )
            except ValueError:
                table = None
        if table is None or table.shape[1] != len(header) or not np.isfinite(table).all():
            fh.seek(0)
            rows = csv.reader(fh)
            next(rows)  # the header
            table = _scan_cells(rows, header)

    if not table.size:
        raise ValueError("empty dataset: %s has a header but no data rows" % path)
    names = tuple(h for i, h in enumerate(header) if i != tcol)
    return Dataset(np.delete(table, tcol, axis=1), table[:, tcol], names)


def _scan_cells(rows, header: list[str]) -> np.ndarray:
    """Cell-by-cell parse of csv rows, raising at the first bad cell or row.

    Lines are numbered from 2 (the header is line 1). A cell is accepted when
    Python's float() and numpy's parser agree on it: float() alone also takes
    digit-group underscores and non-ASCII digits, which are rejected here.
    A body numpy cannot split but the csv module can (lines ended by a bare
    carriage return) loads here as it always did.
    """
    parsed_rows = []
    for lineno, row in enumerate(rows, start=2):
        if not row:
            continue  # tolerate blank lines
        if len(row) != len(header):
            raise ValueError(
                "line %d has %d cells, header has %d" % (lineno, len(row), len(header))
            )
        parsed = []
        for col, cell in enumerate(row):
            try:
                if "_" in cell or not cell.strip().isascii():
                    raise ValueError
                v = float(cell)
            except ValueError:
                raise ValueError(
                    "non-numeric cell at line %d, column %r: %r" % (lineno, header[col], cell)
                ) from None
            if not math.isfinite(v):
                raise ValueError(
                    "non-finite cell at line %d, column %r: %r" % (lineno, header[col], cell)
                )
            parsed.append(v)
        parsed_rows.append(parsed)
    return np.array(parsed_rows, dtype=np.float64)


def standardize(d: Dataset) -> tuple[Dataset, Scaler]:
    """Center and scale every feature column and the target to mean 0, sd 1.

    Population standard deviation (divisor n). Zero-variance columns pass
    through centered with scale 1.
    """
    mean = d.features.mean(axis=0)
    sd = d.features.std(axis=0)
    constant = sd == 0.0
    scale = np.where(constant, 1.0, sd)
    ty_mean = float(d.targets.mean())
    ty_sd = float(d.targets.std())
    ty_scale = 1.0 if ty_sd == 0.0 else ty_sd
    scaler = Scaler(mean, scale, ty_mean, ty_scale, constant)
    return scaler.transform(d), scaler


def split(d: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Disjoint train/test row partition, deterministic per seed.

    Train size is round(train_fraction * n), clamped so both sides are
    non-empty. Rows keep their original relative order within each side.
    """
    if not 0.0 < train_fraction < 1.0:
        raise ValueError("train_fraction must lie strictly between 0 and 1")
    if d.n < 2:
        raise ValueError("need at least 2 rows to split")
    n_train = int(round(train_fraction * d.n))
    n_train = min(max(n_train, 1), d.n - 1)
    rng = np.random.default_rng(seed)
    perm = rng.permutation(d.n)
    tr = np.sort(perm[:n_train])
    te = np.sort(perm[n_train:])
    train = Dataset(d.features[tr], d.targets[tr], d.names)
    test = Dataset(d.features[te], d.targets[te], d.names)
    return train, test

