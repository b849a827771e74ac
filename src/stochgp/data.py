"""Dataset ingestion, standardization, train/test splitting, and batch sampling.

CSV contract: first line is the header, comma separator, decimal point,
UTF-8. The target column is selected by name or by zero-based position.
Mini-batch indices are drawn uniformly with replacement so per-sample
gradient terms stay i.i.d.; the harness draws the same way (and has an
epoch mode without replacement) but skips IndexBatch, since its draws are in
range by construction. Generators are never shared across workers, derive
one per worker with fixed seed offsets.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Dataset",
    "Scaler",
    "IndexBatch",
    "load_csv",
    "standardize",
    "split",
    "sample_batch",
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


@dataclass(frozen=True)
class IndexBatch:
    """A batch of row indices into an n-row dataset (0-based, possibly repeated)."""

    indices: np.ndarray
    n: int
    s: int

    def __post_init__(self):
        idx = np.ascontiguousarray(np.asarray(self.indices, dtype=np.int64))
        if idx.ndim != 1:
            raise ValueError("indices must be 1-d")
        if self.s != idx.shape[0]:
            raise ValueError("s=%d does not match %d indices" % (self.s, idx.shape[0]))
        if self.s < 1:
            raise ValueError("batch size must be at least 1")
        if idx.size and (idx.min() < 0 or idx.max() >= self.n):
            raise ValueError("batch indices out of range [0, %d)" % self.n)
        object.__setattr__(self, "indices", idx)


def load_csv(path, target) -> Dataset:
    """Read a numeric CSV into a Dataset.

    Args:
        path: file path; first line must be a header.
        target: target column, by header name or zero-based position.

    The target column is removed from the features; row order is preserved.
    Non-numeric or non-finite cells raise with the offending line and column
    named.
    """
    try:
        fh = open(path, "r", encoding="utf-8", newline="")
    except FileNotFoundError:
        raise FileNotFoundError("no such CSV file: %s" % path) from None
    with fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise ValueError("empty dataset: %s has no header line" % path) from None
        header = [h.strip() for h in header]

        if isinstance(target, int) and not isinstance(target, bool):
            if not 0 <= target < len(header):
                raise ValueError(
                    "target column index %d out of range for %d columns" % (target, len(header))
                )
            tcol = target
        else:
            try:
                tcol = header.index(str(target))
            except ValueError:
                raise ValueError(
                    "target column %r absent from header %r" % (target, header)
                ) from None

        rows = []
        targets = []
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue  # tolerate trailing blank lines
            if len(row) != len(header):
                raise ValueError(
                    "line %d has %d cells, header has %d" % (lineno, len(row), len(header))
                )
            parsed = []
            for col, cell in enumerate(row):
                try:
                    v = float(cell)
                except ValueError:
                    raise ValueError(
                        "non-numeric cell at line %d, column %r: %r"
                        % (lineno, header[col], cell)
                    ) from None
                if not math.isfinite(v):
                    raise ValueError(
                        "non-finite cell at line %d, column %r: %r"
                        % (lineno, header[col], cell)
                    )
                parsed.append(v)
            targets.append(parsed.pop(tcol))
            rows.append(parsed)

    if not rows:
        raise ValueError("empty dataset: %s has a header but no data rows" % path)
    names = tuple(h for i, h in enumerate(header) if i != tcol)
    return Dataset(np.array(rows, dtype=np.float64), np.array(targets, dtype=np.float64), names)


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


def sample_batch(n: int, s: int, rng: np.random.Generator) -> IndexBatch:
    """Draw s indices uniformly with replacement from range(n)."""
    if s < 1:
        raise ValueError("batch size must be at least 1")
    if n < 1:
        raise ValueError("population size must be at least 1")
    idx = rng.integers(0, n, size=s, dtype=np.int64)
    return IndexBatch(idx, n, s)
