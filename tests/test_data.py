"""Ingestion, standardization, splitting, and batch sampling checks."""

import numpy as np
import pytest

from stochgp.data import (
    Dataset,
    IndexBatch,
    load_csv,
    sample_batch,
    split,
    standardize,
)


def write_csv(path, header, rows):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")


class TestDataset:
    def test_row_mismatch_rejected(self):
        with pytest.raises(ValueError, match="row mismatch"):
            Dataset(np.zeros((3, 2)), np.zeros(4))

    def test_non_finite_rejected(self):
        X = np.zeros((2, 2))
        X[1, 0] = np.inf
        with pytest.raises(ValueError, match="non-finite"):
            Dataset(X, np.zeros(2))

    def test_coerces_to_float64(self):
        d = Dataset(np.arange(6, dtype=np.int32).reshape(3, 2), np.arange(3))
        assert d.features.dtype == np.float64
        assert d.targets.dtype == np.float64


class TestLoadCsv:
    def test_three_row_file(self, tmp_path):
        path = tmp_path / "tiny.csv"
        write_csv(path, ["a", "b", "y"], [[1, 2, 3], [4, 5, 6], [7, 8, 9]])
        d = load_csv(path, "y")
        assert d.features.shape == (3, 2)
        np.testing.assert_array_equal(d.features, [[1, 2], [4, 5], [7, 8]])
        np.testing.assert_array_equal(d.targets, [3, 6, 9])
        assert d.names == ("a", "b")

    def test_target_by_index(self, tmp_path):
        path = tmp_path / "tiny.csv"
        write_csv(path, ["a", "b", "y"], [[1, 2, 3], [4, 5, 6]])
        d = load_csv(path, 0)
        np.testing.assert_array_equal(d.targets, [1, 4])
        np.testing.assert_array_equal(d.features, [[2, 3], [5, 6]])

    def test_nan_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, ["a", "y"], [[1, 2], ["nan", 4]])
        with pytest.raises(ValueError) as err:
            load_csv(path, "y")
        assert "line 3" in str(err.value)
        assert "'a'" in str(err.value)

    def test_non_numeric_cell_names_row_and_column(self, tmp_path):
        path = tmp_path / "bad.csv"
        write_csv(path, ["a", "y"], [[1, 2], [3, "oops"]])
        with pytest.raises(ValueError) as err:
            load_csv(path, "y")
        assert "line 3" in str(err.value)
        assert "'y'" in str(err.value)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_csv(tmp_path / "absent.csv", "y")

    def test_missing_target_column(self, tmp_path):
        path = tmp_path / "t.csv"
        write_csv(path, ["a", "b"], [[1, 2]])
        with pytest.raises(ValueError, match="absent"):
            load_csv(path, "z")

    def test_header_only_file_is_empty(self, tmp_path):
        path = tmp_path / "hdr.csv"
        write_csv(path, ["a", "y"], [])
        with pytest.raises(ValueError, match="empty dataset"):
            load_csv(path, "y")

    def test_large_round_trip_bit_identical(self, tmp_path):
        # write 14,000 rows at full precision, read back, compare bitwise
        rng = np.random.default_rng(7)
        X = rng.normal(size=(14000, 3))
        y = rng.normal(size=14000)
        path = tmp_path / "big.csv"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("c0,c1,c2,target\n")
            for i in range(14000):
                fh.write(
                    "%r,%r,%r,%r\n"
                    % (float(X[i, 0]), float(X[i, 1]), float(X[i, 2]), float(y[i]))
                )
        d = load_csv(path, "target")
        assert np.array_equal(d.features, X)
        assert np.array_equal(d.targets, y)


class TestStandardize:
    def test_two_point_column(self):
        d = Dataset(np.array([[1.0], [3.0]]), np.array([0.0, 1.0]))
        out, scaler = standardize(d)
        np.testing.assert_allclose(out.features[:, 0], [-1.0, 1.0])
        assert scaler.feature_mean[0] == 2.0
        assert scaler.feature_scale[0] == 1.0

    def test_constant_column_passthrough(self):
        d = Dataset(np.array([[5.0, 1.0], [5.0, 2.0], [5.0, 3.0]]), np.zeros(3))
        out, scaler = standardize(d)
        np.testing.assert_array_equal(out.features[:, 0], [0.0, 0.0, 0.0])
        assert scaler.feature_scale[0] == 1.0
        assert scaler.constant_columns[0]
        assert not scaler.constant_columns[1]

    def test_moments_after_transform(self):
        rng = np.random.default_rng(42)
        d = Dataset(rng.normal(3.0, 2.5, size=(50, 4)), rng.normal(-1.0, 0.5, size=50))
        out, _ = standardize(d)
        # recompute the moments independently from the transformed matrix
        assert np.all(np.abs(out.features.mean(axis=0)) < 1e-12)
        np.testing.assert_allclose(out.features.std(axis=0), 1.0, atol=1e-12)
        assert abs(out.targets.mean()) < 1e-12
        assert abs(out.targets.std() - 1.0) < 1e-12

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        X = rng.normal(10.0, 4.0, size=(37, 5))
        X[:, 2] = 7.0  # constant column survives the round trip too
        d = Dataset(X, rng.normal(size=37))
        out, scaler = standardize(d)
        back = scaler.inverse(out)
        np.testing.assert_allclose(back.features, d.features, rtol=1e-10)
        np.testing.assert_allclose(back.targets, d.targets, rtol=1e-10)


class TestSplit:
    def test_ninety_ten_sizes(self):
        d = Dataset(np.arange(20, dtype=float).reshape(10, 2), np.arange(10, dtype=float))
        train, test = split(d, 0.9, seed=0)
        assert train.n == 9
        assert test.n == 1

    def test_same_seed_same_partition(self):
        rng = np.random.default_rng(11)
        d = Dataset(rng.normal(size=(25, 2)), rng.normal(size=25))
        a = split(d, 0.8, seed=123)
        b = split(d, 0.8, seed=123)
        assert np.array_equal(a[0].features, b[0].features)
        assert np.array_equal(a[1].targets, b[1].targets)

    def test_partition_is_disjoint_and_covering(self):
        n = 137
        # targets double as row ids so the partition can be checked as sets
        d = Dataset(np.zeros((n, 1)), np.arange(n, dtype=float))
        train, test = split(d, 0.9, seed=5)
        got = np.sort(np.concatenate([train.targets, test.targets]))
        np.testing.assert_array_equal(got, np.arange(n, dtype=float))
        assert not set(train.targets) & set(test.targets)

    def test_bad_fraction(self):
        d = Dataset(np.zeros((4, 1)), np.zeros(4))
        for frac in (0.0, 1.0, -0.2, 1.5):
            with pytest.raises(ValueError):
                split(d, frac, seed=0)


class TestSampleBatch:
    def test_single_row_population_is_forced(self):
        rng = np.random.default_rng(0)
        b = sample_batch(1, 3, rng)
        np.testing.assert_array_equal(b.indices, [0, 0, 0])
        assert b.n == 1 and b.s == 3

    def test_seed_replay(self):
        a = sample_batch(50, 8, np.random.default_rng(99))
        b = sample_batch(50, 8, np.random.default_rng(99))
        assert np.array_equal(a.indices, b.indices)

    def test_zero_batch_rejected(self):
        with pytest.raises(ValueError):
            sample_batch(10, 0, np.random.default_rng(0))

    def test_uniform_frequencies(self):
        # n=4, s=1, 40k draws: each index within 3 standard errors of 1/4
        rng = np.random.default_rng(2024)
        draws = np.concatenate([sample_batch(4, 1, rng).indices for _ in range(40000)])
        freq = np.bincount(draws, minlength=4) / 40000.0
        se = np.sqrt(0.25 * 0.75 / 40000.0)
        assert np.all(np.abs(freq - 0.25) < 3 * se), freq

    def test_index_batch_range_validation(self):
        with pytest.raises(ValueError, match="out of range"):
            IndexBatch(np.array([0, 5]), n=5, s=2)
