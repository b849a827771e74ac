"""Ingestion, standardization, splitting, and batch sampling checks."""

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from stochgp.data import (
    Dataset,
    load_csv,
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

    def test_no_feature_columns_rejected(self):
        with pytest.raises(ValueError, match="no feature columns"):
            Dataset(np.empty((5, 0)), np.zeros(5))

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

    def test_target_digits_name_a_column_first_then_a_position(self, tmp_path):
        # the CLI passes --target as text: "1" is the column named "1" when
        # there is one, else zero-based position 1
        path = tmp_path / "tiny.csv"
        write_csv(path, ["a", "b", "y"], [[1, 2, 3], [4, 5, 6]])
        np.testing.assert_array_equal(load_csv(path, "1").targets, [2, 5])
        with pytest.raises(ValueError, match="index 3 out of range for 3 columns"):
            load_csv(path, "3")
        write_csv(path, ["1", "0", "y"], [[1, 2, 3], [4, 5, 6]])
        d = load_csv(path, "1")
        np.testing.assert_array_equal(d.targets, [1, 4])
        assert d.names == ("0", "y")
        np.testing.assert_array_equal(load_csv(path, "2").targets, [3, 6])
        # an int is always a position
        np.testing.assert_array_equal(load_csv(path, 1).targets, [2, 5])

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

    def test_blank_lines_only_file_is_empty(self, tmp_path):
        path = tmp_path / "blank.csv"
        path.write_bytes(b"a,y\r\n\n\r\n\n")
        with pytest.raises(ValueError, match="header but no data rows"):
            load_csv(path, "y")

    @pytest.mark.parametrize(
        "body, message",
        [
            # '#' is not a comment marker
            ("1,2\n#3,4\n", "non-numeric cell at line 3, column 'a': '#3'"),
            # float() takes these two, numpy's parser does not
            ("1,2\n\n3,1_0\n", "non-numeric cell at line 4, column 'y': '1_0'"),
            ("\u0663,2\n", "non-numeric cell at line 2, column 'a': '\u0663'"),
            # every row the same wrong width, so the vectorized pass reads a table
            ("1,2,3\n4,5,6\n", "line 2 has 3 cells, header has 2"),
            ("1\n4\n", "line 2 has 1 cells, header has 2"),
        ],
    )
    def test_bad_body_names_line_and_column(self, tmp_path, body, message):
        path = tmp_path / "bad.csv"
        path.write_text("a,y\n" + body, encoding="utf-8")
        with pytest.raises(ValueError) as err:
            load_csv(path, "y")
        assert str(err.value) == message

    def test_bare_carriage_returns_still_load(self, tmp_path):
        # numpy's parser rejects \r-only line ends; the cell scan reads them as before
        path = tmp_path / "cr.csv"
        path.write_bytes(b"a,y\r1.5,2\r-0.0,4\r")
        d = load_csv(path, "y")
        assert d.features.tobytes() == np.array([[1.5], [-0.0]]).tobytes()
        np.testing.assert_array_equal(d.targets, [2.0, 4.0])

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


# cells the old float()-per-cell loader rejected, by the message it gave;
# "1_0" and the Arabic-Indic digit are cells float() takes and numpy does not,
# which the loader rejects as non-numeric too
BAD_CELLS = {
    "non-numeric": ["abc", "1.2.3", "", "1_0", "\u0663", "0x10", "1e", "--1", "#1", "1 2"],
    "non-finite": ["nan", "NaN", "inf", "-inf", "Infinity", "1e400", "-1e999"],
}


@st.composite
def numeric_cell(draw):
    """(text written to the file, the cell as the csv module reads it back)."""
    v = draw(
        st.one_of(
            st.floats(-1e300, 1e300, allow_nan=False),
            st.integers(-(10**6), 10**6),
            st.just(-0.0),
        )
    )
    if isinstance(v, int):
        text = str(v)
    else:
        text = draw(st.sampled_from([repr(v), "%.17e" % v, "%.17E" % v, "%.3g" % v]))
    if not text.startswith("-") and draw(st.booleans()):
        text = "+" + text
    pad = st.sampled_from(["", " ", "  ", "\t"])
    text = draw(pad) + text + draw(pad)
    if draw(st.booleans()):
        after = draw(st.sampled_from(["", " "]))  # csv keeps text after the closing quote
        return '"%s"%s' % (text, after), text + after
    return text, text


@st.composite
def csv_table(draw):
    """A CSV file's text, its parsed cells, and at most one planted fault."""
    k = draw(st.integers(1, 5))
    n = draw(st.integers(1, 8))
    header = ["c%d" % j for j in range(k)]
    cells = [[draw(numeric_cell()) for _ in range(k)] for _ in range(n)]
    fault = draw(st.sampled_from([None, "non-numeric", "non-finite", "short", "long"]))
    if fault == "short" and k == 1:
        fault = "long"  # a one-cell row cut short is a blank line
    row, col = draw(st.integers(0, n - 1)), draw(st.integers(0, k - 1))
    if fault in BAD_CELLS:
        bad = draw(st.sampled_from(BAD_CELLS[fault]))
        if k == 1 and bad == "":
            bad = "abc"  # an empty one-cell row is a blank line
        cells[row][col] = ('"%s"' % bad if draw(st.booleans()) else bad), bad
    elif fault == "short":
        del cells[row][col]
    elif fault == "long":
        cells[row].insert(col, ("1", "1"))

    text = ",".join(" %s " % h if draw(st.booleans()) else h for h in header)
    text += draw(st.sampled_from(["\n", "\r\n"]))
    lineno, fault_line = 1, None
    for i, r in enumerate(cells):
        for _ in range(draw(st.integers(0, 2))):  # blank lines
            text += draw(st.sampled_from(["\n", "\r\n"]))
            lineno += 1
        lineno += 1
        if i == row:
            fault_line = lineno
        text += ",".join(raw for raw, _ in r)
        if i < n - 1 or draw(st.booleans()):
            text += draw(st.sampled_from(["\n", "\r\n"]))
    if fault in BAD_CELLS:
        message = "%s cell at line %d, column %r: %r" % (
            fault, fault_line, header[col], cells[row][col][1]
        )
    elif fault is not None:
        message = "line %d has %d cells, header has %d" % (fault_line, len(cells[row]), k)
    else:
        message = None
    return text, header, cells, message


class TestLoadCsvProperty:
    @settings(max_examples=300)
    @given(table=csv_table(), by_name=st.booleans(), data=st.data())
    def test_matches_per_cell_float_or_raises_the_old_message(
        self, tmp_path_factory, table, by_name, data
    ):
        text, header, cells, message = table
        path = tmp_path_factory.mktemp("csv") / "t.csv"
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        tcol = data.draw(st.integers(0, len(header) - 1))
        target = header[tcol] if by_name else tcol
        if message is None and len(header) == 1:
            # a well-formed file whose one column is the target leaves no features
            message = "dataset has no feature columns, only the target"
        if message is not None:
            with pytest.raises(ValueError) as err:
                load_csv(path, target)
            assert str(err.value) == message
            return
        ref = np.array([[float(parsed) for _, parsed in r] for r in cells])
        d = load_csv(path, target)
        # bitwise, so -0.0 must stay -0.0
        assert d.targets.tobytes() == ref[:, tcol].tobytes()
        assert d.features.tobytes() == np.delete(ref, tcol, axis=1).tobytes()
        assert d.names == tuple(h for j, h in enumerate(header) if j != tcol)


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

