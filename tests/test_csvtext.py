import numpy as np
import pytest

from helix_pst.csvtext import rows_g12

# row counts are set around ROWS, half the CHUNK = 4096 rows a block the
# command line hands rows_g12, which formats any count in one pass
ROWS = 2048


def percent_g(values) -> list[str]:
    return ["%.12g" % v for v in values]


def powers_of_ten() -> np.ndarray:
    exact = 10.0 ** np.arange(-15, 16)
    return np.concatenate([exact, np.nextafter(exact, 0.0), np.nextafter(exact, np.inf)])


def near_ties(rng) -> np.ndarray:
    """12-digit mantissas plus one half at every exponent the fast path
    takes and a few beyond, with their neighbours one to three ulps away:
    the products land within a few 1e-4 of the half, on both sides."""
    mantissas = rng.integers(10 ** 11, 10 ** 12, 400) + 0.5
    exps = rng.integers(-13, 14, 400)
    x = mantissas * 10.0 ** (exps - 11)
    up = [x]
    for _ in range(3):
        up.append(np.nextafter(up[-1], np.inf))
    down = [x]
    for _ in range(3):
        down.append(np.nextafter(down[-1], 0.0))
    # exact ties: a half is exact at e = 11
    exact = np.arange(123456789012, 123456789042) + 0.5
    return np.concatenate(up + down[1:] + [exact])


def specials() -> np.ndarray:
    tiny = np.finfo(float).tiny
    return np.array([0.0, -0.0, 5e-324, tiny / 3, np.nextafter(tiny, 0.0), tiny,
                     np.inf, -np.inf, np.nan, 1e-300, 1e300, -1e-300, -1.5, -0.25,
                     1e12, 999999999999.5, 999999999999.4, 99999999999.95,
                     123456789012.0, 1234567890123.0, 0.0001, 0.00001, 1.0, 0.5])


@pytest.mark.parametrize("name", ["uniform", "cubed", "powers", "ties", "specials"])
def test_each_value_matches_percent_g(name):
    rng = np.random.default_rng(20261018)
    values = {
        "uniform": lambda: rng.random(3 * ROWS + 17),
        "cubed": lambda: rng.random(3 * ROWS + 17) ** 3,
        "powers": powers_of_ten,
        "ties": lambda: near_ties(rng),
        "specials": specials,
    }[name]()
    assert rows_g12(values).split("\n") == percent_g(values) + [""]


def test_rows_join_columns_like_percent_formatting():
    rng = np.random.default_rng(7)
    count = 2 * ROWS + 5
    times = 0.005 * np.arange(count)
    p = rng.random(count) ** 5
    # line lists, so that a failure names its first differing row
    assert rows_g12(times, p).split("\n") == ("%.12g,%.12g\n" * count % tuple(
        np.column_stack((times, p)).ravel().tolist())).split("\n")
    three = rng.normal(size=(3, 40)) * 10.0 ** rng.integers(-20, 20, (3, 40))
    assert rows_g12(*three).split("\n") == "".join(
        "%.12g,%.12g,%.12g\n" % row for row in zip(*three.tolist())).split("\n")
    assert rows_g12(np.array([])) == ""


def assert_lines_match_percent_g(*columns) -> None:
    """rows_g12 of the columns, compared line by line, so that a failure
    names its first differing row instead of diffing the whole text."""
    expected = [",".join("%.12g" % v for v in row)
                for row in zip(*(np.asarray(c, dtype=float).tolist() for c in columns))]
    assert rows_g12(*columns).split("\n") == expected + [""]


def test_a_column_off_the_fast_path_beside_a_fast_one():
    rng = np.random.default_rng(31)
    count = ROWS + 1
    off = np.resize([0.0, -0.0, -2.5, np.nan, np.inf, -np.inf, 1e-300, -1e-300], count)
    fast = rng.random(count)
    assert_lines_match_percent_g(fast, off)
    assert_lines_match_percent_g(off, fast)


@pytest.mark.parametrize("count", [ROWS - 1, ROWS, ROWS + 1, 2 * ROWS + 1])
@pytest.mark.parametrize("width", [2, 3])
def test_row_counts_around_the_pass_size(count, width):
    rng = np.random.default_rng(count * width)
    columns = rng.random((width, count)) * 10.0 ** rng.integers(-13, 14, (width, count))
    columns[:, ::97] *= -1.0
    assert_lines_match_percent_g(*columns)


def test_last_nonzero_digit_at_every_position_and_exponent():
    """12-digit mantissas whose last nonzero digit is each of the 12, at
    every fast-path exponent: the digit groups of m * 10**z then have
    their last nonzero digit at each of the 16 positions, in each of the
    four 4-digit groups."""
    rng = np.random.default_rng(12)
    digits = rng.integers(0, 10, (8, 12))
    digits[:, 0] = rng.integers(1, 10, 8)
    values = []
    for last in range(12):
        row = digits.copy()
        row[:, last] = rng.integers(1, 10, 8)
        row[:, last + 1:] = 0
        mantissas = row @ 10 ** np.arange(11, -1, -1)
        values += [m * 10.0 ** (e - 11) for e in range(-11, 12) for m in mantissas.tolist()]
    values = np.array(values)
    assert_lines_match_percent_g(values)
    assert_lines_match_percent_g(values, values[::-1])


def test_columns_of_unequal_length_are_refused():
    with pytest.raises(ValueError, match="equal lengths"):
        rows_g12(np.arange(3.0), np.arange(2.0))
    with pytest.raises(ValueError, match="equal lengths"):
        rows_g12(np.arange(ROWS + 1.0), np.arange(ROWS + 1.0), np.arange(ROWS + 2.0))


def test_none_in_an_object_column_is_an_empty_field():
    count = ROWS + 3
    first = np.resize(np.array([None, 1.5, None, -2.0, 0.0], dtype=object), count)
    absent = np.full(count, None, dtype=object)
    nan = np.full(count, np.nan)
    # first and last column, a column of None only, and nan beside them
    expected = [",".join("" if v is None else "%.12g" % v for v in row)
                for row in zip(first, nan, absent, first)]
    assert rows_g12(first, nan, absent, first).split("\n") == expected + [""]
    assert rows_g12(absent) == "\n" * count


def test_signed_values_at_every_fast_exponent():
    rng = np.random.default_rng(2211)
    magnitudes = (rng.uniform(1.0, 10.0, (23, 40)) * 10.0 ** np.arange(-11, 12)[:, None]).ravel()
    signed = np.concatenate([magnitudes, -magnitudes, -powers_of_ten(), -near_ties(rng),
                             [-0.0, 0.0, -1.0, -1e-300, -np.inf]])
    rng.shuffle(signed)
    assert_lines_match_percent_g(signed)
    assert_lines_match_percent_g(signed, -signed, signed[::-1])
    # a run of unsigned rows ahead of signed ones
    assert_lines_match_percent_g(np.concatenate([np.abs(signed[:ROWS]), signed]))
    assert rows_g12(np.array([-0.0]), np.array([-1.0])) == "-0,-1\n"
    # int64 columns, as the command line passes group, multiplicity and
    # sign: each cell is "%.12g" of the numpy int, and +-(10**12 + 7),
    # off the fast path, reaches it as a Python int
    count = len(signed)
    signs = np.resize(np.array([-1, 0, 1], dtype=np.int64), count)
    groups = 2 * ROWS - count // 2 + np.arange(count, dtype=np.int64)  # across a 4096-row block
    big = np.resize(np.array([10 ** 12 + 7, -(10 ** 12 + 7), 7], dtype=np.int64), count)
    expected = [",".join("%.12g" % v for v in row) for row in zip(signed, signs, groups, big)]
    assert rows_g12(signed, signs, groups, big).split("\n") == expected + [""]
