import numpy as np
import pytest

from helix_pst.csvtext import ROWS, rows_g12


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
    assert rows_g12(times, p) == "%.12g,%.12g\n" * count % tuple(
        np.column_stack((times, p)).ravel().tolist())
    three = rng.normal(size=(3, 40)) * 10.0 ** rng.integers(-20, 20, (3, 40))
    assert rows_g12(*three) == "".join(
        "%.12g,%.12g,%.12g\n" % row for row in zip(*three.tolist()))
    assert rows_g12(np.array([])) == ""
