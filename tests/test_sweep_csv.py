"""`Sweep.csv_text` prints each float as `repr` does, from numpy: the
Schubfach digits of normal floats and their fixed or exponent layout, the
`repr` fallback for zeros, subnormals, infinities and nan, and the integer
columns, all against `sweep_csv_by_repr`."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import sweep_csv_by_repr

from weylprod import extremal
from weylprod.extremal import Sweep, sweep

TINY = 2.2250738585072014e-308  # the smallest normal float64


def sweep_of(values, N=None, M=None) -> Sweep:
    """A Sweep whose float columns hold `values` four to a row, the last
    row padded with 1.0; N and M default to the row numbers."""
    x = np.asarray(values, dtype=np.float64)
    x = np.concatenate((x, np.ones(-len(x) % 4))).reshape(-1, 4)
    rows = np.arange(1, len(x) + 1, dtype=np.int64)
    flags = rows % 4
    return Sweep(rows if N is None else np.asarray(N, np.int64),
                 rows if M is None else np.asarray(M, np.int64),
                 *x.T, flags >= 2, flags % 2 == 1)


def assert_prints_as_repr(values, **ints):
    rows = sweep_of(values, **ints)
    assert rows.csv_text().splitlines() == sweep_csv_by_repr(rows)


def test_random_bit_patterns():
    # 2e5 finite floats of both signs drawn as uniform bit patterns: every
    # binary exponent, every notation, some subnormals
    bits = np.random.default_rng(33).integers(0, 2 ** 64, 200_000,
                                              dtype=np.uint64)
    x = bits.view(np.float64)
    assert_prints_as_repr(x[np.isfinite(x)])


@settings(max_examples=60)
@given(st.lists(st.floats(), min_size=1, max_size=64))
def test_hypothesis_floats(values):
    assert_prints_as_repr(values)


def test_powers_of_two_and_neighbours():
    # c = 2^52 sits where the spacing below halves: Schubfach's irregular
    # case, from the smallest normal (whose spacing does not halve) up
    p = np.ldexp(1.0, np.arange(-1074, 1024))
    x = np.concatenate((p, np.nextafter(p, 0), np.nextafter(p, np.inf)))
    assert_prints_as_repr(np.concatenate((x, -x)))


def test_notation_boundaries_and_integers():
    # fixed notation for 1e-4 <= |x| < 1e16; integers up to 2e4 and near
    # 2^53, and k/1000
    ends = np.array([1e-4, 1e16, 1e-5, 1e15, 1e17, 0.001])
    near = np.concatenate((ends, np.nextafter(ends, 0),
                           np.nextafter(ends, np.inf)))
    ints = np.arange(20001.0)
    x = np.concatenate((near, 2.0 ** 53 + np.arange(-40, 41), ints,
                        ints / 1000))
    assert_prints_as_repr(np.concatenate((x, -x)))
    text = sweep_of([1e16, 1e-4, 9.999999999999998e15, 123.0]).csv_text()
    assert text == "1,1,1e+16,0.0001,9999999999999998.0,123.0,false,true\n"


def test_fallback_values():
    specials = [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                np.nextafter(TINY, 0), -np.nextafter(TINY, 0), TINY, -TINY,
                math.inf, -math.inf, math.nan, 1e-310, -1.5e-320]
    assert_prints_as_repr(specials + [1.5, 2.5])
    assert sweep_of([-0.0, math.inf, math.nan, 5e-324]).csv_text() == (
        "1,1,-0.0,inf,nan,5e-324,false,true\n")


def test_integer_columns():
    big = [0, 1, -1, 9, 10, -10, 99, 100, 2 ** 63 - 1, -2 ** 63,
           10 ** 18 - 1, 10 ** 18, -10 ** 17]
    N = np.array(big)
    assert_prints_as_repr(np.full(4 * len(big), 0.5), N=N, M=N[::-1])


def test_empty_and_one_row_sweep():
    empty = sweep([], lambda N: 1, 0.1)
    assert len(empty) == 0 and empty.csv_text() == ""
    one = sweep([8], lambda N: 1, 0.1)
    assert one.csv_text().splitlines() == sweep_csv_by_repr(one)


def test_exponent_notation_rows():
    # past N = 10^4 the first d = M/N print in exponent notation; the
    # pinned sweeps stop at N = 1030, all in fixed notation
    rows = sweep([10002, 16384, 20000], lambda N: 3, 0.1)
    lines = rows.csv_text().splitlines()
    assert lines == sweep_csv_by_repr(rows)
    d = [line.split(",")[2] for line in lines]
    assert d[0] == "9.998000399920016e-05"
    assert d[3:5] == ["6.103515625e-05", "0.0001220703125"]
    assert d[6:8] == ["5e-05", "0.0001"]


def test_chunks_join_whole_lines(monkeypatch):
    # rows print CSV_CHUNK at a time; every chunk boundary falls between
    # lines, also with the last chunk short
    monkeypatch.setattr(extremal, "CSV_CHUNK", 7)
    rows = sweep(range(8, 81, 2), lambda N: N // 8, 0.3)
    assert rows.csv_text().splitlines() == sweep_csv_by_repr(rows)


@pytest.mark.parametrize("k", [-324, -308, -1, 0, 1, 22, 292])
def test_g_is_the_rounded_up_power_of_ten(k):
    # g = floor(10^-k 2^(125 - b)) + 1 in (2^125, 2^126], with
    # b = floor(log2 10^-k) from the bit length of 10^|k|
    b = (10 ** -k).bit_length() - 1 if k <= 0 else -(10 ** k).bit_length()
    g = extremal._g(k)
    assert g == math.floor(Fraction(10) ** -k * Fraction(2) ** (125 - b)) + 1
    assert 2 ** 125 < g <= 2 ** 126
