from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from weylprod.irrational import FracPartEvaluator
from weylprod.numerics import SUM_CHUNK
from weylprod.sequences import (PointSet, RationalArray, kronecker,
                                uniform_grid, uniform_grid_blocks,
                                van_der_corput, van_der_corput_blocks)


# ---------------------------------------------------------------- kronecker

def test_kronecker_first_two(sqrt2m1):
    ps = kronecker(sqrt2m1, 2)
    err = FracPartEvaluator(sqrt2m1).error_bound
    with mpmath.mp.workprec(200):
        r2 = mpmath.sqrt(2)
        assert abs(ps.points[0] - (r2 - 1)) < err
        assert abs(ps.points[1] - (2 * r2 - 2)) < err


def test_kronecker_one_point_per_interval(sqrt2m1):
    # {k alpha}, k = 1..q-1, occupies q-1 distinct cells [m/q, (m+1)/q).
    # Which end cell stays empty depends on the sign of alpha - p/q: for
    # q = 5 (alpha above 2/5) cells 1..q-1 are hit, for q = 12 (alpha below
    # 5/12) the mirror image 0..q-2.
    ps5 = kronecker(sqrt2m1, 4)
    assert sorted(int(5 * float(x)) for x in ps5.points) == [1, 2, 3, 4]
    ps12 = kronecker(sqrt2m1, 11)
    assert sorted(int(12 * float(x)) for x in ps12.points) == list(range(11))
    ps29 = kronecker(sqrt2m1, 28)
    assert sorted(int(29 * float(x)) for x in ps29.points) == list(range(1, 29))


def test_kronecker_500_vs_256bit_oracle(sqrt2m1):
    ps = kronecker(sqrt2m1, 500)
    with mpmath.mp.workprec(256):
        a = mpmath.sqrt(2) - 1
        tol = mpmath.ldexp(1, -100)
        for k, x in enumerate(ps.points, 1):
            assert abs(x - (k * a) % 1) < tol


def test_kronecker_points_distinct(sqrt2m1):
    ps = kronecker(sqrt2m1, 500)
    assert len(set(ps.points)) == 500


def test_kronecker_respects_budget(sqrt2m1):
    ev = FracPartEvaluator(sqrt2m1, n_max=100)
    with pytest.raises(ValueError):
        kronecker(sqrt2m1, 101, evaluator=ev)


# ----------------------------------------------------------- van der corput

def test_vdc_small_values():
    assert [x for x in van_der_corput(3).points] == \
        [Fraction(1, 2), Fraction(1, 4), Fraction(3, 4)]
    assert [x for x in van_der_corput(7).points] == \
        [Fraction(1, 2), Fraction(1, 4), Fraction(3, 4), Fraction(1, 8),
         Fraction(5, 8), Fraction(3, 8), Fraction(7, 8)]


def test_vdc_powers_of_two():
    ps = van_der_corput(1 << 10)
    for s in range(11):
        assert ps.points[(1 << s) - 1] == Fraction(1, 1 << (s + 1))


def test_vdc_prefix_is_permutation():
    for s in (3, 6, 10):
        n = (1 << s) - 1
        got = sorted(van_der_corput(n).points)
        want = [Fraction(k, 1 << s) for k in range(1, 1 << s)]
        assert got == want


@settings(max_examples=40)
@given(st.integers(1, 5000))
def test_vdc_matches_bit_reversal(N):
    # radical inverse of n: its binary digits mirrored after the point
    want = [Fraction(int(bin(n)[2:][::-1], 2), 1 << n.bit_length())
            for n in range(1, N + 1)]
    ps = van_der_corput(N)
    assert ps.points.denominator == 1 << N.bit_length()
    assert list(ps.points) == want


def vdc_numerators_by_bits(N):
    """The radical-inverse numerators of 1..N over 2^bitlen(N), one bit of
    every n per pass: bit i of n goes to 2^(L-1-i)."""
    L = N.bit_length()
    n = np.arange(1, N + 1, dtype=np.int64)
    nums = np.zeros(N, dtype=np.int64)
    for shift in range(L - 1, -1, -1):
        bit = n & 1
        bit <<= shift
        nums |= bit
        n >>= 1
    return nums


def test_vdc_numerators_match_bit_loop():
    # every N <= 4096, and both sides of each power of two up to 2^20
    Ns = set(range(1, 4097))
    Ns |= {(1 << k) + d for k in range(21) for d in (-1, 0, 1)} - {0}
    for N in sorted(Ns):
        pts = van_der_corput(N).points
        assert pts.denominator == 1 << N.bit_length()
        assert pts.numerators.dtype == np.int64
        assert np.array_equal(pts.numerators, vdc_numerators_by_bits(N)), N


@pytest.mark.parametrize("N", [1, 2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1,
                               3 * 2 ** 16 + 5, 2 ** 20 - 1])
def test_vdc_blocks_match_bit_loop(N):
    # blocks of SUM_CHUNK from the reversal table, each wrapping to the next
    # high part at its last n
    blocks = list(van_der_corput_blocks(N))
    assert [len(b) for b in blocks[:-1]] == [SUM_CHUNK] * (len(blocks) - 1)
    assert {b.denominator for b in blocks} == {1 << N.bit_length()}
    nums = np.concatenate([b.numerators for b in blocks])
    assert np.array_equal(nums, vdc_numerators_by_bits(N))


@pytest.mark.parametrize("N", [1, SUM_CHUNK, SUM_CHUNK + 1])
def test_grid_blocks_are_the_grid(N):
    blocks = list(uniform_grid_blocks(N))
    assert [len(b) for b in blocks[:-1]] == [SUM_CHUNK] * (len(blocks) - 1)
    assert {b.denominator for b in blocks} == {N + 1}
    assert np.array_equal(np.concatenate([b.numerators for b in blocks]),
                          uniform_grid(N).points.numerators)


def test_vdc_floats_match_fractions():
    ps = van_der_corput(2000)
    arr = ps.points.to_float_array()
    assert len(arr) == 2000
    for x, f in zip(ps.points, arr):
        assert float(x) == f  # dyadics are exact in float64


# ------------------------------------------------------------ uniform grid

def test_grid_small():
    assert list(uniform_grid(3).points) == \
        [Fraction(1, 4), Fraction(1, 2), Fraction(3, 4)]
    assert list(uniform_grid(1).points) == [Fraction(1, 2)]


def test_rational_array_sequence_protocol():
    ra = RationalArray([1, 2, 3], 4)
    assert len(ra) == 3
    assert ra[1] == Fraction(1, 2)
    assert list(ra[:2]) == [Fraction(1, 4), Fraction(1, 2)]
    assert np.array_equal(ra.to_float_array(), np.array([0.25, 0.5, 0.75]))


# -------------------------------------------------------------- invariants

def test_range_invariants(sqrt2m1):
    for ps in (kronecker(sqrt2m1, 100), van_der_corput(100),
               uniform_grid(100)):
        assert len(ps) == 100
        for x in ps:
            assert 0 <= x <= 1


def test_pointset_rejects_bad_points():
    with pytest.raises(ValueError):
        PointSet([0.5, 1.5], "iid-uniform")
    with pytest.raises(ValueError):
        PointSet([Fraction(0), Fraction(1, 2)], "vdc")
    PointSet([Fraction(0), Fraction(1, 2)], "extremal")  # endpoints ok here


def test_pointset_refuses_nan():
    # a NaN fails both `< 0` and `> 1`; it must fail the range test itself
    for pts in (np.array([0.5, np.nan]), [0.5, float("nan")],
                [mpmath.mpf(0.5), mpmath.nan]):
        for provenance in ("iid-uniform", "kronecker"):
            with pytest.raises(ValueError, match="outside"):
                PointSet(pts, provenance)


class _NoIter(np.ndarray):
    def __iter__(self):
        raise AssertionError("points checked one by one in Python")


def test_pointset_checks_arrays_by_reductions():
    # an ndarray is checked by numpy reductions, not point by point
    pts = np.linspace(0.0, 1.0, 10 ** 6).view(_NoIter)
    PointSet(pts, "iid-uniform")
    with pytest.raises(ValueError, match=r"outside \(0, 1\)"):
        PointSet(pts, "kronecker")
    with pytest.raises(ValueError, match="outside"):
        PointSet(np.multiply(pts, 1.5).view(_NoIter), "iid-uniform")
    PointSet(pts[1:-1], "kronecker")
