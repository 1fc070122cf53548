import math
import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import oracles
from weylprod import irrational
from weylprod.discrepancy import (DiscrepancyResult, PrefixDiscrepancy,
                                  brute_force_star_discrepancy,
                                  discrepancy_trace, int_sorted_max,
                                  kronecker_discrepancy, star_discrepancy,
                                  vdc_discrepancy)
from weylprod.irrational import kronecker_fixed_point, surd_from_cf
from weylprod.sequences import (RationalArray, kronecker, uniform_grid,
                                van_der_corput)

EPS = Fraction(1, 1 << 40)


def trace_oracle(points) -> tuple:
    """(d_star, delta, anchor) of every prefix by the per-prefix loop: a
    sorted buffer with one insertion per prefix, and the sorted-order
    formula evaluated over the whole buffer in float64."""
    pts = np.array([float(x) for x in points])
    n_max = len(pts)
    buf = np.empty(n_max, dtype=np.float64)
    idx = np.arange(1, n_max + 1, dtype=np.float64)
    d_star = np.empty(n_max)
    anchor = np.empty(n_max)
    for n in range(1, n_max + 1):
        x = pts[n - 1]
        pos = int(np.searchsorted(buf[:n - 1], x))
        if pos < n - 1:
            buf[pos + 1:n] = buf[pos:n - 1].copy()
        buf[pos] = x
        view = buf[:n]
        i = idx[:n]
        up = view - (i - 1.0) / n
        dn = i / n - view
        ku = int(np.argmax(up))
        kd = int(np.argmax(dn))
        if up[ku] >= dn[kd]:
            d, k = float(up[ku]), ku
        else:
            d, k = float(dn[kd]), kd
        d_star[n - 1] = d
        anchor[n - 1] = float(view[k])
    return d_star, d_star * idx, anchor


def assert_trace_equals_oracle(points):
    """The trace equals the oracle loop bit for bit."""
    tr = discrepancy_trace(points)
    d_star, delta, anchor = trace_oracle(points)
    assert len(tr) == len(d_star)
    np.testing.assert_array_equal(tr.d_star, d_star)
    np.testing.assert_array_equal(tr.delta, delta)
    np.testing.assert_array_equal(tr.anchor, anchor)


def test_grid_exact():
    for N in (1, 2, 3, 10, 100, 999, 5000):
        r = star_discrepancy(uniform_grid(N))
        assert r.d_star == Fraction(1, N + 1)
        assert r.delta == Fraction(N, N + 1)


def test_single_point():
    assert star_discrepancy([Fraction(1, 2)]).d_star == Fraction(1, 2)
    assert star_discrepancy([0.5]).d_star == 0.5


def test_empty_rejected():
    with pytest.raises(ValueError):
        star_discrepancy([])


def test_midpoint_set_attains_lower_bound():
    # D* = 1/(2N) exactly for {(2i-1)/(2N)}, and every set sits above 1/(2N)
    for N in (1, 2, 5, 17):
        pts = [Fraction(2 * i - 1, 2 * N) for i in range(1, N + 1)]
        assert star_discrepancy(pts).d_star == Fraction(1, 2 * N)
    rnd = random.Random(0)
    for _ in range(50):
        n = rnd.randint(1, 20)
        pts = [Fraction(rnd.randint(0, 64), 64) for _ in range(n)]
        assert star_discrepancy(pts).d_star >= Fraction(1, 2 * n)


def test_oracle_agreement_random_multisets():
    # 200 random rational multisets of size <= 12, exact sandwich: the
    # anchor-enumeration oracle can undershoot the sup by at most EPS. The
    # two largest denominators put den * N at or above 2^62, past int64.
    rnd = random.Random(42)
    for _ in range(200):
        n = rnd.randint(1, 12)
        den = rnd.choice([8, 12, 16, 64, 101, 2 ** 61 + 1, 3 * 2 ** 60])
        pts = [Fraction(rnd.randint(0, den), den) for _ in range(n)]
        if rnd.random() < 0.3 and n > 1:
            pts[1] = pts[0]  # force a repeated point
        formula = star_discrepancy(pts).d_star
        oracle = brute_force_star_discrepancy(pts, eps=EPS)
        assert oracle <= formula <= oracle + EPS, pts


def test_permutation_invariance():
    rnd = random.Random(7)
    pts = [Fraction(rnd.randint(0, 1000), 1000) for _ in range(40)]
    base = star_discrepancy(pts).d_star
    for _ in range(10):
        rnd.shuffle(pts)
        assert star_discrepancy(pts).d_star == base


def test_mpf_path_matches_exact(sqrt2m1):
    ps = kronecker(sqrt2m1, 150)
    # an mpf is the dyadic rational man 2^exp: the exact path takes the
    # points spelled out as Fractions
    fracs = [int(x.man) * Fraction(2) ** int(x.exp) for x in ps.points]
    exact = star_discrepancy(fracs)
    assert isinstance(exact.d_star, Fraction)
    # mpf points themselves take the float path, as their float64 values
    r_mpf = star_discrepancy(ps)
    assert r_mpf == star_discrepancy([float(x) for x in ps.points])
    assert isinstance(r_mpf.d_star, float)
    assert abs(float(exact.d_star) - r_mpf.d_star) < 1e-12


def sorted_order_formula(xs):
    """(d, anchor) by the sorted-order formula in Fractions: the first
    sorted point attaining the maximum, the x - i/N branch winning ties."""
    xs = sorted(xs)
    N = len(xs)
    up = [(x - Fraction(i, N), -i) for i, x in enumerate(xs)]
    dn = [(Fraction(i + 1, N) - x, -i) for i, x in enumerate(xs)]
    (du, ku), (dd, kd) = max(up), max(dn)
    return (du, xs[-ku]) if du >= dd else (dd, xs[-kd])


@pytest.mark.parametrize("den", [2 ** 61 + 1, 3 * 2 ** 60, (1 << 63) - 1])
def test_rational_array_past_int64(den):
    # den * N >= 2^62: N nums_i overflows int64, so the kernel must take
    # Python ints, and still give the exact value and anchor
    rnd = random.Random(den)
    for N in (2, 5, 16):
        nums = [rnd.randint(1, den - 1) for _ in range(N)]
        r = star_discrepancy(RationalArray(nums, den))
        d, anchor = sorted_order_formula([Fraction(v, den) for v in nums])
        assert r == DiscrepancyResult(d, N * d, anchor)


@settings(max_examples=200)
@given(st.lists(st.integers(0, 12), min_size=1, max_size=40),
       st.integers(12, 15))
def test_sorted_max_first_index_up_wins_ties(nums, den):
    # the largest value of either branch and its first index, the up
    # branch winning ties (small numerators make ties common)
    nums = sorted(nums)
    N = len(nums)
    up = [x * N - i * den for i, x in enumerate(nums)]
    dn = [(i + 1) * den - x * N for i, x in enumerate(nums)]
    want = ((max(up), up.index(max(up))) if max(up) >= max(dn)
            else (max(dn), dn.index(max(dn))))
    assert int_sorted_max(np.array(nums, dtype=np.int64), den) == want


def test_trace_single_point_formula():
    for x in (0.2, 0.5, 0.9):
        tr = discrepancy_trace([x])
        assert tr.d_star[0] == pytest.approx(max(x, 1 - x), abs=1e-15)


def test_trace_matches_per_prefix_exact(sqrt2m1):
    ps = kronecker(sqrt2m1, 200)
    pts = [float(x) for x in ps.points]
    tr = discrepancy_trace(pts)
    for n in (1, 2, 3, 7, 50, 113, 200):
        exact = star_discrepancy(pts[:n])
        assert abs(tr.d_star[n - 1] - exact.d_star) < 1e-12


def test_vdc_trace_log_bound():
    # D_N* <= log2(N+1)/N at N = 2^s - 1 for the van der Corput prefix
    ps = van_der_corput(2 ** 10 - 1)
    tr = discrepancy_trace([float(x) for x in ps.points])
    for s in range(2, 11):
        n = 2 ** s - 1
        assert tr.d_star[n - 1] <= math.log2(n + 1) / n + 1e-12


def test_kronecker_delta_log_growth(sqrt2m1):
    # N D_N* = O(log N) empirically; the fitted constant stays small
    ps = kronecker(sqrt2m1, 2000)
    tr = discrepancy_trace([float(x) for x in ps.points])
    worst = max(tr.delta[n - 1] / math.log(n) for n in range(2, 2001))
    assert worst < 3.0


# ------------------------------------------------------ trace vs the loop

PROPERTY = settings(max_examples=40,
                    suppress_health_check=[HealthCheck.too_slow])


@PROPERTY
@given(st.lists(st.one_of(st.floats(0.0, 1.0),
                          st.integers(0, 12).map(lambda k: k / 12.0)),
                min_size=1, max_size=700))
def test_trace_matches_oracle_floats_with_ties(points):
    assert_trace_equals_oracle(np.array(points))


@PROPERTY
@given(st.integers(1, 14), st.lists(st.integers(0, 1 << 14), min_size=1,
                                    max_size=700))
def test_trace_matches_oracle_dyadics(bits, nums):
    points = np.array([min(x, 1 << bits) for x in nums]) / float(1 << bits)
    assert_trace_equals_oracle(points)


@PROPERTY
@given(st.lists(st.integers(1, 9), max_size=4),
       st.lists(st.integers(1, 9), min_size=1, max_size=3),
       st.integers(1, 1500))
def test_trace_matches_oracle_kronecker(prefix, period, N):
    alpha = surd_from_cf(prefix, period)
    assert_trace_equals_oracle(kronecker_fixed_point(alpha, N).points())


def test_trace_matches_oracle_at_benchmark_sizes(sqrt2m1):
    assert_trace_equals_oracle(van_der_corput(6000).points)
    assert_trace_equals_oracle(kronecker_fixed_point(sqrt2m1, 2000).points())


@settings(max_examples=40)
@given(st.integers(1, 64))
def test_vdc_exact_matches_brute_force(N):
    pts = van_der_corput(N).points
    exact = star_discrepancy(van_der_corput(N)).d_star
    oracle = brute_force_star_discrepancy(pts, eps=EPS)
    assert oracle <= exact <= oracle + EPS


# ---------------------------------------------- Kronecker prefix-sum bounds

@st.composite
def cf_alphas(draw):
    """[0; prefix, (period)^inf]. Half of the draws put one quotient in
    [2^64, 2^72] after a short prefix, so that a denominator q <= 2197 has
    ||q alpha|| < 2^-64 and the kernel recomputes that point exactly."""
    quotient = st.integers(1, 40)
    period = draw(st.lists(quotient, min_size=1, max_size=3))
    if draw(st.booleans()):
        head = draw(st.lists(st.integers(1, 12), max_size=3))
        tail = draw(st.lists(quotient, max_size=3))
        return surd_from_cf(head + [draw(st.integers(2 ** 64, 2 ** 72))]
                            + tail, period), True
    return surd_from_cf(draw(st.lists(quotient, max_size=6)), period), False


@settings(max_examples=15, suppress_health_check=[HealthCheck.too_slow])
@given(cf_alphas())
def test_kronecker_bounds_bracket_trace(drawn):
    alpha, huge = drawn
    N = 3000
    exact = []
    real = irrational._exact_distance

    def counted(a, n):
        exact.append(n)
        return real(a, n)

    irrational._exact_distance = counted
    try:
        orbit = kronecker_fixed_point(alpha, N)
    finally:
        irrational._exact_distance = real
    assert bool(exact) or not huge
    kd = kronecker_discrepancy(orbit)
    delta = discrepancy_trace(orbit.points()).delta
    lower, upper = oracles.bracket_arrays(kd)
    assert len(kd) == N
    assert np.all(lower <= delta) and np.all(delta <= upper)
    # the lower bound never falls below 1/2 by more than its margin
    assert np.all(lower > 0.49)
    # delta_at lies between the bounds before their margin, and within
    # the margin of the float64 trace
    at = np.array([kd.delta_at(n) for n in range(1, N + 1)])
    inner_lower, inner_upper, margin = oracles.kronecker_bracket(orbit)
    assert np.all(inner_lower <= at) and np.all(at <= inner_upper)
    assert np.all(np.abs(at - delta) <= margin)


def test_delta_at_between_the_bounds_before_their_margin(sqrt2m1):
    # at every n of a 2^17 orbit, across both of the bracket's blocks
    N = 1 << 17
    orbit = kronecker_fixed_point(sqrt2m1, N)
    kd = kronecker_discrepancy(orbit)
    inner_lower, inner_upper, _ = oracles.kronecker_bracket(orbit)
    at = np.array([kd.delta_at(n) for n in range(1, N + 1)])
    assert np.all(inner_lower <= at) and np.all(at <= inner_upper)


def test_kronecker_bounds_interface(sqrt2m1):
    orbit = kronecker_fixed_point(sqrt2m1, 50)
    kd = kronecker_discrepancy(orbit)
    tr = discrepancy_trace(orbit.points())
    assert isinstance(kd, PrefixDiscrepancy)
    assert abs(tr.delta[49] - kd.delta_at(50)) <= kd.margin(50)
    with pytest.raises(IndexError):
        kd.delta_at(0)
    with pytest.raises(IndexError):
        kd.delta_at(51)
    # n D_n* of one point x is max(x, 1 - x)
    x = float(orbit.points()[0])
    assert kd.delta_at(1) == max(x, 1.0 - x)


# ------------------------------------------ van der Corput from its digits

def vdc_deltas(N):
    """The blocks of `vdc_discrepancy(N)`, concatenated."""
    return np.concatenate([d for _, d in vdc_discrepancy(N)])


def test_vdc_deltas_match_exact():
    # the prefix sum against the max-plus digit program at every
    # N <= 2^20 + 1, from one call; both are exact in float64
    top = 2 ** 20 + 1
    got = vdc_deltas(top)
    want = oracles.vdc_deltas(top) / float(1 << (top + 1).bit_length())
    assert np.array_equal(got, want)
    # against the sorted-order formula: every N <= 4096 from one call, and
    # N = 2^k - 1, 2^k, 2^k + 1 up to k = 20 each from its own call,
    # where the denominator 2^bitlen(N) steps
    got = vdc_deltas(4096)
    for N in range(1, 4097):
        assert got[N - 1] == star_discrepancy(van_der_corput(N)).delta, N
    for k in range(1, 21):
        for N in (2 ** k - 1, 2 ** k, 2 ** k + 1):
            ps = van_der_corput(N)
            exact = star_discrepancy(ps).delta
            assert vdc_deltas(N)[N - 1] == exact, N


def test_vdc_discrepancy_refuses_empty_prefix():
    # as van_der_corput(N) does, N < 1 raises, at the call, before any
    # block is asked for
    for N in (0, -1):
        with pytest.raises(ValueError, match="N must be >= 1"):
            vdc_discrepancy(N)


def test_vdc_bounds_bracket_trace():
    N = 3000
    ps = van_der_corput(N)
    vd = vdc_deltas(N)
    exact = np.array([float(star_discrepancy(ps.points[:n]).delta)
                      for n in range(1, N + 1)])
    assert vd.dtype == np.float64
    assert np.array_equal(vd, exact)
    # the float64 trace of the same points is within 2^-50 n of it
    delta = discrepancy_trace(ps).delta
    n = np.arange(1, N + 1)
    assert np.all(np.abs(delta - exact) <= 2.0 ** -50 * n)
    assert vd[21] == 17 / 8
