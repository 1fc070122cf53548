"""The 128-bit fixed-point Kronecker kernel against the mpf oracle
(`FracPartEvaluator`, the points of `sequences.kronecker`), and the float64
log-sine kernel it feeds."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from oracles import (compensated_cumsum_by_chunks, log_two_sin_pi_mp,
                     mpf_trace, orbit_trace)
from weylprod import irrational, numerics, products
from weylprod.bounds import kronecker_log_trace
from weylprod.irrational import (KERNEL_MAX_N, FracPartEvaluator,
                                 kronecker_fixed_point,
                                 kronecker_fixed_point_blocks, surd_from_cf)
from weylprod.numerics import (TERM_EPS, compensated_cumsum, log_two_sin_pi,
                               log_two_sin_pi_array)
from weylprod.products import product_trace
from weylprod.sequences import kronecker

ORACLE_BITS = 320

quotient = st.integers(1, 60)
huge_quotient = st.integers(2 ** 64, 2 ** 72)


@st.composite
def alphas(draw):
    """[0; prefix, (period)^inf], sometimes with one quotient >= 2^64, which
    puts ||q alpha|| below 2^-64 for a small denominator q."""
    prefix = draw(st.lists(quotient, min_size=0, max_size=6))
    period = draw(st.lists(quotient, min_size=1, max_size=3))
    if draw(st.booleans()):
        prefix.insert(draw(st.integers(0, len(prefix))), draw(huge_quotient))
    return surd_from_cf(prefix, period)


def oracle_distances(alpha, N):
    """[||n alpha|| for n = 1..N] as mpf at ORACLE_BITS."""
    ev = FracPartEvaluator(alpha, n_max=N, precision_bits=ORACLE_BITS)
    out = []
    for n in range(1, N + 1):
        v = ev.frac_part(n).value
        out.append(min(v, 1 - v))
    return out, ev.error_bound


@settings(max_examples=40, suppress_health_check=[HealthCheck.too_slow])
@given(alphas(), st.integers(1, 600), st.integers(1, 97))
def test_points_within_derived_bound(alpha, N, block):
    want, oracle_err = oracle_distances(alpha, N)
    saved = irrational.SUM_CHUNK
    irrational.SUM_CHUNK = block
    try:
        blocks = list(kronecker_fixed_point_blocks(alpha, N))
        whole = kronecker_fixed_point(alpha, N)
    finally:
        irrational.SUM_CHUNK = saved
    assert [b.first for b in blocks] == list(range(1, N + 1, block))
    dist = np.concatenate([b.dist for b in blocks])
    err = np.concatenate([b.error() for b in blocks])
    upper = np.concatenate([b.upper for b in blocks])
    # the whole orbit is filled from the same blocks
    assert whole.first == 1
    assert np.array_equal(whole.dist, dist)
    assert np.array_equal(whole.upper, upper)
    with mpmath.mp.workprec(ORACLE_BITS):
        for n in range(1, N + 1):
            gap = abs(mpmath.mpf(float(dist[n - 1])) - want[n - 1])
            assert gap <= err[n - 1] + oracle_err, n
            # the relative error stays at double precision, however small
            # the distance
            assert gap <= 2.0 ** -49 * want[n - 1] + oracle_err, n
    # points above 1/2 come back through 1 - dist
    pts = whole.points()
    ev = FracPartEvaluator(alpha, n_max=N, precision_bits=ORACLE_BITS)
    for n in range(1, N + 1):
        v = ev.frac_part(n).value
        assert bool(upper[n - 1]) == (v > 0.5) or abs(v - 0.5) < 2.0 ** -90
        assert abs(pts[n - 1] - v) <= err[n - 1] + 2.0 ** -53 + oracle_err


@settings(max_examples=25, suppress_health_check=[HealthCheck.too_slow])
@given(alphas(), st.integers(1, 400))
def test_log_trace_within_trace_bounds(alpha, N):
    logs, err = kronecker_log_trace(alpha, N)
    ev = FracPartEvaluator(alpha, n_max=N, precision_bits=ORACLE_BITS)
    ref = mpf_trace(kronecker(alpha, N, evaluator=ev), ORACLE_BITS,
                    ev.error_bound)
    assert len(logs) == N
    for n in range(N):
        gap = abs(mpmath.mpf(float(logs[n])) - ref.log_values[n])
        assert gap <= err + ref.error_bound, n + 1


def test_huge_quotient_takes_exact_branch():
    # ||3 alpha|| ~ 2^-64 / 3: the fixed-point residue cannot resolve it
    alpha = surd_from_cf([1, 2, 2 ** 64 + 5], [1, 2])
    orbit = kronecker_fixed_point(alpha, 8)
    want, _ = oracle_distances(alpha, 8)
    assert want[2] < 2.0 ** -64
    with mpmath.mp.workprec(ORACLE_BITS):
        assert abs(orbit.dist[2] - want[2]) <= 2.0 ** -52 * want[2]
    logs, _ = kronecker_log_trace(alpha, 8)
    assert math.isfinite(logs[-1])


def test_kernel_limits(sqrt2m1):
    for N in (0, KERNEL_MAX_N + 1, 2 ** 31):
        with pytest.raises(ValueError):
            list(kronecker_fixed_point_blocks(sqrt2m1, N))
    with pytest.raises(ValueError):
        kronecker_log_trace(sqrt2m1, 2 ** 31)


def test_orbit_product_trace_matches_whole_orbit_sum(sqrt2m1, golden,
                                                     monkeypatch):
    # `product_trace` of an orbit, fed to a BlockTrace in orbit slices,
    # gives the whole-orbit sum over the kernel's blocks (`orbit_trace`)
    # bit for bit: the same terms and per-block charges, and term_max is
    # the largest |term|, so the sum takes the same integer scale; with
    # one block of N points too, and at a block size of 77 everywhere
    quotient = surd_from_cf([3, 10 ** 6], [1, 4])
    for alpha in (sqrt2m1, golden, quotient):
        for N in (1, 2, 13, 3000, 65536, 65537, 200001):
            got = product_trace(kronecker_fixed_point(alpha, N))
            want = orbit_trace(kronecker_fixed_point_blocks(alpha, N), N)
            assert got.log_values.tobytes() == want.log_values.tobytes(), N
            assert got.error_bound == want.error_bound, N
            assert got.N == N
    N = 1000
    whole = orbit_trace([kronecker_fixed_point(golden, N)], N)
    for module in (irrational, numerics, products):
        monkeypatch.setattr(module, "SUM_CHUNK", 77)
    split = product_trace(kronecker_fixed_point(golden, N))
    assert split.log_values.tobytes() == orbit_trace(
        kronecker_fixed_point_blocks(golden, N), N).log_values.tobytes()
    assert np.array_equal(whole.log_values, split.log_values)
    assert whole.error_bound == pytest.approx(split.error_bound, rel=1e-12)


@pytest.mark.parametrize("chunk", [numerics.SUM_CHUNK, 1000])
def test_compensated_cumsum_bound(chunk, monkeypatch):
    monkeypatch.setattr(numerics, "SUM_CHUNK", chunk)
    rng = np.random.default_rng(4)
    a = np.log(2.0 * np.sin(np.pi * rng.random(50000)))
    cum, err = compensated_cumsum(a)
    ref = np.array([math.fsum(a[:k].tolist())
                    for k in range(1, len(a) + 1, 997)])
    assert np.max(np.abs(cum[::997] - ref)) <= err
    assert err < 1e-12
    with pytest.raises(ValueError):
        compensated_cumsum(np.array([1.0, -np.inf]))


@pytest.mark.parametrize("chunk", [numerics.SUM_CHUNK, 1000])
def test_prefix_sum_fed_in_blocks_is_compensated_cumsum(chunk, monkeypatch):
    # a PrefixSum fed chunk by chunk gives compensated_cumsum's prefix sums
    # and bound bit for bit, on both sides of a chunk edge
    monkeypatch.setattr(numerics, "SUM_CHUNK", chunk)
    rng = np.random.default_rng(5)
    for n in (1, chunk - 1, chunk, chunk + 1, 3 * chunk + 5):
        a = np.log(2.0 * np.sin(np.pi * rng.random(n)))
        want, bound = compensated_cumsum(a)
        acc = numerics.PrefixSum(n, float(np.abs(a).max()))
        got = np.concatenate([acc.feed(a[s:s + chunk])
                              for s in range(0, n, chunk)])
        assert got.tobytes() == want.tobytes(), n
        assert acc.error_bound() == bound, n
        # and both are the chunk loop's, bit for bit
        loop, loop_bound = compensated_cumsum_by_chunks(a)
        assert got.tobytes() == loop.tobytes() and bound == loop_bound, n


def test_prefix_sum_refuses_terms_past_its_count():
    acc = numerics.PrefixSum(3, 1.0)
    acc.feed(np.array([0.5, -1.0]))
    with pytest.raises(ValueError, match="declared count"):
        acc.feed(np.array([0.25, 0.25]))
    with pytest.raises(ValueError, match="finite"):
        numerics.PrefixSum(3, math.inf)


def test_beyond_two_to_the_24(sqrt2m1):
    N = 2 ** 24 + 5
    logs, err = kronecker_log_trace(sqrt2m1, N)
    assert len(logs) == N and err < 1e-6
    ev = FracPartEvaluator(sqrt2m1, n_max=2 ** 25)
    for last in kronecker_fixed_point_blocks(sqrt2m1, N):
        pass
    tail = last.points()[-5:]
    for i, n in enumerate(range(N - 4, N + 1)):
        x = ev.frac_part(n).value
        assert abs(tail[i] - x) <= last.error()[-5 + i] + 2.0 ** -53
        # the log-product increments are the terms of those points
        term = log_two_sin_pi(x)
        assert abs((logs[n - 1] - logs[n - 2]) - term) <= 2 * err + 1e-15


# points where the reflection min(x, 1 - x) is tight: 1/2 and its
# neighbours (1 - x rounds back to 1/2 just below it), 1 - 2^-53 (1 - x is
# the smallest gap to 1) and tiny x, down to the smallest subnormal
EDGE_POINTS = (0.5, float(np.nextafter(0.5, 1.0)), float(np.nextafter(0.5, 0.0)),
               1.0 - 2.0 ** -53, 2.0 ** -53, 1e-300, 2.0 ** -1074,
               float(np.nextafter(1.0, 0.0)), 1.0 / 6.0, 5.0 / 6.0)
unit_points = st.one_of(
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
    st.sampled_from(EDGE_POINTS))


@settings(max_examples=100)
@given(arrays(np.float64, array_shapes(min_dims=1, max_dims=2, max_side=40),
              elements=unit_points), st.booleans())
def test_log_kernel_matches_where_reflection(x, transpose):
    """The in-place kernel equals the np.where expression it replaced, bit
    for bit, on 1-D and 2-D (also non-contiguous) input, and leaves the
    input unchanged."""
    if transpose:
        x = x.T
    before = x.copy()
    want = np.log(2.0 * np.sin(np.pi * np.where(x > 0.5, 1.0 - x, x)))
    got = log_two_sin_pi_array(x)
    assert got.shape == x.shape and got.dtype == np.float64
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    np.testing.assert_array_equal(x.view(np.uint64), before.view(np.uint64))
    assert not np.shares_memory(got, x)


def test_log_kernel_edge_points():
    x = np.array(EDGE_POINTS)
    want = np.log(2.0 * np.sin(np.pi * np.where(x > 0.5, 1.0 - x, x)))
    got = log_two_sin_pi_array(x)
    np.testing.assert_array_equal(got.view(np.uint64), want.view(np.uint64))
    assert got[0] == math.log(2.0)
    assert np.all(np.isfinite(got))
    np.testing.assert_array_equal(x, np.array(EDGE_POINTS))


@pytest.mark.skipif(np.finfo(np.longdouble).nmant < 63,
                    reason="the screen needs a 64-bit long double mantissa")
def test_log_kernel_within_term_eps():
    """`log_two_sin_pi_array` stays within TERM_EPS (1 + |term|) of
    log(2 sin pi x) on this host's numpy, densely sampled where its error
    peaks: near 1/6 and 5/6, where 2 sin(pi x) = 1 and the log's relative
    error meets a term near 0, and near 0, 1/2 and 1. Every sample is
    screened against a long-double evaluation; the worst are settled in
    mpmath at 128 bits."""
    rng = np.random.default_rng(6)
    n = 100_000
    parts = [rng.uniform(0.0, 1.0, n),
             np.ldexp(rng.uniform(1.0, 2.0, n), rng.integers(-60, -1, n)),
             1.0 - np.ldexp(rng.uniform(1.0, 2.0, n),
                            rng.integers(-53, -1, n))]
    for c in (1.0 / 6.0, 5.0 / 6.0, 0.5):
        parts += [c + rng.uniform(-1e-3, 1e-3, 2 * n),
                  c + rng.uniform(-1e-9, 1e-9, n // 4),
                  c + np.arange(-2000, 2001) * np.spacing(c)]
    x = np.concatenate(parts)
    got = log_two_sin_pi_array(x)
    # min(x, 1 - x) is exact: x itself below 1/2, 1 - x above it
    xl = x.astype(np.longdouble)
    r = np.minimum(xl, 1 - xl)
    pi = 4 * np.arctan(np.longdouble(1))
    ref = np.log(2 * np.sin(pi * r))
    scale = 1.0 + np.abs(ref)
    # the long-double reference is within a few 2^-64 (1 + |term|)
    ratio = (np.abs(got - ref) + 2.0 ** -60 * scale) / (TERM_EPS * scale)
    assert ratio.max() <= 1.0
    worst = 0.0
    for i in np.argsort(ratio)[-24:].tolist():
        exact = log_two_sin_pi_mp(mpmath.mpf(float(x[i])), 128)
        err = abs(mpmath.mpf(float(got[i])) - exact) / (1 + abs(exact))
        worst = max(worst, float(err) / TERM_EPS)
    assert worst <= 1.0
