import math
import random
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from mpmath import libmp

from oracles import log_two_sin_pi_mp, mpf_trace
from weylprod import products
from weylprod.numerics import (SUM_CHUNK, TERM_EPS, log_two_sin_pi,
                               log_two_sin_pi_array)
from weylprod.irrational import (DEFAULT_N_MAX, FixedPointOrbit,
                                 FracPartEvaluator, default_precision_bits,
                                 kronecker_fixed_point, parse_alpha,
                                 surd_from_cf)
from weylprod.products import (ANCHOR_STEPS, closed_form_shifted,
                               normalizer_power, product_trace,
                               rotation_products, row_text, row_value)
from weylprod.sequences import (PointSet, RationalArray, kronecker,
                                uniform_grid, uniform_grid_blocks,
                                van_der_corput, van_der_corput_blocks)
from weylprod.stochastic import log_integral


def test_single_half_point():
    for pts in (RationalArray([1], 2), np.array([0.5])):
        tr = product_trace(pts)
        assert float(tr.log_values[-1]) == \
            pytest.approx(math.log(2.0), abs=1e-15)


def test_roots_of_unity_identity():
    # prod_{k<N} 2 sin(pi k/N) == N; uniform_grid(N-1) is exactly that set
    for N in (2, 3, 5, 17, 256, 2048):
        tr = product_trace(uniform_grid(N - 1))
        assert abs(float(tr.log_values[-1]) - math.log(N)) \
            <= 1e-10 * max(1.0, math.log(N))


def test_shifted_identity_against_direct_product():
    for N in (1, 2, 8, 64, 512):
        for num in range(1, 7):
            x = Fraction(num, 7)
            direct = math.fsum(log_two_sin_pi((k + x) / N) for k in range(N))
            ref = closed_form_shifted(N, x)
            assert math.exp(direct) == pytest.approx(ref, rel=1e-10)
    assert closed_form_shifted(64, Fraction(1, 3)) == \
        pytest.approx(math.sqrt(3.0), rel=1e-12)
    assert closed_form_shifted(10, 0.5) == pytest.approx(2.0, rel=1e-12)


ORACLE_BITS = 320
# the mantissa width of `kronecker`'s points from its default evaluator,
# and the error bound of each point
KRONECKER_BITS = default_precision_bits(DEFAULT_N_MAX)
KRONECKER_ERR = FracPartEvaluator(parse_alpha("sqrt2m1")).error_bound


def test_kronecker_trace_vs_quadruple_precision(sqrt2m1):
    ps = kronecker(sqrt2m1, 500)
    tr = mpf_trace(ps, KRONECKER_BITS, KRONECKER_ERR)
    # independent recomputation at 4x the working precision
    with mpmath.mp.workprec(4 * KRONECKER_BITS):
        a = mpmath.sqrt(2) - 1
        run = mpmath.mpf(0)
        for k in range(1, 501):
            run += mpmath.log(2 * mpmath.sinpi((k * a) % 1))
            assert abs(tr.log_values[k - 1] - run) < tr.error_bound


def test_permutation_invariance(sqrt2m1):
    ps = kronecker(sqrt2m1, 300)
    tr = mpf_trace(ps, KRONECKER_BITS, KRONECKER_ERR)
    pts = list(ps.points)
    rnd = random.Random(1)
    for _ in range(5):
        rnd.shuffle(pts)
        tr2 = mpf_trace(PointSet(pts, "kronecker"), KRONECKER_BITS,
                        KRONECKER_ERR)
        assert abs(float(tr.log_values[-1]) - float(tr2.log_values[-1])) \
            <= float(tr.error_bound + tr2.error_bound) + 1e-25


def test_error_bound_accumulates_linearly(sqrt2m1):
    ps = kronecker(sqrt2m1, 400)
    t_half = mpf_trace(PointSet(list(ps.points)[:200], "kronecker"),
                       KRONECKER_BITS, KRONECKER_ERR)
    t_full = mpf_trace(ps, KRONECKER_BITS, KRONECKER_ERR)
    assert t_full.error_bound < 4 * t_half.error_bound


def refuse_logs(monkeypatch):
    """Make every log the product layer takes fail the test."""
    def no_log(x):
        raise AssertionError("a log was taken")
    monkeypatch.setattr(products, "log_two_sin_pi_array", no_log)


def test_points_off_the_open_interval_are_refused(monkeypatch):
    # a point at 0 or 1 would make the product zero, and a NaN has none:
    # each is refused before any log is taken, as a bare RationalArray or
    # ndarray and in a PointSet (which refuses a NaN itself)
    alpha = surd_from_cf([3, 2 ** 70], [1, 4])
    kron = np.array([float(x) for x in kronecker(alpha, 3).points])
    # {3 alpha} lies about 2^-71.6 below 1 and rounds to 1.0
    assert kron[2] == 1.0
    refuse_logs(monkeypatch)
    for pts in (RationalArray([2, 0, 1], 4), RationalArray([1, 3, 3], 3),
                # past 2^53 the numerator rounds too, here to 1.0
                RationalArray([2 ** 60 - 1], 2 ** 60),
                np.array([0.5, 0.0, 0.25]), np.array([0.5, 1.0]),
                np.array([0.5, np.nan]), kron):
        with pytest.raises(ValueError, match=r"not inside \(0, 1\)"):
            product_trace(pts)
        with pytest.raises(ValueError):
            product_trace(PointSet(pts, "extremal"))


def test_block_trace_refuses_a_block_off_the_open_interval(monkeypatch):
    # the streamed checkers feed blocks a whole-set `term_max` never saw
    trace = products.BlockTrace(4, 1.0)
    trace.feed(np.array([0.25, 0.5]))
    refuse_logs(monkeypatch)
    for block in (np.array([0.5, 0.0]), np.array([1.0, 0.5]),
                  RationalArray([1, 3], 3), np.array([np.nan, 0.5])):
        with pytest.raises(ValueError, match=r"not inside \(0, 1\)"):
            trace.feed(block)


def test_product_trace_takes_rational_or_float64_arrays():
    for pts in ([0.5], [Fraction(1, 2)],
                PointSet([Fraction(1, 2)], "extremal"),
                np.array([Fraction(1, 2)]), np.array([0.5], np.float32)):
        with pytest.raises(TypeError, match="RationalArray, a float64 "
                                            "ndarray or a FixedPointOrbit"):
            product_trace(pts)


def test_log_sin_integral_vanishes():
    # the normalization constant of 2 sin(pi x) is exp(-integral) = 1
    res = log_integral()
    assert abs(res.value) < 1e-12


def test_mp_log_term_matches_float():
    for x in (0.1, 0.5, 0.9, 1e-8):
        a = log_two_sin_pi(x)
        b = float(log_two_sin_pi_mp(mpmath.mpf(x), 120))
        assert a == pytest.approx(b, rel=1e-13)


def test_float_trace_charges_point_error(golden):
    # a point error e adds 1.6 e / min(x, 1 - x) per point to the terms'
    # rounding allowance: a scalar one in the term kernel, and each orbit
    # point's own `error()` in `product_trace`, over several blocks, on top
    # of the same trace of its bare distances; the dyadic rationals are
    # exact floats, charged nothing
    x = np.array([0.125, 0.5, 0.75, 2.0 ** -20])
    m = np.minimum(x, np.subtract(1.0, x))
    bare = products._float_terms(x, 0.0)[1]
    assert products._float_terms(x, 1e-12)[1] - bare == pytest.approx(
        float(np.sum(1.6e-12 / m)), rel=1e-12)
    dyadic = RationalArray([2 ** 17, 2 ** 19, 3 * 2 ** 18, 1], 2 ** 20)
    assert product_trace(dyadic).error_bound == \
        product_trace(x).error_bound
    orbit = kronecker_fixed_point(golden, 2 * SUM_CHUNK + 5)
    tr = product_trace(orbit)
    assert tr.log_values.tobytes() == \
        product_trace(orbit.dist).log_values.tobytes()
    assert tr.error_bound - product_trace(orbit.dist).error_bound == \
        pytest.approx(float(np.sum(1.6 * orbit.error() / orbit.dist)),
                      rel=1e-12)


@pytest.mark.parametrize("alpha", [
    parse_alpha("sqrt2m1"), parse_alpha("golden"),
    parse_alpha("(1+1*sqrt(7))/5"),
    # alpha = [0; 3, 2^40, ...] puts {3m alpha}, m <= 1000, about
    # m 2^-41.6 below 1, where rounding to float64 moves a term by up to
    # 2^-54 / (1 - x)
    surd_from_cf([3, 2 ** 40], [1, 4]),
], ids=["sqrt2m1", "golden", "sqrt7", "quotient-2^40"])
def test_kronecker_point_set_takes_float_path(alpha):
    # mpf points rounded to float64 are within half an ulp, at most 2^-54,
    # of the 320-bit points: charged as their point error (the term
    # kernel's charge), that widens the float trace's bound, which then
    # covers the gap to the mpf oracle over the 320-bit points at every n;
    # the fixed-point orbit's trace covers it with its own bound
    N = 3000
    ev = FracPartEvaluator(alpha, n_max=N, precision_bits=ORACLE_BITS)
    ps = kronecker(alpha, N, evaluator=ev)
    rounded = np.array([float(x) for x in ps.points])
    tr = product_trace(PointSet(rounded, "kronecker"))
    assert tr.log_values.dtype == np.float64
    assert tr.log_values.tobytes() == \
        product_trace(rounded).log_values.tobytes()
    assert tr.N == N
    charge = (products._float_terms(rounded, ev.error_bound + 2.0 ** -54)[1]
              - products._float_terms(rounded, 0.0)[1])
    orbit = product_trace(kronecker_fixed_point(alpha, N))
    oracle = mpf_trace(ps, ORACLE_BITS, ev.error_bound)
    with mpmath.mp.workprec(ORACLE_BITS):
        for n, want in enumerate(oracle.log_values, 1):
            assert abs(mpmath.mpf(float(tr.log_values[n - 1])) - want) <= \
                tr.error_bound + charge + oracle.error_bound, n
            assert abs(mpmath.mpf(float(orbit.log_values[n - 1])) - want) \
                <= orbit.error_bound + oracle.error_bound, n


def test_rational_arrays_charge_their_rounding():
    # a non-dyadic RationalArray is read as float64 within half an ulp of
    # each point; near 1 that moves a term far past TERM_EPS
    for nums, den in (([3 * 2 ** 40 - 1], 3 * 2 ** 40), ([999999], 10 ** 6),
                      (np.arange(1, 5000), 5000)):
        ps = PointSet(RationalArray(nums, den), "extremal")
        tr = product_trace(ps)
        want = mpf_trace(ps, 200, 0.0)
        assert tr.error_bound > 0.0
        for n in {1, len(nums)}:
            assert abs(mpmath.mpf(float(tr.log_values[n - 1]))
                       - want.log_values[n - 1]) <= tr.error_bound, (den, n)
    # dyadic denominators are exact
    assert product_trace(RationalArray([1, 3], 4)).error_bound == \
        product_trace(np.array([0.25, 0.75])).error_bound


def test_block_trace_refuses_a_term_past_amax():
    # amax sets the integer scale of the exact sum; a larger term could
    # overflow it, so it is refused
    trace = products.BlockTrace(2, 0.5)
    with pytest.raises(ValueError, match="amax"):
        trace.feed(np.array([0.25, 0.5]))  # log 2 > 0.5


def test_points_at_their_error_from_an_endpoint_are_rejected():
    # short of an endpoint, a point needs 3.2 of its errors to either side;
    # past 2^53 a dyadic point is charged 3 ulps of its rounding
    # (an orbit's first point has the error 2^-128 from its n = 1)
    near = np.array([0.5, 1.0 - 2.0 ** -50])
    with pytest.raises(ValueError, match="of 0 or 1"):
        products._float_terms(near, 2.0 ** -51)
    with pytest.raises(ValueError, match="of 0 or 1"):
        product_trace(RationalArray([2 ** 54 - 3], 2 ** 54))
    with pytest.raises(ValueError, match="of 0 or 1"):
        product_trace(FixedPointOrbit(1, np.array([2.0 ** -127, 0.25]),
                                      np.zeros(2, dtype=bool)))
    products._float_terms(near, 2.0 ** -52)
    product_trace(FixedPointOrbit(1, np.array([2.0 ** -126, 0.25]),
                                  np.zeros(2, dtype=bool)))


@pytest.mark.parametrize("blocks", [uniform_grid_blocks,
                                    van_der_corput_blocks],
                         ids=["grid", "vdc"])
def test_block_trace_allocates_no_block_per_block(blocks):
    # after the first block, every block is written into the trace's kept
    # arrays and the caller's `out`: over the next seven blocks the traced
    # peak grows by less than an eighth of one block's 512 KB, with and
    # without the rounding charge of a non-dyadic denominator
    N = 8 * SUM_CHUNK
    parts = list(blocks(N))
    trace = products.BlockTrace(N, products.term_max(
        np.concatenate([b.to_float_array() for b in parts])))
    want = product_trace(RationalArray(
        np.concatenate([b.numerators for b in parts]), parts[0].denominator))
    out = np.empty(SUM_CHUNK)
    tracemalloc.start()
    try:
        trace.feed(parts[0], out=out)
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        for part in parts[1:]:
            last = float(trace.feed(part, out=out)[-1])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - base < 64 * 1024
    assert last == float(want.log_values[-1])
    assert trace.error_bound() == want.error_bound


def float_terms_by_expressions(arr, pt_err):
    """`products._float_terms` written as plain array expressions, one
    temporary per operation: the reference its in-place form must match
    bit for bit."""
    terms = log_two_sin_pi_array(arr)
    err = float((TERM_EPS * (1.0 + np.abs(terms))).sum())
    if isinstance(pt_err, np.ndarray) or pt_err:
        charges = 1.6 * pt_err / np.minimum(arr, 1.0 - arr)
        if charges.max() > 0.5:
            raise ValueError("a point lies within 3.2 errors of 0 or 1")
        err += float(np.sum(charges))
    return terms, err


@pytest.mark.parametrize("points", [
    van_der_corput(5000).points.to_float_array(),
    uniform_grid(3001).points.to_float_array(),
    np.array([0.25, 1e-300, 0.5, 0.9, 1.0 - 2.0 ** -53, 1e-9]),
], ids=["vdc", "grid", "near-ends"])
def test_float_terms_bit_for_bit(points):
    # the terms and the bound equal the expressions' bits, with no point
    # error, a scalar one and one per point, in new arrays and in given
    # ones; where the expressions reject a point error, so does the in-place
    # form (a per-point error array is spent, so each call gets a copy)
    before = points.copy()
    per_point = np.linspace(1e-20, 1e-16, len(points))
    given = (np.empty(len(points)), np.empty(len(points)))

    def fresh(e):
        return e.copy() if isinstance(e, np.ndarray) else e

    for pt_err in (0.0, 1e-17, per_point):
        try:
            want_terms, want_err = float_terms_by_expressions(points, pt_err)
        except ValueError:
            with pytest.raises(ValueError):
                products._float_terms(points, fresh(pt_err))
            continue
        for arrays in ((), given):
            terms, err = products._float_terms(points, fresh(pt_err),
                                               *arrays)
            assert terms.tobytes() == want_terms.tobytes()
            assert err == want_err
        assert terms is given[0]
    assert points.tobytes() == before.tobytes()


# ------------------------------------------------------ rotation kernel


def oracle_trace(alpha, N):
    """log P_n, n <= N, from the log-space mpf trace (`oracles.mpf_trace`)
    over the evaluator's 320-bit points."""
    ev = FracPartEvaluator(alpha, n_max=N, precision_bits=ORACLE_BITS)
    return mpf_trace(kronecker(alpha, N, evaluator=ev), ORACLE_BITS,
                     ev.error_bound)


def rows_within_bound(series, oracle_logs, oracle_err, ns=None):
    """Checks |log row_n + k log n - log P_n| <= the reported bound plus the
    oracle's for every row (or the rows in `ns`); returns the largest gap."""
    k, bound = series.power, series.log_error_bound
    worst = 0
    with mpmath.mp.workprec(ORACLE_BITS):
        for n, row in enumerate(series, 1):
            if ns is not None and n not in ns:
                continue
            got = (mpmath.log(mpmath.mp.make_mpf(libmp.from_man_exp(*row)))
                   + k * mpmath.log(n))
            gap = abs(got - oracle_logs[n - 1])
            assert gap <= bound + oracle_err, n
            worst = max(worst, gap)
    return worst


def test_rotation_products_against_evaluator_oracle(golden):
    # rows rounded to 96 bits; the bound must cover the log-space oracle
    # at 320 bits
    N = 400
    oracle = oracle_trace(golden, N)
    series = rotation_products(golden, N, "one_over_N_squared", 96)
    rows = list(series)
    bound = series.log_error_bound
    assert len(rows) == N and 0 < bound < 1e-20
    assert all(libmp.from_man_exp(*row)[3] <= 96 for row in rows)
    rows_within_bound(series, oracle.log_values, oracle.error_bound)


def test_rotation_products_bound_parts_at_68_bits(sqrt2m1):
    # the bound is the sum of its derived parts; at 68 bits the rows'
    # rounding shows in the rows, and the bound still covers them
    N = 300
    series = rotation_products(sqrt2m1, N, "one_over_N", 68)
    wp, W, _ = products._working_bits(68, N)
    units, exact = products._rotation_charges(sqrt2m1, N, wp, W)
    assert exact == [] and series.exact_terms == []
    # the rotation costs less than one renormalisation in all
    assert 0 < units < 1
    assert series.log_error_bound == pytest.approx(
        (units + N) * 2.0 ** -wp + 2.0 ** -68, rel=1e-10)
    oracle = oracle_trace(sqrt2m1, N)
    gap = rows_within_bound(series, oracle.log_values, oracle.error_bound)
    assert gap > 2.0 ** -72


def test_rotation_products_rejects_bad_arguments(sqrt2m1):
    with pytest.raises(ValueError, match="normalizer"):
        rotation_products(sqrt2m1, 3, "bogus")
    with pytest.raises(ValueError, match="N must be >= 1"):
        rotation_products(sqrt2m1, 0)
    with pytest.raises(ValueError, match="precision_bits"):
        rotation_products(sqrt2m1, 3, precision_bits=60)
    assert [normalizer_power(k) for k in
            ("none", "one_over_N", "one_over_N_squared")] == [0, 1, 2]


def test_rotation_bound_stays_positive_past_double_range(sqrt2m1):
    # 2^-1100 is below the smallest double: the bound must not read 0
    series = rotation_products(sqrt2m1, 3, precision_bits=1100)
    assert series.log_error_bound > 0
    assert [libmp.from_man_exp(*row)[3] <= 1100 for row in series] == \
        [True] * 3


@pytest.fixture(scope="module")
def golden_oracle(golden):
    return oracle_trace(golden, 3 * ANCHOR_STEPS)


@pytest.mark.parametrize("N", [ANCHOR_STEPS - 1, ANCHOR_STEPS,
                               ANCHOR_STEPS + 1, ANCHOR_STEPS + 2,
                               2 * ANCHOR_STEPS - 1, 2 * ANCHOR_STEPS,
                               2 * ANCHOR_STEPS + 1, 2 * ANCHOR_STEPS + 2])
@pytest.mark.parametrize("normalizer", ["none", "one_over_N_squared"])
def test_rotation_rows_at_anchor_boundaries(golden, golden_oracle, N,
                                            normalizer):
    # anchors sit at n = 1 + m ANCHOR_STEPS: the last step before an anchor,
    # the anchor and the step after it, for N on either side
    series = rotation_products(golden, N, normalizer)
    assert len(list(series)) == N
    rows_within_bound(series, golden_oracle.log_values,
                      golden_oracle.error_bound)


def mpf_product_logs(alpha, N, ns):
    """{n: log P_n} for n in `ns` from a running mpf product of
    2 sin(pi n alpha) at 340 bits, alpha from mpmath's own square root;
    its error is below 1e-80 for N <= 2^17."""
    out = {}
    with mpmath.mp.workprec(340):
        a = (alpha.a + alpha.b * mpmath.sqrt(alpha.d)) / alpha.c
        raw = a._mpf_
        run = libmp.fone
        for n in range(1, N + 1):
            s = libmp.mpf_sin_pi(libmp.mpf_mul(libmp.from_int(n), raw), 340)
            run = libmp.mpf_mul(run, libmp.mpf_abs(libmp.mpf_shift(s, 1)),
                                340)
            if n in ns:
                out[n] = mpmath.log(mpmath.mp.make_mpf(run))
    return out


def test_rotation_rows_across_2_16(sqrt2m1):
    # N = 2^16 is where the float pass starts its second block and where
    # bitlen(N), and with it the working widths, grows
    Ns = (2 ** 16 - 1, 2 ** 16, 2 ** 16 + 1)
    ns = set(range(1, 2 ** 16 + 2, 997)) | set(range(2 ** 16 - 70, 2 ** 16 + 2))
    logs = mpf_product_logs(sqrt2m1, max(Ns), ns)
    oracle = [logs.get(n) for n in range(1, max(Ns) + 1)]
    for N in Ns:
        series = rotation_products(sqrt2m1, N, "one_over_N")
        assert series.exact_terms == []
        rows_within_bound(series, oracle, 1e-80, ns={n for n in ns if n <= N})


small_quotient = st.integers(1, 6)


@st.composite
def rotation_cases(draw):
    """(alpha, N, q): [0; prefix, (period)^inf]; half the time one quotient
    in [2^64, 2^72] follows the prefix, whose denominator q <= 343 then has
    ||q alpha|| below 2^-64, and N >= q."""
    prefix = draw(st.lists(small_quotient, min_size=0, max_size=3))
    period = draw(st.lists(st.integers(1, 60), min_size=1, max_size=3))
    if not draw(st.booleans()):
        return surd_from_cf(prefix, period), draw(st.integers(1, 300)), None
    q_prev, q = 0, 1
    for a in prefix:
        q_prev, q = q, a * q + q_prev
    huge = draw(st.integers(2 ** 64, 2 ** 72))
    alpha = surd_from_cf(prefix + [huge], period)
    return alpha, draw(st.integers(q, q + 200)), q


@settings(max_examples=20, suppress_health_check=[HealthCheck.too_slow])
@given(rotation_cases(), st.sampled_from(products.NORMALIZERS))
def test_rotation_rows_property(case, normalizer):
    alpha, N, q = case
    series = rotation_products(alpha, N, normalizer)
    if q is not None:
        # the rotation cannot resolve sin(pi q alpha) to 2^-wp: exact term
        assert q in series.exact_terms
    oracle = oracle_trace(alpha, N)
    rows_within_bound(series, oracle.log_values, oracle.error_bound)


mantissas = st.one_of(st.integers(1, 2 ** 200),
                      st.integers(0, 200).map(lambda t: 1 << t))


@settings(max_examples=300)
@given(mantissas, st.integers(-700, 60), st.integers(1, 2 ** 24),
       st.sampled_from([0, 1, 2]), st.sampled_from([68, 112, 160]))
@example(1, 0, 1, 0, 112)
@example(1 << 60, -60, 1, 2, 112)
@example(10 ** 39 - 1, 0, 1, 0, 160)
@example(10 ** 40, 0, 1, 0, 160)
@example(1, -43, 1, 0, 112)
@example(1, -44, 1, 0, 112)
def test_row_value_formats_like_nstr(man, exp, n, k, prec):
    # fixed (leading digit between 10^-13 and 10^39) and scientific forms,
    # exact powers of 2, one correct rounding of man 2^exp / n^k
    row = row_value(man, exp, n ** k, prec)
    mpf = libmp.from_man_exp(*row)
    assert mpf[3] <= prec
    exact = mpmath.mp.make_mpf(libmp.from_man_exp(man, exp))
    want = mpmath.fdiv(exact, n ** k, prec=prec, rounding="n")
    assert mpf == want._mpf_
    assert libmp.to_str(mpf, 40) == mpmath.nstr(want, 40)
    assert row_text(row) == mpmath.nstr(want, 40)


@settings(max_examples=400)
@given(mantissas,
       st.one_of(st.integers(-250, 160), st.integers(-3700, 3700)),
       st.one_of(st.just(1), st.integers(1, 2 ** 48)),
       st.sampled_from([68, 112, 160, 1100]))
# leading digit at 10^-13 (scientific) and 10^-12 (fixed)
@example(15, 0, 10 ** 14, 112)
@example(15, 0, 10 ** 13, 112)
# leading digit at 10^39 (fixed) and 10^40 (scientific)
@example(10 ** 39, 0, 1, 160)
@example(10 ** 40, 0, 1, 160)
# forty 9s carried up across each edge: 10^-12 (1 - 10^-45) prints as
# 10^-12, fixed, and 10^40 (1 - 10^-44) as 1.0e+40
@example(10 ** 45 - 1, 0, 10 ** 57, 160)
@example(10 ** 44 - 1, 0, 10 ** 4, 160)
# exp + bc = -3500 and -3501, 3500 and 3501 (past 3500, to_digits_exp
# first divides by a power of ten)
@example(1, -3501, 1, 112)
@example(1, -3502, 1, 1100)
@example(1, 3499, 1, 112)
@example(1, 3500, 1, 1100)
# fixprec = 0 (exp + bc = 152, handed to to_str) and 1
@example(1, 151, 1, 160)
@example(1, 150, 1, 160)
# bc above the 152 fixed-point bits: a floor shift to the right
@example(2 ** 200 - 1, -200, 3, 1100)
def test_row_text_is_to_str(man, exp, nk, prec):
    row = row_value(man, exp, nk, prec)
    assert row_text(row) == libmp.to_str(libmp.from_man_exp(*row), 40)


def sticky_quotient_mpf(man, exp, nk, prec):
    """man 2^exp / nk as a raw mpf at prec bits: the quotient with at least
    prec + 2 bits and a sticky bit for a nonzero remainder, rounded by
    mpmath's from_man_exp."""
    sh = max(0, prec + 2 + nk.bit_length() - man.bit_length())
    q, r = divmod(man << sh, nk)
    return libmp.from_man_exp((q << 1) | (r > 0), exp - sh - 1, prec, "n")


@st.composite
def near_ties(draw):
    """(man, exp, nk, prec) whose exact quotient x 2^t + tail has prec bits
    in x and a tail just below, at or just above the half, or all ones
    below x = 2^prec - 1 (a carry up to 2^prec)."""
    prec = draw(st.sampled_from([68, 112, 160, 1100]))
    t = draw(st.integers(1, 12))
    half = 1 << (t - 1)
    if draw(st.booleans()):
        x = (1 << prec) - 1
        tail = (1 << t) - 1
    else:
        x = draw(st.integers(1 << (prec - 1), (1 << prec) - 1))
        tail = half + draw(st.sampled_from([-1, 0, 1]))
    nk = draw(st.sampled_from([1, 3, 9, 2 ** 20, 7 ** 12]))
    return nk * ((x << t) + tail), draw(st.integers(-900, 60)), nk, prec


@settings(max_examples=400)
@given(st.one_of(st.tuples(mantissas, st.integers(-700, 60),
                           st.one_of(st.just(1), st.integers(1, 2 ** 48),
                                     st.integers(1, 2 ** 24).map(
                                         lambda n: n * n)),
                           st.sampled_from([68, 112, 160, 1100])),
                 near_ties()),
       st.integers(0, 200))
# exact ties at 68 bits, the kept bit even (down) and odd (up), with and
# without a division
@example(((1 << 68) + 1, 0, 1, 68), 0)
@example(((1 << 68) + 3, 0, 1, 68), 0)
@example((3 * ((1 << 68) + 1), -5, 3, 68), 7)
@example((3 * ((1 << 68) + 3), -5, 3, 68), 7)
# all ones carried up to 2^prec
@example(((1 << 113) - 1, 0, 1, 112), 0)
@example((9 * ((1 << 1110) - 1), -40, 9, 1100), 3)
# bitlen <= prec: nothing to round
@example((12345, 3, 1, 112), 5)
@example(((1 << 160) - 1, -160, 1, 160), 0)
# nk = 1 with a sticky tail
@example(((1 << 200) + 1, -200, 1, 160), 1)
def test_row_value_rounds_like_from_man_exp(case, t):
    man, exp, nk, prec = case
    x, xe = row_value(man, exp, nk, prec)
    mpf = libmp.from_man_exp(x, xe)
    assert mpf == sticky_quotient_mpf(man, exp, nk, prec)
    assert 0 < x <= 1 << prec
    # trailing zero bits change no digit
    want = libmp.to_str(mpf, 40)
    assert row_text((x << t, xe - t)) == want
    assert list(products.row_texts([(x, xe), (x << t, xe - t)])) == \
        [want, want]


def test_rotation_bound_within_100x_of_observed():
    # the reported bound against the largest deviation from the 320-bit
    # oracle, over 4 alphas and 3 normalizers at N = 2000
    N = 2000
    ratios = []
    for spec in ("sqrt2m1", "golden", "(1+1*sqrt(7))/5", "(2+1*sqrt(13))/9"):
        alpha = parse_alpha(spec)
        oracle = oracle_trace(alpha, N)
        for normalizer in products.NORMALIZERS:
            series = rotation_products(alpha, N, normalizer)
            worst = rows_within_bound(series, oracle.log_values,
                                      oracle.error_bound)
            ratios.append(series.log_error_bound / float(worst))
    assert max(ratios) <= 100


def test_rotation_exact_term_below_working_precision():
    # ||3 alpha|| is about 2^-136, below 2^-(wp-10): the exact term must
    # widen its floor past the first 2 wp bits to resolve it
    alpha = surd_from_cf([1, 2, 2 ** 134 + 2 ** 133], [1, 2])
    N = 80
    series = rotation_products(alpha, N, "none")
    assert 3 in series.exact_terms
    oracle = oracle_trace(alpha, N)
    rows_within_bound(series, oracle.log_values, oracle.error_bound)


def test_rotation_sine_evaluations_counted(monkeypatch):
    # one mpf_cos_sin_pi per anchor, w included, and one mpf_sin_pi per
    # exact term: ceil(N / ANCHOR_STEPS) plus the fallbacks
    calls = {"mpf_cos_sin_pi": 0, "mpf_sin_pi": 0}
    for name in calls:
        real = getattr(libmp, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)
        monkeypatch.setattr(libmp, name, counted)
    alpha = surd_from_cf([2, 3, 2 ** 70 + 3], [1, 4])
    N = 1000
    series = rotation_products(alpha, N, "one_over_N")
    assert len(list(series)) == N
    assert series.exact_terms and series.exact_terms[0] == 7
    assert calls["mpf_cos_sin_pi"] == -(-N // ANCHOR_STEPS)
    assert calls["mpf_sin_pi"] == len(series.exact_terms)
