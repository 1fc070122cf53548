import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st
from mpmath import libmp

from weylprod import products
from weylprod.numerics import log_two_sin_pi, log_two_sin_pi_mp
from weylprod.irrational import (FracPartEvaluator, parse_alpha,
                                 surd_from_cf)
from weylprod.products import (ANCHOR_STEPS, ProductTrace,
                               closed_form_roots_of_unity,
                               closed_form_shifted, normalized_trace,
                               normalizer_power, product_trace,
                               rotation_products, row_value,
                               write_product_csv)
from weylprod.sequences import (PointSet, kronecker, uniform_grid,
                                van_der_corput)
from weylprod.stochastic import log_integral


def test_single_half_point():
    tr = product_trace([Fraction(1, 2)])
    assert float(tr.log_values[-1]) == pytest.approx(math.log(2.0), abs=1e-15)


def test_roots_of_unity_identity():
    # prod_{k<N} 2 sin(pi k/N) == N; uniform_grid(N-1) is exactly that set
    for N in (2, 3, 5, 17, 256, 2048):
        tr = product_trace(uniform_grid(N - 1))
        assert closed_form_roots_of_unity(N) == N
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


def test_kronecker_trace_vs_quadruple_precision(sqrt2m1):
    ps = kronecker(sqrt2m1, 500)
    tr = product_trace(ps)
    # independent recomputation at 4x the working precision
    prec = ps.params["precision_bits"]
    with mpmath.mp.workprec(4 * prec):
        a = mpmath.sqrt(2) - 1
        run = mpmath.mpf(0)
        for k in range(1, 501):
            run += mpmath.log(2 * mpmath.sinpi((k * a) % 1))
            assert abs(tr.log_values[k - 1] - run) < tr.error_bound


def test_permutation_invariance(sqrt2m1):
    ps = kronecker(sqrt2m1, 300)
    tr = product_trace(ps)
    pts = list(ps.points)
    rnd = random.Random(1)
    for _ in range(5):
        rnd.shuffle(pts)
        shuffled = PointSet(pts, "kronecker", dict(ps.params),
                            point_error=ps.point_error)
        tr2 = product_trace(shuffled)
        assert abs(float(tr.log_values[-1]) - float(tr2.log_values[-1])) \
            <= float(tr.error_bound + tr2.error_bound) + 1e-25


def test_error_bound_accumulates_linearly(sqrt2m1):
    ps = kronecker(sqrt2m1, 400)
    t_half = product_trace(PointSet(list(ps.points)[:200], "kronecker",
                                    dict(ps.params), ps.point_error))
    t_full = product_trace(ps)
    assert t_full.error_bound < 4 * t_half.error_bound


def test_zero_point_sentinel():
    ps = PointSet([Fraction(1, 2), Fraction(0), Fraction(1, 4)], "extremal")
    tr = product_trace(ps)
    assert tr.has_zero
    vals = tr.as_float_array()
    assert vals[0] == pytest.approx(math.log(2.0))
    assert vals[1] == -math.inf and vals[2] == -math.inf
    norm = normalized_trace(tr, "none")
    assert norm[1] == 0.0


def test_normalized_trace_identity_and_overflow():
    tr = ProductTrace(np.array([1.0, 800.0]), 0.0, 2)
    assert normalized_trace(tr, "none") == [pytest.approx(math.e), math.inf]
    with pytest.raises(ValueError):
        normalized_trace(tr, "bogus")


def test_normalized_trace_vdc_limit():
    # P_n / n^2 at n = 2^(s+1) - 2 approaches 1/(2 pi); s = 12 is already
    # within ~1e-3 relative (the closed form converges like 2^-s)
    s = 12
    n1 = 2 ** (s + 1) - 2
    ps = van_der_corput(n1)
    vals = normalized_trace(ps, "one_over_N_squared")
    assert vals[-1] == pytest.approx(1.0 / (2 * math.pi), rel=2e-3)


def test_normalized_kronecker_bounded(sqrt2m1):
    vals = normalized_trace(kronecker(sqrt2m1, 500), "one_over_N")
    assert 0 < max(vals) < 5.0


def test_log_sin_integral_vanishes():
    # the normalization constant of 2 sin(pi x) is exp(-integral) = 1
    res = log_integral()
    assert abs(res.value) < 1e-12


def test_mp_log_term_matches_float():
    for x in (0.1, 0.5, 0.9, 1e-8):
        a = log_two_sin_pi(x)
        b = float(log_two_sin_pi_mp(mpmath.mpf(x), 120))
        assert a == pytest.approx(b, rel=1e-13)


def test_float_trace_charges_point_error():
    # a scalar point error adds 1.6 e / min(x, 1 - x) per point to the
    # terms' rounding allowance
    pts = [0.1, 0.5, 0.75, 1e-6]
    bare = product_trace(PointSet(pts, "iid-uniform")).error_bound
    tr = product_trace(PointSet(pts, "iid-uniform", point_error=1e-12))
    m = np.minimum(pts, np.subtract(1.0, pts))
    assert tr.error_bound - bare == pytest.approx(
        float(np.sum(1.6e-12 / m)), rel=1e-12)


def test_product_csv(tmp_path):
    tr = product_trace(uniform_grid(9))
    path = tmp_path / "prod.csv"
    write_product_csv(tr, path, normalizer="one_over_N")
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "# normalizer=one_over_N"
    assert lines[1] == "N,logP,P_over_norm"
    last = lines[-1].split(",")
    assert int(last[0]) == 9
    assert float(last[2]) == pytest.approx(10.0 / 9.0, rel=1e-12)


# ------------------------------------------------------ rotation kernel

ORACLE_BITS = 320


def oracle_trace(alpha, N):
    """log P_n, n <= N, from the log-space mpf trace (`_trace_mpf`) over the
    evaluator's 320-bit points."""
    ev = FracPartEvaluator(alpha, n_max=N, precision_bits=ORACLE_BITS)
    return product_trace(kronecker(alpha, N, evaluator=ev))


def rows_within_bound(series, oracle_logs, oracle_err, ns=None):
    """Checks |log row_n + k log n - log P_n| <= the reported bound plus the
    oracle's for every row (or the rows in `ns`); returns the largest gap."""
    k, bound = series.power, series.log_error_bound
    worst = 0
    with mpmath.mp.workprec(ORACLE_BITS):
        for n, row in enumerate(series, 1):
            if ns is not None and n not in ns:
                continue
            got = mpmath.log(mpmath.mp.make_mpf(row)) + k * mpmath.log(n)
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
    assert all(row[3] <= 96 for row in rows)
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
    assert [row[3] <= 1100 for row in series] == [True] * 3


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
    assert row[3] <= prec
    exact = mpmath.mp.make_mpf(libmp.from_man_exp(man, exp))
    want = mpmath.fdiv(exact, n ** k, prec=prec, rounding="n")
    assert row == want._mpf_
    assert libmp.to_str(row, 40) == mpmath.nstr(want, 40)


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
