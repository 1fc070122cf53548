import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from weylprod.numerics import log_two_sin_pi, log_two_sin_pi_mp
from weylprod.irrational import FracPartEvaluator
from weylprod.products import (ProductTrace, closed_form_roots_of_unity,
                               closed_form_shifted, normalized_trace,
                               normalizer_power, prefix_products,
                               product_trace, write_product_csv)
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


def test_prefix_products_on_evaluator_points(golden):
    # the evaluator's points carry the looser 2^(2 - bits) point error; the
    # bound must cover the log-space oracle at 320 bits all the same
    N = 400
    ps = kronecker(golden, N, evaluator=FracPartEvaluator(
        golden, n_max=N, precision_bits=96))
    oracle = product_trace(kronecker(golden, N, evaluator=FracPartEvaluator(
        golden, n_max=N, precision_bits=320)))
    rows, bound = prefix_products(ps, "one_over_N_squared")
    assert len(rows) == N and 0 < bound < 1e-20
    with mpmath.mp.workprec(320):
        for n, v in enumerate(rows, 1):
            assert v._mpf_[3] <= 96
            got = mpmath.log(v) + 2 * mpmath.log(n)
            assert abs(got - oracle.log_values[n - 1]) \
                <= bound + oracle.error_bound, n


def test_prefix_products_rounding_bound_on_exact_points():
    # exact dyadic points carry no point error, so only the product's and
    # the rows' roundings separate the rows from the 320-bit oracle
    rnd = random.Random(5)
    pts = [mpmath.mpf(rnd.randrange(1, 2 ** 60)) / 2 ** 60 for _ in range(300)]
    ps = PointSet(pts, "iid-uniform", {"precision_bits": 68})
    rows, bound = prefix_products(ps, "one_over_N")
    assert bound == pytest.approx(300 * 2.0 ** -74 + 2.0 ** -67)
    oracle = product_trace(ps, precision_bits=320)
    with mpmath.mp.workprec(320):
        gaps = [abs(mpmath.log(v) + mpmath.log(n) - oracle.log_values[n - 1])
                for n, v in enumerate(rows, 1)]
    assert max(gaps) <= bound + oracle.error_bound
    assert max(gaps) > 2.0 ** -72


def test_prefix_products_rejects_endpoints_and_normalizers(sqrt2m1):
    ps = PointSet([mpmath.mpf("0.5"), mpmath.mpf(0)], "extremal",
                  {"precision_bits": 80})
    with pytest.raises(ValueError, match="endpoint"):
        prefix_products(ps)
    with pytest.raises(ValueError, match="normalizer"):
        prefix_products(kronecker(sqrt2m1, 3), "bogus")
    assert [normalizer_power(k) for k in
            ("none", "one_over_N", "one_over_N_squared")] == [0, 1, 2]
