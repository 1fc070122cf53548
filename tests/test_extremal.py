import math
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import sweep_by_partials, sweep_csv_by_repr

from weylprod import extremal
from weylprod.discrepancy import star_discrepancy
from weylprod.extremal import (ExtremalConfig, build_extremal,
                               direct_log_product,
                               extremal_product_closed_form, growth_factor,
                               log_c_epsilon, sup_product_lower_bound,
                               sup_product_upper_bound, sup_search, sweep,
                               threshold_B)
from weylprod.products import product_trace


def test_smallest_instance():
    ps = build_extremal(ExtremalConfig(4, 1))
    assert sorted(ps.points) == [Fraction(1, 4), Fraction(1, 2),
                                 Fraction(1, 2), Fraction(3, 4)]


def test_n8_m2_instance():
    ps = build_extremal(ExtremalConfig(8, 2))
    assert sorted(ps.points) == [Fraction(1, 4), Fraction(3, 8),
                                 Fraction(1, 2)] + [Fraction(1, 2)] * 3 + \
        [Fraction(5, 8), Fraction(3, 4)]
    assert star_discrepancy(ps).d_star == Fraction(1, 4)


def test_degenerate_m_half():
    ps = build_extremal(ExtremalConfig(6, 3))
    assert list(ps.points) == [Fraction(1, 2)] * 6
    assert star_discrepancy(ps).d_star == Fraction(1, 2)


def test_invalid_configs():
    for N, M in ((5, 1), (4, 0), (4, 3), (0, 0)):
        with pytest.raises(ValueError):
            ExtremalConfig(N, M)


def test_discrepancy_is_m_over_n():
    for N in range(4, 258, 2):
        for M in {1, 2, N // 4, N // 2}:
            if M < 1:
                continue
            cfg = ExtremalConfig(N, M)
            assert star_discrepancy(build_extremal(cfg)).d_star == cfg.d


def test_closed_form_m1():
    for N in (2, 10, 100):
        assert extremal_product_closed_form(ExtremalConfig(N, 1)) == \
            pytest.approx(math.log(2 * N), rel=1e-14)


def test_closed_form_vs_direct_product():
    rnd = random.Random(2)
    for _ in range(60):
        N = 2 * rnd.randint(2, 512)
        M = rnd.randint(1, N // 2)
        cfg = ExtremalConfig(N, M)
        cf = extremal_product_closed_form(cfg)
        assert abs(cf - direct_log_product(cfg)) < 1e-9
    # and through the real point-set pipeline on a few configs
    for N, M in ((64, 4), (256, 32), (1024, 128), (100, 5)):
        cfg = ExtremalConfig(N, M)
        tr = product_trace(build_extremal(cfg))
        assert abs(extremal_product_closed_form(cfg)
                   - float(tr.log_values[-1])) < 1e-9


def test_lower_bound_below_closed_form():
    for N in range(64, 1026, 2):
        for M in range(2, N // 8 + 1):
            lo = sup_product_lower_bound(N, M / N)
            cf = extremal_product_closed_form(ExtremalConfig(N, M))
            assert lo <= cf + 1e-9, (N, M)


def test_lower_bound_orders_of_magnitude():
    # at d = 1/(N+1) the bound scales like N: log-bound minus log N stays
    # bounded as N grows
    vals = [sup_product_lower_bound(N, 1.0 / (N + 1)) - math.log(N)
            for N in (100, 1000, 10000, 100000)]
    assert max(vals) - min(vals) < 1.0
    with pytest.raises(ValueError):
        sup_product_lower_bound(100, 1.0 / 300)
    # non-integral N*d evaluates fine
    assert math.isfinite(sup_product_lower_bound(10, 0.05 + 1e-3))


def test_sandwich_at_n100_m5():
    cfg = ExtremalConfig(100, 5)
    cf = extremal_product_closed_form(cfg)
    assert sup_product_lower_bound(100, 0.05) <= cf
    assert cf <= sup_product_upper_bound(100, 0.05, 0.1)


def test_threshold_and_c_epsilon():
    assert growth_factor(2) == pytest.approx(2.0)
    B = threshold_B(0.1)
    target = 1.0 + math.pi / (2 * math.e) * 0.1
    assert growth_factor(B) >= target > growth_factor(B + 1)
    assert math.isfinite(log_c_epsilon(0.1))
    with pytest.raises(ValueError):
        threshold_B(0.0)
    with pytest.raises(ValueError):
        sup_product_upper_bound(100, 0.05, -1.0)


def threshold_B_scan(epsilon, cap=10 ** 7):
    """The linear scan threshold_B replaced: the first M >= 2 with
    growth_factor(M) below the target, minus one."""
    target = 1.0 + math.pi / (2.0 * math.e) * epsilon
    for M in range(2, cap + 1):
        if growth_factor(M) < target:
            return M - 1
    raise ValueError(f"epsilon = {epsilon} too small: threshold beyond {cap}")


def log_c_epsilon_loop(epsilon):
    """The max over every M <= B(eps) that log_c_epsilon replaced."""
    best = math.log(2.0 * math.pi ** 2) - 2.0
    for M in range(2, threshold_B_scan(epsilon) + 1):
        v = (math.log(2.0 * math.pi ** 2) - 2.0 + 2.0 * M * (M - 1)
             + 2.0 * math.log(M - 1) + 2.0 * M * math.log(M / (M - 1)))
        best = max(best, v)
    return best


# B(eps) runs from 40155 down to 1: 1.5 gives B = 3, 1.6 gives B = 2
THRESHOLD_EPSILONS = (0.0005, 0.001, 0.003, 0.01, 0.02, 0.05, 0.1, 0.25,
                      0.5, 0.9, 1.0, 1.5, 1.6, 2.0, 10.0, 1e6)


@pytest.mark.parametrize("eps", THRESHOLD_EPSILONS)
def test_threshold_and_c_epsilon_match_loops(eps):
    B = threshold_B(eps)
    assert B == threshold_B_scan(eps)
    assert log_c_epsilon(eps) == log_c_epsilon_loop(eps)
    if eps >= 2.0:
        assert B == 1 and log_c_epsilon(eps) == math.log(2 * math.pi ** 2) - 2


def test_threshold_bisection_at_every_cap(monkeypatch):
    # every cap from 2 up to past B(0.1) = 99: the bisection returns the
    # scan's B, or raises where the scan does
    for cap in range(1, 120):
        monkeypatch.setattr(extremal, "THRESHOLD_CAP", cap)
        try:
            want = threshold_B_scan(0.1, cap)
        except ValueError:
            with pytest.raises(ValueError, match="too small"):
                threshold_B(0.1)
        else:
            assert threshold_B(0.1) == want


def test_threshold_too_small_epsilon_raises(monkeypatch):
    # beyond the cap of 10^7: raised without a scan
    with pytest.raises(ValueError, match="too small"):
        threshold_B(1e-9)
    with pytest.raises(ValueError, match="too small"):
        log_c_epsilon(1e-9)
    monkeypatch.setattr(extremal, "THRESHOLD_CAP", 1000)
    with pytest.raises(ValueError, match="too small"):
        threshold_B_scan(0.01, cap=1000)
    with pytest.raises(ValueError, match="too small"):
        threshold_B(0.01)


def test_upper_bound_epsilon_growth_term():
    # the dominant factor ((e/pi + eps)/d)^(2Nd) is monotone in eps, and at
    # large eps it carries essentially the whole bound (c(eps) collapses)
    def lead(eps):
        return 2 * 200 * 0.05 * math.log((math.e / math.pi + eps) / 0.05)

    assert lead(0.1) < lead(1.0) < lead(10.0)
    v10 = sup_product_upper_bound(200, 0.05, 10.0)
    assert v10 == pytest.approx(lead(10.0) + log_c_epsilon(10.0)
                                - math.log(200))
    assert abs(v10 - lead(10.0)) < 0.05 * lead(10.0)


def test_upper_bound_covers_sweep():
    for N in range(64, 1026, 2):
        for M in range(1, N // 8 + 1):
            cf = extremal_product_closed_form(ExtremalConfig(N, M))
            hi = sup_product_upper_bound(N, M / N, 0.1)
            assert cf <= hi + 1e-9, (N, M)


def test_perturbation_increases_discrepancy():
    rnd = random.Random(3)
    for _ in range(30):
        N = 2 * rnd.randint(2, 128)
        M = rnd.randint(1, N // 4)
        cfg = ExtremalConfig(N, M)
        ps = build_extremal(cfg)
        half = Fraction(1, 2)
        step = Fraction(1, 4 * N)
        for i, x in enumerate(ps.points):
            if x == half:
                continue
            pts = list(ps.points)
            pts[i] = x + step if x < half else x - step
            assert star_discrepancy(pts).d_star > cfg.d, (N, M, i)


def test_sup_search_no_counterexample():
    for N, M in ((8, 1), (10, 2), (12, 1), (12, 2)):
        cfg = ExtremalConfig(N, M)
        best = sup_search(cfg, 20000, seed=11)
        assert best <= extremal_product_closed_form(cfg) + 1e-9


def test_sweep_rows_and_csv():
    rows = sweep(range(8, 65, 2), lambda N: max(1, N // 8), 0.1)
    assert all(r[6] and r[7] for r in rows)  # both bounds hold on this range
    lines = (rows.CSV_HEADER + rows.csv_text()).splitlines()
    assert lines[0] == "N,M,d,logP,logLower,logUpper,holds_lower,holds_upper"
    assert lines[1:] == [",".join([str(N), str(M), repr(d), repr(lp),
                                   repr(lo), repr(hi), str(hl).lower(),
                                   str(hu).lower()])
                         for N, M, d, lp, lo, hi, hl, hu in rows]


@pytest.mark.parametrize("epsilon", [0.1, 0.37])
def test_sweep_matches_per_row_formulas(epsilon):
    # the sweep's running sums and shared upper-bound helper must give the
    # per-row functions' floats exactly, at every M up to N/2
    rows = sweep(range(8, 257, 2), lambda N: N // 2, epsilon)
    assert len(rows) == sum(N // 2 for N in range(8, 257, 2))
    for N, M, d, lp, lo, hi, hl, hu in rows:
        assert lp == extremal_product_closed_form(ExtremalConfig(N, M)), (N, M)
        assert lo == sup_product_lower_bound(N, d)
        assert hi == sup_product_upper_bound(N, d, epsilon), (N, M)
        assert (hl, hu) == (lo <= lp + 1e-9, lp <= hi + 1e-9)


def test_sweep_equals_exact_partials():
    # the integer prefix sums give the partials oracle's rows exactly, at
    # the M <= N/8 of `verify extremal`, for every third even N up to 4096
    N_values = range(8, 4097, 6)
    rows = sweep(N_values, lambda N: N // 8, 0.08)
    assert list(rows) == sweep_by_partials(N_values, lambda N: N // 8, 0.08)


def test_sweep_equals_exact_partials_up_to_half():
    # at M up to N/2 the last terms log sin(pi k/N) come within about
    # 5/N^2 of 0, so the integer sums are in units of 2^-s with s past 53
    # (s = 78 at N = 2^14); sampled N up to 2^14, and both ends of the
    # range of M
    rnd = random.Random(19)
    N_values = [8, 10, 2 ** 14] + sorted(2 * rnd.randrange(5, 2 ** 13)
                                         for _ in range(6))
    rows = sweep(N_values, lambda N: N // 2, 0.1)
    assert list(rows) == sweep_by_partials(N_values, lambda N: N // 2, 0.1)
    last = math.log(math.sin(math.pi * (2 ** 13 - 1) / 2 ** 14))
    assert 53 - math.frexp(last)[1] > 53


# M_limit cases: every N in one row, the CLI's N // 8 (no rows below N = 8),
# all of M <= N/2, and no rows for N divisible by 6
M_LIMITS = {
    "one": lambda N: 1,
    "eighth": lambda N: N // 8,
    "half": lambda N: N // 2,
    "skip": lambda N: 0 if N % 6 == 0 else N // 4,
}


@settings(max_examples=60)
@given(st.lists(st.integers(1, 700).map(lambda h: 2 * h), max_size=10),
       st.sampled_from(sorted(M_LIMITS)),
       st.sampled_from([0.01, 0.1, 0.37, 3.0]))
@example([], "half", 0.1)
@example([8], "one", 0.1)
@example([6, 12, 6, 18], "skip", 0.1)
@example([200, 8, 200, 2, 64], "eighth", 0.37)
def test_sweep_columns_equal_exact_partials(N_values, limit, epsilon):
    # the column sweep's segment bookkeeping over unsorted and repeated N,
    # N without rows, one-row N and no N at all, against the per-row oracle
    rows = sweep(N_values, M_LIMITS[limit], epsilon)
    expected = sweep_by_partials(N_values, M_LIMITS[limit], epsilon)
    assert len(rows) == len(expected)
    assert list(rows) == expected
    assert rows.csv_text().splitlines() == sweep_csv_by_repr(expected)


def test_sweep_rejects_invalid_m():
    with pytest.raises(ValueError):
        sweep([8], lambda N: N // 2 + 1, 0.1)
    with pytest.raises(ValueError):
        sweep([9], lambda N: 1, 0.1)
