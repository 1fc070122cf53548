import json
import math

import numpy as np
import pytest

from weylprod.stochastic import (PI2_OVER_12, SUBSEQ_CONSTANT,
                                 iid_lil_experiment, kronecker_log_weights,
                                 log_integral, rademacher_lil_experiment,
                                 subsequence_product_experiment, summary_dict,
                                 variance_integral, write_paths_csv,
                                 write_summary_json)


# -------------------------------------------------------------- quadrature

def test_variance_integral_value():
    res = variance_integral()
    assert abs(res.value - PI2_OVER_12) < 1e-9
    assert res.error_estimate < 1e-10


def test_log_integral_vanishes():
    res = log_integral()
    assert abs(res.value) < 1e-10
    assert res.error_estimate < 1e-10


def test_integrals_against_tanh_sinh_oracle():
    import mpmath
    with mpmath.mp.workprec(120):
        ref = mpmath.quad(lambda x: mpmath.log(2 * mpmath.sinpi(x)) ** 2,
                          [0, mpmath.mpf(1) / 2, 1])
    assert variance_integral().value == pytest.approx(float(ref), abs=1e-12)


def test_half_interval_symmetry():
    # the integrand is symmetric about 1/2; doubling the half-interval
    # result (which is how the implementation works) matches a quadrature
    # over a shifted split point, so the value is split-invariant
    a = variance_integral(split=1e-3).value
    b = variance_integral(split=5e-4).value
    assert a == pytest.approx(b, abs=1e-11)


# --------------------------------------------------------------------- iid

def test_iid_reproducible():
    a = iid_lil_experiment(5, 2000, seed=1)
    b = iid_lil_experiment(5, 2000, seed=1)
    assert a.lil_ratios == b.lil_ratios
    assert a.rows == b.rows
    assert a.empirical_variance == b.empirical_variance


def test_iid_moments():
    stats = iid_lil_experiment(20, 50000, seed=3)
    total = 20 * 50000
    assert abs(stats.empirical_variance - PI2_OVER_12) < 0.01 * PI2_OVER_12
    assert abs(stats.empirical_mean) < 3 * math.sqrt(PI2_OVER_12 / total)


def test_iid_ratio_band():
    stats = iid_lil_experiment(50, 20000, seed=5)
    med = float(np.median(stats.lil_ratios))
    assert 0.4 <= med <= 1.6
    assert all(math.isfinite(r) for r in stats.lil_ratios)


def test_iid_preconditions():
    with pytest.raises(ValueError):
        iid_lil_experiment(0, 2000, seed=1)
    with pytest.raises(ValueError):
        iid_lil_experiment(5, 999, seed=1)


# --------------------------------------------------------------- rademacher

def test_rademacher_variance_convergence(sqrt2m1):
    stats = rademacher_lil_experiment(sqrt2m1, 2, 10 ** 5, seed=2)
    assert abs(stats.details["B_over_N"] - PI2_OVER_12) < 0.02 * PI2_OVER_12


def test_rademacher_weight_bound(sqrt2m1):
    stats = rademacher_lil_experiment(sqrt2m1, 2, 10 ** 5, seed=2)
    # |w_n| <= c1 log n held with a modest constant, and ||n alpha|| >= c0/n
    assert 0 < stats.details["c1_hat"] < 5.0
    assert stats.details["c0_hat"] > 0.1


def test_rademacher_lil_condition_decreasing(sqrt2m1):
    stats = rademacher_lil_experiment(sqrt2m1, 2, 10 ** 5, seed=2)
    cond = stats.details["mn_condition_ratio"]
    ns = sorted(n for n in cond if n >= 1000)
    vals = [cond[n] for n in ns]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_rademacher_all_plus_hook(sqrt2m1):
    # forcing every sign to +1 collapses the path onto the deterministic
    # weight sum, which stays within the log^2 N shape
    stats = rademacher_lil_experiment(sqrt2m1, 1, 20000, seed=0,
                                      signs=np.ones(20000))
    w = kronecker_log_weights(sqrt2m1, 20000)
    S = np.cumsum(w)
    pid, n, s_n, b_n, r = stats.rows[0]
    assert s_n == pytest.approx(float(S[n - 1]))
    assert stats.details["deterministic_sum_over_log2"] < 2.0


def test_rademacher_ratio_band(sqrt2m1):
    stats = rademacher_lil_experiment(sqrt2m1, 50, 20000, seed=8)
    med = float(np.median(stats.lil_ratios))
    assert 0.4 <= med <= 1.6


# -------------------------------------------------------------- subsequence

def test_subsequence_identity_and_counts(sqrt2m1):
    stats = subsequence_product_experiment(sqrt2m1, 10, 5000, seed=4)
    assert stats.details["selection_identity_max_abs_diff"] < 1e-8
    for n_last, kept in stats.details["selection_counts"]:
        assert abs(kept - n_last / 2) <= 3 * math.sqrt(n_last)


def test_subsequence_ratio_band(sqrt2m1):
    stats = subsequence_product_experiment(sqrt2m1, 50, 20000, seed=6)
    med = float(np.median(stats.lil_ratios))
    assert 0.4 * SUBSEQ_CONSTANT <= med <= 1.6 * SUBSEQ_CONSTANT


def test_subsequence_reproducible(sqrt2m1):
    a = subsequence_product_experiment(sqrt2m1, 4, 2000, seed=9)
    b = subsequence_product_experiment(sqrt2m1, 4, 2000, seed=9)
    assert a.lil_ratios == b.lil_ratios and a.rows == b.rows


def test_subsequence_all_heads_coin(sqrt2m1):
    heads = lambda rng, size: np.ones(size, dtype=bool)
    stats = subsequence_product_experiment(sqrt2m1, 2, 1000, seed=0,
                                           coin=heads)
    # every index selected: the selected sum is the full deterministic sum
    w = kronecker_log_weights(sqrt2m1, 1000)
    pid, n, s_n, b_n, r = stats.rows[0]
    assert s_n == pytest.approx(float(np.cumsum(w)[n - 1]))
    assert stats.details["selection_identity_max_abs_diff"] < 1e-10


def test_subsequence_tails_coin_stops(sqrt2m1):
    tails = lambda rng, size: np.zeros(size, dtype=bool)
    with pytest.raises(ValueError, match="heads"):
        subsequence_product_experiment(sqrt2m1, 2, 1000, seed=0, coin=tails)


# ------------------------------------------------------------------ output

def test_csv_json_round_trip(tmp_path, sqrt2m1):
    stats = iid_lil_experiment(8, 2000, seed=11)
    csv_path = tmp_path / "paths.csv"
    json_path = tmp_path / "summary.json"
    write_paths_csv(stats, csv_path)
    write_summary_json(stats, json_path)
    # recompute the summary statistics from the CSV alone
    lines = csv_path.read_text().strip().splitlines()[1:]
    ratios = [float(line.split(",")[4]) for line in lines]
    summary = json.loads(json_path.read_text())
    assert summary["ratio_mean"] == float(np.mean(np.array(ratios)))
    assert summary["ratio_variance"] == float(np.var(np.array(ratios)))
    med = float(np.quantile(np.array(ratios), 0.5))
    assert summary["ratio_quantiles"]["q50"] == med
    assert summary_dict(stats) == summary
