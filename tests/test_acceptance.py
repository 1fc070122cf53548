"""End-to-end acceptance checks for the workbench.

Each test covers one numbered requirement at its stated tolerance and
runtime budget and prints a single PASS/FAIL line (run with -s to stream).
"""

import math
import random
import time
from fractions import Fraction

import numpy as np

from weylprod.bounds import (check_cesaro_log_bound,
                             check_kronecker_conjectures,
                             check_kronecker_sandwich, check_ostrowski_bound,
                             check_vdc_limits, hlawka_sequence_report)
from weylprod.discrepancy import (brute_force_star_discrepancy,
                                  star_discrepancy)
from weylprod.extremal import (ExtremalConfig, build_extremal,
                               extremal_product_closed_form,
                               sup_product_lower_bound, sup_search, sweep)
from weylprod.irrational import cf_expand
from weylprod.numerics import log_two_sin_pi
from weylprod.products import closed_form_shifted, product_trace
from weylprod.sequences import RationalArray, uniform_grid
from weylprod.stochastic import (PI2_OVER_12, SUBSEQ_CONSTANT,
                                 iid_lil_experiment, log_integral,
                                 rademacher_lil_experiment,
                                 subsequence_product_experiment,
                                 variance_integral)

EPS40 = Fraction(1, 1 << 40)


def _report(num, label, ok, elapsed, budget):
    status = "PASS" if ok else "FAIL"
    print(f"[{status}] criterion {num:2d}: {label} "
          f"({elapsed:.2f}s / budget {budget}s)")
    assert ok, f"criterion {num}: {label}"
    assert elapsed < budget, f"criterion {num} exceeded {budget}s"


def test_criterion_01_closed_forms():
    t0 = time.perf_counter()
    ok = True
    for N in range(2, 2049):
        tr = product_trace(uniform_grid(N - 1))  # the set {k/N, k < N}
        if abs(float(tr.log_values[-1]) - math.log(N)) \
                > 1e-10 * max(1.0, math.log(N)):
            ok = False
            break
    for N in (1, 2, 4, 8, 16, 32, 64, 128, 256, 512):
        for num in range(1, 7):
            x = Fraction(num, 7)
            direct = math.fsum(log_two_sin_pi((k + x) / N) for k in range(N))
            ref = closed_form_shifted(N, x)
            if abs(math.exp(direct) / ref - 1.0) > 1e-10:
                ok = False
    _report(1, "roots-of-unity and shifted sine products", ok,
            time.perf_counter() - t0, 5)


def test_criterion_02_convergents(sqrt2m1):
    t0 = time.perf_counter()
    table = cf_expand(sqrt2m1, 8)
    ok = table.q[:8] == (1, 2, 5, 12, 29, 70, 169, 408)
    _report(2, "sqrt(2)-1 best approximation denominators", ok,
            time.perf_counter() - t0, 5)


def test_criterion_03_grid_discrepancy():
    t0 = time.perf_counter()
    ok = all(star_discrepancy(uniform_grid(N)).d_star == Fraction(1, N + 1)
             for N in range(1, 10 ** 4 + 1))
    rnd = random.Random(1234)
    for _ in range(200):
        n = rnd.randint(1, 12)
        den = rnd.choice([8, 12, 16, 64, 101, 97])
        pts = [Fraction(rnd.randint(0, den), den) for _ in range(n)]
        formula = star_discrepancy(pts).d_star
        oracle = brute_force_star_discrepancy(pts, eps=EPS40)
        if not oracle <= formula <= oracle + EPS40:
            ok = False
    _report(3, "exact grid discrepancy + anchor oracle", ok,
            time.perf_counter() - t0, 30)


def test_criterion_04_kronecker_sandwich(sqrt2m1, golden):
    t0 = time.perf_counter()
    rep_a = check_kronecker_sandwich(sqrt2m1, q_max=10 ** 5)
    rep_g = check_kronecker_sandwich(golden, q_max=10 ** 5)
    ok = rep_a.passed and rep_g.passed \
        and not rep_a.inconclusive and not rep_g.inconclusive
    _report(4, "1 <= P_{q-1} <= q^2/2 at denominators up to 1e5", ok,
            time.perf_counter() - t0, 60)


def test_criterion_05_ostrowski_bound(sqrt2m1):
    t0 = time.perf_counter()
    rep = check_ostrowski_bound(sqrt2m1, 10 ** 4)
    ok = rep.passed and not rep.violations and not rep.inconclusive
    _report(5, "Ostrowski digit bound for every N <= 1e4", ok,
            time.perf_counter() - t0, 60)


def test_criterion_06_discrepancy_product_bound(sqrt2m1):
    t0 = time.perf_counter()
    rep_v = hlawka_sequence_report("vdc", 10 ** 4, N_min=16)
    rep_k = hlawka_sequence_report("kronecker", 10 ** 4, N_min=16,
                                   alpha=sqrt2m1)
    ok = rep_v.passed and rep_k.passed \
        and not rep_v.violations and not rep_k.violations
    _report(6, "(N/Delta)^(2 Delta) bound on vdC and Kronecker prefixes", ok,
            time.perf_counter() - t0, 60)


def test_criterion_07_extremal():
    t0 = time.perf_counter()
    ok = True
    # the closed form per (N, M) from the sweep's running sums, which equal
    # extremal_product_closed_form row by row (tests/test_extremal.py)
    rows = sweep(range(8, 1026, 2), lambda N: N // 8, 0.1)
    closed = {(N, M): lp for N, M, d, lp, *_ in rows}
    # closed form vs the actual product of the built point set
    for N in range(8, 1026, 2):
        for M in range(1, N // 8 + 1):
            cfg = ExtremalConfig(N, M)
            tr = product_trace(build_extremal(cfg))
            if abs(closed[N, M] - float(tr.log_values[-1])) > 1e-9:
                ok = False
    # lower bound never exceeds the product on the sweep from N = 64
    for N in range(64, 1026, 2):
        for M in range(1, N // 8 + 1):
            lo = sup_product_lower_bound(N, M / N)
            if lo > closed[N, M] + 1e-9:
                ok = False
    # moving any single off-center point toward 1/2 raises the discrepancy
    rnd = random.Random(77)
    for _ in range(100):
        N = 2 * rnd.randint(2, 128)
        M = rnd.randint(1, N // 4)
        cfg = ExtremalConfig(N, M)
        nums4 = build_extremal(cfg).points.numerators * 4
        half = 2 * N
        for i, v in enumerate(nums4):
            if v == half:
                continue
            bumped = nums4.copy()
            bumped[i] += 1 if v < half else -1
            if star_discrepancy(RationalArray(bumped, 4 * N)).d_star <= cfg.d:
                ok = False
    # random sup search at desk scale finds no better configuration
    for N, M in ((8, 1), (8, 2), (10, 1), (10, 2), (12, 1), (12, 2)):
        cfg = ExtremalConfig(N, M)
        if sup_search(cfg, 10 ** 5, seed=2024) \
                > extremal_product_closed_form(cfg) + 1e-9:
            ok = False
    _report(7, "extremal set: closed form, lower bound, extremality", ok,
            time.perf_counter() - t0, 120)


def test_criterion_08_vdc_limits():
    t0 = time.perf_counter()
    rep = check_vdc_limits(20)
    peaks = rep.empirical_constants["peak_over_n2"]
    mins = rep.empirical_constants["octave_min"]
    ok = rep.passed and not rep.violations
    ok = ok and abs(peaks[18] * 2 * math.pi - 1.0) < 1e-4
    ok = ok and abs(mins[20] / math.pi - 1.0) < 1e-5
    _report(8, "van der Corput octave structure up to s = 20", ok,
            time.perf_counter() - t0, 120)


def test_criterion_09_figure_series(sqrt2m1):
    t0 = time.perf_counter()
    rep = check_kronecker_conjectures(sqrt2m1, 500)
    rows = rep.empirical_constants["argmax_per_interval"]
    ok = all(r["match"] for r in rows)
    ok = ok and [r["found"] for r in rows if r["l"] >= 1] == \
        [4, 11, 28, 69, 168, 407]
    # the normalized series stays below its own running max: reported only
    peak = rep.empirical_constants["normalized_running_max"][-1]
    print(f"    (evidence: running max of P_(q-1)/q = "
          f"{peak['running_max_P_over_q']:.4f})")
    _report(9, "figure series argmax positions at q_(l+1)-1", ok,
            time.perf_counter() - t0, 10)


def test_criterion_10_variance_integral():
    t0 = time.perf_counter()
    var = variance_integral()
    logi = log_integral()
    ok = abs(var.value - PI2_OVER_12) < 1e-9 and abs(logi.value) < 1e-10
    _report(10, "log^2 integral = pi^2/12 and log integral = 0", ok,
            time.perf_counter() - t0, 1)


def test_criterion_11_stochastic(sqrt2m1):
    t0 = time.perf_counter()
    iid = iid_lil_experiment(50, 10 ** 5, seed=2718)
    ok = iid.details["n_samples"] >= 10 ** 6
    ok = ok and abs(iid.empirical_variance / PI2_OVER_12 - 1.0) < 0.01
    med_iid = float(np.median(iid.lil_ratios))
    ok = ok and 0.4 <= med_iid <= 1.6

    rad = rademacher_lil_experiment(sqrt2m1, 10, 10 ** 5, seed=31415)
    ok = ok and abs(rad.details["B_over_N"] / PI2_OVER_12 - 1.0) < 0.02

    sub = subsequence_product_experiment(sqrt2m1, 50, 5 * 10 ** 4, seed=1618)
    ok = ok and sub.details["selection_identity_max_abs_diff"] < 1e-8
    med_sub = float(np.median(sub.lil_ratios))
    ok = ok and 0.4 * SUBSEQ_CONSTANT <= med_sub <= 1.6 * SUBSEQ_CONSTANT
    print(f"    (medians: iid {med_iid:.3f} vs 1.0, subsequence "
          f"{med_sub:.3f} vs {SUBSEQ_CONSTANT:.3f})")
    _report(11, "variance, selection identity, LIL sanity bands", ok,
            time.perf_counter() - t0, 180)


def test_criterion_cesaro_supplement(sqrt2m1):
    # not numbered separately: the Cesaro bound rides along with 5/9
    rep = check_cesaro_log_bound(sqrt2m1, 10 ** 4)
    assert rep.passed and rep.empirical_constants["limsup_proxy"] < 0.1
