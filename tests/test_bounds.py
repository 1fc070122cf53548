import json
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import oracles
from weylprod import bounds
from weylprod.bounds import (BASE_TOL, BoundReport, cesaro_bound_value,
                             check_cesaro_log_bound, check_hlawka,
                             check_kronecker_conjectures,
                             check_kronecker_sandwich, check_ostrowski_bound,
                             check_type_growth, check_vdc_limits,
                             grid_hlawka_report, hlawka_sequence_report,
                             kronecker_log_trace)
from weylprod import discrepancy
from weylprod.discrepancy import (discrepancy_trace, kronecker_discrepancy,
                                  star_discrepancy)
from weylprod.irrational import (FracPartEvaluator, cf_expand,
                                 cf_expand_until, kronecker_fixed_point,
                                 ostrowski, parse_alpha, surd_from_cf)
from weylprod.numerics import LOG2, SUM_CHUNK
from weylprod.products import ProductTrace, product_trace
from weylprod.sequences import PointSet, RationalArray, van_der_corput


# Per-N reference loops: the checkers evaluate the same formulas on whole
# arrays and must give the same reports.

def hlawka_oracle(logs, deltas, err, N_min, eps):
    """The Hlawka rows and gamma_hat at the given Delta_N. An inexact Delta
    (`eps` not None) is within h = N (eps + 2^-53) of Delta_N, and the
    tolerance takes what moving Delta by h can do to the right-hand side."""
    violations, inconclusive, gamma_hat = [], [], 0.0
    for N in range(N_min, len(logs) + 1):
        delta = float(deltas[N - 1])
        lhs = float(logs[N - 1])
        rhs = 2.0 * delta * (math.log(N) - math.log(delta))
        tol = err + BASE_TOL
        if eps is not None:
            h = N * (eps + 2.0 ** -53)
            slope = 2.0 * (abs(math.log(N / delta)) + 1.0)
            tol += slope * h + h * h / (delta - h)
        if N > 1:
            gamma_hat = max(gamma_hat, rhs / math.log(N) ** 2)
        if lhs > rhs + tol:
            violations.append((N, lhs, rhs))
        elif lhs > rhs:
            inconclusive.append((N, lhs, rhs))
    return violations, inconclusive, gamma_hat


def ostrowski_rhs_oracle(alpha, N_max):
    table = cf_expand_until(alpha, N_max)
    logq_cum = []
    acc = 0.0
    for q in table.q:
        acc += math.log(q)
        logq_cum.append(3.0 * acc)
    rhs = []
    for N in range(1, N_max + 1):
        dig = ostrowski(N, table)
        rhs.append(sum(dig.digits) * LOG2 + logq_cum[dig.level])
    return rhs


def cesaro_rhs_oracle(alpha, N_max):
    table = cf_expand_until(alpha, N_max)
    return [cesaro_bound_value(table, table.level_of(N))
            for N in range(1, N_max + 1)]


def rows_oracle(lhs, rhs, tol):
    """(violations, inconclusive) of the per-N loop; tol(N) is the
    tolerance at N."""
    violations, inconclusive = [], []
    for N in range(1, len(lhs) + 1):
        l, r = float(lhs[N - 1]), rhs[N - 1]
        if l > r + tol(N):
            violations.append((N, l, r))
        elif l > r:
            inconclusive.append((N, l, r))
    return violations, inconclusive


def near_rhs(rhs, tol, seed):
    """lhs values at rhs - 1, rhs + tol/2 (inside the tolerance),
    rhs + 3 tol/2 (just outside) and rhs + 1, mixed at random."""
    rng = np.random.default_rng(seed)
    k = rng.choice(4, size=len(rhs), p=[0.7, 0.1, 0.1, 0.1])
    offsets = np.choose(k, [-1.0, 0.5 * tol, 1.5 * tol, 1.0])
    return np.asarray(rhs) + offsets


# ------------------------------------------------------------------ hlawka

# a Bracket's eps: its deltas are taken to be off by at least 4e-12, which
# charges the tolerance at least 8e-12
BRACKET_EPS = 4e-12


class Bracket:
    """Prefix-discrepancy bounds around known deltas, for check_hlawka, with
    the `eps` of a `PrefixDiscrepancy`."""

    def __init__(self, delta, lower, upper, eps=BRACKET_EPS):
        self.delta, self.lower, self.upper = delta, lower, upper
        self.eps = eps

    def __len__(self):
        return len(self.delta)

    def delta_at(self, n):
        return float(self.delta[n - 1])


def test_hlawka_grid_example():
    rep = grid_hlawka_report(100)
    assert rep.passed
    # the product is exactly N+1; the bound is below (N+1)^2
    assert rep.empirical_constants["P_N"] == pytest.approx(101.0, rel=1e-10)
    assert rep.empirical_constants["bound"] <= 101.0 ** 2


@pytest.mark.parametrize("N", [1, 2, 100, 65535, 65536, 65537, 500000])
def test_grid_hlawka_streams_as_the_whole_array(N):
    assert grid_hlawka_report(N).to_dict() == \
        oracles.grid_hlawka_report(N).to_dict()


def test_hlawka_vdc_prefixes():
    rep = hlawka_sequence_report("vdc", 2000)
    assert rep.passed and not rep.violations
    # the bound itself stays within the N^(gamma log N) shape
    assert rep.empirical_constants["gamma_hat"] < 3.0


def test_hlawka_kronecker_prefixes(sqrt2m1):
    rep = hlawka_sequence_report("kronecker", 2000, alpha=sqrt2m1)
    assert rep.passed and not rep.violations


@pytest.mark.parametrize("seed", range(4))
def test_hlawka_matches_per_n_loop(seed):
    rng = np.random.default_rng(seed)
    n = 3000
    deltas = rng.uniform(0.5, 12.0, n)
    N = np.arange(1, n + 1)
    rhs = 2.0 * deltas * (np.log(N) - np.log(deltas))
    err = 1e-11 * seed
    # some lhs just inside and just outside the tolerance (which is a
    # little above 1e-9), some far below; a bracket's tolerance takes at
    # least 8e-12 for its inexact Delta, so err + 1e-9 + 4e-12 is outside
    # the tolerance of an exact Delta and inside that of a bracket
    logs = rhs + rng.choice([-1.0, 2e-12, 1e-10, 1.5e-9, 1.0,
                             err + BASE_TOL + 4e-12], size=n,
                            p=[0.75, 0.05, 0.05, 0.05, 0.05, 0.05])
    tr = ProductTrace(logs, err, n)
    for d_trace, eps in ((Bracket(deltas, deltas, deltas), BRACKET_EPS),
                         (deltas, None)):
        for N_min in (1, 16):
            rep = check_hlawka(tr, d_trace, N_min=N_min)
            violations, inconclusive, gamma_hat = hlawka_oracle(
                logs, deltas, err, N_min, eps)
            assert rep.violations == violations and violations
            assert rep.inconclusive == inconclusive and inconclusive
            assert rep.empirical_constants["gamma_hat"] == gamma_hat
            assert rep.passed is False


def test_hlawka_prefixes_match_per_n_loop(sqrt2m1):
    # the vdC deltas are exact; the Kronecker ones are the float64 trace's,
    # which `delta_at` reproduces bit for bit
    orbit = kronecker_fixed_point(sqrt2m1, 1500)
    vdc = van_der_corput(1500)
    vdc_deltas = [float(star_discrepancy(vdc.points[:n]).delta)
                  for n in range(1, 1501)]
    for kind, tr, deltas, n_mins, eps in (
            ("vdc", product_trace(vdc), vdc_deltas, (1, 16), None),
            ("kronecker", product_trace(orbit),
             discrepancy_trace(orbit.points()).delta, (16,),
             kronecker_discrepancy(orbit).eps)):
        for N_min in n_mins:
            rep = hlawka_sequence_report(kind, 1500, N_min=N_min,
                                         alpha=sqrt2m1)
            want = hlawka_oracle(tr.log_values, deltas, tr.error_bound,
                                 N_min, eps)
            assert (rep.violations, rep.inconclusive,
                    rep.empirical_constants["gamma_hat"]) == want


def test_hlawka_vdc_never_traces(monkeypatch):
    # the vdC check runs on its exact digit kernel, never on the O(N^2)
    # per-prefix trace
    def no_trace(*args, **kwargs):
        raise AssertionError("discrepancy_trace called")

    monkeypatch.setattr(discrepancy, "discrepancy_trace", no_trace)
    monkeypatch.setattr(bounds, "discrepancy_trace", no_trace, raising=False)
    rep = hlawka_sequence_report("vdc", 6000)
    assert rep.passed and rep.n_range == (16, 6000)


@pytest.mark.parametrize("seed", range(4))
def test_hlawka_bracket_matches_per_n_loop(seed):
    # any bounds lower <= Delta <= upper give the exact trace's report: the
    # screen and the gamma candidates must hold for every bracket, also
    # where Delta > N/e and the right-hand side falls in Delta
    rng = np.random.default_rng(seed)
    n = 3000
    N = np.arange(1, n + 1)
    deltas = np.where(N < 50, rng.uniform(0.5, np.maximum(N, 1.0)),
                      rng.uniform(0.5, 12.0, n))
    rhs = 2.0 * deltas * (np.log(N) - np.log(deltas))
    logs = rhs + rng.choice([-1.0, -1e-13, 2e-12, 1e-10, 1.5e-9, 1.0],
                            size=n, p=[0.5, 0.1, 0.1, 0.1, 0.1, 0.1])
    width = rng.choice([0.0, 1e-9, 0.1, 2.0], size=(2, n))
    lower = np.maximum(deltas - width[0], 0.25)
    tr = ProductTrace(logs, 0.0, n)
    for N_min in (1, 16):
        rep = check_hlawka(tr, Bracket(deltas, lower, deltas + width[1]),
                           N_min=N_min)
        violations, inconclusive, gamma_hat = hlawka_oracle(
            logs, deltas, 0.0, N_min, BRACKET_EPS)
        assert rep.violations == violations and violations
        assert rep.inconclusive == inconclusive and inconclusive
        assert rep.empirical_constants["gamma_hat"] == gamma_hat


@pytest.mark.parametrize("seed", range(3))
def test_hlawka_kronecker_bounds_match_per_n_loop(seed):
    # logs around the right-hand side of the orbit's own Delta: just below
    # it, inside the tolerance (inconclusive), just outside (violations),
    # and far off; the screen on the bounds must settle exactly these
    alpha = (surd_from_cf([], [2]), surd_from_cf([], [1]),
             surd_from_cf([3, 2 ** 66], [1, 7, 2]))[seed]
    n = 3000
    orbit = kronecker_fixed_point(alpha, n)
    kd = kronecker_discrepancy(orbit)
    deltas = discrepancy_trace(orbit.points()).delta
    rng = np.random.default_rng(seed)
    rhs = np.array([2.0 * d * (math.log(N) - math.log(d))
                    for N, d in enumerate(deltas.tolist(), 1)])
    logs = rhs + rng.choice([-1.0, -1e-13, 2e-12, 1e-10, 1.5e-9, 1.0],
                            size=n, p=[0.75, 0.05, 0.05, 0.05, 0.05, 0.05])
    err = 1e-11 * seed
    tr = ProductTrace(logs, err, n)
    for N_min in (1, 16):
        rep = check_hlawka(tr, kd, N_min=N_min)
        violations, inconclusive, gamma_hat = hlawka_oracle(
            logs, deltas, err, N_min, kd.eps)
        assert rep.violations == violations and violations
        assert rep.inconclusive == inconclusive and inconclusive
        assert rep.empirical_constants["gamma_hat"] == gamma_hat
        # the same report as from the exact trace
        rep_t = check_hlawka(tr, Bracket(deltas, deltas, deltas, kd.eps),
                             N_min=N_min)
        assert rep.to_dict() == rep_t.to_dict()


def test_hlawka_tolerance_covers_the_float_delta_error(sqrt2m1):
    # at the default N_max of 10^4, `delta_at` may be off by
    # h = n (eps + 2^-53), which is above 4e-12: a lhs that a charge for a
    # 4e-12 move of Delta leaves outside the tolerance is inconclusive
    n = 10 ** 4
    orbit = kronecker_fixed_point(sqrt2m1, n)
    kd = kronecker_discrepancy(orbit)
    h = n * (float(orbit.error().max()) + 2.0 ** -52 + 2.0 ** -53)
    assert h > 4e-12
    delta = kd.delta_at(n)
    rhs = 2.0 * delta * (math.log(n) - math.log(delta))
    slope = 2.0 * (abs(math.log(n / delta)) + 1.0)
    logs = np.full(n, -1e3)
    logs[-1] = rhs + BASE_TOL + slope * (h + 4e-12) / 2.0
    rep = check_hlawka(ProductTrace(logs, 0.0, n), kd, N_min=n)
    assert rep.violations == []
    assert rep.inconclusive == [(n, float(logs[-1]), rhs)]


@pytest.mark.parametrize("name", ["sqrt2m1", "golden"])
def test_delta_at_within_its_error(name):
    # |delta_at(n) - Delta_n| <= n (eps + 2^-53), against the sorted-order
    # Delta_n of 200-bit points, each within 2^-198, held as X = x 2^200
    # floored in integers
    N = 2 * 10 ** 4
    alpha = parse_alpha(name)
    kd = kronecker_discrepancy(kronecker_fixed_point(alpha, N))
    ev = FracPartEvaluator(alpha, n_max=N, precision_bits=200)
    one = 1 << 200
    X = [mpmath.libmp.to_fixed(ev.frac_part(k).value._mpf_, 200)
         for k in range(1, N + 1)]
    rng = np.random.default_rng(7)
    ns = {1, 2, 3, 100, 7200, 10 ** 4, N} | set(
        rng.integers(1, N + 1, 8).tolist())
    for n in sorted(ns):
        xs = sorted(X[:n])
        scaled = max(max(n * x - i * one, (i + 1) * one - n * x)
                     for i, x in enumerate(xs))
        gap = abs(Fraction(kd.delta_at(n)) - Fraction(scaled, one))
        # the integers move each point by under 2^-197, Delta_n by n times
        assert gap <= n * (kd.eps + 2.0 ** -53) + n * 2.0 ** -196, n


def test_hlawka_misaligned_traces():
    tr = ProductTrace(np.zeros(5), 0.0, 5)
    with pytest.raises(ValueError):
        check_hlawka(tr, [])


@pytest.mark.parametrize("N_min", [0, -5])
def test_hlawka_n_min_below_one(N_min):
    tr = ProductTrace(np.zeros(5), 0.0, 5)
    deltas = np.ones(5)
    with pytest.raises(ValueError, match="N_min"):
        check_hlawka(tr, Bracket(deltas, deltas, deltas), N_min=N_min)


@pytest.mark.parametrize("kind", ["vdc", "kronecker"])
def test_hlawka_n_min_above_n_max(kind, sqrt2m1):
    # a range with no N in it compares nothing, so it cannot pass
    with pytest.raises(ValueError, match="N_min"):
        hlawka_sequence_report(kind, 10, N_min=16, alpha=sqrt2m1)
    rep = hlawka_sequence_report(kind, 10, N_min=10, alpha=sqrt2m1)
    assert rep.n_range == (10, 10)


# ---------------------------------------------------------------- sandwich

def test_sandwich_single_factor(sqrt2m1):
    # q = 2: P_1 = 2 sin(pi alpha) lies in [1, q^2/2] = [1, 2]
    rep = check_kronecker_sandwich(sqrt2m1, q_max=2)
    assert rep.passed
    lp = 2.0 * math.sin(math.pi * (math.sqrt(2.0) - 1.0))
    assert 1.0 <= lp <= 2.0


def test_sandwich_sqrt2_denominators(sqrt2m1):
    rep = check_kronecker_sandwich(sqrt2m1, q_max=1000)
    assert rep.passed and not rep.violations
    assert rep.n_range == (2, 985)


def test_sandwich_golden_fibonacci(golden):
    rep = check_kronecker_sandwich(golden, q_max=10 ** 4)
    assert rep.passed and not rep.violations


# ---------------------------------------------------------------- ostrowski

def test_ostrowski_bound_no_violations(sqrt2m1):
    rep = check_ostrowski_bound(sqrt2m1, 2000)
    assert rep.passed and not rep.violations
    assert rep.empirical_constants["min_slack"] > 0


def test_ostrowski_bound_n1(sqrt2m1):
    # N = 1: log(2 sin(pi alpha)) <= b_0 log 2 + 3 log q_0 = log 2
    logs, _ = kronecker_log_trace(sqrt2m1, 1)
    assert logs[0] <= LOG2


def test_ostrowski_bound_at_denominators(sqrt2m1):
    # N = q_l: rhs includes the 2 q_l^3 block, lhs is at most ~2 log q_l
    table = cf_expand(sqrt2m1, 8)
    logs, _ = kronecker_log_trace(sqrt2m1, table.q[-2])
    for l in range(2, 7):
        q = table.q[l]
        rhs = LOG2 + 3.0 * math.fsum(math.log(t) for t in table.q[:l + 1])
        assert logs[q - 1] <= rhs


@pytest.mark.parametrize("alpha_cf", [([], [2]), ([], [1]), ([1], [2]),
                                      ([3, 1, 7], [1, 2])])
def test_ostrowski_and_cesaro_match_per_n_loop(alpha_cf, monkeypatch):
    # lhs is placed around the per-N loop's rhs, so the reports carry
    # violations and inconclusive rows to compare
    alpha = surd_from_cf(*alpha_cf)
    N_max = 2000
    err = 1e-12
    rhs = ostrowski_rhs_oracle(alpha, N_max)
    logs = near_rhs(rhs, err + BASE_TOL, 1)
    monkeypatch.setattr(bounds, "kronecker_log_trace",
                        lambda a, n: (logs[:n].copy(), err))
    rep = check_ostrowski_bound(alpha, N_max)
    violations, inconclusive = rows_oracle(logs, rhs, lambda N: err + BASE_TOL)
    assert (rep.violations, rep.inconclusive) == (violations, inconclusive)
    assert violations and inconclusive
    assert rep.empirical_constants["min_slack"] == \
        min(r - float(l) for r, l in zip(rhs, logs))

    N = np.arange(1, N_max + 1)
    crhs = cesaro_rhs_oracle(alpha, N_max)
    logs = near_rhs(crhs, (err + BASE_TOL) / N, 2) * N
    rep = check_cesaro_log_bound(alpha, N_max)
    means = logs / N
    violations, inconclusive = rows_oracle(
        means, crhs, lambda N: (err + BASE_TOL) / N)
    assert (rep.violations, rep.inconclusive) == (violations, inconclusive)
    assert violations and inconclusive


# ------------------------------------------------------------------ cesaro

def test_cesaro_bound_holds(sqrt2m1):
    rep = check_cesaro_log_bound(sqrt2m1, 2000)
    assert rep.passed and not rep.violations
    assert rep.empirical_constants["limsup_proxy"] < 0.1


def test_cesaro_mean_near_zero_at_denominators(sqrt2m1):
    rep = check_cesaro_log_bound(sqrt2m1, 10 ** 4)
    means = rep.empirical_constants["mean_at_q_minus_1"]
    for q, mean in means.items():
        if q >= 100:
            assert -1e-9 <= mean <= 0.05, q


def test_cesaro_bound_value_shape(sqrt2m1):
    table = cf_expand(sqrt2m1, 12)
    vals = [cesaro_bound_value(table, l) for l in range(3, 12)]
    assert all(a > b for a, b in zip(vals, vals[1:]))  # shrinks up the table


# ------------------------------------------------------------- type growth

def test_type_growth_bounded_quotients(sqrt2m1):
    rep = check_type_growth(sqrt2m1, 2000, t=1.01)
    # N^(1-1/t) ~ N^0: the reported constant is just a finite sup
    assert rep.passed
    assert math.isfinite(rep.empirical_constants["C_sup"])


def test_type_growth_huge_quotient():
    alpha = surd_from_cf([1, 1, 1000], [2])
    rep = check_type_growth(alpha, 5000, t=3.0)
    assert rep.passed
    assert rep.empirical_constants["C_sup"] < 50


def test_type_growth_rejects_t_at_most_1(sqrt2m1):
    with pytest.raises(ValueError):
        check_type_growth(sqrt2m1, 100, t=1.0)


# -------------------------------------------------------------- vdc limits

def test_vdc_limits_small():
    rep = check_vdc_limits(10)
    assert rep.passed and not rep.violations
    assert rep.empirical_constants["octave_min"][3] == \
        pytest.approx(16 * math.sin(math.pi / 16), rel=1e-12)


def test_vdc_limits_limit_values():
    rep = check_vdc_limits(14)
    peaks = rep.empirical_constants["peak_over_n2"]
    mins = rep.empirical_constants["octave_min"]
    assert peaks[14] == pytest.approx(1.0 / (2 * math.pi), rel=1e-3)
    assert mins[14] == pytest.approx(math.pi, rel=1e-7)


def test_vdc_limits_past_2_21():
    # the float gap to the closed forms doubles with n and passes 1e-10 at
    # s = 21; it stays within the trace's derived error bound
    rep = check_vdc_limits(21)
    assert rep.passed and not rep.violations


@pytest.mark.parametrize("s_max", [1, 15, 16, 17])
def test_vdc_limits_stream_as_the_whole_array(s_max):
    assert check_vdc_limits(s_max).to_dict() == \
        oracles.check_vdc_limits(s_max).to_dict()


def test_vdc_limits_carried_rows_on_shuffled_points(monkeypatch):
    # shuffled van der Corput points break every octave claim across many
    # blocks; the streamed checker reports the oracle's rows, in its order
    s_max = 17
    n_top = 2 ** (s_max + 1) - 1
    pts = van_der_corput(n_top).points
    nums = np.random.default_rng(7).permutation(pts.numerators)
    den = pts.denominator
    monkeypatch.setattr(oracles, "van_der_corput", lambda n: PointSet(
        RationalArray(nums, den), "vdc"))
    monkeypatch.setattr(bounds, "van_der_corput_blocks", lambda n: (
        RationalArray(nums[s:s + SUM_CHUNK], den)
        for s in range(0, n, SUM_CHUNK)))
    want = oracles.check_vdc_limits(s_max).to_dict()
    assert len(want["violations"]) > 2 * s_max
    assert check_vdc_limits(s_max).to_dict() == want


def test_rational_checkers_run_in_flat_memory():
    # numpy reports its buffers to tracemalloc: the streamed checkers hold
    # a few blocks, whatever the size
    def peak(check, arg):
        tracemalloc.start()
        try:
            check(arg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    for check, small, large in ((grid_hlawka_report, 2 ** 18, 2 ** 21),
                                (check_vdc_limits, 17, 20)):
        a, b = peak(check, small), peak(check, large)
        assert abs(b - a) <= 2 ** 20 and max(a, b) < 16 * 2 ** 20, \
            (check.__name__, a, b)


def test_vdc_limits_guard():
    with pytest.raises(ValueError):
        check_vdc_limits(25)


# ------------------------------------------------------------- conjectures

def test_conjectures_argmax_positions(sqrt2m1):
    rep = check_kronecker_conjectures(sqrt2m1, 500)
    assert rep.passed  # evidence reports never fail
    rows = rep.empirical_constants["argmax_per_interval"]
    found = [r["found"] for r in rows if r["l"] >= 1]
    assert found == [4, 11, 28, 69, 168, 407]
    assert rep.empirical_constants["all_argmax_match"]


def test_conjectures_running_max_bounded(sqrt2m1):
    rep = check_kronecker_conjectures(sqrt2m1, 500)
    series = rep.empirical_constants["normalized_running_max"]
    assert series[-1]["running_max_P_over_q"] < 2.0


def test_conjectures_degenerate_window(sqrt2m1):
    rep = check_kronecker_conjectures(sqrt2m1, 1)
    assert rep.empirical_constants["argmax_per_interval"] == []


# ------------------------------------------------------------------ report

def test_report_json_round_trip():
    rep = BoundReport("hlawka", {"gen": "vdc"}, (16, 100),
                      violations=[(17, 1.0, 0.5)], passed=False,
                      empirical_constants={"gamma_hat": 1.2})
    blob = json.dumps(rep.to_dict())
    back = json.loads(blob)
    assert back["theorem"] == "hlawka"
    assert back["violations"] == [[17, 1.0, 0.5]]
    assert back["passed"] is False
