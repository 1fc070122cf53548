import json
import math
import tracemalloc
from fractions import Fraction

import mpmath
import numpy as np
import pytest

import oracles
from commands import ALPHAS
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
                                  star_discrepancy, vdc_discrepancy)
from weylprod.irrational import (FracPartEvaluator, cf_expand,
                                 cf_expand_until, kronecker_fixed_point,
                                 ostrowski, parse_alpha, surd_from_cf)
from weylprod.numerics import LOG2, SUM_CHUNK
from weylprod.products import BlockTrace, ProductTrace, product_trace
from weylprod.sequences import (PointSet, RationalArray, van_der_corput,
                                van_der_corput_blocks)


# Per-N reference loops: the checkers evaluate the same formulas on whole
# arrays and must give the same reports.

def charge(N, delta, h):
    """What moving Delta by h can do to the right-hand side at N."""
    return 2.0 * (abs(math.log(N / delta)) + 1.0) * h + h * h / (delta - h)


def hlawka_oracle(logs, deltas, err, N_min, margin):
    """The Hlawka rows and gamma_hat at the given Delta_N. An inexact Delta
    (`margin` not None) is within h = margin(N) of Delta_N, and the
    tolerance takes its `charge`."""
    violations, inconclusive, gamma_hat = [], [], 0.0
    for N in range(N_min, len(logs) + 1):
        delta = float(deltas[N - 1])
        lhs = float(logs[N - 1])
        rhs = 2.0 * delta * (math.log(N) - math.log(delta))
        tol = err + BASE_TOL
        if margin is not None:
            tol += charge(N, delta, margin(N))
        if N > 1:
            gamma_hat = max(gamma_hat, rhs / math.log(N) ** 2)
        if lhs > rhs + tol:
            violations.append((N, lhs, rhs))
        elif lhs > rhs:
            inconclusive.append((N, lhs, rhs))
    return violations, inconclusive, gamma_hat


def assert_within_charge(rep, want, deltas, margin, N_min):
    """`rep` has the verdict of the per-N loop's `want` and its violation
    and inconclusive N and lhs, and each rhs and gamma_hat within the
    charge of margin(N) at the reference `deltas`."""
    violations, inconclusive, gamma_hat = want
    assert rep.passed is not bool(violations)

    def charge_at(n):
        return charge(n, float(deltas[n - 1]), margin(n))

    for got, rows in ((rep.violations, violations),
                      (rep.inconclusive, inconclusive)):
        assert [row[:2] for row in got] == [row[:2] for row in rows]
        for (n, _, r), (_, _, w) in zip(got, rows):
            assert abs(r - w) <= charge_at(n), n
    # the two gamma_hat may come from different N, each within its charge
    slack = max(charge_at(n) / math.log(n) ** 2
                for n in range(max(N_min, 2), len(deltas) + 1))
    assert abs(rep.empirical_constants["gamma_hat"] - gamma_hat) <= slack


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
    return [cesaro_bound_value(table, ostrowski(N, table).level)
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

def bracket_margin(N):
    """A Bracket's margin: its deltas are taken to be off by more than
    4e-12, which charges the tolerance more than 8e-12."""
    return N * (4e-12 + 2.0 ** -53)


class Bracket:
    """Prefix-discrepancy bounds around known deltas, for check_hlawka, with
    the `margin` of a `PrefixDiscrepancy`; it hands over its bounds in
    SUM_CHUNK blocks, as a `PrefixDiscrepancy` does."""

    def __init__(self, delta, lower, upper, margin=bracket_margin):
        self.delta, self.lower, self.upper = delta, lower, upper
        self.margin = margin

    def __len__(self):
        return len(self.delta)

    def delta_at(self, n):
        return float(self.delta[n - 1])

    def blocks(self):
        for s in range(0, len(self), SUM_CHUNK):
            yield self.lower[s:s + SUM_CHUNK], self.upper[s:s + SUM_CHUNK]


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
    rep = hlawka_sequence_report("vdc", 2000, 16)
    assert rep.passed and not rep.violations
    # the bound itself stays within the N^(gamma log N) shape
    assert rep.empirical_constants["gamma_hat"] < 3.0


def test_hlawka_kronecker_prefixes(sqrt2m1):
    rep = hlawka_sequence_report("kronecker", 2000, 16, alpha=sqrt2m1)
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
    for d_trace, margin in ((Bracket(deltas, deltas, deltas),
                             bracket_margin), (deltas, None)):
        for N_min in (1, 16):
            rep = check_hlawka(tr, d_trace, N_min, {})
            violations, inconclusive, gamma_hat = hlawka_oracle(
                logs, deltas, err, N_min, margin)
            assert rep.violations == violations and violations
            assert rep.inconclusive == inconclusive and inconclusive
            assert rep.empirical_constants["gamma_hat"] == gamma_hat
            assert rep.passed is False


def test_hlawka_prefixes_match_per_n_loop(sqrt2m1):
    # the vdC deltas are exact, and give the per-N loop's report; the
    # Kronecker report, on `delta_at`, is the loop's at the float64 trace's
    # deltas within the charge of the bracket's margin
    vdc = van_der_corput(1500)
    tr = product_trace(vdc)
    vdc_deltas = [float(star_discrepancy(vdc.points[:n]).delta)
                  for n in range(1, 1501)]
    for N_min in (1, 16):
        rep = hlawka_sequence_report("vdc", 1500, N_min=N_min)
        want = hlawka_oracle(tr.log_values, vdc_deltas, tr.error_bound,
                             N_min, None)
        assert (rep.violations, rep.inconclusive,
                rep.empirical_constants["gamma_hat"]) == want
    orbit = kronecker_fixed_point(sqrt2m1, 1500)
    tr, kd = product_trace(orbit), kronecker_discrepancy(orbit)
    deltas = discrepancy_trace(orbit.points()).delta
    rep = hlawka_sequence_report("kronecker", 1500, N_min=16, alpha=sqrt2m1)
    want = hlawka_oracle(tr.log_values, deltas, tr.error_bound, 16,
                         kd.margin)
    assert_within_charge(rep, want, deltas, kd.margin, 16)


def test_hlawka_vdc_never_traces(monkeypatch):
    # the vdC check runs on its exact digit kernel, never on the O(N^2)
    # per-prefix trace
    def no_trace(*args, **kwargs):
        raise AssertionError("discrepancy_trace called")

    monkeypatch.setattr(discrepancy, "discrepancy_trace", no_trace)
    monkeypatch.setattr(bounds, "discrepancy_trace", no_trace, raising=False)
    rep = hlawka_sequence_report("vdc", 6000, 16)
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
                           N_min, {})
        violations, inconclusive, gamma_hat = hlawka_oracle(
            logs, deltas, 0.0, N_min, bracket_margin)
        assert rep.violations == violations and violations
        assert rep.inconclusive == inconclusive and inconclusive
        assert rep.empirical_constants["gamma_hat"] == gamma_hat


@pytest.mark.parametrize("seed", range(3))
def test_hlawka_kronecker_bounds_match_per_n_loop(seed):
    # logs around the right-hand side of the float64 trace's Delta: just
    # below it and just inside the tolerance (inconclusive), each by twice
    # the charge c of the margin, further inside, just outside
    # (violations), and far off; the screen on the bounds must settle
    # exactly these, within the charge, and give the report of `delta_at`
    # at every N
    alpha = (surd_from_cf([], [2]), surd_from_cf([], [1]),
             surd_from_cf([3, 2 ** 66], [1, 7, 2]))[seed]
    n = 3000
    orbit = kronecker_fixed_point(alpha, n)
    kd = kronecker_discrepancy(orbit)
    deltas = discrepancy_trace(orbit.points()).delta
    rng = np.random.default_rng(seed)
    rhs, c = np.array([(2.0 * d * (math.log(N) - math.log(d)),
                        charge(N, d, kd.margin(N)))
                       for N, d in enumerate(deltas.tolist(), 1)]).T
    assert c.max() < 2e-10
    k = rng.choice(6, size=n, p=[0.75, 0.05, 0.05, 0.05, 0.05, 0.05])
    logs = rhs + np.choose(k, [-1.0, -2.0 * c, 2.0 * c, 5e-10, 1.5e-9, 1.0])
    err = 1e-11 * seed
    tr = ProductTrace(logs, err, n)
    at = np.array([kd.delta_at(N) for N in range(1, n + 1)])
    for N_min in (1, 16):
        rep = check_hlawka(tr, kd, N_min, {})
        want = hlawka_oracle(logs, deltas, err, N_min, kd.margin)
        assert want[0] and want[1]
        assert_within_charge(rep, want, deltas, kd.margin, N_min)
        rep_t = check_hlawka(tr, Bracket(at, at, at, kd.margin), N_min, {})
        assert rep.to_dict() == rep_t.to_dict()


def test_late_n_min_settles_candidates_without_sorting(sqrt2m1,
                                                      monkeypatch):
    # from N_min = 65536 the screen keeps 3600 gamma candidates up to
    # N = 70000; each is settled from T, and no prefix is sorted
    def no_sort(xs):
        raise AssertionError("a prefix was sorted")

    settled = []
    delta_at = discrepancy.PrefixDiscrepancy.delta_at

    def counted(self, n):
        settled.append(n)
        return delta_at(self, n)

    monkeypatch.setattr(discrepancy, "_float", no_sort)
    monkeypatch.setattr(discrepancy.PrefixDiscrepancy, "delta_at", counted)
    rep = hlawka_sequence_report("kronecker", 70000, 65536, sqrt2m1)
    assert rep.passed and rep.n_range == (65536, 70000)
    assert 1 <= len(settled) <= 3600


def test_hlawka_tolerance_covers_the_float_delta_error(sqrt2m1):
    # at the default N_max of 10^4, `delta_at` may be off by
    # h = margin(n), which is above 4e-12: a lhs that a charge for a
    # 4e-12 move of Delta leaves outside the tolerance is inconclusive
    n = 10 ** 4
    kd = kronecker_discrepancy(kronecker_fixed_point(sqrt2m1, n))
    h = kd.margin(n)
    assert h > 4e-12
    delta = kd.delta_at(n)
    rhs = 2.0 * delta * (math.log(n) - math.log(delta))
    slope = 2.0 * (abs(math.log(n / delta)) + 1.0)
    logs = np.full(n, -1e3)
    logs[-1] = rhs + BASE_TOL + slope * (h + 4e-12) / 2.0
    rep = check_hlawka(ProductTrace(logs, 0.0, n), kd, n, {})
    assert rep.violations == []
    assert rep.inconclusive == [(n, float(logs[-1]), rhs)]


@pytest.mark.parametrize("name", ["sqrt2m1", "golden", "cf-1000"])
def test_delta_at_within_its_error(name):
    # |delta_at(n) - Delta_n| <= margin(n), against the sorted-order
    # Delta_n of 200-bit points, each within 2^-198, held as X = x 2^200
    # floored in integers
    N = 2 * 10 ** 4
    alpha = parse_alpha(ALPHAS[name])
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
        assert gap <= kd.margin(n) + n * 2.0 ** -196, n


def test_hlawka_misaligned_traces():
    tr = ProductTrace(np.zeros(5), 0.0, 5)
    with pytest.raises(ValueError):
        check_hlawka(tr, [], 1, {})


@pytest.mark.parametrize("N_min", [0, -5])
def test_hlawka_n_min_below_one(N_min):
    tr = ProductTrace(np.zeros(5), 0.0, 5)
    deltas = np.ones(5)
    with pytest.raises(ValueError, match="N_min"):
        check_hlawka(tr, Bracket(deltas, deltas, deltas), N_min, {})


@pytest.mark.parametrize("kind", ["vdc", "kronecker"])
def test_hlawka_n_min_above_n_max(kind, sqrt2m1):
    # a range with no N in it compares nothing, so it cannot pass
    with pytest.raises(ValueError, match="N_min"):
        hlawka_sequence_report(kind, 10, N_min=16, alpha=sqrt2m1)
    rep = hlawka_sequence_report(kind, 10, N_min=10, alpha=sqrt2m1)
    assert rep.n_range == (10, 10)


def vdc_deltas(n):
    """The exact Delta_N of the first n vdC points, as one array: the
    blocks of `vdc_discrepancy`, concatenated."""
    return np.concatenate([d for _, d in vdc_discrepancy(n)])


def _hlawka_traces(kind, n):
    """(product trace, Delta trace) of the first n vdC or Kronecker points,
    the whole arrays of what `hlawka_sequence_report` streams."""
    if kind == "vdc":
        return product_trace(van_der_corput(n)), vdc_deltas(n)
    orbit = kronecker_fixed_point(parse_alpha("sqrt2m1"), n)
    return product_trace(orbit), kronecker_discrepancy(orbit)


@pytest.mark.parametrize("kind", ["vdc", "kronecker"])
@pytest.mark.parametrize("n", [SUM_CHUNK - 1, SUM_CHUNK + 1,
                               2 * SUM_CHUNK + 5])
def test_hlawka_streams_as_the_whole_array(kind, n):
    # the blocked screen gives the whole-array report, gamma_hat bit for
    # bit: on the sequence's own trace, and with lhs raised to just below,
    # inside and past the tolerance at N on both sides of the block edges
    tr, d = _hlawka_traces(kind, n)
    rng = np.random.default_rng(n)
    edges = [k * SUM_CHUNK + j for k in (1, 2) for j in (-1, 0, 1, 2)]
    at = sorted({m for m in edges if 16 <= m <= n}
                | set(rng.integers(16, n + 1, 6).tolist()))
    logs = tr.log_values.copy()
    for i, m in enumerate(at):
        if kind == "vdc":
            delta, h = float(d[m - 1]), 0.0
        else:
            delta, h = d.delta_at(m), d.margin(m)
        rhs, tol = bounds._hlawka_rhs(m, delta, tr.error_bound, h)
        logs[m - 1] = rhs + (-1e-13, 0.5 * tol, 2.0 * tol)[i % 3]
    raised = ProductTrace(logs, tr.error_bound, n)
    for trace in (tr, raised):
        for N_min in (1, 16):
            got = check_hlawka(trace, d, N_min, {}).to_dict()
            want = oracles.check_hlawka(trace, d, N_min=N_min).to_dict()
            assert got == want
            assert got["empirical_constants"]["gamma_hat"].hex() == \
                want["empirical_constants"]["gamma_hat"].hex()
    assert want["violations"] and want["inconclusive"]


# N on both sides of the vdC stream's block edges
VDC_EDGES = [1, SUM_CHUNK - 1, SUM_CHUNK, SUM_CHUNK + 1, 2 * SUM_CHUNK + 3]


@pytest.mark.parametrize("n", VDC_EDGES)
def test_vdc_prefix_blocks_equal_the_whole_trace(n):
    # the prefix blocks the vdC Hlawka check reads, concatenated, are the
    # trace of the whole point array bit for bit, with the same bound; each
    # block's array is overwritten by the next, so it is copied
    trace = bounds._vdc_trace(n)
    parts = [cum.copy() for cum in
             map(trace.prefix, van_der_corput_blocks(n))]
    want = product_trace(van_der_corput(n))
    assert [len(p) for p in parts] == [min(SUM_CHUNK, n - s)
                                       for s in range(0, n, SUM_CHUNK)]
    assert np.concatenate(parts).tobytes() == want.log_values.tobytes()
    assert trace.error_bound() == want.error_bound


@pytest.mark.parametrize("n", VDC_EDGES)
def test_vdc_hlawka_streams_as_the_array_form(n):
    # the streamed vdC report is the array-form report over the whole
    # trace and the whole Delta, to the byte, whichever block N_min is in
    tr, d = _hlawka_traces("vdc", n)
    params = {"gen": "vdc", "N_max": n}
    for N_min in sorted({m for m in (1, 16, SUM_CHUNK, SUM_CHUNK + 1, n)
                         if m <= n}):
        got = json.dumps(hlawka_sequence_report("vdc", n, N_min).to_dict())
        want = check_hlawka(tr, d, N_min, params).to_dict()
        assert got == json.dumps(want)
        assert want == oracles.check_hlawka(tr, d, N_min, params).to_dict()


def test_vdc_hlawka_stream_classifies_rows_at_the_end(monkeypatch):
    # log P_N raised, in the stream, to just below, inside and past the
    # tolerance at N on both sides of the block edges: the rows settled
    # block by block are classified against the final error bound, as the
    # array form classifies them, violations and inconclusive rows alike
    n = 2 * SUM_CHUNK + 5
    tr, d = _hlawka_traces("vdc", n)
    at = [16, 17, n] + [k * SUM_CHUNK + j for k in (1, 2) for j in (-1, 0, 1)]
    bump = np.zeros(n)
    for i, m in enumerate(at):
        rhs, tol = bounds._hlawka_rhs(m, float(d[m - 1]), tr.error_bound,
                                      0.0)
        bump[m - 1] = rhs + (-1e-13, 0.5 * tol, 2.0 * tol)[i % 3] \
            - tr.log_values[m - 1]
    # and one N in the first block between the tolerance of the bound after
    # that block and the final one: a violation against the first,
    # inconclusive against the second
    first = bounds._vdc_trace(n)
    first.prefix(next(van_der_corput_blocks(n)))
    early = first.error_bound()
    m = SUM_CHUNK - 2
    rhs, tol = bounds._hlawka_rhs(m, float(d[m - 1]), tr.error_bound, 0.0)
    lhs = rhs + tol - (tr.error_bound - early) / 2.0
    bump[m - 1] = lhs - tr.log_values[m - 1]
    assert rhs + early + BASE_TOL < tr.log_values[m - 1] + bump[m - 1] \
        < rhs + tol
    feed = BlockTrace.feed

    def raised(self, x, out):
        s = self.sums.fed  # the points fed before the block x
        cum = feed(self, x, out)
        return cum + bump[s:s + len(cum)]

    monkeypatch.setattr(BlockTrace, "feed", raised)
    raised_tr = ProductTrace(tr.log_values + bump, tr.error_bound, n)
    for N_min in (1, 16, SUM_CHUNK + 1):
        got = json.dumps(hlawka_sequence_report("vdc", n, N_min).to_dict())
        want = check_hlawka(raised_tr, d, N_min,
                            {"gen": "vdc", "N_max": n}).to_dict()
        assert got == json.dumps(want)
        assert want["violations"] and want["inconclusive"]
        assert want["passed"] is False
        if N_min <= m:
            row = [m, float(raised_tr.log_values[m - 1]), rhs]
            assert row in want["inconclusive"]


def test_hlawka_gamma_top_rising_across_blocks():
    # Delta = N/e maximises the right-hand side; spikes there in every block,
    # each above the last, move the running top up block by block, so each
    # block's candidates must give way to the next block's
    n = 3 * SUM_CHUNK
    tr, d = _hlawka_traces("vdc", n)
    for m in (SUM_CHUNK - 3, SUM_CHUNK + 1, 2 * SUM_CHUNK, 3 * SUM_CHUNK):
        d[m - 1] = m / math.e
    for N_min in (1, 16):
        got = check_hlawka(tr, d, N_min, {}).to_dict()
        want = oracles.check_hlawka(tr, d, N_min=N_min).to_dict()
        assert got == want
        gamma = got["empirical_constants"]["gamma_hat"]
        assert gamma.hex() == want["empirical_constants"]["gamma_hat"].hex()
        assert gamma == pytest.approx(2.0 / math.e * n / math.log(n) ** 2)


def test_hlawka_screens_in_flat_memory():
    # numpy reports its buffers to tracemalloc: at 2^20 vdC points the
    # check holds a few SUM_CHUNK blocks above the 16 MB of traces it reads
    tr, d = _hlawka_traces("vdc", 2 ** 20)
    tracemalloc.start()
    try:
        rep = check_hlawka(tr, d, 16, {})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.passed
    assert peak < 8 * 2 ** 20, peak


# alphas of the Kronecker stream's tests; [0; 3, 10^6, 1, 4, ...] puts its
# points close to the ends of the interval from n = 3 on
STREAM_ALPHAS = {"sqrt2m1": parse_alpha("sqrt2m1"),
                 "golden": parse_alpha("golden"),
                 "cf-10^6": surd_from_cf([3, 10 ** 6], [1, 4])}
# N on both sides of the Kronecker bracket's block edges
BRACKET_EDGES = [1, 2, SUM_CHUNK - 1, SUM_CHUNK, SUM_CHUNK + 1,
                 2 * SUM_CHUNK + 3]


@pytest.mark.parametrize("n", BRACKET_EDGES)
@pytest.mark.parametrize("name", sorted(STREAM_ALPHAS))
def test_kronecker_bracket_blocks_equal_the_whole_arrays(name, n):
    # the bracket's blocks, one per SUM_CHUNK N, joined are the bounds of
    # the whole-array reference bit for bit, with its margin
    orbit = kronecker_fixed_point(STREAM_ALPHAS[name], n)
    kd = kronecker_discrepancy(orbit)
    assert [len(lo) for lo, _ in kd.blocks()] == \
        [min(SUM_CHUNK, n - s) for s in range(0, n, SUM_CHUNK)]
    lower, upper = oracles.bracket_arrays(kd)
    inner_lower, inner_upper, margin = oracles.kronecker_bracket(orbit)
    assert lower.tobytes() == (inner_lower - margin).tobytes()
    assert upper.tobytes() == (inner_upper + margin).tobytes()
    assert kd.margin(np.arange(1.0, n + 1)).tobytes() == margin.tobytes()


@pytest.mark.parametrize("name", sorted(STREAM_ALPHAS))
def test_kronecker_hlawka_streams_as_the_array_form(name):
    # the one block loop gives the array-form report over the whole trace
    # and the bracket, to the byte, whichever block N_min is in. From
    # N_min = SUM_CHUNK on, sqrt2m1 keeps 34930 gamma candidates, each
    # settled in O(N) by `delta_at`, in either form: seconds
    alpha, n = STREAM_ALPHAS[name], 2 * SUM_CHUNK + 3
    orbit = kronecker_fixed_point(alpha, n)
    tr, kd = product_trace(orbit), kronecker_discrepancy(orbit)
    params = {"gen": "kronecker", "alpha": str(alpha), "N_max": n}
    n_mins = (1, 16) if name == "sqrt2m1" else (1, 16, SUM_CHUNK,
                                                 SUM_CHUNK + 1)
    for N_min in n_mins:
        got = hlawka_sequence_report("kronecker", n, N_min, alpha).to_dict()
        want = check_hlawka(tr, kd, N_min, params).to_dict()
        assert json.dumps(got) == json.dumps(want)
        assert want == oracles.check_hlawka(tr, kd, N_min, params).to_dict()


def test_kronecker_hlawka_stream_flags_rows_through_the_bracket(monkeypatch):
    # log P_N raised, in the stream, to just below, inside and past the
    # tolerance at N on both sides of the block edges: each such N is
    # settled by the bracket's delta_at, and the report is the array form's,
    # with violations and inconclusive rows alike
    alpha, n = STREAM_ALPHAS["golden"], 2 * SUM_CHUNK + 5
    orbit = kronecker_fixed_point(alpha, n)
    tr, kd = product_trace(orbit), kronecker_discrepancy(orbit)
    at = [16, 17, n] + [k * SUM_CHUNK + j for k in (1, 2) for j in (-1, 0, 1)]
    bump = np.zeros(n)
    for i, m in enumerate(at):
        rhs, tol = bounds._hlawka_rhs(m, kd.delta_at(m), tr.error_bound,
                                      kd.margin(m))
        bump[m - 1] = rhs + (-1e-13, 0.5 * tol, 2.0 * tol)[i % 3] \
            - tr.log_values[m - 1]
    feed = BlockTrace.feed

    def raised(self, x, out):
        s = self.sums.fed  # the points fed before the block x
        cum = feed(self, x, out)
        return cum + bump[s:s + len(cum)]

    settled = []
    delta_at = discrepancy.PrefixDiscrepancy.delta_at

    def counted(self, m):
        settled.append(m)
        return delta_at(self, m)

    monkeypatch.setattr(BlockTrace, "feed", raised)
    monkeypatch.setattr(discrepancy.PrefixDiscrepancy, "delta_at", counted)
    raised_tr = ProductTrace(tr.log_values + bump, tr.error_bound, n)
    params = {"gen": "kronecker", "alpha": str(alpha), "N_max": n}
    for N_min in (1, 16, SUM_CHUNK + 1):
        settled.clear()
        got = hlawka_sequence_report("kronecker", n, N_min, alpha).to_dict()
        assert {m for m in at if m >= N_min} <= set(settled)
        want = check_hlawka(raised_tr, kd, N_min, params).to_dict()
        assert json.dumps(got) == json.dumps(want)
        assert want == oracles.check_hlawka(raised_tr, kd, N_min,
                                            params).to_dict()
        assert want["violations"] and want["inconclusive"]
        assert want["passed"] is False


def test_vdc_discrepancy_in_flat_memory():
    # numpy reports its buffers to tracemalloc: read block by block, the
    # exact Delta holds eight SUM_CHUNK blocks (512 KB each) at 2^20 and 2^22
    # points alike, where the whole array would take 8 MB and 32 MB
    peaks = []
    for n in (2 ** 20, 2 ** 22):
        tracemalloc.start()
        try:
            sizes = [len(d) for _, d in vdc_discrepancy(n)]
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert sizes == [SUM_CHUNK] * (n // SUM_CHUNK)
    assert abs(peaks[1] - peaks[0]) <= 2 ** 19, peaks
    assert max(peaks) < 10 * 2 ** 19, peaks


# ---------------------------------------------------------------- sandwich

def test_sandwich_lower_side_rows(sqrt2m1, monkeypatch):
    # q = 5, 12, 29, ... tabulated: log P_4 below -tol is a violation of
    # 0 <= log P, log P_11 in (-tol, 0) inconclusive, and log P_28 above
    # 2 log 29 - log 2 + tol a violation of the upper side, listed after
    err = 1e-12
    tol = err + BASE_TOL
    logs = np.full(984, 0.5)
    logs[3], logs[10] = -1.0, -tol / 2.0
    upper = 2.0 * math.log(29) - LOG2
    logs[27] = upper + 1.0
    monkeypatch.setattr(bounds, "kronecker_log_trace",
                        lambda a, n: (logs[:n].copy(), err))
    rep = check_kronecker_sandwich(sqrt2m1, q_max=1000)
    assert rep.violations == [(5, 0.0, -1.0), (29, upper + 1.0, upper)]
    assert rep.inconclusive == [(12, 0.0, -tol / 2.0)]
    assert rep.passed is False


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


def test_report_rows_rule():
    # scalars: one comparison each
    for lhs, violations, inconclusive in ((2.0, [(7, 2.0, 1.0)], []),
                                         (1.2, [], [(7, 1.2, 1.0)]),
                                         (1.0, [], [])):
        rep = BoundReport("t", {}, (7, 7), passed=None)
        bounds._report_rows(rep, 7, lhs, 1.0, 0.5)
        assert (rep.violations, rep.inconclusive) == (violations,
                                                      inconclusive)
        assert rep.passed is (not violations)
    # arrays, with an array tol, in the order of n
    rep = BoundReport("t", {}, (1, 4))
    bounds._report_rows(rep, np.arange(5, 1, -1),
                        np.array([0.0, 1.5, 2.5, 1.0]), 1.0,
                        np.array([1.0, 1.0, 1.0, 0.0]))
    assert rep.violations == [(3, 2.5, 1.0)]
    assert rep.inconclusive == [(4, 1.5, 1.0)]
    assert all(type(row[0]) is int and type(row[1]) is float
               for row in rep.violations + rep.inconclusive)
    assert rep.passed is False
    # rows add to those already there, and the verdict covers them all
    bounds._report_rows(rep, 9, 0.0, 1.0, BASE_TOL)
    assert rep.passed is False and len(rep.violations) == 1
    # nothing compared is no violation
    rep = BoundReport("t", {}, (1, 0), passed=None)
    bounds._report_rows(rep, np.arange(1, 1), np.empty(0), np.empty(0),
                        BASE_TOL)
    assert rep.passed is True
    assert rep.violations == rep.inconclusive == []


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


def test_cesaro_reads_levels_without_digit_sums(sqrt2m1, monkeypatch):
    # the Cesaro bound reads only the Ostrowski levels: with the digit sums
    # unavailable its report is unchanged
    want = check_cesaro_log_bound(sqrt2m1, 2000).to_dict()

    def refuse(*args):
        raise AssertionError("ostrowski_digit_sums called")
    monkeypatch.setattr(bounds, "ostrowski_digit_sums", refuse)
    assert check_cesaro_log_bound(sqrt2m1, 2000).to_dict() == want


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
