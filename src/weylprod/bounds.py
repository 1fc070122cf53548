"""Checkers for the deterministic product bounds.

One rule turns every bound check lhs <= rhs into a verdict
(`_report_rows`): with tol the trace's error bound + `BASE_TOL`, plus any
charge for an inexact rhs, a row (N, lhs, rhs) is a violation above
rhs + tol and inconclusive in (rhs, rhs + tol], and a report passes when
it has no violation. Three verdicts stay outside the rule on purpose:
`check_vdc_limits` compares with identities (closed forms, to the trace's
error bound plus their rounding, and exact argmin and argmax positions),
so a gap within its tolerance passes; the extremal sweep's report (`cli`)
counts only failures at N >= 64, as its bounds are asymptotic; and the
evidence reports (`type-growth`, `conjectures`) compare nothing and never
fail. The Hlawka rows come from one block consumer, `HlawkaScreen`, which
both sequences' streams feed block by block (`hlawka_sequence_report`);
`check_hlawka`'s slices of whole traces serve only the array form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .discrepancy import kronecker_discrepancy, vdc_discrepancy
from .irrational import (ConvergentTable, IrrationalSpec, cf_expand_until,
                         kronecker_fixed_point, ostrowski_digit_sums,
                         ostrowski_levels)
from .numerics import BASE_TOL, LOG2, SUM_CHUNK, Scratch
from .products import BlockTrace, ProductTrace, product_trace, term_max
from .sequences import uniform_grid_blocks, van_der_corput_blocks

PHI = (1.0 + math.sqrt(5.0)) / 2.0
# relative slack of a numpy screen against the scalar math.log formula it
# stands in for: numpy's and math's logs differ by at most an ulp or two
SCREEN_REL = 1e-12
# the Cesaro limsup proxy is the sup of the mean over N >= this
CESARO_PROXY_START = 10 ** 3
# check_vdc_limits checks the octaves s = 1..s_max, s_max at most this
VDC_MAX_S = 24


@dataclass
class BoundReport:
    """Outcome of one checker over a range of N."""

    theorem: str
    parameters: dict
    n_range: tuple
    violations: list = field(default_factory=list)
    inconclusive: list = field(default_factory=list)
    passed: bool | None = True  # None: nothing was compared
    empirical_constants: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return {
            "theorem": self.theorem,
            "params": self.parameters,
            "n_range": list(self.n_range),
            "passed": self.passed,
            "violations": [list(v) for v in self.violations],
            "inconclusive": [list(v) for v in self.inconclusive],
            "empirical_constants": self.empirical_constants,
        }


def _report_rows(report: BoundReport, n, lhs, rhs, tol) -> None:
    """The verdict of the comparisons lhs <= rhs (+ tol) at the N in `n`:
    append an (N, lhs, rhs) row to the violations where lhs > rhs + tol,
    and to the inconclusive rows where rhs < lhs <= rhs + tol, in the order
    of `n`; then set `passed` to whether the report has no violation. Each
    of n, lhs, rhs and tol is a scalar or an array, broadcast together."""
    n, lhs, rhs, tol = np.broadcast_arrays(np.atleast_1d(n), lhs, rhs, tol)
    over = lhs > rhs + tol
    for i in np.flatnonzero(lhs > rhs).tolist():
        row = (int(n[i]), float(lhs[i]), float(rhs[i]))
        (report.violations if over[i] else report.inconclusive).append(row)
    report.passed = not report.violations


def kronecker_log_trace(alpha: IrrationalSpec, N: int):
    """(float64 prefix log-products, error bound) for {n alpha}, n = 1..N.

    Points come from the 128-bit fixed-point kernel (`product_trace` of
    the orbit); the bound adds its per-point errors, the float log-term
    rounding and the prefix-sum rounding, and holds for every prefix.
    """
    tr = product_trace(kronecker_fixed_point(alpha, N))
    return tr.log_values, tr.error_bound


def _hlawka_rhs(N: int, delta: float, err: float, h: float) -> tuple:
    """(rhs, tol) of the Hlawka check at one N, in scalar arithmetic, for
    a Delta within h of Delta_N: 0 for an exact one, and a Kronecker
    `delta_at(N)`'s `margin(N)` (`PrefixDiscrepancy`)."""
    rhs = 2.0 * delta * (math.log(N) - math.log(delta))
    # rhs' = 2 (log(N / Delta) - 1) and rhs'' = -2 / Delta, Delta >= 1/2
    # > h: moving Delta by h moves rhs by at most this charge, 0 at h = 0
    tol = err + BASE_TOL + (2.0 * (abs(math.log(N / delta)) + 1.0) * h
                            + h * h / (delta - h))
    return rhs, tol


def _screen_rhs(delta, log_N, out):
    """The Hlawka right-hand side 2 Delta (log N - log Delta) in numpy,
    written to `out` (doubling is exact, so doing it last moves no bit)."""
    r = np.log(delta, out=out)
    np.subtract(log_N, r, out=r)
    r *= delta
    r *= 2.0
    return r


class HlawkaScreen:
    """Block consumer of the Hlawka check log P_N <= 2 Delta_N (log N -
    log Delta_N), Delta_N = N D_N*, for N_min <= N <= N_max: blocks of
    log P_N and of bounds lower <= Delta_N <= upper are fed in order of N
    (`feed`), and `report` gives the verdict once all are fed.

    `bracket` is None where both bounds are Delta_N itself, exact;
    otherwise it gives `delta_at(N)`, Delta_N in float64, within
    `margin(N)` of it (`PrefixDiscrepancy`). The right-hand side is
    concave in Delta, so its minimum over [lower, upper] sits at an end;
    each block is screened with that minimum and numpy's log, in five work
    arrays kept from block to block (a `Scratch`). Every N that the screen
    cannot clear is kept from its block with its lhs and lower bound, and
    classified at the end by the scalar formula at Delta_N (`_rhs`),
    against the trace's final error bound. So is every N whose largest
    possible gamma = rhs / log^2 N reaches the running top of the certain
    ones; the top only rises, so the final top finds every final candidate
    among the kept ones. The screen works element by element, so block
    edges move no row and no candidate.
    """

    def __init__(self, N_min: int, N_max: int, bracket):
        if not 1 <= N_min <= N_max:
            raise ValueError(f"N_min must be in [1, {N_max}], got {N_min}")
        self.n_range, self.bracket = (N_min, N_max), bracket
        self.work = Scratch(min(N_max, SUM_CHUNK))
        self.steps = np.arange(1.0, min(N_max, SUM_CHUNK) + 1.0)
        self.rows = []  # (N, lhs, lower) that the screen cannot clear
        self.near = []  # (largest possible gamma, N, lower) of candidates
        self.top = -math.inf

    def feed(self, lhs, lower, upper, s: int) -> None:
        """Screen N = s + 1 .. s + len(lhs) from N_min on; an exact Delta
        skips the bracket's formulas, which would give the same bits."""
        k = max(0, self.n_range[0] - 1 - s)
        lhs, lo, hi, s = lhs[k:], lower[k:], upper[k:], s + k
        exact, b, get = self.bracket is None, len(lhs), self.work.get
        N = np.add(self.steps[:b], s, out=get(0, b))
        log_N = np.log(N, out=get(1, b))
        rhs_lo = _screen_rhs(lo, log_N, get(2, b))
        if not exact:
            np.minimum(rhs_lo, _screen_rhs(hi, log_N, get(3, b)), out=rhs_lo)
        # cleared: lhs <= rhs_lo - SCREEN_REL (|rhs_lo| + 2 hi log N)
        cleared = np.multiply(hi, log_N, out=get(3, b))
        cleared *= 2.0
        cleared += np.abs(rhs_lo, out=get(4, b))
        cleared *= SCREEN_REL
        i = np.flatnonzero(lhs > np.subtract(rhs_lo, cleared, out=cleared))
        self.rows += zip((i + (s + 1)).tolist(), lhs[i].tolist(),
                         lo[i].tolist())
        j = max(0, 1 - s)  # gamma needs log N > 0
        if j < b:
            sq = np.square(log_N[j:], out=get(3, b)[j:])
            peak = np.divide(rhs_lo[j:], sq, out=get(4, b)[j:])
            self.top = max(self.top, peak.max())
            if not exact:
                # the largest rhs is at Delta = N/e, clamped; the screen
                # is done with N and rhs_lo, so their arrays are reused
                N /= math.e
                peak = _screen_rhs(np.clip(N, lo, hi, out=N), log_N,
                                   get(2, b))[j:]
                peak /= sq
            cut = self.top - SCREEN_REL * abs(self.top)
            i = np.flatnonzero(peak >= cut) + j
            self.near = [c for c in self.near if c[0] >= cut] + list(zip(
                peak[i - j].tolist(), (i + (s + 1)).tolist(), lo[i].tolist()))

    def report(self, err: float, parameters: dict) -> BoundReport:
        """The verdict over every N fed, each log P_N within `err`."""
        report = BoundReport("hlawka", parameters, self.n_range)
        for n, lhs, lower in self.rows:
            _report_rows(report, n, lhs, *self._rhs(n, lower, err))
        cut = self.top - SCREEN_REL * abs(self.top)
        gamma_hat = 0.0
        for p, n, lower in self.near:
            if p >= cut:
                r, _ = self._rhs(n, lower, err)
                gamma_hat = max(gamma_hat, r / math.log(n) ** 2)
        report.empirical_constants["gamma_hat"] = gamma_hat
        return report

    def _rhs(self, n: int, lower: float, err: float) -> tuple:
        """`_hlawka_rhs` at N of Delta_N: `lower` where it is exact, else
        the bracket's `delta_at(N)`, charged its `margin(N)`."""
        if self.bracket is None:
            return _hlawka_rhs(n, lower, err, 0.0)
        return _hlawka_rhs(n, self.bracket.delta_at(n), err,
                           self.bracket.margin(n))


def check_hlawka(ps_trace: ProductTrace, d_trace, N_min: int,
                 parameters: dict) -> BoundReport:
    """The `HlawkaScreen` report of a whole trace fed in SUM_CHUNK blocks,
    beside slices of exact Delta_N (an array) or a bracket's `blocks()`."""
    logs = ps_trace.log_values
    if len(logs) != len(d_trace):
        raise ValueError("product and discrepancy traces are not aligned")
    exact = isinstance(d_trace, np.ndarray)
    screen = HlawkaScreen(N_min, len(logs), None if exact else d_trace)
    starts = range(0, len(logs), SUM_CHUNK)
    pairs = (((d_trace[s:s + SUM_CHUNK],) * 2 for s in starts) if exact
             else d_trace.blocks())
    for s, (lower, upper) in zip(starts, pairs):
        screen.feed(logs[s:s + SUM_CHUNK], lower, upper, s)
    return screen.report(ps_trace.error_bound, parameters)


def check_kronecker_sandwich(alpha: IrrationalSpec, q_max: int) -> BoundReport:
    """1 <= P_{q-1} <= q^2/2 at every best approximation denominator q;
    a row of the lower side reads (q, 0, log P_{q-1})."""
    table = cf_expand_until(alpha, q_max)
    tabulated = sorted(set(q for q in table.q if 2 <= q <= q_max))
    if not tabulated:
        raise ValueError("no denominators >= 2 below q_max")
    logs, err = kronecker_log_trace(alpha, max(tabulated) - 1)
    tol = err + BASE_TOL
    report = BoundReport("kronecker-sandwich",
                         {"alpha": str(alpha), "q_max": q_max},
                         (min(tabulated), max(tabulated)))
    lp = logs[np.array(tabulated) - 2]
    upper = [2.0 * math.log(q) - LOG2 for q in tabulated]
    _report_rows(report, tabulated, 0.0, lp, tol)
    _report_rows(report, tabulated, lp, upper, tol)
    report.empirical_constants["max_P_over_q"] = max(
        math.exp(v - math.log(q)) for q, v in zip(tabulated, lp.tolist()))
    return report


def check_ostrowski_bound(alpha: IrrationalSpec, N_max: int) -> BoundReport:
    """log P_N <= sum_i (b_i log 2 + 3 log q_i) with canonical digits."""
    table = cf_expand_until(alpha, N_max)
    logs, err = kronecker_log_trace(alpha, N_max)
    tol = err + BASE_TOL
    # cumulative 3 * sum_{i<=l} log q_i
    logq_cum = 3.0 * np.cumsum([math.log(q) for q in table.q])
    report = BoundReport("ostrowski", {"alpha": str(alpha), "N_max": N_max},
                         (1, N_max))
    levels, digit_sum = ostrowski_digit_sums(table, N_max)
    rhs = digit_sum * LOG2 + logq_cum[levels]
    _report_rows(report, np.arange(1, N_max + 1), logs, rhs, tol)
    report.empirical_constants["min_slack"] = float(np.min(rhs - logs))
    return report


def cesaro_bound_value(table: ConvergentTable, l: int) -> float:
    """(log 2)(1/q_l + l / 2^((l-3)/2)) + 3 (log q_l / q_l)(log q_l / log phi + 1)."""
    ql = table.q[l]
    t1 = LOG2 * (1.0 / ql + l / 2.0 ** ((l - 3) / 2.0))
    lq = math.log(ql) if ql > 1 else 0.0
    t2 = 3.0 * (lq / ql) * (lq / math.log(PHI) + 1.0)
    return t1 + t2


def check_cesaro_log_bound(alpha: IrrationalSpec, N_max: int) -> BoundReport:
    """Cesaro mean (1/N) log P_N against the digit-sum bound, plus the
    running sup proxy for its limsup tending to zero."""
    table = cf_expand_until(alpha, N_max)
    logs, err = kronecker_log_trace(alpha, N_max)
    report = BoundReport("cesaro", {"alpha": str(alpha), "N_max": N_max},
                         (1, N_max))
    N = np.arange(1, N_max + 1)
    means = logs / N
    levels = ostrowski_levels(table, N_max)
    bound = np.array([cesaro_bound_value(table, l)
                      for l in range(int(levels[-1]) + 1)])
    _report_rows(report, N, means, bound[levels], (err + BASE_TOL) / N)
    # the sup of the Cesaro mean over N >= the proxy's start
    lo = min(CESARO_PROXY_START, N_max)
    report.empirical_constants["limsup_proxy"] = float(means[lo - 1:].max())
    report.empirical_constants["mean_at_q_minus_1"] = {
        int(q): float(means[q - 2])
        for q in table.q if 2 <= q - 1 <= N_max
    }
    return report


def check_type_growth(alpha: IrrationalSpec, N_max: int, t: float) -> BoundReport:
    """Reports the empirical sup of log2 P_N / N^(1 - 1/t); never asserts a
    universal constant."""
    if not 1.0 < t < math.inf:
        raise ValueError("t must exceed 1 and be finite")
    logs, _ = kronecker_log_trace(alpha, N_max)
    n = np.arange(1, N_max + 1, dtype=np.float64)
    ratios = (logs / LOG2) / n ** (1.0 - 1.0 / t)
    report = BoundReport("type-growth",
                         {"alpha": str(alpha), "N_max": N_max, "t": t},
                         (1, N_max))
    report.empirical_constants["C_sup"] = float(np.max(ratios))
    report.empirical_constants["C_at_N_max"] = float(ratios[-1])
    report.passed = bool(np.isfinite(ratios).all())
    return report


def check_vdc_limits(s_max: int) -> BoundReport:
    """Structure of the van der Corput products per octave [2^s, 2^(s+1)):

    (a) P at n1 = 2^(s+1)-2 equals 2^s / sin(pi/2^(s+1));
    (b) P_n / n^2 at n1 approaches 1/(2 pi);
    (c) the octave minimum sits at n = 2^s with value 2^(s+1) sin(pi/2^(s+1));
    (d) the global maximum below 2^(s+1) sits at n1.

    (a) and (c) are identities, so a gap within the tolerance passes: the
    trace's error bound, which holds for every prefix, plus the float
    rounding of the closed form.

    The points stream through `_vdc_trace` in blocks, each cut at the
    octave starts, and what the checks read is carried: the log-product at
    n1 and at 2^s, each octave's first argmin and the running first argmax
    at each octave's end.
    """
    if not 1 <= s_max <= VDC_MAX_S:
        raise ValueError(f"s_max must be in [1, {VDC_MAX_S}]")
    n_top = 2 ** (s_max + 1) - 1
    trace = _vdc_trace(n_top)
    at_n1, first, low = {}, {}, {}  # per octave: values, (value, index)
    peak = {}  # the running (max, first index) at each octave's end
    best = (-math.inf, 0)
    # dyadics with at most 25 bits are exact in float64
    for start, cum in zip(range(0, n_top, SUM_CHUNK),
                          map(trace.prefix, van_der_corput_blocks(n_top))):
        i, end = start, start + len(cum)
        while i < end:
            s = (i + 1).bit_length() - 1  # the octave of n = i + 1
            j = min(end, 2 ** (s + 1) - 1)
            piece = cum[i - start:j - start]
            if i == 2 ** s - 1:
                first[s] = float(piece[0])
            if i <= 2 ** (s + 1) - 3 < j:
                at_n1[s] = float(cum[2 ** (s + 1) - 3 - start])
            k = int(np.argmin(piece))
            if s not in low or piece[k] < low[s][0]:
                low[s] = (float(piece[k]), i + k)
            k = int(np.argmax(piece))
            if piece[k] > best[0]:
                best = (float(piece[k]), i + k)
            if j == 2 ** (s + 1) - 1:
                peak[s] = best
            i = j
    report = BoundReport("vdc-limits", {"s_max": s_max}, (1, n_top))
    peak_ratios = {}
    min_ratios = {}
    for s in range(1, s_max + 1):
        n1 = 2 ** (s + 1) - 2
        lhs = at_n1[s]
        log_sin = math.log(math.sin(math.pi / 2 ** (s + 1)))
        rhs = s * LOG2 - log_sin
        min_rhs = (s + 1) * LOG2 + log_sin
        # Rounding of both closed forms, against A = (s + 1) log 2 - log_sin,
        # which is >= 2 log 2 (log_sin < 0): LOG2 is ln 2 rounded to nearest,
        # so k LOG2 is within 2 2^-53 k log 2 after its product rounds. pi's
        # rounding moves pi/2^(s+1), and so its sine, by 2^-53 relative and
        # sin adds under 2^-52: the log moves by under 3 2^-53 and rounds by
        # under 2 2^-53 |log_sin|. The sum rounds by 2^-53 A. In all under
        # 8 2^-53 A = 2^-50 A.
        tol = trace.error_bound() + 2.0 ** -50 * ((s + 1) * LOG2 - log_sin)
        if abs(lhs - rhs) > tol:
            report.violations.append((n1, lhs, rhs))
        peak_ratios[s] = math.exp(lhs - 2.0 * math.log(n1))
        lo = 2 ** s
        min_val, k_min = low[s]
        if k_min != lo - 1:
            report.violations.append((k_min + 1, min_val, first[s]))
        if abs(min_val - min_rhs) > tol:
            report.violations.append((lo, min_val, min_rhs))
        min_ratios[s] = math.exp(min_val)
        # the global-argmax claim is asymptotic and genuinely false at s = 1
        # (P_3 = 4 > P_2); it holds from s = 2 on at desk scale
        if s >= 2:
            max_val, k_max = peak[s]
            if k_max + 1 != n1:
                report.violations.append((k_max + 1, max_val, lhs))
    report.passed = not report.violations
    report.empirical_constants["peak_over_n2"] = peak_ratios
    report.empirical_constants["octave_min"] = min_ratios
    report.empirical_constants["limsup_target"] = 1.0 / (2.0 * math.pi)
    report.empirical_constants["liminf_target"] = math.pi
    return report


def check_kronecker_conjectures(alpha: IrrationalSpec,
                                N_max: int) -> BoundReport:
    """Evidence report: per-interval argmax positions of P_N over
    [q_l, q_{l+1}) and the running max of (1/q) P_{q-1}. Never fails."""
    table = cf_expand_until(alpha, N_max + 1)
    logs, _ = kronecker_log_trace(alpha, N_max)
    report = BoundReport("conjectures", {"alpha": str(alpha), "N_max": N_max},
                         (1, N_max))
    argmax_rows = []
    for l in range(len(table.q) - 1):
        lo, hi = table.q[l], table.q[l + 1]
        if hi > N_max or lo == hi:
            continue
        seg = logs[lo - 1:hi - 1]
        found = lo + int(np.argmax(seg))
        argmax_rows.append({"l": l, "expected": hi - 1, "found": found,
                            "match": found == hi - 1})
    running = []
    best = 0.0
    for q in table.q:
        if q < 2 or q - 1 > N_max:
            continue
        best = max(best, math.exp(float(logs[q - 2]) - math.log(q)))
        running.append({"q": q, "running_max_P_over_q": best})
    report.empirical_constants["argmax_per_interval"] = argmax_rows
    report.empirical_constants["normalized_running_max"] = running
    report.empirical_constants["all_argmax_match"] = all(
        r["match"] for r in argmax_rows)
    report.passed = True
    return report


def grid_hlawka_report(N: int) -> BoundReport:
    """Hlawka bound for the single grid k/(N+1): P_N is exactly N+1, and
    D_N* is exactly 1/(N+1), attained at the first and the last point, so
    Delta_N = N/(N+1) and the bound evaluates to
    (N+1)^(2N/(N+1)) <= (N+1)^2.

    The grid is sorted, so it streams once, in blocks
    (`uniform_grid_blocks`), through a `BlockTrace` for log P_N."""
    den = N + 1
    # the smallest distances to 0 or 1 are at 1 and N, the largest near
    # (N+1)/2, on either side
    ends = np.array([1, N, den // 2, den - den // 2]) / den
    trace = BlockTrace(N, term_max(ends))
    for cum in map(trace.prefix, uniform_grid_blocks(N)):
        lhs = float(cum[-1])
    # Delta_N = N D_N* = N/(N+1), correctly rounded
    rhs, tol = _hlawka_rhs(N, N / den, trace.error_bound(), 0.0)
    report = BoundReport("hlawka", {"gen": "grid", "N": N}, (N, N))
    _report_rows(report, N, lhs, rhs, tol)
    report.empirical_constants["P_N"] = math.exp(lhs)
    report.empirical_constants["bound"] = math.exp(rhs)
    return report


def _vdc_trace(N: int) -> BlockTrace:
    """The `BlockTrace` of the first N van der Corput points, over 2^L,
    L = bitlen(N): their distances to 0 or 1 run from 2^-L (n = 2^(L-1))
    to 1/2 (n = 1), so `term_max` of those ends is that of all of them."""
    return BlockTrace(N, term_max(np.array([0.5 ** N.bit_length(), 0.5])))


def hlawka_sequence_report(kind: str, N_max: int, N_min: int,
                           alpha: IrrationalSpec | None = None) -> BoundReport:
    """Hlawka check over all prefixes of the van der Corput or Kronecker
    sequence, in one loop over blocks (points, lower, upper): its
    `HlawkaScreen` reads log P_N, from a `BlockTrace` of the points, beside
    the exact Delta_N of `vdc_discrepancy` or `kronecker_discrepancy`'s
    bracket."""
    starts = range(0, N_max, SUM_CHUNK)
    if kind == "kronecker":
        if alpha is None:
            raise ValueError("kronecker generator needs alpha")
        orbit = kronecker_fixed_point(alpha, N_max)
        trace = BlockTrace(N_max, term_max(orbit.dist))
        bracket = kronecker_discrepancy(orbit)
        blocks = ((orbit[s:s + SUM_CHUNK], lower, upper)
                  for s, (lower, upper) in zip(starts, bracket.blocks()))
        params = {"gen": kind, "alpha": str(alpha)}
    elif kind == "vdc":  # vdc_discrepancy refuses N_max < 1
        blocks = ((x, d, d) for x, d in vdc_discrepancy(N_max))
        bracket, trace, params = None, _vdc_trace(N_max), {"gen": kind}
    else:
        raise ValueError(f"unknown generator {kind!r}")
    screen = HlawkaScreen(N_min, N_max, bracket)
    for s, (points, lower, upper) in zip(starts, blocks):
        screen.feed(trace.prefix(points), lower, upper, s)
    return screen.report(trace.error_bound(), {**params, "N_max": N_max})
