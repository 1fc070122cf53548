"""Checkers for the deterministic product bounds.

The bound checkers compare log-space quantities with an explicit tolerance
of (trace error bound + 1e-9). A would-be violation that falls inside the
tolerance is reported as inconclusive rather than failed. `vdc-limits`
compares with closed forms that are identities, to the trace error bound
plus their own rounding, and a gap inside that passes. Conjecture checks
never fail at all, they produce evidence reports.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .discrepancy import (int_sorted_max, kronecker_discrepancy,
                          vdc_discrepancy)
from .irrational import (ConvergentTable, IrrationalSpec, cf_expand_until,
                         kronecker_fixed_point, ostrowski_digit_sums)
from .numerics import LOG2, SUM_CHUNK
from .products import BlockTrace, ProductTrace, product_trace, term_max
from .sequences import (uniform_grid_blocks, van_der_corput,
                        van_der_corput_blocks)

PHI = (1.0 + math.sqrt(5.0)) / 2.0
BASE_TOL = 1e-9
# relative slack of a numpy screen against the scalar math.log formula it
# stands in for: numpy's and math's logs differ by at most an ulp or two
SCREEN_REL = 1e-12
# the Cesaro limsup proxy is the sup of the mean over N >= this
CESARO_PROXY_START = 10 ** 3


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


def kronecker_log_trace(alpha: IrrationalSpec, N: int):
    """(float64 prefix log-products, error bound) for {n alpha}, n = 1..N.

    Points come from the 128-bit fixed-point kernel (`product_trace` of
    the orbit); the bound adds its per-point errors, the float log-term
    rounding and the prefix-sum rounding, and holds for every prefix.
    """
    tr = product_trace(kronecker_fixed_point(alpha, N))
    return tr.log_values, tr.error_bound


def _hlawka_rhs(N: int, delta: float, err: float, eps) -> tuple:
    """(rhs, tol) of the Hlawka check at one N, in scalar arithmetic, for
    an exact Delta (`eps` None) or a Kronecker `delta_at(N)`, which is
    within h = N (eps + 2^-53) of Delta_N (`PrefixDiscrepancy`)."""
    rhs = 2.0 * delta * (math.log(N) - math.log(delta))
    tol = err + BASE_TOL
    if eps is not None:
        # rhs' = 2 (log(N / Delta) - 1) and rhs'' = -2 / Delta, Delta >= 1/2
        # > h: moving Delta by h moves rhs by at most this charge
        h = N * (eps + 2.0 ** -53)
        tol += (2.0 * (abs(math.log(N / delta)) + 1.0) * h
                + h * h / (delta - h))
    return rhs, tol


def check_hlawka(ps_trace: ProductTrace, d_trace, N_min: int = 16,
                 parameters: dict | None = None) -> BoundReport:
    """log P_N <= 2 Delta_N (log N - log Delta_N) for N >= N_min,
    Delta_N = N D_N*.

    `d_trace` is either the exact Delta_N of every N, an array (the vdC
    `vdc_discrepancy`), or a Kronecker `PrefixDiscrepancy`, which gives
    bounds `lower` <= Delta_N <= `upper` for every N and `delta_at(N)`,
    Delta_N in float64. The right-hand side is concave in Delta, so its
    minimum over [lower, upper] sits at an end; the whole range is screened
    with that minimum and numpy's log. Every N that the screen cannot
    clear, and every N whose largest possible gamma reaches the largest
    certain one, is settled with Delta_N and the scalar formula.
    """
    logs = ps_trace.log_values
    if len(logs) != len(d_trace):
        raise ValueError("product and discrepancy traces are not aligned")
    if not 1 <= N_min <= len(logs):
        raise ValueError(f"N_min must be in [1, {len(logs)}], got {N_min}")
    err = ps_trace.error_bound
    report = BoundReport("hlawka", parameters or {}, (N_min, len(logs)))
    N = np.arange(N_min, len(logs) + 1)
    exact = isinstance(d_trace, np.ndarray)
    if exact:
        lo = hi = d_trace[N_min - 1:]
        delta_at, eps = (lambda n: float(d_trace[n - 1])), None
    else:
        lo = d_trace.lower[N_min - 1:]
        hi = d_trace.upper[N_min - 1:]
        delta_at, eps = d_trace.delta_at, d_trace.eps
    lhs = logs[N_min - 1:]
    log_N = np.log(N)

    def rhs(delta):
        return 2.0 * delta * (log_N - np.log(delta))

    rhs_lo = rhs(lo) if exact else np.minimum(rhs(lo), rhs(hi))
    slack = SCREEN_REL * (np.abs(rhs_lo) + 2.0 * hi * log_N)
    for i in np.flatnonzero(lhs > rhs_lo - slack).tolist():
        n, lhs_n = int(N[i]), float(lhs[i])
        r, tol = _hlawka_rhs(n, delta_at(n), err, eps)
        if lhs_n > r + tol:
            report.violations.append((n, lhs_n, r))
        elif lhs_n > r:
            report.inconclusive.append((n, lhs_n, r))
    gamma_hat = 0.0
    i0 = max(0, 2 - N_min)  # gamma needs log N > 0
    if i0 < len(N):
        sq = log_N[i0:] ** 2
        low = rhs_lo[i0:] / sq
        top = low.max()
        # the largest rhs over [lower, upper] is at Delta = N/e, clamped
        peak = low if exact else rhs(np.clip(N / math.e, lo, hi))[i0:] / sq
        near = np.flatnonzero(peak >= top - SCREEN_REL * abs(top)) + i0
        for i in near.tolist():
            n = int(N[i])
            r, _ = _hlawka_rhs(n, delta_at(n), err, eps)
            gamma_hat = max(gamma_hat, r / math.log(n) ** 2)
    report.passed = not report.violations
    report.empirical_constants["gamma_hat"] = gamma_hat
    return report


def check_kronecker_sandwich(alpha: IrrationalSpec,
                             q_max: int = 10 ** 5) -> BoundReport:
    """1 <= P_{q-1} <= q^2/2 at every best approximation denominator q."""
    table = cf_expand_until(alpha, q_max)
    tabulated = sorted(set(q for q in table.q if 2 <= q <= q_max))
    if not tabulated:
        raise ValueError("no denominators >= 2 below q_max")
    logs, err = kronecker_log_trace(alpha, max(tabulated) - 1)
    tol = err + BASE_TOL
    report = BoundReport("kronecker-sandwich",
                         {"alpha": str(alpha), "q_max": q_max},
                         (min(tabulated), max(tabulated)))
    ratio_max = 0.0
    for q in tabulated:
        lp = float(logs[q - 2])
        upper = 2.0 * math.log(q) - LOG2
        ratio_max = max(ratio_max, math.exp(lp - math.log(q)))
        if lp < -tol or lp > upper + tol:
            report.violations.append((q, lp, upper))
        elif lp < 0.0 or lp > upper:
            report.inconclusive.append((q, lp, upper))
    report.passed = not report.violations
    report.empirical_constants["max_P_over_q"] = ratio_max
    return report


def _report_rows(report: BoundReport, lhs, rhs, tol) -> None:
    """Append (N, lhs, rhs) rows for N = 1..len(lhs): violations above
    rhs + tol, inconclusive between rhs and rhs + tol."""
    over = lhs > rhs + tol
    for i in np.flatnonzero(lhs > rhs).tolist():
        row = (i + 1, float(lhs[i]), float(rhs[i]))
        (report.violations if over[i] else report.inconclusive).append(row)


def check_ostrowski_bound(alpha: IrrationalSpec, N_max: int = 10 ** 4) -> BoundReport:
    """log P_N <= sum_i (b_i log 2 + 3 log q_i) with canonical digits."""
    table = cf_expand_until(alpha, N_max)
    logs, err = kronecker_log_trace(alpha, N_max)
    tol = err + BASE_TOL
    # cumulative 3 * sum_{i<=l} log q_i
    logq_cum = []
    acc = 0.0
    for q in table.q:
        acc += math.log(q)
        logq_cum.append(3.0 * acc)
    report = BoundReport("ostrowski", {"alpha": str(alpha), "N_max": N_max},
                         (1, N_max))
    levels, digit_sum = ostrowski_digit_sums(table, N_max)
    rhs = digit_sum * LOG2 + np.array(logq_cum)[levels]
    _report_rows(report, logs, rhs, tol)
    report.passed = not report.violations
    report.empirical_constants["min_slack"] = float(np.min(rhs - logs))
    return report


def cesaro_bound_value(table: ConvergentTable, l: int) -> float:
    """(log 2)(1/q_l + l / 2^((l-3)/2)) + 3 (log q_l / q_l)(log q_l / log phi + 1)."""
    ql = table.q[l]
    t1 = LOG2 * (1.0 / ql + l / 2.0 ** ((l - 3) / 2.0))
    lq = math.log(ql) if ql > 1 else 0.0
    t2 = 3.0 * (lq / ql) * (lq / math.log(PHI) + 1.0)
    return t1 + t2


def check_cesaro_log_bound(alpha: IrrationalSpec,
                           N_max: int = 10 ** 4) -> BoundReport:
    """Cesaro mean (1/N) log P_N against the digit-sum bound, plus the
    running sup proxy for its limsup tending to zero."""
    table = cf_expand_until(alpha, N_max)
    logs, err = kronecker_log_trace(alpha, N_max)
    report = BoundReport("cesaro", {"alpha": str(alpha), "N_max": N_max},
                         (1, N_max))
    N = np.arange(1, N_max + 1)
    means = logs / N
    levels, _ = ostrowski_digit_sums(table, N_max)
    bound = np.array([cesaro_bound_value(table, l)
                      for l in range(int(levels[-1]) + 1)])
    _report_rows(report, means, bound[levels], (err + BASE_TOL) / N)
    report.passed = not report.violations
    # suffix maxima: sup over N' >= N of the Cesaro mean
    suffix = np.maximum.accumulate(means[::-1])[::-1]
    lo = min(CESARO_PROXY_START, N_max)
    report.empirical_constants["limsup_proxy"] = float(suffix[lo - 1])
    report.empirical_constants["mean_at_q_minus_1"] = {
        int(q): float(means[q - 2])
        for q in table.q if 2 <= q - 1 <= N_max
    }
    return report


def check_type_growth(alpha: IrrationalSpec, N_max: int, t: float) -> BoundReport:
    """Reports the empirical sup of log2 P_N / N^(1 - 1/t); never asserts a
    universal constant."""
    if not t > 1.0:
        raise ValueError("t must exceed 1")
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


def check_vdc_limits(s_max: int = 18) -> BoundReport:
    """Structure of the van der Corput products per octave [2^s, 2^(s+1)):

    (a) P at n1 = 2^(s+1)-2 equals 2^s / sin(pi/2^(s+1));
    (b) P_n / n^2 at n1 approaches 1/(2 pi);
    (c) the octave minimum sits at n = 2^s with value 2^(s+1) sin(pi/2^(s+1));
    (d) the global maximum below 2^(s+1) sits at n1.

    (a) and (c) are identities, so a gap within the tolerance passes: the
    trace's error bound, which holds for every prefix, plus the float
    rounding of the closed form.

    The points stream through a `BlockTrace` in blocks
    (`van_der_corput_blocks`); each block is cut at the octave starts, and
    what the checks read is carried: the log-product at n1 and at 2^s, each
    octave's first argmin and the running first argmax at each octave's
    end.
    """
    if not 1 <= s_max <= 24:
        raise ValueError("s_max must be in [1, 24]")
    n_top = 2 ** (s_max + 1) - 1
    # the smallest distance to 0 or 1 is 2^-(s_max+1), the largest 1/2
    trace = BlockTrace(n_top, term_max(np.array([0.5 ** (s_max + 1), 0.5])))
    out = np.empty(min(n_top, SUM_CHUNK))
    at_n1, first, low = {}, {}, {}  # per octave: values, (value, index)
    peak = {}  # the running (max, first index) at each octave's end
    best = (-math.inf, 0)
    start = 0
    for block in van_der_corput_blocks(n_top):
        # dyadics with at most 25 bits are exact in float64
        cum = trace.feed(block, out=out[:len(block)])
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
        start = end
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
                                N_max: int = 500) -> BoundReport:
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
    """Hlawka bound for the single grid k/(N+1): P_N is exactly N+1 and the
    bound evaluates to (N+1)^(2N/(N+1)) <= (N+1)^2.

    The grid is sorted, so it streams in blocks (`uniform_grid_blocks`)
    twice: through a `BlockTrace` for log P_N, and through
    `int_sorted_max` for Delta_N."""
    blocks = uniform_grid_blocks(N)
    den = N + 1
    # the smallest distances to 0 or 1 are at 1 and N, the largest near
    # (N+1)/2, on either side
    ends = np.array([1, N, den // 2, den - den // 2]) / den
    trace = BlockTrace(N, term_max(ends))
    out = np.empty(min(N, SUM_CHUNK))
    for block in blocks:
        lhs = float(trace.feed(block, out=out[:len(block)])[-1])
    err = trace.error_bound()
    del trace, out  # the trace's block arrays go before the next pass's
    m, _ = int_sorted_max((b.numerators for b in uniform_grid_blocks(N)),
                          den, N)
    delta = float(Fraction(m, den))
    rhs = 2.0 * delta * (math.log(N) - math.log(delta))
    report = BoundReport("hlawka", {"gen": "grid", "N": N}, (N, N))
    if lhs > rhs + err + BASE_TOL:
        report.violations.append((N, lhs, rhs))
    report.passed = not report.violations
    report.empirical_constants["P_N"] = math.exp(lhs)
    report.empirical_constants["bound"] = math.exp(rhs)
    return report


def hlawka_sequence_report(kind: str, N_max: int = 10 ** 4, N_min: int = 16,
                           alpha: IrrationalSpec | None = None) -> BoundReport:
    """Hlawka check over all prefixes of the van der Corput or Kronecker
    sequence."""
    if kind == "vdc":
        points, discrepancy = van_der_corput(N_max), vdc_discrepancy
        params = {"gen": "vdc", "N_max": N_max}
    elif kind == "kronecker":
        if alpha is None:
            raise ValueError("kronecker generator needs alpha")
        points = kronecker_fixed_point(alpha, N_max)
        discrepancy = kronecker_discrepancy
        params = {"gen": "kronecker", "alpha": str(alpha), "N_max": N_max}
    else:
        raise ValueError(f"unknown generator {kind!r}")
    return check_hlawka(product_trace(points), discrepancy(points),
                        N_min=N_min, parameters=params)
