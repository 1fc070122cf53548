"""References that the fast paths are checked against: log(2 sin pi x) and
its prefix sums in mpf, the compensated sum as one chunk loop, and the whole-array forms of the streamed rational
checkers (`grid_hlawka_report`, `check_vdc_limits`), which hold every
point, term and prefix sum."""

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from weylprod.bounds import BASE_TOL, BoundReport
from weylprod.discrepancy import star_discrepancy
from weylprod import numerics
from weylprod.numerics import LOG2
from weylprod.products import product_trace
from weylprod.sequences import PointSet, uniform_grid, van_der_corput


def log_two_sin_pi_mp(x, prec: int):
    """log(2 sin(pi x)) as an mpf, evaluated at `prec` bits.

    mpmath's sinpi reduces the argument exactly, which is what makes points
    within 2^-p of an integer safe to use here.
    """
    with mpmath.mp.workprec(prec):
        return mpmath.log(2 * mpmath.sinpi(x))


@dataclass
class MpfTrace:
    """log P_1 .. log P_N as a list of mpf, with a bound on the error of
    every entry."""

    log_values: list
    error_bound: float


def mpf_trace(ps, prec: int) -> MpfTrace:
    """Log-space prefix products of the mpf points of `ps` (a PointSet or a
    sequence), accumulated at `prec` + 8 bits.

    Each term is charged 4 ulps at `prec` bits, relative to 1 + |term|, and
    the point set's `point_error` through the slope of log(2 sin pi x).
    Kronecker points never reach 0 or 1, so there is no zero product to
    handle.
    """
    pts = list(ps.points if isinstance(ps, PointSet) else ps)
    pt_err = ps.point_error if isinstance(ps, PointSet) else 0.0
    logs = []
    err = 0.0
    term_ulp = math.ldexp(1.0, -prec)
    with mpmath.mp.workprec(prec + 8):
        run = mpmath.mpf(0)
        for x in pts:
            t = log_two_sin_pi_mp(x, prec + 8)
            run = run + t
            logs.append(run)
            if pt_err:
                # |d/dx log(2 sin pi x)| = pi |cot(pi x)| <= 1 / min(x, 1-x)
                err += 1.6 * pt_err / float(min(x, 1 - x))
            err += 4.0 * term_ulp * (1.0 + abs(float(t)))
    return MpfTrace(logs, err)


def compensated_cumsum_by_chunks(a: np.ndarray) -> tuple:
    """`numerics.compensated_cumsum` as one loop over chunks of SUM_CHUNK
    terms, before its carried state became `numerics.PrefixSum`: (prefix
    sums of finite `a`, a bound on the error of every prefix)."""
    a = np.asarray(a, dtype=np.float64)
    n = len(a)
    out = np.empty_like(a)
    if n == 0:
        return out, 0.0
    amax = max(abs(float(a.max())), abs(float(a.min())))
    if not math.isfinite(amax):
        raise ValueError("compensated_cumsum needs finite terms")
    # |a_i| 2^k < 2^52 keeps each rounded term exact
    k = min(52 - math.frexp(amax)[1], 62 - math.frexp(n * amax + 1.0)[1])
    carry_hi, carry_lo, out_max = 0, 0.0, 0.0
    chunk = numerics.SUM_CHUNK
    for s in range(0, n, chunk):
        part = a[s:s + chunk]
        hi = np.rint(np.ldexp(part, k))
        lo = (part - np.ldexp(hi, -k)).cumsum()
        lo += carry_lo
        ints = hi.astype(np.int64).cumsum()
        ints += carry_hi
        res = out[s:s + chunk]
        np.ldexp(ints.astype(np.float64), -k, out=res)
        res += lo
        carry_hi, carry_lo = int(ints[-1]), float(lo[-1])
        out_max = max(out_max, float(np.abs(res).max()))
    return out, 2.0 ** -51 * (out_max + math.ldexp(n * n, -k - 1))


def check_vdc_limits(s_max: int = 18) -> BoundReport:
    """Structure of the van der Corput products per octave [2^s, 2^(s+1)):

    (a) P at n1 = 2^(s+1)-2 equals 2^s / sin(pi/2^(s+1));
    (b) P_n / n^2 at n1 approaches 1/(2 pi);
    (c) the octave minimum sits at n = 2^s with value 2^(s+1) sin(pi/2^(s+1));
    (d) the global maximum below 2^(s+1) sits at n1.

    (a) and (c) are identities, so a gap within the tolerance passes: the
    trace's error bound, which holds for every prefix, plus the float
    rounding of the closed form.
    """
    if not 1 <= s_max <= 24:
        raise ValueError("s_max must be in [1, 24]")
    n_top = 2 ** (s_max + 1) - 1
    # dyadics with at most 25 bits are exact in float64
    tr = product_trace(van_der_corput(n_top))
    cum = tr.log_values
    report = BoundReport("vdc-limits", {"s_max": s_max}, (1, n_top))
    peak_ratios = {}
    min_ratios = {}
    for s in range(1, s_max + 1):
        n1 = 2 ** (s + 1) - 2
        lhs = float(cum[n1 - 1])
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
        tol = tr.error_bound + 2.0 ** -50 * ((s + 1) * LOG2 - log_sin)
        if abs(lhs - rhs) > tol:
            report.violations.append((n1, lhs, rhs))
        peak_ratios[s] = math.exp(lhs - 2.0 * math.log(n1))
        lo, hi = 2 ** s, 2 ** (s + 1)
        seg = cum[lo - 1:hi - 1]
        k_min = int(np.argmin(seg))
        min_val = float(seg[k_min])
        if k_min != 0:
            report.violations.append((lo + k_min, min_val, float(seg[0])))
        if abs(min_val - min_rhs) > tol:
            report.violations.append((lo, min_val, min_rhs))
        min_ratios[s] = math.exp(min_val)
        # the global-argmax claim is asymptotic and genuinely false at s = 1
        # (P_3 = 4 > P_2); it holds from s = 2 on at desk scale
        if s >= 2:
            k_max = int(np.argmax(cum[:hi - 1]))
            if k_max + 1 != n1:
                report.violations.append((k_max + 1, float(cum[k_max]), lhs))
    report.passed = not report.violations
    report.empirical_constants["peak_over_n2"] = peak_ratios
    report.empirical_constants["octave_min"] = min_ratios
    report.empirical_constants["limsup_target"] = 1.0 / (2.0 * math.pi)
    report.empirical_constants["liminf_target"] = math.pi
    return report


def grid_hlawka_report(N: int) -> BoundReport:
    """Hlawka bound for the single grid k/(N+1): P_N is exactly N+1 and the
    bound evaluates to (N+1)^(2N/(N+1)) <= (N+1)^2."""
    ps = uniform_grid(N)
    tr = product_trace(ps)
    d = star_discrepancy(ps)
    delta = float(d.delta)
    lhs = float(tr.log_values[-1])
    rhs = 2.0 * delta * (math.log(N) - math.log(delta))
    report = BoundReport("hlawka", {"gen": "grid", "N": N}, (N, N))
    if lhs > rhs + tr.error_bound + BASE_TOL:
        report.violations.append((N, lhs, rhs))
    report.passed = not report.violations
    report.empirical_constants["P_N"] = math.exp(lhs)
    report.empirical_constants["bound"] = math.exp(rhs)
    return report
