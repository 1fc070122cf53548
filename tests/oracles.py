"""References that the fast paths are checked against: log(2 sin pi x) and
its prefix sums in mpf, the compensated sum as one chunk loop, the
Kronecker orbit's log-products as one whole-orbit sum (`orbit_trace`), the
van der Corput prefix discrepancy as a max-plus program over the binary
digits of N + 1 (`vdc_deltas`), the whole-array forms of the streamed
rational checkers (`grid_hlawka_report`, `check_vdc_limits`), which hold
every point, term and prefix sum, and the extremal sweep with its running
sums kept as exact float partials (`sweep_by_partials`)."""

import math
from dataclasses import dataclass

import mpmath
import numpy as np

from weylprod.bounds import BASE_TOL, BoundReport
from weylprod.discrepancy import star_discrepancy
from weylprod.extremal import (_E_OVER_PI, ExtremalConfig, log_c_epsilon,
                               sup_product_lower_bound)
from weylprod import numerics
from weylprod.numerics import LOG2, compensated_cumsum
from weylprod.products import ProductTrace, _float_terms, product_trace
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


def mpf_trace(ps, prec: int, pt_err: float) -> MpfTrace:
    """Log-space prefix products of the mpf points of `ps` (a PointSet or a
    sequence), accumulated at `prec` + 8 bits.

    Each term is charged 4 ulps at `prec` bits, relative to 1 + |term|, and
    `pt_err`, a bound on each point's error (the `FracPartEvaluator`'s
    `error_bound` for `kronecker` points, 0 for exact ones), through the
    slope of log(2 sin pi x). Kronecker points never reach 0 or 1, so there
    is no zero product to handle.
    """
    pts = list(ps.points if isinstance(ps, PointSet) else ps)
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


def orbit_trace(orbits, N: int) -> ProductTrace:
    """Prefix log-products over Kronecker orbit blocks from the fixed-point
    kernel (`irrational.kronecker_fixed_point_blocks`), n = 1..N, as one
    `compensated_cumsum` of the whole orbit's terms: the reference that
    `product_trace` of an orbit, fed through `products.BlockTrace` in
    slices, must equal bit for bit.

    Terms come from the distances ||n alpha||, which never reach 0 for an
    irrational alpha, with each block's per-point error bound; only the
    terms and the prefix sums are held for the whole orbit.
    """
    terms = np.empty(N, dtype=np.float64)
    err = 0.0
    for orbit in orbits:
        t, e = _float_terms(orbit.dist, orbit.error())
        terms[orbit.first - 1:orbit.first - 1 + len(t)] = t
        err += e
    cum, sum_err = compensated_cumsum(terms)
    return ProductTrace(cum, err + sum_err, N)


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


# value of an unreachable state of `vdc_deltas`; every path sum stays
# below L 2^(L+1) in magnitude, so adding gains to it never wraps
_UNREACHED = -(1 << 62)


def vdc_deltas(n_max: int) -> np.ndarray:
    """2^L Delta_N, L = bitlen(n_max + 1), for the van der Corput points
    phi(1..N) of every N = 1..n_max, exactly in int64.

    Delta_N is the largest of N x - A(x), x > 0, and A(x) + [x is a
    point] - N x over the dyadics x = 0.a_1..a_L, A(x) counting the points
    below x. With M = N + 1 and R_j = sum_{i<=j} a_i 2^(i-1), the n in
    [0, M) with phi(n) < x are those whose lowest j bits are R_{j-1} for a
    j with a_j = 1, so
        A(x) = sum_{a_j=1} (floor(M / 2^j) + t_j) - 1,
        t_j = [R_{j-1} < M mod 2^j],
    the -1 for n = 0. t_j is 1 where bit j-1 of M is set and s_{j-1}
    otherwise, s_j = [R_j < M mod 2^j]. phi(R_L) = x, so x > 0 is a point
    iff s_L (M < 2^L); at x = 0 the -1 and s_L = 1 cancel. Scaled by 2^L,
    a_j = 1 thus gains
        c(t_j) = 2^L (N 2^-j - floor(M / 2^j) - t_j)
               = 2^(L-j) (M mod 2^j - 1) - t_j 2^L
    on the N x - A(x) side and -c(t_j) on the other, a_j = 0 gains 0, and
    s moves to 1 when a_j < bit j-1 of M, to 0 when a_j exceeds it: a
    max-plus program over j with the two states of s. The N x - A(x) side
    holds only paths with some a_i = 1; the all-zero path, with value 0 at
    s = [M mod 2^(j-1) > 0], enters it when a_j = 1.
    """
    L = (n_max + 1).bit_length()
    one = 1 << L
    M = np.arange(2, n_max + 2, dtype=np.int64)
    up0 = np.full(n_max, _UNREACHED, dtype=np.int64)  # N x - A(x), s = 0
    up1 = up0.copy()                                  # and s = 1
    dn0 = np.zeros(n_max, dtype=np.int64)  # A(x) - N x, s = 0: x = 0
    dn1 = up0.copy()
    for j in range(1, L + 1):
        bit = (M >> (j - 1)) & 1 == 1
        c1 = (((M & ((1 << j) - 1)) - 1) << (L - j)) - one  # t_j = 1
        c0 = np.where(bit, c1, c1 + one)                    # t_j = s = 0
        zero = (M & ((1 << (j - 1)) - 1)) == 0  # the all-zero path's s
        v0 = np.where(zero, np.maximum(up0, 0), up0)
        v1 = np.where(zero, up1, np.maximum(up1, 0))
        # bit set: a_j = 1 keeps s, a_j = 0 moves it to 1; bit clear:
        # a_j = 1 moves s to 0, a_j = 0 keeps it
        t = v1 + c1
        up0, up1 = (np.maximum(v0 + c0, np.where(bit, _UNREACHED,
                                                 np.maximum(up0, t))),
                    np.where(bit, np.maximum(np.maximum(up0, up1), t), up1))
        t = dn1 - c1
        dn0, dn1 = (np.maximum(dn0 - c0, np.where(bit, _UNREACHED,
                                                  np.maximum(dn0, t))),
                    np.where(bit, np.maximum(np.maximum(dn0, dn1), t), dn1))
    return np.maximum(np.maximum(up0, up1) + one, np.maximum(dn0 - one, dn1))


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


def _add_exact(partials: list, x: float) -> None:
    """Add x to the non-overlapping float partials whose exact sum is a
    running total (Shewchuk's algorithm, as in the msum recipe behind
    math.fsum); math.fsum(partials) then reads the total correctly
    rounded."""
    i = 0
    for y in partials:
        if abs(x) < abs(y):
            x, y = y, x
        hi = x + y
        lo = y - (hi - x)
        if lo:
            partials[i] = lo
            i += 1
        x = hi
    partials[i:] = [x]


def sweep_by_partials(N_values, M_limit, epsilon: float) -> list:
    """`extremal.sweep` with one exact running sum of log sin(pi k/N) per
    N, held as Shewchuk partials and read with math.fsum row by row, and
    both bounds evaluated per row."""
    log_c = log_c_epsilon(epsilon)
    rows = []
    for N in N_values:
        M_max = M_limit(N)
        if M_max >= 1:
            ExtremalConfig(N, M_max)  # validates N and every M <= M_max
        log_2n = math.log(2.0 * N)
        partials = []
        for M in range(1, M_max + 1):
            if M > 1:
                _add_exact(partials, math.log(math.sin(math.pi * (M - 1) / N)))
            d = M / N
            lp = log_2n - 2.0 * math.fsum(partials)
            lo = sup_product_lower_bound(N, d)
            hi = (log_c - math.log(N)
                  + 2.0 * N * d * math.log((_E_OVER_PI + epsilon) / d))
            rows.append((N, M, d, lp, lo, hi, lo <= lp + 1e-9, lp <= hi + 1e-9))
    return rows
