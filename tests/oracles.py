"""References that the fast paths are checked against: log(2 sin pi x) and
its prefix sums in mpf, the compensated sum as one chunk loop, the
Kronecker orbit's log-products as one whole-orbit sum (`orbit_trace`), the
fixed-point kernel in four 32-bit limbs (`fixed_point_block_by_limbs`), the
Ostrowski digit sums by division (`ostrowski_digit_sums_by_division`), the
van der Corput prefix discrepancy as a max-plus program over the binary
digits of N + 1 (`vdc_deltas`), the whole-array forms of the streamed
checkers (`check_hlawka`, `grid_hlawka_report`, `check_vdc_limits`), which
hold every point, term, prefix sum and screen value, the Kronecker Delta
bracket over whole arrays (`kronecker_bracket`), the extremal sweep
with its running sums kept as exact float partials (`sweep_by_partials`),
its CSV lines printed row by row with `repr` (`sweep_csv_by_repr`),
one correct rounding of a quotient (`row_value`), which the `figure`
rotation loop makes of each row in place, and the table it prints the
rows from, built in rationals (`text_scale_by_fractions`); `series_rows`
reads that loop's rows by sending every one down its to_str branch."""

import math
from dataclasses import dataclass
from fractions import Fraction
from unittest import mock

import mpmath
import numpy as np

from weylprod.bounds import (BASE_TOL, SCREEN_REL, BoundReport, _hlawka_rhs,
                             _report_rows)
from weylprod.discrepancy import star_discrepancy
from weylprod.extremal import (_E_OVER_PI, ExtremalConfig, log_c_epsilon,
                               sup_product_lower_bound)
from weylprod.irrational import (_FALLBACK_SHIFT, FIXED_POINT_BITS,
                                 ConvergentTable, FixedPointOrbit,
                                 IrrationalSpec, _exact_distance)
from weylprod import numerics
from weylprod.numerics import LOG2, compensated_cumsum
from weylprod import products
from weylprod.products import ProductTrace, _float_terms, product_trace
from weylprod.sequences import PointSet, uniform_grid, van_der_corput


def row_value(man: int, exp: int, nk: int, prec: int) -> tuple:
    """man 2^exp / nk, for positive integers man and nk, rounded once to
    nearest (ties to even) at `prec` bits, as an integer pair (x, xe) with
    x 2^xe the rounded value; x < 2^prec, or x = 2^prec after a carry.
    `mpmath.libmp.from_man_exp(x, xe)` is that value as a raw mpf, exactly.

    The quotient q is taken with at least prec + 2 bits and the remainder r
    kept as a sticky bit, so rounding q in integers is the correct
    rounding of the exact quotient: the bits shifted out are compared with
    the half, and a tie (the half exactly, r = 0) keeps x even. nk = 1
    needs no division."""
    if nk == 1:
        q, r = man, 0
    else:
        sh = max(0, prec + 2 + nk.bit_length() - man.bit_length())
        q, r = divmod(man << sh, nk)
        exp -= sh
    n = q.bit_length() - prec
    if n <= 0:
        return q, exp
    x = q >> n
    rest = q & ((1 << n) - 1)
    half = 1 << (n - 1)
    if rest > half or rest == half and (r or x & 1):
        x += 1
    return x, exp + n


def series_rows(series) -> list:
    """Every row of a `products.RotationProducts`, in order, as the pair
    (man, exp) of the raw mpf `libmp.from_man_exp(x, xe)` of the loop's
    row x 2^xe. The loop computes x and xe before it prints the row, so
    forcing its to_str branch leaves them as they are: with `_text_scale`
    declining every row and `to_str` handing back its mpf argument, each
    row's digits are that mpf."""
    with mock.patch.object(products, "_text_scale",
                           lambda xe, prec: (0, 0, (), ())), \
            mock.patch.object(mpmath.libmp, "to_str",
                              lambda value, digits: value):
        rows = [d for digits, _ in series.segments() for d in digits]
    return [(man, exp) for _, man, exp, _ in rows]


def text_scale_by_fractions(xe: int, prec: int) -> tuple:
    """`products._text_scale` with its unit 2^(xe + cut) and the powers of
    ten as Fractions, floored and ceiled by `math`."""
    top = xe + prec
    fixprec = products._DIGIT_BITS - top
    if fixprec <= 0 or abs(top) > 3500:
        return 0, 0, (), ()
    fixdps = int(fixprec / products._LOG2_10 + 0.5)
    cut = max(0, prec - products._DIGIT_BITS)
    unit = Fraction(2) ** (xe + cut)
    D = len(str(math.floor((1 << (prec - 1) >> cut) * unit * 10 ** fixdps)))
    x_hi = math.ceil(Fraction(10) ** (D - fixdps) / unit) << cut
    ends = []
    for exponent in (D - fixdps - 1, D - fixdps):
        if exponent >= products.ROW_DIGITS:
            ends.append(())
            continue
        ten, sh = 10 ** (products.ROW_DIGITS - 1 - exponent), -xe - cut
        ten, sh = (ten, sh) if sh > 0 else (ten << -sh, 0)
        ends.append((ten, (1 << sh) >> 1, sh, exponent))
    return (cut, x_hi, *ends)


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
        s = orbit.first - 1
        _, e = _float_terms(orbit.dist, orbit.error(),
                            terms[s:s + len(orbit)], np.empty(len(orbit)))
        err += e
    cum, sum_err = compensated_cumsum(terms)
    return ProductTrace(cum, err + sum_err, N)


_LIMB_BITS = 32
_LIMB_MASK = np.uint64((1 << _LIMB_BITS) - 1)


def kernel_limbs(A: int) -> list:
    """The kernel's A = floor(alpha 2^128) as four 32-bit limbs, least
    significant first, for `fixed_point_block_by_limbs`."""
    return [np.uint64((A >> (_LIMB_BITS * i)) & int(_LIMB_MASK))
            for i in range(FIXED_POINT_BITS // _LIMB_BITS)]


def fixed_point_block_by_limbs(alpha: IrrationalSpec, limbs, lo: int,
                               hi: int) -> FixedPointOrbit:
    """The kernel block n = lo..hi-1 with n A mod 2^128 formed in four
    32-bit limbs and its carries propagated limb by limb: the reference
    that `irrational._fixed_point_block`'s two 64-bit words must equal bit
    for bit."""
    n = np.arange(lo, hi, dtype=np.uint64)
    # R = n * A mod 2^P in 32-bit limbs; n * limb + carry < 2^63
    carry = np.zeros_like(n)
    r = []
    for a in limbs:
        t = n * a + carry
        r.append(t & _LIMB_MASK)
        carry = t >> np.uint64(_LIMB_BITS)
    upper = r[-1] >> np.uint64(_LIMB_BITS - 1) == 1
    # D = 2^P - R = ~R + 1 where R >= 2^(P-1), else R
    carry = upper.astype(np.uint64)
    d = []
    for ri in r:
        t = np.where(upper, ri ^ _LIMB_MASK, ri) + carry
        d.append(t & _LIMB_MASK)
        carry = t >> np.uint64(_LIMB_BITS)
    shift = np.uint64(_LIMB_BITS)
    top = (d[3] << shift) | d[2]          # D >> 64, below 2^63
    low = (d[1] << shift) | d[0]
    dist = np.ldexp(top.astype(np.float64) + np.ldexp(low.astype(np.float64),
                                                       -64), -64)
    for i in np.flatnonzero(top <= n >> _FALLBACK_SHIFT).tolist():
        dist[i], upper[i] = _exact_distance(alpha, lo + i)
    return FixedPointOrbit(lo, dist, upper)


def ostrowski_digit_sums_by_division(table: ConvergentTable,
                                     N_max: int) -> tuple:
    """(levels, digit sums) of the greedy expansions of N = 1..N_max, as
    int64 arrays, by division: the reference for
    `irrational.ostrowski_digit_sums`, which tiles them.

    One top-down pass over the levels takes b_i = rem // q_i from every N;
    above an N's own level its remainder is below q_i, so those digits come
    out 0 by themselves.
    """
    if N_max < 1:
        raise ValueError("N_max must be positive")
    if table.q[-1] <= N_max:
        raise ValueError(
            f"convergent table too shallow: q_K = {table.q[-1]} <= {N_max}")
    # only denominators up to N_max are needed; the rest may not fit int64
    q = np.array([x for x in table.q if x <= N_max], dtype=np.int64)
    N = np.arange(1, N_max + 1, dtype=np.int64)
    levels = np.searchsorted(q, N, "right") - 1
    rem = N.copy()
    sums = np.zeros_like(N)
    for qi in q[::-1].tolist():
        b = rem // qi
        rem -= b * qi
        sums += b
    return levels, sums


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


def _last_arg(T: np.ndarray, run: np.ndarray) -> np.ndarray:
    """For every m, the last j <= m with T[j] == run[m], where `run` is the
    running maximum (or minimum) of T: the running extremum only changes at
    indices where T attains it, so that j is the last such index."""
    hit = np.where(T == run, np.arange(len(T)), 0)
    return np.maximum.accumulate(hit)


def kronecker_bracket(orbit) -> tuple:
    """(lower, upper, margin) of `discrepancy.kronecker_discrepancy` over
    whole arrays, the bounds before their margin: T, both running extrema,
    both last-argument arrays, the margin and both bounds, each of
    length N. The bracket's own bounds are lower - margin and
    upper + margin."""
    pts = orbit.points()
    N = len(pts)
    T = np.zeros(N + 1)
    T[1:], cum_err = compensated_cumsum(pts - 0.5)
    run_max = np.maximum.accumulate(T)
    run_min = np.minimum.accumulate(T)
    m = np.arange(N)  # n - 1
    a = _last_arg(T, run_max)[:-1]
    b = _last_arg(T, run_min)[:-1]
    inner = np.maximum(T[a] - T[m - a], T[m - b] - T[b])
    base = 0.5 + np.abs(T[1:])
    eps = float(orbit.error().max()) + 2.0 ** -52
    margin = (3.0 * ((m + 1.0) * eps + cum_err)
              + 2.0 ** -49 * (1.0 + float(np.abs(T).max())))
    return base + inner, base + (run_max[:-1] - run_min[:-1]), margin


def bracket_arrays(bracket) -> tuple:
    """(lower, upper) of a bracket, its `blocks()` copied and joined."""
    lower, upper = zip(*[(lo.copy(), hi.copy())
                         for lo, hi in bracket.blocks()])
    return np.concatenate(lower), np.concatenate(upper)


def check_hlawka(ps_trace: ProductTrace, d_trace, N_min: int = 16,
                 parameters: dict | None = None) -> BoundReport:
    """`bounds.check_hlawka` screening the whole range of N at once: six
    or so N-length temporaries, against the streamed form's O(SUM_CHUNK)
    blocks. The right-hand side is concave in Delta, so its minimum over
    [lower, upper] sits at an end; the range is screened with that minimum
    and numpy's log. Every N that the screen cannot clear, and every N
    whose largest possible gamma reaches the largest certain one, is
    settled with Delta_N and the scalar formula."""
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
        delta_at, margin = (lambda n: float(d_trace[n - 1])), (lambda n: 0.0)
    else:
        lo, hi = (b[N_min - 1:] for b in bracket_arrays(d_trace))
        delta_at, margin = d_trace.delta_at, d_trace.margin
    lhs = logs[N_min - 1:]
    log_N = np.log(N)

    def rhs(delta):
        return 2.0 * delta * (log_N - np.log(delta))

    rhs_lo = rhs(lo) if exact else np.minimum(rhs(lo), rhs(hi))
    slack = SCREEN_REL * (np.abs(rhs_lo) + 2.0 * hi * log_N)
    unclear = np.flatnonzero(lhs > rhs_lo - slack)
    rhs_tol = np.array([_hlawka_rhs(n, delta_at(n), err, margin(n))
                        for n in N[unclear].tolist()]).reshape(-1, 2)
    _report_rows(report, N[unclear], lhs[unclear], rhs_tol[:, 0],
                 rhs_tol[:, 1])
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
            r, _ = _hlawka_rhs(n, delta_at(n), err, margin(n))
            gamma_hat = max(gamma_hat, r / math.log(n) ** 2)
    report.empirical_constants["gamma_hat"] = gamma_hat
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


def sweep_csv_by_repr(rows) -> list:
    """The lines of `Sweep.csv_text`, one f-string per row of Python
    numbers, each float by `repr`."""
    return [f"{N},{M},{d!r},{lp!r},{lo!r},{hi!r},{str(hl).lower()},"
            f"{str(hu).lower()}" for N, M, d, lp, lo, hi, hl, hu in rows]
