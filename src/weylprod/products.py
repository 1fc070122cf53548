"""Numerically stable evaluation of P_N = prod 2 sin(pi x_k).

Traces accumulate in log space: extremal sets overflow doubles long before
desk scale, and log-space also makes the bound checkers uniform. Exact
rational and float point sets take a fast compensated double path; mpf
point sets are accumulated at their own precision so the trace error bound
stays meaningful far below 2^-53. The printed 40-digit series
(`rotation_products`) keeps the product itself, as an integer mantissa and
exponent, and takes its sines from a fixed-point rotation w^n in integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .atomicio import atomic_open
from .irrational import (DEFAULT_N_MAX, IrrationalSpec, check_precision_bits,
                         default_precision_bits, kronecker_fixed_point_blocks,
                         scaled_floor)
from .numerics import (TERM_EPS, as_float_array, compensated_cumsum,
                       log_two_sin_pi_array, log_two_sin_pi_mp)
from .sequences import PointSet, RationalArray

# normalizer -> k of the n^k that P_n is divided by
_NORMALIZER_POWER = {"none": 0, "one_over_N": 1, "one_over_N_squared": 2}
NORMALIZERS = tuple(_NORMALIZER_POWER)


@dataclass
class ProductTrace:
    """Prefix log-products log P_1 .. log P_N with an accumulated error
    bound on the final (and by construction any earlier) entry.

    `log_values` is a float64 array for rational/float point sets and a
    list of mpf for high-precision point sets. A point exactly at 0 or 1
    makes the product zero; that is reported through `has_zero` and -inf
    entries, not an exception.
    """

    log_values: object
    error_bound: float
    N: int
    has_zero: bool = False

    def as_float_array(self) -> np.ndarray:
        if isinstance(self.log_values, np.ndarray):
            return self.log_values
        return np.array([float(v) for v in self.log_values], dtype=np.float64)

    @property
    def log_final(self):
        return self.log_values[-1]


def _is_endpoint(x) -> bool:
    return x == 0 or x == 1


def product_trace(ps, precision_bits: int | None = None) -> ProductTrace:
    """Compensated log-space prefix products over a point set."""
    pts = ps.points if isinstance(ps, PointSet) else ps
    if len(pts) == 0:
        raise ValueError("empty point set")
    pt_err = ps.point_error if isinstance(ps, PointSet) else 0.0
    if isinstance(pts, RationalArray):
        return _trace_float(pts, pt_err)
    pts = list(pts)
    if any(isinstance(x, mpmath.mpf) for x in pts):
        prec = precision_bits
        if prec is None and isinstance(ps, PointSet):
            prec = ps.params.get("precision_bits")
        if prec is None:
            prec = max(max(x._mpf_[3] for x in pts), 64)
        return _trace_mpf(pts, prec, pt_err)
    return _trace_float(pts, pt_err)


def _trace_mpf(pts, prec: int, pt_err: float) -> ProductTrace:
    logs = []
    err = 0.0
    term_ulp = math.ldexp(1.0, -prec)
    has_zero = False
    with mpmath.mp.workprec(prec + 8):
        run = mpmath.mpf(0)
        ninf = mpmath.mpf("-inf")
        for x in pts:
            if has_zero or _is_endpoint(x):
                has_zero = True
                logs.append(ninf)
                continue
            t = log_two_sin_pi_mp(x, prec + 8)
            run = run + t
            logs.append(run)
            if pt_err:
                # |d/dx log(2 sin pi x)| = pi |cot(pi x)| <= pi / (2 min(x, 1-x))
                m = float(min(x, 1 - x))
                err += 1.6 * pt_err / m
            err += 4.0 * term_ulp * (1.0 + abs(float(t)))
    return ProductTrace(logs, err, len(pts), has_zero)


def _float_terms(arr: np.ndarray, pt_err) -> tuple:
    """(terms log(2 sin pi x), their error bound, endpoint mask) for float
    points `arr`; `pt_err` bounds each point's error (scalar or array)."""
    endpoint = (arr == 0.0) | (arr == 1.0)
    safe = np.where(endpoint, 0.5, arr)
    terms = log_two_sin_pi_array(safe)
    err = float((TERM_EPS * (1.0 + np.abs(terms))).sum())
    if isinstance(pt_err, np.ndarray) or pt_err:
        # |d/dx log(2 sin pi x)| = pi |cot(pi x)| <= pi / (2 min(x, 1-x))
        m = np.minimum(safe, 1.0 - safe)
        err += float(np.sum(1.6 * pt_err / m))
    return terms, err, endpoint


def _trace_float(pts, pt_err: float) -> ProductTrace:
    arr = as_float_array(pts)
    terms, err, endpoint = _float_terms(arr, pt_err)
    has_zero = bool(endpoint.any())
    if has_zero:
        first = int(np.argmax(endpoint))
        terms[first:] = 0.0
    cum, sum_err = compensated_cumsum(terms)
    if has_zero:
        cum[first:] = -math.inf
    return ProductTrace(cum, err + sum_err, len(arr), has_zero)


def orbit_trace(orbits, N: int) -> ProductTrace:
    """Prefix log-products over Kronecker orbit blocks from the fixed-point
    kernel (`irrational.kronecker_fixed_point_blocks`), n = 1..N.

    Terms come from the distances ||n alpha||, which never reach 0 for an
    irrational alpha, with each block's per-point error bound; only the
    terms and the prefix sums are held for the whole orbit.
    """
    terms = np.empty(N, dtype=np.float64)
    err = 0.0
    for orbit in orbits:
        t, e, _ = _float_terms(orbit.dist, orbit.error())
        terms[orbit.first - 1:orbit.first - 1 + len(t)] = t
        err += e
    cum, sum_err = compensated_cumsum(terms)
    return ProductTrace(cum, err + sum_err, N)


def closed_form_roots_of_unity(N: int) -> int:
    """Reference value of prod_{k=1}^{N-1} 2 sin(pi k / N), which is N."""
    if N < 2:
        raise ValueError("N must be >= 2")
    return N


def closed_form_shifted(N: int, x) -> float:
    """Reference value of prod_{k=0}^{N-1} 2 sin(pi (k+x)/N) = 2 sin(pi x)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    xf = float(x)
    if not 0.0 < xf < 1.0:
        raise ValueError("x must lie in (0, 1)")
    if isinstance(x, mpmath.mpf):
        return 2 * mpmath.sinpi(x)
    if isinstance(x, Fraction) and 2 * x > 1:
        x = 1 - x
        xf = float(x)
    elif xf > 0.5:
        xf = 1.0 - xf
    return 2.0 * math.sin(math.pi * xf)


def normalizer_power(normalizer: str) -> int:
    """The power k of n^k that `normalizer` divides P_n by."""
    try:
        return _NORMALIZER_POWER[normalizer]
    except KeyError:
        raise ValueError(f"unknown normalizer {normalizer!r}; "
                         f"expected one of {NORMALIZERS}") from None


# w^n is re-anchored from one exact mpf_cos_sin_pi every ANCHOR_STEPS
# steps. The bound below grows by 3 units of 2^-W per step, and W carries
# bitlen(ANCHOR_STEPS) bits for it, so the interval changes cost, not
# the bound: an anchor (about 5 us) spread over 64 rotation steps (about
# 0.35 us each) adds about 2% to a row, while each halving of the interval
# would double that and save under one bit of W.
ANCHOR_STEPS = 64
KERNEL = "fixed-point-rotation"


def row_value(man: int, exp: int, nk: int, prec: int) -> tuple:
    """man 2^exp / nk, for positive integers man and nk, rounded once to
    nearest at `prec` bits, as a raw mpf (a `mpmath.libmp` tuple).

    The quotient is taken with at least prec + 2 bits and a sticky bit for
    a nonzero remainder, so the one rounding in `from_man_exp` is the
    correct rounding of the exact quotient."""
    sh = max(0, prec + 2 + nk.bit_length() - man.bit_length())
    q, r = divmod(man << sh, nk)
    return mpmath.libmp.from_man_exp((q << 1) | (r > 0), exp - sh - 1,
                                     prec, "n")


def _exact_sin(alpha: IrrationalSpec, n: int, wp: int) -> tuple:
    """(man, exp) with man 2^exp = sin(pi {n alpha}) within 2^-(wp+8)
    relative, from the exact floor of n alpha 2^b, b doubled until the
    residue lies at least 2^(wp+10) units from an integer.

    The point r 2^-b is within 2^-b of {n alpha}, which moves the sine by
    at most pi 2^-b against a sine of at least 2^(wp+11-b): under
    2^-(wp+9.3) relative. mpf_sin_pi at wp + 10 bits is within one ulp,
    2^-(wp+9)."""
    bits = 2 * wp
    while True:
        r = scaled_floor(alpha, bits, n) & ((1 << bits) - 1)
        if min(r, (1 << bits) - r) >> (wp + 10):
            libmp = mpmath.libmp
            s = libmp.mpf_sin_pi(libmp.from_man_exp(r, -bits), wp + 10, "n")
            return s[1], s[2]
        bits *= 2


@dataclass
class RotationProducts:
    """The rows P_n / n^k, n = 1..N, of P_n = prod_{j<=n} 2 sin(pi {j alpha})
    (k = the normalizer's power), with a bound on |log(row) - log(exact
    row)| that holds for every row. Built by `rotation_products`.

    Iterating yields the rows in order as raw mpf tuples rounded to
    `precision_bits`, computed afresh from integers on every pass: nothing
    of size N is held. `exact_terms` lists the n whose sine was taken from
    an exact floor instead of the rotation.
    """

    alpha: IrrationalSpec
    N: int
    power: int
    precision_bits: int
    log_error_bound: float
    exact_terms: list

    def __iter__(self):
        # The sines are Im w^n with w = e^(i pi A 2^-P), A = floor(alpha 2^P):
        # 2 sin(pi {n alpha}) = 2 |sin(pi n alpha)|. (c, s) holds w^n in W-bit
        # fixed point and advances by one complex multiply, floored.
        prec, N, k = self.precision_bits, self.N, self.power
        wp, W, P = _working_bits(prec, N)
        libmp = mpmath.libmp
        cos_sin_pi, from_man_exp = libmp.mpf_cos_sin_pi, libmp.from_man_exp
        to_fixed = libmp.to_fixed
        A = scaled_floor(self.alpha, P)
        turn = (1 << (P + 1)) - 1

        def anchor(n):
            c, s = cos_sin_pi(from_man_exp((n * A) & turn, -P), W + 8, "n")
            return to_fixed(c, W), to_fixed(s, W)

        C, S = anchor(1)
        exact = iter(self.exact_terms + [N + 1])
        nxt = next(exact)
        # the running product is m 2^e with 2^wp <= m < 2^(wp+1)
        m, e = 1 << wp, -wp
        top = wp + 1
        for a in range(1, N + 1, ANCHOR_STEPS):
            c, s = (C, S) if a == 1 else anchor(a)
            for n in range(a, min(a + ANCHOR_STEPS, N + 1)):
                if n == nxt:
                    t, te = _exact_sin(self.alpha, n, wp)
                    m *= t
                    e += te + W
                    nxt = next(exact)
                else:
                    m *= s if s > 0 else -s
                sh = m.bit_length() - top
                m >>= sh
                e += sh - W
                yield row_value(m, e + n, n ** k, prec)
                c, s = (c * C - s * S) >> W, (c * S + s * C) >> W


def _working_bits(prec: int, N: int) -> tuple:
    """(wp, W, P): the running product's bits, the rotation's fixed-point
    bits and the bits of A. W leaves 2^-W times the largest rotation error
    (3 ANCHOR_STEPS units) 2^(bitlen(N) + 6) below 2^-wp; P makes the
    angle error pi N 2^(W-P) less than one unit."""
    wp = prec + 8
    W = wp + ANCHOR_STEPS.bit_length() + 7 + N.bit_length()
    return wp, W, W + N.bit_length() + 2


def _rotation_charges(alpha: IrrationalSpec, N: int, wp: int,
                      W: int) -> tuple:
    """(the rotation terms' log errors summed, in units of 2^-wp; the n
    whose term must come from `_exact_sin`), from a float pass over the
    128-bit fixed-point orbit in blocks.

    T_n = 2^W sin(pi ||n alpha||) is bounded below from the float distance
    less its error bound, with sin's and pi x's roundings under 2^-50. A
    rotation term within delta_n of T_n moves the log by at most
    delta_n / (T_n - delta_n). A term whose T_n cannot clear
    2^(wp+2) delta_n, so that this could reach 2^-(wp+1), is taken exact.
    """
    sums, exact = [], []
    for orbit in kronecker_fixed_point_blocks(alpha, N):
        n = np.arange(orbit.first, orbit.first + len(orbit.dist))
        delta = 3.0 * ((n - 1) % ANCHOR_STEPS + 1)
        # low = T_n 2^-(wp+1) from below
        low = np.maximum(orbit.dist - orbit.error(), 0.0)
        low *= np.pi
        np.sin(low, out=low)
        low = np.ldexp(low * (1.0 - 2.0 ** -50), W - wp - 1)
        fallback = low <= 2.0 * delta
        exact += n[fallback].tolist()
        keep = ~fallback
        # 2^wp delta / (T - delta) = delta / (2 low - delta 2^-wp), and
        # low > 2 delta leaves that below (delta / 2 low)(1 + 2^-(wp+1));
        # a block's pairwise sum is within 2^-47 of its value, fsum adds one
        # rounding
        sums.append(float(np.sum(delta[keep] / low[keep])))
    return 0.5 * math.fsum(sums), exact


def rotation_products(alpha: IrrationalSpec, N: int,
                      normalizer: str = "none",
                      precision_bits: int | None = None) -> RotationProducts:
    """P_n / n^k for n = 1..N (k = `normalizer`'s power) by the integer
    rotation kernel, at `precision_bits` (default: the 2^24 budget's, or
    N's above it), with its log error bound.

    The bound on |log(row) - log(exact row)|, for every row, adds up
    - the rotation: (c, s) is w^n to within delta_n units of 2^-W. An
      anchor's cos and sin are within one ulp at W + 8 bits, then floored:
      under 1.43 units for the pair, and w's own error e_w is the same.
      Writing E_n for the error of w^n, a floored step gives
      |E_{n+1}| <= |E_n| (1 + |e_w| 2^-W) + |e_w| + 2^0.5, so m steps after
      an anchor |E| <= 1.5 + 3 m (m < ANCHOR_STEPS). A 2^-P is below alpha
      by less than 2^-P, which moves sin(pi n alpha) by less than
      pi n 2^-P, under 0.8 units by the choice of P. So
      delta_n = 3 (m + 1) bounds |s_n| against the exact sine, and each
      term is charged its own delta_n / (T_n - delta_n)
      (`_rotation_charges`), at most 2^-(wp+1);
    - the exact terms (`_exact_sin`): 2^-(wp+8) relative, charged
      2^-(wp+7) each in log;
    - renormalisation: each product is floored back to wp + 1 bits, under
      2^-wp relative and 2^-wp (1 + 2^(1-wp)) in log, per term;
    - the row's division by n^k and its rounding to prec bits (`row_value`):
      one correct rounding, 2^-prec relative, 2^-prec (1 + 2^(1-prec)) in
      log.
    Float roundings of the sums are covered by a factor 1 + 2^-40, and
    two ulps more cover the subnormal range, where that factor no longer
    outweighs a rounding: past about 1060 bits the bound would otherwise
    round to 0.
    """
    k = normalizer_power(normalizer)
    if N < 1:
        raise ValueError("N must be >= 1")
    prec = (precision_bits if precision_bits is not None
            else default_precision_bits(max(DEFAULT_N_MAX, N)))
    check_precision_bits(prec)
    wp, W, _ = _working_bits(prec, N)
    units, exact = _rotation_charges(alpha, N, wp, W)
    units += N * (1.0 + 2.0 ** (1 - wp)) + len(exact) * 2.0 ** -7
    bound = (math.ldexp(units, -wp)
             + math.ldexp(1.0 + 2.0 ** (1 - prec), -prec)) * (1.0 + 2.0 ** -40)
    bound += 2.0 * math.ulp(bound)
    return RotationProducts(alpha, N, k, prec, bound, exact)


def normalized_trace(ps, normalizer: str = "none") -> list:
    """exp(log P_N) / norm(N) per prefix, overflow-safe.

    Ratios whose log exceeds 700 are reported as inf rather than raising;
    anything below the subnormal range underflows to 0.0.
    """
    k = normalizer_power(normalizer)
    trace = ps if isinstance(ps, ProductTrace) else product_trace(ps)
    logs = trace.as_float_array()
    out = []
    for n, lp in enumerate(logs, 1):
        r = lp - k * math.log(n)
        if r == -math.inf:
            out.append(0.0)
        elif r > 700.0:
            out.append(math.inf)
        else:
            out.append(math.exp(r))
    return out


def write_product_csv(trace: ProductTrace, path, normalizer: str = "none") -> None:
    """Serialize as "N,logP,P_over_norm" with the normalizer recorded in a
    header comment."""
    k = normalizer_power(normalizer)
    logs = trace.as_float_array()
    with atomic_open(path) as fh:
        fh.write(f"# normalizer={normalizer}\n")
        fh.write("N,logP,P_over_norm\n")
        for n, lp in enumerate(logs, 1):
            r = lp - k * math.log(n)
            val = math.inf if r > 700.0 else math.exp(r) if r > -746.0 else 0.0
            fh.write(f"{n},{lp!r},{val!r}\n")
