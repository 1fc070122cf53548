"""Numerically stable evaluation of P_N = prod 2 sin(pi x_k).

Traces accumulate in log space: extremal sets overflow doubles long before
desk scale, and log-space also makes the bound checkers uniform. A point
set is exact rationals (`RationalArray`), float64 values or a Kronecker
orbit from the fixed-point kernel (`irrational.FixedPointOrbit`), every
point strictly inside (0, 1), so no product is zero. All three take one
compensated double path, a block consumer (`BlockTrace`) whose error bound
charges each point by its representation: an exact dyadic nothing, any
other rational its rounding to float64, an orbit point its kernel
`error()`. The rational checkers stream their points through it in
blocks. The printed 40-digit series (`rotation_products`) keeps
the product itself, as an integer mantissa and exponent, and takes its
sines from a fixed-point rotation w^n in integers; its rows are rounded
(`row_value`) and printed (`row_texts`) in integers too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .irrational import (DEFAULT_N_MAX, FixedPointOrbit, IrrationalSpec,
                         check_precision_bits, default_precision_bits,
                         exact_residue, kronecker_fixed_point_blocks,
                         scaled_floor)
from .numerics import (SUM_CHUNK, TERM_EPS, PrefixSum, Scratch,
                       log_two_sin_pi_array)
from .sequences import PointSet, RationalArray

# normalizer -> k of the n^k that P_n is divided by
_NORMALIZER_POWER = {"none": 0, "one_over_N": 1, "one_over_N_squared": 2}
NORMALIZERS = tuple(_NORMALIZER_POWER)


@dataclass
class ProductTrace:
    """Prefix log-products log P_1 .. log P_N as a float64 array
    `log_values`, with an accumulated error bound on the final (and by
    construction any earlier) entry."""

    log_values: np.ndarray
    error_bound: float
    N: int


def product_trace(ps) -> ProductTrace:
    """Compensated log-space prefix products over a `RationalArray` or a
    float64 ndarray of points, bare or in a `PointSet`, or over a bare
    `FixedPointOrbit`, run through a `BlockTrace` in blocks of SUM_CHUNK.
    Any other points raise TypeError; a point at 0 or 1, or a NaN, raises
    ValueError (`term_max`). A `RationalArray` is converted to float64
    once, and its blocks are fed as slices with their denominator; an
    orbit's blocks are orbit slices, each with its own `error()`."""
    pts = ps.points if isinstance(ps, PointSet) else ps
    den = 1
    if isinstance(pts, RationalArray):
        pts, den = pts.to_float_array(), pts.denominator
    if isinstance(pts, FixedPointOrbit):
        arr = pts.dist
    elif isinstance(pts, np.ndarray) and pts.dtype == np.float64:
        arr = pts
    else:
        raise TypeError("points must be a RationalArray, a float64 ndarray "
                        f"or a FixedPointOrbit, not {type(pts).__name__}")
    n = len(arr)
    if n == 0:
        raise ValueError("empty point set")
    trace = BlockTrace(n, term_max(arr))
    out = np.empty(n)
    for s in range(0, n, SUM_CHUNK):
        trace.feed(pts[s:s + SUM_CHUNK], out[s:s + SUM_CHUNK], den)
    return ProductTrace(out, trace.error_bound(), n)


def term_max(x: np.ndarray) -> float:
    """max |log(2 sin pi x)| over the non-empty float points x, which must
    lie inside (0, 1): a point at 0 or 1, or a NaN, raises ValueError
    before any log is taken.

    The term grows with m = min(x, 1 - x), so the largest |term| is the
    larger at the smallest and the largest m, taken from the kernel itself.
    """
    m = np.subtract(1.0, x)
    np.minimum(x, m, out=m)
    ends = np.array([m.min(), m.max()])
    if not ends[0] > 0.0:
        raise ValueError("a point is not inside (0, 1)")
    return float(np.abs(log_two_sin_pi_array(ends)).max())


# the exponent field of a float64; a positive normal x masked to it is the
# power of two 2^e <= x
_EXPONENT_BITS = 0x7FF << 52


class BlockTrace:
    """Block consumer of prefix log-products: the n points of a set, fed in
    order (`feed`), each block as float64 values, a `RationalArray` or a
    `FixedPointOrbit`, with a bound on the error of every prefix
    (`error_bound`). Every point must lie inside (0, 1) and every
    |log(2 sin pi x)| within `amax` (`term_max`); `feed` raises ValueError
    on a block that breaks either, checking the points before it takes a
    log. Blocks of SUM_CHUNK points sum as one `compensated_cumsum` of all
    the terms would, bit for bit, and only a block's terms and sums are
    held, in four work arrays of min(n, SUM_CHUNK) points kept from block
    to block (a `Scratch`): the terms in slot 3, and in slots 0-2, which
    the sums take next, a block's float points, their rounding charges and
    the terms' bounds.

    Each point is charged its error. Float64 values of rationals over `den`
    are charged their rounding: nothing over a power-of-two denominator up
    to 2^53; half an ulp below 2^53, where the numerator and the
    denominator convert exactly and the quotient rounds once; 3 ulps above,
    for three roundings of 2^-53 relative. An orbit block gives its terms
    from its distances ||n alpha||, each charged its own `error()`.
    """

    def __init__(self, n: int, amax: float):
        self.work = Scratch(min(n, SUM_CHUNK))
        self.sums = PrefixSum(n, amax, self.work)
        self.term_error = 0.0

    def feed(self, x, out: np.ndarray | None = None, den: int = 1):
        """The prefix log-products through each point of `x`, written to
        `out` (default: a new array) and returned; float points are rounded
        from rationals over `den` (a `RationalArray` block brings its own,
        and an orbit block its `error()` instead)."""
        b, work = len(x), self.work
        pt_err = 0.0
        if isinstance(x, FixedPointOrbit):
            pt_err, x = x.error(), x.dist
        elif isinstance(x, RationalArray):
            den, nums = x.denominator, x.numerators
            # converted first: a division that casts allocates a buffer
            x = work.get(0, b)
            np.copyto(x, nums)
            x /= den
        if not (x.min() > 0.0 and x.max() < 1.0):
            raise ValueError("a point is not inside (0, 1)")
        if den & (den - 1) or den > 1 << 53:
            # ulp(x) = 2^(e-52) for x in [2^e, 2^(e+1)), from the exponent
            # bits (np.spacing costs about as much as the sine)
            ulps = work.get(1, b)
            np.bitwise_and(x.view(np.int64), _EXPONENT_BITS,
                           out=ulps.view(np.int64))
            ulps *= 2.0 ** -53 if den <= 1 << 53 else 3.0 * 2.0 ** -52
            pt_err = ulps
        terms, err = _float_terms(x, pt_err, work.get(3, b), work.get(2, b))
        amax = self.sums.amax
        if not (float(terms.max()) <= amax and float(terms.min()) >= -amax):
            raise ValueError("a term exceeds its declared bound amax")
        self.term_error += err
        return self.sums.feed(terms, out)

    def error_bound(self) -> float:
        """The bound on the error of every prefix log-product so far; for
        the whole set once all n points are fed."""
        return self.term_error + self.sums.error_bound()


def _float_terms(arr: np.ndarray, pt_err, out: np.ndarray | None = None,
                 scratch: np.ndarray | None = None) -> tuple:
    """(terms log(2 sin pi x), their error bound) for float points `arr`
    inside (0, 1); `pt_err` bounds each point's error (scalar or array; an
    array is spent, scaled in place).

    The terms are written to `out` and the bounds built in place in
    `scratch` (default: new arrays of N)."""
    terms = log_two_sin_pi_array(arr, out)
    scratch = np.abs(terms, out=scratch)
    scratch += 1.0
    scratch *= TERM_EPS
    err = float(scratch.sum())
    if isinstance(pt_err, np.ndarray) or pt_err:
        # |d/dx log(2 sin pi x)| = pi |cot(pi x)| <= 1 / min(x, 1-x): a term
        # moves by at most e / (m - e), m = min(x, 1-x) of the float, which
        # 1.6 e / m covers while m >= 3.2 e (each charge at most 1/2)
        np.subtract(1.0, arr, out=scratch)
        np.minimum(arr, scratch, out=scratch)
        pt_err *= 1.6
        np.divide(pt_err, scratch, out=scratch)
        charge = float(scratch.sum())
        if charge > 0.5 and scratch.max() > 0.5:
            raise ValueError("a point lies within 3.2 errors of 0 or 1")
        err += charge
    return terms, err


def closed_form_shifted(N: int, x) -> float:
    """Reference value of prod_{k=0}^{N-1} 2 sin(pi (k+x)/N) = 2 sin(pi x)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    xf = float(x)
    if not 0.0 < xf < 1.0:
        raise ValueError("x must lie in (0, 1)")
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
    rest = q - (x << n)
    half = 1 << (n - 1)
    if rest > half or rest == half and (r or x & 1):
        x += 1
    return x, exp + n


# `row_text` prints ROW_DIGITS digits the way libmp.to_str(row, ROW_DIGITS)
# does: to_digits_exp takes ROW_DIGITS + 3 digits from a _DIGIT_BITS-bit
# fixed-point copy of the row, rounded toward zero, and to_str rounds those
# half up to ROW_DIGITS. The row is printed fixed-point when its leading
# digit's exponent lies strictly between _MIN_FIXED and _MAX_FIXED.
ROW_DIGITS = 40
_LOG2_10 = math.log(10, 2)
_DIGIT_BITS = int((ROW_DIGITS + 3) * _LOG2_10) + 10
_MIN_FIXED = min(-(ROW_DIGITS // 3), -5)
_MAX_FIXED = ROW_DIGITS


def _digit_scale(top: int):
    """(fixprec, fixdps, 10^fixdps) that to_digits_exp uses for a value in
    [2^(top-1), 2^top), or None where it leaves its fixed-point branch
    (fixprec <= 0, or |top| > 3500, where it first divides by a power of
    ten)."""
    fixprec = _DIGIT_BITS - top
    if fixprec <= 0 or abs(top) > 3500:
        return None
    fixdps = int(fixprec / _LOG2_10 + 0.5)
    return fixprec, fixdps, 10 ** fixdps


def row_text(row: tuple, scales: dict | None = None) -> str:
    """`mpmath.libmp.to_str(from_man_exp(x, xe), ROW_DIGITS)` for a row
    pair (x, xe), byte for byte, from one multiply, one shift and one
    str() of x.

    The digits are floor(row 10^fixdps) from fixprec = _DIGIT_BITS - top
    binary places, top = xe + bitlen(x); trailing zero bits of x change
    neither. `scales` maps top to its `_digit_scale` and is filled as rows
    come; `row_texts` keeps one for a whole series. Rows that are not
    positive, or that fall outside to_digits_exp's fixed-point branch, go
    to to_str itself."""
    x, xe = row
    bc = x.bit_length()
    top = xe + bc
    if scales is None:
        scales = {}
    if top not in scales:
        scales[top] = _digit_scale(top)
    scale = scales[top]
    if scale is None or x <= 0:
        return mpmath.libmp.to_str(mpmath.libmp.from_man_exp(x, xe),
                                   ROW_DIGITS)
    fixprec, fixdps, ten = scale
    sh = _DIGIT_BITS - bc
    fixed = x << sh if sh >= 0 else x >> -sh
    # fixed >= 2^(_DIGIT_BITS-1) and 10^fixdps >= 2^fixprec / 10^0.5 leave
    # at least ROW_DIGITS + 5 digits
    digits = str(fixed * ten >> fixprec)
    exponent = len(digits) - fixdps - 1
    if digits[ROW_DIGITS] >= "5":
        # half up, carrying through nines; 10^ROW_DIGITS gains a digit
        digits = str(int(digits[:ROW_DIGITS]) + 1)
        if len(digits) > ROW_DIGITS:
            digits = digits[:ROW_DIGITS]
            exponent += 1
    else:
        digits = digits[:ROW_DIGITS]
    if _MIN_FIXED < exponent < _MAX_FIXED:
        if exponent < 0:
            text = "0." + "0" * (-exponent - 1) + digits
        else:
            text = digits[:exponent + 1] + "." + digits[exponent + 1:]
        suffix = ""
    else:
        text = digits[0] + "." + digits[1:]
        suffix = ("e+" if exponent >= 0 else "e") + str(exponent)
    text = text.rstrip("0")
    if text[-1] == ".":
        text += "0"
    return text + suffix


def row_texts(rows):
    """`row_text` of each row pair in turn, with one table of digit scales
    for the series: a series' rows share few distinct tops."""
    scales = {}
    for row in rows:
        yield row_text(row, scales)


def _exact_sin(alpha: IrrationalSpec, n: int, wp: int) -> tuple:
    """(man, exp) with man 2^exp = sin(pi {n alpha}) within 2^-(wp+8)
    relative, from the exact floor of n alpha 2^b, b doubled until the
    residue lies at least 2^(wp+10) units from an integer.

    The point r 2^-b is within 2^-b of {n alpha}, which moves the sine by
    at most pi 2^-b against a sine of at least 2^(wp+11-b): under
    2^-(wp+9.3) relative. mpf_sin_pi at wp + 10 bits is within one ulp,
    2^-(wp+9)."""
    r, bits = exact_residue(alpha, n, 2 * wp, wp + 10)
    libmp = mpmath.libmp
    s = libmp.mpf_sin_pi(libmp.from_man_exp(r, -bits), wp + 10, "n")
    return s[1], s[2]


@dataclass
class RotationProducts:
    """The rows P_n / n^k, n = 1..N, of P_n = prod_{j<=n} 2 sin(pi {j alpha})
    (k = the normalizer's power), with a bound on |log(row) - log(exact
    row)| that holds for every row. Built by `rotation_products`.

    Iterating yields the rows in order as integer pairs (x, xe), x 2^xe
    rounded to `precision_bits` (`row_value`), computed afresh from
    integers on every pass: nothing of size N is held. `exact_terms` lists
    the n whose sine was taken from an exact floor instead of the
    rotation.
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
        n = np.arange(orbit.first, orbit.first + len(orbit))
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
