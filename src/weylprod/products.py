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
sines from a fixed-point rotation w^n in integers; each row is rounded in
integers too, in the iteration that makes it (`RotationProducts.segments`),
to its 40 digits as mpmath's to_str rounds them, from a table per binary
exponent (`_text_scale`), and only its digits and the exponent of its
leading digit are kept. `text_blocks` prints the rows a block at a time:
`numerics.number_text` lays out their digits in to_str's layout as numpy
byte columns, and `numerics.byte_lines` makes the lines. Only a
carry to 10^40, a row of 10^40 or more and a row outside to_digits_exp's
fixed-point branch go to to_str.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .irrational import (DEFAULT_N_MAX, FixedPointOrbit, IrrationalSpec,
                         check_precision_bits, default_precision_bits,
                         exact_residue, kronecker_fixed_point_blocks,
                         scaled_floor)
from .numerics import (SUM_CHUNK, TERM_EPS, PrefixSum, Scratch, ascii_int,
                       byte_lines, log_two_sin_pi_array, number_text,
                       two_sin_pi)
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
    ValueError (`term_max`). Every kind is fed in slices, each charged its
    own error: a `RationalArray` slice its rounding to float64, an orbit
    slice its `error()`. A `RationalArray` is converted to float64 whole
    only for `term_max`."""
    pts = ps.points if isinstance(ps, PointSet) else ps
    if isinstance(pts, RationalArray):
        arr = pts.to_float_array()
    elif isinstance(pts, FixedPointOrbit):
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
    del arr  # a `RationalArray`'s float copy goes before `out` comes
    out = np.empty(n)
    for s in range(0, n, SUM_CHUNK):
        trace.feed(pts[s:s + SUM_CHUNK], out[s:s + SUM_CHUNK])
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
    the terms' bounds; `prefix` writes a block's sums to slot 4.

    Each point is charged its error. Float64 values are taken as exact.
    A `RationalArray` block over `den` is converted to float64 and charged
    its rounding: nothing over a power-of-two denominator up to 2^53; half
    an ulp below 2^53, where the numerator and the denominator convert
    exactly and the quotient rounds once; 3 ulps above, for three
    roundings of 2^-53 relative. An orbit block gives its terms from its
    distances ||n alpha||, each charged its own `error()`.
    """

    def __init__(self, n: int, amax: float):
        self.work = Scratch(min(n, SUM_CHUNK))
        self.sums = PrefixSum(n, amax, self.work)
        self.term_error = 0.0

    def feed(self, x, out: np.ndarray):
        """The prefix log-products through each point of the block `x`,
        written to `out` and returned."""
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
            if den & (den - 1) or den > 1 << 53:
                # ulp(x) = 2^(e-52) for x in [2^e, 2^(e+1)), from the
                # exponent bits (np.spacing costs about as much as the sine)
                pt_err = work.get(1, b)
                np.bitwise_and(x.view(np.int64), _EXPONENT_BITS,
                               out=pt_err.view(np.int64))
                pt_err *= 2.0 ** -53 if den <= 1 << 53 else 3.0 * 2.0 ** -52
        if not (x.min() > 0.0 and x.max() < 1.0):
            raise ValueError("a point is not inside (0, 1)")
        terms, err = _float_terms(x, pt_err, work.get(3, b), work.get(2, b))
        amax = self.sums.amax
        if not (float(terms.max()) <= amax and float(terms.min()) >= -amax):
            raise ValueError("a term exceeds its declared bound amax")
        self.term_error += err
        return self.sums.feed(terms, out)

    def prefix(self, x):
        """`feed` of the next block `x`, written to slot 4 of the work
        arrays: the next block overwrites the products."""
        return self.feed(x, self.work.get(4, len(x)))

    def error_bound(self) -> float:
        """The bound on the error of every prefix log-product so far; for
        the whole set once all n points are fed."""
        return self.term_error + self.sums.error_bound()


def _float_terms(arr: np.ndarray, pt_err, out: np.ndarray,
                 scratch: np.ndarray) -> tuple:
    """(terms log(2 sin pi x), their error bound) for float points `arr`
    inside (0, 1); `pt_err` bounds each point's error (scalar or array; an
    array is spent, scaled in place).

    The terms are written to `out` and the bounds built in place in
    `scratch`."""
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
    """Reference value of prod_{k=0}^{N-1} 2 sin(pi (k+x)/N) = 2 sin(pi x)
    for x in (0, 1) (`two_sin_pi`)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    return two_sin_pi(x)


def normalizer_power(normalizer: str) -> int:
    """The power k of n^k that `normalizer` divides P_n by."""
    try:
        return _NORMALIZER_POWER[normalizer]
    except KeyError:
        raise ValueError(f"unknown normalizer {normalizer!r}; "
                         f"expected one of {NORMALIZERS}") from None


# w^n is re-anchored every ANCHOR_STEPS steps, from a checked chain of
# w^ANCHOR_STEPS multiplies (`_anchors`). The bound below grows by 3 units
# of 2^-W per step, and W carries bitlen(ANCHOR_STEPS) bits for it, so the
# interval changes cost, not the bound: an anchor (1.5-2 us on a 2-core
# Xeon, no gmpy2: one complex multiply at V bits and its floor check, and
# for 1.6% of them an mpf_cos_sin_pi of 15-17 us) spread over 64 rows
# (about 2 us each) is about a sixtieth of a row, while each halving of the
# interval would double that and save under one bit of W.
ANCHOR_STEPS = 64
KERNEL = "fixed-point-rotation"


# The rows are printed with ROW_DIGITS digits the way
# libmp.to_str(row, ROW_DIGITS) prints them: to_digits_exp takes
# ROW_DIGITS + 3 digits from a _DIGIT_BITS-bit fixed-point copy of the row,
# rounded toward zero, and to_str rounds those half up to ROW_DIGITS. The
# row is printed fixed-point when its leading digit's exponent lies
# strictly between _MIN_FIXED and ROW_DIGITS, and in exponent notation
# below. A row that `_text_scale` declines is printed by to_str itself and
# kept as its text, with the exponent _TO_STR, which no other row has.
ROW_DIGITS = 40
_LOG2_10 = math.log(10, 2)
_DIGIT_BITS = int((ROW_DIGITS + 3) * _LOG2_10) + 10
_TEN_ROW = 10 ** ROW_DIGITS
_MIN_FIXED = min(-(ROW_DIGITS // 3), -5)
_TO_STR = ROW_DIGITS


def _text_scale(xe: int, prec: int) -> tuple:
    """The table the rows of x of `prec` bits at one xe are printed from:
    (cut, x_hi, lo, hi), lo for x < x_hi, each (ten, bias, sh, exponent)
    with (x >> cut) ten 2^-sh = y 10^(39-exponent) for y the row truncated
    as to_digits_exp does and 10^exponent its leading digit, or () for a
    row >= 10^ROW_DIGITS, where ten would be fractional. (0, 0, (), ())
    outside to_digits_exp's fixed-point branch: fixprec <= 0, or
    |top| > 3500, where it first divides by a power of ten. All in
    integers: a unit of x >> cut is 2^u."""
    top = xe + prec
    fixprec = _DIGIT_BITS - top
    if fixprec <= 0 or abs(top) > 3500:
        return 0, 0, (), ()
    fixdps, cut = int(fixprec / _LOG2_10 + 0.5), max(0, prec - _DIGIT_BITS)
    u = xe + cut
    # to_digits_exp's D digits at x = 2^(prec-1), D + 1 from x_hi up:
    # x_hi 2^xe is 10^t rounded up to a unit, t = D - fixdps
    low = 10 ** fixdps
    D = len(str(low << top - 1 if top > 0 else low >> 1 - top))
    t = D - fixdps
    num, den = 10 ** max(t, 0) << max(-u, 0), 10 ** max(-t, 0) << max(u, 0)
    ends = []
    for exponent in (t - 1, t):
        if exponent >= ROW_DIGITS:
            ends.append(())
            continue
        ten = 10 ** (ROW_DIGITS - 1 - exponent)
        ten, sh = (ten, -u) if u < 0 else (ten << u, 0)
        ends.append((ten, (1 << sh) >> 1, sh, exponent))
    return (cut, -(-num // den) << cut, *ends)


# rows `text_blocks` prints at once: a block's byte array, under 100 bytes
# a row, and its copies as bytes and text stay below glibc's 128 KB mmap
# threshold
TEXT_BLOCK = 1024


def text_blocks(segments, before: str, between: str, after: str, sep: str):
    """The line before + N + between + text + after of every row of
    `segments` (`RotationProducts.segments`), N = 1, 2, ..., with `sep`
    before each line but the first, as one string per block of at most
    TEXT_BLOCK rows: the text is `mpmath.libmp.to_str(row, ROW_DIGITS)`,
    byte for byte."""
    frame = [s.encode() for s in (sep + before, between, after)]
    n, digits, exponents, cut = 1, [], [], len(sep)
    for d, e in segments:
        digits += d
        exponents += e
        while len(digits) >= TEXT_BLOCK:
            yield _row_block(n, digits[:TEXT_BLOCK], exponents[:TEXT_BLOCK],
                             frame)[cut:]
            n, cut = n + TEXT_BLOCK, 0
            del digits[:TEXT_BLOCK], exponents[:TEXT_BLOCK]
    if digits:
        yield _row_block(n, digits, exponents, frame)[cut:]


def _row_block(n: int, digits: list, exponents: list, frame: list) -> str:
    """The lines of rows n, n + 1, ... with these digits and exponents
    (`RotationProducts.segments`), each framed by `frame`: the bytes before
    N, between N and the text, and after the text (`byte_lines`). The texts
    are the columns of one NUL-padded uint8 array T, laid out as to_str
    lays them out (`number_text`); to_str's own texts are put in after the
    lines are made."""
    rows = len(digits)
    e = np.array(exponents, np.int64)
    own = np.flatnonzero(e == _TO_STR).tolist()
    texts = [digits[i] for i in own]
    for i in own:  # laid out as 1.0, then overwritten
        digits[i], e[i] = _TEN_ROW // 10, 0
    D = np.frombuffer(b"%d" * rows % tuple(digits), np.uint8).reshape(
        rows, ROW_DIGITS)
    T = number_text(D.T, e, (_MIN_FIXED, ROW_DIGITS - 1), 1, True)
    if own:
        # one byte that no line holds marks where each of their texts goes
        T[:, own] = 0
        T[0, own] = 1
    text = byte_lines([frame[0], ascii_int(np.arange(n, n + rows,
                                                     dtype=np.uint64), 1),
                       frame[1], T, frame[2]], rows)
    if own:
        text = "".join(part + t for part, t in
                       zip(text.split("\1"), texts + [""]))
    return text


def _exact_sin(alpha: IrrationalSpec, n: int, wp: int) -> tuple:
    """(man, exp) with man 2^exp = sin(pi {n alpha}) within 2^-(wp+8)
    relative, from the exact floor of n alpha 2^b, b doubled until the
    residue lies at least 2^(wp+10) units from an integer.

    The point r 2^-b is within 2^-b of {n alpha}, which moves the sine by
    at most pi 2^-b against a sine of at least 2^(wp+11-b): under
    2^-(wp+9.3) relative. mpf_sin_pi at wp + 10 bits is within one ulp,
    2^-(wp+9)."""
    r, bits = exact_residue(alpha, n, 2 * wp, wp + 10)
    from mpmath import libmp
    s = libmp.mpf_sin_pi(libmp.from_man_exp(r, -bits), wp + 10, "n")
    return s[1], s[2]


@dataclass
class RotationProducts:
    """The rows P_n / n^k, n = 1..N, of P_n = prod_{j<=n} 2 sin(pi {j alpha})
    (k = the normalizer's power), with a bound on |log(row) - log(exact
    row)| that holds for every row. Built by `rotation_products`.

    `segments` yields the rows' printed digits in order, one anchor
    segment at a time, so that only one segment is held, never anything of
    size N. Each row is x 2^xe, held as the integers x and xe only inside
    the loop: rounded once to nearest, ties to even, at `precision_bits`
    (x < 2^prec, or 2^prec after a carry), computed afresh from integers on
    every pass. `exact_terms` lists the n whose sine was taken from an
    exact floor instead of the rotation.
    """

    alpha: IrrationalSpec
    N: int
    power: int
    precision_bits: int
    log_error_bound: float
    exact_terms: list

    def segments(self):
        """Each anchor segment in turn as (digits, exponents): for each of
        its at most ANCHOR_STEPS rows, in the iteration that makes it, its
        ROW_DIGITS digits rounded as to_str rounds them, as one int, and
        the exponent of its leading digit, from `_text_scale`; or to_str's
        own text where that declines, with the exponent _TO_STR.
        `text_blocks` prints them."""
        # The sines are Im w^n with w = e^(i pi A 2^-P), A = floor(alpha 2^P):
        # 2 sin(pi {n alpha}) = 2 |sin(pi n alpha)|. (c, s) holds w^n in W-bit
        # fixed point and advances by one complex multiply, floored, in three
        # integer ones: C (c + s) - s (C + S) and C (c + s) + c (S - C). A
        # segment starts from its anchor, and its last row takes no step.
        prec, N, k = self.precision_bits, self.N, self.power
        wp, W, P = _working_bits(prec, N)
        from mpmath import libmp
        from_man_exp, to_str = libmp.from_man_exp, libmp.to_str
        anchors = _anchors(scaled_floor(self.alpha, P), N, W, P)
        C, S = next(anchors)
        CpS, SmC = C + S, S - C
        exact = iter(self.exact_terms + [N + 1])
        ex = next(exact)
        # the running product is m 2^e with 2^wp <= m < 2^(wp+1)
        m, e = 1 << wp, -wp
        top = wp + 1
        qsh = k * N.bit_length()  # n^k < 2^qsh: q keeps prec + 9 bits
        square = k == 2
        scales, last_xe = {}, None
        for a in range(1, N + 1, ANCHOR_STEPS):
            c, s = (C, S) if a == 1 else next(anchors)
            digits, exponents = [], []
            # nxt: the next row off the common path, a segment's first row
            # (no step) or an exact term
            nxt = a
            for n in range(a, min(a + ANCHOR_STEPS, N + 1)):
                if n == nxt:
                    if n != a:
                        k1 = C * (c + s)
                        c, s = (k1 - s * CpS) >> W, (k1 + c * SmC) >> W
                    if n == ex:
                        t, te = _exact_sin(self.alpha, n, wp)
                        m *= t
                        e += te + W
                        ex = next(exact)
                    else:
                        m *= s if s > 0 else -s
                    nxt = ex
                else:
                    k1 = C * (c + s)
                    c, s = (k1 - s * CpS) >> W, (k1 + c * SmC) >> W
                    m *= s if s > 0 else -s
                sh = m.bit_length() - top
                m >>= sh
                e += sh - W
                # m 2^(e+n) / n^k to prec bits, ties (r = 0) to even; m has
                # wp + 1 = prec + 9 bits, so k = 0 drops b = 9 bits
                if k:
                    q, r = divmod(m << qsh, n * n if square else n)
                    b = q.bit_length() - prec
                    x, rest, half = q >> b, q & ((1 << b) - 1), 1 << (b - 1)
                    if rest > half or rest == half and (r or x & 1):
                        x += 1
                    xe = e + n + b - qsh
                else:
                    x, rest = m >> 9, m & 511
                    if rest > 256 or rest == 256 and x & 1:
                        x += 1
                    xe = e + n + 9
                # to_str rounds its digits floor(y 10^fixdps) half up at
                # digit ROW_DIGITS + 1: floor(y 10^(39-exponent) + 1/2)
                if xe != last_xe:
                    scale = scales.get(xe)
                    if scale is None:
                        scale = scales[xe] = _text_scale(xe, prec)
                    cut, x_hi, lo, hi = scale
                    last_xe = xe
                ends = hi if x >= x_hi else lo
                if ends:
                    ten, bias, shift, exponent = ends
                    d = ((x >> cut) * ten + bias) >> shift
                if not ends or d >= _TEN_ROW:
                    d = to_str(from_man_exp(x, xe), ROW_DIGITS)
                    exponent = _TO_STR
                digits.append(d)
                exponents.append(exponent)
            yield digits, exponents


def _anchors(A: int, N: int, W: int, P: int):
    """The anchors of `RotationProducts.segments`: for a = 1,
    1 + ANCHOR_STEPS, ... up to N, the pair floor(w^a 2^W) of
    w = e^(i pi A 2^-P), each the floor of the cos and sin that
    mpf_cos_sin_pi gives at W + 8 bits for the angle (a A mod 2^(P+1)) 2^-P,
    which are within one ulp, 2^-(W+8), of the exact ones.

    Two mpf_cos_sin_pi calls at V + 8 bits, V = W + G, give w and
    z = w^ANCHOR_STEPS floored to V-bit fixed point, each part within
    1.004 units of 2^-V and so each pair within 1.42. The chain
    y_0 = w, y_(j+1) = y_j z, each part floored, carries w^a for
    a = 1 + j ANCHOR_STEPS: its error E_j grows as
    |E_(j+1)| <= |E_j| |z| + 1.42 + 2^0.5, so |E_j| <= 3 j + 3 units, with
    room for |z| <= 1 + 1.42 2^-V over the j < 2^(V-90) steps that any N
    takes. Both parts of the anchor and the mpf values that W + 8 bits
    give for them then lie within R = 3 j + 3 + 2^(G-8) units of y_j, and
    where no multiple of 2^G lies in [y_j - R, y_j + R] the two floor
    alike (`_settled_floor`): the chain's floor is the anchor, bit for bit.
    Where one does, the anchor is the mpf value itself.

    G = bitlen(N) + 8 makes the ulp's 2^(G-8) units more than N, and
    the chain's 3 j + 3 < 3 N / 64 + 3 stays well below that, so about
    4 R / 2^G, 1.6% of the anchors, take the mpf path: the share that the
    one ulp sets."""
    from mpmath import libmp
    cos_sin_pi, from_man_exp = libmp.mpf_cos_sin_pi, libmp.from_man_exp
    to_fixed = libmp.to_fixed
    turn = (1 << (P + 1)) - 1

    def exact(a, bits):
        c, s = cos_sin_pi(from_man_exp((a * A) & turn, -P), bits + 8, "n")
        return to_fixed(c, bits), to_fixed(s, bits)

    G = N.bit_length() + 8
    V, ulp = W + G, 1 << (G - 8)
    c, s = exact(1, V)
    for j, a in enumerate(range(1, N + 1, ANCHOR_STEPS)):
        if j == 1:
            zc, zs = exact(ANCHOR_STEPS, V)
            zcps, zsmc = zc + zs, zs - zc
        if j:
            k1 = zc * (c + s)
            c, s = (k1 - s * zcps) >> V, (k1 + c * zsmc) >> V
        r = 3 * j + 3 + ulp
        fc, fs = _settled_floor(c, r, G), _settled_floor(s, r, G)
        yield (fc, fs) if fc is not None and fs is not None else exact(a, W)


def _settled_floor(y: int, r: int, g: int):
    """floor(t 2^-g), the same for every real t in [y - r, y + r], or None
    where that interval holds a multiple of 2^g."""
    f = (y - r) >> g
    return f if f == (y + r) >> g else None


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


def rotation_products(alpha: IrrationalSpec, N: int, normalizer: str,
                      precision_bits: int | None) -> RotationProducts:
    """P_n / n^k for n = 1..N (k = `normalizer`'s power) by the integer
    rotation kernel, at `precision_bits` (None: the 2^24 budget's, or N's
    above it), with its log error bound.

    The bound on |log(row) - log(exact row)|, for every row, adds up
    - the rotation: (c, s) is w^n to within delta_n units of 2^-W. An
      anchor's cos and sin are within one ulp at W + 8 bits, then floored:
      under 1.43 units for the pair, and w's own error e_w is the same.
      Most anchors come from a chain at V > W bits (`_anchors`), taken
      only where its error bound plus that one ulp cannot reach a multiple
      of 2^-W, so that it floors as the mpf value does: the same integers;
      the others are the mpf value itself.
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
    - the row's division by n^k and its rounding to prec bits (the
      sticky quotient in `RotationProducts.segments`):
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
