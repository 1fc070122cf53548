"""Exact arithmetic for quadratic irrationals alpha = (a + b*sqrt(d))/c.

Continued fractions, convergents, Ostrowski digit expansions and
floor(n*alpha) are computed on plain integers: the only irrational
ingredient, sqrt(d), enters through comparisons that reduce to integer
square comparisons. Every combinatorial quantity downstream is therefore
exact. Fractional parts {n*alpha} are evaluated two ways: with mpmath
from an exact floor at a precision budget wide enough that sine products
over them can be trusted far below double precision (`FracPartEvaluator`,
the oracle, behind `sequences.kronecker`); and as float64 distances to the
nearest integer from a vectorised 128-bit fixed-point kernel with a
derived per-point error bound (`kronecker_fixed_point`), whose orbits
`products.product_trace` takes in slices. The fixed-point paths here and
in `products.rotation_products` start from A = floor(alpha*2^P)
(`scaled_floor`) and take points they cannot resolve from an exact
residue floor(n alpha 2^b) mod 2^b (`exact_residue`).
"""

from __future__ import annotations

import itertools
import math
import re
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .numerics import SUM_CHUNK

DEFAULT_N_MAX = 2 ** 24


def default_precision_bits(n_max: int) -> int:
    """64 guard bits plus two bits per doubling of the index budget.

    ||n*alpha|| can shrink like 1/n, and log(2 sin(pi {n*alpha})) then
    needs about log2(n) extra bits; doubling that and adding 64 leaves a
    comfortable margin.
    """
    return 64 + 2 * max(2, (max(n_max, 2) - 1).bit_length())


def is_perfect_square(n: int) -> bool:
    if n < 0:
        return False
    r = math.isqrt(n)
    return r * r == n


def surd_sign(u: int, v: int, d: int) -> int:
    """Sign of u + v*sqrt(d), exact, for non-square d >= 2.

    Equality with zero is impossible when v != 0 because sqrt(d) is
    irrational.
    """
    if v == 0:
        return (u > 0) - (u < 0)
    if v > 0:
        if u >= 0:
            return 1
        return 1 if v * v * d > u * u else -1
    if u <= 0:
        return -1
    return 1 if u * u > v * v * d else -1


def floor_surd(p: int, q: int, r: int, d: int) -> int:
    """floor((p + q*sqrt(d)) / r) exactly, for r != 0 and non-square d >= 2.

    With t = floor(q*sqrt(d)) (an isqrt), floor((p + q*sqrt(d))/r) equals
    floor((p + t)/r): no multiple of r can lie strictly between p + t and
    p + q*sqrt(d) because the latter is irrational.
    """
    if r == 0:
        raise ZeroDivisionError("r must be nonzero")
    if r < 0:
        p, q, r = -p, -q, -r
    if q == 0:
        return p // r
    if q > 0:
        t = math.isqrt(q * q * d)
    else:
        t = -math.isqrt(q * q * d) - 1
    return (p + t) // r


def scaled_floor(alpha: IrrationalSpec, bits: int, n: int = 1) -> int:
    """floor(n * alpha * 2^bits), exact: the fixed-point residues of the
    128-bit kernel and of the rotation start from it."""
    return floor_surd((n * alpha.a) << bits, (n * alpha.b) << bits,
                      alpha.c, alpha.d)


# the fewest bits of a precision budget, `figure --precision-bits` too
MIN_PRECISION_BITS = 68


def check_precision_bits(precision_bits: int) -> None:
    if precision_bits < MIN_PRECISION_BITS:
        raise ValueError(f"precision_bits must be >= {MIN_PRECISION_BITS} "
                         f"to keep the error bound below 2^-64")


@dataclass(frozen=True)
class IrrationalSpec:
    """alpha = (a + b*sqrt(d)) / c, constrained to the open unit interval."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.c == 0:
            raise ValueError("c must be nonzero")
        if self.c < 0:
            object.__setattr__(self, "a", -self.a)
            object.__setattr__(self, "b", -self.b)
            object.__setattr__(self, "c", -self.c)
        if self.b == 0:
            raise ValueError("b = 0 would make alpha rational")
        if self.d < 2 or is_perfect_square(self.d):
            raise ValueError(f"d = {self.d} must be a non-square integer >= 2")
        if surd_sign(self.a, self.b, self.d) <= 0:
            raise ValueError("alpha must be positive")
        if surd_sign(self.a - self.c, self.b, self.d) >= 0:
            raise ValueError("alpha must be less than 1")

    def __str__(self):
        sign = "+" if self.b >= 0 else "-"
        return f"({self.a}{sign}{abs(self.b)}*sqrt({self.d}))/{self.c}"


SHORTHANDS = {
    "sqrt2m1": IrrationalSpec(-1, 1, 1, 2),   # sqrt(2) - 1
    "golden": IrrationalSpec(-1, 1, 2, 5),    # (sqrt(5) - 1) / 2
}

_ALPHA_RE = re.compile(
    r"^\(\s*(-?\d+)\s*([+-])\s*(\d+)\s*\*\s*sqrt\(\s*(\d+)\s*\)\s*\)"
    r"\s*(?:/\s*(-?\d+)\s*)?$"
)


def parse_alpha(text: str) -> IrrationalSpec:
    """Parse "(a+b*sqrt(d))/c" or the shorthands "sqrt2m1" / "golden"."""
    key = text.strip()
    if key in SHORTHANDS:
        return SHORTHANDS[key]
    m = _ALPHA_RE.match(key)
    if not m:
        raise ValueError(
            f"cannot parse alpha spec {text!r}; expected '(a+b*sqrt(d))/c' "
            f"or one of {sorted(SHORTHANDS)}"
        )
    a = int(m.group(1))
    b = int(m.group(3)) * (-1 if m.group(2) == "-" else 1)
    d = int(m.group(4))
    c = int(m.group(5)) if m.group(5) else 1
    return IrrationalSpec(a, b, c, d)


@dataclass(frozen=True)
class ConvergentTable:
    """Partial quotients a_1..a_K with convergents p_i/q_i, i = 0..K.

    q_0 = 1 and p_0 = 0 (alpha lies in (0,1)); the usual recursion
    q_{i+1} = a_{i+1} q_i + q_{i-1} then generates the best approximation
    denominators.
    """

    alpha: IrrationalSpec
    partial_quotients: tuple
    p: tuple
    q: tuple


def cf_expand(alpha: IrrationalSpec, K: int) -> ConvergentTable:
    """Continued fraction expansion of alpha to K partial quotients."""
    if K < 1:
        raise ValueError("K must be >= 1")
    return _table(alpha, itertools.islice(_convergents(alpha), K))


def cf_expand_until(alpha: IrrationalSpec, q_min: int) -> ConvergentTable:
    """The shortest expansion whose last denominator exceeds q_min, of at
    least one quotient. Every partial quotient is at least 1, so
    q_K >= F_(K+1): it stops within about log_phi(q_min) + 2 quotients."""
    steps = []
    for step in _convergents(alpha):
        steps.append(step)
        if step[2] > q_min:
            return _table(alpha, steps)


def _table(alpha: IrrationalSpec, steps) -> ConvergentTable:
    """The ConvergentTable of the (a_i, p_i, q_i), i = 1..K, in `steps`."""
    quots, ps, qs = zip(*steps)
    return ConvergentTable(alpha, quots, (0,) + ps, (1,) + qs)


def _convergents(alpha: IrrationalSpec):
    """(a_i, p_i, q_i) for i = 1, 2, ..., without end.

    Works on the surd state x_i = (p + q*sqrt(d))/r with integer p, q, r;
    each step inverts the fractional part and takes an exact floor, so the
    expansion (eventually periodic for quadratic irrationals) is exact.
    """
    d = alpha.d
    p_, q_, r_ = alpha.a, alpha.b, alpha.c
    a_cur = 0  # floor(alpha) = 0 since alpha in (0, 1)
    pprev, pcur = 1, 0
    qprev, qcur = 0, 1
    while True:
        # x <- 1 / (x - a_cur)
        p_ -= a_cur * r_
        denom = p_ * p_ - q_ * q_ * d
        p_, q_, r_ = r_ * p_, -r_ * q_, denom
        g = math.gcd(math.gcd(abs(p_), abs(q_)), abs(r_))
        if g > 1:
            p_, q_, r_ = p_ // g, q_ // g, r_ // g
        if r_ < 0:
            p_, q_, r_ = -p_, -q_, -r_
        a_cur = floor_surd(p_, q_, r_, d)
        if a_cur < 1:
            raise AssertionError("partial quotient < 1; invalid surd state")
        pprev, pcur = pcur, a_cur * pcur + pprev
        qprev, qcur = qcur, a_cur * qcur + qprev
        yield a_cur, pcur, qcur


@dataclass(frozen=True)
class OstrowskiDigits:
    """Digits b_0..b_l of N in the q_i numeration system, greedy form."""

    digits: tuple
    value: int
    level: int


def ostrowski(N: int, table: ConvergentTable) -> OstrowskiDigits:
    """Greedy digit expansion N = sum b_i q_i with q_l <= N < q_{l+1}, the
    level l found by bisection of `table.q`, which must pass N.

    The greedy choice from the top yields the canonical form: b_i <= a_{i+1},
    b_0 < a_1, and b_i = a_{i+1} forces b_{i-1} = 0.
    """
    if N < 1:
        raise ValueError("N must be positive")
    if table.q[-1] <= N:
        raise ValueError(
            f"convergent table too shallow: q_K = {table.q[-1]} <= {N}")
    l = bisect_right(table.q, N) - 1
    rem = N
    digits = [0] * (l + 1)
    for i in range(l, -1, -1):
        digits[i], rem = divmod(rem, table.q[i])
    if rem != 0:
        raise AssertionError("greedy expansion left a remainder")
    return OstrowskiDigits(tuple(digits), N, l)


def ostrowski_levels(table: ConvergentTable, N_max: int) -> np.ndarray:
    """The levels l, q_l <= N < q_{l+1}, of N = 1..N_max as an int64 array:
    what `ostrowski(N, table)` gives as `level`, for every N at once."""
    if N_max < 1:
        raise ValueError("N_max must be positive")
    if table.q[-1] <= N_max:
        raise ValueError(
            f"convergent table too shallow: q_K = {table.q[-1]} <= {N_max}")
    levels = np.empty(N_max, dtype=np.int64)
    for l, (lo, hi) in enumerate(zip(table.q, table.q[1:])):
        # empty where q_l = q_{l+1} or q_l > N_max
        levels[lo - 1:min(hi, N_max + 1) - 1] = l
    return levels


def ostrowski_digit_sums(table: ConvergentTable, N_max: int) -> tuple:
    """(levels, digit sums) of the greedy expansions of N = 1..N_max, as
    int64 arrays: what `ostrowski(N, table)` gives as `level` and
    `sum(digits)`, for every N at once.

    On a level [q_i, q_{i+1}) the top digit is b = N // q_i and the rest
    N - b q_i < q_i expands on its own: s(N) = b + s(N - b q_i). So the
    level is tiled, block [b q_i, (b+1) q_i) by s on [0, q_i) plus b, and
    a repeated denominator (q_0 = q_1 = 1 when a_1 = 1) has an empty level.
    """
    levels = ostrowski_levels(table, N_max)
    s = np.zeros(N_max + 1, dtype=np.int64)  # s(N) for N = 0..N_max
    top = int(levels[-1])  # the last level with q_i <= N_max
    for qi, qn in zip(table.q[:top + 1], table.q[1:]):
        end = min(qn, N_max + 1)
        m, rest = divmod(end - qi, qi)  # full blocks, then a cut one
        np.add(s[:qi], np.arange(1, m + 1)[:, None],
               out=s[qi:qi * (m + 1)].reshape(m, qi))
        s[qi * (m + 1):end] = s[:rest] + (m + 1)
    return levels, s[1:]


@dataclass(frozen=True)
class FractionalPart:
    """{n*alpha} as an mpf plus an absolute error bound."""

    value: object
    error_bound: float


class FracPartEvaluator:
    """Evaluates {n*alpha} with an exact integer floor and an mpf remainder.

    The precision budget is fixed up front from the largest admissible n
    (default 2^24), so every returned value carries the same absolute error
    bound 2^(2 - precision_bits).
    """

    def __init__(self, alpha: IrrationalSpec, n_max: int = DEFAULT_N_MAX,
                 precision_bits: int | None = None):
        if n_max < 1:
            raise ValueError("n_max must be positive")
        self.alpha = alpha
        self.n_max = n_max
        self.precision_bits = (precision_bits if precision_bits is not None
                               else default_precision_bits(n_max))
        check_precision_bits(self.precision_bits)
        surd_bits = (alpha.b * alpha.b * alpha.d).bit_length() // 2 + 2
        self._work = self.precision_bits + n_max.bit_length() + surd_bits + 12
        import mpmath
        with mpmath.mp.workprec(self._work):
            self._sqrt_d = mpmath.sqrt(alpha.d)
        self.error_bound = math.ldexp(1.0, 2 - self.precision_bits)

    def frac_part(self, n: int) -> FractionalPart:
        if not 1 <= n <= self.n_max:
            raise ValueError(f"n = {n} outside the configured budget "
                             f"[1, {self.n_max}]")
        a = self.alpha
        m = floor_surd(n * a.a, n * a.b, a.c, a.d)
        import mpmath
        with mpmath.mp.workprec(self._work):
            v = (n * a.a - m * a.c + n * a.b * self._sqrt_d) / a.c
        with mpmath.mp.workprec(self.precision_bits):
            v = +v
        return FractionalPart(v, self.error_bound)


# The fixed-point kernel works with A = floor(alpha * 2^P). The residue
# R = n*A mod 2^P differs from {n alpha} * 2^P by less than n on the circle,
# so ||n alpha|| = D * 2^-P up to n * 2^-P, with D = min(R, 2^P - R). A point
# is recomputed from exact integer floors when that absolute error could
# exceed 2^-53 of D, i.e. when D <= n * 2^53 might hold. R and D are two
# uint64 words; n < 2^31 keeps the carry from the low word exact in uint64.
FIXED_POINT_BITS = 128
KERNEL_MAX_N = 2 ** 31 - 1
_FALLBACK_SHIFT = np.uint64(FIXED_POINT_BITS - 64 - 53)
# three roundings (two word conversions and their sum) stay below 2^-51
# relative; 2^-50 leaves a factor 2
_CONVERSION_REL = 2.0 ** -50


@dataclass(frozen=True)
class FixedPointOrbit:
    """||n alpha|| for n = first .. first + len(dist) - 1, from the kernel.

    `dist` holds min({n alpha}, 1 - {n alpha}) in float64 and `upper` marks
    {n alpha} > 1/2. Keeping the distance rather than the point keeps full
    relative precision on both sides of 1/2, which is what log(2 sin pi x)
    needs.
    """

    first: int
    dist: np.ndarray
    upper: np.ndarray

    def __len__(self):
        return len(self.dist)

    def __getitem__(self, s: slice) -> FixedPointOrbit:
        """The points at the positions of `s`, a slice of step 1."""
        return FixedPointOrbit(self.first + s.indices(len(self))[0],
                               self.dist[s], self.upper[s])

    def error(self) -> np.ndarray:
        """Per-point bound on |dist - ||n alpha|||: the float conversion
        plus n * 2^-P from truncating alpha * 2^P. Points recomputed exactly
        are within 2^-52 * dist + 2^-256, which this also covers."""
        n = np.arange(self.first, self.first + len(self), dtype=np.float64)
        return _CONVERSION_REL * self.dist + np.ldexp(n, -FIXED_POINT_BITS)

    def points(self) -> np.ndarray:
        """{n alpha} as float64; points above 1/2 take one more rounding
        (at most 2^-53) on top of `error()`."""
        return np.where(self.upper, 1.0 - self.dist, self.dist)


def exact_residue(alpha: IrrationalSpec, n: int, bits: int,
                  min_bits: int) -> tuple:
    """(r, b) with r = floor(n alpha 2^b) mod 2^b, exact, and b doubled
    from `bits` until min(r, 2^b - r) >= 2^min_bits: r 2^-b is within 2^-b
    of {n alpha}, so its distance to the nearest integer then has min_bits
    exact leading bits."""
    while True:
        r = scaled_floor(alpha, bits, n) & ((1 << bits) - 1)
        if min(r, (1 << bits) - r) >> min_bits:
            return r, bits
        bits *= 2


def _exact_distance(alpha: IrrationalSpec, n: int) -> tuple:
    """(||n alpha||, {n alpha} > 1/2) from an exact residue whose distance
    has 64 exact leading bits."""
    r, bits = exact_residue(alpha, n, 2 * FIXED_POINT_BITS, 64)
    upper = r >> (bits - 1) == 1
    d = (1 << bits) - r if upper else r
    return d / (1 << bits), upper


def _fixed_point_block(alpha: IrrationalSpec, A: int, lo: int,
                       hi: int) -> FixedPointOrbit:
    n = np.arange(lo, hi, dtype=np.uint64)
    # R = n * A mod 2^P = high * 2^64 + low from wrapping word products;
    # the carry floor(n * a0 / 2^64) goes through a0's 32-bit halves
    a0 = A & (2 ** 64 - 1)
    low = n * np.uint64(a0)
    carry = n * np.uint64(a0 >> 32)                 # below 2^63
    carry += n * np.uint64(a0 & (2 ** 32 - 1)) >> 32
    high = n * np.uint64(A >> 64) + (carry >> 32)
    # D = 2^P - R = ~R + 1 where R >= 2^(P-1), else R: both words are
    # flipped by xor with the mask -sign, and ~low + 1 carries where low = 0
    sign = high >> 63
    high = (high ^ -sign) + (sign & (low == 0))
    low = (low ^ -sign) + sign
    # scaling by 2^-64 is exact: no result is subnormal
    dist = (high.astype(np.float64) + low.astype(np.float64) * 2.0 ** -64
            ) * 2.0 ** -64
    upper = sign.astype(bool)
    for i in np.flatnonzero(high <= n >> _FALLBACK_SHIFT).tolist():
        dist[i], upper[i] = _exact_distance(alpha, lo + i)
    return FixedPointOrbit(lo, dist, upper)


def kronecker_fixed_point_blocks(alpha: IrrationalSpec, N: int):
    """The orbit n = 1..N as an iterator over consecutive `FixedPointOrbit`
    blocks of SUM_CHUNK points (the last one shorter), so that temporaries
    stay O(block) and each block is one chunk of the prefix sums
    downstream. A point does not depend on the block it falls in. N is
    checked at the call, before any block is built.

    {n alpha} * 2^P = n*A mod 2^P (up to n) with P = 128 and
    A = floor(alpha * 2^P) exact from `floor_surd`; the product is formed
    in two uint64 words with an exact carry between them, and its
    distance to 0 mod 2^P converted to float64. N must stay below 2^31.
    """
    if not 1 <= N <= KERNEL_MAX_N:
        raise ValueError(f"N = {N} outside the fixed-point kernel's range "
                         f"[1, {KERNEL_MAX_N}]")
    A = scaled_floor(alpha, FIXED_POINT_BITS)
    return (_fixed_point_block(alpha, A, lo + 1, min(lo + SUM_CHUNK, N) + 1)
            for lo in range(0, N, SUM_CHUNK))


def kronecker_fixed_point(alpha: IrrationalSpec, N: int) -> FixedPointOrbit:
    """The whole orbit n = 1..N as one `FixedPointOrbit`, filled block by
    block."""
    blocks = kronecker_fixed_point_blocks(alpha, N)  # checks N first
    dist = np.empty(N)
    upper = np.empty(N, dtype=bool)
    for b in blocks:
        s = slice(b.first - 1, b.first - 1 + len(b))
        dist[s], upper[s] = b.dist, b.upper
    return FixedPointOrbit(1, dist, upper)


def surd_from_cf(prefix, period) -> IrrationalSpec:
    """The quadratic irrational [0; prefix..., (period...)^inf] in (0, 1).

    Lets tests construct alphas with prescribed partial quotients, e.g. one
    huge quotient injected mid-expansion.
    """
    prefix = list(prefix)
    period = list(period)
    if not period:
        raise ValueError("period must be nonempty")
    if any(t < 1 for t in prefix + period):
        raise ValueError("partial quotients must be >= 1")
    # tail y = [period; y]: y = (P y + Q) / (R y + S)
    P, Q, R, S = 1, 0, 0, 1
    for t in period:
        P, Q, R, S = P * t + Q, P, R * t + S, R
    disc = (S - P) ** 2 + 4 * R * Q
    if disc <= 0 or is_perfect_square(disc):
        raise ValueError("period does not define a quadratic irrational")
    # y = (u + sqrt(disc)) / w, the root > 1
    u, w = P - S, 2 * R
    # alpha = (A y + B) / (C y + D) with a leading zero quotient
    A, B, C, D = 0, 1, 1, 0
    for t in prefix:
        A, B, C, D = A * t + B, A, C * t + D, C
    n0, n1 = A * u + B * w, A
    m0, m1 = C * u + D * w, C
    a = n0 * m0 - n1 * m1 * disc
    b = n1 * m0 - n0 * m1
    c = m0 * m0 - m1 * m1 * disc
    g = math.gcd(math.gcd(abs(a), abs(b)), abs(c))
    if g > 1:
        a, b, c = a // g, b // g, c // g
    return IrrationalSpec(a, b, c, disc)
