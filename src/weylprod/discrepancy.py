"""Star-discrepancy of finite point sets, exact where the points are exact.

D_N* = sup_a |A_N(a)/N - a| with A_N(a) counting points in [0, a). For a
sorted multiset the supremum is max_i max(x_(i) - (i-1)/N, i/N - x_(i)),
which handles repeated points correctly under the half-open counting
convention. The prefix forms: `discrepancy_trace`, the O(N^2) float64
reference, as three arrays; the van der Corput points' exact Delta_n
beside their blocks (`vdc_discrepancy`); a Kronecker orbit's bracket and
its Delta_n for one n, both from the orbit's prefix sums with no sort
(`kronecker_discrepancy`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .irrational import FixedPointOrbit
from .numerics import SUM_CHUNK, PrefixSum
from .sequences import PointSet, RationalArray, van_der_corput_blocks


@dataclass(frozen=True)
class DiscrepancyResult:
    """d_star in [1/(2N), 1], delta = N * d_star, and the anchor a where the
    supremum is attained (as a one-sided limit for the i/N - x_(i) branch)."""

    d_star: object
    delta: object
    argmax_anchor: object


def _points_of(ps):
    return ps.points if isinstance(ps, PointSet) else ps


def star_discrepancy(ps) -> DiscrepancyResult:
    """Exact star-discrepancy of a non-empty point multiset.

    Exact points (a `RationalArray`, or Fractions and ints) give an exact
    Fraction result; any other points are read as float64 and take a
    vectorized float path.
    """
    raw = _points_of(ps)
    if len(raw) == 0:
        raise ValueError("empty point set")
    if isinstance(raw, RationalArray):
        return _exact(np.sort(raw.numerators), raw.denominator)
    pts = list(raw)
    if all(isinstance(x, (Fraction, int)) for x in pts):
        xs = [Fraction(x) for x in pts]
        den = math.lcm(*(x.denominator for x in xs))
        return _exact(sorted(x.numerator * (den // x.denominator)
                             for x in xs), den)
    return _float(np.sort(np.asarray(pts, dtype=np.float64)))


def int_sorted_max(nums, den: int) -> tuple:
    """(m, k) for an array `nums` of N sorted integer numerators over
    `den`: m is the largest of up_i = N nums_i - i den and
    dn_i = (i+1) den - N nums_i = den - up_i, i = 0..N-1, that is
    N den D_N*, and k the first index attaining it (the up branch wins
    ties); dn's largest is den less up's least. int64 arrays need
    den * N < 2^62; object arrays of Python ints have no limit."""
    N = len(nums)
    up = nums * N
    up -= np.arange(N, dtype=nums.dtype) * den  # (x_(i+1) - i/N) * den * N
    ku, kd = int(np.argmax(up)), int(np.argmin(up))
    vu, vd = int(up[ku]), den - int(up[kd])
    return (vu, ku) if vu >= vd else (vd, kd)


def _exact(nums, den: int) -> DiscrepancyResult:
    """D_N* of the points nums_i / den from their sorted numerators, by
    `int_sorted_max`, in int64 while den * N < 2^62 and in Python ints
    above."""
    N = len(nums)
    nums = np.asarray(nums, dtype=np.int64 if den * N < 1 << 62 else object)
    m, k = int_sorted_max(nums, den)
    return DiscrepancyResult(Fraction(m, den * N), Fraction(m, den),
                             Fraction(int(nums[k]), den))


def _float(xs: np.ndarray) -> DiscrepancyResult:
    N = len(xs)
    i = np.arange(1, N + 1, dtype=np.float64)
    up = xs - (i - 1.0) / N
    dn = i / N - xs
    ku = int(np.argmax(up))
    kd = int(np.argmax(dn))
    if up[ku] >= dn[kd]:
        d, k = float(up[ku]), ku
    else:
        d, k = float(dn[kd]), kd
    return DiscrepancyResult(d, d * N, float(xs[k]))


@dataclass(frozen=True, eq=False)
class DiscrepancyTrace:
    """D_N* of every prefix N = 1..len of a point sequence, as float64
    arrays `d_star`, `delta` = N d_star and `anchor`."""

    d_star: np.ndarray
    delta: np.ndarray
    anchor: np.ndarray

    def __len__(self):
        return len(self.d_star)


@dataclass(frozen=True, eq=False)
class PrefixDiscrepancy:
    """Delta_n = n D_n* for every prefix n = 1..N of a Kronecker orbit, from
    T(0..N), its error bound `T_error`, max|T| `T_max` and the terms' error
    `eps` (`kronecker_discrepancy`): bounds lower <= Delta_n <= upper a
    block at a time (`blocks`), and `delta_at(n)`, the identity's value
    itself for one n, each within `margin(n)` of the exact Delta_n. The van
    der Corput prefixes need no bracket: `vdc_discrepancy` gives their
    Delta_n exactly."""

    T: np.ndarray
    eps: float
    T_error: float
    T_max: float

    def __len__(self):
        return len(self.T) - 1

    def margin(self, n):
        """The charge of Delta_n, for an int or an array n, derived in
        `kronecker_discrepancy`."""
        return 3.0 * (n * self.eps + self.T_error) + 2.0 ** -49 * (
            1.0 + self.T_max)

    def delta_at(self, n: int) -> float:
        """Delta_n by the identity over every pair a + b = n - 1, from T in
        O(n): between the two bounds before their margin, as its inner
        maximum takes the lower bound's subtractions among its own and
        max T - min T rounds to no less than any of them."""
        if not 1 <= n <= len(self):
            raise IndexError(f"prefix {n} outside [1, {len(self)}]")
        T = self.T
        return float(0.5 + abs(T[n]) + (T[:n] - T[n - 1::-1]).max())

    def blocks(self):
        """(lower, upper) for n = 1..N in blocks of SUM_CHUNK n, from the
        running max and min of T and their last argmax a and argmin b,
        carried from block to block; no block edge moves a bit."""
        T, N = self.T, len(self)
        top, bottom, a_last, b_last = -math.inf, math.inf, 0, 0
        for s in range(0, N, SUM_CHUNK):
            e = min(s + SUM_CHUNK, N)
            t, m = T[s:e], np.arange(s, e)  # T(m), m = n - 1
            hi = np.maximum(np.maximum.accumulate(t), top)
            lo = np.minimum(np.minimum.accumulate(t), bottom)
            # a running extremum changes only where T attains it, so the
            # last such index is the last argmax (argmin) on [0, m]
            a = np.maximum.accumulate(np.where(t == hi, m, a_last))
            b = np.maximum.accumulate(np.where(t == lo, m, b_last))
            top, bottom, a_last, b_last = hi[-1], lo[-1], a[-1], b[-1]
            base = 0.5 + np.abs(T[s + 1:e + 1])
            margin = self.margin(m + 1.0)
            inner = np.maximum(T[a] - T[m - a], T[m - b] - T[b])
            lower, upper = base + inner - margin, base + (hi - lo) + margin
            del m, hi, lo, a, b, base, margin, inner  # only the bounds stay
            yield lower, upper


def kronecker_discrepancy(orbit: FixedPointOrbit) -> PrefixDiscrepancy:
    """The `PrefixDiscrepancy` of the orbit x_k = {k alpha}, k = 1..N, of a
    `FixedPointOrbit` (its float64 `points()` and per-point `error()`).

    With T(m) = sum_{k<=m} (x_k - 1/2) and T(0) = 0, the orbit satisfies
        n D_n* = 1/2 + |T(n)| + max_{a+b=n-1} (T(a) - T(b)),
    because {i alpha} < {j alpha} exactly when
    {(i-j) alpha} - {i alpha} + {j alpha} = 1. The inner maximum is at least
    the value of the pair (a*, n-1-a*), a* the last argmax of T on [0, n-1],
    and of the pair (n-1-m*, m*), m* the last argmin; that gives `lower`.
    It is at most max T - min T on [0, n-1]; that gives `upper`. Over
    every pair it gives `delta_at`. T is the one array of length N made:
    the terms x_k - 1/2 are written to it block by block and summed in
    place with `compensated_cumsum`'s amax and chunks, and so its bits.
    """
    # Margin, for the prefix n. Each float term x_k - 1/2 is within
    # eps = max error() + 2^-52 of {k alpha} - 1/2: error() bounds the
    # distance, points() adds at most 2^-53 above 1/2, the subtraction at
    # most 2^-55 below 1/4. So for m <= n, the computed T(m) is within
    # n eps + T_error of the exact T(m), and each of the bounds and
    # `delta_at`, built from three values of T for each pair (a maximum
    # over pairs moves by no more than its largest move), within
    # 3 (n eps + T_error) of the exact expression. Their own float
    # operations (three, plus a bound's widening) each round by at most
    # 2^-53 of a magnitude below 1 + 3 max|T|: 12 2^-53 (1 + max|T|) in
    # all, and the 2^-49 (1 + max|T|) charged leaves room for the margin's
    # own rounding.
    N = len(orbit)
    T, err = np.zeros(N + 1), 0.0
    for s in range(0, N, SUM_CHUNK):
        part = orbit[s:s + SUM_CHUNK]
        np.subtract(part.points(), 0.5, out=T[s + 1:s + 1 + len(part)])
        err = max(err, float(part.error().max()))
    sums = PrefixSum(N, max(abs(float(T[1:].max())), abs(float(T[1:].min()))))
    for s in range(1, N + 1, SUM_CHUNK):
        sums.feed(T[s:s + SUM_CHUNK], T[s:s + SUM_CHUNK])
    return PrefixDiscrepancy(T, err + 2.0 ** -52, sums.error_bound(),
                             sums.out_max)


def vdc_discrepancy(N: int):
    """Delta_n = n D_n* of the van der Corput points phi(1..n), for every
    prefix n = 1..N of `van_der_corput(N)`, exactly, in float64 blocks of
    SUM_CHUNK n = 1, 2, ... in order (the last one shorter), each as a
    pair (points phi(n), Delta_n) with a block of `van_der_corput_blocks`:

        Delta_n = 2^-v + sum_{k=1}^{n-1} (1 - 2 phi(k)),   v = v_2(n + 1).

    (i) S(n) = sum_{j>=1} ||n / 2^j|| is n D_n* of phi(0..n-1) (Bejian and
    Faure, C. R. Acad. Sci. Paris 285, 1977). From n to n + 1, ||n / 2^j||
    grows by 2^-j where bit j-1 of n is 0 (n mod 2^j < 2^(j-1)) and falls
    by 2^-j where it is 1, so S(n + 1) - S(n) = 1 - 2 phi(n) and
    S(n) = sum_{k<n} (1 - 2 phi(k)), whose k = 0 term is 1.
    (ii) phi(1..n) swaps the point 0 for y = phi(n). n ends in v one bits
    and a zero, so y lies in [1 - 2^-v, 1 - 2^-(v+1)). Every [0, x] with
    x < y loses a point, so the excess of points over n x drops by 1
    there; at and above y the counts stand, and the points above 1 - 2^-v
    are 1 - 2^-v + 2^-v phi(k), k < (n + 1) 2^-v - 1, a scaled shorter
    prefix, over which the excess peaks at S(n) - 1 + 2^-v. The shortfall
    stays below that, so the swap costs -1 + 2^-v. The tests check the
    identity against the sorted-order formula at every n <= 4096 and
    against a digit-by-digit max-plus program at every n <= 2^20 + 1.

    Over den = 2^L, L = bitlen(N), the numerators p_k = den phi(k) of
    `van_der_corput_blocks(N)` give den Delta_n = (den >> v) +
    sum_{k<n} (den - 2 p_k): an int64 cumsum per block, from the sum
    before it, carried as a Python int. Each ||n / 2^j|| is at most 1/2,
    and those with j > L sum below 1, so den Delta_n and every partial sum
    lie below den (L/2 + 1) < 2^53: nothing overflows, and / den is exact
    in float64. N < 1 raises ValueError at the call, before any block.
    """
    if N < 1:
        raise ValueError("N must be >= 1")
    den = 1 << N.bit_length()

    def blocks():
        carry = 0  # the sum of the terms before the block
        for s, block in zip(range(0, N, SUM_CHUNK), van_der_corput_blocks(N)):
            terms = den - 2 * block.numerators       # den - 2 p_k, k > s
            scaled = np.cumsum(terms)
            scaled -= terms                          # sum_{s<k<n}, n > s
            scaled += carry
            carry += int(terms.sum())
            m = np.arange(s + 2, s + 2 + len(terms), dtype=np.int64)  # n + 1
            scaled += den // (m & -m)                # den >> v
            yield block, scaled / den

    return blocks()


def discrepancy_trace(ps) -> DiscrepancyTrace:
    """D_N* for every prefix N = 1..len of the given point sequence.

    Points are taken in double precision, and each D_N* is the value of the
    per-prefix sorted-order formula max_i max(x_(i) - (i-1)/N, i/N - x_(i))
    evaluated in float64: one sorted insertion per prefix, O(N^2) in all.
    """
    pts = np.array([float(x) for x in _points_of(ps)], dtype=np.float64)
    if len(pts) < 1:
        raise ValueError("need at least one point")
    d_star = np.empty(len(pts), dtype=np.float64)
    anchor = np.empty(len(pts), dtype=np.float64)
    buf = np.empty(0, dtype=np.float64)
    for n, x in enumerate(pts):
        buf = np.insert(buf, np.searchsorted(buf, x), x)
        r = _float(buf)
        d_star[n], anchor[n] = r.d_star, r.argmax_anchor
    delta = d_star * np.arange(1, len(pts) + 1, dtype=np.float64)
    return DiscrepancyTrace(d_star, delta, anchor)


def brute_force_star_discrepancy(points, eps=Fraction(1, 1 << 40)) -> Fraction:
    """Independent oracle: evaluate |A_N(a)/N - a| over the anchor grid
    {0, 1} and {x_i - eps, x_i, x_i + eps} for every point, exactly.

    The true supremum exceeds this value by at most eps, which makes an
    exact sandwich test against the sorted-order formula possible.
    """
    xs = [Fraction(x) for x in points]
    N = len(xs)
    if N == 0:
        raise ValueError("empty point set")
    anchors = {Fraction(0), Fraction(1)}
    for x in xs:
        anchors.add(x)
        if x - eps >= 0:
            anchors.add(x - eps)
        if x + eps <= 1:
            anchors.add(x + eps)
    best = Fraction(0)
    for a in anchors:
        count = sum(1 for x in xs if x < a)
        val = abs(Fraction(count, N) - a)
        if val > best:
            best = val
    return best
