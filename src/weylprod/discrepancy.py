"""Star-discrepancy of finite point sets, exact where the points are exact.

D_N* = sup_a |A_N(a)/N - a| with A_N(a) counting points in [0, a). For a
sorted multiset the supremum is max_i max(x_(i) - (i-1)/N, i/N - x_(i)),
which handles repeated points correctly under the half-open counting
convention.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .numerics import as_float_array, compensated_cumsum
from .sequences import PointSet, RationalArray, van_der_corput


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


def int_sorted_max(blocks, den: int, N: int) -> tuple:
    """(m, k) for N sorted integer numerators over `den`, given in
    consecutive blocks: m is the largest of N nums_i - i den and
    (i+1) den - N nums_i, i = 0..N-1, that is N den D_N*, and k the first
    index attaining it (the up branch wins ties). Each branch's largest
    value and first index are carried from block to block. int64 blocks
    need den * N < 2^62; object arrays of Python ints have no limit."""
    best_up = best_dn = (None, 0)
    start = 0
    for nums in blocks:
        i = np.arange(start, start + len(nums), dtype=nums.dtype)
        up = nums * N - i * den          # (x_(i+1) - i/N) * den * N
        dn = (i + 1) * den - nums * N    # ((i+1)/N - x_(i+1)) * den * N
        ku = int(np.argmax(up))
        kd = int(np.argmax(dn))
        if best_up[0] is None or up[ku] > best_up[0]:
            best_up = (int(up[ku]), start + ku)
        if best_dn[0] is None or dn[kd] > best_dn[0]:
            best_dn = (int(dn[kd]), start + kd)
        start += len(nums)
    return best_up if best_up[0] >= best_dn[0] else best_dn


def _exact(nums, den: int) -> DiscrepancyResult:
    """D_N* of the points nums_i / den from their sorted numerators, in
    int64 while den * N < 2^62 and in Python ints above, as one block."""
    N = len(nums)
    nums = np.asarray(nums, dtype=np.int64 if den * N < 1 << 62 else object)
    m, k = int_sorted_max([nums], den, N)
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
    arrays `d_star`, `delta` = N d_star and `anchor`; indexing and iteration
    give one DiscrepancyResult per prefix."""

    d_star: np.ndarray
    delta: np.ndarray
    anchor: np.ndarray

    def __len__(self):
        return len(self.d_star)

    def __getitem__(self, i):
        return DiscrepancyResult(float(self.d_star[i]), float(self.delta[i]),
                                 float(self.anchor[i]))

    def __iter__(self):
        for i in range(len(self)):
            yield self[i]


@dataclass(frozen=True, eq=False)
class PrefixDiscrepancy:
    """Bounds `lower` <= Delta_n <= `upper` for every prefix n = 1..N of a
    point sequence, where Delta_n = n D_n* is the value `discrepancy_trace`
    gives for the sequence's float64 `points`, and `delta_at(n)`, that value
    itself for one n.

    Built in O(N) or O(N log N) from the sequence's structure, by
    `kronecker_discrepancy` and `vdc_discrepancy`; `delta_at` costs O(N)
    per call from one argsort of the points.
    """

    points: np.ndarray
    order: np.ndarray  # stable argsort of points
    lower: np.ndarray
    upper: np.ndarray

    def __len__(self):
        return len(self.points)

    def delta_at(self, n: int) -> float:
        """Delta_n by the sorted-order formula in float64, bit for bit the
        trace's value: the prefix's points in sorted order are the sorted
        points with index below n."""
        if not 1 <= n <= len(self.points):
            raise IndexError(f"prefix {n} outside [1, {len(self.points)}]")
        return float(_float(self.points[self.order[self.order < n]]).delta)


def _last_arg(T: np.ndarray, run: np.ndarray) -> np.ndarray:
    """For every m, the last j <= m with T[j] == run[m], where `run` is the
    running maximum (or minimum) of T: the running extremum only changes at
    indices where T attains it, so that j is the last such index."""
    hit = np.where(T == run, np.arange(len(T)), 0)
    return np.maximum.accumulate(hit)


def kronecker_discrepancy(orbit) -> PrefixDiscrepancy:
    """Prefix-discrepancy bounds of the orbit x_k = {k alpha}, k = 1..N, from
    a `FixedPointOrbit` (its float64 `points()` and per-point `error()`).

    With T(m) = sum_{k<=m} (x_k - 1/2) and T(0) = 0, the orbit satisfies
        n D_n* = 1/2 + |T(n)| + max_{a+b=n-1} (T(a) - T(b)),
    because {i alpha} < {j alpha} exactly when
    {(i-j) alpha} - {i alpha} + {j alpha} = 1. The inner maximum is at least
    the value of the pair (a*, n-1-a*), a* the last argmax of T on [0, n-1],
    and of the pair (n-1-m*, m*), m* the last argmin; that gives `lower`.
    It is at most max T - min T on [0, n-1]; that gives `upper`.
    """
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
    # Margin, for the prefix n. Each float term x_k - 1/2 is within
    # eps = max error() + 2^-52 of {k alpha} - 1/2: error() bounds the
    # distance, points() adds at most 2^-53 above 1/2, the subtraction at
    # most 2^-55 below 1/4. So for m <= n, the computed T(m) is within
    # n eps + cum_err of the exact T(m), and each bound, built from three
    # values of T, within 3 (n eps + cum_err) of the exact expression.
    # Moving every point by at most eps moves n D_n* by at most n eps, so
    # the trace's Delta_n, taken from points(), is within n eps of the exact
    # n D_n*, plus the rounding of its formula: each candidate value is
    # within 2^-53 of exact (two roundings of magnitude <= 1, in units of
    # 2^-54), and d n takes one more rounding of at most 2^-53 n.
    # The bounds' own float operations (three, plus the widening) each
    # round by at most 2^-53 of a magnitude below 1 + 3 max|T|.
    eps = float(orbit.error().max()) + 2.0 ** -52
    n = m + 1.0
    margin = (n * (4.0 * eps + 2.0 ** -52) + 3.0 * cum_err
              + 2.0 ** -49 * (1.0 + float(np.abs(T).max())))
    lower = base + inner - margin
    upper = base + (run_max[:-1] - run_min[:-1]) + margin
    return PrefixDiscrepancy(pts, np.argsort(pts, kind="stable"),
                             lower, upper)


# value of an unreachable state of `_vdc_deltas`; every path sum stays
# below L 2^(L+1) in magnitude, so adding gains to it never wraps
_UNREACHED = -(1 << 62)


def _vdc_deltas(n_max: int) -> np.ndarray:
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


def vdc_discrepancy(N: int) -> PrefixDiscrepancy:
    """Prefix-discrepancy bounds of the van der Corput points phi(1..N)
    from the exact Delta_n of every prefix (`_vdc_deltas`), O(N log N)."""
    pts = van_der_corput(N).points.to_float_array()
    delta = _vdc_deltas(N) / float(1 << (N + 1).bit_length())
    # Margin, for the prefix n. The points are exact in float64. The
    # trace's Delta_n takes each candidate value of the sorted-order formula
    # within 2^-53 of exact (two roundings of magnitude <= 1, in units of
    # 2^-54), and d n one more rounding of at most 2^-53 n: within 2^-52 n
    # of the exact Delta_n <= n. Converting that to float64 rounds by at
    # most 2^-53 n, and adding or subtracting the margin by at most
    # 2^-53 (n + margin): 2^-50 n covers the sum.
    margin = np.arange(1, N + 1) * 2.0 ** -50
    return PrefixDiscrepancy(pts, np.argsort(pts, kind="stable"),
                             delta - margin, delta + margin)


def discrepancy_trace(ps) -> DiscrepancyTrace:
    """D_N* for every prefix N = 1..len of the given point sequence.

    Points are taken in double precision, and each D_N* is the value of the
    per-prefix sorted-order formula max_i max(x_(i) - (i-1)/N, i/N - x_(i))
    evaluated in float64: one sorted insertion per prefix, O(N^2) in all.
    """
    pts = as_float_array(_points_of(ps))
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
