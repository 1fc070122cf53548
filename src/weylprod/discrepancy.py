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

from .numerics import SUM_CHUNK, as_float_array, compensated_cumsum
from .sequences import PointSet, RationalArray


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
    consecutive blocks: m is the largest of up_i = N nums_i - i den and
    dn_i = (i+1) den - N nums_i = den - up_i, i = 0..N-1, that is
    N den D_N*, and k the first index attaining it (the up branch wins
    ties). Each branch's largest value and first index are carried from
    block to block; up is built in place in one array kept for all blocks
    (min(N, SUM_CHUNK) entries), and dn's largest is den less up's least.
    int64 blocks need den * N < 2^62; object arrays of Python ints have no
    limit."""
    best_up = best_dn = (None, 0)
    start = 0
    up = None
    for nums in blocks:
        b = len(nums)
        if up is None or b > len(up):
            size = max(b, min(N, SUM_CHUNK))
            up = np.empty(size, dtype=nums.dtype)
            steps = np.arange(size, dtype=nums.dtype) * den
        u = np.multiply(nums, N, out=up[:b])
        u -= start * den
        u -= steps[:b]                   # (x_(i+1) - i/N) * den * N
        ku = int(np.argmax(u))
        kd = int(np.argmin(u))
        vu, vd = int(u[ku]), den - int(u[kd])
        if best_up[0] is None or vu > best_up[0]:
            best_up = (vu, start + ku)
        if best_dn[0] is None or vd > best_dn[0]:
            best_dn = (vd, start + kd)
        start += b
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
    itself for one n. Each point is within `eps` - 2^-53 of the exact one,
    so `delta_at(n)` is within n (eps + 2^-53) of the exact Delta_n
    (`kronecker_discrepancy`).

    Built in O(N) from a Kronecker orbit's structure by
    `kronecker_discrepancy`; `delta_at(n)` sorts the prefix's n points, in
    O(n log n). The van der Corput prefixes need no bracket:
    `vdc_discrepancy` gives their Delta_n exactly.
    """

    points: np.ndarray
    lower: np.ndarray
    upper: np.ndarray
    eps: float

    def __len__(self):
        return len(self.points)

    def delta_at(self, n: int) -> float:
        """Delta_n by the sorted-order formula in float64 over the sorted
        first n points, bit for bit the trace's value."""
        if not 1 <= n <= len(self.points):
            raise IndexError(f"prefix {n} outside [1, {len(self.points)}]")
        return float(_float(np.sort(self.points[:n])).delta)


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
    # Each point of points() is within eps - 2^-53 of {k alpha}, which moves
    # n D_n* by at most n (eps - 2^-53); the sorted-order formula over
    # points() rounds each candidate value of d by at most 2^-53 (two
    # roundings of magnitude <= 1), 2^-53 n in Delta_n, and d n by at most
    # 2^-53 n more. So `delta_at(n)` is within n (eps + 2^-53) of the exact
    # Delta_n, and each bound takes that once more.
    # The bounds' own float operations (three, plus the widening) each
    # round by at most 2^-53 of a magnitude below 1 + 3 max|T|.
    eps = float(orbit.error().max()) + 2.0 ** -52
    n = m + 1.0
    margin = (n * (4.0 * eps + 2.0 ** -52) + 3.0 * cum_err
              + 2.0 ** -49 * (1.0 + float(np.abs(T).max())))
    lower = base + inner - margin
    upper = base + (run_max[:-1] - run_min[:-1]) + margin
    return PrefixDiscrepancy(pts, lower, upper, eps)


def vdc_discrepancy(ps) -> np.ndarray:
    """Delta_n = n D_n* of the van der Corput points phi(1..n), for every
    prefix n = 1..N of `ps` = `van_der_corput(N)`, exactly, at index n - 1:

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

    Over den = 2^L, L = bitlen(N), the numerators p_k = den phi(k) give
    den Delta_n = (den >> v) + sum_{k<n} (den - 2 p_k): one int64 cumsum.
    Each ||n / 2^j|| is at most 1/2, and those with j > L sum below 1, so
    den Delta_n and every partial sum lie below den (L/2 + 1) < 2^53:
    nothing overflows, and / den is exact in float64.
    """
    N = len(ps)
    if not (isinstance(ps, PointSet) and ps.provenance == "vdc"
            and isinstance(ps.points, RationalArray)
            and ps.points.denominator == 1 << N.bit_length()):
        raise ValueError("vdc_discrepancy needs van_der_corput(N): exact "
                         "points over 2^bitlen(N)")
    nums, den = ps.points.numerators, ps.points.denominator
    scaled = np.zeros(N, dtype=np.int64)
    np.cumsum(den - 2 * nums[:-1], out=scaled[1:])
    m = np.arange(2, N + 2, dtype=np.int64)  # n + 1
    scaled += den // (m & -m)                # den >> v
    return scaled / den


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
