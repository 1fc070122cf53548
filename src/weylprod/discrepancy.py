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

import mpmath
import numpy as np

from .atomicio import atomic_open
from .numerics import as_float_array, compensated_cumsum
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

    Exact points (Fractions, ints, and mpf values, which are dyadic
    rationals) give an exact Fraction result; plain floats take a
    vectorized float64 path.
    """
    raw = _points_of(ps)
    if len(raw) == 0:
        raise ValueError("empty point set")
    if isinstance(raw, RationalArray):
        return _exact(np.sort(raw.numerators), raw.denominator)
    pts = list(raw)
    if (any(isinstance(x, mpmath.mpf) for x in pts)
            or all(isinstance(x, (Fraction, int)) for x in pts)):
        xs = [Fraction(*mpmath.libmp.to_rational(x._mpf_))
              if isinstance(x, mpmath.mpf) else Fraction(x) for x in pts]
        den = math.lcm(*(x.denominator for x in xs))
        return _exact(sorted(x.numerator * (den // x.denominator)
                             for x in xs), den)
    return _float(np.sort(np.asarray(pts, dtype=np.float64)))


def _int_sorted_max(nums: np.ndarray, den: int) -> tuple:
    """(m, k) for sorted integer numerators over `den`: m is the largest of
    N nums_i - i den and (i+1) den - N nums_i, i = 0..N-1, that is
    N den D_N*, and k the first index attaining it (the up branch wins
    ties). int64 `nums` need den * N < 2^62; an object array of Python
    ints has no limit."""
    N = len(nums)
    i = np.arange(N, dtype=nums.dtype)
    up = nums * N - i * den          # (x_(i+1) - i/N) * den * N
    dn = (i + 1) * den - nums * N    # ((i+1)/N - x_(i+1)) * den * N
    ku = int(np.argmax(up))
    kd = int(np.argmax(dn))
    if up[ku] >= dn[kd]:
        return int(up[ku]), ku
    return int(dn[kd]), kd


def _exact(nums, den: int) -> DiscrepancyResult:
    """D_N* of the points nums_i / den from their sorted numerators, in
    int64 while den * N < 2^62 and in Python ints above."""
    N = len(nums)
    nums = np.asarray(nums, dtype=np.int64 if den * N < 1 << 62 else object)
    m, k = _int_sorted_max(nums, den)
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

    # the prefix-bounds interface of KroneckerDiscrepancy: the bounds are
    # the values themselves
    @property
    def lower(self) -> np.ndarray:
        return self.delta

    @property
    def upper(self) -> np.ndarray:
        return self.delta

    def delta_at(self, n: int) -> float:
        return float(self.delta[n - 1])


@dataclass(frozen=True, eq=False)
class KroneckerDiscrepancy:
    """Bounds `lower` <= Delta_n <= `upper` for every prefix n = 1..N of a
    Kronecker orbit, where Delta_n = n D_n* is the value `discrepancy_trace`
    gives for the orbit's float64 points, and `delta_at(n)`, that value
    itself for one n.

    Built by `kronecker_discrepancy` in O(N) from the prefix-sum identity;
    `delta_at` costs O(N) per call from one argsort of the orbit.
    """

    points: np.ndarray
    order: np.ndarray  # stable argsort of points
    lower: np.ndarray
    upper: np.ndarray

    def __len__(self):
        return len(self.points)

    def delta_at(self, n: int) -> float:
        """Delta_n by the sorted-order formula in float64, bit for bit the
        trace's value: the prefix's points in sorted order are the orbit's
        sorted points with index below n."""
        if not 1 <= n <= len(self.points):
            raise IndexError(f"prefix {n} outside [1, {len(self.points)}]")
        return float(_float(self.points[self.order[self.order < n]]).delta)


def _last_arg(T: np.ndarray, run: np.ndarray) -> np.ndarray:
    """For every m, the last j <= m with T[j] == run[m], where `run` is the
    running maximum (or minimum) of T: the running extremum only changes at
    indices where T attains it, so that j is the last such index."""
    hit = np.where(T == run, np.arange(len(T)), 0)
    return np.maximum.accumulate(hit)


def kronecker_discrepancy(orbit) -> KroneckerDiscrepancy:
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
    return KroneckerDiscrepancy(pts, np.argsort(pts, kind="stable"),
                                lower, upper)


# Window length bounds: a window of T new points costs O(prefix) for its
# filters plus O(T (T + survivors)) for its matrices, so T ~ sqrt(N).
WINDOW_MIN = 32
WINDOW_MAX = 256
# A window whose rows times filtered candidates exceed SPLIT_CELLS (near-grid
# prefixes, where n x_(k) - k is nearly flat in k across the window) is split
# in halves, each filtered again over its narrower range of n, down to
# SPLIT_MIN_ROWS rows.
SPLIT_CELLS = 1 << 16
SPLIT_MIN_ROWS = 4
# Over the rows n <= b of a window, a filter value (three roundings of
# terms below b) is within 2^-51 b of its real value, and n times a prefix
# expression within 2^-52 n. A filter drops a point only when another beats
# it by more than 2^-46 b, far above these, so a dropped point is strictly
# below the maximum in floats and never ties it.
FILTER_MARGIN = 2.0 ** -46
# count offset of a window point before its row: its value then lies
# below -2^60 / n, far under any present point's
UNBORN = 1 << 60


def _max_before(x: np.ndarray) -> np.ndarray:
    """max_{j<k} x_j for every k (-inf at k = 0)."""
    out = np.empty_like(x)
    out[:1] = -np.inf
    np.maximum.accumulate(x[:-1], out=out[1:])
    return out


def _max_after(x: np.ndarray) -> np.ndarray:
    """max_{j>k} x_j for every k (-inf at the last k)."""
    return _max_before(x[::-1])[::-1]


def _merge(v, r, w, wr):
    """(v, r) and (w, wr) as one candidate list sorted by value."""
    v = np.concatenate((v, w))
    order = np.argsort(v, kind="stable")
    return v[order], np.concatenate((r, wr))[order]


def _trace_rows(vu, lo, vd, hi, W, w_lo, w_hi, a, d_out, anchor_out):
    """D_n* and its anchor for n = a..a+len(W)-1, as the per-prefix
    sorted-order formula gives them in float64.

    A value v present at time n, with L points below it and U at or below
    it, contributes v - L/n and U/n - v, in the formula's own float
    operations; the maximum over the points present is D_n*. Candidates
    are points present at time a-1, sorted by value: `vu` with `lo` points
    below (an upper bound for repeated values, whose first copy has it
    exact) for the up side, `vd` with `hi` at or below for the down side.
    `W` are the points inserted at rows a.., with `w_lo` / `w_hi` present
    points below / at or below them at time a-1.

    A candidate is dropped when another beats it at every n of the rows,
    whatever points of W are inserted; the points of W always enter.
    """
    t = len(W)
    b = a + t - 1
    margin = FILTER_MARGIN * b
    Ws = np.sort(W)
    # up side, value n v - lo - #{inserted points < v}: an earlier point
    # wins for every n <= b when b v_j - lo_j >= b v_k - lo_k; a later one
    # for every n >= a when a v_j - lo_j - C_j >= a v_k - lo_k - C_k, C
    # counting all of W below
    f1 = b * vu - lo
    f2 = a * vu - lo - np.searchsorted(Ws, vu, "left")
    keep = (f1 >= _max_before(f1) - margin) & (f2 >= _max_after(f2) - margin)
    vu, lo = vu[keep], lo[keep]
    # down side, value hi + #{inserted points <= v} - n v, mirrored
    g1 = hi - b * vd
    g2 = hi + np.searchsorted(Ws, vd, "right") - a * vd
    keep = (g1 >= _max_after(g1) - margin) & (g2 >= _max_before(g2) - margin)
    vd, hi = vd[keep], hi[keep]

    if t >= 2 * SPLIT_MIN_ROWS and (len(vu) + len(vd)) * t > SPLIT_CELLS:
        h = t // 2
        _trace_rows(vu, lo, vd, hi, W[:h], w_lo[:h], w_hi[:h], a,
                    d_out[:h], anchor_out[:h])
        # the second half sees the first half's points as candidates, and
        # every rank grows by the first half's points below it
        W1, Ws1 = W[:h], np.sort(W[:h])
        vu, lo = _merge(vu, lo + np.searchsorted(Ws1, vu, "left"),
                        W1, w_lo[:h] + np.searchsorted(Ws1, W1, "left"))
        vd, hi = _merge(vd, hi + np.searchsorted(Ws1, vd, "right"),
                        W1, w_hi[:h] + np.searchsorted(Ws1, W1, "right"))
        W2 = W[h:]
        _trace_rows(vu, lo, vd, hi, W2,
                    w_lo[h:] + np.searchsorted(Ws1, W2, "left"),
                    w_hi[h:] + np.searchsorted(Ws1, W2, "right"),
                    a + h, d_out[h:], anchor_out[h:])
        return

    n = np.arange(a, b + 1, dtype=np.float64)[:, None]
    rows = np.arange(t)
    du, au = _side_max(vu, lo, W, w_lo, n, rows, up=True)
    dd, ad = _side_max(vd, hi, W, w_hi, n, rows, up=False)
    use_up = du >= dd
    d_out[:] = np.where(use_up, du, dd)
    anchor_out[:] = np.where(use_up, au, ad)


def _side_max(v, r, W, w_r, n, rows, up: bool) -> tuple:
    """Row maxima of v - L/n (`up`) or U/n - v over the candidates v with
    counts r and the points W, W[j] present from row j on, and the
    smallest v attaining each maximum."""
    K, t = len(r), len(W)
    v = np.concatenate((v, W))
    # sorted by value, the first maximizing column has the smallest value,
    # as the formula's argmax over the sorted points does
    order = np.argsort(v, kind="stable")
    v = v[order]
    col = np.argsort(order)[K:]  # column of W[j]
    counts = np.empty((t + 1, len(v)), dtype=np.int64)
    counts[0] = np.concatenate((r, w_r))[order]
    (np.less if up else np.less_equal)(W[:, None], v, out=counts[1:])
    absent = UNBORN if up else -UNBORN
    counts[0, col] += absent
    counts[rows + 1, col] -= absent
    np.cumsum(counts, axis=0, out=counts)
    vals = counts[1:] / n
    if up:
        np.subtract(v, vals, out=vals)
    else:
        vals -= v
    k = vals.argmax(axis=1)
    return vals[rows, k], v[k]


def discrepancy_trace(ps, N_max: int | None = None) -> DiscrepancyTrace:
    """D_N* for every prefix N = 1..N_max of the given point sequence.

    Points are taken in double precision, and each D_N* is the value of the
    per-prefix sorted-order formula max_i max(x_(i) - (i-1)/N, i/N - x_(i))
    evaluated in float64, bit for bit. Prefixes are processed in windows of
    about sqrt(N_max) new points against a sorted buffer of the earlier
    ones, which is merged once per window.
    """
    pts = as_float_array(_points_of(ps))
    n_max = len(pts) if N_max is None else min(N_max, len(pts))
    if n_max < 1:
        raise ValueError("need at least one point")
    d_star = np.empty(n_max, dtype=np.float64)
    anchor = np.empty(n_max, dtype=np.float64)
    T = min(WINDOW_MAX, max(WINDOW_MIN, math.isqrt(n_max)))
    S = np.empty(0, dtype=np.float64)
    for n0 in range(0, n_max, T):
        W = pts[n0:min(n0 + T, n_max)]
        # sorted position k of S has k points before it (exact for the
        # first of equal values) and k + 1 up to it (exact for the last)
        k = np.arange(n0)
        _trace_rows(S, k, S, k + 1, W, np.searchsorted(S, W, "left"),
                    np.searchsorted(S, W, "right"), n0 + 1,
                    d_star[n0:n0 + len(W)], anchor[n0:n0 + len(W)])
        # S is one sorted run, so the stable (merge) sort costs
        # O(n0 + T log T)
        S = np.sort(np.concatenate((S, W)), kind="stable")
    delta = d_star * np.arange(1, n_max + 1, dtype=np.float64)
    return DiscrepancyTrace(d_star, delta, anchor)


def write_trace_csv(trace, path) -> None:
    """Serialize a discrepancy trace as "N,d_star,delta"."""
    with atomic_open(path) as fh:
        fh.write("N,d_star,delta\n")
        for n, r in enumerate(trace, 1):
            fh.write(f"{n},{float(r.d_star)!r},{float(r.delta)!r}\n")


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
