"""The discrepancy-extremal point set and the matching product bounds.

For even N and M = N*D the extremal configuration stacks 2M copies of 1/2
between two symmetric blocks of grid points; it realizes star-discrepancy
exactly M/N while maximizing the sine product among sets of discrepancy at
most M/N. Its product has the closed form 2N / (prod_{k<M} sin(pi k/N))^2,
which the sup-product bounds below sandwich. `sweep` evaluates the closed
form and both bounds at every (N, M) of a list of N as the numpy columns of
a `Sweep`, which the CLI computes and writes as CSV in blocks of whole N:
`Sweep.csv_text` builds each column's ASCII bytes, the floats' from
Schubfach's shortest digits laid out in repr's layout by
`numerics.number_text`, and `numerics.byte_lines` makes them lines.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate, chain, repeat
from operator import sub

import numpy as np

from .numerics import (BASE_TOL, POW10, ascii_digits, ascii_int,
                       byte_lines, log_two_sin_pi_array, number_text)
from .sequences import PointSet, RationalArray

_LOG_2PI2 = math.log(2.0 * math.pi ** 2)
_E_OVER_PI = math.e / math.pi
# threshold_B searches M up to this cap and raises beyond it
THRESHOLD_CAP = 10 ** 7


@dataclass(frozen=True)
class ExtremalConfig:
    """Even N with an integer discrepancy target M = N*D, 1 <= M <= N/2."""

    N: int
    M: int

    def __post_init__(self):
        if self.N < 2 or self.N % 2:
            raise ValueError("N must be even and >= 2")
        if not 1 <= self.M <= self.N // 2:
            raise ValueError("M must satisfy 1 <= M <= N/2")

    @property
    def d(self) -> Fraction:
        return Fraction(self.M, self.N)


def build_extremal(cfg: ExtremalConfig) -> PointSet:
    """The multiset {M/N .. (N/2-1)/N} u {(N/2+1)/N .. (N-M)/N} u {1/2}^(2M).

    For M = N/2 both grid blocks are empty and the set degenerates to N
    copies of 1/2.
    """
    N, M = cfg.N, cfg.M
    half = N // 2
    nums = np.concatenate((np.arange(M, half), np.full(2 * M, half),
                           np.arange(half + 1, N - M + 1)))
    if len(nums) != N:
        raise AssertionError("extremal construction lost points")
    return PointSet(RationalArray(nums, N), "extremal")


def extremal_product_closed_form(cfg: ExtremalConfig) -> float:
    """log P_N of the extremal set: log(2N) - 2 sum_{k<M} log sin(pi k/N).

    The correction sum is empty for M = 1, leaving log(2N).
    """
    N, M = cfg.N, cfg.M
    corr = math.fsum(math.log(math.sin(math.pi * k / N)) for k in range(1, M))
    return math.log(2.0 * N) - 2.0 * corr


def sup_product_lower_bound(N: int, d: float) -> float:
    """log of (2 pi^2 / e^6) (1/N) ((e/pi) / d)^(2 N d).

    Valid for any d in [1/(2N), 1]; no integrality of N*d is needed.
    """
    if not 1.0 / (2 * N) <= d <= 1.0:
        raise ValueError(f"d = {d} outside [1/(2N), 1]")
    return (_LOG_2PI2 - 6.0 - math.log(N)
            + 2.0 * N * d * math.log(_E_OVER_PI / d))


def growth_factor(M: int) -> float:
    """(M-1)^(1/M) * M/(M-1), the quantity the epsilon threshold controls."""
    if M < 2:
        raise ValueError("M must be >= 2")
    return (M - 1) ** (1.0 / M) * M / (M - 1)


def threshold_B(epsilon: float) -> int:
    """Smallest B with (M-1)^(1/M) M/(M-1) < 1 + (pi/(2e)) eps for all M > B.

    growth_factor decreases monotonically from M = 2 on, so the first M
    that satisfies the inequality pins B at M - 1; bisection finds it.
    Its log falls by ln(M-1)/M^2 per step, at least 1.6e-13 of its value
    up to M = 10^7, far above the few ulps of rounding, so the computed
    values decrease too and the bisection lands on the M a linear scan
    would. Thresholds above THRESHOLD_CAP raise.
    """
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    target = 1.0 + math.pi / (2.0 * math.e) * epsilon
    cap = THRESHOLD_CAP
    if cap < 2 or not growth_factor(cap) < target:
        raise ValueError(
            f"epsilon = {epsilon} too small: threshold beyond {cap}")
    lo, hi = 1, cap  # growth_factor(hi) < target; no M <= lo qualifies
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if growth_factor(mid) < target:
            hi = mid
        else:
            lo = mid
    return hi - 1


def log_c_epsilon(epsilon: float) -> float:
    """log of max_{M <= B(eps)} (2 pi^2/e^2) e^(2M(M-1)) (M-1)^2 (M/(M-1))^(2M).

    The maximand explodes like e^(2M^2), so only its log is representable.
    Its log has slope 4M - 2 + 2 log(M/(M-1)) > 0 for M >= 2, so the max
    is the M = B term; for B = 1 only the prefactor 2 pi^2/e^2 remains.
    """
    M = threshold_B(epsilon)
    if M < 2:
        return _LOG_2PI2 - 2.0
    return (_LOG_2PI2 - 2.0 + 2.0 * M * (M - 1) + 2.0 * math.log(M - 1)
            + 2.0 * M * math.log(M / (M - 1)))


def sup_product_upper_bound(N: int, d: float, epsilon: float) -> float:
    """log of c(eps) (1/N) ((e/pi + eps) / d)^(2 N d)."""
    if not epsilon > 0:
        raise ValueError("epsilon must be positive")
    if d <= 0:
        raise ValueError("d must be positive")
    return (log_c_epsilon(epsilon) - math.log(N)
            + 2.0 * N * d * math.log((_E_OVER_PI + epsilon) / d))


@dataclass(frozen=True, eq=False)
class Sweep:
    """The rows of `sweep` as columns, entry i of each for row i: int64 N
    and M, float64 d, log_p, log_lower and log_upper, and the bool flags
    holds_lower and holds_upper. `len` is the row count, and iteration
    yields the rows as tuples of Python numbers (N, M, d, logP, logLower,
    logUpper, holds_lower, holds_upper)."""

    N: np.ndarray
    M: np.ndarray
    d: np.ndarray
    log_p: np.ndarray
    log_lower: np.ndarray
    log_upper: np.ndarray
    holds_lower: np.ndarray
    holds_upper: np.ndarray

    CSV_HEADER = "N,M,d,logP,logLower,logUpper,holds_lower,holds_upper\n"

    def __len__(self) -> int:
        return len(self.N)

    def __iter__(self):
        return zip(*(col.tolist() for col in (
            self.N, self.M, self.d, self.log_p, self.log_lower,
            self.log_upper, self.holds_lower, self.holds_upper)))

    def csv_text(self) -> str:
        """The rows as CSV lines under `CSV_HEADER`, CSV_CHUNK at a time:
        the floats as `repr` prints them, the flags as true or false."""
        cols = (self.N, self.M, self.d, self.log_p, self.log_lower,
                self.log_upper, 2 * self.holds_lower + self.holds_upper)
        return "".join([_csv_rows(*(col[i:i + CSV_CHUNK] for col in cols))
                        for i in range(0, len(self), CSV_CHUNK)])


# rows `csv_text` prints at once: its uint64 temporaries, one word per
# float, 4 per row, stay below glibc's 128 KB mmap threshold
CSV_CHUNK = 1024
# the CSV text of (holds_lower, holds_upper) at 2 holds_lower + holds_upper,
# and as NUL-padded ASCII columns with the newline
_FLAG_TEXT = ("false,false", "false,true", "true,false", "true,true")
_FLAG_BYTES = np.array([list(f"{s}\n".encode().ljust(12, b"\0"))
                        for s in _FLAG_TEXT], np.uint8).T
_M32 = np.uint64(2 ** 32 - 1)


def _g(k: int) -> int:
    """Schubfach's g for the decimal exponent k: floor(10^-k 2^(125 - b))
    + 1 with b = floor(-k log2 10), so that 2^125 < g <= 2^126."""
    b = -k * 913124641741 >> 38
    num, den = (10 ** -k, 1) if k <= 0 else (1, 10 ** k)
    return (num << max(125 - b, 0)) // (den << max(b - 125, 0)) + 1


def _mulhi(a_hi, a_lo, b_hi, b_lo) -> np.ndarray:
    """The high words of the 128-bit products a b of uint64 a = a_hi 2^32 +
    a_lo < 2^63 and b = b_hi 2^32 + b_lo < 2^60: no partial sum wraps."""
    mid = (a_lo * b_lo >> 32) + a_lo * b_hi + a_hi * b_lo
    return a_hi * b_hi + (mid >> 32)


def _shortest(bits: np.ndarray):
    """(f, k) for the uint64 bit patterns of normal, finite float64 v:
    f 10^k is the shortest decimal that reads back as v and, of those, the
    closest to v, ties to even f; f may end in zeros. This is Schubfach
    (R. Giulietti, "The Schubfach way to render doubles", 2020) as
    OpenJDK's DoubleToDecimal runs it, with g(k) made per distinct k."""
    t = bits & np.uint64(2 ** 52 - 1)
    bq = (bits >> 52 & 0x7FF).astype(np.int64)
    c = t | np.uint64(2 ** 52)
    q = bq - 1075
    irregular = (t == 0) & (bq > 1)  # the spacing below v is half
    k = q * 661971961083 - irregular * 274743187321 >> 41
    h = (q + (-k * 913124641741 >> 38) + 2).astype(np.uint64)  # 2..5
    lo = int(k.min())
    g = np.zeros((2, int(k.max()) - lo + 1), np.uint64)
    for i in np.flatnonzero(np.bincount(k - lo)).tolist():
        g[:, i] = divmod(_g(lo + i), 2 ** 63)
    g1, g0 = g[0][k - lo], g[1][k - lo]
    halves = g1 >> 32, g1 & _M32, g0 >> 32, g0 & _M32
    # 4 10^-k times v and the ends of its interval: 4c - 2 (- 1 where
    # irregular), 4c and 4c + 2 times 2^h g / 2^127, rounded to odd
    cb = c << 2
    ends = []
    for cp in (cb - 2 + irregular, cb, cb + 2):
        cp = cp << h
        cp_halves = cp >> 32, cp & _M32
        z = (g1 * cp >> 1) + _mulhi(*halves[2:], *cp_halves)
        ends.append((_mulhi(*halves[:2], *cp_halves) + (z >> 63))
                    | (z << 1 != 0))
    vl, v, vr = ends
    vl += c & 1  # the ends belong to the interval for even c only
    vr -= c & 1
    s = v >> 2
    s10 = s // 10 * 10
    # one of s10 and s10 + 10 in the interval is the shortest; else the
    # closer of s and s + 1 that is in it
    u10, w10 = vl <= s10 << 2, s10 + 10 << 2 <= vr
    u, w = vl <= s << 2, s + 1 << 2 <= vr
    mid = s << 2 | 2
    pick_s = np.where(u != w, u, (v < mid) | (v == mid) & (s & 1 == 0))
    return np.where(u10 != w10, np.where(u10, s10, s10 + 10),
                    s + ~pick_s), k


def _float_columns(x: np.ndarray) -> np.ndarray:
    """(width, len(x)) uint8: column i is `repr(x[i])` (`float_repr_style`
    'short') in ASCII, NUL-padded: a sign, then Schubfach's digits laid out
    by `number_text`, fixed for 1e-4 <= |x| < 1e16, else d.ddde-05 or
    de+16. Zeros, subnormals, infinities and nan are left to `repr`."""
    normal = np.abs(x) >= np.finfo(np.float64).tiny  # the smallest normal
    normal &= np.isfinite(x)
    f, k = _shortest(np.where(normal, x, 1.0).view(np.uint64))
    size = np.searchsorted(POW10, f, side="right")
    D = ascii_digits(f * POW10[17 - size], 17)  # f's digits, left-aligned
    T = number_text(D, k + size - 1, (-5, 15), 2, False)
    own = np.flatnonzero(~normal).tolist()
    texts = [repr(v) for v in x[own].tolist()]
    S = np.zeros((max([1 + len(T), *map(len, texts)]), len(x)), np.uint8)
    S[0] = (x < 0) * np.uint8(45)
    S[1:1 + len(T)] = T
    for i, t in zip(own, texts):
        S[:, i] = np.frombuffer(t.ljust(len(S), "\0").encode(), np.uint8)
    return S


def _csv_rows(N, M, d, log_p, log_lower, log_upper, flags) -> str:
    """The CSV lines of rows with these columns, flags as 2 holds_lower +
    holds_upper, from their ASCII columns (`byte_lines`)."""
    n = len(N)
    # N and M: sign, then digits without leading zeros
    ints = np.concatenate((N, M))
    heads = np.concatenate(((ints < 0)[None] * np.uint8(45),
                            ascii_int(np.abs(ints).view(np.uint64), 1)))
    floats = _float_columns(np.concatenate((d, log_p, log_lower, log_upper)))
    cols = [*heads.reshape(-1, 2, n).swapaxes(0, 1),
            *floats.reshape(-1, 4, n).swapaxes(0, 1)]
    return byte_lines([p for col in cols for p in (col, b",")]
                      + [_FLAG_BYTES[:, flags]], n)


def _libm(fn, x: np.ndarray) -> np.ndarray:
    """fn, a `math` function, at every entry of the float64 array x:
    numpy's own log can differ from libm's in the last bit."""
    return np.fromiter(map(fn, x.tolist()), np.float64, len(x))


def sweep(N_values, M_limit, epsilon: float) -> Sweep:
    """The rows (N, M, d, logP, logLower, logUpper, holds_lower,
    holds_upper) over the even N in N_values, in their order, and
    M = 1..M_limit(N), as the columns of a `Sweep`; an N with
    M_limit(N) < 1 has no rows. The flags pad by `BASE_TOL`.

    logP equals `extremal_product_closed_form` row by row, from integer
    prefix sums. The terms t_k = log sin(pi k/N), 1 <= k < M_limit(N), are
    floats, so each is an integer multiple of 2^(e_k - 53), e_k its
    `frexp` exponent, and all the terms of the call are multiples of 2^-s
    with s = 53 - min(0, min e_k). Their running sum over all rows is then
    exact in Python ints in units of 2^-s, and the sum t_1 + .. + t_(M-1)
    of a row is that running sum less its value at the N's row M = 1.
    Converting one to float and scaling it by 2^-s rounds the exact sum
    once, correctly, as the fsum over k < M does. The bounds are
    `sup_product_lower_bound` and `sup_product_upper_bound` with their
    parts that depend on N alone taken once per N, in the same order of
    operations. Array arithmetic keeps that order; every sine and log is
    libm's (`math`), one call per value, and the sums are the only Python
    ints.
    """
    log_c = log_c_epsilon(epsilon)
    Ns, counts = [], []
    for N in N_values:
        M_max = M_limit(N)
        if M_max >= 1:
            ExtremalConfig(N, M_max)  # validates N and every M <= M_max
            Ns.append(N)
            counts.append(M_max)
    count = np.array(counts, dtype=np.int64)
    n_col = np.array(Ns, dtype=np.int64)
    first = np.cumsum(count) - count  # the row of each N's M = 1
    N = np.repeat(n_col, count)
    M = np.arange(1, len(N) + 1) - np.repeat(first, count)
    d = M / N
    # t_(M-1) enters the sum at row M; row M = 1 adds nothing
    k = M - 1
    has_term = k > 0
    x = np.pi * k[has_term] / N[has_term]
    terms = np.fromiter(map(math.log, map(math.sin, x.tolist())), np.float64,
                        len(x))
    s = 53 - int(np.frexp(terms)[1].min(initial=0))
    scaled = np.zeros(len(N))
    scaled[has_term] = np.ldexp(terms, s)
    run = list(accumulate(map(int, scaled.tolist())))
    # each row's copy of the running sum at its N's row M = 1
    starts = chain.from_iterable(map(repeat, map(run.__getitem__,
                                                 first.tolist()), counts))
    sums = np.fromiter(map(float, map(sub, run, starts)), np.float64, len(N))
    log_n, log_2n = _libm(math.log, n_col), _libm(math.log, 2.0 * n_col)
    log_p = np.repeat(log_2n, count) - 2.0 * np.ldexp(sums, -s)
    two_n = 2.0 * N
    lower = (np.repeat(_LOG_2PI2 - 6.0 - log_n, count)
             + two_n * d * _libm(math.log, _E_OVER_PI / d))
    upper = (np.repeat(log_c - log_n, count)
             + two_n * d * _libm(math.log, (_E_OVER_PI + epsilon) / d))
    return Sweep(N, M, d, log_p, lower, upper, lower <= log_p + BASE_TOL,
                 log_p <= upper + BASE_TOL)


def direct_log_product(cfg: ExtremalConfig) -> float:
    """log P_N of the extremal set summed term by term (no closed form).

    Sums the actual N log-factors of the multiset; serves as the product
    oracle against extremal_product_closed_form.
    """
    N, M = cfg.N, cfg.M
    half = N // 2
    ks = [k for k in range(M, half)] + [k for k in range(half + 1, N - M + 1)]
    terms = [math.log(2.0 * math.sin(math.pi * k / N)) for k in ks]
    terms += [math.log(2.0)] * (2 * M)
    return math.fsum(terms)


# point sets `sup_search` draws per batch, as one SEARCH_CHUNK x N array
SEARCH_CHUNK = 4096


def sup_search(cfg: ExtremalConfig, n_sets: int, seed: int) -> float:
    """Random search for a product beating the extremal set.

    Samples point sets with star-discrepancy <= M/N by construction: the
    i-th order statistic is drawn from [max(previous, (i-M)/N), (i-1+M)/N],
    which is exactly the sorted characterization of D* <= M/N. Returns the
    best log-product found over n_sets samples.
    """
    N, M = cfg.N, cfg.M
    rng = np.random.default_rng(seed)
    i = np.arange(1, N + 1, dtype=np.float64)
    lo_win = np.clip((i - M) / N, 0.0, 1.0)
    hi_win = np.clip((i - 1 + M) / N, 0.0, 1.0)
    best = -math.inf
    remaining = n_sets
    while remaining > 0:
        B = min(SEARCH_CHUNK, remaining)
        remaining -= B
        X = np.empty((B, N))
        prev = np.zeros(B)
        for j in range(N):
            lo = np.maximum(prev, lo_win[j])
            X[:, j] = lo + (hi_win[j] - lo) * rng.random(B)
            prev = X[:, j]
        X = np.clip(X, 1e-300, 1.0 - 1e-16)
        logs = log_two_sin_pi_array(X).sum(axis=1)
        best = max(best, float(logs.max()))
    return best
