"""The discrepancy-extremal point set and the matching product bounds.

For even N and M = N*D the extremal configuration stacks 2M copies of 1/2
between two symmetric blocks of grid points; it realizes star-discrepancy
exactly M/N while maximizing the sine product among sets of discrepancy at
most M/N. Its product has the closed form 2N / (prod_{k<M} sin(pi k/N))^2,
which the sup-product bounds below sandwich.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .atomicio import atomic_open
from .numerics import log_two_sin_pi_array
from .sequences import PointSet, RationalArray

_LOG_2PI2 = math.log(2.0 * math.pi ** 2)
_E_OVER_PI = math.e / math.pi


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
    return PointSet(RationalArray(nums, N), "extremal",
                    {"N": N, "M": M, "d": cfg.d})


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


def threshold_B(epsilon: float, cap: int = 10 ** 7) -> int:
    """Smallest B with (M-1)^(1/M) M/(M-1) < 1 + (pi/(2e)) eps for all M > B.

    growth_factor decreases monotonically from M = 2 on, so the first M
    that satisfies the inequality pins B at M - 1; bisection finds it.
    Its log falls by ln(M-1)/M^2 per step, at least 1.6e-13 of its value
    up to M = 10^7, far above the few ulps of rounding, so the computed
    values decrease too and the bisection lands on the M a linear scan
    would.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    target = 1.0 + math.pi / (2.0 * math.e) * epsilon
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
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    if d <= 0:
        raise ValueError("d must be positive")
    return _upper_bound(log_c_epsilon(epsilon), N, d, epsilon)


def _upper_bound(log_c: float, N: int, d: float, epsilon: float) -> float:
    """`sup_product_upper_bound` with log c(eps) already computed."""
    return (log_c - math.log(N)
            + 2.0 * N * d * math.log((_E_OVER_PI + epsilon) / d))


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


def sweep(N_values, M_limit, epsilon: float) -> list:
    """Rows (N, M, d, logP, logLower, logUpper, holds_lower, holds_upper)
    over even N in N_values and M = 1..M_limit(N).

    logP equals `extremal_product_closed_form` row by row: one exact
    running sum of log sin(pi k/N) per N replaces its fsum over k < M,
    and both round the same exact sum correctly.
    """
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
            hi = _upper_bound(log_c, N, d, epsilon)
            rows.append((N, M, d, lp, lo, hi, lo <= lp + 1e-9, lp <= hi + 1e-9))
    return rows


def write_sweep_csv(rows, path) -> None:
    with atomic_open(path) as fh:
        fh.write("N,M,d,logP,logLower,logUpper,holds_lower,holds_upper\n")
        for N, M, d, lp, lo, hi, hl, hu in rows:
            fh.write(f"{N},{M},{d!r},{lp!r},{lo!r},{hi!r},"
                     f"{str(hl).lower()},{str(hu).lower()}\n")


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


def sup_search(cfg: ExtremalConfig, n_sets: int, seed: int,
               chunk: int = 4096) -> float:
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
        B = min(chunk, remaining)
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
