"""Monte Carlo experiments for the probabilistic product laws.

The iterated-logarithm constants are asymptotic almost-sure statements;
nothing here asserts them directly. Experiments report per-path maxima of
the normalized sums, and the tests check those against wide pilot-derived
sanity bands plus the exactly checkable structure (variance integral,
selection identity, weight bounds).

Each model computes its path-independent work once per run: the weights
and B_N, and the normaliser grid (`_ratio_grid`) over the admissible N,
a suffix of 1..N_max, and hands one path loop (`_path_statistics`) its
draw of a path's summands. One path then costs its RNG draws, one pass
of the log(2 sin pi x) kernel (iid; the Kronecker weights are shared),
one cumsum and one slice-divide-argmax (`_path_row`). The tests keep
each model's own per-path loop as an oracle, and the outputs equal
theirs bit for bit.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .atomicio import atomic_open
from .irrational import IrrationalSpec, kronecker_fixed_point
from .numerics import log_two_sin_pi_array

PI2_OVER_12 = math.pi ** 2 / 12.0
IID_SIGMA_CONSTANT = math.pi / math.sqrt(6.0)
SUBSEQ_CONSTANT = math.pi / math.sqrt(12.0)
# the smallest N (K for the subsequence model) the LIL ratio is taken at
N_LO = 100
# the shortest path the iid model accepts
IID_MIN_N_MAX = 10 ** 3


class QuadResult(NamedTuple):
    value: float
    error_estimate: float


def _log_sine_moment(k: int) -> QuadResult:
    """integral_0^1 log^k(2 sin pi x) dx. The integrand is symmetric about
    1/2: twice its integral over [0, 1/2] by tanh-sinh quadrature at double
    precision, whose nodes cluster at the logarithmic singularity at 0."""
    import mpmath
    with mpmath.mp.workprec(53):
        value, err = mpmath.quad(
            lambda x: mpmath.log(2 * mpmath.sinpi(x)) ** k, [0, 0.5],
            error=True)
    return QuadResult(2.0 * float(value), 2.0 * float(err))


def log_integral() -> QuadResult:
    """integral_0^1 log(2 sin pi x) dx, which vanishes."""
    return _log_sine_moment(1)


def variance_integral() -> QuadResult:
    """integral_0^1 log^2(2 sin pi x) dx = pi^2 / 12."""
    return _log_sine_moment(2)


@dataclass
class PathStatistics:
    """Per-path LIL ratios plus pooled sample moments for one experiment.

    `lil_ratios[i]`, read from `rows[i]`, is path i's max over N in
    [N_LO, N_max] of
    S_N / sqrt(2 B_N loglog B_N) (for the subsequence model the theorem's
    normalizer sqrt(K loglog K) is used instead, with the reference
    constant recorded in `details`).
    """

    model: str
    n_paths: int
    N_max: int
    seed: int
    empirical_mean: float
    empirical_variance: float
    details: dict
    rows: list  # (path_id, N, S_N, B_N, ratio)

    @property
    def lil_ratios(self) -> list:
        return [row[4] for row in self.rows]


class _RatioGrid(NamedTuple):
    """The path-independent part of one model's LIL ratio.

    B is nondecreasing, so the admissible N (N >= n_lo and B_N > e) form
    a suffix of 1..N_max: `start` is its first 0-based index and `denom`
    holds sqrt(factor B_N loglog B_N) from there on.
    """

    start: int
    denom: np.ndarray


def _ratio_grid(B: np.ndarray, n_lo: int, factor: float = 2.0) -> _RatioGrid:
    """The normaliser grid over N >= n_lo for a nondecreasing B."""
    lo = max(n_lo, 1) - 1
    start = lo + int(np.searchsorted(B[lo:], math.e, side="right"))
    if start >= len(B):
        raise ValueError(f"no N in [{lo + 1}, {len(B)}] has B_N > e: "
                         f"the ratio grid is empty")
    Bs = B[start:]
    return _RatioGrid(start, np.sqrt(factor * Bs * np.log(np.log(Bs))))


def _path_row(pid: int, S: np.ndarray, B: np.ndarray,
              grid: _RatioGrid) -> tuple:
    """Path pid's CSV row (path_id, N, S_N, B_N, ratio) at the argmax of
    S_N / denom_N over the grid; the ratio is that max."""
    vals = S[grid.start:] / grid.denom
    k = int(np.argmax(vals))
    pos = grid.start + k
    return pid, pos + 1, float(S[pos]), float(B[pos]), float(vals[k])


def _path_statistics(model: str, n_paths: int, seed: int, B: np.ndarray,
                     grid: _RatioGrid, draw, settle,
                     details: dict) -> PathStatistics:
    """The one path loop of every model, over N = len(B) summands a path.

    Path i takes the i-th generator spawned from SeedSequence(seed) and
    draws its summands y with `draw(rng)`, a fresh array the loop may
    overwrite; its row is read from S = cumsum(y) at the ratio argmax
    (`_path_row`), and `settle`, unless None, is handed S_N. Sum y and sum
    y^2 over all paths give the pooled mean and variance."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    N = len(B)
    rows = []
    tot = tot_sq = 0.0
    for pid, child in enumerate(np.random.SeedSequence(seed).spawn(n_paths)):
        y = draw(np.random.default_rng(child))
        S = np.cumsum(y)
        rows.append(_path_row(pid, S, B, grid))
        if settle is not None:
            settle(float(S[-1]))
        tot += float(y.sum())
        y *= y
        tot_sq += float(y.sum())
    mean = tot / (n_paths * N)
    var = tot_sq / (n_paths * N) - mean * mean
    return PathStatistics(model, n_paths, N, seed, mean, var, details, rows)


def iid_lil_experiment(n_paths: int, N_max: int, seed: int) -> PathStatistics:
    """S_N = sum log(2 sin pi X_k) for i.i.d. uniform X, B_N = N pi^2/12."""
    if N_max < IID_MIN_N_MAX:
        raise ValueError(f"N_max must be >= {IID_MIN_N_MAX}")
    B = np.arange(1, N_max + 1, dtype=np.float64) * PI2_OVER_12

    def draw(rng):
        u = rng.random(N_max)
        u[u == 0.0] = 0.5  # measure-zero guard against log(0)
        return log_two_sin_pi_array(u)

    return _path_statistics(
        "iid", n_paths, seed, B, _ratio_grid(B, N_LO), draw, None,
        {"n_lo": N_LO, "reference_constant": 1.0,
         "sigma_constant": IID_SIGMA_CONSTANT,
         "target_variance": PI2_OVER_12, "n_samples": n_paths * N_max})


def kronecker_log_weights(alpha: IrrationalSpec, N: int) -> np.ndarray:
    """Deterministic weights w_n = log(2 sin(pi n alpha)) for n = 1..N,
    from the fixed-point kernel's float64 distances ||n alpha||."""
    return log_two_sin_pi_array(kronecker_fixed_point(alpha, N).dist)


def rademacher_lil_experiment(alpha: IrrationalSpec, n_paths: int, N_max: int,
                              seed: int) -> PathStatistics:
    """S_N = sum R_n log(2 sin pi n alpha) with fair +-1 signs. B_N
    accumulates the squared deterministic weights."""
    if N_max < N_LO:
        raise ValueError(f"N_max = {N_max} is below n_lo = {N_LO}: "
                         f"no N is left to take the ratio at")
    dist = kronecker_fixed_point(alpha, N_max).dist
    w = log_two_sin_pi_array(dist)
    two_w = 2.0 * w
    B = np.cumsum(w * w)
    n = np.arange(1, N_max + 1, dtype=np.float64)
    # ||n alpha|| >= c0/n: empirical c0, and |w_n| <= c1 log n empirically
    c0_hat = float(np.min(n * dist))
    with np.errstate(divide="ignore"):
        c1_hat = float(np.max(np.abs(w[1:]) / np.log(n[1:])))
    # the LIL side condition: M_N / sqrt(B_N / loglog B_N) at a log-spaced grid
    log_grid = np.unique(np.geomspace(10, N_max, 40).astype(int))
    cond = {int(g): float(c1_hat * math.log(g)
                          / math.sqrt(B[g - 1] / math.log(math.log(B[g - 1]))))
            for g in log_grid if g <= N_max and B[g - 1] > math.e}

    def draw(rng):
        # a sign bit b gives b 2w - w: w or -w exactly
        z = rng.integers(0, 2, size=N_max) * two_w
        z -= w
        return z

    return _path_statistics(
        "rademacher", n_paths, seed, B, _ratio_grid(B, N_LO), draw, None,
        {"n_lo": N_LO, "reference_constant": 1.0,
         "target_variance": PI2_OVER_12, "B_over_N": float(B[-1] / N_max),
         "c0_hat": c0_hat, "c1_hat": c1_hat, "mn_condition_ratio": cond,
         "alpha": str(alpha)})


def _coin_draws(N_terms: int) -> int:
    """The flips a subsequence path draws, and so the weights it reads."""
    return int(2.3 * N_terms) + 256


def coin_flips(rng: np.random.Generator, N_terms: int) -> np.ndarray:
    """`_coin_draws(N_terms)` fair coin flips from `rng` (True = heads),
    drawn once; fewer than N_terms heads raise ValueError. Over n draws,
    Hoeffding's inequality puts that below exp(-2 (n/2 - N_terms)^2 / n),
    which is below e^-57 for every N_terms (least near N_terms = 650)."""
    draws = _coin_draws(N_terms)
    bits = rng.integers(0, 2, size=draws).astype(bool)
    heads = int(np.count_nonzero(bits))
    if heads < N_terms:
        raise ValueError(f"the coin showed {heads} heads in {draws} draws, "
                         f"fewer than the {N_terms} terms requested")
    return bits


def subsequence_product_experiment(alpha: IrrationalSpec, n_paths: int,
                                   N_terms: int, seed: int) -> PathStatistics:
    """Random subsequence model: keep index n when the n-th fair coin shows
    heads, sum the first N_terms kept weights, normalize by
    sqrt(K loglog K); the theorem's constant pi/sqrt(12) is recorded.

    The selection identity
        sum_{n_k <= N} w_{n_k} = (full sum + Rademacher-signed sum) / 2
    with R_n = 2 xi_n - 1 is re-evaluated per path through an independent
    summation and its worst deviation reported.
    """
    if N_terms < max(N_LO, 10):
        raise ValueError("N_terms too small")
    w = kronecker_log_weights(alpha, _coin_draws(N_terms))
    neg_w = -w
    cum_w = np.cumsum(w)
    K = np.arange(1, N_terms + 1, dtype=np.float64)
    details = {"k_lo": N_LO, "reference_constant": SUBSEQ_CONSTANT,
               "selection_identity_max_abs_diff": 0.0,
               "selection_counts": [], "alpha": str(alpha)}
    half = 0.0  # the current path's (full sum + signed sum) / 2

    def draw(rng):
        nonlocal half
        bits = coin_flips(rng, N_terms)
        positions = np.flatnonzero(bits)[:N_terms] + 1
        n_last = int(positions[-1])
        # independent evaluation of the signed sum for the identity check
        signed = float(np.sum(np.where(bits[:n_last], w[:n_last],
                                       neg_w[:n_last])))
        half = 0.5 * (float(cum_w[n_last - 1]) + signed)
        details["selection_counts"].append((n_last, int(N_terms)))
        return w[positions - 1]

    def settle(S_last):
        key = "selection_identity_max_abs_diff"
        details[key] = max(details[key], abs(S_last - half))

    return _path_statistics(
        "subsequence", n_paths, seed, K,
        _ratio_grid(K, max(N_LO, 3), factor=1.0), draw, settle, details)


def write_paths_csv(stats: PathStatistics, path) -> None:
    """One row per path at its ratio argmax: "path_id,N,S_N,B_N,ratio"."""
    with atomic_open(path) as fh:
        fh.write("path_id,N,S_N,B_N,ratio\n")
        for pid, n, s, b, r in stats.rows:
            fh.write(f"{pid},{n},{s!r},{b!r},{r!r}\n")


def summary_dict(stats: PathStatistics) -> dict:
    """Mean/variance/quantiles of the per-path ratios plus scalar details.

    Computed from the same floats that go into the CSV rows, so re-reading
    the CSV and recomputing reproduces this summary exactly.
    """
    ratios = np.array(stats.lil_ratios, dtype=np.float64)
    qs = {f"q{int(q * 100):02d}": float(np.quantile(ratios, q))
          for q in (0.1, 0.25, 0.5, 0.75, 0.9)}
    scalars = {k: v for k, v in stats.details.items()
               if isinstance(v, (int, float, str))}
    return {
        "model": stats.model,
        "n_paths": stats.n_paths,
        "N_max": stats.N_max,
        "seed": stats.seed,
        "empirical_mean": stats.empirical_mean,
        "empirical_variance": stats.empirical_variance,
        "ratio_mean": float(np.mean(ratios)),
        "ratio_variance": float(np.var(ratios)),
        "ratio_quantiles": qs,
        "details": scalars,
    }


def write_summary_json(stats: PathStatistics, path) -> None:
    with atomic_open(path) as fh:
        json.dump(summary_dict(stats), fh, indent=2, sort_keys=True)
        fh.write("\n")
