"""Monte Carlo experiments for the probabilistic product laws.

The iterated-logarithm constants are asymptotic almost-sure statements;
nothing here asserts them directly. Experiments report per-path maxima of
the normalized sums, and the tests check those against wide pilot-derived
sanity bands plus the exactly checkable structure (variance integral,
selection identity, weight bounds).

Every model runs one path loop (`_path_statistics`) over blocks of
SUM_CHUNK terms outside and paths inside, so nothing of size N is held. A
block's path-independent work is done once: the weights and B_N
(Rademacher, from the kernel's blocks), the normaliser, and the running
c0, c1 and side-condition grid. Each path then draws its summands there
from its own generator (`_spawned_states`, `FairCoins`) and carries its
S_N, its sums of y and y^2, and its row. Those sums are the `np.sum` of
each block, added block by block, and the paths' totals are added in path
order. The tests keep each model's own per-path loop as an oracle, and
the outputs equal theirs bit for bit.

The iid model runs a block's paths on one thread per core (`_cores`); the
other two run on the calling thread alone. A path's step touches only that
path's state, so every output byte is the same for any number of threads.
`cli` writes the CSV text of `paths_csv` and the JSON of `summary_dict`.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .irrational import (KERNEL_MAX_N, IrrationalSpec, kronecker_fixed_point,
                         kronecker_fixed_point_blocks)
from .numerics import SUM_CHUNK, log_two_sin_pi_array

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
    [N_LO, N_max] of S_N / sqrt(2 B_N loglog B_N) (for the subsequence
    model the theorem's normalizer sqrt(K loglog K) is used instead, with
    the reference constant recorded in `details`).
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


class FairCoins:
    """Fair coins from one generator's raw 64-bit words.

    The two 32-bit halves of a word, low half first, are two coins, and a
    coin shows heads when its half's top bit is set. That is exactly what
    `Generator.integers(0, 2, n)` returns for int64 output: it draws one
    half per coin by Lemire's method, which for a range of 2 rejects
    nothing and keeps the top bit. Reading the words directly ties the mc
    outputs to the bit generator's stream rather than to that algorithm.

    `take(n)` hands out the next n coins. An odd take keeps the unused half
    of its last word for the next, so takes of any lengths give the coins
    of one take of their total length."""

    __slots__ = ("bit_generator", "spare")

    def __init__(self, rng: np.random.Generator):
        self.bit_generator = rng.bit_generator
        self.spare = None  # the unused high half of the last word drawn

    def take(self, n: int) -> np.ndarray:
        """The next n >= 1 coins as a bool array, True for heads."""
        spare, self.spare = self.spare, None
        m = n if spare is None else n - 1
        halves = self.bit_generator.random_raw((m + 1) // 2).view(np.int32)
        if m % 2:
            self.spare = halves[m]
        # a half's top bit is its int32 sign
        heads = halves[:m] < 0
        return heads if spare is None else np.concatenate(([spare < 0],
                                                           heads))


def _signed(heads: np.ndarray, w: np.ndarray) -> np.ndarray:
    """w where the coin shows heads, -w where it shows tails, from w by
    flipping its float64 sign bit under each tail, which gives -w for every
    w: under a tail a weight w = +0.0 gives -0.0, as -1.0 * w does and
    b 2w - w with b = 0 does not. No output can see the sign of that zero:
    it shows only in a sum whose terms are all zeros, every N the ratio is
    read at has B_N > e and so a nonzero weight at or before it, and
    squares drop the sign."""
    z = np.left_shift(~heads, 63, dtype=np.uint64)
    z ^= w.view(np.uint64)
    return z.view(np.float64)


# numpy's SeedSequence: its pool of 32-bit words and the constants it
# hashes with (numpy/random/bit_generator.pyx)
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715


def _hasher(const: int, mult: int):
    """SeedSequence's `hashmix`, with the multiplier it carries from call
    to call. A value is a Python int or a uint32 array; the constants stay
    Python ints, so the array arithmetic wraps without a warning."""
    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * mult & _MASK32
        value = value * const & _MASK32
        return value ^ value >> 16
    return hashmix


def _mix(x, y):
    """SeedSequence's `mix` of a pool word x with a hashed word y."""
    r = ((_MIX_MULT_L * x & _MASK32) - (_MIX_MULT_R * y & _MASK32)) & _MASK32
    return r ^ r >> 16


def _spawned_states(seed: int, n: int) -> np.ndarray:
    """The (n, 4) uint64 array whose row i is
    `SeedSequence(seed).spawn(n)[i].generate_state(4, np.uint64)`, the words
    that seed child i's PCG64, for a seed >= 0 and n <= 2^32.

    Child i's entropy is the seed's 32-bit words, low first and padded with
    zeros to the pool size, then its spawn key i. The key is the one word
    that differs, and it comes last, after the words that fill the pool. So
    the pool is hashed and mixed once for every child, in Python ints, and
    only the key's own mixing and the state's hashing run on uint32 arrays
    of all n keys."""
    if seed < 0:
        raise ValueError("seed must be >= 0")
    if n > 1 << 32:
        raise ValueError("a spawn key above 2^32 - 1 takes two words")
    words = []
    while True:
        words.append(seed & _MASK32)
        seed >>= 32
        if not seed:
            break
    words += [0] * (_POOL_SIZE - len(words))
    words.append(np.arange(n, dtype=np.uint32))
    hashmix = _hasher(_INIT_A, _MULT_A)
    pool = [hashmix(word) for word in words[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = _mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = _mix(pool[dst], hashmix(word))
    hashmix = _hasher(_INIT_B, _MULT_B)
    state = np.stack([hashmix(pool[k % _POOL_SIZE])
                      for k in range(2 * _POOL_SIZE)], axis=1)
    # two 32-bit words, low first, make each 64-bit word, as in numpy
    return state.astype("<u4").view("<u8").astype(np.uint64)


def _spawned_seeds(seed: int, n: int) -> list:
    """Seeds from which `np.random.default_rng` builds the generators of
    `SeedSequence(seed).spawn(n)`, stream for stream. Each is a minimal
    `ISeedSequence` that hands PCG64 its row of `_spawned_states`, and
    numpy seeds PCG64 from it as from the child itself."""
    from numpy.random.bit_generator import ISeedSequence

    class SpawnedState(ISeedSequence):
        __slots__ = ("state",)

        def __init__(self, state: np.ndarray):
            self.state = state

        def generate_state(self, n_words, dtype):
            if n_words != 4 or np.dtype(dtype) != np.uint64:
                raise ValueError("only PCG64's 4 uint64 words are held")
            return self.state

    return [SpawnedState(row) for row in _spawned_states(seed, n)]


class _Path:
    """One path's seed, its generator from its first block to its last
    (`rng`, and `coins` drawn from it), and what it carries from block to
    block: S at the block's start, its sums of y and y^2 so far (`tot`,
    `tot_sq`) and its CSV row so far."""

    __slots__ = ("pid", "seed", "rng", "coins", "S", "tot", "tot_sq", "row")

    def __init__(self, pid: int, seed):
        self.pid, self.seed, self.rng, self.coins = pid, seed, None, None
        self.S = self.tot = self.tot_sq = 0.0
        self.row = None


def _cores() -> int:
    """The CPUs this process may run on, and so the threads the iid model
    runs its paths on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _in_threads(groups: list, step) -> None:
    """`step(path)` for every path of every group: group 0 on this thread,
    each other group on a thread of its own, all finished on return. The
    first group that raised has its exception raised again here, with its
    own type."""
    errors = [None] * len(groups)

    def run(g):
        try:
            for path in groups[g]:
                step(path)
        except BaseException as exc:
            errors[g] = exc

    threads = []
    try:
        for g in range(1, len(groups)):
            thread = threading.Thread(target=run, args=(g,))
            thread.start()
            threads.append(thread)
        run(0)
    finally:
        for thread in threads:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc


def _path_statistics(model: str, n_paths: int, seed: int, N: int,
                     factor: float, block, draw, settle, details: dict,
                     threads: int) -> PathStatistics:
    """The one path loop of every model, over N summands a path.

    The loop runs over blocks of SUM_CHUNK terms (the last one shorter)
    outside and the paths inside. Path i takes the generator of the i-th
    child spawned from SeedSequence(seed) (`_spawned_seeds`). For each
    block [lo, hi), `block(lo, hi)` does the path-independent work and
    returns (B_N over the block, the block's sum of y^2 if every path
    shares it, else None); `draw(path, lo, hi)` then returns each path's
    summands y there, a fresh array the loop may overwrite.

    B is nondecreasing, so the admissible N (N >= N_LO and B_N > e) form a
    suffix of 1..N, which starts in some block. A path's row is read at
    the first maximum over them of S_N / sqrt(factor B_N loglog B_N): the
    block's S is its cumsum with the carried S folded into the first term,
    which is the whole-array cumsum bit for bit. `settle`, unless None, is
    handed each path once its S_N is known.

    The pooled mean and variance follow one summation rule: a path's sums
    of y and y^2 start from its first block's `np.sum` and add each later
    block's `np.sum` in order, and the paths' totals are added in path
    order. So one block gives `np.sum` of the whole path bit for bit.

    Within a block the paths are split into `threads` groups (at most
    n_paths), which run at once (`_in_threads`) and finish before the next
    block. A path's step, `draw` and `settle` touch only that path's state,
    so no output depends on the number of threads."""
    if n_paths < 1:
        raise ValueError("n_paths must be >= 1")
    paths = [_Path(pid, child) for pid, child
             in enumerate(_spawned_seeds(seed, n_paths))]
    threads = min(threads, n_paths)
    groups = [paths[g * n_paths // threads:(g + 1) * n_paths // threads]
              for g in range(threads)]
    first = max(N_LO, 1) - 1  # 0-based
    start = None  # the first admissible index
    for lo in range(0, N, SUM_CHUNK):
        hi = min(lo + SUM_CHUNK, N)
        B, shared_sq = block(lo, hi)
        if start is None and first < hi:
            a = max(first - lo, 0)
            i = a + int(np.searchsorted(B[a:], math.e, side="right"))
            if i < len(B):
                start = lo + i
        if start is not None:
            i = max(start - lo, 0)
            Bs = B[i:]
            denom = np.sqrt(factor * Bs * np.log(np.log(Bs)))

        def step(path):
            if not lo:
                path.rng = np.random.default_rng(path.seed)
                path.coins = FairCoins(path.rng)
            y = draw(path, lo, hi)
            tot = float(y.sum())
            tot_sq = (float(np.square(y).sum()) if shared_sq is None
                      else shared_sq)
            if lo:
                tot += path.tot
                tot_sq += path.tot_sq
                y[0] += path.S
            path.tot, path.tot_sq = tot, tot_sq
            S = np.cumsum(y, out=y)
            path.S = float(S[-1])
            if start is not None:
                vals = S[i:] / denom
                k = int(np.argmax(vals))
                if path.row is None or vals[k] > path.row[4]:
                    path.row = (path.pid, lo + i + k + 1, float(S[i + k]),
                                float(B[i + k]), float(vals[k]))
            if hi == N:
                path.rng = path.coins = None
                if settle is not None:
                    settle(path)

        _in_threads(groups, step)
    if start is None:
        raise ValueError(f"no N in [{first + 1}, {N}] has B_N > e: "
                         f"the ratio grid is empty")
    tot = tot_sq = 0.0
    for path in paths:
        tot += path.tot
        tot_sq += path.tot_sq
    mean = tot / (n_paths * N)
    var = tot_sq / (n_paths * N) - mean * mean
    return PathStatistics(model, n_paths, N, seed, mean, var, details,
                          [path.row for path in paths])


def iid_lil_experiment(n_paths: int, N_max: int, seed: int) -> PathStatistics:
    """S_N = sum log(2 sin pi X_k) for i.i.d. uniform X, B_N = N pi^2/12."""
    if N_max < IID_MIN_N_MAX:
        raise ValueError(f"N_max must be >= {IID_MIN_N_MAX}")

    def block(lo, hi):
        return np.arange(lo + 1, hi + 1, dtype=np.float64) * PI2_OVER_12, None

    def draw(path, lo, hi):
        u = path.rng.random(hi - lo)
        u[u == 0.0] = 0.5  # measure-zero guard against log(0)
        return log_two_sin_pi_array(u)

    # a path's step is a few long numpy calls (the fill, the kernel's sin,
    # the cumsum) that run outside the GIL, so its paths run on every core
    return _path_statistics(
        "iid", n_paths, seed, N_max, 2.0, block, draw, None,
        {"n_lo": N_LO, "reference_constant": 1.0,
         "sigma_constant": IID_SIGMA_CONSTANT,
         "target_variance": PI2_OVER_12, "n_samples": n_paths * N_max},
        _cores())


def kronecker_log_weights(alpha: IrrationalSpec, N: int) -> np.ndarray:
    """Deterministic weights w_n = log(2 sin(pi n alpha)) for n = 1..N,
    from the fixed-point kernel's float64 distances ||n alpha||."""
    return log_two_sin_pi_array(kronecker_fixed_point(alpha, N).dist)


def rademacher_lil_experiment(alpha: IrrationalSpec, n_paths: int, N_max: int,
                              seed: int) -> PathStatistics:
    """S_N = sum R_n log(2 sin pi n alpha) with fair +-1 signs. B_N
    accumulates the squared deterministic weights, which are every path's
    squared summands too.

    The weights come block by block from the kernel, which also carries
    ||n alpha|| >= c0/n and |w_n| <= c1 log n as running extrema (empirical
    c0 and c1), and B at the side condition's grid."""
    if N_max < N_LO:
        raise ValueError(f"N_max = {N_max} is below n_lo = {N_LO}: "
                         f"no N is left to take the ratio at")
    orbit = kronecker_fixed_point_blocks(alpha, N_max)
    # the LIL side condition: M_N / sqrt(B_N / loglog B_N) at a log-spaced grid
    log_grid = sorted(set(np.geomspace(10, N_max, 40).astype(int).tolist()))
    B_grid = {}
    c0_hat, c1_hat, B_last = math.inf, -math.inf, 0.0
    w = None  # the weights of the current block

    def block(lo, hi):
        nonlocal c0_hat, c1_hat, B_last, w
        dist = next(orbit).dist
        w = log_two_sin_pi_array(dist)
        n = np.arange(lo + 1, hi + 1, dtype=np.float64)
        c0_hat = min(c0_hat, float(np.min(n * dist)))
        j = 1 if lo == 0 else 0  # log 1 = 0: the bound starts at n = 2
        c1_hat = max(c1_hat, float(np.max(np.abs(w[j:]) / np.log(n[j:]))))
        B = np.square(w)
        shared_sq = float(B.sum())
        if lo:
            B[0] += B_last
        np.cumsum(B, out=B)
        B_last = float(B[-1])
        for g in log_grid:
            if lo < g <= hi:
                B_grid[g] = float(B[g - 1 - lo])
        return B, shared_sq

    def draw(path, lo, hi):
        return _signed(path.coins.take(hi - lo), w)

    # one thread: a path's step is many short numpy calls, which hand the
    # GIL back and forth between threads. On a 2-core host, 8 paths at
    # 2^20 took 186 ms on two threads against 139 ms on one (best of 7)
    stats = _path_statistics(
        "rademacher", n_paths, seed, N_max, 2.0, block, draw, None,
        {"n_lo": N_LO, "reference_constant": 1.0,
         "target_variance": PI2_OVER_12, "alpha": str(alpha)}, 1)
    stats.details.update({
        "B_over_N": B_last / N_max, "c0_hat": c0_hat, "c1_hat": c1_hat,
        "mn_condition_ratio": {
            g: float(c1_hat * math.log(g)
                     / math.sqrt(B / math.log(math.log(B))))
            for g, B in B_grid.items() if B > math.e}})
    return stats


def _coin_draws(N_terms: int) -> int:
    """The most coins n a subsequence path draws, and so the weights it
    reads. Fewer than N_terms heads among them raise ValueError; by
    Hoeffding that has a chance below exp(-2 (n/2 - N_terms)^2 / n) < e^-57."""
    return int(2.3 * N_terms) + 256


def subsequence_max_terms() -> int:
    """The largest N_terms whose `_coin_draws` the kernel covers."""
    n = int((KERNEL_MAX_N - 256) / 2.3) + 2
    while _coin_draws(n) > KERNEL_MAX_N:
        n -= 1
    return n


def subsequence_product_experiment(alpha: IrrationalSpec, n_paths: int,
                                   N_terms: int, seed: int) -> PathStatistics:
    """Random subsequence model: keep index n when the n-th fair coin shows
    heads, sum the first N_terms kept weights, normalize by
    sqrt(K loglog K); the theorem's constant pi/sqrt(12) is recorded. Each
    block of K takes coins from the path's `FairCoins` until it holds its
    heads, and keeps the coins after its last head for the next block. The
    weights w and their prefix sums are held whole and shared, 16 bytes a
    coin draw.

    The selection identity
        sum_{n_k <= N} w_{n_k} = (full sum + Rademacher-signed sum) / 2
    with R_n = 2 xi_n - 1 is re-evaluated per path through an independent
    summation, block by block, and its worst deviation reported.
    """
    if N_terms < max(N_LO, 10):
        raise ValueError("N_terms too small")
    draws = _coin_draws(N_terms)
    w = kronecker_log_weights(alpha, draws)
    cum_w = np.cumsum(w)
    details = {"k_lo": N_LO, "reference_constant": SUBSEQ_CONSTANT,
               "alpha": str(alpha)}
    # by path: coins past the last head, coins up to it, their signed sum
    carry = [(np.zeros(0, dtype=bool), 0, 0.0)] * n_paths
    misses = [0.0] * n_paths

    def draw(path, lo, hi):
        bits, n, signed = carry[path.pid]
        heads = int(np.count_nonzero(bits))
        while heads < hi - lo:
            left = draws - n - len(bits)
            if not left:
                raise ValueError(f"the coin showed {lo + heads} heads in "
                                 f"{draws} draws, fewer than the {N_terms} "
                                 f"terms requested")
            more = path.coins.take(min(_coin_draws(hi - lo - heads), left))
            heads += int(np.count_nonzero(more))
            bits = np.concatenate((bits, more))
        positions = np.flatnonzero(bits)[:hi - lo]
        cut = int(positions[-1]) + 1
        # independent evaluation of the signed sum for the identity check
        signed += float(np.sum(_signed(bits[:cut], w[n:n + cut])))
        spare = bits[cut:] if hi < N_terms else None
        carry[path.pid] = (spare, n + cut, signed)
        return w[n + positions]

    def settle(path):
        _, n_last, signed = carry[path.pid]
        half = 0.5 * (float(cum_w[n_last - 1]) + signed)
        misses[path.pid] = abs(path.S - half)

    # one thread, as for the Rademacher model: its steps are short numpy
    # calls. On a 2-core host two threads were level with one (best of 7):
    # 128 against 135 ms at 8 paths of 2^19 terms, 20 against 22 at 300 x 2500
    stats = _path_statistics(
        "subsequence", n_paths, seed, N_terms, 1.0,
        lambda lo, hi: (np.arange(lo + 1, hi + 1, dtype=np.float64), None),
        draw, settle, details, 1)
    details["selection_identity_max_abs_diff"] = max([0.0] + misses)
    details["selection_counts"] = [(n, int(N_terms)) for _, n, _ in carry]
    return stats


def paths_csv(stats: PathStatistics) -> str:
    """One row per path at its ratio argmax: "path_id,N,S_N,B_N,ratio"."""
    return "path_id,N,S_N,B_N,ratio\n" + "".join(
        [f"{pid},{n},{s!r},{b!r},{r!r}\n" for pid, n, s, b, r in stats.rows])


def _ratio_quantiles(ratios: np.ndarray) -> dict:
    """The 10, 25, 50, 75 and 90% quantiles of the ratios, as
    `np.quantile` gives them, by its linear rule over one sorted copy r:
    at v = (n - 1) q, i = floor(v) and t = v - i, with a = r_i and
    b = r_min(i+1, n-1), the value a + (b - a) t, or b - (b - a) (1 - t)
    where t >= 1/2. The bits are numpy's but for the sign of a zero;
    `np.quantile` itself would import numpy.ma on its first call."""
    r = np.sort(ratios).tolist()
    n = len(r)
    qs = {}
    for q in (0.1, 0.25, 0.5, 0.75, 0.9):
        v = (n - 1) * q
        i = math.floor(v)
        t = v - i
        a, b = r[i], r[min(i + 1, n - 1)]
        qs[f"q{int(q * 100):02d}"] = (b - (b - a) * (1 - t) if t >= 0.5
                                      else a + (b - a) * t)
    return qs


def summary_dict(stats: PathStatistics) -> dict:
    """Mean/variance/quantiles of the per-path ratios plus scalar details.

    Computed from the same floats that go into the CSV rows, so re-reading
    the CSV and recomputing reproduces this summary exactly.
    """
    ratios = np.array(stats.lil_ratios, dtype=np.float64)
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
        "ratio_quantiles": _ratio_quantiles(ratios),
        "details": scalars,
    }
