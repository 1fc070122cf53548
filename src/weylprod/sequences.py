"""Point set generators for the product experiments.

Rational families (van der Corput, uniform grid) are produced as exact
rationals over a common denominator (`RationalArray`); Kronecker orbits,
lacunary orbits and random subsequences are high-precision mpf values from
the evaluator of the exact surd machinery (`FracPartEvaluator`); random
families use numpy's seeded generators.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .atomicio import atomic_open
from .irrational import DEFAULT_N_MAX, FracPartEvaluator, IrrationalSpec
from .numerics import decimal_str

LACUNARY_MAX_TERMS = 60
# coin draws allowed per requested term before a selection gives up: a fair
# coin needs about 2, and falls short of N heads in 64 N draws with
# probability below 2^-(50 N)
MAX_DRAWS_PER_TERM = 64
# coin flips drawn per call of the selection coin
COIN_BLOCK = 8192


class RationalArray:
    """Exact rationals n_i / den held as an int64 numerator array.

    Reads like a sequence of Fractions, but bulk consumers (discrepancy,
    products) can work on the integer representation directly, which keeps
    grid-style point sets exact at numpy speed.
    """

    __slots__ = ("numerators", "denominator")

    def __init__(self, numerators, denominator: int):
        if denominator <= 0:
            raise ValueError("denominator must be positive")
        self.numerators = np.asarray(numerators, dtype=np.int64)
        self.denominator = int(denominator)

    def __len__(self):
        return len(self.numerators)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return RationalArray(self.numerators[i], self.denominator)
        return Fraction(int(self.numerators[i]), self.denominator)

    def __iter__(self):
        den = self.denominator
        for n in self.numerators.tolist():
            yield Fraction(n, den)

    def to_float_array(self) -> np.ndarray:
        return self.numerators / self.denominator


@dataclass
class PointSet:
    """A finite ordered multiset of numbers in [0, 1] with provenance.

    `point_error` is a uniform absolute bound on the error of each stored
    value (zero for exact rationals and seeded floats).
    """

    points: object
    provenance: str
    params: dict = field(default_factory=dict)
    point_error: float = 0.0

    def __post_init__(self):
        strict = self.provenance in ("kronecker", "vdc")
        if isinstance(self.points, RationalArray):
            nums, den = self.points.numerators, self.points.denominator
            if len(nums) and (int(nums.min()) < 0 or int(nums.max()) > den):
                raise ValueError("point outside [0, 1]")
            if strict and len(nums) and (
                    int(nums.min()) == 0 or int(nums.max()) == den):
                raise ValueError(f"{self.provenance} point hit an endpoint")
            return
        if not len(self.points):
            return
        # the extremes decide both checks, in 2N comparisons
        lo, hi = min(self.points), max(self.points)
        for x in (lo, hi):
            if x < 0 or x > 1:
                raise ValueError(f"point {x!r} outside [0, 1]")
        if strict and (lo == 0 or hi == 1):
            raise ValueError(f"{self.provenance} point hit an endpoint")

    def __len__(self):
        return len(self.points)

    def __iter__(self):
        return iter(self.points)


def kronecker(alpha: IrrationalSpec, N: int,
              evaluator: FracPartEvaluator | None = None) -> PointSet:
    """First N fractional parts {k*alpha}, k = 1..N, in index order, as mpf
    values from `evaluator.frac_part` (default: an evaluator for the 2^24
    budget, or N's above it)."""
    if N < 0:
        raise ValueError("N must be >= 0")
    ev = evaluator or FracPartEvaluator(alpha, n_max=max(DEFAULT_N_MAX, N))
    if N > ev.n_max:
        raise ValueError(f"N = {N} exceeds the evaluator budget {ev.n_max}")
    pts = [ev.frac_part(k).value for k in range(1, N + 1)]
    return PointSet(pts, "kronecker",
                    {"alpha": str(alpha), "N": N,
                     "precision_bits": ev.precision_bits},
                    point_error=ev.error_bound)


def van_der_corput(N: int) -> PointSet:
    """Base-2 radical inverses of 1..N as exact dyadic rationals over the
    common denominator 2^L, L = bitlen(N): bit i of n goes to 2^(L-1-i)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    L = N.bit_length()
    n = np.arange(1, N + 1, dtype=np.int64)
    nums = np.zeros(N, dtype=np.int64)
    for shift in range(L - 1, -1, -1):
        bit = n & 1
        bit <<= shift
        nums |= bit
        n >>= 1
    return PointSet(RationalArray(nums, 1 << L), "vdc", {"N": N})


def uniform_grid(N: int) -> PointSet:
    """The grid k/(N+1), k = 1..N, as exact rationals."""
    if not 1 <= N < 2 ** 31:
        raise ValueError("N must be in [1, 2^31)")
    pts = RationalArray(np.arange(1, N + 1, dtype=np.int64), N + 1)
    return PointSet(pts, "uniform-grid", {"N": N})


def lacunary(alpha: IrrationalSpec, N: int,
             precision_bits: int | None = None) -> PointSet:
    """Doubling orbit {2^k alpha}, k = 1..N, via the exact floor machinery."""
    if N < 1:
        raise ValueError("N must be >= 1")
    if N > LACUNARY_MAX_TERMS:
        raise ValueError(f"N = {N} exceeds the exact-floor budget "
                         f"({LACUNARY_MAX_TERMS} doublings)")
    ev = FracPartEvaluator(alpha, n_max=1 << N, precision_bits=precision_bits)
    pts = [ev.frac_part(1 << k).value for k in range(1, N + 1)]
    return PointSet(pts, "lacunary",
                    {"alpha": str(alpha), "N": N,
                     "precision_bits": ev.precision_bits},
                    point_error=ev.error_bound)


def random_uniform(N: int, seed: int) -> PointSet:
    """N i.i.d. uniform draws from a seeded, reproducible generator."""
    if N < 0:
        raise ValueError("N must be >= 0")
    rng = np.random.default_rng(seed)
    pts = rng.random(N).tolist()
    return PointSet(pts, "iid-uniform", {"N": N, "seed": seed})


def fair_coin(rng: np.random.Generator, size: int) -> np.ndarray:
    """Default selection coin: i.i.d. fair bits."""
    return rng.integers(0, 2, size=size).astype(bool)


def random_subsequence(alpha: IrrationalSpec, N_terms: int, seed: int,
                       coin=None) -> PointSet:
    """{n_k alpha} for the random subsequence n_1 < n_2 < ... picked by
    independent coin flips (index n kept when the n-th flip is heads).

    `coin(rng, size) -> bool array` can be overridden for degenerate-case
    testing; the default is a fair coin.
    """
    if N_terms < 0:
        raise ValueError("N_terms must be >= 0")
    flip = coin or fair_coin
    rng = np.random.default_rng(seed)
    indices = []
    base = 1
    max_draws = MAX_DRAWS_PER_TERM * N_terms
    while len(indices) < N_terms:
        if base > max_draws:
            raise ValueError(
                f"the coin showed {len(indices)} heads in {base - 1} draws, "
                f"fewer than the {N_terms} terms requested")
        draws = np.asarray(flip(rng, COIN_BLOCK), dtype=bool)
        sel = np.flatnonzero(draws) + base
        indices.extend(sel.tolist())
        base += COIN_BLOCK
    indices = indices[:N_terms]
    ev = FracPartEvaluator(
        alpha, n_max=max(DEFAULT_N_MAX, (indices[-1] if indices else 1)))
    pts = [ev.frac_part(n).value for n in indices]
    return PointSet(pts, "random-subseq",
                    {"alpha": str(alpha), "N_terms": N_terms, "seed": seed,
                     "indices": indices,
                     "precision_bits": ev.precision_bits},
                    point_error=ev.error_bound)


def write_pointset_csv(ps: PointSet, path, digits: int = 40) -> None:
    """Serialize as "index,value" with 40 significant digits."""
    with atomic_open(path) as fh:
        fh.write("index,value\n")
        for i, x in enumerate(ps.points, 1):
            fh.write(f"{i},{decimal_str(x, digits)}\n")
