"""Point set generators for the product experiments.

Rational families (van der Corput, uniform grid) are produced as exact
rationals over a common denominator (`RationalArray`), whole or in blocks
of SUM_CHUNK points (`van_der_corput_blocks`, `uniform_grid_blocks`) for
the checkers that stream them. `kronecker` gives high-precision mpf values
from the evaluator of the exact surd machinery (`FracPartEvaluator`), the
points of the tests' mpf oracle; the checkers take their orbits from the
fixed-point kernel (`irrational.kronecker_fixed_point`) instead.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .irrational import DEFAULT_N_MAX, FracPartEvaluator, IrrationalSpec
from .numerics import SUM_CHUNK

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
    """A finite ordered multiset of numbers in [0, 1], or in (0, 1) for the
    `kronecker` and `vdc` provenances; any other point, or a NaN, raises
    ValueError. The points are taken as they are stored: exact rationals,
    float64 values, or the mpf values of `kronecker`, whose error its
    evaluator bounds.
    """

    points: object
    provenance: str

    def __post_init__(self):
        pts, one = self.points, 1
        if not len(pts):
            return
        strict = self.provenance in ("kronecker", "vdc")
        if isinstance(pts, RationalArray):
            one = pts.denominator
            pts = (int(pts.numerators.min()), int(pts.numerators.max()))
        elif isinstance(pts, np.ndarray):
            pts = (pts.min(), pts.max())  # both NaN if any point is
        # one range test per point, or per extreme, which a NaN fails
        for x in pts:
            if not (0 < x < one if strict else 0 <= x <= one):
                raise ValueError(f"{self.provenance} point outside "
                                 f"{'(0, 1)' if strict else '[0, 1]'}")


def kronecker(alpha: IrrationalSpec, N: int,
              evaluator: FracPartEvaluator | None = None) -> PointSet:
    """First N fractional parts {k*alpha}, k = 1..N, in index order, as mpf
    values from `evaluator.frac_part` (default: an evaluator for the 2^24
    budget, or N's above it), each within its `error_bound`."""
    if N < 0:
        raise ValueError("N must be >= 0")
    ev = evaluator or FracPartEvaluator(alpha, n_max=max(DEFAULT_N_MAX, N))
    if N > ev.n_max:
        raise ValueError(f"N = {N} exceeds the evaluator budget {ev.n_max}")
    pts = [ev.frac_part(k).value for k in range(1, N + 1)]
    return PointSet(pts, "kronecker")


def van_der_corput(N: int) -> PointSet:
    """Base-2 radical inverses of 1..N as exact dyadic rationals over the
    common denominator 2^L, L = bitlen(N): bit i of n goes to 2^(L-1-i).
    The numerators are those of `van_der_corput_blocks(N)`, one after the
    other."""
    if N < 1:
        raise ValueError("N must be >= 1")
    nums = np.empty(N, dtype=np.int64)
    for s, block in zip(range(0, N, SUM_CHUNK), van_der_corput_blocks(N)):
        nums[s:s + len(block)] = block.numerators
    return PointSet(RationalArray(nums, 1 << N.bit_length()), "vdc")


def van_der_corput_blocks(N: int):
    """The points of `van_der_corput(N)` as RationalArrays over 2^L,
    L = bitlen(N), in consecutive blocks of SUM_CHUNK (the last one
    shorter); none for N < 1.

    With b = min(L, log2 SUM_CHUNK), write n = h 2^b + j, j < 2^b: bit i of
    j goes to 2^(L-1-i) and bit i of h to 2^(L-b-1-i). The first part is a
    2^b-entry table, built by doubling from r(0) = 0 (the j in
    [2^k, 2^(k+1)) are j - 2^k with bit k set, one vector add per bit); the
    second is one Python int per block. A block holds n = s+1..s+SUM_CHUNK,
    s a multiple of SUM_CHUNK, so its j run from 1 up and the last one
    wraps to 0 under h + 1: the table is read rotated by one."""
    L = N.bit_length()
    b = min(L, SUM_CHUNK.bit_length() - 1)
    table = np.zeros(1 << b, dtype=np.int64)
    for k in range(b):
        np.add(table[:1 << k], 1 << (L - 1 - k), out=table[1 << k:2 << k])
    table = np.roll(table, -1)

    def high(h):
        return int(format(h, f"0{L - b}b")[::-1], 2) if L > b else 0

    for s in range(0, N, SUM_CHUNK):
        size = min(SUM_CHUNK, N - s)
        h = s >> b
        nums = table[:size] + high(h)
        if size == len(table):
            nums[-1] = high(h + 1)
        yield RationalArray(nums, 1 << L)


def uniform_grid(N: int) -> PointSet:
    """The grid k/(N+1), k = 1..N, as exact rationals."""
    _check_grid(N)
    pts = RationalArray(np.arange(1, N + 1, dtype=np.int64), N + 1)
    return PointSet(pts, "uniform-grid")


def uniform_grid_blocks(N: int):
    """The points of `uniform_grid(N)` as RationalArrays in consecutive
    blocks of SUM_CHUNK (the last one shorter)."""
    _check_grid(N)
    return (RationalArray(np.arange(s + 1, min(s + SUM_CHUNK, N) + 1,
                                    dtype=np.int64), N + 1)
            for s in range(0, N, SUM_CHUNK))


def _check_grid(N: int) -> None:
    if not 1 <= N < 2 ** 31:
        raise ValueError("N must be in [1, 2^31)")
