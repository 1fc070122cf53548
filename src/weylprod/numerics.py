"""Low-level numeric helpers shared across the package.

Most of it is about evaluating log(2 sin(pi x)) accurately for points
that may sit very close to 0 or 1, and about summing long series of such
terms without throwing that accuracy away again. The rest serves the two
text printers, `figure`'s rows and the extremal sweep's CSV: integer
columns as ASCII digits (`ascii_digits`), digit columns laid out as
numbers (`number_text`), and lines laid out from columns of bytes
(`byte_lines`).
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

LOG2 = math.log(2.0)

# generous per-term bound for the double-precision log(2 sin pi x) kernel:
# the argument is reflected into (0, 1/2], so the sine keeps a few-ulp
# relative error and the log adds one more rounding.
TERM_EPS = 3e-16

# the pad every bound check adds to its trace's error bound
BASE_TOL = 1e-9


def two_sin_pi(x) -> float:
    """2 sin(pi x) in double precision for x in (0, 1).

    Fraction and float inputs are reflected to (0, 1/2] before the sine is
    evaluated (exactly: 1 - x is computed without rounding), so the result
    keeps full relative accuracy near both endpoints; the range is checked
    after the reflection, so a Fraction that rounds to 1.0 is still inside.
    """
    if isinstance(x, Fraction):
        if 2 * x > 1:
            x = 1 - x
        xf = float(x)
    else:
        xf = float(x)
        if xf > 0.5:
            xf = 1.0 - xf  # exact for xf in [0.5, 1]
    if not 0.0 < xf <= 0.5:
        raise ValueError(f"point {x!r} outside (0, 1)")
    return 2.0 * math.sin(math.pi * xf)


def log_two_sin_pi(x) -> float:
    """log(2 sin(pi x)) in double precision for x in (0, 1), from
    `two_sin_pi`'s reflection."""
    return math.log(two_sin_pi(x))


def log_two_sin_pi_array(x: np.ndarray,
                         out: np.ndarray | None = None) -> np.ndarray:
    """Vectorized log(2 sin(pi x)) for an array with entries in (0, 1),
    written to `out` (default: a new array), which must not overlap `x`.

    min(x, 1 - x) reflects to (0, 1/2] (1 - x is exact for x >= 1/2, and
    rounds to at least 1/2 below it), and every later step works in place
    on that one array; `x` itself is never written.
    """
    r = np.subtract(1.0, x, out=out)
    np.minimum(x, r, out=r)
    r *= np.pi
    np.sin(r, out=r)
    r *= 2.0
    return np.log(r, out=r)


SUM_CHUNK = 1 << 16


class Scratch:
    """Block-sized work arrays that a streamed consumer keeps from block to
    block. `get(slot, n, dtype)` is the first n entries of the 8-byte array
    in `slot`, allocated at the first call with at least `size` entries and
    again only for a longer block. Steps that share one Scratch (a
    `products.BlockTrace` and its `PrefixSum`) may take the same slot one
    after the other.

    A fresh 2^16-float64 temporary (512 KB, above glibc's mmap threshold)
    is mapped, faulted in and unmapped again on every block; a kept one is
    not."""

    def __init__(self, size: int):
        self.size, self._arrays = size, {}

    def get(self, slot: int, n: int, dtype=np.float64) -> np.ndarray:
        a = self._arrays.get(slot)
        if a is None or len(a) < n:
            a = self._arrays[slot] = np.empty(max(n, self.size))
        return a[:n].view(dtype)


class PrefixSum:
    """Compensated prefix sums of n finite terms, fed in order block by
    block (`feed`), with a bound on the error of every prefix
    (`error_bound`). The terms must lie within [-amax, amax]; `feed` does
    not check that.

    Plain np.cumsum loses ~n*eps absolute accuracy over millions of terms.
    Here each term is split exactly into a multiple of 2^-k, summed in
    int64 without rounding, and a remainder below 2^-(k+1), summed in
    float64. k is the largest scale at which n * amax * 2^k, and so every
    integer partial sum, stays below 2^62. The error of a prefix is then
    two roundings of its value plus the remainder sum's
    n * eps * sum|remainder| <= n^2 * eps * 2^-(k+1). The integer sum and
    the remainder sum are carried from block to block, so blocks of
    SUM_CHUNK terms give `compensated_cumsum`'s prefix sums bit for bit.
    Its three work arrays are slots 0-2 of `work` (default: its own
    `Scratch` of min(n, SUM_CHUNK) terms), taken only inside `feed`.
    """

    def __init__(self, n: int, amax: float, work: Scratch | None = None):
        if not math.isfinite(amax):
            raise ValueError("compensated_cumsum needs finite terms")
        self.n, self.amax = n, amax
        # |a_i| 2^k < 2^52 keeps each rounded term exact
        self.k = min(52 - math.frexp(amax)[1],
                     62 - math.frexp(n * amax + 1.0)[1])
        self.fed, self.carry_hi, self.carry_lo, self.out_max = 0, 0, 0.0, 0.0
        self.work = Scratch(min(n, SUM_CHUNK)) if work is None else work

    def feed(self, part: np.ndarray, out: np.ndarray):
        """The prefix sums through each term of `part`, the next terms in
        order, written to `out` (which may be `part`) and returned."""
        self.fed += len(part)
        if self.fed > self.n:
            raise ValueError("terms past the declared count")
        # in place, in the three work arrays
        k, b, work = self.k, len(part), self.work
        hi = np.ldexp(part, k, out=work.get(0, b))
        np.rint(hi, out=hi)
        lo = np.ldexp(hi, -k, out=work.get(1, b))
        np.subtract(part, lo, out=lo)
        np.cumsum(lo, out=lo)
        lo += self.carry_lo
        ints = work.get(2, b, np.int64)
        np.copyto(ints, hi, casting="unsafe")
        np.cumsum(ints, out=ints)
        ints += self.carry_hi
        out[:] = ints
        np.ldexp(out, -k, out=out)
        out += lo
        self.carry_hi, self.carry_lo = int(ints[-1]), float(lo[-1])
        self.out_max = max(self.out_max, float(out.max()), -float(out.min()))
        return out

    def error_bound(self) -> float:
        """The bound on the error of every prefix sum of the n terms."""
        return 2.0 ** -51 * (self.out_max
                             + math.ldexp(self.n * self.n, -self.k - 1))


def compensated_cumsum(a: np.ndarray) -> tuple:
    """(prefix sums of finite `a`, a bound on the error of every prefix),
    by a `PrefixSum` fed chunks of SUM_CHUNK terms, so temporaries stay
    O(chunk)."""
    a = np.asarray(a, dtype=np.float64)
    n = len(a)
    out = np.empty_like(a)
    if n == 0:
        return out, 0.0
    acc = PrefixSum(n, max(abs(float(a.max())), abs(float(a.min()))))
    chunk = SUM_CHUNK
    for s in range(0, n, chunk):
        acc.feed(a[s:s + chunk], out[s:s + chunk])
    return out, acc.error_bound()


def decimal_str(x, digits: int = 40) -> str:
    """Render a value with `digits` significant decimal digits.

    Fractions are converted at enough binary precision that all requested
    digits are meaningful; mpf and float values print their exact binary
    content (lossless round-trip for doubles).
    """
    import mpmath
    if isinstance(x, Fraction):
        with mpmath.mp.workprec(int(digits * 3.33) + 24):
            v = mpmath.mpf(x.numerator) / x.denominator
            return mpmath.nstr(v, digits)
    if isinstance(x, mpmath.mpf):
        return mpmath.nstr(x, digits)
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    xf = float(x)
    if math.isinf(xf) or math.isnan(xf):
        return repr(xf)
    with mpmath.mp.workprec(60):
        return mpmath.nstr(mpmath.mpf(xf), digits)


# 10^0 .. 10^19: the powers of ten a uint64 holds
POW10 = 10 ** np.arange(20, dtype=np.uint64)


def ascii_digits(v: np.ndarray, width: int) -> np.ndarray:
    """The (width, len(v)) ASCII digits of the uint64 v < 10^width, most
    significant first, from uint32 limbs of nine digits."""
    limbs = -(-width // 9)
    part = np.empty((limbs, len(v)), np.uint32)
    for i in range(limbs - 1, 0, -1):
        q = v // 10 ** 9  # // by a constant is vectorized, % is not
        part[i], v = v - q * 10 ** 9, q
    part[0] = v
    # one limb needs only its last `width` digits
    D = np.empty((9, limbs, len(v)), np.uint8)
    for j in range(8, 8 - width if limbs == 1 else -1, -1):
        q = part // 10
        D[j], part = part - q * 10, q
    D += 48
    return D.transpose(1, 0, 2).reshape(9 * limbs, -1)[-width:]


def ascii_int(v: np.ndarray, least: int) -> np.ndarray:
    """`ascii_digits` of the uint64 v as wide as its largest entry and at
    least `least` wide, with each entry's leading zeros NUL but those among
    its last `least` digits."""
    w = max(least, len(str(int(v.max(initial=0)))))
    D = ascii_digits(v, w)
    D *= np.maximum(v, POW10[least - 1]) >= POW10[w - 1::-1, None]
    return D


def number_text(D: np.ndarray, e: np.ndarray, fixed: tuple,
                exp_digits: int, lone_point: bool) -> np.ndarray:
    """The (width, n) NUL-padded ASCII texts of n numbers from their digits,
    the columns of the (W, n) ASCII D, most significant first and nonzero,
    and e, the exponent of each one's leading digit. A number with
    lo < e <= hi, (lo, hi) = `fixed`, is fixed: 0.000ddd below 1, else
    with the point after its first e + 1 digits. Any other is d.ddd, then
    e, the exponent's sign and at least `exp_digits` of its digits. Trailing
    zeros go, but one digit after a point, and a lone digit in exponent
    notation keeps its point (1.0e-30) only with `lone_point`; a fixed
    number of W digits before the point gets a 0 after it."""
    W, n = D.shape
    sci = (e <= fixed[0]) | (e > fixed[1])
    # the fixed exponents and the place counts in int16: masks against the
    # places cost several times less than in int64
    f = np.where(sci, 0, e).astype(np.int16)
    sig = (W - np.argmax(D[::-1] != 48, axis=0)).astype(np.int16)
    # the digits before the point: none below 1, which takes "0." first
    split = np.where(sci, 1, np.maximum(f + 1, 0))
    point = (split > 0) & (~sci | (sig > 1) | lone_point)
    lead = np.where(f < 0, 1 - f, 0)  # the places of "0.000"
    keep = np.maximum(sig, split + point)  # the last place kept, past "0."
    at = np.flatnonzero(sci)
    E = ascii_int(np.abs(e[at]).astype(np.uint64), exp_digits)
    x = len(E) + 2
    w = int(lead.max())
    T = np.zeros((w + W + 2 + x, n), np.uint8)
    np.multiply(np.arange(w, dtype=np.int16)[:, None] < lead, np.uint8(48),
                out=T[:w])
    T[1, lead > 0] = 46
    # the digits one place up, cut after the last one kept, then those
    # before the point moved back and the point put in
    V = T[w:w + W + 2]
    places = np.arange(W + 1, dtype=np.int16)[:, None]
    np.multiply(D, places[1:] <= keep, out=V[1:W + 1])
    s = int(split.max())
    np.copyto(V[:s], D[:s], where=places[:s] < split)
    V[split, np.arange(n)] = point * np.uint8(46)
    V[-1] = (split == W) * np.uint8(48)
    T[-x, at] = 101
    T[1 - x, at] = np.where(e[at] < 0, 45, 43)
    T[2 - x:, at] = E
    return T


def byte_lines(parts, n: int) -> str:
    """The n lines made of `parts` in order, as one string: a part is a
    constant byte string, the same in every line, or a (width, n) uint8
    block whose column i, NUL-padded, goes into line i. The lines are laid
    out as the rows of one uint8 array, which is stripped of its NULs and
    decoded once. Places that are NUL in every line are left for the strip:
    dropping them first costs more than `translate` saves."""
    at = np.cumsum([0] + [len(p) for p in parts]).tolist()
    B = np.empty((n, at[-1]), np.uint8)
    for p, i, j in zip(parts, at, at[1:]):
        B[:, i:j] = np.frombuffer(p, np.uint8) if isinstance(p, bytes) else p.T
    return B.tobytes().translate(None, b"\0").decode("ascii")
