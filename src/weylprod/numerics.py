"""Low-level numeric helpers shared across the package.

Everything here is about evaluating log(2 sin(pi x)) accurately for points
that may sit very close to 0 or 1, and about summing long series of such
terms without throwing that accuracy away again.
"""

from __future__ import annotations

import math
from fractions import Fraction

import mpmath
import numpy as np

LOG2 = math.log(2.0)

# generous per-term bound for the double-precision log(2 sin pi x) kernel:
# the argument is reflected into (0, 1/2], so the sine keeps a few-ulp
# relative error and the log adds one more rounding.
TERM_EPS = 3e-16


def log_two_sin_pi(x) -> float:
    """log(2 sin(pi x)) in double precision for x in (0, 1).

    Fraction and float inputs are reflected to (0, 1/2] before the sine is
    evaluated (exactly: 1 - x is computed without rounding), so the result
    keeps full relative accuracy near both endpoints.
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
    return math.log(2.0 * math.sin(math.pi * xf))


def log_two_sin_pi_array(x: np.ndarray) -> np.ndarray:
    """Vectorized log(2 sin(pi x)) for an array with entries in (0, 1).

    min(x, 1 - x) reflects to (0, 1/2] (1 - x is exact for x >= 1/2, and
    rounds to at least 1/2 below it), and every later step works in place
    on that one fresh array; `x` itself is never written.
    """
    r = np.subtract(1.0, x)
    np.minimum(x, r, out=r)
    r *= np.pi
    np.sin(r, out=r)
    r *= 2.0
    return np.log(r, out=r)


def log_two_sin_pi_mp(x, prec: int):
    """log(2 sin(pi x)) as an mpf, evaluated at `prec` bits.

    mpmath's sinpi reduces the argument exactly, which is what makes points
    within 2^-p of an integer safe to use here.
    """
    with mpmath.mp.workprec(prec):
        return mpmath.log(2 * mpmath.sinpi(x))


SUM_CHUNK = 1 << 16


def compensated_cumsum(a: np.ndarray) -> tuple:
    """(prefix sums of finite `a`, a bound on the error of every prefix).

    Plain np.cumsum loses ~n*eps absolute accuracy over millions of terms.
    Here each term is split exactly into a multiple of 2^-k, summed in
    int64 without rounding, and a remainder below 2^-(k+1), summed in
    float64. k is the largest scale at which n * max|a_i| * 2^k, and so
    every integer partial sum, stays below 2^62. The error of a prefix is
    then two roundings of its value plus the remainder sum's
    n * eps * sum|remainder| <= n^2 * eps * 2^-(k+1). Work goes in chunks
    of SUM_CHUNK terms, so temporaries stay O(chunk).
    """
    a = np.asarray(a, dtype=np.float64)
    n = len(a)
    out = np.empty_like(a)
    if n == 0:
        return out, 0.0
    amax = max(abs(float(a.max())), abs(float(a.min())))
    if not math.isfinite(amax):
        raise ValueError("compensated_cumsum needs finite terms")
    # |a_i| 2^k < 2^52 keeps each rounded term exact
    k = min(52 - math.frexp(amax)[1], 62 - math.frexp(n * amax + 1.0)[1])
    carry_hi, carry_lo, out_max = 0, 0.0, 0.0
    chunk = SUM_CHUNK
    for s in range(0, n, chunk):
        part = a[s:s + chunk]
        hi = np.rint(np.ldexp(part, k))
        lo = (part - np.ldexp(hi, -k)).cumsum()
        lo += carry_lo
        ints = hi.astype(np.int64).cumsum()
        ints += carry_hi
        res = out[s:s + chunk]
        np.ldexp(ints.astype(np.float64), -k, out=res)
        res += lo
        carry_hi, carry_lo = int(ints[-1]), float(lo[-1])
        out_max = max(out_max, float(np.abs(res).max()))
    return out, 2.0 ** -51 * (out_max + math.ldexp(n * n, -k - 1))


def as_float_array(points) -> np.ndarray:
    """Convert a sequence of Fraction/mpf/float points to a float64 array."""
    if isinstance(points, np.ndarray):
        return points.astype(np.float64, copy=False)
    conv = getattr(points, "to_float_array", None)
    if conv is not None:
        return conv()
    return np.array([float(x) for x in points], dtype=np.float64)


def decimal_str(x, digits: int = 40) -> str:
    """Render a value with `digits` significant decimal digits.

    Fractions are converted at enough binary precision that all requested
    digits are meaningful; mpf and float values print their exact binary
    content (lossless round-trip for doubles).
    """
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
