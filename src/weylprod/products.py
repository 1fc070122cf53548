"""Numerically stable evaluation of P_N = prod 2 sin(pi x_k).

Traces accumulate in log space: extremal sets overflow doubles long before
desk scale, and log-space also makes the bound checkers uniform. Exact
rational and float point sets take a fast compensated double path; mpf
point sets are accumulated at their own precision so the trace error bound
stays meaningful far below 2^-53. `prefix_products` keeps the mpf product
itself, whose exponent cannot overflow, for the printed 40-digit series.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import mpmath
import numpy as np

from .atomicio import atomic_open
from .numerics import (TERM_EPS, as_float_array, compensated_cumsum,
                       log_two_sin_pi_array, log_two_sin_pi_mp)
from .sequences import PointSet, RationalArray

# normalizer -> k of the n^k that P_n is divided by
_NORMALIZER_POWER = {"none": 0, "one_over_N": 1, "one_over_N_squared": 2}
NORMALIZERS = tuple(_NORMALIZER_POWER)


@dataclass
class ProductTrace:
    """Prefix log-products log P_1 .. log P_N with an accumulated error
    bound on the final (and by construction any earlier) entry.

    `log_values` is a float64 array for rational/float point sets and a
    list of mpf for high-precision point sets. A point exactly at 0 or 1
    makes the product zero; that is reported through `has_zero` and -inf
    entries, not an exception.
    """

    log_values: object
    error_bound: float
    N: int
    has_zero: bool = False

    def as_float_array(self) -> np.ndarray:
        if isinstance(self.log_values, np.ndarray):
            return self.log_values
        return np.array([float(v) for v in self.log_values], dtype=np.float64)

    @property
    def log_final(self):
        return self.log_values[-1]


def _is_endpoint(x) -> bool:
    return x == 0 or x == 1


def product_trace(ps, precision_bits: int | None = None) -> ProductTrace:
    """Compensated log-space prefix products over a point set."""
    pts = ps.points if isinstance(ps, PointSet) else ps
    if len(pts) == 0:
        raise ValueError("empty point set")
    pt_err = ps.point_error if isinstance(ps, PointSet) else 0.0
    if isinstance(pts, RationalArray):
        return _trace_float(pts, pt_err)
    pts = list(pts)
    if any(isinstance(x, mpmath.mpf) for x in pts):
        prec = precision_bits
        if prec is None and isinstance(ps, PointSet):
            prec = ps.params.get("precision_bits")
        if prec is None:
            prec = max(max(x._mpf_[3] for x in pts), 64)
        return _trace_mpf(pts, prec, pt_err)
    return _trace_float(pts, pt_err)


def _trace_mpf(pts, prec: int, pt_err: float) -> ProductTrace:
    logs = []
    err = 0.0
    term_ulp = math.ldexp(1.0, -prec)
    has_zero = False
    with mpmath.mp.workprec(prec + 8):
        run = mpmath.mpf(0)
        ninf = mpmath.mpf("-inf")
        for x in pts:
            if has_zero or _is_endpoint(x):
                has_zero = True
                logs.append(ninf)
                continue
            t = log_two_sin_pi_mp(x, prec + 8)
            run = run + t
            logs.append(run)
            if pt_err:
                # |d/dx log(2 sin pi x)| = pi |cot(pi x)| <= pi / (2 min(x, 1-x))
                m = float(min(x, 1 - x))
                err += 1.6 * pt_err / m
            err += 4.0 * term_ulp * (1.0 + abs(float(t)))
    return ProductTrace(logs, err, len(pts), has_zero)


def _float_terms(arr: np.ndarray, pt_err) -> tuple:
    """(terms log(2 sin pi x), their error bound, endpoint mask) for float
    points `arr`; `pt_err` bounds each point's error (scalar or array)."""
    endpoint = (arr == 0.0) | (arr == 1.0)
    safe = np.where(endpoint, 0.5, arr)
    terms = log_two_sin_pi_array(safe)
    err = float(np.sum(TERM_EPS * (1.0 + np.abs(terms))))
    if np.any(pt_err):
        # |d/dx log(2 sin pi x)| = pi |cot(pi x)| <= pi / (2 min(x, 1-x))
        m = np.minimum(safe, 1.0 - safe)
        err += float(np.sum(1.6 * pt_err / m))
    return terms, err, endpoint


def _trace_float(pts, pt_err: float) -> ProductTrace:
    arr = as_float_array(pts)
    terms, err, endpoint = _float_terms(arr, pt_err)
    has_zero = bool(endpoint.any())
    if has_zero:
        first = int(np.argmax(endpoint))
        terms[first:] = 0.0
    cum, sum_err = compensated_cumsum(terms)
    if has_zero:
        cum[first:] = -math.inf
    return ProductTrace(cum, err + sum_err, len(arr), has_zero)


def orbit_trace(orbits, N: int) -> ProductTrace:
    """Prefix log-products over Kronecker orbit blocks from the fixed-point
    kernel (`irrational.kronecker_fixed_point_blocks`), n = 1..N.

    Terms come from the distances ||n alpha||, which never reach 0 for an
    irrational alpha, with each block's per-point error bound; only the
    terms and the prefix sums are held for the whole orbit.
    """
    terms = np.empty(N, dtype=np.float64)
    err = 0.0
    for orbit in orbits:
        t, e, _ = _float_terms(orbit.dist, orbit.error())
        terms[orbit.first - 1:orbit.first - 1 + len(t)] = t
        err += e
    cum, sum_err = compensated_cumsum(terms)
    return ProductTrace(cum, err + sum_err, N)


def closed_form_roots_of_unity(N: int) -> int:
    """Reference value of prod_{k=1}^{N-1} 2 sin(pi k / N), which is N."""
    if N < 2:
        raise ValueError("N must be >= 2")
    return N


def closed_form_shifted(N: int, x) -> float:
    """Reference value of prod_{k=0}^{N-1} 2 sin(pi (k+x)/N) = 2 sin(pi x)."""
    if N < 1:
        raise ValueError("N must be >= 1")
    xf = float(x)
    if not 0.0 < xf < 1.0:
        raise ValueError("x must lie in (0, 1)")
    if isinstance(x, mpmath.mpf):
        return 2 * mpmath.sinpi(x)
    if isinstance(x, Fraction) and 2 * x > 1:
        x = 1 - x
        xf = float(x)
    elif xf > 0.5:
        xf = 1.0 - xf
    return 2.0 * math.sin(math.pi * xf)


def normalizer_power(normalizer: str) -> int:
    """The power k of n^k that `normalizer` divides P_n by."""
    try:
        return _NORMALIZER_POWER[normalizer]
    except KeyError:
        raise ValueError(f"unknown normalizer {normalizer!r}; "
                         f"expected one of {NORMALIZERS}") from None


def prefix_products(ps: PointSet, normalizer: str = "none") -> tuple:
    """(rows, log_error_bound): rows[n-1] = P_n / n^k for n = 1..N as mpf
    at the point set's `precision_bits`, where k is `normalizer`'s power,
    and a bound on |log(row) - log(exact row)| that holds for every row.

    The points must be mpf values strictly inside (0, 1). The running
    product prod sinpi(x_n) is kept at precision_bits + 8 bits; each row
    divides it by n^k, rounds once to precision_bits and multiplies by 2^n,
    exactly. The bound adds up
    - the points: a point within e of the exact one moves log(2 sin pi x)
      by at most 2 pi e / (t - 2 pi e) with t = 2 sin(pi x), because
      |d/dx log(2 sin pi x)| = pi |cot pi x| <= pi / sin(pi x) and sin
      drops by at most pi e between the two points (t is taken in float64,
      with its own rounding allowed for);
    - the running product: sinpi is within one ulp (mpmath evaluates it
      with 10 guard bits and rounds once), 2^(1-wp) relative, and the
      product is rounded correctly, 2^-wp: 3 2^-wp per term, under 4 2^-wp
      in log;
    - the row's correctly rounded division: 2^-prec relative, under
      2^(1-prec) in log.
    """
    k = normalizer_power(normalizer)
    prec = ps.params["precision_bits"]
    wp = prec + 8
    libmp = mpmath.libmp
    sin_pi, mul, div = libmp.mpf_sin_pi, libmp.mpf_mul, libmp.mpf_div
    from_int, shift, to_float = libmp.from_int, libmp.mpf_shift, libmp.to_float
    make_mpf = mpmath.mp.make_mpf
    spread = 2.0 * math.pi * ps.point_error
    run = libmp.fone
    rows = []
    point_part = 0.0
    for n, x in enumerate(ps.points, 1):
        s = sin_pi(x._mpf_, wp, "n")
        if not s[1]:
            raise ValueError(f"point {n} lies at an endpoint; "
                             f"the product is zero")
        run = mul(run, s, wp, "n")
        rows.append(make_mpf(shift(div(run, from_int(n ** k), prec, "n"),
                                   n)))
        if spread:
            gap = 2.0 * to_float(s) * (1.0 - 2.0 ** -52) - spread
            point_part += spread / gap if gap > 0.0 else math.inf
    N = len(rows)
    return rows, (point_part + N * math.ldexp(4.0, -wp)
                  + math.ldexp(1.0, 1 - prec))


def normalized_trace(ps, normalizer: str = "none") -> list:
    """exp(log P_N) / norm(N) per prefix, overflow-safe.

    Ratios whose log exceeds 700 are reported as inf rather than raising;
    anything below the subnormal range underflows to 0.0.
    """
    k = normalizer_power(normalizer)
    trace = ps if isinstance(ps, ProductTrace) else product_trace(ps)
    logs = trace.as_float_array()
    out = []
    for n, lp in enumerate(logs, 1):
        r = lp - k * math.log(n)
        if r == -math.inf:
            out.append(0.0)
        elif r > 700.0:
            out.append(math.inf)
        else:
            out.append(math.exp(r))
    return out


def write_product_csv(trace: ProductTrace, path, normalizer: str = "none") -> None:
    """Serialize as "N,logP,P_over_norm" with the normalizer recorded in a
    header comment."""
    k = normalizer_power(normalizer)
    logs = trace.as_float_array()
    with atomic_open(path) as fh:
        fh.write(f"# normalizer={normalizer}\n")
        fh.write("N,logP,P_over_norm\n")
        for n, lp in enumerate(logs, 1):
            r = lp - k * math.log(n)
            val = math.inf if r > 700.0 else math.exp(r) if r > -746.0 else 0.0
            fh.write(f"{n},{lp!r},{val!r}\n")
