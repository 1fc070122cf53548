"""High-precision references that the float64 product paths are checked
against: log(2 sin pi x) and its prefix sums, in mpf."""

import math
from dataclasses import dataclass

import mpmath

from weylprod.sequences import PointSet


def log_two_sin_pi_mp(x, prec: int):
    """log(2 sin(pi x)) as an mpf, evaluated at `prec` bits.

    mpmath's sinpi reduces the argument exactly, which is what makes points
    within 2^-p of an integer safe to use here.
    """
    with mpmath.mp.workprec(prec):
        return mpmath.log(2 * mpmath.sinpi(x))


@dataclass
class MpfTrace:
    """log P_1 .. log P_N as a list of mpf, with a bound on the error of
    every entry."""

    log_values: list
    error_bound: float


def mpf_trace(ps, prec: int) -> MpfTrace:
    """Log-space prefix products of the mpf points of `ps` (a PointSet or a
    sequence), accumulated at `prec` + 8 bits.

    Each term is charged 4 ulps at `prec` bits, relative to 1 + |term|, and
    the point set's `point_error` through the slope of log(2 sin pi x).
    Kronecker points never reach 0 or 1, so there is no zero product to
    handle.
    """
    pts = list(ps.points if isinstance(ps, PointSet) else ps)
    pt_err = ps.point_error if isinstance(ps, PointSet) else 0.0
    logs = []
    err = 0.0
    term_ulp = math.ldexp(1.0, -prec)
    with mpmath.mp.workprec(prec + 8):
        run = mpmath.mpf(0)
        for x in pts:
            t = log_two_sin_pi_mp(x, prec + 8)
            run = run + t
            logs.append(run)
            if pt_err:
                # |d/dx log(2 sin pi x)| = pi |cot(pi x)| <= 1 / min(x, 1-x)
                err += 1.6 * pt_err / float(min(x, 1 - x))
            err += 4.0 * term_ulp * (1.0 + abs(float(t)))
    return MpfTrace(logs, err)
