"""Host speed: short fixed loops, timed next to every measurement.

This host's CPU speed drifts by up to 2x over seconds to minutes under other
tenants' load, and process CPU time drifts with it. Timing a fixed loop
right before and right after a measurement shows how fast the host ran
meanwhile; `to_reference` scales the measured seconds to the speed at which
the loop takes its reference time, so runs made at different host speeds
compare. On a quiet host the scaled time is the measured time.

Load slows different kinds of work by different factors, so there is one
loop per kind and each op is scaled by the loop whose speed tracked the op's
best across rounds under load (`Op.calib` in workloads.py):

- "int": small-integer arithmetic in the interpreter; it tracks numpy array
  kernels on cache-sized arrays, float prefix discrepancy and the import of
  weylprod.cli;
- "bigint": 128-bit integer arithmetic, tuples and a dict; it tracks exact
  rational (Fraction) discrepancy and the extremal sweep;
- "mpf": mpmath log and sinpi at 113 bits; it tracks the mpf point and log
  layers.

A loop runs in the measured process, after the op returned and before the
next one starts, and none calls into the program under test, so the program
cannot change its time other than by leaving work running.
"""

from __future__ import annotations

import statistics
from time import perf_counter

# median seconds of each loop on a quiet 2-core Xeon host under python 3.11
REFERENCE_S = {"int": 3.1e-3, "bigint": 2.3e-3, "mpf": 2.4e-3}
CALIBRATION_REPEATS = 3
_MASK = (1 << 128) - 1


def _int_loop(n: int) -> None:
    acc = 0
    for i in range(n):
        acc = (acc + i * i) % 1_000_003


def _bigint_loop(n: int) -> None:
    x = (1 << 100) + 12345
    table = {}
    for i in range(n):
        x = (x * 6364136223846793005 + i) & _MASK
        table[i & 1023] = (i, x >> 64)


def _mpf_loop(n: int) -> None:
    # imported here, so that timing `import weylprod.cli` next to an "int"
    # piece does not find mpmath loaded already
    import mpmath

    with mpmath.mp.workprec(113):
        for i in range(1, n + 1):
            mpmath.log(2 * mpmath.sinpi(mpmath.mpf(i) / 7919))


LOOPS = {"int": (_int_loop, 40_000), "bigint": (_bigint_loop, 9_500),
         "mpf": (_mpf_loop, 160)}


def piece(kind: str) -> float:
    """Seconds of one short loop of the given kind (a few ms)."""
    loop, n = LOOPS[kind]
    t0 = perf_counter()
    loop(n)
    return perf_counter() - t0


def to_reference(seconds: float, kind: str, piece_s: float) -> float:
    """`seconds` measured while a `kind` piece took `piece_s`, scaled to
    reference speed."""
    return seconds * REFERENCE_S[kind] / piece_s


def calibration_s() -> float:
    """Median time of the "int" loop run 25 pieces long: the run's host
    speed, reported beside the results as host.calib_s."""
    loop, n = LOOPS["int"]
    times = []
    for _ in range(CALIBRATION_REPEATS):
        t0 = perf_counter()
        loop(25 * n)
        times.append(perf_counter() - t0)
    return statistics.median(times)
