"""One memory table for every command: the memory cases of each row of
`tests/commands.py` (`figure`, each `verify` theorem and mode and each `mc`
model) run in process through `cli.main`, once to warm up at the smaller
size n1, then once at n1 and once at n2 under `tracemalloc` (numpy reports
its buffers to it), and the two peaks must fit the case's class and cap.

- flat: the peaks are within `tol` of each other, by default one
  `SUM_CHUNK` block of float64 (512 KB): the command holds no N-length
  array.
- c bytes a point: the peak grows by at most c bytes for each point added
  from n1 to n2. The slope is read, not peak / n: the block arrays that
  do not depend on N (about 11 MB in the Kronecker Hlawka check) would
  hide a per-point cost.

Both sizes are at least `SUM_CHUNK`, so that every block is full at both
(`figure`'s case runs its orbit pass in blocks of 2^12 points). The cap
bounds the peak at n2, and at n1 the cap less c bytes for each point
that n1 lacks. A case that a change makes flat, or cheaper, is tightened
in the same change; no case is loosened to let a change pass.
"""

import sys
import tracemalloc
from dataclasses import replace

import pytest

from commands import HLAWKA_VDC, OSTROWSKI, ROWS
from weylprod import bounds
from weylprod.cli import main

CASES = [(row, case) for row in ROWS for case in row.memory]


def peaks(row, case, tmp_path, monkeypatch) -> tuple:
    """The `tracemalloc` peaks of the row's command with the case's flags
    at n1 and n2, after one warm-up call at n1 that pays the one-time
    allocations.

    The warm-up runs under a no-op profile hook. tracemalloc looks up the
    line of every allocation, and on CPython 3.11 a code object that ran
    under a hook keeps a line array that makes the lookup cheap: the
    `figure` row then takes 0.6 s in place of 1.8 s.
    The peaks are the same."""
    for module, name, value in case.patch:
        monkeypatch.setattr(module, name, value)
    out = ["--out", str(tmp_path / "out")]

    def call(n):
        assert main(row.line(n, case.flags) + out) == 0

    sys.setprofile(lambda *args: None)
    try:
        call(case.n1)
    finally:
        sys.setprofile(None)
    got = []
    for n in (case.n1, case.n2):
        tracemalloc.start()
        try:
            call(n)
            got.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return tuple(got)


def check(row, case, tmp_path, monkeypatch) -> None:
    p1, p2 = peaks(row, case, tmp_path, monkeypatch)
    if case.c is None:
        assert abs(p2 - p1) <= case.tol, f"not flat: {p1} and {p2} bytes"
        cap1 = case.cap
    else:
        slope = (p2 - p1) / (case.n2 - case.n1)
        assert slope <= case.c, f"{slope:.1f} bytes a point"
        cap1 = case.cap - case.c * (case.n2 - case.n1)
    assert p1 <= cap1 and p2 <= case.cap, f"over the cap: {p1}, {p2}"


@pytest.mark.parametrize("row, case", CASES,
                         ids=[" ".join(row.line("{n}", case.flags))
                              for row, case in CASES])
def test_memory_row(row, case, tmp_path, monkeypatch, capsys):
    check(row, case, tmp_path, monkeypatch)
    capsys.readouterr()


def test_table_sees_a_held_array(tmp_path, monkeypatch):
    # the vdC Hlawka report made to hold its whole Delta: 8 bytes a point,
    # 24 MB more at 2^22 than at 2^20
    real = bounds.vdc_discrepancy
    monkeypatch.setattr(bounds, "vdc_discrepancy",
                        lambda n: iter(list(real(n))))
    with pytest.raises(AssertionError, match="not flat"):
        check(HLAWKA_VDC, HLAWKA_VDC.memory[0], tmp_path, monkeypatch)


def test_table_sees_a_steeper_slope(tmp_path, monkeypatch):
    # ostrowski holds 49 bytes a point: a case that allows 45 fails
    case = replace(OSTROWSKI.memory[0], c=45)
    with pytest.raises(AssertionError, match="bytes a point"):
        check(OSTROWSKI, case, tmp_path, monkeypatch)
