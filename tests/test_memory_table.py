"""One memory table for every command: each `figure` command, each `verify`
theorem and mode and each `mc` model runs in process through `cli.main`,
once to warm up at the smaller size n1, then once at n1 and once at n2
under `tracemalloc` (numpy reports its buffers to it), and the two peaks
must fit the row's class and cap.

- flat: the peaks are within `tol` of each other, by default one
  `SUM_CHUNK` block of float64 (512 KB): the command holds no N-length
  array.
- c bytes a point: the peak grows by at most c bytes for each point added
  from n1 to n2. The slope is read, not peak / n: the block arrays that
  do not depend on N (about 11 MB in the Kronecker Hlawka check) would
  hide a per-point cost.

Both sizes are at least `SUM_CHUNK`, so that every block is full at both
(`figure`'s row runs its orbit pass in blocks of 2^12 points). The cap
bounds the peak at n2, and at n1 the cap less c bytes for each point
that n1 lacks. A row that a change makes flat, or cheaper, is tightened
in the same change; no row is loosened to let a change pass.
"""

import sys
import tracemalloc
from dataclasses import dataclass, replace

import pytest

from weylprod import bounds, irrational, products
from weylprod import stochastic as st
from weylprod.cli import main
from weylprod.numerics import SUM_CHUNK

KB, MB = 1 << 10, 1 << 20
BLOCK = 8 * SUM_CHUNK


@dataclass(frozen=True)
class Row:
    argv: str  # the command line, "{n}" the size; "--out" is added
    n1: int
    n2: int
    cap: int  # bytes, the peak at n2
    c: float | None = None  # bytes a point added; None is flat
    tol: int = BLOCK  # flat only: bytes between the two peaks
    patch: tuple = ()  # (module, name, value) set for the row's calls


ROWS = [
    # the text of 2^13 and 2^14 rows: the tolerance of 64 text blocks'
    # bytes over the 3 x 2^14 rows added from 2^14 to 2^16, cut to the
    # 2^13 rows added here (10.7 KB); the peaks were 1-4 KB apart
    Row("figure --n-max {n}", 1 << 13, 1 << 14, cap=MB // 2,
        tol=64 * products.TEXT_BLOCK * (1 << 13) // (3 << 14),
        patch=((irrational, "SUM_CHUNK", 1 << 12),)),
    # the orbit (9 bytes a point) and T (8); a cap of 32 bytes a point at
    # 2^20, and 20 bytes a point above it
    Row("verify hlawka --gen kronecker --n-max {n}", 1 << 20, 1 << 21,
        cap=52 * MB, c=20),
    Row("verify hlawka --gen vdc --n-max {n}", 1 << 20, 1 << 22,
        cap=12 * MB),
    Row("verify hlawka --gen grid --N {n}", 1 << 18, 1 << 21,
        cap=17 * MB // 4),
    # 2^17 and 2^20 points
    Row("verify vdc-limits --s-max {n}", 17, 20, cap=5 * MB),
    Row("verify ostrowski --n-max {n}", 1 << 17, 1 << 19, cap=29 * MB,
        c=58),
    Row("verify cesaro --n-max {n}", 1 << 17, 1 << 19, cap=34 * MB, c=68),
    Row("verify type-growth --n-max {n}", 1 << 17, 1 << 19, cap=19 * MB,
        c=33),
    Row("verify conjectures --n-max {n}", 1 << 17, 1 << 19, cap=14 * MB,
        c=20),
    # denominators of sqrt2m1, so the orbits are 80781 and 470831 points
    Row("verify kronecker-sandwich --q-max {n}", 80782, 470832,
        cap=13 * MB, c=22),
    Row("verify extremal --N {n} --d 0.125", 1 << 17, 1 << 19, cap=48 * KB),
    # the 8k and 32k rows of n_max 512 and 1024: 256 KB is 11 bytes a row
    Row("verify extremal --n-max {n} --format csv", 512, 1024, cap=3 * MB,
        tol=256 * KB),
    Row("verify extremal --n-max {n}", 512, 1024, cap=5 * MB // 4,
        tol=256 * KB),
    # the paths on two threads, whatever the host's CPUs: each thread
    # holds blocks of its own
    Row("mc iid --paths 8 --n-max {n}", 1 << 17, 1 << 19, cap=15 * MB // 4,
        patch=((st, "_cores", lambda: 2),)),
    Row("mc rademacher --paths 8 --n-max {n}", 1 << 17, 1 << 19,
        cap=6 * MB),
    # the weights and their prefix sums, 16 bytes a coin draw; a cap of
    # 60 bytes a term at 2^18
    Row("mc subsequence --paths 8 --terms {n}", 1 << 18, 1 << 19,
        cap=26 * MB, c=44),
]
ROW = {row.argv: row for row in ROWS}


def peaks(row: Row, tmp_path, monkeypatch) -> tuple:
    """The `tracemalloc` peaks of the row's command at n1 and n2, after
    one warm-up call at n1 that pays the one-time allocations.

    The warm-up runs under a no-op profile hook. tracemalloc looks up the
    line of every allocation, and on CPython 3.11 a code object that ran
    under a hook keeps a line array that makes the lookup cheap: the
    `figure` row then takes 0.6 s in place of 1.8 s.
    The peaks are the same."""
    for module, name, value in row.patch:
        monkeypatch.setattr(module, name, value)
    out = ["--out", str(tmp_path / "out")]

    def call(n):
        assert main(row.argv.format(n=n).split() + out) == 0

    sys.setprofile(lambda *args: None)
    try:
        call(row.n1)
    finally:
        sys.setprofile(None)
    got = []
    for n in (row.n1, row.n2):
        tracemalloc.start()
        try:
            call(n)
            got.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    return tuple(got)


def check(row: Row, tmp_path, monkeypatch) -> None:
    p1, p2 = peaks(row, tmp_path, monkeypatch)
    if row.c is None:
        assert abs(p2 - p1) <= row.tol, f"not flat: {p1} and {p2} bytes"
        cap1 = row.cap
    else:
        slope = (p2 - p1) / (row.n2 - row.n1)
        assert slope <= row.c, f"{slope:.1f} bytes a point"
        cap1 = row.cap - row.c * (row.n2 - row.n1)
    assert p1 <= cap1 and p2 <= row.cap, f"over the cap: {p1}, {p2}"


@pytest.mark.parametrize("row", ROWS, ids=[row.argv for row in ROWS])
def test_memory_row(row, tmp_path, monkeypatch, capsys):
    check(row, tmp_path, monkeypatch)
    capsys.readouterr()


def test_table_sees_a_held_array(tmp_path, monkeypatch):
    # the vdC Hlawka report made to hold its whole Delta: 8 bytes a point,
    # 24 MB more at 2^22 than at 2^20
    real = bounds.vdc_discrepancy
    monkeypatch.setattr(bounds, "vdc_discrepancy",
                        lambda n: iter(list(real(n))))
    with pytest.raises(AssertionError, match="not flat"):
        check(ROW["verify hlawka --gen vdc --n-max {n}"], tmp_path,
              monkeypatch)


def test_table_sees_a_steeper_slope(tmp_path, monkeypatch):
    # ostrowski holds 49 bytes a point: a row that allows 45 fails
    row = replace(ROW["verify ostrowski --n-max {n}"], c=45)
    with pytest.raises(AssertionError, match="bytes a point"):
        check(row, tmp_path, monkeypatch)
