import argparse
import ast
import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import chain
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as hs

from commands import ALPHAS, FIGURE, ROWS
from oracles import mpf_trace, series_rows
from weylprod import cli, extremal, irrational, products
from weylprod import stochastic as st
from weylprod.cli import main
from weylprod.extremal import (ExtremalConfig, extremal_product_closed_form,
                               sweep)
from weylprod.irrational import FracPartEvaluator, parse_alpha, surd_from_cf
from weylprod.products import NORMALIZERS, normalizer_power, rotation_products
from weylprod.sequences import kronecker


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


# ------------------------------------------------------------------ figure

def test_figure_csv(tmp_path, capsys):
    out = tmp_path / "fig.csv"
    code, _, _ = run(["figure", "--alpha", "sqrt2m1", "--n-max", "500",
                      "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[1] == "N,value"
    assert len(lines) == 502
    values = [float(line.split(",")[1]) for line in lines[2:]]
    # spikes sit exactly at q_{l+1} - 1
    spikes = {4, 11, 28, 69, 168, 407}
    for lo, hi in ((2, 5), (5, 12), (12, 29), (29, 70), (70, 169), (169, 408)):
        seg = values[lo - 1:hi - 1]
        assert lo + int(np.argmax(seg)) in spikes


def test_figure_normalized_bounded(tmp_path, capsys):
    out = tmp_path / "fig2.csv"
    code, _, _ = run(["figure", "--n-max", "500", "--normalizer",
                      "one_over_N", "--out", str(out)], capsys)
    assert code == 0
    values = [float(line.split(",")[1])
              for line in out.read_text().strip().splitlines()[2:]]
    assert 0 < max(values) < 5.0


def test_figure_single_row(tmp_path, capsys):
    out = tmp_path / "one.csv"
    code, _, _ = run(["figure", "--n-max", "1", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 3
    assert float(lines[2].split(",")[1]) == pytest.approx(
        2 * math.sin(math.pi * (math.sqrt(2) - 1)), rel=1e-12)


def test_figure_json(capsys):
    code, stdout, _ = run(["figure", "--n-max", "3", "--format", "json"],
                          capsys)
    assert code == 0
    payload = json.loads(stdout)
    assert payload["normalizer"] == "none"
    assert len(payload["series"]) == 3


FIGURE_ALPHA = ALPHAS["sqrt7"]
FIGURE_N = 300
ORACLE_BITS = 320


@pytest.fixture(scope="module")
def figure_oracle():
    """log P_n, n <= FIGURE_N, from the log-space mpf trace over the
    evaluator's 320-bit points."""
    alpha = parse_alpha(FIGURE_ALPHA)
    ev = FracPartEvaluator(alpha, n_max=FIGURE_N, precision_bits=ORACLE_BITS)
    return mpf_trace(kronecker(alpha, FIGURE_N, evaluator=ev), ORACLE_BITS,
                     ev.error_bound)


def read_figure(path, fmt):
    """(metadata, {N: value string}) from a `figure` output file."""
    if fmt == "json":
        payload = json.loads(path.read_text())
        series = payload.pop("series")
        return payload, {r["N"]: r["value"] for r in series}
    lines = path.read_text().strip().splitlines()
    assert lines[1] == "N,value"
    head = lines[0].split()
    assert head[0] == "#"
    meta = dict(item.split("=", 1) for item in head[1:])
    rows = dict(line.split(",") for line in lines[2:])
    return meta, {int(n): v for n, v in rows.items()}


def run_figure(tmp_path, capsys, normalizer, fmt, *flags):
    out = tmp_path / f"fig_{normalizer}.{fmt}"
    code, _, _ = run(["figure", *flags, "--alpha", FIGURE_ALPHA, "--n-max",
                      str(FIGURE_N), "--normalizer", normalizer, "--format",
                      fmt, "--out", str(out)], capsys)
    assert code == 0
    return read_figure(out, fmt)


def assert_rows_within_bound(meta, rows, oracle):
    """Every row's log, with n^k put back, is within the reported bound of
    the oracle; the 40 printed digits add below 1e-39."""
    assert meta["kernel"] == "fixed-point-rotation"
    assert sorted(rows) == list(range(1, FIGURE_N + 1))
    k = normalizer_power(meta["normalizer"])
    bound = float(meta["log_error_bound"])
    tol = bound + oracle.error_bound + 1e-39
    with mpmath.mp.workprec(ORACLE_BITS):
        for n, v in rows.items():
            got = mpmath.log(mpmath.mpf(v)) + k * mpmath.log(n)
            assert abs(got - oracle.log_values[n - 1]) <= tol, n
    return bound


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("normalizer", NORMALIZERS)
def test_figure_rows_within_reported_bound(tmp_path, capsys, figure_oracle,
                                           normalizer, fmt):
    meta, rows = run_figure(tmp_path, capsys, normalizer, fmt)
    assert meta["normalizer"] == normalizer
    assert int(meta["precision_bits"]) == 112
    bound = assert_rows_within_bound(meta, rows, figure_oracle)
    assert 0 < bound < 1e-28


def test_figure_precision_bits_160_tightens_bound(tmp_path, capsys,
                                                  figure_oracle):
    meta112, _ = run_figure(tmp_path, capsys, "one_over_N", "csv")
    meta, rows = run_figure(tmp_path, capsys, "one_over_N", "json",
                            "--precision-bits", "160")
    assert meta["precision_bits"] == 160
    bound = assert_rows_within_bound(meta, rows, figure_oracle)
    assert bound < float(meta112["log_error_bound"]) * 2.0 ** -40


@pytest.mark.parametrize("precision_bits", [None, 1100])
@pytest.mark.parametrize("normalizer", NORMALIZERS)
def test_figure_values_are_to_str_of_rows(tmp_path, capsys, normalizer,
                                          precision_bits):
    # the printed values are mpmath's own 40 digits of every row, byte for
    # byte, at the default precision and at 1100 bits
    series = rotation_products(parse_alpha(FIGURE_ALPHA), FIGURE_N,
                               normalizer, precision_bits)
    libmp = mpmath.libmp
    want = {n: libmp.to_str(libmp.from_man_exp(*row), 40)
            for n, row in enumerate(series_rows(series), 1)}
    flags = ([] if precision_bits is None
             else ["--precision-bits", str(precision_bits)])
    for fmt in ("csv", "json"):
        meta, rows = run_figure(tmp_path, capsys, normalizer, fmt, *flags)
        assert int(meta["precision_bits"]) == series.precision_bits
        assert rows == want


@pytest.mark.parametrize("n_max", [1, 2, 7])
def test_figure_streamed_json_is_json_dumps(tmp_path, capsys, n_max):
    # the rows are written one anchor segment at a time; the file is still
    # exactly json.dumps(payload, indent=2), and the CSV has one line per row
    texts = {}
    for fmt in ("csv", "json"):
        out = tmp_path / f"s.{fmt}"
        code, _, _ = run(["figure", "--n-max", str(n_max), "--normalizer",
                          "one_over_N", "--format", fmt, "--out", str(out)],
                         capsys)
        assert code == 0
        texts[fmt] = out.read_text()
    payload = json.loads(texts["json"])
    assert len(payload["series"]) == n_max
    assert texts["json"] == json.dumps(payload, indent=2) + "\n"
    lines = texts["csv"].split("\n")
    assert len(lines) == n_max + 3 and lines[-1] == ""
    assert [line.split(",")[1] for line in lines[2:-1]] == \
        [row["value"] for row in payload["series"]]


@pytest.mark.parametrize("n_max", [63, 64, 65, 129])
def test_figure_rows_across_segment_edges(tmp_path, capsys, n_max):
    # each segment's rows are joined into one part behind the separator
    # before it: at N on either side of a 64-row edge, every normalizer and
    # both formats print each row once, in order, as to_str of the row pair
    # the series iterates. The alpha's term at n = 7 is taken exact.
    alpha = surd_from_cf([2, 3, 2 ** 70 + 3], [1, 4])
    libmp = mpmath.libmp
    for normalizer in NORMALIZERS:
        series = rotation_products(alpha, n_max, normalizer, None)
        assert series.exact_terms[0] == 7
        want = [libmp.to_str(libmp.from_man_exp(*row), 40)
                for row in series_rows(series)]
        for fmt in ("csv", "json"):
            out = tmp_path / f"edge.{fmt}"
            code, _, _ = run(["figure", "--alpha", str(alpha), "--n-max",
                              str(n_max), "--normalizer", normalizer,
                              "--format", fmt, "--out", str(out)], capsys)
            assert code == 0
            text = out.read_text()
            if fmt == "csv":
                lines = text.split("\n")
                assert len(lines) == n_max + 3 and lines[-1] == ""
                rows = [line.split(",") for line in lines[2:-1]]
            else:
                rows = [(row["N"], row["value"])
                        for row in json.loads(text)["series"]]
            assert len(rows) == n_max
            assert [int(n) for n, _ in rows] == list(range(1, n_max + 1))
            assert [value for _, value in rows] == want


@pytest.mark.parametrize("alpha", ["sqrt2m1",
                                   "(19999999-1*sqrt(5))/199999979999998"])
def test_figure_rows_in_small_blocks(tmp_path, capsys, monkeypatch, alpha):
    # blocks of 7 rows: N = 9 -> 10 and 99 -> 100 fall inside a block, and
    # so, for [0; 10^7, 1, 1, ...], does the first row that to_str prints
    # (its rows fall below 2^-3500 from n = 248 or 249 on). Every line of
    # both formats and every normalizer is the row's own line, printed
    # row by row from to_str of the row pair
    monkeypatch.setattr(products, "TEXT_BLOCK", 7)
    libmp = mpmath.libmp
    n_max = 260
    for normalizer in NORMALIZERS:
        series = rotation_products(parse_alpha(alpha), n_max, normalizer,
                                   None)
        texts = [libmp.to_str(libmp.from_man_exp(*row), 40)
                 for row in series_rows(series)]
        exponents = [e for _, part in series.segments() for e in part]
        own = [n for n, e in enumerate(exponents, 1)
               if e == products._TO_STR]
        if alpha != "sqrt2m1":
            assert own[0] in (248, 249) and own[0] % 7 != 1
        for fmt in ("csv", "json"):
            out = tmp_path / f"blocks.{fmt}"
            code, _, _ = run(["figure", "--alpha", alpha, "--n-max",
                              str(n_max), "--normalizer", normalizer,
                              "--format", fmt, "--out", str(out)], capsys)
            assert code == 0
            text = out.read_text()
            if fmt == "csv":
                assert text.split("\n")[2:] == \
                    [f"{n},{t}" for n, t in enumerate(texts, 1)] + [""]
            else:
                payload = json.loads(text)
                payload["series"] = [{"N": n, "value": t}
                                     for n, t in enumerate(texts, 1)]
                assert text == json.dumps(payload, indent=2) + "\n"


def test_figure_stream_write_failure_leaves_no_file(tmp_path, capsys,
                                                    monkeypatch):
    # the series raises after five rows, with the header already written:
    # no partial file, no temporary file, and the I/O exit code
    real = cli.rotation_products

    def failing(*args):
        series = real(*args)

        class Failing:
            precision_bits = series.precision_bits
            log_error_bound = series.log_error_bound

            def segments(self):
                digits, exponents = next(series.segments())
                yield digits[:5], exponents[:5]
                raise OSError(28, "No space left on device")
        return Failing()

    monkeypatch.setattr(cli, "rotation_products", failing)
    for fmt in ("csv", "json"):
        code, _, err = run(["figure", "--n-max", "20", "--format", fmt,
                            "--out", str(tmp_path / f"fig.{fmt}")], capsys)
        assert code == 3 and "No space left" in err
        assert list(tmp_path.iterdir()) == []


# ------------------------------------------------------------------ verify

def test_verify_vdc_limits(tmp_path, capsys):
    out = tmp_path / "rep.json"
    code, _, _ = run(["verify", "vdc-limits", "--s-max", "10",
                      "--out", str(out)], capsys)
    assert code == 0
    rep = json.loads(out.read_text())
    assert rep["passed"] is True and rep["theorem"] == "vdc-limits"


def test_verify_sandwich(capsys):
    code, stdout, _ = run(["verify", "kronecker-sandwich", "--alpha",
                           "sqrt2m1", "--q-max", "1000"], capsys)
    assert code == 0
    assert json.loads(stdout)["passed"] is True


def test_verify_hlawka_grid(capsys):
    code, stdout, _ = run(["verify", "hlawka", "--gen", "grid", "--N", "100"],
                          capsys)
    assert code == 0
    rep = json.loads(stdout)
    assert rep["empirical_constants"]["P_N"] == pytest.approx(101.0, rel=1e-9)
    assert rep["empirical_constants"]["bound"] <= 101.0 ** 2


def test_verify_conjectures_always_zero(capsys):
    code, stdout, _ = run(["verify", "conjectures", "--n-max", "100"], capsys)
    assert code == 0


def test_verify_extremal_csv(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    code, stdout, _ = run(["verify", "extremal", "--n-max", "64",
                           "--format", "csv", "--out", str(out)], capsys)
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0].startswith("N,M,d,logP")
    assert json.loads(stdout)["passed"] is True


@pytest.mark.parametrize("tol", [None, -5.0, -19415.0])
@pytest.mark.parametrize("block_rows", [None, 7, 1])
def test_verify_extremal_sweep_blocks(tmp_path, capsys, monkeypatch, tol,
                                      block_rows):
    # the CLI walks the sweep in blocks of whole N: one block (1225 rows),
    # blocks of at most 7 rows, or one N each give the rows and the verdict
    # of the sweep taken whole. A negative tolerance makes the lower bound
    # fail on part of the rows (-5), or fail on all of them and the upper
    # bound on part (-19415)
    if tol is not None:
        monkeypatch.setattr(extremal, "BASE_TOL", tol)
    if block_rows is not None:
        monkeypatch.setattr(cli, "SWEEP_BLOCK_ROWS", block_rows)
    out = tmp_path / "sweep.csv"
    code, stdout, _ = run(["verify", "extremal", "--n-max", "200",
                           "--format", "csv", "--out", str(out)], capsys)
    rows = sweep(range(8, 201, 2), lambda N: max(1, N // 8), 0.1)
    assert out.read_text() == rows.CSV_HEADER + rows.csv_text()
    lower_fail = [(N, lo, lp) for N, M, d, lp, lo, hi, hl, hu in rows
                  if not hl]
    upper_fail = [N for N, *_, hu in rows if not hu]
    violations = [list(v) for v in lower_fail if v[0] >= 64]
    report = json.loads(stdout)
    assert report["violations"] == violations
    assert report["passed"] is not violations
    assert code == (1 if violations else 0)
    assert report["empirical_constants"] == {
        "lower_holds_from_N": max((v[0] for v in lower_fail), default=0) + 2,
        "upper_holds_from_N": max(upper_fail, default=0) + 2,
    }
    if tol is not None:
        assert violations and lower_fail[0][0] < 64
        assert bool(upper_fail) is (tol < -19000)


def test_verify_extremal_sweep_write_failure_leaves_no_file(tmp_path, capsys,
                                                           monkeypatch):
    # the sweep raises after the header and one block are written: no
    # partial file, no temporary file, and the I/O exit code
    real = cli._sweep_blocks
    written = []

    def failing(*args):
        blocks = real(*args)
        yield next(blocks)
        written.extend(tmp_path.iterdir())
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "SWEEP_BLOCK_ROWS", 7)
    monkeypatch.setattr(cli, "_sweep_blocks", failing)
    code, _, err = run(["verify", "extremal", "--n-max", "64", "--format",
                        "csv", "--out", str(tmp_path / "sweep.csv")], capsys)
    assert code == 3 and "No space left" in err
    assert [p.suffix for p in written] == [".tmp"]
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("args", [
    ["ostrowski", "--n-max", "100"],
    ["extremal", "--n-max", "64"],
    ["extremal", "--N", "10", "--d", "0.3", "--out", "{tmp}/rep.csv"]])
def test_verify_format_csv_without_sweep_file_usage_error(tmp_path, capsys,
                                                          args):
    # only the extremal sweep writes CSV, and only to a file: elsewhere
    # --format csv is refused, not answered with JSON (ostrowski takes no
    # --format at all)
    args = [a.format(tmp=tmp_path) for a in args]
    code = exit_code(["verify", *args, "--format", "csv"])
    out = capsys.readouterr()
    assert code == 2
    assert "--format" in out.err and out.out == ""
    assert not list(tmp_path.iterdir())


def test_verify_extremal_single_odd_n_not_evaluated(capsys):
    # odd N: no extremal configuration, so nothing is compared
    code, stdout, _ = run(["verify", "extremal", "--N", "7", "--d", "0.2"],
                          capsys)
    report = json.loads(stdout)
    assert code == 0
    assert report["passed"] is None and report["n_checked"] == 0
    assert "logP" not in report["empirical_constants"]


def test_verify_extremal_single_even_n_evaluated(capsys):
    code, stdout, _ = run(["verify", "extremal", "--N", "8", "--d", "0.25"],
                          capsys)
    report = json.loads(stdout)
    assert code == 0
    assert report["passed"] is True and report["n_checked"] == 1
    assert "logP" in report["empirical_constants"]


@pytest.mark.parametrize("d, checked", [
    ("0.3", True), ("0.30000000001", False), ("0.3000000000000001", False),
    ("3/10", True)])
def test_verify_extremal_single_exact_integrality(capsys, d, checked):
    # N d is tested as an exact rational: 10 * 0.3 is M = 3, although the
    # float product is 3.0000000000000004, and nothing near 3 counts
    code, stdout, _ = run(["verify", "extremal", "--N", "10", "--d", d],
                          capsys)
    report = json.loads(stdout)
    assert code == 0
    assert report["params"]["d"] == float(Fraction(d))
    if checked:
        assert report["passed"] is True and report["n_checked"] == 1
        assert report["empirical_constants"]["logP"] == pytest.approx(
            extremal_product_closed_form(ExtremalConfig(10, 3)))
    else:
        assert report["passed"] is None and report["n_checked"] == 0


@pytest.mark.parametrize("d", ["0.75", "1"])
def test_verify_extremal_single_d_above_half_not_evaluated(capsys, d):
    # M = N d > N/2: the bounds are valid, but the construction does not
    # exist, so nothing is compared
    code, stdout, _ = run(["verify", "extremal", "--N", "4", "--d", d],
                          capsys)
    report = json.loads(stdout)
    assert code == 0
    assert report["passed"] is None and report["n_checked"] == 0
    assert set(report["empirical_constants"]) == {"logLower", "logUpper"}


def test_verify_extremal_single_bad_d_usage_error(capsys):
    # what --d's type cannot read exits 2 with argparse's line: a zero
    # denominator, and an exponent past 10^4, refused before 10^exponent
    # is built (no such d lies in [1/(2 --N), 1])
    for d in ("0.3x", "1/0", "0/0", "1e10001", "0e-10001", "1e" + "9" * 5000):
        with pytest.raises(SystemExit) as exc:
            main(["verify", "extremal", "--N", "10", "--d", d])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"argument --d: invalid Fraction value: '{d}'" in err
    # at the limit, the exponent is read, and the range check refuses it
    code, _, err = run(["verify", "extremal", "--N", "10", "--d", "1e10000"],
                       capsys)
    assert code == 2 and "--d must be in [1/(2 --N), 1]" in err


def test_verify_extremal_huge_d_exponent_refused_at_once():
    # fractions.Fraction("1e30000000") alone takes about a minute, to build
    # 10^30000000; --d refuses it first. Run in a child with a timeout, so
    # that a regression fails instead of hanging
    for d in ("1e30000000", "0e-30000000"):
        proc = subprocess.run(
            [sys.executable, "-m", "weylprod.cli", "verify", "extremal",
             "--N", "8", "--d", d], capture_output=True, text=True,
            timeout=30)
        assert proc.returncode == 2
        assert f"argument --d: invalid Fraction value: '{d}'" in proc.stderr


def test_verify_huge_N_refused_at_once():
    # without its cap, the single extremal check would sum 1.5e21 log-sines
    # one at a time, and 10^400 overflows a float; the grid's cap is the
    # kernel's range. Run in one child with a timeout, so that a regression
    # fails instead of hanging
    lines = [["verify", *mode.split(), "--N", N]
             for mode in ("extremal --d 0.5", "hlawka --gen grid")
             for N in ("3" + "0" * 21, "1" + "0" * 400)]
    proc = subprocess.run(
        [sys.executable, "-c", "import json, sys\n"
         "from weylprod.cli import main\n"
         "for argv in json.load(sys.stdin): print(main(argv))"],
        input=json.dumps(lines), capture_output=True, text=True, timeout=30)
    assert proc.stdout.split() == ["2"] * 4
    assert proc.stderr.splitlines() == [
        f"error: --N must be in [1, {cap}] for verify {mode}"
        for cap, mode in ((cli.EXTREMAL_MAX_N, "extremal --d"),
                          (irrational.KERNEL_MAX_N, "hlawka --gen grid"))
        for _ in range(2)]


@pytest.mark.parametrize("args, flag", [
    (["hlawka", "--gen", "vdc", "--n-max", "100", "--n-min", "0"], "--n-min"),
    (["hlawka", "--gen", "vdc", "--n-max", "100", "--n-min", "-5"], "--n-min"),
    (["hlawka", "--gen", "kronecker", "--n-max", "100", "--n-min", "0"],
     "--n-min"),
    (["hlawka", "--gen", "kronecker", "--n-max", "100", "--n-min", "-5"],
     "--n-min"),
    (["hlawka", "--gen", "vdc", "--n-max", "0"], "--n-max"),
    (["extremal", "--n-max", "0"], "--n-max"),
    (["ostrowski", "--n-max", "0"], "--n-max"),
    (["cesaro", "--n-max", "0"], "--n-max"),
    (["cesaro", "--n-max", "-3"], "--n-max"),
    (["type-growth", "--n-max", "0"], "--n-max"),
    (["conjectures", "--n-max", "0"], "--n-max"),
    (["hlawka", "--gen", "grid", "--N", "0"], "--N"),
    (["extremal", "--N", "0", "--d", "0.5"], "--N"),
    (["extremal", "--N", "-4", "--d", "0.5"], "--N"),
    # NaN fails every comparison, so the guards are written to reject it
    (["type-growth", "--n-max", "50", "--t", "nan"], "--t"),
    (["extremal", "--N", "8", "--d", "0.125", "--epsilon", "nan"],
     "--epsilon"),
    (["extremal", "--epsilon", "nan"], "--epsilon"),
    # --n-min is not given: the message names the default that trips
    (["hlawka", "--gen", "vdc", "--n-max", "10"],
     "--n-min must be in [1, --n-max = 10], got 16 (--n-min defaults to 16)"),
    (["hlawka", "--gen", "kronecker", "--n-max", "10"],
     "got 16 (--n-min defaults to 16)"),
    # JSON has no Infinity: the reports would print it
    (["type-growth", "--n-max", "10", "--t", "inf"], "--t"),
    (["extremal", "--N", "8", "--d", "0.125", "--epsilon", "inf"],
     "--epsilon"),
    (["extremal", "--epsilon", "inf"], "--epsilon"),
    # the limits the library sets, checked before any table or orbit
    (["type-growth", "--n-max", "10", "--t", "0.5"], "--t"),
    (["type-growth", "--n-max", "10", "--t", "1"], "--t"),
    (["vdc-limits", "--s-max", "30"], "--s-max must be in [1, 24]"),
    (["vdc-limits", "--s-max", "0"], "--s-max must be in [1, 24]"),
    (["kronecker-sandwich", "--q-max", "1"], "--q-max must be >= 2"),
    (["kronecker-sandwich", "--q-max", "-7"], "--q-max must be >= 2"),
    # [0; 3, 3, ...]: its first denominator >= 2 is 3
    (["kronecker-sandwich", "--alpha", "(-3+1*sqrt(13))/2", "--q-max", "2"],
     "--q-max must be >= 3"),
    (["extremal", "--epsilon", "1e-12"], "--epsilon"),
    (["extremal", "--N", "8", "--d", "0.125", "--epsilon", "1e-12"],
     "--epsilon"),
    # --d outside [1/(2 --N), 1], compared as a Fraction before any float:
    # 1e400 would overflow a float, 1e-400 round to 0
    *((["extremal", "--N", "8", "--d", d],
       "--d must be in [1/(2 --N), 1] = [1/16, 1]")
      for d in ("1e400", "1e-400", "0.0624", "0", "-0.5", "1.0001")),
    # one past each mode's cap on --N
    (["extremal", "--N", "16777217", "--d", "0.5"],
     "--N must be in [1, 16777216] for verify extremal --d"),
    (["hlawka", "--gen", "grid", "--N", "2147483648"],
     "--N must be in [1, 2147483647] for verify hlawka --gen grid"),
])
def test_verify_size_below_one_names_flag(capsys, args, flag):
    # rejected as usage errors, not run at a default size or crashed
    code, stdout, err = run(["verify", *args], capsys)
    assert code == 2
    assert flag in err and "Traceback" not in err
    assert stdout == ""


@pytest.mark.parametrize("args, flag, mode", [
    (["hlawka", "--gen", "vdc", "--alpha", "golden", "--n-max", "100"],
     "--alpha", "hlawka --gen vdc"),
    (["hlawka", "--gen", "grid", "--N", "10", "--n-min", "5000"], "--n-min",
     "hlawka --gen grid"),
    (["extremal", "--N", "5", "--n-max", "64"], "--N",
     "extremal without --d"),
    (["hlawka", "--gen", "vdc", "--N", "10", "--n-max", "100"], "--N",
     "hlawka --gen vdc"),
    (["hlawka", "--gen", "grid", "--N", "10", "--alpha", "golden"],
     "--alpha", "hlawka --gen grid"),
    (["hlawka", "--gen", "grid", "--N", "10", "--n-max", "100"], "--n-max",
     "hlawka --gen grid"),
    (["hlawka", "--N", "10", "--n-max", "100"], "--N",
     "hlawka --gen kronecker"),
    (["extremal", "--N", "8", "--d", "0.125", "--n-max", "64"], "--n-max",
     "extremal --d"),
])
def test_verify_refuses_an_option_its_mode_does_not_read(capsys, args, flag,
                                                         mode):
    # the first three lines exited 0, the option ignored
    code, stdout, err = run(["verify", *args], capsys)
    assert code == 2 and stdout == ""
    assert err == f"error: {flag} is not read by verify {mode}\n"


@pytest.mark.parametrize("args", [
    ["hlawka", "--gen", "vdc", "--n-max", "100", "--n-min", "20"],
    ["hlawka", "--gen", "grid", "--N", "10"],
    ["hlawka", "--gen", "kronecker", "--alpha", "golden", "--n-max", "100",
     "--n-min", "20"],
    ["extremal", "--n-max", "64"],
    ["extremal", "--N", "8", "--d", "0.125"],
    # an option the mode does not read, set to its default, is taken
    ["hlawka", "--gen", "grid", "--N", "10", "--alpha", "sqrt2m1",
     "--n-max", "10000", "--n-min", "16"],
])
def test_verify_mode_takes_the_options_it_reads(capsys, args):
    code, stdout, _ = run(["verify", *args], capsys)
    assert code == 0 and json.loads(stdout)["passed"] is not False


def test_verify_unknown_theorem_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "definitely-not-a-theorem"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------- mc

def test_mc_paths_zero_usage_error(capsys):
    code, _, err = run(["mc", "iid", "--paths", "0"], capsys)
    assert code == 2
    assert "paths" in err


@pytest.mark.parametrize("model", ["iid", "rademacher", "subsequence"])
def test_mc_negative_seed_names_flag(tmp_path, capsys, model):
    code, _, err = run(["mc", model, "--paths", "2", "--seed", "-1",
                        "--out", str(tmp_path / "m")], capsys)
    assert code == 2
    assert "--seed must be >= 0" in err
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("n_max", ["1", "50", "99"])
def test_mc_rademacher_n_max_below_ratio_range(tmp_path, capsys, n_max):
    code, _, err = run(["mc", "rademacher", "--paths", "2", "--n-max", n_max,
                        "--out", str(tmp_path / "r")], capsys)
    assert code == 2
    assert "--n-max" in err
    assert not (tmp_path / "r.csv").exists()


@pytest.mark.parametrize("args, flag, limit", [
    (["iid", "--n-max", "500"], "--n-max", "1000"),
    (["subsequence", "--terms", "50"], "--terms", "100"),
    (["subsequence", "--terms", "0"], "--terms", "100"),
])
def test_mc_size_below_limit_names_flag(tmp_path, capsys, args, flag, limit):
    code, _, err = run(["mc", *args, "--paths", "2",
                        "--out", str(tmp_path / "m")], capsys)
    assert code == 2
    assert flag in err and limit in err
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize("terms", ["933688432", "1000000000"])
def test_mc_subsequence_terms_above_kernel_range(tmp_path, capsys, terms):
    # 10^9 terms would draw 2300000256 coins a path, past the kernel's
    # range: the error names --terms and the most it takes, not the draws
    code, _, err = run(["mc", "subsequence", "--paths", "2", "--terms", terms,
                        "--out", str(tmp_path / "m")], capsys)
    assert code == 2
    assert err == ("error: --terms must be <= 933688431 for subsequence: a "
                   "path's coin draws must stay within the fixed-point "
                   "kernel's range\n")
    assert list(tmp_path.iterdir()) == []
    top = st.subsequence_max_terms()
    assert st._coin_draws(top) <= irrational.KERNEL_MAX_N
    assert st._coin_draws(top + 1) > irrational.KERNEL_MAX_N


@pytest.mark.parametrize("args, command", [
    (["verify", "ostrowski"], "ostrowski"),
    (["verify", "cesaro"], "cesaro"),
    (["verify", "type-growth"], "type-growth"),
    (["verify", "conjectures"], "conjectures"),
    (["verify", "hlawka", "--gen", "kronecker"], "hlawka --gen kronecker"),
    (["mc", "rademacher", "--paths", "2"], "rademacher"),
    (["figure"], "figure"),
])
@pytest.mark.parametrize("n_max", ["2147483648", "3000000000"])
def test_orbit_n_max_above_kernel_range(tmp_path, capsys, args, command,
                                        n_max):
    # the error names --n-max and the kernel's largest N, before any orbit
    # is built, where the kernel's own message named neither
    code, stdout, err = run([*args, "--n-max", n_max,
                             "--out", str(tmp_path / "m")], capsys)
    assert code == 2
    assert err == (f"error: --n-max must be <= 2147483647 for {command}: "
                   "the orbit must stay within the fixed-point kernel's "
                   "range\n")
    assert stdout == "" and list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("q_max", ["2147483649", "10000000000"])
def test_q_max_above_kernel_range(tmp_path, capsys, q_max):
    # the error names --q-max and the largest q_max whose orbit the kernel
    # takes, before any table or orbit is built, where the kernel's own
    # message named N = 7645370044 for 10^10
    code, stdout, err = run(["verify", "kronecker-sandwich", "--q-max",
                             q_max, "--out", str(tmp_path / "m")], capsys)
    assert code == 2
    assert err == ("error: --q-max must be <= 2147483648 for "
                   "kronecker-sandwich: the orbit, one short of the largest "
                   "denominator <= --q-max, must stay within the fixed-point "
                   "kernel's range\n")
    assert stdout == "" and list(tmp_path.iterdir()) == []


def test_q_max_at_kernel_range_is_taken(capsys, monkeypatch):
    # 2^31, whose orbit is at most 2^31 - 1 points, is in range: the
    # checker is called with it (a stub here, which builds no orbit)
    seen = []

    def stub(alpha, q_max):
        seen.append(q_max)
        return cli.bnd.BoundReport("kronecker-sandwich", {}, (2, q_max))

    monkeypatch.setattr(cli.bnd, "check_kronecker_sandwich", stub)
    code, _, _ = run(["verify", "kronecker-sandwich", "--q-max",
                      "2147483648"], capsys)
    assert code == 0 and seen == [2147483648]


def test_orbit_n_max_at_kernel_range_is_taken(capsys, monkeypatch):
    # the kernel's largest N itself is in range: the checker is called
    # with it (a stub here, which builds no orbit)
    seen = []

    def stub(alpha, n_max):
        seen.append(n_max)
        return cli.bnd.BoundReport("ostrowski", {}, (1, n_max))

    monkeypatch.setattr(cli.bnd, "check_ostrowski_bound", stub)
    code, _, _ = run(["verify", "ostrowski", "--n-max", "2147483647"], capsys)
    assert code == 0 and seen == [2147483647]


def test_mc_write_failure_leaves_no_file(tmp_path, capsys, monkeypatch):
    # the CSV write raises after two rows: no partial file, no temporary
    # file, and the I/O exit code
    real = st.iid_lil_experiment

    def failing_rows(*args, **kwargs):
        stats = real(*args, **kwargs)
        first = stats.rows[:2]

        def rows():
            yield from first
            raise OSError(28, "No space left on device")
        stats.rows = rows()
        return stats

    monkeypatch.setattr(st, "iid_lil_experiment", failing_rows)
    code, _, err = run(["mc", "iid", "--paths", "3", "--n-max", "1000",
                        "--out", str(tmp_path / "mc")], capsys)
    assert code == 3 and "No space left" in err
    assert list(tmp_path.iterdir()) == []


def test_atomic_open_keeps_old_file(tmp_path):
    out = tmp_path / "rep.json"
    out.write_text("old\n")
    with pytest.raises(OSError):
        with cli._atomic_open(out) as fh:
            fh.write("partial")
            raise OSError("write failed")
    assert out.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["rep.json"]
    with cli._atomic_open(out) as fh:
        fh.write("new\n")
    assert out.read_text() == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["rep.json"]


def test_atomic_open_link_and_device(tmp_path):
    # a link keeps pointing at its target, which gets the new content
    (tmp_path / "sub").mkdir()
    target = tmp_path / "sub" / "rep.json"
    target.write_text("old\n")
    link = tmp_path / "link.json"
    link.symlink_to(target)
    with cli._atomic_open(link) as fh:
        fh.write("new\n")
    assert link.is_symlink() and target.read_text() == "new\n"
    assert sorted(p.name for p in (tmp_path / "sub").iterdir()) == ["rep.json"]
    # a device is written in place, not replaced by a regular file
    with cli._atomic_open(os.devnull) as fh:
        fh.write("discarded\n")
    assert not os.path.isfile(os.devnull)


# calls that open, write, replace or remove a file: these, `os`'s file
# functions, and the file methods of paths, handles and arrays
FILE_CALLS = {"open", "io.open", "json.dump", "np.save", "np.savetxt",
              "shutil.copy", "shutil.move", "shutil.rmtree"}
OS_FILE_CALLS = {"open", "fdopen", "replace", "rename", "unlink", "remove",
                 "mkdir", "makedirs"}
FILE_METHODS = {"open", "write_text", "write_bytes", "unlink", "touch",
                "tofile"}


def file_calls(path: Path) -> set:
    """The file calls in the module at `path`, as written."""
    calls = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Call):
            text = ast.unparse(node.func)
            owner, _, name = text.rpartition(".")
            if (text in FILE_CALLS or owner == "os" and name in OS_FILE_CALLS
                    or owner and name in FILE_METHODS):
                calls.add(text)
    return calls


def test_only_cli_writes_files():
    # every output file goes through cli._emit: no other module opens,
    # replaces or removes a file
    found = {path.name: file_calls(path)
             for path in sorted(Path(cli.__file__).parent.glob("*.py"))}
    assert found.pop("cli.py") == {"open", "os.open", "os.replace",
                                   "os.unlink"}
    assert found == {name: set() for name in found}


def test_mc_iid_deterministic(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for prefix in ("a", "b"):
        code, _, _ = run(["mc", "iid", "--paths", "3", "--n-max", "2000",
                          "--seed", "7", "--out", prefix], capsys)
        assert code == 0
    assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
    assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


def test_mc_subsequence_identity_flag(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    code, _, _ = run(["mc", "subsequence", "--alpha", "sqrt2m1", "--paths",
                      "2", "--terms", "1000", "--seed", "3", "--out", "sub"],
                     capsys)
    assert code == 0
    summary = json.loads((tmp_path / "sub.json").read_text())
    assert summary["details"]["selection_identity_max_abs_diff"] < 1e-8


def test_mc_subsequence_terms_default(tmp_path, capsys):
    # without --terms the model takes 50000 terms, what the default --n-max
    # of 10^5 gave when the terms were max(--n-max // 2, 200)
    prefix = tmp_path / "sub"
    code, _, _ = run(["mc", "subsequence", "--paths", "1",
                      "--out", str(prefix)], capsys)
    assert code == 0
    assert json.loads(Path(f"{prefix}.json").read_text())["N_max"] == 50000


def test_mc_subsequence_short_coin_exits_2(tmp_path, capsys, monkeypatch):
    # a coin one head short of the terms: an error, not a redraw
    class ShortCoin:
        # raw words whose 32-bit halves show 99 heads, then tails
        def __init__(self):
            self.bit_generator = self

        def random_raw(self, size):
            heads = (np.arange(2 * size) < 99).astype(np.uint32)
            return (heads << np.uint32(31)).view(np.uint64)

    real = st.FairCoins
    monkeypatch.setattr(st, "FairCoins", lambda rng: real(ShortCoin()))
    code, _, err = run(["mc", "subsequence", "--paths", "2", "--terms",
                        "100", "--out", str(tmp_path / "s")], capsys)
    assert code == 2
    assert "99 heads in 485 draws" in err
    assert list(tmp_path.iterdir()) == []


def test_mc_csv_summary_round_trip(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(["mc", "iid", "--paths", "5", "--n-max", "1500", "--seed", "1",
         "--out", "rt"], capsys)
    rows = (tmp_path / "rt.csv").read_text().strip().splitlines()[1:]
    ratios = np.array([float(r.split(",")[4]) for r in rows])
    summary = json.loads((tmp_path / "rt.json").read_text())
    assert summary["ratio_mean"] == float(np.mean(ratios))


# --------------------------------------------------------- pinned outputs

def pin_argv(row, pin, tmp_path):
    """The command line of a pin of `row`, with an mc run's file prefix or
    the sweep's CSV file in `tmp_path`."""
    argv = row.pin_line(pin)
    if argv[0] == "mc":
        return argv + ["--out", str(tmp_path / "pin")]
    if argv[0] == "verify" and "csv" in argv:
        return argv + ["--out", str(tmp_path / "pin.csv")]
    return argv


def check_pin(row, pin, tmp_path, capsys):
    """The bytes that the pinned line writes hash to the pin's sha256: an
    mc run's CSV and JSON, the sweep's CSV file and its report on stdout,
    or figure's rows or a verify report on stdout."""
    argv = pin_argv(row, pin, tmp_path)
    code, out, _ = run(argv, capsys)
    assert code in ((0, 1) if argv[0] == "verify" else (0,))
    if argv[0] == "mc":
        outputs = [(tmp_path / f"pin.{ext}").read_bytes()
                   for ext in ("csv", "json")]
    elif "--out" in argv:
        outputs = [(tmp_path / "pin.csv").read_bytes(), out.encode()]
    else:
        outputs = [out.encode()]
    assert [hashlib.sha256(b).hexdigest() for b in outputs] == \
        list(pin.sha256)


# Every pin of the table, run by five tests through one check, so that each
# pin keeps its test id: figure's three sets, and the verify and mc lines
# with and without --alpha.
def figure_pins(name):
    return [pin for pin in FIGURE.pins if pin.name == name]


PINS = [(row, pin) for row in ROWS if row is not FIGURE for pin in row.pins]
ALPHA_PINS = [(row, pin) for row, pin in PINS if pin.alpha]
ALPHA_FREE_PINS = [(row, pin) for row, pin in PINS if pin.alpha is None]


@pytest.mark.parametrize("key", figure_pins("figure"))
def test_figure_output_pinned(tmp_path, capsys, key):
    check_pin(FIGURE, key, tmp_path, capsys)


@pytest.mark.parametrize("key", figure_pins("figure exponent"))
def test_figure_exponent_rows_pinned(tmp_path, capsys, key):
    check_pin(FIGURE, key, tmp_path, capsys)


@pytest.mark.parametrize("key", figure_pins("figure anchors"))
def test_figure_many_anchors_pinned(tmp_path, capsys, key):
    check_pin(FIGURE, key, tmp_path, capsys)


@pytest.mark.parametrize("row, pin", ALPHA_PINS,
                         ids=[f"{pin.alpha}/{pin.name}"
                              for _, pin in ALPHA_PINS])
def test_verify_and_mc_outputs_pinned(tmp_path, capsys, row, pin):
    check_pin(row, pin, tmp_path, capsys)


@pytest.mark.parametrize("row, pin", ALPHA_FREE_PINS,
                         ids=[pin.name for _, pin in ALPHA_FREE_PINS])
def test_alpha_free_outputs_pinned(tmp_path, capsys, row, pin):
    check_pin(row, pin, tmp_path, capsys)


# ------------------------------------------------------------------- flags

def test_bad_alpha_exit_2(capsys):
    code, _, err = run(["figure", "--alpha", "notathing"], capsys)
    assert code == 2 and "alpha" in err


@pytest.mark.parametrize("argv", [
    ["figure", "--n-max", "2"],
    ["verify", "vdc-limits", "--s-max", "6"],
    ["mc", "iid", "--paths", "2", "--n-max", "1000", "--out", "{tmp}/mc"]])
def test_precision_env_is_not_read(tmp_path, capsys, monkeypatch, argv):
    # WEYL_PRECISION_BITS is no input: set to a number or to garbage, it
    # neither changes nor stops any command
    argv = [a.format(tmp=tmp_path) for a in argv]
    outputs = []
    for value in (None, "160", "nope"):
        if value is None:
            monkeypatch.delenv("WEYL_PRECISION_BITS", raising=False)
        else:
            monkeypatch.setenv("WEYL_PRECISION_BITS", value)
        code, out, err = run(argv, capsys)
        files = [p.read_bytes() for p in sorted(tmp_path.iterdir())]
        outputs.append((code, out, err, files))
    assert outputs[0][0] == 0
    assert outputs[1] == outputs[0] and outputs[2] == outputs[0]


def test_precision_bits_zero_is_usage_error(capsys):
    # 0 is a value, not "unset": it must not fall through to the default
    code, _, err = run(["figure", "--precision-bits", "0", "--n-max", "2"],
                       capsys)
    assert code == 2 and "must be >= 68" in err


def test_precision_bits_goes_after_figure(capsys):
    # an option of figure alone: it follows `figure`; before the subcommand,
    # or given to verify or mc, it is a usage error
    code, out, _ = run(["figure", "--precision-bits", "160", "--n-max", "2"],
                       capsys)
    assert code == 0 and "precision_bits=160 " in out
    assert exit_code(["--precision-bits", "160", "figure", "--n-max", "2"]) \
        == 2
    capsys.readouterr()
    for argv in (["verify", "vdc-limits"], ["mc", "iid"]):
        assert exit_code([*argv, "--precision-bits", "160"]) == 2
        assert "unrecognized arguments: --precision-bits 160" in \
            capsys.readouterr().err


def exit_code(argv):
    """main's exit code, whether it returns it or argparse exits with it."""
    try:
        return main(argv)
    except SystemExit as exc:
        return exc.code


CLI_TEXT = json.loads((Path(__file__).parent / "cli_text.json").read_text())


@pytest.mark.skipif(sys.version_info[:2] != tuple(CLI_TEXT["python"]),
                    reason="argparse's wording differs between versions")
@pytest.mark.parametrize("case", CLI_TEXT["cases"],
                         ids=lambda case: " ".join(case["argv"]) or "none")
def test_help_and_usage_text_pinned(case, monkeypatch, capsys):
    # every help, usage and usage-error byte, as captured before the
    # subcommand parsers were built on first use
    monkeypatch.setenv("COLUMNS", "80")
    code = exit_code(list(case["argv"]))
    out = capsys.readouterr()
    assert (code, out.out, out.err) == (case["code"], case["stdout"],
                                        case["stderr"])


# figure, each verify theorem and each mc model
COMMAND_NAMES = list(map(list, dict.fromkeys(tuple(row.names)
                                             for row in ROWS)))


def row_mode(row):
    """The command, or the mode of `cli._UNREAD`, that `row` runs."""
    mode = cli._mode(cli._read(row.line(row.small, row.runs[0])))
    return " ".join(row.names) if mode is None else f"verify {mode}"


def test_every_command_and_mode_has_a_row():
    # a command of cli.COMMANDS, or a mode of a verify theorem, that the
    # table lacks fails here
    modal = {mode.split()[0] for mode in cli._UNREAD}
    want = ["figure", *(f"mc {model}" for model in cli.COMMANDS["mc"]),
            *(f"verify {tag}" for tag in cli.COMMANDS["verify"]
              if tag not in modal),
            *(f"verify {mode}" for mode in cli._UNREAD)]
    assert sorted(map(row_mode, ROWS)) == sorted(want)


def command_options(names):
    """The COMMANDS entry of the command `names`."""
    options = cli.COMMANDS[names[0]]
    return options[names[1]] if len(names) == 2 else options


@pytest.mark.parametrize("names", COMMAND_NAMES, ids=" ".join)
def test_each_command_takes_exactly_its_options(names, capsys):
    # the command's parser holds the options of its COMMANDS entry, with
    # their defaults, and --N-max beside --n-max; every option of another
    # command is refused by name, and not read as an abbreviation (--N of
    # --N-max, --t of --terms)
    options = command_options(names)
    parser = cli.build_parser()
    for name in names:
        sub, = (a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction))
        parser = sub.choices[name]
    actions = [a for a in parser._actions if a.dest != "help"]
    assert {a.option_strings[0]: a.default for a in actions} == options
    aliases = [s for a in actions for s in a.option_strings[1:]]
    assert aliases == (["--N-max"] if "--n-max" in options else [])
    every = {flag for group in ("verify", "mc")
             for entry in cli.COMMANDS[group].values() for flag in entry}
    every |= set(cli.COMMANDS["figure"]) | {"--N-max"}
    for flag in sorted(every - set(options) - set(aliases)):
        assert exit_code([*names, flag, "1"]) == 2, flag
        assert f"unrecognized arguments: {flag} 1\n" in \
            capsys.readouterr().err


# ------------------------------------------------------------- the reader

def parsed(argv):
    """What argparse reads from `argv` as text that compares its values by
    type and reads a NaN as equal to itself; None where argparse exits."""
    try:
        return repr(sorted(vars(cli.build_parser().parse_args(argv)).items()))
    except SystemExit:
        return None


def read(argv):
    """`cli._read(argv)` as the same text, or None."""
    args = cli._read(argv)
    return None if args is None else repr(sorted(vars(args).items()))


ENTRIES = [cli.COMMANDS["figure"], *cli.COMMANDS["verify"].values(),
           *cli.COMMANDS["mc"].values()]
FLAGS = sorted({flag for entry in ENTRIES for flag in entry}
               | {"--N-max", "-h", "--"})
VALUES = ["5", "-5", "-", "", "1_000", " 7", "1/0", "nan", "x", "--n-max=3",
          "2", "0.125", "sqrt2m1", "1e400", "1e-400", "1e10001",
          *sorted({choice for spec in cli._SPECS.values()
                   for choice in spec.get("choices", ())})]
NAMES = ["figure", "verify", "mc", *cli.COMMANDS["verify"],
         *cli.COMMANDS["mc"]]
TOKEN = hs.sampled_from(NAMES + FLAGS + VALUES)


def pairs_of(names):
    """The command `names`, then pairs of one of its flags and a value."""
    own = hs.sampled_from([*command_options(names), "--N-max"])
    pairs = hs.lists(hs.tuples(own, hs.sampled_from(VALUES)), max_size=3)
    return pairs.map(lambda pairs: [*names, *chain(*pairs)])


# any tokens, or a command's names and flag-value pairs, so that many
# lines are plain
LINES = hs.one_of(hs.lists(TOKEN, max_size=8),
                  hs.sampled_from(COMMAND_NAMES).flatmap(pairs_of))


@settings(max_examples=500)
@given(LINES)
@example(["verify", "type-growth", "--t", "nan", "--N-max", " 7"])
@example(["figure", "--n-max", "1_000", "--out", "-", "--format", "json"])
@example(["verify", "extremal", "--N", "8", "--d", "1/0"])
@example(["verify", "extremal", "--N", "8", "--d", "1e400"])
@example(["verify", "extremal", "--N", "8", "--d", "1e-400"])
@example(["verify", "extremal", "--N", "8", "--d", "1e10001"])
def test_reader_agrees_with_argparse(argv):
    # the table reads a line as argparse does, or leaves it to argparse
    got = read(argv)
    assert got is None or got == parsed(argv)


def test_plain_lines_are_read_from_the_table(tmp_path):
    # every line the unused-code guard and the pinned-output tests run, but
    # -h and argparse's usage errors, is read without argparse, as argparse
    # reads it
    lines = [*([*row.line(row.small, flags), "--out", str(tmp_path / "out")]
               for row in ROWS for flags in row.runs),
             *(pin_argv(row, pin, tmp_path) for row in ROWS
               for pin in row.pins)]
    for argv in lines:
        assert read(argv) is not None and read(argv) == parsed(argv), argv
    for case in CLI_TEXT["cases"]:
        argparse_text = "-h" in case["argv"] or \
            case["stderr"].startswith("usage:")
        assert (read(case["argv"]) is None) == argparse_text, case["argv"]


# each row's line at its small size
@pytest.mark.parametrize("row", ROWS, ids=[row.name for row in ROWS])
def test_a_plain_line_builds_no_parser(row, tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    argv = [*row.line(row.small, row.runs[0]),
            "--out", str(tmp_path / "out")]
    assert exit_code(argv) == 0
    assert built == []
    # the count sees the parsers that -h builds
    assert exit_code([*row.names, "-h"]) == 0 and built


def refuse(*args, **kwargs):
    raise AssertionError("a checker ran")


@pytest.mark.parametrize("args", [
    ["type-growth", "--t", "0.5"],
    ["vdc-limits", "--s-max", "30"],
    ["kronecker-sandwich", "--q-max", "1"],
    ["extremal", "--epsilon", "1e-12"],
    ["extremal", "--N", "8", "--d", "0.125", "--epsilon", "1e-12"]])
def test_range_errors_come_before_the_checker(args, monkeypatch, capsys):
    for name in ("check_type_growth", "check_vdc_limits",
                 "check_kronecker_sandwich", "kronecker_log_trace"):
        monkeypatch.setattr(cli.bnd, name, refuse)
    for name in ("sweep", "sup_product_lower_bound"):
        monkeypatch.setattr(cli, name, refuse)
    code, stdout, err = run(["verify", *args], capsys)
    assert code == 2 and stdout == "" and err.startswith("error: --")


@pytest.mark.parametrize("args", [
    ["kronecker-sandwich", "--alpha", "(-3+1*sqrt(13))/2", "--q-max", "3"],
    ["kronecker-sandwich", "--q-max", "2"],
    ["vdc-limits", "--s-max", "1"],
    ["type-growth", "--n-max", "10", "--t", "1.000001"],
    ["extremal", "--n-max", "16", "--epsilon", "0.01"]])
def test_range_edges_are_taken(args, capsys):
    code, stdout, _ = run(["verify", *args], capsys)
    assert code == 0 and json.loads(stdout)["passed"] is not False


def test_epsilon_error_names_the_threshold_cap(monkeypatch, capsys):
    # B(0.01) lies past 1000: the message gives the cap the library reads
    monkeypatch.setattr(extremal, "THRESHOLD_CAP", 1000)
    code, _, err = run(["verify", "extremal", "--n-max", "16", "--epsilon",
                        "0.01"], capsys)
    assert code == 2
    assert err == ("error: --epsilon = 0.01 is too small: its threshold B "
                   "lies past 1000\n")


def test_unwritable_out_exit_3(tmp_path, capsys):
    out = tmp_path / "missing" / "rep.json"
    code, _, err = run(["verify", "ostrowski", "--n-max", "100",
                        "--out", str(out)], capsys)
    assert code == 3 and "error" in err
    code, _, _ = run(["mc", "iid", "--paths", "2", "--n-max", "1000",
                      "--out", str(tmp_path / "missing" / "mc")], capsys)
    assert code == 3


@pytest.mark.parametrize("argv, name", [
    (["figure", "--n-max", "2"], "x.csv"),
    (["verify", "vdc-limits", "--s-max", "10"], "x.csv"),
    (["mc", "iid", "--paths", "2", "--n-max", "1000"], "x.csv.csv")])
def test_missing_out_directory_names_the_out_path(argv, name, tmp_path,
                                                  capsys):
    # exit 3 with the same one line on every run, naming the file asked
    # for (mc's --out is a prefix), not a temporary file; nothing is left
    out = tmp_path / "missing" / "x.csv"
    errs = set()
    for _ in range(2):
        code, _, err = run(argv + ["--out", str(out)], capsys)
        assert code == 3
        errs.add(err)
    assert errs == {"error: [Errno 2] No such file or directory: "
                    f"'{out.parent / name}'\n"}
    assert list(tmp_path.iterdir()) == []


def test_out_of_memory_exit_3(monkeypatch, capsys):
    # running out of memory is not a failed bound (exit 1): exit 3 with
    # one line, no traceback
    def no_memory(*args, **kwargs):
        raise MemoryError()

    monkeypatch.setattr(cli.bnd, "hlawka_sequence_report", no_memory)
    code, out, err = run(["verify", "hlawka", "--gen", "vdc",
                          "--n-max", "100"], capsys)
    assert code == 3 and out == ""
    assert err == "error: out of memory\n"


@pytest.mark.parametrize("argv, lines", [
    (["figure", "--n-max", "50000"], 1),
    (["verify", "conjectures", "--n-max", "30"], 0),
    (["mc", "iid", "--paths", "2", "--n-max", "1000", "--out", "{tmp}/mc"],
     0),
    (["--help"], 0),
    (["verify", "--help"], 0),
    (["verify", "extremal", "--n-max", "64", "--format", "csv", "--out",
      "{tmp}/sweep.csv"], 0)])
def test_closed_stdout_is_not_an_io_error(argv, lines, tmp_path):
    # a reader that stops early, as `figure ... | head -1` does: the rest of
    # the output is dropped quietly and the command exits with its own code.
    # figure's rows (megabytes) fail in a write far past the pipe's buffer;
    # the short report, read by nobody, fails at the final flush. stdout is
    # block-buffered, as for any user who has not set PYTHONUNBUFFERED
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    argv = [a.format(tmp=tmp_path) for a in argv]
    proc = subprocess.Popen([sys.executable, "-m", "weylprod.cli", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env)
    try:
        for _ in range(lines):
            proc.stdout.readline()
        proc.stdout.close()
        _, err = proc.communicate(timeout=120)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 0
    assert err == b""


def test_console_script_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "weylprod.cli", "verify", "conjectures",
         "--n-max", "30"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["theorem"] == "conjectures"


_WITHOUT_MPMATH = """
import sys
sys.modules["mpmath"] = None  # any import of mpmath now raises
sys.modules["numpy.ma"] = None  # and so does any import of numpy.ma
import weylprod
import weylprod.cli
out = sys.argv[1]
for argv in (
        ["verify", "ostrowski", "--n-max", "200"],
        ["verify", "cesaro", "--n-max", "200"],
        ["verify", "hlawka", "--gen", "vdc", "--n-max", "200"],
        ["verify", "hlawka", "--gen", "kronecker", "--n-max", "200"],
        ["verify", "vdc-limits", "--s-max", "6"],
        ["verify", "extremal", "--n-max", "64", "--format", "csv",
         "--out", out + "/sweep.csv"],
        ["mc", "iid", "--paths", "2", "--n-max", "1000", "--out",
         out + "/iid"],
        ["mc", "rademacher", "--paths", "2", "--n-max", "200", "--out",
         out + "/rademacher"],
        ["mc", "subsequence", "--paths", "2", "--terms", "100", "--out",
         out + "/subsequence"]):
    code = weylprod.cli.main(argv)
    if code != 0:
        sys.exit(f"{argv}: exit {code}")
"""


def test_verify_and_mc_run_without_mpmath(tmp_path):
    # mpmath is loaded only by figure, the quadratures and the mpf oracles:
    # the package, the CLI and every verify and mc command here run with it
    # unimportable, and with numpy.ma unimportable, which numpy's quantile
    # and unique would load
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_MPMATH, str(tmp_path)],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "sweep.csv").exists()
    for model in ("iid", "rademacher", "subsequence"):
        assert (tmp_path / f"{model}.csv").exists()


_WITHOUT_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy now raises
import weylprod.cli
from weylprod.stochastic import log_integral, variance_integral
assert abs(log_integral().value) < 1e-10
assert abs(variance_integral().value - 0.8224670334241132) < 1e-9
sys.exit(weylprod.cli.main(["mc", "subsequence", "--paths", "2",
                            "--terms", "100", "--out", sys.argv[1]]))
"""


def test_runs_without_scipy(tmp_path):
    # numpy and mpmath are the only dependencies: the CLI, the quadratures
    # and a Monte Carlo run work with scipy unimportable
    proc = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path / "mc")],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (tmp_path / "mc.csv").read_text().count("\n") == 3


def test_cli_import_leaves_numpy_random_unloaded():
    # numpy.random is imported only when an mc model or a random search
    # runs, so the import every command pays stays without it. The mc path
    # threads take `threading`, which the import loads anyway, and not
    # concurrent.futures, which would load logging too
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, weylprod.cli; "
         "sys.exit(' '.join(m for m in ('numpy.random', "
         "'concurrent.futures', 'logging') if m in sys.modules) or None)"],
        capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
