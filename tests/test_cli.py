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

from oracles import mpf_trace, series_rows
from test_commands_run_everything import CODES, RUNS
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


FIGURE_ALPHA = "(1+1*sqrt(7))/5"
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


# sha256 of `figure --alpha (1+1*sqrt(7))/5 --n-max 300` on stdout, by
# (--precision-bits, normalizer, format), recorded before rows were rounded
# in integers: a change to any printed byte must be deliberate
FIGURE_SHA256 = {
    (None, "none", "csv"):
        "47dbad6de6ed607fbb1bad7a422a9d40526f58c387fd351b816ef858a5106771",
    (None, "none", "json"):
        "827a3cf8669fbbdd670557f6aba28bf6b08d387aabd8f1016633577b230e5e1c",
    (None, "one_over_N", "csv"):
        "561d7cff0bbddfb433be12c70c3201647424b89b55e0f79458b20e69e40f2970",
    (None, "one_over_N", "json"):
        "46807ba5b60dbfc05c36b24f544eda327f0cbf22e62aaa4b3bbdc188f4d5005f",
    (None, "one_over_N_squared", "csv"):
        "9dda33611954cc612812ba96e16d6a6ba76bc152b8b33313c42295d36f63320c",
    (None, "one_over_N_squared", "json"):
        "2a952bd6e1488c8029dde4dcaa3ef3a130817893c68d6637a7c1bc8a2b13a518",
    (68, "none", "csv"):
        "cbb89400f2242917679943e27a63a69cacd130e951fb783b24a75177cd0e1a94",
    (68, "none", "json"):
        "617d8de9bffaba9505fe8090102b5051674d714df7b6dea691a7f3a4ec8254f4",
    (68, "one_over_N", "csv"):
        "4573ad35671b05917234248b3d1c3312f1e696254db12ba834342076c72b1842",
    (68, "one_over_N", "json"):
        "40e28b0c3773079a41dc80edcc76a2826d0691f021bc79e32ab16bc579ab869a",
    (68, "one_over_N_squared", "csv"):
        "d9461f17298b1cdb67894317aae62d72dc29c7474ea7794d83889a66491df723",
    (68, "one_over_N_squared", "json"):
        "dc9a852f07763a84aa83335dad8ef095e9c7a35cd952958262f779095008b5d5",
    (1100, "none", "csv"):
        "7525427c6e7bf5f826123e75d4b69594e2e7a3aac8ef01d1b2110d263102670b",
    (1100, "none", "json"):
        "2c9bb204df4ee665666ae5219e2186d466839cd60687b98ba54e1d9b903ebb35",
    (1100, "one_over_N", "csv"):
        "6f7f001b37af244445a6d2593c4e82f4e472c30bc6b58fbadcb5ca6ebc2f8de2",
    (1100, "one_over_N", "json"):
        "c5a766f8f7b8f9275e636fa02920fd38461582e275cda827bbd12f43fca2a1af",
    (1100, "one_over_N_squared", "csv"):
        "14a46a80480e125d064f88aa8c35256f24b798f3bcbdbd8226d57f161523ca47",
    (1100, "one_over_N_squared", "json"):
        "ffb3bb60a050b62bcc32013efe71203088ccaeffa44feb20a3b7193456bbc8e4",
}


def figure_argv(alpha, n_max, normalizer, fmt, *flags):
    """The command line of a pinned figure run."""
    return ["figure", *flags, "--alpha", alpha, "--n-max", str(n_max),
            "--normalizer", normalizer, "--format", fmt]


def figure_pin_argv(precision_bits, normalizer, fmt):
    """The command line that FIGURE_SHA256 pins for one key."""
    flags = ([] if precision_bits is None
             else ["--precision-bits", str(precision_bits)])
    return figure_argv(FIGURE_ALPHA, FIGURE_N, normalizer, fmt, *flags)


@pytest.mark.parametrize("key", sorted(FIGURE_SHA256, key=str))
def test_figure_output_pinned(capsys, key):
    code, out, _ = run(figure_pin_argv(*key), capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FIGURE_SHA256[key]


# sha256 of `figure --n-max 300` on stdout by (alpha, normalizer, format),
# recorded while a second printer still served every row below 10^-12:
# [0; 4000, 1, 1, ...] prints all but its first rows in exponent notation
# (down to about 1e-233), and [0; 10^7, 1, 1, ...], with 148 exact terms,
# falls below 2^-3500, where to_str prints each row itself
FIGURE_EXPONENT_SHA256 = {
    ("(7999-1*sqrt(5))/31991998", "none", "csv"):
        "e69206c43d108c77dca883fdbea4aec3387177516e225d867e1bb90728daee50",
    ("(7999-1*sqrt(5))/31991998", "none", "json"):
        "3e2cbcc465c0f421ddd56bf591c4dd270df4bb44e79445bffe4698728b96b979",
    ("(7999-1*sqrt(5))/31991998", "one_over_N_squared", "csv"):
        "fc724ca06261dff75a1bc2c28e0775f9a4f48e25ef4b5b1308807becbee64459",
    ("(7999-1*sqrt(5))/31991998", "one_over_N_squared", "json"):
        "f83799405baa4e61a1520775222eb652c7bf51d4aef3ef3a303c55d029865c46",
    ("(19999999-1*sqrt(5))/199999979999998", "none", "csv"):
        "e9c5f51ddd795abc05a23a6a96be933caf22a4f7632e0ed3adf3ef40070b079a",
    ("(19999999-1*sqrt(5))/199999979999998", "none", "json"):
        "427dcb8e0fd042a5a85ce6ebbd0b46852e7d49229e0d4e09439e38067b9aa419",
    ("(19999999-1*sqrt(5))/199999979999998", "one_over_N_squared", "csv"):
        "23d4ee478b8e7b31bf1e383c797f6196051384181f99921f87b26b0bb9c84c14",
    ("(19999999-1*sqrt(5))/199999979999998", "one_over_N_squared", "json"):
        "df7937d0fd65df86e5a8ec124685e7f6f695a72d319b41813e3ab775dc6d5529",
}


FIGURE_EXPONENT_N = 300


@pytest.mark.parametrize("key", sorted(FIGURE_EXPONENT_SHA256))
def test_figure_exponent_rows_pinned(capsys, key):
    alpha, normalizer, fmt = key
    code, out, _ = run(figure_argv(alpha, FIGURE_EXPONENT_N, normalizer, fmt),
                       capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        FIGURE_EXPONENT_SHA256[key]


# sha256 of `figure --n-max 20000` on stdout by (alpha, normalizer,
# format), recorded while every anchor was its own mpf_cos_sin_pi: 313
# anchors, where the pins above reach 5
FIGURE_ANCHORS_N = 20000
FIGURE_ANCHORS_SHA256 = {
    ("sqrt2m1", "none", "csv"):
        "49ee15634a5faac9eea20c73de78fe8e57aaa5cbc4c4f859af8851bdd5f49ee0",
    ("sqrt2m1", "one_over_N", "csv"):
        "f2cc45bc325ea8fadec35b652aaf410abf0b2c44b65da92c5abc62958814a8b7",
    ("sqrt2m1", "one_over_N_squared", "csv"):
        "f20276cecb400387d5b8c693a96195072271de7fa3713475396614abcc5c2397",
    ("sqrt2m1", "one_over_N", "json"):
        "1c6c86ed3e428394f8c7b7e15ee6fd9fdd3fa8c5a5f07dd8454f24dfb18803cb",
    (FIGURE_ALPHA, "none", "csv"):
        "a5a1b3a0547a069208ec48a3ad4308a3e6e7f4708bcfc307f8993015334536d9",
    (FIGURE_ALPHA, "one_over_N", "csv"):
        "5e278018de92617877b31caaf00db33a0195faaad822a377cc1cd62f78bb55df",
    (FIGURE_ALPHA, "one_over_N_squared", "csv"):
        "20633c7a7ce3320f302c86e47bf3515eb11dede46f4a78d54c4c19c2a6bc1144",
    (FIGURE_ALPHA, "one_over_N", "json"):
        "66361af7f3865adab3223e5b48c759abac466e37fa7483e9e34cc12a25f6a5c9",
}


@pytest.mark.parametrize("key", sorted(FIGURE_ANCHORS_SHA256))
def test_figure_many_anchors_pinned(capsys, key):
    alpha, normalizer, fmt = key
    code, out, _ = run(figure_argv(alpha, FIGURE_ANCHORS_N, normalizer, fmt),
                       capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == \
        FIGURE_ANCHORS_SHA256[key]


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

PIN_N = "20000"
PIN_ALPHAS = {
    "golden": "golden",
    "sqrt2m1": "sqrt2m1",
    # one partial quotient of 1000
    "cf-1000": str(surd_from_cf([3, 1000, 7], [1, 2])),
    # ||3 alpha|| < 2^-64: the kernel's exact fallback
    "cf-2^64": str(surd_from_cf([1, 2, 2 ** 64 + 5], [1, 2])),
}
PIN_COMMANDS = {
    "ostrowski": ["verify", "ostrowski", "--n-max", PIN_N],
    "cesaro": ["verify", "cesaro", "--n-max", PIN_N],
    "type-growth": ["verify", "type-growth", "--n-max", PIN_N],
    "conjectures": ["verify", "conjectures", "--n-max", PIN_N],
    "kronecker-sandwich": ["verify", "kronecker-sandwich", "--q-max", PIN_N],
    "hlawka": ["verify", "hlawka", "--gen", "kronecker", "--n-max", PIN_N],
    # three blocks of the Kronecker bracket, the last one 8929 N
    "hlawka 140001": ["verify", "hlawka", "--gen", "kronecker", "--n-max",
                      "140001"],
    "mc rademacher": ["mc", "rademacher", "--paths", "2", "--n-max", PIN_N],
    "mc subsequence": ["mc", "subsequence", "--paths", "2", "--terms", PIN_N],
    "mc iid": ["mc", "iid", "--paths", "2", "--n-max", PIN_N],
    # 140001 terms: three SUM_CHUNK blocks, the last one 8929 terms
    "mc rademacher 140001": ["mc", "rademacher", "--paths", "2", "--n-max",
                             "140001"],
    # path 1 of seed 1 (sqrt2m1) peaks at N = 94334, past the first block
    "mc rademacher 140001 seed 1": ["mc", "rademacher", "--paths", "2",
                                    "--n-max", "140001", "--seed", "1"],
    "mc iid 140001": ["mc", "iid", "--paths", "2", "--n-max", "140001"],
    # 69256 coin flips a path
    "mc subsequence 30000": ["mc", "subsequence", "--paths", "2", "--terms",
                             "30000"],
    # three SUM_CHUNK blocks of K, the last one 8929 terms; every path
    # peaks before K = 30000, so each CSV is a shorter pin's too
    "mc subsequence 140001": ["mc", "subsequence", "--paths", "2",
                              "--terms", "140001"],
    # path 0 of seed 5 (sqrt2m1) peaks at K = 139399, in the third block
    "mc subsequence 140001 seed 5": ["mc", "subsequence", "--paths", "2",
                                     "--terms", "140001", "--seed", "5"],
    "hlawka vdc": ["verify", "hlawka", "--gen", "vdc", "--n-max", PIN_N],
    # 33024 rows: the CLI's sweep blocks of at most 2^12 rows end inside it
    "extremal csv": ["verify", "extremal", "--n-max", "1030", "--epsilon",
                     "0.1", "--format", "csv"],
    # 2^18 - 1 points in four SUM_CHUNK blocks
    "vdc-limits": ["verify", "vdc-limits", "--s-max", "17"],
    # four blocks, the last one cut
    "hlawka grid": ["verify", "hlawka", "--gen", "grid", "--N", "200001"],
    # one compared row
    "extremal single": ["verify", "extremal", "--N", "1024", "--d", "0.0625"],
    # M = 307.2 is no integer, so nothing is compared
    "extremal unchecked": ["verify", "extremal", "--N", "1024", "--d", "0.3"],
}
# sha256 of each verify report on stdout, and of each mc run's CSV and
# JSON, by (alpha, command), recorded with the 4-limb fixed-point kernel
# and the division form of the Ostrowski digit sums: a change to any byte
# must be deliberate
OUTPUT_SHA256 = {
    ('golden', 'ostrowski'): [
        "9c3a4735371ca48a08fde8fd81ed50d2463935aa9ba257defe504507d3f2ebff",
    ],
    ('golden', 'cesaro'): [
        "a17d870735e2c848bd37685cb511defb12b7510327433c642c35228cc93f8417",
    ],
    ('golden', 'type-growth'): [
        "cc4b7da9bd075be873992d247fb947557c88bc7f020e394a5b226f21c66a937b",
    ],
    ('golden', 'conjectures'): [
        "f256d103ebbf9c9331d8fef4a1931981adda752734538eaea6d8cc95cdf63377",
    ],
    ('golden', 'kronecker-sandwich'): [
        "00dc86ccaddb1a691535461d9fa0a2e74499c57946825f9937505b70d287c10e",
    ],
    ('golden', 'hlawka'): [
        "25a6673c6d10eef0155a3c917592d2a8503b4b4b1a766f1dfb3040e5448f4967",
    ],
    ('golden', 'hlawka 140001'): [
        "ab06239461c81c883674558b8b6188cd8ceb71e4819c575fa817eee11ca0e7c7",
    ],
    ('golden', 'mc rademacher'): [
        "5dde16037030f2a70d669605a0aabe2a02afef27b8afd2e29c2f455c3e6e7c3e",
        "ee11522c1287c90bbe5b6d94655e2127feb100f83ea88e4e11cb9ee139d5fad6",
    ],
    ('golden', 'mc subsequence'): [
        "5d67041ec350d8d2660d4ad56adbed7c3b30c76f7d741c7a38c0eeb61d3d305f",
        "00b3657473e8c719c38d3b4ee5d8ac0f7ada286daea134a3ae351ca0b7da41a4",
    ],
    ('cf-1000', 'ostrowski'): [
        "739ef7e20154ae60908363369cb8c9cc13cc9182b85293b2f5da2cfa000f6460",
    ],
    ('cf-1000', 'cesaro'): [
        "33abdd5077153c114906ce9df8c8a81b8e3ad51f5a25a28b668bb4993c099a12",
    ],
    ('cf-1000', 'type-growth'): [
        "dee141c25ff378c51f220a4622b4d0b95045ef8d7d71d15fb0d953ae77d9e2e6",
    ],
    ('cf-1000', 'conjectures'): [
        "6aa027fa31f4d15f3fdeedf1dc050b836a0071ca92cd582a627fe31bc61eb84d",
    ],
    ('cf-1000', 'kronecker-sandwich'): [
        "c41be218c7fbb87d43b6bbc5636ab49370ca96a27a4bb406434ed0402e5ae5d4",
    ],
    ('cf-1000', 'hlawka'): [
        "768d084a77bb4a70fa320b7ffa56338b41f03e2a070f870105366e1c225a69d3",
    ],
    ('cf-1000', 'hlawka 140001'): [
        "0fbf02203f0eb984a0d91b17b51ba1bd376d17ad774449aa38c6e16f0f89d412",
    ],
    ('cf-1000', 'mc rademacher'): [
        "767a5fcb1405b5b21af12127a4685c7af18991c6852ff7845d8a5948e6bdbec9",
        "4f852af07a73c030a5780cf7c30f799de808065016962e8419f56e92e1c35a98",
    ],
    ('cf-1000', 'mc subsequence'): [
        "935b7678f9851e44b7cf44d47f5f1cdb54643c07a5e064c73950382754d037f7",
        "5e83fcb0bbe1e9969748eb0b542c6d09fddbbebdc6819b1ff056e56c18453c08",
    ],
    ('cf-2^64', 'ostrowski'): [
        "cb3bb3b852d720eba868ad0d1945d4344aba007de9174d6d13735412b9bc6d40",
    ],
    ('cf-2^64', 'cesaro'): [
        "dad27abd6535ebd7ccf88580679555c41093da100583e9848b676c980524ebd1",
    ],
    ('cf-2^64', 'type-growth'): [
        "dbb1d21d3a45463de66312e8a6b7eaca1519d93f6c5de8bc83c8c33bcc2c09f1",
    ],
    ('cf-2^64', 'conjectures'): [
        "1f19220e519a57c3f8b92e5564976868754dbd6c624fcc1eea16fa3e6f1a2c05",
    ],
    ('cf-2^64', 'kronecker-sandwich'): [
        "9bfb342dc97c5156d2addce50b0c8d4aefb43e42b34788816a226233a06ac295",
    ],
    ('cf-2^64', 'hlawka'): [
        "f8827baf4a33ed75ec6fffcb77605f28e40b6b1665ce8f1bab639536ac584312",
    ],
    ('cf-2^64', 'hlawka 140001'): [
        "17c39e9f90db88ecf04ef18675c92efd563100ba6e2561d8af5fb9232e2f0d80",
    ],
    ('cf-2^64', 'mc rademacher'): [
        "1405fb25433520379fda8de4019af73ea0e885b0ddcd6bce9f8737a8ecb7869f",
        "c3e9cfaeb49b4147016a3c3967eb72e225be7577ff8cc68d95463768020ac01f",
    ],
    ('cf-2^64', 'mc subsequence'): [
        "dc0542447fca2196dafbb042eb6be7b3bad858a2640d9d596b79cd45ba9dd0ad",
        "287b15c7a451e1839aad62216c131b115748a87611165f4060253a2a4c092997",
    ],
    ('cf-2^64', 'mc rademacher 140001'): [
        "e3031984876b673eac45784676d37d348d4797f83ccc2d787e7b0bcc4de80e47",
        "0762ac1d0ef15374f41e14dd9d32b0cf22274ab8a17ebd8ee99d79bc7bc8bdf0",
    ],
    ('cf-2^64', 'mc subsequence 30000'): [
        "dc0542447fca2196dafbb042eb6be7b3bad858a2640d9d596b79cd45ba9dd0ad",
        "ec0a40c2fb8e92e5afe0d2b2b5733f99a10b67d3e49b2af6d2997f8b9c17d5b7",
    ],
    ('sqrt2m1', 'hlawka 140001'): [
        "45ca8047c3fe833f27d25e79a2a5579345ff8ee90f24b4fe1dff64002ad5c81a",
    ],
    ('sqrt2m1', 'mc rademacher 140001'): [
        "1103155a714a0b0020e1e7ea7836ee9eb58ec305bc0b69290330df5270db6e60",
        "d1ec8f49d7131799f5be3e6467c38a2a801492a99f051dce0a7ecf7659d2b9c6",
    ],
    ('sqrt2m1', 'mc rademacher 140001 seed 1'): [
        "f9b32a4aa5cb8726736455e9874b7d15dd44cb0df6382cbe5533fc5c91d8be6e",
        "c08d5e61b0c32f98932591665b1fbf259a23b282dd82d08ab0e6e32ff37fca09",
    ],
    ('sqrt2m1', 'mc subsequence 30000'): [
        "bed39573caf77ad52796a11c2f8aecb1689c8fa2b2533fde7e76716a3eaf3eed",
        "e4a118088aca4645fd1fe2892c1a8d33d0b054a86ee28609e0da4546af742914",
    ],
    ('cf-1000', 'mc subsequence 140001'): [
        "935b7678f9851e44b7cf44d47f5f1cdb54643c07a5e064c73950382754d037f7",
        "ed081995792868893eda698abcdd84adf17d1eb8d8db79eef815945fe54bc5d8",
    ],
    ('cf-2^64', 'mc subsequence 140001'): [
        "dc0542447fca2196dafbb042eb6be7b3bad858a2640d9d596b79cd45ba9dd0ad",
        "41e25b79c532c92a9c0f8aa22fdab900733e9b56d4b64b12831c0dd467bf7f2e",
    ],
    ('golden', 'mc subsequence 140001'): [
        "5d67041ec350d8d2660d4ad56adbed7c3b30c76f7d741c7a38c0eeb61d3d305f",
        "2448646465cd962b510d2064785af697d7daa43c19488f9fb54bbc7a62aa47da",
    ],
    ('sqrt2m1', 'mc subsequence 140001'): [
        "bed39573caf77ad52796a11c2f8aecb1689c8fa2b2533fde7e76716a3eaf3eed",
        "393d1e31e6abda376b858078616e31b3524cce4858c241f738d5a4edac2af059",
    ],
    ('sqrt2m1', 'mc subsequence 140001 seed 5'): [
        "a3bbb15cdbe54acbcc8fed2e06f90353906ab2d53def29fd7b4a3036319736f5",
        "63a6ed5760c5fb2c384b9bc77a5e9567e17192703c218fb4f53b6c6ddf7f7180",
    ],
}


# the same for the commands that read no alpha, by command
ALPHA_FREE_SHA256 = {
    "mc iid": [
        "9a45baf2218cef9a02c8be4f2180b8309c89fe6f4f352b12b77c6b0932aa4a20",
        "433c341345e6e0d13c77580270dcfd865141f5c45591a7af355393c2d5d9534d",
    ],
    "mc iid 140001": [
        "b4b5005c375451be0db977c4de2b60f818943b5fca7dccaa171a9d9bac0c75b3",
        "e33f77cec32f14223b668901263dbe3d0294f0a4b72999ed49e14b17ef349bcb",
    ],
    "hlawka vdc": [
        "6f83802fd678b41a9c0e969bb275c34943de2ecbf2160f91b65d22c7c51002f5",
    ],
    "extremal csv": [
        "124c8d15783a2ecc14f91cad89867af3c76c8206cb8c4a1d70c9bf60bed4dae0",
        "e29ae5425a7ec2f01bb01b519aeddb047074a21fc99d9f92f377590561b4c726",
    ],
    "vdc-limits": [
        "bb234505d44a33184affd14156f799446be5c5a710095c4baf087e7de9052064",
    ],
    "hlawka grid": [
        "5c851aa6eaf208a3f9d6392cfea1e222e6f3fdaa4a64ff46d5c262579f1ce12e",
    ],
    "extremal single": [
        "e689aeb40d4b492e810ef3dcba463a4cc45455e7e62210968001100ceb6c60c6",
    ],
    "extremal unchecked": [
        "56922362198e727b9196119febaf41fc2ea3d5247efcfbfd686079fd611d5ff0",
    ],
}


def pin_argv(alpha, command, tmp_path):
    """The command line that OUTPUT_SHA256 pins for one (alpha, command),
    and ALPHA_FREE_SHA256 for one command when alpha is None, with an mc
    run's file prefix or the sweep's CSV file in `tmp_path`."""
    argv = PIN_COMMANDS[command]
    if alpha is not None:
        argv = argv + ["--alpha", PIN_ALPHAS[alpha]]
    if argv[0] == "mc":
        return argv + ["--out", str(tmp_path / "pin")]
    return argv + ["--out", str(tmp_path / "pin.csv")] if "csv" in argv \
        else argv


def pinned_outputs(tmp_path, capsys, alpha, command):
    """The bytes that `pin_argv`'s command line writes: an mc run's CSV and
    JSON, the sweep's CSV file and its report on stdout, or a verify report
    on stdout."""
    argv = pin_argv(alpha, command, tmp_path)
    code, out, _ = run(argv, capsys)
    if argv[0] == "mc":
        assert code == 0
        return [(tmp_path / f"pin.{ext}").read_bytes()
                for ext in ("csv", "json")]
    assert code in (0, 1)
    if "csv" in argv:
        return [(tmp_path / "pin.csv").read_bytes(), out.encode()]
    return [out.encode()]


@pytest.mark.parametrize("key", sorted(OUTPUT_SHA256), ids="/".join)
def test_verify_and_mc_outputs_pinned(tmp_path, capsys, key):
    got = [hashlib.sha256(b).hexdigest()
           for b in pinned_outputs(tmp_path, capsys, *key)]
    assert got == OUTPUT_SHA256[key]


@pytest.mark.parametrize("command", sorted(ALPHA_FREE_SHA256))
def test_alpha_free_outputs_pinned(tmp_path, capsys, command):
    got = [hashlib.sha256(b).hexdigest()
           for b in pinned_outputs(tmp_path, capsys, None, command)]
    assert got == ALPHA_FREE_SHA256[command]


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
COMMAND_NAMES = [["figure"]] + [[group, name] for group in ("verify", "mc")
                                for name in cli.COMMANDS[group]]


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
    guard = [[a.replace("{tmp}", str(tmp_path)) for a in argv]
             for argv, code in zip(RUNS, CODES)
             if code == 0 and "-h" not in argv]
    assert len(guard) == len(RUNS) - 3
    lines = [*guard, *(figure_pin_argv(*key) for key in FIGURE_SHA256),
             *(figure_argv(alpha, FIGURE_EXPONENT_N, normalizer, fmt)
               for alpha, normalizer, fmt in FIGURE_EXPONENT_SHA256),
             *(figure_argv(alpha, FIGURE_ANCHORS_N, normalizer, fmt)
               for alpha, normalizer, fmt in FIGURE_ANCHORS_SHA256),
             *(pin_argv(*key, tmp_path) for key in OUTPUT_SHA256),
             *(pin_argv(None, command, tmp_path)
               for command in ALPHA_FREE_SHA256)]
    for argv in lines:
        assert read(argv) is not None and read(argv) == parsed(argv), argv
    for case in CLI_TEXT["cases"]:
        argparse_text = "-h" in case["argv"] or \
            case["stderr"].startswith("usage:")
        assert (read(case["argv"]) is None) == argparse_text, case["argv"]


# one plain line of figure, of each verify theorem and of each mc model, at
# a small size, by the command's last name
SMALL = {"figure": ["--n-max", "2"],
         "hlawka": ["--n-max", "100"],
         "extremal": ["--n-max", "16"],
         "kronecker-sandwich": ["--q-max", "100"],
         "ostrowski": ["--n-max", "100"],
         "cesaro": ["--n-max", "100"],
         "type-growth": ["--n-max", "100", "--t", "2"],
         "vdc-limits": ["--s-max", "4"],
         "conjectures": ["--n-max", "100"],
         "iid": ["--paths", "2", "--n-max", "1000"],
         "rademacher": ["--paths", "2", "--n-max", "200"],
         "subsequence": ["--paths", "2", "--terms", "200"]}


@pytest.mark.parametrize("names", COMMAND_NAMES, ids=" ".join)
def test_a_plain_line_builds_no_parser(names, tmp_path, monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
    argv = [*names, *SMALL[names[-1]], "--out", str(tmp_path / "out")]
    assert exit_code(argv) == 0
    assert built == []
    # the count sees the parsers that -h builds
    assert exit_code([*names, "-h"]) == 0 and built


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
