import hashlib
import json
import math
import os
import subprocess
import sys
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from oracles import mpf_trace
from weylprod import cli
from weylprod import stochastic as st
from weylprod.atomicio import atomic_open
from weylprod.cli import main
from weylprod.extremal import ExtremalConfig, extremal_product_closed_form
from weylprod.irrational import FracPartEvaluator, parse_alpha
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
    code, _, _ = run([*flags, "figure", "--alpha", FIGURE_ALPHA, "--n-max",
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
def test_figure_rows_within_reported_bound(tmp_path, capsys, monkeypatch,
                                           figure_oracle, normalizer, fmt):
    monkeypatch.delenv("WEYL_PRECISION_BITS", raising=False)
    meta, rows = run_figure(tmp_path, capsys, normalizer, fmt)
    assert meta["normalizer"] == normalizer
    assert int(meta["precision_bits"]) == 112
    bound = assert_rows_within_bound(meta, rows, figure_oracle)
    assert 0 < bound < 1e-28


def test_figure_precision_bits_160_tightens_bound(tmp_path, capsys,
                                                  monkeypatch, figure_oracle):
    monkeypatch.delenv("WEYL_PRECISION_BITS", raising=False)
    meta112, _ = run_figure(tmp_path, capsys, "one_over_N", "csv")
    meta, rows = run_figure(tmp_path, capsys, "one_over_N", "json",
                            "--precision-bits", "160")
    assert meta["precision_bits"] == 160
    bound = assert_rows_within_bound(meta, rows, figure_oracle)
    assert bound < float(meta112["log_error_bound"]) * 2.0 ** -40


@pytest.mark.parametrize("precision_bits", [None, 1100])
@pytest.mark.parametrize("normalizer", NORMALIZERS)
def test_figure_values_are_to_str_of_rows(tmp_path, capsys, monkeypatch,
                                          normalizer, precision_bits):
    # the printed values are mpmath's own 40 digits of every row, byte for
    # byte, at the default precision and at 1100 bits
    monkeypatch.delenv("WEYL_PRECISION_BITS", raising=False)
    series = rotation_products(parse_alpha(FIGURE_ALPHA), FIGURE_N,
                               normalizer, precision_bits)
    libmp = mpmath.libmp
    want = {n: libmp.to_str(libmp.from_man_exp(*row), 40)
            for n, row in enumerate(series, 1)}
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


@pytest.mark.parametrize("key", sorted(FIGURE_SHA256, key=str))
def test_figure_output_pinned(capsys, monkeypatch, key):
    monkeypatch.delenv("WEYL_PRECISION_BITS", raising=False)
    precision_bits, normalizer, fmt = key
    flags = ([] if precision_bits is None
             else ["--precision-bits", str(precision_bits)])
    code, out, _ = run(flags + ["figure", "--alpha", FIGURE_ALPHA,
                                "--n-max", str(FIGURE_N), "--normalizer",
                                normalizer, "--format", fmt], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == FIGURE_SHA256[key]


@pytest.mark.parametrize("n_max", [1, 2, 7])
def test_figure_streamed_json_is_json_dumps(tmp_path, capsys, n_max):
    # the rows are written one at a time; the file is still exactly
    # json.dumps(payload, indent=2), and the CSV has one line per row
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


def test_figure_stream_write_failure_leaves_no_file(tmp_path, capsys,
                                                    monkeypatch):
    # the series raises after five rows, with the header and rows already
    # written: no partial file, no temporary file, and the I/O exit code
    real = cli.rotation_products

    def failing(*args):
        series = real(*args)

        class Failing:
            precision_bits = series.precision_bits
            log_error_bound = series.log_error_bound

            def __iter__(self):
                rows = iter(series)
                for _ in range(5):
                    yield next(rows)
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


@pytest.mark.parametrize("args", [
    ["ostrowski", "--n-max", "100"],
    ["extremal", "--n-max", "64"],
    ["extremal", "--N", "10", "--d", "0.3", "--out", "{tmp}/rep.csv"]])
def test_verify_format_csv_without_sweep_file_usage_error(tmp_path, capsys,
                                                          args):
    # only the extremal sweep writes CSV, and only to a file: elsewhere
    # --format csv is refused, not answered with JSON
    args = [a.format(tmp=tmp_path) for a in args]
    code, stdout, err = run(["verify", *args, "--format", "csv"], capsys)
    assert code == 2
    assert "--format" in err and stdout == ""
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


def test_verify_extremal_single_bad_d_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "extremal", "--N", "10", "--d", "0.3x"])
    assert exc.value.code == 2


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
    (["type-growth", "--n-max", "50", "--t", "nan"], "t must exceed 1"),
    (["hlawka", "--epsilon", "nan"], "--epsilon"),
    (["extremal", "--epsilon", "nan"], "--epsilon"),
])
def test_verify_size_below_one_names_flag(capsys, args, flag):
    # rejected as usage errors, not run at a default size or crashed
    code, stdout, err = run(["verify", *args], capsys)
    assert code == 2
    assert flag in err and "Traceback" not in err
    assert stdout == ""


def test_verify_unknown_theorem_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["verify", "definitely-not-a-theorem"])
    assert exc.value.code == 2


# ---------------------------------------------------------------------- mc

def test_mc_paths_zero_usage_error(capsys):
    code, _, err = run(["mc", "iid", "--paths", "0"], capsys)
    assert code == 2
    assert "paths" in err


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
        with atomic_open(out) as fh:
            fh.write("partial")
            raise OSError("write failed")
    assert out.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["rep.json"]
    with atomic_open(out) as fh:
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
    with atomic_open(link) as fh:
        fh.write("new\n")
    assert link.is_symlink() and target.read_text() == "new\n"
    assert sorted(p.name for p in (tmp_path / "sub").iterdir()) == ["rep.json"]
    # a device is written in place, not replaced by a regular file
    with atomic_open(os.devnull) as fh:
        fh.write("discarded\n")
    assert not os.path.isfile(os.devnull)


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


def test_mc_csv_summary_round_trip(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    run(["mc", "iid", "--paths", "5", "--n-max", "1500", "--seed", "1",
         "--out", "rt"], capsys)
    rows = (tmp_path / "rt.csv").read_text().strip().splitlines()[1:]
    ratios = np.array([float(r.split(",")[4]) for r in rows])
    summary = json.loads((tmp_path / "rt.json").read_text())
    assert summary["ratio_mean"] == float(np.mean(ratios))


# ------------------------------------------------------------------- flags

def test_bad_alpha_exit_2(capsys):
    code, _, err = run(["figure", "--alpha", "notathing"], capsys)
    assert code == 2 and "alpha" in err


def test_precision_env_override(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("WEYL_PRECISION_BITS", "160")
    out = tmp_path / "p.csv"
    code, _, _ = run(["figure", "--n-max", "2", "--out", str(out)], capsys)
    assert code == 0
    monkeypatch.setenv("WEYL_PRECISION_BITS", "nope")
    code, _, err = run(["figure", "--n-max", "2"], capsys)
    assert code == 2


def test_precision_bits_zero_is_usage_error(capsys, monkeypatch):
    # 0 is a value, not "unset": it must not fall through to the default
    monkeypatch.delenv("WEYL_PRECISION_BITS", raising=False)
    code, _, err = run(["--precision-bits", "0", "figure", "--n-max", "2"],
                       capsys)
    assert code == 2 and "must be >= 68" in err


def test_precision_bits_goes_before_the_subcommand(capsys):
    # a global option: after `figure` it is a usage error, and figure's
    # help shows where it goes
    with pytest.raises(SystemExit) as exc:
        main(["figure", "--precision-bits", "160", "--n-max", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --precision-bits" in \
        capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["figure", "-h"])
    assert exc.value.code == 0
    assert "weylprod --precision-bits 160 figure" in \
        " ".join(capsys.readouterr().out.split())


def test_unwritable_out_exit_3(tmp_path, capsys):
    out = tmp_path / "missing" / "rep.json"
    code, _, err = run(["verify", "ostrowski", "--n-max", "100",
                        "--out", str(out)], capsys)
    assert code == 3 and "error" in err
    code, _, _ = run(["mc", "iid", "--paths", "2", "--n-max", "1000",
                      "--out", str(tmp_path / "missing" / "mc")], capsys)
    assert code == 3


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
