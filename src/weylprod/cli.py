"""Command-line workbench tying generators, checkers and experiments together.

Exit codes: 0 = pass, 1 = a checked bound was violated, 2 = usage error,
3 = an input/output error (an output file could not be written).
Every command is deterministic given its full flag set (seed and precision
included). `figure` takes its sines from w^n, w = e^(i pi A 2^-P) with
A = floor(alpha 2^P), rotated in fixed-point integers and re-anchored from
exact residues, multiplies them into an integer running product and
streams the rows to its output; the output names that path ("kernel":
"fixed-point-rotation"), the precision and the derived bound on the log of
every row. --precision-bits or WEYL_PRECISION_BITS sets its working
precision. `verify` and `mc` use the 128-bit fixed-point kernel with
float64 logs and a derived error bound.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from fractions import Fraction

import mpmath

from . import bounds as bnd
from . import stochastic as st
from .atomicio import atomic_open
from .extremal import (ExtremalConfig, extremal_product_closed_form,
                       sup_product_lower_bound, sup_product_upper_bound,
                       sweep, write_sweep_csv)
from .irrational import IrrationalSpec, parse_alpha
from .products import KERNEL, NORMALIZERS, rotation_products

THEOREM_TAGS = ("hlawka", "extremal", "kronecker-sandwich", "ostrowski",
                "cesaro", "type-growth", "vdc-limits", "conjectures")
MC_MODELS = ("iid", "rademacher", "subsequence")


class UsageError(Exception):
    pass


@dataclass
class RunConfig:
    """Validated flag set for one dispatch."""

    command: str
    alpha: IrrationalSpec | None = None
    n_max: int | None = None
    n_min: int = 16
    N: int | None = None
    d: Fraction | None = None
    seed: int = 0
    epsilon: float = 0.1
    out: str | None = None
    fmt: str = "csv"
    normalizer: str = "none"
    precision_bits: int | None = None
    extras: dict = field(default_factory=dict)


def _default_precision() -> int | None:
    env = os.environ.get("WEYL_PRECISION_BITS")
    if env is None:
        return None
    try:
        return int(env)
    except ValueError:
        raise UsageError(f"WEYL_PRECISION_BITS={env!r} is not an integer")


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="weylprod",
        description="Sine-product workbench: figures, bound verification and "
                    "Monte Carlo experiments over [0,1] point sequences.")
    p.add_argument("--precision-bits", type=int, default=None,
                   help="bits figure's rows are rounded to; its running "
                        "product carries 8 more (default from "
                        "WEYL_PRECISION_BITS or the 2^24 budget; verify "
                        "and mc use the fixed-point kernel)")

    sub = p.add_subparsers(dest="command", required=True)

    fig = sub.add_parser(
        "figure", help="emit the N,value product series",
        description="Emit prod_{n<=N} |2 sin(pi n alpha)| (optionally "
                    "normalized) as an N,value series. Note {n sqrt(2)} = "
                    "{n (sqrt(2)-1)}, so --alpha sqrt2m1 reproduces series "
                    "quoted for alpha = sqrt(2).")
    fig.add_argument("--alpha", default="sqrt2m1")
    fig.add_argument("--n-max", "--N-max", dest="n_max", type=int, default=500)
    fig.add_argument("--normalizer", choices=NORMALIZERS, default="none")
    fig.add_argument("--out", default="-")
    fig.add_argument("--format", dest="fmt", choices=("csv", "json"),
                     default="csv")

    ver = sub.add_parser("verify", help="run a bound checker")
    ver.add_argument("theorem", choices=THEOREM_TAGS)
    ver.add_argument("--alpha", default="sqrt2m1")
    ver.add_argument("--gen", choices=("grid", "vdc", "kronecker"),
                     default="kronecker")
    ver.add_argument("--N", type=int, default=None,
                     help="single N (grid generator)")
    ver.add_argument("--n-max", "--N-max", dest="n_max", type=int, default=None)
    ver.add_argument("--n-min", type=int, default=16)
    ver.add_argument("--q-max", type=int, default=10 ** 5)
    ver.add_argument("--s-max", type=int, default=18)
    ver.add_argument("--t", type=float, default=1.5)
    ver.add_argument("--d", type=Fraction, default=None,
                     help="discrepancy of a single extremal check, read "
                          "exactly from its decimal string")
    ver.add_argument("--epsilon", type=float, default=0.1)
    ver.add_argument("--out", default="-")
    ver.add_argument("--format", dest="fmt", choices=("json", "csv"),
                     default="json")

    mc = sub.add_parser("mc", help="run a Monte Carlo experiment")
    mc.add_argument("model", choices=MC_MODELS)
    mc.add_argument("--alpha", default="sqrt2m1")
    mc.add_argument("--paths", type=int, default=50)
    mc.add_argument("--n-max", "--N-max", dest="n_max", type=int,
                    default=10 ** 5)
    mc.add_argument("--terms", type=int, default=None,
                    help="selected terms for the subsequence model "
                         "(default n-max // 2)")
    mc.add_argument("--seed", type=int, default=0)
    mc.add_argument("--out", default=None,
                    help="output prefix (default mc_<model>)")
    return p


def _emit(parts, out: str | None) -> None:
    """Write the strings of the iterable `parts` in order to stdout, or
    atomically to the file `out`: if producing a part raises, no file is
    left behind."""
    if out in (None, "-"):
        for part in parts:
            sys.stdout.write(part)
    else:
        with atomic_open(out) as fh:
            for part in parts:
                fh.write(part)


_JSON_ROW = '\n    {{\n      "N": {},\n      "value": "{}"\n    }}'


def _figure_parts(head: str, rows, line: str, sep: str, tail: str):
    """head, then `line.format(n, value)` for every row with `sep` between
    rows, then tail: one string per row, which the output's buffer gathers
    into its writes, so nothing of size N is held."""
    yield head
    to_str = mpmath.libmp.to_str
    lead = ""
    for n, row in enumerate(rows, 1):
        yield lead + line.format(n, to_str(row, 40))
        lead = sep
    yield tail


def cmd_figure(cfg: RunConfig) -> int:
    if cfg.n_max < 1:
        raise UsageError("--n-max must be >= 1")
    series = rotation_products(cfg.alpha, cfg.n_max, cfg.normalizer,
                               cfg.precision_bits)
    meta = {"alpha": str(cfg.alpha), "normalizer": cfg.normalizer,
            "kernel": KERNEL,
            "precision_bits": series.precision_bits,
            "log_error_bound": series.log_error_bound}
    if cfg.fmt == "json":
        # json.dumps(meta + series, indent=2), written a row at a time
        head, tail = json.dumps({**meta, "series": []}, indent=2).rsplit(
            "[]", 1)
        parts = _figure_parts(head + "[", series, _JSON_ROW, ",",
                              "\n  ]" + tail + "\n")
    else:
        head = " ".join(["#"] + [f"{key}={value}"
                                 for key, value in meta.items()])
        parts = _figure_parts(head + "\nN,value\n", series, "{},{}",
                              "\n", "\n")
    _emit(parts, cfg.out)
    return 0


def _verify_extremal_single(cfg: RunConfig) -> int:
    """Bounds at one (N, d) pair; the extremal product is evaluated, and
    compared with the lower bound, only when N is even and N*d an integer,
    exactly, with d read as the decimal it was given (the construction
    needs both). Otherwise nothing is compared, and the
    report says so with "passed": null and "n_checked": 0."""
    if cfg.N is None:
        raise UsageError("verify extremal --d needs --N")
    d = float(cfg.d)
    lo = sup_product_lower_bound(cfg.N, d)
    hi = sup_product_upper_bound(cfg.N, d, cfg.epsilon)
    report = bnd.BoundReport("extremal",
                             {"N": cfg.N, "d": d, "epsilon": cfg.epsilon},
                             (cfg.N, cfg.N), passed=None)
    report.empirical_constants = {"logLower": lo, "logUpper": hi}
    M = cfg.d * cfg.N
    n_checked = 0
    if cfg.N % 2 == 0 and M.denominator == 1 and M >= 1:
        lp = extremal_product_closed_form(ExtremalConfig(cfg.N, int(M)))
        report.empirical_constants["logP"] = lp
        if lo > lp + 1e-9:
            report.violations.append((cfg.N, lo, lp))
        report.passed = not report.violations
        n_checked = 1
    payload = report.to_dict()
    payload["n_checked"] = n_checked
    _emit([json.dumps(payload, indent=2) + "\n"], cfg.out)
    return 1 if report.passed is False else 0


def _verify_hlawka(cfg: RunConfig) -> bnd.BoundReport:
    if cfg.extras["gen"] == "grid":
        if cfg.N is None:
            raise UsageError("verify hlawka --gen grid needs --N")
        if cfg.N < 1:
            raise UsageError("--N must be >= 1")
        return bnd.grid_hlawka_report(cfg.N)
    n_max = cfg.n_max or 10 ** 4
    if n_max < cfg.n_min:
        raise UsageError("--n-max must be >= --n-min")
    return bnd.hlawka_sequence_report(cfg.extras["gen"], n_max,
                                      N_min=cfg.n_min, alpha=cfg.alpha)


def cmd_verify(cfg: RunConfig) -> int:
    tag = cfg.extras["theorem"]
    if tag == "hlawka":
        report = _verify_hlawka(cfg)
    elif tag == "extremal":
        if cfg.d is not None:
            return _verify_extremal_single(cfg)
        n_max = cfg.n_max or 1024
        if n_max < 8:
            raise UsageError("--n-max must be >= 8")
        rows = sweep(range(8, n_max + 1, 2), lambda N: max(1, N // 8),
                     cfg.epsilon)
        report = bnd.BoundReport(
            "extremal", {"N_max": n_max, "epsilon": cfg.epsilon}, (8, n_max))
        lower_fail = [(N, lo, lp) for N, M, d, lp, lo, hi, hl, hu in rows
                      if not hl]
        upper_fail = [(N, lp, hi) for N, M, d, lp, lo, hi, hl, hu in rows
                      if not hu]
        # the bounds are asymptotic: report the empirical thresholds and
        # only count failures above them as violations
        lower_threshold = max((N for N, *_ in lower_fail), default=0)
        upper_threshold = max((N for N, *_ in upper_fail), default=0)
        report.violations = [v for v in lower_fail if v[0] >= 64]
        report.passed = not report.violations
        report.empirical_constants = {
            "lower_holds_from_N": lower_threshold + 2,
            "upper_holds_from_N": upper_threshold + 2,
        }
        if cfg.fmt == "csv" and cfg.out not in (None, "-"):
            write_sweep_csv(rows, cfg.out)
            print(json.dumps(report.to_dict(), indent=2))
            return 0 if report.passed else 1
    elif tag == "kronecker-sandwich":
        report = bnd.check_kronecker_sandwich(cfg.alpha, q_max=cfg.extras["q_max"])
    elif tag == "ostrowski":
        report = bnd.check_ostrowski_bound(cfg.alpha, cfg.n_max or 10 ** 4)
    elif tag == "cesaro":
        report = bnd.check_cesaro_log_bound(cfg.alpha, cfg.n_max or 10 ** 4)
    elif tag == "type-growth":
        report = bnd.check_type_growth(cfg.alpha, cfg.n_max or 10 ** 4,
                                       cfg.extras["t"])
    elif tag == "vdc-limits":
        report = bnd.check_vdc_limits(cfg.extras["s_max"])
    elif tag == "conjectures":
        report = bnd.check_kronecker_conjectures(cfg.alpha, cfg.n_max or 500)
    else:  # pragma: no cover - argparse already rejects unknown tags
        raise UsageError(f"unknown theorem {tag!r}")
    _emit([json.dumps(report.to_dict(), indent=2) + "\n"], cfg.out)
    if tag == "conjectures":
        return 0
    return 0 if report.passed else 1


def cmd_mc(cfg: RunConfig) -> int:
    model = cfg.extras["model"]
    if cfg.extras["paths"] < 1:
        raise UsageError("--paths must be >= 1")
    if cfg.n_max is not None and cfg.n_max < 1:
        raise UsageError("--n-max must be >= 1")
    paths = cfg.extras["paths"]
    if model == "iid":
        if cfg.n_max < st.IID_MIN_N_MAX:
            raise UsageError(f"--n-max must be >= {st.IID_MIN_N_MAX} for iid")
        stats = st.iid_lil_experiment(paths, cfg.n_max, cfg.seed)
    elif model == "rademacher":
        if cfg.n_max < st.N_LO:
            raise UsageError(f"--n-max must be >= {st.N_LO} for rademacher: "
                             f"the ratio is taken over N >= {st.N_LO}")
        stats = st.rademacher_lil_experiment(cfg.alpha, paths, cfg.n_max,
                                             cfg.seed)
    else:
        terms = cfg.extras["terms"]
        if terms is None:
            terms = max(cfg.n_max // 2, 200)
        if terms < st.N_LO:
            raise UsageError(f"--terms must be >= {st.N_LO} for subsequence: "
                             f"the ratio is taken over K >= {st.N_LO}")
        stats = st.subsequence_product_experiment(cfg.alpha, paths, terms,
                                                  cfg.seed)
    prefix = cfg.out or f"mc_{model}"
    st.write_paths_csv(stats, prefix + ".csv")
    st.write_summary_json(stats, prefix + ".json")
    print(f"wrote {prefix}.csv and {prefix}.json")
    return 0


def _build_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig(command=args.command)
    cfg.precision_bits = (args.precision_bits
                          if args.precision_bits is not None
                          else _default_precision())
    if cfg.precision_bits is not None and cfg.precision_bits < 68:
        raise UsageError("--precision-bits must be >= 68")
    if getattr(args, "alpha", None) is not None:
        try:
            cfg.alpha = parse_alpha(args.alpha)
        except ValueError as exc:
            raise UsageError(str(exc))
    for name in ("n_max", "n_min", "N", "d", "seed", "epsilon", "out",
                 "fmt", "normalizer"):
        if hasattr(args, name) and getattr(args, name) is not None:
            setattr(cfg, name, getattr(args, name))
    for name in ("theorem", "gen", "q_max", "s_max", "t", "model", "paths",
                 "terms"):
        if hasattr(args, name):
            cfg.extras[name] = getattr(args, name)
    if cfg.epsilon <= 0:
        raise UsageError("--epsilon must be positive")
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _build_config(args)
        if args.command == "figure":
            return cmd_figure(cfg)
        if args.command == "verify":
            return cmd_verify(cfg)
        if args.command == "mc":
            return cmd_mc(cfg)
        raise UsageError(f"unknown command {args.command!r}")
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
