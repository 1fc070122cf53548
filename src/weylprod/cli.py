"""Command-line workbench tying generators, checkers and experiments together.

Exit codes: 0 = pass, 1 = a checked bound was violated, 2 = usage error,
3 = an input/output error (an output file could not be written; a reader
that closes stdout early is not one) or running out of memory.
Every command is deterministic given its full flag set (seed and precision
included). `figure` takes its sines from w^n, w = e^(i pi A 2^-P) with
A = floor(alpha 2^P), rotated in fixed-point integers and re-anchored from
exact residues, multiplies them into an integer running product, rounds
each row to 40 digits in integers in the loop that makes it
(`products.RotationProducts.segments`) and streams the rows to its output
a block of up to `products.TEXT_BLOCK` rows at a time (`text_blocks`,
byte for byte what `mpmath.libmp.to_str(row, 40)` prints for the row as
an mpf); the output names that path ("kernel": "fixed-point-rotation"),
the precision, which its --precision-bits sets, and the derived bound on
the log of every row. `verify` and `mc` use the 128-bit fixed-point kernel
with float64 logs and a derived error bound.
`figure`, each `verify` theorem and each `mc` model takes exactly the
options `COMMANDS` lists for it. A run builds only its own command's
parser (`_Command`), and `weylprod -h` builds none.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import shutil
import sys
from contextlib import nullcontext
from fractions import Fraction
from itertools import chain

from . import bounds as bnd
from . import stochastic as st
from .atomicio import atomic_open
from .extremal import (ExtremalConfig, Sweep, extremal_product_closed_form,
                       sup_product_lower_bound, sup_product_upper_bound,
                       sweep)
from .irrational import KERNEL_MAX_N, parse_alpha
from .products import KERNEL, NORMALIZERS, rotation_products, text_blocks

# Every command's options and their defaults, the one home of both:
# `figure`, each `verify` theorem and each `mc` model take exactly these
COMMANDS = {
    "figure": {"--alpha": "sqrt2m1", "--n-max": 500, "--normalizer": "none",
               "--precision-bits": None, "--out": "-", "--format": "csv"},
    "verify": {
        "hlawka": {"--alpha": "sqrt2m1", "--gen": "kronecker", "--N": None,
                   "--n-max": 10 ** 4, "--n-min": 16, "--out": "-"},
        "extremal": {"--N": None, "--n-max": 1024, "--d": None,
                     "--epsilon": 0.1, "--out": "-", "--format": "json"},
        "kronecker-sandwich": {"--alpha": "sqrt2m1", "--q-max": 10 ** 5,
                               "--out": "-"},
        "ostrowski": {"--alpha": "sqrt2m1", "--n-max": 10 ** 4, "--out": "-"},
        "cesaro": {"--alpha": "sqrt2m1", "--n-max": 10 ** 4, "--out": "-"},
        "type-growth": {"--alpha": "sqrt2m1", "--n-max": 10 ** 4, "--t": 1.5,
                        "--out": "-"},
        "vdc-limits": {"--s-max": 18, "--out": "-"},
        "conjectures": {"--alpha": "sqrt2m1", "--n-max": 500, "--out": "-"},
    },
    "mc": {
        "iid": {"--paths": 50, "--n-max": 10 ** 5, "--seed": 0,
                "--out": "mc_iid"},
        "rademacher": {"--alpha": "sqrt2m1", "--paths": 50,
                       "--n-max": 10 ** 5, "--seed": 0,
                       "--out": "mc_rademacher"},
        "subsequence": {"--alpha": "sqrt2m1", "--paths": 50,
                        "--terms": 50000, "--seed": 0,
                        "--out": "mc_subsequence"},
    },
}


class UsageError(Exception):
    pass


class _Command(argparse.ArgumentParser):
    """A subcommand's parser, built on first use: `add_parser`'s keyword
    arguments and the command's option builder are kept, and
    `ArgumentParser.__init__` and the builder run only when argparse first
    calls one of the three public methods it calls on a subparser:
    `parse_known_args` (the command was chosen), `format_usage` (a usage
    error) or `format_help` (its -h). A run uses one command, and building
    a subparser with its options costs more than parsing a command line."""

    def __init__(self, options, **kwargs):
        self._pending = options, kwargs

    def _build(self) -> None:
        pending = vars(self).pop("_pending", None)
        if pending is not None:
            options, kwargs = pending
            super().__init__(**kwargs)
            options(self)

    def parse_known_args(self, *args, **kwargs):
        self._build()
        return super().parse_known_args(*args, **kwargs)

    def format_usage(self):
        self._build()
        return super().format_usage()

    def format_help(self):
        self._build()
        return super().format_help()


def _add_options(parser: argparse.ArgumentParser, options: dict) -> None:
    """Add `options` (flag -> default, a `COMMANDS` entry) to a command's
    parser. An option takes its default's type unless `specs` gives one,
    and has the same choices and help under every command."""
    specs = {
        "--gen": {"choices": ("grid", "vdc", "kronecker")},
        "--N": {"type": int, "help": "a single N (hlawka --gen grid, or "
                                     "extremal with --d)"},
        "--d": {"type": Fraction, "help": "the discrepancy of a single "
                                          "check, read as an exact decimal"},
        "--normalizer": {"choices": NORMALIZERS},
        "--precision-bits": {
            "type": int, "help": "bits the rows are rounded to (default: "
                                 "the 2^24 budget's, or --n-max's above it)"},
        "--out": {"help": "output file, or mc's file prefix (default "
                          "%(default)s)"},
        "--format": {"choices": ("csv", "json")},
    }
    for flag, default in options.items():
        names = (flag, "--N-max") if flag == "--n-max" else (flag,)
        parser.add_argument(*names, default=default,
                            **{"type": type(default), **specs.get(flag, {})})


def _add_commands(parser: argparse.ArgumentParser, dest: str,
                  commands: dict) -> None:
    """A subcommand, built on first use, for each `commands` entry."""
    sub = parser.add_subparsers(dest=dest, required=True, prog=parser.prog,
                                parser_class=_Command)
    for name, options in commands.items():
        sub.add_parser(name, options=functools.partial(_add_options,
                                                       options=options),
                       formatter_class=parser.formatter_class,
                       allow_abbrev=False)


_figure_options = functools.partial(_add_options, options=COMMANDS["figure"])
_verify_options = functools.partial(_add_commands, dest="theorem",
                                    commands=COMMANDS["verify"])
_mc_options = functools.partial(_add_commands, dest="model",
                                commands=COMMANDS["mc"])


def build_parser() -> argparse.ArgumentParser:
    # HelpFormatter's own width, looked up once, not by every add_argument
    formatter = functools.partial(
        argparse.HelpFormatter, width=shutil.get_terminal_size().columns - 2)
    p = argparse.ArgumentParser(
        prog="weylprod", formatter_class=formatter,
        description="Sine-product workbench: figures, bound verification and "
                    "Monte Carlo experiments over [0,1] point sequences.")
    sub = p.add_subparsers(dest="command", required=True, prog=p.prog,
                           parser_class=_Command)
    sub.add_parser(
        "figure", options=_figure_options, formatter_class=formatter,
        allow_abbrev=False, help="emit the N,value product series",
        description="Emit prod_{n<=N} |2 sin(pi n alpha)| (optionally "
                    "normalized) as an N,value series. Note {n sqrt(2)} = "
                    "{n (sqrt(2)-1)}, so --alpha sqrt2m1 reproduces series "
                    "quoted for alpha = sqrt(2).")
    sub.add_parser("verify", options=_verify_options,
                   formatter_class=formatter, help="run a bound checker",
                   description="Run a bound checker: weylprod verify "
                               "THEOREM -h lists the theorem's options.")
    sub.add_parser("mc", options=_mc_options, formatter_class=formatter,
                   help="run a Monte Carlo experiment",
                   description="Run a Monte Carlo experiment: weylprod mc "
                               "MODEL -h lists the model's options.")
    return p


def _emit(parts, out: str | None) -> None:
    """Write the strings of the iterable `parts` in order to stdout, or
    atomically to the file `out`: if producing a part raises, no file is
    left behind. A reader that closes stdout early ends the output quietly:
    stdout then points at the null device, so that the interpreter's flush
    at exit does not fail again."""
    if out in (None, "-"):
        try:
            for part in parts:
                sys.stdout.write(part)
            sys.stdout.flush()
        except BrokenPipeError:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
    else:
        with atomic_open(out) as fh:
            for part in parts:
                fh.write(part)


def _orbit_n_max(args: argparse.Namespace, command: str) -> None:
    """Refuse, by name, an --n-max that is the length of a Kronecker orbit
    and lies past the fixed-point kernel's range."""
    if args.n_max > KERNEL_MAX_N:
        raise UsageError(f"--n-max must be <= {KERNEL_MAX_N} for {command}: "
                         f"the orbit must stay within the fixed-point "
                         f"kernel's range")


def cmd_figure(args: argparse.Namespace) -> int:
    if args.precision_bits is not None and args.precision_bits < 68:
        raise UsageError("--precision-bits must be >= 68")
    if args.n_max < 1:
        raise UsageError("--n-max must be >= 1")
    _orbit_n_max(args, "figure")
    series = rotation_products(args.alpha, args.n_max, args.normalizer,
                               args.precision_bits)
    meta = {"alpha": str(args.alpha), "normalizer": args.normalizer,
            "kernel": KERNEL,
            "precision_bits": series.precision_bits,
            "log_error_bound": series.log_error_bound}
    # frame: the text before N, between N and the value, after the value,
    # and between lines (`text_blocks`)
    if args.format == "json":
        # json.dumps(meta + series, indent=2), written a block at a time
        head, tail = json.dumps({**meta, "series": []}, indent=2).rsplit(
            "[]", 1)
        head, tail = head + "[", "\n  ]" + tail + "\n"
        frame = '\n    {\n      "N": ', ',\n      "value": "', '"\n    }', ","
    else:
        head = " ".join(["#"] + [f"{key}={value}"
                                 for key, value in meta.items()])
        head, tail = head + "\nN,value\n", "\n"
        frame = "", ",", "", "\n"
    _emit(chain([head], text_blocks(series.segments(), *frame), [tail]),
          args.out)
    return 0


def _verify_extremal_single(args: argparse.Namespace) -> bnd.BoundReport:
    """Bounds at one (N, d) pair; the extremal product is evaluated, and
    compared with the lower bound, only when N is even and M = N*d an
    integer in [1, N/2], exactly, with d read as the decimal it was given
    (the construction needs all three). Otherwise nothing is compared:
    "passed" stays None, and `cmd_verify` writes "n_checked": 0."""
    if args.N is None:
        raise UsageError("verify extremal --d needs --N")
    if args.N < 1:
        raise UsageError("--N must be >= 1")
    d = float(args.d)
    lo = sup_product_lower_bound(args.N, d)
    hi = sup_product_upper_bound(args.N, d, args.epsilon)
    report = bnd.BoundReport("extremal",
                             {"N": args.N, "d": d, "epsilon": args.epsilon},
                             (args.N, args.N), passed=None)
    report.empirical_constants = {"logLower": lo, "logUpper": hi}
    M = args.d * args.N
    if args.N % 2 == 0 and M.denominator == 1 and 1 <= M <= args.N // 2:
        lp = extremal_product_closed_form(ExtremalConfig(args.N, int(M)))
        report.empirical_constants["logP"] = lp
        bnd._report_rows(report, args.N, lo, lp, bnd.BASE_TOL)
    return report


# rows of one block of the extremal sweep; the blocks hold whole N, so an N
# with more rows than this makes a block alone
SWEEP_BLOCK_ROWS = 1 << 12


def _sweep_blocks(n_max: int, epsilon: float):
    """`sweep` over the even N = 8..n_max, M = 1..max(1, N // 8), in
    consecutive blocks of whole N of at most SWEEP_BLOCK_ROWS rows (one N
    alone past that), so that only one block is held at a time."""
    def M_limit(N):
        return max(1, N // 8)

    block, rows = [], 0
    for N in range(8, n_max + 1, 2):
        if block and rows + M_limit(N) > SWEEP_BLOCK_ROWS:
            yield sweep(block, M_limit, epsilon)
            block, rows = [], 0
        block.append(N)
        rows += M_limit(N)
    if block:
        yield sweep(block, M_limit, epsilon)


def _verify_extremal_sweep(args: argparse.Namespace) -> bnd.BoundReport:
    """The sweep's report, with each block's rows written to the --out
    file as they come under --format csv. The bounds are asymptotic: the
    report gives the empirical thresholds (2 past the largest N at which a
    bound fails) and counts only lower-bound failures at N >= 64 as
    violations."""
    n_max = args.n_max
    if n_max < 8:
        raise UsageError("--n-max must be >= 8")
    report = bnd.BoundReport(
        "extremal", {"N_max": n_max, "epsilon": args.epsilon}, (8, n_max))
    csv = args.format == "csv"
    lower_fail_N = upper_fail_N = 0
    with atomic_open(args.out) if csv else nullcontext() as fh:
        if csv:
            fh.write(Sweep.CSV_HEADER)
        for rows in _sweep_blocks(n_max, args.epsilon):
            N, lower_fail = rows.N, ~rows.holds_lower
            lower_fail_N = max(lower_fail_N,
                               int(N[lower_fail].max(initial=0)))
            upper_fail_N = max(upper_fail_N,
                               int(N[~rows.holds_upper].max(initial=0)))
            v = lower_fail & (N >= 64)
            report.violations += zip(N[v].tolist(), rows.log_lower[v].tolist(),
                                     rows.log_p[v].tolist())
            if csv:
                fh.write(rows.csv_text())
    report.passed = not report.violations
    report.empirical_constants = {
        "lower_holds_from_N": lower_fail_N + 2,
        "upper_holds_from_N": upper_fail_N + 2,
    }
    return report


def _verify_hlawka(args: argparse.Namespace) -> bnd.BoundReport:
    if args.gen == "grid":
        if args.N is None:
            raise UsageError("verify hlawka --gen grid needs --N")
        if args.N < 1:
            raise UsageError("--N must be >= 1")
        return bnd.grid_hlawka_report(args.N)
    if not 1 <= args.n_min <= args.n_max:
        default = COMMANDS["verify"]["hlawka"]["--n-min"]
        raise UsageError(f"--n-min must be in [1, --n-max = {args.n_max}], "
                         f"got {args.n_min} (--n-min defaults to {default})")
    return bnd.hlawka_sequence_report(args.gen, args.n_max,
                                      N_min=args.n_min, alpha=args.alpha)


# the options that a mode of `verify hlawka` or `verify extremal` does not
# read, by the name of the mode
_UNREAD = {"hlawka --gen grid": ("--alpha", "--n-max", "--n-min"),
           "hlawka --gen vdc": ("--alpha", "--N"),
           "hlawka --gen kronecker": ("--N",),
           "extremal without --d": ("--N",),
           "extremal --d": ("--n-max",)}


def _refuse_unread(args: argparse.Namespace) -> None:
    """Refuse an option that the chosen mode of `verify hlawka` or
    `verify extremal` does not read, set to other than its `COMMANDS`
    default, before --alpha is parsed."""
    tag = getattr(args, "theorem", None)
    if tag == "hlawka":
        mode = f"hlawka --gen {args.gen}"
    elif tag == "extremal":
        mode = "extremal --d" if args.d is not None else "extremal without --d"
    else:
        return
    defaults = COMMANDS["verify"][tag]
    for flag in _UNREAD[mode]:
        if getattr(args, flag[2:].replace("-", "_")) != defaults[flag]:
            raise UsageError(f"{flag} is not read by verify {mode}")


def cmd_verify(args: argparse.Namespace) -> int:
    tag = args.theorem
    if "n_max" in args and args.n_max < 1:
        raise UsageError("--n-max must be >= 1")
    if tag in ("ostrowski", "cesaro", "type-growth", "conjectures"):
        _orbit_n_max(args, tag)
    elif tag == "hlawka" and args.gen == "kronecker":
        _orbit_n_max(args, "hlawka --gen kronecker")
    elif tag == "kronecker-sandwich" and args.q_max > KERNEL_MAX_N + 1:
        raise UsageError(f"--q-max must be <= {KERNEL_MAX_N + 1} for "
                         f"kronecker-sandwich: the orbit, one short of the "
                         f"largest denominator <= --q-max, must stay within "
                         f"the fixed-point kernel's range")
    out = args.out
    if tag == "extremal":
        if not 0 < args.epsilon < math.inf:
            raise UsageError("--epsilon must be positive and finite")
        if args.format == "csv" and (args.d is not None or out == "-"):
            raise UsageError("--format csv is written only by the verify "
                             "extremal sweep, to an --out file")
    if tag == "hlawka":
        report = _verify_hlawka(args)
    elif tag == "extremal" and args.d is not None:
        report = _verify_extremal_single(args)
    elif tag == "extremal":
        report = _verify_extremal_sweep(args)
        if args.format == "csv":
            out = None  # the rows went to the --out file, the report to stdout
    elif tag == "kronecker-sandwich":
        report = bnd.check_kronecker_sandwich(args.alpha, q_max=args.q_max)
    elif tag == "ostrowski":
        report = bnd.check_ostrowski_bound(args.alpha, args.n_max)
    elif tag == "cesaro":
        report = bnd.check_cesaro_log_bound(args.alpha, args.n_max)
    elif tag == "type-growth":
        report = bnd.check_type_growth(args.alpha, args.n_max, args.t)
    elif tag == "vdc-limits":
        report = bnd.check_vdc_limits(args.s_max)
    elif tag == "conjectures":
        report = bnd.check_kronecker_conjectures(args.alpha, args.n_max)
    else:  # pragma: no cover - argparse already rejects unknown tags
        raise UsageError(f"unknown theorem {tag!r}")
    payload = report.to_dict()
    if tag == "extremal" and args.d is not None:
        # a single check compares one row, or none ("passed": None)
        payload["n_checked"] = int(report.passed is not None)
    _emit([json.dumps(payload, indent=2) + "\n"], out)
    return 1 if report.passed is False else 0


def cmd_mc(args: argparse.Namespace) -> int:
    if args.paths < 1:
        raise UsageError("--paths must be >= 1")
    if args.seed < 0:
        raise UsageError("--seed must be >= 0")
    if args.model == "iid":
        if args.n_max < st.IID_MIN_N_MAX:
            raise UsageError(f"--n-max must be >= {st.IID_MIN_N_MAX} for iid")
        stats = st.iid_lil_experiment(args.paths, args.n_max, args.seed)
    elif args.model == "rademacher":
        if args.n_max < st.N_LO:
            raise UsageError(f"--n-max must be >= {st.N_LO} for rademacher: "
                             f"the ratio is taken over N >= {st.N_LO}")
        _orbit_n_max(args, "rademacher")
        stats = st.rademacher_lil_experiment(args.alpha, args.paths,
                                             args.n_max, args.seed)
    else:
        if args.terms < st.N_LO:
            raise UsageError(f"--terms must be >= {st.N_LO} for subsequence: "
                             f"the ratio is taken over K >= {st.N_LO}")
        top = st.subsequence_max_terms()
        if args.terms > top:
            raise UsageError(f"--terms must be <= {top} for subsequence: a "
                             f"path's coin draws must stay within the "
                             f"fixed-point kernel's range")
        stats = st.subsequence_product_experiment(args.alpha, args.paths,
                                                  args.terms, args.seed)
    st.write_paths_csv(stats, args.out + ".csv")
    st.write_summary_json(stats, args.out + ".json")
    _emit([f"wrote {args.out}.csv and {args.out}.json\n"], None)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit:
        # --help (or a usage error) printed before exiting: flush it as
        # `_emit` does, so that a closed stdout ends it quietly
        _emit([], None)
        raise
    try:
        _refuse_unread(args)
        if "alpha" in args:
            args.alpha = parse_alpha(args.alpha)
        command = {"figure": cmd_figure, "verify": cmd_verify, "mc": cmd_mc}
        return command[args.command](args)
    except (UsageError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
