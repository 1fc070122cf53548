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
options `COMMANDS` lists for it. A plain command line is read from that
table (`_read`); argparse reads -h, a usage error and every other form.
Every output file is written here, by `_emit`, whole or not at all; the
library modules return text and write no file.
"""

from __future__ import annotations

import argparse
import fractions
import json
import math
import os
import sys
from collections import deque
from contextlib import contextmanager, suppress
from itertools import chain

from . import bounds as bnd
from . import extremal
from . import stochastic as st
from .extremal import (ExtremalConfig, Sweep, extremal_product_closed_form,
                       sup_product_lower_bound, sup_product_upper_bound,
                       sweep, threshold_B)
from .irrational import (KERNEL_MAX_N, MIN_PRECISION_BITS, cf_expand_until,
                         parse_alpha)
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


def Fraction(text: str) -> fractions.Fraction:
    """--d's type, `fractions.Fraction(text)`, with a ValueError for a zero
    denominator and, before 10^exponent is built, for an exponent past
    +-10^4: no such d lies in [1/(2 --N), 1], as `int` reads at most 4300
    digits (Python's default), for --N and for the decimal's digits."""
    _, e, exponent = text.lower().partition("e")
    if e and abs(int(exponent)) > 10 ** 4:
        raise ValueError(text)
    try:
        return fractions.Fraction(text)
    except ZeroDivisionError:
        raise ValueError(text) from None


# each option's type (else its default's), choices and help, for every command
_SPECS = {
    "--gen": {"choices": ("grid", "vdc", "kronecker")},
    "--N": {"type": int, "help": "a single N (hlawka --gen grid, or "
                                 "extremal with --d)"},
    "--d": {"type": Fraction, "help": "the discrepancy of a single check, "
                                      "read as an exact decimal"},
    "--normalizer": {"choices": NORMALIZERS},
    "--precision-bits": {
        "type": int, "help": "bits the rows are rounded to (default: the "
                             "2^24 budget's, or --n-max's above it)"},
    "--out": {"help": "output file, or mc's file prefix (default "
                      "%(default)s)"},
    "--format": {"choices": ("csv", "json")},
}
# the namespace name of the theorem or model a command runs
_CHOSEN = {"verify": "theorem", "mc": "model"}


def _spec(flag: str, default) -> dict:
    """`add_argument`'s keywords for the option `flag` with `default`."""
    return {"default": default, "type": type(default), **_SPECS.get(flag, {})}


def _add_options(parser: argparse.ArgumentParser, options: dict) -> None:
    """Add `options` (flag -> default, a `COMMANDS` entry) to a command's
    parser, with --N-max beside --n-max."""
    for flag, default in options.items():
        names = (flag, "--N-max") if flag == "--n-max" else (flag,)
        parser.add_argument(*names, **_spec(flag, default))


def _read(argv) -> argparse.Namespace | None:
    """`build_parser().parse_args(argv)` of a plain command line, `figure`,
    `verify THEOREM` or `mc MODEL` and then `--flag value` pairs of its
    `COMMANDS` entry, read without a parser. None, for argparse, on -h, `--`,
    `--flag=value`, a value that starts with `-` (but `-`), an unknown flag
    or a value its type or choices refuse."""
    argv = sys.argv[1:] if argv is None else list(argv)
    if not argv or argv[0] not in COMMANDS:
        return None
    chosen, options, rest = {"command": argv[0]}, COMMANDS[argv[0]], argv[1:]
    if argv[0] in _CHOSEN:
        if not rest or rest[0] not in options:
            return None
        chosen[_CHOSEN[argv[0]]] = rest[0]
        options, rest = options[rest[0]], rest[1:]
    values = dict(options)
    for flag, text in zip(rest[::2], rest[1::2]):
        flag = "--n-max" if flag == "--N-max" else flag
        if flag not in options or text.startswith("-") and text != "-":
            return None
        spec = _spec(flag, options[flag])
        try:
            values[flag] = spec["type"](text)
        except ValueError:  # argparse reports it
            return None
        if values[flag] not in spec.get("choices", (values[flag],)):
            return None
    # an odd count leaves a flag without its value, which zip drops
    return None if len(rest) % 2 else argparse.Namespace(**chosen, **{
        flag[2:].replace("-", "_"): value for flag, value in values.items()})


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="weylprod",
        description="Sine-product workbench: figures, bound verification and "
                    "Monte Carlo experiments over [0,1] point sequences.")
    sub = p.add_subparsers(dest="command", required=True, prog=p.prog)
    _add_options(sub.add_parser(
        "figure", allow_abbrev=False, help="emit the N,value product series",
        description="Emit prod_{n<=N} |2 sin(pi n alpha)| (optionally "
                    "normalized) as an N,value series. Note {n sqrt(2)} = "
                    "{n (sqrt(2)-1)}, so --alpha sqrt2m1 reproduces series "
                    "quoted for alpha = sqrt(2)."), COMMANDS["figure"])
    for command, name, about in (("verify", "THEOREM", "a bound checker"),
                                 ("mc", "MODEL", "a Monte Carlo experiment")):
        parser = sub.add_parser(
            command, help=f"run {about}",
            description=f"Run {about}: weylprod {command} {name} -h lists "
                        f"the {name.lower()}'s options.")
        choices = parser.add_subparsers(dest=_CHOSEN[command], required=True,
                                        prog=parser.prog)
        for choice, options in COMMANDS[command].items():
            _add_options(choices.add_parser(choice, allow_abbrev=False),
                         options)
    return p


@contextmanager
def _atomic_open(path):
    """`_emit`'s ASCII file handle for `path`: a temporary file beside it,
    made as `open` makes `path` (0o666 less the umask), renamed over it
    (`os.replace`) once the block finishes and removed if it raises. A
    link's target is replaced and the link stays; a `path` that is not a
    regular file (/dev/null, a pipe) is written in place. A temporary file
    that cannot be made raises the OSError for `path` itself."""
    real = os.path.realpath(path)
    if os.path.exists(real) and not os.path.isfile(real):
        with open(real, "w", encoding="ascii") as fh:
            yield fh
        return
    head, tail = os.path.split(real)
    tmp = os.path.join(head, f".{tail}.{os.urandom(6).hex()}.tmp")
    try:
        fh = open(tmp, "x", encoding="ascii")
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, os.fspath(path)) from None
    try:
        with fh:
            yield fh
        os.replace(tmp, real)
    except BaseException:
        with suppress(OSError):
            os.unlink(tmp)
        raise


def _emit(parts, out: str | None) -> None:
    """Write the strings of the iterable `parts` in order to stdout, or
    atomically to the file `out` (`_atomic_open`): if producing a part
    raises, no file is left behind. A reader that closes stdout early ends
    the output quietly: stdout then points at the null device, so that the
    interpreter's flush at exit does not fail again."""
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
        with _atomic_open(out) as fh:
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
    if args.precision_bits is not None and \
            args.precision_bits < MIN_PRECISION_BITS:
        raise UsageError(f"--precision-bits must be >= {MIN_PRECISION_BITS}")
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
    if not (low := fractions.Fraction(1, 2 * args.N)) <= args.d <= 1:
        raise UsageError(f"--d must be in [1/(2 --N), 1] = [{low}, 1]")
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
    lower_fail_N = upper_fail_N = 0

    def blocks():
        nonlocal lower_fail_N, upper_fail_N
        for rows in _sweep_blocks(n_max, args.epsilon):
            N, lower_fail = rows.N, ~rows.holds_lower
            lower_fail_N = max(lower_fail_N,
                               int(N[lower_fail].max(initial=0)))
            upper_fail_N = max(upper_fail_N,
                               int(N[~rows.holds_upper].max(initial=0)))
            v = lower_fail & (N >= 64)
            report.violations += zip(N[v].tolist(), rows.log_lower[v].tolist(),
                                     rows.log_p[v].tolist())
            yield rows

    if args.format == "csv":
        _emit(chain([Sweep.CSV_HEADER], map(Sweep.csv_text, blocks())),
              args.out)
    else:
        deque(blocks(), 0)  # the report alone
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


# the largest --N of the single `verify extremal` check: its closed form sums
# M = N d <= N/2 log-sines one at a time, about 2 s at this N and d = 1/2
EXTREMAL_MAX_N = 1 << 24
# the largest --N of each mode that reads it, refused by name past it
_N_CAP = {"hlawka --gen grid": KERNEL_MAX_N, "extremal --d": EXTREMAL_MAX_N}


def _mode(args: argparse.Namespace) -> str | None:
    """The `_UNREAD` name of the mode of `verify hlawka` or
    `verify extremal` that `args` chose; None for any other command."""
    tag = getattr(args, "theorem", None)
    if tag == "hlawka":
        return f"hlawka --gen {args.gen}"
    if tag == "extremal":
        return "extremal --d" if args.d is not None else "extremal without --d"
    return None


def _refuse_unread(args: argparse.Namespace) -> None:
    """Refuse an option that the chosen mode of `verify hlawka` or
    `verify extremal` does not read, set to other than its `COMMANDS`
    default, before --alpha is parsed."""
    if (mode := _mode(args)) is None:
        return
    defaults = COMMANDS["verify"][args.theorem]
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
    elif tag == "kronecker-sandwich" and args.q_max < (
            q_min := cf_expand_until(args.alpha, 1).q[-1]):
        raise UsageError(f"--q-max must be >= {q_min} for kronecker-sandwich:"
                         f" the first denominator >= 2 of --alpha {args.alpha}")
    if tag == "type-growth" and not 1 < args.t < math.inf:
        raise UsageError("--t must exceed 1 and be finite")
    if tag == "vdc-limits" and not 1 <= args.s_max <= bnd.VDC_MAX_S:
        raise UsageError(f"--s-max must be in [1, {bnd.VDC_MAX_S}]")
    out = args.out
    if tag == "extremal":
        if not 0 < args.epsilon < math.inf:
            raise UsageError("--epsilon must be positive and finite")
        try:
            threshold_B(args.epsilon)
        except ValueError:  # the threshold lies past THRESHOLD_CAP
            raise UsageError(f"--epsilon = {args.epsilon} is too small: its "
                             f"threshold B lies past {extremal.THRESHOLD_CAP}"
                             ) from None
        if args.format == "csv" and (args.d is not None or out == "-"):
            raise UsageError("--format csv is written only by the verify "
                             "extremal sweep, to an --out file")
    mode = _mode(args)
    cap = _N_CAP.get(mode)
    if cap and args.N is not None and not 1 <= args.N <= cap:
        raise UsageError(f"--N must be in [1, {cap}] for verify {mode}")
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
    else:  # conjectures
        report = bnd.check_kronecker_conjectures(args.alpha, args.n_max)
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
    _emit([st.paths_csv(stats)], args.out + ".csv")
    _emit([json.dumps(st.summary_dict(stats), indent=2, sort_keys=True)
           + "\n"], args.out + ".json")
    _emit([f"wrote {args.out}.csv and {args.out}.json\n"], None)
    return 0


def main(argv=None) -> int:
    try:
        args = _read(argv) or build_parser().parse_args(argv)
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
