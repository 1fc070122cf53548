"""Every top-level function and method under `src/weylprod` runs when each
command runs once at a small size, or `NOT_RUN` names it with the reason
it did not.

The commands run in a fresh interpreter under `sys.setprofile` and
`threading.setprofile`, installed before the package is imported, so the
calls made at import and on the mc worker threads count too. A def counts
as run when its code is called at least once; a branch inside it is not
followed. Nothing here moves or deletes code: an entry goes from
`NOT_RUN` when its def runs or leaves `src/`.
"""

import ast
import json
import shutil
import subprocess
import sys
from pathlib import Path

import test_reachability as reachability
from commands import ROWS

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "weylprod"

# each row of the command table once for each of its runs, at its small
# size, then three lines that argparse reads; "{tmp}" the run's directory
RUNS = [*([*row.line(row.small, flags), "--out", "{tmp}/out"]
          for row in ROWS for flags in row.runs),
        ["-h"], ["verify", "hlawka", "-h"], ["figure", "--normalizer", "x"]]
CODES = [0] * (len(RUNS) - 1) + [2]

# reads the directory that holds the package and the runs as JSON from
# stdin; prints the exit codes and the (module, qualified name) of every
# package code object called
RUNNER = """
import contextlib, io, json, os, sys, threading
import numpy, mpmath  # imported unwatched: only the package is recorded
root, runs = json.load(sys.stdin)
sys.path.insert(0, root)
package = os.path.join(root, "weylprod")
files = {os.path.join(package, name): name[:-3]
         for name in os.listdir(package) if name.endswith(".py")}
seen = set()

def hook(frame, event, arg):
    if event == "call" and frame.f_code.co_filename in files:
        seen.add((files[frame.f_code.co_filename], frame.f_code.co_qualname))

sys.setprofile(hook)
threading.setprofile(hook)
from weylprod.cli import main
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()), \\
            contextlib.redirect_stderr(io.StringIO()):
        try:
            codes.append(main(argv))
        except SystemExit as exc:
            codes.append(exc.code)
sys.setprofile(None)
threading.setprofile(None)
print(json.dumps([codes, sorted(seen)]))
"""

# def -> (kind, subject): why no command runs it. The kinds, and what the
# subject must be (`bad_reasons` checks it):
#   traced      a name in `TARGETS` in bench/tracing.py: ROADMAP item 1
#               retargets the tracer, and item 7 then moves the def to
#               tests/oracles.py;
#   bench       a name (module.name) that a bench/*.py file uses;
#   acceptance  a name (module.name) that tests/test_acceptance.py imports;
#   branch      a tests/<file>.py::<test> that forces the rare branch;
#   caller      another NOT_RUN def that calls it, where no command does.
NOT_RUN = {
    "bounds.check_hlawka": ("traced", "bounds.check_hlawka"),
    "numerics.compensated_cumsum": ("traced", "numerics.compensated_cumsum"),
    "numerics.decimal_str": ("traced", "numerics.decimal_str"),
    "discrepancy.discrepancy_trace": ("traced",
                                      "discrepancy.discrepancy_trace"),
    # the tracer's `prefixes` hook takes len of the trace
    "discrepancy.DiscrepancyTrace.__len__": ("traced",
                                             "discrepancy.discrepancy_trace"),
    "irrational.FracPartEvaluator.frac_part": (
        "traced", "irrational.FracPartEvaluator.frac_part"),
    "irrational.FracPartEvaluator.__init__": ("caller", "sequences.kronecker"),
    "irrational.ostrowski": ("traced", "irrational.ostrowski"),
    "sequences.kronecker": ("traced", "sequences.kronecker"),
    "discrepancy.star_discrepancy": ("bench", "discrepancy.star_discrepancy"),
    "discrepancy._exact": ("caller", "discrepancy.star_discrepancy"),
    "discrepancy._float": ("caller", "discrepancy.star_discrepancy"),
    "discrepancy.int_sorted_max": ("caller", "discrepancy._exact"),
    "discrepancy._points_of": ("caller", "discrepancy.star_discrepancy"),
    "sequences.van_der_corput": ("bench", "sequences.van_der_corput"),
    "discrepancy.brute_force_star_discrepancy": (
        "bench", "discrepancy.brute_force_star_discrepancy"),
    # bench/checks.py passes it the points of a van_der_corput prefix
    "sequences.RationalArray.__iter__": (
        "bench", "discrepancy.brute_force_star_discrepancy"),
    "extremal.direct_log_product": ("bench", "extremal.direct_log_product"),
    "irrational.surd_from_cf": ("bench", "irrational.surd_from_cf"),
    "extremal.build_extremal": ("acceptance", "extremal.build_extremal"),
    "extremal.sup_search": ("acceptance", "extremal.sup_search"),
    "extremal.ExtremalConfig.d": ("acceptance", "extremal.ExtremalConfig"),
    "extremal.Sweep.__iter__": ("acceptance", "extremal.sweep"),
    "irrational.cf_expand": ("acceptance", "irrational.cf_expand"),
    "numerics.log_two_sin_pi": ("acceptance", "numerics.log_two_sin_pi"),
    "numerics.two_sin_pi": ("caller", "numerics.log_two_sin_pi"),
    "products.closed_form_shifted": ("acceptance",
                                     "products.closed_form_shifted"),
    "sequences.uniform_grid": ("acceptance", "sequences.uniform_grid"),
    "sequences.PointSet.__post_init__": ("caller", "sequences.uniform_grid"),
    "sequences.RationalArray.__getitem__": ("acceptance",
                                            "sequences.RationalArray"),
    # product_trace takes a RationalArray whole, as the acceptance suite
    # passes it
    "sequences.RationalArray.to_float_array": ("acceptance",
                                               "sequences.RationalArray"),
    "stochastic.log_integral": ("acceptance", "stochastic.log_integral"),
    "stochastic.variance_integral": ("acceptance",
                                     "stochastic.variance_integral"),
    "stochastic._log_sine_moment": ("caller", "stochastic.log_integral"),
    "products._exact_sin": (
        "branch", "tests/test_products.py::"
                  "test_rotation_exact_term_below_working_precision"),
    "irrational._exact_distance": (
        "branch",
        "tests/test_kernel.py::test_huge_quotient_takes_exact_branch"),
    "irrational.exact_residue": ("caller", "products._exact_sin"),
}


def top_level_defs(src: Path) -> dict:
    """module.name of every top-level function under `src`, and
    module.Class.name of every method of a top-level class, each with its
    node."""
    defs = {}
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[f"{path.stem}.{node.name}"] = node
            elif isinstance(node, ast.ClassDef):
                defs.update((f"{path.stem}.{node.name}.{m.name}", m)
                            for m in node.body
                            if isinstance(m, (ast.FunctionDef,
                                              ast.AsyncFunctionDef)))
    return defs


def _is_test(subject: str) -> bool:
    """Whether `subject`, tests/<file>.py::<test>, names a test function."""
    path, _, test = subject.partition("::")
    file = ROOT / path
    return (path.startswith("tests/") and file.is_file()
            and any(isinstance(node, ast.FunctionDef) and node.name == test
                    for node in ast.parse(file.read_text()).body))


def _mentions(node, name: str) -> bool:
    """Whether the code of `node` names the def `name`: its function or
    method name, or its class for a dunder method."""
    parts = name.split(".")
    word = parts[-2] if parts[-1].startswith("__") else parts[-1]
    return any(getattr(n, "id", getattr(n, "attr", None)) == word
               for n in ast.walk(node))


def bad_reasons(not_run: dict) -> list:
    """The defs of `not_run` whose kind is none of NOT_RUN's five, or whose
    subject is not what the kind asks for."""
    index = reachability._Index()
    bench = {f"{module}.{name}"
             for path in sorted((ROOT / "bench").glob("*.py"))
             for module, name in reachability._external_roots(index, path)}
    acceptance = {f"{module}.{name}" for module, name in
                  reachability._external_roots(
                      index, ROOT / "tests" / "test_acceptance.py")}
    traced = {f"{module}.{attr}"
              for module, attr, _, _ in reachability.traced_targets()}
    defs = top_level_defs(SRC)
    checks = {
        "traced": traced.__contains__,
        "bench": bench.__contains__,
        "acceptance": acceptance.__contains__,
        "branch": _is_test,
    }
    bad = []
    for name, (kind, subject) in sorted(not_run.items()):
        if kind == "caller":
            ok = (subject != name and subject in not_run
                  and _mentions(defs[subject], name))
        else:
            ok = kind in checks and checks[kind](subject)
        if not ok:
            bad.append(name)
    return bad


def ran(src: Path, tmp: Path) -> set:
    """module.qualname of every def under `src` that RUNS called."""
    runs = [[a.replace("{tmp}", str(tmp)) for a in argv] for argv in RUNS]
    proc = subprocess.run([sys.executable, "-c", RUNNER],
                          input=json.dumps([str(src.parent), runs]),
                          capture_output=True, text=True, timeout=120,
                          cwd=tmp)
    assert proc.returncode == 0, proc.stderr
    codes, seen = json.loads(proc.stdout)
    assert codes == CODES
    return {f"{module}.{name}" for module, name in seen}


def test_every_def_runs_or_is_named(tmp_path):
    defs = set(top_level_defs(SRC))
    done = ran(SRC, tmp_path)
    assert sorted(set(NOT_RUN) - defs) == [], "NOT_RUN names no such def"
    assert sorted(set(NOT_RUN) & done) == [], "these now run: drop them"
    assert sorted(defs - done - set(NOT_RUN)) == []
    assert bad_reasons(NOT_RUN) == [], "no such subject for the kind"


def test_guard_sees_a_def_no_command_runs(tmp_path):
    # the guard itself: a function that nothing calls, in a copy of the
    # package, is a def that did not run
    src = tmp_path / "weylprod"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    with open(src / "numerics.py", "a") as fh:
        fh.write("\n\ndef _never_called():\n    return LOG2\n")
    assert set(top_level_defs(src)) - ran(src, tmp_path) - set(NOT_RUN) \
        == {"numerics._never_called"}


def test_guard_refuses_a_made_up_reason():
    # the guard itself: an entry whose subject its kind does not find, or
    # whose kind is not one of the five, is refused
    made_up = {
        "numerics.decimal_str": ("traced", "numerics.no_such_target"),
        "sequences.van_der_corput": ("bench", "sequences.uniform_grid"),
        "extremal.sup_search": ("acceptance", "extremal.direct_log_product"),
        "products._exact_sin": ("branch",
                                "tests/test_products.py::test_no_such_test"),
        # star_discrepancy does not call exact_residue, and cli.main runs
        "irrational.exact_residue": ("caller", "discrepancy.star_discrepancy"),
        "numerics.two_sin_pi": ("caller", "cli.main"),
        "stochastic.log_integral": ("for the tests", "the tests use it"),
    }
    assert bad_reasons({**NOT_RUN, **made_up}) == sorted(made_up)
