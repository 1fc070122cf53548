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

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "weylprod"

# each command once at a small size, "{tmp}" the run's directory
RUNS = [
    *(["figure", "--n-max", "100", "--normalizer", normalizer, "--format",
       fmt, "--out", "{tmp}/figure"]
      for normalizer in ("none", "one_over_N", "one_over_N_squared")
      for fmt in ("csv", "json")),
    ["verify", "hlawka", "--gen", "kronecker", "--n-max", "200",
     "--out", "{tmp}/v"],
    ["verify", "hlawka", "--gen", "vdc", "--n-max", "200", "--out", "{tmp}/v"],
    ["verify", "hlawka", "--gen", "grid", "--N", "200", "--out", "{tmp}/v"],
    ["verify", "extremal", "--n-max", "64", "--out", "{tmp}/v"],
    ["verify", "extremal", "--n-max", "64", "--format", "csv",
     "--out", "{tmp}/sweep.csv"],
    ["verify", "extremal", "--N", "16", "--d", "0.125", "--out", "{tmp}/v"],
    ["verify", "kronecker-sandwich", "--q-max", "200", "--out", "{tmp}/v"],
    ["verify", "ostrowski", "--n-max", "200", "--out", "{tmp}/v"],
    ["verify", "cesaro", "--n-max", "200", "--out", "{tmp}/v"],
    ["verify", "type-growth", "--n-max", "200", "--out", "{tmp}/v"],
    ["verify", "vdc-limits", "--s-max", "8", "--out", "{tmp}/v"],
    ["verify", "conjectures", "--n-max", "200", "--out", "{tmp}/v"],
    ["mc", "iid", "--paths", "2", "--n-max", "1000", "--out", "{tmp}/mc"],
    ["mc", "rademacher", "--paths", "2", "--n-max", "200", "--out",
     "{tmp}/mc"],
    ["mc", "subsequence", "--paths", "2", "--terms", "200", "--out",
     "{tmp}/mc"],
    ["-h"],
    ["verify", "hlawka", "-h"],
    ["figure", "--normalizer", "x"],
]
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

_TRACED = ("bench/tracing.py wraps it by name; ROADMAP item 1 retargets "
           "the tracer, and item 7 then moves it to tests/oracles.py")
_ACCEPTANCE = "tests/test_acceptance.py imports it"

# def -> why no command runs it
NOT_RUN = {
    "bounds.check_hlawka": _TRACED,
    "numerics.compensated_cumsum": _TRACED,
    "numerics.decimal_str": _TRACED,
    "discrepancy.discrepancy_trace": _TRACED,
    "irrational.FracPartEvaluator.frac_part": _TRACED,
    "irrational.ostrowski": _TRACED,
    "sequences.kronecker": _TRACED,
    "irrational.FracPartEvaluator.__init__":
        "builds the evaluator whose frac_part bench/tracing.py wraps",
    "irrational.ConvergentTable.level_of":
        "only ostrowski calls it, which bench/tracing.py wraps",
    "irrational.OstrowskiDigits.reconstruct":
        "a method of ostrowski's result, for the tests",
    "discrepancy.DiscrepancyTrace.__getitem__":
        "a method of discrepancy_trace's result, for the tests",
    "discrepancy.DiscrepancyTrace.__iter__":
        "a method of discrepancy_trace's result, for the tests",
    "discrepancy.DiscrepancyTrace.__len__":
        "a method of discrepancy_trace's result, for the tests",
    "discrepancy.star_discrepancy":
        "bench/worker.py calls it, and " + _ACCEPTANCE,
    "discrepancy._exact": "only star_discrepancy calls it",
    "discrepancy.int_sorted_max": "only star_discrepancy's _exact calls it",
    "discrepancy._points_of":
        "only star_discrepancy and discrepancy_trace call it",
    "numerics.as_float_array":
        "only discrepancy_trace calls it, which bench/tracing.py wraps",
    "sequences.van_der_corput": "bench/worker.py calls it",
    "discrepancy.brute_force_star_discrepancy":
        "bench/checks.py calls it, and " + _ACCEPTANCE,
    "extremal.direct_log_product": "bench/checks.py calls it",
    "irrational.surd_from_cf": "bench/workloads.py calls it",
    "extremal.build_extremal": _ACCEPTANCE,
    "extremal.sup_search": _ACCEPTANCE,
    "extremal.ExtremalConfig.d": "the acceptance suite reads it (cfg.d)",
    "extremal.Sweep.__iter__": "the acceptance suite iterates a sweep",
    "irrational.cf_expand": _ACCEPTANCE,
    "numerics.log_two_sin_pi": _ACCEPTANCE,
    "products.closed_form_shifted": _ACCEPTANCE,
    "numerics.two_sin_pi":
        "only log_two_sin_pi and closed_form_shifted call it",
    "sequences.uniform_grid": _ACCEPTANCE,
    "sequences.PointSet.__post_init__":
        "checks the PointSet of uniform_grid and build_extremal",
    "sequences.RationalArray.__getitem__":
        "a method of RationalArray, which the acceptance suite imports",
    "sequences.RationalArray.__iter__":
        "bench/checks.py iterates one: brute_force_star_discrepancy of the "
        "points of a van_der_corput prefix, on every rational-discrepancy "
        "check",
    "sequences.RationalArray.to_float_array":
        "product_trace takes a RationalArray whole, as the acceptance suite "
        "passes it",
    "stochastic.log_integral": _ACCEPTANCE,
    "stochastic.variance_integral": _ACCEPTANCE,
    "stochastic._log_sine_moment":
        "only log_integral and variance_integral call it",
    "products._exact_sin":
        "a rare branch, a sine too close to 0 for the rotation: "
        "test_products.py::test_rotation_exact_term_below_working_precision "
        "forces it",
    "irrational._exact_distance":
        "a rare branch, a point too close to 0 or 1 for the fixed-point "
        "words: test_kernel.py::test_huge_quotient_takes_exact_branch "
        "forces it",
    "irrational.exact_residue":
        "a rare branch, under _exact_sin and _exact_distance",
}


def top_level_defs(src: Path) -> set:
    """module.name of every top-level function under `src`, and
    module.Class.name of every method of a top-level class."""
    defs = set()
    for path in sorted(src.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs.add(f"{path.stem}.{node.name}")
            elif isinstance(node, ast.ClassDef):
                defs.update(f"{path.stem}.{node.name}.{m.name}"
                            for m in node.body
                            if isinstance(m, (ast.FunctionDef,
                                              ast.AsyncFunctionDef)))
    return defs


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
    defs = top_level_defs(SRC)
    done = ran(SRC, tmp_path)
    assert sorted(set(NOT_RUN) - defs) == [], "NOT_RUN names no such def"
    assert sorted(set(NOT_RUN) & done) == [], "these now run: drop them"
    assert sorted(defs - done - set(NOT_RUN)) == []


def test_guard_sees_a_def_no_command_runs(tmp_path):
    # the guard itself: a function that nothing calls, in a copy of the
    # package, is a def that did not run
    src = tmp_path / "weylprod"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    with open(src / "numerics.py", "a") as fh:
        fh.write("\n\ndef _never_called():\n    return LOG2\n")
    assert top_level_defs(src) - ran(src, tmp_path) - set(NOT_RUN) == {
        "numerics._never_called"}
