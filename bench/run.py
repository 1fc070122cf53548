"""weylprod benchmark: four CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout (the package is imported from ./src):

    python3 bench/run.py --workload kronecker-verify --seed 1 --seconds 12
    python3 bench/run.py --workload figure-series --seed 1 --trace 1
    python3 bench/run.py              # every workload, one after another
    python3 bench/run.py --smoke

--seconds defaults to `run_seconds` of BENCHMARK.json. With --trace 0 the run
times `import weylprod.cli` in fresh interpreters (setup_s, the median of
seven), then one worker process runs the workload's op list for a fixed
number of rounds, about --seconds long on a quiet host (see
workloads.ROUND_S), and checks every output. wall_s is the time of the op
list with each op at its median round, points_per_s the op list's terms per
second of it; ok_frac is the share of ops whose outputs passed every check
(failed_frac, printed beside it, is 1 - ok_frac). setup_s and wall_s are
wall-clock seconds scaled to a reference host speed by a calibration loop
timed right before and after each import and each op (see hostspeed.py);
the unscaled op times are in the report.
With --trace 1 the worker alternates untraced and traced rounds, and the
result holds the per-layer metrics, averaged per traced round, and the
tracing overhead. Each workload's result is one JSON line, printed after a
human-readable summary. --smoke runs every workload once at tiny sizes in
both modes and checks metric names, units and failures against
BENCHMARK.json. Reports (inputs, environment, per-op times) and spans are
written under .bench_work/.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
from workloads import WORKLOADS, rounds_for  # noqa: E402

SETUP_IMPORTS = 7
RUN_LIMIT_S = 170.0
SMOKE_SCALE = 1 / 32

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "points_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}

PER_LAYER = {
    "irrational.frac_part.calls": "count",
    "irrational.frac_part.self_s": "s",
    "irrational.floor_surd.calls": "count",
    "irrational.ostrowski.calls": "count",
    "irrational.ostrowski.self_s": "s",
    "sequences.kronecker.self_s": "s",
    "sequences.van_der_corput.self_s": "s",
    "products.product_trace.self_s": "s",
    "products.mpf_terms": "count",
    "products.float_terms": "count",
    "numerics.log_two_sin_pi_array.self_s": "s",
    "numerics.log_two_sin_pi_array.elements": "count",
    "numerics.compensated_cumsum.self_s": "s",
    "numerics.decimal_str.calls": "count",
    "numerics.decimal_str.self_s": "s",
    "stochastic.iid_lil_experiment.self_s": "s",
    "stochastic.rademacher_lil_experiment.self_s": "s",
    "stochastic.subsequence_product_experiment.self_s": "s",
    "stochastic.kronecker_log_weights.self_s": "s",
    "discrepancy.discrepancy_trace.self_s": "s",
    "discrepancy.discrepancy_trace.prefixes": "count",
    "discrepancy.star_discrepancy.self_s": "s",
    "extremal.sweep.self_s": "s",
    "extremal.sweep.rows": "count",
    "bounds.kronecker_log_trace.calls": "count",
    "bounds.kronecker_log_trace.misses": "count",
    "bounds.check_hlawka.self_s": "s",
    "bounds.check_kronecker_sandwich.self_s": "s",
    "bounds.check_ostrowski_bound.self_s": "s",
    "bounds.check_cesaro_log_bound.self_s": "s",
    "bounds.check_type_growth.self_s": "s",
    "bounds.check_vdc_limits.self_s": "s",
    "bounds.check_kronecker_conjectures.self_s": "s",
    "bounds.grid_hlawka_report.self_s": "s",
    "bounds.hlawka_sequence_report.self_s": "s",
    "cli.main.self_s": "s",
    "cli.bytes_written": "bytes",
    "trace.overhead_s": "s",
    "host.calib_s": "s",
}

# run as `python -c IMPORT_SNIPPET <bench dir>`
IMPORT_SNIPPET = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import hostspeed\n"
    "before = hostspeed.piece('int')\n"
    "t0 = time.perf_counter()\n"
    "import weylprod.cli\n"
    "seconds = time.perf_counter() - t0\n"
    "piece_s = (before + hostspeed.piece('int')) / 2\n"
    "print(seconds, piece_s, weylprod.cli.__file__)\n"
)


class BenchError(Exception):
    pass


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src)
    return env


def setup_times(root: Path, repeats: int) -> list:
    """Seconds to import weylprod.cli, each in a fresh interpreter, at the
    reference host speed."""
    src = root / "src"
    times = []
    for _ in range(repeats):
        proc = subprocess.run([sys.executable, "-c", IMPORT_SNIPPET,
                               str(HERE)],
                              cwd=root, env=child_env(src),
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise BenchError(f"import weylprod.cli failed:\n{proc.stderr}")
        seconds, piece_s, path = proc.stdout.split()
        if src not in Path(path).resolve().parents:
            raise BenchError(f"weylprod.cli imported from {path}, not {src}")
        times.append(hostspeed.to_reference(float(seconds), "int",
                                            float(piece_s)))
    return times


def run_worker(root: Path, workload: str, seed: int, rounds: int,
               trace: int, scale: float, deadline: float) -> dict:
    work = root / ".bench_work"
    work.mkdir(exist_ok=True)
    report = work / f"{workload}-seed{seed}-trace{trace}.json"
    report.unlink(missing_ok=True)
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(root),
           "--workload", workload, "--seed", str(seed),
           "--rounds", str(rounds), "--trace", str(trace),
           "--scale", repr(scale), "--report", str(report.relative_to(root))]
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root / "src"),
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload} worker exceeded the run time limit")
    if proc.returncode != 0 or not report.exists():
        raise BenchError(f"{workload} worker exited with {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    with open(report, encoding="ascii") as fh:
        rep = json.load(fh)
    rep["path"] = str(report.relative_to(root))
    return rep


def op_medians(rounds: list) -> tuple:
    """Seconds (at reference host speed) and points of the op list, each op
    at its median over the rounds.

    Every round runs the same ops on fresh inputs of the same size, and the
    rounds and their inputs are fixed by the seed and the run length, so
    the medians are over the same inputs on every commit.
    """
    seconds = points = 0.0
    for entries in zip(*(r["ops"] for r in rounds)):
        seconds += statistics.median(
            hostspeed.to_reference(e["seconds"], e["calib"], e["calib_s"])
            for e in entries)
        points += statistics.median(e["points"] for e in entries)
    return seconds, points


def end_to_end(rep: dict, setup: list) -> dict:
    wall, points = op_medians(rep["rounds"])
    return {
        "setup_s": statistics.median(setup),
        "wall_s": wall,
        "points_per_s": points / wall,
        "peak_rss_mb": rep["peak_rss_mb"],
        "ok_frac": (rep["attempted"] - rep["failed"]) / rep["attempted"],
    }


def per_layer(rep: dict) -> dict:
    """Per-round averages over the traced rounds."""
    traced = [r for r in rep["rounds"] if r["traced"]]
    plain = [r for r in rep["rounds"] if not r["traced"]]
    layers = rep["layers"]
    values = {}
    for name in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if kind == "self_s" and base in layers["self_s"]:
            total = layers["self_s"][base]
        elif kind == "calls" and base in layers["calls"]:
            total = layers["calls"][base]
        else:
            total = layers["counts"].get(name, 0)
        values[name] = total / len(traced)
    values["cli.bytes_written"] = statistics.median(
        r["bytes_written"] for r in traced)
    # rounds alternate untraced, traced: pair each with its neighbour
    values["trace.overhead_s"] = statistics.median(
        t["wall_s"] - p["wall_s"] for p, t in zip(plain, traced))
    values["host.calib_s"] = rep["host_calib_s"]
    return values


def measure(root: Path, workload: str, seed: int, seconds: float, trace: int,
            scale: float = 1.0, setup_repeats: int = SETUP_IMPORTS) -> dict:
    """One benchmark run; returns the result object and the reports."""
    deadline = perf_counter() + RUN_LIMIT_S
    rounds = rounds_for(workload, seconds, bool(trace))
    if trace:
        rep = run_worker(root, workload, seed, rounds, 1, scale, deadline)
        metrics = per_layer(rep)
        units = PER_LAYER
    else:
        setup = setup_times(root, setup_repeats)
        rep = run_worker(root, workload, seed, rounds, 0, scale, deadline)
        metrics = end_to_end(rep, setup)
        units = END_TO_END
    return {
        "result": {"correct": rep["failed"] == 0,
                   "attempted": rep["attempted"], "failed": rep["failed"],
                   "metrics": {k: {"value": v, "unit": units[k]}
                               for k, v in metrics.items()}},
        "report": rep,
    }


def describe(out: dict, workload: str) -> None:
    """Human-readable lines printed above the JSON result."""
    res = out["result"]
    rep = out["report"]
    env = rep["env"]
    print(f"workload {workload}  seed {rep['seed']}  trace {rep['trace']}  "
          f"report {rep['path']}")
    print(f"  env: python {env['python']}, numpy {env['numpy']}, "
          f"mpmath {env['mpmath']} ({env['mpmath_backend']}), "
          f"scipy {env['scipy']}, nproc {env['nproc']}, cpu {env['cpu']}")
    print(f"  host.calib_s = {rep['host_calib_s']:.6g} s")
    for traced in sorted({r["traced"] for r in rep["rounds"]}):
        walls = [r["wall_s"] for r in rep["rounds"] if r["traced"] == traced]
        print(f"  {'traced' if traced else 'untraced'} rounds: {len(walls)}, "
              f"unscaled seconds min {min(walls):.4f}, median "
              f"{statistics.median(walls):.4f}, max {max(walls):.4f}")
    for r in rep["rounds"]:
        for op in r["ops"]:
            for p in op["problems"]:
                print(f"  FAILED {op['label']} {op['argv']}: {p}")
    for name, m in res["metrics"].items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  failed_frac = {res['failed'] / res['attempted']:.6g} "
          f"({res['failed']} of {res['attempted']} ops)")


def smoke(root: Path) -> int:
    """Every workload once at tiny sizes, in both modes, against
    BENCHMARK.json: each declared metric present with its unit, and no
    failed op."""
    with open(root / "BENCHMARK.json", encoding="ascii") as fh:
        spec = json.load(fh)
    declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    if sorted(w["name"] for w in spec["workloads"]) != sorted(WORKLOADS):
        problems.append("BENCHMARK.json workloads differ from the code's")
    for workload in WORKLOADS:
        for trace in (0, 1):
            out = measure(root, workload, 0, 0.0, trace, SMOKE_SCALE, 1)
            res = out["result"]
            metrics = res["metrics"]
            if {k: m["unit"] for k, m in metrics.items()} != declared[trace]:
                problems.append(f"{workload} trace={trace}: metric names or "
                                f"units differ from BENCHMARK.json")
            failed_frac = res["failed"] / res["attempted"]
            if failed_frac != 0 or not res["correct"]:
                describe(out, workload)
                problems.append(f"{workload} trace={trace}: failed_frac "
                                f"{failed_frac}")
            print(f"smoke {workload} trace={trace}: {len(metrics)} metrics, "
                  f"{res['attempted']} ops, failed_frac {failed_frac}")
    for p in problems:
        print(f"SMOKE FAILED: {p}")
    return 1 if problems else 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",),
                    default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="run length (default: run_seconds of "
                         "BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="run every workload once at tiny sizes and check "
                         "the metric names, units and failures")
    args = ap.parse_args()
    root = HERE.parent
    if not (root / "src" / "weylprod" / "cli.py").is_file():
        print(f"error: no weylprod sources under {root / 'src'}",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke(root)
    if args.seconds is None:
        with open(root / "BENCHMARK.json", encoding="ascii") as fh:
            args.seconds = json.load(fh)["run_seconds"]
    chosen = WORKLOADS if args.workload == "all" else (args.workload,)
    for workload in chosen:
        try:
            out = measure(root, workload, args.seed, args.seconds,
                          args.trace)
        except BenchError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        describe(out, workload)
        print(json.dumps(out["result"]), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
