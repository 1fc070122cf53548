"""Runs one workload in a fresh process and writes a JSON report.

Started by run.py; one worker is one client in a closed loop: it runs the
workload's op list for a fixed number of rounds, each op only after the
previous one returned. Before each op the package's caches are emptied and
garbage is collected, outside the timed region, so every op costs what it
costs in a fresh `weylprod` process. Each op is timed by wall clock and by
process CPU time, and a calibration piece (hostspeed.py) runs right before
and after it. Checks run between rounds and the reference comparisons
after the last round. With --trace 1 the tracing wrappers are installed for
every second round only, so traced and untraced rounds alternate and their
difference is the tracing overhead under the same host conditions.

    python3 bench/worker.py --root . --workload monte-carlo --seed 1 \
        --rounds 10 --trace 0 --scale 1 --report .bench_work/x.json
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import resource
import shutil
import sys
import traceback
from pathlib import Path
from time import perf_counter, process_time

import checks
import hostspeed
import workloads
from tracing import Tracer

def environment() -> dict:
    import mpmath
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {"python": platform.python_version(),
            "numpy": numpy.__version__,
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "scipy": scipy.__version__,
            "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu,
            "platform": platform.platform()}


def fresh_state() -> None:
    """Empty the package's module-level caches and collect garbage.

    Each op then starts from the state a fresh `weylprod` process has: no
    cached orbit of an earlier op, and no heap left over from it for the
    collector to walk. Caches are found by name (`*_cache` dicts), so the
    benchmark keeps working when one is added or removed.
    """
    for key, module in list(sys.modules.items()):
        if key == "weylprod" or key.startswith("weylprod."):
            for name, value in vars(module).items():
                if name.endswith("_cache") and isinstance(value, dict):
                    value.clear()
    gc.collect()


def run_op(op, tracer) -> dict:
    """Run one op with its stdout captured; never raises."""
    import weylprod.cli
    import weylprod.discrepancy
    import weylprod.sequences

    res = {"rc": None, "stdout": "", "error": None, "value": None}
    out = io.StringIO()
    if tracer:
        tracer.op = op.label
    try:
        with contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(io.StringIO()):
            if op.kind == "star-discrepancy":
                res["value"] = weylprod.discrepancy.star_discrepancy(
                    weylprod.sequences.van_der_corput(op.argv[0]))
            else:
                res["rc"] = weylprod.cli.main(op.argv)
    except SystemExit as exc:
        res["rc"] = exc.code
    except Exception:
        res["error"] = traceback.format_exc(limit=4)
    res["stdout"] = out.getvalue()
    return res


def problems_of(fn, *args) -> list:
    """A check that raises (missing file, bad JSON) is a failed check."""
    try:
        return fn(*args)
    except Exception as exc:
        return [f"check raised {type(exc).__name__}: {exc}"]


def rerun_mc(op, work: Path) -> list:
    """Rerun one mc op into another prefix and compare the outputs' bytes."""
    prefix = str(work / "rerun" / op.label)
    argv = list(op.argv)
    argv[argv.index("--out") + 1] = prefix
    twin = workloads.Op(op.kind, op.label, argv, op.points,
                        [prefix + ".csv", prefix + ".json"], op.info)
    (work / "rerun").mkdir(exist_ok=True)
    fresh_state()
    res = run_op(twin, None)
    if res["error"] or res["rc"] != 0:
        return [f"rerun failed: {res['error'] or res['rc']}"]
    return checks.same_bytes(op.outputs, twin.outputs)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--rounds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--report", required=True)
    args = ap.parse_args()

    root = Path(args.root).resolve()
    src = root / "src"
    sys.path.insert(0, str(src))
    import weylprod
    import weylprod.cli  # noqa: F401  (loaded before tracing wraps it)

    if src not in Path(weylprod.__file__).resolve().parents:
        print(f"weylprod imported from {weylprod.__file__}, not {src}",
              file=sys.stderr)
        return 2

    report = {"workload": args.workload, "seed": args.seed,
              "rounds": args.rounds, "trace": args.trace,
              "scale": args.scale, "env": environment(),
              "host_calib_s": hostspeed.calibration_s()}
    tracer = Tracer() if args.trace else None

    work = Path(args.report).with_suffix(".out")
    shutil.rmtree(work, ignore_errors=True)
    inputs = workloads.Inputs(args.seed, args.scale)
    build = workloads.BUILDERS[args.workload]
    rounds = []
    first = None
    for index in range(args.rounds):
        out = work / f"r{index}"
        out.mkdir(parents=True)
        ops = build(inputs, str(out))
        traced = tracer if index % 2 else None
        if traced:
            traced.install()
        results, op_s, op_cpu, op_calib = [], [], [], []
        for op in ops:
            fresh_state()
            before = hostspeed.piece(op.calib)
            c0 = process_time()
            t0 = perf_counter()
            results.append(run_op(op, traced))
            op_s.append(perf_counter() - t0)
            op_cpu.append(process_time() - c0)
            op_calib.append((before + hostspeed.piece(op.calib)) / 2)
        if traced:
            traced.uninstall()
        entries = []
        for op, res, s, c, k in zip(ops, results, op_s, op_cpu, op_calib):
            entries.append({"label": op.label, "argv": op.argv,
                            "points": op.points, "seconds": s, "cpu_s": c,
                            "calib": op.calib, "calib_s": k,
                            "problems": problems_of(checks.fast_problems,
                                                    op, res)})
        written = sum(os.path.getsize(p) for op in ops for p in op.outputs
                      if os.path.exists(p))
        rounds.append({"traced": bool(traced), "wall_s": sum(op_s),
                       "points": sum(op.points for op in ops),
                       "bytes_written": written, "ops": entries})
        if first is None:
            first = (ops, results, entries)
            # after one pass through the op list, as a fresh CLI process
            # per op would see it
            report["peak_rss_mb"] = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        else:
            shutil.rmtree(out)

    # reference comparisons on the first round, outside the timed region
    ops, results, entries = first
    for op, res, entry in zip(ops, results, entries):
        if not entry["problems"]:
            entry["problems"] = problems_of(checks.oracle_problems, op, res)
    mc_ops = [i for i, op in enumerate(ops) if op.kind == "mc"]
    if mc_ops:
        i = mc_ops[args.seed % len(mc_ops)]
        entries[i]["rerun"] = True
        if not entries[i]["problems"]:
            entries[i]["problems"] = problems_of(rerun_mc, ops[i], work)
    shutil.rmtree(work, ignore_errors=True)

    report["rounds"] = rounds
    all_ops = [e for r in rounds for e in r["ops"]]
    report["attempted"] = len(all_ops)
    report["failed"] = sum(1 for e in all_ops if e["problems"])
    if tracer:
        report["layers"] = {"calls": tracer.calls, "self_s": tracer.self_s,
                            "total_s": tracer.total_s,
                            "counts": tracer.counts}
        with open(Path(args.report).with_suffix(".spans.json"), "w") as fh:
            json.dump(tracer.spans, fh)
    with open(args.report, "w", encoding="ascii") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
