"""The benchmark's per-layer tracing (`bench/tracing.py`) wraps weylprod
functions it names by string; a name that no longer resolves breaks
`bench/run.py --trace 1` and `--smoke`, so every one is checked here."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_tracing_targets_resolve():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attr, _, _ in tracing.TARGETS:
        obj = importlib.import_module(f"weylprod.{module}")
        for name in attr.split("."):
            obj = getattr(obj, name, None)
        assert callable(obj), f"weylprod.{module}.{attr}"


def test_tracer_hooks_run_on_every_workload_kind(tmp_path, capsys):
    """One tiny op of every benchmark workload kind under the installed
    tracer: its count hooks read the traced results (a change to their
    shape fails here, not first in a traced benchmark round), and
    `uninstall` restores the original functions."""
    from weylprod import cli, discrepancy, products
    from weylprod.sequences import van_der_corput

    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    saved = products.product_trace
    out = str(tmp_path)
    commands = [
        ["verify", "ostrowski", "--n-max", "200", "--out", f"{out}/o.json"],
        ["verify", "cesaro", "--n-max", "200", "--out", f"{out}/c.json"],
        ["verify", "type-growth", "--n-max", "200", "--t", "1.5",
         "--out", f"{out}/t.json"],
        ["verify", "kronecker-sandwich", "--q-max", "100",
         "--out", f"{out}/s.json"],
        ["verify", "conjectures", "--n-max", "200", "--out", f"{out}/j.json"],
        ["verify", "hlawka", "--gen", "kronecker", "--n-max", "200",
         "--out", f"{out}/hk.json"],
        ["verify", "hlawka", "--gen", "vdc", "--n-max", "200",
         "--out", f"{out}/hv.json"],
        ["verify", "hlawka", "--gen", "grid", "--N", "200",
         "--out", f"{out}/hg.json"],
        ["verify", "vdc-limits", "--s-max", "4", "--out", f"{out}/v.json"],
        ["verify", "extremal", "--n-max", "64", "--format", "csv",
         "--out", f"{out}/sweep.csv"],
        ["mc", "iid", "--paths", "2", "--n-max", "1000",
         "--out", f"{out}/iid"],
        ["mc", "rademacher", "--paths", "2", "--n-max", "200",
         "--out", f"{out}/rad"],
        ["mc", "subsequence", "--paths", "2", "--terms", "200",
         "--out", f"{out}/sub"],
        ["figure", "--n-max", "50", "--out", f"{out}/f.csv"],
        ["figure", "--n-max", "50", "--normalizer", "one_over_N",
         "--format", "json", "--out", f"{out}/f.json"],
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [cli.main(args) for args in commands]
        discrepancy.star_discrepancy(van_der_corput(64))
    finally:
        tracer.uninstall()
    capsys.readouterr()
    assert codes == [0] * len(commands)
    for name in ("products.float_terms", "extremal.sweep.rows",
                 "numerics.log_two_sin_pi_array.elements"):
        assert tracer.counts.get(name, 0) > 0, name
    assert products.product_trace is saved
    assert cli.bnd.product_trace is saved
