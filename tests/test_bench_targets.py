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
