"""Every `BENCH_*.json` at the root of the repository records the
benchmark's end-to-end metrics for a change and its parent commit: exactly
the workloads of `BENCHMARK.json`, every end-to-end metric of each with its
unit, and positive medians on both sides. Only `BENCHMARK.json` and the
records are read; the benchmark's code is not imported."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_a_record_is_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_matches_the_benchmark(path):
    workloads = json.loads(path.read_text(encoding="utf-8"))["workloads"]
    assert sorted(workloads) == sorted(w["name"] for w in SPEC["workloads"])
    for name, entry in workloads.items():
        assert entry["pairs"] >= 1, name
        for metric in SPEC["end_to_end"]:
            got = entry["metrics"][metric["name"]]
            assert got["unit"] == metric["unit"], (name, metric["name"])
            for side in ("parent", "change"):
                stats = got[side]
                assert stats["median"] > 0, (name, metric["name"], side)
                assert stats["q1"] <= stats["median"] <= stats["q3"]
