"""Every `BENCH_*.json` at the root of the repository records the
benchmark's end-to-end metrics for a change and its parent commit: exactly
the workloads of `BENCHMARK.json`, every end-to-end metric of each with its
unit, and positive medians on both sides, the change's median no worse
than the parent's by more than the metric's `bound`. A record that claims
a gain
(`"claim": {"metric", "workload"}`) must show it by the rule for a small
sandbox: at least ten pairs, the change better in at least nine tenths of
them (ties count for neither), and the medians further apart than the
parent's own quartiles. Where a record's `outputs` lists fresh-process
runs of a command on both sides with the sha256 of its stdout, and the two
sides' hashes differ, its `notes` name that command. Only `BENCHMARK.json`
and the records are read; the benchmark's code is not imported."""

import json
import statistics
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


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_shows_no_regression(path):
    # a record of a change that made an end-to-end metric worse than its
    # bound allows, in the direction the metric is better, fails here
    workloads = json.loads(path.read_text(encoding="utf-8"))["workloads"]
    for metric in SPEC["end_to_end"]:
        sign = 1 if metric["better"] == "higher" else -1
        for name, entry in workloads.items():
            got = entry["metrics"][metric["name"]]
            parent = got["parent"]["median"]
            worse = -sign * (got["change"]["median"] - parent) / parent
            assert worse <= metric["bound"], (name, metric["name"], worse)


CLAIMS = [path for path in RECORDS
          if "claim" in json.loads(path.read_text(encoding="utf-8"))]


@pytest.mark.parametrize("path", CLAIMS, ids=lambda p: p.name)
def test_claimed_gain_holds(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    claim = record["claim"]
    entry = record["workloads"][claim["workload"]]
    got = entry["metrics"][claim["metric"]]
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    sign = 1 if better[claim["metric"]] == "higher" else -1
    # runs i of both sides are pair i, one pair per seed
    parent, change = got["parent"]["runs"], got["change"]["runs"]
    pairs = entry["pairs"]
    assert len(parent) == len(change) == len(entry["seeds"]) == pairs >= 10
    for side, runs in (("parent", parent), ("change", change)):
        q1, median, q3 = statistics.quantiles(runs, n=4, method="inclusive")
        assert got[side] == {"median": median, "q1": q1, "q3": q3,
                             "runs": runs}, side
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    assert 10 * wins >= 9 * pairs, (wins, pairs)
    gap = sign * (got["change"]["median"] - got["parent"]["median"])
    assert gap > got["parent"]["q3"] - got["parent"]["q1"]


def moved_outputs(record: dict) -> list:
    """The commands of `record`'s `outputs` whose stdout hashes differ
    between the sides, where an entry is shaped as {description: {command:
    {"parent": [run, ...], "change": [run, ...]}}} and its runs carry
    `stdout_sha256` (None where a run printed nothing)."""
    moved = []
    for group in record.get("outputs", {}).values():
        for command, entry in (group.items() if isinstance(group, dict)
                               else ()):
            sides = [entry.get(side) if isinstance(entry, dict) else None
                     for side in ("parent", "change")]
            if not all(isinstance(runs, list) and runs and all(
                    isinstance(run, dict) for run in runs) for runs in sides):
                continue
            if not any("stdout_sha256" in run for runs in sides
                       for run in runs):
                continue
            parent, change = ({run.get("stdout_sha256") for run in runs}
                              for runs in sides)
            if parent != change:
                moved.append(command)
    return moved


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_moved_outputs_are_named_in_the_notes(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    notes = record.get("notes", "")
    notes = " ".join(notes) if isinstance(notes, list) else notes
    assert [c for c in moved_outputs(record) if c not in notes] == []


def test_moved_outputs_reads_the_runs_of_both_sides():
    def runs(*hashes):
        return [{"exit": 0, "stdout_sha256": h} for h in hashes]

    record = {"outputs": {
        "fresh-process runs": {
            "same": {"parent": runs("a", "a"), "change": runs("a")},
            "moved": {"parent": runs("a"), "change": runs("b", "b")},
            "one run moved": {"parent": runs("a", "a"),
                              "change": runs("a", "b")},
            "killed": {"parent": [{"exit": None}], "change": runs(None)},
        },
        "a prose entry": "every pin passes",
        "other shapes": {"seconds": {"parent": [1.0], "change": [2.0]}},
    }}
    assert moved_outputs(record) == ["moved", "one run moved"]
