"""``benchmarks/record_e2e.py`` over a canned result file: no server."""

from __future__ import annotations

import copy
import json
import pathlib
import sys

import pytest

sys.path.insert(0, str(pathlib.Path(__file__).parent.parent / "benchmarks"))

import record_e2e  # noqa: E402

KEPT = ("attempted", "failed", "end_to_end", "layers")
RESULT = {
    "environment": {"nproc": 2, "commit": "abc123", "seed": 1, "repeats": 3},
    "sets": [{name: {
        "attempted": 600, "failed": 0, "hung": False, "stacks": "",
        "end_to_end": {"throughput_qps": {
            "median": 130.5, "spread": 0.04,
            "values": [128.1, 130.5, 133.3], "raw_median": 119.25}},
        "layers": {"sim.wall_ms_per_query": 21.53708604470174,
                   "sim.cpu_ops_per_query": 101644.945},
        "invariants": [],
    } for name in ("cold_scan", "tight_spill")}],
}


def test_record_carries_the_trajectory_keys():
    record = record_e2e.build_record(RESULT, "abc123", True)
    assert (record["commit"], record["dirty"]) == ("abc123", True)
    assert record["command"].endswith("run.py --seed 1 --repeats 3 --traced")
    assert record["environment"] == RESULT["environment"]
    assert record["workloads"] == {
        name: {key: res[key] for key in KEPT}
        for name, res in RESULT["sets"][0].items()}


@pytest.mark.parametrize("breakage", [
    {"failed": 1}, {"hung": True},
    {"invariants": ["tight_spill: storage.spilled_rects_per_query = 0"]},
])
def test_a_broken_run_is_refused(breakage):
    result = copy.deepcopy(RESULT)
    result["sets"][0]["tight_spill"].update(breakage)
    with pytest.raises(ValueError, match="tight_spill"):
        record_e2e.build_record(result, "abc123", False)


def test_append_leaves_earlier_records_byte_identical(tmp_path):
    path = tmp_path / "BENCH_e2e.json"
    record_e2e.append_record(
        path, record_e2e.build_record(RESULT, "abc123", True))
    first = path.read_bytes()
    record_e2e.append_record(
        path, record_e2e.build_record(RESULT, "def456", False))
    assert path.read_bytes().startswith(first[:-len("]\n")])
    assert [r["commit"] for r in json.loads(path.read_text())] == [
        "abc123", "def456"]
