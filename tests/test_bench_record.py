"""Every committed benchmark record, BENCH_<n>.json at the repository root,
is complete: for every workload of BENCHMARK.json and each side, the median
and quartiles of every end-to-end metric it names, plus the seeds, the
number of pairs, both revisions, the Python version and nproc."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_benchmark_record_is_complete(path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = json.loads(path.read_text())
    assert record["pairs"] == len(record["seeds"]) >= 10
    assert all(record["revisions"][side] for side in ("base", "change"))
    assert record["python"] and record["nproc"] >= 1
    assert set(record["workloads"]) == {w["name"] for w in bench["workloads"]}
    for workload in record["workloads"].values():
        for side in ("base", "change"):
            for metric in bench["end_to_end"]:
                summary = workload[side][metric["name"]]
                assert summary["q1"] <= summary["median"] <= summary["q3"]
                assert len(summary["values"]) == record["pairs"]
