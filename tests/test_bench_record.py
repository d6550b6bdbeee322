"""Every committed benchmark record, BENCH_<n>.json at the repository root,
is complete: for every workload of BENCHMARK.json and each side, the median
and quartiles of every end-to-end metric it names, plus the seeds, the
number of pairs, both revisions, the Python version and nproc.  A record
made since a raw metric was added has it too: each side's unscaled wall_s
and cold_s medians from BENCH_37 on, and its unscaled setup_s median from
BENCH_39 on, summarized the same way."""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
RAW = {"wall_s_raw": 37, "cold_s_raw": 37, "setup_s_raw": 39}  # the first record with it


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_benchmark_record_is_complete(path):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = json.loads(path.read_text())
    assert record["pairs"] == len(record["seeds"]) >= 10
    assert all(record["revisions"][side] for side in ("base", "change"))
    assert record["python"] and record["nproc"] >= 1
    assert set(record["workloads"]) == {w["name"] for w in bench["workloads"]}
    raw = [name for name, first in RAW.items() if int(path.stem.removeprefix("BENCH_")) >= first]
    for workload in record["workloads"].values():
        for side in ("base", "change"):
            assert all(v > 0 for name in raw for v in workload[side][name]["values"])
            for name in [metric["name"] for metric in bench["end_to_end"]] + raw:
                summary = workload[side][name]
                assert summary["q1"] <= summary["median"] <= summary["q3"]
                assert len(summary["values"]) == record["pairs"]
