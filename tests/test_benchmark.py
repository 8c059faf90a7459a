"""The benchmark's own self-test, run against the library as it stands: a
library change that blinds one of its correctness gates (say, an act-cold
check that no longer compares two independent routes) fails here.  The
`BENCH_*.json` records at the repository root must cover every workload and
end-to-end metric that `BENCHMARK.json` declares, on both sides."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SELFTEST = ROOT / "perfbench" / "selftest.py"
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)], cwd=SELFTEST.parent.parent,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]


def test_there_is_a_bench_record():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[p.name for p in RECORDS])
def test_bench_record_covers_every_workload_and_metric(path):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [metric["name"] for metric in declared["end_to_end"]]
    assert len(names) == 6
    record = json.loads(path.read_text())
    for workload in declared["workloads"]:
        entry = record["workloads"][workload["name"]]
        assert entry["pairs"] == len(entry["seeds"]) >= 1
        for name in names:
            metric = entry["metrics"][name]
            for side in ("parent", "change"):
                stats = metric[side]
                assert len(stats["runs"]) == entry["pairs"]
                assert stats["q1"] <= stats["median"] <= stats["q3"]
