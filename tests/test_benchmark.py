"""The benchmark's own self-test, run against the library as it stands: a
library change that blinds one of its correctness gates (say, an act-cold
check that no longer compares two independent routes) fails here."""

import subprocess
import sys
from pathlib import Path

SELFTEST = Path(__file__).resolve().parent.parent / "perfbench" / "selftest.py"


def test_benchmark_selftest_passes():
    proc = subprocess.run([sys.executable, str(SELFTEST)], cwd=SELFTEST.parent.parent,
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
