"""Self-test of the benchmark's correctness gate and tracer.

    python3 perfbench/selftest.py

Each workload runs at its smallest size in a fresh interpreter.  Against the
library as it stands every gate passes (fail share 0); with a broken
operator patched in, inside the test process only, the gate fails.  A small
traced pass checks that the self times of each span's subtree add up to the
span's duration.
"""

import json
import subprocess
import sys
import unittest
from pathlib import Path

import spans

HERE = Path(__file__).resolve().parent
SEED = 1


def run_case(workload: str, fault: str = "none", trace: bool = False) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "selftest.py"), "--case", workload, fault,
         str(int(trace))], capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise AssertionError(proc.stderr)
    return json.loads(proc.stdout.splitlines()[-1])


def fail_share(result: dict) -> float:
    return result["failed"] / result["attempted"]


# ---------------------------------------------------------------------------
# broken models, patched in by the case process only

def flipped_ce() -> None:
    """C raising that acts in the column closest to 1 instead of closest
    to m."""
    from glcrystals import matrices

    def Ce(M, j):
        prof = matrices.col_eps_profile(M, j)
        best = max(prof)
        if best <= 0:
            return None
        return matrices._swap_in_col(M, j - 1, prof.index(best), (1, 0))

    spans.rebind("glcrystals", matrices.Ce, Ce)


def non_involutive_xi() -> None:
    """Schutzenberger involution that fixes every element whose image is
    larger, so it no longer squares to the identity."""
    from glcrystals import core
    original = core.schuetzenberger

    def schuetzenberger(crystal, b, nodes):
        image = original(crystal, b, nodes)
        return image if image <= b else b

    spans.rebind("glcrystals", original, schuetzenberger)


FAULTS = {"none": lambda: None, "flipped_ce": flipped_ce,
          "non_involutive_xi": non_involutive_xi}


def case_main(workload: str, fault: str, trace: str) -> None:
    import worker
    FAULTS[fault]()
    result = worker.run_pass(workload, SEED, 0, trace == "1", size="small")
    del result["latencies"]
    print(json.dumps(result))


# ---------------------------------------------------------------------------

class GateTest(unittest.TestCase):
    def test_every_workload_passes_at_the_seed(self):
        for workload in ("sweep-transport", "sweep-operators", "act-cold"):
            with self.subTest(workload=workload):
                result = run_case(workload)
                self.assertGreater(result["attempted"], 0)
                self.assertEqual(fail_share(result), 0, result["failures"])

    def test_flipped_tie_break_fails(self):
        for workload in ("sweep-operators", "act-cold"):
            with self.subTest(workload=workload):
                self.assertGreater(fail_share(run_case(workload, "flipped_ce")), 0)

    def test_non_involutive_xi_fails(self):
        for workload in ("sweep-transport", "act-cold"):
            with self.subTest(workload=workload):
                result = run_case(workload, "non_involutive_xi")
                self.assertGreater(fail_share(result), 0)


class TraceTest(unittest.TestCase):
    def test_self_times_add_up(self):
        for workload in ("sweep-transport", "sweep-operators", "act-cold"):
            with self.subTest(workload=workload):
                result = run_case(workload, trace=True)
                self.assertEqual(fail_share(result), 0, result["failures"])
                data = spans.read_spans(HERE.parent / ".bench_out" /
                                        f"spans-{workload}")
                self.assertEqual(data["header"]["dropped"], 0)
                start, end, parent = data["start"], data["end"], data["parent"]
                own = spans.self_times(data)
                subtree = list(own)
                # children open after their parent, so they have larger indices
                for k in range(len(start) - 1, -1, -1):
                    self.assertGreaterEqual(own[k], -1e-9)
                    p = parent[k]
                    if p >= 0:
                        self.assertLessEqual(start[p], start[k])
                        self.assertLessEqual(end[k], end[p])
                        subtree[p] += subtree[k]
                for k in range(len(start)):
                    self.assertAlmostEqual(subtree[k], end[k] - start[k], delta=1e-6)
                # the on-the-fly totals agree with the stored spans
                names = data["header"]["names"]
                ce = names.index("matrices.Ce")
                stored = sum(own[k] for k, n in enumerate(data["name"]) if n == ce)
                self.assertAlmostEqual(result["layers"]["matrices.Ce.self_s"],
                                       stored, delta=1e-6)


if __name__ == "__main__":
    if len(sys.argv) == 5 and sys.argv[1] == "--case":
        case_main(*sys.argv[2:])
    else:
        unittest.main()
