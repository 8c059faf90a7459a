"""glcrystals benchmark: run one workload and print its metrics.

    python3 perfbench/run.py --workload sweep-transport --seed 1 --seconds 20 --trace 0

Every pass of a sweep and every act-cold session runs in a fresh
interpreter (`worker.py`), so the memo tables start empty and the peak RSS
is that pass's own.  Passes run one after another, in one closed loop, until
`--seconds` have gone by; at least one always runs.

With `--trace 0` the last line of standard output carries the end-to-end
metrics; with `--trace 1` each pass runs twice on the same inputs, untraced
and then traced, and the line carries the per-layer metrics.  The line
before it records the seed, the git SHA and a digest of the sources, and the
full record goes to `.bench_out/`.
"""

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT = ROOT / ".bench_out"
WORKLOADS = ("sweep-transport", "sweep-operators", "act-cold")
RUN_LIMIT_S = 170


class PassFailed(Exception):
    pass


def git_sha() -> str | None:
    """HEAD of the checkout's git directory, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def run_worker(workload: str, seed: int, index: int, trace: bool,
               deadline: float) -> dict:
    spawned = time.monotonic()
    cmd = [sys.executable, str(WORKER), "--workload", workload,
           "--seed", str(seed), "--index", str(index), "--trace", str(int(trace))]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - spawned))
    except subprocess.TimeoutExpired:
        raise PassFailed(f"pass {index} ran past the run limit") from None
    if proc.returncode != 0:
        raise PassFailed(f"pass {index} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.splitlines()
    if not lines:
        raise PassFailed(f"pass {index} printed no result")
    result = json.loads(lines[-1])
    result["setup_s"] = result.pop("ready") - spawned
    return result


def percentile(sorted_values: list[float], p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def end_to_end(passes: list[dict]) -> dict[str, tuple[float, str]]:
    latencies = sorted(x for p in passes for x in p["latencies"])
    median = statistics.median
    return {
        "setup_s": (median(p["setup_s"] for p in passes), "s"),
        "wall_s": (median(p["wall_s"] for p in passes), "s"),
        "throughput_per_s": (median(p["units"] / p["wall_s"] for p in passes), "1/s"),
        "latency_p50_ms": (percentile(latencies, 50) * 1e3, "ms"),
        "latency_p99_ms": (percentile(latencies, 99) * 1e3, "ms"),
        "peak_rss_mb": (median(p["peak_rss_mb"] for p in passes), "MB"),
    }


LAYER_UNITS = ((("_s", ".s"), "s"), (("_us",), "us"), (("_ratio",), "ratio"))


def layer_unit(name: str) -> str:
    for suffixes, unit in LAYER_UNITS:
        if name.endswith(suffixes):
            return unit
    return "count"


def per_layer(traced: list[dict], untraced: list[dict]) -> dict[str, tuple[float, str]]:
    names = traced[0]["layers"]
    out = {name: (statistics.median(p["layers"][name] for p in traced),
                  layer_unit(name)) for name in names}
    ratio = statistics.median(t["wall_s"] / u["wall_s"]
                              for t, u in zip(traced, untraced))
    out["trace.overhead_ratio"] = (ratio, "ratio")
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    start = time.monotonic()
    deadline = start + RUN_LIMIT_S
    untraced, traced = [], []
    try:
        while not untraced or time.monotonic() - start < args.seconds:
            index = len(untraced)
            untraced.append(run_worker(args.workload, args.seed, index, False,
                                       deadline))
            if args.trace:
                traced.append(run_worker(args.workload, args.seed, index, True,
                                         deadline))
    except PassFailed as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    if args.trace:
        metrics = per_layer(traced, untraced)
    else:
        metrics = end_to_end(untraced)
    passes = untraced + traced
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    info = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "git_sha": git_sha(), "src_sha256": source_digest(),
            "passes": len(untraced)}
    record = dict(info, metrics=metrics, failures=[
        f for p in passes for f in p["failures"]],
        per_pass=[{k: p[k] for k in ("setup_s", "wall_s", "units",
                                     "peak_rss_mb", "attempted", "failed")}
                  for p in passes])
    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    for failure in record["failures"]:
        print(f"failure: {failure}", file=sys.stderr)
    print("run: " + json.dumps(info))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
