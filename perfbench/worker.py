"""One pass of a sweep, or one session of act-cold, in a fresh interpreter.

    python3 perfbench/worker.py --workload W --seed S --index K --trace 0|1

Imports glcrystals from the `src/` directory beside this one (and refuses
any other copy), builds the inputs, records the moment it is ready, runs the
timed phase, checks the outputs and prints one JSON object.  With
`--trace 1` the timed phase runs under the span tracer and the object also
carries the per-layer metrics of the pass.
"""

import argparse
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".bench_out"
EXPECTED = Path(__file__).resolve().parent / "expected.json"

sys.path.insert(0, str(ROOT / "src"))
import glcrystals  # noqa: E402

if Path(glcrystals.__file__).resolve().parent != ROOT / "src" / "glcrystals":
    raise SystemExit(f"glcrystals imported from {glcrystals.__file__}, "
                     f"not from {ROOT / 'src'}")

import spans  # noqa: E402
import workloads  # noqa: E402

FAILURES_KEPT = 5


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def _run_sweep(instances, tracer):
    latencies = []
    checked = dict.fromkeys(workloads.VERIFIERS, 0)
    seconds = dict.fromkeys(workloads.VERIFIERS, 0.0)
    failures = []
    start = time.perf_counter()
    for k, inst in enumerate(instances):
        if tracer is not None:
            tracer.request = k
        t0 = time.perf_counter()
        try:
            count, ok, witness = inst.call()
        except Exception as exc:  # a broken model is a failed check
            count, ok, witness = 0, False, repr(exc)
        dt = time.perf_counter() - t0
        latencies.append(dt)
        checked[inst.verifier] += count
        seconds[inst.verifier] += dt
        if not ok:
            failures.append(f"{inst.verifier}: {witness}")
    wall = time.perf_counter() - start
    return wall, latencies, checked, seconds, failures


def _check_totals(workload, size, checked):
    """Each verifier's total against its closed form, or else against the
    total recorded from the seed commit.  Returns (attempted, failures)."""
    with open(EXPECTED) as src:
        expected = json.load(src)[workload][size]
    expected.update(workloads.closed_form_totals(workload, size))
    failures = [f"{name}: checked {checked[name]}, expected {total}"
                for name, total in expected.items() if checked[name] != total]
    return len(expected), failures


def _run_stream(stream, tracer):
    latencies = []
    responses = []
    start = time.perf_counter()
    for k, request in enumerate(stream):
        if tracer is not None:
            tracer.request = k
        t0 = time.perf_counter()
        try:
            response = workloads.serve(request)
        except Exception as exc:  # a broken model is a failed request
            response = exc
        latencies.append(time.perf_counter() - t0)
        responses.append(response)
    wall = time.perf_counter() - start
    return wall, latencies, responses


def _check_stream(stream, responses):
    """Runs after the whole session, so the checks cannot warm a later
    request's memo tables."""
    failures = []
    for request, response in zip(stream, responses):
        if isinstance(response, Exception):
            failures.append(f"{request.kind}: {response!r}")
            continue
        try:
            ok = workloads.check_response(request, response)
        except Exception as exc:  # a broken model can break the check route
            ok, response = False, exc
        if not ok:
            failures.append(f"{request.kind}: wrong answer {response!r}")
    return failures


def _layer_metrics(tracer, checked, seconds) -> dict[str, float]:
    totals = tracer.totals()

    def calls(*names):
        return sum(totals[name][0] for name in names)

    def self_s(*names):
        return sum(totals[name][1] for name in names)

    xi_calls = calls(spans.XI)
    out = {
        "core.xi.calls": xi_calls,
        "core.xi.hit_ratio": tracer.xi_hits / xi_calls if xi_calls else 0.0,
        "core.xi.self_s": self_s(spans.XI),
        "core.xi.miss_s": tracer.xi_miss_s,
        "core.xi.useful_ratio": (len(tracer.xi_returned) / tracer.xi_filled
                                 if tracer.xi_filled else 0.0),
        "core.component.largest": tracer.largest_component,
        "core.memo_entries": tracer.memo_entries(),
        "tensor.tensor_crystal.calls": calls("tensor.tensor_crystal"),
    }
    for name in ("inner_act", "outer_act"):
        out[f"cactus.{name}.calls"] = calls(f"cactus.{name}")
        out[f"cactus.{name}.self_s"] = self_s(f"cactus.{name}")
    for name in ("duality_iso", "duality_inv", "outer_on_rows", "inner_on_cols"):
        out[f"skewhowe.{name}.self_s"] = self_s(f"skewhowe.{name}")
    for name in ("Re", "Rf", "Ce", "Cf"):
        out[f"matrices.{name}.calls"] = calls(f"matrices.{name}")
        out[f"matrices.{name}.self_s"] = self_s(f"matrices.{name}")
    groups = {"tensor.e_f": ("tensor.TensorCrystal.e", "tensor.TensorCrystal.f"),
              "tableaux.apply_e_f": ("tableaux.apply_e", "tableaux.apply_f"),
              "gt.bk_q": ("gt.bk_q",)}
    for metric, names in groups.items():
        out[f"{metric}.calls"] = calls(*names)
        out[f"{metric}.self_s"] = self_s(*names)
    replays = {"matrices.Re.call_us": "matrices.Re",
               "matrices.Ce.call_us": "matrices.Ce",
               "tensor.e.call_us": "tensor.TensorCrystal.e",
               "tableaux.apply_f.call_us": "tableaux.apply_f",
               "skewhowe.duality_iso.call_us": "skewhowe.duality_iso",
               "skewhowe.outer_on_rows.call_us": "skewhowe.outer_on_rows"}
    for metric, name in replays.items():
        out[metric] = tracer.replay_us(name)
    for name in workloads.VERIFIERS:
        out[f"verify.{name}.s"] = seconds.get(name, 0.0)
        out[f"verify.{name}.checked"] = checked.get(name, 0)
    return out


def run_pass(workload: str, seed: int, index: int, trace: bool,
             size: str = "full") -> dict:
    """Build, time and check one pass; the result is what `main` prints."""
    if workload == "act-cold":
        stream = workloads.act_cold(seed, index, size)
    elif workload == "sweep-transport":
        instances = workloads.sweep_transport(seed, index, size)
    else:
        instances = workloads.sweep_operators(seed, index, size)
    ready = time.monotonic()
    tracer = spans.Tracer(glcrystals, seed) if trace else None
    if tracer is not None:
        tracer.install()
    try:
        if workload == "act-cold":
            wall, latencies, responses = _run_stream(stream, tracer)
        else:
            wall, latencies, checked, seconds, failures = _run_sweep(instances,
                                                                     tracer)
        rss = _peak_rss_mb()
    finally:
        if tracer is not None:
            tracer.uninstall()
    if workload == "act-cold":
        failures = _check_stream(stream, responses)
        attempted = units = len(stream)
        checked, seconds = {}, {}
    else:
        gates, total_failures = _check_totals(workload, size, checked)
        failures += total_failures
        attempted = len(instances) + gates
        units = sum(checked.values())
    result = {"ready": ready, "wall_s": wall, "latencies": latencies,
              "units": units, "peak_rss_mb": rss, "attempted": attempted,
              "failed": len(failures), "failures": failures[:FAILURES_KEPT]}
    if tracer is not None:
        result["layers"] = _layer_metrics(tracer, checked, seconds)
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}")
    return result


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed, args.index, bool(args.trace))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
