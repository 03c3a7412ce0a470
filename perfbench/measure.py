"""One workload run in a fresh, single-threaded process.

Run by ``run.py`` as ``python3 perfbench/measure.py --workload W --seed N
--seconds S --trace 0|1``.  It imports qusp from ``src/``,
builds the workload's scenario list from the seed, and runs whole passes over
that list (closed loop, one client, serial) while another pass still fits in
``--seconds``.  Every call goes through ``qusp.cli.run_scenario`` and every
report is checked.  It prints one JSON line of raw measurements.

With ``--trace 1`` untraced and traced passes alternate, so the tracing
overhead is measured in the same process on the same inputs.  The self-tests
call `measure` directly with ``size="tiny"``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402
from layertrace import LayerTracer, layer_metrics  # noqa: E402

REFERENCE_FILE = HERE / "reference.json"
SPAN_DIR = HERE / "out"
SPAN_FIELDS = ("trace", "span", "parent", "name", "start_ns", "end_ns")


def load_references(workload: str, seed: int, size: str, count: int) -> list[dict] | None:
    """Stored digests for the default seed; a missing entry fails its scenario."""
    if seed != workloads.DEFAULT_SEED or size != "full":
        return None
    missing = {"sha256": "missing from reference.json", "exit": None}
    try:
        stored = json.loads(REFERENCE_FILE.read_text())["workloads"][workload]
    except (OSError, KeyError, ValueError):
        stored = []
    if len(stored) != count:
        return [missing] * count
    return stored


def run_pass(
    cli, items: list[dict], refs: list[dict] | None, tracer: LayerTracer | None = None, tag: str = ""
) -> tuple[list[float], list[str]]:
    """Run every scenario once; return the call times and what failed."""
    gc.collect()
    times: list[float] = []
    failures: list[str] = []
    for i, item in enumerate(items):
        if tracer is not None:
            tracer.trace_id = f"{tag}/{i}"
        start = perf_counter()
        try:
            code, _text, report = cli.run_scenario(item["scenario"])
        except Exception as exc:  # a raising input is a failed scenario, never skipped
            times.append(perf_counter() - start)
            failures.append(f"scenario {i}: {type(exc).__name__}: {exc}")
            continue
        times.append(perf_counter() - start)
        problem = workloads.check_output(
            item, code, report, cli.canonical_report_bytes(report), refs[i] if refs else None
        )
        if problem:
            failures.append(f"scenario {i}: {problem}")
    return times, failures


def measure(workload: str, seed: int, seconds: float, trace: bool, size: str = "full") -> dict:
    """Run whole passes while another fits in ``seconds``; return the raw record."""
    import qusp.cli as cli

    items = workloads.build(workload, seed, size)
    refs = load_references(workload, seed, size, len(items))
    calls: list[float] = []
    walls: list[float] = []
    traced_walls: list[float] = []
    failures: list[str] = []
    tracer = LayerTracer() if trace else None
    start = perf_counter()
    rounds: list[float] = []
    while True:
        round_start = perf_counter()
        # Which pass of a round goes first alternates, so an order effect
        # does not bias the tracing overhead.
        order = ("plain", "traced") if len(rounds) % 2 == 0 else ("traced", "plain")
        for kind in order if tracer is not None else ("plain",):
            if kind == "plain":
                times, failed = run_pass(cli, items, refs)
                calls.extend(times)
                walls.append(sum(times))
            else:
                tracer.install()
                try:
                    times, failed = run_pass(cli, items, refs, tracer, f"p{len(traced_walls)}")
                finally:
                    tracer.uninstall()
                traced_walls.append(sum(times))
            failures.extend(failed)
        rounds.append(perf_counter() - round_start)
        if perf_counter() - start + statistics.median(rounds) > seconds:
            break
    out = {
        "workload": workload,
        "seed": seed,
        "size": size,
        "shapes": workloads.shapes_summary(workload, items),
        "attempted": len(calls) + len(traced_walls) * len(items),
        "failed": len(failures),
        "failures": failures[:20],
        "passes": len(walls),
        "pass_walls_s": walls,
        "call_times_s": calls,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "env": {
            "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "qusp_threads": os.environ.get("QUSP_THREADS"),
            "pythonhashseed": os.environ.get("PYTHONHASHSEED"),
        },
    }
    if tracer is not None:
        layers = layer_metrics(tracer, len(traced_walls))
        # Traced minus untraced pass of the same round, so slow drift of the
        # machine's speed cancels; the median over rounds.
        diffs = [t - u for t, u in zip(traced_walls, walls)]
        layers["trace.overhead_s"] = {"value": statistics.median(diffs), "unit": "s"}
        out["overhead_diffs_s"] = diffs
        out["layers"] = layers
        out["traced_pass_walls_s"] = traced_walls
        out["spans"] = len(tracer.spans)
        out["span_file"] = write_spans(workload, seed, tracer.spans)
    return out


def write_spans(workload: str, seed: int, spans: list[tuple]) -> str:
    SPAN_DIR.mkdir(exist_ok=True)
    path = SPAN_DIR / f"spans-{workload}-seed{seed}.json"
    path.write_text(json.dumps({"fields": SPAN_FIELDS, "spans": spans}))
    return str(path.relative_to(ROOT))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
