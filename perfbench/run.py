"""qusp benchmark: one workload run, end-to-end or traced.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a checkout.  With ``--trace 0`` it measures set-up time
in fresh interpreters, runs the workload in a child process (``measure.py``)
and prints every end-to-end metric; with ``--trace 1`` the child alternates
untraced and traced passes and it prints every per-layer metric and the
tracing overhead.  Human-readable lines come first; the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  See ``perfbench/README.md`` for what each workload and metric is.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

# Set-up is timed in two batches, before and after the workload, so a slow
# spell of the machine does not land on every sample of one run.
SETUP_REPEATS = 8
# Fresh interpreter -> import qusp.cli -> first validate_scenario done (schema loaded).
SETUP_CODE = (
    "import sys; sys.path.insert(0, sys.argv[1]); import qusp.cli as cli; "
    "cli.validate_scenario({'scenario': 'singular_scan', 'n': 1}); "
    "sys.stdout.write('ready\\n'); sys.stdout.flush()"
)
CHILD_GRACE_S = 120
TAIL_BEYOND = 10


def child_env() -> dict:
    env = dict(os.environ)
    # The default serial path is what is measured.
    env.pop("QUSP_THREADS", None)
    env["PYTHONHASHSEED"] = "0"
    return env


def setup_times(env: dict, warm_up: bool) -> list[float]:
    """Time to a loaded schema in fresh interpreters."""
    samples = []
    for i in range(SETUP_REPEATS + warm_up):
        start = perf_counter()
        with subprocess.Popen(
            [sys.executable, "-c", SETUP_CODE, str(SRC)], stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True
        ) as proc:
            line = proc.stdout.readline()
            elapsed = perf_counter() - start
            proc.stdout.read()
            code = proc.wait(timeout=60)
        if line.strip() != "ready" or code != 0:
            raise RuntimeError(f"set-up probe failed with exit code {code}")
        if i or not warm_up:
            samples.append(elapsed)
    return samples


def run_child(args, env: dict) -> dict:
    cmd = [
        sys.executable, str(HERE / "measure.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    proc = subprocess.run(
        cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True, timeout=args.seconds + CHILD_GRACE_S
    )
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tail(samples: list[float]) -> tuple[int, float] | None:
    """Highest whole percentile with at least TAIL_BEYOND samples beyond it (nearest rank).

    None below 10 * TAIL_BEYOND samples, where that percentile would fall under p90.
    """
    n = len(samples)
    if n < 10 * TAIL_BEYOND:
        return None
    pct = math.floor(100 * (1 - TAIL_BEYOND / n))
    return pct, sorted(samples)[math.ceil(pct * n / 100) - 1]


def upper_quartile(samples: list[float]) -> float:
    """p75, interpolated within the samples.

    On a shared machine the speed alternates between a contended steady state
    and shorter spells of running alone; the median and lower quantiles of a
    run jump with those spells, while the upper quartile tracks the steady
    state (see README.md, "Why upper quartiles").
    """
    if len(samples) == 1:
        return samples[0]
    return statistics.quantiles(samples, n=4, method="inclusive")[2]


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="qusp benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qusp" / "cli.py").is_file():
        print(f"perfbench: no qusp sources at {SRC / 'qusp'}; nothing to measure", file=sys.stderr)
        return 2
    env = child_env()
    try:
        setup = [] if args.trace else setup_times(env, warm_up=True)
        child = run_child(args, env)
        if not args.trace:
            setup += setup_times(env, warm_up=False)
    except (RuntimeError, OSError, ValueError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "qusp_threads_removed": "QUSP_THREADS" in os.environ,
        **child["env"],
    }
    print("run " + json.dumps(record, sort_keys=True))
    print("shapes " + json.dumps(child["shapes"], sort_keys=True))
    for failure in child["failures"]:
        print("failure " + failure)

    calls = child["call_times_s"]
    if args.trace:
        metrics = child["layers"]
        walls = child["pass_walls_s"], child["traced_pass_walls_s"]
        diffs = child["overhead_diffs_s"]
        # Within noise when some round's traced pass was no slower than its untraced one.
        noise = " (within noise)" if min(diffs) <= 0 else ""
        print(
            f"trace median pass untraced={statistics.median(walls[0])!r} s traced={statistics.median(walls[1])!r} s "
            f"traced passes={len(walls[1])} spans={child['spans']} written to {child['span_file']}"
        )
        print(f"trace overhead per round min={min(diffs)!r} max={max(diffs)!r} s{noise}")
    else:
        metrics = {
            "wall_s": {"value": upper_quartile(child["pass_walls_s"]), "unit": "s"},
            "scenario_s.p75": {"value": upper_quartile(calls), "unit": "s"},
            "setup_s": {"value": upper_quartile(setup), "unit": "s"},
            "peak_rss_mb": {"value": child["peak_rss_mb"], "unit": "MB"},
        }
        print(f"median scenario_s.p50 = {statistics.median(calls)!r} s over {len(calls)} calls")
        tail_point = tail(calls)
        if tail_point is None:
            print(f"tail scenario_s.tail omitted: {len(calls)} calls, fewer than {10 * TAIL_BEYOND}")
        else:
            pct, value = tail_point
            print(f"tail scenario_s.tail = p{pct} {value!r} s over {len(calls)} calls")
    print(f"fail_ratio = {child['failed']}/{child['attempted']} failed/attempted")
    for name, metric in metrics.items():
        absent = " (absent: its target no longer exists)" if metric.get("absent") else ""
        print(f"metric {name} = {metric['value']!r} {metric['unit']}{absent}")
    result = {
        "correct": child["failed"] == 0,
        "attempted": child["attempted"],
        "failed": child["failed"],
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
