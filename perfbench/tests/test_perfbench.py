"""Self-tests of the benchmark: tiny runs of every workload, metric names and
units, failure accounting, and the per-layer zero predictions.

Run with ``python3 -m pytest -q perfbench/tests``.
"""

from __future__ import annotations

import functools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import measure  # noqa: E402
import workloads  # noqa: E402
from layertrace import METRICS, LayerTracer, layer_metrics  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

# Layers each workload must exercise, and layers it must leave alone.
WORKS = {
    "dense_strata": ("intervals", "ratcover"),
    "dense_certs": ("intervals", "ratcover"),
    "kelley_ladders": ("metrize", "relcore"),
    "qh_compare": ("hyper", "relcore", "quniform"),
}
IDLE = {
    "dense_strata": ("hyper", "metrize", "relcore", "quniform"),
    "dense_certs": ("hyper", "metrize", "relcore", "quniform"),
    "kelley_ladders": ("intervals", "ratcover", "hyper", "quniform"),
    "qh_compare": ("intervals", "ratcover", "metrize"),
}


@pytest.fixture(scope="module")
def traced():
    # seconds=0 still runs one untraced and one traced pass.
    return {w: measure.measure(w, seed=5, seconds=0, trace=True, size="tiny") for w in workloads.WORKLOADS}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_of_every_workload_passes_its_checks(traced, workload):
    run = traced[workload]
    assert run["failed"] == 0, run["failures"]
    assert run["attempted"] == 2 * run["shapes"]["scenarios"]
    assert set(run["layers"]) == {m["name"] for m in SPEC["per_layer"]}


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_layer_counts_are_zero_exactly_where_predicted(traced, workload):
    layers = traced[workload]["layers"]
    for layer in WORKS[workload]:
        assert layers[f"{layer}.self_s"]["value"] > 0, layer
    for layer in IDLE[workload]:
        for name, metric in layers.items():
            if name.startswith(layer + "."):
                assert metric["value"] == 0, name
    assert not any(m.get("absent") for m in layers.values())


def test_layer_counts_name_the_work():
    # One dense and one finite run, where the table in the README says each count moves.
    dense = measure.measure("dense_certs", seed=1, seconds=0, trace=True, size="tiny")["layers"]
    for name in ("intervals.and_calls", "intervals.sub_calls", "intervals.le_calls", "intervals.contains_calls",
                 "intervals.sets_built", "intervals.ops", "ratcover.grid_points", "ratcover.star_cover_calls",
                 "ratcover.min_index_calls", "ratcover.image_calls"):
        assert dense[name]["value"] > 0, name
    assert 0 < dense["ratcover.stratum_pair_yield"]["value"] < 1
    finite = measure.measure("qh_compare", seed=1, seconds=0, trace=True, size="tiny")["layers"]
    sizes = workloads.SHAPES["tiny"]["qh_compare"]["sizes"]
    # Two hyper_h calls per pair; each builds the lower, upper and intersected relations.
    assert finite["hyper.hyper_h_calls"]["value"] == 2 * sum(sizes.values())
    assert finite["hyper.rows_built"]["value"] == sum(2 * k * 3 * (1 << n) for n, k in sizes.items())
    assert finite["hyper.matrix_bytes"]["value"] == sum(2 * k * (1 << 2 * n) // 8 for n, k in sizes.items())


def test_missing_target_is_reported_absent(monkeypatch):
    import qusp.ratcover

    monkeypatch.delattr(qusp.ratcover, "star_cover")
    tracer = LayerTracer()
    tracer.install()
    tracer.uninstall()
    metrics = layer_metrics(tracer, passes=1)
    assert metrics["ratcover.star_cover_calls"] == {"value": 0, "unit": "count", "absent": True}
    assert "absent" not in metrics["ratcover.image_calls"]


def test_hook_that_raises_marks_its_metrics_absent(monkeypatch):
    import qusp.cli
    import qusp.ratcover

    original = qusp.ratcover.cover_normal_sequence

    @functools.wraps(original)
    def renamed_field(*args, **kwargs):
        # As if a later change renamed a certificate field the hook reads.
        result = original(*args, **kwargs)
        for pair in result.certificate["pairs"]:
            del pair["boundary_skipped"]
        return result

    monkeypatch.setattr(qusp.ratcover, "cover_normal_sequence", renamed_field)
    monkeypatch.setattr(qusp.cli, "cover_normal_sequence", renamed_field)
    tracer = LayerTracer()
    tracer.install()
    try:
        _, failures = measure.run_pass(qusp.cli, workloads.build("dense_strata", 1, "tiny"), None, tracer)
    finally:
        tracer.uninstall()
    assert failures == []
    metrics = layer_metrics(tracer, passes=1)
    for name in ("ratcover.stratum_pair_yield", "ratcover.grid_points"):
        assert metrics[name]["absent"] is True, name
    assert metrics["ratcover.normal_sequence_s"]["value"] > 0
    assert "absent" not in metrics["ratcover.normal_sequence_s"]


def test_tracer_restores_the_package():
    import qusp.cli
    import qusp.intervals

    before = (qusp.cli.run_scenario, qusp.cli.qh_equivalent, qusp.intervals.RationalIntervalSet.__and__)
    tracer = LayerTracer()
    tracer.install()
    assert qusp.cli.qh_equivalent is not before[1]
    tracer.uninstall()
    assert (qusp.cli.run_scenario, qusp.cli.qh_equivalent, qusp.intervals.RationalIntervalSet.__and__) == before


def test_raising_input_counts_as_failed():
    import qusp.cli

    # Probes beyond the truncation depth raise CoverError inside run_scenario.
    item = {
        "scenario": {"scenario": "dense_witness", "eps": "1/2", "depth": 16, "probes": {"count": 50, "seed": 1}},
        "expect": {"exit": 0, "all_pass": True},
    }
    times, failures = measure.run_pass(qusp.cli, [item], None)
    assert len(times) == 1
    assert len(failures) == 1 and "CoverError" in failures[0]


def test_wrong_reference_digest_counts_as_failed():
    import qusp.cli

    items = workloads.build("kelley_ladders", 2, "tiny")
    corrupted = [{"sha256": "0" * 64, "exit": 0}] * len(items)
    _, failures = measure.run_pass(qusp.cli, items, corrupted)
    assert len(failures) == len(items) and "sha256" in failures[0]


def test_reference_covers_the_default_seed():
    stored = json.loads(measure.REFERENCE_FILE.read_text())
    assert stored["seed"] == workloads.DEFAULT_SEED
    for w in workloads.WORKLOADS:
        items = workloads.build(w, workloads.DEFAULT_SEED)
        assert len(stored["workloads"][w]) == len(items)
        assert [r["exit"] for r in stored["workloads"][w]] == [i["expect"]["exit"] for i in items]


def test_seed_fixes_inputs_and_shape():
    for w in workloads.WORKLOADS:
        a, b, c = (workloads.build(w, s) for s in (7, 7, 8))
        assert a == b and a != c
        assert workloads.shapes_summary(w, a).keys() == workloads.shapes_summary(w, c).keys()
        assert len(a) == len(c)
    # Half of every qh_compare size group is identical pairs, whatever the seed.
    for seed in (7, 8):
        for n, k in workloads.SHAPES["full"]["qh_compare"]["sizes"].items():
            group = [i for i in workloads.build("qh_compare", seed) if i["scenario"]["q1"]["min"]["n"] == n]
            assert len(group) == k and sum(i["expect"]["equivalent"] for i in group) == k // 2


def _run(*args, cwd=ROOT):
    cmd = [sys.executable, *SPEC["command"][1:], *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,kind", [("0", "end_to_end"), ("1", "per_layer")])
def test_every_metric_is_printed_with_its_unit(trace, kind):
    # With --seconds 1 the full workload runs one pass (two when traced).
    proc = _run("--workload", "kelley_ladders", "--seed", "3", "--seconds", "1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[kind]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, unit in expected.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, (int, float))
        assert f"metric {name} = {value!r} {unit}" in lines
    if kind == "end_to_end":
        assert all(result["metrics"][name]["value"] > 0 for name in expected)


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for rel in SPEC["paths"]:
        shutil.copytree(ROOT / rel, tmp_path / rel, ignore=shutil.ignore_patterns("__pycache__", "out"))
    proc = _run("--workload", "kelley_ladders", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_benchmark_json_names_what_the_runs_print():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"] for m in SPEC["per_layer"]} == {m[0] for m in METRICS} | {"trace.overhead_s"}
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"]) <= 0.25
