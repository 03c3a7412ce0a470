"""Batch front door: scenario files in, deterministic reports out.

Exit code contract: 0 when every check passes, 1 when the mathematics
produced a counterexample or a failing certificate (the witness is in the
report), 2 for input problems (unreadable scenario file, unwritable report
path, schema violation, malformed rationals, nonpositive scales, sizes out
of range), 3 for an internal error: any other exception, reported with its
traceback on stderr and no report.

Reports are canonical-ordered JSON.  The ``timing_s`` field is the one
intentionally nondeterministic entry; `canonical_report_bytes` drops it, and
byte-for-byte determinism of reports is defined (and tested) on that
canonical form.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction
from importlib import resources

import jsonschema

from . import __version__
from .hyper import MAX_HYPER_GROUND, qh_equivalent, qh_singular_scan
from .metrize import check_sandwich, every_second_level, kelley_metric, random_normal_sequence
from .quniform import FiniteQuasiUniformity
from .ratcover import (
    CoverError,
    cert_monotonecover,
    cert_not_entourage,
    cover_normal_sequence,
    dense_scenario,
    probe_indices,
    random_interval_sets,
    refined_base,
)
from .relcore import inverse, iter_bits
from .serialize import canonical_json_bytes, digest, frac_str, parse_frac

EXIT_PASS = 0
EXIT_COUNTEREXAMPLE = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3

MAX_DOT_GROUND = 8


class InputProblem(Exception):
    """Anything wrong with the scenario itself, as opposed to its mathematics."""


def _schema() -> dict:
    text = resources.files("qusp.schemas").joinpath("scenario.schema.json").read_text()
    return json.loads(text)


def validate_scenario(scenario: dict) -> None:
    validator = jsonschema.Draft202012Validator(_schema())
    errors = sorted(validator.iter_errors(scenario), key=lambda e: e.json_path)
    if errors:
        lines = [f"{e.json_path}: {e.message}" for e in errors]
        raise InputProblem("scenario schema violation\n" + "\n".join(lines))


def build_report(scenario: dict, results: dict, certificates: list, elapsed: float) -> dict:
    return {
        "tool": {"name": "qusp", "version": __version__},
        "scenario": scenario,
        "input_digest": digest(scenario),
        "results": results,
        "certificates": certificates,
        "timing_s": elapsed,
    }


def canonical_report_bytes(report: dict) -> bytes:
    stripped = {k: v for k, v in report.items() if k != "timing_s"}
    return canonical_json_bytes(stripped)


def export_topology(q: FiniteQuasiUniformity, name: str = "specialization") -> str:
    """DOT digraph of the specialization preorder, transitively reduced.

    Mutually related points form one node labeled with their joined labels
    (the cycle-free rendering of an equivalence cluster); edges are the
    covering pairs of the induced order on clusters.  Node order follows
    the smallest member index, so output is deterministic.
    """
    n = q.ground.size
    if n > MAX_DOT_GROUND:
        raise InputProblem(f"topology export capped at ground size {MAX_DOT_GROUND}")
    rel = q.min_entourage
    inv = inverse(rel)
    seen = 0
    classes: list[int] = []
    for i in range(n):
        if seen >> i & 1:
            continue
        cls = rel.rows[i] & inv.rows[i]
        classes.append(cls)
        seen |= cls
    reps = [next(iter_bits(c)) for c in classes]

    def below(a: int, b: int) -> bool:
        return a != b and rel.has(reps[a], reps[b])

    k = len(classes)
    lines = [f"digraph {name} {{"]
    for idx, cls in enumerate(classes):
        label = "=".join(q.ground.labels_of(cls))
        lines.append(f'  c{idx} [label="{label}"];')
    for a in range(k):
        for b in range(k):
            if below(a, b) and not any(below(a, m) and below(m, b) for m in range(k)):
                lines.append(f"  c{a} -> c{b};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _load_quniform(data: dict) -> FiniteQuasiUniformity:
    try:
        return FiniteQuasiUniformity.from_json(data)
    except (ValueError, KeyError) as exc:
        raise InputProblem(f"bad quasi-uniformity: {exc}") from exc


def _parse_scales(scenario: dict, key: str, default: list[str]) -> list[Fraction]:
    raw = scenario.get(key, default)
    try:
        scales = [parse_frac(s) for s in raw]
    except ValueError as exc:
        raise InputProblem(str(exc)) from exc
    if any(s <= 0 for s in scales):
        raise InputProblem(f"{key}: every scale must be positive")
    return scales


def _run_finite_compare(scenario: dict) -> tuple[int, dict, list]:
    q1 = _load_quniform(scenario["q1"])
    q2 = _load_quniform(scenario["q2"])
    if q1.ground != q2.ground:
        raise InputProblem("q1 and q2 must share one ground set")
    if q1.ground.size > MAX_HYPER_GROUND:
        raise InputProblem(f"finite_compare capped at ground size {MAX_HYPER_GROUND}")
    verdict = qh_equivalent(q1, q2)
    counter = None
    if verdict.counterexample is not None:
        mask, direction = verdict.counterexample
        counter = {"subset": list(q1.ground.labels_of(mask)), "direction": direction}
    results = {
        "finer_forward": verdict.finer_forward,
        "finer_backward": verdict.finer_backward,
        "equivalent": verdict.equivalent,
        "counterexample": counter,
    }
    code = EXIT_PASS if verdict.equivalent else EXIT_COUNTEREXAMPLE
    return code, results, []


def _run_singular_scan(scenario: dict) -> tuple[int, dict, list]:
    report = qh_singular_scan(scenario["n"])
    code = EXIT_PASS if not report["collisions"] else EXIT_COUNTEREXAMPLE
    return code, report, []


def _run_kelley(scenario: dict) -> tuple[int, dict, list]:
    seed = scenario["seed"]
    n = scenario["n"]
    depth = scenario["depth"]
    count = scenario.get("count", 1)
    ladders = []
    ok = True
    for i in range(count):
        seq = random_normal_sequence(seed + i, n, depth)
        sub = every_second_level(seq)
        metric = kelley_metric(sub)
        sandwich = check_sandwich(metric, sub)
        ladders.append({"seed": seed + i, "passed": sandwich["passed"], "levels": sandwich["levels"]})
        ok = ok and sandwich["passed"]
    results = {"count": count, "all_pass": ok, "metric_axioms": "validated exactly at construction"}
    code = EXIT_PASS if ok else EXIT_COUNTEREXAMPLE
    return code, results, ladders


_DYADIC_DEFAULT = [f"1/{1 << k}" for k in range(9)]


def _run_dense(scenario: dict) -> tuple[int, dict, list]:
    try:
        eps = parse_frac(scenario["eps"])
    except ValueError as exc:
        raise InputProblem(str(exc)) from exc
    depth = scenario.get("depth", 64)
    normal_depth = scenario.get("normal_depth", 3)
    refine_depth = scenario.get("refine_depth", 2)
    grid = scenario.get("grid", 1 << 10)
    scales = _parse_scales(scenario, "scales", ["1/4", "1/16"])
    bounded_scales = _parse_scales(scenario, "bounded_scales", _DYADIC_DEFAULT)
    probe_scales = _parse_scales(scenario, "probe_scales", _DYADIC_DEFAULT)
    probes_cfg = scenario.get("probes")
    try:
        cover, build_cert = dense_scenario(eps, depth, tuple(bounded_scales))
    except ValueError as exc:
        raise InputProblem(str(exc)) from exc

    probe_sets = []
    if probes_cfg:
        probe_sets = random_interval_sets(probes_cfg["seed"], probes_cfg["count"])
    for k, probe in enumerate(probe_sets):
        try:
            probe_indices(cover, probe)
        except CoverError as exc:
            raise InputProblem(
                f"probe {k} cannot be decided within truncation depth {depth} ({type(exc).__name__}: {exc})"
            ) from exc

    certificates: list = [build_cert]
    # One star-cover tower serves both certificates: the shorter one is a prefix.
    tower = cover_normal_sequence(cover, max(normal_depth, refine_depth), grid_size=grid)
    normal = tower.prefix(normal_depth)
    certificates.append(normal.certificate)
    mono = [cert_monotonecover(cover, p) for p in probe_sets]
    certificates.extend(mono)
    refine_failure = None
    base: list = []
    try:
        refined = refined_base(tower.prefix(refine_depth), scales, probe_sets)
        certificates.append(refined.certificate)
        base = refined.certificate["base"]
    except CoverError as exc:
        refine_failure = str(exc)
    not_ent = cert_not_entourage(cover, probe_scales)
    certificates.append(not_ent)
    all_pass = (
        build_cert["passed"]
        and normal.certificate["passed"]
        and all(m["passed"] for m in mono)
        and refine_failure is None
        and not_ent["passed"]
    )
    results = {
        "eps": frac_str(eps),
        "truncation_depth": depth,
        "normal_depth": normal_depth,
        "refine_depth": refine_depth,
        "refined_base": base,
        "refine_failure": refine_failure,
        "distinct_from_background": not_ent["passed"],
        "all_pass": all_pass,
    }
    code = EXIT_PASS if all_pass else EXIT_COUNTEREXAMPLE
    return code, results, certificates


_RUNNERS = {
    "finite_compare": _run_finite_compare,
    "singular_scan": _run_singular_scan,
    "kelley_demo": _run_kelley,
    "dense_witness": _run_dense,
    "dense": _run_dense,
}


def run_scenario(scenario: dict, fmt: str = "json") -> tuple[int, str, dict]:
    """Validate, dispatch, and render one scenario; returns (code, text, report)."""
    validate_scenario(scenario)
    start = time.monotonic()
    code, results, certificates = _RUNNERS[scenario["scenario"]](scenario)
    elapsed = time.monotonic() - start
    report = build_report(scenario, results, certificates, elapsed)
    if fmt == "json":
        text = json.dumps(report, sort_keys=True, indent=2) + "\n"
    elif fmt == "dot":
        if scenario["scenario"] != "finite_compare":
            raise InputProblem("dot output is only available for finite_compare scenarios")
        text = export_topology(_load_quniform(scenario["q1"]), "q1_specialization")
        text += export_topology(_load_quniform(scenario["q2"]), "q2_specialization")
    else:
        raise InputProblem(f"unknown format {fmt!r}")
    return code, text, report


def _cmd_run(args) -> tuple[int, str]:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            scenario = json.load(fh)
    except OSError as exc:
        raise InputProblem(f"cannot read scenario file: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputProblem(f"scenario file is not valid JSON: {exc}") from exc
    code, text, _ = run_scenario(scenario, args.format)
    return code, text


def _cmd_enumerate(args) -> tuple[int, str]:
    from .hyper import enumerate_preorders

    if args.n < 1 or args.n > 5:
        raise InputProblem("enumerate supports 1 <= n <= 5")
    start = time.monotonic()
    count = len(enumerate_preorders(args.n))
    report = build_report(
        {"scenario": "enumerate", "n": args.n},
        {"n": args.n, "count": count},
        [],
        time.monotonic() - start,
    )
    return EXIT_PASS, json.dumps(report, sort_keys=True, indent=2) + "\n"


def _cmd_scan(args) -> tuple[int, str]:
    code, text, _ = run_scenario({"scenario": "singular_scan", "n": args.n})
    return code, text


def _cmd_kelley(args) -> tuple[int, str]:
    scenario = {
        "scenario": "kelley_demo",
        "seed": args.seed,
        "n": args.n,
        "depth": args.depth,
        "count": args.count,
    }
    code, text, _ = run_scenario(scenario)
    return code, text


def _cmd_witness(args) -> tuple[int, str]:
    scenario: dict = {"scenario": "dense_witness", "eps": args.eps, "depth": args.depth}
    if args.probe_count:
        if args.probe_seed is None:
            raise InputProblem("--probe-seed is required when --probe-count is positive")
        scenario["probes"] = {"count": args.probe_count, "seed": args.probe_seed}
    code, text, _ = run_scenario(scenario)
    return code, text


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qusp", description="quasi-uniform space laboratory")
    parser.add_argument("--version", action="version", version=f"qusp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a scenario file")
    p_run.add_argument("file")
    p_run.add_argument("--format", choices=["json", "dot"], default="json")
    p_run.add_argument("--out", default=None)
    p_run.set_defaults(fn=_cmd_run)

    p_enum = sub.add_parser("enumerate", help="count preorders on n labeled points")
    p_enum.add_argument("n", type=int)
    p_enum.add_argument("--out", default=None)
    p_enum.set_defaults(fn=_cmd_enumerate)

    p_scan = sub.add_parser("scan", help="exhaustive hyperspace collision scan")
    p_scan.add_argument("n", type=int)
    p_scan.add_argument("--out", default=None)
    p_scan.set_defaults(fn=_cmd_scan)

    p_kelley = sub.add_parser("kelley", help="seeded ladder metric sandwich check")
    p_kelley.add_argument("--seed", type=int, required=True)
    p_kelley.add_argument("--n", type=int, required=True)
    p_kelley.add_argument("--depth", type=int, required=True)
    p_kelley.add_argument("--count", type=int, default=1)
    p_kelley.add_argument("--out", default=None)
    p_kelley.set_defaults(fn=_cmd_kelley)

    p_wit = sub.add_parser("witness", help="build and certify the dense witness cover")
    p_wit.add_argument("--eps", required=True)
    p_wit.add_argument("--depth", type=int, default=64)
    p_wit.add_argument("--probe-count", type=int, default=0)
    p_wit.add_argument("--probe-seed", type=int, default=None)
    p_wit.add_argument("--out", default=None)
    p_wit.set_defaults(fn=_cmd_witness)

    return parser


def _write_report(out: str | None, text: str) -> None:
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise InputProblem(f"cannot write report: {exc}") from exc


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code, text = args.fn(args)
        _write_report(getattr(args, "out", None), text)
    except (InputProblem, jsonschema.ValidationError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except Exception:
        import traceback  # imported here: it adds about 6 ms to every start-up

        print("internal error:", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL
    return code


if __name__ == "__main__":
    sys.exit(main())
