"""Acceptance suite: one printed PASS/FAIL line per criterion.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines.  All
comparisons are exact (booleans, integers, rationals); the only tolerances
are the per-criterion wall-clock budgets.
"""

import time
from fractions import Fraction as F

from qusp.cli import canonical_report_bytes, run_scenario
from qusp.hyper import enumerate_preorders, hyper_as_relation, hyper_h, qh_local_criterion, qh_singular_scan
from qusp.intervals import Interval, RationalIntervalSet, iv, point
from qusp.metrize import check_sandwich, every_second_level, kelley_metric, random_normal_sequence
from qusp.quniform import FiniteQuasiUniformity, conjugate, join_topologies, symmetrize, topology_of
from qusp.ratcover import (
    EUCLID,
    cert_boundedhaus,
    cert_monotonecover,
    cert_not_entourage,
    cover_normal_sequence,
    cover_successor_of_point,
    dense_scenario,
    random_interval_sets,
    refined_base,
)
from qusp.relcore import GroundSet, Relation, compose, is_preorder
from qusp.serialize import parse_frac


def _verdict(ok: bool, label: str, detail: str = "") -> None:
    tail = f"  [{detail}]" if detail else ""
    print(f"{'PASS' if ok else 'FAIL'}  {label}{tail}")
    assert ok, f"{label} {detail}"


def _reflexives(n: int):
    g = GroundSet(tuple(f"x{i}" for i in range(n)))
    out = []
    for bits in range(1 << (n * n - n)):
        rows = []
        k = 0
        for i in range(n):
            row = 1 << i
            for j in range(n):
                if j != i:
                    if bits >> k & 1:
                        row |= 1 << j
                    k += 1
            rows.append(row)
        out.append(Relation(g, tuple(rows)))
    return out


def test_criterion_1_local_criterion_matches_hyperspace():
    start = time.monotonic()
    rels = _reflexives(3)
    assert len(rels) == 64
    hypers = [hyper_h(u) for u in rels]
    agree = 0
    total = 0
    for iu, u in enumerate(rels):
        for iv_, v in enumerate(rels):
            for a in range(8):
                direct = hypers[iu].rows[a] & ~hypers[iv_].rows[a] == 0
                total += 1
                if qh_local_criterion(u, v, a) == direct:
                    agree += 1
    elapsed = time.monotonic() - start
    _verdict(
        agree == total == 32768 and elapsed < 10,
        "criterion 1: local criterion = hyperspace successor containment (n=3)",
        f"{agree}/32768 agree, {elapsed:.2f}s < 10s",
    )


def test_criterion_2_preorder_counts_and_singularity_scan():
    start = time.monotonic()
    expected = {1: 1, 2: 4, 3: 29, 4: 355}
    counts_ok = True
    for n, want in expected.items():
        fast = enumerate_preorders(n)
        naive = [r for r in _reflexives(n) if compose(r, r) <= r]
        counts_ok = counts_ok and len(fast) == want and len(naive) == want
        counts_ok = counts_ok and {r.rows for r in fast} == {r.rows for r in naive}
    scans_ok = True
    pairs_at_4 = None
    for n in (2, 3, 4):
        report = qh_singular_scan(n)
        scans_ok = scans_ok and report["collisions"] == []
        if n == 4:
            pairs_at_4 = report["pairs"]
    elapsed = time.monotonic() - start
    _verdict(
        counts_ok and scans_ok and pairs_at_4 == 62835 and elapsed < 60,
        "criterion 2: preorder counts 1/4/29/355 and collision-free scans (n<=4)",
        f"{pairs_at_4} pairs at n=4, {elapsed:.2f}s < 60s",
    )


def test_criterion_3_ladder_metric_sandwich():
    start = time.monotonic()
    failures = 0
    for i in range(200):
        n = 2 + i % 7
        ladder = random_normal_sequence(3000 + i, n, 6)
        sub = every_second_level(ladder)
        metric = kelley_metric(sub)
        if not check_sandwich(metric, sub)["passed"]:
            failures += 1
            continue
        # exact axioms, re-verified on the emitted matrix
        d = metric.dist
        for a in range(n):
            if d[a][a] != 0:
                failures += 1
            for b in range(n):
                if d[a][b] < 0:
                    failures += 1
                for c in range(n):
                    if d[a][c] > d[a][b] + d[b][c]:
                        failures += 1
        # containments phrased on the original ladder indices
        for k in range(3):
            thr = F(1, 2**k)
            for x in range(n):
                for y in range(n):
                    below = d[x][y] < thr
                    if below and not ladder.levels[2 * k].has(x, y):
                        failures += 1
                    if 2 * k + 2 < ladder.depth and ladder.levels[2 * k + 2].has(x, y) and not below:
                        failures += 1
    elapsed = time.monotonic() - start
    _verdict(
        failures == 0 and elapsed < 30,
        "criterion 3: exact dyadic sandwich on 200 seeded ladders (n<=8, depth 6)",
        f"0 violations, {elapsed:.2f}s < 30s",
    )


def test_criterion_4_symmetrization_topology_identity():
    start = time.monotonic()
    ok = True
    checked = 0
    for n in (1, 2, 3):
        for r in enumerate_preorders(n):
            q = FiniteQuasiUniformity(r)
            left = topology_of(symmetrize(q))
            right = join_topologies(topology_of(q), topology_of(conjugate(q)))
            ok = ok and left == right
            checked += 1
    elapsed = time.monotonic() - start
    _verdict(
        ok and checked == 34,
        "criterion 4: symmetrization topology equals join of both topologies (n<=3)",
        f"{checked} preorders, exact, {elapsed:.2f}s",
    )


def test_criterion_5_flagship_witness():
    start = time.monotonic()
    cover, build_cert = dense_scenario(F(1, 2))
    ok = build_cert["passed"]

    seq = cover_normal_sequence(cover, 3, grid_size=1 << 10)
    ok = ok and seq.certificate["passed"]
    grid_violations = sum(p["grid_violations"] for p in seq.certificate["pairs"])
    ok = ok and grid_violations == 0

    probes = random_interval_sets(20250810, 100)
    mono_ok = all(cert_monotonecover(cover, p)["passed"] for p in probes)
    ok = ok and mono_ok

    scales = [F(1, 1 << k) for k in range(9)]
    bounded_ok = True
    for s in scales:
        cert = cert_boundedhaus(cover, s)
        bounded_ok = bounded_ok and cert["passed"] and cert["piece_count"] >= 1
        for raw in cert["pieces"]:
            piece = RationalIntervalSet.of(Interval.from_json(raw))
            bounded_ok = bounded_ok and EUCLID.is_small(piece, s)
    ok = ok and bounded_ok

    not_ent = cert_not_entourage(cover, scales)
    witness_ok = not_ent["passed"]
    for w in not_ent["witnesses"]:
        x, y, eps = parse_frac(w["x"]), parse_frac(w["y"]), parse_frac(w["scale"])
        witness_ok = witness_ok and EUCLID.dist(x, y) < eps
        witness_ok = witness_ok and y not in cover_successor_of_point(cover, x)
    ok = ok and witness_ok

    base_probes = random_interval_sets(515, 50)
    refined = refined_base(seq.prefix(2), [F(1, 4), F(1, 16)], base_probes)
    membership_ok = refined["passed"] and all(m["passed"] for m in refined["membership"])
    ok = ok and membership_ok and len(refined["base"]) == 6

    elapsed = time.monotonic() - start
    _verdict(
        ok and elapsed < 60,
        "criterion 5: flagship witness certificates (build, normality, membership, "
        "boundedness, distinctness)",
        f"grid violations 0, 100+50 probes, 9 scales, {elapsed:.2f}s < 60s",
    )


def test_criterion_6_hyperspace_embedding_and_preorder_preservation():
    start = time.monotonic()
    ok = True
    checked = 0
    for n in (1, 2, 3, 4):
        for r in enumerate_preorders(n):
            h = hyper_h(r)
            ok = ok and is_preorder(hyper_as_relation(h))
            for x in range(n):
                for y in range(n):
                    ok = ok and h.has(1 << x, 1 << y) == r.has(x, y)
            checked += 1
    elapsed = time.monotonic() - start
    _verdict(
        ok and checked == 1 + 4 + 29 + 355,
        "criterion 6: singleton embedding faithful and hyper relation stays a preorder (n<=4)",
        f"{checked} preorders, exact, {elapsed:.2f}s",
    )


def test_criterion_7_deterministic_reports():
    start = time.monotonic()
    scenarios = [
        {"scenario": "singular_scan", "n": 3},
        {"scenario": "kelley_demo", "seed": 7, "n": 6, "depth": 6, "count": 5},
        {
            "scenario": "dense_witness",
            "eps": "1/2",
            "depth": 40,
            "normal_depth": 2,
            "refine_depth": 1,
            "grid": 128,
            "scales": ["1/4"],
            "probe_scales": ["1/8", "1/32"],
            "probes": {"count": 8, "seed": 13},
        },
    ]
    ok = True
    for scenario in scenarios:
        _, _, first = run_scenario(scenario)
        _, _, second = run_scenario(scenario)
        ok = ok and canonical_report_bytes(first) == canonical_report_bytes(second)
    elapsed = time.monotonic() - start
    _verdict(
        ok,
        "criterion 7: repeated runs with fixed seeds emit byte-identical canonical reports",
        f"{len(scenarios)} scenarios, {elapsed:.2f}s",
    )
