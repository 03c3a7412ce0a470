"""Seeded scenario lists for the four benchmark workloads, and their output checks.

Every workload is a fixed list of scenario dicts made from ``(workload, seed)``
alone; the program under test only ever sees these dicts through
``qusp.cli.run_scenario``.  The seed draws the inputs (eps values, probe seeds,
ladder seeds, preorders) while the *shape* of each list (depths, ground sizes,
counts) is the same for every seed, so that different seeds cost about the same
and run-to-run spread reflects the machine, not the draw.
"""

from __future__ import annotations

import hashlib
import random
from fractions import Fraction

WORKLOADS = ("dense_strata", "dense_certs", "kelley_ladders", "qh_compare")

# Seed whose canonical report digests and exit codes are stored in reference.json.
DEFAULT_SEED = 0

EXIT_PASS = 0
EXIT_COUNTEREXAMPLE = 1

# Shapes of one pass over each workload.  "tiny" is for the self-tests only.
SHAPES = {
    "full": {
        # Depth 64 with normal_depth 3: the all-pairs stratum scan and the grid
        # membership dominate.  Equal depths make every call a sample of the
        # same median; deeper scenarios would leave room for too few passes.
        "dense_strata": {"depths": (64, 64, 64), "normal_depth": 3},
        # 100 probes at depth 64 gives reports of about 0.4-0.6 MB each.
        "dense_certs": {"scenarios": 4, "depth": 64, "probes": 100},
        "kelley_ladders": {"scenarios": 100, "n": 8, "depth": 12, "count": 8},
        # Call cost rises about 2.5x per step of n, and identical pairs cost
        # more than distinct ones of the same n.  With these counts, half of
        # each size identical, the upper-quartile call falls at the upper
        # quartile of the identical n=13 calls, inside one group of alike
        # calls rather than on the edge between two sizes, while the n=14
        # pairs still set the tail and the peak RSS.  n stops at 14:
        # one n=15 pair costs about 1.2 s and 464 MB, too much for a shared
        # 8 GB machine.
        "qh_compare": {"sizes": {11: 4, 12: 4, 13: 20, 14: 6}},
    },
    "tiny": {
        "dense_strata": {"depths": (12, 16), "normal_depth": 2},
        "dense_certs": {"scenarios": 2, "depth": 64, "probes": 3},
        "kelley_ladders": {"scenarios": 4, "n": 5, "depth": 6, "count": 2},
        "qh_compare": {"sizes": {4: 2, 5: 2}},
    },
}


def _rng(workload: str, seed: int) -> random.Random:
    # String seeds hash through sha512, so the draw does not depend on PYTHONHASHSEED.
    return random.Random(f"{workload}/{seed}")


def _eps(rng: random.Random, lo: Fraction, hi: Fraction) -> str:
    """A rational in [lo, hi] with a seeded denominator between 16 and 48."""
    den = rng.randint(16, 48)
    num = rng.randint(-(-lo.numerator * den // lo.denominator), hi.numerator * den // hi.denominator)
    value = Fraction(num, den)
    return f"{value.numerator}/{value.denominator}"


def _random_preorder(rng: random.Random, n: int) -> tuple[int, ...]:
    """Reflexive-transitive closure of a sparse seeded digraph, as bit rows."""
    rows = [(1 << i) | sum(1 << j for j in range(n) if j != i and rng.random() < 1.3 / n) for i in range(n)]
    changed = True
    while changed:
        changed = False
        for i in range(n):
            acc = rows[i]
            for j in range(n):
                if acc >> j & 1:
                    acc |= rows[j]
            if acc != rows[i]:
                rows[i] = acc
                changed = True
    return tuple(rows)


def _quniform_json(rows: tuple[int, ...]) -> dict:
    n = len(rows)
    return {
        "min": {
            "n": n,
            "labels": [f"x{i}" for i in range(n)],
            "rows": ["".join("1" if row >> j & 1 else "0" for j in range(n)) for row in rows],
        }
    }


def build(workload: str, seed: int, size: str = "full") -> list[dict]:
    """The workload's scenario list for one pass.

    Each entry is ``{"scenario": <dict for run_scenario>, "expect": {...}}``;
    ``expect`` holds the reference-free invariants the output must satisfy.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    shape = SHAPES[size][workload]
    rng = _rng(workload, seed)
    out: list[dict] = []
    if workload == "dense_strata":
        for depth in shape["depths"]:
            scenario = {
                "scenario": "dense_witness",
                "eps": _eps(rng, Fraction(7, 16), Fraction(9, 16)),
                "depth": depth,
                "normal_depth": shape["normal_depth"],
                "refine_depth": 0,
            }
            out.append({"scenario": scenario, "expect": {"exit": EXIT_PASS, "all_pass": True}})
    elif workload == "dense_certs":
        for _ in range(shape["scenarios"]):
            scenario = {
                "scenario": "dense_witness",
                # eps <= 1/2 keeps every 1/64-grid probe inside set 32 of 64,
                # so no probe runs past the truncation depth.
                "eps": _eps(rng, Fraction(3, 8), Fraction(1, 2)),
                "depth": shape["depth"],
                "normal_depth": 1,
                "refine_depth": 1,
                "probes": {"count": shape["probes"], "seed": rng.randrange(1 << 31)},
            }
            out.append({"scenario": scenario, "expect": {"exit": EXIT_PASS, "all_pass": True}})
    elif workload == "kelley_ladders":
        for _ in range(shape["scenarios"]):
            scenario = {
                "scenario": "kelley_demo",
                "seed": rng.randrange(1 << 31),
                "n": shape["n"],
                "depth": shape["depth"],
                "count": shape["count"],
            }
            out.append({"scenario": scenario, "expect": {"exit": EXIT_PASS, "all_pass": True}})
    else:
        pairs = [(n, i % 2 == 0) for n, k in sorted(shape["sizes"].items()) for i in range(k)]
        rng.shuffle(pairs)
        for n, identical in pairs:
            first = _random_preorder(rng, n)
            second = first
            while not identical and second == first:
                second = _random_preorder(rng, n)
            scenario = {
                "scenario": "finite_compare",
                "q1": _quniform_json(first),
                "q2": _quniform_json(second),
            }
            # No two distinct preorders are QH-equivalent, so equivalence
            # must hold exactly for the identical pairs.
            expect = {"exit": EXIT_PASS if identical else EXIT_COUNTEREXAMPLE, "equivalent": identical}
            out.append({"scenario": scenario, "expect": expect})
    return out


def shapes_summary(workload: str, items: list[dict]) -> dict:
    """What a pass contains, for the run record."""
    scenarios = [item["scenario"] for item in items]
    if workload == "qh_compare":
        sizes: dict[str, int] = {}
        for sc in scenarios:
            key = str(sc["q1"]["min"]["n"])
            sizes[key] = sizes.get(key, 0) + 1
        identical = sum(1 for item in items if item["expect"]["equivalent"])
        return {"scenarios": len(items), "ground_sizes": sizes, "identical_pairs": identical}
    if workload == "kelley_ladders":
        first = scenarios[0]
        return {"scenarios": len(items), "n": first["n"], "depth": first["depth"], "count": first["count"]}
    return {
        "scenarios": len(items),
        "depths": [sc["depth"] for sc in scenarios],
        "eps": [sc["eps"] for sc in scenarios],
        "normal_depth": scenarios[0]["normal_depth"],
        "refine_depth": scenarios[0]["refine_depth"],
        "probes": [sc.get("probes", {}).get("count", 0) for sc in scenarios],
    }


def report_digest(canonical_bytes: bytes) -> str:
    return hashlib.sha256(canonical_bytes).hexdigest()


def check_output(item: dict, code: int, report: dict, canonical_bytes: bytes, reference: dict | None) -> str | None:
    """A description of what is wrong with one scenario's output, or None.

    ``reference`` (``{"sha256": ..., "exit": ...}``) is given only for the
    default seed; the invariants in ``item["expect"]`` hold for every seed.
    """
    expect = item["expect"]
    if code != expect["exit"]:
        return f"exit code {code}, expected {expect['exit']}"
    results = report.get("results", {})
    if "all_pass" in expect and results.get("all_pass") is not expect["all_pass"]:
        return f"all_pass is {results.get('all_pass')!r}"
    if "equivalent" in expect:
        if results.get("equivalent") is not expect["equivalent"]:
            return f"equivalent is {results.get('equivalent')!r}, expected {expect['equivalent']!r}"
        if (results.get("counterexample") is None) != expect["equivalent"]:
            return "counterexample presence does not match the verdict"
    if reference is not None:
        if code != reference["exit"]:
            return f"exit code {code}, reference {reference['exit']}"
        got = report_digest(canonical_bytes)
        if got != reference["sha256"]:
            return f"canonical report sha256 {got[:16]}... differs from the reference {reference['sha256'][:16]}..."
    return None
