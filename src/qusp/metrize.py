"""Exact quasi-pseudometrics on finite grounds and the ladder construction.

The classical metrization lemma turns a sequence of reflexive relations
(V_k) with V_{k+1}^4 inside V_k into a quasi-pseudometric q with

    V_{k+1}  subset of  {q < 2^-k}  subset of  V_k.

Here the construction is carried out exactly: each pair gets the dyadic
weight 2^-k of the deepest level containing it (a configurable cap off the
ladder entirely, zero on the diagonal), and the distance is the chain
infimum of weight sums, i.e. an all-pairs shortest path over nonnegative
rational weights.  No floating point is involved anywhere, so the sandwich
containments above are decided exactly.

Truncation semantics: an off-diagonal pair lying in every materialized
level only gets weight zero when the deepest level is transitive, because
only then does the ladder extend constantly below its materialized part;
otherwise the pair keeps the deepest dyadic weight.  Without this guard a
chain of bottom-level pairs could fake distance zero and break the
sandwich on valid inputs.

Any normal sequence satisfies the quadruple condition after taking every
second level; `every_second_level` is that transformer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .quniform import FiniteTopology
from .relcore import GroundSet, NormalSequence, Relation, compose, iter_bits
from .serialize import frac_str, parse_frac

Matrix = tuple[tuple[Fraction, ...], ...]


@dataclass(frozen=True)
class FiniteQuasiPseudometric:
    """Nonnegative rational distance matrix; triangle inequality, no symmetry."""

    ground: GroundSet
    dist: Matrix

    def __post_init__(self) -> None:
        n = self.ground.size
        dist = tuple(tuple(Fraction(v) for v in row) for row in self.dist)
        object.__setattr__(self, "dist", dist)
        if len(dist) != n or any(len(row) != n for row in dist):
            raise ValueError("distance matrix shape does not match ground")
        for i in range(n):
            if dist[i][i] != 0:
                raise ValueError("self-distance must be zero")
            for j in range(n):
                if dist[i][j] < 0:
                    raise ValueError("distances must be nonnegative")
        for i in range(n):
            for j in range(n):
                for k in range(n):
                    if dist[i][k] > dist[i][j] + dist[j][k]:
                        raise ValueError("triangle inequality violated")

    def to_json(self) -> dict:
        return {
            "labels": list(self.ground.labels),
            "dist": [[frac_str(v) for v in row] for row in self.dist],
        }

    @classmethod
    def from_json(cls, data: dict) -> "FiniteQuasiPseudometric":
        g = GroundSet(tuple(data["labels"]))
        dist = tuple(tuple(parse_frac(v) for v in row) for row in data["dist"])
        return cls(g, dist)


@dataclass(frozen=True)
class WeightFunction:
    """Per-pair dyadic ladder weights: 0, 2^-k, or the off-ladder cap."""

    ground: GroundSet
    weight: Matrix
    cap: Fraction


def every_second_level(seq: NormalSequence) -> NormalSequence:
    """Keep levels 0, 2, 4, ...; the result satisfies the quadruple condition."""
    return NormalSequence(seq.ground, seq.levels[::2])


def weight_function(seq: NormalSequence, cap: Fraction | int = 1) -> WeightFunction:
    """Deepest-membership dyadic weights for a ladder.

    weight(x, y) is 2^-k for the largest k with (x, y) in level k, the cap
    when (x, y) misses level 0, and 0 on the diagonal.  A pair in every
    level drops to 0 only when the deepest level is transitive (see the
    module docstring).
    """
    cap = Fraction(cap)
    if cap <= 0:
        raise ValueError("cap must be positive")
    n = seq.ground.size
    last = seq.depth - 1
    bottom = seq.levels[last]
    stable_tail = compose(bottom, bottom) <= bottom
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(Fraction(0))
                continue
            k = None
            for lvl in range(last, -1, -1):
                if seq.levels[lvl].has(i, j):
                    k = lvl
                    break
            if k is None:
                row.append(cap)
            elif k == last and stable_tail:
                row.append(Fraction(0))
            else:
                row.append(Fraction(1, 2**k))
        rows.append(tuple(row))
    return WeightFunction(seq.ground, tuple(rows), cap)


def kelley_metric(seq: NormalSequence, cap: Fraction | int = 1) -> FiniteQuasiPseudometric:
    """Chain-infimum quasi-pseudometric of a ladder with the quadruple condition.

    Requires level[k+1]^4 inside level[k] for each k (use
    `every_second_level` on a plain normal sequence first).  The distance is
    the exact all-pairs shortest path over `weight_function` weights; the
    triangle inequality holds by construction and the dyadic sandwich holds
    for every representable level.
    """
    for k in range(seq.depth - 1):
        sq = compose(seq.levels[k + 1], seq.levels[k + 1])
        if not compose(sq, sq) <= seq.levels[k]:
            raise ValueError(f"quadruple condition violated between levels {k + 1} and {k}")
    w = weight_function(seq, cap)
    n = seq.ground.size
    dist = [list(row) for row in w.weight]
    for mid in range(n):
        for i in range(n):
            via = dist[i][mid]
            row_mid = dist[mid]
            row_i = dist[i]
            for j in range(n):
                cand = via + row_mid[j]
                if cand < row_i[j]:
                    row_i[j] = cand
    return FiniteQuasiPseudometric(seq.ground, tuple(tuple(row) for row in dist))


def check_sandwich(metric: FiniteQuasiPseudometric, ladder: NormalSequence) -> dict:
    """Exact dyadic sandwich verdicts of a metric against its source ladder.

    For each index k the strict sublevel set {dist < 2^-k} must contain
    level k+1 (when materialized) and sit inside level k.
    """
    results = []
    ok = True
    for k in range(ladder.depth):
        sub = entourage_at(metric, Fraction(1, 2**k))
        right = sub <= ladder.levels[k]
        left = None
        if k + 1 < ladder.depth:
            left = ladder.levels[k + 1] <= sub
        results.append({"level": k, "lower_ok": left, "upper_ok": right})
        ok = ok and right and (left is not False)
    return {"passed": ok, "levels": results}


def ball(q: FiniteQuasiPseudometric, a: int, eps: Fraction) -> int:
    """Points strictly within eps of some point of the subset mask a."""
    if eps <= 0:
        raise ValueError("radius must be positive")
    out = 0
    for x in iter_bits(a):
        for j in range(q.ground.size):
            if q.dist[x][j] < eps:
                out |= 1 << j
    return out


def dist_point_set(q: FiniteQuasiPseudometric, x: int, a: int) -> Fraction:
    """Minimum distance from point index x into the nonempty subset mask a."""
    if a == 0:
        raise ValueError("distance to the empty set is undefined")
    return min(q.dist[x][j] for j in iter_bits(a))


def conjugate_metric(q: FiniteQuasiPseudometric) -> FiniteQuasiPseudometric:
    n = q.ground.size
    return FiniteQuasiPseudometric(
        q.ground, tuple(tuple(q.dist[j][i] for j in range(n)) for i in range(n))
    )


def symmetrize_metric(q: FiniteQuasiPseudometric) -> FiniteQuasiPseudometric:
    n = q.ground.size
    return FiniteQuasiPseudometric(
        q.ground,
        tuple(tuple(max(q.dist[i][j], q.dist[j][i]) for j in range(n)) for i in range(n)),
    )


def entourage_at(q: FiniteQuasiPseudometric, eps: Fraction) -> Relation:
    """The strict sublevel relation {(x, y) : dist(x, y) < eps}."""
    if eps <= 0:
        raise ValueError("threshold must be positive")
    n = q.ground.size
    return Relation(
        q.ground,
        tuple(sum(1 << j for j in range(n) if q.dist[i][j] < eps) for i in range(n)),
    )


def metric_topology(q: FiniteQuasiPseudometric) -> FiniteTopology:
    """Topology of the metric quasi-uniformity on a finite ground.

    Below the smallest positive distance every ball collapses to the
    zero-distance successors, so the specialization preorder is the
    zero-distance relation (a preorder by the triangle inequality).
    """
    n = q.ground.size
    zero = Relation(
        q.ground,
        tuple(sum(1 << j for j in range(n) if q.dist[i][j] == 0) for i in range(n)),
    )
    return FiniteTopology(q.ground, zero)


def random_normal_sequence(
    seed: int, n: int, depth: int, identity_bottom: bool = False
) -> NormalSequence:
    """Seeded random valid ladder, built bottom-up by squaring plus extras."""
    if n < 1 or depth < 1:
        raise ValueError("need a positive ground size and depth")
    rng = random.Random(seed)
    g = GroundSet(tuple(f"x{i}" for i in range(n)))

    def sprinkle(prob: float) -> Relation:
        rows = []
        for i in range(n):
            row = 1 << i
            for j in range(n):
                if j != i and rng.random() < prob:
                    row |= 1 << j
            rows.append(row)
        return Relation(g, tuple(rows))

    current = Relation.identity(g) if identity_bottom else sprinkle(0.2)
    levels = [current]
    for _ in range(depth - 1):
        current = compose(current, current) | sprinkle(0.08)
        levels.append(current)
    return NormalSequence(g, tuple(reversed(levels)))
