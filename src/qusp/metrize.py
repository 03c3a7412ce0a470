"""Exact quasi-pseudometrics on finite grounds and the ladder construction.

The classical metrization lemma turns a sequence of reflexive relations
(V_k) with V_{k+1}^4 inside V_k into a quasi-pseudometric q with

    V_{k+1}  subset of  {q < 2^-k}  subset of  V_k.

Here the construction is carried out exactly: each pair gets the dyadic
weight 2^-k of the deepest level containing it (1 off the ladder
entirely, zero on the diagonal), and the distance is the chain infimum of
weight sums, i.e. an all-pairs shortest path over nonnegative rational
weights.  Every weight is 0, 2^-k or 1, so the shortest paths are computed
on integer multiples of one common unit 1/D (D the lcm of the weight
denominators) and returned as `Fraction` entries; a metric
likewise keeps its entries as integers over their common denominator, on
which the axioms and the sublevel thresholds are decided.  No floating
point is involved anywhere (a float distance is rejected), so the
sandwich containments above are decided exactly.

Truncation semantics: an off-diagonal pair lying in every materialized
level only gets weight zero when the deepest level is transitive, because
only then does the ladder extend constantly below its materialized part;
otherwise the pair keeps the deepest dyadic weight.  Without this guard a
chain of bottom-level pairs could fake distance zero and break the
sandwich on valid inputs.

Any normal sequence satisfies the quadruple condition after taking every
second level; `every_second_level` is that transformer.

Each ladder invariant is checked once.  A ladder built with
`NormalSequence(...)` is validated in full (reflexive levels, each level
squared inside the one above), and `kelley_metric` checks the quadruple
condition on it.  Two ladders skip checks that hold by construction:

- `random_normal_sequence` builds each level as the square of the one below
  plus reflexive extras, so its levels are reflexive and normal without a
  re-check;
- `every_second_level` keeps levels of an already normal ladder, and for
  reflexive levels V_{2k+2}^2 sits in V_{2k+1}, which sits in V_{2k+1}^2 and
  so in V_{2k}; squaring once more gives V_{2k+2}^4 inside V_{2k+1}^2 inside
  V_{2k}.  Its result skips the normality check and records the quadruple
  condition, which `kelley_metric` then skips too.

The metric axioms are still checked on every `FiniteQuasiPseudometric`, and
`weight_function` still checks whether the deepest level is transitive.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .relcore import GroundSet, NormalSequence, Relation, compose, image, is_preorder
from .serialize import _exact, _positive

Matrix = tuple[tuple[Fraction, ...], ...]


def _common_units(matrix) -> tuple[int, list[list[int]]]:
    """(D, m) with D the lcm of the denominators and matrix[i][j] = m[i][j] / D."""
    scale = math.lcm(*{v.denominator for row in matrix for v in row})
    return scale, [[v.numerator * (scale // v.denominator) for v in row] for row in matrix]


@dataclass(frozen=True)
class FiniteQuasiPseudometric:
    """Nonnegative rational distance matrix; triangle inequality, no symmetry.

    Besides the `Fraction` entries the instance keeps them as integers over
    their common denominator (``_units[i][j] / _scale == dist[i][j]``); the
    axioms are checked on those integers.  Neither takes part in equality
    or repr.
    """

    ground: GroundSet
    dist: Matrix
    _scale: int = field(init=False, repr=False, compare=False)
    _units: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        n = self.ground.size
        dist = tuple(tuple(_exact(v, "distance") for v in row) for row in self.dist)
        object.__setattr__(self, "dist", dist)
        if len(dist) != n or any(len(row) != n for row in dist):
            raise ValueError("distance matrix shape does not match ground")
        scale, units = _common_units(dist)
        for i, row in enumerate(units):
            if row[i] != 0:
                raise ValueError("self-distance must be zero")
            if min(row) < 0:
                raise ValueError("distances must be nonnegative")
        for row_i in units:
            for d_ij, row_j in zip(row_i, units):
                for d_ik, d_jk in zip(row_i, row_j):
                    if d_ik > d_ij + d_jk:
                        raise ValueError("triangle inequality violated")
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_units", tuple(map(tuple, units)))


def every_second_level(seq: NormalSequence) -> NormalSequence:
    """Keep levels 0, 2, 4, ...; the result satisfies the quadruple condition.

    Neither the normality of the result nor its quadruple condition is
    re-checked: both follow from the normality of ``seq`` (see the module
    docstring).  The result records the quadruple condition, so
    `kelley_metric` does not check it again.
    """
    return NormalSequence._trusted(seq.levels[::2], quadruple=True)


def weight_function(seq: NormalSequence) -> Matrix:
    """The matrix of deepest-membership dyadic weights for a ladder.

    Entry (x, y) is 2^-k for the largest k with (x, y) in level k, 1 when
    (x, y) misses level 0, and 0 on the diagonal.  A pair in every level
    drops to 0 only when the deepest level is transitive (see the module
    docstring).
    """
    n = seq.ground.size
    last = seq.depth - 1
    bottom = seq.levels[last]
    zero, one = Fraction(0), Fraction(1)
    by_level = [Fraction(1, 2**k) for k in range(seq.depth)]
    if is_preorder(bottom):
        by_level[last] = zero
    deepest_first = [(lvl.rows, weight) for lvl, weight in zip(seq.levels, by_level)][::-1]
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            if i == j:
                row.append(zero)
                continue
            for level_rows, weight in deepest_first:
                if level_rows[i] >> j & 1:
                    break
            else:
                weight = one
            row.append(weight)
        rows.append(tuple(row))
    return tuple(rows)


def kelley_metric(seq: NormalSequence) -> FiniteQuasiPseudometric:
    """Chain-infimum quasi-pseudometric of a ladder with the quadruple condition.

    Requires level[k+1]^4 inside level[k] for each k (use
    `every_second_level` on a plain normal sequence first).  The condition
    is checked here, except on a ladder from `every_second_level`, which
    meets it by construction and records that it does.  The distance is
    the exact all-pairs shortest path over `weight_function` weights, run on
    integer multiples of 1/D for D the lcm of the weight denominators; the
    triangle inequality holds by construction and the dyadic sandwich holds
    for every representable level.
    """
    if not seq._quadruple:
        for k in range(seq.depth - 1):
            sq = compose(seq.levels[k + 1], seq.levels[k + 1])
            if not compose(sq, sq) <= seq.levels[k]:
                raise ValueError(f"quadruple condition violated between levels {k + 1} and {k}")
    scale, dist = _common_units(weight_function(seq))
    for mid, row_mid in enumerate(dist):
        for row_i in dist:
            via = row_i[mid]
            row_i[:] = [c if (c := via + b) < a else a for a, b in zip(row_i, row_mid)]
    as_fraction = {v: Fraction(v, scale) for row in dist for v in row}
    return FiniteQuasiPseudometric(seq.ground, tuple(tuple(map(as_fraction.get, row)) for row in dist))


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


def entourage_at(q: FiniteQuasiPseudometric, eps: Fraction) -> Relation:
    """The strict sublevel relation {(x, y) : dist(x, y) < eps}.

    Decided on the metric's integer units: units / D < p / r exactly when
    units * r < p * D.
    """
    eps = _positive(eps, "threshold")
    den = eps.denominator
    bound = eps.numerator * q._scale
    return Relation(
        q.ground,
        tuple(sum(1 << j for j, u in enumerate(row) if u * den < bound) for row in q._units),
    )


def random_normal_sequence(seed: int, n: int, depth: int) -> NormalSequence:
    """Seeded random valid ladder, built bottom-up by squaring plus extras.

    Each level contains the square of the one below and the diagonal, so
    the ladder is normal by construction and is not re-checked.  A level is
    built as one `Relation`: row x is the image of row x of the level below
    under that level, joined with the row of extras drawn for it.
    """
    if n < 1 or depth < 1:
        raise ValueError("need a positive ground size and depth")
    rng = random.Random(seed)
    g = GroundSet(tuple(f"x{i}" for i in range(n)))

    def sprinkle(prob: float) -> list[int]:
        rows = []
        for i in range(n):
            row = 1 << i
            for j in range(n):
                if j != i and rng.random() < prob:
                    row |= 1 << j
            rows.append(row)
        return rows

    current = Relation(g, tuple(sprinkle(0.2)))
    levels = [current]
    for _ in range(depth - 1):
        current = Relation(g, tuple(image(current, row) | extra for row, extra in zip(current.rows, sprinkle(0.08))))
        levels.append(current)
    return NormalSequence._trusted(tuple(reversed(levels)))
