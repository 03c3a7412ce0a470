"""Exact quasi-pseudometrics on finite grounds and the ladder construction.

The classical metrization lemma turns a sequence of reflexive relations
(V_k) with V_{k+1}^4 inside V_k into a quasi-pseudometric q with

    V_{k+1}  subset of  {q < 2^-k}  subset of  V_k.

Here the construction is carried out exactly: each pair gets the dyadic
weight 2^-k of the deepest level containing it (1 off the ladder
entirely, zero on the diagonal), and the distance is the chain infimum of
weight sums, i.e. an all-pairs shortest path over nonnegative rational
weights.  Every weight is 0, 2^-k or 1, so the weights, the shortest paths
and the metric's axioms all live on integer multiples of one unit 1/D, with
D = 2^(depth-1); the `Fraction` entries are made once per distinct value at
the end.  A metric built by hand keeps its entries as integers over the lcm
of their denominators instead.  Either way the axioms are checked on the
integers in one place, `_check_axioms`, and the sandwich thresholds are
decided on them too.  No floating point is involved anywhere (a float
distance is rejected), so the sandwich containments above are decided
exactly.

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
  plus reflexive extras, so its levels are reflexive, normal and inside the
  ground without a re-check (each is a `Relation._trusted`);
- `every_second_level` keeps levels of an already normal ladder, and for
  reflexive levels V_{2k+2}^2 sits in V_{2k+1}, which sits in V_{2k+1}^2 and
  so in V_{2k}; squaring once more gives V_{2k+2}^4 inside V_{2k+1}^2 inside
  V_{2k}.  Its result skips the normality check and records the quadruple
  condition, which `kelley_metric` then skips too.

The metric axioms are still checked on every `FiniteQuasiPseudometric`, and
`_weight_units` still checks whether the deepest level is transitive.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .relcore import GroundSet, NormalSequence, Relation, _check_same_ground, compose, image, is_preorder, iter_bits
from .serialize import _exact, _positive

Matrix = tuple[tuple[Fraction, ...], ...]


def _common_units(matrix) -> tuple[int, list[list[int]]]:
    """(D, m) with D the lcm of the denominators and matrix[i][j] = m[i][j] / D."""
    scale = math.lcm(*{v.denominator for row in matrix for v in row})
    return scale, [[v.numerator * (scale // v.denominator) for v in row] for row in matrix]


def _check_axioms(n: int, units) -> None:
    """Shape, zero diagonal, nonnegativity and the triangle inequality, decided on integer units."""
    if len(units) != n or any(len(row) != n for row in units):
        raise ValueError("distance matrix shape does not match ground")
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


@dataclass(frozen=True)
class FiniteQuasiPseudometric:
    """Nonnegative rational distance matrix; triangle inequality, no symmetry.

    Besides the `Fraction` entries the instance keeps them as integers over
    one common unit (``_units[i][j] / _scale == dist[i][j]``): the lcm of the
    denominators for a metric built by hand, 2^(depth-1) for a Kelley
    metric.  The axioms are checked on those integers by `_check_axioms`,
    whichever way the metric is built.  Neither takes part in equality or
    repr.
    """

    ground: GroundSet
    dist: Matrix
    _scale: int = field(init=False, repr=False, compare=False)
    _units: tuple[tuple[int, ...], ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        dist = tuple(tuple(_exact(v, "distance") for v in row) for row in self.dist)
        object.__setattr__(self, "dist", dist)
        scale, units = _common_units(dist)
        _check_axioms(self.ground.size, units)
        object.__setattr__(self, "_scale", scale)
        object.__setattr__(self, "_units", tuple(map(tuple, units)))

    @classmethod
    def _of_units(cls, g: GroundSet, scale: int, units: list[list[int]]) -> "FiniteQuasiPseudometric":
        """The metric with entries ``units[i][j] / scale``, axioms checked on the units.

        Builds one `Fraction` per distinct unit value, not one per entry.
        """
        _check_axioms(g.size, units)
        as_fraction = {v: Fraction(v, scale) for v in {v for row in units for v in row}}
        out = object.__new__(cls)
        object.__setattr__(out, "ground", g)
        object.__setattr__(out, "dist", tuple(tuple(map(as_fraction.__getitem__, row)) for row in units))
        object.__setattr__(out, "_scale", scale)
        object.__setattr__(out, "_units", tuple(map(tuple, units)))
        return out


def every_second_level(seq: NormalSequence) -> NormalSequence:
    """Keep levels 0, 2, 4, ...; the result satisfies the quadruple condition.

    Neither the normality of the result nor its quadruple condition is
    re-checked: both follow from the normality of ``seq`` (see the module
    docstring).  The result records the quadruple condition, so
    `kelley_metric` does not check it again.
    """
    return NormalSequence._trusted(seq.levels[::2], quadruple=True)


def _weight_units(seq: NormalSequence) -> tuple[int, list[list[int]]]:
    """(D, w) with D = 2^(depth-1) and w[x][y] / D the weight of (x, y).

    The weight is 2^-k for the largest k with (x, y) in level k, 1 when
    (x, y) misses level 0, and 0 on the diagonal.  A pair in every level
    drops to 0 only when the deepest level is transitive (see the module
    docstring).  Each row is read deepest level first, and every bit takes
    the weight of the first level that has it.
    """
    last = seq.depth - 1
    scale = 1 << last
    by_level = [scale >> k for k in range(seq.depth)]
    if is_preorder(seq.levels[last]):
        by_level[last] = 0
    deepest_first = list(zip(by_level, (lvl.rows for lvl in seq.levels)))[::-1]
    units = []
    for i in range(seq.ground.size):
        row = [scale] * seq.ground.size
        seen = 1 << i
        for weight, level_rows in deepest_first:
            fresh = level_rows[i] & ~seen
            seen |= fresh
            for j in iter_bits(fresh):
                row[j] = weight
        row[i] = 0
        units.append(row)
    return scale, units


def kelley_metric(seq: NormalSequence) -> FiniteQuasiPseudometric:
    """Chain-infimum quasi-pseudometric of a ladder with the quadruple condition.

    Requires level[k+1]^4 inside level[k] for each k (use
    `every_second_level` on a plain normal sequence first).  The condition
    is checked here, except on a ladder from `every_second_level`, which
    meets it by construction and records that it does.  The distance is
    the exact all-pairs shortest path over the `_weight_units` weights, run
    on integer multiples of 1/D for D = 2^(depth-1); the metric axioms are
    then checked on those units, the triangle inequality holds by
    construction and the dyadic sandwich holds for every representable
    level.
    """
    if not seq._quadruple:
        for k in range(seq.depth - 1):
            sq = compose(seq.levels[k + 1], seq.levels[k + 1])
            if not compose(sq, sq) <= seq.levels[k]:
                raise ValueError(f"quadruple condition violated between levels {k + 1} and {k}")
    scale, dist = _weight_units(seq)
    for mid, row_mid in enumerate(dist):
        for row_i in dist:
            via = row_i[mid]
            row_i[:] = [c if (c := via + b) < a else a for a, b in zip(row_i, row_mid)]
    return FiniteQuasiPseudometric._of_units(seq.ground, scale, dist)


def check_sandwich(metric: FiniteQuasiPseudometric, ladder: NormalSequence) -> dict:
    """Exact dyadic sandwich verdicts of a metric against its source ladder.

    For each index k the strict sublevel set {dist < 2^-k} must contain
    level k+1 (when materialized) and sit inside level k.  Every sublevel
    row comes from one sweep over the metric's units: with unit 1/D, an
    entry u is below 2^-k exactly when u <= (D - 1) >> k, so u lies in the
    sublevels k < min(depth, bit length of (D - 1) // u), and in all of
    them when u = 0.  `entourage_at` is the one-threshold reference.  A
    metric and a ladder on different grounds are refused.
    """
    _check_same_ground(metric, ladder)
    depth = ladder.depth
    top = metric._scale - 1
    distinct = {u for row in metric._units for u in row}
    sublevels_of = {u: depth if u == 0 else min(depth, (top // u).bit_length()) for u in distinct}
    sub_rows = [[] for _ in range(depth)]
    for row in metric._units:
        # by_count[m]: the bits of this row whose entry lies in exactly the first m sublevels.
        by_count = [0] * (depth + 1)
        for j, u in enumerate(row):
            by_count[sublevels_of[u]] |= 1 << j
        acc = 0
        for k in range(depth - 1, -1, -1):
            acc |= by_count[k + 1]
            sub_rows[k].append(acc)
    results = []
    ok = True
    for k, sub in enumerate(sub_rows):
        right = all(a & ~b == 0 for a, b in zip(sub, ladder.levels[k].rows))
        left = None
        if k + 1 < depth:
            left = all(a & ~b == 0 for a, b in zip(ladder.levels[k + 1].rows, sub))
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
    built as one trusted `Relation`: row x is the image of row x of the
    level below under that level, joined with the row of extras drawn for
    it, so every row stays inside the ground.
    """
    if n < 1 or depth < 1:
        raise ValueError("need a positive ground size and depth")
    draw = random.Random(seed).random
    g = GroundSet(tuple(f"x{i}" for i in range(n)))
    # Row i's off-diagonal bits in the order the draws are made for them.
    off_diagonal = [(1 << i, [1 << j for j in range(n) if j != i]) for i in range(n)]

    def sprinkle(prob: float) -> list[int]:
        rows = []
        for row, bits in off_diagonal:
            for bit in bits:
                if draw() < prob:
                    row |= bit
            rows.append(row)
        return rows

    current = Relation._trusted(g, tuple(sprinkle(0.2)))
    levels = [current]
    for _ in range(depth - 1):
        current = Relation._trusted(
            g, tuple(image(current, row) | extra for row, extra in zip(current.rows, sprinkle(0.08)))
        )
        levels.append(current)
    return NormalSequence._trusted(tuple(reversed(levels)))
