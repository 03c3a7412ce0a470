"""Hyperspace relations on the full power set and QH-comparison decisions.

For a relation u on X, the power set P(X) carries three derived relations:

* lower:  (A, B) related when every point of A has a u-successor in B;
* upper:  (A, B) related when B sits inside the u-image of A;
* both:   the intersection, the Hausdorff hyperspace relation.

P(X) here includes the empty set, so the hyperspace successor set of the
empty set under the intersected relation is exactly {empty}.

Subset masks index rows of 2^n bits.  The subset images are built by
doubling, one ground point at a time: the masks in [2^a, 2^(a+1)) are the
masks below 2^a with point a added, so each point extends the table by one
OR per entry already built.  Subsets with equal rows share one row object:
the upper relation builds one row per distinct subset image, the lower one
per distinct closure (see `hyper_minus`), and the intersection one meet per
distinct pair of row objects.  The row tuples keep 2^n entries, but the
big-int work and memory follow the number of distinct rows: n + 1 of each
kind for a chain, 2^n only for the discrete preorder.  Grounds above 16
points are rejected outright.  `qh_equivalent` returns at once when the two
matrices are equal and scans for a counterexample only when they differ.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass

from .quniform import FiniteQuasiUniformity
from .relcore import GroundSet, Relation, _check_same_ground, image, iter_bits

MAX_HYPER_GROUND = 16
MAX_ENUMERATE = 5
MAX_SCAN = 4

_PLAIN_LABEL = re.compile(r'[^,"{}]+')


def _guard(g: GroundSet) -> None:
    if g.size > MAX_HYPER_GROUND:
        raise ValueError(f"hyperspace construction capped at ground size {MAX_HYPER_GROUND}")


@dataclass(frozen=True)
class HyperRelation:
    """A relation on P(X), one bit row per subset mask of the base ground."""

    base_ground: GroundSet
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.rows) != 1 << self.base_ground.size:
            raise ValueError("hyper relation needs one row per subset mask")

    @property
    def size(self) -> int:
        return len(self.rows)

    def has(self, a_mask: int, b_mask: int) -> bool:
        return bool(self.rows[a_mask] >> b_mask & 1)

    def __le__(self, other: "HyperRelation") -> bool:
        if self.base_ground != other.base_ground:
            raise ValueError("hyper relations live on different ground sets")
        return all(map(int.__eq__, map(int.__and__, self.rows, other.rows), self.rows))

    def __and__(self, other: "HyperRelation") -> "HyperRelation":
        """Row-wise intersection, one meet per distinct pair of row objects.

        `hyper_minus` and `hyper_plus` share one row object among the
        subsets with equal rows, so a few hundred distinct pairs can stand
        for 2^n masks.  The meets are memoised on the identities of the two
        row objects, grouped by the left one (a flat dict keyed on the pair
        is slower); the same two objects have the same meet, so the result
        is exact for any operands, and masks with the same pair of objects
        share one result row.
        """
        if self.base_ground != other.base_ground:
            raise ValueError("hyper relations live on different ground sets")
        memo: dict[int, dict[int, int]] = {}
        rows = []
        for a, b in zip(self.rows, other.rows):
            by_b = memo.get(id(a))
            if by_b is None:
                meet = a & b
                memo[id(a)] = {id(b): meet}
            else:
                meet = by_b.get(id(b))
                if meet is None:
                    meet = by_b[id(b)] = a & b
            rows.append(meet)
        return HyperRelation(self.base_ground, tuple(rows))


def _image_table(u: Relation) -> list[int]:
    """image(u, mask) for every subset mask, by doubling one point at a time.

    The masks in [2^a, 2^(a+1)) are the masks below 2^a with point a added,
    so each point's row extends the table by one OR per existing entry.
    """
    table = [0]
    for row in u.rows:
        table += [row | img for img in table]
    return table


def _chained(masks, empty: int, step) -> dict[int, int]:
    """A value for every mask in ``masks``, keyed by mask, each built once.

    The value of a mask is ``step(value of the mask less its lowest point,
    lowest point's bit)``, starting from ``empty`` at 0.  Missing masks are
    filled down the chain ``c, c & (c - 1), ...`` until a known one, so the
    table also holds those intermediate masks.
    """
    table = {0: empty}
    for c in set(masks):
        chain = []
        while c not in table:
            chain.append(c)
            c &= c - 1
        value = table[c]
        for m in reversed(chain):
            value = table[m] = step(value, m & -m)
    return table


def _submask_indicators(masks) -> dict[int, int]:
    """For each mask, the bit vector over subset masks B contained in it."""
    return _chained(masks, 1, lambda vec, bit: vec | vec << bit)


def hyper_minus(u: Relation) -> HyperRelation:
    """(A, B) related when every point of A has a u-successor inside B.

    The row of A is the intersection, over a in A, of the subsets meeting
    u(a).  A point x with u(x) containing some u(a), a in A, leaves that
    intersection unchanged, so the row depends only on the closure of A:
    its image under a -> {x : u(x) contains u(a)} (the down-set of A when u
    is a preorder).  This holds for any relation, empty rows included, and
    distinct closures give distinct rows.  One row object is built per
    distinct closure, as the meet of its lowest point's row with the row of
    the closure less that point.
    """
    _guard(u.ground)
    n = u.ground.size
    all_b = (1 << (1 << n)) - 1
    full = u.ground.full_mask
    covers = tuple(sum(1 << x for x, rx in enumerate(u.rows) if ra & ~rx == 0) for ra in u.rows)
    closures = _image_table(Relation._trusted(u.ground, covers))
    # subsets B meeting a point's row, i.e. not submasks of its complement
    outside = _submask_indicators(full ^ row for row in u.rows)
    meets = {1 << a: all_b ^ outside[full ^ row] for a, row in enumerate(u.rows)}
    row_of = _chained(closures, all_b, lambda r, bit: meets[bit] & r)
    return HyperRelation(u.ground, tuple(map(row_of.__getitem__, closures)))


def hyper_plus(u: Relation) -> HyperRelation:
    """(A, B) related when B is inside image(u, A); subsets with equal images share one row object."""
    _guard(u.ground)
    imgs = _image_table(u)
    indicator = _submask_indicators(imgs)
    return HyperRelation(u.ground, tuple(map(indicator.__getitem__, imgs)))


def hyper_h(u: Relation) -> HyperRelation:
    """Intersection of the lower and upper hyperspace relations."""
    return hyper_minus(u) & hyper_plus(u)


def _member_label(label: str) -> str:
    return label if _PLAIN_LABEL.fullmatch(label) else json.dumps(label)


def powerset_ground(g: GroundSet) -> GroundSet:
    """Ground set for P(X): one label per subset mask, in mask order.

    A subset is written as its members' labels in braces, ``{a,b}``.  A label
    that is empty or holds one of ``,"{}`` is written as a JSON string
    (``{"a,b"}``), so distinct subsets always get distinct labels.
    """
    _guard(g)
    labels = []
    for mask in range(1 << g.size):
        labels.append("{" + ",".join(map(_member_label, g.labels_of(mask))) + "}")
    return GroundSet(tuple(labels))


def hyper_as_relation(h: HyperRelation) -> Relation:
    """View a hyper relation as an ordinary relation on the power-set ground."""
    return Relation(powerset_ground(h.base_ground), h.rows)


def hausdorff_of(q: FiniteQuasiUniformity) -> FiniteQuasiUniformity:
    """Principal hyperspace quasi-uniformity: minimum is hyper_h of the minimum.

    hyper_h is monotone in its argument, so the hyperspace filter generated
    by the derived entourages is again principal, and hyper_h of a preorder
    is a preorder on P(X).
    """
    return FiniteQuasiUniformity(hyper_as_relation(hyper_h(q.min_entourage)))


def qh_local_criterion(u: Relation, v: Relation, a: int) -> bool:
    """Pointwise test for hyperspace successor containment at the subset a.

    Holds iff image(u, a) is inside image(v, a) and every x in a admits a
    y in a with image(u, {y}) inside image(v, {x}).  For reflexive u, v this
    is equivalent to containment of the hyper_h successor sets at a.
    """
    _check_same_ground(u, v)
    if image(u, a) & ~image(v, a):
        return False
    for x in iter_bits(a):
        if not any(u.rows[y] & ~v.rows[x] == 0 for y in iter_bits(a)):
            return False
    return True


@dataclass(frozen=True)
class QHVerdict:
    """Two-way QH-finer decision with a counterexample subset when one fails."""

    finer_forward: bool
    finer_backward: bool
    counterexample: tuple[int, str] | None

    @property
    def equivalent(self) -> bool:
        return self.finer_forward and self.finer_backward


def qh_equivalent(q1: FiniteQuasiUniformity, q2: FiniteQuasiUniformity) -> QHVerdict:
    """Decide QH-finer both ways by containment of the hyper_h minima.

    q1 is QH-finer than q2 when the hyperspace topology of q2 is coarser.
    Both hyperspace quasi-uniformities are principal and finite topologies
    reverse the order of their preorders, so ``finer_forward`` is
    ``hyper_h(q1.min) <= hyper_h(q2.min)``.  Equal matrices are settled by
    one comparison of their rows, equivalent with no counterexample;
    otherwise the counterexample is the first subset mask whose successor
    rows differ in the failing direction.
    """
    _check_same_ground(q1.min_entourage, q2.min_entourage)
    h1 = hyper_h(q1.min_entourage)
    h2 = hyper_h(q2.min_entourage)
    if h1.rows == h2.rows:
        return QHVerdict(True, True, None)
    forward = h1 <= h2
    backward = h2 <= h1
    counter: tuple[int, str] | None = None
    if not forward:
        a = next(m for m in range(h1.size) if h1.rows[m] & ~h2.rows[m])
        counter = (a, "forward")
    elif not backward:
        a = next(m for m in range(h2.size) if h2.rows[m] & ~h1.rows[m])
        counter = (a, "backward")
    return QHVerdict(forward, backward, counter)


def enumerate_preorders(n: int) -> list[Relation]:
    """All preorders on n labeled points, in ascending row-tuple order.

    Depth-first row assignment; partial transitivity is enforced as rows
    come in, which prunes almost the entire reflexive search space.
    """
    if n < 1:
        raise ValueError("ground size must be positive")
    if n > MAX_ENUMERATE:
        raise ValueError(f"preorder enumeration capped at n = {MAX_ENUMERATE}")
    g = GroundSet(tuple(f"x{i}" for i in range(n)))
    # candidate rows for element i: every mask containing bit i, ascending
    candidates = [sorted({m | (1 << i) for m in range(1 << n)}) for i in range(n)]
    out: list[Relation] = []
    rows: list[int] = []

    def consistent(i: int, row: int) -> bool:
        for j in range(i):
            if row >> j & 1 and rows[j] & ~row:
                return False
            if rows[j] >> i & 1 and row & ~rows[j]:
                return False
        return True

    def assign(i: int) -> None:
        if i == n:
            out.append(Relation(g, tuple(rows)))
            return
        for row in candidates[i]:
            if consistent(i, row):
                rows.append(row)
                assign(i + 1)
                rows.pop()

    assign(0)
    return out


def qh_singular_scan(n: int) -> dict:
    """Exhaustively check that no two distinct preorders are QH-equivalent.

    The hyper_h matrix of each preorder is computed once and compared
    pairwise through a table keyed by the matrix rows.  For reflexive u, v
    the pointwise reduction gives hyper_h(u) <= hyper_h(v) exactly when
    u <= v (at a singleton {x}, `qh_local_criterion` forces u(x) inside
    v(x)), so hyper_h is injective on preorders and a collision would be a
    defect of this implementation, not a counterexample in the mathematics.
    """
    if n > MAX_SCAN:
        raise ValueError(f"singularity scan capped at n = {MAX_SCAN}")
    preorders = enumerate_preorders(n)
    matrices = [hyper_h(r).rows for r in preorders]
    seen: dict[tuple[int, ...], int] = {}
    collisions: list[dict] = []
    for idx, mat in enumerate(matrices):
        if mat in seen:
            first = seen[mat]
            collisions.append(
                {
                    "first": preorders[first].to_json()["rows"],
                    "second": preorders[idx].to_json()["rows"],
                }
            )
        else:
            seen[mat] = idx
    count = len(preorders)
    return {
        "n": n,
        "preorders": count,
        "pairs": count * (count - 1) // 2,
        "collisions": collisions,
    }
