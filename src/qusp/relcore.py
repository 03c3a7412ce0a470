"""Exact relation algebra on finite labeled ground sets.

Relations are stored row-major as bit rows: bit ``j`` of ``rows[i]`` is set
when element ``i`` relates to element ``j``.  Subsets of the ground set are
plain integer bit masks over label indices.

Composition convention, fixed once for the whole package:
``compose(r, s)`` relates x to z when some y satisfies (x, y) in r and
(y, z) in s, i.e. r is applied first.  In the usual "after" notation this
relation would be written s o r; formulas from the literature are
translated to this argument order at the call site.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator


def iter_bits(mask: int) -> Iterator[int]:
    """Yield the indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


@dataclass(frozen=True)
class GroundSet:
    """A finite ground set given by an ordered tuple of distinct labels."""

    labels: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.labels:
            raise ValueError("ground set must be nonempty")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("ground set labels must be pairwise distinct")
        object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def size(self) -> int:
        return len(self.labels)

    @property
    def full_mask(self) -> int:
        return (1 << self.size) - 1

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise KeyError(f"label {label!r} not in ground set") from None

    def mask_of(self, labels: Iterable[str]) -> int:
        mask = 0
        for lab in labels:
            mask |= 1 << self.index(lab)
        return mask

    def labels_of(self, mask: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in iter_bits(mask))


def ground(*labels: str) -> GroundSet:
    return GroundSet(tuple(labels))


@dataclass(frozen=True)
class Relation:
    """A binary relation over a ground set, one bit row per element."""

    ground: GroundSet
    rows: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(self.rows))
        n = self.ground.size
        if len(self.rows) != n:
            raise ValueError("row count does not match ground size")
        full = self.ground.full_mask
        for row in self.rows:
            if row < 0 or row & ~full:
                raise ValueError("row bits outside ground set")

    @classmethod
    def _trusted(cls, g: GroundSet, rows: tuple[int, ...]) -> "Relation":
        """Wrap a tuple of rows made from validated rows, skipping validation.

        For `compose`, `|`, `&` and the ladder levels, whose rows are unions
        or intersections of rows already inside the ground; every other way
        of building a relation is checked in full.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "ground", g)
        object.__setattr__(out, "rows", rows)
        return out

    @classmethod
    def identity(cls, g: GroundSet) -> "Relation":
        return cls(g, tuple(1 << i for i in range(g.size)))

    @classmethod
    def full(cls, g: GroundSet) -> "Relation":
        return cls(g, (g.full_mask,) * g.size)

    @classmethod
    def from_pairs(
        cls, g: GroundSet, pairs: Iterable[tuple[str, str]], reflexive: bool = False
    ) -> "Relation":
        rows = [1 << i if reflexive else 0 for i in range(g.size)]
        for a, b in pairs:
            rows[g.index(a)] |= 1 << g.index(b)
        return cls(g, tuple(rows))

    def has(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def pairs(self) -> Iterator[tuple[int, int]]:
        for i, row in enumerate(self.rows):
            for j in iter_bits(row):
                yield i, j

    def is_reflexive(self) -> bool:
        return all(row >> i & 1 for i, row in enumerate(self.rows))

    def __and__(self, other: "Relation") -> "Relation":
        _check_same_ground(self, other)
        return Relation._trusted(self.ground, tuple(a & b for a, b in zip(self.rows, other.rows)))

    def __or__(self, other: "Relation") -> "Relation":
        _check_same_ground(self, other)
        return Relation._trusted(self.ground, tuple(a | b for a, b in zip(self.rows, other.rows)))

    def __le__(self, other: "Relation") -> bool:
        _check_same_ground(self, other)
        return all(a & ~b == 0 for a, b in zip(self.rows, other.rows))

    def relabel(self, g: GroundSet) -> "Relation":
        """The same relation with its points listed in the order of g, which must hold the same labels."""
        if sorted(g.labels) != sorted(self.ground.labels):
            raise ValueError(f"labels {list(g.labels)} and {list(self.ground.labels)} differ as sets")
        source = [self.ground.index(label) for label in g.labels]
        rows = (sum(1 << j for j, sj in enumerate(source) if self.rows[si] >> sj & 1) for si in source)
        return Relation(g, tuple(rows))

    def to_json(self) -> dict:
        n = self.ground.size
        return {
            "n": n,
            "labels": list(self.ground.labels),
            "rows": ["".join("1" if row >> j & 1 else "0" for j in range(n)) for row in self.rows],
        }

    @classmethod
    def from_json(cls, data: dict) -> "Relation":
        g = GroundSet(tuple(data["labels"]))
        if data.get("n") != g.size:
            raise ValueError("relation JSON: n does not match label count")
        rows = []
        for text in data["rows"]:
            if len(text) != g.size or set(text) - {"0", "1"}:
                raise ValueError("relation JSON: malformed row string")
            rows.append(sum(1 << j for j, ch in enumerate(text) if ch == "1"))
        return cls(g, tuple(rows))


def _check_same_ground(r: Relation, s: Relation) -> None:
    """Refuse two objects on different grounds: relations, or a metric and a ladder."""
    if r.ground != s.ground:
        raise ValueError("relations live on different ground sets")


def compose(r: Relation, s: Relation) -> Relation:
    """First r, then s: row x of the result is the image under s of row x of r."""
    _check_same_ground(r, s)
    return Relation._trusted(r.ground, tuple(image(s, row) for row in r.rows))


def inverse(r: Relation) -> Relation:
    """Swap the roles of both coordinates."""
    n = r.ground.size
    rows = [0] * n
    for i, row in enumerate(r.rows):
        for j in iter_bits(row):
            rows[j] |= 1 << i
    return Relation(r.ground, tuple(rows))


def image(r: Relation, subset: int) -> int:
    """All elements reachable from ``subset`` through r: the union of the rows it selects, as a bit mask."""
    rows = r.rows
    acc = 0
    y = 0
    while subset:
        if subset & 1:
            acc |= rows[y]
        subset >>= 1
        y += 1
    return acc


def is_preorder(r: Relation) -> bool:
    """Reflexive and transitive (compose(r, r) contained in r)."""
    return r.is_reflexive() and compose(r, r) <= r


@dataclass(frozen=True)
class NormalSequence:
    """Levels of reflexive relations where each level squared sits in the one above.

    The ground is read off the top level.  Levels on different grounds are
    refused by the normality check, whose `compose` and `<=` take relations
    on one ground only.

    ``_quadruple`` records that each level to the fourth power sits in the
    one above as well.  Only `_trusted` sets it; it takes no part in
    equality, hashing or repr.
    """

    levels: tuple[Relation, ...]
    _quadruple: bool = field(default=False, init=False, repr=False, compare=False)

    @classmethod
    def _trusted(cls, levels: tuple[Relation, ...], quadruple: bool = False) -> "NormalSequence":
        """Wrap levels that are normal by construction, skipping validation.

        For ladders built in the package whose reflexivity and normality
        follow from how they were made; every other way of building a
        sequence is checked in full.
        """
        out = object.__new__(cls)
        object.__setattr__(out, "levels", levels)
        object.__setattr__(out, "_quadruple", quadruple)
        return out

    def __post_init__(self) -> None:
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise ValueError("not a normal sequence: no levels")
        for k, lvl in enumerate(self.levels):
            if not lvl.is_reflexive():
                raise ValueError(f"not a normal sequence: level {k} is not reflexive")
        for k in range(len(self.levels) - 1):
            nxt = self.levels[k + 1]
            if not compose(nxt, nxt) <= self.levels[k]:
                raise ValueError(
                    f"not a normal sequence: level {k + 1} squared escapes level {k}"
                )

    @property
    def ground(self) -> GroundSet:
        return self.levels[0].ground

    @property
    def depth(self) -> int:
        return len(self.levels)
