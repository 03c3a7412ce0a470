"""Finite quasi-uniformities as principal filters of preorders.

Every quasi-uniformity on a finite set is the up-filter of a unique
preorder, its minimum entourage: the filter axioms force the intersection
of all entourages to be reflexive, and on a finite set the "half of a half"
axiom can only bottom out on a transitive relation.  All filter-level
notions are therefore evaluated on minimum entourages, which makes each of
them decidable and canonical.

Finite topologies correspond bijectively to preorders through the
specialization order (x below y iff every open set containing x contains
y), so topologies are stored by that preorder and their open families are
only materialized on demand for small grounds.

Both objects hold only their relation and read the ground off it; two of
them are combined through the relation operators, which refuse relations on
different grounds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .relcore import GroundSet, Relation, image, inverse, is_preorder

MAX_OPENS_GROUND = 16


@dataclass(frozen=True)
class FiniteQuasiUniformity:
    """The up-filter {U : U contains min_entourage} of a preorder; the ground is read off that preorder."""

    min_entourage: Relation

    def __post_init__(self) -> None:
        if not is_preorder(self.min_entourage):
            raise ValueError("minimum entourage must be a preorder")

    @property
    def ground(self) -> GroundSet:
        return self.min_entourage.ground

    @classmethod
    def discrete(cls, g: GroundSet) -> "FiniteQuasiUniformity":
        return cls(Relation.identity(g))

    @classmethod
    def indiscrete(cls, g: GroundSet) -> "FiniteQuasiUniformity":
        return cls(Relation.full(g))

    def to_json(self) -> dict:
        return {"min": self.min_entourage.to_json()}

    @classmethod
    def from_json(cls, data: dict) -> "FiniteQuasiUniformity":
        return cls(Relation.from_json(data["min"]))


@dataclass(frozen=True)
class FiniteTopology:
    """A finite topology, stored by its specialization preorder; the ground is read off that preorder."""

    specialization: Relation

    def __post_init__(self) -> None:
        if not is_preorder(self.specialization):
            raise ValueError("specialization must be a preorder")

    @property
    def ground(self) -> GroundSet:
        return self.specialization.ground

    def is_open(self, subset: int) -> bool:
        return image(self.specialization, subset) & ~subset == 0

    def opens(self) -> tuple[int, ...]:
        """All open sets as bit masks.  Guarded: the family has up to 2^n members."""
        n = self.ground.size
        if n > MAX_OPENS_GROUND:
            raise ValueError(f"opens only materialized for ground size <= {MAX_OPENS_GROUND}")
        return tuple(m for m in range(1 << n) if self.is_open(m))

    def is_coarser_than(self, other: "FiniteTopology") -> bool:
        """Every open of self is open in other; equivalent to a specialization containment."""
        return other.specialization <= self.specialization


def conjugate(q: FiniteQuasiUniformity) -> FiniteQuasiUniformity:
    return FiniteQuasiUniformity(inverse(q.min_entourage))


def symmetrize(q: FiniteQuasiUniformity) -> FiniteQuasiUniformity:
    sym = q.min_entourage & inverse(q.min_entourage)
    return FiniteQuasiUniformity(sym)


def topology_of(q: FiniteQuasiUniformity) -> FiniteTopology:
    """Topology whose neighbourhood filter at x is generated by min_entourage(x).

    Open sets are exactly the up-sets of the minimum entourage, whose
    specialization preorder is that entourage itself.
    """
    return FiniteTopology(q.min_entourage)


def join_topologies(t1: FiniteTopology, t2: FiniteTopology) -> FiniteTopology:
    """Coarsest topology refining both: intersect specialization preorders."""
    return FiniteTopology(t1.specialization & t2.specialization)
