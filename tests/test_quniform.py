import pytest

from qusp.hyper import enumerate_preorders
from qusp.quniform import (
    FiniteQuasiUniformity,
    FiniteTopology,
    conjugate,
    join_topologies,
    symmetrize,
    topology_of,
)
from qusp.relcore import Relation, ground

G2 = ground("a", "b")
G3 = ground("a", "b", "c")


def q_of(g, pairs):
    return FiniteQuasiUniformity(Relation.from_pairs(g, pairs, reflexive=True))


def all_quniforms(n):
    return [FiniteQuasiUniformity(r) for r in enumerate_preorders(n)]


class TestConjugateSymmetrize:
    def test_examples(self):
        assert conjugate(q_of(G2, [])).min_entourage == Relation.identity(G2)
        assert conjugate(q_of(G2, [("a", "b")])).min_entourage == Relation.from_pairs(
            G2, [("b", "a")], reflexive=True
        )
        assert symmetrize(q_of(G2, [("a", "b")])).min_entourage == Relation.identity(G2)
        full = FiniteQuasiUniformity.indiscrete(G2)
        assert symmetrize(full).min_entourage == Relation.full(G2)

    def test_conjugate_involution_exhaustive_n3(self):
        qs = all_quniforms(3)
        assert len(qs) == 29
        for q in qs:
            assert conjugate(conjugate(q)) == q


class TestTopology:
    def test_discrete(self):
        t = topology_of(FiniteQuasiUniformity.discrete(G2))
        assert t.opens() == (0, 1, 2, 3)

    def test_indiscrete(self):
        t = topology_of(FiniteQuasiUniformity.indiscrete(G2))
        assert t.opens() == (0, 3)

    def test_sierpinski(self):
        t = topology_of(q_of(G2, [("a", "b")]))
        assert t.opens() == (0, 2, 3)

    def test_join_examples(self):
        t = topology_of(q_of(G2, [("a", "b")]))
        assert join_topologies(t, t) == t
        disc = topology_of(FiniteQuasiUniformity.discrete(G2))
        assert join_topologies(disc, t) == disc
        t_op = topology_of(q_of(G2, [("b", "a")]))
        assert join_topologies(t, t_op) == disc

    def test_opens_guard(self):
        g = ground(*[f"x{i}" for i in range(17)])
        t = topology_of(FiniteQuasiUniformity.discrete(g))
        with pytest.raises(ValueError, match="materialized"):
            t.opens()
        assert t.is_open(1)

    def test_symmetrization_topology_identity_exhaustive_n3(self):
        for n in (1, 2, 3):
            for q in all_quniforms(n):
                left = topology_of(symmetrize(q))
                right = join_topologies(topology_of(q), topology_of(conjugate(q)))
                assert left == right

    def test_anti_isomorphism_exhaustive_n3(self):
        qs = all_quniforms(3)
        for q1 in qs:
            for q2 in qs:
                rel_contained = q1.min_entourage <= q2.min_entourage
                topo_reversed = topology_of(q2).is_coarser_than(topology_of(q1))
                assert rel_contained == topo_reversed

    def test_is_coarser_matches_open_families(self):
        for q1 in all_quniforms(2):
            for q2 in all_quniforms(2):
                t1, t2 = topology_of(q1), topology_of(q2)
                by_opens = set(t1.opens()) <= set(t2.opens())
                assert t1.is_coarser_than(t2) == by_opens


class TestValidation:
    def test_min_must_be_preorder(self):
        bad = Relation.from_pairs(G3, [("a", "b"), ("b", "c")], reflexive=True)
        with pytest.raises(ValueError, match="preorder"):
            FiniteQuasiUniformity(bad)

    def test_json_round_trip(self):
        q = q_of(G3, [("a", "b")])
        assert FiniteQuasiUniformity.from_json(q.to_json()) == q

    def test_topology_specialization_must_be_preorder(self):
        bad = Relation.from_pairs(G3, [("a", "b"), ("b", "c")], reflexive=True)
        with pytest.raises(ValueError):
            FiniteTopology(bad)
