"""Each invariant is refused in one place: every caller of that check, exercised together."""

import re
from fractions import Fraction as F
from pathlib import Path

import pytest

import qusp.ratcover
from qusp.cli import InputProblem, _parse_scales
from qusp.hyper import HyperRelation, enumerate_preorders, hyper_h, qh_equivalent, qh_local_criterion
from qusp.intervals import EMPTY, GROUND, iv
from qusp.metrize import FiniteQuasiPseudometric, check_sandwich, entourage_at, random_normal_sequence
from qusp.quniform import FiniteQuasiUniformity, FiniteTopology, join_topologies
from qusp.ratcover import (
    EUCLID,
    LOWER,
    CoverError,
    OmegaCover,
    StarTower,
    cert_boundedhaus,
    cert_monotonehaus,
    cert_not_entourage,
    connectivity_certificate,
    cover_normal_sequence,
    cover_successor_of_point,
    dense_scenario,
    probe_indices,
    refined_base,
)
from qusp.relcore import GroundSet, NormalSequence, Relation, ground

COVER = dense_scenario(F(1, 2), 8)[0]
PROBE = iv(F(1, 4), F(1, 2))
METRIC = FiniteQuasiPseudometric(ground("a", "b"), ((F(0), F(1, 2)), (F(1, 3), F(0))))

# Every caller of `serialize._positive`, handed one scale.  The CLI reads
# scales as strings from the scenario file and reports an `InputProblem`.
SCALE_SITES = {
    "image": lambda s: EUCLID.image(s, PROBE),
    "is_small": lambda s: LOWER.is_small(PROBE, s),
    "cert_monotonehaus": lambda s: cert_monotonehaus(COVER, s, PROBE),
    "cert_boundedhaus": lambda s: cert_boundedhaus(COVER, s),
    "cert_not_entourage": lambda s: cert_not_entourage(COVER, [s]),
    # The ground is skipped without taking an image, so no check in `image` can mask this one.
    "connectivity_certificate": lambda s: connectivity_certificate(EUCLID, s, [GROUND]),
    "dense_scenario": lambda s: dense_scenario(s, depth=4),
    "entourage_at": lambda s: entourage_at(METRIC, s),
    "_parse_scales": lambda s: _parse_scales({"scales": [str(s)]}, "scales", []),
}


@pytest.mark.parametrize(
    "site, value, error, match",
    [
        pytest.param(
            site, value, InputProblem if site == "_parse_scales" else ValueError, "must be positive", id=f"{site}-{value}"
        )
        for site in SCALE_SITES
        for value in (F(0), F(-1, 2))
    ]
    + [pytest.param(site, 0.5, TypeError, "0.5", id=f"{site}-float") for site in SCALE_SITES if site != "_parse_scales"],
)
def test_scale_refusals(site, value, error, match):
    with pytest.raises(error, match=match) as info:
        SCALE_SITES[site](value)
    if error is not InputProblem:
        # The site's own check refuses, not the same check in a function it calls.
        names = [entry.name for entry in info.traceback]
        assert names[names.index("_positive") - 1] == site


@pytest.mark.parametrize("scale", [F(0), F(-1, 2)])
def test_nonpositive_ladder_scale_is_a_cover_error(scale):
    with pytest.raises(CoverError, match="ladder scale 1 is not positive"):
        OmegaCover(EUCLID, COVER.sets[:3], (COVER.base_scales[0], scale, scale))


G2 = ground("a", "b")
G3 = ground("a", "b", "c")
Q2 = FiniteQuasiUniformity.discrete(G2)
Q3 = FiniteQuasiUniformity.discrete(G3)
T2 = FiniteTopology(Relation.identity(G2))
T3 = FiniteTopology(Relation.identity(G3))

CROSS_GROUND = {
    "HyperRelation.__le__": lambda: hyper_h(Relation.identity(G2)) <= hyper_h(Relation.identity(G3)),
    "HyperRelation.__and__": lambda: hyper_h(Relation.identity(G2)) & hyper_h(Relation.identity(G3)),
    "qh_local_criterion": lambda: qh_local_criterion(Relation.identity(G2), Relation.identity(G3), 1),
    "qh_equivalent": lambda: qh_equivalent(Q2, Q3),
    "FiniteTopology.is_coarser_than": lambda: T2.is_coarser_than(T3),
    "join_topologies": lambda: join_topologies(T2, T3),
    "NormalSequence": lambda: NormalSequence((Relation.full(G2), Relation.identity(G3))),
    "check_sandwich": lambda: check_sandwich(METRIC, NormalSequence((Relation.full(G3),))),
}

# The only checks that compare grounds: one for relations, two for hyper relations.
GROUND_CHECKS = {("relcore.py", "_check_same_ground"), ("hyper.py", "__le__"), ("hyper.py", "__and__")}


@pytest.mark.parametrize("site", CROSS_GROUND)
def test_cross_ground_refusals(site):
    with pytest.raises(ValueError, match="different ground sets") as info:
        CROSS_GROUND[site]()
    raised_in = info.traceback[-1]
    assert (Path(raised_in.path).name, raised_in.name) in GROUND_CHECKS


# One refusal each, by the check that makes it: call, exception type, message.
REFUSALS = {
    "GroundSet empty": (lambda: GroundSet(()), ValueError, "ground set must be nonempty"),
    "GroundSet.index": (lambda: G2.index("z"), KeyError, "label 'z' not in ground set"),
    "Relation row bits": (lambda: Relation(G2, (0b100, 0b01)), ValueError, "row bits outside ground set"),
    "Relation.from_json n": (
        lambda: Relation.from_json({"n": 3, "labels": ["a", "b"], "rows": ["10", "01"]}),
        ValueError,
        "n does not match label count",
    ),
    "NormalSequence empty": (lambda: NormalSequence(()), ValueError, "no levels"),
    "HyperRelation rows": (lambda: HyperRelation(G2, (0,)), ValueError, "one row per subset mask"),
    "enumerate_preorders": (lambda: enumerate_preorders(0), ValueError, "ground size must be positive"),
    "FiniteQuasiPseudometric negative": (
        lambda: FiniteQuasiPseudometric(G2, ((F(0), F(-1)), (F(1), F(0)))),
        ValueError,
        "distances must be nonnegative",
    ),
    "random_normal_sequence": (lambda: random_normal_sequence(0, 0, 1), ValueError, "positive ground size and depth"),
    "OmegaCover ladder length": (
        lambda: OmegaCover(EUCLID, COVER.sets[:3], COVER.base_scales[:2]),
        CoverError,
        "one ladder scale per materialized set required",
    ),
    "OmegaCover empty set": (
        lambda: OmegaCover(EUCLID, (EMPTY, COVER.sets[1]), COVER.base_scales[:2]),
        CoverError,
        "cover set 0 is empty",
    ),
    "OmegaCover ground set": (
        lambda: OmegaCover(EUCLID, (COVER.sets[0], GROUND), COVER.base_scales[:2]),
        CoverError,
        "cover set 1 equals the ground",
    ),
    # 1/17 lies in set 8, the deepest, and in no shallower set (set 7 is (1/16, 1)).
    "cover_successor_of_point": (
        lambda: cover_successor_of_point(COVER, F(1, 17)),
        CoverError,
        "successor of index 8 exceeds truncation depth 8",
    ),
    "cover_normal_sequence depth": (lambda: cover_normal_sequence(COVER, -1), CoverError, "must be nonnegative"),
    # iv(1/17, 1/2) lies in set 8, the deepest, so a tower of depth 9 decides it.
    "probe_indices containing": (
        lambda: probe_indices(COVER, iv(F(1, 17), F(1, 2))),
        CoverError,
        "contained only in the deepest materialized set 8, whose successor lies beyond truncation depth 8; "
        "truncation depth 9 would decide it",
    ),
    # iv(1/100, 1/2) lies in no materialized set and keeps a positive infimum.
    "probe_indices cofinal": (
        lambda: probe_indices(COVER, iv(F(1, 100), F(1, 2))),
        CoverError,
        "subset exceeds truncation depth without being cofinal-detectable",
    ),
    "probe_indices meeting": (
        lambda: probe_indices(COVER, iv(0, F(1, 17))),
        CoverError,
        "smallest meeting index has no materialized successor",
    ),
    "cert_monotonehaus empty": (lambda: cert_monotonehaus(COVER, F(1, 4), EMPTY), ValueError, "must be nonempty"),
    "cert_monotonehaus containing": (
        lambda: cert_monotonehaus(COVER, F(1, 4), iv(F(1, 17), F(1, 2))),
        CoverError,
        "contained only in the deepest materialized set 8, whose successor lies beyond truncation depth 8; "
        "truncation depth 9 would decide it",
    ),
    "refined_base no scales": (
        lambda: refined_base(cover_normal_sequence(COVER, 0), [], []),
        ValueError,
        "need at least one background scale",
    ),
    "refined_base failed tower": (
        lambda: refined_base(StarTower((COVER,), {"passed": False}), [F(1, 4)], []),
        CoverError,
        "normal sequence certificate failed",
    ),
}


@pytest.mark.parametrize("site", REFUSALS)
def test_refusals(site):
    call, error, message = REFUSALS[site]
    with pytest.raises(error, match=re.escape(message)) as info:
        call()
    assert info.type is error


def test_refined_base_refuses_a_failed_complement_cover(monkeypatch):
    # A validated cover always has a small decomposition, so refined_base's
    # own check is reached only through a certificate that says it failed.
    monkeypatch.setattr(qusp.ratcover, "cert_boundedhaus", lambda cov, s: {"passed": False})
    with pytest.raises(CoverError, match="complement small cover failed for cover 0 at scale 1/4"):
        refined_base(cover_normal_sequence(COVER, 0, grid_size=16), [F(1, 4)], [])
