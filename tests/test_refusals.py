"""Each invariant is refused in one place: every caller of that check, exercised together."""

from fractions import Fraction as F
from pathlib import Path

import pytest

from qusp.cli import InputProblem, _parse_scales
from qusp.hyper import hyper_h, qh_equivalent, qh_local_criterion
from qusp.intervals import GROUND, iv
from qusp.metrize import FiniteQuasiPseudometric, entourage_at
from qusp.quniform import FiniteQuasiUniformity, FiniteTopology, join_topologies
from qusp.ratcover import (
    EUCLID,
    LOWER,
    CoverError,
    OmegaCover,
    cert_boundedhaus,
    cert_monotonehaus,
    cert_not_entourage,
    connectivity_certificate,
    dense_scenario,
)
from qusp.relcore import NormalSequence, Relation, ground

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
}

# The only checks that compare grounds: one for relations, two for hyper relations.
GROUND_CHECKS = {("relcore.py", "_check_same_ground"), ("hyper.py", "__le__"), ("hyper.py", "__and__")}


@pytest.mark.parametrize("site", CROSS_GROUND)
def test_cross_ground_refusals(site):
    with pytest.raises(ValueError, match="different ground sets") as info:
        CROSS_GROUND[site]()
    raised_in = info.traceback[-1]
    assert (Path(raised_in.path).name, raised_in.name) in GROUND_CHECKS
