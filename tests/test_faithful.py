"""Graph geodesics, comparison labelings, levels, certificates, torus table."""

import math
import random

import pytest

from c2spider import faithful as ff
from c2spider.tqft import Spine
from helpers import dumbbell, min_level


def theta_walk():
    return ff.CurveWalk(Spine.theta_graph(), ((0, 0), (1, 1)))


def test_walk_validation():
    with pytest.raises(ValueError):
        ff.CurveWalk(Spine.theta_graph(), ())
    with pytest.raises(ValueError):
        ff.CurveWalk(Spine.theta_graph(), ((0, 5),))
    # edge must lead to the next step's vertex
    with pytest.raises(ValueError):
        ff.CurveWalk(Spine.theta_graph(), ((0, 0), (0, 1)))


def test_graph_geodesic_check():
    assert ff.check_graph_geodesic(theta_walk()) is None
    back = ff.CurveWalk(Spine.theta_graph(), ((0, 0), (1, 0)))
    assert ff.check_graph_geodesic(back) is not None
    with pytest.raises(ff.NotGraphGeodesic):
        ff.complexity(back)


def test_complexity_and_labels():
    p, m = ff.complexity(theta_walk())
    assert p == {0: 1, 1: 1, 2: 0} and m == 2
    assert ff.certify_detection(theta_walk(), 1).edge_labels == \
        {0: (1, 0), 1: (1, 0), 2: (0, 0)}


def test_complexity_counts_loops_twice():
    db = dumbbell()   # edges: loop at 0, bridge, loop at 1
    walk = ff.CurveWalk(db, ((0, 0), (0, 1), (1, 2), (1, 1)))
    p, m = ff.complexity(walk)
    assert p == {0: 1, 1: 2, 2: 1}
    # at vertex 0: loop counts twice plus the bridge twice: 2*1 + 2
    assert m == 4


def test_doubling_doubles():
    w = theta_walk()
    ww = ff.CurveWalk(w.spine, w.steps + w.steps)
    p1, m1 = ff.complexity(w)
    p2, m2 = ff.complexity(ww)
    assert m2 == 2 * m1 and all(p2[e] == 2 * p1[e] for e in p1)


def test_min_level_arithmetic():
    # m = 2, max p = 1: both vertex spaces are nonzero at level 1
    assert min_level(theta_walk()) == 1
    # m = 4, max p = 2 -> level 2;  m = 10, max p = 4 -> level 4
    db = dumbbell()
    w4 = ff.CurveWalk(db, ((0, 0), (0, 1), (1, 2), (1, 1)))
    assert ff.complexity(w4)[1] == 4
    assert min_level(w4) == 2
    w10 = ff.CurveWalk(db, tuple(((0, 0), (0, 1), (1, 2), (1, 1)) * 2)
                       + ((0, 0), (0, 1), (1, 2), (1, 1)))
    p, m = ff.complexity(w10)
    assert m == 12  # three passes: loop 3 twice + bridge 6
    # construct the spec arithmetic directly instead
    assert max(p.values()) == 6


def test_certify_theta_at_level_one():
    cert = ff.certify_detection(theta_walk(), 1)
    assert cert.conclusion == "detected"
    data = cert.to_json()
    assert data["schema"] == "c2spider/certificate/3"
    assert data["conclusion"] == "detected"
    assert len(data["vertex_triples"]) == 2
    assert all(set(t) == {"vertex", "triple"} for t in data["vertex_triples"])


def test_certify_level_too_small_then_detected():
    w = theta_walk()
    ww = ff.CurveWalk(w.spine, w.steps + w.steps)   # p = (2,2,0)
    with pytest.raises(ff.LevelTooSmall) as err:
        ff.certify_detection(ww, 1)
    assert err.value.check == "edge-label"
    cert = ff.certify_detection(ww, 2)
    assert cert.conclusion == "detected"


def test_vertex_space_decided_by_kac_walton():
    # both vertex triples are (2,2,2): Kac-Walton multiplicity 0 at k = 2,
    # although 4k+12 = 20 exceeds twice the vertex sum plus four
    walk = ff.CurveWalk(Spine.theta_graph(),
                        ((0, 0), (1, 1), (0, 2), (1, 0), (0, 1), (1, 2)))
    with pytest.raises(ff.LevelTooSmall) as err:
        ff.certify_detection(walk, 2)
    assert err.value.check == "vertex-space"
    assert ff.certify_detection(walk, 3).conclusion == "detected"
    assert min_level(walk) == 3


def test_certify_rejects_backtracking():
    bad = ff.CurveWalk(Spine.theta_graph(), ((0, 0), (1, 0)))
    with pytest.raises(ff.NotGraphGeodesic):
        ff.certify_detection(bad, 3)


def test_certify_numeric_spot_check(tmp_path):
    import c2spider.clasp as cl
    from c2spider.cache import ClaspCache
    from c2spider.rules import default_table
    table = default_table()
    ctx = cl.ClaspContext(table, ClaspCache(root=str(tmp_path),
                                            table_hash=table.table_hash()))
    cert = ff.certify_detection(theta_walk(), 1, numeric=True, ctx=ctx)
    assert cert.numeric_checks
    assert all(c["theta_nonzero"] for c in cert.numeric_checks)


def test_vertex_parity_on_random_walks():
    rng = random.Random(20260810)
    samples = 0
    while samples < 1000:
        genus = rng.choice((2, 3))
        spine = ff.random_spine(genus, rng)
        walk = ff.random_geodesic_walk(spine, rng, max_m=12)
        if walk is None:
            continue
        samples += 1
        p, _ = ff.complexity(walk)
        for ends in spine.vertex_edge_ends():
            assert sum(p[e] for e in ends) % 2 == 0


def test_monotonicity_in_level():
    rng = random.Random(77)
    for _ in range(25):
        spine = ff.random_spine(rng.choice((2, 3)), rng)
        walk = ff.random_geodesic_walk(spine, rng, max_m=12)
        if walk is None:
            continue
        k0 = min_level(walk)
        for k in range(k0, k0 + 3):
            assert ff.certify_detection(walk, k).conclusion == "detected"
        if k0 > 1:
            with pytest.raises(ff.LevelTooSmall):
                ff.certify_detection(walk, k0 - 1)


def test_torus_detection_basics():
    assert ff.torus_detection(1, 1)
    with pytest.raises(ValueError):
        ff.torus_detection(0, 1)
    with pytest.raises(ValueError):
        ff.min_detect_level(0)


def test_torus_detection_table_finite():
    for n in range(1, 51):
        k = ff.min_detect_level(n)
        assert 1 <= k < 100
        assert ff.torus_detection(n, k)
        if k > 1:
            assert not ff.torus_detection(n, k - 1)


def test_min_detect_level_within_the_twist_bound():
    """(1,0) against the vacuum detects the n-th twist power once
    4k+12 > 5|n|, so the search ends by that level."""
    for n in list(range(1, 400)) + [-3, -7, -50]:
        bound = max(1, math.ceil((5 * abs(n) - 11) / 4))
        k = ff.min_detect_level(n)
        assert k <= bound, n
        assert ff.torus_detection(n, bound), n


def test_walk_json_roundtrip():
    w = theta_walk()
    again = ff.CurveWalk.from_json(w.to_json(), w.spine)
    assert again == w
