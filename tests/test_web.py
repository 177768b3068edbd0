"""Web data model and the face-rewriting engine."""

import json
import os
import random
import subprocess
import sys

import pytest

from c2spider import cat
from c2spider import clasp as cl
from c2spider import engine as eng
from c2spider import web as wb
from c2spider.cache import ClaspCache
from c2spider.engine import WebSum, eval_closed, reduce_sum, resolve_crossings
from c2spider.ring import LaurentPoly, RationalFunction as RF, specialize
from c2spider.rules import FaceRule, RuleTable, default_table
from helpers import eval_at_one, loop_web

q = LaurentPoly.q_power
TABLE = default_table()


def rotate(w, steps):
    """Rotate the boundary basepoint counterclockwise by ``steps``."""
    out = w.copy()
    k = steps % len(out.boundary)
    out.boundary = out.boundary[k:] + out.boundary[:k]
    return out


def theta_web():
    th = wb.Web()
    _, d1 = th.add_vertex("tri", ["s", "s", "d"])
    _, d2 = th.add_vertex("tri", ["s", "s", "d"])
    th.connect(d1[0], d2[1])
    th.connect(d1[1], d2[0])
    th.connect(d1[2], d2[2])
    return th


def random_closed_web(rng, max_vertices=14):
    """Random planar closed trivalent web (rejection sampling)."""
    while True:
        nv = 2 * rng.randint(1, max_vertices // 2)
        w = wb.Web()
        s_legs, d_legs = [], []
        for _ in range(nv):
            _, darts = w.add_vertex("tri", ["s", "s", "d"])
            s_legs += darts[:2]
            d_legs.append(darts[2])
        rng.shuffle(d_legs)
        rng.shuffle(s_legs)
        ok = True
        for a, b in zip(d_legs[::2], d_legs[1::2]):
            if w.dart_vertex[a] == w.dart_vertex[b]:
                ok = False
                break
            w.connect(a, b)
        if not ok:
            continue
        for a, b in zip(s_legs[::2], s_legs[1::2]):
            w.connect(a, b)
        if w.validate() is None:
            return w


# -- structure ------------------------------------------------------------------


def test_validate_ok_cases():
    assert wb.empty_web().validate() is None
    assert theta_web().validate() is None
    assert wb.id_web(["s", "d", "s"]).validate() is None


def test_validate_trivalent_pattern():
    w = wb.Web()
    _, darts = w.add_vertex("tri", ["s", "s", "s"])
    for d in darts:
        b = w.new_dart("s")
        w.connect(d, b)
        w.boundary.append(b)
    w.n_in = 3
    bad = w.validate()
    assert bad and bad.kind == "trivalent-pattern"


def test_validate_planarity():
    th = theta_web()
    v = 0
    th.vlegs[v] = [th.vlegs[v][1], th.vlegs[v][0], th.vlegs[v][2]]
    # swapping two legs of one theta vertex makes the rotation system toroidal
    bad = th.validate()
    assert bad and bad.kind == "planarity"


def test_validate_refuses_what_no_code_builds():
    # only single-strand boxes (n,) are webs; a 'tet' vertex is no kind at all
    boxed = wb.trace_closure(wb.clasp_box_web(2))
    assert boxed.validate() is None
    tet = boxed.copy()
    tet.vkind[0] = "tet"
    old_form = boxed.copy()
    old_form.vextra[0] = (2, 0, 2)
    too_few_legs = boxed.copy()
    too_few_legs.vextra[0] = (3,)
    double_legs = wb.trace_closure(wb.clasp_box_web(1))
    for d in double_legs.etype:
        double_legs.etype[d] = "d"
    for w, kind in ((tet, "vertex-kind"), (old_form, "clasp-pattern"),
                    (too_few_legs, "clasp-pattern"), (double_legs, "clasp-pattern")):
        bad = w.validate()
        assert bad and bad.kind == kind, (bad, kind)


def test_compose_tensor_rotate_identities():
    i1 = wb.id_web(["s"])
    i2 = wb.id_web(["s", "s"])
    assert wb.compose(i2, i2).canonical_key() == i2.canonical_key()
    assert wb.tensor(wb.empty_web(), i1).canonical_key() == i1.canonical_key()
    assert rotate(i2, 4).canonical_key() == i2.canonical_key()
    with pytest.raises(wb.BoundaryMismatch):
        wb.compose(i1, i2)


def test_json_roundtrip_bit_exact():
    for w in (theta_web(), wb.crossing_web(True), wb.clasp_box_web(2),
              wb.id_web(["s", "d"])):
        blob = json.dumps(w.to_json(), sort_keys=True)
        again = wb.Web.from_json(json.loads(blob))
        assert json.dumps(again.to_json(), sort_keys=True) == blob
        assert again.canonical_key() == w.canonical_key()


def renumbered(w, rng):
    """The same closed web with darts and vertices renamed at random, stored
    in a random order, and each trivalent rotation read from a random leg."""
    dmap = dict(zip(w.etype, rng.sample(range(3 * len(w.etype)), len(w.etype))))
    vmap = dict(zip(w.vkind, rng.sample(range(3 * len(w.vkind)), len(w.vkind))))
    out = wb.Web()
    for v in rng.sample(list(w.vkind), len(w.vkind)):
        legs = [dmap[d] for d in w.vlegs[v]]
        if w.vkind[v] == "tri":
            k = rng.randrange(3)
            legs = legs[k:] + legs[:k]
        out.vkind[vmap[v]] = w.vkind[v]
        out.vextra[vmap[v]] = w.vextra[v]
        out.vlegs[vmap[v]] = legs
    for d in rng.sample(list(w.etype), len(w.etype)):
        out.etype[dmap[d]] = w.etype[d]
        out.dart_vertex[dmap[d]] = vmap[w.dart_vertex[d]]
        out.pair[dmap[d]] = dmap[w.pair[d]]
    out.free_loops = w.free_loops
    out._next_dart = max(out.etype, default=-1) + 1
    out._next_vertex = max(out.vkind, default=-1) + 1
    return out


def test_canonical_key_of_closed_webs(tmp_path, seed=5):
    """Keys of closed multi-component webs ignore how darts and vertices are
    named, and closed webs with different values get different keys."""
    rng = random.Random(seed)
    ctx = cl.ClaspContext(TABLE, ClaspCache(root=str(tmp_path),
                                            table_hash=TABLE.table_hash()))
    p3 = [w for _, w in cl.clasp_expand(3, "single", ctx)]
    pairings = [wb.plug(wb.mirror(a), b) for a in p3 for b in p3]
    pairings = [w for w in pairings if w.vkind]
    # connected four-vertex webs, one per value: all have 8 single and 4
    # double darts, so they share the root class size but not the key
    squares = {}
    for _ in range(200):
        w = random_closed_web(rng, 4)
        if w.n_vertices() == 4 and len(w.closed_components()) == 1:
            squares.setdefault(eval_closed(w), w)
    squares = list(squares.values())
    assert len(squares) >= 2
    webs = [wb.tensor(a, b) for a in squares for b in squares]
    webs += [wb.tensor(rng.choice(pairings), rng.choice(pairings)) for _ in range(40)]
    webs += [wb.tensor(rng.choice(pairings), s) for s in squares]
    webs += [wb.tensor(random_closed_web(rng, 10), random_closed_web(rng, 10))
             for _ in range(20)]
    for w in webs:
        comps = w.closed_components()
        assert len(comps) >= 2
        assert renumbered(w, rng).canonical_key() == w.canonical_key()
        for c in comps:
            assert c.canonical_key() == renumbered(c, rng).canonical_key()
    keys = {}
    for w in webs:
        value = keys.setdefault(w.canonical_key(), eval_closed(w))
        assert value == eval_closed(w)
    assert wb.tensor(squares[0], squares[0]).canonical_key() != \
        wb.tensor(squares[0], squares[1]).canonical_key()


# -- evaluation -----------------------------------------------------------------


def test_empty_and_loop_values():
    assert eval_closed(wb.empty_web()) == RF.coerce(1)
    d1 = eval_closed(loop_web("s"))
    d2 = eval_closed(loop_web("d"))
    # oracle: quantum Weyl dimension of the fundamentals, up to the recorded
    # global sign (minus for the single strand)
    assert d1 == RF.coerce(-1) * cat.qdim((1, 0))
    assert d2 == cat.qdim((0, 1))
    assert abs(eval_at_one(d1.num)) == 4
    assert abs(eval_at_one(d2.num)) == 5


def test_two_loops_multiplicative():
    two = eval_closed(wb.tensor(loop_web("s"), loop_web("s")))
    d1 = eval_closed(loop_web("s"))
    assert two == d1 * d1


def test_theta_value_consistent_with_clasp_degenerate():
    val = eval_closed(theta_web())
    beta_ss = None
    for r in TABLE.rules:
        if r.word == ("s", "s"):
            beta_ss = r.rhs[0][0]
    assert val == beta_ss * TABLE.loop["d"]


def test_reduce_rejects_boxes_and_crossings():
    # crossings are refused; a bare box is settled, and survives, while a
    # box under a cap meets a turnback and is dropped
    with pytest.raises(ValueError):
        reduce_sum(WebSum.from_web(wb.crossing_web(True)))
    box = wb.clasp_box_web(2)
    (c, w), = reduce_sum(WebSum.from_web(box))
    assert c == RF.coerce(1) and w.canonical_key() == box.canonical_key()
    assert reduce_sum(WebSum.from_web(wb.compose(wb.cap_web("s"), box))).is_zero()


def test_multiplicativity_random(seed=20260811):
    rng = random.Random(seed)
    for _ in range(10):
        a = random_closed_web(rng, 6)
        b = random_closed_web(rng, 6)
        ab = wb.tensor(a, b)
        assert eval_closed(ab) == eval_closed(a) * eval_closed(b)
        assert ab._ckey is None   # only its components are keyed


def test_mirror_invariance_of_closed_values(tmp_path, seed=31):
    """eval(mirror(W)) == eval(W), the symmetry that lets the self-pairing
    plug each unordered pair of terms once."""
    rng = random.Random(seed)
    chiral = 0
    for _ in range(400):
        w = random_closed_web(rng, 14)
        m = wb.mirror(w)
        chiral += m.canonical_key() != w.canonical_key()
        assert eval_closed(m) == eval_closed(w)
    assert chiral >= 20
    # mirror also swaps over and under, a half-turn of space: the closed
    # braids keep their values, although sigma^3 and sigma^-3 differ
    words = [[1, 1, 1], [1, -2, 1, -2], [1, 2, 1, 2, 2], [-1, 2, 2, -1, 2]]
    for word in words:
        w = wb.trace_closure(cl.braid_web(word, 3))
        assert eval_closed(wb.mirror(w)) == eval_closed(w), word
    trefoils = [wb.trace_closure(cl.braid_web([g] * 3, 2)) for g in (1, -1)]
    assert eval_closed(trefoils[0]) != eval_closed(trefoils[1])
    # plug(mirror(b), a) is the mirror image of plug(mirror(a), b)
    ctx = cl.ClaspContext(TABLE, ClaspCache(root=str(tmp_path),
                                            table_hash=TABLE.table_hash()))
    p3 = [w for _, w in cl.clasp_expand(3, "single", ctx)]
    for a in p3:
        for b in p3:
            assert wb.plug(wb.mirror(b), a).canonical_key() == \
                wb.mirror(wb.plug(wb.mirror(a), b)).canonical_key()


def _random_order_value(web, rng):
    """Reference reducer: rewrite a reducible face picked at random until
    none is left, with no memo and no component split."""
    total = RF.coerce(0)
    stack = [(RF.coerce(1), web)]
    while stack:
        coeff, w = stack.pop()
        if w.free_loops:
            for t in w.free_loops:
                coeff = coeff * TABLE.loop[t]
            w = w.copy()
            w.free_loops = ()
        matches = eng._face_matches(w, TABLE)
        if not matches:
            assert not w.vkind
            total = total + coeff
            continue
        _, face, rule, rot = rng.choice(matches)
        stack.extend((coeff * c, w2) for c, w2 in eng.apply_face_rule(w, face, rule, rot))
    return total


def test_confluence_500_random_webs(seed=702):
    """Reduction by the smallest face, closed evaluation (components and
    memo) and rewriting in random face order give one scalar."""
    rng = random.Random(seed)
    for i in range(500):
        w = random_closed_web(rng, 14)
        value = reduce_sum(WebSum.from_web(w)).scalar()
        assert eval_closed(w) == value, f"confluence breaks on sample {i}"
        assert _random_order_value(w, rng) == value, f"confluence breaks on sample {i}"


def test_rotation_invariance_of_closures(seed=11):
    rng = random.Random(seed)
    x = wb.compose(wb.merge_vertex_web(), wb.split_vertex_web())  # d -> d bigon
    y = wb.compose(x, x)
    base = eval_closed(wb.plug(y, wb.mirror(y)))
    m = len(y.boundary)
    for k in range(1, m):
        a = rotate(y, k)
        b = rotate(wb.mirror(y), -k)
        assert eval_closed(wb.plug(a, b)) == base


# -- crossings ---------------------------------------------------------------------


def test_reidemeister_two():
    pos, neg = wb.crossing_web(True), wb.crossing_web(False)
    r2 = reduce_sum(resolve_crossings(wb.compose(neg, pos)))
    assert eng.sum_is_zero(r2 - WebSum.from_web(wb.id_web(["s", "s"])))


def test_reidemeister_three():
    i1 = wb.id_web(["s"])
    pos = wb.crossing_web(True)
    s1 = wb.tensor(pos, i1)
    s2 = wb.tensor(i1, pos)
    lhs = reduce_sum(resolve_crossings(
        wb.compose(s1, wb.compose(s2, s1))))
    rhs = reduce_sum(resolve_crossings(
        wb.compose(s2, wb.compose(s1, s2))))
    assert eng.sum_is_zero(lhs - rhs)


def _curl_web(positive):
    w = wb.Web()
    _, legs = w.add_vertex("cross", ["s"] * 4, extra=("over", 0 if positive else 1))
    b_in = w.new_dart("s")
    b_out = w.new_dart("s")
    w.connect(legs[0], b_in)
    w.connect(legs[3], b_out)
    w.connect(legs[1], legs[2])
    w.boundary = [b_in, b_out]
    w.n_in = 1
    return w


def test_framing_factor():
    f = TABLE.framing
    for positive in (True, False):
        closed = wb.trace_closure(_curl_web(positive))
        val = eval_closed(resolve_crossings(closed))
        want = f if positive else RF.coerce(1) / f
        assert val == want * TABLE.loop["s"]
    # Reidemeister I contributes exactly the framing scalar
    strand = WebSum.from_web(wb.id_web(["s"]))
    kinked = reduce_sum(resolve_crossings(_curl_web(True)))
    assert eng.sum_is_zero(kinked - strand.scale(f))


def test_traced_crossing_invariant_under_r2_before_tracing():
    pos, neg = wb.crossing_web(True), wb.crossing_web(False)
    one = eval_closed(resolve_crossings(wb.trace_closure(pos)))
    padded = wb.compose(pos, wb.compose(neg, pos))
    other = eval_closed(resolve_crossings(wb.trace_closure(padded)))
    assert one == other


def test_hopf_link_matches_smatrix():
    pos = wb.crossing_web(True)
    hopf = wb.trace_closure(wb.compose(pos, pos))
    val = eval_closed(resolve_crossings(hopf))
    for k in (1, 2):
        md = cat.modular_data(k)
        i_v = md.index((1, 0))
        ratio = md.s_tilde[i_v][i_v] / md.s_tilde[0][0]
        assert specialize(val, md.order) == ratio


def test_rule_table_hash_changes_with_content():
    data = TABLE.to_json()
    assert TABLE.table_hash() == default_table().table_hash()
    import copy
    other = copy.deepcopy(data)
    other["loop"]["s"] = other["loop"]["d"]
    assert RuleTable.from_json(other).table_hash() != TABLE.table_hash()


def test_rule_table_refuses_a_face_rule_that_does_not_shrink():
    # the ss bigon rewritten to itself: two vertices for two sides
    bigon = ((("tri", ("s", "s", "d"), ()),) * 2, (
        (("x", 0), ("v", 0, 2), "d"),
        (("v", 0, 0), ("v", 1, 1), "s"),
        (("v", 0, 1), ("v", 1, 0), "s"),
        (("v", 1, 2), ("x", 1), "d"),
    ))
    rules = [FaceRule(r.word, ((RF.coerce(1), bigon),)) if r.word == ("s", "s") else r
             for r in TABLE.rules]
    with pytest.raises(ValueError, match="face rule ss "):
        RuleTable(TABLE.loop, rules)
    assert RuleTable(TABLE.loop, TABLE.rules).max_face == 6


def test_incomplete_table_raises_non_terminating():
    # no face rules: the theta web has no reducible face
    with pytest.raises(eng.NonTerminating):
        eval_closed(theta_web(), table=RuleTable(TABLE.loop, []))


def test_rule_table_regenerates_byte_identical(tmp_path):
    # the frozen table is data derived from quantum sp(4): rerunning the
    # derivation must reproduce the committed file exactly
    root = os.path.join(os.path.dirname(__file__), "..")
    out = tmp_path / "rules_data.py"
    subprocess.run([sys.executable, os.path.join(root, "tools", "derive_rules.py"), str(out)],
                   check=True, capture_output=True, timeout=300)
    with open(os.path.join(root, "src", "c2spider", "rules_data.py"), "rb") as fh:
        assert out.read_bytes() == fh.read()
