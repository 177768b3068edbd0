"""Projector expansion, axioms, traces, theta networks and the cache."""

import hashlib
import itertools
import json
import random

import pytest

from c2spider import cat
from c2spider import clasp as cl
from c2spider import engine as eng
from c2spider import faithful as ff
from c2spider import web as wb
from c2spider.cache import ClaspCache, cache_gc
from c2spider.ring import (DenominatorVanishes, LaurentPoly,
                           RationalFunction as RF, cyclotomic_orders, qint,
                           specialize)
from c2spider.rules import RuleTable, default_table
from c2spider.tqft import Spine
from helpers import e_at, g_at, resolve_fully, scalar, settle

q = LaurentPoly.q_power


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    table = default_table()
    root = tmp_path_factory.mktemp("clasp-cache")
    return cl.ClaspContext(table, ClaspCache(root=str(root),
                                             table_hash=table.table_hash()))


def test_clasp_label_expandable(ctx):
    # clasp labels are plain weights: negative components are refused, and a
    # mixed weight (a, b > 0) has double strands, whose clasps are not built
    with pytest.raises(ValueError):
        cl.clasp_trace((-1, 0), ctx)
    with pytest.raises(ValueError):
        cl.clasp_trace((0, -1), ctx)
    with pytest.raises(NotImplementedError, match="double strands"):
        cl.clasp_trace((1, 1), ctx)


def test_expand_base_cases(ctx):
    p1 = cl.clasp_expand(1, "single", ctx)
    assert len(p1) == 1
    ((c, w),) = list(p1)
    assert c == RF.coerce(1) and w.n_vertices() == 0
    assert len(cl.clasp_expand(0, "single", ctx)) == 1
    # only single-strand clasps are built
    for n in (0, 1, 2):
        with pytest.raises(ValueError, match="single-strand"):
            cl.clasp_expand(n, "double", ctx)


def test_recursion_coefficients_n2(ctx):
    c1, c2 = cl.recursion_coefficients(2)
    delta1 = ctx.table.loop["s"]
    assert c1 == RF.coerce(-1) / delta1
    assert c2 == RF.coerce(1) / RF.coerce(qint(2) * qint(2))


_FLAT = {}


def _flat_clasp(n, ctx):
    """Reference P_n, independent of the box-level expansion: the recursion
    composed and reduced on flat sums, P_{n-1} itself expanded this way."""
    key = (ctx.table.table_hash(), n)
    if key not in _FLAT:
        if n <= 1:
            _FLAT[key] = eng.WebSum.from_web(wb.id_web(["s"] * n))
        else:
            t0, t1, t2 = _recursion_terms(n, ctx)
            c1, c2 = cl.recursion_coefficients(n)
            _FLAT[key] = t0 + t1.scale(c1) + t2.scale(c2)
    return _FLAT[key]


def _recursion_terms(n, ctx):
    """The reduced flat sums t0 = P_{n-1} (x) 1, t1 = t0 E t0 and t2 = t0 G t0."""
    table = ctx.table
    one = wb.id_web(["s"])
    t0 = eng.reduce_sum(_flat_clasp(n - 1, ctx).map_webs(lambda w: wb.tensor(w, one)),
                        table=table)
    t1 = eng.reduce_sum(eng.sum_compose(t0, eng.sum_compose(
        eng.WebSum.from_web(e_at(n, n - 2)), t0)), table=table)
    t2 = eng.reduce_sum(eng.sum_compose(t0, eng.sum_compose(
        eng.WebSum.from_web(g_at(n, n - 2)), t0)), table=table)
    return t0, t1, t2


def test_expansion_equals_the_flat_recursion(ctx):
    for n in (2, 3, 4):
        assert eng.sum_is_zero(cl.clasp_expand(n, "single", ctx) - _flat_clasp(n, ctx),
                               table=ctx.table), n


def _worklist_expand_boxes(web, ctx):
    """Reference for expand_boxes: a plain stack that expands every web it
    reaches, as often as it reaches it."""
    out = eng.WebSum()
    stack = [(RF.coerce(1), web)]
    while stack:
        coeff, w = stack.pop()
        w = settle(w)
        if w is None:
            continue
        if not eng._box_positions(w):
            out.add(coeff, w)
            continue
        stack.extend((coeff * c, w2) for c, w2 in eng._expand_one_box(w, ctx.table))
    return out


def _coefficients(ws):
    return {k: c for k, (c, _) in ws.terms.items()}


def test_merged_expansion_equals_the_worklist(ctx):
    # the same keys with the same coefficients, term by term
    for n in (2, 3, 4):
        box = wb.clasp_box_web(n)
        assert _coefficients(cl.expand_boxes(box, ctx)) == \
            _coefficients(_worklist_expand_boxes(box, ctx)), n


def test_merged_expansion_expands_each_distinct_web_once(ctx, monkeypatch):
    keys = []
    expand = eng._expand_one_box

    def spy(web, *args, **kwargs):
        keys.append(web.canonical_key())
        return expand(web, *args, **kwargs)

    monkeypatch.setattr(eng, "_expand_one_box", spy)
    for n, steps in ((3, 9), (4, 96)):
        keys.clear()
        cl.expand_boxes(wb.clasp_box_web(n), ctx)
        assert len(keys) == len(set(keys)) == steps, n


@pytest.mark.slow
def test_merged_expansion_of_p5_equals_the_worklist_in_the_skein(ctx):
    # about 11 s on a 2-core host, most of it the worklist; run with -m slow.
    # A box picked among equals by vertex id can differ between the two, so
    # the sums may differ by an exact zero
    box = wb.clasp_box_web(5)
    diff = cl.expand_boxes(box, ctx) - _worklist_expand_boxes(box, ctx)
    assert eng.sum_is_zero(diff, table=ctx.table)


def _solve_recursion_coefficients(n, ctx):
    """Oracle for the closed form: solve the two annihilation conditions.

    Both cap . P_n and merge . P_n land in spaces where everything factoring
    through the lower clasp is proportional, so one closed pairing per
    condition determines (c1, c2).
    """
    table = ctx.table
    t0, t1, t2 = _recursion_terms(n, ctx)
    rows = []
    for probe in (cl.cap_at(n, n - 2), cl.merge_at(n, n - 2)):
        xs = [eng.reduce_sum(eng.sum_compose(eng.WebSum.from_web(probe), t),
                             table=table) for t in (t0, t1, t2)]
        pairings = [eng.pair_closed(xs[0], x, table=table) for x in xs]
        assert not pairings[0].is_zero()
        rows.append(pairings)
    (l0, l1, l2), (m0, m1, m2) = rows
    det = l1 * m2 - l2 * m1
    assert not det.is_zero()
    return (l2 * m0 - l0 * m2) / det, (l0 * m1 - l1 * m0) / det


def test_recursion_coefficients_match_pairing_solve(ctx):
    for n in (2, 3, 4):
        assert cl.recursion_coefficients(n) == \
            _solve_recursion_coefficients(n, ctx)


def test_recursion_coefficients_partial_trace(ctx):
    # closing the last strand of P_n = t0 + c1 t1 + c2 t2 gives
    # (delta + c1 + c2 beta) P_{n-1}, and the trace of P_n is (-1)^n qdim
    delta = ctx.table.loop["s"]
    beta = eng.eval_closed(wb.trace_closure(g_at(2, 0)),
                           table=ctx.table) / delta
    assert beta == RF.coerce(qint(5))
    for n in range(2, 11):
        c1, c2 = cl.recursion_coefficients(n)
        assert delta + c1 + c2 * beta == \
            -cat.qdim((n, 0)) / cat.qdim((n - 1, 0))
    with pytest.raises(ValueError):
        cl.recursion_coefficients(1)


def test_expand_two_strands_shape(ctx):
    p2 = cl.clasp_expand(2, "single", ctx)
    assert len(p2) == 3
    shapes = sorted(w.n_vertices() for _, w in p2)
    assert shapes == [0, 0, 2]


def test_turnbacks(ctx):
    assert cl.turnback_kill(1, ctx) == {}
    for n in (2, 3):
        report = cl.turnback_kill(n, ctx)
        assert len(report) == n - 1
        assert all(v["cap"] and v["vertex"] for v in report.values())


def test_turnbacks_by_direct_probes(ctx):
    # reference for the factorized proof of turnback_kill(): probe every
    # position of P_n itself
    for n in (2, 3, 4):
        p = cl.clasp_expand(n, "single", ctx)
        direct = {i: {"cap": cl._annihilates(cl.cap_at(n, i), p, ctx, above=True),
                      "vertex": cl._annihilates(cl.merge_at(n, i), p, ctx, above=True)}
                  for i in range(n - 1)}
        assert all(v["cap"] and v["vertex"] for v in direct.values()), n
        assert cl.turnback_kill(n, ctx) == direct, n


def test_idempotence(ctx):
    for n in (2, 3):
        assert cl.idempotent(n, ctx)


def test_idempotence_by_direct_composition(ctx):
    # reference for the factorized proof of idempotent(): compose P with
    # itself and compare by pairing
    for n in (2, 3):
        p = cl.clasp_expand(n, "single", ctx)
        pp = eng.reduce_sum(eng.sum_compose(p, p), table=ctx.table)
        assert eng.sum_is_zero(pp - p, table=ctx.table), n


def test_traces_match_quantum_dimensions(ctx):
    assert cl.clasp_trace((0, 0), ctx) == RF.coerce(1)
    assert cl.clasp_trace((1, 0), ctx) == ctx.table.loop["s"]
    # recorded convention: single-strand clasps carry the sign (-1)^n
    for n in (1, 2, 3):
        sign = RF.coerce((-1) ** n)
        assert cl.clasp_trace((n, 0), ctx) == sign * cat.qdim((n, 0))
    # double-strand clasps are not built
    for weight in ((0, 1), (0, 2)):
        with pytest.raises(NotImplementedError):
            cl.clasp_trace(weight, ctx)


def test_braid_eigenvalues(ctx):
    assert cl.braid_eigenvalue([], 2, ctx) == RF.coerce(1)
    assert cl.braid_eigenvalue([1], 2, ctx) == RF.coerce(q(1))
    assert cl.braid_eigenvalue([-1, -2], 3, ctx) == RF.coerce(q(-2))
    with pytest.raises(ValueError):
        cl.braid_eigenvalue([3], 3, ctx)


def test_braid_verification_catches_wrong_scalar(ctx):
    p = cl.clasp_expand(2, "single", ctx)
    b = eng.resolve_crossings(cl.braid_web([1], 2), table=ctx.table)
    lhs = eng.reduce_sum(eng.sum_compose(b, p), table=ctx.table)
    wrong = p.scale(RF.coerce(q(-1)))
    assert not eng.sum_is_zero(lhs - wrong, table=ctx.table)


def test_theta_degenerate_cases(ctx):
    assert cl.theta_net(0, 0, 0, ctx) == RF.coerce(1)
    assert cl.theta_net(1, 1, 1, ctx).is_zero()
    assert cl.theta_net(1, 1, 0, ctx) == cl.clasp_trace((1, 0), ctx)
    assert cl.theta_net(2, 2, 0, ctx) == cl.clasp_trace((2, 0), ctx)
    assert cl.theta_net(4, 1, 1, ctx).is_zero()   # triangle inequality fails


def test_theta_symmetry(ctx):
    a = cl.theta_net(2, 1, 1, ctx)
    assert a == cl.theta_net(1, 2, 1, ctx) == cl.theta_net(1, 1, 2, ctx)
    assert not a.is_zero()


def test_clasp_poles():
    # P_0 and P_1 are identities: nothing to divide by
    assert cl.clasp_poles(0) == frozenset()
    assert cl.clasp_poles(1) == frozenset()
    # P_3's recursion coefficient c1 = q^4 Phi_8 / (Phi_3 Phi_6 Phi_16)
    # has a Phi_16 below the line, so P_3 does not exist at order 16
    c1, _ = cl.recursion_coefficients(3)
    assert specialize(c1.den, 16).is_zero()
    poles = cl.clasp_poles(3)
    assert 16 in poles
    assert 20 not in poles and 24 not in poles
    with pytest.raises(ValueError):
        cl.clasp_poles(-1)


def _forbidden(*args, **kwargs):
    raise AssertionError("called where no expansion or pairing may run")


def test_clasp_pole_sets(ctx):
    want = {2: {4, 12}, 3: {3, 4, 6, 12, 16}, 4: {3, 4, 6, 8, 12, 16, 20}}
    for n, poles in want.items():
        assert cl.clasp_poles(n) == poles
        # oracle: the poles of the coefficients of the expansion itself
        dens = {c.den for c, _ in cl.clasp_expand(n, "single", ctx)}
        assert frozenset().union(*map(cyclotomic_orders, dens)) == poles


def test_clasp_poles_expand_nothing(monkeypatch):
    monkeypatch.setattr(eng, "_EVAL_MEMO", {})
    monkeypatch.setattr(eng, "pair_closed", _forbidden)
    monkeypatch.setattr(cl, "clasp_expand", _forbidden)
    poles = cl.clasp_poles(8)
    assert cl.clasp_poles(4) < poles
    assert 36 in poles   # [18] in the denominator of c1(8)


def test_theta_at_refuses_clasp_poles(ctx):
    with pytest.raises(cl.ClaspPole):
        cl.theta_at(3, 2, 1, 16, ctx)
    # a pole is still a vanishing denominator for callers that catch those
    with pytest.raises(DenominatorVanishes):
        cl.theta_at(3, 2, 1, 16, ctx)
    # where every clasp exists it is the plain specialization
    assert cl.theta_at(2, 1, 1, 16, ctx) == \
        specialize(cl.theta_net(2, 1, 1, ctx), 16)


def _admissible_triples(top):
    """Admissible triples a <= b <= c <= top with c >= 1."""
    return [(a, b, c) for c in range(1, top + 1) for b in range(c + 1)
            for a in range(b + 1) if (a + b + c) % 2 == 0 and a + b >= c]


@pytest.fixture(scope="module")
def thetas(ctx):
    """theta_net of every admissible triple with labels at most 5."""
    return {t: cl.theta_net(*t, ctx) for t in _admissible_triples(5)}


def _kac_walton_agreements(values, ctx, monkeypatch):
    """Specialize each theta through theta_at at the orders 4k+12, k from
    the largest label to 12, and require it nonzero exactly where the
    Kac-Walton multiplicity is 1; returns the number of cases.  No such
    order is a pole of the clasps involved, or theta_at would refuse it."""
    monkeypatch.setattr(cl, "theta_net", lambda a, b, c, ctx=None: values[(a, b, c)])
    cases = 0
    for (a, b, c) in values:
        for k in range(c, 13):
            theta = cl.theta_at(a, b, c, cat.q_order(k), ctx)
            kw = cat.triple_multiplicity((a, 0), (b, 0), (c, 0), level=k)
            assert (not theta.is_zero()) == (kw == 1), (a, b, c, k)
            cases += 1
    return cases


def test_theta_at_agrees_with_kac_walton(ctx, thetas, monkeypatch):
    # the vertex spaces of a certificate come from Kac-Walton fusion; the
    # specialized theta must vanish exactly where that multiplicity is 0
    assert len(thetas) == 19
    assert _kac_walton_agreements(thetas, ctx, monkeypatch) == 177


def test_theta_at_agrees_with_kac_walton_labels_6(ctx, monkeypatch):
    # about 1.3 s on a 2-core host, most of it theta(6,6,6)
    values = {t: cl.theta_net(*t, ctx) for t in _admissible_triples(6) if t[2] == 6}
    assert len(values) == 10
    assert _kac_walton_agreements(values, ctx, monkeypatch) == 70


def _value_digest(value):
    return hashlib.sha256(json.dumps(value.to_json(), sort_keys=True).encode()).hexdigest()


@pytest.mark.slow
def test_thetas_877_and_886_keep_their_values(ctx):
    # about 6 s on a 2-core host; run with -m slow.  The digests were
    # computed by an earlier version, which made more webs
    assert _value_digest(cl.theta_net(8, 7, 7, ctx)) == \
        "6abac1c85d84bb049c1a6663d45cf5d894f620498685240b79dfa5698875d147"
    assert _value_digest(cl.theta_net(8, 8, 6, ctx)) == \
        "93770ea74f4c3d68096e151e476ea917e9a4246de14f297adf58911ad2c55a3b"


def _flat_value(web, ctx):
    """Reference value of a closed web of single boxes: each box is replaced
    by the flat reference P_n, and a term in which a box meets a turnback is
    dropped before it is reduced."""
    total = RF.coerce(0)
    stack = [(RF.coerce(1), web)]
    while stack:
        coeff, w = stack.pop()
        w = settle(w)
        if w is None:
            continue
        boxes = eng._box_positions(w)
        if not boxes:
            total = total + coeff * eng.eval_closed(w, ctx.table)
            continue
        v = boxes[-1]
        p = _flat_clasp(w.vextra[v][0], ctx)
        pieces = eng._splice(w, {v}, list(w.vlegs[v]), [eng.to_mini(d) for _, d in p])
        partial = eng.WebSum()
        for (c, _), piece in zip(p, pieces):
            piece = settle(piece)
            if piece is not None:
                partial.add(coeff * c, piece)
        stack.extend(eng.reduce_sum(partial, table=ctx.table))
    return total


def test_thetas_equal_their_flat_clasp_values(ctx, thetas):
    # the network is laid out here with its labels in ascending order, which
    # theta_net does not use, so this also checks the symmetry it relies on
    for t in _admissible_triples(4):
        assert thetas[t] == _flat_value(cl._theta_web(*t), ctx), t


def test_theta_nn0_is_the_signed_quantum_dimension(ctx):
    for n in range(9):
        assert cl.theta_net(n, n, 0, ctx) == RF.coerce((-1) ** n) * cat.qdim((n, 0))


def test_theta_552_equals_its_flat_value(thetas):
    # computed once through the flat P_5 (about 500 s on a 2-core host)
    num = [1, 1, 2, 2, 4, 4, 6, 6, 9, 8, 11, 10, 14, 12, 15, 13, 16,
           13, 15, 12, 14, 10, 11, 8, 9, 6, 6, 4, 4, 2, 2, 1, 1]
    want = RF(sum((c * q(2 * i - 24) for i, c in enumerate(num)), LaurentPoly.const(0)),
              q(0) + q(2) + q(8) + q(14) + q(16))
    assert thetas[(2, 5, 5)] == want


def test_theta_666_equals_its_flattened_value(ctx):
    # computed once by flattening the whole network into plain webs, the
    # path of earlier versions (about 140 s on a 2-core host)
    num = [1, 0, 1, 1, 4, 1, 5, 3, 10, 4, 13, 6, 21, 9, 26, 12, 37, 16, 44, 20,
           56, 24, 63, 28, 75, 31, 79, 35, 89, 36, 89, 38, 94, 38, 89, 36, 89,
           35, 79, 31, 75, 28, 63, 24, 56, 20, 44, 16, 37, 12, 26, 9, 21, 6, 13,
           4, 10, 3, 5, 1, 4, 1, 1, 0, 1]
    den = [1, 0, 1, 0, 1, 0, 2, 2, 2, 2, 1, 2, 1, 4, 2, 4, 1, 2, 1, 2, 2, 2, 2,
           0, 1, 0, 1, 0, 1]
    want = RF(sum((-c * q(2 * i - 36) for i, c in enumerate(num)), LaurentPoly.const(0)),
              sum((c * q(2 * i) for i, c in enumerate(den)), LaurentPoly.const(0)))
    assert cl.theta_net(6, 6, 6, ctx) == want


def test_networks_never_expand_a_clasp_flat(ctx, monkeypatch):
    # a closed network is valued one box at a time: no flat P_n is spliced
    # into it, and it is never flattened into a sum of plain webs
    flat = cl.clasp_expand

    def single_strands_only(n, kind="single", ctx=None):
        if kind == "single" and n >= 2:
            raise AssertionError(f"flat P_{n} expanded inside a network")
        return flat(n, kind, ctx)

    def never_flatten(*args, **kwargs):
        raise AssertionError("a closed network was flattened")

    monkeypatch.setattr(eng, "_EVAL_MEMO", {})
    monkeypatch.setattr(cl, "clasp_expand", single_strands_only)
    monkeypatch.setattr(cl, "expand_boxes", never_flatten)
    assert cl.theta_net(4, 4, 0, ctx) == cat.qdim((4, 0))
    assert cl.clasp_trace((4, 0), ctx) == cat.qdim((4, 0))


def test_numeric_certificate_of_the_222_walk(ctx):
    walk = ff.CurveWalk(Spine.theta_graph(),
                        ((0, 0), (1, 1), (0, 2), (1, 0), (0, 1), (1, 2)))
    cert = ff.certify_detection(walk, 3, numeric=True, ctx=ctx)
    assert cert.conclusion == "detected"
    assert cert.numeric_checks == [
        {"vertex": v, "triple": [2, 2, 2], "theta_nonzero": True} for v in (0, 1)]


def test_numeric_certificate_checks_every_vertex(ctx):
    # vertex sums of 8: both vertex thetas are specialized, none skipped
    walk = ff.CurveWalk(Spine.theta_graph(),
                        ((0, 0), (1, 1), (0, 0), (1, 2)) * 2)
    cert = ff.certify_detection(walk, 4, numeric=True, ctx=ctx)
    assert cert.complexity_m == 8
    assert cert.numeric_checks == [
        {"vertex": v, "triple": [2, 2, 4], "theta_nonzero": True} for v in (0, 1)]


def test_box_turnback_detection(ctx):
    w = wb.clasp_box_web(2)
    capped = wb.compose(wb.cap_web("s"), w)
    closed = wb.compose(wb.compose(wb.cap_web("s"), w), wb.cup_web("s"))
    assert eng.eval_closed(closed, table=ctx.table).is_zero()
    merged = wb.compose(wb.merge_vertex_web(), w)
    closed2 = wb.trace_closure(wb.compose(wb.split_vertex_web(), merged))
    assert eng.eval_closed(closed2, table=ctx.table).is_zero()


# -- the box rules: a reference, unit cases and a guard -------------------------


def _ref_boxes(web):
    return [v for v in sorted(web.vkind) if web.vkind[v] == "clasp"]


def _ref_adjacent_legs(web, v):
    """The far ends (u1, u2) of each two adjacent legs on one side of box v.
    When a cap joins the two legs, each far end is the other leg, so
    web.pair[u1] == u2."""
    n, = web.vextra[v]
    legs = web.vlegs[v]
    for side in (legs[:n], legs[n:]):
        for t in range(len(side) - 1):
            yield web.pair[side[t]], web.pair[side[t + 1]]


def _ref_box_is_dead(web, v):
    """Adjacent-leg cap or adjacent-leg trivalent vertex on one side of the box."""
    for u1, u2 in _ref_adjacent_legs(web, v):
        if web.pair[u1] == u2:
            return True
        v1 = web.dart_vertex.get(u1)
        if v1 is not None and v1 == web.dart_vertex.get(u2) \
                and web.vkind[v1] == "tri":
            return True
    return False


def _ref_straighten_step(web):
    """A sideways double-edge bridge on adjacent legs of a box, straightened
    to parallel strands; the rewritten web or None."""
    for v in _ref_boxes(web):
        for u1, u2 in _ref_adjacent_legs(web, v):
            va = web.dart_vertex.get(u1)
            vb = web.dart_vertex.get(u2)
            if va is None or vb is None or va == vb:
                continue
            if web.vkind.get(va) != "tri" or web.vkind.get(vb) != "tri":
                continue
            da = next(d for d in web.vlegs[va] if web.etype[d] == "d")
            if web.pair[da] not in web.vlegs[vb]:
                continue
            sa = next(d for d in web.vlegs[va] if d not in (u1, da))
            db = web.pair[da]
            sb = next(d for d in web.vlegs[vb] if d not in (u2, db))
            mini = ((), ((("x", 0), ("x", 1), "s"), (("x", 2), ("x", 3), "s")))
            return eng._splice(web, {va, vb}, [u1, sa, u2, sb], [mini])[0]
    return None


def _ref_absorb_step(web):
    """Two stacked clasp boxes of equal weight merged into one; the
    rewritten web or None."""
    for v in _ref_boxes(web):
        n, = web.vextra[v]
        if not n:
            continue
        legs = web.vlegs[v]
        target = web.dart_vertex.get(web.pair[legs[n]])
        if target is None or target == v or web.vkind.get(target) != "clasp":
            continue
        if web.vextra[target] != (n,):
            continue
        tlegs = web.vlegs[target]
        if all(web.pair[legs[2 * n - 1 - j]] == tlegs[j] for j in range(n)):
            mini = ((), tuple((("x", j), ("x", 2 * n - 1 - j), "s")
                              for j in range(n)))
            return eng._splice(web, {target}, list(tlegs), [mini])[0]
    return None


def _reference_settle(web):
    """Reference for the engine's box rules looped to a fixpoint: every box
    checked for a turnback, then all straightening before any absorption,
    one step at a time."""
    while True:
        if any(_ref_box_is_dead(web, v) for v in _ref_boxes(web)):
            return None
        rewritten = _ref_straighten_step(web) or _ref_absorb_step(web)
        if rewritten is None:
            return web
        web = rewritten


def test_settle_agrees_with_the_reference(ctx, monkeypatch):
    # every web with a box that the local step sees while four thetas are
    # valued, networks and unsettled pieces alike: the box rules looped to
    # a fixpoint give None exactly when the reference does, else a web with
    # the reference's key, and the step drops no web the reference keeps
    monkeypatch.setattr(eng, "_EVAL_MEMO", {})
    seen = []
    step = eng._local_step

    def spy(web, table):
        if web.has_kind("clasp"):
            seen.append(web)
        return step(web, table)

    monkeypatch.setattr(eng, "_local_step", spy)
    for t in ((4, 4, 4), (5, 5, 4), (4, 5, 5), (6, 6, 4)):
        cl.theta_net(*t, ctx)
    monkeypatch.undo()
    outcomes = {"dead": 0, "kept": 0, "rewritten": 0}
    for web in seen:
        got, want = settle(web), _reference_settle(web)
        assert (got is None) == (want is None)
        assert want is None or step(web, ctx.table) != []
        if got is None:
            outcomes["dead"] += 1
        else:
            assert got.canonical_key() == want.canonical_key()
            outcomes["kept" if got is web else "rewritten"] += 1
    assert min(outcomes.values()) > 100, outcomes


def _sideways_bridge():
    """Two strands joined by a double rung from the left strand up to the
    right one: each trivalent vertex sits on one strand."""
    left = wb.vertex_web(1, ["s"], ["s", "d"])
    right = wb.vertex_web(2, ["d", "s"], ["s"])
    one = eng._strands(1)
    return wb.compose(wb.tensor(one, right), wb.tensor(left, one))


def _reduced(web):
    return {k: c for k, (c, _) in eng.reduce_sum(web).terms.items()}


def test_box_rules_through_reduce_sum(ctx):
    box = wb.clasp_box_web(2)
    # a cap and a trivalent turnback, on either side, drop the term
    for dead in (wb.compose(wb.cap_web("s"), box), wb.compose(box, wb.cup_web("s")),
                 wb.compose(wb.merge_vertex_web(), box),
                 wb.compose(box, wb.split_vertex_web())):
        assert eng.reduce_sum(dead).is_zero()
    # a sideways bridge on either side straightens with coefficient 1, and
    # two stacked equal boxes become one
    one = {box.canonical_key(): RF.coerce(1)}
    bridge = _sideways_bridge()
    assert bridge.validate() is None
    for web in (wb.compose(bridge, box), wb.compose(box, bridge), wb.compose(box, box)):
        assert _reduced(web) == one
    # boxes of other weights are not absorbed
    two = wb.compose(wb.tensor(box, eng._strands(1)), wb.clasp_box_web(3))
    assert _reduced(two) == {two.canonical_key(): RF.coerce(1)}
    # a box on no strands stays, and is the empty web when valued; a box
    # whose legs all lie on the boundary stays as it is
    for n in (0, 1, 3):
        bare = wb.clasp_box_web(n)
        assert _reduced(bare) == {bare.canonical_key(): RF.coerce(1)}
    assert eng.eval_closed(wb.clasp_box_web(0), table=ctx.table) == RF.coerce(1)
    assert scalar(cl.expand_boxes(wb.clasp_box_web(0), ctx)) == RF.coerce(1)


def test_no_keyed_web_has_a_dead_box(ctx, monkeypatch):
    # a piece whose box meets a turnback is dropped before it is keyed,
    # also in the middle of a reduction
    monkeypatch.setattr(eng, "_EVAL_MEMO", {})
    keyed = []
    key = wb.Web.canonical_key

    def spy(web):
        keyed.append(web)
        return key(web)

    monkeypatch.setattr(wb.Web, "canonical_key", spy)
    cl.theta_net(4, 4, 4, ctx)
    monkeypatch.undo()
    boxed = [w for w in keyed if _ref_boxes(w)]
    assert len(boxed) > 100
    assert not [w for w in boxed if any(_ref_box_is_dead(w, v) for v in _ref_boxes(w))]


def test_a_web_with_a_box_and_a_crossing_is_valued(ctx):
    web = wb.trace_closure(wb.compose(cl.braid_web([1], 2), wb.clasp_box_web(2)))
    assert eng.eval_closed(web, table=ctx.table) == \
        cl.braid_eigenvalue([1], 2, ctx) * cl.clasp_trace((2, 0), ctx)


def test_box_networks_are_valued_component_by_component(ctx, monkeypatch):
    # a trace beside a theta is the product of their values, and the memo
    # keeps connected webs only: each piece is split into its components
    monkeypatch.setattr(eng, "_EVAL_MEMO", {})
    w = wb.tensor(wb.trace_closure(wb.clasp_box_web(2)), cl._theta_web(3, 2, 1))
    value = eng.eval_closed(w, table=ctx.table)
    keys = [k for k in eng.eval_memo(ctx.table) if k[0] != "braid"]
    assert keys and all(len(k[3]) == 1 for k in keys)
    assert value == cl.clasp_trace((2, 0), ctx) * cl.theta_net(3, 2, 1, ctx)


def test_box_pruning_agrees_with_full_expansion(ctx):
    # every braid word of length 1-2 on 2 and 3 strands, composed with the box
    for n in (2, 3):
        gens = [g for i in range(1, n) for g in (i, -i)]
        for word in [[g] for g in gens] + [[g, h] for g in gens for h in gens]:
            b = eng.resolve_crossings(cl.braid_web(word, n), table=ctx.table)
            x = eng.sum_compose(b, eng.WebSum.from_web(wb.clasp_box_web(n)))
            pruned = cl.expand_boxes(cl.prune_box_sum(x, ctx), ctx)
            assert eng.sum_is_zero(pruned - cl.expand_boxes(x, ctx), table=ctx.table), word


def _words(n, max_len):
    gens = [g for i in range(1, n) for g in (i, -i)]
    return [list(w) for length in range(max_len + 1)
            for w in itertools.product(gens, repeat=length)]


def _refuse(*args, **kwargs):
    raise AssertionError("the braid check left its fast path")


def test_braid_check_stays_on_the_box_fast_path(ctx, monkeypatch):
    # crossings are smoothed against the box one at a time, each on a
    # settled web, and no clasp is expanded or pairing taken
    monkeypatch.setattr(eng, "_EVAL_MEMO", {})
    smoothed = []
    smooth = eng.resolve_crossings

    def spy(web, *args, **kwargs):
        settled = settle(web)
        smoothed.append(settled is not None and
                        settled.canonical_key() == web.canonical_key())
        return smooth(web, *args, **kwargs)

    monkeypatch.setattr(eng, "resolve_crossings", spy)
    monkeypatch.setattr(cl, "sum_is_zero", _refuse)
    monkeypatch.setattr(cl, "expand_boxes", _refuse)
    words = [(w, n) for n, max_len in ((2, 4), (3, 4), (4, 3))
             for w in _words(n, max_len)]
    assert len(words) == 631
    for word, n in words:
        c = sum(1 if g > 0 else -1 for g in word)
        assert cl.braid_eigenvalue(word, n, ctx, verify=True) == RF.coerce(q(c)), \
            (word, n)
    assert smoothed and all(smoothed)


def test_box_pruning_smooths_crossings_like_full_resolution(ctx):
    # smoothing crossings one at a time inside the pruning gives the same
    # sum, term for term, as resolving them all first
    for n in (2, 3):
        box = wb.clasp_box_web(n)
        for word in _words(n, 3):
            composite = wb.compose(cl.braid_web(word, n), box)
            lazy = cl.prune_box_sum(eng.WebSum.from_web(composite), ctx)
            eager = cl.prune_box_sum(resolve_fully(composite, ctx.table), ctx)
            assert {k: c for k, (c, _) in lazy.terms.items()} == \
                {k: c for k, (c, _) in eager.terms.items()}, (word, n)


def _crossings_and_vertices(web):
    return sum(kind == "cross" for kind in web.vkind.values()), web.n_vertices()


def test_every_step_lowers_the_termination_measure(ctx, monkeypatch):
    # each piece of a local step (box rule or smoothing) or of a face rule
    # has fewer (crossings, vertices), lexicographically, and a box
    # expansion lowers the multiset of box sizes: _box_sizes sorts them
    # largest first, and such tuples compare as the multisets do.  Seeded
    # braid words on a box, reduced open and valued closed, and theta(4,4,4)
    monkeypatch.setattr(eng, "_EVAL_MEMO", {})
    steps = {"box rule": 0, "smoothing": 0, "face": 0, "expansion": 0}
    bad = []
    local, face, expand = eng._local_step, eng.apply_face_rule, eng._expand_one_box

    def check(kind, web, pieces, measure):
        steps[kind] += 1
        bad.extend((kind, web) for _, w in pieces if not measure(w) < measure(web))
        return pieces

    def spy_local(web, table):
        pieces = local(web, table)
        if pieces:
            kind = "smoothing" if len(pieces) == 3 else "box rule"
            check(kind, web, pieces, _crossings_and_vertices)
        return pieces

    monkeypatch.setattr(eng, "_local_step", spy_local)
    monkeypatch.setattr(eng, "apply_face_rule", lambda web, *rule: check(
        "face", web, face(web, *rule), _crossings_and_vertices))
    monkeypatch.setattr(eng, "_expand_one_box", lambda web, table: check(
        "expansion", web, expand(web, table), cl._box_sizes))
    rng = random.Random(20261022)
    for _ in range(12):
        n = rng.randint(2, 4)
        word = rng.choice(_words(n, 4)[1:])
        web = wb.compose(cl.braid_web(word, n), wb.clasp_box_web(n))
        cl.prune_box_sum(eng.WebSum.from_web(web), ctx)
        eng.eval_closed(wb.trace_closure(web), ctx.table)
    cl.theta_net(4, 4, 4, ctx)
    assert not bad
    assert min(steps.values()) > 10, steps


def test_closed_values_agree_with_eager_resolution(ctx, monkeypatch):
    # eval_closed smooths a crossing at a time inside its recursion and
    # keeps components that still have crossings in its memo; the
    # reference resolves every crossing first and values the crossing-free
    # terms, with a memo of its own.  Every braid closure of length <= 3 on
    # 2 and 3 strands, with and without a box
    closures = []
    for n in (2, 3):
        for word in _words(n, 3):
            braid = cl.braid_web(word, n)
            closures.append(wb.trace_closure(braid))
            closures.append(wb.trace_closure(wb.compose(braid, wb.clasp_box_web(n))))
    assert len(closures) == 200
    monkeypatch.setattr(eng, "_EVAL_MEMO", {})
    eager = [eng.eval_closed(resolve_fully(w, ctx.table), ctx.table) for w in closures]
    monkeypatch.setattr(eng, "_EVAL_MEMO", {})
    lazy = [eng.eval_closed(w, ctx.table) for w in closures]
    assert lazy == eager
    boxed = wb.trace_closure(wb.compose(cl.braid_web([1, 2], 3), wb.clasp_box_web(3)))
    assert boxed.canonical_key() in eng.eval_memo(ctx.table)


def test_every_braid_word_acts_on_the_box_by_its_scalar(ctx):
    # the whole-word identity b P = A^c P, checked word by word without
    # braid_eigenvalue, which proves it through the generators
    words = [(w, n) for n, max_len in ((2, 4), (3, 4), (4, 3))
             for w in _words(n, max_len)]
    assert len(words) == 631
    for word, n in words:
        box = wb.clasp_box_web(n)
        c = sum(1 if g > 0 else -1 for g in word)
        lhs = cl.prune_box_sum(
            eng.WebSum.from_web(wb.compose(cl.braid_web(word, n), box)), ctx)
        assert (lhs - eng.WebSum.from_web(box, RF.coerce(q(c)))).is_zero(), (word, n)


def test_braid_check_runs_by_default_on_four_strands(ctx, monkeypatch):
    # every word is verified by default, whatever its length or strand
    # count: one single-crossing check per new (n, generator), none for a
    # generator already proven on that many strands
    monkeypatch.setattr(eng, "_EVAL_MEMO", {})
    seen = []
    prune = cl.prune_box_sum

    def spy(ws, *args, **kwargs):
        (_, web), = ws
        seen.append((web.n_in, sorted(web.vkind.values())))
        return prune(ws, *args, **kwargs)

    monkeypatch.setattr(cl, "prune_box_sum", spy)
    assert cl.braid_eigenvalue([1, -3, 2, 2], 4, ctx) == RF.coerce(q(2))
    assert seen == [(4, ["clasp", "cross"])] * 3
    assert cl.braid_eigenvalue([2, 1, -3, 1, -3], 4, ctx) == RF.coerce(q(1))
    assert len(seen) == 3
    assert cl.braid_eigenvalue([1, 2, 3, 4], 5, ctx) == RF.coerce(q(4))
    assert seen[3:] == [(5, ["clasp", "cross"])] * 4
    assert cl.braid_eigenvalue([1, 2, 3, 1, 2], 4, ctx) == RF.coerce(q(5))
    assert seen[7:] == [(4, ["clasp", "cross"])]


def test_generator_proofs_are_kept_per_table(ctx, tmp_path, monkeypatch):
    monkeypatch.setattr(eng, "_EVAL_MEMO", {})
    assert cl.braid_eigenvalue([1, -1], 2, ctx) == RF.coerce(1)
    # a wrong A gives another table hash, so nothing proven above is reused.
    # sigma_1 P = A P holds under any crossing coefficients (the other two
    # smoothings are turnbacks), so the wrong A shows on sigma_1^-1 P = B P,
    # which is no longer A^-1 P
    a, b, c = ctx.table.crossing
    wrong = RuleTable(ctx.table.loop, ctx.table.rules, (a * a, b, c),
                      ctx.table.framing, ctx.table.meta)
    assert wrong.table_hash() != ctx.table.table_hash()
    wctx = cl.ClaspContext(wrong, ClaspCache(root=str(tmp_path),
                                             table_hash=wrong.table_hash()))
    assert cl.braid_eigenvalue([1], 2, wctx) == a * a
    with pytest.raises(AssertionError):
        cl.braid_eigenvalue([-1], 2, wctx)
    # a proven generator does not let a bad letter through
    cl.braid_eigenvalue([1], 3, ctx)
    with pytest.raises(ValueError):
        cl.braid_eigenvalue([1, 3], 3, ctx)
    with pytest.raises(ValueError):
        cl.braid_eigenvalue([0], 3, ctx, verify=False)


def test_one_crossing_leaves_a_multiple_of_the_box(ctx):
    # braid_eigenvalue compares coefficients only: every smoothing of one
    # crossing on the box but the straight one is a turnback, so the
    # difference from A^(+-1) times the box is literally zero
    a = ctx.table.crossing[0]
    gens = [(n, g) for n in range(2, 9) for i in range(1, n) for g in (i, -i)]
    assert len(gens) == 56
    for n, g in gens:
        box = wb.clasp_box_web(n)
        lhs = cl.prune_box_sum(
            eng.WebSum.from_web(wb.compose(cl.braid_web([g], n), box)), ctx)
        assert (lhs - eng.WebSum.from_web(box, a ** (1 if g > 0 else -1))).is_zero(), \
            (n, g)


def test_theta_permutations_share_one_memo_entry(ctx, monkeypatch):
    # theta_net lays out every permutation alike, so only the first one
    # expands a box; the other two are read from the memo
    monkeypatch.setattr(eng, "_EVAL_MEMO", {})
    calls = []
    expand = eng._expand_one_box

    def spy(*args, **kwargs):
        calls.append(args)
        return expand(*args, **kwargs)

    monkeypatch.setattr(eng, "_expand_one_box", spy)
    values = {}
    for t in ((1, 2, 1), (2, 1, 1), (1, 1, 2)):
        before = len(calls)
        values[t] = cl.theta_net(*t, ctx)
        assert (len(calls) > before) == (t == (1, 2, 1)), t
    assert len(set(values.values())) == 1


def test_p3_cache_payload_bytes(tmp_path):
    # a recorded digest of the P_3 cache file: new payload bytes need a new
    # key name in ClaspContext._key, or files of earlier versions are read
    table = default_table()
    ctx = cl.ClaspContext(table, ClaspCache(root=str(tmp_path / "cache"),
                                            table_hash=table.table_hash()))
    cl._MEMO.pop((table.table_hash(), "single", 3), None)
    cl.clasp_expand(3, "single", ctx)
    with open(ctx.cache._path(ctx._key(3, "single")), "rb") as fh:
        payload = fh.read()
    assert hashlib.sha256(payload).hexdigest() == \
        "5c35ea635dbe0cc8de11e27b155fc83d2fa5e1e3a3dcb8b3b8b6a9f82663d781"


def _cache_payload_digest(tmp_path, n):
    table = default_table()
    ctx = cl.ClaspContext(table, ClaspCache(root=str(tmp_path / "cache"),
                                            table_hash=table.table_hash()))
    cl._MEMO.pop((table.table_hash(), "single", n), None)
    cl.clasp_expand(n, "single", ctx)
    with open(ctx.cache._path(ctx._key(n, "single")), "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def test_p2_cache_payload_bytes(tmp_path):
    assert _cache_payload_digest(tmp_path, 2) == \
        "133ab67efa7ab0598f3d7094cdde4bbdfad482aa7daa19bd6a1ab8a58737f1cf"


def test_p4_cache_payload_bytes(tmp_path):
    assert _cache_payload_digest(tmp_path, 4) == \
        "2d4c78db4f0eac74c23ef765b5ed80bbe5aecce413abd9b2303ccad5ee75cb6c"


def test_p5_cache_payload_bytes(tmp_path):
    # about 2 s cold on a 2-core host
    assert _cache_payload_digest(tmp_path, 5) == \
        "1e467d7d00eebb2546703a38f1b0f1a8ca9bff74c2c5008cca2aac59c98e589f"


def test_cache_files_of_earlier_versions_are_not_read(tmp_path):
    # earlier versions wrote the same P_n, as another sum or with other
    # representative webs, under these names; a payload planted there, here
    # a wrong one, is never read
    table = default_table()
    ctx = cl.ClaspContext(table, ClaspCache(root=str(tmp_path / "cache"),
                                            table_hash=table.table_hash()))
    wrong = cl._websum_to_json(eng.WebSum.from_web(eng._strands(3)))
    ctx.cache.put("clasp-single-3", wrong)
    ctx.cache.put("clasp-box-single-3", wrong)
    cl._MEMO.pop((table.table_hash(), "single", 3), None)
    p3 = cl.clasp_expand(3, "single", ctx)
    assert len(p3) == 15
    assert eng.sum_is_zero(p3 - _flat_clasp(3, ctx), table=table)


@pytest.mark.slow
def test_turnbacks_p5(ctx):
    # about 30 s on a 2-core host; run with -m slow
    report = cl.turnback_kill(5, ctx)
    assert len(report) == 4
    assert all(v["cap"] and v["vertex"] for v in report.values())


@pytest.mark.slow
def test_idempotence_p5(ctx):
    # about 25 s on a 2-core host; run with -m slow
    assert cl.idempotent(5, ctx)


def _pair_termwise(x, y, table):
    total = RF.coerce(0)
    for c1, w1 in eng.sum_mirror(x):
        for c2, w2 in y:
            total = total + c1 * c2 * eng.eval_closed(wb.plug(w1, w2), table)
    return total


def _capped(n, i, ctx):
    """cap_at(n, i) on P_n, reduced, and the same sum without its first term."""
    p = cl.clasp_expand(n, "single", ctx)
    capped = eng.reduce_sum(eng.sum_compose(eng.WebSum.from_web(cl.cap_at(n, i)), p),
                            table=ctx.table)
    part = eng.WebSum()
    for c, w in list(capped)[1:]:
        part.add(c, w)
    return capped, part


def _fields(f):
    return f.num.num, f.num.den, f.den.num, f.den.den


def test_pair_closed_equals_termwise_sum(ctx):
    capped, part = _capped(3, 1, ctx)
    assert len(capped) == 4
    # capped is zero in the skein module; without one term it is not
    for x, y in ((capped, capped), (part, part), (part, capped), (capped, part)):
        assert _fields(eng.pair_closed(x, y, ctx.table)) == \
            _fields(_pair_termwise(x, y, ctx.table))
    assert eng.pair_closed(capped, capped, ctx.table).is_zero()
    assert not eng.pair_closed(part, part, ctx.table).is_zero()


def test_self_pairing_plugs_each_unordered_pair_once(ctx, monkeypatch):
    # <x, x> plugs the 24 terms of the P_4 cap at position 1 in 300 pairs,
    # not 576, and still equals the ordered termwise sum field for field
    capped, part = _capped(4, 1, ctx)
    assert len(capped) == 24
    plugs = []
    plug = eng.plug

    def spy(a, b):
        plugs.append(1)
        return plug(a, b)

    monkeypatch.setattr(eng, "plug", spy)
    for x in (capped, part):
        before = len(plugs)
        got = eng.pair_closed(x, x, ctx.table)
        assert len(plugs) - before == len(x) * (len(x) + 1) // 2
        assert _fields(got) == _fields(_pair_termwise(x, x, ctx.table))
    assert eng.pair_closed(capped, capped, ctx.table).is_zero()
    assert not eng.pair_closed(part, part, ctx.table).is_zero()


def test_expansion_needs_no_pairing(tmp_path, monkeypatch):
    monkeypatch.setattr(eng, "_EVAL_MEMO", {})
    monkeypatch.setattr(eng, "pair_closed", _forbidden)
    cl._MEMO.clear()
    table = default_table()
    ctx = cl.ClaspContext(table, ClaspCache(root=str(tmp_path / "cache"),
                                            table_hash=table.table_hash()))
    for n in (2, 3, 4):
        cl.clasp_expand(n, "single", ctx)
        assert ctx.cache.get(ctx._key(n, "single")) is not None


def test_cache_gc_removes_keys_of_earlier_schemes(tmp_path):
    table = default_table()
    root = str(tmp_path / "cache")
    ctx = cl.ClaspContext(table, ClaspCache(root=root, table_hash=table.table_hash()))
    assert ctx._key(3, "single") == "clasp-merged-single-3"
    ctx.cache.put("clasp-single-3", {"old": True})
    ctx.cache.put("clasp-box-single-3", {"old": True})
    ctx.cache.put("clasp-merged-single-3", {"new": True})
    assert cache_gc(root, table.table_hash()) == {"removed": 2, "kept": 1}
    assert ctx.cache.get("clasp-single-3") is None
    assert ctx.cache.get("clasp-box-single-3") is None
    assert ctx.cache.get("clasp-merged-single-3") == {"new": True}


def test_cache_roundtrip_and_gc(tmp_path):
    table = default_table()
    root = str(tmp_path / "cache")
    ctx1 = cl.ClaspContext(table, ClaspCache(root=root, table_hash=table.table_hash()))
    cl._MEMO.clear()
    p2 = cl.clasp_expand(2, "single", ctx1)
    cl._MEMO.clear()
    p2_again = cl.clasp_expand(2, "single", ctx1)
    assert {k for k in p2.terms} == {k for k in p2_again.terms}
    # stale entries are collected, fresh ones kept
    stale = ClaspCache(root=root, table_hash="deadbeef")
    stale.put("clasp-single-9", {"bogus": True})
    report = cache_gc(root, table.table_hash())
    assert report["removed"] == 1 and report["kept"] >= 1
    report2 = cache_gc(root, table.table_hash())
    assert report2["removed"] == 0


def _reference_key(web):
    """Reference for canonical_key: each closed component is rooted at every
    dart of its rarest edge type, boxes or not (in a box web with no double
    edge, at every dart), and the least encoding is kept."""
    order = {d: i for i, d in enumerate(web.boundary)}
    main = web._encode_sweep(order) if order else ()   # extends order
    comps = []
    for comp in web._components(set(web.etype).difference(order)):
        count = {t: sum(web.etype[d] == t for d in comp) for t in ("s", "d")}
        rare = min((t for t in count if count[t]), key=lambda t: (count[t], t))
        comps.append(min(web._encode_sweep({r: 0}) for r in comp if web.etype[r] == rare))
    return web.free_loops, web.n_in, main, tuple(sorted(comps))


def _relabelled(web, rng):
    """A copy of the web through to_json/from_json, its dart and vertex ids
    permuted."""
    data = web.to_json()
    darts = [int(d) for d in data["edge_types"]]
    dmap = dict(zip(darts, rng.sample(range(3 * len(darts)), len(darts))))
    verts = [rec["id"] for rec in data["vertices"]]
    vmap = dict(zip(verts, rng.sample(range(3 * len(verts)), len(verts))))
    data["vertices"] = [dict(rec, id=vmap[rec["id"]]) for rec in data["vertices"]]
    data["half_edges"] = [dict(rec, id=dmap[rec["id"]],
                               vertex=None if rec["vertex"] is None else vmap[rec["vertex"]])
                          for rec in data["half_edges"]]
    data["pairing"] = [[dmap[d], dmap[p]] for d, p in data["pairing"]]
    data["edge_types"] = {str(dmap[int(d)]): t for d, t in data["edge_types"].items()}
    data["boundary"] = [dmap[d] for d in data["boundary"]]
    return wb.Web.from_json(data)


def _turned(web, v):
    """The web with box v turned by one leg: its leg 1 becomes leg 0."""
    out = web.copy()
    out.vlegs[v] = out.vlegs[v][1:] + out.vlegs[v][:1]
    return out


def test_box_rooted_keys_are_complete(ctx, monkeypatch):
    # the closed box webs of four thetas, relabelled copies of them and
    # copies with one box turned: two webs share a key exactly when they
    # share the reference key
    monkeypatch.setattr(eng, "_EVAL_MEMO", {})
    webs = []
    components = wb.Web.closed_components

    def spy(self, *args, **kwargs):
        out = components(self, *args, **kwargs)
        webs.extend(c for c in out if eng._box_positions(c))
        return out

    # every boxed component the recursion reaches, memo hits included, so
    # different webs read under one key are checked to share the reference key
    monkeypatch.setattr(wb.Web, "closed_components", spy)
    for t in ((4, 4, 4), (5, 5, 4), (4, 5, 5), (6, 6, 4)):
        cl.theta_net(*t, ctx)
    assert len(webs) > len({w.canonical_key() for w in webs})
    rng = random.Random(1801)
    copies = [_relabelled(w, rng) for w in webs]
    turned = [_turned(w, rng.choice(eng._box_positions(w))) for w in webs]
    for w, c in zip(webs, copies):
        assert c.canonical_key() == w.canonical_key()
    pool = webs + copies + turned
    keys = {(w.canonical_key(), _reference_key(w)) for w in pool}
    assert len({k for k, _ in keys}) == len({r for _, r in keys}) == len(keys)
    assert len(keys) > 100
    theta = cl._theta_web(4, 4, 4)
    for v in eng._box_positions(theta):
        turned = _turned(theta, v)
        assert turned.canonical_key() != theta.canonical_key()
        assert _reference_key(turned) != _reference_key(theta)


def test_closed_box_component_is_swept_once_per_largest_box(monkeypatch):
    sweeps = []
    sweep = wb.Web._encode_sweep

    def spy(self, order, *args, **kwargs):
        sweeps.append(dict(order))
        return sweep(self, order, *args, **kwargs)

    monkeypatch.setattr(wb.Web, "_encode_sweep", spy)
    for t, largest in (((4, 4, 4), 3), ((6, 6, 4), 2), ((6, 4, 2), 1)):
        theta = cl._theta_web(*t)
        sweeps.clear()
        theta.canonical_key()
        roots = {theta.vlegs[v][0] for v in eng._box_positions(theta)
                 if theta.vextra[v] == (max(t),)}
        assert len(sweeps) == largest and {r for s in sweeps for r in s} == roots, t


def test_proven_braid_letters_build_no_web(ctx, monkeypatch):
    monkeypatch.setattr(eng, "_EVAL_MEMO", {})
    assert cl.braid_eigenvalue([1, -2, 2], 3, ctx) == RF.coerce(q(1))
    built = []
    monkeypatch.setattr(wb, "clasp_box_web", lambda *a: built.append(a))
    monkeypatch.setattr(cl, "prune_box_sum", lambda *a, **k: built.append(a))
    assert cl.braid_eigenvalue([2, 1, -2, 2, 1], 3, ctx) == RF.coerce(q(3))
    assert built == []
