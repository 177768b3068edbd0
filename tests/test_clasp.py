"""Projector expansion, axioms, traces, theta networks and the cache."""

import hashlib
import itertools

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

q = LaurentPoly.q_power


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    table = default_table()
    root = tmp_path_factory.mktemp("clasp-cache")
    return cl.ClaspContext(table, ClaspCache(root=str(root),
                                             table_hash=table.table_hash()))


def test_clasp_label_expandable():
    assert cl.ClaspLabel(3, 0).expandable
    assert cl.ClaspLabel(0, 2).expandable
    assert not cl.ClaspLabel(1, 1).expandable
    with pytest.raises(ValueError):
        cl.ClaspLabel(-1, 0)


def test_expand_base_cases(ctx):
    p1 = cl.clasp_expand(1, "single", ctx)
    assert len(p1) == 1
    ((c, w),) = list(p1)
    assert c == RF.coerce(1) and w.n_vertices() == 0
    assert len(cl.clasp_expand(0, "single", ctx)) == 1
    assert len(cl.clasp_expand(1, "double", ctx)) == 1
    with pytest.raises(NotImplementedError):
        cl.clasp_expand(2, "double", ctx)


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
        eng.WebSum.from_web(cl.e_at(n, n - 2)), t0)), table=table)
    t2 = eng.reduce_sum(eng.sum_compose(t0, eng.sum_compose(
        eng.WebSum.from_web(cl.g_at(n, n - 2)), t0)), table=table)
    return t0, t1, t2


def test_expansion_equals_the_flat_recursion(ctx):
    for n in (2, 3, 4):
        assert eng.sums_equal(cl.clasp_expand(n, "single", ctx), _flat_clasp(n, ctx),
                              table=ctx.table), n


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
    beta = eng.eval_closed(wb.trace_closure(cl.g_at(2, 0)),
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


def test_idempotence(ctx):
    for n in (2, 3):
        assert cl.idempotent(n, ctx)


def test_traces_match_quantum_dimensions(ctx):
    assert cl.clasp_trace((0, 0), ctx) == RF.coerce(1)
    assert cl.clasp_trace((1, 0), ctx) == ctx.table.loop["s"]
    assert cl.clasp_trace((0, 1), ctx) == ctx.table.loop["d"]
    # recorded convention: single-strand clasps carry the sign (-1)^n
    for n in (1, 2, 3):
        sign = RF.coerce((-1) ** n)
        assert cl.clasp_trace((n, 0), ctx) == sign * cat.qdim((n, 0))
    with pytest.raises(NotImplementedError):
        cl.clasp_trace((1, 1), ctx)
    with pytest.raises(NotImplementedError):
        cl.clasp_trace((0, 2), ctx)


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
    assert not eng.sums_equal(lhs, wrong, table=ctx.table)


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


def test_triple_space_dim():
    assert cl.triple_space_dim(2, 2, 2) == 1
    assert cl.triple_space_dim(4, 1, 1) == 0
    assert cl.triple_space_dim(1, 1, 1) == 0
    assert cl.triple_space_dim(2, 2, 2, q_order=16) == 0
    assert cl.triple_space_dim(2, 2, 2, q_order=20) == 1
    # the threshold 2(a+b+c)+4 is strict
    for order in range(12, 25):
        want = 1 if order > 16 else 0
        assert cl.triple_space_dim(2, 2, 2, q_order=order) == want


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


@pytest.mark.slow
def test_theta_at_agrees_with_kac_walton_labels_6(ctx, monkeypatch):
    # about 2.5 minutes, nearly all of it theta(6,6,6)
    values = {t: cl.theta_net(*t, ctx) for t in _admissible_triples(6) if t[2] == 6}
    assert len(values) == 10
    assert _kac_walton_agreements(values, ctx, monkeypatch) == 70


def _flat_value(web, ctx):
    """Reference value of a closed web of single boxes: each box is replaced
    by the flat reference P_n, and a term in which a box meets a turnback is
    dropped before it is reduced."""
    total = RF.coerce(0)
    stack = [(RF.coerce(1), web)]
    while stack:
        coeff, w = stack.pop()
        w = cl._settle(w)
        if w is None:
            continue
        boxes = cl._box_positions(w)
        if not boxes:
            total = total + coeff * eng.eval_closed(w, ctx.table)
            continue
        v = boxes[-1]
        p = _flat_clasp(w.vextra[v][0], ctx)
        pieces = eng._splice(w, {v}, list(w.vlegs[v]), [eng.to_mini(d) for _, d in p])
        partial = eng.WebSum()
        for (c, _), piece in zip(p, pieces):
            piece = cl._settle(piece)
            if piece is not None:
                partial.add(coeff * c, piece)
        stack.extend(eng.reduce_sum(partial, table=ctx.table, boxes_ok=True))
    return total


def test_thetas_equal_their_flat_clasp_values(ctx, thetas):
    # the network is laid out here with its labels in ascending order, which
    # theta_net does not use, so this also checks the symmetry it relies on
    for t in _admissible_triples(4):
        assert thetas[t] == _flat_value(cl._theta_web(*t), ctx), t


def test_theta_nn0_is_the_signed_quantum_dimension(ctx):
    for n in range(7):
        assert cl.theta_net(n, n, 0, ctx) == RF.coerce((-1) ** n) * cat.qdim((n, 0))


def test_theta_552_equals_its_flat_value(thetas):
    # computed once through the flat P_5 (about 500 s on a 2-core host)
    num = [1, 1, 2, 2, 4, 4, 6, 6, 9, 8, 11, 10, 14, 12, 15, 13, 16,
           13, 15, 12, 14, 10, 11, 8, 9, 6, 6, 4, 4, 2, 2, 1, 1]
    want = RF(sum((c * q(2 * i - 24) for i, c in enumerate(num)), LaurentPoly.const(0)),
              q(0) + q(2) + q(8) + q(14) + q(16))
    assert thetas[(2, 5, 5)] == want


def test_networks_never_expand_a_clasp_flat(ctx, monkeypatch):
    flat = cl.clasp_expand

    def single_strands_only(n, kind="single", ctx=None):
        if kind == "single" and n >= 2:
            raise AssertionError(f"flat P_{n} expanded inside a network")
        return flat(n, kind, ctx)

    monkeypatch.setattr(eng, "_EVAL_MEMO", {})
    monkeypatch.setattr(cl, "clasp_expand", single_strands_only)
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
    assert cl.eval_box_web(closed, ctx).is_zero()
    merged = wb.compose(wb.merge_vertex_web(), w)
    closed2 = wb.trace_closure(wb.compose(wb.split_vertex_web(), merged))
    assert cl.eval_box_web(closed2, ctx).is_zero()


def test_box_pruning_agrees_with_full_expansion(ctx):
    # every braid word of length 1-2 on 2 and 3 strands, composed with the box
    for n in (2, 3):
        gens = [g for i in range(1, n) for g in (i, -i)]
        for word in [[g] for g in gens] + [[g, h] for g in gens for h in gens]:
            b = eng.resolve_crossings(cl.braid_web(word, n), table=ctx.table)
            x = eng.sum_compose(b, eng.WebSum.from_web(wb.clasp_box_web(n)))
            pruned = cl.expand_boxes(cl.prune_box_sum(x, ctx), ctx)
            assert eng.sums_equal(pruned, cl.expand_boxes(x, ctx), table=ctx.table), word


def _words(n, max_len):
    gens = [g for i in range(1, n) for g in (i, -i)]
    return [list(w) for length in range(max_len + 1)
            for w in itertools.product(gens, repeat=length)]


def _refuse(*args, **kwargs):
    raise AssertionError("the braid check left its fast path")


def test_braid_check_stays_on_the_box_fast_path(ctx, monkeypatch):
    # crossings are smoothed against the box one at a time: nothing is
    # resolved up front, and no clasp is expanded or pairing taken
    monkeypatch.setattr(eng, "_EVAL_MEMO", {})
    monkeypatch.setattr(eng, "resolve_crossings", _refuse)
    monkeypatch.setattr(cl, "sum_is_zero", _refuse)
    monkeypatch.setattr(cl, "expand_boxes", _refuse)
    words = [(w, n) for n, max_len in ((2, 4), (3, 4), (4, 3))
             for w in _words(n, max_len)]
    assert len(words) == 631
    for word, n in words:
        c = sum(1 if g > 0 else -1 for g in word)
        assert cl.braid_eigenvalue(word, n, ctx, verify=True) == RF.coerce(q(c)), \
            (word, n)


def test_box_pruning_smooths_crossings_like_full_resolution(ctx):
    # smoothing crossings one at a time inside the pruning gives the same
    # sum, term for term, as resolving them all first
    for n in (2, 3):
        box = wb.clasp_box_web(n)
        for word in _words(n, 3):
            composite = wb.compose(cl.braid_web(word, n), box)
            lazy = cl.prune_box_sum(eng.WebSum.from_web(composite), ctx)
            eager = cl.prune_box_sum(
                eng.resolve_crossings(composite, table=ctx.table), ctx)
            assert {k: c for k, (c, _) in lazy.terms.items()} == \
                {k: c for k, (c, _) in eager.terms.items()}, (word, n)


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
    monkeypatch.setattr(eng, "_EVAL_MEMO", {})
    calls = []
    expand = cl.expand_boxes

    def spy(*args, **kwargs):
        calls.append(args)
        return expand(*args, **kwargs)

    monkeypatch.setattr(cl, "expand_boxes", spy)
    values = {t: cl.theta_net(*t, ctx) for t in ((1, 2, 1), (2, 1, 1), (1, 1, 2))}
    assert len(calls) == 1
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
        "4f2599b0ed3a7b82b65b20534e69496e3be9461044198a4c40cce6f25672f67c"


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
        "7b1b2df7d768dbbc36000f8ee612a773b2b527fa18ca8c8883e84b791fc522a0"


@pytest.mark.slow
def test_p5_cache_payload_bytes(tmp_path):
    # about 13 s cold on a 2-core host; run with -m slow
    assert _cache_payload_digest(tmp_path, 5) == \
        "4baf1ac0faef6dfcd4cdd6d0e9570fda45a4b9722af3a51fc9508f6a6fd3e3d3"


def test_cache_files_of_earlier_versions_are_not_read(tmp_path):
    # earlier versions wrote another sum for the same P_n under this name;
    # a payload planted there, here a wrong one, is never read
    table = default_table()
    ctx = cl.ClaspContext(table, ClaspCache(root=str(tmp_path / "cache"),
                                            table_hash=table.table_hash()))
    ctx.cache.put("clasp-single-3", cl._websum_to_json(eng.WebSum.from_web(cl._id(3))))
    cl._MEMO.pop((table.table_hash(), "single", 3), None)
    p3 = cl.clasp_expand(3, "single", ctx)
    assert len(p3) == 15
    assert eng.sums_equal(p3, _flat_clasp(3, ctx), table=table)


@pytest.mark.slow
def test_turnbacks_p5(ctx):
    # about three minutes on a 2-core host; run with -m slow
    report = cl.turnback_kill(5, ctx)
    assert len(report) == 4
    assert all(v["cap"] and v["vertex"] for v in report.values())


@pytest.mark.slow
def test_idempotence_p5(ctx):
    # about a minute on a 2-core host; run with -m slow
    assert cl.idempotent(5, ctx)


def _pair_termwise(x, y, table):
    total = RF.coerce(0)
    for c1, w1 in eng.sum_mirror(x):
        for c2, w2 in y:
            total = total + c1 * c2 * eng.eval_closed(wb.plug(w1, w2), table)
    return total


def test_pair_closed_equals_termwise_sum(ctx):
    p3 = cl.clasp_expand(3, "single", ctx)
    capped = eng.reduce_sum(eng.sum_compose(eng.WebSum.from_web(cl.cap_at(3, 1)), p3),
                            table=ctx.table)
    assert len(capped) == 4
    # capped is zero in the skein module; without one term it is not
    part = eng.WebSum()
    for c, w in list(capped)[1:]:
        part.add(c, w)
    for x, y in ((capped, capped), (part, part), (part, capped), (capped, part)):
        got = eng.pair_closed(x, y, ctx.table)
        want = _pair_termwise(x, y, ctx.table)
        assert (got.num.num, got.num.den, got.den.num, got.den.den) == \
            (want.num.num, want.num.den, want.den.num, want.den.den)
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
