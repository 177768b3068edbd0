"""Projector expansion, axioms, traces, theta networks and the cache."""

import hashlib

import pytest

from c2spider import cat
from c2spider import clasp as cl
from c2spider import engine as eng
from c2spider import web as wb
from c2spider.cache import ClaspCache, cache_gc
from c2spider.ring import (DenominatorVanishes, LaurentPoly,
                           RationalFunction as RF, cyclotomic_orders, qint,
                           specialize)
from c2spider.rules import default_table

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
    c1, c2 = cl.recursion_coefficients(2, ctx)
    delta1 = ctx.table.loop["s"]
    assert c1 == RF.coerce(-1) / delta1
    assert c2 == RF.coerce(1) / RF.coerce(qint(2) * qint(2))


def _solve_recursion_coefficients(n, ctx):
    """Oracle for the closed form: solve the two annihilation conditions.

    Both cap . P_n and merge . P_n land in spaces where everything factoring
    through the lower clasp is proportional, so one closed pairing per
    condition determines (c1, c2).
    """
    table = ctx.table
    t0, t1, t2 = cl._recursion_terms(n, ctx)
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
        assert cl.recursion_coefficients(n, ctx) == \
            _solve_recursion_coefficients(n, ctx)


def test_recursion_coefficients_partial_trace(ctx):
    # closing the last strand of P_n = t0 + c1 t1 + c2 t2 gives
    # (delta + c1 + c2 beta) P_{n-1}, and the trace of P_n is (-1)^n qdim
    delta = ctx.table.loop["s"]
    beta = eng.eval_closed(wb.trace_closure(cl.g_at(2, 0)),
                           table=ctx.table) / delta
    assert beta == RF.coerce(qint(5))
    for n in range(2, 11):
        c1, c2 = cl.recursion_coefficients(n, ctx)
        assert delta + c1 + c2 * beta == \
            -cat.qdim((n, 0)) / cat.qdim((n - 1, 0))
    with pytest.raises(ValueError):
        cl.recursion_coefficients(1, ctx)


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


def test_clasp_poles(ctx):
    # P_0 and P_1 are identities: nothing to divide by
    assert cl.clasp_poles(0, ctx) == frozenset()
    assert cl.clasp_poles(1, ctx) == frozenset()
    # P_3's recursion coefficient c1 = q^4 Phi_8 / (Phi_3 Phi_6 Phi_16)
    # has a Phi_16 below the line, so P_3 does not exist at order 16
    c1, _ = cl.recursion_coefficients(3, ctx)
    assert specialize(c1.den, 16).is_zero()
    poles = cl.clasp_poles(3, ctx)
    assert 16 in poles
    assert 20 not in poles and 24 not in poles
    with pytest.raises(ValueError):
        cl.clasp_poles(-1, ctx)


def _forbidden(*args, **kwargs):
    raise AssertionError("called where no expansion or pairing may run")


def test_clasp_pole_sets(ctx):
    want = {2: {4, 12}, 3: {3, 4, 6, 12, 16}, 4: {3, 4, 6, 8, 12, 16, 20}}
    for n, poles in want.items():
        assert cl.clasp_poles(n, ctx) == poles
        # oracle: the poles of the coefficients of the expansion itself
        dens = {c.den for c, _ in cl.clasp_expand(n, "single", ctx)}
        assert frozenset().union(*map(cyclotomic_orders, dens)) == poles


def test_clasp_poles_expand_nothing(ctx, monkeypatch):
    monkeypatch.setattr(eng, "pair_closed", _forbidden)
    monkeypatch.setattr(cl, "clasp_expand", _forbidden)
    poles = cl.clasp_poles(8, ctx)
    assert cl.clasp_poles(4, ctx) < poles
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


def test_box_turnback_detection(ctx):
    w = wb.clasp_box_web(2)
    capped = wb.compose(wb.cap_web("s"), w)
    closed = wb.compose(wb.compose(wb.cap_web("s"), w), wb.cup_web("s"))
    assert cl.eval_box_web(closed, ctx).is_zero()
    merged = wb.compose(wb.merge_vertex_web(), w)
    closed2 = wb.trace_closure(wb.compose(wb.split_vertex_web(), merged))
    assert cl.eval_box_web(closed2, ctx).is_zero()


def test_p3_cache_payload_bytes(tmp_path):
    # a recorded digest of the P_3 cache file: cache files written by earlier
    # versions stay valid only while the payload bytes do not change
    table = default_table()
    ctx = cl.ClaspContext(table, ClaspCache(root=str(tmp_path / "cache"),
                                            table_hash=table.table_hash()))
    cl._MEMO.pop((table.table_hash(), "single", 3), None)
    cl.clasp_expand(3, "single", ctx)
    with open(ctx.cache._path(ctx._key(3, "single")), "rb") as fh:
        payload = fh.read()
    assert hashlib.sha256(payload).hexdigest() == \
        "fac92dffdf4da9aec68da954782214afeef66880b66e013ea2627ed293d9bef8"


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
        "05ec43ca5d275ec530ca1bc59baa226e11e113b31b79bfcf0e9d6625b8da19ce"


def test_p4_cache_payload_bytes(tmp_path):
    assert _cache_payload_digest(tmp_path, 4) == \
        "664f82ac576268d256e7d991c6aa7f3f7004f603693fb011f34bb1c29989c4dc"


@pytest.mark.slow
def test_p5_cache_payload_bytes(tmp_path):
    # about a minute cold; run with -m slow
    assert _cache_payload_digest(tmp_path, 5) == \
        "64fa37a16f860bd87d3cc1e6f3d9574b318c756c12a390b7cfb21bebe755ab07"


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
