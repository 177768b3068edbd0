"""Acceptance suite: one test per criterion, exact checks, printed verdicts.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Every comparison is exact symbolic equality (Laurent
polynomials, rational functions or cyclotomic numbers); the only numeric
content is the stated runtime budget per criterion.
"""

import itertools
import random
import time

import pytest

from c2spider import cat, faithful, tqft
from c2spider import clasp as cl
from c2spider import engine as eng
from c2spider import web as wb
from c2spider.cache import ClaspCache
from c2spider.ring import DenominatorVanishes, RationalFunction as RF, specialize
from c2spider.rules import default_table
from c2spider.tqft import Spine, mat_mul
from helpers import (dominates, dumbbell, eval_at_one, loop_web, mat_identity,
                     mat_scale_columns, min_level, proportional)


@pytest.fixture(scope="module")
def ctx(tmp_path_factory):
    table = default_table()
    root = tmp_path_factory.mktemp("acceptance-cache")
    return cl.ClaspContext(table, ClaspCache(root=str(root),
                                             table_hash=table.table_hash()))


def _verdict(number, label, started, limit):
    elapsed = time.time() - started
    print(f"[PASS] criterion {number}: {label}  ({elapsed:.1f}s)")
    assert elapsed < limit, f"criterion {number} exceeded {limit}s"


def test_criterion_1_loop_values_match_weyl_oracle():
    t0 = time.time()
    d1 = eng.eval_closed(loop_web("s"))
    d2 = eng.eval_closed(loop_web("d"))
    assert d1 == RF.coerce(-1) * cat.qdim((1, 0))   # recorded global sign
    assert d2 == cat.qdim((0, 1))
    assert abs(eval_at_one(d1.num)) == 4
    assert abs(eval_at_one(d2.num)) == 5
    _verdict(1, "loop values equal the quantum Weyl dimensions", t0, 1.0)


def test_criterion_2_clasp_suite(ctx):
    t0 = time.time()
    for n in range(1, 5):
        report = cl.turnback_kill(n, ctx)
        assert all(v["cap"] and v["vertex"] for v in report.values()), n
        assert cl.idempotent(n, ctx), n
        sign = RF.coerce((-1) ** n)
        assert cl.clasp_trace((n, 0), ctx) == sign * cat.qdim((n, 0)), n
    _verdict(2, "idempotence, turnback annihilation and traces for n <= 4",
             t0, 300.0)


def test_criterion_3_braid_scalar_on_clasps(ctx):
    t0 = time.time()
    checked = 0
    for n in (2, 3):
        gens = [g for i in range(1, n) for g in (i, -i)]
        for length in range(5):
            for word in itertools.product(gens, repeat=length):
                value = cl.braid_eigenvalue(list(word), n, ctx, verify=True)
                c = sum(1 if g > 0 else -1 for g in word)
                assert value == ctx.table.crossing[0] ** c
                checked += 1
    assert checked == 372
    _verdict(3, f"braid action equals A^c on clasps ({checked} words)", t0, 300.0)


def test_criterion_4_triple_space_dichotomy(ctx):
    # Kac-Walton fusion (cat.triple_multiplicity) is the vertex-space oracle:
    # generic theta networks vanish exactly where the generic space does, and
    # a specialized theta vanishes exactly where the level-k space does
    t0 = time.time()
    checked = 0
    for total in range(9):
        for a in range(total + 1):
            for b in range(total + 1 - a):
                c = total - a - b
                if a < b or b < c:
                    continue
                generic = cat.triple_multiplicity((a, 0), (b, 0), (c, 0))
                value = cl.theta_net(a, b, c, ctx)
                assert (not value.is_zero()) == (generic == 1), (a, b, c)
                if generic and total <= 6:
                    # only where the network exists, i.e. where none of its
                    # clasps has a pole: its reduced value can be finite at a
                    # pole of a clasp, so that value is no evidence
                    for k in (1, 2, 3):
                        try:
                            sp = cl.theta_at(a, b, c, cat.q_order(k), ctx)
                        except DenominatorVanishes:
                            continue
                        checked += 1
                        space = a <= k and cat.triple_multiplicity(
                            (a, 0), (b, 0), (c, 0), level=k) >= 1
                        assert (not sp.is_zero()) == space, (a, b, c, k)
    assert checked == 19
    _verdict(4, "theta nonvanishing matches Kac-Walton fusion, generic and "
                f"at level k ({checked} specializations)", t0, 600.0)


def test_criterion_5_identity_tangle_balance():
    t0 = time.time()
    for a in range(4):
        for b in range(4 - a):
            dec = cat.identity_tangle_decomposition(a, b)
            total = sum(cat.qdim(w) * m for w, m in dec.items())
            assert total == (cat.qdim((1, 0)) ** a) * (cat.qdim((0, 1)) ** b)
            for w in dec:
                assert dominates((a, b), w)
            for k in range(a + b, a + b + 3):
                at_level = cat.identity_tangle_decomposition(a, b, level=k)
                assert at_level.get((a, b)) == 1
    _verdict(5, "identity-tangle factorization balances quantum dimensions "
                "with dominated weights and unit top coefficient", t0, 60.0)


def test_criterion_6_modularity_and_verlinde():
    t0 = time.time()
    for k in (1, 2):
        md = cat.modular_data(k)
        n = len(md.simples)
        # unitarity against the global factor is enforced in construction;
        # S^2 is the charge conjugation permutation (identity: all self-dual)
        s2 = mat_mul(md.s_tilde, md.s_tilde)
        assert proportional(s2, mat_identity(n, md.order)) is not None
        t = mat_scale_columns(mat_identity(n, md.order), md.t_diag)
        st = mat_mul(md.s_tilde, t)
        st3 = mat_mul(st, mat_mul(st, st))
        phase = proportional(st3, s2)
        assert phase is not None and not phase.is_zero()
        for lam in md.simples:
            for mu in md.simples:
                fd = cat.fusion_dict(lam, mu, level=k)
                for nu in md.simples:
                    assert cat.verlinde_multiplicity(md, lam, mu, nu) == \
                        fd.get(nu, 0)
        assert tqft.verlinde_dim(2, k) == \
            tqft.statespace_dim(Spine.theta_graph(), k) == \
            tqft.statespace_dim(dumbbell(), k)
    _verdict(6, "S unitary with S^2 a permutation, (ST)^3 = phase S^2, "
                "Verlinde numbers equal fusion, genus-2 dimensions agree",
             t0, 60.0)


def test_criterion_7_hopf_link_bridge():
    t0 = time.time()
    pos = wb.crossing_web(True)
    hopf = wb.trace_closure(wb.compose(pos, pos))
    value = eng.eval_closed(eng.resolve_crossings(hopf))
    for k in (1, 2):
        md = cat.modular_data(k)
        i_v = md.index((1, 0))
        assert specialize(value, md.order) == \
            md.s_tilde[i_v][i_v] / md.s_tilde[0][0], k
    _verdict(7, "Hopf-link web evaluation reproduces the normalized "
                "S-matrix entry", t0, 600.0)


def test_criterion_8_curve_operator_conjugation():
    t0 = time.time()
    for k in (1, 2):
        for length in range(4):
            for word in itertools.product("st", repeat=length):
                for curve in ((1, 0), (0, 1)):
                    assert tqft.conjugation_identity_holds(word, curve, k)
    _verdict(8, "mapping classes conjugate curve operators correctly for "
                "words up to length 3 at k = 1, 2", t0, 60.0)


def test_criterion_9_detection_machinery():
    t0 = time.time()
    rng = random.Random(20260810)
    certified = 0
    while certified < 40:
        genus = rng.choice((2, 3))
        spine = faithful.random_spine(genus, rng)
        walk = faithful.random_geodesic_walk(spine, rng, max_m=12)
        if walk is None:
            continue
        _, m = faithful.complexity(walk)
        assert m <= 12
        k0 = min_level(walk)
        for k in (k0, k0 + 1, k0 + 3):
            cert = faithful.certify_detection(walk, k)
            assert cert.conclusion == "detected"
        certified += 1
    for n in range(1, 51):
        k = faithful.min_detect_level(n)
        assert k >= 1
        assert faithful.torus_detection(n, k)
        if k > 1:
            assert not faithful.torus_detection(n, k - 1)
    _verdict(9, "random graph-geodesic scenarios certify at their minimal "
                "level and monotonically above it; all torus twist powers "
                "n <= 50 are detected at finite level", t0, 300.0)
