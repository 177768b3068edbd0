"""State spaces, Verlinde cross-checks and the torus representation."""

import functools
import gc
import itertools
import json
import math
import random
import time

import pytest

from c2spider import cat, faithful, tqft
from c2spider.tqft import Spine, mat_mul, normalize_curve, word_matrix
from helpers import dumbbell, mat_identity, mat_scale_columns, proportional


def _enumerated_dim(spine, k):
    """Reference count: every labeling edge by edge, a partial labeling
    dropped at its first empty vertex (the vertex factor is the level-k
    ``cat.fusion`` table, one per label pair)."""
    spine.validate()
    objs = cat.simples(k)
    if spine.circle:
        return len(objs)
    n_edges = len(spine.edges)
    closes = [[] for _ in range(n_edges)]   # edge triples of the vertices e completes
    for ends in spine.vertex_edge_ends():
        closes[max(ends)].append(ends)
    fusions = {}      # (lam, mu) -> {nu: multiplicity} at level k
    total = 0
    stack = [(0, 1, ())]    # (next edge, product of closed vertices, labels so far)
    while stack:
        edge, prod, labels = stack.pop()
        if edge == n_edges:
            total += prod
            continue
        for w in objs:
            labeling = labels + (w,)
            factor = prod
            for e1, e2, e3 in closes[edge]:
                pair = (labeling[e1], labeling[e2])
                table = fusions.get(pair)
                if table is None:
                    table = fusions[pair] = cat.fusion_dict(*pair, level=k)
                factor *= table.get(labeling[e3], 0)
                if not factor:
                    break
            if factor:
                stack.append((edge + 1, factor, labeling))
    return total


def _dense_twist(md):
    return mat_scale_columns(mat_identity(len(md.simples), md.order), md.t_diag)


def curve_operator_torus(curve, k):
    """Reference: the exact curve operator on the torus state space, built
    densely.  The meridian operator is diagonal with the fundamental
    character values; a general primitive class is reached by conjugating
    with the canonical mapping-class word."""
    if curve == "meridian":
        curve = tqft.MERIDIAN
    elif curve == "longitude":
        curve = (0, 1)
    curve = normalize_curve(*curve)
    md = cat.modular_data(k)
    word = tqft._word_reaching(curve)
    # M^-1 = s_norm_sq^-#s M+: the scalar joins the diagonal
    scale = md.s_norm_sq ** -word.count("s")
    diag = [d * scale for d in tqft._meridian_eigenvalues(md)]
    if not word:
        return mat_scale_columns(mat_identity(len(md.simples), md.order), diag)
    m = word_matrix(md, word)
    return mat_mul(mat_scale_columns(m, diag),
                   [[x.conj() for x in col] for col in zip(*m)])


def test_spine_validation():
    Spine.theta_graph().validate()
    dumbbell().validate()
    Spine.torus().validate()
    with pytest.raises(ValueError):
        Spine(2, ((0, 1), (0, 1))).validate()        # degree 2
    with pytest.raises(ValueError):
        Spine(4, ((0, 1), (0, 1), (0, 1), (2, 3), (2, 3), (2, 3))).validate()
    with pytest.raises(ValueError, match="3n/2 edges"):   # before sizing by n
        Spine(10 ** 7, ()).validate()


def test_spine_genus():
    assert Spine.torus().genus() == 1
    assert Spine.theta_graph().genus() == 2
    assert dumbbell().genus() == 2


def test_spine_json_roundtrip():
    for sp in (Spine.theta_graph(), dumbbell(), Spine.torus()):
        blob = json.dumps(sp.to_json(), sort_keys=True)
        again = Spine.from_json(json.loads(blob))
        assert again == sp


def test_torus_statespace():
    for k in (0, 1, 2, 3):
        assert tqft.statespace_dim(Spine.torus(), k) == len(cat.simples(k))
    assert tqft.statespace_dim(Spine.torus(), 1) == 3


def test_genus_two_basis_independence_and_verlinde():
    for k in (1, 2):
        th = tqft.statespace_dim(Spine.theta_graph(), k)
        db = tqft.statespace_dim(dumbbell(), k)
        vd = tqft.verlinde_dim(2, k)
        assert th == db == vd


def test_statespace_dim_equals_enumeration_on_random_spines():
    rng = random.Random(19)
    cases = [(g, k) for g in (2, 3) for k in (1, 2, 3)] + [(4, 1), (4, 2)]
    for genus, k in cases:
        for _ in range(3):
            spine = faithful.random_spine(genus, rng)
            assert tqft.statespace_dim(spine, k) == _enumerated_dim(spine, k), \
                (spine, k)


def test_statespace_dim_unchanged_under_vertex_relabeling():
    rng = random.Random(7)
    for genus in (2, 3, 4):
        for k in (1, 2, 3):
            spine = faithful.random_spine(genus, rng)
            perm = list(range(spine.n_vertices))
            rng.shuffle(perm)
            relabeled = Spine(spine.n_vertices,
                              tuple((perm[u], perm[v]) for u, v in spine.edges))
            assert tqft.statespace_dim(relabeled, k) == \
                tqft.statespace_dim(spine, k), (spine, perm, k)


def test_statespace_dim_equals_verlinde_at_higher_genus():
    rng = random.Random(4)
    for genus in (4, 5, 6):
        spine = faithful.random_spine(genus, rng)
        for k in (1, 2, 3):
            assert tqft.statespace_dim(spine, k) == tqft.verlinde_dim(genus, k), \
                (spine, k)


def test_genus_four_at_level_three_counts_fast():
    spine = faithful.random_spine(4, random.Random(0))
    tqft.statespace_dim(Spine.theta_graph(), 3)     # level-3 tables built
    t0 = time.perf_counter()
    dim = tqft.statespace_dim(spine, 3)
    assert time.perf_counter() - t0 < 0.1
    assert dim == tqft.verlinde_dim(4, 3) == 1_446_400


def test_statespace_dim_leaves_no_reference_cycles():
    spines = (Spine.theta_graph(), dumbbell())
    for k in (1, 2, 3):     # fill the fusion caches first
        for spine in spines:
            tqft.statespace_dim(spine, k)
    gc.collect()
    gc.disable()
    try:
        for k in (1, 2, 3):
            for spine in spines:
                tqft.statespace_dim(spine, k)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_modular_data_past_benchmark_levels():
    for k in range(5, 9):     # N = 32, 36, 40, 44
        md = cat.modular_data(k)
        assert md.order == 4 * k + 12
        assert md.omega == [cat.qdim_at(w, md.order) for w in md.simples]
        if k <= 6:
            assert tqft.verlinde_dim(2, k) == tqft.statespace_dim(Spine.theta_graph(), k)


def test_verlinde_genus_one():
    for k in (1, 2, 3):
        assert tqft.verlinde_dim(1, k) == len(cat.simples(k))


def test_modular_relation_on_torus_rep():
    for k in (1, 2):
        md = cat.modular_data(k)
        n = len(md.simples)
        t = _dense_twist(md)
        st = mat_mul(md.s_tilde, t)
        st3 = mat_mul(st, mat_mul(st, st))
        s2 = mat_mul(md.s_tilde, md.s_tilde)
        phase = proportional(st3, s2)
        assert phase is not None and not phase.is_zero()
        # identity word acts as the identity
        assert word_matrix(md, ()) == mat_identity(n, md.order)
        # the twist word is diagonal with the twist eigenvalues
        assert word_matrix(md, ("t",)) == t


def test_word_matrix_is_the_dense_product_and_unitary_up_to_scale():
    # the reduced word against dense products from the identity, with the
    # inverse twist T as the dense diagonal of conjugates; and
    # M M+ = s_norm_sq^#s with M+ the matrix of the adjoint word, the fact
    # that stands in for stored inverses
    for k in (1, 2):
        md = cat.modular_data(k)
        n, order = len(md.simples), md.order
        dense_letter = {"s": md.s_tilde, "t": _dense_twist(md),
                        "T": mat_scale_columns(mat_identity(n, order),
                                               [x.conj() for x in md.t_diag])}
        for length in range(6):
            for word in itertools.product("stT", repeat=length):
                m = word_matrix(md, word)
                dense = functools.reduce(mat_mul, (dense_letter[g] for g in word),
                                         mat_identity(n, order))
                assert m == dense, (k, word)
                m_dag = [[x.conj() for x in col] for col in zip(*m)]
                assert word_matrix(md, tqft.adjoint(word)) == m_dag, (k, word)
                scale = md.s_norm_sq ** word.count("s")
                assert mat_mul(m, m_dag) == [[x * scale for x in row]
                                             for row in mat_identity(n, order)], (k, word)


def test_reduced_words_multiply_only_what_is_left(monkeypatch):
    # 'ss' is the scalar s_norm_sq and 'tT', 'Tt' cancel, so a word makes
    # one product fewer than the 's' letters left after reduction
    md = cat.modular_data(2)
    n = len(md.simples)
    calls = []
    monkeypatch.setattr(tqft, "mat_mul", lambda a, b: calls.append(1) or mat_mul(a, b))
    cases = (("sss", 0), ("stTs", 0), ("sTts", 0), ("ssss", 0), ("sts", 1),
             ("stTsts", 0), ("ststs", 2), ("tTtT", 0), ("s" + "t" * md.order + "s", 0))
    for word, products in cases:
        calls.clear()
        m = word_matrix(md, word)
        assert len(calls) == products, word
        squares, letters = tqft._reduce_word(word, md.order)
        assert all(a != b for a, b in zip(letters, letters[1:])), word
        assert max(letters.count("s") - 1, 0) == products, word
    scale = md.s_norm_sq ** 2
    assert word_matrix(md, "ssss") == [[x * scale for x in row]
                                       for row in mat_identity(n, md.order)]
    with pytest.raises(ValueError):
        word_matrix(md, "sx")


def test_curve_normalization_and_action():
    assert normalize_curve(-2, 4) == (1, -2)
    assert normalize_curve(0, -3) == (0, 1)
    assert tqft.act_on_curve(("t",), (0, 1)) == (1, 1)
    assert tqft.act_on_curve(("s",), (1, 0)) == (0, 1)
    assert tqft.act_on_curve(("T",), (1, 1)) == (0, 1)
    assert tqft.act_on_curve(("t", "T"), (2, 3)) == (2, 3)
    with pytest.raises(ValueError):
        normalize_curve(0, 0)


def test_curve_operator_unit_entry():
    for k in (1, 2):
        md = cat.modular_data(k)
        cm = curve_operator_torus("meridian", k)
        assert cm[0][0] == cat.qdim_at((1, 0), md.order)
        # diagonality
        n = len(md.simples)
        for i in range(n):
            for j in range(n):
                if i != j:
                    assert cm[i][j].is_zero()


def test_longitude_operator_is_fusion_with_the_fundamental():
    # Verlinde: S D S^-1 is the fusion matrix of (1,0), checked against
    # Kac-Walton fusion entry by entry
    for k in (1, 2, 3, 4):
        md = cat.modular_data(k)
        op = curve_operator_torus("longitude", k)
        for i, lam in enumerate(md.simples):
            fd = cat.fusion_dict((1, 0), lam, level=k)
            for j, mu in enumerate(md.simples):
                assert op[i][j] == fd.get(mu, 0), (k, lam, mu)


def _words_within(limit=12):
    """The length reference: class -> word found by the breadth-first search
    over all classes, stopped after ``limit`` letters."""
    frontier = {tqft.MERIDIAN: ()}
    seen = dict(frontier)
    for _ in range(limit):
        nxt = {}
        for cls, word in frontier.items():
            for g in ("s", "t"):
                new = tqft.act_on_curve((g,), cls)
                if new not in seen:
                    nxt[new] = (g,) + word
        seen.update(nxt)
        frontier = nxt
    return seen


def test_word_reaching_every_class_in_the_box():
    # every primitive class with |p|, |q| <= 25 is reached, and where the
    # unbounded search reaches it within 12 letters, by a word as short
    classes = {normalize_curve(p, q) for p in range(26) for q in range(-25, 26)
               if math.gcd(p, q) == 1}
    reference = _words_within()
    for curve in classes:
        word = tqft._word_reaching(curve)
        assert tqft.act_on_curve(word, tqft.MERIDIAN) == curve
        if curve in reference:
            assert len(word) == len(reference[curve]), curve
    assert len(classes) == 800 and len(reference.keys() & classes) == 148


def test_conjugation_of_curves_past_twelve_letters():
    # these classes need more than 12 letters from the meridian
    reference = _words_within()
    for curve in ((13, 1), (1, 13), (21, 13)):
        assert curve not in reference
        image = tqft.act_on_curve(("t",), curve)
        for k in (1, 2):
            assert tqft.conjugation_identity_holds(("t",), curve, k), (curve, k)
            m = word_matrix(cat.modular_data(k), ("t",))
            assert mat_mul(m, curve_operator_torus(curve, k)) \
                == mat_mul(curve_operator_torus(image, k), m), (curve, k)


def test_twist_fixes_meridian_operator():
    for k in (1, 2):
        assert tqft.conjugation_identity_holds(("t",), (1, 0), k)


def test_conjugation_identity_words_up_to_three(monkeypatch):
    # the eigenbasis check against the dense V_h C(gamma) = C(h gamma) V_h,
    # for the true image curve and, with act_on_curve patched, every wrong
    # one; words take the inverse twist T too
    curves = ((1, 0), (0, 1), (1, 1), (1, 2))
    for curve in curves:    # the words reaching every target, found unpatched
        tqft._word_reaching(curve)
    refuted = 0
    for k in (1, 2, 3):
        operators = {c: curve_operator_torus(c, k) for c in curves}
        for length in range(4):
            for word in itertools.product("stT", repeat=length):
                m = word_matrix(cat.modular_data(k), word)
                for curve in curves:
                    lhs = mat_mul(m, operators[curve])
                    image = tqft.act_on_curve(word, curve)
                    assert lhs == mat_mul(curve_operator_torus(image, k), m)
                    assert tqft.conjugation_identity_holds(word, curve, k), \
                        (k, word, curve)
                    for target in curves:
                        reference = lhs == mat_mul(operators[target], m)
                        monkeypatch.setattr(tqft, "act_on_curve",
                                            lambda w, c, target=target: target)
                        assert tqft.conjugation_identity_holds(word, curve, k) \
                            == reference, (k, word, curve, target)
                        monkeypatch.undo()
                        refuted += not reference
    assert refuted == 1658     # 411 of them at k <= 2 without T
