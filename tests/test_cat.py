"""Weights, quantum dimensions, fusion and modular data."""

import dataclasses
import itertools

import pytest

from c2spider import cat
from c2spider.ring import CycNumber, DenominatorVanishes, LaurentPoly, qint, specialize
from c2spider.tqft import mat_mul
from helpers import as_laurent, conj, dominates, eval_at_one, mat_identity, proportional


def test_simples():
    assert cat.simples(0) == [(0, 0)]
    assert cat.simples(2) == [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)]
    for k in range(21):
        assert len(cat.simples(k)) == (k + 1) * (k + 2) // 2


def test_dominates_examples():
    assert dominates((2, 0), (0, 1))
    assert dominates((3, 1), (1, 2))
    assert not dominates((0, 1), (2, 0))
    assert dominates((2, 2), (2, 2))


def test_dominates_is_partial_order():
    weights = [(a, b) for a in range(13) for b in range(7) if a + 2 * b <= 12]
    for x in weights:
        assert dominates(x, x)
    for x, y in itertools.permutations(weights, 2):
        if dominates(x, y) and dominates(y, x):
            assert x == y
    import random
    rng = random.Random(5)
    triples = [tuple(rng.sample(weights, 3)) for _ in range(4000)]
    for x, y, z in triples:
        if dominates(x, y) and dominates(y, z):
            assert dominates(x, z)


def test_qdim_polynomials_and_classical_values():
    expected = {(0, 0): 1, (1, 0): 4, (0, 1): 5, (2, 0): 10, (1, 1): 16,
                (0, 2): 14, (3, 0): 20, (2, 1): 35, (0, 3): 30, (4, 0): 35}
    for w, d in expected.items():
        qd = cat.qdim(w)
        assert qd.is_poly()
        assert eval_at_one(as_laurent(qd)) == d
        assert cat.classical_dim(w) == d


def test_qdim_at_roots():
    assert cat.qdim_at((0, 0), 16) == specialize(LaurentPoly.one(), 16)
    # at level 1 the double-strand object has quantum dimension 1
    v = cat.qdim_at((0, 1), 16)
    assert v == specialize(LaurentPoly.one(), 16)
    # quantum dimensions reduce to Laurent polynomials, so specialization is
    # total; objects outside the level window become negligible (zero)
    assert cat.qdim_at((3, 0), 12).is_zero()
    assert not cat.qdim_at((1, 0), 16).is_zero()


def test_fusion_generic_examples():
    assert cat.fusion_dict((1, 0), (1, 0)) == {(0, 0): 1, (0, 1): 1, (2, 0): 1}
    assert cat.fusion_dict((0, 1), (0, 1)) == {(0, 0): 1, (2, 0): 1, (0, 2): 1}
    assert cat.fusion_dict((1, 0), (0, 1)) == {(1, 0): 1, (1, 1): 1}
    assert cat.fusion_dict((2, 0), (0, 0)) == {(2, 0): 1}


def test_fusion_level_truncation():
    assert cat.fusion_dict((1, 0), (1, 0), level=1) == {(0, 0): 1, (0, 1): 1}
    with pytest.raises(cat.NotSimpleAtLevel):
        cat.fusion((2, 0), (1, 0), level=1)


def test_fusion_dimension_counts():
    # generic multiplicities weighted by classical dimensions are consistent
    for lam, mu in [((1, 0), (1, 0)), ((1, 0), (2, 0)), ((0, 1), (1, 1)),
                    ((2, 0), (0, 2))]:
        total = sum(m * cat.classical_dim(nu)
                    for nu, m in cat.fusion(lam, mu))
        assert total == cat.classical_dim(lam) * cat.classical_dim(mu)


def test_fusion_commutative_associative_unital():
    objs = cat.simples(2)
    for lam, mu in itertools.combinations(objs, 2):
        assert cat.fusion(lam, mu, 2) == cat.fusion(mu, lam, 2)
        assert cat.fusion_dict(lam, (0, 0), 2) == {lam: 1}
    for lam, mu, nu in itertools.combinations(objs, 3):
        lhs = {}
        for x, m in cat.fusion(lam, mu, 2):
            for y, m2 in cat.fusion(x, nu, 2):
                lhs[y] = lhs.get(y, 0) + m * m2
        rhs = {}
        for x, m in cat.fusion(mu, nu, 2):
            for y, m2 in cat.fusion(lam, x, 2):
                rhs[y] = rhs.get(y, 0) + m * m2
        assert lhs == rhs


def test_identity_tangle_decomposition():
    assert cat.identity_tangle_decomposition(1, 0) == {(1, 0): 1}
    assert cat.identity_tangle_decomposition(2, 0) == \
        {(0, 0): 1, (0, 1): 1, (2, 0): 1}
    # dominance: every factor is below the full weight
    for a, b in [(2, 0), (1, 1), (3, 0), (2, 1), (0, 3)]:
        dec = cat.identity_tangle_decomposition(a, b)
        assert dec[(a, b)] == 1
        for w in dec:
            assert dominates((a, b), w), (a, b, w)


def test_identity_tangle_qdim_balance():
    for a in range(4):
        for b in range(4 - a):
            dec = cat.identity_tangle_decomposition(a, b)
            total = sum(cat.qdim(w) * m for w, m in dec.items())
            want = (cat.qdim((1, 0)) ** a) * (cat.qdim((0, 1)) ** b)
            assert total == want, (a, b)


def test_identity_tangle_level_top_coefficient():
    for k in (1, 2, 3):
        for a in range(k + 1):
            for b in range(k + 1 - a):
                dec = cat.identity_tangle_decomposition(a, b, level=k)
                assert dec.get((a, b)) == 1


def test_twist_exponents():
    assert cat.twist_exponent((0, 0)) == 0
    assert cat.twist_exponent((1, 0)) == 5
    assert cat.twist_exponent((0, 1)) == 8


def test_modular_data_invariants():
    for k in range(1, 6):
        md = cat.modular_data(k)
        n = len(md.simples)
        # symmetry and realness, on which the conjugate-free unitarity check
        # of modular_data rests
        for i in range(n):
            for j in range(n):
                assert md.s_tilde[i][j] == md.s_tilde[j][i]
                assert conj(md.s_tilde[i][j]) == md.s_tilde[i][j]
        # unitarity against the global factor is built into construction;
        # S^2 is a scalar multiple of the identity (all objects self-dual)
        s2 = mat_mul(md.s_tilde, md.s_tilde)
        assert proportional(s2, mat_identity(n, md.order)) is not None
        # T projectively nontrivial
        assert len({x for x in md.t_diag}) > 1
        # omega weights are the quantum dimensions at the root
        for i, w in enumerate(md.simples):
            assert md.omega[i] == cat.qdim_at(w, md.order)
        # vacuum twist trivial
        assert md.t_diag[0] == cat.qdim_at((0, 0), md.order)


def test_verlinde_matches_fusion():
    for k in (1, 2, 3):
        md = dataclasses.replace(cat.modular_data(k))    # no row products kept yet
        for lam in md.simples:
            for mu in md.simples:
                fd = cat.fusion_dict(lam, mu, level=k)
                for nu in md.simples:
                    assert cat.verlinde_multiplicity(md, lam, mu, nu) == \
                        fd.get(nu, 0)
        # one row product per unordered pair, kept on the modular data
        n = len(md.simples)
        assert len(md._row_products) == n * (n + 1) // 2
        assert md.row_product(1, 2) is md.row_product(2, 1)


def _mutants(s, order):
    """Copies of s with one nonzero entry changed: by +1, by -1, times a
    primitive root q, times q^(N/2) = -1.  A zero entry is changed by +-1."""
    for i, row in enumerate(s):
        for j, x in enumerate(row):
            changes = [x + 1, x - 1]
            if not x.is_zero():
                changes += [x * CycNumber.root_power(order, e) for e in (1, order // 2)]
            for y in changes:
                yield [r if a != i else r[:j] + [y] + r[j + 1:]
                       for a, r in enumerate(s)]


def test_gram_check_rejects_every_perturbed_entry():
    # the packed S~ S~^T check is the only unitarity oracle of modular_data:
    # it must refuse S~ with any single entry changed
    for k in (1, 2):
        md = cat.modular_data(k)
        assert cat._gram_scalar(md.s_tilde) == md.s_norm_sq
        tried = 0
        for bad in _mutants(md.s_tilde, md.order):
            with pytest.raises(cat.NonIntegerResult):
                cat._gram_scalar(bad)
            tried += 1
        assert tried >= 3 * len(md.simples) ** 2


@pytest.mark.slow
def test_modular_data_at_levels_14_and_20():
    # about 9 s on a 2-core host; run with -m slow
    for k in (14, 20):
        md = cat.modular_data(k)
        n = len(md.simples)
        assert n == (k + 1) * (k + 2) // 2
        assert md.omega == [cat.qdim_at(w, md.order) for w in md.simples]
        assert all(md.s_tilde[i][j] == md.s_tilde[j][i]
                   for i in range(n) for j in range(i))


def test_weight_outside_the_alcove_raises_typed_error():
    md = cat.modular_data(1)
    with pytest.raises(cat.NotSimpleAtLevel):
        cat.verlinde_multiplicity(md, (2, 0), (0, 0), (0, 0))
    with pytest.raises(cat.NotSimpleAtLevel):
        md.index((0, 2))


def test_vacuum_inverses():
    md = cat.modular_data(2)
    assert [x * y for x, y in zip(md.s_tilde[0], md.vacuum_inv)] == \
        [cat.qdim_at((0, 0), md.order)] * len(md.simples)
    # a vanishing vacuum entry is refused with the typed error, not a bare
    # ZeroDivisionError
    row = list(md.s_tilde[0])
    row[1] = row[1] * 0
    bad = dataclasses.replace(md, s_tilde=[row] + md.s_tilde[1:])
    with pytest.raises(cat.NonIntegerResult):
        cat.verlinde_multiplicity(bad, (0, 0), (1, 0), (1, 0))
