"""Ring axioms, quantum integers and cyclotomic specialization."""

import cmath
import itertools
import random
from fractions import Fraction
from math import gcd

import pytest

from c2spider.ring import (
    CycNumber,
    DenominatorVanishes,
    LaurentPoly,
    OrderMismatch,
    RationalFunction,
    TripleSums,
    _cyclotomic_int,
    _sum_fractions,
    cyc_matrix_dots,
    cyclotomic_orders,
    qint,
    specialize,
)
from c2spider.clasp import _websum_from_json, _websum_to_json
from c2spider.engine import WebSum, _strands
from c2spider.tqft import mat_mul
from helpers import as_laurent, conj

q = LaurentPoly.q_power


def cyclotomic_poly(n):
    """Coefficients (low first, as Fractions) of the n-th cyclotomic polynomial."""
    return tuple(Fraction(c) for c in _cyclotomic_int(n))


def bar(p):
    """The involution q -> q^-1."""
    return LaurentPoly({-e: c for e, c in p.terms.items()})


def rand_poly(rng, size=4, span=6):
    return LaurentPoly({rng.randint(-span, span): Fraction(rng.randint(-9, 9), rng.randint(1, 4))
                        for _ in range(rng.randint(0, size))})


def test_qint_base_cases():
    assert qint(0).is_zero()
    assert qint(1) == LaurentPoly.one()
    # oracle: expand (q^3 - q^-3)/(q - q^-1) by exact polynomial division
    ratio = RationalFunction(q(3) - q(-3), q(1) - q(-1))
    assert ratio.is_poly()
    assert qint(3) == as_laurent(ratio)
    assert qint(3) == q(2) + LaurentPoly.one() + q(-2)
    assert qint(-4) == -qint(4)


def test_qint_product_identity():
    # classical [2]^2 = [1] + [3]
    assert qint(2) * qint(2) == qint(1) + qint(3)
    # and more generally [m][n] telescopes
    for m in range(1, 6):
        for n in range(m, 6):
            total = LaurentPoly.zero()
            for k in range(m):
                total = total + qint(n - m + 1 + 2 * k)
            assert qint(m) * qint(n) == total


def test_ring_axioms_random():
    rng = random.Random(20260810)
    for _ in range(200):
        a, b, c = (rand_poly(rng) for _ in range(3))
        assert (a + b) + c == a + (b + c)
        assert a + b == b + a
        assert (a * b) * c == a * (b * c)
        assert a * b == b * a
        assert a * (b + c) == a * b + a * c
        assert a * LaurentPoly.one() == a
        assert (a + (-a)).is_zero()
        assert (a * LaurentPoly.zero()).is_zero()


def test_rational_function_canonical():
    # (q^2 - q^-2) / (q - q^-1) reduces to the polynomial [2]
    r = RationalFunction(q(2) - q(-2), q(1) - q(-1))
    assert r.is_poly()
    assert as_laurent(r) == qint(2)
    # denominator normalized with positive lowest coefficient
    r2 = RationalFunction(LaurentPoly.one(), -qint(2))
    assert r2.den.terms[r2.den.min_exp()] > 0
    assert r2 == RationalFunction(-LaurentPoly.one(), qint(2))


def test_rational_function_field_ops():
    rng = random.Random(7)
    for _ in range(60):
        a = RationalFunction(rand_poly(rng) + LaurentPoly.one(), qint(2))
        b = RationalFunction(qint(3), rand_poly(rng) + q(1))
        assert (a * b) / b == a
        assert a - a == RationalFunction.coerce(0)
        assert (a + b) * (a - b) == a * a - b * b


def test_cyclotomic_polys():
    assert list(cyclotomic_poly(1)) == [-1, 1]
    assert list(cyclotomic_poly(2)) == [1, 1]
    assert list(cyclotomic_poly(4)) == [1, 0, 1]
    assert list(cyclotomic_poly(8)) == [1, 0, 0, 0, 1]
    assert list(cyclotomic_poly(12)) == [1, 0, -1, 0, 1]


def test_specialize_root_of_unity_order():
    for n in (8, 12, 16):
        assert specialize(q(n), n) == CycNumber.one(n)
        assert specialize(q(1), n) ** n == CycNumber.one(n)


def test_specialize_quantum_integers():
    # [2] at a primitive 8th root: q + q^-1 != 0
    assert not specialize(qint(2), 8).is_zero()
    # [4] at order 8: q^4 - q^-4 = 0 since q^8 = 1
    assert specialize(qint(4), 8).is_zero()


def test_specialize_vanishing_sweep():
    # [n] dies at order N exactly when N | 2n.  Orders 1 and 2 are excluded:
    # there q - q^-1 = 0 as well and [n] specializes to +-n instead.
    for n in range(0, 51):
        for big_n in range(3, 61):
            vanishes = specialize(qint(n), big_n).is_zero()
            assert vanishes == ((2 * n) % big_n == 0), (n, big_n)


def test_specialize_is_ring_homomorphism():
    rng = random.Random(99)
    for big_n in (8, 16, 20):
        for _ in range(40):
            a, b, c = (rand_poly(rng) for _ in range(3))
            lhs = specialize(a * b + c, big_n)
            rhs = specialize(a, big_n) * specialize(b, big_n) + specialize(c, big_n)
            assert lhs == rhs


def test_specialize_denominator_vanishes():
    r = RationalFunction(LaurentPoly.one(), qint(4))
    with pytest.raises(DenominatorVanishes):
        specialize(r, 8)
    # away from the bad order the division goes through
    val = specialize(r, 20)
    assert val * specialize(qint(4), 20) == CycNumber.one(20)


def test_cyclotomic_orders_of_quantum_integers():
    # [n] (n >= 1) dies exactly at the orders N > 2 that divide 2n, as in
    # the sweep above; the q-power of a Laurent polynomial never dies
    for n in range(1, 9):
        want = {big_n for big_n in range(3, 2 * n + 1) if (2 * n) % big_n == 0}
        assert cyclotomic_orders(qint(n)) == want, n
        assert cyclotomic_orders(q(-n) * qint(n)) == want, n
    phi = LaurentPoly(dict(enumerate(cyclotomic_poly(16))))
    assert cyclotomic_orders(phi * phi) == {16}
    assert cyclotomic_orders(LaurentPoly.const(3)) == frozenset()
    with pytest.raises(ValueError):
        cyclotomic_orders(LaurentPoly.zero())


def test_cyc_number_field_ops():
    x = specialize(qint(2), 16)
    assert x / x == CycNumber.one(16)
    assert (x * x.inverse()) == CycNumber.one(16)
    y = CycNumber.root_power(16, 5)
    assert y * conj(y) == CycNumber.one(16)
    with pytest.raises(OrderMismatch):
        x + CycNumber.one(8)


def test_cyc_number_json_roundtrip():
    x = specialize(qint(3) * qint(2), 20) / specialize(qint(2), 20)
    again = CycNumber.from_json(x.to_json())
    assert again == x


def test_laurent_json_roundtrip():
    p = qint(5) - 3 * q(-7)
    assert LaurentPoly.from_json(p.to_json()) == p


# -- LaurentPoly canonical form: integer coefficients over one denominator ---


def fields_of(p):
    return p.low, p.num, p.den


def assert_laurent_canonical(p):
    assert isinstance(p.den, int) and p.den > 0
    assert isinstance(p.low, int) and isinstance(p.num, tuple)
    assert all(isinstance(c, int) for c in p.num)
    assert not p.num or (p.num[0] and p.num[-1])
    assert gcd(p.den, *p.num) == 1
    if p.is_zero():
        assert fields_of(p) == (0, (), 1)


def test_laurent_one_value_one_representation():
    from_ints = LaurentPoly({-1: 2, 3: -4})
    from_fractions = LaurentPoly({-1: Fraction(6, 3), 3: Fraction(-8, 2), 5: Fraction(0)})
    by_arithmetic = (q(-1) * Fraction(4, 3) + q(3) * Fraction(-8, 3)) * Fraction(3, 2)
    from_pairs = LaurentPoly([(-1, 1), (3, -4), (-1, 1), (7, 2), (7, -2)])
    for p in (from_ints, from_fractions, by_arithmetic, from_pairs):
        assert_laurent_canonical(p)
        assert fields_of(p) == (-1, (2, 0, 0, 0, -4), 1)
        assert p == from_ints and hash(p) == hash(from_ints)
    half = LaurentPoly({0: Fraction(1, 2), 2: Fraction(3, 4)})
    assert fields_of(half) == (0, (2, 0, 3), 4)
    assert half.to_json() == [[0, 1, 2], [2, 3, 4]]
    assert half != LaurentPoly({0: 2, 2: 3}) and half * 4 == LaurentPoly({0: 2, 2: 3})
    again = LaurentPoly.from_json(half.to_json())
    assert fields_of(again) == fields_of(half) and hash(again) == hash(half)
    assert half.terms == {0: Fraction(1, 2), 2: Fraction(3, 4)}


def test_laurent_lowest_terms():
    rng = random.Random(1801)
    for _ in range(200):
        a, b = rand_poly(rng), rand_poly(rng)
        for p in (a, b, a + b, a - b, a * b, -a, bar(a), a * Fraction(6, 4), a - a):
            assert_laurent_canonical(p)
    # a sum whose common denominator cancels comes back over 1
    s = LaurentPoly({0: Fraction(1, 6)}) + LaurentPoly({0: Fraction(5, 6), 1: Fraction(1, 3)}) \
        - LaurentPoly({1: Fraction(1, 3)})
    assert fields_of(s) == (0, (1,), 1)
    for zero in (LaurentPoly.zero(), LaurentPoly(), LaurentPoly({3: Fraction(0, 5)}),
                 LaurentPoly({1: Fraction(1, 3)}) - LaurentPoly({1: Fraction(1, 3)}),
                 LaurentPoly({2: Fraction(1, 7)}) * 0, LaurentPoly.const(Fraction(0))):
        assert fields_of(zero) == (0, (), 1)
        assert zero == LaurentPoly.zero() and hash(zero) == hash(LaurentPoly.zero())


def test_rational_function_json_unchanged():
    r = RationalFunction(qint(3) * Fraction(5, 3), qint(2) * 7)
    assert r.to_json() == {"num": [[-1, 5, 21], [1, 5, 21], [3, 5, 21]],
                           "den": [[0, 1, 1], [2, 1, 1]]}
    for p in (r.num, r.den):
        assert_laurent_canonical(p)
    assert RationalFunction.from_json(r.to_json()) == r


def test_equal_values_hash_equal():
    r = RationalFunction.from_poly(qint(3))
    assert r == qint(3) and r in {qint(3)} and qint(3) in {r}
    for c in (0, 3, -7, Fraction(2, 3)):
        p, rc = LaurentPoly.const(c), RationalFunction.coerce(c)
        assert p == c and hash(p) == hash(c)
        assert rc == c and hash(rc) == hash(c)
        assert rc in {c} and p in {rc}
    assert len({3, Fraction(3), LaurentPoly.const(3), RationalFunction.coerce(3)}) == 1
    x = RationalFunction(qint(2), qint(3))
    assert len({x, RationalFunction(qint(2) * qint(5), qint(3) * qint(5))}) == 1


# -- Q(q) arithmetic against the normalizing constructor ----------------------


def rand_qint_product(rng, most=3):
    p = LaurentPoly.one()
    for _ in range(rng.randint(0, most)):
        p = p * qint(rng.randint(1, 8))
    return p


def rand_rf(rng):
    """A random element of Q(q): quantum-integer products (shared cyclotomic
    factors), non-cyclotomic denominators, either sign, rational content and
    a q-shift on both sides."""
    kind = rng.randrange(4)
    if kind == 0:
        num, den = rand_qint_product(rng), rand_qint_product(rng)
    elif kind == 1:
        num, den = rand_poly(rng) * rand_qint_product(rng), rand_poly(rng) + q(1)
    elif kind == 2:
        num = rand_qint_product(rng) * (rand_poly(rng) + 1)
        den = rand_qint_product(rng) * (rand_poly(rng) + q(1))
    else:
        num, den = rand_poly(rng), rand_qint_product(rng)
    num = num * Fraction(rng.choice((-1, 1)) * rng.randint(1, 12), rng.randint(1, 12)) \
        * q(rng.randint(-4, 4))
    den = den * Fraction(rng.choice((-1, 1)) * rng.randint(1, 6), rng.randint(1, 6)) \
        * q(rng.randint(-3, 3))
    return RationalFunction(num, den if den else LaurentPoly.one())


def fields(r):
    return r.num.num, r.num.den, r.den.num, r.den.den


def assert_rf_canonical(r):
    assert_laurent_canonical(r.num)
    assert_laurent_canonical(r.den)
    assert r.den.min_exp() == 0 and r.den.terms[0] == 1
    if r.is_zero():
        assert r.den == LaurentPoly.one()


def test_rational_function_ops_match_normalizing_constructor():
    rng = random.Random(1268)
    for _ in range(300):
        x = rand_rf(rng)
        pick = rng.randrange(6)
        if pick == 0:
            y = x * rand_rf(rng)          # shares every factor of x
        elif pick == 1:
            y = -x                        # x + y is zero
        elif pick == 2:
            y = RationalFunction(rand_poly(rng) + 1, x.den * rand_qint_product(rng, 1))
        elif pick == 3:
            y = RationalFunction.coerce(rng.choice((0, 2, Fraction(-3, 4))))
        else:
            y = rand_rf(rng)
        n1, d1, n2, d2 = x.num, x.den, y.num, y.den
        want = {"+": RationalFunction(n1 * d2 + n2 * d1, d1 * d2),
                "-": RationalFunction(n1 * d2 - n2 * d1, d1 * d2),
                "*": RationalFunction(n1 * n2, d1 * d2)}
        got = {"+": x + y, "-": x - y, "*": x * y}
        if y:
            want["/"], got["/"] = RationalFunction(n1 * d2, d1 * n2), x / y
        if x:
            want["r/"], got["r/"] = RationalFunction(n2 * d1, d2 * n1), y / x
        for op, r in got.items():
            assert_rf_canonical(r)
            assert fields(r) == fields(want[op]), (op, x, y)
            assert hash(r) == hash(want[op])
        assert (x - x).is_zero() and fields(x - x) == fields(RationalFunction.coerce(0))


def repeated_product(x, n):
    """x ** n as |n| factors, inverted when n < 0."""
    out = RationalFunction.coerce(1)
    for _ in range(abs(n)):
        out = out * x
    return out if n >= 0 else 1 / out


def test_power_is_the_repeated_product():
    # monomials c q^e take a shortcut; the last two bases are not monomials
    bases = [RationalFunction.coerce(q(e) * c)
             for c in (1, -1, 2, -3, Fraction(2, 3), Fraction(-5, 7)) for e in (-2, 0, 1, 3)]
    bases += [RationalFunction(qint(2), qint(3)), RationalFunction(q(1), qint(2))]
    for x in bases:
        for n in range(-5, 6):
            got, want = x ** n, repeated_product(x, n)
            assert_rf_canonical(got)
            assert fields(got) == fields(want), (x, n)
            assert hash(got) == hash(want)


def test_sum_of_unreduced_fractions():
    rng = random.Random(1801)
    for _ in range(30):
        pairs, want = [], RationalFunction.coerce(0)
        for _ in range(rng.randint(0, 6)):
            x, y = rand_rf(rng), rand_rf(rng)
            # an unreduced product: numerators and denominators multiplied
            num, den = x.num * y.num, x.den * y.den
            if rng.random() < 0.3:
                num, den = num * qint(3) * -2, den * qint(3) * -2
            pairs.append((num, den))
            want = want + RationalFunction(num, den)
        if pairs and rng.random() < 0.3:
            pairs.append((-pairs[0][0], pairs[0][1]))
            want = want - RationalFunction(*pairs[0])
        got = _sum_fractions(pairs)
        assert_rf_canonical(got)
        assert fields(got) == fields(want)


# -- Q(zeta_N) against floating-point evaluation at exp(2 pi i / N) ----------


def as_complex(x):
    """x evaluated in floats, with a bound on the rounding error."""
    root = cmath.exp(2j * cmath.pi / x.order)
    coeffs = [float(c) for c in x.coeffs]
    return sum(c * root ** e for e, c in enumerate(coeffs)), 1e-9 * (1 + sum(map(abs, coeffs)))


def eval_at_root(p, order):
    """The Laurent polynomial p at exp(2 pi i / order), term by term."""
    return sum(float(c) * cmath.exp(2j * cmath.pi * e / order) for e, c in p.terms.items())


def assert_near(x, want):
    got, tol = as_complex(x)
    assert abs(got - want) <= tol * (1 + abs(want)), (x, got, want)


def test_specialize_matches_complex_evaluation():
    rng = random.Random(1801)
    for order in range(1, 41):
        for _ in range(8):
            p = rand_poly(rng, size=7, span=3 * order + 5)
            x = specialize(p, order)
            assert len(x.num) == len(cyclotomic_poly(order)) - 1
            assert_near(x, eval_at_root(p, order))


def test_cyc_arithmetic_matches_complex():
    rng = random.Random(1268)
    for order in range(1, 41):
        root = cmath.exp(2j * cmath.pi / order)
        for e in range(-2 * order, 2 * order + 1, 3):
            assert_near(CycNumber.root_power(order, e), root ** e)
        for _ in range(3):
            x = specialize(rand_poly(rng, size=5, span=order + 2), order)
            y = specialize(rand_poly(rng, size=5, span=order + 2), order)
            zx, zy = as_complex(x)[0], as_complex(y)[0]
            assert_near(x * y, zx * zy)
            assert_near(x + y, zx + zy)
            assert_near(x + 3, zx + 3)
            assert_near(x - 3, zx - 3)
            assert_near(2 - x, 2 - zx)
            assert_near(x * -2, zx * -2)
            assert_near(conj(x), zx.conjugate())
            if not x.is_zero():
                assert_near(x.inverse(), 1 / zx)
                assert_near(y / x, zy / zx)
                assert x * x.inverse() == CycNumber.one(order)


def assert_canonical(x):
    assert x.den > 0
    assert gcd(x.den, *x.num) == 1
    if x.is_zero():
        assert x.den == 1


def test_cyc_canonical_form():
    rng = random.Random(4)
    for order in (1, 2, 3, 7, 12, 16, 20, 28):
        zero = CycNumber.zero(order)
        assert zero.num == (0,) * (len(cyclotomic_poly(order)) - 1) and zero.den == 1
        assert CycNumber(order, cyclotomic_poly(order)) == zero
        for _ in range(10):
            x = specialize(rand_poly(rng), order)
            y = specialize(rand_poly(rng) + 1, order)
            for v in (x, y, x * y, x + y, x - x, x * 0, -x, conj(x), x * Fraction(6, 4)):
                assert_canonical(v)
            assert (x - x).num == zero.num and (x - x).den == 1
            if not y.is_zero():
                assert_canonical(y.inverse())
                back = x * y / y
                assert back == x and hash(back) == hash(x)
            # one value from differently scaled inputs
            same = CycNumber(order, [c * 6 for c in x.coeffs]) * Fraction(1, 6)
            assert same == x and hash(same) == hash(x)
        a = CycNumber(order, [Fraction(1, 2), Fraction(3, 4)])
        b = CycNumber(order, [1, 3]) / 4 + Fraction(1, 4)
        assert a == b and hash(a) == hash(b)
        assert CycNumber(order, [Fraction(4, 6)]) == Fraction(2, 3)


def test_cyc_json_lowest_terms():
    x = specialize(RationalFunction(qint(3) * Fraction(5, 3), qint(2) * 7), 20)
    data = x.to_json()
    assert data["order"] == 20
    assert len(data["coeffs"]) == 8
    for num, den in data["coeffs"]:
        assert den > 0 and gcd(num, den) == 1
    assert CycNumber.zero(7).to_json()["coeffs"] == [[0, 1]] * 6
    assert repr(CycNumber.from_json(data)) == repr(x)


def test_order_must_be_positive():
    r = RationalFunction(LaurentPoly.one(), qint(2))
    for order in (0, -5):
        for build in (lambda: CycNumber.root_power(order, 3),
                      lambda: CycNumber.zero(order),
                      lambda: CycNumber.one(order),
                      lambda: CycNumber(order, [1, 2]),
                      lambda: specialize(qint(3), order),
                      lambda: specialize(r, order),
                      lambda: specialize(5, order)):
            with pytest.raises(ValueError):
                build()


def rand_cyc(rng, order):
    """Zero about one time in four, else coefficients over mixed denominators."""
    if rng.random() < 0.25:
        return CycNumber.zero(order)
    return CycNumber(order, [Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3, 5)))
                             for _ in range(rng.randint(1, order))])


def naive_product(x, y):
    """x * y by a Fraction convolution and the constructor's reduction."""
    conv = [Fraction(0)] * (2 * len(x.num) - 1)
    for i, a in enumerate(x.coeffs):
        for j, b in enumerate(y.coeffs):
            conv[i + j] += a * b
    return CycNumber(x.order, conv)


def dot(xs, ys):
    """The sum of the CycNumber products x * y over the pairs of xs and ys."""
    total = CycNumber.zero(xs[0].order)
    for x, y in zip(xs, ys):
        total = total + x * y
    return total


@pytest.mark.parametrize("order", [16, 20, 24, 28, 32])
def test_cyc_dot_matches_naive_sum(order):
    # products and sums of CycNumbers against Fraction convolutions
    rng = random.Random(order)
    zero = CycNumber.zero(order)
    for _ in range(25):
        n = rng.randint(1, 6)
        xs = [rand_cyc(rng, order) for _ in range(n)]
        ys = [rand_cyc(rng, order) for _ in range(n)]
        naive = zero
        for x, y in zip(xs, ys):
            assert x * y == naive_product(x, y)
            assert_canonical(x * y)
            naive = naive + naive_product(x, y)
        assert dot(xs, ys) == naive
        assert_canonical(dot(xs, ys))
        # the pairs and their negatives cancel to the canonical 0/1
        cancel = dot(xs + [-x for x in xs], ys + ys)
        assert cancel.num == zero.num and cancel.den == 1
    for x, y in ((zero, CycNumber.one(order)), (CycNumber.one(order), zero), (zero, zero)):
        assert (x * y).num == zero.num and (x * y).den == 1


def test_cyc_dot_order_mismatch():
    a, b = CycNumber.one(16), CycNumber.root_power(20, 3)
    with pytest.raises(OrderMismatch):
        dot([a, b], [a, b])
    with pytest.raises(OrderMismatch):
        a * b
    with pytest.raises(OrderMismatch):
        a * CycNumber.zero(20)
    with pytest.raises(OrderMismatch):
        a + b


def triple_loop(a, b):
    """The matrix product by ``naive_product`` and additions."""
    order = a[0][0].order
    want = [[CycNumber.zero(order) for _ in b[0]] for _ in a]
    for i, row in enumerate(a):
        for j in range(len(b[0])):
            for t, x in enumerate(row):
                want[i][j] = want[i][j] + naive_product(x, b[t][j])
    return want


def test_mat_mul_matches_triple_loop():
    rng = random.Random(12)
    for order, (n, k, m) in ((20, (2, 3, 4)), (28, (3, 3, 3)), (16, (4, 1, 2))):
        a = [[rand_cyc(rng, order) for _ in range(k)] for _ in range(n)]
        b = [[rand_cyc(rng, order) for _ in range(m)] for _ in range(k)]
        product = mat_mul(a, b)
        assert product == triple_loop(a, b)
        for row in product:
            for x in row:
                assert_canonical(x)


def test_mat_mul_at_the_packing_bound():
    # every coefficient +-c: the middle coefficient of each unreduced entry
    # is then +-n phi(N) c^2, the bound the packing width is chosen above;
    # a row of mixed denominators is scaled to their lcm first
    for order, n, c in ((20, 4, 2 ** 10), (28, 3, 2 ** 16 - 1), (16, 5, 7), (12, 2, 1)):
        deg = len(CycNumber.one(order).num)
        big = CycNumber(order, [c] * deg)
        for a, b in (([[big] * n] * n, [[big] * n] * n),
                     ([[big] * n] * n, [[-big] * n] * n),
                     ([[big, -big] * n] * 2, [[-big] * 2] * (2 * n))):
            assert mat_mul(a, b) == triple_loop(a, b), (order, n, c)
        thirds = CycNumber(order, [Fraction(c, 3)] * deg)
        fifths = CycNumber(order, [Fraction(-c, 5)] * deg)
        a = [[thirds, fifths] * n, [fifths] * (2 * n)]
        b = [[thirds], [big]] * n
        assert mat_mul(a, b) == triple_loop(a, b), (order, n, c)


def test_cyc_matrix_dots_pairs_and_orders():
    rng = random.Random(5)
    rows = [[rand_cyc(rng, 20) for _ in range(3)] for _ in range(4)]
    pairs = [(i, j) for i in range(4) for j in range(i, 4)]
    assert cyc_matrix_dots(rows, rows, pairs) == \
        [dot(rows[i], rows[j]) for i, j in pairs]
    with pytest.raises(OrderMismatch):
        cyc_matrix_dots(rows, [[CycNumber.one(16)] * 3], [(0, 0)])


def naive_triple_sum(rows, weights, i, j, l):
    order = rows[0][0].order
    total = CycNumber.zero(order)
    for a, b, c, w in zip(rows[i], rows[j], rows[l], weights):
        total = total + naive_product(naive_product(naive_product(a, b), c), w)
    return total


def test_triple_sums_match_naive_products():
    rng = random.Random(29)
    for order, n in ((16, 3), (20, 5), (28, 4), (12, 2)):
        rows = [[rand_cyc(rng, order) for _ in range(n)] for _ in range(3)]
        weights = [rand_cyc(rng, order) for _ in range(n)]
        sums = TripleSums(rows, weights)
        for i, j, l in itertools.product(range(3), repeat=3):
            got = sums.at(i, j, l)
            assert got == naive_triple_sum(rows, weights, i, j, l), (order, i, j, l)
            assert_canonical(got)
    with pytest.raises(OrderMismatch):
        TripleSums([[CycNumber.one(20)]], [CycNumber.one(16)])


def test_triple_sums_at_wide_coefficients():
    # every coefficient +-c and weights over mixed denominators: the widest
    # digits the packing must hold exactly
    for order, n, c in ((20, 3, 2 ** 10), (28, 2, 2 ** 16 - 1), (16, 4, 7)):
        deg = len(CycNumber.one(order).num)
        big = CycNumber(order, [c] * deg)
        rows = [[big] * n, [-big] * n, [big, -big] * (n // 2) + [big] * (n % 2)]
        weights = [CycNumber(order, [Fraction(c, 3)] * deg),
                   CycNumber(order, [Fraction(-c, 5)] * deg)] * n
        sums = TripleSums(rows, weights[:n])
        for i, j, l in itertools.product(range(3), repeat=3):
            assert sums.at(i, j, l) == naive_triple_sum(rows, weights[:n], i, j, l)


def test_root_sum_and_times_root_match_products():
    rng = random.Random(6)
    for order in (12, 16, 20, 24, 28):
        for _ in range(20):
            terms = [(rng.randint(-3 * order, 3 * order), rng.randint(-3, 3))
                     for _ in range(rng.randint(0, 8))]
            assert CycNumber.root_sum(order, terms) == \
                specialize(LaurentPoly(terms), order)
            x = rand_cyc(rng, order)
            e = rng.randint(-2 * order, 2 * order)
            shifted = x.times_root(e)
            assert shifted == naive_product(x, CycNumber.root_power(order, e))
            assert_canonical(shifted)


# -- LaurentPoly arithmetic against a dict-of-Fraction reference -------------


def ref_qint(n):
    """[n] for n >= 1 as a dict, from its closed form."""
    return {n - 1 - 2 * i: Fraction(1) for i in range(n)}


def ref_add(a, b, sign=1):
    out = dict(a)
    for e, c in b.items():
        out[e] = out.get(e, 0) + sign * c
    return {e: c for e, c in out.items() if c}


def ref_mul(a, b):
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return {e: c for e, c in out.items() if c}


def rand_ref(rng):
    """A reference dict: zero, a constant, a product of quantum integers
    (every other coefficient zero) times a rational, or sparse terms with
    negative exponents over mixed denominators."""
    kind = rng.randrange(4)
    if kind == 0:
        return {}
    scale = Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.choice((1, 2, 3, 4, 6)))
    if kind == 1:
        return {0: scale}
    if kind == 2:
        out = {rng.randint(-3, 3): scale}
        for _ in range(rng.randint(1, 3)):
            out = ref_mul(out, ref_qint(rng.randint(1, 7)))
        return out
    return {rng.randint(-9, 9): Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3, 5, 7)))
            for _ in range(rng.randint(1, 6))}


def test_laurent_arithmetic_matches_fraction_reference():
    rng = random.Random(30)
    for n in range(1, 9):
        assert qint(n).terms == ref_qint(n)
    for _ in range(400):
        da, db = rand_ref(rng), rand_ref(rng)
        a, b = LaurentPoly(da), LaurentPoly(db)
        assert a.terms == {e: c for e, c in da.items() if c}
        for got, want in ((a + b, ref_add(da, db)), (a - b, ref_add(da, db, -1)),
                          (a * b, ref_mul(da, db)), (-a, ref_add({}, da, -1)),
                          (a + 3, ref_add(da, {0: Fraction(3)})),
                          (a * Fraction(-2, 3), ref_mul(da, {0: Fraction(-2, 3)}))):
            assert got.terms == want, (da, db)
            assert_laurent_canonical(got)
            assert fields_of(got) == fields_of(LaurentPoly(want))


# -- integral exponents and coefficient parts --------------------------------


def test_laurent_refuses_non_integral_exponents():
    for terms in ({0.5: 1}, {1.0: 2}, [(Fraction(1, 2), 1)], [(0, 1), ("1", 1)]):
        with pytest.raises(TypeError):
            LaurentPoly(terms)
    with pytest.raises(TypeError):
        LaurentPoly.q_power(1.5)


def test_laurent_from_json_refuses_non_integral_parts():
    assert LaurentPoly.from_json([[1, 1, 1]]) == q(1)
    for data in ([[1.7, 1, 1]], [[1, 1.5, 1]], [[1, 1, 2.0]], [[0, 1, 1], [2, "3", 1]]):
        with pytest.raises(TypeError):
            LaurentPoly.from_json(data)


def test_rational_function_from_json_refuses_non_integral_parts():
    good = {"num": [[0, 2, 1]], "den": [[0, 1, 1]]}
    assert RationalFunction.from_json(good) == 2
    record = _websum_to_json(WebSum.from_web(_strands(2)))
    assert len(_websum_from_json(record)) == 1
    for data in ({"num": [[0.5, 2, 1]], "den": [[0, 1, 1]]},
                 {"num": [[0, 2, 1]], "den": [[0, 1, 1], [1.5, 1, 1]]}):
        with pytest.raises(TypeError):
            RationalFunction.from_json(data)
        # a disk record carrying such a value is not a websum, so it is a miss
        record["terms"][0]["coeff"] = data
        with pytest.raises(ValueError):
            _websum_from_json(record)


def test_cyc_from_json_refuses_non_integral_parts():
    x = specialize(qint(3), 20)
    data = x.to_json()
    assert CycNumber.from_json(data) == x
    bad = [dict(data, order=20.0), dict(data, coeffs=[[0.5, 1]] + data["coeffs"][1:]),
           dict(data, coeffs=[[1, 2.5]] + data["coeffs"][1:])]
    for record in bad:
        with pytest.raises(TypeError):
            CycNumber.from_json(record)
