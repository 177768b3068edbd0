"""Exact coefficient arithmetic for the skein engine.

Three scalar domains, all exact (no floating point) and all stored the same
way: a dense integer coefficient vector, low degree first, over one positive
integer denominator, in lowest terms (the gcd of the entries and the
denominator is 1).  Each value has exactly one representation, so equality
compares fields, and no Fraction is built on the arithmetic paths.

* ``LaurentPoly`` -- Laurent polynomials in one variable q with rational
  coefficients, the generic ground ring of the diagram calculus:
  q^low (num[0] + num[1] q + ...) / den, with num's end entries nonzero.
* ``RationalFunction`` -- quotients of Laurent polynomials, needed because
  projector coefficients divide by quantum integers.  Kept in a canonical
  reduced form; the reduction runs a primitive pseudo-remainder gcd on the
  integer vectors.
* ``CycNumber`` -- the image of the above under q -> primitive N-th root of
  unity: a residue modulo the N-th cyclotomic polynomial Phi_N, a vector of
  length deg Phi_N.  Phi_N is monic with integer coefficients, so products
  reduce without leaving the integers, and inverses come from the Galois
  conjugates q -> q^j (gcd(j, N) = 1) and their product, the norm, a
  rational integer.

A product of two values is one integer convolution, ``_int_mul`` (for a
CycNumber then one reduction by Phi_N), and every lowest-terms step is one
helper, ``_lowest``.  Matrix-shaped sums of CycNumber products are
``cyc_matrix_dots``, and the repeated sums of triple products of the
Verlinde formula ``TripleSums``: each coefficient vector is packed once into
one integer (Kronecker substitution) and reused by every sum that reads it,
at a width above a bound on every coefficient of the unreduced sums, so the
result is exact with certainty.  A product by a root power q^e is a shift of
coefficients (``CycNumber.times_root``), and a sum of signed root powers is
folded into one list (``CycNumber.root_sum``); each is reduced once.

Quantum integers use the symmetric convention [n] = (q^n - q^-n)/(q - q^-1),
so [n] specializes to zero at a root of unity of order N exactly when N | 2n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm
from operator import index


class DenominatorVanishes(ArithmeticError):
    """A denominator specializes to zero at the requested root of unity."""


class OrderMismatch(ValueError):
    """Arithmetic between cyclotomic numbers of different orders."""


def _rational(x):
    """x itself if it is an int or a Fraction (both carry ``numerator`` and
    ``denominator``); anything else raises TypeError."""
    if isinstance(x, (int, Fraction)):
        return x
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _power(base, n: int, one):
    """base ** n for n >= 0 by square-and-multiply."""
    out = one
    while n:
        if n & 1:
            out = out * base
        base = base * base
        n >>= 1
    return out


class LaurentPoly:
    """Laurent polynomial in q over the rationals.

    Stored as ``q^low * (num[0] + num[1] q + ...) / den``: ``num`` is a
    tuple of integers whose first and last entries are nonzero and ``den``
    a positive integer.  The form is in lowest terms (gcd(content(num),
    den) = 1; zero is () at low 0 over 1), so each polynomial has exactly
    one representation and equality compares fields.  A product is one
    integer convolution of the two vectors; a sum aligns the two vectors and
    the two denominators.  ``terms`` gives the coefficients as Fractions.
    Instances are immutable; all operations return new objects.
    """

    __slots__ = ("low", "num", "den", "_hash")

    def __init__(self, terms=None):
        """``terms`` maps integer exponents to ints or Fractions (a dict or
        pairs); repeated exponents add up."""
        pairs = [(index(e), _rational(c))
                 for e, c in (terms.items() if isinstance(terms, dict) else terms or ())]
        den = lcm(1, *(c.denominator for _, c in pairs))
        p = _collect([(e, c.numerator * (den // c.denominator)) for e, c in pairs], den)
        self.low, self.num, self.den, self._hash = p.low, p.num, p.den, None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return _laurent_raw(0, (), 1)

    @staticmethod
    def one() -> "LaurentPoly":
        return _laurent_raw(0, (1,), 1)

    @staticmethod
    def const(c) -> "LaurentPoly":
        c = _rational(c)
        return _laurent_raw(0, (c.numerator,) if c else (), c.denominator)

    @staticmethod
    def q_power(n: int) -> "LaurentPoly":
        return _laurent_raw(index(n), (1,), 1)

    @staticmethod
    def coerce(x) -> "LaurentPoly":
        if isinstance(x, LaurentPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return LaurentPoly.const(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to LaurentPoly")

    # -- structure ----------------------------------------------------

    @property
    def terms(self) -> dict:
        """The map exponent -> nonzero Fraction coefficient (a fresh copy)."""
        return {e: Fraction(c, self.den) for e, c in enumerate(self.num, self.low) if c}

    def is_zero(self) -> bool:
        return not self.num

    def min_exp(self) -> int:
        if not self.num:
            raise ValueError("the zero polynomial has no exponents")
        return self.low

    def max_exp(self) -> int:
        return self.min_exp() + len(self.num) - 1

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if isinstance(other, RationalFunction):
            return RationalFunction.from_poly(self) == other
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.den == other.den and self.low == other.low and self.num == other.num

    def __hash__(self):
        # a constant compares equal to its int or Fraction, so it hashes as one
        if self._hash is None:
            num = self.num
            if len(num) <= 1 and not self.low:
                self._hash = hash(Fraction(num[0] if num else 0, self.den))
            else:
                self._hash = hash((self.low, num, self.den))
        return self._hash

    def __bool__(self):
        return bool(self.num)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, RationalFunction):
            return RationalFunction.from_poly(self) + other
        other = LaurentPoly.coerce(other)
        if not other.num:
            return self
        if not self.num:
            return other
        d1, d2 = self.den, other.den
        den = d1 // gcd(d1, d2) * d2
        return _laurent(*_shifted_sum(self.num, self.low, den // d1,
                                      other.num, other.low, den // d2), den)

    __radd__ = __add__

    def __neg__(self):
        return _laurent_raw(self.low, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        if isinstance(other, RationalFunction):
            return RationalFunction.from_poly(self) - other
        return self + (-LaurentPoly.coerce(other))

    def __rsub__(self, other):
        return LaurentPoly.coerce(other) - self

    def __mul__(self, other):
        if isinstance(other, RationalFunction):
            return RationalFunction.from_poly(self) * other
        other = LaurentPoly.coerce(other)
        return _laurent(self.low + other.low, _int_mul(self.num, other.num),
                        self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return RationalFunction.from_poly(self) ** n
        return _power(self, n, LaurentPoly.one())

    def __truediv__(self, other):
        return RationalFunction.from_poly(self) / other

    def __rtruediv__(self, other):
        return RationalFunction.coerce(other) / RationalFunction.from_poly(self)

    # -- display / serialization ---------------------------------------

    def __repr__(self):
        if not self.num:
            return "0"
        terms = self.terms
        bits = []
        for e in sorted(terms, reverse=True):
            c = terms[e]
            if e == 0:
                bits.append(f"{c}")
            else:
                var = "q" if e == 1 else ("q^-1" if e == -1 else f"q^{e}")
                if c == 1:
                    bits.append(var)
                elif c == -1:
                    bits.append(f"-{var}")
                else:
                    bits.append(f"{c}*{var}")
        s = " + ".join(bits)
        return s.replace("+ -", "- ")

    def to_json(self):
        """List of [exponent, numerator, denominator] triples, sorted, each
        coefficient in lowest terms."""
        den, out = self.den, []
        for e, c in enumerate(self.num, self.low):
            if c:
                g = gcd(c, den)
                out.append([e, c // g, den // g])
        return out

    @staticmethod
    def from_json(data) -> "LaurentPoly":
        data = [(index(e), index(n), index(d)) for e, n, d in data]
        den = lcm(1, *(d for _, _, d in data))
        return _collect([(e, n * (den // d)) for e, n, d in data], den)


def _laurent(low: int, num, den: int) -> LaurentPoly:
    """The LaurentPoly q^low num/den for an integer list num and a positive
    den: the zero ends of num are stripped and the rest put in lowest terms."""
    hi = len(num)
    while hi and not num[hi - 1]:
        hi -= 1
    if not hi:
        return _laurent_raw(0, (), 1)
    lo = 0
    while not num[lo]:
        lo += 1
    return _laurent_raw(low + lo, *_lowest(num[lo:hi], den))


def _laurent_raw(low: int, num: tuple, den: int) -> LaurentPoly:
    """A LaurentPoly from fields already in canonical form."""
    x = object.__new__(LaurentPoly)
    x.low, x.num, x.den, x._hash = low, num, den, None
    return x


def _collect(pairs, den: int) -> LaurentPoly:
    """The LaurentPoly sum of c q^e / den over the integer pairs (e, c)."""
    exps = [e for e, _ in pairs] or [0]
    low = min(exps)
    num = [0] * (max(exps) - low + 1)
    for e, c in pairs:
        num[e - low] += c
    return _laurent(low, num, den)


def _shifted_sum(a, ea: int, ka: int, b, eb: int, kb: int):
    """(low, vec) with q^low vec = ka q^ea a + kb q^eb b, for integer
    vectors a and b (low degree first) and integers ka and kb."""
    low = min(ea, eb)
    out = [0] * (max(ea + len(a), eb + len(b)) - low)
    for i, c in enumerate(a, ea - low):
        out[i] = c * ka
    for i, c in enumerate(b, eb - low):
        out[i] += c * kb
    return low, out


def _is_one(p: LaurentPoly) -> bool:
    return p.num == (1,) and not p.low and p.den == 1


def qint(n: int) -> LaurentPoly:
    """Quantum integer [n] = q^(n-1) + q^(n-3) + ... + q^(1-n)."""
    if n == 0:
        return LaurentPoly.zero()
    if n < 0:
        return -qint(-n)
    return _laurent_raw(1 - n, (1, 0) * (n - 1) + (1,), 1)


# integer-coefficient helpers (primitive pseudo-remainder sequence); much
# faster than Fraction arithmetic for the gcd work in RationalFunction


def _int_primitive(p):
    """p divided by its content, with a positive leading coefficient."""
    g = gcd(*p)
    if g > 1:
        p = [c // g for c in p]
    if p and p[-1] < 0:
        p = [-c for c in p]
    return p


def _int_prem(a, b):
    """Remainder of a by b up to a nonzero integer factor: each step divides
    exactly when lc(b) divides the leading term and otherwise scales by
    lc(b) first, so the primitive part equals that of the pseudo-remainder."""
    a = list(a)
    while a and not a[-1]:
        a.pop()
    db, lb = len(b) - 1, b[-1]
    while len(a) > db:
        la = a.pop()
        shift = len(a) - db
        if la % lb:
            a = [c * lb for c in a]
        else:
            la //= lb
        for i in range(db):
            a[i + shift] -= la * b[i]
        while a and not a[-1]:
            a.pop()
    return a


def _int_gcd_poly(a, b):
    """Primitive gcd of integer polynomials."""
    a, b = _int_primitive(list(a)), _int_primitive(list(b))
    if not a:
        return b
    if not b:
        return a
    if len(a) < len(b):
        a, b = b, a
    while b:
        r = _int_primitive(_int_prem(a, b))
        a, b = b, r
    return _int_primitive(a)


def _int_mul(a, b):
    """Product of two integer polynomials (dense lists, low degree first)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _int_div_exact(a, b):
    """Exact division of integer polynomials (b must divide a)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    q = [0] * (len(a) - db)
    for i in range(len(a) - 1 - db, -1, -1):
        c, rem = divmod(a[i + db], lb)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        if c:
            q[i] = c
            for j in range(db):
                a[i + j] -= c * b[j]
    if any(a[:db]):
        raise ArithmeticError("inexact polynomial division")
    return q


@lru_cache(maxsize=None)
def _cyclotomic_int(n: int) -> tuple:
    if n < 1:
        raise ValueError("order must be positive")
    # x^n - 1 divided by the product of cyclotomic polynomials of proper divisors
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _int_div_exact(num, list(_cyclotomic_int(d)))
    return tuple(num)


# Integer residue arithmetic modulo Phi_N.  Residues are integer lists, low
# degree first; the per-order tables are built on first use.


@lru_cache(maxsize=None)
def _phi_tail(n: int) -> tuple:
    """(deg Phi_n, the nonzero terms (j, c) of Phi_n below its leading 1)."""
    phi = _cyclotomic_int(n)
    return len(phi) - 1, tuple((j, c) for j, c in enumerate(phi[:-1]) if c)


def _reduce(vec, n: int) -> list:
    """Remainder of the integer list vec (changed in place) by the monic
    Phi_n, padded to length deg Phi_n."""
    deg, tail = _phi_tail(n)
    for i in range(len(vec) - 1, deg - 1, -1):
        c = vec[i]
        if c:
            base = i - deg
            for j, t in tail:
                vec[base + j] -= c * t
    del vec[deg:]
    vec.extend([0] * (deg - len(vec)))
    return vec


@lru_cache(maxsize=None)
def _roots(n: int) -> tuple:
    """q^e modulo Phi_n for 0 <= e < n, as integer tuples."""
    deg, tail = _phi_tail(n)
    cur = [1] + [0] * (deg - 1)
    out = []
    for _ in range(n):
        out.append(tuple(cur))
        top = cur.pop()
        cur.insert(0, 0)
        for j, t in tail:
            cur[j] -= top * t
    return tuple(out)


def _galois(num, j: int, n: int) -> list:
    """Image of a residue under the automorphism q -> q^j (gcd(j, n) = 1)."""
    roots = _roots(n)
    deg = len(num)
    out = [0] * deg
    for i, c in enumerate(num):
        if c:
            for t, r in enumerate(roots[i * j % n]):
                if r:
                    out[t] += c * r
    return out


def _fold(terms, n: int) -> list:
    """The sum of c q^e over the integer pairs (e, c) of terms, exponents
    folded mod n (q^n = 1 modulo Phi_n): an integer list of length n."""
    vec = [0] * n
    for e, c in terms:
        vec[e % n] += c
    return vec


class RationalFunction:
    """Quotient of Laurent polynomials in canonical reduced form.

    Canonical form: numerator/denominator share no polynomial factor, and
    the denominator is an ordinary polynomial in q with constant term 1.

    The constructor is the one normalizing path (a full gcd).  Arithmetic
    starts from reduced operands and cancels only what can cancel: a product
    takes gcd(n1, d2) and gcd(n2, d1), never the gcd of the product, and a sum
    over denominators with gcd g only takes a gcd against g (P. Henrici, J. ACM
    3, 1956; Knuth, TAOCP vol. 2, 4.5.1).  Rational content and q-powers are
    carried beside primitive integer polynomials (Gauss's lemma).
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num, self.den = LaurentPoly.zero(), LaurentPoly.one()
            self._hash = None
            return
        if _is_one(den):
            self.num, self.den = num, den
            self._hash = None
            return
        # num/den = (den.den / num.den) q^(num.low - den.low) pn / pd
        pn, pd = _cancel(num.num, den.num)
        self.num, self.den = _canonical(pn, num.low - den.low, pd, den.den, num.den)
        self._hash = None

    @staticmethod
    def from_poly(p: LaurentPoly) -> "RationalFunction":
        return RationalFunction(p, LaurentPoly.one())

    @staticmethod
    def coerce(x) -> "RationalFunction":
        if isinstance(x, RationalFunction):
            return x
        if isinstance(x, (int, Fraction)):
            return RationalFunction.from_poly(LaurentPoly.const(x))
        if isinstance(x, LaurentPoly):
            return RationalFunction.from_poly(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to RationalFunction")

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def is_poly(self) -> bool:
        return _is_one(self.den)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = RationalFunction.coerce(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        # a Laurent polynomial (an int, a Fraction) hashes as itself, since
        # it compares equal to itself as a RationalFunction
        if self._hash is None:
            self._hash = hash(self.num) if _is_one(self.den) else hash((self.num, self.den))
        return self._hash

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        other = RationalFunction.coerce(other)
        if other.is_zero():
            return self
        if self.is_zero():
            return other
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        n1, s1, p1, a1, b1 = _parts(self)
        n2, s2, p2, a2, b2 = _parts(other)
        g = _int_gcd_poly(p1, p2) if len(p1) > 1 and len(p2) > 1 else [1]
        r1, r2 = (_int_div_exact(p1, g), _int_div_exact(p2, g)) if len(g) > 1 else (p1, p2)
        # self + other = t / (b r1 r2 g) with
        # t = (a1 b/b1) q^s1 n1 r2 + (a2 b/b2) q^s2 n2 r1
        b = lcm(b1, b2)
        s, t = _shifted_sum(_int_mul(n1, r2), s1, a1 * (b // b1),
                            _int_mul(n2, r1), s2, a2 * (b // b2))
        while t and not t[-1]:
            t.pop()
        if not t:
            return _RF_ZERO
        # a factor common to t and the denominator divides g
        t, g = _cancel(t, g)
        return _rf(*_canonical(t, s, _int_mul(_int_mul(r1, r2), g), 1, b))

    __radd__ = __add__

    def __neg__(self):
        return _rf(-self.num, self.den)

    def __sub__(self, other):
        return self + (-RationalFunction.coerce(other))

    def __rsub__(self, other):
        return RationalFunction.coerce(other) - self

    def __mul__(self, other):
        other = RationalFunction.coerce(other)
        if _is_one(self.den) and _is_one(other.den):
            return _rf(self.num * other.num, self.den)
        if self.is_zero() or other.is_zero():
            return _RF_ZERO
        # (a1/b1) q^s1 n1/p1 * (a2/b2) q^s2 n2/p2
        n1, s1, p1, a1, b1 = _parts(self)
        n2, s2, p2, a2, b2 = _parts(other)
        n1, p2 = _cancel(n1, p2)
        n2, p1 = _cancel(n2, p1)
        return _rf(*_canonical(_int_mul(n1, n2), s1 + s2, _int_mul(p1, p2),
                               a1 * a2, b1 * b2))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RationalFunction.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        if self.is_zero():
            return self
        # (a1/b1) q^s1 n1/p1 / ((a2/b2) q^s2 n2/p2)
        n1, s1, p1, a1, b1 = _parts(self)
        n2, s2, p2, a2, b2 = _parts(other)
        n1, n2 = _cancel(n1, n2)
        p2, p1 = _cancel(p2, p1)
        return _rf(*_canonical(_int_mul(n1, p2), s1 - s2, _int_mul(p1, n2),
                               a1 * b2, b1 * a2))

    def __rtruediv__(self, other):
        return RationalFunction.coerce(other) / self

    def __pow__(self, n: int):
        num = self.num
        if len(num.num) == 1 and _is_one(self.den):
            # a monomial c q^e: its power c^n q^(en) is again a monomial
            c = Fraction(num.num[0], num.den) ** n
            return _rf(_laurent_raw(num.low * n, (c.numerator,), c.denominator), self.den)
        if n < 0:
            return RationalFunction.coerce(1) / (self ** (-n))
        return _power(self, n, RationalFunction.coerce(1))

    def __repr__(self):
        if self.is_poly():
            return repr(self.num)
        return f"({self.num!r}) / ({self.den!r})"

    def to_json(self):
        return {"num": self.num.to_json(), "den": self.den.to_json()}

    @staticmethod
    def from_json(data) -> "RationalFunction":
        return RationalFunction(LaurentPoly.from_json(data["num"]),
                                LaurentPoly.from_json(data["den"]))


def _rf(num: LaurentPoly, den: LaurentPoly) -> RationalFunction:
    """A RationalFunction from fields already in canonical form."""
    x = object.__new__(RationalFunction)
    x.num, x.den, x._hash = num, den, None
    return x


_RF_ZERO = _rf(LaurentPoly.zero(), LaurentPoly.one())


def _parts(r: RationalFunction):
    """(n, s, p, a, b) with r = (a/b) q^s n/p for nonzero r: n and p integer
    tuples, n[0] != 0, and p primitive with p[0] = a > 0."""
    num, den = r.num, r.den
    return num.num, num.low, den.num, den.den, num.den


def _cancel(a, b):
    """a and b divided by their primitive gcd; no gcd is taken when either
    is a constant."""
    if len(a) > 1 and len(b) > 1:
        g = _int_gcd_poly(a, b)
        if len(g) > 1:
            return _int_div_exact(a, g), _int_div_exact(b, g)
    return a, b


def _canonical(pn, shift: int, pd, a: int, b: int):
    """Canonical (num, den) fields of (a/b) q^shift pn/pd, for integer
    vectors pn (nonzero) and pd (both end entries nonzero) with no common
    factor and positive integers a, b: the content and sign of pd move into
    the numerator's denominator, and pd is scaled to constant term 1."""
    c = gcd(*pd)
    if pd[0] < 0:
        c, a = -c, -a
    if c != 1:
        pd = [x // c for x in pd]
    lead = pd[0]
    num = _laurent(shift, [x * a for x in pn], b * abs(c) * lead)
    return num, _laurent_raw(0, tuple(pd), lead)


def _sum_fractions(pairs) -> RationalFunction:
    """The sum of the fractions num/den over (LaurentPoly, LaurentPoly)
    pairs that need not be reduced (each den nonzero).  Numerators over the
    same den are added first, the multiplier from each distinct den to their
    least common multiple is found once, and the total is normalized once."""
    groups = {}
    for num, den in pairs:
        acc = groups.get(den)
        groups[den] = num if acc is None else acc + num
    common, parts = [1], []
    for den, num in groups.items():
        if num.is_zero():
            continue
        # den = (c / den.den) q^den.low p with p primitive and p[0] > 0
        p = den.num
        c = gcd(*p) if p[0] > 0 else -gcd(*p)
        if c != 1:
            p = [x // c for x in p]
        parts.append((num * LaurentPoly({-den.low: Fraction(den.den, c)}), p))
        if len(p) > 1:
            g = _int_gcd_poly(common, p) if len(common) > 1 else [1]
            common = _int_mul(common, _int_div_exact(p, g) if len(g) > 1 else p)
    total = LaurentPoly.zero()
    for num, p in parts:
        m = _int_div_exact(common, p)
        total = total + num * _laurent_raw(0, tuple(m), 1)
    return RationalFunction(total, _laurent_raw(0, tuple(common), 1))


def _lowest(num, den: int):
    """(num, den) in lowest terms, num as a tuple; den must be positive."""
    if den != 1:
        g = gcd(den, *num)
        if g != 1:
            num = [c // g for c in num]
            den //= g
    return tuple(num), den


def _cyc(order: int, num, den: int) -> "CycNumber":
    """The CycNumber num/den from an integer list of length deg Phi_order and
    a positive denominator."""
    return _raw(order, *_lowest(num, den))


def _raw(order: int, num: tuple, den: int) -> "CycNumber":
    """A CycNumber from fields already in canonical form."""
    x = object.__new__(CycNumber)
    x.order, x.num, x.den, x._hash = order, num, den, None
    return x


def _scaled(vectors, order: int):
    """Each vector of CycNumbers as (integer coefficient lists over the lcm
    of its entries' denominators, that lcm), and the largest |coefficient|
    among them.  Every entry must have the given order."""
    out, top = [], 0
    for vec in vectors:
        den = 1
        for x in vec:
            if x.order != order:
                raise OrderMismatch(f"orders {x.order} and {order} in one matrix product")
            den = den // gcd(den, x.den) * x.den
        ints = [x.num if x.den == den else [c * (den // x.den) for c in x.num]
                for x in vec]
        for num in ints:
            top = max(top, max(num), -min(num))
        out.append((ints, den))
    return out, top


def _pack(num, bits: int) -> int:
    """The integer sum of num[i] * 2^(bits i), signed coefficients allowed."""
    v = 0
    for c in reversed(num):
        v = (v << bits) + c
    return v


@lru_cache(maxsize=None)
def _digit_offset(bits: int, length: int) -> int:
    """2^(bits-1) packed into each of ``length`` digits."""
    return _pack([1 << (bits - 1)] * length, bits)


def _unpack(v: int, bits: int, length: int) -> list:
    """The coefficients num of v = ``_pack(num, bits)``, len(num) = length,
    given that every |num[i]| < 2^(bits-1): they are the balanced base-2^bits
    digits of v.  Adding 2^(bits-1) to every digit makes them all
    nonnegative, so they are read off as plain base-2^bits digits."""
    half, mask = 1 << (bits - 1), (1 << bits) - 1
    v += _digit_offset(bits, length)
    return [((v >> s) & mask) - half for s in range(0, bits * length, bits)]


def cyc_matrix_dots(rows, cols, pairs) -> list:
    """[sum over t of rows[i][t] * cols[j][t] for (i, j) in pairs]: the
    entries of a matrix-shaped sum of products, each normalized once.

    Kronecker substitution (von zur Gathen and Gerhard, *Modern Computer
    Algebra*, section 8.4).  Each row and each column is scaled to the lcm of
    its denominators, and each integer coefficient vector a is packed once
    as the integer a(2^B), then reused by every entry that reads it.  A
    product of packed integers is the packed convolution and a sum of them
    the packed sum.  With n terms per entry, every coefficient of an
    unreduced entry is a sum of at most n phi(N) products, so its absolute
    value is at most n phi(N) max|a| max|b|; B is chosen with 2^(B-1) above
    that bound, so the coefficients are exactly the balanced base-2^B digits
    of the packed sum (``_unpack``).  Each entry is then reduced by Phi_N and
    put in lowest terms.

    Every entry must have the order of rows[0][0] (OrderMismatch), zeros
    included."""
    order = rows[0][0].order
    same = cols is rows     # s s^T: one matrix, packed once
    rows, top_r = _scaled(rows, order)
    cols, top_c = (rows, top_r) if same else _scaled(cols, order)
    deg = _phi_tail(order)[0]
    n = max(len(nums) for nums, _ in rows)
    bits = (n * deg * top_r * top_c).bit_length() + 1
    packed_rows = [[_pack(num, bits) for num in nums] for nums, _ in rows]
    packed_cols = packed_rows if same else [[_pack(num, bits) for num in nums]
                                            for nums, _ in cols]
    zero = _raw(order, (0,) * deg, 1)
    out = []
    for i, j in pairs:
        v = sum(a * b for a, b in zip(packed_rows[i], packed_cols[j]) if a and b)
        if not v:
            out.append(zero)
            continue
        acc = _unpack(v, bits, 2 * deg - 1)
        out.append(_cyc(order, _reduce(acc, order), rows[i][1] * cols[j][1]))
    return out


class TripleSums:
    """The sums sum over t of rows[i][t] * rows[j][t] * rows[l][t] *
    weights[t], for any (i, j, l), from one packing of the rows and weights.

    The packing is that of ``cyc_matrix_dots``: each row is scaled to the lcm
    of its denominators and the weights to theirs, each integer coefficient
    vector a is packed once as the integer a(2^B), and each row entry times
    its weight is kept as the product of the two packed integers, unreduced.
    A sum is then n products of three big integers, one unpack and one
    reduction by Phi_N, however many sums are asked.

    B is chosen from a coefficient bound, so the kernel is exact with
    certainty.  Write |a| for the largest absolute coefficient of a.  A
    product with a factor b of at most d = phi(N) coefficients has
    |ab| <= d |a| |b|, so one term a b c w has |abcw| <= d^3 |a| |b| |c| |w|,
    and a sum of n terms at most n d^3 max|a|^3 max|w|.  2^(B-1) is
    above that, so the unreduced coefficients are exactly the balanced
    base-2^B digits of the packed sum (``_unpack``).

    Every entry must have the order of rows[0][0] (OrderMismatch)."""

    def __init__(self, rows, weights):
        self.order = order = rows[0][0].order
        rows, top = _scaled(rows, order)
        ((weight_nums, self._weight_den),), top_w = _scaled([weights], order)
        deg = _phi_tail(order)[0]
        self._length = 4 * deg - 3       # coefficients of an unreduced a b c w
        self._bits = bits = (len(weights) * deg ** 3 * top ** 3 * top_w).bit_length() + 1
        self._dens = [den for _, den in rows]
        self._rows = [[_pack(num, bits) for num in nums] for nums, _ in rows]
        packed_weights = [_pack(num, bits) for num in weight_nums]
        self._weighted = [[a * w for a, w in zip(row, packed_weights)] for row in self._rows]

    def at(self, i: int, j: int, l: int) -> "CycNumber":
        """sum over t of rows[i][t] * rows[j][t] * rows[l][t] * weights[t]."""
        v = sum(a * b * c for a, b, c in zip(self._rows[i], self._rows[j], self._weighted[l]))
        acc = _unpack(v, self._bits, self._length)
        den = self._dens[i] * self._dens[j] * self._dens[l] * self._weight_den
        return _cyc(self.order, _reduce(acc, self.order), den)


class CycNumber:
    """Element of Q[q] / Phi_N(q), the order-N cyclotomic field.

    Stored as ``num / den``: ``num`` is a tuple of integers of length
    deg Phi_N = phi(N), low degree first, and ``den`` a positive integer.
    The pair is in lowest terms (gcd(content(num), den) = 1, zero is 0/1), so
    each value has exactly one representation and equality compares fields.
    q^N reduces to 1 and the represented q is an abstract primitive N-th
    root of unity.  ``coeffs`` gives the coefficients as Fractions.
    """

    __slots__ = ("order", "num", "den", "_hash")

    def __init__(self, order: int, coeffs):
        """``coeffs`` are ints or Fractions, low degree first, of any length."""
        cs = [_rational(c) for c in coeffs]
        den = lcm(1, *(c.denominator for c in cs))
        num = [c.numerator * (den // c.denominator) for c in cs]
        self.num, self.den = _lowest(_reduce(num, order), den)
        self.order, self._hash = order, None

    @staticmethod
    def zero(order: int) -> "CycNumber":
        return _raw(order, (0,) * _phi_tail(order)[0], 1)

    @staticmethod
    def one(order: int) -> "CycNumber":
        return _raw(order, _roots(order)[0], 1)

    @staticmethod
    def root_power(order: int, e: int) -> "CycNumber":
        return _raw(order, _roots(order)[e % order], 1)

    @staticmethod
    def root_sum(order: int, terms) -> "CycNumber":
        """The sum of c q^e over the integer pairs (e, c) of terms: the
        exponents folded mod N into one integer list, reduced once by Phi_N."""
        return _raw(order, tuple(_reduce(_fold(terms, order), order)), 1)

    def times_root(self, e: int) -> "CycNumber":
        """self * q^e as a shift: the coefficients move e places mod N
        (q^N = 1), then the list is reduced once by Phi_N.  q^e is a unit of
        Z[q]/Phi_N, so a prime divides every coefficient of the product iff
        it divides every coefficient of self, and the result keeps self's
        denominator in lowest terms."""
        n = self.order
        e %= n
        if not e:
            return self
        padded = list(self.num) + [0] * (n - len(self.num))
        return _raw(n, tuple(_reduce(padded[n - e:] + padded[:n - e], n)), self.den)

    @property
    def coeffs(self) -> tuple:
        return tuple(Fraction(c, self.den) for c in self.num)

    def _check(self, other: "CycNumber"):
        if self.order != other.order:
            raise OrderMismatch(f"orders {self.order} and {other.order} differ")

    def is_zero(self) -> bool:
        return not any(self.num)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self.coerce_other(other)
        if not isinstance(other, CycNumber):
            return NotImplemented
        return (self.order == other.order and self.den == other.den
                and self.num == other.num)

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.order, self.num, self.den))
        return self._hash

    def __bool__(self):
        return not self.is_zero()

    def coerce_other(self, x) -> "CycNumber":
        if isinstance(x, CycNumber):
            self._check(x)
            return x
        if isinstance(x, (int, Fraction)):
            return _raw(self.order, (x.numerator,) + (0,) * (len(self.num) - 1),
                        x.denominator)
        raise TypeError(f"cannot coerce {type(x).__name__} to CycNumber")

    def __add__(self, other):
        other = self.coerce_other(other)
        d1, d2 = self.den, other.den
        den = d1 // gcd(d1, d2) * d2
        m1, m2 = den // d1, den // d2
        return _cyc(self.order, [a * m1 + b * m2 for a, b in zip(self.num, other.num)],
                    den)

    __radd__ = __add__

    def __neg__(self):
        return _raw(self.order, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        return self + (-self.coerce_other(other))

    def __rsub__(self, other):
        return self.coerce_other(other) - self

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return _cyc(self.order, [c * other.numerator for c in self.num],
                        self.den * other.denominator)
        other = self.coerce_other(other)
        return _cyc(self.order, _reduce(_int_mul(self.num, other.num), self.order),
                    self.den * other.den)

    __rmul__ = __mul__

    def inverse(self) -> "CycNumber":
        """Integer-only inverse; raises if x is zero.

        For x = num/den, 1/x = den * P / (num * P), where P is the product of
        the conjugates num(q^j), 1 < j < N, gcd(j, N) = 1.  The denominator
        num * P is the norm of num: it is fixed by every automorphism, so it
        is a rational integer, nonzero because Q[q]/Phi_N is a field.
        """
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero cyclotomic number")
        n, num = self.order, self.num
        prod = [1] + [0] * (len(num) - 1)
        if any(num[1:]):
            for j in range(2, n):
                if gcd(j, n) == 1:
                    prod = _reduce(_int_mul(prod, _galois(num, j, n)), n)
        norm = _reduce(_int_mul(num, prod), n)
        if any(norm[1:]):
            raise ArithmeticError(f"norm of {self} is not rational")
        norm = norm[0]
        if norm < 0:
            norm, prod = -norm, [-c for c in prod]
        return _cyc(n, [c * self.den for c in prod], norm)

    def __truediv__(self, other):
        return self * self.coerce_other(other).inverse()

    def __rtruediv__(self, other):
        return self.coerce_other(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        return _power(self, n, CycNumber.one(self.order))

    def as_rational(self) -> Fraction:
        if any(self.num[1:]):
            raise ValueError(f"not rational: {self}")
        return Fraction(self.num[0], self.den)

    def __repr__(self):
        bits = []
        for e, c in enumerate(self.coeffs):
            if c:
                if e == 0:
                    bits.append(f"{c}")
                else:
                    var = "z" if e == 1 else f"z^{e}"
                    bits.append(var if c == 1 else f"{c}*{var}")
        return " + ".join(bits).replace("+ -", "- ") if bits else "0"

    def to_json(self):
        return {"order": self.order,
                "coeffs": [[c.numerator, c.denominator] for c in self.coeffs]}

    @staticmethod
    def from_json(data) -> "CycNumber":
        return CycNumber(index(data["order"]),
                         [Fraction(index(n), index(d)) for n, d in data["coeffs"]])


def _totient(n: int) -> int:
    out, m, p = n, n, 2
    while p * p <= m:
        if m % p == 0:
            while m % p == 0:
                m //= p
            out -= out // p
        p += 1
    if m > 1:
        out -= out // m
    return out


@lru_cache(maxsize=None)
def _orders_up_to_degree(d: int) -> tuple:
    """The N with deg Phi_N = phi(N) <= d.  Since phi(N) >= sqrt(N/2), every
    such N is at most 2 d^2."""
    return tuple(n for n in range(1, 2 * d * d + 1) if _totient(n) <= d)


def _phi_divides(p: LaurentPoly, n: int) -> bool:
    """Whether Phi_n divides p: fold exponents mod n, then take one remainder
    by the monic integer polynomial Phi_n."""
    return not any(_reduce(_fold(enumerate(p.num, p.low), n), n))


def cyclotomic_orders(p: LaurentPoly) -> frozenset:
    """The orders N for which Phi_N divides the nonzero Laurent polynomial p,
    i.e. for which p specializes to zero at a primitive N-th root of unity.
    """
    if p.is_zero():
        raise ValueError("the zero polynomial vanishes at every root of unity")
    return frozenset(n for n in _orders_up_to_degree(p.max_exp() - p.min_exp())
                     if _phi_divides(p, n))


def specialize(p, order: int) -> CycNumber:
    """Image of a LaurentPoly or RationalFunction under q -> primitive root of order N.

    Raises DenominatorVanishes when a RationalFunction denominator dies at the
    root (for quantum integers this happens exactly when N divides 2n).

    Only the reduced value's own denominator is looked at.  A value reduced
    from a clasp network can be finite at an order where a clasp it was built
    from has a pole, so the network itself is undefined there: theta(3,2,1)
    reduces to the Laurent polynomial -qdim(3,0), yet P_3 has a pole at
    order 16.  ``clasp.theta_at`` specializes theta networks only where
    their clasps exist.
    """
    if order < 1:
        raise ValueError("order must be positive")
    if isinstance(p, (int, Fraction)):
        return CycNumber(order, [p])
    if isinstance(p, LaurentPoly):
        return _cyc(order, _reduce(_fold(enumerate(p.num, p.low), order), order), p.den)
    if isinstance(p, RationalFunction):
        den = specialize(p.den, order)
        if den.is_zero():
            raise DenominatorVanishes(
                f"denominator {p.den!r} vanishes at a root of unity of order {order}")
        return specialize(p.num, order) / den
    raise TypeError(f"cannot specialize {type(p).__name__}")
