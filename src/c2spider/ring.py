"""Exact coefficient arithmetic for the skein engine.

Three scalar domains, all exact (no floating point):

* ``LaurentPoly`` -- Laurent polynomials in one variable q with rational
  coefficients, the generic ground ring of the diagram calculus.
* ``RationalFunction`` -- quotients of Laurent polynomials, needed because
  projector coefficients divide by quantum integers.  Kept in a canonical
  reduced form so equality is a dictionary comparison.
* ``CycNumber`` -- the image of the above under q -> primitive N-th root of
  unity: a residue modulo the N-th cyclotomic polynomial Phi_N, stored as an
  integer coefficient vector over one positive integer denominator in lowest
  terms.  Phi_N is monic with integer coefficients, so products reduce
  without leaving the integers, and inverses come from the Galois conjugates
  q -> q^j (gcd(j, N) = 1) and their product, the norm, a rational integer.

Quantum integers use the symmetric convention [n] = (q^n - q^-n)/(q - q^-1),
so [n] specializes to zero at a root of unity of order N exactly when N | 2n.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import gcd, lcm


class DenominatorVanishes(ArithmeticError):
    """A denominator specializes to zero at the requested root of unity."""


class OrderMismatch(ValueError):
    """Arithmetic between cyclotomic numbers of different orders."""


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


class LaurentPoly:
    """Laurent polynomial in q over the rationals.

    Stored as a map exponent -> nonzero Fraction.  Instances are immutable;
    all operations return new objects.
    """

    __slots__ = ("terms", "_hash")

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for e, c in (terms.items() if isinstance(terms, dict) else terms):
                c = _as_fraction(c)
                if c:
                    acc = clean.get(e)
                    c = c if acc is None else acc + c
                    if c:
                        clean[int(e)] = c
                    else:
                        clean.pop(int(e), None)
        self.terms = clean
        self._hash = None

    # -- constructors -------------------------------------------------

    @staticmethod
    def zero() -> "LaurentPoly":
        return LaurentPoly()

    @staticmethod
    def one() -> "LaurentPoly":
        return LaurentPoly({0: 1})

    @staticmethod
    def const(c) -> "LaurentPoly":
        return LaurentPoly({0: _as_fraction(c)})

    @staticmethod
    def q_power(n: int) -> "LaurentPoly":
        return LaurentPoly({n: 1})

    @staticmethod
    def coerce(x) -> "LaurentPoly":
        if isinstance(x, LaurentPoly):
            return x
        if isinstance(x, (int, Fraction)):
            return LaurentPoly.const(x)
        raise TypeError(f"cannot coerce {type(x).__name__} to LaurentPoly")

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def min_exp(self) -> int:
        return min(self.terms)

    def max_exp(self) -> int:
        return max(self.terms)

    def bar(self) -> "LaurentPoly":
        """The involution q -> q^-1."""
        return LaurentPoly({-e: c for e, c in self.terms.items()})

    def eval_at_one(self) -> Fraction:
        return sum(self.terms.values(), Fraction(0))

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if isinstance(other, RationalFunction):
            return RationalFunction.from_poly(self) == other
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(tuple(sorted(self.terms.items())))
        return self._hash

    def __bool__(self):
        return bool(self.terms)

    # -- ring operations ----------------------------------------------

    def __add__(self, other):
        if isinstance(other, RationalFunction):
            return RationalFunction.from_poly(self) + other
        other = LaurentPoly.coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            s = out.get(e, Fraction(0)) + c
            if s:
                out[e] = s
            else:
                out.pop(e, None)
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms, r._hash = out, None
        return r

    __radd__ = __add__

    def __neg__(self):
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms = {e: -c for e, c in self.terms.items()}
        r._hash = None
        return r

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
        out = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = e1 + e2
                s = out.get(e, Fraction(0)) + c1 * c2
                if s:
                    out[e] = s
                else:
                    out.pop(e, None)
        r = LaurentPoly.__new__(LaurentPoly)
        r.terms, r._hash = out, None
        return r

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            return RationalFunction.from_poly(self) ** n
        out = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __truediv__(self, other):
        return RationalFunction.from_poly(self) / other

    def __rtruediv__(self, other):
        return RationalFunction.coerce(other) / RationalFunction.from_poly(self)

    # -- display / serialization ---------------------------------------

    def __repr__(self):
        if not self.terms:
            return "0"
        bits = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
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
        """List of [exponent, numerator, denominator] triples, sorted."""
        return [[e, self.terms[e].numerator, self.terms[e].denominator]
                for e in sorted(self.terms)]

    @staticmethod
    def from_json(data) -> "LaurentPoly":
        return LaurentPoly({int(e): Fraction(int(n), int(d)) for e, n, d in data})


def qint(n: int) -> LaurentPoly:
    """Quantum integer [n] = q^(n-1) + q^(n-3) + ... + q^(1-n)."""
    if n == 0:
        return LaurentPoly.zero()
    if n < 0:
        return -qint(-n)
    return LaurentPoly({n - 1 - 2 * i: 1 for i in range(n)})


# integer-coefficient helpers (primitive pseudo-remainder sequence); much
# faster than Fraction arithmetic for the gcd work in RationalFunction


def _int_content(p):
    g = 0
    for c in p:
        g = gcd(g, abs(c))
        if g == 1:
            return 1
    return g or 1


def _int_primitive(p):
    g = _int_content(p)
    if g > 1:
        p = [c // g for c in p]
    if p and p[-1] < 0:
        p = [-c for c in p]
    return p


def _int_prem(a, b):
    """Pseudo-remainder of integer polynomials (lc(b)^k * a mod b)."""
    a = list(a)
    db, lb = len(b) - 1, b[-1]
    while len(a) - 1 >= db and any(a):
        if not a[-1]:
            a.pop()
            continue
        la = a[-1]
        shift = len(a) - 1 - db
        a = [c * lb for c in a]
        for i, c in enumerate(b):
            a[i + shift] -= la * c
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


def _int_div_exact(a, b):
    """Exact division of integer polynomials (b must divide a)."""
    a = list(a)
    q = [0] * (len(a) - len(b) + 1)
    lb = b[-1]
    for i in range(len(a) - len(b), -1, -1):
        c, rem = divmod(a[i + len(b) - 1], lb)
        if rem:
            raise ArithmeticError("inexact polynomial division")
        if c:
            q[i] = c
            for j, y in enumerate(b):
                a[i + j] -= c * y
    if any(a):
        raise ArithmeticError("inexact polynomial division")
    return q


def _to_int_poly(p):
    """Fraction-coefficient list -> (integer list, common denominator)."""
    denom = 1
    for c in p:
        d = c.denominator
        if d != 1:
            denom = denom // gcd(denom, d) * d
    return [int(c * denom) for c in p], denom


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


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple:
    """Coefficients (low first, exact integers) of the n-th cyclotomic polynomial."""
    return tuple(Fraction(c) for c in _cyclotomic_int(n))


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


def _mulmod(a, b, n: int) -> list:
    """Product of two residues modulo Phi_n."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return _reduce(out, n)


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


def _fold(p: LaurentPoly, n: int):
    """p with exponents folded mod n (q^n = 1 modulo Phi_n): an integer list
    of length n and one common denominator."""
    den = lcm(1, *(c.denominator for c in p.terms.values()))
    vec = [0] * n
    for e, c in p.terms.items():
        vec[e % n] += c.numerator * (den // c.denominator)
    return vec, den


class RationalFunction:
    """Quotient of Laurent polynomials in canonical reduced form.

    Canonical form: numerator/denominator share no polynomial factor, the
    denominator is an ordinary polynomial in q with nonzero constant term
    whose lowest-exponent coefficient is positive.
    """

    __slots__ = ("num", "den", "_hash")

    def __init__(self, num: LaurentPoly, den: LaurentPoly):
        if den.is_zero():
            raise ZeroDivisionError("rational function with zero denominator")
        if num.is_zero():
            self.num, self.den = LaurentPoly.zero(), LaurentPoly.one()
            self._hash = None
            return
        if den.terms == {0: 1}:
            self.num, self.den = num, den
            self._hash = None
            return
        # shift both into ordinary polynomials, tracking the net q-power
        sn, sd = num.min_exp(), den.min_exp()
        pn = [Fraction(0)] * (num.max_exp() - sn + 1)
        for e, c in num.terms.items():
            pn[e - sn] = c
        pd = [Fraction(0)] * (den.max_exp() - sd + 1)
        for e, c in den.terms.items():
            pd[e - sd] = c
        # integer gcd (primitive pseudo-remainders), then one exact division
        ipn, dn = _to_int_poly(pn)
        ipd, dd = _to_int_poly(pd)
        g = _int_gcd_poly(ipn, ipd)
        if len(g) > 1:
            ipn = _int_div_exact(ipn, g)
            ipd = _int_div_exact(ipd, g)
        # normalize: denominator constant term scaled to 1
        scale = Fraction(dd, dn) / Fraction(ipd[0])
        shift = sn - sd
        self.num = LaurentPoly({i + shift: Fraction(c) * scale
                                for i, c in enumerate(ipn) if c})
        self.den = LaurentPoly({i: Fraction(c, ipd[0])
                                for i, c in enumerate(ipd) if c})
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
        return self.den == LaurentPoly.one()

    def as_laurent(self) -> LaurentPoly:
        if not self.is_poly():
            raise ValueError(f"not a Laurent polynomial: {self}")
        return self.num

    def bar(self) -> "RationalFunction":
        return RationalFunction(self.num.bar(), self.den.bar())

    def __eq__(self, other):
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = RationalFunction.coerce(other)
        if not isinstance(other, RationalFunction):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.num, self.den))
        return self._hash

    def __bool__(self):
        return not self.is_zero()

    def __add__(self, other):
        other = RationalFunction.coerce(other)
        if self.den == other.den:
            return RationalFunction(self.num + other.num, self.den)
        return RationalFunction(self.num * other.den + other.num * self.den,
                                self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        out = RationalFunction.__new__(RationalFunction)
        out.num, out.den, out._hash = -self.num, self.den, None
        return out

    def __sub__(self, other):
        return self + (-RationalFunction.coerce(other))

    def __rsub__(self, other):
        return RationalFunction.coerce(other) - self

    def __mul__(self, other):
        other = RationalFunction.coerce(other)
        if self.den.terms == {0: 1} and other.den.terms == {0: 1}:
            out = RationalFunction.__new__(RationalFunction)
            out.num, out.den, out._hash = self.num * other.num, self.den, None
            return out
        return RationalFunction(self.num * other.num, self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = RationalFunction.coerce(other)
        if other.is_zero():
            raise ZeroDivisionError("division by zero rational function")
        return RationalFunction(self.num * other.den, self.den * other.num)

    def __rtruediv__(self, other):
        return RationalFunction.coerce(other) / self

    def __pow__(self, n: int):
        if n < 0:
            return RationalFunction.coerce(1) / (self ** (-n))
        out = RationalFunction.coerce(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

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
        cs = [_as_fraction(c) for c in coeffs]
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
        return _cyc(self.order, _mulmod(self.num, other.num, self.order),
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
                    prod = _mulmod(prod, _galois(num, j, n), n)
        norm = _mulmod(num, prod, n)
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
        out = CycNumber.one(self.order)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conj(self) -> "CycNumber":
        """Galois conjugation q -> q^-1 (complex conjugation on any embedding).
        Automorphisms map Z[q]/Phi_N onto itself, so the content of num and
        hence the lowest terms are kept."""
        return _raw(self.order, tuple(_galois(self.num, -1, self.order)), self.den)

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
        return CycNumber(int(data["order"]),
                         [Fraction(int(n), int(d)) for n, d in data["coeffs"]])


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
    return not any(_reduce(_fold(p, n)[0], n))


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
        vec, den = _fold(p, order)
        return _cyc(order, _reduce(vec, order), den)
    if isinstance(p, RationalFunction):
        den = specialize(p.den, order)
        if den.is_zero():
            raise DenominatorVanishes(
                f"denominator {p.den!r} vanishes at a root of unity of order {order}")
        return specialize(p.num, order) / den
    raise TypeError(f"cannot specialize {type(p).__name__}")
