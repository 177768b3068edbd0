"""Algebraic data of the rank-2 symplectic category and its level-k quotient.

Weights: a dominant weight is a pair ``(a, b)`` of nonnegative integers, a
counting single strands and b double strands.  In orthogonal coordinates the
weight reads (a+b, b); the inner product is Euclidean with short roots of
squared length 2, fixed once here and used for quantum dimensions, twists and
the S-matrix alike.

At level k the simple objects are the (a, b) with a + b <= k and the
deformation parameter is a primitive root of unity of order N = 4k + 12.

Quantum dimensions come from the Weyl character formula; they serve as the
independent oracle against which the diagram engine's loop and trace values
are checked.  Fusion is computed classically (Racah-Speiser folding over the
weight system) and pushed to level k by the affine Kac-Walton folding.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .ring import (CycNumber, LaurentPoly, RationalFunction, TripleSums, cyc_matrix_dots,
                   qint, specialize)


class NotSimpleAtLevel(ValueError):
    """A weight outside the level-k alcove was used where a simple is needed."""


class NonIntegerResult(ArithmeticError):
    """An exact computation that must produce an integer failed to."""


Weight = tuple  # (a, b), both nonnegative

RHO = (2, 1)  # in orthogonal coordinates
POSITIVE_ROOTS = ((1, -1), (1, 1), (2, 0), (0, 2))
SIMPLE_ROOTS_FW = ((2, -1), (-2, 2))  # alpha_1, alpha_2 in (a, b) coordinates


def check_weight(w) -> Weight:
    a, b = w
    if a < 0 or b < 0:
        raise ValueError(f"weight components must be nonnegative, got {w}")
    if a != int(a) or b != int(b):
        raise ValueError(f"weight components must be integers, got {w}")
    return (int(a), int(b))


def eps(w) -> tuple:
    """Orthogonal coordinates of a weight given in (a, b) form."""
    a, b = w
    return (a + b, b)


def ip(u, v) -> int:
    return u[0] * v[0] + u[1] * v[1]


def q_order(k: int) -> int:
    return 4 * k + 12


def simples(k: int) -> list:
    """Simple objects at level k, in graded lexicographic order."""
    if k < 0:
        raise ValueError("level must be nonnegative")
    out = [(a, b) for a in range(k + 1) for b in range(k + 1 - a)]
    out.sort(key=lambda w: (w[0] + w[1], -w[0]))
    return out


def is_simple_at(w, k: int) -> bool:
    a, b = w
    return a >= 0 and b >= 0 and a + b <= k


def classical_dim(w) -> int:
    a, b = check_weight(w)
    num = (a + 1) * (a + 2 * b + 3) * (2 * b + 2) * (2 * a + 2 * b + 4)
    return num // (1 * 3 * 2 * 4)


def qdim(w) -> RationalFunction:
    """Quantum Weyl dimension: product of [<lambda+rho, alpha>]/[<rho, alpha>]
    over the four positive roots.  Always reduces to a Laurent polynomial."""
    a, b = check_weight(w)
    lam_rho = (a + b + 2, b + 1)
    num = LaurentPoly.one()
    den = LaurentPoly.one()
    for alpha in POSITIVE_ROOTS:
        num = num * qint(ip(lam_rho, alpha))
        den = den * qint(ip(RHO, alpha))
    return RationalFunction(num, den)


def qdim_at(w, order: int) -> CycNumber:
    return specialize(qdim(w), order)


# -- weight systems (Freudenthal) -------------------------------------------


def _dominant_fold(x):
    """Weyl-fold an orthogonal-coordinate vector to the dominant cone
    x0 >= x1 >= 0; returns (folded, det) with det = 0 on walls."""
    x0, x1 = x
    sign = 1
    if x0 < 0:
        x0, sign = -x0, -sign
    if x1 < 0:
        x1, sign = -x1, -sign
    if x0 < x1:
        x0, x1, sign = x1, x0, -sign
    return (x0, x1), sign


def _strict_fold(x):
    """Fold to the open chamber x0 > x1 > 0; det = 0 if x lies on a wall."""
    (x0, x1), sign = _dominant_fold(x)
    if x1 == 0 or x0 == x1:
        return None, 0
    return (x0, x1), sign


_WEYL = []
for s0 in (1, -1):
    for s1 in (1, -1):
        _WEYL.append((False, s0, s1, s0 * s1))      # (x, y) -> (s0 x, s1 y)
        _WEYL.append((True, s0, s1, -s0 * s1))      # (x, y) -> (s0 y, s1 x)


def _weyl_apply(elem, v):
    swap, s0, s1, _ = elem
    x, y = (v[1], v[0]) if swap else v
    return (s0 * x, s1 * y)


@lru_cache(maxsize=None)
def weight_multiplicities(w) -> dict:
    """Weight system of the irreducible with highest weight w: a map from
    orthogonal-coordinate weights to multiplicities (Freudenthal)."""
    a, b = check_weight(w)
    lam = eps((a, b))
    lam_rho = (lam[0] + RHO[0], lam[1] + RHO[1])
    norm_top = ip(lam_rho, lam_rho)
    alpha1, alpha2 = (1, -1), (0, 2)
    max_steps = 2 * (a + b) + 3
    # dominant candidates lambda - i alpha1 - j alpha2, ordered by depth i+j
    candidates = []
    for i in range(2 * max_steps + 1):
        for j in range(2 * max_steps + 1):
            mu = (lam[0] - i * alpha1[0] - j * alpha2[0],
                  lam[1] - i * alpha1[1] - j * alpha2[1])
            if mu != lam and mu[0] >= mu[1] >= 0:
                candidates.append((i + j, mu))
    candidates.sort()
    mult = {lam: 1}

    def get(mu):
        dom, _ = _dominant_fold(mu)
        return mult.get(dom, 0)

    for _, dom in candidates:
        if dom in mult:
            continue
        mu_rho = (dom[0] + RHO[0], dom[1] + RHO[1])
        denom = norm_top - ip(mu_rho, mu_rho)
        if denom <= 0:
            continue
        total = 0
        for alpha in POSITIVE_ROOTS:
            for t in range(1, 4 * (a + b) + 9):
                shifted = (dom[0] + t * alpha[0], dom[1] + t * alpha[1])
                m_s = get(shifted)
                if m_s == 0 and ip(shifted, shifted) > norm_top:
                    break
                total += 2 * m_s * ip(shifted, alpha)
        if total:
            val, rem = divmod(total, denom)
            if rem:
                raise NonIntegerResult("Freudenthal recursion gave a fraction")
            if val:
                mult[dom] = val
    # expand to the full Weyl orbits
    full = {}
    for dom, m in mult.items():
        for elem in _WEYL:
            full[_weyl_apply(elem, dom)] = m
    if sum(full.values()) != classical_dim((a, b)):
        raise NonIntegerResult(
            f"weight system of {(a, b)} sums to {sum(full.values())}, "
            f"expected {classical_dim((a, b))}")
    return full


# -- fusion -------------------------------------------------------------------


def _affine_fold(x, level_wall):
    """Fold an orthogonal-coordinate shifted weight into the open affine
    alcove x0 < wall (on top of the finite chamber); det = 0 on walls."""
    sign = 1
    for _ in range(64):
        y, s = _strict_fold(x)
        if s == 0:
            return None, 0
        x, sign = y, sign * s
        if x[0] < level_wall:
            return x, sign
        if x[0] == level_wall:
            return None, 0
        x = (2 * level_wall - x[0], x[1])
        sign = -sign
    raise RuntimeError("affine folding failed to terminate")


@lru_cache(maxsize=None)
def fusion(lam, mu, level=None) -> tuple:
    """Tensor (level None) or fused (level k) decomposition of two simples.

    Returns a tuple of ((a, b), multiplicity) pairs, sorted.  Uses the
    Racah-Speiser rule: fold mu + rho + (weights of V_lam) by the (affine)
    Weyl group with signs.
    """
    lam = check_weight(lam)
    mu = check_weight(mu)
    if level is not None:
        if not is_simple_at(lam, level) or not is_simple_at(mu, level):
            raise NotSimpleAtLevel(f"{lam} or {mu} is not simple at level {level}")
    mu_rho = (eps(mu)[0] + RHO[0], eps(mu)[1] + RHO[1])
    out = {}
    for nu, m in weight_multiplicities(lam).items():
        x = (mu_rho[0] + nu[0], mu_rho[1] + nu[1])
        if level is None:
            y, s = _strict_fold(x)
        else:
            y, s = _affine_fold(x, level + 3)
        if s == 0:
            continue
        # convert back: y = eps(target) + rho
        a_plus_b, b = y[0] - RHO[0], y[1] - RHO[1]
        target = (a_plus_b - b, b)
        if target[0] < 0 or target[1] < 0:
            raise NonIntegerResult(f"folding produced invalid weight {target}")
        out[target] = out.get(target, 0) + s * m
    for w, m in list(out.items()):
        if m == 0:
            del out[w]
        elif m < 0:
            raise NonIntegerResult(f"negative fusion multiplicity at {w}")
    return tuple(sorted(out.items()))


def fusion_dict(lam, mu, level=None) -> dict:
    return dict(fusion(lam, mu, level))


def triple_multiplicity(lam, mu, nu, level=None) -> int:
    """Dimension of the invariant space of lam (x) mu (x) nu (all self-dual),
    generic or at a level by Kac-Walton fusion: the vertex-space oracle, asked
    by certificates; ``tqft.statespace_dim`` reads the same ``fusion`` table."""
    return fusion_dict(lam, mu, level).get(check_weight(nu), 0)


def identity_tangle_decomposition(a: int, b: int, level=None) -> dict:
    """Clasp weights (with multiplicities) in the factorization of the
    identity on a single strands and b double strands."""
    out = {(0, 0): 1}
    for step in ["V"] * a + ["W"] * b:
        gen = (1, 0) if step == "V" else (0, 1)
        nxt = {}
        for w, m in out.items():
            for w2, m2 in fusion(w, gen, level):
                nxt[w2] = nxt.get(w2, 0) + m * m2
        out = nxt
    return dict(sorted(out.items()))


# -- modular data ---------------------------------------------------------------


def twist_exponent(w) -> int:
    """<lambda, lambda + 2 rho> in the fixed normalization."""
    lam = eps(check_weight(w))
    return ip(lam, (lam[0] + 2 * RHO[0], lam[1] + 2 * RHO[1]))


@dataclass
class ModularData:
    """Level-k modular data (Bakalov-Kirillov, ch. 3).  S~ is real and
    symmetric, since every simple of sp(4) is self-dual (see
    ``modular_data``), so S~ is its own conjugate and its own transpose.

    What the Verlinde formula reads is built once per instance, on first
    use, and kept as cached properties (not fields, so a copy or a
    comparison ignores them): the position of each simple, the inverses of
    the vacuum row and one integer packing of the rows of S~ with the
    Verlinde weights."""
    level: int
    order: int
    simples: list
    s_tilde: list        # unnormalized S matrix, CycNumber entries
    t_diag: list         # twist eigenvalues theta_lambda
    omega: list          # Kirby weights: quantum dimensions at the root
    s_norm_sq: CycNumber  # the scalar with S~ S~ = s_norm_sq * id

    def index(self, w) -> int:
        """The position of the simple w in ``simples``: one dict lookup, and
        the weight is checked only when the lookup misses."""
        pos = self._positions.get(tuple(w))
        if pos is None:
            w = check_weight(w)
            raise NotSimpleAtLevel(f"{w} is not simple at level {self.level}")
        return pos

    @cached_property
    def _positions(self) -> dict:
        return {w: i for i, w in enumerate(self.simples)}

    @cached_property
    def vacuum_inv(self) -> list:
        """The inverses 1 / S~[0][s] of the vacuum row, computed once."""
        row = self.s_tilde[0]
        if any(x.is_zero() for x in row):
            raise NonIntegerResult("vanishing vacuum column in the S-matrix")
        return [x.inverse() for x in row]

    @cached_property
    def verlinde_packing(self) -> TripleSums:
        """The Verlinde sums N(i, j, l) = sum over s of S~[i][s] S~[j][s]
        S~[l][s] vacuum_inv[s] / s_norm_sq (S~ is real, so the conjugate of
        S~[l][s] is itself), packed once: the rows of S~ and the weights
        vacuum_inv[s] / s_norm_sq (``ring.TripleSums``)."""
        scale = self.s_norm_sq.inverse()
        return TripleSums(self.s_tilde, [inv * scale for inv in self.vacuum_inv])


@lru_cache(maxsize=None)
def modular_data(k: int) -> ModularData:
    """S~, T and the Kirby weights at level k, with S~ S~ = s_norm_sq * id
    checked exactly.

    S~_{lam mu} = sum over w in W(C2) of det(w) q^(-2 <w(lam+rho), mu+rho>)
    is built from its exponents: the 8 of each entry are folded mod N into
    one integer list, which is reduced once by Phi_N
    (``CycNumber.root_sum``).  S~ is real and symmetric:
    - -1 is in W(C2) with det +1, so the terms pair off as q^x + q^-x, and
      q^-x is the conjugate of q^x at a root of unity;
    - <wu, v> = <u, w^-1 v> and det(w^-1) = det(w), so summing over w^-1
      in place of w swaps lam and mu.
    Hence S~ S~+ = S~ S~^T, whose (i, j) entry is the product of rows i and
    j; it is symmetric in i and j, so the rows are multiplied for i <= j
    only (``_gram_scalar``).  All n^2 entries of S~ are computed, so tests
    can check both properties on them, and the Galois symmetry as well:
    q -> q^l maps S~_{lam mu} to det S~_{pi(lam) mu}, where the affine Weyl
    group folds l(lam + rho) to pi(lam) + rho with sign det (Coste-Gannon,
    Phys. Lett. B 323, 1994)."""
    if k < 1:
        raise ValueError("level must be at least 1")
    n = q_order(k)
    objs = simples(k)
    rho_shift = [(eps(w)[0] + RHO[0], eps(w)[1] + RHO[1]) for w in objs]
    s_tilde = []
    for u in rho_shift:
        images = [(_weyl_apply(elem, u), elem[3]) for elem in _WEYL]
        s_tilde.append([CycNumber.root_sum(n, [(-2 * ip(wu, v), sign) for wu, sign in images])
                        for v in rho_shift])
    t_diag = [CycNumber.root_power(n, twist_exponent(w)) for w in objs]
    s00 = s_tilde[0][0]
    if s00.is_zero():
        raise NonIntegerResult("vacuum S-matrix entry vanishes")
    inv00 = s00.inverse()
    omega = [x * inv00 for x in s_tilde[0]]
    return ModularData(level=k, order=n, simples=objs, s_tilde=s_tilde,
                       t_diag=t_diag, omega=omega, s_norm_sq=_gram_scalar(s_tilde))


def _gram_scalar(s) -> CycNumber:
    """The scalar c with s s^T = c * id, from the row products for i <= j
    in one packed kernel call (``ring.cyc_matrix_dots``); NonIntegerResult
    if s s^T is not scalar.  The kernel is exact, not probabilistic: its
    packing width exceeds n phi(N) max|s|^2, a bound on every coefficient
    of an unreduced row product, so a nonzero entry cannot read as zero."""
    pairs = [(i, j) for i in range(len(s)) for j in range(i, len(s))]
    dots = cyc_matrix_dots(s, s, pairs)
    norm = dots[0]
    for (i, j), dot in zip(pairs, dots):
        if i == j and dot != norm:
            raise NonIntegerResult("S~ S~^T is not a scalar matrix")
        if i != j and not dot.is_zero():
            raise NonIntegerResult("S~ rows are not orthogonal")
    return norm


def verlinde_multiplicity(md: ModularData, lam, mu, nu) -> int:
    """Fusion multiplicity from the Verlinde formula, exactly: one sum of
    the Verlinde packing of ``md``, n products of three packed integers."""
    acc = md.verlinde_packing.at(md.index(lam), md.index(mu), md.index(nu))
    if acc.den != 1 or any(acc.num[1:]) or acc.num[0] < 0:
        raise NonIntegerResult(f"Verlinde number {acc} is not a nonnegative integer")
    return acc.num[0]
