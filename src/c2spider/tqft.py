"""State spaces of surfaces and the torus mapping-class representation.

A closed surface of genus g bounds a handlebody whose spine is a trivalent
graph; admissible labelings of the spine's edges by level-k simple objects,
counted with the fusion multiplicity at each vertex, give the state space
dimension.  The Verlinde formula computes the same number from the S-matrix
and serves as the independent cross-check.

The torus is special: its spine is a bare circle, states are the simple
objects themselves, and the mapping-class action is generated by the exact
S and T matrices of ``cat.modular_data``.  The meridian operator is diagonal
with the fundamental character values, and any other curve operator is its
conjugate along a mapping class word; conjugation is checked in that
eigenbasis.  All matrices are exact cyclotomic matrices, kept unnormalized;
every statement checked downstream is conjugation- or phase-insensitive.
No inverse is formed: S~ is real and symmetric with S~ S~ = s_norm_sq * id,
and T is a diagonal of roots of unity, so a word M with #s letters 's' has
M^-1 = M+ / s_norm_sq^#s, and M+ is the matrix of the adjoint word: the
letters reversed, with the twist t and its inverse T swapped
(B. Bakalov and A. Kirillov, "Lectures on Tensor Categories and Modular
Functors", AMS 2001, ch. 3).  The same two facts reduce a word before
anything is multiplied: 'ss' is a scalar, and 'tT' and 'Tt' cancel.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations_with_replacement

from .cat import (ModularData, NonIntegerResult, classical_dim, fusion, modular_data,
                  simples, twist_exponent)
from .ring import CycNumber, cyc_matrix_dots


@dataclass(frozen=True)
class Spine:
    """Trivalent multigraph (loops and parallel edges allowed).  The torus
    spine is the vertexless circle, flagged separately since it has no
    trivalent structure."""
    n_vertices: int
    edges: tuple          # tuple of (u, v) pairs, u == v for loops
    circle: bool = False

    @staticmethod
    def theta_graph() -> "Spine":
        return Spine(2, ((0, 1), (0, 1), (0, 1)))

    def validate(self):
        if self.circle:
            if self.n_vertices or self.edges:
                raise ValueError("the circle spine has no vertices or edges")
            return
        if not self.n_vertices:
            raise ValueError("a spine without vertices is the circle: "
                             "set circle, or give trivalent vertices")
        if 2 * len(self.edges) != 3 * self.n_vertices:   # before sizing by n_vertices
            raise ValueError(f"a trivalent spine on {self.n_vertices} vertices has "
                             f"3n/2 edges, not {len(self.edges)}")
        deg = [0] * self.n_vertices
        for u, v in self.edges:
            if not (0 <= u < self.n_vertices and 0 <= v < self.n_vertices):
                raise ValueError(f"edge ({u},{v}) references a missing vertex")
            deg[u] += 1
            deg[v] += 1
        bad = [i for i, d in enumerate(deg) if d != 3]
        if bad:
            raise ValueError(f"vertices {bad} are not trivalent")
        if not self._connected():
            raise ValueError("spine must be connected")

    def _connected(self) -> bool:
        adj = {i: set() for i in range(self.n_vertices)}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        seen = {0}
        stack = [0]
        while stack:
            x = stack.pop()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        return len(seen) == self.n_vertices

    def genus(self) -> int:
        if self.circle:
            return 1
        return len(self.edges) - self.n_vertices + 1

    def vertex_edge_ends(self):
        """For each vertex, the incident edge indices with multiplicity
        (a loop appears twice)."""
        ends = [[] for _ in range(self.n_vertices)]
        for idx, (u, v) in enumerate(self.edges):
            ends[u].append(idx)
            ends[v].append(idx)
        return ends

    def to_json(self):
        out = {"schema": "c2spider/spine/1", "vertices": self.n_vertices,
               "edges": [list(e) for e in self.edges]}
        if self.circle:
            out["circle"] = True
        return out

    @staticmethod
    def from_json(data) -> "Spine":
        """The spine of a ``to_json`` record, validated.  A missing or
        malformed field raises ValueError naming it."""
        field = "vertices"
        try:
            n_vertices = int(data[field])
            field = "edges"
            edges = tuple((int(u), int(v)) for u, v in data[field])
            field = "circle"
            circle = bool(data.get(field, False))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ValueError(f"spine field {field!r} is missing or malformed "
                             f"({type(exc).__name__}: {exc})") from exc
        sp = Spine(n_vertices, edges, circle=circle)
        sp.validate()
        return sp


def statespace_dim(spine: Spine, k: int) -> int:
    """Number of admissible labelings, counted with the level-k Kac-Walton
    multiplicity at each vertex (the ``cat.fusion`` table that
    ``cat.triple_multiplicity`` reads), summed along a cut by the gluing
    axiom instead of listed one by one (Bakalov-Kirillov, ch. 5).

    Vertices are added one at a time, the next always one with the most
    edges in the cut, from the start that ``_gluing_order`` finds cheapest.
    ``states`` maps the labels of the cut edges, those with exactly one end
    added, to the summed product of the multiplicities so far.  Adding a
    vertex closes its cut edges by a table lookup and opens its new edges
    from that table's entries; a loop contributes sum_a N(a, a, c)."""
    spine.validate()
    objs = simples(k)
    if spine.circle:
        return len(objs)
    own = [sorted(e for e in ends if ends.count(e) == 1)     # a loop left out
           for ends in spine.vertex_edge_ends()]
    options = {}    # (loop?, closed labels) -> _vertex_options, this call only
    cut, states = [], {(): 1}
    for v in _gluing_order(own, len(objs)):
        loop = len(own[v]) == 1
        closing = [i for i, e in enumerate(cut) if e in own[v]]
        keep = [i for i, e in enumerate(cut) if e not in own[v]]
        new_states = defaultdict(int)
        for key, count in states.items():
            base = tuple([key[i] for i in keep])
            closed = tuple([key[i] for i in closing])
            opts = options.get((loop, closed))
            if opts is None:
                opts = options[loop, closed] = _vertex_options(loop, closed, k)
            for opened, mult in opts:
                new_states[base + opened] += count * mult
        cut = [cut[i] for i in keep] + [e for e in own[v] if e not in cut]
        states = new_states
    return states.get((), 0)


def _gluing_order(own: list, n_labels: int) -> list:
    """The order in which ``statespace_dim`` adds the vertices.  From each
    start, the next vertex is always one with the most edges in the cut (the
    lowest index among equals); of these orders, the one whose cuts can hold
    the fewest labelings, sum n_labels^|cut|, is kept.  The order decides
    the cost (a contraction-order problem: Gray-Kourtis, Quantum 5, 410,
    2021): on three random genus-5 spines at k = 3, adding the vertices in
    their given order took 0.17-6.3 s, and this order 0.004-0.014 s."""
    orders = []
    for start in range(len(own)):
        order, cut, cost = [start], set(own[start]), 0
        remaining = [v for v in range(len(own)) if v != start]
        while remaining:
            cost += n_labels ** len(cut)
            v = max(remaining, key=lambda u: len(cut.intersection(own[u])))
            remaining.remove(v)
            order.append(v)
            cut.symmetric_difference_update(own[v])
        orders.append((cost, order))
    return min(orders)[1]


def _vertex_options(loop: bool, closed: tuple, k: int) -> tuple:
    """The labels a vertex may give its new edges, with the multiplicity
    each completes, given the labels of its edges already in the cut."""
    table, loop_sums = _label_tables(k)
    if loop:
        if closed:
            m = loop_sums.get(closed[0], 0)
            return (((), m),) if m else ()
        return tuple(((c,), m) for c, m in loop_sums.items())
    if len(closed) == 3:
        m = table[closed[0]][closed[1]].get(closed[2], 0)
        return (((), m),) if m else ()
    if len(closed) == 2:
        return tuple(((c,), m) for c, m in table[closed[0]][closed[1]].items())
    labels = range(len(table))
    if closed:
        return tuple(((b, c), m) for b in labels
                     for c, m in table[closed[0]][b].items())
    return tuple(((a, b, c), m) for a in labels for b in labels
                 for c, m in table[a][b].items())


@lru_cache(maxsize=None)
def _label_tables(k: int) -> tuple:
    """The level-k ``cat.fusion`` table on the indices of ``simples(k)``,
    table[a][b] = {c: N(a, b, c)}, and c -> sum_a N(a, a, c), what a loop
    closes onto a label c.  table[a][b] and table[b][a] are one dict, read
    from one ``fusion`` call."""
    objs = simples(k)
    index = {w: i for i, w in enumerate(objs)}
    table = [[None] * len(objs) for _ in objs]
    for a, b in combinations_with_replacement(range(len(objs)), 2):
        # fusion is commutative, and it folds the weights of its first
        # argument: one call per unordered pair, the smaller irreducible first
        x, y = sorted((objs[a], objs[b]), key=classical_dim)
        table[a][b] = table[b][a] = {index[w]: m for w, m in fusion(x, y, level=k)}
    loop_sums = defaultdict(int)
    for a, row in enumerate(table):
        for c, m in row[a].items():
            loop_sums[c] += m
    return table, dict(loop_sums)


def verlinde_dim(genus: int, k: int) -> int:
    """Sum over simples of S_{0 lambda}^(2-2g), computed exactly from the
    unnormalized S-matrix."""
    if genus < 1:
        raise ValueError("genus must be at least 1")
    if genus == 1:
        return len(simples(k))
    md = modular_data(k)
    powers = sum((inv ** (2 * genus - 2) for inv in md.vacuum_inv), CycNumber.zero(md.order))
    r = (powers * md.s_norm_sq ** (genus - 1)).as_rational()
    if r.denominator != 1 or r < 0:
        raise NonIntegerResult(f"Verlinde dimension {r} is not a nonnegative integer")
    return int(r)


# -- exact matrices over a cyclotomic ring --------------------------------------


def mat_mul(a, b):
    """The exact product of two matrices of CycNumbers, by one packed kernel
    call (``ring.cyc_matrix_dots``)."""
    cols = list(zip(*b))
    width = len(cols)
    flat = cyc_matrix_dots(a, cols, [(i, j) for i in range(len(a)) for j in range(width)])
    return [flat[i * width:(i + 1) * width] for i in range(len(a))]


# -- the torus representation -----------------------------------------------------


_ADJOINT = {"s": "s", "t": "T", "T": "t"}


def adjoint(word) -> tuple:
    """The word of the adjoint matrix: the letters reversed, with t and T
    swapped.  S~ is real and symmetric, so S~+ = S~, and T+ = T-bar = T^-1."""
    return tuple(_ADJOINT[g] for g in reversed(word))


def _reduce_word(word, order: int):
    """(c, letters): the word as s_norm_sq^c times the product of ``letters``,
    each 's' or a twist power e with 0 < e < order, no two adjacent letters
    alike.  'ss' is the scalar, and a run of twists adds up its exponents
    mod order (t counts 1, T counts -1), so 'tT' and 'Tt' cancel; both
    reductions act at the end of the reduced prefix, as a stack."""
    out, squares = [], 0
    for g in word:
        if g == "s":
            if out and out[-1] == "s":
                out.pop()
                squares += 1
            else:
                out.append("s")
        elif g in ("t", "T"):
            e = 1 if g == "t" else -1
            if out and out[-1] != "s":
                e += out.pop()
            if e % order:
                out.append(e % order)
        else:
            raise ValueError(f"unknown torus generator {g!r}")
    return squares, out


def _twist_power(md: ModularData, e: int) -> list:
    """The diagonal of T^e as exponents: entry i is q^(result[i]), one per
    simple, reduced mod N."""
    return [e * twist_exponent(w) % md.order for w in md.simples]


def word_matrix(md: ModularData, word):
    """Exact unnormalized mapping-class action on the torus state space of a
    word in {'s', 't', 'T'}, read as a composition: the rightmost letter
    acts first.  's' is ``md.s_tilde``, 't' the Dehn twist about the
    meridian, the diagonal ``md.t_diag``, and 'T' its inverse, the diagonal
    of conjugates T-bar.

    The word is reduced before anything is multiplied (``_reduce_word``),
    and the result is still the exact dense product.  The reduction rests on
    two facts: S~ S~ = s_norm_sq * id, which ``cat.modular_data`` checks
    exactly (S~ is real and symmetric), and T T-bar = id, since T is a
    diagonal of N-th roots of unity (Bakalov-Kirillov, ch. 3); so T^N = id,
    and twist exponents add up mod N.  No two 's' of the reduced word are
    adjacent, so every ``mat_mul`` has S~ and a dense matrix as operands; a
    twist power between them scales columns, and one before the first 's'
    scales rows.  An entry scaled by a root power q^e is shifted, not
    multiplied (``CycNumber.times_root``); the scalar split off multiplies
    every entry.

    Both generators are defined up to a global scalar (the framing phase of
    the twist is tracked projectively, not normalized away), so only
    conjugation-invariant or projective statements are meaningful.  No
    inverse is formed: a word M with #s letters 's' has
    M M+ = md.s_norm_sq^#s * id, and M+ is the matrix of ``adjoint(word)``."""
    squares, letters = _reduce_word(word, md.order)
    n = len(md.simples)
    lead = [0] * n      # the twist exponents that scale the rows
    m = None
    for g in letters:
        if g == "s":
            m = md.s_tilde if m is None else mat_mul(m, md.s_tilde)
        elif m is None:
            lead = _twist_power(md, g)
        else:
            diag = _twist_power(md, g)
            m = [[x.times_root(e) for x, e in zip(row, diag)] for row in m]
    scale = md.s_norm_sq ** squares
    if m is None:
        zero = CycNumber.zero(md.order)
        return [[scale.times_root(e) if i == j else zero for j in range(n)]
                for i, e in enumerate(lead)]
    if letters[0] != "s":
        m = [[x.times_root(e) for x in row] for e, row in zip(lead, m)]
    if squares:
        m = [[x * scale for x in row] for row in m]
    return m


def normalize_curve(p: int, q: int):
    from math import gcd
    if p == 0 and q == 0:
        raise ValueError("the zero class is not a curve")
    g = gcd(abs(p), abs(q))
    p, q = p // g, q // g
    if p < 0 or (p == 0 and q < 0):
        p, q = -p, -q
    return (p, q)


MERIDIAN = (1, 0)


def act_on_curve(word, curve):
    """Action of a word in {'s', 't', 'T'} on an unoriented primitive class:
    t is the twist about the meridian (p,q) -> (p+q, q), T its inverse
    (p,q) -> (p-q, q); s maps (p,q) -> (-q, p)."""
    p, q = curve
    for g in reversed(word):
        if g == "t":
            p, q = p + q, q
        elif g == "T":
            p, q = p - q, q
        elif g == "s":
            p, q = -q, p
        else:
            raise ValueError(f"unknown torus generator {g!r}")
    return normalize_curve(p, q)


@lru_cache(maxsize=None)
def _word_reaching(curve):
    """Shortest word in {'s', 't'} mapping the meridian to the class (p, q)
    through classes that all lie in the box max(|p'|, |q'|) <= max(|p|, |q|),
    found by a breadth-first search of that finite box.

    The box holds such a word, by induction on |p| + |q|.  The meridian
    (1, 0) needs none and (0, 1) = s(1, 0).  Write a = |p| and b = |q|;
    every other class is the image of a class with smaller |p| + |q|: if
    pq > 0 and a >= b, then (a, b) = t(a - b, b); if pq > 0 and a < b, then
    (a, b) = tst(a, b - a); and if pq < 0, then (a, -b) = s(b, a), one of
    the two cases before.  No class on these ways has a coordinate above
    max(a, b)."""
    curve = normalize_curve(*curve)
    bound = max(map(abs, curve))
    frontier = {MERIDIAN: ()}
    seen = dict(frontier)
    while frontier and curve not in seen:
        nxt = {}
        for cls, word in frontier.items():
            for g in ("s", "t"):
                new = act_on_curve((g,), cls)
                if new not in seen and max(map(abs, new)) <= bound:
                    # prepend: the new word acts after the old one
                    nxt[new] = (g,) + word
        seen.update(nxt)
        frontier = nxt
    return seen[curve]


def _meridian_eigenvalues(md: ModularData) -> list:
    """The fundamental character values S~_{(1,0) lambda} / S~_{(0,0) lambda}."""
    row = md.s_tilde[md.index((1, 0))]
    return [x * inv for x, inv in zip(row, md.vacuum_inv)]


def conjugation_identity_holds(word, curve, k: int) -> bool:
    """Check V_h C(gamma) V_h^-1 = C(h(gamma)) exactly, in the meridian
    eigenbasis: C(gamma) = W D W^-1 with W the matrix of the word reaching
    gamma and D the meridian eigenvalues d_i, and W^-1 is W+ up to a nonzero
    scalar, so the identity holds iff X = W_{h gamma}+ V_h W_gamma has
    X_ij = 0 wherever d_i != d_j.  X is the matrix of one word,
    adjoint(target) + word + reach, which ``word_matrix`` reduces before it
    multiplies: target and word + reach both carry the meridian to
    h(gamma), so they often begin alike, and those letters cancel."""
    md = modular_data(k)
    curve = normalize_curve(*curve)
    target = _word_reaching(act_on_curve(word, curve))
    x = word_matrix(md, adjoint(target) + tuple(word) + _word_reaching(curve))
    return all(x[i][j].is_zero() for i, j in _distinct_eigenvalue_pairs(k))


@lru_cache(maxsize=None)
def _distinct_eigenvalue_pairs(k: int) -> tuple:
    """The (i, j) with d_i != d_j, d the meridian eigenvalues at level k."""
    d = _meridian_eigenvalues(modular_data(k))
    return tuple((i, j) for i, di in enumerate(d) for j, dj in enumerate(d) if di != dj)
