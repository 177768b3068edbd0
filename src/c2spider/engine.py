"""Reduction engine: rewrite webs to normal form using the relation table.

Reduction terminates by construction.  ``reduce_sum`` takes one rewrite at
a time, ``_local_step`` (a box rule or a smoothing) and, when that finds
nothing, a face rule, and each lowers (crossings, vertices)
lexicographically.  A smoothing removes one crossing and adds at most two
vertices.  A face rule fires only on an m-gon with m distinct trivalent
corners, and ``RuleTable`` refuses at construction any face rule with a
right-hand term of m or more vertices, so it lowers the vertex count.  The
box rules of ``_box_rule`` lower it too, or drop the term: a clasp box
(n, 0) kills a turnback on two adjacent legs, straightens a sideways bridge
standing on them and absorbs an equal box stacked on it.  Killing and
absorbing are axioms of the clasp; straightening holds because the square
relation is monic in the frozen table's normalization and its other terms
are turnbacks.  Neither adds a crossing.  Closed crossing-free webs always
contain a reducible face (a discrete Gauss-Bonnet count over the sphere
forces positive-curvature faces to exist); a table lacking the rule for one
raises ``NonTerminating``.

Closed webs are valued by ``eval_closed``, the one evaluator of closed
networks, with clasp boxes, crossings or both.  Its recursion terminates
too: each step lowers (crossings, box sizes, vertices) lexicographically.  A
smoothing removes a crossing.  A box step (``_expand_one_box``), taken on a
web without crossings, replaces a box on n strands by at most two boxes on
n-1 strands, so the multiset of box sizes decreases in the multiset order,
which is well-founded.  Face rules keep the boxes, box rules keep them or
remove one, and both lower the vertex count.  No step adds a crossing.

Equality of open webs is decided through the closed pairing
``<X, Y> = eval(plug(mirror(X), Y))``, a symmetric bilinear form.  It is not
positive definite.  At q = 1 it is semidefinite on the span of diagrams with
a given boundary, with a sign that depends on the boundary (positive for four
single points, negative for six), and its kernel there is the span of the
relations.  Definiteness up to that sign persists for real q near 1, and a
nonzero element of the skein module stays nonzero at all but finitely many
such q, so a linear combination vanishes in the skein module exactly when
its self-pairing is the zero rational function.

The self-pairing plugs each unordered pair of terms once.  That needs
eval(mirror(W)) == eval(W) for closed webs W: plug(mirror(b), a) is the
mirror image of plug(mirror(a), b), so <a, b> == <b, a>.  It holds because
``mirror`` reflects the plane and also swaps over and under at crossings,
which together are a half-turn of space about a line in the plane.
tests/test_web.py checks it on random closed webs and on braid closures.
"""

from __future__ import annotations

import functools
import operator

from .ring import RationalFunction, _sum_fractions, qint
from .rules import RuleTable, default_table
from .web import (Web, cap_web, clasp_box_web, compose, cup_web, id_web,
                  merge_vertex_web, mirror, plug, split_vertex_web, tensor)


class NonTerminating(RuntimeError):
    """A closed web has no reducible face: relation table incomplete."""


class UnsupportedCrossingType(ValueError):
    """Crossings are only defined between two single strands."""


_ONE = RationalFunction.coerce(1)
_ZERO = RationalFunction.coerce(0)


class WebSum:
    """Formal linear combination of webs with a common boundary word.

    Diagrams are keyed by canonical form, so equal diagrams merge and zero
    coefficients drop.
    """

    __slots__ = ("terms",)

    def __init__(self):
        self.terms = {}

    @staticmethod
    def from_web(w: Web, coeff=1) -> "WebSum":
        s = WebSum()
        s.add(RationalFunction.coerce(coeff), w)
        return s

    @staticmethod
    def zero() -> "WebSum":
        return WebSum()

    def add(self, coeff: RationalFunction, w: Web):
        key = w.canonical_key()
        if key in self.terms:
            c = self.terms[key][0] + coeff
            if c.is_zero():
                del self.terms[key]
            else:
                self.terms[key] = (c, self.terms[key][1])
        elif not coeff.is_zero():
            self.terms[key] = (coeff, w)

    def __iter__(self):
        for key in sorted(self.terms):
            yield self.terms[key]

    def __len__(self):
        return len(self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other: "WebSum") -> "WebSum":
        out = WebSum()
        out.terms = dict(self.terms)
        for c, w in other:
            out.add(c, w)
        return out

    def __sub__(self, other: "WebSum") -> "WebSum":
        return self + other.scale(-1)

    def scale(self, coeff) -> "WebSum":
        coeff = RationalFunction.coerce(coeff)
        out = WebSum()
        if coeff.is_zero():
            return out
        out.terms = {k: (c * coeff, w) for k, (c, w) in self.terms.items()}
        return out

    def map_webs(self, f) -> "WebSum":
        out = WebSum()
        for c, w in self:
            out.add(c, f(w))
        return out


def sum_compose(top: WebSum, bottom: WebSum) -> WebSum:
    out = WebSum()
    for c1, w1 in top:
        for c2, w2 in bottom:
            out.add(c1 * c2, compose(w1, w2))
    return out


def sum_mirror(x: WebSum) -> WebSum:
    # coefficients are kept verbatim: the pairing below is evaluated at real
    # q where they are their own conjugates
    return x.map_webs(mirror)


# --------------------------------------------------------------------------
# face matching and surgery


def _face_matches(web: Web, table: RuleTable):
    """All (n_sides, face_darts, rule, rotation) for reducible internal faces."""
    matches = []
    for orbit in web.faces():
        m = len(orbit)
        if m > table.max_face:
            continue
        verts = [web.dart_vertex[h] for h in orbit]
        if any(v is None or web.vkind[v] != "tri" for v in verts):
            continue
        if len(set(verts)) != m:
            continue
        if len({frozenset((h, web.pair[h])) for h in orbit}) != m:
            continue
        word = tuple(web.etype[h] for h in orbit)
        hit = None
        for rule in table.by_len.get(m, ()):
            for rot in range(m):
                if all(word[(rot + i) % m] == rule.word[i] for i in range(m)):
                    hit = (m, orbit, rule, rot)
                    break
            if hit:
                break
        if hit:
            matches.append(hit)
    return matches


def _splice(web: Web, dead_vertices, ports, rhs_terms):
    """Remove ``dead_vertices`` and glue each right-hand side into the cyclic
    ``ports`` (darts of the dead vertices whose far side either survives or
    loops back into another port).  Returns one web per rhs term; free loops
    created by the surgery stay recorded on the web.

    Every port has two hooks: OUT (whatever its edge reached outside the dead
    region) and IN (what the replacement attaches).  Strands through the
    surgery site alternate OUT-IN through ports; walking these chains yields
    the new pairing, and chains that never touch a surviving dart close into
    free loops.
    """
    dead_vertices = set(dead_vertices)
    dead_darts = set()
    for v in dead_vertices:
        dead_darts.update(web.vlegs[v])
    port_index = {d: j for j, d in enumerate(ports)}
    outside = []
    for d in ports:
        p = web.pair[d]
        if p in dead_darts:
            outside.append(("x", port_index[p]))
        else:
            outside.append(("D", p))
    port_type = [web.etype[d] for d in ports]

    base = web.copy()
    for v in dead_vertices:
        for d in web.vlegs[v]:
            p = base.pair.pop(d, None)
            if p is not None:
                base.pair.pop(p, None)
            del base.etype[d]
            del base.dart_vertex[d]
        del base.vkind[v], base.vextra[v], base.vlegs[v]

    results = []
    for verts, edges in rhs_terms:
        w2 = base.copy()
        new_darts = []
        for kind, types, extra in verts:
            _, darts = w2.add_vertex(kind, types, extra)
            new_darts.append(darts)

        def endpoint(end):
            if end[0] == "v":
                return ("D", new_darts[end[1]][end[2]])
            return ("x", end[1])

        inside = {}
        direct = []
        for ea, eb, ty in edges:
            a, b = endpoint(ea), endpoint(eb)
            for x, y in ((a, b), (b, a)):
                if x[0] == "x":
                    if x[1] in inside:
                        raise AssertionError("port referenced twice in rule")
                    inside[x[1]] = y
            if a[0] == "D" and b[0] == "D":
                direct.append((a[1], b[1]))
        if len(inside) != len(ports):
            raise AssertionError("rule must attach every port exactly once")

        for a, b in direct:
            w2.connect(a, b)

        def hook(j, side):
            return inside[j] if side == "in" else outside[j]

        visited = set()
        # dart-terminated chains first
        for j0 in range(len(ports)):
            for side0 in ("in", "out"):
                if (j0, side0) in visited or hook(j0, side0)[0] != "D":
                    continue
                start_dart = hook(j0, side0)[1]
                j, side = j0, side0
                while True:
                    visited.add((j, side))
                    side = "out" if side == "in" else "in"
                    visited.add((j, side))
                    link = hook(j, side)
                    if link[0] == "D":
                        w2.connect(start_dart, link[1])
                        break
                    j = link[1]
                # chain consumed
        # whatever remains closes into port-only cycles
        for j0 in range(len(ports)):
            for side0 in ("in", "out"):
                if (j0, side0) in visited:
                    continue
                j, side = j0, side0
                while (j, side) not in visited:
                    visited.add((j, side))
                    side = "out" if side == "in" else "in"
                    visited.add((j, side))
                    link = hook(j, side)
                    if link[0] != "x":
                        raise AssertionError("broken port cycle")
                    j = link[1]
                w2.add_free_loop(port_type[j0])
        results.append(w2)
    return results


def apply_face_rule(web: Web, face, rule, rot):
    """Apply one face rule; returns a list of (coefficient, web)."""
    m = len(face)
    corners = [web.dart_vertex[h] for h in face]
    exts = []
    for i in range(m):
        v = corners[i]
        entering = web.pair[face[i - 1]]
        leaving = face[i]
        ext = [d for d in web.vlegs[v] if d not in (entering, leaving)]
        if len(ext) != 1:
            raise AssertionError("face corner is not trivalent")
        exts.append(ext[0])
    ports = [exts[(rot + j) % m] for j in range(m)]
    out = []
    minis = [mini for _, mini in rule.rhs]
    webs = _splice(web, set(corners), ports, minis)
    for (coeff, _), w2 in zip(rule.rhs, webs):
        out.append((coeff, w2))
    return out


# --------------------------------------------------------------------------
# clasp boxes

# two ports joined straight across: x0 to x1 and x2 to x3
_STRAIGHT = ((), ((("x", 0), ("x", 1), "s"), (("x", 2), ("x", 3), "s")))


def _box_rule(web: Web, v):
    """The box axiom at clasp box ``v`` (n, 0): "dead" when two adjacent
    legs on one side meet a turnback (a cap or one trivalent vertex); else
    the ``_splice`` arguments that straighten a sideways double-edge bridge
    standing on two adjacent legs, or that absorb a box of the same weight
    stacked on v's outputs (the clasp is idempotent); else None."""
    n, = web.vextra[v]
    legs = web.vlegs[v]
    feet = []
    for side in (legs[:n], legs[n:]):
        ends = [web.pair[d] for d in side]
        for u1, u2 in zip(ends, ends[1:]):
            if web.pair[u1] == u2:
                return "dead"
            va, vb = web.dart_vertex[u1], web.dart_vertex[u2]
            if web.vkind.get(va) == web.vkind.get(vb) == "tri":
                if va == vb:
                    return "dead"
                feet.append((u1, u2, va, vb))
    for u1, u2, va, vb in feet:
        da = next(d for d in web.vlegs[va] if web.etype[d] == "d")
        if web.pair[da] in web.vlegs[vb]:
            sa, = (d for d in web.vlegs[va] if d not in (u1, da))
            sb, = (d for d in web.vlegs[vb] if d not in (u2, web.pair[da]))
            return {va, vb}, [u1, sa, u2, sb], [_STRAIGHT]
    target = web.dart_vertex[web.pair[legs[n]]] if n else None
    if target == v or web.vkind.get(target) != "clasp" or web.vextra[target] != (n,):
        return None
    tlegs = web.vlegs[target]
    # v's output j sits at legs[2n-1-j]; it must feed target's input j
    if any(web.pair[legs[2 * n - 1 - j]] != tlegs[j] for j in range(n)):
        return None
    return {target}, tlegs, [((), tuple((("x", j), ("x", 2 * n - 1 - j), "s")
                                        for j in range(n)))]


def _box_positions(web: Web):
    """The web's clasp boxes, lowest id first."""
    return sorted([v for v, kind in web.vkind.items() if kind == "clasp"])


def _local_step(web: Web, table: RuleTable):
    """One rewrite that needs no face, as (coefficient, web) pairs: [] when
    a box meets a turnback, checked at every box before anything is
    spliced; else the first box rewrite that pass found; else the three
    smoothings of ``resolve_crossings``; else None.  ``reduce_sum`` and
    ``_step`` share it, so the boxes are settled before each smoothing."""
    rewrite = None
    for v in _box_positions(web):
        rule = _box_rule(web, v)
        if rule == "dead":
            return []
        rewrite = rewrite or rule
    if rewrite is not None:
        return [(_ONE, _splice(web, *rewrite)[0])]
    return resolve_crossings(web, table) if web.has_kind("cross") else None


def recursion_coefficients(n: int):
    """The correction coefficients (c1, c2) in the two-term recursion for P_n,
    n >= 2, in closed form (see the ``clasp`` module docstring)."""
    if n < 2:
        raise ValueError("the recursion starts at two strands")
    c1 = RationalFunction(qint(n + 1) * qint(2 * n - 2),
                          qint(2) * qint(n) * qint(2 * n + 2))
    c2 = RationalFunction(qint(n - 1), qint(2) * qint(n))
    return c1, c2


def _strands(n):
    return id_web(["s"] * n)


@functools.cache
def _recursion_webs(n):
    """The recursion for P_n, n >= 2, at the level of boxes: the webs
    T0 = P_{n-1} (x) 1, T0 E T0 and T0 G T0 with coefficients 1, c1, c2,
    E the cap-cup and G the double-edge bridge on the last two strands.

    The only statement of the recursion.  Reduced webs are dependent, so
    the expansion order picks one of many equal sums, and the lower copy of
    P_{n-1} in a sandwich must go first: then P_4 has 110 terms and
    ``clasp.cap_at(4, 0)`` and ``clasp.merge_at(4, 0)`` on it reduce to no
    term, so no pairing runs; upper copy first, P_4 has 112 and those keep
    23 and 24 terms, and the clasp-cold benchmark takes 0.66 s, not 0.36 s,
    on a 2-core host.
    A sandwich is symmetric top to bottom, so its mirror is the same diagram
    with the lower copy the newer vertex, which ``_expand_one_box`` picks
    first among equal boxes.  Cached by n: it does not depend on the table.
    """
    t0 = tensor(clasp_box_web(n - 1), _strands(1)) if n > 2 else _strands(2)
    c1, c2 = recursion_coefficients(n)

    def sandwich(top, bottom):
        middle = tensor(_strands(n - 2), compose(top, bottom))
        return to_mini(mirror(compose(t0, compose(middle, t0))))

    return [(_ONE, to_mini(t0)),
            (c1, sandwich(cup_web("s"), cap_web("s"))),
            (c2, sandwich(split_vertex_web(), merge_vertex_web()))]


def _expand_one_box(web: Web, table: RuleTable) -> WebSum:
    """Expand one box of a settled web, one on which ``_local_step`` finds
    nothing: no box rule applies and no crossing is left.  ``reduce_sum``
    settles and reduces the pieces, and drops the dead ones before they are
    keyed.

    A box (n, 0), n >= 2, becomes the three webs of ``_recursion_webs``; a
    box of at most one strand is the identity on its strands.  The smallest
    box goes first, the newest among equals: on a 2-core host theta(4,4,4)
    takes 0.04 s so, 12 s largest first.
    """
    v = min(_box_positions(web), key=lambda x: (web.vextra[x][0], -x))
    n, = web.vextra[v]
    expansion = _recursion_webs(n) if n >= 2 else [(_ONE, to_mini(_strands(n)))]
    pieces = _splice(web, {v}, list(web.vlegs[v]), [m for _, m in expansion])
    return reduce_sum([(c, piece) for (c, _), piece in zip(expansion, pieces)], table)


# --------------------------------------------------------------------------
# reduction


def _strip_loops(coeff, w, table):
    if not w.free_loops:
        return coeff, w
    for t in w.free_loops:
        coeff = coeff * table.loop[t]
    w = w.copy()
    w.free_loops = ()
    return coeff, w


def _pick_face(web: Web, table: RuleTable):
    """The face to rewrite: the smallest, then the lowest darts; None when
    no face is reducible."""
    return min(_face_matches(web, table), key=lambda t: (t[0], t[1]), default=None)


def reduce_sum(ws, table: RuleTable = None) -> WebSum:
    """Rewrite every diagram of a web, a ``WebSum`` or (coefficient, web)
    pairs until no box rule, crossing or face rule is left: each diagram
    takes ``_local_step``, and a face rule when that finds nothing.  So a
    web is settled and its crossings are smoothed before a face is picked,
    and one whose box meets a turnback is dropped unkeyed."""
    table = table or default_table()
    if isinstance(ws, Web):
        ws = WebSum.from_web(ws)
    out = WebSum()
    stack = [(c, w) for c, w in ws]
    while stack:
        coeff, w = stack.pop()
        pieces = _local_step(w, table)
        if pieces is None:
            coeff, w = _strip_loops(coeff, w, table)
            if coeff.is_zero():
                continue
            pick = _pick_face(w, table)
            if pick is None:
                out.add(coeff, w)
                continue
            pieces = apply_face_rule(w, *pick[1:])
        # a box rewrite has coefficient 1; a product would renormalize coeff
        stack.extend((coeff if c2 is _ONE else coeff * c2, w2) for c2, w2 in pieces)
    return out


def eval_closed(w, table: RuleTable = None) -> RationalFunction:
    """Scalar value of a closed web or of a sum of closed webs (the
    coefficient of the empty web).  Closed networks are valued here, and
    only here, with clasp boxes, crossings or both.

    A whole web is never keyed: it is split into connected components by
    ``Web.closed_components``, and each component's value is kept in
    ``eval_memo(table)``, crossings and all.  A component not in the memo
    takes one ``_step`` (a box rule, a smoothing, a box expansion or a face
    rule), and its pieces are valued in the same way.
    """
    table = table or default_table()
    memo = eval_memo(table)
    total = _ZERO
    for coeff, web in ([(_ONE, w)] if isinstance(w, Web) else w):
        if web.boundary:
            raise ValueError("eval_closed needs a closed web")
        value = _eval_components(web, table, memo)
        total = total + (value if coeff == _ONE else coeff * value)
    return total


def _eval_components(web: Web, table, memo) -> RationalFunction:
    """The product of the values of the web's free loops and components,
    multiplying only factors that exist.  A component not in the memo is
    valued through the pieces of one ``_step``."""
    # the memo lookup is inline, one Python frame per level: with it in a
    # function of its own, theta(8,8,6) had 15% more minor page faults
    factors = [table.loop[t] for t in web.free_loops]
    for comp in web.closed_components():
        key = comp.canonical_key()
        value = memo.get(key)
        if value is None:
            value = _ZERO
            for c, piece in _step(comp, table):
                value = value + c * _eval_components(piece, table, memo)
            memo[key] = value
        factors.append(value)
    return functools.reduce(operator.mul, factors) if factors else _ONE


def _step(web: Web, table):
    """One rewrite of a connected closed web: ``_local_step``, else
    ``_expand_one_box`` if a box is left, else the face rule of
    ``_pick_face``."""
    pieces = _local_step(web, table)
    if pieces is not None:
        return pieces
    if web.has_kind("clasp"):
        return _expand_one_box(web, table)
    pick = _pick_face(web, table)
    if pick is None:
        raise NonTerminating("closed web has no reducible face; relation table incomplete")
    return apply_face_rule(web, *pick[1:])


_EVAL_MEMO: dict = {}


def eval_memo(table: RuleTable) -> dict:
    """The table's memo of web values under their canonical keys; it also
    holds the braid generators proven on a clasp, under ("braid", n, g)."""
    return _EVAL_MEMO.setdefault(table.table_hash(), {})


# --------------------------------------------------------------------------
# crossings


def resolve_crossings(web: Web, table: RuleTable = None):
    """The three-term skein relation at the web's lowest crossing,
    [(coeff, web)] * 3, or None when it has no crossing: the one smoothing.

    The first term (coefficient A) joins each over-strand leg to its
    clockwise neighbour; the remaining two terms join over-strand legs to
    their counterclockwise neighbours, without and with the double-edge
    bridge.  Each term has one crossing fewer and at most two vertices more.
    """
    v = min((x for x, kind in web.vkind.items() if kind == "cross"), default=None)
    if v is None:
        return None
    table = table or default_table()
    if table.crossing is None:
        raise ValueError("relation table carries no crossing data")
    legs = web.vlegs[v]
    if any(web.etype[d] != "s" for d in legs):
        raise UnsupportedCrossingType(
            "crossings are only defined between single strands")
    p0 = web.vextra[v][1]
    p1 = p0 + 2
    term_a = ((), (
        (("x", p0), ("x", (p0 - 1) % 4), "s"),
        (("x", p1), ("x", (p1 - 1) % 4), "s"),
    ))
    term_b = ((), (
        (("x", p0), ("x", (p0 + 1) % 4), "s"),
        (("x", p1), ("x", (p1 + 1) % 4), "s"),
    ))
    webs = _splice(web, {v}, list(legs), [term_a, term_b, _bridge(p0)])
    return list(zip(table.crossing, webs))


def _bridge(a):
    """Mini web of two trivalent vertices bridged by a double edge, the first
    on ports a, a+1 and the second on ports a+2, a+3 (mod 4)."""
    return ((("tri", ("s", "s", "d"), ()),) * 2, (
        (("x", a), ("v", 0, 0), "s"),
        (("x", (a + 1) % 4), ("v", 0, 1), "s"),
        (("v", 0, 2), ("v", 1, 2), "d"),
        (("x", (a + 2) % 4), ("v", 1, 0), "s"),
        (("x", (a + 3) % 4), ("v", 1, 1), "s"),
    ))


def to_mini(diagram: Web):
    """Encode a boundary web as a rule-style mini web whose external ports are
    the diagram's boundary positions (used when splicing expansions into
    opaque boxes)."""
    vids = sorted(diagram.vkind)
    vindex = {v: i for i, v in enumerate(vids)}
    verts = tuple((diagram.vkind[v],
                   tuple(diagram.etype[d] for d in diagram.vlegs[v]),
                   diagram.vextra[v]) for v in vids)
    bpos = {d: j for j, d in enumerate(diagram.boundary)}

    def end(d):
        v = diagram.dart_vertex[d]
        if v is None:
            return ("x", bpos[d])
        return ("v", vindex[v], diagram.vlegs[v].index(d))

    edges = []
    for d, p in sorted(diagram.pair.items()):
        if d < p:
            edges.append((end(d), end(p), diagram.etype[d]))
    if diagram.free_loops:
        raise ValueError("cannot encode a web carrying free loops")
    return (verts, tuple(edges))


# --------------------------------------------------------------------------
# exact equality via the closed pairing


def pair_closed(x: WebSum, y: WebSum, table: RuleTable = None) -> RationalFunction:
    """Closed pairing <x, y>: glue mirror(x) against y and evaluate.  The
    products c1 c2 <w1, w2> are summed unreduced and normalized once.

    The self-pairing <x, x> plugs each unordered pair of terms once and
    counts an off-diagonal product twice, by the symmetry stated in the
    module docstring.
    """
    table = table or default_table()
    if y is x:
        terms = list(x)
        mirrored = [mirror(w) for _, w in terms]
        pairs = ((1 if i == j else 2, terms[i][0], mirrored[i], *terms[j])
                 for i in range(len(terms)) for j in range(i, len(terms)))
    else:
        pairs = ((1, c1, w1, c2, w2) for c1, w1 in sum_mirror(x) for c2, w2 in y)

    def products():
        for k, c1, w1, c2, w2 in pairs:
            v = eval_closed(plug(w1, w2), table)
            if not v.is_zero():
                yield k * c1.num * c2.num * v.num, c1.den * c2.den * v.den

    return _sum_fractions(products())


def sum_is_zero(x: WebSum, table: RuleTable = None) -> bool:
    """Exact zero test in the skein module: x vanishes exactly when its
    self-pairing <x, x> is the zero rational function.  The pairing is
    semidefinite, not positive definite, with a sign that depends on the
    boundary (see module docstring)."""
    if x.is_zero():
        return True
    return pair_closed(x, x, table).is_zero()
