"""Reduction engine: rewrite webs to normal form using the relation table.

Reduction terminates by construction.  A face rule fires only on an m-gon
with m distinct trivalent corners, crossings are resolved once beforehand,
and ``RuleTable`` refuses at construction any face rule with a right-hand
term of m or more vertices, so every rewrite strictly lowers the vertex
count.  The box rules of ``_box_rule`` lower it too, or drop the term: a
clasp box (n, 0) kills a turnback on two adjacent legs, straightens a
sideways bridge standing on them and absorbs an equal box stacked on it.
Killing and absorbing are axioms of the clasp; straightening holds because
the square relation is monic in the frozen table's normalization and its
other terms are turnbacks.  Closed crossing-free webs always contain a
reducible face (a discrete Gauss-Bonnet count over the sphere forces
positive-curvature faces to exist); a table lacking the rule for one raises
``NonTerminating``.

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

from .ring import RationalFunction, _sum_fractions
from .rules import RuleTable, default_table
from .web import Web, compose, mirror, plug


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

    def scalar(self) -> RationalFunction:
        """Coefficient of the empty web, for fully reduced closed sums."""
        if not self.terms:
            return _ZERO
        if len(self.terms) != 1:
            raise ValueError("sum is not a multiple of the empty web")
        (c, w), = list(self)
        if w.n_vertices() or w.boundary or w.free_loops:
            raise ValueError("sum is not a multiple of the empty web")
        return c


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
    return [v for v in sorted(web.vkind) if web.vkind[v] == "clasp"]


def _settle(web: Web):
    """The web with the box rules applied until none applies, or None.  A
    pass returns None at the first dead box, before it splices anything,
    and otherwise splices the first rewrite it found."""
    while True:
        rewrite = None
        for v in _box_positions(web):
            rule = _box_rule(web, v)
            if rule == "dead":
                return None
            rewrite = rewrite or rule
        if rewrite is None:
            return web
        web = _splice(web, *rewrite)[0]


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
    pairs until no box rule and no face rule applies.  A web with boxes is
    settled before a face is picked, so one whose box meets a turnback is
    dropped unkeyed.  Crossings are refused: resolve them first."""
    table = table or default_table()
    if isinstance(ws, Web):
        ws = WebSum.from_web(ws)
    out = WebSum()
    stack = [(c, w) for c, w in ws]
    while stack:
        coeff, w = stack.pop()
        if w.has_kind("cross"):
            raise ValueError("reduce expects a web without crossings: "
                             "resolve them first")
        if w.has_kind("clasp"):
            w = _settle(w)
            if w is None:
                continue
        coeff, w = _strip_loops(coeff, w, table)
        if coeff.is_zero():
            continue
        pick = _pick_face(w, table)
        if pick is None:
            out.add(coeff, w)
            continue
        for c2, w2 in apply_face_rule(w, *pick[1:]):
            stack.append((coeff * c2, w2))
    return out


def eval_closed(w, table: RuleTable = None) -> RationalFunction:
    """Scalar value of a closed web or closed ``WebSum`` (the coefficient of
    the empty web).

    Crossings, where present, are resolved; clasp boxes are not allowed
    here (``clasp.eval_box_web`` expands them one at a time and hands each
    box-free piece here).  A whole web is never keyed: it is split into
    connected components by ``Web.closed_components``, and each component's
    value is kept in ``eval_memo(table)``.
    """
    table = table or default_table()
    memo = eval_memo(table)
    total = _ZERO
    for coeff, web in ([(_ONE, w)] if isinstance(w, Web) else w):
        if web.boundary:
            raise ValueError("eval_closed needs a closed web")
        if web.has_kind("clasp"):
            raise ValueError("expand clasp boxes before closed evaluation")
        work = resolve_crossings(web, table) if web.has_kind("cross") else [(_ONE, web)]
        for c, ww in work:
            total = total + coeff * c * _eval_plain(ww, table, memo)
    return total


def _eval_plain(web: Web, table, memo) -> RationalFunction:
    value = _ONE
    for t in web.free_loops:
        value = value * table.loop[t]
    for comp in web.closed_components():
        value = value * _eval_component(comp, table, memo)
    return value


def _eval_component(web: Web, table, memo) -> RationalFunction:
    key = web.canonical_key()
    hit = memo.get(key)
    if hit is not None:
        return hit
    pick = _pick_face(web, table)
    if pick is None:
        if web.vkind:
            raise NonTerminating(
                "closed web has no reducible face; relation table incomplete")
        return _ONE
    value = _ZERO
    for c2, w2 in apply_face_rule(web, *pick[1:]):
        value = value + c2 * _eval_plain(w2, table, memo)
    memo[key] = value
    return value


_EVAL_MEMO: dict = {}


def eval_memo(table: RuleTable) -> dict:
    """The table's memo of web values under their canonical keys; it also
    holds the braid generators proven on a clasp, under ("braid", n, g)."""
    return _EVAL_MEMO.setdefault(table.table_hash(), {})


# --------------------------------------------------------------------------
# crossings


def resolve_crossings(w, table: RuleTable = None) -> WebSum:
    """Expand every formal crossing into the three-term sum of ``_smooth``,
    lowest crossing id first."""
    table = table or default_table()
    if isinstance(w, Web):
        w = WebSum.from_web(w)
    out = WebSum()
    for c, web in w:
        stack = [(c, web)]
        while stack:
            cc, ww = stack.pop()
            v = _first_vertex(ww, "cross")
            if v is None:
                out.add(cc, ww)
                continue
            stack.extend((cc * k, w2) for k, w2 in _smooth(ww, v, table))
    return out


def _first_vertex(w: Web, kind: str):
    """The lowest-id vertex of the kind, or None."""
    return next((x for x in sorted(w.vkind) if w.vkind[x] == kind), None)


def _smooth(web: Web, v, table: RuleTable):
    """The three-term skein relation at crossing ``v``: [(coeff, web)] * 3.

    The first term (coefficient A) joins each over-strand leg to its
    clockwise neighbour; the remaining two terms join over-strand legs to
    their counterclockwise neighbours, without and with the double-edge
    bridge.
    """
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
