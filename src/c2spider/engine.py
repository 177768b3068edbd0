"""Reduction engine: rewrite webs to normal form using the relation table.

Closed crossing-free webs always contain a reducible face (a discrete
Gauss-Bonnet count over the sphere forces positive-curvature faces to exist),
and every face rule strictly decreases the vertex count, so closed evaluation
terminates; the step budget exists to convert a corrupted rule table into a
clean error instead of a hang.

Equality of open webs is decided through the closed pairing
``<X, Y> = eval(plug(mirror(X), Y))``, a symmetric bilinear form.  It is not
positive definite.  At q = 1 it is semidefinite on the span of diagrams with
a given boundary, with a sign that depends on the boundary (positive for four
single points, negative for six), and its kernel there is the span of the
relations.  Definiteness up to that sign persists for real q near 1, and a
nonzero element of the skein module stays nonzero at all but finitely many
such q, so a linear combination vanishes in the skein module exactly when
its self-pairing is the zero rational function.
"""

from __future__ import annotations

import itertools
import random

from .ring import RationalFunction, _sum_fractions
from .rules import RuleTable, default_table
from .web import Web, compose, mirror, plug


class NonTerminating(RuntimeError):
    """Step budget exceeded; indicates a corrupted relation table."""


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
# reduction


class _Budget:
    __slots__ = ("left",)

    def __init__(self, n):
        self.left = n

    def spend(self):
        self.left -= 1
        if self.left < 0:
            raise NonTerminating("reduction step budget exceeded")


def _strip_loops(coeff, w, table):
    if not w.free_loops:
        return coeff, w
    for t in w.free_loops:
        coeff = coeff * table.loop[t]
    w = w.copy()
    w.free_loops = ()
    return coeff, w


def reduce_sum(ws, table: RuleTable = None, strategy: str = "smallest",
               budget: int = 10 ** 6, seed: int = 0, boxes_ok: bool = False) -> WebSum:
    """Rewrite every diagram until no reducible internal face remains."""
    table = table or default_table()
    rng = random.Random(seed)
    if isinstance(ws, Web):
        ws = WebSum.from_web(ws)
    bud = _Budget(budget)
    out = WebSum()
    stack = [(c, w) for c, w in ws]
    while stack:
        coeff, w = stack.pop()
        coeff, w = _strip_loops(coeff, w, table)
        if coeff.is_zero():
            continue
        if w.has_kind("cross") or w.has_kind("tet") or \
                (w.has_kind("clasp") and not boxes_ok):
            raise ValueError("reduce expects a plain web: resolve crossings and "
                             "expand boxes first")
        matches = _face_matches(w, table)
        if not matches:
            out.add(coeff, w)
            continue
        if strategy == "smallest":
            pick = min(matches, key=lambda t: (t[0], t[1]))
        elif strategy == "first":
            pick = matches[0]
        elif strategy == "random":
            pick = rng.choice(matches)
        else:
            raise ValueError(f"unknown strategy {strategy!r}")
        bud.spend()
        _, face, rule, rot = pick
        for c2, w2 in apply_face_rule(w, face, rule, rot):
            stack.append((coeff * c2, w2))
    return out


def _split_components(w: Web):
    """Split a closed vertexed web into its connected components."""
    comps = []
    seen = set()
    for v0 in sorted(w.vkind):
        if v0 in seen:
            continue
        comp = {v0}
        stack = [v0]
        while stack:
            x = stack.pop()
            for d in w.vlegs[x]:
                y = w.dart_vertex[w.pair[d]]
                if y is not None and y not in comp:
                    comp.add(y)
                    stack.append(y)
        seen |= comp
        sub = Web()
        vmap, dmap = {}, {}
        for x in sorted(comp):
            vmap[x] = sub._next_vertex
            sub._next_vertex += 1
            for d in w.vlegs[x]:
                dmap[d] = sub._next_dart
                sub._next_dart += 1
        for x in sorted(comp):
            sub.vkind[vmap[x]] = w.vkind[x]
            sub.vextra[vmap[x]] = w.vextra[x]
            sub.vlegs[vmap[x]] = [dmap[d] for d in w.vlegs[x]]
            for d in w.vlegs[x]:
                sub.etype[dmap[d]] = w.etype[d]
                sub.dart_vertex[dmap[d]] = vmap[x]
                sub.pair[dmap[d]] = dmap[w.pair[d]]
        comps.append(sub)
    return comps


def eval_closed(w, table: RuleTable = None, budget: int = 10 ** 6,
                memo: dict = None) -> RationalFunction:
    """Scalar value of a closed web or closed ``WebSum`` (the coefficient of
    the empty web).

    Tetravalent vertices are expanded in place and crossings, where present,
    resolved; clasp boxes are not allowed here (the clasp module expands
    them with its own pruning).  A whole web is never keyed: it is split
    into connected components, and each component is evaluated through a
    memo on its canonical key.
    """
    table = table or default_table()
    if memo is None:
        memo = _EVAL_MEMO.setdefault(table.table_hash(), {})
    bud = _Budget(budget)
    total = _ZERO
    for coeff, web in ([(_ONE, w)] if isinstance(w, Web) else w):
        if web.boundary:
            raise ValueError("eval_closed needs a closed web")
        if web.has_kind("clasp"):
            raise ValueError("expand clasp boxes before closed evaluation")
        if web.has_kind("tet"):
            web = expand_tetravalent(web)
        work = resolve_crossings(web, table) if web.has_kind("cross") else [(_ONE, web)]
        for c, ww in work:
            total = total + coeff * c * _eval_plain(ww, table, bud, memo)
    return total


def _eval_plain(web: Web, table, bud, memo) -> RationalFunction:
    value = _ONE
    for t in web.free_loops:
        value = value * table.loop[t]
    if web.free_loops:
        web = web.copy()
        web.free_loops = ()
    for comp in _split_components(web):
        value = value * _eval_component(comp, table, bud, memo)
    return value


def _eval_component(web: Web, table, bud, memo) -> RationalFunction:
    key = web.canonical_key()
    hit = memo.get(key)
    if hit is not None:
        return hit
    matches = _face_matches(web, table)
    if not matches:
        if web.vkind:
            raise NonTerminating(
                "closed web has no reducible face; relation table incomplete")
        return _ONE
    bud.spend()
    _, face, rule, rot = min(matches, key=lambda t: (t[0], t[1]))
    value = _ZERO
    for c2, w2 in apply_face_rule(web, face, rule, rot):
        value = value + c2 * _eval_plain(w2, table, bud, memo)
    memo[key] = value
    return value


_EVAL_MEMO: dict = {}


# --------------------------------------------------------------------------
# crossings and tetravalent vertices


def resolve_crossings(w, table: RuleTable = None) -> WebSum:
    """Expand every formal crossing into the three-term sum.

    The first term (coefficient A) joins each over-strand leg to its
    clockwise neighbour; the remaining two terms join over-strand legs to
    their counterclockwise neighbours, without and with the double-edge
    bridge.
    """
    table = table or default_table()
    if table.crossing is None:
        raise ValueError("relation table carries no crossing data")
    coeff_a, coeff_b, coeff_c = table.crossing
    if isinstance(w, Web):
        w = WebSum.from_web(w)
    out = WebSum()
    for c, web in w:
        stack = [(c, web)]
        while stack:
            cc, ww = stack.pop()
            v = next((x for x in sorted(ww.vkind) if ww.vkind[x] == "cross"), None)
            if v is None:
                out.add(cc, ww)
                continue
            legs = ww.vlegs[v]
            if any(ww.etype[d] != "s" for d in legs):
                raise UnsupportedCrossingType(
                    "crossings are only defined between single strands")
            diag = ww.vextra[v][1]
            p0, p1 = diag, diag + 2
            term_a = ((), (
                (("x", p0), ("x", (p0 - 1) % 4), "s"),
                (("x", p1), ("x", (p1 - 1) % 4), "s"),
            ))
            term_b = ((), (
                (("x", p0), ("x", (p0 + 1) % 4), "s"),
                (("x", p1), ("x", (p1 + 1) % 4), "s"),
            ))
            term_c = ((("tri", ("s", "s", "d"), ()), ("tri", ("s", "s", "d"), ())), (
                (("x", p0), ("v", 0, 0), "s"),
                (("x", (p0 + 1) % 4), ("v", 0, 1), "s"),
                (("v", 0, 2), ("v", 1, 2), "d"),
                (("x", p1), ("v", 1, 0), "s"),
                (("x", (p1 + 1) % 4), ("v", 1, 1), "s"),
            ))
            webs = _splice(ww, {v}, list(legs), [term_a, term_b, term_c])
            for k, w2 in zip((coeff_a, coeff_b, coeff_c), webs):
                stack.append((cc * k, w2))
    return out


def expand_tetravalent(w: Web) -> Web:
    """Rewrite each formal tetravalent vertex into its defining pair of
    trivalent vertices bridged by a double edge, along the marked axis."""
    w = w.copy()
    while True:
        v = next((x for x in sorted(w.vkind) if w.vkind[x] == "tet"), None)
        if v is None:
            return w
        axis = w.vextra[v][1]
        a = axis % 2
        term = ((("tri", ("s", "s", "d"), ()), ("tri", ("s", "s", "d"), ())), (
            (("x", a), ("v", 0, 0), "s"),
            (("x", (a + 1) % 4), ("v", 0, 1), "s"),
            (("v", 0, 2), ("v", 1, 2), "d"),
            (("x", (a + 2) % 4), ("v", 1, 0), "s"),
            (("x", (a + 3) % 4), ("v", 1, 1), "s"),
        ))
        w = _splice(w, {v}, list(w.vlegs[v]), [term])[0]


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


def pair_closed(x: WebSum, y: WebSum, table: RuleTable = None,
                budget: int = 10 ** 6) -> RationalFunction:
    """Closed pairing <x, y>: glue mirror(x) against y and evaluate.  The
    products c1 c2 <w1, w2> are summed unreduced and normalized once."""
    table = table or default_table()

    def products():
        for c1, w1 in sum_mirror(x):
            for c2, w2 in y:
                v = eval_closed(plug(w1, w2), table, budget)
                if not v.is_zero():
                    yield c1.num * c2.num * v.num, c1.den * c2.den * v.den

    return _sum_fractions(products())


def sum_is_zero(x: WebSum, table: RuleTable = None, budget: int = 10 ** 6) -> bool:
    """Exact zero test in the skein module: x vanishes exactly when its
    self-pairing <x, x> is the zero rational function.  The pairing is
    semidefinite, not positive definite, with a sign that depends on the
    boundary (see module docstring)."""
    if x.is_zero():
        return True
    return pair_closed(x, x, table, budget).is_zero()


def sums_equal(x: WebSum, y: WebSum, table: RuleTable = None,
               budget: int = 10 ** 6) -> bool:
    return sum_is_zero(x - y, table, budget)
