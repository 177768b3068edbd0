"""Planar webs as combinatorial maps.

A web is stored as a rotation system: every half-edge (dart) either sits at a
vertex, in a definite cyclic (counterclockwise) position, or is anchored to
the disk boundary.  A fixed-point-free involution pairs darts into edges.
Edges carry a type, ``'s'`` (single strand) or ``'d'`` (double strand).

Vertex kinds:

* ``tri`` -- the generating trivalent vertex: two single legs, one double leg.
* ``cross`` -- a formal crossing of two single strands; ``over`` in the extra
  data records which diagonal (legs 0,2 or legs 1,3 in cyclic position) passes
  over.
* ``clasp`` -- an opaque box for the projector of weight (n, 0), with extra
  data ``(n,)``; its legs are the n single input strands followed by the n
  single output strands in boundary order.

Boundary convention: the boundary word is read counterclockwise and splits as
inputs left-to-right followed by outputs right-to-left, so a morphism web with
p inputs and q outputs has boundary ``(i_0 .. i_{p-1}, o_{q-1} .. o_0)`` and
``n_in = p``.  Closed loops with no vertices are tracked separately in
``free_loops`` since they have no darts.
"""

from __future__ import annotations

from dataclasses import dataclass


class BoundaryMismatch(ValueError):
    """Gluing was attempted along boundaries of different shape."""


SINGLE = "s"
DOUBLE = "d"


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str

    def __bool__(self):  # truthy: a violation was found
        return True


class Web:
    __slots__ = ("vkind", "vextra", "vlegs", "dart_vertex", "pair", "etype",
                 "boundary", "n_in", "free_loops", "_next_dart", "_next_vertex",
                 "_ckey")

    def __init__(self):
        self.vkind = {}
        self.vextra = {}
        self.vlegs = {}
        self.dart_vertex = {}
        self.pair = {}
        self.etype = {}
        self.boundary = []
        self.n_in = 0
        self.free_loops = ()
        self._next_dart = 0
        self._next_vertex = 0
        self._ckey = None

    # -- construction helpers -------------------------------------------

    def new_dart(self, etype: str) -> int:
        self._ckey = None
        d = self._next_dart
        self._next_dart += 1
        self.etype[d] = etype
        self.dart_vertex[d] = None
        return d

    def add_vertex(self, kind: str, leg_types, extra=()) -> tuple:
        """Add a vertex with fresh darts; returns (vertex id, list of darts)."""
        self._ckey = None
        v = self._next_vertex
        self._next_vertex += 1
        darts = [self.new_dart(t) for t in leg_types]
        for d in darts:
            self.dart_vertex[d] = v
        self.vkind[v] = kind
        self.vextra[v] = tuple(extra)
        self.vlegs[v] = list(darts)
        return v, darts

    def connect(self, d1: int, d2: int):
        if self.etype[d1] != self.etype[d2]:
            raise BoundaryMismatch(
                f"cannot join a {self.etype[d1]!r} dart to a {self.etype[d2]!r} dart")
        if d1 == d2 or d1 in self.pair or d2 in self.pair:
            raise ValueError("dart already paired")
        self._ckey = None
        self.pair[d1] = d2
        self.pair[d2] = d1

    def add_free_loop(self, etype: str):
        self._ckey = None
        self.free_loops = tuple(sorted(self.free_loops + (etype,)))

    def copy(self) -> "Web":
        w = Web.__new__(Web)
        w.vkind = dict(self.vkind)
        w.vextra = dict(self.vextra)
        w.vlegs = {v: list(l) for v, l in self.vlegs.items()}
        w.dart_vertex = dict(self.dart_vertex)
        w.pair = dict(self.pair)
        w.etype = dict(self.etype)
        w.boundary = list(self.boundary)
        w.n_in = self.n_in
        w.free_loops = self.free_loops
        w._next_dart = self._next_dart
        w._next_vertex = self._next_vertex
        w._ckey = None
        return w

    # -- boundary views --------------------------------------------------

    def inputs(self):
        return self.boundary[:self.n_in]

    def outputs(self):
        return list(reversed(self.boundary[self.n_in:]))

    def in_types(self):
        return tuple(self.etype[d] for d in self.inputs())

    def out_types(self):
        return tuple(self.etype[d] for d in self.outputs())

    def n_vertices(self) -> int:
        return len(self.vkind)

    def has_kind(self, kind: str) -> bool:
        return any(k == kind for k in self.vkind.values())

    # -- faces -------------------------------------------------------------

    def _sigma(self, virtual_rot):
        """Next-dart-counterclockwise map, treating the boundary as a virtual
        vertex whose rotation is the boundary word reversed."""
        nxt = {}
        for legs in self.vlegs.values():
            n = len(legs)
            for i, d in enumerate(legs):
                nxt[d] = legs[(i + 1) % n]
        if virtual_rot:
            n = len(virtual_rot)
            for i, d in enumerate(virtual_rot):
                nxt[d] = virtual_rot[(i + 1) % n]
        return nxt

    def faces(self, include_outer=False):
        """Orbits of (rotation-next after crossing the edge); each orbit is a
        list of darts.  Faces through the boundary are skipped unless asked."""
        virtual_rot = list(reversed(self.boundary))
        nxt = self._sigma(virtual_rot)
        bset = set(self.boundary)
        seen = set()
        out = []
        for start in sorted(self.etype):
            if start in seen:
                continue
            orbit = []
            d = start
            while True:
                orbit.append(d)
                seen.add(d)
                d = nxt[self.pair[d]] if self.pair.get(d) is not None else None
                if d is None:  # unpaired dart outside boundary: invalid web
                    break
                if d == start:
                    break
            if d is None:
                continue
            if include_outer or not any(x in bset for x in orbit):
                out.append(orbit)
        return out

    # -- validation ----------------------------------------------------------

    # kind -> (sorted leg types, the extra data it may carry)
    _PATTERNS = {
        "tri": (["d", "s", "s"], [()]),
        "cross": (["s"] * 4, [("over", 0), ("over", 1)]),
    }

    def validate(self):
        """Return None if every structural invariant holds, else the first
        Violation found."""
        darts = set(self.etype)
        if set(self.dart_vertex) != darts or not darts.issuperset(self.pair):
            return Violation("darts", "half-edges, edge types and pairing name different darts")
        if set(self.vlegs) != set(self.vkind):
            return Violation("vertex-kind", "a half-edge sits at an undeclared vertex")
        if any(t not in (SINGLE, DOUBLE) for t in [*self.etype.values(), *self.free_loops]):
            return Violation("edge-type", "an edge or free loop is neither 's' nor 'd'")
        bset = set(self.boundary)
        if len(bset) != len(self.boundary):
            return Violation("boundary", "repeated dart in boundary word")
        if not 0 <= self.n_in <= len(self.boundary):
            return Violation("boundary", "input count outside boundary range")
        for d, v in self.dart_vertex.items():
            if v is None:
                if d not in bset:
                    return Violation("dangling-dart", f"dart {d} has no vertex and is not on the boundary")
            elif d in bset:
                return Violation("boundary", f"dart {d} sits at vertex {v} but is also anchored")
        for d in self.boundary:
            if d not in self.etype:
                return Violation("boundary", f"unknown dart {d} in boundary word")
        # involution: fixed-point-free pairing away from the boundary
        for d in self.etype:
            p = self.pair.get(d)
            if p is None:
                if d not in bset:
                    return Violation("pairing", f"dart {d} is unpaired and not on the boundary")
                continue
            if p == d:
                return Violation("pairing", f"dart {d} paired with itself")
            if self.pair.get(p) != d:
                return Violation("pairing", f"pairing not involutive at dart {d}")
            if self.etype[d] != self.etype[p]:
                return Violation("edge-type", f"edge {d}-{p} changes type")
        # vertex incidence patterns
        for v, legs in self.vlegs.items():
            for d in legs:
                if self.dart_vertex.get(d) != v:
                    return Violation("rotation", f"dart {d} not registered at vertex {v}")
            kind, extra = self.vkind[v], self.vextra[v]
            types = sorted(self.etype[d] for d in legs)
            if kind in self._PATTERNS:
                want, extras = self._PATTERNS[kind]
                if types != want or extra not in extras:
                    return Violation("trivalent-pattern" if kind == "tri" else f"{kind}-pattern",
                                     f"vertex {v} has leg types {types} and extra {list(extra)}")
            elif kind == "clasp":
                if len(extra) != 1 or not isinstance(extra[0], int) or extra[0] < 0 \
                        or types != ["s"] * (2 * extra[0]):
                    return Violation("clasp-pattern", f"vertex {v} with extra {list(extra)} "
                                     "is not a box (n,) on 2n single strands")
            else:
                return Violation("vertex-kind", f"unknown vertex kind {kind!r}")
        # planarity: Euler characteristic 2 on the sphere, per component
        return self._check_planarity()

    def _check_planarity(self):
        faces = self.faces(include_outer=True)
        rest = set(self.etype)
        comps = []
        if self.boundary:
            # the boundary is one virtual vertex: its darts share a component
            comps.append(self._component(*self.boundary))
            rest -= comps[0]
        comps += self._components(rest)
        counts = [(len({self.dart_vertex[d] for d in comp}),  # None: the boundary
                   sum(d in self.pair for d in comp) // 2,
                   sum(orbit[0] in comp for orbit in faces)) for comp in comps]
        # a vertex without legs is a component of its own, with no face
        counts += [(1, 0, 0) for legs in self.vlegs.values() if not legs]
        for v, e, f in counts:
            if v - e + f != 2:
                return Violation("planarity",
                                 f"component has Euler characteristic {v - e + f}, expected 2")
        return None

    # -- canonical form -------------------------------------------------------

    def canonical_key(self):
        """Hashable key identifying the web up to orientation-preserving
        isomorphism of rooted combinatorial maps.

        The part reachable from the boundary is encoded by one breadth-first
        sweep rooted at the boundary basepoint.  Each closed component is
        encoded from a class of root darts and the least encoding is kept,
        comparing the edge list first.  A component with clasp boxes is rooted
        at leg 0 of each of its largest boxes; one without is rooted at every
        dart of its rarest edge type (fewest darts, ties to ``'d'``).  A sweep
        from one dart determines the rooted map, and a sweep records the index
        of the leg by which it enters each box, so the isomorphisms the key
        recognizes keep box sizes, leg indices and edge types.  Such an
        isomorphism of components maps the root class of one onto the root
        class of the other, so the two have the same set of candidate
        encodings: the minimum over that class is still a complete
        invariant."""
        if self._ckey is not None:
            return self._ckey
        order = {d: i for i, d in enumerate(self.boundary)}
        encoded_main = self._encode_sweep(order) if order else ()
        comps = sorted(self._encode_closed(comp) for comp in
                       self._components(set(self.etype).difference(order)))
        self._ckey = (self.free_loops, self.n_in, encoded_main, tuple(comps))
        return self._ckey

    def closed_components(self):
        """The connected components of a closed web, free loops excluded.

        Each is copied into a fresh web that keeps the dart and vertex ids and
        already carries its canonical key, so the component is flooded and
        encoded once."""
        out = []
        for comp in self._components(set(self.etype)):
            sub = Web()
            for d in comp:
                v = self.dart_vertex[d]
                sub.etype[d] = self.etype[d]
                sub.dart_vertex[d] = v
                sub.pair[d] = self.pair[d]
                if v not in sub.vkind:
                    sub.vkind[v] = self.vkind[v]
                    sub.vextra[v] = self.vextra[v]
                    sub.vlegs[v] = list(self.vlegs[v])
            sub._next_dart = self._next_dart
            sub._next_vertex = self._next_vertex
            sub._ckey = ((), 0, (), (self._encode_closed(comp),))
            out.append(sub)
        return out

    def _components(self, unvisited):
        """Yield the darts of each component among ``unvisited``, which holds
        whole components and is emptied."""
        while unvisited:
            comp = self._component(min(unvisited))
            unvisited -= comp
            yield comp

    def _component(self, *roots):
        """Darts connected to ``roots`` through edges and vertices."""
        comp = set(roots)
        stack = list(roots)
        while stack:
            d = stack.pop()
            v = self.dart_vertex.get(d)
            near = list(self.vlegs[v]) if v is not None else []
            p = self.pair.get(d)
            if p is not None:
                near.append(p)
            for x in near:
                if x not in comp:
                    comp.add(x)
                    stack.append(x)
        return comp

    def _encode_closed(self, comp):
        """Least sweep encoding of a closed component, edge list first (see
        ``_encode_sweep``), over the leg-0 darts of its largest boxes or, with
        no box, over the darts of its rarest edge type."""
        boxes = {}
        for d in comp:
            v = self.dart_vertex[d]
            if v is not None and self.vkind[v] == "clasp":
                boxes[v] = self.vextra[v][0]
        if boxes:
            top = max(boxes.values())
            roots = [self.vlegs[v][0] for v, n in boxes.items() if n == top]
        else:
            count = {}
            for d in comp:
                t = self.etype[d]
                count[t] = count.get(t, 0) + 1
            rare = min(count, key=lambda t: (count[t], t))
            roots = [r for r in comp if self.etype[r] == rare]
        best = None
        for r in roots:
            enc = self._encode_sweep({r: 0}, best)
            if enc is not None:
                best = enc
        return best

    def _encode_sweep(self, order, best=None):
        """Number darts by a breadth-first sweep from the darts already in
        ``order`` (which it extends) and return the encoding.

        Each vertex record is built when its vertex is first reached, reading
        the legs cyclically from the entering dart, and each edge when its
        lower-numbered dart is popped.  Given ``best``, the encoding of a
        sweep over the same component, return None as soon as this encoding
        is known not to be less than it in the order edges, types, vertex
        records.  Edges come first because they carry the shape: on a
        trivalent component with no edge from a vertex to itself, every sweep
        gives the same vertex records."""
        pair, dart_vertex, vlegs = self.pair, self.dart_vertex, self.vlegs
        queue = list(order)
        reached = set()
        vrecs = []
        pairs = []
        tied = best is not None
        for idx, d in enumerate(queue):
            p = pair.get(d)
            if p is not None:
                j = order.get(p)
                if j is None:
                    j = order[p] = len(order)
                    queue.append(p)
                if idx < j:
                    # darts are popped in numbering order: edges come sorted
                    edge = (idx, j)
                    if tied:
                        other = best[1][len(pairs)]
                        if edge > other:
                            return None
                        tied = edge == other
                    pairs.append(edge)
            # explore the vertex of the partner (entering dart p)
            for probe in (p, d):
                if probe is None:
                    continue
                v = dart_vertex.get(probe)
                if v is None or v in reached:
                    continue
                reached.add(v)
                legs = vlegs[v]
                n = len(legs)
                k = legs.index(probe)
                rot = []
                for i in range(n):
                    leg = legs[(k + i) % n]
                    o = order.get(leg)
                    if o is None:
                        o = order[leg] = len(order)
                        queue.append(leg)
                    rot.append(o)
                # positional vertex data is re-expressed relative to the
                # entering leg, where the canonical reading starts
                kind = self.vkind[v]
                extra = self.vextra[v]
                if kind == "cross":
                    extra = ("over", (extra[1] - k) % 2)
                elif kind == "clasp":
                    extra = extra + (k,)
                vrecs.append((kind, extra, tuple(rot)))
        # insertion order of ``order`` is its numbering
        types = tuple(self.etype[d] for d in order)
        bnd = tuple(order[d] for d in self.boundary if d in order)
        enc = (tuple(vrecs), tuple(pairs), types, bnd)
        if tied and (types, bnd, enc[0]) >= (best[2], best[3], best[0]):
            return None
        return enc

    def __repr__(self):
        return (f"<Web {self.n_vertices()}v {len(self.pair) // 2}e "
                f"boundary={self.in_types()}->{self.out_types()} loops={self.free_loops}>")

    # -- JSON ------------------------------------------------------------------

    def to_json(self):
        verts = []
        half_edges = []
        for v in sorted(self.vkind):
            verts.append({"id": v, "kind": self.vkind[v],
                          "extra": list(self.vextra[v])})
            for pos, d in enumerate(self.vlegs[v]):
                half_edges.append({"id": d, "vertex": v, "position_in_rotation": pos})
        for d in self.boundary:
            if self.dart_vertex[d] is None:
                half_edges.append({"id": d, "vertex": None, "position_in_rotation": None})
        half_edges.sort(key=lambda r: r["id"])
        return {
            "schema": "c2spider/web/1",
            "vertices": verts,
            "half_edges": half_edges,
            "pairing": sorted([d, p] for d, p in self.pair.items() if d < p),
            "edge_types": {str(d): t for d, t in sorted(self.etype.items())},
            "boundary": list(self.boundary),
            "n_in": self.n_in,
            "free_loops": list(self.free_loops),
        }

    @staticmethod
    def from_json(data) -> "Web":
        """The web of a ``to_json`` record.  A missing or malformed field
        raises ValueError naming it; ``validate`` checks the structure."""
        w = Web()
        field = "vertices"
        try:
            for rec in data[field]:
                v = int(rec["id"])
                w.vkind[v] = str(rec["kind"])
                w.vextra[v] = tuple(rec["extra"])
                w.vlegs[v] = []
            field = "half_edges"
            legs_at = {}
            for rec in data[field]:
                d = int(rec["id"])
                v = rec["vertex"]
                w.dart_vertex[d] = None if v is None else int(v)
                if v is not None:
                    legs_at.setdefault(int(v), []).append((int(rec["position_in_rotation"]), d))
            for v, ps in legs_at.items():
                w.vlegs[v] = [d for _, d in sorted(ps)]
            field = "edge_types"
            w.etype = {int(k): v for k, v in data[field].items()}
            field = "pairing"
            for d, p in data[field]:
                w.pair[int(d)] = int(p)
                w.pair[int(p)] = int(d)
            field = "boundary"
            w.boundary = [int(d) for d in data[field]]
            field = "n_in"
            w.n_in = int(data[field])
            field = "free_loops"
            w.free_loops = tuple(data.get(field, []))
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise ValueError(f"web field {field!r} is missing or malformed "
                             f"({type(exc).__name__}: {exc})") from exc
        w._next_dart = max(w.etype, default=-1) + 1
        w._next_vertex = max(w.vkind, default=-1) + 1
        return w


# -- elementary webs ------------------------------------------------------------


def empty_web() -> Web:
    return Web()


def id_web(types) -> Web:
    """Identity tangle on the given strand types (left to right)."""
    w = Web()
    ins, outs = [], []
    for t in types:
        a = w.new_dart(t)
        b = w.new_dart(t)
        w.connect(a, b)
        ins.append(a)
        outs.append(b)
    w.boundary = ins + list(reversed(outs))
    w.n_in = len(ins)
    return w


def cup_web(etype: str = SINGLE) -> Web:
    """No inputs, two outputs joined below."""
    w = Web()
    a = w.new_dart(etype)
    b = w.new_dart(etype)
    w.connect(a, b)
    w.boundary = [b, a]  # outputs right-to-left
    w.n_in = 0
    return w


def cap_web(etype: str = SINGLE) -> Web:
    w = Web()
    a = w.new_dart(etype)
    b = w.new_dart(etype)
    w.connect(a, b)
    w.boundary = [a, b]
    w.n_in = 2
    return w


def vertex_web(n_in: int, in_types, out_types) -> Web:
    """A single trivalent vertex as a morphism; leg types must be two singles
    and one double in total."""
    types = list(in_types) + list(reversed(list(out_types)))
    if sorted(types) != ["d", "s", "s"]:
        raise ValueError(f"trivalent vertex needs legs (s, s, d), got {types}")
    w = Web()
    _, darts = w.add_vertex("tri", types)
    bdarts = []
    for d in darts:
        b = w.new_dart(w.etype[d])
        w.connect(d, b)
        bdarts.append(b)
    w.boundary = bdarts
    w.n_in = n_in
    return w


def merge_vertex_web() -> Web:
    """Two singles in, one double out."""
    return vertex_web(2, ["s", "s"], ["d"])


def split_vertex_web() -> Web:
    """One double in, two singles out."""
    return vertex_web(1, ["d"], ["s", "s"])


def crossing_web(positive: bool = True) -> Web:
    """Crossing of two single strands, two in and two out.

    ``positive`` means the strand entering at the bottom-left passes over.
    Legs are stored counterclockwise from the bottom-left; the extra datum
    records which cyclic diagonal (0 = legs 0,2) is the over-strand.
    """
    w = Web()
    _, darts = w.add_vertex("cross", ["s"] * 4, extra=("over", 0 if positive else 1))
    bdarts = [w.new_dart("s") for _ in darts]
    for d, b in zip(darts, bdarts):
        w.connect(d, b)
    w.boundary = bdarts
    w.n_in = 2
    return w


def clasp_box_web(n: int) -> Web:
    """Opaque clasp box of weight (n, 0) as a morphism on n single strands
    (inputs bottom, outputs top)."""
    w = Web()
    _, darts = w.add_vertex("clasp", ["s"] * (2 * n), extra=(n,))
    bdarts = [w.new_dart("s") for _ in darts]
    for d, bd in zip(darts, bdarts):
        w.connect(d, bd)
    w.boundary = bdarts
    w.n_in = n
    return w


# -- gluing operations ------------------------------------------------------------


def _merge_into(dst: Web, src: Web):
    """Disjoint union; returns dart translation map for src."""
    dmap = {}
    vmap = {}
    for v in src.vkind:
        vmap[v] = dst._next_vertex
        dst._next_vertex += 1
    for d in src.etype:
        dmap[d] = dst._next_dart
        dst._next_dart += 1
    for d, t in src.etype.items():
        dst.etype[dmap[d]] = t
        v = src.dart_vertex[d]
        dst.dart_vertex[dmap[d]] = None if v is None else vmap[v]
    for v in src.vkind:
        dst.vkind[vmap[v]] = src.vkind[v]
        dst.vextra[vmap[v]] = src.vextra[v]
        dst.vlegs[vmap[v]] = [dmap[d] for d in src.vlegs[v]]
    for d, p in src.pair.items():
        dst.pair[dmap[d]] = dmap[p]
    for t in src.free_loops:
        dst.add_free_loop(t)
    return dmap


def _join_boundary_darts(w: Web, a: int, b: int):
    """Connect two boundary-anchored darts of w, eliminating pass-through
    strands.  Degenerate joins produce free loops."""
    w._ckey = None
    pa, pb = w.pair.get(a), w.pair.get(b)
    if pa is None or pb is None:
        raise AssertionError("boundary dart lost its pairing")
    t = w.etype[a]
    if w.etype[b] != t:
        raise BoundaryMismatch(f"cannot glue {w.etype[a]!r} to {w.etype[b]!r}")
    for d in (a, b):
        w.pair.pop(d, None)
        del w.etype[d]
        del w.dart_vertex[d]
    if pa == b:  # the anchors were the two ends of one strand: it closes up
        w.add_free_loop(t)
        return
    w.pair[pa] = pb
    w.pair[pb] = pa


def compose(top: Web, bottom: Web) -> Web:
    """Stack ``top`` after ``bottom`` (top ∘ bottom as morphisms)."""
    if bottom.out_types() != top.in_types():
        raise BoundaryMismatch(
            f"compose mismatch: {bottom.out_types()} vs {top.in_types()}")
    w = bottom.copy()
    dmap = _merge_into(w, top)
    pairs = list(zip(bottom.outputs(), [dmap[d] for d in top.inputs()]))
    new_boundary = w.boundary[:w.n_in] + [dmap[d] for d in top.boundary[top.n_in:]]
    for a, b in pairs:
        _join_boundary_darts(w, a, b)
    w.boundary = new_boundary
    return w


def tensor(left: Web, right: Web) -> Web:
    w = left.copy()
    dmap = _merge_into(w, right)
    w.boundary = (w.boundary[:w.n_in]
                  + [dmap[d] for d in right.boundary[:right.n_in]]
                  + [dmap[d] for d in right.boundary[right.n_in:]]
                  + w.boundary[w.n_in:])
    w.n_in = w.n_in + right.n_in
    return w


def mirror(w: Web) -> Web:
    """Reflect the diagram; inputs and outputs swap, rotations reverse and
    crossings flip over/under."""
    out = w.copy()
    for v in out.vlegs:
        out.vlegs[v] = list(reversed(out.vlegs[v]))
        # 'cross' extras stay put: reversing the rotation moves the over
        # strand to the other diagonal slot while the reflection swaps over
        # and under, so the stored flag is unchanged.  The clasp side split
        # is likewise preserved by pure reversal.
    out.boundary = list(reversed(w.boundary))
    out.n_in = len(w.boundary) - w.n_in
    return out


def trace_closure(w: Web) -> Web:
    """Close an endomorphism web into the annulus (diagrammatic trace)."""
    if w.in_types() != w.out_types():
        raise BoundaryMismatch("trace of a non-endomorphism web")
    out = w.copy()
    ins = out.inputs()
    outs = out.outputs()
    out.boundary = []
    out.n_in = 0
    for a, b in zip(ins, outs):
        _join_boundary_darts(out, a, b)
    return out


def plug(a: Web, b: Web) -> Web:
    """Glue two disks along their entire boundary (a closed pairing).

    ``b``'s boundary word must be the reverse of ``a``'s, type-wise; position
    i of ``a`` glues to position -1-i of ``b``.  Used for closed pairings of a
    web against a mirrored test web.
    """
    ta = [a.etype[d] for d in a.boundary]
    tb = [b.etype[d] for d in b.boundary]
    if ta != list(reversed(tb)):
        raise BoundaryMismatch(f"plug mismatch: {ta} vs {tb}")
    w = a.copy()
    dmap = _merge_into(w, b)
    pairs = [(da, dmap[db]) for da, db in zip(a.boundary, reversed(b.boundary))]
    w.boundary = []
    w.n_in = 0
    for x, y in pairs:
        _join_boundary_darts(w, x, y)
    return w
