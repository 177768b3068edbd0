"""Detection of mapping classes: graph geodesics, comparison labelings and
minimal levels.

The scenario: a curve is presented as a closed non-backtracking walk on a
trivalent spine (the geometric step producing such a walk is outside this
package).  The walk's edge multiplicities give the comparison labeling
(p_e, 0); the complexity m is the largest vertex sum of multiplicities; and
detection at level k requires every edge label to be simple (p_e <= k) and
every vertex triple to span a nonzero invariant space at level k, as
Kac-Walton fusion (``cat.triple_multiplicity``) decides; for these labels
that means an admissible triple with a+b+c <= 2k.  When all checks pass, the
comparison basis vector appears with a nonzero coefficient in the state
vector of the pushed-in curve, so the curve operator distinguishes the
mapping class from the identity; the certificate records that argument step
by step.

On the torus everything is computable outright: a twist power is detected at
level k exactly when the twist eigenvalues fail to be projectively constant,
which is pure root-of-unity arithmetic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .cat import is_simple_at, q_order, simples, triple_multiplicity, twist_exponent
from .tqft import Spine


class NotGraphGeodesic(ValueError):
    """The walk backtracks (exits a vertex through its entering edge)."""


class LevelTooSmall(ValueError):
    """A detection check fails at the requested level."""

    def __init__(self, check: str, detail: str):
        super().__init__(f"{check}: {detail}")
        self.check = check
        self.detail = detail


@dataclass(frozen=True)
class CurveWalk:
    """Closed walk on a spine, as (vertex, outgoing edge) steps.

    Step i says the walk is at ``vertex`` and leaves along ``edge``; the edge
    must connect step i's vertex to step i+1's vertex (cyclically).  On the
    circle spine the walk is just a winding number, encoded separately.
    """
    spine: Spine
    steps: tuple

    def __post_init__(self):
        if not self.steps:
            raise ValueError("a curve walk must be nonempty")
        self.spine.validate()
        edges = self.spine.edges
        n = len(self.steps)
        for i, (v, e) in enumerate(self.steps):
            if not (0 <= e < len(edges)):
                raise ValueError(f"step {i} uses a missing edge {e}")
            u, w = edges[e]
            if v not in (u, w):
                raise ValueError(f"step {i} leaves vertex {v} along "
                                 f"non-incident edge {e}")
            nxt = self.steps[(i + 1) % n][0]
            expect = w if v == u else u
            if v == u == w:
                expect = v
            if nxt != expect:
                raise ValueError(f"step {i} along edge {e} should arrive at "
                                 f"{expect}, walk continues at {nxt}")

    def edge_sequence(self):
        return [e for _, e in self.steps]

    def to_json(self):
        return {"schema": "c2spider/walk/1",
                "steps": [[v, e] for v, e in self.steps]}

    @staticmethod
    def from_json(data, spine: Spine) -> "CurveWalk":
        """The walk of a ``to_json`` record on the spine.  A missing or
        malformed ``steps`` field raises ValueError naming it."""
        try:
            steps = tuple((int(v), int(e)) for v, e in data["steps"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ValueError(f"walk field 'steps' is missing or malformed "
                             f"({type(exc).__name__}: {exc})") from exc
        return CurveWalk(spine, steps)


def check_graph_geodesic(walk: CurveWalk):
    """None if the walk never exits a vertex along its entering edge, else
    the offending step index."""
    seq = walk.edge_sequence()
    n = len(seq)
    for i in range(n):
        if seq[i] == seq[(i + 1) % n]:
            return (i + 1) % n
    return None


def complexity(walk: CurveWalk):
    """Edge multiplicities and the maximal vertex sum (loops count twice)."""
    bad = check_graph_geodesic(walk)
    if bad is not None:
        raise NotGraphGeodesic(f"walk backtracks at step {bad}")
    p = {e: 0 for e in range(len(walk.spine.edges))}
    for e in walk.edge_sequence():
        p[e] += 1
    m = 0
    for ends in walk.spine.vertex_edge_ends():
        m = max(m, sum(p[e] for e in ends))
    return p, m


def _vertex_triples(walk: CurveWalk, p: dict) -> list:
    """Sorted multiplicity triple at each vertex (a loop counts twice)."""
    triples = [tuple(sorted(p[e] for e in ends))
               for ends in walk.spine.vertex_edge_ends()]
    for v, t in enumerate(triples):
        if sum(t) % 2:
            raise ValueError(f"vertex {v} has odd multiplicity sum {t}; "
                             "the input is not a closed walk")
    return triples


def _empty_vertex(triples: list, k: int):
    """First vertex whose space (a,0) (x) (b,0) (x) (c,0) has Kac-Walton
    multiplicity 0 at level k, or None.  Labels must be at most k."""
    return next((v for v, (a, b, c) in enumerate(triples)
                 if not triple_multiplicity((a, 0), (b, 0), (c, 0), level=k)),
                None)


@dataclass
class Certificate:
    """The detection argument for a walk at a level: labels, vertex triples
    with nonzero Kac-Walton spaces, notes and the optional vertex thetas."""
    spine: Spine
    walk: CurveWalk
    level: int
    edge_labels: dict
    vertex_triples: list     # (vertex, (pe, pf, pg)), each space nonzero
    complexity_m: int
    conclusion: str
    notes: list = field(default_factory=list)
    numeric_checks: list = field(default_factory=list)

    def to_json(self):
        return {
            "schema": "c2spider/certificate/3",
            "spine": self.spine.to_json(),
            "walk": self.walk.to_json(),
            "level": self.level,
            "q_order": q_order(self.level),
            "edge_labels": {str(e): list(l) for e, l in self.edge_labels.items()},
            "vertex_triples": [{"vertex": v, "triple": list(t)}
                               for v, t in self.vertex_triples],
            "complexity": self.complexity_m,
            "conclusion": self.conclusion,
            "notes": self.notes,
            "numeric_checks": self.numeric_checks,
        }


def certify_detection(walk: CurveWalk, k: int, numeric: bool = False,
                      ctx=None) -> Certificate:
    """Run the detection argument at level k and emit the certificate.

    Checks, in order: the walk is a graph geodesic; every edge label (p_e, 0)
    is simple at level k (``cat.is_simple_at``); every vertex triple spans a
    nonzero invariant space at level k by Kac-Walton fusion.  The conclusion
    records why the comparison coefficient is nonzero: the identity tangle on
    each edge factors with the top clasp appearing once, each vertex space is
    one-dimensional and nonvanishing at this level, and braidings contribute
    only nonzero scalars, so the state vector of the pushed-in curve is not
    proportional to the empty labeling.  With ``numeric`` the theta of every
    vertex the walk passes through is also specialized at the root of order
    4k+12 through ``clasp.theta_at``, which refuses clasp poles.
    """
    if k < 1:
        raise ValueError("level must be at least 1")
    p, m = complexity(walk)
    labels = {e: (p[e], 0) for e in sorted(p)}
    for e, (pe, _) in labels.items():
        if not is_simple_at((pe, 0), k):
            raise LevelTooSmall(
                "edge-label", f"edge {e} carries ({pe},0) but {pe} > k = {k}")
    triples = _vertex_triples(walk, p)
    v = _empty_vertex(triples, k)
    if v is not None:
        raise LevelTooSmall("vertex-space",
                            f"vertex {v} triple {triples[v]} has Kac-Walton "
                            f"multiplicity 0 at level {k}")
    notes = [
        "input assumption: the walk encodes the image curve of a mapping "
        "class applied to a curve bounding a disk in the handlebody, not "
        "isotopic to it",
        "edge factorization: the identity tangle on p_e strands contains the "
        "(p_e, 0) clasp with coefficient 1 at this level",
        "vertex spaces are one-dimensional; the graph-geodesic property "
        "rules out strands returning to their entry boundary component, so "
        "each vertex skein is a nonzero multiple of the basis vector and "
        "braidings only contribute powers of the crossing unit",
        "the disk-bounding curve acts by the loop value (the quantum "
        "dimension of (1,0) in the engine's sign convention), so unequal "
        "curve operators separate the mapping class from the identity",
    ]
    numeric_checks = []
    if numeric:
        from .clasp import theta_at, default_context
        ctx = ctx or default_context()
        for v, t in enumerate(triples):
            if sum(t):
                nonzero = not theta_at(*t, q_order(k), ctx).is_zero()
                numeric_checks.append({"vertex": v, "triple": list(t),
                                       "theta_nonzero": nonzero})
                if not nonzero:
                    raise LevelTooSmall("numeric-theta",
                                        f"vertex {v} triangle evaluates to zero")
    return Certificate(
        spine=walk.spine, walk=walk, level=k, edge_labels=labels,
        vertex_triples=list(enumerate(triples)), complexity_m=m,
        conclusion="detected", notes=notes, numeric_checks=numeric_checks)


# -- the torus experiment ----------------------------------------------------------


def torus_detection(n: int, k: int) -> bool:
    """Does the n-th twist power act projectively nontrivially at level k?"""
    if n == 0:
        raise ValueError("the zero twist power is central")
    if n != int(n):
        raise ValueError(f"twist powers must be integers, got {n}")
    order = q_order(k)
    exps = [twist_exponent(w) for w in simples(k)]
    base = exps[0]
    return any((n * (e - base)) % order for e in exps)


def min_detect_level(n: int) -> int:
    """The least level k >= 1 at which the n-th twist power is detected.

    The search ends: the simple (1,0) is in the alcove at every k >= 1, with
    twist exponent 5 against the vacuum's 0, and 5n is nonzero mod 4k+12
    once 4k+12 > 5|n|, so k <= max(1, ceil((5|n| - 11) / 4)).
    """
    if n == 0:
        raise ValueError("the zero twist power is central")
    k = 1
    while not torus_detection(n, k):
        k += 1
    return k


# -- randomized scenario generation ---------------------------------------------------


def random_spine(genus: int, rng: random.Random) -> Spine:
    """Random connected trivalent multigraph of the given genus >= 2."""
    if genus < 2:
        raise ValueError("use the circle spine for genus 1")
    n_vertices = 2 * genus - 2
    ends = [v for v in range(n_vertices) for _ in range(3)]
    while True:
        rng.shuffle(ends)
        edges = tuple(sorted((min(a, b), max(a, b))
                             for a, b in zip(ends[::2], ends[1::2])))
        sp = Spine(n_vertices, edges)
        try:
            sp.validate()
        except ValueError:
            continue
        return sp


def random_geodesic_walk(spine: Spine, rng: random.Random,
                         max_m: int = 12, tries: int = 2000):
    """Random closed non-backtracking walk with complexity at most max_m."""
    edges = spine.edges
    incident = [[] for _ in range(spine.n_vertices)]
    for idx, (u, v) in enumerate(edges):
        incident[u].append(idx)
        if v != u:
            incident[v].append(idx)
    for _ in range(tries):
        v0 = rng.randrange(spine.n_vertices)
        first = rng.choice(incident[v0])
        steps = [(v0, first)]
        v = _other_end(edges, first, v0)
        length = rng.randint(2, 4 * len(edges))
        ok = True
        for _ in range(length - 1):
            options = [e for e in incident[v] if e != steps[-1][1]]
            if not options:
                ok = False
                break
            e = rng.choice(options)
            steps.append((v, e))
            v = _other_end(edges, e, v)
        if not ok or v != v0:
            continue
        # each step leaves by another edge than it came, so only the wrap
        # can backtrack, and complexity() checks the walk once more
        if steps[-1][1] == first:
            continue
        walk = CurveWalk(spine, tuple(steps))
        _, m = complexity(walk)
        if m <= max_m:
            return walk
    return None


def _other_end(edges, e, v):
    u, w = edges[e]
    return w if v == u else u
