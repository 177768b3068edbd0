"""Small constructors and oracles that only the tests use."""

from fractions import Fraction

from c2spider import clasp as cl
from c2spider import engine as eng
from c2spider import faithful as ff
from c2spider import web as wb
from c2spider.ring import CycNumber, RationalFunction, _galois, _raw
from c2spider.tqft import Spine


def loop_web(etype="s") -> wb.Web:
    """The web of one free loop of the given strand type."""
    w = wb.Web()
    w.add_free_loop(etype)
    return w


def e_at(n, i) -> wb.Web:
    """The cap-cup E on strands i, i+1 of n single strands."""
    return cl._at(n, i, wb.compose(wb.cup_web("s"), wb.cap_web("s")))


def g_at(n, i) -> wb.Web:
    """The double-edge bridge G on strands i, i+1 of n single strands."""
    return cl._at(n, i, wb.compose(wb.split_vertex_web(), wb.merge_vertex_web()))


def settle(web):
    """The web with the engine's box rules applied until none applies, or
    None when a box meets a turnback: the box half of ``engine._local_step``
    looped to a fixpoint.  Crossings are left alone."""
    while True:
        rules = [eng._box_rule(web, v) for v in eng._box_positions(web)]
        if "dead" in rules:
            return None
        rewrite = next(filter(None, rules), None)
        if rewrite is None:
            return web
        web = eng._splice(web, *rewrite)[0]


def resolve_fully(web, table) -> list:
    """(coefficient, web) pairs without crossings, unmerged: every crossing
    smoothed by ``engine.resolve_crossings``, lowest first, without looking
    at the boxes.  The eager resolution that lazy smoothing is checked
    against."""
    out, stack = [], [(RationalFunction.coerce(1), web)]
    while stack:
        coeff, w = stack.pop()
        pieces = eng.resolve_crossings(w, table)
        if pieces is None:
            out.append((coeff, w))
        else:
            stack.extend((coeff * k, w2) for k, w2 in pieces)
    return out


def scalar(ws) -> RationalFunction:
    """Coefficient of the empty web in a fully reduced closed sum."""
    if not ws.terms:
        return RationalFunction.coerce(0)
    if len(ws.terms) != 1:
        raise ValueError("sum is not a multiple of the empty web")
    (c, w), = list(ws)
    if w.n_vertices() or w.boundary or w.free_loops:
        raise ValueError("sum is not a multiple of the empty web")
    return c


def conj(x: CycNumber) -> CycNumber:
    """Galois conjugation q -> q^-1 (complex conjugation on any embedding).
    Automorphisms map Z[q]/Phi_N onto itself, so the content of num and
    hence the lowest terms are kept."""
    return _raw(x.order, tuple(_galois(x.num, -1, x.order)), x.den)


def torus() -> Spine:
    """The spine of the torus: the vertexless circle."""
    return Spine(0, (), circle=True)


def dumbbell() -> Spine:
    """The genus-2 spine of two loops joined by a bridge."""
    return Spine(2, ((0, 0), (0, 1), (1, 1)))


def eval_at_one(p) -> Fraction:
    """A Laurent polynomial at q = 1."""
    return sum(p.terms.values(), Fraction(0))


def as_laurent(r):
    """A rational function that is a Laurent polynomial, as that polynomial."""
    assert r.is_poly(), r
    return r.num


def min_level(walk: ff.CurveWalk) -> int:
    """Smallest k >= max(p_e, 1) at which Kac-Walton fusion finds no empty
    vertex space.  A graph geodesic has admissible triples, so the search
    stops once every vertex sum is at most 2k."""
    p, _ = ff.complexity(walk)
    triples = ff._vertex_triples(walk, p)
    k = max(max(p.values()), 1)
    while ff._empty_vertex(triples, k) is not None:
        k += 1
    return k


def dominates(x, y) -> bool:
    """Partial order generated by (a,b) > (a-2, b+1) and (a,b) > (a+2, b-2);
    equivalently x - y is a nonnegative integer combination of the simple
    roots written in (a, b) coordinates."""
    dx = x[0] - y[0]
    dy = x[1] - y[1]
    if dx % 2:
        return False
    return dx + dy >= 0 and dx // 2 + dy >= 0


def proportional(a, b):
    """The scalar c with a = c * b for matrices a and b, or None."""
    c = None
    for ra, rb in zip(a, b):
        for x, y in zip(ra, rb):
            if y.is_zero():
                if not x.is_zero():
                    return None
                continue
            r = x / y
            if c is None:
                c = r
            elif c != r:
                return None
    return c


def mat_identity(n, order):
    """The n x n identity matrix over the order-N cyclotomic field."""
    return [[CycNumber.one(order) if i == j else CycNumber.zero(order)
             for j in range(n)] for i in range(n)]


def mat_scale_columns(a, diag):
    """a times the diagonal matrix with entries diag."""
    return [[x * d for x, d in zip(row, diag)] for row in a]
