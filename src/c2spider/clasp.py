"""Clasps: the quantum projectors of type (n, 0) and their networks.

A clasp of weight (n, 0) is the unique idempotent on n single strands that
kills every turnback (the cap-cup on adjacent strands and the trivalent
turnback emitting a double edge).  Expansion follows the two-term recursive
structure

    P_n = P_{n-1} (x) 1  +  c1 . P E P  +  c2 . P G P

with E the adjacent cap-cup and G the adjacent double-edge bridge.  The
coefficients have a closed form in quantum integers [m],

    c1(n) = [n+1][2n-2] / ([2][n][2n+2]),    c2(n) = [n-1] / ([2][n]),

the single-clasp recursion for B2 (D. Kim, "Jones-Wenzl idempotents for
rank 2 simple Lie algebras", Osaka J. Math. 44, 2007; the web calculus is
G. Kuperberg, "Spiders for rank 2 Lie algebras", Comm. Math. Phys. 180,
1996).  In the normalization of the frozen relation table these are exactly
the solutions of the annihilation conditions; tests/test_clasp.py checks
that by solving the conditions with closed pairings.  Flat expansions are
memoized on disk keyed by the relation-table hash.

Clasps of mixed weight (a, b) with a, b > 0 exist as labels but are never
expanded; double-type clasps expand only for n <= 1 (the identity cases).

Inside diagrams clasps stay opaque boxes for as long as possible: a term dies
as soon as any box sees an adjacent-leg cap or an adjacent-leg trivalent
vertex on one side, which is what makes theta networks tractable.  A single
box (n, 0) with n >= 2 is expanded by the recursion at the level of boxes,
T0 + c1 T0 E T0 + c2 T0 G T0 with T0 a box of n-1 beside a strand, as
recoupling theory does it (L. Kauffman and S. Lins, "Temperley-Lieb
Recoupling Theory and Invariants of 3-Manifolds", 1994).  That is the one
expansion path: the flat P_n of ``clasp_expand`` is the same recursion
applied to a single open box, and no network ever holds it.  The flat sum
serves the CLI, ``turnback_kill`` and ``idempotent``.

A braid acts on P_n by A^c, c its signed crossing count, and the identity
factorizes exactly: sigma_g P_n = A^(+-1) P_n for each letter gives the
whole word by composition, so each generator is proven once per table.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import engine as eng
from . import web as wb
from .cache import ClaspCache
from .engine import WebSum, eval_closed, reduce_sum, sum_compose, sum_is_zero
from .ring import (CycNumber, DenominatorVanishes, RationalFunction,
                   cyclotomic_orders, qint, specialize)
from .rules import RuleTable, default_table

_ONE = RationalFunction.coerce(1)
_ZERO = RationalFunction.coerce(0)


@dataclass(frozen=True)
class ClaspLabel:
    a: int
    b: int

    def __post_init__(self):
        if self.a < 0 or self.b < 0:
            raise ValueError("clasp weight components must be nonnegative")

    @property
    def expandable(self) -> bool:
        return self.a == 0 or self.b == 0


# -- strand-level building blocks ----------------------------------------------


def _id(n):
    return wb.id_web(["s"] * n)


def _at(n, i, piece):
    """piece acting on strands i, i+1 of n single strands."""
    return wb.tensor(wb.tensor(_id(i), piece), _id(n - i - 2))


def cap_at(n, i):
    return _at(n, i, wb.cap_web("s"))


def cup_at(n, i):
    return _at(n, i, wb.cup_web("s"))


def merge_at(n, i):
    return _at(n, i, wb.merge_vertex_web())


def split_at(n, i):
    return _at(n, i, wb.split_vertex_web())


def e_at(n, i):
    return _at(n, i, wb.compose(wb.cup_web("s"), wb.cap_web("s")))


def g_at(n, i):
    return _at(n, i, wb.compose(wb.split_vertex_web(), wb.merge_vertex_web()))


def rainbow_caps(k):
    """V^(2k) -> nothing, pairing input t with input 2k-1-t."""
    w = wb.Web()
    darts = [w.new_dart("s") for _ in range(2 * k)]
    for t in range(k):
        w.connect(darts[t], darts[2 * k - 1 - t])
    w.boundary = darts
    w.n_in = 2 * k
    return w


# -- expansion -----------------------------------------------------------------


_MEMO = {}


class ClaspContext:
    """Holds the relation table and the persistent cache for expansions."""

    def __init__(self, table: RuleTable = None, cache: ClaspCache = None):
        self.table = table or default_table()
        if cache is None:
            cache = ClaspCache(table_hash=self.table.table_hash())
        self.cache = cache

    def _key(self, n, kind):
        # named after the expansion path: earlier versions wrote other sums
        # of the same P_n under "clasp-{kind}-{n}", and those are never read
        return f"clasp-box-{kind}-{n}"


_DEFAULT_CTX = None


def default_context() -> ClaspContext:
    global _DEFAULT_CTX
    if _DEFAULT_CTX is None:
        _DEFAULT_CTX = ClaspContext()
    return _DEFAULT_CTX


def _websum_to_json(ws: WebSum):
    return {"schema": "c2spider/websum/1",
            "terms": [{"coeff": c.to_json(), "web": w.to_json()} for c, w in ws]}


def _websum_from_json(data) -> WebSum:
    out = WebSum()
    for t in data["terms"]:
        out.add(RationalFunction.from_json(t["coeff"]), wb.Web.from_json(t["web"]))
    return out


def clasp_expand(n: int, kind: str = "single", ctx: ClaspContext = None) -> WebSum:
    """The projector on n parallel strands as a sum of plain webs: for
    n >= 2, ``expand_boxes`` of one open box, memoized in process and on disk."""
    if n < 0:
        raise ValueError("strand count must be nonnegative")
    ctx = ctx or default_context()
    if kind == "double":
        if n == 0:
            return WebSum.from_web(wb.empty_web())
        if n == 1:
            return WebSum.from_web(wb.id_web(["d"]))
        raise NotImplementedError(
            "no recursive expansion is implemented for double-type clasps "
            "beyond one strand; they participate as labels only")
    if kind != "single":
        raise ValueError(f"unknown clasp kind {kind!r}")
    memo_key = (ctx.table.table_hash(), kind, n)
    if memo_key in _MEMO:
        return _MEMO[memo_key]
    cached = ctx.cache.get(ctx._key(n, kind)) if n >= 2 else None
    if n <= 1:
        ws = WebSum.from_web(_id(n))
    elif cached is not None:
        ws = _websum_from_json(cached)
    else:
        ws = expand_boxes(wb.clasp_box_web(n), ctx)
        ctx.cache.put(ctx._key(n, kind), _websum_to_json(ws))
    _MEMO[memo_key] = ws
    return ws


def recursion_coefficients(n: int):
    """The correction coefficients (c1, c2) in the two-term recursion for P_n,
    n >= 2, in closed form (see the module docstring)."""
    if n < 2:
        raise ValueError("the recursion starts at two strands")
    c1 = RationalFunction(qint(n + 1) * qint(2 * n - 2),
                          qint(2) * qint(n) * qint(2 * n + 2))
    c2 = RationalFunction(qint(n - 1), qint(2) * qint(n))
    return c1, c2


def clasp_poles(n: int) -> frozenset:
    """The orders N of the roots of unity at which P_n does not exist.

    The recursion builds P_n from the coefficients c1(m) and c2(m) for
    2 <= m <= n, so N is a pole order when Phi_N divides the reduced
    denominator of one of them.  Nothing is expanded.  P_0 and P_1 are
    identities and have none.
    """
    if n < 0:
        raise ValueError("strand count must be nonnegative")
    return frozenset().union(*(cyclotomic_orders(c.den)
                               for m in range(2, n + 1)
                               for c in recursion_coefficients(m)))


# -- axioms and verification ------------------------------------------------------


def turnback_kill(n: int, ctx: ClaspContext = None) -> dict:
    """Verify that every elementary turnback annihilates the clasp.

    Returns {position: {"cap": bool, "vertex": bool}}; all True means pass.
    For n = 1 there are no turnbacks and the report is empty (vacuous pass).
    """
    ctx = ctx or default_context()
    p = clasp_expand(n, "single", ctx)
    report = {}
    for i in range(n - 1):
        capped = reduce_sum(sum_compose(WebSum.from_web(cap_at(n, i)), p),
                            table=ctx.table)
        merged = reduce_sum(sum_compose(WebSum.from_web(merge_at(n, i)), p),
                            table=ctx.table)
        report[i] = {"cap": sum_is_zero(capped, table=ctx.table),
                     "vertex": sum_is_zero(merged, table=ctx.table)}
    return report


def idempotent(n: int, ctx: ClaspContext = None) -> bool:
    """Engine verification that the clasp squares to itself.

    For n <= 3 the two expansions are composed and compared directly.  For
    larger n the same identity is verified through its exact factorization:
    with P = T0 + c1 T1 + c2 T2 and T0 = P' (x) 1, idempotence of P' gives
    P T0 = P and P Ti = (P . turnback) . rest, so P P - P vanishes exactly
    when the two mirrored turnbacks annihilate P from below.  Each of those
    is an engine-computed zero test, and the inductive base is the direct
    check; this keeps the verification exact while avoiding the quadratic
    blowup of composing the full expansions.
    """
    ctx = ctx or default_context()
    p = clasp_expand(n, "single", ctx)
    if n <= 3:
        pp = reduce_sum(sum_compose(p, p), table=ctx.table)
        return eng.sums_equal(pp, p, table=ctx.table)
    if not idempotent(n - 1, ctx):
        return False
    below_cap = reduce_sum(sum_compose(p, WebSum.from_web(cup_at(n, n - 2))),
                           table=ctx.table)
    below_vertex = reduce_sum(sum_compose(p, WebSum.from_web(split_at(n, n - 2))),
                              table=ctx.table)
    return sum_is_zero(below_cap, table=ctx.table) and \
        sum_is_zero(below_vertex, table=ctx.table)


# -- clasp boxes inside webs ---------------------------------------------------------


def _box_positions(web):
    return [v for v in sorted(web.vkind) if web.vkind[v] == "clasp"]


def _box_is_dead(web, v) -> bool:
    """Adjacent-leg cap or adjacent-leg trivalent vertex on one side of the box."""
    a, b, n = web.vextra[v]
    legs = web.vlegs[v]
    for side in (legs[:n], legs[n:]):
        for t in range(len(side) - 1):
            u1 = web.pair[side[t]]
            u2 = web.pair[side[t + 1]]
            if u1 == side[t + 1]:
                return True
            v1 = web.dart_vertex.get(u1)
            if v1 is not None and v1 == web.dart_vertex.get(u2) \
                    and web.vkind[v1] == "tri":
                return True
    return False


def _box_straighten_step(web):
    """One application of the derived axiom: a sideways double-edge bridge
    whose two feet stand on adjacent legs of a clasp box straightens to
    parallel strands (the square relation is monic, and its other two
    components die as turnbacks).  Returns the rewritten web or None."""
    for v in _box_positions(web):
        a, b, n = web.vextra[v]
        legs = web.vlegs[v]
        for side in (legs[:n], legs[n:]):
            for t in range(len(side) - 1):
                u1 = web.pair[side[t]]
                u2 = web.pair[side[t + 1]]
                va = web.dart_vertex.get(u1)
                vb = web.dart_vertex.get(u2)
                if va is None or vb is None or va == vb:
                    continue
                if web.vkind.get(va) != "tri" or web.vkind.get(vb) != "tri":
                    continue
                da = next(d for d in web.vlegs[va] if web.etype[d] == "d")
                if web.pair[da] not in web.vlegs[vb]:
                    continue
                sa = next(d for d in web.vlegs[va] if d not in (u1, da))
                db = web.pair[da]
                sb = next(d for d in web.vlegs[vb] if d not in (u2, db))
                mini = ((), ((("x", 0), ("x", 1), "s"), (("x", 2), ("x", 3), "s")))
                return eng._splice(web, {va, vb}, [u1, sa, u2, sb], [mini])[0]
    return None


def _box_absorb_step(web):
    """Merge two stacked clasp boxes of equal weight (idempotent absorption)."""
    boxes = _box_positions(web)
    for v in boxes:
        a, b, n = web.vextra[v]
        legs = web.vlegs[v]
        outs = legs[n:]
        target = web.dart_vertex.get(web.pair[outs[0]])
        if target is None or target == v or web.vkind.get(target) != "clasp":
            continue
        if web.vextra[target][:2] != (a, b):
            continue
        tlegs = web.vlegs[target]
        # v's output j sits at legs[2n-1-j]; it must feed target's input j
        if all(web.pair[legs[2 * n - 1 - j]] == tlegs[j] for j in range(n)):
            mini = ((), tuple(
                (("x", j), ("x", 2 * n - 1 - j), web.etype[tlegs[j]])
                for j in range(n)))
            return eng._splice(web, {target}, list(tlegs), [mini])[0]
    return None


def _settle(web):
    """Straighten and absorb at the boxes until neither applies; None as soon
    as a box meets a turnback."""
    while True:
        if any(_box_is_dead(web, v) for v in _box_positions(web)):
            return None
        rewritten = _box_straighten_step(web) or _box_absorb_step(web)
        if rewritten is None:
            return web
        web = rewritten


def _recursion_webs(n):
    """The recursion for P_n, n >= 2, at the level of boxes: the webs
    T0 = P_{n-1} (x) 1, T0 E T0 and T0 G T0 with coefficients 1, c1, c2.

    The only statement of the recursion.  Reduced webs are dependent, so
    the expansion order picks one of many equal sums, and the lower copy of
    P_{n-1} in a sandwich must go first: then P_4 has 110 terms and
    cap_at(4, 0) and merge_at(4, 0) on it reduce to no term, so no pairing
    runs; upper copy first, P_4 has 112 and those keep 23 and 24 terms, and
    the clasp-cold benchmark takes 1.10 s, not 0.67 s, on a 2-core host.
    A sandwich is symmetric top to bottom, so its mirror is the same diagram
    with the lower copy the newer vertex, which ``expand_boxes`` picks first
    among equal boxes.
    """
    t0 = wb.tensor(wb.clasp_box_web(n - 1), _id(1)) if n > 2 else _id(2)
    c1, c2 = recursion_coefficients(n)

    def sandwich(middle):
        return eng.to_mini(wb.mirror(wb.compose(t0, wb.compose(middle, t0))))

    return [(_ONE, eng.to_mini(t0)),
            (c1, sandwich(e_at(n, n - 2))), (c2, sandwich(g_at(n, n - 2)))]


def expand_boxes(ws, ctx: ClaspContext = None, budget: int = 10 ** 6) -> WebSum:
    """Replace every clasp box by its expansion, interleaving reduction and
    turnback pruning; the result is a sum of plain webs.

    A single box (n, 0), n >= 2, is replaced by the three webs of
    ``_recursion_webs``, whose boxes of n-1 are expanded in turn; only boxes
    of at most one strand and double-type boxes are replaced by the flat
    ``clasp_expand``, an identity web there; ``clasp_expand`` itself is
    this function on one open box.  Each spliced piece is settled before it
    is reduced, so a piece in which a box meets a turnback is dropped
    before it is keyed.  The smallest box is expanded first, the newest among equals: on
    a 2-core host theta(4,4,4) takes 0.8 s this way, 4.2 s oldest first.
    """
    ctx = ctx or default_context()
    if isinstance(ws, wb.Web):
        ws = WebSum.from_web(ws)
    # the box-level recursion of every single box size that can occur
    top = max((w.vextra[v][0] for _, w in ws for v in _box_positions(w)
               if w.vextra[v][1] == 0), default=1)
    recursion = {n: _recursion_webs(n) for n in range(2, top + 1)}
    out = WebSum.zero()
    stack = list(ws)
    while stack:
        coeff, web = stack.pop()
        web = _settle(web)
        if web is None:
            continue
        boxes = _box_positions(web)
        if not boxes:
            out.add(coeff, web)
            continue
        v = min(boxes, key=lambda x: (web.vextra[x][0] + web.vextra[x][1], -x))
        a, b, n_in = web.vextra[v]
        if b == 0 and a >= 2:
            expansion = recursion[a]
        else:
            expansion = [(c, eng.to_mini(d)) for c, d in
                         clasp_expand(a + b, "single" if b == 0 else "double", ctx)]
        pieces = eng._splice(web, {v}, list(web.vlegs[v]), [m for _, m in expansion])
        partial = WebSum.zero()
        for (c2, _), piece in zip(expansion, pieces):
            piece = _settle(piece)
            if piece is not None:
                partial.add(coeff * c2, piece)
        reduced = reduce_sum(partial, table=ctx.table, budget=budget, boxes_ok=True)
        stack.extend(reduced)
    return out


def eval_box_web(w, ctx: ClaspContext = None, budget: int = 10 ** 6) -> RationalFunction:
    """Value of a closed web that may contain clasp boxes, memoized under its
    canonical key in the table's eval memo."""
    ctx = ctx or default_context()
    memo = eng.eval_memo(ctx.table)
    key = w.canonical_key()
    if key not in memo:
        memo[key] = sum((coeff * eval_closed(plain, table=ctx.table, budget=budget)
                         for coeff, plain in expand_boxes(w, ctx, budget)), _ZERO)
    return memo[key]


# -- traces, thetas, braids ----------------------------------------------------------


def clasp_trace(weight, ctx: ClaspContext = None) -> RationalFunction:
    """Close the clasp in an annulus and evaluate (the quantum trace)."""
    ctx = ctx or default_context()
    a, b = weight
    if not ClaspLabel(a, b).expandable:
        raise NotImplementedError("mixed clasps (a,b) with a,b > 0 are labels only")
    if a == 0 and b == 0:
        return _ONE
    if a == 0:
        if b == 1:
            return eval_closed(wb.loop_web("d"), table=ctx.table)
        raise NotImplementedError(
            "double-type clasp traces are implemented for b <= 1 only")
    return eval_box_web(wb.trace_closure(wb.clasp_box_web(a)), ctx)


def _theta_web(a: int, b: int, c: int):
    """The closed network of boxes (a,0), (b,0), (c,0) joined pairwise; the
    triple must be admissible."""
    y_ab = (a + b - c) // 2
    y_ac = (a + c - b) // 2
    y_bc = (b + c - a) // 2

    def box_or_id(n):
        return wb.clasp_box_web(n) if n else wb.empty_web()

    top = wb.tensor(box_or_id(a), box_or_id(b))
    caps = wb.tensor(wb.tensor(_id(y_ac), rainbow_caps(y_ab)), _id(y_bc))
    cups = wb.mirror(caps)
    core = wb.compose(caps, wb.compose(top, cups))
    if c:
        core = wb.compose(core, box_or_id(c))
    return wb.trace_closure(core)


def theta_net(a: int, b: int, c: int, ctx: ClaspContext = None) -> RationalFunction:
    """The closed network of clasps (a,0), (b,0), (c,0) joined pairwise.

    The value is symmetric in the labels, so the network is laid out with
    the largest label first and the smallest second, the order in which box
    expansion prunes soonest: on a 2-core host theta(4,5,5) takes 23 s laid
    out as given and 1.2 s as (5,4,5).
    """
    lo, hi = min(a, b, c), max(a, b, c)
    if lo < 0:
        raise ValueError("theta labels must be nonnegative")
    if (a + b + c) % 2 or 2 * hi > a + b + c:
        return _ZERO
    return eval_box_web(_theta_web(hi, lo, a + b + c - lo - hi), ctx)


class ClaspPole(DenominatorVanishes):
    """A clasp of a network has a pole at the requested root of unity."""


def theta_at(a: int, b: int, c: int, order: int,
             ctx: ClaspContext = None) -> CycNumber:
    """The theta network (a, b, c) at a primitive root of unity of the order.

    Raises ClaspPole when the order is a pole of P_a, P_b or P_c: the network
    does not exist there, although its reduced value in Q(q) may specialize
    to a finite number.
    """
    for n in sorted({a, b, c}):
        if order in clasp_poles(n):
            raise ClaspPole(f"P_{n} has a pole at a root of unity of order "
                            f"{order}, so theta{(a, b, c)} is undefined there")
    return specialize(theta_net(a, b, c, ctx), order)


def triple_space_dim(a: int, b: int, c: int, q_order=None) -> int:
    """Dimension (0 or 1) of the invariant space of three single-type clasps.

    Generic q: 1 iff the triple is admissible (even sum and triangle
    inequalities).  At a root of unity of the given order: additionally the
    order must exceed 2(a+b+c)+4, strictly.  This ``q_order`` answer is the
    hand threshold; it means something only where P_a, P_b and P_c exist
    (see ``clasp_poles``).  It differs from ``cat.triple_multiplicity`` at
    the level k with order 4k+12 when a+b+c = 2k+2, e.g. (2,2,2) at order 20,
    where Kac-Walton fusion and the specialized theta give 0.  No detection
    certificate uses it: ``faithful`` asks ``cat.triple_multiplicity``.
    """
    for x in (a, b, c):
        if x < 0:
            raise ValueError("labels must be nonnegative")
    admissible = ((a + b + c) % 2 == 0 and a + b >= c and a + c >= b
                  and b + c >= a)
    if not admissible:
        return 0
    if q_order is not None and q_order <= 2 * (a + b + c) + 4:
        return 0
    return 1


def braid_web(word, n: int):
    """Braid word as a web: entries are nonzero signed generator indices,
    +i crossing strands (i, i+1) positively, 1-indexed."""
    out = _id(n)
    for g in word:
        if g == 0 or abs(g) >= n:
            raise ValueError(f"bad braid generator {g} on {n} strands")
        layer = _at(n, abs(g) - 1, wb.crossing_web(g > 0))
        out = wb.compose(layer, out)
    return out


def prune_box_sum(ws: WebSum, ctx: ClaspContext = None,
                  budget: int = 10 ** 6) -> WebSum:
    """Reduce a sum of webs containing opaque clasp boxes and crossings,
    dropping every term in which a box meets a turnback.

    A web that meets a box in a turnback is dropped unkeyed; a survivor
    with a crossing has its lowest-id crossing smoothed and the smoothings
    checked in turn, so only crossing-free survivors pay for face reduction.
    """
    ctx = ctx or default_context()
    out = WebSum.zero()
    stack = [(c, w) for c, w in ws]
    while stack:
        coeff, web = stack.pop()
        web = _settle(web)
        if web is None:
            continue
        v = eng._first_vertex(web, "cross")
        if v is not None:
            stack.extend((coeff * k, w2) for k, w2 in eng._smooth(web, v, ctx.table))
            continue
        key = web.canonical_key()
        reduced = reduce_sum(WebSum.from_web(web, coeff), table=ctx.table,
                             budget=budget, boxes_ok=True)
        for c2, w2 in reduced:
            if w2.canonical_key() == key:
                out.add(c2, w2)   # irreducible fixed point of the pipeline
            else:
                stack.append((c2, w2))
    return out


def braid_eigenvalue(word, n: int, ctx: ClaspContext = None,
                     verify: bool = True) -> RationalFunction:
    """The scalar A^c by which a braid acts on the clasp, c the signed
    crossing count.

    Unless ``verify`` is False, b P = A^c P is verified through its exact
    factorization: it holds once sigma_g P = A^(+-1) P holds for each letter
    g.  A letter is checked once per table and strand count: one crossing on
    the opaque box goes to ``prune_box_sum``, where every smoothing but the
    straight one is a turnback, so what is left is a multiple of the box and
    the check compares coefficients; its scalar is memoized.
    """
    for g in word:
        if g == 0 or abs(g) >= n:
            raise ValueError(f"bad braid generator {g} on {n} strands")
    ctx = ctx or default_context()
    coeff_a = ctx.table.crossing[0]
    if verify:
        memo = eng.eval_memo(ctx.table)
        box = wb.clasp_box_web(n)
        for g in dict.fromkeys(word):
            web = wb.compose(braid_web([g], n), box)
            if web.canonical_key() in memo:
                continue
            value = coeff_a ** (1 if g > 0 else -1)
            diff = prune_box_sum(WebSum.from_web(web), ctx) - WebSum.from_web(box, value)
            if not diff.is_zero():
                raise AssertionError(f"generator {g} does not act on P_{n} by {value!r}")
            memo[web.canonical_key()] = value
    return coeff_a ** sum(1 if g > 0 else -1 for g in word)
