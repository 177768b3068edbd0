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
memoized on disk keyed by the relation-table hash.  These single-strand
clasps are the only ones built: a box in a web is a clasp (n, 0).

Inside diagrams clasps stay opaque boxes for as long as possible.  The box
axioms are rewrite rules of the engine (``engine._box_rule``), so
``reduce_sum`` drops a term as soon as a box meets a turnback, which is
what makes theta networks tractable.  A box (n, 0) with n >= 2 is expanded
by the recursion at the level of boxes, T0 + c1 T0 E T0 + c2 T0 G T0 with
T0 a box of n-1 beside a strand, as recoupling theory does it (L. Kauffman
and S. Lins, "Temperley-Lieb Recoupling Theory and Invariants of
3-Manifolds", 1994).  That is the one expansion step, ``_expand_one_box``.
A closed network is valued like a plain web: expand one box, reduce, value
each piece in turn, and keep each boxed sub-network's value under its
canonical key, so none is flattened.
The flat P_n of ``clasp_expand`` is the step repeated on one open box; it
serves the CLI, ``turnback_kill`` and ``idempotent``.

A braid acts on P_n by A^c, c its signed crossing count, and the identity
factorizes exactly: sigma_g P_n = A^(+-1) P_n for each letter gives the
whole word by composition, so each generator is proven once per table.
"""

from __future__ import annotations

import functools

from . import engine as eng
from . import web as wb
from .cache import KEY_PREFIX, ClaspCache
from .engine import WebSum, eval_closed, reduce_sum, sum_compose, sum_is_zero
from .ring import (CycNumber, DenominatorVanishes, RationalFunction,
                   cyclotomic_orders, qint, specialize)
from .rules import RuleTable, default_table

_ONE = RationalFunction.coerce(1)
_ZERO = RationalFunction.coerce(0)


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
        return f"{KEY_PREFIX}{kind}-{n}"


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
    """The sum of a ``_websum_to_json`` record; ValueError for anything else."""
    out = WebSum()
    try:
        if data["schema"] != "c2spider/websum/1":
            raise ValueError(f"schema {data['schema']!r}")
        for t in data["terms"]:
            out.add(RationalFunction.from_json(t["coeff"]), wb.Web.from_json(t["web"]))
    except (KeyError, IndexError, TypeError, ValueError, AttributeError,
            ZeroDivisionError) as exc:
        raise ValueError(f"not a websum record ({type(exc).__name__}: {exc})") from exc
    return out


def clasp_expand(n: int, kind: str = "single", ctx: ClaspContext = None) -> WebSum:
    """The projector (n, 0) on n parallel single strands as a sum of plain
    webs: for n >= 2, ``expand_boxes`` of one open box, memoized in process
    and on disk.  A disk record that is not a websum, or whose identity web
    does not have coefficient 1 as in every P_n, is a miss, and is
    rewritten.  ``kind`` must be "single", the only kind built."""
    if n < 0:
        raise ValueError("strand count must be nonnegative")
    if kind != "single":
        raise ValueError(f"unknown clasp kind {kind!r}: only single-strand "
                         "clasps are built")
    ctx = ctx or default_context()
    memo_key = (ctx.table.table_hash(), kind, n)
    if memo_key in _MEMO:
        return _MEMO[memo_key]
    if n <= 1:
        ws = WebSum.from_web(_id(n))
    else:
        cached = ctx.cache.get(ctx._key(n, kind))
        try:
            ws = None if cached is None else _websum_from_json(cached)
        except ValueError:
            ws = None
        if ws is not None:
            ident = ws.terms.get(_id(n).canonical_key())
            if ident is None or ident[0] != 1:
                ws = None
        if ws is None:
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


@functools.cache
def clasp_poles(n: int) -> frozenset:
    """The orders N of the roots of unity at which P_n does not exist.

    The recursion builds P_n from the coefficients c1(m) and c2(m) for
    2 <= m <= n, so N is a pole order when Phi_N divides the reduced
    denominator of one of them.  Nothing is expanded.  P_0 and P_1 are
    identities and have none.  Cached by n: it depends on n only.
    """
    if n < 0:
        raise ValueError("strand count must be nonnegative")
    return frozenset().union(*(cyclotomic_orders(c.den)
                               for m in range(2, n + 1)
                               for c in recursion_coefficients(m)))


# -- axioms and verification ------------------------------------------------------


def _annihilates(probe, p: WebSum, ctx: ClaspContext, above: bool) -> bool:
    """Whether the probe web, stacked on p from above or from below, reduces
    to an exact zero."""
    probe = WebSum.from_web(probe)
    stacked = sum_compose(probe, p) if above else sum_compose(p, probe)
    return sum_is_zero(reduce_sum(stacked, table=ctx.table), table=ctx.table)


def turnback_kill(n: int, ctx: ClaspContext = None) -> dict:
    """Verify that every elementary turnback annihilates the clasp.

    Returns {position: {"cap": bool, "vertex": bool}}; all True means pass.
    For n <= 1 the report is empty (vacuous pass).  Every term of P_m has
    T0 = P_{m-1} (x) 1 on top (see ``idempotent``), so position m-2 is all
    that is new in P_m: each P_m, m = 2..n, is probed there only.
    """
    ctx = ctx or default_context()
    report = {}
    for m in range(2, n + 1):
        p = clasp_expand(m, "single", ctx)
        report[m - 2] = {"cap": _annihilates(cap_at(m, m - 2), p, ctx, above=True),
                         "vertex": _annihilates(merge_at(m, m - 2), p, ctx, above=True)}
    return report


def idempotent(n: int, ctx: ClaspContext = None) -> bool:
    """Engine verification that the clasp squares to itself, through the
    exact factorization of the recursion.

    P_0 and P_1 are identities.  For n >= 2 write P = T0 + c1 T0 E T0 +
    c2 T0 G T0 with T0 = P' (x) 1, P' = P_{n-1} (T0 is the identity at
    n = 2).  Idempotence of P' gives P T0 = P, and P T0 E T0 =
    (P cup) cap T0, P T0 G T0 = (P split) merge T0 with the cup and the
    split at position n-2.  So PP = P follows when P' is idempotent and
    those two turnbacks annihilate P from below; each is an exact zero
    test, and neither composes P with itself.
    """
    if n <= 1:
        return True
    ctx = ctx or default_context()
    p = clasp_expand(n, "single", ctx)
    return idempotent(n - 1, ctx) and all(
        _annihilates(probe(n, n - 2), p, ctx, above=False)
        for probe in (cup_at, split_at))


# -- clasp boxes inside webs ---------------------------------------------------------


@functools.cache
def _recursion_webs(n):
    """The recursion for P_n, n >= 2, at the level of boxes: the webs
    T0 = P_{n-1} (x) 1, T0 E T0 and T0 G T0 with coefficients 1, c1, c2.

    The only statement of the recursion.  Reduced webs are dependent, so
    the expansion order picks one of many equal sums, and the lower copy of
    P_{n-1} in a sandwich must go first: then P_4 has 110 terms and
    cap_at(4, 0) and merge_at(4, 0) on it reduce to no term, so no pairing
    runs; upper copy first, P_4 has 112 and those keep 23 and 24 terms, and
    the clasp-cold benchmark takes 0.66 s, not 0.36 s, on a 2-core host.
    A sandwich is symmetric top to bottom, so its mirror is the same diagram
    with the lower copy the newer vertex, which ``_expand_one_box`` picks
    first among equal boxes.  Cached by n: it does not depend on the table.
    """
    t0 = wb.tensor(wb.clasp_box_web(n - 1), _id(1)) if n > 2 else _id(2)
    c1, c2 = recursion_coefficients(n)

    def sandwich(middle):
        return eng.to_mini(wb.mirror(wb.compose(t0, wb.compose(middle, t0))))

    return [(_ONE, eng.to_mini(t0)),
            (c1, sandwich(e_at(n, n - 2))), (c2, sandwich(g_at(n, n - 2)))]


def _expand_one_box(web, ctx: ClaspContext) -> WebSum:
    """Expand one box of a settled web; ``reduce_sum`` settles and reduces
    the pieces, and drops the dead ones before they are keyed.

    A box (n, 0), n >= 2, becomes the three webs of ``_recursion_webs``; a
    box of at most one strand is the identity on its strands.  The smallest
    box goes first, the newest among equals: on a 2-core host theta(4,4,4)
    takes 0.2 s so, 22 s largest first.
    """
    v = min(eng._box_positions(web), key=lambda x: (web.vextra[x][0], -x))
    n, = web.vextra[v]
    expansion = _recursion_webs(n) if n >= 2 else [(_ONE, eng.to_mini(_id(n)))]
    pieces = eng._splice(web, {v}, list(web.vlegs[v]), [m for _, m in expansion])
    return reduce_sum([(c, piece) for (c, _), piece in zip(expansion, pieces)],
                      table=ctx.table)


def _box_sizes(web):
    """The strand counts of the web's boxes, largest first."""
    return tuple(sorted((web.vextra[v][0] for v in eng._box_positions(web)),
                        reverse=True))


def expand_boxes(ws, ctx: ClaspContext = None) -> WebSum:
    """Replace every clasp box of an open web or sum by its expansion; the
    result is a sum of plain webs.

    The input is reduced once by ``reduce_sum``.  Pending webs are merged
    under their canonical keys, so each distinct web takes one
    ``_expand_one_box`` step, on its summed coefficient.  They are grouped
    by ``_box_sizes``, and the greatest tuple goes first: a step replaces a
    box by boxes one strand smaller or removes it, and the box rules only
    remove boxes, so every piece's tuple is less than its web's and no
    coefficient grows after its web is taken.
    """
    ctx = ctx or default_context()
    out = WebSum.zero()
    pending = {}   # box sizes -> WebSum of the settled webs with those boxes

    def push(coeff, web):
        sizes = _box_sizes(web)
        if sizes:
            pending.setdefault(sizes, WebSum.zero()).add(coeff, web)
        else:
            out.add(coeff, web)

    for coeff, web in reduce_sum(ws, table=ctx.table):
        push(coeff, web)
    while pending:
        layer = pending.pop(max(pending)).terms
        for key in sorted(layer):
            coeff, web = layer.pop(key)   # let go of each web once expanded
            for c, w in _expand_one_box(web, ctx):
                push(coeff * c, w)
    return out


def eval_box_web(w, ctx: ClaspContext = None) -> RationalFunction:
    """Value of a closed web: without boxes by ``eval_closed``, else the
    settled web, or each piece of ``prune_box_sum`` when crossings sit
    beside the boxes, by ``_box_value``."""
    ctx = ctx or default_context()
    if not w.has_kind("clasp"):
        return eval_closed(w, table=ctx.table)
    if w.has_kind("cross"):
        return sum((c * _box_value(piece, ctx)
                    for c, piece in prune_box_sum(WebSum.from_web(w), ctx)), _ZERO)
    w = eng._settle(w)
    return _ZERO if w is None else _box_value(w, ctx)


def _box_value(w, ctx: ClaspContext) -> RationalFunction:
    """Value of a settled closed web without crossings: one
    ``_expand_one_box`` step and the values of its settled pieces, memoized
    under the web's canonical key in the table's eval memo."""
    if not w.has_kind("clasp"):
        return eval_closed(w, table=ctx.table)
    memo = eng.eval_memo(ctx.table)
    key = w.canonical_key()
    if key not in memo:
        memo[key] = sum((c * _box_value(piece, ctx)
                         for c, piece in _expand_one_box(w, ctx)), _ZERO)
    return memo[key]


# -- traces, thetas, braids ----------------------------------------------------------


def clasp_trace(weight, ctx: ClaspContext = None) -> RationalFunction:
    """Close the clasp box of weight (a, 0) in an annulus and evaluate (the
    quantum trace).  A weight (a, b) with b > 0 has double strands, and its
    clasp is not built: NotImplementedError."""
    a, b = weight
    if a < 0 or b < 0:
        raise ValueError("clasp weight components must be nonnegative")
    if b:
        raise NotImplementedError(f"clasp {weight} has double strands: only "
                                  "single-strand clasps (n, 0) are built")
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
    expansion prunes soonest: on a 2-core host theta(4,5,5) takes 1.5 s laid
    out as given and 0.2 s as (5,4,5), and (4,6,6) 9.0 s against 0.3 s.
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


def braid_web(word, n: int):
    """Braid word as a web: entries are nonzero signed generator indices,
    +i crossing strands (i, i+1) positively, 1-indexed."""
    _check_braid_word(word, n)
    out = _id(n)
    for g in word:
        layer = _at(n, abs(g) - 1, wb.crossing_web(g > 0))
        out = wb.compose(layer, out)
    return out


def _check_braid_word(word, n: int):
    for g in word:
        if g == 0 or abs(g) >= n:
            raise ValueError(f"bad braid generator {g} on {n} strands")


def prune_box_sum(ws: WebSum, ctx: ClaspContext = None) -> WebSum:
    """Reduce a sum of webs containing opaque clasp boxes and crossings,
    dropping every term in which a box meets a turnback.

    A web with a crossing is settled, and dropped unkeyed if a box meets a
    turnback; a survivor has its lowest-id crossing smoothed and the
    smoothings checked in turn.  The crossing-free webs go to ``reduce_sum``
    once, and what it returns is settled and reduced.
    """
    ctx = ctx or default_context()
    plain = []
    stack = [(c, w) for c, w in ws]
    while stack:
        coeff, web = stack.pop()
        v = eng._first_vertex(web, "cross")
        if v is None:
            plain.append((coeff, web))
            continue
        web = eng._settle(web)
        if web is not None:
            stack.extend((coeff * k, w2) for k, w2 in eng._smooth(web, v, ctx.table))
    return reduce_sum(plain, table=ctx.table)


def braid_eigenvalue(word, n: int, ctx: ClaspContext = None,
                     verify: bool = True) -> RationalFunction:
    """The scalar A^c by which a braid acts on the clasp, c the signed
    crossing count.

    Unless ``verify`` is False, b P = A^c P is verified through its exact
    factorization: it holds once sigma_g P = A^(+-1) P holds for each letter
    g.  A letter is checked once per table and strand count: one crossing on
    the opaque box goes to ``prune_box_sum``, where every smoothing but the
    straight one is a turnback, so what is left is a multiple of the box and
    the check compares coefficients; its scalar is memoized under the name
    ("braid", n, g) of that diagram, exact for one table.
    """
    _check_braid_word(word, n)
    ctx = ctx or default_context()
    coeff_a = ctx.table.crossing[0]
    if verify:
        memo = eng.eval_memo(ctx.table)
        for g in dict.fromkeys(word):
            if ("braid", n, g) in memo:
                continue
            value = coeff_a ** (1 if g > 0 else -1)
            box = wb.clasp_box_web(n)
            web = wb.compose(braid_web([g], n), box)
            diff = prune_box_sum(WebSum.from_web(web), ctx) - WebSum.from_web(box, value)
            if not diff.is_zero():
                raise AssertionError(f"generator {g} does not act on P_{n} by {value!r}")
            memo["braid", n, g] = value
    return coeff_a ** sum(1 if g > 0 else -1 for g in word)
