"""The benchmark workloads: seeded job lists and the oracle for every job.

A job is one call a user of the package would make.  ``run`` is timed;
``check`` runs afterwards, outside the timed region and with tracing off, and
compares the output against an independent oracle:

* traces against the quantum Weyl dimension (``cat.qdim``);
* generic thetas against admissibility of the triple;
* specialized thetas against clasp poles (found by specializing the
  coefficient denominators of ``clasp_expand``) and Kac-Walton fusion;
* braid eigenvalues against q^c, c the signed crossing count;
* Verlinde numbers against fusion, state-space dimensions against the
  Verlinde formula, quantum dimensions from S against the Weyl formula;
* "detected" certificates against the product of Kac-Walton
  multiplicities over the comparison labeling.

A refusal (an exception the oracle expects) is judged like an answer: it is
right exactly where the oracle says no value exists.  A verdict is ``OK``,
``("fail", reason)`` or ``("known", defect)``.  A known defect is a wrong
answer of the kind ROADMAP item 2 describes; it counts toward the printed
``fail_frac`` but does not make the run incorrect, so that the benchmark can
gate later changes while the defect stands, and a fix that turns it into a
correct refusal reads as OK.  No case is dropped or reseeded to hide one.

Certificate levels come from the walk's edge multiplicities here, not from
``faithful.min_level``, so a change to how the package picks levels does not
move the jobs.  The walks themselves are drawn with the package's own
generators, as acceptance criterion 9 draws them.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import itertools
import json
import random

from c2spider import cat, cli, faithful, ring, tqft
from c2spider import clasp as cl
from c2spider import engine as eng
from c2spider import web as wb

OK = "ok"
POLE_VALUE = "theta value returned at an order where a clasp it uses has a pole"
UNSOUND_CERT = "certificate says detected but a vertex has Kac-Walton multiplicity 0"

# networks-warm reads P_2..P_4 from a disk cache filled before timing.
WARM_CLASPS = (2, 3, 4)

# The theta-graph walk of ROADMAP item 2: "detected" at level 2 although both
# vertex triples are (2,2,2), whose Kac-Walton multiplicity there is 0.
ROADMAP_WALK = ((0, 0), (1, 1), (0, 2), (1, 0), (0, 1), (1, 2))


@dataclasses.dataclass
class Job:
    name: str
    run: object      # fn(env) -> output
    check: object    # fn(output, env) -> verdict; output may be an exception


class Env:
    """What jobs share inside one child: the context, earlier outputs, and
    (for the oracle) the pole table of the clasps."""

    def __init__(self, table, ctx):
        self.table = table
        self.ctx = ctx
        self.state = {}
        self._poles = {}

    def clasp_has_pole(self, n, order) -> bool:
        key = (n, order)
        if key not in self._poles:
            dens = {c.den for c, _ in cl.clasp_expand(n, "single", self.ctx)}
            self._poles[key] = any(ring.specialize(d, order).is_zero() for d in dens)
        return self._poles[key]


def build(workload: str, seed: int):
    """The job list for one seed.  Certificate walks use ``Random(seed)``
    exactly as acceptance criterion 9 does, so its seed reproduces its walks;
    every other sampled input draws from a stream of its own."""
    return _BUILDERS[workload](random.Random(f"{workload}:{seed}"), random.Random(seed))


# -- shared oracles ------------------------------------------------------------


def _raised(out):
    return isinstance(out, BaseException)


def _fail_if_raised(out):
    return ("fail", f"raised {type(out).__name__}: {out}")


def _is_true(out, env):
    if _raised(out):
        return _fail_if_raised(out)
    return OK if out is True else ("fail", f"expected True, got {out!r}")


def _kw(lam, mu, nu, k) -> int:
    try:
        return cat.triple_multiplicity(lam, mu, nu, level=k)
    except cat.NotSimpleAtLevel:
        return 0


def _admissible(a, b, c) -> bool:
    return (a + b + c) % 2 == 0 and a + b >= c and a + c >= b and b + c >= a


def _multiplicities(walk):
    """Edge multiplicities p_e of a walk and, per vertex, the incident edges
    (a loop twice), read off the walk's steps and the spine's edge list."""
    spine = walk.spine
    p = [0] * len(spine.edges)
    for _, e in walk.steps:
        p[e] += 1
    ends = [[] for _ in range(spine.n_vertices)]
    for e, (u, v) in enumerate(spine.edges):
        ends[u].append(e)
        ends[v].append(e)
    return p, ends


def _base_level(walk) -> int:
    """Smallest level with every label (p_e, 0) in the alcove (p_e <= k) and
    the order condition 4k+12 > 2m+4, m the largest vertex sum."""
    p, ends = _multiplicities(walk)
    m = max(sum(p[e] for e in es) for es in ends)
    k = max(max(p), 1)
    while 4 * k + 12 <= 2 * m + 4:
        k += 1
    return k


def _check_certificate(walk, k):
    """"detected" is right when the Kac-Walton product over the comparison
    labeling (p_e, 0) is nonzero; a refusal is right when it is 0."""
    p, ends = _multiplicities(walk)

    def check(out, env):
        vanishes = any(_kw(*((p[e], 0) for e in es), k) == 0 for es in ends)
        if isinstance(out, ValueError):
            return OK if vanishes else ("fail", f"refused with a nonzero Kac-Walton "
                                                f"product: {type(out).__name__}: {out}")
        if _raised(out):
            return _fail_if_raised(out)
        if out.conclusion != "detected":
            return ("fail", f"conclusion {out.conclusion!r}")
        return ("known", UNSOUND_CERT) if vanishes else OK
    return check


def _certificate_jobs(rng, count, levels, numeric, max_m):
    """Seeded graph-geodesic walks on random genus-2/3 spines, certified at
    the given offsets above each walk's base level."""
    jobs = []
    made = 0
    while made < count:
        genus = rng.choice((2, 3))
        spine = faithful.random_spine(genus, rng)
        walk = faithful.random_geodesic_walk(spine, rng, max_m=max_m)
        if walk is None:
            continue
        k0 = _base_level(walk)
        for dk in levels:
            k = k0 + dk

            def run(env, walk=walk, k=k):
                return faithful.certify_detection(
                    walk, k, numeric=numeric, ctx=env.ctx if numeric else None)
            jobs.append(Job(f"certify walk{made} k={k}", run,
                            _check_certificate(walk, k)))
        made += 1
    return jobs


# -- clasp-cold ----------------------------------------------------------------


def _cli_expand(env):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["clasp", "expand", "--n", "4"])
    return {"exit": code, "stdout": out.getvalue()}


def _check_cli_expand(out, env):
    """P_4 = id + terms through turnbacks: the identity has coefficient 1."""
    if _raised(out):
        return _fail_if_raised(out)
    if out["exit"] != 0:
        return ("fail", f"exit code {out['exit']}")
    doc = json.loads(out["stdout"])
    ident = wb.id_web(["s"] * 4).canonical_key()
    coeffs = [t["coeff"] for t in doc["terms"]
              if wb.Web.from_json(t["web"]).canonical_key() == ident]
    if coeffs != [ring.RationalFunction.coerce(1).to_json()]:
        return ("fail", f"identity coefficient {coeffs}")
    return OK


def _check_turnbacks(out, env):
    if _raised(out):
        return _fail_if_raised(out)
    bad = {i: r for i, r in out.items() if not (r["cap"] and r["vertex"])}
    return ("fail", f"surviving turnbacks {bad}") if bad else OK


def _check_trace(n):
    def check(out, env):
        if _raised(out):
            return _fail_if_raised(out)
        want = ring.RationalFunction.coerce((-1) ** n) * cat.qdim((n, 0))
        return OK if out == want else ("fail", f"trace of P_{n} != (-1)^n qdim")
    return check


def _p4_turnback(probe, i):
    def run(env):
        p = cl.clasp_expand(4, "single", env.ctx)
        piece = eng.WebSum.from_web(probe(4, i))
        reduced = eng.reduce_sum(eng.sum_compose(piece, p), table=env.table)
        return eng.sum_is_zero(reduced, table=env.table)
    return run


def clasp_cold(rng, walk_rng):
    # The merge test at position 1 (about 8 s alone) is left out to keep a
    # repetition near 20 s; cap at position 1 keeps the 24-term pairing.
    checks = []
    for n in (1, 2, 3):
        checks.append(Job(f"turnback_kill({n})",
                          lambda env, n=n: cl.turnback_kill(n, env.ctx),
                          _check_turnbacks))
        checks.append(Job(f"idempotent({n})",
                          lambda env, n=n: cl.idempotent(n, env.ctx), _is_true))
    for n in (1, 2, 3, 4):
        checks.append(Job(f"clasp_trace(({n},0))",
                          lambda env, n=n: cl.clasp_trace((n, 0), env.ctx),
                          _check_trace(n)))
    for name, probe, i in (("cap", cl.cap_at, 0), ("merge", cl.merge_at, 0),
                           ("cap", cl.cap_at, 1)):
        checks.append(Job(f"P_4 {name} turnback at {i} is zero",
                          _p4_turnback(probe, i), _is_true))
    rng.shuffle(checks)
    return [Job("c2spider clasp expand --n 4", _cli_expand, _check_cli_expand)] + checks


# -- networks-warm ---------------------------------------------------------------


THETA_TRIPLES = [(a, b, s - a - b) for s in range(0, 9, 2)
                 for a in range(s + 1) for b in range(a + 1) if 0 <= s - a - b <= b]
# length-4 braid words sampled per strand count; shorter words are all run
BRAID_SAMPLE = {2: 8, 3: 48}


def _check_theta(t):
    def check(out, env):
        if _raised(out):
            return _fail_if_raised(out)
        if (not out.is_zero()) == _admissible(*t):
            return OK
        return ("fail", f"theta{t} nonzero={not out.is_zero()}")
    return check


def _check_specialized(t, k):
    order = cat.q_order(k)

    def check(out, env):
        if any(env.clasp_has_pole(n, order) for n in t):
            # the only correct outcome is a refusal
            if isinstance(out, (ArithmeticError, ValueError)):
                return OK
            return _fail_if_raised(out) if _raised(out) else ("known", POLE_VALUE)
        if _raised(out):
            return _fail_if_raised(out)
        want = _kw(*((x, 0) for x in t), k) >= 1
        if (not out.is_zero()) == want:
            return OK
        return ("fail", f"theta{t} at order {order} nonzero={not out.is_zero()}")
    return check


def _check_braid(word):
    """A braid acts on the clasp by A^c, c the signed crossing count, with
    A = q in the package's convention."""
    c = sum(1 if g > 0 else -1 for g in word)
    want = ring.RationalFunction.coerce(ring.LaurentPoly.q_power(c))

    def check(out, env):
        if _raised(out):
            return _fail_if_raised(out)
        return OK if out == want else ("fail", f"eigenvalue != q^{c}")
    return check


def networks_warm(rng, walk_rng):
    triples = list(THETA_TRIPLES)
    rng.shuffle(triples)
    jobs = [Job(f"theta{t}", lambda env, t=t: cl.theta_net(*t, env.ctx), _check_theta(t))
            for t in triples]
    for t in triples:
        if not _admissible(*t):
            continue
        for k in (1, 2, 3):
            jobs.append(Job(f"specialize theta{t} k={k}",
                            lambda env, t=t, k=k: ring.specialize(
                                env.state[f"theta{t}"], cat.q_order(k)),
                            _check_specialized(t, k)))
    braids = []
    for n in (2, 3):
        gens = [g for i in range(1, n) for g in (i, -i)]
        for length in range(5):
            words = list(itertools.product(gens, repeat=length))
            if length == 4:
                words = rng.sample(words, BRAID_SAMPLE[n])
            braids += [(n, w) for w in words]
    rng.shuffle(braids)
    jobs += [Job(f"braid_eigenvalue({list(w)}, {n})",
                 lambda env, w=w, n=n: cl.braid_eigenvalue(list(w), n, env.ctx, verify=True),
                 _check_braid(w))
             for n, w in braids]
    jobs += _certificate_jobs(walk_rng, count=6, levels=(0, 1), numeric=True, max_m=6)
    return jobs


# -- level-sweep -------------------------------------------------------------------


VERLINDE_SAMPLE_K3 = 60


def _check_modular_data(out, env):
    if _raised(out):
        return _fail_if_raised(out)
    for w, omega in zip(out.simples, out.omega):
        if omega != cat.qdim_at(w, out.order):
            return ("fail", f"S-matrix quantum dimension of {w} != Weyl formula")
    return OK


def _check_verlinde(lam, mu, nu, k):
    def check(out, env):
        if _raised(out):
            return _fail_if_raised(out)
        want = cat.fusion_dict(lam, mu, level=k).get(nu, 0)
        return OK if out == want else ("fail", f"Verlinde {out} != fusion {want}")
    return check


def _check_statespace(genus, k):
    def check(out, env):
        if _raised(out):
            return _fail_if_raised(out)
        want = tqft.verlinde_dim(genus, k)
        return OK if out == want else ("fail", f"statespace {out} != Verlinde {want}")
    return check


def level_sweep(rng, walk_rng):
    jobs = [Job(f"modular_data({k})", lambda env, k=k: cat.modular_data(k),
                _check_modular_data) for k in (1, 2, 3, 4)]
    rest = []
    for k in (1, 2, 3):
        objs = cat.simples(k)
        triples = list(itertools.product(objs, repeat=3))
        if k == 3:
            triples = rng.sample(triples, VERLINDE_SAMPLE_K3)
        rest += [Job(f"verlinde{(lam, mu, nu)} k={k}",
                     lambda env, lam=lam, mu=mu, nu=nu, k=k: cat.verlinde_multiplicity(
                         cat.modular_data(k), lam, mu, nu),
                     _check_verlinde(lam, mu, nu, k))
                 for lam, mu, nu in triples]
    for genus in (2, 2, 3, 3):
        spine = faithful.random_spine(genus, rng)
        rest += [Job(f"statespace_dim({spine.edges}) k={k}",
                     lambda env, spine=spine, k=k: tqft.statespace_dim(spine, k),
                     _check_statespace(genus, k))
                 for k in (1, 2, 3)]
    for k in (1, 2):
        for length in range(4):
            for word in itertools.product("st", repeat=length):
                for curve in ((1, 0), (0, 1)):
                    rest.append(Job(
                        f"conjugation {''.join(word)} {curve} k={k}",
                        lambda env, w=word, c=curve, k=k: tqft.conjugation_identity_holds(w, c, k),
                        _is_true))
    rest += _certificate_jobs(walk_rng, count=40, levels=(0, 1, 3), numeric=False, max_m=12)
    theta_walk = faithful.CurveWalk(tqft.Spine.theta_graph(), ROADMAP_WALK)
    rest.append(Job("certify ROADMAP item-2 theta-graph walk k=2",
                    lambda env: faithful.certify_detection(theta_walk, 2),
                    _check_certificate(theta_walk, 2)))
    rng.shuffle(rest)
    return jobs + rest


_BUILDERS = {
    "clasp-cold": clasp_cold,
    "networks-warm": networks_warm,
    "level-sweep": level_sweep,
}


# -- output digest ---------------------------------------------------------------------


def plain(x):
    """JSON-ready form of a job output, for the digest."""
    if isinstance(x, BaseException):
        return {"raised": type(x).__name__, "message": str(x)}
    if hasattr(x, "to_json"):
        return x.to_json()
    if dataclasses.is_dataclass(x):
        return {f.name: plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {str(k): plain(v) for k, v in sorted(x.items())}
    if isinstance(x, (list, tuple)):
        return [plain(v) for v in x]
    return x
