"""Derive the C2 web relation table from quantum sp(4) and freeze it.

The diagram calculus is determined by the representation category of
U_q(sp4): the two strand types are the fundamental modules V (dim 4) and
W (dim 5), the trivalent vertex is the unique intertwiner V (x) V -> W, and
every reducible-face rewrite is an identity among intertwiners.  This script

1. builds V with its cup/cap (zig-zag normalized) and extracts W inside
   V (x) V together with its own cup/cap,
2. computes the loop and bigon constants and the unique linear relation
   among {identity, cup-cap, bridge, rotated bridge} on four single strands,
3. derives the remaining face rules (triangles, squares, pentagon, hexagon)
   by running the web engine itself with the relation of step 2,
4. computes the three-term crossing expansion from the braiding eigenvalues,
   validating Yang-Baxter, Reidemeister II and crossing rotation, and
5. writes src/c2spider/rules_data.py, or the file named on the command line.

Everything is exact arithmetic in Q(q).  Run from the repository root:

    python3 tools/derive_rules.py [OUTPUT]

``tests/test_web.py`` regenerates the table into a temporary file and checks
that it matches the committed one byte for byte.
"""

from __future__ import annotations

import json
import os
import sys
from fractions import Fraction

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from c2spider.ring import LaurentPoly, RationalFunction, qint

Q = LaurentPoly.q_power
ONE = RationalFunction.coerce(1)
ZERO = RationalFunction.coerce(0)


def rf(x):
    return RationalFunction.coerce(x)


# ---------------------------------------------------------------------------
# dense exact matrices (lists of lists of RationalFunction)


def zeros(n, m):
    return [[ZERO for _ in range(m)] for _ in range(n)]


def eye(n):
    a = zeros(n, n)
    for i in range(n):
        a[i][i] = ONE
    return a


def mat(entries, n, m):
    a = zeros(n, m)
    for (i, j), v in entries.items():
        a[i][j] = rf(v)
    return a


def mul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = zeros(n, m)
    for i in range(n):
        ai = a[i]
        for t in range(k):
            x = ai[t]
            if x.is_zero():
                continue
            bt = b[t]
            oi = out[i]
            for j in range(m):
                if not bt[j].is_zero():
                    oi[j] = oi[j] + x * bt[j]
    return out


def madd(a, b):
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def msub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def mscale(a, c):
    c = rf(c)
    return [[x * c for x in row] for row in a]


def kron(a, b):
    n, m = len(a), len(a[0])
    p, r = len(b), len(b[0])
    out = zeros(n * p, m * r)
    for i in range(n):
        for j in range(m):
            x = a[i][j]
            if x.is_zero():
                continue
            for k in range(p):
                for l in range(r):
                    if not b[k][l].is_zero():
                        out[i * p + k][j * r + l] = x * b[k][l]
    return out


def transpose(a):
    return [list(col) for col in zip(*a)]


def is_zero_mat(a):
    return all(x.is_zero() for row in a for x in row)


def mat_eq(a, b):
    return is_zero_mat(msub(a, b))


def scalar_multiple_of_identity(a):
    n = len(a)
    s = a[0][0]
    for i in range(n):
        for j in range(n):
            want = s if i == j else ZERO
            if not (a[i][j] - want).is_zero():
                return None
    return s


def gauss_jordan(rows, ncols):
    """Reduced row echelon form, pivoting on the first ``ncols`` columns.
    Returns the reduced rows and the pivot columns."""
    rows = [list(r) for r in rows]
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        pr = next((i for i in range(r, len(rows)) if not rows[i][c].is_zero()), None)
        if pr is None:
            continue
        rows[r], rows[pr] = rows[pr], rows[r]
        inv = ONE / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(len(rows)):
            if i != r and not rows[i][c].is_zero():
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    return rows, pivots


def rank(rows):
    return len(gauss_jordan(rows, len(rows[0]) if rows else 0)[1])


def solve_nullspace(a):
    """Basis of the right nullspace of a (rows = equations)."""
    m = len(a[0]) if a else 0
    rows, pivots = gauss_jordan(a, m)
    basis = []
    for fc in (c for c in range(m) if c not in pivots):
        v = [ZERO] * m
        v[fc] = ONE
        for pi, pc in enumerate(pivots):
            v[pc] = -rows[pi][fc]
        basis.append(v)
    return basis


def invert(a):
    n = len(a)
    rows, pivots = gauss_jordan([list(r) + list(e) for r, e in zip(a, eye(n))], n)
    assert len(pivots) == n, "singular matrix"
    return [row[n:] for row in rows]


def apply_vec(m, v):
    return [sum((m[i][j] * v[j] for j in range(len(v)) if not v[j].is_zero()), ZERO)
            for i in range(len(m))]


# ---------------------------------------------------------------------------
# U_q(sp4): the 4-dimensional module V

V_WT = [(1, 0), (0, 1), (0, -1), (-1, 0)]
ALPHA = {1: (1, -1), 2: (0, 2)}

E1 = mat({(0, 1): 1, (2, 3): 1}, 4, 4)
F1 = mat({(1, 0): 1, (3, 2): 1}, 4, 4)
E2 = mat({(1, 2): 1}, 4, 4)
F2 = mat({(2, 1): 1}, 4, 4)


def kmat(i, sign=1):
    return mat({(k, k): Q(sign * (w[0] * ALPHA[i][0] + w[1] * ALPHA[i][1]))
                for k, w in enumerate(V_WT)}, 4, 4)


GEN_V = {"E1": E1, "F1": F1, "E2": E2, "F2": F2,
         "K1": kmat(1), "K1i": kmat(1, -1), "K2": kmat(2), "K2i": kmat(2, -1)}


def action_on_product(left, right, dl, dr):
    """Generator actions on left (x) right from the coproduct
    E -> E (x) 1 + K (x) E,  F -> F (x) K^-1 + 1 (x) F,  K -> K (x) K."""
    out = {}
    for g in ("E1", "E2"):
        out[g] = madd(kron(left[g], eye(dr)), kron(left["K" + g[1]], right[g]))
    for g in ("F1", "F2"):
        out[g] = madd(kron(left[g], right["K" + g[1] + "i"]),
                      kron(eye(dl), right[g]))
    for g in ("K1", "K1i", "K2", "K2i"):
        out[g] = kron(left[g], right[g])
    return out


def invariant_vectors(act, dim):
    rows = []
    for g in ("E1", "E2", "F1", "F2"):
        rows.extend(act[g])
    rows.extend(msub(act["K1"], eye(dim)))
    rows.extend(msub(act["K2"], eye(dim)))
    return solve_nullspace(rows)


def invariant_functionals(act, dim):
    rows = []
    for g in ("E1", "E2", "F1", "F2"):
        rows.extend(transpose(act[g]))
    rows.extend(transpose(msub(act["K1"], eye(dim))))
    rows.extend(transpose(msub(act["K2"], eye(dim))))
    return solve_nullspace(rows)


def report(name, value):
    print(f"  {name} = {value!r}")


# numeric (Fraction) helpers for polynomial-identity spot checks


def eval_rf(x, q0):
    def ev(p):
        return sum((c * q0 ** e for e, c in p.terms.items()), Fraction(0))
    return ev(x.num) / ev(x.den)


def eval_mat(m, q0):
    return [[eval_rf(x, q0) for x in row] for row in m]


def fmul(a, b):
    n, k, m = len(a), len(b), len(b[0])
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        for t in range(k):
            x = a[i][t]
            if x:
                bt = b[t]
                oi = out[i]
                for j in range(m):
                    if bt[j]:
                        oi[j] += x * bt[j]
    return out


def fkron(a, b):
    n, m, p, r = len(a), len(a[0]), len(b), len(b[0])
    out = [[Fraction(0)] * (m * r) for _ in range(n * p)]
    for i in range(n):
        for j in range(m):
            if a[i][j]:
                for k in range(p):
                    for l in range(r):
                        out[i * p + k][j * r + l] = a[i][j] * b[k][l]
    return out


def main(out_path=None):
    print("== step 1: V, cup and cap ==")
    act_VV = action_on_product(GEN_V, GEN_V, 4, 4)
    cups = invariant_vectors(act_VV, 16)
    assert len(cups) == 1, f"Inv(V x V) should be 1-dimensional, got {len(cups)}"
    c_vec = cups[0]
    caps = invariant_functionals(act_VV, 16)
    assert len(caps) == 1
    e_vec = caps[0]
    C = [[c_vec[4 * a + b] for b in range(4)] for a in range(4)]
    Emat = [[e_vec[4 * a + b] for b in range(4)] for a in range(4)]
    z1 = scalar_multiple_of_identity(mul(Emat, C))
    assert z1 is not None and not z1.is_zero()
    Emat = mscale(Emat, ONE / z1)
    z2 = scalar_multiple_of_identity(mul(C, Emat))
    assert z2 == ONE, f"second zig-zag is {z2!r}, expected 1"
    delta1 = sum((Emat[a][b] * C[a][b] for a in range(4) for b in range(4)), ZERO)
    report("delta_1 (single loop)", delta1)
    weyl1 = rf(qint(2) * qint(6)) / rf(qint(3))
    assert delta1 == -weyl1, f"single loop {delta1!r} != -[2][6]/[3]"
    # cup rotation invariance: rot(c)[n0][n1] = sum_i C[i][n0] B[i][n1]
    B = mul(invert(transpose(C)), C)
    rot_c = [[sum((C[i][n0] * B[i][n1] for i in range(4)), ZERO)
              for n1 in range(4)] for n0 in range(4)]
    assert mat_eq(rot_c, C), "V cup is not rotation invariant"
    print("  cup rotation: ok")

    print("== step 2: W inside V (x) V ==")
    hw = [ZERO] * 16
    hw[1] = ONE            # v1 (x) v2
    hw[4] = -rf(Q(1))      # - q v2 (x) v1
    assert all(x.is_zero() for x in apply_vec(act_VV["E1"], hw))
    assert all(x.is_zero() for x in apply_vec(act_VV["E2"], hw))
    w_basis = [hw]
    for g in ("F2", "F1", "F1", "F2"):
        w_basis.append(apply_vec(act_VV[g], w_basis[-1]))
    assert rank(w_basis) == 5
    t_hw = [ZERO] * 16
    t_hw[0] = ONE          # v1 (x) v1
    t_vecs = [t_hw]
    frontier = [t_hw]
    while frontier:
        new = []
        for v in frontier:
            for g in ("F1", "F2"):
                u = apply_vec(act_VV[g], v)
                if any(not x.is_zero() for x in u) and \
                        rank(t_vecs + new + [u]) == len(t_vecs) + len(new) + 1:
                    new.append(u)
        t_vecs.extend(new)
        frontier = new
    assert len(t_vecs) == 10, f"(2,0) summand has {len(t_vecs)} vectors"
    basis_cols = [c_vec] + w_basis + t_vecs
    M = transpose(basis_cols)
    Minv = invert(M)
    tau = [Minv[1 + k] for k in range(5)]           # V (x) V -> W
    iota_la = transpose(w_basis)                    # W -> V (x) V, any basis
    assert mat_eq(mul(tau, iota_la), eye(5))

    act_W = {g: mul(tau, mul(act_VV[g], iota_la)) for g in GEN_V}
    act_WW = action_on_product(act_W, act_W, 5, 5)
    cups_w = invariant_vectors(act_WW, 25)
    caps_w = invariant_functionals(act_WW, 25)
    assert len(cups_w) == 1 and len(caps_w) == 1
    CW = [[cups_w[0][5 * a + b] for b in range(5)] for a in range(5)]
    EW = [[caps_w[0][5 * a + b] for b in range(5)] for a in range(5)]
    z1 = scalar_multiple_of_identity(mul(EW, CW))
    EW = mscale(EW, ONE / z1)
    z2 = scalar_multiple_of_identity(mul(CW, EW))
    assert z2 == ONE, f"W zig-zag mismatch: {z2!r}"
    delta2 = sum((EW[a][b] * CW[a][b] for a in range(5) for b in range(5)), ZERO)
    report("delta_2 (double loop)", delta2)
    weyl2 = rf(qint(5) * qint(6)) / rf(qint(2) * qint(3))
    assert delta2 == weyl2, f"double loop {delta2!r} != [5][6]/([2][3])"
    BW = mul(invert(transpose(CW)), CW)
    rot_cw = [[sum((CW[i][n0] * BW[i][n1] for i in range(5)), ZERO)
               for n1 in range(5)] for n0 in range(5)]
    assert mat_eq(rot_cw, CW), "W cup is not rotation invariant"
    print("  W cup rotation: ok")

    tad = apply_vec(tau, c_vec)
    assert all(x.is_zero() for x in tad), "tadpole (capped vertex) is nonzero"
    print("  tadpole vanishes: ok")

    # no vertex on three doubles: the (1,1)-weight space of W (x) W carries no
    # highest weight vector
    wt_W = [(1, 1), (1, -1), (0, 0), (-1, 1), (-1, -1)]
    idx = [5 * a + b for a in range(5) for b in range(5)
           if (wt_W[a][0] + wt_W[b][0], wt_W[a][1] + wt_W[b][1]) == (1, 1)]
    rows = []
    for g in ("E1", "E2"):
        m_ = act_WW[g]
        for i in range(25):
            rows.append([m_[i][j] for j in idx])
    assert not solve_nullspace(rows), "unexpected copy of W inside W (x) W"
    print("  Hom(W (x) W, W) = 0: ok")

    print("== step 3: the vertex, bigons, and the square relation ==")
    # gauge: scale the vertex so the two-single bigon constant is -[2]^2,
    # which also makes the mixed bigon [5] and the square relation monic
    gauge = rf(Q(-1) * (Q(2) + LaurentPoly.one()) * (Q(2) + LaurentPoly.one()))
    tau = mscale(tau, gauge)
    # bent inclusion iota: W -> V (x) V, built from tau by rotating two legs
    cc4 = {}
    for i in range(4):
        for j in range(4):
            for k in range(4):
                for l in range(4):
                    v = C[i][l] * C[j][k]
                    if not v.is_zero():
                        cc4[(i, j, k, l)] = v
    iota = zeros(16, 5)
    for (i, j, k, l), x in cc4.items():
        for wmid in range(5):
            t = tau[wmid][4 * k + l]
            if t.is_zero():
                continue
            for w_in in range(5):
                if not EW[wmid][w_in].is_zero():
                    iota[4 * i + j][w_in] = iota[4 * i + j][w_in] + x * t * EW[wmid][w_in]
    bigon_ss = scalar_multiple_of_identity(mul(tau, iota))
    assert bigon_ss is not None and not bigon_ss.is_zero()
    report("beta_ss (two-single bigon -> double edge)", bigon_ss)
    two = rf(qint(2))
    assert bigon_ss == -(two * two), "gauge should make the bigon -[2]^2"

    mprime = zeros(20, 4)   # V -> V (x) W : (1 (x) tau)(c (x) 1)
    for k in range(4):
        for a in range(4):
            for w in range(5):
                acc = ZERO
                for b in range(4):
                    if not C[a][b].is_zero() and not tau[w][4 * b + k].is_zero():
                        acc = acc + C[a][b] * tau[w][4 * b + k]
                mprime[5 * a + w][k] = acc
    nprime = zeros(4, 20)   # V (x) W -> V : (e (x) 1)(1 (x) iota)
    for a in range(4):
        for w in range(5):
            for out in range(4):
                acc = ZERO
                for b in range(4):
                    if not Emat[a][b].is_zero() and not iota[4 * b + out][w].is_zero():
                        acc = acc + Emat[a][b] * iota[4 * b + out][w]
                nprime[out][5 * a + w] = acc
    bigon_sd = scalar_multiple_of_identity(mul(nprime, mprime))
    assert bigon_sd is not None and not bigon_sd.is_zero()
    report("beta_sd (single-double bigon -> single edge)", bigon_sd)
    assert bigon_sd == rf(qint(5)), "gauge should make the mixed bigon [5]"
    assert bigon_sd * delta1 == bigon_ss * delta2, \
        "bigon constants disagree with the closed theta value"

    H = mul(iota, tau)
    Eop = zeros(16, 16)
    for a in range(4):
        for b in range(4):
            if C[a][b].is_zero():
                continue
            for x in range(4):
                for y in range(4):
                    if not Emat[x][y].is_zero():
                        Eop[4 * a + b][4 * x + y] = C[a][b] * Emat[x][y]

    def rot_endo(X):
        """(e (x) 1 (x) 1)(1 (x) X (x) 1)(1 (x) 1 (x) c): counterclockwise
        rotation by one boundary position."""
        out = zeros(16, 16)
        for x in range(4):
            for i in range(4):
                exi = Emat[x][i]
                if exi.is_zero():
                    continue
                for y in range(4):
                    for k in range(4):
                        for j in range(4):
                            v = X[4 * i + j][4 * y + k]
                            if v.is_zero():
                                continue
                            for l in range(4):
                                if not C[k][l].is_zero():
                                    out[4 * j + l][4 * x + y] = \
                                        out[4 * j + l][4 * x + y] + exi * v * C[k][l]
        return out

    assert mat_eq(rot_endo(eye(16)), Eop), "rotating the identity must give cup-cap"
    assert mat_eq(rot_endo(Eop), eye(16)), "rotating cup-cap must give the identity"
    Hrot = rot_endo(H)
    assert mat_eq(rot_endo(Hrot), H), "double rotation must return the bridge"

    flat = [[x for row in m_ for x in row] for m_ in (eye(16), Eop, H, Hrot)]
    null = solve_nullspace(transpose(flat))
    assert len(null) == 1, f"square relation space has dimension {len(null)}"
    rel = null[0]
    assert not rel[2].is_zero() and not rel[3].is_zero()
    rel = [x / rel[2] for x in rel]   # id, cupcap, H(=1), Hrot coefficients
    report("square relation  r0*id + r1*cupcap + H + r3*H' = 0, (r0, r1, r3)",
           (rel[0], rel[1], rel[3]))
    # rotation covariance: rot maps the relation (r0, r1, r2, r3) to
    # (r1, r0, r3, r2); the kernel is 1-dimensional so they must align
    rel_rot = [rel[1], rel[0], rel[3], ONE]
    s = rel_rot[2] / rel[2]
    assert all((rel_rot[i] - s * rel[i]).is_zero() for i in range(4)), \
        "square relation is not rotation covariant"
    print("  square relation rotation covariance: ok")

    print("== step 4: braiding ==")
    pi1 = mscale(Eop, ONE / delta1)
    piW = mscale(H, ONE / bigon_ss)
    piT = msub(msub(eye(16), pi1), piW)
    for p in (pi1, piW, piT):
        assert mat_eq(mul(p, p), p), "projector check failed"
    lam_T, lam_W, lam_1 = rf(Q(1)), -rf(Q(-1)), -rf(Q(-5))
    sigma = madd(mscale(piT, lam_T), madd(mscale(piW, lam_W), mscale(pi1, lam_1)))
    sigma_inv = madd(mscale(piT, ONE / lam_T),
                     madd(mscale(piW, ONE / lam_W), mscale(pi1, ONE / lam_1)))
    assert mat_eq(mul(sigma, sigma_inv), eye(16)), "Reidemeister II fails"

    id4f = [[Fraction(int(i == j)) for j in range(4)] for i in range(4)]
    for q0 in (Fraction(3, 2), Fraction(5, 7), Fraction(-4, 3), Fraction(9, 5)):
        sf = eval_mat(sigma, q0)
        left = fkron(sf, id4f)
        right = fkron(id4f, sf)
        assert fmul(fmul(left, right), left) == fmul(fmul(right, left), right), \
            "Yang-Baxter fails"
    print("  Yang-Baxter at sample points: ok")
    assert mat_eq(rot_endo(sigma), sigma_inv), "rotated crossing != inverse crossing"
    print("  rotated crossing equals inverse crossing: ok")

    coeff_A = lam_T
    coeff_B = (lam_1 - lam_T) / delta1
    coeff_C = (lam_W - lam_T) / bigon_ss
    recon = madd(mscale(eye(16), coeff_A),
                 madd(mscale(Eop, coeff_B), mscale(H, coeff_C)))
    assert mat_eq(recon, sigma)
    report("crossing A (identity term)", coeff_A)
    report("crossing B (cup-cap term)", coeff_B)
    report("crossing C (bridge term)", coeff_C)

    # curl: right partial closure (1 (x) e)(sigma (x) 1)(1 (x) c)
    wgt = [[sum((Emat[o2][l] * C[k][l] for l in range(4)), ZERO)
            for k in range(4)] for o2 in range(4)]
    curl = zeros(4, 4)
    for o1 in range(4):
        for x in range(4):
            acc = ZERO
            for o2 in range(4):
                for k in range(4):
                    v = sigma[4 * o1 + o2][4 * x + k]
                    if not v.is_zero() and not wgt[o2][k].is_zero():
                        acc = acc + v * wgt[o2][k]
            curl[o1][x] = acc
    framing = scalar_multiple_of_identity(curl)
    assert framing is not None
    report("positive curl factor", framing)

    print("== step 5: engine-derived face rules ==")
    from c2spider import engine as eng
    from c2spider import rules as rl
    from c2spider import web as wb

    loop = {"s": delta1, "d": delta2}
    base_rules = [
        rl.FaceRule(("s",), ()),
        rl.FaceRule(("s", "s"),
                    ((bigon_ss, ((), ((("x", 0), ("x", 1), "d"),))),)),
        rl.FaceRule(("s", "d"),
                    ((bigon_sd, ((), ((("x", 0), ("x", 1), "s"),))),)),
        rl.FaceRule(("s", "s", "s"), ()),
    ]

    def polygon_web(word):
        m = len(word)
        w = wb.Web()
        verts = []
        exts = []
        for i in range(m):
            ext_t = rl._ext_type(word[(i - 1) % m], word[i])
            v, darts = w.add_vertex("tri", [word[(i - 1) % m], word[i], ext_t])
            verts.append((v, darts))
            b = w.new_dart(ext_t)
            w.connect(darts[2], b)
            exts.append(b)
        for i in range(m):
            w.connect(verts[i][1][1], verts[(i + 1) % m][1][0])
        w.n_in = m
        for candidate in (exts, list(reversed(exts))):
            w.boundary = candidate
            if w.validate() is None:
                return w
        raise AssertionError(f"polygon for {word} does not embed")

    def h_move(web, dside, mode):
        """Rewrite the double edge carrying ``dside`` via the square relation.

        ``mode`` selects whether the configuration is read as the bridge or as
        the rotated bridge; the two readings rotate the new double edge to
        opposite sides."""
        u, v = web.dart_vertex[dside], web.dart_vertex[web.pair[dside]]
        legsu = web.vlegs[u]
        ku = legsu.index(dside)
        a, b = legsu[(ku + 1) % 3], legsu[(ku + 2) % 3]
        legsv = web.vlegs[v]
        kv = legsv.index(web.pair[dside])
        c_, d_ = legsv[(kv + 1) % 3], legsv[(kv + 2) % 3]
        term_id = ((), ((("x", 0), ("x", 3), "s"), (("x", 1), ("x", 2), "s")))
        term_cup = ((), ((("x", 0), ("x", 1), "s"), (("x", 2), ("x", 3), "s")))

        if mode == "H":
            # config occupies ports (0,1),(2,3): H = -(r0 id + r1 E + r3 H')
            ports = [a, b, c_, d_]
            coeffs = (-rel[0], -rel[1], -rel[3])
            terms = [term_id, term_cup, eng._bridge(1)]
        else:
            # same config read as the rotated bridge in the shifted frame
            ports = [d_, a, b, c_]
            coeffs = (-rel[0] / rel[3], -rel[1] / rel[3], -ONE / rel[3])
            terms = [term_id, term_cup, eng._bridge(0)]
        webs = eng._splice(web, {u, v}, ports, terms)
        return list(zip(coeffs, webs))

    def on_ports(diagram, portmap):
        """A copy whose boundary word lists the darts in port order."""
        out = diagram.copy()
        out.boundary = sorted(portmap, key=portmap.get)
        return out

    def derive_face(word, table):
        w = polygon_web(word)
        faces = w.faces()
        assert len(faces) == 1, f"polygon for {word} has {len(faces)} internal faces"
        target = faces[0]
        # rule ports follow the traced face: corner j sits between traced
        # sides j-1 and j; port j is the boundary anchor of its third leg
        word_traced = tuple(w.etype[h] for h in target)
        portmap = {}
        for j, h in enumerate(target):
            vtx = w.dart_vertex[h]
            entering = w.pair[target[j - 1]]
            ext_leg = next(d for d in w.vlegs[vtx] if d not in (entering, h))
            portmap[w.pair[ext_leg]] = j
        dside = next(h for h in target if w.etype[h] == "d")
        for mode in ("H", "Hrot"):
            total = eng.WebSum.zero()
            for coeff, w2 in h_move(w, dside, mode):
                total = total + eng.reduce_sum(eng.WebSum.from_web(w2, coeff),
                                               table=table)
            if all(not d.faces() for _, d in total):
                return rl.FaceRule(word_traced, tuple(
                    (coeff, eng.to_mini(on_ports(d, portmap))) for coeff, d in total))
        raise AssertionError(f"face {word} did not reduce to basis webs")

    table = rl.RuleTable(loop, base_rules)
    tri_ssd = derive_face(("s", "s", "d"), table)
    print(f"  face ssd: {len(tri_ssd.rhs)} terms")
    table = rl.RuleTable(loop, base_rules + [tri_ssd])
    sq_sdsd = derive_face(("s", "d", "s", "d"), table)
    print(f"  face sdsd: {len(sq_sdsd.rhs)} terms")
    sq_sssd = derive_face(("s", "s", "s", "d"), table)
    print(f"  face sssd: {len(sq_sssd.rhs)} terms")
    table = rl.RuleTable(loop, base_rules + [tri_ssd, sq_sdsd, sq_sssd])
    pent = derive_face(("s", "s", "d", "s", "d"), table)
    print(f"  face ssdsd: {len(pent.rhs)} terms")
    table = rl.RuleTable(loop, base_rules + [tri_ssd, sq_sdsd, sq_sssd, pent])
    hexa = derive_face(("s", "d", "s", "d", "s", "d"), table)
    print(f"  face sdsdsd: {len(hexa.rhs)} terms")

    final = rl.RuleTable(
        loop,
        base_rules + [tri_ssd, sq_sdsd, sq_sssd, pent, hexa],
        crossing=(coeff_A, coeff_B, coeff_C),
        framing=framing,
        meta={"vertex_gauge": "bent inclusion of the linear-algebra projection "
                              "(tau iota_bent = beta_ss)",
              "braiding_eigenvalues": "q on (2,0), -1/q on (0,1), -1/q^5 on 1"})

    print("== step 6: consistency checks with the final table ==")
    # direct tensor solve of the sdsd face against the engine-derived rule:
    # build the square as an endomorphism of V (x) V and match its expansion
    mdouble = zeros(20, 4)   # V -> W (x) V : (tau (x) 1)(1 (x) c)
    for k in range(4):
        for w in range(5):
            for b in range(4):
                acc = ZERO
                for a in range(4):
                    if not C[a][b].is_zero() and not tau[w][4 * k + a].is_zero():
                        acc = acc + tau[w][4 * k + a] * C[a][b]
                mdouble[4 * w + b][k] = acc
    sq = zeros(16, 16)
    for x in range(4):
        for y in range(4):
            # (m'' (x) m') with the middle V-pair capped, then both W's split
            # and the middle V-pair of the top capped
            for wl in range(5):
                for a in range(4):
                    vml = mdouble[4 * wl + a][x]
                    if vml.is_zero():
                        continue
                    for bq in range(4):
                        if Emat[a][bq].is_zero():
                            continue
                        for wr in range(5):
                            vmr = mprime[5 * bq + wr][y]
                            if vmr.is_zero():
                                continue
                            base_c = vml * Emat[a][bq] * vmr
                            for o1 in range(4):
                                for mid1 in range(4):
                                    vl2 = iota[4 * o1 + mid1][wl]
                                    if vl2.is_zero():
                                        continue
                                    for mid2 in range(4):
                                        if Emat[mid1][mid2].is_zero():
                                            continue
                                        for o2 in range(4):
                                            vr2 = iota[4 * mid2 + o2][wr]
                                            if vr2.is_zero():
                                                continue
                                            sq[4 * o1 + o2][4 * x + y] = \
                                                sq[4 * o1 + o2][4 * x + y] + \
                                                base_c * vl2 * Emat[mid1][mid2] * vr2
    # solve sq = a id + b cupcap + g H + h H'
    cols = transpose([[x for row in m_ for x in row]
                      for m_ in (eye(16), Eop, H, Hrot)])
    target = [x for row in sq for x in row]
    sol = solve_linear(cols, target)
    report("tensor square solve (id, cupcap, H, H')", tuple(sol))

    # compare with the sdsd face rule applied to the square's own face
    from c2spider.web import Web

    def endo_key(mini_terms):
        """Classify an engine rhs diagram on boundary (in0,in1,out1,out0)."""
        verts, edges = mini_terms
        if not verts:
            conn = tuple(sorted(tuple(sorted((a[1], b[1]))) for a, b, _ in edges))
            return {((0, 3), (1, 2)): "id", ((0, 1), (2, 3)): "cupcap"}[conn]
        attach = {}
        for a, b, _ in edges:
            for p, q_ in ((a, b), (b, a)):
                if p[0] == "x" and q_[0] == "v":
                    attach.setdefault(q_[1], []).append(p[1])
        groups = sorted(tuple(sorted(v)) for v in attach.values())
        if groups == [(0, 1), (2, 3)]:
            return "H"
        if groups == [(0, 3), (1, 2)]:
            return "Hrot"
        raise AssertionError(f"unrecognized sdsd rhs diagram {groups}")

    derived = {"id": ZERO, "cupcap": ZERO, "H": ZERO, "Hrot": ZERO}
    for coeff, mini in sq_sdsd.rhs:
        derived[endo_key(mini)] = derived[endo_key(mini)] + coeff
    # the expansion is unique only modulo the square relation, so compare the
    # difference against it
    names = ("id", "cupcap", "H", "Hrot")
    diff = [derived[k] - s_ for k, s_ in zip(names, sol)]
    if any(not d.is_zero() for d in diff):
        piv = next(i for i in range(4) if not diff[i].is_zero())
        ratio = diff[piv] / rel[piv]
        assert all((diff[i] - ratio * rel[i]).is_zero() for i in range(4)), \
            f"sdsd rule differs from the tensor expansion by more than the relation"
    print("  engine sdsd rule matches the tensor expansion: ok")

    # closed theta web
    th = wb.Web()
    v1, d1 = th.add_vertex("tri", ["s", "s", "d"])
    v2, d2 = th.add_vertex("tri", ["s", "s", "d"])
    th.connect(d1[0], d2[1])
    th.connect(d1[1], d2[0])
    th.connect(d1[2], d2[2])
    val = eng.eval_closed(th, table=final)
    assert val == bigon_ss * delta2, f"theta web value {val!r}"
    print("  theta web: ok")

    # curl web: trace one strand of a crossing; must match the tensor curl
    curl_web = Web()
    vx, legs = curl_web.add_vertex("cross", ["s"] * 4, extra=("over", 0))
    bin_ = curl_web.new_dart("s")
    bout = curl_web.new_dart("s")
    curl_web.connect(legs[0], bin_)
    curl_web.connect(legs[3], bout)
    curl_web.connect(legs[1], legs[2])
    curl_web.boundary = [bin_, bout]
    curl_web.n_in = 1
    closed = wb.trace_closure(curl_web)
    val = eng.eval_closed(closed, table=final)
    assert val == framing * delta1, f"curl trace gave {val!r}, " \
                                    f"expected {(framing * delta1)!r}"
    print("  curl trace: ok")

    if out_path is None:
        out_path = os.path.join(os.path.dirname(__file__), "..", "src", "c2spider",
                                "rules_data.py")
    write_rules(final, out_path)
    print(f"wrote {out_path}")
    print(f"table hash: {final.table_hash()}")


def solve_linear(cols, target):
    """Solve cols * x = target exactly (cols: list of rows of the matrix)."""
    n = len(cols[0])
    rows, pivots = gauss_jordan([list(row) + [t] for row, t in zip(cols, target)], n)
    sol = [ZERO] * n
    for pi, pc in enumerate(pivots):
        sol[pc] = rows[pi][n]
    for row in rows[len(pivots):]:
        assert row[n].is_zero(), "inconsistent linear system"
    return sol


def write_rules(table, path):
    """Write the table as one compact JSON string, the bytes whose sha256
    ``RuleTable.table_hash`` truncates; a string loads faster than a dict
    literal compiles."""
    blob = json.dumps(table.to_json(), sort_keys=True, separators=(",", ":"))
    with open(path, "w") as fh:
        fh.write('"""Frozen relation table for the C2 web engine.\n\n')
        fh.write("Generated by tools/derive_rules.py from the representation\n")
        fh.write("theory of quantum sp(4); audit with `c2spider web rules`.\n")
        fh.write("The table is one compact JSON string (sorted keys, no spaces),\n")
        fh.write("whose sha256 begins with the table hash.\n")
        fh.write('"""\n\n')
        fh.write(f"RULES_JSON = {blob!r}\n")


if __name__ == "__main__":
    main(*sys.argv[1:2])
