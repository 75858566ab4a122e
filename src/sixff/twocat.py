"""Strict 2-categories as explicit tables, with the adjunction calculus:
triangle verification, the weak-triangle upgrade, mates, uniqueness of
adjoints, and the pointwise criterion audit.

Every structure here is finite and every check is a table equality.  The
module ships two builders: a scalar model (one 1-cell per hom, 2-cells a
prime field, horizontal composition = multiplication) whose hom-sets are
tiny enough for exhaustive mate checks, and a Kronecker model (1-cells are
dimensions, 2-cells all matrices over a prime field, horizontal composition
the Kronecker product) which is strict because row-major flattening of
Kronecker products is associative on the nose.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .fields import GF
from .groupoid import FiniteCategory, StructureError, Violation, okey
from .linalg import Matrix


class StrictTwoCat:
    """objects; hom[(X,Y)]: FiniteCategory whose objects are 1-cells and
    morphisms are 2-cells; horizontal composition tables for both."""

    def __init__(self, objects, hom, id1, hcomp1, hcomp2):
        self.objects = tuple(objects)
        self.hom = dict(hom)
        self.id1 = dict(id1)
        self.hcomp1 = dict(hcomp1)
        self.hcomp2 = dict(hcomp2)
        self._home1 = {}
        self._home2 = {}
        for (X, Y), cat in self.hom.items():
            for c in cat.objects:
                if c in self._home1:
                    raise StructureError("1-cell id %r reused" % (c,))
                self._home1[c] = (X, Y)
            for t in cat.morphisms:
                if t in self._home2:
                    raise StructureError("2-cell id %r reused" % (t,))
                self._home2[t] = (X, Y)

    # -- basic accessors ----------------------------------------------------

    def hom_of_1cell(self, f):
        return self._home1[f]

    def cell_src(self, t):
        cat = self.hom[self._home2[t]]
        return cat.src[t]

    def cell_dst(self, t):
        cat = self.hom[self._home2[t]]
        return cat.dst[t]

    def id2(self, f):
        cat = self.hom[self._home1[f]]
        return cat.identity[f]

    def vcomp(self, t2, t1):
        """t2 ∘ t1 (vertical)."""
        cat = self.hom[self._home2[t1]]
        return cat.compose(t2, t1)

    def h1(self, g, f):
        """g ∘ f on 1-cells (g after f)."""
        return self.hcomp1[(g, f)]

    def h2(self, beta, alpha):
        """beta * alpha (horizontal, beta after alpha)."""
        return self.hcomp2[(beta, alpha)]

    def whisker_l(self, f, alpha):
        """f * alpha (post-compose with the 1-cell f)."""
        return self.h2(self.id2(f), alpha)

    def whisker_r(self, alpha, f):
        """alpha * f (pre-compose with the 1-cell f)."""
        return self.h2(alpha, self.id2(f))

    def two_cells(self, X, Y):
        return self.hom[(X, Y)].morphisms

    def one_cells(self, X, Y):
        return self.hom[(X, Y)].objects

    def is_invertible_2cell(self, t):
        cat = self.hom[self._home2[t]]
        return cat.is_iso(t)

    def invert_2cell(self, t):
        cat = self.hom[self._home2[t]]
        f, g = cat.src[t], cat.dst[t]
        for t2 in cat.hom(g, f):
            if cat.compose(t2, t) == cat.identity[f] and \
               cat.compose(t, t2) == cat.identity[g]:
                return t2
        raise StructureError("2-cell %r is not invertible" % (t,))

    # -- validation ----------------------------------------------------------

    def validate(self):
        report = []
        for (X, Y), cat in self.hom.items():
            report.extend(cat.validate())
        # identity 1-cells and strict unit laws
        for X in self.objects:
            if X not in self.id1:
                report.append(Violation("2cat/id1", "no identity at %r" % (X,)))
        for f, (X, Y) in self._home1.items():
            if self.hcomp1.get((f, self.id1[X])) != f:
                report.append(Violation("2cat/unit", "%r ∘ id != %r" % (f, f)))
            if self.hcomp1.get((self.id1[Y], f)) != f:
                report.append(Violation("2cat/unit", "id ∘ %r != %r" % (f, f)))
        # strict associativity of 1-cell composition
        for f, (X, Y) in self._home1.items():
            for g, (Y2, Z) in self._home1.items():
                if Y2 != Y:
                    continue
                for h, (Z2, W) in self._home1.items():
                    if Z2 != Z:
                        continue
                    if self.h1(h, self.h1(g, f)) != self.h1(self.h1(h, g), f):
                        report.append(Violation(
                            "2cat/assoc", "(%r,%r,%r)" % (h, g, f)))
        # horizontal composition respects sources/targets and interchange
        for t1, (X, Y) in self._home2.items():
            for t2, (Y2, Z) in self._home2.items():
                if Y2 != Y:
                    continue
                h = self.hcomp2.get((t2, t1))
                if h is None:
                    report.append(Violation("2cat/h2-total",
                                            "missing (%r,%r)" % (t2, t1)))
                    continue
                if self.cell_src(h) != self.h1(self.cell_src(t2),
                                               self.cell_src(t1)) or \
                   self.cell_dst(h) != self.h1(self.cell_dst(t2),
                                               self.cell_dst(t1)):
                    report.append(Violation("2cat/h2-shape",
                                            "(%r,%r)" % (t2, t1)))
        # interchange on a bounded sample: all composable vertical pairs
        for (X, Y), cat in self.hom.items():
            for (Y2, Z), cat2 in self.hom.items():
                if Y2 != Y:
                    continue
                for a1, a2 in cat.composable_pairs():
                    for b1, b2 in cat2.composable_pairs():
                        lhs = self.vcomp(self.h2(b1, a1), self.h2(b2, a2))
                        rhs = self.h2(cat2.compose(b1, b2),
                                      cat.compose(a1, a2))
                        if lhs != rhs:
                            report.append(Violation(
                                "2cat/interchange",
                                "(%r,%r,%r,%r)" % (b1, b2, a1, a2)))
                            return report
        return report


@dataclass
class AdjunctionQuadruple:
    f: object       # 1-cell Y -> X
    g: object       # 1-cell X -> Y
    eta: object     # 2-cell id_Y -> g∘f
    eps: object     # 2-cell f∘g -> id_X


def verify_adjunction(q, C):
    """(pass, failing triangle name or None): checks (εf)∘(fη) = id_f and
    (gε)∘(ηg) = id_g by table evaluation."""
    Y = C.hom_of_1cell(q.f)[0]
    X = C.hom_of_1cell(q.f)[1]
    t1 = C.vcomp(C.whisker_r(q.eps, q.f), C.whisker_l(q.f, q.eta))
    if t1 != C.id2(q.f):
        return False, "left triangle (εf)∘(fη)"
    t2 = C.vcomp(C.whisker_l(q.g, q.eps), C.whisker_r(q.eta, q.g))
    if t2 != C.id2(q.g):
        return False, "right triangle (gε)∘(ηg)"
    return True, None


def upgrade_weak(q, C):
    """Given weak triangle data (both composites invertible), repair the
    unit: eta' = (psi f ... ) — precisely, compose eta with the inverse of
    the automorphism of g∘f induced by the invertible composite on g."""
    comp_f = C.vcomp(C.whisker_r(q.eps, q.f), C.whisker_l(q.f, q.eta))
    comp_g = C.vcomp(C.whisker_l(q.g, q.eps), C.whisker_r(q.eta, q.g))
    if not C.is_invertible_2cell(comp_f) or not C.is_invertible_2cell(comp_g):
        raise StructureError("weak triangle composites are not invertible")
    # automorphism of gf induced by the g-composite: (psi * id_f)
    psi = comp_g
    auto = C.whisker_r(psi, q.f)
    eta2 = C.vcomp(C.invert_2cell(auto), q.eta)
    out = AdjunctionQuadruple(q.f, q.g, eta2, q.eps)
    ok, why = verify_adjunction(out, C)
    if not ok:
        raise StructureError("upgrade failed: %s" % why)
    return out


def mate_rho(phi, adj, adjp, a, b, C):
    """rho(phi) = (u' b eps) ∘ (u' phi u) ∘ (eta' a u) for
    phi: f'∘a -> b∘f, giving a∘u -> u'∘b."""
    u, up = adj.g, adjp.g
    eta_p = adjp.eta
    # assemble by whiskering: a∘u --η'au--> u'f'au --u'φu--> u'bfu --u'bε--> u'b
    au = C.h1(a, u)
    s1 = C.whisker_r(eta_p, au)                      # au -> u' f' a u
    s2 = C.whisker_l(up, C.whisker_r(phi, u))        # u' f' a u -> u' b f u
    s3 = C.whisker_l(C.h1(up, b), adj.eps)           # u' b f u -> u' b
    return C.vcomp(s3, C.vcomp(s2, s1))


def mate_lambda(psi, adj, adjp, a, b, C):
    """lambda(psi) = (eps' b f) ∘ (f' psi f) ∘ (f' a eta) for
    psi: a∘u -> u'∘b, giving f'∘a -> b∘f."""
    f, fp = adj.f, adjp.f
    fa = C.h1(fp, a)
    s1 = C.whisker_l(fa, adj.eta)                    # f'a -> f' a u f
    s2 = C.whisker_l(fp, C.whisker_r(psi, f))        # f' a u f -> f' u' b f
    s3 = C.whisker_r(adjp.eps, C.h1(b, f))           # f' u' b f -> b f
    return C.vcomp(s3, C.vcomp(s2, s1))


def adjoint_uniqueness(q1, q2, C):
    """The canonical comparison g1 -> g2 (via q2's unit and q1's counit),
    certified invertible."""
    assert q1.f == q2.f
    cell = C.vcomp(C.whisker_l(q2.g, q1.eps), C.whisker_r(q2.eta, q1.g))
    if not C.is_invertible_2cell(cell):
        raise StructureError("uniqueness comparison not invertible")
    return cell


# ---------------------------------------------------------------------------
# Pointwise criterion audit
# ---------------------------------------------------------------------------

class BoundedSearchRefusal(Exception):
    pass


def _functor_candidates(dom, cod, budget):
    """All functors dom -> cod (both FiniteCategory), up to a budget."""
    objs = list(dom.objects)
    count = 1
    for _ in objs:
        count *= max(1, len(cod.objects))
    if count > budget:
        raise BoundedSearchRefusal("object-map space too large")
    out = []
    for ob_images in itertools.product(cod.objects, repeat=len(objs)):
        ob = dict(zip(objs, ob_images))
        mor_choices = []
        feasible = True
        for m in dom.morphisms:
            cands = [t for t in cod.morphisms
                     if cod.src[t] == ob[dom.src[m]]
                     and cod.dst[t] == ob[dom.dst[m]]]
            if not cands:
                feasible = False
                break
            mor_choices.append((m, cands))
        if not feasible:
            continue
        total = 1
        for _, cands in mor_choices:
            total *= len(cands)
            if total > budget:
                raise BoundedSearchRefusal("morphism-map space too large")
        for assignment in itertools.product(*[c for _, c in mor_choices]):
            mor = {m: t for (m, _), t in zip(mor_choices, assignment)}
            ok = True
            for x in dom.objects:
                if mor[dom.identity[x]] != cod.identity[ob[x]]:
                    ok = False
                    break
            if ok:
                for g, f in dom.composable_pairs():
                    if mor[dom.compose(g, f)] != cod.compose(mor[g], mor[f]):
                        ok = False
                        break
            if ok:
                from .groupoid import Functor
                out.append(Functor(dom, cod, ob, mor))
    return out


def _post_composition_functor(C, f, Z):
    """f_*: hom(Z, Y) -> hom(Z, X) for f: Y -> X."""
    from .groupoid import Functor
    Y, X = C.hom_of_1cell(f)
    dom = C.hom[(Z, Y)]
    cod = C.hom[(Z, X)]
    ob = {h: C.h1(f, h) for h in dom.objects}
    mor = {t: C.whisker_l(f, t) for t in dom.morphisms}
    return Functor(dom, cod, ob, mor)


def _right_adjoint_of_functor(F, budget):
    """Exhaustively search a right adjoint (G, unit, counit) of the functor
    F: A -> B between finite categories; returns None if none exists."""
    A, B = F.dom, F.cod
    for G in _functor_candidates(B, A, budget):
        # search unit: id_A -> G∘F and counit F∘G -> id_B, natural, triangles
        unit_choices = []
        ok = True
        for a in A.objects:
            cands = A.hom(a, G.ob[F.ob[a]])
            if not cands:
                ok = False
                break
            unit_choices.append((a, cands))
        if not ok:
            continue
        for unit_pick in itertools.product(*[c for _, c in unit_choices]):
            unit = {a: t for (a, _), t in zip(unit_choices, unit_pick)}
            natural = True
            for m in A.morphisms:
                lhs = A.compose(unit[A.dst[m]], m)
                rhs = A.compose(G.mor[F.mor[m]], unit[A.src[m]])
                if lhs != rhs:
                    natural = False
                    break
            if not natural:
                continue
            # counit determined by adjunction: eps_b unique with
            # G(eps_b)∘unit_{G b} = id_{G b}; search it
            counit = {}
            good = True
            for b in B.objects:
                cands = [t for t in B.hom(F.ob[G.ob[b]], b)
                         if A.compose(G.mor[t], unit[G.ob[b]])
                         == A.identity[G.ob[b]]]
                if len(cands) != 1:
                    good = False
                    break
                counit[b] = cands[0]
            if not good:
                continue
            nat2 = all(B.compose(counit[B.dst[m]],
                                 F.mor[G.mor[m]]) ==
                       B.compose(m, counit[B.src[m]])
                       for m in B.morphisms)
            tri1 = all(B.compose(counit[F.ob[a]], F.mor[unit[a]])
                       == B.identity[F.ob[a]] for a in A.objects)
            if nat2 and tri1:
                return G, unit, counit
    return None


@dataclass
class PointwiseAuditReport:
    has_right_adjoint: bool
    criterion_holds: bool
    candidate: object
    agreement: bool
    detail: str


def pointwise_audit(f, C, test_objects=None, budget=10000):
    """Audit the pointwise criterion for the 1-cell f: compute the right
    adjoint of post-composition on each hom category by exhaustive search,
    check the comparison condition, and cross-check against a direct search
    for an adjoint of f."""
    Y, X = C.hom_of_1cell(f)
    Zs = list(test_objects) if test_objects is not None else [X, Y]
    adjoints = {}
    for Z in Zs:
        F = _post_composition_functor(C, f, Z)
        found = _right_adjoint_of_functor(F, budget)
        if found is None:
            return PointwiseAuditReport(False, False, None, True,
                                        "condition (a) fails at %r" % (Z,))
        adjoints[Z] = found
    # candidate right adjoint g := G_X(id_X)
    GX, unitX, counitX = adjoints[X]
    g = GX.ob[C.id1[X]]
    # condition (b): the natural map g∘f -> G_Y(f) is invertible after
    # Hom(id_Y, -): here we verify bijectivity of composition on hom sets
    GY, unitY, counitY = adjoints[Y]
    gf = C.h1(g, f)
    target = GY.ob[f]
    homcat = C.hom[(Y, Y)]
    # natural map gf -> G_Y(f): unit of (f_*, G_Y) at gf, then G_Y(eps f)
    eps = counitX[C.id1[X]]                 # 2-cell f∘g -> id_X
    epsf = C.whisker_r(eps, f)              # f g f -> f
    nat_map = homcat.compose(GY.mor[epsf], unitY[gf])
    lhs = set()
    for t in homcat.hom(C.id1[Y], gf):
        lhs.add(homcat.compose(nat_map, t))
    rhs = set(homcat.hom(C.id1[Y], target))
    criterion = (len(lhs) == len(homcat.hom(C.id1[Y], gf))
                 and lhs <= rhs and len(lhs) == len(rhs))
    # direct adjunction search for f
    direct = _direct_adjoint_search(f, C)
    agreement = (direct is not None) == criterion
    return PointwiseAuditReport(True, criterion, g, agreement,
                                "candidate %r; direct search %s" %
                                (g, "found" if direct else "none"))


def adjunctions(f, g, C):
    """Every adjunction (f ⊣ g, eta, eps) in C, by exhaustive search over
    the unit and counit 2-cells."""
    Y, X = C.hom_of_1cell(f)
    for eta in C.hom[(Y, Y)].hom(C.id1[Y], C.h1(g, f)):
        for eps in C.hom[(X, X)].hom(C.h1(f, g), C.id1[X]):
            q = AdjunctionQuadruple(f, g, eta, eps)
            if verify_adjunction(q, C)[0]:
                yield q


def _direct_adjoint_search(f, C):
    Y, X = C.hom_of_1cell(f)
    for g in C.one_cells(X, Y):
        q = next(adjunctions(f, g, C), None)
        if q is not None:
            return q
    return None


# ---------------------------------------------------------------------------
# Builders
# ---------------------------------------------------------------------------

def scalar_two_cat(objects, p):
    """One 1-cell per ordered pair of objects; 2-cells are F_p scalars;
    horizontal and vertical composition are both multiplication.  Hom sets
    have exactly p 2-cells."""
    field = GF(p)
    hom = {}
    id1 = {}
    hcomp1 = {}
    hcomp2 = {}
    cells = {}
    for X in objects:
        for Y in objects:
            c = ("c", X, Y)
            cells[(X, Y)] = c
            morphs = [("s", X, Y, v) for v in range(p)]
            src = {m: c for m in morphs}
            dst = {m: c for m in morphs}
            ident = {c: ("s", X, Y, 1)}
            comp = {(m2, m1): ("s", X, Y, (m2[3] * m1[3]) % p)
                    for m2 in morphs for m1 in morphs}
            hom[(X, Y)] = FiniteCategory([c], morphs, src, dst, ident, comp)
        id1[X] = ("c", X, X)
    for X in objects:
        for Y in objects:
            for Z in objects:
                hcomp1[(cells[(Y, Z)], cells[(X, Y)])] = cells[(X, Z)]
                for v in range(p):
                    for w in range(p):
                        hcomp2[(("s", Y, Z, v), ("s", X, Y, w))] = \
                            ("s", X, Z, (v * w) % p)
    return StrictTwoCat(objects, hom, id1, hcomp1, hcomp2)


def kron_two_cat(objects, dims, p, max_dim=None):
    """1-cells are dimensions from `dims` (which must be closed under
    products along composable homs, 1 included); 2-cells all matrices over
    F_p; horizontal composition is the Kronecker product, which is strictly
    associative in row-major flattening."""
    field = GF(p)
    dims = sorted(set(dims) | {1})
    for a in dims:
        for b in dims:
            if a * b not in dims:
                raise StructureError("dims not closed under products")

    def all_matrices(n, m):
        entries = [field.of(v) for v in range(p)]
        out = []
        for combo in itertools.product(entries, repeat=n * m):
            rows = [list(combo[i * n:(i + 1) * n]) for i in range(m)]
            out.append(Matrix(field, rows, ncols=n))
        return out

    hom = {}
    id1 = {}
    hcomp1 = {}
    hcomp2 = {}
    for X in objects:
        for Y in objects:
            one_cells = [("d", X, Y, n) for n in dims]
            morphs = []
            src, dst = {}, {}
            for n in dims:
                for m in dims:
                    for mat in all_matrices(n, m):
                        t = ("m", X, Y, n, m, mat)
                        morphs.append(t)
                        src[t] = ("d", X, Y, n)
                        dst[t] = ("d", X, Y, m)
            ident = {("d", X, Y, n): ("m", X, Y, n, n,
                                      Matrix.identity(field, n))
                     for n in dims}
            comp = {}
            for t2 in morphs:
                for t1 in morphs:
                    if src[t2] == dst[t1]:
                        comp[(t2, t1)] = ("m", X, Y, t1[3], t2[4],
                                          t2[5] * t1[5])
            hom[(X, Y)] = FiniteCategory(one_cells, morphs, src, dst,
                                         ident, comp)
        id1[X] = ("d", X, X, 1)
    for X in objects:
        for Y in objects:
            for Z in objects:
                for n in dims:
                    for m in dims:
                        hcomp1[(("d", Y, Z, n), ("d", X, Y, m))] = \
                            ("d", X, Z, n * m)
                for t2 in hom[(Y, Z)].morphisms:
                    for t1 in hom[(X, Y)].morphisms:
                        mat = t2[5].kron(t1[5])
                        hcomp2[(t2, t1)] = ("m", X, Z, t2[3] * t1[3],
                                            t2[4] * t1[4], mat)
    return StrictTwoCat(objects, hom, id1, hcomp1, hcomp2)


def generated_two_cat(object_simples, gen_one_cells, gen_two_cells, field):
    """Strict 2-category generated by multiplicity-matrix 1-cells and
    block-matrix 2-cells, closed under both compositions.

    object_simples: dict object -> number of simples.
    gen_one_cells: dict name -> (X, Y, tuple-of-tuples multiplicity matrix,
    rows indexed by Y-simples, columns by X-simples).
    gen_two_cells: list of (src_1cell_name, dst_1cell_name, blocks) with
    blocks a dict (i, j) -> Matrix of shape dst[i][j] x src[i][j].

    The closure is validated for strictness; a non-strict instance (possible
    for general multiplicities) raises, so callers only ever hold genuinely
    strict tables.  Each closure stops at 4000 cells.
    """
    objs = list(object_simples)

    def one_id(X):
        r = object_simples[X]
        return ("d", X, X, tuple(tuple(1 if i == j else 0 for j in range(r))
                                 for i in range(r)))

    def mk_one(X, Y, mat):
        return ("d", X, Y, tuple(tuple(row) for row in mat))

    def comp_one(g, f):
        _, Xf, Yf, A = f
        _, Xg, Yg, B = g
        assert Xg == Yf
        rows = len(B)
        cols = len(A[0]) if A else 0
        out = tuple(tuple(sum(B[i][j] * A[j][k] for j in range(len(A)))
                          for k in range(cols)) for i in range(rows))
        return ("d", Xf, Yg, out)

    def blocks_freeze(blocks):
        return tuple(sorted((ij, b.rows, b.shape) for ij, b in
                            blocks.items()))

    def mk_two(src1, dst1, blocks):
        return ("m", src1, dst1, blocks_freeze(blocks))

    def blocks_of(t):
        _, src1, dst1, frozen = t
        out = {}
        for (ij, rows, shape) in frozen:
            out[ij] = Matrix(field, rows, ncols=shape[1])
        return out

    def two_identity(c):
        _, X, Y, A = c
        blocks = {}
        for i in range(len(A)):
            for j in range(len(A[0]) if A else 0):
                blocks[(i, j)] = Matrix.identity(field, A[i][j])
        return mk_two(c, c, blocks)

    def vcomp_two(t2, t1):
        assert t1[2] == t2[1]
        b1, b2 = blocks_of(t1), blocks_of(t2)
        out = {ij: b2[ij] * b1[ij] for ij in b1}
        return mk_two(t1[1], t2[2], out)

    def hcomp_two(t2, t1):
        # t1 in hom(X, Y), t2 in hom(Y, Z)
        srcA, dstA = t1[1], t1[2]
        srcB, dstB = t2[1], t2[2]
        A, Ap = srcA[3], dstA[3]
        B, Bp = srcB[3], dstB[3]
        bA, bB = blocks_of(t1), blocks_of(t2)
        src = comp_one(srcB, srcA)
        dst = comp_one(dstB, dstA)
        blocks = {}
        n_mid = len(A)
        rows = len(B)
        cols = len(A[0]) if A else 0
        for k in range(rows):
            for i in range(cols):
                summands = [bB[(k, j)].kron(bA[(j, i)]) for j in range(n_mid)]
                blk = Matrix.direct_sum(field, summands) if summands else \
                    Matrix.zero(field, 0, 0)
                # direct sum of Kroneckers along the middle index; shapes
                # must match the composite multiplicities exactly
                blocks[(k, i)] = blk
        return mk_two(src, dst, blocks)

    one_cells = {one_id(X) for X in objs}
    for name, (X, Y, mat) in gen_one_cells.items():
        one_cells.add(mk_one(X, Y, mat))
    two_cells = set()
    for (sname, dname, blocks) in gen_two_cells:
        Xs, Ys, ms = gen_one_cells[sname]
        Xd, Yd, md = gen_one_cells[dname]
        s1 = mk_one(Xs, Ys, ms)
        d1 = mk_one(Xd, Yd, md)
        two_cells.add(mk_two(s1, d1, blocks))

    # close 1-cells under composition
    changed = True
    while changed:
        changed = False
        for f in list(one_cells):
            for g in list(one_cells):
                if g[1] == f[2]:
                    c = comp_one(g, f)
                    if c not in one_cells:
                        if len(one_cells) > 4000:
                            raise StructureError("1-cell closure exceeds budget")
                        one_cells.add(c)
                        changed = True
    for c in list(one_cells):
        two_cells.add(two_identity(c))
    # close 2-cells
    changed = True
    while changed:
        changed = False
        for t1 in list(two_cells):
            for t2 in list(two_cells):
                new = []
                if t1[2] == t2[1]:
                    new.append(vcomp_two(t2, t1))
                if t2[1][1] == t1[1][2]:
                    new.append(hcomp_two(t2, t1))
                for t in new:
                    if t not in two_cells:
                        if len(two_cells) > 4000:
                            raise StructureError("2-cell closure exceeds budget")
                        two_cells.add(t)
                        changed = True

    hom = {}
    id1 = {X: one_id(X) for X in objs}
    for X in objs:
        for Y in objs:
            cells_xy = [c for c in one_cells if c[1] == X and c[2] == Y]
            morphs = [t for t in two_cells
                      if t[1][1] == X and t[1][2] == Y]
            src = {t: t[1] for t in morphs}
            dst = {t: t[2] for t in morphs}
            ident = {c: two_identity(c) for c in cells_xy}
            comp = {(t2, t1): vcomp_two(t2, t1)
                    for t1 in morphs for t2 in morphs if t1[2] == t2[1]}
            hom[(X, Y)] = FiniteCategory(cells_xy, morphs, src, dst, ident,
                                         comp)
    hcomp1 = {}
    hcomp2 = {}
    for f in one_cells:
        for g in one_cells:
            if g[1] == f[2]:
                hcomp1[(g, f)] = comp_one(g, f)
    for t1 in two_cells:
        for t2 in two_cells:
            if t2[1][1] == t1[1][2]:
                hcomp2[(t2, t1)] = hcomp_two(t2, t1)
    out = StrictTwoCat(objs, hom, id1, hcomp1, hcomp2)
    bad = out.validate()
    if bad:
        raise StructureError("generated instance not strict: %s" % bad[0])
    return out


def cat_two_cat(named_cats):
    """The full sub-2-category of Cat on the given finite categories:
    1-cells all functors, 2-cells all natural transformations.  Composition
    is genuine functor/transformation composition, hence strictly
    associative on the nose."""
    names = list(named_cats)

    def fun_id(A, B, ob, mor):
        return ("fun", A, B,
                tuple(sorted(ob.items(), key=lambda kv: okey(kv[0]))),
                tuple(sorted(mor.items(), key=lambda kv: okey(kv[0]))))

    def fun_maps(fid):
        return dict(fid[3]), dict(fid[4])

    def all_functors(A, B):
        return [fun_id(A, B, F.ob, F.mor) for F in _functor_candidates(
            named_cats[A], named_cats[B], math.inf)]

    def nat_cells(A, B, fid, gid):
        dom, cod = named_cats[A], named_cats[B]
        fob, fmor = fun_maps(fid)
        gob, gmor = fun_maps(gid)
        combos = []
        for x in dom.objects:
            combos.append([t for t in cod.morphisms
                           if cod.src[t] == fob[x] and cod.dst[t] == gob[x]])
        out = []
        for assignment in itertools.product(*combos):
            comp = dict(zip(dom.objects, assignment))
            if all(cod.compose(comp[dom.dst[m]], fmor[m])
                   == cod.compose(gmor[m], comp[dom.src[m]])
                   for m in dom.morphisms):
                out.append(("nt", A, B, fid, gid,
                            tuple(sorted(comp.items(),
                                         key=lambda kv: okey(kv[0])))))
        return out

    hom = {}
    id1 = {}
    one_cells = {}
    for A in names:
        for B in names:
            funs = all_functors(A, B)
            one_cells[(A, B)] = funs
            morphs = []
            src, dst = {}, {}
            for fid in funs:
                for gid in funs:
                    for t in nat_cells(A, B, fid, gid):
                        morphs.append(t)
                        src[t], dst[t] = fid, gid
            ident = {}
            dom, cod = named_cats[A], named_cats[B]
            for fid in funs:
                fob, _ = fun_maps(fid)
                ident[fid] = ("nt", A, B, fid, fid,
                              tuple(sorted({x: cod.identity[fob[x]]
                                            for x in dom.objects}.items(),
                                           key=lambda kv: okey(kv[0]))))
            comp = {}
            for t2 in morphs:
                for t1 in morphs:
                    if dst[t1] != src[t2]:
                        continue
                    c1 = dict(t1[5])
                    c2 = dict(t2[5])
                    comp[(t2, t1)] = ("nt", A, B, t1[3], t2[4],
                                      tuple(sorted(
                                          {x: cod.compose(c2[x], c1[x])
                                           for x in dom.objects}.items(),
                                          key=lambda kv: okey(kv[0]))))
            hom[(A, B)] = FiniteCategory(funs, morphs, src, dst, ident, comp)
        A_cat = named_cats[A]
        id1[A] = fun_id(A, A, {x: x for x in A_cat.objects},
                        {m: m for m in A_cat.morphisms})
    hcomp1 = {}
    hcomp2 = {}
    for A in names:
        for B in names:
            for Cn in names:
                for fid in one_cells[(A, B)]:
                    fob, fmor = fun_maps(fid)
                    for gid in one_cells[(B, Cn)]:
                        gob, gmor = fun_maps(gid)
                        ob = {x: gob[fob[x]] for x in named_cats[A].objects}
                        mor = {m: gmor[fmor[m]]
                               for m in named_cats[A].morphisms}
                        hcomp1[(gid, fid)] = fun_id(A, Cn, ob, mor)
                for t2 in hom[(B, Cn)].morphisms:
                    for t1 in hom[(A, B)].morphisms:
                        h_ob, h_mor = fun_maps(t2[3])
                        c1 = dict(t1[5])
                        c2 = dict(t2[5])
                        f_ob, _ = fun_maps(t1[3])
                        g_ob, _ = fun_maps(t1[4])
                        cod = named_cats[Cn]
                        comp = {}
                        for x in named_cats[A].objects:
                            comp[x] = cod.compose(c2[g_ob[x]],
                                                  h_mor[c1[x]])
                        hcomp2[(t2, t1)] = (
                            "nt", A, Cn, hcomp1[(t2[3], t1[3])],
                            hcomp1[(t2[4], t1[4])],
                            tuple(sorted(comp.items(),
                                         key=lambda kv: okey(kv[0]))))
    return StrictTwoCat(names, hom, id1, hcomp1, hcomp2)
