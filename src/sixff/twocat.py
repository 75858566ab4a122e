"""Strict 2-categories as explicit tables, with the adjunction calculus:
triangle verification, the weak-triangle upgrade, mates, uniqueness of
adjoints, and the pointwise criterion audit.

Every structure here is finite and every check is a table equality.  Each
builder gives its hom categories by `presented_category` and its
horizontal composition as two rules, which `StrictTwoCat` tables over every
composable pair.  The builders: a scalar model (one 1-cell per hom, 2-cells
a prime field, horizontal composition = multiplication) whose hom-sets are
tiny enough for exhaustive mate checks, and the full sub-2-category of Cat
on given finite categories.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .groupoid import StructureError, Violation, okey, presented_category


class StrictTwoCat:
    """objects; hom[(X,Y)]: FiniteCategory whose objects are 1-cells and
    morphisms are 2-cells.  The horizontal composition rules h1(g, f) on
    1-cells and h2(beta, alpha) on 2-cells are tabled as hcomp1 and hcomp2
    over every composable pair."""

    def __init__(self, objects, hom, id1, h1, h2):
        self.objects = tuple(objects)
        self.hom = dict(hom)
        self.id1 = dict(id1)
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
        self.hcomp1 = {}
        self.hcomp2 = {}
        for (X, Y), first in self.hom.items():
            for (Y2, Z), second in self.hom.items():
                if Y2 != Y:
                    continue
                for f in first.objects:
                    for g in second.objects:
                        self.hcomp1[(g, f)] = h1(g, f)
                for alpha in first.morphisms:
                    for beta in second.morphisms:
                        self.hcomp2[(beta, alpha)] = h2(beta, alpha)

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
        t2 = cat.inverse_of(t)
        if t2 is None:
            raise StructureError("2-cell %r is not invertible" % (t,))
        return t2

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
    if q1.f != q2.f:
        raise ValueError("adjunctions on different left adjoints")
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
            cands = cod.hom(ob[dom.src[m]], ob[dom.dst[m]])
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
    def hom(X, Y):
        return presented_category(
            [("c", X, Y)], lambda a, b: [("s", X, Y, v) for v in range(p)],
            lambda a: ("s", X, Y, 1),
            lambda t2, t1: ("s", X, Y, t2[3] * t1[3] % p))

    return StrictTwoCat(
        objects, {(X, Y): hom(X, Y) for X in objects for Y in objects},
        {X: ("c", X, X) for X in objects},
        lambda g, f: ("c", f[1], g[2]),
        lambda t2, t1: ("s", t1[1], t2[2], t2[3] * t1[3] % p))


def cat_two_cat(named_cats):
    """The full sub-2-category of Cat on the given finite categories:
    1-cells all functors, 2-cells all natural transformations.  Composition
    is genuine functor/transformation composition, hence strictly
    associative on the nose."""
    names = list(named_cats)

    def frozen(table):
        return tuple(sorted(table.items(), key=lambda kv: okey(kv[0])))

    def fun_id(A, B, ob, mor):
        return ("fun", A, B, frozen(ob), frozen(mor))

    def fun_maps(fid):
        return dict(fid[3]), dict(fid[4])

    def nat_cells(A, B, fid, gid):
        dom, cod = named_cats[A], named_cats[B]
        fob, fmor = fun_maps(fid)
        gob, gmor = fun_maps(gid)
        combos = []
        for x in dom.objects:
            combos.append(cod.hom(fob[x], gob[x]))
        out = []
        for assignment in itertools.product(*combos):
            comp = dict(zip(dom.objects, assignment))
            if all(cod.compose(comp[dom.dst[m]], fmor[m])
                   == cod.compose(gmor[m], comp[dom.src[m]])
                   for m in dom.morphisms):
                out.append(("nt", A, B, fid, gid, frozen(comp)))
        return out

    def hom(A, B):
        cod = named_cats[B]

        def identity(fid):
            return ("nt", A, B, fid, fid,
                    frozen({x: cod.identity[y] for x, y in fid[3]}))

        def vcomp(t2, t1):
            c2 = dict(t2[5])
            return ("nt", A, B, t1[3], t2[4],
                    frozen({x: cod.compose(c2[x], t) for x, t in t1[5]}))

        funs = [fun_id(A, B, F.ob, F.mor) for F in _functor_candidates(
            named_cats[A], cod, math.inf)]
        return presented_category(
            funs, lambda fid, gid: nat_cells(A, B, fid, gid), identity, vcomp)

    def h1(gid, fid):
        fob, fmor = fun_maps(fid)
        gob, gmor = fun_maps(gid)
        return fun_id(fid[1], gid[2], {x: gob[y] for x, y in fob.items()},
                      {m: gmor[n] for m, n in fmor.items()})

    def h2(t2, t1):
        _, h_mor = fun_maps(t2[3])
        c2 = dict(t2[5])
        g_ob, _ = fun_maps(t1[4])
        cod = named_cats[t2[2]]
        return ("nt", t1[1], t2[2], h1(t2[3], t1[3]), h1(t2[4], t1[4]),
                frozen({x: cod.compose(c2[g_ob[x]], h_mor[t])
                        for x, t in t1[5]}))

    id1 = {A: fun_id(A, A, {x: x for x in named_cats[A].objects},
                     {m: m for m in named_cats[A].morphisms})
           for A in names}
    return StrictTwoCat(names, {(A, B): hom(A, B) for A in names
                                for B in names}, id1, h1, h2)
