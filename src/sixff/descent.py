"""Gluing data along a cover of groupoids and the comparison equivalence.

A descent datum along f: Y -> X is a sheaf W on Y together with an
invertible gluing map alpha: d0*W -> d1*W on the first Čech level whose
two restrictions to the second level compose exactly (the cocycle).  The
comparison functor sends M on X to (f*M, canonical alpha); it is fully
faithful (hom dimensions match on the nose) and essentially surjective
(every datum descends).  The descended object V is the subsheaf of f_*W
cut out by the gluing equations: at x, V(x) holds the sections s of
f_*W(x) with s(y, m) = alpha · s(y', m') for every pair of objects of the
fiber over x, and theta: f*V -> W evaluates a section at the tautological
point (y, id).
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import check_gate
from .groupoid import cech_nerve, okey, transport_to_reps
from .linalg import Matrix, stack_columns, stack_rows
from .sheaves import (
    PullbackFunctor, RanFunctor, Sheaf, SheafMorphism, TheoremViolation,
    hom_space, linear_combination,
)


class NotACover(Exception):
    pass


@dataclass
class DescentDatum:
    sheaf: Sheaf               # W on the cover Y
    alpha: SheafMorphism       # d0*W -> d1*W on level 1


class DescentSetting:
    """The 2-truncated Čech calculus of a surjective cover f: Y -> X."""

    def __init__(self, f, field):
        self.f, self.field = f, field
        check_gate(field, f.dom)
        check_gate(field, f.cod)
        self._check_surjective()
        self.nerve = cech_nerve(f, N=2)
        bad = self.nerve.validate()
        if bad:
            raise TheoremViolation("nerve fails simplicial identities: %s"
                                   % bad[0])
        self.Y1 = self.nerve.levels[1]
        self.Y2 = self.nerve.levels[2]
        self.d0, self.d1 = self.nerve.faces[1]
        self.e0, self.e1, self.e2 = self.nerve.faces[2]
        check_gate(field, self.Y1)
        check_gate(field, self.Y2)
        self.p0 = PullbackFunctor(self.d0)
        self.p1 = PullbackFunctor(self.d1)

    def _check_surjective(self):
        f = self.f
        _, comp_of_x = transport_to_reps(f.cod)
        hit = {comp_of_x[f.ob[y]] for y in f.dom.objects}
        if hit != set(comp_of_x.values()):
            raise NotACover("cover misses a component of the base")

    # -- construction and validation ---------------------------------------

    def canonical_datum(self, M):
        """(f*M, canonical alpha) for M on X."""
        W = PullbackFunctor(self.f).obj(M)
        comp = {}
        for o in self.Y1.objects:
            (_y0, _y1), (m,) = o
            comp[o] = M.mat[self.f.cod.inverse[m]]
        alpha = SheafMorphism(self.p0.obj(W), self.p1.obj(W), comp)
        return DescentDatum(W, alpha)

    def cocycle_report(self, datum):
        """Exact matrix check of the gluing cocycle on the second level."""
        W, alpha = datum.sheaf, datum.alpha
        out = []
        if not alpha.is_invertible():
            out.append("gluing map not invertible")
        bad = alpha.validate()
        if bad:
            out.append("gluing map not natural: %s" % bad[0])
        for t in self.Y2.objects:
            a01 = alpha.comp[self.e2.ob[t]]
            a12 = alpha.comp[self.e0.ob[t]]
            a02 = alpha.comp[self.e1.ob[t]]
            if a01 * a12 != a02:
                out.append("cocycle fails at %s" % (okey(t),))
                break
        return out

    def is_valid(self, datum):
        return self.cocycle_report(datum) == []

    # -- morphisms of data ---------------------------------------------------

    def hom_basis(self, datum1, datum2):
        """Deterministic basis of morphisms (W1, a1) -> (W2, a2): sheaf
        morphisms phi with d1*phi ∘ a1 = a2 ∘ d0*phi."""
        basis = hom_space(datum1.sheaf, datum2.sheaf)
        if not basis:
            return []
        field = self.field
        rows = []
        for b in basis:
            lhs = datum1.alpha.then(self.p1.mor(b))
            rhs = self.p0.mor(b).then(datum2.alpha)
            rows.append([a for o in sorted(self.Y1.objects, key=okey)
                         for a in (lhs.comp[o] - rhs.comp[o]).entries()])
        if not rows[0]:
            return basis
        mat = Matrix(field, list(map(list, zip(*rows))), ncols=len(rows))
        return [linear_combination(datum1.sheaf, datum2.sheaf, basis,
                                   c.column_entries())
                for c in mat.nullspace()]

    def hom_dim(self, datum1, datum2):
        return len(self.hom_basis(datum1, datum2))

    # -- descending a datum --------------------------------------------------

    def descend(self, datum):
        """Cut the descended object out of f_*W by the gluing equations:
        returns (V on X, theta: f*V -> W invertible, compatible with the
        gluing maps)."""
        if not self.is_valid(datum):
            raise TheoremViolation("cannot descend an invalid datum")
        f, X = self.f, self.f.cod
        field = self.field
        W, alpha = datum.sheaf, datum.alpha
        ran = RanFunctor(f)
        FW = ran.obj(W)
        # B_x: the sections s of f_*W(x) with s(y, m) = alpha · s(y2, m2)
        # for every pair of fiber objects (y, m), (y2, m2) over x
        basis = {}
        for x in X.objects:
            objs = sorted(ran.fibers[x].locate, key=okey)
            ev = {o: ran.section_value(W, x, o) for o in objs}
            rows = []
            for (y, m) in objs:
                for (y2, m2) in objs:
                    mu = X.compose(m2, X.inverse[m])    # f(y) -> f(y2)
                    rows.append(ev[(y, m)]
                                - alpha.comp[((y, y2), (mu,))] * ev[(y2, m2)])
            basis[x] = stack_columns(
                field, stack_rows(field, rows, FW.dim[x]).nullspace(),
                FW.dim[x])
        mats = {}
        for xi in X.presentation.generators:
            sol = basis[X.dst[xi]].solve(FW.mat[xi] * basis[X.src[xi]])
            if sol is None:
                raise TheoremViolation("descended section outside basis span")
            mats[xi] = sol
        V = Sheaf(X, field, {x: b.ncols for x, b in basis.items()}, mats)
        # theta: f*V -> W, evaluation at the tautological fiber point
        theta = SheafMorphism(PullbackFunctor(f).obj(V), W, {
            y: ran.section_value(W, f.ob[y], (y, X.identity[f.ob[y]]))
            * basis[f.ob[y]] for y in f.dom.objects})
        if not theta.is_invertible():
            raise TheoremViolation("descended object does not match cover")
        # compatibility with the gluing maps
        can = self.canonical_datum(V)
        lhs = can.alpha.then(self.p1.mor(theta))
        rhs = self.p0.mor(theta).then(datum.alpha)
        for o in self.Y1.objects:
            if lhs.comp[o] != rhs.comp[o]:
                raise TheoremViolation("descended gluing map mismatch")
        return V, theta


@dataclass
class DescentComparison:
    fully_faithful_ok: bool
    essentially_surjective_ok: bool


def descent_comparison(setting, probes_X=(), probe_data=()):
    """Certificate that M -> (f*M, canonical alpha) is an equivalence for
    the cover f of `setting`: hom dimensions agree on every probe pair, and
    every supplied datum descends with a certified matching isomorphism."""
    from .sheaves import hom_dim
    data = [setting.canonical_datum(M) for M in probes_X]
    if not all(setting.is_valid(d) for d in data):
        raise TheoremViolation("canonical datum fails the cocycle")
    ff_ok = all(hom_dim(M, N) == setting.hom_dim(dm, dn)
                for M, dm in zip(probes_X, data)
                for N, dn in zip(probes_X, data))
    es_ok = True
    for datum in probe_data:
        try:
            setting.descend(datum)
        except TheoremViolation:
            es_ok = False
    return DescentComparison(ff_ok, es_ok)


def gauge_twist(setting, datum, psi):
    """The datum (W, d1*psi ∘ alpha ∘ (d0*psi)^{-1}) for an automorphism
    psi of W; isomorphic to the input but generally not of canonical form."""
    p0m = setting.p0.mor(psi)
    p1m = setting.p1.mor(psi)
    alpha2 = p0m.inverse().then(datum.alpha).then(p1m)
    return DescentDatum(datum.sheaf, alpha2)
