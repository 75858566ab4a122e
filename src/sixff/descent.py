"""Gluing data along a cover of groupoids and the comparison equivalence.

A descent datum along f: Y -> X is a sheaf W on Y together with an
invertible gluing map alpha: d0*W -> d1*W on the first Čech level whose
two restrictions to the second level compose exactly (the cocycle).  The
comparison functor sends M on X to (f*M, canonical alpha); it is fully
faithful (hom dimensions match on the nose) and essentially surjective
(every datum descends; the descended object is cut out by an explicit
gluing linear system).
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import check_gate
from .groupoid import cech_nerve, okey, transport_to_reps
from .linalg import Matrix, stack_columns
from .sheaves import (
    PullbackFunctor, Sheaf, SheafMorphism, TheoremViolation, hom_space,
    linear_combination,
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
            entries = []
            for o in sorted(self.Y1.objects, key=okey):
                d = lhs.comp[o] - rhs.comp[o]
                for row in d.rows:
                    entries.extend(row)
            rows.append(entries)
        if not rows[0]:
            return basis
        mat = Matrix(field, list(map(list, zip(*rows))), ncols=len(rows))
        return [linear_combination(datum1.sheaf, datum2.sheaf, basis,
                                   [row[0] for row in c.rows])
                for c in mat.nullspace()]

    def hom_dim(self, datum1, datum2):
        return len(self.hom_basis(datum1, datum2))

    # -- descending a datum --------------------------------------------------

    def descend(self, datum):
        """Solve the gluing linear system: returns (V on X, theta: f*V -> W
        invertible, compatible with the gluing maps)."""
        if not self.is_valid(datum):
            raise TheoremViolation("cannot descend an invalid datum")
        f, X, Y = self.f, self.f.cod, self.f.dom
        field = self.field
        W, alpha = datum.sheaf, datum.alpha

        def fiber(x):
            return [(y, m) for y in Y.objects for m in X.morphisms
                    if X.src[m] == x and X.dst[m] == f.ob[y]]

        def alpha_at(y, yp, mu):
            """gluing matrix W(yp) -> W(y) for mu: f(y) -> f(yp)."""
            o = ((y, yp), (mu,))
            return alpha.comp[o]

        # solution space at one object
        def solve_at(x):
            fib = sorted(fiber(x), key=okey)
            offs = {}
            total = 0
            for o in fib:
                offs[o] = total
                total += W.dim[o[0]]
            rows = []

            def add_constraint(target_o, mat_blocks):
                row_block = [[field.zero] * total
                             for _ in range(W.dim[target_o[0]])]
                for (o, mat, sign) in mat_blocks:
                    for i in range(mat.nrows):
                        for j in range(mat.ncols):
                            v = mat.rows[i][j]
                            if sign < 0:
                                v = -v
                            row_block[i][offs[o] + j] = \
                                row_block[i][offs[o] + j] + v
                rows.extend(row_block)

            # (a) section property along morphisms of Y
            for u in Y.morphisms:
                y, yp = Y.src[u], Y.dst[u]
                for (yy, m) in fib:
                    if yy != y:
                        continue
                    o2 = (yp, X.compose(f.mor[u], m))
                    add_constraint(o2, [(o2, Matrix.identity(field,
                                                             W.dim[yp]), 1),
                                        ((y, m), W.mat[u], -1)])
            # (b) alpha gluing across fiber pairs
            for (y, m) in fib:
                for (yp, mp) in fib:
                    mu = X.compose(mp, X.inverse[m])
                    g = alpha_at(y, yp, mu)
                    add_constraint((y, m),
                                   [((y, m), Matrix.identity(field,
                                                             W.dim[y]), 1),
                                    ((yp, mp), g, -1)])
            if not rows:
                sysm = Matrix.zero(field, 0, total)
            else:
                sysm = Matrix(field, rows, ncols=total)
            basis = sysm.nullspace()
            return fib, offs, total, stack_columns(field, basis, total)

        data = {x: solve_at(x) for x in X.objects}
        dims = {x: data[x][3].ncols for x in X.objects}

        def coords(x, vec):
            sol = data[x][3].solve(vec)
            if sol is None:
                raise TheoremViolation("descended section outside basis span")
            return sol

        mats = {}
        for xi in X.morphisms:
            x, x2 = X.src[xi], X.dst[xi]
            fib, offs, total, basis = data[x]
            fib2, offs2, total2, basis2 = data[x2]
            # reindex sections: value at (y, m) over x2 is value at
            # (y, m∘xi) over x
            cols = []
            for k in range(basis.ncols):
                vec = [field.zero] * total2
                for (y, m2) in fib2:
                    src_o = (y, X.compose(m2, xi))
                    for i in range(W.dim[y]):
                        vec[offs2[(y, m2)] + i] = \
                            basis.rows[offs[src_o] + i][k]
                cols.append(Matrix.column(field, vec))
            rhs = stack_columns(field, cols, total2)
            mats[xi] = coords(x2, rhs) if dims[x2] else \
                Matrix.zero(field, 0, dims[x])
        V = Sheaf(X, field, dims, mats)
        # theta: f*V -> W, evaluation at the tautological fiber point
        theta_comp = {}
        for y in Y.objects:
            x = f.ob[y]
            fib, offs, total, basis = data[x]
            o = (y, X.identity[x])
            pick = Matrix(field,
                          [basis.rows[offs[o] + i] for i in range(W.dim[y])],
                          ncols=basis.ncols)
            theta_comp[y] = pick
        theta = SheafMorphism(PullbackFunctor(f).obj(V), W, theta_comp)
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
    setting: DescentSetting
    fully_faithful_ok: bool
    essentially_surjective_ok: bool
    checked_pairs: int
    descended: list


def descent_comparison(f, field, probes_X=(), probe_data=()):
    """Certificate that M -> (f*M, canonical alpha) is an equivalence:
    hom dimensions agree on every probe pair, and every supplied datum
    descends with a certified matching isomorphism."""
    st = DescentSetting(f, field)
    from .sheaves import hom_dim
    ff_ok = True
    pairs = 0
    for M in probes_X:
        for N in probes_X:
            dm = st.canonical_datum(M)
            dn = st.canonical_datum(N)
            if not st.is_valid(dm) or not st.is_valid(dn):
                raise TheoremViolation("canonical datum fails the cocycle")
            if hom_dim(M, N) != st.hom_dim(dm, dn):
                ff_ok = False
            pairs += 1
    descended = []
    es_ok = True
    for datum in probe_data:
        try:
            V, theta = st.descend(datum)
            descended.append((V, theta))
        except TheoremViolation:
            es_ok = False
    return DescentComparison(st, ff_ok, es_ok, pairs, descended)


def gauge_twist(setting, datum, psi):
    """The datum (W, d1*psi ∘ alpha ∘ (d0*psi)^{-1}) for an automorphism
    psi of W; isomorphic to the input but generally not of canonical form."""
    p0m = setting.p0.mor(psi)
    p1m = setting.p1.mor(psi)
    alpha2 = p0m.inverse().then(datum.alpha).then(p1m)
    return DescentDatum(datum.sheaf, alpha2)
