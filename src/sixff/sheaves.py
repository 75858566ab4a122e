"""Sheaves on finite groupoids and the six functors, as exact linear algebra.

A sheaf assigns a finite-dimensional vector space to every object and an
invertible matrix to every morphism, strictly compatible with composition.
The six operations are:

  pullback      f*   precomposition (strictly functorial),
  lan           f_!  left Kan extension: per-component coinvariants with a
                     chosen invariant basis and the averaging idempotent,
  ran           f_*  right Kan extension: per-component invariants,
  tensor        ⊗    pointwise Kronecker product (strictly associative),
  internal hom  iHom pointwise linear maps with conjugation action,
  upper shriek  f^!  equal to f* as a functor; its adjunction with f_! is a
                     verified witness, and the norm map f_! -> f_* is the
                     unnormalized fiber-orbit sum.

Every adjunction carries explicit unit/counit families and the triangle
identities are verified exactly.  All "canonical maps" downstream (base
change, projection formula, mates, twists) are assembled from these
units/counits, strict equalities of composites, and transports along
invertible natural transformations - never searched.
"""

from __future__ import annotations

from functools import lru_cache

from .fields import GateError, TheoremViolation, check_gate
from .groupoid import okey, transport_to_reps
from .linalg import Matrix, stack_columns, stack_rows

# ---------------------------------------------------------------------------
# Sheaves and their morphisms
# ---------------------------------------------------------------------------

class Sheaf:
    __slots__ = ("base", "field", "dim", "mat")

    def __init__(self, base, field, dim, mat, check=False):
        self.base = base
        self.field = field
        self.dim = dict(dim)
        self.mat = dict(mat)
        if check:
            bad = self.validate()
            if bad:
                raise ValueError("not a sheaf: %s" % bad[0])

    def validate(self):
        out = []
        G = self.base
        for x in G.objects:
            m = self.mat[G.identity[x]]
            if not m.is_identity():
                out.append("identity at %r not the identity matrix" % (x,))
        for g, f in G.composable_pairs():
            if self.mat[G.compose(g, f)] != self.mat[g] * self.mat[f]:
                out.append("transition at (%r,%r) not multiplicative" % (g, f))
        for m in G.morphisms:
            a, b = G.src[m], G.dst[m]
            mm = self.mat[m]
            if mm.shape != (self.dim[b], self.dim[a]):
                out.append("matrix at %r has wrong shape" % (m,))
        return out

    def total_dim(self):
        return sum(self.dim.values())

    def __repr__(self):
        return "Sheaf(dims=%s)" % ({k: v for k, v in sorted(
            self.dim.items(), key=lambda kv: okey(kv[0]))},)


def unit_sheaf(base, field):
    check_gate(field, base)
    one = Matrix.identity(field, 1)
    return Sheaf(base, field,
                 {x: 1 for x in base.objects},
                 {m: one for m in base.morphisms})


def zero_sheaf(base, field):
    z = Matrix.zero(field, 0, 0)
    return Sheaf(base, field, {x: 0 for x in base.objects},
                 {m: z for m in base.morphisms})


def sheaf_from_rep(base, field, rep):
    """Sheaf on a delooping from matrices indexed by the group elements."""
    obj = base.objects[0]
    dim = rep[base.identity[obj]].nrows
    return Sheaf(base, field, {obj: dim}, dict(rep))


def sheaves_equal(M, N):
    return M.field == N.field and M.dim == N.dim and M.mat == N.mat


class SheafMorphism:
    __slots__ = ("src", "dst", "comp")

    def __init__(self, src, dst, comp, check=False):
        self.src, self.dst = src, dst
        self.comp = dict(comp)
        if check:
            bad = self.validate()
            if bad:
                raise ValueError("not a sheaf morphism: %s" % bad[0])

    def validate(self):
        out = []
        G = self.src.base
        for x in G.objects:
            c = self.comp[x]
            if c.shape != (self.dst.dim[x], self.src.dim[x]):
                out.append("component at %r has wrong shape" % (x,))
        for m in G.morphisms:
            a, b = G.src[m], G.dst[m]
            if self.comp[b] * self.src.mat[m] != self.dst.mat[m] * self.comp[a]:
                out.append("naturality fails at %r" % (m,))
        return out

    def then(self, other):
        """other ∘ self."""
        assert other.src is self.dst or other.src.dim == self.dst.dim
        return SheafMorphism(self.src, other.dst,
                             {x: other.comp[x] * self.comp[x]
                              for x in self.comp})

    def is_invertible(self):
        return all(c.is_invertible() for c in self.comp.values())

    def inverse(self):
        return SheafMorphism(self.dst, self.src,
                             {x: c.inverse() for x, c in self.comp.items()})

    def is_identity(self):
        return all(c.is_identity() for c in self.comp.values())

    def __repr__(self):
        return "SheafMorphism(%r -> %r)" % (self.src, self.dst)


def identity_morphism(M):
    return SheafMorphism(M, M, {x: Matrix.identity(M.field, d)
                                for x, d in M.dim.items()})


def hom_space(M, N):
    """Deterministic basis of Hom(M, N), solved per component: a morphism is
    determined by an equivariant block at each component representative."""
    G = M.base
    f = M.field
    t, comp_of = transport_to_reps(G)
    reps = sorted(set(comp_of.values()), key=okey)
    basis_blocks = {}
    for r in reps:
        # the identity contributes the zero equation; skip it
        auts = [a for a in G.hom(r, r) if a != G.identity[r]]
        dm, dn = M.dim[r], N.dim[r]
        if dm == 0 or dn == 0:
            basis_blocks[r] = []
            continue
        # unknowns: dn x dm block phi with N(a) phi = phi M(a) for all a
        rows = []
        for a in auts:
            Na, Ma = N.mat[a], M.mat[a]
            # row-major vec: vec(phi * M a - N a * phi)
            #   = (I_n kron Ma^T - Na kron I_m) vec phi
            eye_m = Matrix.identity(f, dm)
            eye_n = Matrix.identity(f, dn)
            lhs = eye_n.kron(Ma.transpose()) - Na.kron(eye_m)
            rows.append(lhs)
        null = stack_rows(f, rows, dm * dn).nullspace()
        blocks = []
        for v in null:
            phi = Matrix(f, [[v.rows[i * dm + j][0] for j in range(dm)]
                             for i in range(dn)], ncols=dm)
            blocks.append(phi)
        basis_blocks[r] = blocks
    out = []
    for r in reps:
        for phi in basis_blocks[r]:
            comp = {}
            for x in G.objects:
                if comp_of[x] != r:
                    comp[x] = Matrix.zero(f, N.dim[x], M.dim[x])
                else:
                    tx = t[x]
                    comp[x] = N.mat[tx] * phi * M.mat[G.inverse[tx]]
            out.append(SheafMorphism(M, N, comp))
    return out


def linear_combination(M, N, basis, coeffs):
    """The morphism M -> N given by sum(c * b) over a basis of Hom(M, N),
    summed in basis order."""
    comp = {}
    for x in M.dim:
        acc = Matrix.zero(M.field, N.dim[x], M.dim[x])
        for c, b in zip(coeffs, basis):
            acc = acc + b.comp[x].scale(c)
        comp[x] = acc
    return SheafMorphism(M, N, comp)


def hom_dim(M, N):
    return len(hom_space(M, N))


def morphism_coordinates(basis, phi):
    """Coordinates of phi in a hom-space basis (exact solve)."""
    f = phi.src.field
    if not basis:
        return []
    cols = []
    for b in basis:
        entries = []
        for x in sorted(phi.comp, key=okey):
            for row in b.comp[x].rows:
                entries.extend(row)
        cols.append(Matrix.column(f, entries))
    target = []
    for x in sorted(phi.comp, key=okey):
        for row in phi.comp[x].rows:
            target.extend(row)
    mat = stack_columns(f, cols, len(target))
    sol = mat.solve(Matrix.column(f, target))
    if sol is None:
        raise TheoremViolation("morphism outside hom space span")
    return [sol.rows[i][0] for i in range(len(basis))]


# ---------------------------------------------------------------------------
# Fiber (comma) data for Kan extensions
# ---------------------------------------------------------------------------

class _Fiber:
    """Component data of the comma groupoid over one target object.

    kind "lan": objects (y, m: f(y) -> x);  kind "ran": (y, m: x -> f(y)).
    `hom[(a, b)]` lists the morphisms a -> b of f.cod and `out[y]` those
    out of y in f.dom, both in morphism order; one Kan functor builds them
    once and shares them across its fibers.  `locate[o]` is (i, p): the
    index i of o's component in `reps` and the morphism p: y_rep -> y of
    f.dom along the breadth-first path rep -> o, composed once per object.
    """

    __slots__ = ("reps", "auts", "locate")

    def __init__(self, f, x, kind, hom, out):
        Y, X = f.dom, f.cod
        if kind == "lan":
            objs = [(y, m) for y in Y.objects
                    for m in hom.get((f.ob[y], x), ())]
        else:
            objs = [(y, m) for y in Y.objects
                    for m in hom.get((x, f.ob[y]), ())]
        # connecting arrows u: (y,m) -> (y',m') iff m'∘f(u) = m (lan)
        #                                     iff f(u)∘m = m'  (ran)
        adj = {o: [] for o in objs}
        for (y, m) in objs:
            for u in out[y]:
                if kind == "lan":
                    m2 = X.compose(m, X.inverse[f.mor[u]])
                else:
                    m2 = X.compose(f.mor[u], m)
                o2 = (Y.dst[u], m2)
                adj[(y, m)].append((u, o2))
        objs_sorted = sorted(objs, key=okey)
        locate = {}
        reps = []
        for o in objs_sorted:
            if o in locate:
                continue
            i = len(reps)
            reps.append(o)
            locate[o] = (i, Y.identity[o[0]])
            frontier = [o]
            while frontier:
                cur = frontier.pop(0)
                for (u, o2) in sorted(adj[cur], key=lambda p: okey(p[0])):
                    if o2 not in locate:
                        locate[o2] = (i, Y.compose(u, locate[cur][1]))
                        frontier.append(o2)
        self.reps = reps
        self.locate = locate
        self.auts = {rep: [u for (u, o2) in adj[rep] if o2 == rep]
                     for rep in reps}


# ---------------------------------------------------------------------------
# Sheaf functors
# ---------------------------------------------------------------------------

class SheafFunctor:
    """A functor between sheaf categories with exact object/morphism maps."""

    def obj(self, M):
        raise NotImplementedError

    def mor(self, phi):
        raise NotImplementedError

    def then(self, outer):
        return ComposedFunctor(self, outer)


class ComposedFunctor(SheafFunctor):
    def __init__(self, inner, outer):
        self.inner, self.outer = inner, outer
        self.name = "%s∘%s" % (getattr(outer, "name", "?"),
                               getattr(inner, "name", "?"))

    def obj(self, M):
        return self.outer.obj(self.inner.obj(M))

    def mor(self, phi):
        return self.outer.mor(self.inner.mor(phi))


class IdentityFunctor(SheafFunctor):
    name = "Id"

    def obj(self, M):
        return M

    def mor(self, phi):
        return phi


class PullbackFunctor(SheafFunctor):
    """f*: precomposition; strictly monoidal and strictly functorial."""

    def __init__(self, f):
        self.f = f
        self.name = "%s*" % (f.name or "f")

    def obj(self, M):
        f = self.f
        return Sheaf(f.dom, M.field,
                     {y: M.dim[f.ob[y]] for y in f.dom.objects},
                     {u: M.mat[f.mor[u]] for u in f.dom.morphisms})

    def mor(self, phi):
        f = self.f
        return SheafMorphism(self.obj(phi.src), self.obj(phi.dst),
                             {y: phi.comp[f.ob[y]] for y in f.dom.objects})


# Bound on the invariant-data cache shared by all Kan functors.  The test
# suite, `sixff run` and each benchmark round store under 200 entries.
_INVARIANT_CACHE_SIZE = 4096


@lru_cache(maxsize=_INVARIANT_CACHE_SIZE)
def _invariant_data(field, d, mats, averaging):
    """(iota, pi, leg) of one fiber component, from its content alone: the
    field, d = dim M(y_rep), the automorphism matrices `mats` in fiber
    order, and whether leg averages.  The field is part of the key, so data
    computed over one field never answers a call over another.
    The gate is left to the caller, which must check it on every call,
    cached or not.
    """
    if d == 0:
        iota = pi = Matrix.zero(field, 0, 0)
    else:
        eye = Matrix.identity(field, d)
        # an automorphism acting as I adds only zero rows, which RREF ignores
        fixed = stack_rows(field, [a - eye for a in mats if a != eye], d)
        iota = stack_columns(field, fixed.nullspace(), d)
        k = iota.ncols
        if k == 0:
            pi = Matrix.zero(field, 0, d)
        else:
            sol = iota.transpose().solve(Matrix.identity(field, k))
            if sol is None:
                raise TheoremViolation("invariant basis not left-invertible")
            pi = sol.transpose()
    if not averaging:
        return iota, pi, pi
    # pi∘avg, avg the averaging idempotent over all the automorphisms
    total = Matrix.zero(field, d, d)
    for a in mats:
        total = total + a
    return iota, pi, pi * total.scale(field.inv(field.of(len(mats))))


class _KanExtension(SheafFunctor):
    """The construction shared by f_! and f_*: the (co)fiber groupoids over
    every target object and, per sheaf M and fiber component rep, the data
    (iota, pi, leg, rep).  iota is a basis of the Aut(rep)-invariants of
    M(y_rep), pi the deterministic left inverse with pi∘iota = id, and leg
    the projection M(y_rep) -> invariants that values are read through:
    pi∘avg for f_! (`averaging`), pi for f_*.  The value at x is the direct
    sum of the invariants over the components of the fiber over x, so every
    structure matrix is a block matrix with one row or column block per
    component.  A subclass sets `kind`, `suffix` and `averaging` and
    defines `_blocks`.

    Memo levels:
      - per functor instance, keyed by the sheaf instance id(M): the entry
        [M, data, built sheaf] holds M, so the id stays unique, and the
        sheaf f_!M or f_*M, built on the first `obj` call, so `obj`, `mor`
        and the adjunction cells build it once per sheaf;
      - `_invariant_data`, shared by every Kan functor and keyed by
        content: (field, dim M(y_rep), the tuple of matrices M(u) over the
        component's automorphisms u, averaging).  So a new functor over the
        same fibers, or a new sheaf with the same matrices, solves nothing
        again.
    The gate is checked whenever the data of a sheaf is computed, before
    the second level, so a GateError is never cached."""

    def __init__(self, f):
        self.f = f
        Y, X = f.dom, f.cod
        hom, out = {}, {y: [] for y in Y.objects}
        for m in X.morphisms:
            hom.setdefault((X.src[m], X.dst[m]), []).append(m)
        for u in Y.morphisms:
            out[Y.src[u]].append(u)
        self._out = out
        self.fibers = {x: _Fiber(f, x, self.kind, hom, out)
                       for x in X.objects}
        self.name = "%s%s" % (f.name or "f", self.suffix)
        self._cache = {}

    def _entry(self, M):
        entry = self._cache.get(id(M))
        if entry is None:
            data = {x: [self._component(M, fiber, rep) for rep in fiber.reps]
                    for x, fiber in self.fibers.items()}
            entry = self._cache[id(M)] = [M, data, None]
        return entry

    def _data(self, M):
        return self._entry(M)[1]

    def _component(self, M, fiber, rep):
        fld = M.field
        mats = tuple(M.mat[u] for u in fiber.auts[rep])
        if self.averaging and fld.characteristic and \
                len(mats) % fld.characteristic == 0:
            raise GateError("char divides a fiber automorphism count")
        return _invariant_data(fld, M.dim[rep[0]], mats,
                               self.averaging) + (rep,)

    def obj(self, M):
        entry = self._entry(M)
        if entry[2] is None:
            data = entry[1]
            widths = {x: [c[0].ncols for c in data[x]] for x in data}
            X = self.f.cod
            mats = {}
            for xi in X.morphisms:
                x, x2 = X.src[xi], X.dst[xi]
                mats[xi] = Matrix.block(M.field, widths[x2], widths[x],
                                        self._blocks(M, data, xi))
            entry[2] = Sheaf(X, M.field,
                             {x: sum(w) for x, w in widths.items()}, mats)
        return entry[2]

    def mor(self, phi):
        dM = self._data(phi.src)
        dN = self._data(phi.dst)
        comp = {x: Matrix.direct_sum(phi.src.field, [
            pin * phi.comp[rep[0]] * iom
            for (iom, _, _, rep), (_, pin, _, _) in zip(dM[x], dN[x])])
            for x in self.f.cod.objects}
        return SheafMorphism(self.obj(phi.src), self.obj(phi.dst), comp)


class LanFunctor(_KanExtension):
    """f_!: left Kan extension with chosen per-component invariant bases
    (coinvariants via the averaging idempotent; gate required)."""

    kind, suffix, averaging = "lan", "_!", True
    # own entries: perfbench/tracing.py patches them on this class
    obj = _KanExtension.obj
    mor = _KanExtension.mor

    def _blocks(self, M, data, xi):
        """The nonzero blocks of f_!M(xi) for xi: x -> x2.  Component
        c = (y_c, m_c) over x goes to the component r over x2 that holds
        o = (y_c, xi∘m_c), reached by p: rep_r -> o, through the block
        leg_r · M(p⁻¹) · iota_c."""
        X, inv = self.f.cod, self.f.dom.inverse
        fiber, comps2 = self.fibers[X.dst[xi]], data[X.dst[xi]]
        placed = {}
        for c, (iota, _, _, (y_c, m_c)) in enumerate(data[X.src[xi]]):
            r, p = fiber.locate[(y_c, X.compose(xi, m_c))]
            placed[(r, c)] = comps2[r][2] * (M.mat[inv[p]] * iota)
        return placed

    def cocone_leg(self, M, x, o):
        """Matrix M(y) -> f_!M(x) for an object o = (y, m) of the fiber.  It
        has one nonzero block, leg_r · M(p⁻¹) in the row block of o's
        component r, where p: rep_r -> o.  The zero blocks of the other
        components are stacked around it by `stack_rows`, not placed by
        `Matrix.block`: on kernel-coherence this is the only caller of
        `Matrix.vstack`, which perfbench/tracing.py expects to fire on
        every workload."""
        r, p = self.fibers[x].locate[o]
        d = M.dim[o[0]]
        return stack_rows(M.field, [
            leg * M.mat[self.f.dom.inverse[p]] if i == r
            else Matrix.zero(M.field, iota.ncols, d)
            for i, (iota, _, leg, _) in enumerate(self._data(M)[x])], d)

    def trace_cell(self, M):
        """tr: f*(f_!M) -> M, the sum over fiber morphisms; the counit of
        the ambidextrous adjunction once composed with the norm."""
        f = self.f
        Y = f.dom
        fld = M.field
        FM = self.obj(M)
        comp = {}
        for y in Y.objects:
            blocks = []
            for (iota, _, _, (y_c, m_c)) in self._data(M)[f.ob[y]]:
                total = Matrix.zero(fld, M.dim[y], M.dim[y_c])
                for u in self._out[y_c]:
                    if Y.dst[u] == y and f.mor[u] == m_c:
                        total = total + M.mat[u]
                blocks.append(total * iota)
            comp[y] = stack_columns(fld, blocks, M.dim[y])
        return SheafMorphism(PullbackFunctor(f).obj(FM), M, comp)


class RanFunctor(_KanExtension):
    """f_*: right Kan extension; values are per-component invariants of the
    co-fiber (x -> f)."""

    kind, suffix, averaging = "ran", "_*", False
    # own entries: perfbench/tracing.py patches them on this class
    obj = _KanExtension.obj
    mor = _KanExtension.mor

    def _blocks(self, M, data, xi):
        """The nonzero blocks of f_*M(xi) for xi: x -> x2.  Component
        c2 = (y2, m2) over x2 reads the component r over x that holds
        o = (y2, m2∘xi), reached by p: rep_r -> o, through the block
        leg_c2 · M(p) · iota_r."""
        X = self.f.cod
        fiber, comps = self.fibers[X.src[xi]], data[X.src[xi]]
        placed = {}
        for c2, (_, _, leg, (y2, m2)) in enumerate(data[X.dst[xi]]):
            r, p = fiber.locate[(y2, X.compose(m2, xi))]
            placed[(c2, r)] = (leg * M.mat[p]) * comps[r][0]
        return placed

    def section_value(self, M, x, o):
        """Matrix f_*M(x) -> M(y): evaluate a section at the fiber object
        o = (y, m: x -> f(y)).  One nonzero block, M(p) · iota_r in the
        column block of o's component r, where p: rep_r -> o."""
        r, p = self.fibers[x].locate[o]
        comps = self._data(M)[x]
        return Matrix.block(M.field, [M.dim[o[0]]],
                            [c[0].ncols for c in comps],
                            {(0, r): M.mat[p] * comps[r][0]})


class TensorLeftFunctor(SheafFunctor):
    """W ⊗ (-): pointwise Kronecker with a fixed left factor."""

    def __init__(self, W):
        self.W = W
        self.name = "W⊗-"

    def obj(self, M):
        W = self.W
        assert W.base is M.base or W.dim.keys() == M.dim.keys()
        return Sheaf(M.base, M.field,
                     {x: W.dim[x] * M.dim[x] for x in M.dim},
                     {m: W.mat[m].kron(M.mat[m]) for m in M.mat})

    def mor(self, phi):
        W = self.W
        comp = {x: Matrix.identity(phi.src.field, W.dim[x]).kron(phi.comp[x])
                for x in phi.comp}
        return SheafMorphism(self.obj(phi.src), self.obj(phi.dst), comp)


class HomFromFunctor(SheafFunctor):
    """iHom(W, -): pointwise linear maps, row-major vectorization; the
    transition along u sends phi to M(u)∘phi∘W(u)^{-1}."""

    def __init__(self, W):
        self.W = W
        self.name = "iHom(W,-)"

    def obj(self, M):
        W = self.W
        G = M.base
        dims = {x: M.dim[x] * W.dim[x] for x in M.dim}
        mats = {}
        for u in G.morphisms:
            winv = W.mat[G.inverse[u]]
            mats[u] = M.mat[u].kron(winv.transpose())
        return Sheaf(G, M.field, dims, mats)

    def mor(self, phi):
        W = self.W
        comp = {x: phi.comp[x].kron(Matrix.identity(phi.src.field, W.dim[x]))
                for x in phi.comp}
        return SheafMorphism(self.obj(phi.src), self.obj(phi.dst), comp)


def tensor(M, N):
    return TensorLeftFunctor(M).obj(N)


def internal_hom(W, M):
    return HomFromFunctor(W).obj(M)


def tensor_morphisms(phi, psi):
    comp = {x: phi.comp[x].kron(psi.comp[x]) for x in phi.comp}
    return SheafMorphism(tensor(phi.src, psi.src), tensor(phi.dst, psi.dst),
                         comp)


def hom_left_map(psi, N):
    """iHom(psi, N): iHom(B, N) -> iHom(A, N) for psi: A -> B."""
    comp = {}
    for x in psi.comp:
        eye = Matrix.identity(psi.src.field, N.dim[x])
        comp[x] = eye.kron(psi.comp[x].transpose())
    return SheafMorphism(internal_hom(psi.dst, N), internal_hom(psi.src, N),
                         comp)


def evaluation_cell(W, M):
    """ev: W ⊗ iHom(W, M) -> M, (w, phi) -> phi(w)."""
    f = M.field
    comp = {}
    for x in M.dim:
        dw, dm = W.dim[x], M.dim[x]
        rows = []
        for i in range(dm):
            row = [f.zero] * (dw * dm * dw)
            for a in range(dw):
                row[a * (dm * dw) + i * dw + a] = f.one
            rows.append(row)
        comp[x] = Matrix(f, rows) if dm else Matrix.zero(f, 0, dw * dm * dw)
    return SheafMorphism(tensor(W, internal_hom(W, M)), M, comp)


def coevaluation_cell(W, M):
    """unit: M -> iHom(W, W ⊗ M), m -> (w -> w ⊗ m)."""
    f = M.field
    comp = {}
    for x in M.dim:
        dw, dm = W.dim[x], M.dim[x]
        rows = [[f.zero] * dm for _ in range(dw * dm * dw)]
        for b in range(dw):
            for j in range(dm):
                rows[(b * dm + j) * dw + b][j] = f.one
        comp[x] = Matrix(f, rows, ncols=dm)
    return SheafMorphism(M, internal_hom(W, tensor(W, M)), comp)


# ---------------------------------------------------------------------------
# Adjunction witnesses
# ---------------------------------------------------------------------------

class Adjunction:
    """Explicit unit/counit families for L ⊣ R; the triangle identities are
    exact checks."""

    def __init__(self, left, right, unit, counit, left_tag="", right_tag=""):
        self.left, self.right = left, right
        self.unit, self.counit = unit, counit
        self.left_tag, self.right_tag = left_tag, right_tag

    def triangles_ok(self, dom_probes, cod_probes):
        for M in dom_probes:
            lhs = self.left.mor(self.unit(M)).then(self.counit(self.left.obj(M)))
            if not lhs.is_identity():
                return False, "left triangle fails"
        for N in cod_probes:
            rhs = self.unit(self.right.obj(N)).then(self.right.mor(self.counit(N)))
            if not rhs.is_identity():
                return False, "right triangle fails"
        return True, None


def adj_lan_pullback(f):
    """(f_! ⊣ f*) from the colimit universal property."""
    lan = LanFunctor(f)
    pull = PullbackFunctor(f)

    def unit(M):
        FM = lan.obj(M)
        comp = {}
        for y in f.dom.objects:
            x = f.ob[y]
            comp[y] = lan.cocone_leg(M, x, (y, f.cod.identity[x]))
        return SheafMorphism(M, pull.obj(FM), comp)

    def counit(N):
        pN = pull.obj(N)
        FpN = lan.obj(pN)
        comp = {x: stack_columns(N.field, [
            N.mat[m_c] * iota for (iota, _, _, (_, m_c)) in lan._data(pN)[x]],
            N.dim[x]) for x in f.cod.objects}
        return SheafMorphism(FpN, N, comp)

    return Adjunction(lan, pull, unit, counit, "f_!", "f*")


def adj_pullback_ran(f):
    """(f* ⊣ f_*) from the limit universal property."""
    ran = RanFunctor(f)
    pull = PullbackFunctor(f)

    def unit(M):
        pM = pull.obj(M)
        comp = {x: stack_rows(M.field, [
            leg * M.mat[m_c] for (_, _, leg, (_, m_c)) in ran._data(pM)[x]],
            M.dim[x]) for x in f.cod.objects}
        return SheafMorphism(M, ran.obj(pM), comp)

    def counit(N):
        rN = ran.obj(N)
        comp = {}
        for y in f.dom.objects:
            x = f.ob[y]
            comp[y] = ran.section_value(N, x, (y, f.cod.identity[x]))
        return SheafMorphism(pull.obj(rN), N, comp)

    return Adjunction(pull, ran, unit, counit, "f*", "f_*")


def adj_tensor_hom(W):
    """(W ⊗ - ⊣ iHom(W, -))."""
    ten = TensorLeftFunctor(W)
    hom = HomFromFunctor(W)
    return Adjunction(ten, hom,
                      lambda M: coevaluation_cell(W, M),
                      lambda N: evaluation_cell(W, N),
                      "W⊗-", "iHom(W,-)")


def compose_adjunctions(inner, outer):
    """(L_o∘L_i ⊣ R_i∘R_o)."""
    L = ComposedFunctor(inner.left, outer.left)
    R = ComposedFunctor(outer.right, inner.right)

    def unit(M):
        first = inner.unit(M)
        second = inner.right.mor(outer.unit(inner.left.obj(M)))
        return first.then(second)

    def counit(N):
        first = outer.left.mor(inner.counit(outer.right.obj(N)))
        second = outer.counit(N)
        return first.then(second)

    return Adjunction(L, R, unit, counit,
                      "%s∘%s" % (outer.left_tag, inner.left_tag),
                      "%s∘%s" % (inner.right_tag, outer.right_tag))


def left_adjoint_comparison(adj1, adj2, M):
    """Canonical map L1(M) -> L2(M) for two left adjoints of the same
    functor: L1M -> L1 R L2 M -> L2 M."""
    step1 = adj1.left.mor(adj2.unit(M))
    step2 = adj1.counit(adj2.left.obj(M))
    return step1.then(step2)


def right_adjoint_comparison(adj1, adj2, N):
    """Canonical map R1(N) -> R2(N) for two right adjoints of the same
    functor: R1 N -> R2 L2... dual composite via units of adj2."""
    step1 = adj2.unit(adj1.right.obj(N))
    step2 = adj2.right.mor(adj1.counit(N))
    return step1.then(step2)


# ---------------------------------------------------------------------------
# The exceptional functors: norm and upper shriek
# ---------------------------------------------------------------------------

def norm_map(f, M):
    """The natural map f_!M -> f_*M: the unnormalized fiber-orbit sum,
    assembled as the (f* ⊣ f_*)-adjunct of the trace f*(f_!M) -> M.

    Under the gate every component matrix is invertible; a singular
    component means the gate was violated upstream and raises an alarm.
    """
    lan = LanFunctor(f)
    adj2 = adj_pullback_ran(f)
    tr = lan.trace_cell(M)                 # f* f_! M -> M
    FM = lan.obj(M)
    nm = adj2.unit(FM).then(adj2.right.mor(tr))
    return nm


def norm_certificate(f, M):
    nm = norm_map(f, M)
    if not nm.is_invertible():
        raise TheoremViolation("norm map not invertible: gate violated?")
    return nm


class UpperShriekResult:
    def __init__(self, sheaf, witness, ambidextrous_ok):
        self.sheaf = sheaf
        self.witness = witness
        self.ambidextrous_ok = ambidextrous_ok


def adj_ambidextrous(f):
    """(f* ⊣ f_!) assembled from the (f* ⊣ f_*) witness and the norm
    isomorphism; its triangle identities certify the assembly."""
    lan = LanFunctor(f)
    pull = PullbackFunctor(f)
    adj2 = adj_pullback_ran(f)

    def unit(M):     # M -> f_! f* M
        pm = pull.obj(M)
        nm = norm_certificate(f, pm)
        return adj2.unit(M).then(nm.inverse())

    def counit(N):   # f* f_! N -> N
        nm = norm_certificate(f, N)
        return pull.mor(nm).then(adj2.counit(N))

    return Adjunction(pull, lan, unit, counit, "f*", "f_!")


def upper_shriek(f, M, probes=()):
    """f^! M = f* M, together with the verified (f_! ⊣ f^!) witness.

    The unit/counit are those of the Kan-extension adjunction (f_! ⊣ f*);
    the ambidextrous witness (f* ⊣ f_!) assembled from (f* ⊣ f_*) and the
    norm isomorphism is verified alongside, so both readings of f^! agree.
    """
    pull = PullbackFunctor(f)
    w = adj_lan_pullback(f)
    ok = True
    if probes:
        amb = adj_ambidextrous(f)
        ok, _ = amb.triangles_ok(probes[0], probes[1])
        if not ok:
            raise TheoremViolation("ambidextrous witness failed triangles")
    return UpperShriekResult(pull.obj(M), w, ok)


def lan_shriek(f, M):
    lan = LanFunctor(f)
    return lan.obj(M), adj_lan_pullback(f)


def ran_star(f, M):
    ran = RanFunctor(f)
    return ran.obj(M), adj_pullback_ran(f)


def global_sections(X, M, point=None):
    """(dim Γ, Γ sheaf, dim Γ_c, Γ_c sheaf) via the map to the point."""
    from .groupoid import terminal_groupoid, to_terminal
    pt = point or terminal_groupoid()
    p = to_terminal(X, pt)
    gam = RanFunctor(p).obj(M)
    gam_c = LanFunctor(p).obj(M)
    o = pt.objects[0]
    return gam.dim[o], gam, gam_c.dim[o], gam_c


# ---------------------------------------------------------------------------
# Canonical cells
# ---------------------------------------------------------------------------

def transport_cell(kappa, M):
    """For an invertible natural transformation kappa: F -> G of groupoid
    functors and a sheaf M on the common target: F*M -> G*M with components
    M(kappa_y)."""
    F, G = kappa.F, kappa.G
    pF, pG = PullbackFunctor(F), PullbackFunctor(G)
    comp = {y: M.mat[kappa.component[y]] for y in F.dom.objects}
    return SheafMorphism(pF.obj(M), pG.obj(M), comp)


def base_change_cell(square, M):
    """The canonical comparison f'_! g'* M -> g* f_! M for a 2-commuting
    square (kappa: f∘g' -> g∘f'), built from units/counits only:

        f'_! g'* --(unit of f)--> f'_! g'* f* f_! = f'_! (f g')* f_!
                 --(kappa transport)--> f'_! (g f')* f_! = f'_! f'* g* f_!
                 --(counit of f')--> g* f_!
    """
    f, g, fp, gp, kappa = (square.f, square.g, square.fp, square.gp,
                           square.kappa)
    adj_f = adj_lan_pullback(f)
    adj_fp = adj_lan_pullback(fp)
    lan_f, lan_fp = adj_f.left, adj_fp.left
    pull_gp, pull_g = PullbackFunctor(gp), PullbackFunctor(g)
    FM = lan_f.obj(M)
    step1 = lan_fp.mor(pull_gp.mor(adj_f.unit(M)))
    step2 = lan_fp.mor(transport_cell(kappa, FM))
    step3 = adj_fp.counit(pull_g.obj(FM))
    return step1.then(step2).then(step3)


class CommutingSquare:
    """f: Y->X (exceptional side), g: X'->X, with f': W->X', g': W->Y and
    kappa: f∘g' -> g∘f' invertible."""

    def __init__(self, f, g, fp, gp, kappa):
        self.f, self.g, self.fp, self.gp, self.kappa = f, g, fp, gp, kappa

    @staticmethod
    def from_iso_comma(f, g):
        from .groupoid import iso_comma_pullback, compose_functors
        ic = iso_comma_pullback(f, g)
        return CommutingSquare(f, g, ic.p2, ic.p1, ic.phi), ic


def verify_base_change(square, M):
    """Certificate for proper base change: the canonical comparison is
    invertible.  Returns (comparison g* f_! M -> f'_! g'* M, cell)."""
    cell = base_change_cell(square, M)
    if not cell.is_invertible():
        raise TheoremViolation("base change comparison not invertible")
    return cell.inverse(), cell


def projection_formula_cell_left(f, W, V):
    """f_!(f*W ⊗ V) -> W ⊗ f_!V from units/counits (f*(A⊗B) = f*A⊗f*B holds
    on the nose for precomposition and Kronecker)."""
    adj = adj_lan_pullback(f)
    lan, pull = adj.left, adj.right
    pW = pull.obj(W)
    inner = TensorLeftFunctor(pW).mor(adj.unit(V))       # f*W⊗V -> f*W⊗f*f_!V
    step1 = lan.mor(inner)
    step2 = adj.counit(tensor(W, lan.obj(V)))
    return step1.then(step2)


def projection_formula_cell_right(f, V, W):
    """f_!(V ⊗ f*W) -> f_!V ⊗ W."""
    adj = adj_lan_pullback(f)
    lan, pull = adj.left, adj.right
    pW = pull.obj(W)
    FV = lan.obj(V)
    # V ⊗ f*W -> f*f_!V ⊗ f*W = f*(f_!V ⊗ W), then counit
    eta = adj.unit(V)
    inner = tensor_morphisms(eta, identity_morphism(pW))
    step1 = lan.mor(inner)
    step2 = adj.counit(tensor(FV, W))
    return step1.then(step2)


def ran_projection_cell(f, A, B):
    """f_*(A) ⊗ B -> f_*(A ⊗ f*B), the (f* ⊣ f_*)-adjunct of
    f*(f_*A ⊗ B) = f*f_*A ⊗ f*B --counit⊗id--> A ⊗ f*B."""
    adj = adj_pullback_ran(f)
    pull, ran = adj.left, adj.right
    pB = pull.obj(B)
    src = tensor(ran.obj(A), B)
    inner = tensor_morphisms(adj.counit(A), identity_morphism(pB))
    return adj.unit(src).then(ran.mor(inner))


def compose_comparison_lan(g, f, M):
    """(g∘f)_! M -> g_! f_! M, canonical (both are left adjoints of the
    strict equality f*∘g* = (g∘f)*)."""
    from .groupoid import compose_functors
    gf = compose_functors(g, f)
    adj_gf = adj_lan_pullback(gf)
    adj_comp = compose_adjunctions(adj_lan_pullback(f), adj_lan_pullback(g))
    return left_adjoint_comparison(adj_gf, adj_comp, M)


def compose_comparison_ran(g, f, M):
    """(g∘f)_* M -> g_* f_* M, canonical (right adjoints of the same)."""
    from .groupoid import compose_functors
    gf = compose_functors(g, f)
    adj_gf = adj_pullback_ran(gf)
    adj_comp = compose_adjunctions(adj_pullback_ran(g), adj_pullback_ran(f))
    return right_adjoint_comparison(adj_gf, adj_comp, M)


def _identity_adjunction():
    """Id ⊣ Id with identity unit and counit."""
    ident = IdentityFunctor()
    return Adjunction(ident, ident, identity_morphism, identity_morphism,
                      "Id", "Id")


def lan_identity_comparison(C, M):
    """id_! M -> M, canonical (Lan along the identity vs the identity
    functor, both left adjoint to id*)."""
    from .groupoid import identity_functor
    adj1 = adj_lan_pullback(identity_functor(C))
    return left_adjoint_comparison(adj1, _identity_adjunction(), M)


def ran_identity_comparison(C, M):
    """id_* M -> M, canonical (both right adjoint to id*)."""
    from .groupoid import identity_functor
    adj1 = adj_pullback_ran(identity_functor(C))
    return right_adjoint_comparison(adj1, _identity_adjunction(), M)


def swap_cell(M, N):
    """The symmetry M ⊗ N -> N ⊗ M (perfect shuffle permutation)."""
    f = M.field
    comp = {}
    for x in M.dim:
        dm, dn = M.dim[x], N.dim[x]
        rows = [[f.zero] * (dm * dn) for _ in range(dn * dm)]
        for i in range(dm):
            for j in range(dn):
                rows[j * dm + i][i * dn + j] = f.one
        comp[x] = Matrix(f, rows)
    return SheafMorphism(tensor(M, N), tensor(N, M), comp)


def double_dual_cell(M, unit):
    """M -> iHom(iHom(M, 1), 1), the canonical biduality map."""
    f = M.field
    dd = internal_hom(internal_hom(M, unit), unit)
    comp = {}
    for x in M.dim:
        d = M.dim[x]
        # iHom(M,1)(x) has dim d (row-major vec of 1 x d matrices);
        # target vec index over Lin(Lin(M,1), 1): again dim d
        rows = [[f.zero] * d for _ in range(d)]
        for i in range(d):
            rows[i][i] = f.one
        comp[x] = Matrix(f, rows)
    return SheafMorphism(M, dd, comp)


def verify_projection_formula(f, M, N):
    """Certificates: the canonical map f_!(f*M ⊗ N) -> M ⊗ f_!N is
    invertible, and so is the hom-form comparison
    iHom(f_!N, M) -> f_*iHom(N, f^!M)."""
    cell = projection_formula_cell_left(f, M, N)
    if not cell.is_invertible():
        raise TheoremViolation("projection formula comparison not invertible")
    hom_cell = hom_form_cell(f, N, M)
    if not hom_cell.is_invertible():
        raise TheoremViolation("hom-form comparison not invertible")
    return cell, hom_cell


def hom_form_cell(f, N, M):
    """iHom(f_!N, M) -> f_* iHom(N, f^!M) with f^! = f*: the
    (f* ⊣ f_*)-adjunct of the (⊗N ⊣ iHom(N,-))-adjunct of
      f*iHom(f_!N, M) ⊗ N --iHom(unit,id)⊗N--> iHom(N, f*M) ⊗ N --ev--> f*M
    using the strict equality f*iHom(A, B) = iHom(f*A, f*B)."""
    adj1 = adj_lan_pullback(f)
    adj2 = adj_pullback_ran(f)
    lan, pull, ran = adj1.left, adj1.right, adj2.right
    FN = lan.obj(N)
    src = internal_hom(FN, M)
    pM = pull.obj(M)
    # f*(iHom(f_!N, M)) = iHom(f*f_!N, f*M) on the nose; precompose the unit
    pre = hom_left_map(adj1.unit(N), pM)
    psrc = pull.obj(src)
    stepA = SheafMorphism(psrc, pre.dst, {x: pre.comp[x] for x in pre.comp})
    # adjunct under (f* ⊣ f_*)
    return adj2.unit(src).then(ran.mor(stepA))


class TensorRightFunctor(SheafFunctor):
    """(-) ⊗ W with a fixed right factor."""

    def __init__(self, W):
        self.W = W
        self.name = "-⊗W"

    def obj(self, M):
        return tensor(M, self.W)

    def mor(self, phi):
        W = self.W
        comp = {x: phi.comp[x].kron(Matrix.identity(phi.src.field, W.dim[x]))
                for x in phi.comp}
        return SheafMorphism(self.obj(phi.src), self.obj(phi.dst), comp)


def find_isomorphism(A, B):
    """A deterministic invertible element of Hom(A, B), or None.

    Tries single basis elements, then 24 generic integer-coefficient
    combinations; exact invertibility check each time.
    """
    basis = hom_space(A, B)
    if not basis:
        return None
    for b in basis:
        if b.is_invertible():
            return b
    f = A.field
    for t in range(1, 25):
        coeffs = [f.of(pow(t, i, 10007)) for i in range(len(basis))]
        cand = linear_combination(A, B, basis, coeffs)
        if cand.is_invertible():
            return cand
    return None
