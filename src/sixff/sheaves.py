"""Sheaves on finite groupoids and the six functors, as exact linear algebra.

A sheaf assigns a finite-dimensional vector space to every object and an
invertible matrix to every morphism, strictly compatible with composition.
It is given by the matrices at the generators of its base's presentation
(`FiniteCategory.presentation`); the matrix of any other morphism is
derived from its word in the generators on first read and memoised, and
validation checks the relators.  Every functor below builds the matrices
of its output at the generators only, so on a discrete base it builds
none.  The six operations are:

  pullback      f*   precomposition (strictly functorial),
  lan           f_!  left Kan extension: per-component coinvariants with a
                     chosen invariant basis and the averaging idempotent,
  ran           f_*  right Kan extension: per-component invariants,
  tensor        ⊗    pointwise Kronecker product (strictly associative),
  internal hom  iHom pointwise linear maps with conjugation action,
  upper shriek  f^!  equal to f* as a functor; its adjunction with f_! is a
                     verified witness, and the norm map f_! -> f_* is the
                     unnormalized fiber-orbit sum.

Every adjunction L ⊣ R carries explicit unit/counit families, and its
hom bijection Hom(L A, B) ≅ Hom(A, R B) is one pair of operations:
`Adjunction.adjunct` sends a cell L A -> B to R(cell)∘η_A, and
`Adjunction.coadjunct` sends a cell A -> R B to ε_B∘L(cell).  The
triangle identities, verified exactly, say that the two are mutually
inverse.  Every canonical comparison is an adjunct or a coadjunct of a
cell assembled from units, counits, strict equalities of composites and
transports along invertible natural transformations - never searched:
base change, the projection formulas, the hom form, the norm, the
composition and identity comparisons, and the unit and counit of a
composite adjunction.  A coadjunct of (f_! ⊣ f*) is read off the cocone
legs (`LanAdjunction.coadjunct`), with no push of its target and no f_!
of its cell; the counit of f_! ⊣ f*, the projection formulas, the Lan
composition and identity comparisons and the counits of composite
adjunctions are all such coadjuncts.  Base change keeps the pasted
ε∘f'_!(cell), written out.

Global sections are Γ = p_* along p: X -> *, and Hom(M, N) = Γ(iHom(M, N)):
`hom_space` reads each section at every object x through the fiber object
(x, id) of p.  A fiber component is represented by its okey-least fiber
object, so Hom is solved at the x whose (x, id) sorts first.  That is
usually the okey-least x, but not always: okey("x") is a prefix of
okey("x'"), yet in (x, id) it is followed by ",", which sorts after "'",
so the component of x and x' is represented by x'.
"""

from __future__ import annotations

import weakref
from collections.abc import ItemsView, KeysView, ValuesView
from functools import lru_cache
from itertools import accumulate

from .fields import GateError, TheoremViolation, check_gate
from .groupoid import StructureError, component_search, compose_functors, okey
from .linalg import (Matrix, SingularMatrixError, coordinates, stack_columns,
                     stack_rows)

# ---------------------------------------------------------------------------
# Sheaves and their morphisms
# ---------------------------------------------------------------------------

class _Transitions(dict):
    """The transition matrices of a sheaf, `Sheaf.mat`: a dict of the
    matrices the sheaf was given (`given` holds their morphisms), which
    must include one at every generator of its base's presentation.  The
    matrix of any other morphism is derived on first read and stored
    (`__missing__`), so a stored matrix is read by a plain dict lookup.
    Iteration, `len`, `in`, `get`, `keys`, `items`, `values` and `==`
    range over every morphism of the base."""

    __slots__ = ("base", "field", "dim", "given")

    def __init__(self, base, field, dim, given):
        super().__init__(dict.items(given) if isinstance(given, _Transitions)
                         else given)
        self.base, self.field, self.dim = base, field, dim
        self.given = frozenset(dict.keys(self))

    def __missing__(self, m):
        """M(m): the identity matrix at an identity; along the walk for an
        automorphism of a representative; M(t[y])·M(a)·M(t_inv[x]) for
        any other m: x -> y (see `groupoid.Presentation`).  A generator
        has no other value: its absence is a StructureError."""
        cat = self.base
        x = cat.src.get(m)
        if x is None:
            raise KeyError(m)
        pres = cat.presentation
        if m in pres.gen_set:
            raise StructureError("no matrix at the generator %r" % (m,))
        if m == cat.identity[x]:
            value = Matrix.identity(self.field, self.dim[x])
        else:
            r, y = pres.comp_of[x], cat.dst[m]
            if x == r == y:
                return self._automorphism(m, r)
            a = cat.compose(pres.t_inv[y], cat.compose(m, pres.t[x]))
            value = None if a == cat.identity[r] else self[a]
            if y != r:
                t = self[pres.t[y]]
                value = t if value is None else t * value
            if x != r:
                t = self[pres.t_inv[x]]
                value = t if value is None else value * t
        dict.__setitem__(self, m, value)
        return value

    def _automorphism(self, a, r):
        """M(a) for an automorphism a of r: from its nearest stored
        ancestor along the walk, storing each step."""
        walk, e = self.base.presentation.walk[r], self.base.identity[r]
        path = []
        while not dict.__contains__(self, a):
            if a == e:
                value = None
                break
            parent, g = walk[a]
            path.append((a, g))
            a = parent
        else:
            value = dict.__getitem__(self, a)
        for c, g in reversed(path):
            g = self[g]
            value = g if value is None else value * g
            dict.__setitem__(self, c, value)
        return value

    def __iter__(self):
        return iter(self.base.morphisms)

    def __len__(self):
        return len(self.base.morphisms)

    def __contains__(self, m):
        return m in self.base.src

    def get(self, m, default=None):
        return self[m] if m in self else default

    def keys(self):
        return KeysView(self)

    def items(self):
        return ItemsView(self)

    def values(self):
        return ValuesView(self)

    def __eq__(self, other):
        if not isinstance(other, dict):
            return NotImplemented
        return len(self) == len(other) and all(
            m in other and self[m] == other[m] for m in self)

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq


class Sheaf:
    """A vector space dim[x] at every object x of `base` and an invertible
    matrix mat[m] at every morphism m, given at the generators of the
    base's presentation (and wherever else the caller gives one)."""

    # weakly referable: the Kan push memo holds f_!M and f_*M weakly
    __slots__ = ("base", "field", "dim", "mat", "__weakref__")

    def __init__(self, base, field, dim, mat, check=False):
        self.base = base
        self.field = field
        self.dim = dict(dim)
        self.mat = _Transitions(base, field, self.dim, mat)
        if check:
            bad = self.validate()
            if bad:
                raise ValueError("not a sheaf: %s" % bad[0])

    def validate(self):
        """Every stored matrix has its shape and every stored identity is
        the identity.  On a groupoid: the generators of each vertex group
        satisfy its relators, M(a∘g) = M(a)·M(g) for every automorphism a
        and generator g (the check of `FiniteGroup.homomorphisms`); each
        tree arrow's matrix is inverted by its inverse's; and every other
        stored matrix equals the value its word gives.  On a category with
        no inverse table: every composite is the product."""
        G, pres, stored = self.base, self.base.presentation, self.mat.given
        mat = {m: self.mat[m] for m in G.morphisms if m in stored}
        out = ["no matrix at the generator %r" % (g,)
               for g in pres.generators if g not in stored]
        out += ["matrix at %r has wrong shape" % (m,) for m, a in mat.items()
                if a.shape != (self.dim[G.dst[m]], self.dim[G.src[m]])]
        if out:
            return out
        for x in G.objects:
            e = G.identity[x]
            if e in stored and not mat[e].is_identity():
                out.append("identity at %r not the identity matrix" % (x,))
        if pres.t is None:
            for g, f in G.composable_pairs():
                if self.mat[G.compose(g, f)] != self.mat[g] * self.mat[f]:
                    out.append("transition at (%r,%r) not multiplicative"
                               % (g, f))
            return out
        for x, r in pres.comp_of.items():
            if x != r:
                t, ti = mat[pres.t[x]], mat[pres.t_inv[x]]
                if not ((ti * t).is_identity() and (t * ti).is_identity()):
                    out.append("tree arrow %r not inverted by %r"
                               % (pres.t[x], pres.t_inv[x]))
        # every matrix as its word in the generators alone gives it
        words = _Transitions(G, self.field, self.dim,
                             {g: mat[g] for g in pres.generators})
        for r, walk in pres.walk.items():
            for a in [G.identity[r], *walk]:
                for g in pres.gens[r]:
                    if words[G.compose(a, g)] != words[a] * mat[g]:
                        out.append("relator fails at (%r,%r)" % (a, g))
        for m, given in mat.items():
            if m in pres.gen_set or m == G.identity[G.src[m]]:
                continue
            if given != words[m]:
                out.append("matrix at %r disagrees with its word" % (m,))
        return out

    def left_times(self, m, a):
        """M(m)·a, with no product when m is an identity."""
        G = self.base
        return a if m == G.identity[G.src[m]] else self.mat[m] * a

    def right_times(self, a, m):
        """a·M(m), with no product when m is an identity."""
        G = self.base
        return a if m == G.identity[G.src[m]] else a * self.mat[m]

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
                 dict.fromkeys(base.presentation.generators, one))


def zero_sheaf(base, field):
    z = Matrix.zero(field, 0, 0)
    return Sheaf(base, field, {x: 0 for x in base.objects},
                 dict.fromkeys(base.presentation.generators, z))


def sheaf_from_rep(base, field, rep):
    """Sheaf on a delooping from matrices indexed by the group elements."""
    obj = base.objects[0]
    dim = rep[base.identity[obj]].nrows
    return Sheaf(base, field, {obj: dim}, dict(rep))


def sheaves_equal(M, N):
    """Same field, dims and generator matrices, and the same matrices
    wherever either was given one beyond the generators (which a sheaf's
    generators determine, unless it is invalid)."""
    if M is N:
        return True
    if not (M.field == N.field and M.dim == N.dim):
        return False
    a, b = M.mat, N.mat
    return all(a[m] == b[m]
               for m in M.base.presentation.gen_set | a.given | b.given)


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
        if out:
            return out
        for m in G.presentation.generators:
            a, b = G.src[m], G.dst[m]
            if self.comp[b] * self.src.mat[m] != self.dst.mat[m] * self.comp[a]:
                out.append("naturality fails at %r" % (m,))
        return out

    def then(self, other):
        """other ∘ self."""
        if not (other.src is self.dst or other.src.dim == self.dst.dim):
            raise StructureError("morphisms not composable: %r then %r"
                                 % (self, other))
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
    """Deterministic basis of Hom(M, N) = Γ(iHom(M, N)), the sections of
    H = iHom(M, N) pushed along p: X -> * by p_*.  Basis element j is read
    at each object x through the section value H(x) <- Γ at the fiber
    object (x, id), unvec'd row-major into a dim N(x) x dim M(x) block.
    The basis runs over the fiber components, each solved at the x whose
    (x, id) is okey-least: usually the okey-least x of the component, but
    x' rather than x for objects "x" and "x'" (see the module docstring).
    """
    p = M.base.to_point
    o, = p.cod.objects
    H = internal_hom(M, N)
    gam = RanFunctor(p)
    e = p.cod.identity[o]
    basis = [{} for _ in range(gam.obj(H).dim[o])]
    for x in M.base.objects:
        sections = gam.section_value(H, o, (x, e))
        for j, comp in enumerate(basis):
            comp[x] = Matrix.from_entries(M.field, sections.column_entries(j),
                                          N.dim[x], M.dim[x])
    return [SheafMorphism(M, N, comp) for comp in basis]


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
    if not basis:
        return []
    order = sorted(phi.comp, key=okey)

    def flat(m):
        return [a for x in order for a in m.comp[x].entries()]

    coords = coordinates(phi.src.field, [flat(b) for b in basis], [flat(phi)])
    if coords is None:
        raise TheoremViolation("morphism outside hom space span")
    return coords[0]


# ---------------------------------------------------------------------------
# Fiber (comma) data for Kan extensions
# ---------------------------------------------------------------------------

class _Fiber:
    """Component data of the comma groupoid over one target object x,
    found by `component_search` over its objects `objs` (see `_fibers`).

    kind "lan": objects (y, m: f(y) -> x);  kind "ran": (y, m: x -> f(y)).
    Arrows u: (y, m) -> (y', m') are the morphisms u: y -> y' of f.dom with
    m'∘f(u) = m (lan) or f(u)∘m = m' (ran), read from `f.dom.out`.  `reps`
    holds the okey-least object of each component, and `locate[o]` is
    (i, p): the index i of o's component in `reps` and the first morphism
    p: y_rep -> y of f.dom, in morphism order, that is an arrow rep -> o of
    the fiber.  The lists below are what every push reads, by position, so
    no product object is hashed again per sheaf:
      - `parts[i]`, per component in `reps` order: (rep, y_rep, m_rep,
        whether m_rep is an identity, the automorphisms of rep other than
        the identity in morphism order, the order of Aut(rep));
      - `unit`, for kind "lan" only (None for "ran"): (y, r, p⁻¹) for each
        object (y, id_x), in the order of `objs`, where
        locate[(y, id_x)] = (r, p); p⁻¹ is None when p is an identity.
        They are the cocone legs the f_! unit reads.
    """

    __slots__ = ("reps", "locate", "parts", "unit")

    def __init__(self, f, kind, objs):
        Y, X = f.dom, f.cod
        dst, out, fmor, idY = Y.dst, Y.out, f.mor, Y.identity
        if kind == "lan":
            inv = X.inverse

            def arrows(o):
                y, m = o
                return [(u, (dst[u], X.compose(m, inv[fmor[u]])))
                        for u in out[y]]
        else:
            def arrows(o):
                y, m = o
                return [(u, (dst[u], X.compose(fmor[u], m))) for u in out[y]]

        self.reps, auts, self.locate = component_search(
            sorted(objs, key=okey), arrows, lambda o: idY[o[0]])
        self.parts = []
        for rep in self.reps:
            (y, m), a = rep, auts[rep]
            self.parts.append((rep, y, m, m == X.identity[X.src[m]],
                               tuple(u for u in a if u != idY[y]), len(a)))
        self.unit = None
        if kind == "lan":
            self.unit = []
            for y, m in objs:
                if m == X.identity[X.src[m]]:
                    r, p = self.locate[(y, m)]
                    self.unit.append((y, r, None if p == idY[y]
                                      else Y.inverse[p]))


def _fibers(f, kind):
    """The fibers of f of one kind by object x of f.cod.  Their objects
    come from one pass over `f.cod.out`: the arrows out of each f(y) (lan)
    or into it (ran).  They are grouped by y's image `over[f(y)]`, so the
    objects (y, id_x) of a Lan fiber come in the order of f.dom.objects,
    which its `unit` keeps."""
    X = f.cod
    over = {}
    for y in f.dom.objects:
        over.setdefault(f.ob[y], []).append(y)
    objs = {x: [] for x in X.objects}
    if kind == "lan":           # (y, m: f(y) -> x)
        for c, ys in over.items():
            for m in X.out[c]:
                objs[X.dst[m]].extend((y, m) for y in ys)
    else:                       # (y, m: x -> f(y))
        for x, ms in X.out.items():
            for m in ms:
                objs[x].extend((y, m) for y in over.get(X.dst[m], ()))
    return {x: _Fiber(f, kind, objs[x]) for x in X.objects}


# The memo of each functor object f, shared by every Kan functor on f:
# _FIBERS[f] maps each kind built so far to its fibers, "pushes" the
# content key of a sheaf M (see `_KanExtension._entry`) to the built f_!M
# or f_*M, and "data" that built sheaf to its component data.  The fibers
# read their arrows from the categories' own index (`FiniteCategory.out`).
# "pushes" holds its values and "data" its keys weakly, so a push lives
# exactly as long as someone holds it.  The whole entry is keyed weakly by
# f, so a dropped functor drops it; no value refers to f.
_FIBERS = weakref.WeakKeyDictionary()


def _memo_of(f, kind):
    """The _FIBERS entry of f, with the fibers of kind "lan" or "ran"."""
    shared = _FIBERS.get(f)
    if shared is None:
        shared = _FIBERS[f] = {"pushes": weakref.WeakValueDictionary(),
                               "data": weakref.WeakKeyDictionary()}
    if kind not in shared:
        shared[kind] = _fibers(f, kind)
    return shared


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


class PullbackFunctor(SheafFunctor):
    """f*: precomposition; strictly monoidal and strictly functorial."""

    def __init__(self, f):
        self.f = f
        self.name = "%s*" % (f.name or "f")

    def obj(self, M):
        f = self.f
        return Sheaf(f.dom, M.field,
                     {y: M.dim[f.ob[y]] for y in f.dom.objects},
                     {u: M.mat[f.mor[u]]
                      for u in f.dom.presentation.generators})

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
    field, d = dim M(y_rep), the matrices `mats` of the automorphisms
    other than the identity, in fiber order, and whether leg averages.
    The field is part of the key, so data computed over one field never
    answers a call over another.
    When every automorphism acts as the identity, the invariant basis is
    the identity and so are pi and leg: all three are then the shared
    `Matrix.identity(field, d)`, so every product with them is free.  The
    nullspace and the solve still run in that case: over discrete fibers
    they are the only eliminations left, and the benchmark's tracer
    (perfbench/tracing.py) expects `Matrix.rref`, `nullspace` and `solve`
    to fire on such a workload.
    The gate is left to the caller, which must check it on every call,
    cached or not.
    """
    eye = Matrix.identity(field, d)
    if d == 0:
        return eye, eye, eye
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
    if iota.is_identity():
        return eye, eye, eye
    if not averaging:
        return iota, pi, pi
    # pi∘avg, avg the averaging idempotent over all the automorphisms
    total = eye
    for a in mats:
        total = total + a
    return iota, pi, pi * total.scale(field.inv(field.of(len(mats) + 1)))


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
      - per functor object f, in `_FIBERS`, shared by every Kan functor on
        f and keyed weakly by f:
          - the fibers, built by the first Kan functor of their kind on f,
            so a new `LanFunctor(f)` builds no groupoid data.  They read
            their arrows from the arrow index `out` of f.dom and f.cod,
            built once per category.  Their positional lists `parts` and
            (for f_!) `unit` are built with them, so the per-sheaf work
            below (the component data, the f_! unit and the coadjunct)
            reads list positions and hashes no product object;
          - the pushes: f_!M or f_*M by the content of M, (kind, field,
            dims over f.dom.objects, matrices at the generators of
            f.dom), with its component data; on a discrete f.dom the key
            is the dims alone.  The key is exact: the generator matrices
            determine every other one, so equal keys mean equal sheaves
            over the same field.  A push is held weakly, so it
            lives exactly as long as someone holds f_!M or f_*M; while
            it lives, every Kan functor on f reuses it for a sheaf of the
            same content and assembles nothing.  Held strongly, pushes
            saved at most 2.7% of the `Matrix` products of a perfbench
            round (none on kernel-coherence) and raised its peak RSS by
            up to 3.7 MB (kernel-coherence 24.2 → 26.8 MB, six-ops-fresh
            29.5 → 33.2 MB, Python 3.11), so they stay weak;
      - per functor instance, keyed by the sheaf instance id(M): the entry
        (M, data, built sheaf), so `obj`, `mor` and the adjunction cells
        look the content key up once per sheaf.  It holds M, so the id
        stays unique, and the built sheaf, so the push lives at least as
        long as the functor.  It stays per instance: kept on f, it would
        keep every sheaf ever pushed along a long-lived f alive;
      - `_invariant_data`, shared by every Kan functor and keyed by
        content: (field, dim M(y_rep), the tuple of matrices M(u) over the
        component's automorphisms u other than the identity, averaging).
        So a new push whose components were seen before solves nothing
        again.
    The gate is checked whenever the data of a sheaf is computed, before
    the last level; a push is stored only once it is built, so a GateError
    is never cached."""

    def __init__(self, f):
        self.f = f
        shared = _memo_of(f, self.kind)
        self.fibers = shared[self.kind]
        self._pushes, self._push_data = shared["pushes"], shared["data"]
        self.name = "%s%s" % (f.name or "f", self.suffix)
        self._cache = {}

    def _entry(self, M):
        """(M, data, built sheaf), from the pushes of f when one with the
        content of M is alive, built and stored there otherwise."""
        entry = self._cache.get(id(M))
        if entry is None:
            Y = self.f.dom
            key = (self.kind, M.field,
                   tuple(map(M.dim.__getitem__, Y.objects)),
                   tuple(map(M.mat.__getitem__, Y.presentation.generators)))
            FM = self._pushes.get(key)
            if FM is None:
                data = {x: [self._component(M, part) for part in fiber.parts]
                        for x, fiber in self.fibers.items()}
                FM = self._pushes[key] = self._build(M, data)
                self._push_data[FM] = data
            entry = self._cache[id(M)] = (M, self._push_data[FM], FM)
        return entry

    def _data(self, M):
        return self._entry(M)[1]

    def _component(self, M, part):
        """(iota, pi, leg, rep) of the fiber component `part` (an entry of
        `_Fiber.parts`)."""
        rep, y, _, _, others, order = part
        fld = M.field
        if self.averaging and fld.characteristic and \
                order % fld.characteristic == 0:
            raise GateError("char divides a fiber automorphism count")
        return _invariant_data(fld, M.dim[y],
                               tuple(map(M.mat.__getitem__, others)),
                               self.averaging) + (rep,)

    def _build(self, M, data):
        widths = {x: [c[0].ncols for c in data[x]] for x in data}
        X = self.f.cod
        mats = {xi: Matrix.block(M.field, widths[X.dst[xi]],
                                 widths[X.src[xi]], self._blocks(M, data, xi))
                for xi in X.presentation.generators}
        return Sheaf(X, M.field, {x: sum(w) for x, w in widths.items()},
                     mats)

    def obj(self, M):
        return self._entry(M)[2]

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
            placed[(r, c)] = comps2[r][2] * M.left_times(inv[p], iota)
        return placed

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
                for u in Y.hom(y_c, y):
                    if f.mor[u] == m_c:
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
            placed[(c2, r)] = M.right_times(leg, p) * comps[r][0]
        return placed

    def section_value(self, M, x, o):
        """Matrix f_*M(x) -> M(y): evaluate a section at the fiber object
        o = (y, m: x -> f(y)).  One nonzero block, M(p) · iota_r in the
        column block of o's component r, where p: rep_r -> o."""
        r, p = self.fibers[x].locate[o]
        comps = self._data(M)[x]
        return Matrix.block(M.field, [M.dim[o[0]]],
                            [c[0].ncols for c in comps],
                            {(0, r): M.left_times(p, comps[r][0])})


class TensorLeftFunctor(SheafFunctor):
    """W ⊗ (-): pointwise Kronecker with a fixed left factor."""

    def __init__(self, W):
        self.W = W
        self.name = "W⊗-"

    def obj(self, M):
        W = self.W
        if not (W.base is M.base or W.dim.keys() == M.dim.keys()):
            raise StructureError("tensor factors on different bases")
        return Sheaf(M.base, M.field,
                     {x: W.dim[x] * M.dim[x] for x in M.dim},
                     {m: W.mat[m].kron(M.mat[m])
                      for m in M.base.presentation.generators})

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
        inv = G.inverse
        return Sheaf(G, M.field, dims, {
            u: M.mat[u].kron(W.mat[inv[u]].transpose())
            for u in G.presentation.generators})

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
    """L ⊣ R with explicit unit η: A -> R L A and counit ε: L R B -> B.

    The hom bijection Hom(L A, B) ≅ Hom(A, R B) is `adjunct` one way and
    `coadjunct` the other; the triangle identities, checked exactly by
    `triangles_ok`, say that the two are mutually inverse.  Every
    canonical comparison here and in `kernels` is an adjunct or a
    coadjunct, built by these two.  `LanAdjunction` reads its coadjunct
    off the cocone legs instead of taking ε_B∘L(cell)."""

    def __init__(self, left, right, unit, counit):
        self.left, self.right = left, right
        self.unit, self.counit = unit, counit

    def adjunct(self, A, cell):
        """R(cell)∘η_A: A -> R B for a cell L A -> B."""
        return self.unit(A).then(self.right.mor(cell))

    def coadjunct(self, cell, B):
        """ε_B∘L(cell): L A -> B for a cell A -> R B."""
        return self.left.mor(cell).then(self.counit(B))

    def triangles_ok(self, dom_probes, cod_probes):
        """The coadjunct of η_A is id_{L A} for each A in `dom_probes`, and
        the adjunct of ε_B is id_{R B} for each B in `cod_probes`."""
        for A in dom_probes:
            LA = self.left.obj(A)
            if not self.coadjunct(self.unit(A), LA).is_identity():
                return False, "left triangle fails"
        for B in cod_probes:
            RB = self.right.obj(B)
            if not self.adjunct(RB, self.counit(B)).is_identity():
                return False, "right triangle fails"
        return True, None


class LanAdjunction(Adjunction):
    """(f_! ⊣ f*) from the colimit universal property: the unit is the
    cocone at (y, id), and a coadjunct is the map out of the colimit that
    its cocone legs fix (Mac Lane, Categories for the Working
    Mathematician, X.3).  Both read the fibers' positional lists
    (`_Fiber.unit` and `_Fiber.parts`) beside the component data of the
    sheaf, so neither looks a product object up."""

    def __init__(self, f):      # unit and counit are the methods below
        self.left, self.right = LanFunctor(f), PullbackFunctor(f)

    def unit(self, M):
        """η_M: M -> f*f_!M.  Its component at y, with x = f(y), is the
        cocone leg at (y, id_x): one nonzero block, leg_r · M(p⁻¹) (leg_r
        alone when p is an identity) in the row block of the component r
        of (y, id_x), where p: rep_r -> (y, id_x).  A zero block for the
        components before r and one for those after are stacked around it
        by `stack_rows`, not placed by `Matrix.block`: on kernel-coherence
        this is the only caller of `Matrix.vstack`, which
        perfbench/tracing.py expects to fire on every workload."""
        lan, fld = self.left, M.field
        data = lan._data(M)
        comp = dict.fromkeys(lan.f.dom.objects)
        for x, fiber in lan.fibers.items():
            comps = data[x]
            offsets = [0, *accumulate(c[0].ncols for c in comps)]
            total = offsets[-1]
            for y, r, p_inv in fiber.unit:
                leg = comps[r][2]
                if p_inv is not None:
                    leg = leg * M.mat[p_inv]
                d, above, below = leg.ncols, offsets[r], total - offsets[r + 1]
                comp[y] = stack_rows(fld, [
                    *([Matrix.zero(fld, above, d)] if above else []), leg,
                    *([Matrix.zero(fld, below, d)] if below else [])], d)
        return SheafMorphism(M, self.right.obj(lan.obj(M)), comp)

    def counit(self, N):
        """ε_N: f_!f*N -> N, the coadjunct of id_{f*N}."""
        return self.coadjunct(identity_morphism(self.right.obj(N)), N)

    def coadjunct(self, cell, B):
        """ε_B∘f_!(cell): f_!A -> B for a cell A -> f*B, read off the legs
        of the colimit.  Its component at x is the hstack, over the
        components c of the fiber over x (rep (y_c, m_c), invariant basis
        iota_c of A(y_c)), of B(m_c)·cell(y_c)·iota_c.  That is
        ε_B∘f_!(cell) exactly, whose block at c is
        B(m_c)·iota'_c·pi'_c·cell(y_c)·iota_c with (iota'_c, pi'_c) the
        data of f*B: cell(y_c)·iota_c lies in the Aut(rep_c)-invariants of
        B(f(y_c)) because the cell is natural, and on those invariants
        iota'_c·pi'_c is the identity.  So no push of f*B and no
        f_!(cell) is built, and an identity component of the cell (every
        one, for the counit) costs no product; nor does B(m_c) where
        `_Fiber.parts` marks m_c an identity."""
        lan, A = self.left, cell.src
        data = lan._data(A)

        def block(iota, part):
            _, y_c, m_c, m_is_identity, _, _ = part
            a = cell.comp[y_c]
            if not a.is_identity():
                iota = a * iota
            return iota if m_is_identity else B.mat[m_c] * iota
        comp = {x: stack_columns(B.field, [
            block(c[0], part) for c, part in zip(data[x], fiber.parts)],
            B.dim[x]) for x, fiber in lan.fibers.items()}
        return SheafMorphism(lan.obj(A), B, comp)


def adj_lan_pullback(f):
    """(f_! ⊣ f*) from the colimit universal property."""
    return LanAdjunction(f)


def adj_pullback_ran(f):
    """(f* ⊣ f_*) from the limit universal property."""
    ran = RanFunctor(f)
    pull = PullbackFunctor(f)

    def unit(M):
        pM = pull.obj(M)
        comp = {x: stack_rows(M.field, [
            M.right_times(leg, m_c)
            for (_, _, leg, (_, m_c)) in ran._data(pM)[x]],
            M.dim[x]) for x in f.cod.objects}
        return SheafMorphism(M, ran.obj(pM), comp)

    def counit(N):
        rN = ran.obj(N)
        comp = {}
        for y in f.dom.objects:
            x = f.ob[y]
            comp[y] = ran.section_value(N, x, (y, f.cod.identity[x]))
        return SheafMorphism(pull.obj(rN), N, comp)

    return Adjunction(pull, ran, unit, counit)


def adj_tensor_hom(W):
    """(W ⊗ - ⊣ iHom(W, -))."""
    ten = TensorLeftFunctor(W)
    hom = HomFromFunctor(W)
    return Adjunction(ten, hom,
                      lambda M: coevaluation_cell(W, M),
                      lambda N: evaluation_cell(W, N))


def compose_adjunctions(inner, outer):
    """(L_o∘L_i ⊣ R_i∘R_o)."""
    L = ComposedFunctor(inner.left, outer.left)
    R = ComposedFunctor(outer.right, inner.right)

    def unit(M):        # the inner adjunct of η_o at L_i M
        return inner.adjunct(M, outer.unit(inner.left.obj(M)))

    def counit(N):      # the outer coadjunct of ε_i at R_o N
        return outer.coadjunct(inner.counit(outer.right.obj(N)), N)

    return Adjunction(L, R, unit, counit)


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
    return adj_pullback_ran(f).adjunct(lan.obj(M), lan.trace_cell(M))


_NORM_SINGULAR = "norm map not invertible: gate violated?"


def norm_certificate(f, M):
    nm = norm_map(f, M)
    if not nm.is_invertible():
        raise TheoremViolation(_NORM_SINGULAR)
    return nm


def certified_inverse(cell, message):
    """The inverse of the sheaf morphism `cell`, by one elimination per
    component (none for a monomial one); a singular component raises
    TheoremViolation(message)."""
    try:
        return cell.inverse()
    except SingularMatrixError:
        raise TheoremViolation(message) from None


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
        nm = norm_map(f, pull.obj(M))
        return adj2.unit(M).then(certified_inverse(nm, _NORM_SINGULAR))

    def counit(N):   # f* f_! N -> N, the coadjunct of the norm
        return adj2.coadjunct(norm_certificate(f, N), N)

    return Adjunction(pull, lan, unit, counit)


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


def global_sections(X, M):
    """(dim Γ, Γ sheaf, dim Γ_c, Γ_c sheaf) via the map to the point."""
    p = X.to_point
    o, = p.cod.objects
    gam = RanFunctor(p).obj(M)
    gam_c = LanFunctor(p).obj(M)
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
    square (kappa: f∘g' -> g∘f'): the (f'_! ⊣ f'*)-coadjunct of

        g'* M --g'*(unit of f)--> g'* f* f_! M = (f g')* f_! M
              --kappa transport--> (g f')* f_! M = f'* g* f_! M.

    The coadjunct is pasted as ε∘f'_!(cell), written out, and not read
    off the cocone legs by `LanAdjunction.coadjunct` (they agree
    exactly): on six-ops-fresh this is the only caller of
    `LanFunctor.mor`, which perfbench/tracing.py expects to fire on
    every workload.
    """
    adj_f, adj_fp = adj_lan_pullback(square.f), adj_lan_pullback(square.fp)
    FM = adj_f.left.obj(M)
    cell = PullbackFunctor(square.gp).mor(adj_f.unit(M)).then(
        transport_cell(square.kappa, FM))
    return adj_fp.left.mor(cell).then(
        adj_fp.counit(PullbackFunctor(square.g).obj(FM)))


class CommutingSquare:
    """f: Y->X (exceptional side), g: X'->X, with f': W->X', g': W->Y and
    kappa: f∘g' -> g∘f' invertible."""

    def __init__(self, f, g, fp, gp, kappa):
        self.f, self.g, self.fp, self.gp, self.kappa = f, g, fp, gp, kappa

    @staticmethod
    def from_iso_comma(f, g):
        from .groupoid import iso_comma_pullback
        ic = iso_comma_pullback(f, g)
        return CommutingSquare(f, g, ic.p2, ic.p1, ic.phi), ic

    def mirrored(self):
        """The same square read with g exceptional: (f, g') and (g, f')
        swap roles and kappa is inverted."""
        return CommutingSquare(self.g, self.f, self.gp, self.fp,
                               self.kappa.inverse())


def verify_base_change(square, M):
    """Certificate for proper base change: the canonical comparison is
    invertible.  Returns (comparison g* f_! M -> f'_! g'* M, cell)."""
    cell = base_change_cell(square, M)
    return certified_inverse(
        cell, "base change comparison not invertible"), cell


def projection_formula_cell_left(f, W, V):
    """f_!(f*W ⊗ V) -> W ⊗ f_!V from units/counits (f*(A⊗B) = f*A⊗f*B holds
    on the nose for precomposition and Kronecker)."""
    return _projection_formula_cell(f, W, V, "left")


def projection_formula_cell_right(f, V, W):
    """f_!(V ⊗ f*W) -> f_!V ⊗ W."""
    return _projection_formula_cell(f, W, V, "right")


def _projection_formula_cell(f, W, V, side):
    """The projection formula cell with W on `side` of each tensor: the
    unit V -> f*f_!V tensored with id_{f*W}, pushed along f, then the
    counit at W ⊗ f_!V, whose pullback is f*W ⊗ f*f_!V on the nose."""
    adj = adj_lan_pullback(f)
    ident, eta = identity_morphism(adj.right.obj(W)), adj.unit(V)
    FV = adj.left.obj(V)
    if side == "left":
        inner, out = tensor_morphisms(ident, eta), tensor(W, FV)
    else:
        inner, out = tensor_morphisms(eta, ident), tensor(FV, W)
    return adj.coadjunct(inner, out)


def ran_projection_cell(f, A, B):
    """f_*(A) ⊗ B -> f_*(A ⊗ f*B), the (f* ⊣ f_*)-adjunct of
    f*(f_*A ⊗ B) = f*f_*A ⊗ f*B --counit⊗id--> A ⊗ f*B."""
    adj = adj_pullback_ran(f)
    inner = tensor_morphisms(adj.counit(A), identity_morphism(adj.left.obj(B)))
    return adj.adjunct(tensor(adj.right.obj(A), B), inner)


# _COMPOSITES[g][f] is compose_functors(g, f) for the composition
# comparisons, so that every comparison along one (g, f) finds the fibers
# and pushes of g∘f in `_FIBERS`.  A composite refers to neither g nor f,
# so the entry dies with either.
_COMPOSITES = weakref.WeakKeyDictionary()


def _composite(g, f):
    """compose_functors(g, f), built once per (g, f) while both live."""
    built = _COMPOSITES.get(g)
    if built is None:
        built = _COMPOSITES[g] = weakref.WeakKeyDictionary()
    gf = built.get(f)
    if gf is None:
        gf = built[f] = compose_functors(g, f)
    return gf


def compose_comparison_lan(g, f, M):
    """(g∘f)_! M -> g_! f_! M, canonical, as both are left adjoint to
    f*∘g* = (g∘f)*: the ((g∘f)_! ⊣ (g∘f)*)-coadjunct of the unit
    M -> f*g*g_!f_!M of the composite adjunction."""
    adj_comp = compose_adjunctions(adj_lan_pullback(f), adj_lan_pullback(g))
    return adj_lan_pullback(_composite(g, f)).coadjunct(
        adj_comp.unit(M), adj_comp.left.obj(M))


def compose_comparison_ran(g, f, M):
    """(g∘f)_* M -> g_* f_* M, canonical, as both are right adjoint to
    (g∘f)* = f*∘g*: the adjunct, under the composite adjunction, of the
    counit f*g*(g∘f)_*M -> M."""
    adj_gf = adj_pullback_ran(_composite(g, f))
    adj_comp = compose_adjunctions(adj_pullback_ran(g), adj_pullback_ran(f))
    return adj_comp.adjunct(adj_gf.right.obj(M), adj_gf.counit(M))


def lan_identity_comparison(C, M):
    """id_! M -> M, canonical (Lan along the identity and the identity
    functor are both left adjoint to id* = Id): the coadjunct of id_M, the
    counit id_!id*M = id_!M -> M."""
    return adj_lan_pullback(C.identity_functor).counit(M)


def ran_identity_comparison(C, M):
    """id_* M -> M, canonical (both right adjoint to id* = Id): the
    coadjunct of the identity of id_*M, the counit id*id_*M = id_*M -> M."""
    return adj_pullback_ran(C.identity_functor).counit(M)


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
    # f*(iHom(f_!N, M)) = iHom(f*f_!N, f*M) on the nose; precompose the unit
    pre = hom_left_map(adj1.unit(N), adj1.right.obj(M))
    return adj_pullback_ran(f).adjunct(internal_hom(adj1.left.obj(N), M), pre)


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
