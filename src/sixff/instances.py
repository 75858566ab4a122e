"""Random instances for `sixff run` and the tests.

A piece is (groupoid, group, element): a subgroup H of S3, as its
delooping or as its action groupoid on {0, 1, 2}, with the element of H
that each morphism carries.  A random groupoid is a `Union` of pieces.  A
random functor between unions sends each piece to a piece by a group
homomorphism and an object map equivariant along it, so it is a functor by
construction.  A random sheaf is a direct sum of the trivial, sign and
permutation representations of S3, restricted to each piece and conjugated
by a random invertible matrix at every object; a sum may be empty, so
zero-dimensional components occur.  A random span is one of finite sets.
"""

from functools import lru_cache
from itertools import product
from typing import NamedTuple

from . import presets
from .corr import Span
from .groupoid import Functor, action_groupoid, delooping, disjoint_union
from .kernels import Kernel
from .linalg import Matrix
from .sheaves import Sheaf

S3 = presets.group("S3")
C2 = S3.subgroup(S3.generated_subgroup([(1, 0, 2)]), name="C2")
C3 = S3.subgroup(S3.generated_subgroup([(1, 2, 0)]), name="C3")
# S3, C2, C3 and 1, as groups of permutations of {0, 1, 2}, with generators
_SUBGROUPS = ((S3, [(1, 0, 2), (1, 2, 0)]), (C2, [(1, 0, 2)]),
             (C3, [(1, 2, 0)]), (S3.subgroup([S3.identity], name="1"), []))
_GENERATORS = dict(_SUBGROUPS)


def sign(perm):
    """The sign, +1 or -1, of a permutation of {0, 1, 2}."""
    return (-1) ** sum(1 for i in range(3) for j in range(i + 1, 3)
                       if perm[i] > perm[j])


def permutation(perm):
    """The integer matrix of perm acting on k^3: e_j goes to e_perm(j)."""
    return [[1 if perm[j] == i else 0 for j in range(3)] for i in range(3)]


class Union(NamedTuple):
    """A disjoint union of pieces, and the pieces in component order."""
    grpd: object
    pieces: list


@lru_cache(maxsize=None)
def _delooping_piece(H):
    return delooping(H), H, lambda g: g


@lru_cache(maxsize=None)
def _action_piece(H):
    pts = (0, 1, 2)
    grpd, _ = action_groupoid(H, pts, {(g, x): g[x] for g in H.elements
                                       for x in pts})
    return grpd, H, lambda u: u[0]


def _piece(rng):
    """The action groupoid of a random subgroup of S3 on {0, 1, 2}, whose
    components have several objects when the group moves the points, or
    its delooping."""
    H = rng.choice(_SUBGROUPS)[0]
    return _delooping_piece(H) if rng.random() < 0.5 else _action_piece(H)


def _union(pieces):
    return Union(disjoint_union([p[0] for p in pieces]), pieces)


def union(rng, most=3):
    """A disjoint union of one to `most` random pieces."""
    return _union([_piece(rng) for _ in range(rng.randint(1, most))])


def rep(rng, field):
    """A random direct sum of the trivial, sign and permutation
    representations of S3 (restricted to any subgroup), possibly empty."""
    parts = [rng.choice((lambda g: [[1]], lambda g: [[sign(g)]],
                         permutation))
             for _ in range(rng.randint(0, 2))]
    return lambda g: Matrix.direct_sum(
        field, [Matrix.from_int_rows(field, part(g)) for part in parts])


def _gauge(rng, field, d):
    """A random invertible d x d matrix with entries in -2..2."""
    while True:
        g = Matrix.from_int_rows(field, [[rng.randint(-2, 2) for _ in range(d)]
                                         for _ in range(d)])
        if g.is_invertible():
            return g


def gauged_sheaf(rng, U, reps, field):
    """The sheaf on the union U that is the pullback of reps[i] on piece i,
    conjugated by a random invertible matrix at every object."""
    G = U.grpd
    dims = [r(U.pieces[i][1].identity).nrows for i, r in enumerate(reps)]
    gauges = {(i, x): _gauge(rng, field, dims[i]) for (i, x) in G.objects}
    inverses = {x: g.inverse() for x, g in gauges.items()}
    mats = {u: gauges[G.dst[u]] * reps[u[0]](U.pieces[u[0]][2](u[1]))
            * inverses[G.src[u]] for u in G.presentation.generators}
    return Sheaf(G, field, {x: g.nrows for x, g in gauges.items()}, mats,
                 check=True)


def sheaf(rng, U, field):
    """A gauged sheaf on U of a random representation on each piece."""
    return gauged_sheaf(rng, U, [rep(rng, field) for _ in U.pieces], field)


def nonzero_sheaf(rng, U, field):
    """A random `sheaf` on U, drawn again until it is not zero."""
    while True:
        M = sheaf(rng, U, field)
        if M.total_dim():
            return M


@lru_cache(maxsize=None)
def _piece_maps(P, Q):
    """Every (object map, morphism map) of a functor from piece P to piece
    Q that sends a morphism carrying h to one carrying phi(h), for a
    homomorphism phi and an object map equivariant along it."""
    (A, H, elem_a), (B, K, elem_b) = P, Q
    at = {(B.src[v], elem_b(v)): v for v in B.morphisms}
    out = []
    for phi in H.homomorphisms(_GENERATORS[H], K):
        for images in product(B.objects, repeat=len(A.objects)):
            ob = dict(zip(A.objects, images))
            mor = {u: at[(ob[A.src[u]], phi[elem_a(u)])] for u in A.morphisms}
            if all(B.dst[mor[u]] == ob[A.dst[u]] for u in A.morphisms):
                out.append((ob, mor))
    return out


def union_map(rng, dom, cod):
    """A random functor dom.grpd -> cod.grpd: each piece of dom goes to a
    random piece of cod by a random one of the maps `_piece_maps` lists."""
    ob, mor = {}, {}
    for i, P in enumerate(dom.pieces):
        j = rng.randrange(len(cod.pieces))
        o, m = rng.choice(_piece_maps(P, cod.pieces[j]))
        ob.update({(i, x): (j, y) for x, y in o.items()})
        mor.update({(i, u): (j, v) for u, v in m.items()})
    return Functor(dom.grpd, cod.grpd, ob, mor)


def delooping_map(rng):
    """A random functor from a union of one to three deloopings to a union
    of one or two, each piece sent by a random homomorphism."""
    def deloopings(most):
        return _union([_delooping_piece(rng.choice(_SUBGROUPS)[0])
                       for _ in range(rng.randint(1, most))])
    return union_map(rng, deloopings(3), deloopings(2))


def kernel_chain(ctx, names, rng, mindim=0):
    """Kernels names[1] => names[0], names[2] => names[1], ... whose
    payloads have identity transitions and a random fiber dimension in
    mindim..2 at each object."""
    out = []
    for a, b in zip(names[:-1], names[1:]):
        rp = ctx.prod((a, b))
        dims = {o: rng.randrange(mindim, 3) for o in rp.grpd.objects}
        mats = {m: Matrix.identity(ctx.field, dims[rp.grpd.src[m]])
                for m in rp.grpd.presentation.generators}
        out.append(Kernel(ctx, b, a, Sheaf(rp.grpd, ctx.field, dims, mats)))
    return out


def span(rng, cat, objs, source=None):
    """A random span of FinSet maps src <- apex -> tgt among the objects
    objs of cat, out of `source` if it is given."""
    src = source if source is not None else rng.choice(objs)
    apex, tgt = rng.choice(objs), rng.choice(objs)
    left = cat.mor(apex, src, tuple(rng.choice(src) for _ in apex))
    right = cat.mor(apex, tgt, tuple(rng.choice(tgt) for _ in apex))
    return Span(src, apex, tgt, left, right)
