"""The 2-category of kernels over a fixed base groupoid.

Objects are maps X -> S of finite groupoids; the category of 1-morphisms
Y -> X is the sheaf category on the iso-comma fiber product X x_S Y, and
composition is

    M ∘ N  =  pr13_!( pr12* M ⊗ pr23* N )

on the anchored triple product.  Coherence cells (unitors, associators,
swap compatibility) and all suave/prim/etale/proper certificates are
assembled from the explicit unit/counit witnesses of the six operations
plus transports along invertible natural transformations.  Every map
that passes to an adjoint is an adjunct, `Adjunction.adjunct`: the suave
and prim criterion maps m, tau and m', the mate behind the etale
comparison, the diagonal mate behind the proper comparison and the prim
twist, the suave twist, and the base-change mates g*f_* -> f'_*g'* and
f_!g'_* -> g_*f'_!.  Every
reassociation cell (unitors, associator, Psi composition, the suave and
prim associators) is the projection formula along a square's fp followed
by that square's base change, whiskered by the fixed factor: `_pf_bc`,
with the fixed factor's side of the tensor as its parameter.  Nothing is
searched: the only solve is for the uniquely determined adjunction unit,
exactly as the pointwise criterion prescribes, and a failed triangle
identity is diagnostic, not retried.

A `KernelContext` builds once, and holds, everything that depends on the
context alone and not on the kernels' payloads, so every associator,
unitor and certificate drawn in it reuses the same objects: the relative
products and their projections (whose Kan functors then share fibers and
pushes), the strict square of each set of four maps with its composites
and identity comparison, per (x, y, side) the unit sheaf's base-change
cell behind a unitor with its invertibility check and the unit sheaf on
prod(x, y), and the identity kernel of each name.  A build that raises
stores nothing, so a TheoremViolation fires on every call.  Everything is
keyed by object names, so a context refuses a name it already holds.
"""

from __future__ import annotations

from dataclasses import dataclass

from .fields import check_gate
from .groupoid import (
    Functor, NatTrans, RelProduct, compose_functors,
)
from .linalg import Matrix
from .sheaves import (
    CommutingSquare, LanFunctor, PullbackFunctor,
    RanFunctor, Sheaf, SheafMorphism, TensorLeftFunctor, TensorRightFunctor,
    TheoremViolation, adj_lan_pullback, adj_pullback_ran, adj_tensor_hom,
    base_change_cell, certified_inverse, compose_adjunctions,
    compose_comparison_lan, compose_comparison_ran, find_isomorphism,
    hom_space, identity_morphism, internal_hom, lan_identity_comparison,
    linear_combination, morphism_coordinates,
    projection_formula_cell_left, projection_formula_cell_right,
    ran_identity_comparison, ran_projection_cell, sheaves_equal, swap_cell,
    tensor, tensor_morphisms, transport_cell, unit_sheaf,
)


class KernelContext:
    """Registry of kernel objects over S.  It builds once, and holds,
    everything that depends on the context alone and not on a kernel's
    payload (see `once`)."""

    def __init__(self, S, field):
        check_gate(field, S)
        self.S, self.field = S, field
        self.objects = {}
        self._built = {}

    def add_object(self, name, X, a):
        if a.dom is not X or a.cod is not self.S:
            raise ValueError("structure map of %r must run X -> S" % name)
        if name in self.objects:
            # what was built under the name would outlive its object
            raise ValueError("object %r is already in the context" % name)
        check_gate(self.field, X)
        self.objects[name] = (X, a)
        return name

    def once(self, key, build):
        """build(), the first time `key` is asked for, and the same object
        ever after.  A build that raises stores nothing, so a
        TheoremViolation fires again on the next call."""
        if key not in self._built:
            self._built[key] = build()
        return self._built[key]

    def prod(self, names):
        key = tuple(names)
        return self.once(("prod", key), lambda: RelProduct(
            self.S, [self.objects[n] for n in key]))

    def proj(self, names, indices):
        """The reindexing prod(names) -> prod(names[i] for i in indices),
        built once, so the Kan functors along it share their fibers."""
        names, indices = tuple(names), tuple(indices)
        return self.once(("proj", names, indices), lambda: self.prod(
            names).proj_onto(indices, self.prod([names[i] for i in indices])))

    def legs(self, x, y, z):
        """(p12, p23, p13) out of prod(x, y, z)."""
        return tuple(self.proj((x, y, z), ix)
                     for ix in ((0, 1), (1, 2), (0, 2)))

    def square(self, f, g, fp, gp):
        """The strict square of four maps of this context, built once."""
        return self.once(("square", f, g, fp, gp),
                         lambda: _strict_square(f, g, fp, gp))


@dataclass
class Kernel:
    ctx: KernelContext
    src: str     # a 1-morphism src -> tgt
    tgt: str
    payload: Sheaf

    def __post_init__(self):
        expected = self.ctx.prod((self.tgt, self.src)).grpd
        if set(self.payload.dim) != set(expected.objects):
            raise TheoremViolation("payload base mismatch for kernel")


def kernel_identity(ctx, xname):
    """Identity 1-morphism: the diagonal pushforward of the unit, built
    once per name and shared."""
    def build():
        diag = ctx.prod((xname, xname)).diagonal
        payload = LanFunctor(diag).obj(unit_sheaf(diag.dom, ctx.field))
        return Kernel(ctx, xname, xname, payload)
    return ctx.once(("identity", xname), build)


def kernel_compose(M, N):
    """M ∘ N for M: Y => X and N: Z => Y."""
    ctx = M.ctx
    if M.src != N.tgt:
        raise ValueError("kernels not composable")
    p12, p23, p13 = ctx.legs(M.tgt, M.src, N.src)
    inner = tensor(PullbackFunctor(p12).obj(M.payload),
                   PullbackFunctor(p23).obj(N.payload))
    payload = LanFunctor(p13).obj(inner)
    return Kernel(ctx, N.src, M.tgt, payload)


def _sided(side, fixed, other):
    """(fixed, other) in tensor order, `fixed` on `side`; self-inverse."""
    return (fixed, other) if side == "left" else (other, fixed)


def whisker_left(M, beta, z):
    """M ∘ beta for a kernel M: Y => X and 2-cell beta between kernels
    Z => Y (beta given as a SheafMorphism on prod(Y, Z))."""
    return _whisker(M, beta, z, "left")


def whisker_right(beta, N, x):
    """beta ∘ N for a 2-cell beta between kernels Y => X (given as a
    SheafMorphism on prod(X, Y)) and a kernel N: Z => Y."""
    return _whisker(N, beta, x, "right")


def _whisker(K, beta, name, side):
    """pr13_!(id ⊗ beta), id that of K on `side`, over the triple product
    whose third name is `name` (Z for whisker_left, X for whisker_right)."""
    names = (K.tgt, K.src, name) if side == "left" else (name, K.tgt, K.src)
    p12, p23, p13 = K.ctx.legs(*names)
    leg, beta_leg = _sided(side, p12, p23)
    ident = identity_morphism(PullbackFunctor(leg).obj(K.payload))
    lifted = PullbackFunctor(beta_leg).mor(beta)
    return LanFunctor(p13).mor(tensor_morphisms(*_sided(side, ident, lifted)))


def kernel_swap(M):
    """Leg swap: a kernel Y => X becomes a kernel X => Y."""
    ctx = M.ctx
    sw = ctx.proj((M.src, M.tgt), (1, 0))    # prod(Y, X) -> prod(X, Y)
    return Kernel(ctx, M.tgt, M.src, PullbackFunctor(sw).obj(M.payload))


def _invert_certified(cell, what):
    return certified_inverse(cell, "%s cell not invertible" % what)


def _strict_square(f, g, fp, gp):
    """CommutingSquare with identity comparison (for squares commuting on
    the nose)."""
    lhs = compose_functors(f, gp)
    rhs = compose_functors(g, fp)
    if lhs.ob != rhs.ob or lhs.mor != rhs.mor:
        raise TheoremViolation("square not strict")
    C = f.cod
    kappa = NatTrans(lhs, rhs, {o: C.identity[lhs.ob[o]]
                                for o in gp.dom.objects})
    return CommutingSquare(f=f, g=g, fp=fp, gp=gp, kappa=kappa)


# ---------------------------------------------------------------------------
# Coherence cells
# ---------------------------------------------------------------------------

def _pf(f, W, V, side):
    """f_!(f*W ⊗ V) -> W ⊗ f_!V or its mirror, via the traced public names."""
    if side == "left":
        return projection_formula_cell_left(f, W, V)
    return projection_formula_cell_right(f, V, W)


def _pf_bc(fp, bc, gX, W, side):
    """For a square's base change bc: fp_! gp*X -> g* f_! X, with gX = gp*X
    and W on `side` (here "left"; "right" mirrors it), the cell
        fp_!(fp*W ⊗ gp*X) --pf--> W ⊗ fp_! gp*X --W ⊗ bc--> W ⊗ g* f_! X.
    Callers build gX and bc (MapCalculus by bc_p2p1/bc_p1p2) and may
    certify bc; _pf_bc adds no check."""
    pf = _pf(fp, W, gX, side)
    return pf.then(tensor_morphisms(*_sided(side, identity_morphism(W), bc)))


def _unitor(M, side):
    """M∘id_src -> M for side "left", id_tgt∘M -> M for "right": the side
    that M's factor takes in pr12*(-) ⊗ pr23*(-)."""
    ctx = M.ctx
    x, y = M.tgt, M.src
    rp2 = ctx.prod((x, y))
    k = 1 if side == "left" else 0      # the factor the identity doubles
    z = (x, y)[k]
    p12, p23, p13 = ctx.legs(*((x, y, y) if k else (x, x, y)))
    leg, g = _sided(side, p12, p23)      # M's leg, the identity's leg
    # (x, y, m) -> (x, y, y, m, m) or (x, x, y, id, m)
    j = ctx.proj((x, y), (0, 1, 1) if k else (0, 0, 1))

    def unit_base_change():
        """The certified base change of the unit along z's diagonal, and
        the unit on prod(x, y): neither depends on M."""
        diag = ctx.prod((z, z)).diagonal
        square = ctx.square(f=diag, g=g, fp=j, gp=rp2.factor_proj(k))
        bc = base_change_cell(square, unit_sheaf(diag.dom, ctx.field))
        if not bc.is_invertible():
            raise TheoremViolation("unitor base-change not invertible")
        return bc, unit_sheaf(rp2.grpd, ctx.field)

    bc, unit = ctx.once(("unitor", x, y, side), unit_base_change)
    pM = PullbackFunctor(leg).obj(M.payload)
    stage = _pf_bc(j, bc, unit, pM, side)
    into = LanFunctor(p13).mor(stage)
    cmp1 = compose_comparison_lan(p13, j, M.payload)
    idc = lan_identity_comparison(rp2.grpd, M.payload)
    what = "right unitor" if k else "left unitor"
    return _invert_certified(into, what) \
        .then(_invert_certified(cmp1, what + " comparison")) \
        .then(idc)


def right_unitor(M):
    """Canonical invertible 2-cell M ∘ id_src -> M."""
    return _unitor(M, "left")


def left_unitor(M):
    """Canonical invertible 2-cell id_tgt ∘ M -> M."""
    return _unitor(M, "right")


def _fourfold_cell(M, N, L, side):
    """can4 -> M∘(N∘L) for side "left", can4 -> (M∘N)∘L for "right",
    through the quadruple product; side is where the outer factor (M or L)
    sits in the tensor.  Returns (cell, inner) with
    cell: pr14_!(inner) -> the composite."""
    ctx = M.ctx
    names = (M.tgt, M.src, N.src, L.src)
    if side == "left":      # N∘L over (b, c, d), M over (a, b, d)
        A, B, W, pair_ix, fixed_ix = N, L, M, (1, 2, 3), (0, 1, 3)
    else:                   # M∘N over (a, b, c), L over (a, c, d)
        A, B, W, pair_ix, fixed_ix = M, N, L, (0, 1, 2), (0, 2, 3)
    q_pair = ctx.proj(names, pair_ix)
    q_fixed = ctx.proj(names, fixed_ix)
    s12, s23, s13 = ctx.legs(*(names[i] for i in pair_ix))
    r12, r23, r13 = ctx.legs(*(names[i] for i in fixed_ix))
    leg, g = _sided(side, r12, r23)      # W's leg, the pair's leg
    X = tensor(PullbackFunctor(s12).obj(A.payload),
               PullbackFunctor(s23).obj(B.payload))
    X4 = PullbackFunctor(q_pair).obj(X)
    pW = PullbackFunctor(leg).obj(W.payload)
    inner = tensor(*_sided(side, PullbackFunctor(q_fixed).obj(pW), X4))
    square = ctx.square(f=s13, g=g, fp=q_fixed, gp=q_pair)
    bc = base_change_cell(square, X)     # q_fixed_! X4 -> g*(A∘B)
    if not bc.is_invertible():
        raise TheoremViolation("associator base-change not invertible")
    # held so that its source q_fixed_!(inner) stays in the push memo for cmp1
    stage = _pf_bc(q_fixed, bc, X4, pW, side)
    into = LanFunctor(r13).mor(stage)
    cmp1 = compose_comparison_lan(r13, q_fixed, inner)
    return cmp1.then(into), inner


def associator(M, N, L):
    """Canonical invertible 2-cell (M∘N)∘L -> M∘(N∘L)."""
    cl, inner_l = _fourfold_cell(M, N, L, "right")     # -> (M∘N)∘L
    cr, inner_r = _fourfold_cell(M, N, L, "left")      # -> M∘(N∘L)
    if not sheaves_equal(inner_l, inner_r):
        raise TheoremViolation("quadruple product mismatch")
    return _invert_certified(cl, "associator").then(cr)


def swap_compatibility(M, N):
    """Canonical invertible 2-cell swap(M∘N) -> swap(N)∘swap(M)."""
    ctx = M.ctx
    x, y, z = M.tgt, M.src, N.src
    sigma = ctx.proj((z, y, x), (2, 1, 0))
    p12, p23, p13 = ctx.legs(x, y, z)
    q12, q23, q13 = ctx.legs(z, y, x)
    s_zx = ctx.proj((z, x), (1, 0))
    rho = tensor(PullbackFunctor(p12).obj(M.payload),
                 PullbackFunctor(p23).obj(N.payload))
    square = ctx.square(f=p13, g=s_zx, fp=q13, gp=sigma)
    bc = base_change_cell(square, rho)   # q13_! sigma* rho -> s_zx* p13_! rho
    left = _invert_certified(bc, "swap base change")
    swM, swN = kernel_swap(M), kernel_swap(N)
    A = PullbackFunctor(q23).obj(swM.payload)
    B = PullbackFunctor(q12).obj(swN.payload)
    # sigma* rho has the same data as A ⊗ B on the nose
    lan_q13 = LanFunctor(q13)
    recast_dst = lan_q13.obj(tensor(A, B))
    recast = SheafMorphism(left.src, recast_dst, left.comp)
    sw_tensor = swap_cell(A, B)
    return recast.then(lan_q13.mor(sw_tensor))


# ---------------------------------------------------------------------------
# Phi and Psi
# ---------------------------------------------------------------------------

def phi(ctx, src_name, tgt_name, Z, left_leg, right_leg):
    """Phi of a correspondence [src <- Z -> tgt] over S with strictly
    commuting legs: the kernel src => tgt carried by j_!(1) for the induced
    j: Z -> prod(tgt, src)."""
    Xs, a_s = ctx.objects[src_name]
    Xt, a_t = ctx.objects[tgt_name]
    S = ctx.S
    rp = ctx.prod((tgt_name, src_name))
    at_l = compose_functors(a_s, left_leg)
    at_r = compose_functors(a_t, right_leg)
    if at_l.ob != at_r.ob or at_l.mor != at_r.mor:
        raise ValueError("legs must commute with the structure maps on the "
                         "nose")
    ob = {}
    for zobj in Z.objects:
        anchor = S.identity[at_r.ob[zobj]]
        ob[zobj] = ((right_leg.ob[zobj], left_leg.ob[zobj]), (anchor,))
    mor = {m: (ob[Z.src[m]], (right_leg.mor[m], left_leg.mor[m]))
           for m in Z.morphisms}
    j = Functor(Z, rp.grpd, ob, mor, name="graph")
    payload = LanFunctor(j).obj(unit_sheaf(Z, ctx.field))
    return Kernel(ctx, src_name, tgt_name, payload), j


class PsiEvaluator:
    """Psi(M): the functor D(Y) -> D(X) computed by pr1_!(M ⊗ pr2^*(-))."""

    def __init__(self, M):
        self.M = M
        ctx = M.ctx
        rp = ctx.prod((M.tgt, M.src))
        self.p1 = rp.factor_proj(0)
        self.p2 = rp.factor_proj(1)
        self._tens = TensorLeftFunctor(M.payload)
        self._pull = PullbackFunctor(self.p2)
        self._lan = LanFunctor(self.p1)

    def obj(self, V):
        return self._lan.obj(self._tens.obj(self._pull.obj(V)))

    def mor(self, phi_cell):
        return self._lan.mor(self._tens.mor(self._pull.mor(phi_cell)))


def psi_composition_certificate(M, N, probes):
    """Canonical comparison Psi(M∘N)(V) ≅ Psi(M)(Psi(N)(V)) for each probe
    V, through the triple product; returns the list of cells."""
    ctx = M.ctx
    if M.src != N.tgt:
        raise ValueError("kernels not composable")
    x, y, z = M.tgt, M.src, N.src
    p12, p23, p13 = ctx.legs(x, y, z)
    pXZ_1 = ctx.prod((x, z)).factor_proj(0)
    pXZ_2 = ctx.prod((x, z)).factor_proj(1)
    pXY_1 = ctx.prod((x, y)).factor_proj(0)
    pXY_2 = ctx.prod((x, y)).factor_proj(1)
    pYZ_1 = ctx.prod((y, z)).factor_proj(0)
    pYZ_2 = ctx.prod((y, z)).factor_proj(1)
    p3_3 = ctx.prod((x, y, z)).factor_proj(2)
    inner = tensor(PullbackFunctor(p12).obj(M.payload),
                   PullbackFunctor(p23).obj(N.payload))
    cells = []
    for V in probes:
        # left route: Psi(M∘N)(V) <- pr1_!( inner ⊗ pr3*V ) canonical
        pV3 = PullbackFunctor(p3_3).obj(V)
        big = tensor(inner, pV3)
        # (A) pf for p13: p13_!(inner ⊗ p13* pXZ_2* V) -> p13_! inner ⊗ pXZ_2*V
        pf_a = projection_formula_cell_right(
            p13, inner, PullbackFunctor(pXZ_2).obj(V))
        lanXZ = LanFunctor(pXZ_1)
        cell_a = lanXZ.mor(pf_a)
        cmp_a = compose_comparison_lan(pXZ_1, p13, big)
        left_route = cmp_a.then(cell_a)     # pr1^3_!(big) -> Psi(M∘N)(V)
        # (B) bc for the middle square + pf for p12
        NV = tensor(N.payload, PullbackFunctor(pYZ_2).obj(V))
        square = ctx.square(f=pYZ_1, g=pXY_2, fp=p12, gp=p23)
        bc = base_change_cell(square, NV)   # p12_! p23* NV -> pXY_2* Psi(N)V
        if not bc.is_invertible():
            raise TheoremViolation("psi coherence base change not invertible")
        stage = _pf_bc(p12, bc, PullbackFunctor(p23).obj(NV), M.payload,
                       "left")
        cell_b = LanFunctor(pXY_1).mor(stage)
        cmp_b = compose_comparison_lan(pXY_1, p12, big)
        right_route = cmp_b.then(cell_b)    # pr1^3_!(big) -> Psi(M)(Psi(N)V)
        if not sheaves_equal(right_route.src, left_route.src):
            raise TheoremViolation("psi coherence sources disagree")
        cell = _invert_certified(left_route, "psi coherence").then(right_route)
        if not cell.is_invertible():
            raise TheoremViolation("psi composition comparison not invertible")
        cells.append(cell)
    return cells


def psi_phi_certificate(ctx, src_name, tgt_name, Z, left_leg, right_leg,
                        probes):
    """Canonical comparison Psi(Phi(span))(V) ≅ r_! l* V on probes, its
    target checked equal to Psi(Phi)(V) as `PsiEvaluator` computes it."""
    K, j = phi(ctx, src_name, tgt_name, Z, left_leg, right_leg)
    rp = ctx.prod((tgt_name, src_name))
    p1, p2 = rp.factor_proj(0), rp.factor_proj(1)
    lan_r = LanFunctor(right_leg)
    pull_l = PullbackFunctor(left_leg)
    ev = PsiEvaluator(K)
    cells = []
    for V in probes:
        lV = pull_l.obj(V)
        pf = projection_formula_cell_right(
            j, unit_sheaf(Z, ctx.field), PullbackFunctor(p2).obj(V))
        cell_into = LanFunctor(p1).mor(pf)   # p1_! j_!(l*V) -> Psi(Phi)(V)
        cmp1 = compose_comparison_lan(p1, j, lV)   # r_!(l*V) -> p1_! j_!(l*V)
        direct = lan_r.obj(lV)
        route = cmp1.then(cell_into)
        if not sheaves_equal(route.src, direct):
            raise TheoremViolation("psi-phi comparison source mismatch")
        if not sheaves_equal(route.dst, ev.obj(V)):
            raise TheoremViolation("psi-phi comparison target is not "
                                   "Psi(Phi)(V)")
        if not route.is_invertible():
            raise TheoremViolation("psi-phi comparison not invertible")
        cells.append(route)
    return K, cells


# ---------------------------------------------------------------------------
# Reduced relative calculus for a single map f: X -> S
# ---------------------------------------------------------------------------

class MapCalculus:
    """Hom categories Fun(X,S), Fun(S,X), Fun(S,S), Fun(X,X) presented as
    D(X), D(X), D(S), D(X x_S X), with the five mixed composition rules and
    their coherence cells."""

    def __init__(self, f, field):
        check_gate(field, f.dom)
        check_gate(field, f.cod)
        self.f, self.field = f, field
        X, S = f.dom, f.cod
        self.X, self.S = X, S
        # the self square both ways: kappa: f∘pi1 -> f∘pi2 by the anchors
        self.sq_p2p1, self.rp = CommutingSquare.from_iso_comma(f, f)
        self.sq_p1p2 = self.sq_p2p1.mirrored()
        self.PXX = self.rp.grpd
        self.pi1, self.pi2 = self.rp.p1, self.rp.p2
        self.diag = self.rp.diagonal
        self.unit_X = unit_sheaf(X, field)
        self.unit_S = unit_sheaf(S, field)
        self.id_XX = LanFunctor(self.diag).obj(self.unit_X)
        self.adj_f = adj_lan_pullback(f)
        self.adj_f_ran = adj_pullback_ran(f)
        self.adj_p1 = adj_lan_pullback(self.pi1)
        self.adj_p2 = adj_lan_pullback(self.pi2)
        self.adj_p2_ran = adj_pullback_ran(self.pi2)
        self.pull_f = PullbackFunctor(f)
        self.pull_p1 = PullbackFunctor(self.pi1)
        self.pull_p2 = PullbackFunctor(self.pi2)

    # base-change cells on the self square
    def bc_p2p1(self, V):
        """pi2_! pi1* V -> f* f_! V."""
        return base_change_cell(self.sq_p2p1, V)

    def bc_p1p2(self, V):
        """pi1_! pi2* V -> f* f_! V."""
        return base_change_cell(self.sq_p1p2, V)

    # mixed compositions
    def comp_XX(self, Q, P):
        """Q∘P: X -> X for Q: S -> X and P: X -> S (both sheaves on X)."""
        return tensor(self.pull_p1.obj(Q), self.pull_p2.obj(P))

    def comp_SS(self, P, Q):
        """P∘Q: S -> S = f_!(P ⊗ Q)."""
        return LanFunctor(self.f).obj(tensor(P, Q))

    def right_unitor_reduced(self, P):
        """P∘id_X -> P in D(X)."""
        return self._unitor_reduced(P, "left")

    def left_unitor_reduced(self, Q):
        """id_X∘Q -> Q in D(X)."""
        return self._unitor_reduced(Q, "right")

    def _unitor_reduced(self, P, side):
        """P∘id_X -> P for side "left", id_X∘P -> P for "right": the
        diagonal's projection formula, pushed along the other projection."""
        pull, push = ((self.pull_p1, self.pi2) if side == "left"
                      else (self.pull_p2, self.pi1))
        c1 = _pf(self.diag, pull.obj(P), self.unit_X, side)
        c2 = compose_comparison_lan(push, self.diag, P)
        c3 = lan_identity_comparison(self.X, P)
        step = _invert_certified(LanFunctor(push).mor(c1), "red. unitor")
        return step.then(_invert_certified(c2, "red. unitor cmp")).then(c3)


@dataclass
class SuavePrimCertificate:
    kind: str
    ok: bool
    dual: Sheaf = None
    unit: SheafMorphism = None
    counit: SheafMorphism = None
    triangle1: bool = False
    triangle2: bool = False
    failing: str = ""
    double_dual_ok: bool = None
    # prim only: the mate transport T ↦ mate(T), End(P) -> End(r), of the
    # certified adjunction (see `_prim_mate`); triangle 2 is
    # mate(id_P) = id_r, and `hecke.prim_duality_on_hecke` conjugates it
    # to the anti-involution.  None when no unit exists (and for suave).
    mate: object = None


def _solve_unit(id_obj, target_obj, m_cell, tau):
    """The unique eta: id -> target with m∘eta = tau, or None."""
    basis1 = hom_space(id_obj, target_obj)
    basis2 = hom_space(tau.src, tau.dst)
    f = id_obj.field
    if not basis1:
        # the zero morphism is the only candidate
        if all(c.is_zero() for c in tau.comp.values()):
            comp = {x: Matrix.zero(f, target_obj.dim[x], id_obj.dim[x])
                    for x in id_obj.dim}
            return SheafMorphism(id_obj, target_obj, comp)
        return None
    cols = [morphism_coordinates(basis2, b.then(m_cell)) for b in basis1]
    mat = Matrix(f, zip(*cols), ncols=len(basis1))
    rhs = Matrix.column(f, morphism_coordinates(basis2, tau))
    sol = mat.solve(rhs)
    if sol is None or mat.nullspace():
        return None
    return linear_combination(id_obj, target_obj, basis1,
                              sol.column_entries())


def suave_test(f, P):
    """Suaveness of P along f: X -> S, with the closed-form candidate dual
    iHom(P, f^!1); builds the canonical unit/counit and checks both
    triangle identities exactly."""
    calc = MapCalculus(f, P.field)
    from .sheaves import upper_shriek
    omega = upper_shriek(f, calc.unit_S).sheaf          # f^! 1 = f* 1
    Q = internal_hom(P, omega)
    # composite adjunctions (pointwise criterion data)
    adjS = compose_adjunctions(adj_tensor_hom(P), calc.adj_f)
    adjX = compose_adjunctions(adj_tensor_hom(calc.pull_p1.obj(P)),
                               calc.adj_p2)
    g = adjS.right.obj(calc.unit_S)                     # iHom(P, f*1)
    if not sheaves_equal(g, Q):
        raise TheoremViolation("closed-form dual disagrees with adjoint")
    eps = adjS.counit(calc.unit_S)                      # f_!(P⊗Q) -> 1_S
    gP = calc.comp_XX(Q, P)
    # e1: P∘(Q∘P) -> P
    PQ = tensor(P, Q)
    e1 = _pf_bc(calc.pi2, calc.bc_p2p1(PQ), calc.pull_p1.obj(PQ), P, "right")
    e1 = e1.then(tensor_morphisms(calc.pull_f.mor(eps), identity_morphism(P)))
    # the natural map m: Q∘P -> G_X(P) and tau: id_X -> G_X(P) are the
    # adjuncts of e1 and of the right unitor
    rho = calc.right_unitor_reduced(P)
    m, tau = adjX.adjunct(gP, e1), adjX.adjunct(calc.id_XX, rho)
    eta = _solve_unit(calc.id_XX, gP, m, tau)
    if eta is None:
        return SuavePrimCertificate("suave", False,
                                    failing="criterion: no unique unit")
    # triangle 1: P -> P∘id -> P∘(Q∘P) -> P equals id
    t1 = rho.inverse().then(adjX.left.mor(eta)).then(e1)
    tri1 = t1.is_identity()
    # triangle 2: Q -> id∘Q -> (Q∘P)∘Q -> Q∘(P∘Q) -> Q equals id
    lam = calc.left_unitor_reduced(Q)
    whisk = TensorRightFunctor(calc.pull_p2.obj(Q)).then(LanFunctor(calc.pi1))
    etaQ = whisk.mor(eta)
    # associator (Q∘P)∘Q -> Q∘(P∘Q)
    a2 = _pf_bc(calc.pi1, calc.bc_p1p2(PQ), calc.pull_p2.obj(PQ), Q, "left")
    qeps = tensor_morphisms(identity_morphism(Q), calc.pull_f.mor(eps))
    t2 = lam.inverse().then(etaQ).then(a2).then(qeps)
    tri2 = t2.is_identity()
    ok = tri1 and tri2
    eps_out = SheafMorphism(calc.comp_SS(P, Q), calc.unit_S, eps.comp)
    return SuavePrimCertificate("suave", ok, dual=Q, unit=eta,
                                counit=eps_out, triangle1=tri1,
                                triangle2=tri2,
                                failing="" if ok else "triangle identity")


def _prim_mate(calc, P, r, eta, eps):
    """T ↦ mate(T): r -> r for an endomorphism T of P, the chain
    r = id_S∘r -> (r∘P̌)∘r -> r∘(P̌∘r) -> r∘id_X -> r with T whiskered
    into the counit: pi2_!(id_{pi1*r} ⊗ eps∘(pi1*T ⊗ id)).  Everything but
    the component matrices of that whiskered counit is built once."""
    etaR = calc.pull_f.then(TensorRightFunctor(r)).mor(eta)
    rp_t = tensor(r, P)
    a4_fwd = _pf_bc(calc.pi2, calc.bc_p2p1(rp_t), calc.pull_p1.obj(rp_t), r,
                    "right")
    a4 = _invert_certified(a4_fwd, "prim associator 2")
    head = SheafMorphism(r, etaR.dst, etaR.comp).then(
        SheafMorphism(etaR.dst, a4_fwd.src, a4.comp))
    rho = calc.right_unitor_reduced(r).comp
    mid = a4_fwd.src
    # Only the components depend on T, so the whiskered counit always runs
    # from A = pi1*r ⊗ (pi1*P ⊗ pi2*r) to B = pi1*r ⊗ id_XX.  The mate
    # keeps what it reads, not calc, and one pi2_! whose memo holds just A
    # and B with their images, however often mate is called.
    p1r, p2r = calc.pull_p1.obj(r), calc.pull_p2.obj(r)
    A, B = tensor(p1r, eps.src), tensor(p1r, eps.dst)
    lan = LanFunctor(calc.pi2)
    fld, p1 = r.field, calc.pi1.ob
    legs = {x: (Matrix.identity(fld, p1r.dim[x]), eps.comp[x], p1[x],
                Matrix.identity(fld, p2r.dim[x])) for x in A.dim}

    def mate(T):
        comp = {x: i1.kron(e * T.comp[y].kron(i2))
                for x, (i1, e, y, i2) in legs.items()}
        whisk = lan.mor(SheafMorphism(A, B, comp))
        return head.then(SheafMorphism(mid, whisk.dst, whisk.comp)).then(
            SheafMorphism(whisk.dst, r, rho))

    return mate


def prim_test(f, P, check_double_dual=True):
    """Primness of P along f: X -> S: P viewed as a morphism S -> X must be
    a left adjoint, with the closed-form right adjoint
    r = pi2_* iHom(pi1* P, Delta_! 1); both triangle identities are checked
    exactly, and the duality is certified self-inverse."""
    calc = MapCalculus(f, P.field)
    p1P = calc.pull_p1.obj(P)
    adjS = compose_adjunctions(calc.adj_f_ran, adj_tensor_hom(P))
    adjX = compose_adjunctions(calc.adj_p2_ran, adj_tensor_hom(p1P))
    r = adjX.right.obj(calc.id_XX)      # pi2_* iHom(pi1*P, Delta_!1)
    eps = adjX.counit(calc.id_XX)       # pi1*P ⊗ pi2*r -> id_XX
    rP = calc.comp_SS(r, P)             # r∘P̌ = f_!(r ⊗ P)
    rp_t = tensor(r, P)
    # a3: (P̌∘r)∘P̌ -> P̌∘(r∘P̌), strictly reassociated then pf + bc
    a3 = _pf_bc(calc.pi1, calc.bc_p1p2(rp_t), calc.pull_p2.obj(rp_t), P,
                "left")
    a3_inv = _invert_certified(a3, "prim associator")
    epsP = TensorRightFunctor(calc.pull_p2.obj(P)).then(
        LanFunctor(calc.pi1)).mor(eps)
    e2 = a3_inv.then(epsP).then(calc.left_unitor_reduced(P))  # P̌∘(r∘P̌) -> P̌
    # the natural map m': r∘P̌ -> G_S(P̌), the adjunct of e2
    mprime = adjS.adjunct(rP, e2)
    # tau: id_S -> G_S(P̌), the adjunct of the identity of P̌∘id_S = P̌
    # (the same data on the nose, so no unitor), which is the unit
    tau = adjS.unit(calc.unit_S)
    eta = _solve_unit(calc.unit_S, rP, mprime, tau)
    if eta is None:
        return SuavePrimCertificate("prim", False,
                                    failing="criterion: no unique unit")
    # triangle 1: P̌ = P̌∘id_S -> P̌∘(r∘P̌) -> P̌ equals id
    PofEta = adjS.left.mor(eta)                         # P̌∘eta
    t1 = SheafMorphism(P, PofEta.dst, PofEta.comp).then(e2)
    tri1 = t1.is_identity()
    # triangle 2: the mate of id_P is the identity of r
    mate = _prim_mate(calc, P, r, eta, eps)
    tri2 = mate(identity_morphism(P)).is_identity()
    ok = tri1 and tri2
    dd_ok = None
    if ok and check_double_dual:
        adjX2 = compose_adjunctions(calc.adj_p2_ran,
                                    adj_tensor_hom(calc.pull_p1.obj(r)))
        r2 = adjX2.right.obj(calc.id_XX)
        iso = find_isomorphism(r2, P)
        dd_ok = iso is not None
    return SuavePrimCertificate("prim", ok, dual=r, unit=eta, counit=eps,
                                triangle1=tri1, triangle2=tri2,
                                double_dual_ok=dd_ok, mate=mate,
                                failing="" if ok else "triangle identity")


# ---------------------------------------------------------------------------
# Etale / proper certificates with dualizing and codualizing twists
# ---------------------------------------------------------------------------

@dataclass
class EtaleProperCertificate:
    etale_ok: bool
    proper_ok: bool
    omega: Sheaf
    delta: Sheaf
    etale_cells: list
    proper_cells: list
    suave_twist_ok: bool
    prim_twist_ok: bool


def _etale_comparison(calc, V):
    """The canonical map f^!V -> f*V: restrict along the diagonal the right
    mate of the base-change comparison pi1_! pi2* -> f* f_!."""
    fshV = calc.pull_f.obj(V)      # f^! V = f* V as data
    # the mate pi2* f^!V -> pi1* f*V, the (pi1_! ⊣ pi1*)-adjunct of
    # pi1_! pi2* f^!V --bc--> f* f_! f^!V --f* counit--> f*V
    tau = calc.bc_p1p2(fshV).then(calc.pull_f.mor(calc.adj_f.counit(V)))
    mate = calc.adj_p1.adjunct(calc.pull_p2.obj(fshV), tau)
    cell = PullbackFunctor(calc.diag).mor(mate)
    return SheafMorphism(fshV, calc.pull_f.obj(V), cell.comp)


def _diagonal_mate_route(calc, head, V):
    """f_!(head), for a cell `head` ending at pi2_* Delta_! V, followed by
    f_! pi2_* Delta_! V -> f_* pi1_! Delta_! V -> f_* V: the right mate of
    f* f_! -> pi1_! pi2* at W = Delta_! V, then pi1_! Delta_! = id."""
    lan_f, ran_f = LanFunctor(calc.f), RanFunctor(calc.f)
    W = LanFunctor(calc.diag).obj(V)
    p2sW = RanFunctor(calc.pi2).obj(W)
    # the mate f_! pi2_* W -> f_* pi1_! W, the (f* ⊣ f_*)-adjunct of
    # f* f_! pi2_* W --bc^-1--> pi1_! pi2* pi2_* W --pi1_! counit--> pi1_! W
    tau = _invert_certified(calc.bc_p1p2(p2sW), "diagonal mate bc")
    inner = tau.then(LanFunctor(calc.pi1).mor(
        adj_pullback_ran(calc.pi2).counit(W)))
    mate = calc.adj_f_ran.adjunct(lan_f.obj(p2sW), inner)
    # f_* pi1_! Delta_! V -> f_* V
    c1 = compose_comparison_lan(calc.pi1, calc.diag, V)
    c2 = lan_identity_comparison(calc.X, V)
    tail = ran_f.mor(_invert_certified(c1, "diagonal mate tail").then(c2))
    return lan_f.mor(head).then(mate).then(tail)


def _proper_comparison(calc, V):
    """The canonical map f_!V -> f_*V through pi2_* Delta_* = id, the norm
    of the diagonal, and the right mate of f* f_! -> pi1_! pi2*."""
    from .sheaves import norm_certificate
    # V -> pi2_* Delta_* V
    r0 = ran_identity_comparison(calc.X, V)
    r1 = compose_comparison_ran(calc.pi2, calc.diag, V)
    head = _invert_certified(r0, "proper head").then(r1)
    # pi2_* Delta_* V -> pi2_* Delta_! V along the inverse diagonal norm
    nm = norm_certificate(calc.diag, V)
    mid = RanFunctor(calc.pi2).mor(nm.inverse())
    return _diagonal_mate_route(calc, head.then(mid), V)


def suave_twist_cell(calc, omega, eps_suave, V):
    """omega ⊗ f*V -> f^!V: the (f_! ⊣ f^!)-adjunct of
    f_!(omega ⊗ f*V) --pf--> f_!omega ⊗ V --eps⊗id--> V."""
    pf = projection_formula_cell_right(calc.f, omega, V)
    chi = pf.then(tensor_morphisms(eps_suave, identity_morphism(V)))
    return calc.adj_f.adjunct(tensor(omega, calc.pull_f.obj(V)), chi)


def prim_twist_cell(calc, delta, V):
    """f_!(delta ⊗ V) -> f_*V via the section calculus of the diagonal."""
    # delta ⊗ V -> pi2_*(Delta_!1 ⊗ pi2*V) -> pi2_* Delta_! V
    rpf = ran_projection_cell(calc.pi2, calc.id_XX, V)
    pf = projection_formula_cell_right(calc.diag, calc.unit_X,
                                       calc.pull_p2.obj(V))
    # pf: Delta_!(V) -> Delta_!1 ⊗ pi2*V; invert and push through pi2_*
    inner = RanFunctor(calc.pi2).mor(_invert_certified(pf, "prim twist pf"))
    total = _diagonal_mate_route(calc, rpf.then(inner), V)
    return SheafMorphism(LanFunctor(calc.f).obj(tensor(delta, V)),
                         total.dst, total.comp)


def etale_proper_test(f, field, probes=()):
    """Certificates that f is both etale and proper at this scale: the
    canonical comparisons f^! -> f* and f_! -> f_* are invertible on the
    unit and on every probe, and the twist identities hold."""
    calc = MapCalculus(f, field)
    probes_S = [calc.unit_S] + list(probes)
    etale_cells, proper_cells = [], []
    for V in probes_S:
        c = _etale_comparison(calc, V)
        etale_cells.append(c)
    etale_ok = all(c.is_invertible() for c in etale_cells)
    probes_X = [calc.unit_X] + [calc.pull_f.obj(V) for V in probes]
    for V in probes_X:
        c = _proper_comparison(calc, V)
        proper_cells.append(c)
    proper_ok = all(c.is_invertible() for c in proper_cells)
    from .sheaves import upper_shriek
    omega = upper_shriek(f, calc.unit_S).sheaf
    sv = suave_test(f, calc.unit_X)
    if not sv.ok:
        raise TheoremViolation("unit not suave under the gate")
    delta_adj = compose_adjunctions(calc.adj_p2_ran,
                                    adj_tensor_hom(calc.pull_p1.obj(
                                        calc.unit_X)))
    delta = delta_adj.right.obj(calc.id_XX)   # pi2_* iHom(pi1*1, Delta_!1)
    suave_tw_ok = True
    prim_tw_ok = True
    for V in probes_S:
        tw = suave_twist_cell(calc, sv.dual, sv.counit, V)
        if not tw.is_invertible():
            suave_tw_ok = False
        tw2 = prim_twist_cell(calc, delta, calc.pull_f.obj(V))
        if not tw2.is_invertible():
            prim_tw_ok = False
    return EtaleProperCertificate(etale_ok, proper_ok, omega, delta,
                                  etale_cells, proper_cells,
                                  suave_tw_ok, prim_tw_ok)


# ---------------------------------------------------------------------------
# The eight suave/prim base-change comparisons
# ---------------------------------------------------------------------------

def _pull_ran_cells(sq, probes):
    """g* f_* V -> f'_* g'* V on each probe V: the (f'* ⊣ f'_*)-adjunct of
    f'* g* f_* V --kappa^-1--> g'* f* f_* V --g'* counit--> g'* V."""
    adj_f, adj_fp = adj_pullback_ran(sq.f), adj_pullback_ran(sq.fp)
    pull_g, pull_gp = PullbackFunctor(sq.g), PullbackFunctor(sq.gp)
    cells = []
    for V in probes:
        fV = adj_f.right.obj(V)
        s2 = transport_cell(sq.kappa.inverse(), fV).then(
            pull_gp.mor(adj_f.counit(V)))
        cells.append(adj_fp.adjunct(pull_g.obj(fV), s2))
    return cells


def _lan_ran_mate_cells(sq, probes):
    """f_! g'_* V -> g_* f'_! V on each probe V: the (g* ⊣ g_*)-adjunct of
    g* f_! g'_* V --bc^-1--> f'_! g'* g'_* V --f'_! counit--> f'_! V."""
    adj_g, adj_gp = adj_pullback_ran(sq.g), adj_pullback_ran(sq.gp)
    lan_f, lan_fp = LanFunctor(sq.f), LanFunctor(sq.fp)
    cells = []
    for V in probes:
        gpV = adj_gp.right.obj(V)
        chi = _invert_certified(base_change_cell(sq, gpV), "mate base change")
        s2 = chi.then(lan_fp.mor(adj_gp.counit(V)))
        cells.append(adj_g.adjunct(lan_f.obj(gpV), s2))
    return cells


def base_change_suave_prim(f, g, probes_Y=(), probes_Xp=(), probes_W=(),
                           probes_X=()):
    """For the iso-comma square of f: Y -> X and g: X' -> X (with
    projections g': W -> Y and f': W -> X'), construct the eight canonical
    comparison 2-cells and certify each invertible on the given probes.

    Returns a dict name -> list of certified cells.
    """
    if not any((probes_Y, probes_Xp, probes_W, probes_X)):
        raise ValueError("need at least one probe")
    sq_f, ic = CommutingSquare.from_iso_comma(f, g)
    sq_g = sq_f.mirrored()
    kappa = ic.phi
    out = {}

    def certify(name, cells):
        for c in cells:
            if not c.is_invertible():
                raise TheoremViolation("comparison %s not invertible" % name)
        out[name] = cells

    certify("g*f_* -> f'_*g'*", _pull_ran_cells(sq_f, probes_Y))
    # with ^! = *: the primitive cell, and two pure transports
    certify("f'_!g'^! -> g^!f_!",
            [base_change_cell(sq_f, V) for V in probes_Y])
    certify("f'*g^! -> g'^!f*", [transport_cell(kappa.inverse(), V)
                                 for V in probes_X])
    certify("g'*f^! -> f'^!g*", [transport_cell(kappa, V) for V in probes_X])
    certify("f*g_* -> g'_*f'*", _pull_ran_cells(sq_g, probes_Xp))
    certify("g'_!f'^! -> f^!g_!",
            [base_change_cell(sq_g, V) for V in probes_Xp])
    certify("g_!f'_* -> f_*g'_!", _lan_ran_mate_cells(sq_g, probes_W))
    certify("f_!g'_* -> g_*f'_!", _lan_ran_mate_cells(sq_f, probes_W))
    return out, ic
