import gc
import random
import weakref

import pytest

from sixff import kernels, presets, sheaves
from sixff.fields import GF, QQ, TheoremViolation
from sixff.groupoid import (
    Functor, delooping, delooping_hom, disjoint_union, identity_functor,
    terminal_groupoid, to_terminal,
)
from sixff.kernels import (
    Kernel, KernelContext, MapCalculus, associator, base_change_suave_prim,
    etale_proper_test, kernel_compose, kernel_identity,
    kernel_swap, left_unitor, phi, prim_test, PsiEvaluator,
    psi_composition_certificate, psi_phi_certificate, right_unitor,
    suave_test, swap_compatibility, whisker_left, whisker_right,
)
from sixff.hecke import compact_induction
from sixff.instances import C2, S3, kernel_chain, permutation, sign
from sixff.linalg import Matrix
from sixff.sheaves import (
    LanFunctor, PullbackFunctor, Sheaf, SheafMorphism, TensorLeftFunctor,
    TensorRightFunctor, hom_dim, hom_space, identity_morphism,
    linear_combination, projection_formula_cell_right, sheaves_equal, tensor,
    tensor_morphisms, unit_sheaf,
)

PT = terminal_groupoid()
BS3 = delooping(S3)
BC2 = delooping(C2)
INCL = delooping_hom({g: g for g in C2.elements}, BC2, BS3)


SIGN = sheaves.sheaf_from_rep(BC2, QQ, {
    g: Matrix.from_int_rows(QQ, [[sign(g)]]) for g in C2.elements})


def external_kernel(ctx, tgt, src, left, right):
    """The kernel src => tgt with payload pr1*left ⊗ pr2*right."""
    rp = ctx.prod((tgt, src))
    payload = tensor(PullbackFunctor(rp.factor_proj(0)).obj(left),
                     PullbackFunctor(rp.factor_proj(1)).obj(right))
    return Kernel(ctx, src, tgt, payload)


def point_ctx():
    ctx = KernelContext(PT, QQ)
    return ctx


def discrete(n):
    return disjoint_union([PT] * n)


def sheaf_on(grpd, dims):
    """The sheaf with identity transitions on a discrete groupoid whose
    i-th object has dimension dims[i % len(dims)]."""
    dim = {x: dims[i % len(dims)] for i, x in enumerate(grpd.objects)}
    return Sheaf(grpd, QQ, dim, {m: Matrix.identity(QQ, dim[grpd.src[m]])
                                 for m in grpd.morphisms})


def test_kernel_identity_point():
    ctx = point_ctx()
    ctx.add_object("pt", PT, identity_functor(PT))
    k = kernel_identity(ctx, "pt")
    assert k.payload.total_dim() == 1


def test_kernel_identity_group():
    ctx = point_ctx()
    ctx.add_object("BS3", BS3, to_terminal(BS3, PT))
    k = kernel_identity(ctx, "BS3")
    # regular bimodule: total dimension |G|
    assert k.payload.total_dim() == 6


def test_kernel_identity_three_points():
    ctx = point_ctx()
    X = discrete(3)
    ctx.add_object("X", X, to_terminal(X, PT))
    k = kernel_identity(ctx, "X")
    rp = ctx.prod(("X", "X"))
    dims = {o: k.payload.dim[o] for o in rp.grpd.objects}
    on_diag = sum(v for o, v in dims.items() if o[0][0] == o[0][1])
    off_diag = sum(v for o, v in dims.items() if o[0][0] != o[0][1])
    assert on_diag == 3 and off_diag == 0


def test_kernel_compose_matrix_dims():
    # kernels between finite sets over the point are matrices of vector
    # spaces; composition multiplies dimension matrices
    ctx = point_ctx()
    X, Y, Z = discrete(2), discrete(2), discrete(2)
    ctx.add_object("X", X, to_terminal(X, PT))
    ctx.add_object("Y", Y, to_terminal(Y, PT))
    ctx.add_object("Z", Z, to_terminal(Z, PT))
    M, N = kernel_chain(ctx, ["X", "Y", "Z"], random.Random(3))
    C = kernel_compose(M, N)
    # dimension bookkeeping: C[x,z] = sum_y M[x,y] * N[y,z]
    rp_xy = ctx.prod(("X", "Y")).grpd
    rp_yz = ctx.prod(("Y", "Z")).grpd
    rp_xz = ctx.prod(("X", "Z")).grpd

    def dim_of(payload, grpd, a, b):
        for o in grpd.objects:
            if o[0] == (a, b):
                return payload.dim[o]
        raise KeyError

    for xo in X.objects:
        for zo in Z.objects:
            expected = sum(dim_of(M.payload, rp_xy, xo, yo) *
                           dim_of(N.payload, rp_yz, yo, zo)
                           for yo in Y.objects)
            assert dim_of(C.payload, rp_xz, xo, zo) == expected


def test_kernels_vector_space_tensor():
    ctx = point_ctx()
    ctx.add_object("pt", PT, identity_functor(PT))
    rp = ctx.prod(("pt", "pt"))
    o = rp.grpd.objects[0]
    V = Sheaf(rp.grpd, QQ, {o: 2},
              {m: Matrix.identity(QQ, 2) for m in rp.grpd.morphisms})
    W = Sheaf(rp.grpd, QQ, {o: 3},
              {m: Matrix.identity(QQ, 3) for m in rp.grpd.morphisms})
    M = Kernel(ctx, "pt", "pt", V)
    N = Kernel(ctx, "pt", "pt", W)
    assert kernel_compose(M, N).payload.dim[o] == 6


def test_unitors():
    ctx = point_ctx()
    X, Y = discrete(2), discrete(3)
    ctx.add_object("X", X, to_terminal(X, PT))
    ctx.add_object("Y", Y, to_terminal(Y, PT))
    M, = kernel_chain(ctx, ["X", "Y"], random.Random(5))
    ru = right_unitor(M)
    lu = left_unitor(M)
    assert ru.is_invertible() and lu.is_invertible()
    assert sheaves_equal(ru.dst, M.payload)
    assert sheaves_equal(lu.dst, M.payload)


def test_unitors_group_case():
    ctx = KernelContext(BS3, QQ)
    ctx.add_object("BC2", BC2, INCL)
    k = kernel_identity(ctx, "BC2")
    ru = right_unitor(k)
    lu = left_unitor(k)
    assert ru.is_invertible() and lu.is_invertible()


def test_associator_randomized():
    ctx = point_ctx()
    for i, n in enumerate((2, 3, 2, 2)):
        X = discrete(n)
        ctx.add_object("X%d" % i, X, to_terminal(X, PT))
    rng = random.Random(11)
    for trial in range(3):
        M, N, L = kernel_chain(ctx, ["X0", "X1", "X2", "X3"], rng)
        al = associator(M, N, L)
        assert al.is_invertible()
        lhs = kernel_compose(kernel_compose(M, N), L)
        rhs = kernel_compose(M, kernel_compose(N, L))
        assert sheaves_equal(al.src, lhs.payload)
        assert sheaves_equal(al.dst, rhs.payload)


def test_associator_group_base():
    C2g = presets.group("C2")
    BC2g = delooping(C2g)
    ctx = KernelContext(BC2g, QQ)
    triv = delooping(presets.group("1"))
    j = Functor(triv, BC2g, {triv.objects[0]: BC2g.objects[0]},
                {triv.morphisms[0]: BC2g.identity[BC2g.objects[0]]})
    ctx.add_object("a", triv, j)
    ctx.add_object("b", BC2g, identity_functor(BC2g))
    ida = kernel_identity(ctx, "a")
    one = unit_sheaf(ctx.prod(("b", "a")).grpd, QQ)
    K = Kernel(ctx, "a", "b", one)
    al = associator(K, ida, ida)
    assert al.is_invertible()


def test_swap_compatibility():
    ctx = point_ctx()
    for i, n in enumerate((2, 2, 2)):
        X = discrete(n)
        ctx.add_object("Y%d" % i, X, to_terminal(X, PT))
    rng = random.Random(23)
    M, N = kernel_chain(ctx, ["Y0", "Y1", "Y2"], rng)
    cell = swap_compatibility(M, N)
    assert cell.is_invertible()
    sw = kernel_swap(kernel_compose(M, N))
    assert sheaves_equal(cell.src, sw.payload)
    rhs = kernel_compose(kernel_swap(N), kernel_swap(M))
    assert sheaves_equal(cell.dst, rhs.payload)


def test_swap_compatibility_group_base():
    ctx = KernelContext(BS3, QQ)
    for name in ("Y0", "Y1", "Y2"):
        ctx.add_object(name, BC2, INCL)
    M = external_kernel(ctx, "Y0", "Y1", SIGN, SIGN)
    N = external_kernel(ctx, "Y1", "Y2", SIGN, unit_sheaf(BC2, QQ))
    cell = swap_compatibility(M, N)
    assert cell.is_invertible()
    sw = kernel_swap(kernel_compose(M, N))
    assert sheaves_equal(cell.src, sw.payload)
    rhs = kernel_compose(kernel_swap(N), kernel_swap(M))
    assert sheaves_equal(cell.dst, rhs.payload)


def test_proj_is_built_once_per_names_and_indices():
    ctx = KernelContext(BS3, QQ)
    for name in ("Y0", "Y1"):
        ctx.add_object(name, BC2, INCL)
    p = ctx.proj(("Y0", "Y1", "Y1"), (0, 2))
    assert ctx.proj(["Y0", "Y1", "Y1"], [0, 2]) is p
    assert ctx.legs("Y0", "Y1", "Y1")[2] is p
    assert ctx.proj(("Y0", "Y1", "Y1"), (0, 1)) is not p


def test_kernel_identity_shares_one_diagonal_and_its_fibers(monkeypatch):
    ctx = KernelContext(BS3, QQ)
    ctx.add_object("Y", BC2, INCL)
    first = kernel_identity(ctx, "Y")
    diag = ctx.prod(("Y", "Y")).diagonal
    fibers = LanFunctor(diag).fibers
    built = []
    init = sheaves._Fiber.__init__

    def counted(self, *args):
        built.append(args)
        init(self, *args)

    monkeypatch.setattr(sheaves._Fiber, "__init__", counted)
    second = kernel_identity(ctx, "Y")
    assert ctx.prod(("Y", "Y")).diagonal is diag
    assert LanFunctor(diag).fibers is fibers
    assert built == []
    assert sheaves_equal(first.payload, second.payload)


def test_add_object_refuses_a_name_it_already_holds():
    ctx = KernelContext(BS3, QQ)
    ctx.add_object("Y", BC2, INCL)
    with pytest.raises(ValueError, match="already in the context"):
        ctx.add_object("Y", BS3, identity_functor(BS3))
    assert ctx.objects["Y"] == (BC2, INCL)


def test_identity_kernels_and_factor_projections_are_built_once():
    ctx = KernelContext(BS3, QQ)
    ctx.add_object("Y", BC2, INCL)
    assert kernel_identity(ctx, "Y") is kernel_identity(ctx, "Y")
    rp = ctx.prod(("Y", "Y"))
    assert rp.factor_proj(0) is rp.factor_proj(0)
    assert rp.factor_proj(1) is rp.factor_proj(1) is not rp.factor_proj(0)


def _sign_context():
    """KernelContext(BS3) with objects Y0..Y3, each BC2 by inclusion."""
    ctx = KernelContext(BS3, QQ)
    for name in ("Y0", "Y1", "Y2", "Y3"):
        ctx.add_object(name, BC2, INCL)
    return ctx


def _sign_cells(ctx, chars):
    """The associator, both unitors, the swap cell and the Psi composition
    cell of external kernels Y1 => Y0, Y2 => Y1, Y3 => Y2 whose left and
    right factors are the characters `chars` names, in order."""
    pick = {"s": SIGN, "t": unit_sheaf(BC2, QQ)}
    M, N, L = (external_kernel(ctx, "Y%d" % i, "Y%d" % (i + 1),
                               pick[chars[2 * i]], pick[chars[2 * i + 1]])
               for i in range(3))
    [psi] = psi_composition_certificate(M, N, [SIGN])
    return [associator(M, N, L), right_unitor(M), left_unitor(M),
            swap_compatibility(M, N), psi]


def test_cells_of_a_warm_context_equal_those_of_a_fresh_one():
    warm = _sign_context()
    _sign_cells(warm, "ttsttt")
    got, want = _sign_cells(warm, "sttsss"), _sign_cells(_sign_context(),
                                                         "sttsss")
    for cell, fresh in zip(got, want):
        assert sheaves_equal(cell.src, fresh.src)
        assert sheaves_equal(cell.dst, fresh.dst)
        assert cell.comp == fresh.comp


def test_two_right_unitors_build_the_unit_base_change_once(monkeypatch):
    ctx = _sign_context()
    triv = unit_sheaf(BC2, QQ)
    M = external_kernel(ctx, "Y0", "Y1", SIGN, triv)
    N = external_kernel(ctx, "Y0", "Y1", triv, SIGN)
    built = []
    base_change_cell = kernels.base_change_cell

    def counted(square, V):
        built.append(V)
        return base_change_cell(square, V)

    monkeypatch.setattr(kernels, "base_change_cell", counted)
    for K in (M, N):
        assert right_unitor(K).is_invertible()
    [V] = built
    assert sheaves_equal(V, unit_sheaf(V.base, QQ))


def test_a_singular_unit_base_change_raises_on_every_call(monkeypatch):
    ctx = _sign_context()
    M = external_kernel(ctx, "Y0", "Y1", SIGN, SIGN)
    base_change_cell = kernels.base_change_cell

    def singular(square, V):
        cell = base_change_cell(square, V)
        return SheafMorphism(cell.src, cell.dst, {
            x: Matrix.zero(QQ, c.nrows, c.ncols) for x, c in cell.comp.items()})

    monkeypatch.setattr(kernels, "base_change_cell", singular)
    for _ in range(2):
        with pytest.raises(TheoremViolation, match="unitor base-change"):
            right_unitor(M)
    monkeypatch.undo()
    assert right_unitor(M).is_invertible()


def test_sheaf_is_freed_with_its_kan_functor_on_a_memoised_proj():
    ctx = KernelContext(BS3, QQ)
    for name in ("Y0", "Y1"):
        ctx.add_object(name, BC2, INCL)
    p13 = ctx.proj(("Y0", "Y1", "Y1"), (0, 2))
    base = ctx.prod(("Y0", "Y1", "Y1")).grpd
    unit = unit_sheaf(base, QQ)
    M = Sheaf(base, QQ, unit.dim, unit.mat)
    F = LanFunctor(p13)
    F.obj(M)
    ref = weakref.ref(M)
    del M, F
    gc.collect()
    assert ref() is None
    # the fibers outlive the functor, on the proj that the context keeps
    assert LanFunctor(p13).fibers is LanFunctor(ctx.proj(
        ("Y0", "Y1", "Y1"), (0, 2))).fibers


def test_associator_and_unitors_over_bs3_with_sign_kernels():
    """Kernels between (BC2, INCL) objects over BS3 built from the sign
    and trivial characters: the fibers of every leg have automorphisms."""
    ctx = KernelContext(BS3, QQ)
    for name in ("Y0", "Y1", "Y2", "Y3"):
        ctx.add_object(name, BC2, INCL)
    triv = unit_sheaf(BC2, QQ)
    M = external_kernel(ctx, "Y0", "Y1", SIGN, triv)
    N = external_kernel(ctx, "Y1", "Y2", triv, SIGN)
    L = external_kernel(ctx, "Y2", "Y3", SIGN, SIGN)
    al = associator(M, N, L)
    assert al.is_invertible()
    lhs = kernel_compose(kernel_compose(M, N), L)
    rhs = kernel_compose(M, kernel_compose(N, L))
    assert sheaves_equal(al.src, lhs.payload)
    assert sheaves_equal(al.dst, rhs.payload)
    assert sum(lhs.payload.dim.values()) == 54    # not vacuous
    ru, lu = right_unitor(M), left_unitor(M)
    for cell in (ru, lu):
        assert cell.is_invertible()
        assert sheaves_equal(cell.dst, M.payload)
    assert sheaves_equal(ru.src,
                         kernel_compose(M, kernel_identity(ctx, "Y1")).payload)
    assert sheaves_equal(lu.src,
                         kernel_compose(kernel_identity(ctx, "Y0"), M).payload)


def _chain(*cells):
    """cells[-1] · ... · cells[0], each junction checked on the nose."""
    out = cells[0]
    for cell in cells[1:]:
        assert sheaves_equal(out.dst, cell.src)
        out = out.then(cell)
    return out


def _assert_same_nonzero_cell(lhs, rhs):
    """A zero composite passes any law, so a pass needs a nonzero one."""
    assert sheaves_equal(lhs.src, rhs.src)
    assert sheaves_equal(lhs.dst, rhs.dst)
    assert not all(c.is_zero() for c in lhs.comp.values())
    assert lhs.comp == rhs.comp


def _assert_triangle(M, N):
    """(M∘λ_N)·α(M,id,N) = ρ_M∘N as cells (M∘id)∘N -> M∘N."""
    lhs = _chain(associator(M, kernel_identity(M.ctx, M.src), N),
                 whisker_left(M, left_unitor(N), N.src))
    rhs = whisker_right(right_unitor(M), N, M.tgt)
    assert sheaves_equal(rhs.dst, kernel_compose(M, N).payload)
    _assert_same_nonzero_cell(lhs, rhs)


def _discrete_chain(sizes, seed):
    """Kernels X0 <= X1 <= ... over the point, fiber dimensions 1 or 2."""
    ctx = point_ctx()
    names = ["X%d" % i for i in range(len(sizes))]
    for name, n in zip(names, sizes):
        X = discrete(n)
        ctx.add_object(name, X, to_terminal(X, PT))
    return kernel_chain(ctx, names, random.Random(seed), mindim=1)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_triangle_over_the_point(seed):
    M, N = _discrete_chain((2, 3, 2), seed)
    _assert_triangle(M, N)


@pytest.mark.parametrize("chars", ["sign triv triv sign",
                                   "sign sign sign triv"])
def test_triangle_over_bs3(chars):
    """Kernels between (BC2, INCL) objects over BS3, external tensors of
    characters of C2, whose fibers have automorphisms."""
    ctx = KernelContext(BS3, QQ)
    for name in ("Y0", "Y1", "Y2"):
        ctx.add_object(name, BC2, INCL)
    pick = {"sign": SIGN, "triv": unit_sheaf(BC2, QQ)}
    a, b, c, d = (pick[w] for w in chars.split())
    _assert_triangle(external_kernel(ctx, "Y0", "Y1", a, b),
                     external_kernel(ctx, "Y1", "Y2", c, d))


@pytest.mark.parametrize("seed", [0, 1])
def test_pentagon_over_the_point(seed):
    """α(M,N,L∘P)·α(M∘N,L,P) = (M∘α(N,L,P))·α(M,N∘L,P)·(α(M,N,L)∘P)."""
    M, N, L, P = _discrete_chain((2, 2, 1, 2, 2), seed)
    MN, NL = kernel_compose(M, N), kernel_compose(N, L)
    LP = kernel_compose(L, P)
    lhs = _chain(associator(MN, L, P), associator(M, N, LP))
    rhs = _chain(whisker_right(associator(M, N, L), P, M.tgt),
                 associator(M, NL, P),
                 whisker_left(M, associator(N, L, P), P.src))
    _assert_same_nonzero_cell(lhs, rhs)


def test_whiskering_an_identity_gives_the_identity():
    M, N = _discrete_chain((2, 3, 2), 5)
    MN = kernel_compose(M, N).payload
    for cell in (whisker_left(M, identity_morphism(N.payload), N.src),
                 whisker_right(identity_morphism(M.payload), N, M.tgt)):
        assert sheaves_equal(cell.src, MN) and sheaves_equal(cell.dst, MN)
        assert cell.is_identity()


def test_caller_errors_are_typed():
    M, N = _discrete_chain((2, 3, 2), 0)
    with pytest.raises(ValueError, match="kernels not composable"):
        kernel_compose(N, M)
    with pytest.raises(ValueError, match="kernels not composable"):
        psi_composition_certificate(N, M, [])
    ctx = KernelContext(BS3, QQ)
    with pytest.raises(ValueError, match="must run X -> S"):
        ctx.add_object("Y", BC2, to_terminal(BC2, PT))
    with pytest.raises(ValueError, match="must run X -> S"):
        ctx.add_object("Y", BS3, INCL)
    with pytest.raises(ValueError, match="need at least one probe"):
        base_change_suave_prim(INCL, INCL)


def test_phi_rejects_legs_that_do_not_commute_on_the_nose():
    """INCL after the trivial endomorphism of BC2 is not INCL, so the span
    [BC2 <-id- BC2 -trivial-> BC2] over BS3 is refused as caller input."""
    ctx = KernelContext(BS3, QQ)
    ctx.add_object("a", BC2, INCL)
    trivial = delooping_hom({g: C2.identity for g in C2.elements}, BC2, BC2)
    with pytest.raises(ValueError, match="commute with the structure maps"):
        psi_phi_certificate(ctx, "a", "a", BC2, identity_functor(BC2),
                            trivial, [unit_sheaf(BC2, QQ)])


def test_phi_graph_kernel():
    ctx = point_ctx()
    X, Y = discrete(2), discrete(3)
    ctx.add_object("X", X, to_terminal(X, PT))
    ctx.add_object("Y", Y, to_terminal(Y, PT))
    # the graph of a function q: X -> Y as a span [X <- X -> Y]
    q = Functor(X, Y, {X.objects[0]: Y.objects[0],
                       X.objects[1]: Y.objects[2]},
                {m: Y.identity[Y.objects[0] if X.src[m] == X.objects[0]
                               else Y.objects[2]] for m in X.morphisms})
    K, j = phi(ctx, "X", "Y", X, identity_functor(X), q)
    rp = ctx.prod(("Y", "X"))
    for o in rp.grpd.objects:
        (yo, xo), _ = o
        expected = 1 if q.ob[xo] == yo else 0
        assert K.payload.dim[o] == expected


def test_phi_identity_is_kernel_identity():
    ctx = point_ctx()
    X = discrete(2)
    ctx.add_object("X", X, to_terminal(X, PT))
    K, _ = phi(ctx, "X", "X", X, identity_functor(X), identity_functor(X))
    kid = kernel_identity(ctx, "X")
    assert K.payload.dim == kid.payload.dim


def test_psi_matrix_action():
    ctx = point_ctx()
    X, Y = discrete(2), discrete(2)
    ctx.add_object("X", X, to_terminal(X, PT))
    ctx.add_object("Y", Y, to_terminal(Y, PT))
    rp = ctx.prod(("X", "Y"))
    dims = {}
    for o in rp.grpd.objects:
        (xo, yo), _ = o
        dims[o] = 2 if (xo == X.objects[0]) else 1
    mats = {m: Matrix.identity(QQ, dims[rp.grpd.src[m]])
            for m in rp.grpd.morphisms}
    M = Kernel(ctx, "Y", "X", Sheaf(rp.grpd, QQ, dims, mats))
    ev = PsiEvaluator(M)
    V = sheaf_on(Y, [1, 3])
    out = ev.obj(V)
    # dimension vector = matrix * vector
    assert out.dim[X.objects[0]] == 2 * 1 + 2 * 3
    assert out.dim[X.objects[1]] == 1 * 1 + 1 * 3


def test_psi_identity_kernel_acts_as_identity():
    ctx = KernelContext(BS3, QQ)
    ctx.add_object("a", BC2, INCL)
    kid = kernel_identity(ctx, "a")
    ev = PsiEvaluator(kid)
    V = unit_sheaf(BC2, QQ)
    out = ev.obj(V)
    assert out.dim == V.dim
    assert hom_dim(out, V) >= 1


def test_psi_composition_certificate():
    ctx = point_ctx()
    for i, n in enumerate((2, 2, 2)):
        X = discrete(n)
        ctx.add_object("Z%d" % i, X, to_terminal(X, PT))
    rng = random.Random(31)
    M, N = kernel_chain(ctx, ["Z0", "Z1", "Z2"], rng)
    Z2 = ctx.objects["Z2"][0]
    probes = [unit_sheaf(Z2, QQ), sheaf_on(Z2, [2, 1])]
    cells = psi_composition_certificate(M, N, probes)
    assert all(c.is_invertible() for c in cells)


def test_psi_composition_certificate_builds_inner_once(monkeypatch):
    """pr12*M ⊗ pr23*N does not depend on the probe: two probes build it
    once."""
    M, N = _discrete_chain((2, 2, 2), 3)
    p12, p23, _ = M.ctx.legs(M.tgt, M.src, N.src)
    pm = PullbackFunctor(p12).obj(M.payload)
    pn = PullbackFunctor(p23).obj(N.payload)
    # pr23*N has a fiber of dimension 2, so inner ⊗ pr3*V is not counted
    assert not sheaves_equal(tensor(pm, pn), pm)
    inner_builds = []

    def counting_tensor(A, B):
        inner_builds.append(sheaves_equal(A, pm) and sheaves_equal(B, pn))
        return tensor(A, B)

    monkeypatch.setattr(kernels, "tensor", counting_tensor)
    Z = M.ctx.objects[N.src][0]
    psi_composition_certificate(M, N, [unit_sheaf(Z, QQ), sheaf_on(Z, [2, 1])])
    assert sum(inner_builds) == 1


def test_psi_phi_agrees_with_direct():
    ctx = point_ctx()
    X, Y = discrete(2), discrete(2)
    ctx.add_object("X", X, to_terminal(X, PT))
    ctx.add_object("Y", Y, to_terminal(Y, PT))
    swapf = Functor(X, Y, {X.objects[0]: Y.objects[1],
                           X.objects[1]: Y.objects[0]},
                    {m: Y.identity[Y.objects[1] if X.src[m] == X.objects[0]
                                   else Y.objects[0]] for m in X.morphisms})
    probes = [unit_sheaf(X, QQ), sheaf_on(X, [2, 1])]
    K, cells = psi_phi_certificate(ctx, "X", "Y", X,
                                   identity_functor(X), swapf, probes)
    assert all(c.is_invertible() for c in cells)


def test_psi_phi_certificate_compares_with_the_psi_evaluator(monkeypatch):
    # the route must end at Psi(Phi)(V) as PsiEvaluator computes it; an
    # evaluator that returns another sheaf raises the alarm
    ctx = point_ctx()
    X = discrete(2)
    ctx.add_object("X", X, to_terminal(X, PT))
    monkeypatch.setattr(kernels.PsiEvaluator, "obj",
                        lambda self, V: sheaf_on(self.M.payload.base, [2]))
    with pytest.raises(TheoremViolation, match="not Psi\\(Phi\\)\\(V\\)"):
        psi_phi_certificate(ctx, "X", "X", X, identity_functor(X),
                            identity_functor(X), [unit_sheaf(X, QQ)])


def test_suave_test_identity_map():
    # S = X, f = id: suave dual of any sheaf is its pointwise dual
    f = identity_functor(BC2)
    P = unit_sheaf(BC2, QQ)
    cert = suave_test(f, P)
    assert cert.ok and cert.triangle1 and cert.triangle2
    assert cert.dual.dim == P.dim


def test_suave_test_classifying_map():
    f = to_terminal(BC2, PT)
    P = unit_sheaf(BC2, QQ)
    cert = suave_test(f, P)
    assert cert.ok
    assert cert.dual.dim[BC2.objects[0]] == 1


def test_suave_test_finite_sets():
    X = discrete(3)
    f = to_terminal(X, PT)
    P = sheaf_on(X, [1, 2, 0])
    cert = suave_test(f, P)
    assert cert.ok
    for x in X.objects:
        assert cert.dual.dim[x] == P.dim[x]


def test_suave_test_subgroup_inclusion():
    P = unit_sheaf(BC2, QQ)
    cert = suave_test(INCL, P)
    assert cert.ok, cert.failing


def test_prim_test_identity_and_unit():
    f = identity_functor(BC2)
    P = unit_sheaf(BC2, QQ)
    cert = prim_test(f, P)
    assert cert.ok and cert.double_dual_ok


def test_prim_test_zero_sheaf():
    from sixff.sheaves import zero_sheaf
    f = to_terminal(BC2, PT)
    P = zero_sheaf(BC2, QQ)
    cert = prim_test(f, P)
    assert cert.ok
    assert cert.dual.total_dim() == 0


def test_prim_test_subgroup_inclusion():
    P = unit_sheaf(BC2, QQ)
    cert = prim_test(INCL, P, check_double_dual=True)
    assert cert.ok, cert.failing
    assert cert.double_dual_ok


def test_etale_proper_identity():
    f = identity_functor(BC2)
    cert = etale_proper_test(f, QQ)
    assert cert.etale_ok and cert.proper_ok
    assert cert.omega.total_dim() == 1
    assert cert.delta.total_dim() == 1


def test_etale_proper_subgroup():
    """BC2 -> BS3 is etale and proper, with both twists certified, on the
    unit, the sign and a gauged permutation sheaf of BS3."""
    gauge = Matrix.from_int_rows(QQ, [[1, 2, 0], [0, 1, 1], [1, 0, 1]])
    sgn = {g: Matrix.from_int_rows(QQ, [[sign(g)]]) for g in S3.elements}
    perm = {g: gauge * Matrix.from_int_rows(QQ, permutation(g))
            * gauge.inverse() for g in S3.elements}
    probes = [unit_sheaf(BS3, QQ), sheaves.sheaf_from_rep(BS3, QQ, sgn),
              sheaves.sheaf_from_rep(BS3, QQ, perm)]
    cert = etale_proper_test(INCL, QQ, probes)
    assert cert.etale_ok and cert.proper_ok
    assert cert.suave_twist_ok and cert.prim_twist_ok


def test_etale_proper_three_points():
    X = discrete(3)
    f = to_terminal(X, PT)
    cert = etale_proper_test(f, QQ, [unit_sheaf(PT, QQ)])
    assert cert.etale_ok and cert.proper_ok
    assert cert.omega.total_dim() == 3  # unit on each of the 3 points


def test_base_change_eight_maps():
    pt_incl = Functor(PT, BS3, {PT.objects[0]: BS3.objects[0]},
                      {PT.morphisms[0]: BS3.identity[BS3.objects[0]]})
    probes_Y = [unit_sheaf(PT, QQ)]
    probes_Xp = [unit_sheaf(BC2, QQ)]
    out, ic = base_change_suave_prim(
        pt_incl, INCL,
        probes_Y=probes_Y, probes_Xp=probes_Xp,
        probes_W=[unit_sheaf_of_iso_comma(pt_incl, INCL)],
        probes_X=[unit_sheaf(BS3, QQ)])
    assert len(out) == 8


def unit_sheaf_of_iso_comma(f, g):
    from sixff.groupoid import iso_comma_pullback
    ic = iso_comma_pullback(f, g)
    return unit_sheaf(ic.grpd, QQ)


def test_base_change_eight_maps_product_square():
    A, B = discrete(2), discrete(2)
    f, g = to_terminal(A, PT), to_terminal(B, PT)
    out, ic = base_change_suave_prim(
        f, g,
        probes_Y=[unit_sheaf(A, QQ)],
        probes_Xp=[unit_sheaf(B, QQ)],
        probes_W=[unit_sheaf_of_iso_comma(f, g)],
        probes_X=[unit_sheaf(PT, QQ)])
    assert len(out) == 8


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["QQ", "GF7"])
def test_prim_mate_is_unital_and_reverses_composition(field):
    """The certificate's mate transport on the induced unit of (S3, C2)
    along */S3 -> *: triangle 2 (the mate of id_P is id_r), and the mate
    is an anti-homomorphism End(P) -> End(r)."""
    P = compact_induction(S3, C2, unit_sheaf(BC2, field)).sheaf
    cert = prim_test(to_terminal(P.base, PT), P, check_double_dual=False)
    assert cert.ok and cert.triangle2
    mate = cert.mate
    assert mate(identity_morphism(P)).is_identity()
    basis = hom_space(P, P)
    assert len(basis) == 2
    assert mate(basis[0]).comp != mate(basis[1]).comp
    for T1 in basis:
        for T2 in basis:
            assert mate(T1.then(T2)).comp == mate(T2).then(mate(T1)).comp


def _mate_through_whiskering_functor(calc, P, r, eta, eps, T):
    """mate(T) as the composite of whole sheaf functors: T is whiskered
    into the counit by pulling it back along pi1, tensoring with id_{pi2*r},
    and sending the result through r∘(-) = pi2_!(pi1*r ⊗ -), each step
    building its own source and target sheaves."""
    etaR = calc.pull_f.then(TensorRightFunctor(r)).mor(eta)
    rp_t = tensor(r, P)
    pf4 = projection_formula_cell_right(calc.pi2, calc.pull_p1.obj(rp_t), r)
    a4_fwd = pf4.then(tensor_morphisms(calc.bc_p2p1(rp_t),
                                       identity_morphism(r)))
    head = SheafMorphism(r, etaR.dst, etaR.comp).then(
        SheafMorphism(etaR.dst, a4_fwd.src, a4_fwd.inverse().comp))
    r_after = TensorLeftFunctor(calc.pull_p1.obj(r)).then(LanFunctor(calc.pi2))
    whisk = r_after.mor(tensor_morphisms(
        calc.pull_p1.mor(T),
        identity_morphism(calc.pull_p2.obj(r))).then(eps))
    whisk = SheafMorphism(a4_fwd.src, whisk.dst, whisk.comp)
    rho = calc.right_unitor_reduced(r).comp
    return head.then(whisk).then(SheafMorphism(whisk.dst, r, rho))


C3 = presets.group("C3")
TRIV_C3 = C3.subgroup([C3.identity], name="1")


@pytest.mark.parametrize("G, K, field", [
    (S3, C2, QQ), (S3, C2, GF(7)), (C3, TRIV_C3, QQ),
], ids=["S3-C2-QQ", "S3-C2-GF7", "C3-1-QQ"])
def test_prim_mate_matches_the_whiskering_functor_chain(G, K, field):
    """The certificate's mate, which builds its whiskered counit's source
    and target once, agrees component by component with the composite of
    whole functors on every basis endomorphism and one combination of
    them, and its pi2_! keeps two sheaves however often it is called."""
    P = compact_induction(G, K, unit_sheaf(delooping(K), field)).sheaf
    f = to_terminal(P.base, PT)
    cert = prim_test(f, P, check_double_dual=False)
    assert cert.ok
    calc = MapCalculus(f, field)
    basis = hom_space(P, P)
    combo = linear_combination(P, P, basis, [field.of(c) for c in
                                             (3, -2, 5)[:len(basis)]])
    for T in basis + [combo]:
        want = _mate_through_whiskering_functor(
            calc, P, cert.dual, cert.unit, cert.counit, T)
        assert cert.mate(T).comp == want.comp
    [lan] = [c.cell_contents for c in cert.mate.__closure__
             if isinstance(c.cell_contents, LanFunctor)]
    assert len(lan._cache) == 2
    for T in basis * 3:
        cert.mate(T)
    assert len(lan._cache) == 2


def test_strict_square_rejects_a_square_that_does_not_commute():
    pt = terminal_groupoid()
    two = disjoint_union([pt, pt])

    def point(o):
        return Functor(pt, two, {pt.objects[0]: o},
                       {pt.morphisms[0]: two.identity[o]})

    one = identity_functor(pt)
    x, y = two.objects
    assert kernels._strict_square(f=point(x), g=point(x), fp=one, gp=one)
    with pytest.raises(TheoremViolation, match="not strict"):
        kernels._strict_square(f=point(x), g=point(y), fp=one, gp=one)
