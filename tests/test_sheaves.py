import gc
import random
import weakref
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixff import sheaves
from sixff.fields import GF, QQ, GateError, check_gate
from sixff.groupoid import (
    Functor, RelProduct, action_groupoid, delooping, delooping_hom,
    disjoint_union, identity_functor, okey, terminal_groupoid, to_terminal,
    transport_to_reps,
)
from sixff.instances import (
    C2, C3, S3, Union, delooping_map, gauged_sheaf, permutation, rep, sheaf,
    sign, union,
)
from sixff.linalg import Matrix, stack_columns, stack_rows
from sixff.sheaves import (
    CommutingSquare, LanAdjunction, LanFunctor, PullbackFunctor, RanFunctor,
    Sheaf, SheafMorphism, adj_tensor_hom, base_change_cell,
    compose_comparison_lan, compose_comparison_ran, double_dual_cell,
    find_isomorphism, global_sections, hom_dim, hom_space, identity_morphism,
    lan_identity_comparison, morphism_coordinates,
    norm_certificate, norm_map, ran_projection_cell,
    sheaves_equal, swap_cell, tensor, transport_cell, unit_sheaf,
    upper_shriek,
    verify_base_change, verify_projection_formula, zero_sheaf,
)
from sixff.sheaves import _FIBERS, _invariant_data

BS3 = delooping(S3)
BC2 = delooping(C2)
BC3 = delooping(C3)
INCL = delooping_hom({g: g for g in C2.elements}, BC2, BS3)
PT = terminal_groupoid()
P_S3 = to_terminal(BS3, PT)
P_C2 = to_terminal(BC2, PT)


def sign_rep_c2(field=QQ):
    return Sheaf(BC2, field, {BC2.objects[0]: 1}, {
        g: Matrix.from_int_rows(field, [[sign(g)]]) for g in C2.elements},
        check=True)


def regular_rep(grpd, group, field=QQ):
    obj = grpd.objects[0]
    n = len(group.elements)
    idx = {g: i for i, g in enumerate(group.elements)}
    mats = {}
    for g in group.elements:
        rows = [[field.zero] * n for _ in range(n)]
        for h in group.elements:
            rows[idx[group.mul(g, h)]][idx[h]] = field.one
        mats[g] = Matrix(field, rows)
    return Sheaf(grpd, field, {obj: n}, mats, check=True)


def std_rep_s3(field=QQ):
    """The 2-dimensional irreducible of S3 over Q."""
    obj = BS3.objects[0]
    reg = regular_rep(BS3, S3, field)
    # realize as the subrepresentation of the permutation action of S3 on
    # k^3 with coordinates summing to zero: basis e0-e1, e1-e2
    mats = {}
    for g in S3.elements:
        # permutation action on coordinates: g sends e_i to e_{g(i)}
        cols = []
        for (a, b) in ((0, 1), (1, 2)):
            img = {g[a]: 1, g[b]: -1}
            vec = [img.get(i, 0) for i in range(3)]
            # write vec in terms of e0-e1, e1-e2: coefficients (c1, c2) with
            # c1*(1,-1,0)+c2*(0,1,-1) = vec
            c1 = vec[0]
            c2 = -vec[2]
            cols.append([c1, c2])
        mats[g] = Matrix.from_int_rows(field, list(map(list, zip(*cols))))
    return Sheaf(BS3, field, {obj: 2}, mats, check=True)


def test_unit_sheaf_shapes():
    u = unit_sheaf(BS3, QQ)
    assert u.validate() == []
    assert u.total_dim() == 1
    three = disjoint_union([PT, PT, PT])
    assert unit_sheaf(three, QQ).total_dim() == 3


def test_gate_rejects_bad_characteristic():
    with pytest.raises(GateError):
        unit_sheaf(BS3, GF(3))
    with pytest.raises(GateError):
        check_gate(GF(2), BC2)
    check_gate(GF(5), BS3)  # fine


def test_pullback_star_restriction():
    std = std_rep_s3()
    res = PullbackFunctor(INCL).obj(std)
    assert res.validate() == []
    assert res.dim[BC2.objects[0]] == 2
    # restriction of the standard rep to C2 = trivial + sign
    assert hom_dim(res, unit_sheaf(BC2, QQ)) == 1
    assert hom_dim(res, sign_rep_c2()) == 1


def test_lan_shriek_dimensions_and_adjunction():
    triv = unit_sheaf(BC2, QQ)
    ind, adj = LanFunctor(INCL).obj(triv), sheaves.adj_lan_pullback(INCL)
    assert ind.validate() == []
    assert ind.dim[BS3.objects[0]] == 3  # index [S3:C2]
    ok, why = adj.triangles_ok([triv, sign_rep_c2()],
                               [unit_sheaf(BS3, QQ), std_rep_s3()])
    assert ok, why


def test_lan_regular_from_point():
    pt_unit = unit_sheaf(PT, QQ)
    j = Functor(PT, BC2, {PT.objects[0]: BC2.objects[0]},
                {PT.morphisms[0]: BC2.identity[BC2.objects[0]]})
    reg, adj = LanFunctor(j).obj(pt_unit), sheaves.adj_lan_pullback(j)
    assert reg.dim[BC2.objects[0]] == 2
    ok, why = adj.triangles_ok([pt_unit], [unit_sheaf(BC2, QQ), sign_rep_c2()])
    assert ok, why


def test_ran_star_invariants():
    sgn = sign_rep_c2()
    ran, adj = RanFunctor(P_C2), sheaves.adj_pullback_ran(P_C2)
    inv = ran.obj(sgn)
    assert inv.dim[PT.objects[0]] == 0
    reg = regular_rep(BC2, C2)
    invr = ran.obj(reg)
    assert invr.dim[PT.objects[0]] == 1
    ok, why = adj.triangles_ok([unit_sheaf(PT, QQ)], [sgn, reg])
    assert ok, why


def test_norm_map_examples():
    triv = unit_sheaf(BC2, QQ)
    nm = norm_certificate(P_C2, triv)
    assert nm.comp[PT.objects[0]] == Matrix.from_int_rows(QQ, [[2]])
    # identity map: norm is the identity
    nm_id = norm_map(identity_functor(BC2), triv)
    assert nm_id.is_identity()
    # two-point set over a point: trivial automorphisms, norm = permutation
    three = disjoint_union([PT, PT])
    p = to_terminal(three, PT)
    nm3 = norm_certificate(p, unit_sheaf(three, QQ))
    assert nm3.is_invertible()
    assert nm3.comp[PT.objects[0]].nrows == 2


def test_upper_shriek_triangles():
    probes = ([unit_sheaf(PT, QQ)], [unit_sheaf(BC2, QQ), sign_rep_c2()])
    res = upper_shriek(P_C2, unit_sheaf(PT, QQ), probes)
    assert res.ambidextrous_ok
    assert res.sheaf.dim[BC2.objects[0]] == 1
    ok, why = res.witness.triangles_ok(probes[1], probes[0])
    assert ok, why
    # f_! keeps the trivial sheaf and kills the sign sheaf
    o, = PT.objects
    assert [res.witness.left.obj(M).dim[o] for M in probes[1]] == [1, 0]


def test_tensor_and_hom_adjunction():
    sgn = sign_rep_c2()
    triv = unit_sheaf(BC2, QQ)
    assert hom_dim(tensor(sgn, sgn), triv) == 1  # sign ⊗ sign = trivial
    adj = adj_tensor_hom(sgn)
    ok, why = adj.triangles_ok([triv, sgn, regular_rep(BC2, C2)],
                               [triv, sgn, regular_rep(BC2, C2)])
    assert ok, why
    # M ⊗ unit has the same underlying data as M (Kronecker with 1x1)
    reg = regular_rep(BC2, C2)
    assert tensor(reg, triv).mat == reg.mat
    assert tensor(triv, reg).mat == reg.mat


def _point_sheaf(field, d):
    """A d-dimensional sheaf on the point."""
    o, = PT.objects
    return Sheaf(PT, field, {o: d},
                 {PT.identity[o]: Matrix.identity(field, d)})


# (adjunction L ⊣ R, A on the source of L, B on the source of R), by field
_BIJECTION_CASES = {
    "lan-incl": lambda k: (sheaves.adj_lan_pullback(INCL),
                           regular_rep(BC2, C2, k), std_rep_s3(k)),
    "ran-incl": lambda k: (sheaves.adj_pullback_ran(INCL), std_rep_s3(k),
                           regular_rep(BC2, C2, k)),
    "lan-point": lambda k: (sheaves.adj_lan_pullback(P_C2),
                            regular_rep(BC2, C2, k), _point_sheaf(k, 2)),
    "ran-point": lambda k: (sheaves.adj_pullback_ran(P_C2),
                            _point_sheaf(k, 2), regular_rep(BC2, C2, k)),
    "tensor-hom-sign": lambda k: (adj_tensor_hom(sign_rep_c2(k)),
                                  regular_rep(BC2, C2, k),
                                  regular_rep(BC2, C2, k)),
}


def _assert_same_components(x, y):
    assert x.comp.keys() == y.comp.keys()
    assert all(x.comp[o] == y.comp[o] for o in y.comp)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("case", sorted(_BIJECTION_CASES))
def test_adjunct_and_coadjunct_are_mutually_inverse(case, field):
    """Hom(L A, B) ≅ Hom(A, R B): coadjunct∘adjunct and adjunct∘coadjunct
    are the identity on every basis cell, component by component."""
    adj, A, B = _BIJECTION_CASES[case](field)
    LA, RB = adj.left.obj(A), adj.right.obj(B)
    left_cells, right_cells = hom_space(LA, B), hom_space(A, RB)
    assert left_cells and len(left_cells) == len(right_cells)
    for c in left_cells:
        _assert_same_components(adj.coadjunct(adj.adjunct(A, c), B), c)
    for d in right_cells:
        _assert_same_components(adj.adjunct(A, adj.coadjunct(d, B)), d)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("case", sorted(_BIJECTION_CASES))
def test_adjuncts_are_natural_in_both_variables(case, field):
    """Passing to the adjoint cell is natural in A and in B: for
    endomorphisms a of A and b of B, the adjunct of b∘c∘L(a) is
    R(b)∘adjunct(c)∘a, and the coadjunct of R(b)∘d∘a is
    b∘coadjunct(d)∘L(a), on every basis cell c and d."""
    adj, A, B = _BIJECTION_CASES[case](field)
    ends_A, ends_B = hom_space(A, A), hom_space(B, B)
    left_cells = hom_space(adj.left.obj(A), B)
    right_cells = hom_space(A, adj.right.obj(B))
    assert ends_A and ends_B and left_cells and right_cells
    for a in ends_A:
        La = adj.left.mor(a)
        for b in ends_B:
            Rb = adj.right.mor(b)
            for c in left_cells:
                _assert_same_components(
                    adj.adjunct(A, La.then(c).then(b)),
                    a.then(adj.adjunct(A, c)).then(Rb))
            for d in right_cells:
                _assert_same_components(
                    adj.coadjunct(a.then(d).then(Rb), B),
                    La.then(adj.coadjunct(d, B)).then(b))


def _gauged_lan_case(k):
    """(f_! ⊣ f*, A, B) for f: BC2 ⊔ BC3 -> BC2, the identity on BC2 and
    trivial on BC3, so the two fiber components from BC3 have automorphism
    group C3.  A and B are gauge-conjugated permutation sheaves."""
    pieces = [(BC2, C2, lambda g: g), (BC3, C3, lambda g: g)]
    Y = Union(disjoint_union([BC2, BC3]), pieces)
    X = Union(disjoint_union([BC2]), pieces[:1])
    o = (0, BC2.objects[0])
    f = Functor(Y.grpd, X.grpd, dict.fromkeys(Y.grpd.objects, o),
                {(i, g): (0, g if i == 0 else C2.identity)
                 for (i, g) in Y.grpd.morphisms})
    rng = random.Random(7)
    perm = lambda g: Matrix.from_int_rows(k, permutation(g))    # noqa: E731
    return (sheaves.adj_lan_pullback(f),
            gauged_sheaf(rng, Y, [perm, perm], k),
            gauged_sheaf(rng, X, [perm], k))


# (f_! ⊣ f*, A on f.dom, B on f.cod), by field: the Lan cases of
# _BIJECTION_CASES and one with gauged sheaves and a non-discrete fiber
_LAN_CASES = {"lan-incl": _BIJECTION_CASES["lan-incl"],
              "lan-point": _BIJECTION_CASES["lan-point"],
              "gauged-bc2-bc3": _gauged_lan_case}


def _pasted_counit(adj, N):
    """ε_N: f_!f*N -> N assembled from f*N's Kan data: the hstack, over the
    fiber components c over x, of N(m_c)·iota_c."""
    lan, pN = adj.left, adj.right.obj(N)
    return SheafMorphism(lan.obj(pN), N, {x: stack_columns(N.field, [
        N.left_times(m_c, iota)
        for (iota, _, _, (_, m_c)) in lan._data(pN)[x]], N.dim[x])
        for x in lan.f.cod.objects})


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("case", sorted(_LAN_CASES))
def test_lan_coadjunct_read_off_the_legs_is_the_pasted_one(case, field):
    """The (f_! ⊣ f*)-coadjunct of every basis cell A -> f*B equals
    ε_B∘f_!(cell) with ε_B the pasted counit, component by component, and
    some of them are nonzero."""
    adj, A, B = _LAN_CASES[case](field)
    if case.startswith("gauged"):
        assert any(part[4] for fiber in adj.left.fibers.values()
                   for part in fiber.parts)
    cells = hom_space(A, adj.right.obj(B))
    assert cells
    eps, nonzero = _pasted_counit(adj, B), 0
    for d in cells:
        read = adj.coadjunct(d, B)
        _assert_same_components(read, adj.left.mor(d).then(eps))
        nonzero += any(not c.is_zero() for c in read.comp.values())
    assert nonzero


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("case", sorted(_LAN_CASES))
def test_lan_counit_is_the_coadjunct_of_the_identity(case, field):
    """counit(N) is the pasted counit and the coadjunct of id_{f*N}, at
    N = B and at N = f_!A."""
    adj, A, B = _LAN_CASES[case](field)
    for N in (B, adj.left.obj(A)):
        eps = adj.counit(N)
        _assert_same_components(eps, _pasted_counit(adj, N))
        _assert_same_components(
            eps, adj.coadjunct(identity_morphism(adj.right.obj(N)), N))


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["Q", "F5"])
@pytest.mark.parametrize("case", sorted(_LAN_CASES))
def test_base_change_cell_equals_the_coadjunct_read_off_the_legs(case,
                                                                  field):
    """base_change_cell, pasted as ε∘f'_!(cell), equals the
    (f'_! ⊣ f'*)-coadjunct of the same cell read off the legs, on the
    iso-comma square of f with itself."""
    adj, A, _ = _LAN_CASES[case](field)
    f = adj.left.f
    square, _ = CommutingSquare.from_iso_comma(f, f)
    FA = adj.left.obj(A)
    cell = PullbackFunctor(square.gp).mor(adj.unit(A)).then(
        transport_cell(square.kappa, FA))
    read = sheaves.adj_lan_pullback(square.fp).coadjunct(
        cell, PullbackFunctor(square.g).obj(FA))
    pasted = base_change_cell(square, A)
    _assert_same_components(pasted, read)
    assert pasted.is_invertible()


def test_double_dual_and_swap():
    std = std_rep_s3()
    dd = double_dual_cell(std, unit_sheaf(BS3, QQ))
    assert dd.validate() == []
    assert dd.is_invertible()
    sw = swap_cell(std, std)
    assert sw.validate() == []
    assert sw.then(sw).is_identity()


def test_hom_space_schur():
    std = std_rep_s3()
    triv = unit_sheaf(BS3, QQ)
    assert hom_dim(std, std) == 1
    assert hom_dim(std, triv) == 0
    reg = regular_rep(BS3, S3)
    # End of the regular rep of S3 over Q: 1 + 1 + 4 = 6
    assert hom_dim(reg, reg) == 6
    assert hom_dim(reg, std) == 2


def test_base_change_double_coset_square():
    square, ic = CommutingSquare.from_iso_comma(INCL, P_S3 and INCL) \
        if False else (None, None)
    # square: * -> */S3 <- */C2 with f = INCL exceptional
    pt_incl = Functor(PT, BS3, {PT.objects[0]: BS3.objects[0]},
                      {PT.morphisms[0]: BS3.identity[BS3.objects[0]]})
    square, ic = CommutingSquare.from_iso_comma(INCL, pt_incl)
    triv = unit_sheaf(BC2, QQ)
    comparison, cell = verify_base_change(square, triv)
    o = PT.objects[0]
    assert cell.comp[o].shape == (3, 3)
    assert cell.is_invertible()


def test_base_change_product_square():
    two = disjoint_union([PT, PT])
    three = disjoint_union([PT, PT, PT])
    f = to_terminal(two, PT)
    g = to_terminal(three, PT)
    square, ic = CommutingSquare.from_iso_comma(f, g)
    M = unit_sheaf(two, QQ)
    comparison, cell = verify_base_change(square, M)
    assert cell.is_invertible()
    assert ic.grpd.objects and len(ic.grpd.objects) == 6


def test_base_change_identity_leg():
    triv = unit_sheaf(BC2, QQ)
    square, _ = CommutingSquare.from_iso_comma(INCL, identity_functor(BS3))
    _, cell = verify_base_change(square, triv)
    assert cell.is_invertible()


def test_projection_formula():
    triv2 = unit_sheaf(BC2, QQ)
    sgn = sign_rep_c2()
    std = std_rep_s3()
    cell, hom_cell = verify_projection_formula(INCL, std, sgn)
    assert cell.is_invertible() and hom_cell.is_invertible()
    # f: */C2 -> *, M = k^2, N = sign: both sides dimension 0
    pt2 = Sheaf(PT, QQ, {PT.objects[0]: 2},
                {PT.morphisms[0]: Matrix.identity(QQ, 2)})
    cell2, _ = verify_projection_formula(P_C2, pt2, sgn)
    o = PT.objects[0]
    assert cell2.src.dim[o] == 0 and cell2.dst.dim[o] == 0


def test_projection_formula_block_sum():
    two = disjoint_union([PT, PT])
    p = to_terminal(two, PT)
    M = unit_sheaf(PT, QQ)
    N = unit_sheaf(two, QQ)
    cell, hom_cell = verify_projection_formula(p, M, N)
    assert cell.is_invertible() and hom_cell.is_invertible()


def test_functoriality_comparisons():
    triv = unit_sheaf(BC2, QQ)
    c = compose_comparison_lan(P_S3, INCL, triv)
    assert c.is_invertible()
    cr = compose_comparison_ran(P_S3, INCL, triv)
    assert cr.is_invertible()
    ci = lan_identity_comparison(BC2, triv)
    assert ci.is_invertible()


def test_global_sections_examples():
    gu, _, gcu, _ = global_sections(BS3, unit_sheaf(BS3, QQ))
    assert gu == 1 and gcu == 1
    three = disjoint_union([PT, PT, PT])
    g3, _, gc3, _ = global_sections(three, unit_sheaf(three, QQ))
    assert g3 == 3 and gc3 == 3


def test_kunneth_product_of_sets():
    two = disjoint_union([PT, PT])
    three = disjoint_union([PT, PT, PT])
    f, g = to_terminal(three, PT), to_terminal(two, PT)
    square, ic = CommutingSquare.from_iso_comma(f, g)
    prod = ic.grpd
    _, _, gc, _ = global_sections(prod, unit_sheaf(prod, QQ))
    assert gc == 6


def test_frobenius_reciprocity_dims():
    triv2 = unit_sheaf(BC2, QQ)
    std = std_rep_s3()
    ind = LanFunctor(INCL).obj(triv2)
    res = PullbackFunctor(INCL).obj(std)
    assert hom_dim(ind, std) == hom_dim(triv2, res)
    trivG = unit_sheaf(BS3, QQ)
    resG = PullbackFunctor(INCL).obj(trivG)
    assert hom_dim(ind, trivG) == hom_dim(triv2, resG) == 1


def test_ran_projection_cell():
    sgn = sign_rep_c2()
    cell = ran_projection_cell(P_C2, sgn, unit_sheaf(PT, QQ))
    assert cell.validate() == []


def test_base_change_over_f5():
    F5 = GF(5)
    triv = unit_sheaf(BC2, F5)
    pt_incl = Functor(PT, BS3, {PT.objects[0]: BS3.objects[0]},
                      {PT.morphisms[0]: BS3.identity[BS3.objects[0]]})
    square, _ = CommutingSquare.from_iso_comma(INCL, pt_incl)
    _, cell = verify_base_change(square, triv)
    assert cell.is_invertible()


def test_lan_gate_raises_where_ran_does_not():
    # built directly, so no gate check runs before the Kan extensions
    obj = BC2.objects[0]
    F2 = GF(2)
    triv = Sheaf(BC2, F2, {obj: 1},
                 {g: Matrix.identity(F2, 1) for g in C2.elements})
    with pytest.raises(GateError):
        LanFunctor(P_C2).obj(triv)
    inv = RanFunctor(P_C2).obj(triv)
    assert inv.dim[PT.objects[0]] == 1
    # neither the failed f_! call nor the f_* data sharing its content may
    # let a second identical call through
    lan = LanFunctor(P_C2)
    for _ in range(2):
        with pytest.raises(GateError):
            lan.obj(triv)
    with pytest.raises(GateError):
        LanFunctor(P_C2).obj(triv)


def test_invariant_cache_keys_on_the_field():
    # the zero sheaves over QQ and GF(5) have 0x0 matrices, with no entry
    # to tell them apart; the QQ data must not answer the GF(5) call
    _invariant_data.cache_clear()
    for functor in (LanFunctor, RanFunctor):
        functor(P_C2)._data(zero_sheaf(BC2, QQ))
        data = functor(P_C2)._data(zero_sheaf(BC2, GF(5)))
        (iota, pi, leg, _), = data[PT.objects[0]]
        assert iota.shape == (0, 0)
        assert iota.field == pi.field == leg.field == GF(5)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_invariant_cache_cold_equals_warm(field):
    probes = [std_rep_s3(field), regular_rep(BS3, S3, field),
              unit_sheaf(BS3, field)]

    def data():
        return [functor(P_S3)._data(M)
                for functor in (LanFunctor, RanFunctor) for M in probes]

    warm = data()
    _invariant_data.cache_clear()
    cold = data()
    misses = _invariant_data.cache_info().misses
    assert misses > 0
    # new functor instances, same content: served by the shared level
    again = data()
    assert _invariant_data.cache_info().misses == misses
    assert cold == warm == again


def test_equality_sees_the_field():
    # integral Q scalars and F_p scalars are both ints, so only the field
    # tells these apart
    for a, b, equal in ((QQ, GF(5), False), (GF(5), GF(5), True)):
        assert (Matrix.identity(a, 2) == Matrix.identity(b, 2)) is equal
        assert sheaves_equal(unit_sheaf(BC2, a), unit_sheaf(BC2, b)) is equal


def test_scalar_representation_splits_no_equality_or_cache_entry():
    # a QQ entry is an int when integral, but mixed arithmetic can leave an
    # integral Fraction; both forms must be one matrix, one sheaf and one
    # cache entry
    def sign_rep(scalar):
        mats = {g: Matrix(QQ, [[scalar(1 if g == C2.identity else -1)]])
                for g in C2.elements}
        return Sheaf(BC2, QQ, {BC2.objects[0]: 1}, mats, check=True)

    as_ints, as_fractions = sign_rep(int), sign_rep(Fraction)
    for g in C2.elements:
        a, b = as_ints.mat[g], as_fractions.mat[g]
        assert type(b.entry(0, 0)) is Fraction
        assert a == b and hash(a) == hash(b)
    assert sheaves_equal(as_ints, as_fractions)
    _invariant_data.cache_clear()
    for M in (as_ints, as_fractions):
        LanFunctor(P_C2)._data(M)
    assert _invariant_data.cache_info().misses == 1
    assert _invariant_data.cache_info().hits == 1


def test_unit_sheaf_on_bc2_has_identity_invariant_data():
    # the non-identity automorphism of BC2 acts on the unit sheaf as I
    for functor in (LanFunctor, RanFunctor):
        (iota, pi, leg, _), = functor(P_C2)._data(
            unit_sheaf(BC2, QQ))[PT.objects[0]]
        eye = Matrix.identity(QQ, 1)
        assert iota == pi == leg == eye


def _combination(basis, coeffs):
    src, dst = basis[0].src, basis[0].dst
    fld = src.field
    comp = {}
    for x in src.dim:
        acc = Matrix.zero(fld, dst.dim[x], src.dim[x])
        for c, b in zip(coeffs, basis):
            acc = acc + b.comp[x].scale(fld.of(c))
        comp[x] = acc
    return SheafMorphism(src, dst, comp)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
@pytest.mark.parametrize("along", [INCL, P_C2], ids=["incl", "to_point"])
@pytest.mark.parametrize("functor", [LanFunctor, RanFunctor],
                         ids=["lan", "ran"])
def test_kan_extension_mor_is_functorial(functor, along, field):
    M = regular_rep(BC2, C2, field)
    N = tensor(sign_rep_c2(field), regular_rep(BC2, C2, field))
    K = regular_rep(BC2, C2, field)
    phi = _combination(hom_space(M, N), [2, -1])
    psi = _combination(hom_space(N, K), [1, 3])
    F = functor(along)
    assert F.mor(identity_morphism(M)).is_identity()
    lhs = F.mor(phi.then(psi))
    rhs = F.mor(phi).then(F.mor(psi))
    assert lhs.comp == rhs.comp
    assert not lhs.comp[along.cod.objects[0]].is_zero()


# f: BC2 ⊔ BC2 ⊔ BS3 ⊔ BC2 -> BS3 ⊔ BC2 ⊔ *, by INCL, the trivial map, the
# identity and the identity; the fibre over (0, *) has 3 + 6 + 1
# components and the fibre over (2, *) is empty
_DU_DOM = disjoint_union([BC2, BC2, BS3, BC2])
_DU_COD = disjoint_union([BS3, BC2, PT])
_c2o, _s3o = BC2.objects[0], BS3.objects[0]
DU_MAP = Functor(
    _DU_DOM, _DU_COD,
    {(0, _c2o): (0, _s3o), (1, _c2o): (0, _s3o), (2, _s3o): (0, _s3o),
     (3, _c2o): (1, _c2o)},
    {(i, g): ((0, S3.identity) if i == 1 else (1, g) if i == 3 else (0, g))
     for (i, g) in _DU_DOM.morphisms})

_GAUGES = ([[1, 2, 0], [0, 1, 1], [1, 0, 1]],
           [[2, 1, 1], [1, 1, 0], [0, 1, 1]])


def _perm_matrix(field, perm):
    return Matrix.from_int_rows(field, permutation(perm))


def _sheaf_per_component(grpd, field, dim, of_group_element):
    """A sheaf on BS3, BC2 or a disjoint union of them; the morphism g of
    component i (of the only component for a delooping) acts by
    of_group_element(i, g)."""
    if grpd in (BS3, BC2):
        mats = {g: of_group_element(0, g) for g in grpd.morphisms}
    else:
        mats = {(i, g): of_group_element(i, g) for (i, g) in grpd.morphisms}
    return Sheaf(grpd, field, {x: dim for x in grpd.objects}, mats,
                 check=True)


def _sgn_sheaf(grpd, field):
    return _sheaf_per_component(
        grpd, field, 1, lambda i, g: Matrix.from_int_rows(field, [[sign(g)]]))


def _gauged_permutation_sheaf(grpd, field):
    """The permutation action on k^3, conjugated by a different invertible
    matrix on each component."""
    gauges = [Matrix.from_int_rows(field, _GAUGES[i % 2]) for i in range(4)]
    inverses = [a.inverse() for a in gauges]
    return _sheaf_per_component(
        grpd, field, 3,
        lambda i, g: gauges[i] * _perm_matrix(field, g) * inverses[i])


def _stacked_reference(F, M):
    """The structure matrices, and the cocone legs or section values, of
    F.obj(M), assembled as stacks: every leg or section gets a zero block
    for each other component, is multiplied at full size, and the results
    are stacked again."""
    f, fld = F.f, M.field
    X, inv = f.cod, f.dom.inverse
    data = F._data(M)
    dims = {x: sum(c[0].ncols for c in data[x]) for x in data}

    def leg(x, o):
        r, p = F.fibers[x].locate[o]
        d = M.dim[o[0]]
        return stack_rows(fld, [
            c[2] * M.mat[inv[p]] if i == r
            else Matrix.zero(fld, c[0].ncols, d)
            for i, c in enumerate(data[x])], d)

    def section(x, o):
        r, p = F.fibers[x].locate[o]
        d = M.dim[o[0]]
        return stack_columns(fld, [
            M.mat[p] * c[0] if i == r else Matrix.zero(fld, d, c[0].ncols)
            for i, c in enumerate(data[x])], d)

    mats = {}
    for xi in X.morphisms:
        x, x2 = X.src[xi], X.dst[xi]
        if isinstance(F, LanFunctor):
            mats[xi] = stack_columns(fld, [
                leg(x2, (y, X.compose(xi, m))) * iota
                for (iota, _, _, (y, m)) in data[x]], dims[x2])
        else:
            mats[xi] = stack_rows(fld, [
                lg * section(x, (y, X.compose(m, xi)))
                for (_, _, lg, (y, m)) in data[x2]], dims[x])
    return mats, (leg if isinstance(F, LanFunctor) else section)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
@pytest.mark.parametrize("make", [_sgn_sheaf, _gauged_permutation_sheaf],
                         ids=["sign", "gauged_perm"])
@pytest.mark.parametrize("along", [INCL, P_S3, DU_MAP],
                         ids=["incl", "to_point", "disjoint_unions"])
@pytest.mark.parametrize("functor", [LanFunctor, RanFunctor],
                         ids=["lan", "ran"])
def test_kan_block_assembly_matches_stacked_reference(functor, along, make,
                                                      field):
    F = functor(along)
    M = make(along.dom, field)
    FM = F.obj(M)
    assert FM.validate() == []
    ref, ref_value = _stacked_reference(F, M)
    assert FM.mat.keys() == ref.keys()
    for xi, a in FM.mat.items():
        b = ref[xi]
        assert a.shape == b.shape
        assert all(a.entry(i, j) == b.entry(i, j)
                   for i in range(a.nrows) for j in range(a.ncols))
    if functor is LanFunctor:
        # the f_! unit at y is the cocone leg at (y, id_{f(y)})
        unit, X = LanAdjunction(along).unit(M), along.cod
        assert unit.comp.keys() == set(along.dom.objects)
        for y, leg in unit.comp.items():
            x = along.ob[y]
            assert leg == ref_value(x, (y, X.identity[x]))
    else:
        for x, fiber in F.fibers.items():
            for o in fiber.locate:
                assert F.section_value(M, x, o) == ref_value(x, o)
    # one built sheaf per sheaf, reused by mor
    assert F.obj(M) is FM
    phi = identity_morphism(M)
    cell = F.mor(phi)
    assert cell.src is F.obj(phi.src) and cell.dst is F.obj(phi.dst)
    assert cell.is_identity()


def _conjugated(M, g):
    """The sheaf g · M · g⁻¹, isomorphic to M through g."""
    g_inv = g.inverse()
    return Sheaf(M.base, M.field, dict(M.dim),
                 {u: g * a * g_inv for u, a in M.mat.items()}, check=True)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_hom_space_elements_are_natural(field):
    """Every basis element of Hom(M, N) is natural, also when the
    intertwiners are not closed under transposition: the standard
    representation against a non-symmetric gauge of itself, and against
    the permutation representation (different dimensions)."""
    std = std_rep_s3(field)
    gstd = _conjugated(std, Matrix.from_int_rows(field, [[1, 1], [0, 1]]))
    perm = Sheaf(BS3, field, {BS3.objects[0]: 3},
                 {g: _perm_matrix(field, g) for g in S3.elements},
                 check=True)
    for M, N, dim in ((std, gstd, 1), (std, perm, 1), (perm, std, 1)):
        basis = hom_space(M, N)
        assert len(basis) == dim
        assert all(b.validate() == [] for b in basis)
    iso = find_isomorphism(std, gstd)
    assert iso is not None and iso.validate() == []


# ---------------------------------------------------------------------------
# Fibers: shared per functor object, and equal to a plain breadth-first search
# ---------------------------------------------------------------------------

def _reference_fiber(f, x, kind):
    """(reps, locate, auts) of the fiber of f over x by a plain
    breadth-first search: every adjacency list sorted by okey, the frontier
    a list popped from the front."""
    Y, X = f.dom, f.cod
    if kind == "lan":
        objs = [(y, m) for y in Y.objects for m in X.hom(f.ob[y], x)]
    else:
        objs = [(y, m) for y in Y.objects for m in X.hom(x, f.ob[y])]
    adj = {o: [] for o in objs}
    for (y, m) in objs:
        for u in Y.morphisms:
            if Y.src[u] != y:
                continue
            if kind == "lan":
                m2 = X.compose(m, X.inverse[f.mor[u]])
            else:
                m2 = X.compose(f.mor[u], m)
            adj[(y, m)].append((u, (Y.dst[u], m2)))
    locate, reps = {}, []
    for o in sorted(objs, key=okey):
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
    auts = {rep: [u for (u, o2) in adj[rep] if o2 == rep] for rep in reps}
    return reps, locate, auts


def _product_projection():
    """pr02 out of the triple product of (BC2, INCL) over BS3, a functor
    whose fibers have components of several objects."""
    triple = RelProduct(BS3, [(BC2, INCL)] * 3)
    return triple.proj_onto((0, 2), RelProduct(BS3, [(BC2, INCL)] * 2))


@pytest.mark.parametrize("kind", [LanFunctor, RanFunctor], ids=["lan", "ran"])
def test_fibers_equal_the_plain_breadth_first_search(kind):
    rng = random.Random(13)
    nontrivial = inverted = 0
    for f in [delooping_map(rng) for _ in range(25)] + [
            _product_projection()]:
        assert f.validate() == []
        F = kind(f)
        assert F.fibers.keys() == set(f.cod.objects)
        for x, fiber in F.fibers.items():
            reps, locate, auts = _reference_fiber(f, x, F.kind)
            assert fiber.reps == reps
            assert fiber.locate == locate
            identity, X = f.dom.identity, f.cod
            assert fiber.parts == [
                (rep, rep[0], rep[1], rep[1] == X.identity[X.src[rep[1]]],
                 tuple(u for u in a if u != identity[rep[0]]), len(a))
                for rep, a in auts.items()]
            nontrivial += any(len(a) > 1 for a in auts.values())
            if F.kind == "ran":
                assert fiber.unit is None
                continue
            # (y, r, p⁻¹) at every (y, id_x), p⁻¹ None for an identity p
            expected = []
            for y in f.dom.objects:
                if f.ob[y] == x:
                    r, p = locate[(y, X.identity[x])]
                    expected.append((y, r, None if p == identity[y]
                                     else f.dom.inverse[p]))
            assert fiber.unit == expected
            inverted += any(p_inv is not None for _, _, p_inv in fiber.unit)
    assert nontrivial > 0
    assert inverted > 0 or kind is RanFunctor


def test_kan_functors_on_one_functor_share_fibers_and_pushes():
    M = sign_rep_c2()
    F1, F2 = LanFunctor(INCL), LanFunctor(INCL)
    assert F1.fibers is F2.fibers
    assert RanFunctor(INCL).fibers is RanFunctor(INCL).fibers
    assert RanFunctor(INCL).fibers is not F1.fibers
    assert F1._cache is not F2._cache
    F1.obj(M)
    assert id(M) in F1._cache and id(M) not in F2._cache
    # the push is shared through the functor object, the id(M) memo is not
    assert F2.obj(M) is F1.obj(M)
    # keyed by the functor object, not by its content
    twin = Functor(INCL.dom, INCL.cod, INCL.ob, INCL.mor)
    assert LanFunctor(twin).fibers is not F1.fibers


def test_fibers_are_dropped_with_their_functor():
    f = Functor(INCL.dom, INCL.cod, INCL.ob, INCL.mor)
    LanFunctor(f).obj(sign_rep_c2())
    RanFunctor(f)
    assert f in _FIBERS
    ref = weakref.ref(f)
    del f
    gc.collect()
    assert ref() is None


# ---------------------------------------------------------------------------
# The push memo: f_!M and f_*M by functor object and content, held weakly
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("functor", [LanFunctor, RanFunctor],
                         ids=["lan", "ran"])
@pytest.mark.parametrize("f, sheaf", [
    (INCL, sign_rep_c2), (P_S3, std_rep_s3),
], ids=["INCL-sign", "BS3-to-pt-std"])
def test_equal_sheaves_on_new_functors_share_one_push(functor, f, sheaf):
    M, M2 = sheaf(), sheaf()
    assert M is not M2 and sheaves_equal(M, M2)
    FM = functor(f).obj(M)
    assert functor(f).obj(M2) is FM
    assert functor(f)._data(M2) is functor(f)._data(M)


def test_pushes_never_cross_fields_or_functor_objects():
    # equal integer matrices over QQ and GF(5), and a twin of INCL with
    # equal tables: each gets a push of its own
    for functor in (LanFunctor, RanFunctor):
        over_q = functor(INCL).obj(unit_sheaf(BC2, QQ))
        over_5 = functor(INCL).obj(unit_sheaf(BC2, GF(5)))
        assert over_q is not over_5
        assert over_q.field == QQ and over_5.field == GF(5)
        twin = Functor(INCL.dom, INCL.cod, INCL.ob, INCL.mor)
        FM = functor(INCL).obj(sign_rep_c2())
        FM_twin = functor(twin).obj(sign_rep_c2())
        assert FM_twin is not FM and sheaves_equal(FM_twin, FM)


def test_push_is_dropped_with_the_built_sheaf():
    f = Functor(INCL.dom, INCL.cod, INCL.ob, INCL.mor)
    FM = LanFunctor(f).obj(sign_rep_c2())
    memo = _FIBERS[f]
    assert list(memo["pushes"].values()) == [FM]
    assert len(memo["data"]) == 1
    ref = weakref.ref(FM)
    del FM
    gc.collect()
    assert ref() is None
    assert len(memo["pushes"]) == 0 and len(memo["data"]) == 0


def test_gate_error_is_raised_on_every_call_and_never_stored():
    obj = BC2.objects[0]
    F2 = GF(2)

    def triv():
        return Sheaf(BC2, F2, {obj: 1},
                     {g: Matrix.identity(F2, 1) for g in C2.elements})

    # a live f_* push of the same content lends f_! nothing
    held = RanFunctor(P_C2).obj(triv())
    lan = LanFunctor(P_C2)
    for M in (triv(), triv()):
        for F in (lan, lan, LanFunctor(P_C2)):
            with pytest.raises(GateError):
                F.obj(M)
    pushes = _FIBERS[P_C2]["pushes"]
    assert held in pushes.values()
    assert all(kind != "lan" for kind, *_ in pushes)


def _count_fiber_builds(monkeypatch):
    """Counter of `_Fiber` builds by (functor name, kind)."""
    builds = Counter()
    init = sheaves._Fiber.__init__

    def counting(self, f, kind, objs):
        builds[(f.name, kind)] += 1
        init(self, f, kind, objs)

    monkeypatch.setattr(sheaves._Fiber, "__init__", counting)
    return builds


def test_point_map_and_identity_are_built_once_per_category(monkeypatch):
    X = disjoint_union([BC2, BS3])
    builds = _count_fiber_builds(monkeypatch)
    M = unit_sheaf(X, QQ)
    for _ in range(3):
        hom_space(M, M)
        global_sections(X, M)
        lan_identity_comparison(X, M)
    assert builds[("to *", "ran")] == 1
    assert builds[("to *", "lan")] == 1
    # one fiber per target object, built once
    assert builds[("id", "lan")] == len(X.objects)
    assert X.to_point is X.to_point and X.to_point.dom is X
    assert X.identity_functor is X.identity_functor


def test_category_is_freed_with_its_point_map():
    X = disjoint_union([BC2, BC2])
    M = unit_sheaf(X, QQ)
    hom_space(M, M)
    p = X.to_point
    assert p in _FIBERS
    refs = [weakref.ref(X), weakref.ref(p)]
    del X, M, p
    gc.collect()
    assert [r() for r in refs] == [None, None]


# ---------------------------------------------------------------------------
# Hom(M, N) = Γ(iHom(M, N)) against the commutant solver it replaced
# ---------------------------------------------------------------------------

def _reference_hom_space(M, N):
    """Basis of Hom(M, N) solved per component of `transport_to_reps`: the
    commutant equations N(a) φ = φ M(a) over the automorphisms a of the
    representative, then φ transported to every other object x of the
    component along t_x: rep -> x."""
    G = M.base
    f = M.field
    t, comp_of = transport_to_reps(G)
    reps = sorted(set(comp_of.values()), key=okey)
    basis_blocks = {}
    for r in reps:
        auts = [a for a in G.hom(r, r) if a != G.identity[r]]
        dm, dn = M.dim[r], N.dim[r]
        if dm == 0 or dn == 0:
            basis_blocks[r] = []
            continue
        rows = []
        for a in auts:
            # row-major vec: (I_n kron M(a)^T - N(a) kron I_m) vec φ
            lhs = (Matrix.identity(f, dn).kron(M.mat[a].transpose())
                   - N.mat[a].kron(Matrix.identity(f, dm)))
            rows.append(lhs)
        null = stack_rows(f, rows, dm * dn).nullspace()
        basis_blocks[r] = [
            Matrix(f, [[v.rows[i * dm + j][0] for j in range(dm)]
                       for i in range(dn)], ncols=dm) for v in null]
    out = []
    for r in reps:
        for phi in basis_blocks[r]:
            comp = {}
            for x in G.objects:
                if comp_of[x] != r:
                    comp[x] = Matrix.zero(f, N.dim[x], M.dim[x])
                else:
                    comp[x] = N.mat[t[x]] * phi * M.mat[G.inverse[t[x]]]
            out.append(SheafMorphism(M, N, comp))
    return out


@st.composite
def gauged_sheaves(draw):
    """(M, u): a gauge-conjugated sheaf M over QQ or GF(5) on a random
    disjoint union of action groupoids and deloopings of subgroups of S3,
    and a morphism u whose matrix is not 0 x 0, not an identity where
    another one will do (None if every matrix is 0 x 0)."""
    field = draw(st.sampled_from([QQ, GF(5)]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    U = union(rng)
    M, G = sheaf(rng, U, field), U.grpd
    live = [u for u in G.morphisms if M.dim[G.src[u]]]
    moving = [u for u in live if u != G.identity[G.src[u]]]
    return M, draw(st.sampled_from(moving or live)) if live else None


def _perturbed(M, u):
    """M with the (0, 0) entry of its matrix A at u moved by c.  No valid
    sheaf has the result: u∘u⁻¹ = id fails, and for u = u⁻¹ the (0, 0)
    entry of (A + cE)² - 1 is c(2a + c), which c = 1 or 2 keeps nonzero."""
    f = M.field
    a = M.mat[u]
    c = f.one if f.of(2 * a.entry(0, 0) + 1) else f.of(2)
    bump = Matrix.from_entries(f, [c] + [f.zero] * (a.nrows * a.ncols - 1),
                               a.nrows, a.ncols)
    return Sheaf(M.base, f, M.dim, {**M.mat, u: a + bump})


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(gauged_sheaves())
def test_validate_accepts_sheaves_and_rejects_one_perturbed_matrix(case):
    M, u = case
    assert M.validate() == []
    if u is not None:
        assert _perturbed(M, u).validate() != []


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(gauged_sheaves())
def test_sheaves_equal_is_reflexive_and_sees_one_morphism(case):
    M, u = case
    assert sheaves_equal(M, M)
    assert sheaves_equal(M, Sheaf(M.base, M.field, M.dim, M.mat))
    if u is not None:
        bad = _perturbed(M, u)
        assert not sheaves_equal(M, bad) and not sheaves_equal(bad, M)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
def test_hom_space_equals_the_reference_solver(field):
    """On random disjoint unions of action groupoids and deloopings of S3,
    C2, C3 and 1 with gauge-conjugated sheaves, the basis read from
    Γ(iHom(M, N)) is the commutant solver's, entry by entry."""
    rng = random.Random(41)
    several = zero_dim = transported = 0
    for _ in range(12):
        U = union(rng)
        G = U.grpd
        reps_m = [rep(rng, field) for _ in U.pieces]
        reps_n = reps_m if rng.random() < 0.5 else \
            [rep(rng, field) for _ in U.pieces]
        M = gauged_sheaf(rng, U, reps_m, field)
        N = gauged_sheaf(rng, U, reps_n, field)
        basis, ref = hom_space(M, N), _reference_hom_space(M, N)
        assert len(basis) == len(ref)
        for b, r in zip(basis, ref):
            assert b.comp.keys() == r.comp.keys()
            for x, a in b.comp.items():
                assert a.shape == r.comp[x].shape
                assert all(a.entry(i, j) == r.comp[x].entry(i, j)
                           for i in range(a.nrows) for j in range(a.ncols))
            assert b.validate() == []
        comps = transport_to_reps(G)[1]
        several += len(set(comps.values())) < len(G.objects)
        zero_dim += 0 in M.dim.values() or 0 in N.dim.values()
        transported += any(not b.comp[x].is_zero() for b in basis
                           for x in G.objects if comps[x] != x)
    assert several and zero_dim and transported


def test_hom_space_representative_in_the_prefix_case():
    """Objects "x" and "x'" of one component: okey("x") is a prefix of
    okey("x'"), but in the fiber object (x, id) it is followed by ",",
    which sorts after "'", so Γ reads the component at x', not at x as
    the commutant solver did.  The basis is pinned; it spans the same
    space as the solver's."""
    A3 = C3.elements
    act = {(g, o): o if g in A3 else {"x": "x'", "x'": "x"}[o]
           for g in S3.elements for o in ("x", "x'")}
    G, proj = action_groupoid(S3, ["x", "x'"], act)
    std = std_rep_s3()
    gauge = {"x": Matrix.from_int_rows(QQ, [[1, 1], [0, 1]]),
             "x'": Matrix.from_int_rows(QQ, [[2, 1], [1, 1]])}
    M = PullbackFunctor(proj).obj(std)
    N = Sheaf(G, QQ, M.dim, {
        u: gauge[G.dst[u]] * a * gauge[G.src[u]].inverse()
        for u, a in M.mat.items()}, check=True)
    e = PT.identity[PT.objects[0]]
    assert okey("x") < okey("x'") and okey(("x'", e)) < okey(("x", e))
    basis, ref = hom_space(M, N), _reference_hom_space(M, N)
    third = Fraction(1, 3)
    pinned = [  # each basis element's blocks at x and at x'
        ([[0, 1], [-third, 2 * third]], [[5 * third, -third], [1, 0]]),
        ([[1, 0], [third, third]], [[third, 4 * third], [0, 1]]),
    ]
    assert [[b.comp[x] for x in ("x", "x'")] for b in basis] == [
        [Matrix(QQ, rows) for rows in pair] for pair in pinned]
    assert len(ref) == 2
    assert all(b.validate() == [] for b in basis)
    for b in basis:
        morphism_coordinates(ref, b)
    for r in ref:
        morphism_coordinates(basis, r)
    assert [b.comp for b in basis] != [r.comp for r in ref]
