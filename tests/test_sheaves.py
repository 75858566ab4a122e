import random
from fractions import Fraction

import pytest

from sixff import presets
from sixff.fields import GF, QQ, GateError, check_gate
from sixff.groupoid import (
    Functor, delooping, delooping_hom, disjoint_union, identity_functor,
    terminal_groupoid, to_terminal,
)
from sixff.linalg import Matrix, stack_columns, stack_rows
from sixff.sheaves import (
    CommutingSquare, LanFunctor, PullbackFunctor, RanFunctor, Sheaf,
    SheafMorphism,
    adj_ambidextrous, adj_lan_pullback, adj_pullback_ran, adj_tensor_hom,
    base_change_cell, compose_comparison_lan, compose_comparison_ran,
    double_dual_cell, find_isomorphism, global_sections, hom_dim,
    hom_form_cell, hom_space,
    identity_morphism, internal_hom, lan_identity_comparison, lan_shriek,
    norm_certificate, norm_map, projection_formula_cell_left,
    projection_formula_cell_right, ran_projection_cell, ran_star,
    sheaf_from_rep, sheaves_equal, swap_cell, tensor, unit_sheaf,
    upper_shriek,
    verify_base_change, verify_projection_formula, zero_sheaf,
)
from sixff.sheaves import _invariant_data

S3 = presets.group("S3")
BS3 = delooping(S3)
C2sub = S3.subgroup(S3.generated_subgroup([(1, 0, 2)]), name="C2")
BC2 = delooping(C2sub)
INCL = delooping_hom({g: g for g in C2sub.elements}, BC2, BS3)
PT = terminal_groupoid()
P_S3 = to_terminal(BS3, PT)
P_C2 = to_terminal(BC2, PT)


def sign_rep_c2(field=QQ):
    obj = BC2.objects[0]
    mats = {}
    for g in C2sub.elements:
        is_id = g == C2sub.identity
        mats[g] = Matrix.from_int_rows(field, [[1 if is_id else -1]])
    return Sheaf(BC2, field, {obj: 1}, mats, check=True)


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
    ind, adj = lan_shriek(INCL, triv)
    assert ind.validate() == []
    assert ind.dim[BS3.objects[0]] == 3  # index [S3:C2]
    ok, why = adj.triangles_ok([triv, sign_rep_c2()],
                               [unit_sheaf(BS3, QQ), std_rep_s3()])
    assert ok, why


def test_lan_regular_from_point():
    pt_unit = unit_sheaf(PT, QQ)
    j = Functor(PT, BC2, {PT.objects[0]: BC2.objects[0]},
                {PT.morphisms[0]: BC2.identity[BC2.objects[0]]})
    reg, adj = lan_shriek(j, pt_unit)
    assert reg.dim[BC2.objects[0]] == 2
    ok, why = adj.triangles_ok([pt_unit], [unit_sheaf(BC2, QQ), sign_rep_c2()])
    assert ok, why


def test_ran_star_invariants():
    sgn = sign_rep_c2()
    inv, adj = ran_star(P_C2, sgn)
    assert inv.dim[PT.objects[0]] == 0
    reg = regular_rep(BC2, C2sub)
    invr, _ = ran_star(P_C2, reg)
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


def test_tensor_and_hom_adjunction():
    sgn = sign_rep_c2()
    triv = unit_sheaf(BC2, QQ)
    assert hom_dim(tensor(sgn, sgn), triv) == 1  # sign ⊗ sign = trivial
    adj = adj_tensor_hom(sgn)
    ok, why = adj.triangles_ok([triv, sgn, regular_rep(BC2, C2sub)],
                               [triv, sgn, regular_rep(BC2, C2sub)])
    assert ok, why
    # M ⊗ unit has the same underlying data as M (Kronecker with 1x1)
    reg = regular_rep(BC2, C2sub)
    assert tensor(reg, triv).mat == reg.mat
    assert tensor(triv, reg).mat == reg.mat


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
    ind, _ = lan_shriek(INCL, triv2)
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
                 {g: Matrix.identity(F2, 1) for g in C2sub.elements})
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
        mats = {g: Matrix(QQ, [[scalar(1 if g == C2sub.identity else -1)]])
                for g in C2sub.elements}
        return Sheaf(BC2, QQ, {BC2.objects[0]: 1}, mats, check=True)

    as_ints, as_fractions = sign_rep(int), sign_rep(Fraction)
    for g in C2sub.elements:
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
    M = regular_rep(BC2, C2sub, field)
    N = tensor(sign_rep_c2(field), regular_rep(BC2, C2sub, field))
    K = regular_rep(BC2, C2sub, field)
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


def _sign(perm):
    return (-1) ** sum(1 for i in range(3) for j in range(i + 1, 3)
                       if perm[i] > perm[j])


def _perm_matrix(field, perm):
    return Matrix.from_int_rows(field, [[1 if perm[j] == i else 0
                                         for j in range(3)]
                                        for i in range(3)])


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


def _sign_sheaf(grpd, field):
    return _sheaf_per_component(
        grpd, field, 1, lambda i, g: Matrix.from_int_rows(field, [[_sign(g)]]))


def _gauged_permutation_sheaf(grpd, field):
    """The permutation action on k^3, conjugated by a different invertible
    matrix on each component."""
    gauges = [Matrix.from_int_rows(field, _GAUGES[i % 2]) for i in range(4)]
    inverses = [a.inverse() for a in gauges]
    return _sheaf_per_component(
        grpd, field, 3,
        lambda i, g: gauges[i] * _perm_matrix(field, g) * inverses[i])


def _stacked_reference(F, M):
    """The structure matrices, cocone legs and section values of F.obj(M),
    assembled as stacks: every leg or section gets a zero block for each
    other component, is multiplied at full size, and the results are
    stacked again."""
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
@pytest.mark.parametrize("make", [_sign_sheaf, _gauged_permutation_sheaf],
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
    value = F.cocone_leg if functor is LanFunctor else F.section_value
    for x, fiber in F.fibers.items():
        for o in fiber.locate:
            assert value(M, x, o) == ref_value(x, o)
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
