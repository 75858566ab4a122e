import itertools

import pytest

from sixff.groupoid import FiniteCategory, StructureError
from sixff.twocat import (
    AdjunctionQuadruple, BoundedSearchRefusal, PointwiseAuditReport,
    StrictTwoCat, adjoint_uniqueness, cat_two_cat, mate_lambda, mate_rho,
    pointwise_audit, scalar_two_cat, upgrade_weak, verify_adjunction,
)


def test_scalar_two_cat_valid():
    C = scalar_two_cat(["0", "1", "2"], 3)
    assert C.validate() == []
    for X in C.objects:
        for Y in C.objects:
            assert len(C.two_cells(X, Y)) == 3


def test_identity_adjunction_passes():
    C = scalar_two_cat(["0", "1"], 3)
    f = ("c", "0", "1")
    g = ("c", "1", "0")
    q = AdjunctionQuadruple(f, g, ("s", "0", "0", 1), ("s", "1", "1", 1))
    ok, why = verify_adjunction(q, C)
    assert ok, why


def test_mismatched_counit_fails_with_name():
    C = scalar_two_cat(["0", "1"], 5)
    f = ("c", "0", "1")
    g = ("c", "1", "0")
    q = AdjunctionQuadruple(f, g, ("s", "0", "0", 1), ("s", "1", "1", 2))
    ok, why = verify_adjunction(q, C)
    assert not ok and "left triangle" in why


def test_upgrade_weak_repairs_twist():
    C = scalar_two_cat(["0", "1"], 5)
    f = ("c", "0", "1")
    g = ("c", "1", "0")
    # eta twisted by the invertible scalar 2: composites are invertible
    q = AdjunctionQuadruple(f, g, ("s", "0", "0", 2), ("s", "1", "1", 1))
    ok, _ = verify_adjunction(q, C)
    assert not ok
    q2 = upgrade_weak(q, C)
    ok, why = verify_adjunction(q2, C)
    assert ok, why


def test_upgrade_weak_central_order_two():
    # identity adjunction twisted by -1 (order 2) over F5: 4 = -1
    C = scalar_two_cat(["0"], 5)
    f = ("c", "0", "0")
    q = AdjunctionQuadruple(f, f, ("s", "0", "0", 4), ("s", "0", "0", 1))
    q2 = upgrade_weak(q, C)
    assert verify_adjunction(q2, C)[0]


def test_upgrade_weak_rejects_non_invertible():
    C = scalar_two_cat(["0"], 5)
    f = ("c", "0", "0")
    q = AdjunctionQuadruple(f, f, ("s", "0", "0", 0), ("s", "0", "0", 1))
    with pytest.raises(StructureError):
        upgrade_weak(q, C)


def _all_adjunctions(C, f, g):
    Y, X = C.hom_of_1cell(f)
    out = []
    for eta in C.hom[(Y, Y)].hom(C.id1[Y], C.h1(g, f)):
        for eps in C.hom[(X, X)].hom(C.h1(f, g), C.id1[X]):
            q = AdjunctionQuadruple(f, g, eta, eps)
            if verify_adjunction(q, C)[0]:
                out.append(q)
    return out


def test_mates_exhaustive_scalar_model():
    """rho and lambda are mutually inverse on every 2-cell of every mate
    square of a 3-object strict 2-category with 3 cells per hom set."""
    C = scalar_two_cat(["0", "1", "2"], 3)
    f = ("c", "0", "1")
    g = ("c", "1", "0")
    adjs = _all_adjunctions(C, f, g)
    assert adjs
    adj = adjs[0]
    fp = ("c", "2", "1")
    gp = ("c", "1", "2")
    adjp = _all_adjunctions(C, fp, gp)[0]
    a = ("c", "0", "2")
    b = ("c", "1", "1")
    hom_phi = C.hom[("0", "1")]
    count = 0
    for phi in hom_phi.hom(C.h1(fp, a), C.h1(b, f)):
        psi = mate_rho(phi, adj, adjp, a, b, C)
        back = mate_lambda(psi, adj, adjp, a, b, C)
        assert back == phi
        count += 1
    for psi in C.hom[("1", "2")].hom(C.h1(a, adj.g), C.h1(adjp.g, b)):
        phi = mate_lambda(psi, adj, adjp, a, b, C)
        again = mate_rho(phi, adj, adjp, a, b, C)
        assert again == psi
        count += 1
    assert count == 6  # exhaustive over both hom sets


def test_mates_identity_square():
    C = scalar_two_cat(["0", "1"], 3)
    f = ("c", "0", "1")
    g = ("c", "1", "0")
    adj = _all_adjunctions(C, f, g)[0]
    a = C.id1["0"]
    b = C.id1["1"]
    ident = C.id2(C.h1(f, a))
    # rho of the identity collapses to the unit-counit composite
    psi = mate_rho(ident, adj, adj, a, b, C)
    back = mate_lambda(psi, adj, adj, a, b, C)
    assert back == ident


def test_adjoint_uniqueness():
    C = scalar_two_cat(["0", "1"], 5)
    f = ("c", "0", "1")
    g = ("c", "1", "0")
    adjs = _all_adjunctions(C, f, g)
    q1 = adjs[0]
    for q2 in adjs:
        cell = adjoint_uniqueness(q1, q2, C)
        assert C.is_invertible_2cell(cell)


def test_adjoint_uniqueness_rejects_different_left_adjoints():
    C = scalar_two_cat(["0", "1"], 5)
    q = _all_adjunctions(C, ("c", "0", "1"), ("c", "1", "0"))[0]
    qop = _all_adjunctions(C, ("c", "1", "0"), ("c", "0", "1"))[0]
    with pytest.raises(ValueError, match="different left adjoints"):
        adjoint_uniqueness(q, qop, C)


def test_pointwise_audit_equivalence():
    C = scalar_two_cat(["0", "1"], 3)
    f = ("c", "0", "1")
    report = pointwise_audit(f, C)
    assert report.has_right_adjoint
    assert report.criterion_holds
    assert report.agreement


def _cat_two_cat():
    """Cat on the terminal category Z, the arrow Y and two points X."""
    one = FiniteCategory(["*"], [("i",)], {("i",): "*"}, {("i",): "*"},
                         {"*": ("i",)}, {(("i",), ("i",)): ("i",)})
    arrow_objs = ["a0", "a1"]
    arrow_m = [("id", "a0"), ("id", "a1"), ("ar",)]
    arrow = FiniteCategory(
        arrow_objs, arrow_m,
        {("id", "a0"): "a0", ("id", "a1"): "a1", ("ar",): "a0"},
        {("id", "a0"): "a0", ("id", "a1"): "a1", ("ar",): "a1"},
        {"a0": ("id", "a0"), "a1": ("id", "a1")},
        {(("id", "a0"), ("id", "a0")): ("id", "a0"),
         (("id", "a1"), ("id", "a1")): ("id", "a1"),
         (("ar",), ("id", "a0")): ("ar",),
         (("id", "a1"), ("ar",)): ("ar",)})
    two_disc = FiniteCategory(
        ["d0", "d1"], [("id", "d0"), ("id", "d1")],
        {("id", "d0"): "d0", ("id", "d1"): "d1"},
        {("id", "d0"): "d0", ("id", "d1"): "d1"},
        {"d0": ("id", "d0"), "d1": ("id", "d1")},
        {(("id", "d0"), ("id", "d0")): ("id", "d0"),
         (("id", "d1"), ("id", "d1")): ("id", "d1")})
    return cat_two_cat({"Z": one, "Y": arrow, "X": two_disc})


def test_pointwise_audit_failure_case():
    """In the genuine 2-category of small categories, post-composition with
    the collapse functor [1] -> {0,1} onto one point has no right adjoint
    on hom(1, -), so condition (a) of the criterion fails."""
    C = _cat_two_cat()
    assert C.validate() == []
    # the collapse functor Y -> X constant at d0
    f = None
    for c in C.one_cells("Y", "X"):
        ob = dict(c[3])
        if ob["a0"] == "d0" and ob["a1"] == "d0":
            f = c
    assert f is not None
    report = pointwise_audit(f, C, test_objects=["Z"])
    assert not report.has_right_adjoint
    assert "condition (a)" in report.detail
    # sanity: an equivalence passes the audit with an adjoint found
    iden = C.id1["X"]
    rep2 = pointwise_audit(iden, C, test_objects=["Z", "X"])
    assert rep2.has_right_adjoint and rep2.criterion_holds and rep2.agreement


def test_pointwise_audit_budget_refusal():
    C = scalar_two_cat(["0", "1"], 3)
    with pytest.raises(BoundedSearchRefusal):
        pointwise_audit(("c", "0", "1"), C, budget=1)


@pytest.mark.parametrize("build", [
    lambda: scalar_two_cat(["0", "1", "2"], 3),
    lambda: scalar_two_cat(["0", "1"], 3),
    lambda: scalar_two_cat(["0", "1"], 5),
    lambda: scalar_two_cat(["0"], 5),
    _cat_two_cat,
], ids=["scalar3x3", "scalar2x3", "scalar2x5", "scalar1x5", "cat"])
def test_horizontal_tables_have_one_entry_per_composable_pair(build):
    C = build()
    ones = [f for cat in C.hom.values() for f in cat.objects]
    twos = [t for cat in C.hom.values() for t in cat.morphisms]
    pairs1 = {(g, f) for f in ones for g in ones
              if C.hom_of_1cell(g)[0] == C.hom_of_1cell(f)[1]}
    pairs2 = {(b, a) for a in twos for b in twos
              if C.hom_of_1cell(C.cell_src(b))[0]
              == C.hom_of_1cell(C.cell_src(a))[1]}
    assert pairs1 and pairs2
    assert set(C.hcomp1) == pairs1 and len(C.hcomp1) == len(pairs1)
    assert set(C.hcomp2) == pairs2 and len(C.hcomp2) == len(pairs2)


def test_scalar_h2_is_the_product_mod_p():
    C = scalar_two_cat(["0", "1"], 5)
    for X, Y, Z in itertools.product(C.objects, repeat=3):
        for v in range(5):
            for w in range(5):
                assert C.h2(("s", Y, Z, v), ("s", X, Y, w)) == \
                    ("s", X, Z, v * w % 5)
