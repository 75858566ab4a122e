import pytest

from sixff import descent, presets
from sixff.descent import (
    DescentDatum, DescentSetting, NotACover, descent_comparison, gauge_twist,
)
from sixff.fields import GF, QQ
from sixff.groupoid import (
    Functor, FiniteGroupoid, cech_nerve, delooping, delooping_hom,
    disjoint_union, identity_functor, terminal_groupoid, to_terminal,
)
from sixff.linalg import Matrix
from sixff.sheaves import (
    PullbackFunctor, RanFunctor, Sheaf, SheafMorphism, find_isomorphism,
    hom_dim, unit_sheaf,
)
from sixff.suite import SuiteConfig, _check_rng, check_descent

PT = terminal_groupoid()
C2 = presets.group("C2")
BC2 = delooping(C2)
S3 = presets.group("S3")
BS3 = delooping(S3)


def discrete(labels):
    grpds = [terminal_groupoid(obj=l) for l in labels]
    out = disjoint_union(grpds)
    return out


def pt_cover(base):
    return Functor(PT, base, {PT.objects[0]: base.objects[0]},
                   {PT.morphisms[0]: base.identity[base.objects[0]]})


def test_cover_must_be_surjective():
    X = disjoint_union([PT, PT])
    j = Functor(PT, X, {PT.objects[0]: X.objects[0]},
                {PT.morphisms[0]: X.identity[X.objects[0]]})
    with pytest.raises(NotACover):
        DescentSetting(j, QQ)


def test_two_point_cover_of_point():
    Y = disjoint_union([PT, PT])
    f = to_terminal(Y, PT)
    st = DescentSetting(f, QQ)
    M = Sheaf(PT, QQ, {PT.objects[0]: 2},
              {PT.morphisms[0]: Matrix.identity(QQ, 2)})
    datum = st.canonical_datum(M)
    assert st.is_valid(datum)
    # the datum consists of two vector spaces and four gluing matrices
    assert len(datum.alpha.comp) == 4
    V, theta = st.descend(datum)
    assert V.dim[PT.objects[0]] == 2
    cmp = descent_comparison(st,
                             probes_X=[unit_sheaf(PT, QQ), M],
                             probe_data=[datum])
    assert cmp.fully_faithful_ok and cmp.essentially_surjective_ok


def test_identity_cover():
    st = DescentSetting(identity_functor(BC2), QQ)
    M = unit_sheaf(BC2, QQ)
    datum = st.canonical_datum(M)
    assert st.is_valid(datum)
    V, theta = st.descend(datum)
    assert V.dim == M.dim


def test_point_cover_of_bc2_classifies_representations():
    f = pt_cover(BC2)
    st = DescentSetting(f, QQ)
    # data on the cover are C2-representations: trivial and sign
    W = unit_sheaf(PT, QQ)
    lvl1 = st.Y1
    # alpha assigns a scalar to each of the two level-1 objects
    trivial = {o: Matrix.from_int_rows(QQ, [[1]]) for o in lvl1.objects}
    sign = {o: Matrix.from_int_rows(
        QQ, [[1 if o[1][0] == C2.identity else -1]]) for o in lvl1.objects}
    p0W = st.p0.obj(W)
    p1W = st.p1.obj(W)
    d_triv = DescentDatum(W, SheafMorphism(p0W, p1W, trivial))
    d_sign = DescentDatum(W, SheafMorphism(p0W, p1W, sign))
    assert st.is_valid(d_triv) and st.is_valid(d_sign)
    # the two irreducibles are non-isomorphic and simple
    assert st.hom_dim(d_triv, d_triv) == 1
    assert st.hom_dim(d_sign, d_sign) == 1
    assert st.hom_dim(d_triv, d_sign) == 0
    V, theta = st.descend(d_sign)
    assert V.dim[BC2.objects[0]] == 1
    nontriv = [g for g in C2.elements if g != C2.identity][0]
    assert V.mat[nontriv] == Matrix.from_int_rows(QQ, [[-1]])


def test_cocycle_violation_detected():
    f = pt_cover(BC2)
    st = DescentSetting(f, QQ)
    W = unit_sheaf(PT, QQ)
    bad = {o: Matrix.from_int_rows(
        QQ, [[1 if o[1][0] == C2.identity else 2]]) for o in st.Y1.objects}
    datum = DescentDatum(W, SheafMorphism(st.p0.obj(W), st.p1.obj(W), bad))
    report = st.cocycle_report(datum)
    assert report != []


def test_point_cover_of_bs3_comparison():
    f = pt_cover(BS3)
    # probes: the three irreducible dimensions enter through hom-dims of
    # pullback data; unit + regular sheaf exercise 1 + all of them
    reg_mats = {}
    idx = {g: i for i, g in enumerate(S3.elements)}
    for g in S3.elements:
        rows = [[QQ.zero] * 6 for _ in range(6)]
        for h in S3.elements:
            rows[idx[S3.mul(g, h)]][idx[h]] = QQ.one
        reg_mats[g] = Matrix(QQ, rows)
    reg = Sheaf(BS3, QQ, {BS3.objects[0]: 6}, reg_mats)
    st = DescentSetting(f, QQ)
    cmp = descent_comparison(st,
                             probes_X=[unit_sheaf(BS3, QQ), reg],
                             probe_data=[])
    assert cmp.fully_faithful_ok
    datum = st.canonical_datum(reg)
    V, theta = st.descend(datum)
    assert V.dim[BS3.objects[0]] == 6
    assert hom_dim(V, V) == 6  # End of the regular representation over Q


def test_gauge_twisted_datum_descends():
    Y = disjoint_union([PT, PT])
    f = to_terminal(Y, PT)
    st = DescentSetting(f, QQ)
    M = Sheaf(PT, QQ, {PT.objects[0]: 2},
              {PT.morphisms[0]: Matrix.identity(QQ, 2)})
    datum = st.canonical_datum(M)
    # twist by an automorphism of f*M that differs per cover piece
    W = datum.sheaf
    comp = {}
    for i, y in enumerate(Y.objects):
        comp[y] = Matrix.from_int_rows(QQ, [[1, i + 1], [0, 1]])
    psi = SheafMorphism(W, W, comp)
    twisted = gauge_twist(st, datum, psi)
    assert st.is_valid(twisted)
    V, theta = st.descend(twisted)
    assert V.dim[PT.objects[0]] == 2
    assert st.hom_dim(twisted, datum) == st.hom_dim(datum, datum)


def test_random_surjection_cover():
    # random surjection of groupoids: two points + */C2 covering */C2 ⊔ pt
    X = disjoint_union([BC2, PT])
    Y = disjoint_union([BC2, PT, PT])
    ob = {}
    mor = {}
    for o in Y.objects:
        i, inner = o
        if i == 0:
            ob[o] = (0, inner)
        else:
            ob[o] = (1, PT.objects[0]) if i >= 1 else (0, inner)
    for m in Y.morphisms:
        i, inner = m
        if i == 0:
            mor[m] = (0, inner)
        else:
            mor[m] = X.identity[(1, PT.objects[0])]
    f = Functor(Y, X, ob, mor)
    st = DescentSetting(f, QQ)
    sgn_mats = {}
    for m in X.morphisms:
        i, inner = m
        if i == 0 and inner != C2.identity:
            sgn_mats[m] = Matrix.from_int_rows(QQ, [[-1]])
        else:
            sgn_mats[m] = Matrix.identity(QQ, 1)
    M = Sheaf(X, QQ, {x: 1 for x in X.objects}, sgn_mats)
    cmp = descent_comparison(st,
                             probes_X=[unit_sheaf(X, QQ), M],
                             probe_data=[st.canonical_datum(M)])
    assert cmp.fully_faithful_ok and cmp.essentially_surjective_ok


def test_check_descent_builds_one_nerve_per_cover(monkeypatch):
    built = []

    def counting(f, N):
        built.append(f)
        return cech_nerve(f, N=N)

    monkeypatch.setattr(descent, "cech_nerve", counting)
    config = SuiteConfig(seed=0, probes=2)
    status, witness = check_descent(
        config, _check_rng(config, "descent.comparison"))
    assert status == "pass", witness
    assert witness.startswith("%d covers" % len(built))


C2_IN_S3 = S3.subgroup(S3.generated_subgroup([(1, 0, 2)]), name="C2")
BC2_IN_S3 = delooping(C2_IN_S3)
INCL = delooping_hom({g: g for g in C2_IN_S3.elements}, BC2_IN_S3, BS3)


def _s3_sheaf(field, kind):
    """The unit, sign or standard (2-dimensional) representation of S3 as
    a sheaf on */S3; the standard one is the sum-zero subspace of k^3 in
    the basis e0 - e1, e1 - e2."""
    def perm(g):
        return Matrix.from_int_rows(field, [[1 if g[j] == i else 0
                                             for j in range(3)]
                                            for i in range(3)])
    if kind == "unit":
        return unit_sheaf(BS3, field)
    if kind == "sign":
        mats = {g: Matrix.from_int_rows(field, [[
            (-1) ** sum(g[i] > g[j] for i in range(3)
                        for j in range(i + 1, 3))]]) for g in S3.elements}
        return Sheaf(BS3, field, {BS3.objects[0]: 1}, mats, check=True)
    basis = Matrix.from_int_rows(field, [[1, 0], [-1, 1], [0, -1]])
    coords = Matrix.from_int_rows(field, [[1, 0, 0], [0, 0, -1]])
    mats = {g: coords * perm(g) * basis for g in S3.elements}
    return Sheaf(BS3, field, {BS3.objects[0]: 2}, mats, check=True)


@pytest.mark.parametrize("field", [QQ, GF(5)], ids=["QQ", "GF5"])
@pytest.mark.parametrize("cover, kind", [
    (INCL, "unit"), (INCL, "sign"), (INCL, "std"),
    (to_terminal(BC2, PT), "unit"),
], ids=["incl-unit", "incl-sign", "incl-std", "bc2-to-point-unit"])
def test_canonical_datum_descends_to_its_sheaf(cover, kind, field):
    """Along INCL: BC2 -> BS3 every fiber has three components; along
    BC2 -> * the one fiber object has automorphism group C2."""
    st = DescentSetting(cover, field)
    M = (_s3_sheaf(field, kind) if cover is INCL
         else unit_sheaf(cover.cod, field))
    V, theta = st.descend(st.canonical_datum(M))
    if cover is INCL:
        fiber = RanFunctor(cover).fibers[BS3.objects[0]]
        assert len(fiber.reps) == 3
    assert V.validate() == []
    assert find_isomorphism(V, M) is not None
    assert theta.validate() == []
