"""Sheaves given on generators: the presentation of a finite groupoid, the
lazy transition table of `Sheaf.mat`, validation by relators, and the Kan
pushes, pullbacks, tensors and homs that build only generator matrices."""

import json
import random

import pytest

from sixff.fields import GF, QQ
from sixff.groupoid import (
    FiniteGroupoid, Functor, StructureError, delooping, disjoint_union,
    terminal_groupoid, to_terminal,
)
from sixff.groups import FiniteGroup
from sixff.instances import (
    S3, _gauge, kernel_chain, permutation, rep, sheaf, union,
)
from sixff.io import load_sheaf
from sixff.kernels import KernelContext
from sixff.linalg import Matrix
from sixff.sheaves import (
    LanFunctor, PullbackFunctor, RanFunctor, Sheaf, TensorLeftFunctor,
    identity_morphism, internal_hom, sheaves_equal, tensor, unit_sheaf,
)

FIELDS = [QQ, GF(5)]
FIELD_IDS = ["QQ", "GF5"]
BS3 = delooping(S3)
PT = terminal_groupoid()


def _discrete(n):
    return disjoint_union([terminal_groupoid() for _ in range(n)])


def _word_holds(G):
    """Every morphism m: x -> y is t[y] ∘ a ∘ t_inv[x] with a an
    automorphism of the representative that the walk reaches."""
    pres = G.presentation
    for m in G.morphisms:
        x, y = G.src[m], G.dst[m]
        r = pres.comp_of[x]
        a = G.compose(pres.t_inv[y], G.compose(m, pres.t[x]))
        assert a == G.identity[r] or a in pres.walk[r]
        assert G.compose(pres.t[y], G.compose(a, pres.t_inv[x])) == m


def test_presentation_of_a_delooping_a_union_and_a_discrete_groupoid():
    pres = BS3.presentation
    assert pres is BS3.presentation
    assert pres.generators == ((0, 2, 1), (1, 0, 2))
    assert len(pres.walk[BS3.objects[0]]) == len(S3) - 1
    _word_holds(BS3)
    rng = random.Random(7)
    several = 0
    for _ in range(8):
        G = union(rng).grpd
        _word_holds(G)
        gens = G.presentation.generators
        assert list(gens) == [m for m in G.morphisms if m in set(gens)]
        several += any(x != r for x, r in G.presentation.comp_of.items())
    assert several
    assert _discrete(4).presentation.generators == ()


def _drawn_sheaves(field):
    """(drawn sheaf, its table built per morphism as the draw used to
    build it): gauged sheaves on unions of deloopings and action
    groupoids, and point kernels."""
    rng = random.Random(19)
    out = []
    for _ in range(10):
        U = union(rng)
        G = U.grpd
        state = rng.getstate()
        M = sheaf(rng, U, field)
        rng.setstate(state)
        reps = [rep(rng, field) for _ in U.pieces]
        dims = [r(U.pieces[i][1].identity).nrows for i, r in enumerate(reps)]
        gauges = {(i, x): _gauge(rng, field, dims[i]) for (i, x) in G.objects}
        full = {u: gauges[G.dst[u]] * reps[u[0]](U.pieces[u[0]][2](u[1]))
                * gauges[G.src[u]].inverse() for u in G.morphisms}
        out.append((M, full))
    ctx = KernelContext(PT, field)
    for i, n in enumerate((2, 3, 2)):
        X = _discrete(n)
        ctx.add_object("X%d" % i, X, to_terminal(X, PT))
    for K in kernel_chain(ctx, ["X0", "X1", "X2"], rng):
        P = K.payload
        out.append((P, {m: Matrix.identity(field, P.dim[P.base.src[m]])
                        for m in P.base.morphisms}))
    return out


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_lazy_tables_equal_the_tables_built_per_morphism(field):
    derived = 0
    for M, full in _drawn_sheaves(field):
        assert M.validate() == []
        stored = dict(dict.items(M.mat))
        assert stored.keys() == set(M.base.presentation.generators)
        derived += len(full) - len(stored)
        assert len(M.mat) == len(full) and set(M.mat) == set(full)
        for m, a in full.items():
            assert M.mat[m] == a
        assert M.mat == full and full == M.mat and not M.mat != full
        assert dict(M.mat.items()) == full
    assert derived


def _bc3(mats):
    C3 = FiniteGroup.cyclic(3)
    return Sheaf(delooping(C3), QQ, {"*": 1},
                 {g: Matrix(QQ, [[v]]) for g, v in mats.items()})


def test_validate_checks_relators_and_stored_words():
    assert _bc3({1: 1}).validate() == []
    order_two = _bc3({1: -1})
    assert any("relator" in v for v in order_two.validate())
    with pytest.raises(ValueError, match="not a sheaf"):
        Sheaf(order_two.base, QQ, order_two.dim, order_two.mat, check=True)
    disagrees = _bc3({1: 1, 2: 2})
    assert disagrees.validate() == [
        "matrix at 2 disagrees with its word"]


def test_a_missing_generator_is_a_structure_error():
    M = _bc3({2: 1})
    assert M.validate() == ["no matrix at the generator 1"]
    with pytest.raises(StructureError, match="generator 1"):
        M.mat[1]
    with pytest.raises(StructureError, match="generator 1"):
        _bc3({}).mat[2]
    with pytest.raises(StructureError, match="generator 1"):
        LanFunctor(M.base.to_point).obj(M)


def test_a_tree_arrow_must_be_inverted_by_its_inverse():
    G = FiniteGroupoid(
        ["a", "b"], ["ea", "eb", "u", "v"],
        {"ea": "a", "eb": "b", "u": "a", "v": "b"},
        {"ea": "a", "eb": "b", "u": "b", "v": "a"},
        {"a": "ea", "b": "eb"},
        {("ea", "ea"): "ea", ("eb", "eb"): "eb", ("u", "ea"): "u",
         ("eb", "u"): "u", ("v", "eb"): "v", ("ea", "v"): "v",
         ("v", "u"): "ea", ("u", "v"): "eb"},
        {"ea": "ea", "eb": "eb", "u": "v", "v": "u"})
    assert G.presentation.generators == ("u", "v")
    one, two = Matrix(QQ, [[1]]), Matrix(QQ, [[2]])
    assert Sheaf(G, QQ, {"a": 1, "b": 1}, {"u": two,
                                           "v": two.inverse()}).validate() == []
    bad = Sheaf(G, QQ, {"a": 1, "b": 1}, {"u": two, "v": one})
    assert bad.validate() == ["tree arrow 'u' not inverted by 'v'"]


def test_a_push_along_discrete_groupoids_places_no_block(monkeypatch):
    X, Y = _discrete(3), _discrete(5)
    f = to_terminal(Y, PT)
    g = _folding(Y, X)
    M = Sheaf(Y, QQ, {y: 1 + i % 2 for i, y in enumerate(Y.objects)}, {})
    calls = []
    block = Matrix.block

    def counting(*args):
        calls.append(args)
        return block(*args)

    monkeypatch.setattr(Matrix, "block", staticmethod(counting))
    for F in (LanFunctor(f), LanFunctor(g)):
        FM = F.obj(M)
        assert FM.validate() == [] and dict(dict.items(FM.mat)) == {}
    assert calls == []
    assert LanFunctor(g).obj(M).dim == {x: sum(
        M.dim[y] for y in Y.objects if g.ob[y] == x) for x in X.objects}


def _folding(Y, X):
    """The functor of discrete groupoids sending object i of Y to object
    i mod |X| of X."""
    ob = {y: X.objects[i % len(X.objects)] for i, y in enumerate(Y.objects)}
    return Functor(Y, X, ob, {Y.identity[y]: X.identity[ob[y]]
                              for y in Y.objects})


def test_load_sheaf_closes_a_generating_set_that_is_not_the_presentation():
    given = [(1, 2, 0), (2, 1, 0)]          # a 3-cycle and a transposition
    assert not set(given) & set(BS3.presentation.generators)
    doc = {"field": "q", "dims": {"*": 3},
           "matrices": {json.dumps(list(g)): permutation(g) for g in given}}
    M = load_sheaf(doc, BS3)
    assert M.validate() == []
    ref = Sheaf(BS3, QQ, {"*": 3}, {
        g: Matrix.from_int_rows(QQ, permutation(g)) for g in S3.elements},
        check=True)
    assert sheaves_equal(M, ref) and M.mat == ref.mat
    # one transposition generates a subgroup only
    doc["matrices"] = {json.dumps([0, 2, 1]): permutation((0, 2, 1))}
    with pytest.raises(StructureError, match="do not generate"):
        load_sheaf(doc, BS3)
    # a 3-cycle and a transposition whose matrices break a relator
    doc["matrices"] = {json.dumps(list(g)): permutation((0, 2, 1))
                       for g in given}
    with pytest.raises(StructureError, match="inconsistent"):
        load_sheaf(doc, BS3)


@pytest.mark.parametrize("field", FIELDS, ids=FIELD_IDS)
def test_functors_build_the_generator_matrices_only(field):
    rng = random.Random(3)
    U = union(rng)
    G = U.grpd
    M, N = sheaf(rng, U, field), sheaf(rng, U, field)
    gens = set(G.presentation.generators)
    for built in (tensor(M, N), internal_hom(M, N),
                  PullbackFunctor(G.identity_functor).obj(M),
                  unit_sheaf(G, field)):
        assert set(dict.keys(built.mat)) == gens
        assert built.validate() == []
    assert tensor(M, N).mat == {m: M.mat[m].kron(N.mat[m])
                                for m in G.morphisms}
    for F in (LanFunctor(G.to_point), RanFunctor(G.to_point)):
        assert dict(dict.items(F.obj(M).mat)) == {}


def test_tensor_of_sheaves_on_different_bases_is_a_structure_error():
    M = unit_sheaf(BS3, QQ)
    W = unit_sheaf(_discrete(2), QQ)
    with pytest.raises(StructureError):
        TensorLeftFunctor(W).obj(M)


def test_composing_morphisms_through_different_sheaves_is_a_structure_error():
    M = unit_sheaf(BS3, QQ)
    N = Sheaf(BS3, QQ, {"*": 2}, {g: Matrix.identity(QQ, 2)
                                  for g in BS3.presentation.generators})
    with pytest.raises(StructureError):
        identity_morphism(M).then(identity_morphism(N))
