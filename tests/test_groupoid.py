import gc
import random
import re
import weakref
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sixff import groupoid
from sixff.groupoid import (
    FiniteCategory, FiniteGroupoid, Functor, NatTrans, StructureError,
    action_groupoid, cech_nerve, compose_functors, delooping,
    delooping_hom, disjoint_union, equivalent_groupoids, functors_equal,
    identity_functor, iso_comma_pullback, okey, pi0_and_aut, poset_category,
    RelProduct, skeletalize, terminal_groupoid, to_terminal,
    transport_to_reps, validate_category, validate_functor,
    group_table_isomorphic,
)
from sixff.groups import FiniteGroup
from sixff import presets


def test_terminal_category_valid():
    pt = terminal_groupoid()
    assert validate_category(pt) == []


def test_nonassociative_triple_reported():
    # two objects, a parallel pair glued badly: force h∘(g∘f) != (h∘g)∘f
    objs = ["x"]
    morphisms = ["e", "a", "b"]
    src = {m: "x" for m in morphisms}
    dst = {m: "x" for m in morphisms}
    ident = {"x": "e"}
    comp = {}
    for m in morphisms:
        comp[("e", m)] = m
        comp[(m, "e")] = m
    # a∘a = b, a∘b = e, b∘a = e, b∘b = a would be C3; break one entry
    comp[("a", "a")] = "b"
    comp[("a", "b")] = "e"
    comp[("b", "a")] = "b"   # wrong on purpose
    comp[("b", "b")] = "a"
    cat = FiniteCategory(objs, morphisms, src, dst, ident, comp)
    report = validate_category(cat)
    assert any(v.code == "axiom/associativity" for v in report)


def test_delooping_s3_exhaustive():
    BS3 = delooping(presets.group("S3"))
    assert len(BS3.objects) == 1
    assert len(BS3.morphisms) == 6
    assert validate_category(BS3) == []


def test_delooping_rejects_non_group():
    elems = [0, 1]
    table = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}  # no inverse for 1
    with pytest.raises(StructureError):
        FiniteGroup(elems, table)


def test_nonassociative_table_rejected_at_construction():
    # a loop of order 5: identity 0, every element its own inverse, but
    # (1*2)*2 = 4 while 1*(2*2) = 1
    rows = [[0, 1, 2, 3, 4],
            [1, 0, 3, 4, 2],
            [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1],
            [4, 3, 1, 2, 0]]
    table = {(a, b): rows[a][b] for a in range(5) for b in range(5)}
    with pytest.raises(StructureError, match="associativity"):
        FiniteGroup(range(5), table)


def test_delooping_does_not_recheck_group_axioms(monkeypatch):
    S3 = presets.group("S3")
    calls = []
    original = FiniteGroup.axiom_report

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(FiniteGroup, "axiom_report", counting)
    BS3 = delooping(S3)
    assert calls == []
    assert len(BS3.morphisms) == 6 and validate_category(BS3) == []


def test_subgroup_does_not_recheck_group_axioms(monkeypatch):
    S4 = presets.group("S4")
    calls = []
    original = FiniteGroup.axiom_report

    def counting(self):
        calls.append(self)
        return original(self)

    monkeypatch.setattr(FiniteGroup, "axiom_report", counting)
    V4 = S4.subgroup([(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1),
                      (3, 2, 1, 0)], name="V4")
    assert calls == []
    assert len(V4) == 4 and V4.identity == S4.identity
    assert all(V4.mul(a, V4.inv(a)) == V4.identity for a in V4.elements)
    assert original(V4) == []
    with pytest.raises(StructureError, match="not closed"):
        S4.subgroup([(0, 1, 2, 3), (1, 2, 0, 3), (1, 0, 2, 3)])
    with pytest.raises(StructureError, match="no identity"):
        S4.subgroup([])
    # tables from outside are still scanned
    C3 = FiniteGroup(range(3), {(a, b): (a + b) % 3
                                for a in range(3) for b in range(3)})
    assert calls == [C3]


def test_subgroup_is_built_once_per_subset_and_name(monkeypatch):
    # a fresh S4, so no other test has filled its memo
    G = FiniteGroup.from_permutations([(1, 0, 2, 3), (1, 2, 3, 0)])
    v4 = [(0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0)]
    V4 = G.subgroup(v4, name="V4")
    assert G.subgroup(reversed(v4), name="V4") is V4
    assert G.subgroup(frozenset(v4), name="V4") is V4
    unnamed = G.subgroup(v4)
    assert unnamed is not V4 and unnamed.name == "G4"
    assert G.subgroup(v4) is unnamed
    # a subset that is not a subgroup raises every time, never cached
    for _ in range(2):
        with pytest.raises(StructureError, match="not closed"):
            G.subgroup([(0, 1, 2, 3), (1, 2, 0, 3), (1, 0, 2, 3)])
    # so the sweep's deloopings of a subgroup are built once
    builds = []
    original = FiniteGroupoid.__init__

    def counting(self, *args, **kwargs):
        builds.append(self)
        original(self, *args, **kwargs)

    monkeypatch.setattr(FiniteGroupoid, "__init__", counting)
    first = delooping(G.subgroup(v4))
    assert len(builds) == 1
    assert delooping(G.subgroup(list(v4))) is first
    assert len(builds) == 1


def test_sign_functor_s3_to_c2():
    S3, C2 = presets.group("S3"), presets.group("C2")
    B1, B2 = delooping(S3), delooping(C2)

    def sign(perm):
        inv = sum(1 for i in range(3) for j in range(i + 1, 3)
                  if perm[i] > perm[j])
        return inv % 2

    F = delooping_hom({g: sign(g) for g in S3.elements}, B1, B2)
    assert validate_functor(F) == []
    assert validate_functor(identity_functor(B1)) == []


def test_iso_comma_identity_leg():
    C2 = presets.group("C2")
    BC2 = delooping(C2)
    f = identity_functor(BC2)
    ic = iso_comma_pullback(f, f)
    # */C2 x_{*/C2} */C2 along identities ~ */C2 (2 components? no: objects
    # (•,•,m), m in C2: two objects, connected by (u,v) with m'u = vm)
    assert equivalent_groupoids(ic.grpd, BC2)
    assert ic.phi.validate() == []
    assert ic.phi.is_invertible()


def test_iso_comma_double_coset_shape():
    S3 = presets.group("S3")
    # C2 = <(01)> inside S3
    sub = S3.generated_subgroup([(1, 0, 2)])
    C2 = S3.subgroup(sub, name="C2")
    BS3, BC2 = delooping(S3), delooping(C2)
    incl = delooping_hom({g: g for g in C2.elements}, BC2, BS3)
    ic = iso_comma_pullback(incl, incl)
    comps = pi0_and_aut(ic.grpd)
    sizes = sorted(len(auts) for _, auts, _ in comps)
    # H\G/K for H=K=C2 in S3: two double cosets, stabilizers of order 2, 1
    assert sizes == [1, 2]


def test_iso_comma_homogeneous_space():
    S3 = presets.group("S3")
    sub = S3.generated_subgroup([(1, 0, 2)])
    C2 = S3.subgroup(sub)
    BS3, BC2 = delooping(S3), delooping(C2)
    incl = delooping_hom({g: g for g in C2.elements}, BC2, BS3)
    pt = terminal_groupoid()
    j = Functor(pt, BS3, {pt.objects[0]: BS3.objects[0]},
                {pt.morphisms[0]: BS3.identity[BS3.objects[0]]})
    ic = iso_comma_pullback(incl, j)
    comps = pi0_and_aut(ic.grpd)
    assert len(comps) == 3
    assert all(len(auts) == 1 for _, auts, _ in comps)


def test_iso_comma_mediator():
    C2 = presets.group("C2")
    BC2 = delooping(C2)
    pt = terminal_groupoid()
    q = to_terminal(BC2, pt)
    ic = iso_comma_pullback(q, q)
    # cone: identity projections from BC2 with identity comparison
    from sixff.groupoid import NatTrans
    nu = NatTrans(compose_functors(q, identity_functor(BC2)),
                  compose_functors(q, identity_functor(BC2)),
                  {x: pt.morphisms[0] for x in BC2.objects})
    u = ic.mediate(BC2, identity_functor(BC2), identity_functor(BC2), nu)
    assert validate_functor(u) == []
    assert compose_functors(ic.p1, u).ob == identity_functor(BC2).ob
    for p in (ic.p1, ic.p2):
        assert functors_equal(compose_functors(p, u), identity_functor(BC2))
    for w in BC2.objects:
        assert ic.phi.component[u.ob[w]] == nu.component[w]


def test_iso_comma_rejects_non_groupoids():
    P = poset_category([0, 1], lambda a, b: a <= b)
    f = identity_functor(P)
    with pytest.raises(StructureError):
        iso_comma_pullback(f, f)


def test_pi0_discrete_and_torsor():
    pt = terminal_groupoid()
    three = disjoint_union([pt, pt, pt])
    comps = pi0_and_aut(three)
    assert len(comps) == 3
    assert all(len(a) == 1 for _, a, _ in comps)

    S3 = presets.group("S3")
    act = {(g, x): S3.mul(g, x) for g in S3.elements for x in S3.elements}
    T, proj = action_groupoid(S3, list(S3.elements), act)
    assert validate_category(T) == []
    assert validate_functor(proj) == []
    assert equivalent_groupoids(T, pt)


def test_action_groupoid_swap():
    C2 = presets.group("C2")
    act = {(0, "p"): "p", (0, "q"): "q", (1, "p"): "q", (1, "q"): "p"}
    G, proj = action_groupoid(C2, ["p", "q"], act)
    comps = pi0_and_aut(G)
    assert len(comps) == 1
    assert len(comps[0][1]) == 1  # trivial automorphisms
    assert equivalent_groupoids(G, terminal_groupoid())


def _swap_groupoid():
    C2 = presets.group("C2")
    act = {(0, "p"): "p", (0, "q"): "q", (1, "p"): "q", (1, "q"): "p"}
    return action_groupoid(C2, ["q", "p"], act)[0]


def _conjugation_groupoid():
    S3 = presets.group("S3")
    act = {(g, x): S3.mul(S3.mul(g, x), S3.inv(g))
           for g in S3.elements for x in S3.elements}
    return action_groupoid(S3, list(S3.elements), act)[0]


@pytest.mark.parametrize("make", [
    # twelve summands: (10, .) sorts before (2, .) under okey
    lambda: disjoint_union(
        [_swap_groupoid(), delooping(presets.group("C2")),
         terminal_groupoid()] * 4),
    lambda: disjoint_union([delooping(presets.group("C2")),
                            terminal_groupoid()]),
    _conjugation_groupoid,
], ids=["mixed-union", "BC2+pt", "S3-conjugation"])
def test_transport_to_reps_picks_least_object(make):
    G = make()
    t, comp_of = transport_to_reps(G)
    # components by undirected closure, independent of the BFS
    comp = {}
    for x in G.objects:
        if x in comp:
            continue
        members, stack = {x}, [x]
        while stack:
            y = stack.pop()
            for m in G.morphisms:
                for a, b in ((G.src[m], G.dst[m]), (G.dst[m], G.src[m])):
                    if a == y and b not in members:
                        members.add(b)
                        stack.append(b)
        for y in members:
            comp[y] = frozenset(members)
    assert set(comp_of) == set(t) == set(G.objects)
    for x in G.objects:
        assert comp_of[x] == min(comp[x], key=okey)
        assert G.src[t[x]] == comp_of[x] and G.dst[t[x]] == x
        # the first arrow comp_of[x] -> x in morphism order
        assert t[x] == next(m for m in G.morphisms
                            if G.src[m] == comp_of[x] and G.dst[m] == x)
    for x in G.objects:
        for y in G.objects:
            assert (comp_of[x] == comp_of[y]) == (comp[x] == comp[y])
    reps = [rep for rep, _, _ in pi0_and_aut(G)]
    assert set(reps) == set(comp_of.values()) and len(reps) == len(set(reps))


def test_action_groupoid_rejects_bad_action():
    C2 = presets.group("C2")
    act = {(0, "p"): "p", (0, "q"): "q", (1, "p"): "q", (1, "q"): "q"}
    with pytest.raises(StructureError):
        action_groupoid(C2, ["p", "q"], act)


def test_skeletalize_roundtrip():
    C2 = presets.group("C2")
    BC2 = delooping(C2)
    pt = terminal_groupoid()
    X = disjoint_union([BC2, pt])
    skel, incl, retr, eta = skeletalize(X)
    assert validate_functor(incl) == []
    assert validate_functor(retr) == []
    assert eta.validate() == []
    assert eta.is_invertible()
    assert compose_functors(retr, incl).ob == identity_functor(skel).ob
    assert len(skel.objects) == 2


def test_skeletalize_torsor_to_point():
    S3 = presets.group("S3")
    act = {(g, x): S3.mul(g, x) for g in S3.elements for x in S3.elements}
    T, _ = action_groupoid(S3, list(S3.elements), act)
    skel, _, _, eta = skeletalize(T)
    assert len(skel.objects) == 1
    assert len(skel.morphisms) == 1
    assert eta.validate() == []


def test_iso_comma_symmetric():
    S3 = presets.group("S3")
    sub3 = S3.generated_subgroup([(1, 2, 0)])
    C3 = S3.subgroup(sub3)
    sub2 = S3.generated_subgroup([(1, 0, 2)])
    C2 = S3.subgroup(sub2)
    B3, B2, BS3 = delooping(C3), delooping(C2), delooping(S3)
    i3 = delooping_hom({g: g for g in C3.elements}, B3, BS3)
    i2 = delooping_hom({g: g for g in C2.elements}, B2, BS3)
    a = iso_comma_pullback(i3, i2)
    b = iso_comma_pullback(i2, i3)
    assert equivalent_groupoids(a.grpd, b.grpd)


def test_rel_product_strict_projections():
    C2 = presets.group("C2")
    BC2 = delooping(C2)
    pt = terminal_groupoid()
    q = to_terminal(BC2, pt)
    rp3 = RelProduct(pt, [(BC2, q)] * 3)
    rp2 = RelProduct(pt, [(BC2, q)] * 2)
    p12 = rp3.proj_onto([0, 1], rp2)
    p23 = rp3.proj_onto([1, 2], rp2)
    p13 = rp3.proj_onto([0, 2], rp2)
    for F in (p12, p23, p13):
        assert validate_functor(F) == []
    # factor coherence: first factor of p12 == factor 0 of rp3
    f0 = rp3.factor_proj(0)
    g0 = compose_functors(rp2.factor_proj(0), p12)
    assert f0.ob == g0.ob and f0.mor == g0.mor
    g2 = compose_functors(rp2.factor_proj(1), p13)
    f2 = rp3.factor_proj(2)
    assert f2.ob == g2.ob and f2.mor == g2.mor


@pytest.mark.parametrize("indices", [
    (0, 1), (1, 2), (0, 2), (1, 0), (2, 1, 0), (0, 1, 1), (0, 0, 1),
    (1, 1, 0)])
def test_rel_product_reindexing_over_bs3(indices):
    S3 = presets.group("S3")
    BS3 = delooping(S3)
    C2 = S3.subgroup(S3.generated_subgroup([(1, 0, 2)]), name="C2")
    BC2 = delooping(C2)
    incl = delooping_hom({g: g for g in C2.elements}, BC2, BS3)
    factors = [(BC2, incl), (BS3, identity_functor(BS3)), (BC2, incl)]
    rp = RelProduct(BS3, factors)
    target = RelProduct(BS3, [factors[i] for i in indices])
    F = rp.proj_onto(list(indices), target)
    assert validate_functor(F) == []
    for k, i in enumerate(indices):
        lhs = compose_functors(target.factor_proj(k), F)
        rhs = rp.factor_proj(i)
        assert lhs.ob == rhs.ob and lhs.mor == rhs.mor


def test_cech_nerve_point_over_bc2():
    C2 = presets.group("C2")
    BC2 = delooping(C2)
    pt = terminal_groupoid()
    j = Functor(pt, BC2, {pt.objects[0]: BC2.objects[0]},
                {pt.morphisms[0]: BC2.identity[BC2.objects[0]]})
    nerve = cech_nerve(j, N=2)
    assert nerve.validate() == []
    sizes = [len(level.objects) for level in nerve.levels]
    assert sizes == [1, 2, 4]
    # all levels discrete
    for level in nerve.levels:
        assert all(len(auts) == 1 for _, auts, _ in pi0_and_aut(level))


def test_cech_nerve_identity_levels():
    C2 = presets.group("C2")
    BC2 = delooping(C2)
    nerve = cech_nerve(identity_functor(BC2), N=2)
    assert nerve.validate() == []
    for level in nerve.levels:
        assert equivalent_groupoids(level, BC2)


def test_cech_nerve_action_quotient():
    C2 = presets.group("C2")
    act = {(0, "p"): "p", (0, "q"): "q", (1, "p"): "q", (1, "q"): "p"}
    XG, _proj = action_groupoid(C2, ["p", "q"], act)
    # the cover is the underlying set X -> X//C2
    Xd = FiniteGroupoid(
        ["p", "q"], [("id", "p"), ("id", "q")],
        {("id", "p"): "p", ("id", "q"): "q"},
        {("id", "p"): "p", ("id", "q"): "q"},
        {"p": ("id", "p"), "q": ("id", "q")},
        {(("id", x), ("id", x)): ("id", x) for x in ("p", "q")},
        {("id", x): ("id", x) for x in ("p", "q")})
    cover = Functor(Xd, XG, {"p": "p", "q": "q"},
                    {("id", x): XG.identity[x] for x in ("p", "q")})
    nerve = cech_nerve(cover, N=1)
    assert nerve.validate() == []
    # level 1 of X -> X//C2 is equivalent to C2 x X: 4 objects, discrete
    lvl1 = nerve.levels[1]
    comps = pi0_and_aut(lvl1)
    assert len(comps) == 4
    assert all(len(a) == 1 for _, a, _ in comps)


def test_group_table_isomorphic():
    C4 = presets.group("C4")
    C2xC2 = FiniteGroup.direct_product(presets.group("C2"), presets.group("C2"))
    t4 = {(a, b): C4.mul(a, b) for a in C4.elements for b in C4.elements}
    t22 = {(a, b): C2xC2.mul(a, b) for a in C2xC2.elements for b in C2xC2.elements}
    assert not group_table_isomorphic(C4.elements, t4, C2xC2.elements, t22)
    D4 = presets.group("D4")
    Q8 = presets.group("Q8")
    assert len(D4) == len(Q8) == 8
    td = {(a, b): D4.mul(a, b) for a in D4.elements for b in D4.elements}
    tq = {(a, b): Q8.mul(a, b) for a in Q8.elements for b in Q8.elements}
    assert not group_table_isomorphic(D4.elements, td, Q8.elements, tq)
    assert group_table_isomorphic(D4.elements, td, D4.elements, td)


def test_subgroup_enumeration():
    S3 = presets.group("S3")
    subs = S3.all_subgroups()
    assert sorted(len(H) for H in subs) == [1, 2, 2, 2, 3, 6]
    assert len(S3.subgroups_up_to_conjugacy()) == 4
    D4 = presets.group("D4")
    assert len(D4.all_subgroups()) == 10
    Q8 = presets.group("Q8")
    assert len(Q8.all_subgroups()) == 6
    S4 = presets.group("S4")
    assert len(S4.all_subgroups()) == 30
    assert len(S4.subgroups_up_to_conjugacy()) == 11


def _closure_reference(G, gens):
    """The subgroup generated by `gens`, closed the slow way: multiply
    every new element by every element already found, on both sides."""
    span = {G.identity} | set(gens)
    frontier = list(span)
    while frontier:
        a = frontier.pop()
        for g in list(span):
            for c in (G.mul(a, g), G.mul(g, a)):
                if c not in span:
                    span.add(c)
                    frontier.append(c)
    return frozenset(span)


def _subgroups_reference(G):
    """All subgroups by extending each found subgroup by one element and
    closing the whole subgroup with it; then one least member per
    conjugacy class."""
    seen = {frozenset({G.identity})}
    frontier = list(seen)
    while frontier:
        H = frontier.pop()
        for g in G.elements:
            if g not in H:
                K = _closure_reference(G, set(H) | {g})
                if K not in seen:
                    seen.add(K)
                    frontier.append(K)
    classes, done = [], set()
    for H in sorted(seen, key=lambda H: (len(H), sorted(map(okey, H)))):
        if H not in done:
            orbit = {G.conjugate_subgroup(H, g) for g in G.elements}
            done |= orbit
            classes.append(min(orbit, key=lambda K: sorted(map(okey, K))))
    return classes


@pytest.mark.parametrize("gname", ["S3", "D4", "Q8"])
def test_generated_subgroup_matches_a_brute_force_closure(gname):
    G = presets.group(gname)
    subsets = [()] + [(a,) for a in G.elements] + \
        [(a, b) for i, a in enumerate(G.elements) for b in G.elements[i + 1:]]
    for gens in subsets:
        got = G.generated_subgroup(gens)
        assert got == _closure_reference(G, gens), gens
        assert G.is_subgroup(got)


@pytest.mark.parametrize("gname", ["S3", "S4", "D4", "Q8"])
def test_subgroup_classes_match_the_reference_enumeration(gname):
    G = presets.group(gname)
    assert G.subgroups_up_to_conjugacy() == _subgroups_reference(G)


# ---------------------------------------------------------------------------
# The arrow index: hom sets and composable pairs against brute-force scans
# ---------------------------------------------------------------------------

PRESET_CATEGORIES = [
    presets.finset_category(2), presets.finset_category(3),
    presets.divisor_poset(12), presets.chain_poset(),
    presets.cospan_category(), presets.parallel_arrows_category(),
]
SMALL_GROUPS = ("1", "C2", "C3", "C4", "S3")


@st.composite
def _summands(draw):
    """A delooping, or the action groupoid of left multiplication on the
    cosets g<h> of a cyclic subgroup."""
    G = presets.group(draw(st.sampled_from(SMALL_GROUPS)))
    if draw(st.booleans()):
        return delooping(G)
    H = G.generated_subgroup([draw(st.sampled_from(G.elements))])
    cosets = list({frozenset(G.mul(g, h) for h in H) for g in G.elements})
    act = {(g, c): frozenset(G.mul(g, x) for x in c)
           for g in G.elements for c in cosets}
    return action_groupoid(G, cosets, act)[0]


def _unions():
    return st.lists(_summands(), min_size=1, max_size=5).map(disjoint_union)


def _with_presets(test):
    for C in PRESET_CATEGORIES:
        test = example(C)(test)
    return test


@settings(max_examples=40, derandomize=True, deadline=None, database=None)
@given(_unions())
@_with_presets
def test_arrow_index_matches_brute_force_scans(C):
    index = C.out
    for x in C.objects:
        assert index[x] == tuple(m for m in C.morphisms if C.src[m] == x)
        for y in C.objects:
            assert C.hom(x, y) == [m for m in C.morphisms
                                   if C.src[m] == x and C.dst[m] == y]
    assert list(C.composable_pairs()) == [
        (g, f) for f in C.morphisms for g in C.morphisms
        if C.src[g] == C.dst[f]]
    # one index per category, built once
    assert C.out is index


# ---------------------------------------------------------------------------
# Relative products against the reference construction
# ---------------------------------------------------------------------------

def _reference_rel_product(S, factors):
    """(objects, morphisms, src, dst, identity, inverse, compose) of the
    relative product, with one `product` over the legs of every factor per
    object: the construction that `RelProduct` replaced, kept as a
    reference."""
    n = len(factors)
    Xs = [g for g, _ in factors]
    As = [a for _, a in factors]
    objects = []

    def rec(i, xs, ms):
        if i == n:
            objects.append((tuple(xs), tuple(ms)))
            return
        X = Xs[i]
        for x in X.objects:
            if i == 0:
                rec(1, [x], [])
            else:
                for m in S.hom(As[0].ob[xs[0]], As[i].ob[x]):
                    rec(i + 1, xs + [x], ms + [m])

    rec(0, [], [])

    def legs(X, a, x):
        return [(u, X.dst[u], X.inverse[u], a.mor[u]) for u in X.out[x]]

    morphisms, src, dst, ident, inv = [], {}, {}, {}, {}
    for o in objects:
        xs, ms = o
        for combo in product(*map(legs, Xs, As, xs)):
            us, ys, vs, aus = zip(*combo)
            back = S.inverse[aus[0]]
            o2 = (ys, tuple(S.compose(au, S.compose(m, back))
                            for au, m in zip(aus[1:], ms)))
            mm = (o, us)
            morphisms.append(mm)
            src[mm], dst[mm] = o, o2
            inv[mm] = (o2, vs)
        ident[o] = (o, tuple(X.identity[x] for X, x in zip(Xs, xs)))

    def comp(m2, m1):
        return (src[m1], tuple(X.compose(g, f)
                               for X, g, f in zip(Xs, m2[1], m1[1])))

    return objects, morphisms, src, dst, ident, inv, comp


def _random_summand(rng, G):
    """A groupoid with a functor to */G: the delooping of a cyclic subgroup
    H (its inclusion, or the trivial map), or the action groupoid of G on
    the cosets gH (its projection)."""
    BG = delooping(G)
    H = G.subgroup(G.generated_subgroup([rng.choice(G.elements)]))
    kind = rng.choice(("incl", "trivial", "action"))
    if kind == "action":
        cosets = sorted({frozenset(G.mul(g, h) for h in H.elements)
                         for g in G.elements}, key=okey)
        act = {(g, c): frozenset(G.mul(g, x) for x in c)
               for g in G.elements for c in cosets}
        return action_groupoid(G, cosets, act)
    BH = delooping(H)
    phi = {h: h if kind == "incl" else G.identity for h in H.elements}
    return BH, delooping_hom(phi, BH, BG)


def _random_factors(rng, n, cap=3000):
    """(S, factors) with S the delooping of a small group or a disjoint
    union of two copies of it, and n factors, each one summand or the
    disjoint union of two, sent into a random copy.  S and the factors are
    drawn again until the relative product has between 1 and `cap`
    morphisms."""
    G = presets.group(rng.choice(("C2", "C3", "S3", "S3")))
    BG = delooping(G)
    while True:
        copies = rng.choice((1, 2))
        S = BG if copies == 1 else disjoint_union([BG, BG])

        def place(j, x):
            return x if copies == 1 else (j, x)

        factors = []
        for _ in range(n):
            parts = [_random_summand(rng, G)
                     for _ in range(rng.choice((1, 2)))]
            where = [rng.randrange(copies) for _ in parts]
            if len(parts) == 1:
                (X, a), j = parts[0], where[0]
                F = Functor(X, S, {x: place(j, a.ob[x]) for x in X.objects},
                            {m: place(j, a.mor[m]) for m in X.morphisms})
            else:
                X = disjoint_union([Y for Y, _ in parts])
                F = Functor(
                    X, S,
                    {(i, x): place(j, a.ob[x])
                     for i, ((Y, a), j) in enumerate(zip(parts, where))
                     for x in Y.objects},
                    {(i, m): place(j, a.mor[m])
                     for i, ((Y, a), j) in enumerate(zip(parts, where))
                     for m in Y.morphisms})
            factors.append((X, F))
        if 0 < _product_size(S, factors) <= cap:
            return S, factors


def _product_size(S, factors):
    (X0, a0), *rest = factors
    total = 0
    for x0 in X0.objects:
        size = len(X0.out[x0])
        for X, a in rest:
            size *= sum(len(S.hom(a0.ob[x0], a.ob[x])) * len(X.out[x])
                        for x in X.objects)
        total += size
    return total


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("seed", range(8))
def test_rel_product_matches_reference_construction(n, seed):
    rng = random.Random("relprod/%d/%d" % (n, seed))
    S, factors = _random_factors(rng, n)
    P = RelProduct(S, factors).grpd
    objects, morphisms, src, dst, ident, inv, comp = \
        _reference_rel_product(S, factors)
    assert P.objects == tuple(sorted(objects, key=okey))
    assert P.morphisms == tuple(sorted(morphisms, key=okey))
    assert (P.src, P.dst, P.identity, P.inverse) == (src, dst, ident, inv)
    assert P.out == {x: tuple(m for m in P.morphisms if src[m] == x)
                     for x in P.objects}
    for f in rng.sample(P.morphisms, min(40, len(P.morphisms))):
        g = rng.choice(P.out[dst[f]])
        assert P.compose(g, f) == comp(g, f)


def test_rel_product_draws_include_nonabelian_anchors():
    # an anchor composed in the wrong order changes the product only over
    # a nonabelian group, so every n gets draws over */S3
    for n in (2, 3, 4):
        orders = [len(_random_factors(
            random.Random("relprod/%d/%d" % (n, seed)), n)[0].morphisms)
            for seed in range(8)]
        assert any(k % 6 == 0 for k in orders), (n, orders)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("seed", range(8))
def test_rel_product_reads_the_arrows_of_its_groupoid(n, seed):
    # `arrows` lists what the built groupoid lists, object by object, and
    # the components read from it are the groupoid's, without building it
    S, factors = _random_factors(
        random.Random("relprod/%d/%d" % (n, seed)), n)
    rp = RelProduct(S, factors)
    lazy_comps, lazy_reps = pi0_and_aut(rp), transport_to_reps(rp)
    assert "grpd" not in vars(rp)
    P = rp.grpd
    assert rp.objects == P.objects and rp.identity == P.identity
    assert all(rp.arrows(o) == P.arrows(o) for o in P.objects)
    assert lazy_comps == pi0_and_aut(P)
    assert lazy_reps == transport_to_reps(P)


def test_rel_product_arrows_come_in_morphism_order():
    # "str:e s" sorts after "str:e" but ("e s", "e") before ("e", "e s"),
    # so the rule's leg-by-leg order is not the morphism order here
    C2 = FiniteGroup(["e", "e s"], {("e", "e"): "e", ("e", "e s"): "e s",
                                    ("e s", "e"): "e s", ("e s", "e s"): "e"})
    f = identity_functor(delooping(C2))
    rp = iso_comma_pullback(f, f)
    o = rp.objects[0]
    assert [m for m, _, _ in rp.arrows_out(o)] != [m for m, _ in rp.arrows(o)]
    assert all(rp.arrows(o) == rp.grpd.arrows(o) for o in rp.objects)


@pytest.mark.parametrize("gname", ["S3", "D4", "Q8", "S4"])
def test_iso_comma_components_read_lazily_match_the_built_product(gname):
    # pi0_and_aut on the iso-comma itself, as the double-coset sweep reads
    # it, against pi0_and_aut on its groupoid: representatives,
    # automorphism tuples and tables, for every subgroup-class pair
    G = presets.group(gname)
    BG = delooping(G)
    incl = {}
    for H_el in G.subgroups_up_to_conjugacy():
        H = G.subgroup(H_el)
        incl[H_el] = delooping_hom({h: h for h in H.elements},
                                   delooping(H), BG)
    for iH in incl.values():
        for iK in incl.values():
            ic = iso_comma_pullback(iH, iK)
            lazy = pi0_and_aut(ic)
            assert "grpd" not in vars(ic)
            built = pi0_and_aut(ic.grpd)
            assert len(lazy) == len(built)
            for (rep, auts, table), (rep2, auts2, table2) in zip(lazy, built):
                assert rep == rep2
                assert auts == auts2
                assert table == table2


def test_pi0_and_aut_reads_each_representative_once(monkeypatch):
    # the components and the automorphisms of each representative come
    # from one component search: one arrows_out call per representative
    calls = []
    arrows_out = RelProduct.arrows_out

    def counted(self, o):
        calls.append(o)
        return arrows_out(self, o)

    monkeypatch.setattr(RelProduct, "arrows_out", counted)
    G = presets.group("S4")
    BG = delooping(G)
    incl = [delooping_hom({h: h for h in G.subgroup(H_el).elements},
                          delooping(G.subgroup(H_el)), BG)
            for H_el in G.subgroups_up_to_conjugacy()]
    for iH in incl:
        for iK in incl:
            calls.clear()
            comps = pi0_and_aut(iso_comma_pullback(iH, iK))
            assert calls == [rep for rep, _, _ in comps]


# ---------------------------------------------------------------------------
# Malformed tables: one message per branch, in a fixed order of precedence
# ---------------------------------------------------------------------------

def _iso_tables():
    """The groupoid f: x <-> y :g with g = f^-1, plus a lone object z, as
    raw constructor arguments."""
    return dict(
        objects=["x", "y", "z"],
        morphisms=["f", "g", "ix", "iy", "iz"],
        src={"f": "x", "g": "y", "ix": "x", "iy": "y", "iz": "z"},
        dst={"f": "y", "g": "x", "ix": "x", "iy": "y", "iz": "z"},
        identity={"x": "ix", "y": "iy", "z": "iz"},
        compose={("ix", "ix"): "ix", ("iy", "iy"): "iy",
                 ("iz", "iz"): "iz", ("f", "ix"): "f", ("iy", "f"): "f",
                 ("g", "iy"): "g", ("ix", "g"): "g", ("g", "f"): "ix",
                 ("f", "g"): "iy"},
        inverse={"f": "g", "g": "f", "ix": "ix", "iy": "iy", "iz": "iz"})


def _break(key, change):
    def apply(t):
        change(t[key])
    return apply


# (how the tables are broken, the message), in order of precedence: each
# breakage is independent of the others, and with several at once the
# first one's message is raised.
BREAKAGES = [
    (_break("objects", lambda o: o.append("x")), "duplicate ids"),
    (_break("src", lambda d: d.pop("f")),
     "morphism 'f' missing source/target"),
    (_break("dst", lambda d: d.update(g="w")),
     "morphism 'g' has dangling endpoint"),
    (_break("identity", lambda d: d.pop("x")), "object 'x' has no identity"),
    (_break("identity", lambda d: d.update(y="jy")),
     "identity of 'y' is dangling"),
    (_break("identity", lambda d: d.update(z="iy")),
     "identity of 'z' is not an endomorphism"),
    (_break("compose", lambda d: d.update({("h", "iz"): "iz"})),
     "composition entry with dangling id"),
    (_break("compose", lambda d: d.update({("f", "f"): "f"})),
     "composition entry ('f','f') not composable"),
    (_break("inverse", lambda d: d.pop("f")),
     "morphism 'f' lacks an inverse entry"),
]

# One more breakage per branch, each alone.
MORE_BREAKAGES = [
    (_break("morphisms", lambda m: m.append("f")), "duplicate ids"),
    (_break("dst", lambda d: d.pop("iz")),
     "morphism 'iz' missing source/target"),
    (_break("src", lambda d: d.update(f="w")),
     "morphism 'f' has dangling endpoint"),
    (_break("compose", lambda d: d.update({("iz", "iz"): "h"})),
     "composition entry with dangling id"),
    (_break("inverse", lambda d: d.update(g="h")),
     "morphism 'g' lacks an inverse entry"),
]


def _construct(t):
    return FiniteGroupoid(t["objects"], t["morphisms"], t["src"], t["dst"],
                          t["identity"], t["compose"], t["inverse"])


def test_iso_tables_form_a_groupoid():
    G = _construct(_iso_tables())
    assert G.validate() == []
    assert G.out == {"x": ("f", "ix"), "y": ("g", "iy"), "z": ("iz",)}


@pytest.mark.parametrize("k", range(len(BREAKAGES) + len(MORE_BREAKAGES)))
def test_malformed_table_message(k):
    brk, message = (BREAKAGES + MORE_BREAKAGES)[k]
    t = _iso_tables()
    brk(t)
    with pytest.raises(StructureError, match="^%s$" % re.escape(message)):
        _construct(t)


@pytest.mark.parametrize("k", range(len(BREAKAGES)))
def test_malformed_table_precedence(k):
    t = _iso_tables()
    for brk, _ in BREAKAGES[k:]:
        brk(t)
    with pytest.raises(StructureError,
                       match="^%s$" % re.escape(BREAKAGES[k][1])):
        _construct(t)


def test_malformed_category_message_without_inverses():
    t = _iso_tables()
    t["identity"]["z"] = "iy"
    del t["inverse"]
    with pytest.raises(StructureError, match="not an endomorphism"):
        FiniteCategory(**t)


# ---------------------------------------------------------------------------
# Deloopings are built once per group and die with it
# ---------------------------------------------------------------------------

def test_delooping_built_once_per_group():
    G = FiniteGroup.cyclic(5)
    B = delooping(G)
    assert delooping(G) is B
    assert delooping(G, "o") is delooping(G, "o") is not B
    assert B.objects == ("*",) and B.morphisms == G.elements
    assert all(B.compose(g, h) == G.mul(g, h) and B.inverse[g] == G.inv(g)
               for g in G.elements for h in G.elements)
    assert validate_category(B) == []


def test_delooping_cache_entry_dies_with_the_group():
    G = FiniteGroup.cyclic(4)
    refs = [weakref.ref(G), weakref.ref(delooping(G)),
            weakref.ref(delooping(G, "o"))]
    entries = len(groupoid._DELOOPINGS)
    del G
    gc.collect()
    assert [r() for r in refs] == [None, None, None]
    assert len(groupoid._DELOOPINGS) == entries - 1


def test_delooping_reads_only_the_group_part_of_its_table():
    table = {(a, b): (a + b) % 2 for a in range(2) for b in range(2)}
    table[(5, 5)] = 5
    G = FiniteGroup(range(2), table)
    B = delooping(G)
    assert B.morphisms == (0, 1) and validate_category(B) == []


# ---------------------------------------------------------------------------
# Caller input raises StructureError, which `python -O` keeps
# ---------------------------------------------------------------------------

def test_compose_functors_refuses_functors_that_do_not_compose():
    B2, B3 = delooping(FiniteGroup.cyclic(2)), delooping(FiniteGroup.cyclic(3))
    with pytest.raises(StructureError, match="do not compose"):
        compose_functors(identity_functor(B3), identity_functor(B2))


def test_nat_trans_inverse_needs_a_groupoid_target():
    P = presets.chain_poset()
    ident = identity_functor(P)
    eta = NatTrans(ident, ident, P.identity)
    with pytest.raises(StructureError, match="groupoid target"):
        eta.inverse()


def test_relative_product_needs_two_factors():
    pt = terminal_groupoid()
    with pytest.raises(StructureError, match="2 or more factors"):
        RelProduct(pt, [(pt, identity_functor(pt))])


def test_diagonal_refuses_differing_factors():
    pt, B2 = terminal_groupoid(), delooping(FiniteGroup.cyclic(2))
    rp = RelProduct(pt, [(pt, identity_functor(pt)),
                         (B2, to_terminal(B2, pt))])
    with pytest.raises(StructureError, match="differing factors"):
        rp.diagonal


def test_disjoint_union_refuses_a_table_without_a_composite():
    # construction checks the entries a table has, not that it has all of
    # them; the union reads every composable pair and finds the gap
    t = _iso_tables()
    del t["compose"][next(iter(t["compose"]))]
    G = _construct(t)
    with pytest.raises(StructureError, match="missing composite"):
        disjoint_union([G])
