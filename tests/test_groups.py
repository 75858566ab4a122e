"""Homomorphisms and isomorphism of finite groups, against brute force."""

import random
from itertools import permutations, product

import pytest

from sixff import presets
from sixff.groupoid import StructureError, group_table_isomorphic
from sixff.groups import FiniteGroup

S3 = presets.group("S3")
# small groups, each with generators
GENERATED = {
    "1": (presets.group("1"), []),
    "C2": (presets.group("C2"), [1]),
    "C3": (presets.group("C3"), [1]),
    "S3": (S3, [(1, 0, 2), (1, 2, 0)]),
}


def _table(G):
    return {(a, b): G.mul(a, b) for a in G.elements for b in G.elements}


def _is_hom(phi, G, H):
    return all(phi[G.mul(a, b)] == H.mul(phi[a], phi[b])
               for a in G.elements for b in G.elements)


def _relabelled(G, seed):
    """G's elements and table with the elements renamed in a random order."""
    order = list(G.elements)
    random.Random(seed).shuffle(order)
    name = {g: ("r", i) for i, g in enumerate(order)}
    return ([name[g] for g in G.elements],
            {(name[a], name[b]): name[c] for (a, b), c in _table(G).items()})


def _brute_isomorphic(elems_a, table_a, elems_b, table_b):
    if len(elems_a) != len(elems_b):
        return False
    for images in permutations(elems_b):
        phi = dict(zip(elems_a, images))
        if all(phi[table_a[(a, b)]] == table_b[(phi[a], phi[b])]
               for a in elems_a for b in elems_a):
            return True
    return False


@pytest.mark.parametrize("gname", GENERATED)
@pytest.mark.parametrize("hname", GENERATED)
def test_homomorphisms_match_a_scan_of_all_maps(gname, hname):
    (G, gens), (H, _) = GENERATED[gname], GENERATED[hname]
    homs = G.homomorphisms(gens, H)
    every = [phi for phi in (dict(zip(G.elements, images)) for images in
                             product(H.elements, repeat=len(G)))
             if _is_hom(phi, G, H)]
    assert sorted(sorted(phi.items()) for phi in homs) == \
        sorted(sorted(phi.items()) for phi in every)
    # one per tuple of generator images, in product order
    images = [tuple(phi[g] for g in gens) for phi in homs]
    assert images == [t for t in product(H.elements, repeat=len(gens))
                      if t in set(images)]


@pytest.mark.parametrize("gname, hname, count", [
    ("S3", "S3", 10), ("C2", "S3", 4), ("C3", "S3", 3), ("S3", "C2", 2),
    ("S3", "C3", 1), ("1", "S3", 1)])
def test_homomorphism_counts(gname, hname, count):
    (G, gens), (H, _) = GENERATED[gname], GENERATED[hname]
    assert len(G.homomorphisms(gens, H)) == count


def test_homomorphisms_need_generators():
    with pytest.raises(ValueError):
        S3.homomorphisms([(1, 0, 2)], S3)


def _small_groups():
    C = presets.group
    out = {n: C(n) for n in ("1", "C2", "C3", "C4", "C5", "C6")}
    out["C2xC2"] = FiniteGroup.direct_product(C("C2"), C("C2"))
    out["C2xC3"] = FiniteGroup.direct_product(C("C2"), C("C3"))
    out["S3"] = S3
    return {name: (list(G.elements), _table(G)) for name, G in out.items()}


def test_group_table_isomorphic_matches_brute_force_up_to_order_6():
    groups = _small_groups()
    groups["S3 relabelled"] = _relabelled(S3, 0)
    for (a, (ea, ta)), (b, (eb, tb)) in product(groups.items(), repeat=2):
        assert group_table_isomorphic(ea, ta, eb, tb) == \
            _brute_isomorphic(ea, ta, eb, tb), (a, b)
    assert group_table_isomorphic(*groups["S3"], *groups["S3 relabelled"])
    assert group_table_isomorphic(*groups["C6"], *groups["C2xC3"])
    assert not group_table_isomorphic(*groups["C6"], *groups["S3"])


def test_groups_of_order_8():
    C = presets.group
    groups = {"C2xC4": FiniteGroup.direct_product(C("C2"), C("C4")),
              "D4": C("D4"), "Q8": C("Q8")}
    for a, G in groups.items():
        assert group_table_isomorphic(G.elements, _table(G),
                                      *_relabelled(G, 1)), a
        for b, H in groups.items():
            if a != b:
                assert not G.is_isomorphic(H), (a, b)


def test_equal_element_orders_do_not_make_groups_isomorphic():
    # C4 x C4 and C4 x| C4 (b a b^-1 = a^-1) both have one identity, three
    # involutions and twelve elements of order 4; C4 x C4 -> <a> sending
    # both generators to a is a homomorphism but not a bijection
    C4 = presets.group("C4")
    abelian = FiniteGroup.direct_product(C4, C4)
    elems = [(i, j) for i in range(4) for j in range(4)]
    semidirect = FiniteGroup(elems, {
        ((i, j), (k, l)): ((i + (-1) ** j * k) % 4, (j + l) % 4)
        for (i, j) in elems for (k, l) in elems})
    assert sorted(abelian._orders().values()) == \
        sorted(semidirect._orders().values())
    assert not abelian.is_isomorphic(semidirect)
    assert not semidirect.is_isomorphic(abelian)
    assert semidirect.is_isomorphic(semidirect)


def test_a_table_that_is_not_a_group_is_isomorphic_to_nothing():
    # a Latin square with identity 0 and every element its own inverse:
    # of order 5 it cannot be associative
    rows = [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 4, 0, 1, 3],
            [3, 2, 4, 0, 1], [4, 3, 1, 2, 0]]
    loop = {(a, b): rows[a][b] for a in range(5) for b in range(5)}
    with pytest.raises(StructureError):
        FiniteGroup(range(5), loop)
    assert not group_table_isomorphic(range(5), loop, range(5), loop)
    # a monoid: 1 * 1 = 1 has no inverse
    monoid = {(0, 0): 0, (0, 1): 1, (1, 0): 1, (1, 1): 1}
    assert not group_table_isomorphic([0, 1], monoid, [0, 1], monoid)
    C5 = presets.group("C5")
    assert not group_table_isomorphic(range(5), loop, C5.elements, _table(C5))
