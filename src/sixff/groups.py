"""Finite groups as explicit multiplication tables.

Groups enter either as full Cayley tables or as permutation generators,
closed on load through a `groupoid.RuleTable` of permutation composition
(a after b), from which the Cayley table of the closure is read.  Elements
carry a fixed total order so that coset representatives and structure
constants are reproducible bit for bit.  One walk from generators
(`_walk`) closes permutations on load, generates subgroups, and extends
images of generators to homomorphisms, which the isomorphism test
searches.
"""

from __future__ import annotations

from itertools import product

from .groupoid import RuleTable, StructureError, okey


def _walk(table, identity, gens):
    """The one walk of a finite group from generators: the closure of the
    identity under right multiplication by `gens` in `table`.  It returns
    a spanning tree, a dict in the order the walk finds the elements, that
    sends the identity to None and every other element c to its parent a,
    found before c, with c = a*g for a generator g.  In a finite group the
    monoid the generators generate is a group, so the tree's keys are the
    subgroup they generate."""
    tree = {identity: None}
    frontier = [identity]
    while frontier:
        a = frontier.pop()
        for g in gens:
            c = table[(a, g)]
            if c not in tree:
                tree[c] = a
                frontier.append(c)
    return tree


class FiniteGroup:
    def __init__(self, elements, table, name=None):
        self._set_up(elements, table, name)
        bad = self.axiom_report()
        if bad:
            raise StructureError("group axiom fails: %s" % bad[0])

    def _set_up(self, elements, table, name):
        """Everything `__init__` does but the |G|^3 axiom scan: the table is
        total, an identity exists and inverses are found."""
        self.elements = tuple(sorted(elements, key=okey))
        self.table = dict(table)
        self.name = name or "G%d" % len(self.elements)
        self._subgroups = {}
        eset = set(self.elements)
        if len(eset) != len(self.elements):
            raise StructureError("duplicate group elements")
        for a in self.elements:
            for b in self.elements:
                if (a, b) not in self.table or self.table[(a, b)] not in eset:
                    raise StructureError("multiplication table not total")
        self.identity = self._find_identity()
        if self.identity is None:
            raise StructureError("group axiom fails: no identity element")
        self._inv = {}
        for a in self.elements:
            for b in self.elements:
                if self.table[(a, b)] == self.identity and \
                   self.table[(b, a)] == self.identity:
                    self._inv[a] = b
                    break

    def _find_identity(self):
        for e in self.elements:
            if all(self.table[(e, x)] == x == self.table[(x, e)]
                   for x in self.elements):
                return e
        return None

    def axiom_report(self):
        out = []
        for a in self.elements:
            if a not in self._inv:
                out.append("no inverse for %r" % (a,))
        for a in self.elements:
            for b in self.elements:
                for c in self.elements:
                    if self.table[(self.table[(a, b)], c)] != \
                       self.table[(a, self.table[(b, c)])]:
                        out.append("associativity fails at (%r,%r,%r)" % (a, b, c))
                        return out
        return out

    def mul(self, a, b):
        return self.table[(a, b)]

    def inv(self, a):
        return self._inv[a]

    def __len__(self):
        return len(self.elements)

    def __repr__(self):
        return "FiniteGroup(%s, order %d)" % (self.name, len(self))

    # -- constructions -------------------------------------------------------

    @staticmethod
    def from_permutations(gens, name=None):
        """Close a set of permutations (tuples of images) under composition;
        shorter ones fix the points up to the longest one's degree."""
        gens = [tuple(g) for g in gens]
        degree = max((len(g) for g in gens), default=1)
        gens = [g + tuple(range(len(g), degree)) for g in gens]
        compose = RuleTable(lambda a, b: tuple(a[i] for i in b))
        elems = _walk(compose, tuple(range(degree)), gens)
        table = {(a, b): compose[a, b] for a in elems for b in elems}
        return FiniteGroup(elems, table, name=name)

    @staticmethod
    def cyclic(n, name=None):
        elems = list(range(n))
        table = {(a, b): (a + b) % n for a in elems for b in elems}
        return FiniteGroup(elems, table, name=name or "C%d" % n)

    @staticmethod
    def direct_product(G, H, name=None):
        elems = [(g, h) for g in G.elements for h in H.elements]
        table = {((g1, h1), (g2, h2)): (G.mul(g1, g2), H.mul(h1, h2))
                 for (g1, h1) in elems for (g2, h2) in elems}
        return FiniteGroup(elems, table,
                           name=name or "%sx%s" % (G.name, H.name))

    def subgroup(self, elems, name=None):
        """The subgroup on a subset closed under multiplication, built once
        per (subset, name), so its delooping is built once too.  A closed
        subset of a finite group is a subgroup, and its table is part of
        this one, which is already checked, so the axioms are not scanned
        again.  A subset that is not a subgroup raises on every call."""
        elems = frozenset(elems)
        H = self._subgroups.get((elems, name))
        if H is not None:
            return H
        table = {(a, b): self.mul(a, b) for a in elems for b in elems}
        for v in table.values():
            if v not in elems:
                raise StructureError("subset not closed under multiplication")
        H = FiniteGroup.__new__(FiniteGroup)
        H._set_up(elems, table, name)
        self._subgroups[(elems, name)] = H
        return H

    def generated_subgroup(self, gens):
        """The subgroup generated by `gens`, as a frozenset."""
        return frozenset(_walk(self.table, self.identity, tuple(gens)))

    def homomorphisms(self, gens, H):
        """Every homomorphism from this group to H, each as a dict, one per
        tuple of images of `gens` (which generate this group) that extends
        to one, in `itertools.product(H.elements, repeat=len(gens))`
        order."""
        return list(self._extensions(gens, H, [H.elements] * len(gens)))

    def _extensions(self, gens, H, candidates):
        """The homomorphisms to H that send gens[i] into candidates[i], in
        `itertools.product(*candidates)` order.  Each tuple of images is
        extended along the walk's spanning tree and kept when
        phi(a*g) = phi(a)*phi(g) for every element a and generator g, which
        by induction on word length makes phi a homomorphism."""
        gens = tuple(gens)
        tree = _walk(self.table, self.identity, gens)
        if len(tree) != len(self):
            raise ValueError("the generators do not generate %s" % self.name)
        table, htable = self.table, H.table
        # each element c, its parent a and the generator g = a^-1 c
        steps = [(c, a, table[(self._inv[a], c)])
                 for c, a in list(tree.items())[1:]]
        for images in product(*candidates):
            image = dict(zip(gens, images))
            phi = {self.identity: H.identity}
            for c, a, g in steps:
                phi[c] = htable[(phi[a], image[g])]
            if all(phi[table[(a, g)]] == htable[(phi[a], t)]
                   for a in self.elements for g, t in zip(gens, images)):
                yield phi

    def _orders(self):
        """Each element's order, the size of the subgroup it generates."""
        return {x: len(_walk(self.table, self.identity, (x,)))
                for x in self.elements}

    def is_isomorphic(self, H):
        """Whether some bijective homomorphism to H exists.  The orders and
        the multisets of element orders must agree; generators are chosen
        greedily, and each one's candidate images are the elements of H of
        its order."""
        if len(self) != len(H):
            return False
        orders, orders_h = self._orders(), H._orders()
        if sorted(orders.values()) != sorted(orders_h.values()):
            return False
        gens, span = [], {self.identity}
        for x in self.elements:
            if x not in span:
                gens.append(x)
                span = self.generated_subgroup(gens)
        candidates = [[y for y in H.elements if orders_h[y] == orders[g]]
                      for g in gens]
        return any(len(set(phi.values())) == len(H)
                   for phi in self._extensions(gens, H, candidates))

    def all_subgroups(self):
        """All subgroups (as frozensets), by iterated one-generator
        extension.  Each found subgroup keeps the generators it was found
        from, and an extension closes only those and the new element."""
        trivial = frozenset({self.identity})
        seen = {trivial}
        frontier = [(trivial, ())]
        while frontier:
            H, gens = frontier.pop()
            for g in self.elements:
                if g in H:
                    continue
                K = frozenset(_walk(self.table, self.identity, gens + (g,)))
                if K not in seen:
                    seen.add(K)
                    frontier.append((K, gens + (g,)))
        return sorted(seen, key=lambda H: (len(H), sorted(okey(x) for x in H)))

    def conjugate_subgroup(self, H, g):
        gi = self.inv(g)
        return frozenset(self.mul(self.mul(g, h), gi) for h in H)

    def subgroups_up_to_conjugacy(self):
        """One representative per conjugacy class of subgroups (the
        lexicographically least member of the class)."""
        classes = []
        seen = set()
        for H in self.all_subgroups():
            if H in seen:
                continue
            orbit = {self.conjugate_subgroup(H, g) for g in self.elements}
            seen |= orbit
            rep = min(orbit, key=lambda K: sorted(okey(x) for x in K))
            classes.append(rep)
        return classes

    def is_subgroup(self, elems):
        s = set(elems)
        if self.identity not in s:
            return False
        return all(self.mul(a, b) in s for a in s for b in s) and \
            all(self.inv(a) in s for a in s)
