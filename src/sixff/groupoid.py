"""Finite categories and groupoids with exact table-based structure.

Objects and morphisms are identified by hashable ids (strings, ints, or
nested tuples); equality is always by id, never positional.  All structure
(composition, identities, inverses) is stored in explicit tables, and every
axiom check is an exact table lookup.  Construction checks the tables in
one pass over the morphisms, and that pass also builds the category's one
arrow index, by source (`FiniteCategory.out`); hom sets and composable
pairs are read from that index.  Ids are often nested tuples, whose hashes
Python does not cache, so constructions look each id up as few times as
they can.

The module provides validation, deloopings of finite groups (one per group
and object), action groupoids, anchored n-fold relative products (the one
fiber-product construction; the iso-comma 2-categorical pullback of
groupoids is its binary case), skeletalization, equivalence testing (its
groups compared by `FiniteGroup.is_isomorphic`), the one component search
(`component_search`, behind `transport_to_reps` and the Kan fibers of
`sheaves`), presentations by generators (`FiniteCategory.presentation`,
read off `transport_to_reps`; sheaves are given at the generators), and
truncated Čech nerves.

A relative product has one arrow rule, `RelProduct.arrows_out`: the
arrows out of one object.  Its groupoid is built from that rule on first
use.  `pi0_and_aut` and `transport_to_reps` read any groupoid or relative
product through its `arrows(x)`, so on a relative product they cost only
the arrows out of the component representatives, and the product's
groupoid is never built.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from functools import cached_property
from operator import getitem


class StructureError(Exception):
    """Malformed input tables (dangling ids, non-total maps) - distinct from
    an axiom violation, which is reported, not raised."""


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str

    def __str__(self):
        return "[%s] %s" % (self.code, self.detail)


_okey_memo = {}


def okey(x):
    """Canonical total order key for mixed hashable ids (memoized)."""
    try:
        return _okey_memo[x]
    except KeyError:
        pass
    except TypeError:
        return _okey_raw(x)
    out = _okey_raw(x)
    if len(_okey_memo) < 1 << 20:
        _okey_memo[x] = out
    return out


def _okey_raw(x):
    if isinstance(x, tuple):
        return "(" + ",".join(okey(a) for a in x) + ")"
    if isinstance(x, frozenset):
        return "{" + ",".join(sorted(okey(a) for a in x)) + "}"
    return "%s:%s" % (type(x).__name__, x)


class FiniteCategory:
    """A finite category given by explicit tables.

    compose[(g, f)] = g∘f, defined exactly when dst(f) == src(g).
    out[x] is the tuple of morphisms out of x, in morphism order: the one
    arrow index of the category, built at construction by the pass that
    checks the tables.
    """

    is_groupoid = False

    def __init__(self, objects, morphisms, src, dst, identity, compose):
        self.objects = tuple(sorted(objects, key=okey))
        self.morphisms = tuple(sorted(morphisms, key=okey))
        self.src = dict(src)
        self.dst = dict(dst)
        self.identity = dict(identity)
        if callable(compose):
            self._comp = None
            self._comp_fn = compose
        else:
            self._comp = dict(compose)
            self._comp_fn = None
        self._check_structure()

    def _check_structure(self):
        """Check the tables, building `out` in the same pass over the
        morphisms; return the set of morphisms."""
        objects, morphisms = self.objects, self.morphisms
        mset = set(morphisms)
        if len(set(objects)) != len(objects) or len(mset) != len(morphisms):
            raise StructureError("duplicate ids")
        src, dst = self.src, self.dst
        out = {x: [] for x in objects}
        for m in morphisms:
            try:
                x, y = src[m], dst[m]
            except KeyError:
                raise StructureError(
                    "morphism %r missing source/target" % (m,)) from None
            ms = out.get(x)
            if ms is None or y not in out:
                raise StructureError("morphism %r has dangling endpoint" % (m,))
            ms.append(m)
        for x in objects:
            if x not in self.identity:
                raise StructureError("object %r has no identity" % (x,))
            e = self.identity[x]
            if e not in mset:
                raise StructureError("identity of %r is dangling" % (x,))
            if src[e] != x or dst[e] != x:
                raise StructureError("identity of %r is not an endomorphism" % (x,))
        if self._comp is not None:
            for (g, f), h in self._comp.items():
                if g not in mset or f not in mset or h not in mset:
                    raise StructureError("composition entry with dangling id")
                if dst[f] != src[g]:
                    raise StructureError(
                        "composition entry (%r,%r) not composable" % (g, f))
        self.out = {x: tuple(ms) for x, ms in out.items()}
        return mset

    def compose(self, g, f):
        if self._comp is not None:
            try:
                return self._comp[(g, f)]
            except KeyError:
                raise StructureError("missing composite (%r, %r)" % (g, f))
        if self.dst[f] != self.src[g]:
            raise StructureError("missing composite (%r, %r)" % (g, f))
        return self._comp_fn(g, f)

    def composable_pairs(self):
        out = self.out
        for f in self.morphisms:
            for g in out[self.dst[f]]:
                yield g, f

    def hom(self, x, y):
        dst = self.dst
        return [m for m in self.out.get(x, ()) if dst[m] == y]

    def arrows(self, x):
        """The arrows (u, dst u) out of x, in morphism order, read from
        `out`: what the component search reads (see `RelProduct.arrows`)."""
        dst = self.dst
        return [(u, dst[u]) for u in self.out[x]]

    def inverse_of(self, m):
        """The first n: dst m -> src m, in morphism order, with n∘m and
        m∘n identities; None if m is not invertible."""
        x, y = self.src[m], self.dst[m]
        for n in self.hom(y, x):
            if (self.compose(n, m) == self.identity[x]
                    and self.compose(m, n) == self.identity[y]):
                return n
        return None

    def is_iso(self, m):
        return self.inverse_of(m) is not None

    def validate(self):
        """Axiom report: empty iff the tables form a category."""
        report = []
        mset = set(self.morphisms)

        def comp_get(g, f):
            try:
                h = self.compose(g, f)
            except StructureError:
                return None
            return h if h in mset else None

        for g, f in self.composable_pairs():
            if comp_get(g, f) is None:
                report.append(Violation(
                    "axiom/composability",
                    "composite of (%r, %r) undefined" % (g, f)))
        for g, f in self.composable_pairs():
            h = comp_get(g, f)
            if h is None:
                continue
            if self.src[h] != self.src[f] or self.dst[h] != self.dst[g]:
                report.append(Violation(
                    "axiom/endpoints",
                    "composite %r of (%r,%r) has wrong endpoints" % (h, g, f)))
        for m in self.morphisms:
            ex, ey = self.identity[self.src[m]], self.identity[self.dst[m]]
            if comp_get(m, ex) != m:
                report.append(Violation(
                    "axiom/unit", "%r ∘ id != %r" % (m, m)))
            if comp_get(ey, m) != m:
                report.append(Violation(
                    "axiom/unit", "id ∘ %r != %r" % (m, m)))
        for h in self.morphisms:
            for g in self.morphisms:
                if self.src[h] != self.dst[g]:
                    continue
                gh = comp_get(h, g)
                for f in self.morphisms:
                    if self.src[g] != self.dst[f]:
                        continue
                    gf = comp_get(g, f)
                    lhs = comp_get(h, gf) if gf is not None else None
                    rhs = comp_get(gh, f) if gh is not None else None
                    if lhs != rhs:
                        report.append(Violation(
                            "axiom/associativity",
                            "(%r∘%r)∘%r != %r∘(%r∘%r)" % (h, g, f, h, g, f)))
        return report

    def __repr__(self):
        return "%s(%d objects, %d morphisms)" % (
            type(self).__name__, len(self.objects), len(self.morphisms))

    # Built once per category, so the Kan functors along them share their
    # fibers.  Each refers back to the category; the cycle is collected
    # with it.

    @cached_property
    def to_point(self):
        """The map to a terminal groupoid of its own."""
        return to_terminal(self, terminal_groupoid())

    @cached_property
    def identity_functor(self):
        return identity_functor(self)

    @cached_property
    def presentation(self):
        """Generators of the category and the word of every other
        morphism in them (see `Presentation`); sheaves on the category are
        given at its generators."""
        return Presentation(self)


class Presentation:
    """Generators of a finite category, and how every morphism is read off
    them.

    In a groupoid, with t[x]: comp_of[x] -> x the tree arrows of
    `transport_to_reps`, the generators are each tree arrow t[x] and its
    inverse t_inv[x] for x not a representative, and for each
    representative r the generators gens[r] of Aut(r), chosen greedily in
    morphism order.  walk[r] is their `groups._walk` spanning tree: in
    walk order, each automorphism c but the identity maps to (a, g) with
    c = a∘g and g in gens[r].  A morphism m: x -> y is then
    t[y] ∘ a ∘ t_inv[x], with a = t_inv[y] ∘ m ∘ t[x] in Aut(comp_of[x]).
    A category with no inverse table (read by `io`) has no tree (t is
    None): its generators are its non-identity morphisms.

    `generators` lists the generators in morphism order and `gen_set`
    holds them.
    """

    __slots__ = ("generators", "gen_set", "t", "t_inv", "comp_of", "gens",
                 "walk")

    def __init__(self, cat):
        if not cat.is_groupoid:
            self.t = self.t_inv = self.comp_of = self.gens = self.walk = None
            idents = set(cat.identity.values())
            self._set_generators([m for m in cat.morphisms
                                  if m not in idents])
            return
        from .groups import _walk
        found = {}
        t, comp_of = transport_to_reps(cat, found)
        inv, table = cat.inverse, _table(cat)
        self.t, self.comp_of = t, comp_of
        self.t_inv = t_inv = {x: inv[u] for x, u in t.items()}
        chosen = []
        for x, r in comp_of.items():
            if x != r:
                chosen += (t[x], t_inv[x])
        self.gens, self.walk = {}, {}
        for r, auts in found.items():
            e = cat.identity[r]
            gens, tree = [], {e: None}
            for a in auts:
                if a not in tree:
                    gens.append(a)
                    tree = _walk(table, e, gens)
            chosen += gens
            self.gens[r] = tuple(gens)
            del tree[e]
            self.walk[r] = {c: (a, table[(inv[a], c)])
                            for c, a in tree.items()}
        self._set_generators(sorted(chosen, key=okey))

    def _set_generators(self, generators):
        self.generators = tuple(generators)
        self.gen_set = frozenset(generators)


_MISSING = object()


class FiniteGroupoid(FiniteCategory):
    is_groupoid = True

    def __init__(self, objects, morphisms, src, dst, identity, compose, inverse):
        self.inverse = dict(inverse)
        super().__init__(objects, morphisms, src, dst, identity, compose)

    def _check_structure(self):
        """The category checks, then one inverse lookup per morphism."""
        mset = super()._check_structure()
        get = self.inverse.get
        for m in self.morphisms:
            if get(m, _MISSING) not in mset:
                raise StructureError("morphism %r lacks an inverse entry" % (m,))
        return mset

    def validate(self):
        report = super().validate()
        for m in self.morphisms:
            n = self.inverse[m]
            x, y = self.src[m], self.dst[m]
            try:
                left, right = self.compose(n, m), self.compose(m, n)
            except StructureError:
                left = right = None
            if left != self.identity[x] or right != self.identity[y]:
                report.append(Violation(
                    "axiom/inverse", "inverse of %r fails" % (m,)))
        return report


def presented_category(objects, arrows, identity, compose):
    """The finite category on `objects` whose morphisms a -> b are the ids
    `arrows(a, b)`, with identities `identity(a)`; `compose(g, f)` is
    tabled over every composable pair."""
    objects = list(objects)
    morphisms, src, dst, into = [], {}, {}, {}
    for a in objects:
        for b in objects:
            for m in arrows(a, b):
                morphisms.append(m)
                src[m], dst[m] = a, b
                into.setdefault(b, []).append(m)
    table = {(g, f): compose(g, f)
             for g in morphisms for f in into.get(src[g], ())}
    return FiniteCategory(objects, morphisms, src, dst,
                          {a: identity(a) for a in objects}, table)


def poset_category(elements, leq, tag="le"):
    """The poset category of `elements` under `leq`: one morphism
    (tag, a, b) exactly when leq(a, b)."""
    return presented_category(
        elements, lambda a, b: [(tag, a, b)] if leq(a, b) else [],
        lambda a: (tag, a, a), lambda g, f: (tag, f[1], g[2]))


def validate_category(cat):
    return cat.validate()


# ---------------------------------------------------------------------------
# Functors and natural transformations
# ---------------------------------------------------------------------------

class Functor:
    def __init__(self, dom, cod, ob, mor, name=None):
        self.dom, self.cod = dom, cod
        self.ob = dict(ob)
        self.mor = dict(mor)
        self.name = name
        cod_objs = set(cod.objects)
        cod_mors = set(cod.morphisms)
        for x in dom.objects:
            if x not in self.ob:
                raise StructureError("object map not total at %r" % (x,))
            if self.ob[x] not in cod_objs:
                raise StructureError("object map leaves target at %r" % (x,))
        for m in dom.morphisms:
            if m not in self.mor:
                raise StructureError("morphism map not total at %r" % (m,))
            if self.mor[m] not in cod_mors:
                raise StructureError("morphism map leaves target at %r" % (m,))

    def validate(self):
        report = []
        for m in self.dom.morphisms:
            fm = self.mor[m]
            if self.cod.src[fm] != self.ob[self.dom.src[m]] or \
               self.cod.dst[fm] != self.ob[self.dom.dst[m]]:
                report.append(Violation(
                    "functor/endpoints", "image of %r has wrong endpoints" % (m,)))
        for x in self.dom.objects:
            if self.mor[self.dom.identity[x]] != self.cod.identity[self.ob[x]]:
                report.append(Violation(
                    "functor/identity", "identity at %r not preserved" % (x,)))
        for g, f in self.dom.composable_pairs():
            lhs = self.mor[self.dom.compose(g, f)]
            rhs = self.cod.compose(self.mor[g], self.mor[f])
            if lhs != rhs:
                report.append(Violation(
                    "functor/composition",
                    "composite (%r,%r) not preserved" % (g, f)))
        return report

    def __repr__(self):
        return "Functor(%s)" % (self.name or "%r -> %r" % (self.dom, self.cod))


def validate_functor(F):
    return F.validate()


def identity_functor(cat):
    return Functor(cat, cat, {x: x for x in cat.objects},
                   {m: m for m in cat.morphisms}, name="id")


def compose_functors(g, f):
    assert f.cod is g.dom or f.cod.morphisms == g.dom.morphisms
    return Functor(f.dom, g.cod,
                   {x: g.ob[f.ob[x]] for x in f.dom.objects},
                   {m: g.mor[f.mor[m]] for m in f.dom.morphisms},
                   name=None)


def functors_equal(f, g):
    return f.ob == g.ob and f.mor == g.mor


class NatTrans:
    """component[x]: F(x) -> G(x) in the target category."""

    def __init__(self, F, G, component):
        self.F, self.G = F, G
        self.component = dict(component)

    def validate(self):
        report = []
        C = self.F.cod
        _cmors = set(C.morphisms)
        for x in self.F.dom.objects:
            c = self.component.get(x)
            if c is None or c not in _cmors:
                report.append(Violation("nat/total", "no component at %r" % (x,)))
                continue
            if C.src[c] != self.F.ob[x] or C.dst[c] != self.G.ob[x]:
                report.append(Violation("nat/endpoints",
                                        "component at %r has wrong endpoints" % (x,)))
        for m in self.F.dom.morphisms:
            x, y = self.F.dom.src[m], self.F.dom.dst[m]
            lhs = C.compose(self.component[y], self.F.mor[m])
            rhs = C.compose(self.G.mor[m], self.component[x])
            if lhs != rhs:
                report.append(Violation("nat/naturality",
                                        "square at %r fails" % (m,)))
        return report

    def is_invertible(self):
        C = self.F.cod
        return all(C.is_iso(c) for c in self.component.values())

    def inverse(self):
        C = self.F.cod
        assert C.is_groupoid
        return NatTrans(self.G, self.F,
                        {x: C.inverse[c] for x, c in self.component.items()})


# ---------------------------------------------------------------------------
# Group deloopings and action groupoids
# ---------------------------------------------------------------------------

# _DELOOPINGS[group][obj] is the delooping of group at obj.  It holds no
# reference to the group, so the entry dies with the group.
_DELOOPINGS = weakref.WeakKeyDictionary()


def delooping(group, obj="*"):
    """One-object groupoid of a finite group (see groups.FiniteGroup, whose
    constructor checks the group axioms), built once per (group, obj).  Its
    composites are the group's table."""
    built = _DELOOPINGS.setdefault(group, {})
    if obj in built:
        return built[obj]
    morphisms, table = group.elements, group.table
    if len(table) != len(morphisms) ** 2:
        table = {(g, h): table[(g, h)] for g in morphisms for h in morphisms}
    built[obj] = FiniteGroupoid(
        objects=[obj],
        morphisms=morphisms,
        src=dict.fromkeys(morphisms, obj),
        dst=dict.fromkeys(morphisms, obj),
        identity={obj: group.identity},
        compose=table,
        inverse={g: group.inv(g) for g in morphisms})
    return built[obj]


def delooping_hom(phi, dom_grpd, cod_grpd):
    """Functor of deloopings induced by a group homomorphism table."""
    o1, o2 = dom_grpd.objects[0], cod_grpd.objects[0]
    return Functor(dom_grpd, cod_grpd, {o1: o2}, dict(phi))


def action_groupoid(group, xset, action):
    """Quotient stack X//G of a finite G-set: objects X, morphisms
    (g, x): x -> g·x, with the projection functor to the delooping."""
    e = group.identity
    for x in xset:
        if action[(e, x)] != x:
            raise StructureError("unit acts nontrivially on %r" % (x,))
    for g in group.elements:
        for h in group.elements:
            for x in xset:
                if action[(g, action[(h, x)])] != action[(group.mul(g, h), x)]:
                    raise StructureError(
                        "action axiom fails at (%r,%r,%r)" % (g, h, x))
    morphisms = [(g, x) for g in group.elements for x in xset]
    src = {(g, x): x for (g, x) in morphisms}
    dst = {(g, x): action[(g, x)] for (g, x) in morphisms}
    comp = {}
    for (g, x) in morphisms:
        gx = action[(g, x)]
        for h in group.elements:
            comp[((h, gx), (g, x))] = (group.mul(h, g), x)
    G = FiniteGroupoid(
        objects=list(xset), morphisms=morphisms, src=src, dst=dst,
        identity={x: (e, x) for x in xset},
        compose=comp,
        inverse={(g, x): (group.inv(g), action[(g, x)]) for (g, x) in morphisms})
    BG = delooping(group)
    proj = Functor(G, BG, {x: BG.objects[0] for x in xset},
                   {(g, x): g for (g, x) in morphisms}, name="X//G -> */G")
    return G, proj


def terminal_groupoid(obj="*"):
    return FiniteGroupoid([obj], [("id", obj)], {("id", obj): obj},
                          {("id", obj): obj}, {obj: ("id", obj)},
                          {(("id", obj), ("id", obj)): ("id", obj)},
                          {("id", obj): ("id", obj)})


def to_terminal(X, pt):
    o = pt.objects[0]
    e = pt.identity[o]
    return Functor(X, pt, {x: o for x in X.objects},
                   {m: e for m in X.morphisms}, name="to *")


def disjoint_union(grpds):
    objects, morphisms, src, dst, ident, comp, inv = [], [], {}, {}, {}, {}, {}
    for i, G in enumerate(grpds):
        for x in G.objects:
            objects.append((i, x))
            ident[(i, x)] = (i, G.identity[x])
        for m in G.morphisms:
            morphisms.append((i, m))
            src[(i, m)] = (i, G.src[m])
            dst[(i, m)] = (i, G.dst[m])
            inv[(i, m)] = (i, G.inverse[m])
        if G._comp is not None:
            for (g, f), h in G._comp.items():
                comp[((i, g), (i, f))] = (i, h)
        else:
            for g, f in G.composable_pairs():
                comp[((i, g), (i, f))] = (i, G.compose(g, f))
    return FiniteGroupoid(objects, morphisms, src, dst, ident, comp, inv)


# ---------------------------------------------------------------------------
# Components, automorphism groups, skeletalization, equivalence
# ---------------------------------------------------------------------------

def pi0_and_aut(grpd):
    """List of (component representative, automorphism multiplication table).

    The table is a dict (g, h) -> g∘h over the endomorphisms at the
    representative (all invertible in a groupoid).  `grpd` is a groupoid or
    a `RelProduct`: only its objects, identities, composites and the
    arrows out of each representative are read.
    """
    found = {}
    transport_to_reps(grpd, found)
    out = []
    for rep, auts in found.items():
        auts = tuple(auts)
        table = {(g, h): grpd.compose(g, h) for g in auts for h in auts}
        out.append((rep, auts, table))
    return out


def component_search(objects, arrows, identity):
    """Components of a finite groupoid in one pass over the arrows out of
    each representative.  `objects` come in okey order, `arrows(o)` lists
    the arrows (u, o2) out of o in morphism order and `identity(o)` is o's
    identity.  Returns (reps, auts, locate): the okey-least object of each
    component; auts[rep], the arrows rep -> rep in morphism order; and
    locate[o] = (i, u), with i the index of o's component in reps and u the
    first arrow reps[i] -> o (the identity at a representative).  In a
    groupoid every object of a component is the end of an arrow out of its
    representative, so one pass locates them all."""
    reps, auts, locate = [], {}, {}
    for rep in objects:
        if rep in locate:
            continue
        i = len(reps)
        reps.append(rep)
        locate[rep] = (i, identity(rep))
        ends = auts[rep] = []
        for u, o in arrows(rep):
            if o == rep:
                ends.append(u)
            elif o not in locate:
                locate[o] = (i, u)
    return reps, auts, locate


def transport_to_reps(grpd, auts=None):
    """(t, comp_of): comp_of[x] is the okey-least object of x's component
    and t[x]: comp_of[x] -> x its first arrow to x in morphism order
    (t_rep = id), both read off `component_search` over `grpd.arrows`.
    A dict `auts` receives, from the same pass, auts[rep]: the arrows
    rep -> rep in morphism order, representatives in component order."""
    reps, found, locate = component_search(
        grpd.objects, grpd.arrows, grpd.identity.__getitem__)
    if auts is not None:
        auts.update(found)
    t = {x: u for x, (_, u) in locate.items()}
    comp_of = {x: reps[i] for x, (i, _) in locate.items()}
    return t, comp_of


def skeletalize(grpd):
    """(skeletal groupoid, incl, retr, eta) with retr∘incl = id on the nose
    and eta: incl∘retr -> id an invertible natural transformation."""
    t, comp_of = transport_to_reps(grpd)
    reps = sorted(set(comp_of.values()), key=okey)
    rep_set = set(reps)
    morphisms = [m for m in grpd.morphisms
                 if grpd.src[m] in rep_set and grpd.dst[m] in rep_set]
    skel = FiniteGroupoid(
        reps, morphisms,
        {m: grpd.src[m] for m in morphisms},
        {m: grpd.dst[m] for m in morphisms},
        {x: grpd.identity[x] for x in reps},
        {(g, f): grpd.compose(g, f) for g in morphisms for f in morphisms
         if grpd.src[g] == grpd.dst[f]},
        {m: grpd.inverse[m] for m in morphisms})
    incl = Functor(skel, grpd, {x: x for x in reps},
                   {m: m for m in morphisms}, name="incl")

    def retract_mor(m):
        x, y = grpd.src[m], grpd.dst[m]
        return grpd.compose(grpd.inverse[t[y]], grpd.compose(m, t[x]))

    retr = Functor(grpd, skel, {x: comp_of[x] for x in grpd.objects},
                   {m: retract_mor(m) for m in grpd.morphisms}, name="retr")
    eta = NatTrans(compose_functors(incl, retr), identity_functor(grpd),
                   {x: t[x] for x in grpd.objects})
    return skel, incl, retr, eta


def group_table_isomorphic(elems_a, table_a, elems_b, table_b):
    """Whether two multiplication tables (dicts) are isomorphic groups, by
    `FiniteGroup.is_isomorphic`; a table that is not a group is isomorphic
    to nothing."""
    from .groups import FiniteGroup
    try:
        A = FiniteGroup(elems_a, table_a)
        B = FiniteGroup(elems_b, table_b)
    except StructureError:
        return False
    return A.is_isomorphic(B)


def equivalent_groupoids(X, Y):
    """Equivalence test via skeletalization and component-wise group
    isomorphism search."""
    ax = pi0_and_aut(X)
    ay = pi0_and_aut(Y)
    if len(ax) != len(ay):
        return False
    used = [False] * len(ay)

    def match(i):
        if i == len(ax):
            return True
        _, auts_x, tab_x = ax[i]
        for j, (_, auts_y, tab_y) in enumerate(ay):
            if used[j] or len(auts_x) != len(auts_y):
                continue
            if group_table_isomorphic(auts_x, tab_x, auts_y, tab_y):
                used[j] = True
                if match(i + 1):
                    return True
                used[j] = False
        return False

    return match(0)


# ---------------------------------------------------------------------------
# Iso-comma fiber products and anchored relative products
# ---------------------------------------------------------------------------

class _Composites:
    """The composites g∘f of a category without a composition table, read
    as `table[(g, f)]`, like a table."""

    __slots__ = ("cat",)

    def __init__(self, cat):
        self.cat = cat

    def __getitem__(self, gf):
        return self.cat.compose(*gf)


def _table(cat):
    """`cat`'s composition table, or for a category without one (a
    product) its own compose; both are read as table[(g, f)]."""
    return cat._comp if cat._comp is not None else _Composites(cat)


class RelProduct:
    """Anchored n-fold relative product of maps a_i: X_i -> S (n >= 2).

    Objects are (xs, ms) where xs is a tuple of objects and ms[i - 1] is an
    iso a_0(x_0) -> a_i(x_i) in S for i >= 1 (the anchor).  A morphism is
    (o, us): its source o and a tuple of morphisms us.  `arrows_out` is the
    one arrow rule.  The product as a FiniteGroupoid, `grpd`, is built from
    it on first use; `arrows` reads it one object at a time, so components
    and automorphism groups (`pi0_and_aut`) cost only the arrows out of
    their representatives.  Every reindexing (projection, diagonal, swap,
    reversal) is `proj_onto`, and factor projections satisfy
    factor(k)∘proj_onto(I) = factor(I[k]) on the nose.
    """

    def __init__(self, S, factors):
        assert len(factors) >= 2
        self.S = S
        self.factors = list(factors)   # list of (groupoid, functor to S)
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
        self.objects = tuple(sorted(objects, key=okey))
        self.identity = {o: (o, tuple(X.identity[x] for X, x in zip(Xs, o[0])))
                         for o in objects}
        # legs[i][x]: the legs (u, dst u, u^-1, a_i(u)) out of x in X_i, in
        # morphism order.  moved[i - 1][(x, c)]: the same legs with
        # a_i(u)∘c in place of a_i(u), built once per (x, c).
        self._legs = [{x: [(u, X.dst[u], X.inverse[u], a.mor[u])
                           for u in X.out[x]] for x in X.objects}
                      for X, a in factors]
        self._moved = [{} for _ in factors[1:]]
        self._factor_projs = {}
        # g∘f factor by factor; it holds the tables, not self, so `grpd`
        # does not refer back to the product
        tables = [_table(X) for X in Xs]
        self.compose = lambda g, f: (
            f[0], tuple(map(getitem, tables, zip(g[1], f[1]))))

    def arrows_out(self, o):
        """The morphisms m out of o as (m, dst m, m^-1), leg by leg, which
        need not be morphism order.  The one arrow rule: (u_0, ..., u_{n-1})
        moves anchor m_i to a_i(u_i)∘c_i with c_i = m_i∘a_0(u_0)^-1, so c_i
        is found once per first leg."""
        xs, ms = o
        s_comp, s_inv = _table(self.S), self.S.inverse
        later = list(zip(self._moved, self._legs[1:], xs[1:], ms))
        out = []
        for u0, y0, v0, au0 in self._legs[0][xs[0]]:
            back = s_inv[au0]
            partial = [((u0,), (y0,), (v0,), ())]
            for memo, legs_i, x, m in later:
                c = s_comp[(m, back)]
                step = memo.get((x, c))
                if step is None:
                    step = memo[(x, c)] = [
                        (u, y, v, s_comp[(au, c)])
                        for u, y, v, au in legs_i[x]]
                partial = [(us + (u,), ys + (y,), vs + (v,), an + (c2,))
                           for us, ys, vs, an in partial
                           for u, y, v, c2 in step]
            for us, ys, vs, an in partial:
                o2 = (ys, an)
                out.append(((o, us), o2, (o2, vs)))
        return out

    def arrows(self, o):
        """The arrows (m, dst m) out of o, in morphism order, read from
        `arrows_out`.  A target that is not an object raises StructureError,
        as it does when `grpd` is built."""
        ident = self.identity
        out = []
        for m, o2, _ in self.arrows_out(o):
            if o2 not in ident:
                raise StructureError(
                    "morphism %r has dangling endpoint" % (m,))
            out.append((m, o2))
        out.sort(key=lambda arrow: okey(arrow[0]))
        return out

    @cached_property
    def grpd(self):
        """The product as a FiniteGroupoid: `arrows_out` over every
        object."""
        morphisms, src, dst, inv = [], {}, {}, {}
        for o in self.objects:
            for m, o2, v in self.arrows_out(o):
                morphisms.append(m)
                src[m], dst[m], inv[m] = o, o2, v
        return FiniteGroupoid(self.objects, morphisms, src, dst,
                              self.identity, self.compose, inv)

    def factor_proj(self, i):
        """The projection onto factor i, built once per i, as `diagonal`
        is, so the Kan functors along it share their fibers."""
        if i not in self._factor_projs:
            self._factor_projs[i] = Functor(
                self.grpd, self.factors[i][0],
                {o: o[0][i] for o in self.grpd.objects},
                {m: m[1][i] for m in self.grpd.morphisms}, name="pr%d" % i)
        return self._factor_projs[i]

    def proj_onto(self, indices, target):
        """The reindexing functor onto the RelProduct `target` whose factor
        k is factor indices[k] of this one.  Indices may repeat and
        reorder.  With anchor = (id_{a0(x0)},) + ms, target anchor k is
        anchor[indices[k]], re-anchored at indices[0] when that is not 0."""
        S = self.S
        i0 = indices[0]

        def ob_map(o):
            xs, ms = o
            anchor = (S.identity[self.factors[0][1].ob[xs[0]]],) + ms
            if i0 == 0:
                new_ms = tuple(anchor[i] for i in indices[1:])
            else:
                back = S.inverse[anchor[i0]]
                new_ms = tuple(S.compose(anchor[i], back)
                               for i in indices[1:])
            return (tuple(xs[i] for i in indices), new_ms)

        ob = {o: ob_map(o) for o in self.grpd.objects}
        mor = {m: (ob[self.grpd.src[m]], tuple(m[1][i] for i in indices))
               for m in self.grpd.morphisms}
        return Functor(self.grpd, target.grpd, ob, mor,
                       name="pr" + "".join(str(i) for i in indices))

    @cached_property
    def diagonal(self):
        """The diagonal functor X -> product of a product of identical
        factors (X, a), built once, so the Kan functors along it share
        their fibers."""
        (X, a), *rest = self.factors
        assert all(Y is X and b is a for Y, b in rest), "factors differ"
        ident = self.S.identity
        ob = {x: ((x,) * len(self.factors), (ident[a.ob[x]],) * len(rest))
              for x in X.objects}
        mor = {m: (ob[X.src[m]], (m,) * len(self.factors))
               for m in X.morphisms}
        return Functor(X, self.grpd, ob, mor, name="diag")


class IsoComma(RelProduct):
    """2-categorical fiber product Y x_S X of groupoids along
    f: Y -> S <- X :g, the binary relative product with factors (Y, f) and
    (X, g).  Objects are ((y, x), (m,)) with m: f(y) -> g(x) in S;
    morphisms are pairs (u, v) making the evident square commute.  The
    groupoid and the legs are built on first use."""

    @property
    def p1(self):
        """Projection to the domain of f."""
        return self.factor_proj(0)

    @property
    def p2(self):
        """Projection to the domain of g."""
        return self.factor_proj(1)

    @cached_property
    def phi(self):
        """The invertible comparison f∘p1 -> g∘p2."""
        (_, f), (_, g) = self.factors
        return NatTrans(compose_functors(f, self.p1),
                        compose_functors(g, self.p2),
                        {o: o[1][0] for o in self.grpd.objects})

    def mediate(self, W, p, q, nu):
        """Universal factorization: for a cone (p: W->Y, q: W->X,
        nu: f∘p -> g∘q) return the induced functor W -> grpd."""
        ob = {w: ((p.ob[w], q.ob[w]), (nu.component[w],)) for w in W.objects}
        mor = {m: (ob[W.src[m]], (p.mor[m], q.mor[m])) for m in W.morphisms}
        return Functor(W, self.grpd, ob, mor, name="mediator")


def iso_comma_pullback(f, g):
    """2-categorical fiber product of groupoids along f: Y -> S <- X :g."""
    if not (f.dom.is_groupoid and g.dom.is_groupoid and f.cod.is_groupoid):
        raise StructureError("iso-comma is defined here only for groupoids")
    return IsoComma(f.cod, [(f.dom, f), (g.dom, g)])


# ---------------------------------------------------------------------------
# Čech nerves
# ---------------------------------------------------------------------------

class TruncatedSimplicialGroupoid:
    """Levels 0..N with face/degeneracy functors; simplicial identities are
    exact and asserted by `validate`."""

    def __init__(self, levels, faces, degeneracies):
        self.levels = levels              # list of FiniteGroupoid
        self.faces = faces                # faces[n][i]: level n -> level n-1
        self.degeneracies = degeneracies  # degeneracies[n][i]: level n -> n+1

    @property
    def depth(self):
        return len(self.levels) - 1

    def validate(self):
        report = []
        N = self.depth
        for n in range(2, N + 1):
            for i in range(n + 1):
                for j in range(i):
                    # d_j d_i = d_{i-1} d_j for j < i
                    lhs = compose_functors(self.faces[n - 1][j], self.faces[n][i])
                    rhs = compose_functors(self.faces[n - 1][i - 1], self.faces[n][j])
                    if not functors_equal(lhs, rhs):
                        report.append(Violation(
                            "simplicial/face", "d_%d d_%d != d_%d d_%d at level %d"
                            % (j, i, i - 1, j, n)))
        for n in range(0, N):
            for i in range(n + 1):
                for j in range(n + 1):
                    # face-degeneracy identities
                    s = self.degeneracies[n][j]
                    if i < j:
                        lhs = compose_functors(self.faces[n + 1][i], s)
                        rhs = compose_functors(self.degeneracies[n - 1][j - 1],
                                               self.faces[n][i]) if n >= 1 else None
                        if rhs is not None and not functors_equal(lhs, rhs):
                            report.append(Violation("simplicial/mixed",
                                                    "d_%d s_%d at level %d" % (i, j, n)))
                    elif i in (j, j + 1):
                        lhs = compose_functors(self.faces[n + 1][i], s)
                        if not functors_equal(lhs, identity_functor(self.levels[n])):
                            report.append(Violation("simplicial/unit",
                                                    "d_%d s_%d != id at level %d" % (i, j, n)))
                    else:
                        lhs = compose_functors(self.faces[n + 1][i], s)
                        rhs = compose_functors(self.degeneracies[n - 1][j],
                                               self.faces[n][i - 1]) if n >= 1 else None
                        if rhs is not None and not functors_equal(lhs, rhs):
                            report.append(Violation("simplicial/mixed",
                                                    "d_%d s_%d at level %d" % (i, j, n)))
        return report


def cech_nerve(f, N=3):
    """Truncated Čech nerve of f: Y -> X.  Level n is the (n+1)-fold
    iso-comma fiber power of Y over X."""
    if N < 0:
        raise ValueError("truncation level must be >= 0")
    Y, X = f.dom, f.cod
    levels = [Y]
    prods = [None]
    for n in range(1, N + 1):
        rp = RelProduct(X, [(Y, f)] * (n + 1))
        prods.append(rp)
        levels.append(rp.grpd)
    faces = [None] * (N + 1)
    degeneracies = [None] * (N + 1)
    for n in range(1, N + 1):
        rp = prods[n]
        fs = []
        for i in range(n + 1):
            keep = [k for k in range(n + 1) if k != i]
            if n == 1:
                fs.append(rp.factor_proj(keep[0]))
            else:
                fs.append(rp.proj_onto(keep, prods[n - 1]))
        faces[n] = fs
    for n in range(0, N):
        if n == 0:
            degeneracies[0] = [prods[1].diagonal]
        else:
            degeneracies[n] = [
                prods[n].proj_onto(list(range(i + 1)) + list(range(i, n + 1)),
                                   prods[n + 1])
                for i in range(n + 1)]
    return TruncatedSimplicialGroupoid(levels, faces, degeneracies)
