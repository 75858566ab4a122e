"""A lazy category of finite sets.

Tabled `FiniteCategory` instances cap out quickly: a composition table over
hom-sets like Hom(27, 27) is astronomically large, yet the self-duality
triangles for a 3-element set pass through its triple product.  This class
keeps the same interface surface (src/dst/hom/compose/identity/is_iso) but
computes composition on demand and certifies pullbacks element-wise: a cone
is terminal among *all* finite-set cones iff the apex maps bijectively onto
the set of matching element pairs, which is a finite exact check.
"""

from __future__ import annotations

from collections import Counter

from .fields import TheoremViolation
from .groupoid import StructureError


class FinSetCategory:
    """Objects are tuples of hashable elements; a morphism is
    ('fn', dom, cod, images) with images aligned with dom."""

    is_groupoid = False
    lazy = True

    def __init__(self):
        self._objects = []
        self._oset = set()
        self.terminal = self.add_object(("*",))

    def add_object(self, elems):
        obj = tuple(elems)
        if obj not in self._oset:
            self._oset.add(obj)
            self._objects.append(obj)
        return obj

    @property
    def objects(self):
        return tuple(self._objects)

    def mor(self, dom, cod, images):
        images = tuple(images)
        if len(images) != len(dom):
            raise StructureError("%d images for a domain of %d elements"
                                 % (len(images), len(dom)))
        cset = set(cod)
        if not all(v in cset for v in images):
            raise StructureError("an image lies outside the codomain")
        return ("fn", dom, cod, images)

    # src/dst are dict-like in FiniteCategory; provide mapping views:

    class _EndpointMap:
        def __init__(self, idx):
            self.idx = idx

        def __getitem__(self, m):
            return m[self.idx]

    @property
    def src(self):
        return FinSetCategory._EndpointMap(1)

    @property
    def dst(self):
        return FinSetCategory._EndpointMap(2)

    class _IdentityMap:
        def __getitem__(self, obj):
            return ("fn", obj, obj, obj)

        def get(self, obj, default=None):
            return self[obj]

    @property
    def identity(self):
        return FinSetCategory._IdentityMap()

    def compose(self, g, f):
        _, fd, fc, fi = f
        _, gd, gc, gi = g
        if fc != gd:
            raise StructureError("not composable")
        pos = {e: i for i, e in enumerate(gd)}
        return ("fn", fd, gc, tuple(gi[pos[v]] for v in fi))

    def hom(self, x, y, bound=200000):
        n, m = len(x), len(y)
        if m == 0:
            return [("fn", x, y, ())] if n == 0 else []
        if m ** n > bound:
            raise OverflowError("hom set of size %d^%d too large" % (m, n))
        out = [()]
        for _ in range(n):
            out = [t + (v,) for t in out for v in y]
        return [("fn", x, y, t) for t in out]

    def is_iso(self, m):
        _, dom, cod, images = m
        return len(dom) == len(cod) and len(set(images)) == len(images)

    def to_terminal(self, x):
        return ("fn", x, self.terminal, ("*",) * len(x))

    # -- certified limits --------------------------------------------------

    def fiber_product(self, f, g):
        """The canonical pullback of X -f-> S <-g- Y with an element-level
        universality certificate (see module docstring)."""
        _, X, _, fi = f
        _, Y, _, gi = g
        fmap = dict(zip(X, fi))
        gmap = dict(zip(Y, gi))
        elems = tuple((a, b) for a in X for b in Y if fmap[a] == gmap[b])
        p1 = ("fn", elems, X, tuple(a for a, _ in elems))
        p2 = ("fn", elems, Y, tuple(b for _, b in elems))
        self.certify_fiber_product(f, g, p1, p2)
        from .corr import PullbackResult
        return PullbackResult(self.add_object(elems), p1, p2,
                              cones=len(elems))

    def certify_fiber_product(self, f, g, p1, p2):
        """TheoremViolation unless the cone (p1, p2) over X -f-> S <-g- Y
        is a pullback: f∘p1 = g∘p2, so the apex maps into the matching
        pairs; its pairs (p1(e), p2(e)) are distinct, so it maps in
        injectively; and it has as many elements as there are matching
        pairs, Σ_s |f⁻¹(s)|·|g⁻¹(s)| counted from the images of f and g,
        so it maps onto them."""
        apex = p1[1]
        over_f, over_g = Counter(f[3]), Counter(g[3])
        if not (self.compose(f, p1) == self.compose(g, p2)
                and len(set(zip(p1[3], p2[3]))) == len(apex)
                and len(apex) == sum(n * over_g[s]
                                     for s, n in over_f.items())):
            raise TheoremViolation("fiber product apex is not the set of "
                                   "matching pairs")

    def mediator(self, pb, p2, q2):
        """The unique h with pr1∘h = p2, pr2∘h = q2 (pointwise formula)."""
        _, W, X, pi = p2
        _, _, Y, qi = q2
        pairs = tuple(zip(pi, qi))
        apex_set = set(pb.apex)
        if not all(pr in apex_set for pr in pairs):
            raise StructureError("cone misses the apex")
        return ("fn", W, pb.apex, pairs)

    @staticmethod
    def set_of_size(n):
        return tuple(range(n))
