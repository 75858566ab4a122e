"""Pyramid posets, cartesian extensions, the two pyramid sections, and
descent index categories.

The pyramid of height n is the poset of pairs (i, j), 0 <= i <= j <= n,
ordered by (i, j) <= (k, l) iff i <= k and l <= j.  A chain of n
composable spans is a functor on its wide part (pairs with j - i <= 1)
whose legs in the increasing-i direction are exceptional; extending it to a
cartesian functor on the whole pyramid computes all iterated composites at
once.
"""

from __future__ import annotations

from dataclasses import dataclass

from .corr import NoPullback, is_pullback_cone, pullback
from .fields import TheoremViolation
from .groupoid import (
    FiniteCategory, Functor, Violation, poset_category, presented_category,
)

SIGMA, SIGMA2, LAMBDA = "sigma", "sigma2", "lambda"


@dataclass
class PyramidPoset:
    n: int
    variant: str
    category: FiniteCategory

    @property
    def elements(self):
        return self.category.objects

    def leq(self, a, b):
        return bool(self.category.hom(a, b))

    def covers(self):
        """Covering relations a < b with nothing in between, in element
        order.  Each element's up-set is read from the arrow index once."""
        cat, els = self.category, self.elements
        up = {a: {cat.dst[m] for m in cat.out[a]} for a in els}
        out = []
        for a in els:
            for b in els:
                if a == b or b not in up[a]:
                    continue
                if any(c not in (a, b) and b in up[c] for c in up[a]):
                    continue
                out.append((a, b))
        return out


def build_pyramid(n, variant=SIGMA):
    if n < 0:
        raise ValueError("level must be >= 0")
    if variant == LAMBDA:
        elements = [(i, j) for i in range(n + 1) for j in range(i, n + 1)
                    if j - i <= 1]
    else:
        elements = [(i, j) for i in range(n + 1) for j in range(i, n + 1)]

    def leq(a, b):
        if variant == SIGMA2:
            return a[0] <= b[0] and a[1] == b[1]
        return a[0] <= b[0] and b[1] <= a[1]

    return PyramidPoset(n, variant, poset_category(elements, leq))


def is_cartesian(F, ambient):
    """True iff every elementary square of the pyramid maps to a pullback
    square; returns (flag, first failing corner or None).

    F is a functor from a SIGMA pyramid category into `ambient`.
    """
    pyr = F.dom
    n = max(j for (_, j) in pyr.objects)
    for i in range(n + 1):
        for j in range(i + 2, n + 1):
            # corner (i, j) over the cospan F(i,j-1) -> F(i+1,j-1) <- F(i+1,j)
            a = F.mor[("le", (i, j - 1), (i + 1, j - 1))]
            b = F.mor[("le", (i + 1, j), (i + 1, j - 1))]
            p = F.mor[("le", (i, j), (i, j - 1))]
            q = F.mor[("le", (i, j), (i + 1, j))]
            if not is_pullback_cone(ambient, a, b, F.ob[(i, j)], p, q):
                return False, (i, j)
    return True, None


def lambda_to_sigma(f, setup):
    """Extend a functor on the wide pyramid (a chain of spans with
    exceptional right legs) to a cartesian functor on the full pyramid.

    Returns the extension; restricting back to the wide part recovers the
    input, and every increasing-i image morphism is exceptional.
    """
    lam = f.dom
    n = max(j for (_, j) in lam.objects)
    cat = setup.cat
    for i in range(1, n + 1):
        leg = f.mor[("le", (i - 1, i), (i, i))]
        if not setup.in_e(leg):
            raise NoPullback("span leg (%d-1,%d)->(%d,%d) not exceptional"
                             % (i, i, i, i))
    sigma = build_pyramid(n, SIGMA)
    ob = dict(f.ob)
    arrows = {}

    def set_arrow(a, b, m):
        arrows[(a, b)] = m

    # seed with the wide part
    for m in lam.morphisms:
        set_arrow(lam.src[m], lam.dst[m], f.mor[m])
    # fill corners by increasing height j - i
    for h in range(2, n + 1):
        for i in range(0, n - h + 1):
            j = i + h
            a = arrows[((i, j - 1), (i + 1, j - 1))]
            b = arrows[((i + 1, j), (i + 1, j - 1))]
            pb = pullback(cat, a, b)
            if pb is None:
                raise NoPullback("missing pullback at corner (%d,%d)" % (i, j))
            ob[(i, j)] = pb.apex
            set_arrow((i, j), (i, j - 1), pb.p1)
            set_arrow((i, j), (i + 1, j), pb.p2)
            if not setup.in_e(pb.p2):
                raise NoPullback("vertical leg at (%d,%d) escaped E" % (i, j))
    # close under composition along covers: horizontal then vertical steps
    mor = {}
    for m in sigma.category.morphisms:
        (i, j), (k, l) = sigma.category.src[m], sigma.category.dst[m]
        cur = cat.identity[ob[(i, j)]]
        ci, cj = i, j
        while cj > l:
            cur = cat.compose(arrows[((ci, cj), (ci, cj - 1))], cur)
            cj -= 1
        while ci < k:
            cur = cat.compose(arrows[((ci, cj), (ci + 1, cj))], cur)
            ci += 1
        mor[m] = cur
    F = Functor(sigma.category, cat, ob, mor, name="cartesian extension")
    return F


# ---------------------------------------------------------------------------
# Pyramid sections: monotone-map tables over the covering arrows of the
# opposite pyramid
# ---------------------------------------------------------------------------

def _monotone_id(k):
    return tuple(range(k + 1))


def _mono_compose(g, f):
    """g∘f for monotone maps as tuples of images."""
    return tuple(g[v] for v in f)


def _reverse_map(m, dom_top, cod_top):
    """Order-reversal conjugate of a monotone map [dom_top] -> [cod_top]."""
    return tuple(cod_top - m[dom_top - p] for p in range(dom_top + 1))


@dataclass
class SectionData:
    n: int
    value: dict       # (i, j) -> top element of the assigned ordered set
    table: dict       # ((i,j),(k,l)) covering arrow of the opposite pyramid
                      #   -> monotone map [value(k,l)] -> [value(i,j)]

    def arrow(self, a, b):
        """Monotone map [value(b)] -> [value(a)] for any opposite-pyramid
        arrow a -> b (b <= a in the pyramid order), by composing covers."""
        (i, j), (k, l) = a, b
        cur = _monotone_id(self.value[a])
        ci, cj = i, j
        while cj < l:
            nxt = self.table[((ci, cj), (ci, cj + 1))]
            cur = _mono_compose(cur, nxt)
            cj += 1
        while ci > k:
            nxt = self.table[((ci, cj), (ci - 1, cj))]
            cur = _mono_compose(cur, nxt)
            ci -= 1
        return cur


def _s_section(n):
    value = {(i, j): i for i in range(n + 1) for j in range(i, n + 1)}
    table = {}
    for i in range(n + 1):
        for j in range(i, n + 1):
            if j + 1 <= n:
                table[((i, j), (i, j + 1))] = _monotone_id(i)
            if i - 1 >= 0:
                # inclusion [i-1] c [i] on the first i elements
                table[((i, j), (i - 1, j))] = tuple(range(i))
    return SectionData(n, value, table)


def _t_section(n):
    def val(i, j):
        return 2 * i + 1 - (1 if i == j else 0)

    value = {(i, j): val(i, j) for i in range(n + 1) for j in range(i, n + 1)}
    table = {}
    for i in range(n + 1):
        for j in range(i, n + 1):
            # arrow (i,j) -> (i,j+1): towards larger j
            if j + 1 <= n:
                if j == i:
                    # [2i+1] -> [2i], collapsing i and i+1 to i
                    m = tuple(p if p <= i else p - 1 for p in range(2 * i + 2))
                    table[((i, j), (i, j + 1))] = m
                else:
                    table[((i, j), (i, j + 1))] = _monotone_id(2 * i + 1)
            # arrow (i,j) -> (i-1,j): towards smaller i
            if i - 1 >= 0:
                if j > i:
                    # inclusion [2i-1] c [2i+1] missing i and i+1
                    m = tuple(p if p < i else p + 2 for p in range(2 * i))
                else:
                    # j == i: inclusion [2i-1] c [2i] missing i
                    m = tuple(p if p < i else p + 1 for p in range(2 * i))
                table[((i, j), (i - 1, j))] = m
    return SectionData(n, value, table)


def _section_functorial(sec):
    """All square compositions of covering arrows commute."""
    n = sec.n
    report = []
    for i in range(n + 1):
        for j in range(i, n + 1):
            # square (i,j) -> (i,j+1)/(i-1,j) -> (i-1,j+1)
            if j + 1 <= n and i - 1 >= 0:
                a = _mono_compose(sec.table[((i, j), (i, j + 1))],
                                  sec.table[((i, j + 1), (i - 1, j + 1))])
                b = _mono_compose(sec.table[((i, j), (i - 1, j))],
                                  sec.table[((i - 1, j), (i - 1, j + 1))])
                if a != b:
                    report.append(Violation(
                        "section/naturality",
                        "square at (%d,%d) fails" % (i, j)))
    return report


@dataclass
class PyramidSections:
    n: int
    s: SectionData
    t: SectionData
    symmetry_ok: bool          # t == rev∘t arrow-wise
    symmetry_involutive: bool  # rev∘rev == id on every t-arrow
    comparison_ok: bool        # half-interval inclusions t -> s are natural


def pyramid_sections(n):
    s = _s_section(n)
    t = _t_section(n)
    for name, sec in (("s", s), ("t", t)):
        bad = _section_functorial(sec)
        if bad:
            raise TheoremViolation("section %s is not functorial: %s"
                                   % (name, bad[0]))

    sym = True
    invol = True
    for ((a, b), m) in t.table.items():
        dom_top = t.value[b]
        cod_top = t.value[a]
        rm = _reverse_map(m, dom_top, cod_top)
        if rm != m:
            sym = False
        if _reverse_map(rm, dom_top, cod_top) != m:
            invol = False

    # comparison t -> s: at (i,j) the inclusion [i] c [2i+1-d] of the first
    # half; naturality against every covering arrow
    cmp_ok = True
    for ((a, b), tm) in t.table.items():
        inc_a = tuple(range(s.value[a] + 1))
        inc_b = tuple(range(s.value[b] + 1))
        sm = s.table[(a, b)]
        lhs = _mono_compose(tm, inc_b)      # [s(b)] -> [t(a)]
        rhs = _mono_compose(inc_a, sm)      # [s(b)] -> [t(a)]
        if lhs != rhs:
            cmp_ok = False
    return PyramidSections(n, s, t, sym, invol, cmp_ok)


# ---------------------------------------------------------------------------
# Descent index categories
# ---------------------------------------------------------------------------

def _monotone_maps(n, m):
    """All monotone maps [n] -> [m] as tuples."""
    out = [()]
    for _ in range(n + 1):
        out = [t + (v,) for t in out for v in range(m + 1)]
    return [t for t in out if all(t[i] <= t[i + 1] for i in range(n))]


@dataclass
class DescentIndex:
    kind: str          # "delta" or "subsets"
    index_set: tuple
    truncation: int
    category: FiniteCategory

    def fiber_power(self, obj, base, cover_maps):
        """Attach a cover: the fiber power of the cover members named by
        `obj` (a Delta_I object ([n], i_bullet) or a P_I subset)."""
        from .groupoid import RelProduct
        if self.kind == "delta":
            _n, idx = obj
            factors = [cover_maps[i] for i in idx]
        else:
            factors = [cover_maps[i] for i in sorted(obj)]
        if len(factors) == 1:
            return factors[0][0]
        return RelProduct(base, factors).grpd


def descent_index(index_set, kind="delta", truncation=2):
    index_set = tuple(index_set)
    if not index_set:
        raise ValueError("index set must be nonempty")
    if kind == "delta":
        objects = []
        for n in range(truncation + 1):
            idxs = [()]
            for _ in range(n + 1):
                idxs = [t + (i,) for t in idxs for i in index_set]
            objects.extend([(n, t) for t in idxs])
        cat = presented_category(
            objects,
            lambda a, b: [("al", a, b, al) for al in _monotone_maps(a[0], b[0])
                          if all(a[1][k] == b[1][v] for k, v in enumerate(al))],
            lambda a: ("al", a, a, tuple(range(a[0] + 1))),
            lambda g, f: ("al", f[1], g[2], tuple(g[3][v] for v in f[3])))
        return DescentIndex("delta", index_set, truncation, cat)
    if kind == "subsets":
        objects = []
        m = len(index_set)
        for mask in range(1, 1 << m):
            objects.append(frozenset(index_set[i] for i in range(m)
                                     if mask >> i & 1))
        cat = poset_category(objects, lambda a, b: a <= b, tag="sub")
        return DescentIndex("subsets", index_set, truncation, cat)
    raise ValueError("kind must be 'delta' or 'subsets'")
