"""Geometric setups and the category of correspondences.

A geometric setup is a finite category C with a class E of exceptional
morphisms: E contains all isomorphisms, is closed under composition and
under base change, and contains all diagonals of its members (equivalently,
E is right cancellative).  Morphisms X -> Y of the correspondence category
are spans X <- Z -> Y with exceptional right leg, composed by pullback and
compared up to span isomorphism.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

from .fields import TheoremViolation
from .groupoid import Violation, okey


class NoPullback(Exception):
    pass


class PartialEnumerationError(Exception):
    pass


# ---------------------------------------------------------------------------
# Pullbacks in a finite category
# ---------------------------------------------------------------------------

@dataclass
class PullbackResult:
    apex: object
    p1: object          # apex -> X
    p2: object          # apex -> Y
    cones: int          # number of cones checked for terminality

    def legs(self):
        return self.p1, self.p2


def _cones(cat, f, g):
    """The cones (p: W->X, q: W->Y) over X -f-> S <-g- Y, as a dict from
    apex W, in object order, to its cones in leg order."""
    X, Y = cat.src[f], cat.src[g]
    out = {}
    for W in cat.objects:
        qs = cat.hom(W, Y)
        cs = [(p, q) for p in cat.hom(W, X) for q in qs
              if cat.compose(f, p) == cat.compose(g, q)]
        if cs:
            out[W] = cs
    return out


def _terminal_at(cat, cones, W, candidates):
    """The cones (p, q) among `candidates`, all at apex W, such that every
    cone at every apex W2 is (p∘h, q∘h) for exactly one h in hom(W2, W)."""
    homs = [(cat.hom(W2, W), cs) for W2, cs in cones.items()]

    def terminal(p, q):
        for hs, cs in homs:
            if len(hs) < len(cs):
                return False
            images = Counter((cat.compose(p, h), cat.compose(q, h))
                             for h in hs)
            if any(images[c] != 1 for c in cs):
                return False
        return True

    return [(p, q) for p, q in candidates if terminal(p, q)]


def pullback(cat, f, g):
    """Canonical pullback of the cospan X -f-> S <-g- Y, or None.

    For tabled categories the canonical choice is the lexicographically
    minimal terminal cone (ordered by object id, then leg ids), so
    downstream composition is deterministic.  Terminality is certified
    exhaustively: every cone is enumerated from the hom sets, and a cone
    at W is terminal iff, for every apex W2, the arrows of hom(W2, W) map
    one-to-one onto the cones at W2; that image count is made once per
    candidate and apex W2.  Lazy function categories certify universality
    element-wise instead (see sixff.finset).
    """
    if getattr(cat, "lazy", False):
        return cat.fiber_product(f, g)
    cones = _cones(cat, f, g)
    terminal = [(W, p, q) for W, cs in cones.items()
                for p, q in _terminal_at(cat, cones, W, cs)]
    if not terminal:
        return None
    W, p, q = min(terminal, key=lambda c: (okey(c[0]), okey(c[1]), okey(c[2])))
    return PullbackResult(W, p, q, sum(map(len, cones.values())))


def is_pullback_cone(cat, f, g, W, p, q):
    """True iff (W, p, q) is a pullback cone of X -f-> S <-g- Y, by the
    exhaustive check that `pullback` makes."""
    if cat.compose(f, p) != cat.compose(g, q):
        return False
    return bool(_terminal_at(cat, _cones(cat, f, g), W, [(p, q)]))


def mediating_morphism(cat, pb, p2, q2):
    """The unique h with pb.p1∘h = p2, pb.p2∘h = q2."""
    if getattr(cat, "lazy", False):
        return cat.mediator(pb, p2, q2)
    W2 = cat.src[p2]
    hs = [h for h in cat.hom(W2, pb.apex)
          if cat.compose(pb.p1, h) == p2 and cat.compose(pb.p2, h) == q2]
    if len(hs) != 1:
        raise TheoremViolation("pullback mediator not unique")
    return hs[0]


def terminal_object(cat):
    if getattr(cat, "lazy", False):
        return cat.terminal
    for t in cat.objects:
        if all(len(cat.hom(w, t)) == 1 for w in cat.objects):
            return t
    return None


def product(cat, x, y):
    """Binary product via pullback over the terminal object."""
    t = terminal_object(cat)
    if t is None:
        return None
    f = cat.hom(x, t)[0]
    g = cat.hom(y, t)[0]
    return pullback(cat, f, g)


# ---------------------------------------------------------------------------
# Geometric setups
# ---------------------------------------------------------------------------

ALL = "all morphisms"


class GeometricSetup:
    def __init__(self, cat, exceptional):
        self.cat = cat
        if exceptional is ALL:
            self.exc = None
            return
        self.exc = frozenset(exceptional)
        mset = set(cat.morphisms)
        for m in self.exc:
            if m not in mset:
                from .groupoid import StructureError
                raise StructureError("E contains a dangling morphism id %r" % (m,))

    def in_e(self, m):
        return self.exc is None or m in self.exc

    # -- precondition: isos, composition closure, base-change closure ------

    def _preconditions(self):
        if self.exc is None:
            raise TheoremViolation(
                "setup validation needs a tabled category")
        report = []
        cat = self.cat
        for m in cat.morphisms:
            if cat.is_iso(m) and not self.in_e(m):
                report.append(Violation("setup/isos",
                                        "iso %r not in E" % (m,)))
        for g, f in cat.composable_pairs():
            if self.in_e(g) and self.in_e(f) and \
                    not self.in_e(cat.compose(g, f)):
                report.append(Violation("setup/composition",
                                        "E not closed under composition at (%r,%r)" % (g, f)))
        for e in sorted(self.exc, key=okey):
            for g in cat.morphisms:
                if cat.dst[g] != cat.dst[e]:
                    continue
                pb = pullback(cat, e, g)
                if pb is None:
                    report.append(Violation(
                        "setup/base-change",
                        "pullback of %r along %r missing" % (e, g)))
                    continue
                # the base-changed copy of e is the projection to src(g)
                if not self.in_e(pb.p2):
                    report.append(Violation(
                        "setup/base-change",
                        "base change of %r along %r leaves E" % (e, g)))
        return report

    @cached_property
    def _precondition_report(self):
        # both checks start from it, each from its own copy
        return tuple(self._preconditions())

    def diagonal_check(self):
        """Every f: Y->X in E has its diagonal Y -> Y x_X Y in E.
        Requires the preconditions; returns (verdict, report)."""
        report = list(self._precondition_report)
        if report:
            return False, report
        cat = self.cat
        for e in sorted(self.exc, key=okey):
            pb = pullback(cat, e, e)
            if pb is None:
                report.append(Violation("setup/diagonal",
                                        "no self fiber product for %r" % (e,)))
                continue
            Y = cat.src[e]
            diag = mediating_morphism(cat, pb, cat.identity[Y], cat.identity[Y])
            if not self.in_e(diag):
                report.append(Violation("setup/diagonal",
                                        "diagonal of %r not in E" % (e,)))
        return not report, report

    def right_cancellative_check(self):
        """f, f∘g in E implies g in E.  Requires the preconditions;
        returns (verdict, report)."""
        report = list(self._precondition_report)
        if report:
            return False, report
        cat = self.cat
        for f in sorted(self.exc, key=okey):
            for g in cat.morphisms:
                if cat.dst[g] != cat.src[f]:
                    continue
                if self.in_e(cat.compose(f, g)) and not self.in_e(g):
                    report.append(Violation(
                        "setup/right-cancellative",
                        "%r and composite in E but %r is not" % (f, g)))
        return not report, report


def validate_setup(setup):
    """Full validation report plus the cross-check flag asserting that the
    diagonal condition and right cancellativity give identical verdicts."""
    return merge_setup_checks(setup.diagonal_check(),
                              setup.right_cancellative_check())


def merge_setup_checks(diagonal, right_cancellative):
    """`validate_setup` from the (verdict, report) pairs of the two checks."""
    (d_ok, d_report), (r_ok, r_report) = diagonal, right_cancellative
    cross_check = (d_ok == r_ok)
    report = list({(v.code, v.detail): v for v in d_report + r_report}.values())
    report.sort(key=lambda v: (v.code, v.detail))
    return report, cross_check


def full_setup(cat):
    return GeometricSetup(cat, cat.morphisms)


def iso_setup(cat):
    return GeometricSetup(cat, [m for m in cat.morphisms if cat.is_iso(m)])


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Span:
    source: object
    apex: object
    target: object
    left: object    # apex -> source
    right: object   # apex -> target, required in E

    def swap(self):
        return Span(self.target, self.apex, self.source, self.right, self.left)


def identity_span(cat, x):
    e = cat.identity[x]
    return Span(x, x, x, e, e)


def span_from_map(cat, m):
    """Embedding of C_E: a morphism m: X->Y becomes [X <-id- X -m-> Y]."""
    x = cat.src[m]
    return Span(x, x, cat.dst[m], cat.identity[x], m)


def span_from_map_op(cat, m):
    """Embedding of C^op: m: X->Y becomes [Y <-m- X -id-> X]."""
    x = cat.src[m]
    return Span(cat.dst[m], x, x, m, cat.identity[x])


def compose_spans(s1, s2, setup):
    """Composite of s1: X=>Y and s2: Y=>Z by pullback of the apexes."""
    cat = setup.cat
    if s1.target != s2.source:
        raise ValueError("spans not composable")
    if not setup.in_e(s1.right):
        raise TheoremViolation("right leg of %r not exceptional" % (s1,))
    pb = pullback(cat, s1.right, s2.left)
    if pb is None:
        raise NoPullback("setup invariant violated: no pullback of apexes")
    left = cat.compose(s1.left, pb.p1)
    right = cat.compose(s2.right, pb.p2)
    if not setup.in_e(right):
        raise TheoremViolation("composite right leg escaped E")
    return Span(s1.source, pb.apex, s2.target, left, right)


def span_iso(cat, s1, s2):
    """An isomorphism of apexes commuting with both legs, or None."""
    if s1.source != s2.source or s1.target != s2.target:
        return None
    if getattr(cat, "lazy", False):
        # match apex elements by their leg signature (exact; an iso of
        # spans in finite sets is precisely a signature-preserving bijection)
        if len(s1.apex) != len(s2.apex):
            return None
        l1 = dict(zip(s1.apex, s1.left[3]))
        r1 = dict(zip(s1.apex, s1.right[3]))
        l2 = dict(zip(s2.apex, s2.left[3]))
        r2 = dict(zip(s2.apex, s2.right[3]))
        buckets = {}
        for w in s2.apex:
            buckets.setdefault((l2[w], r2[w]), []).append(w)
        images = []
        for w in s1.apex:
            sig = (l1[w], r1[w])
            if not buckets.get(sig):
                return None
            images.append(buckets[sig].pop())
        return cat.mor(s1.apex, s2.apex, images)
    for h in cat.hom(s1.apex, s2.apex):
        if not cat.is_iso(h):
            continue
        if cat.compose(s2.left, h) == s1.left and \
           cat.compose(s2.right, h) == s1.right:
            return h
    return None


@dataclass
class CorrHomSet:
    source: object
    target: object
    representatives: tuple   # pairwise non-isomorphic spans

    def __len__(self):
        return len(self.representatives)


def corr_hom(x, y, setup, bound=10000):
    """All span iso-classes x => y with apex among the objects of C."""
    cat = setup.cat
    per_apex = [(w, cat.hom(w, x), [r for r in cat.hom(w, y) if setup.in_e(r)])
                for w in cat.objects]
    if sum(len(ls) * len(rs) for _, ls, rs in per_apex) > bound:
        raise PartialEnumerationError("more than %d candidate spans" % bound)
    candidates = [Span(x, w, y, left, right) for w, ls, rs in per_apex
                  for left in ls for right in rs]
    classes = []
    for s in sorted(candidates, key=lambda s: (okey(s.apex), okey(s.left),
                                               okey(s.right))):
        if not any(span_iso(cat, s, r) is not None for r in classes):
            classes.append(s)
    return CorrHomSet(x, y, tuple(classes))


# ---------------------------------------------------------------------------
# Binary products of objects and spans; self-duality data
# ---------------------------------------------------------------------------

def pairing(cat, prod_pb, a, b):
    """Mediator <a, b>: W -> X x Y for the product cone prod_pb."""
    return mediating_morphism(cat, prod_pb, a, b)


@dataclass
class DualData:
    ev: Span
    coev: Span
    triangle1: object   # span iso witness for (ev x id)∘(id x coev) = id
    triangle2: object   # span iso witness for (id x ev)∘(coev x id) = id


def dual_data(x, setup):
    """Self-duality of x in Corr(C, E): evaluation [XxX <-Δ- X -> *],
    coevaluation [* <- X -Δ-> XxX], and exact triangle certificates."""
    cat = setup.cat
    t = terminal_object(cat)
    if t is None:
        raise NoPullback("no terminal object")
    to_t = cat.hom(x, t)[0]
    if not setup.in_e(to_t):
        raise TheoremViolation("structure map to terminal not exceptional")
    pxx = product(cat, x, x)
    if pxx is None:
        raise NoPullback("no product X x X")
    diag = pairing(cat, pxx, cat.identity[x], cat.identity[x])
    xx = pxx.apex
    ev = Span(xx, x, t, diag, to_t)
    coev = Span(t, x, xx, cat.hom(x, t)[0], diag)
    if not setup.in_e(coev.right):
        raise TheoremViolation("diagonal not exceptional")

    # triangle 1: X -> X x (X x X) -> (X x X) x X -> X, composite of
    #   id_X x coev  and  ev x id_X  through the triple product.
    p3 = product(cat, xx, x)      # (X x X) x X, canonical triple product
    if p3 is None:
        raise NoPullback("no triple product")
    xxx = p3.apex
    # id x coev as a span X => XxX x X ... both middle objects realized on
    # the canonical nesting ((X x X) x X):
    #   span1 = [X <-pr1- X x X -(id x diag)-> XXX]
    #   span2 = [XXX <-(diag x id)- X x X -pr2-> X]
    # id x diag: (x,y) |-> ((x,y), y): first component id, second pr2
    id_x_diag = pairing(cat, p3, cat.identity[xx], pxx.p2)
    diag_x_id = pairing(cat, p3, cat.compose(diag, pxx.p1), pxx.p2)
    span1 = Span(x, xx, xxx, pxx.p1, id_x_diag)
    span2 = Span(xxx, xx, x, diag_x_id, pxx.p2)
    if not setup.in_e(span1.right) or not setup.in_e(span2.right):
        raise TheoremViolation("triangle leg not exceptional")
    comp1 = compose_spans(span1, span2, setup)
    w1 = span_iso(cat, comp1, identity_span(cat, x))
    # triangle 2: the mirrored composite
    span1m = Span(x, xx, xxx, pxx.p2, diag_x_id)
    span2m = Span(xxx, xx, x, id_x_diag, pxx.p1)
    comp2 = compose_spans(span1m, span2m, setup)
    w2 = span_iso(cat, comp2, identity_span(cat, x))
    if w1 is None or w2 is None:
        raise TheoremViolation("self-duality triangle witness missing")
    return DualData(ev, coev, w1, w2)
