import itertools
import random

import pytest

from sixff import presets
from sixff.corr import (
    GeometricSetup, PartialEnumerationError, Span, compose_spans, corr_hom,
    dual_data, full_setup, identity_span, is_pullback_cone, iso_setup, product,
    pullback, span_from_map, span_from_map_op, span_iso, terminal_object,
    validate_setup,
)
from sixff.fields import TheoremViolation
from sixff.finset import FinSetCategory
from sixff.groupoid import StructureError, okey
from sixff.instances import span


FS = presets.finset_category(3)
FS4 = presets.finset_category(4)
FULL = full_setup(FS)


def fn(n, m, values):
    return ("fn", n, m, tuple(values))


def test_validate_setup_iso_only():
    cat = presets.chain_poset()
    report, cross = validate_setup(iso_setup(cat))
    assert report == [] and cross


def test_validate_setup_full_on_category_with_pullbacks():
    P = presets.divisor_poset(12)
    report, cross = validate_setup(full_setup(P))
    assert report == [] and cross
    # FinSet<=2 is not closed under fiber products (2x2 is missing), so the
    # full setup on it must be rejected, by both checkers coherently.
    setup = full_setup(presets.finset_category(2))
    d_ok, _ = setup.diagonal_check()
    r_ok, _ = setup.right_cancellative_check()
    assert not d_ok and not r_ok


def test_validate_setup_missing_ab():
    cat = presets.chain_poset()
    E = [("le", "a", "a"), ("le", "b", "b"), ("le", "c", "c"),
         ("le", "a", "c"), ("le", "b", "c")]
    setup = GeometricSetup(cat, E)
    d_ok, _ = setup.diagonal_check()
    r_ok, _ = setup.right_cancellative_check()
    assert not d_ok and not r_ok
    report, cross = validate_setup(setup)
    assert cross and report != []


def test_setup_checks_report_into_their_own_lists():
    """The two checks share one precondition report but not its list: a
    caller that extends one check's report changes neither the other's
    nor a second call's."""
    cat = presets.chain_poset()
    setup = GeometricSetup(cat, [("le", "a", "a"), ("le", "b", "b"),
                                 ("le", "c", "c"), ("le", "a", "c"),
                                 ("le", "b", "c")])
    d_ok, d_report = setup.diagonal_check()
    first = list(d_report)
    d_report.append("extra")
    r_ok, r_report = setup.right_cancellative_check()
    assert not d_ok and not r_ok
    assert r_report == first and setup.diagonal_check() == (False, first)


def test_setup_cross_check_exhaustive_small():
    """Diagonal-in-E and right-cancellativity agree on every subset E of
    three small categories."""
    cats = [presets.chain_poset(), presets.cospan_category(),
            presets.parallel_arrows_category()]
    for cat in cats:
        assert len(cat.morphisms) <= 8
        for r in range(len(cat.morphisms) + 1):
            for sub in itertools.combinations(cat.morphisms, r):
                setup = GeometricSetup(cat, sub)
                d_ok, _ = setup.diagonal_check()
                r_ok, _ = setup.right_cancellative_check()
                assert d_ok == r_ok, (cat, sub)


def test_pullback_identity_leg():
    # X -> S <- S with right leg identity: apex X
    f = fn(2, 1, [0, 0])
    ident = fn(1, 1, [0])
    pb = pullback(FS, f, ident)
    assert pb is not None
    assert pb.apex == 2


def test_pullback_product_sets():
    two_to_pt = fn(2, 1, [0, 0])
    three_to_pt = fn(3, 1, [0, 0, 0])
    pb = pullback(FS, two_to_pt, three_to_pt)
    # 6-element product does not exist inside FinSet<=3; no terminal cone
    assert pb is None
    small = presets.finset_category(2)
    pb2 = pullback(small, fn(2, 1, [0, 0]), fn(1, 1, [0]))
    assert pb2.apex == 2


def test_divisor_poset_has_an_arrow_exactly_along_divisibility():
    P = presets.divisor_poset(12)
    divisors = [1, 2, 3, 4, 6, 12]
    assert sorted(P.objects) == divisors
    for d in divisors:
        for e in divisors:
            assert P.hom(d, e) == ([("le", d, e)] if e % d == 0 else [])
    assert P.validate() == []


def test_pullback_divisor_poset_meet():
    P = presets.divisor_poset(12)
    pb = pullback(P, ("le", 4, 12), ("le", 6, 12))
    assert pb is not None and pb.apex == 2


def reference_terminal_cones(cat, f, g):
    """Every cone over X -f-> S <-g- Y found by scanning the morphisms, and
    the cones with exactly one mediator from each cone, one hom scan per
    pair of cones."""
    X, Y = cat.src[f], cat.src[g]
    cones = []
    for p in cat.morphisms:
        if cat.dst[p] != X:
            continue
        W = cat.src[p]
        for q in cat.morphisms:
            if cat.dst[q] != Y or cat.src[q] != W:
                continue
            if cat.compose(f, p) == cat.compose(g, q):
                cones.append((W, p, q))
    terminal = []
    for (W, p, q) in cones:
        if all(len([h for h in cat.hom(W2, W)
                    if cat.compose(p, h) == p2 and cat.compose(q, h) == q2])
               == 1 for (W2, p2, q2) in cones):
            terminal.append((W, p, q))
    return cones, terminal


def _reference_pullback(cones, terminal):
    """(apex, p1, p2, cone count) of the least terminal cone, or None."""
    if not terminal:
        return None
    W, p, q = min(terminal, key=lambda c: (okey(c[0]), okey(c[1]), okey(c[2])))
    return W, p, q, len(cones)


def _cospans(cat):
    return [(f, g) for f in cat.morphisms for g in cat.morphisms
            if cat.dst[f] == cat.dst[g]]


def test_pullback_matches_the_reference_loop():
    small = [presets.chain_poset(), presets.cospan_category(),
             presets.parallel_arrows_category(), presets.divisor_poset(12),
             presets.finset_category(2)]
    cases = [(cat, f, g) for cat in small for f, g in _cospans(cat)]
    cases += [(FS, f, g)
              for f, g in random.Random(0).sample(_cospans(FS), 200)]
    cases.append((FS4, fn(2, 1, [0, 0]), fn(2, 1, [0, 0])))
    missing = refused = 0
    for cat, f, g in cases:
        cones, terminal = reference_terminal_cones(cat, f, g)
        pb = pullback(cat, f, g)
        got = None if pb is None else (pb.apex, pb.p1, pb.p2, pb.cones)
        assert got == _reference_pullback(cones, terminal), (f, g)
        missing += pb is None
        # every cone's verdict, not only the least terminal one's: a weakly
        # terminal cone (one cone with two mediators) must be refused.  One
        # call per cone is cheap only in the small categories.
        if cat in small:
            assert [is_pullback_cone(cat, f, g, *c) for c in cones] == \
                [c in terminal for c in cones], (f, g)
            refused += len(cones) - len(terminal)
    # both outcomes are exercised
    assert 0 < missing < len(cases) and refused


def test_compose_spans_identity_unit():
    s = Span(2, 2, 3, fn(2, 2, [1, 0]), fn(2, 3, [0, 2]))
    u = identity_span(FS, 3)
    c = compose_spans(s, u, FULL)
    assert span_iso(FS, c, s) is not None
    u2 = identity_span(FS, 2)
    c2 = compose_spans(u2, s, FULL)
    assert span_iso(FS, c2, s) is not None


def test_compose_spans_rejects_spans_that_do_not_compose():
    s = Span(2, 2, 3, fn(2, 2, [1, 0]), fn(2, 3, [0, 2]))
    with pytest.raises(ValueError, match="spans not composable"):
        compose_spans(s, s, FULL)


def test_compose_spans_functoriality_of_embedding():
    f = fn(2, 3, [0, 2])
    g = fn(3, 1, [0, 0, 0])
    sf, sg = span_from_map(FS, f), span_from_map(FS, g)
    c = compose_spans(sf, sg, FULL)
    gf = FS.compose(g, f)
    assert span_iso(FS, c, span_from_map(FS, gf)) is not None
    # contravariant embedding reverses composition
    sf_op, sg_op = span_from_map_op(FS, f), span_from_map_op(FS, g)
    c_op = compose_spans(sg_op, sf_op, FULL)
    assert span_iso(FS, c_op, span_from_map_op(FS, gf)) is not None


def test_compose_spans_point_apex_count():
    # [* <- 2 -> *] composed with itself: apex of size 4 needs FinSet<=4
    setup = full_setup(FS4)
    s = Span(1, 2, 1, ("fn", 2, 1, (0, 0)), ("fn", 2, 1, (0, 0)))
    c = compose_spans(s, s, setup)
    assert c.apex == 4


def test_span_iso_basics():
    s = Span(2, 2, 3, fn(2, 2, [1, 0]), fn(2, 3, [0, 2]))
    assert span_iso(FS, s, s) == FS.identity[2]
    t = Span(2, 1, 3, fn(1, 2, [0]), fn(1, 3, [1]))
    assert span_iso(FS, s, t) is None


def test_span_iso_two_pullback_choices():
    # two terminal cones for the same cospan are linked by an iso found by
    # span_iso: compare the canonical pullback against a permuted copy
    f = ("fn", 2, 1, (0, 0))
    pb = pullback(FS4, f, f)
    assert pb is not None and pb.apex == 4
    perm = ("fn", 4, 4, (1, 0, 3, 2))
    s1 = Span(2, 4, 2, pb.p1, pb.p2)
    s2 = Span(2, 4, 2, FS4.compose(pb.p1, perm), FS4.compose(pb.p2, perm))
    w = span_iso(FS4, s1, s2)
    assert w is not None


def test_dual_data_lazy_three_elements():
    from sixff.corr import ALL
    cat = FinSetCategory()
    setup = GeometricSetup(cat, ALL)
    for n in (1, 2, 3):
        x = cat.add_object(FinSetCategory.set_of_size(n))
        dd = dual_data(x, setup)
        assert len(dd.ev.apex) == n and len(dd.coev.apex) == n


def test_corr_hom_point_classes():
    FS2 = presets.finset_category(2)
    setup = full_setup(FS2)
    hs = corr_hom(1, 1, setup)
    # spans [1 <- W -> 1]: one iso class per cardinality of W = 0, 1, 2
    assert len(hs) == 3


def test_corr_hom_iso_setup_is_opposite_category():
    FS2 = presets.finset_category(2)
    setup = iso_setup(FS2)
    for x in FS2.objects:
        for y in FS2.objects:
            hs = corr_hom(x, y, setup)
            assert len(hs) == len(FS2.hom(y, x))


def test_corr_hom_bound():
    with pytest.raises(PartialEnumerationError):
        corr_hom(1, 1, FULL, bound=2)


def test_dual_data_finset_tabled():
    # tabled ambient only fits the tiny objects; triple products grow fast
    FS1 = presets.finset_category(1)
    setup = full_setup(FS1)
    for x in (0, 1):
        dd = dual_data(x, setup)
        assert dd.triangle1 is not None and dd.triangle2 is not None


def test_dual_data_lazy_two_point_set():
    from sixff.corr import ALL
    cat = FinSetCategory()
    setup = GeometricSetup(cat, ALL)
    x = cat.add_object((0, 1))
    dd = dual_data(x, setup)
    assert len(dd.ev.apex) == 2 and len(dd.coev.apex) == 2


def _lazy_setup():
    from sixff.corr import ALL
    cat = FinSetCategory()
    objs = [cat.add_object(FinSetCategory.set_of_size(n)) for n in (1, 2, 3)]
    return cat, GeometricSetup(cat, ALL), objs


def test_swap_antihomomorphism_random():
    rng = random.Random(7)
    cat, setup, objs = _lazy_setup()
    for _ in range(60):
        s1 = span(rng, cat, objs)
        s2 = span(rng, cat, objs, source=s1.target)
        lhs = compose_spans(s1, s2, setup).swap()
        rhs = compose_spans(s2.swap(), s1.swap(), setup)
        assert span_iso(cat, lhs, rhs) is not None


def test_associativity_up_to_iso_random():
    rng = random.Random(11)
    cat, setup, objs = _lazy_setup()
    for _ in range(40):
        s1 = span(rng, cat, objs)
        s2 = span(rng, cat, objs, source=s1.target)
        s3 = span(rng, cat, objs, source=s2.target)
        lhs = compose_spans(compose_spans(s1, s2, setup), s3, setup)
        rhs = compose_spans(s1, compose_spans(s2, s3, setup), setup)
        assert span_iso(cat, lhs, rhs) is not None


def test_terminal_object():
    assert terminal_object(FS) == 1
    assert terminal_object(presets.divisor_poset(12)) == 12
    assert product(FS, 1, 3).apex == 3


# ---------------------------------------------------------------------------
# FinSetCategory: bad input and a failed pullback certificate raise typed
# errors, which `python -O` keeps
# ---------------------------------------------------------------------------

def test_finset_mor_refuses_images_of_the_wrong_length():
    cat = FinSetCategory()
    with pytest.raises(StructureError, match="2 images for a domain of 3"):
        cat.mor((0, 1, 2), (0, 1), (0, 1))


def test_finset_mor_refuses_an_image_outside_the_codomain():
    cat = FinSetCategory()
    with pytest.raises(StructureError, match="outside the codomain"):
        cat.mor((0, 1), (0, 1), (0, 2))


def test_finset_compose_refuses_maps_that_do_not_compose():
    cat = FinSetCategory()
    f = cat.mor((0, 1), (0, 1), (1, 0))
    g = cat.mor((0, 1, 2), (0,), (0, 0, 0))
    with pytest.raises(StructureError, match="not composable"):
        cat.compose(g, f)


def test_finset_fiber_product_certificate_fails_on_a_repeated_element():
    # a domain that lists an element twice has an apex with a repeated
    # pair, which is not the set of matching pairs
    cat = FinSetCategory()
    f = ("fn", (0, 0), (0,), (0, 0))
    g = cat.mor((0,), (0,), (0,))
    with pytest.raises(TheoremViolation, match="matching pairs"):
        cat.fiber_product(f, g)


def _broken_apex(pairs, how):
    """`pairs` with one pair dropped, one repeated in place of another, or
    one replaced by a pair that does not match."""
    if how == "dropped":
        return pairs[1:]
    if how == "repeated":
        return pairs[:-1] + pairs[:1]
    (a, _), (_, b) = pairs[0], pairs[-1]
    return ((a, b),) + pairs[1:]


@pytest.mark.parametrize("how", ["dropped", "repeated", "non-matching"])
def test_finset_fiber_product_certificate_refuses_a_broken_apex(how):
    cat = FinSetCategory()
    X, Y, S = (0, 1, 2), ("a", "b"), (0, 1)
    f, g = cat.mor(X, S, (0, 0, 1)), cat.mor(Y, S, (0, 1))
    pb = cat.fiber_product(f, g)
    pairs = tuple(zip(pb.p1[3], pb.p2[3]))
    assert pairs == ((0, "a"), (1, "a"), (2, "b"))
    apex = _broken_apex(pairs, how)
    p1 = ("fn", apex, X, tuple(a for a, _ in apex))
    p2 = ("fn", apex, Y, tuple(b for _, b in apex))
    with pytest.raises(TheoremViolation, match="matching pairs"):
        cat.certify_fiber_product(f, g, p1, p2)


def test_finset_mediator_refuses_a_cone_that_misses_the_apex():
    cat = FinSetCategory()
    X, S = cat.add_object((0, 1)), cat.add_object((0, 1))
    f = cat.mor(X, S, (0, 1))
    pb = cat.fiber_product(f, f)
    W = cat.add_object((0,))
    with pytest.raises(StructureError, match="misses the apex"):
        cat.mediator(pb, cat.mor(W, X, (0,)), cat.mor(W, X, (1,)))
