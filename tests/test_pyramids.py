import pytest

from sixff import presets
from sixff.corr import full_setup, pullback
from sixff.groupoid import Functor
from sixff.pyramids import (
    LAMBDA, SIGMA, SIGMA2, build_pyramid, descent_index, is_cartesian,
    lambda_to_sigma, pyramid_sections,
)


def test_pyramid_counts():
    for n in range(0, 9):
        assert len(build_pyramid(n, SIGMA).elements) == (n + 1) * (n + 2) // 2
        assert len(build_pyramid(n, LAMBDA).elements) == 2 * n + 1
    assert len(build_pyramid(0, SIGMA).elements) == 1
    assert len(build_pyramid(2, SIGMA).elements) == 6


def test_pyramid_lambda_covers():
    pyr = build_pyramid(3, LAMBDA)
    covers = set(pyr.covers())
    expected = set()
    for i in range(3):
        expected.add(((i, i + 1), (i, i)))
        expected.add(((i, i + 1), (i + 1, i + 1)))
    assert covers == expected


def test_sigma2_keeps_vertical_moves_only():
    pyr = build_pyramid(2, SIGMA2)
    assert pyr.leq((0, 2), (1, 2))
    assert not pyr.leq((0, 2), (0, 1))


@pytest.mark.parametrize("variant", [SIGMA, SIGMA2, LAMBDA])
def test_covers_match_a_scan_of_the_morphisms(variant):
    # leq reads a table of the category's arrows; the reference asks the
    # category for each hom set
    for n in range(6):
        pyr = build_pyramid(n, variant)
        cat, els = pyr.category, pyr.elements

        def le(a, b):
            return len(cat.hom(a, b)) == 1

        expected = [(a, b) for a in els for b in els
                    if a != b and le(a, b) and not any(
                        c not in (a, b) and le(a, c) and le(c, b)
                        for c in els)]
        assert pyr.covers() == expected


def _chain_of_spans(cat, spans):
    """Functor on the wide pyramid from a list of spans s_i: X_{i-1} => X_i."""
    n = len(spans)
    lam = build_pyramid(n, LAMBDA)
    ob, mor = {}, {}
    for i, s in enumerate(spans, start=1):
        ob[(i - 1, i)] = s.apex
        ob[(i - 1, i - 1)] = s.source
        ob[(i, i)] = s.target
    for m in lam.category.morphisms:
        a, b = lam.category.src[m], lam.category.dst[m]
        if a == b:
            mor[m] = cat.identity[ob[a]]
        elif a[1] - a[0] == 1 and b == (a[0], a[0]):
            mor[m] = spans[a[0]].left
        elif a[1] - a[0] == 1 and b == (a[1], a[1]):
            mor[m] = spans[a[0]].right
        else:
            raise AssertionError("unexpected wide-pyramid arrow")
    return Functor(lam.category, cat, ob, mor)


def test_lambda_to_sigma_matches_span_composition():
    from sixff.corr import Span, compose_spans, span_iso
    FS2 = presets.finset_category(2)
    setup = full_setup(FS2)
    s1 = Span(1, 2, 1, ("fn", 2, 1, (0, 0)), ("fn", 2, 1, (0, 0)))
    s2 = Span(1, 1, 1, ("fn", 1, 1, (0,)), ("fn", 1, 1, (0,)))
    F = lambda_to_sigma(_chain_of_spans(FS2, [s1, s2]), setup)
    flag, corner = is_cartesian(F, FS2)
    assert flag, corner
    composed = compose_spans(s1, s2, setup)
    ext_span = Span(1, F.ob[(0, 2)], 1,
                    FS2.compose(s1.left, F.mor[("le", (0, 2), (0, 1))]),
                    FS2.compose(s2.right, F.mor[("le", (0, 2), (1, 2))]))
    assert span_iso(FS2, ext_span, composed) is not None
    # restriction back to the wide part recovers the input
    assert F.ob[(0, 1)] == s1.apex and F.ob[(1, 2)] == s2.apex


def test_lambda_to_sigma_constant():
    P = presets.divisor_poset(6)
    setup = full_setup(P)
    from sixff.corr import Span
    s = Span(6, 6, 6, ("le", 6, 6), ("le", 6, 6))
    F = lambda_to_sigma(_chain_of_spans(P, [s, s]), setup)
    assert all(v == 6 for v in F.ob.values())
    assert is_cartesian(F, P)[0]


def test_is_cartesian_detects_enlarged_corner():
    FS2 = presets.finset_category(2)
    # build a genuine cartesian extension, then enlarge the corner object
    from sixff.corr import Span
    setup = full_setup(FS2)
    s = Span(1, 1, 1, ("fn", 1, 1, (0,)), ("fn", 1, 1, (0,)))
    F = lambda_to_sigma(_chain_of_spans(FS2, [s, s]), setup)
    assert is_cartesian(F, FS2)[0]
    bad_ob = dict(F.ob)
    bad_ob[(0, 2)] = 2  # strictly larger than the fiber product (= 1)
    bad_mor = dict(F.mor)
    for m in F.dom.morphisms:
        a, b = F.dom.src[m], F.dom.dst[m]
        if a == (0, 2):
            tgt = F.ob[b] if b != (0, 2) else 2
            if b == (0, 2):
                bad_mor[m] = ("fn", 2, 2, (0, 1))
            else:
                bad_mor[m] = ("fn", 2, tgt, (0,) * 2)
    bad = Functor(F.dom, FS2, bad_ob, bad_mor)
    flag, corner = is_cartesian(bad, FS2)
    assert not flag and corner == (0, 2)


def test_pyramid_sections_values():
    ps = pyramid_sections(2)
    assert ps.s.value == {(0, 0): 0, (0, 1): 0, (0, 2): 0,
                          (1, 1): 1, (1, 2): 1, (2, 2): 2}
    assert ps.t.value == {(0, 0): 0, (0, 1): 1, (0, 2): 1,
                          (1, 1): 2, (1, 2): 3, (2, 2): 4}


def test_pyramid_sections_certificates():
    for n in range(0, 6):
        ps = pyramid_sections(n)
        assert ps.symmetry_ok
        assert ps.symmetry_involutive
        assert ps.comparison_ok


def test_section_transition_shapes():
    ps = pyramid_sections(3)
    t = ps.t.table
    # (1,2) -> (0,2): inclusion [1] c [3] missing 1 and 2
    assert t[((1, 2), (0, 2))] == (0, 3)
    # (1,1) -> (0,1): inclusion [1] c [2] missing 1
    assert t[((1, 1), (0, 1))] == (0, 2)
    # (1,1) -> (1,2): [3] -> [2] sending 1,2 -> 1
    assert t[((1, 1), (1, 2))] == (0, 1, 1, 2)
    # (1,2) -> (1,3): identity on [3]
    assert t[((1, 2), (1, 3))] == (0, 1, 2, 3)


def test_descent_index_counts():
    di = descent_index((0, 1), kind="delta", truncation=1)
    lvl0 = [o for o in di.category.objects if o[0] == 0]
    lvl1 = [o for o in di.category.objects if o[0] == 1]
    assert len(lvl0) == 2 and len(lvl1) == 4
    pi = descent_index((0, 1, 2), kind="subsets")
    assert len(pi.category.objects) == 7
    single = descent_index((0,), kind="delta", truncation=2)
    for n in range(3):
        assert len([o for o in single.category.objects if o[0] == n]) == 1
    assert di.category.validate() == []
    assert pi.category.validate() == []


def test_descent_index_fiber_powers():
    from sixff.groupoid import delooping, terminal_groupoid, Functor
    C2 = presets.group("C2")
    BC2 = delooping(C2)
    pt = terminal_groupoid()
    j = Functor(pt, BC2, {pt.objects[0]: BC2.objects[0]},
                {pt.morphisms[0]: BC2.identity[BC2.objects[0]]})
    di = descent_index((0, 1), kind="delta", truncation=1)
    cover = {0: (pt, j), 1: (pt, j)}
    g = di.fiber_power((1, (0, 1)), BC2, cover)
    assert len(g.objects) == 2  # two isomorphism witnesses in C2
