"""Named verification suites over the preset battery.

Every check has a stable id and an anchor naming the statement it
verifies.  Reports are deterministic given the configuration and seed: the
machine format is a stable-schema JSON with no timing data, so identical
runs produce identical bytes; the text format adds anchors and timings.
A failing check carries a minimal counterexample string, and any
theorem-violation alarm makes the run exit nonzero.
"""

from __future__ import annotations

import itertools
import json
import random
import time
from dataclasses import dataclass

from . import instances, presets
from .corr import GeometricSetup, compose_spans, dual_data, span_iso
from .fields import GF, QQ, TheoremViolation
from .groupoid import (
    Functor, delooping, delooping_hom, disjoint_union, identity_functor,
    terminal_groupoid, to_terminal,
)
from .sheaves import (
    CommutingSquare, LanFunctor, RanFunctor, SheafMorphism, adj_lan_pullback,
    adj_pullback_ran, compose_comparison_lan, compose_comparison_ran,
    identity_morphism, lan_identity_comparison, ran_identity_comparison,
    unit_sheaf, verify_base_change, verify_projection_formula,
)


@dataclass
class CheckResult:
    check_id: str
    anchor: str
    status: str          # "pass" | "fail"
    witness: str
    seconds: float


@dataclass
class Report:
    config: dict
    results: list

    @property
    def ok(self):
        return all(r.status == "pass" for r in self.results)

    def exit_code(self):
        return 0 if self.ok else 1


@dataclass
class SuiteConfig:
    suites: tuple = ()
    field_spec: str = "q"
    seed: int = 0
    probes: int = 2
    inputs: tuple = ()

    def __post_init__(self):
        # the report echoes `probes`, so it must be the value the checks use
        if self.probes < 1:
            raise ValueError("probes must be >= 1, got %r" % (self.probes,))


def _pt():
    return terminal_groupoid()


def _discrete(n):
    return disjoint_union([terminal_groupoid() for _ in range(n)])


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_setup_cross(config, rng):
    cats = [presets.chain_poset(), presets.cospan_category(),
            presets.parallel_arrows_category()]
    tested = 0
    for cat in cats:
        assert len(cat.morphisms) <= 8
        for r in range(len(cat.morphisms) + 1):
            for sub in itertools.combinations(cat.morphisms, r):
                s = GeometricSetup(cat, sub)
                d_ok, _ = s.diagonal_check()
                r_ok, _ = s.right_cancellative_check()
                if d_ok != r_ok:
                    return "fail", "disagreement at E=%r" % (sub,)
                tested += 1
    return "pass", "%d subsets, verdicts identical" % tested


def check_corr_duals(config, rng):
    from .finset import FinSetCategory
    from .corr import ALL
    cat = FinSetCategory()
    setup = GeometricSetup(cat, ALL)
    for n in (0, 1, 2, 3):
        x = cat.add_object(FinSetCategory.set_of_size(n))
        dd = dual_data(x, setup)
        if dd.triangle1 is None or dd.triangle2 is None:
            return "fail", "missing triangle witness at size %d" % n
    return "pass", "sizes 0..3, both triangle composites are identity spans"


def check_corr_properties(config, rng):
    from .finset import FinSetCategory
    from .corr import ALL
    cat = FinSetCategory()
    setup = GeometricSetup(cat, ALL)
    objs = [cat.add_object(FinSetCategory.set_of_size(n)) for n in (1, 2, 3)]
    for _ in range(30):
        s1 = instances.span(rng, cat, objs)
        s2 = instances.span(rng, cat, objs, source=s1.target)
        s3 = instances.span(rng, cat, objs, source=s2.target)
        lhs = compose_spans(compose_spans(s1, s2, setup), s3, setup)
        rhs = compose_spans(s1, compose_spans(s2, s3, setup), setup)
        if span_iso(cat, lhs, rhs) is None:
            return "fail", "associativity fails"
        sw = compose_spans(s1, s2, setup).swap()
        sw2 = compose_spans(s2.swap(), s1.swap(), setup)
        if span_iso(cat, sw, sw2) is None:
            return "fail", "swap anti-homomorphism fails"
    return "pass", "30 random triples associative; swap anti-multiplicative"


def check_double_cosets(config, rng):
    from .hecke import double_cosets
    count = 0
    for gname in ("S3", "S4", "D4", "Q8"):
        G = presets.group(gname)
        classes = G.subgroups_up_to_conjugacy()
        for H_el in classes:
            for K_el in classes:
                double_cosets(G, G.subgroup(H_el), G.subgroup(K_el))
                count += 1
    return "pass", "%d subgroup pairs matched against fiber products" % count


def _certify_natural(cell, what):
    """TheoremViolation unless `cell` is natural at its base's generators."""
    bad = cell.validate()
    if bad:
        raise TheoremViolation("%s not natural: %s" % (what, bad[0]))


def _certify_coadjunct_natural(adj, M):
    """TheoremViolation unless the (f_! ⊣ f*)-coadjunct is natural in its
    cell at the unit η_M: coadjunct(η_M∘a) = coadjunct(η_M)∘f_!(a) for
    a = 3·id_M.  The coadjunct is read off the cocone legs and applies f_!
    to no morphism, so this is what pins f_! on morphisms; base change
    alone would pass a scalar multiple of it."""
    three = M.field.of(3)
    a = SheafMorphism(M, M, {y: c.scale(three)
                             for y, c in identity_morphism(M).comp.items()})
    eta, FM = adj.unit(M), adj.left.obj(M)
    lhs = adj.coadjunct(a.then(eta), FM)
    rhs = adj.left.mor(a).then(adj.coadjunct(eta, FM))
    if any(lhs.comp[x] != rhs.comp[x] for x in lhs.comp):
        raise TheoremViolation(
            "coadjunct of f_! ⊣ f* not natural in its cell")


def _certify_unit_laws(f, M):
    """TheoremViolation unless the composition comparisons are unital on
    both sides: c_{f,id} followed by f_! (f_*) of the identity comparison,
    and c_{id,f} followed by the identity comparison at f_!M (f_*M), are
    identities."""
    Y, X = f.dom, f.cod
    for side, compare, identity, push in (
            ("Lan", compose_comparison_lan, lan_identity_comparison,
             LanFunctor(f)),
            ("Ran", compose_comparison_ran, ran_identity_comparison,
             RanFunctor(f))):
        right = compare(f, Y.identity_functor, M).then(
            push.mor(identity(Y, M)))
        left = compare(X.identity_functor, f, M).then(
            identity(X, push.obj(M)))
        if not (right.is_identity() and left.is_identity()):
            raise TheoremViolation("%s composition comparison not unital"
                                   % side)


def check_base_change_and_projection(config, rng):
    fields = [QQ, GF(5)]
    count = config.probes * 100
    for done in range(count):
        field = fields[done % 2]
        X = instances.union(rng)
        Y, Z = instances.union(rng, 1), instances.union(rng, 1)
        f = instances.union_map(rng, Y, X)
        g = instances.union_map(rng, Z, X)
        try:
            square, _ = CommutingSquare.from_iso_comma(f, g)
            M = instances.nonzero_sheaf(rng, Y, field)
            # the unit M -> f*f_!M and the counit f*f_*M -> M each have
            # one end no push built, so a push with a wrong transition
            # matrix fails here even where every cell between pushes
            # stays natural and invertible
            lan_adj, ran_adj = adj_lan_pullback(f), adj_pullback_ran(f)
            _certify_natural(lan_adj.unit(M), "unit of f_! ⊣ f*")
            verify_base_change(square, M)
            _certify_natural(ran_adj.counit(M), "counit of f* ⊣ f_*")
            # the triangles pin the scale of every adjunct and coadjunct,
            # which invertibility and naturality leave free
            FM = lan_adj.left.obj(M)
            for adj, dom, cod in ((lan_adj, M, FM), (ran_adj, FM, M)):
                ok, why = adj.triangles_ok([dom], [cod])
                if not ok:
                    raise TheoremViolation(why)
            _certify_coadjunct_natural(lan_adj, M)
            # unit laws pin the scale of the composition comparisons, which
            # their cocycle law leaves free; every fifth instance suffices
            if done % 5 == 0:
                _certify_unit_laws(f, M)
            verify_projection_formula(
                f, instances.nonzero_sheaf(rng, X, field),
                instances.nonzero_sheaf(rng, Y, field))
        except TheoremViolation as e:
            return "fail", "instance %d: %s" % (done, e)
    return "pass", "%d randomized instances over Q and F5" % count


def check_kernel_category(config, rng):
    from .kernels import (
        KernelContext, associator,
        left_unitor, right_unitor, psi_composition_certificate,
        psi_phi_certificate,
    )
    field = QQ
    pt = _pt()
    ctx = KernelContext(pt, field)
    sizes = (2, 3, 2, 2)
    for i, n in enumerate(sizes):
        X = _discrete(n)
        ctx.add_object("X%d" % i, X, to_terminal(X, pt))

    triples = config.probes * 50
    for t in range(triples):
        M, N, L = instances.kernel_chain(ctx, ["X0", "X1", "X2", "X3"], rng)
        try:
            al = associator(M, N, L)
            ru = right_unitor(M)
            lu = left_unitor(M)
        except TheoremViolation as e:
            return "fail", "triple %d: %s" % (t, e)
        if not (al.is_invertible() and ru.is_invertible()
                and lu.is_invertible()):
            return "fail", "non-invertible coherence cell at triple %d" % t
    # Psi∘Phi on embedded correspondences
    X0 = ctx.objects["X0"][0]
    X1 = ctx.objects["X1"][0]
    probes = [unit_sheaf(X0, field)]
    fmap = Functor(X0, X1, {X0.objects[0]: X1.objects[0],
                            X0.objects[1]: X1.objects[1]},
                   {m: X1.identity[X1.objects[0]
                                   if X0.src[m] == X0.objects[0]
                                   else X1.objects[1]]
                    for m in X0.morphisms})
    psi_phi_certificate(ctx, "X0", "X1", X0, identity_functor(X0), fmap,
                        probes)
    M, N = instances.kernel_chain(ctx, ["X0", "X1", "X2"], rng)
    X2 = ctx.objects["X2"][0]
    psi_composition_certificate(M, N, [unit_sheaf(X2, field)])
    return "pass", "%d triples; Psi∘Phi matches the direct composite" % triples


def check_suave_prim(config, rng):
    from .kernels import etale_proper_test, prim_test, suave_test
    from .sheaves import find_isomorphism, internal_hom, upper_shriek
    field = QQ
    pt = _pt()
    BS3, BC2 = delooping(instances.S3), delooping(instances.C2)
    X = instances.union(rng).grpd
    ident = identity_functor(BC2)
    battery = [ident, to_terminal(BC2, pt),
               delooping_hom({g: g for g in instances.C2.elements}, BC2, BS3),
               to_terminal(X, pt)]
    for f in battery:
        P = unit_sheaf(f.dom, field)
        sv = suave_test(f, P)
        if not sv.ok:
            return "fail", "suave fails for %r: %s" % (f, sv.failing)
        pr = prim_test(f, P)
        if not pr.ok or pr.double_dual_ok is False:
            return "fail", "prim fails for %r: %s" % (f, pr.failing)
        # DSuave∘DSuave ≅ identity (double dual cell)
        om = upper_shriek(f, unit_sheaf(f.cod, field)).sheaf
        dd = internal_hom(internal_hom(P, om), om)
        if find_isomorphism(dd, P) is None:
            return "fail", "suave double dual does not return"
        cert = etale_proper_test(f, field, [unit_sheaf(f.cod, field)])
        if not (cert.etale_ok and cert.proper_ok):
            return "fail", "etale/proper certificate fails for %r" % (f,)
        # along the identity both canonical comparisons are the identity:
        # invertibility alone passes a rescaled mate
        if f is ident and not all(c.is_identity() for c in
                                  cert.etale_cells + cert.proper_cells):
            return "fail", "etale/proper comparison of the identity is " \
                "not the identity"
        if not (cert.suave_twist_ok and cert.prim_twist_ok):
            return "fail", "twist identity fails for %r" % (f,)
    return "pass", "%d maps, all suave+prim with certified twists" \
        % len(battery)


def check_descent(config, rng):
    from .descent import DescentSetting, descent_comparison
    field = QQ
    pt = _pt()
    covers = []
    two = _discrete(2)
    covers.append((to_terminal(two, pt), [unit_sheaf(pt, field)]))
    for gname in ("C2", "S3"):
        G = presets.group(gname)
        BG = delooping(G)
        j = Functor(pt, BG, {pt.objects[0]: BG.objects[0]},
                    {pt.morphisms[0]: BG.identity[BG.objects[0]]})
        regular = LanFunctor(j).obj(unit_sheaf(pt, field))
        covers.append((j, [unit_sheaf(BG, field), regular]))
    # one randomized surjection: the identity of X plus a random extra sheet
    extra = instances.delooping_map(rng)
    X = extra.cod
    Y = disjoint_union([X, extra.dom])
    ob = {(i, o): o if i == 0 else extra.ob[o] for (i, o) in Y.objects}
    mor = {(i, m): m if i == 0 else extra.mor[m] for (i, m) in Y.morphisms}
    surj = Functor(Y, X, ob, mor, name="random cover")
    covers.append((surj, [unit_sheaf(X, field)]))
    for f, probes in covers:
        st = DescentSetting(f, field)
        cmp = descent_comparison(st, probes_X=probes,
                                 probe_data=[st.canonical_datum(p)
                                             for p in probes])
        if not cmp.fully_faithful_ok:
            return "fail", "hom dimensions disagree for %r" % (f,)
        if not cmp.essentially_surjective_ok:
            return "fail", "a datum failed to descend for %r" % (f,)
    return "pass", "%d covers: equivalence certificates hold" % len(covers)


def check_mates(config, rng):
    from .twocat import adjunctions, mate_lambda, mate_rho, scalar_two_cat
    C = scalar_two_cat(["0", "1", "2"], 3)
    bad = C.validate()
    if bad:
        return "fail", str(bad[0])
    total = 0
    for (A, B, Ap, Bp) in (("0", "1", "2", "1"), ("1", "2", "0", "2")):
        adj = next(adjunctions(("c", A, B), ("c", B, A), C))
        adjp = next(adjunctions(("c", Ap, Bp), ("c", Bp, Ap), C))
        a = ("c", A, Ap)
        b = ("c", B, Bp)
        for phi in C.hom[(A, Bp)].hom(C.h1(adjp.f, a), C.h1(b, adj.f)):
            if mate_lambda(mate_rho(phi, adj, adjp, a, b, C),
                           adj, adjp, a, b, C) != phi:
                return "fail", "rho then lambda misses %r" % (phi,)
            total += 1
        for psi in C.hom[(B, Ap)].hom(C.h1(a, adj.g), C.h1(adjp.g, b)):
            if mate_rho(mate_lambda(psi, adj, adjp, a, b, C),
                        adj, adjp, a, b, C) != psi:
                return "fail", "lambda then rho misses %r" % (psi,)
            total += 1
    return "pass", "mates mutually inverse on %d cells, exhaustively" % total


def check_hecke(config, rng):
    from .hecke import (
        HeckeAlgebra, anti_involution, prim_duality_on_hecke,
    )
    S3, C2 = instances.S3, instances.C2
    alg = HeckeAlgebra(S3, C2, unit_sheaf(delooping(C2), QQ))
    if alg.dim != 2:
        return "fail", "dim H(S3,C2,1) = %d != 2" % alg.dim
    sc = alg.structure_constants()
    supp = [sum(1 for m in F.values.values() if not m.is_zero())
            for F in alg.function_basis]
    te, tw = supp.index(2), supp.index(4)
    coords = sc[tw][tw]
    if not (coords[te] == QQ.of(2) and coords[tw] == QQ.of(1)):
        return "fail", "T_w^2 != 2T_e + T_w: got [%s]" % ", ".join(
            map(str, coords))
    iota, cert = anti_involution(alg)
    if not (cert.anti_multiplicative and cert.involutive):
        return "fail", "iota fails its certificates"
    pd = prim_duality_on_hecke(S3, C2, QQ)
    if not (pd.prim_ok and pd.agrees_with_iota and pd.anti_automorphism_ok):
        return "fail", "prim duality disagrees with iota"
    return "pass", "dim 2; T_w^2 = 2T_e + T_w; duality matches iota"


def check_kunneth_and_sections(config, rng):
    from .pyramids import pyramid_sections
    from .sheaves import global_sections
    pt = _pt()
    pairs = config.probes * 10
    for t in range(pairs):
        X, Y = instances.union(rng).grpd, instances.union(rng).grpd
        f, g = to_terminal(X, pt), to_terminal(Y, pt)
        square, ic = CommutingSquare.from_iso_comma(f, g)
        prod = ic.grpd
        _, _, gc_prod, _ = global_sections(prod, unit_sheaf(prod, QQ))
        _, _, gc_x, _ = global_sections(X, unit_sheaf(X, QQ))
        _, _, gc_y, _ = global_sections(Y, unit_sheaf(Y, QQ))
        if gc_prod != gc_x * gc_y:
            return "fail", "Kunneth fails: %d != %d*%d" % (gc_prod, gc_x, gc_y)
    for gname in presets.GROUP_PRESETS:
        BG = delooping(presets.group(gname))
        gdim, _, _, _ = global_sections(BG, unit_sheaf(BG, QQ))
        if gdim != 1:
            return "fail", "Gamma(*/%s, 1) has dim %d" % (gname, gdim)
    for n in range(0, 6):
        ps = pyramid_sections(n)
        if not (ps.symmetry_ok and ps.symmetry_involutive
                and ps.comparison_ok):
            return "fail", "section symmetry fails at n=%d" % n
    return "pass", "%d Kunneth pairs; unit sections; symmetry to n=5" % pairs


CHECKS = [
    ("setup.cross-check", "right-cancellative-equivalence", "setup",
     check_setup_cross),
    ("corr.self-duality", "corr-self-duality", "corr", check_corr_duals),
    ("corr.composition", "corr-composition", "corr", check_corr_properties),
    ("groupoid.double-cosets", "double-coset-decomposition", "groupoid",
     check_double_cosets),
    ("sheaf.base-change-projection", "proper-base-change-and-projection",
     "sheaf", check_base_change_and_projection),
    ("kernel.category", "kernel-composition", "kernel",
     check_kernel_category),
    ("kernel.suave-prim", "suave-prim-duality", "kernel", check_suave_prim),
    ("descent.comparison", "grothendieck-descent", "descent", check_descent),
    ("adj.mates", "mate-bijection", "adj", check_mates),
    ("hecke.algebra", "hecke-anti-involution", "hecke", check_hecke),
    ("sections.kunneth", "kunneth-and-pyramid-sections", "kunneth",
     check_kunneth_and_sections),
]

SUITES = sorted({suite for _, _, suite, _ in CHECKS})


def check_inputs(config, rng):
    from .io import load_inputs
    if not config.inputs:
        return "pass", "no external inputs; presets only"
    store = load_inputs(config.inputs, config.field_spec)
    return "pass", "validated %d inputs: %s" % (
        len(store), ", ".join(sorted(store)))


def _check_rng(config, check_id):
    """The random stream of one check: it depends on the seed and the check
    id only, so a check draws the same instances whatever else runs."""
    return random.Random("%s/%s" % (config.seed, check_id))


def run_suite(config):
    selected = set(config.suites) if config.suites else set(SUITES)
    results = []
    if config.inputs:
        # an input that does not load raises (InputError or GateError), so
        # bad input is never reported as a failed check
        t0 = time.time()
        status, witness = check_inputs(
            config, _check_rng(config, "inputs.validate"))
        results.append(CheckResult("inputs.validate", "input-validation",
                                   status, witness, time.time() - t0))
    for check_id, anchor, suite, fn in CHECKS:
        if suite not in selected:
            continue
        t0 = time.time()
        try:
            status, witness = fn(config, _check_rng(config, check_id))
        except TheoremViolation as e:
            status, witness = "fail", "alarm: %s" % e
        results.append(CheckResult(check_id, anchor, status, witness,
                                   time.time() - t0))
    results.sort(key=lambda r: r.check_id)
    return Report(config={"suites": sorted(selected),
                          "field": config.field_spec,
                          "seed": config.seed,
                          "probes": config.probes},
                  results=results)


def emit_report(report, fmt="text"):
    if fmt == "json":
        doc = {
            "schema": "sixff-report-v1",
            "config": report.config,
            "checks": [{"id": r.check_id, "anchor": r.anchor,
                        "status": r.status, "witness": r.witness}
                       for r in report.results],
            "ok": report.ok,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    lines = []
    lines.append("sixff verification report")
    lines.append("config: %s" % json.dumps(report.config, sort_keys=True))
    for r in report.results:
        lines.append("[%s] %-32s anchor=%s (%.2fs)" %
                     ("PASS" if r.status == "pass" else "FAIL",
                      r.check_id, r.anchor, r.seconds))
        lines.append("    %s" % r.witness)
    lines.append("result: %s" % ("all checks passed" if report.ok
                                 else "FAILURES PRESENT"))
    return "\n".join(lines) + "\n"
