"""Command-line entry point.

    sixff run [--suite S ...] [--field q|fp:P] [--seed N] [--probes M]
              [--format text|json] [--input PATH ...]
    sixff setup check --input SETUP.json | --demo
    sixff pyramid N [--variant sigma|sigma2|lambda]
    sixff sections N
    sixff descent [--field q|fp:P]
    sixff kernels verify [--base S.json] [--maps M.json ...]
    sixff adj {verify,mate,audit}
    sixff hecke table --group S3 --subgroup "(12)" [--field q]
    sixff presets

Exit status:

    0  every check passed
    1  a check failed
    2  usage error or bad input: a bad --field, a run --probes that is
       not an integer >= 1, a pyramid or sections level N that is not an
       integer >= 0, a hecke table --group that is not a preset
       permutation group, a --subgroup that is not disjoint cycles of an
       element of that group, or an input file that is missing, not JSON,
       lacks a key or holds malformed tables
    3  the semisimplicity gate failed (GateError): the characteristic of
       the field divides an automorphism-group order

A bad input file, a bad hecke table value and a gate failure end in one
line on standard error: `sixff: PATH: ...`, `sixff: --group: ...` or
`sixff: --subgroup: ...`, and `sixff: gate: ...`.  The other usage errors
print the command's usage line first.
"""

from __future__ import annotations

import argparse
import json
import re
import sys

from . import presets
from .fields import GateError, parse_field
from .groupoid import delooping, identity_functor, terminal_groupoid
from .io import InputError
from .suite import SUITES, SuiteConfig, emit_report, run_suite


class UsageError(Exception):
    """An option value that argparse cannot check on its own, such as a
    --subgroup that must lie in the chosen --group; exit status 2."""


def _int_at_least(lo):
    """argparse type of an int option that must be >= lo."""
    def parse(text):
        try:
            n = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError("invalid int value: %r" % text)
        if n < lo:
            raise argparse.ArgumentTypeError("must be >= %d, got %d"
                                             % (lo, n))
        return n
    return parse


def _field_spec(spec):
    """argparse type of --field: the spec, unchanged, if `parse_field`
    accepts it, else a usage error."""
    try:
        parse_field(spec)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))
    return spec


def _cmd_run(args):
    cfg = SuiteConfig(suites=tuple(args.suite or ()),
                      field_spec=args.field, seed=args.seed,
                      probes=args.probes,
                      inputs=tuple(args.input or ()))
    report = run_suite(cfg)
    sys.stdout.write(emit_report(report, args.format))
    return report.exit_code()


def _cmd_setup(args):
    from .corr import GeometricSetup, merge_setup_checks
    from .io import load_document, load_setup, violations_as_json
    if args.demo or not args.input:
        from .presets import chain_poset
        cat = chain_poset()
        E = [("le", "a", "a"), ("le", "b", "b"), ("le", "c", "c"),
             ("le", "a", "c"), ("le", "b", "c")]
        setup = GeometricSetup(cat, E)
        print("demo: chain poset a->b->c with E missing a->b")
    else:
        setup = load_setup(load_document(args.input))
    diagonal = setup.diagonal_check()
    right_cancellative = setup.right_cancellative_check()
    report, cross = merge_setup_checks(diagonal, right_cancellative)
    d_ok, r_ok = diagonal[0], right_cancellative[0]
    print("diagonal-in-E verdict:        %s" % d_ok)
    print("right-cancellativity verdict: %s" % r_ok)
    print("cross-check (verdicts agree): %s" % cross)
    for v in report:
        print("  %s" % v)
    if args.json:
        print(json.dumps({"diagonal": d_ok, "right_cancellative": r_ok,
                          "cross_check": cross,
                          "violations": violations_as_json(report)},
                         sort_keys=True))
    return 0 if cross else 1


def _cmd_pyramid(args):
    from .pyramids import LAMBDA, SIGMA, SIGMA2, build_pyramid
    variant = {"sigma": SIGMA, "sigma2": SIGMA2, "lambda": LAMBDA}[args.variant]
    pyr = build_pyramid(args.n, variant)
    print("pyramid n=%d variant=%s: %d elements" %
          (args.n, args.variant, len(pyr.elements)))
    for (a, b) in pyr.covers():
        print("  (%d,%d) -> (%d,%d)" % (a[0], a[1], b[0], b[1]))
    return 0


def _cmd_sections(args):
    from .pyramids import pyramid_sections
    ps = pyramid_sections(args.n)
    print("sections at n=%d" % args.n)
    print("  first section values:  %s" %
          {k: "[%d]" % v for k, v in sorted(ps.s.value.items())})
    print("  second section values: %s" %
          {k: "[%d]" % v for k, v in sorted(ps.t.value.items())})
    print("  symmetry (reversal-invariance): %s" % ps.symmetry_ok)
    print("  reversal is involutive:         %s" % ps.symmetry_involutive)
    print("  half-interval comparison:       %s" % ps.comparison_ok)
    ok = ps.symmetry_ok and ps.symmetry_involutive and ps.comparison_ok
    return 0 if ok else 1


def _cmd_descent(args):
    from .descent import DescentSetting, descent_comparison
    from .groupoid import Functor
    from .sheaves import unit_sheaf
    field = parse_field(args.field)
    pt = terminal_groupoid()
    rows = []
    for gname in ("C2", "S3"):
        G = presets.group(gname)
        BG = delooping(G)
        j = Functor(pt, BG, {pt.objects[0]: BG.objects[0]},
                    {pt.morphisms[0]: BG.identity[BG.objects[0]]})
        st = DescentSetting(j, field)
        probes = [unit_sheaf(BG, field)]
        cmp = descent_comparison(st, probes_X=probes,
                                 probe_data=[st.canonical_datum(p)
                                             for p in probes])
        rows.append((gname, cmp.fully_faithful_ok,
                     cmp.essentially_surjective_ok))
    print("descent comparison along * -> */G")
    print("%-6s %-22s %-12s" % ("group", "hom-dims (faithful)", "descends"))
    ok = True
    for gname, ff, es in rows:
        print("%-6s %-22s %-12s" % (gname, ff, es))
        ok = ok and ff and es
    return 0 if ok else 1


def _cmd_kernels(args):
    from .io import load_document, load_functor, load_groupoid
    from .kernels import (
        KernelContext, associator, kernel_identity, left_unitor, right_unitor,
    )
    from .sheaves import unit_sheaf
    field = parse_field(args.field)
    if args.base:
        doc = load_document(args.base)
        S = load_groupoid(doc)
    else:
        S = delooping(presets.group("C2"))
        print("no --base given: using */C2")
    ctx = KernelContext(S, field)
    names = []
    if args.maps:
        for i, path in enumerate(args.maps):
            doc = load_document(path)
            X = load_groupoid(doc["domain"])
            F = load_functor(doc["map"], X, S)
            names.append(ctx.add_object("X%d" % i, X, F))
    else:
        names.append(ctx.add_object("S", S, identity_functor(S)))
    print("kernel verification over the given base")
    code = 0
    for n in names:
        k = kernel_identity(ctx, n)
        ru, lu = right_unitor(k), left_unitor(k)
        al = associator(k, k, k)
        ok = ru.is_invertible() and lu.is_invertible() and al.is_invertible()
        print("  object %-4s identity kernel dim=%d  unitors=%s assoc=%s"
              % (n, k.payload.total_dim(), ok, al.is_invertible()))
        code |= 0 if ok else 1
    return code


def _cmd_adj(args):
    from .twocat import (
        AdjunctionQuadruple, mate_lambda, mate_rho, pointwise_audit,
        scalar_two_cat, verify_adjunction,
    )
    C = scalar_two_cat(["0", "1", "2"], 3)
    f, g = ("c", "0", "1"), ("c", "1", "0")
    q = AdjunctionQuadruple(f, g, ("s", "0", "0", 1), ("s", "1", "1", 1))
    if args.mode == "verify":
        ok, why = verify_adjunction(q, C)
        print("triangle identities: %s" % ("pass" if ok else why))
        return 0 if ok else 1
    if args.mode == "mate":
        a, b = ("c", "0", "2"), ("c", "1", "1")
        fp, gp = ("c", "2", "1"), ("c", "1", "2")
        qp = AdjunctionQuadruple(fp, gp, ("s", "2", "2", 1), ("s", "1", "1", 1))
        total = 0
        for phi in C.hom[("0", "1")].hom(C.h1(fp, a), C.h1(b, f)):
            back = mate_lambda(mate_rho(phi, q, qp, a, b, C), q, qp, a, b, C)
            if back != phi:
                print("mates not inverse: rho then lambda sends %r to %r"
                      % (phi, back))
                return 1
            total += 1
        print("mates mutually inverse on %d cells" % total)
        return 0
    report = pointwise_audit(f, C)
    print("pointwise audit: adjoint exists=%s criterion=%s agreement=%s"
          % (report.has_right_adjoint, report.criterion_holds,
             report.agreement))
    print("  %s" % report.detail)
    return 0 if report.agreement else 1


def _parse_cycles(text, degree):
    """Parse a permutation of 0..degree-1 given by disjoint cycles, e.g.
    "(12)" or "(0 1 2)(3 4)"; single-digit entries may be juxtaposed,
    1-based if no 0 appears.  Anything else raises ValueError."""
    text = text.strip()
    if re.sub(r"\([^()]*\)", "", text).strip():
        raise ValueError("%r is not in cycle notation" % text)
    spaced = " " in text or "," in text
    cycles = []
    for body in re.findall(r"\(([^()]*)\)", text):
        entries = body.replace(",", " ").split() if spaced else list(body)
        if not all(e.isdecimal() for e in entries):
            raise ValueError("%r is not in cycle notation" % text)
        cycles.append([int(e) for e in entries])
    base = 0 if any(0 in c for c in cycles) else 1
    flat = [v - base for c in cycles for v in c]
    if any(not 0 <= v < degree for v in flat):
        raise ValueError("%r moves a point outside 0..%d" % (text, degree - 1))
    if len(set(flat)) != len(flat):
        raise ValueError("the cycles of %r are not disjoint" % text)
    perm = list(range(degree))
    for c in cycles:
        for i, v in enumerate(c):
            perm[v - base] = c[(i + 1) % len(c)] - base
    return tuple(perm)


def _cmd_hecke(args):
    from .hecke import HeckeAlgebra, anti_involution
    from .sheaves import unit_sheaf
    field = parse_field(args.field)
    try:
        G = presets.group(args.group)
    except KeyError:
        raise UsageError("--group: unknown preset group %r (presets: %s)"
                         % (args.group, ", ".join(presets.GROUP_PRESETS)))
    first = G.elements[0]
    degree = len(first) if isinstance(first, tuple) else 0
    points = set(range(degree))
    if not degree or any(not isinstance(g, tuple) or len(g) != degree
                         or set(g) != points for g in G.elements):
        raise UsageError("--group: %s is not a permutation group"
                         % args.group)
    try:
        gens = [_parse_cycles(t, degree) for t in args.subgroup.split(";")]
    except ValueError as e:
        raise UsageError("--subgroup: %s" % e)
    elements = set(G.elements)
    for g in gens:
        if g not in elements:
            raise UsageError("--subgroup: %r is not an element of %s"
                             % (g, args.group))
    K = G.subgroup(G.generated_subgroup(gens), name="K")
    alg = HeckeAlgebra(G, K, unit_sheaf(delooping(K), field))
    print("Hecke algebra of (%s, K) with |K|=%d: dimension %d"
          % (args.group, len(K.elements), alg.dim))
    sc = alg.structure_constants()
    reps = alg.dc.representatives
    print("double coset representatives: %s" % (list(reps),))
    labels = []
    for F in alg.function_basis:
        support = [g for g, m in F.values.items() if not m.is_zero()]
        w = min(support, key=lambda g: str(g))
        labels.append("T[%s]" % (w,))
    for i, Fi in enumerate(alg.function_basis):
        for j, Fj in enumerate(alg.function_basis):
            coords = sc[i][j]
            terms = " + ".join("%s %s" % (c, labels[k])
                               for k, c in enumerate(coords) if c)
            print("  %s * %s = %s" % (labels[i], labels[j], terms or "0"))
    iota, cert = anti_involution(alg)
    print("anti-involution: anti-multiplicative=%s involutive=%s"
          % (cert.anti_multiplicative, cert.involutive))
    for w, wrep in sorted(cert.coset_swap.items(), key=lambda kv: str(kv)):
        print("  iota sends the coset of %s to the coset of %s" % (w, wrep))
    if args.json:
        doc = {"dim": alg.dim,
               "structure_constants": [[[str(c) for c in cell]
                                        for cell in row] for row in sc],
               "anti_involution": {"anti_multiplicative":
                                   cert.anti_multiplicative,
                                   "involutive": cert.involutive}}
        print(json.dumps(doc, sort_keys=True))
    return 0 if cert.anti_multiplicative and cert.involutive else 1


def _cmd_presets(args):
    print("groups: %s" % ", ".join(presets.GROUP_PRESETS))
    print("categories: finset<=N (tabled), chain poset, cospan, parallel "
          "arrows, divisor posets, lazy finite sets")
    return 0


def main(argv=None):
    ap = argparse.ArgumentParser(prog="sixff", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("run", help="run verification suites")
    p.add_argument("--suite", action="append", choices=SUITES)
    p.add_argument("--field", type=_field_spec, default="q")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--probes", type=_int_at_least(1), default=2)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--input", action="append")
    p.set_defaults(fn=_cmd_run)

    p = sub.add_parser("setup", help="geometric setup validation")
    psub = p.add_subparsers(dest="setup_cmd", required=True)
    pc = psub.add_parser("check")
    pc.add_argument("--input")
    pc.add_argument("--demo", action="store_true")
    pc.add_argument("--json", action="store_true")
    pc.set_defaults(fn=_cmd_setup)

    p = sub.add_parser("pyramid", help="print a pyramid poset")
    p.add_argument("n", type=_int_at_least(0))
    p.add_argument("--variant", choices=("sigma", "sigma2", "lambda"),
                   default="sigma")
    p.set_defaults(fn=_cmd_pyramid)

    p = sub.add_parser("sections", help="print the pyramid section tables")
    p.add_argument("n", type=_int_at_least(0))
    p.set_defaults(fn=_cmd_sections)

    p = sub.add_parser("descent", help="descent comparison report")
    p.add_argument("--field", type=_field_spec, default="q")
    p.set_defaults(fn=_cmd_descent)

    p = sub.add_parser("kernels", help="kernel 2-category verification")
    psub = p.add_subparsers(dest="kernels_cmd", required=True)
    pv = psub.add_parser("verify")
    pv.add_argument("--base")
    pv.add_argument("--maps", nargs="*")
    pv.add_argument("--field", type=_field_spec, default="q")
    pv.set_defaults(fn=_cmd_kernels)

    p = sub.add_parser("adj", help="adjunction calculus demos")
    p.add_argument("mode", choices=("verify", "mate", "audit"))
    p.set_defaults(fn=_cmd_adj)

    p = sub.add_parser("hecke", help="Hecke algebra tables")
    psub = p.add_subparsers(dest="hecke_cmd", required=True)
    pt = psub.add_parser("table")
    pt.add_argument("--group", required=True)
    pt.add_argument("--subgroup", required=True)
    pt.add_argument("--field", type=_field_spec, default="q")
    pt.add_argument("--json", action="store_true")
    pt.set_defaults(fn=_cmd_hecke)

    p = sub.add_parser("presets", help="list built-in objects")
    p.set_defaults(fn=_cmd_presets)

    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (InputError, UsageError) as e:
        print("sixff: %s" % e, file=sys.stderr)
        return 2
    except GateError as e:
        print("sixff: gate: %s" % e, file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
