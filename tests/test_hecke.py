import json
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from sixff import hecke, presets
from sixff.fields import GF, QQ, GateError
from sixff.groupoid import (
    FiniteGroupoid, RelProduct, StructureError, delooping, delooping_hom,
    iso_comma_pullback, okey,
)
from sixff.hecke import (
    HeckeAlgebra, anti_involution, compact_induction, double_cosets,
    dual_weight_transport, frobenius_check, prim_duality_on_hecke,
    right_coset_reps,
)
from sixff.linalg import Matrix, stack_columns
from sixff.sheaves import (
    Sheaf, TheoremViolation, hom_dim, identity_morphism, unit_sheaf,
)

S3 = presets.group("S3")
C2 = S3.subgroup(S3.generated_subgroup([(1, 0, 2)]), name="C2")
TRIV1 = presets.group("1")


def test_double_cosets_whole_group():
    dc = double_cosets(S3, S3, S3)
    assert len(dc.representatives) == 1
    assert dc.sizes == (6,)


def test_double_cosets_s3_c2():
    dc = double_cosets(S3, C2, C2)
    assert sorted(dc.sizes) == [2, 4]
    assert len(dc.representatives) == 2


def test_double_cosets_trivial_left():
    E = S3.subgroup(frozenset({S3.identity}), name="1")
    dc = double_cosets(S3, E, C2)
    assert len(dc.representatives) == 3  # right cosets G/K... K\\G count
    assert all(s == 2 for s in dc.sizes)


def test_double_cosets_battery_cross_check():
    for gname in ("S3", "D4", "Q8"):
        G = presets.group(gname)
        for H_el in G.subgroups_up_to_conjugacy():
            H = G.subgroup(H_el)
            for K_el in G.subgroups_up_to_conjugacy():
                K = G.subgroup(K_el)
                dc = double_cosets(G, H, K)  # raises on any mismatch
                # the kept index sends every element to the least element
                # of its double coset
                assert dc.rep_of == {g: _orbit_min(G, H, K, g)
                                     for g in G.elements}
                assert set(dc.rep_of.values()) == set(dc.representatives)


def _orbit_min(G, H, K, g):
    return min({G.mul(G.mul(h, g), k) for h in H.elements
                for k in K.elements}, key=okey)


def test_cross_check_catches_anchors_composed_in_the_wrong_order(
        monkeypatch):
    # the planted rule moves anchor m to c∘a_1(u) with c = m∘a_0(u_0)^-1,
    # not a_1(u)∘c: over S3 the components of */C2 x */C2 change
    original = RelProduct.arrows_out

    def anchors_reversed(rp, o):
        S, (_, a0), rest = rp.S, rp.factors[0], rp.factors[1:]
        out = []
        for m, (ys, _), (_, vs) in original(rp, o):
            us = m[1]
            back = S.inverse[a0.mor[us[0]]]
            o2 = (ys, tuple(S.compose(S.compose(mi, back), a.mor[u])
                            for mi, (_, a), u in zip(o[1], rest, us[1:])))
            out.append((m, o2, (o2, vs)))
        return out

    double_cosets(S3, C2, C2)
    monkeypatch.setattr(RelProduct, "arrows_out", anchors_reversed)
    with pytest.raises(TheoremViolation, match="component count"):
        double_cosets(S3, C2, C2)


def test_dangling_arrow_in_the_fiber_product_raises(monkeypatch):
    original = RelProduct.arrows_out

    def dangling(rp, o):
        return [(m, ("nowhere", o2), inv) for m, o2, inv in original(rp, o)]

    monkeypatch.setattr(RelProduct, "arrows_out", dangling)
    # raised from the arrows the sweep reads, as when the groupoid is built
    with pytest.raises(StructureError, match="dangling endpoint"):
        double_cosets(S3, C2, C2)
    incl = delooping_hom({k: k for k in C2.elements}, delooping(C2),
                         delooping(S3))
    with pytest.raises(StructureError, match="dangling endpoint"):
        iso_comma_pullback(incl, incl).grpd


def test_double_coset_sweep_leaves_the_fiber_product_unbuilt(monkeypatch):
    # */S4 x_{*/S4} */S4 has 24 objects and 13,824 morphisms; the sweep
    # reads it from the arrows out of its one representative, so no
    # groupoid larger than a delooping of S4 is built
    S4 = presets.group("S4")
    sizes = []
    original = FiniteGroupoid.__init__

    def recording(self, *args, **kwargs):
        original(self, *args, **kwargs)
        sizes.append((len(self.objects), len(self.morphisms)))

    monkeypatch.setattr(FiniteGroupoid, "__init__", recording)
    dc = double_cosets(S4, S4, S4)
    assert dc.sizes == (24,) and dc.stabilizer_orders == (24,)
    assert all(n <= len(S4) and m <= len(S4) for n, m in sizes), sizes


def test_compact_induction_dimensions():
    triv = unit_sheaf(delooping(C2), QQ)
    ind = compact_induction(S3, C2, triv)
    assert ind.sheaf.dim[ind.sheaf.base.objects[0]] == 3
    assert ind.comparison.is_invertible()
    # K = G: induction is the identity
    full = compact_induction(S3, S3, unit_sheaf(delooping(S3), QQ))
    assert full.sheaf.dim[full.sheaf.base.objects[0]] == 1


def test_compact_induction_regular():
    # inducing the regular representation of K gives the regular rep of G
    BK = delooping(C2)
    obK = BK.objects[0]
    idx = {g: i for i, g in enumerate(C2.elements)}
    mats = {}
    for g in C2.elements:
        rows = [[QQ.zero] * 2 for _ in range(2)]
        for h in C2.elements:
            rows[idx[C2.mul(g, h)]][idx[h]] = QQ.one
        mats[g] = Matrix(QQ, rows)
    regK = Sheaf(BK, QQ, {obK: 2}, mats)
    ind = compact_induction(S3, C2, regK)
    assert ind.sheaf.dim[ind.sheaf.base.objects[0]] == 6
    # End of the regular rep has dimension |G|
    assert hom_dim(ind.sheaf, ind.sheaf) == 6


def test_compact_induction_gate():
    with pytest.raises(GateError):
        compact_induction(S3, C2, unit_sheaf(delooping(C2), GF(3)))


def test_hecke_algebra_s3_c2():
    alg = HeckeAlgebra(S3, C2, unit_sheaf(delooping(C2), QQ))
    assert alg.dim == 2
    sc = alg.structure_constants()
    # identify T_e (identity) and T_w on the function basis
    ident = alg.identity_coords
    e_idx = max(range(2), key=lambda i: abs(ident[i]) if ident[i] else 0)
    # find which basis element is supported on the identity coset
    supp = []
    for F in alg.function_basis:
        nonzero = [g for g, m in F.values.items() if not m.is_zero()]
        supp.append(len(nonzero))
    te = supp.index(2)   # identity double coset has size |K| = 2
    tw = 1 - te
    # T_w^2 = 2 T_e + T_w
    coords = sc[tw][tw]
    assert coords[te] == QQ.of(2)
    assert coords[tw] == QQ.of(1)


def test_hecke_algebra_evaluates_each_basis_image_once(monkeypatch):
    # dim images for the comparison matrix, shared with the
    # multiplicativity check, which still evaluates and convolves every
    # one of the dim^2 products: 6 + 36 evaluations for S3/1
    calls = {"to_function": 0, "convolve": 0}
    for name in calls:
        original = getattr(HeckeAlgebra, name)

        def counting(self, *args, _name=name, _original=original):
            calls[_name] += 1
            return _original(self, *args)

        monkeypatch.setattr(HeckeAlgebra, name, counting)
    E = S3.subgroup(frozenset({S3.identity}), name="1")
    alg = HeckeAlgebra(S3, E, unit_sheaf(delooping(E), QQ))
    assert alg.dim == 6
    assert calls == {"to_function": 42, "convolve": 36}


def test_hecke_algebra_trivial_cases():
    alg = HeckeAlgebra(S3, S3, unit_sheaf(delooping(S3), QQ))
    assert alg.dim == 1
    E = S3.subgroup(frozenset({S3.identity}), name="1")
    algE = HeckeAlgebra(S3, E, unit_sheaf(delooping(E), QQ))
    # End_G(k[G]) = k[G]: dimension |G|
    assert algE.dim == 6


def test_coset_of_factors_every_element():
    S4 = presets.group("S4")
    K = S4.subgroup(S4.generated_subgroup([(1, 0, 2, 3), (0, 1, 3, 2)]))
    ind = compact_induction(S4, K, unit_sheaf(delooping(K), QQ))
    for g in S4.elements:
        j, k = ind.coset_of(g)
        assert k in K.elements and S4.mul(k, ind.reps[j]) == g


def test_to_function_on_a_rank_two_weight():
    """The regular representation of C2 as weight: the unit goes to the
    unit, and the evaluation map is multiplicative."""
    BK = delooping(C2)
    swap = Matrix.from_int_rows(QQ, [[0, 1], [1, 0]])
    V = Sheaf(BK, QQ, {BK.objects[0]: 2},
              {k: swap if k != C2.identity else Matrix.identity(QQ, 2)
               for k in C2.elements})
    alg = HeckeAlgebra(S3, C2, V)
    one = identity_morphism(alg.induced.sheaf)
    assert alg.to_function(one) == alg.function_identity()
    T1, T2 = alg.end_basis[0], alg.end_basis[-1]
    assert alg.to_function(T2.then(T1)) == alg.convolve(
        alg.to_function(T1), alg.to_function(T2))


def test_anti_involution_s3_c2():
    alg = HeckeAlgebra(S3, C2, unit_sheaf(delooping(C2), QQ))
    iota, cert = anti_involution(alg)
    assert cert.anti_multiplicative
    assert cert.involutive
    # the nontrivial double coset of (S3, C2) is inversion stable
    for w, wrep in cert.coset_swap.items():
        assert wrep == w
    for F in alg.function_basis:
        assert iota(iota(F)) == F


def test_coset_swap_moves_the_cosets_of_c3():
    # with K trivial every double coset is a point, and in C3 inversion
    # exchanges the two non-identity points: K w K != K w^-1 K
    C3 = presets.group("C3")
    E = C3.subgroup(frozenset({C3.identity}), name="1")
    alg = HeckeAlgebra(C3, E, unit_sheaf(delooping(E), QQ))
    _, cert = anti_involution(alg)
    assert cert.coset_swap == {w: _orbit_min(C3, E, E, C3.inv(w))
                               for w in alg.dc.representatives}
    assert sum(w != wrep for w, wrep in cert.coset_swap.items()) == 2


def test_anti_involution_identity_element():
    alg = HeckeAlgebra(S3, C2, unit_sheaf(delooping(C2), QQ))
    iota, _ = anti_involution(alg)
    e = alg.function_identity()
    assert iota(e) == e


def test_anti_involution_abelian_inversion():
    C4 = presets.group("C4")
    C2sub = C4.subgroup(C4.generated_subgroup([2]), name="C2")
    alg = HeckeAlgebra(C4, C2sub, unit_sheaf(delooping(C2sub), QQ))
    assert alg.dim == 2
    iota, cert = anti_involution(alg)
    assert cert.anti_multiplicative and cert.involutive
    # inversion permutes the cosets (here: fixes them, since w = -w mod K)
    for w, wrep in cert.coset_swap.items():
        orbit = {C4.mul(C4.mul(k, w), kp) for k in C2sub.elements
                 for kp in C2sub.elements}
        assert wrep in orbit or wrep == min(
            {C4.mul(C4.mul(k, C4.inv(w)), kp) for k in C2sub.elements
             for kp in C2sub.elements}, key=okey)


def test_dual_weight_transport():
    alg = HeckeAlgebra(S3, C2, unit_sheaf(delooping(C2), QQ))
    to_dual = dual_weight_transport(alg)
    F = alg.function_basis[0]
    G2 = to_dual(to_dual(F))
    assert G2 == F


def test_frobenius_check():
    BK = delooping(C2)
    BG = delooping(S3)
    triv_k = unit_sheaf(BK, QQ)
    triv_g = unit_sheaf(BG, QQ)
    ok, lhs, rhs = frobenius_check(S3, C2, triv_k, triv_g)
    assert ok and lhs == rhs == 1
    # W = cInd V: both sides equal the Hecke algebra dimension
    ind = compact_induction(S3, C2, triv_k)
    ok2, lhs2, rhs2 = frobenius_check(S3, C2, triv_k, ind.sheaf)
    assert ok2 and lhs2 == 2


def test_frobenius_std_rep():
    # dim Hom(cInd 1, std) = 1 = dim Hom(1, Res std)
    BG = delooping(S3)
    ob = BG.objects[0]

    def std_mat(g):
        cols = []
        for (a, b) in ((0, 1), (1, 2)):
            img = {g[a]: 1, g[b]: -1}
            vec = [img.get(i, 0) for i in range(3)]
            cols.append([vec[0], -vec[2]])
        return Matrix.from_int_rows(QQ, list(map(list, zip(*cols))))

    std = Sheaf(BG, QQ, {ob: 2}, {g: std_mat(g) for g in S3.elements})
    triv_k = unit_sheaf(delooping(C2), QQ)
    ok, lhs, rhs = frobenius_check(S3, C2, triv_k, std)
    assert ok and lhs == 1


def test_prim_duality_on_hecke_trivial():
    cert = prim_duality_on_hecke(S3, S3, QQ)
    assert cert.prim_ok and cert.dual_matches_induction
    assert cert.anti_automorphism_ok and cert.agrees_with_iota
    assert cert.algebra_dim == 1


def test_prim_duality_on_hecke_s3_c2():
    cert = prim_duality_on_hecke(S3, C2, QQ)
    assert cert.prim_ok and cert.dual_matches_induction
    assert cert.anti_automorphism_ok
    assert cert.agrees_with_iota
    assert cert.algebra_dim == 2


def test_prim_duality_on_hecke_c4_c2():
    C4 = presets.group("C4")
    C2sub = C4.subgroup(C4.generated_subgroup([2]), name="C2")
    cert = prim_duality_on_hecke(C4, C2sub, QQ)
    assert cert.prim_ok and cert.agrees_with_iota
    assert cert.algebra_dim == 2


def test_prim_duality_tests_the_point_map_of_its_base(monkeypatch):
    # the prim test runs on P.base.to_point, the map that `hom_space` on
    # the same base pushes along, so both share its fibers
    seen = []

    def recording(f, P, **kwargs):
        seen.append((f, P))
        return SimpleNamespace(ok=False)

    monkeypatch.setattr(hecke, "prim_test", recording)
    cert = prim_duality_on_hecke(S3, C2, QQ)
    assert not cert.prim_ok
    (f, P), = seen
    assert f is P.base.to_point


def test_prim_duality_runs_compact_induction_once(monkeypatch):
    # the prim test reads the algebra's own induced sheaf
    runs = []
    original = hecke.compact_induction

    def counting(*args):
        runs.append(args)
        return original(*args)

    monkeypatch.setattr(hecke, "compact_induction", counting)
    cert = prim_duality_on_hecke(S3, C2, QQ)
    assert cert.agrees_with_iota and cert.algebra_dim == 2
    assert len(runs) == 1


# -- reference: one stack and one solve per function -----------------------

def _reference_coordinates(alg, F):
    """F's coordinates in the double-coset basis, by its own solve: the
    basis functions flattened one column each, stacked, then solved."""
    field = alg.field
    order = sorted(alg.G.elements, key=okey)
    cols = []
    for b in alg.function_basis:
        entries = []
        for g in order:
            for row in b.values[g].rows:
                entries.extend(row)
        cols.append(Matrix.column(field, entries))
    target = []
    for g in order:
        for row in F.values[g].rows:
            target.extend(row)
    mat = stack_columns(field, cols, len(target))
    sol = mat.solve(Matrix.column(field, target))
    assert sol is not None
    return [sol.rows[i][0] for i in range(len(cols))]


def _reference_to_function(alg, T):
    """Phi(T), evaluated on the generators [1, e_b] one unit vector e_b at
    a time."""
    G, V, field = alg.G, alg.V, alg.field
    d = V.dim[V.base.objects[0]]
    reps = alg.induced.reps
    mat = T.comp[alg.obG]
    j0, k0 = alg.induced.coset_of(G.identity)
    rho_g0 = V.mat[k0]
    images = []
    for b in range(d):
        vcol = Matrix.column(field, [field.one if i == b else field.zero
                                     for i in range(d)])
        coeff = rho_g0 * vcol
        vec = [field.zero] * (len(reps) * d)
        for i in range(d):
            vec[j0 * d + i] = coeff.rows[i][0]
        images.append(mat * Matrix.column(field, vec))
    values = {}
    for g in G.elements:
        j, k = alg.induced.coset_of(g)
        out_cols = []
        for image in images:
            block = [image.rows[j * d + i][0] for i in range(d)]
            valcol = V.mat[k] * Matrix.column(field, block)
            out_cols.append([valcol.rows[i][0] for i in range(d)])
        values[g] = Matrix(field, list(map(list, zip(*out_cols))), ncols=d)
    return hecke.HeckeFunction(values)


def _same_entries(got, ref):
    """Equal values that also print alike, as the reports print them."""
    assert got == ref
    assert [str(c) for c in got] == [str(c) for c in ref]


_C3 = presets.group("C3")


@pytest.mark.parametrize("G, gen, field", [
    (S3, (1, 0, 2), QQ), (S3, (1, 2, 0), QQ), (_C3, None, QQ),
    (S3, (1, 0, 2), GF(7)), (S3, None, QQ),
], ids=["S3-C2-QQ", "S3-C3-QQ", "C3-1-QQ", "S3-C2-GF7", "S3-1-QQ"])
def test_batched_coordinates_match_the_per_function_solve(G, gen, field):
    """The benchmark's four transport cases, and k[S3], whose product does
    not commute: the structure constants, the comparison matrix and the
    unit's coordinates, each from one solve, are the per-function solves'
    entry by entry."""
    K_el = [G.identity] if gen is None else G.generated_subgroup([gen])
    K = G.subgroup(K_el)
    alg = HeckeAlgebra(G, K, unit_sheaf(delooping(K), field))
    basis = alg.function_basis
    sc = alg.structure_constants()
    assert len(sc) == alg.dim
    for i, F1 in enumerate(basis):
        assert len(sc[i]) == alg.dim
        for j, F2 in enumerate(basis):
            _same_entries(sc[i][j],
                          _reference_coordinates(alg, alg.convolve(F1, F2)))
    phi = alg.phi_matrix
    assert phi.shape == (alg.dim, alg.dim)
    for j, T in enumerate(alg.end_basis):
        assert alg.to_function(T) == _reference_to_function(alg, T)
        ref = _reference_coordinates(alg, _reference_to_function(alg, T))
        _same_entries([phi.entry(i, j) for i in range(alg.dim)], ref)
    _same_entries(alg.identity_coords,
                  _reference_coordinates(alg, alg.function_identity()))


def test_to_function_matches_the_unit_vector_reference_on_rank_two():
    """A rank-two weight (the regular representation of C2), where each
    value of Phi(T) has two columns."""
    BK = delooping(C2)
    swap = Matrix.from_int_rows(QQ, [[0, 1], [1, 0]])
    V = Sheaf(BK, QQ, {BK.objects[0]: 2},
              {k: swap if k != C2.identity else Matrix.identity(QQ, 2)
               for k in C2.elements})
    alg = HeckeAlgebra(S3, C2, V)
    assert alg.dim > 1
    for T in alg.end_basis:
        assert alg.to_function(T) == _reference_to_function(alg, T)


def _counting_cases():
    """(G, K, field) for the counting oracle: every proper subgroup class
    of S3 over Q and F5, of D4 and Q8 over Q and F3, and two subgroups of
    S4 over Q."""
    cases = []
    for gname, fields in (("S3", (QQ, GF(5))), ("D4", (QQ, GF(3))),
                          ("Q8", (QQ, GF(3)))):
        G = presets.group(gname)
        for K_el in G.subgroups_up_to_conjugacy():
            if len(K_el) < len(G):
                cases += [(G, G.subgroup(K_el), field) for field in fields]
    S4 = presets.group("S4")
    for gens in ([(1, 2, 0, 3), (0, 2, 3, 1)], [(1, 2, 3, 0), (3, 2, 1, 0)]):
        cases.append((S4, S4.subgroup(S4.generated_subgroup(gens)), QQ))
    return cases


_COUNTING_CASES = _counting_cases()


@pytest.mark.parametrize(
    "G, K, field", _COUNTING_CASES,
    ids=["%s-%d-%d-%s" % (G.name, len(K), i, field)
         for i, (G, K, field) in enumerate(_COUNTING_CASES)])
def test_trivial_weight_structure_constants_count_double_cosets(G, K,
                                                                field):
    """With the trivial weight, T_a is the indicator of KaK, and
    c_{a,b}^c = #{x in KaK : x^-1 c in KbK} / |K|, which group
    multiplication alone computes.  The anti-involution sends T_a to the
    indicator of Ka^-1K, the unit vector at that double coset."""
    alg = HeckeAlgebra(G, K, unit_sheaf(delooping(K), field))
    reps = alg.dc.representatives
    cosets = [frozenset(G.mul(G.mul(k, w), kp) for k in K.elements
                        for kp in K.elements) for w in reps]
    assert len(alg.function_basis) == len(reps)
    one = Matrix.identity(field, 1)
    zero = Matrix.zero(field, 1, 1)
    for F, D in zip(alg.function_basis, cosets):
        assert F.values == {g: one if g in D else zero for g in G.elements}
    sc = alg.structure_constants()
    for a, A in enumerate(cosets):
        for b, B in enumerate(cosets):
            counted = [sum(G.mul(G.inv(x), c) in B for x in A)
                       for c in reps]
            assert all(n % len(K) == 0 for n in counted)
            assert sc[a][b] == [field.of(n // len(K)) for n in counted]
    iota, _ = anti_involution(alg)
    for F, w in zip(alg.function_basis, reps):
        target = next(i for i, D in enumerate(cosets) if G.inv(w) in D)
        assert alg.function_coordinates(iota(F)) == [
            field.one if i == target else field.zero
            for i in range(len(reps))]


_S4_D4_UNDER_ONE_GIB = """
import dataclasses, json, resource
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
from sixff import presets
from sixff.fields import QQ
from sixff.hecke import prim_duality_on_hecke
G = presets.group("S4")
K = G.subgroup(G.generated_subgroup([(1, 2, 3, 0), (3, 2, 1, 0)]), name="D4")
print(json.dumps(dataclasses.asdict(prim_duality_on_hecke(G, K, QQ))))
"""


def test_s4_d4_prim_duality_certifies_within_one_gib():
    # the limit is set in a child process of its own, on its address space
    # only; dense Kan-extension matrices ran out of memory here
    src = str(Path(hecke.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", _S4_D4_UNDER_ONE_GIB],
                          capture_output=True, text=True, env=env,
                          timeout=600)
    assert proc.returncode == 0, proc.stderr[-2000:]
    cert = json.loads(proc.stdout.splitlines()[-1])
    assert cert == {"prim_ok": True, "dual_matches_induction": True,
                    "anti_automorphism_ok": True, "agrees_with_iota": True,
                    "algebra_dim": 2}
