"""Planted defects: each entry of a fixed catalogue breaks one step of the
code with a monkeypatch, and names the `sixff run` check that must then
fail, at seed 0 and seed 1.  Only that check's suite runs; every check
draws from its own `Random("<seed>/<check_id>")` stream, so what it draws
does not depend on what else runs.  That also lets the unpatched status of
a (check, seed) be computed once for the whole catalogue."""

import pytest

from sixff import sheaves, suite
from sixff.linalg import Matrix, stack_rows
from sixff.suite import CHECKS, SuiteConfig, run_suite


def _lan_blocks_with_p_for_p_inverse(self, M, data, xi):
    """`LanFunctor._blocks` transporting by M(p) where M(p⁻¹) belongs."""
    X = self.f.cod
    fiber, comps2 = self.fibers[X.dst[xi]], data[X.dst[xi]]
    placed = {}
    for c, (iota, _, _, (y_c, m_c)) in enumerate(data[X.src[xi]]):
        r, p = fiber.locate[(y_c, X.compose(xi, m_c))]
        placed[(r, c)] = comps2[r][2] * M.left_times(p, iota)
    return placed


def _ran_blocks_with_p_inverse_for_p(self, M, data, xi):
    """`RanFunctor._blocks` transporting by M(p⁻¹) where M(p) belongs."""
    X, inv = self.f.cod, self.f.dom.inverse
    fiber, comps = self.fibers[X.src[xi]], data[X.src[xi]]
    placed = {}
    for c2, (_, _, leg, (y2, m2)) in enumerate(data[X.dst[xi]]):
        r, p = fiber.locate[(y2, X.compose(m2, xi))]
        placed[(c2, r)] = M.right_times(leg, inv[p]) * comps[r][0]
    return placed


def _unit_leg_uninverted(self, M):
    """`LanAdjunction.unit` with the cocone leg at (y, id) transported by
    M(p) where M(p⁻¹) belongs."""
    lan, fld, inv = self.left, M.field, self.left.f.dom.inverse
    data = lan._data(M)
    comp = dict.fromkeys(lan.f.dom.objects)
    for x, fiber in lan.fibers.items():
        widths = [c[0].ncols for c in data[x]]
        for y, r, p_inv in fiber.unit:
            d, leg = M.dim[y], data[x][r][2]
            if p_inv is not None:
                leg = leg * M.mat[inv[p_inv]]
            comp[y] = stack_rows(fld, [
                Matrix.zero(fld, sum(widths[:r]), d), leg,
                Matrix.zero(fld, sum(widths[r + 1:]), d)], d)
    return sheaves.SheafMorphism(M, self.right.obj(lan.obj(M)), comp)


_INVARIANT_DATA = sheaves._invariant_data.__wrapped__   # uncached


def _invariant_data_without_one_over_n(field, d, mats, averaging):
    """`sheaves._invariant_data` with leg = pi∘(sum of the automorphisms):
    the averaging idempotent without its 1/n."""
    iota, pi, _ = _INVARIANT_DATA(field, d, mats, False)
    if not averaging:
        return iota, pi, pi
    total = Matrix.identity(field, d)
    for a in mats:
        total = total + a
    return iota, pi, pi * total


def _projection_formula_cell_with_swapped_tensor(f, W, V, side):
    """`sheaves._projection_formula_cell` tensoring the unit and the
    identity in swapped order, eta ⊗ id where id ⊗ eta belongs (and the
    mirror on the right), relabelled to the intended source and target."""
    adj = sheaves.adj_lan_pullback(f)
    lan = adj.left
    ident, eta = sheaves.identity_morphism(adj.right.obj(W)), adj.unit(V)
    FV = lan.obj(V)
    if side == "left":
        (a, b), out = (ident, eta), sheaves.tensor(W, FV)
    else:
        (a, b), out = (eta, ident), sheaves.tensor(FV, W)
    inner = sheaves.SheafMorphism(
        sheaves.tensor(a.src, b.src), sheaves.tensor(a.dst, b.dst),
        sheaves.tensor_morphisms(b, a).comp)
    return lan.mor(inner).then(adj.counit(out))


def _doubled(cell):
    """The sheaf morphism 2·cell."""
    two = cell.src.field.of(2)
    return sheaves.SheafMorphism(cell.src, cell.dst, {
        x: m.scale(two) for x, m in cell.comp.items()})


def _adjunct_doubled(self, A, cell):
    """`Adjunction.adjunct` returning 2·R(cell)∘η_A."""
    return _doubled(self.unit(A).then(self.right.mor(cell)))


def _coadjunct_doubled(self, cell, B):
    """`Adjunction.coadjunct` returning 2·ε_B∘L(cell): it doubles every
    coadjunct but those of (f_! ⊣ f*), among them the counit of the
    ambidextrous adjunction and the left triangle of (f* ⊣ f_*)."""
    return _doubled(self.left.mor(cell).then(self.counit(B)))


_LAN_MOR = sheaves._KanExtension.mor
_LAN_COADJUNCT = sheaves.LanAdjunction.coadjunct
_COMPOSE_COMPARISON_LAN = sheaves.compose_comparison_lan


def _lan_mor_doubled(self, phi):
    """`LanFunctor.mor` returning 2·f_!(phi): it doubles base change, which
    stays natural and invertible, and no coadjunct, read off the legs,
    sees it."""
    return _doubled(_LAN_MOR(self, phi))


def _lan_coadjunct_doubled(self, cell, B):
    """`LanAdjunction.coadjunct` returning twice the map read off the
    legs: it doubles the counit of (f_! ⊣ f*), the projection formulas
    and the Lan composition and identity comparisons."""
    return _doubled(_LAN_COADJUNCT(self, cell, B))


def _compose_comparison_lan_doubled(g, f, M):
    """`compose_comparison_lan` returning 2·c_{g,f}: natural, invertible
    and still a cocycle, since the cocycle law is homogeneous."""
    return _doubled(_COMPOSE_COMPARISON_LAN(g, f, M))


# (name, owner, attribute, replacement, the check that must fail)
CATALOGUE = [
    ("lan-blocks-p-for-p-inverse", sheaves.LanFunctor, "_blocks",
     _lan_blocks_with_p_for_p_inverse, "sheaf.base-change-projection"),
    ("ran-blocks-p-inverse-for-p", sheaves.RanFunctor, "_blocks",
     _ran_blocks_with_p_inverse_for_p, "sheaf.base-change-projection"),
    ("averaging-without-one-over-n", sheaves, "_invariant_data",
     _invariant_data_without_one_over_n, "sheaf.base-change-projection"),
    ("projection-tensor-swapped", sheaves, "_projection_formula_cell",
     _projection_formula_cell_with_swapped_tensor,
     "sheaf.base-change-projection"),
    ("coadjunct-doubled", sheaves.Adjunction, "coadjunct",
     _coadjunct_doubled, "sheaf.base-change-projection"),
    ("adjunct-doubled", sheaves.Adjunction, "adjunct", _adjunct_doubled,
     "hecke.algebra"),
    ("lan-mor-doubled", sheaves.LanFunctor, "mor", _lan_mor_doubled,
     "sheaf.base-change-projection"),
    ("lan-coadjunct-doubled", sheaves.LanAdjunction, "coadjunct",
     _lan_coadjunct_doubled, "sheaf.base-change-projection"),
    ("unit-leg-uninverted", sheaves.LanAdjunction, "unit",
     _unit_leg_uninverted, "sheaf.base-change-projection"),
    # patched where the check looks the name up
    ("compose-comparison-lan-doubled", suite, "compose_comparison_lan",
     _compose_comparison_lan_doubled, "sheaf.base-change-projection"),
]

_SUITE_OF = {check_id: name for check_id, _, name, _ in CHECKS}


def _status(check_id, seed):
    report = run_suite(SuiteConfig(suites=(_SUITE_OF[check_id],), seed=seed))
    return {r.check_id: r.status for r in report.results}[check_id]


@pytest.fixture(scope="module")
def unpatched_status():
    """`_status` with no defect planted, run once per (check_id, seed)."""
    seen = {}

    def status(check_id, seed):
        if (check_id, seed) not in seen:
            seen[(check_id, seed)] = _status(check_id, seed)
        return seen[(check_id, seed)]
    return status


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name, owner, attr, defect, check_id", CATALOGUE,
                         ids=[entry[0] for entry in CATALOGUE])
def test_planted_defect_fails_its_check(name, owner, attr, defect, check_id,
                                        seed, unpatched_status, monkeypatch):
    assert unpatched_status(check_id, seed) == "pass"
    monkeypatch.setattr(owner, attr, defect)
    assert _status(check_id, seed) == "fail"
