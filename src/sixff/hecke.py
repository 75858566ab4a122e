"""Compact induction, double cosets, and Hecke algebras of finite groups
with the canonical anti-involution.

The Hecke algebra of (G, K, V) is computed twice: as the endomorphism
algebra of the induced representation (model A, by solving the intertwiner
system), and as the convolution algebra of bi-equivariant functions
supported on double cosets (model B); the explicit function-evaluation map
is certified to be an algebra isomorphism between them.  The anti-
involution T(g) -> T(g^{-1})^* is verified to be an involutive anti-
automorphism and cross-checked against the transport of endomorphisms
through the adjunction produced by the primness certificate of the induced
object (the mate construction), which must agree with it on the double
coset basis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .fields import GateError
from .groupoid import (
    delooping, delooping_hom, iso_comma_pullback, okey, pi0_and_aut,
)
from .groups import FiniteGroup
from .kernels import prim_test
from .linalg import Matrix, coordinates, stack_rows
from .sheaves import (
    LanFunctor, PullbackFunctor, Sheaf, SheafMorphism, TheoremViolation,
    find_isomorphism, hom_dim, hom_space, unit_sheaf,
)


# ---------------------------------------------------------------------------
# Double cosets
# ---------------------------------------------------------------------------

@dataclass
class DoubleCosets:
    group: FiniteGroup
    left: FiniteGroup
    right: FiniteGroup
    representatives: tuple     # minimal under the element order
    sizes: tuple
    stabilizer_orders: tuple   # |H ∩ w K w^{-1}| per representative
    rep_of: dict               # element g -> representative of HgK


def double_cosets(G, H, K):
    """Orbits HgK with minimal representatives; sizes sum to |G|.  The
    component count and automorphism orders of */H x_{*/G} */K are matched
    against the brute-force decomposition."""
    for sub in (H, K):
        if not G.is_subgroup(sub.elements):
            raise TheoremViolation("not a subgroup of the ambient group")
    rep_of = {}
    reps, sizes, stabs = [], [], []
    for g in G.elements:
        if g in rep_of:
            continue
        orbit = {G.mul(G.mul(h, g), k) for h in H.elements
                 for k in K.elements}
        w = min(orbit, key=okey)
        rep_of.update(dict.fromkeys(orbit, w))
        reps.append(w)
        sizes.append(len(orbit))
        conj = {G.mul(G.mul(w, k), G.inv(w)) for k in K.elements}
        stabs.append(len(set(H.elements) & conj))
    if sum(sizes) != len(G.elements):
        raise TheoremViolation("double coset sizes do not sum to |G|")
    out = DoubleCosets(G, H, K, tuple(reps), tuple(sizes), tuple(stabs),
                       rep_of)
    _cross_check_against_fiber_product(out)
    return out


def _cross_check_against_fiber_product(dc):
    G, H, K = dc.group, dc.left, dc.right
    BG, BH, BK = delooping(G), delooping(H), delooping(K)
    iH = delooping_hom({h: h for h in H.elements}, BH, BG)
    iK = delooping_hom({k: k for k in K.elements}, BK, BG)
    # read from the arrows out of each representative: the product's
    # groupoid is never built
    comps = pi0_and_aut(iso_comma_pullback(iH, iK))
    if len(comps) != len(dc.representatives):
        raise TheoremViolation(
            "fiber product component count %d != double coset count %d"
            % (len(comps), len(dc.representatives)))
    # component containing ((•,•),(m,)) corresponds to the double coset
    # of m^{-1}
    expected = dict(zip(dc.representatives, dc.stabilizer_orders))
    for rep_obj, auts, _table in comps:
        w = dc.rep_of.get(G.inv(rep_obj[1][0]))
        if w not in expected:
            raise TheoremViolation("component does not match any double coset")
        if len(auts) != expected[w]:
            raise TheoremViolation(
                "automorphism order %d != stabilizer order %d"
                % (len(auts), expected[w]))


# ---------------------------------------------------------------------------
# Compact induction
# ---------------------------------------------------------------------------

def right_coset_reps(G, K):
    """Representatives of K\\G, minimal under the element order."""
    seen = set()
    reps = []
    for g in G.elements:
        if g in seen:
            continue
        coset = {G.mul(k, g) for k in K.elements}
        seen |= coset
        reps.append(min(coset, key=okey))
    return reps


@dataclass
class InducedModel:
    group: FiniteGroup
    subgroup: FiniteGroup
    weight: Sheaf
    reps: tuple          # right coset representatives
    sheaf: Sheaf         # the function-space model on */G
    comparison: SheafMorphism   # invertible intertwiner to the Lan model

    def coset_of(self, g):
        """(j, k) with g = k reps[j] and k in K."""
        G = self.group
        for j, r in enumerate(self.reps):
            k = G.mul(g, G.inv(r))
            if k in self._kset:
                return j, k
        raise KeyError(g)

    @cached_property
    def _kset(self):
        return frozenset(self.subgroup.elements)


def compact_induction(G, K, V):
    """Function-space model of the induced sheaf on */G: functions
    f: G -> V with f(kg) = k f(g), acted on by right translation, with a
    certified isomorphism to the exceptional pushforward."""
    field = V.field
    if field.characteristic and len(G.elements) % field.characteristic == 0:
        raise GateError("characteristic divides the group order")
    BK = V.base
    obK = BK.objects[0]
    d = V.dim[obK]
    reps = right_coset_reps(G, K)
    n = len(reps)
    BG = delooping(G)
    obG = BG.objects[0]

    mats = {}
    kset = set(K.elements)
    for x in BG.presentation.generators:
        placed = {}
        for i, gi in enumerate(reps):
            for j, gj in enumerate(reps):
                k = G.mul(gj, G.mul(x, G.inv(gi)))
                if k in kset:
                    placed[(j, i)] = V.mat[k]
                    break
        mats[x] = Matrix.block(field, [d] * n, [d] * n, placed)
    sheaf = Sheaf(BG, field, {obG: n * d}, mats)
    bad = sheaf.validate()
    if bad:
        raise TheoremViolation("induced model not a sheaf: %s" % bad[0])
    incl = delooping_hom({k: k for k in K.elements}, BK, BG)
    lan_model = LanFunctor(incl).obj(V)
    cmp_iso = find_isomorphism(lan_model, sheaf)
    if cmp_iso is None:
        raise TheoremViolation("no intertwiner to the Lan model")
    return InducedModel(G, K, V, tuple(reps), sheaf, cmp_iso)


# ---------------------------------------------------------------------------
# Hecke algebras: two models and the agreement certificate
# ---------------------------------------------------------------------------

@dataclass
class HeckeFunction:
    """A bi-equivariant function G -> End(V), stored on all of G."""
    values: dict         # g -> Matrix

    def __eq__(self, other):
        return self.values == other.values


class HeckeAlgebra:
    """Both models of End_G(cInd_K^G V) with structure constants."""

    def __init__(self, G, K, V):
        self.G, self.K, self.V, self.field = G, K, V, V.field
        self.induced = compact_induction(G, K, V)
        self.dc = double_cosets(G, K, K)
        # model A: endomorphisms of the induced sheaf
        self.end_basis = hom_space(self.induced.sheaf, self.induced.sheaf)
        self.dim = len(self.end_basis)
        obG = self.induced.sheaf.base.objects[0]
        self.obG = obG
        # model B: bi-equivariant functions supported on double cosets
        self.function_basis = self._function_basis()
        if len(self.function_basis) != self.dim:
            raise TheoremViolation("model dimensions disagree")
        images = [self.to_function(T) for T in self.end_basis]
        self.phi_matrix = self._phi_matrix(images)
        if not self.phi_matrix.is_invertible():
            raise TheoremViolation("model comparison not invertible")
        self._check_phi_multiplicative(images)
        self.identity_coords = self.function_coordinates(
            self.function_identity())

    # -- model B -------------------------------------------------------------

    def _function_basis(self):
        G, K, V, field = self.G, self.K, self.V, self.field
        d = V.dim[V.base.objects[0]]
        out = []
        kset = list(K.elements)
        for w in self.dc.representatives:
            # T(w) must satisfy rho(k) T(w) rho(k') = T(w) when k w k' = w
            rows = []
            for k in kset:
                for kp in kset:
                    if G.mul(G.mul(k, w), kp) != w:
                        continue
                    lhs = V.mat[k].kron(V.mat[kp].transpose())
                    rows.append(lhs - Matrix.identity(field, d * d))
            for vec in stack_rows(field, rows, d * d).nullspace():
                Tw = Matrix.from_entries(field, vec.entries(), d, d)
                out.append(self._extend_function(w, Tw))
        return out

    def _extend_function(self, w, Tw):
        G, K, V, field = self.G, self.K, self.V, self.field
        d = Tw.nrows
        values = {g: Matrix.zero(field, d, d) for g in G.elements}
        for k in K.elements:
            for kp in K.elements:
                g = G.mul(G.mul(k, w), kp)
                values[g] = V.mat[k] * Tw * V.mat[kp]
        return HeckeFunction(values)

    def convolve(self, F1, F2):
        """(F1 * F2)(g) = sum over right cosets Ky of F1(g y^{-1}) F2(y)."""
        G, field = self.G, self.field
        d = self.V.dim[self.V.base.objects[0]]
        values = {}
        for g in G.elements:
            acc = Matrix.zero(field, d, d)
            for y in self.induced.reps:
                acc = acc + F1.values[G.mul(g, G.inv(y))] * F2.values[y]
            values[g] = acc
        return HeckeFunction(values)

    def function_identity(self):
        """The unit: supported on K, value rho(k) at k."""
        G, K, V, field = self.G, self.K, self.V, self.field
        d = V.dim[V.base.objects[0]]
        values = {g: Matrix.zero(field, d, d) for g in G.elements}
        for k in K.elements:
            values[k] = V.mat[k]
        return HeckeFunction(values)

    def function_coordinates(self, F):
        return self._coordinates([F])[0]

    def _coordinates(self, functions):
        """The coordinates of each function in the double-coset basis, by
        one solve for all of them."""
        order = sorted(self.G.elements, key=okey)

        def flat(F):
            return [a for g in order for a in F.values[g].entries()]

        coords = coordinates(self.field, [flat(b) for b in self.function_basis],
                             [flat(F) for F in functions])
        if coords is None:
            raise TheoremViolation("function outside the coset-basis span")
        return coords

    # -- the comparison A -> B -----------------------------------------------

    def to_function(self, T):
        """Phi(T)(g) v = T([1, v])(g): evaluate the endomorphism on the
        canonical generators."""
        G, V = self.G, self.V
        d = V.dim[V.base.objects[0]]
        n = len(self.induced.reps)
        mat = T.comp[self.obG]
        # [1, v] in coordinates: supported on the coset j0 of the identity,
        # with value shift rho_g0 if the representative is not e; so
        # T([1, v]) is the column block j0 of T times rho_g0 v
        j0, k0 = self.induced.coset_of(G.identity)
        image = mat.submatrix(range(n * d), range(j0 * d, (j0 + 1) * d)) \
            * V.mat[k0]
        images = [image.submatrix(range(j * d, (j + 1) * d), range(d))
                  for j in range(n)]
        values = {}
        for g in G.elements:
            j, k = self.induced.coset_of(g)
            values[g] = V.mat[k] * images[j]
        return HeckeFunction(values)

    def _phi_matrix(self, images):
        """The comparison's matrix, from the images of the basis."""
        coords = self._coordinates(images)
        return Matrix(self.field, zip(*coords), ncols=self.dim)

    def _check_phi_multiplicative(self, images):
        """Phi(T2∘T1) == Phi(T1) * Phi(T2) for every pair of basis
        endomorphisms; `images` are their Phi images, in basis order."""
        for T1, F1 in zip(self.end_basis, images):
            for T2, F2 in zip(self.end_basis, images):
                lhs = self.to_function(T2.then(T1))
                rhs = self.convolve(F1, F2)
                if lhs != rhs:
                    raise TheoremViolation(
                        "evaluation map is not an algebra homomorphism")

    # -- structure constants --------------------------------------------------

    def structure_constants(self):
        """c[i][j][k]: basis_i * basis_j = sum_k c[i][j][k] basis_k in the
        convolution model."""
        basis = self.function_basis
        coords = self._coordinates([self.convolve(F1, F2)
                                    for F1 in basis for F2 in basis])
        return [coords[i:i + self.dim]
                for i in range(0, len(coords), self.dim)]


# ---------------------------------------------------------------------------
# Anti-involution
# ---------------------------------------------------------------------------

@dataclass
class InvolutionCertificate:
    anti_multiplicative: bool
    involutive: bool
    coset_swap: dict     # representative w -> representative of K w^{-1} K


def anti_involution(algebra, pairing=None):
    """iota(T)(g) = (T(g^{-1}))^* on the function model.  The weight must
    be self-dual: `pairing` is the invertible matrix V -> V* (taken to be 1
    for the trivial weight); otherwise a precondition error is raised.

    Returns (iota as a function on HeckeFunctions, certificate)."""
    V = algebra.V
    d = V.dim[V.base.objects[0]]
    field = algebra.field
    if pairing is None:
        if d != 1:
            raise GateError("weight not rank 1: supply a self-duality pairing")
        pairing = Matrix.identity(field, 1)
    if not pairing.is_invertible():
        raise GateError("pairing not invertible")
    pinv = pairing.inverse()
    G = algebra.G

    def iota(F):
        values = {}
        for g in G.elements:
            values[g] = pinv * F.values[G.inv(g)].transpose() * pairing
        return HeckeFunction(values)

    anti = True
    for F1 in algebra.function_basis:
        for F2 in algebra.function_basis:
            lhs = iota(algebra.convolve(F1, F2))
            rhs = algebra.convolve(iota(F2), iota(F1))
            if lhs != rhs:
                anti = False
    invol = all(iota(iota(F)) == F for F in algebra.function_basis)
    dc = algebra.dc
    swap = {w: dc.rep_of[G.inv(w)] for w in dc.representatives}
    return iota, InvolutionCertificate(anti, invol, swap)


def dual_weight_transport(algebra):
    """The map H(G,K,V) -> H(G,K,V*) for a not-necessarily-self-dual
    weight: T -> [g -> T(g^{-1})^t].  No involution is claimed."""
    G = algebra.G

    def to_dual(F):
        return HeckeFunction({g: F.values[G.inv(g)].transpose()
                              for g in G.elements})

    return to_dual


# ---------------------------------------------------------------------------
# Prim duality comparison
# ---------------------------------------------------------------------------

@dataclass
class PrimDualityCertificate:
    prim_ok: bool
    dual_matches_induction: bool
    anti_automorphism_ok: bool
    agrees_with_iota: bool
    algebra_dim: int


def prim_duality_on_hecke(G, K, field):
    """Compute the prim dual of the induced unit, transport endomorphisms
    through the mate bijection of the resulting adjunction, and certify
    agreement with the concrete anti-involution on the double coset basis."""
    alg = HeckeAlgebra(G, K, unit_sheaf(delooping(K), field))
    # P IS the function model sheaf of the algebra, so the bases coincide
    P = alg.induced.sheaf
    cert = prim_test(P.base.to_point, P, check_double_dual=False)
    if not cert.ok:
        return PrimDualityCertificate(False, False, False, False, 0)
    c = find_isomorphism(cert.dual, P)
    if c is None:
        return PrimDualityCertificate(True, False, False, False, 0)

    # mate transport: T in End(P) -> mate(T) in End(r), conjugated by c
    c_inv = c.inverse()

    def transported(T):
        return c_inv.then(cert.mate(T)).then(c)

    iota, _ = anti_involution(alg)
    agree = all(alg.to_function(transported(T)) == iota(alg.to_function(T))
                for T in alg.end_basis)
    anti_ok = all(alg.to_function(transported(T1.then(T2))) ==
                  alg.to_function(transported(T2).then(transported(T1)))
                  for T1 in alg.end_basis for T2 in alg.end_basis)
    return PrimDualityCertificate(True, True, anti_ok, agree, alg.dim)


def frobenius_check(G, K, V, W):
    """dim Hom_G(cInd V, W) == dim Hom_K(V, Res W), both by linear algebra."""
    ind = compact_induction(G, K, V)
    BK = V.base
    BG = W.base
    incl = delooping_hom({k: k for k in K.elements}, BK, BG)
    res = PullbackFunctor(incl).obj(W)
    lhs = hom_dim(ind.sheaf, W)
    rhs = hom_dim(V, res)
    return lhs == rhs, lhs, rhs
