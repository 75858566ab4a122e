"""Seeded workloads for the sixff benchmark.

Each workload builds its inputs from a seed with public sixff constructors
only (``presets.group``, ``delooping``, ``disjoint_union``,
``terminal_groupoid``, ``Functor``, ``KernelContext``, ``Kernel``, ``Sheaf``,
``Matrix``), then certifies them one instance at a time.
``suite._random_*`` is deliberately not used: those helpers are free to
change, which would silently change the workloads.

Every call into sixff goes through a module attribute (``kernels.associator``
rather than a name imported here), so the tracer's wrappers see the calls.

A workload is an object with:

- ``instances``: list of ``Instance`` (id, part, payload);
- ``fingerprint``: hex digest of the generated inputs;
- ``certify(inst)``: the timed sixff calls, returning the certified outputs;
- ``check(inst, out)``: untimed; returns ``(verdict, digest, oracle_ok)``.

``verdict`` is sixff's own answer (every certificate invertible or true),
``digest`` hashes the canonical certified outputs, and ``oracle_ok`` is the
benchmark's independent check (brute-force counts, known answers, and an
exact rank computed here rather than by sixff).
"""

from __future__ import annotations

import hashlib
import itertools
import random
from dataclasses import dataclass
from fractions import Fraction

from sixff import groupoid, hecke, kernels, presets, sheaves
from sixff.fields import GF, QQ
from sixff.linalg import Matrix

@dataclass
class Instance:
    id: str
    part: str          # sub-workload, e.g. "sweep" or "transport"
    payload: tuple


# ---------------------------------------------------------------------------
# canonical serialisation (for fingerprints and digests)
# ---------------------------------------------------------------------------

def _ser_matrix(m):
    return "M%dx%d[%s]" % (m.nrows, m.ncols, ";".join(
        ",".join(str(a) for a in row) for row in m.rows))


def _ser_sheaf(s):
    dims = sorted((repr(x), d) for x, d in s.dim.items())
    mats = sorted((repr(u), _ser_matrix(m)) for u, m in s.mat.items())
    return "S%r|%s|%r" % (s.field, dims, mats)


def _ser_cell(c):
    comps = sorted((repr(x), _ser_matrix(m)) for x, m in c.comp.items())
    return "C(%s->%s)%r" % (_ser_sheaf(c.src), _ser_sheaf(c.dst), comps)


def _ser_functor(f):
    return "F%r|%r" % (sorted((repr(a), repr(b)) for a, b in f.ob.items()),
                       sorted((repr(a), repr(b)) for a, b in f.mor.items()))


def _digest(parts):
    h = hashlib.sha256()
    for p in parts:
        h.update(p.encode())
        h.update(b"\0")
    return h.hexdigest()[:16]


# ---------------------------------------------------------------------------
# independent exact arithmetic (the oracle does not use sixff's linalg)
# ---------------------------------------------------------------------------

def _rank(m, p):
    """Rank of a sixff Matrix, recomputed from its printed entries by plain
    Gaussian elimination over Q (p == 0) or F_p."""
    if p:
        rows = [[int(str(a)) % p for a in r] for r in m.rows]
    else:
        rows = [[Fraction(str(a)) for a in r] for r in m.rows]
    rank, ncols = 0, m.ncols
    for c in range(ncols):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        inv = pow(rows[rank][c], p - 2, p) if p else 1 / rows[rank][c]
        top = [(a * inv) % p if p else a * inv for a in rows[rank]]
        rows[rank] = top
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                k = rows[i][c]
                rows[i] = [((a - k * b) % p if p else a - k * b)
                           for a, b in zip(rows[i], top)]
        rank += 1
    return rank


def _cell_invertible(cell, p):
    """Every component square and of full rank, checked independently."""
    for m in cell.comp.values():
        if m.nrows != m.ncols or _rank(m, p) != m.nrows:
            return False
    return True


def _brute_double_cosets(G, H, K):
    """Double cosets H\\G/K by orbit counting over the Cayley table:
    returns the sorted list of orbit sizes."""
    table = G.table
    seen, sizes = set(), []
    for g in G.elements:
        if g in seen:
            continue
        orbit = {table[(table[(h, g)], k)] for h in H for k in K}
        seen |= orbit
        sizes.append(len(orbit))
    return sorted(sizes)


# ---------------------------------------------------------------------------
# kernel-coherence
# ---------------------------------------------------------------------------

# Sizes of the four discrete bases over the point (as in criterion 5).
KERNEL_SIZES = (2, 3, 2, 2)
KERNEL_TRIPLES = {"full": 40, "tiny": 2}


class KernelCoherence:
    """Random kernel triples M: X1 => X0, N: X2 => X1, L: X3 => X2 over
    discrete bases over a point, over Q, with identity transitions and fibre
    dimensions 0-2.  One triple is one instance: associator plus both
    unitors, each checked to be invertible and to have the composites as its
    boundary.

    The fibre dimensions come from a fixed catalogue (drawn once, uniformly);
    the seed relabels the points of each base independently per triple.
    Every seed therefore does the same amount of work on different inputs,
    which keeps the spread across seeds down to machine noise."""

    name = "kernel-coherence"

    def __init__(self, seed, scale="full"):
        shapes = random.Random(self.name + "/catalogue")
        rng = random.Random("%s/%s" % (self.name, seed))
        pt = groupoid.terminal_groupoid()
        self.ctx = ctx = kernels.KernelContext(pt, QQ)
        bases = []
        for i, n in enumerate(KERNEL_SIZES):
            X = groupoid.disjoint_union(
                [groupoid.terminal_groupoid() for _ in range(n)])
            ctx.add_object("X%d" % i, X, groupoid.to_terminal(X, pt))
            bases.append(X.objects)
        fp = []
        self.instances = []
        for t in range(KERNEL_TRIPLES[scale]):
            dims = [{(a, b): shapes.randrange(3) for a in range(KERNEL_SIZES[i])
                     for b in range(KERNEL_SIZES[i + 1])} for i in range(3)]
            perm = [rng.sample(objs, len(objs)) for objs in bases]
            M, N, L = (self._kernel(i, dims[i], perm) for i in range(3))
            fp.extend(_ser_sheaf(k.payload) for k in (M, N, L))
            self.instances.append(Instance("t%d" % t, "triple", (M, N, L)))
        self.fingerprint = _digest(fp)

    def _kernel(self, i, dims, perm):
        """The kernel X(i+1) => X(i) with fibre dims[(a, b)] at the
        relabelled points (perm[i][a], perm[i+1][b])."""
        tgt, src = "X%d" % i, "X%d" % (i + 1)
        rp = self.ctx.prod((tgt, src))
        where = {(perm[i][a], perm[i + 1][b]): d for (a, b), d in dims.items()}
        dim = {o: where[o[0]] for o in rp.grpd.objects}
        mats = {m: Matrix.identity(QQ, dim[rp.grpd.src[m]])
                for m in rp.grpd.morphisms}
        return kernels.Kernel(self.ctx, src, tgt,
                              sheaves.Sheaf(rp.grpd, QQ, dim, mats))

    def certify(self, inst):
        M, N, L = inst.payload
        al = kernels.associator(M, N, L)
        ru = kernels.right_unitor(M)
        lu = kernels.left_unitor(M)
        ok = al.is_invertible() and ru.is_invertible() and lu.is_invertible()
        ctx = self.ctx
        left = kernels.kernel_compose(kernels.kernel_compose(M, N), L)
        right = kernels.kernel_compose(M, kernels.kernel_compose(N, L))
        m_id = kernels.kernel_compose(M, kernels.kernel_identity(ctx, M.src))
        id_m = kernels.kernel_compose(kernels.kernel_identity(ctx, M.tgt), M)
        ok = ok and sheaves.sheaves_equal(al.src, left.payload) \
            and sheaves.sheaves_equal(al.dst, right.payload) \
            and sheaves.sheaves_equal(ru.src, m_id.payload) \
            and sheaves.sheaves_equal(lu.src, id_m.payload) \
            and sheaves.sheaves_equal(ru.dst, M.payload) \
            and sheaves.sheaves_equal(lu.dst, M.payload)
        return ok, (al, ru, lu)

    def check(self, inst, out):
        ok, cells = out
        M, N, L = inst.payload
        digest = _digest([_ser_cell(c) for c in cells])
        # (M∘N)∘L has fibre dimension sum_{b,c} M(a,b) N(b,c) L(c,d) over
        # discrete bases over a point; compare with the associator's source.
        dm, dn, dl = (_dims_by_factor(k.payload) for k in (M, N, L))
        want = {}
        for (a, b), x in dm.items():
            for (b2, c), y in dn.items():
                if b2 != b:
                    continue
                for (c2, d), z in dl.items():
                    if c2 == c:
                        want[(a, d)] = want.get((a, d), 0) + x * y * z
        got = _dims_by_factor(cells[0].src)
        oracle = all(got[k] == want.get(k, 0) for k in got) and \
            all(_cell_invertible(c, 0) for c in cells)
        return ok, digest, oracle


def _dims_by_factor(sheaf):
    """Fibre dimensions of a sheaf on a binary relative product over the
    point, keyed by the pair of factor objects."""
    return {o[0]: d for o, d in sheaf.dim.items()}


# ---------------------------------------------------------------------------
# six-ops-fresh
# ---------------------------------------------------------------------------

SIX_OPS_FIELD = 5
SIX_OPS_GROUPS = ("1", "C2", "C3")
SIX_OPS_INSTANCES = {"full": 160, "tiny": 6}
# Largest fibre dimension per component of M, N and P.
SIX_OPS_MAX_DIM = (4, 3, 2)


def _homomorphisms(H, G):
    """All group homomorphisms H -> G, as dicts, in a fixed order."""
    out = []
    hs = list(H.elements)
    for images in itertools.product(G.elements, repeat=len(hs)):
        phi = dict(zip(hs, images))
        if all(phi[H.mul(a, b)] == G.mul(phi[a], phi[b])
               for a in hs for b in hs):
            out.append(phi)
    return out


def _perm_rep(G, name):
    """Summands over the integers: the trivial character, the sign of C2,
    and the regular (permutation) representation of a cyclic group."""
    n = len(G.elements)
    if name == "triv":
        return {g: [[1]] for g in G.elements}
    if name == "sign":
        return {g: [[1 if g == G.identity else -1]] for g in G.elements}
    return {g: [[1 if (j + g) % n == i else 0 for j in range(n)]
                for i in range(n)] for g in G.elements}


def _block_sum(blocks):
    d = sum(len(b) for b in blocks)
    out = [[0] * d for _ in range(d)]
    i0 = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, a in enumerate(row):
                out[i0 + i][i0 + j] = a
        i0 += len(b)
    return out


def _mat_mul(a, b, p):
    return [[sum(x * y for x, y in zip(row, col)) % p for col in zip(*b)]
            for row in a]


def _gauge(rng, d, p):
    """A random invertible d x d matrix over F_p and its inverse, as a
    product of random elementary matrices (so no rank test is needed)."""
    g = [[int(i == j) for j in range(d)] for i in range(d)]
    gi = [row[:] for row in g]
    for _ in range(3 * d):
        i, j = rng.randrange(d), rng.randrange(d)
        if i == j:
            c = rng.randrange(1, p)
            ci = pow(c, p - 2, p)
            g[i] = [(c * a) % p for a in g[i]]           # scale row i
            gi = [[(a * ci) % p if k == i else a for k, a in enumerate(r)]
                  for r in gi]                           # scale column i
        else:
            c = rng.randrange(1, p)
            g[i] = [(a + c * b) % p for a, b in zip(g[i], g[j])]
            gi = [[(r[k] - c * r[i]) % p if k == j else r[k]
                   for k in range(d)] for r in gi]
    return g, gi


class SixOpsFresh:
    """Proper base change along an iso-comma square plus both cells of the
    projection formula, over F5.  Groupoids are disjoint unions of
    deloopings of 1, C2 and C3, functors are random, and every sheaf is a
    sum of permutation summands gauge-conjugated by a random invertible
    matrix at each object, so no two instances share content.

    The shapes (component groups, where each component maps, whether a
    homomorphism is trivial, and the summands) come from a fixed catalogue
    drawn once.  The seed draws the content: the order of components, the
    homomorphism among those of the same image, and every gauge matrix.
    Every seed thus does the same amount of work on fresh inputs."""

    name = "six-ops-fresh"

    def __init__(self, seed, scale="full"):
        shapes = random.Random(self.name + "/catalogue")
        rng = random.Random("%s/%s" % (self.name, seed))
        self.field = GF(SIX_OPS_FIELD)
        fp = []
        self.instances = []
        for t in range(SIX_OPS_INSTANCES[scale]):
            shape = self._shape(shapes, t)
            f, g, M, N, P = self._realise(rng, shape)
            fp.extend([_ser_functor(f), _ser_functor(g)] +
                      [_ser_sheaf(s) for s in (M, N, P)])
            self.instances.append(Instance("i%d" % t, "square",
                                           (f, g, M, N, P)))
        self.fingerprint = _digest(fp)

    @staticmethod
    def _shape(shapes, t):
        """One catalogue entry.  Component counts of X, Y and X' cycle
        through all eight patterns."""
        xnames = [shapes.choice(SIX_OPS_GROUPS) for _ in range(1 + (t & 1))]

        def functor_shape(k):
            ynames = [shapes.choice(SIX_OPS_GROUPS) for _ in range(k)]
            # (target component, trivial homomorphism?) per component
            maps = [(shapes.randrange(len(xnames)), shapes.random() < 0.5)
                    for _ in ynames]
            return ynames, maps

        def summands(names, max_dim):
            out = []
            for gname in names:
                n = len(presets.group(gname).elements)
                left, kinds = shapes.randint(1, max_dim), []
                while left:
                    kind = shapes.choice(
                        ["triv"] + (["sign"] if gname == "C2" else []) +
                        (["reg"] if 1 < n <= left else []))
                    kinds.append(kind)
                    left -= n if kind == "reg" else 1
                out.append(kinds)
            return out

        fshape = functor_shape(1 + (t >> 1 & 1))
        gshape = functor_shape(1 + (t >> 2 & 1))
        dm, dn, dp = SIX_OPS_MAX_DIM
        return (xnames, fshape, gshape, summands(fshape[0], dm),
                summands(xnames, dn), summands(fshape[0], dp))

    def _realise(self, rng, shape):
        xnames, fshape, gshape, m_kinds, n_kinds, p_kinds = shape
        xperm = rng.sample(range(len(xnames)), len(xnames))
        X = self._groupoid(xnames, xperm)
        f, fperm = self._functor(rng, X, xnames, xperm, fshape)
        g, _ = self._functor(rng, X, xnames, xperm, gshape)
        M = self._sheaf(rng, f.dom, fshape[0], fperm, m_kinds)
        N = self._sheaf(rng, X, xnames, xperm, n_kinds)
        P = self._sheaf(rng, f.dom, fshape[0], fperm, p_kinds)
        return f, g, M, N, P

    @staticmethod
    def _groupoid(names, perm):
        """Disjoint union of deloopings; catalogue component j sits at
        position perm[j]."""
        ordered = [None] * len(names)
        for j, name in enumerate(names):
            ordered[perm[j]] = name
        return groupoid.disjoint_union(
            [groupoid.delooping(presets.group(n)) for n in ordered])

    def _functor(self, rng, X, xnames, xperm, fshape):
        ynames, maps = fshape
        yperm = rng.sample(range(len(ynames)), len(ynames))
        Y = self._groupoid(ynames, yperm)
        ob, mor = {}, {}
        for j, (hname, (i, trivial)) in enumerate(zip(ynames, maps)):
            H, G = presets.group(hname), presets.group(xnames[i])
            homs = _homomorphisms(H, G)
            image = 1 if trivial else max(len(set(h.values())) for h in homs)
            phi = rng.choice([h for h in homs
                              if len(set(h.values())) == image])
            ob[(yperm[j], "*")] = (xperm[i], "*")
            for h, x in phi.items():
                mor[(yperm[j], h)] = (xperm[i], x)
        return groupoid.Functor(Y, X, ob, mor), yperm

    def _sheaf(self, rng, X, names, perm, kinds):
        """Per component, the catalogue's summands conjugated by a random
        gauge matrix."""
        p = self.field.p
        dim, mat = {}, {}
        for j, (gname, ks) in enumerate(zip(names, kinds)):
            G = presets.group(gname)
            summands = [_perm_rep(G, k) for k in ks]
            blocks = {g: _block_sum([s[g] for s in summands])
                      for g in G.elements}
            d = len(blocks[G.identity])
            gauge, gauge_inv = _gauge(rng, d, p)
            dim[(perm[j], "*")] = d
            for g in G.elements:
                rows = _mat_mul(_mat_mul(gauge, blocks[g], p), gauge_inv, p)
                mat[(perm[j], g)] = Matrix(
                    self.field, [[self.field.of(a) for a in r] for r in rows])
        return sheaves.Sheaf(X, self.field, dim, mat)

    def certify(self, inst):
        f, g, M, N, P = inst.payload
        square, ic = sheaves.CommutingSquare.from_iso_comma(f, g)
        _inv, bc = sheaves.verify_base_change(square, M)
        pf, hom_form = sheaves.verify_projection_formula(f, N, P)
        return True, (len(ic.grpd.objects), (bc, pf, hom_form))

    def check(self, inst, out):
        ok, (corner, cells) = out
        f, g = inst.payload[:2]
        digest = _digest([repr(corner)] + [_ser_cell(c) for c in cells])
        # The iso-comma corner has one object per (y, x', m) with
        # m: f(y) -> g(x') in X.
        X = f.cod
        want = sum(1 for y in f.dom.objects for x in g.dom.objects
                   for m in X.morphisms
                   if X.src[m] == f.ob[y] and X.dst[m] == g.ob[x])
        oracle = corner == want and \
            all(_cell_invertible(c, SIX_OPS_FIELD) for c in cells)
        return ok, digest, oracle


# ---------------------------------------------------------------------------
# hecke-duality
# ---------------------------------------------------------------------------

SWEEP_GROUPS = {"full": ("S3", "S4", "D4", "Q8"), "tiny": ("S3",)}
# Number of conjugacy classes of subgroups (known answers).
SUBGROUP_CLASSES = {"S3": 4, "S4": 11, "D4": 8, "Q8": 6}
# (group, subgroup generator or None for the trivial subgroup, field).
TRANSPORTS = {
    "full": (("S3", (1, 0, 2), 0), ("S3", (1, 2, 0), 0), ("C3", None, 0),
             ("S3", (1, 0, 2), 7)),
    "tiny": (("C3", None, 0),),
}


class HeckeDuality:
    """Two parts.  The coset sweep decomposes every conjugacy-class pair of
    subgroups of S3, S4, D4 and Q8 into double cosets, cross-checked against
    fibre products (pure group and groupoid work).  The transports build
    the Hecke algebra, its anti-involution and the prim-duality transport
    (dense products and Kronecker products).  The seed picks a random member
    of each conjugacy class and the order of each part."""

    name = "hecke-duality"

    def __init__(self, seed, scale="full"):
        rng = random.Random("%s/%s" % (self.name, seed))
        sweep, fp = [], []
        for gname in SWEEP_GROUPS[scale]:
            G = presets.group(gname)
            classes = [G.conjugate_subgroup(H, rng.choice(G.elements))
                       for H in G.subgroups_up_to_conjugacy()]
            if len(classes) != SUBGROUP_CLASSES[gname]:
                raise RuntimeError("%s: %d subgroup classes, expected %d"
                                   % (gname, len(classes),
                                      SUBGROUP_CLASSES[gname]))
            for a, H in enumerate(classes):
                for b, K in enumerate(classes):
                    sweep.append(Instance("%s/%d/%d" % (gname, a, b), "sweep",
                                          (G, H, K)))
                    fp.append("%s|%r|%r" % (gname, sorted(map(repr, H)),
                                            sorted(map(repr, K))))
        transports = []
        for gname, gen, p in TRANSPORTS[scale]:
            G = presets.group(gname)
            if gen is None:
                K_el = frozenset([G.identity])
            else:
                K_el = G.conjugate_subgroup(G.generated_subgroup([gen]),
                                            rng.choice(G.elements))
            field = GF(p) if p else QQ
            transports.append(Instance(
                "%s/%d/%r" % (gname, len(K_el), field), "transport",
                (G, K_el, field)))
            fp.append("%s|%r|%r" % (gname, sorted(map(repr, K_el)), field))
        rng.shuffle(sweep)
        rng.shuffle(transports)
        # The transports sit evenly between chunks of the sweep, so that the
        # sweep's instance times sample the whole round, not one stretch of
        # the machine's speed.
        k = len(transports)
        self.instances = []
        for i in range(k + 1):
            self.instances += sweep[i * len(sweep) // (k + 1):
                                    (i + 1) * len(sweep) // (k + 1)]
            self.instances += transports[i:i + 1]
        self.fingerprint = _digest(fp + [i.id for i in self.instances])

    def certify(self, inst):
        if inst.part == "sweep":
            G, H_el, K_el = inst.payload
            dc = hecke.double_cosets(G, G.subgroup(H_el), G.subgroup(K_el))
            return True, dc
        G, K_el, field = inst.payload
        K = G.subgroup(K_el)
        alg = hecke.HeckeAlgebra(
            G, K, sheaves.unit_sheaf(groupoid.delooping(K), field))
        sc = alg.structure_constants()
        _iota, inv = hecke.anti_involution(alg)
        pd = hecke.prim_duality_on_hecke(G, K, field)
        ok = inv.anti_multiplicative and inv.involutive and pd.prim_ok and \
            pd.dual_matches_induction and pd.anti_automorphism_ok and \
            pd.agrees_with_iota and pd.algebra_dim == alg.dim
        return ok, (alg, sc, inv, pd)

    def check(self, inst, out):
        ok, res = out
        if inst.part == "sweep":
            G, H_el, K_el = inst.payload
            dc = res
            sizes = _brute_double_cosets(G, H_el, K_el)
            oracle = sorted(dc.sizes) == sizes and all(
                s * st == len(H_el) * len(K_el)
                for s, st in zip(dc.sizes, dc.stabilizer_orders))
            digest = _digest([repr(dc.representatives), repr(dc.sizes),
                              repr(dc.stabilizer_orders)])
            return ok, digest, oracle
        G, K_el, field = inst.payload
        alg, sc, inv, pd = res
        oracle = alg.dim == len(_brute_double_cosets(G, K_el, K_el))
        if G.name == "S3" and len(K_el) == 2:
            # H(S3, C2) has basis T_e, T_w with T_w^2 = 2 T_e + T_w.
            supp = [sum(1 for m in F.values.values()
                        if any(str(a) != "0" for r in m.rows for a in r))
                    for F in alg.function_basis]
            oracle = oracle and sorted(supp) == [2, 4]
            if oracle:
                te, tw = supp.index(2), supp.index(4)
                coords = [str(c) for c in sc[tw][tw]]
                oracle = coords[te] == "2" and coords[tw] == "1"
        digest = _digest([repr(alg.dim),
                          repr([[[str(c) for c in cs] for cs in row]
                                for row in sc]),
                          repr(sorted((repr(w), repr(v))
                                      for w, v in inv.coset_swap.items())),
                          repr((pd.prim_ok, pd.dual_matches_induction,
                                pd.anti_automorphism_ok, pd.agrees_with_iota,
                                pd.algebra_dim))])
        return ok, digest, oracle


def make(name, seed, scale="full"):
    cls = {"kernel-coherence": KernelCoherence, "six-ops-fresh": SixOpsFresh,
           "hecke-duality": HeckeDuality}[name]
    return cls(seed, scale)
