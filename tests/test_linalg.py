"""Property tests for the exact matrix core over QQ and GF(5).

Entries are drawn rich in 0 and 1, the values the inner loops of
`Matrix.__mul__`, `kron` and `rref` single out.  Every property is checked
against a definition or a plain reference written here; the references pass
each scalar step through `field.of`, which over GF(5) is the reduced int
that `Matrix` keeps.
"""

import ast
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sixff.fields import GF, QQ
import sixff
from sixff.linalg import (Matrix, SingularMatrixError, coordinates,
                          stack_columns, stack_rows)

PROPS = settings(max_examples=60, derandomize=True, deadline=None,
                 database=None)
FIELD = st.sampled_from([QQ, GF(5)])

# (numerator, denominator): zeros and ones dominate; 5 never divides a
# denominator, so every pair is an element of both fields
_ENTRY = st.sampled_from([(0, 1)] * 5 + [(1, 1)] * 4
                         + [(-1, 1), (2, 1), (3, 1), (1, 2), (-2, 3)])


def _dim(hi=4):
    return st.integers(0, hi)


def _matrix(field, m, n):
    cells = st.lists(_ENTRY, min_size=m * n, max_size=m * n)
    return cells.map(lambda c: Matrix(
        field, [[field.of(*c[i * n + j]) for j in range(n)]
                for i in range(m)], ncols=n))


@st.composite
def products(draw):
    f, m, k, n = draw(FIELD), draw(_dim()), draw(_dim()), draw(_dim())
    return draw(_matrix(f, m, k)), draw(_matrix(f, k, n))


@st.composite
def pairs(draw):
    f = draw(FIELD)
    m, n, p, q = (draw(_dim(3)) for _ in range(4))
    return draw(_matrix(f, m, n)), draw(_matrix(f, p, q))


@st.composite
def singles(draw):
    f, m, n = draw(FIELD), draw(_dim(5)), draw(_dim(5))
    return draw(_matrix(f, m, n))


@st.composite
def squares(draw):
    f, n = draw(FIELD), draw(_dim())
    return draw(_matrix(f, n, n))


@st.composite
def systems(draw):
    f, m, n, k = draw(FIELD), draw(_dim()), draw(_dim()), draw(_dim())
    return draw(_matrix(f, m, n)), draw(_matrix(f, m, k))


@st.composite
def block_layouts(draw):
    """(field, row heights, column widths, placed blocks) with zero-size
    blocks and empty layouts allowed."""
    f = draw(FIELD)
    row_dims = draw(st.lists(_dim(3), max_size=3))
    col_dims = draw(st.lists(_dim(3), max_size=3))
    cells = [(i, j) for i in range(len(row_dims))
             for j in range(len(col_dims))]
    chosen = draw(st.lists(st.sampled_from(cells), unique=True)) \
        if cells else []
    placed = {(i, j): draw(_matrix(f, row_dims[i], col_dims[j]))
              for (i, j) in chosen}
    return f, row_dims, col_dims, placed


def _reference_block(f, row_dims, col_dims, placed):
    """The block matrix stacked from explicit zero blocks."""
    return stack_rows(f, [
        stack_columns(f, [placed.get((i, j), Matrix.zero(f, h, w))
                          for j, w in enumerate(col_dims)], h)
        for i, h in enumerate(row_dims)], sum(col_dims))


def _reference_rref(a):
    """Echelon form by eliminating below the last nonzero candidate, then
    scaling and clearing upwards.  RREF is unique, so any correct
    elimination must agree with `Matrix.rref`."""
    f = a.field
    rows = [list(r) for r in a.rows]
    pivots = []
    for c in range(a.ncols):
        r = len(pivots)
        cands = [i for i in range(r, a.nrows) if rows[i][c] != f.zero]
        if not cands:
            continue
        rows[r], rows[cands[-1]] = rows[cands[-1]], rows[r]
        for i in range(r + 1, a.nrows):
            if rows[i][c] != f.zero:
                t = f.of(rows[i][c] * f.inv(rows[r][c]))
                rows[i] = [f.of(x - t * y) for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    for r in reversed(range(len(pivots))):
        c = pivots[r]
        s = f.inv(rows[r][c])
        rows[r] = [f.of(s * x) for x in rows[r]]
        for i in range(r):
            t = rows[i][c]
            rows[i] = [f.of(x - t * y) for x, y in zip(rows[i], rows[r])]
    return Matrix(f, rows, ncols=a.ncols), pivots


@PROPS
@given(products())
def test_product_is_the_triple_sum(ab):
    a, b = ab
    f = a.field
    expected = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            acc = f.zero
            for k in range(a.ncols):
                acc = f.of(acc + a.rows[i][k] * b.rows[k][j])
            row.append(acc)
        expected.append(row)
    c = a * b
    assert c.shape == (a.nrows, b.ncols)
    assert c.rows == Matrix(f, expected, ncols=b.ncols).rows


@PROPS
@given(pairs())
def test_kron_matches_its_definition(ab):
    a, b = ab
    (m, n), (p, q) = a.shape, b.shape
    c = a.kron(b)
    assert c.shape == (m * p, n * q)
    for i in range(m):
        for j in range(n):
            for k in range(p):
                for t in range(q):
                    assert c.rows[i * p + k][j * q + t] == \
                        a.field.of(a.rows[i][j] * b.rows[k][t])


@PROPS
@given(singles())
def test_rref_equals_reference_elimination(a):
    red, pivots = a.rref()
    ref, ref_pivots = _reference_rref(a)
    assert pivots == ref_pivots
    assert red == ref


@PROPS
@given(systems())
def test_solve_satisfies_its_equation(sys_):
    a, rhs = sys_
    x = a.solve(rhs)
    if x is None:
        assert a.hstack(rhs).rank() > a.rank()
    else:
        assert x.shape == (a.ncols, rhs.ncols)
        assert a * x == rhs


@PROPS
@given(singles())
def test_nullspace_is_a_kernel_basis(a):
    basis = a.nullspace()
    assert len(basis) == a.ncols - a.rank()
    for v in basis:
        assert v.shape == (a.ncols, 1)
        assert (a * v).is_zero()
    if basis:
        stacked = basis[0]
        for v in basis[1:]:
            stacked = stacked.hstack(v)
        assert stacked.rank() == len(basis)


@PROPS
@given(squares())
def test_inverse_is_two_sided_when_it_exists(a):
    if not a.is_invertible():
        return
    inv = a.inverse()
    eye = Matrix.identity(a.field, a.nrows)
    assert a * inv == eye and inv * a == eye


def _fraction_matrix(m, n):
    """A QQ matrix whose every entry is a `Fraction`, integral ones too:
    the form an entry can take after mixed int/Fraction arithmetic."""
    cells = st.lists(_ENTRY, min_size=m * n, max_size=m * n)
    return cells.map(lambda c: Matrix(
        QQ, [[Fraction(*c[i * n + j]) for j in range(n)]
             for i in range(m)], ncols=n))


@st.composite
def operands(draw, field):
    """a (m x k), b (k x n), c of a's shape and a scalar, all over `field`;
    over QQ each matrix may hold its integral entries as `Fraction`s."""
    m, k, n = draw(_dim()), draw(_dim()), draw(_dim())

    def matrix(m, n):
        if field == QQ and draw(st.booleans()):
            return draw(_fraction_matrix(m, n))
        return draw(_matrix(field, m, n))

    return (matrix(m, k), matrix(k, n), matrix(m, k),
            field.of(*draw(_ENTRY)))


def _results(ops):
    """Every result of `*`, `+`, `-`, unary `-`, `scale`, `kron`, `block`,
    `rref`, `inverse`, `solve` and `nullspace` on `operands`."""
    a, b, c, s = ops
    f = a.field
    square = a * a.transpose()
    results = [a * b, a + c, a - c, -a, a.scale(s), a.kron(b),
               Matrix.block(f, [a.nrows, b.nrows], [a.ncols, b.ncols],
                            {(0, 0): a, (1, 1): b}),
               a.rref()[0], a.solve(a * b)] + a.nullspace()
    if square.is_invertible():
        results.append(square.inverse())
    assert all(r.field == f for r in results)
    return results


@PROPS
@given(operands(GF(5)))
def test_f5_results_hold_reduced_ints(ops):
    for r in _results(ops):
        assert all(type(x) is int and 0 <= x < 5 for row in r.rows
                   for x in row)


@PROPS
@given(operands(QQ))
def test_qq_results_stay_exact(ops):
    # never a float (1 / x on an int) and never a bool (an int subclass)
    for r in _results(ops):
        assert all(type(x) in (int, Fraction) for row in r.rows
                   for x in row)


def test_qq_scalars_are_ints_when_integral():
    assert type(QQ.of(4, 2)) is int and QQ.of(4, 2) == 2
    assert QQ.of(1, 3) == Fraction(1, 3)
    assert type(QQ.zero) is int and type(QQ.one) is int
    assert QQ.inv(2) == Fraction(1, 2)
    assert type(QQ.inv(-1)) is int and QQ.inv(-1) == -1
    assert type(QQ.inv(Fraction(1, 3))) is int and QQ.inv(Fraction(1, 3)) == 3
    with pytest.raises(ZeroDivisionError):
        QQ.inv(0)
    with pytest.raises(ZeroDivisionError):
        QQ.inv(Fraction(0))


def test_matrix_prints_entries_as_the_report_does():
    for two in (2, Fraction(2)):
        m = Matrix(QQ, [[two, Fraction(1, 2)]])
        assert str(m) == "[[2, 1/2]]"
        assert repr(m) == "Matrix(1x2, [[2, 1/2]])"


@PROPS
@given(block_layouts())
def test_block_equals_stacked_zero_blocks(layout):
    f, row_dims, col_dims, placed = layout
    got = Matrix.block(f, row_dims, col_dims, placed)
    ref = _reference_block(f, row_dims, col_dims, placed)
    assert got.shape == ref.shape == (sum(row_dims), sum(col_dims))
    assert got.field == f
    assert all(got.entry(i, j) == ref.entry(i, j)
               for i in range(got.nrows) for j in range(got.ncols))


@PROPS
@given(FIELD.flatmap(lambda f: st.lists(
    st.tuples(_dim(3), _dim(3)).flatmap(lambda mn: _matrix(f, *mn)),
    max_size=4)))
def test_direct_sum_is_block_diagonal_placement(blocks):
    f = blocks[0].field if blocks else QQ
    ref = _reference_block(f, [b.nrows for b in blocks],
                           [b.ncols for b in blocks],
                           {(i, i): b for i, b in enumerate(blocks)})
    got = Matrix.direct_sum(f, blocks)
    assert got.shape == ref.shape and got.rows == ref.rows


@pytest.mark.parametrize("rows, ncols", [
    ([[1, 2], [3]], None),      # ragged rows
    ([[1, 2], [3]], 2),
    ([[1, 2]], 3),              # ncols disagrees with the rows
    ([[1, 2], [3, 4]], 1),
    ([[], []], 2),
])
def test_bad_shapes_raise(rows, ncols):
    with pytest.raises(ValueError):
        Matrix(QQ, rows, ncols=ncols)


def test_ncols_is_kept_for_empty_rows_and_shares_tuple_rows():
    assert Matrix(QQ, [], ncols=3).shape == (0, 3)
    assert Matrix(QQ, [[], []], ncols=0).shape == (2, 0)
    a = Matrix(QQ, [[1, 2], [3, 4]])
    b = Matrix(QQ, a.rows, ncols=2)
    assert b.shape == (2, 2)
    assert all(r is s for r, s in zip(b.rows, a.rows))


# -- the readers: entries, from_entries, column_entries, coordinates -------

@PROPS
@given(singles())
def test_from_entries_inverts_entries(a):
    flat = a.entries()
    assert len(flat) == a.nrows * a.ncols
    assert flat == tuple(a.entry(i, j) for i in range(a.nrows)
                         for j in range(a.ncols))
    back = Matrix.from_entries(a.field, flat, a.nrows, a.ncols)
    assert back == a and back.shape == a.shape


@pytest.mark.parametrize("m, n", [(0, 0), (0, 3), (2, 0)])
def test_from_entries_keeps_empty_shapes(m, n):
    a = Matrix.zero(QQ, m, n)
    assert a.entries() == ()
    assert Matrix.from_entries(QQ, (), m, n) == a
    assert Matrix.from_entries(QQ, (), m, n).shape == (m, n)


@PROPS
@given(singles())
def test_column_entries_are_the_rows_of_the_transpose(a):
    t = a.transpose()
    for j in range(a.ncols):
        assert a.column_entries(j) == list(t.rows[j])


@st.composite
def coordinate_problems(draw):
    """(field, vectors, targets): k vectors of length n and 1-3 targets,
    each a combination of the vectors or an arbitrary vector; n = 0 and
    k = 0 allowed."""
    f, n, k = draw(FIELD), draw(_dim(4)), draw(_dim(3))
    entry = _ENTRY.map(lambda c: f.of(*c))
    vectors = [draw(st.lists(entry, min_size=n, max_size=n))
               for _ in range(k)]
    targets = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            cs = draw(st.lists(entry, min_size=k, max_size=k))
            targets.append([f.of(sum(c * v[i] for c, v in zip(cs, vectors)))
                            for i in range(n)])
        else:
            targets.append(draw(st.lists(entry, min_size=n, max_size=n)))
    return f, vectors, targets


@PROPS
@given(coordinate_problems())
def test_coordinates_agree_with_one_solve_per_target(problem):
    f, vectors, targets = problem
    n, k = len(targets[0]), len(vectors)
    a = Matrix(f, [[v[i] for v in vectors] for i in range(n)], ncols=k)
    singles_ = [a.solve(Matrix.column(f, t)) for t in targets]
    got = coordinates(f, vectors, targets)
    if any(x is None for x in singles_):
        assert got is None
        return
    assert got == [x.column_entries() for x in singles_]
    for c, t in zip(got, targets):
        assert len(c) == k
        assert a * Matrix.column(f, c) == Matrix.column(f, t)


def test_coordinates_edge_cases():
    assert coordinates(QQ, [[1, 0]], []) == []
    # vectors of length 0, and no vectors at all
    assert coordinates(QQ, [[], []], [[]]) == [[0, 0]]
    assert coordinates(QQ, [], [[]]) == [[]]
    assert coordinates(QQ, [], [[0, 0]]) == [[]]
    assert coordinates(QQ, [], [[0, 1]]) is None
    # one target outside the span makes the whole answer None
    assert coordinates(QQ, [[1, 0]], [[2, 0], [0, 1]]) is None
    assert coordinates(GF(5), [[1, 1], [0, 1]], [[2, 0], [1, 4]]) == \
        [[2, 3], [1, 3]]


def test_no_module_but_linalg_reads_matrix_rows():
    """Row storage is private to `linalg`: no other module of the package
    reads the dense view `.rows`, the sparse rows `._nz` or the cached view
    `._rows`, so the storage can change in one place."""
    src = Path(sixff.__file__).parent
    private = {"rows", "_nz", "_rows"}
    assert private <= set(Matrix.__slots__) | {"rows"}
    found = []
    for path in sorted(src.glob("*.py")):
        if path.name == "linalg.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Attribute) and node.attr in private:
                found.append("%s:%d" % (path.name, node.lineno))
    assert found == []


# -- the sparse rows against the dense operations they replaced ------------

class Dense:
    """The dense row-major `Matrix` operations that sparse rows replaced,
    kept as a reference: each result is compared with the sparse one entry
    by entry.  Over F_p every computed entry is reduced, as before."""

    def __init__(self, field, rows, ncols):
        self.field = field
        self.rows = tuple(map(tuple, rows))
        self.nrows, self.ncols = len(self.rows), ncols

    @staticmethod
    def of(m):
        return Dense(m.field, m.rows, m.ncols)

    def _reduced(self, rows, ncols=None):
        p = self.field.characteristic
        if p:
            rows = [[a % p for a in r] for r in rows]
        return Dense(self.field, rows, self.ncols if ncols is None else ncols)

    def add(self, other):
        return self._reduced([[a + b for a, b in zip(r, s)]
                              for r, s in zip(self.rows, other.rows)])

    def sub(self, other):
        return self._reduced([[a - b for a, b in zip(r, s)]
                              for r, s in zip(self.rows, other.rows)])

    def neg(self):
        return self._reduced([[-a for a in r] for r in self.rows])

    def scale(self, c):
        return self._reduced([[c * a for a in r] for r in self.rows])

    def mul(self, other):
        zero = self.field.zero
        return self._reduced(
            [[sum((r[k] * other.rows[k][j] for k in range(self.ncols)), zero)
              for j in range(other.ncols)] for r in self.rows], other.ncols)

    def kron(self, other):
        (m, n), (p, q) = (self.nrows, self.ncols), (other.nrows, other.ncols)
        return self._reduced(
            [[self.rows[i][j] * other.rows[k][t]
              for j in range(n) for t in range(q)]
             for i in range(m) for k in range(p)], n * q)

    def transpose(self):
        return Dense(self.field, [[r[j] for r in self.rows]
                                  for j in range(self.ncols)], self.nrows)

    def hstack(self, other):
        return Dense(self.field, [r + s for r, s in zip(self.rows, other.rows)],
                     self.ncols + other.ncols)

    def vstack(self, other):
        return Dense(self.field, self.rows + other.rows, self.ncols)

    @staticmethod
    def block(field, row_dims, col_dims, placed):
        out = [[field.zero] * sum(col_dims) for _ in range(sum(row_dims))]
        for (i, j), b in placed.items():
            i0, j0 = sum(row_dims[:i]), sum(col_dims[:j])
            for r, brow in enumerate(b.rows, i0):
                out[r][j0:j0 + b.ncols] = brow
        return Dense(field, out, sum(col_dims))

    def submatrix(self, row_idx, col_idx):
        return Dense(self.field, [[self.rows[i][j] for j in col_idx]
                                  for i in row_idx], len(col_idx))

    def rref(self):
        f = self.field
        p = f.characteristic
        rows = [list(r) for r in self.rows]
        m, n = self.nrows, self.ncols
        pivots = []
        r = 0
        for c in range(n):
            pr = next((i for i in range(r, m) if rows[i][c]), None)
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            inv = f.inv(rows[r][c])
            rows[r] = [inv * a % p if p else inv * a for a in rows[r]]
            for i in range(m):
                if i != r and rows[i][c]:
                    k = rows[i][c]
                    rows[i] = [(a - k * b) % p if p else a - k * b
                               for a, b in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
            if r == m:
                break
        return Dense(f, rows, n), pivots

    def solve(self, rhs):
        n = self.ncols
        red, pivots = self.hstack(rhs).rref()
        if any(c >= n for c in pivots):
            return None
        out = [[self.field.zero] * rhs.ncols for _ in range(n)]
        for r, c in enumerate(pivots):
            out[c] = list(red.rows[r][n:])
        return Dense(self.field, out, rhs.ncols)

    def nullspace(self):
        f = self.field
        p = f.characteristic
        red, pivots = self.rref()
        basis = []
        for fc in range(self.ncols):
            if fc in pivots:
                continue
            v = [f.zero] * self.ncols
            v[fc] = f.one
            for r, pc in enumerate(pivots):
                v[pc] = -red.rows[r][fc] % p if p else -red.rows[r][fc]
            basis.append(Dense(f, [[a] for a in v], 1))
        return basis

    def inverse(self):
        n = self.nrows
        eye = Dense(self.field, [[self.field.one if i == j else 0
                                  for j in range(n)] for i in range(n)], n)
        red, pivots = self.hstack(eye).rref()
        if pivots[:n] != list(range(n)):
            return None
        return red.submatrix(range(n), range(n, 2 * n))

    def is_zero(self):
        return not any(a for r in self.rows for a in r)

    def is_identity(self):
        return self.nrows == self.ncols and all(
            a == (1 if i == j else 0)
            for i, r in enumerate(self.rows) for j, a in enumerate(r))


def _assert_canonical(m):
    """Stored rows hold no zero and, over F_p, only ints in range(p); equal
    matrices built by the dense constructor compare and hash equal."""
    f = m.field
    p = f.characteristic
    assert len(m._nz) == m.nrows
    for r in m._nz:
        for j, a in r.items():
            assert type(j) is int and 0 <= j < m.ncols
            assert a, "stored zero"
            if p:
                assert type(a) is int and 0 < a < p
            else:
                assert type(a) in (int, Fraction)
    dense = Matrix(f, m.rows, ncols=m.ncols)
    assert dense == m and m == dense and hash(dense) == hash(m)


def _agrees(got, ref):
    assert got.shape == (ref.nrows, ref.ncols)
    assert got.rows == ref.rows
    _assert_canonical(got)


# nonzero scalars of both fields, fractional ones over QQ
_NONZERO = st.sampled_from([(1, 1), (-1, 1), (2, 1), (3, 1), (1, 2),
                            (-2, 3), (3, 4)])


@st.composite
def monomials(draw, f, n):
    """An n x n monomial matrix over f: the shared identity, a permutation
    matrix, or a permutation matrix with its rows scaled by nonzeros."""
    kind = draw(st.sampled_from(["identity", "permutation", "scaled"]))
    if kind == "identity":
        return Matrix.identity(f, n)
    perm = draw(st.permutations(range(n)))
    scales = [f.of(*draw(_NONZERO)) if kind == "scaled" else f.one
              for _ in range(n)]
    return Matrix(f, [[scales[i] if j == perm[i] else f.zero
                       for j in range(n)] for i in range(n)], ncols=n)


@st.composite
def reference_operands(draw):
    """(a, b, c, s): a is m x k and b is k x n; c has a's shape and is drawn
    free, as -a or as a, so that sums and differences cancel; s is a
    scalar.  Shapes may be empty; in half the draws all three are square
    of one size.  A square matrix may be drawn monomial (see `monomials`),
    and over QQ a matrix may hold its integral entries as `Fraction`s."""
    f = draw(FIELD)
    m, k, n = draw(_dim()), draw(_dim()), draw(_dim())
    if draw(st.booleans()):
        k = n = m

    def matrix(m, n):
        if m == n and draw(st.booleans()):
            return draw(monomials(f, n))
        if f == QQ and draw(st.booleans()):
            return draw(_fraction_matrix(m, n))
        return draw(_matrix(f, m, n))

    a, b = matrix(m, k), matrix(k, n)
    c = draw(st.sampled_from([matrix(m, k), -a, a]))
    return a, b, c, f.of(*draw(_ENTRY))


@PROPS
@given(reference_operands())
def test_arithmetic_matches_the_dense_reference(ops):
    a, b, c, s = ops
    da, db, dc = map(Dense.of, (a, b, c))
    _agrees(a * b, da.mul(db))
    _agrees(a + c, da.add(dc))
    _agrees(a - c, da.sub(dc))
    _agrees(-a, da.neg())
    _agrees(a.scale(s), da.scale(s))
    _agrees(a.transpose(), da.transpose())
    _agrees(a.transpose() * c, da.transpose().mul(dc))
    assert (a - c).is_zero() == da.sub(dc).is_zero()
    assert a.is_identity() == da.is_identity()
    sq = a * a.transpose()
    assert sq.is_identity() == da.mul(da.transpose()).is_identity()


@PROPS
@given(reference_operands())
def test_structure_matches_the_dense_reference(ops):
    a, b, c, _ = ops
    da, db, dc = map(Dense.of, (a, b, c))
    _agrees(a.kron(b), da.kron(db))
    _agrees(b.kron(a), db.kron(da))
    _agrees(a.hstack(c), da.hstack(dc))
    _agrees(a.vstack(c), da.vstack(dc))
    rows = list(range(a.nrows))[::-1]
    cols = list(range(a.ncols))[1::2] + list(range(a.ncols))[::2]
    _agrees(a.submatrix(rows, cols), da.submatrix(rows, cols))
    _agrees(a.submatrix(rows, range(a.ncols)),
            da.submatrix(rows, range(a.ncols)))
    f = a.field
    layout = ([a.nrows, b.nrows, c.nrows], [a.ncols, b.ncols])
    placed = {(0, 1): Matrix.zero(f, a.nrows, b.ncols), (1, 1): b,
              (2, 0): c, (2, 1): Matrix.zero(f, c.nrows, b.ncols)}
    _agrees(Matrix.block(f, *layout, {(0, 0): a, **placed}),
            Dense.block(f, *layout, {(0, 0): da, (1, 1): db, (2, 0): dc}))
    _agrees(Matrix.direct_sum(f, [a, b, c]),
            Dense.block(f, [a.nrows, b.nrows, c.nrows],
                        [a.ncols, b.ncols, c.ncols],
                        {(0, 0): da, (1, 1): db, (2, 2): dc}))
    # shared identities as factors and as blocks, on and off the diagonal
    eye_m, eye_n = Matrix.identity(f, a.nrows), Matrix.identity(f, b.ncols)
    de_m, de_n = Dense.of(eye_m), Dense.of(eye_n)
    _agrees(eye_m * a, de_m.mul(da))
    _agrees(b * eye_n, db.mul(de_n))
    _agrees(eye_m.kron(a), de_m.kron(da))
    _agrees(a.kron(eye_n), da.kron(de_n))
    _agrees(eye_m.kron(eye_n), de_m.kron(de_n))
    _agrees(Matrix.direct_sum(f, [eye_m, eye_n]),
            Dense.block(f, [a.nrows, b.ncols], [a.nrows, b.ncols],
                        {(0, 0): de_m, (1, 1): de_n}))
    _agrees(Matrix.direct_sum(f, [eye_m, a, eye_n]),
            Dense.block(f, [a.nrows, a.nrows, b.ncols],
                        [a.nrows, a.ncols, b.ncols],
                        {(0, 0): de_m, (1, 1): da, (2, 2): de_n}))
    layout = ([a.nrows, b.ncols], [a.nrows, b.ncols])
    _agrees(Matrix.block(f, *layout, {(0, 0): eye_m}),
            Dense.block(f, *layout, {(0, 0): de_m}))
    _agrees(Matrix.block(f, *layout, {(1, 1): eye_n}),
            Dense.block(f, *layout, {(1, 1): de_n}))
    zero = Matrix.zero(f, a.nrows, b.ncols)
    _agrees(Matrix.block(f, *layout, {(0, 0): eye_m, (0, 1): zero,
                                      (1, 1): eye_n}),
            Dense.block(f, *layout, {(0, 0): de_m, (0, 1): Dense.of(zero),
                                     (1, 1): de_n}))


@PROPS
@given(reference_operands())
def test_elimination_matches_the_dense_reference(ops):
    a, b, c, _ = ops
    da, dc = Dense.of(a), Dense.of(c)
    (red, pivots), (dred, dpivots) = a.rref(), da.rref()
    assert pivots == dpivots
    _agrees(red, dred)
    basis, dbasis = a.nullspace(), da.nullspace()
    assert len(basis) == len(dbasis)
    for v, dv in zip(basis, dbasis):
        _agrees(v, dv)
    for rhs in (a * b, c.transpose().transpose()):
        x, dx = a.solve(rhs), da.solve(Dense.of(rhs))
        assert (x is None) == (dx is None)
        if x is not None:
            _agrees(x, dx)
    f = a.field
    sq = a * a.transpose() + Matrix.identity(f, a.nrows)
    for x in (sq, a, a.kron(a)) if a.nrows == a.ncols else (sq,):
        dx = Dense.of(x)
        dinv = dx.inverse()
        assert x.is_invertible() == (dinv is not None)
        assert x.rank() == len(dx.rref()[1])
        if dinv is None:
            with pytest.raises(SingularMatrixError):
                x.inverse()
            continue
        inv = x.inverse()
        _agrees(inv, dinv)
        assert str(inv) == str(Matrix(f, dinv.rows, ncols=dinv.ncols))


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_shared_identity_is_left_as_it_was(field):
    """Results share row dicts with their operands, so no operation on the
    shared identity, or with it, may change it."""
    eye = Matrix.identity(field, 3)
    assert Matrix.identity(field, 3) is eye
    a = Matrix(field, [[field.of(x) for x in r]
                       for r in ([0, 2, 0], [1, 0, 3], [0, 0, 0])])
    assert eye * a is a and a * eye is a and eye * eye is eye
    assert eye.transpose() is eye and eye.scale(field.one) is eye
    assert eye.inverse() is eye
    assert eye.kron(Matrix.identity(field, 2)) is Matrix.identity(field, 6)
    assert Matrix.direct_sum(field, [eye, Matrix.identity(field, 0), eye]) \
        is Matrix.identity(field, 6)
    used = [eye.hstack(a), a.hstack(eye), eye.vstack(a), eye.scale(2),
            eye.scale(field.zero), -eye, eye + a, a - eye, eye.kron(a),
            a.kron(eye), eye.hstack(a).rref()[0], (a + eye).solve(eye),
            (a + eye).inverse(), Matrix.block(field, [3, 3], [3, 3],
                                              {(0, 1): eye, (1, 0): eye})]
    assert all(m.field == field for m in used)
    assert eye.is_identity() and Matrix.identity(field, 3) is eye
    assert eye.rows == ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    assert str(eye) == "[[1, 0, 0], [0, 1, 0], [0, 0, 1]]"
    _assert_canonical(eye)
    assert eye == Matrix(field, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_one_nonzero_per_row_in_a_repeated_column_is_singular(field):
    a = Matrix(field, [[0, field.of(2)], [0, field.of(3)]])
    assert a.rank() == 1 and not a.is_invertible()
    with pytest.raises(SingularMatrixError):
        a.inverse()


@pytest.mark.parametrize("field", [QQ, GF(5)])
def test_cancelling_sums_store_no_zero(field):
    one = field.one
    a = Matrix(field, [[one, one], [one, 0]])
    b = Matrix(field, [[one, 0], [field.of(-1), one]])
    prod = a * b                       # row 0: 1 - 1 = 0 in column 0
    assert prod.rows == ((0, one), (one, 0))
    for m in (prod, a - a, a + (-a), a.scale(field.zero), a * b - a * b):
        _assert_canonical(m)
    assert (a - a).is_zero() and (a - a) == Matrix.zero(field, 2, 2)
    assert hash(a - a) == hash(Matrix.zero(field, 2, 2))
    assert prod == Matrix(field, [[0, one], [one, 0]])
    assert hash(prod) == hash(Matrix(field, [[0, one], [one, 0]]))


def test_integral_fractions_compare_and_hash_as_ints():
    a = Matrix(QQ, [[Fraction(2), Fraction(0)], [Fraction(1, 2), 3]])
    b = Matrix(QQ, [[2, 0], [Fraction(1, 2), Fraction(3)]])
    assert a == b and hash(a) == hash(b)
    _assert_canonical(a)
    _assert_canonical(a * b)
    assert (a - b).is_zero()
