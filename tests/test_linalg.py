"""Property tests for the exact matrix core over QQ and GF(5).

Entries are drawn rich in 0 and 1, the values the inner loops of
`Matrix.__mul__`, `kron` and `rref` single out.  Every property is checked
against a definition or a plain reference written here.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from sixff.fields import GF, QQ
from sixff.linalg import Matrix, stack_columns, stack_rows

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
                t = rows[i][c] * f.inv(rows[r][c])
                rows[i] = [x - t * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
    for r in reversed(range(len(pivots))):
        c = pivots[r]
        s = f.inv(rows[r][c])
        rows[r] = [s * x for x in rows[r]]
        for i in range(r):
            t = rows[i][c]
            rows[i] = [x - t * y for x, y in zip(rows[i], rows[r])]
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
                acc = acc + a.rows[i][k] * b.rows[k][j]
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
                        a.rows[i][j] * b.rows[k][t]


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
