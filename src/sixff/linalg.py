"""Exact dense matrices over a coefficient field.

Matrices are immutable, row-major, and act on column vectors: a Matrix of
shape (m, n) maps k^n -> k^m and composition is `a * b` = "a after b".
Pivoting is deterministic (first nonzero entry scanning top-down), so every
derived basis is reproducible bit for bit.  Inner loops test an entry for
zero by truthiness (`Fraction` and `FpElement` both define it) and read the
field's constants once, outside the loop.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate


class SingularMatrixError(Exception):
    pass


class Matrix:
    __slots__ = ("rows", "nrows", "ncols", "field")

    def __init__(self, field, rows, ncols=None):
        self.field = field
        self.rows = tuple(tuple(r) for r in rows)
        self.nrows = len(self.rows)
        if self.rows:
            self.ncols = len(self.rows[0])
        else:
            self.ncols = 0 if ncols is None else ncols
        for r in self.rows:
            if len(r) != self.ncols:
                raise ValueError("ragged matrix")

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(field, n):
        one, zero = field.one, field.zero
        return Matrix(field, [[one if i == j else zero for j in range(n)]
                              for i in range(n)])

    @staticmethod
    def zero(field, m, n):
        z = field.zero
        return Matrix(field, [[z] * n for _ in range(m)], ncols=n)

    @staticmethod
    def from_int_rows(field, rows):
        return Matrix(field, [[field.of(x) for x in r] for r in rows])

    @staticmethod
    def column(field, entries):
        return Matrix(field, [[x] for x in entries], ncols=1)

    # -- basics ------------------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    def __eq__(self, other):
        return (isinstance(other, Matrix) and self.shape == other.shape
                and self.rows == other.rows)

    def __hash__(self):
        return hash((self.shape, self.rows))

    def __repr__(self):
        return "Matrix(%dx%d, %r)" % (self.nrows, self.ncols, self.rows)

    def entry(self, i, j):
        return self.rows[i][j]

    def transpose(self):
        if self.nrows == 0:
            return Matrix(self.field, [()] * self.ncols, ncols=0)
        if self.ncols == 0:
            return Matrix(self.field, [], ncols=self.nrows)
        return Matrix(self.field, list(zip(*self.rows)))

    def __add__(self, other):
        assert self.shape == other.shape
        return Matrix(self.field, [[a + b for a, b in zip(r, s)]
                                   for r, s in zip(self.rows, other.rows)],
                      ncols=self.ncols)

    def __sub__(self, other):
        assert self.shape == other.shape
        return Matrix(self.field, [[a - b for a, b in zip(r, s)]
                                   for r, s in zip(self.rows, other.rows)],
                      ncols=self.ncols)

    def __neg__(self):
        return Matrix(self.field, [[-a for a in r] for r in self.rows],
                      ncols=self.ncols)

    def scale(self, c):
        return Matrix(self.field, [[c * a for a in r] for r in self.rows],
                      ncols=self.ncols)

    def __mul__(self, other):
        assert self.ncols == other.nrows, \
            "shape mismatch %s * %s" % (self.shape, other.shape)
        if self.nrows == 0 or other.ncols == 0:
            return Matrix.zero(self.field, self.nrows, other.ncols)
        zero, one = self.field.zero, self.field.one
        orows = other.rows
        n = other.ncols
        out = []
        for r in self.rows:
            acc = None
            for j, a in enumerate(r):
                if not a:
                    continue
                brow = orows[j]
                if acc is None:
                    if a == one:
                        acc = list(brow)
                    else:
                        acc = [a * b for b in brow]
                elif a == one:
                    acc = [x + b for x, b in zip(acc, brow)]
                else:
                    acc = [x + a * b for x, b in zip(acc, brow)]
            out.append([zero] * n if acc is None else acc)
        return Matrix(self.field, out, ncols=n)

    def is_zero(self):
        return not any(a for r in self.rows for a in r)

    def is_identity(self):
        if self.nrows != self.ncols:
            return False
        one, zero = self.field.one, self.field.zero
        return all(self.rows[i][j] == (one if i == j else zero)
                   for i in range(self.nrows) for j in range(self.ncols))

    # -- block operations ----------------------------------------------------

    def hstack(self, other):
        assert self.nrows == other.nrows
        return Matrix(self.field,
                      [ra + rb for ra, rb in zip(self.rows, other.rows)],
                      ncols=self.ncols + other.ncols)

    def vstack(self, other):
        assert self.ncols == other.ncols, \
            "vstack mismatch %s %s" % (self.shape, other.shape)
        return Matrix(self.field, self.rows + other.rows, ncols=self.ncols)

    @staticmethod
    def block(field, row_dims, col_dims, placed):
        """The matrix with row blocks of heights `row_dims` and column blocks
        of widths `col_dims` that is zero except for `placed[(i, j)]` in
        block (i, j)."""
        row_off = list(accumulate(row_dims, initial=0))
        col_off = list(accumulate(col_dims, initial=0))
        n = col_off[-1]
        zero = field.zero
        out = [[zero] * n for _ in range(row_off[-1])]
        for (i, j), b in placed.items():
            assert b.shape == (row_dims[i], col_dims[j]), \
                "block (%d, %d) has shape %s" % (i, j, b.shape)
            i0, j0 = row_off[i], col_off[j]
            for r, brow in enumerate(b.rows, i0):
                out[r][j0:j0 + b.ncols] = brow
        return Matrix(field, out, ncols=n)

    @staticmethod
    def direct_sum(field, blocks):
        return Matrix.block(field, [b.nrows for b in blocks],
                            [b.ncols for b in blocks],
                            {(i, i): b for i, b in enumerate(blocks)})

    def kron(self, other):
        """Kronecker product; index flattening is row-major, so kron is
        strictly associative and kron with a 1x1 identity is the identity
        operation on the nose."""
        f = self.field
        m, n = self.shape
        p, q = other.shape
        zero = f.zero
        out = [[zero] * (n * q) for _ in range(m * p)]
        for i in range(m):
            for j in range(n):
                a = self.rows[i][j]
                if not a:
                    continue    # out is zero-filled already
                for k in range(p):
                    for l in range(q):
                        out[i * p + k][j * q + l] = a * other.rows[k][l]
        return Matrix(f, out, ncols=n * q)

    def submatrix(self, row_idx, col_idx):
        col_idx = list(col_idx)
        return Matrix(self.field, [[self.rows[i][j] for j in col_idx]
                                   for i in row_idx], ncols=len(col_idx))

    # -- elimination ---------------------------------------------------------

    def rref(self):
        """Reduced row echelon form.  Returns (R, pivot column list)."""
        f = self.field
        rows = [list(r) for r in self.rows]
        m, n = self.nrows, self.ncols
        pivots = []
        r = 0
        for c in range(n):
            pr = None
            for i in range(r, m):
                if rows[i][c]:
                    pr = i
                    break
            if pr is None:
                continue
            rows[r], rows[pr] = rows[pr], rows[r]
            inv = f.inv(rows[r][c])
            rows[r] = [inv * a for a in rows[r]]
            for i in range(m):
                if i != r and rows[i][c]:
                    factor = rows[i][c]
                    rows[i] = [a - factor * b for a, b in zip(rows[i], rows[r])]
            pivots.append(c)
            r += 1
            if r == m:
                break
        return Matrix(f, rows, ncols=n), pivots

    def rank(self):
        return len(self.rref()[1])

    def inverse(self):
        if self.nrows != self.ncols:
            raise SingularMatrixError("non-square matrix")
        n = self.nrows
        aug = self.hstack(Matrix.identity(self.field, n))
        red, pivots = aug.rref()
        if pivots[:n] != list(range(n)):
            raise SingularMatrixError("singular matrix")
        return red.submatrix(range(n), range(n, 2 * n))

    def is_invertible(self):
        if self.nrows != self.ncols:
            return False
        return self.rank() == self.nrows

    def solve(self, rhs):
        """One solution x of self*x = rhs (a Matrix of columns), or None."""
        n = self.ncols
        aug = self.hstack(rhs)
        red, pivots = aug.rref()
        if any(p >= n for p in pivots):
            return None
        f = self.field
        zero = f.zero
        out = [[zero] * rhs.ncols for _ in range(n)]
        for r, c in enumerate(pivots):
            for j in range(rhs.ncols):
                out[c][j] = red.rows[r][n + j]
        return Matrix(f, out, ncols=rhs.ncols)

    def nullspace(self):
        """Deterministic basis of the right kernel, as a list of column
        matrices."""
        f = self.field
        red, pivots = self.rref()
        n = self.ncols
        free = [c for c in range(n) if c not in pivots]
        zero, one = f.zero, f.one
        basis = []
        for fc in free:
            v = [zero] * n
            v[fc] = one
            for r, pc in enumerate(pivots):
                v[pc] = -red.rows[r][fc]
            basis.append(Matrix.column(f, v))
        return basis


def stack_columns(field, cols, nrows):
    """Join column blocks left to right (empty list allowed)."""
    if not cols:
        return Matrix.zero(field, nrows, 0)
    return reduce(Matrix.hstack, cols)


def stack_rows(field, rows, ncols):
    """Join row blocks top to bottom (empty list allowed)."""
    if not rows:
        return Matrix.zero(field, 0, ncols)
    return reduce(Matrix.vstack, rows)
