"""Exact dense matrices over a coefficient field.

Matrices are immutable, row-major, and act on column vectors: a Matrix of
shape (m, n) maps k^n -> k^m and composition is `a * b` = "a after b".
Pivoting is deterministic (first nonzero entry scanning top-down), so every
derived basis is reproducible bit for bit.  Inner loops test an entry for
zero by truthiness (`Fraction` and `int` both define it) and read the
field's constants once, outside the loop.

Over F_p every entry is an int in `range(p)` (see `fields`).  `__mul__`
adds up unreduced products along each output row and reduces the row once
(delayed modular reduction); every other operation that computes an entry
reduces it, so `rref` can test zeros by truthiness.  Over Q an entry is an
int when it is integral and a `Fraction` otherwise, so the loops over the
mostly small integral entries run on Python's C-level int arithmetic.  A
`Fraction` meets an int only in exact mixed arithmetic, and the integral
`Fraction`s that leaves behind are equal, hash equal and print equal to
the ints, so no loop normalises its results.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate


class SingularMatrixError(Exception):
    pass


class Matrix:
    __slots__ = ("rows", "nrows", "ncols", "field", "_hash")

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
                and self.rows == other.rows and self.field == other.field)

    def __hash__(self):
        # matrices are immutable, so the hash is computed once, on first use
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash((self.shape, self.rows))
            return h

    def __repr__(self):
        return "Matrix(%dx%d, %s)" % (self.nrows, self.ncols, self)

    def __str__(self):
        # entries by str, so 2 and Fraction(2) both print as 2
        return "[%s]" % ", ".join("[%s]" % ", ".join(map(str, r))
                                  for r in self.rows)

    def entry(self, i, j):
        return self.rows[i][j]

    def transpose(self):
        if self.nrows == 0:
            return Matrix(self.field, [()] * self.ncols, ncols=0)
        if self.ncols == 0:
            return Matrix(self.field, [], ncols=self.nrows)
        return Matrix(self.field, list(zip(*self.rows)))

    def _reduced(self, rows):
        """A matrix of this field and width from freshly computed rows,
        reduced into range(p) over F_p."""
        p = self.field.characteristic
        if p:
            rows = [[a % p for a in r] for r in rows]
        return Matrix(self.field, rows, ncols=self.ncols)

    def __add__(self, other):
        assert self.shape == other.shape
        return self._reduced([[a + b for a, b in zip(r, s)]
                              for r, s in zip(self.rows, other.rows)])

    def __sub__(self, other):
        assert self.shape == other.shape
        return self._reduced([[a - b for a, b in zip(r, s)]
                              for r, s in zip(self.rows, other.rows)])

    def __neg__(self):
        return self._reduced([[-a for a in r] for r in self.rows])

    def scale(self, c):
        return self._reduced([[c * a for a in r] for r in self.rows])

    def __mul__(self, other):
        assert self.ncols == other.nrows, \
            "shape mismatch %s * %s" % (self.shape, other.shape)
        if self.nrows == 0 or other.ncols == 0:
            return Matrix.zero(self.field, self.nrows, other.ncols)
        zero, one = self.field.zero, self.field.one
        p = self.field.characteristic
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
                    acc = brow if a == one else [a * b for b in brow]
                elif a == one:
                    acc = [x + b for x, b in zip(acc, brow)]
                else:
                    acc = [x + a * b for x, b in zip(acc, brow)]
            if acc is None:
                acc = [zero] * n
            elif p and acc is not brow:
                # one reduction per row; a row of `other` taken as it is
                # is reduced already
                acc = [x % p for x in acc]
            out.append(acc)
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
        char = f.characteristic
        m, n = self.shape
        p, q = other.shape
        zero = f.zero
        out = [[zero] * (n * q) for _ in range(m * p)]
        for i, arow in enumerate(self.rows):
            for j, a in enumerate(arow):
                if not a:
                    continue    # out is zero-filled already
                for k, brow in enumerate(other.rows):
                    out[i * p + k][j * q:(j + 1) * q] = (
                        [a * b % char for b in brow] if char
                        else [a * b for b in brow])
        return Matrix(f, out, ncols=n * q)

    def submatrix(self, row_idx, col_idx):
        col_idx = list(col_idx)
        return Matrix(self.field, [[self.rows[i][j] for j in col_idx]
                                   for i in row_idx], ncols=len(col_idx))

    # -- elimination ---------------------------------------------------------

    def rref(self):
        """Reduced row echelon form.  Returns (R, pivot column list)."""
        f = self.field
        p = f.characteristic
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
            # over F_p each row operation reduces, so the pivot search above
            # sees a zero as 0
            if p:
                rows[r] = [inv * a % p for a in rows[r]]
            else:
                rows[r] = [inv * a for a in rows[r]]
            for i in range(m):
                if i != r and rows[i][c]:
                    factor = rows[i][c]
                    if p:
                        rows[i] = [(a - factor * b) % p
                                   for a, b in zip(rows[i], rows[r])]
                    else:
                        rows[i] = [a - factor * b
                                   for a, b in zip(rows[i], rows[r])]
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
        p = f.characteristic
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
            if p:
                v = [a % p for a in v]
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
