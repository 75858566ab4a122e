"""Exact sparse matrices over a coefficient field.

Matrices are immutable and act on column vectors: a Matrix of shape (m, n)
maps k^n -> k^m and composition is `a * b` = "a after b".  Pivoting is
deterministic (first nonzero entry scanning top-down), so every derived
basis is reproducible bit for bit.

Storage is sparse by rows: row i is a dict {column: value} of its nonzero
entries, and the matrix holds the tuple of those dicts.  Every operation
walks nonzeros only, so a product, a Kronecker product, a block matrix or
an elimination costs what its nonzeros cost, and an identity is simply one
entry per row.  The form is canonical, so `__eq__` compares the row dicts
and `__hash__` hashes their items:

- a row dict never stores a zero, and the order of its keys is free;
- over F_p every entry is an int in `range(p)` (see `fields`);
- over Q an entry is an int when it is integral and a `Fraction`
  otherwise.  A `Fraction` meets an int only in exact mixed arithmetic,
  and the integral `Fraction`s that leaves behind are equal, hash equal
  and print equal to the ints, so no loop normalises its results;
- row dicts are never mutated once stored, so results share them freely:
  a product row taken from one row of `other` with coefficient 1, a block
  placed at column 0, the rows of a stack, and the one empty dict of every
  zero row.

`__mul__` adds up unreduced products along each output row and reduces the
row once over F_p (delayed modular reduction); every other operation that
computes an entry reduces it, so zeros are tested by truthiness.

Identities and monomial matrices cost nothing.  `Matrix.identity(field,
n)` is one shared instance per (field, n), flagged as the identity (its
class is `_Identity`).  A product with a flagged factor returns the
other factor; a Kronecker product or a direct sum of flagged identities
returns the shared identity of the result's size; `transpose`, `inverse`
and `scale(1)` hand a flagged identity back as it is.  A square matrix
is monomial when every row holds exactly one nonzero and those nonzeros
sit in distinct columns, as in an identity or a permutation.  `rank`,
`is_invertible` and `inverse` answer a monomial matrix in O(n) with no
elimination: its inverse has 1/a at (j, i) for the nonzero a at (i, j),
computed with `field.inv`.  The inverse is unique, so that is the matrix
elimination would return.  A matrix that merely equals an identity takes
the monomial path, not the flagged one.

`rows`, the dense row tuples, is a derived view, computed on first read and
cached.  A matrix built from dense rows keeps those rows as its view.  Row
storage is private to this module: no other module reads `rows` or the
sparse rows.  Callers read a matrix through `entry`, `entries` (the
row-major flatten), `column_entries` and `shape`, build one back with
`from_entries`, and solve for coordinates with `coordinates`.
"""

from __future__ import annotations

from functools import reduce
from itertools import accumulate


class SingularMatrixError(Exception):
    pass


class _Rows(tuple):
    """Canonical sparse rows, as built inside this module: a tuple of
    dicts {column: nonzero value}, taken by `Matrix` without a check."""

    __slots__ = ()


_EMPTY = {}   # the row of every zero row; no stored row dict is mutated


def _shifted(row, off):
    """The sparse row `row` moved right by `off` columns."""
    return {off + j: a for j, a in row.items()} if off and row else row


class Matrix:
    __slots__ = ("_nz", "_rows", "nrows", "ncols", "field", "_hash")
    _unit = False   # True on the shared identities only (`_Identity`)

    def __init__(self, field, rows, ncols=None):
        """The matrix with dense `rows` (sequences of entries).  Inside this
        module `rows` may instead be `_Rows`, taken as they are, with
        `ncols` given."""
        self.field = field
        if type(rows) is _Rows:
            self._nz = rows
            self._rows = None
            self.nrows = len(rows)
            self.ncols = ncols
            return
        # tuple() hands back a row that is a tuple already, so rows taken
        # from another Matrix are not copied
        self._rows = rows = tuple(map(tuple, rows))
        self._nz = tuple({j: a for j, a in enumerate(r) if a} for r in rows)
        self.nrows = len(rows)
        if not rows:
            self.ncols = 0 if ncols is None else ncols
            return
        widths = set(map(len, rows))
        if len(widths) != 1:
            raise ValueError("ragged matrix")
        (self.ncols,) = widths
        if ncols is not None and ncols != self.ncols:
            raise ValueError("ncols=%d, but the rows have %d entries"
                             % (ncols, self.ncols))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def identity(field, n):
        """The n x n identity over `field`: one shared, flagged instance per
        (field, n)."""
        eye = _IDENTITIES.get((field, n))
        if eye is None:
            one = field.one
            eye = _IDENTITIES[field, n] = _Identity(
                field, _Rows({i: one} for i in range(n)), n)
        return eye

    @staticmethod
    def zero(field, m, n):
        return Matrix(field, _Rows((_EMPTY,) * m), n)

    @staticmethod
    def from_int_rows(field, rows):
        return Matrix(field, [[field.of(x) for x in r] for r in rows])

    @staticmethod
    def column(field, entries):
        return Matrix(field, _Rows({0: a} if a else _EMPTY for a in entries),
                      1)

    @staticmethod
    def from_entries(field, entries, m, n):
        """The m x n matrix with the row-major `entries`; the inverse of
        `entries()`."""
        entries = tuple(entries)
        assert len(entries) == m * n, \
            "%d entries for a %dx%d matrix" % (len(entries), m, n)
        return Matrix(field, _Rows(
            {j: a for j, a in enumerate(entries[i * n:(i + 1) * n]) if a}
            or _EMPTY for i in range(m)), n)

    # -- basics ------------------------------------------------------------

    @property
    def shape(self):
        return (self.nrows, self.ncols)

    @property
    def rows(self):
        """The dense rows, as a tuple of tuples (a derived, cached view)."""
        rows = self._rows
        if rows is None:
            zero, n = self.field.zero, self.ncols
            out = []
            for r in self._nz:
                row = [zero] * n
                for j, a in r.items():
                    row[j] = a
                out.append(tuple(row))
            self._rows = rows = tuple(out)
        return rows

    def __eq__(self, other):
        return self is other or (
            isinstance(other, Matrix) and self.nrows == other.nrows
            and self.ncols == other.ncols and self._nz == other._nz
            and self.field == other.field)

    def __hash__(self):
        # matrices are immutable, so the hash is computed once, on first use;
        # a frozenset of items does not depend on the order of a row's keys
        try:
            return self._hash
        except AttributeError:
            self._hash = h = hash((self.nrows, self.ncols, tuple(
                frozenset(r.items()) for r in self._nz)))
            return h

    def __repr__(self):
        return "Matrix(%dx%d, %s)" % (self.nrows, self.ncols, self)

    def __str__(self):
        # entries by str, so 2 and Fraction(2) both print as 2
        return "[%s]" % ", ".join("[%s]" % ", ".join(map(str, r))
                                  for r in self.rows)

    def entry(self, i, j):
        return self._nz[i].get(j, self.field.zero)

    def entries(self):
        """All entries, row by row, as one tuple."""
        n = self.ncols
        out = [self.field.zero] * (self.nrows * n)
        for i, r in enumerate(self._nz):
            base = i * n
            for j, a in r.items():
                out[base + j] = a
        return tuple(out)

    def column_entries(self, j=0):
        """The entries of column j, top to bottom, as a list."""
        zero = self.field.zero
        return [r.get(j, zero) for r in self._nz]

    def transpose(self):
        if self._unit:
            return self
        out = [{} for _ in range(self.ncols)]
        for i, r in enumerate(self._nz):
            for j, a in r.items():
                out[j][i] = a
        return Matrix(self.field, _Rows(c or _EMPTY for c in out), self.nrows)

    def _like(self, rows):
        """A matrix of this field and width with the sparse `rows`."""
        return Matrix(self.field, _Rows(rows), self.ncols)

    def _plus(self, other, c):
        """self + c * other, for c = 1 or -1."""
        assert self.shape == other.shape
        p = self.field.characteristic
        out = []
        for r, s in zip(self._nz, other._nz):
            if not s:
                out.append(r)
                continue
            row = dict(r)
            get = row.get
            for j, b in s.items():
                v = get(j, 0) + c * b
                if p:
                    v %= p
                if v:
                    row[j] = v
                else:
                    del row[j]
            out.append(row or _EMPTY)
        return self._like(out)

    def __add__(self, other):
        return self._plus(other, 1)

    def __sub__(self, other):
        return self._plus(other, -1)

    def __neg__(self):
        return self.scale(-self.field.one)

    def scale(self, c):
        p = self.field.characteristic
        if p:
            c %= p
        if not c:
            return Matrix.zero(self.field, self.nrows, self.ncols)
        if c == self.field.one:
            return self
        if p:
            return self._like({j: c * a % p for j, a in r.items()}
                              for r in self._nz)
        return self._like({j: c * a for j, a in r.items()} for r in self._nz)

    def __mul__(self, other):
        assert self.ncols == other.nrows, \
            "shape mismatch %s * %s" % (self.shape, other.shape)
        if other._unit:
            return self
        if self._unit:
            return other
        one = self.field.one
        p = self.field.characteristic
        onz = other._nz
        out = []
        append = out.append
        for r in self._nz:
            if len(r) == 1:
                # one product, so no sum and nothing cancels; a coefficient
                # 1 takes the row of `other` as it is
                [(j, a)] = r.items()
                if a == one:
                    append(onz[j])
                elif p:
                    append({t: a * b % p for t, b in onz[j].items()})
                else:
                    append({t: a * b for t, b in onz[j].items()})
                continue
            if not r:
                append(_EMPTY)
                continue
            acc = None
            for j, a in r.items():
                brow = onz[j]
                if acc is None:
                    acc = (dict(brow) if a == one
                           else {t: a * b for t, b in brow.items()})
                    get = acc.get
                elif a == one:
                    for t, b in brow.items():
                        acc[t] = get(t, 0) + b
                else:
                    for t, b in brow.items():
                        acc[t] = get(t, 0) + a * b
            # one reduction per row, which also drops what cancelled
            if p:
                row = {t: v for t, w in acc.items() if (v := w % p)}
            else:
                row = {t: v for t, v in acc.items() if v}
            append(row or _EMPTY)
        return Matrix(self.field, _Rows(out), other.ncols)

    def is_zero(self):
        return not any(self._nz)

    def is_identity(self):
        if self._unit:
            return True
        one = self.field.one
        return self.nrows == self.ncols and all(
            len(r) == 1 and r.get(i) == one for i, r in enumerate(self._nz))

    # -- block operations ----------------------------------------------------

    def hstack(self, other):
        assert self.nrows == other.nrows
        n = self.ncols
        return Matrix(self.field, _Rows(
            {**r, **_shifted(s, n)} if r and s else r or _shifted(s, n)
            for r, s in zip(self._nz, other._nz)), n + other.ncols)

    def vstack(self, other):
        assert self.ncols == other.ncols, \
            "vstack mismatch %s %s" % (self.shape, other.shape)
        return self._like(self._nz + other._nz)

    @staticmethod
    def block(field, row_dims, col_dims, placed):
        """The matrix with row blocks of heights `row_dims` and column blocks
        of widths `col_dims` that is zero except for `placed[(i, j)]` in
        block (i, j)."""
        col_off = list(accumulate(col_dims, initial=0))
        parts = [[] for _ in row_dims]
        for (i, j), b in placed.items():
            assert b.shape == (row_dims[i], col_dims[j]), \
                "block (%d, %d) has shape %s" % (i, j, b.shape)
            parts[i].append((col_off[j], b._nz))
        out = []
        for h, part in zip(row_dims, parts):
            if not part:
                out.extend((_EMPTY,) * h)
                continue
            if len(part) == 1:
                ((off, nz),) = part
                out.extend(({off + j: a for j, a in r.items()} if r else r
                            for r in nz) if off else nz)
                continue
            for k in range(h):
                row = {}
                for off, nz in part:
                    if nz[k]:
                        row.update(_shifted(nz[k], off))
                out.append(row or _EMPTY)
        return Matrix(field, _Rows(out), col_off[-1])

    @staticmethod
    def direct_sum(field, blocks):
        if all(b._unit for b in blocks):
            return Matrix.identity(field, sum(b.nrows for b in blocks))
        return Matrix.block(field, [b.nrows for b in blocks],
                            [b.ncols for b in blocks],
                            {(i, i): b for i, b in enumerate(blocks)})

    def kron(self, other):
        """Kronecker product; index flattening is row-major, so kron is
        strictly associative and kron with a 1x1 identity is the identity
        operation on the nose."""
        if self._unit and other._unit:
            return Matrix.identity(self.field, self.nrows * other.nrows)
        one = self.field.one
        p = self.field.characteristic
        q = other.ncols
        bnz = other._nz
        out = []
        append = out.append
        for arow in self._nz:
            if len(arow) == 1:
                # the rows of `other`, scaled and moved right as a block
                [(j, a)] = arow.items()
                off = j * q
                if a == one:
                    out.extend({off + t: b for t, b in brow.items()}
                               if off and brow else brow for brow in bnz)
                elif p:
                    out.extend({off + t: a * b % p for t, b in brow.items()}
                               for brow in bnz)
                else:
                    out.extend({off + t: a * b for t, b in brow.items()}
                               for brow in bnz)
                continue
            for brow in bnz:
                if not arow or not brow:
                    append(_EMPTY)
                elif len(brow) == 1:
                    [(t, b)] = brow.items()
                    if b == one:
                        append({j * q + t: a for j, a in arow.items()})
                    elif p:
                        append({j * q + t: a * b % p
                                for j, a in arow.items()})
                    else:
                        append({j * q + t: a * b for j, a in arow.items()})
                else:
                    row = {}
                    for j, a in arow.items():
                        if a == one:
                            row.update(_shifted(brow, j * q))
                        elif p:
                            row.update({j * q + t: a * b % p
                                        for t, b in brow.items()})
                        else:
                            row.update({j * q + t: a * b
                                        for t, b in brow.items()})
                    append(row)
        return Matrix(self.field, _Rows(out), self.ncols * q)

    def submatrix(self, row_idx, col_idx):
        """The rows `row_idx` and the distinct columns `col_idx`, in the
        order given."""
        col_idx = list(col_idx)
        nz = self._nz
        if col_idx == list(range(self.ncols)):
            return Matrix(self.field, _Rows(nz[i] for i in row_idx),
                          self.ncols)
        new = {j: k for k, j in enumerate(col_idx)}
        assert len(new) == len(col_idx), "repeated column"
        get = new.get
        return Matrix(self.field, _Rows(
            {k: a for j, a in nz[i].items() if (k := get(j)) is not None}
            or _EMPTY for i in row_idx), len(col_idx))

    # -- elimination ---------------------------------------------------------

    def rref(self):
        """Reduced row echelon form.  Returns (R, pivot column list)."""
        f = self.field
        p = f.characteristic
        rows = list(self._nz)
        m, n = self.nrows, self.ncols
        # Every row at or below r has its entries in columns at or after the
        # current pivot column, so the next pivot column is the least leading
        # column among them, and the first row top-down that leads with it is
        # the first nonzero of that column.
        lead = [min(r, default=n) for r in rows]
        pivots = []
        r = 0
        while r < m:
            c = min(lead[r:])
            if c == n:
                break
            pr = lead.index(c, r)
            rows[r], rows[pr] = rows[pr], rows[r]
            lead[r], lead[pr] = lead[pr], lead[r]
            prow = rows[r]
            inv = f.inv(prow[c])
            if inv != 1:
                # over F_p each row operation reduces, so zeros are tested
                # by truthiness
                prow = rows[r] = ({j: inv * a % p for j, a in prow.items()}
                                  if p else
                                  {j: inv * a for j, a in prow.items()})
            for i, row in enumerate(rows):
                factor = row.get(c)
                if not factor or i == r:
                    continue
                row = dict(row)
                get = row.get
                for j, b in prow.items():
                    v = get(j, 0) - factor * b
                    if p:
                        v %= p
                    if v:
                        row[j] = v
                    else:
                        del row[j]
                rows[i] = row or _EMPTY
                if i > r:
                    lead[i] = min(row, default=n)
            pivots.append(c)
            r += 1
        return self._like(rows), pivots

    def _monomial(self):
        """The column of each row's one nonzero, in row order, when the
        matrix is square and monomial; None otherwise."""
        if self.nrows != self.ncols:
            return None
        cols = []
        for r in self._nz:
            if len(r) != 1:
                return None
            cols.extend(r)
        return cols if len(set(cols)) == len(cols) else None

    def rank(self):
        if self._monomial() is not None:
            return self.nrows
        return len(self.rref()[1])

    def inverse(self):
        if self.nrows != self.ncols:
            raise SingularMatrixError("non-square matrix")
        if self._unit:
            return self
        n = self.nrows
        cols = self._monomial()
        if cols is not None:
            inv = self.field.inv
            out = [None] * n
            for i, (r, j) in enumerate(zip(self._nz, cols)):
                out[j] = {i: inv(r[j])}
            return Matrix(self.field, _Rows(out), n)
        aug = self.hstack(Matrix.identity(self.field, n))
        red, pivots = aug.rref()
        if pivots[:n] != list(range(n)):
            raise SingularMatrixError("singular matrix")
        return red.submatrix(range(n), range(n, 2 * n))

    def is_invertible(self):
        return self.nrows == self.ncols and self.rank() == self.nrows

    def solve(self, rhs):
        """One solution x of self*x = rhs (a Matrix of columns), or None."""
        n = self.ncols
        aug = self.hstack(rhs)
        red, pivots = aug.rref()
        if any(p >= n for p in pivots):
            return None
        out = [_EMPTY] * n
        for row, c in zip(red._nz, pivots):
            out[c] = {j - n: a for j, a in row.items() if j >= n} or _EMPTY
        return Matrix(self.field, _Rows(out), rhs.ncols)

    def nullspace(self):
        """Deterministic basis of the right kernel, as a list of column
        matrices."""
        f = self.field
        p = f.characteristic
        red, pivots = self.rref()
        n = self.ncols
        is_pivot = set(pivots)
        # basis vector of free column fc: 1 at fc, -R[r][fc] at pivot r's
        # column; in RREF a row's only entries are its pivot and free columns
        basis = {fc: {fc: f.one} for fc in range(n) if fc not in is_pivot}
        for row, pc in zip(red._nz, pivots):
            for j, a in row.items():
                if j != pc:
                    basis[j][pc] = -a % p if p else -a
        out = []
        for v in basis.values():
            col = [_EMPTY] * n
            for i, a in v.items():
                col[i] = {0: a}
            out.append(Matrix(f, _Rows(col), 1))
        return out


class _Identity(Matrix):
    """The class of the shared identities of `Matrix.identity`."""

    __slots__ = ()
    _unit = True


_IDENTITIES = {}   # (field, n) -> the shared n x n identity over field


def coordinates(field, vectors, targets):
    """The coefficients of each target in the span of `vectors`, by one
    `Matrix.solve` for all targets: for each target t a list c with
    t = sum(c[i] * vectors[i]).  Vectors and targets are entry sequences
    of one length; None if any target lies outside the span."""
    if not targets:
        return []
    n = len(targets[0])
    a, b = (Matrix.from_entries(field, (x for v in vs for x in v), len(vs),
                                n).transpose() for vs in (vectors, targets))
    sol = a.solve(b)
    if sol is None:
        return None
    return [sol.column_entries(j) for j in range(len(targets))]


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
