"""Exact coefficient fields: the rationals and prime fields F_p.

Every computation in the engine is exact; there is no floating point
anywhere.  A field object carries the arithmetic, and scalars are either
`fractions.Fraction` (characteristic 0) or `FpElement` (characteristic p).
"""

from __future__ import annotations

from fractions import Fraction


class GateError(Exception):
    """Raised when the semisimplicity gate fails: char(k) divides an
    automorphism-group order of the base groupoid."""


class TheoremViolation(Exception):
    """A certified identity failed.  This never fires on valid input; its
    firing is a bug alarm, not an expected outcome."""


class FpElement:
    """An element of F_p.  Supports +, -, *, ==, hash; division goes
    through the field object."""

    __slots__ = ("val", "p")

    def __init__(self, val, p):
        self.val = val % p
        self.p = p

    def __add__(self, other):
        return FpElement(self.val + other.val, self.p)

    def __sub__(self, other):
        return FpElement(self.val - other.val, self.p)

    def __mul__(self, other):
        return FpElement(self.val * other.val, self.p)

    def __neg__(self):
        return FpElement(-self.val, self.p)

    def __eq__(self, other):
        return isinstance(other, FpElement) and self.val == other.val and self.p == other.p

    def __hash__(self):
        return hash((self.val, self.p))

    def __bool__(self):
        return self.val != 0

    def __repr__(self):
        return "%d" % self.val


_Q_ZERO, _Q_ONE = Fraction(0), Fraction(1)


class RationalField:
    """The rationals.  `zero` and `one` are shared constants (scalars are
    immutable), so reading them in a matrix loop allocates nothing."""

    characteristic = 0
    name = "Q"

    def of(self, n, d=1):
        return Fraction(n, d)

    @property
    def zero(self):
        return _Q_ZERO

    @property
    def one(self):
        return _Q_ONE

    def inv(self, x):
        if x == 0:
            raise ZeroDivisionError("inverse of 0")
        return 1 / x

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    """F_p.  `zero` and `one` are built once per field object."""

    def __init__(self, p):
        if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
            raise ValueError("modulus %r is not prime" % (p,))
        self.p = p
        self.characteristic = p
        self.name = "F%d" % p
        self._zero = FpElement(0, p)
        self._one = FpElement(1, p)

    def of(self, n, d=1):
        x = FpElement(n, self.p)
        if d != 1:
            x = x * self.inv(FpElement(d, self.p))
        return x

    @property
    def zero(self):
        return self._zero

    @property
    def one(self):
        return self._one

    def inv(self, x):
        if x.val == 0:
            raise ZeroDivisionError("inverse of 0 in F_%d" % self.p)
        return FpElement(pow(x.val, self.p - 2, self.p), self.p)

    def __repr__(self):
        return "GF(%d)" % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("GF", self.p))


QQ = RationalField()


def GF(p):
    return PrimeField(p)


def parse_field(spec):
    """Parse a field flag: "q" for the rationals, "fp:P" for F_P."""
    s = spec.strip().lower()
    if s in ("q", "qq", "rational", "rationals"):
        return QQ
    if s.startswith("fp:"):
        return GF(int(s[3:]))
    if s.startswith("f") and s[1:].isdigit():
        return GF(int(s[1:]))
    raise ValueError("unknown field spec %r" % spec)


def check_gate(field, groupoid):
    """Semisimplicity gate: char(k) must not divide any automorphism-group
    order of the groupoid.  Raises GateError on violation."""
    p = field.characteristic
    if p == 0:
        return
    for x in groupoid.objects:
        n = sum(1 for m in groupoid.morphisms
                if groupoid.src[m] == x and groupoid.dst[m] == x)
        if n % p == 0:
            raise GateError(
                "char %d divides |Aut(%r)| = %d" % (p, x, n))
