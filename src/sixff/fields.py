"""Exact coefficient fields: the rationals and prime fields F_p.

Every computation in the engine is exact; there is no floating point
anywhere.  A field object carries the arithmetic.  Over Q a scalar is a
plain `int` when it is integral and a `fractions.Fraction` otherwise;
over F_p it is an `int` in `range(p)`.  Python's mixed `int`/`Fraction`
arithmetic is exact, and an integral `Fraction` that a product leaves
behind compares, hashes and prints (`str`) like the equal `int`, so
`linalg.Matrix` needs no normalising pass.  Every scalar prints by `str`
as the report shows it (`1/2`, `3`), and zero is its only falsy value.
`PrimeField.of` and `inv` return reduced ints and `linalg.Matrix` reduces
what it computes, so an F_p entry is never an unreduced int.
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
    """A boxed element of F_p.  Nothing in sixff constructs it: F_p scalars
    are ints in `range(p)`.  It is kept only because the benchmark's
    count-only tracer wraps its `__init__` to count F_p allocations (which
    now reads 0)."""

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


def _rational(q):
    """The Q scalar of the Fraction q: its numerator when it is integral."""
    return q.numerator if q.denominator == 1 else q


class RationalField:
    """The rationals, with integral scalars held as ints.  `zero` and `one`
    are `0` and `1`; they stay properties, as in `PrimeField`, so that the
    benchmark's count-only tracer can count reads of them."""

    characteristic = 0
    name = "Q"

    def of(self, n, d=1):
        """n / d, an int when d divides n."""
        return _rational(Fraction(n, d))

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def inv(self, x):
        if not x:
            raise ZeroDivisionError("inverse of 0")
        # never 1 / x: on an int that is a float
        return _rational(1 / Fraction(x))

    def __repr__(self):
        return "QQ"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("QQ")


class PrimeField:
    """F_p, with scalars the ints in `range(p)`.  `zero` and `one` stay
    properties, as in `RationalField`, so that the benchmark's count-only
    tracer can count reads of them."""

    def __init__(self, p):
        if p < 2 or any(p % q == 0 for q in range(2, int(p ** 0.5) + 1)):
            raise ValueError("modulus %r is not prime" % (p,))
        self.p = p
        self.characteristic = p
        self.name = "F%d" % p

    def of(self, n, d=1):
        """n / d reduced into range(p)."""
        if d == 1:
            return n % self.p
        return n * self.inv(d) % self.p

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def inv(self, x):
        p = self.p
        if x % p == 0:
            raise ZeroDivisionError("inverse of 0 in F_%d" % p)
        return pow(x, p - 2, p)

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
        n = len(groupoid.hom(x, x))
        if n % p == 0:
            raise GateError(
                "char %d divides |Aut(%r)| = %d" % (p, x, n))
