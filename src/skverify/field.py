"""Exact arithmetic in the degree-12 cyclotomic field.

Scalars live in Q[t]/(t^4 - t^2 + 1), t being a fixed primitive 12th root of
unity.  This is the smallest field containing every constant the engine needs:

    i      = t^3          (fourth root of unity)
    omega  = t^4          (third root of unity)
    -1     = t^6
    sqrt 3 = 2t - t^3

Reduction uses t^4 = t^2 - 1 (hence t^5 = t^3 - t, t^6 = -1).

An element is four integer numerators over one denominator,

    x = (n0 + n1 t + n2 t^2 + n3 t^3) / den,

held as ``num = (n0, n1, n2, n3)`` and ``den``.  The form is canonical:
den > 0 and gcd(n0, n1, n2, n3, den) = 1, so zero is ((0, 0, 0, 0), 1) and
two elements are equal exactly when their pairs are.  Every operation is
integer tuple arithmetic followed by one gcd; ``coeffs`` gives the four
rational coefficients as Fractions, for rendering.

The inverse uses the Galois norm.  With sigma_7 the automorphism t -> -t,
y = x * conj(x) lies in the real subfield Q(sqrt 3), N = y * sigma_7(y) is
rational, and x^-1 = conj(x) * sigma_7(y) / N.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .errors import UnsupportedOrderError

I4 = tuple[int, int, int, int]


def mul_i4(a: I4, b: I4) -> I4:
    """Product of two integer coefficient tuples, reduced by t^4 = t^2 - 1."""
    a0, a1, a2, a3 = a
    b0, b1, b2, b3 = b
    if not (a1 or a2 or a3):
        return (a0 * b0, a0 * b1, a0 * b2, a0 * b3)
    # t^4 = t^2 - 1, t^5 = t^3 - t, t^6 = -1
    c4 = a1 * b3 + a2 * b2 + a3 * b1
    c5 = a2 * b3 + a3 * b2
    return (a0 * b0 - c4 - a3 * b3, a0 * b1 + a1 * b0 - c5,
            a0 * b2 + a1 * b1 + a2 * b0 + c4, a0 * b3 + a1 * b2 + a2 * b1 + a3 * b0 + c5)


def norm_cofactor(a: I4) -> tuple[I4, int]:
    """(m, N) with a * m = N, where N > 0 is the Galois norm of a nonzero a.

    m = conj(a) * sigma_7(y) for y = a * conj(a) (module docstring).
    """
    c = (a[0] + a[2], a[1], -a[2], -a[1] - a[3])
    y = mul_i4(a, c)
    s = (y[0], -y[1], y[2], -y[3])
    return mul_i4(c, s), mul_i4(y, s)[0]


class FieldElem:
    """Element of Q[t]/(t^4 - t^2 + 1): integer numerators ``num`` (low to
    high) over the positive denominator ``den``, in lowest terms."""

    __slots__ = ("num", "den")

    num: I4
    den: int

    def __init__(self, coeffs) -> None:
        c = tuple(_as_fraction(x) for x in coeffs)
        if len(c) != 4:
            raise ValueError("FieldElem needs exactly 4 coefficients")
        den = lcm(*(f.denominator for f in c))
        self.num = tuple(f.numerator * (den // f.denominator) for f in c)
        self.den = den

    # -- constructors ------------------------------------------------------

    @staticmethod
    def of(x) -> "FieldElem":
        """Coerce an int, Fraction or FieldElem."""
        o = _coerce(x)
        if o is None:
            raise TypeError(f"cannot coerce {x!r} to a rational")
        return o

    # -- structure ---------------------------------------------------------

    @property
    def coeffs(self) -> tuple[Fraction, Fraction, Fraction, Fraction]:
        d = self.den
        return tuple(Fraction(n, d) for n in self.num)

    def __bool__(self) -> bool:
        return any(self.num)

    def is_rational(self) -> bool:
        n = self.num
        return not (n[1] or n[2] or n[3])

    def rational(self) -> Fraction:
        if not self.is_rational():
            raise ValueError(f"{self} is not rational")
        return Fraction(self.num[0], self.den)

    def is_integer(self) -> bool:
        return self.is_rational() and self.den == 1

    def conj(self) -> "FieldElem":
        """Complex conjugation, the automorphism t -> t^-1."""
        n0, n1, n2, n3 = self.num
        return _elem((n0 + n2, n1, -n2, -n1 - n3), self.den)

    # -- arithmetic --------------------------------------------------------

    def __add__(self, other):
        o = other if other.__class__ is FieldElem else _coerce(other)
        if o is None:
            return NotImplemented
        a, b, da, db = self.num, o.num, self.den, o.den
        if da == db:
            return _reduced(a[0] + b[0], a[1] + b[1], a[2] + b[2], a[3] + b[3], da)
        return _reduced(a[0] * db + b[0] * da, a[1] * db + b[1] * da,
                        a[2] * db + b[2] * da, a[3] * db + b[3] * da, da * db)

    __radd__ = __add__

    def __sub__(self, other):
        o = other if other.__class__ is FieldElem else _coerce(other)
        if o is None:
            return NotImplemented
        a, b, da, db = self.num, o.num, self.den, o.den
        if da == db:
            return _reduced(a[0] - b[0], a[1] - b[1], a[2] - b[2], a[3] - b[3], da)
        return _reduced(a[0] * db - b[0] * da, a[1] * db - b[1] * da,
                        a[2] * db - b[2] * da, a[3] * db - b[3] * da, da * db)

    def __rsub__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o - self

    def __neg__(self) -> "FieldElem":
        a = self.num
        return _elem((-a[0], -a[1], -a[2], -a[3]), self.den)

    def __mul__(self, other):
        o = other if other.__class__ is FieldElem else _coerce(other)
        if o is None:
            return NotImplemented
        a0, a1, a2, a3 = self.num
        b0, b1, b2, b3 = o.num
        d = self.den * o.den
        if not (a1 or a2 or a3):           # rational fast path
            return _reduced(a0 * b0, a0 * b1, a0 * b2, a0 * b3, d)
        if not (b1 or b2 or b3):
            return _reduced(b0 * a0, b0 * a1, b0 * a2, b0 * a3, d)
        return _reduced(*mul_i4(self.num, o.num), d)

    __rmul__ = __mul__

    def inverse(self) -> "FieldElem":
        """Multiplicative inverse via the Galois norm (module docstring)."""
        n, d = self.num, self.den
        if not (n[1] or n[2] or n[3]):
            if not n[0]:
                raise ZeroDivisionError("inverse of zero field element")
            return _elem((d if n[0] > 0 else -d, 0, 0, 0), abs(n[0]))
        m, norm = norm_cofactor(n)       # x^-1 = m d / norm
        return _reduced(m[0] * d, m[1] * d, m[2] * d, m[3] * d, norm)

    def __truediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return self * o.inverse()

    def __rtruediv__(self, other):
        o = _coerce(other)
        if o is None:
            return NotImplemented
        return o * self.inverse()

    def __pow__(self, n: int) -> "FieldElem":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            return self.inverse() ** (-n)
        result = ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    # -- comparison --------------------------------------------------------

    def __eq__(self, other) -> bool:
        o = other if other.__class__ is FieldElem else _coerce(other)
        if o is None:
            return NotImplemented
        return self.den == o.den and self.num == o.num

    def __hash__(self) -> int:
        return hash((self.num, self.den))

    # -- rendering ---------------------------------------------------------

    def __str__(self) -> str:
        parts = []
        for k, c in enumerate(self.coeffs):
            if not c:
                continue
            if k == 0:
                parts.append(str(c))
            elif k == 1:
                parts.append(f"{c}*z")
            else:
                parts.append(f"{c}*z^{k}")
        return " + ".join(parts) if parts else "0"

    __repr__ = __str__


_new = object.__new__


def _elem(num: I4, den: int) -> FieldElem:
    """A FieldElem from parts already in canonical form."""
    x = _new(FieldElem)
    x.num = num
    x.den = den
    return x


def _reduced(n0: int, n1: int, n2: int, n3: int, den: int) -> FieldElem:
    """(n0, n1, n2, n3) / den in canonical form; den must be nonzero."""
    g = gcd(n0, n1, n2, n3, den)
    if den < 0:
        g = -g
    x = _new(FieldElem)
    if g == 1:
        x.num = (n0, n1, n2, n3)
        x.den = den
    else:
        x.num = (n0 // g, n1 // g, n2 // g, n3 // g)
        x.den = den // g
    return x


def ratio(num: I4, den: int) -> FieldElem:
    """The element num / den for integer numerators and a nonzero den."""
    return _reduced(*num, den)


def _as_fraction(x) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"cannot coerce {x!r} to a rational")


def _coerce(x):
    if isinstance(x, FieldElem):
        return x
    if isinstance(x, int):
        return _elem((int(x), 0, 0, 0), 1)
    if isinstance(x, Fraction):
        return _elem((x.numerator, 0, 0, 0), x.denominator)
    return None


ZERO = _elem((0, 0, 0, 0), 1)
ONE = _elem((1, 0, 0, 0), 1)
ZETA12 = _elem((0, 1, 0, 0), 1)


def root_of_unity(n: int) -> FieldElem:
    """Primitive n-th root of unity; n must divide 12."""
    if n <= 0 or 12 % n != 0:
        raise UnsupportedOrderError(f"order {n} does not divide 12")
    return ZETA12 ** (12 // n)


def fe(x) -> FieldElem:
    """Shorthand coercion used throughout the package."""
    return FieldElem.of(x)
