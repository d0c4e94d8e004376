"""Exact arithmetic in the degree-4 cyclotomic extension of the rationals.

The package holds an element as integer numerators over one denominator.  The
oracle below is the representation it replaced: four Fraction coefficients,
with the inverse by extended Euclid in Q[t].  The property test drives both
through the same operations on large random operands.
"""

import operator
import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skverify.errors import UnsupportedOrderError
from skverify.field import ONE, ZERO, ZETA12, FieldElem, fe, root_of_unity


class Oracle:
    """Q[t]/(t^4 - t^2 + 1) on Fraction coefficients, low to high."""

    def __init__(self, coeffs) -> None:
        self.coeffs = tuple(Fraction(c) for c in coeffs)

    def __add__(self, o):
        return Oracle(a + b for a, b in zip(self.coeffs, o.coeffs))

    def __sub__(self, o):
        return Oracle(a - b for a, b in zip(self.coeffs, o.coeffs))

    def __neg__(self):
        return Oracle(-a for a in self.coeffs)

    def __mul__(self, o):
        c = _pmul(self.coeffs, o.coeffs) + [Fraction(0)] * 7
        # t^4 = t^2 - 1, t^5 = t^3 - t, t^6 = -1
        return Oracle((c[0] - c[4] - c[6], c[1] - c[5], c[2] + c[4], c[3] + c[5]))

    def __truediv__(self, o):
        return self * o.inverse()

    def __eq__(self, o):
        return self.coeffs == o.coeffs

    def conj(self):
        c0, c1, c2, c3 = self.coeffs
        return Oracle((c0 + c2, c1, -c2, -c1 - c3))

    def inverse(self):
        """Extended Euclid against the modulus t^4 - t^2 + 1."""
        if not any(self.coeffs):
            raise ZeroDivisionError("inverse of zero")
        r0, r1 = [Fraction(c) for c in (1, 0, -1, 0, 1)], list(self.coeffs)
        s0, s1 = [Fraction(0)], [Fraction(1)]
        while _pdeg(r1) > 0:
            q, r2 = _pdivmod(r0, r1)
            s2 = _psub(s0, _pmul(q, s1))
            r0, r1, s0, s1 = r1, r2, s1, s2
        inv = [c / r1[0] for c in s1] + [Fraction(0)] * 4
        return Oracle(inv[:4])

    def __str__(self):
        terms = [(str(c) if k == 0 else f"{c}*z" if k == 1 else f"{c}*z^{k}")
                 for k, c in enumerate(self.coeffs) if c]
        return " + ".join(terms) if terms else "0"


def _pdeg(p) -> int:
    d = len(p) - 1
    while d >= 0 and not p[d]:
        d -= 1
    return d


def _pmul(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _psub(a, b):
    n = max(len(a), len(b))
    a, b = list(a) + [Fraction(0)] * (n - len(a)), list(b) + [Fraction(0)] * (n - len(b))
    return [x - y for x, y in zip(a, b)]


def _pdivmod(a, b):
    a, db = list(a), _pdeg(b)
    q = [Fraction(0)] * max(len(a) - db, 1)
    for i in range(_pdeg(a), db - 1, -1):
        if a[i]:
            f = a[i] / b[db]
            q[i - db] = f
            for j in range(db + 1):
                a[i - db + j] -= f * b[j]
    return q, a


def assert_canonical(x: FieldElem) -> None:
    assert x.den > 0
    assert gcd(*x.num, x.den) == 1
    if not any(x.num):
        assert (x.num, x.den) == ((0, 0, 0, 0), 1)


def assert_agrees(x: FieldElem, o: Oracle) -> None:
    assert_canonical(x)
    assert x.coeffs == o.coeffs
    assert str(x) == str(o)


BIG = 2 ** 40
rationals = st.one_of(st.integers(-3, 3).map(Fraction),
                      st.builds(Fraction, st.integers(-BIG, BIG), st.integers(1, BIG)))
supports = st.one_of(st.just((True, False, False, False)),
                     st.tuples(*[st.booleans()] * 4))
coefficients = st.builds(lambda cs, mask: tuple(c if m else Fraction(0) for c, m in zip(cs, mask)),
                         st.tuples(*[rationals] * 4), supports)


@settings(max_examples=300, deadline=None)
@given(coefficients, coefficients, rationals)
def test_arithmetic_agrees_with_fraction_oracle(cx, cy, r):
    x, y, ox, oy = FieldElem(cx), FieldElem(cy), Oracle(cx), Oracle(cy)
    assert_agrees(x, ox)
    for op in (operator.add, operator.sub, operator.mul):
        assert_agrees(op(x, y), op(ox, oy))
        assert_agrees(op(x, r), op(ox, Oracle((r, 0, 0, 0))))
        assert_agrees(op(r, x), op(Oracle((r, 0, 0, 0)), ox))
    assert_agrees(-x, -ox)
    assert_agrees(x.conj(), ox.conj())
    assert (x == y) == (ox == oy)
    assert x == FieldElem(x.coeffs) and hash(x) == hash(FieldElem(x.coeffs))
    if any(cy):
        assert_agrees(y.inverse(), oy.inverse())
        assert_agrees(x / y, ox / oy)
    if r:
        assert_agrees(x / r, ox / Oracle((r, 0, 0, 0)))
    if any(cx):
        assert_agrees(r / x, Oracle((r, 0, 0, 0)) / ox)


def random_elem(rng):
    return FieldElem(tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                           for _ in range(4)))


def test_ring_axioms_on_random_triples():
    rng = random.Random(101)
    for _ in range(200):
        x, y, z = (random_elem(rng) for _ in range(3))
        assert x + y == y + x
        assert (x + y) + z == x + (y + z)
        assert x * y == y * x
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + ZERO == x
        assert x * ONE == x
        assert x - x == ZERO
        assert x * ZERO == ZERO


def test_multiplicative_inverses():
    rng = random.Random(102)
    nonzero = 0
    for _ in range(150):
        x = random_elem(rng)
        if not x:
            continue
        nonzero += 1
        assert x * x.inverse() == ONE
        assert (ONE / x) * x == ONE
    assert nonzero >= 100
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_minimal_polynomial_of_generator():
    z = ZETA12
    assert z ** 4 - z ** 2 + ONE == ZERO
    assert z ** 12 == ONE
    assert z ** 6 == -ONE


def test_square_root_of_three():
    z = ZETA12
    s = 2 * z - z ** 3
    assert s * s == fe(3)


def test_root_of_unity_orders():
    for n in (1, 2, 3, 4, 6, 12):
        z = root_of_unity(n)
        assert z ** n == ONE
        for k in range(1, n):
            assert z ** k != ONE
    for bad in (5, 7, 8, 9, 24):
        with pytest.raises(UnsupportedOrderError):
            root_of_unity(bad)


def test_conjugation_inverts_roots_of_unity():
    # conj sends every root of unity to its inverse, so characters pair up
    for n in (1, 2, 3, 4, 6, 12):
        z = root_of_unity(n)
        assert z.conj() * z == ONE
    rng = random.Random(103)
    for _ in range(80):
        x, y = random_elem(rng), random_elem(rng)
        assert (x * y).conj() == x.conj() * y.conj()
        assert (x + y).conj() == x.conj() + y.conj()
        assert x.conj().conj() == x


def test_rational_detection():
    q = fe(Fraction(3, 4))
    assert q.is_rational()
    assert q.rational() == Fraction(3, 4)
    assert not ZETA12.is_rational()
    assert fe(7) == fe(Fraction(7))


def test_scalar_mixing_with_python_numbers():
    z = ZETA12
    assert 2 * z == z + z
    assert z * Fraction(1, 2) + z * Fraction(1, 2) == z
    assert (z + 1) - 1 == z


def test_string_round_trip_is_stable():
    assert str(fe(0)) == "0"
    assert str(fe(Fraction(3, 4))) == "3/4"
    # cosmetic but pinned: report byte-determinism depends on it
    rng = random.Random(104)
    for _ in range(20):
        x = random_elem(rng)
        assert str(x) == str(FieldElem(x.coeffs))
