"""Free algebra on words: polynomials, spans, substitution, multilinear forms."""

import random
from fractions import Fraction
from itertools import product

import pytest

from skverify import freealg as fa
from skverify.errors import ShapeError
from skverify.field import ONE, ZERO, fe
from skverify.freealg import (NcPoly, Subspace, acomm, comm, proportional, span,
                              substitute, sum_and_intersect)
from skverify.pointscheme import coefficient_matrix


def random_poly(rng, ngens, degree, terms=4):
    p = NcPoly.zero(ngens)
    for _ in range(terms):
        word = tuple(rng.randrange(ngens) for _ in range(degree))
        c = fe(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        p = p + NcPoly.from_row(ngens, degree, {fa.word_index(word, ngens): c})
    return p


def test_word_index_round_trip():
    rng = random.Random(21)
    for _ in range(100):
        ngens = rng.choice((2, 3, 4))
        degree = rng.randrange(0, 6)
        word = tuple(rng.randrange(ngens) for _ in range(degree))
        i = fa.word_index(word, ngens)
        assert fa.index_to_word(i, ngens, degree) == word
    assert [fa.word_index(w, 3) for w in product(range(3), repeat=2)] == list(range(9))


def test_word_text_rendering():
    assert fa.word_text((0, 1, 0), "xy") == "x*y*x"
    assert fa.word_text((), "xy") == "1"


def test_poly_ring_laws():
    rng = random.Random(22)
    for _ in range(40):
        ngens = rng.choice((2, 3))
        p = random_poly(rng, ngens, rng.randrange(1, 3))
        q = random_poly(rng, ngens, rng.randrange(1, 3))
        r = random_poly(rng, ngens, rng.randrange(1, 3))
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert (p + q) - q == p
        one = NcPoly.one(ngens)
        assert p * one == p and one * p == p


def test_degree_is_additive_for_monomial_products():
    x, y = NcPoly.gens(2)
    p = x * y * x
    q = y * y
    assert (p * q).degree() == 5
    assert p.is_homogeneous()
    assert not (p + q).is_homogeneous()


def test_row_round_trip():
    rng = random.Random(23)
    for _ in range(30):
        ngens = rng.choice((2, 3, 4))
        d = rng.randrange(1, 4)
        p = random_poly(rng, ngens, d)
        assert NcPoly.from_row(ngens, d, p.to_row(d)) == p
    x, _ = NcPoly.gens(2)
    with pytest.raises(ShapeError):
        (x * x + x).to_row(2)


def test_span_and_member():
    rng = random.Random(24)
    for _ in range(20):
        polys = [random_poly(rng, 2, 3) for _ in range(4)]
        s = span(polys, 2, 3)
        combo = NcPoly.zero(2)
        for p in polys:
            combo = combo + fe(rng.randint(-3, 3)) * p
        assert s.contains(combo)
        assert s.dim <= 4
    x, y = NcPoly.gens(2)
    s = span([x * y - y * x], 2, 2)
    assert s.contains(x * y - y * x)
    assert not s.contains(x * y + y * x)


def test_span_reduce_and_contains_agree():
    x, y = NcPoly.gens(2)
    s = span([x * y - y * x, x * x], 2, 2)
    assert s.contains(x * x)
    assert s.reduce(x * y) == y * x
    assert s.reduce(s.reduce(y * y)) == s.reduce(y * y)
    assert Subspace.full(2, 2).dim == 4
    assert Subspace.zero(2, 2).dim == 0


def test_sum_and_intersect_dimensions():
    rng = random.Random(25)
    for _ in range(15):
        sa = span([random_poly(rng, 2, 3) for _ in range(3)], 2, 3)
        sb = span([random_poly(rng, 2, 3) for _ in range(3)], 2, 3)
        total, meet = sum_and_intersect(sa, sb)
        assert total.dim + meet.dim == sa.dim + sb.dim
        for b in meet.basis():
            assert sa.contains(b) and sb.contains(b)


def test_substitute_is_a_homomorphism():
    rng = random.Random(26)
    x, y = NcPoly.gens(2)
    images = [x + y, x * 1 - y]
    for _ in range(20):
        p = random_poly(rng, 2, 2)
        q = random_poly(rng, 2, 2)
        assert substitute(p * q, images) == substitute(p, images) * substitute(q, images)
        assert substitute(p + q, images) == substitute(p, images) + substitute(q, images)


def test_commutator_shortcuts():
    x, y = NcPoly.gens(2)
    assert comm(x, y) == x * y - y * x
    assert acomm(x, y) == x * y + y * x
    assert comm(x, x) == NcPoly.zero(2)


def test_proportional_ratios():
    x, y = NcPoly.gens(2)
    z = NcPoly.zero(2)
    assert proportional(x * y, 2 * (x * y)) == fe(Fraction(1, 2))
    assert proportional(x * y, x * x) is None
    assert proportional(z, z) == ONE
    assert proportional(z, x * y) is None


def test_coefficient_matrix_evaluates_like_coefficients():
    x, y = NcPoly.gens(2)
    rel = x * x * y + 2 * (y * x * x)
    (row,) = coefficient_matrix([rel])
    assert [e.nvars for e in row] == [4, 4]
    # x_a of tensor factor b is variable 2b + a; the last factor is the column
    val = sum((e.evaluate((1, 2, 3, 4)) * z for e, z in zip(row, (5, 6))), ZERO)
    assert val == fe(78)
    # plugging unit vectors into the first two factors reads off word coefficients
    unit = [(ONE, ZERO), (ZERO, ONE)]
    for a, b, last in product(range(2), repeat=3):
        assert row[last].evaluate(unit[a] + unit[b]) == rel.coefficient((a, b, last))
    assert row[1].evaluate(unit[0] + unit[0]) == ONE
    assert row[0].evaluate(unit[1] + unit[0]) == fe(2)
    with pytest.raises(ShapeError):
        coefficient_matrix([x * y, x * x * y])
    with pytest.raises(ShapeError):
        coefficient_matrix([x * y + x])
