"""Free algebra on words: polynomials, spans, substitution, multilinear forms."""

import operator
import random
from collections import defaultdict
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skverify import freealg as fa
from skverify.errors import ShapeError
from skverify.field import ONE, ZERO, FieldElem, fe
from skverify.freealg import (MultiPoly, NcPoly, Subspace, acomm, comm, proportional, span,
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


# Shared arithmetic of NcPoly and MultiPoly against plain dict arithmetic.  Two
# generators with words of length <= 2, or two variables with exponents <= 2,
# keep the key space small enough that sums and products cancel often.
SIZE = 2
small = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2))
scalars = st.one_of(st.integers(-2, 2), small,
                    st.builds(lambda cs: FieldElem(cs), st.tuples(small, small, small, small)))
KEYS = {NcPoly: st.lists(st.integers(0, SIZE - 1), max_size=2).map(tuple),
        MultiPoly: st.tuples(*[st.integers(0, 2)] * SIZE)}
JOIN = {NcPoly: operator.add,
        MultiPoly: lambda k1, k2: tuple(a + b for a, b in zip(k1, k2))}


def oracle(pairs):
    """Collect (key, scalar) pairs into a dict without zero coefficients."""
    out = defaultdict(lambda: ZERO)
    for k, c in pairs:
        out[k] = out[k] + fe(c)
    return {k: c for k, c in out.items() if c}


def assert_clean(r, kind):
    """The invariant every arithmetic result keeps: nonzero FieldElem
    coefficients under keys the public constructor would accept."""
    assert type(r) is kind
    assert kind(SIZE, r.terms) == r
    for k, c in r.terms.items():
        assert type(c) is FieldElem and c
        assert type(k) is tuple and all(type(a) is int and a >= 0 for a in k)
        if kind is NcPoly:
            assert all(a < SIZE for a in k)
        else:
            assert len(k) == SIZE


@pytest.mark.parametrize("kind", [NcPoly, MultiPoly])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_shared_arithmetic_matches_dict_oracle(kind, data):
    terms = st.dictionaries(KEYS[kind], scalars, max_size=5)
    a, b = data.draw(terms), data.draw(terms)
    s = data.draw(scalars)
    p, q = kind(SIZE, a), kind(SIZE, b)
    assert p.terms == oracle(a.items())
    cases = {
        "add": (p + q, oracle([*a.items(), *b.items()])),
        "sub": (p - q, oracle([*a.items(), *((k, -fe(c)) for k, c in b.items())])),
        "neg": (-p, oracle((k, -fe(c)) for k, c in a.items())),
        "cancel": (p - p, {}),
        "scalar": (p * s, oracle((k, fe(c) * fe(s)) for k, c in a.items())),
        "rscalar": (s * p, oracle((k, fe(s) * fe(c)) for k, c in a.items())),
        "mul": (p * q, oracle((JOIN[kind](k1, k2), fe(c1) * fe(c2))
                              for (k1, c1), (k2, c2) in product(a.items(), b.items()))),
    }
    for name, (got, want) in cases.items():
        assert got.terms == want, name
        assert_clean(got, kind)
    assert (p + q == q + p) and hash(p + q) == hash(q + p)
    assert bool(p) == bool(oracle(a.items()))
    assert kind.zero(SIZE) == p - p and not kind.zero(SIZE)


def test_mixed_kinds_do_not_combine():
    x, v = NcPoly.gen(2, 0), MultiPoly.var(2, 0)
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises((ShapeError, TypeError)):
            op(x, v)
        with pytest.raises((ShapeError, TypeError)):
            op(v, x)
    assert x != v and NcPoly.zero(2) != MultiPoly.zero(2)
    with pytest.raises(ShapeError):
        NcPoly(2, {(2,): 1})
    with pytest.raises(ShapeError):
        MultiPoly(2, {(1,): 1})
    with pytest.raises(ShapeError):
        NcPoly.gen(2, 0) + NcPoly.gen(3, 0)
    with pytest.raises(ShapeError):
        MultiPoly.var(2, 0) * MultiPoly.var(3, 0)
