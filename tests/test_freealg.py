"""Free algebra on words: homogeneous polynomials as rows keyed by word index,
spans and meets, substitution, multilinear forms."""

import operator
import random
from collections import defaultdict
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skverify import freealg as fa
from skverify import linalg
from skverify.errors import ShapeError
from skverify.field import ONE, ZERO, FieldElem, fe
from skverify.freealg import (NcPoly, Subspace, acomm, comm, proportional, span, span_rows,
                              substitute)
from skverify.pointscheme import BASE, coefficient_matrix


def word_index(word, ngens):
    """The column of a word: its letters read as a base-``ngens`` numeral."""
    i = 0
    for a in word:
        i = i * ngens + a
    return i


def random_poly(rng, ngens, degree, terms=4):
    p = NcPoly.zero(ngens, degree)
    for _ in range(terms):
        word = tuple(rng.randrange(ngens) for _ in range(degree))
        c = fe(Fraction(rng.randint(-6, 6), rng.randint(1, 4)))
        p = p + NcPoly(ngens, degree, {word_index(word, ngens): c})
    return p


def test_word_index_round_trip():
    rng = random.Random(21)
    for _ in range(100):
        ngens = rng.choice((2, 3, 4))
        degree = rng.randrange(0, 6)
        word = tuple(rng.randrange(ngens) for _ in range(degree))
        i = word_index(word, ngens)
        assert fa.index_to_word(i, ngens, degree) == word
    assert [word_index(w, 3) for w in product(range(3), repeat=2)] == list(range(9))


def test_word_text_rendering():
    assert fa.word_text((0, 1, 0), "xy") == "x*y*x"
    assert fa.word_text((), "xy") == "1"
    x, y = NcPoly.gens(2)
    assert (x * y - 2 * (y * x) + fe(Fraction(1, 3)) * (x * x)).text("xy") == \
        "(1/3)*x*x + (1)*x*y + (-2)*y*x"
    assert NcPoly.zero(2, 2).text("xy") == "0" and NcPoly.one(2).text("xy") == "(1)*1"


def test_poly_ring_laws():
    rng = random.Random(22)
    for _ in range(40):
        ngens = rng.choice((2, 3))
        dp, dq = rng.randrange(1, 3), rng.randrange(1, 3)
        p = random_poly(rng, ngens, dp)
        q = random_poly(rng, ngens, dq)
        r = random_poly(rng, ngens, dq)
        assert (p * q) * r == p * (q * r)
        assert p * (q + r) == p * q + p * r
        assert (q + r) - r == q
        one = NcPoly.one(ngens)
        assert p * one == p and one * p == p


def test_degree_is_additive_for_monomial_products():
    x, y = NcPoly.gens(2)
    p = x * y * x
    q = y * y
    assert (p * q).degree == 5 and (q * p).degree == 5
    assert (p * q).row == {word_index((0, 1, 0, 1, 1), 2): ONE}
    with pytest.raises(ShapeError):
        p + q


def test_row_round_trip():
    rng = random.Random(23)
    for _ in range(30):
        ngens = rng.choice((2, 3, 4))
        d = rng.randrange(1, 4)
        p = random_poly(rng, ngens, d)
        assert NcPoly(ngens, d, p.row) == p
    assert NcPoly(2, 1, {0: 1, 1: 0}).row == {0: ONE}
    for bad in (-1, 4):
        with pytest.raises(ShapeError):
            NcPoly(2, 2, {bad: 1})


def test_span_and_member():
    rng = random.Random(24)
    for _ in range(20):
        polys = [random_poly(rng, 2, 3) for _ in range(4)]
        s = span(polys, 2, 3)
        combo = NcPoly.zero(2, 3)
        for p in polys:
            combo = combo + fe(rng.randint(-3, 3)) * p
        assert s.contains(combo.row)
        assert s.dim <= 4
    x, y = NcPoly.gens(2)
    s = span([x * y - y * x], 2, 2)
    assert s.contains((x * y - y * x).row)
    assert not s.contains((x * y + y * x).row)
    with pytest.raises(ShapeError):
        span([x, x * y])


def test_span_reduce_and_contains_agree():
    x, y = NcPoly.gens(2)
    s = span([x * y - y * x, x * x], 2, 2)
    assert s.contains((x * x).row)
    assert s.reduce_row((x * y).row) == (y * x).row
    assert s.reduce_row(s.reduce_row((y * y).row)) == s.reduce_row((y * y).row)
    assert Subspace.zero(2, 2).dim == 0


def test_sum_and_intersect_dimensions():
    rng = random.Random(25)
    for _ in range(15):
        sa = span([random_poly(rng, 2, 3) for _ in range(3)], 2, 3)
        sb = span([random_poly(rng, 2, 3) for _ in range(3)], 2, 3)
        total = span_rows(2, 3, sa.rows + sb.rows)
        meet = sa.meet(sb)
        assert total.dim + meet.dim == sa.dim + sb.dim
        for b in meet.rows:
            assert sa.contains(b) and sb.contains(b)


def test_meet_of_space_with_itself():
    rng = random.Random(13)
    x, _ = NcPoly.gens(2)
    for _ in range(10):
        s = span([random_poly(rng, 2, 3) for _ in range(4)], 2, 3)
        assert s.meet(s) == s
        assert s.meet(Subspace.zero(2, 3)) == Subspace.zero(2, 3)
        assert s.meet(span_rows(2, 3, [{c: ONE} for c in range(8)])) == s
    with pytest.raises(ShapeError):
        s.meet(span([x], 2, 1))


def doubled_column_meet(a, b):
    """span A cap span B by the doubled-column construction: stack the rows
    (a | a) over the rows (b | 0); the echelon rows that vanish on the left
    half carry the meet on the right half."""
    n = a.ncols
    stacked = [{**r, **{c + n: v for c, v in r.items()}} for r in a.rows] + list(b.rows)
    _, prows = linalg.rref(stacked)
    return span_rows(a.ngens, a.degree,
                     [{c - n: v for c, v in r.items()} for r in prows if min(r) >= n])


small_ints = st.integers(-3, 3)


@st.composite
def subspaces(draw, cyclotomic, ngens=2, degree=3):
    """Spans of a few rows over Q, or over Q(zeta12), with sparse supports."""
    ncols = ngens ** degree
    if cyclotomic:
        elem = st.builds(lambda t: FieldElem(Fraction(v) for v in t),
                         st.tuples(small_ints, small_ints, small_ints, small_ints))
    else:
        elem = st.builds(fe, small_ints)
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), elem, max_size=4),
                         max_size=6))
    return span_rows(ngens, degree, [{c: v for c, v in r.items() if v} for r in rows])


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_meet_matches_doubled_column_oracle(data):
    cyclotomic = data.draw(st.booleans())
    a, b = data.draw(subspaces(cyclotomic)), data.draw(subspaces(cyclotomic))
    want = doubled_column_meet(a, b)
    assert a.meet(b) == want and b.meet(a) == want


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
    assert comm(x, x) == NcPoly.zero(2, 2)


def test_proportional_ratios():
    x, y = NcPoly.gens(2)
    z = NcPoly.zero(2, 2)
    assert proportional((x * y).row, (2 * (x * y)).row) == fe(Fraction(1, 2))
    assert proportional((x * y).row, (x * x).row) is None
    assert proportional(z.row, z.row) == ONE
    assert proportional(z.row, (x * y).row) is None
    # plain rows, as the point-scheme polynomials are kept
    assert proportional({1: fe(3), 7: fe(-6)}, {1: fe(-1), 7: fe(2)}) == fe(-3)


def test_coefficient_matrix_evaluates_like_coefficients():
    x, y = NcPoly.gens(2)
    rel = x * x * y + 2 * (y * x * x)
    (row,) = coefficient_matrix([rel])
    # x_a of tensor factor b is variable 2b + a, and the monomial x_a x_b' is
    # keyed BASE^a + BASE^(2 + b): the value at unit vectors in the two
    # factors, read off as the word coefficient with the column as last letter
    for a, b, last in product(range(2), repeat=3):
        key = BASE ** a + BASE ** (2 + b)
        assert row[last].get(key, ZERO) == rel.row.get(word_index((a, b, last), 2), ZERO)
    assert row == [{BASE ** 1 + BASE ** 2: fe(2)}, {BASE ** 0 + BASE ** 2: ONE}]
    with pytest.raises(ShapeError):
        coefficient_matrix([x * y, x * x * y])
    with pytest.raises(ShapeError):
        coefficient_matrix([NcPoly.one(2)])


# NcPoly arithmetic against an independent implementation on word tuples:
# dicts from words to coefficients, with concatenation as the product.  Two
# generators with words of length <= 2 keep the key space small enough that
# sums and products cancel often.
SIZE = 2
small = st.builds(Fraction, st.integers(-2, 2), st.integers(1, 2))
scalars = st.one_of(st.integers(-2, 2), small,
                    st.builds(lambda cs: FieldElem(cs), st.tuples(small, small, small, small)))


def word_terms(degree):
    return st.dictionaries(st.tuples(*[st.integers(0, SIZE - 1)] * degree), scalars, max_size=5)


def oracle(pairs):
    """Collect (word, scalar) pairs into a dict without zero coefficients."""
    out = defaultdict(lambda: ZERO)
    for k, c in pairs:
        out[k] = out[k] + fe(c)
    return {k: c for k, c in out.items() if c}


def oracle_mul(a, b):
    return oracle((k1 + k2, fe(c1) * fe(c2)) for (k1, c1), (k2, c2) in product(a.items(), b.items()))


def oracle_substitute(a, images):
    out = []
    for word, c in a.items():
        v = {(): ONE}
        for letter in word:
            v = oracle_mul(v, images[letter])
        out.extend((k, fe(c) * x) for k, x in v.items())
    return oracle(out)


def as_row(terms):
    return {word_index(w, SIZE): c for w, c in terms.items()}


def assert_clean(r):
    """The invariant every arithmetic result keeps: nonzero FieldElem values
    under word indices the public constructor would accept."""
    assert type(r) is NcPoly
    assert NcPoly(SIZE, r.degree, r.row) == r
    for k, c in r.row.items():
        assert type(c) is FieldElem and c
        assert type(k) is int and 0 <= k < SIZE ** r.degree


@pytest.mark.parametrize("kind", [NcPoly])
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_shared_arithmetic_matches_dict_oracle(kind, data):
    d, e = data.draw(st.integers(0, 2)), data.draw(st.integers(0, 2))
    a, b, c = data.draw(word_terms(d)), data.draw(word_terms(d)), data.draw(word_terms(e))
    s = data.draw(scalars)
    images = [data.draw(word_terms(e)) for _ in range(SIZE)]
    p, q, r = kind(SIZE, d, as_row(a)), kind(SIZE, d, as_row(b)), kind(SIZE, e, as_row(c))
    assert p.row == as_row(oracle(a.items()))
    cases = {
        "add": (p + q, d, oracle([*a.items(), *b.items()])),
        "sub": (p - q, d, oracle([*a.items(), *((k, -fe(c)) for k, c in b.items())])),
        "neg": (-p, d, oracle((k, -fe(c)) for k, c in a.items())),
        "cancel": (p - p, d, {}),
        "scalar": (p * s, d, oracle((k, fe(c) * fe(s)) for k, c in a.items())),
        "rscalar": (s * p, d, oracle((k, fe(s) * fe(c)) for k, c in a.items())),
        "mul": (p * r, d + e, oracle_mul(a, c)),
        "substitute": (substitute(p, [kind(SIZE, e, as_row(i)) for i in images]), d * e,
                       oracle_substitute(a, images)),
    }
    for name, (got, degree, want) in cases.items():
        assert (got.degree, got.row) == (degree, as_row(want)), name
        assert_clean(got)
    assert (p + q == q + p) and hash(p + q) == hash(q + p)
    assert bool(p) == bool(oracle(a.items()))
    assert kind.zero(SIZE, d) == p - p and not kind.zero(SIZE, d)


def test_shapes_are_checked():
    # every NcPoly is homogeneous: two degrees never add, indices stay in
    # 0..n^d - 1, and substitute takes images of one degree
    x, y = NcPoly.gens(2)
    for op in (operator.add, operator.sub):
        with pytest.raises(ShapeError):
            op(x * y, x)
    for bad in (-1, 2):
        with pytest.raises(ShapeError):
            NcPoly(2, 1, {bad: 1})
    with pytest.raises(ShapeError):
        substitute(x * y, [x, y * y])
    with pytest.raises(ShapeError):
        substitute(x * y, [x])
    assert substitute(x * y, [x * x, y * y]) == x * x * y * y


def test_mixed_kinds_do_not_combine():
    # an NcPoly does not combine with a monomial-keyed row, the package's
    # other polynomial form, nor with an NcPoly on another generator count
    x, row = NcPoly.gens(2)[0], {BASE: ONE}
    for op in (operator.add, operator.sub, operator.mul):
        with pytest.raises(TypeError):
            op(x, row)
        with pytest.raises(TypeError):
            op(row, x)
    assert x != row and NcPoly.zero(2, 1) != {}
    with pytest.raises(ShapeError):
        NcPoly(2, 1, {2: 1})
    with pytest.raises(ShapeError):
        NcPoly.gens(2)[0] + NcPoly.gens(3)[0]
    with pytest.raises(ShapeError):
        NcPoly.gens(2)[0] * NcPoly.gens(3)[0]
