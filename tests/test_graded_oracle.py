"""The graded engine against the full ideal slices it replaced.

The oracle builds J_m inside V^{tensor m} by the recurrence

    J_m  =  V * J_{m-1}  +  sum_d  R_d * V^{m-d}

and reduces modulo the canonical RREF of J_m.  Its residues, Hilbert
dimensions and centralizer bases must equal the engine's exactly, on random
rational and cyclotomic parameters and through the degrees the command line
uses.  The engine's elimination order is checked against the order it
replaced: rows in the order generated, content stripped after every step.
"""

from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skverify import linalg
from skverify.families import (S3_NAMES, AbcParams, AlphaTriple, SextupleParams,
                               alpha_from_abc, build_s2, build_s3, build_s4,
                               s3_relation_polys)
from skverify.field import ONE, FieldElem, fe
from skverify.freealg import NcPoly, Subspace, span_rows
from skverify.graded import Presentation, Quotient


class SliceOracle:
    """Degree slices J_m of the relation ideal, as canonical subspaces."""

    def __init__(self, p):
        self.p = p
        self.slices = {}

    def slice(self, m: int) -> Subspace:
        p, n = self.p, self.p.ngens
        if m < p.relations[0][0]:
            return Subspace.zero(n, m)
        if m not in self.slices:
            shift = n ** (m - 1)
            rows = [{g * shift + c: v for c, v in row.items()}
                    for row in self.slice(m - 1).rows for g in range(n)]
            for d, rel in p.relations:
                if d > m:
                    break
                pad = n ** (m - d)
                rows.extend({c * pad + w: v for c, v in row.items()}
                            for row in rel.rows for w in range(pad))
            self.slices[m] = span_rows(n, m, rows)
        return self.slices[m]

    def hilbert(self, top: int) -> tuple:
        return tuple(self.p.ngens ** m - self.slice(m).dim for m in range(top + 1))

    def centralizer(self, k: int) -> Subspace:
        n = self.p.ngens
        jk, jk1 = self.slice(k), self.slice(k + 1)
        nk = n ** k
        eqrows = {}
        for widx in range(nk):
            for i in range(n):
                left, right = i * nk + widx, widx * n + i
                if left == right:
                    continue
                for c, v in jk1.reduce_row({left: ONE, right: -ONE}).items():
                    eqrows.setdefault(i * (nk * n) + c, {})[widx] = v
        kernel = linalg.nullspace([eqrows[r] for r in sorted(eqrows)], nk)
        return span_rows(n, k, [jk.reduce_row(v) for v in kernel])


def assert_engine_matches(pres, top, centralizer_degrees, elements=()):
    """Hilbert dims and every word's normal form to ``top``, the normal form of
    each of ``elements``, and centralizers."""
    oracle = SliceOracle(pres)
    engine = Quotient(pres)
    n = pres.ngens
    assert Quotient(pres).hilbert_dims(top) == oracle.hilbert(top)
    for m in range(top + 1):
        jm = oracle.slice(m)
        for w in range(n ** m):
            assert engine.normal_row({w: ONE}, m) == jm.reduce_row({w: ONE}), (m, w)
    for c in elements:
        assert engine.normal_row(c.row, c.degree) == oracle.slice(c.degree).reduce_row(c.row)
    for k in centralizer_degrees:
        assert engine.centralizer_slice(k) == oracle.centralizer(k)


small = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def abc_points(draw):
    return AbcParams.of(1, draw(small), draw(small))


def word_index(word, ngens):
    """The column of a word: its letters read as a base-``ngens`` numeral."""
    i = 0
    for a in word:
        i = i * ngens + a
    return i


@st.composite
def elements(draw, ngens, degree):
    words = st.tuples(*[st.integers(0, ngens - 1)] * degree)
    coeffs = st.integers(-3, 3).filter(bool)
    terms = draw(st.dictionaries(words, coeffs, min_size=1, max_size=4))
    return NcPoly(ngens, degree, {word_index(w, ngens): c for w, c in terms.items()})


@settings(max_examples=25, deadline=None)
@given(abc_points(), st.data())
def test_engine_matches_slices_on_random_s3(p, data):
    elems = [data.draw(elements(3, k)) for k in (2, 3)]
    assert_engine_matches(build_s3(p), 4, (1, 2, 3), elems)


@settings(max_examples=25, deadline=None)
@given(abc_points(), st.data())
def test_engine_matches_slices_on_random_s2(p, data):
    elems = [data.draw(elements(2, k)) for k in (2, 3, 4)]
    assert_engine_matches(build_s2(p), 4, (1, 2, 3), elems)


@settings(max_examples=15, deadline=None)
@given(small, small, st.data())
def test_engine_matches_slices_on_random_s4(a1, a2, data):
    assume(1 + a1 * a2 != 0)
    pres = build_s4(SextupleParams.from_alpha(AlphaTriple.complete(a1, a2)))
    elems = [data.draw(elements(4, k)) for k in (2, 3)]
    assert_engine_matches(pres, 4, (1, 2), elems)


def test_engine_matches_slices_through_the_old_ceilings():
    p = AbcParams.of(1, Fraction(-1, 3), -2)
    assert_engine_matches(build_s3(p), 6, (3,))
    assert_engine_matches(build_s2(p), 6, (4,))
    s4 = build_s4(SextupleParams.from_alpha(alpha_from_abc(AbcParams.of(1, 2, 3))))
    assert_engine_matches(s4, 5, (2,), [NcPoly.gens(4)[0] * NcPoly.gens(4)[1] * fe(2)])


@st.composite
def cyclotomic_elems(draw):
    """Nonzero elements of Q(zeta12) with at least one irrational coordinate."""
    num = draw(st.tuples(*[st.integers(-3, 3)] * 4).filter(lambda t: any(t[1:])))
    return FieldElem(Fraction(n, draw(st.integers(1, 3))) for n in num)


@settings(max_examples=25, deadline=None)
@given(cyclotomic_elems(), small, small, st.data())
def test_engine_matches_slices_on_cyclotomic_s3(a, b, c, data):
    # s3_relation_polys reads only the coordinates .a, .b and .c
    point = SimpleNamespace(a=a, b=fe(b), c=fe(c))
    pres = Presentation.make(S3_NAMES, s3_relation_polys(point))
    elems = [data.draw(elements(3, k)) * a for k in (2, 3)]
    assert_engine_matches(pres, 4, (1, 2, 3), elems)
    # a rational engine reducing elements with irrational coefficients
    assert_engine_matches(build_s3(AbcParams.of(1, b, c)), 3, (), elems)


@settings(max_examples=15, deadline=None)
@given(cyclotomic_elems(), small, st.data())
def test_engine_matches_slices_on_cyclotomic_s4(a1, a2, data):
    assume(fe(1) + a1 * a2)
    pres = build_s4(SextupleParams.from_alpha(AlphaTriple.complete(a1, a2)))
    elems = [data.draw(elements(4, k)) for k in (2, 3)]
    assert_engine_matches(pres, 4, (1, 2), elems)


def generation_order_forward(self, rows):
    """IntRows.forward as it was: rows in the order given, content stripped
    after every elimination step."""
    forward = {}
    for row in rows:
        while row:
            c = min(row)
            b = forward.get(c)
            if b is None:
                row = self.rationalize(row, c)
                g = self.content(row)
                if linalg._head(row[c]) < 0:
                    g = -g
                forward[c] = self.divide(row, g) if g != 1 else row
                break
            row = self._strip(self.elim(row, b, c))
    return forward


ORDER_CASES = [
    (build_s3(AbcParams.of(1, Fraction(-1, 3), -2)), 6, (3, 6)),
    (build_s2(AbcParams.of(1, Fraction(3, 4), Fraction(-3, 5))), 6, (4,)),
    (build_s4(SextupleParams.from_alpha(AlphaTriple.complete(Fraction(4, 5), Fraction(-3, 2)))),
     5, (2, 4)),
    (build_s4(SextupleParams.from_alpha(AlphaTriple.complete(FieldElem((1, 1, 0, 0)), fe(2)))),
     4, (2,)),
]


@pytest.mark.parametrize("pres, top, degrees", ORDER_CASES, ids=("s3", "s2", "s4", "s4-cyclotomic"))
def test_engine_does_not_depend_on_the_elimination_order(monkeypatch, pres, top, degrees):
    engine = Quotient(pres)
    want = ([engine.standard(m) for m in range(top + 1)],
            [engine.centralizer_slice(k) for k in degrees],
            [engine.normal_row({w: ONE}, top) for w in range(pres.ngens ** top)])
    monkeypatch.setattr(linalg.IntRows, "forward", generation_order_forward)
    oracle = Quotient(pres)
    assert ([oracle.standard(m) for m in range(top + 1)],
            [oracle.centralizer_slice(k) for k in degrees],
            [oracle.normal_row({w: ONE}, top) for w in range(pres.ngens ** top)]) == want
