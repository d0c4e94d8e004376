"""Graded quotients: normal forms, Hilbert dimensions, centralizers, centrality.

Small presentations with hand-countable monomial bases pin down the graded
engine before the three main families rely on it.
"""

from fractions import Fraction

import pytest

from skverify.errors import DegreeError, ParameterError
from skverify.families import (AbcParams, AlphaTriple, SextupleParams,
                               alpha_from_abc, build_s2, build_s3, build_s4)
from skverify.freealg import NcPoly, acomm, comm
from skverify.graded import Presentation, Quotient, series


def series_coeffs(numer, denom, count):
    """Taylor coefficients of numer(t)/denom(t), exact division."""
    out = []
    state = list(Fraction(c) for c in numer)
    state += [Fraction(0)] * (count + len(denom))
    lead = Fraction(denom[0])
    for m in range(count):
        c = state[m] / lead
        out.append(c)
        for j, d in enumerate(denom):
            state[m + j] -= c * d
    return out


def test_series_helper_against_geometric():
    assert series_coeffs([1], [1, -1], 5) == [1, 1, 1, 1, 1]
    assert series_coeffs([1], [1, -2, 1], 5) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("num, den, closed", [
    ((1,), (1, 1, 1), lambda m: (m + 1) * (m + 2) // 2),
    ((1,), (1, 1, 2), lambda m: (m + 2) ** 2 // 4),
    ((1,), (1, 1, 1, 1), lambda m: (m + 1) * (m + 2) * (m + 3) // 6),
    ((1, 0, 0, -1), (1, 1, 1), lambda m: max(1, 3 * m)),
    ((1, 3), (1,), lambda m: 1 if m == 0 else 4),
    ((1, 2, 1), (1, 1), lambda m: max(1, 4 * m)),
], ids=["s3", "s2", "s4", "s3-mod-cubic", "s4-abelianized", "quotient-mod-pair"])
def test_series_matches_closed_forms(num, den, closed):
    # oracle: the closed form of each of the battery's Hilbert series, at every
    # truncation, including those shorter than the numerator
    for n in range(41):
        assert series(num, den, n) == tuple(closed(m) for m in range(n + 1))


def test_series_matches_exact_division():
    num, den = (1, 0, -2, 5), (2, 3, 3, 6)
    denom = [1]
    for b in den:
        denom = [x - (denom[i - b] if i >= b else 0) for i, x in enumerate(denom + [0] * b)]
    assert series(num, den, 30) == tuple(series_coeffs(num, denom, 31))


S3_POINTS = [AbcParams.of(1, 2, 3), AbcParams.of(1, Fraction(-1, 3), -2),
             AbcParams.of(2, 5, 7)]
S2_POINTS = [AbcParams.of(1, 2, 3), AbcParams.of(1, Fraction(3, 4), Fraction(-3, 5)),
             AbcParams.of(3, 1, 2)]


def test_commutative_toy_presentations():
    x, y = NcPoly.gens(2)
    comm2 = Presentation.make("xy", [comm(x, y)])
    assert Quotient(comm2).hilbert_dims(6) == (1, 2, 3, 4, 5, 6, 7)
    gens3 = NcPoly.gens(3)
    comm3 = Presentation.make("xyz", [comm(a, b) for a in gens3 for b in gens3
                                      if a is not b])
    assert Quotient(comm3).hilbert_dims(6) == (1, 3, 6, 10, 15, 21, 28)


def test_single_square_quotient_counts_fibonacci_words():
    # words with no "xx" factor: 1, 2, 3, 5, 8, 13, 21
    x, y = NcPoly.gens(2)
    p = Presentation.make("xy", [x * x])
    assert Quotient(p).hilbert_dims(6) == (1, 2, 3, 5, 8, 13, 21)


def test_exterior_style_collapse():
    x, y = NcPoly.gens(2)
    p = Presentation.make("xy", [x * x, y * y, acomm(x, y)])
    assert Quotient(p).hilbert_dims(5) == (1, 2, 1, 0, 0, 0)


def test_ideal_slice_absorbs_products():
    x, y = NcPoly.gens(2)
    p = Presentation.make("xy", [x * x - y * y])
    rel = x * x - y * y
    for left, right in ((x, y), (y * x, NcPoly.one(2)), (NcPoly.one(2), x * y)):
        elem = left * rel * right
        assert not Quotient(p).normal_row(elem.row, elem.degree)


def test_empty_relation_set_rejected():
    with pytest.raises(ParameterError):
        Presentation.make("xy", [])


def test_polynomial_growth_above_the_old_ceilings():
    # full slices stopped at degree 6 (s3) and 5 (s4) for cost alone
    assert Quotient(build_s3(S3_POINTS[1])).hilbert_dims(8) == (
        1, 3, 6, 10, 15, 21, 28, 36, 45)
    s4 = build_s4(SextupleParams.from_alpha(alpha_from_abc(S2_POINTS[0])))
    assert Quotient(s4).hilbert_dims(6) == (1, 4, 10, 20, 35, 56, 84)


def test_depth_past_the_command_line_ceilings():
    # deeper than any FAMILIES ceiling, and still tenths of a second each
    t = AlphaTriple.complete(Fraction(4, 5), Fraction(-3, 2))
    s4 = Quotient(build_s4(SextupleParams.from_alpha(t)))
    assert s4.hilbert_dims(8) == series((1,), (1, 1, 1, 1), 8)
    # tau of infinite order: the centre is k[g], g the central cubic
    s3 = Quotient(build_s3(S3_POINTS[1]))
    assert [s3.centralizer_slice(k).dim for k in range(1, 10)] == [0, 0, 1] * 3


def test_three_generator_family_matches_polynomial_growth():
    for p in S3_POINTS:
        dims = Quotient(build_s3(p)).hilbert_dims(6)
        assert dims == tuple((m + 1) * (m + 2) // 2 for m in range(7))


def test_two_generator_family_quarter_squares():
    for p in S2_POINTS:
        dims = Quotient(build_s2(p)).hilbert_dims(6)
        assert dims == tuple((m + 2) ** 2 // 4 for m in range(7))


def test_four_generator_family_matches_polynomial_growth():
    triples = [alpha_from_abc(p) for p in S2_POINTS]
    triples.append(AlphaTriple.complete(Fraction(4, 5), Fraction(-3, 2)))
    for t in triples:
        dims = Quotient(build_s4(SextupleParams.from_alpha(t))).hilbert_dims(5)
        assert dims == tuple((m + 1) * (m + 2) * (m + 3) // 6 for m in range(6))


def test_quotient_by_central_cubic_matches_curve_series():
    # (1 - t^3) / (1 - t)^3
    want = tuple(int(c) for c in series_coeffs([1, 0, 0, -1], [1, -3, 3, -1], 7))
    assert want == (1, 3, 6, 9, 12, 15, 18)
    for p in S3_POINTS:
        pres = build_s3(p)
        c3 = Quotient(pres).centralizer_slice(3).basis()[0]
        dims = Quotient(pres.adjoin([c3])).hilbert_dims(6)
        assert dims == want


def test_abelianized_toy_case():
    g = NcPoly.gens(3)
    p = Presentation.make("xyz", [g[0] * g[0]])
    # commutative monomials with x-exponent at most one: 2m + 1 of degree m
    assert Quotient(p.abelianized()).hilbert_dims(4) == (1, 3, 5, 7, 9)


def test_abelianized_four_generator_family():
    for t in (alpha_from_abc(AbcParams.of(1, 2, 3)),
              AlphaTriple.complete(Fraction(4, 5), Fraction(-3, 2))):
        pres = build_s4(SextupleParams.from_alpha(t))
        assert Quotient(pres.abelianized()).hilbert_dims(4) == (1, 4, 4, 4, 4)


def test_centralizer_in_commutative_quotient_is_everything():
    x, y = NcPoly.gens(2)
    p = Presentation.make("xy", [comm(x, y)])
    assert Quotient(p).centralizer_slice(2).dim == 3
    assert Quotient(p).centralizer_slice(3).dim == 4


def test_centralizer_detects_noncommutativity():
    x, y = NcPoly.gens(2)
    p = Presentation.make("xy", [x * x])
    assert Quotient(p).centralizer_slice(1).dim == 0


def test_centralizer_membership_on_toy_quotients():
    x, y = NcPoly.gens(2)
    assert Quotient(Presentation.make("xy", [comm(x, y)])).centralizer_slice(1).contains(x.row)
    assert not Quotient(Presentation.make("xy", [acomm(x, y)])).centralizer_slice(1).contains(x.row)
    assert not Quotient(Presentation.make("xy", [x * x])).centralizer_slice(1).contains(x.row)
    # not a domain: x * x = 0, so the right multiples x*x and x*y are dependent
    q = Quotient(Presentation.make("xy", [comm(x, y), x * x]))
    assert q.centralizer_slice(1).contains(x.row)
    assert q.centralizer_slice(2).dim == q.hilbert_dims(2)[2] == 2
    with pytest.raises(DegreeError):
        q.centralizer_slice(0)
