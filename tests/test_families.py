"""Parameter handling and relation sets for the three algebra families."""

import random
from fractions import Fraction

import pytest
import sympy

from skverify.errors import ParameterError
from skverify.families import (AbcParams, AlphaTriple, SextupleParams,
                               alpha_from_abc, build_s2, build_s3, build_s4,
                               is_smooth_hesse, s2_central_quartic,
                               s2_relation_polys, s3_relation_polys,
                               s4_relation_polys)
from skverify.field import fe, root_of_unity
from skverify.freealg import span
from skverify.pointscheme import order_of, point


def test_projective_normalization():
    assert AbcParams.of(2, 4, 6) == AbcParams.of(1, 2, 3)
    assert AbcParams.of(Fraction(1, 2), 1, Fraction(3, 2)) == AbcParams.of(1, 2, 3)
    assert AbcParams.of(0, 3, 6) == AbcParams.of(0, 1, 2)
    with pytest.raises(ParameterError):
        AbcParams.of(0, 0, 0)


def jacobian_singular_search(a, b, c):
    """Common-zero test for the gradient of abc(X^3+Y^3+Z^3) - (a^3+b^3+c^3)XYZ.

    Runs one Groebner computation per affine chart; the curve is smooth
    exactly when every chart reports an empty zero set.
    """
    X, Y, Z = sympy.symbols("X Y Z")
    f = a * b * c * (X ** 3 + Y ** 3 + Z ** 3) - (a ** 3 + b ** 3 + c ** 3) * X * Y * Z
    grads = [sympy.diff(f, v) for v in (X, Y, Z)]
    for chart in (X, Y, Z):
        eqs = [g.subs(chart, 1) for g in grads]
        basis = sympy.groebner(eqs, *[v for v in (X, Y, Z) if v != chart],
                               order="lex")
        if list(basis.exprs) != [sympy.Integer(1)]:
            return False
    return True


def test_smoothness_against_jacobian_oracle():
    rng = random.Random(31)
    cases = [(1, 1, 1), (1, 2, 3), (1, -1, 0), (0, 1, 1), (1, 1, 2), (2, 1, 1)]
    while len(cases) < 28:
        cases.append((rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4)))
    for a, b, c in cases:
        if (a, b, c) == (0, 0, 0):
            continue
        want = jacobian_singular_search(
            sympy.Rational(a), sympy.Rational(b), sympy.Rational(c))
        got = is_smooth_hesse(AbcParams.of(a, b, c))
        assert got == want, (a, b, c)


def test_known_smoothness_values():
    assert is_smooth_hesse(AbcParams.of(1, 2, 3))
    assert not is_smooth_hesse(AbcParams.of(1, 1, 1))
    assert not is_smooth_hesse(AbcParams.of(1, -1, 0))
    assert not is_smooth_hesse(AbcParams.of(0, 1, 1))


def test_alpha_from_reference_point():
    t = alpha_from_abc(AbcParams.of(1, 2, 3))
    assert t == AlphaTriple.of(6, -21, Fraction(-3, 25))


def test_alpha_triples_close_the_locus():
    rng = random.Random(32)
    found = 0
    while found < 15:
        a, b, c = (Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(3))
        if a == 0 or b == c or b == -c or (a, b, c) == (0, 0, 0):
            continue
        t = alpha_from_abc(AbcParams.of(a, b, c))
        a1, a2, a3 = t.alpha1, t.alpha2, t.alpha3
        assert a1 + a2 + a3 + a1 * a2 * a3 == fe(0)
        found += 1


def test_alpha_rejects_degenerate_parameters():
    for bad in ((0, 1, 1), (1, 1, 1), (1, 2, 2), (1, -2, 2)):
        with pytest.raises(ParameterError):
            alpha_from_abc(AbcParams.of(*bad))
    with pytest.raises(ParameterError):
        AlphaTriple.of(1, 2, 3)


def test_alpha_completion():
    t = AlphaTriple.complete(Fraction(4, 5), Fraction(-3, 2))
    assert t.alpha3 == fe(Fraction(-7, 2))
    a1, a2, a3 = t.alpha1, t.alpha2, t.alpha3
    assert a1 + a2 + a3 + a1 * a2 * a3 == fe(0)


def test_sextuple_validation_and_round_trip():
    with pytest.raises(ParameterError):
        SextupleParams.of(1, 1, 1, 1, 1, 1)
    t = alpha_from_abc(AbcParams.of(1, 2, 3))
    s = SextupleParams.from_alpha(t)
    assert s.alpha() == t


def test_sqrt_form_sextuples():
    i = root_of_unity(4)
    good = [(fe(1), fe(Fraction(-7, 4)), fe(1)),
            (fe(1), fe(Fraction(-2, 7)), fe(-1)),
            (fe(Fraction(-9, 8)), i, -i)]
    for lam in good:
        s = SextupleParams.from_sqrt(*lam)
        assert s.a10 == lam[0]
    with pytest.raises(ParameterError):
        SextupleParams.from_sqrt(1, 2, 3)


def test_relation_sets_are_homogeneous_and_independent():
    p3 = AbcParams.of(1, 2, 3)
    rels3 = s3_relation_polys(p3)
    assert len(rels3) == 3 and all(r.degree == 2 for r in rels3)
    assert span(rels3, 3, 2).dim == 3

    rels2 = s2_relation_polys(p3)
    assert len(rels2) == 2 and all(r.degree == 3 for r in rels2)
    assert span(rels2, 2, 3).dim == 2

    s = SextupleParams.from_alpha(alpha_from_abc(p3))
    rels4 = s4_relation_polys(s)
    assert len(rels4) == 6 and all(r.degree == 2 for r in rels4)
    assert span(rels4, 4, 2).dim == 6


def test_presentation_builders_agree_with_relation_lists():
    p = AbcParams.of(1, 2, 3)
    assert build_s3(p).ngens == 3
    assert build_s2(p).ngens == 2
    s = SextupleParams.from_alpha(alpha_from_abc(p))
    assert build_s4(s).ngens == 4


def test_translation_point_order_flags():
    assert order_of(point(1, 2, 3)) is None
    # equal first two coordinates force a self-inverse point
    assert order_of(point(1, 1, 2)) == 2
    assert order_of(point(1, -12, -12)) == 6


def test_central_quartic_coefficients():
    q = s2_central_quartic(AbcParams.of(1, 2, 3))
    assert q.degree == 4
    # b(a^2-c^2) = -16 on (xy)^2 + (yx)^2, words 0101 and 1010 in base 2
    assert q.row[0b0101] == fe(-16)
    assert q.row[0b1010] == fe(-16)
    # c(a^2-b^2) = -9 on the fourth powers
    assert q.row[0b0000] == q.row[0b1111] == fe(-9)
    # every coefficient vanishes on the equilateral ray
    assert not s2_central_quartic(AbcParams.of(1, 1, 1))
