"""The three graded algebra families and their parameter types.

Parameters are projective: [a:b:c] is stored with its first nonzero entry
normalized to 1, so equal points compare equal.  The 4-generator family is
parametrized by a sextuple of coefficients, one skew/symmetric pair per
generator pair, constrained to the fivefold locus

    a10 b10 + a01 b01 + a11 b11 + a10 b10 a01 b01 a11 b11 = 0.

Two standard slices of that locus matter here: the alpha-form (all b = 1,
products alpha_i as free parameters) and the square-root form
(l10, -l10, l01, -l01, l11, l11), whose fivefold condition becomes
l10^2 + l01^2 - l11^2 - (l10 l01 l11)^2 = 0.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import ParameterError
from .field import FieldElem, fe
from .freealg import NcPoly, acomm, comm
from .graded import Presentation


class AbcParams(NamedTuple):
    """Projective parameter point [a:b:c] with rational coordinates."""

    a: Fraction
    b: Fraction
    c: Fraction

    @staticmethod
    def of(a, b, c) -> "AbcParams":
        coords = (Fraction(a), Fraction(b), Fraction(c))
        lead = next((x for x in coords if x), None)
        if lead is None:
            raise ParameterError("[0:0:0] is not a projective point")
        return AbcParams(*(x / lead for x in coords))

    def __str__(self):
        return f"[{self.a}:{self.b}:{self.c}]"


class AlphaTriple(NamedTuple):
    """Product coordinates of the fivefold locus: sum + product = 0."""

    alpha1: FieldElem
    alpha2: FieldElem
    alpha3: FieldElem

    @staticmethod
    def of(a1, a2, a3) -> "AlphaTriple":
        a1, a2, a3 = fe(a1), fe(a2), fe(a3)
        if a1 + a2 + a3 + a1 * a2 * a3 != 0:
            raise ParameterError("triple violates the locus equation")
        return AlphaTriple(a1, a2, a3)

    @staticmethod
    def complete(a1, a2) -> "AlphaTriple":
        """Solve for the third coordinate; needs 1 + a1*a2 != 0."""
        a1, a2 = fe(a1), fe(a2)
        den = fe(1) + a1 * a2
        if not den:
            raise ParameterError("1 + alpha1*alpha2 = 0 leaves alpha3 undetermined")
        return AlphaTriple(a1, a2, -(a1 + a2) / den)

    def is_degenerate(self) -> bool:
        """Any coordinate in {0, 1, -1}."""
        return any(x == v for x in self for v in (fe(0), fe(1), fe(-1)))

    def __str__(self):
        return f"({self.alpha1}, {self.alpha2}, {self.alpha3})"


class SextupleParams(NamedTuple):
    """Coefficients (a10, b10, a01, b01, a11, b11) on the fivefold locus."""

    a10: FieldElem
    b10: FieldElem
    a01: FieldElem
    b01: FieldElem
    a11: FieldElem
    b11: FieldElem

    @staticmethod
    def of(a10, b10, a01, b01, a11, b11) -> "SextupleParams":
        s = SextupleParams(*(fe(x) for x in (a10, b10, a01, b01, a11, b11)))
        p1, p2, p3 = s.products()
        if p1 + p2 + p3 + p1 * p2 * p3 != 0:
            raise ParameterError("sextuple violates the fivefold equation")
        return s

    @staticmethod
    def from_alpha(t: AlphaTriple) -> "SextupleParams":
        return SextupleParams.of(t.alpha1, 1, t.alpha2, 1, t.alpha3, 1)

    @staticmethod
    def from_sqrt(l10, l01, l11) -> "SextupleParams":
        """The (l, -l, l, -l, l, +l) slice; validates the quartic condition."""
        l10, l01, l11 = fe(l10), fe(l01), fe(l11)
        if l10 ** 2 + l01 ** 2 - l11 ** 2 - (l10 * l01 * l11) ** 2 != 0:
            raise ParameterError("square-root triple violates the quartic condition")
        return SextupleParams.of(l10, -l10, l01, -l01, l11, l11)

    def products(self) -> tuple[FieldElem, FieldElem, FieldElem]:
        return (self.a10 * self.b10, self.a01 * self.b01, self.a11 * self.b11)

    def alpha(self) -> AlphaTriple:
        return AlphaTriple.of(*self.products())

    def __str__(self):
        return "(" + ", ".join(str(x) for x in self) + ")"


# -- presentations ----------------------------------------------------------

S3_NAMES = ("x", "y", "z")
S2_NAMES = ("x", "y")
S4_NAMES = ("v00", "v10", "v01", "v11")


def s3_relation_polys(p: AbcParams) -> list[NcPoly]:
    x, y, z = NcPoly.gens(3)
    a, b, c = fe(p.a), fe(p.b), fe(p.c)
    return [
        a * (y * z) + b * (z * y) + c * (x * x),
        a * (z * x) + b * (x * z) + c * (y * y),
        a * (x * y) + b * (y * x) + c * (z * z),
    ]


def build_s3(p: AbcParams) -> Presentation:
    """Three quadratic relations: a*yz + b*zy + c*x^2 and its cyclic shifts."""
    return Presentation.make(S3_NAMES, s3_relation_polys(p))


def s2_relation_polys(p: AbcParams) -> list[NcPoly]:
    x, y = NcPoly.gens(2)
    a, b, c = fe(p.a), fe(p.b), fe(p.c)
    return [
        a * (y * y * x + x * y * y) + b * (y * x * y) + c * (x * x * x),
        a * (x * x * y + y * x * x) + b * (x * y * x) + c * (y * y * y),
    ]


def build_s2(p: AbcParams) -> Presentation:
    """Two cubic relations: a(y^2 x + x y^2) + b yxy + c x^3 and the swap."""
    return Presentation.make(S2_NAMES, s2_relation_polys(p))


# (s, t, u, v) per relation, in sextuple order a10, b10, a01, b01, a11, b11:
# relation i is [v_s, v_t] - (coefficient i) {v_u, v_v}, generators v00, v10, v01, v11
S4_PAIRS = ((0, 1, 2, 3), (2, 3, 0, 1), (0, 2, 3, 1), (3, 1, 0, 2), (0, 3, 1, 2), (1, 2, 0, 3))


def s4_relation_polys(s: SextupleParams) -> list[NcPoly]:
    v = NcPoly.gens(4)
    return [comm(v[i], v[j]) - coeff * acomm(v[k], v[l])
            for (i, j, k, l), coeff in zip(S4_PAIRS, s)]


def build_s4(s: SextupleParams) -> Presentation:
    """Six quadratic relations, one commutator/anticommutator pair per generator pair."""
    pres = Presentation.make(S4_NAMES, s4_relation_polys(s))
    if pres.relations[0][1].dim != 6:
        raise ParameterError("degenerate sextuple: relation space has dimension < 6")
    return pres


# -- parameter predicates ---------------------------------------------------

def is_smooth_hesse(p: AbcParams) -> bool:
    """Smoothness of abc(X^3+Y^3+Z^3) = (a^3+b^3+c^3)XYZ.

    Closed form: abc != 0 and (a^3+b^3+c^3)^3 != 27(abc)^3.  The test suite
    validates this against a Jacobian common-zero search on random parameters.
    """
    a, b, c = p.a, p.b, p.c
    prod = a * b * c
    if prod == 0:
        return False
    s = a ** 3 + b ** 3 + c ** 3
    return s ** 3 != 27 * prod ** 3


def alpha_from_abc(p: AbcParams) -> AlphaTriple:
    """Product coordinates of the quotient-map image of the 2-generator family.

    alpha1 = bc/a^2,
    alpha2 = -((b+c)^2 - 4a^2) / (b-c)^2,
    alpha3 = ((b-c)^2 - 4a^2) / (b+c)^2.
    """
    a, b, c = p.a, p.b, p.c
    if a == 0:
        raise ParameterError("a = 0: degenerate for the quotient construction")
    if b == c or b == -c:
        raise ParameterError("b = +-c: denominators vanish")
    a1 = Fraction(b * c, a * a)
    a2 = -Fraction((b + c) ** 2 - 4 * a * a, (b - c) ** 2)
    a3 = Fraction((b - c) ** 2 - 4 * a * a, (b + c) ** 2)
    return AlphaTriple.of(a1, a2, a3)


def s2_central_quartic(p: AbcParams) -> NcPoly:
    """The degree-4 element asserted central in the 2-generator family:

    b(a^2-c^2)((xy)^2+(yx)^2) + a(b^2-a^2)(yx^2y+xy^2x)
      + a(c^2-a^2)(x^2y^2+y^2x^2) + c(a^2-b^2)(x^4+y^4).
    """
    x, y = NcPoly.gens(2)
    a, b, c = fe(p.a), fe(p.b), fe(p.c)
    return (b * (a * a - c * c) * ((x * y) ** 2 + (y * x) ** 2)
            + a * (b * b - a * a) * (y * x * x * y + x * y * y * x)
            + a * (c * c - a * a) * (x * x * y * y + y * y * x * x)
            + c * (a * a - b * b) * (x ** 4 + y ** 4))
