"""Point geometry: cubic group law, point matrices, determinants, minors."""

import json
from fractions import Fraction
from functools import cache, partial
from itertools import combinations, zip_longest
from math import gcd, lcm, prod

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skverify import linalg, pointscheme, sampling, veronese
from skverify.cli import main
from skverify.errors import OffCurveError, ParameterError, RankError
from skverify.families import (AbcParams, SextupleParams, build_s2, build_s3,
                               is_smooth_hesse, s3_relation_polys, s4_relation_polys)
from skverify.field import ONE, ZERO, fe, root_of_unity
from skverify.freealg import NcPoly, span
from skverify.pointscheme import (BASE, ORIGIN, X0, X1, Y0, Y1, _integer_matrix,
                                  _integer_minors, _neg, _sum, _third, coefficient_matrix,
                                  group_law_record, hesse_add, hesse_third,
                                  invariant_cubic_basis, on_hesse, point, point_module_step,
                                  point_text, s2_point_determinant, s3_degree3_overlap,
                                  s4_minor_membership, order_of, verify_c3_description)
from skverify.graded import Presentation, Quotient
from skverify.heisenberg import GroupRep, HeisenbergGroup
from skverify.veronese import verify_c4_central

CURVES = [AbcParams.of(1, 2, 3), AbcParams.of(1, Fraction(-1, 3), -2),
          AbcParams.of(1, -1, Fraction(5, 7))]
# translation points of finite order, checked by chord_order below
TORSION = {AbcParams.of(1, 1, -12): 2, AbcParams.of(1, -12, -12): 6,
           AbcParams.of(1, 1, 2): 2}
# the two inflections other than the origin that every curve of the pencil shares
FLEXES = [(1, 0, -1), (0, 1, -1)]


def chord_add(p, u, v):
    """The chord construction's sum: third(third(u, v), O)."""
    return hesse_third(p, hesse_third(p, u, v), ORIGIN)


def same_point(u, v):
    """Whether two nonzero triples are one projective point: every 2x2 minor vanishes."""
    return all(u[i] * v[j] == u[j] * v[i] for i, j in ((0, 1), (0, 2), (1, 2)))


def chord_order(p):
    tau = point(*p)
    q = tau
    for n in range(1, 13):
        if q == ORIGIN:
            return n
        q = chord_add(p, q, tau)
    return None


def test_origin_and_translation_point_lie_on_curve():
    for p in CURVES:
        assert on_hesse(p, ORIGIN)
        assert on_hesse(p, point(*p))


def test_on_hesse_answers_on_singular_members():
    # abc = 0, and (a^3 + b^3 + c^3)^3 = 27 (abc)^3
    for p in (AbcParams.of(0, 1, 1), AbcParams.of(1, 1, 1)):
        assert not is_smooth_hesse(p)
        assert on_hesse(p, ORIGIN)
        assert not on_hesse(p, (1, 2, 3))


def test_chord_tangent_closure():
    for p in CURVES:
        tau = point(*p)
        two = hesse_add(p, tau, tau)
        assert on_hesse(p, two)
        assert on_hesse(p, hesse_add(p, two, tau))
        assert on_hesse(p, _neg(tau))


def test_group_law_axioms_on_ten_multiples():
    orders = [(p, "infinite") for p in CURVES] + [(AbcParams.of(1, -12, -12), 6)]
    for p, order in orders:
        rec = group_law_record(p)
        assert rec["count"] == 10
        assert rec["tau_order"] == order
        assert rec["pass"]
        for key in ("identity", "inverses", "commutative", "multiple_consistency",
                    "associative", "chord_agrees"):
            assert rec[key] is True, key


@pytest.mark.parametrize("name, fake", [
    ("_smooth_cubic", lambda p: pointscheme._cubic(AbcParams.of(1, 2, 5))),
    ("_add", lambda u, v: (1, 1, 1)),
], ids=("tau", "multiple"))
def test_group_law_raises_on_a_point_off_the_curve(monkeypatch, name, fake):
    # the record has no on-curve fields: tau (on another curve) and each
    # multiple (from _add) must pass the on-curve check before any axiom runs
    monkeypatch.setattr(pointscheme, name, fake)
    with pytest.raises(OffCurveError):
        group_law_record(AbcParams.of(1, 2, 3))


def test_chord_cross_check_does_not_use_the_closed_law(monkeypatch):
    closed = pointscheme._sum

    def negated(u, v):
        x, y, z = closed(u, v)
        return (y, x, z)

    # the negated sum stays on the curve, so only the chord construction can catch it
    monkeypatch.setattr(pointscheme, "_sum", negated)
    rec = group_law_record(AbcParams.of(1, 2, 3))
    assert rec["chord_agrees"] is False
    assert rec["pass"] is False
    # the axioms the swap breaks are caught by the law's own checks too
    assert not (rec["identity"] or rec["associative"] or rec["multiple_consistency"])


def _rotated(closed):
    # the cubic is symmetric in X, Y, Z, so the rotated sum stays on the curve
    def rotated(u, v):
        x, y, z = closed(u, v)
        return (y, z, x)
    return rotated


def _order_dependent(closed):
    def ordered(u, v):
        x, y, z = closed(u, v)
        return (x, y, z) if u <= v else (y, x, z)
    return ordered


@pytest.mark.parametrize("breaks, field", [
    (_rotated, "inverses"),
    (_order_dependent, "commutative"),
], ids=("rotated-sum", "order-dependent-sum"))
def test_group_law_axiom_catches_a_broken_sum(monkeypatch, breaks, field):
    monkeypatch.setattr(pointscheme, "_sum", breaks(pointscheme._sum))
    rec = group_law_record(AbcParams.of(1, 2, 3))
    assert rec[field] is False
    assert rec["pass"] is False


def test_tau_order_matches_chord_oracle():
    for p, order in list(TORSION.items()) + [(p, None) for p in CURVES]:
        assert order_of(point(*p)) == order
        assert chord_order(p) == order


def test_group_law_record_reads_the_order_off_its_walk(monkeypatch):
    def unused(tau):
        raise AssertionError("order_of called")

    monkeypatch.setattr(pointscheme, "order_of", unused)
    for p, order in (((1, 1, 2), 2), ((1, -12, -12), 6), ((1, 2, 3), "infinite")):
        assert group_law_record(AbcParams.of(*p))["tau_order"] == order


def check_against_chord(p, steps):
    """Closed law against the chord construction along the multiples of tau,
    on doublings, inverses and translations by the two shared flexes."""
    tau = point(*p)
    q = tau
    for _ in range(steps):
        neg = _neg(q)
        assert neg == hesse_third(p, q, ORIGIN)
        for other in [tau, q, neg] + FLEXES:
            assert hesse_add(p, q, other) == chord_add(p, q, other)
        q = hesse_add(p, q, tau)


@settings(max_examples=60, deadline=None)
@given(st.tuples(*[st.fractions(max_denominator=30)] * 3),
       st.fractions(max_denominator=30).filter(bool))
def test_point_is_the_primitive_triple_of_any_scaling(coords, scale):
    assume(any(coords))
    v = point(*coords)
    assert gcd(*v) == 1 and next(x for x in v if x) > 0
    assert same_point(v, coords)
    assert point(*(scale * c for c in coords)) == v
    den = lcm(*(c.denominator for c in coords))
    assert point(*(int(c * den) for c in coords)) == v
    assert point(*(fe(c) for c in coords)) == v


@pytest.mark.parametrize("coords", [
    (0, 0, 0),
    (fe(0), Fraction(0), 0),
    (1, root_of_unity(3), 0),
], ids=("zero", "zero-mixed", "irrational"))
def test_point_rejects_zero_and_irrational_coordinates(coords):
    with pytest.raises(ParameterError):
        point(*coords)


def test_point_text_scales_the_first_nonzero_coordinate_to_one():
    assert point_text(point(1, Fraction(-1, 3), -2)) == "[1:-1/3:-2]"
    assert point_text((3, -1, -6)) == "[1:-1/3:-2]"
    assert point_text((0, -2, 4)) == "[0:1:-2]"


@st.composite
def smooth_params(draw):
    num = st.integers(-9, 9)
    den = st.integers(1, 9)
    p = AbcParams.of(1, Fraction(draw(num), draw(den)), Fraction(draw(num), draw(den)))
    assume(is_smooth_hesse(p))
    return p


@settings(max_examples=40, deadline=None)
@given(smooth_params())
def test_closed_law_matches_chord_construction(p):
    check_against_chord(p, 3)


def test_closed_law_matches_chord_on_torsion_walks():
    # the walks pass through the origin: order 6 and order 2
    for p in (AbcParams.of(1, -12, -12), AbcParams.of(1, 1, 2)):
        check_against_chord(p, 7)


def test_closed_law_on_cyclotomic_points():
    # [1:-w:0] is not rational, so _sum and _third run on field-element
    # triples; shifted - tau = flex is where the first formula vanishes off
    # the diagonal
    flex = (fe(1), -root_of_unity(3), fe(0))
    neg_flex = (flex[1], flex[0], flex[2])
    for p in CURVES:
        cubic = pointscheme._cubic(p)
        tau = point(*p)

        def chord(u, v):
            return _third(cubic, _third(cubic, u, v), ORIGIN)

        shifted = chord(flex, tau)
        assert same_point(chord(shifted, _neg(tau)), flex)
        for u, v in ((flex, tau), (flex, flex), (tau, neg_flex), (shifted, tau)):
            assert on_hesse(p, u) and on_hesse(p, v)
            assert same_point(_sum(u, v), chord(u, v))


def test_tangent_third_is_negated_double():
    for p in CURVES:
        tau = point(*p)
        assert hesse_third(p, tau, tau) == _neg(hesse_add(p, tau, tau))


def test_add_rejects_points_off_curve():
    # the message prints the point as the report's walk fields do
    p = AbcParams.of(1, 2, 3)
    for pt, text in (((1, 1, 1), "[1:1:1]"), ((2, 2, 2), "[1:1:1]"),
                     ((1, Fraction(1, 3), 2), "[1:1/3:2]")):
        with pytest.raises(OffCurveError) as err:
            hesse_add(p, pt, ORIGIN)
        assert str(err.value) == f"{text} is not on the curve at [1:2:3]"


def s3_next_point(p, pt):
    """The matrix walk, the oracle for the point module: the unique kernel
    direction of the 3x3 matrix of linear forms at ``pt``, whose entry (r, j)
    is the sum of c * pt[a] over the words (a, j) of relation r.  Rank 3 means
    no successor, rank < 2 a successor that is not unique."""
    rows = []
    for rel in s3_relation_polys(p):
        row = {}
        for i, c in rel.row.items():
            a, j = divmod(i, 3)
            row[j] = row.get(j, ZERO) + c * pt[a]
        rows.append({j: c for j, c in row.items() if c})
    kernel = linalg.nullspace(rows, 3)
    if len(kernel) == 0:
        raise RankError("matrix is invertible: no successor point")
    if len(kernel) > 1:
        raise RankError("kernel dimension > 1: successor not unique")
    v = kernel[0]
    return point(*(v.get(j, 0) for j in range(3)))


def module_walk(p):
    return partial(point_module_step, Quotient(build_s3(p)))


def test_next_point_walk_matches_translation():
    for p in CURVES:
        tau = point(*p)
        two = hesse_add(p, tau, tau)
        for step in (partial(s3_next_point, p), module_walk(p)):
            assert step(ORIGIN) == tau
            assert step(tau) == two
            assert step(step(two)) == hesse_add(p, two, two)


@pytest.mark.parametrize("p, pt, message", [
    (AbcParams.of(1, Fraction(-1, 3), -2), (1, 2, 3), "no successor"),
    (AbcParams.of(1, 1, 1), (1, 1, 1), "successor not unique"),
], ids=("off-curve", "singular-point"))
def test_next_point_raises_on_a_rank_drop(p, pt, message):
    # [1:2:3] is off the curve at [1:-1/3:-2], so the matrix there has rank 3
    # and the module dies in degree 2; [1:1:1] is a singular point of the
    # member at [1:1:1], where the matrix has rank 1 and the module's degree 2
    # has dimension 2
    for step in (partial(s3_next_point, p), module_walk(p)):
        with pytest.raises(RankError, match=message):
            step(pt)


@st.composite
def walk_params(draw):
    """A point the s3 predicate accepts, or one of the two torsion points whose
    walks reach the origin."""
    num = st.integers(-9, 9)
    den = st.integers(1, 9)
    p = draw(st.sampled_from([AbcParams.of(1, 1, 2), AbcParams.of(1, -12, -12), None]))
    if p is None:
        p = AbcParams.of(1, Fraction(draw(num), draw(den)), Fraction(draw(num), draw(den)))
        assume(sampling.s3_reject_reason(p) is None)
    return p


@settings(max_examples=40, deadline=None)
@given(walk_params())
def test_point_module_step_matches_the_matrix_walk(p):
    step = module_walk(p)
    pt = ORIGIN
    for _ in range(3):
        nxt = step(pt)
        assert nxt == s3_next_point(p, pt)
        pt = nxt
    off = next(v for v in ((1, 1, 1), (1, 2, 3), (1, 0, 0), (1, 1, 0)) if not on_hesse(p, v))
    with pytest.raises(RankError):
        s3_next_point(p, off)
    with pytest.raises(RankError):
        step(off)


def test_point_module_step_returns_a_primitive_tuple_for_any_generator_count():
    x, y = NcPoly.gens(2)
    # the Jordan plane yx - xy - x^2: sigma[p:q] = [p:q-p], every point a point
    jordan = Quotient(Presentation.make("xy", [y * x - x * y - x * x]))
    assert point_module_step(jordan, (2, 3)) == (2, 1)
    assert point_module_step(jordan, (0, -5)) == (0, 1)
    # with x^2 as well only [0:1] is left: at [1:1] the module dies in degree 2
    smaller = Quotient(Presentation.make("xy", [x * y - y * x, x * x]))
    assert point_module_step(smaller, (0, 1)) == (0, 1)
    with pytest.raises(RankError, match="no successor"):
        point_module_step(smaller, (1, 1))


def digits(key):
    """The exponents of a monomial key, variable 0 first."""
    out = []
    while key:
        key, e = divmod(key, BASE)
        out.append(e)
    return out


def evaluate(row, pt):
    """A monomial-keyed row at a point, one exponent digit per coordinate."""
    return sum((c * prod((fe(x) ** e for x, e in zip(pt, digits(k))), start=ONE)
                for k, c in row.items()), ZERO)


def test_point_matrix_drops_rank_on_curve():
    p = AbcParams.of(1, 2, 3)
    m = [[evaluate(e, ORIGIN) for e in row]
         for row in coefficient_matrix(s3_relation_polys(p))]
    assert len(m) == 3 and len(m[0]) == 3
    det = (m[0][0] * (m[1][1] * m[2][2] - m[1][2] * m[2][1])
           - m[0][1] * (m[1][0] * m[2][2] - m[1][2] * m[2][0])
           + m[0][2] * (m[1][0] * m[2][1] - m[1][1] * m[2][0]))
    assert det == fe(0)


def test_degree3_overlap_shape():
    for p in CURVES:
        rec = s3_degree3_overlap(p)
        assert rec["sum_dim"] == 17
        assert rec["meet_dim"] == 1
        assert rec["meet_is_relation_combo"]
        assert rec["invariant_dim"] == 1
        assert rec["invariant_is_meet"]
        assert rec["rv_dim"] == 9 and rec["vr_dim"] == 9
        assert rec["pass"]


def test_wrong_invariant_basis_or_action_is_caught(monkeypatch):
    # with f2 and f3 swapped, a*f1 + b*f2 + c*f3 is not the relation
    # combination, and the tangent combination is not the central cubic
    p = CURVES[0]
    basis = invariant_cubic_basis()
    monkeypatch.setattr(pointscheme, "invariant_cubic_basis",
                        lambda: [basis[0], basis[2], basis[1]])
    rec = s3_degree3_overlap(p)
    assert rec["meet_is_relation_combo"] is False
    assert rec["invariant_is_meet"]
    assert rec["pass"] is False
    rec = verify_c3_description(p, Quotient(build_s3(p)))
    assert rec["ratio"] is None
    assert rec["pass"] is False
    monkeypatch.undo()
    # the cycle alone, without diag(1, w, w^2), fixes more than the meet
    g = HeisenbergGroup(3)
    cycle = tuple(((c - 1) % 3, fe(1)) for c in range(3))
    monkeypatch.setattr(pointscheme, "h3_gen_rep",
                        lambda: GroupRep(g, cycle, tuple((c, fe(1)) for c in range(3)), "cycle"))
    rec = s3_degree3_overlap(p)
    assert rec["invariant_is_meet"] is False
    assert rec["invariant_dim"] == 5
    assert rec["pass"] is False


def test_invariant_cubic_basis_is_three_dimensional():
    basis = invariant_cubic_basis()
    assert len(basis) == 3
    assert span(basis, 3, 3).dim == 3


def test_center_cubic_certificate():
    for p in CURVES:
        rec = verify_c3_description(p, Quotient(build_s3(p)))
        assert rec["pass"]
        assert rec["centralizer_dim"] == 1
        assert rec["ratio"] is not None
        assert rec["coefficient_triple"] is not None


def test_center_cubic_certificate_leaves_the_order_to_the_predicate(monkeypatch):
    # the s3 predicate has already rejected orders 1 and 3; torsion of other
    # orders is certified like any other point
    def unused(tau):
        raise AssertionError("order_of called")

    monkeypatch.setattr(pointscheme, "order_of", unused)
    for abc in ((1, 2, 3), (1, 1, 2), (1, -12, -12)):
        p = AbcParams.of(*abc)
        assert verify_c3_description(p, Quotient(build_s3(p)))["pass"]


def test_quartic_centralizer_record():
    p = AbcParams.of(1, 2, 3)
    rec = verify_c4_central(p, Quotient(build_s2(p)))
    assert rec["central"]
    assert rec["quartic_nonzero_mod_ideal"]
    assert rec["centralizer_dim"] >= 1


def test_quartic_centralizer_record_fails_on_a_quartic_in_the_ideal(monkeypatch):
    # a relation times x reduces to zero: the record reads not central, it does not raise
    p = AbcParams.of(1, 2, 3)
    pres = build_s2(p)
    x, _ = NcPoly.gens(2)
    monkeypatch.setattr(veronese, "_closed_quartic", lambda p: pres.relation_polys()[0] * x)
    rec = verify_c4_central(p, Quotient(pres))
    assert rec["central"] is False
    assert rec["quartic_nonzero_mod_ideal"] is False
    assert rec["pass"] is False


S2_SYMBOLS = sympy.symbols("x0 y0 x1 y1")  # variables 0..3 of the s2 matrix entries


def row_to_sympy(row, syms=S2_SYMBOLS):
    total = sympy.Integer(0)
    for key, coeff in row.items():
        term = sympy.Rational(coeff.rational())
        for s, e in zip(syms, digits(key)):
            term *= s ** e
        total += term
    return sympy.expand(total)


def s2_sympy_matrix(p):
    """The 2x2 matrix of the s2 relations a(yyx + xyy) + b yxy + c xxx and its
    swap, split by hand: letter one is factor 0, letter two factor 1, letter
    three the column."""
    a, b, c = (sympy.Rational(v.numerator, v.denominator) for v in p)
    rels = [[(a, "yyx"), (a, "xyy"), (b, "yxy"), (c, "xxx")],
            [(a, "xxy"), (a, "yxx"), (b, "xyx"), (c, "yyy")]]
    x0, y0, x1, y1 = S2_SYMBOLS
    factor = ({"x": x0, "y": y0}, {"x": x1, "y": y1})
    m = sympy.zeros(2, 2)
    for r, rel in enumerate(rels):
        for coeff, w in rel:
            m[r, "xy".index(w[2])] += coeff * factor[0][w[0]] * factor[1][w[1]]
    return m


@pytest.mark.parametrize("p", CURVES + list(TORSION) + [AbcParams.of(0, 2, 3)], ids=str)
def test_point_determinant_matches_sympy(p):
    det = s2_point_determinant(p)["determinant"]
    assert row_to_sympy(det) == sympy.expand(s2_sympy_matrix(p).det())


def test_point_determinant_matches_reference_curve():
    # det = -(reference curve) at every [a:b:c], a = 0 included
    for p in CURVES + list(TORSION) + [AbcParams.of(0, 2, 3)]:
        rec = s2_point_determinant(p)
        assert rec["matrix_matches_reference"]
        assert rec["ratio_to_reference"] == -1
        assert rec["pass"]


def test_point_determinant_catches_a_doubled_reference_curve(monkeypatch):
    right = pointscheme.s2_reference_curve
    monkeypatch.setattr(pointscheme, "s2_reference_curve",
                        lambda p: {k: 2 * c for k, c in right(p).items()})
    rec = s2_point_determinant(AbcParams.of(1, 2, 3))
    assert rec["matrix_matches_reference"]
    assert rec["ratio_to_reference"] == fe(Fraction(-1, 2))
    assert rec["pass"] is False


def test_point_determinant_catches_a_wrong_reference_curve(monkeypatch):
    right = pointscheme.s2_reference_curve

    def flipped(p):
        # negate the ab (x0^2 y1^2 + y0^2 x1^2) term
        curve = right(p)
        for k in (2 * (X0 + Y1), 2 * (Y0 + X1)):
            curve[k] = -curve[k]
        return curve

    monkeypatch.setattr(pointscheme, "s2_reference_curve", flipped)
    rec = s2_point_determinant(AbcParams.of(1, 2, 3))
    assert rec["matrix_matches_reference"]
    assert rec["ratio_to_reference"] is None
    assert rec["pass"] is False


def _negate_entry(monkeypatch, name, i, j):
    right = getattr(pointscheme, name)

    def flipped(*args):
        m = right(*args)
        m[i][j] = {k: -c for k, c in m[i][j].items()}
        return m

    monkeypatch.setattr(pointscheme, name, flipped)


def test_point_determinant_catches_a_wrong_reference_matrix(monkeypatch, capsys):
    _negate_entry(monkeypatch, "s2_reference_matrix", 0, 1)
    rec = s2_point_determinant(AbcParams.of(1, 2, 3))
    assert rec["matrix_matches_reference"] is False
    assert rec["ratio_to_reference"] is not None
    assert rec["pass"] is False
    assert main(["verify", "s2", "--abc", "1,2,3", "--format", "json"]) == 1
    checks = {c["id"]: c for c in json.loads(capsys.readouterr().out)["checks"]}
    check = checks["s2-point-determinant"]
    assert check["data"]["matrix_matches_reference"] is False
    assert check["status"] == "fail"


def test_point_determinant_splits_when_first_parameter_vanishes():
    rec = s2_point_determinant(AbcParams.of(0, 2, 3))
    expr = row_to_sympy(rec["determinant"])
    factors = sympy.factor_list(expr)[1]
    for base, _mult in factors:
        assert sympy.total_degree(base) == 1


SQRT_TRIPLES = [
    (fe(1), fe(Fraction(-7, 4)), fe(1)),
    (fe(1), fe(Fraction(-2, 7)), fe(-1)),
    (fe(Fraction(-9, 8)), root_of_unity(4), -root_of_unity(4)),
]


def add_rows(p, q, s=1):
    """p + s*q for monomial-keyed FieldElem rows."""
    out = dict(p)
    for k, c in q.items():
        out[k] = out.get(k, ZERO) + s * c
    return {k: c for k, c in out.items() if c}


def mul_rows(p, q):
    """Product of monomial-keyed FieldElem rows.  Keys add, which needs every
    exponent sum below BASE: asserted digit by digit."""
    out = {}
    for k1, c1 in p.items():
        for k2, c2 in q.items():
            assert all(a + b < BASE for a, b in zip_longest(digits(k1), digits(k2), fillvalue=0))
            out = add_rows(out, {k1 + k2: c1 * c2})
    return out


def cofactor_det(m):
    """Determinant by cofactor expansion along the first row, no memo."""
    if len(m) == 1:
        return m[0][0]
    total = {}
    for j, e in enumerate(m[0]):
        term = mul_rows(e, cofactor_det([row[:j] + row[j + 1:] for row in m[1:]]))
        total = add_rows(total, term, -1 if j % 2 else 1)
    return total


def scaled(row, scale):
    """A FieldElem row times an int."""
    return {k: c * scale for k, c in row.items()}


def integer_minors(m):
    """The package's integer minors as FieldElem rows, and the product of
    the row scales of each: a row's scale is the lcm of its denominators."""
    ints = linalg.int_rows([e for row in m for e in row])
    rows, scales = _integer_matrix(m, ints)
    assert scales == [lcm(*(c.den for e in row for c in e.values())) for row in m]
    products = [prod(scales[r] for r in quad) for quad in combinations(range(len(m)), 4)]
    return [ints.lower(r, 1) for r in _integer_minors(rows, ints)], products


@pytest.mark.parametrize("lam", SQRT_TRIPLES)
def test_memoized_minors_match_cofactor_expansion(lam):
    m = coefficient_matrix(s4_relation_polys(SextupleParams.from_sqrt(*lam)))
    quads = list(combinations(range(6), 4))
    minors, products = integer_minors(m)
    assert minors == [scaled(cofactor_det([m[r] for r in quad]), f)
                      for quad, f in zip(quads, products)]
    assert len(quads) == 15


# -- the FieldElem minors and membership, kept as the oracle ----------------

def maximal_minors(m):
    """The k x k minors of an r x k matrix of FieldElem rows, one per row set
    in combinations order, by memoized Laplace expansion."""

    @cache
    def det(rows, cols):
        if len(rows) == 1:
            return m[rows[0]][cols[0]]
        total = {}
        for j, c in enumerate(cols):
            term = mul_rows(m[rows[0]][c], det(rows[1:], cols[:j] + cols[j + 1:]))
            total = add_rows(total, term, -1 if j % 2 else 1)
        return total

    cols = tuple(range(len(m[0])))
    return [det(rows, cols) for rows in combinations(range(len(m)), len(cols))]


def quartic_membership(minors, q1, q2):
    """Membership of each minor in the quartic multiples of q1 and q2, by
    FieldElem RREF and reduce_mod over a dense monomial index."""
    v = [{BASE ** j: ONE} for j in range(4)]
    products = [mul_rows(mul_rows(q, v[i]), v[j])
                for q in (q1, q2) for i in range(4) for j in range(i, 4)]
    keys = {k for row in minors + products for k in row}
    index = {k: i for i, k in enumerate(sorted(keys))}

    def dense(row):
        return {index[k]: c for k, c in row.items()}

    pivots, rows = linalg.rref([dense(pr) for pr in products])
    return [not linalg.reduce_mod(dense(mp), pivots, rows) for mp in minors]


SQRT_SAMPLES = sorted({t for seed in range(1, 8)
                       for t in sampling.sample_parameters("sqrt", 8, seed)}, key=str)


def test_sqrt_samples_include_cyclotomic_points():
    assert any(not v.is_rational() for t in SQRT_SAMPLES for v in t)


@pytest.mark.parametrize("triple", SQRT_SAMPLES, ids=str)
def test_integer_minors_match_the_field_oracle(triple):
    m = coefficient_matrix(s4_relation_polys(SextupleParams.from_sqrt(*triple)))
    oracle = maximal_minors(m)
    minors, products = integer_minors(m)
    assert minors == [scaled(mp, f) for mp, f in zip(oracle, products)]
    q1, q2, lam = pointscheme.quadric_pair(*triple)
    rec = s4_minor_membership(*triple)
    assert rec["memberships"] == quartic_membership(oracle, q1, q2)
    perturbed = pointscheme._quadrics(lam + fe(1))
    assert rec["perturbed_failures"] == quartic_membership(oracle, *perturbed).count(False)


def test_minor_membership_for_three_families():
    for lam in SQRT_TRIPLES:
        rec = s4_minor_membership(*lam)
        assert rec["pass"]
        assert rec["all_members"]
        assert all(rec["memberships"])
        assert rec["matrix_matches_reference"]
        # a generic perturbation must break at least one minor
        assert rec["perturbed_failures"] >= 1


def test_minor_membership_catches_a_wrong_reference_matrix(monkeypatch):
    _negate_entry(monkeypatch, "s4_reference_matrix", 2, 3)
    rec = s4_minor_membership(*SQRT_TRIPLES[0])
    assert rec["matrix_matches_reference"] is False
    assert rec["pass"] is False
