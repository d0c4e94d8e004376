"""The equivariant quotient map from the 4-generator onto the 2-generator family.

Everything here is re-derived from the defining images x^2+y^2, x^2-y^2,
xy+yx, xy-yx; closed-form parameter values only enter as cross-checks.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from skverify import cli, linalg, veronese
from skverify.errors import ParameterError, VerificationError
from skverify.families import (AbcParams, SextupleParams, alpha_from_abc, build_s2,
                               build_s4, s2_central_quartic, s2_relation_polys,
                               s4_relation_polys)
from skverify.field import fe
from skverify.freealg import NcPoly, comm, span, span_rows
from skverify.graded import Quotient
from skverify.sampling import s2_reject_reason
from skverify.veronese import (build_veronese, closed_form_sextuple, extract_c4,
                               quadratic_images, verify_c4_central,
                               verify_central_pair, verify_quotient_map)

POINTS = [AbcParams.of(1, 2, 3), AbcParams.of(1, Fraction(3, 4), Fraction(-3, 5)),
          AbcParams.of(2, 1, 7)]


def test_quadratic_images_are_the_four_symmetric_forms():
    x, y = NcPoly.gens(2)
    w = quadratic_images()
    assert w[0] == x * x + y * y
    assert w[1] == x * x - y * y
    assert w[2] == x * y + y * x
    assert w[3] == x * y - y * x


def _gamma_bases():
    """Image*generator and generator*image: the left and right expansion bases."""
    x, y = NcPoly.gens(2)
    images = quadratic_images()
    return {"left": [w * g for w in images for g in (x, y)],
            "right": [g * w for g in (x, y) for w in images]}


def _expand(rel, basis):
    return linalg.solve_columns([b.row for b in basis], (rel + rel).row)


def test_gamma_expansions_reconstruct_relations():
    # both bases have rank 8 in the 8-dimensional degree-3 space, so twice
    # each relation always expands on either side and the rebuild is exact
    for side, basis in _gamma_bases().items():
        assert len(linalg.rref([b.row for b in basis])[0]) == 8, side
    for p in POINTS:
        for rel in s2_relation_polys(p):
            for basis in _gamma_bases().values():
                sol = _expand(rel, basis)
                assert sum((cf * b for cf, b in zip(sol, basis)), NcPoly.zero(2, 3)) == rel + rel


def test_gamma_expansion_reference_coefficients():
    # oracle for the closed-form extra quadric: twice the first relation,
    # expanded over image*generator, has coefficients (a+c, c-a, a+b, a-b) on
    # w00 x, w10 x, w01 y, w11 y; up to the last sign these are extra's
    # coefficients on v00^2, v10^2, v01^2, v11^2
    left = _gamma_bases()["left"]
    assert _expand(s2_relation_polys(AbcParams.of(1, 2, 3))[0], left) == [
        fe(4), fe(0), fe(2), fe(0), fe(0), fe(3), fe(0), fe(-1)]
    for p in POINTS:
        sol = _expand(s2_relation_polys(p)[0], left)
        assert [sol[1], sol[3], sol[4], sol[6]] == [fe(0)] * 4
        extra = build_veronese(p).extra
        want = [extra.row[E(i, i)] for i in range(4)]
        want[3] = -want[3]
        assert [sol[0], sol[2], sol[5], sol[7]] == want


def test_kernel_has_dimension_seven():
    for p in POINTS:
        vm = build_veronese(p)
        assert span_rows(4, 2, vm.kernel_rows).dim == 7
        assert vm.algebra.p == build_s2(p)


small_fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))


@settings(max_examples=40, deadline=None)
@given(small_fractions, small_fractions)
def test_pair_extraction_matches_closed_form(b, c):
    # the six coefficients are read off the derived kernel; the closed form
    # in a, b, c is an independent oracle for them
    p = AbcParams.of(1, b, c)
    assume(s2_reject_reason(p) is None)
    vm = build_veronese(p)
    assert vm.sextuple == closed_form_sextuple(p)
    assert span_rows(4, 2, vm.kernel_rows).dim == 7
    assert span_rows(4, 2, vm.kernel_rows[:6]) == span(
        s4_relation_polys(closed_form_sextuple(p)))


@settings(max_examples=40, deadline=None)
@given(st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)),
       st.builds(Fraction, st.integers(-12, 12), st.integers(1, 6)))
def test_every_accepted_point_has_a_central_pair(b, c):
    # the nondegenerate alpha2 = a01 b01 and alpha3 = a11 b11 keep all six
    # coefficients nonzero, so both translates exist, and omega2 = 0 would need a = 0
    p = AbcParams.of(1, b, c)
    assume(s2_reject_reason(p) is None)
    vm = build_veronese(p)
    assert all(vm.sextuple)
    assert vm.omega2


@pytest.mark.parametrize("wrong", [lambda a, b: (b, a), lambda a, b: (-a, -b)],
                         ids=("swapped", "negated"))
@pytest.mark.parametrize("abc", [(1, 2, 3), (1, 3, 5)], ids=("1,2,3", "1,3,5"))
def test_wrong_pair_coefficients_are_caught(monkeypatch, wrong, abc):
    # a pair coefficient read wrongly must not reach the sextuple unnoticed:
    # swapping or negating each (a, b) pair keeps the fivefold products, so
    # only the kernel span check can catch it
    right = SextupleParams.of

    def misread(*coeffs):
        pairs = (wrong(a, b) for a, b in zip(coeffs[0::2], coeffs[1::2]))
        return right(*(x for pair in pairs for x in pair))

    monkeypatch.setattr(SextupleParams, "of", staticmethod(misread))
    with pytest.raises(VerificationError, match="do not span the kernel"):
        build_veronese(AbcParams.of(*abc))


def test_closed_form_sextuple_values():
    s = closed_form_sextuple(AbcParams.of(1, 2, 3))
    assert s.a10 == fe(2) and s.b10 == fe(3)
    assert s.a01 == fe(-3) and s.b01 == fe(7)
    assert s.a11 == fe(Fraction(1, 5)) and s.b11 == fe(Fraction(-3, 5))


def test_quotient_map_certificate():
    for p in POINTS:
        rec = verify_quotient_map(build_veronese(p))
        assert rec["pass"]
        assert rec["sextuple_matches_closed_form"]
        assert rec["alpha_matches_closed_form"]
        assert rec["relations_in_ideal"] == (True,) * 7
        assert rec["elements_are_eigenvectors"]
        assert rec["squared_action_diagonal"]
        assert rec["image_equivariance"]
        assert rec["element_characters"] == (
            (1, 0), (1, 0), (0, 1), (0, 1), (1, 1), (1, 1), (0, 0))


COORDINATES = ({0: fe(1)}, {1: fe(1)}, {2: fe(1)}, {3: fe(1)})
PM_WITH_ZERO = ({0: fe(1), 2: fe(1)}, {}, {1: fe(1), 3: fe(1)}, {1: fe(1), 3: fe(-1)})


def _pm_basis(cols):
    def patch(monkeypatch, vm):
        monkeypatch.setattr(veronese, "h4_pm_basis", lambda: cols)
        return vm
    return patch


def _swap_images(monkeypatch, vm):
    images = list(vm.images)
    images[1], images[2] = images[2], images[1]
    return vm._replace(images=tuple(images))


def _image_off_the_eigenvectors(monkeypatch, vm):
    x, y = NcPoly.gens(2)
    return vm._replace(images=(*vm.images[:3], x * y))


@pytest.mark.parametrize("breaks, fields", [
    # e1^2 swaps x0 and x2: not diagonal
    (_pm_basis(COORDINATES), ("squared_action_diagonal",)),
    # every sign holds on a zero column
    (_pm_basis(PM_WITH_ZERO), ("squared_action_diagonal",)),
    # x^2 - y^2 and xy + yx carry different signs
    (_swap_images, ("squared_action_diagonal", "elements_are_eigenvectors")),
    # e1 swaps x and y: xy goes to yx
    (_image_off_the_eigenvectors, ("image_equivariance", "elements_are_eigenvectors")),
], ids=("coordinate-basis", "zero-column", "wrong-sign", "image-no-eigenvector"))
def test_squared_action_check_catches_a_wrong_basis_or_sign(monkeypatch, breaks, fields):
    vm = breaks(monkeypatch, build_veronese(AbcParams.of(1, 2, 3)))
    rec = verify_quotient_map(vm)
    for field in fields:
        assert rec[field] is False
    assert rec["pass"] is False


def test_quotient_map_catches_a_quadric_outside_the_ideal():
    # v00^2 maps to (x^2 + y^2)^2: invariant like the extra quadric, but not
    # zero in the 2-generator algebra
    vm = build_veronese(AbcParams.of(1, 2, 3))
    v00 = NcPoly.gens(4)[0]
    rec = verify_quotient_map(vm._replace(kernel_rows=(*vm.kernel_rows[:6],
                                                        (v00 * v00).row)))
    assert rec["relations_in_ideal"] == (True,) * 6 + (False,)
    assert rec["element_characters"] == verify_quotient_map(vm)["element_characters"]
    assert [k for k, v in rec.items() if v is False] == ["pass"]


def E(i, j):
    """Row key of the word v_i v_j, generators in order v00, v10, v01, v11."""
    return 4 * i + j


def _catalogued_pair_rows(p):
    """The six relation couples in a, b, c as catalogued."""
    a, b, c = fe(p.a), fe(p.b), fe(p.c)
    return [
        {E(0, 1): a, E(1, 0): -a, E(2, 3): -b, E(3, 2): -b},
        {E(2, 3): a, E(3, 2): -a, E(0, 1): -c, E(1, 0): -c},
        {E(0, 2): c - b, E(2, 0): b - c, E(3, 1): b + c - 2 * a, E(1, 3): b + c - 2 * a},
        {E(3, 2): b - c, E(2, 3): c - b, E(0, 2): b + c + 2 * a, E(2, 0): b + c + 2 * a},
        {E(0, 3): b + c, E(3, 0): -(b + c), E(1, 2): c - b - 2 * a, E(2, 1): c - b - 2 * a},
        {E(1, 2): b + c, E(2, 1): -(b + c), E(0, 3): 2 * a - b + c, E(3, 0): 2 * a - b + c},
    ]


def test_reference_pair_forms_reveal_one_mismatch():
    # the fourth catalogued form puts its commutator on (v11, v01) and lies
    # outside the derived kernel at every sample point; on (v11, v10), the
    # slot of the derived relation, it lies inside
    for p in POINTS:
        kernel = span_rows(4, 2, build_veronese(p).kernel_rows)
        rows = _catalogued_pair_rows(p)
        assert [kernel.contains(r) for r in rows] == [True] * 3 + [False] + [True] * 2
        fourth = rows[3]
        moved = {E(3, 1): fourth.pop(E(3, 2)), E(1, 3): fourth.pop(E(2, 3)), **fourth}
        assert kernel.contains(moved)


def test_alpha_agrees_with_closed_form():
    for p in POINTS:
        vm = build_veronese(p)
        assert vm.sextuple.alpha() == alpha_from_abc(p)


def test_map_is_multiplicative():
    p = AbcParams.of(1, 2, 3)
    vm = build_veronese(p)
    g = NcPoly.gens(4)
    lhs = vm.apply(g[0] * g[2])
    assert lhs == quadratic_images()[0] * quadratic_images()[2]


def test_degenerate_parameters_rejected():
    with pytest.raises(ParameterError):
        build_veronese(AbcParams.of(0, 2, 3))
    with pytest.raises(ParameterError):
        build_veronese(AbcParams.of(1, 2, 2))


def test_central_pair_certificate():
    for p in POINTS:
        rec = verify_central_pair(build_veronese(p))
        assert rec["pass"]
        assert rec["omega1_central"] and rec["omega2_central"]
        assert rec["independent_mod_relations"]
        assert rec["centralizer_dim"] == 2
        assert rec["centralizer_is_pair_span"]
        assert rec["second_translate_in_span"]


def test_quotient_checks_share_one_s4_engine(monkeypatch, capsys):
    # build_veronese builds the engine at the sextuple; the central pair and
    # the quotient Hilbert check both read it and build no other
    built = []

    def counted(s):
        built.append(s)
        return build_s4(s)

    monkeypatch.setattr(veronese, "build_s4", counted)
    monkeypatch.setattr(cli, "build_s4", counted)
    assert cli.main(["verify", "quotient", "--abc", "1,2,3", "--max-degree", "3"]) == 0
    assert "FAIL" not in capsys.readouterr().out
    (sextuple,) = built
    assert sextuple == closed_form_sextuple(AbcParams.of(1, 2, 3))


@pytest.mark.parametrize("abc", [(1, 2, 3), (1, 1, 8)], ids=("1,2,3", "1,1,8"))
def test_central_pair_fails_on_a_wrong_second_translate(monkeypatch, abc):
    # reversing the coordinates of the second symmetry's translate moves it
    # out of the pair span, and the pair check must fail with it
    translates = veronese._square_translates

    def reversed_t2(s):
        t1, t2 = translates(s)
        return t1, lambda n: t2(n)[::-1]

    monkeypatch.setattr(veronese, "_square_translates", reversed_t2)
    rec = verify_central_pair(build_veronese(AbcParams.of(*abc)))
    assert rec["second_translate_in_span"] is False
    assert rec["pass"] is False


def test_central_pair_fails_on_a_non_central_square():
    vm = build_veronese(AbcParams.of(1, 2, 3))
    v00, _, v01, _ = NcPoly.gens(4)
    # v01^2, the translate of v00^2, is not central either, and neither spans
    # the centralizer
    rec = verify_central_pair(vm._replace(extra=v00 * v00, omega2=v01 * v01))
    assert rec["omega1_central"] is False
    assert rec["omega2_central"] is False
    assert rec["centralizer_is_pair_span"] is False
    assert rec["pass"] is False


def test_central_pair_fails_when_omega2_is_omega1(monkeypatch):
    rec = verify_central_pair(_first_translate_is_identity(monkeypatch, AbcParams.of(1, 2, 3)))
    assert rec["independent_mod_relations"] is False
    assert rec["pass"] is False


def test_central_pair_needs_all_six_coefficients():
    # 2a = b - c (a11 = 0) and 2a = c - b (a01 = 0) each make one pair
    # coefficient vanish and a translate of the extra quadric undefined
    for abc in ((2, 1, 5), (1, 3, -1)):
        with pytest.raises(ParameterError, match="all six coefficients"):
            build_veronese(AbcParams.of(*abc))


def test_quartic_image_extraction():
    for p in POINTS:
        rec = extract_c4(build_veronese(p))
        assert rec["pass"]
        assert rec["omega1_maps_to_zero"]
        assert rec["mu"] is not None
        assert rec["quartic_invariant"]
    # normalization-dependent regression pin at the reference point
    assert extract_c4(build_veronese(AbcParams.of(1, 2, 3)))["mu"] == fe(1)


# each breaker returns the quotient map at p with one part broken

def _omega1_is_omega2(monkeypatch, p):
    vm = build_veronese(p)
    return vm._replace(extra=vm.omega2)


def _first_translate_is_identity(monkeypatch, p):
    translates = veronese._square_translates

    def identity_t1(s):
        return lambda n: n, translates(s)[1]

    monkeypatch.setattr(veronese, "_square_translates", identity_t1)
    return build_veronese(p)


def _quartic_plus_relation(monkeypatch, p):
    closed = veronese._closed_quartic

    def shifted(p):
        x, _ = NcPoly.gens(2)
        return closed(p) + build_s2(p).relation_polys()[0] * x

    monkeypatch.setattr(veronese, "_closed_quartic", shifted)
    return build_veronese(p)


@pytest.mark.parametrize("breaks, field", [
    # omega2 maps to mu times the quartic, not to zero
    (_omega1_is_omega2, "omega1_maps_to_zero"),
    # omega2 is then omega1 again, whose image vanishes: no ratio to the quartic
    (_first_translate_is_identity, "mu"),
    # same residue, so mu is unchanged, but the sign action moves r * x
    (_quartic_plus_relation, "quartic_invariant"),
], ids=("omega1-is-omega2", "identity-translate", "quartic-plus-relation"))
def test_quartic_image_catches_each_broken_part(monkeypatch, breaks, field):
    rec = extract_c4(breaks(monkeypatch, AbcParams.of(1, 2, 3)))
    holds = {"omega1_maps_to_zero": rec["omega1_maps_to_zero"], "mu": rec["mu"] is not None,
             "quartic_invariant": rec["quartic_invariant"]}
    assert [k for k, ok in holds.items() if not ok] == [field]
    assert rec["pass"] is False


def test_quartic_is_central():
    for p in POINTS:
        rec = verify_c4_central(p, Quotient(build_s2(p)))
        assert rec["pass"]
        assert rec["central"]
        assert rec["quartic_invariant"]


def test_quartic_degenerates_to_commutator_square():
    # at [1:-2:0] the quartic collapses onto -4 (xy - yx)^2 mod relations
    p = AbcParams.of(1, -2, 0)
    pres = build_s2(p)
    q = Quotient(pres)
    x, y = NcPoly.gens(2)
    c4 = s2_central_quartic(p)
    delta = c4 + fe(4) * comm(x, y) * comm(x, y)
    assert not q.normal_row(delta.row, 4)
    assert q.normal_row(c4.row, 4)


def test_quotient_hilbert_matches_even_slice():
    for p in POINTS:
        vm = build_veronese(p)
        pres = build_s4(vm.sextuple)
        both = Quotient(pres.adjoin([vm.extra, vm.omega2])).hilbert_dims(5)
        assert both == (1, 4, 8, 12, 16, 20)
        first = Quotient(pres.adjoin([vm.extra])).hilbert_dims(3)
        evens = Quotient(build_s2(p)).hilbert_dims(6)[0::2]
        assert first == evens
