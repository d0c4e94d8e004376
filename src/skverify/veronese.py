"""The equivariant quotient map onto the even part of the 2-generator family.

The four quadratics

    x^2 + y^2,  x^2 - y^2,  xy + yx,  xy - yx

span the degree-2 component and are simultaneous eigenvectors of the
generators of the order-8 group action on the 2-generator family.  Mapping
the four generators of a 4-generator presentation onto them identifies that
presentation's quotient by one central quadric with the even Veronese of the
2-generator family.  Everything here is derived, not transcribed: the
degree-2 kernel K of the map (a 7-dimensional space) is computed exactly, and
each of the six coefficients is the c with [v_s, v_t] - c {v_u, v_v} in K,
(s, t, u, v) running over families.S4_PAIRS: the ratio of the two residues
modulo K.  The six relations at the derived sextuple and the
closed-form extra relation

    (a+c) v00^2 + (c-a) v10^2 + (a+b) v01^2 + (b-a) v11^2

must span the kernel.  That extra relation is omega1, and its translate under
an order-4 symmetry is omega2: the central pair, derived once per point.  The
signs the checks compare are read from the group actions: the eigenvalues of
the order-8 generators on each image, and those of the squared order-64
generators on the sum/difference basis.
"""

from __future__ import annotations

from typing import NamedTuple

from . import linalg
from .errors import ParameterError, VerificationError
from .families import (S4_PAIRS, AbcParams, SextupleParams, alpha_from_abc, build_s2,
                       build_s4, s2_central_quartic, s4_relation_polys)
from .field import ONE, ZERO, FieldElem, fe
from .freealg import NcPoly, acomm, comm, proportional, span_rows, substitute
from .graded import Quotient
from .heisenberg import TensorPowerRep, h2_gen_rep, h4_gen_rep, h4_pm_basis


def quadratic_images() -> list[NcPoly]:
    """The four degree-2 images, in generator order v00, v10, v01, v11."""
    x, y = NcPoly.gens(2)
    return [x * x + y * y, x * x - y * y, x * y + y * x, x * y - y * x]


class VeroneseMap(NamedTuple):
    """Derived data of the quotient map at one parameter point; ``extra`` is omega1."""

    params: AbcParams
    images: tuple[NcPoly, ...]
    sextuple: SextupleParams
    extra: NcPoly            # omega1: the central quadric spanning the rest of the kernel
    omega2: NcPoly           # the second central quadric, omega1's first square translate
    kernel_rows: tuple[linalg.Row, ...]   # the six relations, then the extra quadric
    algebra: Quotient        # the 2-generator algebra the map was derived in
    s4: Quotient             # the 4-generator algebra at the sextuple, the map's source

    def apply(self, poly: NcPoly) -> NcPoly:
        """Image of a polynomial in the 4 symbols inside the 2-generator algebra."""
        return substitute(poly, list(self.images))


def _squares(coeffs) -> NcPoly:
    """sum n_i v_i^2 over the four generators."""
    vgens = NcPoly.gens(4)
    out = NcPoly.zero(4, 2)
    for g, coeff in zip(vgens, coeffs):
        out = out + (g * g) * coeff
    return out


def build_veronese(p: AbcParams) -> VeroneseMap:
    """Derive the sextuple and the central pair; the engine of the
    4-generator algebra at the sextuple is built here, once, for every check.

    The coefficient of relation (s, t, u, v) in families.S4_PAIRS is the ratio
    of the residues of [v_s, v_t] and {v_u, v_v} modulo the kernel K, and zero
    when the first residue is; it is unique because {v_u, v_v} never lies in
    K.  The six relations at the derived sextuple and the extra quadric
    must span the kernel, and are kept as ``kernel_rows``: a wrong coefficient
    puts its relation outside the kernel, and this check catches it.  omega2
    is the first translate from _square_translates, which needs all six nonzero.
    """
    if p.a == 0 or p.b == p.c or p.b == -p.c:
        raise ParameterError("quotient construction needs a != 0 and b != +-c")
    images = quadratic_images()
    q = Quotient(build_s2(p))
    rows = [q.normal_row((images[i] * images[j]).row, 4)
            for i in range(4) for j in range(4)]
    kernel = span_rows(4, 2, linalg.column_kernel(rows))
    if kernel.dim != 7:
        raise VerificationError(f"degree-2 kernel has dimension {kernel.dim}, expected 7")
    v = NcPoly.gens(4)
    coeffs = []
    for s, t, u, w in S4_PAIRS:
        lhs = kernel.reduce_row(comm(v[s], v[t]).row)
        coeff = proportional(lhs, kernel.reduce_row(acomm(v[u], v[w]).row)) if lhs else ZERO
        if coeff is None:
            raise VerificationError(f"no relation [v{s}, v{t}] - c {{v{u}, v{w}}} in the kernel")
        coeffs.append(coeff)
    sextuple = SextupleParams.of(*coeffs)
    a, b, c = fe(p.a), fe(p.b), fe(p.c)
    squares = (a + c, c - a, a + b, b - a)
    extra = _squares(squares)
    kernel_rows = tuple(r.row for r in (*s4_relation_polys(sextuple), extra))
    if span_rows(4, 2, kernel_rows) != kernel:
        raise VerificationError("six relations plus the extra quadric do not span the kernel")
    t1, _ = _square_translates(sextuple)
    return VeroneseMap(params=p, images=tuple(images), sextuple=sextuple, extra=extra,
                       omega2=_squares(t1(squares)), kernel_rows=kernel_rows, algebra=q,
                       s4=Quotient(build_s4(sextuple)))


def closed_form_sextuple(p: AbcParams) -> SextupleParams:
    """The sextuple in terms of [a:b:c]:

    (b/a, c/a), ((b+c-2a)/(b-c), -(b+c+2a)/(b-c)), ((2a+b-c)/(b+c), -(2a-b+c)/(b+c)).
    """
    a, b, c = fe(p.a), fe(p.b), fe(p.c)
    if not a or b == c or b == -c:
        raise ParameterError("closed forms need a != 0 and b != +-c")
    return SextupleParams.of(
        b / a, c / a,
        (b + c - 2 * a) / (b - c), -(b + c + 2 * a) / (b - c),
        (2 * a + b - c) / (b + c), -(2 * a - b + c) / (b + c),
    )


def _signs(tp: TensorPowerRep, row: linalg.Row, power: int = 1):
    """The eigenvalues of e1^power and e2^power on ``row``; None unless it is
    an eigenvector of both."""
    signs = (tp.eigenvalue((power, 0, 0), row), tp.eigenvalue((0, power, 0), row))
    return None if None in signs else signs


def _invariant(quartic: NcPoly) -> bool:
    """Whether e1 and e2 of the order-8 group both fix ``quartic``."""
    return _signs(TensorPowerRep(h2_gen_rep(), 4), quartic.row) == (ONE, ONE)


def _closed_quartic(p: AbcParams) -> NcPoly:
    """The closed-form central quartic; raises where it vanishes."""
    c4 = s2_central_quartic(p)
    if not c4:
        raise ParameterError("closed-form quartic vanishes at these parameters")
    return c4


def verify_quotient_map(vm: VeroneseMap) -> dict:
    """Full certification chain for the quotient map at one parameter point."""
    p = vm.params
    # each image is an eigenvector of e1 and e2 of the order-8 group, and the
    # squares of the order-64 generators act on the matching sum/difference
    # column by the same two signs: the map intertwines the two actions
    h2 = TensorPowerRep(h2_gen_rep(), 2)
    image_signs = [_signs(h2, img.row) for img in vm.images]
    equiv_ok = all(image_signs)
    pm, h4 = h4_pm_basis(), TensorPowerRep(h4_gen_rep(), 1)
    diag_ok = span_rows(4, 1, pm).dim == 4 and all(
        signs is not None and _signs(h4, col, power=2) == signs
        for col, signs in zip(pm, image_signs))
    pushed = [vm.apply(NcPoly._of(4, 2, row)) for row in vm.kernel_rows]
    in_ideal = [not vm.algebra.normal_row(img.row, img.degree) for img in pushed]
    # (i, j) with e1 and e2 scaling the pushforward by (-1)^i and (-1)^j
    h2_quartic = TensorPowerRep(h2_gen_rep(), 4)
    characters = []
    for img in pushed:
        signs = _signs(h2_quartic, img.row)
        characters.append(None if signs is None else tuple(0 if x == ONE else 1 for x in signs))
    expected_chars = [(1, 0), (1, 0), (0, 1), (0, 1), (1, 1), (1, 1), (0, 0)]
    alpha = vm.sextuple.alpha()
    record = {
        "sextuple": vm.sextuple,
        "sextuple_matches_closed_form": vm.sextuple == closed_form_sextuple(p),
        "alpha": alpha,
        "alpha_matches_closed_form": alpha == alpha_from_abc(p),
        "relations_in_ideal": tuple(in_ideal),
        "element_characters": tuple(characters),
        "elements_are_eigenvectors": characters == expected_chars,
        "squared_action_diagonal": diag_ok,
        "image_equivariance": equiv_ok,
    }
    record["pass"] = all((record["sextuple_matches_closed_form"],
                          record["alpha_matches_closed_form"],
                          all(in_ideal),
                          record["elements_are_eigenvectors"],
                          record["squared_action_diagonal"],
                          record["image_equivariance"]))
    return record


def _square_coeffs(poly: NcPoly) -> list[FieldElem]:
    """Coefficients on v00^2, v10^2, v01^2, v11^2; anything else is an error."""
    out = [ZERO, ZERO, ZERO, ZERO]
    for i, coeff in poly.row.items():
        a, b = divmod(i, 4)
        if poly.degree != 2 or a != b:
            raise VerificationError("element is not supported on generator squares")
        out[a] = coeff
    return out


def _square_translates(s: SextupleParams):
    """Actions of the two order-4 symmetries on the span of generator squares.

    The symmetries themselves scale the generators by square roots of
    parameter ratios, so they live in a quadratic extension; their action on
    squares only involves the squared scalars and stays in the field.  Each
    matrix sends the coefficient vector of sum n_ij v_ij^2 to that of its
    translate; the first moves (i,j) to (i,j+1), the second to (i+1,j).
    """
    if not all(s):
        raise ParameterError("square translates need all six coefficients nonzero")
    r2 = -s.b10 / s.a10
    q2 = s.b11 / s.a11
    p2 = q2 * r2
    v2 = s.b01 / s.a01

    def t1(n):
        return [n[2] * p2, n[3] * r2, n[0], n[1] * q2]

    def t2(n):
        return [-n[1] * q2 * v2, n[0], n[3] * v2, -n[2] * q2]

    return t1, t2


def verify_central_pair(vm: VeroneseMap) -> dict:
    """Centrality and independence of the pair inside the derived algebra."""
    cs = vm.s4.centralizer_slice(2)
    _, t2 = _square_translates(vm.sextuple)
    alt = _squares(t2(_square_coeffs(vm.extra)))
    r1, r2, r3 = (vm.s4.normal_row(p.row, p.degree) for p in (vm.extra, vm.omega2, alt))
    central1, central2 = (bool(r) and cs.contains(r) for r in (r1, r2))
    pair_span = span_rows(4, 2, [r1, r2])
    independent = pair_span.dim == 2
    record = {
        "omega1_central": central1,
        "omega2_central": central2,
        "independent_mod_relations": independent,
        "centralizer_dim": cs.dim,
        "centralizer_is_pair_span": cs.rows == pair_span.rows,
    }
    record["second_translate_in_span"] = pair_span.contains(r3)
    record["pass"] = (central1 and central2 and independent
                      and record["centralizer_is_pair_span"]
                      and record["second_translate_in_span"])
    return record


def extract_c4(vm: VeroneseMap) -> dict:
    """Push the central pair through the map: omega1 dies, omega2 hits the quartic.

    The surviving image is compared to the closed-form quartic up to a scalar
    mu, which is reported, not pinned: its value depends on the chosen
    normalizations of both sides.
    """
    img1, img2 = (vm.algebra.normal_row(vm.apply(p).row, 4) for p in (vm.extra, vm.omega2))
    c4 = _closed_quartic(vm.params)
    mu = proportional(img2, vm.algebra.normal_row(c4.row, c4.degree)) if img2 else None
    invariant = _invariant(c4)
    return {
        "omega1_maps_to_zero": not img1,
        "mu": mu,
        "quartic_invariant": invariant,
        "pass": not img1 and mu is not None and invariant,
    }


def verify_c4_central(p: AbcParams, q: Quotient) -> dict:
    """Centrality and the degree-4 centralizer for the closed-form quartic.

    ``q`` is the 2-generator algebra at ``p``.
    """
    c4 = _closed_quartic(p)
    cs = q.centralizer_slice(4)
    resid = q.normal_row(c4.row, c4.degree)
    rec = {
        "centralizer_dim": cs.dim,
        "quartic_nonzero_mod_ideal": bool(resid),
        "central": bool(resid) and cs.contains(resid),
        "quartic_invariant": _invariant(c4),
    }
    rec["pass"] = rec["central"] and rec["quartic_invariant"]
    return rec
