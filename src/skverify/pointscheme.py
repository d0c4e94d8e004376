"""Point modules, point-scheme matrices, the cubic group law, membership checks.

The s3 walk is read from the right point module A/(L_p A) of a point p, L_p
the linear forms vanishing at p (Artin, Tate and Van den Bergh 1990): its
degree 2 names the next point, translation by tau = [a:b:c] under the
chord-tangent group law of the Hesse cubic with origin [1:-1:0].  The
multilinear matrices remain for s2 and s4: splitting each degree-k relation
word into its first k-1 letters and its last gives a matrix of (k-1)-linear
forms, one column per last letter, whose kernels walk the point scheme.

Every point is a primitive integer tuple (gcd 1, first nonzero entry
positive), so equal points have equal tuples: ``point`` makes one from
rational coordinates and ``point_text`` prints it as the report does, with
its first nonzero coordinate scaled to 1.  The group law is the closed
Hessian formula on integer triples.  ORIGIN = [1:-1:0] is the standard Hessian
neutral element and negation swaps X and Y.
The sum is the addition formula of Joye and Quisquater (CHES 2001),

    X3 = Y1^2 X2 Z2 - Y2^2 X1 Z1,  Y3 = X1^2 Y2 Z2 - X2^2 Y1 Z1,
    Z3 = Z1^2 X2 Y2 - Z2^2 X1 Y1,

and, where that vanishes, the rotated formula of Bernstein, Chuengsatiansup,
Kohel and Lange (LATINCRYPT 2015),

    X3 = X1 Y1 X2^2 - Y2 Z2 Z1^2,  Y3 = X1 Z1 Z2^2 - X2 Y2 Y1^2,
    Z3 = Y1 Z1 Y2^2 - X2 Z2 X1^2.

The first vanishes when P - Q is one of the three flexes on Z = 0: the
origin, [1:-w:0] or [1:-w^2:0] with w a primitive cube root of unity, so for
rational points only when P = Q.  On a smooth curve the two formulas never
vanish together.  Neither involves the curve parameters, so the curve is
only used to check the inputs.

Polarization gives the independent chord construction: restricted to the
line s*P + t*Q the cubic form f factors through the known roots at P and Q,

    f(sP + tQ) = s^2 t (grad f(P).Q) + s t^2 (grad f(Q).P),

so the third intersection needs no root finding and stays in the ground
field.  It supplies the tangent-third of the degree-3 centre certificate and
cross-checks the closed formula in the group-law record, on the same integer
triples: [1:-1:0] is an inflection of every smooth member of the pencil, so
third(third(P, Q), O) = P + Q.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd, lcm, prod

from .errors import OffCurveError, ParameterError, RankError, ShapeError, SingularCurveError
from . import linalg
from .families import (AbcParams, SextupleParams, build_s3, is_smooth_hesse,
                       s2_relation_polys, s4_relation_polys)
from .field import ONE, FieldElem, fe, root_of_unity
from .freealg import NcPoly, index_to_word, proportional, span, span_rows
from .graded import Quotient
from .heisenberg import TensorPowerRep, h3_gen_rep, invariant_subspace


# -- multilinear coefficient matrices --------------------------------------
# Every commutative polynomial here is a linalg.Row keyed by monomial: the
# matrix entries, the s2 determinant and reference curve, the s4 minors and
# the quadrics.  Variable x_a of tensor factor b is number b*n + a, and a
# monomial's key is sum e_v BASE^v, its exponents read as base-BASE digits.
# So the product of two monomials is the sum of their keys whenever every
# exponent stays <= 4: true of all built here, the 2x2 s2 determinant, the
# 4x4 s4 minors and the quartic multiples of the quadrics.
BASE = 5
X0, Y0, X1, Y1 = (BASE ** v for v in range(4))      # x, y of the two s2 factors
V00, V10, V01, V11 = (BASE ** v for v in range(4))  # the s4 coordinates


def coefficient_matrix(rels: list[NcPoly]) -> list[list[linalg.Row]]:
    """Rows: relations (all of one degree k) in their given order; columns:
    last letters.  The word w1..w(k-1) j of relation r, word index i, becomes
    the monomial x_{w1} ... x_{w(k-1)} of entry (r, j): j is i % n and the
    prefix w1..w(k-1) is index_to_word(i // n), with x_a of factor b
    variable b*n + a.
    """
    if not rels:
        raise ShapeError("no relations")
    n = rels[0].ngens
    degrees = {r.degree for r in rels}
    if len(degrees) != 1 or 0 in degrees:
        raise ShapeError("coefficient_matrix needs relations of one degree >= 1")
    (k,) = degrees
    out = []
    for r in rels:
        row = [{} for _ in range(n)]
        for i, c in r.row.items():
            prefix, last = divmod(i, n)
            word = index_to_word(prefix, n, k - 1)
            row[last][sum(BASE ** (b * n + a) for b, a in enumerate(word))] = c
        out.append(row)
    return out


def _nonzero(terms: dict) -> linalg.Row:
    """A closed-form row without its zero coefficients."""
    return {k: c for k, c in terms.items() if c}


def _integer_matrix(m: list[list[linalg.Row]],
                    ints: linalg.IntRows) -> tuple[list[list[dict]], list[int]]:
    """Each row of a matrix of polynomials times its scale, the least positive
    int that makes it integral, and the scales.  Scaling a row by a nonzero
    constant scales each maximal minor by it."""
    out, scales = [], []
    for row in m:
        flat, den = ints.lift({(j, k): c for j, e in enumerate(row) for k, c in e.items()})
        entries = [{} for _ in row]
        for (j, k), v in flat.items():
            entries[j][k] = v
        out.append(entries)
        scales.append(den)
    return out, scales


def _integer_minors(m: list[list[dict]], ints: linalg.IntRows) -> list[dict]:
    """The k x k minors of an r x k matrix of integer polynomials, one per row
    set in combinations order.  Laplace expansion along the first row, with
    one memo over (rows, cols), so the minors share their smaller sub-minors."""

    @cache
    def det(rows: tuple[int, ...], cols: tuple[int, ...]) -> dict:
        if len(rows) == 1:
            return m[rows[0]][cols[0]]
        total: dict = {}
        for j, c in enumerate(cols):
            sub = det(rows[1:], cols[:j] + cols[j + 1:])
            for k, e in m[rows[0]][c].items():
                ints.axpy(total, e, -1 if j % 2 else 1, {k + w: v for w, v in sub.items()})
        return total

    cols = tuple(range(len(m[0])))
    return [det(rows, cols) for rows in combinations(range(len(m)), len(cols))]


def point_module_step(q: Quotient, pt: tuple) -> tuple[int, ...]:
    """The next point of the right point module A/(L_pt A) of the engine ``q``:
    x_a = pt[a] m_1, degree 2 is A_2 modulo span{NF_2(l x_b) : l(pt) = 0}, one
    standard word when ``pt`` is on the point scheme, and the residues of x_c x_b
    for a c with pt[c] != 0 are the next point.  Degree 2 is read whatever the
    run's degree cutoff; no standard word left or several raises RankError."""
    n = q.p.ngens
    forms = linalg.nullspace([{a: fe(x) for a, x in enumerate(pt) if x}], n)
    pivots, rows = linalg.rref(q.normal_row({a * n + b: v for a, v in form.items()}, 2)
                               for form in forms for b in range(n))
    free = [w for w in q.standard(2) if w not in pivots]
    if not free:
        raise RankError("degree 2 of the module is zero: no successor point")
    if len(free) > 1:
        raise RankError("degree 2 of the module has dimension > 1: successor not unique")
    c = next(a for a, x in enumerate(pt) if x)
    return point(*(linalg.reduce_mod(q.normal_row({c * n + b: ONE}, 2), pivots, rows)
                   .get(free[0], 0) for b in range(n)))


def s2_reference_matrix(p: AbcParams) -> list[list[linalg.Row]]:
    """Closed-form comparison target for the 2x2 matrix."""
    a, b, c = fe(p.a), fe(p.b), fe(p.c)
    return [[_nonzero({Y0 + Y1: a, X0 + X1: c}), _nonzero({X0 + Y1: a, Y0 + X1: b})],
            [_nonzero({Y0 + X1: a, X0 + Y1: b}), _nonzero({X0 + X1: a, Y0 + Y1: c})]]


def s2_reference_curve(p: AbcParams) -> linalg.Row:
    """The (2,2)-form the determinant is checked against:

    (b^2-c^2) x0 y0 x1 y1 - ac (x0^2 x1^2 + y0^2 y1^2) + ab (x0^2 y1^2 + y0^2 x1^2).
    """
    a, b, c = fe(p.a), fe(p.b), fe(p.c)
    return _nonzero({X0 + Y0 + X1 + Y1: b * b - c * c,
                     2 * (X0 + X1): -a * c, 2 * (Y0 + Y1): -a * c,
                     2 * (X0 + Y1): a * b, 2 * (Y0 + X1): a * b})


def s2_point_determinant(p: AbcParams) -> dict:
    """Determinant of the 2x2 matrix, compared to the reference (2,2)-form.

    The determinant is the integer minor of the row-scaled matrix, divided by
    the product of the row scales.  The reference matrix expands to

        (a y0 y1 + c x0 x1)(a x0 x1 + c y0 y1) - (a x0 y1 + b y0 x1)(a y0 x1 + b x0 y1)
          = (c^2-b^2) x0 y0 x1 y1 + ac (x0^2 x1^2 + y0^2 y1^2) - ab (x0^2 y1^2 + y0^2 x1^2),

    minus the reference curve at every [a:b:c], so the check asserts ratio -1.
    At a = 0 it is a multiple of x0 y0 x1 y1, a product of coordinate lines.
    """
    m = coefficient_matrix(s2_relation_polys(p))  # the 2x2 matrix of bilinear forms
    ints = linalg.int_rows([e for row in m for e in row])
    rows, scales = _integer_matrix(m, ints)
    (det,) = _integer_minors(rows, ints)
    if not det:
        raise ParameterError("identically zero determinant")
    det = ints.lower(det, prod(scales))
    ratio = proportional(det, s2_reference_curve(p))
    matches = m == s2_reference_matrix(p)
    return {
        "matrix_matches_reference": matches,
        "determinant": det,
        "ratio_to_reference": ratio,
        "pass": matches and ratio == -1,
    }


# -- the Hesse cubic and its group law -------------------------------------

ORIGIN = (1, -1, 0)


def point(*coords) -> tuple[int, ...]:
    """The primitive integer tuple of the rational point [x:y:...]: gcd 1,
    first nonzero entry positive.  Coordinates may be ints, Fractions or
    rational FieldElems."""
    fr = [_rational(c) for c in coords]
    if not any(fr):
        raise ParameterError("all projective coordinates are zero")
    den = lcm(*(f.denominator for f in fr))
    return _primitive(tuple(f.numerator * (den // f.denominator) for f in fr))


def _rational(c) -> Fraction:
    if isinstance(c, FieldElem):
        if not c.is_rational():
            raise ParameterError(f"coordinate {c} is not rational")
        return c.rational()
    return Fraction(c)


def point_text(v) -> str:
    """``[1:-1/3:-2]``: the point with its first nonzero coordinate scaled to 1."""
    return "[" + ":".join(str(c) for c in _lead_one(v)) + "]"


def _lead_one(v) -> tuple[Fraction, ...]:
    lead = next(c for c in v if c)
    return tuple(Fraction(c, lead) for c in v)


def on_hesse(p: AbcParams, pt: tuple) -> bool:
    """Whether ``pt`` lies on the member of the pencil at ``p``, smooth or not."""
    return _on_cubic(_cubic(p), pt)


def _primitive(v: tuple) -> tuple[int, ...]:
    """The integer tuple scaled to gcd 1 with its first nonzero entry positive."""
    g = gcd(*v)
    if next(x for x in v if x) < 0:
        g = -g
    return tuple([x // g for x in v])


def _cubic(p: AbcParams) -> tuple[int, int]:
    """(ABC, A^3 + B^3 + C^3) for the primitive integer form (A, B, C) of [a:b:c]."""
    a, b, c = point(*p)
    return a * b * c, a ** 3 + b ** 3 + c ** 3


def _smooth_cubic(p: AbcParams) -> tuple[int, int]:
    if not is_smooth_hesse(p):
        raise SingularCurveError(f"{p} fails the smoothness criterion")
    return _cubic(p)


def _on_cubic(cubic: tuple[int, int], v) -> bool:
    """ABC(X^3 + Y^3 + Z^3) = (A^3 + B^3 + C^3) XYZ."""
    k, s = cubic
    x, y, z = v
    return k * (x ** 3 + y ** 3 + z ** 3) == s * x * y * z


def _require_on(cubic: tuple[int, int], v, p: AbcParams):
    if not _on_cubic(cubic, v):
        raise OffCurveError(f"{point_text(v)} is not on the curve at {p}")
    return v


def _sum(u, v) -> tuple:
    """u + v by the closed formulas (module docstring), not normalized.

    The coordinates may be integers or field elements alike.
    """
    x1, y1, z1 = u
    x2, y2, z2 = v
    w = (y1 * y1 * x2 * z2 - y2 * y2 * x1 * z1,
         x1 * x1 * y2 * z2 - x2 * x2 * y1 * z1,
         z1 * z1 * x2 * y2 - z2 * z2 * x1 * y1)
    if any(w):
        return w
    w = (x1 * y1 * x2 * x2 - y2 * z2 * z1 * z1,
         x1 * z1 * z2 * z2 - x2 * y2 * y1 * y1,
         y1 * z1 * y2 * y2 - x2 * z2 * x1 * x1)
    if any(w):
        return w
    raise SingularCurveError("both addition formulas vanish")


def _add(u: tuple, v: tuple) -> tuple[int, int, int]:
    return _primitive(_sum(u, v))


def _neg(u: tuple) -> tuple[int, int, int]:
    return _primitive((u[1], u[0], u[2]))


def _grad(cubic: tuple[int, int], v) -> tuple:
    """Gradient (3kX^2 - sYZ, 3kY^2 - sXZ, 3kZ^2 - sXY) of the cubic form at v."""
    k, s = cubic
    x, y, z = v
    return (3 * k * x * x - s * y * z, 3 * k * y * y - s * x * z, 3 * k * z * z - s * x * y)


def _dot(u, v):
    return u[0] * v[0] + u[1] * v[1] + u[2] * v[2]


def _third(cubic: tuple[int, int], u, v) -> tuple:
    """Third intersection of the curve with the line (or tangent) through u and v.

    Like _sum it takes integer or field-element triples and does not normalize
    the result.  u and v are canonical (primitive or normalized), so equal
    points come as equal triples.
    """
    if u == v:
        n0, n1, n2 = _grad(cubic, u)
        # directions orthogonal to the gradient; the point itself is one (Euler),
        # pick a second, independent one
        d = None
        for cand in ((0, n2, -n1), (-n2, 0, n0), (n1, -n0, 0)):
            if not any(cand):
                continue
            minors = (u[0] * cand[1] - u[1] * cand[0], u[0] * cand[2] - u[2] * cand[0],
                      u[1] * cand[2] - u[2] * cand[1])
            if any(minors):
                d = cand
                break
        if d is None:
            raise SingularCurveError("gradient vanishes: singular point")
        # on the tangent s*u + t*d the cubic is t^2 (s grad(d).u + t f(d)), and
        # grad(d).d = 3 f(d) by Euler
        g = _grad(cubic, d)
        big_a, big_b3 = 3 * _dot(g, u), _dot(g, d)
        if not big_a and not big_b3:
            raise SingularCurveError("tangent line lies on the curve")
        return tuple(big_b3 * a - big_a * b for a, b in zip(u, d))
    g1 = _dot(_grad(cubic, u), v)
    g2 = _dot(_grad(cubic, v), u)
    if not g1 and not g2:
        raise SingularCurveError("chord lies on the curve")
    return tuple(g2 * a - g1 * b for a, b in zip(u, v))


def hesse_third(p: AbcParams, pt1: tuple, pt2: tuple) -> tuple[int, int, int]:
    """Third intersection of the curve with the line (or tangent) through the points."""
    cubic = _smooth_cubic(p)
    u, v = (_require_on(cubic, point(*q), p) for q in (pt1, pt2))
    return _primitive(_third(cubic, u, v))


def hesse_add(p: AbcParams, pt1: tuple, pt2: tuple) -> tuple[int, int, int]:
    """pt1 + pt2 in the group law with origin ORIGIN."""
    cubic = _smooth_cubic(p)
    u, v = (_require_on(cubic, point(*q), p) for q in (pt1, pt2))
    return _add(u, v)


def order_of(tau: tuple) -> int | None:
    """Order of the point tau of a smooth curve; None for infinite order.

    The curve, its origin and tau are defined over Q, so by Mazur's theorem a
    torsion tau has order at most 12: no n <= 12 with n*tau = O means none.
    The caller checks smoothness first: on a singular member the answer means
    nothing, and order_of(point(0, 1, 1)) reads 6.
    """
    q = tau
    for n in range(1, 13):
        if q == ORIGIN:
            return n
        q = _add(q, tau)
    return None


MULTIPLES = 10  # multiples of [a:b:c] that the group-law record walks


def group_law_record(p: AbcParams) -> dict:
    """Group axioms of the closed formula on the first MULTIPLES multiples of [a:b:c].

    pts[k] is the (k+1)-fold multiple, so besides identity, inverses,
    commutativity and associativity the walk itself is cross-checked:
    pts[i] + pts[j] must land on pts[i+j+1].  The chord construction
    recomputes the walk steps pts[k] + tau and the pair sums independently
    (chord_agrees).  tau_order, the exact order of tau or "infinite", is read
    off the walk and the pair sums 11*tau, 12*tau: all Mazur allows (order_of).
    Everything runs on primitive integer triples, and each triple an
    operation takes is checked to lie on the curve once: tau or a multiple
    off the curve raises OffCurveError rather than reaching the record.
    """
    cubic = _smooth_cubic(p)
    count = MULTIPLES
    on_curve = set()

    def on(v):
        if v not in on_curve:
            on_curve.add(_require_on(cubic, v, p))
        return v

    @cache
    def add(u, v):
        return _add(on(u), on(v))

    def third(u, v):
        return _primitive(_third(cubic, on(u), on(v)))

    def chord(i, j):
        return third(third(pts[i], pts[j]), ORIGIN)

    tau = point(*p)
    pts = [tau]
    while len(pts) < count:
        pts.append(add(pts[-1], tau))
    pairs = [(i, j) for i in range(count) for j in range(i, count)]
    multiples = pts + [add(pts[0], pts[-1]), add(pts[1], pts[-1])]
    order = next((n for n, q in enumerate(multiples, 1) if q == ORIGIN), "infinite")
    record = {
        "count": count,
        "tau_order": order,
        "identity": all(add(q, ORIGIN) == q for q in pts),
        "inverses": all(add(q, _neg(q)) == ORIGIN for q in pts),
        "commutative": all(add(pts[i], pts[j]) == add(pts[j], pts[i])
                           for i, j in pairs if i < j),
        "multiple_consistency": all(add(pts[i], pts[j]) == pts[i + j + 1]
                                    for i, j in pairs if i + j + 1 < count),
        "associative": all(add(add(pts[i], pts[j]), pts[k]) == add(pts[i], add(pts[j], pts[k]))
                           for i, j in pairs for k in range(j, count)),
        "chord_agrees": (all(chord(k, 0) == pts[k + 1] for k in range(count - 1))
                         and all(chord(i, j) == add(pts[i], pts[j]) for i, j in pairs)),
    }
    record["pass"] = all(v for k, v in record.items() if k not in ("count", "tau_order"))
    return record


# -- degree-3 structure of the 3-generator family --------------------------

def invariant_cubic_basis() -> list[NcPoly]:
    """The three degree-3 invariants of the order-27 group action:

    f1 = zxy + xyz + yzx,  f2 = yxz + zyx + xzy,  f3 = x^3 + y^3 + z^3.
    """
    x, y, z = NcPoly.gens(3)
    f1 = z * x * y + x * y * z + y * z * x
    f2 = y * x * z + z * y * x + x * z * y
    f3 = x ** 3 + y ** 3 + z ** 3
    return [f1, f2, f3]


def invariant_cubics() -> tuple[int, bool]:
    """Dimension of the invariants of the order-27 group action on cubics, and
    whether invariant_cubic_basis spans them."""
    inv = invariant_subspace(TensorPowerRep(h3_gen_rep(), 3))
    return inv.dim, span(invariant_cubic_basis()) == inv


def s3_degree3_overlap(p: AbcParams) -> dict:
    """Dimensions of R*V + V*R in degree 3 and the line they intersect in."""
    pres = build_s3(p)
    rel = pres.relations[0][1]
    gens = NcPoly.gens(3)
    rv = span([r * g for r in rel.basis() for g in gens])
    vr = span([g * r for r in rel.basis() for g in gens])
    total = span_rows(3, 3, rv.rows + vr.rows)
    meet = rv.meet(vr)
    f1, f2, f3 = invariant_cubic_basis()
    combo = fe(p.a) * f1 + fe(p.b) * f2 + fe(p.c) * f3
    combo_in_meet = meet.dim == 1 and meet.contains(combo.row)
    inv = invariant_subspace(TensorPowerRep(h3_gen_rep(), 3), total)
    invariant_is_meet = inv.rows == meet.rows
    return {
        "rv_dim": rv.dim,
        "vr_dim": vr.dim,
        "sum_dim": total.dim,
        "meet_dim": meet.dim,
        "meet_is_relation_combo": combo_in_meet,
        "invariant_dim": inv.dim,
        "invariant_is_meet": invariant_is_meet,
        "pass": (total.dim == 17 and meet.dim == 1 and combo_in_meet
                 and inv.dim == 1 and invariant_is_meet),
    }


def verify_c3_description(p: AbcParams, q: Quotient) -> dict:
    """Certify the degree-3 central element of ``q``, the 3-generator algebra
    at ``p``, against the invariant cubics.

    ``p`` must be a point the s3 predicate (``sampling.s3_reject_reason``)
    accepts: a smooth member whose tau has order neither 1 nor 3.  The order
    is not checked again here; ``s3-group-law`` records it.

    The central element is only defined modulo the ideal, and the span of the
    invariant cubics meets the degree-3 ideal slice in the line through
    a*f1 + b*f2 + c*f3, so the coefficient triple is a point of P^2 modulo
    that line.  The check is therefore proportionality of canonical residues:
    the combination with coefficients -2*tau (the tangent-third of [a:b:c],
    scaled to a first nonzero coordinate 1, which fixes ``ratio``) must
    reduce to a nonzero multiple of the central element's residue.  The
    centralizer slice is one-dimensional here and spanned by that residue,
    so a nonzero ratio is what makes the combination central.
    """
    tau = point(*p)
    # the one smoothness check: hesse_third raises SingularCurveError
    tangent = _lead_one(hesse_third(p, tau, tau))
    cents = q.centralizer_slice(3)
    record: dict = {"centralizer_dim": cents.dim}
    if cents.dim != 1:
        record["pass"] = False
        record["reason"] = "centralizer dimension is not 1"
        return record
    record["coefficient_triple"] = tangent
    combo = sum((t * f for t, f in zip(tangent, invariant_cubic_basis())), NcPoly.zero(3, 3))
    ratio = proportional(q.normal_row(combo.row, 3), q.normal_row(cents.rows[0], 3))
    record["ratio"] = ratio
    record["pass"] = ratio is not None
    return record


# -- minors of the 6x4 matrix of the 4-generator family --------------------

def s4_reference_matrix(l10, l01, l11) -> list[list[linalg.Row]]:
    """Closed-form 6x4 matrix for the square-root parameter slice."""
    l10, l01, l11 = fe(l10), fe(l01), fe(l11)
    one = fe(1)
    terms = [
        [(V10, -one), (V00, one), (V11, -l10), (V01, -l10)],
        [(V10, l10), (V00, l10), (V11, -one), (V01, one)],
        [(V01, -one), (V11, -l01), (V00, one), (V10, -l01)],
        [(V01, l01), (V11, one), (V00, l01), (V10, -one)],
        [(V11, -one), (V01, -l11), (V10, -l11), (V00, one)],
        [(V11, -l11), (V01, -one), (V10, one), (V00, -l11)],
    ]
    return [[_nonzero({k: c}) for k, c in row] for row in terms]


def quadric_pair(l10, l01, l11) -> tuple[linalg.Row, linalg.Row, FieldElem]:
    """The two quadrics cutting the point scheme, and their modulus lambda.

    lambda = l10 (l01 l11 + 1) / (l01 - l11); values in {0, +-1, +-i} make the
    pencil degenerate and raise.
    """
    l10, l01, l11 = fe(l10), fe(l01), fe(l11)
    den = l01 - l11
    if not den:
        raise ParameterError("modulus undefined on this chart (l01 = l11)")
    lam = l10 * (l01 * l11 + fe(1)) / den
    ii = root_of_unity(4)
    if any(lam == v for v in (fe(0), fe(1), fe(-1), ii, -ii)):
        raise ParameterError(f"degenerate modulus {lam}")
    return (*_quadrics(lam), lam)


def _quadrics(lam) -> tuple[linalg.Row, linalg.Row]:
    """v00^2 + v10^2 - lam (v01^2 - v11^2) and v01^2 + v11^2 - lam (v00^2 - v10^2)."""
    one = fe(1)
    return (_nonzero({2 * V00: one, 2 * V10: one, 2 * V01: -lam, 2 * V11: lam}),
            _nonzero({2 * V01: one, 2 * V11: one, 2 * V00: -lam, 2 * V10: lam}))


def _membership(minors, quadrics, ints: linalg.IntRows) -> list[bool]:
    """Whether each integer minor lies in the span of the quartic multiples
    of the quadrics."""
    shifts = [BASE ** i + BASE ** j for i in range(4) for j in range(i, 4)]
    products = []
    for q in quadrics:
        row, _ = ints.lift(q)
        products.extend({k + s: v for k, v in row.items()} for s in shifts)
    basis = ints.echelon(products)
    return [not ints.reduce(minor, 1, basis)[0] for minor in minors]


def s4_minor_membership(l10, l01, l11) -> dict:
    """All fifteen 4x4 minors against the span of quartic multiples of the quadrics.

    Also re-runs the membership with the modulus shifted by 1, where at least
    one minor must escape the span.
    """
    sx = SextupleParams.from_sqrt(l10, l01, l11)
    assembled = coefficient_matrix(s4_relation_polys(sx))
    reference = s4_reference_matrix(l10, l01, l11)
    q1, q2, lam = quadric_pair(l10, l01, l11)
    perturbed = _quadrics(lam + fe(1))
    ints = linalg.int_rows([e for row in assembled for e in row] + [q1, q2, *perturbed])
    minors = _integer_minors(_integer_matrix(assembled, ints)[0], ints)
    members = _membership(minors, (q1, q2), ints)
    escaped = _membership(minors, perturbed, ints).count(False)
    return {
        "sextuple": sx,
        "alpha": sx.alpha(),
        "lambda": lam,
        "matrix_matches_reference": assembled == reference,
        "memberships": members,
        "all_members": all(members),
        "perturbed_failures": escaped,
        "pass": all(members) and assembled == reference and escaped >= 1,
    }
