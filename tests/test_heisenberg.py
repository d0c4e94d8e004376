"""Finite Heisenberg groups and their exact representation theory.

The package stores representations as monomial matrices; the dense matrix
algebra below is the independent oracle they are checked against, and the
exact averaging projector over every group element is the oracle for the
invariant subspaces.
"""

from fractions import Fraction

import pytest

from skverify import linalg
from skverify.errors import NotASubrepError, RepresentationInvalidError
from skverify.families import AbcParams, build_s3
from skverify.field import ONE, ZERO, fe, root_of_unity
from skverify.freealg import NcPoly, Subspace, index_to_word, span, span_rows
from skverify.heisenberg import (Character, GroupRep, TensorPowerRep,
                                 antisymmetric_character, class_of, classes, decompose,
                                 elements, h2_gen_rep, h3_gen_rep,
                                 h4_gen_rep, h4_pm_basis, inv,
                                 invariant_subspace, irrep_table, is_subrep, mul,
                                 twist_equivalence_table)
from skverify.veronese import quadratic_images


def mat_id(n):
    return tuple(tuple(ONE if i == j else ZERO for j in range(n)) for i in range(n))


def mat_mul(a, b):
    n = len(a)
    return tuple(tuple(sum((a[i][k] * b[k][j] for k in range(n)), ZERO)
                       for j in range(n)) for i in range(n))


def mat_inv(a):
    """Inverse via row reduction of [a | id]."""
    n = len(a)
    rows = [{**{j: a[i][j] for j in range(n) if a[i][j]}, n + i: ONE} for i in range(n)]
    pivots, prows = linalg.rref(rows)
    assert pivots == tuple(range(n))
    return tuple(tuple(prows[i].get(n + j, ZERO) for j in range(n)) for i in range(n))


def dense(m):
    """The dense matrix of a monomial form: column j is scalar * e_row."""
    return tuple(tuple(s if r == i else ZERO for r, s in m) for i in range(len(m)))


def dense_cols(cols):
    """The dense matrix whose k-th column is the sparse column cols[k]."""
    return tuple(tuple(col.get(i, ZERO) for col in cols) for i in range(len(cols)))


def monomial(m):
    """The monomial form of a dense matrix with one nonzero entry per column."""
    cols = [[(i, m[i][j]) for i in range(len(m)) if m[i][j]] for j in range(len(m))]
    assert all(len(col) == 1 for col in cols)
    return tuple(col[0] for col in cols)


def pm_rep():
    """The coordinate 4-dim rep in the sum/difference basis B: e -> B^-1 e B."""
    rep = h4_gen_rep()
    basis = dense_cols(h4_pm_basis())
    binv = mat_inv(basis)
    e1, e2 = (monomial(mat_mul(binv, mat_mul(dense(e), basis))) for e in (rep.e1, rep.e2))
    return GroupRep(rep.n, e1, e2, "H4:V1(pm)")


def averaged(tp, rows):
    """Span of the exact averaging projector |G|^-1 sum_g g applied to each row."""
    scale = fe(1) / tp.base.n ** 3
    out = []
    for row in rows:
        acc = {}
        for g in elements(tp.base.n):
            for c, v in tp.act_row(g, row).items():
                acc[c] = acc.get(c, ZERO) + v
        out.append({c: v * scale for c, v in acc.items() if v})
    return span_rows(tp.base.dim, tp.degree, out)


def test_group_orders_and_inverses():
    for n in (2, 3, 4):
        elems = elements(n)
        assert len(elems) == n ** 3
        for g in elems[:10]:
            assert mul(n, g, inv(n, g)) == (0, 0, 0)


def test_generator_reps_satisfy_weyl_commutation():
    # e1 e2 = (primitive n-th root) e2 e1, and both generators have order n
    for n, rep in ((2, h2_gen_rep()), (3, h3_gen_rep()), (4, h4_gen_rep())):
        z = root_of_unity(n)
        e1, e2 = dense(rep.e1), dense(rep.e2)
        lhs = mat_mul(e1, e2)
        rhs = tuple(tuple(z * v for v in row) for row in mat_mul(e2, e1))
        assert lhs == rhs
        for gen in (e1, e2):
            power = gen
            for _ in range(n - 1):
                power = mat_mul(power, gen)
            assert power == mat_id(n)


def test_irrep_tables_complete():
    for n, count, sumsq in ((2, 5, 8), (3, 11, 27), (4, 22, 64)):
        table = irrep_table(n)
        assert len(table) == count
        assert sum(r.dim ** 2 for r in table) == sumsq
        # characters orthonormal under the group inner product
        chars = [r.character() for r in table]
        for i, ci in enumerate(chars):
            for j, cj in enumerate(chars):
                want = ONE if i == j else ZERO
                assert ci.inner(cj) == want


@pytest.mark.parametrize("n", [2, 3, 4])
def test_classes_match_brute_force_conjugation(n):
    elems = elements(n)
    brute = {frozenset(mul(n, mul(n, h, g), inv(n, h)) for h in elems) for g in elems}
    reps = classes(n)
    got = {frozenset(g for g in elems if class_of(n, g) == c) for c, _ in reps}
    assert got == brute
    for c, size in reps:
        assert class_of(n, c) == c
        assert size == len({mul(n, mul(n, h, c), inv(n, h)) for h in elems})
    assert sum(size for _, size in reps) == n ** 3
    assert len(reps) == len(irrep_table(n))


@pytest.mark.parametrize("n", [2, 3, 4])
def test_characters_are_traces_on_every_element(n):
    # oracle: the trace of the dense matrix of each group element
    for rep in irrep_table(n):
        chi = rep.character()
        for g in elements(n):
            m = dense(rep.matrix(g))
            assert chi(g) == sum((m[i][i] for i in range(rep.dim)), ZERO), (rep.label, g)


def test_character_rejects_two_values_on_one_class():
    g = (1, 2, 0)
    h = mul(4, mul(4, (0, 1, 0), g), inv(4, (0, 1, 0)))
    assert h != g and class_of(4, h) == class_of(4, g)
    with pytest.raises(RepresentationInvalidError):
        Character(4, {g: 1, h: 2})
    with pytest.raises(RepresentationInvalidError):
        Character(4, {g: 1, h: 0})
    chi = Character(4, {g: 3, h: 3})
    assert chi(g) == chi(h) == fe(3) and chi.values == {class_of(4, g): fe(3)}


def test_character_is_computed_once_per_rep():
    for r in irrep_table(4):
        assert r.character() is r.character()


def test_rep_matrices_respect_group_law():
    rep = h3_gen_rep()
    elems = elements(3)
    for g in elems[:6]:
        for h in elems[:6]:
            assert (mat_mul(dense(rep.matrix(g)), dense(rep.matrix(h)))
                    == dense(rep.matrix(mul(3, g, h))))
        assert mat_inv(dense(rep.matrix(g))) == dense(rep.matrix(inv(3, g)))


def test_monomial_matrices_match_dense_products():
    reps = irrep_table(2) + irrep_table(3) + irrep_table(4) + (pm_rep(),)
    for rep in reps:
        n = rep.n
        e1, e2 = dense(rep.e1), dense(rep.e2)

        def powers(m):
            out = [mat_id(rep.dim)]
            for _ in range(n - 1):
                out.append(mat_mul(out[-1], m))
            return out

        p1, p2 = powers(e1), powers(e2)
        z = mat_mul(mat_mul(e1, e2), mat_mul(p1[n - 1], p2[n - 1]))
        pz = powers(z)
        for i, j, k in elements(n):
            want = mat_mul(p1[i], mat_mul(p2[j], pz[k]))
            assert dense(rep.matrix((i, j, k))) == want, (rep.label, (i, j, k))


def test_tensor_action_matches_dense_kronecker_product():
    # word a_1..a_d goes to sum over words r_1..r_d of prod m[r_k][a_k]
    for rep, d in ((h3_gen_rep(), 3), (pm_rep(), 2)):
        tp = TensorPowerRep(rep, d)
        words = [index_to_word(c, rep.dim, d) for c in range(tp.dim)]
        for g in elements(rep.n):
            m = dense(rep.matrix(g))
            for col, word in enumerate(words):
                want = {}
                for out, image in enumerate(words):
                    v = ONE
                    for r, a in zip(image, word):
                        v = v * m[r][a]
                    if v:
                        want[out] = v
                assert tp.act_row(g, {col: ONE}) == want


def dense_power(m, d):
    """The dense matrix of the d-th tensor power of the monomial form m, on words
    in index order: entry (image, word) is prod m[r][a] over matching letters."""
    n = len(m)
    dm = dense(m)
    words = [index_to_word(c, n, d) for c in range(n ** d)]
    out = []
    for image in words:
        line = []
        for word in words:
            v = ONE
            for r, a in zip(image, word):
                v = v * dm[r][a]
            line.append(v)
        out.append(tuple(line))
    return tuple(out)


@pytest.mark.parametrize("rep", [*(r for n in (2, 3, 4) for r in irrep_table(n)), pm_rep()],
                         ids=lambda r: r.label)
def test_eigenvalue_matches_dense_oracle(rep):
    # oracle: g . v = s v solved for s by linalg.solve_columns, with g . v
    # from the dense tensor-power matrix
    n = rep.n
    some = {(i % n, j % n, k % n) for i, j, k in
            ((1, 0, 0), (0, 1, 0), (1, 1, 1), (2, 0, 0), (0, 2, 0))}
    found = set()
    for d in (1, 2):
        tp = TensorPowerRep(rep, d)
        units = [{c: ONE} for c in range(tp.dim)]
        rows = units + [{a: ONE, b: ONE} for a in range(tp.dim) for b in range(a + 1, tp.dim)]
        for g in sorted(some):
            m = dense_power(rep.matrix(g), d)
            for row in rows:
                image = {i: x for i in range(tp.dim)
                         if (x := sum((m[i][c] * v for c, v in row.items()), ZERO))}
                sol = linalg.solve_columns([row], image)
                want = None if sol is None else sol[0]
                assert tp.eigenvalue(g, row) == want, (d, g, row)
                found.add(want is None)
        assert tp.eigenvalue(g, {}) is None
    # every representation of dimension > 1 has vectors of both kinds
    assert found == ({False} if rep.dim == 1 else {False, True})


@pytest.mark.parametrize("n, gen_rep", [(2, h2_gen_rep), (3, h3_gen_rep), (4, h4_gen_rep)])
def test_inner_matches_sum_over_every_element(n, gen_rep):
    # oracle: the sum over all n^3 group elements
    def full(a, b):
        return sum((a(g) * b(g).conj() for g in elements(n)), ZERO) / n ** 3

    chars = [r.character() for r in irrep_table(n)]
    chars.append(TensorPowerRep(gen_rep(), 2).character())
    for a in chars:
        for b in chars:
            assert a.inner(b) == full(a, b)
    dense = Character(n, {g: chars[-1](g) for g in elements(n)})
    assert dense == chars[-1] and all(dense.values.values())


def test_tensor_square_decompositions():
    assert decompose(TensorPowerRep(h3_gen_rep(), 2).character()) == {"H3:V2": 3}
    assert decompose(TensorPowerRep(h4_gen_rep(), 2).character()) == {
        "H4:V_{0,0}": 2, "H4:V_{0,1}": 2, "H4:V_{1,0}": 2, "H4:V_{1,1}": 2}


def test_antisymmetric_square_of_four_dim_rep():
    got = decompose(antisymmetric_character(h4_gen_rep()))
    assert got == {"H4:V_{0,1}": 1, "H4:V_{1,0}": 1, "H4:V_{1,1}": 1}


def test_decompose_character_rejects_non_characters():
    rep = h2_gen_rep()
    chi = rep.character()
    broken = Character(2, {g: v + fe(1) if g == (0, 0, 0) else v
                           for g, v in chi.values.items()})
    with pytest.raises(RepresentationInvalidError):
        decompose(broken)


def test_bad_generator_matrices_rejected():
    # order-4 matrices cannot represent the order-2 group
    bad = h4_gen_rep()
    with pytest.raises(RepresentationInvalidError):
        GroupRep(2, bad.e1, bad.e2, "broken")


@pytest.mark.parametrize("e1, e2", [
    (((1, ONE),), ((0, ONE),)),                      # row 1 outside a 1-dim space
    (((0, ZERO),), ((0, ONE),)),                     # zero scalar
    (((0, ONE), (1, ONE)), ((0, ONE), (1, ZERO))),   # zero scalar in e2
    (((1, ONE), (0, ONE)), ((0, ONE),)),             # e1 and e2 of different sizes
], ids=("row-out-of-range", "zero-scalar-e1", "zero-scalar-e2", "unequal-sizes"))
def test_bad_monomial_input_rejected(e1, e2):
    with pytest.raises(RepresentationInvalidError):
        GroupRep(2, e1, e2, "broken")


@pytest.mark.parametrize("rep, d", [
    (h2_gen_rep(), 2), (h2_gen_rep(), 3), (h2_gen_rep(), 4),
    (h3_gen_rep(), 2), (h3_gen_rep(), 3),
    (h4_gen_rep(), 2), (pm_rep(), 2),
], ids=lambda x: getattr(x, "label", x))
def test_invariant_subspace_matches_averaging_projector(rep, d):
    tp = TensorPowerRep(rep, d)
    assert invariant_subspace(tp) == averaged(tp, [{c: ONE} for c in range(tp.dim)])


def cyclic_span(tp):
    """A stable subspace: the span of the images of e_0 + 2 e_last (of e_0 in dimension 1)."""
    row = {0: ONE, tp.dim - 1: fe(2)} if tp.dim > 1 else {0: ONE}
    return span_rows(tp.base.dim, tp.degree, [tp.act_row(g, row) for g in elements(tp.base.n)])


# every irreducible at degrees 1-4 (H4 at 1-3), and the coordinate H4 rep in
# the sum/difference basis
ORBIT_CASES = ([(rep, d) for n in (2, 3, 4) for rep in irrep_table(n)
                for d in range(1, 4 if n == 4 else 5)]
               + [(pm_rep(), d) for d in (1, 2, 3)])


@pytest.mark.parametrize("rep, d", ORBIT_CASES,
                         ids=[f"{rep.label}-deg{d}" for rep, d in ORBIT_CASES])
def test_orbit_walk_matches_joint_kernel(rep, d):
    # the averaging projector is the oracle, on the whole component and on a
    # proper stable subspace
    tp = TensorPowerRep(rep, d)
    assert invariant_subspace(tp) == averaged(tp, [{c: ONE} for c in range(tp.dim)])
    stable = cyclic_span(tp)
    assert is_subrep(stable, tp)
    assert invariant_subspace(tp, stable) == averaged(tp, stable.rows)


def test_invariant_cases_are_not_vacuous():
    # some fixed spaces are empty, some are not, and some stable subspaces
    # are proper and still carry invariants
    dims, proper = set(), False
    for rep, d in ORBIT_CASES:
        tp = TensorPowerRep(rep, d)
        dims.add(invariant_subspace(tp).dim)
        stable = cyclic_span(tp)
        proper |= stable.dim < tp.dim and invariant_subspace(tp, stable).dim > 0
    assert 0 in dims and len(dims) > 2 and proper


def spans_its_images(s, tp):
    """s is stable when the span of its images under each generator is s: the
    definition the row-by-row membership test replaced."""
    return all(span_rows(s.ngens, s.degree, [tp.act_row(g, r) for r in s.rows]) == s
               for g in ((1, 0, 0), (0, 1, 0)))


def power_sum(tp, i, j):
    """The sum of the images of e_0 under the powers of the element (i, j, 0):
    fixed by that element, so its line is stable under it, if not under both
    generators."""
    out = {}
    for k in range(tp.base.n):
        for c, v in tp.act_row((k * i, k * j, 0), {0: ONE}).items():
            out[c] = out.get(c, ZERO) + v
    return {c: v for c, v in out.items() if v}


def subrep_candidates(tp):
    """Stable and unstable subspaces: the cyclic span of e_0 + 2 e_last, the
    lines of the e1 and e2 power sums, one basis word, that vector alone and
    the zero subspace."""
    n, d = tp.base.dim, tp.degree
    row = {0: ONE, tp.dim - 1: fe(2)} if tp.dim > 1 else {0: ONE}
    return [cyclic_span(tp), span_rows(n, d, [power_sum(tp, 1, 0)]),
            span_rows(n, d, [power_sum(tp, 0, 1)]), span_rows(n, d, [{0: ONE}]),
            span_rows(n, d, [row]), Subspace.zero(n, d)]


SUBREP_CASES = [(rep, d) for n in (2, 3, 4) for rep in irrep_table(n) for d in (1, 2, 3)]


@pytest.mark.parametrize("rep, d", SUBREP_CASES,
                         ids=[f"{rep.label}-deg{d}" for rep, d in SUBREP_CASES])
def test_is_subrep_matches_spanned_images(rep, d):
    tp = TensorPowerRep(rep, d)
    for s in subrep_candidates(tp):
        assert is_subrep(s, tp) == spans_its_images(s, tp)


def test_is_subrep_cases_are_not_vacuous():
    # the candidates include proper stable subspaces and unstable ones
    seen = set()
    for rep, d in SUBREP_CASES:
        tp = TensorPowerRep(rep, d)
        seen.update((is_subrep(s, tp), 0 < s.dim < tp.dim) for s in subrep_candidates(tp))
    assert {(True, True), (False, True)} <= seen


def relation_overlap(*abc):
    """R*V + V*R in degree 3 for the 3-generator family: H3-stable, since R is."""
    rel = build_s3(AbcParams.of(*abc)).relations[0][1]
    gens = NcPoly.gens(3)
    rv = span([r * g for r in rel.basis() for g in gens])
    vr = span([g * r for r in rel.basis() for g in gens])
    return span_rows(3, 3, rv.rows + vr.rows)


@pytest.mark.parametrize("rep, stable, dim", [
    (h3_gen_rep(), relation_overlap(1, 2, 3), 1),
    (h3_gen_rep(), relation_overlap(1, Fraction(-1, 3), -2), 1),
    (h2_gen_rep(), span(quadratic_images()), 1),
], ids=("overlap-1,2,3", "overlap-1,-1/3,-2", "squaring-images"))
def test_invariant_subspace_of_stable_subspace_matches_averaging_projector(rep, stable, dim):
    tp = TensorPowerRep(rep, stable.degree)
    inv = invariant_subspace(tp, stable)
    assert inv == averaged(tp, stable.rows)
    assert inv.dim == dim


def test_invariant_subspace_of_cubics():
    tp = TensorPowerRep(h3_gen_rep(), 3)
    inv = invariant_subspace(tp)
    assert inv.dim == 3
    for b in inv.basis():
        row = b.row
        for g in ((1, 0, 0), (0, 1, 0)):
            assert tp.act_row(g, row) == row


def test_invariant_subspace_restricted_to_subrep():
    x, y = NcPoly.gens(2)
    tp = TensorPowerRep(h2_gen_rep(), 2)
    stable = span([x * x, y * y, x * y + y * x, x * y - y * x], 2, 2)
    inv = invariant_subspace(tp, stable)
    assert inv.dim <= stable.dim
    for b in inv.basis():
        row = b.row
        for g in ((1, 0, 0), (0, 1, 0)):
            assert tp.act_row(g, row) == row


def test_is_subrep_and_rejection():
    x, y = NcPoly.gens(2)
    tp = TensorPowerRep(h2_gen_rep(), 2)
    assert is_subrep(span([x * y - y * x], 2, 2), tp)
    assert not is_subrep(span([x * y], 2, 2), tp)
    with pytest.raises(NotASubrepError):
        invariant_subspace(tp, span([x * y], 2, 2))


def test_twist_table_shape():
    table = twist_equivalence_table()
    assert len(table) == 256
    assert sum(1 for v in table.values() if v) == 64
    # reflexive and symmetric
    for (s, t), v in table.items():
        assert table[(t, s)] == v
        if s == t:
            assert v


def test_pm_basis_conjugates_generator_rep():
    rep = h4_gen_rep()
    pm = pm_rep()
    basis = dense_cols(h4_pm_basis())
    binv = mat_inv(basis)
    assert mat_mul(binv, mat_mul(dense(rep.e1), basis)) == dense(pm.e1)
    assert mat_mul(binv, mat_mul(dense(rep.e2), basis)) == dense(pm.e2)
    # e1^2 and e2^2 are diagonal there, with signs (-1)^i and (-1)^j on v_{i,j}
    assert pm.matrix((2, 0, 0)) == tuple(enumerate(map(fe, (1, -1, 1, -1))))
    assert pm.matrix((0, 2, 0)) == tuple(enumerate(map(fe, (1, 1, -1, -1))))
