"""Sparse exact row reduction: canonical forms, kernels, solving."""

import random
from fractions import Fraction

from hypothesis import given, settings
from hypothesis import strategies as st

from skverify import linalg
from skverify.field import ONE, ZERO, FieldElem, fe
from skverify.freealg import span_rows


def random_rows(rng, nrows, ncols, density=0.4, cyclotomic=False):
    rows = []
    for _ in range(nrows):
        row = {}
        for c in range(ncols):
            if rng.random() >= density:
                continue
            if cyclotomic:
                coeffs = tuple(Fraction(rng.randint(-5, 5)) for _ in range(4))
            else:
                coeffs = (Fraction(rng.randint(-5, 5)), Fraction(0),
                          Fraction(0), Fraction(0))
            v = FieldElem(coeffs)
            if v:
                row[c] = v
        rows.append(row)
    return rows


def dot(eq, vec):
    total = ZERO
    for c, coef in eq.items():
        total = total + coef * vec.get(c, ZERO)
    return total


def test_rref_is_canonical_under_row_shuffles():
    rng = random.Random(7)
    for trial in range(30):
        rows = random_rows(rng, 8, 10, cyclotomic=trial % 2 == 1)
        piv1, red1 = linalg.rref([dict(r) for r in rows])
        shuffled = [dict(r) for r in rows]
        rng.shuffle(shuffled)
        piv2, red2 = linalg.rref(shuffled)
        assert piv1 == piv2
        assert red1 == red2
        # pivots are monic and cleared above and below
        for p, r in zip(piv1, red1):
            assert r[p] == ONE
            for q, other in zip(piv1, red1):
                if q != p:
                    assert p not in other or not other[p]


def test_rref_scaling_invariance():
    rng = random.Random(8)
    rows = random_rows(rng, 6, 9)
    piv1, red1 = linalg.rref([dict(r) for r in rows])
    scaled = [{c: fe(3) * v for c, v in r.items()} for r in rows]
    piv2, red2 = linalg.rref(scaled)
    assert (piv1, red1) == (piv2, red2)


def test_reduce_mod_is_idempotent_and_pivot_free():
    rng = random.Random(9)
    for _ in range(20):
        piv, red = linalg.rref(random_rows(rng, 6, 8))
        target = random_rows(rng, 1, 8, density=0.8)[0]
        out = linalg.reduce_mod(target, piv, red)
        assert linalg.reduce_mod(out, piv, red) == out
        for p in piv:
            assert p not in out


def test_nullspace_vectors_annihilate_equations():
    rng = random.Random(10)
    for trial in range(20):
        ncols = 9
        rows = random_rows(rng, 5, ncols, cyclotomic=trial % 3 == 0)
        kernel = linalg.nullspace(rows, ncols)
        for vec in kernel:
            for eq in rows:
                assert dot(eq, vec) == ZERO
        rank = len(linalg.rref(rows)[0])
        assert rank + len(kernel) == ncols


def test_nullspace_of_zero_map_is_everything():
    kernel = linalg.nullspace([], 4)
    assert len(kernel) == 4


def test_solve_columns_reproduces_combinations():
    rng = random.Random(11)
    for _ in range(25):
        cols = [r for r in random_rows(rng, 5, 7, density=0.6) if r]
        coeffs = [fe(rng.randint(-4, 4)) for _ in cols]
        target = {}
        for x, col in zip(coeffs, cols):
            for c, v in col.items():
                acc = target.get(c, ZERO) + x * v
                if acc:
                    target[c] = acc
                elif c in target:
                    del target[c]
        sol = linalg.solve_columns(cols, target)
        assert sol is not None
        assert len(sol) == len(cols)
        rebuilt = {}
        for j, x in enumerate(sol):
            for c, v in cols[j].items():
                acc = rebuilt.get(c, ZERO) + x * v
                if acc:
                    rebuilt[c] = acc
                elif c in rebuilt:
                    del rebuilt[c]
        assert rebuilt == target


def test_solve_columns_detects_unsolvable():
    cols = [{0: ONE}, {1: ONE}]
    assert linalg.solve_columns(cols, {2: ONE}) is None
    assert linalg.solve_columns(cols, {0: fe(2), 1: fe(-1)}) is not None


def test_solve_columns_sets_free_unknowns_to_zero():
    # x0 + x1 = 3, 2 x2 = 4, x3 free on a zero column: x1 and x3 are free
    cols = [{0: ONE}, {0: ONE}, {1: fe(2)}, {}]
    assert linalg.solve_columns(cols, {0: fe(3), 1: fe(4)}) == [fe(3), ZERO, fe(2), ZERO]
    # a dependent pair: x0 (1, 1) + x1 (2, 2) = (2, 2) leaves x1 free
    assert linalg.solve_columns([{0: ONE, 1: ONE}, {0: fe(2), 1: fe(2)}],
                                {0: fe(2), 1: fe(2)}) == [fe(2), ZERO]


def test_solve_columns_on_tuple_keyed_coordinates():
    # the same systems with coordinates keyed (generator, word), as a
    # centralizer's columns are
    cols = [{(1, 0): ONE}, {(1, 0): ONE}, {(0, 5): fe(2)}, {}]
    assert (linalg.solve_columns(cols, {(1, 0): fe(3), (0, 5): fe(4)})
            == [fe(3), ZERO, fe(2), ZERO])
    cols = [{(0, 2): ONE, (1, 1): -ONE}, {(1, 1): ONE}, {(0, 2): fe(2), (1, 1): -fe(2)}]
    assert linalg.solve_columns(cols, {(0, 2): fe(2)}) == [fe(2), fe(2), ZERO]
    assert linalg.solve_columns(cols, {(2, 0): ONE}) is None


def test_intersect_dimension_formula():
    # the meet of two row spaces, built on the rows' own column kernel, lies in
    # both and has the dimension the rank of their join leaves over
    rng = random.Random(12)
    for _ in range(15):
        ncols = 8
        rows_a = random_rows(rng, 5, ncols)
        rows_b = random_rows(rng, 5, ncols)
        piv_a, red_a = linalg.rref([dict(r) for r in rows_a])
        piv_b, red_b = linalg.rref([dict(r) for r in rows_b])
        meet = span_rows(2, 3, rows_a).meet(span_rows(2, 3, rows_b))
        for vec in meet.rows:
            assert not linalg.reduce_mod(dict(vec), piv_a, red_a)
            assert not linalg.reduce_mod(dict(vec), piv_b, red_b)
        join_rank = len(linalg.rref(
            [dict(r) for r in rows_a] + [dict(r) for r in rows_b])[0])
        assert len(piv_a) + len(piv_b) == join_rank + meet.dim


def test_solvers_leave_input_rows_unchanged():
    # callers hand over their own rows uncopied, the same dict in both places too
    rng = random.Random(14)
    for trial in range(10):
        rows = random_rows(rng, 6, 8, cyclotomic=trial % 2 == 1)
        before = [dict(r) for r in rows]
        linalg.rref(rows)
        linalg.nullspace(rows, 8)
        assert rows == before


# -- property tests -----------------------------------------------------------

small_ints = st.integers(-4, 4)


@st.composite
def field_elems(draw, cyclotomic):
    if cyclotomic:
        num = tuple(draw(small_ints) for _ in range(4))
    else:
        num = (draw(small_ints), 0, 0, 0)
    return FieldElem(Fraction(n, draw(st.integers(1, 3))) for n in num)


@st.composite
def matrices(draw, ncols=7, max_rows=6):
    """Rows over Q, or over Q(zeta12) when the draw says so."""
    cyclotomic = draw(st.booleans())
    elem = field_elems(cyclotomic)
    rows = draw(st.lists(st.dictionaries(st.integers(0, ncols - 1), elem, max_size=ncols),
                         min_size=1, max_size=max_rows))
    return [{c: v for c, v in r.items() if v} for r in rows], cyclotomic


def add_multiple(target, x, row):
    out = dict(target)
    for c, v in row.items():
        w = out.get(c, ZERO) + x * v
        if w:
            out[c] = w
        else:
            out.pop(c, None)
    return out


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_rref_is_canonical_under_invertible_row_operations(m, data):
    rows, cyclotomic = m
    want = linalg.rref([dict(r) for r in rows])
    mixed = [dict(r) for r in rows]
    elem = field_elems(cyclotomic).filter(bool)
    idx = st.integers(0, len(mixed) - 1)
    for _ in range(data.draw(st.integers(0, 8))):
        i, j = data.draw(idx), data.draw(idx)
        op = data.draw(st.sampled_from(("scale", "add", "swap", "duplicate")))
        if op == "scale":
            x = data.draw(elem)
            mixed[i] = {c: x * v for c, v in mixed[i].items()}
        elif op == "add" and i != j:
            mixed[i] = add_multiple(mixed[i], data.draw(elem), mixed[j])
        elif op == "swap":
            mixed[i], mixed[j] = mixed[j], mixed[i]
        elif op == "duplicate":
            mixed.append(dict(mixed[i]))
    assert linalg.rref(mixed) == want


@settings(max_examples=60, deadline=None)
@given(matrices())
def test_nullspace_annihilates_rows_property(m):
    rows, _ = m
    kernel = linalg.nullspace(rows, 7)
    for vec in kernel:
        for eq in rows:
            assert dot(eq, vec) == ZERO
    assert len(linalg.rref(rows)[0]) + len(kernel) == 7


def forward_basis(prows, data, cyclotomic):
    """An echelon basis with the pivots of an RREF but not back-substituted:
    each row gains multiples of the rows with larger pivots."""
    elem = field_elems(cyclotomic)
    out = []
    for i, row in enumerate(prows):
        for later in prows[i + 1:]:
            row = add_multiple(row, data.draw(elem), later)
        out.append(row)
    return out


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_reduce_mod_residue_depends_only_on_the_pivots(m, data):
    rows, cyclotomic = m
    pivots, prows = linalg.rref(rows)
    basis = forward_basis(prows, data, cyclotomic)
    assert [min(r) for r in basis] == list(pivots)
    target = data.draw(st.dictionaries(st.integers(0, 6), field_elems(cyclotomic)))
    target = {c: v for c, v in target.items() if v}
    want = linalg.reduce_mod(target, pivots, prows)
    assert linalg.reduce_mod(target, pivots, basis) == want
    assert not set(want) & set(pivots)


@settings(max_examples=60, deadline=None)
@given(matrices(), st.data())
def test_int_rows_reduce_matches_reduce_mod(m, data):
    """Integer bases carry positive rational-integer pivots; the one-pass
    residue over any of them is reduce_mod's over the RREF."""
    rows, cyclotomic = m
    target = data.draw(st.dictionaries(st.integers(0, 6), field_elems(cyclotomic)))
    target = {c: v for c, v in target.items() if v}
    pivots, prows = linalg.rref(rows)
    k = linalg.int_rows(rows + [target])
    forward = k.forward(k.lift(r)[0] for r in rows)
    for c, row in forward.items():
        p = k.lower({c: row[c]}, 1)[c]
        assert min(row) == c and p.is_integer() and p.rational() > 0
    basis = k.back_substitute(forward)
    assert tuple(sorted(basis)) == pivots
    for c, row in basis.items():
        assert not set(row) & set(basis) - {c}
    mixed = [dict(r) for r in reversed(rows)] + [dict(r) for r in rows]
    want = linalg.reduce_mod(target, pivots, prows)
    t, den = k.lift(target)
    assert k.lower(*k.reduce(t, den, basis)) == want
    assert k.lower(*k.reduce(t, den, k.echelon(k.lift(r)[0] for r in mixed))) == want


@settings(max_examples=60, deadline=None)
@given(matrices(max_rows=8), st.data())
def test_echelon_does_not_depend_on_row_order(m, data):
    """forward takes rows shortest first, so only rows of one length keep the
    order they came in; the basis is the same for every order, in either
    kind (a rational matrix lifts to cyclotomic rows too)."""
    rows, _ = m
    for k in dict.fromkeys((linalg.int_rows(rows), linalg.CYCLOTOMIC)):
        lifted = [k.lift(r)[0] for r in rows]
        want = k.back_substitute(k.forward(lifted))
        shuffled = data.draw(st.permutations(lifted))
        assert k.back_substitute(k.forward(shuffled)) == want
        assert k.back_substitute(k.forward(iter(shuffled))) == want


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_column_kernel_property(data):
    """Sparse columns keyed by (generator, word) tuples, as a centralizer's are."""
    cyclotomic = data.draw(st.booleans())
    keys = st.tuples(st.integers(0, 2), st.integers(0, 3))
    cols = data.draw(st.lists(st.dictionaries(keys, field_elems(cyclotomic), max_size=5),
                              max_size=7))
    cols = [{k: v for k, v in col.items() if v} for col in cols]
    kernel = linalg.column_kernel(cols)
    for vec in kernel:
        image = {}
        for j, x in vec.items():
            image = add_multiple(image, x, cols[j])
        assert not image
    index = {k: i for i, k in enumerate(sorted({k for col in cols for k in col}))}
    # the rank of the columns themselves, as rows over integer coordinates
    rank = len(linalg.rref([{index[k]: v for k, v in col.items()} for col in cols])[0])
    assert len(kernel) == len(cols) - rank
    transposed = [{j: col[k] for j, col in enumerate(cols) if k in col} for k in index]
    assert kernel == linalg.nullspace(transposed, len(cols))
