"""Sparse exact linear algebra over the cyclotomic field.

A row is a dict mapping column index to a nonzero FieldElem.  Elimination
runs fraction-free on integer rows (IntRows): one int per entry when every
entry is rational, a 4-tuple of integer numerators otherwise.  Forward
elimination takes the rows shortest first (a sparse row meets fewer pivots
and makes a sparser pivot row) and cross-multiplies; a row's integer content
is stripped once, when it becomes a pivot row, so a row that reduces to zero
costs no gcd.  Each echelon row keeps its own pivot entry, scaled to a
positive rational integer (a cyclotomic row is multiplied by the norm
cofactor of its pivot), so eliminating with it multiplies the other row by an
int.  The pivot set and the back-substituted basis do not depend on the order
the rows come in.  Back-substitution then reduces each row by the rows of
larger pivot, in one pass per row.  rref divides each row by its pivot: the
reduced row echelon form, which is canonical, so any generating set of the
same subspace yields byte-identical output.

Callers that keep their own state in integer rows, such as the graded engine,
use IntRows directly: a vector is an integer row over one positive int
denominator, and IntRows.reduce gives its residue modulo a back-substituted
basis in one pass, without leaving the integers.
"""

from __future__ import annotations

from itertools import chain
from math import gcd, lcm
from typing import Callable, NamedTuple

from .field import I4, ONE, ZERO, FieldElem, mul_i4, norm_cofactor, ratio

Row = dict[int, FieldElem]


# -- integer row kernels ----------------------------------------------------
# elim(row, b, c) kills column c of row with the echelon row b, whose pivot
# b[c] is a positive rational integer p: it returns f * row - (row[c] f / p) b
# for the least int f > 0 that keeps the result integral.

def _lift_rat(row: Row) -> tuple[dict[int, int], int]:
    den = lcm(*(v.den for v in row.values()))
    return {c: v.num[0] * (den // v.den) for c, v in row.items() if v}, den


def _lower_rat(row: dict[int, int], den: int) -> Row:
    return {c: ratio((v, 0, 0, 0), den) for c, v in row.items()}


def _content_rat(row: dict[int, int]) -> int:
    return gcd(*row.values())


def _divide_rat(row: dict[int, int], g: int) -> dict[int, int]:
    return {c: v // g for c, v in row.items()}


def _elim_rat(row: dict[int, int], b: dict[int, int], c: int) -> dict[int, int]:
    p, q = b[c], row[c]
    g = gcd(p, q)
    mr, mb = p // g, q // g
    new = {}
    for k, v in row.items():
        if k != c:
            new[k] = mr * v
    for k, v in b.items():
        if k == c:
            continue
        w = new.get(k, 0) - mb * v
        if w:
            new[k] = w
        elif k in new:
            del new[k]
    return new


def _axpy_rat(out: dict[int, int], s: int, f: int, row: dict[int, int]) -> None:
    s *= f
    for k, v in row.items():
        w = out.get(k, 0) + s * v
        if w:
            out[k] = w
        elif k in out:
            del out[k]


def _lift_cyc(row: Row) -> tuple[dict[int, I4], int]:
    den = lcm(*(v.den for v in row.values()))
    return {c: tuple(n * (den // v.den) for n in v.num) for c, v in row.items() if v}, den


def _lower_cyc(row: dict[int, I4], den: int) -> Row:
    return {c: ratio(v, den) for c, v in row.items()}


def _content_cyc(row: dict[int, I4]) -> int:
    return gcd(*chain.from_iterable(row.values()))


def _divide_cyc(row: dict[int, I4], g: int) -> dict[int, I4]:
    return {c: (t[0] // g, t[1] // g, t[2] // g, t[3] // g) for c, t in row.items()}


def _rationalize_cyc(row: dict[int, I4], c: int) -> dict[int, I4]:
    """Row times the norm cofactor of row[c], which makes that entry rational."""
    p = row[c]
    if not (p[1] or p[2] or p[3]):
        return row
    m, _ = norm_cofactor(p)
    return {k: mul_i4(m, v) for k, v in row.items()}


def _elim_cyc(row: dict[int, I4], b: dict[int, I4], c: int) -> dict[int, I4]:
    p, q = b[c][0], row[c]
    g = gcd(p, *q)
    mr, mb = p // g, (q[0] // g, q[1] // g, q[2] // g, q[3] // g)
    new = {}
    for k, v in row.items():
        if k != c:
            new[k] = (mr * v[0], mr * v[1], mr * v[2], mr * v[3])
    zero = (0, 0, 0, 0)
    for k, v in b.items():
        if k == c:
            continue
        qv = mul_i4(mb, v)
        w0 = new.get(k, zero)
        w = (w0[0] - qv[0], w0[1] - qv[1], w0[2] - qv[2], w0[3] - qv[3])
        if any(w):
            new[k] = w
        elif k in new:
            del new[k]
    return new


def _axpy_cyc(out: dict[int, I4], s: I4, f: int, row: dict[int, I4]) -> None:
    s = (s[0] * f, s[1] * f, s[2] * f, s[3] * f)
    zero = (0, 0, 0, 0)
    for k, v in row.items():
        sv = mul_i4(s, v)
        w0 = out.get(k, zero)
        w = (w0[0] + sv[0], w0[1] + sv[1], w0[2] + sv[2], w0[3] + sv[3])
        if any(w):
            out[k] = w
        elif k in out:
            del out[k]


def _head(x) -> int:
    """The rational part of an entry."""
    return x if x.__class__ is int else x[0]


class IntRows(NamedTuple):
    """Fraction-free arithmetic on integer rows of one entry kind.

    ``lift`` writes a FieldElem row as (integer row, positive int den) and
    ``lower`` reads it back; ``axpy(out, s, f, row)`` adds s*f*row to ``out``
    in place, for an entry s and an int f.  A basis maps each pivot column to
    an echelon row whose lowest column it is, with a positive rational
    integer pivot entry and no entry on the other pivot columns.
    """

    lift: Callable
    lower: Callable
    axpy: Callable
    content: Callable
    divide: Callable
    elim: Callable
    rationalize: Callable
    unit: object

    def _strip(self, row: dict) -> dict:
        """The row divided by its integer content."""
        g = self.content(row)
        return self.divide(row, g) if g > 1 else row

    def echelon(self, rows) -> dict[int, dict]:
        """Basis of the span of integer rows."""
        return self.back_substitute(self.forward(rows))

    def forward(self, rows) -> dict[int, dict]:
        """Forward echelon rows of the span of integer rows, by pivot: each
        row's lowest column is its pivot, and it may meet the other pivots.
        Rows are taken shortest first; content is stripped from pivot rows only."""
        elim = self.elim
        forward: dict[int, dict] = {}
        for row in sorted(rows, key=len):
            while row:
                c = min(row)
                b = forward.get(c)
                if b is None:
                    row = self.rationalize(row, c)
                    g = self.content(row)
                    if _head(row[c]) < 0:
                        g = -g
                    forward[c] = self.divide(row, g) if g != 1 else row
                    break
                row = elim(row, b, c)
        return forward

    def back_substitute(self, forward) -> dict[int, dict]:
        """The basis with the pivots of forward echelon rows: each row reduced
        by the rows of larger pivot."""
        basis: dict[int, dict] = {}
        for c in sorted(forward, reverse=True):
            basis[c] = self._strip(self.reduce(forward[c], 1, basis)[0])
        return basis

    def reduce(self, row: dict, den: int, basis) -> tuple[dict, int]:
        """Residue of row/den modulo a basis, as (row, den) in lowest terms.

        One pass: with m the lcm of the pivot entries the row meets, the
        residue is (m row - sum_c row[c] (m / b[c]) b) / (m den).
        """
        hit = [c for c in row if c in basis]
        if hit:
            heads = [_head(basis[c][c]) for c in hit]
            m = lcm(*heads)
            out: dict = {}
            self.axpy(out, self.unit, m, row)
            for c, p in zip(hit, heads):
                self.axpy(out, row[c], -(m // p), basis[c])
            row, den = out, den * m
        g = gcd(den, self.content(row))
        return (self.divide(row, g), den // g) if g > 1 else (row, den)


RATIONAL = IntRows(_lift_rat, _lower_rat, _axpy_rat, _content_rat, _divide_rat, _elim_rat,
                   lambda row, c: row, 1)
CYCLOTOMIC = IntRows(_lift_cyc, _lower_cyc, _axpy_cyc, _content_cyc, _divide_cyc, _elim_cyc,
                     _rationalize_cyc, (1, 0, 0, 0))


def int_rows(rows) -> IntRows:
    """RATIONAL when every entry of ``rows`` is rational, else CYCLOTOMIC."""
    return RATIONAL if all(v.is_rational() for r in rows for v in r.values()) else CYCLOTOMIC


# -- public API -------------------------------------------------------------

def rref(rows) -> tuple[tuple[int, ...], tuple[Row, ...]]:
    """Canonical reduced row echelon form of the span of ``rows``.

    Returns (pivots, rows) with pivots ascending, each output row keyed to its
    pivot, pivot entries equal to 1, and no pivot column appearing elsewhere.
    """
    rows = [r for r in rows if r]
    k = int_rows(rows)
    basis = k.echelon(k.lift(r)[0] for r in rows)
    pivots = tuple(sorted(basis))
    return pivots, tuple(k.lower(basis[c], _head(basis[c][c])) for c in pivots)


def reduce_mod(row: Row, pivots, prows) -> Row:
    """Residue of ``row`` modulo an echelon basis with unit pivot entries and
    ascending pivots, such as an RREF; supported on non-pivot columns."""
    out = {c: v for c, v in row.items() if v}
    for p, prow in zip(pivots, prows):
        c = out.get(p)
        if c:
            for k, v in prow.items():
                w = out.get(k, ZERO) - c * v
                if w:
                    out[k] = w
                elif k in out:
                    del out[k]
    return out


def nullspace(rows, ncols: int) -> list[Row]:
    """Canonical kernel basis of the matrix whose rows are ``rows``.

    One basis vector per free column, ascending; free coordinate set to 1.
    """
    pivots, prows = rref(rows)
    pivset = set(pivots)
    out = []
    for f in range(ncols):
        if f in pivset:
            continue
        v: Row = {f: ONE}
        for p, prow in zip(pivots, prows):
            e = prow.get(f)
            if e:
                v[p] = -e
        out.append(v)
    return out


def _column_rows(cols) -> list[Row]:
    """Equation rows of the map sending unknown j to the sparse vector
    ``cols[j]``: one row per coordinate key, in ascending key order."""
    eqs: dict = {}
    for j, col in enumerate(cols):
        for r, v in col.items():
            if v:
                eqs.setdefault(r, {})[j] = v
    return [eqs[r] for r in sorted(eqs)]


def column_kernel(cols) -> list[Row]:
    """Canonical kernel basis, as in ``nullspace``, of the map sending unknown
    j to ``cols[j]``; coordinate keys may be any sortable values."""
    return nullspace(_column_rows(cols), len(cols))


def solve_columns(cols: list[Row], target: Row):
    """Solve sum_j x_j * cols[j] = target; None if inconsistent.

    Underdetermined systems get the canonical solution with free unknowns 0.
    """
    n = len(cols)
    pivots, prows = rref(_column_rows([*cols, target]))
    if n in pivots:
        return None
    x = [ZERO] * n
    for p, prow in zip(pivots, prows):
        x[p] = prow.get(n, ZERO)
    return x

