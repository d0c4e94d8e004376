"""Sparse exact linear algebra over the cyclotomic field.

A row is a dict mapping column index to a nonzero FieldElem.  Echelonization
runs fraction-free: each row is scaled to integer form (one int per entry in
the rational case, a 4-tuple of ints in the general case), eliminated by
cross-multiplication, and stripped of integer content after every step so
coefficient growth stays additive rather than multiplicative.  A final
back-substitution pass with pivot normalization produces the reduced row
echelon form, which is canonical: any generating set of the same subspace
yields byte-identical output.
"""

from __future__ import annotations

from math import gcd, lcm

from .field import I4, ONE, ZERO, FieldElem, mul_i4, ratio

Row = dict[int, FieldElem]


# -- integer row kernels ----------------------------------------------------

def _int_row_rat(row: Row) -> dict[int, int]:
    den = lcm(*(v.den for v in row.values())) if row else 1
    return _strip_rat({c: v.num[0] * (den // v.den) for c, v in row.items() if v})


def _strip_rat(row: dict[int, int]) -> dict[int, int]:
    if not row:
        return row
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            return row
    return {c: v // g for c, v in row.items()}


def _elim_rat(row: dict[int, int], b: dict[int, int], c: int) -> dict[int, int]:
    """row := (b[c]/g)*row - (row[c]/g)*b, killing column c."""
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


def _int_row_cyc(row: Row) -> dict[int, I4]:
    den = lcm(*(v.den for v in row.values())) if row else 1
    return _strip_cyc({c: tuple(n * (den // v.den) for n in v.num)
                       for c, v in row.items() if v})


def _strip_cyc(row: dict[int, I4]) -> dict[int, I4]:
    if not row:
        return row
    g = 0
    for t in row.values():
        for v in t:
            g = gcd(g, v)
            if g == 1:
                return row
    return {c: (t[0] // g, t[1] // g, t[2] // g, t[3] // g) for c, t in row.items()}


def _elim_cyc(row: dict[int, I4], b: dict[int, I4], c: int) -> dict[int, I4]:
    p, q = b[c], row[c]
    new = {}
    for k, v in row.items():
        if k != c:
            new[k] = mul_i4(p, v)
    zero = (0, 0, 0, 0)
    for k, v in b.items():
        if k == c:
            continue
        qv = mul_i4(q, v)
        w0 = new.get(k, zero)
        w = (w0[0] - qv[0], w0[1] - qv[1], w0[2] - qv[2], w0[3] - qv[3])
        if any(w):
            new[k] = w
        elif k in new:
            del new[k]
    return new


def _forward(introws, elim, strip):
    basis: dict[int, dict] = {}
    for row in introws:
        while row:
            c = min(row)
            b = basis.get(c)
            if b is None:
                basis[c] = strip(row)
                break
            row = strip(elim(row, b, c))
    return basis


def _backsub(basis, elim, strip):
    for c in sorted(basis, reverse=True):
        row = basis[c]
        for k in sorted(k for k in row if k != c and k in basis):
            row = elim(row, basis[k], k)
        basis[c] = strip(row)


# -- public API -------------------------------------------------------------

def rref(rows) -> tuple[tuple[int, ...], tuple[Row, ...]]:
    """Canonical reduced row echelon form of the span of ``rows``.

    Returns (pivots, rows) with pivots ascending, each output row keyed to its
    pivot, pivot entries equal to 1, and no pivot column appearing elsewhere.
    """
    rows = [r for r in rows if r]
    rational = all(v.is_rational() for r in rows for v in r.values())
    if rational:
        basis = _forward((_int_row_rat(r) for r in rows), _elim_rat, _strip_rat)
        _backsub(basis, _elim_rat, _strip_rat)
        pivots = tuple(sorted(basis))
        out = []
        for c in pivots:
            row = basis[c]
            p = row[c]
            out.append({k: ratio((v, 0, 0, 0), p) for k, v in row.items()})
        return pivots, tuple(out)
    basis = _forward((_int_row_cyc(r) for r in rows), _elim_cyc, _strip_cyc)
    _backsub(basis, _elim_cyc, _strip_cyc)
    pivots = tuple(sorted(basis))
    out = []
    for c in pivots:
        row = basis[c]
        pinv = ratio(row[c], 1).inverse()
        out.append({k: pinv * ratio(v, 1) for k, v in row.items()})
    return pivots, tuple(out)


def reduce_mod(row: Row, pivots, prows) -> Row:
    """Residue of ``row`` modulo an RREF basis; supported on non-pivot columns."""
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


def solve_columns(cols: list[Row], target: Row):
    """Solve sum_j x_j * cols[j] = target; None if inconsistent.

    Underdetermined systems get the canonical solution with free unknowns 0.
    """
    n = len(cols)
    coords = set(target)
    for col in cols:
        coords.update(col)
    eqs = []
    for r in sorted(coords):
        row: Row = {}
        for j, col in enumerate(cols):
            v = col.get(r)
            if v:
                row[j] = v
        t = target.get(r)
        if t:
            row[n] = t
        if row:
            eqs.append(row)
    pivots, prows = rref(eqs)
    if n in pivots:
        return None
    x = [ZERO] * n
    for p, prow in zip(pivots, prows):
        x[p] = prow.get(n, ZERO)
    return x


def intersect(rows_a, rows_b, ncols: int) -> list[Row]:
    """Basis of (span A) cap (span B) via the doubled-column construction."""
    stacked = []
    for r in rows_a:
        d = dict(r)
        for c, v in r.items():
            d[c + ncols] = v
        stacked.append(d)
    stacked.extend(dict(r) for r in rows_b)
    _, prows = rref(stacked)
    out = []
    for row in prows:
        if min(row) >= ncols:
            out.append({c - ncols: v for c, v in row.items()})
    return out
