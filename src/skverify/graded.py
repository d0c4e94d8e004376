"""Graded algebras presented by homogeneous relations.

The degree-m slice of the two-sided ideal generated by relation spaces R_d is
computed by the one-step recurrence

    J_m  =  V * J_{m-1}  +  sum_d  R_d * V^{m-d},

which covers every position a relation can occupy inside a degree-m word: the
first summand collects all placements not starting at position 0, the second
the rest.
Slices are canonical Subspace objects and are memoized per (presentation,
degree).

The centralizer of the generators in degree k is solved as a kernel problem:
c commutes with every generator modulo the ideal iff all commutators [x_i, c]
reduce to zero modulo J_{k+1}.  That kernel automatically contains J_k, so the
returned subspace holds canonical representatives: the kernel reduced mod J_k.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg
from .errors import DegreeError, ParameterError, ShapeError
from .field import ONE, ZERO, FieldElem
from .freealg import NcPoly, Subspace, span, span_rows


@dataclass(frozen=True)
class Presentation:
    """Free algebra on named generators modulo graded relation subspaces."""

    gen_names: tuple[str, ...]
    relations: tuple[tuple[int, Subspace], ...]   # (degree, subspace), ascending

    @staticmethod
    def make(gen_names, relation_polys) -> "Presentation":
        names = tuple(gen_names)
        ngens = len(names)
        by_degree: dict[int, list[NcPoly]] = {}
        for p in relation_polys:
            if not p:
                continue
            if p.ngens != ngens:
                raise ShapeError("relation generator count mismatch")
            if not p.is_homogeneous():
                raise ShapeError("relations must be homogeneous")
            d = p.degree()
            if d < 2:
                raise DegreeError("relations must have degree >= 2")
            by_degree.setdefault(d, []).append(p)
        rels = tuple((d, span(by_degree[d])) for d in sorted(by_degree))
        if not rels:
            raise ParameterError("empty relation set")
        return Presentation(names, rels)

    @property
    def ngens(self) -> int:
        return len(self.gen_names)

    @property
    def degree_ceiling(self) -> int:
        return 6 if self.ngens <= 3 else 5

    def relation_polys(self) -> list[NcPoly]:
        out = []
        for _, s in self.relations:
            out.extend(s.basis())
        return out

    def adjoin(self, extras) -> "Presentation":
        """Presentation with extra homogeneous elements added to the relations."""
        return Presentation.make(self.gen_names, self.relation_polys() + list(extras))


@dataclass(frozen=True)
class HilbertRecord:
    """Graded dimensions, index = degree."""

    dims: tuple[int, ...]


@dataclass(frozen=True)
class NormalCertificate:
    """Witness that v*c = c*sigma(v) holds modulo the ideal for generators v.

    ``sigma`` is a matrix over the generators, sigma(x_i) = sum_j sigma[i][j] x_j,
    or None when no such automorphism matrix exists (c is not normal).  When
    the right multiples {c*x_j mod J} are dependent the stored solution is the
    canonical one with free coordinates set to zero.
    """

    degree: int
    sigma: tuple[tuple[FieldElem, ...], ...] | None

    @property
    def is_normal(self) -> bool:
        return self.sigma is not None

    @property
    def is_central(self) -> bool:
        if self.sigma is None:
            return False
        return all(self.sigma[i][j] == (ONE if i == j else ZERO)
                   for i in range(len(self.sigma)) for j in range(len(self.sigma)))


_SLICE_CACHE: dict[tuple[Presentation, int], Subspace] = {}


def ideal_slice(p: Presentation, m: int) -> Subspace:
    """Degree-m slice of the two-sided ideal generated by the relations."""
    if m < 0:
        raise DegreeError("negative degree")
    if m > p.degree_ceiling:
        raise DegreeError(f"degree {m} above supported ceiling {p.degree_ceiling}")
    n = p.ngens
    min_rel = p.relations[0][0]
    if m < min_rel:
        return Subspace.zero(n, m)
    key = (p, m)
    hit = _SLICE_CACHE.get(key)
    if hit is not None:
        return hit
    rows: list[linalg.Row] = []
    prev = ideal_slice(p, m - 1)
    shift = n ** (m - 1)
    for row in prev.rows:
        for g in range(n):
            base = g * shift
            rows.append({base + c: v for c, v in row.items()})
    for d, rel in p.relations:
        if d > m:
            break
        pad = n ** (m - d)
        for row in rel.rows:
            for w in range(pad):
                rows.append({c * pad + w: v for c, v in row.items()})
    s = span_rows(n, m, rows)
    _SLICE_CACHE[key] = s
    return s


def hilbert_dims(p: Presentation, max_degree: int) -> HilbertRecord:
    """Dimensions of the graded quotient in degrees 0..max_degree."""
    n = p.ngens
    dims = tuple(n ** m - ideal_slice(p, m).dim for m in range(max_degree + 1))
    return HilbertRecord(dims)


def quotient_hilbert(p: Presentation, extras, max_degree: int) -> HilbertRecord:
    """Hilbert dimensions after adjoining extra homogeneous relations."""
    return hilbert_dims(p.adjoin(extras), max_degree)


def abelianized_hilbert(p: Presentation, max_degree: int) -> HilbertRecord:
    """Hilbert dimensions after forcing all generators to commute."""
    gens = NcPoly.gens(p.ngens)
    comms = [gens[i] * gens[j] - gens[j] * gens[i]
             for i in range(p.ngens) for j in range(i + 1, p.ngens)]
    return hilbert_dims(p.adjoin(comms), max_degree)


def centralizer_slice(p: Presentation, k: int) -> Subspace:
    """Canonical representatives of degree-k elements central in the quotient."""
    if k < 1:
        raise DegreeError("degree must be >= 1")
    n = p.ngens
    jk = ideal_slice(p, k)
    jk1 = ideal_slice(p, k + 1)
    nk = n ** k
    eqrows: dict[int, linalg.Row] = {}
    for widx in range(nk):
        acc: linalg.Row = {}
        for i in range(n):
            left = i * nk + widx       # word  x_i * w
            right = widx * n + i       # word  w * x_i
            if left == right:
                continue
            resid = jk1.reduce_row({left: ONE, right: -ONE})
            for c, v in resid.items():
                key = i * (nk * n) + c
                w = acc.get(key, ZERO) + v
                if w:
                    acc[key] = w
                elif key in acc:
                    del acc[key]
        for r, v in acc.items():
            eqrows.setdefault(r, {})[widx] = v
    kernel = linalg.nullspace([eqrows[r] for r in sorted(eqrows)], nk)
    reps = [jk.reduce_row(v) for v in kernel]
    return span_rows(n, k, reps)


def normality_automorphism(p: Presentation, c: NcPoly) -> NormalCertificate:
    """Solve v*c = c*sigma(v) mod the ideal for a generator matrix sigma."""
    if not c.is_homogeneous() or not c:
        raise ShapeError("need a nonzero homogeneous element")
    k = c.degree()
    if k < 1:
        raise DegreeError("degree must be >= 1")
    n = p.ngens
    if ideal_slice(p, k).contains(c):
        raise ParameterError("element vanishes in the quotient algebra")
    jk1 = ideal_slice(p, k + 1)
    crow = c.to_row(k)
    nk = n ** k
    right = [jk1.reduce_row({col * n + j: v for col, v in crow.items()})
             for j in range(n)]
    sigma = []
    for i in range(n):
        target = jk1.reduce_row({i * nk + col: v for col, v in crow.items()})
        x = linalg.solve_columns(right, target)
        if x is None:
            return NormalCertificate(degree=k, sigma=None)
        sigma.append(tuple(x))
    return NormalCertificate(degree=k, sigma=tuple(sigma))
