"""Graded algebras presented by homogeneous relations, in standard words.

Words of one degree are ordered by their base-n numeral (freealg); the
standard words S_m are those that are not the lowest word of any element of
the ideal slice J_m.  A relation can always be moved to the end of a word and
the order is compatible with concatenation, so J_m = J_{m-1} V + sum_d
S_{m-d} R_d, and A_m is the span of S_{m-1} x V modulo

    K_m  =  span{ NF_{m-1}((u r)[:-1]) * (u r)[-1] : u in S_{m-d}, r in R_d }.

S_m is S_{m-1} x V minus the pivots of K_m, and NF_m(w) is
NF_{m-1}(w[:-1]) * w[-1] reduced modulo K_m: the one element of w + J_m on
S_m, the non-pivot columns of any echelon basis of J_m, hence the residue
modulo any echelon basis of K_m.  This is the diamond lemma (Bergman, Adv.
Math. 1978) in linear-algebra form; its rows grow polynomially in m where J_m
has n^m columns.

The state is integer (linalg.IntRows): K_m is held as the forward echelon rows
of its generators, each with its own pivot entry, and back-substituted the
first time a reduction in degree m needs it (a Hilbert series never reduces
in its top degree).  Every memoized NF_m(w) is an integer row over one
positive int denominator.  Because the residue does not depend on the echelon
basis, S_m and every normal form are those of the canonical RREF; only
normal_row converts to FieldElem, and an NcPoly p enters it as
normal_row(p.row, p.degree).  Only the engine, a Quotient, memoizes:
whoever holds a parameter point builds one per presentation and hands it to
every check that asks about that algebra, while a presentation with adjoined
elements is another algebra with its own engine.  Centrality is read from
its definition, the commutator map s -> NF(x_i s - s x_i) from A_k to
A_{k+1}: a centralizer is its kernel, one linalg.column_kernel over a column
per standard word, keyed by (generator, word), and an element is central
exactly when its residue lies in that slice.
"""

from __future__ import annotations

from math import lcm
from typing import NamedTuple

from . import linalg
from .errors import DegreeError, ParameterError, ShapeError
from .field import ONE, ZERO, ZETA12, ratio
from .freealg import NcPoly, Subspace, span, span_rows


class Presentation(NamedTuple):
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
            if p.degree < 2:
                raise DegreeError("relations must have degree >= 2")
            by_degree.setdefault(p.degree, []).append(p)
        rels = tuple((d, span(by_degree[d])) for d in sorted(by_degree))
        if not rels:
            raise ParameterError("empty relation set")
        return Presentation(names, rels)

    @property
    def ngens(self) -> int:
        return len(self.gen_names)

    def relation_polys(self) -> list[NcPoly]:
        return [b for _, s in self.relations for b in s.basis()]

    def adjoin(self, extras) -> "Presentation":
        """Presentation with extra homogeneous elements added to the relations."""
        return Presentation.make(self.gen_names, self.relation_polys() + list(extras))

    def abelianized(self) -> "Presentation":
        """Presentation with all generators forced to commute."""
        gens = NcPoly.gens(self.ngens)
        return self.adjoin(g * h - h * g for i, g in enumerate(gens) for h in gens[i + 1:])


def series(num, den, n: int) -> tuple[int, ...]:
    """Coefficients of t^0..t^n in num(t) / prod_b (1 - t^b), as exact ints:
    ``num`` lists the numerator's coefficients from t^0 up, ``den`` the b >= 1."""
    out = list(num[:n + 1]) + [0] * (n + 1 - len(num))
    for b in den:
        for m in range(b, n + 1):
            out[m] += out[m - b]
    return tuple(out)


class Quotient:
    """The quotient algebra of a presentation, in standard-word coordinates.

    Rows are keyed by word index, as an NcPoly's are; degrees are built on demand.
    The state is integer rows of one linalg.IntRows kind, rational unless a
    relation has an irrational coefficient; only normal_row gives FieldElems.
    """

    def __init__(self, p: Presentation) -> None:
        self.p = p
        ints = self._ints = linalg.int_rows(r for _, rel in p.relations for r in rel.rows)
        self._rels = [(d, [ints.lift(r)[0] for r in rel.rows]) for d, rel in p.relations]
        self._std: list[tuple[int, ...]] = [(0,)]     # S_m, ascending word indices
        self._kern: list[dict] = [{}]                  # forward echelon rows of K_m
        self._reduced: dict[int, dict] = {}            # m -> back-substituted K_m
        self._nf: list[dict[int, tuple]] = [{0: ints.lift({0: ONE})}]   # word -> (row, den)

    def standard(self, m: int) -> tuple[int, ...]:
        """Word indices of the standard words of degree m, ascending."""
        while len(self._std) <= m:
            self._extend()
        return self._std[m]

    def hilbert_dims(self, max_degree: int) -> tuple[int, ...]:
        """Dimensions of the quotient in degrees 0..max_degree, index = degree."""
        return tuple(len(self.standard(m)) for m in range(max_degree + 1))

    def normal_row(self, row: linalg.Row, m: int) -> linalg.Row:
        """Normal form of a degree-m row, such as an NcPoly's: its residue
        modulo J_m, empty exactly when the row lies in J."""
        self.standard(m)
        if not m:
            return dict(row)
        ints = self._ints
        if ints is linalg.RATIONAL and not all(v.is_rational() for v in row.values()):
            # rational rows reduce the coordinates of 1, t, t^2, t^3 one by one
            out: linalg.Row = {}
            for j in range(4):
                part = {w: ratio((v.num[j], 0, 0, 0), v.den) for w, v in row.items() if v.num[j]}
                for c, v in self.normal_row(part, m).items():
                    out[c] = out.get(c, ZERO) + ZETA12 ** j * v
            return {c: v for c, v in out.items() if v}
        r, den = ints.lift(row)
        r, d = self._shift(r, m)
        r, d = ints.reduce(r, d, self._basis(m))
        return ints.lower(r, d * den)

    def centralizer_slice(self, k: int) -> Subspace:
        """Canonical representatives of degree-k elements central in the quotient,
        the kernel of s -> NF(x_i s - s x_i) with one column per standard word."""
        if k < 1:
            raise DegreeError("degree must be >= 1")
        n = self.p.ngens
        nk = n ** k
        std = self.standard(k)
        columns = []
        for s in std:
            col = {}
            for i in range(n):
                left, right = i * nk + s, s * n + i      # words x_i * s and s * x_i
                if left != right:
                    nf = self.normal_row({left: ONE, right: -ONE}, k + 1)
                    col.update(((i, c), v) for c, v in nf.items())
            columns.append(col)
        kernel = linalg.column_kernel(columns)
        return span_rows(n, k, [{std[j]: v for j, v in vec.items()} for vec in kernel])

    def _shift(self, row: dict, m: int) -> tuple[dict, int]:
        """Sum of c * NF_{m-1}(w[:-1]) * w[-1] over the terms c*w of a degree-m
        integer row, as (integer row, den)."""
        n, axpy = self.p.ngens, self._ints.axpy
        terms = [(c, w % n, self._word(w // n, m - 1)) for w, c in row.items()]
        den = lcm(*(d for _, _, (_, d) in terms))
        out: dict = {}
        for c, last, (r, d) in terms:
            axpy(out, c, den // d, {k * n + last: v for k, v in r.items()})
        return out, den

    def _basis(self, m: int) -> dict:
        """The basis of K_m, back-substituted on first use."""
        if m not in self._reduced:
            self._reduced[m] = self._ints.back_substitute(self._kern[m])
        return self._reduced[m]

    def _word(self, w: int, m: int) -> tuple[dict, int]:
        memo = self._nf[m]
        if w not in memo:
            n = self.p.ngens
            r, d = self._word(w // n, m - 1)
            last = w % n
            memo[w] = self._ints.reduce({k * n + last: v for k, v in r.items()}, d,
                                        self._basis(m))
        return memo[w]

    def _extend(self) -> None:
        m = len(self._std)
        n = self.p.ngens
        rows = [self._shift({u * n ** d + t: c for t, c in r.items()}, m)[0]
                for d, rels in self._rels if d <= m
                for u in self._std[m - d] for r in rels]
        basis = self._ints.forward(rows)
        std = tuple(w for s in self._std[m - 1] for w in range(s * n, s * n + n)
                    if w not in basis)
        self._kern.append(basis)
        self._std.append(std)
        self._nf.append({})
