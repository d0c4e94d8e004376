"""Free-algebra calculus: words, noncommutative polynomials, subspaces.

A Word is a tuple of 0-based generator indices; a homogeneous degree-d
component of the free algebra on n generators is identified with the span of
all n^d words, ordered degree-lexicographically (within one degree this is
plain lexicographic order, and the column index of a word is its base-n
numeral).  Subspace wraps the canonical reduced echelon basis from linalg, so
two subspaces are equal exactly when their representations coincide.

MultiPoly holds commutative polynomials keyed by flat exponent tuples: the
entries of the point-scheme coefficient matrices, their determinants and
minors, and the quadrics those minors are checked against.
"""

from __future__ import annotations

from . import linalg
from .errors import ShapeError
from .field import ONE, ZERO, FieldElem, fe

Word = tuple[int, ...]


def word_index(word: Word, ngens: int) -> int:
    i = 0
    for a in word:
        i = i * ngens + a
    return i


def index_to_word(i: int, ngens: int, degree: int) -> Word:
    out = []
    for _ in range(degree):
        i, r = divmod(i, ngens)
        out.append(r)
    return tuple(reversed(out))


def word_text(word: Word, names) -> str:
    return "*".join(names[a] for a in word) if word else "1"


class NcPoly:
    """Polynomial in the free algebra on ``ngens`` generators."""

    __slots__ = ("ngens", "terms")

    def __init__(self, ngens: int, terms=None) -> None:
        self.ngens = ngens
        clean: dict[Word, FieldElem] = {}
        for w, c in (terms or {}).items():
            c = fe(c)
            if not c:
                continue
            if any(a < 0 or a >= ngens for a in w):
                raise ShapeError(f"word {w} has letters outside 0..{ngens - 1}")
            clean[tuple(w)] = c
        self.terms = clean

    # -- constructors ------------------------------------------------------

    @staticmethod
    def zero(ngens: int) -> "NcPoly":
        return NcPoly(ngens)

    @staticmethod
    def one(ngens: int) -> "NcPoly":
        return NcPoly(ngens, {(): ONE})

    @staticmethod
    def gen(ngens: int, i: int) -> "NcPoly":
        return NcPoly(ngens, {(i,): ONE})

    @staticmethod
    def gens(ngens: int) -> list["NcPoly"]:
        return [NcPoly.gen(ngens, i) for i in range(ngens)]

    # -- structure ---------------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def coefficient(self, word: Word) -> FieldElem:
        return self.terms.get(tuple(word), ZERO)

    def degree(self):
        """Top degree, or None for the zero polynomial."""
        return max((len(w) for w in self.terms), default=None)

    def is_homogeneous(self) -> bool:
        lens = {len(w) for w in self.terms}
        return len(lens) <= 1

    # -- arithmetic --------------------------------------------------------

    def _check(self, other: "NcPoly") -> None:
        if self.ngens != other.ngens:
            raise ShapeError("generator counts differ")

    def __add__(self, other: "NcPoly") -> "NcPoly":
        self._check(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            s = out.get(w, ZERO) + c
            if s:
                out[w] = s
            elif w in out:
                del out[w]
        return NcPoly(self.ngens, out)

    def __sub__(self, other: "NcPoly") -> "NcPoly":
        return self + (-other)

    def __neg__(self) -> "NcPoly":
        return NcPoly(self.ngens, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, NcPoly):
            return nc_mul(self, other)
        return NcPoly(self.ngens, {w: c * fe(other) for w, c in self.terms.items()})

    def __rmul__(self, other):
        return NcPoly(self.ngens, {w: fe(other) * c for w, c in self.terms.items()})

    def __pow__(self, n: int) -> "NcPoly":
        out = NcPoly.one(self.ngens)
        for _ in range(n):
            out = nc_mul(out, self)
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, NcPoly):
            return NotImplemented
        return self.ngens == other.ngens and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ngens, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    # -- row conversion ----------------------------------------------------

    def to_row(self, degree: int) -> linalg.Row:
        row = {}
        for w, c in self.terms.items():
            if len(w) != degree:
                raise ShapeError(f"word {w} not of degree {degree}")
            row[word_index(w, self.ngens)] = c
        return row

    @staticmethod
    def from_row(ngens: int, degree: int, row: linalg.Row) -> "NcPoly":
        return NcPoly(ngens, {index_to_word(i, ngens, degree): c for i, c in row.items()})

    # -- rendering ---------------------------------------------------------

    def text(self, names) -> str:
        if not self.terms:
            return "0"
        parts = []
        for w in sorted(self.terms, key=lambda w: (len(w), w)):
            parts.append(f"({self.terms[w]})*{word_text(w, names)}")
        return " + ".join(parts)

    def __repr__(self) -> str:
        return self.text([f"x{i}" for i in range(self.ngens)])


def nc_mul(p: NcPoly, q: NcPoly) -> NcPoly:
    """Concatenation product in the free algebra."""
    if p.ngens != q.ngens:
        raise ShapeError("generator counts differ")
    out: dict[Word, FieldElem] = {}
    for w1, c1 in p.terms.items():
        for w2, c2 in q.terms.items():
            w = w1 + w2
            s = out.get(w, ZERO) + c1 * c2
            if s:
                out[w] = s
            elif w in out:
                del out[w]
    return NcPoly(p.ngens, out)


def comm(p: NcPoly, q: NcPoly) -> NcPoly:
    return nc_mul(p, q) - nc_mul(q, p)


def acomm(p: NcPoly, q: NcPoly) -> NcPoly:
    return nc_mul(p, q) + nc_mul(q, p)


class Subspace:
    """Subspace of one homogeneous component, held as canonical RREF rows."""

    __slots__ = ("ngens", "degree", "ncols", "pivots", "rows")

    def __init__(self, ngens: int, degree: int, pivots, rows) -> None:
        self.ngens = ngens
        self.degree = degree
        self.ncols = ngens ** degree
        self.pivots = tuple(pivots)
        self.rows = tuple(rows)

    @staticmethod
    def zero(ngens: int, degree: int) -> "Subspace":
        return Subspace(ngens, degree, (), ())

    @staticmethod
    def full(ngens: int, degree: int) -> "Subspace":
        n = ngens ** degree
        return Subspace(ngens, degree, range(n), ({i: ONE} for i in range(n)))

    @property
    def dim(self) -> int:
        return len(self.pivots)

    def reduce_row(self, row: linalg.Row) -> linalg.Row:
        return linalg.reduce_mod(row, self.pivots, self.rows)

    def reduce(self, p: NcPoly) -> NcPoly:
        return NcPoly.from_row(self.ngens, self.degree, self.reduce_row(p.to_row(self.degree)))

    def contains(self, p: NcPoly) -> bool:
        return not self.reduce_row(p.to_row(self.degree))

    def contains_row(self, row: linalg.Row) -> bool:
        return not self.reduce_row(row)

    def basis(self) -> tuple[NcPoly, ...]:
        return tuple(NcPoly.from_row(self.ngens, self.degree, r) for r in self.rows)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Subspace):
            return NotImplemented
        return (self.ngens == other.ngens and self.degree == other.degree
                and self.pivots == other.pivots and self.rows == other.rows)

    def __repr__(self) -> str:
        return f"Subspace(ngens={self.ngens}, degree={self.degree}, dim={self.dim})"


def span_rows(ngens: int, degree: int, rows) -> Subspace:
    pivots, out = linalg.rref(rows)
    return Subspace(ngens, degree, pivots, out)


def span(polys, ngens=None, degree=None) -> Subspace:
    """Canonical subspace spanned by homogeneous polynomials of one degree."""
    polys = [p for p in polys if p]
    if not polys:
        if ngens is None or degree is None:
            raise ShapeError("empty span needs explicit ngens and degree")
        return Subspace.zero(ngens, degree)
    ngens = polys[0].ngens
    degs = {p.degree() for p in polys}
    if len(degs) != 1 or not all(p.is_homogeneous() for p in polys):
        raise ShapeError("span needs homogeneous polynomials of a single degree")
    degree = degs.pop()
    return span_rows(ngens, degree, [p.to_row(degree) for p in polys])


def sum_and_intersect(a: Subspace, b: Subspace) -> tuple[Subspace, Subspace]:
    if (a.ngens, a.degree) != (b.ngens, b.degree):
        raise ShapeError("subspaces live in different components")
    total = span_rows(a.ngens, a.degree, a.rows + b.rows)
    meet_rows = linalg.intersect(a.rows, b.rows, a.ncols)
    meet = span_rows(a.ngens, a.degree, meet_rows)
    return total, meet


class MultiPoly:
    """Commutative polynomial in ``nvars`` variables.

    Each term is keyed by one flat exponent tuple of length ``nvars``.  A
    matrix entry of coefficient_matrix is (k-1)-linear in k-1 tensor factors
    of n coordinates each; there x_a of factor b is variable b*n + a.
    """

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None) -> None:
        self.nvars = nvars
        clean = {}
        for key, c in (terms or {}).items():
            c = fe(c)
            if not c:
                continue
            key = tuple(key)
            if len(key) != nvars:
                raise ShapeError(f"bad exponent key {key}")
            clean[key] = c
        self.terms = clean

    @staticmethod
    def _of(nvars: int, terms: dict) -> "MultiPoly":
        """A MultiPoly from terms already clean: exponent tuples of length
        ``nvars``, nonzero FieldElem coefficients."""
        out = object.__new__(MultiPoly)
        out.nvars, out.terms = nvars, terms
        return out

    @staticmethod
    def zero(nvars: int) -> "MultiPoly":
        return MultiPoly(nvars)

    @staticmethod
    def var(nvars: int, j: int) -> "MultiPoly":
        return MultiPoly(nvars, {tuple(int(i == j) for i in range(nvars)): ONE})

    def _check(self, other: "MultiPoly") -> None:
        if self.nvars != other.nvars:
            raise ShapeError("variable counts differ")

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, ZERO) + c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return MultiPoly._of(self.nvars, out)

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly._of(self.nvars, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, MultiPoly):
            x = fe(other)
            if not x:
                return MultiPoly.zero(self.nvars)
            return MultiPoly._of(self.nvars, {k: c * x for k, c in self.terms.items()})
        self._check(other)
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = tuple(a + b for a, b in zip(k1, k2))
                s = out.get(k, ZERO) + c1 * c2
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
        return MultiPoly._of(self.nvars, out)

    def __rmul__(self, other):
        return self * other

    def __eq__(self, other) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def evaluate(self, point) -> FieldElem:
        """Evaluate at one coordinate tuple of length ``nvars``."""
        pt = tuple(fe(c) for c in point)
        if len(pt) != self.nvars:
            raise ShapeError("evaluation point does not match shape")
        total = ZERO
        for key, c in self.terms.items():
            v = c
            for x, e in zip(pt, key):
                if e:
                    v = v * x ** e
            total = total + v
        return total

    def __repr__(self) -> str:
        return f"MultiPoly({self.nvars}, {self.terms!r})"


def substitute(p: NcPoly, images: list[NcPoly]) -> NcPoly:
    """Algebra map sending generator i to images[i]."""
    if len(images) != p.ngens:
        raise ShapeError("need one image per generator")
    ngens_out = images[0].ngens if images else p.ngens
    out = NcPoly.zero(ngens_out)
    for w, c in p.terms.items():
        v = NcPoly.one(ngens_out)
        for a in w:
            v = nc_mul(v, images[a])
        out = out + v * c
    return out


def proportional(p, q):
    """Ratio r with p == r*q, or None.  Zero against zero gives 1."""
    if not p and not q:
        return ONE
    if not p or not q:
        return None
    if p.terms.keys() != q.terms.keys():
        return None
    items = iter(sorted(q.terms))
    k0 = next(items)
    r = p.terms[k0] / q.terms[k0]
    for k in items:
        if p.terms[k] != r * q.terms[k]:
            return None
    return r
