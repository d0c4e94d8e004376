"""Free-algebra calculus: words, noncommutative polynomials, subspaces.

An NcPoly lives in the free algebra on ``ngens`` generators: a dict from
Words to nonzero FieldElems, with one checking constructor and one unchecked
``_of`` for results already clean.  The commutative polynomials of the point
schemes are not kept here: pointscheme holds them as linalg rows keyed by
monomial.

A Word is a tuple of 0-based generator indices; a homogeneous degree-d
component of the free algebra on n generators is identified with the span of
all n^d words, ordered degree-lexicographically (within one degree this is
plain lexicographic order, and the column index of a word is its base-n
numeral).  Subspace wraps the canonical reduced echelon basis from linalg, so
two subspaces are equal exactly when their representations coincide.
"""

from __future__ import annotations

from typing import NamedTuple

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
    """Polynomial in the free algebra on ``ngens`` generators: a dict from
    Words to nonzero FieldElems.  The product concatenates words."""

    __slots__ = ("ngens", "terms")

    def __init__(self, ngens: int, terms=None) -> None:
        clean = {}
        for word, c in (terms or {}).items():
            c = fe(c)
            if not c:
                continue
            word = tuple(word)
            if any(a < 0 or a >= ngens for a in word):
                raise ShapeError(f"word {word} has letters outside 0..{ngens - 1}")
            clean[word] = c
        self.ngens, self.terms = ngens, clean

    @staticmethod
    def _of(ngens: int, terms: dict) -> "NcPoly":
        """An NcPoly from terms already clean: words the constructor would
        accept, nonzero FieldElem coefficients."""
        out = object.__new__(NcPoly)
        out.ngens, out.terms = ngens, terms
        return out

    @staticmethod
    def zero(ngens: int) -> "NcPoly":
        return NcPoly._of(ngens, {})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check(self, other) -> None:
        if type(other) is not NcPoly:
            raise TypeError(f"cannot combine NcPoly with {type(other).__name__}")
        if self.ngens != other.ngens:
            raise ShapeError(f"NcPoly generator counts differ: {self.ngens}, {other.ngens}")

    def __add__(self, other) -> "NcPoly":
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, ZERO) + c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return NcPoly._of(self.ngens, out)

    def __sub__(self, other) -> "NcPoly":
        return self + (-other)

    def __neg__(self) -> "NcPoly":
        return NcPoly._of(self.ngens, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other) -> "NcPoly":
        if not isinstance(other, NcPoly):
            x = fe(other)
            if not x:
                return NcPoly.zero(self.ngens)
            return NcPoly._of(self.ngens, {k: c * x for k, c in self.terms.items()})
        self._check(other)
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = k1 + k2
                s = out.get(k, ZERO) + c1 * c2
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
        return NcPoly._of(self.ngens, out)

    def __rmul__(self, other) -> "NcPoly":
        return self * other

    def __eq__(self, other) -> bool:
        if type(other) is not NcPoly:
            return NotImplemented
        return self.ngens == other.ngens and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.ngens, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))

    # -- constructors ------------------------------------------------------

    @staticmethod
    def one(ngens: int) -> "NcPoly":
        return NcPoly._of(ngens, {(): ONE})

    @staticmethod
    def gen(ngens: int, i: int) -> "NcPoly":
        return NcPoly(ngens, {(i,): ONE})

    @staticmethod
    def gens(ngens: int) -> list["NcPoly"]:
        return [NcPoly.gen(ngens, i) for i in range(ngens)]

    # -- structure ---------------------------------------------------------

    def coefficient(self, word: Word) -> FieldElem:
        return self.terms.get(tuple(word), ZERO)

    def degree(self):
        """Top degree, or None for the zero polynomial."""
        return max((len(w) for w in self.terms), default=None)

    def is_homogeneous(self) -> bool:
        lens = {len(w) for w in self.terms}
        return len(lens) <= 1

    def __pow__(self, n: int) -> "NcPoly":
        out = NcPoly.one(self.ngens)
        for _ in range(n):
            out = out * self
        return out

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


def comm(p: NcPoly, q: NcPoly) -> NcPoly:
    return p * q - q * p


def acomm(p: NcPoly, q: NcPoly) -> NcPoly:
    return p * q + q * p


class Subspace(NamedTuple):
    """Subspace of one homogeneous component, held as canonical RREF rows:
    ascending pivots and one row per pivot, as ``linalg.rref`` returns them."""

    ngens: int
    degree: int
    pivots: tuple[int, ...]
    rows: tuple[linalg.Row, ...]

    @staticmethod
    def zero(ngens: int, degree: int) -> "Subspace":
        return Subspace(ngens, degree, (), ())

    @property
    def ncols(self) -> int:
        return self.ngens ** self.degree

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


def substitute(p: NcPoly, images: list[NcPoly]) -> NcPoly:
    """Algebra map sending generator i to images[i]."""
    if len(images) != p.ngens:
        raise ShapeError("need one image per generator")
    ngens_out = images[0].ngens if images else p.ngens
    out = NcPoly.zero(ngens_out)
    for w, c in p.terms.items():
        v = NcPoly.one(ngens_out)
        for a in w:
            v = v * images[a]
        out = out + v * c
    return out


def proportional(p: dict, q: dict):
    """Ratio r with p == r*q, for two term maps (keys to nonzero
    coefficients), or None.  Zero against zero gives 1."""
    if not p and not q:
        return ONE
    if not p or not q or p.keys() != q.keys():
        return None
    k0 = next(iter(q))
    r = p[k0] / q[k0]
    return r if all(p[k] == r * c for k, c in q.items()) else None
