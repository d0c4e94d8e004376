"""Free-algebra calculus: words, noncommutative polynomials, subspaces.

NcPoly and MultiPoly share one term-dict body: a size and a dict from keys to
nonzero FieldElems, with one checking constructor, one unchecked ``_of`` for
results already clean, and one copy of the ring arithmetic.  The two differ in
their keys.  An NcPoly lives in the free algebra on ``ngens`` generators and
is keyed by Words.  A MultiPoly is commutative in ``nvars`` variables and is
keyed by flat exponent tuples; these are the entries of the point-scheme
coefficient matrices, their determinants and minors, and the quadrics those
minors are checked against.

A Word is a tuple of 0-based generator indices; a homogeneous degree-d
component of the free algebra on n generators is identified with the span of
all n^d words, ordered degree-lexicographically (within one degree this is
plain lexicographic order, and the column index of a word is its base-n
numeral).  Subspace wraps the canonical reduced echelon basis from linalg, so
two subspaces are equal exactly when their representations coincide.
"""

from __future__ import annotations

from operator import add
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


class _Terms:
    """A dict from keys to nonzero FieldElems, over one size.

    A subclass says how a key is checked (``_check_key``) and how two keys
    multiply (``_join``); the ring arithmetic here is shared.
    """

    __slots__ = ("size", "terms")

    def __init__(self, size: int, terms=None) -> None:
        clean = {}
        for key, c in (terms or {}).items():
            c = fe(c)
            if not c:
                continue
            key = tuple(key)
            self._check_key(key, size)
            clean[key] = c
        self.size, self.terms = size, clean

    @classmethod
    def _of(cls, size: int, terms: dict):
        """An instance from terms already clean: keys the constructor would
        accept, nonzero FieldElem coefficients."""
        out = object.__new__(cls)
        out.size, out.terms = size, terms
        return out

    @classmethod
    def zero(cls, size: int):
        return cls._of(size, {})

    def __bool__(self) -> bool:
        return bool(self.terms)

    def _check(self, other) -> None:
        if type(other) is not type(self):
            raise TypeError(f"cannot combine {type(self).__name__} with {type(other).__name__}")
        if self.size != other.size:
            raise ShapeError(f"{type(self).__name__} sizes differ: {self.size}, {other.size}")

    def __add__(self, other):
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            s = out.get(k, ZERO) + c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return self._of(self.size, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._of(self.size, {k: -c for k, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, _Terms):
            x = fe(other)
            if not x:
                return self.zero(self.size)
            return self._of(self.size, {k: c * x for k, c in self.terms.items()})
        self._check(other)
        join = self._join
        out: dict = {}
        for k1, c1 in self.terms.items():
            for k2, c2 in other.terms.items():
                k = join(k1, k2)
                s = out.get(k, ZERO) + c1 * c2
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
        return self._of(self.size, out)

    def __rmul__(self, other):
        return self * other

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self.size == other.size and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.size, tuple(sorted(self.terms.items(), key=lambda t: t[0]))))


class NcPoly(_Terms):
    """Polynomial in the free algebra on ``ngens`` generators, keyed by Words;
    the product concatenates words."""

    __slots__ = ()

    _join = staticmethod(add)

    @staticmethod
    def _check_key(word: Word, ngens: int) -> None:
        if any(a < 0 or a >= ngens for a in word):
            raise ShapeError(f"word {word} has letters outside 0..{ngens - 1}")

    @property
    def ngens(self) -> int:
        return self.size

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
        out = NcPoly.one(self.size)
        for _ in range(n):
            out = out * self
        return out

    # -- row conversion ----------------------------------------------------

    def to_row(self, degree: int) -> linalg.Row:
        row = {}
        for w, c in self.terms.items():
            if len(w) != degree:
                raise ShapeError(f"word {w} not of degree {degree}")
            row[word_index(w, self.size)] = c
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
        return self.text([f"x{i}" for i in range(self.size)])


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


class MultiPoly(_Terms):
    """Commutative polynomial in ``nvars`` variables.

    Each term is keyed by one flat exponent tuple of length ``nvars``, and the
    product adds exponents.  A matrix entry of coefficient_matrix is
    (k-1)-linear in k-1 tensor factors of n coordinates each; there x_a of
    factor b is variable b*n + a.
    """

    __slots__ = ()

    @staticmethod
    def _join(k1: tuple, k2: tuple) -> tuple:
        return tuple(map(add, k1, k2))

    @staticmethod
    def _check_key(key: tuple, nvars: int) -> None:
        if len(key) != nvars:
            raise ShapeError(f"bad exponent key {key}")

    @property
    def nvars(self) -> int:
        return self.size

    @staticmethod
    def var(nvars: int, j: int) -> "MultiPoly":
        return MultiPoly(nvars, {tuple(int(i == j) for i in range(nvars)): ONE})

    def evaluate(self, point) -> FieldElem:
        """Evaluate at one coordinate tuple of length ``nvars``."""
        pt = tuple(fe(c) for c in point)
        if len(pt) != self.size:
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
        return f"MultiPoly({self.size}, {self.terms!r})"


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
