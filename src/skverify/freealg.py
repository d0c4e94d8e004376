"""Free-algebra calculus: words, homogeneous polynomials, subspaces.

The degree-d component of the free algebra on n generators is identified
with the span of its n^d words in lexicographic order, so the column index of
a word is its base-n numeral.  A Word, a tuple of 0-based generator indices,
comes only from index_to_word, for rendering and for reading letters.

An NcPoly is one element of such a component: ``ngens``, ``degree`` and a
linalg row keyed by word index, the same row a Subspace holds.  It has one
checking constructor and one unchecked ``_of`` for results already clean.
Adding two degrees raises ShapeError, so every NcPoly is homogeneous.  The
commutative polynomials of the point schemes are not kept here: pointscheme
holds them as linalg rows keyed by monomial.

Subspace wraps the canonical reduced echelon basis from linalg, so two
subspaces are equal exactly when their representations coincide.
"""

from __future__ import annotations

from typing import NamedTuple

from . import linalg
from .errors import ShapeError
from .field import ONE, ZERO, fe

Word = tuple[int, ...]


def index_to_word(i: int, ngens: int, degree: int) -> Word:
    out = []
    for _ in range(degree):
        i, r = divmod(i, ngens)
        out.append(r)
    return tuple(reversed(out))


def word_text(word: Word, names) -> str:
    return "*".join(names[a] for a in word) if word else "1"


class NcPoly:
    """Homogeneous element of the free algebra on ``ngens`` generators: a
    degree and a row from word index to nonzero FieldElem.  The product
    concatenates words, so it multiplies indices i*n^e + j."""

    __slots__ = ("ngens", "degree", "row")

    def __init__(self, ngens: int, degree: int, row=None) -> None:
        size = ngens ** degree
        clean = {}
        for i, c in (row or {}).items():
            if not 0 <= i < size:
                raise ShapeError(f"word index {i} outside 0..{size - 1}")
            c = fe(c)
            if c:
                clean[i] = c
        self.ngens, self.degree, self.row = ngens, degree, clean

    @staticmethod
    def _of(ngens: int, degree: int, row: linalg.Row) -> "NcPoly":
        """An NcPoly from a row already clean: indices the constructor would
        accept, nonzero FieldElem values."""
        out = object.__new__(NcPoly)
        out.ngens, out.degree, out.row = ngens, degree, row
        return out

    @staticmethod
    def zero(ngens: int, degree: int) -> "NcPoly":
        return NcPoly._of(ngens, degree, {})

    @staticmethod
    def one(ngens: int) -> "NcPoly":
        return NcPoly._of(ngens, 0, {0: ONE})

    @staticmethod
    def gens(ngens: int) -> list["NcPoly"]:
        return [NcPoly._of(ngens, 1, {i: ONE}) for i in range(ngens)]

    def __bool__(self) -> bool:
        return bool(self.row)

    def _check(self, other) -> None:
        if type(other) is not NcPoly:
            raise TypeError(f"cannot combine NcPoly with {type(other).__name__}")
        if self.ngens != other.ngens:
            raise ShapeError(f"NcPoly generator counts differ: {self.ngens}, {other.ngens}")

    def __add__(self, other) -> "NcPoly":
        self._check(other)
        if self.degree != other.degree:
            raise ShapeError(f"NcPoly degrees differ: {self.degree}, {other.degree}")
        out = dict(self.row)
        for k, c in other.row.items():
            s = out.get(k, ZERO) + c
            if s:
                out[k] = s
            elif k in out:
                del out[k]
        return NcPoly._of(self.ngens, self.degree, out)

    def __sub__(self, other) -> "NcPoly":
        return self + (-other)

    def __neg__(self) -> "NcPoly":
        return NcPoly._of(self.ngens, self.degree, {k: -c for k, c in self.row.items()})

    def __mul__(self, other) -> "NcPoly":
        if not isinstance(other, NcPoly):
            x = fe(other)
            if not x:
                return NcPoly.zero(self.ngens, self.degree)
            return NcPoly._of(self.ngens, self.degree, {k: c * x for k, c in self.row.items()})
        self._check(other)
        shift = self.ngens ** other.degree
        out: dict = {}
        for k1, c1 in self.row.items():
            for k2, c2 in other.row.items():
                k = k1 * shift + k2
                s = out.get(k, ZERO) + c1 * c2
                if s:
                    out[k] = s
                elif k in out:
                    del out[k]
        return NcPoly._of(self.ngens, self.degree + other.degree, out)

    def __rmul__(self, other) -> "NcPoly":
        return self * other

    def __pow__(self, n: int) -> "NcPoly":
        out = NcPoly.one(self.ngens)
        for _ in range(n):
            out = out * self
        return out

    def __eq__(self, other) -> bool:
        if type(other) is not NcPoly:
            return NotImplemented
        return (self.ngens, self.degree, self.row) == (other.ngens, other.degree, other.row)

    def __hash__(self) -> int:
        return hash((self.ngens, self.degree, frozenset(self.row.items())))

    def text(self, names) -> str:
        if not self.row:
            return "0"
        return " + ".join(f"({c})*{word_text(index_to_word(i, self.ngens, self.degree), names)}"
                          for i, c in sorted(self.row.items()))

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

    def contains(self, row: linalg.Row) -> bool:
        return not self.reduce_row(row)

    def meet(self, other: "Subspace") -> "Subspace":
        """The intersection: the combinations sum x_i a_i of this basis whose
        residue modulo ``other`` vanishes, x running over a kernel basis."""
        if (self.ngens, self.degree) != (other.ngens, other.degree):
            raise ShapeError("subspaces live in different components")
        kernel = linalg.column_kernel([other.reduce_row(a) for a in self.rows])
        basis, zero = self.basis(), NcPoly.zero(self.ngens, self.degree)
        return span_rows(self.ngens, self.degree,
                         [sum((basis[i] * c for i, c in x.items()), zero).row for x in kernel])

    def basis(self) -> tuple[NcPoly, ...]:
        return tuple(NcPoly._of(self.ngens, self.degree, r) for r in self.rows)

    def __repr__(self) -> str:
        return f"Subspace(ngens={self.ngens}, degree={self.degree}, dim={self.dim})"


def span_rows(ngens: int, degree: int, rows) -> Subspace:
    pivots, out = linalg.rref(rows)
    return Subspace(ngens, degree, pivots, out)


def span(polys, ngens=None, degree=None) -> Subspace:
    """Canonical subspace spanned by polynomials of one degree."""
    polys = [p for p in polys if p]
    if not polys:
        if ngens is None or degree is None:
            raise ShapeError("empty span needs explicit ngens and degree")
        return Subspace.zero(ngens, degree)
    ngens, degree = polys[0].ngens, polys[0].degree
    if any((p.ngens, p.degree) != (ngens, degree) for p in polys):
        raise ShapeError("span needs polynomials of a single degree")
    return span_rows(ngens, degree, [p.row for p in polys])


def substitute(p: NcPoly, images: list[NcPoly]) -> NcPoly:
    """Algebra map sending generator i to images[i], all of one degree."""
    degrees = {g.degree for g in images}
    if len(images) != p.ngens or len(degrees) != 1:
        raise ShapeError("need one image per generator, all of one degree")
    n = images[0].ngens
    out = NcPoly.zero(n, p.degree * degrees.pop())
    for i, c in p.row.items():
        v = NcPoly.one(n)
        for a in index_to_word(i, p.ngens, p.degree):
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
