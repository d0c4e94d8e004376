"""Finite Heisenberg groups of order n^3 and their exact character theory.

A group is its order n: the group law and the classes are functions of n
and an element.  Elements are normal forms (i, j, k) standing for
e1^i e2^j z^k with z the commutator [e1, e2], central of order n; the
identity is (0, 0, 0).  From e2 e1 = e1 e2 z^-1 the product rule is

    (i1,j1,k1)(i2,j2,k2) = (i1+i2, j1+j2, k1+k2 - j1*i2)   (mod n).

``inv`` and ``elements`` are the tests' brute-force oracle.

Conjugating by e1 or e2 moves k by a multiple of i or j, so the class of
(i, j, k) is {(i, j, k + t*d)} with d = gcd(i, j, n): n/d elements, with
(i, j, k mod d) as its representative (``class_of``).  Summing d over all
(i, j) gives 5, 11 and 22 classes (``classes``) for n = 2, 3, 4, one per
irreducible.

Every representation is given and stored in one form: the monomial matrices
of the generators e1 and e2 over Q(zeta_12), column j as (target row, nonzero
scalar), so products, powers and traces cost O(dim) and every trace and
inner product is exact.  A character is a class function, kept as its values
on the class representatives, so traces, powers and inner products run over
the classes rather than the n^3 elements.  Characters decide
decompositions: decompose reads n and the degree from the character itself,
and multiplicities that fail to be nonnegative integers raise, since that
can only mean the input matrices violate the presentation.

A tensor power acts monomially on words, and e1 and e2 generate the group,
so its fixed vectors are the joint kernel of e1 - 1 and e2 - 1
(``invariant_subspace``).
"""

from __future__ import annotations

from functools import lru_cache
from math import gcd, lcm

from . import linalg
from .errors import NotASubrepError, RepresentationInvalidError, ShapeError
from .field import ONE, ZERO, FieldElem, fe, mul_i4, ratio, root_of_unity
from .freealg import Subspace, index_to_word, proportional, span_rows

# Column j of a monomial matrix as (target row, nonzero scalar).
Monomial = tuple[tuple[int, FieldElem], ...]


def _mono_mul(a: Monomial, b: Monomial) -> Monomial:
    """The product a*b: column j of b names e_r and a scalar, column r of a does the rest."""
    return tuple((a[r][0], a[r][1] * s) for r, s in b)


def _mono_powers(a: Monomial, n: int) -> tuple[Monomial, ...]:
    """a^0, a^1, ..., a^n."""
    out = [tuple((j, ONE) for j in range(len(a)))]
    for _ in range(n):
        out.append(_mono_mul(out[-1], a))
    return tuple(out)


def mul(n: int, g, h):
    return ((g[0] + h[0]) % n, (g[1] + h[1]) % n, (g[2] + h[2] - g[1] * h[0]) % n)


def inv(n: int, g):
    """The h with mul(n, g, h) = (0, 0, 0)."""
    i, j, k = g
    return ((-i) % n, (-j) % n, (-k - j * i) % n)


def elements(n: int):
    return [(i, j, k) for i in range(n) for j in range(n) for k in range(n)]


def class_of(n: int, g):
    """The representative (i, j, k mod gcd(i, j, n)) of the class of g."""
    i, j, k = g
    return (i, j, k % gcd(i, j, n))


@lru_cache(maxsize=None)
def classes(n: int) -> tuple[tuple[tuple[int, int, int], int], ...]:
    """(representative, size) for every conjugacy class, in element order."""
    return tuple(((i, j, k), n // d) for i in range(n) for j in range(n)
                 for d in (gcd(i, j, n),) for k in range(d))


class Character:
    """Exact class function on the Heisenberg group of order n^3, kept as its
    nonzero values on class representatives.

    ``values`` may name any elements; two different values on one class
    raise RepresentationInvalidError, since no class function has them.
    """

    def __init__(self, n: int, values: dict) -> None:
        self.n = n
        on_classes: dict = {}
        for g, v in values.items():
            c, x = class_of(n, g), fe(v)
            if on_classes.setdefault(c, x) != x:
                raise RepresentationInvalidError(
                    f"{x} and {on_classes[c]} on one class of H{n}")
        self.values = {c: x for c, x in on_classes.items() if x}

    def __call__(self, g) -> FieldElem:
        return self.values.get(class_of(self.n, g), ZERO)

    def inner(self, other: "Character") -> FieldElem:
        """<self, other> = |G|^-1 sum |C| chi(C) conj(psi(C)) over the classes C
        in both supports, summed as integer numerators and divided once."""
        terms = [(size, mul_i4(a.num, b.conj().num), a.den * b.den)
                 for c, size in classes(self.n)
                 if (a := self.values.get(c)) and (b := other.values.get(c))]
        den = lcm(*(d for _, _, d in terms))
        acc = tuple(sum(size * (den // d) * num[t] for size, num, d in terms) for t in range(4))
        return ratio(acc, den * self.n ** 3)

    def __mul__(self, other: "Character") -> "Character":
        return Character(self.n, {c: v * other(c) for c, v in self.values.items()})

    def __pow__(self, d: int) -> "Character":
        return Character(self.n, {c: self(c) ** d for c, _ in classes(self.n)})

    def __eq__(self, other):
        if not isinstance(other, Character):
            return NotImplemented
        return self.n == other.n and self.values == other.values


class GroupRep:
    """Representation given by the monomial matrices of e1 and e2.

    The matrices act on column vectors: column j of e1 is the pair (r, s)
    with e1(basis j) = s * basis r.  A row outside the dimension, a zero
    scalar or generators of different sizes are rejected, and so is any
    violation of the defining relations e1^n = e2^n = 1, z = [e1,e2]
    central with z^n = 1.  The powers 0..n of e1, e2 and z are kept, so the
    relations read them and matrix((i, j, k)) is two monomial products.
    """

    def __init__(self, n: int, e1: Monomial, e2: Monomial, label: str) -> None:
        self.n = n
        self.e1 = tuple((r, fe(s)) for r, s in e1)
        self.e2 = tuple((r, fe(s)) for r, s in e2)
        self.label = label
        self.dim = len(self.e1)
        if len(self.e2) != self.dim or not all(0 <= r < self.dim and s
                                               for r, s in self.e1 + self.e2):
            raise RepresentationInvalidError(
                f"{label}: e1 and e2 are not monomial matrices of one size")
        p1, p2 = _mono_powers(self.e1, n), _mono_powers(self.e2, n)
        if p1[n] != p1[0] or p2[n] != p2[0]:
            raise RepresentationInvalidError(f"{label}: generator order is not {n}")
        z = _mono_mul(_mono_mul(self.e1, self.e2), _mono_mul(p1[n - 1], p2[n - 1]))
        pz = _mono_powers(z, n)
        if pz[n] != pz[0]:
            raise RepresentationInvalidError(f"{label}: commutator order does not divide {n}")
        if (_mono_mul(z, self.e1) != _mono_mul(self.e1, z)
                or _mono_mul(z, self.e2) != _mono_mul(self.e2, z)):
            raise RepresentationInvalidError(f"{label}: commutator is not central")
        self._powers = (p1, p2, pz)
        self._matrices: dict = {}
        self._character: Character | None = None

    def matrix(self, g) -> Monomial:
        m = self._matrices.get(g)
        if m is None:
            p1, p2, pz = self._powers
            i, j, k = g
            m = _mono_mul(p1[i], _mono_mul(p2[j], pz[k]))
            self._matrices[g] = m
        return m

    def character(self) -> Character:
        """Traces on the class representatives, computed on the first call and
        kept; the representation is immutable."""
        if self._character is None:
            def trace(m: Monomial) -> FieldElem:
                return sum((s for j, (r, s) in enumerate(m) if r == j), ZERO)
            self._character = Character(
                self.n, {c: trace(self.matrix(c)) for c, _ in classes(self.n)})
        return self._character

    def __repr__(self):
        return f"GroupRep({self.label}, dim={self.dim})"


class TensorPowerRep:
    """d-th tensor power of a representation, acting on degree-d word vectors."""

    def __init__(self, base: GroupRep, degree: int) -> None:
        if degree < 0:
            raise ShapeError("negative tensor power")
        self.base = base
        self.degree = degree
        self.dim = base.dim ** degree

    def character(self) -> Character:
        return self.base.character() ** self.degree

    def act_row(self, g, row) -> dict:
        """Apply g to a sparse vector over degree-d word columns.

        g sends each word to one word times a scalar, and distinct words to
        distinct words, so no two input columns meet in the output.
        """
        m = self.base.matrix(g)
        dim = self.base.dim
        out: dict = {}
        for col, coeff in row.items():
            idx = 0
            for a in index_to_word(col, dim, self.degree):
                r, s = m[a]
                idx = idx * dim + r
                coeff = coeff * s
            if coeff:
                out[idx] = coeff
        return out

    def eigenvalue(self, g, row):
        """The scalar s with g . row = s * row; None if there is none or row is zero."""
        return proportional(self.act_row(g, row), row) if row else None

    def __repr__(self):
        return f"TensorPowerRep({self.base.label}, degree={self.degree})"


# -- the irreducible representations ---------------------------------------

@lru_cache(maxsize=None)
def irrep_table(n: int) -> tuple[GroupRep, ...]:
    """All irreducibles of the order-n^3 Heisenberg group, for n in {2, 3, 4}.

    n=2: four characters and one 2-dim (4*1+4 = 8).
    n=3: nine characters and two 3-dim (9*1+9+9 = 27).
    n=4: sixteen characters, four 2-dim through the order-8 quotient, and two
         faithful 4-dim (16*1+4*4+16+16 = 64).
    """
    if n not in (2, 3, 4):
        raise ShapeError(f"no irreducible table for n={n}")
    om = root_of_unity(n)
    reps = []
    for i in range(n):
        for j in range(n):
            reps.append(GroupRep(n, ((0, om ** i),), ((0, om ** j),),
                                 f"H{n}:chi_{{{i},{j}}}"))
    shift = tuple(((c - 1) % n, ONE) for c in range(n))     # x_k -> x_{k-1}
    if n == 2:
        reps.append(GroupRep(n, shift, ((0, ONE), (1, -ONE)), "H2:V"))
    elif n == 3:
        reps.append(GroupRep(n, shift, tuple(enumerate((ONE, om, om ** 2))), "H3:V1"))
        reps.append(GroupRep(n, shift, tuple(enumerate((ONE, om ** 2, om))), "H3:V2"))
    else:
        ii = root_of_unity(4)
        for i in range(2):
            for j in range(2):
                reps.append(GroupRep(n, ((1, ii ** i), (0, ii ** i)),
                                     ((0, ii ** j), (1, -ii ** j)), f"H4:V_{{{i},{j}}}"))
        reps.append(GroupRep(n, shift, tuple(enumerate(ii ** k for k in range(4))), "H4:V1"))
        reps.append(GroupRep(n, shift, tuple(enumerate((-ii) ** k for k in range(4))), "H4:V3"))
    return tuple(reps)


def decompose(chi: Character) -> dict[str, int]:
    """Multiplicities of ``chi`` against the irreducible table of its group.

    They must be nonnegative integers whose dimensions add up to chi(1).
    """
    out: dict[str, int] = {}
    dim_sum = 0
    for irr in irrep_table(chi.n):
        m = chi.inner(irr.character())
        if not m.is_integer() or m.num[0] < 0:
            raise RepresentationInvalidError(
                f"multiplicity of {irr.label} is {m}, not a nonnegative integer")
        mult = m.num[0]
        if mult:
            out[irr.label] = mult
            dim_sum += mult * irr.dim
    degree = chi((0, 0, 0))
    if dim_sum != degree:
        raise RepresentationInvalidError(
            f"multiplicities account for dimension {dim_sum}, expected {degree}")
    return out


def antisymmetric_character(rep: GroupRep) -> Character:
    """Character of the exterior square: (chi(g)^2 - chi(g^2)) / 2 on each class."""
    chi, n = rep.character(), rep.n
    return Character(n, {c: (chi(c) ** 2 - chi(mul(n, c, c))) / 2 for c, _ in classes(n)})


def is_subrep(s: Subspace, tp: TensorPowerRep) -> bool:
    """Whether a subspace of the degree-d component is stable under the action.

    The action is invertible, so s is stable exactly when each generator
    sends each basis row of s back into s.
    """
    if s.ncols != tp.dim:
        raise ShapeError("subspace does not match the representation space")
    return all(s.contains(tp.act_row(g, r))
               for g in ((1, 0, 0), (0, 1, 0)) for r in s.rows)


def invariant_subspace(tp: TensorPowerRep, s: Subspace | None = None) -> Subspace:
    """Fixed vectors of the generators e1 and e2: the kernel of e1 - 1 stacked
    on e2 - 1, with one equation per (generator, word).

    A generator sends word c to v * word r, so column c holds v at r and -1
    at c.  With ``s`` given, which must be stable, returns s meet the fixed
    vectors; otherwise the fixed vectors of the full degree-d component.
    """
    if s is not None and not is_subrep(s, tp):
        raise NotASubrepError("subspace is not stable under the group")
    cols = []
    for c in range(tp.dim):
        col: dict = {}
        for gen, g in enumerate(((1, 0, 0), (0, 1, 0))):
            ((r, v),) = tp.act_row(g, {c: ONE}).items()
            col[gen, r] = v
            col[gen, c] = col.get((gen, c), ZERO) - ONE
        cols.append(col)
    inv = span_rows(tp.base.dim, tp.degree, linalg.column_kernel(cols))
    return inv if s is None else inv.meet(s)


def twist_equivalence_table() -> dict[tuple[tuple[int, int], tuple[int, int]], bool]:
    """Which character twists of the 2-dim rep of the order-64 group coincide.

    Entry ((i,j),(i',j')) is True iff V (x) chi_{i,j} and V (x) chi_{i',j'}
    are equivalent; computed by character equality and cross-checked against
    the congruence rule (i-i', j-j') in 2Z4 x 2Z4.
    """
    table = irrep_table(4)
    base = next(r for r in table if r.label == "H4:V_{0,0}")
    chars = {(i, j): next(r for r in table if r.label == f"H4:chi_{{{i},{j}}}").character()
             for i in range(4) for j in range(4)}
    chi = base.character()
    twisted = {(i, j): chi * chars[(i, j)] for i in range(4) for j in range(4)}
    out = {}
    for a in twisted:
        for b in twisted:
            same = twisted[a] == twisted[b]
            rule = (a[0] - b[0]) % 2 == 0 and (a[1] - b[1]) % 2 == 0
            if same != rule:
                raise RepresentationInvalidError(
                    f"twist equivalence of {a},{b} disagrees with the congruence rule")
            out[(a, b)] = same
    return out


# -- generator-space actions used by the algebra families ------------------

def h2_gen_rep() -> GroupRep:
    """Order-8 group acting on the 2-generator family: swap and sign."""
    return next(r for r in irrep_table(2) if r.label == "H2:V")


def h3_gen_rep() -> GroupRep:
    """Order-27 group on the 3-generator family: cycle and diag(1, w, w^2)."""
    return next(r for r in irrep_table(3) if r.label == "H3:V1")


def h4_gen_rep() -> GroupRep:
    """Order-64 group on the 4-generator family, coordinate basis."""
    return next(r for r in irrep_table(4) if r.label == "H4:V1")


def h4_pm_basis() -> tuple[linalg.Row, ...]:
    """Sparse columns x0+x2, x0-x2, x1+x3, x1-x3: e1^2 and e2^2 act on each by a sign."""
    return ({0: ONE, 2: ONE}, {0: ONE, 2: -ONE}, {1: ONE, 3: ONE}, {1: ONE, 3: -ONE})
