"""Character arithmetic for the finite Heisenberg groups of order n^3.

The engine builds every irreducible exactly over the cyclotomic field, so
inner products of characters are integers, not floats, and decompositions
either come out right or raise.
"""

from skverify.freealg import span
from skverify.heisenberg import (TensorPowerRep, antisymmetric_character, decompose,
                                 h3_gen_rep, h4_gen_rep, invariant_subspace,
                                 irrep_table, twist_equivalence_table)
from skverify.pointscheme import invariant_cubic_basis

for n in (2, 3, 4):
    table = irrep_table(n)
    print(f"group of order {n ** 3}: {len(table)} irreducibles,",
          f"squared dimensions sum to {sum(r.dim ** 2 for r in table)}")

print()
print("tensor square of the standard 3-dim representation:")
print(" ", decompose(TensorPowerRep(h3_gen_rep(), 2).character()))

print("tensor square of the standard 4-dim representation:")
print(" ", decompose(TensorPowerRep(h4_gen_rep(), 2).character()))

wedge = decompose(antisymmetric_character(h4_gen_rep()))
print("antisymmetric square of the 4-dim representation:")
print(" ", wedge)

print()
inv = invariant_subspace(TensorPowerRep(h3_gen_rep(), 3))
print("invariant cubics in three noncommuting variables: dim", inv.dim)
names = "xyz"
for b in invariant_cubic_basis():
    print("   ", b.text(names))
print("span check:", span(invariant_cubic_basis(), 3, 3).dim == inv.dim)

print()
table = twist_equivalence_table()
eq = sum(1 for v in table.values() if v)
print(f"twisting the 4-dim representation by the {16} one-dimensional")
print(f"characters: {eq} of {len(table)} ordered pairs are equivalent,")
print("exactly the pairs whose labels agree mod 2 in both slots")
