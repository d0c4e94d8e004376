"""Growth of the three graded families, degree by degree.

Each family is presented by homogeneous relations; the engine computes the
graded pieces of the relation ideal exactly and subtracts.  Generic
parameters reproduce polynomial-ring growth, which is the first sanity
check anyone should run.
"""

from skverify.families import (AbcParams, SextupleParams, alpha_from_abc,
                               build_s2, build_s3, build_s4)
from skverify.graded import Quotient

p = AbcParams.of(1, 2, 3)

print("three generators, quadratic relations, parameters", p)
dims = Quotient(build_s3(p)).hilbert_dims(6)
print("  computed:", dims)
print("  binomial:", tuple((m + 1) * (m + 2) // 2 for m in range(7)))

print()
print("two generators, cubic relations, same parameters")
dims = Quotient(build_s2(p)).hilbert_dims(6)
print("  computed:      ", dims)
print("  quarter-square:", tuple((m + 2) ** 2 // 4 for m in range(7)))

print()
t = alpha_from_abc(p)
print("four generators, six quadratic relations, product coordinates", t)
s = SextupleParams.from_alpha(t)
dims = Quotient(build_s4(s)).hilbert_dims(5)
print("  computed:", dims)
print("  binomial:", tuple((m + 1) * (m + 2) * (m + 3) // 6 for m in range(6)))

print()
print("forcing the four generators to commute collapses the growth:")
print("  abelianized:", Quotient(build_s4(s).abelianized()).hilbert_dims(4))
print("  (only the powers of the generators survive)")
