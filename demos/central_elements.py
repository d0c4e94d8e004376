"""Central elements found by exact commutator linear algebra.

Degree 3 for the three-generator family, degree 4 for the two-generator
one.  Centrality is never assumed: the centralizer slice is computed as a
nullspace of the commutator map, and each closed-form element is central
when its residue lies in that slice.
"""

from skverify.families import AbcParams, build_s2, build_s3
from skverify.graded import Quotient
from skverify.pointscheme import verify_c3_description
from skverify.veronese import verify_c4_central

p = AbcParams.of(1, 2, 3)

print("parameters", p)
q = Quotient(build_s3(p))
rec = verify_c3_description(p, q)
print("degree-3 centralizer dimension:", rec["centralizer_dim"])
print("coefficients in the invariant cubic basis:",
      "(" + ", ".join(str(c) for c in rec["coefficient_triple"]) + ")")
print("  (that triple is the third intersection of the tangent line")
print("   at the translation point with its curve)")
print("tangent combination is central, ratio", rec["ratio"], "to the slice basis:", rec["pass"])

c3 = q.centralizer_slice(3).basis()[0]
print()
print("quotient by the central cubic grows like a plane curve:")
print("  ", Quotient(q.p.adjoin([c3])).hilbert_dims(6))

print()
rec = verify_c4_central(p, Quotient(build_s2(p)))
print("two-generator family, degree-4 centralizer dim:", rec["centralizer_dim"])
print("closed-form quartic lies in it, so it is central:", rec["central"])
print("invariant under the sign action:", rec["quartic_invariant"])
