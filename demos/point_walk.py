"""Point geometry: walking a cubic by its group law, and rank-drop loci.

Splitting each relation word of a family into its leading letters and its
last letter gives a matrix of multilinear forms in point coordinates; its
rank drops exactly on the point locus.  For the
three-generator family that locus is a smooth plane cubic and the walk
"next point" is translation in its group law.
"""

from fractions import Fraction

from skverify.families import AbcParams
from skverify.field import fe
from skverify.pointscheme import (ORIGIN, X0, X1, Y0, Y1, group_law_record, point,
                                  point_text, s2_point_determinant, s3_next_point,
                                  s4_minor_membership)

p = AbcParams.of(1, 2, 3)
tau = point(*p)  # points are primitive integer triples: here (1, 2, 3)
print("curve parameters", p, "-> translation point", point_text(tau))

pt = ORIGIN
print("walk from the origin (each step adds tau):")
for k in range(5):
    print(f"  step {k}: {point_text(pt)}")
    pt = s3_next_point(p, pt)

rec = group_law_record(p)
print("group law axioms on ten multiples:",
      "all pass" if rec["pass"] else "FAILED")

print()
rec = s2_point_determinant(p)
print("two-generator family: 2x2 matrix of bilinear forms")
print("  determinant over the reference biquadratic, ratio:", rec["ratio_to_reference"])
rec0 = s2_point_determinant(AbcParams.of(0, 2, 3))
print("  at a = 0 it is a multiple of x0 y0 x1 y1, a product of lines:",
      list(rec0["determinant"]) == [X0 + Y0 + X1 + Y1])

print()
lam = (fe(1), fe(Fraction(-7, 4)), fe(1))
rec = s4_minor_membership(*lam)
print("four-generator family at a square-root parameter triple:")
print("  6x4 matrix of linear forms,", len(rec["memberships"]), "maximal minors")
print("  all lie in the span of the two reference quadrics:",
      rec["all_members"])
print("  perturbing the triple breaks", rec["perturbed_failures"],
      "of them, so the containment is not an accident")
