"""Point geometry: walking a cubic by its point module, and rank-drop loci.

For the three-generator family the point scheme is a smooth plane cubic.  A
point p of it gives the right point module A/(L_p A), whose degree-2 part
names the next point: the walk is translation in the cubic's group law.
For the other families, splitting each relation word into its leading
letters and its last letter gives a matrix of multilinear forms in point
coordinates; its rank drops exactly on the point locus.
"""

from fractions import Fraction

from skverify.families import AbcParams, build_s3
from skverify.field import fe
from skverify.graded import Quotient
from skverify.pointscheme import (ORIGIN, X0, X1, Y0, Y1, group_law_record, point,
                                  point_module_step, point_text, s2_point_determinant,
                                  s4_minor_membership)

p = AbcParams.of(1, 2, 3)
tau = point(*p)  # points are primitive integer triples: here (1, 2, 3)
print("curve parameters", p, "-> translation point", point_text(tau))

algebra = Quotient(build_s3(p))
pt = ORIGIN
print("walk from the origin (each step adds tau):")
for k in range(5):
    print(f"  step {k}: {point_text(pt)}")
    pt = point_module_step(algebra, pt)

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
