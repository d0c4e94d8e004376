"""The squaring map from the four-generator family onto the two-generator one.

Send the four generators to x^2+y^2, x^2-y^2, xy+yx, xy-yx.  The kernel of
the induced map on quadrics is computed from scratch: one linear solve in it
per commutator/anticommutator relation gives that relation's coefficient,
and the six relations and a leftover diagonal one span it.  The sign
characters are read from the group actions.  Nothing here is typed in from a
table; the closed forms are only compared at the end.
"""

from skverify.families import AbcParams
from skverify.veronese import (build_veronese, extract_c4,
                               verify_central_pair, verify_quotient_map)

p = AbcParams.of(1, 2, 3)
print("parameters", p)

vm = build_veronese(p)
print("kernel of the degree-2 pullback: dim", len(vm.kernel_rows))
print("pair coefficients recovered from the kernel:", vm.sextuple)
print("product coordinates:", vm.sextuple.alpha())

rec = verify_quotient_map(vm)
print()
print("all seven kernel elements land in the target relation ideal:",
      rec["relations_in_ideal"])
print("sign characters of the kernel basis:", rec["element_characters"])
print("images transform with matching signs:", rec["image_equivariance"])
print()
names = ("v00", "v10", "v01", "v11")
print("first central quadric: ", vm.extra.text(names))
print("second central quadric:", vm.omega2.text(names))
rec = verify_central_pair(vm)
print("both central, independent, spanning the centralizer:",
      rec["pass"], "(dim", str(rec["centralizer_dim"]) + ")")

rec = extract_c4(vm)
print()
print("pushing the pair through the map:")
print("  first quadric maps to zero mod relations:", rec["omega1_maps_to_zero"])
print("  second maps onto the central quartic, scalar mu =", rec["mu"])
print("  (mu depends on the chosen normalizations; it is reported, not pinned)")
