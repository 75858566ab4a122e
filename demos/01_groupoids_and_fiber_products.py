"""Finite groupoids, deloopings, and 2-categorical fiber products.

The fiber product of classifying groupoids */H x_{*/G} */K decomposes into
one component per double coset H\\G/K, with automorphism groups the
stabilizers H ∩ gKg^{-1}.  This script builds the S3 example and watches
the decomposition appear.
"""

from sixff import presets
from sixff.groupoid import (
    delooping, delooping_hom, iso_comma_pullback, pi0_and_aut, skeletalize,
)

S3 = presets.group("S3")
print("S3 has %d elements" % len(S3))

C2 = S3.subgroup(S3.generated_subgroup([(1, 0, 2)]), name="C2")
BS3, BC2 = delooping(S3), delooping(C2)
incl = delooping_hom({g: g for g in C2.elements}, BC2, BS3)

print("\nfiber product */C2 x_{*/S3} */C2:")
ic = iso_comma_pullback(incl, incl)
print("  objects: %d (one per group element)" % len(ic.grpd.objects))
for rep, auts, _table in pi0_and_aut(ic.grpd):
    print("  component of %-30s |Aut| = %d" % (rep[1][0], len(auts)))
print("two components with automorphism orders 2 and 1: the two double")
print("cosets C2\\S3/C2 of sizes 2 and 4, exactly as the stabilizers say.")

print("\nskeletalizing the fiber product:")
skel, incl_f, retr, eta = skeletalize(ic.grpd)
print("  skeleton objects: %d" % len(skel.objects))
print("  round trip is naturally isomorphic to the identity: %s"
      % (eta.validate() == [] and eta.is_invertible()))
