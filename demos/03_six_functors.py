"""The six operations on sheaves over finite groupoids, in exact
arithmetic: pullback, the two pushforwards, the norm between them, tensor,
and internal hom, with base change and the projection formula certified by
invertible canonical comparison maps.
"""

from sixff import presets
from sixff.fields import QQ
from sixff.groupoid import (
    Functor, delooping, delooping_hom, terminal_groupoid, to_terminal,
)
from sixff.sheaves import (
    CommutingSquare, LanFunctor, RanFunctor, global_sections, hom_dim,
    norm_certificate, unit_sheaf, verify_base_change,
    verify_projection_formula,
)

S3 = presets.group("S3")
C2 = S3.subgroup(S3.generated_subgroup([(1, 0, 2)]), name="C2")
BS3, BC2 = delooping(S3), delooping(C2)
incl = delooping_hom({g: g for g in C2.elements}, BC2, BS3)
PT = terminal_groupoid()

triv = unit_sheaf(BC2, QQ)
ind = LanFunctor(incl).obj(triv)
print("inducing the trivial C2-sheaf up to S3:")
print("  dimension %d = index [S3 : C2]" % ind.dim[BS3.objects[0]])
print("  End has dimension %d (the Hecke algebra!)" % hom_dim(ind, ind))

print("\nnorm map along */C2 -> * on the trivial sheaf:")
nm = norm_certificate(to_terminal(BC2, PT), unit_sheaf(BC2, QQ))
print("  1x1 matrix %s - the order of C2, invertible over Q"
      % nm.comp[PT.objects[0]])

print("\nproper base change on the square * -> */S3 <- */C2:")
pt_incl = Functor(PT, BS3, {PT.objects[0]: BS3.objects[0]},
                  {PT.morphisms[0]: BS3.identity[BS3.objects[0]]})
square, ic = CommutingSquare.from_iso_comma(incl, pt_incl)
comparison, cell = verify_base_change(square, triv)
print("  comparison is an invertible %dx%d matrix: both routes compute"
      % cell.comp[PT.objects[0]].shape)
print("  the 3-dimensional space of functions on S3/C2")

print("\nprojection formula f_!(f*M ⊗ N) = M ⊗ f_!N:")
cell, hom_cell = verify_projection_formula(incl, unit_sheaf(BS3, QQ), triv)
print("  tensor form invertible:  %s" % cell.is_invertible())
print("  hom form invertible:     %s" % hom_cell.is_invertible())

print("\nglobal sections of the unit:")
for name, grpd in (("*/S3", BS3), ("*/C2", BC2)):
    g, _, gc, _ = global_sections(grpd, unit_sheaf(grpd, QQ))
    print("  %-6s ordinary %d, compactly supported %d" % (name, g, gc))
