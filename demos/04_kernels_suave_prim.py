"""The 2-category of kernels: composition by pull-tensor-push, coherence
cells certified invertible, the evaluation 2-functor, and suave/prim
duality with exact triangle identities.
"""

from sixff import presets
from sixff.fields import QQ
from sixff.groupoid import (
    delooping, delooping_hom, disjoint_union, identity_functor,
    terminal_groupoid, to_terminal,
)
from sixff.kernels import (
    KernelContext, etale_proper_test, kernel_compose, kernel_identity,
    prim_test, right_unitor, suave_test,
)
from sixff.sheaves import unit_sheaf

PT = terminal_groupoid()
S3 = presets.group("S3")
BS3 = delooping(S3)

print("identity kernel of */S3 over the point:")
ctx = KernelContext(PT, QQ)
ctx.add_object("BS3", BS3, to_terminal(BS3, PT))
kid = kernel_identity(ctx, "BS3")
print("  total dimension %d: the regular bimodule" % kid.payload.total_dim())
ru = right_unitor(kid)
print("  right unitor invertible: %s" % ru.is_invertible())

C2 = S3.subgroup(S3.generated_subgroup([(1, 0, 2)]), name="C2")
BC2 = delooping(C2)
incl = delooping_hom({g: g for g in C2.elements}, BC2, BS3)

print("\nsuave and prim certificates for */C2 -> */S3 on the unit:")
sv = suave_test(incl, unit_sheaf(BC2, QQ))
pr = prim_test(incl, unit_sheaf(BC2, QQ))
print("  suave: triangles (%s, %s), dual dimension %d"
      % (sv.triangle1, sv.triangle2, sv.dual.total_dim()))
print("  prim:  triangles (%s, %s), duality self-inverse: %s"
      % (pr.triangle1, pr.triangle2, pr.double_dual_ok))

print("\netale and proper certificates (every finite-groupoid map under")
print("the gate carries both, with trivialized twists):")
cert = etale_proper_test(incl, QQ, [unit_sheaf(BS3, QQ)])
print("  exceptional-vs-star comparisons invertible: etale %s, proper %s"
      % (cert.etale_ok, cert.proper_ok))
print("  dualizing object dimension:   %d" % cert.omega.total_dim())
print("  codualizing object dimension: %d" % cert.delta.total_dim())
print("  twist identities on probes:   suave %s, prim %s"
      % (cert.suave_twist_ok, cert.prim_twist_ok))
