"""Gluing along covers: descent data, cocycles, and the comparison
equivalence.  Data on the cover * -> */C2 are exactly C2-representations;
the gluing scalar is the group action and the cocycle is the homomorphism
law.
"""

from sixff import presets
from sixff.descent import DescentDatum, DescentSetting, descent_comparison
from sixff.fields import QQ
from sixff.groupoid import Functor, delooping, terminal_groupoid
from sixff.linalg import Matrix
from sixff.sheaves import SheafMorphism, unit_sheaf

C2 = presets.group("C2")
BC2 = delooping(C2)
PT = terminal_groupoid()
cover = Functor(PT, BC2, {PT.objects[0]: BC2.objects[0]},
                {PT.morphisms[0]: BC2.identity[BC2.objects[0]]})

st = DescentSetting(cover, QQ)
W = unit_sheaf(PT, QQ)
print("descent data on * -> */C2 with 1-dimensional fibers:")
for label, scalar in (("trivial", 1), ("sign", -1)):
    comp = {o: Matrix.from_int_rows(
        QQ, [[1 if o[1][0] == C2.identity else scalar]])
        for o in st.Y1.objects}
    datum = DescentDatum(W, SheafMorphism(st.p0.obj(W), st.p1.obj(W), comp))
    print("  %s datum satisfies the cocycle: %s"
          % (label, st.is_valid(datum)))
    V, theta = st.descend(datum)
    nontriv = [g for g in C2.elements if g != C2.identity][0]
    print("    descends to the representation with matrix %s"
          % V.mat[nontriv])

print("\nbad gluing scalars are refused:")
bad = {o: Matrix.from_int_rows(
    QQ, [[1 if o[1][0] == C2.identity else 2]]) for o in st.Y1.objects}
datum = DescentDatum(W, SheafMorphism(st.p0.obj(W), st.p1.obj(W), bad))
print("  cocycle report: %s" % st.cocycle_report(datum)[0])

print("\nfull comparison certificate along * -> */S3:")
S3 = presets.group("S3")
BS3 = delooping(S3)
cover3 = Functor(PT, BS3, {PT.objects[0]: BS3.objects[0]},
                 {PT.morphisms[0]: BS3.identity[BS3.objects[0]]})
st3 = DescentSetting(cover3, QQ)
probes = [unit_sheaf(BS3, QQ)]
cmp = descent_comparison(st3, probes_X=probes,
                         probe_data=[st3.canonical_datum(p) for p in probes])
print("  hom dimensions match: %s" % cmp.fully_faithful_ok)
print("  every datum descends : %s" % cmp.essentially_surjective_ok)
