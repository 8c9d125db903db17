#!/usr/bin/env python3
"""Build sheaves three ways and read their cohomology.

Extensions, monads, and quotient sequences each determine the unknown
sheaf's cohomology table by a dimension chase through the long exact
sequence, under the maximal-rank policy for the connecting maps.
"""

from sheafspectra import (
    CurveModule,
    DirectSum,
    LineBundle,
    MonadShape,
    ShortExactSequenceSpec,
    Twist,
    construction_spectrum,
    splice_bounds,
    splice_ses,
)

# An extension 0 -> O(-2) -> E -> I_Y(1) -> 0 over two disjoint conics.
# A conic is a genus-0 curve of degree 2 (Hilbert polynomial 2t + 1), and
# the ideal sheaf of Y is the kernel in 0 -> I_Y -> O -> O_Y -> 0.
conic = CurveModule(genus=0, slope=2, offset=1)
ideal = ShortExactSequenceSpec(middle=LineBundle(0), right=DirectSum((conic, conic)))
spec = ShortExactSequenceSpec(
    left=LineBundle(-2),
    middle=None,
    right=Twist(ideal, 1),
)
table = splice_ses(spec, (-8, 0))
print("extension over two conics:")
print(table.to_markdown())

# The policy picks maximal ranks for the connecting maps.  The bounds
# solver brackets what any rank choice could give; deep twists are
# genuinely ambiguous, which is why the pipeline blanks them.
print()
print("policy value vs. feasible interval, per entry:")
bounds = splice_bounds(spec, (-3, -1))
for t in (-1, -3):
    print(f"  t = {t}: {table.row(t)} within {bounds[t]}")

# A monad whose middle cohomology is an instanton sheaf with c2 = 3.
# The chase is sound down to t = -3 for this splitting type; deeper
# rows would need the connecting-map ranks the policy can only guess.
shape = MonadShape(a=(-1, -1, -1), b=(0,) * 8, c=(1, 1, 1))
print()
print("monad classes:", shape.chern().as_tuple())
print(splice_ses(shape, (-3, 0)).to_markdown())

# The full pipeline on the extension above: spectrum out.  Rows below
# the sound window are discarded before inversion, so the policy's
# deep-twist guesses never contaminate the answer.
print("pipeline result:", construction_spectrum(spec)[1])
