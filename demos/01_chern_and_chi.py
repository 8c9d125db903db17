"""
Chern classes and Euler characteristics
=======================================

Everything in the package is exact integer arithmetic; the Euler
characteristic of a twisted rank-2 sheaf is a cubic in the twist with
rational coefficients that always evaluates to an integer.
"""

from sheafspectra import ChernClasses, euler_characteristic
from sheafspectra import MonadShape, ParityError

# A normalized class: first Chern class e in {-1, 0}.  The constructor
# enforces the parity law tying c3 to the other classes.
cc = ChernClasses(-1, 2, 0)
print("class:", cc.as_tuple())

print("chi(E(t)) for t = -5..2:")
for t in range(-5, 3):
    print(f"  t = {t:>2}:  {euler_characteristic(cc, t)}")

# Classes violating the parity law are rejected outright.
try:
    ChernClasses(0, 2, 1)
except ParityError as exc:
    print("rejected:", exc)

# Chern classes of a sheaf presented by line bundles are read off its
# Euler characteristic, a signed sum of line-bundle cubics.  A cokernel of
# O(-2) -> 3 O(-1) -> F is a monad with no right-hand term:
print()
print("cokernel 0 -> O(-2) -> 3 O(-1) -> F -> 0")
chern = MonadShape(a=(-2,), b=(-1, -1, -1), c=()).chern()
print("chern(F) =", chern.as_tuple())

# The same classes as coefficients of (1 - t)^3 / (1 - 2t) = 1 + c1 t + c2 t^2 + c3 t^3.
print("series coefficients:", (1, *chern.as_tuple()))
