#!/usr/bin/env python3
"""Closed-point degrees from orbit sizes.

A subgroup G of GL2(Z/ell^k) acts on the order-ell^k vectors (mod +-1) and
on the cyclic submodules of order ell^k; when G is the mod-ell^k reduction
of the full image of Galois, the orbit sizes are the degrees of the induced
closed points on X1(ell^k) and X0(ell^k).

For the normalizer of a nonsplit Cartan the degrees follow the closed
formulas (ell^2-1)ell^(2k-2)/2 and (ell+1)ell^(k-1): the action is
transitive, which is exactly the multiplicativity the filter exploits.
"""

from ellimage import (CartanSpec, PrimePowerModulus, build_cartan,
                      gamma0_orbits, gamma1_orbits)


def degree_tower(rec):
    """Degrees of the point of an orbit on X1(ell^a) for a = k down to 0:
    the orbit's size and the sizes of its ancestors in the orbit tree, each
    the orbit one level down that it reduces onto; 1 on the j-line."""
    out = []
    while rec is not None:
        out.append((rec.level.exponent, rec.size))
        rec = rec.parent
    return out + [(0, 1)]


for ell in (5, 7, 17):
    mod1 = PrimePowerModulus(ell, 1)
    mod2 = PrimePowerModulus(ell, 2)
    pre = build_cartan(CartanSpec("nonsplit-normalizer", mod1)).full_preimage(mod2)
    print("nonsplit-Cartan normalizer preimage, ell =", ell)
    for k in (1, 2):
        g1 = {r.size for r in gamma1_orbits(pre, k)}
        g0 = {r.size for r in gamma0_orbits(pre, k)}
        f1 = (ell * ell - 1) * ell ** (2 * k - 2) // 2
        f0 = (ell + 1) * ell ** (k - 1)
        print("  k=%d  X1-degrees %-12s formula %-8d X0-degrees %-8s formula %d"
              % (k, sorted(g1), f1, sorted(g0), f0))
    print("  degree tower of one orbit:", degree_tower(gamma1_orbits(pre, 2)[0]))
    print()

print("contrast: a Borel-type image fixes a line, so X0 degrees start at 1")
m17 = PrimePowerModulus(17, 1)
from ellimage.gl2 import MatrixGroup
borelish = MatrixGroup(m17, [(1, 1, 0, 1), (9, 0, 0, 3), (1, 0, 0, 9)])
print("  X0(17) orbit sizes:", sorted(r.size for r in gamma0_orbits(borelish, 1)))
print("  X1(17) orbit sizes:", sorted(r.size for r in gamma1_orbits(borelish, 1)))
