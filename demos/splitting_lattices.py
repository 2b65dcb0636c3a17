"""
Property (C) and congruence splitting
=====================================

Congruence splitting asks that any congruence covering of an interval be
reflected by a join decomposition of the interval itself.  The chain
condition property (C) implies it constructively, by induction on a
shortest relative-complement chain.  This demo exercises both notions and
the constructive bridge between them.
"""

# %%
# The relative step relation
# --------------------------
# Write a <~c b when some z satisfies a v z = b with a ^ z <= c.  Property
# (C) requires a <~c chain from a to b for every a <= b and every c.
from conlat import chain, n5, rel_lessdot

pent = n5()
print("witness z for 0 <~0 2 in N5:", rel_lessdot(pent, 0, 2, 0))
print("witness z for 1 <~0 2 in N5:", rel_lessdot(pent, 1, 2, 0))

# %%
# Chains and failures
# -------------------
# property_c_chain returns a validated chain object or None.  Both the
# 3-chain and N5 fail property (C) at the triple (1, 2, 0): the step from
# 1 to 2 would need a complement-like z that neither lattice has.
from conlat import has_property_C, property_c_chain

c3 = chain(3)
print("3-chain has (C):", has_property_C(c3).holds,
      " failing triple:", has_property_C(c3).failing)
print("N5 has (C):", has_property_C(pent).holds,
      " failing triple:", has_property_C(pent).failing)

ch = property_c_chain(c3, 0, 2, 2)
print("chain for (0, 2, 2):", ch.elements, " witnesses:", ch.witnesses)

# %%
# Complemented and atomistic lattices always qualify
# --------------------------------------------------
# Sectional or relative complements provide the z in one step, and in
# atomistic lattices atoms do.
from conlat import boolean, enumerate_lattices, is_atomistic, is_sectionally_complemented, m3

for name, L in [("2^3", boolean(3)), ("M3", m3())]:
    print(f"{name}: sectionally complemented={is_sectionally_complemented(L)} "
          f"atomistic={is_atomistic(L)} property (C)={has_property_C(L).holds}")

# %%
# Congruence splitting
# --------------------
# An instance is a <= b together with congruences alpha0, alpha1 whose
# join covers Theta(a, b); a solution is x0, x1 in [a, b] with
# x0 v x1 = b and Theta(a, xi) below alphai.  splitting_witness returns the
# greatest solution, xi = b ^ (top of the alphai-block of a); every other
# solution lies below it componentwise.
from conlat import SplitInstance, con_lattice, is_congruence_splitting, splitting_witness

con = con_lattice(pent)
inst = SplitInstance(pent, 0, 4, con.congruences[2], con.congruences[3])
print("split of [0, 4] along two congruences:", splitting_witness(inst))
print("N5 splitting:", is_congruence_splitting(pent).holds)

# %%
# The 3-chain does not split: collapsing the lower and upper covering
# separately covers Theta(0, 2), yet no join decomposition of the interval
# [0, 2] separates the two.
res = is_congruence_splitting(c3)
print("3-chain splitting:", res.holds, " failing instance:", res.failing)

# %%
# Splitting does not require property (C): N5 splits but fails (C), so the
# implication below runs in one direction only.
print("N5: property (C)", has_property_C(pent).holds,
      "but splitting", is_congruence_splitting(pent).holds)

# %%
# The constructive bridge
# -----------------------
# splitting_from_property_C turns a <~c chain into an explicit solution of
# any splitting instance, walking the chain and absorbing each step into
# the side whose congruence contains it.
from conlat import principal_congruence, splitting_from_property_C

B2 = boolean(2)
alpha0 = principal_congruence(B2, 0, 1)
alpha1 = principal_congruence(B2, 0, 2)
inst = SplitInstance(B2, 0, 3, alpha0, alpha1)
x0, x1 = splitting_from_property_C(inst)
print("constructed split of [0, 3] in 2^2:", (x0, x1))

# %%
# On a small corpus the implication is exhaustive: every property (C)
# lattice is congruence splitting.
have_c = [L for L in enumerate_lattices(5) if has_property_C(L).holds]
print(f"{len(have_c)} property (C) lattices of size <= 5, splitting:",
      all(is_congruence_splitting(L).holds for L in have_c))
