"""
Congruence lattices of finite lattices
======================================

Congruences are the lattice analogue of normal subgroups: partitions
compatible with join and meet.  This demo computes full congruence
lattices, principal congruences, alternating chains between congruence
classes, and the correspondence with neutral ideals.
"""

# %%
# The congruence lattice of the pentagon
# --------------------------------------
# N5 has exactly five congruences.  Each one is a partition of the five
# elements; the two trivial ones (everything separate, everything merged)
# are always present.
from conlat import con_lattice, n5

pent = n5()
con = con_lattice(pent)
print("number of congruences:", len(con))
for i, theta in enumerate(con.congruences):
    print(f"  [{i}] blocks={theta.blocks()}")

# %%
# Principal congruences
# ---------------------
# Theta(u, v) is the smallest congruence merging u and v.  The table
# con.principal indexes them for every pair.
from conlat import principal_congruence

theta = principal_congruence(pent, 1, 2)
print("Theta(1, 2) blocks:", theta.blocks())
print("same(1, 2):", theta.same(1, 2), " same(0, 1):", theta.same(0, 1))

# %%
# Join and meet of congruences
# ----------------------------
# Congruences form a lattice themselves; joins merge blocks transitively,
# meets intersect them.  For any finite lattice this congruence lattice is
# distributive.
from conlat import congruence_join, congruence_meet, is_distributive

a = principal_congruence(pent, 0, 1)
b = principal_congruence(pent, 2, 4)
print("join blocks:", congruence_join(a, b).blocks())
print("meet blocks:", congruence_meet(a, b).blocks())
print("Con(N5) distributive:", is_distributive(con))

# %%
# Chain counts double with every new covering
# -------------------------------------------
# For an n-chain every subset of the n - 1 coverings can be collapsed
# independently, so the congruence lattice is Boolean with 2^(n-1)
# elements.
from conlat import chain

for k in range(2, 6):
    print(f"chain({k}): {len(con_lattice(chain(k)))} congruences")

# %%
# Alternating chains
# ------------------
# When Theta(u, v) lies below alpha v beta, u and v are linked by a chain
# of covers, each collapsed by alpha or by beta; trivial steps make the
# labels alternate between alpha and beta.  The chain object carries one
# congruence label per step and validates itself.
from conlat import alternating_chain

alpha = principal_congruence(pent, 0, 1)
beta = principal_congruence(pent, 2, 4)
ch = alternating_chain(pent, 0, 4, alpha, beta)
print("chain elements:", ch.elements)
print("validates:", ch.validate())

# %%
# Monotonization
# --------------
# A zigzag fence from u to v can be straightened into a monotone chain in
# [u, v]; any congruence containing a step of the fence still contains the
# matching step afterwards, so step labels survive.
from conlat import monotonize_chain

raw = [0, 3, 1, 4]
labels = tuple(principal_congruence(pent, raw[i], raw[i + 1]) for i in range(3))
mono = monotonize_chain(pent, raw, 0, 4, labels)
print("raw fence:", raw)
print("monotone chain:", mono.elements, " validates:", mono.validate())

# %%
# Induced maps on congruence lattices
# -----------------------------------
# A lattice homomorphism h: K -> L pushes congruences forward, giving a
# join-preserving map Con K -> Con L.  Maps with convex range are weakly
# distributive, the key transfer property used throughout the package.
from conlat import LatticeHom, chain, has_convex_range, induced_con_map, is_weakly_distributive

h = LatticeHom(chain(3), pent, (0, 1, 2))
print("convex range:", has_convex_range(h))
print("induced map weakly distributive:", is_weakly_distributive(induced_con_map(h)))

# %%
# Neutral ideals
# --------------
# In a sectionally complemented modular lattice the congruences biject
# with the neutral ideals: each congruence is determined by the block of
# the bottom element.
from conlat import boolean, con_nid_iso, neutral_ideals

B2 = boolean(2)
corr = con_nid_iso(B2)
for i, ideal in enumerate(corr.to_ideal):
    print(f"congruence [{i}] <-> ideal {sorted(ideal)}")
print("neutral ideal count:", len(neutral_ideals(B2)))
