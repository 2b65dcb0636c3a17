"""
The uniform refinement property
===============================

A strengthening of refinement: one witness family must serve every family
of decompositions of an element at once, with coherence constraints across
all index pairs.  Finite distributive semilattices always satisfy it; the
diamond fails it at the top.  Known semilattices failing it while arising
as congruence lattices must have size at least aleph-two, so finite
searches can only confirm, never refute.
"""

# %%
# Instances and witnesses
# -----------------------
# An instance fixes an element e and a family of pairs joining to e.  A
# witness supplies smaller pairs (a*_i, b*_i) still joining to e plus a
# coherence table c_ij, and the verifier reports the first violated clause
# if any.
from conlat import (
    UrpInstance,
    boolean,
    canonical_instance,
    search_urp_witness,
    verify_urp_witness,
)

S = boolean(2)
inst = canonical_instance(S, S.top)
print("canonical instance at top has", len(inst.pairs), "pairs")
w = search_urp_witness(inst)
print("witness found:", w is not None)
print("verifies:", verify_urp_witness(inst, w).ok)

# %%
# Failure on the diamond
# ----------------------
# At the top of M3 the pairs (1, 2) and (2, 3) already clash: any witness
# must keep both pairs whole, and the coherence clause then asks for
# 1 <= 2 v (1 ^ 3), which fails.  The search is complete, so None is a
# proof of failure.
from conlat import holds_urp_at, m3, satisfies_urp

D = m3()
print("URP at top of M3:", holds_urp_at(D, D.top))
print("URP at an atom of M3:", holds_urp_at(D, 1))
print("URP everywhere on M3:", satisfies_urp(D))

two_pair = UrpInstance(D, D.top, ((1, 2), (2, 3)))
print("two-pair witness:", search_urp_witness(two_pair))

# %%
# Budgeted search
# ---------------
# The backtracking search spends one unit per explored node and raises
# once a budget is exhausted, separating "no witness" from "ran out of
# time" in large campaigns.
from conlat import SearchBudgetExceeded

try:
    search_urp_witness(canonical_instance(S, S.top), budget=2)
except SearchBudgetExceeded as exc:
    print("budget 2:", exc)

# %%
# Closure under joins
# -------------------
# An instance at e0 v e1 splits into instances at e0 and e1 through
# refinement squares; witnesses for the halves recombine into a witness
# for the whole.
from conlat import refine_instance, urp_join_combine

combined = canonical_instance(S, S.top)
half0, half1 = refine_instance(combined, 1, 2)
print("half sizes:", len(half0.pairs), len(half1.pairs))
w0 = search_urp_witness(half0)
w1 = search_urp_witness(half1)
merged = urp_join_combine(combined, half0, half1, w0, w1)
print("merged witness verifies:", verify_urp_witness(combined, merged).ok)

# %%
# Transfer along weakly distributive maps
# ---------------------------------------
# If h is weakly distributive and URP holds at u in the source, witnesses
# push forward to h(u): pull the target instance back, solve it, map the
# solution.
from conlat import SemilatticeHom, chain, urp_transfer

C3 = chain(3)
h = SemilatticeHom(C3, S, (0, 1, 1))
target_inst = canonical_instance(S, 1)
pushed = urp_transfer(h, 2, target_inst)
print("transferred witness verifies:", verify_urp_witness(target_inst, pushed).ok)

# %%
# Witnesses from congruence splitting
# -----------------------------------
# For a congruence-splitting lattice the congruence lattice satisfies URP
# with an explicit witness built from splittings, not search.  Families
# are given as pairs of congruence indices joining to Theta(u, v).
from conlat import con_lattice, csurp_witness, n5

pent = n5()
con = con_lattice(pent)
jn = con.join_rows
eps = con.principal[0][4]
fams = tuple(
    (i, j)
    for i in range(len(con))
    for j in range(len(con))
    if jn[i][j] == eps
)
w = csurp_witness(pent, 0, 4, fams)
inst = UrpInstance(con, eps, fams)
print("constructed witness over", len(fams), "families verifies:",
      verify_urp_witness(inst, w).ok)

# %%
# Congruence lattices by certificate
# ----------------------------------
# The cover masks of Con L form a ring of sets: join is union, and the meet
# of two congruences collapses exactly the covers both collapse.  Checking
# this certifies Con L distributive, and a ring of sets has URP at every
# element by the meet witness c_ik = a_i & b_k: the certificate alone
# decides URP on Con L, with no search.
from conlat import certifies_ring_of_sets, chain, first_urp_failure

con9 = con_lattice(chain(9))
print("Con of the 9-chain has", len(con9), "congruences")
print("its masks certify a ring of sets:", certifies_ring_of_sets(con9, con9.masks))
print("URP holds at every element:", first_urp_failure(con9, con9.masks) is None)
