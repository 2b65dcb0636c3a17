"""
Join-semilattices and the refinement property
=============================================

Distributivity of a join-semilattice can be phrased as a refinement
property: whenever a0 v a1 = b0 v b1, a 2x2 grid of elements c_ij refines
both decompositions.  This demo checks the property, exhibits the failure
on the diamond, and walks through weakly distributive homomorphisms and
their closure under joins.
"""

# %%
# Semilattices from lattices
# --------------------------
# Any lattice is a join-semilattice after forgetting meets:
# FiniteLattice is a subclass of FiniteJoinSemilattice, so a lattice is
# passed to the semilattice functions as it is.  The
# FiniteJoinSemilattice constructor validates a bare join table
# (idempotent, commutative, associative).
from conlat import FiniteJoinSemilattice, boolean, chain, m3

S = boolean(2)
print("a join-semilattice:", isinstance(S, FiniteJoinSemilattice))
print("size:", S.n, " top:", S.top, " bottom:", S.bottom)
print("1 v 2 =", S.join_of(1, 2))

# %%
# Refinement squares
# ------------------
# has_refinement_property searches every equation a0 v a1 = b0 v b1 for a
# refining square.  Distributive examples always pass.
from conlat import has_refinement_property, refinement_square

res = has_refinement_property(S)
print("2^2 refines:", res.holds)
sq = refinement_square(S, 1, 2, 3, 0)
print("square for 1 v 2 = 3 v 0:", sq)

# %%
# The diamond fails
# -----------------
# In M3 the equation a v b = a v c (all three atoms join pairwise to the
# top) admits no refinement, which is exactly its non-distributivity.
D = m3()
res = has_refinement_property(D)
print("M3 refines:", res.holds, " counterexample:", res.counterexample)
print("square exists:", refinement_square(D, 1, 2, 1, 3))

# %%
# Weakly distributive homomorphisms
# ---------------------------------
# A join-homomorphism h is weakly distributive at u when every splitting
# of h(u) pulls back to a splitting of u.  The identity is weakly
# distributive everywhere; a non-convex embedding of a chain into 2^2
# fails at the top.
from conlat import (
    SemilatticeHom,
    is_weakly_distributive_at,
    weakly_distributive_points,
)

C3 = chain(3)
identity = SemilatticeHom(C3, C3, (0, 1, 2))
print("identity wd points:", weakly_distributive_points(identity))

skip = SemilatticeHom(C3, S, (0, 1, 3))
bad = is_weakly_distributive_at(skip, 2)
print("chain into 2^2 wd at top:", bad.holds, " failing split:", bad.failure)

# %%
# Closure under joins, constructively
# -----------------------------------
# Witnesses of weak distributivity at u0 and at u1 can be merged into a
# witness at u0 v u1.  The combinator checks its inputs and returns a
# table covering every decomposition of the image.
from conlat import wd_join_combine

w0 = is_weakly_distributive_at(identity, 1).witness
w1 = is_weakly_distributive_at(identity, 2).witness
combined = wd_join_combine(identity, 1, 2, w0, w1)
print("combined witness at", combined.u, "covers", len(combined.table), "splits")

# %%
# Enumerating homomorphisms
# -------------------------
# All join-homomorphisms between two small semilattices can be listed
# outright, which the test suite uses to cross-check randomized campaigns.
from conlat import enumerate_semilattice_homs

homs = list(enumerate_semilattice_homs(C3, S))
print("homs chain(3) -> 2^2:", len(homs))
wd_everywhere = [
    h.map for h in homs if weakly_distributive_points(h) == list(range(C3.n))
]
print("weakly distributive everywhere:", wd_everywhere)
