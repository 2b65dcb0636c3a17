"""
Building and inspecting finite lattices
=======================================

A tour of the core lattice type: construction from cover relations, order
and operation queries, the stock examples, isomorphism-invariant canonical
codes, and exhaustive enumeration of small lattices.
"""

# %%
# Construction from covers
# ------------------------
# A lattice is described by its size and the list of cover pairs (x, y),
# meaning y sits immediately above x.  Joins and meets are derived from the
# reflexive-transitive closure and stored as dense tables.
from conlat import FiniteLattice, boolean, chain, m3, n5

square = FiniteLattice.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
print("covers:", square.covers())
print("bottom, top:", square.bottom, square.top)
print("1 v 2 =", square.join_of(1, 2))
print("1 ^ 2 =", square.meet_of(1, 2))

# %%
# The order relation is stored as bitmasks: bit y of down_bits[x] is set iff
# y <= x, so an order query is a bit test.
print("leq matrix:")
for x in range(square.n):
    print([int(square.le(x, y)) for y in range(square.n)])
print("elements below 3:", [y for y in range(square.n) if square.down_bits[3] >> y & 1])

# %%
# Stock examples
# --------------
# Chains, Boolean lattices, the diamond M3, and the pentagon N5 come
# prebuilt.  The diamond and the pentagon are the minimal witnesses for
# non-distributivity and non-modularity.
from conlat import is_distributive, is_modular

for name, L in [("4-chain", chain(4)), ("2^2", boolean(2)), ("M3", m3()), ("N5", n5())]:
    print(
        f"{name}: n={L.n} atoms={L.atoms} height={L.height} "
        f"distributive={is_distributive(L)} modular={is_modular(L)}"
    )

# %%
# Intervals and perspectivity
# ---------------------------
# An interval [a, b] is again a lattice; the view keeps the map back into
# the host.  Perspectivity relates elements sharing a complement pattern,
# the basic move in projective geometry style arguments.
from conlat import are_perspective, interval

pent = n5()
iv = interval(pent, 0, 2)
print("interval [0, 2] of N5 has size", iv.lattice.n, "and embeds as", iv.to_host)

diamond = m3()
print("atoms 1, 2 of M3 perspective:", are_perspective(diamond, 1, 2))

# %%
# Canonical codes and isomorphism
# -------------------------------
# canonical_form computes a string invariant that is equal exactly for
# isomorphic lattices, so codes can serve as dictionary keys for
# isomorphism classes.
from conlat import canonical_form, is_isomorphic

relabeled = FiniteLattice.from_covers(5, [(0, 3), (0, 1), (3, 2), (2, 4), (1, 4)])
print("pentagon code:", canonical_form(pent))
print("relabeled copy isomorphic:", is_isomorphic(pent, relabeled))
print("codes equal:", canonical_form(pent) == canonical_form(relabeled))

# %%
# Exhaustive enumeration
# ----------------------
# enumerate_lattices yields one representative per isomorphism class up to
# the requested size.  The count sequence 1, 1, 1, 2, 5, 15, 53 grows
# quickly, which is why the enumerator is capped at size 8.
from collections import Counter

from conlat import enumerate_lattices

sizes = Counter(L.n for L in enumerate_lattices(6))
print("lattices per size:", dict(sorted(sizes.items())))

# %%
# Serialization round trip
# ------------------------
# Lattices serialize to a JSON-friendly dict of size plus covers, the same
# format the command line corpus files use.
blob = pent.to_json()
print("json:", blob)
print("round trip isomorphic:", is_isomorphic(FiniteLattice.from_json(blob), pent))
