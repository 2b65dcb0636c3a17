"""
Small regular rings and their ideal lattices
============================================

For a finite regular ring the principal right ideals form a complemented
modular lattice, the two-sided ideals match its neutral ideals, and the
multiplicity monoid V(R) maps onto the ideal lattice through supports.
This demo runs the whole pipeline on matrix rings over small prime
fields.
"""

# %%
# Ring specifications
# -------------------
# Rings are given as products of matrix rings over prime fields, e.g.
# M(2,2) for 2x2 matrices over the 2-element field.  Sizes grow as
# q^(d*d) per factor, so specifications are capped.
from conlat import FiniteRing, is_regular, parse_ring_spec

print("components of M(1,2)xM(2,3):", parse_ring_spec("M(1,2)xM(2,3)"))
R = FiniteRing.from_matrix_spec("M(2,2)")
print("M(2,2) has", R.n, "elements,", len(R.idempotents()), "idempotents")
print("regular:", is_regular(R).holds)

# %%
# The lattice of principal right ideals
# -------------------------------------
# Each ideal xR is generated by an idempotent; ordered by inclusion they
# form a complemented modular lattice.  For M(2,2) this is the subspace
# lattice of a 2-dimensional space over F2: the diamond with three atoms.
from conlat import (
    canonical_form,
    is_complemented,
    is_modular,
    m3,
    principal_right_ideals,
)

lr = principal_right_ideals(R)
print("L(R) size:", lr.lattice.n)
print("complemented:", is_complemented(lr.lattice), " modular:", is_modular(lr.lattice))
print("isomorphic to M3:", canonical_form(lr.lattice) == canonical_form(m3()))

# %%
# Isomorphy of principal ideals
# -----------------------------
# Two principal right ideals eR and fR are isomorphic as modules exactly
# when elements x in eRf and y in fRe compose to xy = e and yx = f.  The
# certificate carries that pair.
from conlat import ideals_isomorphic

e, f = lr.generators[lr.lattice.atoms[0]], lr.generators[lr.lattice.atoms[1]]
cert = ideals_isomorphic(R, e, f)
print("atom ideals isomorphic with certificate:", cert)
print("xy == e:", R.mul[cert.x][cert.y] == e, " yx == f:", R.mul[cert.y][cert.x] == f)

# %%
# Two-sided ideals and neutral ideals
# -----------------------------------
# The two-sided ideals of M(2,2) are just 0 and R (the ring is simple);
# under the correspondence phi they match the neutral ideals of L(R).
from conlat import phi, two_sided_ideals, verify_nid_id_iso

tsl = two_sided_ideals(R)
print("two-sided ideals:", [len(I) for I in tsl.ideals])
print("phi({bottom}) = 0:", phi(lr, {lr.lattice.bottom}) == frozenset({R.zero}))
print("neutral ideals <-> two-sided ideals:", verify_nid_id_iso(R))

# %%
# The multiplicity monoid V(R)
# ----------------------------
# Decomposing every principal right ideal into indecomposables assigns a
# vector in N^k, k the number of isomorphism classes of indecomposables.
# A product of two simple rings gives k = 2.
from conlat import v_monoid

vm = v_monoid(R)
print("M(2,2): k =", vm.k, " class of top =", vm.class_of_node[lr.lattice.top])

P = FiniteRing.from_matrix_spec("M(1,2)xM(2,3)")
vmp = v_monoid(P)
print("M(1,2)xM(2,3): k =", vmp.k)

# %%
# Refinement in N^k and the algebraic preorder
# --------------------------------------------
# N^k has componentwise refinement, and v is algebraically below alpha
# exactly on support inclusion, the order that the ideal map uses.
from conlat import algebraic_below, refine_nonneg_vectors

print("refine (2,1)+(0,1) = (1,1)+(1,1):",
      refine_nonneg_vectors((2, 1), (0, 1), (1, 1), (1, 1)))
print("(5,0) below (1,0):", algebraic_below((5, 0), (1, 0)))
print("(1,1) below (1,0):", algebraic_below((1, 1), (1, 0)))

# %%
# From V(R) onto the ideal lattice
# --------------------------------
# pi sends a vector to the set of ring elements whose principal ideal
# class lies algebraically below it; the verification confirms pi is a
# monoid homomorphism onto the two-sided ideals that factors through
# supports.
from conlat import pi_map, verify_pi_map

pm = pi_map(P)
print("pi((1,0)) size:", len(pm((1, 0))), " pi((0,1)) size:", len(pm((0, 1))))
print("checks:", verify_pi_map(P))

# %%
# The maximal semilattice quotient
# --------------------------------
# Collapsing multiplicities to supports is universal: every monoid map
# from N^k into a join-semilattice factors uniquely through it.  The
# supports form the free semilattice on k generators, so the check compares
# the support map with the free semilattice hom, the one target that decides
# every other.
from conlat import max_semilattice_quotient

sq = max_semilattice_quotient(vmp.k)
print("support of (3,0):", set(sq.map((3, 0))))
print("universal property (free semilattice target):", sq.verify_universal_property())
