"""Congruence splitting and property (C) for finite lattices.

A lattice L is congruence splitting if whenever a <= b and
Theta(a, b) <= alpha0 v alpha1, there are x0, x1 in [a, b] with x0 v x1 = b
and Theta(a, xi) <= alphai.  In the finite case it suffices to check pairs
with alpha0 v alpha1 = Theta(a, b) exactly (any witness for the restriction
to Theta(a, b) works for the original pair, since Theta(a, xi) <= alphai ^
Theta(a, b)).  Blocks are intervals, so the x in [a, b] with
Theta(a, x) <= alpha form [a, b ^ t], t the top of a's alpha-block
(``CongruenceLattice.tops``), a join-closed set: an instance splits iff the
greatest pair (b ^ t0, b ^ t1) joins to b, and every split lies below it.

Property (C) is a chain condition: write a <~c b when some z has a v z = b
and a ^ z <= c; L has property (C) if for all a <= b and every c there is a
chain a = x0 <~c x1 <~c ... <~c xn = b.  Sectionally complemented lattices
and atomistic lattices have property (C), and property (C) implies
congruence splitting; :func:`splitting_from_property_C` realizes that
implication constructively by folding the steps of one shortest chain.
That chain and the chains of :func:`property_c_chain` come from the same
shortest-chain BFS.
"""
from __future__ import annotations

from typing import Callable, NamedTuple

from .congruence import Congruence, con_lattice
from .lattice import FiniteLattice, _bits, _check_elements


class NoChain(ValueError):
    """No labelled <~a chain from a to b exists."""


class _SplitInstanceFields(NamedTuple):
    L: FiniteLattice
    a: int
    b: int
    alpha0: Congruence
    alpha1: Congruence


class SplitInstance(_SplitInstanceFields):
    """A congruence-splitting instance: a <= b and Theta(a, b) <= alpha0 v alpha1."""

    __slots__ = ()

    def __new__(
        cls, L: FiniteLattice, a: int, b: int, alpha0: Congruence, alpha1: Congruence
    ) -> SplitInstance:
        if not L.le(a, b):
            raise ValueError(f"{a} is not below {b}")
        if not con_lattice(L).below_join(a, b, alpha0, alpha1):
            raise ValueError("Theta(a, b) is not below alpha0 v alpha1")
        return super().__new__(cls, L, a, b, alpha0, alpha1)


class CChain(NamedTuple):
    """A chain a = x0 <~c x1 <~c ... <~c xn = b with one witness z per step."""

    L: FiniteLattice
    c: int
    elements: tuple[int, ...]
    witnesses: tuple[int, ...]

    def validate(self) -> bool:
        L = self.L
        _check_elements(L, self.c, *self.elements, *self.witnesses)
        if len(self.witnesses) != len(self.elements) - 1:
            return False
        jn, mt, dc = L.join_rows, L.meet_rows, L.down_bits[self.c]
        for x, y, z in zip(self.elements, self.elements[1:], self.witnesses):
            if jn[x][z] != y or not dc >> mt[x][z] & 1:
                return False
        return True


def rel_lessdot(L: FiniteLattice, a: int, b: int, c: int) -> int | None:
    """The first z (in element order) with a v z = b and a ^ z <= c, if any."""
    _check_elements(L, a, b, c)
    ja, ma, dc = L.join_rows[a], L.meet_rows[a], L.down_bits[c]
    for z in range(L.n):
        if ja[z] == b and dc >> ma[z] & 1:
            return z
    return None


def _shortest_chain(
    L: FiniteLattice,
    a: int,
    b: int,
    c: int,
    label: Callable[[int, int], int | None] = lambda x, y: 0,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]] | None:
    """A shortest chain a <~c ... <~c b whose steps x <~c y have a label
    ``label(x, y)`` that is not None, as its elements, the witness z of each
    step and the label of each step; None when b is unreachable.  BFS layer
    by layer, ties to the smallest element.  Every step goes up, so the BFS
    tree on [a, y] does not depend on b."""
    prev: dict[int, tuple[int, int, int] | None] = {a: None}
    frontier = [a]
    while frontier and b not in prev:
        nxt = []
        for x in sorted(frontier):
            for y in _bits(L.up_bits[x] & L.down_bits[b]):
                if y in prev:
                    continue
                lab = label(x, y)
                if lab is None:
                    continue
                z = rel_lessdot(L, x, y, c)
                if z is not None:
                    prev[y] = (x, z, lab)
                    nxt.append(y)
        frontier = nxt
    if b not in prev:
        return None
    elems, wits, labs = [b], [], []
    while b != a:
        b, z, lab = prev[b]
        elems.append(b)
        wits.append(z)
        labs.append(lab)
    return tuple(elems[::-1]), tuple(wits[::-1]), tuple(labs[::-1])


def property_c_chain(L: FiniteLattice, a: int, b: int, c: int) -> CChain | None:
    """A shortest <~c chain from a to b (BFS layers, ties to the smallest
    element), or None when b is unreachable."""
    _check_elements(L, a, b, c)
    if not L.le(a, b):
        return None
    chain = _shortest_chain(L, a, b, c)
    if chain is None:
        return None
    return CChain(L, c, chain[0], chain[1])


class PropertyCResult(NamedTuple):
    holds: bool
    failing: tuple[int, int, int] | None  # (a, b, c)


def has_property_C(L: FiniteLattice) -> PropertyCResult:
    """Chains required for every a <= b and every c."""
    for c in range(L.n):
        for a in range(L.n):
            for b in _bits(L.up_bits[a]):
                if property_c_chain(L, a, b, c) is None:
                    return PropertyCResult(False, (a, b, c))
    return PropertyCResult(True, None)


def _greatest_split(
    L: FiniteLattice, a: int, b: int, i0: int, i1: int
) -> tuple[int, int] | None:
    # the greatest (x0, x1) in [a, b] with Theta(a, x0) <= alpha_i0 and
    # Theta(a, x1) <= alpha_i1, if it joins to b; requires a <= b
    tops, mb = con_lattice(L).tops, L.meet_rows[b]
    x0, x1 = mb[tops[i0][a]], mb[tops[i1][a]]
    return (x0, x1) if L.join_rows[x0][x1] == b else None


def splitting_witness(inst: SplitInstance) -> tuple[int, int] | None:
    """The greatest (x0, x1) in [a, b] with x0 v x1 = b and
    Theta(a, xi) <= alphai, xi = b ^ (top of the alphai-block of a); None
    when no pair splits [a, b]."""
    con = con_lattice(inst.L)
    i0, i1 = con.congruence_index(inst.alpha0), con.congruence_index(inst.alpha1)
    return _greatest_split(inst.L, inst.a, inst.b, i0, i1)


class SplittingResult(NamedTuple):
    holds: bool
    failing: tuple[int, int, int, int] | None  # (a, b, alpha0 index, alpha1 index)


def is_congruence_splitting(L: FiniteLattice) -> SplittingResult:
    """Check every instance with alpha0 v alpha1 = Theta(a, b) exactly;
    in a finite lattice every congruence is compact, so this is the full
    splitting property.  Each instance is one block-top test."""
    for a, b, _, fams in con_lattice(L).join_decompositions():
        for i0, i1 in fams:
            if _greatest_split(L, a, b, i0, i1) is None:
                return SplittingResult(False, (a, b, i0, i1))
    return SplittingResult(True, None)


def splitting_from_property_C(inst: SplitInstance) -> tuple[int, int]:
    """Build a splitting witness from one shortest chain
    a = x0 <~a ... <~a xn = b whose steps each lie in alpha0 or alpha1.

    Start from (y0, y1) = (a, a); a step c <~a y with witness z and step
    congruence alphaj replaces yj by yj v z.  By induction (y0, y1) splits
    [a, c] before the step and [a, y] after it: z ^ c <= a <= yj forces
    yj v z = yj v (z ^ c) congruent to yj modulo alphaj, since
    Theta(z ^ c, z) <= Theta(c, c v z) = Theta(c, y) <= alphaj.
    """
    L, a, b = inst.L, inst.a, inst.b
    al0, al1 = inst.alpha0, inst.alpha1
    chain = _shortest_chain(
        L, a, b, a, lambda x, y: 0 if al0.same(x, y) else 1 if al1.same(x, y) else None
    )
    if chain is None:
        raise NoChain(f"no labelled chain from {a} to {b} below {a}")
    _, wits, labs = chain
    y = [a, a]
    jn = L.join_rows
    for z, j in zip(wits, labs):
        y[j] = jn[y[j]][z]
    return (y[0], y[1])
