"""Congruences of a finite lattice and the congruence lattice Con L.

A congruence is an equivalence relation compatible with join and meet; it is
stored as a class-representative array (each element mapped to the least
member of its block).  Inside Con L it is also the bitmask of the covers
x < y that it collapses.  The mask is exact: a congruence is the join of the
Theta(x, y) of the covers it collapses, and these join-irreducibles are
join-prime because Con L is distributive, so a join of congruences collapses
exactly the covers that one of them collapses.  Con L is thus built from one
principal congruence per cover, with join OR and order mask inclusion.

The same join-primeness builds alternating chains: every cover x < y in
[u, v] has Theta(x, y) <= Theta(u, v), so when Theta(u, v) <= alpha v beta
one of alpha and beta collapses each cover of a maximal chain from u to v.
Also here: the monotonization transform, congruence maps induced by lattice
homomorphisms, and the correspondence between congruences and neutral ideals
of a sectionally complemented modular lattice.  Neutral ideals are the
principal ideals closed under the lattice's perspectivity rows, and the
neutral ideal below a corresponds to Theta(0, a) in the principal table.
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

from .lattice import (
    FiniteLattice,
    LatticeHom,
    _bits,
    check_hom,
    is_modular,
    is_sectionally_complemented,
)
from .semilattice import FiniteJoinSemilattice, SemilatticeHom


class HostMismatch(ValueError):
    """Operands live on different lattices."""


class NotAHom(ValueError):
    """The supplied map is not a lattice homomorphism."""


class NotJoined(ValueError):
    """Theta(u, v) is not below the join of the given congruences."""


class NotAnIdeal(ValueError):
    """The subset is not a nonempty, downward-closed, join-closed set."""


class HypothesesFail(ValueError):
    """The lattice is not sectionally complemented and modular."""


class Congruence:
    """A lattice congruence, as the representative array of its partition."""

    __slots__ = ("host", "rep")

    def __init__(self, host: FiniteLattice, rep: Sequence[int]):
        self.host = host
        self.rep = tuple(rep)

    def same(self, x: int, y: int) -> bool:
        return self.rep[x] == self.rep[y]

    def blocks(self) -> tuple[tuple[int, ...], ...]:
        by_rep: dict[int, list[int]] = {}
        for x, r in enumerate(self.rep):
            by_rep.setdefault(r, []).append(x)
        return tuple(tuple(by_rep[r]) for r in sorted(by_rep))

    @property
    def num_blocks(self) -> int:
        return len(set(self.rep))

    def refines(self, other: "Congruence") -> bool:
        """self <= other in Con L: every block of self lies in a block of other."""
        if other.host is not self.host:
            raise HostMismatch("congruences on different lattices")
        orep, srep = other.rep, self.rep
        return all(orep[x] == orep[srep[x]] for x in range(len(srep)))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Congruence)
            and other.host is self.host
            and other.rep == self.rep
        )

    def __hash__(self) -> int:
        return hash((id(self.host), self.rep))

    def __repr__(self) -> str:
        return f"Congruence({self.blocks()})"


def congruence_from_blocks(L: FiniteLattice, blocks: Iterable[Iterable[int]]) -> Congruence:
    """Build a congruence from an explicit partition, validating compatibility."""
    rep = [-1] * L.n
    for block in blocks:
        block = sorted(block)
        for x in block:
            if not 0 <= x < L.n or rep[x] != -1:
                raise ValueError("not a partition of 0..n-1")
            rep[x] = block[0]
    if -1 in rep:
        raise ValueError("partition does not cover all elements")
    theta = Congruence(L, rep)
    jn, mt = L.join_rows, L.meet_rows
    for x in range(L.n):
        rx = rep[x]
        for z in range(L.n):
            if rep[jn[x][z]] != rep[jn[rx][z]] or rep[mt[x][z]] != rep[mt[rx][z]]:
                raise ValueError("partition is not compatible with join/meet")
    return theta


def _closure(L: FiniteLattice, seed_pairs: Iterable[tuple[int, int]]) -> Congruence:
    # least congruence identifying the seed pairs: union-find, then force
    # compatibility by re-merging joins and meets against every element
    n = L.n
    jn, mt = L.join_rows, L.meet_rows
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    queue: list[tuple[int, int]] = []

    def union(x: int, y: int) -> None:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[ry] = rx
            queue.append((x, y))

    for u, v in seed_pairs:
        union(u, v)
    while queue:
        x, y = queue.pop()
        jx, jy, mx, my = jn[x], jn[y], mt[x], mt[y]
        for z in range(n):
            union(jx[z], jy[z])
            union(mx[z], my[z])
    mins: dict[int, int] = {}
    for x in range(n):
        r = find(x)
        if r not in mins or x < mins[r]:
            mins[r] = x
    return Congruence(L, tuple(mins[find(x)] for x in range(n)))


def principal_congruence(L: FiniteLattice, u: int, v: int) -> Congruence:
    """Theta(u, v): the least congruence identifying u and v."""
    if not (0 <= u < L.n and 0 <= v < L.n):
        raise IndexError(f"({u}, {v}) outside 0..{L.n - 1}")
    return _closure(L, [(u, v)])


def congruence_join(t1: Congruence, t2: Congruence) -> Congruence:
    """Least congruence containing both: transitive closure of the block
    union followed by compatibility closure."""
    if t1.host is not t2.host:
        raise HostMismatch("congruences on different lattices")
    n = t1.host.n
    pairs = [(x, t1.rep[x]) for x in range(n)] + [(x, t2.rep[x]) for x in range(n)]
    return _closure(t1.host, pairs)


def congruence_meet(t1: Congruence, t2: Congruence) -> Congruence:
    """Common refinement; an intersection of congruences is a congruence."""
    if t1.host is not t2.host:
        raise HostMismatch("congruences on different lattices")
    n = t1.host.n
    mins: dict[tuple[int, int], int] = {}
    for x in range(n):
        mins.setdefault((t1.rep[x], t2.rep[x]), x)
    return Congruence(t1.host, tuple(mins[(t1.rep[x], t2.rep[x])] for x in range(n)))


class CongruenceLattice:
    """Con L with precomputed order, operation tables and principal table.

    Congruences are indexed 0..k-1 by (number of blocks, rep) descending: the
    identity congruence first and the all-collapsing congruence last.
    ``masks[i]`` is the set of covers (bit j for ``covers[j]``) that
    congruence i collapses, so ``masks`` ordered by inclusion is Con L and
    join is OR.  ``principal[u][v]`` is the index of Theta(u, v).
    ``as_lattice`` is the containment order as a FiniteLattice (same
    indexing), ``as_semilattice`` the corresponding join-semilattice.
    """

    def __init__(self, host: FiniteLattice):
        self.host = host
        n = host.n
        self.covers = covers = host.covers()
        gens = []
        for x, y in covers:
            theta = principal_congruence(host, x, y)
            gens.append(sum(1 << j for j, c in enumerate(covers) if theta.same(*c)))
        # every congruence is the join of the Theta(x, y) of the covers it
        # collapses, and join is OR, so Con L is the OR-closure of gens
        found = {0}
        for g in set(gens):
            found |= {m | g for m in found}
        congs = {m: Congruence(host, _cover_blocks(n, covers, m)) for m in found}
        masks = sorted(
            found, key=lambda m: (congs[m].num_blocks, congs[m].rep), reverse=True
        )
        self.masks: tuple[int, ...] = tuple(masks)
        self.congruences: tuple[Congruence, ...] = tuple(congs[m] for m in masks)
        self.index = {t.rep: i for i, t in enumerate(self.congruences)}
        self.as_lattice = FiniteLattice(
            sum(1 << j for j, mj in enumerate(masks) if mj & ~mi == 0) for mi in masks
        )
        # Theta(u, v) = Theta(u ^ v, u v v) is the join of the Theta(x, y) of
        # the covers x < y inside [u ^ v, u v v]
        at = {m: i for i, m in enumerate(masks)}
        up, down = host.up_bits, host.down_bits
        jn, mt = host.join_rows, host.meet_rows

        def theta_index(a: int, b: int) -> int:
            m = 0
            for g, (x, y) in zip(gens, covers):
                if up[a] >> x & 1 and down[b] >> y & 1:
                    m |= g
            return at[m]

        self.principal: tuple[tuple[int, ...], ...] = tuple(
            tuple(theta_index(mt[u][v], jn[u][v]) for v in range(n)) for u in range(n)
        )
        self.delta_index = self.as_lattice.bottom
        self.nabla_index = self.as_lattice.top

    def __len__(self) -> int:
        return len(self.congruences)

    def congruence_index(self, theta: Congruence) -> int:
        if theta.host is not self.host:
            raise HostMismatch("congruence on a different lattice")
        i = self.index.get(theta.rep)
        if i is None:
            raise ValueError(f"{theta!r} is not a congruence of its lattice")
        return i

    def below_join(self, u: int, v: int, alpha: Congruence, beta: Congruence) -> bool:
        """Theta(u, v) <= alpha v beta."""
        m = self.masks
        joined = m[self.congruence_index(alpha)] | m[self.congruence_index(beta)]
        return m[self.principal[u][v]] & ~joined == 0

    def join_decompositions(self):
        """Each (u, v, eps, fams) with u <= v, eps = Theta(u, v) and fams every
        (i0, i1) with alpha_i0 v alpha_i1 = eps, in ascending order."""
        up, S = self.host.up_bits, self.as_semilattice
        for u in range(self.host.n):
            for v in _bits(up[u]):
                eps = self.principal[u][v]
                yield u, v, eps, S.decompositions(eps)

    @cached_property
    def as_semilattice(self) -> FiniteJoinSemilattice:
        return FiniteJoinSemilattice.from_lattice(self.as_lattice)

    def __repr__(self) -> str:
        return f"CongruenceLattice(|Con|={len(self.congruences)})"


def _cover_blocks(n: int, covers: list[tuple[int, int]], mask: int) -> list[int]:
    # rep array of the congruence collapsing the covers in mask: its blocks
    # are intervals, so exactly the components of the collapsed covers.
    # Union-find keeps the least element of each component as its root.
    parent = list(range(n))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for j, (x, y) in enumerate(covers):
        if mask >> j & 1:
            rx, ry = find(x), find(y)
            parent[max(rx, ry)] = min(rx, ry)
    return [find(x) for x in range(n)]


def con_lattice(L: FiniteLattice) -> CongruenceLattice:
    """The congruence lattice of L, cached on the lattice object."""
    cached = getattr(L, "_con_lattice", None)
    if cached is None:
        cached = CongruenceLattice(L)
        L._con_lattice = cached
    return cached


# -- chains -------------------------------------------------------------------


@dataclass(frozen=True)
class Chain:
    """A fence of elements with one congruence label per step (None allowed:
    an unlabeled step)."""

    host: FiniteLattice
    elements: tuple[int, ...]
    labels: tuple[Congruence | None, ...]

    def __post_init__(self) -> None:
        if len(self.labels) != max(len(self.elements) - 1, 0):
            raise ValueError("need exactly one label per step")

    def validate(self) -> bool:
        """Steps are (weakly) increasing and lie in their labels."""
        e = self.elements
        for i, lab in enumerate(self.labels):
            if not self.host.le(e[i], e[i + 1]):
                return False
            if lab is not None and not lab.same(e[i], e[i + 1]):
                return False
        return True


def monotonize_chain(
    L: FiniteLattice,
    raw: Sequence[int],
    u: int,
    v: int,
    labels: Sequence[Congruence | None] | None = None,
) -> Chain:
    """Straighten a fence from u to v into a monotone chain in [u, v].

    Replaces w_i by join of (w_j v u) ^ v over j <= i, after forcing the
    endpoints to u and v.  Any congruence containing a step of the raw fence
    still contains the corresponding step of the output, so labels carry over.
    """
    if not L.le(u, v):
        raise ValueError(f"{u} is not below {v}")
    seq = list(raw)
    if len(seq) < 2:
        seq = [u] if u == v else [u, v]
    seq[0] = u
    seq[-1] = v
    jn, mt = L.join_rows, L.meet_rows
    out = []
    acc: int | None = None
    for t in seq:
        s = mt[jn[t][u]][v]
        acc = s if acc is None else jn[acc][s]
        out.append(acc)
    if labels is None:
        labels = (None,) * (len(out) - 1)
    return Chain(L, tuple(out), tuple(labels))


def alternating_chain(
    L: FiniteLattice, u: int, v: int, alpha: Congruence, beta: Congruence
) -> Chain:
    """A monotone chain u = w_0 <= ... <= w_2n = v inside [u, v] whose even
    steps lie in alpha and odd steps in beta.

    Exists whenever u <= v and Theta(u, v) <= alpha v beta.  The chain walks
    covers from u to v, each time to the first cover of the current element
    that lies below v.  Every cover x < y in [u, v] has
    Theta(x, y) <= Theta(u, v) <= alpha v beta, and Theta(x, y) is join-prime
    in the distributive Con L, so alpha or beta collapses it; the step takes
    alpha when alpha does.  Trivial steps (which lie in every congruence) are
    inserted to force strict alternation.
    """
    if alpha.host is not L or beta.host is not L:
        raise HostMismatch("congruences on a different lattice")
    if not L.le(u, v):
        raise NotJoined(f"{u} is not below {v}")
    if not con_lattice(L).below_join(u, v, alpha, beta):
        raise NotJoined("Theta(u, v) is not below alpha v beta")
    up, down = L.up_bits, L.down_bits
    elems, labels = [u], []
    x, expected = u, alpha
    while x != v:
        above = up[x] & down[v] & ~(1 << x)
        # a minimal element of (x, v] covers x
        y = next(y for y in _bits(above) if down[y] & above == 1 << y)
        lab = alpha if alpha.same(x, y) else beta
        if lab is not expected:
            elems.append(x)
            labels.append(expected)
        elems.append(y)
        labels.append(lab)
        expected = beta if lab is alpha else alpha
        x = y
    if len(labels) % 2 == 1:
        elems.append(v)
        labels.append(beta)
    return Chain(L, tuple(elems), tuple(labels))


# -- induced congruence maps ----------------------------------------------------


def induced_con_map(h: LatticeHom) -> SemilatticeHom:
    """The join-map Con(source) -> Con(target) sending Theta(u, v) to
    Theta(h(u), h(v)) and extended by joins.

    The extension sends theta to the congruence generated by the image pairs
    of the covers theta collapses, read off the principal and join tables of
    Con(target); this is monotone and join-preserving on all of Con(source),
    which is re-checked here.  Cached on h, so that the weak-distributivity
    verdict cached on the induced map is shared by every use of h.
    """
    cached = getattr(h, "_induced_con_map", None)
    if cached is not None:
        return cached
    if not check_hom(h):
        raise NotAHom("map does not preserve join and meet")
    conK = con_lattice(h.source)
    conL = con_lattice(h.target)
    f, pc = h.map, conL.principal
    mapping = [
        conL.as_lattice.join_all(
            pc[f[x]][f[y]] for j, (x, y) in enumerate(conK.covers) if m >> j & 1
        )
        for m in conK.masks
    ]
    jn_k = conK.as_lattice.join_rows
    jn_l = conL.as_lattice.join_rows
    k = len(conK)
    for i in range(k):
        for j in range(k):
            if mapping[jn_k[i][j]] != jn_l[mapping[i]][mapping[j]]:
                raise AssertionError("induced map failed to preserve joins")
    cached = SemilatticeHom(conK.as_semilattice, conL.as_semilattice, tuple(mapping))
    object.__setattr__(h, "_induced_con_map", cached)  # h is frozen
    return cached


# -- ideals and neutrality -------------------------------------------------------


def ideals(L: FiniteLattice) -> list[frozenset[int]]:
    """All ideals of L; in a finite lattice every ideal is principal."""
    return [frozenset(_bits(L.down_bits[a])) for a in range(L.n)]


def is_neutral_ideal(L: FiniteLattice, subset: Iterable[int]) -> bool:
    """An ideal is neutral iff it is closed under perspectivity.  A down-closed
    I is join closed iff it is the down-set of its join, so the ideal tests and
    the closure test on the rows of ``L.perspective_bits`` are bitmask tests."""
    I = frozenset(subset)
    if not I or any(not 0 <= x < L.n for x in I):
        raise NotAnIdeal("not a nonempty subset of the lattice")
    mask, down = sum(1 << x for x in I), L.down_bits
    if any(down[x] & ~mask for x in I):
        raise NotAnIdeal("subset is not downward closed")
    if down[L.join_all(I)] != mask:
        raise NotAnIdeal("subset is not join closed")
    rows = L.perspective_bits
    return all(rows[x] & ~mask == 0 for x in I)


def neutral_ideals(L: FiniteLattice) -> list[frozenset[int]]:
    """All neutral ideals, as element sets."""
    return [I for I in ideals(L) if is_neutral_ideal(L, I)]


@dataclass(frozen=True)
class ConNidCorrespondence:
    """The inverse bijections between Con L and the neutral ideals of L."""

    host: FiniteLattice
    to_ideal: tuple[frozenset[int], ...]
    from_ideal: dict[frozenset[int], int]


def con_nid_iso(L: FiniteLattice) -> ConNidCorrespondence:
    """For a sectionally complemented modular lattice: theta maps to the
    block of bottom, a neutral ideal maps to the congruence it generates,
    and the two maps are verified mutually inverse and order-preserving.

    A neutral ideal I is the down-set of a = join of I, and every x <= a has
    Theta(0, x) <= Theta(0, a), so I generates Theta(0, a), read off the
    principal table of Con L."""
    if not (is_sectionally_complemented(L) and is_modular(L)):
        raise HypothesesFail("lattice is not sectionally complemented and modular")
    con = con_lattice(L)
    bot = L.bottom
    to_ideal = [
        frozenset(x for x in range(L.n) if theta.same(x, bot))
        for theta in con.congruences
    ]
    nid = set(neutral_ideals(L))
    if set(to_ideal) != nid or len(set(to_ideal)) != len(to_ideal):
        raise AssertionError("zero-block map is not a bijection onto neutral ideals")
    from_ideal = {I: con.principal[bot][L.join_all(I)] for I in nid}
    if any(from_ideal[I] != i for i, I in enumerate(to_ideal)):
        raise AssertionError("correspondence maps are not mutually inverse")
    le, pairs = con.as_lattice.le, itertools.product(enumerate(to_ideal), repeat=2)
    if any(le(i, j) != (I <= J) for (i, I), (j, J) in pairs):
        raise AssertionError("correspondence is not an order isomorphism")
    return ConNidCorrespondence(L, tuple(to_ideal), from_ideal)
