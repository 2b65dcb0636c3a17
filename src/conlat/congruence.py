"""Congruences of a finite lattice and the congruence lattice Con L.

A congruence is an equivalence relation compatible with join and meet; it is
stored as a class-representative array (each element mapped to the least
member of its block).  Con L is generated by the principal congruences
Theta(u, v) under join; for a finite lattice this recovers every congruence,
and Con L is a distributive lattice (here also a finite join-semilattice, so
compact congruences are simply all congruences).

Also here: alternating chains between congruent elements, the monotonization
transform, congruence maps induced by lattice homomorphisms, and the
correspondence between congruences and neutral ideals of a sectionally
complemented modular lattice.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .lattice import (
    FiniteLattice,
    LatticeHom,
    are_perspective,
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

    def to_json(self) -> list[list[int]]:
        return [list(b) for b in self.blocks()]

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

    Congruences are indexed 0..k-1, the identity congruence first and the
    all-collapsing congruence last; ``principal[u][v]`` is the index of
    Theta(u, v).  ``as_lattice`` is the containment order as a FiniteLattice
    (same indexing), ``as_semilattice`` the corresponding join-semilattice.
    """

    def __init__(self, host: FiniteLattice):
        self.host = host
        n = host.n
        found: dict[tuple[int, ...], Congruence] = {}
        delta = Congruence(host, tuple(range(n)))
        found[delta.rep] = delta
        principals: dict[tuple[int, int], Congruence] = {}
        for u in range(n):
            for v in range(u + 1, n):
                th = principal_congruence(host, u, v)
                principals[(u, v)] = th
                found.setdefault(th.rep, th)
        # close under binary join; every congruence is a join of principals
        work = list(found.values())
        while work:
            t1 = work.pop()
            for t2 in list(found.values()):
                j = congruence_join(t1, t2)
                if j.rep not in found:
                    found[j.rep] = j
                    work.append(j)
        congs = sorted(found.values(), key=lambda t: (t.num_blocks, t.rep), reverse=True)
        self.congruences: tuple[Congruence, ...] = tuple(congs)
        self.index: dict[tuple[int, ...], int] = {
            t.rep: i for i, t in enumerate(congs)
        }
        k = len(congs)
        leq = np.zeros((k, k), dtype=bool)
        for i, ti in enumerate(congs):
            for j, tj in enumerate(congs):
                leq[i, j] = ti.refines(tj)
        self.as_lattice = FiniteLattice(leq)
        pc = [[0] * n for _ in range(n)]
        for u in range(n):
            for v in range(n):
                if u != v:
                    a, b = min(u, v), max(u, v)
                    pc[u][v] = self.index[principals[(a, b)].rep]
        self.principal: tuple[tuple[int, ...], ...] = tuple(tuple(r) for r in pc)
        self.delta_index = self.as_lattice.bottom
        self.nabla_index = self.as_lattice.top

    def __len__(self) -> int:
        return len(self.congruences)

    def congruence_index(self, theta: Congruence) -> int:
        if theta.host is not self.host:
            raise HostMismatch("congruence on a different lattice")
        return self.index[theta.rep]

    @cached_property
    def as_semilattice(self) -> FiniteJoinSemilattice:
        return FiniteJoinSemilattice(self.as_lattice.join, validate=False)

    def __repr__(self) -> str:
        return f"CongruenceLattice(|Con|={len(self.congruences)})"


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

    def validate(self, *, monotone: bool = True) -> bool:
        """Steps are (weakly) increasing and lie in their labels."""
        e = self.elements
        for i, lab in enumerate(self.labels):
            if monotone and not self.host.leq[e[i], e[i + 1]]:
                return False
            if lab is not None and not lab.same(e[i], e[i + 1]):
                return False
        return True

    def to_json(self) -> dict:
        labels = []
        seen: list[Congruence] = []
        for lab in self.labels:
            if lab is None:
                labels.append(None)
                continue
            if lab not in seen:
                seen.append(lab)
            labels.append(seen.index(lab))
        return {
            "elements": list(self.elements),
            "labels": labels,
            "label_blocks": [t.to_json() for t in seen],
        }


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
    if not L.leq[u, v]:
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

    Exists whenever u <= v and Theta(u, v) <= alpha v beta: u and v are then
    linked by single-congruence steps, which are monotonized and padded with
    trivial steps (which lie in every congruence) to force strict alternation.
    """
    if alpha.host is not L or beta.host is not L:
        raise HostMismatch("congruences on a different lattice")
    if not L.leq[u, v]:
        raise NotJoined(f"{u} is not below {v}")
    if not principal_congruence(L, u, v).refines(congruence_join(alpha, beta)):
        raise NotJoined("Theta(u, v) is not below alpha v beta")
    if u == v:
        return Chain(L, (u,), ())
    # BFS over single-congruence steps
    prev: dict[int, tuple[int, Congruence]] = {u: (-1, alpha)}
    frontier = [u]
    while frontier and v not in prev:
        nxt = []
        for x in frontier:
            for y in range(L.n):
                if y == x or y in prev:
                    continue
                if alpha.same(x, y):
                    prev[y] = (x, alpha)
                elif beta.same(x, y):
                    prev[y] = (x, beta)
                else:
                    continue
                nxt.append(y)
        frontier = nxt
    if v not in prev:
        raise AssertionError("alpha/beta steps do not reach v despite the precondition")
    path = [v]
    labs: list[Congruence] = []
    x = v
    while x != u:
        p, lab = prev[x]
        labs.append(lab)
        path.append(p)
        x = p
    path.reverse()
    labs.reverse()
    mono = monotonize_chain(L, path, u, v, labs)
    # pad with trivial steps so labels read alpha, beta, alpha, beta, ...
    elems = [mono.elements[0]]
    labels: list[Congruence] = []
    expected = alpha
    for e, lab in zip(mono.elements[1:], mono.labels):
        while lab is not expected:
            elems.append(elems[-1])
            labels.append(expected)
            expected = beta if expected is alpha else alpha
        elems.append(e)
        labels.append(lab)
        expected = beta if expected is alpha else alpha
    if len(labels) % 2 == 1:
        elems.append(elems[-1])
        labels.append(beta)
    return Chain(L, tuple(elems), tuple(labels))


# -- induced congruence maps ----------------------------------------------------


def induced_con_map(h: LatticeHom) -> SemilatticeHom:
    """The join-map Con(source) -> Con(target) sending Theta(u, v) to
    Theta(h(u), h(v)) and extended by joins.

    The extension sends theta to the congruence generated by the image pairs
    of theta; this is monotone and join-preserving on all of Con(source),
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
    f = h.map
    mapping = []
    for theta in conK.congruences:
        pairs = [(f[x], f[theta.rep[x]]) for x in range(h.source.n)]
        mapping.append(conL.index[_closure(h.target, pairs).rep])
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
    return [frozenset(x for x in range(L.n) if L.leq[x, a]) for a in range(L.n)]


def is_neutral_ideal(L: FiniteLattice, subset: Iterable[int]) -> bool:
    """An ideal is neutral iff it is closed under perspectivity."""
    I = frozenset(subset)
    if not I or any(not 0 <= x < L.n for x in I):
        raise NotAnIdeal("not a nonempty subset of the lattice")
    for x in I:
        for y in range(L.n):
            if L.leq[y, x] and y not in I:
                raise NotAnIdeal("subset is not downward closed")
        for y in I:
            if L.join_rows[x][y] not in I:
                raise NotAnIdeal("subset is not join closed")
    return all(
        y in I for x in I for y in range(L.n) if are_perspective(L, x, y)
    )


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
    and the two maps are verified mutually inverse and order-preserving."""
    if not (is_sectionally_complemented(L) and is_modular(L)):
        raise HypothesesFail("lattice is not sectionally complemented and modular")
    con = con_lattice(L)
    bot = L.bottom
    to_ideal = []
    for theta in con.congruences:
        block = frozenset(x for x in range(L.n) if theta.same(x, bot))
        if not is_neutral_ideal(L, block):
            raise AssertionError("zero block is not a neutral ideal")
        to_ideal.append(block)
    nid = set(neutral_ideals(L))
    if set(to_ideal) != nid or len(set(to_ideal)) != len(to_ideal):
        raise AssertionError("zero-block map is not a bijection onto neutral ideals")
    from_ideal = {}
    for I in nid:
        theta = _closure(L, [(bot, x) for x in I])
        from_ideal[I] = con.index[theta.rep]
    for i, I in enumerate(to_ideal):
        if from_ideal[I] != i:
            raise AssertionError("correspondence maps are not mutually inverse")
    leq = con.as_lattice.leq
    items = list(enumerate(to_ideal))
    for i, I in items:
        for j, J in items:
            if bool(leq[i, j]) != (I <= J):
                raise AssertionError("correspondence is not an order isomorphism")
    return ConNidCorrespondence(L, tuple(to_ideal), from_ideal)
