"""Congruences of a finite lattice and the congruence lattice Con L.

A congruence is an equivalence relation compatible with join and meet; it is
stored as the bitmask of the covers x < y that it collapses, and nothing
else.  Its blocks are intervals (Gratzer, The Congruences of a Finite
Lattice, 2016), so the mask determines them by one rule: x is the top of
its block unless some upper cover x < y is collapsed, and then x shares the
top of y.  One walk from the top down reads every block top off the mask,
and the rep of x (the least member of its block) is the least element with
the top of x.  The congruence generated by a set of covers collapses
exactly the closure of that set under the prime-interval step: a collapsed
cover x < y forces every cover inside [x ^ z, y ^ z] and [x v z, y v z].
The mask is exact in Con L too: a congruence is the join of the Theta(x, y)
of the covers it collapses, and these join-irreducibles are join-prime
because Con L is distributive, so a join of congruences collapses exactly
the covers that one of them collapses.  Join is OR of masks, and meet, the
intersection, is AND.  Con L is thus the OR-closure of the closures of
single covers, and a family of sets that holds 0 and is closed under | is
a lattice under inclusion.  So :class:`CongruenceLattice`, a
:class:`~conlat.lattice.FiniteLattice` on the congruence indices and the
join-semilattice that the refinement and URP checks read, needs no lattice
check: its order and join table are read off the masks on first use.

The same join-primeness builds alternating chains: every cover x < y in
[u, v] has Theta(x, y) <= Theta(u, v), so when Theta(u, v) <= alpha v beta
one of alpha and beta collapses each cover of a maximal chain from u to v.
The masks also certify that Con L is distributive: distinct and closed
under | and &, they form a ring of sets, a distributive lattice, and a
distributive lattice has the refinement property with the square
c_xy = a_x & b_y (Gratzer, Lattice Theory: Foundation, 2011).
:func:`certifies_ring_of_sets` checks this of the masks alone, in O(k^2)
integer operations and with no table of Con L.

Also here: the monotonization transform, congruence maps induced by lattice
homomorphisms, and the correspondence between congruences and neutral ideals
of a sectionally complemented modular lattice.  Neutral ideals are the
principal ideals closed under the lattice's perspectivity rows, and the
neutral ideal below a corresponds to Theta(0, a) in the principal table.
"""
from __future__ import annotations

import itertools
from functools import cached_property
from typing import Iterable, Iterator, NamedTuple, Sequence

from .lattice import (
    FiniteLattice,
    LatticeHom,
    _bits,
    _check_elements,
    _is_int,
    _once,
    _ups_from_downs,
    check_hom,
    is_modular,
    is_sectionally_complemented,
)
from .semilattice import RefinementResult, SemilatticeHom, has_refinement_property


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
    """A lattice congruence, as the bitmask of the host covers it collapses
    (bit j for ``host.covers()[j]``): ``==``, ``hash`` and :meth:`refines`
    compare masks.  ``rep`` maps each element to the least member of its
    block, read off the mask by one walk of :func:`_blocks` on first use.
    The masks accepted are exactly those :func:`_closure` fixes."""

    __slots__ = ("host", "mask", "_rep")

    def __init__(self, host: FiniteLattice, mask: int):
        k = len(_cover_tables(host)[2])
        if not _is_int(mask) or mask < 0 or mask >> k or _closure(host, mask) != mask:
            raise ValueError(f"{mask!r} is not the cover mask of a congruence")
        self.host, self.mask = host, mask

    @classmethod
    def _of(cls, host: FiniteLattice, mask: int) -> Congruence:
        # the trusted constructor, for masks closed by construction
        theta = cls.__new__(cls)
        theta.host, theta.mask = host, mask
        return theta

    @property
    def rep(self) -> tuple[int, ...]:
        if not hasattr(self, "_rep"):
            self._rep = next(_blocks(self.host, [self.mask]))[0]
        return self._rep

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
        """self <= other in Con L: other collapses every cover self collapses."""
        if other.host is not self.host:
            raise HostMismatch("congruences on different lattices")
        return self.mask & ~other.mask == 0

    def __eq__(self, other: object) -> bool:
        same_host = isinstance(other, Congruence) and other.host is self.host
        return same_host and other.mask == self.mask

    def __hash__(self) -> int:
        return hash((id(self.host), self.mask))

    def __repr__(self) -> str:
        return f"Congruence({self.blocks()})"


def congruence_from_blocks(L: FiniteLattice, blocks: Iterable[Iterable[int]]) -> Congruence:
    """Build a congruence from an explicit partition of 0..n-1 into nonempty
    blocks, validating compatibility."""
    blocks = [list(block) for block in blocks]
    elements = [x for block in blocks for x in block]
    if not all(blocks) or not all(map(_is_int, elements)) or sorted(elements) != [*range(L.n)]:
        raise ValueError("not a partition of 0..n-1 into nonempty blocks")
    rep = [0] * L.n
    for block in blocks:
        for x in block:
            rep[x] = min(block)
    # a congruence has interval blocks, so it is the congruence generated by
    # the covers it collapses, and that one collapses no other cover
    covers = _block_walk(L)[0]
    theta = Congruence._of(L, sum(1 << j for j, (x, y) in enumerate(covers) if rep[x] == rep[y]))
    if _closure(L, theta.mask) != theta.mask or theta.rep != tuple(rep):
        raise ValueError("partition is not compatible with join/meet")
    return theta


@_once
def _block_walk(L: FiniteLattice) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    # (covers, walk), one table per lattice: the covers of L.covers(), and
    # each x with the set of its covers x < y, by decreasing down-set
    covers, down, ups = L.covers(), L.down_bits, [0] * L.n
    for j, (x, _) in enumerate(covers):
        ups[x] |= 1 << j
    return covers, [(x, ups[x]) for x in sorted(range(L.n), key=lambda x: -down[x].bit_count())]


@_once
def _cover_tables(L: FiniteLattice) -> tuple[tuple[int, ...], tuple[int, ...], list[int]]:
    # (above, below, steps) over the covers j = (x, y) of L.covers(), one
    # table per lattice: bit j of above[a] is set iff a <= x, of below[b] iff
    # y <= b, so the covers inside [a, b] are above[a] & below[b]; steps[j]
    # holds the covers inside [x ^ z, y ^ z] and [x v z, y v z] for every z
    covers, jn, mt = _block_walk(L)[0], L.join_rows, L.meet_rows
    above, below = [0] * L.n, [0] * L.n
    for j, (x, y) in enumerate(covers):
        for a in _bits(L.down_bits[x]):
            above[a] |= 1 << j
        for b in _bits(L.up_bits[y]):
            below[b] |= 1 << j
    steps = []
    for x, y in covers:
        step = 0
        for mxz, myz, jxz, jyz in zip(mt[x], mt[y], jn[x], jn[y]):
            step |= above[mxz] & below[myz] | above[jxz] & below[jyz]
        steps.append(step)
    return tuple(above), tuple(below), steps


def _closure(L: FiniteLattice, mask: int) -> int:
    # the covers collapsed by the congruence generated by the covers in mask.
    # A collapsed cover forces its step; congruence blocks are intervals, so
    # the fixed point collapses exactly these covers
    steps = _cover_tables(L)[2]
    todo = mask
    while todo:
        low = todo & -todo
        new = steps[low.bit_length() - 1] & ~mask
        mask |= new
        todo = (todo ^ low) | new
    return mask


def _blocks(
    L: FiniteLattice, masks: Iterable[int]
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    # the (rep, top) arrays of each mask's congruence, by the rule of the
    # module docstring: the walk by decreasing down-set reads the top of any
    # collapsed cover x < y before x
    covers, walk = _block_walk(L)
    for mask in masks:
        top = list(range(L.n))
        for x, up in walk:
            if mask & up:
                top[x] = top[covers[(mask & up).bit_length() - 1][1]]
        least: dict[int, int] = {}
        yield tuple([least.setdefault(t, x) for x, t in enumerate(top)]), tuple(top)


def principal_congruence(L: FiniteLattice, u: int, v: int) -> Congruence:
    """Theta(u, v): the least congruence identifying u and v, the closure
    of the covers inside [u ^ v, u v v]."""
    _check_elements(L, u, v)
    above, below, _ = _cover_tables(L)
    return Congruence._of(L, _closure(L, above[L.meet_rows[u][v]] & below[L.join_rows[u][v]]))


def congruence_join(t1: Congruence, t2: Congruence) -> Congruence:
    """Least congruence containing both: by join-primeness (module
    docstring) it collapses exactly the covers either collapses."""
    if t1.host is not t2.host:
        raise HostMismatch("congruences on different lattices")
    return Congruence._of(t1.host, t1.mask | t2.mask)


def congruence_meet(t1: Congruence, t2: Congruence) -> Congruence:
    """Common refinement: the intersection, which collapses exactly the
    covers both collapse."""
    if t1.host is not t2.host:
        raise HostMismatch("congruences on different lattices")
    return Congruence._of(t1.host, t1.mask & t2.mask)


class CongruenceLattice(FiniteLattice):
    """Con L as a :class:`FiniteLattice` on the congruence indices, held as
    cover masks: congruence i collapses the host covers in ``masks[i]`` (bit
    j for ``host_covers[j]``), and ``mask_index`` inverts ``masks``.
    Indices run by (number of blocks, rep) descending: ``bottom`` (0) is the
    identity, ``top`` (k - 1) collapses everything.  Built on first use,
    with no lattice check: ``down_bits`` by mask inclusion, ``up_bits``,
    ``join_rows`` by OR, the inherited ``meet_rows`` read off ``down_bits``,
    ``congruences[i]`` (the :class:`Congruence` with mask ``masks[i]``),
    ``principal[u][v]`` (the index of Theta(u, v)) and ``tops[i][x]`` (the
    top of x's block in congruence i, by the walk of :func:`_blocks`).
    Join is OR, so :func:`certifies_ring_of_sets` reads only ``masks``."""

    def __init__(self, host: FiniteLattice):
        self.host = host
        self.host_covers = covers = _block_walk(host)[0]
        gens = [principal_congruence(host, x, y).mask for x, y in covers]
        # Con L is the OR-closure of the Theta(x, y) of covers (module docstring)
        found = {0}
        for g in set(gens):
            found |= {m | g for m in found}
        keyed = [(len(set(rep)), rep, m) for m, (rep, _) in zip(found, _blocks(host, found))]
        self.masks: tuple[int, ...] = tuple(m for *_, m in sorted(keyed, reverse=True))
        self.mask_index = {m: i for i, m in enumerate(self.masks)}
        self.n, self.bottom, self.top = len(self.masks), 0, len(self.masks) - 1
        self._gens = gens

    @cached_property
    def down_bits(self) -> tuple[int, ...]:
        masks = self.masks
        return tuple(sum(1 << j for j, mj in enumerate(masks) if mj & ~mi == 0) for mi in masks)

    @cached_property
    def up_bits(self) -> tuple[int, ...]:
        return _ups_from_downs(self.down_bits)

    @cached_property
    def join_rows(self) -> tuple[tuple[int, ...], ...]:
        at, masks = self.mask_index.__getitem__, self.masks
        return tuple(tuple(map(at, map(m.__or__, masks))) for m in masks)

    @cached_property
    def congruences(self) -> tuple[Congruence, ...]:
        return tuple(Congruence._of(self.host, m) for m in self.masks)

    @cached_property
    def principal(self) -> tuple[tuple[int, ...], ...]:
        # Theta(u, v) = Theta(u ^ v, u v v) is the join of the Theta(x, y) of
        # the covers x < y inside [u ^ v, u v v]
        host, gens, at = self.host, self._gens, self.mask_index
        (above, below, _), jn, mt = _cover_tables(host), host.join_rows, host.meet_rows

        def theta_index(a: int, b: int) -> int:
            m = 0
            for j in _bits(above[a] & below[b]):
                m |= gens[j]
            return at[m]

        rng = range(host.n)
        return tuple(tuple(theta_index(mt[u][v], jn[u][v]) for v in rng) for u in rng)

    @cached_property
    def tops(self) -> tuple[tuple[int, ...], ...]:
        return tuple(top for _, top in _blocks(self.host, self.masks))

    def __len__(self) -> int:
        return self.n

    def congruence_index(self, theta: Congruence) -> int:
        if theta.host is not self.host:
            raise HostMismatch("congruence on a different lattice")
        return self.mask_index[theta.mask]

    def below_join(self, u: int, v: int, alpha: Congruence, beta: Congruence) -> bool:
        """Theta(u, v) <= alpha v beta."""
        _check_elements(self.host, u, v)
        if alpha.host is not self.host or beta.host is not self.host:
            raise HostMismatch("congruences on a different lattice")
        return self.masks[self.principal[u][v]] & ~(alpha.mask | beta.mask) == 0

    def join_decompositions(self):
        """Each (u, v, eps, fams) with u <= v, eps = Theta(u, v) and fams every
        (i0, i1) with alpha_i0 v alpha_i1 = eps, in ascending order."""
        up = self.host.up_bits
        for u in range(self.host.n):
            for v in _bits(up[u]):
                eps = self.principal[u][v]
                yield u, v, eps, self.decompositions(eps)

    def __repr__(self) -> str:
        return f"CongruenceLattice(|Con|={self.n})"


def certifies_ring_of_sets(masks: Sequence[int]) -> bool:
    """The masks are distinct and closed under | and &: a ring of sets, a
    distributive lattice under inclusion whose join is union and meet is
    intersection, in which every equation a0 | a1 = b0 | b1 is refined by
    the square c_xy = a_x & b_y.  Reads nothing but the masks."""
    ring = set(masks)
    return len(ring) == len(masks) and all(
        a | b in ring and a & b in ring for i, a in enumerate(masks) for b in masks[:i]
    )


def refinement_by_certificate(con: CongruenceLattice) -> RefinementResult:
    """The refinement property of Con L: it holds when ``con.masks`` form a
    ring of sets, since Con L joins by OR, and otherwise the literal scan of
    :func:`has_refinement_property` decides it and reports its first
    counterexample."""
    if certifies_ring_of_sets(con.masks):
        return RefinementResult(True, None)
    return has_refinement_property(con)


@_once
def con_lattice(L: FiniteLattice) -> CongruenceLattice:
    """The congruence lattice of L, cached on L as ``_con_lattice``."""
    return CongruenceLattice(L)


# -- chains -------------------------------------------------------------------


class _ChainFields(NamedTuple):
    host: FiniteLattice
    elements: tuple[int, ...]
    labels: tuple[Congruence | None, ...]


class Chain(_ChainFields):
    """A fence of elements with one congruence label per step (None allowed:
    an unlabeled step)."""

    __slots__ = ()

    def __new__(
        cls,
        host: FiniteLattice,
        elements: tuple[int, ...],
        labels: tuple[Congruence | None, ...],
    ) -> Chain:
        if len(labels) != max(len(elements) - 1, 0):
            raise ValueError("need exactly one label per step")
        return super().__new__(cls, host, elements, labels)

    def validate(self) -> bool:
        """Steps are (weakly) increasing and lie in their labels; a label
        on another lattice raises :class:`HostMismatch`."""
        e = self.elements
        _check_elements(self.host, *e)
        if any(lab is not None and lab.host is not self.host for lab in self.labels):
            raise HostMismatch("labels on a different lattice")
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
    seq = list(raw)
    _check_elements(L, u, v, *seq)
    if not L.le(u, v):
        raise ValueError(f"{u} is not below {v}")
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


@_once
def induced_con_map(h: LatticeHom) -> SemilatticeHom:
    """The join-map Con(source) -> Con(target) sending Theta(u, v) to
    Theta(h(u), h(v)) and extended by joins.

    The extension sends the congruence with cover mask m to the join of the
    Theta(f x, f y) over the covers x < y in m, read off the principal and
    join tables of Con(target).  It preserves joins by construction: join in
    Con(source) is OR of masks, so the covers of mask(i v j) are those of
    mask(i) together with those of mask(j), and a join over that union is
    mapping[i] v mapping[j].  Cached on h, so that the weak-distributivity
    verdict cached on the induced map is shared by every use of h.
    """
    if not check_hom(h):
        raise NotAHom("map does not preserve join and meet")
    conK = con_lattice(h.source)
    conL = con_lattice(h.target)
    f, pc = h.map, conL.principal
    mapping = [
        conL.join_all(
            pc[f[x]][f[y]] for j, (x, y) in enumerate(conK.host_covers) if m >> j & 1
        )
        for m in conK.masks
    ]
    return SemilatticeHom(conK, conL, tuple(mapping))


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


class ConNidCorrespondence(NamedTuple):
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
    # the block of bottom is the interval below its top
    to_ideal = [frozenset(_bits(L.down_bits[top[bot]])) for top in con.tops]
    nid = set(neutral_ideals(L))
    if set(to_ideal) != nid or len(set(to_ideal)) != len(to_ideal):
        raise AssertionError("zero-block map is not a bijection onto neutral ideals")
    from_ideal = {I: con.principal[bot][L.join_all(I)] for I in nid}
    if any(from_ideal[I] != i for i, I in enumerate(to_ideal)):
        raise AssertionError("correspondence maps are not mutually inverse")
    le, pairs = con.le, itertools.product(enumerate(to_ideal), repeat=2)
    if any(le(i, j) != (I <= J) for (i, I), (j, J) in pairs):
        raise AssertionError("correspondence is not an order isomorphism")
    return ConNidCorrespondence(L, tuple(to_ideal), from_ideal)
