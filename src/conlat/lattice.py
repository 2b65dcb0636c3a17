"""Finite bounded lattices with explicit order and operation tables.

Elements are the integers 0..n-1.  The order is stored as the down-set and
up-set bitmask of every element, and join/meet as full n x n element tables
built on first use, so every lattice operation is a bit test or a table
lookup.  Construction needs no table: a finite poset with a top in which
every pair has a meet is a lattice, and the meet of x and y is the element
whose down-set is down(x) & down(y).  Instances are immutable after
construction and safe to share.

Every lattice is a join-semilattice: :class:`FiniteLattice` subclasses
:class:`FiniteJoinSemilattice`, which is built from a join table alone.
The order test, joins and join decompositions are defined once, on the
down-sets and join table both classes keep, and reject ids outside 0..n-1
with :class:`IndexOutOfRange`; a lattice's greatest common lower bounds are
its meet table.  Con L (:class:`conlat.congruence.CongruenceLattice`) is a
further subclass.

The module also provides homomorphisms (:class:`SemilatticeHom` and its
subclass :class:`LatticeHom`, checked and enumerated by one rule each over
the tables a hom keeps), interval sublattices, the
standard structural predicates (modular, complemented, atomistic, ...),
the perspectivity relation (one bitmask row per element, built once per
lattice with one pass per axis), a canonical form for isomorphism testing,
and an exhaustive isomorph-free enumerator of all lattices up to a size bound.

The canonical form is the lexicographically least order matrix over the
relabelings that list the classes of an iterated colour refinement in rank
order.  Ranks refine the size of the down-set, so in rank order the matrix
is lower-triangular and each row depends only on the elements placed before
it.  A depth-first branch and bound therefore places one element per
position, follows only the candidates with the least row, and drops a branch
once its row exceeds the least row seen at that depth; twins (elements with
equal strict down- and up-sets) are placed in index order only, since
swapping them is an automorphism.  When every class of two or more elements
is one class of mutual twins, as in M_k, all relabelings differ by twin
swaps and give one matrix, so the rank order is the code and nothing is
searched.  The code is computed once per lattice.

Enumeration grows each meet-semilattice (the parent) by one maximal element
above an admissible down-set D, tries the down-sets in increasing order and
keeps the first candidate of every code.  Swapping two twins of the parent
is an automorphism of the parent, so it maps admissible down-sets to
admissible down-sets and candidates to isomorphic candidates.  A D that
holds a twin but not an earlier twin of the same class is mapped to a
smaller D' that came before it from the same parent, so D is never the
first of its class; it is skipped before it is coded, and every kept
representative stays the one an unpruned search keeps.  Two more candidates
of a parent P need no search:

* the top candidate, D = all of P: its code is P's with a top adjoined, and
  no other candidate of the level is isomorphic to it, since one that has a
  top has its new element as the top, so its parent is isomorphic to P;
* the atom candidate, D = {bottom}, when P has a maximal element x' that is
  not an atom: removing x' leaves a parent with one more atom than P, and of
  two codes of one size the one with more atoms is smaller (the rows of the
  bottom and the atoms agree, and the next row is an atom row against a row
  with an atom bit), so an earlier parent grew the class and the candidate
  is skipped uncoded.

Neither shortcut drops the first candidate of a class, so the levels are
those of the unpruned search.

The parents of a level are independent: each is grown on its own, and only
the choice of the first candidate of every code ties them together.  So a
level is cut into contiguous slices of its parents, each slice returns the
first candidate of every code it meets in encounter order (as the code, the
parent and the new element's down-set), and the slices are merged in parent
order, keeping the first candidate of each code.  That is the candidate the
sequential scan keeps, so the levels, codes and corpus bytes do not depend
on how the level was cut.  A level with at least
``_POOL_MIN_PARENTS`` parents is cut into a few slices per usable CPU and
grown in a pool of forked worker processes when more than one CPU is
usable and no other thread runs; smaller levels, and every level on one
CPU, are grown as a single slice in-process.  The pool lives only inside one call and is stopped
before the enumerator yields its second lattice.
"""
from __future__ import annotations

import os
from functools import cached_property, wraps
from itertools import combinations
from typing import Iterable, Iterator, NamedTuple

DEFAULT_ENUMERATION_BOUND = 8

# A level of the enumeration with at least this many parents is grown in a
# worker pool when more than one CPU is usable; each worker takes about
# _SLICES_PER_WORKER contiguous slices of the parents.
_POOL_MIN_PARENTS = 500
_SLICES_PER_WORKER = 4


class NotALattice(ValueError):
    """Some pair of elements has no least upper or greatest lower bound."""


class CyclicCovers(ValueError):
    """The cover relation contains a directed cycle."""


class IndexOutOfRange(IndexError):
    """An element index lies outside 0..n-1."""


class NotComparable(ValueError):
    """An interval [a, b] was requested with a not below b."""


class BoundExceeded(ValueError):
    """Requested enumeration size exceeds the configured bound."""


def _bits(mask: int) -> Iterator[int]:
    # iterate set bit positions, lowest first
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _is_int(x: object) -> bool:
    # bool is a subclass of int, but true and false are not element ids
    return isinstance(x, int) and not isinstance(x, bool)


def _check_elements(L: FiniteJoinSemilattice, *xs: int) -> None:
    # element ids index tables, where a negative id would wrap silently and
    # a bool pass for 0 or 1; exact ints skip _is_int (one call per step)
    n = L.n
    for x in xs:
        if (x.__class__ is not int and not _is_int(x)) or not 0 <= x < n:
            raise IndexOutOfRange(f"{xs} outside 0..{n - 1}")


def _bound_rows(sets: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
    # row x, column y: the element whose set (up-set or down-set) is
    # sets[x] & sets[y]
    bound = {m: z for z, m in enumerate(sets)}.__getitem__
    return tuple(tuple(map(bound, map(m.__and__, sets))) for m in sets)


def _ups_from_downs(downs: tuple[int, ...]) -> tuple[int, ...]:
    # bit x of ups[y] is set iff bit y of downs[x] is
    ups = [0] * len(downs)
    for x, d in enumerate(downs):
        bit = 1 << x
        while d:
            low = d & -d
            ups[low.bit_length() - 1] |= bit
            d ^= low
    return tuple(ups)


def _raise_first_unbounded_pair(down: tuple[int, ...], up: tuple[int, ...]) -> None:
    # NotALattice for the lexicographically first pair (x, y), x <= y as
    # indices, that has no least upper bound or no greatest lower bound
    lub, glb = set(up), set(down)
    n = len(down)
    for x in range(n):
        for y in range(x, n):
            if up[x] & up[y] not in lub:
                raise NotALattice(f"elements {x} and {y} have no least upper bound")
            if down[x] & down[y] not in glb:
                raise NotALattice(f"elements {x} and {y} have no greatest lower bound")
    raise AssertionError("every pair has both bounds")


class FiniteJoinSemilattice:
    """A finite join-semilattice on elements 0..n-1, given by its join table.

    The induced order is x <= y iff x + y = y.  A top element always exists
    (the join of everything); a bottom may or may not.  Every
    :class:`FiniteLattice` is one: the order queries below read
    ``down_bits`` and ``join_rows``, which both classes keep, and raise
    :class:`IndexOutOfRange` for an id outside 0..n-1.
    """

    def __init__(self, join):
        rows = tuple(map(tuple, join))
        n = len(rows)
        if any(len(r) != n for r in rows):
            raise ValueError("join table must be square")
        if n == 0:
            raise ValueError("a semilattice needs at least one element")
        if any(not 0 <= v < n for r in rows for v in r):
            raise ValueError("join table entries outside 0..n-1")
        if any(rows[x][x] != x for x in range(n)):
            raise ValueError("join is not idempotent")
        if any(rows[x][y] != rows[y][x] for x in range(n) for y in range(x)):
            raise ValueError("join is not commutative")
        for x in range(n):
            for y in range(n):
                xy = rows[x][y]
                for z in range(n):
                    if rows[xy][z] != rows[x][rows[y][z]]:
                        raise ValueError("join is not associative")
        self.n = n
        self.join_rows: tuple[tuple[int, ...], ...] = rows
        down = [0] * n
        for x, row in enumerate(rows):
            for y in range(n):
                if row[y] == y:
                    down[y] |= 1 << x
        self.down_bits: tuple[int, ...] = tuple(down)
        self.top: int = down.index((1 << n) - 1)
        self.bottom: int | None = next(
            (x for x in range(n) if all((down[y] >> x) & 1 for y in range(n))), None
        )

    def le(self, x: int, y: int) -> bool:
        _check_elements(self, x, y)
        return bool(self.down_bits[y] >> x & 1)

    def join_of(self, x: int, y: int) -> int:
        _check_elements(self, x, y)
        return self.join_rows[x][y]

    def join_all(self, xs: Iterable[int]) -> int:
        """The join of xs; the empty join is the bottom, when there is one."""
        xs = tuple(xs)
        _check_elements(self, *xs)
        acc = xs[0] if xs else self.bottom
        if acc is None:
            raise ValueError("empty join without a bottom")
        row = self.join_rows
        for x in xs:
            acc = row[acc][x]
        return acc

    def pseudo_meet(self, x: int, y: int) -> int | None:
        """Greatest common lower bound if one exists, else None."""
        _check_elements(self, x, y)
        return self.pseudo_meet_rows[x][y]

    @cached_property
    def pseudo_meet_rows(self) -> tuple[tuple[int | None, ...], ...]:
        """The table of :meth:`pseudo_meet`, built once.  A greatest common
        lower bound z of x and y is the element whose down-set is exactly
        the set of common lower bounds."""
        d = self.down_bits
        by_down = {mask: z for z, mask in enumerate(d)}
        return tuple(tuple(by_down.get(dx & dy) for dy in d) for dx in d)

    @cached_property
    def clb_rows(self) -> tuple[tuple[tuple[int, ...], ...], ...]:
        """clb_rows[x][y]: the common lower bounds of x and y, larger down-set
        first and ties by index, so the greatest one, when it exists, comes
        first.  Built once; the candidate lists of
        :func:`conlat.semilattice.refinement_square`."""
        d = self.down_bits
        order = sorted(range(self.n), key=lambda z: -d[z].bit_count())
        rows = []
        for dx in d:
            below = [z for z in order if dx >> z & 1]
            rows.append(tuple(tuple(z for z in below if dy >> z & 1) for dy in d))
        return tuple(rows)

    @cached_property
    def _decompositions(self) -> dict[int, tuple[tuple[int, int], ...]]:
        return {}

    def decompositions(self, e: int) -> tuple[tuple[int, int], ...]:
        """All ordered pairs (y0, y1) with y0 + y1 = e, cached."""
        cache = self._decompositions
        if e not in cache:
            _check_elements(self, e)
            row = self.join_rows
            de = self.down_bits[e]
            cache[e] = tuple(
                (y0, y1)
                for y0 in _bits(de)
                for y1 in _bits(de)
                if row[y0][y1] == e
            )
        return cache[e]

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={self.n})"


class FiniteLattice(FiniteJoinSemilattice):
    """A finite lattice on elements 0..n-1.

    Construct from the down-sets of the order (``FiniteLattice(down)``,
    where bit y of ``down[x]`` is set iff y <= x) or from a cover relation
    (:meth:`from_covers`).  Construction validates that the input is a
    partial order in which every pair of elements has a least upper bound
    and a greatest lower bound; finiteness then gives a least element
    ``bottom`` and a greatest element ``top``.  The checks run in this
    order, and the first that fails raises: size at least 1, no bit past
    n - 1, reflexive, antisymmetric, then a top and a meet (a principal
    down-set) for every pair.  That test implies transitivity, so only when
    it fails is the order scanned for transitivity ("order is not
    transitive") before the first pair without a bound is named
    (:class:`NotALattice`).

    Attributes:
        n: number of elements.
        down_bits, up_bits: ``down_bits[x]`` has bit y set iff y <= x,
            ``up_bits[x]`` bit y iff x <= y.
        join_rows, meet_rows: n x n element tables as tuples of rows,
            built on first use; ``meet_rows`` is also the lattice's
            ``pseudo_meet_rows``.
        bottom, top: least and greatest element.
    """

    def __init__(self, down: Iterable[int]) -> None:
        down = tuple(down)
        n = len(down)
        if n == 0:
            raise ValueError("a lattice needs at least one element")
        if any(d >> n for d in down):
            raise ValueError(f"order bits outside 0..{n - 1}")
        if any(not d >> x & 1 for x, d in enumerate(down)):
            raise ValueError("order is not reflexive")
        up = _ups_from_downs(down)
        if any(d & u != 1 << x for x, (d, u) in enumerate(zip(down, up))):
            raise ValueError("order is not antisymmetric")

        # a finite poset with a top in which every pair has a meet is a
        # lattice: x v y is the meet of the non-empty set of upper bounds.
        # x ^ y is the element whose down-set is down[x] & down[y], the set
        # of lower bounds; down-sets are distinct by antisymmetry.  The meet
        # test also implies transitivity: for y <= x, down[x] & down[y] =
        # down[z] holds y, so y <= z <= y and z = y.  So transitivity is
        # scanned only when the test fails, to name what is wrong
        full = (1 << n) - 1
        principal = set(down)
        meets = {dx & dy for dx, dy in combinations(down, 2)}
        if full not in principal or not meets <= principal:
            if any(down[y] & ~d for d in down for y in _bits(d)):
                raise ValueError("order is not transitive")
            _raise_first_unbounded_pair(down, up)

        self.n = n
        self.down_bits: tuple[int, ...] = down
        self.up_bits: tuple[int, ...] = up
        self.bottom: int = up.index(full)
        self.top: int = down.index(full)

    @cached_property
    def join_rows(self) -> tuple[tuple[int, ...], ...]:
        # x v y is the element whose up-set is up[x] & up[y], the set of
        # upper bounds; up-sets are distinct by antisymmetry
        return _bound_rows(self.up_bits)

    @cached_property
    def meet_rows(self) -> tuple[tuple[int, ...], ...]:
        return _bound_rows(self.down_bits)

    @property
    def pseudo_meet_rows(self) -> tuple[tuple[int, ...], ...]:
        # every pair of a lattice has a greatest common lower bound: its meet
        return self.meet_rows

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_covers(cls, n: int, covers: Iterable[tuple[int, int]]) -> FiniteLattice:
        """Build the lattice whose order is the reflexive-transitive closure
        of the given acyclic relation; ``(i, j)`` means i is below j.  The
        result is a plain :class:`FiniteLattice`, also when called on a
        subclass.

        A lattice is connected, so n elements need at least n - 1 covers;
        fewer is rejected before anything of size n is allocated."""
        edges = list(covers)
        if n > len(edges) + 1:
            raise NotALattice(f"{len(edges)} covers cannot connect {n} elements")
        succ: list[list[int]] = [[] for _ in range(n)]
        indeg = [0] * n
        for i, j in edges:
            if not (0 <= i < n and 0 <= j < n):
                raise IndexOutOfRange(f"cover ({i}, {j}) outside 0..{n - 1}")
            if i == j:
                raise CyclicCovers(f"self-loop at {i}")
            succ[i].append(j)
            indeg[j] += 1
        # Kahn's algorithm; leftovers mean a cycle.  Each element's down-set
        # is complete when it is dequeued and is pushed to its successors.
        down = [1 << x for x in range(n)]
        order = [x for x in range(n) if indeg[x] == 0]
        head = 0
        while head < len(order):
            x = order[head]
            head += 1
            for y in succ[x]:
                down[y] |= down[x]
                indeg[y] -= 1
                if indeg[y] == 0:
                    order.append(y)
        if len(order) < n:
            raise CyclicCovers("covers contain a directed cycle")
        return FiniteLattice(down)

    @classmethod
    def from_json(cls, obj: dict) -> "FiniteLattice":
        """Read ``{"n": ..., "covers": [[i, j], ...]}``.  The size and every
        endpoint must be integers; JSON booleans and numbers with a fraction
        or exponent raise TypeError."""
        n, covers = obj["n"], [tuple(c) for c in obj["covers"]]
        if not _is_int(n):
            raise TypeError(f"size {n!r} is not an integer")
        for c in covers:
            if not all(map(_is_int, c)):
                raise TypeError(f"cover {list(c)!r} has an endpoint that is not an integer")
        return cls.from_covers(n, covers)

    def to_json(self) -> dict:
        return {"n": self.n, "covers": [list(c) for c in self.covers()]}

    # -- queries -----------------------------------------------------------

    def meet_of(self, x: int, y: int) -> int:
        _check_elements(self, x, y)
        return self.meet_rows[x][y]

    def covers(self) -> list[tuple[int, int]]:
        """The cover pairs (i, j): i < j with nothing strictly between."""
        out = []
        n, up, down = self.n, self.up_bits, self.down_bits
        for i in range(n):
            strict_up = rest = up[i] & ~(1 << i)
            while rest:
                low = rest & -rest
                j = low.bit_length() - 1
                rest ^= low
                # j covers i iff no k with i < k < j; nothing above a
                # cover is one, so the cover's up-set leaves the walk
                if strict_up & down[j] == low:
                    out.append((i, j))
                    rest &= ~up[j]
        return out

    @cached_property
    def atoms(self) -> tuple[int, ...]:
        return tuple(j for i, j in self.covers() if i == self.bottom)

    @cached_property
    def perspective_bits(self) -> tuple[int, ...]:
        """Bit y of row x is set iff x ~ y (:func:`are_perspective`).  For an
        axis z, the x with x ^ z = bottom form one class per value of x v z."""
        n, bot = self.n, self.bottom
        rows = [0] * n
        for jz, mz in zip(self.join_rows, self.meet_rows):
            classes: dict[int, int] = {}
            for x in range(n):
                if mz[x] == bot:
                    classes[jz[x]] = classes.get(jz[x], 0) | 1 << x
            for c in classes.values():
                for x in _bits(c):
                    rows[x] |= c
        return tuple(rows)

    @cached_property
    def height(self) -> int:
        """Length (number of edges) of a longest chain."""
        n, down = self.n, self.down_bits
        order = sorted(range(n), key=lambda x: down[x].bit_count())
        h = [0] * n
        for x in order:
            below = down[x] & ~(1 << x)
            h[x] = max((h[y] + 1 for y in _bits(below)), default=0)
        return h[self.top]


# -- named small lattices ---------------------------------------------------


def chain(n: int) -> FiniteLattice:
    """The n-element chain 0 < 1 < ... < n-1."""
    return FiniteLattice((2 << x) - 1 for x in range(n))


def boolean(k: int) -> FiniteLattice:
    """The Boolean lattice of subsets of a k-element set (2^k elements)."""
    n = 1 << k
    return FiniteLattice(
        sum(1 << y for y in range(n) if y & ~x == 0) for x in range(n)
    )


def m3() -> FiniteLattice:
    """The diamond: three atoms under a common top, modular, not distributive."""
    return FiniteLattice.from_covers(5, [(0, 1), (0, 2), (0, 3), (1, 4), (2, 4), (3, 4)])


def n5() -> FiniteLattice:
    """The pentagon 0 < 1 < 2 < 4, 0 < 3 < 4: the minimal non-modular lattice."""
    return FiniteLattice.from_covers(5, [(0, 1), (1, 2), (2, 4), (0, 3), (3, 4)])


# -- intervals ---------------------------------------------------------------


class IntervalSublattice(NamedTuple):
    """An interval [a, b] viewed as a lattice of its own.

    ``to_host[k]`` is the element of the host lattice that local element k
    stands for.
    """

    lattice: FiniteLattice
    to_host: tuple[int, ...]


def interval(L: FiniteLattice, a: int, b: int) -> IntervalSublattice:
    """The interval [a, b] as a sublattice, with its index map back into L."""
    if not L.le(a, b):
        raise NotComparable(f"{a} is not below {b}")
    box = L.up_bits[a] & L.down_bits[b]
    elems = list(_bits(box))
    local = {x: i for i, x in enumerate(elems)}
    sub = FiniteLattice(
        sum(1 << local[y] for y in _bits(L.down_bits[x] & box)) for x in elems
    )
    return IntervalSublattice(sub, tuple(elems))


# -- structural predicates ----------------------------------------------------


def is_modular(L: FiniteLattice) -> bool:
    """x <= z implies x v (y ^ z) = (x v y) ^ z for all y."""
    n, jn, mt = L.n, L.join_rows, L.meet_rows
    for x in range(n):
        for z in _bits(L.up_bits[x]):
            jx = jn[x]
            for y in range(n):
                if jx[mt[y][z]] != mt[jx[y]][z]:
                    return False
    return True


def is_distributive(L: FiniteLattice) -> bool:
    """x ^ (y v z) = (x ^ y) v (x ^ z) for all triples."""
    n, jn, mt = L.n, L.join_rows, L.meet_rows
    for x in range(n):
        mx = mt[x]
        for y in range(n):
            for z in range(n):
                if mx[jn[y][z]] != jn[mx[y]][mx[z]]:
                    return False
    return True


def _complemented_intervals(L: FiniteLattice, pairs: Iterable[tuple[int, int]]) -> bool:
    # for each (a, b): every x in [a, b] has a y in [a, b], x ^ y = a, x v y = b
    jn, mt, up, down = L.join_rows, L.meet_rows, L.up_bits, L.down_bits
    for a, b in pairs:
        box = list(_bits(up[a] & down[b]))
        if not all(any(mt[x][y] == a and jn[x][y] == b for y in box) for x in box):
            return False
    return True


def is_complemented(L: FiniteLattice) -> bool:
    """Every element has a complement: x ^ y = bottom, x v y = top."""
    return _complemented_intervals(L, [(L.bottom, L.top)])


def is_sectionally_complemented(L: FiniteLattice) -> bool:
    """Every interval [bottom, b] is complemented."""
    return _complemented_intervals(L, ((L.bottom, b) for b in range(L.n)))


def is_relatively_complemented(L: FiniteLattice) -> bool:
    """Every interval [a, b] is complemented."""
    return _complemented_intervals(L, ((a, b) for a in range(L.n) for b in _bits(L.up_bits[a])))


def is_atomistic(L: FiniteLattice) -> bool:
    """Every element is the join of the atoms below it."""
    return all(
        L.join_all(a for a in L.atoms if L.le(a, x)) == x for x in range(L.n)
    )


def are_perspective(L: FiniteLattice, x: int, y: int) -> bool:
    """x ~ y iff some axis z has x ^ z = y ^ z = bottom and x v z = y v z."""
    _check_elements(L, x, y)
    return bool(L.perspective_bits[x] >> y & 1)


# -- homomorphisms ------------------------------------------------------------


class _Frozen:
    """Base of the records that cannot be tuples, because they are weakly
    referenced, cache what they derive in their ``__dict__`` or have a field
    named ``index``.  ``__init__`` sets the fields once; instances of one
    class compare and hash by ``_key()``, the fields their repr shows."""

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())


def _once(fn):
    """Decorate fn(obj) to run once per object: the result is kept in
    ``obj.__dict__`` under ``"_" + fn.__name__``, past any ``__setattr__``,
    so frozen records cache too.  Falsy results are kept; a call that
    raises keeps nothing."""
    key = "_" + fn.__name__

    @wraps(fn)
    def once(obj):
        d = obj.__dict__
        if key not in d:
            d[key] = fn(obj)
        return d[key]

    return once


class SemilatticeHom(_Frozen):
    """A map between join-semilattices given by its value table; not assumed
    valid until checked with :func:`conlat.semilattice.check_semilattice_hom`."""

    def __init__(
        self, source: FiniteJoinSemilattice, target: FiniteJoinSemilattice, map: tuple[int, ...]
    ) -> None:
        vars(self).update(source=source, target=target, map=map)

    def _key(self) -> tuple:
        return self.source, self.target, self.map

    def __repr__(self) -> str:
        name, src, tgt = type(self).__name__, self.source, self.target
        return f"{name}(source={src!r}, target={tgt!r}, map={self.map!r})"


class LatticeHom(SemilatticeHom):
    """A map between lattices given by its value table; not assumed valid
    until checked with :func:`check_hom`."""


# A hom keeps the tables named in ops: f(s[x][y]) = t[f(x)][f(y)] for the
# table s of the source and t of the target.  The tables are idempotent and
# commutative, so the pairs x < y suffice.
_LATTICE_OPS = ("join_rows", "meet_rows")


def _preserves(h: SemilatticeHom, ops: tuple[str, ...]) -> bool:
    f, n = h.map, h.source.n
    if len(f) != n or any(not 0 <= v < h.target.n for v in f):
        return False
    tables = [(getattr(h.source, op), getattr(h.target, op)) for op in ops]
    return all(f[s[x][y]] == t[f[x]][f[y]] for s, t in tables for y in range(n) for x in range(y))


def check_hom(h: LatticeHom) -> bool:
    """True iff h preserves binary joins and meets (0/1 not required)."""
    return _preserves(h, _LATTICE_OPS)


def has_convex_range(h: LatticeHom) -> bool:
    """True iff the image of h is order-convex in the target: nothing lies
    above one image element and below another but outside the image.  An
    entry outside the target raises :class:`IndexOutOfRange`."""
    L = h.target
    _check_elements(L, *h.map)
    img = up = down = 0
    for v in h.map:
        img |= 1 << v
        up |= L.up_bits[v]
        down |= L.down_bits[v]
    return up & down & ~img == 0


def _homs(P, Q, ops: tuple[str, ...]) -> Iterator[tuple[int, ...]]:
    """The value tables of the maps P -> Q that keep the tables named in
    ops, in lexicographic order: a backtrack over f(0), f(1), ... in
    ascending values tests each equation where the last of x, y and s[x][y]
    gets its value.  A map that keeps joins is monotone (x <= y gives
    f(y) = f(x) v f(y)), so no monotone maps are built first."""
    n, m = P.n, Q.n
    tests: list[list[tuple]] = [[] for _ in range(n)]
    for op in ops:
        s, t = getattr(P, op), getattr(Q, op)
        for y in range(n):
            for x in range(y):
                tests[max(y, s[x][y])].append((t, x, y, s[x][y]))
    f = [0] * n

    def extend(k: int) -> Iterator[tuple[int, ...]]:
        if k == n:
            yield tuple(f)
            return
        for v in range(m):
            f[k] = v
            for t, x, y, z in tests[k]:
                if f[z] != t[f[x]][f[y]]:
                    break
            else:
                yield from extend(k + 1)

    yield from extend(0)


def enumerate_lattice_homs(K: FiniteLattice, L: FiniteLattice) -> Iterator[LatticeHom]:
    """All join- and meet-preserving maps K -> L, in lexicographic order."""
    return (LatticeHom(K, L, f) for f in _homs(K, L, _LATTICE_OPS))


# -- canonical form and enumeration -------------------------------------------


def _refine_ranks(below: list[list[int]], above: list[list[int]]) -> list[int]:
    # iterated colour refinement over the element lists of the down- and
    # up-sets; colours start from (|down x|, |up x|) and are rebuilt from
    # the sorted colour multisets of the sets below/above x.  An element
    # alone in its class keeps the key (rank,): the rank comes first in
    # every key, so this changes neither the partition nor its order.
    n = len(below)
    keys: list[tuple] = [(len(b), len(a)) for b, a in zip(below, above)]
    while True:
        order = sorted(set(keys))
        rank = {k: i for i, k in enumerate(order)}
        ranks = [rank[k] for k in keys]
        if len(order) == n:
            return ranks
        size = [0] * len(order)
        for r in ranks:
            size[r] += 1
        of = ranks.__getitem__
        new_keys = [
            (r, tuple(sorted(map(of, below[x]))), tuple(sorted(map(of, above[x]))))
            if size[r] > 1
            else (r,)
            for x, r in enumerate(ranks)
        ]
        if len(set(new_keys)) == len(order):
            return ranks
        keys = new_keys


def _element_lists(masks: Iterable[int]) -> list[list[int]]:
    return [list(_bits(m)) for m in masks]


def _poset_code(below: list[list[int]], above: list[list[int]]) -> str:
    # lexicographically least bit-packed order matrix (bit (p, q) set iff the
    # element at position q is below the one at position p) over all
    # relabelings that list the refinement classes in rank order, found by
    # the branch and bound described in the module docstring; below[x] and
    # above[x] list the elements y <= x and y >= x
    n = len(below)
    ranks = _refine_ranks(below, above)
    classes: dict[int, list[int]] = {}
    for x, r in enumerate(ranks):
        classes.setdefault(r, []).append(x)
    col = [0] * n  # col[y]: the column bit of y once placed, else 0
    row_of = col.__getitem__
    twin_before = [-1] * n
    twins_only = True
    for members in classes.values():
        if len(members) > 1:
            # twins: swapping them is an automorphism, so keep them in index
            # order; they have equal colours, so they share a class
            last: dict[tuple[int, int], int] = {}
            for x in members:
                key = (
                    sum(1 << y for y in below[x] if y != x),
                    sum(1 << y for y in above[x] if y != x),
                )
                twin_before[x] = last.get(key, -1)
                last[key] = x
            twins_only = twins_only and len(last) == 1
    if twins_only:
        # every class is a singleton or one class of mutual twins, so all
        # relabelings differ by twin swaps and give one matrix: rank order
        order = sorted(range(n), key=ranks.__getitem__)
        for p, x in enumerate(order):
            col[x] = 1 << (n - 1 - p)
        code = 0
        for x in order:
            code = (code << n) | sum(map(row_of, below[x]))
        return f"{n}:{code:x}"
    cell = [classes[r] for r in sorted(ranks)]  # the candidates for each position
    worst = 1 << n  # above every n-bit row
    best = [worst] * n

    def place(p: int) -> None:
        bit = 1 << (n - 1 - p)
        rows = []
        for x in cell[p]:
            t = twin_before[x]
            if col[x] or (t >= 0 and not col[t]):
                continue
            # everything strictly below x has a lower rank, so is placed
            col[x] = bit
            rows.append((sum(map(row_of, below[x])), x))
            col[x] = 0
        low = min(rows)[0]
        if low > best[p]:
            return
        if low < best[p]:
            best[p] = low
            best[p + 1 :] = [worst] * (n - 1 - p)
        if p + 1 == n:
            return
        for row, x in rows:
            if row == low:
                col[x] = bit
                place(p + 1)
                col[x] = 0

    place(0)
    code = 0
    for row in best:
        code = (code << n) | row
    return f"{n}:{code:x}"


@_once
def canonical_form(L: FiniteLattice) -> str:
    """A string invariant: two lattices get equal codes iff isomorphic.
    Cached on the lattice object as ``_canonical_form``."""
    return _poset_code(_element_lists(L.down_bits), _element_lists(L.up_bits))


def is_isomorphic(L1: FiniteLattice, L2: FiniteLattice) -> bool:
    return L1.n == L2.n and canonical_form(L1) == canonical_form(L2)


def _meet_semilattice_levels(max_size: int) -> list[list[tuple[str, tuple[int, ...]]]]:
    # levels[m] = (code, down-set bitmasks in a linear extension order) of a
    # canonical representative of every meet-semilattice on m+1 elements,
    # sorted by code; element 0 is the bottom.  A level is grown from its
    # parents in slices (in a worker pool when it is large and more than one
    # CPU is usable) and the slices are merged in parent order, so each code
    # keeps the first representative of a sequential scan.
    levels = [[(_poset_code([[0]], [[0]]), (1,))]]
    pool = None
    try:
        for m in range(1, max_size):
            parents = levels[m - 1]
            if pool is None and len(parents) >= _POOL_MIN_PARENTS:
                # at most one worker per parent; later levels are larger,
                # so no level is cut into fewer slices than there are workers
                workers = min(_usable_cpus(), len(parents))
                if workers > 1 and _can_fork():
                    import multiprocessing

                    pool = multiprocessing.get_context("fork").Pool(workers)
            if pool is None:
                tasks = [(parents, m)]
                grown = map(_grow_slice, tasks)
            else:
                step = -(-len(parents) // (_SLICES_PER_WORKER * workers))
                tasks = [(parents[i : i + step], m) for i in range(0, len(parents), step)]
                grown = pool.imap(_grow_slice, tasks)
            seen: dict[str, tuple[int, ...]] = {}
            for (part, _), firsts in zip(tasks, grown):
                for code, (p, new) in firsts:
                    if code not in seen:
                        # extends the parent's own tuple, so the level shares
                        # its parents' ints as a sequential scan's does
                        seen[code] = part[p][1] + (new,)
            levels.append(sorted(seen.items()))
    finally:
        if pool is not None:
            pool.terminate()
            pool.join()
    return levels


def _grow_slice(
    task: tuple[list[tuple[str, tuple[int, ...]]], int],
) -> list[tuple[str, tuple[int, int]]]:
    # task = (parents, m): grow each parent (its code and the down-set
    # bitmasks of its m elements, element 0 the bottom) by a maximal element
    # m above every admissible down-set, in parent order and increasing
    # down-set order.  For the first candidate of every code, in encounter
    # order, return (code, (position of its parent in the slice, down-set of
    # m)); the candidate is the parent's down-sets + (down-set,).  The
    # element lists of a parent are built once and extended for each
    # candidate.  Two kinds of candidate need no search (module docstring):
    # the top candidate, whose code is the parent's with a top adjoined, and
    # the atom candidate of a parent with a maximal non-atom, never the first
    # of its class.
    parents, m = task
    bit, full = 1 << m, (1 << m) - 1
    seen: dict[str, tuple[int, int]] = {}
    for p, (parent_code, downs) in enumerate(parents):
        ups = _ups_from_downs(downs)
        below, above = _element_lists(downs), _element_lists(ups)
        twins = _twin_pairs(downs, ups)
        # a maximal element x (up-set {x}) that is not an atom (down-set of
        # three or more elements); for m = 1, D = {bottom} is all of P and
        # so the top candidate
        skip_atom = any(u == 1 << x and len(below[x]) > 2 for x, u in enumerate(ups))
        for new in _admissible_downsets(downs):
            if new == full:
                seen[_top_adjoined_code(parent_code)] = (p, new | bit)
                continue
            if new == 1 and skip_atom:
                continue  # an earlier parent, with one more atom, grew it
            if any(new & later and not new & earlier for earlier, later in twins):
                continue  # a twin swap gives a smaller, isomorphic candidate
            # the new element m lies above exactly the elements of new
            under = list(_bits(new))
            cand_above = above + [[m]]
            for y in under:
                cand_above[y] = above[y] + [m]
            under.append(m)
            code = _poset_code(below + [under], cand_above)
            if code not in seen:
                seen[code] = (p, new | bit)
    return list(seen.items())


def _usable_cpus() -> int:
    # CPUs this process may run on; affinity masks count where the OS has them
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _can_fork() -> bool:
    # fork copies only the calling thread, and every lock in whatever state
    # the other threads left it, so only a single-threaded process forks
    import threading

    return hasattr(os, "fork") and threading.active_count() == 1


def _twin_pairs(downs: tuple[int, ...], ups: tuple[int, ...]) -> list[tuple[int, int]]:
    # (earlier, later) bits of the consecutive members of every twin class:
    # elements with equal strict down-sets and equal strict up-sets.  A
    # down-set D that holds a later twin but not the earlier one maps, by
    # the swap of the pair, to a smaller admissible D' whose candidate is
    # isomorphic to D's, so D can never be the first of its class.
    pairs = []
    last: dict[tuple[int, int], int] = {}
    for x, (d, u) in enumerate(zip(downs, ups)):
        bit = 1 << x
        key = (d ^ bit, u ^ bit)
        if key in last:
            pairs.append((last[key], bit))
        last[key] = bit
    return pairs


def _admissible_downsets(downs: tuple[int, ...]) -> list[int]:
    # down-sets D (containing the bottom 0) such that adjoining a maximal
    # element with exactly D below it keeps all binary meets: every
    # D ^ down(x) must have a greatest element, that is, be a principal
    # down-set.  The down-sets are built element by element; those holding
    # x follow those of elements 0..x-1, so the list stays increasing.
    found = [1]
    for x in range(1, len(downs)):
        strict = downs[x] & ~(1 << x)
        found += [d | (1 << x) for d in found if strict & ~d == 0]
    principal = set(downs)
    return [d for d in found if all((d & dx) in principal for dx in downs)]




def _top_adjoined_code(code: str) -> str:
    # the canonical code of a poset with a new top adjoined, from the
    # poset's code: the top has the largest down-set, so it comes last in
    # rank order, and it adds the same colour above every other element, so
    # the refinement classes and their order are unchanged.  Each row gains
    # a 0 in the top's column and the top's row is all ones.
    size, _, digits = code.partition(":")
    s = int(size)
    n = s + 1
    old, row_mask = int(digits, 16), (1 << s) - 1
    new = 0
    for p in range(s):
        new = (new << n) | (old >> (s * (s - 1 - p)) & row_mask) << 1
    new = (new << n) | ((1 << n) - 1)
    return f"{n}:{new:x}"


def enumerate_lattices(max_n: int, *, bound: int | None = None) -> Iterator[FiniteLattice]:
    """Yield one representative of every isomorphism class of lattices with
    at most ``max_n`` elements, smaller sizes first, deterministic order.

    A lattice on n >= 2 elements is a meet-semilattice on n-1 elements with
    a new top adjoined, so the generator enumerates meet-semilattices by
    repeated augmentation with isomorph rejection, and each lattice's
    canonical code follows from its semilattice's.
    """
    if bound is None:
        bound = DEFAULT_ENUMERATION_BOUND
    if max_n > bound:
        raise BoundExceeded(f"max_n={max_n} exceeds bound {bound}")
    if max_n < 1:
        return
    yield chain(1)
    if max_n == 1:
        return
    levels = _meet_semilattice_levels(max_n - 1)
    for m in range(1, max_n):
        top = (1 << (m + 1)) - 1
        # adjoining a top keeps the code order, so each level stays sorted
        for code, downs in levels[m - 1]:
            L = FiniteLattice(downs + (top,))
            L._canonical_form = _top_adjoined_code(code)
            yield L
