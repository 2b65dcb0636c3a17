"""Finite join-semilattices, the refinement property, and weak distributivity.

A join-semilattice is stored as its full join table.  "Distributive" is used
in the refinement sense throughout this module: every equation
a0 + a1 = b0 + b1 admits a 2x2 refinement matrix.  No lattice distributivity
is assumed anywhere here, and meets are never required to exist; where a
greatest common lower bound happens to exist it is used as a search heuristic
only.

A map f between join-semilattices is weakly distributive at u if every
decomposition f(u) = y0 + y1 pulls back to a decomposition u = x0 + x1 with
f(xi) <= yi.  For surjective f this recovers the usual notion of a weakly
distributive homomorphism.  The set of elements at which a join-homomorphism
into a distributive semilattice is weakly distributive is closed under
joins; :func:`wd_join_combine` realizes that closure constructively.
"""
from __future__ import annotations

from functools import cached_property
from itertools import combinations_with_replacement
from typing import Iterator, NamedTuple

from .lattice import FiniteLattice, _bits, _check_elements, _Frozen, _monotone_maps, _once


class TargetNotDistributive(ValueError):
    """The target semilattice lacks the refinement property."""


class InvalidInputWitness(ValueError):
    """A supplied witness fails its defining conditions."""


class FiniteJoinSemilattice:
    """A finite join-semilattice on elements 0..n-1, given by its join table.

    The induced order is x <= y iff x + y = y.  A top element always exists
    (the join of everything); a bottom may or may not.
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
        self.top = self.join_all(range(n))
        self.bottom: int | None = next(
            (x for x in range(n) if all((down[y] >> x) & 1 for y in range(n))), None
        )

    @classmethod
    def from_lattice(cls, L: FiniteLattice) -> "FiniteJoinSemilattice":
        """L as a join-semilattice, sharing L's join table and order: a
        lattice's join is a semilattice join, so there is nothing to check."""
        S = cls.__new__(cls)
        S.n, S.join_rows, S.down_bits = L.n, L.join_rows, L.down_bits
        S.top, S.bottom = L.top, L.bottom
        return S

    def le(self, x: int, y: int) -> bool:
        return self.join_rows[x][y] == y

    def join_of(self, x: int, y: int) -> int:
        return self.join_rows[x][y]

    def join_all(self, xs) -> int:
        it = iter(xs)
        try:
            acc = next(it)
        except StopIteration:
            raise ValueError("empty join") from None
        row = self.join_rows
        for x in it:
            acc = row[acc][x]
        return acc

    def pseudo_meet(self, x: int, y: int) -> int | None:
        """Greatest common lower bound if one exists, else None."""
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
        first.  Built once; the candidate lists of :func:`refinement_square`."""
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
            if not 0 <= e < self.n:
                raise IndexError(f"element {e} outside 0..{self.n - 1}")
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
        return f"FiniteJoinSemilattice(n={self.n})"


class SemilatticeHom(_Frozen):
    """A map between join-semilattices; check with :func:`check_semilattice_hom`."""

    def __init__(
        self, source: FiniteJoinSemilattice, target: FiniteJoinSemilattice, map: tuple[int, ...]
    ) -> None:
        vars(self).update(source=source, target=target, map=map)

    def _key(self) -> tuple:
        return self.source, self.target, self.map

    def __repr__(self) -> str:
        return (
            f"SemilatticeHom(source={self.source!r}, target={self.target!r}, map={self.map!r})"
        )


def check_semilattice_hom(h: SemilatticeHom) -> bool:
    f, S, T = h.map, h.source, h.target
    if len(f) != S.n or any(not 0 <= v < T.n for v in f):
        return False
    return all(
        f[S.join_rows[x][y]] == T.join_rows[f[x]][f[y]]
        for x in range(S.n)
        for y in range(x, S.n)
    )


def enumerate_semilattice_homs(
    S: FiniteJoinSemilattice, T: FiniteJoinSemilattice
) -> Iterator[SemilatticeHom]:
    """All join-preserving maps S -> T: the monotone maps that pass
    :func:`check_semilattice_hom`."""
    for f in _monotone_maps(S, T):
        h = SemilatticeHom(S, T, f)
        if check_semilattice_hom(h):
            yield h


# -- refinement ---------------------------------------------------------------


class RefinementSquare(NamedTuple):
    """A 2x2 refinement of a0 + a1 = b0 + b1:
    ai = ci0 + ci1 and bi = c0i + c1i."""

    a0: int
    a1: int
    b0: int
    b1: int
    c00: int
    c01: int
    c10: int
    c11: int

    def satisfied_in(self, S: FiniteJoinSemilattice) -> bool:
        j = S.join_rows
        return (
            j[self.c00][self.c01] == self.a0
            and j[self.c10][self.c11] == self.a1
            and j[self.c00][self.c10] == self.b0
            and j[self.c01][self.c11] == self.b1
        )


def refinement_square(
    S: FiniteJoinSemilattice, a0: int, a1: int, b0: int, b1: int
) -> RefinementSquare | None:
    """Search for a refinement square; complete, so None means none exists."""
    _check_elements(S, a0, a1, b0, b1)
    j = S.join_rows
    if j[a0][a1] != j[b0][b1]:
        raise ValueError("a0 + a1 and b0 + b1 differ")

    # candidates for c_xy are the common lower bounds of x and y, greatest
    # common lower bound first when it exists, then the rest by decreasing
    # down-set size; the lists come from the table built once per semilattice
    r0, r1 = S.clb_rows[a0], S.clb_rows[a1]
    cs01, cs10, cs11 = r0[b1], r1[b0], r1[b1]
    for c00 in r0[b0]:
        j00 = j[c00]
        for c01 in cs01:
            if j00[c01] != a0:
                continue
            j01 = j[c01]
            for c10 in cs10:
                if j00[c10] != b0:
                    continue
                j10 = j[c10]
                for c11 in cs11:
                    if j10[c11] == a1 and j01[c11] == b1:
                        return RefinementSquare(a0, a1, b0, b1, c00, c01, c10, c11)
    return None


class RefinementResult(NamedTuple):
    """Outcome of the refinement-property scan: the first failing equation,
    if any."""

    holds: bool
    counterexample: tuple[int, int, int, int] | None


@_once
def has_refinement_property(S: FiniteJoinSemilattice) -> RefinementResult:
    """Check every equation a0 + a1 = b0 + b1; cached on the semilattice.

    For finite join-semilattices this property is exactly distributivity in
    the refinement sense.  The equations are scanned in the lexicographic
    order of the tuples (a0, a1, b0, b1) given by
    :meth:`FiniteJoinSemilattice.decompositions`, and the first one without
    a refinement square is the counterexample.  Swapping a0 and a1, b0 and
    b1, or the two sides permutes a square's cells, and the first of these
    forms in that order has a0 <= a1, b0 <= b1 and (a0, a1) <= (b0, b1), so
    only that form is solved: each unordered equation once, in the order of
    its first form, with nothing kept per equation.
    """
    failing = next(
        (
            p + q
            for e in range(S.n)
            for p, q in combinations_with_replacement(
                [d for d in S.decompositions(e) if d[0] <= d[1]], 2
            )
            if refinement_square(S, *p, *q) is None
        ),
        None,
    )
    return RefinementResult(failing is None, failing)


# -- weak distributivity --------------------------------------------------------


class WdWitness(NamedTuple):
    """A weak-distributivity witness at u: for every decomposition
    f(u) = y0 + y1 a pullback (x0, x1) with x0 + x1 = u and f(xi) <= yi."""

    hom: SemilatticeHom
    u: int
    table: dict[tuple[int, int], tuple[int, int]]


def verify_wd_witness(w: WdWitness) -> bool:
    f, S, T = w.hom.map, w.hom.source, w.hom.target
    decomps = T.decompositions(f[w.u])
    if set(w.table) != set(decomps):
        return False
    for (y0, y1), (x0, x1) in w.table.items():
        if S.join_rows[x0][x1] != w.u:
            return False
        if not (T.le(f[x0], y0) and T.le(f[x1], y1)):
            return False
    return True


class WdAtResult(NamedTuple):
    holds: bool
    witness: WdWitness | None
    failure: tuple[int, int] | None


@_once
def _max_pullbacks(h: SemilatticeHom) -> list[list[int | None]]:
    # M[u][y] = greatest x <= u with f(x) <= y, or None; the candidate set is
    # join-closed, so its join is its greatest element and the only candidate
    # pullback component that can work.  Cached on h.
    S, T, f = h.source, h.target, h.map
    fmask = [0] * T.n
    for x in range(S.n):
        for y in range(T.n):
            if T.le(f[x], y):
                fmask[y] |= 1 << x
    M: list[list[int | None]] = [[None] * T.n for _ in range(S.n)]
    rows = S.join_rows
    for u in range(S.n):
        du = S.down_bits[u]
        for y in range(T.n):
            mask = du & fmask[y]
            if mask:
                acc = None
                for x in _bits(mask):
                    acc = x if acc is None else rows[acc][x]
                M[u][y] = acc
    return M


def is_weakly_distributive_at(h: SemilatticeHom, u: int) -> WdAtResult:
    """Decide weak distributivity at u, producing the full witness table or
    the first failing decomposition of f(u)."""
    S, T, f = h.source, h.target, h.map
    _check_elements(S, u)
    M = _max_pullbacks(h)
    table: dict[tuple[int, int], tuple[int, int]] = {}
    for y0, y1 in T.decompositions(f[u]):
        x0, x1 = M[u][y0], M[u][y1]
        if x0 is None or x1 is None or S.join_rows[x0][x1] != u:
            return WdAtResult(False, None, (y0, y1))
        table[(y0, y1)] = (x0, x1)
    return WdAtResult(True, WdWitness(h, u, table), None)


@_once
def is_weakly_distributive(h: SemilatticeHom) -> bool:
    """True iff h is weakly distributive at every element of its source;
    cached on the hom.  For surjective h this is the usual weakly
    distributive homomorphism."""
    return all(is_weakly_distributive_at(h, u).holds for u in range(h.source.n))


def weakly_distributive_points(h: SemilatticeHom) -> list[int]:
    """The elements of the source at which h is weakly distributive."""
    return [u for u in range(h.source.n) if is_weakly_distributive_at(h, u).holds]


def wd_join_combine(
    h: SemilatticeHom, u0: int, u1: int, w0: WdWitness, w1: WdWitness
) -> WdWitness:
    """Combine weak-distributivity witnesses at u0 and u1 into one at u0 + u1.

    Requires the target to have the refinement property: a decomposition of
    f(u0 + u1) is refined against f(u0) + f(u1), each half is pulled back
    through the given witnesses, and the pullbacks are joined.
    """
    S, T, f = h.source, h.target, h.map
    if not has_refinement_property(T).holds:
        raise TargetNotDistributive("target lacks the refinement property")
    if w0.hom != h or w1.hom != h or w0.u != u0 or w1.u != u1:
        raise InvalidInputWitness("witnesses do not belong to (h, u0, u1)")
    if not (verify_wd_witness(w0) and verify_wd_witness(w1)):
        raise InvalidInputWitness("input witness fails its defining conditions")
    u = S.join_rows[u0][u1]
    jn_s, jn_t = S.join_rows, T.join_rows
    table: dict[tuple[int, int], tuple[int, int]] = {}
    for y0, y1 in T.decompositions(f[u]):
        sq = refinement_square(T, f[u0], f[u1], y0, y1)
        if sq is None:
            raise TargetNotDistributive("refinement square missing despite the check")
        x00, x01 = w0.table[(sq.c00, sq.c01)]
        x10, x11 = w1.table[(sq.c10, sq.c11)]
        table[(y0, y1)] = (jn_s[x00][x10], jn_s[x01][x11])
    out = WdWitness(h, u, table)
    if not verify_wd_witness(out):
        raise AssertionError("combined weak-distributivity witness is invalid")
    return out
