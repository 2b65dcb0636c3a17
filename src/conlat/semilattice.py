"""Finite join-semilattices, the refinement property, and weak distributivity.

A join-semilattice is stored as its full join table.  The class
:class:`FiniteJoinSemilattice` lives in :mod:`conlat.lattice`, as the base
of :class:`~conlat.lattice.FiniteLattice`, and is re-exported here: every
lattice, Con L included, is passed to these functions as it is, with its
meet table as its table of greatest common lower bounds.  So is
:class:`SemilatticeHom`, the base of :class:`~conlat.lattice.LatticeHom`,
checked and enumerated by the lattice rule on the join table alone.

"Distributive" is used in the refinement sense throughout this module: every
equation a0 + a1 = b0 + b1 admits a 2x2 refinement matrix.  No lattice
distributivity is assumed anywhere here, and meets are never required to
exist; where a greatest common lower bound happens to exist it is used as a
search heuristic only.

A map f between join-semilattices is weakly distributive at u if every
decomposition f(u) = y0 + y1 pulls back to a decomposition u = x0 + x1 with
f(xi) <= yi.  For surjective f this recovers the usual notion of a weakly
distributive homomorphism.  The set of elements at which a join-homomorphism
into a distributive semilattice is weakly distributive is closed under
joins; :func:`wd_join_combine` realizes that closure constructively.
"""
from __future__ import annotations

from itertools import combinations_with_replacement
from typing import Iterator, NamedTuple

from .lattice import (
    FiniteJoinSemilattice,
    SemilatticeHom,
    _bits,
    _check_elements,
    _homs,
    _once,
    _preserves,
)


class TargetNotDistributive(ValueError):
    """The target semilattice lacks the refinement property."""


class InvalidInputWitness(ValueError):
    """A supplied witness fails its defining conditions."""


def check_semilattice_hom(h: SemilatticeHom) -> bool:
    """True iff h preserves binary joins."""
    return _preserves(h, ("join_rows",))


def enumerate_semilattice_homs(
    S: FiniteJoinSemilattice, T: FiniteJoinSemilattice
) -> Iterator[SemilatticeHom]:
    """All join-preserving maps S -> T, in lexicographic order."""
    return (SemilatticeHom(S, T, f) for f in _homs(S, T, ("join_rows",)))


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
    fmask = [sum(1 << x for x, fx in enumerate(f) if dy >> fx & 1) for dy in T.down_bits]
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
