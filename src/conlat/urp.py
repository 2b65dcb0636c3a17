"""The uniform refinement property (URP) for finite join-semilattices.

An instance at e is a finite family of pairs (a_i, b_i) with a_i + b_i = e.
A witness consists of elements a*_i <= a_i, b*_i <= b_i and a matrix c_ij
such that

  (i)   a*_i + b*_i = e,
  (ii)  c_ij <= a*_i, c_ij <= b*_j, and a*_i <= a*_j + c_ij,
  (iii) c_ik <= c_ij + c_jk.

URP holds at e if every instance at e has a witness.  Because a witness for
the set of all pairs (a, b) with a + b = e transfers to an arbitrary family
by reindexing (pure substitution, no semilattice theory), deciding URP at e
reduces to the single canonical pair-set instance; the search itself stays
literal, with no internal deduplication, so that reduction remains testable.

The verifier checks clause (iii) once per distinct row i of c, distinct
(row, column) pair j and distinct column k, since c_ik <= c_ij + c_jk reads
index i only through row i, k only through column k and j only through both;
clause (ii) likewise reads (row i, a*_i) and (column k, a*_k, b*_k).  The
first occurrences are scanned in index order, so the first failure reported
is the literal first one.  For a greedy witness of the canonical instance
the rows follow the distinct a_i and the columns the distinct b_k, so the
m^3 triples shrink to |{a_i}| * m * |{b_k}|.

The searcher first tries the greedy witness (a*, b*) = (a, b) with c_ij the
greatest common lower bound of (a_i, b_j), read from the semilattice's
pseudo-meet table; in a distributive lattice this always validates.
Otherwise it backtracks exhaustively: pair choices first with pairwise
feasibility pruning of clause (ii), then matrix cells with incremental
checks of clause (iii).  The candidate lists of a pair and of a cell depend
only on the semilattice and on (a, b), or on (a*_i, b*_k, a*_k, diagonal),
so each is built once and kept on the semilattice; indices stay literal and
duplicate pairs are not merged.  A node budget bounds the search; hitting it
raises instead of reporting a false negative.

On a congruence lattice the search is not needed: Con L joins by OR of its
cover masks, so masks that form a ring of sets
(:func:`~conlat.congruence.certifies_ring_of_sets`, which reads the masks
alone) certify it, and a ring of sets has URP at every element, which
:func:`first_urp_failure` reads off the certificate.  Masks the certificate
rejects fall back to the literal :func:`holds_urp_at`.

Also here: combination of URP witnesses across joins, transfer of URP along
weakly distributive maps, and the direct witness construction in Con L for a
congruence-splitting lattice L.
"""
from __future__ import annotations

from typing import NamedTuple, Sequence

from .congruence import CongruenceLattice, certifies_ring_of_sets, con_lattice
from .lattice import FiniteLattice, _bits
from .semilattice import (
    FiniteJoinSemilattice,
    InvalidInputWitness,
    SemilatticeHom,
    has_refinement_property,
    is_weakly_distributive,
    is_weakly_distributive_at,
    refinement_square,
)
from .splitting import _greatest_split

DEFAULT_SEARCH_BUDGET = 10_000_000


class IndexMismatch(ValueError):
    """Witness shape does not match the instance's index set."""


class ElementOutOfRange(ValueError):
    """An instance or witness names an element outside 0..n-1."""


class SearchBudgetExceeded(RuntimeError):
    """The witness search ran out of nodes; existence remains undecided."""


class NotDistributive(ValueError):
    """The semilattice lacks the refinement property required here."""


class BadDecomposition(ValueError):
    """Supplied decompositions do not recompose to the stated instance."""


class NotWeaklyDistributive(ValueError):
    """The map is not weakly distributive."""


class NoSourceWitness(ValueError):
    """URP fails at the source element, so nothing can be transferred."""


class NotSplitting(ValueError):
    """A congruence-splitting instance has no splitting witness."""


class _UrpInstanceFields(NamedTuple):
    S: FiniteJoinSemilattice
    e: int
    pairs: tuple[tuple[int, int], ...]


class UrpInstance(_UrpInstanceFields):
    """A URP instance: pairs (a_i, b_i) joining to e."""

    __slots__ = ()

    def __new__(
        cls, S: FiniteJoinSemilattice, e: int, pairs: tuple[tuple[int, int], ...]
    ) -> UrpInstance:
        n, j = S.n, S.join_rows
        if not 0 <= e < n:
            raise ElementOutOfRange(f"target {e} outside 0..{n - 1}")
        for a, b in pairs:
            if not (0 <= a < n and 0 <= b < n):
                raise ElementOutOfRange(f"pair ({a}, {b}) outside 0..{n - 1}")
            if j[a][b] != e:
                raise ValueError(f"pair ({a}, {b}) does not join to {e}")
        return super().__new__(cls, S, e, pairs)


class UrpWitness(NamedTuple):
    astar: tuple[int, ...]
    bstar: tuple[int, ...]
    c: tuple[tuple[int, ...], ...]


class UrpVerification(NamedTuple):
    ok: bool
    clause: str | None = None
    indices: tuple[int, ...] | None = None


def _classes(keys) -> tuple[list[int], list[int]]:
    """Number the distinct keys in order of first occurrence: the number of
    each index's key, and the first index of each number."""
    number: dict = {}
    firsts: list[int] = []
    ids = []
    for i, key in enumerate(keys):
        k = number.get(key)
        if k is None:
            k = number[key] = len(firsts)
            firsts.append(i)
        ids.append(k)
    return ids, firsts


def verify_urp_witness(inst: UrpInstance, w: UrpWitness) -> UrpVerification:
    """Check clauses (i)-(iii); reports the first violated clause.

    Clauses (ii) and (iii) are checked over distinct rows and columns only:
    the check at (i, k) or (i, j, k) depends on each index through a key
    (row i of c, column k, ...), and the first failing index tuple is made
    of first occurrences of its keys, so scanning the first occurrences in
    index order finds exactly the literal first failure."""
    m = len(inst.pairs)
    if len(w.astar) != m or len(w.bstar) != m or len(w.c) != m or any(
        len(row) != m for row in w.c
    ):
        raise IndexMismatch("witness arrays do not match the instance size")
    S = inst.S
    astar, bstar, c = w.astar, w.bstar, w.c
    if m and not (
        0 <= min(min(astar), min(bstar), min(map(min, c)))
        and max(max(astar), max(bstar), max(map(max, c))) < S.n
    ):
        raise ElementOutOfRange(f"witness entries outside 0..{S.n - 1}")
    j = S.join_rows
    down = S.down_bits  # x <= y iff down[y] >> x & 1
    for i, (a, b) in enumerate(inst.pairs):
        if not down[a] >> astar[i] & 1:
            return UrpVerification(False, "i-a", (i,))
        if not down[b] >> bstar[i] & 1:
            return UrpVerification(False, "i-b", (i,))
        if j[astar[i]][bstar[i]] != inst.e:
            return UrpVerification(False, "i-sum", (i,))
    rows, row_firsts = _classes(map(tuple, c))
    cols, col_firsts = _classes(zip(*c))
    # (ii) at (i, k) reads row i and a*_i, and column k, a*_k and b*_k
    ks = _classes(zip(cols, astar, bstar))[1]
    for i in _classes(zip(rows, astar))[1]:
        ci, ai = c[i], astar[i]
        for k in ks:
            v = ci[k]
            if not down[ai] >> v & 1:
                return UrpVerification(False, "ii-ca", (i, k))
            if not down[bstar[k]] >> v & 1:
                return UrpVerification(False, "ii-cb", (i, k))
            if not down[j[astar[k]][v]] >> ai & 1:
                return UrpVerification(False, "ii-tri", (i, k))
    # (iii) at (i, j, k) reads row i, row and column j, and column k
    js = _classes(zip(rows, cols))[1]
    for i in row_firsts:
        ci = c[i]
        cik = [ci[k] for k in col_firsts]
        for jx in js:
            jr, cj = j[ci[jx]], c[jx]
            for k, v in zip(col_firsts, cik):
                if not down[jr[cj[k]]] >> v & 1:
                    return UrpVerification(False, "iii", (i, jx, k))
    return UrpVerification(True)


def canonical_instance(S: FiniteJoinSemilattice, e: int) -> UrpInstance:
    """The pair-set instance at e: every (a, b) with a + b = e, listed once."""
    return UrpInstance(S, e, tuple(sorted(S.decompositions(e))))


def _greedy_witness(inst: UrpInstance, tick: "_Budget") -> UrpWitness | None:
    # c_ik = a_i ^ b_k, read from the semilattice's pseudo-meet table; rows
    # of equal a_i are one shared tuple
    pm = inst.S.pseudo_meet_rows
    bs = [b for _, b in inst.pairs]
    made: dict[int, tuple[int, ...]] = {}
    c = []
    for a, _ in inst.pairs:
        row = pm[a]
        for b in bs:
            tick.spend()
            if row[b] is None:
                return None
        if a not in made:
            made[a] = tuple(row[b] for b in bs)
        c.append(made[a])
    w = UrpWitness(tuple(a for a, _ in inst.pairs), tuple(bs), tuple(c))
    return w if verify_urp_witness(inst, w).ok else None


class _Budget:
    __slots__ = ("left",)

    def __init__(self, budget: int):
        self.left = budget

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise SearchBudgetExceeded("witness search exceeded its node budget")


def search_urp_witness(
    inst: UrpInstance, budget: int | None = None
) -> UrpWitness | None:
    """Complete backtracking search for a URP witness.

    Returns None only after exhausting the space, so a None answer is a
    proof that no witness exists.  Duplicate pairs in the instance are kept
    as distinct indices on purpose.
    """
    if budget is None:
        budget = DEFAULT_SEARCH_BUDGET
    m = len(inst.pairs)
    if m == 0:
        return UrpWitness((), (), ())
    tick = _Budget(budget)
    greedy = _greedy_witness(inst, tick)
    if greedy is not None:
        return greedy
    S = inst.S
    j = S.join_rows
    down = S.down_bits

    # candidate lists depend only on the semilattice and their key, so they
    # are kept on it for every search; a pair's key is itself, as a + b = e
    pair_memo = vars(S).setdefault("_urp_pair_cands", {})
    cell_memo = vars(S).setdefault("_urp_cell_cands", {})

    def pair_cands(a: int, b: int) -> list[tuple[int, int]]:
        # candidate (a*, b*) for the pair (a, b): itself first, then smaller ones
        out = pair_memo.get((a, b))
        if out is None:
            e = j[a][b]
            out = [(x, y) for x in _bits(down[a]) for y in _bits(down[b]) if j[x][y] == e]
            out.sort(
                key=lambda p: (
                    p != (a, b),
                    -(down[p[0]].bit_count() + down[p[1]].bit_count()),
                    p,
                )
            )
            pair_memo[a, b] = out
        return out

    def cell_cands(ai: int, bk: int, ak: int, diagonal: bool) -> list[int]:
        # clause (ii) filtered candidates for c_ik given a*_i = ai, b*_k = bk,
        # a*_k = ak; small first on the diagonal, large first off it
        out = cell_memo.get((ai, bk, ak, diagonal))
        if out is None:
            out = [v for v in _bits(down[ai] & down[bk]) if down[j[ak][v]] >> ai & 1]
            out.sort(key=lambda v: down[v].bit_count() if diagonal else -down[v].bit_count())
            cell_memo[ai, bk, ak, diagonal] = out
        return out

    chosen: list[tuple[int, int]] = [(-1, -1)] * m

    def feasible_with(i: int) -> bool:
        ai, bi = chosen[i]
        for k in range(i + 1):
            ak, bk = chosen[k]
            if not cell_cands(ai, bk, ak, i == k):
                return False
            if k != i and not cell_cands(ak, bi, ai, False):
                return False
        return True

    c: list[list[int]] = [[-1] * m for _ in range(m)]

    def iii_ok(i: int, k: int) -> bool:
        ci, ck = c[i], c[k]
        v = ci[k]
        jv = j[v]
        for t in range(m):
            ct = c[t]
            vit, vtk, vkt, vti = ci[t], ct[k], ck[t], ct[i]
            if vit >= 0 and vtk >= 0 and not down[j[vit][vtk]] >> v & 1:
                return False
            if vkt >= 0 and vit >= 0 and not down[jv[vkt]] >> vit & 1:
                return False
            if vti >= 0 and vtk >= 0 and not down[j[vti][v]] >> vtk & 1:
                return False
        return True

    def fill_cells(cells: list[tuple[int, int]], pos: int) -> bool:
        if pos == len(cells):
            return True
        i, k = cells[pos]
        ai, _ = chosen[i]
        ak, bk = chosen[k]
        for v in cell_cands(ai, bk, ak, i == k):
            tick.spend()
            c[i][k] = v
            if iii_ok(i, k) and fill_cells(cells, pos + 1):
                return True
        c[i][k] = -1
        return False

    def assign_pairs(i: int) -> bool:
        if i == m:
            cells = [(x, y) for x in range(m) for y in range(m)]
            cells.sort(
                key=lambda cell: len(
                    cell_cands(
                        chosen[cell[0]][0],
                        chosen[cell[1]][1],
                        chosen[cell[1]][0],
                        cell[0] == cell[1],
                    )
                )
            )
            for row in c:
                for t in range(m):
                    row[t] = -1
            return fill_cells(cells, 0)
        for cand in pair_cands(*inst.pairs[i]):
            tick.spend()
            chosen[i] = cand
            if feasible_with(i) and assign_pairs(i + 1):
                return True
        chosen[i] = (-1, -1)
        return False

    if assign_pairs(0):
        w = UrpWitness(
            tuple(a for a, _ in chosen),
            tuple(b for _, b in chosen),
            tuple(tuple(row) for row in c),
        )
        check = verify_urp_witness(inst, w)
        if not check.ok:
            raise AssertionError(f"search produced an invalid witness: {check}")
        return w
    return None


def holds_urp_at(
    S: FiniteJoinSemilattice, e: int, budget: int | None = None
) -> bool:
    """Decide URP at e via the canonical pair-set instance."""
    return search_urp_witness(canonical_instance(S, e), budget) is not None


def satisfies_urp(S: FiniteJoinSemilattice, budget: int | None = None) -> bool:
    """URP at every element of S."""
    return all(holds_urp_at(S, e, budget) for e in range(S.n))


def first_urp_failure(con: CongruenceLattice, budget: int | None = None) -> int | None:
    """The first element of Con L at which URP fails, or None.

    Con L joins by OR, so masks that form a ring of sets prove URP at every
    e by the meet witness a* = a, b* = b, c_ik = a_i & b_k.  The masks are
    closed under &, so c_ik is an element.  (ii): every t in a_i lies in
    e = a_k | b_k, so a_i <= a_k | (a_i & b_k).  (iii): t in a_i & b_k lies
    in a_j or b_j, so in (a_i & b_j) | (a_j & b_k).  On other masks the
    literal :func:`holds_urp_at` decides each element in turn."""
    if certifies_ring_of_sets(con.masks):
        return None
    return next((e for e in range(con.n) if not holds_urp_at(con, e, budget)), None)


# -- closure under joins ---------------------------------------------------------


def refine_instance(
    combined: UrpInstance, e0: int, e1: int
) -> tuple[UrpInstance, UrpInstance]:
    """Split an instance at e = e0 + e1 into instances at e0 and at e1, via
    refinement squares of a_i + b_i = e0 + e1.  Requires the refinement
    property on the relevant equations."""
    S = combined.S
    if S.join_rows[e0][e1] != combined.e:
        raise BadDecomposition(f"{e0} + {e1} != {combined.e}")
    p0, p1 = [], []
    for a, b in combined.pairs:
        sq = refinement_square(S, a, b, e0, e1)
        if sq is None:
            raise NotDistributive(f"no refinement square for ({a}, {b}) vs ({e0}, {e1})")
        p0.append((sq.c00, sq.c10))
        p1.append((sq.c01, sq.c11))
    return UrpInstance(S, e0, tuple(p0)), UrpInstance(S, e1, tuple(p1))


def urp_join_combine(
    combined: UrpInstance,
    split0: UrpInstance,
    split1: UrpInstance,
    w0: UrpWitness,
    w1: UrpWitness,
) -> UrpWitness:
    """Combine URP witnesses at e0 and e1 into one at e0 + e1.

    The split instances must decompose the combined one pairwise:
    a_i = a0_i + a1_i and b_i = b0_i + b1_i.  The combined witness is the
    pairwise join of the split witnesses; its validity is rechecked."""
    S = combined.S
    if not has_refinement_property(S).holds:
        raise NotDistributive("semilattice lacks the refinement property")
    m = len(combined.pairs)
    if len(split0.pairs) != m or len(split1.pairs) != m:
        raise BadDecomposition("split instances have a different index set")
    j = S.join_rows
    if j[split0.e][split1.e] != combined.e:
        raise BadDecomposition("split targets do not join to the combined target")
    for i in range(m):
        if j[split0.pairs[i][0]][split1.pairs[i][0]] != combined.pairs[i][0]:
            raise BadDecomposition(f"a-components at index {i} do not recompose")
        if j[split0.pairs[i][1]][split1.pairs[i][1]] != combined.pairs[i][1]:
            raise BadDecomposition(f"b-components at index {i} do not recompose")
    if not verify_urp_witness(split0, w0).ok or not verify_urp_witness(split1, w1).ok:
        raise InvalidInputWitness("a split witness fails its defining conditions")
    out = UrpWitness(
        tuple(j[w0.astar[i]][w1.astar[i]] for i in range(m)),
        tuple(j[w0.bstar[i]][w1.bstar[i]] for i in range(m)),
        tuple(
            tuple(j[w0.c[i][k]][w1.c[i][k]] for k in range(m)) for i in range(m)
        ),
    )
    check = verify_urp_witness(combined, out)
    if not check.ok:
        raise AssertionError(f"combined URP witness is invalid: {check}")
    return out


# -- transfer along weakly distributive maps ---------------------------------------


def urp_transfer(
    h: SemilatticeHom, u: int, inst: UrpInstance, budget: int | None = None
) -> UrpWitness:
    """Transfer URP from u through a weakly distributive map to f(u).

    Each pair of the target instance is pulled back through a
    weak-distributivity witness at u, a URP witness is searched for the
    pulled-back instance, and its image is a witness for the original."""
    if inst.S is not h.target:
        raise ValueError("instance does not live in the target of h")
    if not is_weakly_distributive(h):
        raise NotWeaklyDistributive("map is not weakly distributive")
    f = h.map
    if inst.e != f[u]:
        raise ValueError(f"instance target {inst.e} differs from f(u) = {f[u]}")
    wd = is_weakly_distributive_at(h, u)
    pulled = tuple(wd.witness.table[(y, z)] for y, z in inst.pairs)
    source_inst = UrpInstance(h.source, u, pulled)
    w = search_urp_witness(source_inst, budget)
    if w is None:
        raise NoSourceWitness(f"URP fails at source element {u}")
    m = len(inst.pairs)
    out = UrpWitness(
        tuple(f[w.astar[i]] for i in range(m)),
        tuple(f[w.bstar[i]] for i in range(m)),
        tuple(tuple(f[w.c[i][k]] for k in range(m)) for i in range(m)),
    )
    check = verify_urp_witness(inst, out)
    if not check.ok:
        raise AssertionError(f"transferred URP witness is invalid: {check}")
    return out


# -- congruence lattices of congruence-splitting lattices ----------------------------


def csurp_witness(
    L: FiniteLattice, u: int, v: int, families: Sequence[tuple[int, int]]
) -> UrpWitness:
    """A URP witness in Con L at Theta(u, v) for a family of congruence
    pairs (alpha_i, beta_i) with alpha_i v beta_i = Theta(u, v), built from
    congruence-splitting witnesses rather than searched.

    Splitting (alpha_i, beta_i) yields s_i, t_i in [u, v] with s_i v t_i = v,
    Theta(u, s_i) <= alpha_i, Theta(u, t_i) <= beta_i; the witness is
    a*_i = Theta(u, s_i), b*_i = Theta(u, t_i), c_ij = Theta(s_j, s_i v s_j).
    s_i and t_i are the greatest such pair, read off the block tops of
    alpha_i and beta_i.  Indices refer to con_lattice(L) order.  The witness
    is not verified here: the caller checks it with
    :func:`verify_urp_witness`."""
    con = con_lattice(L)
    jn = con.join_rows
    pc = con.principal
    if not L.le(u, v):
        raise ValueError(f"{u} is not below {v}")
    if not all(0 <= i < len(con) for pair in families for i in pair):
        raise ElementOutOfRange(f"family indices outside 0..{len(con) - 1}")
    eps = pc[u][v]
    for ai, bi in families:
        if jn[ai][bi] != eps:
            raise ValueError("family pair does not join to Theta(u, v)")
    split = [_greatest_split(L, u, v, ai, bi) for ai, bi in families]
    if None in split:
        ai, bi = families[split.index(None)]
        raise NotSplitting(f"no splitting witness for family pair ({ai}, {bi})")
    s = [si for si, _ in split]
    jn_l = L.join_rows
    return UrpWitness(
        tuple(pc[u][si] for si in s),
        tuple(pc[u][ti] for _, ti in split),
        tuple(tuple(pc[sk][jn_l[si][sk]] for sk in s) for si in s),
    )
