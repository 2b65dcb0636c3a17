"""Independent brute-force oracles the test suite checks the library against.

Everything here deliberately avoids the library's own algorithms: posets are
enumerated by down-set DFS rather than semilattice augmentation, congruences
by filtering all set partitions, refinement by quadruple loops, ring ideals
by additive-subgroup scans.  Slow but obviously correct.
:func:`closure_by_union_find` is the former congruence closure, a union-find
over element pairs, kept as the reference for the closure over cover masks;
:func:`con_tables_by_joins` is the former construction of Con L, which
closes the principal congruences under joins with it, kept as the reference
for the OR-closure of cover masks.  :func:`poset_code`
is the former canonical code, which tries every relabeling the colour
refinement allows, kept as the reference for the branch-and-bound search.
:func:`matrix_ring_tables` is the former construction of product ring
tables, which computes every sum and product on tuples of matrices, kept as
the reference for the tables folded from the factor tables.
:func:`verify_urp_witness_literal` is the former URP verifier, which checks
clause (iii) on all m^3 index triples, kept as the reference for the check
over distinct rows and columns; :func:`refinement_square_sorting` is the
former refinement-square search, which sorts its candidate lists on every
call, kept as the reference for the lists built once per semilattice.
:func:`lub_glb_tables` searches the bounds of every pair, the reference for
the lattice constructor's down-set and up-set lookups;
:func:`eager_lattice_tables` is the former lattice constructor, which built
both tables at once and scanned them for a missing bound, kept as the
reference for the meet test per pair and the tables built on first use;
:func:`eager_principal_table` is the former eager principal table of Con L;
:func:`reps_by_interval_scan` is the former rep array of a cover mask, which
tests every pair y <= x for an interval of collapsed covers, and
:func:`tops_by_join_fold` the former block tops, which fold joins along the
reps; both are kept as the reference for the one walk over upper covers;
:func:`admissible_downsets_by_subsets` is the former augmentation step, which
filters all 2^m subsets, kept as the reference for the down-sets built
element by element; :func:`refinement_counterexample_literal` is the former
refinement-property scan, which solves every ordered form of every equation,
kept as the reference for the scan that solves each equation once.
:func:`covers_by_pair_scan` is the former ``covers()``, which tests each
element above i for an element strictly between, kept as the reference for
the walk that drops the up-set of each cover it finds.
:func:`meet_semilattice_levels` is the former semilattice augmentation, which
codes every admissible down-set of every parent with the library's
``_poset_code``, kept as the reference for the search that skips the
down-sets a twin swap makes smaller.  :func:`alternating_chain_bfs` is the
former alternating chain, a BFS over single-congruence steps followed by
monotonization, kept as a second valid construction next to the cover walk;
:func:`property_c_chain_bfs` and :func:`splitting_from_property_C_recursive`
are the former property (C) chain and the former constructive splitting,
which reran the BFS for every prefix of the chain, kept as the reference for
the one shared BFS.  :func:`splitting_witness_by_box_scan` is the former
splitting witness, which scans [a, b] x [a, b] for the first splitting
pair, kept as the reference for the block-top test.
:func:`universal_property_on_small_targets` is the former
universal-property check, which tried every generator tuple in L^k for every
lattice L of size at most 4, kept as the reference for the one comparison
with the free semilattice; :func:`pi_hom_order_on_small_vectors` is the
former pair of pi checks over {0,1,2}^k, kept as the reference for the
checks over indicator vectors.  Both use the library's ``enumerate_lattices``
or ``pi_map`` for the objects under test.  :func:`are_perspective_by_axes` is
the former ``are_perspective``, which scans every axis for one pair, kept as
the reference for the perspectivity rows built once per lattice
(:func:`perspective_rows_by_axes`), and :func:`is_neutral_ideal_by_axes`
closes an ideal under it.
:func:`from_ideal_by_closure` is the former inverse map of ``con_nid_iso``,
which closes the pairs (bottom, x) of each neutral ideal with
:func:`closure_by_union_find`, kept as the reference for the lookup of
Theta(0, a) in the principal table; :func:`neutral_iff_iso_closed_by_pairs`
is the former ``neutral_iff_iso_closed``, which tests the isomorphism pairs
of a k^2 dict ideal by ideal.  :func:`refinement_by_triples` is the former
check at the end of ``v_monoid``, which refines every equal-sum quadruple of
class vectors with ``refine_nonneg_vectors``; it holds for any vectors in
N^k, so it tests that formula rather than the ring.
:func:`monotone_maps` is the former hom generator, every order-preserving
map in lexicographic order, and :func:`monotone_homs` its former leaf
filter; they are kept as the reference for the enumeration that tests each
join and meet equation as its values are assigned.
:func:`join_by_union_find` and :func:`meet_by_partition_intersection` rebuild
the partitions of two congruences from the covers their masks collapse, by
union-find alone, and join them by closure or intersect them; they are the
reference for OR and AND of masks.  :func:`convex_range_by_pairs` is the
former ``has_convex_range``, which tests every pair of image elements, kept
as the reference for the one pass over the image.
:func:`certifies_ring_of_sets_by_join_table` is the former ring-of-sets
certificate, which tests a semilattice's join table against union of an
index -> mask map, kept as the reference for the certificate on the masks
alone; :func:`con_lattice_on_masks` puts Con L's tables on masks that no
lattice has, such as :data:`M3_MASKS`, so that its literal fallbacks run.
"""
from __future__ import annotations

import itertools
from collections import defaultdict


def labeled_lattice_posets(n: int):
    """All naturally labeled lattices on 0..n-1, as leq matrices.

    Element i's strict lower set is a transitively closed subset of
    0..i-1, so every poset appears once per index-monotone labeling.
    """
    downs = [0] * n

    def closed(mask: int) -> bool:
        m = mask
        while m:
            j = (m & -m).bit_length() - 1
            if downs[j] & ~mask:
                return False
            m &= m - 1
        return True

    def rec(i: int):
        if i == n:
            le = [
                [(x == y) or bool((downs[y] >> x) & 1) for y in range(n)]
                for x in range(n)
            ]
            if _is_lattice(le):
                yield tuple(tuple(r) for r in le)
            return
        for mask in range(1 << i):
            if closed(mask):
                downs[i] = mask
                yield from rec(i + 1)
        downs[i] = 0

    yield from rec(0)


def _is_lattice(le) -> bool:
    n = len(le)
    for x in range(n):
        for y in range(x + 1, n):
            ub = [z for z in range(n) if le[x][z] and le[y][z]]
            if not any(all(le[z][w] for w in ub) for z in ub):
                return False
            lb = [z for z in range(n) if le[z][x] and le[z][y]]
            if not any(all(le[w][z] for w in lb) for z in lb):
                return False
    return True


def _canonical(le) -> tuple:
    """Lexicographically least relabeling, permuting only within classes of
    equal (lower-set size, upper-set size)."""
    n = len(le)
    key = [
        (sum(le[x][y] for x in range(n)), sum(le[y][x] for x in range(n)))
        for y in range(n)
    ]
    buckets: dict = defaultdict(list)
    for v, k in enumerate(key):
        buckets[k].append(v)
    order = sorted(buckets)
    best = None
    for perm_parts in itertools.product(
        *(itertools.permutations(buckets[k]) for k in order)
    ):
        assign = {}
        pos = 0
        for k, part in zip(order, perm_parts):
            for v in part:
                assign[v] = pos
                pos += 1
        mat = tuple(
            tuple(le[x][y] for y in sorted(range(n), key=lambda v: assign[v]))
            for x in sorted(range(n), key=lambda v: assign[v])
        )
        if best is None or mat < best:
            best = mat
    return best


def _bit_list(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _refine_ranks(n: int, down, up) -> list[int]:
    # iterated colour refinement; colours start from (|down x|, |up x|) and
    # are rebuilt from the sorted colour multisets of the sets below/above x
    keys: list[tuple] = [(down[x].bit_count(), up[x].bit_count()) for x in range(n)]
    while True:
        order = sorted(set(keys))
        rank = {k: i for i, k in enumerate(order)}
        ranks = [rank[k] for k in keys]
        new_keys = [
            (
                ranks[x],
                tuple(sorted(ranks[y] for y in _bit_list(down[x]))),
                tuple(sorted(ranks[y] for y in _bit_list(up[x]))),
            )
            for x in range(n)
        ]
        if len(set(new_keys)) == len(set(keys)):
            return ranks
        keys = new_keys


def poset_code(n: int, down, up) -> str:
    """The canonical code of the poset with down-set masks ``down`` and
    up-set masks ``up``: the lexicographically least bit-packed order matrix
    over every relabeling that lists the refinement classes in rank order,
    found by trying the product of the permutations of every class."""
    ranks = _refine_ranks(n, down, up)
    classes: dict[int, list[int]] = {}
    for x, r in enumerate(ranks):
        classes.setdefault(r, []).append(x)
    pools = [classes[r] for r in sorted(classes)]
    best = None
    for parts in itertools.product(*(itertools.permutations(p) for p in pools)):
        perm = [x for part in parts for x in part]
        code = 0
        for p in range(n):
            dp = down[perm[p]]
            for q in range(n):
                code = (code << 1) | ((dp >> perm[q]) & 1)
        if best is None or code < best:
            best = code
    return f"{n}:{best:x}"


def lub_glb_tables(down) -> tuple[list[list[int]], list[list[int]], int, int]:
    """(join, meet, bottom, top) of the lattice whose down-set masks are
    ``down``: each join is the one common upper bound below all the others,
    each meet the one common lower bound above all the others."""
    n = len(down)
    rng = range(n)

    def le(x: int, y: int) -> bool:
        return bool(down[y] >> x & 1)

    join = [[0] * n for _ in rng]
    meet = [[0] * n for _ in rng]
    for x in rng:
        for y in rng:
            ub = [z for z in rng if le(x, z) and le(y, z)]
            lb = [z for z in rng if le(z, x) and le(z, y)]
            (join[x][y],) = [z for z in ub if all(le(z, w) for w in ub)]
            (meet[x][y],) = [z for z in lb if all(le(w, z) for w in lb)]
    (bottom,) = [z for z in rng if all(le(z, w) for w in rng)]
    (top,) = [z for z in rng if all(le(w, z) for w in rng)]
    return join, meet, bottom, top


def eager_lattice_tables(down) -> tuple:
    """(join, meet, bottom, top) of ``FiniteLattice(down)`` as the former
    constructor built them: the order checks, then both full tables by
    up-set and down-set lookups, and on a missing bound the lexicographic
    pair scan.  Raises the exception the constructor raises, with the same
    message."""
    from conlat import NotALattice

    down = tuple(down)
    n = len(down)
    if n == 0:
        raise ValueError("a lattice needs at least one element")
    if any(d >> n for d in down):
        raise ValueError(f"order bits outside 0..{n - 1}")
    if any(not d >> x & 1 for x, d in enumerate(down)):
        raise ValueError("order is not reflexive")
    up = [sum(1 << x for x in range(n) if down[x] >> y & 1) for y in range(n)]
    if any(d & u != 1 << x for x, (d, u) in enumerate(zip(down, up))):
        raise ValueError("order is not antisymmetric")
    if any(down[y] & ~d for d in down for y in _bit_list(d)):
        raise ValueError("order is not transitive")
    lub = {m: z for z, m in enumerate(up)}
    glb = {m: z for z, m in enumerate(down)}
    jn = [[lub.get(ux & uy) for uy in up] for ux in up]
    mt = [[glb.get(dx & dy) for dy in down] for dx in down]
    for x in range(n):
        for y in range(x, n):
            if jn[x][y] is None:
                raise NotALattice(f"elements {x} and {y} have no least upper bound")
            if mt[x][y] is None:
                raise NotALattice(f"elements {x} and {y} have no greatest lower bound")
    full = (1 << n) - 1
    return tuple(map(tuple, jn)), tuple(map(tuple, mt)), lub[full], glb[full]


def eager_principal_table(con) -> tuple[tuple[int, ...], ...]:
    """The principal table of ``con`` as the former constructor built it:
    Theta(u, v) is the join of the closures of the covers inside
    [u ^ v, u v v], looked up by mask for every pair."""
    from conlat.congruence import _closure, _cover_tables

    L = con.host
    gens = [_closure(L, 1 << j) for j in range(len(con.host_covers))]
    at = {m: i for i, m in enumerate(con.masks)}
    (above, below, _), jn, mt = _cover_tables(L), L.join_rows, L.meet_rows

    def theta_index(a: int, b: int) -> int:
        m = 0
        for j in _bit_list(above[a] & below[b]):
            m |= gens[j]
        return at[m]

    return tuple(
        tuple(theta_index(mt[u][v], jn[u][v]) for v in range(L.n)) for u in range(L.n)
    )


def reps_by_interval_scan(L, mask: int) -> tuple[int, ...]:
    """The rep array of the congruence collapsing the covers in ``mask``:
    its blocks are intervals, so x and y share one iff every cover inside
    [x ^ y, x v y] is collapsed, and the least such y is the rep of x."""
    from conlat.congruence import _cover_tables

    (above, below, _), jn, mt = _cover_tables(L), L.join_rows, L.meet_rows
    return tuple(
        next(y for y in range(x + 1) if above[mt[x][y]] & below[jn[x][y]] & ~mask == 0)
        for x in range(L.n)
    )


def tops_by_join_fold(L, rep) -> tuple[int, ...]:
    """The top of each element's block under the rep array ``rep``: the
    join of the block's members, folded along rep."""
    jn, top = L.join_rows, {}
    for x, r in enumerate(rep):
        top[r] = jn[top.get(r, x)][x]
    return tuple(map(top.__getitem__, rep))


def covers_by_pair_scan(L) -> list[tuple[int, int]]:
    """The cover pairs (i, j) of L in index order: j > i covers i iff no
    element strictly above i lies below j, other than j itself."""
    out = []
    up, down = L.up_bits, L.down_bits
    for i in range(L.n):
        strict_up = up[i] & ~(1 << i)
        for j in _bit_list(strict_up):
            if strict_up & down[j] == 1 << j:
                out.append((i, j))
    return out


def admissible_downsets_by_subsets(downs) -> list[int]:
    """The down-sets D containing element 0 of the meet-semilattice with
    down-set masks ``downs`` such that every D ^ down(x) has a greatest
    element, by filtering every subset in increasing order."""
    m = len(downs)
    out = []
    for d in range(1, 1 << m):
        if d & 1 == 0:
            continue
        if any(downs[x] & ~d for x in _bit_list(d)):
            continue
        ok = True
        for x in range(m):
            inter = d & downs[x]
            if not any(inter & ~downs[b] == 0 for b in _bit_list(inter)):
                ok = False
                break
        if ok:
            out.append(d)
    return out


def meet_semilattice_levels(max_size: int) -> list[list[tuple[str, tuple[int, ...]]]]:
    """levels[m] = (code, down-set masks) of the first-seen representative
    of every meet-semilattice on m + 1 elements, sorted by code: every
    admissible down-set of every parent is coded, none is skipped."""
    from conlat import lattice

    def code(down, up) -> str:
        return lattice._poset_code([_bit_list(d) for d in down], [_bit_list(u) for u in up])

    levels = [[(code((1,), (1,)), (1,))]]
    for m in range(1, max_size):
        bit = 1 << m
        seen: dict[str, tuple[int, ...]] = {}
        for _, downs in levels[m - 1]:
            ups = lattice._ups_from_downs(downs)
            for new in lattice._admissible_downsets(downs):
                cand = downs + (new | bit,)
                cand_ups = tuple(u | bit if new >> y & 1 else u for y, u in enumerate(ups))
                c = code(cand, cand_ups + (bit,))
                if c not in seen:
                    seen[c] = cand
        levels.append(sorted(seen.items()))
    return levels


def count_lattices(n: int) -> int:
    """Isomorphism classes of n-element lattices, the slow way."""
    return len({_canonical(le) for le in labeled_lattice_posets(n)})


def set_partitions(elems):
    elems = list(elems)
    if not elems:
        yield []
        return
    head, rest = elems[0], elems[1:]
    for smaller in set_partitions(rest):
        for i in range(len(smaller)):
            yield smaller[:i] + [[head] + smaller[i]] + smaller[i + 1 :]
        yield [[head]] + smaller


def congruence_partitions(L) -> set[frozenset[frozenset[int]]]:
    """All congruences of L as block partitions, by filtering every set
    partition for compatibility with the tables."""
    jn, mt = L.join_rows, L.meet_rows
    out = set()
    for blocks in set_partitions(range(L.n)):
        rep = {}
        for b in blocks:
            for x in b:
                rep[x] = min(b)
        ok = True
        for b in blocks:
            for x in b:
                for y in b:
                    if any(
                        rep[jn[x][z]] != rep[jn[y][z]] or rep[mt[x][z]] != rep[mt[y][z]]
                        for z in range(L.n)
                    ):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if ok:
            out.add(frozenset(frozenset(b) for b in blocks))
    return out


def closure_by_union_find(L, seed_pairs) -> tuple[int, ...]:
    """The least congruence identifying the seed pairs, as the array that
    maps each element to the least member of its block: union-find over
    elements, then compatibility forced by re-merging the joins and meets of
    every merged pair with every element."""
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
    return tuple(mins[find(x)] for x in range(n))


def collapsed_covers(theta) -> list[tuple[int, int]]:
    """The covers x < y of the host that theta collapses, read off its mask
    bit by bit against ``host.covers()``."""
    covers = theta.host.covers()
    return [covers[j] for j in range(len(covers)) if theta.mask >> j & 1]


def join_by_union_find(t1, t2) -> tuple[int, ...]:
    """The least congruence containing both, as :func:`closure_by_union_find`
    of the ends of every cover either collapses."""
    return closure_by_union_find(t1.host, collapsed_covers(t1) + collapsed_covers(t2))


def meet_by_partition_intersection(t1, t2) -> tuple[int, ...]:
    """The common refinement of both partitions, each rebuilt by
    :func:`closure_by_union_find` from the covers it collapses: x joins the
    block of the least y in the same block as x in both."""
    p1 = closure_by_union_find(t1.host, collapsed_covers(t1))
    p2 = closure_by_union_find(t2.host, collapsed_covers(t2))
    least: dict[tuple[int, int], int] = {}
    return tuple(least.setdefault((r1, r2), x) for x, (r1, r2) in enumerate(zip(p1, p2)))


def _refines(r1, r2) -> bool:
    # every block of the rep array r1 lies in a block of r2
    return all(r2[x] == r2[r] for x, r in enumerate(r1))


def con_tables_by_joins(L):
    """Con L as (reps, leq, principal): every principal congruence as a rep
    array, closed under joins, sorted by (number of blocks, rep)
    descending, ordered by refinement; principal[u][v] indexes Theta(u, v).
    Principal congruences and joins come from :func:`closure_by_union_find`."""
    n = L.n
    found = {tuple(range(n))}
    principals = {}
    for u in range(n):
        for v in range(u + 1, n):
            principals[(u, v)] = closure_by_union_find(L, [(u, v)])
            found.add(principals[(u, v)])
    work = list(found)
    while work:
        r1 = work.pop()
        for r2 in list(found):
            j = closure_by_union_find(L, [*enumerate(r1), *enumerate(r2)])
            if j not in found:
                found.add(j)
                work.append(j)
    reps = sorted(found, key=lambda r: (len(set(r)), r), reverse=True)
    index = {r: i for i, r in enumerate(reps)}
    leq = [[_refines(ri, rj) for rj in reps] for ri in reps]
    principal = [
        [0 if u == v else index[principals[(min(u, v), max(u, v))]] for v in range(n)]
        for u in range(n)
    ]
    return reps, leq, principal


def refinement_holds(S) -> bool:
    """Quadruple-loop refinement check: every a0 + a1 = b0 + b1 admits a
    full 2x2 interpolation matrix."""
    n, j = S.n, S.join_rows
    rng = range(n)
    for a0 in rng:
        for a1 in rng:
            e = j[a0][a1]
            for b0 in rng:
                for b1 in rng:
                    if j[b0][b1] != e:
                        continue
                    if not any(
                        j[c00][c01] == a0
                        and j[c10][c11] == a1
                        and j[c00][c10] == b0
                        and j[c01][c11] == b1
                        for c00 in rng
                        for c01 in rng
                        for c10 in rng
                        for c11 in rng
                    ):
                        return False
    return True


def certifies_ring_of_sets_by_join_table(S, masks) -> bool:
    """masks, one set per element of S, is injective, sends join to union,
    and its image is closed under intersection."""
    index = {m: i for i, m in enumerate(masks)}
    if len(masks) != S.n or len(index) != S.n:
        return False
    return all(
        masks[x] == mi | mj and mi & mj in index
        for row, mi in zip(S.join_rows, masks)
        for x, mj in zip(row, masks)
    )


# the atoms of M3 as the two-element subsets of {0, 1, 2}, in M3's element
# order: closed under union, but no atom is the intersection of two others
M3_MASKS = (0b000, 0b011, 0b110, 0b101, 0b111)


def con_lattice_on_masks(masks):
    """A CongruenceLattice with no host whose masks are ``masks``, held as
    its constructor holds them, with bottom first and top last."""
    from conlat import CongruenceLattice

    con = CongruenceLattice.__new__(CongruenceLattice)
    con.masks, con.mask_index = tuple(masks), {m: i for i, m in enumerate(masks)}
    con.n, con.bottom, con.top = len(masks), 0, len(masks) - 1
    return con


def refinement_counterexample_literal(S):
    """The first equation a0 + a1 = b0 + b1 without a refinement square,
    calling ``refinement_square`` on every ordered pair of decompositions of
    every element in the order of ``S.decompositions``; None if there is
    none."""
    from conlat.semilattice import refinement_square

    for e in range(S.n):
        for a0, a1 in S.decompositions(e):
            for b0, b1 in S.decompositions(e):
                if refinement_square(S, a0, a1, b0, b1) is None:
                    return (a0, a1, b0, b1)
    return None


def refinement_square_sorting(S, a0, a1, b0, b1):
    """The first refinement square in the search order of the library's
    ``refinement_square``, with the candidates for c_xy sorted on each call:
    common lower bounds of x and y, larger down-set first, ties by index."""
    from conlat.semilattice import RefinementSquare

    j = S.join_rows
    if j[a0][a1] != j[b0][b1]:
        raise ValueError("a0 + a1 and b0 + b1 differ")

    def cands(x, y):
        mask = S.down_bits[x] & S.down_bits[y]
        return sorted(
            (z for z in range(S.n) if mask >> z & 1),
            key=lambda z: -(S.down_bits[z].bit_count()),
        )

    for c00 in cands(a0, b0):
        for c01 in cands(a0, b1):
            if j[c00][c01] != a0:
                continue
            for c10 in cands(a1, b0):
                if j[c00][c10] != b0:
                    continue
                for c11 in cands(a1, b1):
                    if j[c10][c11] == a1 and j[c01][c11] == b1:
                        return RefinementSquare(a0, a1, b0, b1, c00, c01, c10, c11)
    return None


def verify_urp_witness_literal(inst, w):
    """Clauses (i), (ii) and (iii) of a URP witness over every index, in
    index order, with the first failing clause and its indices."""
    from conlat.urp import IndexMismatch, UrpVerification

    m = len(inst.pairs)
    if len(w.astar) != m or len(w.bstar) != m or len(w.c) != m or any(
        len(row) != m for row in w.c
    ):
        raise IndexMismatch("witness arrays do not match the instance size")
    S = inst.S
    j = S.join_rows
    le = S.le
    astar, bstar, c = w.astar, w.bstar, w.c
    for i, (a, b) in enumerate(inst.pairs):
        if not le(astar[i], a):
            return UrpVerification(False, "i-a", (i,))
        if not le(bstar[i], b):
            return UrpVerification(False, "i-b", (i,))
        if j[astar[i]][bstar[i]] != inst.e:
            return UrpVerification(False, "i-sum", (i,))
    for i in range(m):
        ci, ai = c[i], astar[i]
        for k in range(m):
            v = ci[k]
            if not le(v, ai):
                return UrpVerification(False, "ii-ca", (i, k))
            if not le(v, bstar[k]):
                return UrpVerification(False, "ii-cb", (i, k))
            if not le(ai, j[astar[k]][v]):
                return UrpVerification(False, "ii-tri", (i, k))
    for i in range(m):
        ci = c[i]
        for jx in range(m):
            cij = ci[jx]
            cj = c[jx]
            for k in range(m):
                if not le(ci[k], j[cij][cj[k]]):
                    return UrpVerification(False, "iii", (i, jx, k))
    return UrpVerification(True)


def matrix_ring_tables(comps) -> tuple[list[list[int]], list[list[int]], int, int]:
    """(add, mul, one, zero) of the product of the matrix rings M(n, p) in
    ``comps``: elements are tuples of matrices, each a tuple of rows,
    numbered in ``itertools.product`` order of the row-major entry tuples."""
    matrices_per_comp = []
    for n, p in comps:
        entries = itertools.product(range(p), repeat=n * n)
        matrices_per_comp.append(
            [tuple(tuple(e[i * n + j] for j in range(n)) for i in range(n)) for e in entries]
        )
    elements = list(itertools.product(*matrices_per_comp))
    index = {e: i for i, e in enumerate(elements)}

    def mat_add(a, b, p):
        return tuple(tuple((x + y) % p for x, y in zip(ra, rb)) for ra, rb in zip(a, b))

    def mat_mul(a, b, p):
        n = len(a)
        return tuple(
            tuple(sum(a[i][t] * b[t][j] for t in range(n)) % p for j in range(n))
            for i in range(n)
        )

    primes = [p for _, p in comps]
    add = [
        [index[tuple(mat_add(a, b, p) for a, b, p in zip(e, f, primes))] for f in elements]
        for e in elements
    ]
    mul = [
        [index[tuple(mat_mul(a, b, p) for a, b, p in zip(e, f, primes))] for f in elements]
        for e in elements
    ]

    def constant(diagonal: int):
        return tuple(
            tuple(tuple(diagonal * (i == j) for j in range(n)) for i in range(n))
            for n, _ in comps
        )

    return add, mul, index[constant(1)], index[constant(0)]


def first_non_regular_element(R) -> int | None:
    """The first x with no y such that xyx = x, by scanning every pair."""
    mul = R.mul
    for x in range(R.n):
        if not any(mul[mul[x][y]][x] == x for y in range(R.n)):
            return x
    return None


def additive_closure(R, gens) -> frozenset[int]:
    """The additive subgroup generated by gens, by a work list that adds
    every new element to every element found so far."""
    add = R.add
    group = {R.zero}
    work = list(gens)
    while work:
        g = work.pop()
        if g in group:
            continue
        group.add(g)
        for h in list(group):
            s = add[g][h]
            if s not in group:
                work.append(s)
    return frozenset(group)


def principal_ideals_by_products(R) -> tuple[frozenset[int], ...]:
    """RxR for every element x: the additive closure of the products ys with
    y in Rx and s in R."""
    mul, rng = R.mul, range(R.n)
    return tuple(
        additive_closure(R, {mul[y][s] for y in {mul[r][x] for r in rng} for s in rng})
        for x in rng
    )


def additive_subgroups(R) -> list[frozenset[int]]:
    """Every additive subgroup, grown one generator at a time."""
    found = {frozenset({R.zero})}
    work = [frozenset({R.zero})]
    while work:
        g = work.pop()
        for x in range(R.n):
            bigger = additive_closure(R, g | {x})
            if bigger not in found:
                found.add(bigger)
                work.append(bigger)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def two_sided_ideal_sets(R) -> list[frozenset[int]]:
    """Two-sided ideals by scanning every additive subgroup."""
    mul = R.mul
    return [
        g
        for g in additive_subgroups(R)
        if all(mul[r][x] in g and mul[x][r] in g for x in g for r in range(R.n))
    ]


def pi_hom_order_on_small_vectors(R, pm) -> dict[str, bool]:
    """The former ``hom`` and ``order`` checks of ``verify_pi_map``, over all
    9^k pairs of vectors in {0,1,2}^k instead of pairs of indicator vectors,
    with the algebraic preorder read literally: alpha <= n beta for some
    n >= 1."""
    vectors = list(itertools.product(range(3), repeat=pm.vm.k))

    def below(al, be) -> bool:
        return any(
            all(a <= n * b for a, b in zip(al, be)) for n in range(1, max(al, default=0) + 2)
        )

    return {
        "hom": all(
            pm([x + y for x, y in zip(al, be)]) == additive_closure(R, pm(al) | pm(be))
            for al in vectors
            for be in vectors
        ),
        "order": all(
            (pm(al) <= pm(be)) == below(al, be) for al in vectors for be in vectors
        ),
    }


def universal_property_on_small_targets(sq, max_target_size: int) -> bool:
    """The former ``SupportQuotient.verify_universal_property``: every monoid
    hom h from N^k into a lattice with at most max_target_size elements,
    viewed as a join-semilattice with bottom, given by its generator tuple in
    L^k, factors as h = hbar . map with hbar(A) the join of the generators in
    A, and hbar is a semilattice hom."""
    from conlat.lattice import enumerate_lattices

    k = sq.k
    vectors = list(itertools.product(range(3), repeat=k))
    subsets = [frozenset(s) for r in range(k + 1) for s in itertools.combinations(range(k), r)]
    for L in enumerate_lattices(max_target_size):
        jn, bot = L.join_rows, L.bottom
        for gens in itertools.product(range(L.n), repeat=k):
            def hbar(A) -> int:
                acc = bot
                for i in A:
                    acc = jn[acc][gens[i]]
                return acc

            def h(alpha) -> int:
                acc = bot
                for g, v in zip(gens, alpha):
                    for _ in range(v):
                        acc = jn[acc][g]
                return acc

            if any(h(al) != hbar(sq.map(al)) for al in vectors):
                return False
            if any(hbar(A | B) != jn[hbar(A)][hbar(B)] for A in subsets for B in subsets):
                return False
    return True


def all_lattice_homs(K, L) -> list[tuple[int, ...]]:
    """Join-and-meet preserving maps by scanning every function."""
    jnK, mtK = K.join_rows, K.meet_rows
    jnL, mtL = L.join_rows, L.meet_rows
    out = []
    for f in itertools.product(range(L.n), repeat=K.n):
        if all(
            f[jnK[x][y]] == jnL[f[x]][f[y]] and f[mtK[x][y]] == mtL[f[x]][f[y]]
            for x in range(K.n)
            for y in range(K.n)
        ):
            out.append(f)
    return out


def all_semilattice_homs(S, T) -> list[tuple[int, ...]]:
    jS, jT = S.join_rows, T.join_rows
    out = []
    for f in itertools.product(range(T.n), repeat=S.n):
        if all(
            f[jS[x][y]] == jT[f[x]][f[y]] for x in range(S.n) for y in range(S.n)
        ):
            out.append(f)
    return out


def monotone_maps(P, Q):
    """Every order-preserving map P -> Q (anything with ``n`` and
    ``down_bits``), by backtracking over the values of 0, 1, ...; the value
    tables come out in lexicographic order."""
    n, m = P.n, Q.n
    below = [[i for i in range(k) if P.down_bits[k] >> i & 1] for k in range(n)]
    above = [[i for i in range(k) if P.down_bits[i] >> k & 1] for k in range(n)]
    down = Q.down_bits
    up = [sum(1 << y for y in range(m) if down[y] >> x & 1) for x in range(m)]
    f = [0] * n

    def extend(k):
        if k == n:
            yield tuple(f)
            return
        allowed = (1 << m) - 1
        for i in below[k]:
            allowed &= up[f[i]]
        for i in above[k]:
            allowed &= down[f[i]]
        for v in range(m):
            if allowed >> v & 1:
                f[k] = v
                yield from extend(k + 1)

    yield from extend(0)


def monotone_homs(P, Q, tables):
    """The maps of :func:`monotone_maps` that keep each named table
    (``"join_rows"``, ``"meet_rows"``) on every pair, tested at the leaf."""
    ops = [(getattr(P, name), getattr(Q, name)) for name in tables]
    return [
        f
        for f in monotone_maps(P, Q)
        if all(
            f[s[x][y]] == t[f[x]][f[y]] for s, t in ops for x in range(P.n) for y in range(P.n)
        )
    ]


def convex_range_by_pairs(h) -> bool:
    """The image of h is order-convex: for every pair x, y of image
    elements, everything in [x, y] is in the image."""
    L, values = h.target, set(h.map)
    img = sum(1 << v for v in values)
    return all(L.up_bits[x] & L.down_bits[y] & ~img == 0 for x in values for y in values)


def alternating_chain_bfs(L, u, v, alpha, beta):
    """The former alternating chain: a shortest fence of alpha- and beta-steps
    from u to v found by BFS over all elements (alpha preferred), then
    monotonized and padded with trivial steps so the labels alternate."""
    from conlat.congruence import Chain, monotonize_chain

    if u == v:
        return Chain(L, (u,), ())
    prev = {u: (-1, alpha)}
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
    path, labs = [v], []
    x = v
    while x != u:
        p, lab = prev[x]
        labs.append(lab)
        path.append(p)
        x = p
    mono = monotonize_chain(L, path[::-1], u, v, labs[::-1])
    elems, labels = [mono.elements[0]], []
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


def _labelled_bfs(L, a, b, c, label):
    # the former shortest-chain BFS: prev[y] = (x, z, label) of the step into y
    from conlat.splitting import rel_lessdot

    prev = {a: (-1, -1, -1)}
    frontier = [a]
    while frontier and b not in prev:
        nxt = []
        for x in sorted(frontier):
            for y in range(L.n):
                if not (L.le(x, y) and L.le(y, b)) or y in prev:
                    continue
                lab = label(x, y)
                if lab is None:
                    continue
                z = rel_lessdot(L, x, y, c)
                if z is not None:
                    prev[y] = (x, z, lab)
                    nxt.append(y)
        frontier = nxt
    return prev


def property_c_chain_bfs(L, a, b, c):
    """The former property (C) chain: its own BFS, read back from b."""
    from conlat.splitting import CChain

    if not L.le(a, b):
        return None
    prev = _labelled_bfs(L, a, b, c, lambda x, y: 0)
    if b not in prev:
        return None
    elems, wits = [b], []
    x = b
    while x != a:
        p, z, _ = prev[x]
        wits.append(z)
        elems.append(p)
        x = p
    return CChain(L, c, tuple(elems[::-1]), tuple(wits[::-1]))


def splitting_from_property_C_recursive(inst):
    """The former constructive splitting: a BFS to b, then a recursion on
    (a, c) for the last step c <~a b, with a new instance and BFS per prefix."""
    from conlat.splitting import NoChain, SplitInstance

    L, a, b = inst.L, inst.a, inst.b
    al0, al1 = inst.alpha0, inst.alpha1
    if a == b:
        return (a, a)
    label = lambda x, y: 0 if al0.same(x, y) else 1 if al1.same(x, y) else None
    prev = _labelled_bfs(L, a, b, a, label)
    if b not in prev:
        raise NoChain(f"no labelled chain from {a} to {b} below {a}")
    c, z, lab = prev[b]
    y0, y1 = splitting_from_property_C_recursive(SplitInstance(L, a, c, al0, al1))
    jn = L.join_rows
    if lab == 0:
        return (jn[y0][z], y1)
    return (y0, jn[y1][z])


def splitting_witness_by_box_scan(L, a, b, i0, i1):
    """The former splitting witness: the first (x0, x1) in [a, b] x [a, b],
    in ascending order, with x0 v x1 = b, Theta(a, x0) <= alpha_i0 and
    Theta(a, x1) <= alpha_i1."""
    from conlat import con_lattice
    from conlat.lattice import _bits

    jn = L.join_rows
    con = con_lattice(L)
    pa = con.principal[a]
    d0, d1 = con.down_bits[i0], con.down_bits[i1]
    box = list(_bits(L.up_bits[a] & L.down_bits[b]))
    ok0 = [x for x in box if d0 >> pa[x] & 1]
    ok1 = set(x for x in box if d1 >> pa[x] & 1)
    for x0 in ok0:
        for x1 in box:
            if x1 in ok1 and jn[x0][x1] == b:
                return (x0, x1)
    return None


def are_perspective_by_axes(L, x: int, y: int) -> bool:
    """x ~ y iff some axis z has x ^ z = y ^ z = bottom and x v z = y v z,
    tried for every z."""
    jn, mt, bot = L.join_rows, L.meet_rows, L.bottom
    return any(
        mt[x][z] == bot and mt[y][z] == bot and jn[x][z] == jn[y][z]
        for z in range(L.n)
    )


def perspective_rows_by_axes(L) -> tuple[int, ...]:
    """Bit y of row x is set iff :func:`are_perspective_by_axes` holds."""
    return tuple(
        sum(1 << y for y in range(L.n) if are_perspective_by_axes(L, x, y))
        for x in range(L.n)
    )


def is_neutral_ideal_by_axes(L, I) -> bool:
    """The ideal I is closed under :func:`are_perspective_by_axes`."""
    return all(y in I for x in I for y in range(L.n) if are_perspective_by_axes(L, x, y))


def principal_ideal_sets(L) -> list[frozenset[int]]:
    """The down-set of every element, read off the order by le."""
    return [frozenset(x for x in range(L.n) if L.le(x, a)) for a in range(L.n)]


def from_ideal_by_closure(L) -> dict[frozenset[int], int]:
    """Each neutral ideal I mapped to the index in Con L of the congruence
    generated by the pairs (bottom, x) with x in I."""
    from conlat.congruence import con_lattice

    index = {t.rep: i for i, t in enumerate(con_lattice(L).congruences)}
    return {
        I: index[closure_by_union_find(L, [(L.bottom, x) for x in I])]
        for I in principal_ideal_sets(L)
        if is_neutral_ideal_by_axes(L, I)
    }


def neutral_iff_iso_closed_by_pairs(R) -> bool:
    """For every ideal of L(R), neutral (by the axis scan) iff closed under
    the isomorphism pairs, stored in a dict over all k^2 pairs of nodes."""
    from conlat.regring import ideals_isomorphic, principal_right_ideals

    lr = principal_right_ideals(R)
    L, gens, k = lr.lattice, lr.generators, lr.lattice.n
    iso = {
        (i, j): ideals_isomorphic(R, gens[i], gens[j]) is not None
        for i in range(k)
        for j in range(k)
    }
    for nodes in principal_ideal_sets(L):
        closed = all(j in nodes for i in nodes for j in range(k) if iso[(i, j)])
        if is_neutral_ideal_by_axes(L, nodes) != closed:
            return False
    return True


def refinement_by_triples(vectors) -> bool:
    """Refinement in N^k over all equal-sum quadruples of the given vectors:
    a0, a1 and b0 fix b1 = a0 + a1 - b0, which must be among them, and
    ``refine_nonneg_vectors`` must return a nonnegative square with those
    row and column sums."""
    from conlat.regring import refine_nonneg_vectors

    def add(u, v):
        return tuple(x + y for x, y in zip(u, v))

    vals = sorted(set(vectors))
    present = set(vals)
    for a0, a1, b0 in itertools.product(vals, repeat=3):
        b1 = tuple(x + y - z for x, y, z in zip(a0, a1, b0))
        if b1 not in present:
            continue
        c00, c01, c10, c11 = refine_nonneg_vectors(a0, a1, b0, b1)
        rows = add(c00, c01) == a0 and add(c10, c11) == a1
        cols = add(c00, c10) == b0 and add(c01, c11) == b1
        if not (rows and cols and all(v >= 0 for c in (c00, c01, c10, c11) for v in c)):
            return False
    return True
