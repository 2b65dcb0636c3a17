"""Core lattice representation, predicates, homs, and enumeration."""
from __future__ import annotations

import itertools
import multiprocessing
import threading

import pytest
from hypothesis import example, given, settings, strategies as st

from conlat import (
    BoundExceeded,
    CyclicCovers,
    FiniteLattice,
    IndexOutOfRange,
    LatticeHom,
    NotALattice,
    NotComparable,
    SemilatticeHom,
    are_perspective,
    canonical_form,
    chain,
    check_hom,
    check_semilattice_hom,
    enumerate_lattice_homs,
    enumerate_lattices,
    enumerate_semilattice_homs,
    has_convex_range,
    interval,
    is_atomistic,
    is_isomorphic,
    is_modular,
    is_relatively_complemented,
    is_sectionally_complemented,
    m3,
    n5,
)
from conlat import con_lattice, lattice
from oracles import (
    admissible_downsets_by_subsets,
    all_lattice_homs,
    all_semilattice_homs,
    convex_range_by_pairs,
    count_lattices,
    covers_by_pair_scan,
    eager_lattice_tables,
    lub_glb_tables,
    meet_semilattice_levels,
    monotone_homs,
    perspective_rows_by_axes,
    poset_code,
)

# Small corpus materialized at import time for hypothesis strategies.
SMALL = list(enumerate_lattices(5))

lattices = st.sampled_from(SMALL)


@st.composite
def relabelings(draw):
    L = draw(lattices)
    perm = draw(st.permutations(range(L.n)))
    return L, tuple(perm)


def b2() -> FiniteLattice:
    return FiniteLattice.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def permuted(L: FiniteLattice, perm: tuple[int, ...]) -> FiniteLattice:
    covers = [(perm[x], perm[y]) for x, y in L.covers()]
    return FiniteLattice.from_covers(L.n, covers)


def m_k(k: int) -> FiniteLattice:
    """k atoms between a bottom 0 and a top k + 1."""
    atoms = range(1, k + 1)
    return FiniteLattice.from_covers(k + 2, [(0, a) for a in atoms] + [(a, k + 1) for a in atoms])


def oracle_code(L: FiniteLattice) -> str:
    return poset_code(L.n, L.down_bits, L.up_bits)


# ---------------------------------------------------------------------------
# from_covers


def test_from_covers_two_chain():
    L = FiniteLattice.from_covers(2, [(0, 1)])
    assert L.n == 2
    assert L.join_of(0, 1) == 1
    assert L.meet_of(0, 1) == 0


def test_from_covers_pentagon_is_valid():
    L = FiniteLattice.from_covers(5, [(0, 1), (1, 2), (0, 3), (2, 4), (3, 4)])
    # every pair must have a unique least upper bound and greatest lower bound
    for x, y in itertools.product(range(5), repeat=2):
        ubs = [z for z in range(5) if L.le(x, z) and L.le(y, z)]
        least = [u for u in ubs if all(L.le(u, w) for w in ubs)]
        assert len(least) == 1 and least[0] == L.join_of(x, y)
        lbs = [z for z in range(5) if L.le(z, x) and L.le(z, y)]
        greatest = [u for u in lbs if all(L.le(w, u) for w in lbs)]
        assert len(greatest) == 1 and greatest[0] == L.meet_of(x, y)
    assert is_isomorphic(L, n5())


def test_from_covers_missing_top_rejected():
    # 1 and 2 are maximal but incomparable: no least upper bound
    with pytest.raises(NotALattice):
        FiniteLattice.from_covers(4, [(0, 1), (0, 2)])


@pytest.mark.parametrize(
    "n, covers, message",
    [
        (3, [(0, 1), (0, 2)], "elements 1 and 2 have no least upper bound"),
        (3, [(0, 2), (1, 2)], "elements 0 and 1 have no greatest lower bound"),
        # 1 and 2 have the upper bounds 3, 4 and 5 but no least one
        (6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 5), (4, 5)],
         "elements 1 and 2 have no least upper bound"),
    ],
)
def test_missing_bound_rejected(n, covers, message):
    with pytest.raises(NotALattice, match=message):
        FiniteLattice.from_covers(n, covers)


def test_from_covers_cycle_rejected():
    with pytest.raises(CyclicCovers):
        FiniteLattice.from_covers(3, [(0, 1), (1, 2), (2, 0)])


def test_from_covers_bad_index_rejected():
    with pytest.raises(IndexOutOfRange):
        FiniteLattice.from_covers(2, [(0, 5)])


def test_le_rejects_bool_ids():
    # chain(3).le(True, 2) returned True
    with pytest.raises(IndexOutOfRange):
        chain(3).le(True, 2)


def test_join_of_rejects_bool_ids():
    # chain(3).join_of(False, True) returned 1
    with pytest.raises(IndexOutOfRange):
        chain(3).join_of(False, True)


# ---------------------------------------------------------------------------
# the down-set constructor


@pytest.mark.parametrize(
    "down, message",
    [
        ([], "a lattice needs at least one element"),
        ([0b1, 0b110], "order bits outside 0..1"),
        ([-1, 0b11], "order bits outside 0..1"),
        ([0b1, 0b01], "order is not reflexive"),
        ([0b11, 0b11], "order is not antisymmetric"),
        # 0 <= 1 <= 2 without 0 <= 2
        ([0b001, 0b011, 0b110], "order is not transitive"),
        # also not transitive (1 <= 2 without 0 <= 2): antisymmetry is reported
        ([0b011, 0b011, 0b110], "order is not antisymmetric"),
    ],
)
def test_invalid_order_rejected(down, message):
    with pytest.raises(ValueError, match=message):
        FiniteLattice(down)


def test_tables_match_brute_force_bounds():
    # every lattice up to size 8, its dual (whose bottom is not element 0)
    # and its Con L
    for L in enumerate_lattices(8):
        for K in (L, FiniteLattice(L.up_bits), con_lattice(L)):
            join, meet, bottom, top = lub_glb_tables(K.down_bits)
            assert [list(row) for row in K.join_rows] == join
            assert [list(row) for row in K.meet_rows] == meet
            assert (K.bottom, K.top) == (bottom, top)


# ---------------------------------------------------------------------------
# structural predicates


def test_atomistic_examples():
    assert is_atomistic(chain(2))
    assert is_atomistic(m3())
    assert not is_atomistic(n5())


def test_complementation_and_modularity_triples():
    M = m3()
    assert is_sectionally_complemented(M)
    assert is_relatively_complemented(M)
    assert is_modular(M)
    N = n5()
    assert not is_sectionally_complemented(N)
    assert not is_relatively_complemented(N)
    assert not is_modular(N)


def test_chains_not_sectionally_complemented():
    # the middle element of [0, top] has no complement
    for n in (3, 4, 5):
        assert not is_sectionally_complemented(chain(n))


# ---------------------------------------------------------------------------
# perspectivity


def test_perspective_reflexive_and_symmetric(corpus5):
    for L in corpus5:
        for x in range(L.n):
            assert are_perspective(L, x, x)  # axis = bottom
        for x, y in itertools.combinations(range(L.n), 2):
            assert are_perspective(L, x, y) == are_perspective(L, y, x)


def test_perspective_m3_atoms():
    M = m3()
    # the third atom is a common axis for any two distinct atoms
    assert are_perspective(M, 1, 2)
    assert are_perspective(M, 1, 3)
    assert are_perspective(M, 2, 3)


def test_perspective_b2_atoms_fail():
    # in the 2x2 Boolean lattice no single axis works for the two atoms:
    # z must meet both atoms at 0 (so z in {0, other atom}) yet join them
    # equally, and no choice does both
    B = b2()
    assert not are_perspective(B, 1, 2)


@pytest.mark.parametrize("x,y", [(-1, 0), (0, 5), (5, 0)])
def test_perspective_rejects_elements_outside_the_lattice(x, y):
    with pytest.raises(IndexError):
        are_perspective(m3(), x, y)


def test_perspective_rows_match_axis_scan(corpus7):
    for L in corpus7:
        assert L.perspective_bits == perspective_rows_by_axes(L)


# ---------------------------------------------------------------------------
# intervals


def test_interval_singleton():
    L = n5()
    for x in range(L.n):
        assert interval(L, x, x).lattice.n == 1


def test_interval_n5_lower_edge_is_three_chain():
    # [0, b] in the pentagon picks up the long side {0, a, b}
    iv = interval(n5(), 0, 2)
    assert is_isomorphic(iv.lattice, chain(3))
    assert iv.to_host == (0, 1, 2)


def test_interval_full_is_identity(corpus5):
    for L in corpus5:
        iv = interval(L, L.bottom, L.top)
        assert iv.to_host == tuple(range(L.n))
        assert is_isomorphic(iv.lattice, L)


def test_interval_incomparable_rejected():
    with pytest.raises(NotComparable):
        interval(n5(), 1, 3)


# ---------------------------------------------------------------------------
# homomorphisms


def test_identity_hom_convex(corpus5):
    for L in corpus5:
        h = LatticeHom(L, L, tuple(range(L.n)))
        assert check_hom(h)
        assert has_convex_range(h)


def test_bottom_top_embedding_not_convex():
    h = LatticeHom(chain(2), chain(3), (0, 2))
    assert check_hom(h)
    assert not has_convex_range(h)


def test_bottom_atom_embedding_convex():
    h = LatticeHom(chain(2), chain(3), (0, 1))
    assert check_hom(h)
    assert has_convex_range(h)


@pytest.mark.parametrize("value", [-1, 3])
def test_convex_range_rejects_values_outside_the_target(value):
    # these raised "negative shift count" or a bare IndexError
    h = LatticeHom(chain(2), chain(3), (0, value))
    with pytest.raises(IndexOutOfRange):
        has_convex_range(h)


def test_convex_range_matches_pair_scan_oracle(corpus6):
    # every lattice hom between lattices up to size 6, both verdicts seen
    seen = set()
    for K, L in itertools.product(corpus6, repeat=2):
        for h in enumerate_lattice_homs(K, L):
            verdict = has_convex_range(h)
            assert verdict == convex_range_by_pairs(h)
            seen.add(verdict)
    assert seen == {False, True}


def test_enumerated_homs_are_all_homs_in_lexicographic_order():
    for K in SMALL:
        for L in SMALL:
            if K.n <= 4:
                got = [h.map for h in enumerate_lattice_homs(K, L)]
                assert got == all_lattice_homs(K, L)


def _not_linear_extensions(L: FiniteLattice) -> list[FiniteLattice]:
    """L under every relabelling whose ids are not a linear extension."""
    out = []
    for perm in itertools.permutations(range(L.n)):
        M = permuted(L, perm)
        if any(M.down_bits[x] >> y & 1 for x in range(M.n) for y in range(x + 1, M.n)):
            out.append(M)
    return out


def test_enumerated_homs_on_relabelled_lattices():
    # the corpus ids are a linear extension; these put some element above a
    # larger id, and both enumerators must still give every hom in order
    sources = [M for L in SMALL if L.n <= 4 for M in _not_linear_extensions(L)]
    targets = [permuted(L, tuple(reversed(range(L.n)))) for L in SMALL]
    assert len(sources) == 51
    for K in sources:
        for L in targets:
            assert [h.map for h in enumerate_lattice_homs(K, L)] == all_lattice_homs(K, L)
            assert [h.map for h in enumerate_semilattice_homs(K, L)] == all_semilattice_homs(K, L)


def test_enumerated_homs_match_the_monotone_map_oracle(corpus6):
    # every ordered pair of lattices up to size 6: the same maps in the same
    # order as the monotone maps filtered at the leaves
    ops = ("join_rows", "meet_rows")
    assert len(corpus6) ** 2 == 625
    count = 0
    for K in corpus6:
        for L in corpus6:
            got = [h.map for h in enumerate_lattice_homs(K, L)]
            assert got == monotone_homs(K, L, ops)
            count += len(got)
    assert count == 29196


def test_lattice_homs_keep_meets_as_well_as_joins():
    # both atoms of the square sent to 1 keeps every join but not the meet
    # of the atoms, so it is a semilattice hom and no lattice hom
    B, C, f = b2(), chain(2), (0, 1, 1, 1)
    assert check_semilattice_hom(SemilatticeHom(B, C, f))
    assert not check_hom(LatticeHom(B, C, f))
    assert f in [h.map for h in enumerate_semilattice_homs(B, C)]
    assert f not in [h.map for h in enumerate_lattice_homs(B, C)]


def test_check_hom_rejects_non_hom():
    B = b2()
    # projection onto one coordinate of the square is a hom
    h = LatticeHom(B, chain(2), (0, 1, 0, 1))
    assert check_hom(h)
    # sending both atoms up but top down is join-broken
    bad = LatticeHom(B, chain(2), (0, 1, 1, 0))
    assert not check_hom(bad)


# ---------------------------------------------------------------------------
# enumeration and canonical forms


def test_enumeration_counts_small():
    per_size = {n: 0 for n in range(1, 7)}
    for L in enumerate_lattices(6):
        per_size[L.n] += 1
    assert [per_size[n] for n in range(1, 7)] == [1, 1, 1, 2, 5, 15]


def test_enumeration_agrees_with_oracle_small():
    for n in range(1, 6):
        live = sum(1 for L in enumerate_lattices(n) if L.n == n)
        assert live == count_lattices(n)


def test_single_lattice_of_size_one():
    ls = [L for L in enumerate_lattices(1)]
    assert len(ls) == 1 and ls[0].n == 1


def test_size_five_three_atoms_height_two_is_m3(corpus5):
    found = [
        L for L in corpus5 if L.n == 5 and len(L.atoms) == 3 and L.height == 2
    ]
    assert len(found) == 1
    assert is_isomorphic(found[0], m3())


def test_enumeration_bound():
    with pytest.raises(BoundExceeded):
        list(enumerate_lattices(9))


def test_canonical_codes_distinct_n5_m3():
    assert canonical_form(n5()) != canonical_form(m3())


def test_canonical_codes_size_four():
    codes = {canonical_form(L) for L in enumerate_lattices(4) if L.n == 4}
    assert len(codes) == 2


def test_no_two_yields_share_a_code(corpus6):
    codes = [canonical_form(L) for L in corpus6]
    assert len(codes) == len(set(codes))


@given(relabelings())
@settings(max_examples=60, deadline=None)
def test_canonical_form_relabeling_invariant(case):
    L, perm = case
    relabeled = permuted(L, perm)
    assert canonical_form(relabeled) == canonical_form(L) == oracle_code(relabeled)


def test_canonical_form_matches_permutation_oracle():
    for L in enumerate_lattices(8):
        assert canonical_form(L) == oracle_code(L)


@pytest.mark.parametrize("max_n", [8, pytest.param(10, marks=pytest.mark.slow)])
def test_derived_lattice_codes_match_search(max_n):
    # enumerate_lattices derives each code from its semilattice's code
    for L in enumerate_lattices(max_n, bound=max_n):
        assert canonical_form(L) == lattice._poset_code(
            lattice._element_lists(L.down_bits), lattice._element_lists(L.up_bits)
        )


def test_admissible_downsets_match_subset_filter():
    for level in lattice._meet_semilattice_levels(7):
        for _, downs in level:
            assert lattice._admissible_downsets(downs) == admissible_downsets_by_subsets(downs)


def test_canonical_form_matches_oracle_on_semilattice_candidates(monkeypatch):
    # every meet-semilattice the augmentation codes, lattice or not
    search = lattice._poset_code
    coded = []

    def checked(below, above):
        code = search(below, above)
        n = len(below)
        down = tuple(sum(1 << y for y in b) for b in below)
        up = tuple(sum(1 << y for y in a) for a in above)
        assert code == poset_code(n, down, up)
        coded.append(n)
        return code

    monkeypatch.setattr(lattice, "_poset_code", checked)
    lattice._meet_semilattice_levels(7)
    assert max(coded) == 7


def test_meet_semilattice_levels_match_unpruned_oracle():
    # skipping twin-swapped down-sets keeps every first-seen representative
    assert lattice._meet_semilattice_levels(8) == meet_semilattice_levels(8)


def test_twin_pruning_codes_fewer_candidates(monkeypatch):
    # candidates coded per size; without the twin-swap pruning they are
    # 1, 1, 2, 7, 27, 116, 541, 2861, 16747, and with it alone 1, 1, 2, 6,
    # 21, 89, 419, 2259, 13535.  The top candidates and the atom candidates
    # of parents with a maximal non-atom are not coded either.  The count is
    # kept in this process, so every level is grown in-process.
    monkeypatch.setattr(lattice, "_usable_cpus", lambda: 1)
    search = lattice._poset_code
    calls = [0] * 10

    def counted(below, above):
        calls[len(below)] += 1
        return search(below, above)

    monkeypatch.setattr(lattice, "_poset_code", counted)
    lattice._meet_semilattice_levels(9)
    assert calls[1:] == [1, 0, 1, 3, 12, 60, 314, 1816, 11380]


def test_merged_slices_match_levels():
    # growing a level in k contiguous slices and keeping the first
    # representative of each code, slice by slice, gives the level
    levels = lattice._meet_semilattice_levels(7)
    for m in range(1, 7):
        parents = levels[m - 1]
        for k in range(1, len(parents) + 1):
            step = -(-len(parents) // k)
            seen: dict[str, tuple[int, ...]] = {}
            for i in range(0, len(parents), step):
                part = parents[i : i + step]
                for code, (p, new) in lattice._grow_slice((part, m)):
                    seen.setdefault(code, part[p][1] + (new,))
            assert sorted(seen.items()) == levels[m]


def test_top_adjoined_codes_keep_level_order():
    # enumerate_lattices maps each level through _top_adjoined_code and
    # does not sort it again
    for level in lattice._meet_semilattice_levels(9):
        codes = [lattice._top_adjoined_code(code) for code, _ in level]
        assert all(a < b for a, b in zip(codes, codes[1:]))


def test_pooled_levels_match_in_process_levels(monkeypatch):
    # every level from two parents on is grown in a pool of two workers,
    # whatever the machine has
    in_process = lattice._meet_semilattice_levels(8)
    monkeypatch.setattr(lattice, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(lattice, "_POOL_MIN_PARENTS", 2)
    assert lattice._meet_semilattice_levels(8) == in_process
    assert multiprocessing.active_children() == []


def test_levels_grow_in_process_while_another_thread_runs(monkeypatch):
    # forking a process with other threads would copy their locks
    in_process = lattice._meet_semilattice_levels(8)
    monkeypatch.setattr(lattice, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(lattice, "_POOL_MIN_PARENTS", 2)

    def no_pool(method):
        raise AssertionError(f"a {method} pool was started")

    monkeypatch.setattr(multiprocessing, "get_context", no_pool)
    stop = threading.Event()
    waiter = threading.Thread(target=stop.wait)
    waiter.start()
    try:
        assert lattice._meet_semilattice_levels(8) == in_process
    finally:
        stop.set()
        waiter.join()


def test_enumeration_leaves_no_worker_process(monkeypatch):
    # all levels are grown, and the pool is stopped, before the second yield
    monkeypatch.setattr(lattice, "_usable_cpus", lambda: 2)
    lattices = enumerate_lattices(10, bound=10)
    head = list(itertools.islice(lattices, 3))
    assert multiprocessing.active_children() == []
    assert len(head) + len(list(lattices)) == 7372
    assert multiprocessing.active_children() == []


def test_worker_error_reaches_the_caller(monkeypatch):
    # the size-9 candidates are coded in the workers
    monkeypatch.setattr(lattice, "_usable_cpus", lambda: 2)
    search = lattice._poset_code

    def failing(below, above):
        if len(below) == 9:
            raise RuntimeError("size-9 candidate")
        return search(below, above)

    monkeypatch.setattr(lattice, "_poset_code", failing)
    with pytest.raises(RuntimeError, match="size-9 candidate"):
        lattice._meet_semilattice_levels(9)
    assert multiprocessing.active_children() == []


def with_ups(down: tuple[int, ...]) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    n = len(down)
    up = tuple(sum(1 << x for x in range(n) if down[x] >> y & 1) for y in range(n))
    return n, down, up


@st.composite
def posets(draw):
    # down-set masks in a linear extension: x may lie above any y < x
    down: list[int] = []
    for x in range(draw(st.integers(1, 7))):
        mask = 1 << x
        for y in range(x):
            if draw(st.booleans()):
                mask |= down[y]
        down.append(mask)
    return with_ups(tuple(down))


# a smaller row found deeper in a later tied branch must discard the least
# rows recorded below it by earlier branches; these two posets need that
@example(with_ups((1, 2, 5, 8, 17, 45, 83)))
@example(with_ups((1, 2, 6, 9, 16, 32, 97, 146)))
@given(posets())
@settings(max_examples=200, deadline=None)
def test_poset_code_matches_oracle_on_posets(case):
    assert lattice._poset_code(*map(lattice._element_lists, case[1:])) == poset_code(*case)


def assert_constructor_matches_eager(down) -> str:
    # the meet test per pair accepts and rejects exactly as the former
    # eager construction, and the tables built on first use are its tables;
    # returns the message of the rejection, or "" for a lattice
    try:
        expected = eager_lattice_tables(down)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            FiniteLattice(down)
        assert (type(got.value), str(got.value)) == (type(exc), str(exc))
        return str(exc)
    L = FiniteLattice(down)
    assert (L.join_rows, L.meet_rows, L.bottom, L.top) == expected
    return ""


def test_constructor_matches_eager_oracle_on_corpus(corpus7):
    for L in corpus7:
        assert_constructor_matches_eager(L.down_bits)
        assert_constructor_matches_eager(L.up_bits)  # the dual


@given(posets())
@settings(max_examples=300, deadline=None)
def test_constructor_matches_eager_oracle_on_posets(case):
    assert_constructor_matches_eager(case[1])


@st.composite
def relations(draw):
    # any relation on up to 6 elements, reflexive in most draws; in half of
    # them y <= x only for y <= x as indices, so antisymmetric and often
    # not transitive
    n = draw(st.integers(1, 6))
    lower = draw(st.booleans())
    down = []
    for x in range(n):
        mask = draw(st.integers(0, (2 << x if lower else 1 << n) - 1))
        if draw(st.integers(0, 7)):
            mask |= 1 << x
        down.append(mask)
    return tuple(down)


@given(relations())
@settings(max_examples=500, deadline=None)
def test_constructor_matches_eager_oracle_on_relations(down):
    assert_constructor_matches_eager(down)


def test_constructor_matches_eager_oracle_on_one_bit_changes(corpus6):
    # every order bit of every lattice up to size 6 flipped in turn, which
    # reaches each verdict of the constructor
    verdicts = set()
    for L in corpus6:
        for x, y in itertools.product(range(L.n), repeat=2):
            down = list(L.down_bits)
            down[x] ^= 1 << y
            message = assert_constructor_matches_eager(down)
            verdicts.add(message.split(" have ")[-1])
    assert verdicts == {
        "",
        "order is not reflexive",
        "order is not antisymmetric",
        "order is not transitive",
        "no least upper bound",
        "no greatest lower bound",
    }


def two_times_m_k(k: int) -> FiniteLattice:
    """The product of the 2-chain and M_k: element (a, x) is a * (k + 2) + x."""
    down, s = m_k(k).down_bits, k + 2
    return FiniteLattice([*down, *(d | d << s for d in down)])


def test_canonical_form_matches_oracle_on_m_k():
    # the atoms of M_k are mutual twins, so its code needs no search; the
    # elements (1, a) of 2 x M_k share a colour but are not twins
    for k in range(1, 8):
        assert canonical_form(m_k(k)) == oracle_code(m_k(k))
    for k in range(1, 5):
        assert canonical_form(two_times_m_k(k)) == oracle_code(two_times_m_k(k))


def test_canonical_form_of_m_12():
    assert canonical_form(m_k(12)).startswith("14:")


def test_canonical_form_is_cached():
    L = m3()
    assert canonical_form(L) is canonical_form(L)


def test_canonical_form_seeded_by_enumeration_is_not_recomputed(monkeypatch):
    # every lattice past the first, chain(1), is built with its code
    corpus = list(enumerate_lattices(5))[1:]

    def fail(below, above):
        raise AssertionError("code recomputed")

    monkeypatch.setattr(lattice, "_poset_code", fail)
    for L in corpus:
        assert canonical_form(L) is vars(L)["_canonical_form"]


@given(relabelings())
@settings(max_examples=40, deadline=None)
def test_covers_are_exact_and_sorted(case):
    L = permuted(*case)
    rng = range(L.n)
    assert L.covers() == [
        (i, j)
        for i in rng
        for j in rng
        if i != j
        and L.le(i, j)
        and not any(k not in (i, j) and L.le(i, k) and L.le(k, j) for k in rng)
    ]


def test_covers_match_pair_scan():
    # every lattice up to size 8 and its dual, whose bottom is not element 0
    for L in enumerate_lattices(8):
        for K in (L, FiniteLattice(L.up_bits)):
            assert K.covers() == covers_by_pair_scan(K)


@given(relabelings())
@settings(max_examples=40, deadline=None)
def test_relabeled_lattice_isomorphic(case):
    L, perm = case
    assert is_isomorphic(L, permuted(L, perm))


# ---------------------------------------------------------------------------
# table invariants


def test_join_meet_are_lub_glb(corpus7):
    for L in corpus7:
        for x, y in itertools.product(range(L.n), repeat=2):
            j, m = L.join_of(x, y), L.meet_of(x, y)
            assert L.le(x, j) and L.le(y, j)
            assert L.le(m, x) and L.le(m, y)
            for z in range(L.n):
                if L.le(x, z) and L.le(y, z):
                    assert L.le(j, z)
                if L.le(z, x) and L.le(z, y):
                    assert L.le(z, m)


def test_bounds(corpus5):
    for L in corpus5:
        for x in range(L.n):
            assert L.le(L.bottom, x) and L.le(x, L.top)


# A006966: lattices on 9 and 10 elements
LATTICE_COUNTS_9_10 = {9: 1078, 10: 5994}


@pytest.mark.slow
def test_enumeration_counts_n9_n10():
    sizes = [L.n for L in enumerate_lattices(10, bound=10)]
    assert {n: sizes.count(n) for n in (9, 10)} == LATTICE_COUNTS_9_10


@pytest.mark.slow
def test_enumeration_count_n8_matches_oracle():
    live = sum(1 for L in enumerate_lattices(8) if L.n == 8)
    assert live == 222
    assert count_lattices(8) == 222
