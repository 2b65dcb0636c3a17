"""Congruences, the congruence lattice, chains, induced maps, neutral ideals."""
from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from conlat import (
    Chain,
    Congruence,
    FiniteLattice,
    HostMismatch,
    HypothesesFail,
    IndexOutOfRange,
    LatticeHom,
    NotAHom,
    NotAnIdeal,
    NotJoined,
    RefinementSquare,
    alternating_chain,
    boolean,
    certifies_ring_of_sets,
    chain,
    con_lattice,
    con_nid_iso,
    congruence_from_blocks,
    congruence_join,
    congruence_meet,
    check_semilattice_hom,
    enumerate_lattice_homs,
    enumerate_lattices,
    has_refinement_property,
    induced_con_map,
    is_distributive,
    is_modular,
    is_neutral_ideal,
    is_sectionally_complemented,
    is_weakly_distributive,
    m3,
    monotonize_chain,
    n5,
    neutral_ideals,
    principal_congruence,
    refinement_by_certificate,
)
from conlat.cli import _con_distributive, _join_instances, _urp_everywhere
from conlat.congruence import _blocks
from oracles import (
    M3_MASKS,
    alternating_chain_bfs,
    certifies_ring_of_sets_by_join_table,
    closure_by_union_find,
    con_lattice_on_masks,
    con_tables_by_joins,
    congruence_partitions,
    eager_principal_table,
    from_ideal_by_closure,
    is_neutral_ideal_by_axes,
    join_by_union_find,
    meet_by_partition_intersection,
    principal_ideal_sets,
    reps_by_interval_scan,
    set_partitions,
    tops_by_join_fold,
)

SMALL = list(enumerate_lattices(5))

lattices = st.sampled_from(SMALL)

N5 = n5()
CON_N5 = con_lattice(N5)

n5_congruences = st.sampled_from(list(CON_N5.congruences))


def test_congruence_from_blocks_round_trips():
    for L in SMALL:
        for t in con_lattice(L).congruences:
            assert congruence_from_blocks(L, t.blocks()) == t


@pytest.mark.parametrize(
    "blocks",
    [
        [[0, 1], [1, 2, 3, 4]],
        [[0], [1, 2], [3]],
        [[0], [1, 2], [3], [4, 5]],
        [[0], [1, 2], [3], [4]],
        [[], [0], [1], [2], [3], [4]],
        [[0, True, 2, 3, 4]],
        [[0, 1, 2, 3, 4.0]],
    ],
    ids=[
        "overlapping",
        "missing-element",
        "out-of-range",
        "incompatible",
        "empty-block",
        "bool-element",
        "float-element",
    ],
)
def test_congruence_from_blocks_rejects_bad_partitions(blocks):
    with pytest.raises(ValueError):
        congruence_from_blocks(m3(), blocks)


def test_congruence_accepts_exactly_the_masks_of_con(corpus5):
    for L in corpus5:
        con = con_lattice(L)
        for m in range(1 << len(L.covers())):
            if m in con.mask_index:
                assert Congruence(L, m) == con.congruences[con.mask_index[m]]
            else:
                with pytest.raises(ValueError):
                    Congruence(L, m)


@pytest.mark.parametrize(
    "mask",
    ["1", 1.0, None, (0, 1), True, False, -1, 1 << 6, 0b1111111, 1],
    ids=[
        "str",
        "float",
        "none",
        "rep-array",
        "true",
        "false",
        "negative",
        "bit-past-covers",
        "all-covers-and-one-past",
        "unclosed",
    ],
)
def test_congruence_rejects_masks_outside_con(mask):
    # M3 has 6 covers; collapsing one cover of M3 collapses all of them
    M = m3()
    assert len(M.covers()) == 6 and con_lattice(M).masks == (0, 0b111111)
    with pytest.raises(ValueError):
        Congruence(M, mask)


def test_below_join_rejects_elements_out_of_range():
    delta = CON_N5.congruences[CON_N5.bottom]
    for u in (-1, N5.n):
        with pytest.raises(IndexOutOfRange):
            CON_N5.below_join(u, N5.top, delta, delta)
        with pytest.raises(IndexOutOfRange):
            CON_N5.below_join(N5.bottom, u, delta, delta)


def b2() -> FiniteLattice:
    return FiniteLattice.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


@st.composite
def lattice_with_raw_chain(draw):
    L = draw(lattices)
    m = draw(st.integers(min_value=0, max_value=4))
    raw = [draw(st.integers(min_value=0, max_value=L.n - 1)) for _ in range(m)]
    u = draw(st.integers(min_value=0, max_value=L.n - 1))
    v = L.join_of(u, draw(st.integers(min_value=0, max_value=L.n - 1)))
    return L, raw, u, v


# ---------------------------------------------------------------------------
# principal congruences


def test_principal_reflexive_is_identity(corpus5):
    for L in corpus5:
        for u in range(L.n):
            assert principal_congruence(L, u, u).num_blocks == L.n


def test_principal_n5_short_edge():
    theta = principal_congruence(N5, 1, 2)
    assert theta.blocks() == ((0,), (1, 2), (3,), (4,))


def test_principal_m3_collapses_everything():
    M = m3()
    for atom in (1, 2, 3):
        assert principal_congruence(M, 0, atom).num_blocks == 1


def test_principal_is_least_collapsing(corpus5):
    for L in corpus5:
        cl = con_lattice(L)
        for u, v in itertools.combinations(range(L.n), 2):
            theta = principal_congruence(L, u, v)
            below = [t for t in cl.congruences if t.same(u, v)]
            assert all(theta.refines(t) for t in below)
            assert theta in below


def test_principal_matches_union_find_oracle(corpus7):
    # the closure over cover masks against the element-pair union-find
    for L in corpus7:
        for u, v in itertools.product(range(L.n), repeat=2):
            assert principal_congruence(L, u, v).rep == closure_by_union_find(L, [(u, v)])


# ---------------------------------------------------------------------------
# join and meet


def test_join_matches_union_find_oracle(corpus7):
    for L in corpus7:
        congs = con_lattice(L).congruences
        for t1, t2 in itertools.product(congs, repeat=2):
            assert congruence_join(t1, t2).rep == join_by_union_find(t1, t2)


def test_meet_matches_partition_intersection_oracle(corpus7):
    for L in corpus7:
        congs = con_lattice(L).congruences
        for t1, t2 in itertools.product(congs, repeat=2):
            assert congruence_meet(t1, t2).rep == meet_by_partition_intersection(t1, t2)


def test_join_meet_identity_laws():
    delta = CON_N5.congruences[CON_N5.bottom]
    nabla = CON_N5.congruences[CON_N5.top]
    for theta in CON_N5.congruences:
        assert congruence_join(theta, delta) == theta
        assert congruence_meet(theta, nabla) == theta


def test_n5_join_example():
    a0 = principal_congruence(N5, 0, 1)
    a1 = principal_congruence(N5, 2, 4)
    assert congruence_join(a0, a1).num_blocks == 1


def test_n5_meet_example():
    a0 = principal_congruence(N5, 0, 1)
    a1 = principal_congruence(N5, 2, 4)
    assert congruence_meet(a0, a1) == principal_congruence(N5, 1, 2)


def test_host_mismatch():
    with pytest.raises(HostMismatch):
        congruence_join(
            principal_congruence(N5, 0, 1),
            principal_congruence(chain(3), 0, 1),
        )


def test_chain_validate_rejects_labels_from_another_lattice():
    C3 = chain(3)
    assert Chain(C3, (0, 1), (principal_congruence(C3, 0, 1),)).validate()
    with pytest.raises(HostMismatch):
        Chain(C3, (0, 1), (principal_congruence(chain(5), 0, 1),)).validate()


@given(n5_congruences, n5_congruences, n5_congruences)
@settings(max_examples=60, deadline=None)
def test_join_commutative_associative(t1, t2, t3):
    assert congruence_join(t1, t2) == congruence_join(t2, t1)
    assert congruence_join(congruence_join(t1, t2), t3) == congruence_join(
        t1, congruence_join(t2, t3)
    )


@given(n5_congruences, n5_congruences)
@settings(max_examples=40, deadline=None)
def test_meet_refines_both(t1, t2):
    m = congruence_meet(t1, t2)
    assert m.refines(t1) and m.refines(t2)


# ---------------------------------------------------------------------------
# the congruence lattice


def test_con_counts():
    assert len(con_lattice(chain(2)).congruences) == 2
    assert len(con_lattice(m3()).congruences) == 2
    assert len(CON_N5.congruences) == 5
    assert len(con_lattice(chain(4)).congruences) == 8
    assert len(con_lattice(b2()).congruences) == 4


def test_con_agrees_with_partition_oracle(corpus5):
    for L in corpus5:
        got = {
            frozenset(frozenset(b) for b in t.blocks())
            for t in con_lattice(L).congruences
        }
        assert got == congruence_partitions(L)


def test_con_tables_match_join_closure_oracle(corpus7):
    # the cover-bitmask construction against the closure-under-join one,
    # index for index
    for L in corpus7:
        cl = con_lattice(L)
        congs, leq, principal = con_tables_by_joins(L)
        assert [t.rep for t in cl.congruences] == congs
        assert [[cl.le(i, j) for j in range(len(cl))] for i in range(len(cl))] == leq
        assert [list(row) for row in cl.principal] == principal


def test_principal_table_matches_eager_oracle(corpus7):
    for L in corpus7:
        con = con_lattice(L)
        assert con.principal == eager_principal_table(con)


def test_tops_are_the_largest_block_elements(corpus6):
    # the reversed copies put each top at the least index of its block
    reversed_ids = [
        FiniteLattice.from_covers(L.n, [(L.n - 1 - x, L.n - 1 - y) for x, y in L.covers()])
        for L in corpus6
    ]
    for L in [*corpus6, *reversed_ids, chain(10)]:
        con = con_lattice(L)
        for theta, tops in zip(con.congruences, con.tops):
            for block in theta.blocks():
                top = [y for y in block if all(L.le(x, y) for x in block)]
                assert len(top) == 1
                assert all(tops[x] == top[0] for x in block)


def assert_blocks_match_oracles(L):
    con = con_lattice(L)
    reps = [reps_by_interval_scan(L, m) for m in con.masks]
    tops = [tops_by_join_fold(L, rep) for rep in reps]
    assert list(_blocks(L, con.masks)) == list(zip(reps, tops))
    assert [t.rep for t in con.congruences] == reps
    assert list(con.tops) == tops


def test_blocks_match_oracles_up_to_size_8():
    for L in enumerate_lattices(8):
        assert_blocks_match_oracles(L)


def test_blocks_match_oracles_on_chains_and_cube():
    assert len(con_lattice(chain(10))) == 512
    for L in [*map(chain, range(1, 11)), boolean(3)]:
        assert_blocks_match_oracles(L)


def test_blocks_match_oracles_under_relabelling(corpus7):
    # a random relabelling is not a linear extension, so a rep need not be
    # the bottom of its block
    rng = random.Random(25)
    moved = 0
    for L in corpus7:
        perm = rng.sample(range(L.n), L.n)
        M = FiniteLattice.from_covers(L.n, [(perm[x], perm[y]) for x, y in L.covers()])
        assert_blocks_match_oracles(M)
        moved += any(not M.le(r, x) for t in con_lattice(M).congruences for x, r in enumerate(t.rep))
    assert moved


def test_con_lattice_reads_the_covers_once_and_builds_congruences_on_first_read():
    L = boolean(3)
    calls = []
    covers = L.covers
    L.covers = lambda: calls.append(1) or covers()
    con = con_lattice(L)
    assert "congruences" not in con.__dict__
    assert refinement_by_certificate(con).holds
    assert "congruences" not in con.__dict__
    assert [t.num_blocks for t in con.congruences] == [8, 4, 4, 4, 2, 2, 2, 1]
    assert con.principal and con.tops and con_nid_iso(L)
    assert len(calls) == 1


def test_certificate_check_builds_no_principal_table():
    con = con_lattice(chain(6))
    assert refinement_by_certificate(con).holds
    assert "principal" not in con.__dict__


def test_con_join_table_matches_congruence_join(corpus6):
    for L in corpus6:
        cl = con_lattice(L)
        congs = cl.congruences
        jn = cl.join_rows
        for i, ti in enumerate(congs):
            for j, tj in enumerate(congs):
                assert congs[jn[i][j]] == congruence_join(ti, tj)


def test_con_contains_bounds_and_is_closed(corpus5):
    for L in corpus5:
        cl = con_lattice(L)
        reps = set(cl.congruences)
        assert cl.congruences[cl.bottom].num_blocks == L.n
        assert cl.congruences[cl.top].num_blocks == 1
        for t1, t2 in itertools.combinations(cl.congruences, 2):
            assert congruence_join(t1, t2) in reps
            assert congruence_meet(t1, t2) in reps


def test_con_lattice_is_distributive(corpus5):
    for L in corpus5:
        assert is_distributive(con_lattice(L))


def assert_con_matches_validating_constructor(L):
    # Con L reads its order and join table off the masks with no lattice
    # check; FiniteLattice validates the order and builds its tables from
    # up-set and down-set intersections
    con = con_lattice(L)
    oracle = FiniteLattice(con.down_bits)
    for attr in ("down_bits", "up_bits", "join_rows", "meet_rows", "bottom", "top"):
        assert getattr(con, attr) == getattr(oracle, attr), attr
    assert con.covers() == oracle.covers()


def test_con_order_and_tables_match_the_validating_constructor():
    assert len(con_lattice(chain(10))) == 512
    for L in [*enumerate_lattices(8), *map(chain, range(1, 11)), boolean(3), m3()]:
        assert_con_matches_validating_constructor(L)


@pytest.mark.parametrize("row", [_urp_everywhere, _con_distributive])
def test_urp_and_con_distributive_rows_build_no_order(row):
    # the certificate reads the masks alone: no join table and no order
    for L in (boolean(3), m3(), n5(), chain(6)):
        assert row(L, 0) == {"verdict": "holds"}
        built = con_lattice(L).__dict__
        assert not {"join_rows", "down_bits", "up_bits"} & built.keys()


# ---------------------------------------------------------------------------
# the ring-of-sets certificate


def join_irreducible_masks(L: FiniteLattice) -> list[int]:
    # each element to the set of join-irreducibles below it: injective and
    # meet-preserving, and join-preserving iff L is distributive (Birkhoff)
    lower = [0] * L.n
    for _, y in L.covers():
        lower[y] += 1
    irreducible = sum(1 << x for x in range(L.n) if lower[x] == 1)
    return [d & irreducible for d in L.down_bits]


def test_certificate_matches_literal_refinement_on_lattices(corpus7):
    verdicts = set()
    for L in corpus7:
        masks = join_irreducible_masks(L)
        certified = certifies_ring_of_sets(masks)
        assert certified == certifies_ring_of_sets_by_join_table(L, masks)
        assert certified == has_refinement_property(L).holds == is_distributive(L)
        verdicts.add(certified)
    assert verdicts == {True, False}


def test_certificate_holds_on_every_con(corpus7):
    for L in corpus7:
        con = con_lattice(L)
        assert certifies_ring_of_sets(con.masks)
        assert refinement_by_certificate(con).holds


def test_certificate_matches_the_join_table_oracle():
    assert len(con_lattice(chain(10))) == 512
    for L in [*enumerate_lattices(8), *map(chain, range(1, 11))]:
        con = con_lattice(L)
        assert certifies_ring_of_sets(con.masks) == certifies_ring_of_sets_by_join_table(
            con, con.masks
        )


def test_mask_squares_refine_every_equation_of_con(corpus6):
    # the square of a0 + a1 = b0 + b1 is c_xy = a_x & b_y, read through the
    # mask -> index dict
    for L in corpus6:
        con = con_lattice(L)
        S, m, at = con, con.masks, con.mask_index
        for e in range(S.n):
            decs = S.decompositions(e)
            for (a0, a1), (b0, b1) in itertools.product(decs, repeat=2):
                cells = (at[m[a] & m[b]] for a, b in ((a0, b0), (a0, b1), (a1, b0), (a1, b1)))
                assert RefinementSquare(a0, a1, b0, b1, *cells).satisfied_in(S)


def test_certificate_rejects_masks_that_are_not_a_ring_of_sets():
    # the atoms of M3 as the two-element subsets of {0, 1, 2}: closed under
    # | but not under &
    assert not certifies_ring_of_sets(M3_MASKS)
    # closed under & but not under |, and closed under both but repeated
    assert not certifies_ring_of_sets((0, 1, 2, 4, 8))
    assert not certifies_ring_of_sets((0, 1, 1, 3))
    assert certifies_ring_of_sets((0, 1, 3)) and certifies_ring_of_sets((0, 1, 2, 3))


def test_uncertified_con_falls_back_to_the_literal_scan():
    con = con_lattice_on_masks(M3_MASKS)
    literal = has_refinement_property(m3())
    assert not literal.holds
    assert refinement_by_certificate(con) == literal


# ---------------------------------------------------------------------------
# alternating chains


def validate_chain(L, ch, u, v):
    elems = ch.elements
    assert elems[0] == u and elems[-1] == v
    for w1, w2 in zip(elems, elems[1:]):
        assert L.le(w1, w2)
    for (w1, w2), label in zip(zip(elems, elems[1:]), ch.labels):
        assert label is None or label.same(w1, w2)


def test_alternating_chain_direct_step():
    for L in (N5, b2()):
        cl = con_lattice(L)
        for u in range(L.n):
            for v in range(L.n):
                if not L.le(u, v):
                    continue
                alpha = principal_congruence(L, u, v)
                for beta in cl.congruences:
                    ch = alternating_chain(L, u, v, alpha, beta)
                    validate_chain(L, ch, u, v)


def test_alternating_chain_n5_example():
    alpha = principal_congruence(N5, 0, 1)
    beta = principal_congruence(N5, 2, 4)
    ch = alternating_chain(N5, 0, 4, alpha, beta)
    validate_chain(N5, ch, 0, 4)
    # each step must lie in alpha or beta alone
    for (w1, w2), label in zip(zip(ch.elements, ch.elements[1:]), ch.labels):
        assert label.same(w1, w2)


def test_alternating_chain_trivial_endpoints():
    delta = CON_N5.congruences[CON_N5.bottom]
    ch = alternating_chain(N5, 2, 2, delta, delta)
    assert ch.elements == (2,)


def test_alternating_chain_not_joined():
    delta_idx = CON_N5.bottom
    delta = CON_N5.congruences[delta_idx]
    with pytest.raises(NotJoined):
        alternating_chain(N5, 0, 4, delta, delta)


def test_alternating_chain_exhaustive(corpus5):
    for L in corpus5:
        cl = con_lattice(L)
        for u in range(L.n):
            for v in range(L.n):
                if not L.le(u, v):
                    continue
                theta = principal_congruence(L, u, v)
                for alpha, beta in itertools.product(cl.congruences, repeat=2):
                    if not theta.refines(congruence_join(alpha, beta)):
                        continue
                    ch = alternating_chain(L, u, v, alpha, beta)
                    validate_chain(L, ch, u, v)


def assert_alternates(L, ch, u, v, alpha, beta):
    assert ch.validate()
    assert ch.elements[0] == u and ch.elements[-1] == v
    assert len(ch.labels) % 2 == 0
    for i, label in enumerate(ch.labels):
        assert label is (alpha if i % 2 == 0 else beta)


def test_both_alternating_chains_validate_and_alternate(corpus6):
    # the cover walk and the former BFS-and-monotonize construction
    for L in corpus6:
        for u, v, alpha, beta in _join_instances(L):
            for ch in (
                alternating_chain(L, u, v, alpha, beta),
                alternating_chain_bfs(L, u, v, alpha, beta),
            ):
                assert_alternates(L, ch, u, v, alpha, beta)


def _is_cover(L, x, y):
    between = L.up_bits[x] & L.down_bits[y]
    return x != y and between == (1 << x | 1 << y)


def test_alternating_chain_steps_are_covers(corpus7):
    for L in corpus7:
        for u, v, alpha, beta in _join_instances(L):
            e = alternating_chain(L, u, v, alpha, beta).elements
            assert all(x == y or _is_cover(L, x, y) for x, y in zip(e, e[1:]))


def test_alternating_chain_n5_is_a_cover_chain():
    # the BFS construction jumps from 1 to 4, which is not a cover
    alpha = principal_congruence(N5, 0, 1)
    beta = principal_congruence(N5, 2, 4)
    assert alternating_chain_bfs(N5, 0, 4, alpha, beta).elements == (0, 1, 4)
    assert not _is_cover(N5, 1, 4)
    ch = alternating_chain(N5, 0, 4, alpha, beta)
    assert ch.elements == (0, 1, 1, 2, 4)
    assert_alternates(N5, ch, 0, 4, alpha, beta)


# ---------------------------------------------------------------------------
# monotonization


def test_monotonize_identity_on_monotone():
    ch = monotonize_chain(N5, [0, 1, 2, 4], 0, 4)
    assert ch.elements == (0, 1, 2, 4)


def test_monotonize_incomparable_middle():
    # raw [u, t, v] with t incomparable to u lands on (u or t) meet v
    L = b2()
    ch = monotonize_chain(L, [1, 2, 3], 1, 3)
    assert ch.elements == (1, L.meet_of(L.join_of(1, 2), 3), 3)


def test_monotonize_rejects_elements_out_of_range():
    for x in (-1, N5.n):
        for raw, u, v in (([0, 4], 0, x), ([0, 4], x, 4), ([0, x, 4], 0, 4)):
            with pytest.raises(IndexOutOfRange):
                monotonize_chain(N5, raw, u, v)


def test_chain_validate_rejects_elements_out_of_range():
    L = chain(3)
    for x in (-1, L.n):
        for elements in ((0, x), (x, 2)):
            with pytest.raises(IndexOutOfRange):
                Chain(L, elements, (None,)).validate()


@given(lattice_with_raw_chain())
@settings(max_examples=80, deadline=None)
def test_monotonize_output_monotone(case):
    L, raw, u, v = case
    ch = monotonize_chain(L, raw, u, v)
    assert ch.elements[0] == u and ch.elements[-1] == v
    for w1, w2 in zip(ch.elements, ch.elements[1:]):
        assert L.le(w1, w2)


@given(lattice_with_raw_chain())
@settings(max_examples=60, deadline=None)
def test_monotonize_preserves_step_labels(case):
    L, raw, u, v = case
    full = [u, *raw, v]
    labels = [
        principal_congruence(L, w1, w2) for w1, w2 in zip(full, full[1:])
    ]
    ch = monotonize_chain(L, full, u, v, labels)
    assert len(ch.labels) == len(ch.elements) - 1
    for (w1, w2), label in zip(zip(ch.elements, ch.elements[1:]), ch.labels):
        assert label.same(w1, w2)


# ---------------------------------------------------------------------------
# induced maps on congruence lattices


def test_induced_map_of_identity():
    h = LatticeHom(N5, N5, tuple(range(5)))
    f = induced_con_map(h)
    assert f.map == tuple(range(len(CON_N5.congruences)))
    assert induced_con_map(h) is f


def test_induced_map_of_constant():
    f = induced_con_map(LatticeHom(N5, N5, (0, 0, 0, 0, 0)))
    assert set(f.map) == {CON_N5.bottom}


def test_induced_maps_preserve_joins():
    # induced_con_map does not check this at run time; its docstring proves it
    for K, L in itertools.product(SMALL, repeat=2):
        for h in enumerate_lattice_homs(K, L):
            assert check_semilattice_hom(induced_con_map(h))


def test_induced_map_of_a_non_hom_raises_on_every_call():
    h = LatticeHom(chain(2), chain(2), (1, 0))
    for _ in range(2):
        with pytest.raises(NotAHom):
            induced_con_map(h)


def test_induced_map_of_interval_inclusion():
    # include the three-chain [0, b] into the pentagon
    h = LatticeHom(chain(3), N5, (0, 1, 2))
    f = induced_con_map(h)
    assert f.source.n == len(con_lattice(chain(3)).congruences) == 4
    assert is_weakly_distributive(f)


# ---------------------------------------------------------------------------
# neutral ideals


def test_trivial_ideals_neutral(corpus5):
    for L in corpus5:
        assert is_neutral_ideal(L, {L.bottom})
        assert is_neutral_ideal(L, set(range(L.n)))


def test_non_ideal_rejected():
    with pytest.raises(NotAnIdeal):
        is_neutral_ideal(N5, {1})  # not downward closed
    with pytest.raises(NotAnIdeal):
        is_neutral_ideal(b2(), {0, 1, 2})  # not join closed: 1 v 2 is the top


def test_neutral_ideals_match_axis_scan(corpus7):
    for L in corpus7:
        expected = [I for I in principal_ideal_sets(L) if is_neutral_ideal_by_axes(L, I)]
        assert neutral_ideals(L) == expected


def test_neutral_ideal_counts():
    assert len(neutral_ideals(m3())) == 2
    B = b2()
    assert len(neutral_ideals(B)) == 4
    assert len(neutral_ideals(B)) == len(con_lattice(B).congruences)


def test_con_nid_iso_round_trip(corpus5):
    for L in corpus5:
        if not (is_sectionally_complemented(L) and is_modular(L)):
            continue
        corr = con_nid_iso(L)
        cl = con_lattice(L)
        nids = set(neutral_ideals(L))
        seen = set()
        for i in range(len(cl.congruences)):
            ideal = corr.to_ideal[i]
            assert ideal in nids
            assert corr.from_ideal[ideal] == i
            seen.add(ideal)
        assert seen == nids


def test_con_nid_iso_order_preserving():
    L = b2()
    corr = con_nid_iso(L)
    cl = con_lattice(L)
    for i, j in itertools.product(range(len(cl.congruences)), repeat=2):
        t1, t2 = cl.congruences[i], cl.congruences[j]
        assert t1.refines(t2) == (corr.to_ideal[i] <= corr.to_ideal[j])


def test_con_nid_iso_matches_closure_oracle():
    scm = [
        L for L in enumerate_lattices(8) if is_sectionally_complemented(L) and is_modular(L)
    ]
    assert len(scm) == 8  # 1, 2, B2, M3, M4, M5, M6, B3
    for L in scm:
        assert con_nid_iso(L).from_ideal == from_ideal_by_closure(L)


def test_con_nid_iso_needs_hypotheses():
    with pytest.raises(HypothesesFail):
        con_nid_iso(N5)
