"""Join-semilattices, refinement, weak distributivity, and the join combinator."""
from __future__ import annotations

import gc
import itertools
import random
import weakref

import pytest
from hypothesis import given, settings, strategies as st

from conlat import semilattice
from conlat import (
    FiniteJoinSemilattice,
    FiniteLattice,
    IndexOutOfRange,
    InvalidInputWitness,
    SemilatticeHom,
    TargetNotDistributive,
    WdWitness,
    chain,
    check_semilattice_hom,
    con_lattice,
    enumerate_lattices,
    enumerate_semilattice_homs,
    has_refinement_property,
    is_distributive,
    is_weakly_distributive,
    is_weakly_distributive_at,
    m3,
    n5,
    refinement_square,
    wd_join_combine,
    weakly_distributive_points,
)
from oracles import (
    all_semilattice_homs,
    monotone_homs,
    refinement_counterexample_literal,
    refinement_holds,
    refinement_square_sorting,
)

SMALL = list(enumerate_lattices(5))

semilattices = st.sampled_from(SMALL)


@st.composite
def semilattice_with_elements(draw, k: int = 3):
    S = draw(semilattices)
    xs = [draw(st.integers(min_value=0, max_value=S.n - 1)) for _ in range(k)]
    return (S, *xs)


# two minimal elements below a top: 0 and 1 have no common lower bound
VEE = FiniteJoinSemilattice([[0, 2, 2], [2, 1, 2], [2, 2, 2]])
# three minimal elements 0, 1, 2 with 0 + 1 = 3 and 1 + 2 = 5 below the top
# 4; 5 < 4 in the order, so the ids are not a linear extension
W = FiniteJoinSemilattice(
    [
        [0, 3, 4, 3, 4, 4],
        [3, 1, 5, 3, 4, 5],
        [4, 5, 2, 4, 4, 5],
        [3, 3, 4, 3, 4, 4],
        [4, 4, 4, 4, 4, 4],
        [4, 5, 5, 4, 4, 5],
    ]
)


# ---------------------------------------------------------------------------
# construction and table laws


def test_bad_tables_rejected():
    with pytest.raises(ValueError):
        FiniteJoinSemilattice([[0, 1], [0, 1]])  # not commutative
    with pytest.raises(ValueError):
        FiniteJoinSemilattice([[1, 1], [1, 1]])  # not idempotent


def test_lattice_matches_the_validating_semilattice_constructor(corpus6):
    # a lattice is its own join-semilattice: its tables, read through the
    # semilattice interface, are those the join table alone determines
    for L in corpus6:
        for K in (L, con_lattice(L)):
            assert isinstance(K, FiniteLattice) and isinstance(K, FiniteJoinSemilattice)
            V = FiniteJoinSemilattice(K.join_rows)
            assert (K.n, K.join_rows, K.down_bits, K.top, K.bottom) == (
                V.n, V.join_rows, V.down_bits, V.top, V.bottom
            )
            assert K.pseudo_meet_rows is K.meet_rows
            assert (K.pseudo_meet_rows, K.clb_rows) == (V.pseudo_meet_rows, V.clb_rows)
            assert all(K.decompositions(e) == V.decompositions(e) for e in range(K.n))


def test_con_lattice_order_is_mask_inclusion(corpus6):
    for L in corpus6:
        con = con_lattice(L)
        k, m = len(con), con.masks
        assert con.n == k and (con.bottom, con.top) == (0, k - 1)
        assert con.congruences[0].num_blocks == L.n and con.congruences[-1].num_blocks == 1
        assert all(
            con.le(i, j) == (m[i] & ~m[j] == 0) for i in range(k) for j in range(k)
        )


def test_empty_join_is_the_bottom_when_there_is_one():
    for L in (chain(1), chain(3), m3(), con_lattice(n5())):
        assert L.join_all([]) == L.bottom
    assert VEE.bottom is None
    with pytest.raises(ValueError, match="empty join"):
        VEE.join_all([])
    assert VEE.join_all([0, 1]) == 2


@pytest.mark.parametrize(
    "S", [chain(3), con_lattice(chain(3)), VEE], ids=["chain3", "con_chain3", "vee"]
)
def test_order_queries_reject_ids_outside_range(S):
    # a negative id would index the tables from the end
    queries = [S.le, S.join_of, S.pseudo_meet, lambda x, y: S.join_all([x, y])]
    if isinstance(S, FiniteLattice):
        queries.append(S.meet_of)
    for bad in (-1, S.n):
        for query in queries:
            for args in ((0, bad), (bad, 0)):
                with pytest.raises(IndexOutOfRange):
                    query(*args)


@given(semilattice_with_elements())
@settings(max_examples=100, deadline=None)
def test_join_laws(case):
    S, x, y, z = case
    assert S.join_of(x, y) == S.join_of(y, x)
    assert S.join_of(x, x) == x
    assert S.join_of(S.join_of(x, y), z) == S.join_of(x, S.join_of(y, z))


@given(semilattice_with_elements(k=2))
@settings(max_examples=60, deadline=None)
def test_leq_derived_from_join(case):
    S, x, y = case
    assert S.le(x, y) == (S.join_of(x, y) == y)


# ---------------------------------------------------------------------------
# refinement property


def test_chains_have_refinement():
    for n in range(1, 6):
        assert has_refinement_property(chain(n)).holds


def test_m3_fails_refinement():
    S = m3()
    res = has_refinement_property(S)
    assert not res.holds
    a0, a1, b0, b1 = res.counterexample
    assert S.join_of(a0, a1) == S.join_of(b0, b1)
    assert refinement_square(S, a0, a1, b0, b1) is None
    # the classic failure: two equal joins of distinct atom pairs
    assert refinement_square(S, 1, 2, 1, 3) is None


def test_distributive_lattices_refine_by_meets(corpus5):
    for L in corpus5:
        if not is_distributive(L):
            continue
        S = L
        res = has_refinement_property(S)
        assert res.holds
        for x0, x1 in itertools.product(range(L.n), repeat=2):
            for y0 in range(L.n):
                e = L.join_of(x0, x1)
                for y1 in range(L.n):
                    if L.join_of(y0, y1) != e:
                        continue
                    # meets refine the equation directly
                    c = [[L.meet_of(a, b) for b in (y0, y1)] for a in (x0, x1)]
                    assert L.join_of(c[0][0], c[0][1]) == x0
                    assert L.join_of(c[1][0], c[1][1]) == x1
                    assert L.join_of(c[0][0], c[1][0]) == y0
                    assert L.join_of(c[0][1], c[1][1]) == y1


def test_refinement_squares_returned_are_valid(corpus5):
    for L in corpus5:
        S = L
        if not has_refinement_property(S).holds:
            continue
        for e in range(S.n):
            for a0, a1 in S.decompositions(e):
                for b0, b1 in S.decompositions(e):
                    sq = refinement_square(S, a0, a1, b0, b1)
                    assert S.join_of(sq.c00, sq.c01) == a0
                    assert S.join_of(sq.c10, sq.c11) == a1
                    assert S.join_of(sq.c00, sq.c10) == b0
                    assert S.join_of(sq.c01, sq.c11) == b1


def _semilattices_of(corpus) -> list[FiniteJoinSemilattice]:
    return [VEE] + [
        S for L in corpus for S in (con_lattice(L), L)
    ]


def test_refinement_square_matches_sorting_oracle(corpus5):
    for S in _semilattices_of(corpus5):
        for e in range(S.n):
            for a0, a1 in S.decompositions(e):
                for b0, b1 in S.decompositions(e):
                    assert refinement_square(S, a0, a1, b0, b1) == (
                        refinement_square_sorting(S, a0, a1, b0, b1)
                    )


def test_pseudo_meet_table_matches_brute_force(corpus5):
    for S in _semilattices_of(corpus5):
        for x, y in itertools.product(range(S.n), repeat=2):
            lower = [z for z in range(S.n) if S.le(z, x) and S.le(z, y)]
            greatest = [z for z in lower if all(S.le(w, z) for w in lower)]
            assert S.pseudo_meet(x, y) == (greatest[0] if greatest else None)
    assert VEE.pseudo_meet(0, 1) is None and VEE.pseudo_meet(0, 2) == 0


def test_refinement_agrees_with_oracle(corpus6):
    for L in corpus6:
        S = L
        assert has_refinement_property(S).holds == refinement_holds(S)


def test_refinement_counterexample_matches_literal_scan(corpus6):
    # fresh semilattices, so that no cached verdict is reused
    failing = 0
    for L in corpus6:
        for S in (L, con_lattice(L)):
            expected = refinement_counterexample_literal(S)
            res = has_refinement_property(S)
            assert res.counterexample == expected
            assert res.holds == (expected is None)
            failing += expected is not None
    assert failing > 0


def _memo_keys(S):
    # the distinct keys the former per-equation memo stored, in the order
    # of the literal scan, up to and including the first failing equation
    keys = {}
    for e in range(S.n):
        for a0, a1 in S.decompositions(e):
            for b0, b1 in S.decompositions(e):
                p, q = tuple(sorted((a0, a1))), tuple(sorted((b0, b1)))
                key = min(p, q) + max(p, q)
                if key not in keys:
                    keys[key] = refinement_square(S, *key) is not None
                    if not keys[key]:
                        return list(keys)
    return list(keys)


@pytest.mark.parametrize("name", ["con_chain6", "m3"])
def test_refinement_scan_solves_each_equation_once(name, monkeypatch):
    S = con_lattice(chain(6)) if name == "con_chain6" else m3()
    expected = _memo_keys(S)
    calls = []

    def counting(T, a0, a1, b0, b1):
        calls.append((a0, a1, b0, b1))
        return refinement_square(T, a0, a1, b0, b1)

    monkeypatch.setattr(semilattice, "refinement_square", counting)
    res = has_refinement_property(S)
    assert calls == expected
    assert res.holds == (name == "con_chain6")
    assert res.counterexample == (None if res.holds else expected[-1])


def test_refinement_square_rejects_elements_out_of_range():
    S = n5()
    assert refinement_square(S, 0, 0, 0, 0) is not None
    for x in (-1, S.n):
        # x + 0 = x + 0, with x as a0 and b0 or as a1 and b1
        for args in ((x, 0, x, 0), (0, x, 0, x)):
            with pytest.raises(IndexOutOfRange):
                refinement_square(S, *args)


def test_decompositions_reject_elements_outside_range():
    S = chain(3)
    for e in (-1, S.n, S.n + 5):
        for _ in range(2):  # nothing is cached for a bad element
            with pytest.raises(IndexOutOfRange):
                S.decompositions(e)
    assert S.decompositions(S.n - 1)[0] == (0, 2)


def test_con_semilattices_refine(corpus5):
    for L in corpus5:
        assert has_refinement_property(con_lattice(L)).holds


# ---------------------------------------------------------------------------
# homomorphisms


def test_enumerate_homs_agrees_with_oracle():
    # the same maps in the same (lexicographic) order
    for S in SMALL:
        for T in SMALL:
            if S.n <= 4:
                got = [h.map for h in enumerate_semilattice_homs(S, T)]
                assert got == all_semilattice_homs(S, T)


def test_enumerate_homs_without_a_bottom():
    # no corpus lattice lacks a bottom; as source and as target
    assert VEE.bottom is None and W.bottom is None
    small = [S for S in SMALL if S.n <= 4] + [VEE, W]
    for S in small:
        for T in (VEE, W):
            assert [h.map for h in enumerate_semilattice_homs(S, T)] == all_semilattice_homs(S, T)
            assert [h.map for h in enumerate_semilattice_homs(T, S)] == all_semilattice_homs(T, S)


def test_enumerate_homs_matches_the_monotone_map_oracle(corpus6):
    # every ordered pair of lattices up to size 6: the same maps in the same
    # order as the monotone maps filtered at the leaves
    assert len(corpus6) ** 2 == 625
    count = 0
    for S in corpus6:
        for T in corpus6:
            got = [h.map for h in enumerate_semilattice_homs(S, T)]
            assert got == monotone_homs(S, T, ("join_rows",))
            count += len(got)
    assert count == 70780


def test_check_hom():
    S = chain(3)
    assert check_semilattice_hom(SemilatticeHom(S, S, (0, 1, 2)))
    assert not check_semilattice_hom(SemilatticeHom(S, S, (2, 1, 0)))


# ---------------------------------------------------------------------------
# weak distributivity


def test_identity_weakly_distributive():
    for S in SMALL:
        h = SemilatticeHom(S, S, tuple(range(S.n)))
        assert is_weakly_distributive(h)
        assert weakly_distributive_points(h) == list(range(S.n))


def test_identity_witness_echoes_decomposition():
    S = m3()
    res = is_weakly_distributive_at(SemilatticeHom(S, S, tuple(range(S.n))), 4)
    assert res.holds
    for (y0, y1), (x0, x1) in res.witness.table.items():
        assert S.join_of(x0, x1) == 4
        assert S.le(res.witness.hom.map[x0], y0)
        assert S.le(res.witness.hom.map[x1], y1)


def test_constant_to_bottom_weakly_distributive():
    S, T = m3(), chain(3)
    h = SemilatticeHom(S, T, (0,) * S.n)
    assert is_weakly_distributive(h)


def test_join_irreducible_image_trivial_split():
    # if every decomposition of f(u) keeps one side above f(u), splitting
    # u as u + u works
    S, T = chain(3), chain(3)
    h = SemilatticeHom(S, T, (0, 1, 2))
    res = is_weakly_distributive_at(h, 2)
    assert res.holds


def test_weakly_distributive_at_rejects_elements_out_of_range():
    S = n5()
    identity = SemilatticeHom(S, S, tuple(range(S.n)))
    for u in (-1, S.n):
        with pytest.raises(IndexOutOfRange):
            is_weakly_distributive_at(identity, u)


def test_a_false_weak_distributivity_verdict_is_computed_once(monkeypatch):
    S = chain(3)
    T = FiniteLattice.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    h = SemilatticeHom(S, T, (0, 1, 3))
    at, calls = semilattice.is_weakly_distributive_at, []

    def counting(g, u):
        calls.append(u)
        return at(g, u)

    monkeypatch.setattr(semilattice, "is_weakly_distributive_at", counting)
    assert is_weakly_distributive(h) is False
    first = len(calls)
    assert first > 0
    assert is_weakly_distributive(h) is False
    assert len(calls) == first


def test_weak_distributivity_cache_does_not_keep_homs_alive():
    S, T = chain(3), chain(3)
    h = SemilatticeHom(S, T, (0, 1, 2))
    assert is_weakly_distributive(h)
    assert is_weakly_distributive(h)
    ref = weakref.ref(h)
    del h
    gc.collect()
    assert ref() is None


def test_non_wd_hom_detected():
    # collapse a three-chain onto {0, a, top} of the square: the decomposition
    # top = a + b in the image has no preimage split
    S = chain(3)
    T = FiniteLattice.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    h = SemilatticeHom(S, T, (0, 1, 3))
    assert check_semilattice_hom(h)
    res = is_weakly_distributive_at(h, 2)
    assert not res.holds
    y0, y1 = res.failure
    assert T.join_of(y0, y1) == 3


def test_composition_of_wd_maps_is_wd():
    # exhaustive over small hom triples
    trip = [chain(2), chain(3), chain(2)]
    S, T, U = trip
    for f in enumerate_semilattice_homs(S, T):
        if not is_weakly_distributive(f):
            continue
        for g in enumerate_semilattice_homs(T, U):
            if not is_weakly_distributive(g):
                continue
            comp = SemilatticeHom(S, U, tuple(g.map[f.map[x]] for x in range(S.n)))
            assert is_weakly_distributive(comp)


# ---------------------------------------------------------------------------
# the join combinator


def test_combine_idempotent():
    S = chain(4)
    h = SemilatticeHom(S, S, (0, 1, 2, 3))
    w = is_weakly_distributive_at(h, 2).witness
    out = wd_join_combine(h, 2, 2, w, w)
    assert out.u == 2
    check = is_weakly_distributive_at(h, 2)
    for (y0, y1), (x0, x1) in out.table.items():
        assert S.join_of(x0, x1) == 2
        assert S.le(h.map[x0], y0) and S.le(h.map[x1], y1)
    assert check.holds


def test_combine_identity_hom():
    S = chain(4)
    h = SemilatticeHom(S, S, (0, 1, 2, 3))
    w1 = is_weakly_distributive_at(h, 1).witness
    w3 = is_weakly_distributive_at(h, 3).witness
    out = wd_join_combine(h, 1, 3, w1, w3)
    assert out.u == 3
    for (y0, y1), (x0, x1) in out.table.items():
        assert S.join_of(x0, x1) == 3
        assert S.le(h.map[x0], y0) and S.le(h.map[x1], y1)


def test_combine_randomized(corpus5):
    rng = random.Random(7)
    dist = [L for L in corpus5 if is_distributive(L)]
    for _ in range(300):
        T = rng.choice(dist)
        S = rng.choice(dist)
        homs = list(enumerate_semilattice_homs(S, T))
        h = rng.choice(homs)
        if not is_weakly_distributive(h):
            continue
        u0 = rng.randrange(S.n)
        u1 = rng.randrange(S.n)
        w0 = is_weakly_distributive_at(h, u0).witness
        w1 = is_weakly_distributive_at(h, u1).witness
        out = wd_join_combine(h, u0, u1, w0, w1)
        u = S.join_of(u0, u1)
        assert out.u == u
        for (y0, y1), (x0, x1) in out.table.items():
            assert S.join_of(x0, x1) == u
            assert T.le(h.map[x0], y0) and T.le(h.map[x1], y1)
        # table must cover every decomposition of h(u)
        fu = h.map[u]
        decomps = {
            (y0, y1)
            for y0 in range(T.n)
            for y1 in range(T.n)
            if T.join_of(y0, y1) == fu
        }
        assert decomps <= set(out.table)


def test_combine_rejects_non_distributive_target():
    S = m3()
    h = SemilatticeHom(S, S, tuple(range(S.n)))
    w = is_weakly_distributive_at(h, 1).witness
    with pytest.raises(TargetNotDistributive):
        wd_join_combine(h, 1, 1, w, w)


def test_combine_rejects_invalid_witness():
    S = chain(3)
    h = SemilatticeHom(S, S, (0, 1, 2))
    w1 = is_weakly_distributive_at(h, 1).witness
    w2 = is_weakly_distributive_at(h, 2).witness
    bad = WdWitness(hom=h, u=1, table={k: (2, 2) for k in w1.table})
    with pytest.raises(InvalidInputWitness):
        wd_join_combine(h, 1, 2, bad, w2)
