"""Congruence splitting, the witnessed covering relation, and property (C)."""
from __future__ import annotations

import itertools

import pytest

from conlat import (
    CChain,
    Congruence,
    FiniteLattice,
    HostMismatch,
    IndexOutOfRange,
    NoChain,
    SplitInstance,
    alternating_chain,
    chain,
    con_lattice,
    congruence_join,
    csurp_witness,
    enumerate_lattices,
    has_property_C,
    is_atomistic,
    is_congruence_splitting,
    is_relatively_complemented,
    is_sectionally_complemented,
    m3,
    n5,
    principal_congruence,
    property_c_chain,
    rel_lessdot,
    splitting_from_property_C,
    splitting_witness,
)
from conlat.cli import _join_instances
from conlat.splitting import _greatest_split
from oracles import (
    property_c_chain_bfs,
    splitting_from_property_C_recursive,
    splitting_witness_by_box_scan,
)

SMALL = list(enumerate_lattices(5))


def b2() -> FiniteLattice:
    return FiniteLattice.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])


def split_instances(L):
    """All instances (a, b, alpha0, alpha1) with alpha0 v alpha1 = Theta(a,b)."""
    cl = con_lattice(L)
    for a in range(L.n):
        for b in range(L.n):
            if not L.le(a, b):
                continue
            theta = principal_congruence(L, a, b)
            for a0, a1 in itertools.product(cl.congruences, repeat=2):
                if congruence_join(a0, a1) == theta:
                    yield SplitInstance(L, a, b, a0, a1)


def check_split(inst, pair):
    L = inst.L
    x0, x1 = pair
    assert L.le(inst.a, x0) and L.le(x0, inst.b)
    assert L.le(inst.a, x1) and L.le(x1, inst.b)
    assert L.join_of(x0, x1) == inst.b
    assert principal_congruence(L, inst.a, x0).refines(inst.alpha0)
    assert principal_congruence(L, inst.a, x1).refines(inst.alpha1)


# ---------------------------------------------------------------------------
# the witnessed covering relation


def test_lessdot_reflexive_via_bottom():
    for L in SMALL:
        for a in range(L.n):
            for c in range(L.n):
                z = rel_lessdot(L, a, a, c)
                assert z is not None
                assert L.join_of(a, z) == a and L.le(L.meet_of(a, z), c)


def test_lessdot_atom_step():
    # in an atomistic lattice, joining one new atom is a step over bottom
    for L in (m3(), b2()):
        for a in range(L.n):
            for p in L.atoms:
                if L.le(p, a):
                    continue
                b = L.join_of(a, p)
                z = rel_lessdot(L, a, b, 0)
                assert z is not None
                assert L.join_of(a, z) == b and L.meet_of(a, z) == 0


def test_lessdot_n5_bottom_to_b():
    N = n5()
    z = rel_lessdot(N, 0, 2, 0)
    assert z is not None
    assert N.join_of(0, z) == 2 and N.meet_of(0, z) == 0


def test_rel_lessdot_rejects_elements_out_of_range():
    N = n5()
    for x in (-1, N.n):
        for args in ((x, 4, 0), (0, x, 0), (0, 4, x)):
            with pytest.raises(IndexOutOfRange):
                rel_lessdot(N, *args)


def test_lessdot_matches_exhaustive_scan():
    for L in SMALL:
        for a, b, c in itertools.product(range(L.n), repeat=3):
            found = rel_lessdot(L, a, b, c)
            scan = [
                z
                for z in range(L.n)
                if L.join_of(a, z) == b and L.le(L.meet_of(a, z), c)
            ]
            assert (found is not None) == bool(scan)
            if found is not None:
                assert found in scan


# ---------------------------------------------------------------------------
# property (C)


def test_property_c_chain_validate_rejects_ids_out_of_range():
    L = chain(3)
    for x in (-1, L.n):
        for c, elements, witnesses in (
            (x, (0, 2), (2,)),
            (0, (0, x), (2,)),
            (0, (x, 2), (2,)),
            (0, (0, 2), (x,)),
        ):
            with pytest.raises(IndexOutOfRange):
                CChain(L, c, elements, witnesses).validate()


def test_property_c_chains_validate():
    for L in SMALL:
        for a, b, c in itertools.product(range(L.n), repeat=3):
            if not L.le(a, b):
                continue
            ch = property_c_chain(L, a, b, c)
            if ch is None:
                continue
            ch.validate()
            assert ch.elements[0] == a and ch.elements[-1] == b
            for (x, y), z in zip(
                zip(ch.elements, ch.elements[1:]), ch.witnesses
            ):
                assert L.join_of(x, z) == y and L.le(L.meet_of(x, z), ch.c)


def test_property_c_chains_match_bfs_oracle(corpus7):
    for L in corpus7:
        for a, b, c in itertools.product(range(L.n), repeat=3):
            assert property_c_chain(L, a, b, c) == property_c_chain_bfs(L, a, b, c)


def test_complemented_lattices_have_property_c(corpus5):
    for L in corpus5:
        if is_sectionally_complemented(L) or is_relatively_complemented(L):
            assert has_property_C(L).holds


def test_atomistic_lattices_have_property_c(corpus5):
    for L in corpus5:
        if is_atomistic(L):
            assert has_property_C(L).holds


def test_three_chain_fails_property_c():
    # no z gives 1 v z = 2 with 1 ^ z = 0, and no detour exists
    res = has_property_C(chain(3))
    assert not res.holds
    assert res.failing == (1, 2, 0)


def test_n5_fails_property_c():
    res = has_property_C(n5())
    assert not res.holds
    assert res.failing == (1, 2, 0)


# ---------------------------------------------------------------------------
# splitting witnesses


def test_splitting_witness_absorbing_alpha0():
    for L in (n5(), b2()):
        cl = con_lattice(L)
        delta = cl.congruences[cl.bottom]
        for a in range(L.n):
            for b in range(L.n):
                if not L.le(a, b):
                    continue
                theta = principal_congruence(L, a, b)
                inst = SplitInstance(L, a, b, theta, delta)
                pair = splitting_witness(inst)
                assert pair is not None
                check_split(inst, pair)


def test_splitting_witness_n5_example():
    N = n5()
    inst = SplitInstance(
        N,
        0,
        4,
        principal_congruence(N, 0, 1),
        principal_congruence(N, 2, 4),
    )
    pair = splitting_witness(inst)
    assert pair is not None
    check_split(inst, pair)
    # (b, c) is also an admissible split for this instance
    check_split(inst, (2, 3))


def test_splitting_witness_m3_nabla():
    M = m3()
    cl = con_lattice(M)
    nabla = cl.congruences[cl.top]
    inst = SplitInstance(M, 0, 4, nabla, nabla)
    pair = splitting_witness(inst)
    assert pair is not None
    check_split(inst, pair)


def test_split_instance_rejects_a_congruence_of_another_lattice():
    # a partition outside Con L cannot be built, so a label from another
    # lattice is the one foreign congruence left to reject
    L = chain(3)
    nabla = con_lattice(L).congruences[-1]
    foreign = Congruence(chain(3), 0b11)
    with pytest.raises(HostMismatch):
        SplitInstance(L, 0, 2, foreign, nabla)
    with pytest.raises(HostMismatch):
        SplitInstance(L, 0, 2, nabla, foreign)


def test_greatest_split_matches_box_scan_oracle(corpus7):
    # the same decision on every instance; the oracle's first pair lies
    # below the greatest pair, which itself splits
    checked = 0
    for L in corpus7:
        congs = con_lattice(L).congruences
        for a, b, _, fams in con_lattice(L).join_decompositions():
            for i0, i1 in fams:
                scan = splitting_witness_by_box_scan(L, a, b, i0, i1)
                top = _greatest_split(L, a, b, i0, i1)
                assert (scan is None) == (top is None)
                checked += 1
                if top is None:
                    continue
                assert L.le(scan[0], top[0]) and L.le(scan[1], top[1])
                check_split(SplitInstance(L, a, b, congs[i0], congs[i1]), top)
    assert checked > 10_000


def test_splitting_failure_is_the_oracles_first(corpus7):
    for L in corpus7:
        first = next(
            (
                (a, b, i0, i1)
                for a, b, _, fams in con_lattice(L).join_decompositions()
                for i0, i1 in fams
                if splitting_witness_by_box_scan(L, a, b, i0, i1) is None
            ),
            None,
        )
        assert is_congruence_splitting(L).failing == first


def _nabla(L):
    return con_lattice(L).congruences[-1]


@pytest.mark.parametrize("bad", [-1, 3])
@pytest.mark.parametrize(
    "call",
    [
        lambda L, v: SplitInstance(L, 0, v, _nabla(L), _nabla(L)),
        lambda L, v: csurp_witness(L, 0, v, [(len(con_lattice(L)) - 1,) * 2]),
        lambda L, v: alternating_chain(L, 0, v, _nabla(L), _nabla(L)),
        lambda L, v: property_c_chain(L, 0, v, 0),
    ],
    ids=["SplitInstance", "csurp_witness", "alternating_chain", "property_c_chain"],
)
def test_element_ids_outside_the_lattice_are_rejected(call, bad):
    # a negative id would read the last row of a table, the top of chain(3)
    with pytest.raises(IndexError):
        call(chain(3), bad)


# ---------------------------------------------------------------------------
# the splitting property


def test_one_element_lattice_splits():
    assert is_congruence_splitting(chain(1)).holds


def test_m3_splits():
    assert is_congruence_splitting(m3()).holds


def test_three_chain_does_not_split():
    L = chain(3)
    res = is_congruence_splitting(L)
    assert not res.holds
    a, b, i0, i1 = res.failing
    assert (a, b) == (0, 2)
    cl = con_lattice(L)
    inst = SplitInstance(L, a, b, cl.congruences[i0], cl.congruences[i1])
    assert splitting_witness(inst) is None


def test_n5_splits_without_property_c():
    # property (C) is sufficient for splitting, not necessary
    N = n5()
    assert not has_property_C(N).holds
    assert is_congruence_splitting(N).holds


def test_property_c_implies_splitting(corpus5):
    for L in corpus5:
        if has_property_C(L).holds:
            assert is_congruence_splitting(L).holds


# ---------------------------------------------------------------------------
# the constructive splitting


def test_constructive_split_trivial_cases():
    L = b2()
    cl = con_lattice(L)
    nabla = cl.congruences[cl.top]
    delta = cl.congruences[cl.bottom]
    # a = b
    inst = SplitInstance(L, 1, 1, delta, delta)
    assert splitting_from_property_C(inst) == (1, 1)
    # single step lying in alpha0
    theta = principal_congruence(L, 0, 1)
    inst = SplitInstance(L, 0, 1, theta, delta)
    pair = splitting_from_property_C(inst)
    check_split(inst, pair)
    assert pair == (1, 0)


def test_constructive_split_validates_everywhere(corpus5):
    for L in corpus5:
        if not has_property_C(L).holds:
            continue
        for inst in split_instances(L):
            pair = splitting_from_property_C(inst)
            check_split(inst, pair)


def test_constructive_split_matches_recursive_oracle(corpus7):
    checked = 0
    for L in corpus7:
        if not has_property_C(L).holds:
            continue
        for a, b, al0, al1 in _join_instances(L):
            inst = SplitInstance(L, a, b, al0, al1)
            assert splitting_from_property_C(inst) == splitting_from_property_C_recursive(inst)
            checked += 1
    assert checked == 374


def test_constructive_split_no_chain():
    L = chain(3)
    res = is_congruence_splitting(L)
    a, b, i0, i1 = res.failing
    cl = con_lattice(L)
    inst = SplitInstance(L, a, b, cl.congruences[i0], cl.congruences[i1])
    with pytest.raises(NoChain):
        splitting_from_property_C(inst)
    with pytest.raises(NoChain):
        splitting_from_property_C_recursive(inst)
