"""Uniform refinement property: witnesses, search, combinators, transfer."""
from __future__ import annotations

import itertools
import random
from collections import Counter

import pytest
from hypothesis import given, settings, strategies as st

from conlat import (
    ElementOutOfRange,
    IndexMismatch,
    NoSourceWitness,
    NotSplitting,
    NotWeaklyDistributive,
    SearchBudgetExceeded,
    SemilatticeHom,
    UrpInstance,
    UrpWitness,
    canonical_instance,
    certifies_ring_of_sets,
    chain,
    con_lattice,
    congruence_join,
    csurp_witness,
    enumerate_lattices,
    enumerate_semilattice_homs,
    first_urp_failure,
    holds_urp_at,
    induced_con_map,
    is_congruence_splitting,
    is_distributive,
    is_weakly_distributive,
    m3,
    n5,
    principal_congruence,
    refine_instance,
    satisfies_urp,
    search_urp_witness,
    urp_join_combine,
    urp_transfer,
    verify_urp_witness,
)
from conlat import FiniteLattice, LatticeHom
from oracles import M3_MASKS, con_lattice_on_masks, verify_urp_witness_literal

SMALL = list(enumerate_lattices(5))
DISTRIBUTIVE = [L for L in SMALL if is_distributive(L)]


def meet_formula_witness(L, inst: UrpInstance) -> UrpWitness:
    """In a distributive lattice a_i ^ b_j witnesses every instance."""
    a = [p[0] for p in inst.pairs]
    b = [p[1] for p in inst.pairs]
    c = tuple(
        tuple(L.meet_of(a[i], b[j]) for j in range(len(b)))
        for i in range(len(a))
    )
    return UrpWitness(astar=tuple(a), bstar=tuple(b), c=c)


# ---------------------------------------------------------------------------
# witness verification


def test_singleton_instance_trivially_witnessed():
    S = chain(3)
    inst = UrpInstance(S, 2, ((1, 2),))
    w = UrpWitness(astar=(1,), bstar=(2,), c=((0,),))
    assert verify_urp_witness(inst, w).ok


def test_meet_formula_witnesses_distributive_instances():
    for L in DISTRIBUTIVE:
        S = L
        for e in range(L.n):
            inst = canonical_instance(S, e)
            res = verify_urp_witness(inst, meet_formula_witness(L, inst))
            assert res.ok


def test_bottom_c_with_incomparable_astars_fails_clause_ii():
    S = m3()
    inst = UrpInstance(S, 4, ((1, 4), (2, 4)))
    w = UrpWitness(astar=(1, 2), bstar=(4, 4), c=((0, 0), (0, 0)))
    res = verify_urp_witness(inst, w)
    assert not res.ok
    assert res.clause.startswith("ii")


def test_verify_reports_first_failing_clause():
    S = chain(3)
    inst = UrpInstance(S, 2, ((1, 2), (2, 2)))
    too_big = UrpWitness(astar=(2, 2), bstar=(2, 2), c=((0, 0), (0, 0)))
    res = verify_urp_witness(inst, too_big)
    assert not res.ok and res.clause == "i-a" and res.indices == (0,)


def test_index_mismatch():
    S = chain(3)
    inst = UrpInstance(S, 2, ((1, 2), (2, 2)))
    with pytest.raises(IndexMismatch):
        verify_urp_witness(inst, UrpWitness(astar=(1,), bstar=(2,), c=((0,),)))


def test_instance_requires_exact_joins():
    S = chain(3)
    with pytest.raises(ValueError):
        UrpInstance(S, 2, ((1, 1),))


def _replace_cell(w: UrpWitness, i: int, k: int, v: int) -> UrpWitness:
    c = [list(row) for row in w.c]
    c[i][k] = v
    return UrpWitness(w.astar, w.bstar, tuple(map(tuple, c)))


def test_out_of_range_elements_are_rejected():
    # Con of the 3-chain has 4 elements: a negative id must not wrap around
    # to a valid one, nor an id of 4 raise a bare IndexError
    S = con_lattice(chain(3))
    assert S.n == 4 and S.top == 3
    inst = canonical_instance(S, S.top)
    w = search_urp_witness(inst)
    assert verify_urp_witness(inst, w).ok
    m = len(inst.pairs)
    for v in (-4, -1, 4):
        for i, k in ((0, 0), (m - 1, 1)):
            with pytest.raises(ElementOutOfRange):
                verify_urp_witness(inst, _replace_cell(w, i, k, v))
        with pytest.raises(ElementOutOfRange):
            verify_urp_witness(inst, UrpWitness((v,) + w.astar[1:], w.bstar, w.c))
        with pytest.raises(ElementOutOfRange):
            verify_urp_witness(inst, UrpWitness(w.astar, w.bstar[:-1] + (v,), w.c))
    for e, pairs in ((3, ((-1, 0),)), (3, ((0, -1),)), (3, ((4, 3),)), (4, ()), (-1, ())):
        with pytest.raises(ElementOutOfRange):
            UrpInstance(S, e, pairs)
    assert issubclass(ElementOutOfRange, ValueError)


# ---------------------------------------------------------------------------
# the verifier against the literal m^3 oracle


def greedy_candidate(inst: UrpInstance) -> UrpWitness | None:
    """a* = a, b* = b and c_ik = a_i ^ b_k when every such greatest common
    lower bound exists; not necessarily a witness."""
    S = inst.S
    c = tuple(
        tuple(S.pseudo_meet(a, b) for _, b in inst.pairs) for a, _ in inst.pairs
    )
    if any(v is None for row in c for v in row):
        return None
    return UrpWitness(
        tuple(a for a, _ in inst.pairs), tuple(b for _, b in inst.pairs), c
    )


def matches_oracle(inst: UrpInstance, w: UrpWitness):
    got = verify_urp_witness(inst, w)
    assert got == verify_urp_witness_literal(inst, w)
    return got


def test_verifier_matches_oracle_on_con_greedy_witnesses(corpus6):
    for L in corpus6:
        S = con_lattice(L)
        for e in range(S.n):
            inst = canonical_instance(S, e)
            assert matches_oracle(inst, greedy_candidate(inst)).ok


def test_verifier_matches_oracle_on_lattice_greedy_candidates(corpus5):
    outcomes = Counter()
    for L in corpus5:
        S = L
        for e in range(S.n):
            inst = canonical_instance(S, e)
            w = greedy_candidate(inst)
            if w is not None:
                outcomes[matches_oracle(inst, w).ok] += 1
    # M3 and N5 have a top at which the greedy candidate is no witness
    assert outcomes[True] and outcomes[False]


def test_verifier_matches_oracle_on_csurp_certificates(corpus5):
    checked = 0
    for L in corpus5:
        if not is_congruence_splitting(L).holds:
            continue
        S = con_lattice(L)
        for u, v, eps, fams in con_lattice(L).join_decompositions():
            inst = UrpInstance(S, eps, tuple(fams))
            assert matches_oracle(inst, csurp_witness(L, u, v, fams)).ok
            checked += 1
    assert checked


def _mutation_bases() -> list[tuple[UrpInstance, UrpWitness]]:
    # canonical instances small enough for the literal oracle, each with
    # its greedy candidate; equal a_i (rows) and b_k (columns) repeat
    bases = []
    for L in SMALL:
        for S in (L, con_lattice(L)):
            for e in range(S.n):
                inst = canonical_instance(S, e)
                w = greedy_candidate(inst)
                if S.n > 1 and w is not None and len(inst.pairs) <= 27:
                    bases.append((inst, w))
    return bases


MUTATION_BASES = _mutation_bases()
CLAUSES = {None, "i-a", "i-b", "i-sum", "ii-ca", "ii-cb", "ii-tri", "iii"}


def _mutate(w: UrpWitness, n: int, edits) -> UrpWitness:
    """Apply edits (field, i, k, shift): the entry moves to another element,
    (old + shift) mod n with 0 < shift < n."""
    astar, bstar = list(w.astar), list(w.bstar)
    c = [list(row) for row in w.c]
    for field, i, k, shift in edits:
        if field == "astar":
            astar[i] = (astar[i] + shift) % n
        elif field == "bstar":
            bstar[i] = (bstar[i] + shift) % n
        else:
            c[i][k] = (c[i][k] + shift) % n
    return UrpWitness(tuple(astar), tuple(bstar), tuple(map(tuple, c)))


@st.composite
def mutated_witnesses(draw):
    inst, w = draw(st.sampled_from(MUTATION_BASES))
    n, m = inst.S.n, len(inst.pairs)
    edit = st.tuples(
        st.sampled_from(("astar", "bstar", "c")),
        st.integers(0, m - 1),
        st.integers(0, m - 1),
        st.integers(1, n - 1),
    )
    return inst, _mutate(w, n, draw(st.lists(edit, min_size=1, max_size=2)))


@given(mutated_witnesses())
@settings(max_examples=300, deadline=None)
def test_verifier_matches_oracle_on_mutated_witnesses(case):
    matches_oracle(*case)


def test_mutated_witnesses_reach_every_clause():
    rng = random.Random(7)
    seen = Counter()
    for _ in range(3000):
        inst, w = rng.choice(MUTATION_BASES)
        n, m = inst.S.n, len(inst.pairs)
        edits = [
            (
                rng.choice(("astar", "bstar", "c", "c")),
                rng.randrange(m),
                rng.randrange(m),
                rng.randrange(1, n),
            )
            for _ in range(rng.choice((1, 2)))
        ]
        res = matches_oracle(inst, _mutate(w, n, edits))
        seen[res.clause] += 1
        if res.indices and max(res.indices) > 0:
            seen["later index"] += 1
    assert CLAUSES | {"later index"} == set(seen), seen


# ---------------------------------------------------------------------------
# search


def test_search_finds_witness_on_distributive_instances():
    for L in DISTRIBUTIVE:
        S = L
        for e in range(L.n):
            inst = canonical_instance(S, e)
            w = search_urp_witness(inst)
            assert w is not None
            assert verify_urp_witness(inst, w).ok


def test_search_empty_index_set():
    S = chain(2)
    inst = UrpInstance(S, 1, ())
    w = search_urp_witness(inst)
    assert w == UrpWitness(astar=(), bstar=(), c=())
    assert verify_urp_witness(inst, w).ok


def test_search_on_con_instances(corpus5):
    for L in corpus5:
        S = con_lattice(L)
        for e in range(S.n):
            inst = canonical_instance(S, e)
            w = search_urp_witness(inst)
            assert w is not None and verify_urp_witness(inst, w).ok


HEXAGON = FiniteLattice.from_covers(
    6, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 5), (4, 5)]
)
PINNED_LATTICES = {"m3": m3(), "n5": n5(), "chain4": chain(4), "hexagon": HEXAGON}

# (lattice, e, pairs appended to the canonical instance at e, nodes, found):
# the exact node count of the search on the lattice itself.  At the tops
# of M3, N5 and the hexagon the greedy candidate fails and the search
# backtracks; M3 has no witness at its top.
NODE_COUNTS = [
    ("m3", 0, (), 1, True),
    ("m3", 1, (), 9, True),
    ("m3", 2, (), 9, True),
    ("m3", 3, (), 9, True),
    ("m3", 4, (), 236, False),
    ("n5", 0, (), 1, True),
    ("n5", 1, (), 9, True),
    ("n5", 2, (), 25, True),
    ("n5", 3, (), 9, True),
    ("n5", 4, (), 362, True),
    ("n5", 4, ((0, 4),), 417, True),
    ("n5", 4, ((4, 4), (2, 3)), 479, True),
    ("chain4", 0, (), 1, True),
    ("chain4", 1, (), 9, True),
    ("chain4", 2, (), 25, True),
    ("chain4", 3, (), 49, True),
    ("hexagon", 5, (), 781, True),
    ("hexagon", 5, ((0, 5),), 860, True),
    ("hexagon", 5, ((5, 5), (1, 5)), 949, True),
]


@pytest.mark.parametrize(
    "name,e,extra,nodes,found",
    NODE_COUNTS,
    ids=[f"{t[0]}-{t[1]}-{len(t[2])}" for t in NODE_COUNTS],
)
def test_search_node_count_is_pinned(name, e, extra, nodes, found):
    S = PINNED_LATTICES[name]
    inst = UrpInstance(S, e, canonical_instance(S, e).pairs + extra)
    w = search_urp_witness(inst, budget=nodes)
    assert (w is not None) == found
    with pytest.raises(SearchBudgetExceeded):
        search_urp_witness(inst, budget=nodes - 1)


def test_search_budget_is_a_distinct_outcome():
    S = FiniteLattice.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    inst = canonical_instance(S, 3)
    with pytest.raises(SearchBudgetExceeded):
        search_urp_witness(inst, budget=2)
    assert search_urp_witness(inst) is not None


# ---------------------------------------------------------------------------
# the decision procedure


def test_urp_at_bottom():
    for L in SMALL:
        assert holds_urp_at(L, L.bottom)


def test_urp_everywhere_on_distributive():
    for L in DISTRIBUTIVE:
        assert satisfies_urp(L)


def test_urp_fails_at_top_of_m3():
    # pairs (1,2) and (2,3) force a* = a and b* = b, so c <= 1 ^ 3 = 0,
    # and clause (ii) would need 1 <= 2 + 0
    S = m3()
    assert not holds_urp_at(S, 4)
    assert not satisfies_urp(S)


def test_urp_holds_at_m3_atom():
    S = m3()
    assert holds_urp_at(S, 1)


def test_urp_on_chains():
    for n in (1, 2, 3, 4):
        assert satisfies_urp(chain(n))


def test_urp_on_con_semilattices(corpus5):
    for L in corpus5:
        assert satisfies_urp(con_lattice(L))


# ---------------------------------------------------------------------------
# URP on a certified Con L


def test_meet_witness_matches_literal_on_every_con_element(corpus6):
    # the certificate, which implies the meet witness, alone decides URP on
    # Con L, and the literal search agrees
    for L in corpus6:
        con = con_lattice(L)
        assert certifies_ring_of_sets(con.masks)
        assert all(holds_urp_at(con, e) for e in range(con.n))
        assert first_urp_failure(con, budget=0) is None


def test_uncertified_masks_fall_back_to_the_literal_search():
    # on M3's masks a_i & b_k is no element, so the certificate fails, and
    # the fallback finds M3's literal failure at the top, within the budget
    # it is given
    con, S = con_lattice_on_masks(M3_MASKS), m3()
    assert not certifies_ring_of_sets(con.masks)
    literal = next(e for e in range(S.n) if not holds_urp_at(S, e))
    assert first_urp_failure(con) == literal == S.top == con.top
    with pytest.raises(SearchBudgetExceeded):
        first_urp_failure(con, budget=0)


def test_canonical_instance_lists_each_pair_once():
    S = chain(3)
    inst = canonical_instance(S, 2)
    expected = {
        (a, b)
        for a in range(3)
        for b in range(3)
        if S.join_of(a, b) == 2
    }
    assert set(inst.pairs) == expected
    assert len(inst.pairs) == len(set(inst.pairs))


def test_duplicate_families_agree_with_canonical():
    # appending duplicate pairs never changes solvability
    rng = random.Random(3)
    for L in SMALL:
        S = L
        for e in range(S.n):
            base = canonical_instance(S, e)
            if not 0 < len(base.pairs) <= 4:
                continue
            dup = base.pairs + (rng.choice(base.pairs),)
            inst = UrpInstance(S, e, dup)
            lit = search_urp_witness(inst)
            assert (lit is not None) == holds_urp_at(S, e)
            if lit is not None:
                assert verify_urp_witness(inst, lit).ok


# ---------------------------------------------------------------------------
# join combinator


def test_refine_then_combine_idempotent():
    S = chain(4)
    comb = canonical_instance(S, 2)
    i0, i1 = refine_instance(comb, 2, 2)
    w = search_urp_witness(i0)
    out = urp_join_combine(comb, i0, i1, w, search_urp_witness(i1))
    assert verify_urp_witness(comb, out).ok


def test_combine_on_distributive_corpus():
    for L in DISTRIBUTIVE:
        S = L
        for e0, e1 in itertools.product(range(L.n), repeat=2):
            comb = canonical_instance(S, S.join_of(e0, e1))
            i0, i1 = refine_instance(comb, e0, e1)
            w0 = meet_formula_witness(L, i0)
            w1 = meet_formula_witness(L, i1)
            out = urp_join_combine(comb, i0, i1, w0, w1)
            assert verify_urp_witness(comb, out).ok


def test_combine_randomized_search_inputs(corpus5):
    rng = random.Random(11)
    cons = [con_lattice(L) for L in corpus5]
    for _ in range(200):
        S = rng.choice(cons)
        e0 = rng.randrange(S.n)
        e1 = rng.randrange(S.n)
        comb = canonical_instance(S, S.join_of(e0, e1))
        i0, i1 = refine_instance(comb, e0, e1)
        out = urp_join_combine(
            comb, i0, i1, search_urp_witness(i0), search_urp_witness(i1)
        )
        assert verify_urp_witness(comb, out).ok


def test_combine_rejects_bad_decomposition():
    S = chain(4)
    comb = canonical_instance(S, 3)
    i0, i1 = refine_instance(comb, 2, 3)
    alien = canonical_instance(S, 1)
    from conlat import BadDecomposition

    with pytest.raises(BadDecomposition):
        urp_join_combine(
            comb, alien, i1, search_urp_witness(alien), search_urp_witness(i1)
        )


def test_combine_rejects_invalid_witness():
    from conlat import InvalidInputWitness

    S = chain(4)
    comb = canonical_instance(S, 3)
    i0, i1 = refine_instance(comb, 2, 3)
    w1 = search_urp_witness(i1)
    k = len(i0.pairs)
    bad = UrpWitness(
        astar=(3,) * k, bstar=(3,) * k, c=((0,) * k,) * k
    )
    with pytest.raises(InvalidInputWitness):
        urp_join_combine(comb, i0, i1, bad, w1)


def test_refine_rejects_non_distributive():
    from conlat import NotDistributive

    S = m3()
    comb = canonical_instance(S, 4)
    with pytest.raises(NotDistributive):
        refine_instance(comb, 1, 4)


# ---------------------------------------------------------------------------
# transfer


def test_transfer_along_identity():
    S = chain(3)
    h = SemilatticeHom(S, S, (0, 1, 2))
    inst = canonical_instance(S, 2)
    w = urp_transfer(h, 2, inst)
    assert verify_urp_witness(inst, w).ok


def test_transfer_along_surjections():
    for L in DISTRIBUTIVE:
        S = L
        T = chain(2)
        for h in enumerate_semilattice_homs(S, T):
            if set(h.map) != {0, 1} or not is_weakly_distributive(h):
                continue
            u = next(x for x in range(S.n) if h.map[x] == 1)
            inst = canonical_instance(T, 1)
            w = urp_transfer(h, u, inst)
            assert verify_urp_witness(inst, w).ok


def test_transfer_along_induced_con_maps():
    targets = [(chain(3), n5(), (0, 1, 2)), (chain(2), m3(), (0, 1))]
    for K, L, mp in targets:
        f = induced_con_map(LatticeHom(K, L, mp))
        for u in range(f.source.n):
            inst = canonical_instance(f.target, f.map[u])
            w = urp_transfer(f, u, inst)
            assert verify_urp_witness(inst, w).ok


def test_transfer_rejects_non_wd_map():
    S = chain(3)
    B = FiniteLattice.from_covers(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
    h = SemilatticeHom(S, B, (0, 1, 3))
    inst = canonical_instance(B, 3)
    with pytest.raises(NotWeaklyDistributive):
        urp_transfer(h, 2, inst)


def test_transfer_needs_source_witness():
    S = m3()
    h = SemilatticeHom(S, S, tuple(range(S.n)))
    inst = canonical_instance(S, 4)
    with pytest.raises(NoSourceWitness):
        urp_transfer(h, 4, inst)


# ---------------------------------------------------------------------------
# congruence-splitting witnesses


def test_csurp_trivial_family():
    L = chain(3)
    cl = con_lattice(L)
    ti = cl.congruence_index(principal_congruence(L, 0, 2))
    w = csurp_witness(L, 0, 2, [(ti, ti)])
    inst = UrpInstance(cl, ti, ((ti, ti),))
    assert verify_urp_witness(inst, w).ok


def test_csurp_m3_all_nabla_families():
    M = m3()
    cl = con_lattice(M)
    fams = [
        (i, j)
        for i, j in itertools.product(range(len(cl.congruences)), repeat=2)
        if congruence_join(cl.congruences[i], cl.congruences[j]).num_blocks == 1
    ]
    w = csurp_witness(M, 0, 4, fams)
    inst = UrpInstance(cl, cl.top, tuple(fams))
    assert verify_urp_witness(inst, w).ok


def test_csurp_exhaustive_over_splitting_corpus():
    for L in enumerate_lattices(4):
        if not is_congruence_splitting(L).holds:
            continue
        cl = con_lattice(L)
        S = cl
        for u in range(L.n):
            for v in range(L.n):
                if not L.le(u, v):
                    continue
                e = cl.congruence_index(principal_congruence(L, u, v))
                fams = list(canonical_instance(S, e).pairs)
                w = csurp_witness(L, u, v, fams)
                inst = UrpInstance(S, e, tuple(fams))
                assert verify_urp_witness(inst, w).ok


@pytest.mark.parametrize("index", [-1, 4])
def test_csurp_rejects_family_indices_outside_con(index):
    # Con of chain(3) has 4 congruences; -1 would wrap to nabla
    L = chain(3)
    assert len(con_lattice(L)) == 4
    with pytest.raises(ElementOutOfRange):
        csurp_witness(L, 0, 2, [(index, index)])


def test_csurp_not_splitting():
    L = chain(3)
    cl = con_lattice(L)
    a0 = cl.congruence_index(principal_congruence(L, 0, 1))
    a1 = cl.congruence_index(principal_congruence(L, 1, 2))
    with pytest.raises(NotSplitting):
        csurp_witness(L, 0, 2, [(a0, a1)])
