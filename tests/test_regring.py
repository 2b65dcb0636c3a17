"""Regular rings: ideal lattices, the two correspondences, V(R), and pi."""
from __future__ import annotations

import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from conlat import (
    FiniteRing,
    IndexOutOfRange,
    NotIdempotent,
    NotNeutral,
    NotRegular,
    NotTwoSided,
    RingTooLarge,
    SpecParse,
    SupportQuotient,
    algebraic_below,
    canonical_form,
    chain,
    con_lattice,
    con_nid_iso,
    conc_idc_iso,
    ideals_isomorphic,
    is_complemented,
    is_isomorphic,
    is_modular,
    is_regular,
    m3,
    max_semilattice_quotient,
    neutral_iff_iso_closed,
    parse_ring_spec,
    phi,
    pi_map,
    principal_right_ideals,
    psi,
    refine_nonneg_vectors,
    two_sided_ideals,
    v_monoid,
    verify_nid_id_iso,
    verify_pi_map,
)
from conlat import regring
from conlat.cli import TEST_RINGS
from conlat.regring import _additive_closure, _additive_generators
from oracles import (
    additive_closure,
    first_non_regular_element,
    from_ideal_by_closure,
    matrix_ring_tables,
    neutral_iff_iso_closed_by_pairs,
    perspective_rows_by_axes,
    pi_hom_order_on_small_vectors,
    principal_ideals_by_products,
    refinement_by_triples,
    two_sided_ideal_sets,
    universal_property_on_small_targets,
)


@functools.lru_cache(maxsize=None)
def ring(spec: str) -> FiniteRing:
    return FiniteRing.from_matrix_spec(spec)


def z4() -> FiniteRing:
    add = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    mul = [[(a * b) % 4 for b in range(4)] for a in range(4)]
    return FiniteRing.from_tables(
        {"elements": list(range(4)), "add": add, "mul": mul, "one": 1}
    )


def z4_x() -> FiniteRing:
    """Z_4[x]/(2x, x^2): a + bx is element a + 4b, so the additive group is
    Z_4 x Z_2, neither cyclic nor elementary abelian."""
    elems = [(a, b) for b in range(2) for a in range(4)]
    add = [[(a + c) % 4 + 4 * ((b + d) % 2) for c, d in elems] for a, b in elems]
    mul = [[a * c % 4 + 4 * ((a * d + b * c) % 2) for c, d in elems] for a, b in elems]
    return FiniteRing.from_tables({"add": add, "mul": mul, "one": 1})


def z_n(n: int) -> FiniteRing:
    add = [[(a + b) % n for b in range(n)] for a in range(n)]
    mul = [[a * b % n for b in range(n)] for a in range(n)]
    return FiniteRing(add, mul, 1 % n)


# ---------------------------------------------------------------------------
# construction and parsing


def test_parse_ring_spec():
    assert parse_ring_spec("M(2,2)") == [(2, 2)]
    assert parse_ring_spec("M(2,2)xM(1,3)") == [(2, 2), (1, 3)]


def test_parse_rejects_garbage():
    with pytest.raises(SpecParse):
        parse_ring_spec("M(2,4)")  # 4 is not prime
    with pytest.raises(SpecParse):
        parse_ring_spec("ring of fractions")


def test_size_bound():
    with pytest.raises(RingTooLarge):
        FiniteRing.from_matrix_spec("M(9,2)")


def test_structured_sizes():
    assert FiniteRing.from_matrix_spec("M(1,2)").n == 2
    assert FiniteRing.from_matrix_spec("M(2,2)").n == 16
    assert FiniteRing.from_matrix_spec("M(1,2)xM(2,3)").n == 162


@pytest.mark.parametrize(
    "spec",
    TEST_RINGS
    + ("M(1,3)xM(2,3)", "M(2,2)xM(1,3)xM(1,2)", pytest.param("M(3,2)", marks=pytest.mark.slow)),
)
def test_matrix_spec_tables_match_matrix_tuple_oracle(spec):
    R = FiniteRing.from_matrix_spec(spec)
    add, mul, one, zero = matrix_ring_tables(parse_ring_spec(spec))
    assert R.add == tuple(map(tuple, add))
    assert R.mul == tuple(map(tuple, mul))
    assert (R.one, R.zero) == (one, zero)


@pytest.mark.parametrize("spec", ["M(1,2)", "M(2,2)", "M(1,2)xM(1,3)"])
def test_matrix_spec_ring_matches_the_validating_constructor(spec):
    R = FiniteRing.from_matrix_spec(spec)
    assert vars(FiniteRing(R.add, R.mul, R.one)) == vars(R)


@given(st.sampled_from(TEST_RINGS), st.data())
@settings(max_examples=60, deadline=None)
def test_additive_closure_matches_work_list_oracle(spec, data):
    R = ring(spec)
    gens = data.draw(st.lists(st.integers(min_value=0, max_value=R.n - 1), max_size=4))
    assert _additive_closure(R, gens) == additive_closure(R, gens)


@pytest.mark.parametrize(
    "tables",
    [
        {"add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]], "one": 5},
        {"add": [[0, 1], [1]], "mul": [[0, 0], [0, 1]], "one": 1},
        {"add": [[0, 1], [1, 0]], "mul": [[0]], "one": 1},
        {"add": [[0, 1], [1, 2]], "mul": [[0, 0], [0, 1]], "one": 1},
        {"add": [[0, 1], [1, 0.5]], "mul": [[0, 0], [0, 1]], "one": 1},
        {"add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, True]], "one": 1},
        {"add": [[0, "1"], ["1", 0]], "mul": [[0, 0], [0, 1]], "one": 1},
        {"add": [[0, 1], [1, 0]], "mul": [[0, 0], [0, 1]], "one": 1.0},
    ],
    ids=[
        "one-out-of-range",
        "ragged-add-row",
        "mul-wrong-size",
        "entry-out-of-range",
        "float-entry",
        "bool-entry",
        "string-entry",
        "float-one",
    ],
)
def test_malformed_tables_raise_value_error(tables):
    with pytest.raises(ValueError):
        FiniteRing.from_tables(tables)


def test_tabular_validation_rejects_broken_tables():
    add = [[(a + b) % 4 for b in range(4)] for a in range(4)]
    mul = [[0] * 4 for _ in range(4)]
    with pytest.raises(ValueError):
        FiniteRing.from_tables(
            {"elements": list(range(4)), "add": add, "mul": mul, "one": 1}
        )


# ---------------------------------------------------------------------------
# regularity


def test_fields_are_regular():
    for spec in ("M(1,2)", "M(1,3)"):
        assert is_regular(FiniteRing.from_matrix_spec(spec)).holds


def test_matrix_ring_is_regular():
    assert is_regular(FiniteRing.from_matrix_spec("M(2,2)")).holds


def test_z4_is_not_regular():
    res = is_regular(z4())
    assert not res.holds
    assert res.failing == 2


def test_is_regular_matches_the_scan_oracle():
    rings = [ring(spec) for spec in TEST_RINGS] + [z4(), z4_x()]
    for R in rings + [z_n(n) for n in range(1, 17)]:
        failing = first_non_regular_element(R)
        assert is_regular(R) == (failing is None, failing)


# ---------------------------------------------------------------------------
# the lattice of principal right ideals


def test_field_gives_two_chain():
    lr = principal_right_ideals(FiniteRing.from_matrix_spec("M(1,3)"))
    assert is_isomorphic(lr.lattice, chain(2))


def test_m2f2_gives_m3():
    lr = principal_right_ideals(FiniteRing.from_matrix_spec("M(2,2)"))
    assert is_isomorphic(lr.lattice, m3())
    assert canonical_form(lr.lattice) == canonical_form(m3())


def test_f2xf2_gives_square():
    lr = principal_right_ideals(FiniteRing.from_matrix_spec("M(1,2)xM(1,2)"))
    assert lr.lattice.n == 4
    assert len(lr.lattice.atoms) == 2


def test_ideal_lattices_complemented_modular():
    for spec in ("M(1,2)", "M(1,2)xM(1,2)", "M(2,2)", "M(1,2)xM(2,2)"):
        lr = principal_right_ideals(FiniteRing.from_matrix_spec(spec))
        assert is_complemented(lr.lattice)
        assert is_modular(lr.lattice)


def test_generators_are_idempotent():
    R = FiniteRing.from_matrix_spec("M(2,2)")
    lr = principal_right_ideals(R)
    for e in lr.generators:
        assert R.mul[e][e] == e


def test_derived_structures_are_built_once_per_ring():
    R = FiniteRing.from_matrix_spec("M(2,2)")
    assert two_sided_ideals(R) is two_sided_ideals(R)
    assert principal_right_ideals(R) is principal_right_ideals(R)
    assert v_monoid(R) is v_monoid(R)
    assert v_monoid(R).lr is principal_right_ideals(R)
    assert pi_map(R).tsl is two_sided_ideals(R)


def test_non_regular_rejected():
    with pytest.raises(NotRegular):
        principal_right_ideals(z4())


@pytest.mark.parametrize("make", [z4, z4_x])
def test_non_regular_rejection_names_the_first_failing_element(make):
    R = make()
    failing = first_non_regular_element(R)
    assert failing is not None
    with pytest.raises(NotRegular, match=rf"^element {failing} has no quasi-inverse$") as info:
        principal_right_ideals(R)
    assert info.value.element == failing


# ---------------------------------------------------------------------------
# isomorphism of principal right ideals


def test_iso_reflexive_certificate():
    R = FiniteRing.from_matrix_spec("M(2,2)")
    a = principal_right_ideals(R).generators[1]
    cert = ideals_isomorphic(R, a, a)
    assert cert is not None and cert.x == a and cert.y == a


def test_iso_certificate_equations():
    R = FiniteRing.from_matrix_spec("M(2,2)")
    lr = principal_right_ideals(R)
    atoms = [lr.generators[i] for i in lr.lattice.atoms]
    for a, b in itertools.combinations(atoms, 2):
        cert = ideals_isomorphic(R, a, b)
        assert cert is not None
        assert R.mul[cert.x][cert.y] == a
        assert R.mul[cert.y][cert.x] == b
        # x in aRb and y in bRa
        assert R.mul[R.mul[a][cert.x]][b] == cert.x
        assert R.mul[R.mul[b][cert.y]][a] == cert.y


def test_iso_fails_across_orthogonal_components():
    R = FiniteRing.from_matrix_spec("M(1,2)xM(1,2)")
    lr = principal_right_ideals(R)
    e, f = (lr.generators[i] for i in lr.lattice.atoms)
    assert ideals_isomorphic(R, e, f) is None


def test_iso_requires_idempotents():
    R = FiniteRing.from_matrix_spec("M(2,2)")
    non_idem = next(
        x for x in range(R.n) if R.mul[x][x] != x
    )
    with pytest.raises(NotIdempotent):
        ideals_isomorphic(R, non_idem, non_idem)


@pytest.mark.parametrize("x", [-1, 16])
def test_iso_rejects_elements_outside_the_ring(x):
    # -1 used to read as the last element, and 16 raised a bare IndexError
    R = FiniteRing.from_matrix_spec("M(2,2)")
    e = principal_right_ideals(R).generators[-1]
    with pytest.raises(IndexOutOfRange):
        ideals_isomorphic(R, x, e)
    with pytest.raises(IndexOutOfRange):
        ideals_isomorphic(R, e, x)


def test_iso_is_equivalence_relation():
    for spec in ("M(2,2)", "M(1,2)xM(1,2)"):
        R = FiniteRing.from_matrix_spec(spec)
        gens = principal_right_ideals(R).generators
        rel = {
            (a, b): ideals_isomorphic(R, a, b) is not None
            for a, b in itertools.product(gens, repeat=2)
        }
        for a in gens:
            assert rel[a, a]
        for a, b in itertools.product(gens, repeat=2):
            assert rel[a, b] == rel[b, a]
        for a, b, c in itertools.product(gens, repeat=3):
            if rel[a, b] and rel[b, c]:
                assert rel[a, c]


def test_iso_transfer_through_two_sided_ideals():
    for spec in ("M(2,2)", "M(1,2)xM(2,2)"):
        R = FiniteRing.from_matrix_spec(spec)
        gens = principal_right_ideals(R).generators
        tsl = two_sided_ideals(R)
        for J in tsl.ideals:
            for a, b in itertools.combinations(gens, 2):
                if ideals_isomorphic(R, a, b) is not None:
                    assert (a in J) == (b in J)


# ---------------------------------------------------------------------------
# two-sided ideals


def test_simple_ring_has_two_ideals():
    tsl = two_sided_ideals(FiniteRing.from_matrix_spec("M(2,2)"))
    assert is_isomorphic(tsl.lattice, chain(2))


def test_product_ring_ideals_form_square():
    tsl = two_sided_ideals(FiniteRing.from_matrix_spec("M(1,2)xM(2,3)"))
    assert tsl.lattice.n == 4
    assert len(tsl.lattice.atoms) == 2


def test_field_has_two_ideals():
    tsl = two_sided_ideals(FiniteRing.from_matrix_spec("M(1,3)"))
    assert is_isomorphic(tsl.lattice, chain(2))


def test_two_sided_ideals_match_subgroup_oracle():
    for spec in ("M(2,2)", "M(1,2)xM(1,2)", "M(1,3)", "M(2,3)", "M(1,2)xM(2,2)"):
        R = FiniteRing.from_matrix_spec(spec)
        got = set(two_sided_ideals(R).ideals)
        assert got == set(two_sided_ideal_sets(R))


def test_principal_ideal_is_least_oracle_ideal_containing_x():
    for spec in ("M(2,2)", "M(1,2)xM(1,2)", "M(1,3)", "M(1,2)xM(2,2)"):
        R = FiniteRing.from_matrix_spec(spec)
        principal = two_sided_ideals(R).principal
        oracle = two_sided_ideal_sets(R)
        for x in range(R.n):
            containing = [I for I in oracle if x in I]
            assert principal[x] in containing
            assert all(principal[x] <= I for I in containing)


IDEAL_RINGS = {
    **{
        spec: functools.partial(ring, spec)
        for spec in TEST_RINGS + ("M(1,3)xM(2,3)", "M(2,2)xM(1,3)xM(1,2)")
    },
    "Z_4": z4,
    "Z_4[x]/(2x,x^2)": z4_x,
}


@pytest.mark.parametrize("name", IDEAL_RINGS)
def test_principal_ideals_match_product_oracle(name):
    R = IDEAL_RINGS[name]()
    assert two_sided_ideals(R).principal == principal_ideals_by_products(R)


@pytest.mark.parametrize("name", IDEAL_RINGS)
def test_additive_generators_are_independent_and_span(name):
    R = IDEAL_RINGS[name]()
    gens = _additive_generators(R)
    assert additive_closure(R, gens) == frozenset(range(R.n))
    for i, g in enumerate(gens):
        assert g not in additive_closure(R, gens[:i])


@pytest.mark.parametrize("spec", TEST_RINGS)
def test_element_nodes_hold_each_xr(spec):
    R = ring(spec)
    lr = principal_right_ideals(R)
    expected = [lr.index[frozenset(R.mul[x])] for x in range(R.n)]
    assert list(lr.element_nodes) == expected
    assert [lr.node_of(x) for x in range(R.n)] == expected


@pytest.mark.parametrize("x", [-1, 16])
def test_node_of_rejects_elements_outside_the_ring(x):
    # -1 used to return the node of element 15
    lr = principal_right_ideals(ring("M(2,2)"))
    with pytest.raises(IndexOutOfRange):
        lr.node_of(x)


def test_ideal_lookups_reject_unknown_sets():
    R = ring("M(2,2)")
    lr, tsl = principal_right_ideals(R), two_sided_ideals(R)
    assert [lr.node_of(e) for e in lr.generators] == list(range(lr.lattice.n))
    assert [tsl.index_of(I) for I in tsl.ideals] == list(range(tsl.lattice.n))
    with pytest.raises(ValueError):
        tsl.index_of(frozenset({0, 1}))


# ---------------------------------------------------------------------------
# the neutral-ideal correspondence


def test_phi_trivial_values():
    R = FiniteRing.from_matrix_spec("M(2,2)")
    lr = principal_right_ideals(R)
    zero_node = lr.lattice.bottom
    assert phi(lr, {zero_node}) == frozenset({0})
    assert phi(lr, range(lr.lattice.n)) == frozenset(range(R.n))


def test_m2f2_neutral_ideal_count():
    R = FiniteRing.from_matrix_spec("M(2,2)")
    from conlat import neutral_ideals

    lr = principal_right_ideals(R)
    nids = neutral_ideals(lr.lattice)
    tsl = two_sided_ideals(R)
    assert len(nids) == len(tsl.ideals) == 2


def test_psi_inverts_phi():
    R = FiniteRing.from_matrix_spec("M(1,2)xM(2,2)")
    lr = principal_right_ideals(R)
    tsl = two_sided_ideals(R)
    from conlat import neutral_ideals

    for nid in neutral_ideals(lr.lattice):
        I = phi(lr, nid)
        assert I in set(tsl.ideals)
        assert psi(lr, tsl, I) == nid


def test_phi_rejects_non_neutral():
    R = FiniteRing.from_matrix_spec("M(2,2)")
    lr = principal_right_ideals(R)
    atom = lr.lattice.atoms[0]
    with pytest.raises(NotNeutral):
        phi(lr, {lr.lattice.bottom, atom})


@pytest.mark.parametrize("case", ["atom", "empty", "not a node"])
def test_phi_rejects_every_node_set_that_is_not_a_neutral_ideal(case):
    lr = principal_right_ideals(FiniteRing.from_matrix_spec("M(2,2)"))
    nodes = {"atom": {lr.lattice.atoms[0]}, "empty": set(), "not a node": {99}}[case]
    with pytest.raises(NotNeutral):
        phi(lr, nodes)


def test_psi_rejects_non_ideal():
    R = FiniteRing.from_matrix_spec("M(2,2)")
    lr = principal_right_ideals(R)
    tsl = two_sided_ideals(R)
    with pytest.raises(NotTwoSided):
        psi(lr, tsl, frozenset({0, 1}))


M12_4 = "x".join(["M(1,2)"] * 4)


@pytest.mark.parametrize("spec", TEST_RINGS + ("M(3,2)",))
def test_right_ideal_perspective_rows_match_axis_scan(spec):
    L = principal_right_ideals(FiniteRing.from_matrix_spec(spec)).lattice
    assert L.perspective_bits == perspective_rows_by_axes(L)


@pytest.mark.parametrize("spec", ["M(3,2)", M12_4])
def test_right_ideal_con_nid_iso_matches_closure_oracle(spec):
    L = principal_right_ideals(FiniteRing.from_matrix_spec(spec)).lattice
    assert con_nid_iso(L).from_ideal == from_ideal_by_closure(L)


@pytest.mark.parametrize("spec", TEST_RINGS + ("M(3,2)", M12_4))
def test_neutral_iff_iso_closed_matches_pair_oracle(spec):
    R = FiniteRing.from_matrix_spec(spec)
    assert neutral_iff_iso_closed(R) == neutral_iff_iso_closed_by_pairs(R) is True


def test_neutral_iff_iso_closed_fails_without_isomorphisms(monkeypatch):
    # with no pair isomorphic every ideal is iso-closed, but the ideal below
    # an atom of L(M(2,2)) is not neutral
    monkeypatch.setattr(regring, "ideals_isomorphic", lambda R, a, b: None)
    R = FiniteRing.from_matrix_spec("M(2,2)")
    assert neutral_iff_iso_closed(R) == neutral_iff_iso_closed_by_pairs(R) is False


def test_correspondences_hold_on_small_rings():
    for spec in ("M(1,2)", "M(1,3)", "M(1,2)xM(1,2)", "M(2,2)"):
        R = FiniteRing.from_matrix_spec(spec)
        assert verify_nid_id_iso(R)
        assert neutral_iff_iso_closed(R)
        assert conc_idc_iso(R)


# ---------------------------------------------------------------------------
# the monoid of isomorphism classes


def test_field_monoid():
    vm = v_monoid(FiniteRing.from_matrix_spec("M(1,3)"))
    assert vm.k == 1
    assert vm.class_of_node[-1] == (1,)


def test_m2f2_monoid():
    R = FiniteRing.from_matrix_spec("M(2,2)")
    vm = v_monoid(R)
    lr = principal_right_ideals(R)
    assert vm.k == 1
    for node in lr.lattice.atoms:
        assert vm.class_of_node[node] == (1,)
    assert vm.class_of_node[lr.lattice.top] == (2,)
    assert vm.class_of_node[lr.lattice.bottom] == (0,)


def test_product_ring_monoid_dimension():
    vm = v_monoid(FiniteRing.from_matrix_spec("M(1,2)xM(2,3)"))
    assert vm.k == 2


def test_monoid_is_conical():
    R = FiniteRing.from_matrix_spec("M(1,2)xM(2,2)")
    vm = v_monoid(R)
    lr = principal_right_ideals(R)
    for node, vec in enumerate(vm.class_of_node):
        assert (node == lr.lattice.bottom) == (sum(vec) == 0)


def _corrupt_iso_pair(monkeypatch, pick) -> None:
    # iso_bits without the isomorphism between the two nodes pick(lattice)
    table = regring.RightIdealLattice.__dict__["iso_bits"].func

    def corrupt(lr):
        rows = list(table(lr))
        x, y = pick(lr.lattice)
        rows[x] &= ~(1 << y)
        rows[y] &= ~(1 << x)
        return tuple(rows)

    monkeypatch.setattr(regring.RightIdealLattice, "iso_bits", property(corrupt))


def test_monoid_rejects_a_missing_atom_isomorphism(monkeypatch):
    # the three atoms of L(M(2,2)) are isomorphic; without one pair they fall
    # into three classes, and the top is the join of two atoms in two ways
    _corrupt_iso_pair(monkeypatch, lambda L: L.atoms[:2])
    with pytest.raises(AssertionError, match="meet in 0 but their vectors do not add"):
        v_monoid(FiniteRing.from_matrix_spec("M(2,2)"))


def test_monoid_rejects_a_missing_isomorphism_above_the_atoms(monkeypatch):
    # two planes of L(M(3,2)) keep the vector (2,) without being isomorphic
    _corrupt_iso_pair(monkeypatch, lambda L: [x for x, y in L.covers() if y == L.top][:2])
    with pytest.raises(AssertionError, match="share a vector but are not isomorphic"):
        v_monoid(FiniteRing.from_matrix_spec("M(3,2)"))


@pytest.mark.parametrize(
    "node, vector",
    [(1, (0, 1)), (3, (2, 0)), (0, (1, 0))],
    ids=["atom-as-the-other-atom", "top-doubled", "bottom-nonzero"],
)
def test_monoid_rejects_a_corrupted_vector(monkeypatch, node, vector):
    real = regring._node_vectors

    def corrupt(*args):
        vecs = real(*args)
        vecs[node] = vector
        return vecs

    monkeypatch.setattr(regring, "_node_vectors", corrupt)
    with pytest.raises(AssertionError, match=r"^nodes \d+ and \d+ "):
        v_monoid(FiniteRing.from_matrix_spec("M(1,2)xM(1,2)"))


@pytest.mark.parametrize("spec", TEST_RINGS + tuple("x".join(["M(1,2)"] * k) for k in range(3, 6)))
def test_monoid_vectors_pass_the_former_triple_check(spec):
    assert refinement_by_triples(v_monoid(ring(spec)).class_of_node)


@pytest.mark.parametrize("spec", TEST_RINGS)
def test_iso_bits_match_pairwise_isomorphism(spec):
    lr = principal_right_ideals(ring(spec))
    gens = lr.generators
    for i, j in itertools.product(range(len(gens)), repeat=2):
        iso = ideals_isomorphic(lr.ring, gens[i], gens[j]) is not None
        assert bool(lr.iso_bits[i] >> j & 1) == iso


def test_iso_table_is_built_once_per_ring(monkeypatch):
    calls = []
    real = regring.ideals_isomorphic
    monkeypatch.setattr(regring, "ideals_isomorphic", lambda *a: calls.append(a) or real(*a))
    R = FiniteRing.from_matrix_spec("M(1,2)xM(2,2)")
    assert neutral_iff_iso_closed(R)
    v_monoid(R)
    assert len(calls) == principal_right_ideals(R).lattice.n ** 2


def test_vector_refinement():
    # every (a0, a1, b0) in {0,1,2}^k with b1 = a0 + a1 - b0 nonnegative
    for k in range(1, 4):
        cube = list(itertools.product(range(3), repeat=k))
        for a0, a1, b0 in itertools.product(cube, repeat=3):
            b1 = tuple(x + y - z for x, y, z in zip(a0, a1, b0))
            if any(v < 0 for v in b1):
                continue
            c00, c01, c10, c11 = refine_nonneg_vectors(a0, a1, b0, b1)
            for c in (c00, c01, c10, c11):
                assert all(v >= 0 for v in c)
            assert tuple(x + y for x, y in zip(c00, c01)) == a0
            assert tuple(x + y for x, y in zip(c10, c11)) == a1
            assert tuple(x + y for x, y in zip(c00, c10)) == b0
            assert tuple(x + y for x, y in zip(c01, c11)) == b1


def test_algebraic_preorder():
    assert algebraic_below((1, 0), (2, 0))
    assert algebraic_below((5, 0), (1, 0))  # some multiple dominates
    assert not algebraic_below((1, 1), (2, 0))
    assert algebraic_below((0, 0), (0, 0))


def test_vector_refinement_rejects_unequal_lengths():
    # zip would drop the tail of the longer vectors and answer for a prefix
    with pytest.raises(ValueError, match="lengths"):
        refine_nonneg_vectors((1, 2), (0,), (1,), (0,))


def test_vector_refinement_rejects_negative_entries():
    # min(-1, 1) = -1 would make c00 a vector outside N^k
    with pytest.raises(ValueError, match="negative"):
        refine_nonneg_vectors((-1,), (1,), (0,), (0,))


def test_algebraic_preorder_rejects_unequal_lengths():
    with pytest.raises(ValueError, match="lengths"):
        algebraic_below((1, 1), (1,))


# ---------------------------------------------------------------------------
# the quotient map pi


def test_pi_of_zero():
    R = FiniteRing.from_matrix_spec("M(2,2)")
    pm = pi_map(R)
    assert pm((0,)) == frozenset({0})


@pytest.mark.parametrize("alpha", [(1, 1), (0, 0, 1), (), (-1,)])
def test_pi_rejects_vectors_outside_n_k(alpha):
    # k = 1 on M(2,2); (-1,) used to read as (0,)
    pm = pi_map(FiniteRing.from_matrix_spec("M(2,2)"))
    assert pm.vm.k == 1
    with pytest.raises(ValueError):
        pm(alpha)


def test_pi_simple_ring_line_generates_everything():
    R = FiniteRing.from_matrix_spec("M(2,2)")
    pm = pi_map(R)
    assert pm((1,)) == frozenset(range(R.n))


def test_pi_product_ring_components():
    R = FiniteRing.from_matrix_spec("M(1,2)xM(2,3)")
    pm = pi_map(R)
    left = pm((1, 0))
    right = pm((0, 1))
    assert len(left) == 2 and len(right) == 81
    assert left & right == {0}


@pytest.mark.parametrize("spec", TEST_RINGS + ("M(1,3)xM(2,3)",))
def test_pi_matches_algebraic_below_on_every_element(spec):
    R = ring(spec)
    vm, pm = v_monoid(R), pi_map(R)
    classes = [vm.class_of_node[vm.lr.node_of(x)] for x in range(R.n)]
    for alpha in itertools.product(range(3), repeat=vm.k):
        assert pm(alpha) == {x for x, v in enumerate(classes) if algebraic_below(v, alpha)}


def test_pi_verification_bundle():
    for spec in ("M(1,2)", "M(2,2)", "M(1,2)xM(1,2)"):
        R = FiniteRing.from_matrix_spec(spec)
        assert all(verify_pi_map(R).values())


# ---------------------------------------------------------------------------
# the maximal semilattice quotient


def test_support_map_values():
    sq = max_semilattice_quotient(3)
    assert sq.map((2, 0, 3)) == frozenset({0, 2})
    assert sq.map((0, 0, 0)) == frozenset()


class SupportOfTwice(SupportQuotient):
    # drops the classes of multiplicity one, so it is not the support map
    def map(self, alpha):
        return frozenset(i for i, v in enumerate(alpha) if v > 1)


def test_support_universal_property():
    for k in range(4):
        assert max_semilattice_quotient(k).verify_universal_property()


def test_support_universal_property_rejects_a_wrong_map():
    assert max_semilattice_quotient(2).verify_universal_property()
    assert not SupportOfTwice(2).verify_universal_property()


@pytest.mark.parametrize("quotient", [SupportQuotient, SupportOfTwice])
@pytest.mark.parametrize("k", range(4))
def test_universal_property_matches_small_target_oracle(quotient, k):
    sq = quotient(k)
    assert sq.verify_universal_property() == universal_property_on_small_targets(sq, 4)


@pytest.mark.parametrize("spec", TEST_RINGS + ("M(1,2)xM(1,2)xM(1,2)",))
def test_pi_checks_match_small_vector_oracle(spec):
    R = ring(spec)
    checks = verify_pi_map(R)
    oracle = pi_hom_order_on_small_vectors(R, pi_map(R))
    assert {key: checks[key] for key in oracle} == oracle
    assert all(oracle.values())


def test_support_composite_matches_ideals():
    # support of the class vector determines the generated two-sided ideal
    R = FiniteRing.from_matrix_spec("M(1,2)xM(2,2)")
    vm = v_monoid(R)
    pm = pi_map(R)
    sq = max_semilattice_quotient(vm.k)
    seen: dict[frozenset[int], frozenset[int]] = {}
    for vec in vm.class_of_node:
        supp = sq.map(vec)
        ideal = pm(vec)
        if supp in seen:
            assert seen[supp] == ideal
        seen[supp] = ideal
    tsl = two_sided_ideals(R)
    assert set(seen.values()) == set(tsl.ideals)
