"""The package surface: layers loaded on first use, and the result records
(immutable, compared by value, with the same fields, defaults, reprs and
validation as the dataclasses they replaced)."""
from __future__ import annotations

import importlib
import os
import subprocess
import sys

import pytest

import conlat
from conlat import (
    chain,
    con_lattice,
    pi_map,
    principal_right_ideals,
    two_sided_ideals,
    v_monoid,
)
from conlat.cli import Campaign, CampaignReport
from conlat.congruence import Chain, ConNidCorrespondence
from conlat.lattice import IndexOutOfRange, IntervalSublattice, LatticeHom
from conlat.regring import (
    FiniteRing,
    IsoCertificate,
    PiMap,
    RegularityResult,
    RightIdealLattice,
    SupportQuotient,
    TwoSidedIdealLattice,
    VMonoid,
)
from conlat.semilattice import (
    RefinementResult,
    RefinementSquare,
    SemilatticeHom,
    WdAtResult,
    WdWitness,
)
from conlat.splitting import CChain, PropertyCResult, SplitInstance, SplittingResult
from conlat.urp import ElementOutOfRange, UrpInstance, UrpVerification, UrpWitness

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

# every name the package exported when it imported all its layers eagerly
EXPORTS = {
    "lattice": (
        "FiniteLattice LatticeHom IntervalSublattice NotALattice CyclicCovers "
        "IndexOutOfRange NotComparable BoundExceeded boolean canonical_form chain "
        "check_hom enumerate_lattice_homs enumerate_lattices has_convex_range "
        "interval is_atomistic is_complemented is_distributive is_isomorphic "
        "is_modular is_relatively_complemented is_sectionally_complemented "
        "are_perspective m3 n5"
    ),
    "congruence": (
        "Chain Congruence CongruenceLattice ConNidCorrespondence HostMismatch "
        "HypothesesFail NotAHom NotAnIdeal NotJoined alternating_chain "
        "certifies_ring_of_sets con_lattice con_nid_iso congruence_from_blocks "
        "congruence_join congruence_meet ideals induced_con_map is_neutral_ideal "
        "monotonize_chain neutral_ideals principal_congruence "
        "refinement_by_certificate"
    ),
    "semilattice": (
        "FiniteJoinSemilattice InvalidInputWitness RefinementResult "
        "RefinementSquare SemilatticeHom TargetNotDistributive WdAtResult "
        "WdWitness check_semilattice_hom enumerate_semilattice_homs "
        "has_refinement_property is_weakly_distributive is_weakly_distributive_at "
        "refinement_square wd_join_combine weakly_distributive_points"
    ),
    "urp": (
        "DEFAULT_SEARCH_BUDGET BadDecomposition ElementOutOfRange IndexMismatch "
        "NoSourceWitness NotDistributive NotSplitting NotWeaklyDistributive "
        "SearchBudgetExceeded UrpInstance UrpVerification UrpWitness "
        "canonical_instance csurp_witness first_urp_failure holds_urp_at "
        "refine_instance satisfies_urp search_urp_witness "
        "urp_join_combine urp_transfer verify_urp_witness"
    ),
    "splitting": (
        "CChain NoChain PropertyCResult SplitInstance SplittingResult "
        "has_property_C is_congruence_splitting property_c_chain rel_lessdot "
        "splitting_from_property_C splitting_witness"
    ),
    "regring": (
        "DecompositionFail FiniteRing IsoCertificate NotIdempotent NotNeutral "
        "NotRegular NotTwoSided PiMap RightIdealLattice RingTooLarge SpecParse "
        "SupportQuotient TwoSidedIdealLattice VMonoid algebraic_below conc_idc_iso "
        "ideals_isomorphic is_regular max_semilattice_quotient "
        "neutral_iff_iso_closed parse_ring_spec phi pi_map principal_right_ideals "
        "psi refine_nonneg_vectors two_sided_ideals v_monoid verify_nid_id_iso "
        "verify_pi_map"
    ),
}

# In the child, ran(name) tells whether module ``name`` has executed: a module
# that importlib.util.LazyLoader registered but nobody has read yet holds only
# the import system's dunder names.
PRELUDE = """
import sys
def ran(name):
    module = sys.modules.get(name)
    if module is None:
        return False
    return any(not k.startswith("__") for k in object.__getattribute__(module, "__dict__"))
"""


def fresh(code: str) -> str:
    """stdout of ``code`` run after PRELUDE in a new interpreter, with only
    ``src`` on its path."""
    proc = subprocess.run(
        [sys.executable, "-c", PRELUDE + code],
        env=dict(os.environ, PYTHONPATH=SRC),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


# ---------------------------------------------------------------------------
# layers loaded on first use


def test_import_conlat_loads_no_layer():
    out = fresh("import conlat\nprint(sorted(m for m in sys.modules if m.startswith('conlat.')))")
    assert out == "[]"


def test_import_cli_loads_neither_dataclasses_nor_regring():
    out = fresh(
        "before = set(sys.modules)\n"
        "import conlat.cli\n"
        "print('dataclasses' in set(sys.modules) - before, ran('conlat.regring'))"
    )
    assert out == "False False"


def test_only_ring_commands_run_regring():
    out = fresh(
        "import contextlib, io\n"
        "from conlat.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['check', 'urp', '--max-size', '4'])\n"
        "print(code, ran('conlat.regring'))\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    code = main(['ring', 'M(1,2)'])\n"
        "print(code, ran('conlat.regring'))\n"
    )
    assert out.splitlines() == ["0 False", "0 True"]


def test_lazy_regring_is_the_imported_module():
    # the module cli.py registered is the one every import path returns
    out = fresh(
        "import conlat.cli\n"
        "import conlat.regring\n"
        "from conlat import regring, FiniteRing\n"
        "print(regring is conlat.regring is conlat.cli.regring is sys.modules['conlat.regring'],"
        " FiniteRing is regring.FiniteRing)"
    )
    assert out == "True True"


@pytest.mark.parametrize("layer", sorted(EXPORTS))
def test_every_export_resolves_to_its_layer(layer):
    module = importlib.import_module(f"conlat.{layer}")
    names = EXPORTS[layer].split()
    listed = dir(conlat)
    for name in names:
        assert getattr(conlat, name) is getattr(module, name), name
        assert name in listed, name
    assert set(names) <= set(conlat.__all__)


def test_unknown_attribute_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'FiniteGroup'"):
        conlat.FiniteGroup  # noqa: B018


# ---------------------------------------------------------------------------
# result records


def _records():
    """(record, an equal record built from the same field values, fields the
    repr shows, frozen) for every result record."""
    L = chain(2)
    con = con_lattice(L)
    bottom, top = sorted(con.congruences, key=lambda c: len(set(c.rep)), reverse=True)
    S = L
    h = SemilatticeHom(S, S, (0, 1))
    R = FiniteRing.from_matrix_spec("M(1,2)xM(1,2)")
    lr, tsl, vm, pm = principal_right_ideals(R), two_sided_ideals(R), v_monoid(R), pi_map(R)
    built = [
        (IntervalSublattice, (L, (0, 1))),
        (Chain, (L, (0, 1), (None,))),
        (ConNidCorrespondence, (L, (frozenset({0}),), {frozenset({0}): 0})),
        (RefinementSquare, tuple(range(8))),
        (RefinementResult, (False, (1, 0, 0, 1))),
        (WdWitness, (h, 1, {(0, 1): (0, 1)})),
        (WdAtResult, (False, None, (0, 1))),
        (SplitInstance, (L, 0, 1, top, bottom)),
        (CChain, (L, 0, (0, 1), (1,))),
        (PropertyCResult, (False, (0, 1, 0))),
        (SplittingResult, (True, None)),
        (UrpInstance, (S, 1, ((0, 1), (1, 1)))),
        (UrpWitness, ((0,), (1,), ((0,),))),
        (UrpVerification, (False, "i-a", (0,))),
        (RegularityResult, (False, 3)),
        (IsoCertificate, (1, 2)),
        (VMonoid, (lr, vm.k, vm.class_of_node)),
        (SupportQuotient, (2,)),
        (Campaign, ("urp", "check", "items", None, None, None, None, (), True)),
    ]
    out = [(cls(*args), cls(*args), cls._fields, True) for cls, args in built]
    lr_fields = (R, lr.lattice, lr.ideals, lr.generators, lr.index, lr.element_nodes)
    tsl_fields = (R, tsl.lattice, tsl.ideals, tsl.principal, tsl.index)
    homs = ("source", "target", "map")
    out += [
        (LatticeHom(L, L, (0, 1)), LatticeHom(L, L, (0, 1)), homs, True),
        (SemilatticeHom(S, S, (0, 1)), SemilatticeHom(S, S, (0, 1)), homs, True),
        (
            RightIdealLattice(*lr_fields),
            RightIdealLattice(*lr_fields[:4], dict(lr.index), lr.element_nodes),
            ("ring", "lattice", "ideals", "generators"),
            True,
        ),
        (
            TwoSidedIdealLattice(*tsl_fields),
            TwoSidedIdealLattice(*tsl_fields[:4], dict(tsl.index)),
            ("ring", "lattice", "ideals", "principal"),
            True,
        ),
        (pm, PiMap(vm, tsl, pm.elem_class), ("vm", "tsl", "elem_class"), True),
        (
            CampaignReport("check", {"items": 1}, [{"verdict": "holds"}]),
            CampaignReport("check", {"items": 1}, [{"verdict": "holds"}]),
            ("command", "params", "rows", "annotations"),
            False,
        ),
    ]
    return out


RECORDS = _records()
UNHASHABLE = {ConNidCorrespondence, WdWitness, CampaignReport}


def test_every_record_is_covered():
    assert len(RECORDS) == 25
    assert len({type(r) for r, *_ in RECORDS}) == 25


@pytest.mark.parametrize(
    "record,twin,shown,frozen", RECORDS, ids=[type(r).__name__ for r, *_ in RECORDS]
)
def test_record_value_semantics(record, twin, shown, frozen):
    name = type(record).__name__
    assert record is not twin
    assert record == twin and not record != twin
    if type(record) in UNHASHABLE:
        with pytest.raises(TypeError):
            hash(record)
    else:
        assert hash(record) == hash(twin)
    fields = ", ".join(f"{f}={getattr(record, f)!r}" for f in shown)
    assert repr(record) == f"{name}({fields})"
    for f in shown:
        if frozen:
            with pytest.raises(AttributeError):
                setattr(record, f, None)
        else:
            setattr(twin, f, getattr(record, f))


def test_records_keep_defaults_and_keywords():
    assert UrpVerification(True) == UrpVerification(ok=True, clause=None, indices=None)
    c = Campaign("x", "check", "items")
    assert (c.check, c.premise, c.draws, c.trial, c.tallies, c.annotate) == (
        None, None, None, None, (), False,
    )
    report = CampaignReport("ring", {})
    assert report.rows == [] and report.annotations == []
    assert CampaignReport("ring", {}).rows is not report.rows


def test_one_hom_record_type():
    # LatticeHom subclasses the SemilatticeHom that conlat.semilattice
    # re-exports; a record of one never equals a record of the other
    import conlat
    from conlat import lattice, semilattice

    assert semilattice.SemilatticeHom is lattice.SemilatticeHom is conlat.SemilatticeHom
    assert issubclass(LatticeHom, SemilatticeHom)
    L = chain(2)
    assert LatticeHom(L, L, (0, 1)) != SemilatticeHom(L, L, (0, 1))


def test_hom_caches_do_not_enter_equality():
    from conlat import induced_con_map, is_weakly_distributive

    L = chain(2)
    h = LatticeHom(L, L, (0, 1))
    cached = induced_con_map(h)
    assert induced_con_map(h) is cached
    assert is_weakly_distributive(cached)
    assert h == LatticeHom(L, L, (0, 1))


def test_frozen_homs_keep_their_caches_and_stay_frozen():
    from conlat import induced_con_map, is_weakly_distributive

    L = chain(3)
    h = LatticeHom(L, L, (0, 1, 2))
    f = induced_con_map(h)
    assert vars(h)["_induced_con_map"] is f
    assert is_weakly_distributive(f) is vars(f)["_is_weakly_distributive"]
    for hom in (h, f):
        with pytest.raises(AttributeError):
            hom.map = ()


# the validating records reject bad fields with the exceptions they raised
# as dataclasses (from __post_init__)


def test_chain_validates_one_label_per_step():
    L = chain(3)
    assert Chain(host=L, elements=(0,), labels=()).elements == (0,)
    for elements, labels in (((0, 1), ()), ((0,), (None,)), ((0, 1, 2), (None,))):
        with pytest.raises(ValueError, match="one label per step"):
            Chain(L, elements, labels)


def test_split_instance_validates():
    L = chain(3)
    congs = con_lattice(L).congruences
    full = max(congs, key=lambda c: sum(c.same(x, y) for x in range(3) for y in range(3)))
    identity = min(congs, key=lambda c: sum(c.same(x, y) for x in range(3) for y in range(3)))
    assert SplitInstance(L, 0, 2, full, identity).b == 2
    with pytest.raises(IndexOutOfRange):
        SplitInstance(L, 0, 3, full, identity)
    with pytest.raises(ValueError, match="is not below"):
        SplitInstance(L, 2, 0, full, identity)
    with pytest.raises(ValueError, match=r"Theta\(a, b\) is not below"):
        SplitInstance(L, 0, 2, identity, identity)


def test_urp_instance_validates():
    S = chain(3)
    assert UrpInstance(S, 2, ((0, 2),)).pairs == ((0, 2),)
    with pytest.raises(ElementOutOfRange, match="target"):
        UrpInstance(S, 3, ())
    with pytest.raises(ElementOutOfRange, match="pair"):
        UrpInstance(S, 2, ((0, 5),))
    with pytest.raises(ValueError, match="does not join"):
        UrpInstance(S, 2, ((0, 1),))
