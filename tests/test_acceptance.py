"""Acceptance suite: one test per shipped guarantee, each printing a single
PASS/FAIL line (with its runtime) straight to the terminal, outside pytest's
capture.  Tests are self-contained: every criterion enumerates its own corpus
so the reported runtime covers the whole computation."""
from __future__ import annotations

import itertools
import random
import sys
import time
from collections import Counter

from conlat.cli import (
    NO_FINITE_COUNTEREXAMPLE,
    TEST_RINGS,
    campaign_check,
    campaign_theorem,
    default_corpus,
)
from conlat.congruence import con_lattice, monotonize_chain, principal_congruence
from conlat.lattice import (
    canonical_form,
    enumerate_lattices,
    is_atomistic,
    is_complemented,
    is_modular,
    is_relatively_complemented,
    is_sectionally_complemented,
    m3,
)
from conlat.regring import (
    FiniteRing,
    conc_idc_iso,
    is_regular,
    max_semilattice_quotient,
    neutral_iff_iso_closed,
    pi_map,
    principal_right_ideals,
    two_sided_ideals,
    v_monoid,
    verify_nid_id_iso,
    verify_pi_map,
)
from conlat.semilattice import has_refinement_property
from conlat.splitting import (
    SplitInstance,
    has_property_C,
    is_congruence_splitting,
    splitting_from_property_C,
)
from conlat.urp import (
    UrpInstance,
    canonical_instance,
    csurp_witness,
    holds_urp_at,
    search_urp_witness,
    verify_urp_witness,
)
from oracles import count_lattices

EXPECTED_COUNTS = (1, 1, 1, 2, 5, 15, 53)


def _report(capsys, tag: str, ok: bool, started: float, detail: str = "") -> float:
    elapsed = time.perf_counter() - started
    line = f"{'PASS' if ok else 'FAIL'} {tag} ({elapsed:.1f}s)"
    if detail:
        line += f" [{detail}]"
    with capsys.disabled():
        print(line, file=sys.stderr, flush=True)
    return elapsed


def test_criterion_01_enumeration_counts(capsys):
    started = time.perf_counter()
    per_size = Counter(L.n for L in enumerate_lattices(7))
    got = tuple(per_size[n] for n in range(1, 8))
    oracle = tuple(count_lattices(n) for n in range(1, 8))
    ok = got == EXPECTED_COUNTS == oracle
    elapsed = _report(
        capsys,
        "criterion-01 lattice counts n=1..7 match the exhaustive oracle",
        ok,
        started,
        f"got={got} oracle={oracle}",
    )
    assert ok
    assert elapsed < 120


def test_criterion_02_congruence_lattices_have_refinement(capsys):
    started = time.perf_counter()
    bad = []
    for L in enumerate_lattices(6):
        if not has_refinement_property(con_lattice(L)).holds:
            bad.append(canonical_form(L))
    ok = not bad
    elapsed = _report(
        capsys,
        "criterion-02 congruence semilattices of |L|<=6 satisfy refinement",
        ok,
        started,
        f"failures={bad}",
    )
    assert ok, bad
    assert elapsed < 60


def test_criterion_03_complemented_or_atomistic_implies_property_c(capsys):
    started = time.perf_counter()
    checked = 0
    bad = []
    for L in enumerate_lattices(7):
        if not (
            is_sectionally_complemented(L)
            or is_relatively_complemented(L)
            or is_atomistic(L)
        ):
            continue
        checked += 1
        if not has_property_C(L).holds:
            bad.append(canonical_form(L))
    ok = checked > 0 and not bad
    elapsed = _report(
        capsys,
        "criterion-03 complemented/atomistic |L|<=7 all have property (C)",
        ok,
        started,
        f"checked={checked} failures={bad}",
    )
    assert ok, bad
    assert elapsed < 300


def _exact_join_split_instances(L):
    """All (a, b, alpha0, alpha1) with a <= b and alpha0 v alpha1 = Theta(a, b)."""
    con = con_lattice(L)
    jn = con.join_rows
    k = len(con)
    for a in range(L.n):
        for b in range(L.n):
            if not L.le(a, b):
                continue
            tgt = con.principal[a][b]
            for i0 in range(k):
                for i1 in range(k):
                    if jn[i0][i1] == tgt:
                        yield a, b, con.congruences[i0], con.congruences[i1]


def test_criterion_04_property_c_implies_splitting_constructively(capsys):
    started = time.perf_counter()
    with_c = 0
    instances = 0
    bad = []
    for L in enumerate_lattices(6):
        if not has_property_C(L).holds:
            continue
        with_c += 1
        if not is_congruence_splitting(L).holds:
            bad.append((canonical_form(L), "not splitting"))
            continue
        con = con_lattice(L)
        jn = L.join_rows
        for a, b, al0, al1 in _exact_join_split_instances(L):
            x0, x1 = splitting_from_property_C(SplitInstance(L, a, b, al0, al1))
            good = (
                L.le(a, x0)
                and L.le(x0, b)
                and L.le(a, x1)
                and L.le(x1, b)
                and jn[x0][x1] == b
                and con.congruences[con.principal[a][x0]].refines(al0)
                and con.congruences[con.principal[a][x1]].refines(al1)
            )
            instances += 1
            if not good:
                bad.append((canonical_form(L), a, b))
    ok = with_c > 0 and instances > 0 and not bad
    elapsed = _report(
        capsys,
        "criterion-04 property (C) on |L|<=6 gives constructive splitting",
        ok,
        started,
        f"lattices={with_c} instances={instances} failures={bad[:3]}",
    )
    assert ok, bad
    assert elapsed < 600


def test_criterion_05_splitting_lattices_get_urp_witnesses(capsys):
    started = time.perf_counter()
    lattices = 0
    instances = 0
    bad = []
    for L in enumerate_lattices(5):
        if not is_congruence_splitting(L).holds:
            continue
        lattices += 1
        con = con_lattice(L)
        jn = con.join_rows
        k = len(con)
        for u in range(L.n):
            for v in range(L.n):
                if not L.le(u, v):
                    continue
                eps = con.principal[u][v]
                fams = tuple(
                    (i0, i1)
                    for i0 in range(k)
                    for i1 in range(k)
                    if jn[i0][i1] == eps
                )
                w = csurp_witness(L, u, v, fams)
                res = verify_urp_witness(UrpInstance(con, eps, fams), w)
                instances += 1
                if not res.ok:
                    bad.append((canonical_form(L), u, v, res.clause))
    ok = lattices > 0 and instances > 0 and not bad
    elapsed = _report(
        capsys,
        "criterion-05 splitting |L|<=5: constructed witnesses verify",
        ok,
        started,
        f"lattices={lattices} instances={instances} failures={bad[:3]}",
    )
    assert ok, bad
    assert elapsed < 600


def test_criterion_06_convex_homs_induce_weakly_distributive_maps(capsys):
    started = time.perf_counter()
    rep = campaign_theorem("prop-convhom", default_corpus(5), seed=0, trials=10_000)
    homs = sum(r["detail"]["homs_checked"] for r in rep.rows)
    wd_failures = sum(r["detail"]["wd_failures"] for r in rep.rows)
    chains = sum(r["detail"]["chains_checked"] for r in rep.rows)
    chain_failures = sum(r["detail"]["chain_failures"] for r in rep.rows)
    verdicts_ok = all(r["verdict"] == "holds" for r in rep.rows)
    # direct monotonization check: random fences with principal step labels
    rng = random.Random(0)
    corpus = list(enumerate_lattices(5))
    mono_failures = 0
    for _ in range(10_000):
        L = rng.choice(corpus)
        x, y = rng.randrange(L.n), rng.randrange(L.n)
        u, v = L.meet_of(x, y), L.join_of(x, y)
        raw = [u] + [rng.randrange(L.n) for _ in range(rng.randrange(4))] + [v]
        labels = tuple(
            principal_congruence(L, raw[i], raw[i + 1]) for i in range(len(raw) - 1)
        )
        ch = monotonize_chain(L, raw, u, v, labels)
        if not (ch.elements[0] == u and ch.elements[-1] == v and ch.validate()):
            mono_failures += 1
    ok = (
        homs >= 10_000
        and wd_failures == 0
        and chains > 0
        and chain_failures == 0
        and verdicts_ok
        and mono_failures == 0
    )
    elapsed = _report(
        capsys,
        "criterion-06 convex-range homs: induced maps weakly distributive",
        ok,
        started,
        f"homs={homs} wd_failures={wd_failures} chains={chains} "
        f"mono_failures={mono_failures}",
    )
    assert ok
    assert elapsed < 600


def test_criterion_07_constructive_combinators_validate(capsys):
    started = time.perf_counter()
    items = default_corpus(5)
    wd = campaign_theorem("lem-wdadd", items, seed=0, trials=10_000)
    wd_n = sum(r["detail"]["combined"] for r in wd.rows)
    wd_f = sum(r["detail"]["failures"] for r in wd.rows)
    add = campaign_theorem("prop-urpadd", items, seed=0, trials=10_000)
    add_n = sum(r["detail"]["combined"] for r in add.rows)
    add_f = sum(r["detail"]["failures"] for r in add.rows)
    add_b = sum(r["detail"]["budget_exceeded"] for r in add.rows)
    # 12000 draws leave >= 10^4 after dropping inputs whose premise fails
    tr = campaign_theorem("prop-urpclwd", items, seed=0, trials=12_000)
    tr_valid = sum(
        r["detail"]["transfers"] - r["detail"]["no_source_witness"] for r in tr.rows
    )
    tr_f = sum(r["detail"]["failures"] for r in tr.rows)
    tr_b = sum(r["detail"]["budget_exceeded"] for r in tr.rows)
    ok = (
        wd_n >= 10_000
        and wd_f == 0
        and add_n >= 10_000
        and add_f == 0
        and add_b == 0
        and tr_valid >= 10_000
        and tr_f == 0
        and tr_b == 0
    )
    elapsed = _report(
        capsys,
        "criterion-07 witness combinators validate on 10^4 random inputs",
        ok,
        started,
        f"wd={wd_n}/{wd_f} add={add_n}/{add_f} transfer={tr_valid}/{tr_f}",
    )
    assert ok
    assert elapsed < 300


def test_criterion_08_urp_consistent_at_finite_scale(capsys):
    started = time.perf_counter()
    failures = []
    for L in enumerate_lattices(5):
        S = con_lattice(L)
        for e in range(S.n):
            if not holds_urp_at(S, e):
                failures.append((canonical_form(L), e))
    # exhaustive families with at most 5 indices, duplicates included, must
    # agree with the canonical pair-set decision
    disagreements = 0
    families = 0
    for L in enumerate_lattices(6):
        S = L
        for e in range(S.n):
            canon = canonical_instance(S, e).pairs
            canon_ok = holds_urp_at(S, e)
            small_ok = True
            solvable: dict[tuple, bool] = {}
            for r in range(1, min(5, len(canon)) + 1):
                for sub in itertools.combinations(canon, r):
                    hit = search_urp_witness(UrpInstance(S, e, sub)) is not None
                    solvable[sub] = hit
                    small_ok = small_ok and hit
                    families += 1
            for sub, hit in solvable.items():
                if len(sub) <= 4:
                    dup = sub + (sub[0],)
                    families += 1
                    if (search_urp_witness(UrpInstance(S, e, dup)) is not None) != hit:
                        disagreements += 1
                if len(sub) == 1:
                    for mult in (3, 4, 5):
                        families += 1
                        got = search_urp_witness(UrpInstance(S, e, sub * mult))
                        if (got is not None) != hit:
                            disagreements += 1
            if canon_ok != small_ok:
                disagreements += 1
    ok = not failures and families > 0 and disagreements == 0
    elapsed = _report(
        capsys,
        "criterion-08 congruence semilattices pass the refinement-property "
        "search; duplicate families agree",
        ok,
        started,
        f"failures={failures[:3]} families={families} "
        f"disagreements={disagreements}",
    )
    assert ok, (failures, disagreements)
    assert elapsed < 600


def test_criterion_09_regular_ring_pipeline(capsys):
    started = time.perf_counter()
    expected = (
        "M(1,2)",
        "M(1,3)",
        "M(1,2)xM(1,2)",
        "M(2,2)",
        "M(2,3)",
        "M(1,2)xM(2,2)",
        "M(1,2)xM(2,3)",
    )
    bad: list[tuple[str, str]] = []
    if TEST_RINGS != expected:
        bad.append(("universe", f"{TEST_RINGS}"))
    for spec in expected:
        R = FiniteRing.from_matrix_spec(spec)
        if not is_regular(R).holds:
            bad.append((spec, "regular"))
            continue
        lr = principal_right_ideals(R)
        if not (is_complemented(lr.lattice) and is_modular(lr.lattice)):
            bad.append((spec, "L(R) not complemented modular"))
        if not verify_nid_id_iso(R):
            bad.append((spec, "neutral ideals vs two-sided ideals"))
        if not neutral_iff_iso_closed(R):
            bad.append((spec, "neutral iff closed under isomorphism"))
        if not conc_idc_iso(R):
            bad.append((spec, "compact congruences vs compact ideals"))
        checks = verify_pi_map(R)
        if not all(checks.values()):
            bad.append((spec, f"pi map {checks}"))
        # support of the class vector induces an isomorphism onto Id R
        vm = v_monoid(R)
        tsl = two_sided_ideals(R)
        pm = pi_map(R)
        sq = max_semilattice_quotient(vm.k)
        supports = {sq.map(vm.class_of_node[x]) for x in range(lr.lattice.n)}
        subsets = {
            frozenset(s)
            for r in range(vm.k + 1)
            for s in itertools.combinations(range(vm.k), r)
        }
        if supports != subsets:
            bad.append((spec, "support image is not the full Boolean"))
        image = {
            A: pm(tuple(1 if i in A else 0 for i in range(vm.k))) for A in subsets
        }
        if set(image.values()) != set(tsl.ideals) or len(
            set(image.values())
        ) != len(subsets):
            bad.append((spec, "supports are not bijective onto the ideals"))
        if not all(
            (A <= B) == (image[A] <= image[B]) for A in subsets for B in subsets
        ):
            bad.append((spec, "support order does not match ideal order"))
        if not all(
            pm(vm.class_of_node[x]) == image[sq.map(vm.class_of_node[x])]
            for x in range(lr.lattice.n)
        ):
            bad.append((spec, "pi does not factor through supports"))
    m22 = FiniteRing.from_matrix_spec("M(2,2)")
    fixture_m3 = canonical_form(principal_right_ideals(m22).lattice) == canonical_form(
        m3()
    )
    fixture_k2 = v_monoid(FiniteRing.from_matrix_spec("M(1,2)xM(2,3)")).k == 2
    ok = not bad and fixture_m3 and fixture_k2
    elapsed = _report(
        capsys,
        "criterion-09 ring pipeline on the seven shipped rings",
        ok,
        started,
        f"failures={bad[:4]} m3_fixture={fixture_m3} k2_fixture={fixture_k2}",
    )
    assert ok, bad
    assert elapsed < 300


def test_criterion_10_no_finite_counterexample_annotation(capsys):
    started = time.perf_counter()
    items = default_corpus(5)
    thm = campaign_theorem("thm-csurp", items)
    chk = campaign_check("urp", items)
    ok = (
        thm.summary["fails"] == 0
        and chk.summary["fails"] == 0
        and thm.exit_code == 0
        and chk.exit_code == 0
        and NO_FINITE_COUNTEREXAMPLE in thm.annotations
        and NO_FINITE_COUNTEREXAMPLE in chk.annotations
    )
    elapsed = _report(
        capsys,
        "criterion-10 reports state that no finite counterexample exists",
        ok,
        started,
        f"thm={thm.summary} check={chk.summary}",
    )
    assert ok
    assert elapsed < 600
