"""Command-line front end: corpus generation, property checks, theorem
campaigns, ring pipelines, and machine-readable reports.

Commands
--------
* ``gen-corpus --max-size N --out corpus.jsonl``: enumerate all lattices up
  to N elements (one JSON object per line, canonically keyed).
* ``check PROPERTY --in corpus.jsonl``: run a per-lattice check; PROPERTY is
  one of property-c, cong-splitting, urp, con-distributive ("urp" and
  "con-distributive" examine the congruence lattice of each item).
* ``verify-theorem THEOREM``: run a verification campaign; lattice campaigns
  read a corpus (``--in`` or ``--max-size``), ring campaigns take ``--ring``
  or default to the shipped test rings.
* ``ring SPEC``: the full pipeline on one ring.

Campaigns are data: every property, theorem and ring-pipeline stage is one
:class:`Campaign` entry in :data:`CAMPAIGNS`.  An entry names its command,
its population (corpus lattices or rings, or sampled draws tallied per
corpus item), an optional premise whose failure gives a vacuous "holds" row,
and a per-item check that returns the verdict with its ``detail`` or
``counterexample``.  ``check``, ``verify-theorem`` and ``ring`` walk that
table, and the command choices are read off it.

Reports are JSON on stdout (or ``--out``), deterministic for a fixed
(corpus, seed, budget): rerunning a command yields byte-identical output.
Wall-clock time goes to stderr only.  Exit codes: 0 every row holds, 1 some
row fails, 2 budget exhausted somewhere with no failure, 3 operational error
(bad arguments such as a negative ``--budget`` or a ``--max-size`` below 1,
an unreadable corpus or a malformed corpus row, an oversized ring).
"""
from __future__ import annotations

import argparse
import importlib.util
import json
import random
import sys
import time
from typing import TYPE_CHECKING, Callable, Iterable, NamedTuple, Sequence, TextIO

from . import __version__
from .congruence import (
    alternating_chain,
    con_lattice,
    induced_con_map,
    refinement_by_certificate,
)
from .lattice import (
    BoundExceeded,
    FiniteLattice,
    canonical_form,
    boolean,
    chain,
    enumerate_lattice_homs,
    enumerate_lattices,
    has_convex_range,
    is_atomistic,
    is_complemented,
    is_modular,
    is_relatively_complemented,
    is_sectionally_complemented,
    m3,
    n5,
)
from .semilattice import (
    enumerate_semilattice_homs,
    has_refinement_property,
    is_weakly_distributive,
    is_weakly_distributive_at,
    wd_join_combine,
)
from .splitting import (
    SplitInstance,
    has_property_C,
    is_congruence_splitting,
    splitting_from_property_C,
)
from .urp import (
    DEFAULT_SEARCH_BUDGET,
    NoSourceWitness,
    SearchBudgetExceeded,
    UrpInstance,
    canonical_instance,
    csurp_witness,
    first_urp_failure,
    refine_instance,
    search_urp_witness,
    urp_join_combine,
    urp_transfer,
    verify_urp_witness,
)

if TYPE_CHECKING:
    from .regring import FiniteRing


def _lazy_import(name: str):
    """Module ``name``, run on the first read of one of its attributes.

    An entry already in ``sys.modules`` is reused.  Otherwise a module whose
    loader is wrapped in ``importlib.util.LazyLoader`` is registered under
    ``name`` and bound on its parent package, as an import would bind it."""
    module = sys.modules.get(name)
    if module is None:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        module = sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        parent, _, child = name.rpartition(".")
        setattr(sys.modules[parent], child, module)
    return module


# only the ring campaigns read this module, so the lattice commands never run it
regring = _lazy_import(f"{__package__}.regring")

DEFAULT_TRIALS = 10_000

TEST_RINGS: tuple[str, ...] = (
    "M(1,2)",
    "M(1,3)",
    "M(1,2)xM(1,2)",
    "M(2,2)",
    "M(2,3)",
    "M(1,2)xM(2,2)",
    "M(1,2)xM(2,3)",
)

NO_FINITE_COUNTEREXAMPLE = (
    "No finite counterexample to the uniform refinement property was found in "
    "this corpus: every congruence lattice examined satisfies it at every "
    "element.  This is the expected outcome at finite scale; the smallest "
    "known congruence semilattices that fail the property have size at least "
    "aleph-two, so no finite search can exhibit a failure."
)


class UnknownProperty(ValueError):
    pass


class UnknownTheorem(ValueError):
    pass


class ParseError(ValueError):
    """Malformed corpus line."""


class CampaignReport:
    """Machine-readable outcome of one CLI command.

    ``rows`` carry one entry per corpus item (or per ring / pipeline stage);
    verdicts are "holds", "fails", or "budget-exceeded".
    """

    def __init__(
        self,
        command: str,
        params: dict,
        rows: list[dict] | None = None,
        annotations: list[str] | None = None,
    ) -> None:
        self.command = command
        self.params = params
        self.rows = [] if rows is None else rows
        self.annotations = [] if annotations is None else annotations

    def __eq__(self, other: object):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return vars(self) == vars(other)

    def __repr__(self) -> str:
        return (
            f"CampaignReport(command={self.command!r}, params={self.params!r}, "
            f"rows={self.rows!r}, annotations={self.annotations!r})"
        )

    @property
    def summary(self) -> dict[str, int]:
        counts = {"holds": 0, "fails": 0, "budget-exceeded": 0}
        for row in self.rows:
            counts[row["verdict"]] += 1
        return counts

    @property
    def exit_code(self) -> int:
        s = self.summary
        if s["fails"]:
            return 1
        if s["budget-exceeded"]:
            return 2
        return 0

    def to_json(self) -> dict:
        return {
            "tool": "conlat",
            "version": __version__,
            "command": self.command,
            "params": self.params,
            "rows": self.rows,
            "summary": self.summary,
            "annotations": self.annotations,
        }

    def serialize(self) -> str:
        return json.dumps(self.to_json(), indent=2, sort_keys=True) + "\n"


# -- corpus I/O ------------------------------------------------------------------


def write_corpus(lattices: Iterable[FiniteLattice], out: TextIO) -> int:
    count = 0
    for L in lattices:
        obj = L.to_json()
        obj["id"] = canonical_form(L)
        out.write(json.dumps(obj, sort_keys=True) + "\n")
        count += 1
    return count


def read_corpus(path: str) -> list[tuple[str, FiniteLattice]]:
    """The (id, lattice) rows of a corpus.  A row without ``id`` gets its
    canonical code; ids must be strings, and unique because reports tally
    per id."""
    items = []
    first_line: dict[str, int] = {}
    # lines are decoded one by one, so text that is not UTF-8 is a ParseError
    # naming its line; so is JSON nested past the recursion limit
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line.decode("utf-8"))
                L = FiniteLattice.from_json(obj)
                item_id = obj["id"] if "id" in obj else canonical_form(L)
                if not isinstance(item_id, str):
                    raise ValueError(f"id must be a string, got {item_id!r}")
                if item_id in first_line:
                    raise ValueError(f"id {item_id!r} repeats line {first_line[item_id]}")
            except (ValueError, KeyError, TypeError, IndexError, RecursionError) as exc:
                raise ParseError(f"{path}:{lineno}: {exc}") from exc
            first_line[item_id] = lineno
            items.append((item_id, L))
    return items


def default_corpus(max_size: int) -> list[tuple[str, FiniteLattice]]:
    return [(canonical_form(L), L) for L in enumerate_lattices(max_size)]


# -- the campaign table ----------------------------------------------------------


class Campaign(NamedTuple):
    """One campaign, as data.

    ``command`` is the CLI command the entry belongs to: every "check" and
    "verify-theorem" entry is one report, and the "ring" entries are the
    stages of the single-ring pipeline, one row each.  ``population`` says
    what the rows range over: "items" (corpus lattices) or "rings" (ring
    specs).  An item that fails ``premise`` gets a vacuous "holds" row;
    every other item gets ``check(item, budget)``, a row fragment holding
    the verdict with its ``detail`` or ``counterexample``.

    A sampled campaign instead sets ``draws``, which maps the corpus to
    (item id, draw) pairs, and ``trial``, which names the tally a draw adds
    to (or None).  ``trials`` draws are tallied per item under ``tallies``,
    whose first entry counts the draws; here ``check`` is optional and
    returns further exhaustive per-item tallies.  ``annotate`` attaches
    :data:`NO_FINITE_COUNTEREXAMPLE` to a report with no failing row and
    some row that holds by its check.
    """

    id: str
    command: str
    population: str
    check: Callable | None = None
    premise: Callable | None = None
    draws: Callable | None = None
    trial: Callable | None = None
    tallies: tuple[str, ...] = ()
    annotate: bool = False


def _verdict(ok: bool, **fields) -> dict:
    return {"verdict": "holds" if ok else "fails", **fields}


def _decided(failing: tuple | None, counterexample: Callable) -> dict:
    """The row of a decision procedure that returns its first failure, or
    None when the property holds."""
    if failing is None:
        return _verdict(True)
    return _verdict(False, counterexample=counterexample(*failing))


def _urp_everywhere(L: FiniteLattice, budget: int) -> dict:
    con = con_lattice(L)
    try:
        e = first_urp_failure(con, con.masks, budget)
    except SearchBudgetExceeded:
        return {"verdict": "budget-exceeded"}
    return _decided(None if e is None else (e,), lambda e: {"element": e})


def _con_distributive(L: FiniteLattice, _budget: int) -> dict:
    con = con_lattice(L)
    return _decided(
        refinement_by_certificate(con, con.masks).counterexample,
        lambda *eq: dict(zip(("a0", "a1", "b0", "b1"), eq)),
    )


def _join_instances(L: FiniteLattice):
    """Each (u, v, alpha0, alpha1) with u <= v and alpha0 v alpha1 = Theta(u, v)."""
    con = con_lattice(L)
    congs = con.congruences
    for u, v, _, fams in con.join_decompositions():
        for i0, i1 in fams:
            yield u, v, congs[i0], congs[i1]


def _first_failure(instances, failure: Callable) -> dict:
    """The row of a walk over ``instances`` up to the first one ``failure``
    reports: that counterexample, or how many instances were examined."""
    checked = 0
    for inst in instances:
        checked += 1
        bad = failure(*inst)
        if bad:
            return _verdict(False, counterexample=bad)
    return _verdict(True, detail={"instances": checked})


def _splits_constructively(L: FiniteLattice, _budget: int) -> dict:
    con = con_lattice(L)
    jn = L.join_rows

    def failure(a, b, al0, al1):
        x0, x1 = splitting_from_property_C(SplitInstance(L, a, b, al0, al1))
        ok = (
            L.le(a, x0)
            and L.le(x0, b)
            and L.le(a, x1)
            and L.le(x1, b)
            and jn[x0][x1] == b
            and con.congruences[con.principal[a][x0]].refines(al0)
            and con.congruences[con.principal[a][x1]].refines(al1)
        )
        return None if ok else {"a": a, "b": b, "x0": x0, "x1": x1}

    # a validated split on every join instance proves L splits
    return _first_failure(_join_instances(L), failure)


def _property_c_triple(L: FiniteLattice, _budget: int) -> dict:
    return _decided(has_property_C(L).failing, lambda *t: {"triple": list(t)})


def _csurp_witnesses_verify(L: FiniteLattice, _budget: int) -> dict:
    con = con_lattice(L)

    def failure(u, v, eps, fams):
        check = verify_urp_witness(UrpInstance(con, eps, fams), csurp_witness(L, u, v, fams))
        return None if check.ok else {"u": u, "v": v, "clause": check.clause}

    return _first_failure(con.join_decompositions(), failure)


def _chains_label_faithful(L: FiniteLattice, _budget: int) -> dict:
    checked = failures = 0
    for u, v, al0, al1 in _join_instances(L):
        checked += 1
        if not alternating_chain(L, u, v, al0, al1).validate():
            failures += 1
    return {"chains_checked": checked, "chain_failures": failures}


# -- sampled populations and their trials ------------------------------------------


def _convex_homs(items: Sequence[tuple[str, FiniteLattice]]) -> list:
    return [
        (src_id, h)
        for src_id, K in items
        for _, L in items
        for h in enumerate_lattice_homs(K, L)
        if has_convex_range(h)
    ]


def _wd_point_pairs(items) -> list:
    targets = [T for _, T in items if has_refinement_property(T).holds]
    population = []
    for src_id, S in items:
        for T in targets:
            for h in enumerate_semilattice_homs(S, T):
                wd_at = [u for u in range(S.n) if is_weakly_distributive_at(h, u).holds]
                population.extend((src_id, (h, u0, u1)) for u0 in wd_at for u1 in wd_at)
    return population


def _wd_combine(draw, _budget: int) -> None:
    h, u0, u1 = draw
    w0 = is_weakly_distributive_at(h, u0).witness
    w1 = is_weakly_distributive_at(h, u1).witness
    wd_join_combine(h, u0, u1, w0, w1)


def _urp_split_points(items) -> list:
    population = []
    for item_id, L in items:
        if has_refinement_property(L).holds:
            population.extend((item_id, (L, e0, e1)) for e0 in range(L.n) for e1 in range(L.n))
    return population


def _urp_combine(draw, budget: int) -> str | None:
    S, e0, e1 = draw
    combined = canonical_instance(S, S.join_rows[e0][e1])
    i0, i1 = refine_instance(combined, e0, e1)
    w0 = search_urp_witness(i0, budget)
    w1 = search_urp_witness(i1, budget)
    if w0 is None or w1 is None:
        return "failures"
    urp_join_combine(combined, i0, i1, w0, w1)
    return None


def _wd_points(items) -> list:
    return [
        (src_id, (h, u))
        for src_id, S in items
        for _, T in items
        for h in enumerate_semilattice_homs(S, T)
        if is_weakly_distributive(h)
        for u in range(S.n)
    ]


def _urp_pull_back(draw, budget: int) -> None:
    h, u = draw
    urp_transfer(h, u, canonical_instance(h.target, h.map[u]), budget)


# A trial may also end in one of these exceptions, which then names the tally
# its draw adds to; a campaign catches only those whose tally it keeps.
# NoSourceWitness means URP fails at the source point: the premise does not
# apply.
_TRIAL_OUTCOMES = (
    (SearchBudgetExceeded, "budget_exceeded"),
    (NoSourceWitness, "no_source_witness"),
    (AssertionError, "failures"),
)
_FAILURE_TALLIES = ("failures", "wd_failures", "chain_failures")


def _sample(population: list, trials: int, rng: random.Random) -> list:
    if not population:
        return []
    if len(population) >= trials:
        return rng.sample(population, trials)
    return list(population) + rng.choices(population, k=trials - len(population))


def _sampled_rows(c: Campaign, items, budget: int, seed: int, trials: int) -> list[dict]:
    rng = random.Random(seed)
    caught = tuple(exc for exc, tally in _TRIAL_OUTCOMES if tally in c.tallies)
    stats = {item_id: dict.fromkeys(c.tallies, 0) for item_id, _ in items}
    for item_id, draw in _sample(c.draws(items), trials, rng):
        tally = stats[item_id]
        tally[c.tallies[0]] += 1
        try:
            outcome = c.trial(draw, budget)
        except caught as exc:
            outcome = next(t for e, t in _TRIAL_OUTCOMES if isinstance(exc, e))
        if outcome:
            tally[outcome] += 1
    if c.check is not None:
        for item_id, L in items:
            stats[item_id].update(c.check(L, budget))
    rows = []
    for item_id, _ in items:
        tally = stats[item_id]
        if any(tally.get(t) for t in _FAILURE_TALLIES):
            verdict = "fails"
        elif tally.get("budget_exceeded"):
            verdict = "budget-exceeded"
        else:
            verdict = "holds"
        rows.append({"item": item_id, "property": c.id, "verdict": verdict, "detail": tally})
    return rows


# -- ring checks ------------------------------------------------------------------


def _known_lattice_names() -> dict[str, str]:
    names = {canonical_form(m3()): "M3", canonical_form(n5()): "N5"}
    for k in range(1, 9):
        names[canonical_form(chain(k))] = f"{k}-chain"
    for k in range(1, 4):
        names[canonical_form(boolean(k))] = f"2^{k} Boolean"
    return names


def _right_ideal_lattice(R: FiniteRing, _budget: int) -> dict:
    L = regring.principal_right_ideals(R).lattice
    code = canonical_form(L)
    detail = {
        "size": L.n,
        "canonical": code,
        "known-as": _known_lattice_names().get(code, "(unnamed)"),
    }
    return _verdict(is_modular(L) and is_complemented(L), detail=detail)


def _pi_map_checks(R: FiniteRing, _budget: int) -> dict:
    checks = regring.verify_pi_map(R)
    return _verdict(all(checks.values()), detail=checks)


def _universal_quotient(R: FiniteRing) -> bool:
    return regring.max_semilattice_quotient(regring.v_monoid(R).k).verify_universal_property()


def _ring_pi(R: FiniteRing, _budget: int) -> dict:
    checks = regring.verify_pi_map(R)
    universal = _universal_quotient(R)
    detail = {**checks, "k": regring.v_monoid(R).k, "universal-property": universal}
    return _verdict(all(checks.values()) and universal, detail=detail)


CAMPAIGNS: tuple[Campaign, ...] = (
    # check PROPERTY: one decision per corpus lattice
    Campaign(
        "property-c", "check", "items",
        lambda L, _: _decided(has_property_C(L).failing, lambda a, b, c: {"a": a, "b": b, "c": c}),
    ),
    Campaign(
        "cong-splitting", "check", "items",
        lambda L, _: _decided(
            is_congruence_splitting(L).failing,
            lambda a, b, i0, i1: {"a": a, "b": b, "alpha0": i0, "alpha1": i1},
        ),
    ),
    Campaign("urp", "check", "items", _urp_everywhere, annotate=True),
    Campaign("con-distributive", "check", "items", _con_distributive),
    # verify-theorem THEOREM over a corpus
    # prop-a: sectionally or relatively complemented lattices have property (C)
    Campaign(
        "prop-a", "verify-theorem", "items", _property_c_triple,
        premise=lambda L: is_sectionally_complemented(L) or is_relatively_complemented(L),
    ),
    # prop-b: atomistic lattices have property (C)
    Campaign("prop-b", "verify-theorem", "items", _property_c_triple, premise=is_atomistic),
    # prop-d: property (C) implies congruence splitting, constructively
    Campaign(
        "prop-d", "verify-theorem", "items", _splits_constructively,
        premise=lambda L: has_property_C(L).holds,
    ),
    # thm-csurp: Con L of a congruence-splitting L satisfies the uniform
    # refinement property, via the constructed witness
    Campaign(
        "thm-csurp", "verify-theorem", "items", _csurp_witnesses_verify,
        premise=lambda L: is_congruence_splitting(L).holds, annotate=True,
    ),
    # prop-convhom: convex-range lattice homs induce weakly distributive maps
    # on Con; the alternating chain of every join instance validates
    Campaign(
        "prop-convhom", "verify-theorem", "items", _chains_label_faithful,
        draws=_convex_homs,
        trial=lambda h, _: None if is_weakly_distributive(induced_con_map(h)) else "wd_failures",
        tallies=("homs_checked", "wd_failures"),
    ),
    # lem-wdadd: weak distributivity is closed under join
    Campaign(
        "lem-wdadd", "verify-theorem", "items",
        draws=_wd_point_pairs, trial=_wd_combine, tallies=("combined", "failures"),
    ),
    # prop-urpadd: URP is closed under join: split the canonical instance at
    # e0 + e1, solve both halves, recombine, validate
    Campaign(
        "prop-urpadd", "verify-theorem", "items",
        draws=_urp_split_points, trial=_urp_combine,
        tallies=("combined", "failures", "budget_exceeded"),
    ),
    # prop-urpclwd: URP transfers along weakly distributive maps: pull the
    # instance back, solve at the source, push forward
    Campaign(
        "prop-urpclwd", "verify-theorem", "items",
        draws=_wd_points, trial=_urp_pull_back,
        tallies=("transfers", "failures", "budget_exceeded", "no_source_witness"),
    ),
    # verify-theorem THEOREM over rings
    Campaign(
        "ring-nid-id", "verify-theorem", "rings",
        lambda R, _: _verdict(regring.verify_nid_id_iso(R) and regring.neutral_iff_iso_closed(R)),
    ),
    Campaign(
        "ring-conc-idc", "verify-theorem", "rings", lambda R, _: _verdict(regring.conc_idc_iso(R))
    ),
    Campaign("ring-pi", "verify-theorem", "rings", _ring_pi),
    # ring SPEC: the pipeline stages, in order; a non-regular ring stops it
    Campaign("regular", "ring", "rings", lambda R, _: _verdict(regring.is_regular(R).holds)),
    Campaign("principal-right-ideals", "ring", "rings", _right_ideal_lattice),
    Campaign(
        "two-sided-ideals", "ring", "rings",
        lambda R, _: _verdict(True, detail={"size": regring.two_sided_ideals(R).lattice.n}),
    ),
    Campaign(
        "v-monoid", "ring", "rings",
        lambda R, _: _verdict(True, detail={"k": regring.v_monoid(R).k}),
    ),
    Campaign("nid-id-iso", "ring", "rings", lambda R, _: _verdict(regring.verify_nid_id_iso(R))),
    Campaign(
        "neutral-iff-iso-closed", "ring", "rings",
        lambda R, _: _verdict(regring.neutral_iff_iso_closed(R)),
    ),
    Campaign("conc-idc-iso", "ring", "rings", lambda R, _: _verdict(regring.conc_idc_iso(R))),
    Campaign("pi-map", "ring", "rings", _pi_map_checks),
    Campaign(
        "max-semilattice-quotient", "ring", "rings", lambda R, _: _verdict(_universal_quotient(R))
    ),
)

_CHECKS = {c.id: c for c in CAMPAIGNS if c.command == "check"}
_THEOREMS = {c.id: c for c in CAMPAIGNS if c.command == "verify-theorem"}
_STAGES = tuple(c for c in CAMPAIGNS if c.command == "ring")
PROPERTY_IDS = tuple(_CHECKS)
THEOREM_IDS = tuple(_THEOREMS)
RING_THEOREMS = tuple(t for t, c in _THEOREMS.items() if c.population == "rings")


# -- walking the table --------------------------------------------------------------


_VACUOUS = "premise does not apply"


def _rows(c: Campaign, population, budget: int, seed: int = 0, trials: int = 0) -> list[dict]:
    if c.draws is not None:
        return _sampled_rows(c, population, budget, seed, trials)
    rows = []
    for item_id, x in population:
        if c.premise is not None and not c.premise(x):
            fragment = {"verdict": "holds", "detail": _VACUOUS}
        else:
            fragment = c.check(x, budget)
        rows.append({"item": item_id, "property": c.id, **fragment})
    return rows


def _report(c: Campaign, params: dict, rows: list[dict]) -> CampaignReport:
    report = CampaignReport(c.command, params, rows)
    # the note speaks of the lattices examined: an empty corpus, vacuous rows
    # and budget-exceeded rows examine none
    examined = any(r["verdict"] == "holds" and r.get("detail") != _VACUOUS for r in rows)
    if c.annotate and examined and not report.summary["fails"]:
        report.annotations.append(NO_FINITE_COUNTEREXAMPLE)
    return report


def campaign_check(
    property_id: str,
    items: Sequence[tuple[str, FiniteLattice]],
    budget: int = DEFAULT_SEARCH_BUDGET,
) -> CampaignReport:
    if property_id not in _CHECKS:
        raise UnknownProperty(property_id)
    c = _CHECKS[property_id]
    params = {"property": property_id, "items": len(items), "budget": budget}
    return _report(c, params, _rows(c, items, budget))


def campaign_theorem(
    theorem_id: str,
    items: Sequence[tuple[str, FiniteLattice]] | None = None,
    rings: Sequence[str] | None = None,
    budget: int = DEFAULT_SEARCH_BUDGET,
    seed: int = 0,
    trials: int = DEFAULT_TRIALS,
) -> CampaignReport:
    if theorem_id not in _THEOREMS:
        raise UnknownTheorem(theorem_id)
    c = _THEOREMS[theorem_id]
    params: dict = {"theorem": theorem_id, "budget": budget, "seed": seed}
    if c.population == "rings":
        specs = tuple(rings) if rings else TEST_RINGS
        params["rings"] = list(specs)
        population = ((spec, regring.FiniteRing.from_matrix_spec(spec)) for spec in specs)
    else:
        population = items if items is not None else default_corpus(5)
        params["items"] = len(population)
        params["trials"] = trials
    return _report(c, params, _rows(c, population, budget, seed, trials))


def campaign_ring(spec: str) -> CampaignReport:
    R = regring.FiniteRing.from_matrix_spec(spec)
    report = CampaignReport("ring", {"spec": spec, "size": R.n})
    for stage in _STAGES:
        report.rows.extend(_rows(stage, [(spec, R)], DEFAULT_SEARCH_BUDGET))
        if stage.id == "regular" and report.rows[-1]["verdict"] == "fails":
            break  # every later stage needs a regular ring
    return report


# -- argument parsing ------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage, which collides with the
    budget-exceeded code; route usage errors to 3 instead."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        raise SystemExit(self._operational_exit(message))

    def _operational_exit(self, message: str) -> int:
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        return 3


def _at_least(text: str, low: int, what: str) -> int:
    value = int(text)
    if value < low:
        raise argparse.ArgumentTypeError(f"{what} must be at least {low}, got {value}")
    return value


def _budget(text: str) -> int:
    return _at_least(text, 0, "budget")


def _max_size(text: str) -> int:
    return _at_least(text, 1, "max-size")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="conlat", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"conlat {__version__}")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("gen-corpus", help="enumerate lattices to a JSONL corpus")
    p.add_argument("--max-size", type=_max_size, required=True)
    p.add_argument("--out", default="-", help="output path (default stdout)")

    p = sub.add_parser("check", help="run a per-lattice property check")
    p.add_argument("property", choices=PROPERTY_IDS)
    p.add_argument("--in", dest="in_path", help="JSONL corpus path")
    p.add_argument("--max-size", type=_max_size, help="generate the corpus in memory")
    p.add_argument("--budget", type=_budget, default=DEFAULT_SEARCH_BUDGET)
    p.add_argument("--out", default="-")

    p = sub.add_parser("verify-theorem", help="run a verification campaign")
    p.add_argument("theorem", choices=THEOREM_IDS)
    p.add_argument("--in", dest="in_path")
    p.add_argument("--max-size", type=_max_size)
    p.add_argument("--ring", action="append", help="ring spec (repeatable)")
    p.add_argument("--budget", type=_budget, default=DEFAULT_SEARCH_BUDGET)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="-")

    p = sub.add_parser("ring", help="full pipeline on one ring")
    p.add_argument("spec")
    p.add_argument("--out", default="-")
    return parser


def _emit(report: CampaignReport, out_path: str, started: float) -> int:
    text = report.serialize()
    if out_path == "-":
        sys.stdout.write(text)
    else:
        with open(out_path, "w") as fh:
            fh.write(text)
    print(f"elapsed: {time.time() - started:.2f}s", file=sys.stderr)
    return report.exit_code


def _load_items(args) -> list[tuple[str, FiniteLattice]]:
    if args.in_path:
        return read_corpus(args.in_path)
    if args.max_size is not None:
        return default_corpus(args.max_size)
    return default_corpus(5)


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    started = time.time()
    try:
        if args.command == "gen-corpus":
            lattices = enumerate_lattices(args.max_size)
            if args.out == "-":
                count = write_corpus(lattices, sys.stdout)
            else:
                with open(args.out, "w") as fh:
                    count = write_corpus(lattices, fh)
            print(f"wrote {count} lattices", file=sys.stderr)
            print(f"elapsed: {time.time() - started:.2f}s", file=sys.stderr)
            return 0
        if args.command == "check":
            report = campaign_check(args.property, _load_items(args), args.budget)
            return _emit(report, args.out, started)
        if args.command == "verify-theorem":
            items = None
            if args.theorem not in RING_THEOREMS:
                items = _load_items(args)
            report = campaign_theorem(
                args.theorem,
                items=items,
                rings=args.ring,
                budget=args.budget,
                seed=args.seed,
            )
            return _emit(report, args.out, started)
        if args.command == "ring":
            report = campaign_ring(args.spec)
            return _emit(report, args.out, started)
        raise AssertionError(f"unhandled command {args.command}")
    except (
        OSError,
        ParseError,
        UnknownProperty,
        UnknownTheorem,
        BoundExceeded,
        regring.SpecParse,
        regring.RingTooLarge,
    ) as exc:
        print(f"conlat: error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
