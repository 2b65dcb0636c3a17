"""Command-line front end: corpora, campaigns, reports, exit codes."""
from __future__ import annotations

import io
import json
import os
import subprocess
import sys

import pytest

import conlat
from conlat import chain, con_lattice, is_congruence_splitting, regring
from conlat.lattice import canonical_form, enumerate_lattices
from conlat.cli import (
    DEFAULT_TRIALS,
    NO_FINITE_COUNTEREXAMPLE,
    campaign_check,
    campaign_ring,
    campaign_theorem,
    default_corpus,
    main,
    read_corpus,
    write_corpus,
)


def run(capsys, *argv):
    # argparse usage errors surface as SystemExit(3) rather than a return
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr()
    return code, out.out, out.err


# ---------------------------------------------------------------------------
# gen-corpus


def test_write_corpus_builds_no_lattice_tables():
    # a corpus row needs the covers and the canonical code only
    seen = []

    def kept():
        for L in enumerate_lattices(8, bound=8):
            seen.append(L)
            yield L

    assert write_corpus(kept(), io.StringIO()) == len(seen) == 300
    assert not any("join_rows" in L.__dict__ or "meet_rows" in L.__dict__ for L in seen)


def test_gen_corpus_counts(tmp_path, capsys):
    out = tmp_path / "c4.jsonl"
    code, _, _ = run(capsys, "gen-corpus", "--max-size", "4", "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 5
    for line in lines:
        row = json.loads(line)
        assert set(row) == {"id", "n", "covers"}


def test_gen_corpus_single(tmp_path, capsys):
    out = tmp_path / "c1.jsonl"
    code, _, _ = run(capsys, "gen-corpus", "--max-size", "1", "--out", str(out))
    assert code == 0
    assert len(out.read_text().splitlines()) == 1


def test_gen_corpus_respects_bound(tmp_path, capsys):
    out = tmp_path / "c9.jsonl"
    code, _, err = run(
        capsys, "gen-corpus", "--max-size", "9", "--out", str(out)
    )
    assert code == 3


def test_gen_corpus_unwritable(capsys):
    code, _, _ = run(
        capsys, "gen-corpus", "--max-size", "3", "--out", "/nonexistent/x.jsonl"
    )
    assert code == 3


def test_corpus_round_trip(tmp_path, capsys):
    out = tmp_path / "c5.jsonl"
    run(capsys, "gen-corpus", "--max-size", "5", "--out", str(out))
    items = read_corpus(str(out))
    assert len(items) == 10
    # reconstruction preserves the isomorphism class recorded in the id
    for item_id, L in items:
        assert canonical_form(L) == item_id


def test_read_corpus_codes_only_rows_without_id(tmp_path, monkeypatch):
    import conlat.cli

    calls = []

    def counting(L):
        calls.append(L)
        return canonical_form(L)

    monkeypatch.setattr(conlat.cli, "canonical_form", counting)
    path = tmp_path / "c.jsonl"
    path.write_text(
        '{"id": "given", "n": 2, "covers": [[0, 1]]}\n{"n": 2, "covers": [[0, 1]]}\n'
    )
    ids = [item_id for item_id, _ in read_corpus(str(path))]
    assert ids == ["given", "2:b"]
    assert len(calls) == 1


# ---------------------------------------------------------------------------
# check


def test_check_exit_zero_when_all_hold(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    run(capsys, "gen-corpus", "--max-size", "4", "--out", str(corpus))
    code, out, _ = run(capsys, "check", "con-distributive", "--in", str(corpus))
    assert code == 0
    report = json.loads(out)
    assert report["summary"]["fails"] == 0
    assert len(report["rows"]) == 5


def test_check_property_c_on_m3(tmp_path, capsys):
    corpus = tmp_path / "m3.jsonl"
    corpus.write_text(
        json.dumps(
            {
                "id": "m3",
                "n": 5,
                "covers": [[0, 1], [0, 2], [0, 3], [1, 4], [2, 4], [3, 4]],
            }
        )
        + "\n"
    )
    code, out, _ = run(capsys, "check", "property-c", "--in", str(corpus))
    assert code == 0
    report = json.loads(out)
    assert report["rows"][0]["verdict"] == "holds"


def test_check_violation_sets_exit_one(tmp_path, capsys):
    corpus = tmp_path / "chain3.jsonl"
    corpus.write_text(
        json.dumps({"id": "c3", "n": 3, "covers": [[0, 1], [1, 2]]}) + "\n"
    )
    code, out, _ = run(capsys, "check", "property-c", "--in", str(corpus))
    assert code == 1
    report = json.loads(out)
    assert report["rows"][0]["verdict"] == "fails"


def test_check_tiny_budget_exit_two(capsys):
    code, out, _ = run(capsys, "verify-theorem", "prop-urpadd", "--budget", "3")
    assert code == 2
    report = json.loads(out)
    assert report["summary"]["budget-exceeded"] == 7
    assert report["summary"]["fails"] == 0


def test_check_urp_on_the_9_chain_holds_at_budget_zero():
    # Con of the 9-chain, the Boolean lattice 2^8, is decided by its
    # certificate with no search; its top alone has 3^8 pairs
    items = [("c9", chain(9))]
    S = con_lattice(items[0][1])
    assert len(S.decompositions(S.top)) == 3**8
    report = campaign_check("urp", items, 0)
    assert report.rows[0]["verdict"] == "holds"
    assert report.exit_code == 0


def test_check_unknown_property(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    run(capsys, "gen-corpus", "--max-size", "3", "--out", str(corpus))
    code, _, _ = run(capsys, "check", "flatness", "--in", str(corpus))
    assert code == 3


def test_check_malformed_corpus(tmp_path, capsys):
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text("not json\n")
    code, _, _ = run(capsys, "check", "urp", "--in", str(corpus))
    assert code == 3


def test_check_out_of_range_cover_exits_three(tmp_path, capsys):
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text(json.dumps({"n": 3, "covers": [[0, 1], [1, 7]]}) + "\n")
    code, out, err = run(capsys, "check", "property-c", "--in", str(corpus))
    assert code == 3
    assert out == ""
    assert "bad.jsonl:1" in err


def test_check_oversized_row_exits_three(tmp_path, capsys):
    # a million elements cannot be connected by one cover: rejected before
    # any n x n table is built
    corpus = tmp_path / "big.jsonl"
    corpus.write_text(json.dumps({"n": 1000000, "covers": [[0, 1]]}) + "\n")
    code, out, err = run(capsys, "check", "property-c", "--in", str(corpus))
    assert code == 3
    assert out == ""
    assert "big.jsonl:1" in err


def test_check_corpus_that_is_not_utf8_exits_three(tmp_path, capsys):
    corpus = tmp_path / "bad.jsonl"
    row = json.dumps({"n": 1, "covers": []}).encode()
    corpus.write_bytes(row + b"\n" + b"\xff\xfe\n")
    code, out, err = run(capsys, "check", "urp", "--in", str(corpus))
    assert code == 3
    assert out == ""
    assert "bad.jsonl:2" in err


@pytest.mark.parametrize(
    "row",
    [
        {"n": True, "covers": []},
        {"n": 2, "covers": [[0, True]]},
        {"n": 2.5, "covers": [[0, 1]]},
        {"n": 2, "covers": [[0, 1.0]]},
    ],
    ids=["bool-size", "bool-endpoint", "fractional-size", "float-endpoint"],
)
def test_check_non_integer_size_or_endpoint_exits_three(tmp_path, capsys, row):
    corpus = tmp_path / "bad.jsonl"
    corpus.write_text(json.dumps(row) + "\n")
    code, out, err = run(capsys, "check", "urp", "--in", str(corpus))
    assert code == 3
    assert out == ""
    assert "bad.jsonl:1" in err
    assert "not an integer" in err


def test_negative_budget_is_a_usage_error(capsys):
    for command in (("check", "urp"), ("verify-theorem", "prop-urpadd")):
        code, out, err = run(capsys, *command, "--max-size", "3", "--budget", "-5")
        assert code == 3
        assert out == ""
        assert "budget" in err
    # zero stays a valid budget: every search runs out at once
    code, out, _ = run(
        capsys, "verify-theorem", "prop-urpadd", "--max-size", "3", "--budget", "0"
    )
    assert code == 2
    assert json.loads(out)["params"]["budget"] == 0


@pytest.mark.parametrize(
    "command", [("gen-corpus",), ("check", "urp"), ("verify-theorem", "prop-d")]
)
@pytest.mark.parametrize("size", ["0", "-3"])
def test_max_size_below_one_is_a_usage_error(capsys, command, size):
    code, out, err = run(capsys, *command, "--max-size", size)
    assert code == 3
    assert out == ""
    assert "max-size must be at least 1" in err


@pytest.mark.parametrize(
    "item_id", [5, None, True, {"a": 1}, [1, 2]], ids=["int", "null", "bool", "object", "list"]
)
def test_non_string_id_exits_three(tmp_path, capsys, item_id):
    # a list id used to reach the hom tallies of prop-convhom and die there
    # with TypeError (exit 1); the others were copied into the report
    corpus = tmp_path / "bad.jsonl"
    rows = [{"id": "ok", "n": 1, "covers": []}, {"id": item_id, "n": 2, "covers": [[0, 1]]}]
    corpus.write_text("".join(json.dumps(row) + "\n" for row in rows))
    for command in (("check", "urp"), ("verify-theorem", "prop-convhom")):
        code, out, err = run(capsys, *command, "--in", str(corpus))
        assert code == 3
        assert out == ""
        assert "bad.jsonl:2" in err
        assert "id must be a string" in err


def test_repeated_id_exits_three(tmp_path, capsys):
    # two rows under one id used to share one tally: the rows of the 2-chain
    # and the 3-chain both reported the 3-chain's 18 chains and all 10,000 homs
    corpus = tmp_path / "twice.jsonl"
    corpus.write_text(
        json.dumps({"id": "a", "n": 2, "covers": [[0, 1]]})
        + "\n\n"
        + json.dumps({"id": "a", "n": 3, "covers": [[0, 1], [1, 2]]})
        + "\n"
    )
    code, out, err = run(capsys, "verify-theorem", "prop-convhom", "--in", str(corpus))
    assert code == 3
    assert out == ""
    assert "twice.jsonl:3" in err
    assert "repeats line 1" in err


@pytest.mark.parametrize(
    "command", [("check", "urp"), ("verify-theorem", "prop-a")], ids=["check", "verify-theorem"]
)
def test_deeply_nested_row_exits_three(tmp_path, capsys, command):
    # json.loads used to raise RecursionError, which escaped as a traceback
    # and exit 1, the code of a failing row
    corpus = tmp_path / "deep.jsonl"
    corpus.write_text(json.dumps({"n": 1, "covers": []}) + "\n" + "[" * 3000 + "\n")
    code, out, err = run(capsys, *command, "--in", str(corpus))
    assert code == 3
    assert out == ""
    assert "deep.jsonl:2" in err


def test_distinct_ids_keep_their_own_tallies(tmp_path, capsys):
    corpus = tmp_path / "c.jsonl"
    corpus.write_text(
        json.dumps({"id": "a", "n": 2, "covers": [[0, 1]]})
        + "\n"
        + json.dumps({"id": "b", "n": 3, "covers": [[0, 1], [1, 2]]})
        + "\n"
    )
    code, out, _ = run(capsys, "verify-theorem", "prop-convhom", "--in", str(corpus))
    assert code == 0
    chains = [row["detail"]["chains_checked"] for row in json.loads(out)["rows"]]
    assert chains == [5, 18]


# ---------------------------------------------------------------------------
# verify-theorem


def test_verify_prop_d(tmp_path, capsys):
    corpus = tmp_path / "c4.jsonl"
    run(capsys, "gen-corpus", "--max-size", "4", "--out", str(corpus))
    code, out, _ = run(capsys, "verify-theorem", "prop-d", "--in", str(corpus))
    assert code == 0
    assert json.loads(out)["summary"]["fails"] == 0


def test_verify_csurp_includes_annotation(tmp_path, capsys):
    corpus = tmp_path / "c4.jsonl"
    run(capsys, "gen-corpus", "--max-size", "4", "--out", str(corpus))
    code, out, _ = run(
        capsys, "verify-theorem", "thm-csurp", "--in", str(corpus)
    )
    assert code == 0
    report = json.loads(out)
    assert NO_FINITE_COUNTEREXAMPLE in report["annotations"]


def test_empty_corpus_gets_no_counterexample_note(tmp_path, capsys):
    corpus = tmp_path / "empty.jsonl"
    corpus.write_text("")
    code, out, _ = run(capsys, "check", "urp", "--in", str(corpus))
    assert code == 0
    report = json.loads(out)
    assert report["rows"] == []
    assert report["annotations"] == []


def test_vacuous_csurp_report_gets_no_counterexample_note(tmp_path, capsys):
    # every lattice up to size 6 that is not congruence-splitting: thm-csurp's
    # premise fails on each row, so no congruence lattice is examined
    lattices = [L for L in enumerate_lattices(6) if not is_congruence_splitting(L).holds]
    assert len(lattices) == 15
    corpus = tmp_path / "vacuous.jsonl"
    with open(corpus, "w") as fh:
        write_corpus(lattices, fh)
    code, out, _ = run(capsys, "verify-theorem", "thm-csurp", "--in", str(corpus))
    assert code == 0
    report = json.loads(out)
    assert {row["detail"] for row in report["rows"]} == {"premise does not apply"}
    assert report["annotations"] == []


def test_verify_ring_theorem(capsys):
    code, out, _ = run(
        capsys, "verify-theorem", "ring-nid-id", "--ring", "M(2,2)"
    )
    assert code == 0
    report = json.loads(out)
    assert report["rows"][0]["item"] == "M(2,2)"
    assert report["summary"]["fails"] == 0


def test_verify_unknown_theorem(capsys):
    code, _, _ = run(capsys, "verify-theorem", "fermat")
    assert code == 3


# ---------------------------------------------------------------------------
# ring


def test_ring_field(capsys):
    code, out, _ = run(capsys, "ring", "M(1,2)")
    assert code == 0
    report = json.loads(out)
    by_prop = {r["property"]: r for r in report["rows"]}
    assert by_prop["v-monoid"]["detail"]["k"] == 1
    assert by_prop["two-sided-ideals"]["detail"]["size"] == 2


def test_ring_m2f2_reports_m3(capsys):
    code, out, _ = run(capsys, "ring", "M(2,2)")
    assert code == 0
    report = json.loads(out)
    by_prop = {r["property"]: r for r in report["rows"]}
    assert by_prop["principal-right-ideals"]["detail"]["known-as"] == "M3"


def test_ring_too_large(capsys):
    code, _, _ = run(capsys, "ring", "M(9,2)")
    assert code == 3


def test_ring_bad_spec(capsys):
    code, _, _ = run(capsys, "ring", "M(2,6)")
    assert code == 3


def _ring_subprocess(spec: str) -> subprocess.CompletedProcess:
    # a subprocess, so that a spec that is not rejected at once times out
    src = os.path.dirname(os.path.dirname(conlat.__file__))
    return subprocess.run(
        [sys.executable, "-m", "conlat.cli", "ring", spec],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        timeout=30,
    )


def test_ring_huge_prime_exits_three_before_the_primality_test():
    # trial division up to the square root of 2^61 - 1 would not finish
    out = _ring_subprocess("M(1,2305843009213693951)")
    assert out.returncode == 3
    assert "more than 16384 elements" in out.stderr


def test_ring_spec_with_thousands_of_digits_exits_three(capsys):
    code, _, _ = run(capsys, "ring", f"M(1,{'7' * 5000})")
    assert code == 3


def test_ring_huge_matrix_size_exits_three_before_the_power():
    # 2^(10^10) would need about 1.25 GB as one integer
    out = _ring_subprocess("M(100000,2)")
    assert out.returncode == 3
    assert "more than 16384 elements" in out.stderr


# ---------------------------------------------------------------------------
# determinism


def test_reports_are_deterministic(tmp_path, capsys):
    corpus = tmp_path / "c4.jsonl"
    run(capsys, "gen-corpus", "--max-size", "4", "--out", str(corpus))
    args = (
        "verify-theorem",
        "prop-convhom",
        "--in",
        str(corpus),
        "--seed",
        "1",
    )
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_seed_changes_sampled_campaigns(tmp_path, capsys):
    corpus = tmp_path / "c4.jsonl"
    run(capsys, "gen-corpus", "--max-size", "4", "--out", str(corpus))
    base = ("verify-theorem", "lem-wdadd", "--in", str(corpus))
    _, out0, _ = run(capsys, *base, "--seed", "0")
    _, out5, _ = run(capsys, *base, "--seed", "5")
    # seeds steer the sampled inputs; summaries still report zero failures
    assert json.loads(out0)["summary"]["fails"] == 0
    assert json.loads(out5)["summary"]["fails"] == 0
    assert json.loads(out0)["params"]["seed"] == 0
    assert json.loads(out5)["params"]["seed"] == 5


def test_elapsed_goes_to_stderr_only(tmp_path, capsys):
    corpus = tmp_path / "c3.jsonl"
    run(capsys, "gen-corpus", "--max-size", "3", "--out", str(corpus))
    _, out, err = run(capsys, "check", "urp", "--in", str(corpus))
    assert "elapsed" in err
    assert "elapsed" not in out


# ---------------------------------------------------------------------------
# library-level campaign helpers


def test_default_corpus_matches_gen(tmp_path, capsys):
    items = default_corpus(4)
    assert len(items) == 5


def test_campaign_row_count_invariant():
    items = default_corpus(4)
    for pid in ("property-c", "cong-splitting", "urp", "con-distributive"):
        rep = campaign_check(pid, items)
        assert len(rep.rows) == len(items)
        for row in rep.rows:
            assert row["verdict"] in {"holds", "fails", "budget-exceeded"}


def test_campaign_theorem_accepts_trials():
    rep = campaign_theorem("lem-wdadd", default_corpus(3), trials=25)
    assert rep.params["trials"] == 25
    assert rep.summary["fails"] == 0


def test_campaign_ring_pipeline_order():
    rep = campaign_ring("M(1,3)")
    props = [r["property"] for r in rep.rows]
    assert props[0] == "regular"
    assert "pi-map" in props and "max-semilattice-quotient" in props


def test_campaign_ring_scans_for_regularity_once(monkeypatch):
    calls = []
    is_regular = regring.is_regular

    def counted(R):
        calls.append(R)
        return is_regular(R)

    monkeypatch.setattr(regring, "is_regular", counted)
    campaign_ring("M(1,2)xM(2,2)")
    assert len(calls) == 1


def test_default_trials_constant():
    assert DEFAULT_TRIALS == 10_000


def test_import_does_not_load_numpy():
    # the package is integer-only and declares no numpy dependency
    src = os.path.dirname(os.path.dirname(conlat.__file__))
    probe = "import sys, conlat.cli; print('numpy' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "False\n"


def test_small_commands_do_not_load_multiprocessing():
    # only enumerations with a level of _POOL_MIN_PARENTS parents start a
    # worker pool; the largest level up to size 8 has 53
    src = os.path.dirname(os.path.dirname(conlat.__file__))
    probe = (
        "import os, sys\n"
        "from conlat.cli import main\n"
        "assert main(['gen-corpus', '--max-size', '8', '--out', os.devnull]) == 0\n"
        "assert main(['check', 'urp', '--max-size', '6', '--out', os.devnull]) == 0\n"
        "assert main(['ring', 'M(1,2)', '--out', os.devnull]) == 0\n"
        "print('multiprocessing' in sys.modules)\n"
    )
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout == "False\n"
