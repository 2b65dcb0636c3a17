"""Pinned SHA-256 digests of campaign reports.

Every report is deterministic for a fixed (corpus, seed, trials, budget), so
its serialized bytes are pinned here: a change to a campaign's rows, detail
counters, sampling order or annotations shows up as a digest mismatch.  The
corpus is every lattice with at most 5 elements, which includes M3 and N5 and
therefore the failing rows of property-c and cong-splitting.
"""
from __future__ import annotations

import hashlib
from functools import lru_cache

import pytest

from conlat.cli import (
    PROPERTY_IDS,
    RING_THEOREMS,
    THEOREM_IDS,
    campaign_check,
    campaign_ring,
    campaign_theorem,
    default_corpus,
)

RINGS = ["M(1,2)", "M(2,2)", "M(1,2)xM(1,2)"]

GOLDEN = [
    ("check", "property-c", "db56b7aba5fd9ef3e775ba276b8208c9eb7bd59a536e0537dddfa80a93758615"),
    ("check", "cong-splitting", "111f497870774dfe01f7f822e1efbe0ef86e9391487f131875a00c8ffd0a3864"),
    ("check", "urp", "8545380fe36d71987d7c5fe1c63f428bc0ed3f302604f361be9fd474cda2e071"),
    ("check", "con-distributive", "9856e02637755961234df2d5986d86484d60b4e6cfbb0ce641df4bbc93ad262f"),
    ("verify-theorem", "prop-a", "236b4cf637fcaa8ee3c4e6f74a5ac5486c9dbe08a7f7de2b58145dbf9877cc6f"),
    ("verify-theorem", "prop-b", "a3121830b4d66bf73df9b199bcdba19cd1a30ee5a3e9f7764e3ce534263e600f"),
    ("verify-theorem", "prop-d", "03477a7b539fe69213e6a012bcf7df3f8597a9e98722fadb7dc5f5dc2a701638"),
    ("verify-theorem", "thm-csurp", "47d156dfc7e27539ceb3ec56da5ffa52490f4573f8e9140e0dba84d9b72e40f7"),
    ("verify-theorem", "prop-convhom", "6949ef31463c53322878d2f8686de60b357955c75e6cb69597c86b054b6472e2"),
    ("verify-theorem", "lem-wdadd", "218a6c0a4d3e11c6187a274770027728e40da9732f318d496660c1289426133e"),
    ("verify-theorem", "prop-urpadd", "0dba1bc7228c9624a92b59fa9b2f185ae7bbb3eca00e63f12e27911a82fcb922"),
    ("verify-theorem", "prop-urpclwd", "a8f2e0bf46d65e0560123a34e0cf7466626c5403228cea09bb846f2c0d56bf16"),
    ("verify-theorem", "ring-nid-id", "2c4c66a4bbd2e46a200d17a7bc1cb62f95bafdf3d7b6e8dff807660d36e26b26"),
    ("verify-theorem", "ring-conc-idc", "76b33f197062acf7154da8cdccf44af2913bf177ce142fdee2426101655d9016"),
    ("verify-theorem", "ring-pi", "ed1677191809ac8d8fbb3c4aca07a2b36cc5df0ef511b80a58f67efae4cb6aac"),
    ("ring", "M(1,2)", "387dafb0ff4233ed4e70c8cb0735d4f91790c0c4d8579e02e30fe93cc69ba3c7"),
    ("ring", "M(2,2)", "7ff913ceed3bf60df37739486f24e189d08264561328643378278b75adfb8f81"),
    ("ring", "M(1,2)xM(1,2)", "7e43ce1d7c2dd6a6a11f6f79d775e94ff0f1a27378740c6343e7da2f65d90a70"),
]


# check urp and check con-distributive on every lattice with at most 7
# elements, past the size-6 inputs of the benchmark.  Pinned from the
# verifier that checks all m^3 index triples and the refinement search that
# sorts its candidates on every call, which took 85 s and 29 s on a 2-core
# Xeon.
GOLDEN_7 = [
    ("urp", "b15675b2482d617758cd2e05e4a64f2e1a90ae876ede89ddd4bc076b11480860"),
    ("con-distributive", "9458b822977158318ee47afcd19a20fc708a449edb57b1809c51eeee59f7ae75"),
]


# the campaigns built on property (C) chains, on every lattice with at most 8
# elements, and prop-convhom, whose detail counts alternating chains, at
# most 6 with seed 0.  Pinned from the construction that ran a BFS for every
# prefix of a chain and built alternating chains by BFS and monotonization.
GOLDEN_CHAINS = [
    ("check", "property-c", 8, "ccbab2e94135e2691bdb8fd6f7805674345463b6a3ca76a9a94ab8d62249d3db"),
    ("verify-theorem", "prop-a", 8, "837e0e96b98e01f32fd06e24397148fb40ccd482a77001a1a408047b5166dc38"),
    ("verify-theorem", "prop-b", 8, "3b157ddd810e86dcbaff5ff8e61fd1315c126dfcc7df48541a52ef90f549e18b"),
    ("verify-theorem", "prop-d", 8, "b4732194aaa7281b4e6730d2201f763aca61b11c603c9c55f1fb4ff5de16b9f8"),
    pytest.param(
        "verify-theorem", "prop-convhom", 6,
        "cafffcadd315aadccc8d24af41dea6d3f5229566243c6c9cc1e92b84dd623ff2",
        marks=pytest.mark.slow,
    ),
]


# ring reports past the pinned rings, and the two neutral-ideal theorems on
# the 512-element M(3,2) and on M(1,2)^5.  Pinned from the perspectivity scan
# per pair of elements and the closure per neutral ideal.
M12_5 = "x".join(["M(1,2)"] * 5)
GOLDEN_RINGS = [
    ("ring", "M(1,2)xM(2,3)", "99564167649e76e7fbc08c6583417778a3d68fb15098011836cab1faff7079d9"),
    ("ring", "M(3,2)", "3de73f5fe48c58959bbfd4969f7886f5bddd78be3008a57a343803dbcd940ad0"),
    ("ring", M12_5, "1aea79b9872760f1e9f7efeb593b1801a2252dd1d777875f90dd01a54452b72e"),
    ("verify-theorem", "ring-nid-id", "7cbb6805b58fce8b942f36d3b464e7add906bffaf6af09f670d952c4c2f75289"),
    ("verify-theorem", "ring-conc-idc", "ec717ca3e43a6ef7474a32045c42724199ab81a7d025ac5469da2f34cd03f212"),
]


@lru_cache(maxsize=None)
def _corpus(max_size):
    return default_corpus(max_size)


def _report(command, target):
    if command == "check":
        return campaign_check(target, _corpus(5))
    if command == "ring":
        return campaign_ring(target)
    if target in RING_THEOREMS:
        return campaign_theorem(target, rings=RINGS)
    return campaign_theorem(target, _corpus(5), seed=0, trials=500)


def test_golden_covers_every_campaign():
    pinned = [(c, t) for c, t, _ in GOLDEN]
    expected = (
        [("check", p) for p in PROPERTY_IDS]
        + [("verify-theorem", t) for t in THEOREM_IDS]
        + [("ring", r) for r in RINGS]
    )
    assert sorted(pinned) == sorted(expected)


@pytest.mark.parametrize(
    "command,target,digest", GOLDEN, ids=[f"{c}:{t}" for c, t, _ in GOLDEN]
)
def test_report_bytes_are_pinned(command, target, digest):
    text = _report(command, target).serialize()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.slow
@pytest.mark.parametrize("prop,digest", GOLDEN_7, ids=[p for p, _ in GOLDEN_7])
def test_size_7_report_bytes_are_pinned(prop, digest):
    text = campaign_check(prop, _corpus(7)).serialize()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "command,target,max_size,digest",
    GOLDEN_CHAINS,
    ids=["check:property-c", "prop-a", "prop-b", "prop-d", "prop-convhom"],
)
def test_chain_campaign_bytes_are_pinned(command, target, max_size, digest):
    corpus = _corpus(max_size)
    if command == "check":
        report = campaign_check(target, corpus)
    else:
        report = campaign_theorem(target, corpus, seed=0)
    assert hashlib.sha256(report.serialize().encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "command,target,digest",
    GOLDEN_RINGS,
    ids=["ring:M(1,2)xM(2,3)", "ring:M(3,2)", "ring:M(1,2)^5", "ring-nid-id", "ring-conc-idc"],
)
def test_larger_ring_report_bytes_are_pinned(command, target, digest):
    if command == "ring":
        report = campaign_ring(target)
    else:
        report = campaign_theorem(target, rings=["M(3,2)", M12_5])
    assert hashlib.sha256(report.serialize().encode()).hexdigest() == digest
