"""Each thing is checked once: structure in the constructors, words at the
caller's bound.

The transporter bridge and `normal.quotient` run only
`locality.locality_structure_checks`; they scan no word.  `validate_locality`
keeps its report on the Locality: one carrier certificate answers every
word length, and a passing word scan answers its own length and every
shorter one.  `transporter_of_locality` keeps its system, and
`aut_transporter` its list on the system, so one call of the program
certifies or scans, bridges and lifts each locality once.  The word scans
the bridge no longer makes are kept here as tests.
"""

import os

import pytest

from loclab import cli, fixtures, locality, transporter, verify
from loclab.fixtures import build_fixture
from loclab.locality import Locality, locality_structure_checks, validate_locality
from loclab.normal import enumerate_partial_normal, quotient
from loclab.transporter import (
    aut_transporter,
    locality_of_transporter,
    transporter_of_locality,
)

import test_normal
from test_locality import _mutate

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")
BENCH_FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "bench", "fixtures")

FIXTURE_LOCS = ["a4/L", "c2/L", "d8/L", "s4/Lcr", "s4/Lplus", "s5/L"]
# the k=4 scan of the s5/L bridge takes about 27 s; k=3 takes under a second
BRIDGE_SCAN_K = {name: 4 for name in FIXTURE_LOCS} | {"s5/L": 3}


def _fresh(name: str) -> Locality:
    """A newly built fixture locality, so that no memo is shared with other
    tests."""
    fixture, locname = name.split("/")
    bundle, _ = build_fixture(os.path.join(FIXTURE_DIR, f"{fixture}.json"), k=1)
    return bundle.localities[locname]


def _without_carrier(loc: Locality) -> Locality:
    """The same locality on a fresh partial group, with no ambient group or
    carrier, so that `validate_locality` scans words."""
    return Locality(_mutate(loc.pg), loc.p)


@pytest.fixture
def validations(monkeypatch):
    """Validations per (ChainPartialGroup, path): the path is "carrier" for
    a carrier certificate and the word length k for a word scan.  The
    partial groups are kept alive so that no id is reused while counting."""
    seen: dict[tuple[int, object], list] = {}
    real_scan = locality.validate_partial_group
    real_certificate = locality.carrier_certificate

    def scan(pg, k):
        seen.setdefault((id(pg), k), [pg, 0])[1] += 1
        return real_scan(pg, k)

    def certify(loc):
        seen.setdefault((id(loc.pg), "carrier"), [loc.pg, 0])[1] += 1
        return real_certificate(loc)

    monkeypatch.setattr(locality, "validate_partial_group", scan)
    monkeypatch.setattr(locality, "carrier_certificate", certify)
    return seen


@pytest.fixture
def word_walks(monkeypatch):
    """Names of the word walks of the suites, one entry per call."""
    called: list[str] = []
    for name in ("check_cancellation", "_word_law_walk", "_chain_matches"):
        real = getattr(verify, name)

        def counting(*args, _name=name, _real=real, **kwargs):
            called.append(_name)
            return _real(*args, **kwargs)

        monkeypatch.setattr(verify, name, counting)
    return called


@pytest.fixture
def systems(monkeypatch):
    """Number of TransporterSystem instances built."""
    built = [0]
    real = transporter.TransporterSystem.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        real(self, *args, **kwargs)

    monkeypatch.setattr(transporter.TransporterSystem, "__init__", counting)
    return built


@pytest.mark.parametrize("name", FIXTURE_LOCS)
def test_bridge_scans_no_word(name, validations):
    loc = _fresh(name)
    validations.clear()
    locality_of_transporter(transporter_of_locality(loc))
    assert not validations


@pytest.mark.parametrize("name", FIXTURE_LOCS)
def test_bridge_passes_the_word_scan(name):
    bridge = locality_of_transporter(transporter_of_locality(_fresh(name)))
    assert validate_locality(bridge, k=BRIDGE_SCAN_K[name]).ok


def _normal_test_quotients():
    """(locality, partial normal subgroup) for every quotient that
    test_normal.py builds."""
    _, _, loc_plus, _ = test_normal._s4_data()
    _, fam_plus, _ = test_normal._s4_family()
    out = [(loc_plus, n) for n in (test_normal._by_order(fam_plus, 4),
                                   fam_plus[0], fam_plus[-1])]
    _, s5_plus, _ = test_normal._s5_data()
    out += [(s5_plus, n) for n in enumerate_partial_normal(s5_plus)
            if 1 < len(n) < s5_plus.size]
    return out


def test_quotient_scans_no_word(validations):
    cases = _normal_test_quotients()
    validations.clear()
    for loc, n in cases:
        quotient(loc, n)
    assert not validations


def test_dropped_pair_fails_the_structure_checks():
    """The check that replaced the bridge's composability loop and the
    quotient's pair-coverage loop names the dropped pair.  The s5 locality
    has Sylow D8 and a chain domain; the d8 fixture's domain is full, and
    there ChainPartialGroup rejects a dropped pair when it is built."""
    loc = _fresh("s5/L")
    pg = loc.pg
    table = dict(pg.pairs)
    a, b = next(key for key in sorted(table)
                if pg.identity not in key and not set(key) <= loc.s)
    del table[(a, b)]
    bad = Locality(_mutate(pg, pair_table=table), loc.p)
    failing = {c.name: c for c in locality_structure_checks(bad) if not c.ok}
    assert "pair-table-matches-domain" in failing
    assert failing["pair-table-matches-domain"].detail == (
        f"pair {pg.label_word((a, b))} in domain only")
    assert all(c.detail for c in failing.values())


def test_report_scans_each_locality_once_per_bound(validations, word_walks,
                                                   systems, capsys):
    assert cli.main(["report", os.path.join(FIXTURE_DIR, "s4.json")]) == 0
    capsys.readouterr()
    # one certificate for each locality: Lcr as built, Lplus, and the
    # restriction of Lplus that replaces Lcr; no word scan
    assert [path for _, path in validations] == ["carrier"] * 3
    assert max(n for _, n in validations.values()) == 1
    assert not word_walks
    # Lcr, Lplus and the full subcategory of Lplus on the objects of Lcr
    assert systems[0] == 3


def test_bridge_suites_scan_only_at_the_given_bound(validations, monkeypatch,
                                                    capsys):
    path = os.path.join(FIXTURE_DIR, "d8.json")

    def run_suites():
        for suite in ("transporter", "exactseq"):
            assert cli.main(["verify", suite, path, "--max-word-len", "2"]) == 0
        capsys.readouterr()

    run_suites()
    assert {path for _, path in validations} == {"carrier"}
    validations.clear()
    # without a carrier the same calls scan words, at the given bound only
    build = fixtures.locality_from_group
    monkeypatch.setattr(fixtures, "locality_from_group",
                        lambda *args, **kwargs: _without_carrier(build(*args, **kwargs)))
    run_suites()
    assert {path for _, path in validations} == {2}


def test_verify_locality_validates_once(validations, capsys):
    """The build certifies at k=3 and the locality suite asks again at the
    k=2 its word budget allows; the certificate answers both."""
    path = os.path.join(BENCH_FIXTURE_DIR, "s6.json")
    assert cli.main(["verify", "locality", path]) == 0
    capsys.readouterr()
    assert [(p, n) for (_, p), (_, n) in validations.items()] == [("carrier", 1)]


def test_verify_axioms_certifies_without_scanning(validations, word_walks, capsys):
    assert cli.main(["verify", "axioms",
                     os.path.join(BENCH_FIXTURE_DIR, "psl27.json")]) == 0
    capsys.readouterr()
    assert [(p, n) for (_, p), (_, n) in validations.items()] == [("carrier", 1)]
    assert not word_walks


def test_uncertified_suites_walk_words(word_walks, monkeypatch, capsys):
    """The word walks still run where no certificate applies."""
    build = fixtures.locality_from_group
    monkeypatch.setattr(fixtures, "locality_from_group",
                        lambda *args, **kwargs: _without_carrier(build(*args, **kwargs)))
    path = os.path.join(FIXTURE_DIR, "a4.json")
    for suite in ("axioms", "locality"):
        assert cli.main(["verify", suite, path, "--max-word-len", "2"]) == 0
    capsys.readouterr()
    assert {"check_cancellation", "_word_law_walk", "_chain_matches"} <= set(word_walks)


def test_a_passing_scan_answers_shorter_bounds(validations):
    bare = _without_carrier(_fresh("s5/L"))
    validations.clear()
    report = validate_locality(bare, 3)
    assert report.ok and report.pg_report.mode == "bounded"
    assert validate_locality(bare, 2) is report
    assert validate_locality(bare, 3) is report
    assert [path for _, path in validations] == [3]


def test_a_failing_scan_answers_only_its_bound(validations):
    pg = _fresh("s5/L").pg
    s = sorted(pg.s_members)
    maps = [dict(m) for m in pg.conj_maps]
    maps[s[1]][s[1]] = s[2]
    bad = Locality(_mutate(pg, conj_maps=maps), 2)
    validations.clear()
    report = validate_locality(bad, 2)
    assert not report.ok
    assert validate_locality(bad, 2) is report
    assert validate_locality(bad, 1) is not report
    assert sorted(path for _, path in validations) == [1, 2]


def test_memos_are_kept_per_instance():
    loc = _fresh("s4/Lplus")
    # with a carrier, one certificate answers every bound
    assert validate_locality(loc, 1) is validate_locality(loc, 2)
    assert validate_locality(loc, 1).pg_report.mode == "carrier"
    # without one, a scan at k=1 does not answer k=2
    bare = _without_carrier(loc)
    assert validate_locality(bare, 1) is validate_locality(bare, 1)
    assert validate_locality(bare, 1) is not validate_locality(bare, 2)
    T = transporter_of_locality(loc)
    assert transporter_of_locality(loc) is T
    assert transporter_of_locality(_fresh("s4/Lplus")) is not T
    first = aut_transporter(T)
    first.clear()
    second = aut_transporter(T)
    assert second and second == aut_transporter(T)
    assert second is not aut_transporter(T)
