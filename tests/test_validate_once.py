"""Each thing is checked once: structure in the constructors, words at the
caller's bound.

The transporter bridge and `normal.quotient` run only
`locality.locality_structure_checks`; they scan no word.  `validate_locality`
keeps its report per word length on the Locality, `transporter_of_locality`
its system, and `aut_transporter` its list on the system, so one call of
the program scans, bridges and lifts each locality once.  The word scans
the bridge no longer makes are kept here as tests.
"""

import os

import pytest

from loclab import cli, locality, transporter
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

FIXTURE_LOCS = ["a4/L", "c2/L", "d8/L", "s4/Lcr", "s4/Lplus", "s5/L"]
# the k=4 scan of the s5/L bridge takes about 27 s; k=3 takes under a second
BRIDGE_SCAN_K = {name: 4 for name in FIXTURE_LOCS} | {"s5/L": 3}


def _fresh(name: str) -> Locality:
    """A newly built fixture locality, so that no memo is shared with other
    tests."""
    fixture, locname = name.split("/")
    bundle, _ = build_fixture(os.path.join(FIXTURE_DIR, f"{fixture}.json"), k=1)
    return bundle.localities[locname]


@pytest.fixture
def scans(monkeypatch):
    """Word scans per (ChainPartialGroup, k).  The partial groups are kept
    alive so that no id is reused while counting."""
    seen: dict[tuple[int, int], list] = {}
    real = locality.validate_partial_group

    def counting(pg, k):
        seen.setdefault((id(pg), k), [pg, 0])[1] += 1
        return real(pg, k)

    monkeypatch.setattr(locality, "validate_partial_group", counting)
    return seen


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
def test_bridge_scans_no_word(name, scans):
    loc = _fresh(name)
    scans.clear()
    locality_of_transporter(transporter_of_locality(loc))
    assert not scans


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


def test_quotient_scans_no_word(scans):
    cases = _normal_test_quotients()
    scans.clear()
    for loc, n in cases:
        quotient(loc, n)
    assert not scans


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


def test_report_scans_each_locality_once_per_bound(scans, systems, capsys):
    assert cli.main(["report", os.path.join(FIXTURE_DIR, "s4.json")]) == 0
    capsys.readouterr()
    assert scans
    assert max(n for _, n in scans.values()) == 1
    # Lcr, Lplus and the full subcategory of Lplus on the objects of Lcr
    assert systems[0] == 3


def test_bridge_suites_scan_only_at_the_given_bound(scans, capsys):
    path = os.path.join(FIXTURE_DIR, "d8.json")
    for suite in ("transporter", "exactseq"):
        assert cli.main(["verify", suite, path, "--max-word-len", "2"]) == 0
    capsys.readouterr()
    assert {k for _, k in scans} == {2}


def test_memos_are_kept_per_instance():
    loc = _fresh("s4/Lplus")
    assert validate_locality(loc, 2) is validate_locality(loc, 2)
    assert validate_locality(loc, 1) is not validate_locality(loc, 2)
    T = transporter_of_locality(loc)
    assert transporter_of_locality(loc) is T
    assert transporter_of_locality(_fresh("s4/Lplus")) is not T
    first = aut_transporter(T)
    first.clear()
    second = aut_transporter(T)
    assert second and second == aut_transporter(T)
    assert second is not aut_transporter(T)
