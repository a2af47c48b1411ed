"""Locality automorphisms: the coset search against the full backtrack,
and the per-instance memo.

`locality_automorphisms` finds one isomorphism over each automorphism of
S and multiplies it by the rigid automorphisms.  These tests compare it
with `oracles.locality_automorphisms_reference`, which completes every
automorphism of S exhaustively, on the shipped fixtures, on their
transporter-bridge localities and on a restriction; they pin down what
the memo keeps; and they check that the generating sequence of
`automorphism_group` spans Aut(L).
"""

import json
import os

import pytest

from loclab import cli, extension
from loclab.extension import (
    automorphism_group,
    compose_maps,
    hom_completions,
    iso_defect,
    locality_automorphisms,
    rigid_automorphisms,
)
from loclab.groups import parse_group
from loclab.locality import Locality, locality_from_group
from loclab.transporter import locality_of_transporter, transporter_of_locality

import oracles
import test_domain_table
from test_locality import S5_DOC, _mutate, s5_transposition_objects

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")

FIXTURE_LOCS = ["a4/L", "c2/L", "d8/L", "s4/Lcr", "s4/Lplus", "s5/L"]
NAMES = FIXTURE_LOCS + [f"{n} bridge" for n in FIXTURE_LOCS] + ["s5 restriction"]

_BRIDGES: dict = {}


def _localities() -> dict:
    """name -> Locality: the localities of test_domain_table (every fixture
    locality, the s4/Lplus bridge and an S5 restriction) and the
    transporter bridge of every other fixture locality."""
    locs = dict(test_domain_table._localities())
    if not _BRIDGES:
        for name in FIXTURE_LOCS:
            key = f"{name} bridge"
            if key not in locs:
                _BRIDGES[key] = locality_of_transporter(
                    transporter_of_locality(locs[name]))
    locs.update(_BRIDGES)
    return locs


def test_every_fixture_locality_is_covered():
    assert sorted(_localities()) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_coset_search_matches_full_backtrack(name):
    loc = _localities()[name]
    assert locality_automorphisms(loc) == oracles.locality_automorphisms_reference(loc)


@pytest.mark.parametrize("name", NAMES)
def test_rigid_automorphisms_are_the_pinned_identity_completions(name):
    loc = _localities()[name]
    pinned = {x: x for x in loc.pg.s_members}
    expected = [a for a in hom_completions(loc, loc, pinned)
                if iso_defect(loc, loc, a) is None]
    assert rigid_automorphisms(loc) == expected


@pytest.mark.parametrize("name", NAMES)
def test_the_generating_sequence_spans_aut(name):
    loc = _localities()[name]
    group = automorphism_group(loc)
    assert automorphism_group(loc) is group
    assert group.tokens == tuple(locality_automorphisms(loc))
    gens = [group.tokens[g] for g in group.generators]
    assert oracles.span_reference(compose_maps, tuple(range(loc.size)),
                                  gens) == group.tokens


def _fresh_s5():
    s5 = parse_group(S5_DOC)
    return locality_from_group(s5, 2, s5_transposition_objects(s5))


def test_memo_returns_fresh_lists():
    loc = _fresh_s5()
    for fn in (locality_automorphisms, rigid_automorphisms):
        first = fn(loc)
        second = fn(loc)
        assert first == second
        assert first is not second
        kept = list(first)
        first.clear()
        assert fn(loc) == kept


@pytest.fixture
def search_counter(monkeypatch):
    """Count automorphism searches per Locality instance.  The instances
    are kept alive so that no id is reused while counting."""
    seen: dict[int, list] = {}
    real = extension.search_automorphisms

    def counting(loc):
        seen.setdefault(id(loc), [loc, 0])[1] += 1
        return real(loc)

    monkeypatch.setattr(extension, "search_automorphisms", counting)
    return seen


def test_rebuilt_instance_gets_its_own_search(search_counter):
    loc = _fresh_s5()
    auts = locality_automorphisms(loc)
    rigid_automorphisms(loc)
    assert [n for _, n in search_counter.values()] == [1]
    dropped = min((P for P in loc.pg.objects if len(P) == 2), key=sorted)
    bad = Locality(_mutate(loc.pg, objects=[P for P in loc.pg.objects
                                            if P != dropped]), 2)
    bad_auts = locality_automorphisms(bad)
    assert sorted(n for _, n in search_counter.values()) == [1, 1]
    assert bad_auts == oracles.locality_automorphisms_reference(bad)
    assert locality_automorphisms(loc) == auts


def test_theorem_a1_and_enumeration_search_each_locality_once(search_counter,
                                                              capsys):
    path = os.path.join(FIXTURE_DIR, "s4.json")
    assert cli.main(["verify", "theoremA1", path]) == 0
    assert cli.main(["enumerate", "aut-locality", path]) == 0
    capsys.readouterr()
    counts = [n for _, n in search_counter.values()]
    # each verb builds its own Lcr and Lplus, and searches each once
    assert len(counts) == 4
    assert max(counts) == 1


D8_FOURS = {
    "group": {"degree": 4, "generators": [[[1, 2, 3, 4]], [[1, 3]]]},
    "p": 2,
    "localities": {
        "Lv": {"objects": {"mode": "explicit",
                           "data": [[[[1, 2, 3, 4]], [[1, 3]]],
                                    [[[1, 3]], [[2, 4]]]]}},
        "Lall": {"objects": {"mode": "named", "data": "order-ge 4"}}},
    "pairs": [["Lv", "Lall"]],
}


def test_a_family_moved_by_a_fusion_automorphism_fails_theorem_a1(tmp_path,
                                                                  capsys):
    """D8 over itself: the outer automorphism swaps the two Klein fours,
    and Lv keeps only one of them."""
    path = tmp_path / "d8fours.json"
    path.write_text(json.dumps(D8_FOURS))
    assert cli.main(["verify", "theoremA1", str(path)]) == 1
    checks = json.loads(capsys.readouterr().out)["sections"][0]["checks"]
    assert {c["name"]: c["ok"] for c in checks}[
        "Lv <= Lall: object family of Lv is invariant under fusion "
        "preserving automorphisms of S"] is False
