"""Locality automorphisms and homomorphism completions: the searches
over generator images against the old element-by-element backtrack, and
the per-instance memo.

`locality_automorphisms` finds one isomorphism over each automorphism of
S and multiplies it by the rigid automorphisms.  These tests compare it
with `oracles.locality_automorphisms_reference`, which completes every
automorphism of S exhaustively, and compare `hom_completions` and
`group_isomorphisms` with the searches they replaced
(`oracles.hom_completions_reference`, `oracles.group_isomorphisms_reference`),
on the shipped fixtures, on their transporter-bridge localities, on a
restriction and on the A6 pair of the benchmark.  With every candidate
list widened to all elements the results stay the same, so they do not
rest on the pruning, and a map whose products the search never forms is
dropped by the certificate alone.  The tests also pin down what
the memo keeps, and check that the generating sequence of
`automorphism_group` spans Aut(L).
"""

import json
import os

import pytest

from loclab import cli, extension, groups
from loclab.extension import (
    automorphism_group,
    compose_maps,
    hom_completions,
    iso_defect,
    locality_automorphisms,
    rigid_automorphisms,
)
from loclab.fixtures import build_fixture
from loclab.groups import automorphisms, parse_group
from loclab.locality import Locality, locality_from_group
from loclab.transporter import locality_of_transporter, transporter_of_locality

import oracles
import test_domain_table
from test_locality import S4_DOC, S5_DOC, _mutate, s5_transposition_objects

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")
A6PAIR = os.path.join(os.path.dirname(__file__), "..", "bench", "fixtures",
                      "a6pair.json")

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


A6_NAMES = ["a6pair/Lcr", "a6pair/Lcr bridge"]
_A6: dict = {}


def _locality(name: str) -> Locality:
    """A locality of NAMES, or the A6 pair's Lcr or its transporter bridge."""
    if name not in A6_NAMES:
        return _localities()[name]
    if not _A6:
        bundle, _ = build_fixture(A6PAIR)
        loc = bundle.localities["Lcr"]
        _A6[A6_NAMES[0]] = loc
        _A6[A6_NAMES[1]] = locality_of_transporter(transporter_of_locality(loc))
    return _A6[name]


def test_every_fixture_locality_is_covered():
    assert sorted(_localities()) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES + A6_NAMES)
def test_coset_search_matches_full_backtrack(name):
    loc = _locality(name)
    assert locality_automorphisms(loc) == oracles.locality_automorphisms_reference(loc)


@pytest.mark.parametrize("name", NAMES + A6_NAMES)
def test_rigid_automorphisms_are_the_pinned_identity_completions(name):
    loc = _locality(name)
    pinned = {x: x for x in loc.pg.s_members}
    expected = [a for a in oracles.hom_completions_reference(loc, loc, pinned)
                if iso_defect(loc, loc, a) is None]
    assert rigid_automorphisms(loc) == expected


@pytest.mark.parametrize("name", NAMES + A6_NAMES)
def test_identity_pinned_completions_match_the_reference(name):
    loc = _locality(name)
    pinned = {x: x for x in loc.pg.s_members}
    assert hom_completions(loc, loc, pinned) \
        == oracles.hom_completions_reference(loc, loc, pinned)


def test_restriction_completions_into_the_parent_match_the_reference():
    restr = _localities()["s5 restriction"]
    parent = restr.parent
    pinned = {x: restr.parent_index[x] for x in restr.pg.s_members}
    found = hom_completions(restr, parent, pinned)
    assert tuple(restr.parent_index) in found
    assert found == oracles.hom_completions_reference(restr, parent, pinned)


@pytest.mark.parametrize("name", NAMES + A6_NAMES)
def test_s_automorphisms_match_the_reference(name):
    sg = _locality(name).s_group()
    assert automorphisms(sg) == oracles.group_isomorphisms_reference(sg, sg)


@pytest.mark.parametrize("name", NAMES + A6_NAMES)
def test_widened_candidates_change_no_certified_result(name, monkeypatch):
    """Every generator tries every element and `allowed` admits
    everything: only the closure and the certificates then decide what
    is kept."""
    loc = _locality(name)
    pinned = {x: x for x in loc.pg.s_members}
    sg = loc.s_group()
    expected = (extension.search_automorphisms(loc),
                hom_completions(loc, loc, pinned), automorphisms(sg))
    real = groups.generator_image_search

    def widened(src_pairs, dst_pairs, src_inv, dst_inv, pinned, gens,
                candidates, allowed=None, injective=False):
        return real(src_pairs, dst_pairs, src_inv, dst_inv, pinned, gens,
                    lambda g: range(len(dst_inv)), None, injective)

    monkeypatch.setattr(groups, "generator_image_search", widened)
    monkeypatch.setattr(extension, "generator_image_search", widened)
    assert (extension.search_automorphisms(loc),
            hom_completions(loc, loc, pinned), automorphisms(sg)) == expected


@pytest.mark.parametrize("name", NAMES)
def test_the_generating_sequence_spans_aut(name):
    loc = _localities()[name]
    group = automorphism_group(loc)
    assert automorphism_group(loc) is group
    assert group.tokens == tuple(locality_automorphisms(loc))
    gens = [group.tokens[g] for g in group.generators]
    assert oracles.span_reference(compose_maps, tuple(range(loc.size)),
                                  gens) == group.tokens


def test_the_certificate_rejects_a_map_the_search_never_checks():
    """S is all of d8/L, so a pinned map has an image for every element
    and the search yields it without forming a product.  Swapping the two
    rotations of order 4 keeps every object and breaks products: only
    `hom_defect` drops it."""
    loc = _locality("d8/L")
    r, r3 = loc.element("(1 2 3 4)"), loc.element("(1 4 3 2)")
    swap = {x: x for x in range(loc.size)}
    swap[r], swap[r3] = r3, r
    assert hom_completions(loc, loc, swap) == []
    assert oracles.hom_completions_reference(loc, loc, swap) == []


D8_DOC = {"degree": 4, "generators": [[[1, 2, 3, 4]], [[1, 3]]]}


def _forging(real):
    """`generator_image_search` that yields, after the real maps, the
    first of them with the images of the identity and of one other element
    swapped: a map that is not a homomorphism, so only the caller's
    certificate can drop it."""
    def forged(src_rows, dst_rows, src_inv, dst_inv, *args, **kwargs):
        first = None
        for full in real(src_rows, dst_rows, src_inv, dst_inv, *args, **kwargs):
            first = first or full
            yield full
        if first is not None and len(first) > 1:
            e = next(x for x in range(len(src_inv)) if src_rows[x][x] == x)
            other = 1 if e == 0 else 0
            bad = list(first)
            bad[e], bad[other] = bad[other], bad[e]
            yield tuple(bad)
    return forged


def test_the_certificates_drop_a_forged_map(monkeypatch):
    """With one forged map among the search results, the automorphism
    search, the completions and the group isomorphisms return exactly
    what they return without it: each certificate is needed."""
    locs = [_locality("s4/Lcr"), _locality("a6pair/Lcr")]
    grps = [parse_group(doc) for doc in (S4_DOC, D8_DOC)]

    def results():
        return ([(extension.search_automorphisms(loc),
                  hom_completions(loc, loc, {x: x for x in loc.pg.s_members}))
                 for loc in locs],
                [groups.group_isomorphisms(g, g) for g in grps])

    expected = results()
    forged = _forging(groups.generator_image_search)
    monkeypatch.setattr(groups, "generator_image_search", forged)
    monkeypatch.setattr(extension, "generator_image_search", forged)
    assert results() == expected


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
