"""The interned S-state table of ChainPartialGroup against a dict walk.

Every domain query of a ChainPartialGroup walks a table of interned
partial maps.  These tests compare it with `oracles.s_of_word_reference`,
which rebuilds the partial map as a dict at every letter, on the shipped
fixtures, on a transporter-bridge locality and on a restriction.
"""

import glob
import itertools
import os

import pytest
from hypothesis import given, settings, strategies as st

from loclab.fixtures import build_fixture
from loclab.groups import parse_group
from loclab.locality import (
    Locality,
    locality_from_group,
    restriction,
    validate_locality,
)
from loclab.transporter import locality_of_transporter, transporter_of_locality

import oracles
from test_locality import S4_DOC, S5_DOC, _mutate, s4_cr_objects, s5_transposition_objects

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")

_CACHE: dict = {}


def _localities() -> dict:
    """name -> Locality: every fixture locality (s4-broken builds none), the
    transporter bridge over the s4 order-ge-4 locality, and the restriction
    of the S5 transposition locality to its objects of order >= 4."""
    if not _CACHE:
        for path in sorted(glob.glob(os.path.join(FIXTURE_DIR, "*.json"))):
            name = os.path.splitext(os.path.basename(path))[0]
            if name == "s4-broken":
                continue
            bundle, _ = build_fixture(path, k=2)
            for locname, loc in bundle.localities.items():
                _CACHE[f"{name}/{locname}"] = loc
        bridge = locality_of_transporter(
            transporter_of_locality(_CACHE["s4/Lplus"]))
        _CACHE["s4/Lplus bridge"] = bridge
        s5 = parse_group(S5_DOC)
        objs = s5_transposition_objects(s5)
        loc = locality_from_group(s5, 2, objs)
        keep = [frozenset(loc.pg.index_of(s5.label(x)) for x in P)
                for P in objs if len(P) >= 4]
        _CACHE["s5 restriction"] = restriction(loc, keep)
    return _CACHE


NAMES = ["a4/L", "c2/L", "d8/L", "s4/Lcr", "s4/Lplus", "s5/L",
         "s4/Lplus bridge", "s5 restriction"]


def test_every_fixture_locality_is_covered():
    assert sorted(_localities()) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_table_matches_dict_walk_up_to_length_3(name):
    pg = _localities()[name].pg
    for n in range(4):
        for w in itertools.product(range(pg.size), repeat=n):
            s_w = oracles.s_of_word_reference(pg, w)
            assert pg.s_of_word(w) == s_w, w
            assert pg.word_in_domain(w) == (s_w in pg.object_set), w


@pytest.mark.parametrize("name", NAMES)
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_table_matches_dict_walk_on_longer_words(name, data):
    pg = _localities()[name].pg
    w = tuple(data.draw(st.lists(st.integers(0, pg.size - 1), max_size=6)))
    s_w = oracles.s_of_word_reference(pg, w)
    assert pg.s_of_word(w) == s_w
    assert pg.word_in_domain(w) == (s_w in pg.object_set)


@pytest.mark.parametrize("name", NAMES)
def test_domain_words_follow_the_dict_walk_in_depth_first_order(name):
    loc = _localities()[name]
    pg = loc.pg
    for k in range(4):
        # tuples sort lexicographically, a prefix before its extensions:
        # the order of a depth-first walk over letters 0..n-1
        expected = sorted(
            w for n in range(k + 1)
            for w in itertools.product(range(pg.size), repeat=n)
            if oracles.s_of_word_reference(pg, w) in pg.object_set)
        assert list(oracles.iter_domain_words(pg, k)) == expected
        # oracles.bounded_chain_mismatch merges the two walks on this order
        assert list(oracles.chain_domain_words(loc, k)) == expected


@pytest.mark.parametrize("name, order, side", [
    ("d8/L", 8, "chain search only"),  # S dropped: the S_w walk yields nothing
    ("s5/L", 2, "S_w test only"),      # a conjugate dropped
])
def test_domain_check_names_the_least_disagreeing_word(name, order, side):
    pg = _localities()[name].pg
    dropped = min((P for P in pg.objects if len(P) == order), key=sorted)
    bad = Locality(_mutate(pg, objects=[P for P in pg.objects if P != dropped]), 2)
    check = next(c for c in validate_locality(bad, k=3).checks
                 if c.name == "domain-matches-chains")
    via_sw = set(oracles.iter_domain_words(bad.pg, 3))
    via_chains = set(oracles.chain_domain_words(bad, 3))
    # chain_product_walk is breadth first: the shortlex-least word
    w = min(via_sw ^ via_chains, key=lambda v: (len(v), v))
    assert (w in via_sw) == (side == "S_w test only")
    assert not check.ok
    assert check.detail == f"word {bad.pg.label_word(w)} in {side}"


def test_tables_are_not_shared_between_instances():
    s4 = parse_group(S4_DOC)
    v4n, d8 = s4_cr_objects(s4)
    pg = locality_from_group(s4, 2, [v4n, d8]).pg
    v4 = next(P for P in pg.objects if len(P) == 4)
    w = next(w for w in sorted(oracles.pair_dict(pg)) if pg.s_of_word(w) == v4)
    assert pg.word_in_domain(w)  # builds the table of pg

    bad = Locality(_mutate(pg, objects=[P for P in pg.objects if P != v4]), 2).pg
    assert bad.s_of_word(w) == v4
    assert not bad.word_in_domain(w)
    assert pg.word_in_domain(w)
