"""Member-set closures against fixpoint references, on every fixture.

Groups close by one routine, the coset walk `groups._adjoin`, which
`subgroup_closure` folds over its seed and `generating_sequence` uses to
grow its span.  Partial groups close by one worklist,
`partial.generated_partial_subgroup`, which `normal.normal_closure` runs
with the defined conjugates as extra images and which the partial normal
enumeration runs on a closed base.  Here they are compared with
`oracles.span_reference`, `oracles.partial_span_reference` (both sweep
every pair until nothing changes) and `oracles.blockwise_partial_normals`.
"""

import functools
import itertools
import os

import pytest

from loclab.fixtures import build_fixture
from loclab.groups import generating_sequence, subgroup_closure, sylow_p
from loclab.normal import _conjugates, normal_closure
from loclab.partial import generated_partial_subgroup

import oracles

ROOT = os.path.join(os.path.dirname(__file__), "..")
FIXTURES = ["c2", "a4", "d8", "s4", "s5", "psl27", "s6", "a6pair"]
LOCALITIES = ["c2/L", "a4/L", "d8/L", "s4/Lcr", "s4/Lplus", "s5/L",
              "psl27/L", "s6/L", "a6pair/Lcr", "a6pair/Lplus"]


@functools.cache
def _bundle(name):
    path = os.path.join(ROOT, "fixtures", f"{name}.json")
    if not os.path.exists(path):
        path = os.path.join(ROOT, "bench", "fixtures", f"{name}.json")
    bundle, _ = build_fixture(path, k=1)
    return bundle


def _locality(name):
    fixture, locname = name.split("/")
    return _bundle(fixture).localities[locname]


@functools.cache
def _block_family(name):
    return oracles.blockwise_partial_normals(_locality(name).pg)


def _least_above(family, members):
    """The least member of a family closed under intersection that holds
    the given members."""
    return frozenset.intersection(*(n for n in family if members <= n))


# ---- groups ------------------------------------------------------------------


@pytest.mark.parametrize("name", FIXTURES)
def test_subgroup_closure_matches_the_reference_on_pairs_of_s(name):
    bundle = _bundle(name)
    group = bundle.group
    s = sylow_p(group, bundle.p).members
    for a, b in itertools.product(s, repeat=2):
        assert (subgroup_closure(group, (a, b))
                == oracles.span_reference(group.mul, group.identity, (a, b)))


@pytest.mark.parametrize("name", ["c2", "a4", "d8", "s4"])
def test_subgroup_closure_matches_the_reference_on_pairs_of_the_group(name):
    group = _bundle(name).group
    for a, b in itertools.product(group.indices(), repeat=2):
        assert (subgroup_closure(group, (a, b))
                == oracles.span_reference(group.mul, group.identity, (a, b)))
    everything = tuple(group.indices())
    assert subgroup_closure(group, everything) == everything
    assert subgroup_closure(group, ()) == (group.identity,)


@pytest.mark.parametrize("name", ["c2", "a4", "d8", "s4", "s5", "psl27"])
def test_generating_sequence_takes_the_least_element_outside_each_span(name):
    group = _bundle(name).group
    gens = generating_sequence(group)
    span = (group.identity,)
    for g in gens:
        assert g == min(set(group.indices()) - set(span))
        span = oracles.span_reference(group.mul, group.identity, (*span, g))
    assert span == tuple(group.indices())


# ---- partial groups ----------------------------------------------------------


@pytest.mark.parametrize("name", LOCALITIES)
def test_partial_closure_matches_the_fixpoint_on_pairs(name):
    pg = _locality(name).pg
    for x, y in itertools.combinations_with_replacement(range(pg.size), 2):
        assert (generated_partial_subgroup(pg, (x, y))
                == oracles.partial_span_reference(pg, (x, y)))


@pytest.mark.parametrize("name", LOCALITIES)
def test_normal_closure_of_an_element_matches_the_block_oracle(name):
    loc = _locality(name)
    family = _block_family(name)
    for x in range(loc.size):
        assert normal_closure(loc, (x,)).members == _least_above(family, {x})


@pytest.mark.parametrize("name", LOCALITIES)
def test_a_closed_base_extended_by_an_atom_matches_the_block_oracle(name):
    pg = _locality(name).pg
    family = _block_family(name)
    conj = _conjugates(pg)
    atoms = {_least_above(family, {x}) for x in range(pg.size)}
    for base in family:
        for atom in atoms:
            got = generated_partial_subgroup(pg, atom, conj, closed=base)
            assert got == _least_above(family, base | atom)
            assert got == oracles.partial_span_reference(pg, base | atom, conj)


@pytest.mark.parametrize("name", LOCALITIES)
def test_a_seed_inside_the_closed_set_returns_it(name):
    pg = _locality(name).pg
    conj = _conjugates(pg)
    trivial = frozenset({pg.identity})
    assert generated_partial_subgroup(pg, ()) == trivial
    assert generated_partial_subgroup(pg, (), conj) == trivial
    for n in _block_family(name):
        assert generated_partial_subgroup(pg, (), conj, closed=n) == n
        assert generated_partial_subgroup(pg, sorted(n)[-2:], conj,
                                          closed=n) == n
    s = frozenset(pg.s_members)
    assert generated_partial_subgroup(pg, s, closed=s) == s
