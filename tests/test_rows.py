"""The product rows of partial groups and the composition rows of
transporter systems, against the tuple-keyed tables they replaced.

`ChainPartialGroup.rows` and `TransporterSystem.comp` are the one table of
products and of composites of each instance.  Here the dicts that
`oracles.pair_dict` and `oracles.compose_dict` read off them are checked
against the definition (the domain, the ambient group, the composable
pairs) on every fixture locality, the `bench/fixtures` ones included, and
on the localities and systems that other builders make from them.
`hom_defect` is compared with `oracles.hom_defect_reference`, the loop
over the pair dict that it replaced, and the constructor checks that scan
the rows are made to fail.
"""

import glob
import itertools
import os
import types

import pytest

from loclab.extension import hom_defect, locality_automorphisms
from loclab.fixtures import build_fixture
from loclab.locality import LocalityBuildError, sub_locality
from loclab.normal import enumerate_partial_normal, quotient
from loclab.transporter import (
    TransporterError,
    TransporterSystem,
    aut_transporter,
    full_subcategory,
    locality_of_transporter,
    transporter_of_locality,
)

import oracles
from test_locality import _mutate

ROOT = os.path.join(os.path.dirname(__file__), "..")
PATHS = sorted(glob.glob(os.path.join(ROOT, "fixtures", "*.json")) +
               glob.glob(os.path.join(ROOT, "bench", "fixtures", "*.json")))
NAMES = ["a4/L", "c2/L", "d8/L", "s4/Lcr", "s4/Lplus", "s5/L", "a6pair/Lcr",
         "a6pair/Lplus", "psl27/L", "s6/L"]
_CACHE: dict = {}


def _fixture_localities() -> dict:
    """name -> Locality for every locality of every fixture file."""
    if not _CACHE:
        for path in PATHS:
            fixture = os.path.splitext(os.path.basename(path))[0]
            if fixture == "s4-broken":
                continue
            bundle, _ = build_fixture(path, k=1)
            for locname, loc in bundle.localities.items():
                _CACHE[f"{fixture}/{locname}"] = loc
    return _CACHE


def _derived(name):
    """The localities built from a fixture locality by the other builders:
    its transporter bridge, its quotient by the largest proper partial
    normal subgroup, and its sub-locality on N_L(S)."""
    loc = _fixture_localities()[name]
    out = {"bridge": locality_of_transporter(transporter_of_locality(loc))}
    normals = [n for n in enumerate_partial_normal(loc) if len(n) < loc.size]
    if normals:
        out["quotient"] = quotient(loc, normals[-1]).locality
    out["N_L(S)"] = sub_locality(loc, loc.n_of(loc.s), [loc.s])
    return out


def test_every_fixture_locality_is_covered():
    assert sorted(_fixture_localities()) == sorted(NAMES)


# ---- the rows against the definition ------------------------------------


def _check_pair_rows(loc):
    pg = loc.pg
    assert isinstance(pg.rows, tuple)
    assert all(isinstance(row, tuple) and len(row) == pg.size for row in pg.rows)
    assert len(pg.rows) == pg.size
    table = oracles.pair_dict(pg)
    assert oracles.rows_of(table, pg.size) == pg.rows
    assert set(table) == {(a, b) for a in range(pg.size) for b in range(pg.size)
                          if pg.word_in_domain((a, b))}
    if loc.carrier is not None:
        M, car = loc.ambient, loc.carrier
        assert all(car[c] == M.mul(car[a], car[b]) for (a, b), c in table.items())


@pytest.mark.parametrize("name", NAMES)
def test_pair_rows_are_the_defined_products(name):
    loc = _fixture_localities()[name]
    _check_pair_rows(loc)
    for derived in _derived(name).values():
        _check_pair_rows(derived)


def _check_composition_rows(T):
    assert isinstance(T.comp, tuple) and len(T.comp) == T.mor_count
    assert all(isinstance(row, tuple) and len(row) == T.mor_count for row in T.comp)
    compose = oracles.compose_dict(T)
    assert oracles.rows_of(compose, T.mor_count) == T.comp
    assert set(compose) == {(j, i) for j in range(T.mor_count)
                            for i in range(T.mor_count) if T.dst[i] == T.src[j]}
    for (j, i), k in compose.items():
        assert (T.src[k], T.dst[k]) == (T.src[i], T.dst[j])
        assert all(T.pi[k][x] == T.pi[j][T.pi[i][x]] for x in T.objects[T.src[i]])


@pytest.mark.parametrize("name", NAMES)
def test_composition_rows_are_the_composable_pairs(name):
    _check_composition_rows(transporter_of_locality(_fixture_localities()[name]))


def test_a_full_subcategory_keeps_the_parent_rows():
    locs = _fixture_localities()
    for small, big in (("s4/Lcr", "s4/Lplus"), ("a6pair/Lcr", "a6pair/Lplus")):
        T_plus = transporter_of_locality(locs[big])
        sub = full_subcategory(T_plus, transporter_of_locality(locs[small]).objects)
        _check_composition_rows(sub)
        ids = sub.parent_ids
        assert all(T_plus.comp[ids[j]][ids[i]] ==
                   (None if k is None else ids[k])
                   for j, row in enumerate(sub.comp) for i, k in enumerate(row))


# ---- one representation ----------------------------------------------------

# tables of a system keyed by object indices (incl, the hom sets, delta),
# by functors (the verdicts) or by the functions whose values
# `groups._kept` keeps; none is keyed by a pair of morphisms
OBJECT_KEYED = {"incl": 2, "_by_pair": 2, "delta": 2}


def _tuple_keyed(obj):
    return {name: value for name, value in vars(obj).items()
            if isinstance(value, dict) and any(isinstance(k, tuple) for k in value)}


@pytest.mark.parametrize("name", NAMES)
def test_no_instance_keeps_a_tuple_keyed_table(name):
    loc = _fixture_localities()[name]
    T = transporter_of_locality(loc)
    aut_transporter(T)
    pgs = [loc.pg, locality_of_transporter(T).pg] + [
        d.pg for d in _derived(name).values()]
    for pg in pgs:
        assert _tuple_keyed(pg) == {}
    tables = _tuple_keyed(T)
    assert set(tables) <= set(OBJECT_KEYED) | {"_verdicts", "_derived"}
    n_obj = len(T.objects)
    for table_name, width in OBJECT_KEYED.items():
        assert all(all(0 <= x < n_obj for x in key[:width])
                   for key in tables.get(table_name, ()))
    assert all(key[0] is T or isinstance(key[0], TransporterSystem)
               for key in tables.get("_verdicts", ()))
    assert all(isinstance(key[0], types.FunctionType)
               for key in tables.get("_derived", ()))


# ---- hom_defect against the dict loop it replaced ------------------------


def _swaps(loc):
    """Pairs of elements to swap in a map: the first 60 pairs outside S
    with the same conjugation map (the swap keeps conditions (1) and (2),
    so only the products can refuse it), then a spread of other pairs."""
    pg = loc.pg
    outside = [f for f in range(pg.size) if f not in pg.s_members]
    same = [(a, b) for a, b in itertools.combinations(outside, 2)
            if pg.conj_maps[a] == pg.conj_maps[b]]
    others = list(itertools.combinations(range(pg.size), 2))
    return same[:60] + others[::max(1, len(others) // 40)]


def _compare_hom_defect(loc):
    auts = locality_automorphisms(loc)
    products = 0
    for alpha in auts[:3] + auts[-1:]:
        assert hom_defect(loc, loc, alpha) is None
        assert oracles.hom_defect_reference(loc, loc, alpha) is None
        for a, b in _swaps(loc):
            bad = list(alpha)
            bad[a], bad[b] = bad[b], bad[a]
            got = hom_defect(loc, loc, bad)
            assert got == oracles.hom_defect_reference(loc, loc, bad)
            products += bool(got and got.startswith("product"))
    return products


@pytest.mark.parametrize("name", NAMES)
def test_hom_defect_agrees_with_the_dict_loop(name):
    loc = _fixture_localities()[name]
    products = _compare_hom_defect(loc)
    if name != "c2/L":
        assert products  # some swaps reach the product rows
    for derived in _derived(name).values():
        _compare_hom_defect(derived)


# ---- the checks that scan the constructor's rows -----------------------------


def test_a_full_domain_with_a_hole_is_refused():
    pg = _fixture_localities()["s4/Lplus"].pg
    assert pg.is_full_domain
    table = oracles.pair_dict(pg)
    del table[(1, 2)]
    with pytest.raises(LocalityBuildError,
                       match="domain proof contradicts the pair table"):
        _mutate(pg, pair_table=table)


def _rebuild(T, table):
    return TransporterSystem(T.p, T.s_labels, T.s_mul, T.s_inv, T.objects,
                             T.fusion, T.src, T.dst, T.g_labels, T.pi,
                             oracles.rows_of(table, T.mor_count), T.delta)


def test_composition_rows_are_scanned_for_bookkeeping():
    T = transporter_of_locality(_fixture_localities()["s4/Lcr"])
    compose = oracles.compose_dict(T)
    j, i = next((j, i) for j in range(T.mor_count) for i in range(T.mor_count)
                if T.dst[i] != T.src[j])
    with pytest.raises(TransporterError, match="pairs morphisms that do not meet"):
        _rebuild(T, {**compose, (j, i): 0})
    (j, i), k = next(((j, i), k) for (j, i), k in compose.items()
                     if T.src[i] != T.dst[i])
    wrong = next(m for m in range(T.mor_count) if T.src[m] != T.src[k])
    with pytest.raises(TransporterError, match="composite has the wrong endpoints"):
        _rebuild(T, {**compose, (j, i): wrong})
    short = dict(compose)
    del short[max(short)]
    with pytest.raises(TransporterError, match="missing a composable pair"):
        _rebuild(T, short)
    assert _rebuild(T, compose).comp == T.comp
