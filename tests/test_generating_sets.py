"""Transporter checks on a generating set against the full scans.

`transporter_defect` proves associativity by Light's test over
`TransporterSystem.generators`, and `functor_defect` checks composition on
those generators only.  Here both are compared with the scans of
`oracles` (every composable triple, every composable pair) on every
fixture system, the bench ladder included, and on tables and functors
broken by swapping two entries.
"""

import copy
import functools
import itertools
import os

import pytest
from hypothesis import given, settings, strategies as st

from loclab.fixtures import build_fixture
from loclab.transporter import (
    CategoryFunctor,
    TransporterError,
    TransporterSystem,
    _associativity_defect,
    _generating_set,
    aut_transporter,
    functor_defect,
    identity_functor,
    inner_auts,
    is_transporter_iso,
    transporter_of_locality,
)

import oracles

ROOT = os.path.join(os.path.dirname(__file__), "..")
SYSTEMS = ["a4/L", "c2/L", "d8/L", "s4/Lcr", "s4/Lplus", "s5/L", "psl27/L",
           "s6/L", "a6pair/Lcr", "a6pair/Lplus"]



@functools.cache
def _system(name: str) -> TransporterSystem:
    fixture, locname = name.split("/")
    path = os.path.join(ROOT, "fixtures", f"{fixture}.json")
    if not os.path.exists(path):
        path = os.path.join(ROOT, "bench", "fixtures", f"{fixture}.json")
    bundle, _ = build_fixture(path, k=1)
    return transporter_of_locality(bundle.localities[locname])


def _closure(T, gens):
    """Composites of gens by fixpoint iteration over all pairs."""
    compose = oracles.compose_dict(T)
    reach = set(gens)
    while True:
        new = {compose[(j, i)] for j in reach for i in reach
               if (j, i) in compose} - reach
        if not new:
            return reach
        reach |= new


def _with_table(T, table):
    """T with its composition table replaced by the dict `table`, as rows,
    generators recomputed; the constructor's checks do not run."""
    bad = copy.copy(T)
    bad.comp = oracles.rows_of(table, T.mor_count)
    bad.generators = _generating_set(bad)
    return bad


@functools.cache
def _swap_pairs(name):
    """Pairs of composition entries of a fixture system with the same
    endpoints, different values and no identity factor, in sorted order."""
    T = _system(name)
    idents = set(T.identity_ids.values())
    by_ends: dict[tuple[int, int], list] = {}
    for (j, i), k in sorted(oracles.compose_dict(T).items()):
        if j not in idents and i not in idents:
            by_ends.setdefault((T.src[i], T.dst[j]), []).append(((j, i), k))
    return [(a, b) for entries in by_ends.values()
            for (a, ka), (b, kb) in itertools.combinations(entries, 2)
            if ka != kb]


def _swapped_table(T, a, b):
    table = oracles.compose_dict(T)
    table[a], table[b] = table[b], table[a]
    return table


def _swapped_images(alpha, a, b):
    images = list(alpha.morphism_map)
    images[a], images[b] = images[b], images[a]
    return CategoryFunctor(alpha.src, alpha.dst, alpha.object_map,
                           tuple(images))


def _hom_pairs(T):
    """Pairs of non-identity morphisms in one hom set, in id order."""
    idents = set(T.identity_ids.values())
    for i in range(len(T.objects)):
        for j in range(len(T.objects)):
            ids = [m for m in T.mor(i, j) if m not in idents]
            yield from itertools.combinations(ids, 2)


# ---- the generating set ----------------------------------------------------


@pytest.mark.parametrize("name", SYSTEMS)
def test_generators_generate_every_morphism(name):
    T = _system(name)
    assert list(T.generators) == sorted(set(T.generators))
    assert _closure(T, T.generators) == set(range(T.mor_count))


def test_generators_are_chosen_greedily():
    T = _system("s4/Lcr")
    for m in range(T.mor_count):
        earlier = [g for g in T.generators if g < m]
        assert (m in T.generators) == (m not in _closure(T, earlier))


def test_generating_set_sizes():
    counts = {name: (len(_system(name).generators), _system(name).mor_count)
              for name in ("d8/L", "s6/L", "a6pair/Lplus")}
    assert counts == {"d8/L": (52, 272), "s6/L": (18, 208),
                      "a6pair/Lplus": (21, 324)}


# ---- associativity ---------------------------------------------------------


@pytest.mark.parametrize("name", SYSTEMS)
def test_light_test_agrees_with_the_cubic_scan(name):
    T = _system(name)
    assert _associativity_defect(T) is None
    assert oracles.associativity_reference(T) is None


def test_swapped_composites_fail_associativity_on_d8():
    """d8 has 272 morphisms.  Swapping two composites with the same
    endpoints keeps the bookkeeping and identity checks passing, so
    associativity is the first check that can see it."""
    T = _system("d8/L")
    a, b = _swap_pairs("d8/L")[0]
    table = _swapped_table(T, a, b)
    with pytest.raises(TransporterError, match="composition is not associative"):
        TransporterSystem(T.p, T.s_labels, T.s_mul, T.s_inv, T.objects,
                          T.fusion, T.src, T.dst, T.g_labels, T.pi,
                          oracles.rows_of(table, T.mor_count), T.delta)
    bad = _with_table(T, table)
    assert _associativity_defect(bad) == "composition is not associative"
    assert oracles.associativity_reference(bad) == _associativity_defect(bad)


def test_a_corrupt_projection_of_a_composite_is_refused():
    """`transporter_defect` checks that the projection respects
    composition on generators only.  The projection of a composite that
    is neither a generator nor a window morphism, replaced by that of
    another morphism with the same endpoints, passes every check before
    it, and the generator check still finds it."""
    T = _system("s4/Lcr")
    window = set(T.delta.values())
    m, other = next((m, o) for m in range(T.mor_count)
                    if m not in T.generators and m not in window
                    for o in T.mor(T.src[m], T.dst[m]) if T.pi[o] != T.pi[m])
    pi = list(T.pi)
    pi[m] = T.pi[other]
    with pytest.raises(TransporterError,
                       match="projection does not respect composition"):
        TransporterSystem(T.p, T.s_labels, T.s_mul, T.s_inv, T.objects,
                          T.fusion, T.src, T.dst, T.g_labels, pi, T.comp,
                          T.delta)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_light_test_agrees_on_swapped_tables(data):
    T = _system("s4/Lcr")
    a, b = data.draw(st.sampled_from(_swap_pairs("s4/Lcr")))
    bad = _with_table(T, _swapped_table(T, a, b))
    assert _associativity_defect(bad) == oracles.associativity_reference(bad)


# ---- functors --------------------------------------------------------------


@pytest.mark.parametrize("name", SYSTEMS)
def test_functor_check_agrees_with_the_full_scan(name):
    T = _system(name)
    functors = aut_transporter(T) + inner_auts(T)
    assert functors
    for alpha in functors:
        assert functor_defect(alpha) is None
        assert oracles.functor_defect_reference(alpha) is None


@pytest.mark.parametrize("name", [n for n in SYSTEMS if n != "c2/L"])
def test_swapped_images_are_rejected_by_both(name):
    T = _system(name)
    a, b = next(_hom_pairs(T))
    bad = _swapped_images(identity_functor(T), a, b)
    assert functor_defect(bad) == "composition is not preserved"
    assert oracles.functor_defect_reference(bad) == functor_defect(bad)
    assert not is_transporter_iso(bad)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_functor_check_agrees_on_swapped_images(data):
    T = _system("s4/Lplus")
    alpha = data.draw(st.sampled_from(aut_transporter(T)))
    a, b = data.draw(st.sampled_from(list(_hom_pairs(T))))
    bad = _swapped_images(alpha, a, b)
    assert functor_defect(bad) == oracles.functor_defect_reference(bad)
