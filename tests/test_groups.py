import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loclab import groups, perm
from loclab.groups import (
    GroupBuildError,
    automorphisms,
    centralizer,
    is_characteristic_p,
    normalizer,
    p_core,
    p_residual,
    parse_group,
    quotient_group,
    subgroup_lattice,
    subgroup_view,
    sylow_p,
)

import oracles

S4_DOC = {"degree": 4, "generators": [[[1, 2]], [[1, 2, 3, 4]]]}
D8_DOC = {"degree": 4, "generators": [[[1, 2, 3, 4]], [[1, 3]]]}
A4_DOC = {"degree": 4, "generators": [[[1, 2, 3]], [[1, 2], [3, 4]]]}
A5_DOC = {"degree": 5, "generators": [[[1, 2, 3]], [[3, 4, 5]]]}
C2_DOC = {"degree": 2, "generators": [[[1, 2]]]}


@pytest.fixture(scope="module")
def s4():
    return parse_group(S4_DOC)


@pytest.fixture(scope="module")
def d8():
    return parse_group(D8_DOC)


@pytest.fixture(scope="module")
def a4():
    return parse_group(A4_DOC)


@pytest.fixture(scope="module")
def a5():
    return parse_group(A5_DOC)


def test_parse_group_orders(s4, d8, a4, a5):
    assert s4.order == 24
    assert d8.order == 8
    assert a4.order == 12
    assert a5.order == 60
    assert parse_group(C2_DOC).order == 2


def test_parse_group_matches_naive_closure(d8):
    gens = [perm.cycles_to_perm(g, 4) for g in D8_DOC["generators"]]
    assert list(d8.elements) == oracles.naive_closure(gens, 4)


def test_parse_group_rejects_bad_documents():
    with pytest.raises(GroupBuildError):
        parse_group({"degree": 4})
    with pytest.raises(ValueError):
        parse_group({"degree": 3, "generators": [[[1, 4]]]})
    with pytest.raises(ValueError):
        parse_group({"degree": 4, "generators": [[[1, 1, 2]]]})


def test_closure_cap():
    # symmetric group on 8 points has order 40320 > 10000
    doc = {"degree": 8, "generators": [[[1, 2]], [[1, 2, 3, 4, 5, 6, 7, 8]]]}
    with pytest.raises(GroupBuildError):
        parse_group(doc)


def test_elements_sorted_and_deterministic(s4):
    assert list(s4.elements) == sorted(s4.elements)
    again = parse_group(S4_DOC)
    assert again.elements == s4.elements


def test_subgroup_lattice_counts(s4, d8, a4, a5):
    # frozen: 30 subgroups of S4, 10 of D8, 10 of A4, 59 of A5
    assert len(subgroup_lattice(s4)) == 30
    assert len(subgroup_lattice(d8)) == 10
    assert len(subgroup_lattice(a4)) == 10
    assert len(subgroup_lattice(a5)) == 59


def test_subgroup_lattice_against_pair_closure_oracle(s4, d8, a4):
    for group in (s4, d8, a4):
        lattice = {sub.members for sub in subgroup_lattice(group)}
        seeded = oracles.subset_closures_upto_pairs(group)
        assert seeded <= lattice
        # every lattice member is an actual subgroup
        for members in lattice:
            mem = set(members)
            assert group.identity in mem
            assert all(group.mul(a, b) in mem for a in mem for b in mem)


def test_subgroup_lattice_complete_on_tiny_groups(d8):
    assert {s.members for s in subgroup_lattice(d8)} == oracles.all_subgroups_by_subset_scan(d8)
    c2 = parse_group(C2_DOC)
    assert {s.members for s in subgroup_lattice(c2)} == oracles.all_subgroups_by_subset_scan(c2)


def test_sylow_p(s4, a4, a5):
    syl2 = sylow_p(s4, 2)
    assert syl2.order == 8
    assert sylow_p(s4, 3).order == 3
    assert sylow_p(a4, 2).order == 4
    assert sylow_p(a5, 2).order == 4
    assert sylow_p(a5, 5).order == 5
    # least canonical: re-running yields the same member tuple
    assert sylow_p(s4, 2).members == syl2.members


def test_normalizer_centralizer(s4):
    syl2 = sylow_p(s4, 2)
    c4_members = None
    for sub in subgroup_lattice(s4):
        if sub.order == 4 and set(sub.members) <= set(syl2.members):
            elems = [s4.elements[i] for i in sub.members]
            if any(perm.perm_order(e) == 4 for e in elems):
                c4_members = sub
                break
    assert c4_members is not None
    assert normalizer(s4, c4_members).order == 8
    assert centralizer(s4, c4_members).order == 4
    assert normalizer(s4, syl2).members == syl2.members


def test_p_core_p_residual(s4, a4):
    assert p_core(s4, 2).order == 4  # V4
    assert p_core(s4, 3).order == 1
    assert p_residual(s4, 2).order == 12  # A4
    assert p_residual(a4, 2).order == 12  # A4 has no proper subgroup of odd index
    assert p_residual(a4, 3).order == 4  # V4
    # O^p is normal and the index is a power of p
    res = p_residual(s4, 2)
    assert groups.is_normal(s4, res)
    assert (s4.order // res.order) in (1, 2, 4, 8)


def test_is_characteristic_p(s4, a4):
    assert is_characteristic_p(s4, 2)  # C_S4(V4) = V4
    assert is_characteristic_p(a4, 2)
    assert not is_characteristic_p(s4, 3)
    c2 = parse_group(C2_DOC)
    assert is_characteristic_p(c2, 2)
    assert not is_characteristic_p(c2, 3)


def test_quotient_group(s4):
    v4 = p_core(s4, 2)
    q, coset_of = quotient_group(s4, v4)
    assert q.order == 6
    assert coset_of[s4.identity] == frozenset(v4.members)
    syl3 = sylow_p(s4, 3)
    with pytest.raises(GroupBuildError):
        quotient_group(s4, syl3)


def test_subgroup_view_roundtrip(s4):
    syl2 = sylow_p(s4, 2)
    view = subgroup_view(s4, syl2.members)
    assert view.order == 8
    assert view.tokens == tuple(syl2.members)
    # products agree with the parent through the token identification
    for i in view.indices():
        for j in view.indices():
            assert view.tokens[view.mul(i, j)] == s4.mul(view.tokens[i], view.tokens[j])


def test_automorphisms_counts(d8, s4):
    # frozen: |Aut(D8)| = 8, |Aut(V4)| = 6, |Aut(C2)| = 1
    assert len(automorphisms(d8)) == 8
    v4 = p_core(s4, 2)
    assert len(automorphisms(subgroup_view(s4, v4.members))) == 6
    assert len(automorphisms(parse_group(C2_DOC))) == 1


def test_group_isomorphisms_cross_carrier(s4, d8):
    syl = sylow_p(s4, 2)
    view = subgroup_view(s4, syl.members)
    isos = groups.group_isomorphisms(view, d8)
    assert len(isos) == 8  # D8 has 8 automorphisms, so 8 isomorphisms onto it
    phi = isos[0]
    for i in view.indices():
        for j in view.indices():
            assert phi[view.mul(i, j)] == d8.mul(phi[i], phi[j])
    assert groups.group_isomorphisms(view, parse_group(C2_DOC)) == []


def test_group_isomorphisms_match_the_reference(s4, d8):
    view = subgroup_view(s4, sylow_p(s4, 2).members)
    for source, target in ((view, d8), (d8, view), (d8, d8), (s4, s4),
                           (view, parse_group(C2_DOC))):
        assert groups.group_isomorphisms(source, target) \
            == oracles.group_isomorphisms_reference(source, target)


@given(st.data())
@settings(max_examples=25, deadline=None)
def test_subgroup_closure_properties(data):
    group = parse_group(D8_DOC)
    seed = data.draw(st.sets(st.integers(min_value=0, max_value=group.order - 1), max_size=3))
    closed = groups.subgroup_closure(group, seed)
    mem = set(closed)
    assert group.identity in mem
    assert set(seed) <= mem
    assert all(group.mul(a, b) in mem for a in mem for b in mem)
    assert all(group.inv(a) in mem for a in mem)
    # idempotent
    assert groups.subgroup_closure(group, closed) == closed


@given(st.integers(min_value=0, max_value=23), st.integers(min_value=0, max_value=23))
@settings(max_examples=40, deadline=None)
def test_conjugation_is_action(i, g):
    group = parse_group(S4_DOC)
    h = group.inv(g)
    assert group.conj(group.conj(i, g), h) == i
    assert group.conj(i, group.identity) == i
