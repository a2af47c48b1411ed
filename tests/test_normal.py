"""Partial normal subgroups: enumeration, quotients, the NS sub-locality,
the correspondence across a restriction, and normalizer factorizations."""

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from loclab import cli
from loclab.fusion import FusionSystem, fusion_from_locality
from loclab.groups import (
    TableGroup,
    parse_group,
    subgroup_lattice,
    subgroup_view,
    sylow_p,
)
from loclab.locality import locality_from_group, restriction, validate_locality
from loclab.normal import (
    DecompositionNotFound,
    NormalError,
    alperin_decompose,
    enumerate_partial_normal,
    is_invariant_subsystem,
    is_linking_locality,
    linking_defect,
    normal_closure,
    ns_locality,
    partial_normal_defect,
    partial_normal_fusion,
    phi_map,
    quotient,
    verify_normal_correspondence,
)

import oracles

S4_DOC = {"degree": 4, "generators": [[[1, 2]], [[1, 2, 3, 4]]]}
S5_DOC = {"degree": 5, "generators": [[[1, 2]], [[1, 2, 3, 4, 5]]]}
D8_DOC = {"degree": 4, "generators": [[[1, 2, 3, 4]], [[1, 3]]]}

_CACHE = {}


def _sylow_family(group, p):
    syl = sylow_p(group, p)
    view = subgroup_view(group, syl.members)
    return [frozenset(view.tokens[i] for i in sub.members)
            for sub in subgroup_lattice(view)]


def _s4_data():
    """S4 at p = 2: the centric-radical locality, the one over all
    subgroups of order at least 4, and the restriction back down."""
    if "s4" not in _CACHE:
        g = parse_group(S4_DOC)
        subs = _sylow_family(g, 2)
        v4n = next(P for P in subs if {g.label(i) for i in P} ==
                   {"()", "(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"})
        d8 = next(P for P in subs if len(P) == 8)
        loc_cr = locality_from_group(g, 2, [v4n, d8])
        loc_plus = locality_from_group(g, 2, [P for P in subs if len(P) >= 4])
        keep = [P for P in loc_plus.objects
                if frozenset(loc_plus.carrier[x] for x in P) in {v4n, d8}]
        restr = restriction(loc_plus, keep)
        _CACHE["s4"] = (g, loc_cr, loc_plus, restr)
    return _CACHE["s4"]


def _s5_data():
    """S5 at p = 2: objects meeting a transposition, optionally enlarged
    by the Klein four-group of double transpositions."""
    if "s5" not in _CACHE:
        g = parse_group(S5_DOC)
        subs = _sylow_family(g, 2)
        fam = [P for P in subs if len(P) > 1 and
               any(g.element_order(i) == 2 and g.label(i).count("(") == 1
                   for i in P)]
        v4n = next(P for P in subs if len(P) == 4 and
                   all(g.label(i).count("(") == 2
                       for i in P if i != g.identity))
        loc_plus = locality_from_group(g, 2, fam + [v4n])
        famset = {frozenset(F) for F in fam}
        keep = [P for P in loc_plus.objects
                if frozenset(loc_plus.carrier[x] for x in P) in famset]
        restr = restriction(loc_plus, keep)
        _CACHE["s5"] = (g, loc_plus, restr)
    return _CACHE["s5"]


def _s4_family():
    if "s4fam" not in _CACHE:
        _, loc_cr, loc_plus, restr = _s4_data()
        _CACHE["s4fam"] = (enumerate_partial_normal(loc_cr),
                           enumerate_partial_normal(loc_plus),
                           enumerate_partial_normal(restr))
    return _CACHE["s4fam"]


def _by_order(family, k):
    return next(n for n in family if len(n) == k)


# ---- enumeration against independent oracles ----------------------------


def test_enumeration_matches_the_conjugation_block_oracle():
    _, loc_cr, loc_plus, restr = _s4_data()
    fam_cr, fam_plus, fam_restr = _s4_family()
    for loc, fam in [(loc_cr, fam_cr), (loc_plus, fam_plus),
                     (restr, fam_restr)]:
        assert ({n.members for n in fam} ==
                set(oracles.blockwise_partial_normals(loc.pg)))


def test_s5_enumeration_matches_the_conjugation_block_oracle():
    _, loc_plus, restr = _s5_data()
    for loc in (loc_plus, restr):
        fam = enumerate_partial_normal(loc)
        assert ({n.members for n in fam} ==
                set(oracles.blockwise_partial_normals(loc.pg)))


def test_p_group_locality_has_the_normal_subgroups_of_the_group():
    """Over the full subgroup family of a 2-group, the carrier is the
    whole group and the partial normals are the ordinary normal
    subgroups; the tiny size also lets the power-set oracle run."""
    g = parse_group(D8_DOC)
    subs = _sylow_family(g, 2)
    assert any(len(P) == 1 for P in subs)
    loc = locality_from_group(g, 2, subs)
    assert loc.size == g.order and loc.pg.is_full_domain
    fam = enumerate_partial_normal(loc)
    got = {frozenset(loc.carrier[x] for x in n.members) for n in fam}
    normals = set()
    for sub in subs:
        if all(g.conj(x, h) in sub for x in sub for h in range(g.order)):
            normals.add(frozenset(sub))
    assert got == normals
    assert sorted(len(n) for n in fam) == [1, 2, 4, 4, 4, 8]
    assert ({n.members for n in fam} ==
            set(oracles.powerset_partial_normals(loc.pg)))
    assert ({n.members for n in fam} ==
            set(oracles.blockwise_partial_normals(loc.pg)))


def test_s4_orders_are_stable_across_the_object_families():
    fam_cr, fam_plus, fam_restr = _s4_family()
    assert [len(n) for n in fam_cr] == [1, 4, 12, 24]
    assert [len(n) for n in fam_plus] == [1, 4, 12, 24]
    assert [len(n) for n in fam_restr] == [1, 4, 12, 24]
    assert [len(n.t) for n in fam_plus] == [1, 4, 4, 8]
    assert len(fam_cr) == len(fam_plus)


def test_partial_normal_set_basics():
    _, _, loc_plus, _ = _s4_data()
    _, fam_plus, _ = _s4_family()
    chain = [_by_order(fam_plus, k) for k in (1, 4, 12, 24)]
    for small, big in zip(chain, chain[1:]):
        assert small <= big and not big <= small
    assert chain[1].labels() == ["()", "(1 2)(3 4)", "(1 3)(2 4)",
                                 "(1 4)(2 3)"]
    assert repr(chain[2]) == "PartialNormalSet(order=12)"
    assert len(chain[3]) == loc_plus.size


def test_defect_messages_name_the_broken_axiom():
    _, _, loc_plus, _ = _s4_data()
    _, fam_plus, _ = _s4_family()
    pg = loc_plus.pg
    v4 = _by_order(fam_plus, 4).members
    assert partial_normal_defect(loc_plus, v4) is None
    no_id = v4 - {pg.identity}
    assert "identity" in partial_normal_defect(loc_plus, no_id)
    dropped = frozenset(sorted(v4)[:2])
    message = partial_normal_defect(loc_plus, dropped)
    assert "leaves the set" in message
    trans = next(f for f in range(pg.size) if pg.labels[f] == "(1 2)")
    message = partial_normal_defect(loc_plus, {pg.identity, trans})
    assert "leaves the set" in message and "^" in message


# ---- normal closure ------------------------------------------------------


def test_closure_frozen_values():
    _, _, loc_plus, _ = _s4_data()
    _, fam_plus, _ = _s4_family()
    pg = loc_plus.pg
    assert normal_closure(loc_plus, []).members == {pg.identity}
    trans = next(f for f in range(pg.size) if pg.labels[f] == "(1 2)")
    assert len(normal_closure(loc_plus, [trans])) == loc_plus.size
    cyc = next(f for f in range(pg.size) if pg.labels[f] == "(1 2 3)")
    assert normal_closure(loc_plus, [cyc]) == _by_order(fam_plus, 12)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_closure_is_a_closure_operator(data):
    _, _, loc_plus, _ = _s4_data()
    _, fam_plus, _ = _s4_family()
    seed = data.draw(st.lists(st.integers(0, loc_plus.size - 1), max_size=3))
    n = normal_closure(loc_plus, seed)
    assert set(seed) <= n.members
    assert normal_closure(loc_plus, n.members) == n
    assert n.members in {m.members for m in fam_plus}
    extra = data.draw(st.integers(0, loc_plus.size - 1))
    assert n <= normal_closure(loc_plus, [*seed, extra])


# ---- quotients -----------------------------------------------------------


def test_quotient_by_the_klein_four_subgroup():
    _, _, loc_plus, _ = _s4_data()
    _, fam_plus, _ = _s4_family()
    q = quotient(loc_plus, _by_order(fam_plus, 4))
    assert q.locality.size == 6
    assert len(q.locality.s) == 2
    assert sorted(len(P) for P in q.locality.objects) == [1, 2]
    assert q.locality.pg.labels == ("[()]", "[(3 4)]", "[(2 3)]",
                                    "[(2 3 4)]", "[(2 4 3)]", "[(2 4)]")
    # a quotient has no ambient group: the word scans check it
    assert oracles.validate_by_words(q.locality, 4).ok
    ident = q.locality.pg.identity
    kernel = q.classes[ident]
    assert kernel == _by_order(fam_plus, 4).members


def test_quotient_classes_are_cosets_in_the_ambient_group():
    g, _, loc_plus, _ = _s4_data()
    _, fam_plus, _ = _s4_family()
    n = _by_order(fam_plus, 4)
    q = quotient(loc_plus, n)
    n_amb = {loc_plus.carrier[x] for x in n.members}
    for cls in q.classes:
        rep = loc_plus.carrier[min(cls)]
        coset = {g.mul(x, rep) for x in n_amb}
        assert {loc_plus.carrier[f] for f in cls} == coset


def test_quotient_by_the_trivial_subgroup_relabels_in_place():
    _, _, loc_plus, _ = _s4_data()
    _, fam_plus, _ = _s4_family()
    q = quotient(loc_plus, fam_plus[0])
    assert q.locality.size == loc_plus.size
    assert list(q.projection) == list(range(loc_plus.size))
    for a in range(loc_plus.size):
        for b in range(loc_plus.size):
            assert q.locality.pg.pair(a, b) == loc_plus.pg.pair(a, b)


def test_quotient_by_the_whole_carrier_is_a_point():
    _, _, loc_plus, _ = _s4_data()
    _, fam_plus, _ = _s4_family()
    q = quotient(loc_plus, fam_plus[-1])
    assert q.locality.size == 1


def test_quotient_induces_a_fusion_epimorphism():
    _, _, loc_plus, _ = _s4_data()
    _, fam_plus, _ = _s4_family()
    q = quotient(loc_plus, _by_order(fam_plus, 4))
    big = fusion_from_locality(loc_plus)
    small = fusion_from_locality(q.locality)
    beta = {x: q.projection[x] for x in loc_plus.pg.s_members}
    assert big.epimorphism_defect(small, beta) is None


def test_quotient_rejects_a_subgroup_of_another_locality():
    _, loc_cr, loc_plus, _ = _s4_data()
    fam_cr, _, _ = _s4_family()
    with pytest.raises(NormalError, match="different locality"):
        quotient(loc_plus, _by_order(fam_cr, 4))


def test_s5_quotients_validate():
    _, loc_plus, _ = _s5_data()
    sizes = {}
    for n in enumerate_partial_normal(loc_plus):
        if 1 < len(n) < loc_plus.size:
            q = quotient(loc_plus, n)
            sizes[len(n)] = q.locality.size
            assert oracles.validate_by_words(q.locality, 4).ok
    assert sizes == {5: 24, 20: 6, 28: 2}


# ---- the NS sub-locality -------------------------------------------------


def test_ns_locality_sizes_on_s4():
    _, _, loc_plus, _ = _s4_data()
    _, fam_plus, _ = _s4_family()
    got = {len(n): ns_locality(loc_plus, n).size for n in fam_plus}
    assert got == {1: 8, 4: 8, 12: 24, 24: 24}
    ns1 = ns_locality(loc_plus, fam_plus[0])
    assert ns1.pg.is_full_domain
    assert validate_locality(ns_locality(loc_plus,
                                         _by_order(fam_plus, 4)), k=4).ok


def test_ns_locality_sizes_on_s5():
    _, loc_plus, _ = _s5_data()
    got = {len(n): ns_locality(loc_plus, n).size
           for n in enumerate_partial_normal(loc_plus)}
    assert got == {1: 8, 5: 40, 20: 40, 28: 56, 56: 56}


# ---- linking locality predicate -----------------------------------------


def test_s4_localities_are_linking():
    _, loc_cr, loc_plus, restr = _s4_data()
    for loc in (loc_cr, loc_plus, restr):
        assert linking_defect(loc) is None
        assert is_linking_locality(loc)


def test_s5_transposition_family_is_not_linking():
    """The normalizer of a transposition has a nontrivial odd-order
    centralizer, so these localities fail the characteristic-p test."""
    _, loc_plus, restr = _s5_data()
    for loc in (loc_plus, restr):
        message = linking_defect(loc)
        assert message is not None and "characteristic 2" in message
        assert not is_linking_locality(loc)


# ---- fusion subsystems of partial normals --------------------------------


def test_klein_four_subsystem_of_the_order_twelve_normal():
    _, _, loc_plus, _ = _s4_data()
    _, fam_plus, _ = _s4_family()
    sub = partial_normal_fusion(loc_plus, _by_order(fam_plus, 12))
    labels = [loc_plus.pg.labels[i] for i in sub.s]
    assert labels == ["()", "(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"]
    assert len(sub.subgroups) == 5
    assert len(sub.hom_set(sub.s, sub.s)) == 3
    two = [P for P in sub.subgroups if len(P) == 2]
    assert [len(sub.hom_set(P, sub.s)) for P in two] == [3, 3, 3]
    assert len(sub.conjugacy_class(two[0])) == 3
    assert is_invariant_subsystem(fusion_from_locality(loc_plus), sub)


def test_invariance_fails_without_strong_closure():
    _, loc_cr, _, _ = _s4_data()
    big = fusion_from_locality(loc_cr)
    pg = loc_cr.pg
    g = _s4_data()[0]
    c4 = next(P for P in big.subgroups if len(P) == 4 and
              any(g.element_order(loc_cr.carrier[x]) == 4 for x in P))
    assert not big.is_strongly_closed(c4)

    def mul(a, b):
        return pg.pair(a, b)

    view = TableGroup(c4, mul, label_fn=lambda i: pg.labels[i])
    subs = [tuple(sorted(view.tokens[i] for i in h.members))
            for h in subgroup_lattice(view)]
    rigid = FusionSystem(2, c4, mul, lambda i: pg.inv[i],
                         {P: frozenset({P}) for P in subs},
                         label_fn=lambda i: pg.labels[i])
    assert not is_invariant_subsystem(big, rigid)


# ---- correspondence across a restriction ---------------------------------


def test_phi_map_is_intersection_on_the_s4_pair():
    _, _, loc_plus, restr = _s4_data()
    pairs = phi_map(loc_plus, restr)
    assert len(pairs) == 4
    back = {restr.parent_index[f]: f for f in range(restr.size)}
    for n_plus, n_small in pairs:
        expected = {back[f] for f in n_plus.members if f in back}
        assert n_small.members == frozenset(expected)


def test_correspondence_report_on_the_s4_pair():
    _, _, loc_plus, restr = _s4_data()
    report = verify_normal_correspondence(loc_plus, restr)
    assert report["ok"]
    assert report["count_plus"] == 4 and report["count"] == 4
    assert report["bijective"]
    assert report["inclusion_preserving"]
    assert report["inverse_inclusion_preserving"]
    assert report["fusion_ok"]
    assert report["product_equivalence"]
    rows = report["fusion_rows"]
    assert [row["order"] for row in rows] == [1, 4, 12, 24]
    assert all(row["invariant"] and row["fusion_equal"] for row in rows)


def test_correspondence_requires_linking_localities():
    _, loc_plus, restr = _s5_data()
    with pytest.raises(NormalError, match="not linking"):
        verify_normal_correspondence(loc_plus, restr)


def test_s5_families_differ_without_the_linking_hypothesis():
    """Dropping the linking hypothesis breaks the correspondence: the
    enlarged locality has five partial normals, the restriction seven."""
    _, loc_plus, restr = _s5_data()
    plus_orders = [len(n) for n in enumerate_partial_normal(loc_plus)]
    small_orders = [len(n) for n in enumerate_partial_normal(restr)]
    assert plus_orders == [1, 5, 20, 28, 56]
    assert small_orders == [1, 5, 10, 20, 20, 20, 40]
    assert len(plus_orders) != len(small_orders)


# ---- factorizations through object normalizers ---------------------------


def test_three_cycle_factors_through_the_klein_four_normalizer():
    _, _, loc_plus, _ = _s4_data()
    _, fam_plus, _ = _s4_family()
    n_a4 = _by_order(fam_plus, 12)
    pg = loc_plus.pg
    cyc = next(f for f in range(pg.size) if pg.labels[f] == "(1 2 3)")
    t, factors = alperin_decompose(loc_plus, n_a4, cyc)
    assert t in n_a4.t
    assert len(factors) == 1
    m, obj = factors[0]
    assert sorted(pg.labels[x] for x in obj) == ["()", "(1 2)(3 4)",
                                                 "(1 3)(2 4)", "(1 4)(2 3)"]
    assert pg.product((t, m)) == cyc


def test_degenerate_factorizations():
    _, _, loc_plus, _ = _s4_data()
    _, fam_plus, _ = _s4_family()
    n_a4 = _by_order(fam_plus, 12)
    pg = loc_plus.pg
    assert alperin_decompose(loc_plus, n_a4, pg.identity) == (pg.identity, [])
    t_elt = max(n_a4.t)
    assert alperin_decompose(loc_plus, n_a4, t_elt) == (t_elt, [])


def test_transposition_factors_in_the_full_carrier():
    _, _, loc_plus, _ = _s4_data()
    _, fam_plus, _ = _s4_family()
    n_full = fam_plus[-1]
    pg = loc_plus.pg
    trans = next(f for f in range(pg.size) if pg.labels[f] == "(2 3)")
    t, factors = alperin_decompose(loc_plus, n_full, trans)
    assert pg.labels[t] == "(3 4)"
    assert [pg.labels[m] for m, _ in factors] == ["(2 3 4)"]


def test_every_member_decomposes_and_the_word_multiplies_back():
    _, _, loc_plus, _ = _s4_data()
    _, fam_plus, _ = _s4_family()
    n_a4 = _by_order(fam_plus, 12)
    pg = loc_plus.pg
    for x in sorted(n_a4.members):
        t, factors = alperin_decompose(loc_plus, n_a4, x)
        assert t in n_a4.t
        word = (t,) + tuple(m for m, _ in factors)
        assert pg.word_in_domain(word) and pg.product(word) == x
        for m, obj in factors:
            assert pg.s_f(m) == obj and m in n_a4.members


def test_factorization_bound_failure_is_reported():
    _, _, loc_plus, _ = _s4_data()
    _, fam_plus, _ = _s4_family()
    n_a4 = _by_order(fam_plus, 12)
    pg = loc_plus.pg
    cyc = next(f for f in range(pg.size) if pg.labels[f] == "(1 2 3)")
    with pytest.raises(DecompositionNotFound, match="at most 0"):
        alperin_decompose(loc_plus, n_a4, cyc, k_max=0)
    with pytest.raises(NormalError, match="not in the subgroup"):
        trans = next(f for f in range(pg.size) if pg.labels[f] == "(1 2)")
        alperin_decompose(loc_plus, n_a4, trans)


@pytest.mark.parametrize("verb", [["enumerate", "partial-normal"], ["report"]])
def test_small_enum_cap_fails_the_enumeration_with_a_witness(verb, capsys):
    """A cap below the carrier size is a failing check, not a crash."""
    path = os.path.join(os.path.dirname(__file__), "..", "fixtures", "s4.json")
    assert cli.main([*verb, path, "--enum-cap", "10"]) == 1
    doc = json.loads(capsys.readouterr().out)
    section = next(s for s in doc["sections"]
                   if s["name"] == "enumerate partial-normal")
    assert section["checks"] == [
        {"name": f"{name}: partial normal enumeration within budget",
         "ok": False, "detail": "carrier size 24 exceeds cap 10"}
        for name in ("Lcr", "Lplus")]
    assert not section.get("items")


def test_enum_cap_bounds_the_theorem_c_enumerations(capsys):
    """theoremC enumerates with the cap of the command line, not a fixed
    one, and reports a carrier over the cap as a failing check."""
    path = os.path.join(os.path.dirname(__file__), "..", "fixtures", "s4.json")
    assert cli.main(["verify", "theoremC", path, "--enum-cap", "10"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["sections"][0]["checks"] == [
        {"name": "Lcr <= Lplus: correspondence applies", "ok": False,
         "detail": "carrier size 24 exceeds cap 10"}]
    assert cli.main(["verify", "theoremC", path, "--enum-cap", "24"]) == 0
    capsys.readouterr()
