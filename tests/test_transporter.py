"""Transporter categories: builders, axioms, the locality round trip,
functors, automorphism counts, and linking-system structure facts."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from loclab import transporter
from loclab.extension import (automorphism_group, compose_maps, hom_completions,
                              iso_defect)
from loclab.fixtures import build_fixture
from loclab.groups import (
    is_characteristic_p,
    parse_group,
    subgroup_lattice,
    subgroup_view,
    sylow_p,
)
from loclab.locality import locality_from_group
from loclab.transporter import (
    CategoryFunctor,
    TransporterError,
    _enumerate_functors_directly,
    aut_transporter,
    classify_functor,
    compose_functors,
    conjugation_functor,
    full_subcategory,
    identity_functor,
    inner_auts,
    invert_functor,
    iota_map,
    is_linking_system,
    is_transporter_iso,
    lambda_map,
    linking_system_defect,
    linking_system_report,
    locality_of_transporter,
    out_typ,
    same_category,
    transporter_classes,
    transporter_of_group,
    transporter_of_locality,
)

import oracles

S4_DOC = {"degree": 4, "generators": [[[1, 2]], [[1, 2, 3, 4]]]}
D8_DOC = {"degree": 4, "generators": [[[1, 2, 3, 4]], [[1, 3]]]}
C2_DOC = {"degree": 2, "generators": [[[1, 2]]]}
S5_DOC = {"degree": 5, "generators": [[[1, 2]], [[1, 2, 3, 4, 5]]]}

ROOT = os.path.join(os.path.dirname(__file__), "..")

# every fixture system within the direct search's cap of 3 objects and
# 200 morphisms, by fixture file
CAPPED = {"a4/L": "fixtures/a4.json", "c2/L": "fixtures/c2.json",
          "s4/Lcr": "fixtures/s4.json", "psl27/L": "bench/fixtures/psl27.json",
          "a6pair/Lcr": "bench/fixtures/a6pair.json"}
CAPPED_NAMES = [n for base in CAPPED for n in (base, f"{base} bridge")]

_CACHE = {}


def _capped_system(name):
    """The system of a capped fixture locality, or of its bridge."""
    if name not in _CACHE:
        base = name.removesuffix(" bridge")
        bundle, _ = build_fixture(os.path.join(ROOT, CAPPED[base]))
        T = transporter_of_locality(bundle.localities[base.split("/")[1]])
        _CACHE[base] = T
        _CACHE[f"{base} bridge"] = transporter_of_locality(
            locality_of_transporter(T))
    return _CACHE[name]


def _sylow_family(group, p):
    syl = sylow_p(group, p)
    view = subgroup_view(group, syl.members)
    return [frozenset(view.tokens[i] for i in sub.members)
            for sub in subgroup_lattice(view)]


def _s4():
    if "s4" not in _CACHE:
        g = parse_group(S4_DOC)
        subs = _sylow_family(g, 2)
        v4n = next(P for P in subs if {g.label(i) for i in P} ==
                   {"()", "(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"})
        d8 = next(P for P in subs if len(P) == 8)
        loc_cr = locality_from_group(g, 2, [v4n, d8])
        loc_plus = locality_from_group(g, 2, [P for P in subs if len(P) >= 4])
        T_cr = transporter_of_locality(loc_cr)
        T_plus = transporter_of_locality(loc_plus)
        _CACHE["s4"] = (g, v4n, d8, loc_cr, loc_plus, T_cr, T_plus)
    return _CACHE["s4"]


def _fresh_s4_cr():
    """A new Lcr of S4 and its system, sharing no memo with `_s4`."""
    g = parse_group(S4_DOC)
    subs = _sylow_family(g, 2)
    v4n = next(P for P in subs if {g.label(i) for i in P} ==
               {"()", "(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"})
    d8 = next(P for P in subs if len(P) == 8)
    loc = locality_from_group(g, 2, [v4n, d8])
    return loc, transporter_of_locality(loc)


def _d8():
    if "d8" not in _CACHE:
        g = parse_group(D8_DOC)
        loc = locality_from_group(g, 2, _sylow_family(g, 2))
        _CACHE["d8"] = (g, loc, transporter_of_locality(loc))
    return _CACHE["d8"]


# ---- builders and counts ---------------------------------------------------


def test_one_object_category_of_a_tiny_group():
    g = parse_group(C2_DOC)
    loc = locality_from_group(g, 2, [frozenset(sylow_p(g, 2).members)])
    T = transporter_of_locality(loc)
    assert len(T.objects) == 1
    assert T.mor_count == 2
    L = locality_of_transporter(T)
    assert L.size == 2
    assert sorted(L.pg.labels) == ["()", "(1 2)"]


def test_category_of_the_two_object_locality():
    g, v4n, d8, loc_cr, _, T_cr, _ = _s4()
    assert len(T_cr.objects) == 2
    assert T_cr.mor_count == 56
    counts = {(i, j): len(T_cr.mor(i, j)) for i in range(2) for j in range(2)}
    assert counts == {(0, 0): 24, (0, 1): 24, (1, 0): 0, (1, 1): 8}
    assert len(T_cr.objects[0]) == 4 and len(T_cr.objects[1]) == 8


def test_object_automorphisms_match_the_normalizer():
    g, v4n, d8, loc_cr, _, T_cr, _ = _s4()
    table = T_cr.aut_table(0)
    assert table.order == 24
    carrier = {loc_cr.pg.labels[x] for x in loc_cr.n_of(
        next(P for P in loc_cr.objects if len(P) == 4))}
    assert table.order == len(carrier)


def test_larger_object_family_has_more_morphisms():
    _, _, _, _, _, _, T_plus = _s4()
    assert len(T_plus.objects) == 4
    assert T_plus.mor_count == 88


def test_group_built_category_matches_the_locality_built_one():
    g, v4n, d8, loc_cr, _, T_cr, _ = _s4()
    T_grp = transporter_of_group(g, [v4n, d8])
    assert same_category(T_cr, T_grp)
    assert not same_category(T_cr, _s4()[6])


def test_group_built_morphism_sets_count_carriers():
    g, v4n, d8, _, _, _, _ = _s4()
    T = transporter_of_group(g, [v4n, d8])
    for i, P in enumerate([v4n, d8]):
        for j, Q in enumerate([v4n, d8]):
            direct = sum(1 for x in g.indices()
                         if all(g.conj(y, g.inv(x)) in Q for y in P))
            assert len(T.mor(T.object_index(
                {sorted(d8).index(t) for t in P}),
                T.object_index({sorted(d8).index(t) for t in Q}))) == direct


def test_group_builder_rejects_a_non_p_family():
    g, v4n, d8, _, _, _, _ = _s4()
    with pytest.raises(TransporterError, match="not a p-group"):
        transporter_of_group(g, [frozenset(g.indices())], p=2)


# ---- full subcategories ----------------------------------------------------


def test_full_subcategory_between_the_two_families():
    _, _, _, _, _, T_cr, T_plus = _s4()
    sub = full_subcategory(T_plus, [set(P) for P in T_cr.objects])
    assert same_category(sub, T_cr)
    assert same_category(
        full_subcategory(T_plus, [set(P) for P in T_plus.objects]), T_plus)


def test_full_subcategory_requires_overgroups():
    _, _, _, _, _, T_cr, T_plus = _s4()
    small = next(P for P in T_plus.objects if len(P) == 4)
    with pytest.raises(TransporterError, match="overgroup"):
        full_subcategory(T_plus, [set(small)])


def test_full_subcategory_requires_conjugates():
    """An up-closed family that keeps one reflection subgroup but drops
    its conjugate partner is rejected on the conjugacy condition."""
    _, _, T_d8 = _d8()
    lab = {i: {T_d8.s_labels[t] for t in P}
           for i, P in enumerate(T_d8.objects)}
    drop = {next(i for i, s in lab.items() if s == {"()", "(2 4)"}),
            next(i for i, s in lab.items() if s == {"()"})}
    keep = [set(T_d8.objects[i]) for i in lab if i not in drop]
    with pytest.raises(TransporterError, match="conjugate"):
        full_subcategory(T_d8, keep)


# ---- the locality bridge ---------------------------------------------------


def test_round_trip_gives_an_isomorphic_locality():
    _, _, _, loc_cr, _, T_cr, _ = _s4()
    L2 = locality_of_transporter(T_cr)
    assert L2.size == 24
    # the bridge has no ambient group: the word scans check it
    assert oracles.validate_by_words(L2, 4).ok
    by_label = {L2.pg.labels[y]: y for y in range(L2.size)}
    alpha = tuple(by_label[loc_cr.pg.labels[x]] for x in range(loc_cr.size))
    assert iso_defect(loc_cr, L2, alpha) is None


def test_round_trip_has_an_identity_on_s_witness():
    _, _, _, loc_cr, _, T_cr, _ = _s4()
    L2 = locality_of_transporter(T_cr)
    by_label = {L2.pg.labels[y]: y for y in range(L2.size)}
    pin = {x: by_label[loc_cr.pg.labels[x]] for x in loc_cr.pg.s_members}
    rigid = [a for a in hom_completions(loc_cr, L2, pin)
             if iso_defect(loc_cr, L2, a) is None]
    assert len(rigid) == 2


def test_round_trip_on_a_p_group():
    g, loc, T = _d8()
    assert len(T.objects) == 10
    assert T.mor_count == 272
    L2 = locality_of_transporter(T)
    assert L2.size == 8
    by_label = {L2.pg.labels[y]: y for y in range(L2.size)}
    alpha = tuple(by_label[loc.pg.labels[x]] for x in range(loc.size))
    assert iso_defect(loc, L2, alpha) is None


def test_class_tokens_cover_the_invertibles():
    _, _, _, _, _, T_cr, _ = _s4()
    classes = transporter_classes(T_cr)
    assert set(classes) == set(T_cr.iso_ids())
    assert len(set(classes.values())) == 24


def test_included_classes_give_the_restricted_locality():
    _, _, _, _, _, T_cr, T_plus = _s4()
    sub = full_subcategory(T_plus, [set(P) for P in T_cr.objects])
    target, emb = iota_map(sub)
    assert len(emb) == 24
    assert sorted(emb) == list(range(24))
    with pytest.raises(TransporterError, match="full subcategory"):
        iota_map(T_cr)


# ---- functors --------------------------------------------------------------


def test_identity_functor_has_every_flag():
    _, _, _, _, _, T_cr, _ = _s4()
    flags = classify_functor(identity_functor(T_cr))
    assert flags == {"functor": True, "equivalence": True, "isotypical": True,
                     "inclusion_preserving": True, "rigid": True}


def test_functor_composition_and_inverse():
    _, _, _, _, _, T_cr, _ = _s4()
    auts = aut_transporter(T_cr)
    ident = identity_functor(T_cr).morphism_map
    for a in auts:
        assert compose_functors(invert_functor(a), a).morphism_map == ident
        assert compose_functors(a, invert_functor(a)).morphism_map == ident


def test_conjugation_functor_needs_a_full_automorphism():
    _, _, _, _, _, T_cr, _ = _s4()
    not_s = next(m for m in T_cr.iso_ids()
                 if T_cr.src[m] == 0 and T_cr.dst[m] == 0)
    with pytest.raises(TransporterError, match="automorphism of S"):
        conjugation_functor(T_cr, not_s)


def test_transported_identity_is_the_identity():
    _, _, _, _, _, T_cr, _ = _s4()
    lam = lambda_map(identity_functor(T_cr))
    assert lam == tuple(range(24))


def test_transported_maps_compose():
    _, _, _, _, _, T_cr, _ = _s4()
    auts = aut_transporter(T_cr)
    for a in auts[:3]:
        for b in auts[:3]:
            assert lambda_map(compose_functors(a, b)) == compose_maps(
                lambda_map(b), lambda_map(a))


def test_transported_conjugation_is_conjugation_downstairs():
    _, _, _, _, _, T_cr, _ = _s4()
    L2 = locality_of_transporter(T_cr)
    pg = L2.pg
    classes = transporter_classes(T_cr)
    s_idx = T_cr.object_index(frozenset(range(len(T_cr.s_labels))))
    for gamma in T_cr.mor(s_idx, s_idx):
        lam = lambda_map(conjugation_functor(T_cr, gamma))
        h = classes[gamma]
        for f in range(pg.size):
            w = (h, f, pg.inv[h])
            assert pg.word_in_domain(w)
            assert pg.product(w) == lam[f]


def test_transported_maps_are_distinct_per_functor():
    _, _, _, _, _, T_cr, _ = _s4()
    auts = aut_transporter(T_cr)
    assert len({lambda_map(a) for a in auts}) == len(auts)


def test_inclusion_twist_is_spotted():
    """Conjugating every morphism by a per-object window element is still
    an isotypical self-equivalence, but it moves the inclusions."""
    _, _, _, _, _, T_cr, _ = _s4()
    lab = {x: T_cr.s_labels[x] for x in range(len(T_cr.s_labels))}
    legs = {}
    for i, P in enumerate(T_cr.objects):
        pick = (next(x for x in P if lab[x] == "(1 2)(3 4)")
                if len(P) == 4 else T_cr.s_identity)
        legs[i] = T_cr.delta[(i, i, pick)]
    compose = oracles.compose_dict(T_cr)
    mor_map = []
    for m in range(T_cr.mor_count):
        i, j = T_cr.src[m], T_cr.dst[m]
        mor_map.append(compose[(compose[(legs[j], m)], T_cr.inverse(legs[i]))])
    twist = CategoryFunctor(T_cr, T_cr, tuple(range(len(T_cr.objects))),
                            tuple(mor_map))
    flags = classify_functor(twist)
    assert flags["functor"] and flags["equivalence"] and flags["isotypical"]
    assert not flags["inclusion_preserving"]
    assert not is_transporter_iso(twist)
    with pytest.raises(TransporterError, match="not an isomorphism"):
        lambda_map(twist)


def test_a_forged_lift_of_a_non_generator_is_refused(monkeypatch):
    """`aut_transporter` classifies the lifts of the generators of Aut(L)
    only, and requires every other lift to be one of their composites.
    The lift of one non-generator with two images swapped is not, and is
    refused, before the direct enumeration runs."""
    _, T = _fresh_s4_cr()
    group = automorphism_group(locality_of_transporter(T))
    target = next(group.tokens[i] for i in range(group.order)
                  if i not in group.generators and i != group.identity)
    real = transporter._lift_locality_aut
    forged = []

    def lift(system, sigma):
        alpha = real(system, sigma)
        if system is T and tuple(sigma) == target:
            a, b = next(_hom_set_pairs(T))
            images = list(alpha.morphism_map)
            images[a], images[b] = images[b], images[a]
            alpha = CategoryFunctor(T, T, alpha.object_map, tuple(images))
            forged.append(alpha)
        return alpha

    monkeypatch.setattr(transporter, "_lift_locality_aut", lift)
    with pytest.raises(TransporterError, match="not the closure of the "
                       "certified generator lifts"):
        aut_transporter(T)
    assert len(forged) == 1 and not is_transporter_iso(forged[0])


def _hom_set_pairs(T):
    """Pairs of non-identity morphisms in one hom set, in id order."""
    idents = set(T.identity_ids.values())
    for i in range(len(T.objects)):
        for j in range(len(T.objects)):
            ids = [m for m in T.mor(i, j) if m not in idents]
            yield from ((a, b) for k, a in enumerate(ids) for b in ids[k + 1:])


def test_descent_is_decided_by_membership():
    """A self-map of one system descends to a certified automorphism of
    its locality; with that automorphism struck from the kept set, the
    same functor is refused."""
    _, T = _fresh_s4_cr()
    auts = aut_transporter(T)
    L2 = locality_of_transporter(T)
    phi = next(a for a in auts if a.morphism_map != tuple(range(T.mor_count)))
    sigma = lambda_map(phi)
    assert sigma in L2._automorphism_set
    L2._automorphism_set = L2._automorphism_set - {sigma}
    with pytest.raises(TransporterError, match="not an automorphism"):
        lambda_map(phi)
    assert lambda_map(identity_functor(T)) == tuple(range(L2.size))


def test_morphism_factorization_over_the_image():
    _, _, _, _, _, T_cr, _ = _s4()
    compose = oracles.compose_dict(T_cr)
    for m in range(T_cr.mor_count):
        part, r_idx = T_cr.image_factor(m)
        assert T_cr.is_iso(part)
        back = compose[(T_cr.incl[(r_idx, T_cr.dst[m])], part)]
        assert back == m
    ide = T_cr.incl[(0, 1)]
    part, r_idx = T_cr.image_factor(ide)
    assert r_idx == 0 and part == T_cr.identity_ids[0]


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_restrictions_are_unique_and_commute(data):
    _, _, _, _, _, T_cr, _ = _s4()
    m = data.draw(st.integers(min_value=0, max_value=T_cr.mor_count - 1))
    p_idx, q_idx = T_cr.src[m], T_cr.dst[m]
    small = [i for i, P in enumerate(T_cr.objects)
             if P <= T_cr.objects[p_idx]]
    p0 = data.draw(st.sampled_from(small))
    img = frozenset(T_cr.pi[m][x] for x in T_cr.objects[p0])
    targets = [j for j, Q in enumerate(T_cr.objects)
               if img <= Q and Q <= T_cr.objects[q_idx]]
    q0 = data.draw(st.sampled_from(targets))
    r = T_cr.restrict_mor(m, p0, q0)
    assert r is not None
    compose = oracles.compose_dict(T_cr)
    left = compose[(T_cr.incl[(q0, q_idx)], r)]
    right = compose[(m, T_cr.incl[(p0, p_idx)])]
    assert left == right


# ---- automorphisms and the outer quotient ----------------------------------


@pytest.mark.parametrize("name", CAPPED_NAMES)
def test_chain_search_matches_the_exhaustive_search(name):
    T = _capped_system(name)
    assert len(T.objects) <= 3 and T.mor_count <= 200
    chain = _enumerate_functors_directly(T)
    reference = oracles.functor_enumeration_reference(T)
    assert [(a.object_map, a.morphism_map) for a in chain] == \
        [(a.object_map, a.morphism_map) for a in reference]
    assert {a.morphism_map for a in chain} == \
        {a.morphism_map for a in aut_transporter(T)}


def test_chain_search_reads_no_locality(monkeypatch):
    """The direct search is a cross-check of the lifted list, so it must
    not reach the bridge or the locality automorphisms."""
    _, T = _fresh_s4_cr()

    def refuse(*args):
        raise AssertionError("the direct search read the locality side")

    monkeypatch.setattr(transporter, "_build_locality", refuse)
    monkeypatch.setattr(transporter, "locality_automorphisms", refuse)
    assert len(_enumerate_functors_directly(T)) == 8


def test_chain_search_keeps_its_cap():
    _, _, _, _, _, _, T_plus = _s4()
    assert len(T_plus.objects) == 4
    with pytest.raises(TransporterError, match="capped"):
        _enumerate_functors_directly(T_plus)


def test_automorphism_counts_on_the_small_pair():
    _, _, _, loc_cr, _, T_cr, T_plus = _s4()
    auts = aut_transporter(T_cr)
    assert len(auts) == 8
    assert all(is_transporter_iso(a) for a in auts)
    assert len(aut_transporter(T_plus)) == 8
    assert len(inner_auts(T_cr)) == 8
    assert len(inner_auts(T_plus)) == 8


def test_outer_classes_match_across_the_pair():
    _, _, _, _, _, T_cr, T_plus = _s4()
    res = out_typ(T_cr)
    res_plus = out_typ(T_plus)
    assert (res["aut_order"], res["inner_order"], res["out_order"]) == \
        (8, 8, 1)
    assert (res_plus["aut_order"], res_plus["inner_order"],
            res_plus["out_order"]) == (8, 8, 1)
    assert res["out_order"] == res_plus["out_order"]


def test_p_group_automorphisms():
    _, _, T = _d8()
    assert len(aut_transporter(T)) == 8
    res = out_typ(T)
    assert res["aut_order"] == 8
    assert res["out_order"] * res["inner_order"] >= res["aut_order"]


def test_outer_data_requires_a_linking_system():
    g, v4n, d8, _, _, _, _ = _s4()
    T_s_only = transporter_of_group(g, [d8])
    with pytest.raises(TransporterError, match="not an object"):
        out_typ(T_s_only)


# ---- linking systems -------------------------------------------------------


def test_linking_flags_across_the_fixtures():
    _, _, _, _, _, T_cr, T_plus = _s4()
    assert is_linking_system(T_cr)
    assert is_linking_system(T_plus)
    _, _, T_d8 = _d8()
    assert is_linking_system(T_d8)


def test_small_object_family_is_not_linking():
    g, v4n, d8, _, _, _, _ = _s4()
    T = transporter_of_group(g, [d8])
    defect = linking_system_defect(T)
    assert defect is not None and "not an object" in defect


def test_odd_normalizers_are_not_linking():
    g5 = parse_group(S5_DOC)
    subs = _sylow_family(g5, 2)
    fam = [P for P in subs if len(P) > 1 and
           any(g5.element_order(i) == 2 and g5.label(i).count("(") == 1
               for i in P)]
    v4n = next(P for P in subs if len(P) == 4 and
               all(g5.label(i).count("(") == 2 for i in P if i != g5.identity))
    loc = locality_from_group(g5, 2, fam + [v4n])
    T = transporter_of_locality(loc)
    assert T.mor_count == 216
    defect = linking_system_defect(T)
    assert defect is not None and "characteristic 2" in defect


def test_structure_report_on_linking_fixtures():
    _, _, _, _, _, T_cr, T_plus = _s4()
    rep = linking_system_report(T_cr)
    assert rep == {"kernel_is_center": True, "radical_objects_match": True,
                   "alperin_depth": 2, "ok": True}
    rep_plus = linking_system_report(T_plus)
    assert rep_plus["ok"] and rep_plus["alperin_depth"] == 2
    _, _, T_d8 = _d8()
    rep_d8 = linking_system_report(T_d8)
    assert rep_d8["ok"] and rep_d8["alperin_depth"] == 1


def test_object_automorphism_groups_have_the_right_core():
    _, _, _, _, _, T_cr, _ = _s4()
    for i in range(len(T_cr.objects)):
        assert is_characteristic_p(T_cr.aut_table(i), 2)
