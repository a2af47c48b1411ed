"""Locality construction, validation, restriction and seeded defects."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from loclab.fixtures import build_fixture
from loclab.fusion import fusion_from_group
from loclab.groups import parse_group, sylow_p, subgroup_lattice, subgroup_view
from loclab.locality import (
    ChainPartialGroup,
    Locality,
    LocalityBuildError,
    canonical_objects,
    locality_from_group,
    restriction,
    validate_locality,
)
from loclab.transporter import locality_of_transporter, transporter_of_locality

import oracles

S4_DOC = {"degree": 4, "generators": [[[1, 2]], [[1, 2, 3, 4]]]}
S5_DOC = {"degree": 5, "generators": [[[1, 2]], [[1, 2, 3, 4, 5]]]}
A5_DOC = {"degree": 5, "generators": [[[1, 2, 3]], [[3, 4, 5]]]}


def sylow_subgroups(group, p):
    """All subgroups of the canonical Sylow p-subgroup, as frozensets."""
    s = sylow_p(group, p)
    view = subgroup_view(group, s.members)
    return s, [frozenset(view.tokens[i] for i in sub.members)
               for sub in subgroup_lattice(view)]


@pytest.fixture(scope="module")
def s4():
    return parse_group(S4_DOC)


@pytest.fixture(scope="module")
def s5():
    return parse_group(S5_DOC)


def s4_cr_objects(s4):
    """The normal V4 and the full D8 inside the canonical Sylow 2-subgroup."""
    _, subs = sylow_subgroups(s4, 2)
    v4n = next(P for P in subs
               if {s4.label(i) for i in P}
               == {"()", "(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"})
    d8 = next(P for P in subs if len(P) == 8)
    return v4n, d8


def s5_transposition_objects(s5):
    """Subgroups of the Sylow 2-subgroup of S5 that contain a transposition."""
    _, subs = sylow_subgroups(s5, 2)

    def has_transposition(P):
        return any(s5.element_order(i) == 2 and s5.label(i).count("(") == 1
                   for i in P)

    return [P for P in subs if len(P) > 1 and has_transposition(P)]


# ---------------------------------------------------------------------------
# construction


def test_s4_centric_radical_family_gives_full_domain(s4):
    v4n, d8 = s4_cr_objects(s4)
    loc = locality_from_group(s4, 2, [v4n, d8])
    # S meet S^g is V4 or D8 for every g, so the carrier is all of S4
    assert loc.size == 24
    assert loc.proven_full
    assert len(loc.objects) == 2
    rep = validate_locality(loc, k=4)
    assert rep.ok, rep.lines()


def test_s4_all_order_ge4_family(s4):
    _, subs = sylow_subgroups(s4, 2)
    objs = [P for P in subs if len(P) >= 4]
    assert len(objs) == 4  # C4, two V4s, D8
    loc = locality_from_group(s4, 2, objs)
    assert loc.size == 24
    assert loc.proven_full
    assert validate_locality(loc, k=4).ok


def test_s4_p3_families_and_restriction(s4):
    s3 = sylow_p(s4, 3)
    c3 = s3.member_set()
    triv = frozenset([s4.identity])

    plus = locality_from_group(s4, 3, [triv, c3])
    assert plus.size == 24 and plus.proven_full
    assert validate_locality(plus, k=4).ok

    small = locality_from_group(s4, 3, [c3])
    # carrier is the normalizer of the Sylow 3-subgroup, a copy of S3
    assert small.size == 6 and small.proven_full
    assert validate_locality(small, k=4).ok

    # restricting the larger locality to {C3} is the same locality
    c3_pg = frozenset(plus.pg.index_of(s4.label(x)) for x in c3)
    res = restriction(plus, [c3_pg])
    assert res.size == 6
    assert sorted(res.pg.labels) == sorted(small.pg.labels)
    assert res.parent is plus
    assert validate_locality(res, k=4).ok


def test_carrier_matches_both_naive_characterizations(s4):
    v4n, d8 = s4_cr_objects(s4)
    by_meet, by_transport = oracles.naive_carrier(s4, sylow_p(s4, 2).members, [v4n, d8])
    assert by_meet == by_transport
    loc = locality_from_group(s4, 2, [v4n, d8])
    assert list(loc.carrier) == by_meet


def test_a5_v4_family_is_the_normalizer(s4):
    a5 = parse_group(A5_DOC)
    sa = sylow_p(a5, 2)
    loc = locality_from_group(a5, 2, [sa.member_set()])
    # N_A5(V4) = A4
    assert loc.size == 12
    assert loc.proven_full
    assert validate_locality(loc, k=4).ok


# ---------------------------------------------------------------------------
# a genuinely partial domain: S5 at p = 2, transposition-type objects


def test_s5_transposition_family_is_genuinely_partial(s5):
    objs = s5_transposition_objects(s5)
    assert sorted(len(P) for P in objs) == [2, 2, 4, 8]
    loc = locality_from_group(s5, 2, objs)

    assert loc.size == 40
    assert not loc.proven_full
    assert len(oracles.pair_dict(loc.pg)) == 1088  # 512 of 1600 pairs are undefined

    rep = validate_locality(loc, k=3)
    assert rep.ok, rep.lines()

    # a concrete undefined pair: the tracked subgroup collapses to 1
    a = loc.element("(1 2)")
    b = loc.element("(1 2 4)(3 5)")
    assert loc.pg.pair(a, b) is None
    assert loc.s_w((a, b)) == frozenset([loc.pg.identity])
    assert not loc.pg.word_in_domain((a, b))

    # N_L(S) = S: the Sylow subgroup is self-normalizing here
    assert len(loc.n_of(loc.s)) == 8


def test_s5_carrier_and_pairs_match_oracle(s5):
    objs = s5_transposition_objects(s5)
    s = sylow_p(s5, 2)
    by_meet, by_transport = oracles.naive_carrier(s5, s.members, objs)
    assert by_meet == by_transport
    loc = locality_from_group(s5, 2, objs)
    assert list(loc.carrier) == by_meet

    # length <= 2 words agree with the literal chain search
    naive = oracles.naive_chain_words(s5, by_meet, objs, 2)
    amb = dict(enumerate(loc.carrier))
    ours = {tuple(amb[x] for x in w) for w in oracles.iter_domain_words(loc.pg, 2)}
    assert ours == set(naive)
    assert len(ours) == 1129  # 1 empty + 40 singles + 1088 pairs


def test_s5_stored_s_f_matches_naive(s5):
    objs = s5_transposition_objects(s5)
    loc = locality_from_group(s5, 2, objs)
    s = sylow_p(s5, 2)
    for f in range(0, loc.size, 7):
        naive = oracles.naive_s_f(s5, s.members, loc.carrier[f])
        ours = frozenset(loc.carrier[x] for x in loc.s_f(f))
        assert ours == naive


def test_s5_restriction_to_v4_and_d8(s5):
    objs = s5_transposition_objects(s5)
    loc = locality_from_group(s5, 2, objs)
    keep = [frozenset(loc.pg.index_of(s5.label(x)) for x in P)
            for P in objs if len(P) >= 4]
    res = restriction(loc, keep)
    # only D8 itself survives: no other Sylow subgroup meets S in >= 4 points
    assert res.size == 8
    assert res.proven_full
    assert validate_locality(res, k=4).ok
    # S_f is unchanged under restriction
    for i, f in enumerate(res.parent_index):
        mapped = {res.parent_index[x] for x in res.s_f(i)}
        assert mapped == set(loc.s_f(f))


def test_word_domain_check_produces_chains(s5):
    objs = s5_transposition_objects(s5)
    loc = locality_from_group(s5, 2, objs)
    good = next(iter(sorted(oracles.pair_dict(loc.pg))))
    wit = loc.word_domain_check(good)
    assert wit.in_domain
    assert wit.chain[0] == wit.s_w
    assert all(P in loc.object_set for P in wit.chain)
    assert len(wit.chain) == len(good) + 1

    a = loc.element("(1 2)")
    b = loc.element("(1 2 4)(3 5)")
    bad = loc.word_domain_check((a, b))
    assert not bad.in_domain and bad.chain is None


_S5_CACHE: dict = {}


def _s5_locality():
    if "loc" not in _S5_CACHE:
        group = parse_group(S5_DOC)
        objs = s5_transposition_objects(group)
        _S5_CACHE["loc"] = (locality_from_group(group, 2, objs), group, objs)
    return _S5_CACHE["loc"]


@settings(max_examples=60, deadline=None)
@given(word=st.lists(st.integers(0, 39), min_size=0, max_size=3))
def test_s5_domain_matches_chain_search_property(word):
    # membership in D must agree with the literal chain search over the family
    loc, group, objs = _s5_locality()
    amb = tuple(loc.carrier[x] for x in word)
    objset = {frozenset(P) for P in objs}
    heads = list(objset)
    ok = True
    for g in amb:
        heads = [frozenset(group.conj(x, g) for x in P) for P in heads]
        heads = [Q for Q in heads if Q in objset]
        if not heads:
            ok = False
            break
    assert loc.pg.word_in_domain(tuple(word)) == ok


# ---------------------------------------------------------------------------
# families that are not closed


def test_missing_overgroup_is_rejected(s4):
    _, subs = sylow_subgroups(s4, 2)
    c4 = next(P for P in subs if len(P) == 4
              and any(s4.element_order(x) == 4 for x in P))
    with pytest.raises(LocalityBuildError, match="overgroup"):
        locality_from_group(s4, 2, [c4])


def test_missing_conjugate_is_rejected(s5):
    objs = s5_transposition_objects(s5)
    two = sorted((P for P in objs if len(P) == 2), key=sorted)
    partial_family = [two[0]] + [P for P in objs if len(P) >= 4]
    defect = fusion_from_group(s5, 2).family_defect(
        canonical_objects(partial_family))
    assert defect is not None and defect[0] == "conjugate"
    with pytest.raises(LocalityBuildError, match="conjugate"):
        locality_from_group(s5, 2, partial_family)


def test_auto_close_completes_the_family(s5):
    objs = s5_transposition_objects(s5)
    seed = min((P for P in objs if len(P) == 2), key=sorted)
    closed = fusion_from_group(s5, 2).family_closure([seed])
    assert set(canonical_objects(closed)) == set(canonical_objects(objs))
    loc = locality_from_group(s5, 2, [seed], auto_close=True)
    assert loc.size == 40


def test_non_subgroup_object_is_rejected(s4):
    _, d8 = s4_cr_objects(s4)
    four = next(i for i in sorted(d8) if s4.element_order(i) == 4)
    with pytest.raises(LocalityBuildError, match="not a subgroup"):
        locality_from_group(s4, 2, [frozenset([s4.identity, four])])


# ---------------------------------------------------------------------------
# seeded defects must be caught by validation


def _mutate(pg, **kwargs):
    """Rebuild a ChainPartialGroup with some component replaced; a
    replacement `pair_table` is a dict {(a, b): ab}, made into rows."""
    fields = dict(
        labels=pg.labels, inv=pg.inv, identity=pg.identity,
        pair_table=oracles.pair_dict(pg), conj_maps=pg.conj_maps,
        s_members=pg.s_members, objects=pg.objects,
    )
    fields.update(kwargs)
    rows = oracles.rows_of(fields.pop("pair_table"), len(fields["labels"]))
    return ChainPartialGroup(rows=rows, **fields)


def test_corrupt_pair_value_is_detected(s5):
    loc = locality_from_group(s5, 2, s5_transposition_objects(s5))
    pg = loc.pg
    table = oracles.pair_dict(pg)
    (a, b) = next((k for k in sorted(table)
                   if table[k] != pg.identity and k[0] != pg.identity
                   and k[1] != pg.identity))
    table[(a, b)] = pg.identity  # wrong product
    bad = Locality(_mutate(pg, pair_table=table), 2, ambient=loc.ambient,
                   carrier=loc.carrier)
    rep = validate_locality(bad, k=3)
    assert not rep.ok
    failing = {c.name: c for c in rep.failing()}
    # the carrier certificate compares the pair with the product in M
    assert failing["partial-group"].detail.startswith(
        f"product: the table gives {pg.label_word((a, b))} = ")
    assert all(c.detail for c in rep.failing())


def test_dropped_object_is_detected(s4):
    v4n, d8 = s4_cr_objects(s4)
    loc = locality_from_group(s4, 2, [v4n, d8])
    pg = loc.pg
    only_d8 = [P for P in pg.objects if len(P) == 8]
    bad = Locality(_mutate(pg, objects=only_d8), 2, ambient=loc.ambient,
                   carrier=loc.carrier)
    # the pair table still has products whose S_w is the dropped V4
    rep = validate_locality(bad, k=2)
    assert not rep.ok
    names = {c.name for c in rep.failing()}
    assert "pair-table-matches-domain" in names or "elements-have-objects" in names
    assert all(c.detail for c in rep.failing())


def test_extra_pair_is_detected(s5):
    loc = locality_from_group(s5, 2, s5_transposition_objects(s5))
    pg = loc.pg
    a = loc.element("(1 2)")
    b = loc.element("(1 2 4)(3 5)")
    table = oracles.pair_dict(pg)
    assert (a, b) not in table
    prod = next(g for g in range(pg.size)
                if pg.labels[g] == "(4 5)")  # arbitrary wrong target
    table[(a, b)] = prod
    bad = Locality(_mutate(pg, pair_table=table), 2, ambient=loc.ambient,
                   carrier=loc.carrier)
    rep = validate_locality(bad, k=3)
    assert not rep.ok
    assert "pair-table-matches-domain" in {c.name for c in rep.failing()}
    assert all(c.detail for c in rep.failing())


def test_shrunken_s_fails_maximality(s4):
    v4n, d8 = s4_cr_objects(s4)
    loc = locality_from_group(s4, 2, [v4n, d8])
    pg = loc.pg
    v4_pg = next(P for P in pg.objects if len(P) == 4)
    maps = [{x: y for x, y in m.items() if x in v4_pg and y in v4_pg}
            for m in pg.conj_maps]
    bad = Locality(_mutate(pg, s_members=v4_pg, objects=[v4_pg], conj_maps=maps), 2,
                   ambient=loc.ambient, carrier=loc.carrier)
    rep = validate_locality(bad, k=2)
    assert not rep.ok
    assert "s-maximal" in {c.name for c in rep.failing()}


def test_corrupt_conjugation_map_fails_maximality():
    """One corrupted entry of a conjugation map inside S leaves N_L(S) not
    closed under products; s-maximal fails with a witness, no crash."""
    path = os.path.join(os.path.dirname(__file__), "..", "fixtures", "s5.json")
    bundle, _ = build_fixture(path, k=2)
    loc = bundle.localities["L"]
    pg = loc.pg
    s = sorted(pg.s_members)
    maps = [dict(m) for m in pg.conj_maps]
    maps[s[1]][s[1]] = s[2]
    bad = Locality(_mutate(pg, conj_maps=maps), 2, ambient=loc.ambient,
                   carrier=loc.carrier)
    rep = validate_locality(bad, k=2)
    assert not rep.ok
    failing = {c.name: c for c in rep.failing()}
    assert "s-maximal" in failing
    assert failing["s-maximal"].detail.startswith("N_L(S) is not a group")
    assert all(c.detail for c in rep.failing())


def test_carrier_free_locality_fails_with_a_named_reason():
    """The transporter bridge of the s4 locality has no ambient group, so
    no certificate covers it: the partial-group check fails and names the
    reason, and every other check passes.  The word scans of the oracles
    find no defect in it."""
    path = os.path.join(os.path.dirname(__file__), "..", "fixtures", "s4.json")
    bundle, _ = build_fixture(path, k=2)
    bridge = locality_of_transporter(transporter_of_locality(bundle.localities["Lplus"]))
    assert bridge.ambient is None and bridge.carrier is None
    rep = validate_locality(bridge, k=3)
    assert [(c.name, c.detail) for c in rep.failing()] == [
        ("partial-group", "certificate: no ambient group M and carrier into it")]
    assert oracles.validate_by_words(bridge, 3).ok
