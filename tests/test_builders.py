"""The shared builders against independent references.

`fusion.generated_fusion` builds every fusion system from its generating
maps, and the transporter builders call it on S-tokens directly.  These
tests compare their fusion systems with `oracles.retoken_fusion`, which
renames the tables of `fusion_from_locality` / `fusion_from_group` map by
map, and check `FusionSystem.span` (a lattice lookup) against
`oracles.span_reference` (a closure loop).  `locality.sub_locality` builds
both restrictions and NS sub-localities; a restriction of L_Delta(M) must be
L_Gamma(M) itself, read through the carrier.
"""

import pytest

from loclab.fusion import fusion_from_group, fusion_from_locality
from loclab.groups import parse_group, sylow_p
from loclab.locality import locality_from_group, restriction
from loclab.normal import enumerate_partial_normal, ns_locality
from loclab.transporter import transporter_of_group, transporter_of_locality

import oracles
import test_domain_table
from test_automorphisms import FIXTURE_LOCS
from test_locality import (
    S4_DOC,
    S5_DOC,
    s4_cr_objects,
    s5_transposition_objects,
    sylow_subgroups,
)

_CACHE: dict = {}


def _transporters() -> dict:
    """name -> (T, fusion system expected on T's tokens): every fixture
    locality but s4-broken's, and S4 over its centric radical family."""
    if not _CACHE:
        locs = test_domain_table._localities()
        for name in FIXTURE_LOCS:
            loc = locs[name]
            T = transporter_of_locality(loc)
            tok = {x: i for i, x in enumerate(sorted(loc.s))}
            _CACHE[name] = (T, _retoken(fusion_from_locality(loc), tok, T))
        s4 = parse_group(S4_DOC)
        objs = s4_cr_objects(s4)
        T = transporter_of_group(s4, objs)
        tok = {x: i for i, x in enumerate(sorted(max(objs, key=len)))}
        _CACHE["s4 group"] = (T, _retoken(fusion_from_group(s4, 2), tok, T))
    return _CACHE


def _retoken(F, tok, T):
    return oracles.retoken_fusion(F, tok, T.p, lambda a, b: T.s_mul[a][b],
                                  lambda a: T.s_inv[a], lambda t: T.s_labels[t])


def _tables(F):
    return F.s, F.subgroups, {P: F.embeddings_of(P) for P in F.subgroups}


NAMES = FIXTURE_LOCS + ["s4 group"]


def test_every_transporter_is_covered():
    assert sorted(_transporters()) == sorted(NAMES)


@pytest.mark.parametrize("name", NAMES)
def test_transporter_fusion_matches_the_retokened_system(name):
    T, expected = _transporters()[name]
    assert _tables(T.fusion) == _tables(expected)


@pytest.mark.parametrize("name", NAMES)
def test_span_matches_the_closure_loop(name):
    T, _ = _transporters()[name]
    F = T.fusion
    mul = lambda a, b: T.s_mul[a][b]  # noqa: E731
    for x in F.s:
        for y in F.s:
            assert F.span((x, y)) == oracles.span_reference(mul, F.identity, (x, y))


# ---- sub-localities --------------------------------------------------------


def _through_carrier(loc):
    """The locality's data in ambient group indices."""
    c = loc.carrier
    pg = loc.pg
    return {
        "carrier": tuple(c),
        "pairs": {(c[a], c[b]): c[v] for (a, b), v in oracles.pair_dict(pg).items()},
        "conj_maps": {c[f]: {c[x]: c[y] for x, y in m.items()}
                      for f, m in enumerate(pg.conj_maps)},
        "s": frozenset(c[x] for x in pg.s_members),
        "objects": {frozenset(c[x] for x in P) for P in pg.objects},
    }


def _s4_p3():
    s4 = parse_group(S4_DOC)
    c3 = sylow_p(s4, 3).member_set()
    return s4, 3, [frozenset([s4.identity]), c3], [c3]


def _s4_crit():
    s4 = parse_group(S4_DOC)
    _, subs = sylow_subgroups(s4, 2)
    return s4, 2, [P for P in subs if len(P) >= 4], list(s4_cr_objects(s4))


def _s5_d8():
    s5 = parse_group(S5_DOC)
    objs = s5_transposition_objects(s5)
    return s5, 2, objs, [P for P in objs if len(P) >= 4]


def _s5_transpositions():
    """From every subgroup of S, so a full domain, to the genuinely partial
    transposition family: 512 pairs of kept elements leave the domain."""
    s5 = parse_group(S5_DOC)
    _, subs = sylow_subgroups(s5, 2)
    return s5, 2, subs, s5_transposition_objects(s5)


@pytest.mark.parametrize("case", [_s4_p3, _s4_crit, _s5_d8, _s5_transpositions],
                         ids=["s4 p=3", "s4 crit in order-ge 4", "s5 to D8",
                              "s5 to transpositions"])
def test_restriction_is_the_locality_of_the_smaller_family(case):
    group, p, big, small = case()
    plus = locality_from_group(group, p, big)
    pos = {g: i for i, g in enumerate(plus.carrier)}
    res = restriction(plus, [frozenset(pos[x] for x in P) for P in small])
    direct = locality_from_group(group, p, small)
    assert _through_carrier(res) == _through_carrier(direct)
    assert res.parent is plus
    assert [plus.carrier[f] for f in res.parent_index] == list(res.carrier)


@pytest.mark.parametrize("case", [_s4_crit, _s5_d8], ids=["s4", "s5"])
def test_ns_locality_records_its_parent(case):
    group, p, big, _ = case()
    loc = locality_from_group(group, p, big)
    for n in enumerate_partial_normal(loc):
        sub = ns_locality(loc, n)
        assert sub.parent is loc
        assert [loc.pg.labels[f] for f in sub.parent_index] == list(sub.pg.labels)
        assert sub.objects == tuple(
            frozenset(sub.parent_index.index(x) for x in P) for P in loc.objects)
