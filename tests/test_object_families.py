"""Object families on the fusion system: `FusionSystem.family_closure` and
`FusionSystem.family_defect` against the ambient-group references of
`oracles`, the rejection path of each caller, and the builds of F_S(M)
and F_S(L) that one report makes.

The references conjugate every subgroup by every element of M; the
library reads the conjugacy classes of F_S(M).  They are compared on the
groups of the fixtures in fixtures/ and bench/fixtures/ at p = 2, p = 3
and the fixture's own prime, but for S6 at p = 2, where the references
take about 7 s: the closure of every single-subgroup seed, and whether
the `all`, `crit` and `order-ge p^2` families, and each of them minus
one member, are closed.
"""

import json
import os
import sys

import pytest

from loclab import cli, fusion
from loclab.fixtures import build_bundle, parse_fixture
from loclab.fusion import fusion_from_group
from loclab.groups import parse_group, sylow_p
from loclab.locality import (LocalityBuildError, canonical_objects,
                             locality_from_group, restriction)
from loclab.transporter import TransporterError, transporter_of_group

import oracles
from test_locality import S4_DOC, S5_DOC, s5_transposition_objects

ROOT = os.path.join(os.path.dirname(__file__), "..")
A6PAIR = os.path.join(ROOT, "bench", "fixtures", "a6pair.json")


def _fixture_groups():
    """(name, group document, prime) for each fixture group, once."""
    seen = {}
    for where in ("fixtures", os.path.join("bench", "fixtures")):
        for name in sorted(os.listdir(os.path.join(ROOT, where))):
            with open(os.path.join(ROOT, where, name)) as fh:
                doc = json.load(fh)
            key = json.dumps(doc["group"], sort_keys=True)
            seen.setdefault(key, (name.removesuffix(".json"), doc["group"], doc["p"]))
    return list(seen.values())


CASES = [(name, doc, p) for name, doc, own in _fixture_groups()
         for p in sorted({2, 3, own}) if (name, p) != ("s6", 2)]


def _families(F):
    """The `all`, `crit` and `order-ge p^2` families, where nonempty."""
    fams = [F.subgroups, F.centric_radical_subgroups(),
            [P for P in F.subgroups if len(P) >= F.p * F.p]]
    return [[frozenset(P) for P in fam] for fam in fams if fam]


@pytest.mark.parametrize("name,doc,p", CASES, ids=[f"{c[0]}-p{c[2]}" for c in CASES])
def test_family_routines_match_the_reference(name, doc, p):
    group = parse_group(doc)
    s_amb = sylow_p(group, p).member_set()
    F = fusion_from_group(group, p)
    for P in F.subgroups:
        got = canonical_objects(F.family_closure([P]))
        assert got == oracles.close_object_family(group, s_amb, [frozenset(P)])
    for fam in _families(F):
        for drop in [None, *fam]:
            objs = canonical_objects(Q for Q in fam if Q != drop)
            if not objs:
                continue
            expected = oracles.object_family_closure_defect(group, s_amb, objs)
            assert (F.family_defect(objs) is None) == (expected is None)


# ---- the rejection path of each caller --------------------------------------


@pytest.fixture(scope="module")
def s5_loc():
    s5 = parse_group(S5_DOC)
    return s5, locality_from_group(s5, 2, s5_transposition_objects(s5))


def _pg(loc, group, labels):
    """The subgroup with the given element labels, in loc's indices."""
    pos = {g: i for i, g in enumerate(loc.carrier)}
    return frozenset(pos[g] for g in group.indices() if group.label(g) in labels)


def test_restriction_rejects_a_missing_conjugate(s5_loc):
    s5, loc = s5_loc
    t23, t45 = _pg(loc, s5, {"()", "(2 3)"}), _pg(loc, s5, {"()", "(4 5)"})
    fam = [P for P in loc.objects if P != t45]
    with pytest.raises(LocalityBuildError) as err:
        restriction(loc, fam)
    assert str(err.value) == ("object family is not closed: the conjugate "
                              f"{sorted(t45)} of {sorted(t23)} is missing")


def test_restriction_rejects_a_missing_overgroup(s5_loc):
    s5, loc = s5_loc
    v4 = _pg(loc, s5, {"()", "(2 3)", "(4 5)", "(2 3)(4 5)"})
    fam = [P for P in loc.objects if P != v4]
    first = min((P for P in fam if len(P) == 2), key=sorted)
    with pytest.raises(LocalityBuildError) as err:
        restriction(loc, fam)
    assert str(err.value) == ("object family is not closed: the overgroup "
                              f"{sorted(v4)} of {sorted(first)} is missing")


# S4 over its canonical Sylow 2-subgroup <(1 3 2 4), (1 2)>: the family
# <(1 2)> < <(1 2), (3 4)> < S is overgroup-closed, but (1 3)(2 4) in S
# carries <(1 2)> to <(3 4)>, which is missing.
S4_NO_CONJUGATE = [[[[1, 2]]], [[[1, 2]], [[3, 4]]], [[[1, 3, 2, 4]], [[1, 2]]]]


def test_explicit_fixture_without_a_conjugate_fails_its_family_line():
    doc = {"group": S4_DOC, "p": 2,
           "objects": {"mode": "explicit", "data": S4_NO_CONJUGATE}}
    bundle, report = build_bundle(parse_fixture(doc), "s4-no-conjugate")
    assert bundle is None
    [check] = report.sections[0].failing()
    assert check.name == "L family closed"
    assert check.detail == ("conjugate {(), (3 4)} of {(), (1 2)} "
                            "is missing from the family")


def test_transporter_of_group_rejects_a_missing_conjugate():
    s4 = parse_group(S4_DOC)
    labels = [{"()", "(1 2)"}, {"()", "(1 2)", "(3 4)", "(1 2)(3 4)"},
              {s4.label(x) for x in sylow_p(s4, 2).members}]
    fam = [frozenset(g for g in s4.indices() if s4.label(g) in lab)
           for lab in labels]
    tok = {x: i for i, x in enumerate(sorted(fam[-1]))}

    def tokens(members):
        return sorted(tok[g] for g in s4.indices() if s4.label(g) in members)

    with pytest.raises(TransporterError) as err:
        transporter_of_group(s4, fam, p=2)
    assert str(err.value) == ("object family is not closed: the conjugate "
                              f"{tokens({'()', '(3 4)'})} of "
                              f"{tokens({'()', '(1 2)'})} is missing")


# ---- builds per report -------------------------------------------------------


def test_one_report_builds_each_fusion_system_once(monkeypatch, capsys):
    """F_S(M) is kept on the group and F_S(L) on the Locality, so the A6
    report builds the first once and the second at most once per
    instance.  The instances are kept alive so that no id is reused."""
    builds = {"fusion_from_group": {}, "fusion_from_locality": {}}
    real = fusion.generated_fusion

    def counting(*args, **kwargs):
        frame = sys._getframe(1)
        per = builds.get(frame.f_code.co_name)
        if per is not None:
            owner = frame.f_locals.get("group", frame.f_locals.get("loc"))
            per.setdefault(id(owner), [owner, 0])[1] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(fusion, "generated_fusion", counting)
    assert cli.main(["report", A6PAIR]) == 0
    capsys.readouterr()
    assert [n for _, n in builds["fusion_from_group"].values()] == [1]
    per_loc = [n for _, n in builds["fusion_from_locality"].values()]
    assert per_loc and max(per_loc) == 1
