"""Each thing is checked once: structure in the constructors, the
definition by one certificate per locality.

The transporter bridge and `normal.quotient` run only
`locality.locality_structure_checks`; they scan no word.  `validate_locality`
has one path, the carrier certificate and the product walk, and keeps its
report on the Locality, which answers every word length.
`transporter_of_locality` keeps its system, `aut_transporter` its list on
the system and `enumerate_partial_normal` its family on the Locality, so
one call of the program certifies, bridges, lifts and enumerates each
locality once.  A system also keeps its image factorisations, the
verdict on each functor, its linking-system verdict and its outer
automorphism data, so each is found once.  No word
scan is left in the program; the scans of `oracles` check the bridges and
quotients here.
"""

import json
import os

import pytest

from loclab import cli, fixtures, locality, normal, partial, transporter, verify
from loclab.fixtures import build_fixture
from loclab.locality import Locality, locality_structure_checks, validate_locality
from loclab.normal import NormalError, enumerate_partial_normal, quotient
from loclab.transporter import (
    aut_transporter,
    linking_system_defect,
    locality_of_transporter,
    out_typ,
    transporter_of_locality,
)

import oracles
import test_normal
from test_locality import _mutate

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")
BENCH_FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "bench", "fixtures")

FIXTURE_LOCS = ["a4/L", "c2/L", "d8/L", "s4/Lcr", "s4/Lplus", "s5/L"]
# the k=4 scan of the s5/L bridge takes about 27 s; k=3 takes under a second
BRIDGE_SCAN_K = {name: 4 for name in FIXTURE_LOCS} | {"s5/L": 3}


def _fresh(name: str) -> Locality:
    """A newly built fixture locality, so that no memo is shared with other
    tests."""
    fixture, locname = name.split("/")
    bundle, _ = build_fixture(os.path.join(FIXTURE_DIR, f"{fixture}.json"), k=1)
    return bundle.localities[locname]


def _without_carrier(loc: Locality) -> Locality:
    """The same locality on a fresh partial group, with no ambient group or
    carrier, so that no certificate covers it."""
    return Locality(_mutate(loc.pg), loc.p)


@pytest.fixture
def validations(monkeypatch):
    """Carrier certificates per ChainPartialGroup id, as [pg, count].  The
    partial groups are kept alive so that no id is reused while counting."""
    seen: dict[int, list] = {}
    real_certificate = locality.carrier_certificate

    def certify(loc):
        seen.setdefault(id(loc.pg), [loc.pg, 0])[1] += 1
        return real_certificate(loc)

    monkeypatch.setattr(locality, "carrier_certificate", certify)
    return seen


@pytest.fixture
def enumerations(monkeypatch):
    """Number of partial normal families computed."""
    done = [0]
    real = normal._partial_normal_family

    def counting(loc):
        done[0] += 1
        return real(loc)

    monkeypatch.setattr(normal, "_partial_normal_family", counting)
    return done


@pytest.fixture
def systems(monkeypatch):
    """Number of TransporterSystem instances built."""
    built = [0]
    real = transporter.TransporterSystem.__init__

    def counting(self, *args, **kwargs):
        built[0] += 1
        real(self, *args, **kwargs)

    monkeypatch.setattr(transporter.TransporterSystem, "__init__", counting)
    return built


@pytest.fixture
def classified(monkeypatch):
    """Every functor classified, as (src, dst, object_map, morphism_map)."""
    seen = []
    real = transporter.classify_functor

    def counting(alpha):
        seen.append((alpha.src, alpha.dst, alpha.object_map,
                     alpha.morphism_map))
        return real(alpha)

    monkeypatch.setattr(transporter, "classify_functor", counting)
    return seen


@pytest.fixture
def image_factors(monkeypatch):
    """image_factor calls per TransporterSystem id, as [system, count]."""
    seen: dict[int, list] = {}
    real = transporter.TransporterSystem.image_factor

    def counting(self, m):
        seen.setdefault(id(self), [self, 0])[1] += 1
        return real(self, m)

    monkeypatch.setattr(transporter.TransporterSystem, "image_factor", counting)
    return seen


@pytest.mark.parametrize("name", FIXTURE_LOCS)
def test_bridge_scans_no_word(name, validations):
    loc = _fresh(name)
    validations.clear()
    locality_of_transporter(transporter_of_locality(loc))
    assert not validations


@pytest.mark.parametrize("name", FIXTURE_LOCS)
def test_bridge_passes_the_word_scan(name):
    bridge = locality_of_transporter(transporter_of_locality(_fresh(name)))
    assert oracles.validate_by_words(bridge, BRIDGE_SCAN_K[name]).ok


def _normal_test_quotients():
    """(locality, partial normal subgroup) for every quotient that
    test_normal.py builds."""
    _, _, loc_plus, _ = test_normal._s4_data()
    _, fam_plus, _ = test_normal._s4_family()
    out = [(loc_plus, n) for n in (test_normal._by_order(fam_plus, 4),
                                   fam_plus[0], fam_plus[-1])]
    _, s5_plus, _ = test_normal._s5_data()
    out += [(s5_plus, n) for n in enumerate_partial_normal(s5_plus)
            if 1 < len(n) < s5_plus.size]
    return out


def test_quotient_scans_no_word(validations):
    cases = _normal_test_quotients()
    validations.clear()
    for loc, n in cases:
        quotient(loc, n)
    assert not validations


def test_dropped_pair_fails_the_structure_checks():
    """The check that replaced the bridge's composability loop and the
    quotient's pair-coverage loop names the dropped pair.  The s5 locality
    has Sylow D8 and a chain domain; the d8 fixture's domain is full, and
    there ChainPartialGroup rejects a dropped pair when it is built."""
    loc = _fresh("s5/L")
    pg = loc.pg
    table = oracles.pair_dict(pg)
    a, b = next(key for key in sorted(table)
                if pg.identity not in key and not set(key) <= loc.s)
    del table[(a, b)]
    bad = Locality(_mutate(pg, pair_table=table), loc.p)
    failing = {c.name: c for c in locality_structure_checks(bad) if not c.ok}
    assert "pair-table-matches-domain" in failing
    assert failing["pair-table-matches-domain"].detail == (
        f"pair {pg.label_word((a, b))} in domain only")
    assert all(c.detail for c in failing.values())


def test_report_scans_each_locality_once_per_bound(validations, systems, capsys):
    assert cli.main(["report", os.path.join(FIXTURE_DIR, "s4.json")]) == 0
    capsys.readouterr()
    # one certificate for each locality: Lplus, and the restriction of
    # Lplus that is Lcr; Lcr is never built from the group
    assert [n for _, n in validations.values()] == [1, 1]
    # Lcr, Lplus and the full subcategory of Lplus on the objects of Lcr
    assert systems[0] == 3


def test_report_enumerates_partial_normals_once_per_locality(enumerations,
                                                             capsys):
    """theoremC enumerates both localities of the pair, and the partial
    normal listing asks again for each; the families are kept."""
    assert cli.main(["report", os.path.join(FIXTURE_DIR, "s4.json")]) == 0
    capsys.readouterr()
    assert enumerations[0] == 2


def test_report_checks_each_functor_once(classified, image_factors, capsys):
    """The lifted, inner and directly enumerated automorphisms, and the
    checks of lambda_map and out_typ, meet the same functors again and
    again; each is classified once, and each morphism factored once.
    Only the lifts of the generators of Aut(L) are classified, three on
    each of the two systems: every other automorphism is a composite of
    those, recorded as such by `aut_transporter`."""
    assert cli.main(["report", os.path.join(FIXTURE_DIR, "s4.json")]) == 0
    capsys.readouterr()
    assert len(classified) == len(set(classified)) == 6
    assert image_factors
    assert all(n <= T.mor_count for T, n in image_factors.values())


def test_bridge_suites_only_certify(validations, capsys):
    path = os.path.join(FIXTURE_DIR, "d8.json")
    for suite in ("transporter", "exactseq"):
        assert cli.main(["verify", suite, path, "--max-word-len", "2"]) == 0
    capsys.readouterr()
    # one build per call, one certificate per build; the bridges make none
    assert [n for _, n in validations.values()] == [1, 1]


def test_carrier_free_fixture_fails_the_build(validations, monkeypatch, capsys):
    """Without a carrier no certificate runs, and the build names why."""
    build = fixtures.locality_from_group
    monkeypatch.setattr(fixtures, "locality_from_group",
                        lambda *args, **kwargs: _without_carrier(build(*args, **kwargs)))
    path = os.path.join(FIXTURE_DIR, "a4.json")
    for suite in ("axioms", "locality"):
        assert cli.main(["verify", suite, path, "--max-word-len", "2"]) == 1
        failed = json.loads(capsys.readouterr().out)["sections"][0]["checks"][-1]
        assert (failed["name"], failed["ok"]) == ("L validates", False)
        assert failed["detail"] == ("partial-group: certificate: no ambient "
                                    "group M and carrier into it")
    assert not validations


def test_verify_locality_validates_once(validations, capsys):
    """The build validates at k=3 and the locality suite asks again at the
    k=2 its word budget allows; one certificate answers both."""
    path = os.path.join(BENCH_FIXTURE_DIR, "s6.json")
    assert cli.main(["verify", "locality", path]) == 0
    capsys.readouterr()
    assert [n for _, n in validations.values()] == [1]


def test_verify_axioms_certifies_without_scanning(validations, capsys):
    assert cli.main(["verify", "axioms",
                     os.path.join(BENCH_FIXTURE_DIR, "psl27.json")]) == 0
    capsys.readouterr()
    assert [n for _, n in validations.values()] == [1]


def test_no_word_scan_is_left_in_the_program():
    scans = ("validate_partial_group", "_validate_bounded", "_validate_full",
             "check_cancellation", "invert_word", "chain_domain_words",
             "_bounded_chain_mismatch", "_word_law_walk", "_chain_matches")
    for module in (locality, verify, partial):
        assert not [name for name in scans if hasattr(module, name)], module
    assert not hasattr(locality.ChainPartialGroup, "iter_domain_words")


def test_a_passing_scan_answers_shorter_bounds(validations):
    """A passing report, made once by the certificate, answers its own k and
    every shorter one."""
    built = _fresh("s5/L")
    # a copy the build has not validated
    loc = Locality(_mutate(built.pg), built.p, ambient=built.ambient,
                   carrier=built.carrier)
    validations.clear()
    report = validate_locality(loc, 3)
    assert report.ok and report.pg_report.ok
    assert validate_locality(loc, 2) is report
    assert validate_locality(loc, 3) is report
    assert [n for _, n in validations.values()] == [1]


def test_a_failing_report_answers_every_bound(validations):
    """A failing report, with or without a carrier, answers every k."""
    bare = _without_carrier(_fresh("s5/L"))
    report = validate_locality(bare, 3)
    assert not report.ok
    assert all(validate_locality(bare, k) is report for k in (1, 2, 4))

    loc = _fresh("s5/L")
    pg = loc.pg
    s = sorted(pg.s_members)
    maps = [dict(m) for m in pg.conj_maps]
    maps[s[1]][s[1]] = s[2]
    bad = Locality(_mutate(pg, conj_maps=maps), 2, ambient=loc.ambient,
                   carrier=loc.carrier)
    validations.clear()
    report = validate_locality(bad, 2)
    assert not report.ok
    assert all(validate_locality(bad, k) is report for k in (1, 2, 3))
    assert [n for _, n in validations.values()] == [1]


def test_linking_verdict_and_outer_data_are_kept(monkeypatch, capsys):
    """One verdict and one outer computation per system, across a whole
    report; out_typ hands out a fresh dict each time."""
    calls = {"defect": 0, "out": 0}
    real_defect, real_out = (transporter._linking_system_defect,
                             transporter._out_typ)

    def defect(T):
        calls["defect"] += 1
        return real_defect(T)

    def out(T):
        calls["out"] += 1
        return real_out(T)

    monkeypatch.setattr(transporter, "_linking_system_defect", defect)
    monkeypatch.setattr(transporter, "_out_typ", out)
    assert cli.main(["report", os.path.join(FIXTURE_DIR, "s4.json")]) == 0
    capsys.readouterr()
    # Lcr and Lplus; the full subcategory asks neither
    assert calls == {"defect": 2, "out": 2}
    T = transporter_of_locality(_fresh("s4/Lcr"))
    assert linking_system_defect(T) is None
    assert linking_system_defect(T) is None
    first = out_typ(T)
    first.clear()
    assert out_typ(T) == out_typ(T) != {}
    assert out_typ(T) is not out_typ(T)
    assert calls == {"defect": 3, "out": 3}


def test_memos_are_kept_per_instance():
    loc = _fresh("s4/Lplus")
    # one report answers every bound, with or without a carrier
    assert validate_locality(loc, 1) is validate_locality(loc, 2)
    assert validate_locality(loc, 1).ok
    bare = _without_carrier(loc)
    assert validate_locality(bare, 1) is validate_locality(bare, 2)
    assert validate_locality(bare, 1) is not validate_locality(loc, 1)
    T = transporter_of_locality(loc)
    assert transporter_of_locality(loc) is T
    assert transporter_of_locality(_fresh("s4/Lplus")) is not T
    first = aut_transporter(T)
    first.clear()
    second = aut_transporter(T)
    assert second and second == aut_transporter(T)
    assert second is not aut_transporter(T)
    # the partial normal family: a fresh list per call, the cap every time
    family = enumerate_partial_normal(loc)
    family.clear()
    again = enumerate_partial_normal(loc)
    assert again and again == enumerate_partial_normal(loc)
    assert again is not enumerate_partial_normal(loc)
    with pytest.raises(NormalError, match="exceeds cap"):
        enumerate_partial_normal(loc, cap=loc.size - 1)
    assert enumerate_partial_normal(_fresh("s4/Lplus")) is not again
