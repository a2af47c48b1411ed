"""The carrier certificate of L_Delta(M), its product walk, and the word
scans of `oracles` as their reference.

`locality.carrier_certificate` proves the partial-group axioms,
cancellation and the word laws at every length from the ambient group, and
`locality.chain_product_walk` compares the domain table with the chain
definition at every length.  The bounded word scans must agree with them
on every fixture.  Each corruption of a locality that keeps its carrier
must fail the certificate, and so `validate_locality`, with a witness; the
word scans of the same corruption without a carrier say whether the
defect is one of the partial group or only of the carrier.
"""

import itertools
import os

import pytest

from loclab import locality
from loclab.fixtures import build_fixture
from loclab.locality import (
    Locality,
    carrier_certificate,
    chain_product_walk,
    validate_locality,
)
from loclab.verify import _whole_conjugation_table

import oracles
from test_locality import _mutate

ROOT = os.path.join(os.path.dirname(__file__), "..")
PATHS = {name: os.path.join(ROOT, "fixtures", f"{name}.json")
         for name in ("a4", "c2", "d8", "s4", "s5")}
PATHS |= {name: os.path.join(ROOT, "bench", "fixtures", f"{name}.json")
          for name in ("psl27", "s6", "a6pair")}

# every fixture locality up to length 3; the larger groups up to length 2
ORACLE_CASES = [("a4/L", 3), ("c2/L", 3), ("d8/L", 3), ("s4/Lcr", 3),
                ("s4/Lplus", 3), ("s5/L", 3), ("psl27/L", 2), ("s6/L", 2),
                ("a6pair/Lcr", 2), ("a6pair/Lplus", 2)]


def _fresh(name: str) -> Locality:
    fixture, locname = name.split("/")
    bundle, _ = build_fixture(PATHS[fixture], k=1)
    return bundle.localities[locname]


def _threaded(loc: Locality, w) -> bool:
    """Whether w is threaded through the objects, from the definition."""
    heads = set(loc.objects)
    for f in w:
        conj = loc.pg.conj_maps[f]
        heads = {frozenset(conj[x] for x in P) for P in heads
                 if P <= loc.s_f(f)} & loc.object_set
    return bool(heads)


# ---------------------------------------------------------------------------
# the bounded scans as oracles


@pytest.mark.parametrize("name, k", ORACLE_CASES)
def test_bounded_scans_agree_with_the_certificate(name, k):
    loc = _fresh(name)
    pg = loc.pg
    assert validate_locality(loc, k).ok
    certificate = carrier_certificate(loc)
    assert certificate.ok, certificate.witness_lines()
    assert chain_product_walk(loc) is None

    assert oracles.validate_bounded(pg, k).ok
    if loc.proven_full:
        assert oracles.validate_full(pg).ok
    assert oracles.check_cancellation(pg, k=k) == []
    laws = oracles.word_law_walk(loc, _whole_conjugation_table(loc), k)
    assert laws == [(True, "")] * 4
    assert (list(oracles.iter_domain_words(pg, k))
            == list(oracles.chain_domain_words(loc, k)))


def test_certified_validation_is_kept_for_every_bound(monkeypatch):
    certified = []
    real = locality.carrier_certificate
    monkeypatch.setattr(locality, "carrier_certificate",
                        lambda loc: certified.append(loc) or real(loc))
    loc = _fresh("s5/L")  # the build certifies it
    report = validate_locality(loc, 3)
    assert report.ok and not report.pg_report.failures
    assert all(validate_locality(loc, k) is report for k in (1, 2, 4, 9))
    assert certified == [loc]


# ---------------------------------------------------------------------------
# the product walk on tables whose accepting bits were flipped


def _flipped(name: str, state: int) -> Locality:
    loc = _fresh(name)
    pg = loc.pg
    pg.word_in_domain(())  # builds the table
    pg._accepts[state] = not pg._accepts[state]
    return loc


@pytest.mark.parametrize("state", range(9))
def test_product_walk_names_the_least_disagreeing_word(state):
    """s5/L has 9 table states, all reached by words of length <= 2."""
    loc = _flipped("s5/L", state)
    pg = loc.pg
    w, side = chain_product_walk(loc)
    assert pg.word_in_domain(w) == (side == "S_w test only")
    assert pg.word_in_domain(w) != _threaded(loc, w)
    # no shorter word, and no word of the same length before it, disagrees
    for n in range(len(w) + 1):
        for v in itertools.product(range(pg.size), repeat=n):
            if v == w:
                return
            assert pg.word_in_domain(v) == _threaded(loc, v), v
    raise AssertionError("the named word was not reached")


def test_product_walk_sees_past_the_bounded_merge():
    """A psl27/L state first reached at length 4, made accepting: the word
    scans stop at length 3, the product walk names a word of length 4."""
    probe = _fresh("psl27/L").pg
    rows = probe._next or probe._build_table()
    depth = {0: 0}
    queue = [0]
    for s in queue:
        for nxt in rows[s]:
            if nxt not in depth:
                depth[nxt] = depth[s] + 1
                queue.append(nxt)
    state = min(s for s, d in depth.items() if d == 4)
    assert not probe._accepts[state]

    loc = _flipped("psl27/L", state)
    w, side = chain_product_walk(loc)
    assert len(w) == 4 and side == "S_w test only"
    assert loc.pg.word_in_domain(w) and not _threaded(loc, w)
    # the certificate and the structural checks read words of length <= 2
    fresh = Locality(loc.pg, loc.p, ambient=loc.ambient, carrier=loc.carrier)
    report = validate_locality(fresh, 3)
    assert report.pg_report.ok
    assert [c.name for c in report.failing()] == ["domain-matches-chains"]
    assert report.failing()[0].detail == (
        f"word {loc.pg.label_word(w)} in S_w test only")
    # the bounded merge of the word scans misses it; without a carrier the
    # walk still names it, beside the missing certificate
    assert oracles.bounded_chain_mismatch(fresh, 3) is None
    bare = Locality(loc.pg, loc.p)
    assert [c.name for c in validate_locality(bare, 3).failing()] == [
        "partial-group", "domain-matches-chains"]


# ---------------------------------------------------------------------------
# corruptions that keep the carrier


def _corrupt_product(loc):
    pg = loc.pg
    table = oracles.pair_dict(pg)
    a, b = next(key for key in sorted(table)
                if pg.identity not in key and table[key] != pg.identity)
    table[(a, b)] = pg.identity
    return {"pair_table": table}, None, pg.label_word((a, b))


def _extra_pair(loc):
    pg = loc.pg
    table = oracles.pair_dict(pg)
    a, b = next((a, b) for a in range(pg.size) for b in range(pg.size)
                if (a, b) not in table)
    table[(a, b)] = pg.identity
    return {"pair_table": table}, None, pg.label_word((a, b))


def _dropped_object(loc):
    pg = loc.pg
    dropped = min((pg.s_f(f) for f in range(pg.size) if pg.s_f(f) != pg.s_members),
                  key=lambda P: (len(P), sorted(P)))
    pair = min(key for key in oracles.pair_dict(pg) if pg.s_of_word(key) == dropped)
    objects = [P for P in pg.objects if P != dropped]
    return {"objects": objects}, None, pg.label_word(pair)


def _corrupt_conjugation(loc):
    pg = loc.pg
    f = min(f for f in range(pg.size) if pg.s_f(f) != pg.s_members)
    x = min(x for x in pg.s_f(f) if x != pg.identity)
    maps = [dict(m) for m in pg.conj_maps]
    maps[f][x] = next(y for y in sorted(pg.s_members)
                      if y not in (pg.identity, maps[f][x]))
    return {"conj_maps": maps}, None, f"conjugation by {pg.labels[f]} sends {pg.labels[x]}"


def _collapse_carrier(loc):
    pg = loc.pg
    a, b = sorted(f for f in range(pg.size) if f != pg.identity)[:2]
    carrier = list(loc.carrier)
    carrier[b] = carrier[a]
    return {}, tuple(carrier), f"{pg.labels[a]} and {pg.labels[b]} both go to"


CORRUPTIONS = {"product": _corrupt_product, "extra pair": _extra_pair,
               "dropped object": _dropped_object,
               "conjugation entry": _corrupt_conjugation,
               "carrier injectivity": _collapse_carrier}

# s4/Lplus is all of S4 with a full pair table, so no pair can be added
MUTATION_CASES = [(name, what) for name in ("s5/L", "s4/Lplus")
                  for what in CORRUPTIONS
                  if (name, what) != ("s4/Lplus", "extra pair")]


@pytest.mark.parametrize("name, what", MUTATION_CASES)
def test_corruption_fails_the_certificate_and_falls_back(name, what):
    """The certificate fails and `validate_locality` reports its witness.
    A dropped object changes the domain, not a product, so it passes the
    certificate and fails the structural check that compares the pair
    table with the domain, which the certificate relies on.  The
    reference word scans, run on the carrier-free copy, fall back to the
    definition: every corruption but the carrier's own is a defect of the
    partial group."""
    loc = _fresh(name)
    changes, carrier, witness = CORRUPTIONS[what](loc)
    bad = Locality(_mutate(loc.pg, **changes), loc.p, ambient=loc.ambient,
                   carrier=carrier or loc.carrier)
    bare = Locality(_mutate(loc.pg, **changes), loc.p)

    certificate = carrier_certificate(bad)
    report = validate_locality(bad, 3)
    assert not report.ok
    check = next(c for c in report.checks if c.name == "partial-group")
    assert not check.ok
    if what == "dropped object":
        assert certificate.ok
        pairs = next(c for c in report.checks
                     if c.name == "pair-table-matches-domain")
        assert not pairs.ok and witness in pairs.detail
    else:
        assert not certificate.ok
        assert witness in certificate.failures[0].witness
        assert witness in check.detail
    assert oracles.validate_by_words(bare, 3).ok == (what == "carrier injectivity")
