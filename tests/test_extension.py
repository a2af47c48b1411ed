"""Maps between localities: certificates, automorphisms, extensions."""

import os

import pytest
from hypothesis import given, settings, strategies as st

from loclab import extension
from loclab.fixtures import build_fixture
from loclab.groups import parse_group, sylow_p, subgroup_lattice, subgroup_view
from loclab.locality import locality_from_group, restriction
from loclab.extension import (
    ExtensionError,
    aut_restriction_report,
    automorphism_group,
    compose_maps,
    extend_hom,
    hom_completions,
    hom_defect,
    iso_defect,
    kernel_of,
    locality_automorphisms,
    projection_defect,
    rigid_automorphisms,
)

import oracles

BENCH_FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "bench",
                                 "fixtures")

S4_DOC = {"degree": 4, "generators": [[[1, 2]], [[1, 2, 3, 4]]]}
S5_DOC = {"degree": 5, "generators": [[[1, 2]], [[1, 2, 3, 4, 5]]]}


def sylow_subgroups(group, p):
    s = sylow_p(group, p)
    view = subgroup_view(group, s.members)
    return s, [frozenset(view.tokens[i] for i in sub.members)
               for sub in subgroup_lattice(view)]


def ambient_objects(loc):
    return {frozenset(loc.carrier[x] for x in P) for P in loc.objects}


def pg_object(loc, ambient_set):
    for P in loc.objects:
        if frozenset(loc.carrier[x] for x in P) == frozenset(ambient_set):
            return P
    raise AssertionError("object not found")


@pytest.fixture(scope="module")
def s4_pair():
    """The locality of S4 on {V4, D8} inside the one on all of order >= 4."""
    g = parse_group(S4_DOC)
    _, subs = sylow_subgroups(g, 2)
    v4n = next(P for P in subs if {g.label(i) for i in P}
               == {"()", "(1 2)(3 4)", "(1 3)(2 4)", "(1 4)(2 3)"})
    d8 = next(P for P in subs if len(P) == 8)
    big = [P for P in subs if len(P) >= 4]
    loc_cr = locality_from_group(g, 2, [v4n, d8])
    loc_plus = locality_from_group(g, 2, big)
    restr = restriction(loc_plus, [pg_object(loc_plus, v4n),
                                   pg_object(loc_plus, d8)])
    return g, loc_cr, loc_plus, restr


@pytest.fixture(scope="module")
def s5_pair():
    """The transposition-type locality of S5 inside the one that also has
    the double-transposition V4 as an object."""
    g = parse_group(S5_DOC)
    _, subs = sylow_subgroups(g, 2)
    fam = [P for P in subs if len(P) > 1 and
           any(g.element_order(i) == 2 and g.label(i).count("(") == 1
               for i in P)]
    v4n = next(P for P in subs if len(P) == 4 and
               all(g.label(i).count("(") == 2 for i in P if i != g.identity))
    loc = locality_from_group(g, 2, fam)
    loc_plus = locality_from_group(g, 2, fam + [v4n])
    small = [P for P in loc_plus.objects
             if frozenset(loc_plus.carrier[x] for x in P)
             in {frozenset(F) for F in fam}]
    restr = restriction(loc_plus, small)
    q = pg_object(loc_plus, v4n)
    return g, loc, loc_plus, restr, q


@pytest.fixture(scope="module")
def a6_pair():
    """The A6 pair at p=3: the critical locality as a restriction of the
    one on all subgroups of order >= 3; |Aut| = 144 on both sides."""
    bundle, _ = build_fixture(os.path.join(BENCH_FIXTURE_DIR, "a6pair.json"))
    return bundle.localities["Lplus"], bundle.localities["Lcr"]


# (larger locality, restriction) out of each pair fixture
PLUS_AND_RESTRICTION = {
    "s4_pair": lambda pair: (pair[2], pair[3]),
    "s5_pair": lambda pair: (pair[2], pair[3]),
    "a6_pair": lambda pair: pair,
}


# ---------------------------------------------------------------------------
# certificates


def test_identity_is_isomorphism(s4_pair):
    _, loc_cr, _, _ = s4_pair
    ident = tuple(range(loc_cr.size))
    assert hom_defect(loc_cr, loc_cr, ident) is None
    assert iso_defect(loc_cr, loc_cr, ident) is None
    assert projection_defect(loc_cr, loc_cr, ident) is None
    assert kernel_of(loc_cr, ident, loc_cr) == frozenset([loc_cr.pg.identity])


def test_transposed_images_fail_certificate(s4_pair):
    _, loc_cr, _, _ = s4_pair
    bad = list(range(loc_cr.size))
    a = loc_cr.pg.identity
    b = next(i for i in range(loc_cr.size) if i != a)
    bad[a], bad[b] = bad[b], bad[a]
    assert hom_defect(loc_cr, loc_cr, tuple(bad)) is not None


def test_constant_map_fails_projection(s4_pair):
    _, loc_cr, _, _ = s4_pair
    e = loc_cr.pg.identity
    const = tuple(e for _ in range(loc_cr.size))
    assert projection_defect(loc_cr, loc_cr, const) is not None


def test_inclusion_is_homomorphism_not_projection(s5_pair):
    _, _, loc_plus, restr, _ = s5_pair
    inc = tuple(restr.parent_index)
    assert hom_defect(restr, loc_plus, inc) is None
    assert projection_defect(restr, loc_plus, inc) is not None


# ---------------------------------------------------------------------------
# automorphisms


def test_s4_automorphisms(s4_pair):
    _, loc_cr, loc_plus, _ = s4_pair
    auts = locality_automorphisms(loc_cr)
    assert len(auts) == 8
    for a in auts:
        assert iso_defect(loc_cr, loc_cr, a) is None
    grp = automorphism_group(loc_cr)
    assert grp.order == 8
    # conjugation by the center of S fixes S pointwise but not the rest
    assert len(rigid_automorphisms(loc_cr)) == 2
    assert len(locality_automorphisms(loc_plus)) == 8


def test_s4_aut_restriction_is_isomorphism(s4_pair):
    """Both object families give the same automorphism group, via the
    restriction map."""
    _, _, loc_plus, restr = s4_pair
    rep = aut_restriction_report(loc_plus, restr)
    assert rep["defined"]
    assert rep["injective"]
    assert rep["surjective"]
    assert rep["multiplicative"]
    assert len(rep["aut_plus"]) == len(rep["aut"]) == 8


def test_s5_aut_restriction_loses_information(s5_pair):
    """With the larger object family there are more automorphisms: the
    restriction map is onto but has a kernel of order two."""
    _, loc, loc_plus, restr, _ = s5_pair
    rep = aut_restriction_report(loc_plus, restr)
    assert len(rep["aut_plus"]) == 16
    assert len(rep["aut"]) == 8
    assert rep["defined"]
    assert not rep["injective"]
    assert rep["surjective"]
    assert rep["multiplicative"]
    assert len(locality_automorphisms(loc)) == 8


@pytest.mark.parametrize("pair", sorted(PLUS_AND_RESTRICTION))
def test_generator_check_matches_the_quadratic_scan(pair, request):
    plus, restr = PLUS_AND_RESTRICTION[pair](request.getfixturevalue(pair))
    rep = aut_restriction_report(plus, restr)
    assert rep["defined"]
    assert rep["multiplicative"]
    assert oracles.restriction_multiplicative_reference(plus, restr)


@pytest.mark.parametrize("victim", ["generator", "other"])
def test_a_twisted_restriction_is_not_multiplicative(victim, s4_pair,
                                                     monkeypatch):
    """Compose the restriction of one automorphism, a generator of
    Aut(L+) or not, with a non-identity automorphism of the restriction:
    both the generator check and the quadratic scan then fail."""
    _, _, loc_plus, restr = s4_pair
    group = automorphism_group(loc_plus)
    gens = set(group.generators)
    chosen = next(group.tokens[i] for i in group.indices()
                  if i != group.identity and (i in gens) == (victim == "generator"))
    twist = next(c for c in locality_automorphisms(restr)
                 if c != tuple(range(restr.size)))
    real = extension.restrict_automorphism

    def twisted(plus, small, alpha):
        image = real(plus, small, alpha)
        return compose_maps(image, twist) if tuple(alpha) == chosen else image

    monkeypatch.setattr(extension, "restrict_automorphism", twisted)
    monkeypatch.setattr(oracles, "restrict_automorphism", twisted)
    rep = aut_restriction_report(loc_plus, restr)
    assert rep["defined"]
    assert not rep["multiplicative"]
    assert not oracles.restriction_multiplicative_reference(loc_plus, restr)


# ---------------------------------------------------------------------------
# extension off a restriction


def test_extension_requires_normalizer_map(s5_pair):
    _, _, loc_plus, restr, q = s5_pair
    inc = tuple(restr.parent_index)
    with pytest.raises(ExtensionError, match="explicit normalizer map"):
        extend_hom(restr, loc_plus, inc)


def test_extension_of_inclusion_is_identity(s5_pair):
    _, _, loc_plus, restr, q = s5_pair
    inc = tuple(restr.parent_index)
    aq = {frozenset(q): {f: f for f in loc_plus.n_of(q)}}
    gamma = extend_hom(restr, loc_plus, inc, alpha_q=aq)
    assert gamma == tuple(range(loc_plus.size))


def test_extension_unique_with_normalizers_pinned(s5_pair):
    """Pinning the restriction alone leaves two homomorphic extensions;
    pinning the normalizer of the representative as well forces one."""
    _, _, loc_plus, restr, q = s5_pair
    pinned = {p: p for p in restr.parent_index}
    free_exts = hom_completions(loc_plus, loc_plus, pinned)
    assert len(free_exts) == 2
    assert tuple(range(loc_plus.size)) in free_exts
    pinned.update({f: f for f in loc_plus.n_of(q)})
    assert hom_completions(loc_plus, loc_plus, pinned) \
        == [tuple(range(loc_plus.size))]


def test_every_automorphism_is_recovered_by_extension(s5_pair):
    """Restricting any automorphism and extending it back along the
    formula returns the original map."""
    _, _, loc_plus, restr, q = s5_pair
    pi = restr.parent_index
    n_q = loc_plus.n_of(q)
    for sigma in locality_automorphisms(loc_plus):
        alpha = tuple(sigma[pi[i]] for i in range(restr.size))
        aq = {frozenset(q): {f: sigma[f] for f in n_q}}
        assert extend_hom(restr, loc_plus, alpha, alpha_q=aq) == tuple(sigma)


def test_extension_on_equal_carriers_is_alpha(s4_pair):
    """When the restriction removes objects but no elements or words, the
    extension is alpha itself under reindexing."""
    _, _, loc_plus, restr = s4_pair
    assert restr.size == loc_plus.size
    inc = tuple(restr.parent_index)
    gamma = extend_hom(restr, loc_plus, inc)
    assert gamma == tuple(range(loc_plus.size))


def test_extension_rejects_broken_normalizer_map(s5_pair):
    _, _, loc_plus, restr, q = s5_pair
    inc = tuple(restr.parent_index)
    n_q = list(loc_plus.n_of(q))
    swapped = {f: f for f in n_q}
    a, b = n_q[-1], n_q[-2]
    swapped[a], swapped[b] = swapped[b], swapped[a]
    with pytest.raises(ExtensionError):
        extend_hom(restr, loc_plus, inc, alpha_q={frozenset(q): swapped})


# ---------------------------------------------------------------------------
# word-level behaviour of certified maps


_CACHE = {}


def _s5_loc():
    if "loc" not in _CACHE:
        g = parse_group(S5_DOC)
        _, subs = sylow_subgroups(g, 2)
        fam = [P for P in subs if len(P) > 1 and
               any(g.element_order(i) == 2 and g.label(i).count("(") == 1
                   for i in P)]
        loc = locality_from_group(g, 2, fam)
        _CACHE["loc"] = loc
        _CACHE["auts"] = locality_automorphisms(loc)
    return _CACHE["loc"], _CACHE["auts"]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_automorphisms_preserve_domain_words_exactly(data):
    """The finite certificate really does control words of every length:
    domain membership and products transport along any automorphism."""
    loc, auts = _s5_loc()
    alpha = data.draw(st.sampled_from(auts))
    word = tuple(data.draw(
        st.lists(st.integers(0, loc.size - 1), min_size=0, max_size=4)))
    image = tuple(alpha[f] for f in word)
    assert loc.pg.word_in_domain(word) == loc.pg.word_in_domain(image)
    if loc.pg.word_in_domain(word):
        assert alpha[loc.pg.product(word)] == loc.pg.product(image)
