"""Measured structure of the ladder fixtures, frozen.

Textbook background: Aschbacher-Kessar-Oliver, Fusion Systems in Algebra
and Topology, LMS LN 391.  PSL(2,7) at p=2 has Sylow D8 and two classes of
V4, each self-centralizing with Aut = S3; A6 at p=3 has abelian Sylow
C3 x C3, so the only centric radical subgroup is S.  Structure does not
depend on the word length of the validation scan, so the fixtures are
built at k=2 to keep the tests quick.
"""

from loclab.fixtures import build_fixture
from workloads import FIXTURES


def _build(key):
    bundle, report = build_fixture(str(FIXTURES[key]), k=2)
    assert bundle is not None, report.sections
    return bundle


def _object_orders(loc):
    return sorted(len(P) for P in loc.objects)


def test_psl27_crit_is_d8_and_two_v4_classes():
    bundle = _build("psl27")
    assert bundle.group.order == 168 and bundle.p == 2
    loc = bundle.single()
    assert loc.size == 40
    assert _object_orders(loc) == [4, 4, 8]
    v4s = [P for P in loc.objects if len(P) == 4]
    # the two V4s are not conjugate in the locality: no element moves one
    # onto the other
    assert loc.transporter_elements(v4s[0], v4s[1]) == ()
    assert not loc.pg.is_full_domain


def test_a6_pair_crit_is_abelian_sylow_only():
    bundle = _build("a6pair")
    assert bundle.group.order == 360 and bundle.p == 3
    crit, plus = bundle.localities["Lcr"], bundle.localities["Lplus"]
    assert _object_orders(crit) == [9]
    assert crit.size == 36 and crit.pg.is_full_domain
    assert _object_orders(plus) == [3, 3, 3, 3, 9]
    assert plus.size == 36
    s_group = crit.s_group()
    assert all(s_group.mul(a, b) == s_group.mul(b, a)
               for a in s_group.indices() for b in s_group.indices())


def test_s6_crit_structure():
    bundle = _build("s6")
    assert bundle.group.order == 720 and bundle.p == 2
    loc = bundle.single()
    assert loc.size == 80
    assert _object_orders(loc) == [8, 8, 16]
    assert not loc.pg.is_full_domain

