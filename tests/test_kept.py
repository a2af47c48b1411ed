"""The one keep-once helper, `groups._kept`.

A value derived from a group, a locality or a transporter system is
computed once and kept on that object under (function, *arguments), in
the one store `_derived` that the helper makes on first use.  So a fresh
instance holds only its data, and after any amount of work the only
attribute added is that store.
"""

import os
import types

import pytest

from loclab import groups
from loclab.extension import (automorphism_group, is_locality_automorphism,
                              rigid_automorphisms)
from loclab.fixtures import build_fixture
from loclab.fusion import fusion_from_group, fusion_from_locality
from loclab.groups import _kept, parse_group, subgroup_lattice, sylow_p
from loclab.locality import locality_from_group, validate_locality
from loclab.normal import enumerate_partial_normal
from loclab.transporter import (
    aut_transporter,
    linking_system_defect,
    locality_of_transporter,
    out_typ,
    transporter_of_locality,
)

FIXTURE_DIR = os.path.join(os.path.dirname(__file__), "..", "fixtures")
S4_DOC = {"degree": 4, "generators": [[[1, 2]], [[1, 2, 3, 4]]]}

GROUP_DATA = {"order", "identity", "_inv", "degree", "elements", "generators",
              "_index"}
LOCALITY_DATA = {"pg", "p", "s", "objects", "object_set", "ambient", "carrier",
                 "parent", "parent_index"}
SYSTEM_DATA = {"p", "s_labels", "s_mul", "s_inv", "objects", "object_set",
               "fusion", "src", "dst", "g_labels", "pi", "comp", "delta",
               "s_identity", "_by_pair", "_leaving", "_arriving", "incl",
               "identity_ids", "_inverse", "generators", "_verdicts"}


class Box:
    pass


# ---- the helper itself -----------------------------------------------------


def test_a_call_is_computed_once_per_function_and_arguments():
    calls = []

    def compute(obj, *args):
        calls.append(args)
        return None if not args else sum(args)

    box = Box()
    assert _kept(box, compute) is None
    assert _kept(box, compute) is None
    assert _kept(box, compute, 2) == 2
    assert _kept(box, compute, 2, 3) == 5
    assert _kept(box, compute, 2) == 2
    assert calls == [(), (2,), (2, 3)]
    assert set(box._derived) == {(compute,), (compute, 2), (compute, 2, 3)}
    # another object keeps its own values
    assert _kept(Box(), compute, 2) == 2
    assert calls[-1] == (2,) and len(calls) == 4


def test_the_decorator_keys_by_the_undecorated_function():
    calls = []

    @_kept
    def double(obj, n):
        calls.append(n)
        return [2 * n]

    box = Box()
    first = double(box, 4)
    assert first == [8] and double(box, 4) is first
    assert double(box, 5) == [10]
    assert calls == [4, 5]
    assert set(box._derived) == {(double.__wrapped__, 4), (double.__wrapped__, 5)}
    assert double.__name__ == "double"


def test_sylow_subgroups_are_kept_per_prime(monkeypatch):
    """Each Sylow subgroup of S4 is grown once; the growth asks for
    normalizers, so their count shows each computation."""
    counted = [0]
    real = groups.normalizer

    def counting(group, sub):
        counted[0] += 1
        return real(group, sub)

    monkeypatch.setattr(groups, "normalizer", counting)
    g = parse_group(S4_DOC)
    p2 = sylow_p(g, 2)
    after_2 = counted[0]
    p3 = sylow_p(g, 3)
    after_3 = counted[0]
    assert (p2.order, p3.order) == (8, 3)
    assert 0 < after_2 < after_3
    assert sylow_p(g, 2) is p2 and sylow_p(g, 3) is p3
    assert counted[0] == after_3
    # a new instance of the same group grows its own
    assert sylow_p(parse_group(S4_DOC), 3).order == 3
    assert counted[0] > after_3


# ---- no constructor declares a memo ---------------------------------------


def test_fresh_instances_hold_only_their_data():
    g = parse_group(S4_DOC)
    assert set(vars(g)) == GROUP_DATA
    loc = locality_from_group(g, 2, [sylow_p(g, 2).members])
    assert set(vars(loc)) == LOCALITY_DATA
    T = transporter_of_locality(loc)
    assert set(vars(T)) == SYSTEM_DATA
    assert T._verdicts == {}


def _derive_everything(loc):
    validate_locality(loc, 3)
    fusion_from_locality(loc)
    enumerate_partial_normal(loc)
    automorphism_group(loc)
    is_locality_automorphism(loc, range(loc.size))
    rigid_automorphisms(loc)
    loc.s_group()
    T = transporter_of_locality(loc)
    aut_transporter(T)
    if linking_system_defect(T) is None:
        out_typ(T)
    return T


@pytest.mark.parametrize("fixture", ["s4", "d8"])
def test_derived_data_lives_in_the_one_store(fixture):
    bundle, _ = build_fixture(os.path.join(FIXTURE_DIR, f"{fixture}.json"), k=1)
    g = bundle.group
    fusion_from_group(g, bundle.p)
    subgroup_lattice(g)
    expected = [(g, GROUP_DATA)]
    for loc in bundle.localities.values():
        T = _derive_everything(loc)
        expected += [(loc, LOCALITY_DATA), (T, SYSTEM_DATA),
                     (locality_of_transporter(T), LOCALITY_DATA)]
    for obj, data in expected:
        assert set(vars(obj)) == data | {"_derived"}
        assert all(isinstance(key[0], types.FunctionType) for key in obj._derived)


# ---- public wrappers hand out copies ---------------------------------------


def test_each_call_hands_out_a_fresh_copy():
    """Like `locality_automorphisms` and `rigid_automorphisms`
    (`test_memo_returns_fresh_lists`), the other wrappers that copy a kept
    list or dict give each caller its own: clearing one leaves the kept
    value, and the next call, whole."""
    bundle, _ = build_fixture(os.path.join(FIXTURE_DIR, "s4.json"), k=1)
    loc = bundle.localities["Lcr"]
    T = transporter_of_locality(loc)
    assert linking_system_defect(T) is None
    for fn, obj in ((enumerate_partial_normal, loc), (aut_transporter, T),
                    (out_typ, T)):
        first = fn(obj)
        assert first, fn.__name__
        second = fn(obj)
        assert second == first and second is not first
        whole = type(first)(first)
        first.clear()
        assert fn(obj) == whole
