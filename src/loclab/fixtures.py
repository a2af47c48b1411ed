"""Fixture files: JSON descriptions of localities over a finite group.

A fixture names one permutation group, a prime, and one or more object
families over the Sylow p-subgroup.  Two layouts are accepted.

Single locality::

    {"group": {"degree": 4, "generators": [[[1, 2]], [[1, 2, 3, 4]]]},
     "p": 2,
     "objects": {"mode": "named", "data": "crit"}}

Bundle with named localities and restriction pairs::

    {"group": ..., "p": 2,
     "localities": {"Lcr":  {"objects": {"mode": "named", "data": "crit"}},
                    "Lplus": {"objects": {"mode": "named", "data": "order-ge 4"}}},
     "pairs": [["Lcr", "Lplus"]]}

Object modes:

* ``explicit``: data is a list of subgroups, each given by a list of
  generating permutations in 1-based cycle lists.  The family must already
  be closed under conjugation into S and overgroups in S.
* ``up-closure``: same data format, but the family is closed automatically.
* ``named``: data is one of the recipes ``"all"``, ``"crit"``,
  ``"subcentric"`` or ``"order-ge N"``, resolved through the fusion system
  of the ambient group.

Each pair ``[small, big]`` asserts that the small family is contained in
the big one; the small locality is then built as the restriction of the
big one, so that downstream comparisons see a genuine restriction.  A
locality is the small side of at most one pair, and that pair comes after
the pair whose small side is its big side.

Malformed documents raise FixtureError (a usage problem).  Documents that
parse but describe invalid mathematics (an object family that is not
closed, a family outside the Sylow subgroup, a failed axiom check) are
reported as check failures with witnesses in cycle notation.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from typing import Iterable

from .fusion import fusion_from_group
from .groups import FiniteGroup, GroupBuildError, parse_group, subgroup_closure, sylow_p
from .locality import (
    Locality,
    LocalityBuildError,
    locality_from_group,
    restriction,
    validate_locality,
)
from .reports import Check, Report, Section
from . import perm

NAMED_RECIPES = ("all", "crit", "subcentric", "order-ge N")


class FixtureError(ValueError):
    """The fixture document itself is malformed (a usage error)."""


@dataclass
class FixtureBundle:
    """A built fixture: the group, the prime, and the named localities."""
    name: str
    group: FiniteGroup
    p: int
    localities: dict[str, Locality] = field(default_factory=dict)
    pairs: list[tuple[str, str]] = field(default_factory=list)

    def single(self) -> Locality:
        """The unique locality, for single-locality fixtures."""
        if len(self.localities) != 1:
            raise FixtureError("fixture declares more than one locality; name one")
        return next(iter(self.localities.values()))


@dataclass(frozen=True)
class ParsedFixture:
    """A structurally validated fixture document, not yet built."""
    group_doc: dict
    p: int
    object_specs: dict[str, dict]
    pairs: tuple[tuple[str, str], ...]


# ---------------------------------------------------------------------------
# parsing (structure errors only)


def load_fixture(path: str) -> ParsedFixture:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise FixtureError(f"cannot read fixture {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise FixtureError(f"fixture {path} is not valid JSON: {exc}") from exc
    return parse_fixture(doc)


def parse_fixture(doc) -> ParsedFixture:
    if not isinstance(doc, dict):
        raise FixtureError("fixture document must be a JSON object")
    for key in ("group", "p"):
        if key not in doc:
            raise FixtureError(f"fixture is missing the {key!r} key")
    group_doc = doc["group"]
    if not isinstance(group_doc, dict):
        raise FixtureError("'group' must be an object with degree and generators")
    p = doc["p"]
    if not isinstance(p, int) or p < 2:
        raise FixtureError(f"'p' must be a prime, got {p!r}")

    has_single = "objects" in doc
    has_bundle = "localities" in doc
    if has_single == has_bundle:
        raise FixtureError("fixture needs exactly one of 'objects' or 'localities'")

    specs: dict[str, dict] = {}
    pairs: list[tuple[str, str]] = []
    if has_single:
        specs["L"] = _check_objects_spec(doc["objects"], "objects")
        if "pairs" in doc:
            raise FixtureError("'pairs' requires the 'localities' layout")
    else:
        locdoc = doc["localities"]
        if not isinstance(locdoc, dict) or not locdoc:
            raise FixtureError("'localities' must be a non-empty object")
        for name, entry in locdoc.items():
            if not isinstance(entry, dict) or "objects" not in entry:
                raise FixtureError(f"locality {name!r} needs an 'objects' entry")
            specs[name] = _check_objects_spec(entry["objects"], f"localities.{name}.objects")
        for pair in doc.get("pairs", []):
            if (not isinstance(pair, list) or len(pair) != 2
                    or not all(isinstance(x, str) for x in pair)):
                raise FixtureError("each pair must be a [small, big] name list")
            small, big = pair
            for name in (small, big):
                if name not in specs:
                    raise FixtureError(f"pair names unknown locality {name!r}")
            if small == big:
                raise FixtureError("a pair must name two different localities")
            pairs.append((small, big))
    return ParsedFixture(group_doc, p, specs, tuple(pairs))


def _check_objects_spec(spec, where: str) -> dict:
    if not isinstance(spec, dict):
        raise FixtureError(f"{where} must be an object with 'mode' and 'data'")
    mode = spec.get("mode")
    if mode not in ("explicit", "up-closure", "named"):
        raise FixtureError(
            f"{where}: unknown mode {mode!r} (want explicit, up-closure or named)")
    if "data" not in spec:
        raise FixtureError(f"{where}: missing 'data'")
    data = spec["data"]
    if mode == "named":
        if not isinstance(data, str):
            raise FixtureError(f"{where}: named data must be a recipe string")
        _parse_recipe(data, where)
    else:
        if not isinstance(data, list) or not data:
            raise FixtureError(f"{where}: data must be a non-empty list of subgroups")
        for k, sub in enumerate(data):
            if not isinstance(sub, list):
                raise FixtureError(f"{where}: subgroup {k} must be a list of generators")
            for gen in sub:
                if not isinstance(gen, list) or not all(
                        isinstance(c, list) and all(isinstance(x, int) for x in c)
                        for c in gen):
                    raise FixtureError(
                        f"{where}: subgroup {k} generators must be cycle lists")
    return spec


def _parse_recipe(data: str, where: str):
    words = data.split()
    if data in ("all", "crit", "subcentric"):
        return (data, None)
    if len(words) == 2 and words[0] == "order-ge":
        try:
            n = int(words[1])
        except ValueError:
            raise FixtureError(f"{where}: order-ge needs an integer, got {words[1]!r}")
        if n < 1:
            raise FixtureError(f"{where}: order-ge needs a positive bound")
        return ("order-ge", n)
    raise FixtureError(
        f"{where}: unknown recipe {data!r} (want one of {', '.join(NAMED_RECIPES)})")


# ---------------------------------------------------------------------------
# building (mathematical failures become report checks)


def _subgroup_members(group: FiniteGroup, s_amb: frozenset[int], sub_gens,
                      where: str, section: Section) -> frozenset[int] | None:
    """Resolve one explicit subgroup spec to a member set inside S."""
    idxs = []
    for gen in sub_gens:
        try:
            p = perm.cycles_to_perm(gen, group.degree)
        except ValueError as exc:
            raise FixtureError(f"{where}: bad cycle list {gen!r}: {exc}") from exc
        try:
            i = group.index_of(p)
        except KeyError:
            raise FixtureError(
                f"{where}: permutation {perm.cycle_string(p)} is not in the group")
        idxs.append(i)
    members = frozenset(subgroup_closure(group, idxs))
    if not members <= s_amb:
        outside = min(x for x in members if x not in s_amb)
        section.add(f"{where} inside Sylow subgroup", False,
                    f"generated subgroup contains {group.label(outside)}, "
                    "which is outside S")
        return None
    return members


def _closure_witness(group: FiniteGroup, p: int,
                     fam: list[frozenset[int]]) -> str | None:
    """Cycle-notation witness that fam is not closed, or None; decided by
    `FusionSystem.family_defect` on F_S(M)."""
    defect = fusion_from_group(group, p).family_defect(fam)
    if defect is None:
        return None
    kind, P, Q = defect
    return (f"{kind} {{{_members_label(group, Q)}}} of "
            f"{{{_members_label(group, P)}}} is missing from the family")


def _members_label(group: FiniteGroup, members: Iterable[int]) -> str:
    return ", ".join(group.label(x) for x in sorted(members))


def _resolve_objects(group: FiniteGroup, p: int, spec: dict, where: str,
                     section: Section) -> list[frozenset[int]] | None:
    """Turn one objects spec into a list of subgroup member sets, or report."""
    s_amb = frozenset(sylow_p(group, p).members)
    mode = spec["mode"]
    data = spec["data"]
    if mode == "named":
        recipe, arg = _parse_recipe(data, where)
        fus = fusion_from_group(group, p)
        if recipe == "all":
            fam = [frozenset(P) for P in fus.subgroups]
        elif recipe == "crit":
            fam = [frozenset(P) for P in fus.centric_radical_subgroups()]
        elif recipe == "subcentric":
            fam = [frozenset(P) for P in fus.subcentric_subgroups()]
        else:
            fam = [frozenset(P) for P in fus.subgroups if len(P) >= arg]
        if not fam:
            section.add(f"{where} recipe is non-empty", False,
                        f"recipe {data!r} selects no subgroups")
            return None
        return fam

    fam = []
    for k, sub_gens in enumerate(data):
        members = _subgroup_members(group, s_amb, sub_gens,
                                    f"{where} subgroup {k}", section)
        if members is None:
            return None
        fam.append(members)
    if mode == "explicit":
        witness = _closure_witness(group, p, fam)
        if witness is not None:
            section.add(f"{where} family closed", False, witness)
            return None
    return fam


def build_bundle(parsed: ParsedFixture, name: str, *,
                 k: int = 4) -> tuple[FixtureBundle | None, Report]:
    """Build and validate every declared locality.

    The small side of a pair is the restriction of the big side, not built
    from the group.  Returns the bundle and a report; the bundle is None
    exactly when some check in the report failed.  Structure errors raise
    FixtureError.
    """
    report = Report(f"build {name}")
    section = report.section("build")
    try:
        group = parse_group(parsed.group_doc)
    except GroupBuildError as exc:
        raise FixtureError(f"bad group document: {exc}") from exc
    if group.order % parsed.p != 0:
        section.add("prime divides group order", False,
                    f"{parsed.p} does not divide {group.order}")
        return None, report

    big_of = dict(parsed.pairs)
    declared = list(parsed.object_specs)
    locs: dict[str, Locality] = {}
    for locname in ([n for n in declared if n not in big_of]
                    + [small for small, _ in parsed.pairs]):
        spec = parsed.object_specs[locname]
        fam = _resolve_objects(group, parsed.p, spec, locname, section)
        if fam is None:
            return None, report
        auto = spec["mode"] == "up-closure"
        big = big_of.get(locname)
        if big is None:
            try:
                loc = locality_from_group(group, parsed.p, fam, auto_close=auto)
            except LocalityBuildError as exc:
                section.add(f"{locname} builds", False, str(exc))
                return None, report
        else:
            if big not in locs or locname in locs:
                raise FixtureError(f"pair [{locname}, {big}]: restrict each "
                                   "locality once, big sides first")
            if auto:
                fam = [frozenset(P) for P in
                       fusion_from_group(group, parsed.p).family_closure(fam)]
            loc_big = locs[big]
            by_family = {frozenset(loc_big.carrier[x] for x in P): P
                         for P in loc_big.objects}
            stray = [P for P in sorted(set(fam), key=sorted) if P not in by_family]
            if stray:
                section.add(f"pair {locname} <= {big}", False,
                            f"object {{{_members_label(group, stray[0])}}} of "
                            f"{locname} is not an object of {big}")
                return None, report
            try:
                loc = restriction(loc_big, [by_family[P] for P in set(fam)])
            except LocalityBuildError as exc:
                section.add(f"pair {locname} <= {big} restricts", False, str(exc))
                return None, report
        vep = validate_locality(loc, k=k)
        if not vep.ok:
            bad = vep.failing()[0]
            section.add(f"{locname} validates", False,
                        f"{bad.name}: {bad.detail}")
            return None, report
        # the line goes after those of the localities declared before it
        at = sum(n in locs for n in declared[:declared.index(locname)])
        section.checks.insert(at, Check(
            f"{locname} builds and validates "
            f"({len(loc.objects)} objects, {loc.size} elements)", True))
        locs[locname] = loc
        if big is not None:
            section.add(f"pair {locname} <= {big} restricts "
                        f"({loc.size} of {locs[big].size} elements)", True)
    return FixtureBundle(name, group, parsed.p, {n: locs[n] for n in declared},
                         list(parsed.pairs)), report


def build_fixture(path: str, *, k: int = 4) -> tuple[FixtureBundle | None, Report]:
    """Load, parse and build a fixture file in one step."""
    parsed = load_fixture(path)
    name = os.path.splitext(os.path.basename(path))[0]
    return build_bundle(parsed, name, k=k)
