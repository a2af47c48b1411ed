"""Command line driver.

Verbs:

* ``loclab build FIXTURE``: construct and validate everything a fixture
  declares; exit 0 when all validations pass.
* ``loclab verify SUITE FIXTURE``: run one named check suite (or ``all``).
* ``loclab enumerate WHAT FIXTURE``: list subgroups, objects, partial
  normal subgroups, automorphisms or outer automorphism classes.
* ``loclab report FIXTURE``: build, verify everything and enumerate the
  headline listings in one document.

Exit codes: 0 when every check passes, 1 when some verified statement
fails, 2 for usage errors and malformed input.  Reports are deterministic
byte for byte for a given fixture and flags; wall-clock timing goes to
stderr so it never perturbs the report.
"""

from __future__ import annotations

import argparse
import sys
import time

from .extension import locality_automorphisms, rigid_automorphisms
from .fixtures import FixtureBundle, FixtureError, build_fixture
from .groups import subgroup_lattice
from .normal import ENUM_CAP, NormalError, enumerate_partial_normal
from .reports import Report, Section, render
from .transporter import (
    inner_auts,
    aut_transporter,
    linking_system_defect,
    out_typ,
    transporter_of_locality,
)
from .verify import SUITE_ORDER, SUITES, run_suites

ENUM_TARGETS = ("subgroups", "objects", "partial-normal", "aut-locality",
                "aut-transporter", "out-typ")


def _parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="loclab",
        description="build and verify localities over small finite groups")
    sub = ap.add_subparsers(dest="verb", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", choices=("json", "md"), default="json",
                        help="report format (default json)")
    common.add_argument("--max-word-len", type=int, default=3, metavar="K",
                        help="word length quoted in report lines; every "
                        "check holds at all lengths (default 3)")
    common.add_argument("--enum-cap", type=int, default=None, metavar="N",
                        help="largest locality for partial normal "
                        "enumeration (also in theoremC) and longest "
                        "automorphism list (default 512)")

    b = sub.add_parser("build", parents=[common],
                       help="construct and validate a fixture")
    b.add_argument("fixture")

    v = sub.add_parser("verify", parents=[common],
                       help="run one verification suite")
    v.add_argument("suite", help="one of %s or all" % ", ".join(SUITE_ORDER))
    v.add_argument("fixture")

    e = sub.add_parser("enumerate", parents=[common],
                       help="list structures of a built fixture")
    e.add_argument("what", help="one of %s" % ", ".join(ENUM_TARGETS))
    e.add_argument("fixture")
    e.add_argument("--name", default=None,
                   help="restrict to one declared locality")

    r = sub.add_parser("report", parents=[common],
                       help="full verification and enumeration document")
    r.add_argument("fixture")
    return ap


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        code, report = _dispatch(args)
    except FixtureError as exc:
        print(f"loclab: {exc}", file=sys.stderr)
        return 2
    sys.stdout.write(render(report, args.out))
    print(f"elapsed: {time.monotonic() - t0:.2f}s", file=sys.stderr)
    return code


def _dispatch(args) -> tuple[int, Report]:
    word_len = args.max_word_len
    if word_len < 1:
        raise FixtureError("--max-word-len must be at least 1")
    if args.enum_cap is not None and args.enum_cap < 1:
        raise FixtureError("--enum-cap must be positive")

    bundle, build_report = build_fixture(args.fixture, k=min(word_len, 4))
    if args.verb == "build":
        return (0 if build_report.ok else 1), build_report
    if bundle is None:
        return 1, build_report

    if args.verb == "verify":
        names = _suite_names(args.suite)
        report = run_suites(bundle, names, max_word_len=word_len,
                            enum_cap=args.enum_cap)
        return (0 if report.ok else 1), report

    if args.verb == "enumerate":
        report = Report(f"enumerate {bundle.name}")
        section = _enumerate(bundle, args.what, args.name, args.enum_cap)
        report.sections.append(section)
        return (0 if report.ok else 1), report

    report = run_suites(bundle, SUITE_ORDER, max_word_len=word_len,
                        enum_cap=args.enum_cap)
    report.title = f"report {bundle.name}"
    report.sections[:0] = build_report.sections
    for what in ("objects", "partial-normal", "aut-locality", "out-typ"):
        report.sections.append(_enumerate(bundle, what, None, args.enum_cap))
    return (0 if report.ok else 1), report


def _suite_names(token: str) -> tuple[str, ...]:
    if token == "all":
        return SUITE_ORDER
    if token not in SUITES:
        raise FixtureError(
            f"unknown suite {token!r}; choose from {', '.join(SUITE_ORDER)} or all")
    return (token,)


def _pick(bundle: FixtureBundle, name: str | None) -> dict:
    if name is None:
        return bundle.localities
    if name not in bundle.localities:
        raise FixtureError(
            f"fixture declares no locality named {name!r}; it has "
            f"{', '.join(bundle.localities)}")
    return {name: bundle.localities[name]}


def _enumerate(bundle: FixtureBundle, what: str, name: str | None,
               enum_cap: int | None) -> Section:
    if what not in ENUM_TARGETS:
        raise FixtureError(
            f"unknown enumeration target {what!r}; choose from "
            f"{', '.join(ENUM_TARGETS)}")
    section = Section(f"enumerate {what}")
    locs = _pick(bundle, name)
    cap = enum_cap if enum_cap is not None else ENUM_CAP

    if what == "subgroups":
        view = next(iter(locs.values()))  # all localities share S
        tokens = view.s_group().tokens
        subs = []
        for subg in subgroup_lattice(view.s_group()):
            members = sorted(tokens[i] for i in subg.members)
            subs.append({"order": len(members),
                         "members": ", ".join(view.pg.labels[x]
                                              for x in members)})
        subs.sort(key=lambda row: (row["order"], row["members"]))
        section.items.extend(subs)
        section.add(f"enumerated {len(subs)} subgroups of S", True)
        return section

    if what == "objects":
        for locname, loc in locs.items():
            for P in loc.objects:
                section.items.append({
                    "locality": locname,
                    "order": len(P),
                    "members": ", ".join(loc.pg.labels[x] for x in sorted(P)),
                })
        section.add(f"enumerated {len(section.items)} objects", True)
        return section

    if what == "partial-normal":
        for locname, loc in locs.items():
            try:
                found = enumerate_partial_normal(loc, cap=cap)
            except NormalError as exc:
                section.add(f"{locname}: partial normal enumeration within "
                            "budget", False, str(exc))
                continue
            for n in found:
                section.items.append({
                    "locality": locname,
                    "order": len(n.members),
                    "members": ", ".join(loc.pg.labels[x]
                                         for x in sorted(n.members)),
                })
            section.add(f"{locname}: enumerated {len(found)} partial normal "
                        "subgroups", True)
        return section

    if what == "aut-locality":
        for locname, loc in locs.items():
            auts = locality_automorphisms(loc)
            rigid = rigid_automorphisms(loc)
            if len(auts) > cap:
                section.add(f"{locname}: automorphism list within budget",
                            False, f"{len(auts)} automorphisms exceed {cap}")
                continue
            for i, a in enumerate(auts):
                moved = sum(1 for x, y in enumerate(a) if x != y)
                section.items.append({"locality": locname, "index": i,
                                      "moved": moved,
                                      "rigid": a in rigid})
            section.add(f"{locname}: enumerated {len(auts)} automorphisms "
                        f"({len(rigid)} rigid)", True)
        return section

    if what == "aut-transporter":
        for locname, loc in locs.items():
            T = transporter_of_locality(loc)
            auts = aut_transporter(T)
            inner = inner_auts(T)
            section.items.append({"locality": locname,
                                  "automorphisms": len(auts),
                                  "inner": len(inner)})
            section.add(f"{locname}: enumerated {len(auts)} category "
                        f"automorphisms ({len(inner)} inner)", True)
        return section

    for locname, loc in locs.items():
        T = transporter_of_locality(loc)
        defect = linking_system_defect(T)
        if defect is not None:
            section.add(f"{locname}: outer automorphism classes need a "
                        "linking system", False, defect)
            continue
        data = out_typ(T)
        section.items.append({"locality": locname,
                              "aut": data["aut_order"],
                              "inner": data["inner_order"],
                              "out": data["out_order"]})
        section.add(f"{locname}: enumerated {data['out_order']} outer "
                    "classes", True)
    return section


if __name__ == "__main__":
    raise SystemExit(main())
