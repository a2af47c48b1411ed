"""Named verification suites over a built fixture bundle.

Each suite re-derives one slice of the theory on every locality (or every
declared restriction pair) in the bundle and reports pass/fail checks with
witnesses in cycle notation.  The suites are shared by the command line
driver and by the acceptance tests, so they trust no construction
invariant that they do not check.  The partial-group axioms,
cancellation and the word laws follow at every length from
`locality.validate_locality`: its carrier certificate checks L_Delta(M)
against the group M, and `locality.chain_product_walk` the domain.  A
locality the certificate does not cover fails these checks.  Every other
law is checked by exhaustive evaluation.  The word length bound sets only
the length that the report lines quote; the enumeration cap bounds the
partial normal enumeration of ``theoremC``.

Suite names follow the workbench vocabulary: ``axioms``, ``locality``,
``fusion``, ``theoremA1`` (restriction of automorphisms), ``theoremC``
(partial normal subgroup correspondence), ``transporter``, ``exactseq``
and ``all``.
"""

from __future__ import annotations

from typing import Callable

from .extension import aut_restriction_report, iso_defect, locality_automorphisms
from .fixtures import FixtureBundle
from .fusion import fusion_from_group, fusion_from_locality
from .locality import Locality, LocalityReport, validate_locality
from .normal import ENUM_CAP, NormalError, verify_normal_correspondence
from .reports import Report, Section
from .transporter import (
    aut_transporter,
    full_subcategory,
    iota_map,
    is_linking_system,
    lambda_map,
    linking_system_defect,
    linking_system_report,
    locality_of_transporter,
    out_typ,
    same_category,
    transporter_of_locality,
)

# ---------------------------------------------------------------------------
# axioms


def axioms_suite(bundle: FixtureBundle, *, max_word_len: int = 4,
                 enum_cap: int | None = None) -> Section:
    """Partial group axioms and cancellation, both from the carrier
    certificate, which proves them at every length."""
    section = Section("axioms")
    for name, loc in bundle.localities.items():
        rep = validate_locality(loc, max_word_len).pg_report
        detail = "" if rep.ok else rep.witness_lines()[0]
        section.add(f"{name}: product axioms on words up to length "
                    f"{max_word_len}", rep.ok, detail)
        section.add(f"{name}: left and right cancellation", rep.ok, detail)
    return section


def _obj(loc: Locality, P) -> str:
    return "{" + ", ".join(loc.pg.labels[x] for x in sorted(P)) + "}"


# ---------------------------------------------------------------------------
# locality laws


def locality_suite(bundle: FixtureBundle, *, max_word_len: int = 3,
                   enum_cap: int | None = None) -> Section:
    """Definition checks plus the standard conjugation laws."""
    section = Section("locality")
    for name, loc in bundle.localities.items():
        vep = validate_locality(loc, k=max_word_len)
        bad = vep.failing()
        section.add(f"{name}: satisfies the locality definition", vep.ok,
                    f"{bad[0].name}: {bad[0].detail}" if bad else "")
        if not vep.ok:
            continue
        full_conj = _whole_conjugation_table(loc)
        _normalizer_laws(section, name, loc, full_conj)
        _element_laws(section, name, loc, full_conj)
        _word_laws(section, name, vep, max_word_len)
        _normalizer_of_s_laws(section, name, loc)
    return section


def _whole_conjugation_table(loc: Locality) -> list[dict[int, int]]:
    """For each g the map x -> x^g on all of L where the triple is defined."""
    pg = loc.pg
    out: list[dict[int, int]] = []
    for g in range(loc.size):
        ginv = pg.inv[g]
        table = {}
        for x in range(loc.size):
            w = (ginv, x, g)
            if pg.word_in_domain(w):
                table[x] = pg.product(w)
        out.append(table)
    return out


def _normalizer_laws(section: Section, name: str, loc: Locality,
                     full_conj: list[dict[int, int]]) -> None:
    """Object normalizers are subgroups and conjugation moves them around."""
    pg = loc.pg
    ok_sub, sub_wit = True, ""
    ok_iso, iso_wit = True, ""
    for P in loc.objects:
        nf = loc.n_of(P)
        nset = set(nf)
        if pg.identity not in nset:
            ok_sub, sub_wit = False, f"normalizer of {_obj(loc, P)} misses the identity"
        for x in nf:
            if pg.inv[x] not in nset:
                ok_sub, sub_wit = False, (f"normalizer of {_obj(loc, P)} is not "
                                          f"inverse closed at {pg.labels[x]}")
                break
            row = pg.rows[x]
            for y in nf:
                prod = row[y]
                if prod is None or prod not in nset:
                    ok_sub = False
                    sub_wit = (f"normalizer of {_obj(loc, P)} is not closed: "
                               f"{pg.labels[x]} * {pg.labels[y]}")
                    break
            if not ok_sub:
                break
        if not ok_sub:
            break

        for g in range(loc.size):
            if not P <= pg.s_f(g):
                continue
            Q = loc.conj_subgroup(P, g)
            if Q not in loc.object_set:
                ok_iso, iso_wit = False, (f"{_obj(loc, P)} ^ {pg.labels[g]} "
                                          "is not an object")
                break
            conj = full_conj[g]
            if not nset <= conj.keys():
                x = min(x for x in nf if x not in conj)
                ok_iso, iso_wit = False, (
                    f"{pg.labels[x]} normalizes {_obj(loc, P)} but cannot be "
                    f"conjugated by {pg.labels[g]}")
                break
            images = {x: conj[x] for x in nf}
            nq = set(loc.n_of(Q))
            if set(images.values()) != nq or len(set(images.values())) != len(nf):
                ok_iso, iso_wit = False, (
                    f"conjugation by {pg.labels[g]} is not a bijection from the "
                    f"normalizer of {_obj(loc, P)} onto the normalizer of its image")
                break
            rows, image_list = pg.rows, [images[y] for y in nf]
            mult = True
            for x in nf:
                row, image_row = rows[x], rows[images[x]]
                if ([images[row[y]] for y in nf] !=
                        [image_row[v] for v in image_list]):
                    mult = False
                    break
            if not mult:
                ok_iso, iso_wit = False, (
                    f"conjugation by {pg.labels[g]} is not multiplicative on the "
                    f"normalizer of {_obj(loc, P)}")
                break
        if not ok_iso:
            break
    section.add(f"{name}: object normalizers are subgroups", ok_sub, sub_wit)
    section.add(f"{name}: conjugation between object normalizers is an "
                "isomorphism", ok_iso, iso_wit)


def _element_laws(section: Section, name: str, loc: Locality,
                  full_conj: list[dict[int, int]]) -> None:
    """Per-element laws: S_g facts and the two sided conjugation domain."""
    pg = loc.pg

    ok_sf, sf_wit = True, ""
    for g in range(loc.size):
        dom = pg.s_f(g)
        if dom not in loc.object_set:
            ok_sf, sf_wit = False, f"the S subgroup of {pg.labels[g]} is not an object"
            break
        if loc.conj_subgroup(dom, g) != pg.s_f(pg.inv[g]):
            ok_sf, sf_wit = False, (
                f"conjugating the S subgroup of {pg.labels[g]} by it does not "
                "give the S subgroup of its inverse")
            break
        conj = pg.conj_maps[g]
        if len(set(conj.values())) != len(conj):
            ok_sf, sf_wit = False, f"conjugation by {pg.labels[g]} is not injective"
            break
        hom = True
        for x in dom:
            row = pg.rows[x]
            for y in dom:
                prod = row[y]
                if prod is None or prod not in dom:
                    ok_sf, sf_wit = False, (
                        f"the S subgroup of {pg.labels[g]} is not closed at "
                        f"{pg.labels[x]} * {pg.labels[y]}")
                    hom = False
                    break
                if conj[prod] != pg.rows[conj[x]][conj[y]]:
                    hom = False
                    sf_wit = (f"conjugation by {pg.labels[g]} is not a "
                              "homomorphism on its S subgroup")
                    ok_sf = False
                    break
            if not hom:
                break
        if not ok_sf:
            break
    section.add(f"{name}: each element conjugates its S subgroup "
                "isomorphically onto that of its inverse", ok_sf, sf_wit)

    ok_two, two_wit = True, ""
    for g in range(loc.size):
        back = full_conj[pg.inv[g]]
        for x, y in full_conj[g].items():
            if y not in back:
                ok_two, two_wit = False, (
                    f"{pg.labels[x]} ^ {pg.labels[g]} = {pg.labels[y]} cannot "
                    "be conjugated back")
                break
            if back[y] != x:
                ok_two, two_wit = False, (
                    f"conjugating {pg.labels[x]} by {pg.labels[g]} and back "
                    "does not return it")
                break
        if ok_two and len(full_conj[g]) != len(back):
            ok_two, two_wit = False, (
                f"the conjugation domains of {pg.labels[g]} and its inverse "
                "have different sizes")
        if not ok_two:
            break
    section.add(f"{name}: conjugation by g and by its inverse are mutually "
                "inverse bijections between the two sided domains", ok_two, two_wit)


def _word_laws(section: Section, name: str, vep: LocalityReport,
               max_word_len: int) -> None:
    """Word laws: S_w decides membership, S_w lands in S_{product}, and
    conjugation along a word agrees with conjugation by its product.

    These hold at every length on a locality whose validation passed: its
    `chain_product_walk` gives the first law and its carrier certificate
    the other three.  The first line quotes the length bound, which
    changes only the wording."""
    laws = (f"words up to length {max_word_len} are in the domain exactly "
            "when S_w is an object",
            "S_w embeds in S of the product",
            "conjugation along a word equals conjugation by its product on S_w",
            "composite normalizer conjugation equals conjugation by the product")
    for law in laws:
        section.add(f"{name}: {law}", vep.ok)


def _normalizer_of_s_laws(section: Section, name: str, loc: Locality) -> None:
    """Products with elements normalizing S: always defined, predictable S."""
    pg = loc.pg
    rset = loc.n_of(loc.s)
    ok, wit = True, ""
    for r in rset:
        rinv = pg.inv[r]
        for f in range(loc.size):
            sf = pg.s_f(f)
            checks = (
                (pg.word_in_domain((f, r)), f"({pg.labels[f]}, {pg.labels[r]})"),
                (pg.word_in_domain((r, f)), f"({pg.labels[r]}, {pg.labels[f]})"),
                (pg.word_in_domain((rinv, f, r)),
                 f"({pg.labels[rinv]}, {pg.labels[f]}, {pg.labels[r]})"),
            )
            missing = [w for good, w in checks if not good]
            if missing:
                ok, wit = False, f"{missing[0]} is not in the domain"
                break
            fr = pg.product((f, r))
            rf = pg.product((r, f))
            fcon = pg.product((rinv, f, r))
            if not (pg.s_of_word((f, r)) == pg.s_f(fr) == sf):
                ok, wit = False, (f"S of {pg.labels[f]} * {pg.labels[r]} "
                                  "does not match S_f")
                break
            back = frozenset(pg.product((r, x, rinv)) for x in sf)
            if not (pg.s_of_word((r, f)) == pg.s_f(rf) == back):
                ok, wit = False, (f"S of {pg.labels[r]} * {pg.labels[f]} is not "
                                  "the backwards conjugate of S_f")
                break
            fwd = frozenset(pg.conj_maps[r][x] for x in sf)
            if pg.s_f(fcon) != fwd:
                ok, wit = False, (f"S of {pg.labels[f]} ^ {pg.labels[r]} is not "
                                  "the conjugate of S_f")
                break
        if not ok:
            break
    section.add(f"{name}: products with normalizer-of-S elements are defined "
                "and their S subgroups transform as expected", ok, wit)


# ---------------------------------------------------------------------------
# fusion


def fusion_suite(bundle: FixtureBundle, *, max_word_len: int = 3,
                 enum_cap: int | None = None) -> Section:
    section = Section("fusion")
    for name, loc in bundle.localities.items():
        fus = fusion_from_locality(loc)
        if loc.ambient is not None and loc.carrier is not None:
            ref = fusion_from_group(loc.ambient, loc.p)
            translated = {
                (tuple(loc.carrier[x] for x in P), tuple(loc.carrier[x] for x in Q)):
                frozenset(tuple(loc.carrier[x] for x in img) for img in embs)
                for (P, Q), embs in fus.hom_sets().items()
            }
            fam = {frozenset(loc.carrier[x] for x in P) for P in loc.objects}
            has_crit = all(frozenset(P) in fam
                           for P in ref.centric_radical_subgroups())
            if has_crit:
                section.add(f"{name}: fusion system equals the ambient "
                            "group fusion", translated == ref.hom_sets())
            else:
                contained = all(translated[key] <= ref.hom_sets()[key]
                                for key in translated)
                section.add(f"{name}: fusion system embeds in the ambient "
                            "group fusion", contained)
                section.note(f"{name}: the object family misses a centric "
                             "radical subgroup, so fusion may be a proper "
                             "subsystem; containment checked instead")
        section.add(f"{name}: fusion system is saturated", fus.is_saturated())
        classes = _conjugacy_classes(fus)
        stable = all(
            len({(fus.is_centric(P), fus.is_radical(P)) for P in cls}) == 1
            for cls in classes)
        section.add(f"{name}: centric and radical are constant on "
                    "conjugacy classes", stable)
        section.items.append({
            "locality": name,
            "subgroups": len(fus.subgroups),
            "classes": len(classes),
            "centric": len(fus.centric_subgroups()),
            "centric_radical": len(fus.centric_radical_subgroups()),
            "subcentric": len(fus.subcentric_subgroups()),
        })
    return section


def _conjugacy_classes(fus) -> list[tuple]:
    seen = set()
    out = []
    for P in fus.subgroups:
        key = frozenset(fus.conjugacy_class(P))
        if key not in seen:
            seen.add(key)
            out.append(tuple(sorted(key)))
    return out


# ---------------------------------------------------------------------------
# restriction of automorphisms


def aut_restriction_suite(bundle: FixtureBundle, *, max_word_len: int = 3,
                          enum_cap: int | None = None) -> Section:
    section = Section("theoremA1")
    if not bundle.pairs:
        section.note("no restriction pairs declared; nothing to check")
        return section
    for small, big in bundle.pairs:
        plus = bundle.localities[big]
        restr = bundle.localities[small]
        section.add(f"{small} <= {big}: object family of {small} is invariant "
                    "under fusion preserving automorphisms of S",
                    _family_invariant(restr))
        rep = aut_restriction_report(plus, restr)
        for flag in ("defined", "injective", "surjective", "multiplicative"):
            section.add(f"{small} <= {big}: restriction of automorphisms "
                        f"is {flag}", rep[flag])
        section.items.append({
            "pair": f"{small} <= {big}",
            "aut_plus": len(rep["aut_plus"]),
            "aut": len(rep["aut"]),
        })
    return section


def _family_invariant(loc: Locality) -> bool:
    """The object family is stable under every fusion preserving
    automorphism of S."""
    fam = set(loc.pg.object_set)
    return all({frozenset(alpha[x] for x in P) for P in fam} == fam
               for alpha in fusion_from_locality(loc).fusion_automorphisms())


# ---------------------------------------------------------------------------
# partial normal subgroup correspondence


def normal_suite(bundle: FixtureBundle, *, max_word_len: int = 3,
                 enum_cap: int | None = None) -> Section:
    section = Section("theoremC")
    if not bundle.pairs:
        section.note("no restriction pairs declared; nothing to check")
        return section
    for small, big in bundle.pairs:
        plus = bundle.localities[big]
        restr = bundle.localities[small]
        try:
            rep = verify_normal_correspondence(
                plus, restr, ENUM_CAP if enum_cap is None else enum_cap)
        except NormalError as exc:
            section.add(f"{small} <= {big}: correspondence applies", False, str(exc))
            continue
        section.add(f"{small} <= {big}: intersection is a bijection between "
                    "the partial normal subgroup families", rep["bijective"])
        section.add(f"{small} <= {big}: the bijection preserves inclusion "
                    "both ways",
                    rep["inclusion_preserving"] and rep["inverse_inclusion_preserving"])
        section.add(f"{small} <= {big}: invariant subgroup fusion systems "
                    "agree across the bijection", rep["fusion_ok"])
        section.add(f"{small} <= {big}: multiplying by the S core commutes "
                    "with the bijection", rep["product_equivalence"])
        section.items.append({
            "pair": f"{small} <= {big}",
            "partial_normal": rep["count"],
        })
    return section


# ---------------------------------------------------------------------------
# transporter systems


def transporter_suite(bundle: FixtureBundle, *, max_word_len: int = 3,
                      enum_cap: int | None = None) -> Section:
    section = Section("transporter")
    systems: dict[str, object] = {}
    for name, loc in bundle.localities.items():
        try:
            T = transporter_of_locality(loc)
        except Exception as exc:
            section.add(f"{name}: transporter system builds", False, str(exc))
            continue
        systems[name] = T
        section.add(f"{name}: transporter system satisfies the axioms", True)

        loc2 = locality_of_transporter(T)
        ok_rt, wit = _label_iso(loc, loc2)
        section.add(f"{name}: locality rebuilt from the transporter system "
                    "is the original", ok_rt, wit)

        auts = aut_transporter(T)
        images = set()
        ok_lambda = True
        for phi in auts:
            try:
                images.add(lambda_map(phi))
            except Exception as exc:
                section.add(f"{name}: descent of a category automorphism "
                            "to the locality", False, str(exc))
                ok_lambda = False
                break
        if ok_lambda:
            expected = set(locality_automorphisms(loc2))
            section.add(f"{name}: category automorphisms descend bijectively "
                        "to locality automorphisms",
                        len(images) == len(auts) and images == expected,
                        f"{len(auts)} automorphisms")
        section.items.append({
            "locality": name,
            "objects": len(T.objects),
            "morphisms": T.mor_count,
            "linking": is_linking_system(T),
        })

    for small, big in bundle.pairs:
        if small not in systems or big not in systems:
            continue
        T_small, T_big = systems[small], systems[big]
        restr = bundle.localities[small]
        want = {frozenset(restr.pg.labels[x] for x in P) for P in restr.objects}
        small_objs = [O for O in T_big.objects
                      if frozenset(T_big.s_labels[t] for t in O) in want]
        try:
            sub = full_subcategory(T_big, small_objs)
        except Exception as exc:
            section.add(f"{small} <= {big}: full subcategory exists", False, str(exc))
            continue
        section.add(f"{small} <= {big}: full subcategory matches the small "
                    "system", same_category(T_small, sub))
        try:
            target, emb = iota_map(sub)
        except Exception as exc:
            section.add(f"{small} <= {big}: subcategory locality embeds",
                        False, str(exc))
            continue
        section.add(f"{small} <= {big}: subcategory locality embeds "
                    "isomorphically", len(emb) == target.size)
    return section


def _label_iso(a: Locality, b: Locality) -> tuple[bool, str]:
    if a.size != b.size:
        return False, f"sizes differ: {a.size} vs {b.size}"
    try:
        alpha = tuple(b.element(a.label(f)) for f in range(a.size))
    except KeyError as exc:
        return False, f"label {exc} is missing"
    defect = iso_defect(a, b, alpha)
    if defect is not None:
        return False, defect
    return True, ""


# ---------------------------------------------------------------------------
# the exact sequence and linking structure


def exactseq_suite(bundle: FixtureBundle, *, max_word_len: int = 3,
                   enum_cap: int | None = None) -> Section:
    section = Section("exactseq")
    outs: dict[str, int] = {}
    for name, loc in bundle.localities.items():
        T = transporter_of_locality(loc)
        defect = linking_system_defect(T)
        section.add(f"{name}: the transporter system is a linking system",
                    defect is None, defect or "")
        if defect is not None:
            continue
        rep = linking_system_report(T)
        section.add(f"{name}: the projection kernel at S is the centre "
                    "of the fusion system", rep["kernel_is_center"])
        section.add(f"{name}: objects with inner p core are exactly the "
                    "centric radical subgroups", rep["radical_objects_match"])
        section.add(f"{name}: every morphism factors through at most "
                    f"{rep['alperin_depth']} object automorphisms",
                    rep["alperin_depth"] <= 4,
                    f"depth {rep['alperin_depth']}")
        data = out_typ(T)
        outs[name] = data["out_order"]
        section.add(f"{name}: inner automorphisms sit inside the full "
                    "automorphism group",
                    data["inner_order"] <= data["aut_order"]
                    and data["aut_order"] % data["inner_order"] == 0)
        section.items.append({
            "locality": name,
            "aut": data["aut_order"],
            "inner": data["inner_order"],
            "out": data["out_order"],
        })
    for small, big in bundle.pairs:
        if small in outs and big in outs:
            section.add(f"{small} <= {big}: outer automorphism counts agree",
                        outs[small] == outs[big],
                        f"{outs[small]} vs {outs[big]}")
    return section


# ---------------------------------------------------------------------------
# registry


SUITES: dict[str, Callable[..., Section]] = {
    "axioms": axioms_suite,
    "locality": locality_suite,
    "fusion": fusion_suite,
    "theoremA1": aut_restriction_suite,
    "theoremC": normal_suite,
    "transporter": transporter_suite,
    "exactseq": exactseq_suite,
}

SUITE_ORDER = tuple(SUITES)


def run_suites(bundle: FixtureBundle, names, *, max_word_len: int = 3,
               enum_cap: int | None = None) -> Report:
    report = Report(f"verify {bundle.name}")
    for n in names:
        section = SUITES[n](bundle, max_word_len=max_word_len, enum_cap=enum_cap)
        report.sections.append(section)
    return report
