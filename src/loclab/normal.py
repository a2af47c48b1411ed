"""Partial normal subgroups: enumeration, quotients, products with S and
the correspondence between the families on a locality and its restriction.

A partial normal subgroup N of a locality L is a subset containing the
identity, closed under inversion and under every defined product and
conjugation.  Closure under defined pair products already gives closure
under longer defined words: a word in D threads through the objects, so
its left folds stay defined and stay inside the set.

Quotients L/N are built from the equivalence closure of f ~ Pi(n, f).
That the product descends to classes is a theorem about localities, not
something this module re-proves; the construction asserts it and aborts
with a witness if the input violates it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

from .extension import projection_defect
from .fusion import FusionSystem, fusion_from_locality, generated_fusion
from .groups import _kept, _p_part, is_characteristic_p, p_core, p_residual
from .locality import (ChainPartialGroup, Locality, _UnionFind,
                       locality_structure_checks, sub_locality)
from .partial import generated_partial_subgroup, subgroup_table_group


ENUM_CAP = 512  # largest carrier whose partial normal family is enumerated


class NormalError(ValueError):
    pass


class DecompositionNotFound(NormalError):
    """Raised when no factorization exists within the word-length bound.

    Existence is guaranteed for some length, so hitting this means the
    bound was too small, not that the element has no decomposition.
    """


@dataclass(frozen=True)
class PartialNormalSet:
    """A partial normal subgroup of a fixed parent locality."""

    parent: Locality
    members: frozenset[int]

    @property
    def t(self) -> frozenset[int]:
        """The p-part T = S intersect N."""
        return self.members & self.parent.pg.s_members

    def labels(self) -> list[str]:
        return [self.parent.pg.labels[x] for x in sorted(self.members)]

    def __len__(self) -> int:
        return len(self.members)

    def __le__(self, other: "PartialNormalSet") -> bool:
        return self.members <= other.members

    def __repr__(self) -> str:
        return f"PartialNormalSet(order={len(self.members)})"


def partial_normal_defect(loc: Locality, members: Iterable[int]) -> str | None:
    """Why the subset fails to be partial normal, or None if it is one."""
    pg = loc.pg
    mset = frozenset(members)
    if pg.identity not in mset:
        return "identity missing"
    for x in sorted(mset):
        if pg.inv[x] not in mset:
            return f"inverse of {pg.labels[x]} missing"
    ordered = sorted(mset)
    for a in ordered:
        row = pg.rows[a]
        for b in ordered:
            c = row[b]
            if c is not None and c not in mset:
                return f"product {pg.label_word((a, b))} leaves the set"
    for g in range(pg.size):
        for x in sorted(mset):
            y = pg.conj(x, g)
            if y is not None and y not in mset:
                return (f"conjugate {pg.labels[x]} ^ {pg.labels[g]} "
                        f"= {pg.labels[y]} leaves the set")
    return None


def _as_partial_normal(loc: Locality, members: frozenset[int]) -> PartialNormalSet:
    defect = partial_normal_defect(loc, members)
    if defect is not None:
        raise NormalError(f"not partial normal: {defect}")
    n = PartialNormalSet(loc, members)
    if not fusion_from_locality(loc).is_strongly_closed(tuple(sorted(n.t))):
        raise NormalError("internal: S meet N is not strongly closed")
    return n


def normal_closure(loc: Locality, seed: Iterable[int]) -> PartialNormalSet:
    """Smallest partial normal subgroup of the locality containing seed.

    One pass of `generated_partial_subgroup`, with the defined conjugates
    x^g of each new member x as its extra images.
    """
    members = generated_partial_subgroup(loc.pg, seed, _conjugates(loc.pg))
    return _as_partial_normal(loc, members)


def _conjugates(pg: ChainPartialGroup):
    """x -> the defined conjugates x^g (g in L), each x computed once."""
    memo: dict[int, set[int]] = {}

    def images(x: int) -> set[int]:
        if x not in memo:
            memo[x] = {pg.conj(x, g) for g in range(pg.size)} - {None}
        return memo[x]
    return images


def enumerate_partial_normal(loc: Locality, cap: int = ENUM_CAP) -> list[PartialNormalSet]:
    """All partial normal subgroups of the locality, by order and members.

    Every partial normal subgroup is the join of the closures of the
    single elements it contains, so joining element closures until the
    family is stable finds the complete lattice.  The family is kept on
    the Locality; the cap is checked on every call.
    """
    if loc.size > cap:
        raise NormalError(f"carrier size {loc.size} exceeds cap {cap}")
    return list(_kept(loc, _partial_normal_family))


def _partial_normal_family(loc: Locality) -> tuple[PartialNormalSet, ...]:
    """Joins of the element closures (atoms), grown from the trivial
    subgroup.  A join extends the closed `base` by one atom, so only the
    pairs with a new member are formed."""
    pg = loc.pg
    conj = _conjugates(pg)
    atoms = sorted({generated_partial_subgroup(pg, (x,), conj)
                    for x in range(loc.size)},
                   key=lambda m: (len(m), sorted(m)))
    trivial = frozenset({pg.identity})
    found = {trivial}
    frontier = [trivial]
    while frontier:
        fresh = []
        for base in frontier:
            for atom in atoms:
                if atom <= base:
                    continue
                joined = generated_partial_subgroup(pg, atom, conj, closed=base)
                if joined not in found:
                    found.add(joined)
                    fresh.append(joined)
        frontier = fresh
    return tuple(_as_partial_normal(loc, m)
                 for m in sorted(found, key=lambda m: (len(m), sorted(m))))


# ---------------------------------------------------------------------------
# quotients


@dataclass(frozen=True)
class QuotientLocality:
    """A quotient locality together with the projection onto it.

    projection[f] is the class index of f; classes[i] lists the fibers.
    """

    locality: Locality
    projection: tuple[int, ...]
    classes: tuple[frozenset[int], ...]
    parent: Locality
    normal: PartialNormalSet


def quotient(loc: Locality, normal: PartialNormalSet) -> QuotientLocality:
    """The quotient of a locality by a partial normal subgroup.

    Classes are the equivalence closure of f ~ Pi(n, f) over n in the
    subgroup.  The product, inversion and conjugation data must descend
    to classes; a violation raises with a witness since it would mean
    the input was not a partial normal subgroup of a locality.

    No word is scanned: `locality_structure_checks` and the exact projection
    certificate carry PG1-PG4 from L to L' at every length (Chermak, Acta
    Math. 211 (2013)).  Lift each w' in D' to some w in D, apply PG1-PG4 in
    L, then push down with the homomorphism identity Pi'(w') = Pi(w) alpha.
    """
    if normal.parent is not loc:
        raise NormalError("the subgroup belongs to a different locality")
    defect = partial_normal_defect(loc, normal.members)
    if defect is not None:
        raise NormalError(f"not partial normal: {defect}")
    pg = loc.pg

    uf = _UnionFind(pg.size)
    for n in sorted(normal.members):
        for f, prod in enumerate(pg.rows[n]):
            if prod is not None:
                uf.union(f, prod)

    fibers: dict[int, set[int]] = {}
    for f in range(pg.size):
        fibers.setdefault(uf.find(f), set()).add(f)
    classes = tuple(frozenset(c) for c in
                    sorted(fibers.values(), key=min))
    cls_of = {}
    for i, c in enumerate(classes):
        for f in c:
            cls_of[f] = i
    proj = tuple(cls_of[f] for f in range(pg.size))

    if classes[proj[pg.identity]] != normal.members:
        raise NormalError(
            "internal: the class of the identity is not the subgroup itself")

    # collapse the element data, insisting it is constant on classes
    qn = len(classes)
    qlabels = ["[" + pg.labels[min(c)] + "]" for c in classes]
    qinv = []
    for c in classes:
        images = {proj[pg.inv[f]] for f in c}
        if len(images) != 1:
            raise NormalError(f"inversion is not constant on the class of "
                              f"{pg.labels[min(c)]}")
        qinv.append(images.pop())
    qident = proj[pg.identity]

    qrows: list[list[int | None]] = [[None] * qn for _ in range(qn)]
    for a, row in enumerate(pg.rows):
        qrow = qrows[proj[a]]
        for b, c in enumerate(row):
            if c is None:
                continue
            have, val = qrow[proj[b]], proj[c]
            if have is None:
                qrow[proj[b]] = val
            elif have != val:
                raise NormalError(
                    f"product is not constant on cosets: witness pair "
                    f"{pg.label_word((a, b))}")

    qconj: list[dict[int, int]] = [{} for _ in range(qn)]
    for f in range(pg.size):
        cf = proj[f]
        for x, y in pg.conj_maps[f].items():
            got = qconj[cf].setdefault(proj[x], proj[y])
            if got != proj[y]:
                raise NormalError(
                    f"conjugation is not constant on cosets: witness "
                    f"{pg.labels[x]} ^ {pg.labels[f]}")

    qs = frozenset(proj[x] for x in pg.s_members)
    qobjects = {frozenset(proj[x] for x in P) for P in pg.objects}
    qpg = ChainPartialGroup(qlabels, qinv, qident, qrows, qconj, qs,
                            sorted(qobjects, key=lambda P: (len(P), sorted(P))))
    qloc = Locality(qpg, loc.p)

    failing = [c for c in locality_structure_checks(qloc) if not c.ok]
    if failing:
        raise NormalError("quotient failed validation: " + "; ".join(
            f"{c.name}: {c.detail}" for c in failing))
    defect = projection_defect(loc, qloc, proj)
    if defect is not None:
        raise NormalError("internal: the projection certificate failed: " + defect)

    # normalizers of objects above T map onto normalizers in the quotient
    t = normal.t
    for P in loc.objects:
        if not t <= P:
            continue
        image = {proj[f] for f in loc.n_of(P)}
        target = set(qloc.n_of(frozenset(proj[x] for x in P)))
        if image != target:
            raise NormalError(
                f"normalizer of {sorted(P)} does not map onto the "
                "quotient normalizer")

    return QuotientLocality(qloc, proj, classes, loc, normal)


# ---------------------------------------------------------------------------
# the product NS


def _products_with(loc: Locality, members: Iterable[int],
                   t: Iterable[int]) -> frozenset[int]:
    """The set of products k s (k in members, s in t); for t inside S every
    such product is defined, which is asserted."""
    pg = loc.pg
    out = set()
    for k in sorted(members):
        row = pg.rows[k]
        for s in sorted(t):
            prod = row[s]
            if prod is None:
                raise NormalError(
                    f"internal: product {pg.label_word((k, s))} undefined")
            out.add(prod)
    return frozenset(out)


def ns_locality(loc: Locality, normal: PartialNormalSet) -> Locality:
    """The sub-locality on the product set NS with the same objects.

    The carrier is every defined product of a subgroup element with an
    element of S.  The triple (NS, Delta, S) is again a locality; for
    every object P the p-residual of its normalizer taken in NS equals
    the one taken in N, which is asserted.
    """
    if normal.parent is not loc:
        raise NormalError("the subgroup belongs to a different locality")
    pg = loc.pg
    members = _products_with(loc, normal.members, pg.s_members)
    sub = sub_locality(loc, sorted(members), loc.objects)

    for P in loc.objects:
        in_ns = [f for f in loc.n_of(P) if f in members]
        in_n = [f for f in loc.n_of(P) if f in normal.members]
        big = subgroup_table_group(pg, in_ns)
        small = subgroup_table_group(pg, in_n)
        o_big = {big.tokens[i] for i in p_residual(big, loc.p).members}
        o_small = {small.tokens[i] for i in p_residual(small, loc.p).members}
        if o_big != o_small:
            raise NormalError(
                f"p-residual of the normalizer of {sorted(P)} differs "
                "between NS and N")

    return sub


# ---------------------------------------------------------------------------
# linking localities and the restriction correspondence


def linking_defect(loc: Locality) -> str | None:
    """Why the locality is not a linking locality, or None.

    Checks: the fusion system is saturated, every object normalizer is a
    group of characteristic p, and the centric radical subgroups are all
    objects.
    """
    fus = fusion_from_locality(loc)
    if not fus.is_saturated():
        return "fusion system is not saturated"
    for P in loc.objects:
        if not is_characteristic_p(loc.n_group(P), loc.p):
            return (f"normalizer of {sorted(P)} is not of "
                    f"characteristic {loc.p}")
    for P in fus.centric_radical_subgroups():
        if frozenset(P) not in loc.object_set:
            return f"centric radical subgroup {P} is not an object"
    return None


def is_linking_locality(loc: Locality) -> bool:
    return linking_defect(loc) is None


def partial_normal_fusion(loc: Locality, normal: PartialNormalSet) -> FusionSystem:
    """The fusion system of the subgroup on T = S meet N, generated by the
    conjugation maps of the subgroup elements."""
    pg = loc.pg
    tset = normal.t
    rows = pg.rows

    def mul(a: int, b: int) -> int:
        c = rows[a][b]
        if c is None:
            raise NormalError("internal: T is not a subgroup")
        return c

    generators = []
    for n in sorted(normal.members):
        cmap = {x: y for x, y in pg.conj_maps[n].items()
                if x in tset and y in tset}
        generators.append((frozenset(cmap), cmap))
    return generated_fusion(loc.p, tset, mul, lambda a: pg.inv[a], generators,
                            label_fn=lambda x: pg.labels[x])


def is_invariant_subsystem(fus: FusionSystem, sub: FusionSystem) -> bool:
    """Whether the subsystem on T is stable under the larger system.

    T must be strongly closed, and conjugating any subsystem morphism by
    a morphism of the larger system defined on its support must land in
    the subsystem again.
    """
    t = sub.s
    if not fus.is_strongly_closed(t):
        return False
    for Q in sub.subgroups:
        for phi in fus.hom_set(Q, t):
            mphi = dict(zip(Q, phi))
            for P in sub.subgroups:
                if not set(P) <= set(Q):
                    continue
                for psi in sub.hom_set(P, Q):
                    mpsi = dict(zip(P, psi))
                    dom = tuple(sorted(mphi[x] for x in P))
                    back = {mphi[x]: x for x in P}
                    img = tuple(mphi[mpsi[back[y]]] for y in dom)
                    if img not in sub.embeddings_of(dom):
                        return False
    return True


def phi_map(plus: Locality, restr: Locality,
            cap: int = ENUM_CAP) -> list[tuple[PartialNormalSet, PartialNormalSet]]:
    """Pair every partial normal subgroup of the larger locality with its
    intersection with the restriction, translated into restriction indices.
    `cap` bounds the enumeration as in `enumerate_partial_normal`."""
    if restr.parent is not plus:
        raise NormalError("second locality is not a restriction of the first")
    pi = restr.parent_index
    back = {p: i for i, p in enumerate(pi)}
    out = []
    for n_plus in enumerate_partial_normal(plus, cap):
        inter = frozenset(back[f] for f in n_plus.members if f in back)
        defect = partial_normal_defect(restr, inter)
        if defect is not None:
            raise NormalError(
                f"intersection of a partial normal subgroup with the "
                f"restriction is not partial normal: {defect}")
        out.append((n_plus, _as_partial_normal(restr, inter)))
    return out


def _product_with_t(loc: Locality, k_members: frozenset[int],
                    t: frozenset[int]) -> frozenset[int]:
    """`_products_with`, asserted equal to the closure of T over the
    partial normal subgroup K."""
    out = _products_with(loc, k_members, t)
    if out != generated_partial_subgroup(loc.pg, t, closed=k_members):
        raise NormalError("internal: the product set is not already closed")
    return out


def verify_normal_correspondence(plus: Locality, restr: Locality,
                                 cap: int = ENUM_CAP) -> dict:
    """Check the restriction correspondence between partial normal
    subgroup families.

    Requires both localities to be linking localities with the same
    fusion system, the second being a restriction of the first.  Returns
    a report with the enumeration sizes and one flag per verified claim:
    intersection is a bijection onto the restriction's family, it and
    its inverse preserve inclusion, the subgroup fusion systems agree
    whenever the small one is stable under the ambient system, and
    multiplying by T commutes with the correspondence.  `cap` bounds both
    enumerations as in `enumerate_partial_normal`.
    """
    if restr.parent is not plus:
        raise NormalError("second locality is not a restriction of the first")
    for loc, name in ((plus, "larger"), (restr, "restriction")):
        defect = linking_defect(loc)
        if defect is not None:
            raise NormalError(f"{name} locality is not linking: {defect}")
    pi = restr.parent_index
    fus_plus = fusion_from_locality(plus)
    fus_small = fusion_from_locality(restr)
    translated = {
        (tuple(pi[x] for x in P), tuple(pi[x] for x in Q)):
        frozenset(tuple(pi[x] for x in img) for img in embs)
        for (P, Q), embs in fus_small.hom_sets().items()
    }
    if translated != fus_plus.hom_sets():
        raise NormalError("the two localities have different fusion systems")

    pairs = phi_map(plus, restr, cap)
    independent = enumerate_partial_normal(restr, cap)
    images = [n for _, n in pairs]
    report: dict = {
        "count_plus": len(pairs),
        "count": len(independent),
        "bijective": (len({n.members for n in images}) == len(pairs)
                      and {n.members for n in images}
                      == {n.members for n in independent}),
    }

    incl_fwd = all((a.members <= b.members) <= (na.members <= nb.members)
                   for a, na in pairs for b, nb in pairs)
    incl_back = all((na.members <= nb.members) <= (a.members <= b.members)
                    for a, na in pairs for b, nb in pairs)
    report["inclusion_preserving"] = incl_fwd
    report["inverse_inclusion_preserving"] = incl_back

    back = {p: i for i, p in enumerate(pi)}
    fusion_rows = []
    for n_plus, n_small in pairs:
        sub_small = partial_normal_fusion(restr, n_small)
        invariant = is_invariant_subsystem(fus_small, sub_small)
        sub_plus = partial_normal_fusion(plus, n_plus)
        lifted = {
            (tuple(pi[x] for x in P), tuple(pi[x] for x in Q)):
            frozenset(tuple(pi[x] for x in img) for img in embs)
            for (P, Q), embs in sub_small.hom_sets().items()
        }
        equal = lifted == sub_plus.hom_sets()
        fusion_rows.append({
            "order": len(n_plus.members),
            "invariant": invariant,
            "fusion_equal": equal,
        })
    report["fusion_rows"] = fusion_rows
    report["fusion_ok"] = all(row["fusion_equal"] for row in fusion_rows
                              if row["invariant"])

    product_ok = True
    for n_plus, n_small in pairs:
        t_plus = n_plus.t
        t_small = frozenset(back[x] for x in t_plus)
        for k_plus, k_small in pairs:
            big = _product_with_t(plus, k_plus.members, t_plus)
            small = _product_with_t(restr, k_small.members, t_small)
            if (big == n_plus.members) != (small == n_small.members):
                product_ok = False
    report["product_equivalence"] = product_ok

    report["ok"] = (report["bijective"] and incl_fwd and incl_back
                    and report["fusion_ok"] and product_ok)
    return report


# ---------------------------------------------------------------------------
# decomposing subgroup elements over the objects


def alperin_decompose(loc: Locality, normal: PartialNormalSet, n: int,
                      k_max: int = 6) -> tuple[int, list[tuple[int, frozenset[int]]]]:
    """Factor a subgroup element as t n_1 ... n_k through object normalizers.

    t lies in T = S meet N and each n_i lies in the p-residual of the
    subgroup normalizer of an object R_i with S_{n_i} = R_i, where R_i
    is an object whose NS-normalizer has R_i as its p-core and meets S
    in one of its Sylow p-subgroups.  The word (t, n_1, ..., n_k) is in
    the domain with the same S-set as n and multiplies to n.  Returns
    (t, [(n_i, R_i)]); raises DecompositionNotFound when no word of
    length k_max + 1 works.
    """
    if n not in normal.members:
        raise NormalError("element is not in the subgroup")
    pg = loc.pg
    t_set = normal.t
    if n in t_set:
        return n, []

    ns_set = _products_with(loc, normal.members, pg.s_members)
    pools: dict[frozenset[int], list[int]] = {}
    for R in loc.objects:
        in_ns = [f for f in loc.n_of(R) if f in ns_set]
        big = subgroup_table_group(pg, in_ns)
        core = {big.tokens[i] for i in p_core(big, loc.p).members}
        if core != set(R):
            continue
        n_s = [f for f in loc.n_of(R) if f in pg.s_members]
        if len(n_s) != _p_part(len(in_ns), loc.p):
            continue
        in_n = [f for f in loc.n_of(R) if f in normal.members]
        small = subgroup_table_group(pg, in_n)
        residual = {small.tokens[i] for i in p_residual(small, loc.p).members}
        pool = sorted(m for m in residual if pg.s_f(m) == R)
        if pool:
            pools[R] = pool

    order = sorted(pools, key=lambda R: (len(R), sorted(R)))
    flat = [(m, R) for R in order for m in pools[R]]

    def verify(t: int, factors: list[tuple[int, frozenset[int]]]) -> bool:
        word = (t,) + tuple(m for m, _ in factors)
        if not pg.word_in_domain(word):
            return False
        if pg.s_of_word(word) != pg.s_f(n) or pg.product(word) != n:
            return False
        if t not in t_set:
            return False
        for m, R in factors:
            if pg.s_f(m) != R or m not in pools.get(R, ()):
                return False
        return True

    for k in range(1, k_max + 1):
        stack: list[list[tuple[int, frozenset[int]]]] = [[]]
        while stack:
            chosen = stack.pop()
            if len(chosen) == k:
                tail = tuple(pg.inv[m] for m, _ in reversed(chosen))
                if not pg.word_in_domain((n,) + tail):
                    continue
                t = pg.product((n,) + tail)
                if t in t_set and verify(t, chosen):
                    return t, list(chosen)
                continue
            for m, R in reversed(flat):
                stack.append(chosen + [(m, R)])

    raise DecompositionNotFound(
        f"no factorization with at most {k_max} factors; "
        "a longer word may still exist")
