"""Maps between localities: homomorphisms, isomorphisms, automorphisms,
and extending a homomorphism from a restriction to the whole locality.

A map alpha between partial groups is a homomorphism if it sends domain
words to domain words and commutes with the products.  For localities,
whose domains are cut out by chains of objects, the full quantifier over
words of every length reduces to a finite certificate:

  (1) every object maps into an object of the target,
  (2) conjugation is compatible on each S_f, and
  (3) length-two products are preserved.

Given (1) and (2), any domain word w with chain P_0, ..., P_n maps to a
word with chain P_0 alpha, ..., P_n alpha, so w alpha* lies in the target
domain; the product identity then follows by induction on the length of
the left fold, using (3) and the fact that S_w is contained in S of the
folded product.  Everything below leans on that reduction.

Maps are found by their images of generators with the search that
`groups.group_isomorphisms` runs too, `groups.generator_image_search`,
as the extension lemma of the paper determines a map from its
restriction.  Each map found is kept only when the certificate passes.

Automorphisms are found as cosets.  Restriction to S is a homomorphism
Aut(L) -> Aut(S); its kernel R is the group of rigid automorphisms, those
that are the identity on S, and R is normal as a kernel.  If beta and
beta' both restrict to alpha_S, then beta^-1 beta' is the identity on S,
so the automorphisms over alpha_S are either none or the coset beta R.
`search_automorphisms` therefore enumerates R once, and for every
object-preserving alpha_S stops at the first completion that is an
isomorphism; the products beta rho (rho in R) are automorphisms without a
new certificate.

The two sorted tuples of that search are kept on the Locality by
`groups._kept`, so each locality is searched at most once;
`locality_automorphisms` and `rigid_automorphisms` hand out a fresh list
per call.  The automorphisms are also kept as a frozenset, so that
deciding whether a map is a certified automorphism
(`is_locality_automorphism`) is one lookup.

Group-level checks work on generators.  `automorphism_group` is Aut(L)
as a generated group: the sorted tuple with a composition that looks
each product up, and a generating sequence found by the coset walk of
`groups.generating_sequence`.  No |Aut|² table is built.  An identity
φ(a∘b) = φ(a)∘φ(b), such as the multiplicativity that
`aut_restriction_report` checks, then holds for every a once it holds
for each generator a and every b.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from .fusion import fusion_from_locality
from .groups import (FiniteGroup, _kept, automorphisms, generating_sequence,
                     generator_image_search)
from .locality import ChainPartialGroup, Locality
from .partial import generated_partial_subgroup


class ExtensionError(ValueError):
    pass


# ---------------------------------------------------------------------------
# homomorphism and isomorphism certificates


def hom_defect(src: Locality, dst: Locality, alpha: Sequence[int]) -> str | None:
    """Why alpha fails to be a homomorphism of partial groups; None if it is.

    Checks the finite certificate described in the module docstring.
    """
    spg, dpg = src.pg, dst.pg
    if len(alpha) != spg.size:
        return "map is not defined on every element"
    if any(not 0 <= g < dpg.size for g in alpha):
        return "map leaves the target"
    for P in spg.objects:
        img = frozenset(alpha[x] for x in P)
        if img not in dpg.object_set:
            return f"object {sorted(P)} does not map onto an object"
    for f in range(spg.size):
        cf = spg.conj_maps[f]
        cg = dpg.conj_maps[alpha[f]]
        if [cg.get(alpha[x]) for x in cf] == [alpha[y] for y in cf.values()]:
            continue
        for x, y in cf.items():
            if alpha[x] not in cg:
                return (f"image of {spg.labels[x]} escapes the conjugation "
                        f"domain of the image of {spg.labels[f]}")
            if cg[alpha[x]] != alpha[y]:
                return (f"conjugation of {spg.labels[x]} by {spg.labels[f]} "
                        "is not preserved")
    # each row is compared whole first; a row that differs is walked for
    # its first witness
    drows, alpha_at = dpg.rows, alpha.__getitem__
    for a, row in enumerate(spg.rows):
        image_row = drows[alpha[a]]
        if None in row:
            defined = [b for b, c in enumerate(row) if c is not None]
            if ([alpha[row[b]] for b in defined] ==
                    [image_row[alpha[b]] for b in defined]):
                continue
        elif list(map(alpha_at, row)) == list(map(image_row.__getitem__, alpha)):
            continue
        for b, c in enumerate(row):
            if c is not None and image_row[alpha[b]] != alpha[c]:
                if image_row[alpha[b]] is None:
                    return (f"product ({spg.labels[a]}, {spg.labels[b]}) maps "
                            "outside the target domain")
                return (f"product ({spg.labels[a]}, {spg.labels[b]}) is not "
                        "preserved")
    return None


def _objects_image(src: Locality, alpha: Sequence[int]) -> set[frozenset[int]]:
    return {frozenset(alpha[x] for x in P) for P in src.objects}


def iso_defect(src: Locality, dst: Locality, alpha: Sequence[int]) -> str | None:
    """Why alpha fails to be an isomorphism of localities; None if it is one.

    An isomorphism is a bijective map that is a homomorphism in both
    directions and matches the object families.
    """
    if not len(set(alpha)) == len(alpha) == dst.size:
        return "map is not a bijection"
    return hom_defect(src, dst, alpha) or _converse_defect(src, dst, alpha)


def _inverse_map(alpha: Sequence[int]) -> tuple[int, ...]:
    inverse = [0] * len(alpha)
    for f, g in enumerate(alpha):
        inverse[g] = f
    return tuple(inverse)


def _converse_defect(src: Locality, dst: Locality,
                     alpha: Sequence[int]) -> str | None:
    """The part of `iso_defect` after the forward homomorphism check:
    the inverse map is a homomorphism and the object families match.
    alpha must be a bijection."""
    defect = hom_defect(dst, src, _inverse_map(alpha))
    if defect is not None:
        return "inverse map: " + defect
    if _objects_image(src, alpha) != set(dst.object_set):
        return "object family is not mapped onto the target object family"
    return None


def projection_defect(src: Locality, dst: Locality,
                      alpha: Sequence[int]) -> str | None:
    """Why alpha fails to be a projection of localities; None if it is one.

    A projection is a surjective homomorphism whose induced word map is
    onto the target domain and which maps the object family onto the
    target object family.  Ontoness of the word map is certified by
    pointed lifting: for every target element g and every source object
    P whose image lies in the conjugation domain of g, some preimage of
    g must carry P.  A target domain word then lifts chainwise: starting
    from a source object over the head of its chain, each step lifts
    through the object reached so far, the source chain threads through
    objects, and the tracked S-set of the lifted word contains an object
    and so is an object itself.
    """
    defect = hom_defect(src, dst, alpha)
    if defect is not None:
        return defect
    if set(alpha) != set(range(dst.size)):
        return "map is not surjective"
    if _objects_image(src, alpha) != set(dst.object_set):
        return "object family is not mapped onto the target object family"
    fibers: dict[int, list[int]] = {}
    for f, g in enumerate(alpha):
        fibers.setdefault(g, []).append(f)
    objs = sorted(src.objects, key=lambda P: (len(P), sorted(P)))
    img_of = {P: frozenset(alpha[x] for x in P) for P in objs}
    for g in range(dst.size):
        dom = dst.pg.s_f(g)
        for P in objs:
            if img_of[P] <= dom:
                if not any(P <= src.pg.s_f(f) for f in fibers[g]):
                    return (f"no preimage of {dst.pg.labels[g]} carries the "
                            f"object {sorted(P)}")
    return None


def kernel_of(src: Locality, alpha: Sequence[int], dst: Locality) -> frozenset[int]:
    return frozenset(f for f in range(src.size) if alpha[f] == dst.pg.identity)


# ---------------------------------------------------------------------------
# homomorphisms and automorphisms by their images of generators

COMPLETION_CAP = 100000


def _conj_candidates(src: Locality, dst: Locality,
                     pinned: dict[int, int], f: int) -> list[int]:
    """Target elements compatible with f under conjugation on S_f.

    Assumes every member of S is already pinned.
    """
    cf = src.pg.conj_maps[f]
    pat = [(pinned[x], pinned[y]) for x, y in cf.items()]
    out = []
    for g in range(dst.size):
        cg = dst.pg.conj_maps[g]
        if all(x in cg and cg[x] == y for x, y in pat):
            out.append(g)
    return out


def _map_classes(pg: ChainPartialGroup) -> tuple[dict, list[int], list[list[int]]]:
    """The id of each conjugation map (as the frozenset of its pairs), the
    id of each element's map, and the elements of each id."""
    ids: dict[frozenset[tuple[int, int]], int] = {}
    cls = [ids.setdefault(frozenset(conj.items()), len(ids))
           for conj in pg.conj_maps]
    members: list[list[int]] = [[] for _ in ids]
    for g, c in enumerate(cls):
        members[c].append(g)
    return ids, cls, members


def _generators_over_s(pg: ChainPartialGroup, cls: Sequence[int],
                       members: Sequence[Sequence[int]]) -> list[int]:
    """Elements that generate L with S, chosen from the structure: each is
    the first outside the span so far, by how many elements share its
    conjugation map, then by index.  A fold of `generated_partial_subgroup`."""
    span = generated_partial_subgroup(pg, pg.s_members)
    gens = []
    for f in sorted(range(pg.size), key=lambda f: (len(members[cls[f]]), f)):
        if f not in span:
            span = generated_partial_subgroup(pg, (f,), closed=span)
            gens.append(f)
    return gens


def hom_completions(src: Locality, dst: Locality,
                    pinned: dict[int, int]) -> list[tuple[int, ...]]:
    """All homomorphisms of partial groups src -> dst extending `pinned`,
    which must cover S and map objects into objects; sorted, and at most
    COMPLETION_CAP.  Each generator of `_generators_over_s` tries the
    targets whose conjugation map agrees with its own through `pinned`,
    as condition (2) asks of every homomorphism, and `hom_defect`
    certifies each map kept."""
    spg, dpg = src.pg, dst.pg
    if not set(spg.s_members) <= set(pinned):
        raise ExtensionError("all of S must be pinned")
    for P in spg.objects:
        if frozenset(pinned[x] for x in P) not in dpg.object_set:
            raise ExtensionError("pinned part does not map objects to objects")

    gens = _generators_over_s(spg, *_map_classes(spg)[1:])
    results: list[tuple[int, ...]] = []
    for full in generator_image_search(
            spg.rows, dpg.rows, spg.inv, dpg.inv, pinned, gens,
            lambda g: _conj_candidates(src, dst, pinned, g)):
        if hom_defect(src, dst, full) is None:
            results.append(full)
            if len(results) >= COMPLETION_CAP:
                raise ExtensionError("completion search hit the cap")
    return sorted(results)


def search_automorphisms(loc: Locality) -> tuple[tuple[tuple[int, ...], ...],
                                                  tuple[tuple[int, ...], ...]]:
    """Aut(L) and its rigid part R, both sorted, by the coset search of the
    module docstring: R by a full search over the identity on S, then, for
    every automorphism alpha_S of S that preserves the object family, the
    first isomorphism beta over alpha_S, multiplied by R.

    An automorphism's inverse is a homomorphism too, so by condition (2)
    the image of f has the map of f transported along alpha_S.  That gives
    the candidates of each generator and the `allowed` test.  An alpha_S
    that moves the object family, or transports some map to the map of no
    element, is skipped unsearched.  Complete, as a map is determined by
    its images of `_generators_over_s`; sound, as each map kept passes
    `hom_defect` and `_converse_defect` and is injective on a set of its
    own size.  Not kept itself; `locality_automorphisms` and
    `rigid_automorphisms` keep its result.
    """
    pg = loc.pg
    ids, cls, members = _map_classes(pg)
    gens = _generators_over_s(pg, cls, members)

    def over(alpha_s: dict[int, int]) -> Iterator[tuple[int, ...]]:
        want = [ids.get(frozenset((alpha_s[x], alpha_s[y])
                                  for x, y in conj.items()))
                for conj in pg.conj_maps]
        if None in want or {frozenset(alpha_s[x] for x in P)
                            for P in pg.objects} != set(pg.object_set):
            return iter(())
        maps = generator_image_search(
            pg.rows, pg.rows, pg.inv, pg.inv, alpha_s, gens,
            lambda g: members[want[g]], lambda x, v: cls[v] == want[x],
            injective=True)
        return (full for full in maps if hom_defect(loc, loc, full) is None
                and _converse_defect(loc, loc, full) is None)

    rigid = tuple(sorted(over({x: x for x in pg.s_members})))
    sg = loc.s_group()
    out: list[tuple[int, ...]] = []
    for a in automorphisms(sg):
        alpha_s = {sg.tokens[i]: sg.tokens[a[i]] for i in range(sg.order)}
        beta = next(over(alpha_s), None)
        if beta is not None:
            out.extend(compose_maps(beta, rho) for rho in rigid)
    return tuple(sorted(set(out))), rigid


def locality_automorphisms(loc: Locality) -> list[tuple[int, ...]]:
    """All automorphisms of the locality, as image tuples, sorted.

    Searched once per Locality instance; each call returns a fresh list.
    """
    return list(_kept(loc, search_automorphisms)[0])


def rigid_automorphisms(loc: Locality) -> list[tuple[int, ...]]:
    """Automorphisms restricting to the identity on S, sorted; from the
    same kept search as `locality_automorphisms`."""
    return list(_kept(loc, search_automorphisms)[1])


@_kept
def _automorphism_set(loc: Locality) -> frozenset[tuple[int, ...]]:
    return frozenset(_kept(loc, search_automorphisms)[0])


def is_locality_automorphism(loc: Locality, alpha: Sequence[int]) -> bool:
    """Whether alpha is an automorphism of loc: membership in the set of
    the kept search, which certified each of its members."""
    return tuple(alpha) in _automorphism_set(loc)


def compose_maps(first: Sequence[int], second: Sequence[int]) -> tuple[int, ...]:
    """Apply first, then second."""
    return tuple(second[g] for g in first)


class AutomorphismGroup(FiniteGroup):
    """Aut(L) as a group on its sorted image tuples, with a generating
    sequence.

    Index i stands for `tokens[i]`.  `mul(i, j)` applies tokens[i], then
    tokens[j], and looks the composite up, so the view holds no |Aut|²
    table.  A composite or inverse outside the set means the set is not
    a group, which the certified search rules out; it raises an internal
    ExtensionError.  `generators` is `groups.generating_sequence` of the
    view: every element is a product of them.
    """

    def __init__(self, auts: Sequence[tuple[int, ...]]) -> None:
        super().__init__()
        self.tokens = tuple(auts)
        self.order = len(self.tokens)
        self._index = {a: i for i, a in enumerate(self.tokens)}
        self.identity = self.index_of(tuple(range(len(self.tokens[0]))))
        self._inv = tuple(self.index_of(_inverse_map(a)) for a in self.tokens)
        self.generators = tuple(generating_sequence(self))

    def index_of(self, alpha: tuple[int, ...]) -> int:
        i = self._index.get(alpha)
        if i is None:
            raise ExtensionError("internal: the automorphisms are not closed "
                                 "under composition and inversion")
        return i

    def mul(self, i: int, j: int) -> int:
        return self.index_of(compose_maps(self.tokens[i], self.tokens[j]))

    def label(self, i: int) -> str:
        return str(self.tokens[i])


@_kept
def automorphism_group(loc: Locality) -> AutomorphismGroup:
    """Aut(L) with its generating sequence, built once per Locality from
    the kept search."""
    return AutomorphismGroup(_kept(loc, search_automorphisms)[0])


# ---------------------------------------------------------------------------
# restriction of automorphisms


def restrict_automorphism(plus: Locality, restr: Locality,
                          alpha: Sequence[int]) -> tuple[int, ...]:
    """Restriction of an automorphism of the larger locality to a
    restriction locality (indices of `restr`)."""
    if restr.parent is not plus:
        raise ExtensionError("second locality is not a restriction of the first")
    pi = restr.parent_index
    back = {p: i for i, p in enumerate(pi)}
    try:
        return tuple(back[alpha[pi[i]]] for i in range(restr.size))
    except KeyError:
        raise ExtensionError("automorphism does not preserve the restriction")


def aut_restriction_report(plus: Locality, restr: Locality) -> dict:
    """Compare Aut of a locality with Aut of its restriction.

    Returns a dict with the two automorphism lists, the restriction map,
    and flags for it being defined everywhere, injective, surjective and
    multiplicative.

    Multiplicativity, r(a∘b) = r(a)∘r(b) for all a, b in Aut(L+), is
    checked for a in the generating sequence of `automorphism_group` and
    every b: |gens|·|Aut| lookups instead of |Aut|².  That is exact.  In
    a finite group every a is a product of one or more generators (the
    identity is g∘…∘g), so a = g or a = g∘a' with a' shorter, and by
    induction on the length
        r(a∘b) = r(g∘(a'∘b)) = r(g)∘r(a'∘b) = r(g)∘(r(a')∘r(b))
               = (r(g)∘r(a'))∘r(b) = r(g∘a')∘r(b) = r(a)∘r(b).
    The second and fifth steps are the generator check, against a'∘b
    and against a'; the third is the induction hypothesis; the others
    regroup compositions of maps.  Here a∘b applies a first, as
    `compose_maps` does.  A trivial Aut(L+) has no generators and needs
    no check, since restricting the identity gives the identity.  When
    some restriction is undefined the flag stays True, as "defined"
    already fails.
    """
    aut_plus = locality_automorphisms(plus)
    aut_small = locality_automorphisms(restr)
    images = []
    defined = True
    for a in aut_plus:
        try:
            images.append(restrict_automorphism(plus, restr, a))
        except ExtensionError:
            defined = False
            images.append(None)
    image_set = {im for im in images if im is not None}
    multiplicative = True
    if defined:
        group = automorphism_group(plus)
        multiplicative = all(
            images[group.mul(g, b)] == compose_maps(images[g], images[b])
            for g in group.generators for b in group.indices())
    return {
        "aut_plus": aut_plus,
        "aut": aut_small,
        "images": images,
        "defined": defined,
        "injective": len(image_set) == len(aut_plus) and defined,
        "surjective": image_set == set(aut_small),
        "multiplicative": multiplicative,
    }


# ---------------------------------------------------------------------------
# extending a homomorphism from a restriction


def _parent_objects(restr: Locality) -> set[frozenset[int]]:
    pi = restr.parent_index
    return {frozenset(pi[x] for x in P) for P in restr.objects}


def extend_hom(restr: Locality, tilde: Locality, alpha: Sequence[int],
               alpha_q: dict[frozenset[int], dict[int, int]] | None = None,
               ) -> tuple[int, ...]:
    """Extend a homomorphism off a restriction to the whole locality.

    restr is a restriction of its parent locality L+ with object family
    D inside the parent family D+, alpha: restr -> tilde a homomorphism
    of partial groups whose object images (for all of D+) are objects of
    tilde.  Hypotheses checked here:

      * the normalizer in S of every object in D+ \\ D lies in D;
      * alpha passes the homomorphism certificate;
      * every D+ object maps into the object family of tilde.

    For every missing object class a fully normalized representative Q
    is fixed.  When `alpha_q` is given it must map each representative Q
    (as a frozenset of parent indices) to a group homomorphism from the
    parent normalizer of Q into the tilde normalizer of its image,
    agreeing with alpha on the part inside the restriction; otherwise
    the parent normalizers must lie inside the restriction and alpha
    itself is used.

    The extension gamma is assembled elementwise: f with S_f = P outside
    D is written as a product h_P * g * h_{P^f}^(-1) with g normalizing
    Q, and the image is the corresponding product of images.  The result
    is certified and returned as a tuple over parent indices; it is the
    unique homomorphism extension, which `hom_completions` can confirm
    independently.
    """
    plus = restr.parent
    if plus is None:
        raise ExtensionError("first locality is not a restriction")
    ppg, tpg = plus.pg, tilde.pg
    pi = restr.parent_index
    back = {p: i for i, p in enumerate(pi)}

    if len(alpha) != restr.size:
        raise ExtensionError("alpha must be defined on the restriction")
    defect = hom_defect(restr, tilde, alpha)
    if defect is not None:
        raise ExtensionError("alpha is not a homomorphism: " + defect)

    delta = _parent_objects(restr)
    delta_plus = set(ppg.object_set)
    if not delta <= delta_plus:
        raise ExtensionError("restriction objects are not parent objects")
    missing = sorted(delta_plus - delta, key=lambda P: (len(P), sorted(P)))

    def alpha_parent(x: int) -> int:
        if x not in back:
            raise ExtensionError("alpha is needed outside the restriction")
        return alpha[back[x]]

    def image_set(P: Iterable[int]) -> frozenset[int]:
        return frozenset(alpha_parent(x) for x in P)

    for P in sorted(delta_plus, key=lambda P: (len(P), sorted(P))):
        if image_set(P) not in tpg.object_set:
            raise ExtensionError(f"object {sorted(P)} does not map into the "
                                 "target object family")

    s_set = set(ppg.s_members)
    n_s_of: dict[frozenset[int], frozenset[int]] = {}
    for P in missing:
        ns = frozenset(x for x in s_set
                       if {ppg.conj_maps[x][y] for y in P} == set(P))
        n_s_of[P] = ns
        if ns not in delta:
            raise ExtensionError(f"normalizer in S of {sorted(P)} is not an "
                                 "object of the restriction")

    # fully normalized class representatives among the missing objects
    fus = fusion_from_locality(plus)
    rep_of: dict[frozenset[int], frozenset[int]] = {}
    reps: list[frozenset[int]] = []
    for P in missing:
        cls = fus.conjugacy_class(tuple(sorted(P)))
        if any(frozenset(Q) not in delta_plus - delta for Q in cls):
            raise ExtensionError("missing objects are not closed under fusion")
        best = max(len(fus.n_s(Q)) for Q in cls)
        rep = next(frozenset(Q) for Q in cls if len(fus.n_s(Q)) == best)
        rep_of[P] = rep
        if rep not in reps:
            reps.append(rep)

    # normalizer maps on the representatives
    maps: dict[frozenset[int], dict[int, int]] = {}
    for Q in reps:
        n_plus = plus.n_of(Q)
        n_inner = [f for f in n_plus if ppg.s_f(f) in delta]
        q_img = image_set(Q)
        n_tilde = set(tilde.n_of(q_img))
        if alpha_q is not None and Q in alpha_q:
            amap = dict(alpha_q[Q])
        else:
            if set(n_plus) - set(n_inner):
                raise ExtensionError(
                    "normalizer of a representative leaves the restriction; "
                    "an explicit normalizer map is required")
            amap = {f: alpha_parent(f) for f in n_plus}
        if set(amap) != set(n_plus):
            raise ExtensionError("normalizer map has the wrong domain")
        if not set(amap.values()) <= n_tilde:
            raise ExtensionError("normalizer map leaves the image normalizer")
        for f in n_inner:
            if amap[f] != alpha_parent(f):
                raise ExtensionError("normalizer map disagrees with alpha")
        for a in n_plus:
            row, image_row = ppg.rows[a], tpg.rows[amap[a]]
            for b in n_plus:
                c = row[b]
                d = image_row[amap[b]]
                if c is None or d is None or d != amap[c]:
                    raise ExtensionError("normalizer map is not a group "
                                         "homomorphism")
        maps[Q] = amap

    # transporter elements h_P moving each missing object to its representative
    h_of: dict[frozenset[int], int] = {}
    for P in missing:
        ns = n_s_of[P]
        cands = [h for h in plus.transporter_elements(ns, ppg.s_members)
                 if frozenset(ppg.conj_maps[h][x] for x in P) == rep_of[P]]
        if not cands:
            raise ExtensionError(f"no transporter moves {sorted(P)} to its "
                                 "fully normalized representative")
        h_of[P] = min(cands)

    gamma = [0] * ppg.size
    for f in range(ppg.size):
        sf = ppg.s_f(f)
        if sf in delta:
            gamma[f] = alpha[back[f]]
            continue
        P = sf
        pf = frozenset(ppg.conj_maps[f][x] for x in P)
        Q = rep_of[P]
        if rep_of.get(pf) != Q:
            raise ExtensionError("element conjugates an object out of its "
                                 "fusion class")
        h1, h2 = h_of[P], h_of[pf]
        word = (ppg.inv[h1], f, h2)
        if not ppg.word_in_domain(word):
            raise ExtensionError("internal: conjugating word left the domain")
        g = ppg.product(word)
        if g not in maps[Q]:
            raise ExtensionError("internal: middle factor does not normalize "
                                 "the representative")
        t_word = (alpha_parent(h1), maps[Q][g], tpg.inv[alpha_parent(h2)])
        if not tpg.word_in_domain(t_word):
            raise ExtensionError("internal: image word left the target domain")
        gamma[f] = tpg.product(t_word)

    out = tuple(gamma)
    defect = hom_defect(plus, tilde, out)
    if defect is not None:
        raise ExtensionError("internal: assembled extension is not a "
                             "homomorphism: " + defect)
    for i, p in enumerate(pi):
        if out[p] != alpha[i]:
            raise ExtensionError("internal: extension does not restrict to "
                                 "alpha")
    return out
