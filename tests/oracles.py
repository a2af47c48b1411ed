"""Independent oracles used to freeze expected values.

These deliberately avoid the library's algorithms: closures are computed by
fixpoint iteration over full product tables, subgroup enumeration by subset
closure, fusion by direct conjugation in the ambient permutation group,
partial-normal enumeration by power-set scan, and associativity and
functoriality of transporter systems by scans over every composable triple
or pair instead of a generating set.  Two more scan what the library
decides on generators: the multiplicativity of the restriction of
automorphisms over every pair, and the automorphisms of a transporter
system by the exhaustive search tree instead of a stabilizer chain.
`close_object_family` and `object_family_closure_defect` close and test
an object family by conjugating every subgroup by every element of the
ambient group, where the library reads the fusion system.  Two
keep the map searches that the library's generator-image search
replaced: `hom_completions_reference` assigns every element in turn, and
`group_isomorphisms_reference` rebuilds each partial map from scratch;
`locality_automorphisms_reference` runs both, so it shares no search
with the library.  They are slow and only run at tiny scale.

The word scans at the end check a locality the way the definition reads:
they list every word of the domain up to a length k and test PG1-PG4,
cancellation, the word laws and the chain definition of the domain on
each.  `locality.validate_locality` proves all of these at every length
from the ambient group instead; the scans are its reference on the
fixtures and the only check of the localities that have no ambient group
(transporter bridges, quotients, hand-built ones).
"""

from __future__ import annotations

import itertools
from array import array

from loclab import perm
from loclab.extension import (
    ExtensionError,
    compose_maps,
    hom_defect,
    iso_defect,
    locality_automorphisms,
    restrict_automorphism,
)
from loclab.groups import generating_sequence, subgroup_lattice, subgroup_view
from loclab.locality import (
    LocalityCheck,
    LocalityReport,
    _thread,
    canonical_objects,
    locality_structure_checks,
)
from loclab.partial import (
    MAX_FAILURES,
    CheckFailure,
    UndefinedProductError,
    ValidationReport,
)
from loclab.transporter import CategoryFunctor, TransporterError, is_transporter_iso


# ---------------------------------------------------------------------------
# the tuple-keyed tables the library reads as rows


def pair_dict(pg):
    """The defined products of pg as a dict {(a, b): ab}, in row order."""
    return {(a, b): c for a, row in enumerate(pg.rows)
            for b, c in enumerate(row) if c is not None}


def compose_dict(T):
    """The composites of T as a dict {(later, earlier): composite}, in row
    order."""
    return {(j, i): k for j, row in enumerate(T.comp)
            for i, k in enumerate(row) if k is not None}


def rows_of(table, n):
    """An n x n row table from a dict {(a, b): c}; None where it has no key."""
    rows = [[None] * n for _ in range(n)]
    for (a, b), c in table.items():
        rows[a][b] = c
    return tuple(map(tuple, rows))


def hom_defect_reference(src, dst, alpha):
    """`extension.hom_defect` with its product loop over the pair dict of
    the source, as the library ran it before the pair tables became rows."""
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
        for x, y in cf.items():
            if alpha[x] not in cg:
                return (f"image of {spg.labels[x]} escapes the conjugation "
                        f"domain of the image of {spg.labels[f]}")
            if cg[alpha[x]] != alpha[y]:
                return (f"conjugation of {spg.labels[x]} by {spg.labels[f]} "
                        "is not preserved")
    for (a, b), c in pair_dict(spg).items():
        d = dpg.pair(alpha[a], alpha[b])
        if d is None:
            return (f"product ({spg.labels[a]}, {spg.labels[b]}) maps outside "
                    "the target domain")
        if d != alpha[c]:
            return (f"product ({spg.labels[a]}, {spg.labels[b]}) is not "
                    "preserved")
    return None


def naive_closure(generators, degree):
    """Fixpoint closure under composition, no BFS bookkeeping."""
    elements = {perm.identity_perm(degree)}
    elements.update(tuple(g) for g in generators)
    while True:
        new = set()
        for a in elements:
            for b in elements:
                c = perm.compose(a, b)
                if c not in elements:
                    new.add(c)
        if not new:
            return sorted(elements)
        elements |= new


def subset_closures_upto_pairs(group):
    """Closures of all subsets of size <= 2, as sorted member tuples."""
    out = set()
    idx = list(group.indices())
    singletons = [[i] for i in idx]
    pairs = [list(c) for c in itertools.combinations(idx, 2)]
    for seed in [[]] + singletons + pairs:
        members = {group.identity, *seed}
        while True:
            new = set()
            for a in members:
                for b in members:
                    if group.mul(a, b) not in members:
                        new.add(group.mul(a, b))
                if group.inv(a) not in members:
                    new.add(group.inv(a))
            if not new:
                break
            members |= new
        out.add(tuple(sorted(members)))
    return out


def all_subgroups_by_subset_scan(group):
    """Every subset that is a subgroup; only sane for order <= 12."""
    idx = [i for i in group.indices() if i != group.identity]
    out = set()
    for r in range(len(idx) + 1):
        for combo in itertools.combinations(idx, r):
            members = {group.identity, *combo}
            if all(group.mul(a, b) in members for a in members for b in members):
                out.add(tuple(sorted(members)))
    return out


def group_fusion_hom_sets(M, s_members):
    """Hom sets of the fusion system of M over the subgroup with the given
    member indices: all maps c_g restricted to subgroups P with P^g <= Q.

    Returns {(P_key, Q_key): frozenset of image tuples} where keys and
    images are sorted tuples of M-indices.
    """
    s_set = set(s_members)
    subs = []
    for r in range(1, len(s_members) + 1):
        for combo in itertools.combinations(sorted(s_set), r):
            members = set(combo)
            if M.identity in members and all(
                M.mul(a, b) in members for a in members for b in members
            ):
                subs.append(tuple(sorted(members)))
    homs = {}
    for P in subs:
        for Q in subs:
            maps = set()
            for g in M.indices():
                image = tuple(sorted(M.conj(x, g) for x in P))
                if set(image) <= set(Q):
                    maps.add(tuple(M.conj(x, g) for x in P))
            if maps:
                homs[(P, Q)] = frozenset(maps)
    return homs


def _subgroups_of_view(group, s_members):
    """All subgroups of <s_members>, as frozensets of `group` indices."""
    view = subgroup_view(group, s_members)
    out = []
    for sub in subgroup_lattice(view):
        out.append(frozenset(view.tokens[i] for i in sub.members))
    return out


def object_family_closure_defect(group, s_members, objs):
    """Why `objs` fails to be closed (conjugation into S, overgroups in S),
    or None if it is closed."""
    objset = set(objs)
    subs_of_s = _subgroups_of_view(group, s_members)
    for P in objs:
        for g in group.indices():
            img = frozenset(group.conj(x, g) for x in P)
            if img <= s_members and img not in objset:
                return ("conjugate of an object lands in S but is not an object: "
                        f"{sorted(P)} ^ {group.label(g)}")
        for Q in subs_of_s:
            if P <= Q and Q not in objset:
                return (f"overgroup of an object is missing: {sorted(P)} <= {sorted(Q)}")
    return None


def close_object_family(group, s_members, seeds):
    """Close seeds under conjugation into S and overgroups in S."""
    subs_of_s = _subgroups_of_view(group, s_members)
    pool = {frozenset(P) for P in seeds}
    while True:
        new = set()
        for P in pool:
            for g in group.indices():
                img = frozenset(group.conj(x, g) for x in P)
                if img <= s_members and img not in pool:
                    new.add(img)
            for Q in subs_of_s:
                if P <= Q and Q not in pool:
                    new.add(Q)
        if not new:
            return canonical_objects(pool)
        pool |= new


def powerset_partial_normals(pg):
    """All partial normal subgroups by literal power-set scan (|L| <= 12).

    Partial-normality is checked straight from the partial-group API:
    contains the identity, inverse-closed, closed under defined pair
    products, and stable under every defined conjugation.
    """
    n = pg.size
    assert n <= 12, "power-set oracle is only meant for tiny carriers"
    others = [i for i in range(n) if i != pg.identity]
    out = []
    for r in range(len(others) + 1):
        for combo in itertools.combinations(others, r):
            cand = frozenset({pg.identity, *combo})
            if not all(pg.inv[x] in cand for x in cand):
                continue
            ok = True
            for a in cand:
                for b in cand:
                    prod = pg.pair(a, b)
                    if prod is not None and prod not in cand:
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                continue
            for f in range(n):
                fi = pg.inv[f]
                for x in cand:
                    if pg.word_in_domain((fi, x, f)) and pg.product((fi, x, f)) not in cand:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.append(cand)
    return out


def naive_carrier(group, s_members, objects):
    """Both characterizations of the carrier of L_Gamma(M), from scratch.

    Returns (by_meet, by_transport): elements g with S meet S^g in Gamma,
    and elements g carrying some object into S.
    """
    s = frozenset(s_members)
    objs = {frozenset(P) for P in objects}
    by_meet = []
    for g in range(group.order):
        ginv = group.inv(g)
        meet = frozenset(y for y in s if group.conj(y, ginv) in s)
        if meet in objs:
            by_meet.append(g)
    by_transport = []
    for g in range(group.order):
        if any(all(group.conj(x, g) in s for x in P) for P in objs):
            by_transport.append(g)
    return by_meet, by_transport


def naive_chain_words(group, carrier, objects, k):
    """Words over the carrier of length <= k that admit an object chain
    P_0 ^ g_1 = P_1, ..., found by literal search over the family."""
    objs = [frozenset(P) for P in objects]
    objset = set(objs)

    def conj_sub(P, g):
        return frozenset(group.conj(x, g) for x in P)

    def has_chain(word):
        heads = list(objs)
        for g in word:
            heads = [conj_sub(P, g) for P in heads]
            heads = [Q for Q in heads if Q in objset]
            if not heads:
                return False
        return True

    out = [()]
    for n in range(1, k + 1):
        for w in itertools.product(carrier, repeat=n):
            if has_chain(w):
                out.append(w)
    return out


def naive_s_f(group, s_members, f):
    """S_f = {x in S : x^f in S} by direct conjugation."""
    s = frozenset(s_members)
    return frozenset(x for x in s if group.conj(x, f) in s)


def s_of_word_reference(pg, w):
    """S_w by walking the conjugation maps letter by letter: the partial
    map x -> x^{f_1 ... f_i} is rebuilt as a fresh dict at every letter,
    and S_w is its domain at the end."""
    cur = {x: x for x in pg.s_members}
    for f in w:
        conj = pg.conj_maps[f]
        cur = {x: conj[img] for x, img in cur.items() if img in conj}
    return frozenset(cur)


def locality_automorphisms_reference(loc):
    """Aut(L) by the full backtrack: every completion of every automorphism
    of S that preserves the object family, kept when the isomorphism
    certificate passes.  No coset argument, no memo, and neither search
    is the library's: Aut(S) comes from `group_isomorphisms_reference`,
    the completions from `hom_completions_reference`."""
    pg = loc.pg
    sg = loc.s_group()
    out = []
    for a in group_isomorphisms_reference(sg, sg):
        alpha_s = {sg.tokens[i]: sg.tokens[a[i]] for i in range(sg.order)}
        if {frozenset(alpha_s[x] for x in P) for P in pg.objects} \
                != set(pg.object_set):
            continue
        for full in hom_completions_reference(loc, loc, alpha_s):
            if iso_defect(loc, loc, full) is None:
                out.append(full)
    return sorted(set(out))


# The element-by-element completion search that `extension.hom_completions`
# ran before it searched over generator images: every element in turn, in
# order of candidate count and index, each assignment checked against the
# pair-table entries it takes part in.


def _conj_candidates(src, dst, pinned, f):
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


def _pair_index(pg):
    """For each element f, the pair-table entries (a, b, c) with f among
    a, b and c, flattened into one int array per element."""
    index = [array("i") for _ in range(pg.size)]
    for (a, b), c in pair_dict(pg).items():
        for f in {a, b, c}:
            index[f].extend((a, b, c))
    return index


def _completions(src, dst, pinned, cands, index, injective=False):
    """Every map src -> dst that extends `pinned`, sends each free f into
    cands[f] and passes the homomorphism certificate, depth first.

    After f is assigned, only the pair entries in index[f] (from
    `_pair_index` on src) are checked: a pair whose factors are both
    assigned must have a defined image product, equal to the image of the
    product once that is assigned.  With `injective`, an image that is
    already used is skipped.
    """
    dpairs = pair_dict(dst.pg)
    assign = [-1] * src.size
    used = [False] * dst.size
    for x, y in pinned.items():
        assign[x] = y
        used[y] = True
    free = sorted((f for f in range(src.size) if assign[f] < 0),
                  key=lambda f: (len(cands[f]), f))

    def consistent(f):
        entries = index[f]
        for i in range(0, len(entries), 3):
            ga, gb = assign[entries[i]], assign[entries[i + 1]]
            if ga < 0 or gb < 0:
                continue
            d = dpairs.get((ga, gb))
            if d is None:
                return False
            gc = assign[entries[i + 2]]
            if gc >= 0 and d != gc:
                return False
        return True

    def rec(i):
        if i == len(free):
            full = tuple(assign)
            if hom_defect(src, dst, full) is None:
                yield full
            return
        f = free[i]
        for g in cands[f]:
            if injective and used[g]:
                continue
            assign[f] = g
            used[g] = True
            if consistent(f):
                yield from rec(i + 1)
            used[g] = False
        assign[f] = -1

    yield from rec(0)


def hom_completions_reference(src, dst, pinned, cap=100000):
    """All homomorphisms of partial groups src -> dst extending `pinned`,
    by exhaustive backtracking.

    `pinned` must cover S and map objects into objects; the enumeration
    then closes over the two finite certificate conditions, so the result
    is exactly the set of extensions.  Deterministic order.
    """
    spg, dpg = src.pg, dst.pg
    if not set(spg.s_members) <= set(pinned):
        raise ExtensionError("all of S must be pinned")
    for P in spg.objects:
        if frozenset(pinned[x] for x in P) not in dpg.object_set:
            raise ExtensionError("pinned part does not map objects to objects")

    cands = {f: _conj_candidates(src, dst, pinned, f)
             for f in range(spg.size) if f not in pinned}
    results = []
    for full in _completions(src, dst, pinned, cands, _pair_index(spg)):
        results.append(full)
        if len(results) >= cap:
            raise ExtensionError("completion search hit the cap")
    return sorted(results)


# The group isomorphism search before the shared generator-image search:
# backtracking over images of a generating sequence, each partial
# assignment rebuilt from scratch by a breadth-first walk.


def _close_generator_map(source, target, gens, images):
    """Propagate gens[i] -> images[i] over <gens> by BFS.

    Returns the induced map on the generated subgroup, or None when two
    paths to the same element disagree or the map is not injective.
    """
    mapping = {source.identity: target.identity}
    frontier = [source.identity]
    while frontier:
        new = []
        for x in frontier:
            for g, img in zip(gens, images):
                y = source.mul(x, g)
                ty = target.mul(mapping[x], img)
                if y in mapping:
                    if mapping[y] != ty:
                        return None
                else:
                    mapping[y] = ty
                    new.append(y)
        frontier = new
    if len(set(mapping.values())) != len(mapping):
        return None
    return mapping


def group_isomorphisms_reference(source, target):
    """All isomorphisms source -> target as image tuples (index maps).

    Backtracks over images of a generating sequence, pruning with element
    orders and path consistency.  Deterministic order.
    """
    if source.order != target.order:
        return []
    gens = generating_sequence(source)
    if not gens:  # trivial group
        return [(target.identity,)]
    by_order = {}
    for t in target.indices():
        by_order.setdefault(target.element_order(t), []).append(t)

    results = []

    def full_check(mapping):
        for a in source.indices():
            for b in source.indices():
                if mapping[source.mul(a, b)] != target.mul(mapping[a], mapping[b]):
                    return False
        return True

    def extend(k, images):
        if k == len(gens):
            mapping = _close_generator_map(source, target, gens, images)
            if mapping is not None and len(mapping) == source.order and full_check(mapping):
                results.append(tuple(mapping[x] for x in source.indices()))
            return
        for cand in by_order.get(source.element_order(gens[k]), []):
            images.append(cand)
            if _close_generator_map(source, target, gens[: k + 1], images) is not None:
                extend(k + 1, images)
            images.pop()

    extend(0, [])
    return sorted(results)


def associativity_reference(T):
    """The cubic scan: (j∘i)∘k = j∘(i∘k) for every composable triple of
    the transporter system T, whatever its size."""
    compose = compose_dict(T)
    for (j, i) in compose:
        for k in range(T.mor_count):
            if T.dst[k] == T.src[i]:
                if (compose[(compose[(j, i)], k)] !=
                        compose[(j, compose[(i, k)])]):
                    return "composition is not associative"
    return None


def functor_defect_reference(alpha):
    """`functor_defect` by the full scan: endpoints, identities, and
    F(j∘i) = F(j)∘F(i) on every composable pair, with no generators."""
    T, U = alpha.src, alpha.dst
    if len(alpha.object_map) != len(T.objects):
        return "object map has the wrong length"
    if len(alpha.morphism_map) != T.mor_count:
        return "morphism map has the wrong length"
    for m in range(T.mor_count):
        m2 = alpha.morphism_map[m]
        if (U.src[m2] != alpha.object_map[T.src[m]] or
                U.dst[m2] != alpha.object_map[T.dst[m]]):
            return "morphism images have the wrong endpoints"
    for i, ide in T.identity_ids.items():
        if alpha.morphism_map[ide] != U.identity_ids[alpha.object_map[i]]:
            return "identities are not preserved"
    image_compose = compose_dict(U)
    for (j, i), k in compose_dict(T).items():
        if (image_compose[(alpha.morphism_map[j], alpha.morphism_map[i])] !=
                alpha.morphism_map[k]):
            return "composition is not preserved"
    return None


def restriction_multiplicative_reference(plus, restr):
    """Multiplicativity of the restriction Aut(plus) -> Aut(restr) by the
    quadratic scan: r(a∘b) = r(a)∘r(b) for every pair, restricting each
    composite afresh.  Every restriction must be defined."""
    aut_plus = locality_automorphisms(plus)
    images = [restrict_automorphism(plus, restr, a) for a in aut_plus]
    multiplicative = True
    for a, ia in zip(aut_plus, images):
        for b, ib in zip(aut_plus, images):
            ab = compose_maps(a, b)
            if restrict_automorphism(plus, restr, ab) != compose_maps(ia, ib):
                multiplicative = False
    return multiplicative


def functor_enumeration_reference(T):
    """The isotypical, inclusion-preserving self-equivalences of T by the
    exhaustive search: every object permutation, then every image of
    every morphism, with constraint propagation, copying the assignment
    at each candidate.  No stabilizer chain; only viable for very small
    categories."""
    if len(T.objects) > 3 or T.mor_count > 200:
        raise TransporterError("direct enumeration is capped at 3 objects "
                               "and 200 morphisms")
    n_obj = len(T.objects)
    rdiv = {}
    ldiv = {}
    right_partners: dict[int, list[tuple[int, int]]] = {m: [] for m in range(T.mor_count)}
    left_partners: dict[int, list[tuple[int, int]]] = {m: [] for m in range(T.mor_count)}
    compose = compose_dict(T)
    for (j, i), k in compose.items():
        rdiv[(k, i)] = j
        ldiv[(k, j)] = i
        right_partners[i].append((j, k))
        left_partners[j].append((i, k))

    def profile(i):
        return (len(T.objects[i]),
                tuple(sorted(len(T.mor(i, j)) for j in range(n_obj))),
                tuple(sorted(len(T.mor(j, i)) for j in range(n_obj))))

    out = []
    for beta in itertools.permutations(range(n_obj)):
        if any(profile(i) != profile(beta[i]) for i in range(n_obj)):
            continue
        assign: dict[int, int] = {}
        used: dict[tuple[int, int], set[int]] = {}

        def force(m, v, queue):
            pair = (beta[T.src[m]], beta[T.dst[m]])
            if T.src[v] != pair[0] or T.dst[v] != pair[1]:
                return False
            if m in assign:
                return assign[m] == v
            if v in used.setdefault(pair, set()):
                return False
            assign[m] = v
            used[pair].add(v)
            queue.append(m)
            return True

        def propagate(queue):
            while queue:
                m = queue.pop()
                for (j, k) in right_partners[m]:
                    if j in assign:
                        c = compose.get((assign[j], assign[m]))
                        if c is None or not force(k, c, queue):
                            return False
                    elif k in assign:
                        j2 = rdiv.get((assign[k], assign[m]))
                        if j2 is None or not force(j, j2, queue):
                            return False
                for (i, k) in left_partners[m]:
                    if i in assign:
                        c = compose.get((assign[m], assign[i]))
                        if c is None or not force(k, c, queue):
                            return False
                    elif k in assign:
                        i2 = ldiv.get((assign[k], assign[m]))
                        if i2 is None or not force(i, i2, queue):
                            return False
            return True

        queue: list[int] = []
        ok = True
        for (i, j), m in T.incl.items():
            if not force(m, T.incl[(beta[i], beta[j])], queue):
                ok = False
                break
        if not ok or not propagate(queue):
            continue

        def dfs():
            todo = [m for m in range(T.mor_count) if m not in assign]
            if not todo:
                alpha = CategoryFunctor(T, T, tuple(beta),
                                        tuple(assign[m] for m in range(T.mor_count)))
                if is_transporter_iso(alpha):
                    out.append(alpha)
                return
            m = min(todo)
            pair = (beta[T.src[m]], beta[T.dst[m]])
            for v in T.mor(*pair):
                if v in used.get(pair, set()):
                    continue
                if T.is_iso(m) != T.is_iso(v):
                    continue
                saved_assign = dict(assign)
                saved_used = {k2: set(s) for k2, s in used.items()}
                queue2: list[int] = []
                if force(m, v, queue2) and propagate(queue2):
                    dfs()
                assign.clear()
                assign.update(saved_assign)
                used.clear()
                used.update(saved_used)

        dfs()
    unique = {}
    for a in out:
        unique[a.morphism_map] = a
    return [unique[k] for k in sorted(unique)]


def blockwise_partial_normals(pg):
    """All partial normal subgroups via conjugation-orbit blocks.

    A conjugation-stable subset of a locality is a union of orbits of the
    relation x ~ x^g (one orbit never straddles the boundary, because the
    reversed conjugation is also defined there).  So the candidates are
    exactly the unions of whole blocks that contain the identity, and only
    the inverse and product axioms need a literal check on each union.
    Tractable whenever the block count is small, independent of |L|.
    """
    n = pg.size
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for g in range(n):
        gi = pg.inv[g]
        for x in range(n):
            if pg.word_in_domain((gi, x, g)):
                ra, rb = find(x), find(pg.product((gi, x, g)))
                if ra != rb:
                    parent[max(ra, rb)] = min(ra, rb)
    blocks = {}
    for x in range(n):
        blocks.setdefault(find(x), set()).add(x)
    ident = frozenset(blocks.pop(find(pg.identity)))
    rest = sorted((frozenset(b) for b in blocks.values()), key=sorted)
    assert len(rest) <= 16, "too many conjugation blocks for the union scan"
    out = []
    for r in range(len(rest) + 1):
        for combo in itertools.combinations(rest, r):
            cand = ident.union(*combo)
            if not all(pg.inv[x] in cand for x in cand):
                continue
            ok = True
            for a in cand:
                for b in cand:
                    prod = pg.pair(a, b)
                    if prod is not None and prod not in cand:
                        ok = False
                        break
                if not ok:
                    break
            if ok:
                out.append(cand)
    return out


def retoken_fusion(F, to_token, p, mul, inv, label_fn):
    """F with every element x of S renamed to_token[x]: the embedding
    tables are rewritten map by map, not generated again."""
    from loclab.fusion import FusionSystem

    emb = {}
    for P in F.subgroups:
        out = set()
        for img in F.embeddings_of(P):
            phi = {to_token[a]: to_token[b] for a, b in zip(P, img)}
            dom = tuple(sorted(phi))
            out.add(tuple(phi[d] for d in dom))
        emb[tuple(sorted(to_token[x] for x in P))] = frozenset(out)
    s = tuple(sorted(to_token[x] for x in F.s))
    return FusionSystem(p, s, mul, inv, emb, label_fn=label_fn)


def span_reference(mul, identity, seed):
    """The subgroup generated by seed, by closing under products on both
    sides until nothing new appears."""
    members = {identity}
    frontier = sorted(set(seed) | members)
    members.update(frontier)
    while frontier:
        nxt = []
        for a in sorted(members):
            for b in frontier:
                for c in (mul(a, b), mul(b, a)):
                    if c not in members:
                        members.add(c)
                        nxt.append(c)
        frontier = nxt
    return tuple(sorted(members))


def partial_span_reference(pg, seed, images=lambda x: ()):
    """The closure of seed and the identity under inverses, defined pair
    products and `images`, by sweeping every pair of members until nothing
    new appears."""
    members = {pg.identity, *seed}
    while True:
        grown = set(members)
        for a in members:
            grown.add(pg.inv[a])
            grown.update(y for y in images(a) if y is not None)
            for b in members:
                c = pg.pair(a, b)
                if c is not None:
                    grown.add(c)
        if grown == members:
            return frozenset(members)
        members = grown


# ---------------------------------------------------------------------------
# word scans


def iter_domain_words(pg, k):
    """Walk D depth-first.  Extensions of a word are pruned once the
    tracked S_w leaves the object family; on a valid locality this is
    exact because the domain is closed under taking subwords."""
    rows = pg._next or pg._build_table()
    accepts = pg._accepts
    if not accepts[0]:
        return
    yield ()

    def rec(word, state):
        if len(word) == k:
            return
        for f, nxt in enumerate(rows[state]):
            if accepts[nxt]:
                w2 = word + (f,)
                yield w2
                yield from rec(w2, nxt)

    yield from rec((), 0)


def chain_domain_words(loc, k):
    """Words of length <= k threaded through the objects, straight from the
    chain definition: track all objects reachable as the end of a chain."""
    yield ()

    def rec(word, heads):
        if len(word) == k:
            return
        for f in range(loc.size):
            nxt = _thread(loc, heads, f)
            if nxt:
                w2 = word + (f,)
                yield w2
                yield from rec(w2, nxt)

    yield from rec((), frozenset(loc.objects))


def invert_word(pg, w):
    return tuple(pg.inv[x] for x in reversed(w))


def validate_partial_group(pg, k):
    """Check PG1-PG4 on words of length <= k (exactly, via the group axioms,
    when the domain is provably full)."""
    if pg.is_full_domain:
        return validate_full(pg)
    return validate_bounded(pg, k)


def validate_full(pg):
    failures = []
    n = pg.size
    e = pg.identity

    def add(axiom, witness):
        failures.append(CheckFailure(axiom, witness))
        return len(failures) >= MAX_FAILURES

    for i in range(n):
        if pg.pair(e, i) != i or pg.pair(i, e) != i:
            if add("identity", f"1*{pg.labels[i]} or {pg.labels[i]}*1 wrong"):
                return ValidationReport(False, failures)
        if pg.pair(pg.inv[i], i) != e or pg.pair(i, pg.inv[i]) != e:
            if add("PG4", f"inverse of {pg.labels[i]} fails"):
                return ValidationReport(False, failures)
        if pg.inv[pg.inv[i]] != i:
            add("inversion", f"inv not involutory at {pg.labels[i]}")
    for i in range(n):
        for j in range(n):
            ij = pg.pair(i, j)
            if ij is None:
                if add("PG1", f"pair {pg.label_word((i, j))} undefined on a full domain"):
                    return ValidationReport(False, failures)
                continue
            for l in range(n):
                jl = pg.pair(j, l)
                if pg.pair(ij, l) != pg.pair(i, jl):
                    if add("PG3", "associativity fails at "
                           f"{pg.label_word((i, j, l))}"):
                        return ValidationReport(False, failures)
    return ValidationReport(not failures, failures)


def validate_bounded(pg, k):
    failures = []

    def add(axiom, witness):
        if len(failures) < MAX_FAILURES:
            failures.append(CheckFailure(axiom, witness))
        return len(failures) >= MAX_FAILURES

    def done():
        return ValidationReport(False, failures)

    if not pg.word_in_domain(()):
        add("PG1", "empty word not in D")
    else:
        if pg.product(()) != pg.identity:
            add("PG4", "Pi(()) is not the identity")
    for f in range(pg.size):
        if not pg.word_in_domain((f,)):
            if add("PG1", f"length-1 word ({pg.labels[f]},) not in D"):
                return done()
    for x in range(pg.size):
        if pg.inv[pg.inv[x]] != x:
            add("inversion", f"inv not involutory at {pg.labels[x]}")

    for w in iter_domain_words(pg, k):
        if not w:
            continue
        try:
            pw = pg.product(w)
        except UndefinedProductError as exc:
            if add("PG3", f"word {pg.label_word(w)} in D but fold undefined: {exc}"):
                return done()
            continue
        if len(w) == 1 and pw != w[0]:
            if add("PG2", f"Pi({pg.label_word(w)}) = {pg.labels[pw]} != {pg.labels[w[0]]}"):
                return done()
        # PG1: prefix/suffix closure
        for cut in range(len(w) + 1):
            u, v = w[:cut], w[cut:]
            if not pg.word_in_domain(u) or not pg.word_in_domain(v):
                if add("PG1", f"split {pg.label_word(u)} | {pg.label_word(v)} of "
                       f"{pg.label_word(w)} leaves D"):
                    return done()
        # PG3: substitute every contiguous subword by its product
        for i in range(len(w)):
            for j in range(i + 1, len(w) + 1):
                v = w[i:j]
                try:
                    pv = pg.product(v)
                except UndefinedProductError:
                    if add("PG1", f"subword {pg.label_word(v)} of {pg.label_word(w)} "
                           "not in D"):
                        return done()
                    continue
                w2 = w[:i] + (pv,) + w[j:]
                if not pg.word_in_domain(w2):
                    if add("PG3", f"substituted word {pg.label_word(w2)} not in D "
                           f"(from {pg.label_word(w)})"):
                        return done()
                    continue
                if pg.product(w2) != pw:
                    if add("PG3", f"Pi({pg.label_word(w2)}) != Pi({pg.label_word(w)})"):
                        return done()
        # PG4
        wi = invert_word(pg, w)
        if not pg.word_in_domain(wi + w):
            if add("PG4", f"w^-1*w not in D for w = {pg.label_word(w)}"):
                return done()
        elif pg.product(wi + w) != pg.identity:
            if add("PG4", f"Pi(w^-1*w) != 1 for w = {pg.label_word(w)}"):
                return done()
    return ValidationReport(not failures, failures)


def check_cancellation(pg, k=3):
    """Derived laws: inserting the identity and cancelling v, v^-1.

    (a) if u*v in D then u*(1)*v in D with equal products;
    (b) if u*(x)*(x^-1)*v in D then u*v in D with equal products.
    """
    failures = []
    for w in iter_domain_words(pg, k):
        for cut in range(len(w) + 1):
            w1 = w[:cut] + (pg.identity,) + w[cut:]
            if not pg.word_in_domain(w1) or pg.product(w1) != pg.product(w):
                failures.append(CheckFailure("cancel-a", pg.label_word(w)))
        for i, x in enumerate(w):
            w2 = w[: i + 1] + (pg.inv[x],) + w[i + 1:]
            if pg.word_in_domain(w2):
                w3 = w[:i] + w[i + 1:]
                if not pg.word_in_domain(w3) or pg.product(w3) != pg.product(w2):
                    failures.append(CheckFailure("cancel-b", pg.label_word(w2)))
        if len(failures) >= MAX_FAILURES:
            break
    return failures


def bounded_chain_mismatch(loc, k):
    """The least word of length <= k on which `iter_domain_words` and
    `chain_domain_words` part, with the side that yields it, or None.

    Both walks are depth-first with letters in increasing order, so both
    yield their words sorted; the first position where they part holds the
    least word of the symmetric difference."""
    walks = itertools.zip_longest(iter_domain_words(loc.pg, k),
                                  chain_domain_words(loc, k))
    for via_sw, via_chains in walks:
        if via_sw != via_chains:
            if via_chains is None or (via_sw is not None and via_sw < via_chains):
                return via_sw, "S_w test only"
            return via_chains, "chain search only"
    return None


def validate_by_words(loc, k):
    """The definition of a locality checked on words: the structural checks,
    PG1-PG4 on words up to length k, and the domain against the chain
    definition up to length min(k, 3) (at every length when the domain is
    provably full).  A `locality.LocalityReport` with the checks of
    `locality.validate_locality`, made without a carrier."""
    structure = locality_structure_checks(loc)
    pg_report = validate_partial_group(loc.pg, k)
    mismatch = None if loc.proven_full else bounded_chain_mismatch(loc, min(k, 3))
    detail = "; ".join(pg_report.witness_lines()[:MAX_FAILURES])
    dom_detail = "" if mismatch is None else (
        f"word {loc.pg.label_word(mismatch[0])} in {mismatch[1]}")
    checks = (LocalityCheck("partial-group", pg_report.ok, detail), *structure,
              LocalityCheck("domain-matches-chains", mismatch is None, dom_detail))
    return LocalityReport(all(c.ok for c in checks), checks, pg_report)


def _word(pg, word):
    return "(" + ", ".join(pg.labels[g] for g in word) + ")"


def _obj(loc, P):
    return "{" + ", ".join(loc.pg.labels[x] for x in sorted(P)) + "}"


def word_law_walk(loc, full_conj, k):
    """(ok, witness) for each word law of the locality suite, from a walk
    over every word of length <= k that keeps its own S_w dicts."""
    pg = loc.pg
    ok_dom, dom_wit = True, ""
    ok_sub, sub_wit = True, ""
    ok_conj, conj_wit = True, ""
    ok_norm, norm_wit = True, ""
    normalizers = {P: loc.n_of(P) for P in loc.objects}

    def visit(word, cur):
        nonlocal ok_dom, dom_wit, ok_sub, sub_wit, ok_conj, conj_wit
        nonlocal ok_norm, norm_wit
        s_w = frozenset(cur)
        in_dom = s_w in loc.object_set
        if in_dom != pg.word_in_domain(word):
            ok_dom, dom_wit = False, f"domain disagreement at {_word(pg, word)}"
            return
        if in_dom:
            try:
                prod = pg.product(word)
            except UndefinedProductError:
                ok_dom, dom_wit = False, (f"{_word(pg, word)} is in the domain "
                                          "but its product fold breaks")
                return
            if not s_w <= pg.s_f(prod):
                ok_sub, sub_wit = False, (
                    f"S of {_word(pg, word)} is not inside S of its product "
                    f"{pg.labels[prod]}")
            else:
                cp = pg.conj_maps[prod]
                if any(cp[x] != cur[x] for x in cur):
                    ok_conj, conj_wit = False, (
                        f"conjugation along {_word(pg, word)} differs from "
                        f"conjugation by {pg.labels[prod]}")
            if ok_sub and ok_conj and len(word) >= 2:
                for X0 in loc.objects:
                    if not X0 <= s_w:
                        continue
                    if not chain_matches(word, prod, normalizers[X0], full_conj):
                        ok_norm, norm_wit = False, (
                            f"composite conjugation along {_word(pg, word)} "
                            f"differs on the normalizer of {_obj(loc, X0)}")
                        break

    def walk(word, cur):
        if len(word) == k:
            return
        for g in range(loc.size):
            conj = pg.conj_maps[g]
            nxt = {x: conj[img] for x, img in cur.items() if img in conj}
            w2 = word + (g,)
            visit(w2, nxt)
            walk(w2, nxt)

    walk((), {x: x for x in pg.s_members})
    return [(ok_dom, dom_wit), (ok_sub, sub_wit), (ok_conj, conj_wit),
            (ok_norm, norm_wit)]


def chain_matches(word, prod, normalizer, full_conj):
    direct = full_conj[prod]
    for x in normalizer:
        cur = x
        for g in word:
            step = full_conj[g]
            if cur not in step:
                return False
            cur = step[cur]
        if direct.get(x) != cur:
            return False
    return True
