"""Independent oracles used to freeze expected values.

These deliberately avoid the library's algorithms: closures are computed by
fixpoint iteration over full product tables, subgroup enumeration by subset
closure, fusion by direct conjugation in the ambient permutation group, and
partial-normal enumeration by power-set scan.  They are slow and only run at
tiny scale.
"""

from __future__ import annotations

import itertools

from loclab import perm
from loclab.extension import hom_completions, iso_defect
from loclab.groups import automorphisms


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
    certificate passes.  No coset argument, no memo."""
    pg = loc.pg
    sg = loc.s_group()
    out = []
    for a in automorphisms(sg):
        alpha_s = {sg.tokens[i]: sg.tokens[a[i]] for i in range(sg.order)}
        if {frozenset(alpha_s[x] for x in P) for P in pg.objects} \
                != set(pg.object_set):
            continue
        for full in hom_completions(loc, loc, alpha_s):
            if iso_defect(loc, loc, full) is None:
                out.append(full)
    return sorted(set(out))


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
