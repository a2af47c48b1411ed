"""Transporter categories over a locality or a finite group, and the
dictionary back to localities.

A system is a finite category with explicit tables: integer morphism
ids, source and target object indices, the composition rows (one row of
composites per later morphism, with None where the two do not meet),
the window functor from the S-transporter category (delta) and the
projection to the associated fusion system (pi).  Equality of morphisms
is structural.  Categories of this kind are conventionally written with
maps acting on the left, so a triple (P, Q, g) sends x to g x g^-1;
the bridge back to the word-based localities, which conjugate on the
right, performs the orientation flip in exactly one place, marked in
_locality_bridge.

A locality keeps its system and the system keeps its bridge, its
automorphisms, its image factorisations, its linking-system verdict, its
outer automorphism data and the verdict on every functor out of it, so
each is built and checked once.  That is sound because a
system is never changed after construction.  The bridge scans no word;
`_build_locality` says where its word-level guarantee comes from.

Each system also keeps a generating set of its morphisms.  Associativity
and the projection's respect for composition (`transporter_defect`) and
functoriality (`functor_defect`) are checked on it, at a cost of about
|generators|·|Mor| lookups instead of one per composable pair or triple.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Sequence

from .extension import (automorphism_group, iso_defect, is_locality_automorphism,
                        locality_automorphisms)
from .fusion import FusionSystem, fusion_from_locality, generated_fusion
from .groups import (FiniteGroup, TableGroup, _p_part, is_characteristic_p,
                     p_core)
from .locality import (ChainPartialGroup, Locality, _UnionFind, canonical_objects,
                       locality_structure_checks, restriction)


class TransporterError(ValueError):
    """A category failed an axiom, or an operation received bad input."""


class TransporterSystem:
    """Finite transporter category with explicit composition tables.

    Fields: the prime p, the group S given by label/mul/inv tables on
    tokens 0..n-1, the object family (frozensets of tokens), the
    associated fusion system on the same tokens, morphism arrays src and
    dst (object indices), g_labels (display names), pi (one conjugation
    dict per morphism), the composition rows comp, and delta keyed by
    (src_idx, dst_idx, token).  `comp[later][earlier]` is the composite
    "earlier, then later", or None when earlier does not end where later
    starts; the rows are a tuple of |Mor| tuples of |Mor| entries, built
    once by the caller and read by every composition loop.  `generators`
    is the greedy generating set of `_generating_set`.  The tables are
    not changed after construction: the memos kept on the system rely on
    that.  The memo of `linking_system_defect` is a 1-tuple, since None
    is a verdict.
    """

    def __init__(self, p: int, s_labels: Sequence[str],
                 s_mul: Sequence[Sequence[int]], s_inv: Sequence[int],
                 objects: Iterable[Iterable[int]], fusion: FusionSystem,
                 src: Sequence[int], dst: Sequence[int],
                 g_labels: Sequence[str],
                 pi: Sequence[dict[int, int]],
                 comp: Sequence[Sequence[int | None]],
                 delta: dict[tuple[int, int, int], int]):
        self.p = p
        self.s_labels = tuple(s_labels)
        self.s_mul = tuple(tuple(row) for row in s_mul)
        self.s_inv = tuple(s_inv)
        self.objects = canonical_objects(objects)
        self.object_set = {P: i for i, P in enumerate(self.objects)}
        self.fusion = fusion
        self.src = tuple(src)
        self.dst = tuple(dst)
        self.g_labels = tuple(g_labels)
        self.pi = tuple(dict(m) for m in pi)
        self.comp = tuple(map(tuple, comp))
        self.delta = dict(delta)
        self._loc_cache = None
        self._auts: tuple[CategoryFunctor, ...] | None = None
        self._image_factors: tuple[tuple[int, int], ...] | None = None
        self._verdicts: dict[tuple, bool] = {}
        self._linking_defect: tuple[str | None] | None = None
        self._out_typ: dict | None = None

        n = len(self.s_labels)
        self.s_identity = next(e for e in range(n)
                               if all(self.s_mul[e][x] == x for x in range(n)))
        self._by_pair: dict[tuple[int, int], list[int]] = {}
        self._leaving: dict[int, list[int]] = {}
        self._arriving: dict[int, list[int]] = {}
        for m in range(len(self.src)):
            self._by_pair.setdefault((self.src[m], self.dst[m]), []).append(m)
            self._leaving.setdefault(self.src[m], []).append(m)
            self._arriving.setdefault(self.dst[m], []).append(m)
        self.incl = {}
        for i in range(len(self.objects)):
            for j in range(len(self.objects)):
                key = (i, j, self.s_identity)
                if key in self.delta:
                    self.incl[(i, j)] = self.delta[key]
        self.identity_ids = {i: self.incl[(i, i)] for i in range(len(self.objects))
                             if (i, i) in self.incl}
        self._inverse: dict[int, int] = {}
        for i, row in enumerate(self.comp):
            back = self.identity_ids.get(self.src[i])
            there = self.identity_ids.get(self.dst[i])
            if back is None or there is None:
                continue
            for j in self._by_pair.get((self.dst[i], self.src[i]), ()):
                if self.comp[j][i] == back and row[j] == there:
                    self._inverse[i] = j
        self.generators = _generating_set(self)
        defect = transporter_defect(self)
        if defect is not None:
            raise TransporterError(defect)

    # -- basic queries ------------------------------------------------------

    @property
    def mor_count(self) -> int:
        return len(self.src)

    def mor(self, p_idx: int, q_idx: int) -> tuple[int, ...]:
        return tuple(self._by_pair.get((p_idx, q_idx), ()))

    def object_index(self, tokens: Iterable[int]) -> int:
        key = frozenset(tokens)
        if key not in self.object_set:
            raise TransporterError(f"{sorted(key)} is not an object")
        return self.object_set[key]

    def object_label(self, idx: int) -> str:
        return "{" + ", ".join(sorted(self.s_labels[t]
                                      for t in self.objects[idx])) + "}"

    def is_iso(self, m: int) -> bool:
        return m in self._inverse

    def inverse(self, m: int) -> int:
        return self._inverse[m]

    def iso_ids(self) -> list[int]:
        return sorted(self._inverse)

    def aut_table(self, p_idx: int) -> TableGroup:
        """Aut_T(P) as a group; mul(a, b) composes a first, then b."""
        ids = self.mor(p_idx, p_idx)
        return TableGroup(ids, lambda a, b: self.comp[b][a],
                          label_fn=lambda m: self.g_labels[m])

    def restrict_mor(self, m: int, p0_idx: int, q0_idx: int) -> int | None:
        """The unique m0: P0 -> Q0 with incl o m0 = m o incl, if any."""
        up = self.comp[m][self.incl[(p0_idx, self.src[m])]]
        if up is None:
            return None
        into = self.comp[self.incl[(q0_idx, self.dst[m])]]
        found = [m0 for m0 in self.mor(p0_idx, q0_idx) if into[m0] == up]
        if len(found) > 1:
            raise TransporterError("internal: restriction is not unique")
        return found[0] if found else None

    def image_factor(self, m: int) -> tuple[int, int]:
        """Factor m over its image object: the iso part and that object."""
        r_tokens = frozenset(self.pi[m][x] for x in self.objects[self.src[m]])
        r_idx = self.object_index(r_tokens)
        part = self.restrict_mor(m, self.src[m], r_idx)
        if part is None:
            raise TransporterError("internal: morphism has no image factor")
        return part, r_idx

    def _image_factor_table(self) -> tuple[tuple[int, int], ...]:
        if self._image_factors is None:
            self._image_factors = tuple(self.image_factor(m)
                                        for m in range(self.mor_count))
        return self._image_factors

    # -- the bridge to localities -------------------------------------------

    def _locality_bridge(self):
        if self._loc_cache is None:
            self._loc_cache = _build_locality(self)
        return self._loc_cache


# ---- axiom checks -------------------------------------------------------


def _pi_tuple(T: TransporterSystem, m: int) -> tuple[int, ...]:
    P = sorted(T.objects[T.src[m]])
    return tuple(T.pi[m][x] for x in P)


def _generating_set(T: TransporterSystem) -> tuple[int, ...]:
    """Each morphism, in id order, that is not yet a composite of the
    ones chosen before it.  Composites are taken in the table as it
    stands, under any bracketing, so the set generates even a table
    that is not associative.  Each morphism joins the closure once and
    is then composed with every morphism already in it, on both sides."""
    comp = T.comp
    reached: set[int] = set()
    leaving: dict[int, list[int]] = {}
    arriving: dict[int, list[int]] = {}
    gens = []

    def reach(m, queue):
        if m is not None and m not in reached:
            reached.add(m)
            leaving.setdefault(T.src[m], []).append(m)
            arriving.setdefault(T.dst[m], []).append(m)
            queue.append(m)

    for m in range(T.mor_count):
        if m in reached:
            continue
        gens.append(m)
        queue: list[int] = []
        reach(m, queue)
        while queue:
            x = queue.pop()
            row_x = comp[x]
            for y in tuple(leaving.get(T.dst[x], ())):
                reach(comp[y][x], queue)
            for y in tuple(arriving.get(T.src[x], ())):
                reach(row_x[y], queue)
    return tuple(gens)


def _associativity_defect(T: TransporterSystem) -> str | None:
    """Light's test: (x∘g)∘y = x∘(g∘y) for every generator g and all
    composable x, y."""
    comp = T.comp
    for g in T.generators:
        before = T._arriving.get(T.src[g], ())
        row_g = comp[g]
        g_before = [row_g[y] for y in before]
        for x in T._leaving.get(T.dst[g], ()):
            row_x = comp[x]
            row_xg = comp[row_x[g]]
            if [row_xg[y] for y in before] != [row_x[gy] for gy in g_before]:
                return "composition is not associative"
    return None


def transporter_defect(T: TransporterSystem) -> str | None:
    """Why the tables fail the transporter category axioms, else None.

    The checks cover: the object family is closed under fusion-system
    conjugacy and overgroups (`FusionSystem.family_defect` on T.fusion);
    the composition table is total on composable pairs, unital and
    associative; delta and pi are functors with the window and projection
    properties; conjugation inside S is reflected by delta and projected
    by pi; the projection is surjective with fibers permuted freely by the
    kernel of pi on the target automorphism group; the image of S is Sylow
    in Aut(S); isomorphisms extend along normalizing overgroups; and every
    morphism is monic and epic.

    Associativity is Light's test on `T.generators` (Clifford–Preston,
    *The Algebraic Theory of Semigroups* I, §1.2).  Call g good when
    (x∘g)∘y = x∘(g∘y) for all composable x, y.  If a and b are good
    and composable, then for all x, y
        (x∘(a∘b))∘y = ((x∘a)∘b)∘y = (x∘a)∘(b∘y)
                    = x∘(a∘(b∘y)) = x∘((a∘b)∘y),
    each step using only that a or b is good.  So the good morphisms are
    closed under composition.  They include the generators, so they are
    every morphism, and the table is associative.  The check is exact at
    every size and costs one lookup pair per generator and composable
    pair around it.

    The projection is checked on generators the same way: pi(g∘x) =
    pi(g)∘pi(x) for each g in `T.generators` and every x with dst(x) =
    src(g).  Every morphism a is a right-nested composite g1∘(g2∘(...∘gk))
    of generators, and by induction on k, with a' = g2∘(...∘gk),
        pi(a∘x) = pi(g1∘(a'∘x)) = pi(g1)∘pi(a'∘x) = pi(g1)∘(pi(a')∘pi(x))
                = (pi(g1)∘pi(a'))∘pi(x) = pi(a)∘pi(x).
    The first step is associativity in T, proved by Light's test just
    before; the second and last use the generator check, the third the
    induction hypothesis, and the fourth regroups maps of sets.
    """
    F = T.fusion
    n_obj = len(T.objects)
    mul, inv, e = T.s_mul, T.s_inv, T.s_identity
    all_s = frozenset(range(len(T.s_labels)))

    if all_s not in T.object_set:
        return "S itself is not an object"
    s_idx = T.object_set[all_s]
    defect = F.family_defect(T.objects)
    if defect is not None:
        kind, P, R = defect
        return (f"object family is not closed: the {kind} {sorted(R)} of "
                f"{sorted(P)} is missing")

    # source/target and composition bookkeeping, row by row; a row whose
    # entries are not all at meeting morphisms is scanned whole, in order
    comp, src, dst = T.comp, T.src, T.dst
    missing = False
    for j, row in enumerate(comp):
        meets = T._arriving.get(src[j], ())
        entries = [(i, row[i]) for i in meets if row[i] is not None]
        missing = missing or len(entries) < len(meets)
        if len(entries) != len(row) - row.count(None):
            entries = [(i, k) for i, k in enumerate(row) if k is not None]
        for i, k in entries:
            if dst[i] != src[j]:
                return "composition table pairs morphisms that do not meet"
            if src[k] != src[i] or dst[k] != dst[j]:
                return "composite has the wrong endpoints"
    if missing:
        return "composition table is missing a composable pair"
    for i in range(T.mor_count):
        ide = T.identity_ids.get(src[i])
        if ide is None or comp[i][ide] != i:
            return "identity morphism fails on the right"
        ide = T.identity_ids.get(dst[i])
        if ide is None or comp[ide][i] != i:
            return "identity morphism fails on the left"
    defect = _associativity_defect(T)
    if defect is not None:
        return defect

    # the window functor delta
    for (p_idx, q_idx, s), m in T.delta.items():
        if T.src[m] != p_idx or T.dst[m] != q_idx:
            return "delta entry has the wrong endpoints"
        P, Q = T.objects[p_idx], T.objects[q_idx]
        if not {mul[mul[s][x]][inv[s]] for x in P} <= Q:
            return "delta entry is not backed by transport inside S"
        want = {x: mul[mul[s][x]][inv[s]] for x in sorted(P)}
        if T.pi[m] != want:
            return (f"projection of a window morphism is not conjugation "
                    f"by {T.s_labels[s]}")
    for p_idx in range(n_obj):
        for q_idx in range(n_obj):
            P, Q = T.objects[p_idx], T.objects[q_idx]
            carried = [s for s in range(len(T.s_labels))
                       if {mul[mul[s][x]][inv[s]] for x in P} <= Q]
            seen = set()
            for s in carried:
                m = T.delta.get((p_idx, q_idx, s))
                if m is None:
                    return (f"delta is missing {T.s_labels[s]} on the pair "
                            f"{T.object_label(p_idx)} -> {T.object_label(q_idx)}")
                if m in seen:
                    return "delta is not injective on a morphism set"
                seen.add(m)
    # delta respects composition whenever the legs line up
    for (p_idx, q_idx, s), m in T.delta.items():
        for (q2, r_idx, t), m2 in T.delta.items():
            if q2 == q_idx:
                big = T.delta.get((p_idx, r_idx, mul[t][s]))
                if big is None or comp[m2][m] != big:
                    return "delta does not respect composition"

    # the projection functor pi
    for m in range(T.mor_count):
        P, Q = T.objects[T.src[m]], T.objects[T.dst[m]]
        img = T.pi[m]
        if set(img) != set(P) or not set(img.values()) <= Q:
            return "projection data does not map the source into the target"
        if len(set(img.values())) != len(P):
            return "projection of a morphism is not injective"
    for g in T.generators:
        row_g, pi_g = comp[g], T.pi[g]
        for x in T._arriving.get(src[g], ()):
            pi_x, pi_gx = T.pi[x], T.pi[row_g[x]]
            for y in T.objects[src[x]]:
                if pi_gx[y] != pi_g[pi_x[y]]:
                    return "projection does not respect composition"
    for p_idx in range(n_obj):
        ker_src = [u for u in T.mor(p_idx, p_idx)
                   if all(T.pi[u][x] == x for x in T.objects[p_idx])]
        for q_idx in range(n_obj):
            ids = T.mor(p_idx, q_idx)
            got = {_pi_tuple(T, m) for m in ids}
            want = set(F.hom_set(T.objects[p_idx], T.objects[q_idx]))
            if got != want:
                return (f"projection is not onto the fusion morphisms "
                        f"{T.object_label(p_idx)} -> {T.object_label(q_idx)}")
            if not ids:
                continue
            fibers: dict[tuple, set[int]] = {}
            for m in ids:
                fibers.setdefault(_pi_tuple(T, m), set()).add(m)
            for m in ids:
                row_m = comp[m]
                orbit = {row_m[u] for u in ker_src}
                if len(orbit) != len(ker_src):
                    return "the source kernel does not act freely"
                if orbit != fibers[_pi_tuple(T, m)]:
                    return "projection fibers are not source-kernel orbits"
            ker_dst = [u for u in T.mor(q_idx, q_idx)
                       if all(T.pi[u][x] == x for x in T.objects[q_idx])]
            for u in ker_dst:
                if u == T.identity_ids[q_idx]:
                    continue
                row_u = comp[u]
                if any(row_u[m] == m for m in ids):
                    return "the target kernel does not act freely"

    # conjugation axiom: morphisms intertwine window elements
    for m in range(T.mor_count):
        p_idx, q_idx = T.src[m], T.dst[m]
        for g in T.objects[p_idx]:
            left = comp[m][T.delta[(p_idx, p_idx, g)]]
            right = comp[T.delta[(q_idx, q_idx, T.pi[m][g])]][m]
            if left != right:
                return "a morphism fails to intertwine window conjugation"

    # Sylow position of the image of S
    if len(all_s) != _p_part(len(T.mor(s_idx, s_idx)), T.p):
        return "the image of S is not Sylow in Aut(S)"

    # extension axiom
    norm = {i: {s for s in range(len(T.s_labels))
                if {mul[mul[s][x]][inv[s]] for x in T.objects[i]} == T.objects[i]}
            for i in range(n_obj)}
    for m in sorted(T._inverse):
        p_idx, q_idx = T.src[m], T.dst[m]
        minv = T.inverse(m)
        for pb in range(n_obj):
            if not (T.objects[p_idx] <= T.objects[pb] and
                    T.objects[pb] <= norm[p_idx]):
                continue
            for qb in range(n_obj):
                if not (T.objects[q_idx] <= T.objects[qb] and
                        T.objects[qb] <= norm[q_idx]):
                    continue
                window = {T.delta[(q_idx, q_idx, h)] for h in T.objects[qb]
                          if (q_idx, q_idx, h) in T.delta}
                ok = all(comp[comp[m][T.delta[(p_idx, p_idx, g)]]][minv] in window
                         for g in T.objects[pb])
                if not ok:
                    continue
                lhs = comp[T.incl[(q_idx, qb)]][m]
                up = T.incl[(p_idx, pb)]
                if not any(comp[mb][up] == lhs for mb in T.mor(pb, qb)):
                    return "an isomorphism fails to extend along overgroups"

    # cancellation: by_right[i] maps each composite k = j∘i back to j, and
    # by_left (one row) maps each k = j∘i back to i
    by_right: list[dict[int, int]] = [{} for _ in range(T.mor_count)]
    for j, row in enumerate(comp):
        by_left: dict[int, int] = {}
        for i in T._arriving.get(src[j], ()):
            k = row[i]
            if by_right[i].setdefault(k, j) != j:
                return "a morphism is not epic"
            if by_left.setdefault(k, i) != i:
                return "a morphism is not monic"
    return None


# ---- builders -----------------------------------------------------------


def _assemble(p, s_labels, s_mul, s_inv, objects, fusion, triples,
              conj_of, mul_g, glabel) -> TransporterSystem:
    """Shared table construction from morphism triples (p_idx, q_idx, g).

    conj_of(g) maps tokens x to the token of g x g^-1; mul_g multiplies
    the underlying carrier elements, with None for a product the carrier
    does not define, which leaves the composite triple missing; glabel
    names them.
    """
    triples = sorted(triples)
    index = {t: i for i, t in enumerate(triples)}
    src = [t[0] for t in triples]
    dst = [t[1] for t in triples]
    g_labels = [glabel(t[2]) for t in triples]
    pi = []
    for p_idx, q_idx, g in triples:
        cmap = conj_of(g)
        pi.append({x: cmap[x] for x in sorted(objects[p_idx])})
    arriving: dict[int, list[int]] = {}
    for i, (_, qi, _) in enumerate(triples):
        arriving.setdefault(qi, []).append(i)
    comp = []
    for j, (qj, rj, gj) in enumerate(triples):
        row: list[int | None] = [None] * len(triples)
        for i in arriving.get(qj, ()):
            k = index.get((triples[i][0], rj, mul_g(gj, triples[i][2])))
            if k is None:
                raise TransporterError("internal: composite triple missing")
            row[i] = k
        comp.append(row)
    token_of_label = {lab: t for t, lab in enumerate(s_labels)}
    delta = {}
    for i, (p_idx, q_idx, g) in enumerate(triples):
        t = token_of_label.get(glabel(g))
        if t is not None:
            delta[(p_idx, q_idx, t)] = i
    return TransporterSystem(p, s_labels, s_mul, s_inv, objects, fusion,
                             src, dst, g_labels, pi, comp, delta)


def transporter_of_locality(loc: Locality) -> TransporterSystem:
    """The category whose morphisms P -> Q are the triples (P, Q, g)
    with g carrying P into Q from the left; kept on the Locality."""
    if loc._transporter is not None:
        return loc._transporter
    pg = loc.pg
    s_sorted = sorted(pg.s_members)
    tok = {x: i for i, x in enumerate(s_sorted)}
    n = len(s_sorted)
    s_labels = [pg.labels[x] for x in s_sorted]
    s_mul = [[tok[pg.rows[a][b]] for b in s_sorted] for a in s_sorted]
    s_inv = [tok[pg.inv[x]] for x in s_sorted]
    objects = canonical_objects([{tok[x] for x in P} for P in loc.objects])
    obj_pg = {i: frozenset(s_sorted[t] for t in P) for i, P in enumerate(objects)}
    gens = [(frozenset(tok[x] for x in cmap), {tok[x]: tok[y] for x, y in cmap.items()})
            for cmap in pg.conj_maps]
    fusion = generated_fusion(loc.p, range(n), lambda a, b: s_mul[a][b],
                              lambda a: s_inv[a], gens,
                              label_fn=lambda t: s_labels[t])
    triples = []
    conj_cache: dict[int, dict[int, int]] = {}
    for p_idx in obj_pg:
        for q_idx in obj_pg:
            for f in loc.transporter_elements(obj_pg[p_idx], obj_pg[q_idx]):
                g = pg.inv[f]
                triples.append((p_idx, q_idx, g))
                if g not in conj_cache:
                    conj_cache[g] = {tok[x]: tok[y]
                                     for x, y in pg.conj_maps[f].items()}

    def mul_g(gj, gi):
        c = pg.rows[pg.inv[gi]][pg.inv[gj]]
        return None if c is None else pg.inv[c]

    loc._transporter = _assemble(loc.p, s_labels, s_mul, s_inv, objects, fusion,
                                 set(triples), lambda g: conj_cache[g], mul_g,
                                 lambda g: pg.labels[g])
    return loc._transporter


def transporter_of_group(group: FiniteGroup, objects: Iterable[Iterable[int]],
                         p: int | None = None) -> TransporterSystem:
    """Transporter category of a finite group on a family of subgroups
    of a fixed Sylow subgroup; morphisms come from the whole group."""
    ambient = [frozenset(P) for P in objects]
    s_amb = max(ambient, key=len)
    if not all(P <= s_amb for P in ambient):
        raise TransporterError("objects must lie in a common largest subgroup")
    if p is None:
        order = len(s_amb)
        p = next(q for q in range(2, order + 1) if order % q == 0)
    if _p_part(len(s_amb), p) != len(s_amb):
        raise TransporterError("the largest object is not a p-group")
    s_sorted = sorted(s_amb)
    tok = {x: i for i, x in enumerate(s_sorted)}
    s_labels = [group.label(x) for x in s_sorted]
    s_mul = [[tok[group.mul(a, b)] for b in s_sorted] for a in s_sorted]
    s_inv = [tok[group.inv(x)] for x in s_sorted]
    obj_tok = canonical_objects([{tok[x] for x in P} for P in ambient])
    obj_amb = {i: frozenset(s_sorted[t] for t in P) for i, P in enumerate(obj_tok)}
    triples = set()
    for p_idx, P in obj_amb.items():
        for q_idx, Q in obj_amb.items():
            for g in group.indices():
                gi = group.inv(g)
                if all(group.conj(x, gi) in Q for x in P):
                    triples.add((p_idx, q_idx, g))

    def conj_of(g):
        gi = group.inv(g)
        return {tok[x]: tok[group.conj(x, gi)] for x in s_sorted
                if group.conj(x, gi) in tok}

    # g^-1 runs over the group with g, so these are all the maps c_g
    fusion = generated_fusion(p, range(len(s_sorted)), lambda a, b: s_mul[a][b],
                              lambda a: s_inv[a],
                              [(frozenset(c), c) for c in map(conj_of, group.indices())],
                              label_fn=lambda t: s_labels[t])
    return _assemble(p, s_labels, s_mul, s_inv, obj_tok, fusion, triples,
                     conj_of, group.mul, group.label)


def full_subcategory(T: TransporterSystem,
                     objects: Iterable[Iterable[int]]) -> TransporterSystem:
    """Restrict to a subfamily of objects; it must remain closed under
    fusion-system conjugacy and overgroups inside S, as
    `FusionSystem.family_defect` decides on T.fusion."""
    keep = {T.object_index(P) for P in objects}
    old_objects = [T.objects[i] for i in sorted(keep)]
    defect = T.fusion.family_defect(old_objects)
    if defect is not None:
        kind, P, R = defect
        raise TransporterError(f"family drops the {kind} {sorted(R)} of {sorted(P)}")
    new_of_old = {i: j for j, i in enumerate(sorted(keep))}
    ids = [m for m in range(T.mor_count)
           if T.src[m] in keep and T.dst[m] in keep]
    new_id = {m: k for k, m in enumerate(ids)}
    sub = TransporterSystem(
        T.p, T.s_labels, T.s_mul, T.s_inv, old_objects, T.fusion,
        [new_of_old[T.src[m]] for m in ids],
        [new_of_old[T.dst[m]] for m in ids],
        [T.g_labels[m] for m in ids],
        [T.pi[m] for m in ids],
        [[None if T.comp[j][i] is None else new_id[T.comp[j][i]] for i in ids]
         for j in ids],
        {(new_of_old[p], new_of_old[q], s): new_id[m]
         for (p, q, s), m in T.delta.items() if m in new_id})
    sub.parent = T
    sub.parent_ids = tuple(ids)
    return sub


def same_category(a: TransporterSystem, b: TransporterSystem) -> bool:
    """Structural comparison through the element and object labels."""
    if sorted(a.s_labels) != sorted(b.s_labels):
        return False
    obj_a = {frozenset(a.s_labels[t] for t in P): i for i, P in enumerate(a.objects)}
    obj_b = {frozenset(b.s_labels[t] for t in P): i for i, P in enumerate(b.objects)}
    if set(obj_a) != set(obj_b):
        return False
    to_b = {obj_a[k]: obj_b[k] for k in obj_a}
    mor_b = {(b.src[m], b.dst[m], b.g_labels[m]): m for m in range(b.mor_count)}
    if b.mor_count != a.mor_count or len(mor_b) != b.mor_count:
        return False
    match = {}
    for m in range(a.mor_count):
        key = (to_b[a.src[m]], to_b[a.dst[m]], a.g_labels[m])
        if key not in mor_b:
            return False
        match[m] = mor_b[key]
    for j, row in enumerate(a.comp):
        row_b = b.comp[match[j]]
        for i, k in enumerate(row):
            if k is not None and row_b[match[i]] != match[k]:
                return False
    lab_b = {lab: t for t, lab in enumerate(b.s_labels)}
    for m in range(a.mor_count):
        for x, y in a.pi[m].items():
            if b.pi[match[m]][lab_b[a.s_labels[x]]] != lab_b[a.s_labels[y]]:
                return False
    return True


# ---- classes of isomorphisms: the locality bridge -------------------------


def _build_locality(T: TransporterSystem):
    """Elements are equivalence classes of category isomorphisms under
    shared restriction; this is the one place where the left-handed
    category data is flipped into right-handed conjugation words.

    Only `locality_structure_checks` run here.  PG1-PG4 at every length
    come from `iso_defect`, exact at every length: the transporter suite's
    `_label_iso` compares the bridge with the validated locality it came
    from, and `iota_map` a subcategory's bridge with its parent's."""
    isos = T.iso_ids()
    uf = _UnionFind(T.mor_count)
    for m in isos:
        p_idx = T.src[m]
        for i, P0 in enumerate(T.objects):
            if P0 <= T.objects[p_idx]:
                q0 = T.object_index(frozenset(T.pi[m][x] for x in P0))
                r = T.restrict_mor(m, i, q0)
                if r is None:
                    raise TransporterError("internal: missing restriction")
                uf.union(m, r)

    members: dict[int, list[int]] = {}
    for m in isos:
        members.setdefault(uf.find(m), []).append(m)
    roots = sorted(members)

    def extends(big, small):
        if not (T.objects[T.src[small]] <= T.objects[T.src[big]] and
                T.objects[T.dst[small]] <= T.objects[T.dst[big]]):
            return False
        return T.restrict_mor(big, T.src[small], T.dst[small]) == small

    max_rep = {}
    for root in roots:
        tops = [m for m in members[root]
                if not any(x != m and extends(x, m) for x in members[root])]
        if len(tops) != 1:
            raise TransporterError("internal: class has no unique top")
        max_rep[root] = tops[0]

    # order classes: S-image classes first so tokens stay readable
    s_idx = T.object_index(frozenset(range(len(T.s_labels))))
    order = sorted(roots, key=lambda r: (T.g_labels[max_rep[r]] not in T.s_labels,
                                         T.g_labels[max_rep[r]]))
    cls_index = {root: i for i, root in enumerate(order)}
    class_of = {m: cls_index[uf.find(m)] for m in isos}
    size = len(order)

    labels = [T.g_labels[max_rep[root]] for root in order]
    if len(set(labels)) != size:
        raise TransporterError("internal: class labels collide")

    inv = [None] * size
    for m in isos:
        c, ci = class_of[m], class_of[T.inverse(m)]
        if inv[c] is None:
            inv[c] = ci
        elif inv[c] != ci:
            raise TransporterError("internal: inversion is not class constant")

    # orientation: comp[j][i] is apply-i-then-j, with underlying
    # left-acting element g_j g_i; the word (a, b) downstairs multiplies
    # to g_a g_b, so the later factor j supplies the left letter
    rows: list[list[int | None]] = [[None] * size for _ in range(size)]
    for j in isos:
        row, row_j = T.comp[j], rows[class_of[j]]
        for i in T._arriving.get(T.src[j], ()):
            if T.is_iso(i):
                k, ci = class_of[row[i]], class_of[i]
                if row_j[ci] is None:
                    row_j[ci] = k
                elif row_j[ci] != k:
                    raise TransporterError("internal: product is not class constant")

    s_class = {}
    for x in range(len(T.s_labels)):
        s_class[x] = class_of[T.delta[(s_idx, s_idx, x)]]
    if len(set(s_class.values())) != len(s_class):
        raise TransporterError("internal: S does not embed in the classes")
    identity = s_class[T.s_identity]

    conj_maps = []
    for root in order:
        m = max_rep[root]
        back = T.pi[T.inverse(m)]
        conj_maps.append({s_class[y]: s_class[back[y]]
                          for y in T.objects[T.dst[m]]})

    objects = [frozenset(s_class[t] for t in P) for P in T.objects]
    pg = ChainPartialGroup(labels, inv, identity, rows, conj_maps,
                           set(s_class.values()), objects)
    loc = Locality(pg, T.p)
    failing = [c for c in locality_structure_checks(loc) if not c.ok]
    if failing:
        raise TransporterError("internal: bridge failed validation: " + "; ".join(
            f"{c.name}: {c.detail}" for c in failing))

    # each class acts on the right as the projection of its inverse
    for m in isos:
        f = class_of[m]
        P = T.objects[T.src[m]]
        fi = inv[f]
        dom = pg.s_f(fi)
        if not {s_class[x] for x in P} <= dom:
            raise TransporterError("internal: source escapes the domain")
        for x in P:
            if pg.conj_maps[fi][s_class[x]] != s_class[T.pi[m][x]]:
                raise TransporterError("internal: conjugation disagrees "
                                       "with the projection")
    for i, P in enumerate(T.objects):
        if len(T.mor(i, i)) != len(loc.n_of(objects[i])):
            raise TransporterError("internal: automorphisms do not match "
                                   "the normalizer")

    # the fusion system downstairs is the one generated by object homs
    generated = generated_fusion(T.p, range(len(T.s_labels)),
                                 lambda a, b: T.s_mul[a][b], lambda a: T.s_inv[a],
                                 [(frozenset(pi), pi) for pi in T.pi],
                                 label_fn=lambda t: T.s_labels[t])
    down = fusion_from_locality(loc)
    token_of_class = {v: k for k, v in s_class.items()}
    lifted = {}
    for P in down.subgroups:
        key = tuple(sorted(token_of_class[x] for x in P))
        out = set()
        for img in down.embeddings_of(P):
            phi = {token_of_class[a]: token_of_class[b] for a, b in zip(P, img)}
            out.add(tuple(phi[d] for d in sorted(phi)))
        lifted[key] = out
    if lifted != {P: set(generated.embeddings_of(P)) for P in generated.subgroups}:
        raise TransporterError("internal: downstairs fusion disagrees with "
                               "the generated system")

    iso_by = {}
    for m in isos:
        key = (T.src[m], T.dst[m], class_of[m])
        if key in iso_by:
            raise TransporterError("internal: duplicate isomorphism in a class")
        iso_by[key] = m
    return loc, class_of, max_rep, s_class, iso_by


def locality_of_transporter(T: TransporterSystem) -> Locality:
    """The locality of classes of category isomorphisms."""
    return T._locality_bridge()[0]


def iota_map(sub: TransporterSystem) -> tuple[Locality, tuple[int, ...]]:
    """For a full subcategory, the class-inclusion map from its locality
    into the restriction of the parent category's locality.

    Returns the restricted target locality and the element map, after
    asserting that the map is an isomorphism of localities restricting
    to the identity on S.
    """
    parent = getattr(sub, "parent", None)
    if parent is None:
        raise TransporterError("the category was not built as a full "
                               "subcategory")
    loc_sub, class_sub, _, s_cls_sub, _ = sub._locality_bridge()
    loc_plus, class_plus, _, s_cls_plus, _ = parent._locality_bridge()
    out: list[int | None] = [None] * loc_sub.size
    for m, c in class_sub.items():
        big = class_plus[sub.parent_ids[m]]
        if out[c] is None:
            out[c] = big
        elif out[c] != big:
            raise TransporterError("internal: class inclusion is not "
                                   "constant")
    keep = [frozenset(s_cls_plus[t] for t in P) for P in sub.objects]
    target = restriction(loc_plus, keep)
    back = {old: new for new, old in enumerate(target.parent_index)}
    for c, big in enumerate(out):
        if big not in back:
            raise TransporterError("internal: a class escapes the "
                                   "restricted locality")
        out[c] = back[big]
    result = tuple(out)
    defect = iso_defect(loc_sub, target, result)
    if defect is not None:
        raise TransporterError("internal: class inclusion is not an "
                               "isomorphism: " + defect)
    for x in range(len(sub.s_labels)):
        if result[s_cls_sub[x]] != back[s_cls_plus[x]]:
            raise TransporterError("internal: class inclusion moves S")
    return target, result


def transporter_classes(T: TransporterSystem) -> dict[int, int]:
    """Map each invertible morphism id to its locality element."""
    return dict(T._locality_bridge()[1])


# ---- functors -------------------------------------------------------------


@dataclass(frozen=True)
class CategoryFunctor:
    """A functor between two transporter categories, stored as an object
    index map and a morphism id map."""

    src: TransporterSystem
    dst: TransporterSystem
    object_map: tuple[int, ...]
    morphism_map: tuple[int, ...]


def functor_defect(alpha: CategoryFunctor) -> str | None:
    """Why the maps are not a functor, else None.

    Every morphism's image must have the image endpoints, and identities
    must go to identities.  Composition is checked on generators only:
    F(g∘x) = F(g)∘F(x) for each g in `src.generators` and every x with
    dst(x) = src(g).  That is exact.  Every morphism a is a right-nested
    composite g1∘(g2∘(...∘gk)) of generators, and by induction on k
        F(a∘x) = F(g1∘(a'∘x)) = F(g1)∘F(a'∘x) = F(g1)∘(F(a')∘F(x))
               = (F(g1)∘F(a'))∘F(x) = F(a)∘F(x),
    where a' = g2∘(...∘gk).  The first step regroups in the source and
    the fourth in the target, so the argument needs both categories
    associative; `transporter_defect` proves that of every system.
    """
    T, U = alpha.src, alpha.dst
    F = alpha.morphism_map
    if len(alpha.object_map) != len(T.objects):
        return "object map has the wrong length"
    if len(F) != T.mor_count:
        return "morphism map has the wrong length"
    for m in range(T.mor_count):
        m2 = F[m]
        if (U.src[m2] != alpha.object_map[T.src[m]] or
                U.dst[m2] != alpha.object_map[T.dst[m]]):
            return "morphism images have the wrong endpoints"
    for i, ide in T.identity_ids.items():
        if F[ide] != U.identity_ids[alpha.object_map[i]]:
            return "identities are not preserved"
    for g in T.generators:
        row_g, image_row = T.comp[g], U.comp[F[g]]
        for x in T._arriving.get(T.src[g], ()):
            if image_row[F[x]] != F[row_g[x]]:
                return "composition is not preserved"
    return None


def classify_functor(alpha: CategoryFunctor) -> dict:
    """Flags: functor, equivalence, window (image of S transported),
    inclusion preservation, and rigidity."""
    T, U = alpha.src, alpha.dst
    flags = {"functor": functor_defect(alpha) is None}
    if not flags["functor"]:
        return {**flags, "equivalence": False, "isotypical": False,
                "inclusion_preserving": False, "rigid": False}
    full_faithful = all(
        len({alpha.morphism_map[m] for m in T.mor(i, j)}) == len(T.mor(i, j))
        and len(T.mor(i, j)) == len(U.mor(alpha.object_map[i], alpha.object_map[j]))
        for i in range(len(T.objects)) for j in range(len(T.objects)))
    hit = set(alpha.object_map)
    ess = all(j in hit or any(U.is_iso(m) for i in hit for m in U.mor(i, j))
              for j in range(len(U.objects)))
    flags["equivalence"] = full_faithful and ess
    iso_typ = True
    for i, P in enumerate(T.objects):
        got = {alpha.morphism_map[T.delta[(i, i, x)]] for x in P}
        want = {U.delta[(alpha.object_map[i], alpha.object_map[i], y)]
                for y in U.objects[alpha.object_map[i]]}
        if got != want:
            iso_typ = False
            break
    flags["isotypical"] = iso_typ
    flags["inclusion_preserving"] = all(
        alpha.morphism_map[m] == U.incl[(alpha.object_map[i], alpha.object_map[j])]
        for (i, j), m in T.incl.items())
    if T.s_labels == U.s_labels:
        st = T.object_index(frozenset(range(len(T.s_labels))))
        su = U.object_index(frozenset(range(len(U.s_labels))))
        flags["rigid"] = all(
            alpha.morphism_map[T.delta[(st, st, x)]] == U.delta[(su, su, x)]
            for x in range(len(T.s_labels)))
    else:
        flags["rigid"] = False
    return flags


def is_transporter_iso(alpha: CategoryFunctor) -> bool:
    """Whether alpha is an isotypical, inclusion-preserving equivalence.
    The verdict is kept on the source system, keyed by the target and
    both maps, so each functor is classified once."""
    key = (alpha.dst, tuple(alpha.object_map), tuple(alpha.morphism_map))
    verdict = alpha.src._verdicts.get(key)
    if verdict is None:
        flags = classify_functor(alpha)
        verdict = alpha.src._verdicts[key] = (
            flags["functor"] and flags["equivalence"] and
            flags["isotypical"] and flags["inclusion_preserving"])
    return verdict


def identity_functor(T: TransporterSystem) -> CategoryFunctor:
    return CategoryFunctor(T, T, tuple(range(len(T.objects))),
                           tuple(range(T.mor_count)))


def compose_functors(outer: CategoryFunctor,
                     inner: CategoryFunctor) -> CategoryFunctor:
    if inner.dst is not outer.src:
        raise TransporterError("functors do not meet")
    return CategoryFunctor(
        inner.src, outer.dst,
        tuple(map(outer.object_map.__getitem__, inner.object_map)),
        tuple(map(outer.morphism_map.__getitem__, inner.morphism_map)))


def invert_functor(alpha: CategoryFunctor) -> CategoryFunctor:
    obj = [0] * len(alpha.dst.objects)
    for i, j in enumerate(alpha.object_map):
        obj[j] = i
    mor = [0] * alpha.dst.mor_count
    for m, m2 in enumerate(alpha.morphism_map):
        mor[m2] = m
    return CategoryFunctor(alpha.dst, alpha.src, tuple(obj), tuple(mor))


def conjugation_functor(T: TransporterSystem, gamma: int) -> CategoryFunctor:
    """The inner automorphism of the category induced by an element of
    Aut(S): conjugate every morphism by the suitable restrictions."""
    s_idx = T.object_index(frozenset(range(len(T.s_labels))))
    if T.src[gamma] != s_idx or T.dst[gamma] != s_idx or not T.is_iso(gamma):
        raise TransporterError("conjugation needs an automorphism of S")
    obj_map = []
    for P in T.objects:
        obj_map.append(T.object_index(frozenset(T.pi[gamma][x] for x in P)))
    legs = [T.restrict_mor(gamma, i, obj_map[i]) for i in range(len(T.objects))]
    comp = T.comp
    into = [comp[leg] for leg in legs]
    back = [T.inverse(leg) for leg in legs]
    mor_map = [comp[into[T.dst[m]][m]][back[T.src[m]]] for m in range(T.mor_count)]
    alpha = CategoryFunctor(T, T, tuple(obj_map), tuple(mor_map))
    if not is_transporter_iso(alpha):
        raise TransporterError("internal: conjugation functor is not an "
                               "isomorphism")
    return alpha


def lambda_map(alpha: CategoryFunctor) -> tuple[int, ...]:
    """Transport a category isomorphism to a map of the two localities:
    the class of a morphism goes to the class of its image.

    The map is certified as an isomorphism.  For a self-map of one system
    that is membership in the automorphisms certified by the memoised
    search of the bridge locality (`is_locality_automorphism`), one
    lookup; between two systems it is `iso_defect`.  Either way the
    image of S and the object correspondence are checked after."""
    if not is_transporter_iso(alpha):
        raise TransporterError("the functor is not an isomorphism of "
                               "transporter categories")
    loc_s, class_s, _, _, _ = alpha.src._locality_bridge()
    loc_d, class_d, _, _, _ = alpha.dst._locality_bridge()
    out = [None] * loc_s.size
    for m, c in class_s.items():
        img = class_d[alpha.morphism_map[m]]
        if out[c] is None:
            out[c] = img
        elif out[c] != img:
            raise TransporterError("internal: transported map is not "
                                   "class constant")
    result = tuple(out)
    if alpha.src is alpha.dst:
        if not is_locality_automorphism(loc_s, result):
            raise TransporterError("internal: transported map is not an "
                                   "automorphism of the locality")
    else:
        defect = iso_defect(loc_s, loc_d, result)
        if defect is not None:
            raise TransporterError("internal: transported map is not an "
                                   "isomorphism: " + defect)
    # on classes of S the map is induced by a group isomorphism S -> S~,
    # and each object family member lands on the matching object, so any
    # family of subgroups corresponds across the two sides
    _, _, _, s_cls_s, _ = alpha.src._locality_bridge()
    _, _, _, s_cls_d, _ = alpha.dst._locality_bridge()
    if ({result[c] for c in s_cls_s.values()} != set(s_cls_d.values())):
        raise TransporterError("internal: the image of S is not S")
    for i, P in enumerate(alpha.src.objects):
        down = {result[s_cls_s[x]] for x in P}
        target = {s_cls_d[y]
                  for y in alpha.dst.objects[alpha.object_map[i]]}
        if down != target:
            raise TransporterError("internal: an object does not correspond "
                                   "across the transported map")
    return result


def _lift_locality_aut(T: TransporterSystem,
                       sigma: Sequence[int]) -> CategoryFunctor:
    """The self-map of T that an automorphism sigma of its bridge
    locality induces: each morphism, factored over its image object, goes
    to the inclusion after the witness of the transported class.  The
    maps are not classified here; `aut_transporter` certifies them."""
    _, class_of, _, s_class, iso_by = T._locality_bridge()
    token_back = {v: k for k, v in s_class.items()}
    obj_map = []
    for P in T.objects:
        tokens = frozenset(sigma[s_class[t]] for t in P)
        obj_map.append(T.object_index(frozenset(token_back[c] for c in tokens)))
    mor_map = []
    for m, (part, r_idx) in enumerate(T._image_factor_table()):
        c2 = sigma[class_of[part]]
        key = (obj_map[T.src[m]], obj_map[r_idx], c2)
        if key not in iso_by:
            raise TransporterError("internal: transported class has no "
                                   "witness morphism")
        lifted = iso_by[key]
        mor_map.append(T.comp[T.incl[(obj_map[r_idx], obj_map[T.dst[m]])]][lifted])
    return CategoryFunctor(T, T, tuple(obj_map), tuple(mor_map))


def aut_transporter(T: TransporterSystem) -> list[CategoryFunctor]:
    """All isotypical inclusion-preserving self-equivalences, obtained
    by lifting the automorphisms of the associated locality.

    Only the lifts of the generators of `automorphism_group` are
    classified.  Composites of isotypical, inclusion-preserving
    equivalences are again such equivalences, and so is the identity, so
    every member of the closure of the certified generator lifts under
    `compose_functors` is one.  The lifted set must equal that closure,
    as a set of morphism maps, and each member of the closure is recorded
    as a True verdict of `is_transporter_iso`, so that no later check
    classifies it again.

    On systems of at most 3 objects and 200 morphisms the list is
    cross-checked against `_enumerate_functors_directly`, which never
    reads the lifted list.  The list is kept on T, as are the verdict of
    `is_transporter_iso` on each functor and the image factorisation of
    each morphism; T is not changed after construction, so these stay
    valid.  Each call hands out a fresh copy of the list."""
    if T._auts is None:
        loc, _, _, _, _ = T._locality_bridge()
        lifts = {sigma: _lift_locality_aut(T, sigma)
                 for sigma in locality_automorphisms(loc)}
        out = list(lifts.values())
        if len({a.morphism_map for a in out}) != len(out):
            raise TransporterError("internal: lifted automorphisms collide")
        group = automorphism_group(loc)
        gens = [lifts[group.tokens[g]] for g in group.generators]
        if not all(is_transporter_iso(alpha) for alpha in gens):
            raise TransporterError("internal: lifted functor is not an "
                                   "isomorphism")
        closure = _functor_closure(T, gens)
        if {a.morphism_map for a in closure} != {a.morphism_map for a in out}:
            raise TransporterError("internal: the lifted automorphisms are not "
                                   "the closure of the certified generator lifts")
        for alpha in closure:
            T._verdicts[(T, alpha.object_map, alpha.morphism_map)] = True
        if len(T.objects) <= 3 and T.mor_count <= 200:
            direct = _enumerate_functors_directly(T)
            if ({a.morphism_map for a in direct} != {a.morphism_map for a in out}):
                raise TransporterError("internal: direct enumeration disagrees "
                                       "with the lifted automorphisms")
        T._auts = tuple(sorted(out, key=lambda a: a.morphism_map))
    return list(T._auts)


def _functor_closure(T: TransporterSystem,
                     gens: Sequence[CategoryFunctor]) -> list[CategoryFunctor]:
    """The identity of T and every composite of the self-functors gens,
    breadth first; each morphism map once."""
    found = [identity_functor(T)]
    seen = {found[0].morphism_map}
    for alpha in found:  # grows while it is walked
        for g in gens:
            beta = compose_functors(g, alpha)
            if beta.morphism_map not in seen:
                seen.add(beta.morphism_map)
                found.append(beta)
    return found


def _enumerate_functors_directly(T: TransporterSystem) -> list[CategoryFunctor]:
    """The isotypical, inclusion-preserving self-equivalences of T, by a
    search over a stabilizer chain, without the locality (Butler, LNCS
    559, 1991; Leon, J. Symbolic Comput. 12, 1991).

    These functors form a group G under composition, and each is
    determined by its object map β and its images of `T.generators`:
    inclusions go to the inclusions between the image objects, and every
    other morphism is a composite of generators.  Let G_1 be the members
    with β the identity and G_{i+1} those of G_i that also fix the i-th
    generator that is not an inclusion.  The last of these is {1}.  Level
    0 tries every β that matches the object profiles and has an image
    for every inclusion; level i ≥ 1 pins β and the earlier generators to
    the identity and tries every image of the i-th generator with its
    endpoints and its iso-ness.  Every member of G_i sends that generator
    to such a candidate, as G is closed under inverses.  A depth first
    search over the remaining morphisms keeps one completion per
    candidate that passes `is_transporter_iso`, and none if none does,
    so the kept completions form a transversal T_i of G_{i+1} in G_i:
    two members x, y of G_i agree on the pinned object map or generator
    exactly when x⁻¹∘y lies in G_{i+1}.  Hence G = T_0∘T_1∘…∘T_k, with ∘
    as in `compose_functors` (the right factor acts first), and the
    product must give ∏|T_i| distinct maps.  An assignment forces the
    composites and quotients it implies, and a search undoes its own
    assignments from a trail.

    The cap of 3 objects and 200 morphisms stays.  Without it the search
    takes 0.03 s on s4 `Lplus` and 0.3 s on S6 `L`, but 18 s on A6
    `Lplus` (5 objects, 324 morphisms), where 16 of the 24 object maps
    that pass the filters have no completion and each takes about 0.75 s
    to exhaust, and 54 s on d8 (10 objects), whose 10! object maps are
    filtered one by one.
    """
    if len(T.objects) > 3 or T.mor_count > 200:
        raise TransporterError("direct enumeration is capped at 3 objects "
                               "and 200 morphisms")
    n_obj, n_mor = len(T.objects), T.mor_count
    comp = T.comp
    # rdiv[i][k] = j and ldiv[j][k] = i for each composite k = j∘i
    rdiv: list[dict[int, int]] = [{} for _ in range(n_mor)]
    ldiv: list[dict[int, int]] = [{} for _ in range(n_mor)]
    right_partners: list[list[tuple[int, int]]] = [[] for _ in range(n_mor)]
    left_partners: list[list[tuple[int, int]]] = [[] for _ in range(n_mor)]
    for j, row in enumerate(comp):
        for i in T._arriving.get(T.src[j], ()):
            k = row[i]
            rdiv[i][k] = j
            ldiv[j][k] = i
            right_partners[i].append((j, k))
            left_partners[j].append((i, k))

    src, dst = T.src, T.dst
    beta = list(range(n_obj))
    assign = [-1] * n_mor
    taken = [False] * n_mor
    trail: list[int] = []

    def force(m, v, queue):
        if src[v] != beta[src[m]] or dst[v] != beta[dst[m]]:
            return False
        if assign[m] >= 0:
            return assign[m] == v
        if taken[v]:
            return False
        assign[m] = v
        taken[v] = True
        trail.append(m)
        queue.append(m)
        return True

    def pin(m, v):
        """Assign m -> v and everything it forces; False on a conflict."""
        queue: list[int] = []
        if not force(m, v, queue):
            return False
        while queue:
            x = queue.pop()
            fx = assign[x]
            row_fx, right_fx, left_fx = comp[fx], rdiv[fx], ldiv[fx]
            for (j, k) in right_partners[x]:
                if assign[j] >= 0:
                    c = comp[assign[j]][fx]
                    if c is None or not force(k, c, queue):
                        return False
                elif assign[k] >= 0:
                    j2 = right_fx.get(assign[k])
                    if j2 is None or not force(j, j2, queue):
                        return False
            for (i, k) in left_partners[x]:
                if assign[i] >= 0:
                    c = row_fx[assign[i]]
                    if c is None or not force(k, c, queue):
                        return False
                elif assign[k] >= 0:
                    i2 = left_fx.get(assign[k])
                    if i2 is None or not force(i, i2, queue):
                        return False
        return True

    def undo(mark):
        while len(trail) > mark:
            m = trail.pop()
            taken[assign[m]] = False
            assign[m] = -1

    def complete(start):
        """One completion that is a transporter isomorphism, or None."""
        m = next((x for x in range(start, n_mor) if assign[x] < 0), None)
        if m is None:
            alpha = CategoryFunctor(T, T, tuple(beta), tuple(assign))
            return alpha if is_transporter_iso(alpha) else None
        iso = T.is_iso(m)
        for v in T.mor(beta[src[m]], beta[dst[m]]):
            if taken[v] or T.is_iso(v) != iso:
                continue
            mark = len(trail)
            found = complete(m + 1) if pin(m, v) else None
            undo(mark)
            if found is not None:
                return found
        return None

    def representative(pins):
        """A completion of the current pins plus `pins`, or None."""
        mark = len(trail)
        found = complete(0) if all(pin(m, v) for m, v in pins) else None
        undo(mark)
        return found

    profile = [(len(T.objects[i]),
                tuple(sorted(len(T.mor(i, j)) for j in range(n_obj))),
                tuple(sorted(len(T.mor(j, i)) for j in range(n_obj))))
               for i in range(n_obj)]
    transversals = []
    level = []
    for perm in itertools.permutations(range(n_obj)):
        if any(profile[i] != profile[perm[i]] for i in range(n_obj)):
            continue
        if any((perm[i], perm[j]) not in T.incl for i, j in T.incl):
            continue
        beta[:] = perm
        found = representative([(m, T.incl[(perm[i], perm[j])])
                                for (i, j), m in T.incl.items()])
        if found is not None:
            level.append(found)
    transversals.append(level)

    # levels i >= 1 pin onto the identity on objects and inclusions,
    # then on each earlier generator, for good
    beta[:] = range(n_obj)
    inclusions = set(T.incl.values())
    for m in sorted(inclusions):
        if not pin(m, m):
            raise TransporterError("internal: the identity fails on an "
                                   "inclusion")
    for g in T.generators:
        if g in inclusions:
            continue
        level = []
        for v in T.mor(T.src[g], T.dst[g]):
            if T.is_iso(v) == T.is_iso(g):
                found = representative([(g, v)])
                if found is not None:
                    level.append(found)
        transversals.append(level)
        if not pin(g, g):
            raise TransporterError("internal: the identity fails on a "
                                   "generator")

    group = [identity_functor(T)]
    for level in reversed(transversals):
        group = [compose_functors(t, h) for t in level for h in group]
    maps = {a.morphism_map: a for a in group}
    if len(maps) != len(group):
        raise TransporterError("internal: the transversal product repeats "
                               "a functor")
    return [maps[k] for k in sorted(maps)]


def inner_auts(T: TransporterSystem) -> list[CategoryFunctor]:
    """The automorphisms induced by conjugation with Aut(S) elements."""
    s_idx = T.object_index(frozenset(range(len(T.s_labels))))
    seen = {}
    for gamma in T.mor(s_idx, s_idx):
        alpha = conjugation_functor(T, gamma)
        seen.setdefault(alpha.morphism_map, alpha)
    return [seen[k] for k in sorted(seen)]


# ---- linking systems ------------------------------------------------------


def linking_system_defect(T: TransporterSystem) -> str | None:
    """Why T is not a linking system, else None; kept on T."""
    if T._linking_defect is None:
        T._linking_defect = (_linking_system_defect(T),)
    return T._linking_defect[0]


def _linking_system_defect(T: TransporterSystem) -> str | None:
    if not T.fusion.is_saturated():
        return "the fusion system is not saturated"
    for P in T.fusion.centric_radical_subgroups():
        if frozenset(P) not in T.object_set:
            return f"centric radical subgroup {sorted(P)} is not an object"
    for i in range(len(T.objects)):
        if not is_characteristic_p(T.aut_table(i), T.p):
            return (f"automorphism group of {T.object_label(i)} is not of "
                    f"characteristic {T.p}")
    return None


def is_linking_system(T: TransporterSystem) -> bool:
    return linking_system_defect(T) is None


def linking_system_report(T: TransporterSystem) -> dict:
    """Structure facts that hold in every linking system: the kernel on
    Aut(S) is the window image of the center of S; window images detect
    exactly the centric radical objects via the p-core; and every
    morphism is a bounded composite of restrictions of object
    automorphisms at fully normalized centric radical objects."""
    defect = linking_system_defect(T)
    if defect is not None:
        raise TransporterError(defect)
    F = T.fusion
    s_idx = T.object_index(frozenset(range(len(T.s_labels))))
    mul = T.s_mul
    z_s = {z for z in range(len(T.s_labels))
           if all(mul[z][x] == mul[x][z] for x in range(len(T.s_labels)))}
    ker = {m for m in T.mor(s_idx, s_idx)
           if all(T.pi[m][x] == x for x in range(len(T.s_labels)))}
    kernel_is_center = ker == {T.delta[(s_idx, s_idx, z)] for z in z_s}

    crs = {frozenset(P) for P in F.centric_radical_subgroups()}
    radical_flags = []
    for i, P in enumerate(T.objects):
        table = T.aut_table(i)
        core = {table.tokens[x] for x in p_core(table, T.p).members}
        window = {T.delta[(i, i, x)] for x in P}
        radical_flags.append((core == window) == (P in crs))
    radical_objects_match = all(radical_flags)

    full_norm = set()
    for P in crs:
        cls = F.conjugacy_class(P)
        best = max(len(F.n_s(Q)) for Q in cls)
        if len(F.n_s(P)) == best:
            full_norm.add(P)
    gens = set()
    for i, P in enumerate(T.objects):
        if P not in full_norm:
            continue
        for chi in T.mor(i, i):
            for a, P0 in enumerate(T.objects):
                if not P0 <= P:
                    continue
                img = frozenset(T.pi[chi][x] for x in P0)
                for b, Q0 in enumerate(T.objects):
                    if img <= Q0 and Q0 <= P:
                        r = T.restrict_mor(chi, a, b)
                        if r is not None:
                            gens.add(r)
    reach = set(gens)
    depth = {m: 1 for m in gens}
    frontier = set(gens)
    for step in (2, 3, 4):
        new = set()
        for m in frontier:
            for g in gens:
                if T.dst[g] == T.src[m]:
                    c = T.comp[m][g]
                    if c not in reach:
                        reach.add(c)
                        depth[c] = step
                        new.add(c)
        frontier = new
        if not frontier:
            break
    alperin_depth = (max(depth[m] for m in range(T.mor_count))
                     if reach >= set(range(T.mor_count)) else None)
    return {
        "kernel_is_center": kernel_is_center,
        "radical_objects_match": radical_objects_match,
        "alperin_depth": alperin_depth,
        "ok": kernel_is_center and radical_objects_match
              and alperin_depth is not None,
    }


def out_typ(T: TransporterSystem) -> dict:
    """Outer automorphism data: the full automorphism list modulo the
    inner ones, with the exactness facts asserted along the way.  Kept
    on T; each call hands out a fresh dict."""
    if T._out_typ is None:
        T._out_typ = _out_typ(T)
    return dict(T._out_typ)


def _out_typ(T: TransporterSystem) -> dict:
    defect = linking_system_defect(T)
    if defect is not None:
        raise TransporterError(defect)
    auts = aut_transporter(T)
    inner = inner_auts(T)
    inner_maps = {a.morphism_map for a in inner}
    if not inner_maps <= {a.morphism_map for a in auts}:
        raise TransporterError("internal: an inner automorphism is missing "
                               "from the full list")
    s_idx = T.object_index(frozenset(range(len(T.s_labels))))
    ident = identity_functor(T).morphism_map
    z_f = frozenset(T.fusion.center())
    kernel = {gamma for gamma in T.mor(s_idx, s_idx)
              if conjugation_functor(T, gamma).morphism_map == ident}
    if kernel != {T.delta[(s_idx, s_idx, z)] for z in z_f}:
        raise TransporterError("internal: the kernel of conjugation is not "
                               "the window image of the fusion center")
    classes: list[list[int]] = []
    rep_inverses: list[CategoryFunctor] = []
    for idx, a in enumerate(auts):
        for c, r in enumerate(rep_inverses):
            if compose_functors(a, r).morphism_map in inner_maps:
                classes[c].append(idx)
                break
        else:
            rep_inverses.append(invert_functor(a))
            classes.append([idx])
    n_aut_s = len(T.mor(s_idx, s_idx))
    if len(classes) * n_aut_s != len(auts) * len(z_f):
        raise TransporterError("internal: class count breaks the exact "
                               "sequence arithmetic")
    return {
        "aut_order": len(auts),
        "inner_order": len(inner),
        "out_order": len(classes),
        "classes": tuple(tuple(c) for c in classes),
    }
