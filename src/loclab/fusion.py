"""Fusion systems over a finite p-group.

A fusion system on a p-group S is a category whose objects are the
subgroups of S and whose morphisms are injective group homomorphisms
between them, closed under composition, restriction and inverses of
isomorphisms, and containing every map induced by conjugation inside
S.  We build the systems generated by an explicit family of
conjugation maps: the maps c_g of an ambient finite group, or the
maps c_f of a locality.

Representation.  A subgroup of S is a sorted tuple of element indices.
A morphism with domain P is an "embedding tuple": position i holds the
image of sorted(P)[i].  For each subgroup P we store the full set of
embedding tuples reachable from the identity embedding by composing
generator maps; hom sets, isomorphism sets and automorphism groups are
all derived from that table.

Object families.  The objects of a locality or a transporter system are
closed under F-conjugacy and overgroups in S.  `family_closure` and
`family_defect` are the one place that closes a family and decides that
it is closed.  The systems of a group (per prime) and of a locality are
kept on it, so a decision costs no extra build.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

from .groups import (
    FiniteGroup,
    Subgroup,
    TableGroup,
    _kept,
    _p_part,
    automorphisms,
    p_core,
    quotient_group,
    subgroup_lattice,
    sylow_p,
)

Embedding = tuple[int, ...]
SubTuple = tuple[int, ...]


class FusionBuildError(ValueError):
    pass


def _close_embeddings(subgroups: Sequence[SubTuple],
                      generators: Sequence[tuple[frozenset[int], dict[int, int]]],
                      ) -> dict[SubTuple, frozenset[Embedding]]:
    """Orbit of the identity embedding of each subgroup under the generators.

    A generator (dom, cmap) applies to an embedding tuple whenever the
    current image lies inside dom.  The generator family is closed under
    inverses, so the reachable set is closed under inverses as well.
    """
    out: dict[SubTuple, frozenset[Embedding]] = {}
    for P in subgroups:
        start: Embedding = tuple(P)
        seen = {start}
        stack = [start]
        while stack:
            img = stack.pop()
            iset = set(img)
            for dom, cmap in generators:
                if iset <= dom:
                    nxt = tuple(cmap[x] for x in img)
                    if nxt not in seen:
                        seen.add(nxt)
                        stack.append(nxt)
        out[P] = frozenset(seen)
    return out


class FusionSystem:
    """Fusion system over S, stored as embedding tables per subgroup.

    s_members: the elements of S (indices into some ambient space).
    mul, inv: the group operations of S on those indices.
    embeddings: for each subgroup of S (sorted index tuple) the set of
    embedding tuples of morphisms out of it.
    """

    def __init__(self, p: int, s_members: Iterable[int],
                 mul: Callable[[int, int], int], inv: Callable[[int], int],
                 embeddings: dict[SubTuple, frozenset[Embedding]],
                 label_fn: Callable[[int], str] | None = None) -> None:
        self.p = p
        self.s: SubTuple = tuple(sorted(s_members))
        self._mul = mul
        self._inv = inv
        self._label = label_fn or str
        self.identity = next(e for e in self.s if mul(e, e) == e)
        view = TableGroup(self.s, mul, label_fn=self._label)
        # sorted by order, so the first subgroup holding a set is its span
        self.subgroups: list[SubTuple] = [
            tuple(sorted(view.tokens[i] for i in h.members))
            for h in subgroup_lattice(view)]
        self._member_sets = [frozenset(P) for P in self.subgroups]
        if set(embeddings) != set(self.subgroups):
            raise FusionBuildError("embedding table does not cover the subgroups of S")
        self._emb = {P: frozenset(embeddings[P]) for P in self.subgroups}
        self._sub_set = set(self.subgroups)
        self._check_table()

    # ---- construction helpers -------------------------------------------

    def _check_table(self) -> None:
        for P, embs in self._emb.items():
            if tuple(P) not in embs:
                raise FusionBuildError("identity embedding missing for a subgroup")
            for img in embs:
                if len(img) != len(P) or len(set(img)) != len(P):
                    raise FusionBuildError("embedding tuple is not injective")
                target = tuple(sorted(img))
                if target not in self._sub_set:
                    raise FusionBuildError("embedding image is not a subgroup of S")
                back = self._invert(P, img)
                if back not in self._emb[target]:
                    raise FusionBuildError("embedding table is not closed under inverses")

    @staticmethod
    def _invert(P: SubTuple, img: Embedding) -> Embedding:
        back = {y: x for x, y in zip(P, img)}
        return tuple(back[y] for y in sorted(img))

    # ---- basic queries ---------------------------------------------------

    def canon(self, members: Iterable[int]) -> SubTuple:
        t = tuple(sorted(set(members)))
        if t not in self._sub_set:
            raise FusionBuildError(f"{t} is not a subgroup of S")
        return t

    def label_set(self, P: Iterable[int]) -> str:
        return "{" + ", ".join(self._label(x) for x in sorted(P)) + "}"

    def embeddings_of(self, P: Iterable[int]) -> frozenset[Embedding]:
        return self._emb[self.canon(P)]

    def hom_set(self, P: Iterable[int], Q: Iterable[int]) -> tuple[Embedding, ...]:
        """Morphisms P -> Q, as embedding tuples aligned with sorted(P)."""
        Qset = set(self.canon(Q))
        return tuple(sorted(img for img in self.embeddings_of(P) if set(img) <= Qset))

    def isos(self, P: Iterable[int], Q: Iterable[int]) -> tuple[Embedding, ...]:
        Qset = set(self.canon(Q))
        return tuple(sorted(img for img in self.embeddings_of(P) if set(img) == Qset))

    def hom_sets(self) -> dict[tuple[SubTuple, SubTuple], frozenset[Embedding]]:
        """All nonempty hom sets, keyed by (domain, codomain)."""
        out = {}
        for P in self.subgroups:
            for Q in self.subgroups:
                hs = self.hom_set(P, Q)
                if hs:
                    out[(P, Q)] = frozenset(hs)
        return out

    def conjugacy_class(self, P: Iterable[int]) -> list[SubTuple]:
        P = self.canon(P)
        return sorted({tuple(sorted(img)) for img in self._emb[P]},
                      key=lambda t: (len(t), t))

    def classes(self) -> list[list[SubTuple]]:
        seen: set[SubTuple] = set()
        out = []
        for P in self.subgroups:
            if P in seen:
                continue
            cls = self.conjugacy_class(P)
            seen.update(cls)
            out.append(cls)
        return out

    # ---- object families ----------------------------------------------------

    def family_closure(self, seeds: Iterable[Iterable[int]]) -> list[SubTuple]:
        """The least family of subgroups of S that holds the seeds and is
        closed under F-conjugacy and under overgroups in S, in subgroup order.

        It is the set of overgroups of the F-conjugates of the seeds, found
        in one pass: if R contains a conjugate Q of a seed and phi is a
        morphism out of R, then phi(R) contains phi(Q), again a conjugate
        of that seed, so every conjugate and every overgroup of R is in the
        set already.
        """
        conj = {frozenset(Q) for P in seeds for Q in self.conjugacy_class(P)}
        return [R for R, members in zip(self.subgroups, self._member_sets)
                if any(Q <= members for Q in conj)]

    def family_defect(self, family: Iterable[Iterable[int]]
                      ) -> tuple[str, SubTuple, SubTuple] | None:
        """The first way a family of subgroups of S fails to be closed under
        F-conjugacy and overgroups in S, or None when it is closed.

        Conjugates come first: ("conjugate", P, Q) for the first member P,
        in the given order, with a conjugate Q outside the family (Q the
        first in subgroup order).  Then ("overgroup", P, Q) for the first
        non-member Q in subgroup order that contains a member, P the first
        such member in the given order.
        """
        fam = [self.canon(P) for P in family]
        members = set(fam)
        for P in fam:
            for Q in self.conjugacy_class(P):
                if Q not in members:
                    return "conjugate", P, Q
        for Q, qset in zip(self.subgroups, self._member_sets):
            if Q not in members:
                for P in fam:
                    if qset.issuperset(P):
                        return "overgroup", P, Q
        return None

    # ---- subgroup arithmetic inside S ------------------------------------

    def conj_in_s(self, x: int, s: int) -> int:
        return self._mul(self._inv(s), self._mul(x, s))

    def n_s(self, P: Iterable[int]) -> SubTuple:
        P = self.canon(P)
        Pset = set(P)
        return tuple(s for s in self.s
                     if {self.conj_in_s(x, s) for x in P} == Pset)

    def c_s(self, P: Iterable[int]) -> SubTuple:
        P = self.canon(P)
        return tuple(s for s in self.s
                     if all(self.conj_in_s(x, s) == x for x in P))

    def span(self, seed: Iterable[int]) -> SubTuple:
        """Subgroup of S generated by the given elements: the smallest
        subgroup of the lattice that contains them."""
        need = set(seed)
        return next(P for P, members in zip(self.subgroups, self._member_sets)
                    if need <= members)

    # ---- automorphism groups ---------------------------------------------

    def aut_group(self, P: Iterable[int]) -> TableGroup:
        """Aut_F(P) with embedding tuples as tokens; a*b applies a, then b."""
        P = self.canon(P)
        pos = {x: i for i, x in enumerate(P)}
        tokens = sorted(self.isos(P, P))

        def compose(a: Embedding, b: Embedding) -> Embedding:
            return tuple(b[pos[y]] for y in a)

        return TableGroup(tokens, compose,
                          label_fn=lambda t: self.label_set(P) + "->" + str(t))

    def aut_s_tokens(self, P: Iterable[int]) -> tuple[Embedding, ...]:
        """Automorphisms of P induced by conjugation inside S."""
        P = self.canon(P)
        toks = {tuple(self.conj_in_s(x, s) for x in P) for s in self.n_s(P)}
        if not toks <= set(self.isos(P, P)):
            raise FusionBuildError("inner conjugation maps are missing from the system")
        return tuple(sorted(toks))

    def inn_tokens(self, P: Iterable[int]) -> tuple[Embedding, ...]:
        P = self.canon(P)
        return tuple(sorted({tuple(self.conj_in_s(x, g) for x in P) for g in P}))

    # ---- saturation -------------------------------------------------------

    def is_fully_normalized(self, P: Iterable[int]) -> bool:
        P = self.canon(P)
        n = len(self.n_s(P))
        return all(len(self.n_s(Q)) <= n for Q in self.conjugacy_class(P))

    def is_fully_automized(self, P: Iterable[int]) -> bool:
        """Aut_S(P) is a Sylow p-subgroup of Aut_F(P)."""
        P = self.canon(P)
        return len(self.aut_s_tokens(P)) == _p_part(len(self.isos(P, P)), self.p)

    def is_receptive(self, P: Iterable[int]) -> bool:
        """Every isomorphism onto P extends to its natural normalizer domain.

        For phi: Q -> P the domain is N_phi, the set of g in N_S(Q) whose
        conjugation transports through phi into Aut_S(P).
        """
        P = self.canon(P)
        aut_s_p = set(self.aut_s_tokens(P))
        for Q in self.conjugacy_class(P):
            for phi in self.isos(Q, P):
                phi_map = dict(zip(Q, phi))
                inv_phi = {v: k for k, v in phi_map.items()}
                n_phi = [g for g in self.n_s(Q)
                         if tuple(phi_map[self.conj_in_s(inv_phi[y], g)] for y in P)
                         in aut_s_p]
                dom = self.canon(n_phi)
                pos = {x: i for i, x in enumerate(dom)}
                if not any(all(psi[pos[x]] == phi_map[x] for x in Q)
                           for psi in self._emb[dom]):
                    return False
        return True

    def saturation_failures(self) -> list[str]:
        """One line per conjugacy class with no fully automized receptive member."""
        out = []
        for cls in self.classes():
            if not any(self.is_fully_automized(P) and self.is_receptive(P)
                       for P in cls):
                out.append("class of " + self.label_set(cls[0]) +
                           " has no fully automized receptive member")
        return out

    def is_saturated(self) -> bool:
        return not self.saturation_failures()

    # ---- centric / radical / normal collections ---------------------------

    def is_centric(self, P: Iterable[int]) -> bool:
        return all(set(self.c_s(Q)) <= set(Q) for Q in self.conjugacy_class(P))

    def is_radical(self, P: Iterable[int]) -> bool:
        """Out_F(P) has trivial p-core."""
        P = self.canon(P)
        aut = self.aut_group(P)
        inn = Subgroup(aut, tuple(aut.index_of(t) for t in self.inn_tokens(P)))
        outer, _ = quotient_group(aut, inn)
        return p_core(outer, self.p).order == 1

    def centric_subgroups(self) -> list[SubTuple]:
        return [P for P in self.subgroups if self.is_centric(P)]

    def centric_radical_subgroups(self) -> list[SubTuple]:
        return [P for P in self.subgroups
                if self.is_centric(P) and self.is_radical(P)]

    def is_normal_subgroup(self, P: Iterable[int]) -> bool:
        """P is normal in the fusion system: every morphism extends to one
        that maps P onto itself."""
        P = self.canon(P)
        Pset = frozenset(P)
        if set(self.n_s(P)) != set(self.s):
            return False
        if self.conjugacy_class(P) != [P]:
            return False
        for Q in self.subgroups:
            for phi in self._emb[Q]:
                phi_map = dict(zip(Q, phi))
                dom = self.span(Q + P)
                target = set(self.span(tuple(sorted(phi)) + P))
                pos = {x: i for i, x in enumerate(dom)}
                if not any(set(psi) <= target
                           and all(psi[pos[x]] == phi_map[x] for x in Q)
                           and frozenset(psi[pos[x]] for x in P) == Pset
                           for psi in self._emb[dom]):
                    return False
        return True

    def normal_subgroups(self) -> list[SubTuple]:
        return [P for P in self.subgroups if self.is_normal_subgroup(P)]

    def op_core(self) -> SubTuple:
        """The largest subgroup normal in the fusion system."""
        normals = self.normal_subgroups()
        top = max(normals, key=len)
        if any(not set(P) <= set(top) for P in normals):
            raise FusionBuildError("normal subgroups have no greatest element")
        return top

    def is_constrained(self) -> bool:
        return self.is_centric(self.op_core())

    def is_strongly_closed(self, P: Iterable[int]) -> bool:
        """No morphism moves an element of P outside of P."""
        P = self.canon(P)
        Pset = set(P)
        for x in P:
            cx = self.span((x,))
            pos = cx.index(x)
            if any(img[pos] not in Pset for img in self._emb[cx]):
                return False
        return True

    # ---- normalizer subsystem and subcentric subgroups --------------------

    def normalizer_subsystem(self, Q: Iterable[int]) -> "FusionSystem":
        """N_F(Q): the fusion system on N_S(Q) of morphisms that extend to
        morphisms fixing Q as a set."""
        Q = self.canon(Q)
        Qset = frozenset(Q)
        N = self.n_s(Q)
        Nset = set(N)
        emb: dict[SubTuple, frozenset[Embedding]] = {}
        for P, members in zip(self.subgroups, self._member_sets):
            if not members <= Nset:
                continue
            dom = self.span(P + Q)
            pos = {x: i for i, x in enumerate(dom)}
            allowed = set()
            for psi in self._emb[dom]:
                if set(psi) <= Nset and \
                        frozenset(psi[pos[x]] for x in Q) == Qset:
                    allowed.add(tuple(psi[pos[x]] for x in P))
            emb[P] = frozenset(allowed)
        return FusionSystem(self.p, N, self._mul, self._inv, emb,
                            label_fn=self._label)

    def is_subcentric(self, P: Iterable[int]) -> bool:
        """The normalizer subsystem of every fully normalized conjugate of P
        is constrained."""
        cls = self.conjugacy_class(P)
        top = max(len(self.n_s(Q)) for Q in cls)
        return all(self.normalizer_subsystem(Q).is_constrained()
                   for Q in cls if len(self.n_s(Q)) == top)

    def subcentric_subgroups(self) -> list[SubTuple]:
        return [P for P in self.subgroups if self.is_subcentric(P)]

    # ---- center ------------------------------------------------------------

    def center(self) -> SubTuple:
        """Elements fixed by every morphism whose domain contains them."""
        fixed = []
        for z in self.s:
            cz = self.span((z,))
            pos = cz.index(z)
            if all(img[pos] == z for img in self._emb[cz]):
                fixed.append(z)
        return tuple(fixed)

    # ---- automorphisms and induced maps ------------------------------------

    def s_view(self) -> TableGroup:
        return TableGroup(self.s, self._mul, label_fn=self._label)

    def transport(self, P: Iterable[int], img: Embedding,
                  alpha: dict[int, int]) -> tuple[SubTuple, Embedding]:
        """Conjugate the morphism (P, img) by an automorphism alpha of S."""
        P = self.canon(P)
        inv_alpha = {v: k for k, v in alpha.items()}
        phi_map = dict(zip(P, img))
        Pa = tuple(sorted(alpha[x] for x in P))
        return Pa, tuple(alpha[phi_map[inv_alpha[y]]] for y in Pa)

    def preserves_fusion(self, alpha: dict[int, int]) -> bool:
        """alpha in Aut(S) maps each hom set into the corresponding one.

        One direction suffices: transport along alpha is injective, and the
        finitely many embedding sets along the alpha-orbit of a subgroup all
        inject into each other, hence have equal size.
        """
        for P in self.subgroups:
            for img in self._emb[P]:
                Pa, t = self.transport(P, img, alpha)
                if t not in self._emb[Pa]:
                    return False
        return True

    def fusion_automorphisms(self) -> list[dict[int, int]]:
        """Automorphisms of S that preserve the fusion system."""
        view = self.s_view()
        out = []
        for a in automorphisms(view):
            alpha = {view.tokens[i]: view.tokens[a[i]] for i in range(view.order)}
            if self.preserves_fusion(alpha):
                out.append(alpha)
        return out

    def map_defect(self, other: "FusionSystem", beta: dict[int, int]) -> str | None:
        """Why beta: S -> other.S fails to induce a morphism of fusion
        systems; None when it does induce one."""
        if sorted(beta) != list(self.s):
            return "map is not defined on all of S"
        if not set(beta.values()) <= set(other.s):
            return "map leaves the target group"
        for a in self.s:
            for b in self.s:
                if beta[self._mul(a, b)] != other._mul(beta[a], beta[b]):
                    return "map is not a group homomorphism"
        for P in self.subgroups:
            for img in self._emb[P]:
                phi_map = dict(zip(P, img))
                induced: dict[int, int] = {}
                for x in P:
                    key, val = beta[x], beta[phi_map[x]]
                    if induced.setdefault(key, val) != val:
                        return ("morphism from " + self.label_set(P) +
                                " does not descend along the map")
                dom = tuple(sorted(induced))
                t = tuple(induced[y] for y in dom)
                if t not in other._emb[other.canon(dom)]:
                    return ("image of a morphism from " + self.label_set(P) +
                            " is not a morphism of the target system")
        return None

    def epimorphism_defect(self, other: "FusionSystem",
                           beta: dict[int, int]) -> str | None:
        """Why beta fails to induce a surjective morphism of fusion systems.

        Beyond being a morphism, beta must be onto and every hom set between
        subgroups containing the kernel must map onto the target hom set.
        """
        defect = self.map_defect(other, beta)
        if defect is not None:
            return defect
        if set(beta.values()) != set(other.s):
            return "map is not surjective"
        ker = {x for x in self.s if beta[x] == other.identity}
        for P in self.subgroups:
            if not ker <= set(P):
                continue
            for Q in self.subgroups:
                if not ker <= set(Q):
                    continue
                got = set()
                for img in self.hom_set(P, Q):
                    phi_map = dict(zip(P, img))
                    induced = {beta[x]: beta[phi_map[x]] for x in P}
                    dom = tuple(sorted(induced))
                    got.add(tuple(induced[y] for y in dom))
                Pb = other.canon({beta[x] for x in P})
                Qb = other.canon({beta[x] for x in Q})
                missing = set(other.hom_set(Pb, Qb)) - got
                if missing:
                    return ("hom set " + other.label_set(Pb) + " -> " +
                            other.label_set(Qb) + " is not covered")
        return None


# ---- constructors ----------------------------------------------------------


def _dedupe(generators: Iterable[tuple[frozenset[int], dict[int, int]]]
            ) -> list[tuple[frozenset[int], dict[int, int]]]:
    seen = set()
    out = []
    for dom, cmap in generators:
        key = (dom, tuple(sorted(cmap.items())))
        if key not in seen:
            seen.add(key)
            out.append((dom, cmap))
    return out


def generated_fusion(p: int, s: Iterable[int], mul: Callable[[int, int], int],
                     inv: Callable[[int], int],
                     generators: Iterable[tuple[frozenset[int], dict[int, int]]],
                     label_fn: Callable[[int], str] | None = None) -> FusionSystem:
    """The fusion system on S generated by partial conjugation maps.

    Each generator (dom, cmap) is an injective map on the subset dom of S,
    given by cmap; it applies to a subgroup inside dom.  The morphisms out
    of a subgroup P are the composites of generators that start at P.  The
    family must be closed under inverses, as the conjugation maps of a
    group or of a locality are, so that the morphism sets are too.
    """
    s = tuple(sorted(s))
    view = TableGroup(s, mul, label_fn=label_fn)
    subs = [tuple(sorted(view.tokens[i] for i in h.members))
            for h in subgroup_lattice(view)]
    emb = _close_embeddings(subs, _dedupe(generators))
    return FusionSystem(p, s, mul, inv, emb, label_fn=label_fn)


@_kept
def fusion_from_group(group: FiniteGroup, p: int) -> FusionSystem:
    """The fusion system of a finite group on its Sylow p-subgroup
    `sylow_p(group, p)`: morphisms are the conjugation maps c_g between
    subgroups of S.  The system is kept on the group, per p."""
    s = tuple(sorted(sylow_p(group, p).members))
    s_set = set(s)
    gens = []
    for g in group.indices():
        dom = frozenset(x for x in s if group.conj(x, g) in s_set)
        gens.append((dom, {x: group.conj(x, g) for x in dom}))
    return generated_fusion(p, s, group.mul, group.inv, gens, label_fn=group.label)


@_kept
def fusion_from_locality(loc) -> FusionSystem:
    """The fusion system of a locality: generated by the conjugation maps
    c_f on their full domains S_f.  The system is kept on the locality."""
    pg = loc.pg
    rows = pg.rows

    def mul(a: int, b: int) -> int:
        c = rows[a][b]
        if c is None:
            raise FusionBuildError("product undefined inside S")
        return c

    gens = [(frozenset(cmap), dict(cmap)) for cmap in pg.conj_maps]
    return generated_fusion(loc.p, pg.s_members, mul, lambda i: pg.inv[i],
                            gens, label_fn=lambda i: pg.labels[i])


# ---- structural validation ---------------------------------------------------


def validate_fusion_system(F: FusionSystem) -> list[str]:
    """Check the stored tables satisfy the fusion system axioms; returns
    defect strings (empty when clean)."""
    defects = []
    for P in F.subgroups:
        pos = {x: i for i, x in enumerate(P)}
        embs = F._emb[P]
        if tuple(P) not in embs:
            defects.append("missing identity embedding on " + F.label_set(P))
        for s in F.s:
            if all(F.conj_in_s(x, s) in pos for x in P):
                t = tuple(F.conj_in_s(x, s) for x in P)
                if tuple(sorted(t)) == tuple(P) and t not in embs:
                    defects.append("missing inner automorphism on " + F.label_set(P))
                    break
        for img in embs:
            phi = dict(zip(P, img))
            if any(phi[F._mul(x, y)] != F._mul(phi[x], phi[y])
                   for x in P for y in P):
                defects.append("stored map on " + F.label_set(P) +
                               " is not a group homomorphism")
                continue
            target = tuple(sorted(img))
            if F._invert(P, img) not in F._emb[target]:
                defects.append("inverse missing for a morphism on " + F.label_set(P))
            for img2 in F._emb[target]:
                phi2 = dict(zip(target, img2))
                comp = tuple(phi2[y] for y in img)
                if comp not in embs:
                    defects.append("composite missing on " + F.label_set(P))
                    break
        for Q in F.subgroups:
            if set(Q) < set(P):
                qpos = [pos[x] for x in Q]
                for img in embs:
                    rest = tuple(img[i] for i in qpos)
                    if rest not in F._emb[Q]:
                        defects.append("restriction missing from " + F.label_set(P) +
                                       " to " + F.label_set(Q))
                        break
    return defects
