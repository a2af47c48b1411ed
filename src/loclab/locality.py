"""Localities: partial groups whose domain is steered by a family of objects.

A locality is a triple (L, Delta, S) where L is a partial group, S is a
maximal p-subgroup, and Delta is a collection of subgroups of S, closed
under L-conjugation inside S and under passing to overgroups in S, such
that a word lies in the domain of the product exactly when it can be
threaded through Delta: there are objects P_0, ..., P_n with
P_{i-1}^{f_i} = P_i for every letter f_i of the word.

The standard source of examples is a finite group M with Sylow p-subgroup
S and a suitable family Gamma: the subset

    L_Gamma(M) = {g in M : S meet S^g in Gamma}

inherits a partial product from M (defined on the Gamma-threaded words)
and `locality_from_group` builds exactly this.

A partial group keeps its products of pairs as one row table,
`ChainPartialGroup.rows`: row a holds the product of a with each b, or
None where the pair is undefined.  Each builder (`locality_from_group`,
`sub_locality`, `normal.quotient`, the transporter bridge) fills the
rows once, and every loop over products reads them by index.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .fusion import FusionSystem, fusion_from_group, fusion_from_locality
from .groups import (
    FiniteGroup,
    GroupBuildError,
    Subgroup,
    TableGroup,
    _kept,
    _p_part,
    is_p_group,
    subgroup_closure,
    subgroup_lattice,
    sylow_p,
)
from .partial import (
    MAX_FAILURES,
    CheckFailure,
    UndefinedProductError,
    ValidationReport,
    Word,
    subgroup_table_group,
)


class LocalityBuildError(ValueError):
    """The supplied data does not assemble into a locality."""


def canonical_objects(objects: Iterable[Iterable[int]]) -> tuple[frozenset[int], ...]:
    """Deduplicate and sort an object family (by order, then members)."""
    objs = {frozenset(o) for o in objects}
    return tuple(sorted(objs, key=lambda P: (len(P), tuple(sorted(P)))))


class ChainPartialGroup:
    """Partial group with domain given by conjugation chains through objects.

    Elements are indices 0..n-1.  The data is: the product rows, one
    conjugation map per element f (a dict on S_f = {x in S : x^f in S}),
    the members of S and the object family.  `rows[a][b]` is the product
    of the pair (a, b), or None where the pair is not in the domain; the
    rows are a tuple of n tuples of n entries, built once by the caller
    and read by every product loop.  A word w = (f_1, ..., f_n) is in the
    domain when S_w, the set of x in S whose successive images under the
    maps stay in S throughout, is itself an object.

    Domain queries walk a finite automaton (Epstein et al., *Word
    Processing in Groups*, 1992).  A state is the partial map
    x -> x^{f_1 ... f_i} on the x in S whose images stayed in S so far,
    stored as a frozenset of (x, image) pairs; state 0 is the identity on
    S.  Its domain is S_w, and the state is accepting when S_w is an
    object.  Reading the letter f keeps the pairs whose image lies in S_f
    and moves the image by the map of f, so the next state depends only
    on the previous state and the letter.  States are partial maps between
    finite sets, so there are finitely many; a breadth-first search from
    state 0 over every letter reaches all of them, and a walk through the
    table gives S_w exactly, for words of every length.

    The table (one row of next-state ids per state, one entry per element,
    plus S_w and the accepting bit) is built on the first domain query and
    kept by this instance only; nothing in it is shared with other
    instances.

    One check stays independent of the table so that it can catch a fault
    in it: `chain_product_walk` walks the product of the table with the
    subset construction of the chain automaton, which threads objects
    through the conjugation maps and never reads the table, and so compares
    the two definitions of the domain at every length.
    """

    def __init__(self, labels: Sequence[str], inv: Sequence[int], identity: int,
                 rows: Sequence[Sequence[int | None]],
                 conj_maps: Sequence[dict[int, int]],
                 s_members: Iterable[int],
                 objects: Iterable[Iterable[int]]):
        self.labels = tuple(labels)
        self.size = len(self.labels)
        self.inv = tuple(inv)
        self.identity = identity
        self.rows = tuple(map(tuple, rows))
        self.conj_maps = tuple(dict(m) for m in conj_maps)
        self.s_members = frozenset(s_members)
        self.objects = canonical_objects(objects)
        self.object_set = set(self.objects)
        self._sf = tuple(frozenset(m) for m in self.conj_maps)
        # the domain automaton, filled in by _build_table
        self._next: list[tuple[int, ...]] = []
        self._state_s: list[frozenset[int]] = []
        self._accepts: list[bool] = []
        self.is_full_domain = self._prove_full_domain()
        if self.is_full_domain and any(None in row for row in self.rows):
            raise LocalityBuildError("domain proof contradicts the pair table")

    # -- the domain ---------------------------------------------------------

    def s_f(self, f: int) -> frozenset[int]:
        return self._sf[f]

    def _build_table(self) -> list[tuple[int, ...]]:
        """Intern every state reachable from the identity on S, breadth
        first, and return the next-state rows."""
        start = frozenset((x, x) for x in self.s_members)
        ids = {start: 0}
        states = [start]
        rows = []
        for state in states:  # grows while it is walked: the BFS queue
            row = []
            for conj in self.conj_maps:
                nxt = frozenset((x, conj[img]) for x, img in state if img in conj)
                sid = ids.get(nxt)
                if sid is None:
                    sid = ids[nxt] = len(states)
                    states.append(nxt)
                row.append(sid)
            rows.append(tuple(row))
        self._state_s = [frozenset(x for x, _ in st) for st in states]
        self._accepts = [s_w in self.object_set for s_w in self._state_s]
        self._next = rows
        return rows

    def s_of_word(self, w: Word) -> frozenset[int]:
        """S_w = {x in S : all successive conjugates along w stay in S}."""
        rows = self._next or self._build_table()
        state = 0
        for f in w:
            state = rows[state][f]
        return self._state_s[state]

    def word_in_domain(self, w: Word) -> bool:
        rows = self._next or self._build_table()
        state = 0
        for f in w:
            state = rows[state][f]
        return self._accepts[state]

    def pair(self, i: int, j: int) -> int | None:
        return self.rows[i][j]

    # -- products ---------------------------------------------------------------

    def product(self, w: Word) -> int:
        """Pi(w).  Left-folds along the word; PG3 makes the folding sound."""
        if not self.word_in_domain(w):
            raise UndefinedProductError(w)
        return self.fold(w)

    def fold(self, w: Word) -> int:
        if not w:
            return self.identity
        rows = self.rows
        acc = w[0]
        for f in w[1:]:
            acc = rows[acc][f]
            if acc is None:
                raise UndefinedProductError(w, "fold step left the pair domain")
        return acc

    def conj(self, x: int, g: int) -> int | None:
        """x^g = Pi(g^-1, x, g) when defined, else None."""
        w = (self.inv[g], x, g)
        if not self.word_in_domain(w):
            return None
        return self.fold(w)

    def label_word(self, w: Word) -> str:
        return "(" + ", ".join(self.labels[x] for x in w) + ")"

    def index_of(self, label: str) -> int:
        for i, lab in enumerate(self.labels):
            if lab == label:
                return i
        raise KeyError(label)

    # -- full-domain certificate ---------------------------------------------

    def _prove_full_domain(self) -> bool:
        """If K = meet of all S_f is an object fixed by every conjugation
        map, then (K, K, ..., K) threads every word, so D is all of W(L)."""
        if not self.size:
            return False
        k = set(self.s_members)
        for dom in self._sf:
            k &= dom
        kf = frozenset(k)
        if kf not in self.object_set:
            return False
        for conj in self.conj_maps:
            if {conj[x] for x in kf} != k:
                return False
        return True


@dataclass(frozen=True)
class DomainWitness:
    """Outcome of a domain test on one word, with the threading chain."""
    word: Word
    in_domain: bool
    s_w: frozenset[int]
    chain: tuple[frozenset[int], ...] | None


class Locality:
    """A partial group together with a prime, S and the object family."""

    def __init__(self, pg: ChainPartialGroup, p: int, *,
                 ambient: FiniteGroup | None = None,
                 carrier: tuple[int, ...] | None = None,
                 parent: "Locality | None" = None,
                 parent_index: tuple[int, ...] | None = None):
        self.pg = pg
        self.p = p
        self.s = pg.s_members
        self.objects = pg.objects
        self.object_set = pg.object_set
        self.ambient = ambient
        self.carrier = carrier
        self.parent = parent
        self.parent_index = parent_index
        # derived data (S as a group, the validation report, the fusion
        # and transporter systems, the automorphisms, the partial normal
        # family) is kept on the instance by `groups._kept`

    # -- basics ---------------------------------------------------------------

    @property
    def size(self) -> int:
        return self.pg.size

    @property
    def proven_full(self) -> bool:
        return self.pg.is_full_domain

    def label(self, f: int) -> str:
        return self.pg.labels[f]

    def element(self, label: str) -> int:
        return self.pg.index_of(label)

    def s_f(self, f: int) -> frozenset[int]:
        return self.pg.s_f(f)

    def s_w(self, w: Word) -> frozenset[int]:
        return self.pg.s_of_word(w)

    # -- conjugation ------------------------------------------------------------

    def conj_subgroup(self, P: Iterable[int], f: int) -> frozenset[int]:
        conj = self.pg.conj_maps[f]
        pset = frozenset(P)
        if not pset <= self.pg.s_f(f):
            raise UndefinedProductError((f,), "subgroup leaves the conjugation domain")
        return frozenset(conj[x] for x in pset)

    def transporter_elements(self, P: Iterable[int], Q: Iterable[int]) -> tuple[int, ...]:
        """N_L(P, Q) = {f : P <= S_f and P^f <= Q}."""
        pset, qset = frozenset(P), frozenset(Q)
        out = []
        for f in range(self.size):
            if pset <= self.pg.s_f(f):
                conj = self.pg.conj_maps[f]
                if all(conj[x] in qset for x in pset):
                    out.append(f)
        return tuple(out)

    def n_of(self, P: Iterable[int]) -> tuple[int, ...]:
        """N_L(P) = {f : P <= S_f and P^f = P}."""
        pset = frozenset(P)
        out = []
        for f in range(self.size):
            if pset <= self.pg.s_f(f):
                conj = self.pg.conj_maps[f]
                if frozenset(conj[x] for x in pset) == pset:
                    out.append(f)
        return tuple(out)

    def n_group(self, P: Iterable[int]) -> TableGroup:
        """N_L(P) with the induced product; raises if a product is missing."""
        return subgroup_table_group(self.pg, self.n_of(P))

    @_kept
    def s_group(self) -> TableGroup:
        return subgroup_table_group(self.pg, sorted(self.s))

    def s_overgroups(self, P: Iterable[int]) -> list[frozenset[int]]:
        """All subgroups Q with P <= Q <= S, via the lattice of S."""
        sg = self.s_group()
        pos = {sg.tokens[i]: i for i in range(sg.order)}
        pset = frozenset(pos[x] for x in P)
        out = []
        for sub in subgroup_lattice(sg):
            mem = frozenset(sub.members)
            if pset <= mem:
                out.append(frozenset(sg.tokens[i] for i in mem))
        return out

    # -- the domain, with witnesses ------------------------------------------------

    def word_domain_check(self, w: Word) -> DomainWitness:
        s_w = self.pg.s_of_word(w)
        if s_w not in self.object_set:
            return DomainWitness(tuple(w), False, s_w, None)
        chain = [s_w]
        cur = s_w
        for f in w:
            conj = self.pg.conj_maps[f]
            cur = frozenset(conj[x] for x in cur)
            chain.append(cur)
        return DomainWitness(tuple(w), True, s_w, tuple(chain))


# ---------------------------------------------------------------------------
# building L_Gamma(M) from a finite group


def _require_closed(F: FusionSystem, objs: Iterable[Iterable[int]]) -> None:
    """Raise LocalityBuildError on the witness of `F.family_defect`."""
    defect = F.family_defect(objs)
    if defect is not None:
        kind, P, Q = defect
        raise LocalityBuildError(f"object family is not closed: the {kind} "
                                 f"{sorted(Q)} of {sorted(P)} is missing")


def locality_from_group(group: FiniteGroup, p: int,
                        objects: Iterable[Iterable[int]], *,
                        auto_close: bool = False) -> Locality:
    """Build (L_Gamma(M), Gamma, S) for M = group and S its Sylow p-subgroup.

    `objects` lists subgroups of S by their members (group element indices).
    With auto_close=True the family is first closed under conjugation into S
    and overgroups in S; otherwise a family that is not closed is an error.
    Both are decided on F_S(M) (`FusionSystem.family_closure` and
    `FusionSystem.family_defect`), which is kept on the group.
    """
    s_sub = sylow_p(group, p)
    s_amb = s_sub.member_set()
    fam: list[frozenset[int]] = []
    for o in objects:
        mem = frozenset(o.members if isinstance(o, Subgroup) else o)
        if not mem <= s_amb:
            raise LocalityBuildError(
                f"object {sorted(mem)} is not contained in the Sylow {p}-subgroup")
        if set(subgroup_closure(group, mem)) != mem:
            raise LocalityBuildError(f"object {sorted(mem)} is not a subgroup")
        fam.append(mem)
    if not fam:
        raise LocalityBuildError("the object family is empty")
    F = fusion_from_group(group, p)
    if auto_close:
        fam = F.family_closure(fam)
    else:
        _require_closed(F, fam)
    objs = canonical_objects(fam)
    objset = set(objs)

    # carrier, by both characterizations
    car_meet = []
    for g in group.indices():
        ginv = group.inv(g)
        meet = frozenset(y for y in s_amb if group.conj(y, ginv) in s_amb)
        if meet in objset:
            car_meet.append(g)
    car_transport = []
    for g in group.indices():
        for P in objs:
            if all(group.conj(x, g) in s_amb for x in P):
                car_transport.append(g)
                break
    if car_meet != car_transport:
        raise LocalityBuildError(
            "internal: the two carrier characterizations disagree; "
            "the object family is not closed the way it should be")
    carrier = tuple(car_meet)
    pos = {amb: i for i, amb in enumerate(carrier)}
    for g in carrier:
        if group.inv(g) not in pos:
            raise LocalityBuildError("internal: carrier is not closed under inversion")

    labels = [group.label(g) for g in carrier]
    inverse = [pos[group.inv(g)] for g in carrier]
    identity = pos[group.identity]
    s_pg = frozenset(pos[x] for x in s_amb)
    objs_pg = [frozenset(pos[x] for x in P) for P in objs]
    objs_pg_set = set(objs_pg)

    conj_maps = []
    for g in carrier:
        m = {}
        for x in s_amb:
            y = group.conj(x, g)
            if y in s_amb:
                m[pos[x]] = pos[y]
        conj_maps.append(m)

    rows = []
    for i in range(len(carrier)):
        ci = conj_maps[i]
        row: list[int | None] = [None] * len(carrier)
        for j in range(len(carrier)):
            cj = conj_maps[j]
            s_w = frozenset(x for x, y in ci.items() if y in cj)
            if s_w in objs_pg_set:
                prod = group.mul(carrier[i], carrier[j])
                if prod not in pos:
                    raise LocalityBuildError("internal: a defined product leaves the carrier")
                row[j] = pos[prod]
        rows.append(row)

    pg = ChainPartialGroup(labels, inverse, identity, rows, conj_maps,
                           s_pg, objs_pg)
    return Locality(pg, p, ambient=group, carrier=carrier)


# ---------------------------------------------------------------------------
# restriction to a smaller object family


def restriction(loc: Locality, objects: Iterable[Iterable[int]]) -> Locality:
    """The restriction of a locality to a smaller object family.

    The family must be a nonempty subset of the objects, closed under
    conjugation and overgroups, as `FusionSystem.family_defect` decides on
    the fusion system of loc.  The new carrier is {f : S_f in the new
    family}; S_f of every surviving element is unchanged, which is
    asserted.
    """
    objs = canonical_objects(objects)
    objset = set(objs)
    pg = loc.pg
    if not objs:
        raise LocalityBuildError("the object family is empty")
    for P in objs:
        if P not in loc.object_set:
            raise LocalityBuildError(f"{sorted(P)} is not an object of the locality")
    _require_closed(fusion_from_locality(loc), objs)

    keep = [f for f in range(pg.size) if pg.s_f(f) in objset]
    sub = sub_locality(loc, keep, objs)
    for i, f in enumerate(keep):
        if frozenset(keep[x] for x in sub.pg.s_f(i)) != pg.s_f(f):
            raise LocalityBuildError("internal: S_f changed under restriction")
    return sub


def sub_locality(loc: Locality, keep: Sequence[int],
                 objects: Iterable[Iterable[int]]) -> Locality:
    """The locality on the elements `keep` of loc (sorted indices), over the
    object family `objects` (subgroups of S, in loc indices).

    Element i of the result is keep[i], with its label, inverse,
    conjugation map, S, objects and carrier read through that index, and
    loc as its parent.  The pair rule: the product of a pair (a, b) in
    loc's rows is kept when a and b are both kept and S_(a, b) is one of
    the new objects.  This is exact for a restriction: the kept
    conjugation maps are unchanged, so S_w is the same in loc and in the
    result, and a pair lies in the result's domain exactly when its S_w
    is a new object; loc's rows define every such pair, because its
    objects include the new ones.  With the same objects (the
    sub-locality NS) every defined pair of kept elements stays.
    """
    pg = loc.pg
    objset = {frozenset(P) for P in objects}
    pos = {f: i for i, f in enumerate(keep)}
    for f in keep:
        if pg.inv[f] not in pos:
            raise LocalityBuildError("internal: the kept elements are not "
                                     "closed under inversion")
    rows = []
    for a in keep:
        row_a = pg.rows[a]
        row: list[int | None] = [None] * len(keep)
        for i, b in enumerate(keep):
            c = row_a[b]
            if c is not None and pg.s_of_word((a, b)) in objset:
                if c not in pos:
                    raise LocalityBuildError(f"internal: product {pg.label_word((a, b))} "
                                             "leaves the kept elements")
                row[i] = pos[c]
        rows.append(row)
    new_pg = ChainPartialGroup(
        [pg.labels[f] for f in keep], [pos[pg.inv[f]] for f in keep],
        pos[pg.identity], rows,
        [{pos[x]: pos[y] for x, y in pg.conj_maps[f].items()} for f in keep],
        [pos[x] for x in pg.s_members], [[pos[x] for x in P] for P in objset])
    carrier = None
    if loc.carrier is not None:
        carrier = tuple(loc.carrier[f] for f in keep)
    return Locality(new_pg, loc.p, ambient=loc.ambient, carrier=carrier,
                    parent=loc, parent_index=tuple(keep))


class _UnionFind:
    def __init__(self, n: int) -> None:
        self.root = list(range(n))

    def find(self, x: int) -> int:
        r = self.root
        while r[x] != x:
            r[x] = r[r[x]]
            x = r[x]
        return x

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.root[max(ra, rb)] = min(ra, rb)


# ---------------------------------------------------------------------------
# validation against the definition


@dataclass(frozen=True)
class LocalityCheck:
    name: str
    ok: bool
    detail: str = ""


@dataclass(frozen=True)
class LocalityReport:
    ok: bool
    checks: tuple[LocalityCheck, ...]
    pg_report: ValidationReport

    def failing(self) -> list[LocalityCheck]:
        return [c for c in self.checks if not c.ok]

    def lines(self) -> list[str]:
        out = []
        for c in self.checks:
            mark = "ok" if c.ok else "FAIL"
            line = f"[{mark}] {c.name}"
            if c.detail and not c.ok:
                line += f": {c.detail}"
            out.append(line)
        return out


def _thread(loc: Locality, heads: frozenset[frozenset[int]],
            f: int) -> frozenset[frozenset[int]]:
    """One letter of the chain definition: the objects P^f for the P in
    heads with P <= S_f and P^f an object."""
    conj, dom = loc.pg.conj_maps[f], loc.pg.s_f(f)
    out = set()
    for P in heads:
        if P <= dom:
            img = frozenset(conj[x] for x in P)
            if img in loc.object_set:
                out.add(img)
    return frozenset(out)


def chain_product_walk(loc: Locality) -> tuple[Word, str] | None:
    """Compare the domain table with the chain definition at every length.

    The chain definition is a nondeterministic automaton over objects: a
    word is threaded when some object survives every letter, one `_thread`
    step each, starting from the whole family.  Its subset construction is
    a deterministic automaton whose states are sets of objects, accepting
    when the set is nonempty; the S_w table of `ChainPartialGroup` is
    another, accepting when S_w is an object.  Both are finite, so the
    pairs of states that some word reaches in the two at once are finite
    too, and the two accept the same words exactly when no reachable pair
    disagrees on accepting (the product test of Hopcroft and Karp, "A
    linear algorithm for testing equivalence of finite automata", 1971).
    The walk is breadth first with letters in increasing order, so the
    first disagreeing pair it meets is reached by the shortlex-least word
    on which the two definitions part.

    Returns that word and the side that accepts it, "S_w test only" or
    "chain search only", or None when the two agree on every word.
    """
    pg = loc.pg
    rows = pg._next or pg._build_table()
    accepts = pg._accepts
    successors: dict[frozenset, tuple[frozenset, ...]] = {}
    start = (0, frozenset(loc.objects))
    seen = {start}
    queue: list[tuple[tuple[int, frozenset], Word]] = [(start, ())]
    for (state, heads), word in queue:  # grows while it is walked
        if accepts[state] != bool(heads):
            return word, "S_w test only" if accepts[state] else "chain search only"
        nexts = successors.get(heads)
        if nexts is None:
            nexts = successors[heads] = tuple(_thread(loc, heads, f)
                                              for f in range(loc.size))
        for f, pair in enumerate(zip(rows[state], nexts)):
            if pair not in seen:
                seen.add(pair)
                queue.append((pair, word + (f,)))
    return None


def carrier_certificate(loc: Locality) -> ValidationReport:
    """PG1-PG4, cancellation and the word laws of L_Delta(M), at every
    length, read off M.

    For a locality with an `ambient` group M and a `carrier` c: L -> M
    (set by `locality_from_group`, kept by `sub_locality`) this checks:

      (a) c is injective, c(1) = 1 and c(f^-1) = c(f)^-1;
      (b) the conjugation map of f is x -> x^c(f) in M, defined on exactly
          the x in S with x^c(f) in S;
      (c) every pair (a, b) in the table has c(ab) = c(a)c(b).

    Given these and `locality_structure_checks` (S a subgroup, objects
    subgroups of S closed under overgroups in S and under conjugation,
    S_f an object for every f, and `pair-table-matches-domain`: a pair is
    in the table exactly when S_(a,b) is an object), a finite argument
    covers every length.
    Let w = (f_1, ..., f_n) have S_w an object.

    - By (b), S_u for any word u is the meet of S with S^(g^-1) over the
      products g = c(f_1)...c(f_i) of the prefixes of u: a subgroup of S,
      and S_w <= S_u for every prefix u of w.
    - The left fold of w is defined and c(Pi(w)) = c(f_1)...c(f_n).  By
      induction, if u is a prefix with c(Pi(u)) the product of its
      letters, then x^c(Pi(u)) lies in S for every x in S_u, so
      S_w <= S_u <= S_Pi(u).  Hence S_(Pi(u), f) contains S_(u, f) and so
      S_w for the next letter f; it is a subgroup over an object, hence an
      object, so the pair is in the table and (c) gives it the product of
      M.  The same gives "S_w <= S_Pi(w)" and "conjugation along w is
      conjugation by Pi(w)".
    - PG1: S_u >= S_w for a prefix u, and for the rest v of w,
      S_v >= S_w^Pi(u), an object by conjugation closure; S and every S_f
      are objects.  PG2 is the fold of one letter.
    - PG3: replacing a subword v by Pi(v) keeps every x in S_w on the same
      path through S, so S_w lies in S of the new word; both products are
      the same product in M, hence equal in L by (a).
    - PG4: S_(w^-1 w) >= S_w^Pi(w), and its product is c^-1(1) = 1.
    - Cancellation: 1 acts as the identity on S, and (x, x^-1) as the
      identity on the points it keeps, so inserting 1 or deleting
      (x, x^-1) does not shrink S_w, and M gives equal products.
    - Normalizer chains: for an object X <= S_w and y in N_L(X), each
      conjugation (f^-1, y, f) along w is threaded by a conjugate of X, so
      conjugating y letter by letter is defined and ends at y^Pi(w).

    Cost: O(|L|^2) table lookups and products in M plus O(|L| |S|)
    conjugations in M.  The certificate is sufficient, not necessary: a
    failure may lie in the carrier alone.  Each failure names an element
    or a pair, and `validate_locality` reports it as the failure of the
    partial-group check, which makes no other check of the axioms.
    """
    pg, M, car = loc.pg, loc.ambient, loc.carrier
    labels = pg.labels
    failures: list[CheckFailure] = []

    def add(axiom: str, witness: str) -> bool:
        failures.append(CheckFailure(axiom, witness))
        return len(failures) >= MAX_FAILURES

    def report() -> ValidationReport:
        return ValidationReport(not failures, failures)

    # (a) the carrier; (b) and (c) compare with M, which needs c injective
    if len(car) != pg.size:
        add("carrier", f"{len(car)} carrier entries for {pg.size} elements")
        return report()
    back: dict[int, int] = {}
    for f, g in enumerate(car):
        if g in back:
            add("carrier", f"{labels[back[g]]} and {labels[f]} both go to "
                f"{M.label(g)} in M")
            return report()
        back[g] = f
    if car[pg.identity] != M.identity:
        add("carrier", f"the identity {labels[pg.identity]} goes to "
            f"{M.label(car[pg.identity])} in M")
    for f in range(pg.size):
        if car[pg.inv[f]] != M.inv(car[f]):
            add("carrier", f"the inverse of {labels[f]} does not go to the "
                "inverse in M")
            break
    if failures:
        return report()

    # (b) conjugation maps
    s_back = {car[x]: x for x in pg.s_members}
    for f in range(pg.size):
        have = pg.conj_maps[f]
        for x in sorted(pg.s_members):
            img = M.conj(car[x], car[f])
            want = s_back.get(img)
            if have.get(x) != want:
                got = labels[have[x]] if x in have else "nothing"
                if add("conjugation", f"conjugation by {labels[f]} sends "
                       f"{labels[x]} to {got}; in M it goes to {M.label(img)}"):
                    return report()
                break

    # (c) the products of the pair table
    for a, row in enumerate(pg.rows):
        for b, c in enumerate(row):
            if c is not None and car[c] != M.mul(car[a], car[b]):
                if add("product", f"the table gives {pg.label_word((a, b))} "
                       f"= {labels[c]}; M gives {M.label(M.mul(car[a], car[b]))}"):
                    return report()
    return report()


def locality_structure_checks(loc: Locality) -> list[LocalityCheck]:
    """The checks of the definition that scan no word, from s-subgroup to
    conjugation-maps-match-table; internal constructions run only these."""
    pg = loc.pg
    checks: list[LocalityCheck] = []

    # S is a subgroup: every pair product inside S is defined and stays in S
    s_sorted = sorted(loc.s)
    s_ok, s_detail = True, ""
    for a in s_sorted:
        row = pg.rows[a]
        for b in s_sorted:
            c = row[b]
            if c is None or c not in loc.s:
                s_ok, s_detail = False, f"pair {pg.label_word((a, b))} undefined or outside S"
                break
        if not s_ok:
            break
    if s_ok:
        for a in s_sorted:
            if pg.inv[a] not in loc.s:
                s_ok, s_detail = False, f"inverse of {pg.labels[a]} leaves S"
                break
    checks.append(LocalityCheck("s-subgroup", s_ok, s_detail))

    # S is a p-group
    if s_ok:
        sg = loc.s_group()
        ok = is_p_group(sg, loc.p)
        checks.append(LocalityCheck("s-p-group", ok,
                                    "" if ok else f"|S| = {sg.order}"))
    else:
        checks.append(LocalityCheck("s-p-group", False, "S is not a subgroup"))

    # S is maximal: S is a Sylow p-subgroup of the group N_L(S).  A strictly
    # larger p-subgroup T would put N_T(S) > S inside N_L(S).
    max_ok, max_detail = True, ""
    try:
        ngrp = loc.n_group(loc.s)
        if _p_part(ngrp.order, loc.p) != len(loc.s):
            max_ok = False
            max_detail = f"|N_L(S)| = {ngrp.order} has p-part > |S| = {len(loc.s)}"
    except (UndefinedProductError, GroupBuildError) as err:
        max_ok, max_detail = False, f"N_L(S) is not a group: {err}"
    checks.append(LocalityCheck("s-maximal", max_ok, max_detail))

    # objects are subgroups of S
    obj_ok, obj_detail = True, ""
    for P in loc.objects:
        if not P <= loc.s:
            obj_ok, obj_detail = False, f"object {sorted(P)} is not inside S"
            break
        for a in P:
            if pg.inv[a] not in P:
                obj_ok, obj_detail = False, f"object {sorted(P)} not inverse-closed"
                break
            row = pg.rows[a]
            for b in P:
                c = row[b]
                if c is None or c not in P:
                    obj_ok, obj_detail = False, f"object {sorted(P)} not product-closed"
                    break
            if not obj_ok:
                break
        if not obj_ok:
            break
    checks.append(LocalityCheck("objects-subgroups", obj_ok, obj_detail))

    ok = bool(loc.objects) and loc.s in loc.object_set
    checks.append(LocalityCheck("objects-contain-s", ok,
                                "" if ok else "S itself must be an object"))

    # closure under conjugation
    conj_ok, conj_detail = True, ""
    for P in loc.objects:
        for f in range(pg.size):
            if P <= pg.s_f(f):
                img = frozenset(pg.conj_maps[f][x] for x in P)
                if img not in loc.object_set:
                    conj_ok = False
                    conj_detail = f"{sorted(P)} ^ {pg.labels[f]} is not an object"
                    break
        if not conj_ok:
            break
    checks.append(LocalityCheck("objects-conjugation-closed", conj_ok, conj_detail))

    # closure under overgroups
    over_ok, over_detail = True, ""
    if s_ok:
        for P in loc.objects:
            for Q in loc.s_overgroups(P):
                if Q not in loc.object_set:
                    over_ok = False
                    over_detail = f"overgroup {sorted(Q)} of {sorted(P)} is missing"
                    break
            if not over_ok:
                break
    else:
        over_ok, over_detail = False, "S is not a subgroup"
    checks.append(LocalityCheck("objects-overgroup-closed", over_ok, over_detail))

    # every element needs S_f in the family (length-1 words in D)
    elt_ok, elt_detail = True, ""
    for f in range(pg.size):
        if pg.s_f(f) not in loc.object_set:
            elt_ok, elt_detail = False, f"S_f of {pg.labels[f]} is not an object"
            break
    checks.append(LocalityCheck("elements-have-objects", elt_ok, elt_detail))

    # the pair table is exactly the length-2 part of the chain domain
    pair_ok, pair_detail = True, ""
    for a in range(pg.size):
        row = pg.rows[a]
        for b in range(pg.size):
            in_table = row[b] is not None
            if pg.word_in_domain((a, b)) != in_table and pair_ok:
                pair_ok = False
                side = "table only" if in_table else "domain only"
                pair_detail = f"pair {pg.label_word((a, b))} in {side}"
    checks.append(LocalityCheck("pair-table-matches-domain", pair_ok, pair_detail))

    # stored conjugation maps match the pair table route
    sf_ok, sf_detail = True, ""
    for f in range(pg.size):
        inv_f = pg.inv[f]
        derived = {}
        row = pg.rows[inv_f]
        for x in sorted(loc.s):
            a = row[x]
            if a is None:
                continue
            b = pg.rows[a][f]
            if b is None or b not in loc.s:
                continue
            derived[x] = b
        if derived != pg.conj_maps[f]:
            sf_ok, sf_detail = False, f"conjugation map of {pg.labels[f]} disagrees with the table"
            break
    checks.append(LocalityCheck("conjugation-maps-match-table", sf_ok, sf_detail))
    return checks


def validate_locality(loc: Locality, k: int) -> LocalityReport:
    """Check the definition of a locality: L is a partial group,
    `locality_structure_checks` pass, and the domain is the set of
    Delta-threaded words.

    The partial-group check is `carrier_certificate`, which needs an
    ambient group M and the carrier into it (`locality_from_group` and
    `sub_locality` set both) and, for its argument, every structural
    check.  A locality without them fails the check with a witness that
    names the reason.  The domain check is `chain_product_walk`, on every
    locality.  Both are exact at every word length, so `k` does not change
    the result; the parameter stays for callers that state a length.  The
    report is kept on the Locality."""
    return _kept(loc, _validate_locality)


def _validate_locality(loc: Locality) -> LocalityReport:
    structure = locality_structure_checks(loc)
    broken = [c.name for c in structure if not c.ok]
    if loc.ambient is None or loc.carrier is None:
        pg_report = ValidationReport(False, [CheckFailure(
            "certificate", "no ambient group M and carrier into it")])
    else:
        pg_report = carrier_certificate(loc)
        if pg_report.ok and broken:
            pg_report = ValidationReport(False, [CheckFailure(
                "certificate", f"needs the structural check {broken[0]}, "
                "which fails")])
    mismatch = chain_product_walk(loc)
    detail = "; ".join(pg_report.witness_lines()[:MAX_FAILURES])
    dom_detail = "" if mismatch is None else (
        f"word {loc.pg.label_word(mismatch[0])} in {mismatch[1]}")
    checks = (LocalityCheck("partial-group", pg_report.ok, detail), *structure,
              LocalityCheck("domain-matches-chains", mismatch is None, dom_detail))
    return LocalityReport(all(c.ok for c in checks), checks, pg_report)
