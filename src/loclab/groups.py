"""Minimal finite group engine.

Two concrete carriers share one index-based interface: permutation groups
(`Group`) and multiplication-table groups (`TableGroup`, used for subgroup
views of partial groups, automorphism groups and quotients).  Elements are
addressed by index into a canonically ordered element list, so every
operation is deterministic.

All subgroup-valued functions return `Subgroup` objects with sorted member
tuples; all enumerations are sorted.  Member sets are closed by one
routine, the coset walk `_adjoin`, which adjoins one element to a closed
subgroup; a closure from scratch is a fold of it over the seed.

Derived data is kept by one helper, `_kept`: a value computed from an
object that is not changed after construction (a group, a locality, a
transporter system) is computed once and stored on that object.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from math import gcd
from typing import Callable, Hashable, Iterable, Iterator, Sequence

from . import perm

GROUP_ORDER_CAP = 10000


class GroupBuildError(ValueError):
    pass


def _kept(obj, fn=None, *args):
    """fn(obj, *args), computed once and kept on obj.

    As a call, `_kept(obj, fn, *args)` looks the value up in a store on
    obj keyed by (fn, *args) and computes it on a miss; None is kept like
    any other value.  The call form reads fn where it is called, so a
    module-global fn replaced there (say, to count computations) is the
    one called and the key.  As a decorator, `@_kept` makes fn keep its
    own values, keyed by the undecorated function.  The store is one
    attribute, `_derived`, made on the first call, so a constructor
    declares no memo.  Sound only for objects that are not changed after
    construction.  Private, so that `bench/tracer.py`, which gives every
    public function a span, does not move the self time of each computed
    value into a span of this helper.
    """
    if fn is None:
        compute = obj

        @functools.wraps(compute)
        def keeping(obj, *args):
            return _kept(obj, compute, *args)
        return keeping
    store = obj.__dict__.setdefault("_derived", {})
    key = (fn, *args)
    if key not in store:
        store[key] = fn(obj, *args)
    return store[key]


class FiniteGroup:
    """Index-based finite group.  Subclasses set order, identity and _inv
    and define mul and label."""

    def __init__(self) -> None:
        self.order: int = 0
        self.identity: int = 0
        self._inv: tuple[int, ...] = ()

    def mul(self, i: int, j: int) -> int:
        raise NotImplementedError

    def inv(self, i: int) -> int:
        return self._inv[i]

    def label(self, i: int) -> str:
        raise NotImplementedError

    def indices(self) -> range:
        return range(self.order)

    def power(self, i: int, n: int) -> int:
        if n < 0:
            return self.power(self.inv(i), -n)
        acc = self.identity
        for _ in range(n):
            acc = self.mul(acc, i)
        return acc

    def element_order(self, i: int) -> int:
        n = 1
        acc = i
        while acc != self.identity:
            acc = self.mul(acc, i)
            n += 1
        return n

    def conj(self, x: int, g: int) -> int:
        """x^g = g^-1 x g."""
        return self.mul(self.mul(self.inv(g), x), g)

    def _compute_inverses(self) -> None:
        inv = [0] * self.order
        for i in range(self.order):
            for j in range(self.order):
                if self.mul(i, j) == self.identity:
                    inv[i] = j
                    break
        self._inv = tuple(inv)


class Group(FiniteGroup):
    """Permutation group with canonically (lexicographically) ordered elements."""

    def __init__(self, degree: int, elements: Sequence[perm.Perm],
                 generators: Sequence[perm.Perm] = ()) -> None:
        super().__init__()
        self.degree = degree
        self.elements: tuple[perm.Perm, ...] = tuple(sorted(elements))
        self.generators: tuple[perm.Perm, ...] = tuple(generators)
        self.order = len(self.elements)
        self._index = {p: i for i, p in enumerate(self.elements)}
        self.identity = self._index[perm.identity_perm(degree)]
        self._inv = tuple(self._index[perm.invert(p)] for p in self.elements)

    @classmethod
    def from_generators(cls, degree: int, generators: Sequence[perm.Perm],
                        cap: int = GROUP_ORDER_CAP) -> "Group":
        try:
            elements = perm.closure(generators, degree, cap=cap)
        except ValueError as exc:
            raise GroupBuildError(str(exc)) from exc
        return cls(degree, elements, generators)

    def mul(self, i: int, j: int) -> int:
        return self._index[perm.compose(self.elements[i], self.elements[j])]

    def label(self, i: int) -> str:
        return perm.cycle_string(self.elements[i])

    def index_of(self, p: perm.Perm) -> int:
        return self._index[p]


class TableGroup(FiniteGroup):
    """Finite group given by tokens and an explicit multiplication function.

    Tokens are hashable payloads (e.g. partial-group element indices, coset
    frozensets, automorphism image tuples).  Canonical order is the sorted
    order of the token list as provided, which callers keep deterministic.
    """

    def __init__(self, tokens: Sequence[Hashable], mul_tokens, label_fn=None) -> None:
        super().__init__()
        self.tokens: tuple[Hashable, ...] = tuple(tokens)
        self.order = len(self.tokens)
        self._token_index = {t: i for i, t in enumerate(self.tokens)}
        if len(self._token_index) != self.order:
            raise GroupBuildError("duplicate tokens")
        table = []
        for a in self.tokens:
            row = []
            for b in self.tokens:
                c = mul_tokens(a, b)
                if c not in self._token_index:
                    raise GroupBuildError(f"product {a!r}*{b!r} leaves the token set")
                row.append(self._token_index[c])
            table.append(tuple(row))
        self._table: tuple[tuple[int, ...], ...] = tuple(table)
        self._label_fn = label_fn or repr
        ident = None
        for i in range(self.order):
            if all(self._table[i][j] == j and self._table[j][i] == j
                   for j in range(self.order)):
                ident = i
                break
        if ident is None:
            raise GroupBuildError("no identity in token set")
        self.identity = ident
        self._compute_inverses()

    def mul(self, i: int, j: int) -> int:
        return self._table[i][j]

    def label(self, i: int) -> str:
        return self._label_fn(self.tokens[i])

    def index_of(self, token: Hashable) -> int:
        return self._token_index[token]


@dataclass(frozen=True)
class Subgroup:
    """Subgroup of a FiniteGroup, stored as a sorted index tuple."""

    group: FiniteGroup
    members: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(sorted(set(self.members))))

    @property
    def order(self) -> int:
        return len(self.members)

    def __contains__(self, i: int) -> bool:
        return i in set(self.members)

    def member_set(self) -> frozenset[int]:
        return frozenset(self.members)

    def labels(self) -> list[str]:
        return [self.group.label(i) for i in self.members]

    def __repr__(self) -> str:  # members only; equality also needs the same group
        return f"Subgroup(order={self.order}, members={self.members})"

    def __hash__(self) -> int:
        return hash((id(self.group), self.members))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Subgroup):
            return NotImplemented
        return self.group is other.group and self.members == other.members


def parse_group(doc: dict) -> Group:
    """Build a permutation group from {"degree": n, "generators": [[cycles]]}.

    Each generator is a list of cycles, each cycle a list of 1-based points.
    """
    if "degree" not in doc or "generators" not in doc:
        raise GroupBuildError("group document needs 'degree' and 'generators'")
    degree = doc["degree"]
    if not isinstance(degree, int) or degree < 1:
        raise GroupBuildError(f"bad degree {degree!r}")
    gens = [perm.cycles_to_perm(g, degree) for g in doc["generators"]]
    return Group.from_generators(degree, gens)


def subgroup_closure(group: FiniteGroup, seed: Iterable[int]) -> tuple[int, ...]:
    """Smallest subgroup containing seed, as a sorted index tuple.

    A fold of `_adjoin` over the sorted seed: each seed element outside the
    span so far is adjoined by the coset walk and becomes a generator.
    """
    members: tuple[int, ...] = (group.identity,)
    span = {group.identity}
    gens: list[int] = []
    for s in sorted(set(seed)):
        if s not in span:
            members = _adjoin(group, members, gens, s)
            span = set(members)
            gens.append(s)
    return members


def _adjoin(group: FiniteGroup, members: tuple[int, ...], gens: Sequence[int],
            g: int) -> tuple[int, ...]:
    """<A, g> for a closed member tuple A with generating set `gens`.

    Dimino's coset walk (Butler, LNCS 559, 1991): the result is a union of
    right cosets A r.  A new coset representative t = r s (s a generator)
    fills its whole coset with |A| products, and only representatives are
    multiplied by the generators, so no pair of members is formed.  This is
    the one member-set closure for groups: `subgroup_closure`,
    `generating_sequence`, `subgroup_lattice` and the Sylow search use it.
    """
    out = set(members)
    steps = list(gens) + [g]
    queue = [g]
    for a in members:
        out.add(group.mul(a, g))
    while queue:
        r = queue.pop()
        for s in steps:
            t = group.mul(r, s)
            if t not in out:
                for a in members:
                    out.add(group.mul(a, t))
                queue.append(t)
    return tuple(sorted(out))


@_kept
def subgroup_lattice(group: FiniteGroup) -> list[Subgroup]:
    """All subgroups, by iterated joins of cyclic subgroups.

    Complete because every subgroup is a join of the cyclic subgroups of its
    elements.  Sorted by (order, member tuple).  Kept on the group.
    """
    cyclic_gen: dict[tuple[int, ...], int] = {}
    for g in group.indices():
        c = subgroup_closure(group, [g])
        cyclic_gen.setdefault(c, g)
    found: dict[tuple[int, ...], list[int]] = {(group.identity,): []}
    for c, g in cyclic_gen.items():
        found.setdefault(c, [g])
    frontier = list(found)
    while frontier:
        new: list[tuple[int, ...]] = []
        for a in frontier:
            a_gens = found[a]
            aset = set(a)
            for c, g in cyclic_gen.items():
                if g in aset:  # <g> inside a already
                    continue
                j = _adjoin(group, a, a_gens, g)
                if j not in found:
                    found[j] = a_gens + [g]
                    new.append(j)
        frontier = new
    return [Subgroup(group, m) for m in sorted(found, key=lambda m: (len(m), m))]


def _p_part(n: int, p: int) -> int:
    out = 1
    while n % p == 0:
        n //= p
        out *= p
    return out


@_kept
def sylow_p(group: FiniteGroup, p: int) -> Subgroup:
    """The least canonical Sylow p-subgroup (by sorted member tuple).

    One Sylow subgroup is grown by normalizer steps: while P is not yet of
    full order, N_G(P)/P has order divisible by p, so some p-element y
    outside P normalizes it and <P, y> is a strictly larger p-group.  All
    Sylow p-subgroups are conjugate, so taking the least conjugate at the
    end makes the result canonical.  The result is kept on the group, per p.
    """
    target = _p_part(group.order, p)
    cur: tuple[int, ...] = (group.identity,)
    gens: list[int] = []
    while len(cur) < target:
        nz = normalizer(group, Subgroup(group, cur))
        curset = set(cur)
        grown = False
        for y in nz.members:
            if y in curset:
                continue
            o = group.element_order(y)
            while o % p == 0:
                o //= p
            if o != 1:
                continue
            cand = _adjoin(group, cur, gens, y)
            if len(cand) <= len(cur) or target % len(cand) != 0:
                raise GroupBuildError("inconsistent Sylow growth step")
            cur = cand
            gens.append(y)
            grown = True
            break
        if not grown:
            raise GroupBuildError(f"no Sylow {p}-subgroup of order {target} found")
    best = min(conjugate_subgroup(group, cur, g) for g in group.indices())
    return Subgroup(group, best)


def conjugate_subgroup(group: FiniteGroup, members: Iterable[int], g: int) -> tuple[int, ...]:
    return tuple(sorted(group.conj(x, g) for x in members))


def normalizer(group: FiniteGroup, sub: Subgroup) -> Subgroup:
    mem = sub.member_set()
    keep = [g for g in group.indices()
            if all(group.conj(x, g) in mem for x in sub.members)]
    return Subgroup(group, tuple(keep))


def centralizer(group: FiniteGroup, sub: Subgroup) -> Subgroup:
    keep = [g for g in group.indices()
            if all(group.mul(x, g) == group.mul(g, x) for x in sub.members)]
    return Subgroup(group, tuple(keep))


def center(group: FiniteGroup) -> Subgroup:
    return centralizer(group, Subgroup(group, tuple(group.indices())))


def is_normal(group: FiniteGroup, sub: Subgroup) -> bool:
    return normalizer(group, sub).order == group.order


def p_core(group: FiniteGroup, p: int) -> Subgroup:
    """O_p: intersection of all Sylow p-subgroups (= conjugates of one)."""
    syl = sylow_p(group, p)
    core = syl.member_set()
    for g in group.indices():
        core &= frozenset(conjugate_subgroup(group, syl.members, g))
    return Subgroup(group, tuple(core))


def p_residual(group: FiniteGroup, p: int) -> Subgroup:
    """O^p: subgroup generated by all elements of order coprime to p."""
    seed = [g for g in group.indices() if gcd(group.element_order(g), p) == 1]
    return Subgroup(group, subgroup_closure(group, seed))


def is_characteristic_p(group: FiniteGroup, p: int) -> bool:
    """C_G(O_p(G)) <= O_p(G)."""
    core = p_core(group, p)
    cent = centralizer(group, core)
    return cent.member_set() <= core.member_set()


def is_p_group(group: FiniteGroup, p: int) -> bool:
    return _p_part(group.order, p) == group.order


def subgroup_view(group: FiniteGroup, members: Iterable[int]) -> TableGroup:
    """A subgroup as a standalone TableGroup; tokens are parent indices."""
    toks = sorted(set(members))
    tokset = set(toks)
    for a in toks:
        for b in toks:
            if group.mul(a, b) not in tokset:
                raise GroupBuildError("member set is not closed under products")
    return TableGroup(toks, group.mul, label_fn=group.label)


def quotient_group(group: FiniteGroup, normal: Subgroup) -> tuple[TableGroup, dict[int, frozenset[int]]]:
    """Quotient by a normal subgroup. Tokens are coset frozensets.

    Returns (quotient, coset_of) where coset_of maps each parent index to
    its coset token.
    """
    if not is_normal(group, normal):
        raise GroupBuildError("quotient by a non-normal subgroup")
    mem = normal.member_set()
    coset_of: dict[int, frozenset[int]] = {}
    cosets: list[frozenset[int]] = []
    for g in group.indices():
        if g in coset_of:
            continue
        cs = frozenset(group.mul(n, g) for n in mem)
        for x in cs:
            coset_of[x] = cs
        cosets.append(cs)
    cosets.sort(key=lambda c: min(c))

    def mul_cosets(a: frozenset[int], b: frozenset[int]) -> frozenset[int]:
        return coset_of[group.mul(min(a), min(b))]

    label = lambda c: "{" + group.label(min(c)) + "}N"
    return TableGroup(cosets, mul_cosets, label_fn=label), coset_of


def generating_sequence(group: FiniteGroup) -> list[int]:
    """Greedy small generating sequence (canonical: least new generator first).

    The span grows by `_adjoin` with each new generator.
    """
    gens: list[int] = []
    span: tuple[int, ...] = (group.identity,)
    while len(span) < group.order:
        have = set(span)
        nxt = min(i for i in group.indices() if i not in have)
        span = _adjoin(group, span, gens, nxt)
        gens.append(nxt)
    return gens


def generator_image_search(src_rows: Sequence[Sequence[int | None]],
                           dst_rows: Sequence[Sequence[int | None]],
                           src_inv: Sequence[int], dst_inv: Sequence[int],
                           pinned: dict[int, int], gens: Sequence[int],
                           candidates: Callable[[int], Iterable[int]],
                           allowed: Callable[[int, int], bool] | None = None,
                           injective: bool = False) -> Iterator[tuple[int, ...]]:
    """Maps of partial groups extending `pinned`, depth first over the
    images of `gens`, each taken from `candidates(g)`.

    A partial group is given by its product rows and inverses:
    `rows[a][b]` is the product of a and b, or None where the pair is
    undefined, and a group's rows (its Cayley table) have no None.  Each
    assignment is closed over inverses and over the defined products of
    elements with images, and fails on a conflict, a product undefined in
    the target, an image that `allowed` refuses or, with `injective`, an
    image taken twice.  Complete: a homomorphism is determined by its
    images of a generating set, so when `pinned` and `gens` generate the
    source, each homomorphism that extends `pinned`, sends each generator
    to a candidate and passes `allowed` is yielded once.  Not sound: the
    closure stops once every element has an image, so the caller keeps
    only what its exact check passes.
    """
    n = len(src_inv)
    img = [-1] * n
    used = [False] * len(dst_inv)
    trail: list[int] = []  # elements with images; the first `head` are closed
    head = 0

    def assign(x: int, v: int | None) -> bool:
        if img[x] >= 0 or v is None:
            return img[x] == v
        if (injective and used[v]) or (allowed and not allowed(x, v)):
            return False
        img[x] = v
        used[v] = True
        trail.append(x)
        return True

    def close() -> bool:
        nonlocal head
        while head < len(trail) < n:
            x = trail[head]
            head += 1
            v = img[x]
            if not assign(src_inv[x], dst_inv[v]):
                return False
            src_x, dst_v = src_rows[x], dst_rows[v]
            for y in trail[:head]:
                w = img[y]
                c = src_x[y]
                if c is not None and not assign(c, dst_v[w]):
                    return False
                c = src_rows[y][x]
                if c is not None and not assign(c, dst_rows[w][v]):
                    return False
        return True

    def search(i: int) -> Iterator[tuple[int, ...]]:
        nonlocal head
        while i < len(gens) and img[gens[i]] >= 0:
            i += 1
        if i == len(gens):
            if len(trail) == n:
                yield tuple(img)
            return
        for v in candidates(gens[i]):
            mark = len(trail)
            if assign(gens[i], v) and close():
                yield from search(i + 1)
            for x in trail[mark:]:
                used[img[x]] = False
                img[x] = -1
            del trail[mark:]
            head = mark

    if all(assign(x, v) for x, v in pinned.items()) and close():
        yield from search(0)


def group_isomorphisms(source: FiniteGroup,
                       target: FiniteGroup) -> list[tuple[int, ...]]:
    """All isomorphisms source -> target as sorted image tuples: the
    bijections of `generator_image_search` over a generating sequence of
    the source that keep element orders and preserve every product."""
    if source.order != target.order:
        return []
    src_rows, dst_rows = (tuple(tuple(g.mul(a, b) for b in g.indices())
                                for a in g.indices()) for g in (source, target))
    src_orders, dst_orders = ([g.element_order(x) for x in g.indices()]
                              for g in (source, target))
    maps = generator_image_search(
        src_rows, dst_rows, source._inv, target._inv,
        {source.identity: target.identity}, generating_sequence(source),
        lambda g: target.indices(),
        lambda x, v: src_orders[x] == dst_orders[v], injective=True)
    return sorted(m for m in maps
                  if all(m[c] == dst_rows[m[a]][m[b]]
                         for a, row in enumerate(src_rows)
                         for b, c in enumerate(row)))


def automorphisms(group: FiniteGroup) -> list[tuple[int, ...]]:
    return group_isomorphisms(group, group)
