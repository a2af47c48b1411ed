"""Partial groups: carriers with a product defined on a subset of words.

A partial group here is a finite carrier L (indices 0..n-1), an involutory
inversion, a distinguished identity, and a product Pi defined on a word set
D that satisfies:

  PG1  every length-1 word lies in D, and D is closed under taking
       contiguous prefixes/suffixes of a concatenation (so () in D);
  PG2  Pi restricted to length-1 words is the identity map;
  PG3  replacing a contiguous subword v of w in D by (Pi(v),) again gives a
       word in D with the same product;
  PG4  for w in D the word w^-1 * w lies in D and has product 1 = Pi(()).

The partial groups checked here are `locality.ChainPartialGroup`, whose D
is the set of words threaded through an object family.  D is infinite for
a nonempty carrier (PG4 iterates), so no scan covers it.  A locality
L_Delta(M) that carries its map into the group M needs no scan:
`locality.carrier_certificate` proves PG1-PG4 and cancellation at every
length from M.  The scans here serve every other locality (transporter
bridges, quotients, hand-built ones) and the tests, which keep them as
oracles.  `validate_partial_group` scans words up to a length k and
reports the bound; when the group has proved that D is all of W(L)
(`is_full_domain`), it checks the group axioms on the pair table instead,
which is exact at every length.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

if TYPE_CHECKING:
    from .locality import ChainPartialGroup

Word = tuple[int, ...]


class UndefinedProductError(Exception):
    def __init__(self, word: Word, note: str = ""):
        self.word = word
        super().__init__(f"product undefined on word {word}" + (f" ({note})" if note else ""))


def invert_word(pg: ChainPartialGroup, w: Word) -> Word:
    return tuple(pg.inv[x] for x in reversed(w))


# --------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class CheckFailure:
    axiom: str
    witness: str


@dataclass
class ValidationReport:
    ok: bool
    mode: str  # "carrier" or "group-axioms" (exact, all lengths), or "bounded"
    bound: int | None
    failures: list[CheckFailure] = field(default_factory=list)

    def witness_lines(self) -> list[str]:
        return [f"{f.axiom}: {f.witness}" for f in self.failures]


MAX_FAILURES = 5


def validate_partial_group(pg: ChainPartialGroup, k: int) -> ValidationReport:
    """Check PG1-PG4 on words of length <= k (exactly, via the group axioms,
    when the domain is provably full)."""
    if pg.is_full_domain:
        return _validate_full(pg)
    return _validate_bounded(pg, k)


def _validate_full(pg: ChainPartialGroup) -> ValidationReport:
    failures: list[CheckFailure] = []
    n = pg.size
    e = pg.identity

    def add(axiom: str, witness: str) -> bool:
        failures.append(CheckFailure(axiom, witness))
        return len(failures) >= MAX_FAILURES

    for i in range(n):
        if pg.pair(e, i) != i or pg.pair(i, e) != i:
            if add("identity", f"1*{pg.labels[i]} or {pg.labels[i]}*1 wrong"):
                return ValidationReport(False, "group-axioms", None, failures)
        if pg.pair(pg.inv[i], i) != e or pg.pair(i, pg.inv[i]) != e:
            if add("PG4", f"inverse of {pg.labels[i]} fails"):
                return ValidationReport(False, "group-axioms", None, failures)
        if pg.inv[pg.inv[i]] != i:
            add("inversion", f"inv not involutory at {pg.labels[i]}")
    for i in range(n):
        for j in range(n):
            ij = pg.pair(i, j)
            if ij is None:
                if add("PG1", f"pair {pg.label_word((i, j))} undefined on a full domain"):
                    return ValidationReport(False, "group-axioms", None, failures)
                continue
            for l in range(n):
                jl = pg.pair(j, l)
                if pg.pair(ij, l) != pg.pair(i, jl):
                    if add("PG3", "associativity fails at "
                           f"{pg.label_word((i, j, l))}"):
                        return ValidationReport(False, "group-axioms", None, failures)
    return ValidationReport(not failures, "group-axioms", None, failures)


def _validate_bounded(pg: ChainPartialGroup, k: int) -> ValidationReport:
    failures: list[CheckFailure] = []

    def add(axiom: str, witness: str) -> bool:
        if len(failures) < MAX_FAILURES:
            failures.append(CheckFailure(axiom, witness))
        return len(failures) >= MAX_FAILURES

    def done() -> ValidationReport:
        return ValidationReport(False, "bounded", k, failures)

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

    for w in pg.iter_domain_words(k):
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
    return ValidationReport(not failures, "bounded", k, failures)


def check_cancellation(pg: ChainPartialGroup, k: int = 3) -> list[CheckFailure]:
    """Derived laws: inserting the identity and cancelling v, v^-1.

    (a) if u*v in D then u*(1)*v in D with equal products;
    (b) if u*(x)*(x^-1)*v in D then u*v in D with equal products.
    """
    failures: list[CheckFailure] = []
    for w in pg.iter_domain_words(k):
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


# --------------------------------------------------------------------------
# subgroups


def generated_partial_subgroup(pg: ChainPartialGroup, seed: Iterable[int]) -> tuple[int, ...]:
    """Closure of seed under inverses and defined pair products.

    PG3 folding means pair products capture all defined word products.
    """
    members = {pg.identity}
    members.update(seed)
    frontier = sorted(members)
    while frontier:
        new = []
        for x in frontier:
            ix = pg.inv[x]
            if ix not in members:
                members.add(ix)
                new.append(ix)
            for y in sorted(members):
                for cand in (pg.pair(x, y), pg.pair(y, x)):
                    if cand is not None and cand not in members:
                        members.add(cand)
                        new.append(cand)
        frontier = new
    return tuple(sorted(members))


def subgroup_table_group(pg: ChainPartialGroup, members: Iterable[int]):
    """A subgroup of a partial group as a TableGroup (tokens = pg indices)."""
    from .groups import TableGroup

    toks = sorted(set(members))

    def mul(a: int, b: int) -> int:
        c = pg.pair(a, b)
        if c is None:
            raise UndefinedProductError((a, b), "not a subgroup of the partial group")
        return c

    return TableGroup(toks, mul, label_fn=lambda t: pg.labels[t])
