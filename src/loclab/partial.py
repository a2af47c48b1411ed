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

The partial groups here are `locality.ChainPartialGroup`, whose D is the
set of words threaded through an object family.  D is infinite for a
nonempty carrier (PG4 iterates), so no scan of words covers it, and none is
made: `locality.validate_locality` proves PG1-PG4 and cancellation at every
length with `locality.carrier_certificate`, from the group M that a
locality L_Delta(M) embeds in.  This module holds what that check reports
(`ValidationReport`) and the subgroups of a partial group.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Iterable

if TYPE_CHECKING:
    from .locality import ChainPartialGroup

Word = tuple[int, ...]


class UndefinedProductError(Exception):
    def __init__(self, word: Word, note: str = ""):
        self.word = word
        super().__init__(f"product undefined on word {word}" + (f" ({note})" if note else ""))


# --------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class CheckFailure:
    axiom: str
    witness: str


@dataclass
class ValidationReport:
    ok: bool
    failures: list[CheckFailure] = field(default_factory=list)

    def witness_lines(self) -> list[str]:
        return [f"{f.axiom}: {f.witness}" for f in self.failures]


MAX_FAILURES = 5


# --------------------------------------------------------------------------
# subgroups


def generated_partial_subgroup(pg: ChainPartialGroup, seed: Iterable[int],
                               images: Callable[[int], Iterable[int | None]] | None = None,
                               closed: Iterable[int] = ()) -> frozenset[int]:
    """Smallest set holding the identity, seed and `closed` that is closed
    under inverses, defined pair products and the optional extra `images`.

    The one member-set closure for partial groups, a worklist: each new
    member is multiplied once on each side with itself and with every
    member taken before it, and its inverse and images are added.  A pair
    is formed only when its later member is taken, so no pair is formed
    twice.  An undefined product or image (None) adds nothing.  `closed`
    must already be closed under all of these: its members count as taken,
    so only pairs with a new member are formed.  PG3 folding means pair
    products capture all defined word products.
    """
    rows = pg.rows
    done = list(closed)
    members = set(done)
    todo = [x for x in sorted({pg.identity, *seed}) if x not in members]
    members.update(todo)
    while todo:
        x = todo.pop()
        done.append(x)
        row_x = rows[x]
        new = [pg.inv[x]]
        for y in done:
            new += (row_x[y], rows[y][x])
        if images is not None:
            new += images(x)
        for z in new:
            if z is not None and z not in members:
                members.add(z)
                todo.append(z)
    return frozenset(members)


def subgroup_table_group(pg: ChainPartialGroup, members: Iterable[int]):
    """A subgroup of a partial group as a TableGroup (tokens = pg indices)."""
    from .groups import TableGroup

    toks = sorted(set(members))
    rows = pg.rows

    def mul(a: int, b: int) -> int:
        c = rows[a][b]
        if c is None:
            raise UndefinedProductError((a, b), "not a subgroup of the partial group")
        return c

    return TableGroup(toks, mul, label_fn=lambda t: pg.labels[t])
