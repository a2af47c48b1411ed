"""Permutation primitives.

A permutation on n points is a tuple of length n whose entry at position i
is the image of point i (0-based internally).  Cycle notation in fixture
files and witness strings is 1-based.
"""

from __future__ import annotations

from typing import Iterable, Sequence

Perm = tuple[int, ...]


def identity_perm(degree: int) -> Perm:
    return tuple(range(degree))


def compose(a: Perm, b: Perm) -> Perm:
    """Right-action composition: point i goes to b[a[i]] (first a, then b)."""
    return tuple(b[x] for x in a)


def invert(a: Perm) -> Perm:
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def perm_order(a: Perm) -> int:
    order = 1
    seen = [False] * len(a)
    for start in range(len(a)):
        if seen[start]:
            continue
        length = 0
        i = start
        while not seen[i]:
            seen[i] = True
            i = a[i]
            length += 1
        order = _lcm(order, length)
    return order


def _lcm(a: int, b: int) -> int:
    from math import gcd

    return a * b // gcd(a, b)


def cycles_to_perm(cycles: Sequence[Sequence[int]], degree: int) -> Perm:
    """Build a permutation from 1-based cycles, e.g. [[1,2],[3,4]] -> (12)(34)."""
    images = list(range(degree))
    for cycle in cycles:
        if len(set(cycle)) != len(cycle):
            raise ValueError(f"repeated point in cycle {cycle}")
        for point in cycle:
            if not 1 <= point <= degree:
                raise ValueError(f"point {point} out of range for degree {degree}")
        for i, point in enumerate(cycle):
            images[point - 1] = cycle[(i + 1) % len(cycle)] - 1
    return tuple(images)


def perm_to_cycles(a: Perm) -> list[list[int]]:
    """1-based disjoint cycles, fixed points omitted, canonical order."""
    seen = [False] * len(a)
    cycles = []
    for start in range(len(a)):
        if seen[start] or a[start] == start:
            seen[start] = True
            continue
        cycle = []
        i = start
        while not seen[i]:
            seen[i] = True
            cycle.append(i + 1)
            i = a[i]
        cycles.append(cycle)
    return cycles


def cycle_string(a: Perm) -> str:
    cycles = perm_to_cycles(a)
    if not cycles:
        return "()"
    return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycles)


def closure(generators: Iterable[Perm], degree: int, cap: int = 10000) -> list[Perm]:
    """BFS closure of a generator set under composition.

    Deterministic: output sorted lexicographically by image tuple.
    Raises ValueError when the closure exceeds cap elements.
    """
    gens = [tuple(g) for g in generators]
    for g in gens:
        if len(g) != degree or sorted(g) != list(range(degree)):
            raise ValueError(f"not a permutation of degree {degree}: {g}")
    elements = {identity_perm(degree)}
    frontier = [identity_perm(degree)]
    while frontier:
        new: list[Perm] = []
        for x in frontier:
            for g in gens:
                y = compose(x, g)
                if y not in elements:
                    elements.add(y)
                    new.append(y)
                    if len(elements) > cap:
                        raise ValueError(f"group order exceeds cap {cap}")
        frontier = new
    return sorted(elements)
