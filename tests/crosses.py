"""The cross calculus describing subpowers in a dual discriminator variety.

A cross (i a | j b) inside a product with a given shape is the set of tuples
x with x_i = a or x_j = b. Two crosses sharing exactly one coordinate, with
different constants there, compose: any tuple in both lies in the cross that
keeps their unshared coordinate constraints. The crosses containing a
subdirect subpower with full-or-cross pairwise projections are closed under
this composition and cut the subpower out exactly; a subset generates that
family iff it contains every irreducible member.

The tests check these theorems on families that pass crtkit.dualdisc's
structure test (projections_full_or_cross); the decider itself builds no
cross family.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from crtkit.errors import InputError


@dataclass(frozen=True, order=True)
class Cross:
    """Normalized: i < j; members are tuples with x_i = a or x_j = b."""

    i: int
    a: int
    j: int
    b: int


def make_cross(shape: Sequence[int], i: int, a: int, j: int, b: int) -> Cross:
    shape = tuple(shape)
    if i == j:
        raise InputError("a cross needs two distinct coordinates")
    if j < i:
        i, a, j, b = j, b, i, a
    if not (0 <= i < len(shape) and 0 <= j < len(shape)):
        raise InputError("coordinate index outside the shape")
    if not (0 <= a < shape[i] and 0 <= b < shape[j]):
        raise InputError("cross constant outside its domain")
    return Cross(i, a, j, b)


def cross_contains(cross: Cross, tup: Sequence[int]) -> bool:
    return tup[cross.i] == cross.a or tup[cross.j] == cross.b


def all_crosses(shape: Sequence[int]):
    shape = tuple(shape)
    for i in range(len(shape)):
        for j in range(i + 1, len(shape)):
            for a in range(shape[i]):
                for b in range(shape[j]):
                    yield Cross(i, a, j, b)


def crosses_containing(shape: Sequence[int], tuples) -> frozenset[Cross]:
    tuples = list(tuples)
    return frozenset(
        c for c in all_crosses(shape) if all(cross_contains(c, t) for t in tuples)
    )


def intersect_crosses(shape: Sequence[int], crosses) -> set[tuple[int, ...]]:
    crosses = list(crosses)
    return {
        t
        for t in itertools.product(*(range(s) for s in shape))
        if all(cross_contains(c, t) for c in crosses)
    }


def compose_crosses(c1: Cross, c2: Cross) -> Optional[Cross]:
    """The composed cross when the two share exactly one coordinate with
    different constants there; None otherwise."""
    pairs1 = {c1.i: c1.a, c1.j: c1.b}
    pairs2 = {c2.i: c2.a, c2.j: c2.b}
    shared = set(pairs1) & set(pairs2)
    if len(shared) != 1:
        return None
    s = shared.pop()
    if pairs1[s] == pairs2[s]:
        return None
    (i, a) = next((k, v) for k, v in pairs1.items() if k != s)
    (j, b) = next((k, v) for k, v in pairs2.items() if k != s)
    if j < i:
        i, a, j, b = j, b, i, a
    return Cross(i, a, j, b)


def cross_closure(crosses) -> frozenset[Cross]:
    """Least superset closed under composition of compatible members."""
    found = set(crosses)
    frontier = list(found)
    while frontier:
        c1 = frontier.pop()
        for c2 in list(found):
            for x, y in ((c1, c2), (c2, c1)):
                composed = compose_crosses(x, y)
                if composed is not None and composed not in found:
                    found.add(composed)
                    frontier.append(composed)
    return frozenset(found)


def irreducible_crosses(closed) -> frozenset[Cross]:
    """Members not regenerated by the rest; a subset generates the family
    iff it contains all of them."""
    closed = frozenset(closed)
    return frozenset(c for c in closed if c not in cross_closure(closed - {c}))


def generates(basis, closed) -> bool:
    closed = frozenset(closed)
    basis = frozenset(basis)
    return basis <= closed and irreducible_crosses(closed) <= basis
