"""Congruence systems and the generic (brute-force) CR tuple decision.

A tuple (theta_1..theta_k) of congruences has the CR property when every
system x = a_i mod theta_i whose targets satisfy the pairwise compatibility
condition (a_i, a_j) in theta_i v theta_j has a simultaneous solution.
Whether a tuple is CR depends only on the underlying partitions, so
everything here works on Partition values; Congruence inputs are unwrapped.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from . import config
from .algebra import as_partitions
from .errors import BudgetExceededError, InputError
from .partitions import Partition, _bits, quotient_partition


class CongruenceSystem(NamedTuple):
    """A compatible system: targets a_i with (a_i,a_j) in theta_i v theta_j."""

    thetas: tuple[Partition, ...]
    targets: tuple[int, ...]

    @property
    def k(self):
        return len(self.thetas)


def make_system(thetas, targets) -> CongruenceSystem:
    parts = as_partitions(thetas)
    targets = tuple(targets)
    if len(targets) != len(parts):
        raise InputError(
            f"{len(parts)} congruences but {len(targets)} targets"
        )
    n = parts[0].n
    for a in targets:
        if not (isinstance(a, int) and 0 <= a < n):
            raise InputError(f"target {a!r} is not an int in 0..{n - 1}")
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            if not parts[i].join(parts[j]).related(targets[i], targets[j]):
                raise InputError(
                    f"incompatible system: targets at coordinates {i + 1} and "
                    f"{j + 1} are not related modulo the join"
                )
    return CongruenceSystem(parts, targets)


def solve_system(system: CongruenceSystem) -> Optional[int]:
    """Least simultaneous solution, or None."""
    mask = -1
    for theta, a in zip(system.thetas, system.targets):
        mask &= theta.block_masks()[theta.labels[a]]
        if mask == 0:
            return None
    return (mask & -mask).bit_length() - 1


class CrVerdict(NamedTuple):
    is_cr: bool
    witness: Optional[tuple[int, ...]]  # targets of the least unsolvable system
    checked: int  # search nodes: labels tried at a coordinate before the last

    def __bool__(self):
        return self.is_cr

    @property
    def line(self) -> str:
        """What `crtkit check` prints under a NOT-CR verdict."""
        return "WITNESS: " + " ".join(str(a) for a in self.witness)


def brute_force_is_cr_tuple(thetas) -> CrVerdict:
    """Decide CR by a depth-first search for an unsolvable compatible system.

    Targets range over block minimums only: replacing each target by the
    least element of its block changes neither compatibility nor solvability.
    The search picks block labels coordinate by coordinate in their fixed
    order, smallest label first; labels increase with their least members,
    so it meets systems in lexicographic order over representatives.

    Forward checking: each later coordinate j keeps a bitmask domain of the
    theta_j-blocks still (theta_i v theta_j)-related to every target chosen
    so far. A label whose choice empties some domain is skipped, since no
    compatible system extends it. At the second-to-last coordinate the last
    one is decided exactly: a last label b is unsolvable when the running
    intersection of chosen blocks misses block b, so the surviving domain
    minus the labels that the intersection hits is the set of unsolvable
    completions, and its least bit is the lex-least. Only subtrees without
    a compatible system are cut, so the witness reported for a failing
    tuple is the lex-least unsolvable compatible system, as an exhaustive
    enumeration would find it.

    `checked` counts search nodes: labels tried at a coordinate before the
    last. Raises BudgetExceededError past the budget: 10^7 nodes, or
    CRTKIT_BUDGET as read at the call.
    """
    parts = as_partitions(thetas)
    limit = config.budget(config.DEFAULT_TUPLE_BUDGET)
    k = len(parts)
    if k == 1:
        return CrVerdict(True, None, 0)
    # compat[i] holds one row per coordinate j > i, in order: row[a] is the
    # bitmask of theta_j-blocks (theta_i v theta_j)-related to block a
    compat = [[] for _ in range(k)]
    for i in range(k):
        reps = parts[i].representatives()
        for j in range(i + 1, k):
            join = parts[i].join(parts[j])
            reach = [0] * join.num_blocks
            for c, b in zip(join.labels, parts[j].labels):
                reach[c] |= 1 << b
            compat[i].append([reach[join.labels[r]] for r in reps])
    masks = [p.block_masks() for p in parts]
    last = k - 1
    last_labels = parts[last].labels
    last_masks = masks[last]
    chosen = [0] * k
    counter = 0

    def descend(depth: int, mask: int, domains: list[int]) -> Optional[int]:
        nonlocal counter
        rows = compat[depth]
        for a in _bits(domains[0]):
            counter += 1
            if counter > limit:
                raise BudgetExceededError(
                    f"search node budget {limit} exhausted",
                    checked=counter - 1,
                    budget=limit,
                )
            narrowed = [dom & row[a] for dom, row in zip(domains[1:], rows)]
            if not all(narrowed):
                continue  # no compatible system extends this choice
            chosen[depth] = a
            new_mask = mask & masks[depth][a]
            if depth + 1 < last:
                found = descend(depth + 1, new_mask, narrowed)
                if found is not None:
                    return found
                continue
            # strike the last labels that the intersection hits
            free = narrowed[0]
            while new_mask and free:
                b = last_labels[(new_mask & -new_mask).bit_length() - 1]
                free &= ~(1 << b)
                new_mask &= ~last_masks[b]
            if free:
                return (free & -free).bit_length() - 1
        return None

    full = [(1 << p.num_blocks) - 1 for p in parts]
    found = descend(0, -1, full)
    if found is None:
        return CrVerdict(True, None, counter)
    chosen[last] = found
    witness = tuple(p.representatives()[c] for p, c in zip(parts, chosen))
    return CrVerdict(False, witness, counter)


def is_cr_pair(theta1, theta2) -> bool:
    """For two congruences, CR is exactly permutability of the pair."""
    parts = as_partitions([theta1, theta2])
    return parts[0].permutes(parts[1])


def quotient_reduce(thetas) -> tuple[Partition, list[Partition]]:
    """Push the tuple down to the quotient by the meet of all members.

    Returns (delta, reduced tuple). The reduced tuple is CR exactly when the
    original is, and its members intersect to the identity. When delta is
    already the identity the original partitions are returned unchanged.
    """
    parts = as_partitions(thetas)
    delta = parts[0]
    for p in parts[1:]:
        delta = delta.meet(p)
    if delta.num_blocks == delta.n:
        return delta, list(parts)
    return delta, [quotient_partition(p, delta) for p in parts]


def lift_witness(delta: Partition, witness) -> tuple[int, ...]:
    """Map a witness on the quotient by delta back to ground-set elements
    (least member of each delta class)."""
    reps = delta.representatives()
    return tuple(reps[c] for c in witness)
