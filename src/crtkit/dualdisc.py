"""CR tuples over algebras with a dual discriminator term, plus the cross
calculus describing their subpowers.

A cross (i a | j b) inside a product with a given shape is the set of tuples
x with x_i = a or x_j = b. Two crosses sharing exactly one coordinate, with
different constants there, compose: any tuple in both lies in the cross that
keeps their unshared coordinate constraints. The crosses containing a
subdirect subpower with full-or-cross pairwise projections are closed under
this composition and cut the subpower out exactly; a subset generates that
family iff it contains every irreducible member.

The tuple decider works on the congruence side: with Sigma the set of
meet-irreducible congruences above the meet of the tuple, CR holds iff every
two distinct members of Sigma either permute, or admit a third member of
Sigma below their composition, or sit jointly above some tuple member. It
runs on the quotient by that meet, where Sigma is read off.
"""

from __future__ import annotations

import collections
import functools
import itertools
from dataclasses import dataclass
from typing import Optional, Sequence

from .algebra import Congruence, FiniteAlgebra, certify
from .conlat import meet_irreducible_congruences
from .errors import InputError, PreconditionError
from .partitions import Partition, quotient_partition
from .terms import quotient


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


def projections_full_or_cross(shape: Sequence[int], tuples) -> bool:
    """The structure hypothesis: onto each coordinate the projection is full,
    and onto each coordinate pair it is full or the trace of one cross.

    The trace of (i a | j b) is row a plus column b of the pair, so a
    projection of its s_i + s_j - 1 pairs is a trace exactly when it holds
    one whole row and one whole column."""
    shape = tuple(shape)
    tuples = list(tuples)
    for i, size in enumerate(shape):
        if {t[i] for t in tuples} != set(range(size)):
            return False
    for i, j in itertools.combinations(range(len(shape)), 2):
        proj = {(t[i], t[j]) for t in tuples}
        if len(proj) == shape[i] * shape[j]:
            continue
        rows = collections.Counter(x for x, _ in proj)
        columns = collections.Counter(y for _, y in proj)
        if len(proj) != shape[i] + shape[j] - 1 or not (
            shape[j] in rows.values() and shape[i] in columns.values()
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# the congruence-tuple decider


def sigma_above(alg: FiniteAlgebra, delta: Partition) -> list[Partition]:
    """Meet-irreducible congruences lying above the congruence delta, sorted
    by label vector. They are read off alg / delta: the interval [delta, 1]
    of Con(alg) is isomorphic to Con(alg / delta) (correspondence theorem;
    Burris and Sankappanavar, "A Course in Universal Algebra", 1981, §6),
    and a member of the interval has all its upper covers inside it."""
    return sorted(_lift_all(alg, delta)[1].values(), key=lambda p: p.labels)


def _lift_all(alg: FiniteAlgebra, delta):
    """(alg / delta, {meet-irreducible congruence of alg / delta: its lift
    to alg}); delta is certified unless it is a Congruence of alg."""
    quo, proj = quotient(alg, delta)
    return quo, {
        c.partition: Partition(c.partition.labels[x] for x in proj)
        for c in meet_irreducible_congruences(quo)
    }


def _inside_composition(lam: Partition, mu: Partition, part: Partition) -> bool:
    """Whether part lies inside lam o mu. (x, y) is in lam o mu iff some
    element carries lam's label of x and mu's label of y, so a block B of
    part lies inside iff every pair in lam(B) x mu(B) occurs on an element."""
    occurring = set(zip(lam.labels, mu.labels))
    for block in part.blocks():
        lam_labels = {lam.labels[x] for x in block}
        mu_labels = {mu.labels[x] for x in block}
        if any((a, b) not in occurring for a in lam_labels for b in mu_labels):
            return False
    return True


def _cut_out_by_pairs(rows) -> bool:
    """Whether a set of equal-length tuples holds every tuple whose
    projections onto pairs of coordinates all occur among its own: extending
    its projection onto the coordinates before t by coordinate t, under the
    pair constraints with t, must give exactly its projection onto one more
    coordinate, for every t."""
    rows = list(rows)
    for t in range(len(rows[0])):
        pairs = [{(r[i], r[t]) for r in rows} for i in range(t)]
        values = {r[t] for r in rows}
        extended = sum(
            1
            for p in {r[:t] for r in rows}
            for v in values
            if all((p[i], v) in pairs[i] for i in range(t))
        )
        if extended != len({r[: t + 1] for r in rows}):
            return False
    return True


@dataclass(frozen=True)
class DdVerdict:
    is_cr: bool
    failing_pair: Optional[tuple[Partition, Partition]] = None

    def __bool__(self):
        return self.is_cr

    @property
    def line(self) -> str:
        """What `crtkit check` prints under a NOT-CR verdict."""
        left, right = (" ".join(str(v) for v in p.labels) for p in self.failing_pair)
        return f"REASON: non-permuting {left} / {right}"


def is_cr_tuple_dualdisc(alg: FiniteAlgebra, thetas) -> DdVerdict:
    """Decide CR for congruences of an algebra with a dual discriminator term
    (caller-asserted; the congruence lattice must at least be distributive).

    The tuple is certified on alg (algebra.certify). The decision then
    runs on alg / delta, delta the meet of the tuple (see sigma_above), and
    the failing pair is lifted back to alg. Members must be intersections of meet-irreducible
    congruences there; a member that is not shows that the congruence
    lattice is not distributive (PreconditionError).
    """
    parts = [c.partition for c in certify(alg, thetas)]
    delta = functools.reduce(Partition.meet, parts)
    quo, lift = _lift_all(alg, Congruence(alg, delta))
    down = [quotient_partition(p, delta) for p in parts]
    for pos, part in enumerate(down):
        above = [m for m in lift if part.refines(m)]
        if functools.reduce(Partition.meet, above, Partition.total(quo.size)) != part:
            raise PreconditionError(
                f"tuple member {pos + 1} is a congruence of {alg.name} but not "
                f"an intersection of meet-irreducible congruences, so the "
                f"congruence lattice of {alg.name} is not distributive"
            )
    # ordered as their lifts, so the failing pair is the one found on alg
    sigma = sorted(lift, key=lambda m: lift[m].labels)
    # In a dual discriminator variety each alg / s (s in sigma) is simple with
    # the term acting as the dual discriminator d, so the rows of s-labels of
    # the elements are closed under d, a majority operation: cut out by their
    # projections onto pairs (Baker and Pixley), each full or one cross.
    # Conversely such rows form a subalgebra of a product of simple algebras
    # under d whose meet-irreducible congruences are, by Jonsson's lemma,
    # exactly sigma, so the decision below is the one for that subalgebra.
    rows = {tuple(s.labels[x] for s in sigma) for x in range(quo.size)}
    shape = [s.num_blocks for s in sigma]
    if not (projections_full_or_cross(shape, rows) and _cut_out_by_pairs(rows)):
        raise PreconditionError(
            f"{alg.name} modulo the meet of the tuple is not closed under the "
            "dual discriminator on its meet-irreducible quotients, so it lies "
            "in no dual discriminator variety"
        )
    for lam, mu in itertools.combinations(sigma, 2):
        if lam.permutes(mu):
            continue
        if any(
            s != lam and s != mu and _inside_composition(lam, mu, s) for s in sigma
        ):
            continue
        lm = lam.meet(mu)
        if any(p.refines(lm) for p in down):
            continue
        return DdVerdict(False, (lift[lam], lift[mu]))
    return DdVerdict(True)
