"""Partitions of {0..n-1}, the ground set machinery.

A partition is stored as a label vector in canonical form: block labels are
assigned 0, 1, 2, ... in order of first occurrence, so two partitions are
equal as set-partitions exactly when their label vectors compare equal.
Block k's least member is the k-th smallest block minimum, so iterating
blocks in label order visits them ordered by least element.
"""

from __future__ import annotations

import operator

from .errors import InputError, PreconditionError


def canonical_labels(seq) -> tuple[int, ...]:
    """Relabel a sequence by first occurrence: [5,7,5] -> (0,1,0)."""
    remap: dict[int, int] = {}
    out = []
    for value in seq:
        if value not in remap:
            remap[value] = len(remap)
        out.append(remap[value])
    return tuple(out)


class _UnionFind:
    """Union-find over 0..n-1 with path halving and union by size."""

    def __init__(self, n: int):
        self.parent = list(range(n))
        self.size = [1] * n

    def find(self, x: int) -> int:
        parent = self.parent
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(self, x: int, y: int) -> bool:
        """Merge the blocks of x and y; return True when they were distinct."""
        rx, ry = self.find(x), self.find(y)
        if rx == ry:
            return False
        if self.size[rx] < self.size[ry]:
            rx, ry = ry, rx
        self.parent[ry] = rx
        self.size[rx] += self.size[ry]
        return True

    def labels(self) -> tuple[int, ...]:
        return canonical_labels(self.find(x) for x in range(len(self.parent)))


class Partition:
    """An equivalence relation on {0..n-1}, canonically labelled."""

    __slots__ = ("labels", "n", "num_blocks", "_blocks", "_masks")

    def __init__(self, labels):
        try:
            labels = canonical_labels(labels)
        except TypeError:  # not iterable, or an unhashable label
            raise InputError(f"partition labels {labels!r} are not a sequence of labels") from None
        if not labels:
            raise InputError("a partition needs a nonempty ground set")
        self.labels = labels
        self.n = len(labels)
        self.num_blocks = max(labels) + 1
        self._blocks = None
        self._masks = None

    @classmethod
    def identity(cls, n: int) -> "Partition":
        return cls(range(n))

    @classmethod
    def total(cls, n: int) -> "Partition":
        return cls([0] * n)

    @classmethod
    def from_blocks(cls, n: int, blocks) -> "Partition":
        labels = [-1] * n
        for k, block in enumerate(blocks):
            for x in block:
                if not (isinstance(x, int) and 0 <= x < n):
                    raise InputError(f"element {x!r} is not an int in 0..{n - 1}")
                if labels[x] != -1:
                    raise InputError(f"element {x} appears in two blocks")
                labels[x] = k
        if -1 in labels:
            raise InputError(f"element {labels.index(-1)} missing from the blocks")
        return cls(labels)

    @classmethod
    def from_pairs(cls, n: int, pairs) -> "Partition":
        """Equivalence closure of a set of pairs."""
        uf = _UnionFind(n)
        for x, y in pairs:
            if not all(isinstance(v, int) and 0 <= v < n for v in (x, y)):
                raise InputError(f"pair ({x!r}, {y!r}) is not two ints in 0..{n - 1}")
            uf.union(x, y)
        return cls(uf.labels())

    def __eq__(self, other):
        return isinstance(other, Partition) and self.labels == other.labels

    def __hash__(self):
        return hash(self.labels)

    def __repr__(self):
        return f"Partition({list(self.labels)})"

    def related(self, x: int, y: int) -> bool:
        return self.labels[x] == self.labels[y]

    def blocks(self) -> list[list[int]]:
        """Blocks ordered by least member, each sorted."""
        if self._blocks is None:
            blocks = [[] for _ in range(self.num_blocks)]
            for x, lab in enumerate(self.labels):
                blocks[lab].append(x)
            self._blocks = blocks
        return self._blocks

    def block_masks(self) -> list[int]:
        """Bitmask of each block, indexed by label."""
        if self._masks is None:
            masks = [0] * self.num_blocks
            for x, lab in enumerate(self.labels):
                masks[lab] |= 1 << x
            self._masks = masks
        return self._masks

    def representatives(self) -> list[int]:
        """Least member of each block, in increasing order."""
        return [block[0] for block in self.blocks()]

    def refines(self, other: "Partition") -> bool:
        """True when every block of self lies inside a block of other."""
        self._check_same_ground(other)
        image = [-1] * self.num_blocks
        for x in range(self.n):
            lab = self.labels[x]
            if image[lab] == -1:
                image[lab] = other.labels[x]
            elif image[lab] != other.labels[x]:
                return False
        return True

    def join(self, other: "Partition") -> "Partition":
        """Least common coarsening (transitive closure of the union)."""
        self._check_same_ground(other)
        # merge the blocks of self that meet a common block of other
        uf = _UnionFind(self.num_blocks)
        first = [-1] * other.num_blocks
        for a, b in zip(self.labels, other.labels):
            if first[b] < 0:
                first[b] = a
            elif first[b] != a:
                uf.union(first[b], a)
        return Partition([uf.find(a) for a in self.labels])

    def meet(self, other: "Partition") -> "Partition":
        """Greatest common refinement (pairwise label intersection)."""
        self._check_same_ground(other)
        return Partition(zip(self.labels, other.labels))

    def permutes(self, other: "Partition") -> bool:
        """Whether x = self and y = other permute, x o y = y o x.

        They do iff x o y is x v y, i.e. iff inside each block of x v y every
        x-block meets every y-block. Inside a block B of x v y at most
        (#x-blocks in B) * (#y-blocks in B) pairs of them meet, so x and y
        permute iff the distinct (x-label, y-label) pairs number the sum of
        these products over the blocks of x v y. The test is symmetric."""
        join = self.join(other)
        x_blocks = [0] * join.num_blocks
        y_blocks = [0] * join.num_blocks
        for a in self.representatives():
            x_blocks[join.labels[a]] += 1
        for b in other.representatives():
            y_blocks[join.labels[b]] += 1
        pairs = len(set(zip(self.labels, other.labels)))
        return pairs == sum(map(operator.mul, x_blocks, y_blocks))

    def _check_same_ground(self, other: "Partition"):
        if self.n != other.n:
            raise InputError(
                f"partitions over different ground sets ({self.n} vs {other.n})"
            )


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def quotient_partition(theta: Partition, delta: Partition) -> Partition:
    """Push theta down to the delta-classes; requires delta to refine theta.

    Class k of delta is its block with the k-th smallest minimum, so the
    result's ground set is 0..delta.num_blocks-1 in least-member order.
    """
    if not delta.refines(theta):
        raise PreconditionError("delta does not refine theta")
    reps = delta.representatives()
    return Partition(theta.labels[r] for r in reps)
