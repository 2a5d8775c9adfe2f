"""Stock finite algebras used across the library, tests, and the CLI."""

from __future__ import annotations

import itertools

from .algebra import FiniteAlgebra, Operation, subalgebra
from .errors import InputError


def chain_lattice(n: int) -> FiniteAlgebra:
    """The n-element chain 0 < 1 < ... < n-1 with meet=min, join=max."""
    if n < 1:
        raise InputError("a chain needs at least one element")
    meet = tuple(min(x, y) for x in range(n) for y in range(n))
    join = tuple(max(x, y) for x in range(n) for y in range(n))
    return FiniteAlgebra(
        n,
        [Operation("meet", 2, meet), Operation("join", 2, join)],
        name=f"chain{n}",
    )


def boolean_lattice(num_atoms: int) -> FiniteAlgebra:
    """Subsets of an num_atoms-set as bitmasks, under intersection and union."""
    if num_atoms < 0:
        raise InputError("negative atom count")
    n = 1 << num_atoms
    meet = tuple(x & y for x in range(n) for y in range(n))
    join = tuple(x | y for x in range(n) for y in range(n))
    return FiniteAlgebra(
        n,
        [Operation("meet", 2, meet), Operation("join", 2, join)],
        name=f"bool{num_atoms}",
    )


def _lattice_from_order(leq: list[list[bool]], name: str) -> FiniteAlgebra:
    n = len(leq)

    def below(x, y):
        return [z for z in range(n) if leq[z][x] and leq[z][y]]

    def above(x, y):
        return [z for z in range(n) if leq[x][z] and leq[y][z]]

    meet, join = [], []
    for x in range(n):
        for y in range(n):
            lows = below(x, y)
            m = [z for z in lows if all(leq[w][z] for w in lows)]
            highs = above(x, y)
            j = [z for z in highs if all(leq[z][w] for w in highs)]
            if len(m) != 1 or len(j) != 1:
                raise InputError(f"order is not a lattice at ({x},{y})")
            meet.append(m[0])
            join.append(j[0])
    return FiniteAlgebra(
        n,
        [Operation("meet", 2, tuple(meet)), Operation("join", 2, tuple(join))],
        name=name,
    )


def diamond_m3() -> FiniteAlgebra:
    """Bottom 0, atoms 1,2,3, top 4: modular, not distributive."""
    n = 5
    leq = [[False] * n for _ in range(n)]
    for x in range(n):
        leq[x][x] = True
        leq[0][x] = True
        leq[x][4] = True
    return _lattice_from_order(leq, "M3")


def zmod_ring(n: int) -> FiniteAlgebra:
    """The ring of integers mod n with addition, negation, multiplication, 0."""
    if n < 1:
        raise InputError("modulus must be positive")
    add = tuple((x + y) % n for x in range(n) for y in range(n))
    mul = tuple((x * y) % n for x in range(n) for y in range(n))
    neg = tuple((-x) % n for x in range(n))
    return FiniteAlgebra(
        n,
        [
            Operation("add", 2, add),
            Operation("mul", 2, mul),
            Operation("neg", 1, neg),
            Operation("zero", 0, (0,)),
        ],
        name=f"Z{n}",
    )


def zmod_group(n: int) -> FiniteAlgebra:
    if n < 1:
        raise InputError("modulus must be positive")
    add = tuple((x + y) % n for x in range(n) for y in range(n))
    neg = tuple((-x) % n for x in range(n))
    return FiniteAlgebra(
        n,
        [Operation("add", 2, add), Operation("neg", 1, neg), Operation("zero", 0, (0,))],
        name=f"Z{n}+",
    )


# --- two-element algebras, keyed by the ternary operation they carry --------


def two_nearlattice() -> FiniteAlgebra:
    """({0,1}, n) with n(x,y,z) = (x and y) or z."""
    table = tuple((x & y) | z for x in range(2) for y in range(2) for z in range(2))
    return FiniteAlgebra(2, [Operation("n", 3, table)], name="2N")


def two_majority() -> FiniteAlgebra:
    table = tuple(
        1 if x + y + z >= 2 else 0 for x in range(2) for y in range(2) for z in range(2)
    )
    return FiniteAlgebra(2, [Operation("m", 3, table)], name="2maj")


def two_minority() -> FiniteAlgebra:
    table = tuple(x ^ y ^ z for x in range(2) for y in range(2) for z in range(2))
    return FiniteAlgebra(2, [Operation("s", 3, table)], name="2min")


def two_lattice() -> FiniteAlgebra:
    return chain_lattice(2)


def two_join_semilattice() -> FiniteAlgebra:
    join = tuple(x | y for x in range(2) for y in range(2))
    return FiniteAlgebra(2, [Operation("join", 2, join)], name="2sl")


def two_implication() -> FiniteAlgebra:
    """({0,1}, ->) with x -> y = (not x) or y."""
    imp = tuple((1 - x) | y for x in range(2) for y in range(2))
    return FiniteAlgebra(2, [Operation("imp", 2, imp)], name="2imp")


def left_zero_mul(n: int) -> Operation:
    """The left-zero product x * y = x on n elements."""
    mul = itertools.chain.from_iterable(itertools.repeat(x, n) for x in range(n))
    return Operation("mul", 2, tuple(mul))


def left_zero_semigroup(n: int) -> FiniteAlgebra:
    """x * y = x; every partition is a congruence."""
    if n < 1:
        raise InputError("need at least one element")
    return FiniteAlgebra(n, [left_zero_mul(n)], name=f"LZ{n}")


def bare_set(n: int) -> FiniteAlgebra:
    """No operations at all; congruences are exactly the partitions."""
    if n < 1:
        raise InputError("need at least one element")
    return FiniteAlgebra(n, [], name=f"set{n}")


# --- products and tuple coding ----------------------------------------------


def tuple_to_index(t, base: int) -> int:
    idx = 0
    for v in t:
        idx = idx * base + v
    return idx


def index_to_tuple(idx: int, base: int, length: int) -> tuple[int, ...]:
    out = []
    for _ in range(length):
        out.append(idx % base)
        idx //= base
    return tuple(reversed(out))


def power_algebra(alg: FiniteAlgebra, exponent: int) -> FiniteAlgebra:
    """Direct power with pointwise operations; tuples are coded base alg.size
    with the leftmost coordinate most significant."""
    if exponent < 1:
        raise InputError("exponent must be at least 1")
    n = alg.size
    size = n**exponent
    ops = []
    for op in alg.ops:
        table = []
        for args in itertools.product(range(size), repeat=op.arity):
            cols = [index_to_tuple(a, n, exponent) for a in args]
            value = tuple(
                alg.apply(op.name, *(cols[j][i] for j in range(op.arity)))
                for i in range(exponent)
            )
            table.append(tuple_to_index(value, n))
        ops.append(Operation(op.name, op.arity, tuple(table)))
    return FiniteAlgebra(size, ops, name=f"{alg.name}^{exponent}")


def fork_nearlattice() -> tuple[FiniteAlgebra, list[tuple[int, int]]]:
    """The subalgebra of the squared two-element nearlattice on
    {(0,1),(1,0),(1,1)}; returns the algebra and its coordinate tuples."""
    square = power_algebra(two_nearlattice(), 2)
    coords = [(0, 1), (1, 0), (1, 1)]
    universe = [tuple_to_index(c, 2) for c in coords]
    alg, index = subalgebra(square, universe)
    ordered = sorted(coords, key=lambda c: index[tuple_to_index(c, 2)])
    alg.name = "fork"
    return alg, ordered


def subpower(alg: FiniteAlgebra, coords: list[tuple[int, ...]]):
    """Subalgebra of a power given by explicit coordinate tuples.

    Returns (algebra, ordered coordinate list) with element i of the result
    carrying coords ordered[i]. The tuple set must be closed pointwise.
    """
    if not coords:
        raise InputError("empty coordinate list")
    length = len(coords[0])
    if any(len(c) != length for c in coords):
        raise InputError("coordinate tuples of unequal length")
    big = power_algebra(alg, length)
    universe = [tuple_to_index(c, alg.size) for c in coords]
    sub, index = subalgebra(big, universe)
    ordered = sorted(coords, key=lambda c: index[tuple_to_index(c, alg.size)])
    sub.name = f"{alg.name}^{length}|sub"
    return sub, ordered
