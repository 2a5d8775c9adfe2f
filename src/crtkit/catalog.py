"""Stock finite algebras used across the library, tests, and the CLI."""

from __future__ import annotations

import array

from .algebra import FiniteAlgebra, Operation, _typecode, check_table_size, table_dtype
from .errors import InputError


def _check_count(n, least: int, what: str):
    """Raise InputError unless n is an int (as for FiniteAlgebra.apply) of
    at least least."""
    if not isinstance(n, int):
        raise InputError(f"{what} must be an int, got {n!r}")
    if n < least:
        raise InputError(f"{what} must be at least {least}, got {n}")


def chain_lattice(n: int) -> FiniteAlgebra:
    """The n-element chain 0 < 1 < ... < n-1 with meet=min, join=max."""
    _check_count(n, 1, "a chain's size")
    meet = tuple(min(x, y) for x in range(n) for y in range(n))
    join = tuple(max(x, y) for x in range(n) for y in range(n))
    return FiniteAlgebra(
        n,
        [Operation("meet", 2, meet), Operation("join", 2, join)],
        name=f"chain{n}",
    )


def boolean_lattice(num_atoms: int) -> FiniteAlgebra:
    """Subsets of an num_atoms-set as bitmasks, under intersection and union."""
    _check_count(num_atoms, 0, "the atom count")
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
    _check_count(n, 1, "the modulus")
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
    _check_count(n, 1, "the modulus")
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
    """The left-zero product x * y = x on n elements, built row by row in
    its storage type, so that FiniteAlgebra copies it as one block."""
    _check_count(n, 1, "a semigroup's size")
    code = _typecode(n)
    mul = array.array(code)
    for x in range(n):
        mul += array.array(code, [x]) * n
    return Operation("mul", 2, mul)


def left_zero_semigroup(n: int) -> FiniteAlgebra:
    """x * y = x; every partition is a congruence."""
    return FiniteAlgebra(n, [left_zero_mul(n)], name=f"LZ{n}")


def bare_set(n: int) -> FiniteAlgebra:
    """No operations at all; congruences are exactly the partitions."""
    _check_count(n, 1, "a set's size")
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
    with the leftmost coordinate most significant.

    Every operation of arity k is tabulated on all alg.size ** (exponent * k)
    argument tuples, in lexicographic order of their codes; a nullary
    operation c becomes the constant tuple (c, ..., c). A tuple of A^(j+1)
    codes as its code in A^j times alg.size plus its last coordinate, so
    each table of A^(j+1) is one broadcast product of those of A^j and A,
    in the narrow dtype of the result. Raises InputError for an exponent
    that is not an int or is below 1, for more than 2^64 elements, and
    before tabulating anything when a table would exceed
    algebra.MAX_TABLE_ENTRIES."""
    _check_count(exponent, 1, "exponent")
    n = alg.size
    if n > 1 and exponent > 64:  # so n ** exponent > 2^64 is never computed
        raise InputError(f"{alg.name}^{exponent} has {n}^{exponent} elements, more than 2^64")
    size = n**exponent
    for op in alg.ops:
        check_table_size(size, op.arity, f"{op.name} on {alg.name}^{exponent}")
    ops = []
    for op in alg.ops:
        k = op.arity
        table = alg.table_array(op.name).astype(table_dtype(size))
        images = table
        for m in (n**j for j in range(1, exponent)):
            images = images.reshape([m, 1] * k) * n + table.reshape([1, n] * k)
        ops.append(Operation(op.name, k, images))
    return FiniteAlgebra(size, ops, name=f"{alg.name}^{exponent}")


def fork_nearlattice() -> tuple[FiniteAlgebra, list[tuple[int, int]]]:
    """The subalgebra of the squared two-element nearlattice on
    {(0,1),(1,0),(1,1)}; returns the algebra and its coordinate tuples."""
    alg, ordered = subpower(two_nearlattice(), [(0, 1), (1, 0), (1, 1)])
    alg.name = "fork"
    return alg, ordered


def subpower(alg: FiniteAlgebra, coords: list[tuple[int, ...]]):
    """Subalgebra of a power given by explicit coordinate tuples.

    Returns (algebra, ordered coordinate list) with element i of the result
    carrying the tuple ordered[i]; ordered is the tuples in lexicographic
    order. Each operation of arity r is tabulated on the len(coords) ** r
    argument tuples of the given elements only, never on the whole power.

    Raises InputError when coords is empty, holds a coordinate tuple that is
    not a sequence, tuples of unequal or zero length, a coordinate that is
    not an int (as for FiniteAlgebra.apply) of alg's universe or a tuple
    twice, or is not closed: then the message names the operation, its
    argument tuples and the image tuple that falls outside. Like
    power_algebra, it refuses a table over algebra.MAX_TABLE_ENTRIES
    before tabulating it."""
    if not coords:
        raise InputError("empty coordinate list")
    n = alg.size
    tuples = []
    for c in coords:
        try:
            tuples.append(tuple(c))
        except TypeError:
            raise InputError(f"coordinate tuple {c!r} is not a tuple") from None
    for c in tuples:
        if not all(isinstance(v, int) and 0 <= v < n for v in c):
            raise InputError(f"coordinate tuple {c!r} has an entry not an int in 0..{n - 1}")
    ordered = sorted(tuples)
    length = len(ordered[0])
    if length < 1 or any(len(c) != length for c in ordered):
        raise InputError("coordinate tuples of unequal or zero length")
    for a, b in zip(ordered, ordered[1:]):
        if a == b:
            raise InputError(f"coordinate tuple {a} given twice")
    for op in alg.ops:
        check_table_size(len(ordered), op.arity, f"{op.name} on {len(ordered)} tuples")
    import numpy as np

    if n**length - 1 > np.iinfo(np.intp).max:
        raise InputError(f"tuples of length {length} over {n} elements are too long to code")
    columns = np.array(ordered, dtype=np.intp).T
    elements = np.array([tuple_to_index(c, n) for c in ordered], dtype=np.intp)
    ops = []
    for op in alg.ops:
        table = alg.table_array(op.name)
        images = np.zeros((), dtype=np.intp)
        for digits in columns:
            # intp throughout: a uint64 table would promote the sum to float
            images = np.add(images * n, table[np.ix_(*[digits] * op.arity)], dtype=np.intp)
        images = images.ravel()
        found = np.searchsorted(elements, images).clip(max=len(elements) - 1)
        outside = np.flatnonzero(elements[found] != images)
        if len(outside):
            flat = int(outside[0])
            args = np.unravel_index(flat, (len(ordered),) * op.arity)
            raise InputError(
                f"coordinate tuples not closed: {op.name}"
                f"{tuple(ordered[int(a)] for a in args)} = "
                f"{index_to_tuple(int(images[flat]), n, length)} falls outside"
            )
        ops.append(Operation(op.name, op.arity, found))
    return FiniteAlgebra(len(ordered), ops, name=f"{alg.name}^{length}|sub"), ordered
