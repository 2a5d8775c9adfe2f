"""Shared fixture builders for the test suite."""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional

from crtkit import config
from crtkit.algebra import App, FiniteAlgebra, Operation, Term, Var, generated_subuniverse
from crtkit.catalog import index_to_tuple, power_algebra, subpower, tuple_to_index
from crtkit.errors import BudgetExceededError, InputError
from crtkit.partitions import Partition
from crtkit.postlattice import PROJ_X, PROJ_Y, PROJ_Z
from crtkit.systems import CrVerdict, _tuple_of_partitions

if TYPE_CHECKING:
    import numpy as np


def set_partitions(n):
    """All partitions of {0..n-1}, via restricted growth strings."""
    out = []

    def grow(prefix, used):
        if len(prefix) == n:
            out.append(Partition(prefix))
            return
        for label in range(used + 1):
            grow(prefix + [label], max(used, label + 1))

    grow([0], 1)
    return out


def naive_is_congruence(alg, part):
    """Direct definition: every operation maps related tuples to related values."""
    for op in alg.ops:
        for args in itertools.product(range(alg.size), repeat=op.arity):
            for pos in range(op.arity):
                for b in range(alg.size):
                    if not part.related(args[pos], b):
                        continue
                    other = list(args)
                    other[pos] = b
                    if not part.related(
                        alg.apply(op.name, *args), alg.apply(op.name, *other)
                    ):
                        return False
    return True


def reference_congruence_violation(alg, part):
    """Per-tuple scan for the first violation of compatibility.

    Operations in order, argument tuples in lex order, positions left to
    right, replacements ascending within the block: the order in which
    algebra.congruence_violation reports its witness.
    """
    if part.num_blocks in (1, part.n):
        return None
    labels = part.labels
    blocks = part.blocks()
    for op in alg.ops:
        for args in itertools.product(range(alg.size), repeat=op.arity):
            out = labels[alg.apply(op.name, *args)]
            for pos, x in enumerate(args):
                for y in blocks[labels[x]]:
                    if y <= x:
                        continue
                    other = args[:pos] + (y,) + args[pos + 1 :]
                    if labels[alg.apply(op.name, *other)] != out:
                        return (op.name, pos, args, y)
    return None


def reference_power_algebra(alg: FiniteAlgebra, exponent: int) -> FiniteAlgebra:
    """catalog.power_algebra as it stood before it computed tables with
    numpy digit arithmetic: every entry is evaluated through
    FiniteAlgebra.apply on decoded coordinate tuples."""
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


def closed_subpower(base, m, seeds):
    """Subalgebra of base^m generated by the given coordinate tuples.

    Returns (algebra, ordered coordinate list) as subpower does.
    """
    big = power_algebra(base, m)
    coded = [tuple_to_index(c, base.size) for c in seeds]
    universe = generated_subuniverse(big, coded)
    coords = [index_to_tuple(idx, base.size, m) for idx in universe]
    return subpower(base, coords)


def random_closed_subpower(rng, base, m, num_seeds):
    # a power of a small base may hold fewer tuples than requested
    want = min(num_seeds, base.size**m)
    seeds = set()
    while len(seeds) < want:
        seeds.add(tuple(rng.randrange(base.size) for _ in range(m)))
    return closed_subpower(base, m, sorted(seeds))


def lattice_from_universe(universe, name):
    """Meet/join algebra on a &-and-|-closed set of bitmask-coded elements."""
    elems = sorted(universe)
    index = {v: i for i, v in enumerate(elems)}
    meet = []
    join = []
    for x in elems:
        for y in elems:
            meet.append(index[x & y])
            join.append(index[x | y])
    return FiniteAlgebra(
        len(elems),
        [Operation("meet", 2, tuple(meet)), Operation("join", 2, tuple(join))],
        name=name,
    )


def random_distributive_lattice(rng, num_atoms, max_extra):
    """A random 0-1 sublattice of the boolean lattice on num_atoms atoms.

    Bitmask sets closed under & and | form distributive lattices, and every
    finite distributive lattice arises this way.
    """
    full = (1 << num_atoms) - 1
    universe = {0, full}
    for _ in range(max_extra):
        universe.add(rng.randrange(1 << num_atoms))
    changed = True
    while changed:
        changed = False
        for x, y in itertools.combinations(sorted(universe), 2):
            for z in (x & y, x | y):
                if z not in universe:
                    universe.add(z)
                    changed = True
    return lattice_from_universe(universe, f"dl{len(universe)}")


def reference_brute_force_is_cr_tuple(thetas, budget=None):
    """Enumerate candidate systems one target tuple at a time.

    Targets range over block minimums in lex order, each checked for
    compatibility against the earlier ones, so the first unsolvable system
    met is the lex-least witness that systems.brute_force_is_cr_tuple
    reports. `checked` counts candidate targets tried, not search nodes.
    """
    parts = _tuple_of_partitions(thetas)
    limit = budget if budget is not None else config.budget(config.DEFAULT_TUPLE_BUDGET)
    k = len(parts)
    if k == 1:
        return CrVerdict(True, None, 0)
    reps = [p.representatives() for p in parts]
    masks = [p.block_masks() for p in parts]
    labels = [p.labels for p in parts]
    joins = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            joins[i][j] = parts[i].join(parts[j])

    chosen = [0] * k
    counter = 0

    def descend(depth, mask):
        nonlocal counter
        for a in reps[depth]:
            counter += 1
            if counter > limit:
                raise BudgetExceededError(
                    f"candidate system budget {limit} exhausted",
                    checked=counter - 1,
                    budget=limit,
                )
            ok = True
            for j in range(depth):
                if not joins[j][depth].related(chosen[j], a):
                    ok = False
                    break
            if not ok:
                continue
            chosen[depth] = a
            new_mask = mask & masks[depth][labels[depth][a]]
            if depth + 1 == k:
                if new_mask == 0:
                    return tuple(chosen)
            else:
                hit = descend(depth + 1, new_mask)
                if hit is not None:
                    return hit
        return None

    witness = descend(0, -1)
    return CrVerdict(witness is None, witness, counter)


def reference_is_distributive(lattice):
    """Test the distributive law on every triple of lattice members.

    The O(L^3) loop algebra.congruence_lattice_is_distributive ran before
    it counted down-sets of join-irreducibles.
    """
    for x in lattice:
        for y in lattice:
            for z in lattice:
                if x.meet(y.join(z)) != (x.meet(y)).join(x.meet(z)):
                    return False
    return True


def relation_product(p, q):
    """The relation product p o q as a set of pairs: (u, w) such that some
    v has u p v and v q w.

    This is Partition.compose as it stood before permutability became a
    block count and dualdisc read "s inside lambda o mu" from labels.
    """
    left = p.blocks()
    right = q.blocks()
    return frozenset(
        (u, w)
        for v in range(p.n)
        for u in left[p.labels[v]]
        for w in right[q.labels[v]]
    )


def reference_is_permutable(lattice):
    """Compose every unordered pair of lattice members both ways.

    The loop algebra.congruence_lattice_is_permutable ran before it
    counted block pairs inside the blocks of each join.
    """
    for i, x in enumerate(lattice):
        for y in lattice[i + 1 :]:
            if relation_product(x, y) != relation_product(y, x):
                return False
    return True


def _compose_bits(op: Operation, args: tuple[int, ...]) -> int:
    """Table of op applied to ternary tables, one output bit at a time."""
    out = 0
    for p in range(8):
        idx = 0
        for g in args:
            idx = idx * 2 + (g >> p & 1)
        out |= (op.table[idx] & 1) << p
    return out


def _compose_round(op: Operation, R: np.ndarray) -> np.ndarray:
    """All compositions of one operation against every tuple over R."""
    import numpy as np

    t = op.table
    if op.arity == 1:
        f0 = 0xFF if t[0] else 0
        f1 = 0xFF if t[1] else 0
        return (f0 & ~R & 0xFF) | (f1 & R)
    if op.arity == 2:
        G, H = R[:, None], R[None, :]
        tarr = np.array(t, dtype=np.int64)
        out = np.zeros((R.size, R.size), dtype=np.int64)
        for p in range(8):
            out |= (tarr[(G >> p & 1) << 1 | (H >> p & 1)] & 1) << p
        return out
    # arity 3: with g, h fixed, r -> op(g, h, r) acts bitwise as
    # a XOR ((a XOR b) AND r), where bit p of a is op(g_p, h_p, 0)
    # and bit p of b is op(g_p, h_p, 1)
    G, H = R[:, None], R[None, :]
    tarr = np.array(t, dtype=np.int64)
    A = np.zeros((R.size, R.size), dtype=np.int64)
    B = np.zeros_like(A)
    for p in range(8):
        idx = (G >> p & 1) << 2 | (H >> p & 1) << 1
        A |= (tarr[idx] & 1) << p
        B |= (tarr[idx | 1] & 1) << p
    A8 = A.astype(np.uint8)
    X8 = (A ^ B).astype(np.uint8)
    return A8[:, :, None] ^ (X8[:, :, None] & R.astype(np.uint8)[None, None, :])


def reference_witness_bfs(alg2: FiniteAlgebra, target: Optional[int]):
    """postlattice._witness_bfs as it stood before every arity shared one
    curried composition rule, with its two composition helpers above.

    Breadth-first closure keyed by table; the round number is the term
    depth, so the first term recorded for a table has smallest depth.

    Rounds recompose every tuple over the tables known at round start (a
    table composable from earlier rounds was already found then, so new
    tables really have the current depth). Operations of arity up to 3 run
    through the vectorized round; a new table's witness is decoded from the
    first flat index at which its value occurs."""
    import numpy as np

    witness: dict[int, Term] = {}
    order: list[int] = []  # discovery order

    def add(tab: int, term: Term) -> bool:
        if tab in witness:
            return False
        witness[tab] = term
        order.append(tab)
        return True

    add(PROJ_X, Var(0))
    add(PROJ_Y, Var(1))
    add(PROJ_Z, Var(2))
    for op in alg2.ops:
        if op.arity == 0:
            add(0xFF if op.table[0] else 0x00, App(op.name))
    if target is not None and target in witness:
        return witness, witness[target]
    fast_ops = [op for op in alg2.ops if 1 <= op.arity <= 3]
    slow_ops = [op for op in alg2.ops if op.arity > 3]
    changed = True
    while changed and len(witness) < 256:
        changed = False
        R = np.array(order, dtype=np.int64)
        terms = [witness[t] for t in order]
        for op in fast_ops:
            flat = _compose_round(op, R).ravel()
            counts = np.bincount(flat, minlength=256)
            if all(v in witness for v in np.flatnonzero(counts).tolist()):
                continue
            uniq, first = np.unique(flat, return_index=True)
            for val, pos in zip(uniq.tolist(), first.tolist()):
                if val in witness:
                    continue
                digits = []
                for _ in range(op.arity):  # last axis varies fastest
                    digits.append(pos % R.size)
                    pos //= R.size
                args = tuple(terms[i] for i in reversed(digits))
                add(val, App(op.name, args))
                changed = True
                if target is not None and val == target:
                    return witness, witness[val]
        for op in slow_ops:
            for combo in itertools.product(order[: len(terms)], repeat=op.arity):
                tab = _compose_bits(op, combo)
                if add(tab, App(op.name, tuple(witness[g] for g in combo))):
                    changed = True
                    if target is not None and tab == target:
                        return witness, witness[tab]
    return witness, None


def reference_preserves(op: Operation, rel: frozenset[tuple[int, ...]]) -> bool:
    """postlattice._preserves as it stood before it tested all choices of
    rows at once as bits of one int.

    Does op, applied row-wise to any op.arity rows of rel, give a row of
    rel? A nullary operation c gives the row (c, ..., c). All
    len(rel) ** op.arity choices of rows are tried."""
    value = dict(zip(itertools.product((0, 1), repeat=op.arity), op.table))
    width = len(next(iter(rel)))
    for rows in itertools.product(rel, repeat=op.arity):
        columns = zip(*rows) if rows else [()] * width
        if tuple(map(value.__getitem__, columns)) not in rel:
            return False
    return True
