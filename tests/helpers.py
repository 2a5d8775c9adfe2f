"""Shared fixture builders for the test suite."""

import itertools

from crtkit import config
from crtkit.algebra import FiniteAlgebra, Operation, generated_subuniverse
from crtkit.catalog import index_to_tuple, power_algebra, subpower, tuple_to_index
from crtkit.errors import BudgetExceededError
from crtkit.partitions import Partition
from crtkit.systems import CrVerdict, _tuple_of_partitions


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
