"""Congruence lattices: principal congruences, the whole lattice, its
meet-irreducible members, and whether it is distributive or permutable.

Every congruence of a finite algebra is a join of principal congruences,
so principal_partition_set computes those once per strongly connected
component of the graph of pairs under translations, and all_congruences
closes them under join. Every fact of a lattice list reads one scan of
the order among the n*n-bit relation masks of its members (_order).
Results are partitions, or Congruence records of crtkit.algebra.
"""

from __future__ import annotations

import functools
import itertools
import operator

import numpy as np

from . import algebra, config
from .algebra import Congruence, FiniteAlgebra, table_dtype
from .errors import BudgetExceededError, InputError
from .partitions import Partition, _bits, _iterable, _UnionFind


def principal_congruence(alg: FiniteAlgebra, a: int, b: int) -> Congruence:
    """Least congruence relating a and b.

    This is the per-pair reference: it closes one pair under every
    translation with a Python union-find, reading the columns of
    _translations. For the congruences of all pairs, call
    principal_partition_set, which computes each strongly connected
    component of pairs once (on Z60's 1770 pairs about 0.07 s, against
    about 3 s for this function pair by pair)."""
    n = alg.size
    if not all(isinstance(v, int) and 0 <= v < n for v in (a, b)):
        raise InputError(f"elements ({a!r},{b!r}) outside the universe")
    uf = _UnionFind(n)
    if a != b:
        uf.union(a, b)
        queue = [(a, b)]
        images = _translations(alg).T.tolist()
        while queue:
            x, y = queue.pop()
            for u, v in zip(images[x], images[y]):
                if uf.find(u) != uf.find(v):
                    uf.union(u, v)
                    queue.append((u, v))
    return Congruence(alg, Partition(uf.labels()))


def _translations(alg: FiniteAlgebra) -> np.ndarray:
    """The distinct one-variable translations f(c1..x..cm) of alg, as the
    rows of a (count, n) array in lexicographic order (a commutative
    operation yields each at two positions)."""
    n = alg.size
    rows = [np.empty((0, n), dtype=table_dtype(n))]
    for op in alg.ops:
        tbl = alg.table_array(op.name)
        rows += [np.moveaxis(tbl, pos, 0).reshape(n, -1).T for pos in range(op.arity)]
    return _sorted_unique(np.concatenate(rows))


def principal_partition_set(alg: FiniteAlgebra) -> list[Partition]:
    """All distinct principal congruences of distinct pairs, as partitions.

    Pairs are nodes of a graph with an edge {x,y} -> {g(x),g(y)} for every
    one-variable translation g; the congruence generated by a pair is the
    equivalence closure of the pairs reachable from it, so it is computed
    once per strongly connected component of that graph (Freese, "Computing
    congruences efficiently", 2008), children before parents. A graph of
    more than algebra.MAX_PRINCIPAL_EDGES edges raises InputError.
    """
    n = alg.size
    if n == 1:
        return []
    xs, ys = np.triu_indices(n, k=1)
    num_pairs = len(xs)
    pair_id = np.full((n, n), -1, dtype=np.int32)
    pair_id[xs, ys] = np.arange(num_pairs, dtype=np.int32)

    translations = _translations(alg)
    edges = num_pairs * len(translations)
    # read through the module, so a new value of algebra.MAX_PRINCIPAL_EDGES holds here
    limit = algebra.MAX_PRINCIPAL_EDGES
    if edges > limit:
        raise InputError(
            f"the principal congruences of {alg.name} need {num_pairs} pairs x "
            f"{len(translations)} translations = {edges} edges, more than the "
            f"{limit} allowed"
        )
    chunk = max(1, (4 << 20) // num_pairs)
    key_parts = [np.empty(0, dtype=np.int64)]
    for start in range(0, len(translations), chunk):
        block = translations[start : start + chunk]
        gx, gy = block[:, xs], block[:, ys]
        keep = gx != gy
        src = np.broadcast_to(np.arange(num_pairs, dtype=np.int64), gx.shape)[keep]
        dst = pair_id[np.minimum(gx, gy)[keep], np.maximum(gx, gy)[keep]]
        key_parts.append(_sorted_unique(src * num_pairs + dst))
    keys = _sorted_unique(np.concatenate(key_parts))
    src, dst = keys // num_pairs, (keys % num_pairs).astype(np.int32)
    del keys, key_parts
    # keys are sorted, so each node's successors are a contiguous run of dst;
    # the search reads them through a memoryview, 4 bytes an edge
    start = np.searchsorted(src, np.arange(num_pairs + 1)).tolist()
    comp = _strong_components(start, memoryview(dst))

    comp_arr = np.array(comp, dtype=np.int64)
    comp_src, comp_dst = comp_arr[src], comp_arr[dst]
    keep = comp_src != comp_dst
    num_comp = max(comp) + 1
    successors: list[list[int]] = [[] for _ in range(num_comp)]
    for key in _sorted_unique(comp_src[keep] * num_comp + comp_dst[keep]).tolist():
        successors[key // num_comp].append(key % num_comp)
    members: list[list[int]] = [[] for _ in range(num_comp)]
    for pid, c in enumerate(comp):
        members[c].append(pid)

    # components are numbered children first, so every successor's closure
    # is known when its parent's is built; closures are n*n-bit relation
    # masks, and a parent ORs its pairs into its successors' masks
    xs_l, ys_l = xs.tolist(), ys.tolist()
    diagonal = sum(1 << (x * n + x) for x in range(n))
    found: dict[tuple, Partition] = {}
    mask_of: dict[tuple, int] = {}
    closure: list[int] = []
    for c in range(num_comp):
        acc = diagonal
        for pid in members[c]:
            x, y = xs_l[pid], ys_l[pid]
            acc |= 1 << (x * n + y) | 1 << (y * n + x)
        for d in successors[c]:
            acc |= closure[d]
        part = _equivalence_closure(acc, n)
        if part.labels not in found:
            found[part.labels] = part
            mask_of[part.labels] = _relation_mask(part)
        closure.append(mask_of[part.labels])
    return list(found.values())


def _sorted_unique(keys: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, ascending; of a 2-D array,
    its distinct rows in lexicographic order (as np.unique(axis=0) gives).

    np.unique hashes integer input, which took 20 times as long on the
    1.8M edge keys of boolean_lattice(7); on rows it imports numpy.ma,
    about 20 ms of a command's start-up.
    """
    keep = np.empty(len(keys), dtype=bool)
    keep[:1] = True
    if keys.ndim == 1:
        keys = np.sort(keys)
        np.not_equal(keys[1:], keys[:-1], out=keep[1:])
    else:
        # lexsort's last key is its primary one, so column 0 leads
        keys = keys[np.lexsort(keys.T[::-1])]
        np.any(keys[1:] != keys[:-1], axis=1, out=keep[1:])
    return keys[keep]


def _strong_components(start: list[int], succ) -> list[int]:
    """Tarjan's strongly connected components of the graph whose node v has
    successors succ[start[v]:start[v + 1]], without recursion.

    Returns each node's component number. Components are numbered in the
    order Tarjan completes them, so every edge between two components runs
    from a higher number to a lower one.
    """
    num = len(start) - 1
    index = [-1] * num
    low = [0] * num
    on_stack = [False] * num
    comp = [-1] * num
    stack: list[int] = []
    counter = num_comp = 0
    for root in range(num):
        if index[root] >= 0:
            continue
        index[root] = low[root] = counter
        counter += 1
        stack.append(root)
        on_stack[root] = True
        work = [[root, start[root]]]
        while work:
            frame = work[-1]
            v, i = frame
            end = start[v + 1]
            while i < end:
                w = succ[i]
                i += 1
                if index[w] < 0:
                    frame[1] = i
                    index[w] = low[w] = counter
                    counter += 1
                    stack.append(w)
                    on_stack[w] = True
                    work.append([w, start[w]])
                    break
                if on_stack[w] and index[w] < low[v]:
                    low[v] = index[w]
            else:
                work.pop()
                if low[v] == index[v]:
                    while True:
                        w = stack.pop()
                        on_stack[w] = False
                        comp[w] = num_comp
                        if w == v:
                            break
                    num_comp += 1
                if work:
                    u = work[-1][0]
                    if low[v] < low[u]:
                        low[u] = low[v]
    return comp


def _relation_mask(part: Partition) -> int:
    """part as an n*n-bit relation mask: bit x*n + y is set iff x ~ y."""
    n = part.n
    blocks = part.block_masks()
    mask = 0
    for x, lab in enumerate(part.labels):
        mask |= blocks[lab] << (x * n)
    return mask


def _equivalence_closure(mask: int, n: int) -> Partition:
    """Least equivalence containing a reflexive, symmetric relation mask."""
    full = (1 << n) - 1
    rows = [mask >> (x * n) & full for x in range(n)]
    labels = [-1] * n
    count = 0
    for x in range(n):
        if labels[x] >= 0:
            continue
        block = rows[x]
        frontier = block ^ 1 << x
        while frontier:
            grown = 0
            for y in _bits(frontier):
                grown |= rows[y]
            frontier = grown & ~block
            block |= frontier
        labels[x] = count
        for y in _bits(block ^ 1 << x):
            labels[y] = count
        count += 1
    return Partition(labels)


def all_congruences(alg: FiniteAlgebra) -> list[Congruence]:
    """The whole congruence lattice: join closure of the principal congruences.

    Every congruence is a join of principal ones, so each new member is
    joined only with the principal congruences. Results come back sorted by
    label vector. Raises BudgetExceededError when the lattice outgrows the
    budget: 100000 members, or CRTKIT_BUDGET as read at the call. When
    every operation is a constant or a projection, every partition is a
    congruence, so an algebra whose Bell number exceeds the budget is
    refused before anything is enumerated.
    """
    limit = config.budget(config.DEFAULT_CONGRUENCE_BUDGET)
    n = alg.size

    def refuse():
        raise BudgetExceededError(
            f"congruence lattice of {alg.name} exceeds {limit} members",
            checked=limit + 1,
            budget=limit,
        )

    if not alg.nontrivial_ops() and _bell_exceeds(n, limit):
        refuse()
    known: dict[tuple, Partition] = {}
    ident = Partition.identity(n)
    known[ident.labels] = ident

    def admit(p: Partition):
        known[p.labels] = p
        worklist.append(p)
        if len(known) > limit:
            refuse()

    worklist = []
    principal = principal_partition_set(alg)
    for p in principal:
        if p.labels not in known:
            admit(p)
    while worklist:
        theta = worklist.pop()
        for other in principal:
            j = theta.join(other)
            if j.labels not in known:
                admit(j)
    return [Congruence(alg, p) for p in sorted(known.values(), key=lambda q: q.labels)]


def _bell_exceeds(n: int, limit: int) -> bool:
    """Whether the partitions of n elements (the Bell number B(n)) are more
    than limit; rows of Bell's triangle are built only until one passes it."""
    row = [1]  # a row of Bell's triangle: it starts with B(k) and ends with B(k + 1)
    for _ in range(n - 1):
        if row[-1] > limit:
            break
        row = list(itertools.accumulate(row, initial=row[-1]))
    return row[-1] > limit


def meet_irreducible_congruences(alg: FiniteAlgebra) -> list[Congruence]:
    """Meet-irreducible congruences, computed from principal congruences only.

    Requires the congruence lattice to be distributive (caller-asserted).
    Every join-irreducible congruence is principal, so _join_irreducibles
    finds them among the principal congruences and the identity, without
    which the atoms would be skipped as least members. Each
    join-irreducible theta then maps to the join of the join-irreducibles
    theta does not sit below: join-primeness keeps theta out of it, so it
    is the largest congruence not above theta. Joins are ORs of relation
    masks, closed once (_equivalence_closure).
    """
    n = alg.size
    _, masks, _, join_irr = _join_irreducibles([Partition.identity(n), *principal_partition_set(alg)])
    out: dict[tuple, Partition] = {}
    for j in join_irr:
        avoiding = (masks[d] for d in join_irr if masks[j] & ~masks[d])
        m = _equivalence_closure(functools.reduce(operator.or_, avoiding, masks[0]), n)
        out[m.labels] = m
    return [Congruence(alg, p) for p in sorted(out.values(), key=lambda q: q.labels)]


def _lattice(lattice) -> list[Partition]:
    """The members of a lattice list, refused with InputError when the list
    is not iterable or a member, named by its position, is no Partition."""
    parts = list(_iterable(lattice, "lattice to be a list of partitions"))
    for i, p in enumerate(parts):
        if not isinstance(p, Partition):
            raise InputError(f"lattice member {i + 1} is not a partition: {p!r}")
    return parts


def _order(lattice):
    """(distinct members, relation masks, indices strictly below each) of a lattice list."""
    parts = list({p.labels: p for p in _lattice(lattice)}.values())
    masks = [_relation_mask(p) for p in parts]
    ids = list(range(len(parts)))  # the rows share these index objects
    below = [  # x <= y iff the mask of x has no bit outside y's
        [x for x, mx in zip(ids, masks) if not mx & outside and x != y]
        for y, outside in zip(ids, [~m for m in masks])
    ]
    return parts, masks, below


def naive_meet_irreducibles(n: int, lattice: list[Partition]) -> list[Partition]:
    """Members theta != top whose strict upper set meets strictly above
    theta, sorted, each as often as listed: a meet is the AND of relation
    masks, read off _order's scan transposed. The name stays while the
    function is exported and the benchmark's tracer wraps it by name."""
    lattice = _lattice(lattice)
    parts, masks, below = _order(lattice)
    proper = [p for p in parts if p.num_blocks > 1]
    if proper:  # refuse as meets of Partition objects would, in the same order
        for p in parts:
            proper[0]._check_same_ground(p)
        total = Partition.total(n)
        if any(below):  # then some meet starts from total(n), on the members' ground set
            total._check_same_ground(proper[0])
    meet = [-1] * len(parts)  # every bit set: the meet of no members
    for y, smaller in enumerate(below):
        for x in smaller:
            meet[x] &= masks[y]
    mi = {p.labels for p, m, mask in zip(parts, meet, masks) if m != mask and p.num_blocks > 1}
    return sorted((p for p in lattice if p.labels in mi), key=lambda q: q.labels)


# ---------------------------------------------------------------------------
# lattice properties


def is_arithmetic(alg: FiniteAlgebra) -> bool:
    """Congruence-distributive and congruence-permutable."""
    lattice = [c.partition for c in all_congruences(alg)]
    return congruence_lattice_is_permutable(lattice) and congruence_lattice_is_distributive(lattice)


def congruence_lattice_is_distributive(lattice: list[Partition]) -> bool:
    """Whether a whole congruence lattice is distributive, by Birkhoff's count.

    The argument is a whole congruence lattice Con(A), as every caller
    passes, or another set of partitions closed under their join and meet;
    on any other list the verdict means nothing. In a finite lattice L
    every x is the join of the join-irreducibles below it, so x -> {j in
    J(L) : j <= x} is one-to-one into the down-sets of J(L); it is onto,
    and L distributive, exactly when J(L) has |L| down-sets (G. Birkhoff,
    "Rings of sets", 1937). The order of J(L) is read off _order's scan,
    and the down-sets are counted with an early stop at |L| + 1.
    """
    parts, _, below, join_irr = _join_irreducibles(lattice)
    bit = {j: 1 << a for a, j in enumerate(join_irr)}
    down = [bit[j] | sum(bit.get(x, 0) for x in below[j]) for j in join_irr]
    up = [sum(bit[j] for j, d in zip(join_irr, down) if d & b) for b in bit.values()]
    return not parts or _count_down_sets(down, up, len(parts) + 1) == len(parts)


def _count_down_sets(down: list[int], up: list[int], limit: int) -> int:
    """Down-sets of the poset whose element a has down-set down[a] and
    up-set up[a] (bitmasks, a included), counted up to limit.

    The down-sets of S that omit a are those of S minus up[a]; those that
    hold a are down[a] joined to a down-set of S minus down[a]. Each leaf of
    that recursion is one down-set, so the walk stops after 2 * limit nodes.
    """
    count = 0
    stack = [(1 << len(down)) - 1]
    while stack:
        rest = stack.pop()
        if not rest:
            count += 1
            if count >= limit:
                break
            continue
        a = rest.bit_length() - 1
        stack.append(rest & ~up[a])
        stack.append(rest & ~down[a])
    return count


def _join_irreducibles(lattice: list[Partition]):
    """_order's scan and its join-irreducible members: those the members
    strictly below do not join to, which shows in the count of blocks. The
    list is closed under join, or is an algebra's principal congruences with
    the identity first, below each of which every congruence is such a join."""
    parts, masks, below = _order(lattice)
    join_irr = []
    for j, smaller in enumerate(below):
        if smaller:  # the least member is the empty join
            join = functools.reduce(operator.or_, (masks[x] for x in smaller))
            if _equivalence_closure(join, parts[j].n).num_blocks != parts[j].num_blocks:
                join_irr.append(j)
    return parts, masks, below, join_irr


def congruence_lattice_is_permutable(lattice: list[Partition]) -> bool:
    """Whether every two members of a whole congruence lattice permute.

    Only pairs of join-irreducible members are tested. If b permutes with
    a1 and a2, it permutes with a1 o a2 and so with a1 v a2, the union of
    the powers of a1 o a2; every member is a join of join-irreducibles (the
    least member, the empty join, permutes with all members, which lie
    above it), so permuting join-irreducibles make every pair permute.
    Partition.permutes is symmetric, so each unordered pair is tested once."""
    parts, _, _, join_irr = _join_irreducibles(lattice)
    ji = [parts[j] for j in join_irr]
    return all(x.permutes(y) for i, x in enumerate(ji) for y in ji[i + 1 :])
