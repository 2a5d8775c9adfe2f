"""Finite algebras: operation tables, terms, and the congruence toolkit.

A finite algebra is a universe {0..n-1} with a list of named finitary
operations given by flat tables in lexicographic argument order. Congruences
are partitions compatible with every operation; they are produced here
wrapped in a Congruence record that remembers the certifying algebra.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass
from typing import TYPE_CHECKING, NamedTuple, Optional, Union

from . import config
from .errors import BudgetExceededError, InputError, PreconditionError, StructureError
from .partitions import Partition, _bits, _UnionFind, quotient_partition

if TYPE_CHECKING:
    import numpy as np


class Operation(NamedTuple):
    name: str
    arity: int
    table: tuple[int, ...]


class FiniteAlgebra:
    """An algebra on {0..size-1}; equality is object identity.

    A table may be given as a numpy integer array (any shape with size **
    arity entries, flat order as for tuples): it is range-checked with one
    array min and max, and seeds table_arrays(), so an algebra built by
    array arithmetic makes no round trip through Python ints and back."""

    def __init__(self, size: int, ops, name: str = "A"):
        if size < 1:
            raise InputError("the universe must be nonempty")
        self.size = size
        self.name = name
        self._by_name = {}
        self._arrays = []
        checked = []
        for name_, arity, table in ops:
            if name_ in self._by_name:
                raise InputError(f"duplicate operation name {name_!r}")
            if arity < 0:
                raise InputError(f"operation {name_!r} has negative arity")
            is_array = hasattr(table, "dtype")
            if not is_array:
                table = tuple(table)
            entries = table.size if is_array else len(table)
            if entries != size**arity:
                raise InputError(
                    f"operation {name_!r} table has {entries} entries, "
                    f"expected {size**arity}"
                )
            if is_array:
                if table.dtype.kind not in "iu":
                    raise InputError(f"operation {name_!r} table is not integer")
                low, high = table.min(), table.max()
            else:
                low, high = min(table), max(table)
            if low < 0 or high >= size:
                raise InputError(f"operation {name_!r} table value out of range")
            arr = None
            if is_array:
                arr = _frozen_table(table, size, arity)
                table = tuple(arr.ravel().tolist())
            op = Operation(name_, arity, table)
            self._by_name[name_] = op
            self._arrays.append(arr)
            checked.append(op)
        self.ops: tuple[Operation, ...] = tuple(checked)
        # strides[name][i] = weight of argument i in the flat table index
        self._strides = {
            op.name: tuple(size**k for k in range(op.arity - 1, -1, -1))
            for op in self.ops
        }
        self._translations = None

    def op(self, name: str) -> Operation:
        try:
            return self._by_name[name]
        except KeyError:
            raise InputError(f"no operation named {name!r}") from None

    def apply(self, name: str, *args: int) -> int:
        op = self.op(name)
        if len(args) != op.arity:
            raise InputError(
                f"operation {name!r} expects {op.arity} arguments, got {len(args)}"
            )
        idx = 0
        for stride, a in zip(self._strides[name], args):
            idx += stride * a
        return op.table[idx]

    def translations(self) -> list[tuple[int, ...]]:
        """All unary maps f(c1..x..cm) obtained by fixing all but one argument."""
        if self._translations is None:
            n = self.size
            seen = set()
            out = []
            for op in self.ops:
                if op.arity == 0:
                    continue
                if op.arity == 1:
                    candidates = [op.table]
                else:
                    candidates = []
                    for pos in range(op.arity):
                        strides = self._strides[op.name]
                        step = strides[pos]
                        others = [strides[i] for i in range(op.arity) if i != pos]
                        for combo in itertools.product(range(n), repeat=op.arity - 1):
                            base = sum(s * c for s, c in zip(others, combo))
                            candidates.append(
                                tuple(op.table[base + step * x] for x in range(n))
                            )
                for tr in candidates:
                    tr = tuple(tr)
                    if tr not in seen:
                        seen.add(tr)
                        out.append(tr)
            self._translations = out
        return self._translations

    def table_arrays(self) -> list[np.ndarray]:
        """Each operation's table as a read-only array of shape (size,) *
        arity, in the dtype table_dtype(size); tables given as tuples are
        converted on the first call."""
        for i, op in enumerate(self.ops):
            if self._arrays[i] is None:
                self._arrays[i] = _frozen_table(op.table, self.size, op.arity)
        return self._arrays

    def table_array(self, name: str) -> np.ndarray:
        """The table_arrays() entry of the named operation."""
        return self.table_arrays()[self.ops.index(self.op(name))]

    def __repr__(self):
        sig = ", ".join(f"{op.name}/{op.arity}" for op in self.ops)
        return f"FiniteAlgebra({self.name!r}, size={self.size}, ops=[{sig}])"


def _frozen_table(table, size: int, arity: int) -> np.ndarray:
    """A read-only copy of a flat or shaped table, of shape (size,) * arity
    and dtype table_dtype(size)."""
    import numpy as np

    arr = np.array(table, dtype=table_dtype(size)).reshape((size,) * arity)
    arr.flags.writeable = False
    return arr


def table_dtype(size: int):
    """The narrowest unsigned integer dtype holding 0..size-1, in which
    tables, gathers and index grids over a universe of that size are kept."""
    import numpy as np

    return np.min_scalar_type(max(size - 1, 0))


# entries per block of an array kernel over blocks of first arguments
_BLOCK = 1 << 20

# operation tables a constructor may tabulate; one of size ** arity entries
# costs 8 bytes per entry in Operation.table alone
MAX_TABLE_ENTRIES = 1 << 24

# edges (pairs times distinct translations) principal_partition_set may
# walk; it keeps a key of 8 bytes per distinct edge
MAX_PRINCIPAL_EDGES = 1 << 25


def check_table_size(size: int, arity: int, what: str):
    """Raise InputError, before anything is allocated, when a table of
    size ** arity entries would exceed MAX_TABLE_ENTRIES."""
    entries = size**arity
    if entries > MAX_TABLE_ENTRIES:
        raise InputError(
            f"{what} needs a table of {size}^{arity} = {entries} entries, "
            f"more than the {MAX_TABLE_ENTRIES} allowed"
        )


def _associative(np, T: np.ndarray) -> bool:
    """(xy)z = x(yz), tested in blocks of first arguments x of at most about
    _BLOCK entries each, so no n^3 array is ever built; T is narrow, and
    the copy of it that indexes is intp, built once."""
    n = len(T)
    index = T.astype(np.intp)
    rows = max(1, _BLOCK // (n * n))
    return all(
        np.array_equal(T[index[lo : lo + rows]], T[lo : lo + rows][:, index])
        for lo in range(0, n, rows)
    )


_BINARY_LAWS = {
    "commutative": lambda np, T: np.array_equal(T, T.T),
    "associative": _associative,
    "idempotent": lambda np, T: np.array_equal(np.diagonal(T), np.arange(len(T))),
}


def failed_binary_law(T: np.ndarray, laws) -> Optional[str]:
    """The first of `laws` (names in _BINARY_LAWS, tested in the given
    order) that the n x n table T of a binary operation breaks, or None.
    T is read in the dtype table_dtype(n)."""
    import numpy as np

    T = np.asarray(T).astype(table_dtype(len(T)), copy=False)
    return next((law for law in laws if not _BINARY_LAWS[law](np, T)), None)


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Var:
    index: int  # 0-based; printed as x1, x2, ...


@dataclass(frozen=True)
class App:
    op: str
    args: tuple = ()


Term = Union[Var, App]


def eval_term(alg: FiniteAlgebra, term: Term, args) -> int:
    """Evaluate a term tree at a tuple of universe elements."""
    args = tuple(args)
    for a in args:
        if not 0 <= a < alg.size:
            raise InputError(f"argument {a} outside the universe")
    return _eval(alg, term, args)


def _eval(alg, term, args):
    if isinstance(term, Var):
        if not 0 <= term.index < len(args):
            raise InputError(f"term uses x{term.index + 1} but got {len(args)} arguments")
        return args[term.index]
    if not isinstance(term, App):
        raise InputError(f"not a term node: {term!r}")
    op = alg.op(term.op)
    if len(term.args) != op.arity:
        raise InputError(
            f"term applies {term.op!r} to {len(term.args)} subterms, arity is {op.arity}"
        )
    return alg.apply(term.op, *(_eval(alg, t, args) for t in term.args))


def eval_term_grid(alg: FiniteAlgebra, term: Term, grids) -> np.ndarray:
    """Evaluate a term at every point of a grid: grids[i] is an integer
    array (or scalar) of elements for x(i+1), all broadcastable together. A
    Var reads its grid and an App gathers its operation's table_array at
    its subterms' arrays, so the result has the broadcast shape of the
    grids the term uses. Raises InputError where eval_term would."""
    if isinstance(term, Var):
        if not 0 <= term.index < len(grids):
            raise InputError(f"term uses x{term.index + 1} but got {len(grids)} arguments")
        return grids[term.index]
    if not isinstance(term, App):
        raise InputError(f"not a term node: {term!r}")
    op = alg.op(term.op)
    if len(term.args) != op.arity:
        raise InputError(
            f"term applies {term.op!r} to {len(term.args)} subterms, arity is {op.arity}"
        )
    table = alg.table_array(term.op)
    return table[tuple(eval_term_grid(alg, t, grids) for t in term.args)]


def term_table(alg: FiniteAlgebra, term: Term, arity: int) -> np.ndarray:
    """The table of a term read as an operation of the given arity (at
    least 1), as an array of shape (alg.size,) * arity in table_dtype.

    It is evaluated by eval_term_grid over blocks of first arguments of
    about _BLOCK entries each, so what it holds beyond the result is
    bounded. A table over MAX_TABLE_ENTRIES raises InputError before
    anything is allocated."""
    n = alg.size
    check_table_size(n, arity, f"the term {term_str(term)} on {alg.name}")
    import numpy as np

    dtype = table_dtype(n)
    axes = [
        np.arange(n, dtype=dtype).reshape([n if j == i else 1 for j in range(arity)])
        for i in range(arity)
    ]
    out = np.empty((n,) * arity, dtype=dtype)
    rows = max(1, _BLOCK // n ** (arity - 1))
    for lo in range(0, n, rows):
        out[lo : lo + rows] = eval_term_grid(alg, term, [axes[0][lo : lo + rows], *axes[1:]])
    return out


def term_str(term: Term) -> str:
    """Prefix notation: (op sub1 sub2 ...); variables print as x1, x2, ..."""
    if isinstance(term, Var):
        return f"x{term.index + 1}"
    if not term.args:
        return term.op
    return "(" + " ".join([term.op] + [term_str(t) for t in term.args]) + ")"


def term_variables(term: Term) -> set[int]:
    if isinstance(term, Var):
        return {term.index}
    out: set[int] = set()
    for t in term.args:
        out |= term_variables(t)
    return out


# ---------------------------------------------------------------------------
# congruences


@dataclass(frozen=True)
class Congruence:
    """A partition together with the algebra that certified compatibility."""

    algebra: FiniteAlgebra
    partition: Partition

    @property
    def labels(self):
        return self.partition.labels

    @property
    def n(self):
        return self.partition.n

    def __repr__(self):
        return f"Congruence({self.algebra.name!r}, {list(self.labels)})"


def as_partition(x) -> Partition:
    """Accept a Partition or a Congruence wherever only blocks matter."""
    if isinstance(x, Congruence):
        return x.partition
    if isinstance(x, Partition):
        return x
    raise InputError(f"expected a Partition or Congruence, got {type(x).__name__}")


def congruence_violation(alg: FiniteAlgebra, part: Partition):
    """Return None, or (op name, position, args, replacement) witnessing
    an operation that maps a related pair to an unrelated pair.

    The witness is the first in the order (operation, args in lex order,
    position, replacement): an operation respects the partition at a
    position exactly when moving that argument to its block's least member
    never changes the image's block, and the least violating args tuple
    is such a moved tuple.
    """
    if part.n != alg.size:
        raise InputError("partition size does not match the algebra")
    if part.num_blocks in (1, part.n):
        return None
    if all(op.arity == 0 for op in alg.ops):
        return None  # constants respect every partition
    import numpy as np

    labels = np.array(part.labels, dtype=table_dtype(part.num_blocks))
    rep = np.array(part.representatives(), dtype=np.intp)[labels]
    for op, table in zip(alg.ops, alg.table_arrays()):
        image = labels[table]
        starts = []
        for pos, stride in enumerate(alg._strides[op.name]):
            bad = np.flatnonzero(image != image.take(rep, axis=pos))
            if bad.size:
                # flat indices of the mismatches with argument pos moved to its rep
                x = bad // stride % alg.size
                starts.append(int((bad - stride * (x - rep[x])).min()))
        if starts:
            return _violation_at(alg, op, part, min(starts))
    return None


def _violation_at(alg: FiniteAlgebra, op: Operation, part: Partition, idx: int):
    """The first (position, replacement) violation at the flat index idx."""
    labels, blocks, table = part.labels, part.blocks(), op.table
    strides = alg._strides[op.name]
    args = tuple(idx // s % alg.size for s in strides)
    out = labels[table[idx]]
    for pos, x in enumerate(args):
        for y in blocks[labels[x]]:
            if y > x and labels[table[idx + strides[pos] * (y - x)]] != out:
                return (op.name, pos, args, y)
    raise AssertionError("no violation at the located arguments")


def is_congruence(alg: FiniteAlgebra, part) -> bool:
    return congruence_violation(alg, as_partition(part)) is None


def congruence(alg: FiniteAlgebra, part, check: bool = True) -> Congruence:
    part = as_partition(part)
    if check:
        witness = congruence_violation(alg, part)
        if witness is not None:
            name, pos, args, y = witness
            raise StructureError(
                f"not a congruence of {alg.name}: {name} at arguments {args} "
                f"breaks relatedness when x{pos + 1} is replaced by {y}"
            )
    return Congruence(alg, part)


def principal_congruence(alg: FiniteAlgebra, a: int, b: int) -> Congruence:
    """Least congruence relating a and b.

    This is the per-pair reference: it closes one pair under every
    translation with a Python union-find. For the congruences of all pairs,
    call principal_partition_set, which computes each strongly connected
    component of pairs once (on Z60's 1770 pairs about 0.07 s, against
    about 4.3 s for this function pair by pair)."""
    n = alg.size
    if not (0 <= a < n and 0 <= b < n):
        raise InputError(f"elements ({a},{b}) outside the universe")
    uf = _UnionFind(n)
    if a != b:
        uf.union(a, b)
        queue = [(a, b)]
        translations = alg.translations()
        while queue:
            x, y = queue.pop()
            for tr in translations:
                u, v = tr[x], tr[y]
                if uf.find(u) != uf.find(v):
                    uf.union(u, v)
                    queue.append((u, v))
    return Congruence(alg, Partition(uf.labels()))


def principal_partition_set(alg: FiniteAlgebra) -> list[Partition]:
    """All distinct principal congruences of distinct pairs, as partitions.

    Pairs are nodes of a graph with an edge {x,y} -> {g(x),g(y)} for every
    one-variable translation g; the congruence generated by a pair is the
    equivalence closure of the pairs reachable from it, so it is computed
    once per strongly connected component of that graph (Freese, "Computing
    congruences efficiently", 2008), children before parents. A graph of
    more than MAX_PRINCIPAL_EDGES edges raises InputError.
    """
    n = alg.size
    if n == 1:
        return []
    import numpy as np

    xs, ys = np.triu_indices(n, k=1)
    num_pairs = len(xs)
    pair_id = np.full((n, n), -1, dtype=np.int32)
    pair_id[xs, ys] = np.arange(num_pairs, dtype=np.int32)

    # one row per translation, each once (commutative operations repeat them)
    rows = [np.empty((0, n), dtype=table_dtype(n))]
    for op, tbl in zip(alg.ops, alg.table_arrays()):
        rows += [np.moveaxis(tbl, pos, 0).reshape(n, -1).T for pos in range(op.arity)]
    translations = np.unique(np.concatenate(rows), axis=0)
    edges = num_pairs * len(translations)
    if edges > MAX_PRINCIPAL_EDGES:
        raise InputError(
            f"the principal congruences of {alg.name} need {num_pairs} pairs x "
            f"{len(translations)} translations = {edges} edges, more than the "
            f"{MAX_PRINCIPAL_EDGES} allowed"
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
    """The distinct values of an integer array, ascending.

    np.unique hashes integer input, which took 20 times as long on the
    1.8M edge keys of boolean_lattice(7).
    """
    import numpy as np

    keys = np.sort(keys)
    keep = np.empty(len(keys), dtype=bool)
    keep[:1] = True
    np.not_equal(keys[1:], keys[:-1], out=keep[1:])
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


def all_congruences(alg: FiniteAlgebra, budget: Optional[int] = None) -> list[Congruence]:
    """The whole congruence lattice: join closure of the principal congruences.

    Every congruence is a join of principal ones, so each new member is
    joined only with the principal congruences. Results come back sorted by
    label vector. Raises BudgetExceededError when the lattice outgrows the
    budget (default 100000, CRTKIT_BUDGET override).
    """
    limit = budget if budget is not None else config.budget(config.DEFAULT_CONGRUENCE_BUDGET)
    n = alg.size
    known: dict[tuple, Partition] = {}
    ident = Partition.identity(n)
    known[ident.labels] = ident
    def admit(p: Partition):
        known[p.labels] = p
        worklist.append(p)
        if len(known) > limit:
            raise BudgetExceededError(
                f"congruence lattice of {alg.name} exceeds {limit} members",
                checked=len(known),
                budget=limit,
            )

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


def meet_irreducible_congruences(
    alg: FiniteAlgebra, verify: bool = False
) -> list[Congruence]:
    """Meet-irreducible congruences, computed from principal congruences only.

    Requires the congruence lattice to be distributive (caller-asserted).
    Join-irreducible principals survive the filter "strictly above the join
    of the strictly smaller principals"; each join-irreducible theta then
    maps to the join of the join-irreducibles theta does not sit below,
    the largest member of the lattice avoiding theta. With verify=True the
    result is checked against a full enumeration of the lattice.
    """
    n = alg.size
    ident = Partition.identity(n)
    principal = principal_partition_set(alg)
    join_irr = []
    for theta in principal:
        below = [d for d in principal if d != theta and d.refines(theta)]
        if functools.reduce(Partition.join, below, ident) != theta:
            join_irr.append(theta)
    out: dict[tuple, Partition] = {}
    for theta in join_irr:
        # join-primeness keeps theta out of this join, so it is the
        # largest congruence not above theta
        avoiding = [d for d in join_irr if not theta.refines(d)]
        m = functools.reduce(Partition.join, avoiding, ident)
        out[m.labels] = m
    result = sorted(out.values(), key=lambda q: q.labels)
    if verify:
        lattice = [c.partition for c in all_congruences(alg)]
        naive = naive_meet_irreducibles(n, lattice)
        if [p.labels for p in result] != [p.labels for p in naive]:
            raise StructureError(
                f"meet-irreducible computation disagrees with enumeration on "
                f"{alg.name}; the congruence lattice is likely not distributive"
            )
    return [Congruence(alg, p) for p in result]


def naive_meet_irreducibles(n: int, lattice: list[Partition]) -> list[Partition]:
    """Filter theta != top whose strict upper set meets strictly above theta."""
    out = []
    for theta in lattice:
        if theta.num_blocks == 1:
            continue
        above = [d for d in lattice if theta.refines(d) and d != theta]
        meet = Partition.total(n)
        for d in above:
            meet = meet.meet(d)
        if meet != theta:
            out.append(theta)
    return sorted(out, key=lambda q: q.labels)


# ---------------------------------------------------------------------------
# quotients, subdirect representations, reducts


def quotient(alg: FiniteAlgebra, delta) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """The quotient algebra and the projection map element -> class label.

    Classes are numbered by least member (the canonical label order).
    """
    part = _certified(alg, delta)
    import numpy as np

    reps = np.array(part.representatives(), dtype=np.intp)
    labels = np.array(part.labels, dtype=table_dtype(part.num_blocks))
    ops = [
        Operation(op.name, op.arity, labels[table[np.ix_(*[reps] * op.arity)]])
        for op, table in zip(alg.ops, alg.table_arrays())
    ]
    return FiniteAlgebra(part.num_blocks, ops, name=f"{alg.name}/q"), part.labels


def _certified(alg: FiniteAlgebra, theta) -> Partition:
    """Unwrap a congruence input; verify raw partitions before trusting them."""
    if isinstance(theta, Congruence):
        if theta.algebra is not alg:
            raise InputError("congruence certified by a different algebra")
        return theta.partition
    return congruence(alg, theta).partition


@dataclass(frozen=True)
class SubdirectRep:
    """An embedding a -> (a/k1, ..., a/km) into a product of quotients."""

    algebra: FiniteAlgebra
    kernels: tuple[Partition, ...]
    factors: tuple[FiniteAlgebra, ...]
    factor_sizes: tuple[int, ...]
    coords: tuple[tuple[int, ...], ...]
    irredundant: bool


def subdirect_embedding(alg: FiniteAlgebra, kernels) -> SubdirectRep:
    """Represent alg inside the product of its quotients by the kernels.

    The kernels must intersect to the identity. Irredundance (no kernel
    contained in another) is checked and reported, not required.
    """
    parts = [_certified(alg, k) for k in kernels]
    if not parts:
        raise PreconditionError("need at least one kernel")
    meet = parts[0]
    for p in parts[1:]:
        meet = meet.meet(p)
    if meet.num_blocks != alg.size:
        raise PreconditionError("kernels do not intersect to the identity")
    factors = tuple(quotient(alg, p)[0] for p in parts)
    coords = tuple(
        tuple(p.labels[e] for p in parts) for e in range(alg.size)
    )
    irredundant = True
    for i, p in enumerate(parts):
        for j, q in enumerate(parts):
            if i != j and p.refines(q):
                irredundant = False
    return SubdirectRep(
        algebra=alg,
        kernels=tuple(parts),
        factors=factors,
        factor_sizes=tuple(f.size for f in factors),
        coords=coords,
        irredundant=irredundant,
    )


def reduct(alg: FiniteAlgebra, interp, name: Optional[str] = None) -> FiniteAlgebra:
    """Interpret a new language inside alg: each new symbol is given by a term.

    `interp` maps new symbol -> (arity, term). Arity-0 symbols take a unary
    term that must be constant on alg; its single value becomes the table.
    """
    if hasattr(interp, "items"):
        items = list(interp.items())
    else:
        items = [(name_, (ar, t)) for name_, ar, t in interp]
    ops = []
    for sym, (arity, term) in items:
        if arity == 0:
            values = term_table(alg, term, 1)
            if (values != values[0]).any():
                raise PreconditionError(
                    f"constant symbol {sym!r} interprets as a non-constant term"
                )
            ops.append(Operation(sym, 0, (int(values[0]),)))
            continue
        used = term_variables(term)
        if used and max(used) >= arity:
            raise InputError(
                f"symbol {sym!r} of arity {arity} interprets via x{max(used) + 1}"
            )
        ops.append(Operation(sym, arity, term_table(alg, term, arity)))
    return FiniteAlgebra(alg.size, ops, name=name or f"{alg.name}^T")


# ---------------------------------------------------------------------------
# congruence lattice properties


def is_arithmetic(alg: FiniteAlgebra, budget: Optional[int] = None) -> bool:
    """Congruence-distributive and congruence-permutable."""
    lattice = [c.partition for c in all_congruences(alg, budget=budget)]
    permutable = congruence_lattice_is_permutable(lattice)
    return permutable and congruence_lattice_is_distributive(lattice)


def congruence_lattice_is_distributive(lattice: list[Partition]) -> bool:
    """Whether a whole congruence lattice is distributive, by Birkhoff's count.

    The argument is a whole congruence lattice Con(A), as every caller
    passes, or another set of partitions closed under their join and meet;
    on any other list the verdict means nothing. In a finite lattice L
    every x is the join of the join-irreducibles below it, so x -> {j in
    J(L) : j <= x} is one-to-one into the down-sets of J(L); it is onto,
    and L distributive, exactly when J(L) has |L| down-sets (G. Birkhoff,
    "Rings of sets", 1937). The down-sets are counted with an early stop
    at |L| + 1.
    """
    parts, masks, join_irr = _join_irreducibles(lattice)
    if not parts:
        return True
    join_irr = [masks[j] for j in join_irr]
    k = len(join_irr)
    down = [0] * k
    up = [0] * k
    for a, ma in enumerate(join_irr):
        for b, mb in enumerate(join_irr):
            if ma & ~mb == 0:
                down[b] |= 1 << a
                up[a] |= 1 << b
    return _count_down_sets(down, up, len(parts) + 1) == len(parts)


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
    """(distinct members, their relation masks, indices of the
    join-irreducible members) of a lattice of partitions closed under join."""
    parts = list({p.labels: p for p in lattice}.values())
    # x <= y iff the relation mask of x has no bit outside y's
    masks = [_relation_mask(p) for p in parts]
    join_irr = []
    for j, mj in enumerate(masks):
        smaller = [mx for mx in masks if mx != mj and mx & ~mj == 0]
        if not smaller:
            continue  # the least member is the empty join
        # j is join-irreducible when the strictly smaller members do not
        # join to it; their join lies below j, so counting blocks suffices
        join = _equivalence_closure(functools.reduce(operator.or_, smaller), parts[j].n)
        if join.num_blocks != parts[j].num_blocks:
            join_irr.append(j)
    return parts, masks, join_irr


def congruence_lattice_is_permutable(lattice: list[Partition]) -> bool:
    """Whether every two members of a whole congruence lattice permute.

    Only pairs of join-irreducible members are tested. If b permutes with
    a1 and a2, it permutes with a1 o a2 and so with a1 v a2, the union of
    the powers of a1 o a2; every member is a join of join-irreducibles (the
    least member, the empty join, permutes with all members, which lie
    above it), so permuting join-irreducibles make every pair permute.
    Partition.permutes is symmetric, so each unordered pair is tested once."""
    parts, _, join_irr = _join_irreducibles(lattice)
    ji = [parts[j] for j in join_irr]
    return all(x.permutes(y) for i, x in enumerate(ji) for y in ji[i + 1 :])


# ---------------------------------------------------------------------------
# subuniverses and products (fixture plumbing shared by tests and the CLI)


def generated_subuniverse(alg: FiniteAlgebra, seeds) -> list[int]:
    """Least subset containing the seeds and closed under every operation."""
    current = set(seeds)
    for op in alg.ops:
        if op.arity == 0:
            current.add(op.table[0])
    if not current:
        raise PreconditionError("no seeds and no constants: the closure is empty")
    grew = True
    while grew:
        grew = False
        snapshot = sorted(current)
        for op in alg.ops:
            if op.arity == 0:
                continue
            for args in itertools.product(snapshot, repeat=op.arity):
                value = alg.apply(op.name, *args)
                if value not in current:
                    current.add(value)
                    grew = True
    return sorted(current)


def subalgebra(alg: FiniteAlgebra, universe) -> tuple[FiniteAlgebra, dict[int, int]]:
    """Restrict alg to a closed subset, relabelling elements 0..k-1 in order."""
    universe = sorted(set(universe))
    index = {e: i for i, e in enumerate(universe)}
    ops = []
    for op in alg.ops:
        table = []
        for args in itertools.product(universe, repeat=op.arity):
            value = alg.apply(op.name, *args)
            if value not in index:
                raise PreconditionError(
                    f"subset not closed: {op.name}{args} = {value} falls outside"
                )
            table.append(index[value])
        ops.append(Operation(op.name, op.arity, tuple(table)))
    return FiniteAlgebra(len(universe), ops, name=f"{alg.name}|sub"), index
