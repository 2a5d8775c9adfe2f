"""Finite algebras: operation tables, terms, and the congruence toolkit.

A finite algebra is a universe {0..n-1} with a list of named finitary
operations given by flat tables in lexicographic argument order. Congruences
are partitions compatible with every operation; they are produced here
wrapped in a Congruence record that remembers the certifying algebra.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

import numpy as np

from . import config
from .errors import BudgetExceededError, InputError, PreconditionError, StructureError
from .partitions import Partition, _UnionFind, quotient_partition


class Operation(NamedTuple):
    name: str
    arity: int
    table: tuple[int, ...]


class FiniteAlgebra:
    """An algebra on {0..size-1}; equality is object identity."""

    def __init__(self, size: int, ops, name: str = "A"):
        if size < 1:
            raise InputError("the universe must be nonempty")
        self.size = size
        self.name = name
        self.ops: tuple[Operation, ...] = tuple(
            op if isinstance(op, Operation) else Operation(op[0], op[1], tuple(op[2]))
            for op in ops
        )
        self._by_name = {}
        for op in self.ops:
            if op.name in self._by_name:
                raise InputError(f"duplicate operation name {op.name!r}")
            if op.arity < 0:
                raise InputError(f"operation {op.name!r} has negative arity")
            if len(op.table) != size**op.arity:
                raise InputError(
                    f"operation {op.name!r} table has {len(op.table)} entries, "
                    f"expected {size**op.arity}"
                )
            if min(op.table) < 0 or max(op.table) >= size:
                raise InputError(f"operation {op.name!r} table value out of range")
            self._by_name[op.name] = op
        # strides[name][i] = weight of argument i in the flat table index
        self._strides = {
            op.name: tuple(size**k for k in range(op.arity - 1, -1, -1))
            for op in self.ops
        }
        self._translations = None
        self._arrays = None

    def op(self, name: str) -> Operation:
        try:
            return self._by_name[name]
        except KeyError:
            raise InputError(f"no operation named {name!r}") from None

    def has_op(self, name: str) -> bool:
        return name in self._by_name

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
        """Each operation's table as a read-only array of shape (size,) * arity."""
        if self._arrays is None:
            self._arrays = []
            for op in self.ops:
                arr = np.array(op.table, dtype=np.intp).reshape((self.size,) * op.arity)
                arr.flags.writeable = False
                self._arrays.append(arr)
        return self._arrays

    def __repr__(self):
        sig = ", ".join(f"{op.name}/{op.arity}" for op in self.ops)
        return f"FiniteAlgebra({self.name!r}, size={self.size}, ops=[{sig}])"


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
    labels = np.array(part.labels, dtype=np.intp)
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
    """Least congruence relating a and b."""
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
    """All distinct principal congruences of distinct pairs, as partitions."""
    n = alg.size
    if n == 1:
        return []
    if n <= 24:
        out = {}
        for a in range(n):
            for b in range(a + 1, n):
                p = principal_congruence(alg, a, b).partition
                out[p.labels] = p
        return list(out.values())
    return _principal_partition_set_batch(alg)


def _principal_partition_set_batch(alg: FiniteAlgebra) -> list[Partition]:
    # Pairs are nodes of a graph with an edge {x,y} -> {g(x),g(y)} for every
    # one-variable translation g; the congruence generated by a pair is the
    # equivalence closure of the pairs reachable from it, constant on each
    # strongly connected component.
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import connected_components

    n = alg.size
    xs, ys = np.triu_indices(n, k=1)
    num_pairs = len(xs)
    pair_id = np.full((n, n), -1, dtype=np.int64)
    pair_id[xs, ys] = np.arange(num_pairs)

    src_parts, dst_parts = [], []
    for op, tbl in zip(alg.ops, alg.table_arrays()):
        if op.arity == 0:
            continue
        for pos in range(op.arity):
            rows = np.moveaxis(tbl, pos, 0).reshape(n, -1).T  # one row per translation
            chunk = max(1, (4 << 20) // max(1, num_pairs))
            for start in range(0, rows.shape[0], chunk):
                block = rows[start : start + chunk]
                gx = block[:, xs].ravel()
                gy = block[:, ys].ravel()
                keep = gx != gy
                if not keep.any():
                    continue
                gx, gy = gx[keep], gy[keep]
                lo = np.minimum(gx, gy)
                hi = np.maximum(gx, gy)
                src = np.tile(np.arange(num_pairs), block.shape[0])[keep]
                dst = pair_id[lo, hi]
                src_parts.append(src)
                dst_parts.append(dst)

    if src_parts:
        src = np.concatenate(src_parts)
        dst = np.concatenate(dst_parts)
        keys = np.unique(src * num_pairs + dst)
        src, dst = keys // num_pairs, keys % num_pairs
    else:
        src = dst = np.empty(0, dtype=np.int64)

    graph = csr_matrix(
        (np.ones(len(src), dtype=np.int8), (src, dst)), shape=(num_pairs, num_pairs)
    )
    num_comp, comp = connected_components(graph, directed=True, connection="strong")

    comp_src, comp_dst = comp[src], comp[dst]
    keep = comp_src != comp_dst
    if keep.any():
        keys = np.unique(comp_src[keep] * num_comp + comp_dst[keep])
        comp_src, comp_dst = keys // num_comp, keys % num_comp
    else:
        comp_src = comp_dst = np.empty(0, dtype=np.int64)

    # reverse topological order over the condensation (children first)
    indeg = np.bincount(comp_dst, minlength=num_comp).tolist()
    adjacency: list[list[int]] = [[] for _ in range(num_comp)]
    for s, d in zip(comp_src.tolist(), comp_dst.tolist()):
        adjacency[s].append(d)
    stack = [c for c in range(num_comp) if indeg[c] == 0]
    topo = []
    while stack:
        c = stack.pop()
        topo.append(c)
        for d in adjacency[c]:
            indeg[d] -= 1
            if indeg[d] == 0:
                stack.append(d)

    members: list[list[int]] = [[] for _ in range(num_comp)]
    for pid, c in enumerate(comp.tolist()):
        members[c].append(pid)

    xs_l, ys_l = xs.tolist(), ys.tolist()
    closure: dict[int, Partition] = {}
    for c in reversed(topo):
        uf = _UnionFind(n)
        for pid in members[c]:
            uf.union(xs_l[pid], ys_l[pid])
        for d in adjacency[c]:
            for block in closure[d].blocks():
                first = block[0]
                for x in block[1:]:
                    uf.union(first, x)
        closure[c] = Partition(uf.labels())

    out = {}
    for c in range(num_comp):
        p = closure[c]
        out[p.labels] = p
    return list(out.values())


def _join_partitions(n: int, parts) -> Partition:
    uf = _UnionFind(n)
    for part in parts:
        for block in part.blocks():
            first = block[0]
            for x in block[1:]:
                uf.union(first, x)
    return Partition(uf.labels())


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
    principal = principal_partition_set(alg)
    join_irr = []
    for theta in principal:
        below = [d for d in principal if d != theta and d.refines(theta)]
        if _join_partitions(n, below) != theta:
            join_irr.append(theta)
    out: dict[tuple, Partition] = {}
    for theta in join_irr:
        # join-primeness keeps theta out of this join, so it is the
        # largest congruence not above theta
        avoiding = [d for d in join_irr if not theta.refines(d)]
        m = _join_partitions(n, avoiding)
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
    reps = part.representatives()
    labels = part.labels
    size = part.num_blocks
    ops = []
    for op in alg.ops:
        table = []
        for args in itertools.product(reps, repeat=op.arity):
            table.append(labels[alg.apply(op.name, *args)])
        ops.append(Operation(op.name, op.arity, tuple(table)))
    return FiniteAlgebra(size, ops, name=f"{alg.name}/q"), labels


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
            values = {eval_term(alg, term, (a,)) for a in range(alg.size)}
            if len(values) != 1:
                raise PreconditionError(
                    f"constant symbol {sym!r} interprets as a non-constant term"
                )
            ops.append(Operation(sym, 0, (values.pop(),)))
            continue
        used = term_variables(term)
        if used and max(used) >= arity:
            raise InputError(
                f"symbol {sym!r} of arity {arity} interprets via x{max(used) + 1}"
            )
        table = tuple(
            eval_term(alg, term, args)
            for args in itertools.product(range(alg.size), repeat=arity)
        )
        ops.append(Operation(sym, arity, table))
    return FiniteAlgebra(alg.size, ops, name=name or f"{alg.name}^T")


# ---------------------------------------------------------------------------
# congruence lattice properties


def is_arithmetic(alg: FiniteAlgebra, budget: Optional[int] = None) -> bool:
    """Congruence-distributive and congruence-permutable."""
    lattice = [c.partition for c in all_congruences(alg, budget=budget)]
    for x in lattice:
        for y in lattice:
            if x.compose(y) != y.compose(x):
                return False
    return congruence_lattice_is_distributive(lattice)


def congruence_lattice_is_distributive(lattice: list[Partition]) -> bool:
    for x in lattice:
        for y in lattice:
            for z in lattice:
                if x.meet(y.join(z)) != (x.meet(y)).join(x.meet(z)):
                    return False
    return True


def congruence_lattice_is_permutable(lattice: list[Partition]) -> bool:
    for i, x in enumerate(lattice):
        for y in lattice[i + 1 :]:
            if x.compose(y) != y.compose(x):
                return False
    return True


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
