"""Finite algebras, their operation tables, and congruence certification.

A finite algebra is a universe {0..n-1} with a list of named finitary
operations given by flat tables in lexicographic argument order. Congruences
are partitions compatible with every operation; they are produced here
wrapped in a Congruence record that remembers the certifying algebra.

This module is the core every command loads: operations and algebras, the
table helpers (with _evaluate, the bitwise fold of a two-element table
that the classifier and the nearlattice views share) and size limits, the
laws of binary operations, and
certification (congruence_violation, certify). Certification tests only
the operations that are neither constants nor projections, found once per
algebra by an exact table test. It tests a unary one in pure Python and
imports numpy only when one of arity 2 or more is left. A congruence tuple
enters through one intake, as_partitions (certify reads it there too),
which refuses a tuple that is not iterable or holds no partition.
The congruence lattice (principal congruences, all_congruences,
meet-irreducibles, the lattice predicates) lives in crtkit.conlat, and
terms with the algebras derived by them (reduct, quotient, subalgebra) in
crtkit.terms.
Their public names (_MOVED) still resolve here, through a module
__getattr__ (PEP 562) that loads the defining module on first use; the
benchmark tracer looks some of them up here.
"""

from __future__ import annotations

import array
import importlib
from typing import TYPE_CHECKING, NamedTuple, Optional

from .errors import InputError, StructureError
from .partitions import Partition, _iterable

if TYPE_CHECKING:
    import numpy as np


class Operation(NamedTuple):
    """A named operation of the given arity; in a FiniteAlgebra its flat
    table is an array.array, read-only by convention: numpy views of it
    (FiniteAlgebra.table_array) share its memory."""

    name: str
    arity: int
    table: array.array


class FiniteAlgebra:
    """An algebra on {0..size-1}; equality is object identity.

    Each table is stored once, as an array.array of the unsigned typecode
    whose itemsize is that of table_dtype(size) (1 byte an entry up to 256
    elements, 2 up to 65536, then 4 and 8), so pure-Python readers index
    it and table_array views it without copying. A table is given as a
    sequence of ints, or as a numpy integer array (any shape with size **
    arity entries, flat order as for sequences), which is range-checked
    with one array min and max and copied once through its narrow buffer.

    With _narrow=True every table must already be an array.array of that
    typecode holding only values below size (formats.parse_algebra builds
    them so); each is adopted as it is, without a copy or a range check."""

    def __init__(self, size: int, ops, name: str = "A", *, _narrow: bool = False):
        if not isinstance(size, int):
            raise InputError(f"the universe size {size!r} is not an int")
        if size < 1:
            raise InputError("the universe must be nonempty")
        self.size = size
        self.name = name
        self._by_name = {}
        code = _typecode(size)
        checked = []
        for i, entry in enumerate(ops):
            try:
                name_, arity, table = entry
            except (TypeError, ValueError):
                raise InputError(f"operation entry {i} is not (name, arity, table)") from None
            if not isinstance(name_, str):
                raise InputError(f"operation entry {i} has name {name_!r}, not a str")
            if name_ in self._by_name:
                raise InputError(f"duplicate operation name {name_!r}")
            if not isinstance(arity, int):
                raise InputError(f"operation {name_!r} has arity {arity!r}, not an int")
            if arity < 0:
                raise InputError(f"operation {name_!r} has negative arity")
            if not _narrow:
                table = _narrow_table(name_, arity, table, size, code)
            op = Operation(name_, arity, table)
            self._by_name[name_] = op
            checked.append(op)
        self.ops: tuple[Operation, ...] = tuple(checked)
        self._nontrivial = None
        self._views = {}

    def op(self, name: str) -> Operation:
        try:
            return self._by_name[name]
        except KeyError:
            raise InputError(f"no operation named {name!r}") from None

    def apply(self, name: str, *args: int) -> int:
        """The entry of the named operation at args: its table read row-major,
        first argument most significant, at the flat index folded by
        Horner's rule (idx = idx * size + a). An unknown name, a wrong
        number of arguments, or an argument that is not an int or lies
        outside 0..size-1 raises InputError."""
        try:
            op = self._by_name[name]
        except KeyError:
            raise InputError(f"no operation named {name!r}") from None
        if len(args) != op.arity:
            raise InputError(
                f"operation {name!r} expects {op.arity} arguments, got {len(args)}"
            )
        n = self.size
        idx = 0
        try:
            for a in args:
                if not 0 <= a < n:
                    raise InputError(
                        f"argument {a!r} of {name!r} is outside the universe 0..{n - 1}"
                    )
                idx = idx * n + a
        except (TypeError, OverflowError):  # not comparable, or a numpy scalar
            idx = None
        # a float or numpy integer argument leaves a float or numpy scalar here
        if idx.__class__ is not int:
            raise InputError(f"arguments of {name!r} must be ints, got {args!r}")
        return op.table[idx]

    def nontrivial_ops(self) -> tuple[Operation, ...]:
        """The operations that are neither a constant nor a projection, in
        signature order. The others respect every partition, so they are
        all that congruence certification tests. Found once per algebra by
        an exact table test (_is_constant_or_projection)."""
        if self._nontrivial is None:
            self._nontrivial = tuple(
                op
                for op in self.ops
                if not _is_constant_or_projection(
                    op.table, self.size, _strides(self.size, op.arity)
                )
            )
        return self._nontrivial

    def table_array(self, name: str) -> np.ndarray:
        """The named operation's table as a read-only numpy view of shape
        (size,) * arity and dtype table_dtype(size); it shares memory with
        op.table, so nothing is copied, and is built once, on first use."""
        view = self._views.get(name)
        if view is None:
            import numpy as np

            op = self.op(name)
            view = np.frombuffer(op.table, table_dtype(self.size)).reshape((self.size,) * op.arity)
            view.flags.writeable = False
            self._views[name] = view
        return view

    def __getstate__(self):
        # an unpickled view is a writeable copy, so views are rebuilt on use
        return {**self.__dict__, "_views": {}}

    def __repr__(self):
        sig = ", ".join(f"{op.name}/{op.arity}" for op in self.ops)
        return f"FiniteAlgebra({self.name!r}, size={self.size}, ops=[{sig}])"


def _narrow_table(name: str, arity: int, table, size: int, code: str) -> array.array:
    """A table given to FiniteAlgebra, checked and copied into a new
    array.array of the typecode code; InputError names the operation."""
    is_array = hasattr(table, "dtype")
    if not is_array:
        try:
            table = array.array(code, table)
        except TypeError:
            raise InputError(f"operation {name!r} table is not integer") from None
        except OverflowError:
            raise InputError(f"operation {name!r} table value out of range") from None
    entries = table.size if is_array else len(table)
    if entries != size**arity:
        raise InputError(
            f"operation {name!r} table has {entries} entries, expected {size**arity}"
        )
    if is_array:
        if table.dtype.kind not in "iu":
            raise InputError(f"operation {name!r} table is not integer")
        low, high = table.min(), table.max()
    else:  # an unsigned array.array refused negative values above
        low, high = 0, max(table)
    if low < 0 or high >= size:
        raise InputError(f"operation {name!r} table value out of range")
    if is_array:
        narrow = table.astype(code, order="C", copy=False)
        table = array.array(code)
        table.frombytes(memoryview(narrow).cast("B"))
    return table


def _strides(size: int, arity: int) -> tuple[int, ...]:
    """The weight of each argument in the flat index of a table of that
    arity on size elements: size ** (arity - 1 - i) for argument i."""
    return tuple(size**k for k in range(arity - 1, -1, -1))


# entries per slab of whole rows that _is_constant_or_projection compares
_SLAB = 1 << 12


def _is_constant_or_projection(table: array.array, n: int, strides) -> bool:
    """Whether the flat table of an operation on n elements with the given
    argument strides is a constant or a projection; an exact test.

    The entries at flat index 0, at each argument's stride and at the last
    index leave at most one candidate (no candidate for most operations, so
    only those entries are read). The table is then compared with the
    candidate slab by slab of whole rows (runs of first arguments), up to
    the first slab that differs: both slabs are arrays of the table's
    typecode, so no copy longer than a slab is made, and none into ints."""
    if not strides or n == 1:
        return True
    code = table.typecode
    first, last = table[0], table[-1]
    probe = [table[s] for s in strides]
    row = strides[0]  # entries per value of the first argument
    if first == last and probe.count(first) == len(probe):

        def slab(lo, hi):
            return array.array(code, [first]) * ((hi - lo) * row)

    elif (first, last) == (0, n - 1) and probe.count(0) == len(probe) - 1 and 1 in probe:
        run = strides[probe.index(1)]
        if run == row:  # the first argument: row x is x throughout

            def slab(lo, hi):
                return _runs(code, range(lo, hi), row)

        else:  # every row is the same
            pattern = _runs(code, range(n), run) * (row // (n * run))

            def slab(lo, hi):
                return pattern * (hi - lo)

    else:
        return False
    rows = max(1, _SLAB // row)
    for lo in range(0, n, rows):
        hi = min(n, lo + rows)
        if table[lo * row : hi * row] != slab(lo, hi):
            return False
    return True


def _runs(code: str, values, run: int) -> array.array:
    """Each of values repeated run times in a row, as an array of typecode code."""
    out = array.array(code)
    for v in values:
        out += array.array(code, [v]) * run
    return out


def _typecode(size: int) -> str:
    """The unsigned array typecode of the narrowest itemsize holding
    0..size-1: 'B', 'H', 'I' or 'Q'; InputError when none holds it."""
    for code in "BHIQ":
        if size - 1 < 1 << (8 * array.array(code).itemsize):
            return code
    # past 4096 bits a count is named by its bit length: Python prints at
    # most 4300 digits
    shown = size if size.bit_length() <= 4096 else f"of {size.bit_length()} bits"
    raise InputError(f"size {shown} is too large: a universe has at most 2^64 elements")


def table_dtype(size: int):
    """The narrowest unsigned integer dtype holding 0..size-1, in which
    tables, gathers and index grids over a universe of that size are kept;
    that of the table storage (_typecode)."""
    import numpy as np

    return np.dtype(_typecode(size))


def _evaluate(table, args: list, ones):
    """A two-element table, flat with its first argument most significant,
    applied bitwise to args (ints, or packed bit arrays that broadcast
    together); `ones` stands for 1. The fold curries the last argument
    first: f(..., x) = a ^ ((a ^ b) & x) with a = f(..., 0) and
    b = f(..., 1). On the first level a and b are constants, so the result
    is one of 0, not x, x and 1, looked up. Pure Python: the classifier's
    tag folds it over ints without numpy."""
    if not args:
        return ones if table[0] else 0
    x = args[-1]
    leaf = (0, ones ^ x, x, ones)
    pairs = iter(table)
    vals = [leaf[a + 2 * b] for a, b in zip(pairs, pairs)]
    for x in reversed(args[:-1]):
        pairs = iter(vals)
        vals = [a ^ ((a ^ b) & x) for a, b in zip(pairs, pairs)]
    return vals[0]


# entries per block of an array kernel over blocks of first arguments
_BLOCK = 1 << 20

# entries of an operation table a constructor may tabulate; the table is
# stored in 1 to 4 bytes an entry (table_dtype), and this bound counts
# entries, not bytes
MAX_TABLE_ENTRIES = 1 << 24

# edges (pairs times distinct translations) principal_partition_set may
# walk; it keeps a key of 8 bytes per distinct edge
MAX_PRINCIPAL_EDGES = 1 << 25


def check_table_size(size: int, arity: int, what: str):
    """Raise InputError, before anything is allocated, when a table of
    size ** arity entries would exceed MAX_TABLE_ENTRIES. Bit lengths are
    compared first, so a power of more than 4096 bits is neither computed
    nor printed (see _typecode)."""
    if size > 1 and size.bit_length() * arity > 4096:
        entries = f"at least 2^{(size.bit_length() - 1) * arity}"
    elif (entries := size**arity) <= MAX_TABLE_ENTRIES:
        return
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
# congruences


class Congruence(NamedTuple):
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

    Constants and projections respect every partition, so only
    alg.nontrivial_ops() are tested, in signature order. A unary operation
    is tested in pure Python, with one pass over its table; an operation
    of higher arity on its own table array. So numpy is imported only when
    a nontrivial operation of arity 2 or more is reached: certifying a set
    with constants, a left-zero semigroup or a unary algebra builds no
    array.
    """
    if part.n != alg.size:
        raise InputError("partition size does not match the algebra")
    if part.num_blocks in (1, part.n):
        return None
    reps = part.representatives()
    for op in alg.nontrivial_ops():
        if op.arity == 1:
            start = _unary_violation_start(op.table, part.labels, reps)
        else:
            start = _array_violation_start(alg, op, part, reps)
        if start is not None:
            return _violation_at(alg, op, part, start)
    return None


def _unary_violation_start(table, labels, reps) -> Optional[int]:
    """The least x at which the unary table breaks the partition with
    these labels and block representatives, or None: x is the least member
    of the first block whose images fall in more than one block."""
    image = [labels[v] for v in table]
    want = [image[r] for r in reps]  # the block of f(rep) for each block
    if image == [want[b] for b in labels]:
        return None
    return min(reps[b] for b, got in zip(labels, image) if got != want[b])


def _array_violation_start(alg: FiniteAlgebra, op: Operation, part: Partition, reps):
    """The least flat index of the table of op whose args, one of them
    moved to its block's representative (reps by block), map to another
    block; None when op respects the partition."""
    import numpy as np

    labels = np.array(part.labels, dtype=table_dtype(part.num_blocks))
    rep = np.array(reps, dtype=np.intp)[labels]
    image = labels[alg.table_array(op.name)]
    starts = []
    for pos, stride in enumerate(_strides(alg.size, op.arity)):
        bad = np.flatnonzero(image != image.take(rep, axis=pos))
        if bad.size:
            # flat indices of the mismatches with argument pos moved to its rep
            x = bad // stride % alg.size
            starts.append(int((bad - stride * (x - rep[x])).min()))
    return min(starts, default=None)


def _violation_at(alg: FiniteAlgebra, op: Operation, part: Partition, idx: int):
    """The first (position, replacement) violation at the flat index idx."""
    labels, blocks, table = part.labels, part.blocks(), op.table
    strides = _strides(alg.size, op.arity)
    args = tuple(idx // s % alg.size for s in strides)
    out = labels[table[idx]]
    for pos, x in enumerate(args):
        for y in blocks[labels[x]]:
            if y > x and labels[table[idx + strides[pos] * (y - x)]] != out:
                return (op.name, pos, args, y)
    raise AssertionError("no violation at the located arguments")


def is_congruence(alg: FiniteAlgebra, part) -> bool:
    return congruence_violation(alg, as_partition(part)) is None


def as_partitions(thetas, size: Optional[int] = None, names=None) -> tuple[Partition, ...]:
    """The members of a congruence tuple as partitions, for callers with no
    algebra to certify them on: each is unwrapped by as_partition, there
    must be at least one (thetas may be an iterator), and each must be on
    `size` elements (as many as the first member when size is None). Raises
    InputError otherwise, naming member i names[i] ("tuple member i + 1"
    by default), and when thetas is not iterable."""
    parts = tuple(as_partition(t) for t in _members(thetas))
    if not parts:
        raise InputError("need at least one congruence")
    size = parts[0].n if size is None else size
    for i, part in enumerate(parts):
        if part.n != size:
            raise InputError(
                f"{_member(names, i)} is a partition of {part.n} elements, expected {size}"
            )
    return parts


def _members(thetas) -> tuple:
    """The members of a congruence tuple, the one intake of as_partitions
    and certify: InputError unless thetas is iterable."""
    return tuple(_iterable(thetas, "a sequence of congruences"))


def _member(names, i: int) -> str:
    return f"tuple member {i + 1}" if names is None else names[i]


def certify(alg: FiniteAlgebra, thetas, names=None) -> tuple[Congruence, ...]:
    """The members of a congruence tuple of alg as Congruence records of alg.

    The intake is as_partitions on alg.size elements. Then each member is
    certified by congruence_violation, unless it already is a Congruence of
    this very algebra object; the first that is not a congruence raises
    StructureError naming it, the operation, its arguments and the related
    pair they separate. Deciders and routes call this on every tuple they
    get, so a tuple certified once (by `crtkit check`, say) passes through
    them unchecked.
    """
    thetas = _members(thetas)
    out = []
    for i, (theta, part) in enumerate(zip(thetas, as_partitions(thetas, alg.size, names))):
        if not (isinstance(theta, Congruence) and theta.algebra is alg):
            hit = congruence_violation(alg, part)
            if hit is not None:
                op_name, pos, args, repl = hit
                raise StructureError(
                    f"{_member(names, i)} is not a congruence of {alg.name}: {op_name} at "
                    f"arguments {' '.join(str(a) for a in args)} separates the "
                    f"related pair {args[pos]} {repl} (position {pos + 1})"
                )
        out.append(Congruence(alg, part))
    return tuple(out)


def congruence(alg: FiniteAlgebra, part) -> Congruence:
    """part as a certified Congruence of alg (see certify)."""
    return certify(alg, [part], names=["the partition"])[0]


# ---------------------------------------------------------------------------
# names defined in the lattice and term modules, resolved on first use

_MOVED = {
    "conlat": "all_congruences congruence_lattice_is_distributive "
    "congruence_lattice_is_permutable is_arithmetic meet_irreducible_congruences "
    "naive_meet_irreducibles principal_congruence principal_partition_set",
    "terms": "App Term Var eval_term eval_term_grid quotient reduct subalgebra term_str "
    "term_table",
}
_HOME = {name: module for module, names in _MOVED.items() for name in names.split()}


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f"{__package__}.{_HOME[name]}"), name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
