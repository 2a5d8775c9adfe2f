"""Flat-file formats for algebras and congruence tuples.

An algebra file names the algebra, states the universe size, and lists
each operation with its arity and full table (row-major, last argument
varying fastest):

    # three-element chain
    algebra chain3
    size 3
    op meet 2
    0 0 0 0 1 1 0 1 2
    op join 2
    0 1 2 1 1 2 2 2 2

A congruence file holds one partition per line, labels in canonical
form (each label first appears after all smaller ones):

    cong theta1 0 1 1
    cong theta2 0 0 1

Lines whose first token starts with `#` are comments. Algebra parsing
is whitespace-insensitive (tables may wrap across lines); congruence
lines stand alone. Serialization is canonical: single spaces, one
table per line, so parse and serialize are mutually inverse on
canonical files and in-memory values.
"""

from __future__ import annotations

import array
import itertools

from .algebra import FiniteAlgebra, Operation, _typecode
from .errors import InputError
from .partitions import Partition, _iterable, canonical_labels


def _check_name(kind: str, name: str) -> str:
    if not name or name.split() != [name]:
        raise InputError(f"{kind} name {name!r} must be a single nonempty token")
    if name.startswith("#"):
        raise InputError(f"{kind} name {name!r} would start a comment")
    return name


def _tokens(text: str) -> list[str]:
    if "#" not in text:  # no comment line: every line boundary is whitespace
        return text.split()
    out = []
    for line in text.splitlines():
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        out.extend(stripped.split())
    return out


def _expect_int(tokens: list[str], pos: int, what: str) -> int:
    if pos >= len(tokens):
        raise InputError(f"file ends where {what} was expected")
    try:
        return int(tokens[pos])
    except ValueError:
        raise InputError(f"expected {what}, got {tokens[pos]!r}") from None


class _Numerals(dict):
    """numeral -> value for the values below size, filled in as the tables
    are read, so it holds no more numerals than the entries read. A token
    int() refuses, or a value outside 0..size-1, raises ValueError."""

    def __init__(self, size: int):
        super().__init__()
        self.size = size

    def __missing__(self, token: str) -> int:
        value = int(token)
        if not 0 <= value < self.size:
            raise ValueError(token)
        self[token] = value
        return value


def parse_algebra(text: str) -> FiniteAlgebra:
    """Parse an algebra file; malformed input raises InputError.

    Each table is read straight into an array.array of the algebra's
    narrow typecode, each token looked up in a map from the numerals read
    so far to their int() values (so `01` reads as 1). A token that int()
    refuses, or whose value lies outside the universe, sends its table the
    slow way, to a list of int() values: a malformed token raises here, an
    out-of-range value in FiniteAlgebra's range check, with the messages
    and in the order these checks have always had."""
    tokens = _tokens(text)
    if len(tokens) < 2 or tokens[0] != "algebra":
        raise InputError("an algebra file starts with: algebra <name>")
    name = tokens[1]
    if len(tokens) < 4 or tokens[2] != "size":
        raise InputError("the algebra name is followed by: size <n>")
    size = _expect_int(tokens, 3, "the universe size")
    if size < 1:
        raise InputError("the universe must be nonempty")
    value = _Numerals(size).__getitem__
    ops, narrow = [], True
    pos = 4
    while pos < len(tokens):
        if tokens[pos] != "op":
            raise InputError(f"expected 'op', got {tokens[pos]!r}")
        if pos + 2 >= len(tokens):
            raise InputError("file ends inside an op header")
        op_name = tokens[pos + 1]
        arity = _expect_int(tokens, pos + 2, f"the arity of {op_name!r}")
        if arity < 0:
            raise InputError(f"operation {op_name!r} has negative arity")
        pos += 3
        left = len(tokens) - pos
        # size ** arity > left once arity reaches left's bit length, so a huge
        # power is never computed; nor printed, past Python's digit limit
        if size > 1 and arity >= left.bit_length() or size**arity > left:
            raise InputError(
                f"operation {op_name!r} needs {size}^{arity} values, file has {left}"
            )
        count = size**arity
        try:
            table = array.array(
                _typecode(size), map(value, itertools.islice(tokens, pos, pos + count))
            )
        except ValueError:
            table = [_expect_int(tokens, pos + i, f"a value of {op_name!r}") for i in range(count)]
            narrow = False
        ops.append(Operation(op_name, arity, table))
        pos += count
    return FiniteAlgebra(size, ops, name=name, _narrow=narrow)


def serialize_algebra(alg: FiniteAlgebra) -> str:
    """Canonical text form; parse_algebra inverts it."""
    _check_name("algebra", alg.name)
    lines = [f"algebra {alg.name}", f"size {alg.size}"]
    numerals = [str(v) for v in range(alg.size)]
    for op in alg.ops:
        _check_name("operation", op.name)
        lines.append(f"op {op.name} {op.arity}")
        lines.append(" ".join(map(numerals.__getitem__, op.table)))
    return "\n".join(lines) + "\n"


def parse_congruences(text: str, size: int | None = None) -> list[tuple[str, Partition]]:
    """Parse a congruence file into (name, partition) pairs, in file order.

    Labels must be canonical; `size`, when given, pins the ground-set size.
    """
    out = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        parts = stripped.split()
        if parts[0] != "cong":
            raise InputError(f"line {lineno}: expected 'cong', got {parts[0]!r}")
        if len(parts) < 3:
            raise InputError(f"line {lineno}: need a name and at least one label")
        name = parts[1]
        try:
            labels = tuple(int(tok) for tok in parts[2:])
        except ValueError:
            raise InputError(f"line {lineno}: labels must be integers") from None
        if labels != canonical_labels(labels):
            raise InputError(
                f"line {lineno}: labels are not canonical; expected "
                f"{' '.join(str(v) for v in canonical_labels(labels))}"
            )
        if size is not None and len(labels) != size:
            raise InputError(
                f"line {lineno}: {len(labels)} labels for a universe of size {size}"
            )
        out.append((name, Partition(labels)))
    return out


def serialize_congruences(items) -> str:
    """Canonical text form of (name, partition-like) pairs; an item that is
    no pair is refused with an InputError naming its position, and so are
    items that are not iterable."""
    from .algebra import as_partition

    lines = []
    for i, item in enumerate(_iterable(items, "a sequence of (name, partition) pairs")):
        try:
            name, theta = item
        except (TypeError, ValueError):
            raise InputError(f"item {i + 1} is not a (name, partition) pair: {item!r}") from None
        _check_name("congruence", name)
        part = as_partition(theta)
        lines.append(f"cong {name} " + " ".join(str(v) for v in part.labels))
    return "\n".join(lines) + "\n" if lines else ""
