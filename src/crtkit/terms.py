"""Terms over an algebra's operation symbols, and the algebras derived
from an algebra by them or by its congruences.

A term is a tree of Var leaves (x1, x2, ...) and App nodes naming an
operation. One evaluator, _eval_grid, gathers each operation's table at
its subterms' values: eval_term runs it on the plain ints of one point,
eval_term_grid on index arrays, and term_table on blocks of first
arguments. reduct interprets a new signature by terms, quotient divides
by a congruence, and subalgebra restricts an algebra to a closed subset.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .algebra import (
    _BLOCK,
    FiniteAlgebra,
    Operation,
    check_table_size,
    congruence,
    table_dtype,
)
from .errors import InputError, PreconditionError


@dataclass(frozen=True)
class Var:
    index: int  # 0-based; printed as x1, x2, ...


@dataclass(frozen=True)
class App:
    op: str
    args: tuple = ()


Term = Union[Var, App]


def eval_term(alg: FiniteAlgebra, term: Term, args) -> int:
    """Evaluate a term tree at a tuple of universe elements; an argument
    that is not an int is refused, as by FiniteAlgebra.apply."""
    args = tuple(args)
    for a in args:
        if not isinstance(a, int):
            raise InputError(f"argument {a!r} is not an int")
        if not 0 <= a < alg.size:
            raise InputError(f"argument {a} outside the universe")
    _check_term(alg, term, len(args))
    return int(_eval_grid(alg, term, [int(a) for a in args]))


def _check_term(alg, term, count: int):
    """Raise InputError unless every node of term, visited parent first and
    left to right, is a Var among count arguments or an App of one of alg's
    operations to as many subterms as its arity."""
    if isinstance(term, Var):
        if not 0 <= term.index < count:
            raise InputError(f"term uses x{term.index + 1} but got {count} arguments")
    elif not isinstance(term, App):
        raise InputError(f"not a term node: {term!r}")
    elif len(term.args) != (arity := alg.op(term.op).arity):
        raise InputError(
            f"term applies {term.op!r} to {len(term.args)} subterms, arity is {arity}"
        )
    else:
        for t in term.args:
            _check_term(alg, t, count)


def eval_term_grid(alg: FiniteAlgebra, term: Term, grids) -> np.ndarray:
    """Evaluate a term at every point of a grid: grids[i] is an integer
    array (or scalar) of elements for x(i+1), all broadcastable together,
    or None for a variable the term does not use. A Var reads its grid and
    an App gathers its operation's table_array at its subterms' arrays, so
    the result has the broadcast shape of the grids the term uses. Raises
    InputError where eval_term would, and for a grid holding anything but
    elements."""
    for grid in grids:
        if grid is None:
            continue
        values = np.asarray(grid)
        if values.dtype.kind not in "iu":
            raise InputError(f"grid of {values.dtype} values, expected elements")
        if values.size and not (0 <= values.min() and values.max() < alg.size):
            bad = values[(values < 0) | (values >= alg.size)].flat[0]
            raise InputError(f"argument {bad} outside the universe")
    _check_term(alg, term, len(grids))
    return _eval_grid(alg, term, grids)


def _eval_grid(alg, term, grids):
    """The value of a term checked by _check_term: a Var reads its grid and
    an App gathers its operation's table at its subterms' values."""
    if isinstance(term, Var):
        return grids[term.index]
    table = alg.table_array(term.op)
    return table[tuple(_eval_grid(alg, t, grids) for t in term.args)]


def term_table(alg: FiniteAlgebra, term: Term, arity: int) -> np.ndarray:
    """The table of a term read as an operation of the given arity (at
    least 1), as an array of shape (alg.size,) * arity in table_dtype.

    It is evaluated by eval_term_grid's evaluator over blocks of first
    arguments of about _BLOCK entries each, so what it holds beyond the
    result is bounded. A table over MAX_TABLE_ENTRIES raises InputError
    before anything is allocated, and so do an arity below 1 and a term
    eval_term would refuse."""
    if arity < 1:
        raise InputError(f"a term table has arity at least 1, got {arity}")
    _check_term(alg, term, arity)
    n = alg.size
    check_table_size(n, arity, f"the term {term_str(term)} on {alg.name}")
    dtype = table_dtype(n)
    axes = [
        np.arange(n, dtype=dtype).reshape([n if j == i else 1 for j in range(arity)])
        for i in range(arity)
    ]
    out = np.empty((n,) * arity, dtype=dtype)
    rows = max(1, _BLOCK // n ** (arity - 1))
    for lo in range(0, n, rows):
        out[lo : lo + rows] = _eval_grid(alg, term, [axes[0][lo : lo + rows], *axes[1:]])
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
# quotients and reducts


def quotient(alg: FiniteAlgebra, delta) -> tuple[FiniteAlgebra, tuple[int, ...]]:
    """The quotient algebra and the projection map element -> class label.

    Classes are numbered by least member (the canonical label order).
    delta is certified (algebra.certify) unless it is a Congruence of alg.
    """
    part = congruence(alg, delta).partition
    reps = np.array(part.representatives(), dtype=np.intp)
    labels = np.array(part.labels, dtype=table_dtype(part.num_blocks))
    ops = [
        Operation(op.name, op.arity, labels[alg.table_array(op.name)[np.ix_(*[reps] * op.arity)]])
        for op in alg.ops
    ]
    return FiniteAlgebra(part.num_blocks, ops, name=f"{alg.name}/q"), part.labels


def reduct(alg: FiniteAlgebra, interp, name: Optional[str] = None) -> FiniteAlgebra:
    """Interpret a new language inside alg: each new symbol is given by a term.

    `interp` maps new symbol -> (arity, term). Arity-0 symbols take a unary
    term that must be constant on alg; its single value becomes the table.
    """
    ops = []
    for sym, (arity, term) in interp.items():
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
# subalgebras


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
