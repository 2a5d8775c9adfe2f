"""CR tuples over finite vector spaces GF(p)^n, decided by dimension counts.

A congruence of a vector space is translation of a subspace W: x ~ y iff
x - y in W. For a tuple W_1..W_k the compatible target tuples form the
solution space of linear conditions a_i - a_j in W_i + W_j, and the solvable
ones form the subspace spanned by the diagonal together with prod W_i. The
tuple is CR exactly when the two dimensions agree.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .algebra import as_partitions, failed_binary_law
from .errors import InputError, PreconditionError, StructureError
from .partitions import Partition


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _as_matrix(rows, width: int, p: int) -> np.ndarray:
    mat = np.array(list(rows), dtype=np.int64)
    if mat.size == 0:
        return np.zeros((0, width), dtype=np.int64)
    if mat.ndim == 1:
        mat = mat.reshape(1, -1)
    if mat.ndim != 2 or mat.shape[1] != width:
        raise InputError(f"expected row vectors of length {width}")
    return mat % p


def rref(mat: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form mod p; returns (nonzero rows, pivot columns)."""
    A = np.array(mat, dtype=np.int64) % p
    if A.ndim != 2:
        raise InputError("rref expects a matrix")
    rows, cols = A.shape
    r = 0
    pivots: list[int] = []
    for c in range(cols):
        piv = None
        for i in range(r, rows):
            if A[i, c]:
                piv = i
                break
        if piv is None:
            continue
        if piv != r:
            A[[r, piv]] = A[[piv, r]]
        A[r] = (A[r] * pow(int(A[r, c]), p - 2, p)) % p
        for i in range(rows):
            if i != r and A[i, c]:
                A[i] = (A[i] - A[i, c] * A[r]) % p
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return A[:r], pivots


def rank(mat: np.ndarray, p: int) -> int:
    return rref(mat, p)[0].shape[0]


def kernel_basis(mat: np.ndarray, p: int) -> np.ndarray:
    """Rows spanning {x : mat @ x = 0 mod p}."""
    A = np.asarray(mat, dtype=np.int64)
    if A.ndim != 2:
        raise InputError("kernel_basis expects a matrix")
    cols = A.shape[1]
    R, pivots = rref(A, p)
    free = [c for c in range(cols) if c not in pivots]
    out = np.zeros((len(free), cols), dtype=np.int64)
    for idx, f in enumerate(free):
        out[idx, f] = 1
        for row, pc in enumerate(pivots):
            out[idx, pc] = (-R[row, f]) % p
    return out


@dataclass(eq=False)
class VSInstance:
    """A congruence tuple on GF(p)^n, one RREF subspace basis per coordinate."""

    p: int
    n: int
    subspaces: tuple[np.ndarray, ...]

    @property
    def k(self):
        return len(self.subspaces)


def vs_instance(p: int, n: int, bases: Sequence) -> VSInstance:
    if not is_prime(p):
        raise PreconditionError(f"{p} is not prime")
    if n < 0:
        raise InputError("negative dimension")
    if not bases:
        raise InputError("need at least one subspace")
    subs = []
    for basis in bases:
        mat = _as_matrix(basis, n, p)
        subs.append(rref(mat, p)[0])
    return VSInstance(p=p, n=n, subspaces=tuple(subs))


def annihilator_matrix(inst: VSInstance) -> np.ndarray:
    """Stack, over pairs i<j, the conditions a_i - a_j in W_i + W_j (the
    kernel of the stacked bases) as rows over the kn coordinates of a
    target tuple."""
    p, n, k = inst.p, inst.n, inst.k
    blocks = []
    for i in range(k):
        for j in range(i + 1, k):
            ann = kernel_basis(np.vstack([inst.subspaces[i], inst.subspaces[j]]), p)
            if ann.shape[0] == 0:
                continue
            wide = np.zeros((ann.shape[0], k * n), dtype=np.int64)
            wide[:, i * n : (i + 1) * n] = ann
            wide[:, j * n : (j + 1) * n] = (-ann) % p
            blocks.append(wide)
    if not blocks:
        return np.zeros((0, inst.k * inst.n), dtype=np.int64)
    return np.vstack(blocks)


def dim_solvable(inst: VSInstance) -> int:
    """Dimension of {(a+w_1, ..., a+w_k) : a in V, w_i in W_i} inside V^k:
    n + sum dim W_i - dim(cap W_i), and n - dim(cap W_i) = dim ann(cap W_i)
    is the rank of the stacked kernel bases, as ann(cap W_i) = sum ann(W_i)."""
    p = inst.p
    anns = np.vstack([kernel_basis(w, p) for w in inst.subspaces])
    return sum(w.shape[0] for w in inst.subspaces) + rank(anns, p)


def dim_compatible(inst: VSInstance) -> int:
    """Dimension of {(a_1..a_k) : a_i - a_j in W_i + W_j for all i < j}."""
    return inst.k * inst.n - rank(annihilator_matrix(inst), inst.p)


@dataclass(frozen=True)
class VsVerdict:
    is_cr: bool
    dim_solvable: int
    dim_compatible: int

    def __bool__(self):
        return self.is_cr

    @property
    def line(self) -> str:
        """What `crtkit check` prints under a NOT-CR verdict."""
        return (
            f"REASON: solvable dimension {self.dim_solvable} < "
            f"compatible dimension {self.dim_compatible}"
        )


def is_cr_tuple_vs(inst: VSInstance) -> VsVerdict:
    """Solvable tuples always sit inside compatible ones; CR is equality,
    hence an equality of dimensions."""
    ds = dim_solvable(inst)
    dt = dim_compatible(inst)
    if ds > dt:
        raise StructureError(
            f"solvable dimension {ds} exceeds compatible dimension {dt}; "
            "the input subspaces were inconsistent"
        )
    return VsVerdict(ds == dt, ds, dt)


# ---------------------------------------------------------------------------
# bridges between vector-space instances and plain finite algebras


@dataclass(frozen=True)
class Coordinatization:
    """A bijection between an elementary abelian group and GF(p)^dim."""

    p: int
    dim: int
    basis: tuple[int, ...]
    to_vector: tuple[tuple[int, ...], ...]  # element -> coordinates
    from_vector: dict  # coordinate tuple -> element


def coordinatize(alg) -> Coordinatization:
    """Chart an algebra whose `add` table is an elementary abelian group.

    Verifies commutativity, associativity, the neutral element, inverses and
    prime exponent, then grows a basis greedily and assigns coordinates along the
    way. Raises PreconditionError when the table is not such a group.
    """
    size = alg.size
    op = alg.op("add")
    if op.arity != 2:
        raise InputError("'add' is not binary")
    table = op.table

    def plus(x, y):
        return table[x * size + y]

    law = failed_binary_law(alg.table_array("add"), ("commutative", "associative"))
    if law is not None:
        raise PreconditionError(f"addition is not {law}")
    zero_elem = next(
        (e for e in range(size) if all(plus(e, x) == x for x in range(size))), None
    )
    if zero_elem is None:
        raise PreconditionError("no neutral element for the addition table")

    if size == 1:
        return Coordinatization(2, 0, (), ((),), {(): zero_elem})

    # exponent p: the additive order of any non-zero element; in a finite
    # monoid x is invertible iff some k <= size has k * x = 0
    def order(x):
        acc = x
        for k in range(1, size + 1):
            if acc == zero_elem:
                return k
            acc = plus(acc, x)
        raise PreconditionError(f"element {x} has no inverse for the addition")

    p = order(next(e for e in range(size) if e != zero_elem))
    if not is_prime(p):
        raise PreconditionError(f"element order {p} is not prime")
    for e in range(size):
        if e != zero_elem and order(e) != p:
            raise PreconditionError("mixed element orders; not elementary abelian")

    coords = {zero_elem: ()}
    basis: list[int] = []
    for e in range(size):
        if e in coords:
            continue
        basis.append(e)
        current = list(coords.items())
        for elem, vec in current:
            acc = elem
            for lam in range(1, p):
                acc = plus(acc, e)
                coords[acc] = vec + (lam,)
        for elem in list(coords):
            coords[elem] = coords[elem] + (0,) * (len(basis) - len(coords[elem]))
    dim = len(basis)
    if p**dim != size:
        raise PreconditionError("group order is not a prime power")  # unreachable
    to_vector = tuple(tuple(coords[e]) for e in range(size))
    from_vector = {tuple(coords[e]): e for e in range(size)}
    return Coordinatization(p, dim, tuple(basis), to_vector, from_vector)


def congruence_to_subspace(chart: Coordinatization, theta) -> np.ndarray:
    """The block of zero, as an RREF subspace basis under the chart.

    For a congruence of the group the zero block is a subgroup, hence a
    subspace; the size check below catches partitions that are not."""
    (part,) = as_partitions([theta], len(chart.to_vector))
    zero = chart.from_vector[(0,) * chart.dim]
    block = [e for e in range(part.n) if part.labels[e] == part.labels[zero]]
    vecs = np.array([chart.to_vector[e] for e in block], dtype=np.int64).reshape(
        len(block), chart.dim
    )
    basis_rows, _ = rref(vecs, chart.p)
    if chart.p ** basis_rows.shape[0] != len(block):
        raise StructureError("zero block is not a subgroup of the chart group")
    return basis_rows


def subspace_to_partition(chart: Coordinatization, basis: np.ndarray) -> Partition:
    """Coset partition of a subspace pulled back through the chart: every
    element's vector is reduced by the RREF basis, all at once with one
    step per pivot row, and two elements share a coset iff their reduced
    vectors are equal (Partition labels them by first occurrence)."""
    p = chart.p
    R, pivots = rref(basis, p)
    vecs = np.array(chart.to_vector, dtype=np.int64).reshape(len(chart.to_vector), chart.dim)
    for row, pc in zip(R, pivots):
        vecs = (vecs - vecs[:, pc : pc + 1] * row) % p
    return Partition(map(tuple, vecs.tolist()))


def coset_partitions(inst: VSInstance) -> list[Partition]:
    """Partitions of {0..p^n-1} into the cosets of each W_i, where x codes
    the vector index_to_tuple(x, p, n): subspace_to_partition on the
    standard chart of GF(p)^n."""
    from .catalog import index_to_tuple

    p, n = inst.p, inst.n
    to_vector = tuple(index_to_tuple(x, p, n) for x in range(p**n))
    basis = tuple(p ** (n - 1 - i) for i in range(n))
    chart = Coordinatization(p, n, basis, to_vector, {v: x for x, v in enumerate(to_vector)})
    return [subspace_to_partition(chart, w) for w in inst.subspaces]
