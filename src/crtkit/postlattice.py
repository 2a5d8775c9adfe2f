"""Classification of two-element algebras and routing of congruence tuples.

A ternary operation on {0,1} is stored as an 8-bit table whose bit
4x + 2y + z holds the value at (x, y, z). Membership of the three special
tables

    s(x,y,z) = x + y + z (mod 2)
    n(x,y,z) = (x and y) or z
    m(x,y,z) = majority(x,y,z)

in the term clone drives the classification. The n case also accepts the
0-1 relabeling of n, the table (x or y) and z: the two generate isomorphic
algebras, so every decision procedure for one serves the other, and
clones such as the one generated by x and (y or z) contain only the
relabeled form. By Post's description of the clones on a two-element set,
an algebra whose clone misses s, m and both forms of n has only
essentially unary basic operations, or only operations of the join form
c or x_{i_1} or ... or x_{i_r} (dually, only meet forms). classify()
picks the first matching case in a fixed priority order; route_decide()
then hands a congruence tuple to the decision procedure that the case
supports: the n case to the nearlattice decision on a view certified
through the generator's tables, the others through the table of deciders
that `crtkit check --method` uses (crtkit.deciders.DECIDERS), falling
back to brute force with a complexity warning for the last two cases.

The case is read from Post's lattice (E. Post, "The two-valued iterative
systems of mathematical logic", 1941; Boehler, Creignou, Reith, Vollmer,
"Playing with Boolean blocks, Part I", SIGACT News 34(4), 2003): which of
a fixed table of invariant relations every basic operation preserves, with
no clone closure. Each preservation test is bit-sliced: for a relation R
and an operation of arity k, bit c of an int stands for the c-th of the
|R|^k choices of k rows, the operation is evaluated bitwise on one int per
argument and coordinate, and R's characteristic function on the images,
so that all choices are tested at once, up to 2^29 choices; a wider
test is refused with an InputError. Witness terms, and the ternary
part of the clone (ternary_clone), come from a breadth-first search over
8-bit tables that records a smallest-depth term for each table it
reaches; it runs only when a witness or the clone itself is asked for,
and decodes only the terms asked for. The search composes an
operation of any arity by currying its first argument: with A and B its
compositions with the first argument fixed to 0 and to 1,
op(g, ...) = A ^ ((A ^ B) & g) bitwise. So a composition depends on the
other arguments only through the pair (A, A ^ B), and a large round
composes each distinct pair once. A round evaluates this over blocks of
first arguments, so it holds the pairs and one block at a time, never the
whole product; A and A ^ B themselves span every tuple of the other
arguments, so halves past a byte bound are refused with an InputError
before they are built. A search for one witness looks, in each round, for its
table alone, and stops at the first hit; only a round that misses it
records every new table.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

# terms and nearlattice load numpy with their bodies, so they are read
# through their lazily loaded modules: the tag alone runs neither
from . import deciders, nearlattice, terms
from .algebra import Congruence, FiniteAlgebra, Operation, _evaluate, _repeat, table_dtype
from .errors import ClassificationError, InputError, PreconditionError, StructureError

if TYPE_CHECKING:
    import numpy as np

PROJ_X = 0xF0  # bit 4x+2y+z carries x
PROJ_Y = 0xCC
PROJ_Z = 0xAA

S_TABLE = 0x96
N_TABLE = 0xEA
N_DUAL_TABLE = 0xA8  # (x or y) and z, the 0-1 relabeling of n
M_TABLE = 0xE8

HAS_S = "HasS"
HAS_N = "HasN"
HAS_M = "HasM"
ESSENTIALLY_UNARY = "EssentiallyUnary"
SEMILATTICE_FAMILY = "SemilatticeFamily"


def _check_two(alg2: FiniteAlgebra):
    if alg2.size != 2:
        raise InputError(f"{alg2.name} has {alg2.size} elements, need exactly 2")


def table_of_term(alg2: FiniteAlgebra, term: terms.Term) -> int:
    """8-bit table of a term read as a ternary operation on {0,1}: the
    entry at (x, y, z) is bit 4x + 2y + z, the little-endian packing of its
    2x2x2 term_table."""
    _check_two(alg2)
    bits = terms.term_table(alg2, term, 3).ravel().tolist()
    return sum(bit << p for p, bit in enumerate(bits))


# entries per block of a composition round, which bounds the arrays a round
# builds beyond the op(0, ...) and op(1, ...) halves
_BLOCK = 1 << 18

# bytes the two halves of one curried operation may take; the 6-ary nor's
# reach 2 * 41^5, its 7-ary form's 2 * 41^6 (9.5 GB)
_MAX_HALVES_BYTES = 1 << 28


def _curry(op: Operation, R: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The compositions A of op(0, ...) and B of op(1, ...) with every tuple
    over R, flat in C order (first argument slowest), returned as A and
    A ^ B: then op(g, ...) = A ^ ((A ^ B) & g) bitwise, so it depends on
    the rest of the tuple only through the pair (A, A ^ B) there (see
    _pairs). Each half is one bit-sliced fold (algebra._evaluate) of op's
    table over per-axis grids of R, built over all |R|^(arity - 1) rests;
    halves of more than _MAX_HALVES_BYTES raise InputError before they
    are allocated."""
    import numpy as np

    table, rest = op.table, op.arity - 1
    size = 2 * R.size**rest
    if size > _MAX_HALVES_BYTES:
        raise InputError(
            f"the witness search composes {op.name} (arity {op.arity}) over {R.size} "
            f"tables: its halves need 2 * {R.size}^{rest} = {size} bytes, more than "
            f"the {_MAX_HALVES_BYTES} allowed"
        )
    axes = [R.reshape([-1 if j == i else 1 for j in range(rest)]) for i in range(rest)]
    half = len(table) // 2
    out = np.empty((2,) + (R.size,) * rest, dtype=np.uint8)
    out[0] = _evaluate(table[:half], axes, 0xFF)
    out[1] = _evaluate(table[half:], axes, 0xFF)
    out[1] ^= out[0]
    A, X = out.reshape(2, -1)
    return A, X


def _first_positions(keys: np.ndarray, count: int) -> np.ndarray:
    """For each key below count, its first position in keys, or len(keys)
    where it does not occur. One unbuffered minimum (np.minimum.at) over
    the keys, in place of the sort of np.unique, which costs several times
    more on the blocks of a round. Before numpy 1.25, ufunc.at looped per
    element, hence the floor on numpy in pyproject.toml."""
    import numpy as np

    first = np.full(count, keys.size, dtype=np.intp)
    np.minimum.at(first, keys, np.arange(keys.size))
    return first


def _pairs(A: np.ndarray, X: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The distinct pairs (A[r], X[r]) of a curried operation (see _curry),
    as A, X and lead, in lead order: the lead of a pair is the first rest r,
    in flat order, that has it. op(g, r) depends on r only through its
    pair, so for each g the first rest at which op(g, ...) takes a value is
    a lead. Found in blocks of _BLOCK rests (see _first_positions) against
    a mask of the 2^16 pair codes already seen, so nothing is built over
    all rests at once. This keeps the rounds of a high-arity operation
    small: the last round of the clone of the 5-ary nor has 41^4 rests but
    256 distinct pairs."""
    import numpy as np

    seen = np.zeros(1 << 16, dtype=bool)
    leads = []
    for lo in range(0, A.size, _BLOCK):
        code = A[lo : lo + _BLOCK].astype(np.uint16) << 8 | X[lo : lo + _BLOCK]
        first = _first_positions(code, 1 << 16)
        fresh = (first < code.size) & ~seen
        seen |= fresh
        leads.append(np.sort(first[fresh]) + lo)
    lead = np.concatenate(leads)
    return A[lead], X[lead], lead


def _first_hit(A: np.ndarray, X: np.ndarray, R: np.ndarray, target: int) -> Optional[int]:
    """The least flat index g * len(A) + r with A[r] ^ (X[r] & R[g]) equal
    to target, or None. Only a rest whose A agrees with target where X is
    0 can hit, so the product is walked over those rests alone, in blocks
    of g."""
    import numpy as np

    cand = np.flatnonzero(((A ^ target) & ~X) == 0)
    if not cand.size:
        return None
    Ac, Xc = A[cand], X[cand]
    rows = max(1, _BLOCK // cand.size)
    for lo in range(0, R.size, rows):
        hits = np.flatnonzero((Ac ^ (Xc & R[lo : lo + rows, None])).ravel() == target)
        if hits.size:
            g, u = divmod(int(hits[0]), cand.size)
            return (lo + g) * A.size + int(cand[u])
    return None


# ---------------------------------------------------------------------------
# witnessed closure


class _Closure:
    """The tables a witness search reached, in discovery order, each with
    the recipe of its witness term: the term itself for a projection or a
    constant, else (operation, first flat index, tables known at the start
    of its round). Terms are decoded from recipes only when asked for."""

    def __init__(self):
        self.order: list[int] = []
        self._recipes: dict[int, object] = {}
        self._terms: dict[int, terms.Term] = {}

    def __contains__(self, tab: int) -> bool:
        return tab in self._recipes

    def add(self, tab: int, recipe):
        if tab not in self._recipes:
            self._recipes[tab] = recipe
            self.order.append(tab)

    def term(self, tab: int) -> terms.Term:
        if tab not in self._terms:
            recipe = self._recipes[tab]
            if isinstance(recipe, tuple):
                op, pos, size = recipe
                digits = []
                for _ in range(op.arity):  # last axis varies fastest
                    digits.append(pos % size)
                    pos //= size
                args = tuple(self.term(self.order[i]) for i in reversed(digits))
                recipe = terms.App(op.name, args)
            self._terms[tab] = recipe
        return self._terms[tab]

    def witnesses(self) -> dict[int, terms.Term]:
        return {tab: self.term(tab) for tab in self.order}


def _witness_bfs(alg2: FiniteAlgebra, target: Optional[int]) -> _Closure:
    """Breadth-first closure keyed by table; the round number is the term
    depth, so the first term recorded for a table has smallest depth.

    Rounds recompose every tuple over the tables known at round start (a
    table composable from earlier rounds was already found then, so new
    tables really have the current depth), one operation at a time in
    signature order. An operation of any arity is curried on its first
    argument (see _curry). Where its product is larger than one block, only
    the distinct pairs of its halves are composed (see _pairs), so a round
    walks |R| first arguments times the distinct pairs, in blocks of _BLOCK
    entries (one first argument at least), in flat order. A new table's
    witness is recorded as the first flat index at which it occurs, and
    the new tables of one operation are recorded in value order.

    With a target, each round first looks for the target alone, operation
    by operation, in the product of the halves (see _first_hit; that
    search skips the rests that cannot hit, so it needs no deduplication).
    At the first hit it records the target, with the operation and flat
    index that the whole round would record, and stops; the smaller tables
    of that round are not recorded. Only a round that does not reach the
    target records every new table."""
    import numpy as np

    found = _Closure()
    found.add(PROJ_X, terms.Var(0))
    found.add(PROJ_Y, terms.Var(1))
    found.add(PROJ_Z, terms.Var(2))
    for op in alg2.ops:
        if op.arity == 0:
            found.add(0xFF if op.table[0] else 0x00, terms.App(op.name))
    if target in found:
        return found
    known = np.zeros(256, dtype=bool)
    known[found.order] = True
    ops = [op for op in alg2.ops if op.arity]
    changed = True
    while changed and len(found.order) < 256:
        changed = False
        R = np.array(found.order, dtype=np.uint8)
        products = []
        for op in ops:
            A, X = _curry(op, R)
            hit = None if target is None else _first_hit(A, X, R, target)
            if hit is not None:
                found.add(target, (op, hit, R.size))
                return found
            rest = A.size  # flat entries per first argument
            if rest * R.size > _BLOCK:
                A, X, lead = _pairs(A, X)
            else:  # a product of one block costs less than its deduplication
                lead = np.arange(rest)
            products.append((op, A, X, lead, rest))
        for op, A, X, lead, rest in products:
            rows = max(1, _BLOCK // A.size)
            first: dict[int, int] = {}  # new table -> first flat index
            for lo in range(0, R.size, rows):
                block = (A ^ (X & R[lo : lo + rows, None])).ravel()
                pos = _first_positions(block, 256)
                vals = np.flatnonzero((pos < block.size) & ~known)
                known[vals] = True
                g, u = np.divmod(pos[vals], A.size)
                first.update(zip(vals.tolist(), ((lo + g) * rest + lead[u]).tolist()))
            for val in sorted(first):
                found.add(val, (op, first[val], R.size))
                changed = True
    return found


def ternary_clone(alg2: FiniteAlgebra) -> dict[int, terms.Term]:
    """The ternary part of the term clone, each table mapped to a
    smallest-depth witness term. At most 256 tables, so this terminates."""
    _check_two(alg2)
    return _witness_bfs(alg2, None).witnesses()


def _witness_term(alg2: FiniteAlgebra, target: int) -> terms.Term:
    found = _witness_bfs(alg2, target)
    if target not in found:
        raise StructureError(
            f"table {target:#04x} vanished from the clone of {alg2.name} "
            "during witness reconstruction"
        )
    return found.term(target)


# ---------------------------------------------------------------------------
# the five-way classification


@dataclass(frozen=True)
class Classification:
    tag: str
    witness: Optional[terms.Term] = None
    table: Optional[int] = None


def _relation(width: int, member) -> frozenset[tuple[int, ...]]:
    return frozenset(
        row for row in itertools.product((0, 1), repeat=width) if member(*row)
    )


# the invariant relations of the clones named in classify()
_RELATIONS = {
    "<=": _relation(2, lambda a, b: a <= b),
    "!=": _relation(2, lambda a, b: a != b),
    "affine": _relation(4, lambda a, b, c, d: a ^ b ^ c ^ d == 0),
    "dup3": _relation(3, lambda a, b, c: a == b or b == c),
    "and": _relation(3, lambda a, b, c: a == b & c),
    "or": _relation(3, lambda a, b, c: a == b | c),
    "T0^2": _relation(2, lambda *row: any(row)),
    "T0^3": _relation(3, lambda *row: any(row)),
    "T1^2": _relation(2, lambda *row: not all(row)),
    "T1^3": _relation(3, lambda *row: not all(row)),
}

# priority order; each table is in the clone of the basic operations exactly
# when they preserve none of the relations on its row
_TARGETS = (
    (HAS_S, S_TABLE, ("<=", "T0^2", "T1^2", "dup3")),
    (HAS_N, N_TABLE, ("!=", "affine", "dup3", "and", "or", "T1^2")),
    (HAS_N, N_DUAL_TABLE, ("!=", "affine", "dup3", "and", "or", "T0^2")),
    (HAS_M, M_TABLE, ("affine", "T0^3", "T1^3", "dup3", "and", "or")),
)


# choices of rows one preservation test may take: its ints hold that many
# bits each; the 11-ary nor's 6^11 fit, a 10-ary threshold's 8^10 do not
_MAX_CHOICES = 1 << 29


@functools.cache
def _choice_masks(rel: frozenset[tuple[int, ...]], arity: int):
    """Bit-sliced choices of `arity` rows of rel, one bit per choice.

    Choice c picks row c_i for argument i, where c_0 ... c_{arity-1} are the
    base-|rel| digits of c, first argument most significant. Returns the
    masks, masks[j][i] having bit c set when row c_i has a 1 at coordinate
    j, and the all-ones int over the |rel| ** arity choices. Argument i
    repeats one period of |rel| runs of |rel| ** (arity - 1 - i) equal bits,
    so its mask is that period repeated |rel| ** i times (see _repeat).
    More than _MAX_CHOICES choices raise InputError before any int is
    built."""
    rows = sorted(rel)
    n, width = len(rows), len(rows[0])
    if n**arity > _MAX_CHOICES:
        raise InputError(
            f"the tag tests an operation of arity {arity} on a relation of {n} rows: "
            f"its {n}^{arity} = {n**arity} choices of rows are more than the "
            f"{_MAX_CHOICES} allowed"
        )
    masks: list[list[int]] = [[] for _ in range(width)]
    for i in range(arity):
        run = n ** (arity - 1 - i)
        for j in range(width):
            block = sum(((1 << run) - 1) << (r * run) for r, row in enumerate(rows) if row[j])
            masks[j].append(_repeat(block, n * run, n**i))
    return masks, (1 << n**arity) - 1


@functools.cache
def _member_table(rel: frozenset[tuple[int, ...]]) -> tuple[bool, ...]:
    """The characteristic function of rel, flat, first coordinate most
    significant."""
    width = len(next(iter(rel)))
    return tuple(row in rel for row in itertools.product((0, 1), repeat=width))


def _preserves(op: Operation, rel: frozenset[tuple[int, ...]]) -> bool:
    """Does op, applied row-wise to any op.arity rows of rel, give a row of
    rel? A nullary operation c gives the row (c, ..., c).

    All len(rel) ** op.arity choices of rows are tested at once, as the bits
    of one int (see _choice_masks): op is evaluated bitwise on the masks of
    each coordinate, rel's characteristic function on the images, and op
    preserves rel exactly when every bit of the result is set."""
    masks, ones = _choice_masks(rel, op.arity)
    images = [_evaluate(op.table, column, ones) for column in masks]
    return _evaluate(_member_table(rel), images, ones) == ones


def classify(alg2: FiniteAlgebra, with_witness: bool = True) -> Classification:
    """First matching case, in order: s in the clone, n in the clone (either
    form, straight before relabeled), m in the clone, all basic operations
    essentially unary, all basic operations join forms (dually meet forms).

    Membership is read from Post's lattice. Operations F preserve a
    relation R exactly when their clone [F] lies in Pol(R), so a table t is
    in [F] exactly when F preserves none of the relations R whose Pol(R)
    are the maximal clones missing t. In the notation of Boehler et al.:
    R0, R1 (0-, 1-preserving), R2 = R0 and R1, M = Pol(<=), D = Pol(!=),
    L = Pol(affine), N = Pol(dup3) (essentially unary), E = Pol(graph of
    and) = [and, 0, 1], V = Pol(graph of or) = [or, 0, 1], S0^k =
    Pol(T0^k) with S0^2 > S0^3 > ..., S02^k = S0^k and R2, S01^k = S0^k
    and M, S00^k = S0^k and R2 and M, their limits S0, S02, S01, S00 (the
    S0-clones), and dually the S1-clones from S1^k = Pol(T1^k). The rows
    of _TARGETS are:

    - s generates L2 = L and R2. The clones above it are L0..L3, L, D1, D,
      R0..R2 and all functions; every other clone lies in M (which holds
      D2, E and V), in N, or in an S0- or S1-clone, so in S0^2 or S1^2.
    - n generates S00. The clones above it are the S0-clones (S00^k,
      S01^k, S02^k, S0^k for every k, and their limits), M0..M2, M,
      R0..R2 and all functions; every other clone lies in D, L, N, E, V,
      or an S1-clone, so in S1^2. Its relabeling (x or y) and z generates
      S10 and swaps S1^2 for S0^2.
    - m generates D2 = D and M. The clones above it are D1, D, M0..M2, M,
      R0..R2, all functions, and the degree-2 clones S0^2, S02^2, S01^2,
      S00^2 and their S1 duals; every other clone lies in L, N, E, V, or
      in an S0- or S1-clone of degree 3 or more or a limit, so in S0^3
      or S1^3.

    A clone above none of L2, S00, S10 and D2 lies in N, E or V. N comes
    first: F preserves dup3 exactly when every basic operation is
    essentially unary. Otherwise F preserves the graph of or (the join
    forms c or x_{i_1} or ..., which make up V) or that of and (the meet
    forms, E). The rule reads only which relations each basic operation
    preserves, so it holds for operations of every arity, nullary ones
    included. Each relation is tested at most once per call, and each test
    runs over all choices of rows at once (see _preserves).

    The witness term is found by breadth-first search only on demand
    (`with_witness=False` skips it). A two-element algebra outside all five
    cases would contradict Post's classification, so that raises
    ClassificationError rather than guessing.
    """
    _check_two(alg2)

    @functools.cache
    def preserved(name: str) -> bool:
        return all(_preserves(op, _RELATIONS[name]) for op in alg2.ops)

    for tag, tab, relations in _TARGETS:
        if not any(preserved(name) for name in relations):
            term = _witness_term(alg2, tab) if with_witness else None
            return Classification(tag, term, tab)
    if preserved("dup3"):
        return Classification(ESSENTIALLY_UNARY)
    if preserved("or") or preserved("and"):
        return Classification(SEMILATTICE_FAMILY)
    raise ClassificationError(
        f"{alg2.name} fits no case: the ternary clone misses s, m and both "
        "forms of n, yet some basic operation is neither essentially unary "
        "nor a join or meet form"
    )


# ---------------------------------------------------------------------------
# the affine route


def _derived_addition(alg, s_term: terms.Term) -> FiniteAlgebra:
    """The algebra with the one operation x + y := s(x, y, 0), named add.

    Verifies that x + x = 0; coordinatize checks the group laws with 0 as
    neutral element, which make the universe a GF(2)-vector space with
    origin 0.
    """
    import numpy as np

    n = alg.size
    idx = np.arange(n)
    T = np.empty((n, n), dtype=table_dtype(n))
    T[...] = terms.eval_term_grid(alg, s_term, (idx[:, None], idx[None, :], 0))
    if T.diagonal().any():
        raise PreconditionError("derived addition does not square to the neutral element")
    return FiniteAlgebra(n, [Operation("add", 2, T)], name=f"{alg.name}+")


def _carried(alg, derived: FiniteAlgebra, thetas):
    """thetas as members for derived, whose operations are polynomial
    operations of alg: those preserve every congruence of alg, so a
    Congruence of alg passes to derived without a second check."""
    return [
        Congruence(derived, t.partition) if isinstance(t, Congruence) and t.algebra is alg else t
        for t in thetas
    ]


# ---------------------------------------------------------------------------
# routing


@dataclass(frozen=True)
class RouteResult:
    route: str  # "vs" | "nearlattice" | "dualdisc" | "brute"
    is_cr: bool
    verdict: object
    warning: Optional[str] = None

    def __bool__(self):
        return self.is_cr


def _operations(term: terms.Term) -> set[str]:
    if isinstance(term, terms.Var):
        return set()
    return {term.op}.union(*map(_operations, term.args))


def _generator_view(alg, generator: FiniteAlgebra, cls: Classification):
    """The view of alg certified through the generator's own tables
    (nearlattice.make_view), with no reduct. The order is read off
    j(x, y) = witness(x, x, y), which is x or y on the generator, or x and y
    for the relabeled n, whose tables are then relabeled 0-1. Sigma is
    certified on the operations the witness uses, so it carries the witness
    to n coordinatewise: this is the view of the reduct of alg to n."""
    import numpy as np

    idx = np.arange(alg.size)
    swap = cls.table == N_DUAL_TABLE
    rules = []
    for name in sorted(_operations(cls.witness)):
        table = generator.op(name).table
        if swap:
            table = tuple(1 - v for v in reversed(table))
        rules.append((name, table, f"{name} of {generator.name}" + " relabeled 0-1" * swap))
    join = terms.eval_term_grid(alg, cls.witness, (idx[:, None], idx[:, None], idx[None, :]))
    return nearlattice.make_view(alg, join_table=join, rules=rules)


# each class's route and, for the brute-force fallbacks, its warning
_ROUTES = {
    HAS_S: ("vs", None),
    HAS_N: ("nearlattice", None),
    HAS_M: ("dualdisc", None),
    ESSENTIALLY_UNARY: ("brute", "brute-force decision; this class is coNP-complete in general"),
    SEMILATTICE_FAMILY: ("brute", "brute-force decision; the complexity of this class is open"),
}


def route_decide(alg, thetas, generator: FiniteAlgebra) -> RouteResult:
    """Decide whether a tuple is CR by the procedure its class supports.

    The caller asserts that alg lies in the variety generated by the
    two-element generator, whose class (classify) picks a route and the
    algebra it runs on: the derived addition s(x, y, 0) for s, and alg
    itself otherwise, whose view for n is certified through the
    generator's tables (_generator_view). The route certifies the tuple on
    that algebra (algebra.certify): a Congruence of alg passes unchecked,
    as the derived operations are polynomial operations of alg. The decider
    verifies its own preconditions and raises instead of returning a wrong
    verdict. Classes without a polynomial procedure fall back to brute
    force and carry a complexity warning.
    """
    cls = classify(generator)
    route, warning = _ROUTES[cls.tag]
    if cls.tag == HAS_N:
        verdict = nearlattice.is_cr_tuple_nearlattice(_generator_view(alg, generator, cls), thetas)
    else:
        on = _derived_addition(alg, cls.witness) if cls.tag == HAS_S else alg
        verdict = deciders.DECIDERS[route](on, _carried(alg, on, thetas))
    return RouteResult(route, verdict.is_cr, verdict, warning)
