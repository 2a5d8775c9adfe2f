"""CR tuples over nearlattices: subalgebras of powers of the two-element
algebra with the single ternary operation n(x,y,z) = (x and y) or z.

Everything runs through a view of the input algebra: its order, the set P
of meet-irreducible elements, and the embedding sigma(a) = {p in P : a is
not below p}, which maps the algebra onto a set of down-sets of P. One
engine builds every view (Birkhoff's embedding): it reads an order matrix
and certifies that sigma is injective and carries each named operation to
a two-element table, folded bitwise over the packed sigmas. make_view
takes a nearlattice's n as (x and y) or z, lattice_view a distributive
lattice's meet and join as and and or, tarski_view an implication
algebra's imp as (not x) or y, and the route of a generator whose clone
holds n (postlattice.route_decide) the generator's own tables. So
downstream procedures may rely on the representation.

For a tuple whose congruences meet to the identity, CR holds exactly when
(a) every covering pair of P lies inside some F_i = {p : theta_i is below
the two-block congruence at p}, and (b) every fringe down-set (maximal
outside the image of sigma) fails interpolation for at least one F_i. When
the meet delta is bigger, the same test runs on the projection onto
F(delta): the quotient by delta is the image of a -> sigma(a) & F(delta),
and its meet-irreducibles are the points of F(delta) in P's order.

Distributive lattices and implication algebras take this one decision on
their own views: a distributive lattice has no fringes, and the P of an
implication algebra is an antichain, so it has no covers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .algebra import FiniteAlgebra, _evaluate, as_partitions, certify
from .errors import InputError, StructureError
from .partitions import Partition, _bits, canonical_labels


@dataclass(eq=False)
class NearlatticeView:
    alg: FiniteAlgebra
    top: int
    leq: tuple[int, ...]  # leq[x] = bitmask of {y : y <= x}
    mi_elements: tuple[int, ...]  # P, ascending element order
    p_strict_down: tuple[int, ...]  # over P indices: {j : P[j] < P[i]}
    sigma: tuple[int, ...]  # sigma[a] = bitmask over P indices
    image: dict  # sigma mask -> element

    @property
    def p_count(self):
        return len(self.mi_elements)


# bytes of packed sigma that _certify_op compares per block of first arguments
_CHUNK_BYTES = 1 << 22


def _row_masks(rows: np.ndarray) -> list[int]:
    """Each row of a boolean matrix as an int with column j at bit j."""
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _order_view(
    alg: FiniteAlgebra, leq_bool: np.ndarray, what: str
) -> tuple[NearlatticeView, np.ndarray]:
    """The view read off an order matrix (entry [x, y] is x <= y), and
    sigma packed as little-endian bytes, one row per element.

    Certifies only that sigma is injective; the caller certifies that sigma
    carries its operations, which makes leq_bool the order of sigma's
    images. p is meet-irreducible iff its strict up-set is the up-set of
    one element (its unique upper cover).
    """
    n = alg.size
    tops = np.flatnonzero(leq_bool.all(axis=0))
    if len(tops) != 1:
        raise StructureError(f"{alg.name}: induced order has no top element")
    top = int(tops[0])
    up = _row_masks(leq_bool)
    up_sets = set(up)
    mi = np.array(
        [p for p in range(n) if p != top and up[p] & ~(1 << p) in up_sets], dtype=np.intp
    )
    below = leq_bool[np.ix_(mi, mi)].T  # [i, j]: P[j] <= P[i]
    np.fill_diagonal(below, False)
    S = np.packbits(~leq_bool[:, mi], axis=1, bitorder="little")
    sigma = tuple(int.from_bytes(row.tobytes(), "little") for row in S)
    image = {s: a for a, s in enumerate(sigma)}
    if len(image) != n:
        raise StructureError(
            f"{alg.name}: meet-irreducibles do not separate elements; {what}"
        )
    view = NearlatticeView(
        alg=alg,
        top=top,
        leq=tuple(_row_masks(leq_bool.T)),
        mi_elements=tuple(int(p) for p in mi),
        p_strict_down=tuple(_row_masks(below)),
        sigma=sigma,
        image=image,
    )
    return view, S


def _certify_op(alg: FiniteAlgebra, rule, S: np.ndarray, full: np.ndarray):
    """Raise StructureError at the first argument tuple (lex order) where
    sigma of the rule's operation's value differs from the rule's table
    folded over the packed sigmas of the arguments (_evaluate, with `full`
    the packed all-ones row)."""
    name, table, text = rule
    T = alg.table_array(name)
    n, k, width = alg.size, T.ndim, S.shape[1]

    def spread(a, axis):  # the rows of a along one argument axis of k
        return a.reshape([len(a) if j == axis else 1 for j in range(k)] + [width])

    def refuse(at):
        raise StructureError(
            f"{alg.name}: {name} is not coordinatewise {text} at arguments {at}"
        )

    if k == 0:
        if (S[T] != _evaluate(table, [], full)).any():
            refuse(())
        return
    step = max(1, _CHUNK_BYTES // max(1, n ** (k - 1) * width))
    for start in range(0, n, step):
        rows = S[start : start + step]
        want = _evaluate(table, [spread(rows, 0), *(spread(S, axis) for axis in range(1, k))], full)
        bad = np.argwhere((S[T[start : start + step]] != want).any(axis=-1))
        if len(bad):
            refuse((start + int(bad[0][0]),) + tuple(int(v) for v in bad[0][1:]))


def _view(alg: FiniteAlgebra, leq_bool: np.ndarray, rules, what: str) -> NearlatticeView:
    """The engine behind every view: the view read off leq_bool, with sigma
    certified on each rule: an operation name, its two-element table (flat,
    first argument most significant) and the table in words. The arities
    are checked before leq_bool is read."""
    for name, table, _ in rules:
        op = alg.op(name)
        if len(table) != 1 << op.arity:
            raise InputError(
                f"{name!r} has arity {op.arity}, expected {len(table).bit_length() - 1}"
            )
    view, S = _order_view(alg, leq_bool, what)
    full = np.packbits(np.ones(view.p_count, dtype=bool), bitorder="little")
    for rule in rules:
        _certify_op(alg, rule, S, full)
    return view


def make_view(
    alg: FiniteAlgebra,
    *,
    join_table: Optional[np.ndarray] = None,
    rules=None,
) -> NearlatticeView:
    """Validate the ternary table and assemble the decision view.

    The only ternary operation is n, and the order is x <= y iff
    n(x,x,y) = y. Raises InputError unless alg has exactly one ternary
    operation, and StructureError unless the order has a top and
    a -> {p : a not below p} embeds the algebra into a power of the
    two-element ternary algebra, with n acting coordinatewise. Given rules
    (see _view) and the table of a binary term j that is x or y on two
    elements, the order is x <= y iff j(x, y) = y and sigma must carry each
    rule's operation to its table instead.
    """
    idx = np.arange(alg.size)
    if rules is None:
        ternary = [op.name for op in alg.ops if op.arity == 3]
        if len(ternary) != 1:
            raise InputError(f"{alg.name} has {len(ternary)} ternary operations; need exactly one")
        rules = [(ternary[0], (0, 1, 0, 1, 0, 1, 1, 1), "(x and y) or z")]
        join_table = alg.table_array(ternary[0])[idx[:, None], idx[:, None], idx[None, :]]
    what = "not a subalgebra of a power of the two-element ternary algebra"
    return _view(alg, join_table == idx[None, :], rules, what)


def lattice_view(alg: FiniteAlgebra) -> NearlatticeView:
    """View of a distributive lattice: x <= y iff x v y = y, and sigma must
    be an injective lattice homomorphism into the subsets of P."""
    alg.op("meet")  # a missing meet is named first
    leq = alg.table_array("join") == np.arange(alg.size)[None, :]
    rules = [("meet", (0, 0, 0, 1), "x and y"), ("join", (0, 1, 1, 1), "x or y")]
    return _view(alg, leq, rules, "not a distributive lattice")


def tarski_view(alg: FiniteAlgebra) -> NearlatticeView:
    """View of an implication algebra: x <= y iff x -> y is the top
    (x -> x), sigma must carry imp to (not x) or y, and P must be an
    antichain."""
    I = alg.table_array("imp")
    rules = [("imp", (1, 1, 0, 1), "(not x) or y")]
    view = _view(alg, I == I.flat[0], rules, "not an implication algebra")
    if any(view.p_strict_down):
        raise StructureError(
            f"{alg.name}: meet-irreducibles are not an antichain; "
            "not an implication algebra"
        )
    return view


# ---------------------------------------------------------------------------
# congruences through the view


def f_of_theta(view: NearlatticeView, theta) -> int:
    """Bitmask over P indices of {p : theta refines the two-block split at p}."""
    (part,) = as_partitions([theta], view.alg.size)
    masks = part.block_masks()
    out = 0
    for i, p in enumerate(view.mi_elements):
        down = view.leq[p]
        if all((bm & down) in (0, bm) for bm in masks):
            out |= 1 << i
    return out


def theta_of_f(view: NearlatticeView, fmask: int) -> Partition:
    """Intersection of the two-block congruences over the masked P indices."""
    return Partition(canonical_labels([view.sigma[a] & fmask for a in range(view.alg.size)]))


def certify_tuple(view: NearlatticeView, thetas) -> list[tuple[Partition, int]]:
    """Pair each member, certified on the view's algebra (algebra.certify),
    with its F mask."""
    return [(c.partition, f_of_theta(view, c)) for c in certify(view.alg, thetas)]


def canonical_down_set(view: NearlatticeView, certified, targets) -> int:
    """Union over coordinates of sigma(target) within each F mask."""
    s = 0
    for (part, fmask), a in zip(certified, targets):
        s |= view.sigma[a] & fmask
    return s


def solve_via_view(view: NearlatticeView, thetas, targets) -> Optional[int]:
    """Solve a system through the canonical down-set.

    Sound for any inputs (the answer is verified before returning); complete
    whenever the tuple members intersect to the identity.
    """
    certified = certify_tuple(view, thetas)
    targets = tuple(targets)
    if len(targets) != len(certified):
        raise InputError("one target per congruence required")
    s = canonical_down_set(view, certified, targets)
    a = view.image.get(s)
    if a is None:
        return None
    for (part, fmask), t in zip(certified, targets):
        if view.sigma[a] & fmask != view.sigma[t] & fmask:
            return None
    return a


# ---------------------------------------------------------------------------
# covers, fringes, interpolation


def _subposet(view: NearlatticeView, keep: int) -> tuple[list[int], list[int]]:
    """Strict down-sets and strict up-sets of the points of P on keep,
    within keep; empty at the other indices."""
    down = [d & keep if (keep >> i) & 1 else 0 for i, d in enumerate(view.p_strict_down)]
    up = [0] * len(down)
    for i, d in enumerate(down):
        for j in _bits(d):
            up[j] |= 1 << i
    return down, up


def _covers(down: list[int], up: list[int], keep: int):
    """Covering pairs (upper index, lower index) of the subposet on keep."""
    for i in _bits(keep):
        for j in _bits(down[i]):
            if not down[i] & up[j]:
                yield i, j


def _fringes(image: set, down: list[int], up: list[int], keep: int) -> list[int]:
    """Maximal down-sets of the subposet on keep outside image, ascending.

    Every such down-set arises by deleting one maximal point from some
    member of image, so that candidate family is screened: a candidate
    outside image is a fringe when all its minimal extensions are in it.
    """
    out = set()
    for s in image:
        for i in _bits(s):
            b = s & ~(1 << i)
            if s & up[i] or b in image or b in out:
                continue
            if all(
                (b | (1 << j)) in image
                for j in _bits(keep & ~b)
                if not down[j] & ~b
            ):
                out.add(b)
    return sorted(out)


def is_interpolable(view: NearlatticeView, bmask: int, fmask: int) -> bool:
    """Whether some element agrees with the down-set on the masked indices."""
    want = bmask & fmask
    return any(view.sigma[a] & fmask == want for a in range(view.alg.size))


def _mask_to_elements(view: NearlatticeView, mask: int) -> tuple[int, ...]:
    return tuple(view.mi_elements[i] for i in _bits(mask))


# ---------------------------------------------------------------------------
# deciders


@dataclass(frozen=True)
class NlVerdict:
    is_cr: bool
    reason: Optional[str] = None  # "cover" or "fringe" on failure
    detail: tuple = ()

    def __bool__(self):
        return self.is_cr

    @property
    def line(self) -> str:
        """What `crtkit check` prints under a NOT-CR verdict."""
        return f"REASON: {self.reason} " + " ".join(str(x) for x in self.detail)


def is_cr_tuple_nearlattice(view: NearlatticeView, thetas) -> NlVerdict:
    """Decide CR for a tuple of congruences of the view's algebra.

    The test runs on the projection onto F(delta), delta the members' meet:
    sigma(a) & F(delta) over the elements, and P restricted to F(delta).
    When delta is the identity, F(delta) is all of P. Failure details are
    elements of P, also when delta is above the identity: a cover (p, q)
    with q < p and no member's F mask holding both, or the points of a
    fringe down-set.
    """
    certified = certify_tuple(view, thetas)
    fmasks = [fmask for _, fmask in certified]
    union = 0
    for f in fmasks:
        union |= f
    keep = f_of_theta(view, theta_of_f(view, union))
    down, up = _subposet(view, keep)
    for i, j in _covers(down, up, keep):
        if not any((f >> i) & 1 and (f >> j) & 1 for f in fmasks):
            return NlVerdict(
                False, "cover", (view.mi_elements[i], view.mi_elements[j])
            )
    for b in _fringes({s & keep for s in view.sigma}, down, up, keep):
        if all(is_interpolable(view, b, f) for f in fmasks):
            return NlVerdict(False, "fringe", _mask_to_elements(view, b))
    return NlVerdict(True)


def is_cr_tuple_distlattice(alg: FiniteAlgebra, thetas) -> NlVerdict:
    """The nearlattice decision on lattice_view. A distributive lattice has
    no fringes and F(delta) is the union of the F masks, so CR holds exactly
    when every cover of the subposet on that union lies inside one mask."""
    return is_cr_tuple_nearlattice(lattice_view(alg), thetas)


def is_cr_tuple_tarski(alg: FiniteAlgebra, thetas) -> NlVerdict:
    """The nearlattice decision on tarski_view. P is an antichain, so only
    the fringe condition remains."""
    return is_cr_tuple_nearlattice(tarski_view(alg), thetas)
