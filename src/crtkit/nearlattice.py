"""CR tuples over nearlattices: subalgebras of powers of the two-element
algebra with the single ternary operation n(x,y,z) = (x and y) or z.

Everything runs through a validated view of the input algebra: its induced
join order, the set P of meet-irreducible elements, and the embedding
sigma(a) = {p in P : a is not below p}, which maps the algebra isomorphically
onto a set of down-sets of P. The view constructor certifies all of this
directly, so downstream procedures may rely on the representation.

For a tuple whose congruences intersect to the identity, CR holds exactly
when (a) every covering pair of P lies inside some F_i = {p : theta_i is
below the two-block congruence at p}, and (b) every fringe down-set (maximal
outside the image of sigma) fails interpolation for at least one F_i.
Tuples with a bigger intersection are pushed to the quotient first.

Distributive lattices admit a shortcut with no quotient step: sigma is onto
all down-sets (no fringes) and only covers inside the subposet spanned by
the union of the F_i matter. Implication algebras admit the opposite
shortcut: P is an antichain (no covers), leaving a fringe condition over
the down-sets containing the complement of that union.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from . import config
from .algebra import (
    Congruence,
    FiniteAlgebra,
    Operation,
    as_partition,
    failed_binary_law,
    quotient,
)
from .errors import BudgetExceededError, InputError, StructureError
from .partitions import Partition, _bits, canonical_labels
from .systems import quotient_reduce

if TYPE_CHECKING:
    import numpy as np


@dataclass(eq=False)
class NearlatticeView:
    alg: FiniteAlgebra
    op_name: str
    top: int
    leq: tuple[int, ...]  # leq[x] = bitmask of {y : y <= x}
    mi_elements: tuple[int, ...]  # P, ascending element order
    p_strict_down: tuple[int, ...]  # over P indices: {j : P[j] < P[i]}
    sigma: tuple[int, ...]  # sigma[a] = bitmask over P indices
    image: dict  # sigma mask -> element

    @property
    def p_count(self):
        return len(self.mi_elements)


def _induced_join(table3: np.ndarray) -> np.ndarray:
    import numpy as np

    n = table3.shape[0]
    idx = np.arange(n)
    return table3[idx[:, None], idx[:, None], np.arange(n)[None, :]]


def make_view(alg: FiniteAlgebra, op_name: Optional[str] = None) -> NearlatticeView:
    """Validate the ternary table and assemble the decision view.

    Raises StructureError unless x v y := n(x,x,y) is a semilattice with top
    and a -> {p : a not below p} embeds the algebra into a power of the
    two-element ternary algebra, with n acting coordinatewise.
    """
    if op_name is None:
        ternary = [op.name for op in alg.ops if op.arity == 3]
        if len(ternary) != 1:
            raise InputError(
                f"{alg.name} has {len(ternary)} ternary operations; name one"
            )
        op_name = ternary[0]
    op = alg.op(op_name)
    if op.arity != 3:
        raise InputError(f"{op_name!r} has arity {op.arity}, expected 3")
    return _view_from_table(alg, op_name, alg.table_array(op_name))


def _view_from_table(alg: FiniteAlgebra, op_name: str, T: np.ndarray) -> NearlatticeView:
    import numpy as np

    n = alg.size
    J = _induced_join(T)
    law = failed_binary_law(J, ("commutative", "idempotent", "associative"))
    if law is not None:
        raise StructureError(f"{alg.name}: induced join is not {law}")
    idx = np.arange(n)
    top = 0
    for x in range(n):
        top = int(J[top, x])
    if not np.array_equal(J[:, top], np.full(n, top)):
        raise StructureError(f"{alg.name}: induced order has no top element")

    leq_bool = J == idx[None, :]  # x <= y iff x v y = y; entry [x, y]
    leq = tuple(int(sum(1 << x for x in range(n) if leq_bool[x, y])) for y in range(n))

    # p is meet-irreducible iff it is not the top and has a unique lower
    # cover of its strict up-set (equivalently, a unique minimal element
    # strictly above it)
    mi = []
    for p in range(n):
        if p == top:
            continue
        above = [x for x in range(n) if leq_bool[p, x] and x != p]
        minimal = [x for x in above if all(not leq_bool[y, x] for y in above if y != x)]
        if len(minimal) == 1:
            mi.append(p)
    mi_elements = tuple(mi)
    p_index = {p: i for i, p in enumerate(mi_elements)}

    sigma = tuple(
        int(sum(1 << i for i, p in enumerate(mi_elements) if not leq_bool[a, p]))
        for a in range(n)
    )
    if len(set(sigma)) != n:
        raise StructureError(
            f"{alg.name}: meet-irreducibles do not separate elements; "
            "not a subalgebra of a power of the two-element ternary algebra"
        )

    # coordinatewise action: chi(n(x,y,z)) = (chi(x) & chi(y)) | chi(z),
    # where chi(a)[p] = 0 iff a <= p
    C = np.array(
        [[0 if leq_bool[a, p] else 1 for p in mi_elements] for a in range(n)],
        dtype=np.uint8,
    )
    lhs = C[T]  # shape (n, n, n, |P|)
    rhs = (C[:, None, None, :] & C[None, :, None, :]) | C[None, None, :, :]
    if not np.array_equal(lhs, rhs):
        bad = np.argwhere(lhs != rhs)[0]
        raise StructureError(
            f"{alg.name}: {op_name} is not coordinatewise (x and y) or z "
            f"at arguments {tuple(int(v) for v in bad[:3])}"
        )

    p_strict_down = tuple(
        int(
            sum(
                1 << j
                for j, q in enumerate(mi_elements)
                if q != p and leq_bool[q, p]
            )
        )
        for p in mi_elements
    )
    image = {s: a for a, s in enumerate(sigma)}
    return NearlatticeView(
        alg=alg,
        op_name=op_name,
        top=top,
        leq=leq,
        mi_elements=mi_elements,
        p_strict_down=p_strict_down,
        sigma=sigma,
        image=image,
    )


def lattice_view(
    alg: FiniteAlgebra, meet: str = "meet", join: str = "join"
) -> NearlatticeView:
    """View of a distributive lattice through its derived ternary operation."""
    import numpy as np

    n = alg.size
    for op in (alg.op(meet), alg.op(join)):
        if op.arity != 2:
            raise InputError(f"{op.name!r} has arity {op.arity}, expected 2")
    M = alg.table_array(meet)
    J = alg.table_array(join)
    idx = np.arange(n)
    for name, t in ((meet, M), (join, J)):
        law = failed_binary_law(t, ("commutative", "associative"))
        if law is not None:
            raise StructureError(f"{alg.name}: {name} is not {law}")
    if not (
        np.array_equal(M[idx[:, None], J], np.broadcast_to(idx[:, None], (n, n)))
        and np.array_equal(J[idx[:, None], M], np.broadcast_to(idx[:, None], (n, n)))
    ):
        raise StructureError(f"{alg.name}: absorption fails; not a lattice")
    if not np.array_equal(M[:, J], J[M[:, :, None], M[:, None, :]]):
        raise StructureError(f"{alg.name}: lattice is not distributive")
    T = J[M[:, :, None], idx[None, None, :]]
    derived = FiniteAlgebra(
        n,
        [Operation("n", 3, tuple(int(v) for v in T.reshape(-1)))],
        name=f"{alg.name}~n",
    )
    return _view_from_table(derived, "n", T)


def tarski_view(alg: FiniteAlgebra, imp: str = "imp") -> NearlatticeView:
    """View of an implication algebra via n(x,y,z) = (x -> (y -> z)) -> z."""
    import numpy as np

    n = alg.size
    op = alg.op(imp)
    if op.arity != 2:
        raise InputError(f"{imp!r} has arity {op.arity}, expected 2")
    I = alg.table_array(imp)
    idx = np.arange(n)
    inner = I[:, I]  # [x,y,z] = x -> (y -> z)
    T = I[inner, idx[None, None, :]]
    derived = FiniteAlgebra(
        n,
        [Operation("n", 3, tuple(int(v) for v in T.reshape(-1)))],
        name=f"{alg.name}~n",
    )
    view = _view_from_table(derived, "n", T)
    # certify the implication itself acts coordinatewise as (not x) or y
    C = np.array(
        [
            [0 if (view.leq[p] >> a) & 1 else 1 for p in view.mi_elements]
            for a in range(n)
        ],
        dtype=np.uint8,
    )
    if not np.array_equal(C[I], (1 - C[:, None, :]) | C[None, :, :]):
        raise StructureError(f"{alg.name}: {imp} is not coordinatewise implication")
    for i, p in enumerate(view.mi_elements):
        if view.p_strict_down[i]:
            raise StructureError(
                f"{alg.name}: meet-irreducibles are not an antichain; "
                "not an implication algebra"
            )
    return view


# ---------------------------------------------------------------------------
# congruences through the view


def theta_at(view: NearlatticeView, p: int) -> Partition:
    """The two-block partition separating {x <= p} from the rest."""
    if p not in view.mi_elements:
        raise InputError(f"{p} is not meet-irreducible")
    down = view.leq[p]
    return Partition([0 if (down >> x) & 1 else 1 for x in range(view.alg.size)])


def f_of_theta(view: NearlatticeView, theta) -> int:
    """Bitmask over P indices of {p : theta refines the two-block split at p}."""
    part = as_partition(theta)
    if part.n != view.alg.size:
        raise InputError("partition size does not match the view")
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
    """Pair each member with its F mask; reject partitions that are not
    intersections of two-block congruences (i.e. not congruences here)."""
    if not thetas:
        raise InputError("need at least one congruence")
    out = []
    for pos, theta in enumerate(thetas):
        part = as_partition(theta)
        fmask = f_of_theta(view, part)
        if theta_of_f(view, fmask) != part:
            raise StructureError(
                f"tuple member {pos + 1} is not a congruence of {view.alg.name}"
            )
        out.append((part, fmask))
    return out


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
# down-sets of P, fringes, interpolation


def all_down_sets(view: NearlatticeView, budget: Optional[int] = None) -> list[int]:
    """Every down-set of P as a bitmask; budget-capped breadth-first closure."""
    limit = budget if budget is not None else config.budget(config.DEFAULT_DOWNSET_BUDGET)
    found = {0}
    frontier = [0]
    while frontier:
        s = frontier.pop()
        for i in range(view.p_count):
            if (s >> i) & 1:
                continue
            if view.p_strict_down[i] & ~s:
                continue
            t = s | (1 << i)
            if t not in found:
                found.add(t)
                if len(found) > limit:
                    raise BudgetExceededError(
                        f"down-set count exceeds {limit}",
                        checked=len(found),
                        budget=limit,
                    )
                frontier.append(t)
    return sorted(found)


def _minimal_extensions(view: NearlatticeView, s: int):
    for i in range(view.p_count):
        if not (s >> i) & 1 and not (view.p_strict_down[i] & ~s):
            yield s | (1 << i)


def fringe_elements(view: NearlatticeView) -> list[int]:
    """Maximal down-sets of P outside the image of sigma.

    Every such down-set arises by deleting one maximal point from some
    sigma(a), so that candidate family is screened: keep the down-sets not
    in the image all of whose minimal extensions are in the image.
    """
    image = set(view.sigma)
    candidates = set()
    for a in range(view.alg.size):
        s = view.sigma[a]
        for i in _bits(s):
            up_strict = sum(
                1 << j for j in range(view.p_count) if (view.p_strict_down[j] >> i) & 1
            )
            if s & up_strict:
                continue  # not maximal in s
            candidates.add(s & ~(1 << i))
    out = []
    for s in candidates:
        if s in image:
            continue
        if all(t in image for t in _minimal_extensions(view, s)):
            out.append(s)
    return sorted(out)


def is_interpolable(view: NearlatticeView, bmask: int, fmask: int) -> bool:
    """Whether some element agrees with the down-set on the masked indices."""
    want = bmask & fmask
    return any(view.sigma[a] & fmask == want for a in range(view.alg.size))


def covers_in_subposet(view: NearlatticeView, qmask: int) -> list[tuple[int, int]]:
    """Covering pairs (upper index, lower index) of the subposet on qmask."""
    up = [0] * view.p_count
    for i in range(view.p_count):
        for j in _bits(view.p_strict_down[i]):
            up[j] |= 1 << i
    out = []
    for i in _bits(qmask):
        below = view.p_strict_down[i] & qmask
        for j in _bits(below):
            if not (view.p_strict_down[i] & up[j] & qmask):
                out.append((i, j))
    return out


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

    When the members meet strictly above the identity the tuple is pushed to
    the quotient (same verdict either way); failure details are reported in
    ground-set elements, using least class members after a push.
    """
    certified = certify_tuple(view, thetas)
    parts = [part for part, _ in certified]
    delta, reduced = quotient_reduce(parts)
    if delta.num_blocks != delta.n:
        qalg, _ = quotient(view.alg, Congruence(view.alg, delta))
        qview = make_view(qalg, view.op_name)
        verdict = _decide_reduced(qview, certify_tuple(qview, reduced))
        if verdict.is_cr:
            return verdict
        reps = delta.representatives()
        return NlVerdict(
            False, verdict.reason, tuple(reps[c] for c in verdict.detail)
        )
    return _decide_reduced(view, certified)


def _decide_reduced(view: NearlatticeView, certified) -> NlVerdict:
    fmasks = [fmask for _, fmask in certified]
    for i, j in covers_in_subposet(view, (1 << view.p_count) - 1):
        if not any((f >> i) & 1 and (f >> j) & 1 for f in fmasks):
            return NlVerdict(
                False, "cover", (view.mi_elements[i], view.mi_elements[j])
            )
    for b in fringe_elements(view):
        if all(is_interpolable(view, b, f) for f in fmasks):
            return NlVerdict(False, "fringe", _mask_to_elements(view, b))
    return NlVerdict(True)


def is_cr_tuple_distlattice(
    alg: FiniteAlgebra, thetas, meet: str = "meet", join: str = "join"
) -> NlVerdict:
    """Distributive-lattice shortcut: no quotient step and no fringes; CR
    holds exactly when every cover of the subposet spanned by the union of
    the F masks lies inside one of them."""
    view = lattice_view(alg, meet=meet, join=join)
    certified = certify_tuple(view, thetas)
    fmasks = [fmask for _, fmask in certified]
    union = 0
    for f in fmasks:
        union |= f
    for i, j in covers_in_subposet(view, union):
        if not any((f >> i) & 1 and (f >> j) & 1 for f in fmasks):
            return NlVerdict(
                False, "cover", (view.mi_elements[i], view.mi_elements[j])
            )
    return NlVerdict(True)


def is_cr_tuple_tarski(
    alg: FiniteAlgebra, thetas, imp: str = "imp", budget: Optional[int] = None
) -> NlVerdict:
    """Implication-algebra shortcut: P is an antichain, so only the fringe
    condition remains, taken over down-sets containing the complement of the
    union of the F masks."""
    view = tarski_view(alg, imp=imp)
    certified = certify_tuple(view, thetas)
    fmasks = [fmask for _, fmask in certified]
    union = 0
    for f in fmasks:
        union |= f
    rest = ((1 << view.p_count) - 1) & ~union
    q_indices = list(_bits(union))
    limit = budget if budget is not None else config.budget(config.DEFAULT_DOWNSET_BUDGET)
    if (1 << len(q_indices)) > limit:
        raise BudgetExceededError(
            f"2^{len(q_indices)} down-sets exceed the budget {limit}",
            checked=0,
            budget=limit,
        )
    image = set(view.sigma)
    outside = []
    for pick in range(1 << len(q_indices)):
        s = rest
        for t, i in enumerate(q_indices):
            if (pick >> t) & 1:
                s |= 1 << i
        if s not in image:
            outside.append(s)
    # supersets come first, so comparing against kept maximal sets suffices
    outside.sort(key=lambda m: bin(m).count("1"), reverse=True)
    fringe = []
    for s in outside:
        if not any((s & t) == s for t in fringe):
            fringe.append(s)
    for b in fringe:
        if all(is_interpolable(view, b, f) for f in fmasks):
            return NlVerdict(False, "fringe", _mask_to_elements(view, b))
    return NlVerdict(True)
