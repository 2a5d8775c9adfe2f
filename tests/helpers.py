"""Shared fixture builders for the test suite."""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Optional

from crtkit import config
from crtkit.algebra import (
    App,
    Congruence,
    FiniteAlgebra,
    Operation,
    Term,
    Var,
    as_partitions,
    failed_binary_law,
    generated_subuniverse,
    quotient,
)
from crtkit.catalog import index_to_tuple, power_algebra, subpower, tuple_to_index
from crtkit.errors import BudgetExceededError, InputError, StructureError
from crtkit.dualdisc import _lift_all
from crtkit.nearlattice import NearlatticeView, NlVerdict, _covers, _fringes, _subposet, certify_tuple
from crtkit.partitions import Partition
from crtkit.postlattice import PROJ_X, PROJ_Y, PROJ_Z
from crtkit.satgadget import CnfFormula, validate_3sat_prime
from crtkit.systems import CrVerdict, quotient_reduce
from crtkit.vectorspace import _as_matrix, rank, rref

if TYPE_CHECKING:
    import numpy as np


def set_partitions(n):
    """All partitions of {0..n-1}, via restricted growth strings."""
    out = []

    def grow(prefix, used):
        if len(prefix) == n:
            out.append(Partition(prefix))
            return
        for label in range(used + 1):
            grow(prefix + [label], max(used, label + 1))

    grow([0], 1)
    return out


def naive_is_congruence(alg, part):
    """Direct definition: every operation maps related tuples to related values."""
    for op in alg.ops:
        for args in itertools.product(range(alg.size), repeat=op.arity):
            for pos in range(op.arity):
                for b in range(alg.size):
                    if not part.related(args[pos], b):
                        continue
                    other = list(args)
                    other[pos] = b
                    if not part.related(
                        alg.apply(op.name, *args), alg.apply(op.name, *other)
                    ):
                        return False
    return True


def reference_apply(op: Operation, n: int, args) -> int:
    """The entry of op (on n elements) at args, read at the flat index
    sum(args[i] * n ** (arity - 1 - i)): the row-major rule of
    FiniteAlgebra.apply, written as a sum of powers."""
    return op.table[sum(a * n ** (op.arity - 1 - i) for i, a in enumerate(args))]


def reference_congruence_violation(alg, part):
    """Per-tuple scan for the first violation of compatibility.

    Operations in order, argument tuples in lex order, positions left to
    right, replacements ascending within the block: the order in which
    algebra.congruence_violation reports its witness.
    """
    if part.num_blocks in (1, part.n):
        return None
    labels = part.labels
    blocks = part.blocks()
    for op in alg.ops:
        for args in itertools.product(range(alg.size), repeat=op.arity):
            out = labels[alg.apply(op.name, *args)]
            for pos, x in enumerate(args):
                for y in blocks[labels[x]]:
                    if y <= x:
                        continue
                    other = args[:pos] + (y,) + args[pos + 1 :]
                    if labels[alg.apply(op.name, *other)] != out:
                        return (op.name, pos, args, y)
    return None


def reference_power_algebra(alg: FiniteAlgebra, exponent: int) -> FiniteAlgebra:
    """catalog.power_algebra as it stood before it computed tables with
    numpy digit arithmetic: every entry is evaluated through
    FiniteAlgebra.apply on decoded coordinate tuples."""
    if exponent < 1:
        raise InputError("exponent must be at least 1")
    n = alg.size
    size = n**exponent
    ops = []
    for op in alg.ops:
        table = []
        for args in itertools.product(range(size), repeat=op.arity):
            cols = [index_to_tuple(a, n, exponent) for a in args]
            value = tuple(
                alg.apply(op.name, *(cols[j][i] for j in range(op.arity)))
                for i in range(exponent)
            )
            table.append(tuple_to_index(value, n))
        ops.append(Operation(op.name, op.arity, tuple(table)))
    return FiniteAlgebra(size, ops, name=f"{alg.name}^{exponent}")


def closed_subpower(base, m, seeds):
    """Subalgebra of base^m generated by the given coordinate tuples.

    Returns (algebra, ordered coordinate list) as subpower does.
    """
    big = power_algebra(base, m)
    coded = [tuple_to_index(c, base.size) for c in seeds]
    universe = generated_subuniverse(big, coded)
    coords = [index_to_tuple(idx, base.size, m) for idx in universe]
    return subpower(base, coords)


def random_closed_subpower(rng, base, m, num_seeds):
    # a power of a small base may hold fewer tuples than requested
    want = min(num_seeds, base.size**m)
    seeds = set()
    while len(seeds) < want:
        seeds.add(tuple(rng.randrange(base.size) for _ in range(m)))
    return closed_subpower(base, m, sorted(seeds))


def lattice_from_universe(universe, name):
    """Meet/join algebra on a &-and-|-closed set of bitmask-coded elements."""
    elems = sorted(universe)
    index = {v: i for i, v in enumerate(elems)}
    meet = []
    join = []
    for x in elems:
        for y in elems:
            meet.append(index[x & y])
            join.append(index[x | y])
    return FiniteAlgebra(
        len(elems),
        [Operation("meet", 2, tuple(meet)), Operation("join", 2, tuple(join))],
        name=name,
    )


def random_distributive_lattice(rng, num_atoms, max_extra):
    """A random 0-1 sublattice of the boolean lattice on num_atoms atoms.

    Bitmask sets closed under & and | form distributive lattices, and every
    finite distributive lattice arises this way.
    """
    full = (1 << num_atoms) - 1
    universe = {0, full}
    for _ in range(max_extra):
        universe.add(rng.randrange(1 << num_atoms))
    changed = True
    while changed:
        changed = False
        for x, y in itertools.combinations(sorted(universe), 2):
            for z in (x & y, x | y):
                if z not in universe:
                    universe.add(z)
                    changed = True
    return lattice_from_universe(universe, f"dl{len(universe)}")


def reference_brute_force_is_cr_tuple(thetas):
    """Enumerate candidate systems one target tuple at a time.

    Targets range over block minimums in lex order, each checked for
    compatibility against the earlier ones, so the first unsolvable system
    met is the lex-least witness that systems.brute_force_is_cr_tuple
    reports. `checked` counts candidate targets tried, not search nodes.
    """
    parts = as_partitions(thetas)
    limit = config.budget(config.DEFAULT_TUPLE_BUDGET)
    k = len(parts)
    if k == 1:
        return CrVerdict(True, None, 0)
    reps = [p.representatives() for p in parts]
    masks = [p.block_masks() for p in parts]
    labels = [p.labels for p in parts]
    joins = [[None] * k for _ in range(k)]
    for i in range(k):
        for j in range(i + 1, k):
            joins[i][j] = parts[i].join(parts[j])

    chosen = [0] * k
    counter = 0

    def descend(depth, mask):
        nonlocal counter
        for a in reps[depth]:
            counter += 1
            if counter > limit:
                raise BudgetExceededError(
                    f"candidate system budget {limit} exhausted",
                    checked=counter - 1,
                    budget=limit,
                )
            ok = True
            for j in range(depth):
                if not joins[j][depth].related(chosen[j], a):
                    ok = False
                    break
            if not ok:
                continue
            chosen[depth] = a
            new_mask = mask & masks[depth][labels[depth][a]]
            if depth + 1 == k:
                if new_mask == 0:
                    return tuple(chosen)
            else:
                hit = descend(depth + 1, new_mask)
                if hit is not None:
                    return hit
        return None

    witness = descend(0, -1)
    return CrVerdict(witness is None, witness, counter)


def reference_is_distributive(lattice):
    """Test the distributive law on every triple of lattice members.

    The O(L^3) loop algebra.congruence_lattice_is_distributive ran before
    it counted down-sets of join-irreducibles.
    """
    for x in lattice:
        for y in lattice:
            for z in lattice:
                if x.meet(y.join(z)) != (x.meet(y)).join(x.meet(z)):
                    return False
    return True


def relation_product(p, q):
    """The relation product p o q as a set of pairs: (u, w) such that some
    v has u p v and v q w.

    This is Partition.compose as it stood before permutability became a
    block count and dualdisc read "s inside lambda o mu" from labels.
    """
    left = p.blocks()
    right = q.blocks()
    return frozenset(
        (u, w)
        for v in range(p.n)
        for u in left[p.labels[v]]
        for w in right[q.labels[v]]
    )


def reference_is_permutable(lattice):
    """Compose every unordered pair of lattice members both ways.

    The loop algebra.congruence_lattice_is_permutable ran before it
    counted block pairs inside the blocks of each join.
    """
    for i, x in enumerate(lattice):
        for y in lattice[i + 1 :]:
            if relation_product(x, y) != relation_product(y, x):
                return False
    return True


def _compose_bits(op: Operation, args: tuple[int, ...]) -> int:
    """Table of op applied to ternary tables, one output bit at a time."""
    out = 0
    for p in range(8):
        idx = 0
        for g in args:
            idx = idx * 2 + (g >> p & 1)
        out |= (op.table[idx] & 1) << p
    return out


def _compose_round(op: Operation, R: np.ndarray) -> np.ndarray:
    """All compositions of one operation against every tuple over R."""
    import numpy as np

    t = op.table
    if op.arity == 1:
        f0 = 0xFF if t[0] else 0
        f1 = 0xFF if t[1] else 0
        return (f0 & ~R & 0xFF) | (f1 & R)
    if op.arity == 2:
        G, H = R[:, None], R[None, :]
        tarr = np.array(t, dtype=np.int64)
        out = np.zeros((R.size, R.size), dtype=np.int64)
        for p in range(8):
            out |= (tarr[(G >> p & 1) << 1 | (H >> p & 1)] & 1) << p
        return out
    # arity 3: with g, h fixed, r -> op(g, h, r) acts bitwise as
    # a XOR ((a XOR b) AND r), where bit p of a is op(g_p, h_p, 0)
    # and bit p of b is op(g_p, h_p, 1)
    G, H = R[:, None], R[None, :]
    tarr = np.array(t, dtype=np.int64)
    A = np.zeros((R.size, R.size), dtype=np.int64)
    B = np.zeros_like(A)
    for p in range(8):
        idx = (G >> p & 1) << 2 | (H >> p & 1) << 1
        A |= (tarr[idx] & 1) << p
        B |= (tarr[idx | 1] & 1) << p
    A8 = A.astype(np.uint8)
    X8 = (A ^ B).astype(np.uint8)
    return A8[:, :, None] ^ (X8[:, :, None] & R.astype(np.uint8)[None, None, :])


def reference_witness_bfs(alg2: FiniteAlgebra, target: Optional[int]):
    """postlattice._witness_bfs as it stood before every arity shared one
    curried composition rule, with its two composition helpers above.

    Breadth-first closure keyed by table; the round number is the term
    depth, so the first term recorded for a table has smallest depth.

    Rounds recompose every tuple over the tables known at round start (a
    table composable from earlier rounds was already found then, so new
    tables really have the current depth). Operations of arity up to 3 run
    through the vectorized round; a new table's witness is decoded from the
    first flat index at which its value occurs."""
    import numpy as np

    witness: dict[int, Term] = {}
    order: list[int] = []  # discovery order

    def add(tab: int, term: Term) -> bool:
        if tab in witness:
            return False
        witness[tab] = term
        order.append(tab)
        return True

    add(PROJ_X, Var(0))
    add(PROJ_Y, Var(1))
    add(PROJ_Z, Var(2))
    for op in alg2.ops:
        if op.arity == 0:
            add(0xFF if op.table[0] else 0x00, App(op.name))
    if target is not None and target in witness:
        return witness, witness[target]
    fast_ops = [op for op in alg2.ops if 1 <= op.arity <= 3]
    slow_ops = [op for op in alg2.ops if op.arity > 3]
    changed = True
    while changed and len(witness) < 256:
        changed = False
        R = np.array(order, dtype=np.int64)
        terms = [witness[t] for t in order]
        for op in fast_ops:
            flat = _compose_round(op, R).ravel()
            counts = np.bincount(flat, minlength=256)
            if all(v in witness for v in np.flatnonzero(counts).tolist()):
                continue
            uniq, first = np.unique(flat, return_index=True)
            for val, pos in zip(uniq.tolist(), first.tolist()):
                if val in witness:
                    continue
                digits = []
                for _ in range(op.arity):  # last axis varies fastest
                    digits.append(pos % R.size)
                    pos //= R.size
                args = tuple(terms[i] for i in reversed(digits))
                add(val, App(op.name, args))
                changed = True
                if target is not None and val == target:
                    return witness, witness[val]
        for op in slow_ops:
            for combo in itertools.product(order[: len(terms)], repeat=op.arity):
                tab = _compose_bits(op, combo)
                if add(tab, App(op.name, tuple(witness[g] for g in combo))):
                    changed = True
                    if target is not None and tab == target:
                        return witness, witness[tab]
    return witness, None


def reference_preserves(op: Operation, rel: frozenset[tuple[int, ...]]) -> bool:
    """postlattice._preserves as it stood before it tested all choices of
    rows at once as bits of one int.

    Does op, applied row-wise to any op.arity rows of rel, give a row of
    rel? A nullary operation c gives the row (c, ..., c). All
    len(rel) ** op.arity choices of rows are tried."""
    value = dict(zip(itertools.product((0, 1), repeat=op.arity), op.table))
    width = len(next(iter(rel)))
    for rows in itertools.product(rel, repeat=op.arity):
        columns = zip(*rows) if rows else [()] * width
        if tuple(map(value.__getitem__, columns)) not in rel:
            return False
    return True


def all_down_sets(view: NearlatticeView) -> list[int]:
    """Every down-set of the view's P as a bitmask, ascending."""
    found = {0}
    frontier = [0]
    while frontier:
        s = frontier.pop()
        for i in range(view.p_count):
            if not (s >> i) & 1 and not view.p_strict_down[i] & ~s:
                t = s | (1 << i)
                if t not in found:
                    found.add(t)
                    frontier.append(t)
    return sorted(found)


def theta_at(view: NearlatticeView, p: int) -> Partition:
    """The two-block partition separating {x <= p} from the rest."""
    if p not in view.mi_elements:
        raise InputError(f"{p} is not meet-irreducible")
    down = view.leq[p]
    return Partition([0 if (down >> x) & 1 else 1 for x in range(view.alg.size)])


def fringe_elements(view: NearlatticeView) -> list[int]:
    """Maximal down-sets of P outside the image of sigma, ascending, by the
    screen the decider runs on each projection."""
    full = (1 << view.p_count) - 1
    return _fringes(set(view.sigma), *_subposet(view, full), full)


def covers_in_subposet(view: NearlatticeView, qmask: int) -> list[tuple[int, int]]:
    """Covering pairs (upper index, lower index) of the subposet on qmask,
    as the decider enumerates them."""
    return list(_covers(*_subposet(view, qmask), qmask))


def reference_view(alg: FiniteAlgebra, kind: str = "nearlattice") -> NearlatticeView:
    """nearlattice's views as they stood when every constructor tabulated a
    derived ternary operation: n itself ("nearlattice"), (x meet y) join z
    ("lattice") or (x imp (y imp z)) imp z ("tarski"), then read the order
    off n(x,x,y) and certified n on an (n, n, n, |P|) array. The view's alg
    is the derived ternary algebra, so that reference_nearlattice can
    push a tuple to its quotient."""
    import numpy as np

    n = alg.size
    idx = np.arange(n)
    if kind == "nearlattice":
        (name,) = [op.name for op in alg.ops if op.arity == 3]
        derived, T = alg, alg.table_array(name)
    else:
        if kind == "lattice":
            M, J = alg.table_array("meet"), alg.table_array("join")
            for t in (M, J):
                if failed_binary_law(t, ("commutative", "associative")) is not None:
                    raise StructureError("not a lattice")
            eye = np.broadcast_to(idx[:, None], (n, n))
            if not (np.array_equal(M[idx[:, None], J], eye) and np.array_equal(J[idx[:, None], M], eye)):
                raise StructureError("absorption fails; not a lattice")
            if not np.array_equal(M[:, J], J[M[:, :, None], M[:, None, :]]):
                raise StructureError("lattice is not distributive")
            T = J[M[:, :, None], idx[None, None, :]]
        else:
            I = alg.table_array("imp")
            T = I[I[:, I], idx[None, None, :]]
        name = "n"
        table = tuple(int(v) for v in T.reshape(-1))
        derived = FiniteAlgebra(n, [Operation(name, 3, table)], name=f"{alg.name}~n")
    J = T[idx[:, None], idx[:, None], idx[None, :]]
    if failed_binary_law(J, ("commutative", "idempotent", "associative")) is not None:
        raise StructureError("induced join is not a semilattice")
    top = 0
    for x in range(n):
        top = int(J[top, x])
    if not np.array_equal(J[:, top], np.full(n, top)):
        raise StructureError("induced order has no top element")
    leq_bool = J == idx[None, :]
    leq = tuple(sum(1 << x for x in range(n) if leq_bool[x, y]) for y in range(n))
    mi = []
    for p in range(n):
        above = [x for x in range(n) if leq_bool[p, x] and x != p]
        minimal = [x for x in above if all(not leq_bool[y, x] for y in above if y != x)]
        if p != top and len(minimal) == 1:
            mi.append(p)
    sigma = tuple(
        sum(1 << i for i, p in enumerate(mi) if not leq_bool[a, p]) for a in range(n)
    )
    if len(set(sigma)) != n:
        raise StructureError("meet-irreducibles do not separate elements")
    C = np.array([[0 if leq_bool[a, p] else 1 for p in mi] for a in range(n)], dtype=np.uint8)
    C = C.reshape(n, len(mi))
    if not np.array_equal(C[T], (C[:, None, None, :] & C[None, :, None, :]) | C[None, None, :, :]):
        raise StructureError("n is not coordinatewise (x and y) or z")
    if kind == "tarski":
        if not np.array_equal(C[I], (1 - C[:, None, :]) | C[None, :, :]):
            raise StructureError("imp is not coordinatewise implication")
    p_strict_down = tuple(
        sum(1 << j for j, q in enumerate(mi) if q != p and leq_bool[q, p]) for p in mi
    )
    if kind == "tarski" and any(p_strict_down):
        raise StructureError("meet-irreducibles are not an antichain")
    return NearlatticeView(
        alg=derived,
        top=top,
        leq=leq,
        mi_elements=tuple(mi),
        p_strict_down=p_strict_down,
        sigma=sigma,
        image={s: a for a, s in enumerate(sigma)},
    )


def _reference_up(view):
    up = [0] * view.p_count
    for i in range(view.p_count):
        for j in range(view.p_count):
            if (view.p_strict_down[i] >> j) & 1:
                up[j] |= 1 << i
    return up


def _reference_covers(view, qmask):
    up = _reference_up(view)
    out = []
    for i in range(view.p_count):
        if not (qmask >> i) & 1:
            continue
        below = view.p_strict_down[i] & qmask
        for j in range(view.p_count):
            if (below >> j) & 1 and not (view.p_strict_down[i] & up[j] & qmask):
                out.append((i, j))
    return out


def _reference_fringes(view):
    image = set(view.sigma)
    up = _reference_up(view)
    candidates = set()
    for s in image:
        for i in range(view.p_count):
            if (s >> i) & 1 and not s & up[i]:
                candidates.add(s & ~(1 << i))
    out = []
    for s in candidates - image:
        exts = [
            s | (1 << i)
            for i in range(view.p_count)
            if not (s >> i) & 1 and not view.p_strict_down[i] & ~s
        ]
        if all(t in image for t in exts):
            out.append(s)
    return sorted(out)


def _reference_interpolable(view, bmask, fmask):
    return any(s & fmask == bmask & fmask for s in view.sigma)


def _elements(view, mask):
    return tuple(p for i, p in enumerate(view.mi_elements) if (mask >> i) & 1)


def reference_nearlattice(view: NearlatticeView, thetas) -> NlVerdict:
    """The nearlattice decision as it stood when a tuple meeting above the
    identity was pushed to the quotient by its meet delta, with a second
    reference_view there; details after a push are least class members.
    `view` is a reference_view."""
    certified = certify_tuple(view, thetas)
    delta, reduced = quotient_reduce([part for part, _ in certified])
    if delta.num_blocks != delta.n:
        qalg, _ = quotient(view.alg, Congruence(view.alg, delta))
        verdict = reference_nearlattice(reference_view(qalg), reduced)
        if verdict.is_cr:
            return verdict
        reps = delta.representatives()
        return NlVerdict(False, verdict.reason, tuple(reps[c] for c in verdict.detail))
    fmasks = [fmask for _, fmask in certified]
    for i, j in _reference_covers(view, (1 << view.p_count) - 1):
        if not any((f >> i) & 1 and (f >> j) & 1 for f in fmasks):
            return NlVerdict(False, "cover", (view.mi_elements[i], view.mi_elements[j]))
    for b in _reference_fringes(view):
        if all(_reference_interpolable(view, b, f) for f in fmasks):
            return NlVerdict(False, "fringe", _elements(view, b))
    return NlVerdict(True)


def reference_distlattice(alg: FiniteAlgebra, thetas) -> NlVerdict:
    """The distributive-lattice shortcut as it stood: no quotient step and
    no fringes, only the covers of the subposet on the union of the F
    masks."""
    view = reference_view(alg, "lattice")
    fmasks = [fmask for _, fmask in certify_tuple(view, thetas)]
    union = 0
    for f in fmasks:
        union |= f
    for i, j in _reference_covers(view, union):
        if not any((f >> i) & 1 and (f >> j) & 1 for f in fmasks):
            return NlVerdict(False, "cover", (view.mi_elements[i], view.mi_elements[j]))
    return NlVerdict(True)


def reference_tarski(alg: FiniteAlgebra, thetas) -> NlVerdict:
    """The implication-algebra shortcut as it stood: enumerate the 2^q
    down-sets that contain the complement of the union of the F masks
    (q the union's size), keep the maximal ones outside the image, and
    test each for interpolation."""
    view = reference_view(alg, "tarski")
    fmasks = [fmask for _, fmask in certify_tuple(view, thetas)]
    union = 0
    for f in fmasks:
        union |= f
    rest = ((1 << view.p_count) - 1) & ~union
    q_indices = [i for i in range(view.p_count) if (union >> i) & 1]
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
        if all(_reference_interpolable(view, b, f) for f in fmasks):
            return NlVerdict(False, "fringe", _elements(view, b))
    return NlVerdict(True)


def reference_associative(T) -> bool:
    """The n^3 expression algebra.failed_binary_law tested associativity by
    before it walked blocks of first arguments: (xy)z against x(yz) as two
    whole (n, n, n) arrays."""
    import numpy as np

    return bool(np.array_equal(T[T, :], T[:, T]))


def reference_term_table(alg: FiniteAlgebra, term: Term, arity: int) -> tuple[int, ...]:
    """A term's table by one eval_term call per argument tuple, as reduct
    built its tables before it evaluated terms on arrays."""
    from crtkit.algebra import eval_term

    return tuple(
        eval_term(alg, term, args) for args in itertools.product(range(alg.size), repeat=arity)
    )


def reference_quotient_tables(alg: FiniteAlgebra, part: Partition) -> list[tuple[int, ...]]:
    """The quotient's tables by one apply per tuple of block representatives,
    as algebra.quotient built them before it gathered on arrays."""
    reps = part.representatives()
    return [
        tuple(part.labels[alg.apply(op.name, *args)] for args in itertools.product(reps, repeat=op.arity))
        for op in alg.ops
    ]


def reference_projections_full_or_cross(shape, tuples) -> bool:
    """dualdisc.projections_full_or_cross by comparing each pair projection
    that is not full with every cross trace of the pair."""
    shape = tuple(shape)
    tuples = list(tuples)
    for i, size in enumerate(shape):
        if {t[i] for t in tuples} != set(range(size)):
            return False
    for i in range(len(shape)):
        for j in range(i + 1, len(shape)):
            proj = {(t[i], t[j]) for t in tuples}
            if len(proj) == shape[i] * shape[j]:
                continue
            traces = [
                {
                    (x, y)
                    for x in range(shape[i])
                    for y in range(shape[j])
                    if x == a or y == b
                }
                for a in range(shape[i])
                for b in range(shape[j])
            ]
            if proj not in traces:
                return False
    return True


def reference_dualdisc(alg: FiniteAlgebra, parts):
    """dualdisc.is_cr_tuple_dualdisc as it stood before it ran on the
    quotient by the meet of the tuple: sigma is filtered from the
    meet-irreducible congruences of the whole algebra. Returns
    (is_cr, failing pair) or raises as that decider did."""
    from crtkit.algebra import congruence_violation, meet_irreducible_congruences
    from crtkit.dualdisc import _cut_out_by_pairs, _inside_composition, projections_full_or_cross
    from crtkit.errors import PreconditionError

    mi = [c.partition for c in meet_irreducible_congruences(alg)]
    for pos, part in enumerate(parts):
        meet = Partition.total(part.n)
        for m in mi:
            if part.refines(m):
                meet = meet.meet(m)
        if meet != part:
            if congruence_violation(alg, part) is None:
                raise PreconditionError(f"tuple member {pos + 1}: lattice not distributive")
            raise StructureError(f"tuple member {pos + 1} is not a congruence")
    delta = parts[0]
    for p in parts[1:]:
        delta = delta.meet(p)
    sigma = [m for m in mi if delta.refines(m)]
    rows = {tuple(s.labels[x] for s in sigma) for x in range(alg.size)}
    if not (projections_full_or_cross([s.num_blocks for s in sigma], rows) and _cut_out_by_pairs(rows)):
        raise PreconditionError("no dual discriminator variety")
    for lam, mu in itertools.combinations(sigma, 2):
        if lam.permutes(mu):
            continue
        if any(s != lam and s != mu and _inside_composition(lam, mu, s) for s in sigma):
            continue
        if any(p.refines(lam.meet(mu)) for p in parts):
            continue
        return False, (lam, mu)
    return True, None


def sigma_above(alg: FiniteAlgebra, delta: Partition) -> list[Partition]:
    """Meet-irreducible congruences lying above the congruence delta, sorted
    by label vector, as dualdisc reads them off alg / delta."""
    return sorted(_lift_all(alg, delta)[1].values(), key=lambda p: p.labels)


def in_rowspace(vec, basis: np.ndarray, p: int) -> bool:
    import numpy as np

    stacked = np.vstack([basis, np.asarray(vec, dtype=np.int64).reshape(1, -1) % p])
    return rank(stacked, p) == basis.shape[0]


def random_subspace(rng, p: int, n: int) -> np.ndarray:
    """RREF basis of the row space of a random matrix (uniform entries)
    with a uniform number of rows from 0 to n."""
    d = rng.randrange(0, n + 1)
    rows = [[rng.randrange(p) for _ in range(n)] for _ in range(d)]
    return rref(_as_matrix(rows, n, p), p)[0]


def is_3sat_prime(phi: CnfFormula) -> bool:
    return not validate_3sat_prime(phi)
