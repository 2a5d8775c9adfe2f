"""Answers the benchmark checks crtkit's output against.

Nothing here calls the crtkit code it judges: CR verdicts come from a plain
enumeration of target systems, congruence counts from closed forms, and the
two-element classification from a naive fixpoint of ternary tables plus the
priority rule documented in `crtkit.postlattice.classify`.
"""

from __future__ import annotations

import itertools

import numpy as np

# ternary tables on {0,1}: bit 4x + 2y + z holds the value at (x, y, z)
PROJ = (0xF0, 0xCC, 0xAA)
S_TABLE = 0x96  # x + y + z mod 2
N_TABLE = 0xEA  # (x and y) or z
N_DUAL_TABLE = 0xA8  # (x or y) and z
M_TABLE = 0xE8  # majority


# ---------------------------------------------------------------------------
# partitions as canonical label tuples


def canonical(labels) -> tuple[int, ...]:
    remap: dict = {}
    return tuple(remap.setdefault(v, len(remap)) for v in labels)


def join(a, b) -> tuple[int, ...]:
    """Least partition above both label vectors (union-find)."""
    parent = list(range(len(a)))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for labels in (a, b):
        first: dict = {}
        for x, lab in enumerate(labels):
            if lab in first:
                rx, ry = find(first[lab]), find(x)
                if rx != ry:
                    parent[ry] = rx
            else:
                first[lab] = x
    return canonical(find(x) for x in range(len(a)))


def is_compatible(parts, targets) -> bool:
    for i, j in itertools.combinations(range(len(parts)), 2):
        joined = join(parts[i], parts[j])
        if joined[targets[i]] != joined[targets[j]]:
            return False
    return True


def is_solvable(parts, targets) -> bool:
    n = len(parts[0])
    return any(
        all(p[x] == p[a] for p, a in zip(parts, targets)) for x in range(n)
    )


def brute_cr(parts) -> bool:
    """CR by enumerating every compatible system over block minimums."""
    k = len(parts)
    if k == 1:
        return True
    n = len(parts[0])
    reps = [sorted({p.index(lab) for lab in set(p)}) for p in parts]
    joins = {(i, j): join(parts[i], parts[j]) for i, j in itertools.combinations(range(k), 2)}
    chosen = [0] * k

    def descend(depth, alive):
        for a in reps[depth]:
            if any(joins[j, depth][chosen[j]] != joins[j, depth][a] for j in range(depth)):
                continue
            chosen[depth] = a
            rest = [x for x in alive if parts[depth][x] == parts[depth][a]]
            if depth + 1 == k:
                if not rest:
                    return False
            elif not descend(depth + 1, rest):
                return False
        return True

    return descend(0, list(range(n)))


def reduction_size(clauses) -> int:
    """Elements of the 3SAT' reduction set: every local model (an assignment
    to one clause-variable set satisfying the clauses over exactly that set)
    and every pair of models of different sets that agree where they share
    variables."""
    by_set: dict = {}
    for clause in clauses:
        by_set.setdefault(tuple(sorted(abs(lit) for lit in clause)), []).append(clause)
    models = []
    for vset, local in by_set.items():
        for bits in itertools.product((0, 1), repeat=len(vset)):
            value = dict(zip(vset, bits))
            if all(any((lit > 0) == bool(value[abs(lit)]) for lit in clause) for clause in local):
                models.append((vset, value))
    pairs = sum(
        1
        for (sa, a), (sb, b) in itertools.combinations(models, 2)
        if sa != sb and all(b.get(v, bit) == bit for v, bit in a.items())
    )
    return len(models) + pairs


# ---------------------------------------------------------------------------
# closed-form sizes of congruence lattices


def bell(n: int) -> int:
    row = [1]
    for _ in range(n - 1):
        nxt = [row[-1]]
        for v in row:
            nxt.append(nxt[-1] + v)
        row = nxt
    return row[-1]


def divisor_count(n: int) -> int:
    return sum(1 for d in range(1, n + 1) if n % d == 0)


def subspace_count(p: int, m: int) -> int:
    """Subspaces of GF(p)^m: the sum of the Gaussian binomials [m, k]_p."""
    total = 0
    for k in range(m + 1):
        num = den = 1
        for i in range(k):
            num *= p ** (m - i) - 1
            den *= p ** (i + 1) - 1
        total += num // den
    return total


# ---------------------------------------------------------------------------
# two-element classification


def _compose_all(table, arity: int, reached: np.ndarray) -> np.ndarray:
    """op(g1..ga) for every tuple over `reached`, as an array of shape
    (len(reached),) * arity, by Shannon expansion on the first argument:
    op(g, rest) = (not g and op(0, rest)) or (g and op(1, rest)) bitwise."""
    if arity == 0:
        return np.uint8(0xFF if table[0] else 0x00)
    half = len(table) // 2
    low = _compose_all(table[:half], arity - 1, reached)
    high = _compose_all(table[half:], arity - 1, reached)
    g = reached.reshape((-1,) + (1,) * (arity - 1))
    return (~g & low) | (g & high)


def ternary_fragment(ops, stop: int | None = None) -> set[int]:
    """Ternary tables of the clone generated by `ops` ((arity, table) pairs,
    row-major with the first argument most significant), by plain fixpoint
    iteration from the projections and constants. Stops once `stop` is in.

    Each step composes one operation with every tuple of the tables known so
    far, lowest arity first, a slice of first arguments at a time; the order
    of the steps changes only how soon `stop` turns up."""
    reached = set(PROJ)
    for arity, table in ops:
        if arity == 0:
            reached.add(0xFF if table[0] else 0x00)
    ordered = sorted((op for op in ops if op[0]), key=lambda op: op[0])
    grew = True
    while grew and stop not in reached:
        grew = False
        for arity, table in ordered:
            arr = np.array(sorted(reached), dtype=np.uint8)
            # op(g, rest) = (not g and op(0, rest)) or (g and op(1, rest))
            low = _compose_all(table[: len(table) // 2], arity - 1, arr)
            high = _compose_all(table[len(table) // 2 :], arity - 1, arr)
            for lo in range(0, len(arr), 16):
                g = arr[lo : lo + 16].reshape((-1,) + (1,) * (arity - 1))
                out = np.broadcast_to((~g & low) | (g & high), (len(g),) + (len(arr),) * (arity - 1))
                fresh = set(np.flatnonzero(np.bincount(out.ravel(), minlength=256)).tolist()) - reached
                if fresh:
                    reached |= fresh
                    grew = True
                if stop in reached:
                    return reached
    return reached


def _essential(arity, table) -> int:
    count = 0
    for i in range(arity):
        stride = 1 << (arity - 1 - i)
        if any(table[x] != table[x | stride] for x in range(1 << arity) if not x & stride):
            count += 1
    return count


def _is_form(arity, table, join_form: bool) -> bool:
    """c or x_i or ... (join form) / c and x_i and ... (meet form)."""
    for c in (0, 1):
        for subset in range(1 << arity):
            ok = True
            for x in range(1 << arity):
                picked = [x >> (arity - 1 - i) & 1 for i in range(arity) if subset >> i & 1]
                want = (c | any(picked)) if join_form else (c & all(picked))
                if table[x] != int(want):
                    ok = False
                    break
            if ok:
                return True
    return False


def classify_tag(ops) -> str:
    """The priority rule of crtkit.postlattice.classify over a naive closure."""
    frag = ternary_fragment(ops, stop=S_TABLE)
    if S_TABLE in frag:
        return "HasS"
    if N_TABLE in frag or N_DUAL_TABLE in frag:
        return "HasN"
    if M_TABLE in frag:
        return "HasM"
    if all(_essential(a, t) <= 1 for a, t in ops):
        return "EssentiallyUnary"
    if all(_is_form(a, t, True) for a, t in ops) or all(_is_form(a, t, False) for a, t in ops):
        return "SemilatticeFamily"
    raise AssertionError("signature outside Post's five cases")


def witness_table(ops, tag: str) -> int | None:
    """The table classify's witness must compute for a tractable tag."""
    if tag == "HasS":
        return S_TABLE
    if tag == "HasM":
        return M_TABLE
    if tag == "HasN":
        return N_TABLE if N_TABLE in ternary_fragment(ops, stop=N_TABLE) else N_DUAL_TABLE
    return None


def term_table(term, ops_by_name) -> int:
    """8-bit table of a crtkit term (Var.index / App.op, App.args) on {0,1}."""
    out = 0
    for p in range(8):
        point = (p >> 2 & 1, p >> 1 & 1, p & 1)
        out |= _eval(term, ops_by_name, point) << p
    return out


def _eval(term, ops_by_name, point) -> int:
    if hasattr(term, "index"):
        return point[term.index]
    arity, table = ops_by_name[term.op]
    idx = 0
    for sub in term.args:
        idx = idx * 2 + _eval(sub, ops_by_name, point)
    return table[idx] if arity else table[0]
