"""Seeded inputs, their expected answers, and the checks on crtkit's output.

Every input is built from the seed with crtkit's own constructors
(`catalog`, `power_algebra`, `random_3sat_prime`) and written with its
serializers; every expected answer comes from `oracles`. A workload is one
pass: a list of CLI operations, or for `classify` a list of signatures.
The timed loop repeats the pass.

Why each workload (see also README.md):

- hard-cr: gen-hard then check on unsatisfiable 3SAT' formulas. The bare
  set has no operations, so parsing and certification cost close to
  nothing and the exhaustive brute search (`systems`) dominates.
- hard-not-cr: the same pipeline on satisfiable formulas through the
  semigroup and U-embeddings. The witness turns up early, so parsing and
  certifying large algebra files dominate; a decider change that speeds
  exhaustive search but slows early exit shows here.
- lattice: conlat and every check route on catalog algebras, with CR and
  NOT-CR tuples; it loads the congruence-lattice layers of `algebra` and
  the polynomial deciders.
- classify: the two-element classifier in process, on a sample of the
  4*16*256 signatures of one unary, one binary and one ternary table,
  stratified so that all five classes appear.
"""

from __future__ import annotations

import itertools
import os
import random
from dataclasses import dataclass, field
from typing import Callable

import oracles
from crtkit.algebra import FiniteAlgebra, Operation
from crtkit.catalog import (
    boolean_lattice,
    chain_lattice,
    left_zero_semigroup,
    power_algebra,
    two_majority,
    two_minority,
    two_nearlattice,
    zmod_group,
    zmod_ring,
    index_to_tuple,
)
from crtkit.formats import serialize_algebra, serialize_congruences
from crtkit.partitions import Partition
from crtkit.satgadget import CnfFormula, find_satisfying, random_3sat_prime, serialize_dimacs

WORKLOADS = ("hard-cr", "hard-not-cr", "lattice", "classify")


@dataclass
class Op:
    """One CLI invocation and the check of what it printed."""

    kind: str
    args: list
    check: Callable[[str, int], list]  # (stdout, exit code) -> problems


@dataclass
class Signature:
    """One two-element algebra of the classify workload."""

    key: tuple  # (f1, f2, f3) table indices
    algebra: FiniteAlgebra
    tag: str  # expected class
    witness_table: int | None  # expected witness table, when classified with one
    with_witness: bool


@dataclass
class Pass:
    ops: list = field(default_factory=list)
    signatures: list = field(default_factory=list)
    expected: dict = field(default_factory=dict)  # verdict kind -> count


# ---------------------------------------------------------------------------
# shared helpers


def _write(path: str, text: str) -> str:
    with open(path, "w", encoding="ascii") as handle:
        handle.write(text)
    return path


def _lines(stdout: str) -> list[str]:
    return [line.strip() for line in stdout.splitlines() if line.strip()]


def _read_congs(path: str) -> list[tuple[int, ...]]:
    with open(path, encoding="ascii") as handle:
        return [tuple(int(v) for v in line.split()[2:]) for line in handle if line.startswith("cong ")]


def _verdict_problems(stdout: str, code: int, want_cr: bool, parts, route=None) -> list[str]:
    """Exit code, RESULT line, ROUTE line and, for a brute NOT-CR verdict,
    the WITNESS: compatible and unsolvable on the partitions themselves."""
    lines = _lines(stdout)
    want = "RESULT: CR" if want_cr else "RESULT: NOT-CR"
    problems = []
    if code != (0 if want_cr else 10) or want not in lines:
        problems.append(f"expected {want} (exit {0 if want_cr else 10}), got exit {code}")
    if route is not None and f"ROUTE: {route}" not in lines:
        problems.append(f"expected ROUTE: {route}")
    for line in lines:
        if line.startswith("WITNESS: "):
            targets = [int(v) for v in line.split()[1:]]
            if len(targets) != len(parts) or not all(0 <= a < len(parts[0]) for a in targets):
                problems.append(f"malformed witness {targets}")
            elif not oracles.is_compatible(parts, targets):
                problems.append(f"witness {targets} is not a compatible system")
            elif oracles.is_solvable(parts, targets):
                problems.append(f"witness {targets} is solvable")
    return problems


# ---------------------------------------------------------------------------
# hard-cr and hard-not-cr

# The first three unsatisfiable draws of random_3sat_prime(s, 9, 0.0), s = 0, 1, ...
# Draws differ up to eightfold in search work, and a run holds only a few,
# so every seed gets the same draws: the seed flips variable signs and
# shuffles clauses and their order. That yields other files and another
# element order, but an isomorphic instance with the same exhaustive work.
HARD_CR_K = 9
HARD_CR_DRAWS = 3
# satisfiable draws random_3sat_prime(0, k, 1.0); larger k makes one check
# take several seconds
HARD_NOT_CR_KS = (5, 6, 7)
HARD_NOT_CR_VARIANTS = (("--semigroup",), ("--semigroup", "--u-embed"))


def _isomorphic_copy(phi: CnfFormula, rng: random.Random) -> CnfFormula:
    flip = [False] + [rng.random() < 0.5 for _ in range(phi.num_vars)]
    clauses = []
    for clause in phi.clauses:
        lits = [-lit if flip[abs(lit)] else lit for lit in clause]
        rng.shuffle(lits)
        clauses.append(tuple(lits))
    rng.shuffle(clauses)
    return CnfFormula(phi.num_vars, tuple(clauses))


def _gen_check(cnf: str, out: str, flags, k_sets: int, size: int) -> Op:
    want = [f"SIZE: {size}", f"CONGRUENCES: {k_sets}"]

    def check(stdout, code):
        if code != 0 or any(line not in _lines(stdout) for line in want):
            return [f"gen-hard: exit {code}, expected {', '.join(want)}"]
        return []

    return Op("gen-hard", ["gen-hard", "--cnf", cnf, "--out", out, *flags], check)


def _hard_check(out: str, want_cr: bool, method: str) -> Op:
    congs = os.path.join(out, "instance.congs")
    args = ["check", "--algebra", os.path.join(out, "instance.alg"), "--congs", congs]
    if method != "auto":
        args += ["--method", method]

    def check(stdout, code):
        parts = _read_congs(congs)
        return _verdict_problems(stdout, code, want_cr, parts, route="brute" if method == "auto" else None)

    return Op(f"check-{method}", args, check)


def _hard_pass(seed: int, workdir: str, formulas, variants, methods) -> Pass:
    rng = random.Random(seed)
    result = Pass()
    items = []
    for idx, phi in enumerate(formulas):
        copy = _isomorphic_copy(phi, rng)
        # flipping signs and reordering keep satisfiability; searching the
        # draw itself keeps the oracle's work the same for every seed
        want_cr = find_satisfying(phi) is None
        cnf = _write(os.path.join(workdir, f"f{idx}.cnf"), serialize_dimacs(copy))
        k_sets = len({frozenset(abs(lit) for lit in clause) for clause in copy.clauses})
        size = oracles.reduction_size(copy.clauses)
        for v, flags in enumerate(variants):
            out = os.path.join(workdir, f"f{idx}v{v}")
            doubled = 2 if "--u-embed" in flags else 1
            items.append([_gen_check(cnf, out, flags, k_sets, doubled * size)] + [_hard_check(out, want_cr, m) for m in methods])
            key = "CR" if want_cr else "NOT-CR"
            result.expected[key] = result.expected.get(key, 0) + 1
    rng.shuffle(items)
    result.ops = [op for item in items for op in item]
    return result


def build_hard_cr(seed: int, workdir: str) -> Pass:
    draws, s = [], 0
    while len(draws) < HARD_CR_DRAWS:
        phi = random_3sat_prime(s, HARD_CR_K, 0.0)
        if find_satisfying(phi) is None:
            draws.append(phi)
        s += 1
    # check twice, by the auto route and by --method brute, so that checks
    # outnumber gen-hard runs and the median operation is a search
    return _hard_pass(seed, workdir, draws, ((),), ("auto", "brute"))


def build_hard_not_cr(seed: int, workdir: str) -> Pass:
    draws = [random_3sat_prime(0, k, 1.0) for k in HARD_NOT_CR_KS]
    return _hard_pass(seed, workdir, draws, HARD_NOT_CR_VARIANTS, ("auto",))


# ---------------------------------------------------------------------------
# lattice


def relabel(alg: FiniteAlgebra, perm) -> FiniteAlgebra:
    """The isomorphic copy of alg in which element x is called perm[x]."""
    n = alg.size
    inv = [0] * n
    for old, new in enumerate(perm):
        inv[new] = old
    ops = []
    for op in alg.ops:
        strides = [n ** (op.arity - 1 - i) for i in range(op.arity)]
        table = []
        for args in itertools.product(inv, repeat=op.arity):
            table.append(perm[op.table[sum(s * a for s, a in zip(strides, args))]])
        ops.append(Operation(op.name, op.arity, tuple(table)))
    return FiniteAlgebra(n, ops, name=alg.name)


def _conlat_op(label: str, path: str, count: int, distributive: bool, permutable: bool) -> Op:
    def check(stdout, code):
        lines = _lines(stdout)
        want = [
            f"CONGRUENCES: {count}",
            f"DISTRIBUTIVE: {'yes' if distributive else 'no'}",
            f"PERMUTABLE: {'yes' if permutable else 'no'}",
        ]
        problems = [f"expected {w}" for w in want if w not in lines]
        congs = {line.split(":", 1)[1].replace("MI", "").strip() for line in lines if line.startswith("CONG ")}
        if code != 0 or len(congs) != count:
            problems.append(f"conlat: exit {code}, {len(congs)} distinct CONG lines, expected {count}")
        return problems

    return Op(f"conlat {label}", ["conlat", "--algebra", path], check)


def _kernel(coords, subset) -> tuple[int, ...]:
    """Kernel of the projection onto `subset`, restricted to the listed tuples."""
    return oracles.canonical(tuple(c[i] for i in subset) for c in coords)


def _interval_partition(n: int, rng: random.Random) -> tuple[int, ...]:
    """A congruence of the chain 0 < ... < n-1: cut it into intervals."""
    labels, block = [], 0
    for x in range(n):
        if x and rng.random() < 0.5:
            block += 1
        labels.append(block)
    return tuple(labels)


def _subspace_partition(p: int, m: int, rng: random.Random) -> tuple[int, ...]:
    """Cosets of a random subspace of GF(p)^m, elements coded base p."""
    dim = rng.randrange(0, m + 1)
    gens = [tuple(rng.randrange(p) for _ in range(m)) for _ in range(dim)]
    span = {tuple([0] * m)}
    for g in gens:
        span = {tuple((v[i] + c * g[i]) % p for i in range(m)) for v in span for c in range(p)}
    vectors = [index_to_tuple(x, p, m) for x in range(p**m)]
    return oracles.canonical(
        min(tuple((v[i] + w[i]) % p for i in range(m)) for w in span) for v in vectors
    )


def _fixed_subpower(base: FiniteAlgebra, m: int, gens: int, rng: random.Random):
    """The subalgebra of base^m generated by `gens` random tuples, with the
    coordinates of its elements; built on the closed set alone, since
    power_algebra would tabulate all of base^m first. `base` has no
    constants."""

    def apply(op, args):
        return tuple(base.apply(op.name, *col) for col in zip(*args))

    tuples = {tuple(rng.randrange(base.size) for _ in range(m)) for _ in range(gens)}
    grew = True
    while grew:
        grew = False
        for op in base.ops:
            for args in itertools.product(sorted(tuples), repeat=op.arity):
                value = apply(op, args)
                if value not in tuples:
                    tuples.add(value)
                    grew = True
    coords = sorted(tuples)
    index = {c: i for i, c in enumerate(coords)}
    ops = [
        Operation(op.name, op.arity, tuple(index[apply(op, args)] for args in itertools.product(coords, repeat=op.arity)))
        for op in base.ops
    ]
    return FiniteAlgebra(len(coords), ops, name=f"{base.name}^{m}|sub"), coords


# (label, algebra constructor, congruence count, distributive, permutable)
CONLAT = (
    ("chain6", lambda: chain_lattice(6), 2**5, True, False),
    ("bool4", lambda: boolean_lattice(4), 2**4, True, True),
    ("Z60", lambda: zmod_ring(60), oracles.divisor_count(60), True, True),
    ("Z24", lambda: zmod_ring(24), oracles.divisor_count(24), True, True),
    ("LZ6", lambda: left_zero_semigroup(6), oracles.bell(6), False, False),
    ("GF2^4", lambda: power_algebra(zmod_group(2), 4), oracles.subspace_count(2, 4), False, True),
    ("GF3^3", lambda: power_algebra(zmod_group(3), 3), oracles.subspace_count(3, 3), False, True),
    # a finite power of a simple algebra with a majority term has only the
    # product congruences (Fraser-Horn), and those permute
    ("2maj^4", lambda: power_algebra(two_majority(), 4), 2**4, True, True),
)
TUPLE_SIZE = 3


def _lattice_checks(rng: random.Random):
    """(label, algebra, generator or None, method, tuple) for every route."""
    fixed = random.Random(0)  # the algebras are the same for every seed
    maj_sub, maj_coords = _fixed_subpower(two_majority(), 7, 7, fixed)
    n_sub, n_coords = _fixed_subpower(two_nearlattice(), 7, 6, fixed)
    min_pow = power_algebra(two_minority(), 5)
    min_coords = [index_to_tuple(x, 2, 5) for x in range(min_pow.size)]
    chain = chain_lattice(24)

    def kernels(coords):
        m = len(coords[0])
        return [_kernel(coords, rng.sample(range(m), rng.randrange(1, m))) for _ in range(TUPLE_SIZE)]

    def intervals():
        return [_interval_partition(chain.size, rng) for _ in range(TUPLE_SIZE)]

    def subspaces(p, m):
        return [_subspace_partition(p, m, rng) for _ in range(TUPLE_SIZE)]

    return [
        ("chain24", chain, None, "distlat", intervals()),
        ("chain24", chain, None, "brute", intervals()),
        ("GF2^7", power_algebra(zmod_group(2), 7), None, "vs", subspaces(2, 7)),
        ("GF3^4", power_algebra(zmod_group(3), 4), None, "vs", subspaces(3, 4)),
        ("2maj^7|sub", maj_sub, None, "dualdisc", kernels(maj_coords)),
        ("2N^7|sub", n_sub, None, "nearlattice", kernels(n_coords)),
        ("2min^5", min_pow, two_minority(), "auto", kernels(min_coords)),
        ("2N^7|sub", n_sub, two_nearlattice(), "auto", kernels(n_coords)),
        ("2maj^7|sub", maj_sub, two_majority(), "auto", kernels(maj_coords)),
    ]


AUTO_ROUTE = {"2min": "vs", "2N": "nearlattice", "2maj": "dualdisc"}


def build_lattice(seed: int, workdir: str) -> Pass:
    rng = random.Random(seed)
    result = Pass()
    items = []
    for label, build, count, dist, perm in CONLAT:
        alg = build()
        order = list(range(alg.size))
        rng.shuffle(order)
        path = _write(os.path.join(workdir, f"conlat-{len(items)}.alg"), serialize_algebra(relabel(alg, order)))
        items.append(_conlat_op(label, path, count, dist, perm))
    for label, alg, gen, method, parts in _lattice_checks(rng):
        order = list(range(alg.size))
        rng.shuffle(order)
        alg = relabel(alg, order)
        parts = [oracles.canonical(p[order.index(x)] for x in range(alg.size)) for p in parts]
        want_cr = oracles.brute_cr(parts)
        stem = os.path.join(workdir, f"check-{len(items)}")
        alg_path = _write(stem + ".alg", serialize_algebra(alg))
        congs_path = _write(
            stem + ".congs",
            serialize_congruences([(f"theta{i + 1}", Partition(p)) for i, p in enumerate(parts)]),
        )
        args = ["check", "--algebra", alg_path, "--congs", congs_path]
        route = None
        if method == "auto":
            args += ["--generator", _write(stem + ".gen", serialize_algebra(gen))]
            route = AUTO_ROUTE[gen.name]
        else:
            args += ["--method", method]

        def check(stdout, code, want_cr=want_cr, parts=parts, route=route):
            return _verdict_problems(stdout, code, want_cr, parts, route=route)

        items.append(Op(f"check-{method} {label}", args, check))
        key = "CR" if want_cr else "NOT-CR"
        result.expected[key] = result.expected.get(key, 0) + 1
    rng.shuffle(items)
    result.ops = items
    return result


# ---------------------------------------------------------------------------
# classify

# signatures per class in one pass; HasM has exactly two members
QUOTA = {"HasS": 72, "HasN": 24, "HasM": 2, "EssentiallyUnary": 24, "SemilatticeFamily": 24}
WITNESS_EVERY = 4  # classify every fourth signature a second time, with the witness


def _tables(f1: int, f2: int, f3: int):
    return (
        (1, ((f1 >> 1) & 1, f1 & 1)),
        (2, tuple((f2 >> (3 - j)) & 1 for j in range(4))),
        (3, tuple((f3 >> (7 - j)) & 1 for j in range(8))),
    )


def _index(arity: int, table) -> int:
    return int("".join(str(v) for v in table), 2)


def _structural_strata():
    """Members of the three small classes, listed from their definitions:
    every operation essentially unary; every operation a join form (or every
    one a meet form) and not all essentially unary; the identity, a binary
    projection and majority."""
    tables = {
        1: [_tables(i, 0, 0)[0][1] for i in range(4)],
        2: [_tables(0, i, 0)[1][1] for i in range(16)],
        3: [_tables(0, 0, i)[2][1] for i in range(256)],
    }
    unary = {a: [t for t in tables[a] if oracles._essential(a, t) <= 1] for a in tables}
    eu = [tuple(_index(a, t) for a, t in zip((1, 2, 3), combo)) for combo in itertools.product(*(unary[a] for a in (1, 2, 3)))]
    forms = set()
    for join_form in (True, False):
        fits = {a: [t for t in tables[a] if oracles._is_form(a, t, join_form)] for a in tables}
        forms |= {tuple(_index(a, t) for a, t in zip((1, 2, 3), combo)) for combo in itertools.product(*(fits[a] for a in (1, 2, 3)))}
    sf = sorted(forms - set(eu))
    majority = tuple(int(x + y + z >= 2) for x, y, z in itertools.product((0, 1), repeat=3))
    has_m = [(_index(1, (0, 1)), _index(2, proj), _index(3, majority)) for proj in ((0, 0, 1, 1), (0, 1, 0, 1))]
    return {"EssentiallyUnary": eu, "SemilatticeFamily": sf, "HasM": has_m}


def _symmetric_image(key, rng: random.Random):
    """Another signature generating an isomorphic clone: argument positions
    permuted, and half the time every table replaced by its dual
    f'(x) = not f(not x). The class is the same, and so is the work."""
    perms = {1: [0], 2: rng.sample(range(2), 2), 3: rng.sample(range(3), 3)}
    dual = rng.random() < 0.5
    out = []
    for arity, table in _tables(*key):
        image = []
        for args in itertools.product((0, 1), repeat=arity):
            src = [args[perms[arity][i]] ^ dual for i in range(arity)]
            image.append(table[_index(arity, src)] ^ dual)
        out.append(_index(arity, image))
    return tuple(out)


def _panel() -> list[tuple[str, tuple]]:
    """The stratified sample of signatures, the same for every seed: costs
    differ up to a hundredfold between signatures of one class, so fresh
    draws per seed would change the work of a run."""
    rng = random.Random(0)
    picked: dict[str, list] = {tag: [] for tag in QUOTA}
    for tag, members in _structural_strata().items():
        picked[tag] = rng.sample(members, min(QUOTA[tag], len(members)))
    # the two large classes by rejection from uniform draws
    seen = {key for keys in picked.values() for key in keys}
    while len(picked["HasS"]) < QUOTA["HasS"] or len(picked["HasN"]) < QUOTA["HasN"]:
        key = (rng.randrange(4), rng.randrange(16), rng.randrange(256))
        if key in seen:
            continue
        seen.add(key)
        tag = oracles.classify_tag(_tables(*key))
        if tag in ("HasS", "HasN") and len(picked[tag]) < QUOTA[tag]:
            picked[tag].append(key)
    return [(tag, key) for tag, members in picked.items() for key in members]


def build_classify(seed: int, workdir: str) -> Pass:
    rng = random.Random(seed)
    result = Pass()
    for pos, (stratum, key) in enumerate(_panel()):
        key = _symmetric_image(key, rng)
        tables = _tables(*key)
        tag = oracles.classify_tag(tables)
        if tag != stratum:
            raise RuntimeError(f"signature {key} drawn for {stratum} classifies as {tag}")
        alg = FiniteAlgebra(
            2, [Operation(f"f{a}", a, t) for a, t in tables], name=f"c{key[0]}_{key[1]}_{key[2]}"
        )
        with_witness = pos % WITNESS_EVERY == 0
        wtab = oracles.witness_table(tables, tag) if with_witness else None
        result.signatures.append(Signature(key, alg, tag, wtab, with_witness))
        result.expected[tag] = result.expected.get(tag, 0) + 1
    rng.shuffle(result.signatures)
    return result


def classify_problems(sig: Signature, with_witness: bool, result) -> list[str]:
    if result.tag != sig.tag:
        return [f"{sig.key}: classify says {result.tag}, oracle says {sig.tag}"]
    if not with_witness or sig.witness_table is None:
        return []
    ops = {f"f{a}": (a, t) for a, t in _tables(*sig.key)}
    got = oracles.term_table(result.witness, ops) if result.witness is not None else None
    if got != sig.witness_table:
        return [f"{sig.key}: witness computes table {got}, expected {sig.witness_table}"]
    return []


PASS_OF = {
    "hard-cr": build_hard_cr,
    "hard-not-cr": build_hard_not_cr,
    "lattice": build_lattice,
    "classify": build_classify,
}
