"""Hard congruence tuples from propositional formulas.

A 3SAT' formula (three pairwise distinct variables per clause, at least
five distinct clause-variable sets, every variable in at least three of
those sets) turns into a finite set S carrying equivalence relations
theta_1..theta_k whose tuple has the Chinese remainder property exactly
when the formula is unsatisfiable.

The elements of S are the singletons and the compatible cross-domain
pairs of local models, where a local model is an assignment to one
variable set satisfying all clauses over exactly that set.  theta_i
relates two elements when their intersection is a single local model
over the i-th variable set.  Satisfying assignments correspond to
unsolvable systems, in both directions.

Two wrappers turn the bare set into honest algebras: a left-zero
semigroup on S, and a doubled universe with an involution plus two
constants.  A bounded-semilattice lift covers join-semilattice inputs.
"""

from typing import NamedTuple, Optional

from .algebra import FiniteAlgebra, Operation, as_partitions, certify, failed_binary_law
from .errors import InputError, PreconditionError, StructureError
from .partitions import Partition
from .systems import CongruenceSystem, make_system, solve_system

MAX_EXHAUSTIVE_VARS = 24


class _CnfFields(NamedTuple):
    num_vars: int
    clauses: tuple[tuple[int, ...], ...]


class CnfFormula(_CnfFields):
    """Clauses as tuples of nonzero signed 1-based variable indices."""

    __slots__ = ()

    def __new__(cls, num_vars: int, clauses: tuple[tuple[int, ...], ...]):
        if num_vars < 0:
            raise InputError("negative variable count")
        for clause in clauses:
            for lit in clause:
                if lit == 0:
                    raise InputError("literal 0 is reserved as the clause terminator")
                if abs(lit) > num_vars:
                    raise InputError(
                        f"literal {lit} exceeds the declared {num_vars} variables"
                    )
        return super().__new__(cls, num_vars, clauses)

    def variables(self) -> list[int]:
        """The variables that actually occur, sorted."""
        return sorted({abs(lit) for clause in self.clauses for lit in clause})


def parse_dimacs(text: str) -> CnfFormula:
    """Read a DIMACS CNF document: 'p cnf <vars> <clauses>' then
    zero-terminated clauses; 'c' lines are comments."""
    num_vars = None
    declared_clauses = None
    literals: list[int] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("c") or line.startswith("%"):
            continue
        if line.startswith("p"):
            fields = line.split()
            if len(fields) != 4 or fields[0] != "p" or fields[1] != "cnf":
                raise InputError(f"malformed problem line: {line!r}")
            try:
                num_vars, declared_clauses = int(fields[2]), int(fields[3])
            except ValueError:
                raise InputError(f"malformed problem line: {line!r}") from None
            continue
        try:
            literals.extend(int(tok) for tok in line.split())
        except ValueError:
            raise InputError(f"non-integer token in clause data: {line!r}") from None
    if num_vars is None:
        raise InputError("missing 'p cnf' header")
    clauses = []
    current: list[int] = []
    for lit in literals:
        if lit == 0:
            if current:
                clauses.append(tuple(current))
                current = []
        else:
            current.append(lit)
    if current:
        raise InputError("last clause is not zero-terminated")
    if declared_clauses is not None and declared_clauses != len(clauses):
        raise InputError(
            f"header declares {declared_clauses} clauses, found {len(clauses)}"
        )
    return CnfFormula(num_vars, tuple(clauses))


def serialize_dimacs(phi: CnfFormula) -> str:
    lines = [f"p cnf {phi.num_vars} {len(phi.clauses)}"]
    for clause in phi.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def varsets(phi: CnfFormula) -> tuple[frozenset[int], ...]:
    """The distinct clause-variable sets, ordered by their sorted members."""
    seen = {frozenset(abs(lit) for lit in clause) for clause in phi.clauses}
    return tuple(sorted(seen, key=lambda v: tuple(sorted(v))))


def validate_3sat_prime(phi: CnfFormula) -> list[str]:
    """All violations of the three structural conditions; empty means valid."""
    violations = []
    for pos, clause in enumerate(phi.clauses):
        if len(clause) != 3 or len({abs(lit) for lit in clause}) != 3:
            violations.append(
                f"C1: clause {pos + 1} {clause} lacks three pairwise distinct variables"
            )
    family = varsets(phi)
    if len(family) < 5:
        violations.append(f"C2: only {len(family)} distinct variable sets, need 5")
    occurrences: dict[int, int] = {}
    for vset in family:
        for v in vset:
            occurrences[v] = occurrences.get(v, 0) + 1
    for v in phi.variables():
        if occurrences.get(v, 0) < 3:
            violations.append(
                f"C3: variable {v} occurs in {occurrences.get(v, 0)} variable sets, need 3"
            )
    return violations


def satisfies(phi: CnfFormula, assignment) -> bool:
    """Does a {variable: bit} mapping make every clause true?"""
    for clause in phi.clauses:
        if not any(
            (lit > 0 and assignment[lit] == 1) or (lit < 0 and assignment[-lit] == 0)
            for lit in clause
        ):
            return False
    return True


def find_satisfying(phi: CnfFormula) -> Optional[dict[int, int]]:
    """Exhaustive search for a satisfying assignment over the occurring
    variables; None when unsatisfiable.  Deliberately not a SAT solver."""
    variables = phi.variables()
    if len(variables) > MAX_EXHAUSTIVE_VARS:
        raise PreconditionError(
            f"{len(variables)} variables exceed the exhaustive-search bound "
            f"of {MAX_EXHAUSTIVE_VARS}"
        )
    for bits in range(1 << len(variables)):
        assignment = {v: (bits >> i) & 1 for i, v in enumerate(variables)}
        if satisfies(phi, assignment):
            return assignment
    return None


class PartialAssignment(NamedTuple):
    """Values for one variable set, aligned with its sorted variables."""

    domain: int
    values: tuple[int, ...]


def local_models(phi: CnfFormula, vset) -> list[PartialAssignment]:
    """All assignments to the given variable set satisfying every clause
    whose variables are exactly that set."""
    family = varsets(phi)
    target = frozenset(vset)
    try:
        domain = family.index(target)
    except ValueError:
        raise InputError(f"{sorted(target)} is not a variable set of the formula") from None
    ordered = sorted(target)
    position = {v: i for i, v in enumerate(ordered)}
    local = [clause for clause in phi.clauses if frozenset(abs(l) for l in clause) == target]
    out = []
    for bits in range(1 << len(ordered)):
        values = tuple((bits >> i) & 1 for i in range(len(ordered)))
        ok = all(
            any(
                (lit > 0) == bool(values[position[abs(lit)]])
                for lit in clause
            )
            for clause in local
        )
        if ok:
            out.append(PartialAssignment(domain, values))
    return out


class ReductionInstance:
    """The pair set S with its equivalence tuple, plus provenance."""

    def __init__(self, formula, family, models, elements, thetas):
        self.formula: CnfFormula = formula
        self.varsets: tuple[frozenset[int], ...] = family
        self.models: tuple[tuple[PartialAssignment, ...], ...] = models
        self.elements: tuple[frozenset[PartialAssignment], ...] = elements
        self.thetas: tuple[Partition, ...] = thetas
        self.element_index = {s: pos for pos, s in enumerate(elements)}

    @property
    def k(self) -> int:
        return len(self.varsets)

    @property
    def size(self) -> int:
        return len(self.elements)

    def __repr__(self):
        return f"ReductionInstance(k={self.k}, size={self.size})"


def _value_maps(family, models):
    """Per assignment, its {variable: bit} dictionary."""
    maps = {}
    for vset, assignments in zip(family, models):
        ordered = sorted(vset)
        for a in assignments:
            maps[a] = dict(zip(ordered, a.values))
    return maps


def _compatible(amap: dict[int, int], bmap: dict[int, int]) -> bool:
    """Agreement on every shared variable."""
    if len(bmap) < len(amap):
        amap, bmap = bmap, amap
    return all(bmap.get(v, bit) == bit for v, bit in amap.items())


def _element_key(s):
    members = sorted(s)
    return (members[0], members[-1])


def reduce_formula(phi: CnfFormula) -> ReductionInstance:
    """Build the set S and the equivalence tuple for a 3SAT' formula.

    Raises InputError when the formula fails the structural conditions or
    when some variable set has no local model at all (such formulas are
    trivially unsatisfiable and deliberately rejected).
    """
    violations = validate_3sat_prime(phi)
    if violations:
        raise InputError("not a 3SAT' formula: " + "; ".join(violations))
    family = varsets(phi)
    models = tuple(tuple(local_models(phi, vset)) for vset in family)
    for i, assignments in enumerate(models):
        if not assignments:
            raise InputError(
                f"degenerate formula: variable set {sorted(family[i])} has no local model"
            )
    maps = _value_maps(family, models)
    everyone = [a for assignments in models for a in assignments]
    elements = {frozenset({a}) for a in everyone}
    for pos, a in enumerate(everyone):
        for b in everyone[pos + 1 :]:
            if a.domain != b.domain and _compatible(maps[a], maps[b]):
                elements.add(frozenset({a, b}))
    ordered = tuple(sorted(elements, key=_element_key))
    thetas = []
    for i in range(len(family)):
        labels: list[object] = []
        for pos, s in enumerate(ordered):
            here = [a for a in s if a.domain == i]
            if len(here) > 1:
                raise StructureError("an element holds two local models of one domain")
            labels.append(here[0] if here else ("lone", pos))
        thetas.append(Partition(labels))
    return ReductionInstance(phi, family, models, ordered, tuple(thetas))


def assignment_to_system(inst: ReductionInstance, assignment) -> CongruenceSystem:
    """The system targeting the restriction singletons of a total assignment.

    Raises InputError when some restriction violates a local clause (the
    assignment is then not a model of the formula).
    """
    targets = []
    for i, vset in enumerate(inst.varsets):
        ordered = sorted(vset)
        missing = [v for v in ordered if v not in assignment]
        if missing:
            raise InputError(f"assignment misses variables {missing}")
        restriction = PartialAssignment(i, tuple(assignment[v] for v in ordered))
        if restriction not in inst.models[i]:
            raise InputError(
                f"assignment is not a local model over {sorted(vset)}"
            )
        targets.append(inst.element_index[frozenset({restriction})])
    return make_system(inst.thetas, targets)


def system_to_assignment(inst: ReductionInstance, system: CongruenceSystem) -> dict[int, int]:
    """Extract and verify a satisfying assignment from an unsolvable system.

    The construction guarantees that every unsolvable system is coherent
    (each target meets the i-th model set) and that the representatives
    glue; a StructureError here means the construction itself is broken.
    """
    if system.thetas != inst.thetas:
        raise InputError("system does not belong to this instance")
    if solve_system(system) is not None:
        raise PreconditionError("system is solvable; nothing to extract")
    assignment: dict[int, int] = {}
    for i, target in enumerate(system.targets):
        here = [a for a in inst.elements[target] if a.domain == i]
        if not here:
            raise StructureError(
                f"unsolvable system is incoherent at coordinate {i + 1}"
            )
        ordered = sorted(inst.varsets[i])
        for v, bit in zip(ordered, here[0].values):
            if assignment.setdefault(v, bit) != bit:
                raise StructureError(f"representatives disagree on variable {v}")
    if not satisfies(inst.formula, assignment):
        raise StructureError("extracted assignment fails the formula")
    return assignment


def as_left_zero_semigroup(inst: ReductionInstance):
    """Wrap S in the product x*y = x; certifies every theta_i.

    The product is a projection, so certification reads its table once
    and builds no arrays (see algebra.congruence_violation)."""
    from .catalog import left_zero_semigroup

    alg = left_zero_semigroup(inst.size)
    return alg, certify(alg, inst.thetas)


def u_embed(size: int, thetas, c: int = 0):
    """Double a bare-set instance into an involution algebra.

    The universe becomes {0..2n-1} with a+n playing the primed copy of a;
    neg swaps the copies, and the constants zero/one name c and its copy.
    Each partition is extended to relate primed pairs exactly as their
    originals.  The tuple verdict is unchanged by this construction, and
    does not depend on the choice of c.
    """
    if not 0 <= c < size:
        raise InputError(f"constant {c} outside 0..{size - 1}")
    parts = as_partitions(thetas, size)
    neg = tuple(range(size, 2 * size)) + tuple(range(size))
    alg = FiniteAlgebra(
        2 * size,
        [
            Operation("neg", 1, neg),
            Operation("zero", 0, (c,)),
            Operation("one", 0, (c + size,)),
        ],
        name=f"U{size}",
    )
    doubled = tuple(
        Partition(part.labels + tuple(lab + part.num_blocks for lab in part.labels))
        for part in parts
    )
    return alg, doubled


def _unique_binary_op(alg: FiniteAlgebra) -> Operation:
    binary = [op for op in alg.ops if op.arity == 2]
    if len(binary) != 1:
        raise InputError(f"expected exactly one binary operation, found {len(binary)}")
    return binary[0]


def semilattice_bounded_lift(alg: FiniteAlgebra, thetas):
    """Adjoin a fresh bottom to a join-semilattice and bound it.

    The join is the algebra's only binary operation. The new element sits
    at index n and is neutral for the join; the constants zero/one name it
    and the existing top.  Each partition gains the bottom as a singleton
    block.  The tuple verdict is unchanged by this construction.
    """
    import numpy as np

    op = _unique_binary_op(alg)
    n = alg.size
    T = alg.table_array(op.name)
    law = failed_binary_law(T, ("commutative", "associative", "idempotent"))
    if law is not None:
        raise PreconditionError(f"operation {op.name!r} is not {law}")
    top = 0
    for x in range(n):
        top = int(T[top, x])
    if not (T[:, top] == top).all():
        raise PreconditionError("the semilattice has no top element")
    parts = as_partitions(thetas, n)
    join = np.empty((n + 1, n + 1), dtype=np.intp)
    join[:n, :n] = T
    join[n] = join[:, n] = np.arange(n + 1)
    bounded = FiniteAlgebra(
        n + 1,
        [
            Operation(op.name, 2, join),
            Operation("zero", 0, (n,)),
            Operation("one", 0, (top,)),
        ],
        name=f"{alg.name}^0",
    )
    lifted = tuple(
        Partition(part.labels + (part.num_blocks,)) for part in parts
    )
    return bounded, lifted


def random_3sat_prime(seed: int, k_sets: int, sat_bias: float = 0.5) -> CnfFormula:
    """Deterministic generator of valid 3SAT' formulas.

    Variable sets form a circulant design {i, i+s1, i+s2} over k_sets
    variables, which puts every variable in exactly three distinct sets.
    Each set carries two to five clauses with random sign patterns;
    sat_bias is the per-set probability that a hidden planted assignment
    is protected, so 1.0 forces satisfiability while 0.0 leaves roughly
    a fifth of the formulas unsatisfiable.  Every variable set keeps at
    least three local models, so the instance never degenerates.
    """
    import random as _random

    if k_sets < 5:
        raise InputError(f"k_sets must be at least 5, got {k_sets}")
    if not 0.0 <= sat_bias <= 1.0:
        raise InputError(f"sat_bias must lie in [0, 1], got {sat_bias}")
    rng = _random.Random(seed)
    m = k_sets
    family = None
    for _ in range(500):
        s1, s2 = rng.randrange(1, m), rng.randrange(1, m)
        if s1 == s2:
            continue
        candidate = [frozenset({i, (i + s1) % m, (i + s2) % m}) for i in range(m)]
        if all(len(v) == 3 for v in candidate) and len(set(candidate)) == m:
            family = candidate
            break
    if family is None:
        raise InputError(f"no circulant variable-set family over {m} variables")
    planted = [rng.randrange(2) for _ in range(m)]
    clauses = []
    for vset in family:
        ordered = sorted(vset)
        killing = 0
        for j, v in enumerate(ordered):
            killing |= (1 - planted[v]) << j
        pool = list(range(8))
        if rng.random() < sat_bias:
            pool.remove(killing)
        for pattern in sorted(rng.sample(pool, rng.choice((2, 3, 4, 5)))):
            clauses.append(
                tuple(
                    (v + 1) if (pattern >> j) & 1 else -(v + 1)
                    for j, v in enumerate(ordered)
                )
            )
    phi = CnfFormula(m, tuple(clauses))
    leftover = validate_3sat_prime(phi)
    if leftover:
        raise StructureError("generator produced an invalid formula: " + leftover[0])
    return phi
