"""End-to-end acceptance checks, one test per criterion.

Every decision procedure is measured against an independent oracle
(brute force over all compatible systems, or exhaustive enumeration),
with two scale smoke checks where brute force is infeasible.
"""

import itertools
import random
import time

import numpy as np

from crtkit.algebra import (
    App,
    FiniteAlgebra,
    Operation,
    Var,
    all_congruences,
    meet_irreducible_congruences,
    naive_meet_irreducibles,
    quotient,
    reduct,
)
from crtkit.catalog import (
    chain_lattice,
    power_algebra,
    two_implication,
    two_join_semilattice,
    two_lattice,
    two_majority,
    two_nearlattice,
    zmod_ring,
)
from crtkit.dualdisc import is_cr_tuple_dualdisc, projections_full_or_cross
from crtkit.nearlattice import (
    is_cr_tuple_distlattice,
    is_cr_tuple_nearlattice,
    is_cr_tuple_tarski,
    lattice_view,
    make_view,
    tarski_view,
)
from crtkit.partitions import Partition
from crtkit.satgadget import (
    CnfFormula,
    assignment_to_system,
    find_satisfying,
    random_3sat_prime,
    reduce_formula,
    satisfies,
    semilattice_bounded_lift,
    system_to_assignment,
    u_embed,
)
from crtkit.systems import (
    brute_force_is_cr_tuple,
    is_cr_pair,
    make_system,
    quotient_reduce,
    solve_system,
)
from crtkit.vectorspace import (
    coset_partitions,
    is_cr_tuple_vs,
    rref,
    vs_instance,
)

from crosses import (
    all_crosses,
    cross_closure,
    cross_contains,
    generates,
    intersect_crosses,
    irreducible_crosses,
)
from helpers import (
    is_3sat_prime,
    random_closed_subpower,
    random_distributive_lattice,
    random_subspace,
    reference_meet_irreducibles,
    set_partitions,
)

PENTAGON = CnfFormula(5, ((1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 1), (5, 1, 2)))


def sample_tuples(rng, parts, max_k, per_k):
    """Random tuples of distinct congruences, per length 1..max_k."""
    out = []
    for k in range(1, max_k + 1):
        if k > len(parts):
            break
        for _ in range(per_k):
            out.append(rng.sample(parts, k))
    return out


def small_distributive_lattice(rng, limit):
    while True:
        alg = random_distributive_lattice(rng, 4, 3)
        if alg.size <= limit:
            return alg


def coordinate_kernel(m, coords):
    """Partition of {0,1}^m by equality on the given coordinates."""
    labels = []
    seen = {}
    for x in range(1 << m):
        key = tuple((x >> c) & 1 for c in coords)
        if key not in seen:
            seen[key] = len(seen)
        labels.append(seen[key])
    return Partition(tuple(labels))


def test_criterion_01_three_chain_counterexample():
    start = time.monotonic()
    chain3 = chain_lattice(3)
    thetas = [Partition((0, 1, 1)), Partition((0, 0, 1))]
    brute = brute_force_is_cr_tuple(thetas)
    assert not brute.is_cr
    assert brute.witness == (0, 2)
    # the witness targets form a compatible yet unsolvable system
    assert solve_system(make_system(thetas, brute.witness)) is None
    nterm = App("join", (App("meet", (Var(0), Var(1))), Var(2)))
    view = make_view(reduct(chain3, {"n": (3, nterm)}, name="chain3n"))
    assert not is_cr_tuple_nearlattice(view, thetas).is_cr
    assert not is_cr_tuple_distlattice(chain3, thetas).is_cr
    assert not is_cr_tuple_dualdisc(chain3, thetas).is_cr
    assert time.monotonic() - start < 1.0


def test_criterion_02_arithmetic_rings_every_small_tuple_cr():
    start = time.monotonic()
    for mod in (12, 30):
        parts = [c.partition for c in all_congruences(zmod_ring(mod))]
        for k in (1, 2, 3):
            for combo in itertools.permutations(parts, k):
                assert brute_force_is_cr_tuple(list(combo)).is_cr
    assert time.monotonic() - start < 10.0


def test_criterion_03_vector_space_oracle_equivalence():
    start = time.monotonic()
    rng = random.Random(303)
    for _ in range(200):
        p = rng.choice([2, 3])
        n = rng.randrange(1, 4)
        k = rng.randrange(1, 5)
        inst = vs_instance(p, n, [random_subspace(rng, p, n) for _ in range(k)])
        want = brute_force_is_cr_tuple(coset_partitions(inst))
        assert is_cr_tuple_vs(inst).is_cr == want.is_cr
    assert time.monotonic() - start < 60.0


def test_criterion_04_nearlattice_oracle_equivalence():
    rng = random.Random(404)
    algebras = []
    for _ in range(120):
        alg, _ = random_closed_subpower(
            rng, two_nearlattice(), rng.randrange(1, 5), rng.randrange(1, 4)
        )
        algebras.append(("nearlattice", alg))
    for _ in range(60):
        algebras.append(("lattice", small_distributive_lattice(rng, 10)))
    for _ in range(40):
        alg, _ = random_closed_subpower(
            rng, two_implication(), rng.randrange(1, 5), rng.randrange(1, 4)
        )
        algebras.append(("tarski", alg))
    assert len(algebras) >= 200
    compared = 0
    for kind, alg in algebras:
        parts = [c.partition for c in all_congruences(alg)]
        if kind == "nearlattice":
            view = make_view(alg)
        elif kind == "lattice":
            view = lattice_view(alg)
        else:
            view = tarski_view(alg)
        for thetas in sample_tuples(rng, parts, 4, 2):
            want = brute_force_is_cr_tuple(thetas).is_cr
            got = is_cr_tuple_nearlattice(view, thetas)
            assert got.is_cr == want
            # the subclass shortcuts agree with the general decider
            if kind == "lattice":
                assert is_cr_tuple_distlattice(alg, thetas).is_cr == want
            elif kind == "tarski":
                assert is_cr_tuple_tarski(alg, thetas).is_cr == want
            compared += 1
    assert compared >= 800


def test_criterion_05_dual_discriminator_oracle_equivalence():
    rng = random.Random(505)
    algebras = []
    for _ in range(140):
        alg, _ = random_closed_subpower(
            rng, two_majority(), rng.randrange(1, 5), rng.randrange(1, 4)
        )
        algebras.append(alg)
    for _ in range(80):
        algebras.append(small_distributive_lattice(rng, 10))
    assert len(algebras) >= 200
    compared = 0
    for alg in algebras:
        parts = [c.partition for c in all_congruences(alg)]
        for thetas in sample_tuples(rng, parts, 4, 2):
            want = brute_force_is_cr_tuple(thetas).is_cr
            assert is_cr_tuple_dualdisc(alg, thetas).is_cr == want
            compared += 1
    assert compared >= 800


def _check_cross_family(shape, crosses, cs, rng):
    """Verify both cross theorems on one family; returns False when the
    intersection misses the projection hypothesis."""
    S = intersect_crosses(shape, cs)
    if not S or not projections_full_or_cross(shape, S):
        return False
    closed = cross_closure(cs)
    # a cross contains the intersection exactly when composition reaches it
    containing = frozenset(
        c for c in crosses if all(cross_contains(c, t) for t in S)
    )
    assert containing == closed
    # a subset generates the family exactly when it keeps every irreducible
    irr = irreducible_crosses(closed)
    members = sorted(closed, key=lambda c: (c.i, c.a, c.j, c.b))
    if len(members) <= 6:
        pool = [
            frozenset(b)
            for r in range(len(members) + 1)
            for b in itertools.combinations(members, r)
        ]
    else:
        pool = [frozenset(irr), closed]
        pool += [frozenset(c for c in members if c != x) for x in members]
        pool += [
            frozenset(rng.sample(members, rng.randrange(len(members) + 1)))
            for _ in range(10)
        ]
    for basis in pool:
        direct = cross_closure(basis) == closed
        assert direct == (irr <= basis)
        assert generates(basis, closed) == direct
    return True


def test_criterion_06_cross_theorems():
    shape = (2, 2, 2)
    crosses = sorted(all_crosses(shape), key=lambda c: (c.i, c.a, c.j, c.b))
    assert len(crosses) == 12
    rng = random.Random(6)
    passing = 0
    for bits in range(1 << len(crosses)):
        cs = frozenset(c for t, c in enumerate(crosses) if (bits >> t) & 1)
        if _check_cross_family(shape, crosses, cs, rng):
            passing += 1
    assert passing == 93

    shape4 = (2, 2, 2, 2)
    crosses4 = sorted(all_crosses(shape4), key=lambda c: (c.i, c.a, c.j, c.b))
    assert len(crosses4) == 24
    # keep the sample stream separate from the pool draws inside the check
    pick = random.Random(2024)
    rng = random.Random(60)
    passing4 = 0
    for _ in range(500):
        cs = frozenset(pick.sample(crosses4, pick.randrange(len(crosses4) + 1)))
        if _check_cross_family(shape4, crosses4, cs, rng):
            passing4 += 1
    assert passing4 == 70


def _representative_systems(inst):
    """(coherent, solvable) for one system per compatible block combination."""
    k, n = inst.k, inst.size
    joins = {
        (i, j): inst.thetas[i].join(inst.thetas[j])
        for i in range(k)
        for j in range(i + 1, k)
    }
    reps = [[min(b) for b in th.blocks()] for th in inst.thetas]
    maskof = [
        [th.block_masks()[th.labels[x]] for x in range(n)] for th in inst.thetas
    ]
    model_block = [
        {r: any(a.domain == i for a in inst.elements[r]) for r in reps[i]}
        for i in range(k)
    ]
    out = []

    def walk(depth, chosen, mask):
        if depth == k:
            coherent = all(model_block[i][chosen[i]] for i in range(k))
            out.append((coherent, mask != 0))
            return
        for r in reps[depth]:
            if all(joins[j, depth].related(chosen[j], r) for j in range(depth)):
                walk(depth + 1, chosen + [r], mask & maskof[depth][r])

    walk(0, [], (1 << n) - 1)
    return out


def test_criterion_07_hardness_reduction_round_trip():
    start = time.monotonic()
    for trial in range(50):
        phi = random_3sat_prime(1000 + trial, 5 + trial % 3, (trial % 2) * 0.5)
        assert is_3sat_prime(phi)
        assert phi.num_vars <= 18
        inst = reduce_formula(phi)
        model = find_satisfying(phi)
        verdict = brute_force_is_cr_tuple(list(inst.thetas))
        assert (model is not None) == (not verdict.is_cr)
        if model is None:
            continue
        # assignment -> unsolvable system -> same assignment
        system = assignment_to_system(inst, model)
        assert solve_system(system) is None
        assert system_to_assignment(inst, system) == model
        # brute-force witness -> satisfying assignment
        witness = make_system(list(inst.thetas), verdict.witness)
        assert satisfies(phi, system_to_assignment(inst, witness))

    # exhaustive coherence sweep on pentagon-scale instances
    for phi in (PENTAGON, random_3sat_prime(7, 5)):
        inst = reduce_formula(phi)
        systems = _representative_systems(inst)
        for coherent, solvable in systems:
            assert coherent == (not solvable)
        models = sum(
            1
            for bits in range(1 << phi.num_vars)
            if satisfies(
                phi,
                {v: (bits >> (v - 1)) & 1 for v in range(1, phi.num_vars + 1)},
            )
        )
        assert sum(1 for coherent, _ in systems if coherent) == models
    assert time.monotonic() - start < 300.0


def test_criterion_08_constructions_preserve_verdicts():
    # involution embedding, over every partition tuple on small ground sets
    for n in (2, 3, 4):
        parts = set_partitions(n)
        constants = range(n) if n <= 3 else (0,)
        for k in (1, 2, 3):
            for combo in itertools.combinations(parts, k):
                want = brute_force_is_cr_tuple(list(combo)).is_cr
                for c in constants:
                    _, doubled = u_embed(n, list(combo), c)
                    assert brute_force_is_cr_tuple(list(doubled)).is_cr == want

    # bounded lift, over every congruence tuple of the small semilattices
    fixtures = [
        two_join_semilattice(),
        FiniteAlgebra(3, [chain_lattice(3).op("join")], name="chain3j"),
        FiniteAlgebra(4, [chain_lattice(4).op("join")], name="chain4j"),
        FiniteAlgebra(
            3, [Operation("join", 2, (0, 2, 2, 2, 1, 2, 2, 2, 2))], name="vee"
        ),
        FiniteAlgebra(
            4,
            [
                Operation(
                    "join",
                    2,
                    tuple(x | y for x in range(4) for y in range(4)),
                )
            ],
            name="diamond",
        ),
        FiniteAlgebra(
            4,
            [
                Operation(
                    "join",
                    2,
                    tuple(
                        x if x == y else 3
                        for x in range(4)
                        for y in range(4)
                    ),
                )
            ],
            name="claw",
        ),
    ]
    for alg in fixtures:
        parts = [c.partition for c in all_congruences(alg)]
        for k in (1, 2, 3):
            for combo in itertools.combinations(parts, k):
                want = brute_force_is_cr_tuple(list(combo)).is_cr
                _, lifted = semilattice_bounded_lift(alg, list(combo))
                assert brute_force_is_cr_tuple(list(lifted)).is_cr == want


def test_criterion_09_meet_irreducibles_match_naive_enumeration():
    rng = random.Random(909)
    fixtures = [chain_lattice(n) for n in range(2, 12)]
    fixtures += [zmod_ring(12), zmod_ring(30)]
    fixtures += [power_algebra(two_lattice(), m) for m in (2, 3)]
    fixtures += [small_distributive_lattice(rng, 12) for _ in range(8)]
    for base in (two_majority(), two_nearlattice()):
        for _ in range(6):
            alg, _ = random_closed_subpower(
                rng, base, rng.randrange(1, 5), rng.randrange(1, 4)
            )
            fixtures.append(alg)
    for alg in fixtures:
        lattice = all_congruences(alg)
        assert len(lattice) <= 2000
        parts = [c.partition for c in lattice]
        naive = {p.labels for p in naive_meet_irreducibles(alg.size, parts)}
        fast = {p.labels for p in meet_irreducible_congruences(alg)}
        assert fast == naive
        assert fast == {p.labels for p in reference_meet_irreducibles(alg.size, parts)}


def test_criterion_10_polynomial_deciders_scale():
    rng = random.Random(1010)

    # eight subspaces of GF(2)^7
    bases = [random_subspace(rng, 2, 7) for _ in range(8)]
    start = time.monotonic()
    inst = vs_instance(2, 7, bases)
    verdict = is_cr_tuple_vs(inst)
    assert time.monotonic() - start < 10.0
    order = list(range(8))
    rng.shuffle(order)
    permuted = vs_instance(2, 7, [bases[i] for i in order])
    assert is_cr_tuple_vs(permuted).is_cr == verdict.is_cr
    rebased = vs_instance(
        2, 7, [rref(np.asarray(b), 2)[0] if len(b) else b for b in bases]
    )
    assert is_cr_tuple_vs(rebased).is_cr == verdict.is_cr

    # Boolean cube 2^7 with eight factor-set kernels
    cube = power_algebra(two_lattice(), 7)
    assert cube.size == 128
    parts = [coordinate_kernel(7, [i]) for i in range(6)]
    parts += [coordinate_kernel(7, [0, 1]), coordinate_kernel(7, [2, 3])]
    start = time.monotonic()
    dl = is_cr_tuple_distlattice(cube, parts)
    assert time.monotonic() - start < 10.0
    start = time.monotonic()
    dd = is_cr_tuple_dualdisc(cube, parts)
    assert time.monotonic() - start < 10.0
    assert dl.is_cr == dd.is_cr

    shuffled = list(parts)
    rng.shuffle(shuffled)
    assert is_cr_tuple_distlattice(cube, shuffled).is_cr == dl.is_cr
    assert is_cr_tuple_dualdisc(cube, shuffled).is_cr == dd.is_cr

    delta, reduced = quotient_reduce(parts)
    assert delta.num_blocks == 64
    qalg, _ = quotient(cube, delta)
    assert is_cr_tuple_distlattice(qalg, reduced).is_cr == dl.is_cr
    assert is_cr_tuple_dualdisc(qalg, reduced).is_cr == dd.is_cr


def test_criterion_11_pair_law_exhaustive():
    for n in range(1, 7):
        parts = set_partitions(n)
        for p in parts:
            for q in parts:
                assert brute_force_is_cr_tuple([p, q]).is_cr == is_cr_pair(p, q)
