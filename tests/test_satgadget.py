"""CNF reductions: formulas to congruence tuples and back."""

import itertools
import random
import time
import tracemalloc

import pytest

from crtkit.algebra import FiniteAlgebra, Operation, all_congruences, is_congruence
from crtkit.catalog import boolean_lattice, chain_lattice
from crtkit import satgadget
from crtkit.errors import BudgetExceededError, InputError, PreconditionError
from crtkit.partitions import Partition
from crtkit.satgadget import (
    MAX_EXHAUSTIVE_VARS,
    CnfFormula,
    as_left_zero_semigroup,
    assignment_to_system,
    find_satisfying,
    local_models,
    parse_dimacs,
    random_3sat_prime,
    reduce_formula,
    satisfies,
    semilattice_bounded_lift,
    serialize_dimacs,
    system_to_assignment,
    u_embed,
    validate_3sat_prime,
    varsets,
)
from crtkit.systems import brute_force_is_cr_tuple, make_system, solve_system

from helpers import reference_brute_force_is_cr_tuple, reference_find_satisfying, set_partitions

PENTAGON = CnfFormula(
    5, ((1, 2, 3), (2, 3, 4), (3, 4, 5), (4, 5, 1), (5, 1, 2))
)


def test_formula_records_validate_and_stay_immutable():
    with pytest.raises(InputError, match="literal 0 is reserved as the clause terminator"):
        CnfFormula(5, ((1, 0, 2),))
    with pytest.raises(InputError, match="literal -6 exceeds the declared 5 variables"):
        CnfFormula(5, ((1, 2, -6),))
    with pytest.raises(InputError, match="negative variable count"):
        CnfFormula(-1, ())
    assert CnfFormula(num_vars=5, clauses=PENTAGON.clauses) == PENTAGON
    assert repr(CnfFormula(3, ((1, -2, 3),))) == "CnfFormula(num_vars=3, clauses=((1, -2, 3),))"
    with pytest.raises(AttributeError):
        PENTAGON.num_vars = 6
    models = local_models(PENTAGON, {1, 2, 3})
    # ordered as (domain, values), as the provenance file lists them
    assert sorted(models) == sorted(models, key=lambda m: (m.domain, m.values))
    with pytest.raises(AttributeError):
        models[0].values = (0, 0, 0)


def test_validator_accepts_pentagon():
    assert validate_3sat_prime(PENTAGON) == []
    assert len(varsets(PENTAGON)) == 5


def test_validator_violations():
    # four clauses: too few variable sets and broken pair coverage
    four = CnfFormula(5, PENTAGON.clauses[:4])
    tags = {v.split(":")[0] for v in validate_3sat_prime(four)}
    assert "C2" in tags and "C3" in tags
    # a clause with a repeated variable
    rep = CnfFormula(5, PENTAGON.clauses[:4] + ((1, 1, 2),))
    assert any(v.startswith("C1") for v in validate_3sat_prime(rep))


def test_local_models_counts():
    assert len(local_models(PENTAGON, {1, 2, 3})) == 7
    harder = CnfFormula(5, PENTAGON.clauses + ((-1, -2, -3),))
    assert len(local_models(harder, {1, 2, 3})) == 6


def test_pentagon_reduction_shape():
    inst = reduce_formula(PENTAGON)
    assert inst.k == 5
    assert [len(m) for m in inst.models] == [7] * 5
    singletons = sum(1 for s in inst.elements if len(s) == 1)
    pairs = sum(1 for s in inst.elements if len(s) == 2)
    assert (singletons, pairs) == (35, 190)
    assert inst.size == 225
    assert all(th.n == 225 for th in inst.thetas)


def test_left_zero_wrap():
    inst = reduce_formula(PENTAGON)
    alg, congs = as_left_zero_semigroup(inst)
    assert alg.size == inst.size
    assert [c.partition for c in congs] == list(inst.thetas)
    assert alg.apply("mul", alg.apply("mul", 0, 5), 11) == 0
    assert alg.apply("mul", 0, alg.apply("mul", 5, 11)) == 0
    # every partition is a congruence of a left-zero semigroup, in
    # particular the tuple members
    for th in inst.thetas:
        assert is_congruence(alg, th)


def test_pentagon_coherent_systems_exactly_unsolvable():
    """Representative systems split into coherent (unsolvable) and
    incoherent (solvable), matching the satisfying-assignment count."""
    inst = reduce_formula(PENTAGON)
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
    counts = {"coherent": 0, "incoherent": 0}

    def walk(depth, chosen, mask):
        if depth == k:
            solvable = mask != 0
            coherent = all(model_block[i][chosen[i]] for i in range(k))
            if coherent:
                assert not solvable
                counts["coherent"] += 1
            else:
                assert solvable
                counts["incoherent"] += 1
            return
        for r in reps[depth]:
            if all(joins[j, depth].related(chosen[j], r) for j in range(depth)):
                walk(depth + 1, chosen + [r], mask & maskof[depth][r])

    walk(0, [], (1 << n) - 1)
    assert counts == {"coherent": 21, "incoherent": 225}
    sats = sum(
        1
        for bits in range(32)
        if satisfies(PENTAGON, {v: (bits >> (v - 1)) & 1 for v in range(1, 6)})
    )
    assert sats == 21


def test_assignment_system_round_trip():
    inst = reduce_formula(PENTAGON)
    seen = set()
    for bits in range(32):
        a = {v: (bits >> (v - 1)) & 1 for v in range(1, 6)}
        if not satisfies(PENTAGON, a):
            continue
        system = assignment_to_system(inst, a)
        assert solve_system(system) is None
        assert system_to_assignment(inst, system) == a
        seen.add(system.targets)
    assert len(seen) == 21


def test_pentagon_brute_witness_extracts_assignment():
    inst = reduce_formula(PENTAGON)
    verdict = brute_force_is_cr_tuple(inst.thetas)
    assert not verdict.is_cr
    assert verdict.checked == 9
    system = make_system(inst.thetas, verdict.witness)
    extracted = system_to_assignment(inst, system)
    assert satisfies(PENTAGON, extracted)


def test_random_formulas_sat_iff_not_cr():
    seen_sat = seen_unsat = 0
    for seed in range(8):
        for k_sets, bias in ((5, 0.0), (5, 0.9), (6, 0.5)):
            phi = random_3sat_prime(seed, k_sets, bias)
            assert validate_3sat_prime(phi) == []
            assert random_3sat_prime(seed, k_sets, bias) == phi
            inst = reduce_formula(phi)
            sat = find_satisfying(phi) is not None
            if sat:
                seen_sat += 1
            else:
                seen_unsat += 1
            assert brute_force_is_cr_tuple(inst.thetas).is_cr == (not sat)
    assert seen_sat > 0 and seen_unsat > 0


@pytest.mark.parametrize("k_sets", [5, 6, 7])
@pytest.mark.parametrize("bias", [0.0, 0.5, 1.0])
def test_search_matches_reference_on_reductions(k_sets, bias):
    # seed 2 draws unsatisfiable formulas at 5 and 7 sets (bias 0 and 0.5),
    # so the search runs to the end; seed 1 is left out only for the cost of
    # the reference enumeration on its 7-set draw
    for seed in (0, 2):
        inst = reduce_formula(random_3sat_prime(seed, k_sets, bias))
        _, lifted = u_embed(inst.size, inst.thetas)
        for thetas in (inst.thetas, lifted):
            got = brute_force_is_cr_tuple(thetas)
            want = reference_brute_force_is_cr_tuple(thetas)
            assert (got.is_cr, got.witness) == (want.is_cr, want.witness)


def test_unsat_reductions_at_eleven_sets_fit_the_budget():
    unsat = seed = 0
    while unsat < 3:
        phi = random_3sat_prime(seed, 11, 0.0)
        verdict = brute_force_is_cr_tuple(reduce_formula(phi).thetas)
        assert verdict.is_cr == (find_satisfying(phi) is None)
        if verdict.is_cr:
            assert verdict.checked < 10**5
            unsat += 1
        seed += 1


@pytest.mark.parametrize("k_sets", [5, 6, 7, 8, 9])
@pytest.mark.parametrize("bias", [0.0, 0.5, 1.0])
def test_find_satisfying_matches_the_reference_on_generated_formulas(k_sets, bias):
    for seed in range(100):
        phi = random_3sat_prime(seed, k_sets, bias)
        assert find_satisfying(phi) == reference_find_satisfying(phi), seed


@pytest.mark.parametrize("chunk_vars", [0, 1, 2, 3, None], ids=["0", "1", "2", "3", "default"])
def test_find_satisfying_matches_the_reference_in_every_chunk(monkeypatch, chunk_vars):
    # small chunks fix most variables: their literals are constants there,
    # and the least satisfying assignment lies in any chunk
    if chunk_vars is not None:
        monkeypatch.setattr(satgadget, "_CHUNK_VARS", chunk_vars)
    rng = random.Random(5)
    formulas = [
        CnfFormula(0, ()),
        CnfFormula(0, ((),)),
        CnfFormula(3, ()),
        CnfFormula(3, ((1, -2), (), (3,))),
        CnfFormula(2, ((1,), (-1,))),
        CnfFormula(4, ((4, -4), (-4,))),
    ]
    for _ in range(400):
        n = rng.randint(0, 8)
        clauses = tuple(
            tuple(rng.choice((1, -1)) * rng.randint(1, n) for _ in range(rng.randint(1, 4) if n else 0))
            for _ in range(rng.randint(0, 12))
        )
        formulas.append(CnfFormula(n, clauses))
    for phi in formulas:
        assert find_satisfying(phi) == reference_find_satisfying(phi), phi


def test_find_satisfying_refuses_more_variables_than_the_bound():
    n = MAX_EXHAUSTIVE_VARS + 1
    phi = CnfFormula(n, tuple((v,) for v in range(1, n + 1)))
    with pytest.raises(
        PreconditionError,
        match=f"^{n} variables exceed the exhaustive-search bound of {MAX_EXHAUSTIVE_VARS}$",
    ):
        find_satisfying(phi)


def test_find_satisfying_decides_an_unsatisfiable_formula_at_the_bound():
    # this draw is unsatisfiable, so every chunk of 2 ** 20 assignments is
    # tested; the per-assignment loop took over two minutes to agree
    phi = random_3sat_prime(0, MAX_EXHAUSTIVE_VARS, 0.0)
    assert len(phi.variables()) == MAX_EXHAUSTIVE_VARS
    start = time.perf_counter()
    assert find_satisfying(phi) is None
    assert time.perf_counter() - start <= 0.5
    tracemalloc.start()
    try:
        find_satisfying(phi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 << 20


# (is_cr, witness, checked) of the brute search on the reductions of the
# benchmark's draws, plain and through u_embed, as recorded when the search
# still kept one domain list per coordinate and joined every pair
FROZEN_BRUTE_VERDICTS = {
    (3, 9, 0.0): ((True, None, 6443), (True, None, 12886)),
    (5, 9, 0.0): ((True, None, 8397), (True, None, 16794)),
    (8, 9, 0.0): ((True, None, 12357), (True, None, 24714)),
    (0, 5, 1.0): ((False, (0, 1, 3, 6, 8), 9),) * 2,
    (0, 6, 1.0): ((False, (20, 12, 13, 26, 28, 9), 134),) * 2,
    (0, 7, 1.0): ((False, (11, 1, 4, 16, 21, 22, 25), 100),) * 2,
}


def test_brute_search_verdicts_on_the_benchmark_draws_are_frozen(monkeypatch):
    # the first three unsatisfiable draws at nine sets, and the satisfiable
    # ones at five to seven
    unsat = [s for s in range(9) if find_satisfying(random_3sat_prime(s, 9, 0.0)) is None]
    assert unsat == [3, 5, 8]
    for (seed, k_sets, bias), want in FROZEN_BRUTE_VERDICTS.items():
        inst = reduce_formula(random_3sat_prime(seed, k_sets, bias))
        _, lifted = u_embed(inst.size, inst.thetas)
        got = tuple(tuple(brute_force_is_cr_tuple(thetas)) for thetas in (inst.thetas, lifted))
        assert got == want, (seed, k_sets, bias)
    # a budget of one node less runs out at the last node
    inst = reduce_formula(random_3sat_prime(3, 9, 0.0))
    monkeypatch.setenv("CRTKIT_BUDGET", "6442")
    with pytest.raises(BudgetExceededError) as info:
        brute_force_is_cr_tuple(inst.thetas)
    assert (info.value.checked, info.value.budget) == (6442, 6442)


def test_u_embed_example():
    alg, (lifted,) = u_embed(3, [Partition([0, 1, 1])])
    assert alg.size == 6
    assert lifted.labels == (0, 1, 1, 2, 3, 3)
    for x in range(6):
        assert alg.apply("neg", alg.apply("neg", x)) == x
    assert alg.apply("zero") == 0
    assert alg.apply("one") == 3
    assert is_congruence(alg, lifted)


def test_u_embed_preserves_verdicts_sampled():
    parts = set_partitions(3)
    for tup in itertools.product(parts, repeat=2):
        before = brute_force_is_cr_tuple(tup).is_cr
        for c in range(3):
            emb, lifted = u_embed(3, tup, c=c)
            assert all(is_congruence(emb, t) for t in lifted)
            assert brute_force_is_cr_tuple(lifted).is_cr == before


def test_bounded_lift_example():
    two_chain = FiniteAlgebra(
        2, [Operation("join", 2, (0, 1, 1, 1))], name="2sl"
    )
    b, (lifted,) = semilattice_bounded_lift(two_chain, [Partition([0, 1])])
    assert b.size == 3
    assert b.apply("zero") == 2
    assert b.apply("one") == 1
    assert b.apply("join", 2, 0) == 0
    assert b.apply("join", 2, 1) == 1
    assert lifted.labels == (0, 1, 2)


def test_embeddings_refuse_members_that_are_no_partitions():
    two_chain = FiniteAlgebra(2, [Operation("join", 2, (0, 1, 1, 1))], name="2sl")
    with pytest.raises(InputError, match="expected a Partition or Congruence, got list"):
        u_embed(3, [[0, 0, 1]])
    with pytest.raises(InputError, match="expected a Partition or Congruence, got list"):
        semilattice_bounded_lift(two_chain, [[0, 1]])
    with pytest.raises(InputError, match="tuple member 1 is a partition of 2 elements, expected 3"):
        u_embed(3, [Partition([0, 1])])


def test_bounded_lift_needs_exactly_one_binary_operation():
    with pytest.raises(InputError, match="^expected exactly one binary operation, found 2$"):
        semilattice_bounded_lift(chain_lattice(3), [Partition([0, 1, 2])])


def test_bounded_lift_preserves_verdicts():
    def join_reduct(lat):
        return FiniteAlgebra(lat.size, [lat.op("join")], name=lat.name + "j")

    vee = FiniteAlgebra(
        3, [Operation("join", 2, (0, 2, 2, 2, 1, 2, 2, 2, 2))], name="vee"
    )
    for fixture in (join_reduct(chain_lattice(3)), vee):
        congs = [c.partition for c in all_congruences(fixture)]
        for tup in itertools.product(congs, repeat=2):
            before = brute_force_is_cr_tuple(tup).is_cr
            lifted_alg, lifted = semilattice_bounded_lift(fixture, tup)
            assert all(is_congruence(lifted_alg, t) for t in lifted)
            assert all(
                t.num_blocks == o.num_blocks + 1 for t, o in zip(lifted, tup)
            )
            assert brute_force_is_cr_tuple(lifted).is_cr == before


def test_dimacs_round_trip():
    text = serialize_dimacs(PENTAGON)
    assert parse_dimacs(text) == PENTAGON
    assert parse_dimacs("c a comment line\n" + text) == PENTAGON
    with pytest.raises(InputError):
        parse_dimacs("p cnf x 3\n1 2 3 0\n")
    with pytest.raises(InputError):
        parse_dimacs("1 2 3 0\n")