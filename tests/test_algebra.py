"""Finite algebras, congruences, and congruence lattices."""

import itertools

import pytest

from crtkit.algebra import (
    App,
    FiniteAlgebra,
    Operation,
    Var,
    all_congruences,
    as_partition,
    congruence,
    congruence_lattice_is_distributive,
    congruence_lattice_is_permutable,
    congruence_violation,
    eval_term,
    generated_subuniverse,
    is_arithmetic,
    is_congruence,
    meet_irreducible_congruences,
    naive_meet_irreducibles,
    principal_congruence,
    quotient,
    reduct,
    subalgebra,
    subdirect_embedding,
    term_str,
    term_variables,
)
from crtkit.catalog import (
    chain_lattice,
    power_algebra,
    two_lattice,
    zmod_group,
    zmod_ring,
)
from crtkit.errors import (
    BudgetExceededError,
    InputError,
    PreconditionError,
    StructureError,
)
from crtkit.partitions import Partition

from helpers import naive_is_congruence, set_partitions


def naive_all_congruences(alg):
    return [p for p in set_partitions(alg.size) if naive_is_congruence(alg, p)]


def test_constructor_validations():
    with pytest.raises(InputError):
        FiniteAlgebra(0, [])
    with pytest.raises(InputError):
        FiniteAlgebra(2, [Operation("f", 1, (0,))])  # short table
    with pytest.raises(InputError):
        FiniteAlgebra(2, [Operation("f", 1, (0, 2))])  # value out of range
    with pytest.raises(InputError):
        FiniteAlgebra(2, [Operation("f", 1, (0, 1)), Operation("f", 1, (1, 0))])


def test_apply_row_major():
    # table index is row-major with the first argument most significant
    f = Operation("f", 2, (0, 1, 2, 0, 1, 2, 0, 1, 2))
    alg = FiniteAlgebra(3, [f])
    for x in range(3):
        for y in range(3):
            assert alg.apply("f", x, y) == y
    with pytest.raises(InputError):
        alg.apply("f", 0)
    with pytest.raises(InputError):
        alg.apply("g", 0, 0)


def test_translations_of_z4():
    alg = zmod_group(4)
    # x+c and c+x coincide; negation contributes one more map
    got = set(alg.translations())
    expected = {tuple((x + c) % 4 for x in range(4)) for c in range(4)}
    expected.add(tuple((-x) % 4 for x in range(4)))
    assert got == expected


def test_terms():
    alg = two_lattice()
    t = App("meet", (App("join", (Var(1), Var(2))), App("join", (Var(0), Var(2)))))
    assert term_str(t) == "(meet (join x2 x3) (join x1 x3))"
    assert term_variables(t) == {0, 1, 2}
    for args in itertools.product(range(2), repeat=3):
        x, y, z = args
        assert eval_term(alg, t, args) == (y | z) & (x | z)
    with pytest.raises(InputError):
        eval_term(alg, Var(3), (0, 1))
    with pytest.raises(InputError):
        eval_term(alg, App("meet", (Var(0),)), (0, 1))


def test_is_congruence_matches_naive():
    for alg in (chain_lattice(4), zmod_ring(4), zmod_group(4)):
        for p in set_partitions(alg.size):
            assert is_congruence(alg, p) == naive_is_congruence(alg, p)


def test_congruence_violation_evidence():
    alg = chain_lattice(3)
    bad = Partition([0, 1, 0])  # relates bottom and top but not the middle
    report = congruence_violation(alg, bad)
    assert report is not None
    op_name, pos, args, repl = report
    # replaying the reported violation must indeed separate the images
    args_b = list(args)
    args_b[pos] = repl
    assert bad.related(args[pos], repl)
    assert not bad.related(alg.apply(op_name, *args), alg.apply(op_name, *args_b))
    assert congruence_violation(alg, Partition([0, 0, 1])) is None


def test_congruence_wrapper():
    alg = chain_lattice(3)
    c = congruence(alg, Partition([0, 0, 1]))
    assert c.algebra is alg and c.labels == (0, 0, 1)
    assert as_partition(c) == Partition([0, 0, 1])
    assert as_partition(Partition([0, 1])) == Partition([0, 1])
    with pytest.raises(StructureError):
        congruence(alg, Partition([0, 1, 0]))
    with pytest.raises(InputError):
        as_partition("0 0 1")


def test_principal_congruence_is_least():
    for alg in (chain_lattice(4), zmod_ring(6), power_algebra(zmod_group(2), 2)):
        lattice = naive_all_congruences(alg)
        for a in range(alg.size):
            for b in range(a + 1, alg.size):
                least = Partition.total(alg.size)
                for p in lattice:
                    if p.related(a, b):
                        least = least.meet(p)
                assert principal_congruence(alg, a, b).partition == least


def test_all_congruences_matches_enumeration():
    for alg in (
        chain_lattice(3),
        chain_lattice(4),
        zmod_ring(4),
        zmod_ring(6),
        zmod_group(6),
        power_algebra(zmod_group(2), 2),
        two_lattice(),
    ):
        got = sorted(c.partition.labels for c in all_congruences(alg))
        expected = sorted(p.labels for p in naive_all_congruences(alg))
        assert got == expected, alg.name


def test_all_congruences_budget():
    with pytest.raises(BudgetExceededError):
        all_congruences(zmod_ring(12), budget=3)


def test_naive_meet_irreducibles_definition():
    # chain D: 0 < a,b < 1 has the four-element boolean congruence lattice
    alg = power_algebra(zmod_group(2), 2)
    lattice = [c.partition for c in all_congruences(alg)]
    mi = naive_meet_irreducibles(alg.size, lattice)
    for theta in mi:
        above = [d for d in lattice if theta.refines(d) and d != theta]
        m = Partition.total(alg.size)
        for d in above:
            m = m.meet(d)
        assert m != theta
    # everything not in the list is a meet of strictly coarser members
    for theta in lattice:
        if theta in mi:
            continue
        above = [d for d in lattice if theta.refines(d) and d != theta]
        m = Partition.total(alg.size)
        for d in above:
            m = m.meet(d)
        assert m == theta


def test_meet_irreducibles_fast_path_verified():
    for alg in (chain_lattice(5), zmod_ring(12), zmod_ring(30)):
        fast = meet_irreducible_congruences(alg, verify=True)
        lattice = [c.partition for c in all_congruences(alg)]
        naive = naive_meet_irreducibles(alg.size, lattice)
        assert [c.partition for c in fast] == naive


def test_quotient_of_z12_mod3():
    alg = zmod_ring(12)
    delta = Partition([x % 3 for x in range(12)])
    q, labels = quotient(alg, delta)
    assert q.size == 3
    assert labels == tuple(x % 3 for x in range(12))
    for x in range(3):
        for y in range(3):
            assert q.apply("add", x, y) == (x + y) % 3
            assert q.apply("mul", x, y) == (x * y) % 3
    with pytest.raises(StructureError):
        quotient(alg, Partition([x % 5 for x in range(12)]))


def test_subdirect_embedding_z12():
    alg = zmod_ring(12)
    k1 = Partition([x % 3 for x in range(12)])
    k2 = Partition([x % 4 for x in range(12)])
    rep = subdirect_embedding(alg, [k1, k2])
    assert rep.factor_sizes == (3, 4)
    assert rep.irredundant
    assert len(set(rep.coords)) == 12
    for e in range(12):
        assert rep.coords[e] == (e % 3, e % 4)
    with pytest.raises(PreconditionError):
        subdirect_embedding(alg, [k1, Partition([x % 6 for x in range(12)])])


def test_reduct():
    alg = zmod_ring(4)
    r = reduct(alg, {"double": (1, App("add", (Var(0), Var(0))))})
    assert r.size == 4
    assert r.op("double").table == tuple((2 * x) % 4 for x in range(4))


def test_congruence_lattice_predicates():
    chain = chain_lattice(3)
    lat = [c.partition for c in all_congruences(chain)]
    assert congruence_lattice_is_distributive(lat)
    assert not congruence_lattice_is_permutable(lat)

    z12 = [c.partition for c in all_congruences(zmod_ring(12))]
    assert congruence_lattice_is_distributive(z12)
    assert congruence_lattice_is_permutable(z12)
    assert is_arithmetic(zmod_ring(12))

    klein = [c.partition for c in all_congruences(power_algebra(zmod_group(2), 2))]
    assert not congruence_lattice_is_distributive(klein)
    assert congruence_lattice_is_permutable(klein)
    assert not is_arithmetic(power_algebra(zmod_group(2), 2))
    assert not is_arithmetic(chain)


def test_generated_subuniverse_and_subalgebra():
    alg = zmod_group(8)
    assert generated_subuniverse(alg, [2]) == [0, 2, 4, 6]
    sub, index = subalgebra(alg, [0, 2, 4, 6])
    assert sub.size == 4
    assert index[2] == 1
    # the embedded copy is Z4 under the inherited addition
    for x in range(4):
        for y in range(4):
            assert sub.apply("add", x, y) == (x + y) % 4
    with pytest.raises(PreconditionError):
        subalgebra(alg, [0, 2, 3])  # not closed: 2+2 = 4
