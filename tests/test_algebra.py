"""Finite algebras, congruences, and congruence lattices."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    failed_binary_law,
    generated_subuniverse,
    is_arithmetic,
    is_congruence,
    meet_irreducible_congruences,
    naive_meet_irreducibles,
    principal_congruence,
    principal_partition_set,
    quotient,
    reduct,
    subalgebra,
    subdirect_embedding,
    term_str,
    term_variables,
)
from crtkit.catalog import (
    boolean_lattice,
    chain_lattice,
    left_zero_semigroup,
    power_algebra,
    two_lattice,
    two_majority,
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

from helpers import (
    naive_is_congruence,
    reference_is_distributive,
    reference_is_permutable,
    set_partitions,
)


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

    # sets of partitions closed under join and meet: a two-element chain
    # whose least member is not the identity, and Eq(3), which is M3
    short = [Partition([0, 0, 1]), Partition.total(3)]
    assert congruence_lattice_is_distributive(short) and reference_is_distributive(short)
    eq3 = set_partitions(3)
    assert not congruence_lattice_is_distributive(eq3) and not reference_is_distributive(eq3)


CATALOG = {
    **{f"chain{k}": (lambda k=k: chain_lattice(k)) for k in (1, 2, 4, 6)},
    **{f"Z{k}": (lambda k=k: zmod_ring(k)) for k in (2, 6, 12, 30)},
    **{f"LZ{k}": (lambda k=k: left_zero_semigroup(k)) for k in (3, 4, 5)},
    **{
        f"GF{p}^{m}": (lambda p=p, m=m: power_algebra(zmod_group(p), m))
        for p, m in ((2, 2), (2, 3), (3, 2), (5, 2))
    },
    **{f"bool{k}": (lambda k=k: boolean_lattice(k)) for k in (2, 3, 4)},
    **{f"2maj^{m}": (lambda m=m: power_algebra(two_majority(), m)) for m in (2, 3, 4)},
}


def assert_principal_set_matches_pairs(alg):
    principal = principal_partition_set(alg)
    assert len(principal) == len({p.labels for p in principal})
    assert {p.labels for p in principal} == {
        principal_congruence(alg, a, b).partition.labels
        for a in range(alg.size)
        for b in range(a + 1, alg.size)
    }


def assert_lattice_layer_matches_references(alg):
    """Distributivity against the triple loop, permutability against the
    pairwise compositions and the principal congruences against one
    principal_congruence call per pair; returns both verdicts."""
    lattice = [c.partition for c in all_congruences(alg)]
    distributive = congruence_lattice_is_distributive(lattice)
    assert distributive == reference_is_distributive(lattice)
    permutable = congruence_lattice_is_permutable(lattice)
    assert permutable == reference_is_permutable(lattice)
    assert_principal_set_matches_pairs(alg)
    return distributive, permutable


def test_lattice_layer_matches_references_on_catalog():
    verdicts = {
        name: assert_lattice_layer_matches_references(build())
        for name, build in CATALOG.items()
    }
    distributive = {name: d for name, (d, _) in verdicts.items()}
    assert distributive["bool4"] and distributive["Z30"] and distributive["2maj^4"]
    assert not distributive["LZ4"] and not distributive["GF2^3"]
    assert set(distributive.values()) == {True, False}
    permutable = {name: p for name, (_, p) in verdicts.items()}
    assert permutable["Z30"] and permutable["GF3^2"] and permutable["bool3"]
    assert not permutable["chain4"] and not permutable["LZ4"]


@st.composite
def small_algebras(draw):
    n = draw(st.integers(2, 6))
    arities = draw(st.lists(st.integers(1, 2), min_size=1, max_size=2))
    ops = []
    for i, ar in enumerate(arities):
        table = draw(st.lists(st.integers(0, n - 1), min_size=n**ar, max_size=n**ar))
        ops.append(Operation(f"f{i}", ar, tuple(table)))
    return FiniteAlgebra(n, ops, name="drawn")


@settings(max_examples=150, deadline=None)
@given(small_algebras())
def test_lattice_layer_matches_references_on_drawn_algebras(alg):
    assert_lattice_layer_matches_references(alg)


@pytest.mark.parametrize(
    "build",
    [
        lambda: zmod_ring(60),
        lambda: power_algebra(zmod_group(3), 3),
        lambda: power_algebra(two_majority(), 5),
    ],
    ids=["Z60", "GF3^3", "2maj^5"],
)
def test_principal_partition_set_beyond_24_elements(build):
    assert_principal_set_matches_pairs(build())


def test_principal_partition_set_without_operations():
    # no translations: every pair generates its own congruence
    principal = principal_partition_set(FiniteAlgebra(4, []))
    assert len(principal) == 6
    assert all(p.num_blocks == 3 for p in principal)
    assert principal_partition_set(FiniteAlgebra(1, [])) == []


def test_failed_binary_law_reports_the_first_broken_law():
    laws = ("commutative", "associative", "idempotent")
    join = chain_lattice(4).table_array("join")
    assert failed_binary_law(join, laws) is None
    left_zero = left_zero_semigroup(3).table_arrays()[0]
    assert failed_binary_law(left_zero, laws) == "commutative"
    assert failed_binary_law(left_zero, laws[1:]) is None
    add = zmod_group(3).table_array("add")
    assert failed_binary_law(add, laws) == "idempotent"
    sub = Operation("sub", 2, tuple((x - y) % 3 for x in range(3) for y in range(3)))
    minus = FiniteAlgebra(3, [sub]).table_array("sub")
    assert failed_binary_law(minus, laws) == "commutative"
    assert failed_binary_law(minus, laws[::-1]) == "idempotent"
    assert failed_binary_law(minus, laws[1:2]) == "associative"


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
