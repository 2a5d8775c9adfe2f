"""Finite algebras, congruences, and congruence lattices."""

import array
import itertools
import pickle
import random
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtkit.algebra import (
    App,
    Congruence,
    FiniteAlgebra,
    Operation,
    Var,
    MAX_TABLE_ENTRIES,
    all_congruences,
    as_partition,
    certify,
    congruence,
    congruence_lattice_is_distributive,
    congruence_lattice_is_permutable,
    congruence_violation,
    eval_term,
    eval_term_grid,
    failed_binary_law,
    is_arithmetic,
    is_congruence,
    meet_irreducible_congruences,
    naive_meet_irreducibles,
    principal_congruence,
    principal_partition_set,
    quotient,
    reduct,
    subalgebra,
    table_dtype,
    term_str,
    term_table,
)
import crtkit.algebra
from crtkit.conlat import _sorted_unique, _translations
from crtkit.catalog import (
    boolean_lattice,
    chain_lattice,
    diamond_m3,
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
from crtkit.formats import parse_algebra, serialize_algebra
from crtkit.partitions import Partition

from helpers import (
    generated_subuniverse,
    naive_is_congruence,
    reference_apply,
    reference_associative,
    reference_is_distributive,
    reference_is_permutable,
    reference_quotient_tables,
    reference_subalgebra,
    reference_term_table,
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


@pytest.mark.parametrize("seed", range(4))
def test_apply_reads_the_row_major_entry_of_random_tables(seed):
    # sizes 1-7, arities 0-4: random tables, so f(x, y) and f(y, x) differ
    # and a fold of the arguments in the wrong order reads the wrong entry
    rng = random.Random(seed)
    for n in range(1, 8):
        ops = [
            Operation(f"f{arity}", arity, [rng.randrange(n) for _ in range(n**arity)])
            for arity in range(5)
        ]
        alg = FiniteAlgebra(n, ops)
        for op in alg.ops:
            for args in itertools.product(range(n), repeat=op.arity):
                assert alg.apply(op.name, *args) == reference_apply(op, n, args), (n, args)


@pytest.mark.parametrize(
    "name,args",
    [
        ("meet", (0, 5)),
        ("meet", (-1, 2)),
        ("meet", (5, 5)),
        ("meet", (0, 3)),
        ("meet", (3, 0)),
        ("meet", (1.0, 2)),
        ("meet", (0, 2.5)),
        ("meet", ("1", 0)),
        ("meet", (np.int64(1), 0)),
        ("meet", (0,)),
        ("meet", (0, 1, 2)),
        ("add", (0, 1)),
    ],
    ids=[
        "past-size", "negative", "both-past-size", "equal-to-size-last",
        "equal-to-size-first", "float", "float-last", "str", "numpy-int",
        "too-few", "too-many", "unknown-name",
    ],
)
def test_apply_refuses_what_is_not_an_entry(name, args):
    # each used to return some other entry or raise a bare IndexError
    with pytest.raises(InputError):
        chain_lattice(3).apply(name, *args)


def test_translations_of_z4():
    alg = zmod_group(4)
    # x+c and c+x coincide; negation contributes one more map
    got = {tuple(row) for row in _translations(alg).tolist()}
    expected = {tuple((x + c) % 4 for x in range(4)) for c in range(4)}
    expected.add(tuple((-x) % 4 for x in range(4)))
    assert got == expected


def test_terms():
    alg = two_lattice()
    t = App("meet", (App("join", (Var(1), Var(2))), App("join", (Var(0), Var(2)))))
    assert term_str(t) == "(meet (join x2 x3) (join x1 x3))"
    for args in itertools.product(range(2), repeat=3):
        x, y, z = args
        assert eval_term(alg, t, args) == (y | z) & (x | z)
    with pytest.raises(InputError):
        eval_term(alg, Var(3), (0, 1))
    with pytest.raises(InputError):
        eval_term(alg, App("meet", (Var(0),)), (0, 1))
    # terms are no tuples: postlattice's witness search tells a recipe from a
    # term by isinstance(recipe, tuple)
    assert Var(0) != (0,) and not isinstance(Var(0), tuple) and not isinstance(t, tuple)
    with pytest.raises(AttributeError):
        t.op = "join"


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
    assert repr(c) == f"Congruence({alg.name!r}, [0, 0, 1])"
    with pytest.raises(AttributeError):
        c.partition = Partition([0, 1, 2])


def test_certify_names_the_member_and_trusts_only_its_own_algebra(monkeypatch):
    alg, other = chain_lattice(3), chain_lattice(3)
    good, bad = Partition([0, 0, 1]), Partition([0, 1, 0])
    with pytest.raises(
        StructureError,
        match=r"^broken is not a congruence of chain3: meet at arguments 0 1 "
        r"separates the related pair 0 2 \(position 1\)$",
    ):
        certify(alg, iter([good, bad]), names=["fine", "broken"])
    with pytest.raises(StructureError, match="^the partition is not a congruence of chain3: "):
        congruence(alg, bad)
    congs = certify(alg, (c for c in [good, Partition([0, 1, 1])]))
    assert [(c.algebra, c.labels) for c in congs] == [(alg, (0, 0, 1)), (alg, (0, 1, 1))]
    # a Congruence of another algebra is certified again, and refused
    # where it is no congruence
    assert certify(other, [Congruence(alg, good)])[0].algebra is other
    with pytest.raises(StructureError, match="^tuple member 1 is not a congruence of M3: "):
        certify(diamond_m3(), [Congruence(chain_lattice(5), Partition([0, 0, 1, 2, 2]))])
    # a Congruence of the same algebra object is taken as it is
    calls = []
    monkeypatch.setattr(crtkit.algebra, "congruence_violation", lambda *a: calls.append(a))
    assert certify(alg, congs) == congs and calls == []
    certify(other, congs)
    assert len(calls) == 2


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


@pytest.mark.parametrize("a", [0.5, "a", -1, 3], ids=["float", "str", "negative", "too-large"])
def test_principal_congruence_refuses_an_element_outside_the_universe(a):
    # 0.5 leaked "list indices must be integers", "a" leaked "'<=' not supported"
    with pytest.raises(InputError, match=f"^elements \\({a!r},1\\) outside the universe$"):
        principal_congruence(chain_lattice(3), a, 1)


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


def test_all_congruences_budget(monkeypatch):
    monkeypatch.setenv("CRTKIT_BUDGET", "3")
    with pytest.raises(BudgetExceededError) as info:
        all_congruences(zmod_ring(12))
    assert info.value.budget == 3


def test_an_algebra_of_projections_is_refused_by_its_bell_number(monkeypatch):
    # every partition of a left-zero semigroup is a congruence: LZ12 has
    # 4213597, and the lattice is refused before any is enumerated
    monkeypatch.delenv("CRTKIT_BUDGET", raising=False)
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError) as info:
        all_congruences(left_zero_semigroup(12))
    assert time.perf_counter() - start < 1
    assert str(info.value) == "congruence lattice of LZ12 exceeds 100000 members"
    assert (info.value.checked, info.value.budget) == (100001, 100000)
    assert len(all_congruences(left_zero_semigroup(6))) == 203


def test_the_bell_number_refusal_reads_the_budget(monkeypatch):
    monkeypatch.setenv("CRTKIT_BUDGET", "10")
    with pytest.raises(BudgetExceededError):
        all_congruences(left_zero_semigroup(4))  # Bell number 15
    assert len(all_congruences(left_zero_semigroup(3))) == 5  # Bell number 5


@pytest.mark.parametrize(
    "call",
    [
        lambda: naive_meet_irreducibles(3, 5),
        lambda: congruence_lattice_is_distributive(5),
        lambda: congruence_lattice_is_permutable(5),
    ],
    ids=["naive-meet-irreducibles", "distributive", "permutable"],
)
def test_lattice_predicates_refuse_a_lattice_that_is_not_iterable(call):
    # each leaked "'int' object is not iterable"
    with pytest.raises(InputError, match="^expected lattice to be a list of partitions, got 5$"):
        call()


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
        fast = meet_irreducible_congruences(alg)
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


def test_reduct():
    alg = zmod_ring(4)
    r = reduct(alg, {"double": (1, App("add", (Var(0), Var(0))))})
    assert r.size == 4
    assert tuple(r.op("double").table) == tuple((2 * x) % 4 for x in range(4))


@pytest.mark.parametrize(
    "interp, message",
    [
        (5, r"^expected a mapping of symbols to \(arity, term\), got 5$"),
        ({"t": 5}, r"^symbol 't' is not given as \(arity, term\)$"),
        ({"t": ("2", Var(0))}, "^symbol 't': a term table has arity at least 1, got '2'$"),
        ({"t": (2, "x1")}, "^symbol 't': not a term node: 'x1'$"),
        ({"t": (2, Var(2))}, "^symbol 't': term uses x3 but got 2 arguments$"),
        (
            {"c": (0, App("meet", (Var(0), Var(1))))},
            "^symbol 'c': term uses x2 but got 1 arguments$",
        ),
    ],
    ids=["not-a-mapping", "not-a-pair", "arity-not-int", "not-a-term", "past-arity", "constant"],
)
def test_reduct_refuses_an_interpretation_naming_the_symbol(interp, message):
    # the first four leaked AttributeError, TypeError, TypeError and AttributeError
    with pytest.raises(InputError, match=message):
        reduct(chain_lattice(3), interp)


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


def test_principal_partition_set_refuses_a_graph_over_the_edge_bound(monkeypatch):
    # Z60 has 1770 pairs and 119 distinct translations
    monkeypatch.setattr(crtkit.algebra, "MAX_PRINCIPAL_EDGES", 1770 * 119 - 1)
    with pytest.raises(InputError, match="1770 pairs x 119 translations = 210630 edges"):
        principal_partition_set(zmod_ring(60))
    monkeypatch.setattr(crtkit.algebra, "MAX_PRINCIPAL_EDGES", 1770 * 119)
    assert len(principal_partition_set(zmod_ring(60))) == 11


def test_principal_partition_set_without_operations():
    # no translations: every pair generates its own congruence
    principal = principal_partition_set(FiniteAlgebra(4, []))
    assert len(principal) == 6
    assert all(p.num_blocks == 3 for p in principal)
    assert principal_partition_set(FiniteAlgebra(1, [])) == []


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.int64])
def test_distinct_rows_come_in_the_order_of_numpy_unique(dtype):
    # principal_partition_set dedups its translations by a lexsort, since
    # np.unique(axis=0) imports numpy.ma; the order must stay the same
    rng = np.random.default_rng(7)
    for rows, cols, high in ((0, 3, 2), (1, 4, 3), (60, 3, 2), (300, 5, 4), (400, 2, 200)):
        table = rng.integers(0, high, size=(rows, cols)).astype(dtype)
        got = _sorted_unique(table)
        assert got.dtype == table.dtype
        assert np.array_equal(got, np.unique(table, axis=0))
    keys = rng.integers(0, 50, size=500)
    assert np.array_equal(_sorted_unique(keys), np.unique(keys))


def test_failed_binary_law_reports_the_first_broken_law():
    laws = ("commutative", "associative", "idempotent")
    join = chain_lattice(4).table_array("join")
    assert failed_binary_law(join, laws) is None
    left_zero = left_zero_semigroup(3).table_array("mul")
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
    escape = r"^coordinate tuples not closed: add\(\(2,\), \(2,\)\) = \(4,\) falls outside$"
    with pytest.raises(InputError, match=escape):
        subalgebra(alg, [0, 2, 3])  # not closed: 2+2 = 4


def test_subalgebra_matches_the_reference_on_every_subset_of_z8():
    alg = zmod_group(8)
    for k in range(1, 9):
        for subset in itertools.combinations(range(8), k):
            try:
                ref, want = reference_subalgebra(alg, subset)
            except PreconditionError:
                with pytest.raises(InputError, match="^coordinate tuples not closed: "):
                    subalgebra(alg, subset)
                continue
            sub, index = subalgebra(alg, subset)
            assert (sub.size, sub.name, sub.ops, index) == (ref.size, ref.name, ref.ops, want)


@pytest.mark.parametrize(
    "universe, message",
    [
        (5, "^expected a collection of elements, got 5$"),
        ([0, "a"], "^element 'a' is not an int in 0..7$"),
        ([0, 2.0], "^element 2.0 is not an int in 0..7$"),
        ([0, 8], "^element 8 is not an int in 0..7$"),
        ([], "^empty coordinate list$"),
    ],
    ids=["int", "str", "float", "outside", "empty"],
)
def test_subalgebra_refuses_a_universe_that_is_not_a_set_of_elements(universe, message):
    # 5 and [0, "a"] leaked TypeError
    with pytest.raises(InputError, match=message):
        subalgebra(zmod_group(8), universe)


def _planted_left_zero(n, a):
    """x * y = x, except a * 0 = 0 for a > 0: with n >= 3 the products
    (a y) 0 = 0 and a (y 0) = a differ for every y outside {0, a}, and every
    triple with first argument x != a still associates."""
    T = np.repeat(np.arange(n), n).reshape(n, n)
    T[a, 0] = 0
    return T


@pytest.mark.parametrize("n", [1, 2, 3, 255, 256, 257])
def test_associativity_blocks_match_the_cubic_expression(n):
    rng = np.random.default_rng(n)
    dtype = table_dtype(n)
    tables = [rng.integers(0, n, size=(n, n)) for _ in range(3)]
    idx = np.arange(n)
    tables += [
        np.maximum.outer(idx, idx),
        np.add.outer(idx, idx) % n,
        np.repeat(idx, n).reshape(n, n),
    ]
    if n >= 3:
        # the one failing first argument, n - 1, lies in the last block
        planted = _planted_left_zero(n, n - 1)
        assert not reference_associative(planted.astype(dtype))
        tables.append(planted)
    for T in tables:
        want = reference_associative(T.astype(dtype))
        assert failed_binary_law(T, ("associative",)) == (None if want else "associative")


@pytest.mark.parametrize("block", [1, 4, 9, 10])
def test_associativity_blocks_of_every_size_agree(monkeypatch, block):
    # a block holds max(1, block // n^2) first arguments, so small blocks
    # walk small tables in one, two or many blocks
    monkeypatch.setattr(crtkit.algebra, "_BLOCK", block)
    for T in itertools.product(range(2), repeat=4):
        T = np.array(T).reshape(2, 2)
        want = reference_associative(T)
        assert (failed_binary_law(T, ("associative",)) is None) == want, T
    rng = np.random.default_rng(block)
    for n in (3, 4, 5):
        for a in range(1, n):
            assert failed_binary_law(_planted_left_zero(n, a), ("associative",)) == "associative"
        for _ in range(50):
            T = rng.integers(0, n, size=(n, n))
            want = reference_associative(T)
            assert (failed_binary_law(T, ("associative",)) is None) == want, T


def _random_term(rng, alg, depth, arity):
    if depth == 0 or rng.random() < 0.3:
        return Var(rng.randrange(arity))
    op = rng.choice(alg.ops)
    return App(op.name, tuple(_random_term(rng, alg, depth - 1, arity) for _ in range(op.arity)))


@pytest.mark.parametrize(
    "build",
    [lambda: zmod_ring(6), lambda: power_algebra(two_majority(), 2), lambda: chain_lattice(4)],
    ids=["Z6", "2maj^2", "chain4"],
)
def test_term_table_matches_eval_term(build):
    alg = build()
    rng = random.Random(alg.name)
    for _ in range(40):
        arity = rng.randint(1, 3)
        term = _random_term(rng, alg, 3, arity)
        table = term_table(alg, term, arity)
        assert table.shape == (alg.size,) * arity and table.dtype == table_dtype(alg.size)
        assert tuple(table.ravel().tolist()) == reference_term_table(alg, term, arity), term_str(term)
        sym = reduct(alg, {"t": (arity, term)}).op("t")
        assert tuple(sym.table) == reference_term_table(alg, term, arity)


def test_term_grids_broadcast_and_refuse_as_eval_term_does():
    alg = zmod_ring(5)
    add = App("add", (Var(0), App("mul", (Var(1), Var(2)))))
    got = eval_term_grid(alg, add, (np.arange(5)[:, None], np.arange(5)[None, :], 3))
    assert got.tolist() == [[(x + 3 * y) % 5 for y in range(5)] for x in range(5)]
    # a constant term is a scalar, and a grid a term skips is never read
    assert int(eval_term_grid(alg, App("zero"), ())) == 0
    assert eval_term_grid(alg, Var(1), (None, np.arange(5))).tolist() == list(range(5))
    for bad in (Var(3), App("add", (Var(0),)), "x1"):
        with pytest.raises(InputError) as grid_error:
            eval_term_grid(alg, bad, (0, 1, 2))
        with pytest.raises(InputError) as point_error:
            eval_term(alg, bad, (0, 1, 2))
        # a non-term leaked AttributeError from naming it in term_table's size check
        with pytest.raises(InputError) as table_error:
            term_table(alg, bad, 3)
        assert str(grid_error.value) == str(point_error.value) == str(table_error.value)


@pytest.mark.parametrize("x", [[-1, 0, 2], [0, 3, 1]], ids=["negative", "too large"])
def test_term_grids_refuse_values_outside_the_universe(x):
    # a negative index once wrapped silently and a large one leaked numpy's
    # IndexError; eval_term refuses the same points
    alg = chain_lattice(3)
    meet = App("meet", (Var(0), Var(1)))
    bad = min(x) if min(x) < 0 else max(x)
    with pytest.raises(InputError, match=f"^argument {bad} outside the universe$"):
        eval_term_grid(alg, meet, (np.array(x), 1))
    with pytest.raises(InputError, match=f"^argument {bad} outside the universe$"):
        eval_term(alg, meet, (bad, 1))
    with pytest.raises(InputError, match=f"^argument {bad} outside the universe$"):
        eval_term_grid(alg, meet, (1, np.array(x)))
    with pytest.raises(InputError, match="^grid of float64 values, expected elements$"):
        eval_term_grid(alg, meet, (np.array([0.0, 1.0]), 1))


def test_tables_over_the_entry_bound_are_refused_before_tabulation():
    alg = chain_lattice(257)
    term = App("join", (App("meet", (Var(0), Var(1))), Var(2)))
    assert 257**3 > MAX_TABLE_ENTRIES
    with pytest.raises(InputError, match=r"257\^3 = 16974593 entries, more than the 16777216"):
        reduct(alg, {"n": (3, term)})
    with pytest.raises(InputError, match=r"m on 2maj\^9 needs a table of 512\^3"):
        power_algebra(two_majority(), 9)
    assert term_table(alg, term.args[0], 2).shape == (257, 257)


def test_huge_counts_are_refused_without_printing_them():
    # each message once printed a number past Python's 4300-digit limit
    with pytest.raises(InputError, match="^size of 158497 bits is too large"):
        FiniteAlgebra(3 ** (10**5), [])
    with pytest.raises(InputError, match=r"3\^1000000 = at least 2\^1000000 entries"):
        term_table(chain_lattice(3), Var(0), 10**6)
    with pytest.raises(InputError, match=r"^chain3\^1000000 has 3\^1000000 elements"):
        power_algebra(chain_lattice(3), 10**6)


@pytest.mark.parametrize("arity", [0, -1])
def test_term_table_refuses_an_arity_below_one(arity):
    # n ** (arity - 1) leaked TypeError
    with pytest.raises(InputError, match=f"^a term table has arity at least 1, got {arity}$"):
        term_table(chain_lattice(3), Var(0), arity)


@pytest.mark.parametrize("arg", [1.5, "a"], ids=["float", "str"])
def test_eval_term_refuses_an_argument_that_is_not_an_int(arg):
    # a variable returned 1.5 as if it were an element; "a" leaked TypeError
    with pytest.raises(InputError, match=f"^argument {arg!r} is not an int$"):
        eval_term(chain_lattice(3), Var(0), (arg,))


def test_quotient_gathers_the_per_entry_tables():
    rng = random.Random(7)
    for alg in (zmod_ring(12), power_algebra(two_majority(), 3), chain_lattice(5)):
        for theta in rng.sample([c.partition for c in all_congruences(alg)], 4):
            q, labels = quotient(alg, theta)
            assert labels == theta.labels and q.size == theta.num_blocks
            assert [tuple(op.table) for op in q.ops] == reference_quotient_tables(alg, theta)


def test_array_tables_are_checked_and_seed_the_table_arrays():
    table = np.array([[0, 1, 2], [1, 2, 0], [2, 0, 1]], dtype=np.int64)
    alg = FiniteAlgebra(3, [Operation("add", 2, table), ("zero", 0, np.int64(0))])
    assert tuple(alg.op("add").table) == (0, 1, 2, 1, 2, 0, 2, 0, 1)
    assert tuple(alg.op("zero").table) == (0,)
    seeded = alg.table_array("add")
    assert seeded.dtype == np.uint8 and seeded.tolist() == table.tolist()
    assert not seeded.flags.writeable and not np.shares_memory(seeded, table)
    assert np.shares_memory(seeded, alg.op("add").table)
    for bad in (np.arange(8), np.array([0, 1, 3, 0, 0, 0, 0, 0, 0]), np.full(9, -1), np.zeros(9)):
        with pytest.raises(InputError):
            FiniteAlgebra(3, [Operation("f", 2, bad)])
    # a table given as a tuple is viewed the same way
    tuples = FiniteAlgebra(3, [Operation("add", 2, tuple(table.ravel().tolist()))])
    assert np.shares_memory(tuples.table_array("add"), tuples.op("add").table)
    assert tuples.table_array("add").tolist() == table.tolist()


def test_table_array_builds_each_view_once():
    alg = zmod_ring(6)
    view = alg.table_array("add")
    assert alg.table_array("add") is view and not view.flags.writeable
    assert alg.table_array("mul") is not view
    # a pickled view would come back as a writeable copy of the table
    back = pickle.loads(pickle.dumps(alg))
    assert back.table_array("add") is back.table_array("add")
    assert not back.table_array("add").flags.writeable
    assert np.shares_memory(back.table_array("add"), back.op("add").table)


@pytest.mark.parametrize(
    "entry, message",
    [
        (("f", 1), r"^operation entry 0 is not \(name, arity, table\)$"),
        (("f", "1", (0, 1)), r"^operation 'f' has arity '1', not an int$"),
    ],
    ids=["short", "str-arity"],
)
def test_a_malformed_operation_entry_is_refused(entry, message):
    # unpacking leaked ValueError, and comparing the arity TypeError
    with pytest.raises(InputError, match=message):
        FiniteAlgebra(2, [entry])


@pytest.mark.parametrize(
    "size, ops, message",
    [
        (2, [(["f"], 1, (0, 1))], r"^operation entry 0 has name \['f'\], not a str$"),
        ("3", [], r"^the universe size '3' is not an int$"),
        (2.0, [], r"^the universe size 2\.0 is not an int$"),
    ],
    ids=["list-name", "str-size", "float-size"],
)
def test_an_algebra_refuses_a_size_or_name_of_the_wrong_type(size, ops, message):
    # the list name leaked TypeError (unhashable), and so did the str size;
    # the float size was accepted, then leaked from Partition.identity
    with pytest.raises(InputError, match=message):
        FiniteAlgebra(size, ops)


@pytest.mark.parametrize(
    "table, message",
    [
        ((0.5, 1.0), "table is not integer"),
        (("0", "1"), "table is not integer"),
        ((0, -1), "table value out of range"),
        ((0, 2**70), "table value out of range"),
        ((0, 2), "table value out of range"),
    ],
    ids=["float", "str", "negative", "huge", "too-large"],
)
def test_sequence_tables_must_hold_elements(table, message):
    with pytest.raises(InputError, match=f"^operation 'f' {message}$"):
        FiniteAlgebra(2, [("f", 1, table)])


def _succ(n):
    """n elements with a successor and a constant, given as sequences."""
    return FiniteAlgebra(
        n, [Operation("succ", 1, [(x + 1) % n for x in range(n)]), Operation("top", 0, [n - 1])]
    )


@pytest.mark.parametrize(
    "build",
    [
        lambda: parse_algebra(serialize_algebra(chain_lattice(3))),
        lambda: zmod_ring(6),
        lambda: power_algebra(two_majority(), 2),
        lambda: _succ(256),
        lambda: _succ(257),
        lambda: _succ(65537),
        lambda: FiniteAlgebra(65537, [Operation("id", 1, np.arange(65537))]),
    ],
    ids=["parsed", "catalog", "array-built", "256", "257", "65537", "65537-array"],
)
def test_each_table_is_stored_once_and_viewed_read_only(build):
    alg = build()
    for op in alg.ops:
        assert isinstance(op.table, array.array)
        assert op.table.itemsize == table_dtype(alg.size).itemsize
        view = alg.table_array(op.name)
        assert view.shape == (alg.size,) * op.arity and view.dtype == table_dtype(alg.size)
        assert np.shares_memory(view, op.table) and not view.flags.writeable
        assert view.ravel().tolist() == op.table.tolist()


def test_an_algebra_survives_pickling():
    for alg in (zmod_ring(6), power_algebra(two_majority(), 2), _succ(257)):
        back = pickle.loads(pickle.dumps(alg))
        assert (back.size, back.name, back.ops) == (alg.size, alg.name, alg.ops)
        for op in back.ops:
            assert back.table_array(op.name).tolist() == alg.table_array(op.name).tolist()
    assert pickle.loads(pickle.dumps(zmod_ring(6))).apply("add", 4, 5) == 3


def test_permutability_composes_join_irreducible_pairs_only(monkeypatch):
    lattice = [c.partition for c in all_congruences(power_algebra(zmod_group(2), 4))]
    assert len(lattice) == 67  # the subspaces of GF(2)^4
    calls = []
    original = Partition.permutes
    monkeypatch.setattr(Partition, "permutes", lambda x, y: calls.append(1) or original(x, y))
    assert congruence_lattice_is_permutable(lattice)
    # the 15 lines are the join-irreducibles: 15 * 14 / 2 pairs, not 67 * 66 / 2
    assert len(calls) == 105
