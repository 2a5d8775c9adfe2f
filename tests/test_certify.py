"""Congruence certification against the per-tuple reference scan."""

import array
import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtkit.algebra import (
    _SLAB,
    FiniteAlgebra,
    Operation,
    _is_constant_or_projection,
    _typecode,
    congruence_violation,
)
from crtkit.catalog import (
    chain_lattice,
    left_zero_semigroup,
    power_algebra,
    two_lattice,
    two_majority,
    two_minority,
    zmod_ring,
)
from crtkit.partitions import Partition
from crtkit.satgadget import u_embed

from helpers import naive_is_congruence, reference_congruence_violation, set_partitions


def pointed_unary_z6():
    """Z6 with a constant and two unary maps: congruences mod 1, 2, 3, 6."""
    return FiniteAlgebra(
        6,
        [
            Operation("zero", 0, (0,)),
            Operation("neg", 1, tuple((-x) % 6 for x in range(6))),
            Operation("dbl", 1, tuple(2 * x % 6 for x in range(6))),
        ],
        name="Z6u",
    )


def pointed_set():
    """A 5-element set with two constants and no other operation."""
    return FiniteAlgebra(
        5, [Operation("zero", 0, (0,)), Operation("one", 0, (4,))], name="C5"
    )


ALGEBRAS = [
    chain_lattice(4),
    zmod_ring(6),
    left_zero_semigroup(5),
    power_algebra(two_minority(), 2),
    power_algebra(two_majority(), 2),
    pointed_unary_z6(),
    pointed_set(),
]


@pytest.mark.parametrize("alg", ALGEBRAS, ids=lambda alg: alg.name)
def test_certification_matches_references_on_every_partition(alg):
    rejected = 0
    for part in set_partitions(alg.size):
        got = congruence_violation(alg, part)
        assert (got is None) == naive_is_congruence(alg, part), part
        assert got == reference_congruence_violation(alg, part), part
        rejected += got is not None
    # every partition of a left-zero semigroup or of a set with constants
    # is a congruence
    assert (rejected == 0) == (alg.name in ("LZ5", "C5"))


@st.composite
def algebra_and_partition(draw):
    n = draw(st.integers(1, 4))
    ops = []
    for k in range(draw(st.integers(0, 3))):
        arity = draw(st.integers(0, 3))
        table = draw(st.lists(st.integers(0, n - 1), min_size=n**arity, max_size=n**arity))
        ops.append(Operation(f"f{k}", arity, tuple(table)))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return FiniteAlgebra(n, ops), Partition(labels)


@settings(max_examples=400, deadline=None)
@given(algebra_and_partition())
def test_certification_matches_reference_on_random_tables(case):
    alg, part = case
    got = congruence_violation(alg, part)
    assert (got is None) == naive_is_congruence(alg, part)
    assert got == reference_congruence_violation(alg, part)


def projection(n, arity, pos):
    return [idx // n ** (arity - 1 - pos) % n for idx in range(n**arity)]


def is_constant_or_projection(op, n):
    """By definition, over every argument tuple."""
    args = list(itertools.product(range(n), repeat=op.arity))
    return len(set(op.table)) == 1 or any(
        all(v == a[pos] for v, a in zip(op.table, args)) for pos in range(op.arity)
    )


@st.composite
def planted_algebra_and_partition(draw):
    """Random tables mixed with projections, constants and projections with
    one entry changed, which agree with a projection on all but one
    argument tuple."""
    n = draw(st.integers(1, 5))
    ops = []
    for k in range(draw(st.integers(1, 3))):
        arity = draw(st.integers(1, 4 if n < 5 else 3))
        kind = draw(st.sampled_from(["random", "constant", "projection", "near"]))
        if kind == "random":
            rng = random.Random(draw(st.integers(0, 2**32)))
            table = [rng.randrange(n) for _ in range(n**arity)]
        elif kind == "constant":
            table = [draw(st.integers(0, n - 1))] * n**arity
        else:
            table = projection(n, arity, draw(st.integers(0, arity - 1)))
            if kind == "near" and n > 1:
                idx = draw(st.integers(0, n**arity - 1))
                table[idx] = (table[idx] + draw(st.integers(1, n - 1))) % n
        ops.append(Operation(f"f{k}", arity, tuple(table)))
    labels = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
    return FiniteAlgebra(n, ops), Partition(labels)


@settings(max_examples=150, deadline=None)
@given(planted_algebra_and_partition())
def test_certification_matches_reference_with_planted_projections(case):
    alg, part = case
    assert alg.nontrivial_ops() == tuple(
        op for op in alg.ops if not is_constant_or_projection(op, alg.size)
    )
    got = congruence_violation(alg, part)
    assert (got is None) == naive_is_congruence(alg, part)
    assert got == reference_congruence_violation(alg, part)


def test_a_near_projection_is_certified():
    # x * y = x on four elements, but 2 * 3 = 0: the related arguments
    # (2, 2) and (2, 3) go to 2 and 0, in different blocks of 01|23
    table = projection(4, 2, 0)
    table[2 * 4 + 3] = 0
    alg = FiniteAlgebra(4, [Operation("mul", 2, tuple(table))])
    part = Partition([0, 0, 1, 1])
    assert alg.nontrivial_ops() == alg.ops
    assert congruence_violation(alg, part) == ("mul", 1, (2, 2), 3)
    assert congruence_violation(alg, part) == reference_congruence_violation(alg, part)


def test_only_the_tested_tables_become_arrays():
    n = 6
    neg = Operation("neg", 1, tuple((-x) % n for x in range(n)))
    mul = Operation("mul", 2, tuple(projection(n, 2, 0)))
    alg = FiniteAlgebra(n, [mul, Operation("zero", 0, (0,)), neg])
    assert alg.nontrivial_ops() == (alg.op("neg"),)
    assert congruence_violation(alg, Partition([0, 1, 2, 0, 1, 2])) is None
    assert congruence_violation(alg, Partition([0, 0, 1, 1, 2, 2])) == ("neg", 0, (0,), 1)


class ReadCounter(array.array):
    """A table in its storage type that counts the entries read from it."""

    def __getitem__(self, key):
        got = super().__getitem__(key)
        self.reads += len(got) if isinstance(key, slice) else 1
        return got


def entries_read(op, n):
    """The test's answer on op, and the number of entries it read."""
    table = ReadCounter(_typecode(n), op.table)
    table.reads = 0
    strides = tuple(n**k for k in range(op.arity - 1, -1, -1))
    return _is_constant_or_projection(table, n, strides), table.reads


@pytest.mark.parametrize(
    "alg",
    [power_algebra(two_lattice(), 10), power_algebra(two_majority(), 7), zmod_ring(1000)],
    ids=["2lat^10", "2maj^7", "Z1000"],
)
def test_big_tables_that_fail_the_probe_are_read_only_there(alg):
    for op in alg.ops:
        if op.arity:
            assert entries_read(op, alg.size) == (False, op.arity + 2), op.name


def test_a_table_wrong_in_its_first_row_is_read_one_slab_past_the_probe():
    n = 1024
    table = projection(n, 2, 0)
    table[5] = 1  # x * 5 = x except 0 * 5 = 1
    is_trivial, reads = entries_read(Operation("mul", 2, tuple(table)), n)
    assert not is_trivial
    assert reads <= 2 + 2 + max(_SLAB, n)


@pytest.mark.parametrize(
    "planted",
    [projection(60, 3, 0), projection(60, 3, 1), projection(60, 3, 2), [7] * 60**3],
    ids=["projection-0", "projection-1", "projection-2", "constant"],
)
def test_a_change_in_any_slab_of_a_big_table_is_found(planted):
    # 60^3 entries, 3600 to a row: one row per slab
    n, arity = 60, 3
    assert entries_read(Operation("f", arity, tuple(planted)), n) == (True, n**arity + arity + 2)
    for idx in (n**arity // 2, n**arity - 2):
        table = list(planted)
        table[idx] = (table[idx] + 1) % n
        assert not entries_read(Operation("f", arity, tuple(table)), n)[0], idx


# ---------------------------------------------------------------------------
# the pure-Python path of unary operations, on universes of 100-500 elements


def random_labels(rng, n, blocks):
    return [rng.randrange(blocks) for _ in range(n)]


def respecting_map(rng, part):
    """A random unary map sending each block into one block."""
    blocks = part.blocks()
    target = [rng.randrange(part.num_blocks) for _ in blocks]
    return [rng.choice(blocks[target[lab]]) for lab in part.labels]


def planted_map(rng, part):
    """A respecting map with one entry moved out of its block's target
    block, at an element whose block has another member: a violation."""
    table = respecting_map(rng, part)
    x = rng.choice([x for x in range(part.n) if len(part.blocks()[part.labels[x]]) > 1])
    table[x] = rng.choice([y for y in range(part.n) if part.labels[y] != part.labels[table[x]]])
    return table


@pytest.mark.parametrize("seed", range(4))
def test_u_embed_of_random_bare_set_tuples_matches_the_reference(seed):
    rng = random.Random(seed)
    m = rng.randrange(50, 251)
    thetas = [Partition(random_labels(rng, m, rng.randrange(2, 8))) for _ in range(3)]
    alg, doubled = u_embed(m, thetas, c=rng.randrange(m))
    assert [op.arity for op in alg.nontrivial_ops()] == [1]
    for part in doubled:
        assert congruence_violation(alg, part) is None
        assert reference_congruence_violation(alg, part) is None
    # partitions of the doubled universe that neg does not respect
    for blocks in (2, 5, 40):
        part = Partition(random_labels(rng, 2 * m, blocks))
        got = congruence_violation(alg, part)
        assert got is not None
        assert got == reference_congruence_violation(alg, part)


@pytest.mark.parametrize("seed", range(6))
def test_random_unary_maps_with_a_planted_violation_match_the_reference(seed):
    rng = random.Random(100 + seed)
    n = rng.randrange(100, 501)
    part = Partition(random_labels(rng, n, rng.randrange(2, 30)))
    good, bad = respecting_map(rng, part), planted_map(rng, part)
    alg = FiniteAlgebra(
        n, [Operation("f", 1, good), Operation("zero", 0, (0,)), Operation("g", 1, bad)]
    )
    got = congruence_violation(alg, part)
    assert got is not None and got[0] == "g"
    assert got == reference_congruence_violation(alg, part)


def mixed_algebra(rng, part, binary_breaks: bool):
    """A binary operation x * y = h(x) for a random unary h, followed by
    unary maps: one that respects part and one with a planted violation.
    The product breaks part only when binary_breaks."""
    h = (planted_map if binary_breaks else respecting_map)(rng, part)
    mul = [h[x] for x in range(part.n) for _ in range(part.n)]
    ops = [
        Operation("mul", 2, mul),
        Operation("f", 1, respecting_map(rng, part)),
        Operation("g", 1, planted_map(rng, part)),
    ]
    return FiniteAlgebra(part.n, ops)


@pytest.mark.parametrize("seed", range(3))
def test_unary_operations_after_a_binary_one_are_certified(seed):
    # a unary operation placed after one of arity 2 is still tested, and the
    # witness is still the first in signature order
    rng = random.Random(200 + seed)
    n = rng.randrange(100, 121)
    part = Partition(random_labels(rng, n, rng.randrange(20, 40)))
    respecting = mixed_algebra(rng, part, binary_breaks=False)
    assert [op.arity for op in respecting.nontrivial_ops()] == [2, 1, 1]
    got = congruence_violation(respecting, part)
    assert got is not None and got[0] == "g"
    assert got == reference_congruence_violation(respecting, part)
    breaking = mixed_algebra(rng, part, binary_breaks=True)
    got = congruence_violation(breaking, part)
    assert got is not None and got[0] == "mul"
    assert got == reference_congruence_violation(breaking, part)
