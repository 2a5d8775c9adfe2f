"""Congruence certification against the per-tuple reference scan."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtkit.algebra import FiniteAlgebra, Operation, congruence_violation
from crtkit.catalog import (
    chain_lattice,
    left_zero_semigroup,
    power_algebra,
    two_majority,
    two_minority,
    zmod_ring,
)
from crtkit.partitions import Partition

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
