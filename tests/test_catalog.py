"""Direct powers and subpowers against the per-entry reference builder."""

import itertools
import random
import tracemalloc

import pytest

from crtkit.algebra import FiniteAlgebra, Operation, subalgebra
from crtkit.catalog import (
    bare_set,
    boolean_lattice,
    chain_lattice,
    diamond_m3,
    index_to_tuple,
    left_zero_mul,
    left_zero_semigroup,
    power_algebra,
    subpower,
    tuple_to_index,
    two_implication,
    two_join_semilattice,
    two_lattice,
    two_majority,
    two_minority,
    two_nearlattice,
    zmod_group,
    zmod_ring,
)
from crtkit.errors import InputError

from helpers import generated_subuniverse, reference_power_algebra


def _mixed_base(size, seed):
    """An algebra with one operation of each arity 0 to 3, random tables."""
    rng = random.Random(seed)
    ops = [
        Operation(f"f{k}", k, tuple(rng.randrange(size) for _ in range(size**k)))
        for k in range(4)
    ]
    return FiniteAlgebra(size, ops, name=f"mixed{size}")


# the reference evaluates every entry in Python, so bases of four or five
# elements stop at exponent 3 (their binary tables at exponent 4 hold 4^8
# and 5^8 entries), and the three-element mixed base, whose ternary table
# holds 3^(3e) entries, at exponent 2
POWERS = [
    *[
        (build, e)
        for build in (
            lambda: chain_lattice(3),
            lambda: zmod_ring(3),
            lambda: zmod_group(3),
            two_nearlattice,
            two_majority,
            two_minority,
            two_lattice,
            two_join_semilattice,
            two_implication,
            lambda: left_zero_semigroup(3),
            lambda: bare_set(3),
            lambda: _mixed_base(2, 0),
            lambda: _mixed_base(2, 1),
        )
        for e in (1, 2, 3, 4)
    ],
    *[(build, e) for build in (lambda: boolean_lattice(2), diamond_m3) for e in (1, 2, 3)],
    *[(lambda: _mixed_base(3, 2), e) for e in (1, 2)],
]


@pytest.mark.parametrize("build,exponent", POWERS, ids=[f"{b().name}^{e}" for b, e in POWERS])
def test_power_algebra_matches_reference(build, exponent):
    base = build()
    new, ref = power_algebra(base, exponent), reference_power_algebra(base, exponent)
    assert (new.size, new.name, new.ops) == (ref.size, ref.name, ref.ops)


def test_vector_index_round_trip():
    for p, n in ((2, 3), (3, 2)):
        for idx in range(p**n):
            assert tuple_to_index(index_to_tuple(idx, p, n), p) == idx


def test_power_algebra_rejects_an_exponent_below_one():
    with pytest.raises(InputError, match="exponent must be at least 1"):
        power_algebra(two_majority(), 0)


@pytest.mark.parametrize("exponent", [2.5, "2"], ids=["float", "str"])
def test_power_algebra_rejects_an_exponent_that_is_not_an_int(exponent):
    # both leaked TypeError
    with pytest.raises(InputError, match=f"^exponent must be an int, got {exponent!r}$"):
        power_algebra(two_majority(), exponent)


@pytest.mark.parametrize(
    "build, n",
    [
        (chain_lattice, "3"),
        (chain_lattice, 2.0),
        (boolean_lattice, 2.0),
        (zmod_ring, "4"),
        (zmod_group, 1.5),
        (left_zero_semigroup, "2"),
        (left_zero_mul, 2.5),
        (bare_set, 2.0),
    ],
    ids=lambda v: getattr(v, "__name__", repr(v)),
)
def test_catalog_sizes_that_are_not_ints_are_refused(build, n):
    # bare_set(2.0) built a set of size 2.0; the others leaked TypeError
    with pytest.raises(InputError, match=f"must be an int, got {n!r}$"):
        build(n)


def test_a_power_of_a_set_without_operations_builds_no_array():
    # digit columns over all 2^40 elements once raised MemoryError
    alg = power_algebra(bare_set(2), 40)
    assert (alg.size, alg.name, alg.ops) == (2**40, "set2^40", ())


def _random_tuples(rng, n, length):
    return {tuple(rng.randrange(n) for _ in range(length)) for _ in range(rng.randint(1, 3))}


@pytest.mark.parametrize(
    "build",
    [two_majority, two_nearlattice, two_minority, lambda: zmod_ring(3)],
    ids=["2maj", "2N", "2min", "Z3"],
)
def test_subpower_matches_reference_power_and_subalgebra(build):
    base = build()
    rng = random.Random(base.name)
    for length in range(1, 6):
        big = reference_power_algebra(base, length)
        seeds = [tuple_to_index(t, base.size) for t in _random_tuples(rng, base.size, length)]
        universe = generated_subuniverse(big, seeds)
        coords = [index_to_tuple(x, base.size, length) for x in universe]
        rng.shuffle(coords)
        sub, ordered = subpower(base, coords)
        ref, index = subalgebra(big, universe)
        want = sorted(coords, key=lambda c: index[tuple_to_index(c, base.size)])
        assert (sub.size, sub.name, sub.ops) == (ref.size, ref.name, ref.ops)
        assert ordered == want


def test_subpower_rejects_duplicate_tuples():
    # once taken as a 4-element algebra with a 5-entry ordered list
    with pytest.raises(InputError, match=r"coordinate tuple \(0, 1\) given twice"):
        subpower(two_majority(), [(0, 1), (1, 0), (0, 1), (0, 0), (1, 1)])


def test_subpower_names_the_escaping_tuples_of_a_set_that_is_not_closed():
    message = r"not closed: s\(\(0, 0\), \(0, 1\), \(1, 0\)\) = \(1, 1\) falls outside"
    with pytest.raises(InputError, match=message):
        subpower(two_minority(), [(0, 1), (1, 0), (0, 0)])
    two = FiniteAlgebra(3, [Operation("two", 0, (2,))], name="c2")
    with pytest.raises(InputError, match=r"not closed: two\(\) = \(2, 2\) falls outside"):
        subpower(two, [(1, 1), (2, 1)])


def test_subpower_rejects_malformed_tuples():
    for coords in ([], [(0, 1), (1,)], [()], [(0, 2)], [(0,) * 64], [0, 1]):
        with pytest.raises(InputError):
            subpower(two_majority(), coords)
    # a list that is no list leaked "'int' object is not iterable"
    with pytest.raises(InputError, match="^expected a sequence of coordinate tuples, got 5$"):
        subpower(chain_lattice(3), 5)


@pytest.mark.parametrize("coords", [[(0.5,), (1,), (2,)], [("a",)]], ids=["float", "str"])
def test_subpower_refuses_coordinates_that_are_not_ints(coords):
    # the intp cast truncated 0.5 to 0 and kept (0.5,) as element 0; "a"
    # leaked TypeError
    with pytest.raises(InputError, match=r"has an entry not an int in 0\.\.2$"):
        subpower(chain_lattice(3), coords)


def test_subpower_tabulates_only_the_given_tuples_of_a_long_power():
    # 2maj^12 has 4096 elements, so its table would hold 4096^3 entries
    rng = random.Random(12)
    tuples = {tuple(rng.randrange(2) for _ in range(12)) for _ in range(5)}
    grew = True
    while grew:
        before = len(tuples)
        tuples |= {_majority(*args) for args in itertools.product(sorted(tuples), repeat=3)}
        grew = len(tuples) > before
    sub, ordered = subpower(two_majority(), list(tuples))
    assert ordered == sorted(tuples)
    assert sub.name == "2maj^12|sub" and sub.size == len(tuples) > 5
    expected = tuple(
        ordered.index(_majority(*args)) for args in itertools.product(ordered, repeat=3)
    )
    assert tuple(sub.op("m").table) == expected


def _majority(*rows):
    return tuple(int(sum(column) >= 2) for column in zip(*rows))


def test_power_tables_are_stored_once_in_their_narrow_type():
    # 2maj^8 has one ternary table of 256^3 entries, 16 MiB as uint8; a
    # second copy as a tuple of Python ints took the peak to 288 MiB, and
    # digit columns over all 256 elements with one gather per coordinate
    # to 48 MiB
    tracemalloc.start()
    try:
        alg = power_algebra(two_majority(), 8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert alg.op("m").table.itemsize == 1 and len(alg.op("m").table) == 256**3
    assert peak < 40 << 20
