"""Partition primitives, checked against naive models."""

import itertools
import random
import re

import pytest

from crtkit.errors import InputError, PreconditionError
from crtkit.partitions import Partition, canonical_labels, quotient_partition

from helpers import relation_product, set_partitions


# naive reference implementations, written independently of the module


def naive_meet(p, q):
    return Partition([(p.labels[x], q.labels[x]) for x in range(p.n)])


def naive_join(p, q):
    pairs = [(x, y) for x in range(p.n) for y in range(p.n)
             if p.related(x, y) or q.related(x, y)]
    return Partition.from_pairs(p.n, pairs)


def naive_refines(p, q):
    return all(q.related(x, y)
               for x in range(p.n) for y in range(p.n) if p.related(x, y))


def test_canonical_labels_first_occurrence_order():
    assert canonical_labels([5, 2, 2, 7]) == (0, 1, 1, 2)
    assert canonical_labels("baab") == (0, 1, 1, 0)
    assert canonical_labels([0]) == (0,)
    assert canonical_labels([]) == ()


def test_constructor_canonicalizes():
    assert Partition([3, 3, 1]).labels == (0, 0, 1)
    assert Partition([9, 4, 9]) == Partition([0, 1, 0])
    with pytest.raises(InputError):
        Partition([])


def test_identity_and_total():
    p = Partition.identity(4)
    assert p.labels == (0, 1, 2, 3)
    assert p.num_blocks == 4
    t = Partition.total(4)
    assert t.labels == (0, 0, 0, 0)
    assert t.num_blocks == 1
    assert p.n == t.n == 4


def test_from_blocks():
    p = Partition.from_blocks(5, [[1, 3], [0], [2, 4]])
    assert p.related(1, 3) and p.related(2, 4)
    assert not p.related(0, 1)
    assert p.blocks() == [[0], [1, 3], [2, 4]]
    with pytest.raises(InputError):
        Partition.from_blocks(3, [[0, 1]])  # 2 missing
    with pytest.raises(InputError):
        Partition.from_blocks(3, [[0, 1], [1, 2]])  # 1 twice
    with pytest.raises(InputError):
        Partition.from_blocks(3, [[0, 1, 2, 3]])  # out of range


@pytest.mark.parametrize(
    "build, shown",
    [
        (lambda: Partition(None), "None"),
        (lambda: Partition.from_blocks(3, [[0, "a"]]), "'a'"),
        (lambda: Partition.from_pairs(3, [("a", 1)]), "'a'"),
        (lambda: Partition.from_blocks(2, [[0, 1.0]]), "1.0"),
    ],
    ids=["none", "blocks-str", "pairs-str", "blocks-float"],
)
def test_partitions_refuse_labels_and_elements_of_the_wrong_type(build, shown):
    # each leaked TypeError: from iterating None, from the range test, and
    # from indexing the label list with a float
    with pytest.raises(InputError, match=re.escape(shown)):
        build()


def test_from_pairs_takes_transitive_closure():
    p = Partition.from_pairs(5, [(0, 1), (1, 2)])
    assert p.related(0, 2)
    assert p.labels == (0, 0, 0, 1, 2)
    with pytest.raises(InputError):
        Partition.from_pairs(3, [(0, 5)])


def test_blocks_masks_representatives_consistent():
    for p in set_partitions(5):
        blocks = p.blocks()
        # ordered by least member, disjoint, covering
        assert [b[0] for b in blocks] == sorted(b[0] for b in blocks)
        assert sorted(x for b in blocks for x in b) == list(range(5))
        assert p.representatives() == [b[0] for b in blocks]
        assert p.block_masks() == [sum(1 << x for x in b) for b in blocks]
        for b in blocks:
            for x, y in itertools.combinations(b, 2):
                assert p.related(x, y)


def test_equality_and_hash():
    assert Partition([0, 0, 1]) == Partition([1, 1, 0])
    assert hash(Partition([0, 0, 1])) == hash(Partition([1, 1, 0]))
    assert Partition([0, 0, 1]) != Partition([0, 1, 1])
    assert len({Partition([0, 1]), Partition([1, 0])}) == 1


def test_refines_exhaustive_n4():
    parts = set_partitions(4)
    assert len(parts) == 15  # Bell number B(4)
    for p in parts:
        for q in parts:
            assert p.refines(q) == naive_refines(p, q)


def test_meet_join_exhaustive_n4():
    parts = set_partitions(4)
    for p in parts:
        for q in parts:
            assert p.meet(q) == naive_meet(p, q)
            assert p.join(q) == naive_join(p, q)


def test_lattice_identities_n5_sampled():
    rng = random.Random(7)
    parts = set_partitions(5)
    assert len(parts) == 52
    for _ in range(200):
        p, q, r = (rng.choice(parts) for _ in range(3))
        assert p.meet(q) == q.meet(p)
        assert p.join(q) == q.join(p)
        assert p.meet(p.join(q)) == p
        assert p.join(p.meet(q)) == p
        assert p.meet(q).meet(r) == p.meet(q.meet(r))
        assert p.join(q).join(r) == p.join(q.join(r))
        assert p.refines(q) == (p.meet(q) == p)
        assert p.refines(q) == (p.join(q) == q)


def test_ground_set_mismatch_rejected():
    with pytest.raises(InputError):
        Partition.identity(3).meet(Partition.identity(4))
    with pytest.raises(InputError):
        Partition.identity(3).join(Partition.identity(4))


def test_compose_matches_naive():
    # the reference relation product the permutability tests rely on
    rng = random.Random(11)
    parts = set_partitions(4)
    for _ in range(100):
        p, q = rng.choice(parts), rng.choice(parts)
        rel = relation_product(p, q)
        for x in range(4):
            for y in range(4):
                expected = any(p.related(x, z) and q.related(z, y)
                               for z in range(4))
                assert ((x, y) in rel) == expected


def test_permutes_matches_relation_product():
    for p in set_partitions(4):
        for q in set_partitions(4):
            want = relation_product(p, q) == relation_product(q, p)
            assert p.permutes(q) == want
    rng = random.Random(12)
    for _ in range(300):
        n = rng.randint(1, 9)
        p = Partition([rng.randrange(n) for _ in range(n)])
        q = Partition([rng.randrange(n) for _ in range(n)])
        assert p.permutes(q) == (relation_product(p, q) == relation_product(q, p))
    with pytest.raises(InputError):
        Partition.identity(3).permutes(Partition.identity(4))


def test_quotient_partition():
    theta = Partition([0, 0, 0, 1, 1])
    delta = Partition([0, 0, 1, 2, 2])
    q = quotient_partition(theta, delta)
    # delta-classes {0,1},{2},{3,4} -> theta merges the first two
    assert q.labels == (0, 0, 1)
    assert quotient_partition(theta, theta) == Partition.identity(2)
    assert quotient_partition(Partition.total(5), delta) == Partition.total(3)
    with pytest.raises(PreconditionError):
        quotient_partition(delta, theta)  # theta does not refine delta


def test_partition_compose_symmetric_iff_permuting():
    # for the 3-chain order kernel pair, composition differs by direction
    p = Partition([0, 0, 1])
    q = Partition([0, 1, 1])
    assert relation_product(p, q) != relation_product(q, p)
    assert (0, 2) in relation_product(p, q)
    assert (0, 2) not in relation_product(q, p)
    assert not p.permutes(q) and not q.permutes(p)
    assert p.permutes(p.join(q)) and p.permutes(Partition.identity(3))
