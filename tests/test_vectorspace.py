"""GF(p) linear algebra and the dimension-count CR decision."""

import itertools
import random
import tracemalloc

import numpy as np
import pytest

from crtkit.catalog import power_algebra, zmod_group
from crtkit.errors import InputError, PreconditionError, StructureError
from crtkit.partitions import Partition
from crtkit.systems import brute_force_is_cr_tuple
from crtkit.vectorspace import (
    Coordinatization,
    congruence_to_subspace,
    coordinatize,
    coset_partitions,
    dim_compatible,
    dim_solvable,
    is_cr_tuple_vs,
    is_prime,
    kernel_basis,
    rank,
    rref,
    subspace_to_partition,
    vs_instance,
)

from helpers import in_rowspace, random_subspace, subspace_intersection, subspace_sum


def span(basis, p):
    """All vectors in the row space, as a set of tuples (enumeration oracle)."""
    basis = np.asarray(basis, dtype=np.int64)
    if basis.shape[0] == 0:
        return {(0,) * basis.shape[1]}
    out = set()
    for coeffs in itertools.product(range(p), repeat=basis.shape[0]):
        v = np.zeros(basis.shape[1], dtype=np.int64)
        for c, row in zip(coeffs, basis):
            v = (v + c * row) % p
        out.add(tuple(int(x) for x in v))
    return out


def test_is_prime():
    assert [q for q in range(20) if is_prime(q)] == [2, 3, 5, 7, 11, 13, 17, 19]


def test_rref_and_rank_random():
    rng = random.Random(1)
    for _ in range(150):
        p = rng.choice([2, 3, 5])
        rows, cols = rng.randint(1, 4), rng.randint(1, 4)
        mat = np.array(
            [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)],
            dtype=np.int64,
        )
        R, pivots = rref(mat, p)
        assert R.shape[0] == len(pivots) == rank(mat, p)
        # same row space
        assert span(R, p) == span(mat, p)
        # pivot structure: identity on pivot columns
        for i, c in enumerate(pivots):
            col = R[:, c]
            assert col[i] == 1 and np.count_nonzero(col) == 1


def test_kernel_basis_exact():
    rng = random.Random(2)
    for _ in range(100):
        p = rng.choice([2, 3])
        rows, cols = rng.randint(1, 3), rng.randint(1, 4)
        mat = np.array(
            [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)],
            dtype=np.int64,
        )
        K = kernel_basis(mat, p)
        expected = {
            v
            for v in itertools.product(range(p), repeat=cols)
            if not (mat @ np.array(v) % p).any()
        }
        assert span(K, p) == expected


def test_annihilator_sum_intersection():
    rng = random.Random(3)
    for _ in range(100):
        p = rng.choice([2, 3])
        n = rng.randint(1, 4)
        a = random_subspace(rng, p, n)
        b = random_subspace(rng, p, n)
        sa, sb = span(a, p), span(b, p)
        # annihilator kills exactly the span
        ann = kernel_basis(a, p)
        for u in itertools.product(range(p), repeat=n):
            kills = all(
                sum(x * y for x, y in zip(u, v)) % p == 0 for v in sa
            )
            assert in_rowspace(u, ann, p) == kills
        # sum spans the union, intersection the common vectors
        assert span(subspace_sum(a, b, p), p) == span(
            np.vstack([a, b]), p
        )
        assert span(subspace_intersection(a, b, p), p) == (sa & sb)


def test_in_rowspace():
    basis = np.array([[1, 0, 1], [0, 1, 1]], dtype=np.int64)
    assert in_rowspace([1, 1, 0], basis, 2)
    assert not in_rowspace([1, 1, 1], basis, 2)
    assert in_rowspace([0, 0, 0], basis, 2)


def test_vs_instance_validations():
    with pytest.raises(PreconditionError):
        vs_instance(4, 2, [[[1, 0]]])
    with pytest.raises(InputError):
        vs_instance(2, 2, [])
    with pytest.raises(InputError):
        vs_instance(2, 2, [[[1, 0, 1]]])


def test_coset_partitions_shape():
    inst = vs_instance(2, 2, [[[1, 0]], [[0, 1]], [[1, 1]]])
    parts = coset_partitions(inst)
    assert all(p.n == 4 and p.num_blocks == 2 for p in parts)
    # W = span{(1,0)}: cosets {00,10},{01,11} as base-2 codes {0,2},{1,3}
    assert parts[0] == Partition([0, 1, 0, 1])
    assert parts[1] == Partition([0, 0, 1, 1])
    assert parts[2] == Partition([0, 1, 1, 0])


def test_vs_decision_matches_brute():
    rng = random.Random(20)
    agreements = 0
    for _ in range(120):
        p = rng.choice([2, 3])
        n = rng.randint(1, 3)
        k = rng.randint(2, 4)
        inst = vs_instance(
            p, n, [random_subspace(rng, p, n) for _ in range(k)]
        )
        verdict = is_cr_tuple_vs(inst)
        assert verdict.dim_solvable <= verdict.dim_compatible
        brute = brute_force_is_cr_tuple(coset_partitions(inst))
        assert verdict.is_cr == brute.is_cr
        agreements += 1
    assert agreements == 120


def test_vs_two_subspaces_always_cr():
    # pairs of group congruences permute, so every k=2 instance is CR
    rng = random.Random(21)
    for _ in range(60):
        p = rng.choice([2, 3])
        n = rng.randint(1, 3)
        inst = vs_instance(
            p, n, [random_subspace(rng, p, n) for _ in range(2)]
        )
        assert is_cr_tuple_vs(inst).is_cr


def test_vs_known_not_cr():
    # three lines in GF(2)^2: compatible space is bigger than solvable
    inst = vs_instance(2, 2, [[[1, 0]], [[0, 1]], [[1, 1]]])
    verdict = is_cr_tuple_vs(inst)
    assert not verdict.is_cr
    # solvable: 2 + (1+1+1) - 0; compatible: all of (GF(2)^2)^3 since
    # distinct lines pairwise sum to the whole plane
    assert verdict.dim_solvable == 5
    assert verdict.dim_compatible == 6


def test_coordinatize_klein():
    alg = power_algebra(zmod_group(2), 2)
    chart = coordinatize(alg)
    assert chart.p == 2 and chart.dim == 2
    zero = chart.from_vector[(0, 0)]
    assert zero == 0
    # the chart is an isomorphism onto GF(2)^2
    for x in range(4):
        for y in range(4):
            s = alg.apply("add", x, y)
            vx, vy = chart.to_vector[x], chart.to_vector[y]
            assert chart.to_vector[s] == tuple(
                (a + b) % 2 for a, b in zip(vx, vy)
            )


def test_coordinatize_rejects_z4():
    with pytest.raises(PreconditionError):
        coordinatize(zmod_group(4))


def test_congruence_subspace_round_trip():
    alg = power_algebra(zmod_group(3), 2)
    chart = coordinatize(alg)
    # subgroup congruences of GF(3)^2: each subspace gives cosets
    rng = random.Random(22)
    for _ in range(40):
        w = random_subspace(rng, 3, 2)
        part = subspace_to_partition(chart, w)
        back = congruence_to_subspace(chart, part)
        assert span(back, 3) == span(w, 3)
    # zero block {0,1,3} spans the plane but has only 3 elements
    with pytest.raises(StructureError):
        congruence_to_subspace(
            chart, Partition([0, 0, 1, 0, 1, 1, 1, 1, 1])
        )


def test_coordinatize_gf2_8_checks_its_laws_in_bounded_memory():
    # the associativity check walks blocks of about 2^20 narrow entries;
    # both sides as whole 256^3 intp arrays would take 285 MB
    alg = power_algebra(zmod_group(2), 8)
    alg.table_array("add")
    tracemalloc.start()
    try:
        chart = coordinatize(alg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (chart.p, chart.dim) == (2, 8)
    assert peak < 8 << 20
