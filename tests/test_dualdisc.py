"""Cross calculus and the dual-discriminator CR decider."""

import itertools
import random

import pytest

from crtkit.algebra import FiniteAlgebra, Operation, all_congruences
from crtkit.catalog import chain_lattice, power_algebra, two_majority, zmod_group, zmod_ring
from crtkit.dualdisc import _inside_composition, is_cr_tuple_dualdisc, projections_full_or_cross
from crtkit.errors import InputError, PreconditionError, StructureError
from crtkit.partitions import Partition
from crtkit.systems import brute_force_is_cr_tuple

from crosses import (
    Cross,
    all_crosses,
    compose_crosses,
    cross_closure,
    cross_contains,
    crosses_containing,
    generates,
    intersect_crosses,
    irreducible_crosses,
    make_cross,
)
from helpers import (
    random_closed_subpower,
    random_distributive_lattice,
    reference_dualdisc,
    reference_projections_full_or_cross,
    relation_product,
    sigma_above,
)


def test_make_cross_normalizes():
    c = make_cross((2, 3, 2), 1, 2, 0, 1)
    assert (c.i, c.a, c.j, c.b) == (0, 1, 1, 2)
    assert make_cross((2, 2), 0, 1, 1, 0) == Cross(0, 1, 1, 0)
    with pytest.raises(InputError):
        make_cross((2, 2), 0, 0, 0, 1)
    with pytest.raises(InputError):
        make_cross((2, 2), 0, 2, 1, 0)
    with pytest.raises(InputError):
        make_cross((2, 2), 0, 0, 2, 0)


def test_cross_contains():
    c = make_cross((2, 2, 2), 0, 1, 2, 0)
    assert cross_contains(c, (1, 0, 1))
    assert cross_contains(c, (0, 1, 0))
    assert not cross_contains(c, (0, 1, 1))


def test_all_crosses_count():
    assert len(list(all_crosses((2, 2, 2)))) == 12
    assert len(list(all_crosses((2, 2, 2, 2)))) == 24
    assert len(list(all_crosses((2, 3)))) == 6


def test_crosses_containing_and_intersect_inverse():
    shape = (2, 2, 2)
    cube = list(itertools.product(range(2), repeat=3))
    rng = random.Random(50)
    for _ in range(60):
        sample = rng.sample(cube, rng.randint(1, 8))
        family = crosses_containing(shape, sample)
        assert all(
            all(cross_contains(c, t) for t in sample) for c in family
        )
        hull = intersect_crosses(shape, family)
        assert set(sample) <= hull


def test_compose_crosses_soundness():
    shape = (2, 2, 2)
    crosses = list(all_crosses(shape))
    composed_pairs = 0
    for c1, c2 in itertools.product(crosses, repeat=2):
        out = compose_crosses(c1, c2)
        s1 = {t for t in itertools.product(range(2), repeat=3) if cross_contains(c1, t)}
        s2 = {t for t in itertools.product(range(2), repeat=3) if cross_contains(c2, t)}
        if out is None:
            keys1 = {c1.i: c1.a, c1.j: c1.b}
            keys2 = {c2.i: c2.a, c2.j: c2.b}
            shared = set(keys1) & set(keys2)
            assert len(shared) != 1 or all(keys1[s] == keys2[s] for s in shared)
            continue
        composed_pairs += 1
        so = {t for t in itertools.product(range(2), repeat=3) if cross_contains(out, t)}
        assert s1 & s2 <= so
    assert composed_pairs > 0


def test_cross_closure_properties():
    shape = (2, 2, 2)
    crosses = list(all_crosses(shape))
    rng = random.Random(51)
    for _ in range(80):
        basis = frozenset(rng.sample(crosses, rng.randint(1, 4)))
        closed = cross_closure(basis)
        assert basis <= closed
        assert cross_closure(closed) == closed
        # every member of the closure contains the basis intersection
        hull = intersect_crosses(shape, basis)
        for c in closed:
            assert all(cross_contains(c, t) for t in hull)


def test_irreducibles_and_generation_on_subpower_families():
    # quantify over families cut out by subdirect tuple sets with
    # full-or-cross projections; arbitrary closed families need not be
    # regenerated by their irreducibles
    shape = (2, 2, 2)
    crosses = list(all_crosses(shape))
    cube = list(itertools.product(range(2), repeat=3))
    rng = random.Random(52)
    families = 0
    for _ in range(200):
        sample = rng.sample(cube, rng.randint(2, 8))
        if not projections_full_or_cross(shape, sample):
            continue
        hull = intersect_crosses(shape, crosses_containing(shape, sample))
        family = crosses_containing(shape, hull)
        families += 1
        assert cross_closure(family) == family
        irr = irreducible_crosses(family)
        assert irr <= family
        assert cross_closure(irr) == family
        assert generates(irr, family)
        for c in irr:
            assert not generates(irr - {c}, family)
        assert generates(family, family)
        outside = [c for c in crosses if c not in family]
        if outside:
            assert not generates(irr | {outside[0]}, family)
    assert families > 20


def test_projections_full_or_cross():
    shape = (2, 2)
    square = list(itertools.product(range(2), repeat=2))
    assert projections_full_or_cross(shape, square)
    # a single cross trace passes
    c = make_cross(shape, 0, 0, 1, 1)
    trace = [t for t in square if cross_contains(c, t)]
    assert projections_full_or_cross(shape, trace)
    # a non-subdirect set fails on the unary projection
    assert not projections_full_or_cross(shape, [(0, 0), (0, 1)])
    # the graph of equality on 2x2 is neither full nor a cross
    assert not projections_full_or_cross(shape, [(0, 0), (1, 1)])


def test_projections_full_or_cross_matches_the_reference():
    # every subset of the cube, then per shape: the full product, each cross
    # trace, intersections of a few crosses, random subsets and, on two
    # coordinates, every subset of a trace's size s_0 + s_1 - 1
    cube = list(itertools.product(range(2), repeat=3))
    cases = [((2, 2, 2), [t for k, t in enumerate(cube) if mask >> k & 1]) for mask in range(256)]
    rng = random.Random(61)
    for shape in ((3, 3), (2, 4), (3, 3, 2), (4, 4, 3)):
        points = list(itertools.product(*(range(s) for s in shape)))
        crosses = list(all_crosses(shape))
        samples = [points, *(intersect_crosses(shape, [c]) for c in crosses)]
        samples += [intersect_crosses(shape, rng.sample(crosses, rng.randint(2, 4))) for _ in range(100)]
        samples += [rng.sample(points, rng.randint(1, len(points))) for _ in range(300)]
        if len(shape) == 2:
            samples += itertools.combinations(points, shape[0] + shape[1] - 1)
        cases += [(shape, sample) for sample in samples]
    verdicts = []
    for shape, sample in cases:
        want = reference_projections_full_or_cross(shape, sample)
        assert projections_full_or_cross(shape, sample) == want, (shape, sample)
        verdicts.append(want)
    assert verdicts.count(True) > 100 and verdicts.count(False) > 100


def test_sigma_above():
    alg = chain_lattice(4)
    mi = sigma_above(alg, Partition.identity(4))
    # Con(4-chain) is the boolean cube on three covers: three coatoms
    assert len(mi) == 3
    assert all(m.num_blocks == 2 for m in mi)
    finer = sigma_above(alg, Partition([0, 0, 1, 2]))
    assert all(Partition([0, 0, 1, 2]).refines(m) for m in finer)
    assert len(finer) == 2


def test_inside_composition_matches_relation_product():
    rng = random.Random(52)
    for _ in range(2000):
        n = rng.randint(1, 7)
        lam, mu, s = (
            Partition([rng.randrange(n) for _ in range(n)]) for _ in range(3)
        )
        product = relation_product(lam, mu)
        want = all((x, y) in product for b in s.blocks() for x in b for y in b)
        assert _inside_composition(lam, mu, s) == want, (lam, mu, s)


def test_dualdisc_matches_brute_on_majority_subpowers():
    rng = random.Random(53)
    checked = 0
    for _ in range(25):
        alg, _ = random_closed_subpower(rng, two_majority(), rng.randint(2, 4), 3)
        if alg.size < 3:
            continue
        lattice = [c.partition for c in all_congruences(alg)]
        pool = [
            list(t)
            for k in (2, 3)
            for t in itertools.combinations(lattice, k)
        ]
        rng.shuffle(pool)
        for thetas in pool[:20]:
            got = is_cr_tuple_dualdisc(alg, thetas)
            want = brute_force_is_cr_tuple(thetas)
            assert got.is_cr == want.is_cr, (alg.name, thetas)
            checked += 1
            if not got.is_cr:
                lam, mu = got.failing_pair
                assert relation_product(lam, mu) != relation_product(mu, lam)
    assert checked > 150


def test_dualdisc_matches_brute_on_lattices():
    rng = random.Random(54)
    checked = 0
    for _ in range(15):
        alg = random_distributive_lattice(rng, rng.choice([3, 4]), 2)
        lattice = [c.partition for c in all_congruences(alg)]
        for _ in range(20):
            thetas = [rng.choice(lattice) for _ in range(rng.randint(2, 4))]
            got = is_cr_tuple_dualdisc(alg, thetas)
            want = brute_force_is_cr_tuple(thetas)
            assert got.is_cr == want.is_cr
            checked += 1
    assert checked > 200


def test_dualdisc_rejects_noncongruence():
    alg = chain_lattice(3)
    with pytest.raises(StructureError):
        is_cr_tuple_dualdisc(alg, [Partition([0, 1, 0])])
    with pytest.raises(InputError):
        is_cr_tuple_dualdisc(alg, [])
    with pytest.raises(InputError):
        is_cr_tuple_dualdisc(alg, [Partition([0, 1])])


def test_dualdisc_names_a_nondistributive_lattice():
    # Con of the Klein group is M3: its congruences are no intersections of
    # the meet-irreducibles computed under the distributive precondition
    klein = power_algebra(zmod_group(2), 2)
    with pytest.raises(PreconditionError, match="member 1 is a congruence .* not distributive"):
        is_cr_tuple_dualdisc(klein, [Partition([0, 0, 1, 1]), Partition([0, 1, 0, 1])])
    with pytest.raises(StructureError, match="member 1 is not a congruence"):
        is_cr_tuple_dualdisc(klein, [Partition([0, 0, 0, 1])])


def test_dualdisc_chain3_failing_pair():
    alg = chain_lattice(3)
    thetas = [Partition([0, 1, 1]), Partition([0, 0, 1])]
    verdict = is_cr_tuple_dualdisc(alg, thetas)
    assert not verdict.is_cr
    lam, mu = verdict.failing_pair
    assert {lam, mu} == {Partition([0, 0, 1]), Partition([0, 1, 1])}


def test_dualdisc_refuses_algebras_outside_dual_discriminator_varieties():
    # Con is distributive in both, but neither lies in a dual discriminator
    # variety. On the unary algebra the decision read "CR" for a NOT-CR
    # tuple: its quotient by 0|1|23 has three blocks, and the elements' rows
    # of labels are not cut out by their pair projections.
    unary = FiniteAlgebra(4, [Operation("f", 1, (1, 0, 3, 3))], name="u4")
    thetas = [Partition([0, 0, 1, 1]), Partition([0, 0, 1, 0]), Partition([0, 1, 2, 2])]
    assert not brute_force_is_cr_tuple(thetas).is_cr
    with pytest.raises(PreconditionError, match="no dual discriminator variety"):
        is_cr_tuple_dualdisc(unary, thetas)
    # Z12 maps onto Z4, which is subdirectly irreducible but not simple:
    # residues mod 4 determine those mod 2, a pair projection that is no cross
    z12 = zmod_ring(12)
    mod = [Partition([x % m for x in range(12)]) for m in (4, 3)]
    with pytest.raises(PreconditionError, match="no dual discriminator variety"):
        is_cr_tuple_dualdisc(z12, mod)


def test_dualdisc_accepts_simple_factors_beyond_two_elements():
    # Z30 is the product of the fields Z2, Z3 and Z5, each with a
    # discriminator term; its tuples are all CR (it is arithmetic)
    z30 = zmod_ring(30)
    lattice = [c.partition for c in all_congruences(z30)]
    for thetas in itertools.combinations(lattice, 3):
        assert is_cr_tuple_dualdisc(z30, list(thetas)).is_cr
    assert is_cr_tuple_dualdisc(z30, [Partition([x % 6 for x in range(30)])]).is_cr


def test_quotient_first_decision_keeps_the_verdict_and_failing_pair():
    # the decision on alg / delta against the decision on the whole algebra,
    # on tuples of single-coordinate kernels of drawn subpowers of 2maj: the
    # failing pair, lifted back, is the one the whole-algebra decision names,
    # so the REASON line is the same
    rng = random.Random(55)
    verdicts = set()
    for _ in range(30):
        alg, coords = random_closed_subpower(rng, two_majority(), rng.randint(3, 5), rng.randint(3, 6))
        m = len(coords[0])
        kernels = [Partition([c[i] for c in coords]) for i in range(m)]
        thetas = rng.sample(kernels, rng.randint(2, m))
        got = is_cr_tuple_dualdisc(alg, thetas)
        want = reference_dualdisc(alg, thetas)
        assert (got.is_cr, got.failing_pair) == want, (alg.name, thetas)
        verdicts.add(got.is_cr)
    assert verdicts == {True, False}
