"""Nearlattice views and the cover/fringe CR deciders."""

import itertools
import random

import pytest

from crtkit.algebra import FiniteAlgebra, Operation, all_congruences
from crtkit.catalog import (
    boolean_lattice,
    chain_lattice,
    diamond_m3,
    fork_nearlattice,
    two_implication,
    two_majority,
    two_nearlattice,
)
from crtkit.errors import BudgetExceededError, InputError, StructureError
from crtkit.nearlattice import (
    all_down_sets,
    canonical_down_set,
    certify_tuple,
    covers_in_subposet,
    f_of_theta,
    fringe_elements,
    is_cr_tuple_distlattice,
    is_cr_tuple_nearlattice,
    is_cr_tuple_tarski,
    is_interpolable,
    lattice_view,
    make_view,
    solve_via_view,
    tarski_view,
    theta_at,
    theta_of_f,
)
from crtkit.partitions import Partition
from crtkit.systems import brute_force_is_cr_tuple, make_system, solve_system

from helpers import random_closed_subpower, random_distributive_lattice


def random_views(seed, count, max_exp=4):
    rng = random.Random(seed)
    base = two_nearlattice()
    out = []
    while len(out) < count:
        m = rng.randint(2, max_exp)
        alg, _ = random_closed_subpower(rng, base, m, rng.randint(2, 4))
        if alg.size < 2:
            continue
        out.append((make_view(alg), rng))
    return out


def test_make_view_two_element():
    view = make_view(two_nearlattice())
    assert view.top == 1
    assert view.mi_elements == (0,)
    assert view.sigma == (0, 1)


def test_make_view_requires_unique_ternary():
    with pytest.raises(InputError):
        make_view(chain_lattice(3))  # only binary operations
    view = lattice_view(chain_lattice(3))
    assert view.p_count == 2
    unary_meet = FiniteAlgebra(
        3,
        [Operation("meet", 1, (0, 1, 2)), chain_lattice(3).op("join")],
        name="unary-meet",
    )
    with pytest.raises(InputError):
        lattice_view(unary_meet)


def test_make_view_rejects_majority():
    with pytest.raises(StructureError):
        make_view(two_majority())


def test_lattice_view_rejects_nondistributive():
    with pytest.raises(StructureError):
        lattice_view(diamond_m3())


def test_view_order_and_sigma_invariants():
    for view, _ in random_views(31, 12):
        n = view.alg.size
        # sigma is injective and order-reversing-by-containment
        assert len(set(view.sigma)) == n
        assert view.sigma[view.top] == (1 << view.p_count) - 1
        for a in range(n):
            for b in range(n):
                a_leq_b = bool((view.leq[b] >> a) & 1)
                # a <= b iff sigma(a) subseteq sigma(b)
                assert a_leq_b == (view.sigma[a] & ~view.sigma[b] == 0)
        # sigma lands on down-sets of P
        downs = set(all_down_sets(view))
        for a in range(n):
            assert view.sigma[a] in downs


def test_theta_at_and_masks_galois():
    for view, _ in random_views(32, 10):
        lattice = [c.partition for c in all_congruences(view.alg)]
        for i, p in enumerate(view.mi_elements):
            part = theta_at(view, p)
            assert part.num_blocks == 2
            assert part in lattice
            # the F mask of a two-block congruence contains its own point
            assert (f_of_theta(view, part) >> i) & 1
        # every congruence is recovered from its mask
        for part in lattice:
            assert theta_of_f(view, f_of_theta(view, part)) == part
        with pytest.raises(InputError):
            theta_at(view, view.top)


def test_certify_tuple_rejects_noncongruences():
    view = make_view(fork_nearlattice()[0])
    good = theta_at(view, view.mi_elements[0])
    certified = certify_tuple(view, [good])
    assert certified[0][0] == good
    bad = Partition([0, 0, 1])  # merges incomparable elements only
    if theta_of_f(view, f_of_theta(view, bad)) != bad:
        with pytest.raises(StructureError):
            certify_tuple(view, [bad])
    with pytest.raises(InputError):
        certify_tuple(view, [])


def test_solve_via_view_sound_and_complete():
    for view, rng in random_views(33, 10):
        lattice = [c.partition for c in all_congruences(view.alg)]
        n = view.alg.size
        for _ in range(40):
            k = rng.randint(2, 3)
            thetas = [rng.choice(lattice) for _ in range(k)]
            meet = thetas[0]
            for t in thetas[1:]:
                meet = meet.meet(t)
            targets = tuple(rng.randrange(n) for _ in range(k))
            try:
                system = make_system(thetas, targets)
            except InputError:
                continue  # incompatible targets
            got = solve_via_view(view, thetas, targets)
            direct = solve_system(system)
            if got is not None:
                # soundness: a returned element solves the system
                assert all(
                    t.related(got, a) for t, a in zip(thetas, targets)
                )
            if meet.num_blocks == n:
                # completeness when members intersect to the identity
                assert (got is None) == (direct is None)


def test_all_down_sets_matches_enumeration():
    for view, _ in random_views(34, 8):
        downs = all_down_sets(view)
        expected = []
        for mask in range(1 << view.p_count):
            if all(
                view.p_strict_down[i] & ~mask == 0
                for i in range(view.p_count)
                if (mask >> i) & 1
            ):
                expected.append(mask)
        assert downs == expected
    view = lattice_view(boolean_lattice(4))
    with pytest.raises(BudgetExceededError):
        all_down_sets(view, budget=10)


def test_fringe_elements_definition():
    for view, _ in random_views(35, 10):
        downs = set(all_down_sets(view))
        image = set(view.sigma)
        fringe = fringe_elements(view)
        brute = []
        for s in sorted(downs - image):
            exts = [
                t for t in downs
                if t != s and t & ~s and (t & ~s).bit_count() == 1 and t | s == t
            ]
            if all(t in image for t in exts):
                brute.append(s)
        assert fringe == brute


def test_fork_is_the_minimal_failure():
    alg, coords = fork_nearlattice()
    assert coords == [(0, 1), (1, 0), (1, 1)]
    view = make_view(alg)
    assert sorted(view.mi_elements) == [0, 1]
    assert fringe_elements(view) == [0]
    p1 = theta_at(view, view.mi_elements[0])
    p2 = theta_at(view, view.mi_elements[1])
    verdict = is_cr_tuple_nearlattice(view, [p1, p2])
    assert not verdict.is_cr
    assert verdict.reason == "fringe"
    assert verdict.detail == ()
    assert not brute_force_is_cr_tuple([p1, p2]).is_cr


def test_nearlattice_decider_matches_brute():
    checked = 0
    for view, rng in random_views(36, 15):
        lattice = [c.partition for c in all_congruences(view.alg)]
        pool = [
            list(t)
            for k in (2, 3)
            for t in itertools.combinations(lattice, k)
        ]
        rng.shuffle(pool)
        for thetas in pool[:25]:
            got = is_cr_tuple_nearlattice(view, thetas)
            want = brute_force_is_cr_tuple(thetas)
            assert got.is_cr == want.is_cr, (view.alg.name, thetas)
            checked += 1
    assert checked > 150


def test_distlattice_decider_matches_brute():
    rng = random.Random(37)
    checked = 0
    for _ in range(12):
        alg = random_distributive_lattice(rng, rng.choice([3, 4]), 3)
        lattice = [c.partition for c in all_congruences(alg)]
        pool = [
            list(t)
            for k in (2, 3)
            for t in itertools.combinations(lattice, k)
        ]
        rng.shuffle(pool)
        for thetas in pool[:20]:
            got = is_cr_tuple_distlattice(alg, thetas)
            want = brute_force_is_cr_tuple(thetas)
            assert got.is_cr == want.is_cr
            checked += 1
    assert checked > 100


def test_distlattice_agrees_with_generic_view():
    rng = random.Random(38)
    for _ in range(8):
        alg = random_distributive_lattice(rng, 3, 3)
        view = lattice_view(alg)
        lattice = [c.partition for c in all_congruences(alg)]
        for _ in range(20):
            thetas = [rng.choice(lattice) for _ in range(rng.randint(2, 3))]
            assert (
                is_cr_tuple_distlattice(alg, thetas).is_cr
                == is_cr_tuple_nearlattice(view, thetas).is_cr
            )


def test_chain3_cover_failure():
    alg = chain_lattice(3)
    thetas = [Partition([0, 1, 1]), Partition([0, 0, 1])]
    verdict = is_cr_tuple_distlattice(alg, thetas)
    assert not verdict.is_cr
    assert verdict.reason == "cover"
    assert verdict.detail == (1, 0)


def test_tarski_view_antichain():
    view = tarski_view(two_implication())
    assert view.p_count == 1
    big, _ = random_closed_subpower(
        random.Random(39), two_implication(), 3, 3
    )
    view3 = tarski_view(big)
    for i in range(view3.p_count):
        assert view3.p_strict_down[i] == 0


def test_tarski_decider_matches_brute():
    rng = random.Random(40)
    checked = 0
    for _ in range(12):
        alg, _ = random_closed_subpower(rng, two_implication(), rng.randint(2, 4), 3)
        if alg.size < 2:
            continue
        lattice = [c.partition for c in all_congruences(alg)]
        for _ in range(25):
            thetas = [rng.choice(lattice) for _ in range(rng.randint(2, 3))]
            got = is_cr_tuple_tarski(alg, thetas)
            want = brute_force_is_cr_tuple(thetas)
            assert got.is_cr == want.is_cr
            checked += 1
    assert checked > 100
    with pytest.raises(BudgetExceededError):
        is_cr_tuple_tarski(
            alg,
            [lattice[0], lattice[-1]],
            budget=0,
        )


def test_canonical_down_set_and_interpolation():
    view = make_view(fork_nearlattice()[0])
    p1 = theta_at(view, view.mi_elements[0])
    p2 = theta_at(view, view.mi_elements[1])
    certified = certify_tuple(view, [p1, p2])
    # targets (0, 1): want first coordinate of 0, second of 1 -> empty mask
    s = canonical_down_set(view, certified, (0, 1))
    assert s == 0
    assert view.image.get(s) is None
    assert is_interpolable(view, 0, certified[0][1])
    assert is_interpolable(view, 0, certified[1][1])


def test_covers_in_subposet():
    view = lattice_view(chain_lattice(4))
    full = (1 << view.p_count) - 1
    covers = covers_in_subposet(view, full)
    # P of a 4-chain is a 3-chain: two covering pairs
    assert len(covers) == 2
    for i, j in covers:
        assert (view.p_strict_down[i] >> j) & 1
    # dropping the middle point leaves one long cover
    middle = [j for i, j in covers if any(i2 == j for i2, j2 in covers)]
    sub = full & ~sum(1 << j for j in middle)
    assert len(covers_in_subposet(view, sub)) == 1
