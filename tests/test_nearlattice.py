"""Nearlattice views and the cover/fringe CR deciders."""

import itertools
import random
import time
import tracemalloc

import pytest

import crtkit.nearlattice
from crtkit.algebra import FiniteAlgebra, Operation, all_congruences
from crtkit.catalog import (
    boolean_lattice,
    chain_lattice,
    diamond_m3,
    fork_nearlattice,
    index_to_tuple,
    power_algebra,
    two_implication,
    two_lattice,
    two_majority,
    two_nearlattice,
)
from crtkit.deciders import DECIDERS
from crtkit.errors import InputError, StructureError
from crtkit.nearlattice import (
    canonical_down_set,
    certify_tuple,
    f_of_theta,
    is_cr_tuple_distlattice,
    is_cr_tuple_nearlattice,
    is_cr_tuple_tarski,
    is_interpolable,
    lattice_view,
    make_view,
    solve_via_view,
    tarski_view,
    theta_of_f,
)
from crtkit.partitions import Partition, canonical_labels
from crtkit.systems import brute_force_is_cr_tuple, make_system, solve_system

from helpers import (
    all_down_sets,
    covers_in_subposet,
    fringe_elements,
    random_closed_subpower,
    random_distributive_lattice,
    reference_distlattice,
    reference_nearlattice,
    reference_tarski,
    reference_view,
    theta_at,
)


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
    with pytest.raises(InputError, match="^chain3 has 0 ternary operations; need exactly one$"):
        make_view(chain_lattice(3))  # only binary operations
    n = two_nearlattice().op("n")
    twice = FiniteAlgebra(2, [n, Operation("n2", 3, n.table)], name="twice")
    with pytest.raises(InputError, match="^twice has 2 ternary operations; need exactly one$"):
        make_view(twice)
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


VIEW_FIELDS = ("top", "leq", "mi_elements", "p_strict_down", "sigma", "image")
CONSTRUCTORS = {"nearlattice": make_view, "lattice": lattice_view, "tarski": tarski_view}


def differential_algebras(seed):
    """(kind, algebra) pairs: catalog algebras, drawn subpowers of 2N, 2lat
    and 2imp, and random distributive lattices."""
    rng = random.Random(seed)
    out = [
        ("nearlattice", two_nearlattice()),
        ("nearlattice", fork_nearlattice()[0]),
        ("nearlattice", power_algebra(two_nearlattice(), 3)),
        ("lattice", two_lattice()),
        ("lattice", chain_lattice(5)),
        ("lattice", boolean_lattice(3)),
        ("tarski", two_implication()),
        ("tarski", power_algebra(two_implication(), 3)),
    ]
    bases = {"nearlattice": two_nearlattice(), "lattice": two_lattice(), "tarski": two_implication()}
    for _ in range(30):
        for kind, base in bases.items():
            alg, _ = random_closed_subpower(rng, base, rng.randint(1, 4), rng.randint(1, 4))
            out.append((kind, alg))
        out.append(("lattice", random_distributive_lattice(rng, rng.choice([3, 4]), 3)))
    return rng, out


def meets_to_identity(thetas):
    meet = thetas[0]
    for t in thetas[1:]:
        meet = meet.meet(t)
    return meet.num_blocks == meet.n


def test_views_match_reference():
    _, algebras = differential_algebras(41)
    for kind, alg in algebras:
        view = CONSTRUCTORS[kind](alg)
        want = reference_view(alg, kind)
        for field in VIEW_FIELDS:
            assert getattr(view, field) == getattr(want, field), (kind, alg.name, field)


def test_decisions_match_reference_and_brute():
    rng, algebras = differential_algebras(42)
    pushed = 0
    for kind, alg in algebras:
        view = CONSTRUCTORS[kind](alg)
        ref_view = reference_view(alg, kind)
        lattice = [c.partition for c in all_congruences(alg)]
        for _ in range(8):
            thetas = [rng.choice(lattice) for _ in range(rng.randint(1, 3))]
            want = brute_force_is_cr_tuple(thetas).is_cr
            got = is_cr_tuple_nearlattice(view, thetas)
            ref = reference_nearlattice(ref_view, thetas)
            assert got.is_cr == ref.is_cr == want, (kind, alg.name, thetas)
            if meets_to_identity(thetas):
                assert (got.reason, got.detail) == (ref.reason, ref.detail)
            else:
                pushed += 1
            if kind == "lattice":
                got = is_cr_tuple_distlattice(alg, thetas)
                ref = reference_distlattice(alg, thetas)
                assert (got.is_cr, got.reason, got.detail) == (want, ref.reason, ref.detail)
            elif kind == "tarski":
                assert is_cr_tuple_tarski(alg, thetas).is_cr == reference_tarski(alg, thetas).is_cr == want
    assert pushed > 200


def test_reason_after_a_push_names_points_of_p():
    rng, algebras = differential_algebras(43)
    seen = set()
    for kind, alg in algebras:
        view = CONSTRUCTORS[kind](alg)
        lattice = [c.partition for c in all_congruences(alg)]
        for _ in range(8):
            thetas = [rng.choice(lattice) for _ in range(rng.randint(2, 3))]
            if meets_to_identity(thetas):
                continue
            verdict = is_cr_tuple_nearlattice(view, thetas)
            if verdict.is_cr:
                continue
            seen.add(verdict.reason)
            assert set(verdict.detail) <= set(view.mi_elements)
            if verdict.reason == "cover":
                p, q = verdict.detail
                assert p != q and (view.leq[p] >> q) & 1
                i, j = view.mi_elements.index(p), view.mi_elements.index(q)
                fmasks = [fmask for _, fmask in certify_tuple(view, thetas)]
                assert not any((f >> i) & 1 and (f >> j) & 1 for f in fmasks)
    assert seen == {"cover", "fringe"}


def test_view_refusals_name_the_failed_certificate():
    with pytest.raises(StructureError, match="M3: meet is not coordinatewise x and y at arguments"):
        lattice_view(diamond_m3())
    # n of the 3-chain with n(2, 1, 0) moved from 1 to 2
    table = [max(min(x, y), z) for x in range(3) for y in range(3) for z in range(3)]
    table[2 * 9 + 1 * 3 + 0] = 2
    bent = FiniteAlgebra(3, [Operation("n", 3, tuple(table))], name="bent")
    with pytest.raises(StructureError, match=r"bent: n is not coordinatewise \(x and y\) or z at arguments \(2, 1, 0\)"):
        make_view(bent)
    meet_as_imp = FiniteAlgebra(3, [Operation("imp", 2, chain_lattice(3).op("meet").table)], name="m")
    with pytest.raises(StructureError, match="m: meet-irreducibles do not separate elements; not an implication algebra"):
        tarski_view(meet_as_imp)
    with pytest.raises(
        StructureError,
        match=r"^tuple member 1 is not a congruence of chain3: meet at arguments 0 1 "
        r"separates the related pair 0 2 \(position 1\)$",
    ):
        certify_tuple(lattice_view(chain_lattice(3)), [Partition([0, 1, 0])])


def _bent_n():
    # n of the 3-chain with n(2, 1, 0) moved from 1 to 2: the fault is in the
    # last first argument
    table = [max(min(x, y), z) for x in range(3) for y in range(3) for z in range(3)]
    table[2 * 9 + 1 * 3 + 0] = 2
    return FiniteAlgebra(3, [Operation("n", 3, tuple(table))], name="bent")


def test_certificates_do_not_depend_on_the_block_size(monkeypatch):
    # _certify_op compares sigma in blocks of first arguments; with one
    # first argument a block, every view and the first refusal are the same
    cases = [
        (make_view, fork_nearlattice()[0]),
        (make_view, _bent_n()),
        (lattice_view, power_algebra(two_lattice(), 3)),
        (lattice_view, diamond_m3()),
        (tarski_view, power_algebra(two_implication(), 3)),
    ]

    def outcome(build, alg):
        try:
            view = build(alg)
        except StructureError as exc:
            return str(exc)
        return view.top, view.leq, view.mi_elements, view.p_strict_down, view.sigma

    want = [outcome(*case) for case in cases]
    assert want[1] == "bent: n is not coordinatewise (x and y) or z at arguments (2, 1, 0)"
    monkeypatch.setattr(crtkit.nearlattice, "_CHUNK_BYTES", 1)
    assert [outcome(*case) for case in cases] == want


def test_make_view_certifies_the_rules_it_is_given_constants_included():
    # the engine behind the generator route: the order is read off the join
    # table, and sigma must carry a constant to its one-entry table
    chain = chain_lattice(3)
    rules = [
        ("meet", (0, 0, 0, 1), "x and y"),
        ("join", (0, 1, 1, 1), "x or y"),
        ("top", (1,), "1"),
    ]
    bounded = FiniteAlgebra(3, [*chain.ops, Operation("top", 0, (2,))], name="bounded")
    view = make_view(bounded, join_table=bounded.table_array("join"), rules=rules)
    assert view.sigma == lattice_view(chain).sigma
    bent = FiniteAlgebra(3, [*chain.ops, Operation("top", 0, (1,))], name="bent")
    with pytest.raises(StructureError, match=r"^bent: top is not coordinatewise 1 at arguments \(\)$"):
        make_view(bent, join_table=bent.table_array("join"), rules=rules)
    with pytest.raises(InputError, match="^'top' has arity 0, expected 2$"):
        make_view(bent, join_table=bent.table_array("join"), rules=[("top", (0, 0, 0, 1), "x and y")])


def coordinate_kernel(alg, base, exponent, coords):
    """Equality on the given coordinates of a power coded by power_algebra."""
    return Partition(
        canonical_labels(
            tuple(index_to_tuple(x, base, exponent)[c] for c in coords) for x in range(alg.size)
        )
    )


def _chain400():
    alg = chain_lattice(400)
    return alg, [
        Partition([(x >= 100) + (x >= 200) for x in range(400)]),
        Partition([(x >= 133) + (x >= 300) for x in range(400)]),
    ], DECIDERS["distlat"]


def _lattice8():
    alg = power_algebra(two_lattice(), 8)
    kernels = [coordinate_kernel(alg, 2, 8, c) for c in ((0, 1), (1, 2), (2, 0))]
    return alg, kernels, DECIDERS["distlat"]


def _implication10():
    alg = power_algebra(two_implication(), 10)
    kernels = [coordinate_kernel(alg, 2, 10, c) for c in ((0, 1), (1, 2), (2, 3), (3, 0))]
    return alg, kernels, lambda alg, parts: is_cr_tuple_tarski(alg, parts)


@pytest.mark.parametrize("build", [_chain400, _lattice8, _implication10], ids=["chain400", "2lat8", "2imp10"])
def test_decisions_stay_small_on_large_inputs(build):
    # an n x n x n x |P| array would take about 25 GB on the 400-chain
    # (|P| = 399) and 8 GiB on 2imp^10; the views keep to n^2 work
    alg, parts, decide = build()
    tracemalloc.start()
    try:
        start = time.perf_counter()
        verdict = decide(alg, parts)
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert verdict.is_cr == brute_force_is_cr_tuple(parts).is_cr
    assert peak <= 100 * 2**20
    assert elapsed <= 10.0
