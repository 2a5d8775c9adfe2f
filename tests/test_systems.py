"""Congruence systems and the brute-force CR decision, against a naive model."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crtkit.algebra import as_partitions, certify
from crtkit.catalog import chain_lattice
from crtkit.errors import BudgetExceededError, InputError
from crtkit.partitions import Partition
from crtkit.systems import (
    brute_force_is_cr_tuple,
    is_cr_pair,
    lift_witness,
    make_system,
    quotient_reduce,
    solve_system,
)

from helpers import reference_brute_force_is_cr_tuple, relation_product, set_partitions


def test_system_and_verdict_records_are_immutable():
    # chain3's two nontrivial congruences: the system (0, 2) is unsolvable
    parts = [Partition([0, 1, 1]), Partition([0, 0, 1])]
    system = make_system(parts, [0, 2])
    verdict = brute_force_is_cr_tuple(parts)
    assert (system.k, solve_system(system)) == (2, None)
    assert (bool(verdict), verdict.witness, verdict.line) == (False, (0, 2), "WITNESS: 0 2")
    assert bool(brute_force_is_cr_tuple(parts[:1])) is True
    for record, field in ((system, "targets"), (verdict, "is_cr")):
        with pytest.raises(AttributeError):
            setattr(record, field, None)


def naive_is_cr(parts):
    """Direct definition: every compatible target tuple has a solution."""
    n = parts[0].n
    k = len(parts)
    joins = {
        (i, j): parts[i].join(parts[j])
        for i in range(k) for j in range(i + 1, k)
    }
    for targets in itertools.product(range(n), repeat=k):
        if any(
            not joins[i, j].related(targets[i], targets[j])
            for i in range(k) for j in range(i + 1, k)
        ):
            continue
        if not any(
            all(p.related(x, a) for p, a in zip(parts, targets))
            for x in range(n)
        ):
            return False
    return True


def test_make_system_validations():
    p = Partition([0, 0, 1])
    q = Partition([0, 1, 1])
    sys_ok = make_system([p, q], [0, 2])  # join is total, any targets work
    assert sys_ok.k == 2
    with pytest.raises(InputError):
        make_system([], [])
    with pytest.raises(InputError):
        make_system([p, q], [0])
    with pytest.raises(InputError):
        make_system([p, q], [0, 3])
    with pytest.raises(InputError):
        make_system([p, Partition([0, 1])], [0, 0])
    # incompatible targets: join of p with itself is p, and 0 !~ 2
    with pytest.raises(InputError):
        make_system([p, p], [0, 2])


@pytest.mark.parametrize("target", ["a", 1.0], ids=["str", "float"])
def test_make_system_refuses_a_target_that_is_not_an_int(target):
    # "a" leaked TypeError from the range test; 1.0 was accepted, then
    # leaked TypeError when the system was solved
    with pytest.raises(InputError, match=f"^target {target!r} is not an int in 0..1$"):
        make_system([Partition([0, 1])], [target])


@pytest.mark.parametrize(
    "call",
    [
        lambda: make_system(5, [0]),
        lambda: brute_force_is_cr_tuple(5),
        lambda: certify(chain_lattice(3), 5),
        lambda: as_partitions(Partition([0, 1])),
    ],
    ids=["make_system", "brute_force", "certify", "as_partitions"],
)
def test_a_congruence_tuple_that_is_not_iterable_is_refused_at_intake(call):
    # each leaked "object is not iterable" from as_partitions or certify
    got = r"(5|Partition\(\[0, 1\]\))"
    with pytest.raises(InputError, match=f"^expected a sequence of congruences, got {got}$"):
        call()


def test_solve_system():
    p = Partition([0, 0, 1, 1])
    q = Partition([0, 1, 0, 1])
    for a, b in itertools.product(range(4), repeat=2):
        x = solve_system(make_system([p, q], [a, b]))
        assert x is not None
        assert p.related(x, a) and q.related(x, b)
        # least solution
        assert not any(
            p.related(y, a) and q.related(y, b) for y in range(x)
        )
    chain_sys = make_system(
        [Partition([0, 0, 1]), Partition([0, 1, 1])], [2, 0]
    )
    assert solve_system(chain_sys) is None


def test_brute_force_matches_naive_pairs_n4():
    parts = set_partitions(4)
    for p in parts:
        for q in parts:
            verdict = brute_force_is_cr_tuple([p, q])
            assert verdict.is_cr == naive_is_cr([p, q])
            assert bool(verdict) == verdict.is_cr


def test_brute_force_matches_naive_triples_n4():
    rng = random.Random(3)
    parts = set_partitions(4)
    for _ in range(300):
        trio = [rng.choice(parts) for _ in range(3)]
        assert brute_force_is_cr_tuple(trio).is_cr == naive_is_cr(trio)


def test_witness_is_lex_least_unsolvable():
    p = Partition([0, 1, 1])
    q = Partition([0, 0, 1])
    verdict = brute_force_is_cr_tuple([p, q])
    assert not verdict.is_cr
    assert verdict.witness == (0, 2)
    assert verdict.checked > 0
    # swapping the pair swaps the least witness
    assert brute_force_is_cr_tuple([q, p]).witness == (2, 0)
    # replay: the witness system is compatible but unsolvable
    system = make_system([p, q], verdict.witness)
    assert solve_system(system) is None


def test_witness_replay_random():
    rng = random.Random(5)
    parts = set_partitions(5)
    seen_not_cr = 0
    for _ in range(400):
        k = rng.randint(2, 4)
        thetas = [rng.choice(parts) for _ in range(k)]
        verdict = brute_force_is_cr_tuple(thetas)
        if verdict.is_cr:
            assert verdict.witness is None
            continue
        seen_not_cr += 1
        system = make_system(thetas, verdict.witness)
        assert solve_system(system) is None
    assert seen_not_cr > 20


@st.composite
def partition_tuple(draw, max_n=7, min_k=1, max_k=4):
    n = draw(st.integers(1, max_n))
    k = draw(st.integers(min_k, max_k))
    labels = st.lists(st.integers(0, n - 1), min_size=n, max_size=n)
    return [Partition(draw(labels)) for _ in range(k)]


@settings(max_examples=400, deadline=None)
@given(partition_tuple())
def test_search_matches_reference_enumeration(thetas):
    got = brute_force_is_cr_tuple(thetas)
    want = reference_brute_force_is_cr_tuple(thetas)
    assert (got.is_cr, got.witness) == (want.is_cr, want.witness)


@settings(max_examples=200, deadline=None)
@given(partition_tuple(max_n=10, min_k=2, max_k=5))
def test_search_matches_reference_enumeration_on_wider_tuples(thetas):
    got = brute_force_is_cr_tuple(thetas)
    want = reference_brute_force_is_cr_tuple(thetas)
    assert (got.is_cr, got.witness) == (want.is_cr, want.witness)


def test_single_congruence_always_cr():
    v = brute_force_is_cr_tuple([Partition([0, 1, 0, 2])])
    assert v.is_cr and v.witness is None and v.checked == 0


def test_budget_exhaustion(monkeypatch):
    thetas = [Partition(list(range(6))) for _ in range(3)]
    monkeypatch.setenv("CRTKIT_BUDGET", "5")
    with pytest.raises(BudgetExceededError) as info:
        brute_force_is_cr_tuple(thetas)
    assert info.value.budget == 5
    assert info.value.checked == 5


def test_budget_runs_out_below_the_second_coordinate(monkeypatch):
    # four identities: each first label costs one node at each of depths 0,
    # 1 and 2, so the search takes 18 nodes and the 18th is at depth 2
    thetas = [Partition(list(range(6))) for _ in range(4)]
    assert tuple(brute_force_is_cr_tuple(thetas)) == (True, None, 18)
    monkeypatch.setenv("CRTKIT_BUDGET", "18")
    assert brute_force_is_cr_tuple(thetas).checked == 18
    monkeypatch.setenv("CRTKIT_BUDGET", "17")
    with pytest.raises(BudgetExceededError) as info:
        brute_force_is_cr_tuple(thetas)
    assert (info.value.checked, info.value.budget) == (17, 17)


def test_checked_counts_search_nodes():
    # identities: each first label leaves one label per later domain, and the
    # last coordinate is decided without nodes of its own
    thetas = [Partition(list(range(6))) for _ in range(3)]
    assert brute_force_is_cr_tuple(thetas).checked == 6 + 6
    # the lex-least witness (0, 2) is found at the first node
    p = Partition([0, 1, 1])
    q = Partition([0, 0, 1])
    assert brute_force_is_cr_tuple([p, q]).checked == 1


def test_is_cr_pair_is_permutability():
    parts = set_partitions(4)
    for p in parts:
        for q in parts:
            assert is_cr_pair(p, q) == (relation_product(p, q) == relation_product(q, p))
            assert is_cr_pair(p, q) == brute_force_is_cr_tuple([p, q]).is_cr


def test_quotient_reduce_preserves_verdict():
    rng = random.Random(9)
    parts = set_partitions(5)
    for _ in range(200):
        thetas = [rng.choice(parts) for _ in range(rng.randint(2, 3))]
        delta, reduced = quotient_reduce(thetas)
        meet = thetas[0]
        for t in thetas[1:]:
            meet = meet.meet(t)
        assert delta == meet
        # members of the reduced tuple intersect to the identity
        rmeet = reduced[0]
        for t in reduced[1:]:
            rmeet = rmeet.meet(t)
        assert rmeet.num_blocks == rmeet.n
        assert (
            brute_force_is_cr_tuple(reduced).is_cr
            == brute_force_is_cr_tuple(thetas).is_cr
        )


def test_quotient_reduce_identity_meet_passthrough():
    p = Partition([0, 0, 1, 2])
    q = Partition([0, 1, 1, 2])
    delta, reduced = quotient_reduce([p, q])
    assert delta == Partition.identity(4)
    assert reduced == [p, q]


def test_lift_witness():
    delta = Partition([0, 0, 1, 2, 2])
    assert lift_witness(delta, (0, 1, 2)) == (0, 2, 3)
    # lifted witness of a reduced failure is a failure of the original
    p = Partition([0, 0, 1, 1, 2, 2])
    q = Partition([0, 0, 0, 1, 1, 1])
    r = Partition([0, 1, 1, 2, 2, 0])
    thetas = [p.join(r), q.join(r)]  # some tuple with a shared refinement
    delta, reduced = quotient_reduce(thetas)
    rv = brute_force_is_cr_tuple(reduced)
    ov = brute_force_is_cr_tuple(thetas)
    assert rv.is_cr == ov.is_cr
    if not rv.is_cr:
        lifted = lift_witness(delta, rv.witness)
        assert solve_system(make_system(thetas, lifted)) is None
