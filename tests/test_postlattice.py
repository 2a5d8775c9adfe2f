"""Two-element classification, witness terms, and routing."""

import itertools
import random
import tracemalloc

import pytest

from crtkit.algebra import (
    App,
    FiniteAlgebra,
    Operation,
    Var,
    all_congruences,
    eval_term,
    term_str,
)
from crtkit.catalog import (
    _lattice_from_order,
    bare_set,
    chain_lattice,
    diamond_m3,
    two_implication,
    two_join_semilattice,
    two_lattice,
    two_majority,
    two_minority,
    two_nearlattice,
)
from crtkit.errors import InputError, PreconditionError, StructureError
from crtkit.nearlattice import make_view
from crtkit.partitions import Partition
from crtkit.postlattice import (
    M_TABLE,
    N_DUAL_TABLE,
    N_TABLE,
    PROJ_X,
    PROJ_Y,
    PROJ_Z,
    S_TABLE,
    _RELATIONS,
    _TARGETS,
    _choice_masks,
    _generator_view,
    _preserves,
    _witness_bfs,
    _witness_term,
    classify,
    route_decide,
    table_of_term,
    ternary_clone,
)
from crtkit.systems import brute_force_is_cr_tuple
from crtkit.terms import reduct
from crtkit.vectorspace import (
    congruence_to_subspace,
    coordinatize,
    subspace_to_partition,
)

from helpers import (
    closed_subpower,
    random_closed_subpower,
    reference_preserves,
    reference_witness_bfs,
)


def two_elem(name, **tables):
    ops = []
    for opname, (arity, fn) in tables.items():
        table = tuple(
            fn(*args) for args in itertools.product(range(2), repeat=arity)
        )
        ops.append(Operation(opname, arity, table))
    return FiniteAlgebra(2, ops, name=name)


S10 = two_elem("s10", f=(3, lambda x, y, z: x & (y | z)))
S00 = two_elem("s00", f=(3, lambda x, y, z: x | (y & z)))
NEG = two_elem("neg01", neg=(1, lambda x: 1 - x))
# its witness of n is k(x, y, z, one): the route certifies a constant too
K1 = two_elem("k1", one=(0, lambda: 1), k=(4, lambda x, y, z, u: ((x & y) | z) & u))


def test_constants_are_the_intended_tables():
    assert PROJ_X == 0xF0 and PROJ_Y == 0xCC and PROJ_Z == 0xAA
    for table, fn in (
        (S_TABLE, lambda x, y, z: x ^ y ^ z),
        (N_TABLE, lambda x, y, z: (x & y) | z),
        (N_DUAL_TABLE, lambda x, y, z: (x | y) & z),
        (M_TABLE, lambda x, y, z: 1 if x + y + z >= 2 else 0),
    ):
        expected = sum(
            fn(x, y, z) << (4 * x + 2 * y + z)
            for x in range(2)
            for y in range(2)
            for z in range(2)
        )
        assert table == expected


def test_table_of_term_projections():
    alg = two_lattice()
    assert table_of_term(alg, Var(0)) == PROJ_X
    assert table_of_term(alg, Var(1)) == PROJ_Y
    assert table_of_term(alg, Var(2)) == PROJ_Z


def test_ternary_clone_join_semilattice():
    clone = ternary_clone(two_join_semilattice())
    assert set(clone) == {
        PROJ_X,
        PROJ_Y,
        PROJ_Z,
        PROJ_X | PROJ_Y,
        PROJ_X | PROJ_Z,
        PROJ_Y | PROJ_Z,
        PROJ_X | PROJ_Y | PROJ_Z,
    }


def test_ternary_clone_sizes_and_membership():
    assert len(ternary_clone(bare_set(2))) == 3
    neg_clone = ternary_clone(NEG)
    assert set(neg_clone) == {
        PROJ_X, PROJ_Y, PROJ_Z,
        PROJ_X ^ 0xFF, PROJ_Y ^ 0xFF, PROJ_Z ^ 0xFF,
    }
    s10_clone = ternary_clone(S10)
    assert len(s10_clone) == 10
    assert N_DUAL_TABLE in s10_clone
    for absent in (S_TABLE, N_TABLE, M_TABLE):
        assert absent not in s10_clone
    imp_clone = ternary_clone(two_implication())
    assert len(imp_clone) == 38
    assert N_TABLE in imp_clone
    for absent in (S_TABLE, N_DUAL_TABLE, M_TABLE):
        assert absent not in imp_clone


def test_clone_witness_terms_reproduce_their_tables():
    for alg in (two_lattice(), two_implication(), S10, two_minority()):
        for table, term in ternary_clone(alg).items():
            assert table_of_term(alg, term) == table


def test_classify_fixtures():
    cases = [
        (two_minority(), "HasS", S_TABLE),
        (two_lattice(), "HasN", N_TABLE),
        (S00, "HasN", N_TABLE),
        (two_implication(), "HasN", N_TABLE),
        (S10, "HasN", N_DUAL_TABLE),
        (two_majority(), "HasM", M_TABLE),
    ]
    for alg, tag, table in cases:
        cls = classify(alg)
        assert cls.tag == tag, alg.name
        assert cls.table == table
        assert table_of_term(alg, cls.witness) == table
    assert classify(NEG).tag == "EssentiallyUnary"
    assert classify(two_join_semilattice()).tag == "SemilatticeFamily"
    assert classify(bare_set(2)).tag == "EssentiallyUnary"


def test_classify_witness_strings():
    assert term_str(classify(two_lattice()).witness) == (
        "(meet (join x2 x3) (join x1 x3))"
    )
    assert term_str(classify(two_majority()).witness) == "(m x1 x2 x3)"
    assert term_str(classify(two_minority()).witness) == "(s x1 x2 x3)"
    assert term_str(classify(two_implication()).witness) == (
        "(imp (imp x1 (imp x2 x3)) x3)"
    )
    assert term_str(classify(S10).witness) == "(f x3 x1 x2)"


def test_classify_requires_two_elements():
    with pytest.raises(InputError):
        classify(chain_lattice(3))


def test_classify_priority_s_beats_the_rest():
    # adding the minority table to any algebra forces HasS
    for base in (two_lattice(), two_majority(), NEG):
        ops = list(base.ops) + [
            Operation("sx", 3, tuple(
                x ^ y ^ z
                for x in range(2) for y in range(2) for z in range(2)
            ))
        ]
        cls = classify(FiniteAlgebra(2, ops, name=base.name + "+s"))
        assert cls.tag == "HasS"


def test_classify_without_witness():
    cls = classify(two_lattice(), with_witness=False)
    assert cls.tag == "HasN" and cls.witness is None and cls.table == N_TABLE


def test_affine_instance_from_minority_square():
    alg, coords = closed_subpower(
        two_minority(), 2, [(0, 0), (0, 1), (1, 0), (1, 1)]
    )
    assert alg.size == 4
    # the derived addition x + y := s(x, y, 0) charts the universe
    add_table = tuple(
        alg.apply("s", x, y, 0) for x in range(4) for y in range(4)
    )
    derived = FiniteAlgebra(4, [Operation("add", 2, add_table)], name="d")
    chart = coordinatize(derived)
    assert chart.to_vector[0] == (0, 0)
    lattice = [c.partition for c in all_congruences(alg)]
    for theta in lattice:
        assert subspace_to_partition(chart, congruence_to_subspace(chart, theta)) == theta
    for k in (2, 3):
        for thetas in itertools.combinations(lattice, k):
            got = route_decide(alg, list(thetas), two_minority())
            assert got.route == "vs"
            assert got.is_cr == brute_force_is_cr_tuple(list(thetas)).is_cr


def test_affine_instance_precondition_checks():
    # under 2min, an input whose s is the majority table derives the
    # addition x + y = m(x, y, 0), and 1 + 1 = 1 is refused
    alg = FiniteAlgebra(2, [Operation("s", 3, two_majority().op("m").table)], name="maj-as-s")
    with pytest.raises(PreconditionError, match="does not square to the neutral element"):
        route_decide(alg, [Partition([0, 1])], two_minority())


def test_route_vs_matches_brute():
    rng = random.Random(60)
    gen = two_minority()
    checked = 0
    for _ in range(10):
        alg, _ = random_closed_subpower(rng, two_minority(), rng.randint(2, 3), 3)
        lattice = [c.partition for c in all_congruences(alg)]
        for _ in range(15):
            thetas = [rng.choice(lattice) for _ in range(rng.randint(2, 3))]
            res = route_decide(alg, thetas, gen)
            assert res.route == "vs"
            assert res.warning is None
            assert res.is_cr == brute_force_is_cr_tuple(thetas).is_cr
            checked += 1
    assert checked > 100


def test_route_nearlattice_matches_brute():
    gen = two_lattice()
    alg = chain_lattice(4)
    lattice = [c.partition for c in all_congruences(alg)]
    for k in (2, 3):
        for thetas in itertools.combinations(lattice, k):
            res = route_decide(alg, list(thetas), gen)
            assert res.route == "nearlattice"
            assert res.is_cr == brute_force_is_cr_tuple(list(thetas)).is_cr


def test_route_nearlattice_dual_orientation():
    # the relabeled witness drives the same decision procedure
    rng = random.Random(61)
    assert classify(S10).table == N_DUAL_TABLE
    checked = 0
    for _ in range(8):
        alg, _ = random_closed_subpower(rng, S10, rng.randint(2, 3), 3)
        if alg.size < 2:
            continue
        lattice = [c.partition for c in all_congruences(alg)]
        for _ in range(15):
            thetas = [rng.choice(lattice) for _ in range(rng.randint(2, 3))]
            res = route_decide(alg, thetas, S10)
            assert res.route == "nearlattice"
            assert res.is_cr == brute_force_is_cr_tuple(thetas).is_cr
            checked += 1
    assert checked > 80


def test_route_dualdisc_matches_brute():
    rng = random.Random(62)
    gen = two_majority()
    checked = 0
    for _ in range(10):
        alg, _ = random_closed_subpower(rng, two_majority(), rng.randint(2, 3), 3)
        if alg.size < 3:
            continue
        lattice = [c.partition for c in all_congruences(alg)]
        for _ in range(15):
            thetas = [rng.choice(lattice) for _ in range(rng.randint(2, 3))]
            res = route_decide(alg, thetas, gen)
            assert res.route == "dualdisc"
            assert res.is_cr == brute_force_is_cr_tuple(thetas).is_cr
            checked += 1
    assert checked > 80


def test_route_brute_fallbacks_carry_warnings():
    res = route_decide(
        bare_set(3),
        [Partition([0, 1, 1]), Partition([0, 0, 1])],
        NEG,
    )
    assert res.route == "brute"
    assert "coNP" in res.warning
    assert not res.is_cr

    res2 = route_decide(
        two_join_semilattice(),
        [Partition([0, 1])],
        two_join_semilattice(),
    )
    assert res2.route == "brute"
    assert "open" in res2.warning


def test_route_requires_the_generator():
    # the HasN route certifies the input through the generator's tables, so
    # a classification alone no longer names a route
    alg = chain_lattice(3)
    thetas = [c.partition for c in all_congruences(alg)]
    with pytest.raises(TypeError, match="generator"):
        route_decide(alg, thetas)
    with pytest.raises(InputError, match="chain3 has 3 elements, need exactly 2"):
        route_decide(alg, thetas, alg)
    res = route_decide(alg, thetas, generator=two_lattice())
    assert res.route == "nearlattice"
    assert res.is_cr == brute_force_is_cr_tuple(thetas).is_cr


def _view_fields(view):
    return view.top, view.leq, view.mi_elements, view.p_strict_down, view.sigma


@pytest.mark.parametrize(
    "gen",
    [two_nearlattice(), two_lattice(), two_implication(), S10, S00, K1],
    ids=lambda gen: gen.name,
)
def test_generator_view_is_the_view_of_the_ternary_reduct(gen):
    # the route certifies sigma through the generator's own tables; the
    # reduct to the witness of n, certified by make_view, is the reference
    cls = classify(gen)
    rng = random.Random(gen.name)
    sizes = set()
    for _ in range(25):
        alg, _ = random_closed_subpower(rng, gen, rng.randint(1, 5), rng.randint(1, 6))
        got = _generator_view(alg, gen, cls)
        want = make_view(reduct(alg, {"n": (3, cls.witness)}))
        assert got.alg is alg
        assert _view_fields(got) == _view_fields(want), (gen.name, alg.name)
        sizes.add(alg.size)
    assert max(sizes) >= 8


def _pentagon():
    # 0 < 1 < 2 < 4 and 0 < 3 < 4
    up = {0: {0, 1, 2, 3, 4}, 1: {1, 2, 4}, 2: {2, 4}, 3: {3, 4}, 4: {4}}
    return _lattice_from_order([[y in up[x] for y in range(5)] for x in range(5)], "N5")


@pytest.mark.parametrize("alg", [_pentagon(), diamond_m3()], ids=["N5", "M3"])
def test_generator_view_refuses_a_lattice_outside_the_variety(alg):
    # sigma separates the elements of N5 and M3; only the certificates of
    # their operations find that neither is distributive
    thetas = [Partition(range(5)), Partition([0] * 5)]
    with pytest.raises(
        StructureError,
        match=rf"^{alg.name}: (meet|join) is not coordinatewise (meet|join) of chain2 at arguments",
    ):
        route_decide(alg, thetas, two_lattice())


@pytest.mark.parametrize("op,at,value", [("meet", (2, 1), 0), ("join", (1, 0), 2)])
def test_generator_view_certifies_each_operation_the_witness_uses(op, at, value):
    # the 3-chain with one entry of one table moved: the order, read off
    # meet(join(x, y), join(x, y)) = y, stays the chain and sigma separates
    # it, so only the certificate of that operation finds the fault
    tables = {o.name: list(o.table) for o in chain_lattice(3).ops}
    tables[op][3 * at[0] + at[1]] = value
    alg = FiniteAlgebra(3, [Operation(name, 2, tuple(t)) for name, t in tables.items()], name="bent")
    with pytest.raises(
        StructureError,
        match=rf"^bent: {op} is not coordinatewise {op} of chain2 at arguments \({at[0]}, {at[1]}\)$",
    ):
        route_decide(alg, [Partition([0, 1, 2]), Partition([0, 0, 0])], two_lattice())


def test_generator_view_needs_the_operations_the_witness_uses():
    alg = chain_lattice(3)
    thetas = [Partition([0, 1, 2]), Partition([0, 0, 0])]
    # an input whose join is ternary cannot run the witness of 2lat
    ternary_max = [max(row) for row in itertools.product(range(3), repeat=3)]
    ternary_join = FiniteAlgebra(
        3, [alg.op("meet"), Operation("join", 3, ternary_max)], name="tj"
    )
    with pytest.raises(InputError, match="^term applies 'join' to 2 subterms, arity is 3$"):
        route_decide(ternary_join, thetas, two_lattice())
    with pytest.raises(InputError, match="^no operation named 'meet'$"):
        route_decide(two_nearlattice(), [Partition([0, 1])], two_lattice())


def test_route_rejects_foreign_partitions():
    alg = chain_lattice(3)
    with pytest.raises(StructureError):
        route_decide(alg, [Partition([0, 1, 0])], two_lattice())


def test_classification_stability_under_derived_terms():
    # appending a term operation of the algebra never changes the class
    rng = random.Random(63)
    fixtures = [
        two_lattice(),
        two_majority(),
        two_minority(),
        two_implication(),
        S10,
        NEG,
        two_join_semilattice(),
    ]
    for alg in fixtures:
        base_cls = classify(alg)
        clone = ternary_clone(alg)
        tables = list(clone.items())
        for _ in range(3):
            table, term = rng.choice(tables)
            flat = tuple(
                (table >> (4 * x + 2 * y + z)) & 1
                for x in range(2)
                for y in range(2)
                for z in range(2)
            )
            bigger = FiniteAlgebra(
                2,
                list(alg.ops) + [Operation("extra", 3, flat)],
                name=alg.name + "x",
            )
            assert classify(bigger).tag == base_cls.tag


def test_every_two_element_signature_classifies():
    # one unary, one binary, and one ternary table: 4 * 16 * 256 algebras.
    # Every signature lands in exactly one of the five classes, and the
    # class sizes are stable.
    counts: dict[str, int] = {}
    for f1 in range(4):
        u = ((f1 >> 1) & 1, f1 & 1)
        for f2 in range(16):
            b = tuple((f2 >> (3 - j)) & 1 for j in range(4))
            for f3 in range(256):
                t = tuple((f3 >> (7 - j)) & 1 for j in range(8))
                alg = FiniteAlgebra(
                    2,
                    [
                        Operation("f1", 1, u),
                        Operation("f2", 2, b),
                        Operation("f3", 3, t),
                    ],
                    name="c",
                )
                tag = classify(alg, with_witness=False).tag
                counts[tag] = counts.get(tag, 0) + 1
    assert counts == {
        "EssentiallyUnary": 192,
        "SemilatticeFamily": 150,
        "HasN": 916,
        "HasS": 15124,
        "HasM": 2,
    }


def test_targets_break_the_relations_on_their_rows():
    # Pol(R) misses the target table for every relation R on its row
    for _, table, relations in _TARGETS:
        target = Operation("t", 3, tuple(table >> p & 1 for p in range(8)))
        for name in relations:
            assert not _preserves(target, _RELATIONS[name]), (hex(table), name)
    for c in (0, 1):
        const = Operation("c", 0, (c,))
        assert _preserves(const, _RELATIONS["dup3"])
        assert not _preserves(const, _RELATIONS["!="])
        assert _preserves(const, _RELATIONS[f"T{1 - c}^3"])
        assert not _preserves(const, _RELATIONS[f"T{c}^3"])


def all_tables(arity):
    return [
        Operation(f"t{arity}", arity, table)
        for table in itertools.product((0, 1), repeat=2**arity)
    ]


def projections_and_constants(arity):
    rows = list(itertools.product((0, 1), repeat=arity))
    return [Operation(f"p{i}", arity, tuple(row[i] for row in rows)) for i in range(arity)] + [
        Operation(f"c{c}", arity, (c,) * len(rows)) for c in (0, 1)
    ]


def seeded_tables(arity, count, seed):
    rng = random.Random(seed)
    return [
        Operation(f"r{arity}", arity, tuple(rng.randrange(2) for _ in range(2**arity)))
        for _ in range(count)
    ]


@pytest.mark.parametrize(
    "ops",
    [pytest.param(all_tables(arity), id=f"every_table_arity{arity}") for arity in range(4)]
    + [pytest.param(seeded_tables(arity, 60, 90 + arity), id=f"seeded_arity{arity}") for arity in (4, 5)]
    + [
        pytest.param(projections_and_constants(arity), id=f"projections_constants_arity{arity}")
        for arity in range(7)
    ],
)
def test_preserves_matches_reference(ops):
    for op in ops:
        for name, rel in _RELATIONS.items():
            assert _preserves(op, rel) == reference_preserves(op, rel), (op, name)


@pytest.mark.parametrize("arity", range(8))
def test_choice_masks_match_the_closed_form(arity):
    # bit c of masks[j][i] is coordinate j of row c_i, c_i being digit i of c
    # in base |rel|, first argument most significant: over the grid of
    # choices (c_0, ..., c_{arity-1}) in C order, column j of the rows laid
    # along axis i
    import numpy as np

    for name, rel in _RELATIONS.items():
        columns = np.array(sorted(rel), dtype=np.uint8).T
        n = columns.shape[1]
        masks, ones = _choice_masks.__wrapped__(rel, arity)
        assert ones == (1 << n**arity) - 1, name
        assert [len(m) for m in masks] == [arity] * len(columns), name
        for i in range(arity):
            axis = (1,) * i + (n,) + (1,) * (arity - 1 - i)
            grid = np.broadcast_to(columns.reshape((-1, *axis)), (len(columns),) + (n,) * arity)
            bits = np.packbits(grid.reshape(len(columns), -1), axis=-1, bitorder="little")
            for j, row in enumerate(bits):
                assert masks[j][i] == int.from_bytes(row.tobytes(), "little"), (name, i, j)


# ternary tables of the clones N (essentially unary), V (join forms) and
# E (meet forms). By Post's lattice a clone outside one of them has a
# member of arity at most 3 outside it, so ternary parts decide inclusion.
_UNARY = {0x00, 0xFF} | {p ^ c for p in (PROJ_X, PROJ_Y, PROJ_Z) for c in (0, 0xFF)}
_JOIN_FORMS = {0xFF} | {
    (PROJ_X if i & 1 else 0) | (PROJ_Y if i & 2 else 0) | (PROJ_Z if i & 4 else 0)
    for i in range(8)
}
_MEET_FORMS = {0x00} | {
    (PROJ_X if i & 1 else 0xFF) & (PROJ_Y if i & 2 else 0xFF) & (PROJ_Z if i & 4 else 0xFF)
    for i in range(8)
}


def clone_oracle(alg):
    """The tag and table classify must give, read off ternary_clone."""
    clone = set(ternary_clone(alg))
    for tag, table, _ in _TARGETS:
        if table in clone:
            return tag, table
    if clone <= _UNARY:
        return "EssentiallyUnary", None
    if clone <= _JOIN_FORMS or clone <= _MEET_FORMS:
        return "SemilatticeFamily", None
    return None, None


def assert_classify_matches_clone(alg):
    cls = classify(alg, with_witness=False)
    assert (cls.tag, cls.table) == clone_oracle(alg), alg.ops


def sampled_signature(rng, draw):
    """A signature of the exhaustive test; odd draws add 1-2 constants."""
    f1, f2, f3 = rng.randrange(4), rng.randrange(16), rng.randrange(256)
    ops = [
        Operation("f1", 1, ((f1 >> 1) & 1, f1 & 1)),
        Operation("f2", 2, tuple((f2 >> (3 - j)) & 1 for j in range(4))),
        Operation("f3", 3, tuple((f3 >> (7 - j)) & 1 for j in range(8))),
    ]
    if draw % 2:
        ops += [Operation(f"c{k}", 0, (rng.randrange(2),)) for k in range(rng.randint(1, 2))]
    return FiniteAlgebra(2, ops, name="sample")


def test_classify_matches_ternary_clone_on_sampled_signatures():
    rng = random.Random(71)
    for draw in range(80):
        assert_classify_matches_clone(sampled_signature(rng, draw))


def test_witness_search_matches_reference_on_sampled_signatures():
    # for arities up to 3 a search run to the end records the reference's
    # terms, in the reference's order. A search stopped at a target gives
    # the reference's term for it; it records only the tables of the rounds
    # before the target's round, and each with the reference's term.
    rng = random.Random(72)
    for draw in range(16):
        alg = sampled_signature(rng, draw)
        for target in (None, S_TABLE, N_TABLE, N_DUAL_TABLE, M_TABLE):
            found = _witness_bfs(alg, target)
            witness = found.witnesses()
            term = found.term(target) if target in found else None
            ref_witness, ref_term = reference_witness_bfs(alg, target)
            assert term == ref_term, (alg.ops, target)
            if target is None:
                assert list(witness.items()) == list(ref_witness.items()), alg.ops
                continue
            for tab, w in witness.items():
                assert w == ref_witness[tab], (alg.ops, target, tab)
                if term is not None and tab != target:
                    assert term_depth(w) < term_depth(term), (alg.ops, target, tab)


def sampled_and_arity_four_algebras():
    rng = random.Random(72)
    yield from (sampled_signature(rng, draw) for draw in range(16))
    yield from (two_elem("quaternary", f=p.values) for p in ARITY_FOUR)


def test_witness_search_stopped_at_any_table_gives_the_clone_term():
    # every table the full search reaches, not only s, n and m, gets the
    # same term from a search that stops at it
    for alg in sampled_and_arity_four_algebras():
        clone = ternary_clone(alg)
        for tab, term in clone.items():
            assert _witness_term(alg, tab) == term, (alg.ops, tab)


ARITY_FOUR = [
    pytest.param(4, lambda x, y, z, w: int(x + y + z + w >= 3), id="atleast3of4"),
    pytest.param(4, lambda x, y, z, w: int(x + y + z + w >= 2), id="atleast2of4"),
    pytest.param(4, lambda x, y, z, w: x ^ y ^ z ^ w, id="xor4"),
    pytest.param(4, lambda x, y, z, w: x | y | z | w, id="or4"),
    pytest.param(4, lambda x, y, z, w: x & y & z & w, id="and4"),
    pytest.param(4, lambda x, y, z, w: int(x + y + z >= 2), id="maj_dummy"),
    pytest.param(4, lambda x, y, z, w: int(x + (1 - y) + (1 - z) >= 2), id="maj_negated_dummy"),
    pytest.param(4, lambda x, y, z, w: (x & y & z) | w, id="and3_or_w"),
]


@pytest.mark.parametrize(
    ("arity", "fn"),
    ARITY_FOUR
    + [
        # nor4 generates all 256 ternary tables
        pytest.param(4, lambda x, y, z, w: 1 - (x | y | z | w), id="nor4"),
        pytest.param(5, lambda x, y, z, w, v: x & (1 - y), id="x_and_not_y_dummy5"),
    ],
)
def test_classify_matches_ternary_clone_on_arity_four(arity, fn):
    alg = two_elem("quaternary", f=(arity, fn))
    assert_classify_matches_clone(alg)
    cls = classify(alg)
    if cls.table is not None:
        assert table_of_term(alg, cls.witness) == cls.table


def term_depth(term):
    return 1 + max(map(term_depth, term.args)) if isinstance(term, App) and term.args else 0


@pytest.mark.parametrize(("arity", "fn"), ARITY_FOUR)
def test_witness_search_reaches_reference_tables_at_reference_depths(arity, fn):
    # tables of arity >= 4 operations are recorded in value order and in
    # signature order, so terms may differ, but not the depth of any table
    alg = two_elem("quaternary", f=(arity, fn))
    ref_witness, _ = reference_witness_bfs(alg, None)
    assert {t: term_depth(w) for t, w in ternary_clone(alg).items()} == {
        t: term_depth(w) for t, w in ref_witness.items()
    }


def test_ternary_clone_memory_is_bounded():
    # not x or (not y and z) generates every table; composing the whole
    # 256^3 product at once peaked above 200 MB
    alg = two_elem("nxy", f=(3, lambda x, y, z: (1 - x) | ((1 - y) & z)))
    assert tuple(alg.ops[0].table) == (1, 1, 1, 1, 0, 1, 0, 0)
    tracemalloc.start()
    try:
        assert len(ternary_clone(alg)) == 256
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2**20


def test_ternary_clone_of_a_five_ary_nor_stays_in_bounded_memory():
    # its last round has 41^4 rests and 256 distinct curried pairs; the
    # pairs are found in blocks of rests, not by one sort over all of them
    alg = two_elem("nor5", f=(5, lambda *args: 1 - max(args)))
    tracemalloc.start()
    try:
        assert len(ternary_clone(alg)) == 256
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20


def test_the_tag_reads_a_nine_ary_operation_below_the_choice_bound():
    # its widest test, on the 6 rows of dup3, takes 6^9 choices; the 12-ary
    # nor's 6^12 are refused (see tests/test_cli.py)
    nor9 = two_elem("nor9", f=(9, lambda *args: 1 - max(args)))
    assert classify(nor9, with_witness=False).tag == "HasS"


def test_witness_search_refuses_halves_over_the_bound(monkeypatch):
    # the 5-ary nor's last round curries it over 41 tables, 2 * 41^4 bytes
    monkeypatch.setattr("crtkit.postlattice._MAX_HALVES_BYTES", 1 << 20)
    alg = two_elem("nor5", f=(5, lambda *args: 1 - max(args)))
    for search in (classify, ternary_clone):
        with pytest.raises(InputError) as info:
            search(alg)
        assert str(info.value) == (
            "the witness search composes f (arity 5) over 41 tables: its halves need "
            "2 * 41^4 = 5651522 bytes, more than the 1048576 allowed"
        )
