"""Every route of the decider table, by `check --method` and by
route_decide, against brute force.

A route returns brute force's verdict or raises a CrtkitError naming the
failed precondition: never a wrong verdict, another exception or a hang.
Inputs are small subalgebras of powers of the two-element generators, whose
own routes must succeed, and algebras outside their varieties: random tables
under the operation names the routes look for, commutative monoids that are
not groups, cyclic groups that are not elementary abelian, and unary
algebras, whose congruence lattices are rich. Elementary abelian groups
stand in for the inputs of `vs`, which looks for an operation named add.
"""

import contextlib
import io
import os
import random
import signal
import tempfile
import time
import tracemalloc

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

import crtkit.nearlattice
import crtkit.systems
from crtkit.algebra import FiniteAlgebra, Operation, all_congruences
from crtkit.catalog import (
    power_algebra,
    two_implication,
    two_join_semilattice,
    two_lattice,
    two_majority,
    two_minority,
    two_nearlattice,
    zmod_group,
)
from crtkit.cli import main
from crtkit.deciders import DECIDERS
from crtkit.errors import CrtkitError, InputError, StructureError
from crtkit.formats import serialize_algebra, serialize_congruences
from crtkit.partitions import Partition
from crtkit.postlattice import classify, route_decide
from crtkit.systems import brute_force_is_cr_tuple
from crtkit.terms import reduct

from helpers import random_closed_subpower

GENERATORS = {
    "2maj": two_majority(),
    "2min": two_minority(),
    "2N": two_nearlattice(),
    "2lat": two_lattice(),
}
# every generator route_decide is tried with, and (in TAGS) its class
ROUTE_BY = {
    **GENERATORS,
    "neg": FiniteAlgebra(2, [Operation("neg", 1, (1, 0))], name="neg"),
    "2sl": two_join_semilattice(),
}
TAGS = {name: classify(gen, with_witness=False).tag for name, gen in ROUTE_BY.items()}
# the route a subalgebra of a power of each generator takes by its own class,
# and the method each kind of input must pass
OWN_ROUTE = {"2maj": "dualdisc", "2min": "vs", "2N": "nearlattice", "2lat": "nearlattice"}
OWN_METHOD = {"2maj": "dualdisc", "2N": "nearlattice", "2lat": "distlat", "group": "vs"}
ARITY = {"add": 2, "meet": 2, "join": 2, "s": 3, "n": 3, "m": 3, "f": 1}
SECONDS = 30


class Hung(BaseException):
    """Raised by the alarm; no handler in the library catches it."""


@contextlib.contextmanager
def time_limit(what):
    def expire(signum, frame):
        raise Hung(f"{what} ran longer than {SECONDS} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, SECONDS)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


def _table(rng, n, arity):
    return tuple(rng.randrange(n) for _ in range(n**arity))


@st.composite
def instances(draw):
    """(kind, algebra, tuple of 2 or 3 of its congruences)."""
    kind = draw(st.sampled_from([*GENERATORS, "group", "random", "addition", "unary"]))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    if kind in GENERATORS:
        alg, _ = random_closed_subpower(
            rng, GENERATORS[kind], rng.randint(2, 3), rng.randint(2, 4)
        )
    elif kind == "random":
        n = rng.randint(2, 4)
        names = rng.sample(sorted(ARITY), rng.randint(1, 3))
        ops = [Operation(name, ARITY[name], _table(rng, n, ARITY[name])) for name in names]
        alg = FiniteAlgebra(n, ops, name="random")
    elif kind == "group":
        alg = power_algebra(zmod_group(rng.choice([2, 3])), rng.randint(1, 3))
    elif kind == "addition":
        # max or min on a chain (a neutral element, no inverses), Z4 or Z6
        n = rng.randint(2, 4)
        pick = rng.choice([max, min])
        table = tuple(pick(x, y) for x in range(n) for y in range(n))
        monoid = FiniteAlgebra(n, [Operation("add", 2, table)], name=pick.__name__)
        alg = rng.choice([monoid, zmod_group(4), zmod_group(6)])
    else:
        n = rng.randint(3, 5)
        ops = [Operation(f"f{i}", 1, _table(rng, n, 1)) for i in range(rng.randint(1, 2))]
        alg = FiniteAlgebra(n, ops, name="unary")
    lattice = [c.partition for c in all_congruences(alg)]
    parts = [rng.choice(lattice) for _ in range(rng.randint(2, 3))]
    return kind, alg, parts


def _refused_by_method(directory, alg, parts, method, want):
    alg_path = os.path.join(directory, "a.alg")
    congs_path = os.path.join(directory, "a.congs")
    with open(alg_path, "w", encoding="ascii") as handle:
        handle.write(serialize_algebra(alg))
    with open(congs_path, "w", encoding="ascii") as handle:
        handle.write(serialize_congruences([(f"t{i}", p) for i, p in enumerate(parts)]))
    out, err = io.StringIO(), io.StringIO()
    argv = ["check", "--algebra", alg_path, "--congs", congs_path, "--method", method]
    with time_limit(method), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    if code == 2:
        assert out.getvalue() == "" and err.getvalue().startswith("error: "), method
        return True
    expected = (0, "RESULT: CR") if want else (10, "RESULT: NOT-CR")
    assert (code, out.getvalue().splitlines()[0]) == expected, method
    return False


@settings(max_examples=200, deadline=None)
@given(instances())
def test_every_route_returns_brute_force_verdict_or_refuses(instance):
    kind, alg, parts = instance
    want = brute_force_is_cr_tuple(parts).is_cr
    with tempfile.TemporaryDirectory() as directory:
        for method in DECIDERS:
            refused = _refused_by_method(directory, alg, parts, method, want)
            assert not (refused and OWN_METHOD.get(kind) == method), (method, alg.name)
    for name, gen in ROUTE_BY.items():
        try:
            with time_limit(TAGS[name]):
                result = route_decide(alg, parts, gen)
        except CrtkitError:
            # a subalgebra of a power of the generator is in its variety
            assert name != kind, (TAGS[name], alg.name)
            continue
        assert result.is_cr == want, (TAGS[name], alg.name, parts)
        if name == kind:
            assert result.route == OWN_ROUTE[kind]


def test_rebinding_a_decider_in_its_module_reaches_every_route(monkeypatch, tmp_path):
    # perfbench's tracer wraps a decider by rebinding its name in its own
    # module; the decider table, route_decide and `crtkit check` must each
    # look the decider up there when they call it
    calls = []
    for module, name in (
        (crtkit.nearlattice, "is_cr_tuple_nearlattice"),
        (crtkit.systems, "brute_force_is_cr_tuple"),
    ):
        def patched(*args, _original=getattr(module, name), _name=name, **kwargs):
            calls.append(_name)
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, patched)

    alg = power_algebra(two_nearlattice(), 2)
    parts = [Partition([0, 0, 1, 1]), Partition([0, 1, 0, 1])]
    alg_file, congs_file, gen_file = tmp_path / "a.alg", tmp_path / "a.congs", tmp_path / "g.alg"
    alg_file.write_text(serialize_algebra(alg))
    congs_file.write_text(serialize_congruences([("h", parts[0]), ("v", parts[1])]))
    gen_file.write_text(serialize_algebra(two_nearlattice()))
    check = ["check", "--algebra", str(alg_file), "--congs", str(congs_file)]
    nl, brute = "is_cr_tuple_nearlattice", "brute_force_is_cr_tuple"
    out = io.StringIO()
    for run, reached in (
        (lambda: DECIDERS["nearlattice"](alg, parts), nl),
        (lambda: DECIDERS["brute"](alg, parts), brute),
        (lambda: route_decide(alg, parts, generator=two_nearlattice()), nl),
        (lambda: route_decide(alg, parts, generator=two_join_semilattice()), brute),
        (lambda: main([*check, "--generator", str(gen_file)]), nl),
        (lambda: main([*check, "--method", "nearlattice"]), nl),
        (lambda: main([*check, "--method", "brute"]), brute),
        (lambda: main(check), brute),
    ):
        calls.clear()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            run()
        assert calls == [reached]


def _coordinate_kernel(e, coords):
    """The kernel of the projection of a power of a two-element algebra,
    elements coded base 2 with the first coordinate most significant, onto
    the given coordinates."""
    return Partition([tuple(x >> (e - 1 - c) & 1 for c in coords) for x in range(2**e)])


def _identity_meet_kernels(rng, e):
    """Two or three coordinate kernels of a power of exponent e, on
    coordinate sets that may overlap but cover every coordinate, so that
    the kernels meet in the identity."""
    coords = list(range(e))
    sets = [set(rng.sample(coords, rng.randint(1, e - 1))) for _ in range(rng.randint(1, 2))]
    sets.append(set(coords) - set.union(*sets) | set(rng.sample(coords, rng.randint(1, 2))))
    return [_coordinate_kernel(e, sorted(c)) for c in sets]


@pytest.mark.parametrize(
    "base,route",
    [(two_lattice, "nearlattice"), (two_implication, "nearlattice"), (two_majority, "dualdisc")],
    ids=["2lat^7", "2imp^7", "2maj^7"],
)
def test_routes_on_128_element_powers_within_a_second(base, route):
    # the HasN route certifies the input through the generator's tables and
    # dualdisc decides on the quotient by the tuple's meet, so a call stays
    # within a second at 128 elements. The HasN cases also take tuples
    # whose meet is the identity; the 2maj tuples all have a meet of at
    # least two blocks, since on the identity dualdisc takes the principal
    # congruences of all 128 elements, which takes seconds.
    gen = base()
    alg = power_algebra(gen, 7)
    rng = random.Random(alg.name)
    tuples = []
    for _ in range(4):
        coords = rng.sample(range(7), rng.randint(2, 6))
        cuts = sorted(rng.sample(range(1, len(coords)), rng.randint(1, min(2, len(coords) - 1))))
        tuples.append([
            _coordinate_kernel(7, coords[lo:hi])
            for lo, hi in zip([0, *cuts], [*cuts, len(coords)])
        ])
    if route == "nearlattice":
        tuples += [_identity_meet_kernels(rng, 7) for _ in range(4)]
    for parts in tuples:
        start = time.perf_counter()
        result = route_decide(alg, parts, gen)
        elapsed = time.perf_counter() - start
        assert result.route == route
        assert result.is_cr == brute_force_is_cr_tuple(parts).is_cr
        assert elapsed < 1.0, (alg.name, parts, elapsed)


def test_an_oversized_reduct_is_refused_before_allocating():
    # the ternary reduct of 2lat^10 to the witness of n would need a
    # 1024^3-entry table
    alg, witness = power_algebra(two_lattice(), 10), classify(two_lattice()).witness
    tracemalloc.start()
    try:
        with pytest.raises(InputError, match=r"1024\^3 = 1073741824 entries"):
            reduct(alg, {"n": (3, witness)})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("base", [two_lattice, two_implication], ids=["2lat^10", "2imp^10"])
def test_hasn_route_decides_1024_element_powers_with_an_identity_meet(base):
    # the route reads the order off a 1024^2-entry binary term and certifies
    # sigma on the input's own binary tables, so it builds no 1024^3-entry
    # reduct
    gen = base()
    alg = power_algebra(gen, 10)
    rng = random.Random(alg.name)
    for _ in range(3):
        parts = _identity_meet_kernels(rng, 10)
        tracemalloc.start()
        try:
            start = time.perf_counter()
            result = route_decide(alg, parts, gen)
            elapsed = time.perf_counter() - start
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.route == "nearlattice"
        assert result.is_cr == brute_force_is_cr_tuple(parts).is_cr
        assert elapsed < 1.0, (alg.name, parts, elapsed)
        assert peak < 32 << 20, (alg.name, parts, peak)


# a four-element square of a two-element algebra in the domain of each
# decider, and of a generator of each class route_decide routes by
DECIDER_DOMAINS = {
    "brute": two_lattice(),
    "vs": zmod_group(2),
    "nearlattice": two_nearlattice(),
    "distlat": two_lattice(),
    "dualdisc": two_majority(),
}
ROUTE_GENERATORS = {
    "HasS": GENERATORS["2min"],
    "HasN": GENERATORS["2N"],
    "HasM": GENERATORS["2maj"],
    "EssentiallyUnary": FiniteAlgebra(2, [Operation("neg", 1, (1, 0))], name="neg"),
    "SemilatticeFamily": two_join_semilattice(),
}
GOOD = Partition([0, 0, 1, 1])  # the kernel of the first coordinate
# (bad tuple, error class, message); [0, 0, 0, 1] is a congruence of none
# of the squares, nor of the derived addition the affine route builds
BAD_TUPLES = {
    "non-partition": ([GOOD, [0, 1, 0, 1]], InputError, "expected a Partition or Congruence, got list"),
    "empty": ((), InputError, "need at least one congruence"),
    "wrong size": ([GOOD, Partition([0, 1, 0])], InputError, "tuple member 2 is a partition of 3 elements, expected 4"),
    "non-congruence": ([GOOD, Partition([0, 0, 0, 1])], StructureError, "tuple member 2 is not a congruence of "),
}


@pytest.mark.parametrize("bad", BAD_TUPLES)
@pytest.mark.parametrize("decider", [*DECIDERS, *ROUTE_GENERATORS])
def test_every_decider_and_route_refuses_a_bad_tuple(decider, bad):
    thetas, error, message = BAD_TUPLES[bad]
    if decider in DECIDERS:
        alg = power_algebra(DECIDER_DOMAINS[decider], 2)
        decide = DECIDERS[decider]
    else:
        gen = ROUTE_GENERATORS[decider]
        alg = power_algebra(gen, 2)
        assert classify(gen).tag == decider

        def decide(alg, thetas):
            return route_decide(alg, thetas, gen)

    assert decide(alg, [GOOD, Partition([0, 1, 0, 1])]).is_cr
    with pytest.raises(error, match="^" + message):
        decide(alg, iter(thetas))


def test_vs_refuses_a_noncongruence_whose_zero_block_is_a_subgroup():
    # the zero block {0, 1} of the first member is a subgroup of Z2^2, and
    # that alone once let the vs decider answer CR; brute force on the same
    # partitions finds an unsolvable system
    alg = power_algebra(zmod_group(2), 2)
    parts = [Partition([0, 0, 1, 2]), Partition([0, 1, 0, 1])]
    brute = brute_force_is_cr_tuple(parts)
    assert (brute.is_cr, brute.witness) == (False, (2, 1))
    with pytest.raises(StructureError, match=r"^tuple member 1 is not a congruence of Z2\+\^2: add "):
        DECIDERS["vs"](alg, parts)
