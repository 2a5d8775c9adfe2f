"""Command line behavior: frozen outputs, exit codes, and emitted files."""

import contextlib
import io
import os
import subprocess
import sys

import pytest

from crtkit.algebra import (
    App,
    FiniteAlgebra,
    Operation,
    Var,
    congruence_violation,
    reduct,
)
from crtkit.catalog import (
    bare_set,
    chain_lattice,
    power_algebra,
    two_implication,
    two_join_semilattice,
    two_lattice,
    two_majority,
    two_minority,
    two_nearlattice,
    zmod_group,
    zmod_ring,
)
from crtkit import postlattice
from crtkit.cli import METHODS, build_parser, main
from crtkit.formats import parse_algebra, parse_congruences, serialize_algebra
from crtkit.deciders import DECIDERS

PENTAGON_CNF = (
    "c one clause per variable set\n"
    "p cnf 5 5\n"
    "1 2 3 0\n2 3 4 0\n3 4 5 0\n4 5 1 0\n5 1 2 0\n"
)


@pytest.fixture(scope="module")
def fix(tmp_path_factory):
    root = tmp_path_factory.mktemp("clifiles")
    paths = {}

    def wf(name, text):
        target = root / name
        target.write_text(text)
        paths[name] = str(target)

    chain3 = chain_lattice(3)
    wf("chain3.alg", serialize_algebra(chain3))
    wf("chain3.congs", "cong theta1 0 1 1\ncong theta2 0 0 1\n")
    wf("single.congs", "cong theta1 0 1 1\n")
    wf("noncong.congs", "cong broken 0 1 0\n")

    wf("klein.alg", serialize_algebra(power_algebra(zmod_group(2), 2)))
    wf("klein3.congs", "cong h 0 0 1 1\ncong v 0 1 0 1\ncong d 0 1 1 0\n")
    wf("klein2.congs", "cong h 0 0 1 1\ncong v 0 1 0 1\n")

    wf("minsq.alg", serialize_algebra(power_algebra(two_minority(), 2)))
    wf("majsq.alg", serialize_algebra(power_algebra(two_majority(), 2)))
    wf("latsq.alg", serialize_algebra(power_algebra(two_lattice(), 2)))

    wf("2min.alg", serialize_algebra(two_minority()))
    wf("2lat.alg", serialize_algebra(two_lattice()))
    wf("2sl.alg", serialize_algebra(two_join_semilattice()))
    wf("2maj.alg", serialize_algebra(two_majority()))
    wf("2imp.alg", serialize_algebra(two_implication()))

    neg01 = FiniteAlgebra(
        2,
        [
            Operation("neg", 1, (1, 0)),
            Operation("zero", 0, (0,)),
            Operation("one", 0, (1,)),
        ],
        name="flip01",
    )
    wf("neg01.alg", serialize_algebra(neg01))
    wf("neg01.congs", "cong bot 0 1\ncong top 0 0\n")

    joinred = FiniteAlgebra(3, [chain3.op("join")], name="chain3j")
    wf("joinred.alg", serialize_algebra(joinred))

    # ternary basic operation (x meet y) join z in place of the lattice pair
    nterm = App("join", (App("meet", (Var(0), Var(1))), Var(2)))
    chain3n = reduct(chain3, {"n": (3, nterm)}, name="chain3n")
    wf("chain3n.alg", serialize_algebra(chain3n))

    wf("z12.alg", serialize_algebra(zmod_ring(12)))
    # congruences mod 2, 3 and 4: a CR triple, so the search visits all 8 nodes
    wf(
        "z12.congs",
        "".join(
            f"cong mod{m} " + " ".join(str(x % m) for x in range(12)) + "\n"
            for m in (2, 3, 4)
        ),
    )
    wf("one.alg", serialize_algebra(bare_set(1)))
    wf("bare4.alg", serialize_algebra(bare_set(4)))
    wf("bare4.congs", "cong h 0 0 1 1\ncong v 0 1 0 1\n")
    wf("z60.alg", serialize_algebra(zmod_ring(60)))

    wf("pentagon.cnf", PENTAGON_CNF)
    wf(
        "short.cnf",
        "p cnf 4 4\n1 2 3 0\n2 3 4 0\n3 4 1 0\n4 1 2 0\n",
    )
    # gen-hard's own outputs on the pentagon, for checks that read them back
    for out, flags in (("lz", ["--semigroup"]), ("ulz", ["--u-embed", "--semigroup"])):
        with contextlib.redirect_stdout(io.StringIO()):
            main(["gen-hard", "--cnf", paths["pentagon.cnf"], "--out", str(root / out), *flags])
        paths[f"{out}.alg"] = str(root / out / "instance.alg")
        paths[f"{out}.congs"] = str(root / out / "instance.congs")
    return paths


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_brute_chain(fix, capsys):
    code, out, err = run(
        capsys,
        "check", "--algebra", fix["chain3.alg"], "--congs", fix["chain3.congs"],
        "--method", "brute",
    )
    assert (code, out, err) == (10, "RESULT: NOT-CR\nWITNESS: 0 2\n", "")


def test_check_single_congruence_is_trivially_cr(fix, capsys):
    code, out, _ = run(
        capsys,
        "check", "--algebra", fix["chain3.alg"], "--congs", fix["single.congs"],
        "--method", "brute",
    )
    assert (code, out) == (0, "RESULT: CR\n")
    code, out, _ = run(
        capsys,
        "check", "--algebra", fix["chain3.alg"], "--congs", fix["single.congs"],
    )
    assert (code, out) == (0, "ROUTE: trivial\nRESULT: CR\n")


def test_check_runs_the_named_method_on_a_single_congruence(fix, capsys):
    # only auto answers one member without a decider; a named method checks
    # its precondition on one member as on many
    single = ["check", "--algebra", fix["chain3.alg"], "--congs", fix["single.congs"]]
    code, out, err = run(capsys, *single, "--method", "vs")
    assert (code, out, err) == (2, "", "error: no operation named 'add'\n")
    for method in ("distlat", "dualdisc"):
        code, out, err = run(capsys, *single, "--method", method)
        assert (code, out, err) == (0, "RESULT: CR\n", "")


def test_check_distlat_reports_cover(fix, capsys):
    code, out, _ = run(
        capsys,
        "check", "--algebra", fix["chain3.alg"], "--congs", fix["chain3.congs"],
        "--method", "distlat",
    )
    assert (code, out) == (10, "RESULT: NOT-CR\nREASON: cover 1 0\n")


def test_check_nearlattice_on_ternary_reduct(fix, capsys):
    code, out, _ = run(
        capsys,
        "check", "--algebra", fix["chain3n.alg"], "--congs", fix["chain3.congs"],
        "--method", "nearlattice",
    )
    assert (code, out) == (10, "RESULT: NOT-CR\nREASON: cover 1 0\n")


def test_check_dualdisc_reports_nonpermuting_pair(fix, capsys):
    code, out, _ = run(
        capsys,
        "check", "--algebra", fix["chain3.alg"], "--congs", fix["chain3.congs"],
        "--method", "dualdisc",
    )
    assert (code, out) == (
        10,
        "RESULT: NOT-CR\nREASON: non-permuting 0 0 1 / 0 1 1\n",
    )


def test_check_dualdisc_names_nondistributive_lattice(fix, capsys):
    code, out, err = run(
        capsys,
        "check", "--algebra", fix["klein.alg"], "--congs", fix["klein2.congs"],
        "--method", "dualdisc",
    )
    assert (code, out) == (2, "")
    assert err == (
        "error: tuple member 1 is a congruence of Z2+^2 but not an intersection "
        "of meet-irreducible congruences, so the congruence lattice of Z2+^2 is "
        "not distributive\n"
    )


def test_check_vs_reports_dimension_gap(fix, capsys):
    code, out, _ = run(
        capsys,
        "check", "--algebra", fix["klein.alg"], "--congs", fix["klein3.congs"],
        "--method", "vs",
    )
    assert (code, out) == (
        10,
        "RESULT: NOT-CR\nREASON: solvable dimension 5 < compatible dimension 6\n",
    )
    code, out, _ = run(
        capsys,
        "check", "--algebra", fix["klein.alg"], "--congs", fix["klein2.congs"],
        "--method", "vs",
    )
    assert (code, out) == (0, "RESULT: CR\n")


def test_check_brute_klein_triple_witness(fix, capsys):
    code, out, _ = run(
        capsys,
        "check", "--algebra", fix["klein.alg"], "--congs", fix["klein3.congs"],
        "--method", "brute",
    )
    assert (code, out) == (10, "RESULT: NOT-CR\nWITNESS: 0 0 1\n")


def test_check_auto_routes_to_vs(fix, capsys):
    code, out, _ = run(
        capsys,
        "check", "--algebra", fix["minsq.alg"], "--congs", fix["klein2.congs"],
        "--generator", fix["2min.alg"],
    )
    assert (code, out) == (0, "ROUTE: vs\nRESULT: CR\n")
    code, out, _ = run(
        capsys,
        "check", "--algebra", fix["minsq.alg"], "--congs", fix["klein3.congs"],
        "--generator", fix["2min.alg"],
    )
    assert (code, out) == (
        10,
        "ROUTE: vs\nRESULT: NOT-CR\n"
        "REASON: solvable dimension 5 < compatible dimension 6\n",
    )


def test_check_auto_routes_to_nearlattice(fix, capsys):
    code, out, err = run(
        capsys,
        "check", "--algebra", fix["chain3.alg"], "--congs", fix["chain3.congs"],
        "--generator", fix["2lat.alg"],
    )
    assert (code, out, err) == (
        10,
        "ROUTE: nearlattice\nRESULT: NOT-CR\nREASON: cover 1 0\n",
        "",
    )


def test_check_auto_routes_to_dualdisc(fix, capsys):
    code, out, _ = run(
        capsys,
        "check", "--algebra", fix["majsq.alg"], "--congs", fix["klein2.congs"],
        "--generator", fix["2maj.alg"],
    )
    assert (code, out) == (0, "ROUTE: dualdisc\nRESULT: CR\n")


def test_check_auto_without_generator_falls_back_to_brute(fix, capsys):
    code, out, _ = run(
        capsys,
        "check", "--algebra", fix["chain3.alg"], "--congs", fix["chain3.congs"],
    )
    assert (code, out) == (10, "ROUTE: brute\nRESULT: NOT-CR\nWITNESS: 0 2\n")


@pytest.mark.parametrize("method", ["brute", "vs", "nearlattice", "distlat", "dualdisc"])
def test_check_refuses_generator_beside_another_method(fix, capsys, method):
    code, out, err = run(
        capsys,
        "check", "--algebra", fix["chain3.alg"], "--congs", fix["chain3.congs"],
        "--method", method, "--generator", fix["2min.alg"],
    )
    assert (code, out) == (2, "")
    assert err == f"error: --generator applies only to --method auto, not {method}\n"


def test_check_reads_the_generator_before_the_trivial_route(fix, capsys, tmp_path):
    single = ["check", "--algebra", fix["chain3.alg"], "--congs", fix["single.congs"]]
    missing = tmp_path / "missing.alg"
    code, out, err = run(capsys, *single, "--generator", str(missing))
    assert (code, out) == (2, "")
    assert err == f"error: cannot read {missing}: No such file or directory\n"
    broken = tmp_path / "broken.alg"
    broken.write_text("algebra broken\nsize two\n")
    code, out, err = run(capsys, *single, "--generator", str(broken))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    code, out, err = run(capsys, *single, "--generator", fix["2lat.alg"])
    assert (code, out, err) == (0, "ROUTE: trivial\nRESULT: CR\n", "")


def test_check_auto_semilattice_route_warns_open(fix, capsys):
    code, out, err = run(
        capsys,
        "check", "--algebra", fix["joinred.alg"], "--congs", fix["chain3.congs"],
        "--generator", fix["2sl.alg"],
    )
    assert (code, out) == (10, "ROUTE: brute\nRESULT: NOT-CR\nWITNESS: 0 2\n")
    assert err == (
        "warning: brute-force decision; the complexity of this class is open\n"
    )


def test_check_auto_unary_route_warns_conp(fix, capsys):
    code, out, err = run(
        capsys,
        "check", "--algebra", fix["neg01.alg"], "--congs", fix["neg01.congs"],
        "--generator", fix["neg01.alg"],
    )
    assert (code, out) == (0, "ROUTE: brute\nRESULT: CR\n")
    assert err == (
        "warning: brute-force decision; this class is coNP-complete in general\n"
    )


def test_check_rejects_noncongruence(fix, capsys):
    code, out, err = run(
        capsys,
        "check", "--algebra", fix["chain3.alg"], "--congs", fix["noncong.congs"],
    )
    assert code == 2 and out == ""
    assert err == (
        "error: broken is not a congruence of chain3: meet at arguments 0 1 "
        "separates the related pair 0 2 (position 1)\n"
    )


@pytest.fixture
def certifications(monkeypatch):
    """The partitions algebra.congruence_violation is called on, spied on
    under every name bound to it in a crtkit module."""
    import crtkit.algebra

    original, calls = crtkit.algebra.congruence_violation, []

    def spy(alg, part):
        calls.append(part)
        return original(alg, part)

    for name, module in list(sys.modules.items()):
        if name.startswith("crtkit."):
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, spy)
    return calls


NEG = FiniteAlgebra(2, [Operation("neg", 1, (1, 0))], name="neg")


@pytest.mark.parametrize(
    "base,method,generator",
    [
        (two_lattice(), "brute", None),
        (zmod_group(2), "vs", None),
        (two_nearlattice(), "nearlattice", None),
        (two_lattice(), "distlat", None),
        (two_majority(), "dualdisc", None),
        (two_lattice(), "auto", None),
        (two_majority(), "auto", two_majority()),
        (two_lattice(), "auto", two_lattice()),
        (two_minority(), "auto", two_minority()),
        (NEG, "auto", NEG),
    ],
    ids=["brute", "vs", "nearlattice", "distlat", "dualdisc", "auto", "auto-2maj",
         "auto-2lat", "auto-2min", "auto-neg"],
)
def test_check_certifies_each_member_once(capsys, tmp_path, certifications, base, method, generator):
    # check certifies the tuple and hands the certificate to the decider or
    # route, which must not certify it again
    alg, congs = tmp_path / "sq.alg", tmp_path / "sq.congs"
    alg.write_text(serialize_algebra(power_algebra(base, 2)))
    congs.write_text("cong h 0 0 1 1\ncong v 0 1 0 1\ncong id 0 1 2 3\n")
    argv = ["check", "--algebra", str(alg), "--congs", str(congs), "--method", method]
    if generator is not None:
        gen = tmp_path / "gen.alg"
        gen.write_text(serialize_algebra(generator))
        argv += ["--generator", str(gen)]
    code, out, err = run(capsys, *argv)
    assert code in (0, 10), err
    assert len(certifications) <= 3, out


def test_check_method_preconditions(fix, capsys):
    # no addition term in a lattice
    code, _, err = run(
        capsys,
        "check", "--algebra", fix["chain3.alg"], "--congs", fix["chain3.congs"],
        "--method", "vs",
    )
    assert code == 2 and "add" in err
    # group operations are not a single ternary basic operation
    code, _, _ = run(
        capsys,
        "check", "--algebra", fix["klein.alg"], "--congs", fix["klein2.congs"],
        "--method", "nearlattice",
    )
    assert code == 2
    # the generator must be a two-element algebra
    code, _, _ = run(
        capsys,
        "check", "--algebra", fix["chain3.alg"], "--congs", fix["chain3.congs"],
        "--generator", fix["klein.alg"],
    )
    assert code == 2


def test_check_file_errors(fix, capsys, tmp_path):
    code, _, err = run(
        capsys,
        "check", "--algebra", str(tmp_path / "missing.alg"),
        "--congs", fix["chain3.congs"],
    )
    assert code == 2 and "cannot read" in err
    bad = tmp_path / "bad.alg"
    bad.write_text("algebra a\nsize 2\nop f 2\n0 1 0\n")
    code, _, err = run(
        capsys,
        "check", "--algebra", str(bad), "--congs", fix["chain3.congs"],
    )
    assert code == 2 and err.startswith("error: ")


def test_check_budget_env_var(fix, capsys, monkeypatch):
    args = (
        "check", "--algebra", fix["z12.alg"], "--congs", fix["z12.congs"],
        "--method", "brute",
    )
    assert run(capsys, *args)[:2] == (0, "RESULT: CR\n")
    monkeypatch.setenv("CRTKIT_BUDGET", "2")
    code, _, err = run(capsys, *args)
    assert code == 2 and "budget" in err


@pytest.mark.parametrize("value", ["abc", "0", "-3"])
def test_check_rejects_bad_budget_env_var(fix, capsys, monkeypatch, tmp_path, value):
    # every method and command refuses the setting, including those whose
    # searches never read it
    monkeypatch.setenv("CRTKIT_BUDGET", value)
    check = ("check", "--algebra", fix["chain3.alg"], "--congs", fix["chain3.congs"])
    commands = [(*check, "--method", method) for method in ["auto", *DECIDERS]]
    commands += [
        (*check, "--generator", fix["2lat.alg"]),
        ("classify2", "--algebra", fix["2lat.alg"]),
        ("conlat", "--algebra", fix["chain3.alg"]),
        ("gen-hard", "--cnf", fix["pentagon.cnf"], "--out", str(tmp_path / "H")),
    ]
    for argv in commands:
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, ""), argv
        assert err == f"error: CRTKIT_BUDGET must be a positive integer, got {value!r}\n"
    assert not (tmp_path / "H").exists()


@pytest.mark.parametrize(
    "algfile,expected",
    [
        ("2lat.alg", "CLASS: HasN\nWITNESS: (meet (join x2 x3) (join x1 x3))\n"),
        ("2maj.alg", "CLASS: HasM\nWITNESS: (m x1 x2 x3)\n"),
        ("2min.alg", "CLASS: HasS\nWITNESS: (s x1 x2 x3)\n"),
        ("2imp.alg", "CLASS: HasN\nWITNESS: (imp (imp x1 (imp x2 x3)) x3)\n"),
        ("neg01.alg", "CLASS: EssentiallyUnary  COMPLEXITY: coNP-complete\n"),
        ("2sl.alg", "CLASS: SemilatticeFamily  COMPLEXITY: open\n"),
    ],
)
def test_classify2_frozen_outputs(fix, capsys, algfile, expected):
    code, out, err = run(capsys, "classify2", "--algebra", fix[algfile])
    assert (code, out, err) == (0, expected, "")


def test_classify2_refuses_the_seven_ary_nor_before_allocating(capsys, tmp_path):
    # the witness search's halves would take 2 * 41^6 bytes (9.5 GB); numpy
    # used to refuse them with a bare traceback and exit 1
    nor7 = FiniteAlgebra(2, [Operation("nor", 7, [1] + [0] * 127)], name="nor7")
    path = tmp_path / "nor7.alg"
    path.write_text(serialize_algebra(nor7))
    assert run(capsys, "classify2", "--algebra", str(path)) == (
        2,
        "",
        "error: the witness search composes nor (arity 7) over 41 tables: its halves "
        "need 2 * 41^6 = 9500208482 bytes, more than the 268435456 allowed\n",
    )


def test_classify2_refuses_the_twelve_ary_nor_before_building_its_masks(capsys, tmp_path):
    # the tag's ints for one relation would hold 6^12 bits each; a 10-ary
    # threshold's 8^10 used to take 16 s and end in a MemoryError
    nor12 = FiniteAlgebra(2, [Operation("nor", 12, [1] + [0] * 4095)], name="nor12")
    path = tmp_path / "nor12.alg"
    path.write_text(serialize_algebra(nor12))
    assert run(capsys, "classify2", "--algebra", str(path)) == (
        2,
        "",
        "error: the tag tests an operation of arity 12 on a relation of 6 rows: its "
        "6^12 = 2176782336 choices of rows are more than the 536870912 allowed\n",
    )


@pytest.mark.parametrize("command", ["check", "conlat"])
def test_a_universe_past_2_to_the_64_is_refused(capsys, tmp_path, command):
    # no array typecode holds its elements: a bare StopIteration used to exit 1
    size = 2**64 + 1
    path = tmp_path / "huge.alg"
    path.write_text(f"algebra a\nsize {size}\nop c 0\n5\n")
    congs = tmp_path / "huge.congs"
    congs.write_text("cong t 0\n")
    args = ["--algebra", str(path)] + (["--congs", str(congs)] if command == "check" else [])
    assert run(capsys, command, *args) == (
        2,
        "",
        f"error: size {size} is too large: a universe has at most 2^64 elements\n",
    )


@pytest.mark.parametrize(
    "size,arity",
    [(2, 20000), (3, 20000000), (10**4000, 2)],
    ids=["2^20000", "3^20000000", "(10^4000)^2"],
)
def test_a_huge_table_is_refused_before_its_size_is_computed(capsys, tmp_path, size, arity):
    # size ** arity used to be computed (3^20000000 took 9 s) and then
    # printed past Python's int-to-str digit limit: a traceback and exit 1
    path = tmp_path / "huge.alg"
    path.write_text(f"algebra huge\nsize {size}\nop f {arity}\n0 1\n")
    assert run(capsys, "classify2", "--algebra", str(path)) == (
        2,
        "",
        f"error: operation 'f' needs {size}^{arity} values, file has 2\n",
    )


@pytest.mark.parametrize(
    "exc,line",
    [
        (MemoryError(), "error: out of memory\n"),
        (MemoryError("Unable to allocate 4.00 GiB"), "error: Unable to allocate 4.00 GiB\n"),
    ],
    ids=["bare", "numpy"],
)
def test_main_reports_exhausted_memory_as_an_error(fix, capsys, monkeypatch, exc, line):
    # the tag's bit-sliced masks still exhaust memory on wide operations
    def exhausted(alg2):
        raise exc

    monkeypatch.setattr(postlattice, "classify", exhausted)
    assert run(capsys, "classify2", "--algebra", fix["2lat.alg"]) == (2, "", line)


@pytest.mark.parametrize("preset,seen", [(None, "1"), ("3", "3")])
def test_main_gives_openblas_one_thread_unless_set(fix, preset, seen):
    # crtkit calls no BLAS routine; a caller's own setting is kept
    env = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    if preset is not None:
        env["OPENBLAS_NUM_THREADS"] = preset
    script = (
        "import contextlib, io, os\nfrom crtkit.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    main(['conlat', '--algebra', {fix['chain3.alg']!r}])\n"
        "print(os.environ['OPENBLAS_NUM_THREADS'])\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, env=env)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{seen}\n", "")


def test_classify2_relabeled_witness(fix, capsys, tmp_path):
    s10 = FiniteAlgebra(
        2,
        [
            Operation(
                "f",
                3,
                tuple(
                    x & (y | z)
                    for x in range(2)
                    for y in range(2)
                    for z in range(2)
                ),
            )
        ],
        name="s10gen",
    )
    path = tmp_path / "s10.alg"
    path.write_text(serialize_algebra(s10))
    code, out, _ = run(capsys, "classify2", "--algebra", str(path))
    assert (code, out) == (0, "CLASS: HasN\nWITNESS: (f x3 x1 x2)\n")


def test_classify2_requires_two_elements(fix, capsys):
    code, _, err = run(capsys, "classify2", "--algebra", fix["chain3.alg"])
    assert code == 2 and err.startswith("error: ")


def test_conlat_chain(fix, capsys):
    code, out, _ = run(capsys, "conlat", "--algebra", fix["chain3.alg"])
    assert code == 0
    assert out == (
        "ALGEBRA: chain3\n"
        "SIZE: 3\n"
        "CONGRUENCES: 4\n"
        "CONG 0: 0 0 0\n"
        "CONG 1: 0 0 1  MI\n"
        "CONG 2: 0 1 1  MI\n"
        "CONG 3: 0 1 2\n"
        "DISTRIBUTIVE: yes\n"
        "PERMUTABLE: no\n"
        "ARITHMETIC: no\n"
    )


def test_conlat_zmod12(fix, capsys):
    code, out, _ = run(capsys, "conlat", "--algebra", fix["z12.alg"])
    assert code == 0
    assert out == (
        "ALGEBRA: Z12\n"
        "SIZE: 12\n"
        "CONGRUENCES: 6\n"
        "CONG 0: 0 0 0 0 0 0 0 0 0 0 0 0\n"
        "CONG 1: 0 1 0 1 0 1 0 1 0 1 0 1  MI\n"
        "CONG 2: 0 1 2 0 1 2 0 1 2 0 1 2  MI\n"
        "CONG 3: 0 1 2 3 0 1 2 3 0 1 2 3  MI\n"
        "CONG 4: 0 1 2 3 4 5 0 1 2 3 4 5\n"
        "CONG 5: 0 1 2 3 4 5 6 7 8 9 10 11\n"
        "DISTRIBUTIVE: yes\n"
        "PERMUTABLE: yes\n"
        "ARITHMETIC: yes\n"
    )


def test_conlat_klein_marks_the_three_coatoms(fix, capsys):
    # M2 = Con(Z2 x Z2) is modular but not distributive: every coatom is MI
    code, out, err = run(capsys, "conlat", "--algebra", fix["klein.alg"])
    assert (code, err) == (0, "")
    assert out == (
        "ALGEBRA: Z2+^2\n"
        "SIZE: 4\n"
        "CONGRUENCES: 5\n"
        "CONG 0: 0 0 0 0\n"
        "CONG 1: 0 0 1 1  MI\n"
        "CONG 2: 0 1 0 1  MI\n"
        "CONG 3: 0 1 1 0  MI\n"
        "CONG 4: 0 1 2 3\n"
        "DISTRIBUTIVE: no\n"
        "PERMUTABLE: yes\n"
        "ARITHMETIC: no\n"
    )


def test_conlat_bare4_marks_the_seven_two_block_partitions(fix, capsys):
    # Con of a bare 4-set is Eq(4): its meet-irreducibles are its coatoms
    code, out, err = run(capsys, "conlat", "--algebra", fix["bare4.alg"])
    assert (code, err) == (0, "")
    assert out == (
        "ALGEBRA: set4\n"
        "SIZE: 4\n"
        "CONGRUENCES: 15\n"
        "CONG 0: 0 0 0 0\n"
        "CONG 1: 0 0 0 1  MI\n"
        "CONG 2: 0 0 1 0  MI\n"
        "CONG 3: 0 0 1 1  MI\n"
        "CONG 4: 0 0 1 2\n"
        "CONG 5: 0 1 0 0  MI\n"
        "CONG 6: 0 1 0 1  MI\n"
        "CONG 7: 0 1 0 2\n"
        "CONG 8: 0 1 1 0  MI\n"
        "CONG 9: 0 1 1 1  MI\n"
        "CONG 10: 0 1 1 2\n"
        "CONG 11: 0 1 2 0\n"
        "CONG 12: 0 1 2 1\n"
        "CONG 13: 0 1 2 2\n"
        "CONG 14: 0 1 2 3\n"
        "DISTRIBUTIVE: no\n"
        "PERMUTABLE: no\n"
        "ARITHMETIC: no\n"
    )


def test_conlat_singleton(fix, capsys):
    code, out, _ = run(capsys, "conlat", "--algebra", fix["one.alg"])
    assert code == 0
    assert out == (
        "ALGEBRA: set1\nSIZE: 1\nCONGRUENCES: 1\nCONG 0: 0\n"
        "DISTRIBUTIVE: yes\nPERMUTABLE: yes\nARITHMETIC: yes\n"
    )


def test_conlat_respects_budget(fix, capsys, monkeypatch):
    monkeypatch.setenv("CRTKIT_BUDGET", "3")
    code, _, err = run(capsys, "conlat", "--algebra", fix["z12.alg"])
    assert code == 2 and err.startswith("error: ")


def test_gen_hard_pentagon(fix, capsys, tmp_path):
    out_dir = str(tmp_path / "H")
    code, out, err = run(
        capsys, "gen-hard", "--cnf", fix["pentagon.cnf"], "--out", out_dir
    )
    assert code == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "SIZE: 225"
    assert lines[1] == "CONGRUENCES: 5"
    assert [l.split(os.sep)[-1] for l in lines[2:]] == [
        "instance.alg",
        "instance.congs",
        "provenance.txt",
    ]
    emitted = parse_algebra(open(os.path.join(out_dir, "instance.alg")).read())
    assert emitted.size == 225 and emitted.ops == ()
    congs = parse_congruences(
        open(os.path.join(out_dir, "instance.congs")).read(), size=225
    )
    assert len(congs) == 5
    prov = open(os.path.join(out_dir, "provenance.txt")).read().splitlines()
    elements = [l for l in prov if l and not l.startswith("#")]
    assert len(elements) == 225
    assert elements[0].startswith("0: ")
    singles = [l for l in elements if " | " not in l]
    assert len(singles) == 35 and len(elements) - len(singles) == 190


def test_gen_hard_is_deterministic(fix, capsys, tmp_path):
    dirs = [str(tmp_path / "H1"), str(tmp_path / "H2")]
    for d in dirs:
        code, _, _ = run(
            capsys, "gen-hard", "--cnf", fix["pentagon.cnf"], "--out", d
        )
        assert code == 0
    for name in ["instance.alg", "instance.congs", "provenance.txt"]:
        blobs = [open(os.path.join(d, name), "rb").read() for d in dirs]
        assert blobs[0] == blobs[1]


def test_gen_hard_semigroup_brute_witness(fix, capsys, tmp_path):
    out_dir = str(tmp_path / "HS")
    code, _, _ = run(
        capsys,
        "gen-hard", "--cnf", fix["pentagon.cnf"], "--out", out_dir,
        "--semigroup",
    )
    assert code == 0
    alg = parse_algebra(open(os.path.join(out_dir, "instance.alg")).read())
    assert alg.size == 225 and [op.name for op in alg.ops] == ["mul"]
    code, out, _ = run(
        capsys,
        "check",
        "--algebra", os.path.join(out_dir, "instance.alg"),
        "--congs", os.path.join(out_dir, "instance.congs"),
        "--method", "brute",
    )
    # a satisfying assignment of the pentagon formula, read off as targets
    assert (code, out) == (10, "RESULT: NOT-CR\nWITNESS: 0 1 2 5 8\n")


def test_gen_hard_u_embed(fix, capsys, tmp_path):
    out_dir = str(tmp_path / "HU")
    code, out, _ = run(
        capsys,
        "gen-hard", "--cnf", fix["pentagon.cnf"], "--out", out_dir,
        "--u-embed",
    )
    assert code == 0 and out.splitlines()[0] == "SIZE: 450"
    alg = parse_algebra(open(os.path.join(out_dir, "instance.alg")).read())
    assert alg.size == 450
    assert [op.name for op in alg.ops] == ["neg", "zero", "one"]
    congs = parse_congruences(
        open(os.path.join(out_dir, "instance.congs")).read(), size=450
    )
    assert len(congs) == 5
    for name, part in congs:
        assert congruence_violation(alg, part) is None, name
    assert "primed copy" in open(os.path.join(out_dir, "provenance.txt")).read()


def test_gen_hard_u_embed_with_semigroup(fix, capsys, tmp_path):
    out_dir = str(tmp_path / "HB")
    code, out, _ = run(
        capsys,
        "gen-hard", "--cnf", fix["pentagon.cnf"], "--out", out_dir,
        "--u-embed", "--semigroup",
    )
    assert code == 0 and out.splitlines()[0] == "SIZE: 450"
    alg = parse_algebra(open(os.path.join(out_dir, "instance.alg")).read())
    assert [op.name for op in alg.ops] == ["neg", "zero", "one", "mul"]
    for name, part in parse_congruences(
        open(os.path.join(out_dir, "instance.congs")).read(), size=450
    ):
        assert congruence_violation(alg, part) is None, name


def test_gen_hard_u_embed_semigroup_file_round_trips(fix, capsys, tmp_path):
    out_dir = str(tmp_path / "HR")
    code, _, _ = run(
        capsys,
        "gen-hard", "--cnf", fix["pentagon.cnf"], "--out", out_dir,
        "--u-embed", "--semigroup",
    )
    assert code == 0
    with open(os.path.join(out_dir, "instance.alg"), "rb") as handle:
        blob = handle.read()
    alg = parse_algebra(blob.decode("ascii"))
    assert alg.size == 450
    assert serialize_algebra(alg).encode("ascii") == blob


@pytest.mark.parametrize(
    "flags,size,header",
    [
        ([], 225, ["algebra S225"]),
        (["--semigroup"], 225, ["algebra LZ225", "op mul 2"]),
        (["--u-embed"], 450, ["algebra U225", "op neg 1", "op zero 0", "op one 0"]),
        (
            ["--u-embed", "--semigroup"],
            450,
            ["algebra U225xLZ", "op neg 1", "op zero 0", "op one 0", "op mul 2"],
        ),
    ],
    ids=["bare", "semigroup", "u-embed", "u-embed-semigroup"],
)
def test_gen_hard_names_the_algebra_each_flag_combination_builds(
    fix, capsys, tmp_path, flags, size, header
):
    out_dir = tmp_path / "HN"
    code, out, _ = run(capsys, "gen-hard", "--cnf", fix["pentagon.cnf"], "--out", str(out_dir), *flags)
    assert code == 0 and out.splitlines()[0] == f"SIZE: {size}"
    emitted = (out_dir / "instance.alg").read_text().splitlines()
    assert [l for l in emitted if l.startswith(("algebra ", "op "))] == header


def test_gen_hard_rejects_short_formula(fix, capsys, tmp_path):
    code, out, err = run(
        capsys,
        "gen-hard", "--cnf", fix["short.cnf"], "--out", str(tmp_path / "HX"),
    )
    assert code == 2 and out == ""
    assert err == (
        "not a 3SAT' formula: C2: only 4 distinct variable sets, need 5\n"
    )
    assert not (tmp_path / "HX").exists()


def test_gen_hard_rejects_non_dimacs(fix, capsys, tmp_path):
    code, _, err = run(
        capsys,
        "gen-hard", "--cnf", fix["chain3.alg"], "--out", str(tmp_path / "HY"),
    )
    assert code == 2 and err.startswith("error: ")


def test_module_entry_point(fix):
    env = dict(os.environ)
    env.pop("CRTKIT_BUDGET", None)
    proc = subprocess.run(
        [
            sys.executable, "-m", "crtkit.cli",
            "check", "--algebra", fix["chain3.alg"],
            "--congs", fix["chain3.congs"], "--method", "brute",
        ],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 10
    assert proc.stdout == "RESULT: NOT-CR\nWITNESS: 0 2\n"


# start-up weight a command may load, and the library modules whose bodies
# may run; the rest (errors, config, partitions, algebra, formats, deciders,
# satgadget) are small and run on most paths
HEAVY = ("dataclasses", "inspect", "numpy", "numpy.ma", "scipy")
WATCHED = ("catalog", "conlat", "dualdisc", "nearlattice", "postlattice", "systems", "terms", "vectorspace")
ARRAYS = ["inspect", "numpy"]  # numpy imports inspect itself


@pytest.mark.parametrize(
    "argv,shows,loaded,ran",
    [
        (None, None, [], []),
        # brute check and gen-hard without --semigroup run no array code; a
        # @dataclass alone costs such a child 14 ms in dataclasses and inspect
        (
            ["check", "--algebra", "bare4.alg", "--congs", "bare4.congs", "--method", "brute"],
            "RESULT: CR",
            [],
            ["systems"],
        ),
        (
            ["check", "--algebra", "bare4.alg", "--congs", "bare4.congs"],
            "ROUTE: brute",
            [],
            ["systems"],
        ),
        # the reduction solves systems, but decides nothing
        (["gen-hard", "--cnf", "pentagon.cnf", "--out", "OUT"], "SIZE: 225", [], ["systems"]),
        (
            ["gen-hard", "--cnf", "pentagon.cnf", "--out", "OUT", "--u-embed"],
            "SIZE: 450",
            [],
            ["systems"],
        ),
        (
            ["gen-hard", "--cnf", "pentagon.cnf", "--out", "OUT", "--u-embed", "--semigroup"],
            "SIZE: 450",
            [],
            ["catalog", "systems"],
        ),
        # the left-zero product is a projection, so the check of the written
        # instance certifies each theta reading its table once, with no arrays
        (
            ["gen-hard", "--cnf", "pentagon.cnf", "--out", "OUT", "--semigroup"],
            "SIZE: 225",
            [],
            ["catalog", "systems"],
        ),
        (
            ["check", "--algebra", "lz.alg", "--congs", "lz.congs"],
            "RESULT: NOT-CR",
            [],
            ["systems"],
        ),
        # neg is neither a constant nor a projection, but it is unary, so
        # its table is certified in pure Python
        (
            ["check", "--algebra", "ulz.alg", "--congs", "ulz.congs"],
            "RESULT: NOT-CR",
            [],
            ["systems"],
        ),
        # meet and join are binary: their tables are certified as arrays
        (
            ["check", "--algebra", "chain3.alg", "--congs", "chain3.congs", "--method", "brute"],
            "RESULT: NOT-CR",
            ARRAYS,
            ["systems"],
        ),
        # the congruence-lattice layer is numpy and pure Python; importing
        # scipy.sparse.csgraph cost each such command about half a second, and
        # numpy.ma (through np.unique on rows) about 20 ms
        (["conlat", "--algebra", "z60.alg"], "CONGRUENCES: 12", ARRAYS, ["conlat"]),
        (
            ["check", "--algebra", "klein.alg", "--congs", "klein2.congs", "--method", "vs"],
            "RESULT: CR",
            ["dataclasses", *ARRAYS],
            ["vectorspace"],
        ),
        # the distlat decision projects onto the meet's F mask: no quotient,
        # so it runs no systems code
        (
            ["check", "--algebra", "latsq.alg", "--congs", "bare4.congs", "--method", "distlat"],
            "RESULT: CR",
            ["dataclasses", *ARRAYS],
            ["nearlattice"],
        ),
        # the kernels meet in the identity, so dualdisc takes the principal
        # congruences of the whole algebra
        (
            ["check", "--algebra", "majsq.alg", "--congs", "bare4.congs", "--method", "dualdisc"],
            "RESULT: CR",
            ["dataclasses", *ARRAYS],
            ["conlat", "dualdisc", "terms"],
        ),
        # the tag reads Post's lattice with pure-Python bit slices, so only a
        # witness search loads numpy, and with it the terms it builds
        (
            ["classify2", "--algebra", "2sl.alg"],
            "CLASS: SemilatticeFamily  COMPLEXITY: open",
            ["dataclasses", "inspect"],
            ["postlattice"],
        ),
        (
            ["classify2", "--algebra", "2lat.alg"],
            "CLASS: HasN",
            ["dataclasses", *ARRAYS],
            ["postlattice", "terms"],
        ),
    ],
    ids=[
        "import",
        "check-brute-bare",
        "check-auto-bare",
        "gen-hard",
        "gen-hard-u-embed",
        "gen-hard-u-embed-semigroup",
        "gen-hard-semigroup",
        "check-brute-semigroup",
        "check-brute-u-embed-semigroup",
        "check-brute-chain",
        "conlat-z60",
        "check-vs",
        "check-distlat",
        "check-dualdisc",
        "classify2-semilattice",
        "classify2-lattice",
    ],
)
def test_command_loads_numpy_and_scipy_only_where_used(fix, tmp_path, argv, shows, loaded, ran):
    # numpy costs each command about 0.18 s of start-up, so it is imported
    # where arrays are built; a fresh interpreter shows what one command
    # loads. crtkit's own modules load lazily, so it also shows which of the
    # watched modules' bodies ran: a module not yet run is still lazy.
    script = "import sys, types\nimport crtkit\ncode = 0\n"
    if argv is not None:
        paths = {**fix, "OUT": str(tmp_path / "out")}
        argv = [paths.get(a, a) for a in argv]
        script += f"from crtkit.cli import main\ncode = main({argv!r})\n"
    script += (
        f"ran = [m for m in {WATCHED!r}\n"
        "       if type(sys.modules['crtkit.' + m]) is types.ModuleType]\n"
        f"print('EXIT', code, sorted(set({HEAVY!r}) & set(sys.modules)), ran)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    assert proc.returncode == 0, proc.stderr
    assert shows is None or shows in lines
    code = 10 if shows == "RESULT: NOT-CR" else 0
    assert lines[-1] == f"EXIT {code} {loaded} {ran}"


@pytest.mark.parametrize(
    "call,loaded",
    [
        ("two_majority(); zmod_ring(3); chain_lattice(4); diamond_m3()", False),
        ("power_algebra(two_majority(), 2)", True),
        ("subpower(two_majority(), [(0, 1), (1, 1)])", True),
    ],
    ids=["stock", "power_algebra", "subpower"],
)
def test_catalog_loads_numpy_only_in_its_power_constructors(call, loaded):
    script = (
        "import sys\nimport crtkit\nimport crtkit.catalog\n"
        "before = 'numpy' in sys.modules\n"
        f"from crtkit.catalog import *\n{call}\n"
        "print(before, 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"False {loaded}\n"


@pytest.mark.parametrize(
    "table,congs,element",
    [
        # max on a 3-chain: a commutative monoid with neutral 0, no inverses
        ((0, 1, 2, 1, 1, 2, 2, 2, 2), "cong a 0 0 1\ncong b 0 1 1\n", 1),
        # and on {0,1}: neutral element 1, and 0 has no inverse
        ((0, 0, 0, 1), "cong id 0 1\ncong all 0 0\n", 0),
    ],
)
def test_check_vs_refuses_a_monoid_that_is_no_group(tmp_path, table, congs, element):
    # charting such an addition used to search forever for an element's order
    size = 3 if len(table) == 9 else 2
    alg = tmp_path / "monoid.alg"
    alg.write_text(serialize_algebra(FiniteAlgebra(size, [Operation("add", 2, table)], name="mon")))
    cong_path = tmp_path / "monoid.congs"
    cong_path.write_text(congs)
    env = dict(os.environ)
    env.pop("CRTKIT_BUDGET", None)
    proc = subprocess.run(
        [
            sys.executable, "-m", "crtkit.cli", "check", "--algebra", str(alg),
            "--congs", str(cong_path), "--method", "vs",
        ],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"error: element {element} has no inverse for the addition\n"


def test_static_method_names_are_the_decider_table_and_load_no_decider(fix):
    assert METHODS == tuple(DECIDERS)
    # the parser and conlat run without postlattice's body, classify2 needs it
    script = (
        "import contextlib, io, sys, types\n"
        "from crtkit.cli import build_parser, main\n"
        "def ran():\n"
        "    return type(sys.modules['crtkit.postlattice']) is types.ModuleType\n"
        "build_parser()\n"
        "print(ran())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    main(['conlat', '--algebra', {fix['chain3.alg']!r}])\n"
        "print(ran())\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    main(['classify2', '--algebra', {fix['2lat.alg']!r}])\n"
        "print(ran())\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "False\nFalse\nTrue\n"


def test_method_choices_follow_the_decider_table():
    check = build_parser()._subparsers._group_actions[0].choices["check"]
    method = next(action for action in check._actions if action.dest == "method")
    assert method.choices == ["auto", *DECIDERS]
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    with open(readme, encoding="utf-8") as handle:
        text = handle.read()
    table = text[text.index("| method "):].split("\n\n")[0]
    rows = [line.split("|")[1].strip() for line in table.splitlines()[2:]]
    assert rows == [f"`{name}`" for name in DECIDERS]
