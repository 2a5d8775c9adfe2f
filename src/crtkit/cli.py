"""Batch front end.

Subcommands:

    check      decide whether a congruence tuple has the Chinese remainder
               property (every compatible target system solvable)
    gen-hard   compile a 3SAT' formula into a hard congruence-tuple instance
    classify2  place a two-element algebra in its complexity class
    conlat     survey the congruence lattice of an algebra

Verdicts and reports go to stdout, diagnostics to stderr. Exit codes:
0 for success (check: tuple is CR), 10 for check's NOT-CR verdict, 2 for
any error (bad files, non-congruences, method preconditions, budgets,
exhausted memory).
Identical inputs produce byte-identical stdout.
"""

from __future__ import annotations

import argparse
import os
import sys

# the library modules load lazily (see crtkit/__init__.py), so a command
# runs only those it reaches through these module attributes
from . import algebra, config, conlat, deciders, formats, postlattice, terms
from .errors import CrtkitError, InputError

METHODS = tuple(deciders.DECIDERS)

EXIT_CR = 0
EXIT_NOT_CR = 10
EXIT_ERROR = 2


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="ascii") as handle:
            return handle.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc.strerror}") from None


def _load_instance(args):
    alg = formats.parse_algebra(_read(args.algebra))
    named = formats.parse_congruences(_read(args.congs), size=alg.size)
    if not named:
        raise InputError(f"{args.congs} holds no congruences")
    return alg, algebra.certify(alg, [part for _, part in named], [name for name, _ in named])


def _print_verdict(verdict) -> int:
    """RESULT line, plus the reason or witness a NOT-CR verdict of its
    decider carries; returns the exit code."""
    if verdict.is_cr:
        print("RESULT: CR")
        return EXIT_CR
    print("RESULT: NOT-CR")
    print(verdict.line)
    return EXIT_NOT_CR


def cmd_check(args) -> int:
    if args.generator is not None and args.method != "auto":
        raise InputError(f"--generator applies only to --method auto, not {args.method}")
    alg, parts = _load_instance(args)
    gen = None if args.generator is None else formats.parse_algebra(_read(args.generator))
    if args.method != "auto":
        return _print_verdict(deciders.DECIDERS[args.method](alg, parts))
    if len(parts) == 1:
        # a single congruence admits every target: the block of the target
        # itself solves the system
        print("ROUTE: trivial")
        print("RESULT: CR")
        return EXIT_CR
    if gen is None:
        # auto without a generator: the only safe method is brute
        print("ROUTE: brute")
        return _print_verdict(deciders.DECIDERS["brute"](alg, parts))
    # auto: classify the provided two-element generator and take the route
    # its class supports
    result = postlattice.route_decide(alg, parts, generator=gen)
    print(f"ROUTE: {result.route}")
    if result.warning is not None:
        print(f"warning: {result.warning}", file=sys.stderr)
    return _print_verdict(result.verdict)


def _provenance_lines(inst, doubled: bool) -> list[str]:
    lines = [
        "# reduction-set elements: index, then the local models the element",
        "# joins; a model lists its variables as <variable>=<bit>",
    ]
    if doubled:
        lines.append(
            f"# the emitted algebra doubles the set: index i + {inst.size} "
            "is the primed copy of index i"
        )
    for idx, element in enumerate(inst.elements):
        rendered = []
        for a in sorted(element):
            ordered = sorted(inst.varsets[a.domain])
            rendered.append(" ".join(f"{v}={b}" for v, b in zip(ordered, a.values)))
        lines.append(f"{idx}: " + " | ".join(rendered))
    return lines


def cmd_gen_hard(args) -> int:
    from .satgadget import parse_dimacs, reduce_formula, u_embed, validate_3sat_prime

    phi = parse_dimacs(_read(args.cnf))
    violations = validate_3sat_prime(phi)
    if violations:
        for line in violations:
            print(f"not a 3SAT' formula: {line}", file=sys.stderr)
        return EXIT_ERROR
    inst = reduce_formula(phi)
    alg, parts = algebra.FiniteAlgebra(inst.size, [], name=f"S{inst.size}"), inst.thetas
    if args.u_embed:
        alg, parts = u_embed(inst.size, inst.thetas)
    if args.semigroup:
        from .catalog import left_zero_mul

        name = f"{alg.name}xLZ" if args.u_embed else f"LZ{alg.size}"
        alg = algebra.FiniteAlgebra(alg.size, [*alg.ops, left_zero_mul(alg.size)], name=name)

    os.makedirs(args.out, exist_ok=True)
    named = [(f"theta{i + 1}", part) for i, part in enumerate(parts)]
    outputs = [
        ("instance.alg", formats.serialize_algebra(alg)),
        ("instance.congs", formats.serialize_congruences(named)),
        ("provenance.txt", "\n".join(_provenance_lines(inst, args.u_embed)) + "\n"),
    ]
    print(f"SIZE: {alg.size}")
    print(f"CONGRUENCES: {len(named)}")
    for filename, payload in outputs:
        path = os.path.join(args.out, filename)
        with open(path, "w", encoding="ascii") as handle:
            handle.write(payload)
        print(f"WROTE: {path}")
    return EXIT_CR


def cmd_classify2(args) -> int:
    alg = formats.parse_algebra(_read(args.algebra))
    result = postlattice.classify(alg)
    if result.tag == postlattice.ESSENTIALLY_UNARY:
        print("CLASS: EssentiallyUnary  COMPLEXITY: coNP-complete")
    elif result.tag == postlattice.SEMILATTICE_FAMILY:
        print("CLASS: SemilatticeFamily  COMPLEXITY: open")
    else:
        print(f"CLASS: {result.tag}")
        print(f"WITNESS: {terms.term_str(result.witness)}")
    return EXIT_CR


def cmd_conlat(args) -> int:
    alg = formats.parse_algebra(_read(args.algebra))
    parts = [c.partition for c in conlat.all_congruences(alg)]
    mi = {p.labels for p in conlat.naive_meet_irreducibles(alg.size, parts)}
    distributive = conlat.congruence_lattice_is_distributive(parts)
    permutable = conlat.congruence_lattice_is_permutable(parts)
    print(f"ALGEBRA: {alg.name}")
    print(f"SIZE: {alg.size}")
    print(f"CONGRUENCES: {len(parts)}")
    for idx, part in enumerate(parts):
        labels = " ".join(str(v) for v in part.labels)
        mark = "  MI" if part.labels in mi else ""
        print(f"CONG {idx}: {labels}{mark}")
    print(f"DISTRIBUTIVE: {'yes' if distributive else 'no'}")
    print(f"PERMUTABLE: {'yes' if permutable else 'no'}")
    print(f"ARITHMETIC: {'yes' if distributive and permutable else 'no'}")
    return EXIT_CR


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="crtkit",
        description="decide Chinese remainder properties of congruence tuples",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser("check", help="decide whether a congruence tuple is CR")
    check.add_argument("--algebra", required=True, help="algebra file")
    check.add_argument("--congs", required=True, help="congruence file")
    check.add_argument(
        "--method",
        choices=["auto", *METHODS],
        default="auto",
        help="decision procedure (auto routes via --generator, else brute)",
    )
    check.add_argument(
        "--generator",
        help="two-element algebra file generating a variety containing the algebra",
    )
    check.set_defaults(func=cmd_check)

    gen = sub.add_parser("gen-hard", help="compile a 3SAT' formula to an instance")
    gen.add_argument("--cnf", required=True, help="DIMACS CNF file")
    gen.add_argument("--out", required=True, help="output directory")
    gen.add_argument(
        "--semigroup",
        action="store_true",
        help="equip the reduction set with the left-zero product",
    )
    gen.add_argument(
        "--u-embed",
        action="store_true",
        help="double the universe and add the involution with two constants",
    )
    gen.set_defaults(func=cmd_gen_hard)

    cls = sub.add_parser("classify2", help="classify a two-element algebra")
    cls.add_argument("--algebra", required=True, help="two-element algebra file")
    cls.set_defaults(func=cmd_classify2)

    con = sub.add_parser("conlat", help="survey the congruence lattice")
    con.add_argument("--algebra", required=True, help="algebra file")
    con.set_defaults(func=cmd_conlat)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # crtkit calls no BLAS routine, so numpy's OpenBLAS pool would only spin
    # threads; read when numpy is first imported, which a command does lazily
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    try:
        config.budget(config.DEFAULT_TUPLE_BUDGET)  # reject a bad override up front
        return args.func(args)
    except (CrtkitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except MemoryError as exc:  # numpy names the allocation; a bare one says nothing
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
