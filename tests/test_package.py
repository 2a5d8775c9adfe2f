"""The crtkit namespace: library modules registered lazily, names re-exported
from them, the benchmark tracer that rebinds functions inside them, and the
rule that the library defines only what a command, a route or an export runs
and imports only names it uses.

Each check of the namespace runs in a fresh interpreter, since the test run
has long since loaded every module.
"""

import ast
import os
import re
import subprocess
import sys

import crtkit
from crtkit.catalog import power_algebra, two_nearlattice
from crtkit.formats import serialize_algebra

SRC = os.path.dirname(crtkit.__file__)
LIBRARY = sorted(
    name[:-3] for name in os.listdir(SRC) if name.endswith(".py") and name not in ("__init__.py", "cli.py")
)
PERFBENCH = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench")

# definitions kept although nothing in src/ reaches them yet
WAITING = {
    ("nearlattice", "solve_via_view"),  # the solution side of ROADMAP item 4's witnesses
}


def fresh(script: str) -> str:
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_registers_every_library_module_without_running_it():
    out = fresh(
        "import sys, types\nimport crtkit\n"
        "mods = {n: m for n, m in sys.modules.items() if n.startswith('crtkit.')}\n"
        "print(sorted(n[7:] for n in mods))\n"
        "print(sorted(n[7:] for n, m in mods.items() if type(m) is types.ModuleType))\n"
        "print(all(getattr(crtkit, n[7:]) is m for n, m in mods.items()))\n"
    )
    assert out == f"{LIBRARY}\n[]\nTrue\n"


def test_every_exported_name_is_the_object_of_its_defining_module():
    out = fresh(
        "import sys\nimport crtkit\n"
        "for name in crtkit.__all__:\n"
        "    obj = getattr(crtkit, name)\n"
        "    home = sys.modules[obj.__module__]\n"
        "    print(name, home.__name__.startswith('crtkit.') and getattr(home, name) is obj)\n"
    )
    assert out == "".join(f"{name} True\n" for name in crtkit.__all__)
    assert len(crtkit.__all__) == len(set(crtkit.__all__)) == 75


def test_star_import_and_dir_list_every_name():
    out = fresh(
        "import crtkit\nnames = {}\nexec('from crtkit import *', names)\n"
        "print(sorted(set(names) - {'__builtins__'}) == sorted(crtkit.__all__))\n"
        f"print(set(crtkit.__all__) | set({LIBRARY!r}) <= set(dir(crtkit)))\n"
    )
    assert out == "True\nTrue\n"


def test_unknown_names_raise_attribute_error():
    out = fresh(
        "import crtkit\n"
        "for name in ('no_such_name', 'cli', 'DECIDERS'):\n"
        "    try:\n"
        "        getattr(crtkit, name)\n"
        "    except AttributeError as exc:\n"
        "        print(exc)\n"
    )
    assert out == "".join(
        f"module 'crtkit' has no attribute '{name}'\n"
        for name in ("no_such_name", "cli", "DECIDERS")
    )


def test_algebra_resolves_the_names_moved_to_conlat_and_terms():
    # perfbench/tracing.py looks reduct and the lattice functions up on
    # crtkit.algebra; reading the core must not run either module
    out = fresh(
        "import sys, types\nfrom crtkit import algebra\n"
        "algebra.FiniteAlgebra, algebra.congruence_violation, algebra.MAX_PRINCIPAL_EDGES\n"
        "print([type(sys.modules['crtkit.' + m]) is types.ModuleType for m in ('conlat', 'terms')])\n"
        "for module, names in sorted(algebra._MOVED.items()):\n"
        "    home = sys.modules['crtkit.' + module]\n"
        "    defined = {n for n, v in vars(home).items()\n"
        "               if getattr(v, '__module__', None) == home.__name__ and n[0] != '_'}\n"
        "    print(module, all(getattr(algebra, n) is getattr(home, n) for n in names.split()),\n"
        "          defined <= set(names.split()))\n"
        "try:\n    algebra.no_such_name\nexcept AttributeError as exc:\n    print(exc)\n"
    )
    assert out == (
        "[False, False]\nconlat True True\nterms True True\n"
        "module 'crtkit.algebra' has no attribute 'no_such_name'\n"
    )


def test_module_entry_point_runs_without_a_runtime_warning():
    # runpy warns when the module it runs is already in sys.modules, so the
    # package must not register crtkit.cli
    proc = subprocess.run(
        [sys.executable, "-W", "error::RuntimeWarning", "-m", "crtkit.cli", "--help"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.startswith("usage: crtkit")


def test_benchmark_tracer_rebinds_every_wrapped_function(tmp_path):
    # perfbench/tracing.py indexes sys.modules["crtkit.<module>"] right after
    # `import crtkit` and wraps each function where it is defined; a start-up
    # change that breaks that would otherwise show only in traced benchmark runs
    alg, congs, gen = tmp_path / "a.alg", tmp_path / "a.congs", tmp_path / "g.alg"
    alg.write_text(serialize_algebra(power_algebra(two_nearlattice(), 2)))
    congs.write_text("cong h 0 0 1 1\ncong v 0 1 0 1\n")
    gen.write_text(serialize_algebra(two_nearlattice()))
    check = ["check", "--algebra", str(alg), "--congs", str(congs)]
    script = (
        "import contextlib, io, sys\n"
        f"sys.path.insert(0, {PERFBENCH!r})\n"
        "from tracing import WRAPPED, Tracer\n"
        "tracer = Tracer()\n"
        "tracer.install()\n"
        "def wrapped():\n"
        "    return [hasattr(getattr(sys.modules['crtkit.' + m], f), '__wrapped__')\n"
        "            for m, f, _, _ in WRAPPED]\n"
        "print(all(wrapped()))\n"
        "from crtkit import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [cli.main({[*check, '--method', 'brute']!r}),\n"
        f"             cli.main({[*check, '--generator', str(gen)]!r})]\n"
        "metrics = tracer.metrics()\n"
        "tracer.uninstall()\n"
        "print(codes, any(wrapped()))\n"
        "for name in ('formats.parse_s', 'algebra.certify_s', 'systems.brute_s',\n"
        "             'postlattice.classify_witness_s', 'postlattice.route_s',\n"
        "             'nearlattice.view_s', 'nearlattice.decide_s'):\n"
        "    print(name, metrics[name] > 0)\n"
    )
    assert fresh(script).splitlines() == [
        "True",
        "[0, 0] False",
        "formats.parse_s True",
        "algebra.certify_s True",
        "systems.brute_s True",
        "postlattice.classify_witness_s True",
        "postlattice.route_s True",
        "nearlattice.view_s True",
        "nearlattice.decide_s True",
    ]


def _names_used(node) -> set:
    """The names a statement uses as code: names, attributes and imported
    names, never the words of a string or docstring."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name.rpartition(".")[2])
    return used


def test_every_library_definition_is_run_by_a_command_a_route_or_an_export():
    # roots: what a module runs at import (the CLI's entry point among it),
    # the names the package re-exports, the catalog constructors, the names
    # perfbench reads, the interpreter's dunders and WAITING; a definition
    # is kept when a kept one uses it, so helpers that only call each other
    # are caught too. algebra._MOVED is no root: it only aliases names
    # defined elsewhere, so a name it lists must be reached another way
    defined, reached = {}, set()
    for filename in sorted(os.listdir(SRC)):
        if filename.endswith(".py"):
            with open(os.path.join(SRC, filename)) as f:
                for node in ast.parse(f.read()).body:
                    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                        defined[filename[:-3], node.name] = node
                    else:
                        reached |= _names_used(node)
    reached.update(n for names in crtkit._EXPORTS.values() for n in names.split())
    for dirpath, dirnames, filenames in os.walk(PERFBENCH):
        dirnames[:] = [d for d in dirnames if d != "__pycache__"]
        for filename in filenames:
            with open(os.path.join(dirpath, filename), errors="replace") as f:
                reached.update(re.findall(r"\w+", f.read()))
    kept = set()
    grown = True
    while grown:
        grown = {
            key
            for key in defined.keys() - kept
            if key[1] in reached
            or key[0] == "catalog"
            or key in WAITING
            or re.fullmatch(r"__\w+__", key[1])
        }
        kept |= grown
        for key in grown:
            reached |= _names_used(defined[key])
    assert WAITING <= defined.keys()
    unreached = sorted(f"{m}.{n}" for m, n in defined.keys() - kept)
    assert not unreached, f"defined but run by no command, route or export: {unreached}"


def test_no_library_module_imports_a_name_it_never_uses():
    # a deletion can strand the import of what it deleted; a name counts as
    # used where the module's code reads it, annotations included
    unused = []
    for filename in sorted(os.listdir(SRC)):
        if filename.endswith(".py"):
            with open(os.path.join(SRC, filename)) as f:
                tree = ast.parse(f.read())
            read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
            for node in ast.walk(tree):
                if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"
                ):
                    bound = (alias.asname or alias.name.partition(".")[0] for alias in node.names)
                    unused += [f"{filename[:-3]}.{name}" for name in bound if name not in read]
    assert not unused, f"imported but never used: {unused}"
