"""crtkit: decide whether congruence tuples of finite algebras satisfy the
conclusion of the Chinese remainder theorem.

Importing the package runs none of its library modules. Each one is
registered in sys.modules and as a package attribute by
importlib.util.LazyLoader, and its body runs on the first attribute access,
so a command compiles only the modules it uses. The names re-exported here
resolve on first use through a module __getattr__ (PEP 562).
"""

import importlib.util
import sys

__version__ = "0.1.0"

# library module -> the names the package re-exports from it
_EXPORTS = {
    "errors": "BudgetExceededError ClassificationError CrtkitError InputError "
    "PreconditionError StructureError",
    "config": "",
    "partitions": "Partition quotient_partition",
    "algebra": "Congruence FiniteAlgebra Operation congruence is_congruence",
    "conlat": "all_congruences congruence_lattice_is_distributive "
    "congruence_lattice_is_permutable is_arithmetic meet_irreducible_congruences "
    "naive_meet_irreducibles principal_congruence",
    "terms": "App Var eval_term quotient reduct subalgebra term_str",
    "catalog": "",
    "systems": "CongruenceSystem CrVerdict brute_force_is_cr_tuple is_cr_pair lift_witness "
    "make_system quotient_reduce solve_system",
    "vectorspace": "Coordinatization VSInstance VsVerdict congruence_to_subspace coordinatize "
    "coset_partitions is_cr_tuple_vs vs_instance",
    "nearlattice": "NearlatticeView NlVerdict is_cr_tuple_distlattice is_cr_tuple_nearlattice "
    "is_cr_tuple_tarski lattice_view make_view tarski_view",
    "dualdisc": "DdVerdict is_cr_tuple_dualdisc",
    "satgadget": "CnfFormula ReductionInstance as_left_zero_semigroup assignment_to_system "
    "parse_dimacs random_3sat_prime reduce_formula semilattice_bounded_lift "
    "serialize_dimacs system_to_assignment u_embed validate_3sat_prime",
    "deciders": "",
    "postlattice": "Classification RouteResult classify route_decide "
    "table_of_term ternary_clone",
    "formats": "parse_algebra parse_congruences serialize_algebra serialize_congruences",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}
__all__ = sorted(_HOME)

# crtkit.cli stays out: `python -m crtkit.cli` must find it unimported
for _name in _EXPORTS:
    _spec = importlib.util.find_spec(f"{__name__}.{_name}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = globals()[_name] = _module
    _spec.loader.exec_module(_module)
del _name, _spec, _module


def __getattr__(name):
    if name in _HOME:
        return getattr(globals()[_HOME[name]], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
