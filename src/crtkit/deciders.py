"""The table of CR deciders, one per route name.

`crtkit check --method` and postlattice.route_decide both call through it,
so `check` loads the classifier only when it is given --generator. Each
entry looks its decider up as an attribute of its module at call time:
only the module of the route taken is loaded, and rebinding a decider in
its own module reaches every route.
"""

from . import dualdisc, nearlattice, systems, vectorspace


def _decide_vs(alg, parts):
    chart = vectorspace.coordinatize(alg, "add")
    bases = [vectorspace.congruence_to_subspace(chart, part) for part in parts]
    return vectorspace.is_cr_tuple_vs(vectorspace.vs_instance(chart.p, chart.dim, bases))


# route name -> its decision on (algebra, partitions)
DECIDERS = {
    "brute": lambda alg, parts: systems.brute_force_is_cr_tuple(parts),
    "vs": _decide_vs,
    "nearlattice": lambda alg, parts: nearlattice.is_cr_tuple_nearlattice(
        nearlattice.make_view(alg), parts
    ),
    "distlat": lambda alg, parts: nearlattice.is_cr_tuple_distlattice(alg, parts),
    "dualdisc": lambda alg, parts: dualdisc.is_cr_tuple_dualdisc(alg, parts),
}
