"""The table of CR deciders, one per route name.

`crtkit check --method` and postlattice.route_decide (on every route but
the nearlattice one, whose view it certifies through the generator) call
through it, so `check` loads the classifier only with --generator. Every
entry certifies the tuple on the algebra it is given (algebra.certify), so
each refuses a non-congruence with the same StructureError and passes a
tuple already certified on that algebra unchecked. Each entry looks its
decider up as an attribute of its module at call time: only the module of
the route taken is loaded, and rebinding a decider in its own module
reaches every route.
"""

from . import algebra, dualdisc, nearlattice, systems, vectorspace


def _decide_vs(alg, thetas):
    congs = algebra.certify(alg, thetas)
    chart = vectorspace.coordinatize(alg)
    bases = [vectorspace.congruence_to_subspace(chart, c) for c in congs]
    return vectorspace.is_cr_tuple_vs(vectorspace.vs_instance(chart.p, chart.dim, bases))


# route name -> its decision on (algebra, tuple); the last three certify the
# tuple inside their own module
DECIDERS = {
    "brute": lambda alg, thetas: systems.brute_force_is_cr_tuple(algebra.certify(alg, thetas)),
    "vs": _decide_vs,
    "nearlattice": lambda alg, thetas: nearlattice.is_cr_tuple_nearlattice(
        nearlattice.make_view(alg), thetas
    ),
    "distlat": lambda alg, thetas: nearlattice.is_cr_tuple_distlattice(alg, thetas),
    "dualdisc": lambda alg, thetas: dualdisc.is_cr_tuple_dualdisc(alg, thetas),
}
