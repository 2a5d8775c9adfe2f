"""Spans and counts recorded around crtkit's public functions.

The benchmark wraps each function from its own files and rebinds the
wrapper under every name that refers to the original in every loaded
crtkit module (the CLI and the routers import with `from ... import`).
Spans nest, so a layer's self time is its span time minus the time of the
spans it caused. Spans stay in memory until the run ends.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

# per-layer metric names, in the order BENCHMARK.json lists them
TIME_METRICS = (
    "cli.startup_s",
    "cli.unaccounted_s",
    "formats.parse_s",
    "satgadget.reduce_s",
    "satgadget.embed_s",
    "algebra.certify_s",
    "algebra.reduct_s",
    "algebra.principal_s",
    "algebra.congruences_s",
    "algebra.lattice_props_s",
    "algebra.meet_irreducibles_s",
    "systems.brute_s",
    "postlattice.classify_tag_s",
    "postlattice.classify_witness_s",
    "postlattice.route_s",
    "nearlattice.view_s",
    "nearlattice.decide_s",
    "dualdisc.decide_s",
    "vectorspace.chart_s",
    "vectorspace.decide_s",
)
COUNT_METRICS = (
    "formats.parse_bytes",
    "satgadget.elements",
    "algebra.certify_entries",
    "algebra.principal_pairs",
    "algebra.principal_distinct",
    "algebra.congruences",
    "systems.brute_checked",
    "systems.brute_rate",
    "systems.budget_exhausted",
)


def _certify_entries(args, kwargs, result):
    alg = args[0]
    return {"algebra.certify_entries": sum(alg.size**op.arity for op in alg.ops if op.arity)}


def _principal(args, kwargs, result):
    n = args[0].size
    return {"algebra.principal_pairs": n * (n - 1) // 2, "algebra.principal_distinct": len(result)}


def _parse(args, kwargs, result):
    return {"formats.parse_bytes": len(args[0])}


def _reduce(args, kwargs, result):
    return {"satgadget.elements": result.size}


def _brute(args, kwargs, result):
    return {"systems.brute_checked": result.checked}


def _congruences(args, kwargs, result):
    return {"algebra.congruences": len(result)}


def _classify_layer(args, kwargs):
    with_witness = kwargs.get("with_witness", args[1] if len(args) > 1 else True)
    return "postlattice.classify_witness_s" if with_witness else "postlattice.classify_tag_s"


# (module, function, metric its self time goes to, counter of the call)
WRAPPED = (
    ("formats", "parse_algebra", "formats.parse_s", _parse),
    ("formats", "parse_congruences", "formats.parse_s", _parse),
    ("satgadget", "reduce_formula", "satgadget.reduce_s", _reduce),
    ("satgadget", "as_left_zero_semigroup", "satgadget.embed_s", None),
    ("satgadget", "u_embed", "satgadget.embed_s", None),
    ("algebra", "congruence_violation", "algebra.certify_s", _certify_entries),
    ("algebra", "reduct", "algebra.reduct_s", None),
    ("algebra", "principal_partition_set", "algebra.principal_s", _principal),
    ("algebra", "all_congruences", "algebra.congruences_s", _congruences),
    ("algebra", "congruence_lattice_is_distributive", "algebra.lattice_props_s", None),
    ("algebra", "congruence_lattice_is_permutable", "algebra.lattice_props_s", None),
    ("algebra", "naive_meet_irreducibles", "algebra.meet_irreducibles_s", None),
    ("algebra", "meet_irreducible_congruences", "algebra.meet_irreducibles_s", None),
    ("systems", "brute_force_is_cr_tuple", "systems.brute_s", _brute),
    ("postlattice", "classify", _classify_layer, None),
    ("postlattice", "route_decide", "postlattice.route_s", None),
    ("nearlattice", "make_view", "nearlattice.view_s", None),
    ("nearlattice", "lattice_view", "nearlattice.view_s", None),
    ("nearlattice", "is_cr_tuple_nearlattice", "nearlattice.decide_s", None),
    ("nearlattice", "is_cr_tuple_distlattice", "nearlattice.decide_s", None),
    ("dualdisc", "is_cr_tuple_dualdisc", "dualdisc.decide_s", None),
    ("vectorspace", "coordinatize", "vectorspace.chart_s", None),
    ("vectorspace", "congruence_to_subspace", "vectorspace.chart_s", None),
    ("vectorspace", "is_cr_tuple_vs", "vectorspace.decide_s", None),
)


class Tracer:
    """Records (layer, start, end, parent) spans and per-layer counts."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []  # name, start, end, id, parent
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[list] = []  # [span id, time of child spans]
        self._next_id = 0
        self._saved: list[tuple[object, str, object]] = []

    def root_time(self) -> float:
        """Summed duration of the spans no other span caused."""
        return sum(end - start for _, start, end, _, parent in self.spans if parent < 0)

    def _wrap(self, fn, layer, counter):
        tracer = self

        def traced(*args, **kwargs):
            name = layer(args, kwargs) if callable(layer) else layer
            parent = tracer._stack[-1][0] if tracer._stack else -1
            frame = [tracer._next_id, 0.0]
            tracer._next_id += 1
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                checked = getattr(exc, "checked", None)
                if name == "systems.brute_s" and checked is not None:
                    tracer.counts["systems.brute_checked"] += checked
                    tracer.counts["systems.budget_exhausted"] += 1
                raise
            else:
                if counter is not None:
                    for key, value in counter(args, kwargs, result).items():
                        tracer.counts[key] += value
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.self_time[name] += (end - start) - frame[1]
                if tracer._stack:
                    tracer._stack[-1][1] += end - start
                tracer.spans.append((name, start, end, frame[0], parent))

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every function in WRAPPED under every name bound to it."""
        import crtkit  # noqa: F401  (loads every submodule)

        modules = [m for n, m in list(sys.modules.items()) if n == "crtkit" or n.startswith("crtkit.")]
        for mod_name, fn_name, layer, counter in WRAPPED:
            original = getattr(sys.modules[f"crtkit.{mod_name}"], fn_name)
            wrapper = self._wrap(original, layer, counter)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._saved.append((mod, attr, value))
                        setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, value in reversed(self._saved):
            setattr(mod, attr, value)
        self._saved.clear()

    def metrics(self) -> dict[str, float]:
        out = {name: self.self_time.get(name, 0.0) for name in TIME_METRICS}
        out.update({name: self.counts.get(name, 0.0) for name in COUNT_METRICS})
        brute = self.self_time.get("systems.brute_s", 0.0)
        out["systems.brute_rate"] = out["systems.brute_checked"] / brute if brute > 0 else 0.0
        return out
