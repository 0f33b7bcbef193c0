"""Per-layer tracing of biskit, installed from outside its source.

A Tracer replaces, for the length of a `with` block, every public function
of each biskit module by a wrapper that records a span (name, start, end,
parent).  It rebinds each function wherever a biskit module holds it, so a
from-import such as `cli.check_boolean`, `rook.check_boolean` or
`laws.check_boolean` is traced too.  It also wraps `InvSgp.__init__`,
`Gpd.__init__`, the `InvSgp` cached properties and the law functions in
`SEMIGROUP_LAWS`/`GROUPOID_LAWS` (as `laws.<key>`).  Leaving the block puts
every original back.  Spans stay in memory until the benchmark writes them.

A layer is a biskit module.  LAYERS lists the metrics read for each one and
the end-to-end metric each should move, on which workload; a name that a
metric needs and that biskit no longer has stops the traced run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from functools import cached_property
from time import perf_counter

MODULES = ("core", "groupoid", "boolean", "booleanization", "rook", "typemon", "laws", "cli")

LAW_KEYS = (
    "l-and-r-order", "order-dr-monotone", "wedge", "fish", "restricted-product",
    "mu-separating", "universal-groupoid", "carre", "booleanization-finite",
    "atom-idempotent", "oj", "buffs", "definition", "meets-semisimple", "eggs",
    "chicken", "pork", "orthogonal", "setminus-2", "setminus-4",
    "setminus-1-corrected", "setminus-5-corrected", "atoms-semisimple",
    "dichotomy", "smallest", "toby", "noise", "anja", "idept-sep-kernel",
    "factorization", "ale", "main-finite", "finite", "finite-stuff",
    "discrete-topology", "order-isomorphisms", "rain", "type-monoid-basics",
    "type-fundamental", "butterfly", "connected-groupoids", "groupoids",
    "bordeaux1", "local-bisections-rook",
)

# Metrics per layer, each with the end-to-end metric it should move and on
# which workload.  A metric `<span>.calls` or `<span>.self_s` reads the span
# of that name; the others are computed in per_layer_metrics.
LAYERS = {
    # verdict_norm on analyze-i4 and verify-i4; built_self_s is the
    # trusted-construction target
    "core": (
        "InvSgp.calls", "InvSgp.elements", "InvSgp.parsed_self_s",
        "InvSgp.built_self_s", "meet_table.self_s", "join_table.self_s",
        "join_table.calls", "mu_and_quotient.self_s", "all_congruences.self_s",
    ),
    # verdict_norm on verify-corpus, through the groupoid laws
    "groupoid": (
        "Gpd.self_s", "component_form.self_s", "coordinatize.self_s",
        "groupoid_iso.self_s",
    ),
    # the ideal metrics move verdict_norm on analyze-i4 and verify-i4 and
    # leave verify-corpus unchanged
    "boolean": (
        "check_boolean.calls", "check_boolean.self_s", "k_of_groupoid.self_s",
        "k_of_groupoid.bisections", "theta_iso.self_s",
        "enumerate_additive_ideals.self_s", "enumerate_additive_ideals.useful_frac",
        "ideal_closure.calls", "ideal_closure.self_s",
        "verify_additive_ideal.self_s", "is_zero_simplifying.calls",
        "is_zero_simplifying.self_s", "epsilon_quotient.self_s",
        "analyze_morphism.self_s", "direct_product.self_s",
    ),
    # verdict_norm on verify-corpus; on verify-i4 only laws.decided, if the
    # bisection cap is lifted
    "booleanization": (
        "booleanize.self_s", "gamma_extension.self_s", "enumerate_filters.self_s",
        "filter_groupoid.self_s",
    ),
    # verdict_norm on analyze-i4 and verify-i4; decompose.calls falls once
    # derived data is shared
    "rook": ("decompose.calls", "decompose.self_s", "build_Mn_G0.self_s", "rook_mul.calls"),
    # verdict_norm on verify-i4
    "typemon": (
        "type_monoid.calls", "type_monoid.self_s", "ideal_triple.calls",
        "ideal_triple.self_s", "type_via_matrices.self_s",
    ),
    # verdict_norm on verify-i4 and verify-corpus only; no change on analyze-i4
    "laws": (*(f"laws.{key}.self_s" for key in LAW_KEYS), "laws.decided", "laws.skipped"),
    # raw seconds per verdict, next to verdict_norm
    "cli": ("cli.main.s", "cli.build_report.self_s"),
    # lines per source file, for the shrinkage aim; reported, not gated
    "src": tuple(f"{m}.src_lines" for m in ("init", *MODULES, "corpus", "errors")),
    # the calibration probe, the cost of tracing, and failed verdicts
    "bench": ("bench.calib_s", "bench.trace_overhead_frac", "bench.error_frac"),
}

PER_LAYER = tuple(name for names in LAYERS.values() for name in names)

# span names the metrics read; a traced run stops if one is not wrapped
SPANS_READ = {"parse_semigroup"} | {
    name.rsplit(".", 1)[0] for name in PER_LAYER if name.endswith((".calls", ".self_s"))
}


def _count_elements(counters, args, _result):
    counters["InvSgp.elements"] += args[0].size


def _count_bisections(counters, _args, result):
    counters["k_of_groupoid.bisections"] += len(result.bisections)


def _count_ideals(counters, args, result):
    counters["ideals.returned"] += len(result)
    counters["ideals.candidates"] += 2 ** len(args[0].base.idempotents)


COUNTERS = {
    "InvSgp": _count_elements,
    "k_of_groupoid": _count_bisections,
    "enumerate_additive_ideals": _count_ideals,
}


class Tracer:
    """Context manager that traces every biskit layer while it is open."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or -1]
        self.counters = Counter()
        self.excluded = defaultdict(float)  # span index -> benchmark seconds inside it
        self._stack = []
        self._undo = []
        self._names = set()  # span names wrapped

    def _wrap(self, fn, name):
        spans, stack, counters = self.spans, self._stack, self.counters
        count = COUNTERS.get(name)
        self._names.add(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if count is not None:
                count(counters, args, result)
            return result

        return traced

    def exclude(self, seconds):
        """Take time the benchmark itself spent in the open span out of its self time."""
        if self._stack:
            self.excluded[self._stack[-1]] += seconds

    def _set(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __enter__(self):
        mods = {m: importlib.import_module(f"biskit.{m}") for m in MODULES}
        try:
            self._install(mods)
            missing = SPANS_READ - self._names
            if missing:
                raise LookupError("traced names no longer in biskit: " + ", ".join(sorted(missing)))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def _install(self, mods):
        wrappers = {}  # original function -> its wrapper
        laws = mods["laws"]
        for registry in ("SEMIGROUP_LAWS", "GROUPOID_LAWS"):
            wrapped = tuple(
                (key, kind, wrappers.setdefault(fn, self._wrap(fn, f"laws.{key}")))
                for key, kind, fn in getattr(laws, registry)
            )
            self._set(laws, registry, wrapped)
        for m, mod in mods.items():
            for name, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not name.startswith("_")
                    and obj not in wrappers
                ):
                    wrappers[obj] = self._wrap(obj, f"cli.{name}" if m == "cli" else name)
        for mod in (importlib.import_module("biskit"), *mods.values()):
            for name, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, name, wrappers[obj])

        inv_sgp, gpd = mods["core"].InvSgp, mods["groupoid"].Gpd
        self._set(inv_sgp, "__init__", self._wrap(inv_sgp.__init__, "InvSgp"))
        self._set(gpd, "__init__", self._wrap(gpd.__init__, "Gpd"))
        for name, prop in list(vars(inv_sgp).items()):
            if isinstance(prop, cached_property):
                traced = cached_property(self._wrap(prop.func, name))
                traced.__set_name__(inv_sgp, name)
                self._set(inv_sgp, name, traced)

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)
        return False


def span_stats(spans, excluded):
    """Calls and self time per span name, plus InvSgp self time by parent.

    Self time is a span's duration minus the time its direct children cover
    and the excluded (benchmark) time inside it.
    """
    child = [0.0] * len(spans)
    for _name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    calls, self_s = Counter(), defaultdict(float)
    for i, (name, start, end, parent) in enumerate(spans):
        own = end - start - child[i] - excluded.get(i, 0.0)
        calls[name] += 1
        self_s[name] += own
        if name == "InvSgp":
            parsed = parent >= 0 and spans[parent][0] == "parse_semigroup"
            self_s["InvSgp.parsed" if parsed else "InvSgp.built"] += own
    return calls, self_s


def per_layer_metrics(tracers, extra):
    """Every PER_LAYER metric, per traced verdict; `extra` gives the rest."""
    n = len(tracers)
    calls, self_s, counters = Counter(), defaultdict(float), Counter()
    for tr in tracers:
        c, s = span_stats(tr.spans, tr.excluded)
        calls.update(c)
        for name, v in s.items():
            self_s[name] += v
        counters.update(tr.counters)
    values = {
        "InvSgp.elements": counters["InvSgp.elements"] / n,
        "InvSgp.parsed_self_s": self_s["InvSgp.parsed"] / n,
        "InvSgp.built_self_s": self_s["InvSgp.built"] / n,
        "k_of_groupoid.bisections": counters["k_of_groupoid.bisections"] / n,
        "enumerate_additive_ideals.useful_frac": (
            counters["ideals.returned"] / counters["ideals.candidates"]
            if counters["ideals.candidates"] else 0.0
        ),
        **extra,
    }
    out = {}
    for name in PER_LAYER:
        if name in values:
            value = values[name]
        elif name.endswith(".calls"):
            value = calls[name[: -len(".calls")]] / n
        elif name.endswith(".self_s"):
            value = self_s[name[: -len(".self_s")]] / n
        else:
            raise KeyError(f"no value for per-layer metric {name}")
        out[name] = {"value": value, "unit": unit_of(name)}
    return out


def unit_of(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_frac"):
        return "frac"
    if name.endswith("src_lines"):
        return "lines"
    return "count"
