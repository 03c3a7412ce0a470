"""Per-layer tracing of qusp from outside the package.

`LayerTracer.install` wraps the public functions and methods of each qusp
module, plus a few operators and validating constructors, and patches every
name under which a caller in the package looks them up (``cli`` imports
``qh_equivalent`` and the ``ratcover`` functions by name, ``ratcover`` imports
``iv`` and ``point``, and so on).  `uninstall` puts the originals back, so an
untraced pass runs the unmodified code.

Calls are aggregated per wrapped name into a count, inclusive time and self
time (inclusive minus the time spent in nested wrapped calls).  Spans are
recorded only at the ``run_scenario`` boundary and where a call enters the
``ratcover``, ``hyper`` or ``metrize`` layer from another layer; at depth 128
one scenario makes close to a million interval intersections, which are
counted, never recorded one by one.  Tracing is live only inside
``run_scenario``, so the benchmark's own output checks are not measured.

A metric whose wrapped target no longer exists in the package is reported as
absent instead of failing the run, and so is a metric read by a hook (below)
that raised, say because a certificate field was renamed; the wrapped call
itself is never disturbed by a hook.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from time import perf_counter_ns

LAYERS = ("intervals", "ratcover", "relcore", "quniform", "hyper", "metrize", "cli", "serialize")
SPAN_LAYERS = ("ratcover", "hyper", "metrize")
ROOT = "cli.run_scenario"

# Operators and validating constructors wrapped besides the public methods.
# Interval.__post_init__ is left out on purpose: it runs millions of times per
# dense scenario and no metric needs it.
DUNDERS = {
    "intervals.RationalIntervalSet": ("__post_init__", "__and__", "__or__", "__sub__", "__le__", "__contains__"),
    "relcore.Relation": ("__and__", "__or__", "__le__"),
    "quniform.FiniteQuasiUniformity": ("__post_init__",),
    "hyper.HyperRelation": ("__post_init__", "__and__", "__le__"),
    "ratcover.OmegaCover": ("__post_init__",),
    "metrize.FiniteQuasiPseudometric": ("__post_init__",),
}

NS = 1e-9


class _Stat:
    __slots__ = ("calls", "self_ns", "entries", "depth", "outer_ns")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.entries = 0  # calls made from another layer (or from outside)
        self.depth = 0
        self.outer_ns = 0  # inclusive time of outermost calls only


class LayerTracer:
    """Wraps the package on `install`, aggregates while `run_scenario` runs."""

    def __init__(self) -> None:
        self.active = False
        self.stats: dict[str, _Stat] = {}
        self.extra: dict[str, int] = {}
        self.spans: list[tuple] = []
        self.trace_id = ""
        self._stack: list[list] = []  # frames: [child_ns, layer, span_id]
        self._patches: list[tuple] = []
        self._next_span = 0
        self.targets: set[str] = set()
        self.hook_failed: set[str] = set()

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"qusp.{layer}") for layer in LAYERS}
        package_modules = [m for name, m in sys.modules.items() if name == "qusp" or name.startswith("qusp.")]
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    if inspect.isgeneratorfunction(obj):
                        continue
                    wrapped = self._wrap(f"{layer}.{name}", layer, obj)
                    for m in package_modules:
                        for attr, value in list(vars(m).items()):
                            if value is obj:
                                self._patch(m, attr, wrapped)
                elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._install_class(layer, name, obj)

    def _install_class(self, layer: str, cls_name: str, cls: type) -> None:
        extra = DUNDERS.get(f"{layer}.{cls_name}", ())
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr not in extra:
                continue
            key = f"{layer}.{cls_name}.{attr}"
            if isinstance(raw, (staticmethod, classmethod)):
                fn = raw.__func__
                if inspect.isgeneratorfunction(fn):
                    continue
                self._patch(cls, attr, type(raw)(self._wrap(key, layer, fn)))
            elif inspect.isfunction(raw) and not inspect.isgeneratorfunction(raw):
                self._patch(cls, attr, self._wrap(key, layer, raw))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- the wrapper ---------------------------------------------------------

    def _wrap(self, key: str, layer: str, fn):
        self.targets.add(key)
        stat = self.stats.setdefault(key, _Stat())
        hook = _HOOKS.get(key)
        is_root = key == ROOT
        spans = layer in SPAN_LAYERS
        tracer = self
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if is_root:
                tracer.active = True
            elif not tracer.active:
                return fn(*args, **kwargs)
            entering = not stack or stack[-1][1] != layer
            span_id = None
            if is_root or (spans and entering):
                span_id = tracer._next_span
                tracer._next_span += 1
            frame = [0, layer, span_id]
            done = None
            if hook:
                try:
                    done = hook(tracer, args)
                except Exception:
                    tracer.hook_failed.add(key)
            stack.append(frame)
            stat.depth += 1
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                elapsed = end - start
                stack.pop()
                stat.depth -= 1
                stat.calls += 1
                stat.self_ns += elapsed - frame[0]
                if entering:
                    stat.entries += 1
                if stat.depth == 0:
                    stat.outer_ns += elapsed
                if stack:
                    stack[-1][0] += elapsed
                if span_id is not None:
                    parent = next((f[2] for f in reversed(stack) if f[2] is not None), None)
                    tracer.spans.append((tracer.trace_id, span_id, parent, key, start, end))
                if is_root:
                    tracer.active = False
            if done:
                try:
                    done(result)
                except Exception:
                    tracer.hook_failed.add(key)
            return result

        return wrapper

    # -- read-out ------------------------------------------------------------

    def count(self, key: str) -> int:
        stat = self.stats.get(key)
        return stat.calls if stat else 0

    def layer_self_s(self, layer: str, exclude: tuple[str, ...] = ()) -> float:
        prefix = layer + "."
        return NS * sum(s.self_ns for k, s in self.stats.items() if k.startswith(prefix) and k not in exclude)

    def outer_s(self, *keys: str) -> float:
        return NS * sum(self.stats[k].outer_ns for k in keys if k in self.stats)

    def add(self, key: str, amount: int) -> None:
        self.extra[key] = self.extra.get(key, 0) + amount


# Extra work counts, read from a wrapped call's arguments and result.  A hook
# runs before the call and returns what to do with the result.  A metric that
# reads a hook's counts names it in its needs as "hook:<wrapped target>".
AND = "intervals.RationalIntervalSet.__and__"


def _normal_sequence(tracer: LayerTracer, args):
    # The yield comes from the certificate and from the intersections made
    # while cover_normal_sequence runs, never from the private per-pair
    # function, so it survives that function being replaced.
    ands = tracer.count(AND)

    def done(result):
        pairs = result.certificate["pairs"]
        tracer.add("stratum_pairs", sum(p["exact_stratum_checks"] + p["boundary_skipped"] for p in pairs))
        tracer.add("normal_sequence_ands", tracer.count(AND) - ands)
        tracer.add("grid_points", sum(p["grid_points"] for p in pairs))

    return done


def _hyper_rows(tracer: LayerTracer, args):
    return lambda result: tracer.add("hyper_rows", len(args[0].rows))


def _hyper_matrix(tracer: LayerTracer, args):
    n = args[0].ground.size
    # One 2^n x 2^n bit matrix per call; computed from n, not measured.
    return lambda result: tracer.add("hyper_matrix_bytes", (1 << n) * (1 << n) // 8)


def _floyd_warshall(tracer: LayerTracer, args):
    n = args[0].ground.size
    return lambda result: tracer.add("fw_steps", n**3)


_HOOKS = {
    "ratcover.cover_normal_sequence": _normal_sequence,
    "hyper.HyperRelation.__post_init__": _hyper_rows,
    "hyper.hyper_h": _hyper_matrix,
    "metrize.kelley_metric": _floyd_warshall,
}


# Each per-layer metric: (name, unit, wrapped targets it needs, how to read it).
def _metric_table():
    RIS = "intervals.RationalIntervalSet."
    MIN_INDEX = tuple(f"ratcover.OmegaCover.{m}" for m in ("min_index_of", "min_index_containing", "min_index_intersecting"))

    def yield_(t: LayerTracer):
        pairs = t.extra.get("stratum_pairs", 0)
        ands = t.extra.get("normal_sequence_ands", 0)
        if not pairs:
            return 0.0
        return pairs / ands if ands else None

    def entries(t: LayerTracer, layer: str) -> int:
        return sum(s.entries for k, s in t.stats.items() if k.startswith(layer + "."))

    def certs(t: LayerTracer) -> float:
        return t.outer_s(*(k for k in t.targets if k.startswith("ratcover.cert_")))

    return (
        ("intervals.self_s", "s", ("intervals.*",), lambda t: t.layer_self_s("intervals")),
        ("intervals.ops", "count", ("intervals.*",), lambda t: entries(t, "intervals")),
        ("intervals.and_calls", "count", (RIS + "__and__",), lambda t: t.count(RIS + "__and__")),
        ("intervals.sub_calls", "count", (RIS + "__sub__",), lambda t: t.count(RIS + "__sub__")),
        ("intervals.le_calls", "count", (RIS + "__le__",), lambda t: t.count(RIS + "__le__")),
        ("intervals.contains_calls", "count", (RIS + "__contains__",), lambda t: t.count(RIS + "__contains__")),
        ("intervals.sets_built", "count", (RIS + "__post_init__",), lambda t: t.count(RIS + "__post_init__")),
        ("ratcover.self_s", "s", ("ratcover.*",), lambda t: t.layer_self_s("ratcover")),
        ("ratcover.normal_sequence_s", "s", ("ratcover.cover_normal_sequence",),
         lambda t: t.outer_s("ratcover.cover_normal_sequence")),
        ("ratcover.stratum_pair_yield", "ratio", ("hook:ratcover.cover_normal_sequence", RIS + "__and__"), yield_),
        ("ratcover.grid_points", "count", ("hook:ratcover.cover_normal_sequence",),
         lambda t: t.extra.get("grid_points", 0)),
        ("ratcover.cert_s", "s", ("ratcover.cert_*",), certs),
        ("ratcover.refined_base_s", "s", ("ratcover.refined_base",), lambda t: t.outer_s("ratcover.refined_base")),
        ("ratcover.star_cover_calls", "count", ("ratcover.star_cover",), lambda t: t.count("ratcover.star_cover")),
        ("ratcover.min_index_calls", "count", MIN_INDEX, lambda t: sum(t.count(k) for k in MIN_INDEX)),
        ("ratcover.image_calls", "count", ("ratcover.MetricOracle.image",),
         lambda t: t.count("ratcover.MetricOracle.image")),
        ("hyper.self_s", "s", ("hyper.*",), lambda t: t.layer_self_s("hyper")),
        ("hyper.hyper_h_calls", "count", ("hyper.hyper_h",), lambda t: t.count("hyper.hyper_h")),
        ("hyper.rows_built", "count", ("hook:hyper.HyperRelation.__post_init__",), lambda t: t.extra.get("hyper_rows", 0)),
        ("hyper.matrix_bytes", "B_computed", ("hook:hyper.hyper_h",), lambda t: t.extra.get("hyper_matrix_bytes", 0)),
        ("metrize.self_s", "s", ("metrize.*",), lambda t: t.layer_self_s("metrize")),
        ("metrize.kelley_metric_s", "s", ("metrize.kelley_metric",), lambda t: t.outer_s("metrize.kelley_metric")),
        ("metrize.fw_steps", "count_computed", ("hook:metrize.kelley_metric",), lambda t: t.extra.get("fw_steps", 0)),
        ("metrize.metric_validate_s", "s", ("metrize.FiniteQuasiPseudometric.__post_init__",),
         lambda t: t.outer_s("metrize.FiniteQuasiPseudometric.__post_init__")),
        ("metrize.check_sandwich_s", "s", ("metrize.check_sandwich",), lambda t: t.outer_s("metrize.check_sandwich")),
        ("metrize.ladder_gen_s", "s", ("metrize.random_normal_sequence", "metrize.every_second_level"),
         lambda t: t.outer_s("metrize.random_normal_sequence", "metrize.every_second_level")),
        ("relcore.self_s", "s", ("relcore.*",), lambda t: t.layer_self_s("relcore")),
        ("relcore.compose_calls", "count", ("relcore.compose",), lambda t: t.count("relcore.compose")),
        ("quniform.self_s", "s", ("quniform.*",), lambda t: t.layer_self_s("quniform")),
        ("cli.validate_s", "s", ("cli.validate_scenario",), lambda t: t.outer_s("cli.validate_scenario")),
        ("cli.self_s", "s", ("cli.run_scenario",), lambda t: t.layer_self_s("cli", exclude=("cli.validate_scenario",))),
        ("serialize.self_s", "s", ("serialize.*",), lambda t: t.layer_self_s("serialize")),
    )


METRICS = _metric_table()


def _present(tracer: LayerTracer, needed: tuple[str, ...]) -> bool:
    # A need ending in "*" is a prefix: some target must start with it.  A
    # "hook:" need is a target whose hook must not have raised.
    for need in needed:
        if need.startswith("hook:"):
            if need[5:] not in tracer.targets or need[5:] in tracer.hook_failed:
                return False
        elif need.endswith("*"):
            if not any(k.startswith(need[:-1]) for k in tracer.targets):
                return False
        elif need not in tracer.targets:
            return False
    return True


def layer_metrics(tracer: LayerTracer, passes: int) -> dict[str, dict]:
    """Per-pass averages of every per-layer metric; counts repeat exactly per pass."""
    out: dict[str, dict] = {}
    for name, unit, needed, read in METRICS:
        value = read(tracer) if _present(tracer, needed) else None
        if value is None:
            out[name] = {"value": 0, "unit": unit, "absent": True}
            continue
        if unit != "ratio":
            value = value / passes
        if unit.startswith(("count", "B")):
            value = round(value)
        out[name] = {"value": value, "unit": unit}
    return out
