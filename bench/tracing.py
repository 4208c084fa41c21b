"""Per-layer tracing of factorcrit from outside the program.

Each hook names a function or method that one module of the package exposes
to the modules above it. Installing a hook replaces the target in every
factorcrit namespace that holds it (``_has_pm`` lives in ``matching`` and was
imported into ``criticality`` and ``decomp``), so every call goes through
the wrapper. A ``span`` hook records one span per call in memory: hook,
parent span, start and end. A ``count`` hook only counts calls and truthy
results, for targets too small or too hot for a span. A hook whose target
no longer exists is reported as missing, so the benchmark keeps running
after internals are restructured.

A layer's self time is the duration of its spans minus the time covered by
their child spans. Self times plus the time outside every span (the
benchmark's own code and program code above the hooked functions) add up to
the traced wall time.
"""

from __future__ import annotations

import importlib
import json
import sys
import time
from array import array

# (key, module, attribute, kind)
HOOKS = (
    ("graphs.construct", "factorcrit.graphs", "Graph.__init__", "span"),
    ("graphs.codec", "factorcrit.graphs", "parse_graph6", "span"),
    ("graphs.codec", "factorcrit.graphs", "to_graph6", "span"),
    ("graphs.components", "factorcrit.graphs", "_components_masked", "span"),
    ("matching.has_pm", "factorcrit.matching", "_has_pm", "span"),
    ("matching.augment", "factorcrit.matching", "_find_augmenting", "count"),
    ("matching.matching_size", "factorcrit.matching", "_matching_size", "span"),
    ("decomp.barrier_search", "factorcrit.decomp", "find_barrier_witnesses", "span"),
    ("decomp.witness", "factorcrit.decomp", "_witness_for", "count"),
    ("criticality.subset_sweep", "factorcrit.criticality", "_first_failing_subset", "span"),
    ("criticality.minimalize", "factorcrit.criticality", "minimalize", "span"),
    ("criticality.deletion", "factorcrit.criticality", "_edge_deletable", "count"),
    ("criticality.certificate", "factorcrit.criticality", "minimality_certificate", "count"),
    ("configurations.classify", "factorcrit.configurations", "classify", "span"),
    ("enumeration.generate", "factorcrit.enumeration", "_representatives", "span"),
    ("enumeration.canonical", "factorcrit.enumeration", "_canonical_bytes", "span"),
    ("enumeration.parent", "factorcrit.enumeration", "_parent_is_canonical", "count"),
    ("enumeration.random_graph", "factorcrit.enumeration", "random_graph", "span"),
    ("cli.main", "factorcrit.cli", "main", "span"),
    ("cli.verify_scan", "factorcrit.cli", "verify_scan", "span"),
)

# metric name -> (hook key, field); fields are "calls", "self_s" and
# "yield" (truthy results / calls)
PER_LAYER = {
    "graphs.construct_calls": ("graphs.construct", "calls"),
    "graphs.construct_s": ("graphs.construct", "self_s"),
    "graphs.codec_calls": ("graphs.codec", "calls"),
    "graphs.codec_s": ("graphs.codec", "self_s"),
    "graphs.components_calls": ("graphs.components", "calls"),
    "graphs.components_s": ("graphs.components", "self_s"),
    "matching.has_pm_calls": ("matching.has_pm", "calls"),
    "matching.has_pm_s": ("matching.has_pm", "self_s"),
    "matching.augment_calls": ("matching.augment", "calls"),
    "matching.matching_size_calls": ("matching.matching_size", "calls"),
    "matching.matching_size_s": ("matching.matching_size", "self_s"),
    "decomp.barrier_search_calls": ("decomp.barrier_search", "calls"),
    "decomp.barrier_search_s": ("decomp.barrier_search", "self_s"),
    "decomp.witness_masks": ("decomp.witness", "calls"),
    "decomp.witness_yield": ("decomp.witness", "yield"),
    "criticality.subset_sweep_calls": ("criticality.subset_sweep", "calls"),
    "criticality.subset_sweep_s": ("criticality.subset_sweep", "self_s"),
    "criticality.minimalize_s": ("criticality.minimalize", "self_s"),
    "criticality.deletion_tests": ("criticality.deletion", "calls"),
    "criticality.deletion_yield": ("criticality.deletion", "yield"),
    "criticality.certificate_calls": ("criticality.certificate", "calls"),
    "configurations.classify_calls": ("configurations.classify", "calls"),
    "configurations.classify_self_s": ("configurations.classify", "self_s"),
    "enumeration.generate_s": ("enumeration.generate", "self_s"),
    "enumeration.canonical_calls": ("enumeration.canonical", "calls"),
    "enumeration.canonical_s": ("enumeration.canonical", "self_s"),
    "enumeration.parent_checks": ("enumeration.parent", "calls"),
    "enumeration.parent_accept_ratio": ("enumeration.parent", "yield"),
    "enumeration.random_graph_s": ("enumeration.random_graph", "self_s"),
    "cli.main_self_s": ("cli.main", "self_s"),
    "cli.verify_scan_self_s": ("cli.verify_scan", "self_s"),
}
UNITS = {"calls": "count", "self_s": "s", "yield": "ratio"}
# whole-run figures of the traced run, reported beside the layer metrics
TRACE_METRICS = {
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
    "trace.outside_spans_s": "s",
    "trace.spans": "count",
    "trace.missing_hooks": "count",
}

_KEYS = sorted({key for key, *_ in HOOKS})


def _resolve(module_name: str, attr: str):
    """(owner, name, original) for a hook target, or None when it is gone."""
    try:
        owner = importlib.import_module(module_name)
        *path, name = attr.split(".")
        for part in path:
            owner = getattr(owner, part)
        return owner, name, getattr(owner, name)
    except (ImportError, AttributeError):
        return None


class Tracer:
    """Installs the hooks, keeps the spans in memory and aggregates them."""

    def __init__(self) -> None:
        self.hook_ids = {key: i for i, key in enumerate(_KEYS)}
        self.names = array("b")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.current = [-1]
        self.calls = [0] * len(_KEYS)
        self.hits = [0] * len(_KEYS)
        self.missing: list[str] = []
        self._restore: list[tuple[object, str, object]] = []

    def _span(self, fn, hook_id: int):
        names, parents, starts, ends, current = (
            self.names, self.parents, self.starts, self.ends, self.current)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(starts)
            parent = current[0]
            names.append(hook_id)
            parents.append(parent)
            ends.append(0.0)
            current[0] = idx
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                current[0] = parent

        return wrapper

    def _count(self, fn, hook_id: int):
        calls, hits = self.calls, self.hits

        def wrapper(*args, **kwargs):
            calls[hook_id] += 1
            result = fn(*args, **kwargs)
            if result:
                hits[hook_id] += 1
            return result

        return wrapper

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if name == "factorcrit" or name.startswith("factorcrit.")]
        for key, module_name, attr, kind in HOOKS:
            target = _resolve(module_name, attr)
            if target is None:
                self.missing.append(f"{module_name}.{attr}")
                continue
            owner, name, original = target
            make = self._span if kind == "span" else self._count
            wrapper = make(original, self.hook_ids[key])
            if "." in attr:  # a method: the class is shared by every namespace
                self._restore.append((owner, name, original))
                setattr(owner, name, wrapper)
                continue
            for mod in modules:
                for var, value in list(vars(mod).items()):
                    if value is original:
                        self._restore.append((mod, var, original))
                        setattr(mod, var, wrapper)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._restore):
            setattr(owner, name, original)
        self._restore.clear()

    def summary(self, wall_s: float) -> dict:
        """Per-layer metrics from the spans and counters; ``wall_s`` is the
        traced wall time the spans lie in."""
        calls = list(self.calls)
        self_s = [0.0] * len(_KEYS)
        child = [0.0] * len(self.starts)
        top = 0.0
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        # a child span always has a larger index than its parent
        for i in range(len(starts) - 1, -1, -1):
            dur = ends[i] - starts[i]
            hook = names[i]
            calls[hook] += 1
            self_s[hook] += dur - child[i]
            parent = parents[i]
            if parent >= 0:
                child[parent] += dur
            else:
                top += dur
        fields = {}
        for key, i in self.hook_ids.items():
            fields[(key, "calls")] = calls[i]
            fields[(key, "self_s")] = self_s[i]
            fields[(key, "yield")] = self.hits[i] / calls[i] if calls[i] else 0.0
        metrics = {name: fields[ref] for name, ref in PER_LAYER.items()}
        metrics["trace.wall_s"] = wall_s
        metrics["trace.outside_spans_s"] = wall_s - top
        metrics["trace.spans"] = len(starts)
        metrics["trace.missing_hooks"] = len(self.missing)
        return {
            "metrics": metrics,
            "self_total_s": sum(self_s),
            "missing": list(self.missing),
        }

    def write(self, path) -> None:
        """Spans as one JSON header line, then the raw name, parent, start and
        end arrays in that order (native byte order)."""
        header = {
            "hooks": _KEYS,
            "spans": len(self.starts),
            "arrays": ["names:int8", "parents:int32", "starts:float64", "ends:float64"],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.names, self.parents, self.starts, self.ends):
                arr.tofile(fh)
