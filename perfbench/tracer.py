"""Spans and counts around the public functions of each cmimpute module,
recorded from outside the library.

Callers inside the package import functions by name (``impute.py``
does ``from .kmeans import cluster``), so patching
``cmimpute.kmeans.cluster`` alone would miss them.  Every binding of a
traced function in any ``cmimpute`` module is patched instead, which
also covers module-internal calls such as ``load_dataset`` calling
``parse_dataset``.  A traced function that no longer exists under its
name raises at construction, so a rename fails the traced run instead
of reporting zero.
"""

from __future__ import annotations

import contextlib
import functools
import gc
import importlib
import statistics
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Iterator


def _impute_counts(result) -> dict[str, int]:
    donors = {f.query_id: f.donor_ids for f in result.fills}
    reuse = Counter(d for ids in donors.values() for d in ids)
    counts = Counter(
        {
            "impute.queries": len(donors),
            "impute.cells_filled": len(result.fills),
            "impute.tie_queries": sum(len(ids) > 1 for ids in donors.values()),
            "impute.tie_size_max": max((len(ids) for ids in donors.values()), default=0),
            "impute.donor_reuse_max": max(reuse.values(), default=0),
        }
    )
    counts.update(f"impute.policy.{f.tie_policy}" for f in result.fills)
    return counts


# (metric for the span's self time, module, function, counts from the result)
TARGETS: tuple[tuple[str, str, str, Callable | None], ...] = (
    ("cli.self_s", "cli", "main", None),
    ("dataset.parse_s", "dataset", "load_schema", None),
    ("dataset.parse_s", "dataset", "load_dataset", None),
    ("dataset.parse_s", "dataset", "parse_dataset", lambda r: {"dataset.rows": len(r)}),
    ("dataset.encode_s", "dataset", "encode", None),
    ("dataset.encode_s", "dataset", "decode_dataset", None),
    ("dataset.split_s", "dataset", "split_groups", None),
    ("dataset.write_s", "dataset", "write_dataset", None),
    ("dataset.write_s", "dataset", "dataset_to_csv", None),
    (
        "kmeans.cluster_s",
        "kmeans",
        "cluster",
        lambda r: {"kmeans.iterations": len(r.sse_history), "kmeans.points": len(r.assignment)},
    ),
    (
        "mapping.map_s",
        "mapping",
        "build_mapping",
        lambda r: {"mapping.records_mapped": len(r.complete_map) + len(r.query_map)},
    ),
    (
        "impute.difference_s",
        "impute",
        "difference_table",
        lambda r: {"impute.difference_entries": len(r.entries)},
    ),
    ("impute.select_s", "impute", "nearest_record", None),
    ("impute.fill_s", "impute", "impute_dataset", _impute_counts),
    ("classify.mapped_s", "classify", "classify_mapped", lambda r: {"classify.ambiguous": int(r.is_ambiguous)}),
    ("classify.knn_s", "classify", "classify_raw_knn", lambda r: {"classify.ambiguous": int(r.is_ambiguous)}),
    ("evaluate.self_s", "evaluate", "run_experiment", None),
    ("evaluate.mask_s", "evaluate", "inject_mcar", None),
    ("evaluate.baseline_s", "evaluate", "baseline_class_stats", None),
    ("evaluate.baseline_s", "evaluate", "baseline_knn_donor", None),
    ("evaluate.score_s", "evaluate", "score_imputation", None),
)

GC_SPAN = "runtime.gc"
GC_METRIC = "runtime.gc_s"
# Counts reduced by max over the ops of a pass; every other count is summed.
MAX_COUNTS = frozenset({"impute.tie_size_max", "impute.donor_reuse_max"})


def resolve(module: str, name: str):
    """The function ``cmimpute.<module>.<name>``, or a loud failure."""
    mod = importlib.import_module(f"cmimpute.{module}")
    try:
        return getattr(mod, name)
    except AttributeError:
        raise RuntimeError(
            f"traced function cmimpute.{module}.{name} no longer exists; "
            "update perfbench/tracer.py TARGETS"
        ) from None


def bindings(func) -> list[tuple[object, str]]:
    """Every (module, attribute) of the cmimpute package bound to func."""
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "cmimpute" or mod_name.startswith("cmimpute.")):
            continue
        for attr, value in vars(mod).items():
            if value is func:
                found.append((mod, attr))
    return found


@contextlib.contextmanager
def patched(pairs: list[tuple[object, str, object, object]]) -> Iterator[None]:
    """Bind each (module, attribute) to its replacement, then restore."""
    for mod, attr, _, replacement in pairs:
        setattr(mod, attr, replacement)
    try:
        yield
    finally:
        for mod, attr, original, _ in pairs:
            setattr(mod, attr, original)


@contextlib.contextmanager
def intercept(func, on_result: Callable) -> Iterator[None]:
    """Call on_result with every value func returns inside the block."""

    @functools.wraps(func)
    def wrapper(*args, **kwargs):
        result = func(*args, **kwargs)
        on_result(result)
        return result

    with patched([(mod, attr, func, wrapper) for mod, attr in bindings(func)]):
        yield


class Tracer:
    """Records spans [name, start, end, parent, op] and per-op counts
    while installed; nothing is patched while it is not."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: dict[int, Counter] = defaultdict(Counter)
        self.metric_of: dict[str, str] = {GC_SPAN: GC_METRIC}
        self._stack: list[int] = []
        self._op = -1
        self._patches: list[tuple[object, str, object, object]] = []
        for metric, module, name, counter in TARGETS:
            func = resolve(module, name)
            span = f"{module}.{name}"
            self.metric_of[span] = metric
            wrapper = self._wrap(span, func, counter)
            self._patches += [(mod, attr, func, wrapper) for mod, attr in bindings(func)]

    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), None, parent, self._op])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def _close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, span: str, func, counter: Callable | None):
        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            index = self._open(span)
            try:
                result = func(*args, **kwargs)
            finally:
                self._close(index)
            if counter is not None:
                self._count(counter(result))
            return result

        return wrapper

    def _count(self, values: dict[str, int]) -> None:
        counts = self.counts[self._op]
        for key, value in values.items():
            counts[key] = max(counts[key], value) if key in MAX_COUNTS else counts[key] + value

    def _on_gc(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._open(GC_SPAN)
        elif self._stack and self.spans[self._stack[-1]][0] == GC_SPAN:
            self._close(self._stack[-1])
            self._count({"runtime.gc_collections": 1})

    @contextlib.contextmanager
    def tracing(self, op: int) -> Iterator[None]:
        """Patch every traced function and record spans for one op."""
        self._op = op
        with patched(self._patches):
            gc.callbacks.append(self._on_gc)
            try:
                yield
            finally:
                gc.callbacks.remove(self._on_gc)
                self._op = -1

    def self_times(self) -> dict[int, Counter]:
        """Per op, the self time of each layer metric: a span's duration
        minus the part its child spans cover."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        per_op: dict[int, Counter] = defaultdict(Counter)
        for (name, start, end, _, op), child in zip(self.spans, covered):
            per_op[op][self.metric_of[name]] += end - start - child
        return per_op

    def layer_metrics(self, ops: list[int], count_ops: list[int]) -> dict[str, float]:
        """Median self time per layer over ops, and counts reduced over count_ops."""
        per_op = self.self_times()
        out: dict[str, float] = {}
        for metric in sorted(set(self.metric_of.values())):
            out[metric] = statistics.median(per_op[op][metric] for op in ops)
        totals: Counter = Counter()
        for op in count_ops:
            for key, value in self.counts[op].items():
                totals[key] = max(totals[key], value) if key in MAX_COUNTS else totals[key] + value
        out.update(totals)
        return out
