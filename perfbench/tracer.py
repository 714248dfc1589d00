"""Out-of-program span tracing for the benchmark.

The benchmark measures the ``repro`` layers from outside: it replaces the
public functions of each layer *at the name its caller uses* (callers bind
functions by ``from x import f``, so ``profile_model`` must be replaced in
:mod:`repro.api.experiment`, not only in :mod:`repro.workloads.profiles`)
with a wrapper that records one span per call -- name, start, end, parent
span and thread -- plus a small work count.  Spans stay in memory; the
caller writes them out when the run ends.

Nothing here is imported by the program itself, and an uninstalled tracer
leaves every patched attribute exactly as it found it.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple


def _sized(value: Any) -> int:
    """``len(value)`` when it has one (iterators are never consumed)."""
    try:
        return len(value)
    except TypeError:
        return 0


def _arg(args: Tuple, kwargs: Dict, position: int, name: str) -> Any:
    """Positional-or-keyword argument lookup for work counters."""
    if len(args) > position:
        return args[position]
    return kwargs.get(name)


@dataclass(frozen=True)
class Probe:
    """One function to wrap.

    Attributes:
        module: dotted module the attribute is looked up in.
        owner: class name inside ``module`` for a method, ``None`` for a
            module-level function.
        attr: the attribute replaced.
        name: span name; its prefix before the first ``.`` is the layer.
        work: optional ``(args, kwargs, result) -> int`` work counter.
        tag: optional ``(args, kwargs) -> hashable`` identity of the work
            (used to count distinct profiles).
    """

    module: str
    owner: Optional[str]
    attr: str
    name: str
    work: Optional[Callable[[Tuple, Dict, Any], int]] = None
    tag: Optional[Callable[[Tuple, Dict], Any]] = None


def _profile_tag(args: Tuple, kwargs: Dict) -> Any:
    workload = _arg(args, kwargs, 0, "workload")
    fta = _arg(args, kwargs, 2, "fta_config")
    return (
        getattr(workload, "name", repr(workload)),
        _arg(args, kwargs, 1, "seed"),
        repr(fta),
        _arg(args, kwargs, 3, "input_group"),
    )


#: Every layer boundary the benchmark traces.  Methods take ``self`` as
#: ``args[0]``, hence the shifted positions in their work counters.
PROBES: Tuple[Probe, ...] = (
    # repro.api.sweep -- planning, keys, shard execution, journal
    Probe("repro.api.sweep", None, "build_grid", "sweep.build_grid",
          work=lambda a, k, r: _sized(r)),
    Probe("repro.api.sweep", "ShardPlanner", "plan", "sweep.plan"),
    Probe("repro.api.sweep", None, "cache_keys_for_grid", "sweep.keys",
          work=lambda a, k, r: _sized(r)),
    Probe("repro.api.sweep", None, "run_shard", "sweep.run_shard",
          work=lambda a, k, r: _sized(r)),
    Probe("repro.api.sweep", "SweepJournal", "acquire", "sweep.journal_lock"),
    Probe("repro.api.sweep", "SweepJournal", "release", "sweep.journal_lock"),
    Probe("repro.api.sweep", "SweepJournal", "start", "sweep.journal_start"),
    Probe("repro.api.sweep", "SweepJournal", "append", "sweep.journal_append",
          work=lambda a, k, r: _sized(_arg(a, k, 1, "entries"))),
    # repro.store -- packed result store
    Probe("repro.store.packed", "PackedResultStore", "__init__", "store.open"),
    Probe("repro.store.packed", "PackedResultStore", "probe", "store.probe",
          work=lambda a, k, r: _sized(r)),
    Probe("repro.store.packed", "PackedResultStore", "locate", "store.locate",
          work=lambda a, k, r: _sized(r)),
    Probe("repro.store.packed", "PackedResultStore", "get_many",
          "store.get_many", work=lambda a, k, r: _sized(r)),
    Probe("repro.store.packed", "PackedResultStore", "append_many",
          "store.append_many",
          work=lambda a, k, r: _sized(_arg(a, k, 1, "entries"))),
    Probe("repro.store.packed", "PackedResultStore", "maybe_refresh",
          "store.refresh"),
    # repro.api.experiment -- the façade
    Probe("repro.api.experiment", "Experiment", "run", "experiment.run"),
    # repro.workloads.profiles -- synthesis -> quantize -> FTA -> IPU
    Probe("repro.api.experiment", None, "profile_model",
          "profiles.profile_model", tag=_profile_tag),
    Probe("repro.api.experiment", None, "synthesize_activations",
          "profiles.synthesize_activations"),
    Probe("repro.api.experiment", None, "synthesize_layer_weights",
          "profiles.synthesize_weights"),
    Probe("repro.workloads.profiles", None, "synthesize_layer_weights",
          "profiles.synthesize_weights"),
    Probe("repro.workloads.profiles", None, "synthesize_activations",
          "profiles.synthesize_activations"),
    Probe("repro.workloads.profiles", None, "quantize_weights",
          "profiles.quantize"),
    # repro.core -- FTA and digit statistics (as bound in profiles)
    Probe("repro.workloads.profiles", None, "approximate_layer", "core.fta",
          work=lambda a, k, r: int(getattr(a[0], "shape", (0,))[0]) if a else 0),
    Probe("repro.workloads.profiles", None, "count_nonzero_digits_array",
          "core.digits"),
    Probe("repro.workloads.profiles", None, "weight_zero_bit_ratio_binary",
          "core.digits"),
    Probe("repro.api.experiment", None, "analyze_input_sparsity",
          "core.input_sparsity"),
    # repro.arch.ipu
    Probe("repro.arch.ipu", "InputPreprocessingUnit", "average_active_columns",
          "arch.ipu"),
    # repro.sim -- cycle model and its batch kernels
    Probe("repro.sim.cycle_model", "CycleModel", "run_batch", "sim.run_batch",
          work=lambda a, k, r: _sized(r)),
    Probe("repro.sim.cycle_model", "CycleModel", "run_all_variants",
          "sim.run_all_variants", work=lambda a, k, r: _sized(r)),
    Probe("repro.sim.cycle_model", "CycleModel", "run_model", "sim.run_model",
          work=lambda a, k, r: 1),
    Probe("repro.sim.vectorized", None, "simulate_jobs", "sim.simulate_jobs",
          work=lambda a, k, r: _sized(_arg(a, k, 0, "job_arrays"))),
    Probe("repro.sim.vectorized", None, "simulate_grid", "sim.simulate_grid",
          work=lambda a, k, r: _sized(_arg(a, k, 1, "configs"))),
)


#: One recorded call: (id, parent id or 0, name, start, end, thread, work, tag).
Span = Tuple[int, int, str, float, float, int, int, Any]


def layer_of(name: str) -> str:
    """The layer a span name belongs to (its prefix before the first dot)."""
    return name.split(".", 1)[0]


class Tracer:
    """In-memory span recorder that patches :data:`PROBES` in place.

    ``enabled`` can be flipped while installed (the traced serve daemon
    does so on a signal); a disabled wrapper calls straight through.
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.enabled = True
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._saved: List[Tuple[Any, str, Any]] = []

    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, probe: Probe, original: Callable) -> Callable:
        tracer = self
        spans = self.spans
        ids = self._ids

        @functools.wraps(original)
        def traced(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return original(*args, **kwargs)
            stack = tracer._stack()
            span_id = next(ids)
            parent = stack[-1] if stack else 0
            stack.append(span_id)
            tag = probe.tag(args, kwargs) if probe.tag else None
            start = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException:
                spans.append(
                    (span_id, parent, probe.name, start, time.perf_counter(),
                     threading.get_ident(), 0, tag)
                )
                raise
            finally:
                stack.pop()
            end = time.perf_counter()
            work = probe.work(args, kwargs, result) if probe.work else 1
            spans.append(
                (span_id, parent, probe.name, start, end,
                 threading.get_ident(), work, tag)
            )
            return result

        return traced

    def install(self) -> "Tracer":
        """Replace every probed attribute with its tracing wrapper."""
        for probe in PROBES:
            module = importlib.import_module(probe.module)
            owner = getattr(module, probe.owner) if probe.owner else module
            original = (
                owner.__dict__[probe.attr]
                if probe.owner
                else getattr(owner, probe.attr)
            )
            self._saved.append((owner, probe.attr, original))
            setattr(owner, probe.attr, self._wrap(probe, original))
        return self

    def uninstall(self) -> None:
        """Restore every patched attribute (in reverse install order)."""
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def take(self) -> List[Span]:
        """Remove and return the spans recorded so far."""
        taken = self.spans[:]
        del self.spans[: len(taken)]
        return taken


# ---------------------------------------------------------------------------
# Span analysis
# ---------------------------------------------------------------------------
PROFILE_LAYERS = frozenset({"profiles", "core", "arch"})


class SpanTree:
    """Parent/child view of a span list with self-time helpers."""

    def __init__(self, spans: Iterable[Span]) -> None:
        self.spans = list(spans)
        self.by_id = {span[0]: span for span in self.spans}
        self.children: Dict[int, List[Span]] = {}
        for span in self.spans:
            self.children.setdefault(span[1], []).append(span)

    @staticmethod
    def duration(span: Span) -> float:
        return span[4] - span[3]

    def self_time(self, span: Span) -> float:
        """Span duration minus the part its child spans cover."""
        return self.duration(span) - sum(
            self.duration(child) for child in self.children.get(span[0], ())
        )

    def parent_layer(self, span: Span) -> Optional[str]:
        parent = self.by_id.get(span[1])
        return layer_of(parent[2]) if parent is not None else None

    def roots(self) -> List[Span]:
        """Spans with no recorded parent."""
        return [span for span in self.spans if span[1] not in self.by_id]

    def outermost(self, layers: frozenset) -> List[Span]:
        """Spans of ``layers`` whose parent span is not in ``layers``."""
        return [
            span
            for span in self.spans
            if layer_of(span[2]) in layers
            and self.parent_layer(span) not in layers
        ]

    def descendants(self, span: Span) -> Iterable[Span]:
        pending = list(self.children.get(span[0], ()))
        while pending:
            child = pending.pop()
            yield child
            pending.extend(self.children.get(child[0], ()))

    def total(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(self.duration(s) for s in self.spans if s[2] == name)

    def count(self, name: str) -> int:
        return sum(1 for s in self.spans if s[2] == name)

    def work(self, name: str) -> int:
        return sum(s[6] for s in self.spans if s[2] == name)

    def layer_self_times(self) -> Dict[str, float]:
        """Self time summed per layer."""
        totals: Dict[str, float] = {}
        for span in self.spans:
            layer = layer_of(span[2])
            totals[layer] = totals.get(layer, 0.0) + self.self_time(span)
        return totals

    def experiment_self(self) -> float:
        """``Experiment.run`` time minus the profiling nested inside it."""
        total = 0.0
        for span in self.spans:
            if span[2] != "experiment.run":
                continue
            nested = sum(
                self.duration(child)
                for child in self.descendants(span)
                if layer_of(child[2]) in PROFILE_LAYERS
                and self.parent_layer(child) not in PROFILE_LAYERS
            )
            total += self.duration(span) - nested
        return total


def layer_metrics(tree: SpanTree) -> Dict[str, float]:
    """Per-layer totals of one span set (not yet normalised per unit)."""
    profile_calls = [s for s in tree.spans if s[2] == "profiles.profile_model"]
    distinct = len({s[7] for s in profile_calls})
    sim_outer = tree.outermost(frozenset({"sim"}))
    return {
        "profiles.calls": float(len(profile_calls)),
        "profiles.distinct": float(distinct),
        "profiles.busy_s": sum(
            tree.duration(s) for s in tree.outermost(frozenset({"profiles"}))
        ),
        "profiles.synthesize_s": tree.total("profiles.synthesize_weights")
        + tree.total("profiles.synthesize_activations"),
        "profiles.quantize_s": tree.total("profiles.quantize"),
        "core.fta_s": tree.total("core.fta"),
        "core.fta_filters": float(tree.work("core.fta")),
        "core.digits_s": tree.total("core.digits"),
        "arch.ipu_s": tree.total("arch.ipu"),
        "sim.calls": float(len(sim_outer)),
        "sim.jobs": float(sum(s[6] for s in sim_outer)),
        "sim.busy_s": sum(tree.duration(s) for s in sim_outer),
        "experiment.run_calls": float(tree.count("experiment.run")),
        "experiment.run_self_s": tree.experiment_self(),
        "sweep.plan_s": tree.total("sweep.plan"),
        "sweep.keys_s": tree.total("sweep.keys"),
        "sweep.shards": float(tree.count("sweep.run_shard")),
        "sweep.run_shard_s": tree.total("sweep.run_shard"),
        "sweep.journal_appends": float(tree.count("sweep.journal_append")),
        "sweep.journal_s": tree.total("sweep.journal_append"),
        "store.probe_s": tree.total("store.probe"),
        "store.get_many_s": tree.total("store.get_many"),
        "store.records_read": float(tree.work("store.get_many")),
        "store.append_s": tree.total("store.append_many"),
        "store.records_written": float(tree.work("store.append_many")),
    }


def span_records(spans: Iterable[Span], origin: float) -> Iterable[Dict[str, Any]]:
    """JSON-safe span dicts, times in seconds relative to ``origin``."""
    for span_id, parent, name, start, end, thread, work, _tag in spans:
        yield {
            "id": span_id,
            "parent": parent,
            "name": name,
            "start": round(start - origin, 9),
            "end": round(end - origin, 9),
            "thread": thread,
            "work": work,
        }
