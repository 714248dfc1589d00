"""The one execution core behind sweep shards, serve batches and workers.

:func:`execute_points` turns a batch of grid points into results: it
dedupes them by cache key, restores what the :class:`~repro.store.ResultStore`
already holds in one batched read, computes each distinct
:meth:`~repro.api.sweep.SweepPoint.input_key` of the rest once (points
that differ only in inputs their experiment does not read -- ``fig2b`` on
five presets -- share one run, and each gets the result labelled with its
own configuration), merges the runs of one mergeable experiment that read
the same inputs into one batched
:meth:`~repro.api.experiment.Experiment.run` (split back per point,
bitwise identical to point-at-a-time execution because the vectorized
kernel is elementwise per layer), falls back to per-point runs with a
:class:`RuntimeWarning` when a merge fails, returns per-point failures as
values, and persists the fresh results in one best-effort batched append.

Callers differ only in what surrounds the core: :func:`repro.api.sweep.run_shard`
(every transport and ``repro worker``) runs it without a store and turns a
failure into a :class:`~repro.api.sweep.SweepPointError`; the serve daemon
runs it with its long-lived :class:`SessionPool` and store and turns a
failure into a ``RunFailedError``.
"""

from __future__ import annotations

import dataclasses
import json
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    TYPE_CHECKING,
    Dict,
    FrozenSet,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..store import PackedStoreLockedError, ResultStore
from .configs import config_name
from .experiment import EXPERIMENTS, Experiment
from .results import ExperimentResult

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .sweep import SweepPoint

__all__ = [
    "Execution",
    "MAX_SESSION_GROUPS",
    "SessionPool",
    "append_results",
    "execute_points",
    "merge_key",
    "stamp_config",
]

#: Experiments whose points may be merged into one batched
#: ``Experiment.run``: per-model rows are computed independently (and, on
#: the vectorized engine, elementwise per layer), so the merged run is
#: bitwise identical to point-at-a-time execution.  The training-based
#: experiments are excluded defensively.
_MERGEABLE_EXPERIMENTS = frozenset(
    spec.id
    for spec in EXPERIMENTS.values()
    if spec.takes_models and not spec.aggregates_models and not spec.heavy
)

#: Most (seed, engine) groups of sessions a :class:`SessionPool` keeps
#: (each holds its workload profiles, datasets and compiled programs).
MAX_SESSION_GROUPS = 32

#: A point's result, or the exception its run raised.
Outcome = Union[ExperimentResult, Exception]


def merge_key(point: "SweepPoint") -> Optional[Tuple[str, str]]:
    """Batch-merge bucket of a point, or ``None`` when not mergeable.

    Mergeable points name models of a mergeable experiment; the bucket
    key includes every non-model parameter so only runs with identical
    extra parameters are batched together.
    """
    if point.experiment not in _MERGEABLE_EXPERIMENTS:
        return None
    models = point.params.get("models")
    if not isinstance(models, list) or not models:
        return None
    rest = {k: v for k, v in point.params.items() if k != "models"}
    canonical = json.dumps(rest, sort_keys=True, separators=(",", ":"))
    return (point.experiment, canonical)


class SessionPool:
    """Warm :class:`~repro.api.experiment.Experiment` sessions, one per
    (config, seed, engine), for at most :data:`MAX_SESSION_GROUPS`
    (seed, engine) groups.

    A group's first session is built directly; the group's other configs
    are cloned from it via
    :meth:`~repro.api.experiment.Experiment.with_config`, so they share one
    workload-profile cache and a grid over hardware configs profiles each
    workload once.  Opening a group beyond the cap evicts the least
    recently used group with all its sessions; requesting it again
    rebuilds it (results are seed-determined, so they are unchanged).
    Thread-safe.
    """

    def __init__(self) -> None:
        # (seed, engine) -> {config: session}, the first entry the group's
        # first session; least recently used group first.
        self._groups: "OrderedDict[Tuple[int, str], Dict[str, Experiment]]" = (
            OrderedDict()
        )
        self._lock = threading.Lock()

    def __len__(self) -> int:
        """Number of live sessions."""
        with self._lock:
            return sum(len(group) for group in self._groups.values())

    def get(self, config: str, seed: int, engine: str) -> Experiment:
        """The session of (config, seed, engine), created on first use."""
        with self._lock:
            group = self._groups.get((seed, engine))
            if group is None:
                session = Experiment(config=config, seed=seed, engine=engine)
                self._groups[(seed, engine)] = {config: session}
                if len(self._groups) > MAX_SESSION_GROUPS:
                    self._groups.popitem(last=False)
                return session
            self._groups.move_to_end((seed, engine))
            session = group.get(config)
            if session is None:
                session = next(iter(group.values())).with_config(config)
                group[config] = session
            return session


@dataclass(frozen=True)
class Execution:
    """What :func:`execute_points` returns.

    Attributes:
        results: ``{cache_key: result or the exception its run raised}``
            for every distinct key of the batch.
        hits: the keys restored from the store (no simulation).
        merge_fallbacks: merged runs that failed and were re-run point by
            point.
        append_skipped: store appends skipped because another process held
            the writer lock (0 or 1).
    """

    results: Dict[str, Outcome]
    hits: FrozenSet[str]
    merge_fallbacks: int = 0
    append_skipped: int = 0


def append_results(
    store: ResultStore,
    entries: Sequence[Tuple[str, ExperimentResult]],
    what: str,
) -> bool:
    """Best-effort ``store.append_many``: a concurrent writer holding the
    pack lock must not fail the run, so the append is skipped with a
    :class:`RuntimeWarning` instead.  Returns whether it was written."""
    try:
        store.append_many(entries)
    except PackedStoreLockedError as error:
        warnings.warn(
            f"skipping packed-store append for {what} ({error}); the "
            "results stay uncached",
            RuntimeWarning,
            stacklevel=3,
        )
        return False
    return True


def _run_single(session: Experiment, point: "SweepPoint") -> Outcome:
    """One point, one ``Experiment.run``; a failure becomes a value."""
    try:
        return session.run(point.experiment, **point.params)
    except Exception as error:
        return error


def _run_merged(
    session: Experiment, members: Sequence[Tuple[str, "SweepPoint"]]
) -> Optional[Dict[str, ExperimentResult]]:
    """Run a bucket as one batched call and split the rows back per point
    (by each point's model count), or ``None`` -- after a
    :class:`RuntimeWarning` naming the error -- when the merged run fails."""
    first = members[0][1]
    counts = [len(point.params["models"]) for _, point in members]
    params = dict(first.params)
    params["models"] = [
        model for _, point in members for model in point.params["models"]
    ]
    try:
        combined = session.run(first.experiment, **params)
        if len(combined.rows) != len(params["models"]):
            raise ValueError(
                f"merged run returned {len(combined.rows)} rows for "
                f"{len(params['models'])} models"
            )
    except Exception as error:
        warnings.warn(
            f"merged {first.experiment!r} run of {len(members)} points "
            f"failed ({type(error).__name__}: {error}); re-running them "
            "point by point",
            RuntimeWarning,
            stacklevel=3,
        )
        return None
    resolved = list(combined.params["models"])
    split: Dict[str, ExperimentResult] = {}
    offset = 0
    for (key, _), count in zip(members, counts):
        point_params = dict(combined.params)
        point_params["models"] = resolved[offset : offset + count]
        split[key] = ExperimentResult(
            experiment=combined.experiment,
            rows=combined.rows[offset : offset + count],
            params=point_params,
            seed=combined.seed,
            config=combined.config,
        )
        offset += count
    return split


def stamp_config(result: Outcome, point: "SweepPoint") -> Outcome:
    """``result`` labelled with ``point``'s configuration, as a run on that
    configuration labels it.

    Only a result of an experiment that does not read the configuration
    can carry another preset's label; every other result, and a failure,
    passes through unchanged.
    """
    if (
        isinstance(result, Exception)
        or "config" in EXPERIMENTS[point.experiment].reads
    ):
        return result
    name = config_name(point.config)
    if result.config == name:
        return result
    return dataclasses.replace(result, config=name)


def execute_points(
    points: Sequence["SweepPoint"],
    sessions: SessionPool,
    store: Optional[ResultStore] = None,
) -> Execution:
    """Execute (or restore) a batch of grid points.

    Steps: dedupe by cache key; one ``store.get_many`` for every distinct
    key; one computation per distinct input key of the misses; bucket
    those by (merge key, seed, inputs read); one merged run per bucket of
    several mergeable points, falling back to per-point runs (with a
    :class:`RuntimeWarning`) if it fails; per-point failures kept as
    values; every point sharing an input key gets the computed result
    labelled with its own configuration (:func:`stamp_config`); one
    best-effort ``store.append_many`` of the fresh results.

    Args:
        points: the grid points (duplicates are computed once).
        sessions: the warm sessions points run on.
        store: result store probed before and filled after execution
            (``None`` runs everything and persists nothing).
    """
    unique: Dict[str, "SweepPoint"] = {}
    for point in points:
        unique.setdefault(point.cache_key(), point)
    results: Dict[str, Outcome] = {}
    if store is not None and unique:
        results.update(store.get_many(unique))
    hits = frozenset(results)

    # input key -> [(cache key, point)]; the first member is computed.
    shared: Dict[str, List[Tuple[str, "SweepPoint"]]] = {}
    for key, point in unique.items():
        if key not in hits:
            shared.setdefault(point.input_key(), []).append((key, point))
    buckets: Dict[object, List[Tuple[str, "SweepPoint"]]] = {}
    for members in shared.values():
        key, point = members[0]
        merge = merge_key(point)
        bucket = (merge, point.seed, point.read_inputs()) if merge else key
        buckets.setdefault(bucket, []).append((key, point))
    fallbacks = 0
    for members in buckets.values():
        first = members[0][1]
        session = sessions.get(first.config, first.seed, first.engine)
        if len(members) > 1:
            merged = _run_merged(session, members)
            if merged is not None:
                results.update(merged)
                continue
            fallbacks += 1  # localise the failure point by point
        for key, point in members:
            results[key] = _run_single(session, point)
    for members in shared.values():
        computed = results[members[0][0]]
        for key, point in members:
            results[key] = stamp_config(computed, point)

    skipped = 0
    if store is not None:
        fresh = [
            (key, result)
            for key, result in results.items()
            if key not in hits and isinstance(result, ExperimentResult)
        ]
        if fresh and not append_results(store, fresh, f"{len(fresh)} results"):
            skipped = 1
    return Execution(results, hits, fallbacks, skipped)
