"""Sharded, process-parallel sweep service that resumes from its result store.

Regenerating the paper's whole evaluation section -- or a design-space grid
of it -- is a fan-out of independent experiment points.  This module turns
that fan-out into a small *service*:

* :func:`build_grid` expands (experiments x models x configs x seeds) into
  :class:`SweepPoint` s, splitting the model-parameterised experiments into
  one point per model so the fan-out is maximally parallel;
* :class:`ShardPlanner` splits the grid by **cache state**: points whose
  store entry already exists are set aside as *warm* grid indices
  (restored in one batched read), cold points are grouped by
  (seed, engine) -- so one worker session amortises configuration
  construction and profile caching across a whole shard -- and chunked
  into :class:`SweepShard` s of the requested shard count;
* :func:`run_shard` executes one shard through the execution core
  (:func:`repro.api.execution.execute_points`): single-model points of the
  same experiment are merged into **one batched** ``Experiment.run`` call
  that rides the vectorized engine's
  :func:`repro.sim.vectorized.simulate_jobs` shard-sized kernel, and the
  per-point results are split back out (bitwise identical to point-at-a-time
  execution -- the vectorized kernel is elementwise per layer);
* :func:`run_sweep` dispatches the shards over one of four fixed *shard
  transports* (:data:`repro.dist.TRANSPORTS`) -- ``"process"``
  (:class:`~concurrent.futures.ProcessPoolExecutor`, the fast path for
  cold CPU-bound sweeps: the cycle model holds the GIL in pure-Python
  mapping code, so threads serialise), ``"thread"`` (warm-cache /
  I/O-bound sweeps; keeps user-registered presets visible without
  shipping them), ``"serial"``, or ``"broker"`` (a distributed
  lease-and-requeue fabric coordinating ``repro worker`` processes over a
  shared ``sweep_dir``; every transport produces byte-identical results).

The coordinator owns the result store (:func:`repro.store.open_store`): it
restores warm points in one batched read and persists each finished shard
in one fsynced batch append, so workers never touch it.  The store is also
what makes a sweep resumable: an interrupted sweep re-run against the same
store restores every point a finished shard persisted and computes only
the rest, and its ``results`` are byte-identical to an uninterrupted run
(the hit/miss counters report the work of each invocation).

The result store is keyed by a content hash of the point (experiment id,
canonical parameters, seed, engine, schema/package versions and the full
hardware configuration digest); records are appended under a writer lock
and fsynced, and damaged records are treated as misses with a warning
instead of poisoning later runs.

Example::

    from repro.api import run_sweep

    sweep = run_sweep(experiments=("fig7",), transport="process",
                      cache_dir=".repro-cache")
    for result in sweep.filter("fig7"):
        print(result.params["models"], result.rows[0].speedup["hybrid"])
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from numbers import Integral
from pathlib import Path
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..arch.config import DBPIMConfig
from ..dist import DEFAULT_TRANSPORT, ShardTransport, transport_class
from ..sim.cycle_model import DEFAULT_ENGINE
from ..sim.engines import resolve_cycle_model_engine
from ..store import ResultStore, open_store
from .configs import config_digest, get_config, register_config
from .execution import SessionPool, append_results, execute_points
from .experiment import get_experiment_spec
from .results import (
    SCHEMA_VERSION,
    ExperimentResult,
    SweepResult,
    SweepStats,
    _jsonify,
)

__all__ = [
    "DEFAULT_SWEEP_EXPERIMENTS",
    "DEFAULT_TRANSPORT",
    "SweepPoint",
    "SweepShard",
    "ShardPlan",
    "ShardPlanner",
    "SweepPointError",
    "build_grid",
    "cache_keys_for_grid",
    "run_point",
    "run_shard",
    "run_sweep",
]

#: Experiments included in a sweep by default: everything except the
#: training-based accuracy study (minutes-scale; opt in explicitly).
DEFAULT_SWEEP_EXPERIMENTS = (
    "fig2a",
    "fig2b",
    "fig7",
    "table1",
    "table3",
    "table4",
    "program",
    "graph",
)


@dataclass(frozen=True)
class SweepPoint:
    """One independent cell of a sweep grid.

    Attributes:
        experiment: experiment id (``"fig7"``, ``"table4"``, ...).
        config: registered hardware preset name.
        seed: RNG seed of the point.
        params: extra experiment parameters (canonicalised to JSON types).
        engine: cycle-model engine evaluating the point, one of
            :data:`repro.sim.cycle_model.ENGINES` (``"vectorized"`` or
            ``"scalar"``).
    """

    experiment: str
    config: str = "paper-28nm"
    seed: int = 0
    params: Dict[str, Any] = field(default_factory=dict)
    engine: str = DEFAULT_ENGINE

    def __post_init__(self) -> None:
        object.__setattr__(self, "params", _jsonify(dict(self.params)))
        resolve_cycle_model_engine(self.engine)

    def describe(self) -> str:
        """One-line human identification of the point (used by errors)."""
        return (
            f"experiment={self.experiment!r} config={self.config!r} "
            f"seed={self.seed} engine={self.engine!r} params={self.params!r}"
        )

    def cache_key(self) -> str:
        """Content hash identifying this point's result in the cache.

        Covers the experiment id, canonical parameters, seed, the engine
        name (keys are byte-for-byte stable, pinned by
        ``tests/engines/test_cache_keys.py``), the full configuration
        contents (not just the preset name), the result schema version and
        the package version -- so renaming a preset is harmless while
        changing its contents, switching engines, or upgrading to a
        release whose simulator produces different numbers, invalidates
        the cached entries.  (The engines are pinned numerically
        identical, but keying them separately keeps the cache trustworthy
        even while one of them is being modified.)

        The key is memoized on the instance after the first call (the
        point is frozen, so it can never change): the planner, the
        execution core and the store all ask for it, and re-hashing the
        full configuration digest each time dominated the warm path.
        Grids compute keys in one batch via :func:`cache_keys_for_grid`.
        """
        memo = self.__dict__.get("_cache_key")
        if memo is None:
            from .. import __version__

            payload = {
                "schema_version": SCHEMA_VERSION,
                "version": __version__,
                "experiment": self.experiment,
                "params": self.params,
                "seed": self.seed,
                "engine": self.engine,
                "config_digest": config_digest(get_config(self.config)),
            }
            canonical = json.dumps(
                payload, sort_keys=True, separators=(",", ":")
            )
            memo = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_cache_key", memo)
        return memo

    def read_inputs(self) -> Tuple[Tuple[str, Any], ...]:
        """The point's values of the inputs its experiment reads.

        One ``(name, value)`` pair per name in the spec's
        :attr:`~repro.api.experiment.ExperimentSpec.reads`: the
        configuration digest, the engine name and the IPU group size (the
        configuration's).  A point carries no FTA configuration -- every
        point runs the default one -- so ``fta_config`` adds nothing.
        """
        reads = get_experiment_spec(self.experiment).reads
        values: List[Tuple[str, Any]] = []
        if "config" in reads:
            values.append(("config", config_digest(get_config(self.config))))
        if "engine" in reads:
            values.append(("engine", self.engine))
        if "input_group" in reads:
            values.append(
                ("input_group", get_config(self.config).macro.input_group)
            )
        return tuple(values)

    def input_key(self) -> str:
        """Hash of what this point's result is computed from.

        Covers the experiment id, canonical parameters, seed and
        :meth:`read_inputs` -- so points that differ only in inputs their
        experiment does not read (``fig2b`` on two presets) share one
        input key and one computation; each point's result is then
        labelled with its own configuration.  For an experiment that reads
        the configuration the input key *is* the :meth:`cache_key`: the
        engine is the only other input that key covers, and sharing such
        a result across engines is not worth a second hash per point.
        In-memory only: never written to the store.
        Memoized like :meth:`cache_key`.
        """
        memo = self.__dict__.get("_input_key")
        if memo is None:
            if "config" in get_experiment_spec(self.experiment).reads:
                memo = self.cache_key()
            else:
                canonical = json.dumps(
                    [self.experiment, self.params, self.seed, self.read_inputs()],
                    sort_keys=True,
                    separators=(",", ":"),
                )
                memo = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_input_key", memo)
        return memo


class SweepPointError(RuntimeError):
    """One grid point failed; carries the offending :class:`SweepPoint`.

    Raised by :func:`run_shard` / :func:`run_sweep` instead of letting an
    anonymous worker traceback surface after the whole grid drains: the
    message identifies the failing (experiment, config, seed, engine,
    params) cell and chains the original exception, and outstanding shard
    futures are cancelled.
    """

    def __init__(self, message: str, point: Optional[SweepPoint] = None) -> None:
        super().__init__(message)
        self.point = point

    def __reduce__(self):
        """Preserve the ``point`` attribute across process boundaries."""
        return (type(self), (self.args[0], self.point))


def _listed(field: str, values: Any, kind: type) -> Tuple[Any, ...]:
    """A list-valued sweep argument as a tuple of ``kind`` items.

    Raises:
        TypeError: naming ``field`` -- in particular for a bare string,
            which would otherwise iterate as one item per character.
    """
    noun = "strings" if kind is str else "integers"
    if isinstance(values, (str, bytes)) or not isinstance(values, Iterable):
        raise TypeError(
            f"sweep field {field!r} must be a list of {noun}, not {values!r}"
        )
    items = tuple(values)
    for item in items:
        if not isinstance(item, kind) or isinstance(item, bool):
            raise TypeError(
                f"sweep field {field!r} must be a list of {noun}, got {item!r}"
            )
    return items


def _grid_overrides(
    params_by_experiment: Optional[Mapping[str, Mapping[str, Any]]],
) -> Dict[str, Dict[str, Any]]:
    """Validated per-experiment parameters, keyed by experiment id.

    Each experiment's parameter names are checked once here, so a name
    the experiment does not take fails before any point runs.

    Raises:
        TypeError: not a mapping of mappings, or a parameter name the
            experiment does not take.
        KeyError: an unknown experiment id.
    """
    if params_by_experiment is None:
        return {}
    field = "sweep field 'params_by_experiment'"
    if not isinstance(params_by_experiment, Mapping):
        raise TypeError(f"{field} must map experiment ids to parameters")
    overrides: Dict[str, Dict[str, Any]] = {}
    for experiment, params in params_by_experiment.items():
        if not isinstance(experiment, str) or not isinstance(params, Mapping):
            raise TypeError(
                f"{field} must map experiment ids to parameter objects, "
                f"got {experiment!r}: {params!r}"
            )
        spec = get_experiment_spec(experiment)
        unknown = set(params) - spec.parameter_names
        if unknown:
            raise TypeError(
                f"{field}: {spec.unexpected_parameters_error(unknown)}"
            )
        overrides[spec.id] = dict(params)
    return overrides


def build_grid(
    experiments: Optional[Sequence[str]] = None,
    models: Optional[Sequence[str]] = None,
    configs: Sequence[str] = ("paper-28nm",),
    seeds: Sequence[int] = (0,),
    params_by_experiment: Optional[Mapping[str, Mapping[str, Any]]] = None,
    engine: str = DEFAULT_ENGINE,
) -> List[SweepPoint]:
    """Expand a sweep request into independent grid points.

    Model-parameterised experiments become one point per model (so five
    models of Fig. 7 fan out to five workers); model-free experiments
    (Table 1, Table 4) contribute a single point per (config, seed).

    Every argument is validated up front, before any point is built or
    any worker starts.

    Args:
        experiments: experiment ids (default: every non-training experiment).
        models: workload names (default: all five paper models).
        configs: registered preset names.
        seeds: RNG seeds (integers).
        params_by_experiment: extra per-experiment parameters, e.g.
            ``{"table2": {"epochs": 4}}``.
        engine: cycle-model engine evaluating every point (part of each
            point's cache key).

    Raises:
        TypeError: a field of the wrong type (a bare string where a list
            is expected, a non-integer seed, a non-string engine) or a
            parameter an experiment does not take; the message names the
            field.
        KeyError: an unknown experiment, config preset or workload.
        ValueError: an unknown engine or an empty model list.
    """
    ids = (
        _listed("experiments", experiments, str)
        if experiments is not None
        else DEFAULT_SWEEP_EXPERIMENTS
    )
    specs = [get_experiment_spec(experiment) for experiment in ids]
    config_names = _listed("configs", configs, str)
    for config in config_names:
        get_config(config)  # validate eagerly, before any worker starts
    seed_values = _listed("seeds", seeds, Integral)
    if not isinstance(engine, str):
        raise TypeError(
            f"sweep field 'engine' must be a string, not {engine!r}"
        )
    resolve_cycle_model_engine(engine)  # validate eagerly, with suggestions
    if models is not None:
        model_list = _listed("models", models, str)
        if not model_list:
            raise ValueError(
                "empty model list; pass None (or omit the argument) to sweep "
                "every workload"
            )
        for model in model_list:
            _get_workload(model)  # validate eagerly, before any worker starts
    else:
        model_list = _all_models()
    extra = _grid_overrides(params_by_experiment)
    points: List[SweepPoint] = []
    for config in config_names:
        for seed in seed_values:
            for spec in specs:
                overrides = extra.get(spec.id, {})
                if spec.takes_models and not spec.aggregates_models:
                    for model in model_list:
                        points.append(
                            SweepPoint(
                                experiment=spec.id,
                                config=config,
                                seed=int(seed),
                                params={**overrides, "models": [model]},
                                engine=engine,
                            )
                        )
                elif spec.takes_models:
                    # Experiments that aggregate across models (e.g. the
                    # Table 3 DB-PIM column) keep the list in one point so
                    # sweep results match a direct `Experiment.run`.
                    points.append(
                        SweepPoint(
                            experiment=spec.id,
                            config=config,
                            seed=int(seed),
                            params={**overrides, "models": list(model_list)},
                            engine=engine,
                        )
                    )
                else:
                    points.append(
                        SweepPoint(
                            experiment=spec.id,
                            config=config,
                            seed=int(seed),
                            params=overrides,
                            engine=engine,
                        )
                    )
    return points


def cache_keys_for_grid(points: Sequence[SweepPoint]) -> Tuple[str, ...]:
    """Compute every point's :meth:`~SweepPoint.cache_key` in one batch.

    Byte-identical to calling ``point.cache_key()`` per point (pinned by
    the goldens in ``tests/engines/test_cache_keys.py``), but the shared
    payload pieces are canonicalised **once per distinct value** instead of
    once per point: the experiment id and -- the expensive one -- the full
    configuration digest (:func:`repro.api.configs.config_digest`
    serialises the entire nested configuration) are each JSON-encoded once
    per (experiment, config) seen in the grid, and the canonical payload is
    assembled by string splicing in the exact key order ``json.dumps(...,
    sort_keys=True)`` would produce.  Each computed key is memoized on its
    (frozen) point, so later ``point.cache_key()`` calls are lookups.
    """
    from .. import __version__

    dumps = json.dumps
    # json.dumps(payload, sort_keys=True, separators=(",", ":")) emits the
    # keys alphabetically: config_digest < engine < experiment < params <
    # schema_version < seed < version.  The splice below reproduces that
    # byte stream exactly; scalar/string fragments need no separators.
    schema_seed = ',"schema_version":' + dumps(SCHEMA_VERSION) + ',"seed":'
    version_tail = ',"version":' + dumps(__version__) + "}"
    config_memo: Dict[str, str] = {}
    experiment_memo: Dict[str, str] = {}
    keys: List[str] = []
    for point in points:
        memo = point.__dict__.get("_cache_key")
        if memo is not None:
            keys.append(memo)
            continue
        digest_json = config_memo.get(point.config)
        if digest_json is None:
            digest_json = dumps(config_digest(get_config(point.config)))
            config_memo[point.config] = digest_json
        experiment_json = experiment_memo.get(point.experiment)
        if experiment_json is None:
            experiment_json = dumps(point.experiment)
            experiment_memo[point.experiment] = experiment_json
        canonical = (
            '{"config_digest":'
            + digest_json
            + ',"engine":'
            + dumps(point.engine)
            + ',"experiment":'
            + experiment_json
            + ',"params":'
            + dumps(point.params, sort_keys=True, separators=(",", ":"))
            + schema_seed
            + dumps(point.seed)
            + version_tail
        )
        key = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
        object.__setattr__(point, "_cache_key", key)
        keys.append(key)
    return tuple(keys)


def _all_models() -> Tuple[str, ...]:
    from ..workloads.models import list_workloads

    return tuple(list_workloads())


def _get_workload(name: str):
    from ..workloads.models import get_workload

    return get_workload(name)


# ---------------------------------------------------------------------------
# Point execution
# ---------------------------------------------------------------------------
def run_point(
    point: SweepPoint, cache_dir: Optional[Union[str, Path]] = None
) -> Tuple[ExperimentResult, bool]:
    """Execute (or load) one grid point through the execution core.

    Args:
        point: the grid point.
        cache_dir: result store directory probed first and filled after
            (``None`` disables it).

    Returns:
        ``(result, cache_hit)`` -- ``cache_hit`` is True when the result was
        deserialised from the on-disk cache without running any simulation.
    """
    execution = execute_points(
        (point,), SessionPool(), open_store(cache_dir)
    )
    key = point.cache_key()
    result = execution.results[key]
    if isinstance(result, Exception):
        raise result
    return result, key in execution.hits


# ---------------------------------------------------------------------------
# Shard planning
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class SweepShard:
    """A batch of grid points executed by one worker.

    Attributes:
        index: shard sequence number (stable across identical plans).
        indices: positions of the shard's points in the original grid.
        points: the grid points, in grid order.
        configs: the resolved ``(preset name, configuration)`` pairs of the
            shard's points.  Shipped with the shard so a process worker --
            whose fresh interpreter only knows the built-in presets -- can
            register user-defined presets before executing.
    """

    index: int
    indices: Tuple[int, ...]
    points: Tuple[SweepPoint, ...]
    configs: Tuple[Tuple[str, DBPIMConfig], ...] = ()

    def __len__(self) -> int:
        return len(self.points)


@dataclass(frozen=True)
class ShardPlan:
    """The output of :meth:`ShardPlanner.plan`.

    Attributes:
        shards: the cold shards to execute, in planning order.
        warm: grid indices whose cache entry existed at planning time, in
            grid order (restored by the coordinator, never sharded).
        cache_keys: the content hash of every grid point, in grid order
            (computed once here so restore and persistence reuse them).
    """

    shards: Tuple[SweepShard, ...]
    warm: Tuple[int, ...]
    cache_keys: Tuple[str, ...]

    @property
    def cold_points(self) -> int:
        """Points that will run the simulator (no cache entry at plan time)."""
        return sum(len(s) for s in self.shards)

    @property
    def warm_points(self) -> int:
        """Points expected to deserialise from the on-disk cache."""
        return len(self.warm)


class ShardPlanner:
    """Partition a sweep grid by cache state into executable cold shards.

    The planner is deterministic: the same grid and cache state always
    produce an identical :class:`ShardPlan` (pinned by the service tests).
    An interrupted sweep resumes by re-planning against its store: the
    points its finished shards persisted plan as warm.

    Points are partitioned in two steps:

    1. the grid is split by cache state -- *warm* points (cache entry
       exists) are set aside as grid indices the coordinator restores in
       one batched read, so a mostly-warm re-run does not occupy process
       workers with deserialisation;
    2. *cold* points are grouped by ``(seed, engine)``
       -- configurations deliberately stay *mixed* inside one group, so
       cold points that differ only in config share one worker's
       workload-profile cache across its per-config sessions
       (:class:`~repro.api.execution.SessionPool`) -- and each group is
       chunked into shards of roughly ``cold total / shards`` points, at
       *profile* and *input* boundaries: every cold single-model point of
       one model whose experiment profiles it lands in one shard, so each
       distinct workload profile is computed once per sweep, and cold
       points sharing an input key (:meth:`SweepPoint.input_key`) land in
       one shard, so each distinct input is computed once per sweep (see
       :func:`_profile_bundles`).  Bundles chunk in grid order.

    The warm/cold split costs ONE batched
    :meth:`~repro.store.ResultStore.probe` for the whole grid, not one
    ``stat`` per point.

    Args:
        cache_dir: the sweep's on-disk result cache (``None`` disables the
            warm/cold split; every point plans as cold).
        shards: target cold shard count (default: twice the worker count,
            so the pool stays busy while shards finish at different
            speeds).
        max_workers: the worker count the sweep will run with (used only to
            derive the default shard count).

    Attributes:
        store: the :class:`~repro.store.ResultStore` of ``cache_dir``
            (``None`` without one).
    """

    def __init__(
        self,
        cache_dir: Optional[Union[str, Path]] = None,
        shards: Optional[int] = None,
        max_workers: Optional[int] = None,
    ) -> None:
        if shards is not None and shards <= 0:
            raise ValueError("shards must be positive")
        if max_workers is not None and max_workers <= 0:
            raise ValueError("max_workers must be positive")
        self.store: Optional[ResultStore] = open_store(cache_dir)
        self.shards = shards
        self.max_workers = max_workers

    def _target_shards(self) -> int:
        """The shard count used when none was requested explicitly."""
        if self.shards is not None:
            return self.shards
        workers = self.max_workers or os.cpu_count() or 1
        return max(1, workers * 2)

    def plan(self, grid: Sequence[SweepPoint]) -> ShardPlan:
        """Split ``grid`` into warm indices and cold shards.

        Args:
            grid: the sweep points, in grid order (see :func:`build_grid`).
        """
        keys = cache_keys_for_grid(grid)
        present = (
            self.store.probe(keys) if self.store is not None else frozenset()
        )
        warm: List[int] = []
        # (seed, engine) -> [(grid index, point)]; configs mix inside a
        # group so one worker's per-config sessions share profiles.
        groups: Dict[Tuple[int, str], List[Tuple[int, SweepPoint]]] = {}
        cold_total = 0
        for index, (point, key) in enumerate(zip(grid, keys)):
            if key in present:
                warm.append(index)
            else:
                groups.setdefault((point.seed, point.engine), []).append(
                    (index, point)
                )
                cold_total += 1

        chunk_size = max(1, -(-cold_total // self._target_shards()))
        shards: List[SweepShard] = []
        for members in groups.values():
            for chunk in _chunk_bundles(_profile_bundles(members), chunk_size):
                shards.append(_make_shard(len(shards), chunk))
        return ShardPlan(
            shards=tuple(shards),
            warm=tuple(warm),
            cache_keys=keys,
        )


def _make_shard(
    index: int, members: Sequence[Tuple[int, SweepPoint]]
) -> SweepShard:
    """One shard of ``(grid index, point)`` members, shipping the resolved
    configuration of every distinct preset in first-appearance order."""
    resolved: Dict[str, DBPIMConfig] = {}
    for _, point in members:
        if point.config not in resolved:
            resolved[point.config] = get_config(point.config)
    return SweepShard(
        index=index,
        indices=tuple(i for i, _ in members),
        points=tuple(p for _, p in members),
        configs=tuple(resolved.items()),
    )


# ---------------------------------------------------------------------------
# Shard execution (runs inside worker threads / processes)
# ---------------------------------------------------------------------------
#: Experiments whose runner profiles every requested workload
#: (``Experiment.profile``).  Only their cold points are bundled per model;
#: bundling anything else (e.g. the training-based ``table2``) would only
#: serialise work that shares no profile.
_PROFILING_EXPERIMENTS = frozenset({"fig7", "table3", "program"})


def _profile_bundles(
    members: Sequence[Tuple[int, SweepPoint]]
) -> List[List[Tuple[int, SweepPoint]]]:
    """Cold points bundled by the workload profile or the input they need.

    Every single-model point of a profiling experiment joins the bundle of
    its model, so one shard runs all of those cold points and its sessions
    profile the model once; every other point joins the bundle of its
    :meth:`~SweepPoint.input_key`, so points sharing one computation land
    in one shard, where :func:`~repro.api.execution.execute_points`
    computes it once.  Bundles open at their first point, in grid order.
    """
    bundles: List[List[Tuple[int, SweepPoint]]] = []
    by_need: Dict[Tuple[str, str], List[Tuple[int, SweepPoint]]] = {}
    for index, point in members:
        models = point.params.get("models")
        if (
            point.experiment in _PROFILING_EXPERIMENTS
            and isinstance(models, list)
            and len(models) == 1
        ):
            need = ("model", str(models[0]).lower())
        else:
            need = ("input", point.input_key())
        if need not in by_need:
            by_need[need] = []
            bundles.append(by_need[need])
        by_need[need].append((index, point))
    return bundles


def _chunk_bundles(
    bundles: Sequence[List[Tuple[int, SweepPoint]]], size: int
) -> Iterator[List[Tuple[int, SweepPoint]]]:
    """Pack whole bundles into chunks of at least ``size`` points (the last
    may be smaller), each chunk in grid order.  Single-point bundles chunk
    exactly like ``members[start : start + size]``."""
    chunk: List[Tuple[int, SweepPoint]] = []
    for bundle in bundles:
        chunk.extend(bundle)
        if len(chunk) >= size:
            yield sorted(chunk, key=lambda member: member[0])
            chunk = []
    if chunk:
        yield sorted(chunk, key=lambda member: member[0])


def run_shard(shard: SweepShard) -> List[Tuple[int, ExperimentResult, bool]]:
    """Execute one shard in the current process.

    This is the worker entry point of every transport and of ``repro
    worker`` (it is a module-level function so
    :class:`~concurrent.futures.ProcessPoolExecutor` can pickle it).  It
    registers the shard's shipped configurations, then runs its points
    through :func:`repro.api.execution.execute_points` on a fresh
    :class:`~repro.api.execution.SessionPool` with no result store -- the
    coordinator owns the store.

    Args:
        shard: the shard to execute (see :class:`ShardPlanner`).

    Returns:
        ``(grid index, result, False)`` triples, sorted by grid index.

    Raises:
        SweepPointError: for the first failed point in grid order; chains
            the point's exception.
    """
    for name, config in shard.configs:
        try:
            known = get_config(name)
        except KeyError:
            known = None
        if known != config:
            # A fresh worker interpreter only knows the built-in presets;
            # materialise the parent's registration (including presets the
            # parent overrode, which a spawn-started worker would otherwise
            # silently resolve to the built-in contents).
            register_config(name, config, overwrite=True)
    execution = execute_points(shard.points, SessionPool())
    outcomes: List[Tuple[int, ExperimentResult, bool]] = []
    for index, point in sorted(
        zip(shard.indices, shard.points), key=lambda member: member[0]
    ):
        result = execution.results[point.cache_key()]
        if isinstance(result, Exception):
            raise SweepPointError(
                f"sweep point failed: {point.describe()}: "
                f"{type(result).__name__}: {result}",
                point,
            ) from result
        outcomes.append((index, result, False))
    return outcomes


# Unused, but perfbench/tracer.py probes these four methods by name.
class SweepJournal:
    """Stub of the retired JSONL run journal; nothing constructs or calls it.

    A sweep resumes from its packed result store (see :func:`run_sweep`).
    The class stays only because the benchmark tracer patches its four
    methods and fails on a missing one; it goes when the tracer drops
    those probes.
    """

    def acquire(self) -> None:
        """Unused."""

    def release(self) -> None:
        """Unused."""

    def start(self, resume: bool = False) -> None:
        """Unused."""

    def append(self, entries: Any, locations: Any = None) -> None:
        """Unused."""


# ---------------------------------------------------------------------------
# The sweep service front door
# ---------------------------------------------------------------------------
def _create_transport(
    transport_name: str,
    sweep_dir: Optional[Union[str, Path]],
    transport_options: Optional[Mapping[str, Any]],
) -> ShardTransport:
    """Instantiate the named transport with the sweep's transport knobs.

    Raises:
        ValueError: unknown transport name (the message lists the
            transport names), or options the transport rejects (e.g.
            ``sweep_dir=`` with a local transport).
    """
    cls = transport_class(transport_name)
    options: Dict[str, Any] = dict(transport_options or {})
    if sweep_dir is not None:
        options.setdefault("sweep_dir", sweep_dir)
    try:
        return cls(**options)
    except TypeError as error:
        raise ValueError(
            f"invalid options for transport {transport_name!r}: {error}"
        ) from error


def run_sweep(
    experiments: Optional[Sequence[str]] = None,
    models: Optional[Sequence[str]] = None,
    configs: Sequence[str] = ("paper-28nm",),
    seeds: Sequence[int] = (0,),
    max_workers: Optional[int] = None,
    cache_dir: Optional[Union[str, Path]] = None,
    params_by_experiment: Optional[Mapping[str, Mapping[str, Any]]] = None,
    engine: str = DEFAULT_ENGINE,
    shards: Optional[int] = None,
    journal: Optional[Union[str, Path]] = None,
    resume: bool = False,
    cache_backend: str = "packed",
    transport: Optional[str] = None,
    sweep_dir: Optional[Union[str, Path]] = None,
    transport_options: Optional[Mapping[str, Any]] = None,
) -> SweepResult:
    """Run a grid of experiment points as a sharded, resumable sweep.

    The grid is expanded by :func:`build_grid`, partitioned into shards by
    :class:`ShardPlanner` (warm and cold points separated, cold points
    grouped per worker session) and executed by the selected transport.
    With a result store, each finished shard is persisted in one fsynced
    batch append, so killing the sweep loses at most the in-flight shards:
    re-running it against the same store restores every persisted point
    and computes only the rest.

    Args:
        experiments: experiment ids (default: every non-training experiment).
        models: workload names for the model-parameterised experiments.
        configs: registered configuration preset names.
        seeds: RNG seeds.
        max_workers: worker threads/processes (default: one per shard,
            capped at the CPU count; ``1`` forces in-process execution for
            the ``thread`` backend).
        cache_dir: directory of the packed result store
            (:class:`repro.store.PackedResultStore`: one batched probe
            plans the grid, one batched sequential read restores every
            warm point, one locked batch append per shard persists cold
            results; ``None`` disables caching unless ``journal`` names
            the store).
        params_by_experiment: extra per-experiment parameters.
        engine: cycle-model engine evaluating every point (``"vectorized"``
            by default; part of each point's cache key).
        shards: target shard count (default: twice the worker count).
        journal: the store directory when ``cache_dir`` is ``None`` (a
            sweep resumes from its store, so this is just another name for
            ``cache_dir``); ignored when ``cache_dir`` is given.
        resume: accepted for compatibility and changes nothing: every
            sweep with a store already restores its finished points.  It
            still requires ``cache_dir`` or ``journal``, the store to
            resume from.  The resumed sweep's ``results`` are
            byte-identical to an uninterrupted run; its hit/miss counters
            report the work *this* invocation did, so restored points
            count as hits.
        cache_backend: must be ``"packed"``, the only layout.
        transport: shard transport executing the sweep, by name (one of
            :data:`repro.dist.TRANSPORTS`):
            ``"thread"`` (default; warm-cache / I/O-bound re-runs),
            ``"process"`` (:class:`~concurrent.futures.ProcessPoolExecutor`;
            the fast path for cold CPU-bound grids -- the mapping
            equations hold the GIL, so threads serialise), ``"serial"``
            (in-process, for debugging) or ``"broker"`` (the distributed
            shared-directory fabric ``repro worker`` processes attach to;
            requires ``sweep_dir``).  Every transport produces a
            byte-identical :class:`SweepResult`.
        sweep_dir: shared coordination directory of a distributed
            transport (workers attach with ``repro worker <sweep_dir>``).
        transport_options: extra keyword arguments for the transport
            class (e.g. the broker's ``lease_ttl_s`` / ``poll_s`` /
            ``max_attempts`` / ``coordinator_executes``).

    Returns:
        A :class:`SweepResult` with the per-point results in grid order,
        cache hit/miss counts, and (non-serialised) transport/shard/timing
        statistics in :attr:`~repro.api.results.SweepResult.stats`.

    Raises:
        ValueError: on an unknown transport, invalid transport options,
            ``resume`` with neither ``cache_dir`` nor ``journal``, a
            ``journal`` path that is a file (an old JSONL journal), or a
            ``cache_backend`` other than ``"packed"``.
        SweepPointError: when a grid point fails (identifies the point).
        repro.dist.WorkerLostError: a distributed shard exhausted its
            retry budget (its workers kept dying).
    """
    # Kept only because perfbench/sweeps.py still passes it.
    if cache_backend != "packed":
        raise ValueError(
            f"unknown cache backend {cache_backend!r}: the packed store is "
            "the only layout"
        )
    if cache_dir is None and journal is not None:
        if Path(journal).is_file():
            raise ValueError(
                f"journal {str(journal)!r} is a file, probably an old JSONL "
                "run journal: the journal path now names a packed result "
                "store directory; pass a new path (or cache_dir=)"
            )
        cache_dir = journal
    if resume and cache_dir is None:
        raise ValueError(
            "resume=True needs a store to resume from: pass cache_dir= "
            "(or journal=)"
        )
    transport_name = transport if transport is not None else DEFAULT_TRANSPORT
    transport_obj = _create_transport(
        transport_name, sweep_dir, transport_options
    )
    planner = ShardPlanner(
        cache_dir=cache_dir,
        shards=shards,
        max_workers=max_workers,
    )
    started = time.perf_counter()
    grid = build_grid(
        experiments=experiments,
        models=models,
        configs=configs,
        seeds=seeds,
        params_by_experiment=params_by_experiment,
        engine=engine,
    )
    # The coordinator owns the result store for every transport: it
    # restores every warm point through ONE batched ``get_many``, hands
    # only cold shards to the transport (workers run store-less), and
    # persists each finished shard with one ``append_many``.
    store = planner.store
    plan = planner.plan(grid)
    keys = plan.cache_keys
    results: List[Optional[ExperimentResult]] = [None] * len(grid)
    finished = 0

    def _finish_shard(
        shard: SweepShard,
        outcomes: Sequence[Tuple[int, ExperimentResult, bool]],
    ) -> None:
        """Fill one executed shard's results and persist them."""
        nonlocal finished
        for index, result, _ in outcomes:
            results[index] = result
        finished += len(outcomes)
        if store is not None:
            append_results(
                store,
                [(keys[index], result) for index, result, _ in outcomes],
                f"shard {shard.index}",
            )

    executed = len(plan.shards)
    hits = 0
    if plan.warm:  # only a store makes points warm
        # One pass restores every warm point and collects the lost ones.
        warm_keys = [keys[index] for index in plan.warm]
        fetched = store.get_many(warm_keys)
        lost: List[Tuple[int, SweepPoint]] = []
        for index, key in zip(plan.warm, warm_keys):
            result = results[index] = fetched.get(key)
            if result is None:
                lost.append((index, grid[index]))
        hits = finished = len(plan.warm) - len(lost)
        if lost:
            # Entries damaged (or removed) between planning and restore
            # recompute exactly like cold points.
            recovery = _make_shard(len(plan.shards), lost)
            _finish_shard(recovery, run_shard(recovery))
            executed += 1

    workers = planner.max_workers or max(
        1, min(len(plan.shards), os.cpu_count() or 1)
    )
    # The transport owns the execution strategy (inline, pool, or a worker
    # fleet over a shared directory); run_shard is the runner every
    # backend executes.
    transport_obj.run(plan.shards, run_shard, _finish_shard, workers)

    if finished != len(grid):  # pragma: no cover - defensive
        raise RuntimeError("sweep finished with unexecuted grid points")
    stats = SweepStats(
        executor=transport_name,
        max_workers=workers,
        shards=executed,
        warm_points=plan.warm_points,
        cold_points=plan.cold_points,
        elapsed_s=time.perf_counter() - started,
    )
    return SweepResult(
        results=results,
        cache_hits=hits,
        cache_misses=len(grid) - hits,
        stats=stats,
    )
