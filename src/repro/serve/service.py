"""The in-process core of the ``repro.serve`` experiment daemon.

Every ``repro run`` process today pays interpreter startup, registry
construction and workload profiling before its first simulated cycle.  This
module keeps all of that warm in one long-lived service:

* :class:`ExperimentService` -- a thread-safe object owning a long-lived
  :class:`~repro.api.execution.SessionPool` (one warm
  :class:`~repro.api.experiment.Experiment` per (config, seed, engine), so
  workload sparsity profiles and compiled programs are profiled once and
  reused), an admission-controlled request queue with per-request
  deadlines and bounded backpressure, and a **coalescing dispatch thread**
  that drains compatible queued requests into groups executed by the same
  core as sweep shards (:func:`~repro.api.execution.execute_points`): one
  batched :meth:`~repro.api.experiment.Experiment.run` per config riding
  the vectorized :func:`~repro.sim.vectorized.simulate_jobs` kernel, with
  results byte-identical to one-at-a-time dispatch (pinned by
  ``tests/serve/``).  Callers -- the stdlib HTTP façade's handler threads
  (:mod:`repro.serve.http`), the ``repro serve`` CLI, tests, benchmarks --
  submit from their own threads and block for the outcome;
* :class:`HotResultCache` (see :mod:`repro.serve.cache`) layered over the
  sweep service's content-hash disk cache and keyed by input key, so
  repeated requests -- and requests that differ only in inputs their
  experiment does not read -- never touch the simulator;
* :class:`MetricsRegistry` (see :mod:`repro.serve.metrics`) recording
  request counts, queue depth, batch sizes, coalesce ratio, latency
  percentiles and cache hit rates.

Request identity reuses :meth:`repro.api.sweep.SweepPoint.cache_key` -- the
same content hash (experiment, canonical params, seed, engine, full config
digest, schema/package versions) keying the on-disk sweep cache -- so the
disk cache and the sweep service can never disagree about which requests
are "the same experiment".  The hot cache is keyed by the coarser
:meth:`~repro.api.sweep.SweepPoint.input_key` (only the inputs the
experiment reads), and a hit is labelled with the requested configuration
(:func:`~repro.api.execution.stamp_config`), so a ``fig2b`` result
computed on one preset answers the same request on every preset.
"""

from __future__ import annotations

import queue
import threading
import time
from concurrent.futures import Future, ThreadPoolExecutor
from concurrent.futures import TimeoutError as FutureTimeoutError
from dataclasses import dataclass, field
from pathlib import Path
from typing import (
    Any,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from ..api.execution import (
    SessionPool,
    execute_points,
    merge_key,
    stamp_config,
)
from ..api.experiment import get_experiment_spec
from ..api.results import ExperimentResult, SweepResult, _jsonify
from ..api.sweep import SweepPoint, build_grid, run_sweep
from ..dist import transport_class
from ..sim.cycle_model import DEFAULT_ENGINE
from ..sim.engines import resolve_cycle_model_engine
from ..store import open_store
from .cache import HotResultCache
from .metrics import MetricsRegistry

__all__ = [
    "ServeError",
    "RequestValidationError",
    "QueueFullError",
    "DeadlineExceededError",
    "ServiceClosedError",
    "RunFailedError",
    "ServeConfig",
    "RunRequest",
    "RunOutcome",
    "ExperimentService",
]


# ---------------------------------------------------------------------------
# Typed errors (each carries the HTTP status the façade maps it to)
# ---------------------------------------------------------------------------
class ServeError(RuntimeError):
    """Base class of every typed serve-layer error.

    The class attribute :attr:`http_status` is the status code the HTTP
    façade responds with when this error reaches a handler.
    """

    #: HTTP status the façade maps this error class to.
    http_status = 500


class RequestValidationError(ServeError):
    """The request is malformed (unknown experiment/config/engine/model)."""

    http_status = 400


class QueueFullError(ServeError):
    """Admission control rejected the request: the queue is at capacity.

    The serve daemon prefers shedding load over unbounded queue growth --
    the HTTP façade maps this to ``503 Service Unavailable`` so clients
    can back off and retry.
    """

    http_status = 503


class DeadlineExceededError(ServeError):
    """The request's deadline expired before a result was produced."""

    http_status = 504


class ServiceClosedError(ServeError):
    """The service is shutting down (or never started); request refused."""

    http_status = 503


class RunFailedError(ServeError):
    """The experiment itself raised while executing; chains the cause."""

    http_status = 500


# ---------------------------------------------------------------------------
# Configuration and request/response records
# ---------------------------------------------------------------------------
@dataclass(frozen=True)
class ServeConfig:
    """Tunables of one :class:`ExperimentService` instance.

    Attributes:
        max_queue: admission bound -- requests beyond this many queued (not
            yet dispatched) are rejected with :class:`QueueFullError`.
        default_timeout_s: per-request deadline applied when the request
            does not carry its own ``timeout_s``.
        hot_cache_size: capacity of the in-memory TTL/LRU result cache
            (0 disables it).
        hot_cache_ttl_s: positive TTL of hot-cache entries (``None`` never
            expires).
        cache_dir: optional on-disk result store shared with the sweep
            service (same content-hash keys; the append-only
            :class:`repro.store.PackedResultStore`): hot-cache misses read
            it in one batch per dispatch group and computed results are
            appended in one batch.
        allow_heavy: admit training-based experiments (``table2``; runs for
            minutes and would monopolise the dispatch thread).  Off by
            default for a live service.
    """

    max_queue: int = 64
    default_timeout_s: float = 60.0
    hot_cache_size: int = 256
    hot_cache_ttl_s: Optional[float] = 300.0
    cache_dir: Optional[Union[str, Path]] = None
    allow_heavy: bool = False

    def __post_init__(self) -> None:
        if self.max_queue <= 0:
            raise ValueError("max_queue must be positive")
        if self.default_timeout_s <= 0:
            raise ValueError("default_timeout_s must be positive")
        if self.hot_cache_size < 0:
            raise ValueError("hot_cache_size must be >= 0")
        if self.hot_cache_ttl_s is not None and self.hot_cache_ttl_s <= 0:
            raise ValueError("hot_cache_ttl_s must be positive or None")


@dataclass(frozen=True)
class RunRequest:
    """One experiment request submitted to the service.

    Attributes:
        experiment: experiment id (``"fig7"``, ``"table4"``, ...).
        models: workload names for model-parameterised experiments
            (``None`` expands to every registered workload at validation).
        config: registered hardware preset name.
        seed: RNG seed of the run.
        engine: cycle-model engine, one of
            :data:`repro.sim.cycle_model.ENGINES` (``"vectorized"`` or
            ``"scalar"``).
        params: extra experiment parameters (e.g. ``group_sizes``).
        timeout_s: per-request deadline override (``None`` uses the
            service default).
    """

    experiment: str
    models: Optional[Tuple[str, ...]] = None
    config: str = "paper-28nm"
    seed: int = 0
    engine: str = DEFAULT_ENGINE
    params: Mapping[str, Any] = field(default_factory=dict)
    timeout_s: Optional[float] = None

    def validated(self, allow_heavy: bool = False) -> "RunRequest":
        """Canonicalise and validate the request.

        Resolves the experiment spec, rejects unknown configs/engines/
        workloads and heavy (training) experiments unless admitted, and
        expands ``models=None`` to the full workload list for
        model-parameterised experiments -- so every canonical request has a
        stable :meth:`cache_key` and a well-defined row count (which is
        what makes coalesced row-splitting exact).

        Raises:
            RequestValidationError: naming the offending field.
        """
        from ..api.configs import get_config
        from ..workloads.models import get_workload, list_workloads

        try:
            spec = get_experiment_spec(self.experiment)
        except KeyError as error:
            raise RequestValidationError(str(error.args[0])) from error
        if spec.heavy and not allow_heavy:
            raise RequestValidationError(
                f"experiment {spec.id!r} trains networks (minutes-scale) and "
                "is not admitted by this service; start the daemon with "
                "allow_heavy to enable it"
            )
        try:
            get_config(self.config)
        except (KeyError, TypeError) as error:
            raise RequestValidationError(
                error.args[0] if error.args else str(error)
            ) from error
        try:
            resolve_cycle_model_engine(self.engine)
        except ValueError as error:
            raise RequestValidationError(str(error)) from error
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise RequestValidationError("timeout_s must be positive")
        models = self.models
        if spec.takes_models:
            if models is None:
                names = tuple(str(name) for name in list_workloads())
            else:
                names = tuple(str(name) for name in models)
            if not names:
                raise RequestValidationError(
                    "empty model list; omit 'models' to run every workload"
                )
            for name in names:
                try:
                    get_workload(name)
                except KeyError as error:
                    raise RequestValidationError(
                        str(error.args[0])
                    ) from error
            models = names
        elif models is not None:
            raise RequestValidationError(
                f"experiment {spec.id!r} does not take models"
            )
        extra = dict(self.params)
        if "models" in extra:
            raise RequestValidationError(
                "pass workloads via the 'models' field, not params"
            )
        allowed = set(spec.default_params)
        unknown = set(extra) - allowed
        if unknown:
            raise RequestValidationError(
                f"experiment {spec.id!r} got unexpected parameters "
                f"{sorted(unknown)}; allowed: {sorted(allowed) or 'none'}"
            )
        return RunRequest(
            experiment=spec.id,
            models=models,
            config=str(self.config),
            seed=int(self.seed),
            engine=self.engine,
            params=_jsonify(extra),
            timeout_s=self.timeout_s,
        )

    def point(self) -> SweepPoint:
        """The request as a sweep grid point (canonical cache identity)."""
        params = dict(self.params)
        if self.models is not None:
            params["models"] = list(self.models)
        return SweepPoint(
            experiment=self.experiment,
            config=self.config,
            seed=self.seed,
            params=params,
            engine=self.engine,
        )

    def cache_key(self) -> str:
        """Content hash shared with the sweep disk cache (see
        :meth:`repro.api.sweep.SweepPoint.cache_key`)."""
        return self.point().cache_key()


@dataclass(frozen=True)
class RunOutcome:
    """What the service returns for one successful request.

    Attributes:
        result: the typed experiment result (byte-identical to a direct
            ``Experiment.run`` with the same canonical parameters).
        cache_hit: True when served from the hot (in-memory) cache.
        batch_size: live requests dispatched in the same coalesced batch
            (1 for a solo dispatch; 0 for cache hits).
        latency_s: end-to-end service latency of this request.
    """

    result: ExperimentResult
    cache_hit: bool
    batch_size: int
    latency_s: float


@dataclass
class _Pending:
    """Internal queue entry: one admitted request awaiting dispatch."""

    request: RunRequest
    key: str
    point: SweepPoint
    future: "Future[Tuple[ExperimentResult, int]]"
    deadline: float
    enqueued: float


_SHUTDOWN = object()  # queue sentinel terminating the dispatch thread


#: The :func:`~repro.api.sweep.run_sweep` arguments that shape the grid.
_GRID_FIELDS = (
    "experiments", "models", "configs", "seeds", "params_by_experiment",
    "engine",
)


def _validate_sweep_request(kwargs: Mapping[str, Any]) -> None:
    """Check a sweep request's grid and transport before it is submitted.

    A client's mistake -- an unknown or mistyped experiment, config
    preset, workload, seed, engine, experiment parameter or transport --
    is a :class:`RequestValidationError` (HTTP 400), not a sweep failure.
    The grid-shaping fields go through :func:`~repro.api.sweep.build_grid`
    itself, in the caller's thread, so the service accepts exactly the
    grids a sweep accepts; ``transport`` must be a string naming an entry
    of :data:`repro.dist.TRANSPORTS` (``null`` keeps the default).

    Raises:
        RequestValidationError: naming the offending field or value.
    """
    transport = kwargs.get("transport")
    if transport is not None:
        if not isinstance(transport, str):
            raise RequestValidationError(
                "sweep field 'transport' must be a string"
            )
        try:
            transport_class(transport)
        except ValueError as error:
            raise RequestValidationError(str(error)) from None
    try:
        build_grid(
            **{name: kwargs[name] for name in _GRID_FIELDS if name in kwargs}
        )
    except KeyError as error:
        raise RequestValidationError(str(error.args[0])) from None
    except (TypeError, ValueError) as error:
        raise RequestValidationError(str(error)) from None


# ---------------------------------------------------------------------------
# The service core
# ---------------------------------------------------------------------------
class ExperimentService:
    """Long-lived, thread-safe experiment service with request coalescing.

    Lifecycle: construct, :meth:`start`, submit via :meth:`submit` /
    :meth:`submit_sweep` from any number of threads, and
    ``close(drain=True)`` to stop -- a draining close finishes every
    admitted request before returning, so no accepted work is ever dropped.
    Use as a context manager for the same lifecycle::

        with ExperimentService() as service:
            outcome = service.submit(RunRequest("fig7", models=("alexnet",)))

    Dispatch model: :meth:`submit` runs in the caller's thread up to the
    queue and then blocks on the request's future.  One dispatch thread
    takes the first admitted request off the queue, drains whatever else is
    already queued (it never waits for companions), groups compatible
    requests -- same (experiment, config, seed, engine, non-model params),
    mergeable experiment -- and executes each group as **one** batched
    ``Experiment.run``.  Requests arriving while a batch executes pile up
    in the queue and coalesce into the next batch, which is where the
    throughput under concurrent load comes from.

    Args:
        config: service tunables (:class:`ServeConfig` defaults when
            omitted).
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        self.metrics = MetricsRegistry()
        # Fallback counters are exported from the start, zeros included.
        for name in ("merge_fallbacks_total", "store_append_skipped_total"):
            self.metrics.increment(name, 0)
        self.hot_cache = HotResultCache(
            capacity=self.config.hot_cache_size,
            ttl_s=self.config.hot_cache_ttl_s,
        )
        # One long-lived store instance: the in-memory index makes every
        # hot-cache-miss probe an in-process set lookup (records appended
        # by other processes are scanned in when pack.data grows).
        self._store = open_store(self.config.cache_dir)
        # Guards the open/closing state together with every enqueue, so no
        # request or sweep is admitted behind the shutdown sentinel.
        self._lock = threading.Lock()
        self._queue: Optional["queue.Queue[Any]"] = None
        self._dispatcher: Optional[threading.Thread] = None
        self._sweep_executor: Optional[ThreadPoolExecutor] = None
        self._sessions = SessionPool()
        self._started = False
        self._closing = False
        self.started_at: Optional[float] = None

    # -- lifecycle ------------------------------------------------------
    def start(self) -> "ExperimentService":
        """Start the dispatch thread and the sweep executor (idempotent)."""
        with self._lock:
            if self._started:
                return self
            self._queue = queue.Queue()
            self._sweep_executor = ThreadPoolExecutor(
                max_workers=2, thread_name_prefix="repro-serve-sweep"
            )
            self._dispatcher = threading.Thread(
                target=self._batch_loop,
                args=(self._queue,),
                name="repro-serve-dispatch",
                daemon=True,
            )
            self._dispatcher.start()
            self._started = True
            self._closing = False
            self.started_at = time.monotonic()
        return self

    def __enter__(self) -> "ExperimentService":
        """Context-manager entry: :meth:`start`."""
        return self.start()

    def __exit__(self, *exc_info: Any) -> None:
        """Context-manager exit: draining :meth:`close`."""
        self.close()

    def close(self, drain: bool = True) -> None:
        """Stop the service.

        Args:
            drain: finish every admitted request (and in-flight sweep)
                before returning -- the graceful-shutdown path.  With
                ``False``, queued requests fail with
                :class:`ServiceClosedError` and queued sweeps are
                cancelled; a group already executing still completes.
        """
        with self._lock:
            if not self._started or self._closing:
                return
            self._closing = True
            assert self._queue is not None
            if not drain:
                while True:
                    try:
                        pending = self._queue.get_nowait()
                    except queue.Empty:
                        break
                    if pending.future.set_running_or_notify_cancel():
                        pending.future.set_exception(
                            ServiceClosedError("service closed before dispatch")
                        )
            self._queue.put_nowait(_SHUTDOWN)
        assert self._dispatcher is not None and self._sweep_executor is not None
        if drain:
            self._dispatcher.join()
        self._sweep_executor.shutdown(wait=drain, cancel_futures=not drain)
        self._started = False
        self.metrics.set_gauge("queue_depth", 0)

    # -- submission -----------------------------------------------------
    def submit(self, request: RunRequest) -> RunOutcome:
        """Admit, (possibly) coalesce and execute one experiment request.

        Blocks the calling thread until the outcome is ready or the
        request's deadline expires.

        Returns:
            The :class:`RunOutcome` (typed result + serving metadata).

        Raises:
            RequestValidationError: malformed request.
            QueueFullError: admission control rejected the request.
            DeadlineExceededError: the deadline expired first.
            ServiceClosedError: the service is stopping or stopped.
            RunFailedError: the experiment raised while executing.
        """
        if not self._started or self._closing:
            self.metrics.increment("rejected_total")
            raise ServiceClosedError("service is not accepting requests")
        start = time.monotonic()
        self.metrics.increment("requests_total")
        try:
            request = request.validated(allow_heavy=self.config.allow_heavy)
        except RequestValidationError:
            self.metrics.increment("rejected_total")
            raise
        # One SweepPoint per request: its memoized keys serve the hot cache
        # (input key) and the disk cache (cache key).
        point = request.point()
        key = point.cache_key()
        cached = self.hot_cache.get(point.input_key())
        if cached is not None:
            self.metrics.increment("cache_hits")
            self.metrics.increment("requests_ok")
            latency = time.monotonic() - start
            self.metrics.observe("request", latency)
            return RunOutcome(
                result=stamp_config(cached, point),
                cache_hit=True,
                batch_size=0,
                latency_s=latency,
            )
        self.metrics.increment("cache_misses")
        timeout = request.timeout_s or self.config.default_timeout_s
        pending = _Pending(
            request=request,
            key=key,
            point=point,
            future=Future(),
            deadline=time.monotonic() + timeout,
            enqueued=start,
        )
        with self._lock:
            if self._closing:
                self.metrics.increment("rejected_total")
                raise ServiceClosedError("service is not accepting requests")
            assert self._queue is not None
            if self._queue.qsize() >= self.config.max_queue:
                self.metrics.increment("rejected_total")
                raise QueueFullError(
                    f"request queue is full ({self.config.max_queue} "
                    "pending); retry later"
                )
            self._queue.put_nowait(pending)
            self.metrics.set_gauge("queue_depth", self._queue.qsize())
        try:
            result, batch_size = pending.future.result(timeout=timeout)
        except FutureTimeoutError:
            # A queued entry is cancelled and later skipped; once claimed by
            # the dispatch thread, cancel() fails and its result is dropped.
            pending.future.cancel()
            self.metrics.increment("timeout_total")
            raise DeadlineExceededError(
                f"request missed its {timeout:.3f}s deadline "
                f"({request.experiment!r} on {request.config!r})"
            ) from None
        except DeadlineExceededError:
            self.metrics.increment("timeout_total")
            raise
        latency = time.monotonic() - start
        self.metrics.increment("requests_ok")
        self.metrics.observe("request", latency)
        return RunOutcome(
            result=result,
            cache_hit=False,
            batch_size=batch_size,
            latency_s=latency,
        )

    def submit_sweep(self, **kwargs: Any) -> SweepResult:
        """Run a sweep grid on the sweep executor and block for its result.

        Accepts the keyword arguments of :func:`repro.api.sweep.run_sweep`.
        Sweeps run on their own two-thread executor, so a long grid never
        holds up the dispatch thread.

        Raises:
            ServiceClosedError: the service is stopping or stopped.
            RequestValidationError: unknown sweep parameter name, or an
                unknown or mistyped experiment, config, model, seed,
                engine, experiment parameter or transport (see
                :func:`_validate_sweep_request`).
        """
        if not self._started or self._closing:
            raise ServiceClosedError("service is not accepting requests")
        allowed = {
            "experiments", "models", "configs", "seeds", "max_workers",
            "cache_dir", "params_by_experiment", "engine", "shards",
            "journal", "resume", "transport", "sweep_dir",
            "transport_options",
        }
        unknown = set(kwargs) - allowed
        if unknown:
            raise RequestValidationError(
                f"unknown sweep parameters {sorted(unknown)}; "
                f"allowed: {sorted(allowed)}"
            )
        _validate_sweep_request(kwargs)
        with self._lock:
            if self._closing:
                raise ServiceClosedError("service is not accepting requests")
            assert self._sweep_executor is not None
            future = self._sweep_executor.submit(run_sweep, **kwargs)
        self.metrics.increment("sweeps_total")
        started = time.monotonic()
        try:
            result = future.result()
        except Exception:
            self.metrics.increment("sweep_failures_total")
            raise
        self.metrics.observe("sweep", time.monotonic() - started)
        return result

    def snapshot(self) -> Dict[str, Any]:
        """Live metrics snapshot plus instantaneous service state."""
        payload = self.metrics.snapshot()
        payload["service"] = {
            "started": self._started,
            "closing": self._closing,
            "uptime_s": (
                time.monotonic() - self.started_at
                if self.started_at is not None
                else 0.0
            ),
            "queue_depth": self._queue.qsize() if self._queue else 0,
            "sessions": len(self._sessions),
            "hot_cache_entries": len(self.hot_cache),
            "max_queue": self.config.max_queue,
        }
        return payload

    # -- batching -------------------------------------------------------
    @staticmethod
    def _coalesce_key(point: SweepPoint) -> Optional[Tuple[Any, ...]]:
        """Compatibility bucket of a request, or ``None`` when standalone.

        Only mergeable experiments coalesce; the bucket pins everything
        except the model list *and the hardware configuration*, so a merged
        run differs from the solo runs only by model concatenation (which
        the vectorized kernel evaluates elementwise per layer -- hence
        byte-identical splitting).  The execution core runs one merged
        call per config of a group.
        """
        merge = merge_key(point)
        if merge is None:
            return None
        return (merge, point.seed, point.engine)

    def _batch_loop(self, requests: "queue.Queue[Any]") -> None:
        """The dispatch thread: collect -> group -> dispatch, until shutdown.

        A batch is the first queued request plus whatever else is already
        queued -- no timed wait, so a lone request dispatches at once, and
        requests that arrive while a batch executes form the next one.
        """
        stop = False
        while not stop:
            item = requests.get()
            if item is _SHUTDOWN:
                break
            batch: List[_Pending] = [item]
            while True:
                try:
                    extra = requests.get_nowait()
                except queue.Empty:
                    break
                if extra is _SHUTDOWN:
                    stop = True
                    break
                batch.append(extra)
            self.metrics.set_gauge("queue_depth", requests.qsize())
            self._dispatch(batch)

    def _dispatch(self, batch: List[_Pending]) -> None:
        """Group one drained batch and execute each group in turn."""
        groups: Dict[Any, List[_Pending]] = {}
        standalone: List[List[_Pending]] = []
        for pending in batch:
            key = self._coalesce_key(pending.point)
            if key is None:
                standalone.append([pending])
            else:
                groups.setdefault(key, []).append(pending)
        for group in list(groups.values()) + standalone:
            now = time.monotonic()
            live: List[_Pending] = []
            for pending in group:
                # Claiming the future makes it uncancellable; an entry the
                # caller already gave up on (deadline raced the dispatcher)
                # is skipped.
                if not pending.future.set_running_or_notify_cancel():
                    continue
                if now >= pending.deadline:
                    pending.future.set_exception(
                        DeadlineExceededError(
                            "deadline expired while queued "
                            f"({pending.request.experiment!r})"
                        )
                    )
                    continue
                live.append(pending)
            if not live:
                continue
            self.metrics.increment("batches_total")
            self.metrics.increment("batched_requests_total", len(live))
            self.metrics.observe("batch_size", float(len(live)))
            started = time.monotonic()
            try:
                outcomes = self._execute_group(live)
            except Exception as error:  # keep the thread; fail the group
                outcomes = [error] * len(live)
            self.metrics.observe("batch_execute", time.monotonic() - started)
            for pending, outcome in zip(live, outcomes):
                if isinstance(outcome, Exception):
                    self.metrics.increment("failed_total")
                    pending.future.set_exception(outcome)
                else:
                    self.hot_cache.put(pending.point.input_key(), outcome)
                    pending.future.set_result((outcome, len(live)))

    # -- synchronous execution (dispatch thread) ------------------------
    def _execute_group(
        self, group: Sequence[_Pending]
    ) -> List[Union[ExperimentResult, Exception]]:
        """Execute one compatible group on the dispatch thread.

        Runs :func:`~repro.api.execution.execute_points` on the daemon's
        long-lived session pool and store (dedupe, one batched store read,
        one merged run per config, per-request fallback, one best-effort
        store append) and maps each request to its result or a
        :class:`RunFailedError`.
        """
        execution = execute_points(
            [pending.point for pending in group], self._sessions, self._store
        )
        metrics = self.metrics
        metrics.increment("disk_cache_hits", len(execution.hits))
        metrics.increment("merge_fallbacks_total", execution.merge_fallbacks)
        metrics.increment("store_append_skipped_total", execution.append_skipped)
        metrics.set_gauge("sessions", len(self._sessions))
        outcomes: List[Union[ExperimentResult, Exception]] = []
        for pending in group:
            result = execution.results[pending.key]
            if isinstance(result, Exception):
                error = RunFailedError(
                    f"experiment failed: {pending.point.describe()}: "
                    f"{type(result).__name__}: {result}"
                )
                error.__cause__ = result
                result = error
            outcomes.append(result)
        return outcomes

