"""The :class:`ShardTransport` protocol and the local transport adapters.

A *transport* is the execution layer of the sweep service: it takes the
cold :class:`~repro.api.sweep.SweepShard` s the planner produced and gets
each of them executed, wherever the compute happens to live.  The
protocol is one method, :meth:`ShardTransport.run`: execute every shard
with the given runner and hand each shard's outcomes to the given
finisher exactly once, in completion order.

The three local transports reproduce the historical executor backends
byte-identically: :class:`SerialTransport` runs the shards in plan order
in-process, :class:`ThreadTransport` / :class:`ProcessTransport` dispatch
them onto a :mod:`concurrent.futures` pool with the historical
inline/pool decision, completion ordering and cancel-on-failure
semantics.  An in-process pool cannot lose a shard, so only the
distributed transport -- the shared-directory broker + ``repro worker``
protocol in :mod:`repro.dist.broker` -- counts attempts and retries lost
shards (bounded by its ``max_attempts``).

The four transports sit in one fixed table, :data:`repro.dist.TRANSPORTS`,
keyed by each class's :attr:`ShardTransport.name`; ``run_sweep(transport=
...)`` and the CLI (including its "did you mean" suggestions) read it.
"""

from __future__ import annotations

from concurrent.futures import (
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from typing import Any, Callable, List, Sequence, Tuple

__all__ = [
    "DEFAULT_TRANSPORT",
    "ShardOutcomes",
    "TransportError",
    "WorkerLostError",
    "ShardTransport",
    "SerialTransport",
    "ThreadTransport",
    "ProcessTransport",
]

#: Transport used when none is requested: the conservative in-process
#: thread pool.
DEFAULT_TRANSPORT = "thread"

#: The outcome triples one executed shard produces, in grid order --
#: exactly what :func:`repro.api.sweep.run_shard` returns.
ShardOutcomes = List[Tuple[int, Any, bool]]

#: A callable executing one shard (``run_shard``; store-less).
ShardRunner = Callable[[Any], ShardOutcomes]

#: A callable recording one finished shard's outcomes (persist + journal).
ShardFinisher = Callable[[Any, ShardOutcomes], None]


class TransportError(RuntimeError):
    """A transport-level coordination failure (not a grid-point failure).

    Grid points that fail keep raising
    :class:`~repro.api.sweep.SweepPointError`; this type covers the
    fabric itself -- a second coordinator attaching to a sweep directory,
    a worker attaching to a foreign manifest, a shard exceeding its retry
    budget (:class:`WorkerLostError`).
    """


class WorkerLostError(TransportError):
    """A shard's workers kept dying and its retry budget is exhausted.

    Raised by :class:`~repro.dist.broker.BrokerTransport` when a shard
    whose lease just broke has already burned ``max_attempts`` leases.
    The message names the shard index and the attempt count so the
    failing unit of work is identifiable in a multi-host log; the indices
    of the shard's grid points ride along in :attr:`point_indices`.

    Attributes:
        shard_index: the lost shard's index within the plan.
        attempts: leases the shard burned before giving up.
        point_indices: grid indices of the shard's points.
    """

    def __init__(
        self,
        message: str,
        shard_index: int,
        attempts: int,
        point_indices: Tuple[int, ...] = (),
    ) -> None:
        super().__init__(message)
        self.shard_index = shard_index
        self.attempts = attempts
        self.point_indices = point_indices


class ShardTransport:
    """Base class / protocol of every sweep execution backend.

    A transport is its :meth:`run`: subclasses execute the shards however
    they like (inline, on a pool, over a worker fleet) as long as every
    shard's outcomes reach ``finish`` exactly once -- which, because shard
    execution is deterministic and the coordinator merges outcomes by grid
    index, makes every transport byte-identical to ``serial``.
    """

    #: Table key: the ``transport=`` / ``--transport`` value (subclasses
    #: override).
    name = "abstract"

    #: Whether shards execute outside the coordinator process.
    distributed = False

    def run(
        self,
        shards: Sequence[Any],
        runner: ShardRunner,
        finish: ShardFinisher,
        max_workers: int,
    ) -> None:
        """Execute every shard and hand each outcome batch to ``finish``.

        Args:
            shards: the planned cold shards to execute.
            runner: executes one shard (``run_shard``; workers never
                touch the result store).
            finish: coordinator-side completion hook (fills the outcome
                table, persists to cache/journal); called exactly once
                per shard, in completion order.
            max_workers: the worker budget the sweep resolved.
        """
        raise NotImplementedError


class SerialTransport(ShardTransport):
    """In-process, one-shard-at-a-time execution (debugging reference)."""

    name = "serial"

    def run(
        self,
        shards: Sequence[Any],
        runner: ShardRunner,
        finish: ShardFinisher,
        max_workers: int,
    ) -> None:
        """Execute every shard inline, in plan order."""
        for shard in shards:
            finish(shard, runner(shard))


class _PoolTransport(ShardTransport):
    """Shared driver of the thread/process pool transports.

    Byte-identical to the historical ``run_sweep`` executor branch: one
    shard (or a single-worker thread pool) runs inline; otherwise every
    shard is submitted up front, completions are consumed in
    :func:`~concurrent.futures.as_completed` order, and a failing shard
    (or Ctrl-C) cancels everything not yet started.
    """

    #: Pool class (subclasses set Thread/Process).
    pool_type: Any = None

    #: Whether a 1-worker pool collapses to inline execution (threads do
    #: -- a single worker thread buys nothing; a single worker *process*
    #: still isolates the GIL, so it keeps the pool).
    inline_single_worker = False

    def run(
        self,
        shards: Sequence[Any],
        runner: ShardRunner,
        finish: ShardFinisher,
        max_workers: int,
    ) -> None:
        """Dispatch the shards over the pool (inline when it buys nothing)."""
        if len(shards) <= 1 or (self.inline_single_worker and max_workers == 1):
            for shard in shards:
                finish(shard, runner(shard))
            return
        pool = self.pool_type(max_workers=max_workers)
        try:
            futures = {pool.submit(runner, shard): shard for shard in shards}
            for future in as_completed(futures):
                finish(futures[future], future.result())
        finally:
            # A failing shard (or Ctrl-C) must not let the rest of the
            # grid drain pointlessly: drop everything not yet started.
            pool.shutdown(wait=True, cancel_futures=True)


class ThreadTransport(_PoolTransport):
    """Thread-pool transport: warm-cache / I/O-bound re-runs."""

    name = "thread"
    pool_type = ThreadPoolExecutor
    inline_single_worker = True


class ProcessTransport(_PoolTransport):
    """Process-pool transport: cold CPU-bound grids (bypasses the GIL)."""

    name = "process"
    pool_type = ProcessPoolExecutor
    inline_single_worker = False
