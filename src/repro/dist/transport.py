"""The :class:`ShardTransport` protocol and the local transport adapters.

A *transport* is the execution layer of the sweep service: it takes the
:class:`~repro.api.sweep.SweepShard` s the planner produced and gets each
of them executed exactly once, wherever the compute happens to live.  The
protocol is a work-queue lifecycle, not a thread pool:

``submit``
    enqueue the shards (each starts with zero attempts);
``lease``
    claim the next available shard for a named worker -- the shard leaves
    the queue and its attempt count increments;
``heartbeat``
    refresh a lease's liveness stamp (distributed transports persist it;
    the in-memory transports just record it);
``complete``
    deliver a shard's outcomes; idempotent per shard, so a worker that
    was wrongly presumed dead and finishes anyway is harmless (results
    are deterministic, duplicates are dropped);
``requeue``
    return a lost shard to the queue.  Bounded: once a shard has burned
    ``max_attempts`` leases it surfaces a typed :class:`WorkerLostError`
    naming the shard instead of retrying forever.

The three historical executor backends are re-implemented here as local
transports pinned byte-identical to the code they replaced:
:class:`SerialTransport` literally drives the lease loop in-process,
:class:`ThreadTransport` / :class:`ProcessTransport` dispatch leased
shards onto a :mod:`concurrent.futures` pool with the exact inline/pool
decision, completion ordering and cancel-on-failure semantics of the old
``run_sweep`` branch.  The first distributed transport (the shared-
directory broker + ``repro worker`` protocol) lives in
:mod:`repro.dist.broker`.

The four transports sit in one fixed table, :data:`repro.dist.TRANSPORTS`,
keyed by each class's :attr:`ShardTransport.name`; ``run_sweep(transport=
...)`` and the CLI (including its "did you mean" suggestions) read it.
"""

from __future__ import annotations

import time
from collections import deque
from concurrent.futures import (
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    as_completed,
)
from dataclasses import dataclass, field
from typing import (
    Any,
    Callable,
    Deque,
    Dict,
    List,
    Optional,
    Sequence,
    Tuple,
)

__all__ = [
    "DEFAULT_TRANSPORT",
    "ShardLease",
    "ShardOutcomes",
    "TransportError",
    "WorkerLostError",
    "ShardTransport",
    "LocalTransport",
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

    Raised by :meth:`ShardTransport.requeue` when a shard has already
    burned ``max_attempts`` leases.  The message names the shard index
    and the attempt count so the failing unit of work is identifiable in
    a multi-host log; the indices of the shard's grid points ride along
    in :attr:`point_indices`.

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


@dataclass
class ShardLease:
    """One worker's claim on one shard.

    Attributes:
        shard: the leased :class:`~repro.api.sweep.SweepShard`.
        worker: identifier of the claiming worker.
        attempt: 1-based lease count of this shard (per-shard attempts
            are how the retry budget is enforced).
        heartbeat_at: monotonic timestamp of the most recent
            :meth:`ShardTransport.heartbeat` (lease creation counts).
    """

    shard: Any
    worker: str
    attempt: int
    heartbeat_at: float = field(default_factory=time.monotonic)


class ShardTransport:
    """Base class / protocol of every sweep execution backend.

    Subclasses implement :meth:`run` -- the coordinator-side driver that
    pushes every submitted shard through the lease lifecycle -- on top of
    the in-memory queue/lease/attempt bookkeeping provided here.  The
    bookkeeping is the *reference semantics* of the protocol: distributed
    transports mirror it onto durable state (lease sentinel files), local
    transports use it directly.

    Args:
        max_attempts: per-shard lease budget; the attempt that would
            exceed it raises :class:`WorkerLostError` from
            :meth:`requeue` instead of requeueing.
    """

    #: Table key: the ``transport=`` / ``--transport`` value (subclasses
    #: override).
    name = "abstract"

    #: Whether shards execute outside the coordinator process.
    distributed = False

    def __init__(self, max_attempts: int = 3) -> None:
        if max_attempts <= 0:
            raise ValueError("max_attempts must be positive")
        self.max_attempts = max_attempts
        self._queue: Deque[Any] = deque()
        self._leases: Dict[int, ShardLease] = {}
        self._attempts: Dict[int, int] = {}
        self._completed: Dict[int, ShardOutcomes] = {}

    # -- lifecycle ------------------------------------------------------
    def submit(self, shards: Sequence[Any]) -> None:
        """Enqueue shards for execution (each starts at zero attempts)."""
        for shard in shards:
            self._attempts.setdefault(shard.index, 0)
            self._queue.append(shard)

    def lease(self, worker: str = "local") -> Optional[ShardLease]:
        """Claim the next queued shard for ``worker`` (``None`` if empty).

        The shard's attempt count increments; the lease must end in
        :meth:`complete` or :meth:`requeue`.
        """
        if not self._queue:
            return None
        shard = self._queue.popleft()
        attempt = self._attempts.get(shard.index, 0) + 1
        self._attempts[shard.index] = attempt
        lease = ShardLease(shard=shard, worker=worker, attempt=attempt)
        self._leases[shard.index] = lease
        return lease

    def heartbeat(self, lease: ShardLease) -> None:
        """Refresh a lease's liveness stamp."""
        lease.heartbeat_at = time.monotonic()

    def complete(self, lease: ShardLease, outcomes: ShardOutcomes) -> bool:
        """Deliver a leased shard's outcomes.

        Idempotent per shard: the first completion wins and returns True;
        a duplicate (a worker that outlived its expired lease) returns
        False and is otherwise ignored -- shard execution is
        deterministic, so the dropped duplicate carried identical bytes.
        """
        self._leases.pop(lease.shard.index, None)
        if lease.shard.index in self._completed:
            return False
        self._completed[lease.shard.index] = outcomes
        return True

    def requeue(self, lease: ShardLease) -> None:
        """Return a lost shard to the queue (bounded by the retry budget).

        Raises:
            WorkerLostError: the shard already burned ``max_attempts``
                leases; the error names the shard.
        """
        self._leases.pop(lease.shard.index, None)
        if lease.shard.index in self._completed:
            return  # completed by someone else meanwhile; nothing to redo
        attempts = self._attempts.get(lease.shard.index, lease.attempt)
        if attempts >= self.max_attempts:
            raise WorkerLostError(
                f"shard {lease.shard.index} was lost {attempts} times "
                f"(last worker {lease.worker!r}); giving up after "
                f"max_attempts={self.max_attempts}",
                shard_index=lease.shard.index,
                attempts=attempts,
                point_indices=tuple(lease.shard.indices),
            )
        self._queue.append(lease.shard)

    def attempts(self, shard_index: int) -> int:
        """Leases the shard has burned so far (0 before the first)."""
        return self._attempts.get(shard_index, 0)

    def outstanding(self) -> int:
        """Shards submitted but not yet completed."""
        return len(self._queue) + len(self._leases)

    # -- driver ---------------------------------------------------------
    def run(
        self,
        shards: Sequence[Any],
        runner: ShardRunner,
        finish: ShardFinisher,
        max_workers: int,
    ) -> None:
        """Execute every shard and hand each outcome batch to ``finish``.

        Args:
            shards: the planned shards to execute.
            runner: executes one shard (``run_shard``; workers never
                touch the result store).
            finish: coordinator-side completion hook (fills the outcome
                table, persists to cache/journal); called exactly once
                per shard, in completion order.
            max_workers: the worker budget the sweep resolved.
        """
        raise NotImplementedError


class LocalTransport(ShardTransport):
    """Shared base of the in-process transports (serial/thread/process)."""

    def _run_inline(
        self, runner: ShardRunner, finish: ShardFinisher
    ) -> None:
        """Drive the lease lifecycle literally, one shard at a time."""
        while True:
            lease = self.lease()
            if lease is None:
                return
            outcomes = runner(lease.shard)
            if self.complete(lease, outcomes):
                finish(lease.shard, outcomes)


class SerialTransport(LocalTransport):
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
        self.submit(shards)
        self._run_inline(runner, finish)


class _PoolTransport(LocalTransport):
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
        self.submit(shards)
        if len(shards) <= 1 or (self.inline_single_worker and max_workers == 1):
            self._run_inline(runner, finish)
            return
        pool = self.pool_type(max_workers=max_workers)
        try:
            futures = {}
            while True:
                lease = self.lease(worker=f"{self.name}-pool")
                if lease is None:
                    break
                futures[pool.submit(runner, lease.shard)] = lease
            for future in as_completed(futures):
                lease = futures[future]
                outcomes = future.result()
                if self.complete(lease, outcomes):
                    finish(lease.shard, outcomes)
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
