"""The ``repro worker`` protocol: attach, lease, execute, stream back.

A worker is stateless and disposable: it attaches to a sweep directory
published by a :class:`~repro.dist.broker.BrokerTransport` coordinator
(``repro sweep --transport broker --sweep-dir ...``), then loops -- claim
an unleased, unfinished shard (atomic ``O_EXCL`` lease create), execute
it through the very same :func:`repro.api.sweep.run_shard` every local
transport uses, publish the outcomes as an atomically-renamed result
fragment, release the lease, repeat.  A background thread refreshes the
lease's heartbeat stamp while a shard runs, so a *busy* worker is never
mistaken for a dead one by a cross-host coordinator.

Workers are store-less for every cache backend: ``run_shard(shard)`` runs
the shard through the shared execution core without a result store, and
the coordinator restores warm points and persists finished shards itself,
which keeps the packed store's single-writer rule intact and the sweep's
cache-hit accounting byte-identical to a serial run.  Kill a worker -- even
``SIGKILL`` mid-shard -- and nothing is lost: its lease stops
heartbeating, the coordinator breaks it, and the shard is requeued for
someone else (bounded by the coordinator's ``max_attempts``).

Entry points: ``repro worker <sweep_dir>`` on the command line, or
:func:`run_worker` programmatically.
"""

from __future__ import annotations

import os
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, List, Optional, Union

from .broker import DirectoryBroker
from .transport import ShardOutcomes

__all__ = ["WorkerConfig", "run_worker"]


def _default_worker_id() -> str:
    """Host- and PID-qualified identifier for lease sentinels and logs."""
    return f"worker-{socket.gethostname()}-{os.getpid()}"


@dataclass
class WorkerConfig:
    """Tuning knobs of one ``repro worker`` process.

    Attributes:
        sweep_dir: the shared sweep directory to attach to.
        worker_id: identifier recorded in leases and result fragments
            (defaults to ``worker-<host>-<pid>``).
        poll_s: idle polling interval while no shard is claimable.
        heartbeat_s: lease heartbeat period while executing a shard; keep
            it well under the coordinator's ``lease_ttl_s`` (the default
            2 s vs. 15 s leaves seven missed beats of slack).
        attach_timeout_s: how long to wait for a manifest to appear, so
            workers may be started *before* the coordinator.
        max_shards: stop after executing this many shards (``None`` runs
            until the sweep completes); useful for tests and for draining
            a host gracefully.
        on_shard: optional callback ``(shard, outcomes)`` after each
            published shard (progress reporting).
    """

    sweep_dir: Union[str, Path]
    worker_id: str = field(default_factory=_default_worker_id)
    poll_s: float = 0.05
    heartbeat_s: float = 2.0
    attach_timeout_s: float = 30.0
    max_shards: Optional[int] = None
    on_shard: Optional[Any] = None


class _Heartbeat:
    """Background lease-refresher running while a shard executes."""

    def __init__(
        self, broker: DirectoryBroker, shard_index: int, config: WorkerConfig
    ) -> None:
        self._broker = broker
        self._shard_index = shard_index
        self._config = config
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._beat,
            name=f"repro-worker-heartbeat-{shard_index}",
            daemon=True,
        )

    def _beat(self) -> None:
        while not self._stop.wait(self._config.heartbeat_s):
            self._broker.heartbeat_lease(
                self._shard_index, self._config.worker_id
            )

    def __enter__(self) -> "_Heartbeat":
        self._thread.start()
        return self

    def __exit__(self, *exc_info: object) -> None:
        self._stop.set()
        self._thread.join(timeout=self._config.heartbeat_s + 1.0)


def _claim_next(
    broker: DirectoryBroker, shard_ids: List[int], worker_id: str
) -> Optional[int]:
    """Claim the first shard with no result and no lease (``None`` if none)."""
    for shard_index in shard_ids:
        if broker.has_result(shard_index):
            continue
        if broker.lease_info(shard_index) is not None:
            continue
        if broker.try_lease(shard_index, worker_id):
            return shard_index
    return None


def _sweep_finished(broker: DirectoryBroker, shard_ids: List[int]) -> bool:
    """True when every shard already has a published result fragment."""
    return all(broker.has_result(shard_index) for shard_index in shard_ids)


def run_worker(config: WorkerConfig) -> int:
    """Attach to a sweep directory and execute shards until it completes.

    The worker loop of the ``repro worker`` command: wait for the
    manifest, then lease / execute / publish until the coordinator drops
    the stop sentinel, every shard has a result, or ``max_shards`` is
    reached.  Shards run store-less; results stream back as result
    fragments the coordinator merges deterministically.

    Args:
        config: the worker's tuning knobs (see :class:`WorkerConfig`).

    Returns:
        The number of shards this worker executed and published.

    Raises:
        SweepManifestError: no compatible manifest appeared within
            ``attach_timeout_s``, or the directory contradicts it.
        SweepPointError: a grid point failed deterministically; the
            failure is also published as an error fragment so the
            coordinator fails the sweep with the same typed error
            instead of burning the shard's retry budget.
    """
    from ..api.sweep import SweepPointError, run_shard

    broker = DirectoryBroker(config.sweep_dir)
    manifest = broker.read_manifest(wait_s=config.attach_timeout_s)
    sweep_id = str(manifest["sweep_id"])
    shard_ids = [int(index) for index in manifest.get("shards", [])]
    executed = 0
    while True:
        if broker.stopped():
            break
        if config.max_shards is not None and executed >= config.max_shards:
            break
        shard_index = _claim_next(broker, shard_ids, config.worker_id)
        if shard_index is None:
            if _sweep_finished(broker, shard_ids):
                break
            time.sleep(config.poll_s)
            continue
        try:
            shard = broker.load_task(shard_index)
            with _Heartbeat(broker, shard_index, config):
                try:
                    outcomes: ShardOutcomes = run_shard(shard)
                except SweepPointError as error:
                    point = getattr(error, "point", None)
                    broker.write_failure(
                        shard_index,
                        str(error),
                        {
                            "experiment": point.experiment,
                            "config": point.config,
                            "seed": point.seed,
                            "params": point.params,
                            "engine": point.engine,
                        }
                        if point is not None
                        else None,
                        config.worker_id,
                        sweep_id,
                    )
                    raise
            broker.write_outcomes(
                shard_index, outcomes, config.worker_id, sweep_id
            )
        finally:
            broker.release_lease(shard_index)
        executed += 1
        if config.on_shard is not None:
            config.on_shard(shard, outcomes)
    return executed
