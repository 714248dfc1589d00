"""Sweep execution fabric: shard transports, the broker, and workers.

The sweep service (:mod:`repro.api.sweep`) partitions a grid into
deterministic :class:`~repro.api.sweep.SweepShard` s -- exactly
the unit a multi-host work queue needs.  This package is the execution
layer behind it:

* :mod:`repro.dist.locks` -- the shared PID-sentinel exclusive-lock
  utility (stale-holder reclaim with a :class:`RuntimeWarning`) that the
  packed result store's writer lock and the broker's coordinator lock are
  built from;
* :mod:`repro.dist.transport` -- the :class:`ShardTransport` protocol
  (one ``run(shards, runner, finish, max_workers)`` that finishes every
  shard exactly once) plus the three local adapters (``serial`` /
  ``thread`` / ``process``) that re-implement the historical executor
  backends byte-identically;
* :mod:`repro.dist.broker` -- the first distributed transport: a
  :class:`DirectoryBroker` coordinating stateless workers over a shared
  sweep directory (pickled shard task files, PID+heartbeat-stamped lease
  sentinels, atomically-renamed result fragments merged
  deterministically by the coordinator, per-shard attempt counts and a
  typed :class:`WorkerLostError` when the retry budget runs out);
* :mod:`repro.dist.worker` -- the ``repro worker`` protocol: attach to a
  sweep directory, lease cold shards, execute them through the existing
  :func:`repro.api.sweep.run_shard`, stream results back as fragments,
  heartbeat while busy, repeat until the sweep completes.

A worker SIGKILLed mid-shard is recovered by breaking its lease so the
shard is claimable again (bounded by the broker's ``max_attempts``), and
an N-worker sweep reproduces the serial transport's
:class:`~repro.api.results.SweepResult` byte-for-byte -- see
``docs/distributed.md``.

All four transports sit in one fixed table, :data:`TRANSPORTS`; adding a
transport means adding its class there.
"""

from typing import Dict, Tuple, Type

from .locks import PidFileLock, PidFileLockError, pid_alive
from .transport import (
    DEFAULT_TRANSPORT,
    ProcessTransport,
    SerialTransport,
    ShardOutcomes,
    ShardTransport,
    ThreadTransport,
    TransportError,
    WorkerLostError,
)
from .broker import BrokerTransport, DirectoryBroker, SweepManifestError
from .worker import WorkerConfig, run_worker

#: Every shard transport, keyed by its ``name`` (the ``transport=`` /
#: ``--transport`` value).
TRANSPORTS: Dict[str, Type[ShardTransport]] = {
    cls.name: cls
    for cls in (
        SerialTransport,
        ThreadTransport,
        ProcessTransport,
        BrokerTransport,
    )
}


def transport_names() -> Tuple[str, ...]:
    """The transport names, sorted."""
    return tuple(sorted(TRANSPORTS))


def transport_class(name: str) -> Type[ShardTransport]:
    """Look a transport class up by name.

    Raises:
        ValueError: unknown name; the message lists the transport names
            (the CLI adds difflib suggestions on top).
    """
    cls = TRANSPORTS.get(name) if isinstance(name, str) else None
    if cls is None:
        raise ValueError(
            f"unknown transport {name!r}; registered transports: "
            f"{list(transport_names())}"
        )
    return cls


__all__ = [
    "PidFileLock",
    "PidFileLockError",
    "pid_alive",
    "DEFAULT_TRANSPORT",
    "ShardOutcomes",
    "ShardTransport",
    "SerialTransport",
    "ThreadTransport",
    "ProcessTransport",
    "TransportError",
    "WorkerLostError",
    "TRANSPORTS",
    "transport_names",
    "transport_class",
    "BrokerTransport",
    "DirectoryBroker",
    "SweepManifestError",
    "WorkerConfig",
    "run_worker",
]
