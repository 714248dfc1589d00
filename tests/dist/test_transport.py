"""Tests for the :class:`ShardTransport` protocol, the fixed transport
table, and the ``transport=`` knob of :func:`repro.api.run_sweep`.

``stats.executor`` must keep carrying the transport name the field always
carried.
"""

import pytest

from repro.api import run_sweep
from repro.api.sweep import DEFAULT_TRANSPORT, SweepShard, _create_transport
from repro.dist import (
    TRANSPORTS,
    BrokerTransport,
    ShardTransport,
    ThreadTransport,
    WorkerLostError,
    transport_class,
    transport_names,
)

GRID_KWARGS = dict(experiments=("table4",), models=("alexnet",))


def _shard(index, *, indices=(0,)):
    return SweepShard(index=index, indices=tuple(indices), points=())


class TestLeaseLifecycle:
    def test_lease_complete_roundtrip(self):
        transport = ShardTransport()
        transport.submit([_shard(0), _shard(1, indices=(1,))])
        assert transport.outstanding() == 2
        lease = transport.lease(worker="w0")
        assert lease.shard.index == 0
        assert lease.attempt == 1
        assert transport.attempts(0) == 1
        assert transport.complete(lease, [(0, "r", False)])
        assert transport.outstanding() == 1

    def test_duplicate_completion_is_idempotent(self):
        transport = ShardTransport()
        transport.submit([_shard(0)])
        first = transport.lease(worker="w0")
        assert transport.complete(first, [(0, "r", False)]) is True
        # A worker wrongly presumed dead finishes anyway: dropped.
        assert transport.complete(first, [(0, "r", False)]) is False

    def test_requeue_returns_shard_to_queue(self):
        transport = ShardTransport(max_attempts=3)
        transport.submit([_shard(7, indices=(3, 4))])
        lease = transport.lease(worker="doomed")
        transport.requeue(lease)
        assert transport.attempts(7) == 1
        retry = transport.lease(worker="second")
        assert retry.shard.index == 7
        assert retry.attempt == 2

    def test_requeue_after_completion_is_a_noop(self):
        transport = ShardTransport(max_attempts=1)
        transport.submit([_shard(0)])
        lease = transport.lease(worker="w0")
        transport.complete(lease, [(0, "r", False)])
        # Even at the retry cap, a completed shard never raises.
        transport.requeue(lease)
        assert transport.outstanding() == 0

    def test_retry_budget_surfaces_typed_error_naming_shard(self):
        transport = ShardTransport(max_attempts=2)
        transport.submit([_shard(5, indices=(10, 11))])
        transport.requeue(transport.lease(worker="w0"))
        lease = transport.lease(worker="w1")
        with pytest.raises(WorkerLostError, match="shard 5 was lost 2 times") as excinfo:
            transport.requeue(lease)
        assert excinfo.value.shard_index == 5
        assert excinfo.value.attempts == 2
        assert excinfo.value.point_indices == (10, 11)
        assert "max_attempts=2" in str(excinfo.value)

    def test_max_attempts_must_be_positive(self):
        with pytest.raises(ValueError, match="max_attempts"):
            ShardTransport(max_attempts=0)

    def test_heartbeat_refreshes_stamp(self):
        transport = ShardTransport()
        transport.submit([_shard(0)])
        lease = transport.lease()
        before = lease.heartbeat_at
        transport.heartbeat(lease)
        assert lease.heartbeat_at >= before


class TestTransportTable:
    def test_fixed_names_and_classes(self):
        assert transport_names() == ("broker", "process", "serial", "thread")
        assert list(TRANSPORTS) == ["serial", "thread", "process", "broker"]
        assert TRANSPORTS["broker"] is BrokerTransport
        assert DEFAULT_TRANSPORT == "thread"

    def test_only_the_broker_is_distributed(self):
        assert TRANSPORTS["broker"].distributed
        for local in ("serial", "thread", "process"):
            assert not TRANSPORTS[local].distributed

    def test_unknown_transport_lists_the_names(self):
        with pytest.raises(
            ValueError, match="unknown transport 'mpi'"
        ) as excinfo:
            transport_class("mpi")
        assert "broker" in str(excinfo.value)

    def test_unhashable_name_is_unknown(self):
        with pytest.raises(ValueError, match="unknown transport"):
            transport_class(["x"])

    def test_create_names_transport_on_bad_options(self):
        with pytest.raises(
            ValueError, match="invalid options for transport 'serial'"
        ):
            _create_transport("serial", None, {"lease_ttl_s": 5.0})

    def test_create_passes_valid_options(self):
        transport = _create_transport("thread", None, {"max_attempts": 7})
        assert isinstance(transport, ThreadTransport)
        assert transport.max_attempts == 7


class TestRunSweepTransportKnob:
    def test_stats_carry_transport_name(self):
        result = run_sweep(transport="serial", **GRID_KWARGS)
        assert result.stats.executor == "serial"

    def test_executor_keyword_is_gone(self):
        with pytest.raises(TypeError, match="executor"):
            run_sweep(executor="serial", **GRID_KWARGS)

    def test_unknown_transport_is_a_value_error(self):
        with pytest.raises(ValueError, match="unknown transport 'osmosis'"):
            run_sweep(transport="osmosis", **GRID_KWARGS)

    def test_local_transport_rejects_sweep_dir(self, tmp_path):
        with pytest.raises(
            ValueError, match="invalid options for transport 'serial'"
        ):
            run_sweep(
                transport="serial",
                sweep_dir=tmp_path / "sweep",
                **GRID_KWARGS,
            )


EQUIVALENCE_KWARGS = dict(experiments=("table4", "fig7"), models=("alexnet",))


@pytest.fixture(scope="module")
def serial_reference():
    return run_sweep(transport="serial", **EQUIVALENCE_KWARGS)


@pytest.mark.parametrize("name", list(TRANSPORTS))
def test_every_transport_matches_serial(name, serial_reference, tmp_path):
    """Each entry of the table reproduces the serial sweep byte-for-byte."""
    extra = {}
    if TRANSPORTS[name].distributed:
        extra["sweep_dir"] = tmp_path / "sweep"
    result = run_sweep(
        transport=name, max_workers=2, shards=2, **EQUIVALENCE_KWARGS, **extra
    )
    assert result.stats.executor == name
    assert result.to_json() == serial_reference.to_json()
