"""Tests for the :class:`ShardTransport` protocol, its registry, and the
``transport=`` knob of :func:`repro.api.run_sweep`.

``stats.executor`` must keep carrying the transport name the field always
carried, and a custom registered transport must serialise to exactly the
same JSON as the serial one.
"""

import pytest

from repro.api import run_sweep
from repro.api.sweep import DEFAULT_TRANSPORT, SweepShard
from repro.dist.transport import (
    SerialTransport,
    ShardTransport,
    ThreadTransport,
    TransportSpec,
    WorkerLostError,
    get_transport,
    list_transports,
    register_transport,
    transport_names,
    unregister_transport,
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


class TestRegistry:
    def test_builtin_transports_are_registered(self):
        assert transport_names() == ("broker", "process", "serial", "thread")
        assert DEFAULT_TRANSPORT == "thread"
        broker = get_transport("broker")
        assert broker.distributed
        for local in ("serial", "thread", "process"):
            assert not get_transport(local).distributed

    def test_unknown_transport_lists_registered_names(self):
        with pytest.raises(KeyError, match="unknown transport 'mpi'") as excinfo:
            get_transport("mpi")
        assert "broker" in str(excinfo.value)

    def test_register_and_unregister(self):
        spec = TransportSpec(
            name="turtle", title="slow but steady", factory=SerialTransport
        )
        register_transport(spec)
        try:
            assert get_transport("turtle") is spec
            assert "turtle" in transport_names()
            with pytest.raises(ValueError, match="already registered"):
                register_transport(spec)
            register_transport(spec, replace=True)
        finally:
            unregister_transport("turtle")
        assert "turtle" not in transport_names()
        unregister_transport("turtle")  # missing names are ignored

    def test_list_transports_is_sorted(self):
        names = [spec.name for spec in list_transports()]
        assert names == sorted(names)

    def test_create_names_transport_on_bad_options(self):
        spec = get_transport("serial")
        with pytest.raises(
            ValueError, match="invalid options for transport 'serial'"
        ):
            spec.create(lease_ttl_s=5.0)

    def test_create_passes_valid_options(self):
        transport = get_transport("thread").create(max_attempts=7)
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

    def test_custom_registered_transport_is_picked_up(self):
        class TurtleTransport(SerialTransport):
            name = "turtle"

        register_transport(
            TransportSpec(
                name="turtle",
                title="slow but steady",
                factory=TurtleTransport,
            )
        )
        try:
            custom = run_sweep(transport="turtle", **GRID_KWARGS)
        finally:
            unregister_transport("turtle")
        assert custom.stats.executor == "turtle"
        serial = run_sweep(transport="serial", **GRID_KWARGS)
        assert custom.to_json() == serial.to_json()
