"""Tests for the :class:`ShardTransport` protocol (one ``run``), the fixed
transport table, and the ``transport=`` knob of :func:`repro.api.run_sweep`.

``stats.executor`` must keep carrying the transport name the field always
carried.
"""

import pytest

from repro.api import run_sweep
from repro.api.sweep import DEFAULT_TRANSPORT, _create_transport
from repro.dist import (
    TRANSPORTS,
    BrokerTransport,
    ShardTransport,
    transport_class,
    transport_names,
)

GRID_KWARGS = dict(experiments=("table4",), models=("alexnet",))


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

    def test_create_passes_valid_options(self, tmp_path):
        transport = _create_transport("broker", tmp_path, {"max_attempts": 7})
        assert isinstance(transport, BrokerTransport)
        assert transport.max_attempts == 7

    def test_max_attempts_is_broker_only(self):
        # An in-process pool cannot lose a shard, so a retry budget is
        # meaningless there and rejected instead of silently ignored.
        with pytest.raises(
            ValueError, match="invalid options for transport 'thread'"
        ):
            _create_transport("thread", None, {"max_attempts": 2})

    def test_max_attempts_must_be_positive(self, tmp_path):
        with pytest.raises(ValueError, match="max_attempts"):
            BrokerTransport(sweep_dir=tmp_path, max_attempts=0)

    def test_protocol_is_one_run_method(self):
        assert {
            name for name in vars(ShardTransport) if not name.startswith("_")
        } == {"name", "distributed", "run"}
        with pytest.raises(NotImplementedError):
            ShardTransport().run([], None, None, 1)


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
