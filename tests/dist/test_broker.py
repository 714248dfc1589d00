"""Tests for the shared-directory broker transport and ``repro worker``.

The crown jewel here is the fault-injection suite: a real worker
subprocess SIGKILLed mid-shard must be detected via its dead lease, its
shard requeued, and the finished multi-worker sweep must serialise
byte-for-byte identically to the serial transport.  The directory
protocol (manifest, leases, fragments) is pinned at the unit level too,
so crash-safety properties do not silently regress.
"""

import json
import os
import signal
import socket
import subprocess
import sys
import textwrap
import threading
import time
from pathlib import Path

import pytest

import repro
from repro.api import run_sweep
from repro.api.sweep import ShardPlanner, SweepShard, build_grid
from repro.dist.broker import (
    BrokerTransport,
    DirectoryBroker,
    MANIFEST_FORMAT,
    SweepManifestError,
)
from repro.dist.transport import TransportError, WorkerLostError
from repro.dist.worker import WorkerConfig, run_worker

GRID_KWARGS = dict(
    experiments=("fig7", "table4"), models=("alexnet", "mobilenetv2")
)
SMALL_KWARGS = dict(experiments=("table4",), models=("alexnet",))

SRC_DIR = str(Path(repro.__file__).resolve().parents[1])


def _worker_env():
    env = dict(os.environ)
    path = env.get("PYTHONPATH")
    env["PYTHONPATH"] = SRC_DIR if not path else SRC_DIR + os.pathsep + path
    return env


def _spawn(script: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-c", textwrap.dedent(script)],
        env=_worker_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    )


def _reap_in_background(process: subprocess.Popen) -> None:
    """Reap the process the moment it dies.

    The SIGKILLed victim is a *child of this test process* (which is also
    the coordinator); until someone wait()s on it, it lingers as a zombie
    and the broker's PID probe still counts it as alive.  In a real
    deployment workers are not the coordinator's children, so reaping in
    a background thread restores the production topology.
    """
    threading.Thread(target=process.wait, daemon=True).start()


def _shard(index, *, indices=(0,)):
    return SweepShard(index=index, indices=tuple(indices), points=())


@pytest.fixture(scope="module")
def serial_small():
    return run_sweep(transport="serial", **SMALL_KWARGS)


class TestDirectoryProtocol:
    def test_publish_and_read_manifest_roundtrip(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        broker.publish([_shard(0), _shard(1, indices=(1, 2))], "sweep-1")
        manifest = broker.read_manifest()
        assert manifest["kind"] == "sweep-manifest"
        assert manifest["format"] == MANIFEST_FORMAT
        assert manifest["sweep_id"] == "sweep-1"
        assert manifest["shards"] == [0, 1]
        assert manifest["points"] == {"0": 0, "1": 0}
        assert broker.load_task(1).indices == (1, 2)

    def test_republish_clears_stale_state(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        broker.publish([_shard(0), _shard(1)], "old")
        broker.try_lease(1, "ghost")
        broker.write_failure(1, "boom", None, "ghost", "old")
        broker.write_stop()
        broker.publish([_shard(0)], "new")
        assert broker.read_manifest()["shards"] == [0]
        assert broker.lease_info(1) is None
        assert not broker.has_result(1)
        assert not broker.stopped()
        with pytest.raises(SweepManifestError, match="missing"):
            broker.load_task(1)

    def test_missing_manifest_times_out(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        with pytest.raises(SweepManifestError, match="no sweep manifest"):
            broker.read_manifest(wait_s=0.0)

    def test_mixed_version_manifest_is_rejected(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        broker.publish([_shard(0)], "sweep-1")
        payload = json.loads(broker.manifest_path.read_text())
        payload["version"] = "0.0.0"
        broker.manifest_path.write_text(json.dumps(payload))
        with pytest.raises(SweepManifestError, match="mixed-version"):
            broker.read_manifest()

    def test_foreign_format_manifest_is_rejected(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        broker.publish([_shard(0)], "sweep-1")
        payload = json.loads(broker.manifest_path.read_text())
        payload["format"] = MANIFEST_FORMAT + 1
        broker.manifest_path.write_text(json.dumps(payload))
        with pytest.raises(SweepManifestError, match="unsupported format"):
            broker.read_manifest()

    def test_lease_claim_is_exclusive(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        assert broker.try_lease(0, "alice")
        assert not broker.try_lease(0, "bob")
        info = broker.lease_info(0)
        assert info["worker"] == "alice"
        assert info["pid"] == os.getpid()
        assert info["host"] == socket.gethostname()
        broker.release_lease(0)
        assert broker.lease_info(0) is None
        assert broker.try_lease(0, "bob")

    def test_heartbeat_refreshes_only_own_lease(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        broker.try_lease(0, "alice")
        before = broker.lease_info(0)["time"]
        time.sleep(0.01)
        assert broker.heartbeat_lease(0, "alice")
        assert broker.lease_info(0)["time"] > before
        assert not broker.heartbeat_lease(0, "bob")
        assert not broker.heartbeat_lease(1, "alice")

    def test_lease_death_detection(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        host = socket.gethostname()
        # Live same-host holder with a fresh heartbeat: alive.
        alive = {"pid": os.getpid(), "host": host, "time": time.time()}
        assert not broker.lease_is_dead(alive, lease_ttl_s=10.0)
        # Dead same-host holder: detected by the PID probe regardless of
        # how fresh the heartbeat stamp looks.
        probe = subprocess.run(
            [sys.executable, "-c", "import os; print(os.getpid())"],
            capture_output=True,
            text=True,
            check=True,
        )
        dead_pid = int(probe.stdout.strip())
        sigkilled = {"pid": dead_pid, "host": host, "time": time.time()}
        assert broker.lease_is_dead(sigkilled, lease_ttl_s=1000.0)
        # Cross-host holder: only the heartbeat TTL applies.
        remote = {"pid": 1, "host": "elsewhere", "time": time.time() - 60.0}
        assert broker.lease_is_dead(remote, lease_ttl_s=10.0)
        assert not broker.lease_is_dead(
            {"pid": 1, "host": "elsewhere", "time": time.time()},
            lease_ttl_s=10.0,
        )
        # Torn/damaged lease payloads only have the TTL; no liveness data
        # means presumed dead.
        assert broker.lease_is_dead({}, lease_ttl_s=10.0)
        assert not broker.lease_is_dead(None, lease_ttl_s=10.0)

    def test_outcome_fragment_roundtrip(self, tmp_path, serial_small):
        broker = DirectoryBroker(tmp_path)
        outcomes = [
            (index, result, False)
            for index, result in enumerate(serial_small.results)
        ]
        broker.write_outcomes(3, outcomes, "alice", "sweep-1")
        kind, payload = broker.read_result(3, "sweep-1")
        assert kind == "ok"
        assert [
            (index, result.to_dict(), hit) for index, result, hit in payload
        ] == [
            (index, result.to_dict(), hit) for index, result, hit in outcomes
        ]

    def test_duplicate_fragment_write_is_idempotent(
        self, tmp_path, serial_small
    ):
        broker = DirectoryBroker(tmp_path)
        outcomes = [
            (index, result, True)
            for index, result in enumerate(serial_small.results)
        ]
        broker.write_outcomes(0, outcomes, "alice", "sweep-1")
        first = broker.result_path(0).read_bytes()
        # A worker that outlived its broken lease publishes again: the
        # fragment is atomically replaced with identical content.
        broker.write_outcomes(0, outcomes, "alice", "sweep-1")
        assert broker.result_path(0).read_bytes() == first

    def test_foreign_sweep_fragment_reads_damaged(
        self, tmp_path, serial_small
    ):
        broker = DirectoryBroker(tmp_path)
        outcomes = [(0, serial_small.results[0], False)]
        broker.write_outcomes(0, outcomes, "alice", "previous-sweep")
        kind, reason = broker.read_result(0, "current-sweep")
        assert kind == "damaged"
        assert "previous-sweep" in reason
        broker.discard_result(0)
        assert broker.read_result(0, "current-sweep") is None

    def test_truncated_fragment_reads_damaged(self, tmp_path, serial_small):
        broker = DirectoryBroker(tmp_path)
        outcomes = [(0, serial_small.results[0], False)]
        broker.write_outcomes(0, outcomes, "alice", "sweep-1")
        lines = broker.result_path(0).read_text().splitlines()
        broker.result_path(0).write_text(lines[0] + "\n")  # drop outcomes
        kind, reason = broker.read_result(0, "sweep-1")
        assert kind == "damaged"
        assert "promises" in reason

    def test_failure_fragment_roundtrip(self, tmp_path):
        broker = DirectoryBroker(tmp_path)
        point = {
            "experiment": "fig7",
            "config": "paper-28nm",
            "seed": 0,
            "params": {},
            "engine": "vectorized",
        }
        broker.write_failure(2, "point exploded", point, "alice", "sweep-1")
        kind, (message, payload) = broker.read_result(2, "sweep-1")
        assert kind == "error"
        assert message == "point exploded"
        assert payload == point


class TestBrokerSweep:
    def test_zero_worker_sweep_matches_serial(self, tmp_path):
        serial = run_sweep(transport="serial", **GRID_KWARGS)
        distributed = run_sweep(
            transport="broker", sweep_dir=tmp_path / "sweep", **GRID_KWARGS
        )
        assert distributed.to_json() == serial.to_json()
        assert distributed.stats.executor == "broker"
        # The stop sentinel is dropped even on the happy path so late
        # workers exit instead of waiting forever.
        assert (tmp_path / "sweep" / "STOP").exists()

    def test_transport_options_are_passed_through(self, tmp_path):
        result = run_sweep(
            transport="broker",
            sweep_dir=tmp_path / "sweep",
            transport_options={"lease_ttl_s": 5.0, "max_attempts": 2},
            **SMALL_KWARGS,
        )
        assert result.stats.executor == "broker"

    def test_broker_requires_sweep_dir(self):
        with pytest.raises(ValueError, match="requires sweep_dir="):
            run_sweep(transport="broker", **SMALL_KWARGS)
        with pytest.raises(ValueError, match="requires sweep_dir="):
            BrokerTransport()

    def test_second_coordinator_fails_fast(self, tmp_path, serial_small):
        sweep_dir = tmp_path / "sweep"
        sweep_dir.mkdir()
        (sweep_dir / "coordinator.lock").write_text(f"{os.getpid()}\n")
        with pytest.raises(TransportError, match="live coordinator"):
            run_sweep(
                transport="broker", sweep_dir=sweep_dir, **SMALL_KWARGS
            )

    def test_cold_distributed_run_populates_cache(self, tmp_path):
        cache_dir = tmp_path / "cache"
        cold = run_sweep(
            transport="broker",
            sweep_dir=tmp_path / "sweep",
            cache_dir=cache_dir,
            **GRID_KWARGS,
        )
        assert cold.cache_misses == len(cold.results)
        # The coordinator persisted every outcome: a local re-run is all
        # cache hits and byte-identical.
        warm = run_sweep(
            transport="serial", cache_dir=cache_dir, **GRID_KWARGS
        )
        assert warm.cache_hits == len(warm.results)
        assert warm.cache_misses == 0

    def test_warm_distributed_run_matches_warm_serial(self, tmp_path):
        cache_dir = tmp_path / "cache"
        run_sweep(transport="serial", cache_dir=cache_dir, **GRID_KWARGS)
        warm_serial = run_sweep(
            transport="serial", cache_dir=cache_dir, **GRID_KWARGS
        )
        warm_broker = run_sweep(
            transport="broker",
            sweep_dir=tmp_path / "sweep",
            cache_dir=cache_dir,
            **GRID_KWARGS,
        )
        assert warm_broker.to_json() == warm_serial.to_json()
        assert warm_broker.cache_hits == len(warm_broker.results)


WORKER_SCRIPT = """
    import sys
    from repro.dist.worker import WorkerConfig, run_worker

    executed = run_worker(
        WorkerConfig(
            sweep_dir={sweep_dir!r},
            worker_id={worker_id!r},
            attach_timeout_s=120.0,
        )
    )
    print(f"executed {{executed}}")
"""

# A worker whose first shard execution SIGKILLs the whole process
# mid-run: run_worker resolves ``run_shard`` lazily at call time, so
# patching the sweep module is enough to detonate inside the lease.
VICTIM_SCRIPT = """
    import os
    import signal

    import repro.api.sweep as sweep_module

    def lethal_run_shard(shard):
        os.kill(os.getpid(), signal.SIGKILL)

    sweep_module.run_shard = lethal_run_shard

    from repro.dist.worker import WorkerConfig, run_worker

    run_worker(
        WorkerConfig(
            sweep_dir={sweep_dir!r},
            worker_id="victim",
            attach_timeout_s=120.0,
        )
    )
"""

# A healthy worker that waits for the victim's PID to die before
# attaching, so the victim deterministically claims (and loses) a shard.
SURVIVOR_SCRIPT = """
    import os
    import time

    victim_pid = {victim_pid}
    while True:
        try:
            os.kill(victim_pid, 0)
        except ProcessLookupError:
            break
        time.sleep(0.05)

    from repro.dist.worker import WorkerConfig, run_worker

    executed = run_worker(
        WorkerConfig(
            sweep_dir={sweep_dir!r},
            worker_id="survivor",
            attach_timeout_s=120.0,
        )
    )
    print(f"executed {{executed}}")
"""


class TestWorkerProcesses:
    def test_worker_subprocess_executes_all_shards(self, tmp_path):
        serial = run_sweep(transport="serial", shards=3, **GRID_KWARGS)
        sweep_dir = tmp_path / "sweep"
        worker = _spawn(
            WORKER_SCRIPT.format(sweep_dir=str(sweep_dir), worker_id="w0")
        )
        try:
            distributed = run_sweep(
                transport="broker",
                sweep_dir=sweep_dir,
                shards=3,
                transport_options={"coordinator_executes": False},
                **GRID_KWARGS,
            )
        finally:
            stdout, stderr = worker.communicate(timeout=120)
        assert worker.returncode == 0, stderr
        assert stdout.strip() == "executed 3"
        assert distributed.to_json() == serial.to_json()

    def test_sigkilled_worker_is_requeued_and_result_is_byte_identical(
        self, tmp_path
    ):
        serial = run_sweep(transport="serial", shards=3, **GRID_KWARGS)
        sweep_dir = tmp_path / "sweep"
        victim = _spawn(VICTIM_SCRIPT.format(sweep_dir=str(sweep_dir)))
        _reap_in_background(victim)
        survivor = _spawn(
            SURVIVOR_SCRIPT.format(
                sweep_dir=str(sweep_dir), victim_pid=victim.pid
            )
        )
        try:
            with pytest.warns(RuntimeWarning, match="lost its worker"):
                distributed = run_sweep(
                    transport="broker",
                    sweep_dir=sweep_dir,
                    shards=3,
                    transport_options={
                        # Pure coordination: the workers do all the work,
                        # and the PID probe (not the generous TTL) is what
                        # must detect the SIGKILL.
                        "coordinator_executes": False,
                        "lease_ttl_s": 300.0,
                    },
                    **GRID_KWARGS,
                )
        finally:
            victim.communicate(timeout=120)
            survivor_out, survivor_err = survivor.communicate(timeout=120)
        assert victim.returncode == -signal.SIGKILL
        assert survivor.returncode == 0, survivor_err
        assert survivor_out.strip() == "executed 3"
        assert distributed.to_json() == serial.to_json()

    def test_retry_budget_exhaustion_names_the_shard(self, tmp_path):
        sweep_dir = tmp_path / "sweep"
        victim = _spawn(VICTIM_SCRIPT.format(sweep_dir=str(sweep_dir)))
        _reap_in_background(victim)
        try:
            with pytest.warns(RuntimeWarning, match="lost its worker"):
                with pytest.raises(
                    WorkerLostError, match="was lost 1 times"
                ) as excinfo:
                    run_sweep(
                        transport="broker",
                        sweep_dir=sweep_dir,
                        shards=3,
                        transport_options={
                            "coordinator_executes": False,
                            "max_attempts": 1,
                        },
                        **GRID_KWARGS,
                    )
        finally:
            victim.communicate(timeout=120)
        assert victim.returncode == -signal.SIGKILL
        lost = excinfo.value
        assert lost.attempts == 1
        assert f"shard {lost.shard_index} was lost 1 times" in str(lost)
        assert "max_attempts=1" in str(lost)
        # The error carries the lost shard's grid points, as planned.
        plan = ShardPlanner(shards=3).plan(build_grid(**GRID_KWARGS))
        (shard,) = [s for s in plan.shards if s.index == lost.shard_index]
        assert lost.point_indices == shard.indices
        # Even a failed sweep drops the stop sentinel so workers exit.
        assert (sweep_dir / "STOP").exists()


class TestWorkerLoop:
    def test_worker_attach_timeout_raises_manifest_error(self, tmp_path):
        with pytest.raises(SweepManifestError, match="no sweep manifest"):
            run_worker(
                WorkerConfig(sweep_dir=tmp_path, attach_timeout_s=0.0)
            )

    def test_worker_exits_once_all_results_exist(self, tmp_path, serial_small):
        broker = DirectoryBroker(tmp_path)
        grid = build_grid(**SMALL_KWARGS)
        shard = SweepShard(index=0, indices=(0,), points=(grid[0],))
        broker.publish([shard], "sweep-1")
        outcomes = [(0, serial_small.results[0], False)]
        broker.write_outcomes(0, outcomes, "other", "sweep-1")
        assert run_worker(WorkerConfig(sweep_dir=tmp_path)) == 0

    def test_worker_executes_published_shard(self, tmp_path, serial_small):
        broker = DirectoryBroker(tmp_path)
        grid = build_grid(**SMALL_KWARGS)
        shard = SweepShard(index=0, indices=(0,), points=(grid[0],))
        broker.publish([shard], "sweep-1")
        seen = []
        executed = run_worker(
            WorkerConfig(
                sweep_dir=tmp_path,
                max_shards=1,
                on_shard=lambda s, outcomes: seen.append((s.index, outcomes)),
            )
        )
        assert executed == 1
        assert seen[0][0] == 0
        kind, payload = broker.read_result(0, "sweep-1")
        assert kind == "ok"
        assert [index for index, _, _ in payload] == [0]
        assert payload[0][1].to_dict() == serial_small.results[0].to_dict()
        assert broker.lease_info(0) is None  # lease released
