"""Tests for the repro.serve core: coalescing, deadlines, backpressure.

The serving contract pinned here: coalesced concurrent requests return
results **byte-identical** to one-at-a-time dispatch; deadlines surface as
typed :class:`DeadlineExceededError`; admission control rejects beyond
``max_queue`` with :class:`QueueFullError`; and a draining close finishes
every admitted request.  Concurrent callers are plain threads, the shape
of the HTTP façade's handler threads.  Coalescing is made deterministic by
holding the dispatch thread inside a gated blocker group until every
request under test is queued.
"""

import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.api.experiment import Experiment
from repro.serve import (
    DeadlineExceededError,
    ExperimentService,
    HotResultCache,
    LatencyWindow,
    MetricsRegistry,
    QueueFullError,
    RequestValidationError,
    RunFailedError,
    RunRequest,
    ServeConfig,
    ServiceClosedError,
)

MODELS = ("alexnet", "resnet18", "mobilenetv2")


def direct_result(request: RunRequest):
    """What a one-shot Experiment.run returns for the same request."""
    session = Experiment(
        config=request.config, seed=request.seed, engine=request.engine
    )
    params = dict(request.params)
    if request.models is not None:
        params["models"] = request.models
    return session.run(request.experiment, **params)


# ---------------------------------------------------------------------------
# Request validation (no service needed)
# ---------------------------------------------------------------------------
class TestRunRequestValidation:
    def test_canonicalises_models(self):
        request = RunRequest("fig7", models=("alexnet",)).validated()
        assert request.models == ("alexnet",)
        assert request.experiment == "fig7"

    def test_models_none_expands_to_all_workloads(self):
        from repro.workloads.models import list_workloads

        request = RunRequest("fig7").validated()
        assert request.models == tuple(list_workloads())

    def test_unknown_experiment(self):
        with pytest.raises(RequestValidationError, match="unknown experiment"):
            RunRequest("nope").validated()

    def test_unknown_workload(self):
        with pytest.raises(RequestValidationError, match="unknown workload"):
            RunRequest("fig7", models=("bogus",)).validated()

    def test_unknown_config(self):
        with pytest.raises(RequestValidationError):
            RunRequest("fig7", models=MODELS, config="bogus").validated()

    def test_unknown_engine(self):
        with pytest.raises(RequestValidationError, match="unknown engine"):
            RunRequest("fig7", models=MODELS, engine="quantum").validated()

    def test_heavy_experiment_gated(self):
        with pytest.raises(RequestValidationError, match="not admitted"):
            RunRequest("table2").validated()
        # ... but admitted when the service opts in.
        assert RunRequest("table2").validated(allow_heavy=True).models

    def test_models_rejected_for_modelless_experiment(self):
        with pytest.raises(RequestValidationError, match="does not take"):
            RunRequest("table1", models=("alexnet",)).validated()

    def test_unknown_param(self):
        with pytest.raises(RequestValidationError, match="unexpected param"):
            RunRequest("fig2a", params={"wat": 1}).validated()

    def test_models_in_params_rejected(self):
        with pytest.raises(RequestValidationError, match="'models' field"):
            RunRequest("fig7", params={"models": ["alexnet"]}).validated()

    def test_empty_model_list(self):
        with pytest.raises(RequestValidationError, match="empty model list"):
            RunRequest("fig7", models=()).validated()

    def test_bad_timeout(self):
        with pytest.raises(RequestValidationError, match="timeout"):
            RunRequest("fig7", models=MODELS, timeout_s=0.0).validated()

    def test_cache_key_matches_sweep_point(self):
        request = RunRequest("fig7", models=("alexnet",)).validated()
        assert request.cache_key() == request.point().cache_key()


# ---------------------------------------------------------------------------
# Core dispatch semantics (caller threads + one dispatch thread)
# ---------------------------------------------------------------------------
#: A cheap standalone request (table1 never coalesces) that holds the
#: dispatch thread while the requests under test queue up behind it.
BLOCKER = RunRequest("table1")


def wait_until(predicate, timeout=30.0):
    """Poll ``predicate`` until it holds; fail the test on timeout."""
    deadline = time.monotonic() + timeout
    while not predicate():
        assert time.monotonic() < deadline, "condition never held"
        time.sleep(0.001)


def queue_depth(service):
    return service.snapshot()["service"]["queue_depth"]


class HeldDispatch:
    """Gate ``service._execute_group`` so the dispatch thread can be held.

    :meth:`hold` submits :data:`BLOCKER` and returns once the dispatch
    thread is parked inside its group; requests submitted afterwards queue
    up until :meth:`release`.  Only the first group is gated.
    """

    def __init__(self, service, pool):
        self.service = service
        self.pool = pool
        self.entered = threading.Event()
        self.released = threading.Event()
        original = service._execute_group

        def gated(group):
            if not self.entered.is_set():
                self.entered.set()
                self.released.wait(timeout=30)
            return original(group)

        service._execute_group = gated

    def hold(self, request=BLOCKER):
        blocker = self.pool.submit(self.service.submit, request)
        assert self.entered.wait(timeout=30)
        return blocker

    def release(self):
        self.released.set()


def submit_coalesced(service, requests):
    """Submit ``requests`` from one thread each while the dispatch thread
    is held, so all of them coalesce into the next batch; return their
    outcomes in order."""
    with ThreadPoolExecutor(max_workers=len(requests) + 1) as pool:
        held = HeldDispatch(service, pool)
        blocker = held.hold()
        try:
            futures = [pool.submit(service.submit, r) for r in requests]
            wait_until(lambda: queue_depth(service) == len(requests))
        finally:
            held.release()
        blocker.result(timeout=60)
        return [future.result(timeout=60) for future in futures]


class TestServiceDispatch:
    def test_coalesced_requests_byte_identical_to_serial(self):
        """The headline contract: one merged batch == N solo runs, bytewise."""
        with ExperimentService(ServeConfig(hot_cache_size=0)) as service:
            outcomes = submit_coalesced(
                service, [RunRequest("fig7", models=(m,)) for m in MODELS]
            )
        assert [o.batch_size for o in outcomes] == [len(MODELS)] * len(MODELS)
        for model, outcome in zip(MODELS, outcomes):
            expected = direct_result(RunRequest("fig7", models=(model,)))
            assert outcome.result.to_json() == expected.to_json()

    def test_cross_config_requests_coalesce_byte_identical(self):
        """Requests differing only in config share one coalesce bucket,
        run one merged call per config, and split back bytewise."""

        configs = ("paper-28nm", "dense-baseline", "weight-sparsity-only")
        with ExperimentService(ServeConfig(hot_cache_size=0)) as service:
            outcomes = submit_coalesced(
                service,
                [
                    RunRequest("fig7", models=("alexnet",), config=config)
                    for config in configs
                ],
            )
        assert [o.batch_size for o in outcomes] == [len(configs)] * len(
            configs
        )
        for config, outcome in zip(configs, outcomes):
            expected = direct_result(
                RunRequest("fig7", models=("alexnet",), config=config)
            )
            assert outcome.result.to_json() == expected.to_json()

    def test_identical_requests_deduplicate_within_batch(self):
        request = RunRequest("fig7", models=("alexnet",))
        with ExperimentService(ServeConfig(hot_cache_size=0)) as service:
            outcomes = submit_coalesced(service, [request] * 3)
        payloads = {o.result.to_json() for o in outcomes}
        assert len(payloads) == 1  # one computation, shared by all three

    def test_incompatible_requests_do_not_merge(self):
        """Different seeds are different buckets; results stay per-seed."""
        with ExperimentService(ServeConfig(hot_cache_size=0)) as service:
            outcomes = submit_coalesced(
                service,
                [
                    RunRequest("fig7", models=("alexnet",), seed=seed)
                    for seed in (0, 1)
                ],
            )
        assert [o.batch_size for o in outcomes] == [1, 1]
        assert [o.result.seed for o in outcomes] == [0, 1]
        for seed, outcome in zip((0, 1), outcomes):
            expected = direct_result(
                RunRequest("fig7", models=("alexnet",), seed=seed)
            )
            assert outcome.result.to_json() == expected.to_json()

    def test_deadline_expiry_is_typed(self, monkeypatch):
        """A short deadline expires while queued behind a busy dispatch."""
        real_run = Experiment.run
        entered = threading.Event()
        release = threading.Event()

        def gated(self, experiment, **params):
            entered.set()
            release.wait(timeout=30)
            return real_run(self, experiment, **params)

        monkeypatch.setattr(Experiment, "run", gated)

        with ExperimentService(ServeConfig(hot_cache_size=0)) as service:
            with ThreadPoolExecutor(max_workers=1) as pool:
                try:
                    first = pool.submit(
                        service.submit, RunRequest("fig7", models=("alexnet",))
                    )
                    # The dispatch thread is now held inside Experiment.run.
                    assert entered.wait(timeout=30)
                    with pytest.raises(DeadlineExceededError, match="deadline"):
                        service.submit(
                            RunRequest(
                                "fig7", models=("resnet18",), timeout_s=0.05
                            )
                        )
                finally:
                    release.set()
                first.result(timeout=60)
            timeouts = service.metrics.counter("timeout_total")
        assert timeouts == 1

    def test_expired_queued_request_is_skipped(self):
        """A request whose caller gave up while it was queued is skipped by
        the dispatch thread (no result on a cancelled future), which stays
        alive and serves the next request."""
        with ExperimentService(ServeConfig(hot_cache_size=0)) as service:
            with ThreadPoolExecutor(max_workers=1) as pool:
                held = HeldDispatch(service, pool)
                blocker = held.hold()
                try:
                    with pytest.raises(DeadlineExceededError, match="deadline"):
                        service.submit(
                            RunRequest(
                                "fig7", models=("alexnet",), timeout_s=0.05
                            )
                        )
                finally:
                    held.release()
                blocker.result(timeout=60)
            request = RunRequest("fig7", models=("resnet18",))
            outcome = service.submit(request)
            assert service._dispatcher.is_alive()
            counters = service.snapshot()["counters"]
        assert counters["timeout_total"] == 1
        assert "failed_total" not in counters
        # The blocker and the follow-up ran; the expired entry never did.
        assert counters["batched_requests_total"] == 2
        assert outcome.batch_size == 1
        assert outcome.result.to_json() == direct_result(request).to_json()

    def test_queue_full_rejection(self):
        """Beyond max_queue queued requests, admission raises QueueFullError."""
        config = ServeConfig(max_queue=1, hot_cache_size=0)
        with ExperimentService(config) as service:
            with ThreadPoolExecutor(max_workers=2) as pool:
                held = HeldDispatch(service, pool)
                try:
                    # The first request occupies the dispatch thread ...
                    first = held.hold(RunRequest("fig7", models=("alexnet",)))
                    second = pool.submit(
                        service.submit, RunRequest("fig7", models=("resnet18",))
                    )
                    # ... and the second request fills the queue.
                    wait_until(lambda: queue_depth(service) == 1)
                    with pytest.raises(QueueFullError, match="queue is full"):
                        service.submit(
                            RunRequest("fig7", models=("mobilenetv2",))
                        )
                finally:
                    held.release()
                outcomes = [first.result(60), second.result(60)]
            rejected = service.metrics.counter("rejected_total")
        assert rejected == 1
        assert [len(o.result.rows) for o in outcomes] == [1, 1]

    def test_graceful_shutdown_drains_admitted_requests(self):
        """close(drain=True) finishes queued work; new submits are refused."""
        service = ExperimentService(ServeConfig(hot_cache_size=0)).start()
        with ThreadPoolExecutor(max_workers=len(MODELS) + 2) as pool:
            held = HeldDispatch(service, pool)
            try:
                blocker = held.hold()
                futures = [
                    pool.submit(
                        service.submit, RunRequest("fig7", models=(model,))
                    )
                    for model in MODELS
                ]
                wait_until(lambda: queue_depth(service) == len(MODELS))
                closing = pool.submit(service.close, drain=True)
                wait_until(lambda: service.snapshot()["service"]["closing"])
                with pytest.raises(ServiceClosedError):
                    service.submit(RunRequest("fig7", models=("alexnet",)))
            finally:
                held.release()
            closing.result(timeout=60)
            blocker.result(timeout=60)
            outcomes = [future.result(timeout=60) for future in futures]
        with pytest.raises(ServiceClosedError):
            service.submit(RunRequest("fig7", models=("alexnet",)))
        assert len(outcomes) == len(MODELS)
        for model, outcome in zip(MODELS, outcomes):
            expected = direct_result(RunRequest("fig7", models=(model,)))
            assert outcome.result.to_json() == expected.to_json()

    def test_close_without_drain_fails_queued_requests(self):
        """close(drain=False) fails every queued request with
        ServiceClosedError; the group already executing still completes."""
        service = ExperimentService(ServeConfig(hot_cache_size=0)).start()
        with ThreadPoolExecutor(max_workers=2) as pool:
            held = HeldDispatch(service, pool)
            try:
                blocker = held.hold()
                queued = pool.submit(
                    service.submit, RunRequest("fig7", models=("alexnet",))
                )
                wait_until(lambda: queue_depth(service) == 1)
                service.close(drain=False)
                with pytest.raises(ServiceClosedError, match="before dispatch"):
                    queued.result(timeout=30)
            finally:
                held.release()
            assert blocker.result(timeout=60).batch_size == 1

    def test_experiment_failure_is_typed_and_isolated(self, monkeypatch):
        """A failing run maps to RunFailedError without killing the service."""

        def boom(self, experiment, **params):
            raise RuntimeError("boom")

        monkeypatch.setattr(Experiment, "run", boom)

        with ExperimentService(ServeConfig(hot_cache_size=0)) as service:
            with pytest.raises(RunFailedError, match="boom"):
                service.submit(RunRequest("fig7", models=("alexnet",)))
            failed = service.metrics.counter("failed_total")
        assert failed == 1

    def test_merge_failure_falls_back_visibly(self, monkeypatch):
        """A failing merged run is re-run per request (byte-identical to
        solo dispatch) and counted in merge_fallbacks_total."""
        real_run = Experiment.run

        def solo_only(self, experiment, **params):
            if len(params.get("models") or ()) > 1:
                raise RuntimeError("merged runs are broken")
            return real_run(self, experiment, **params)

        monkeypatch.setattr(Experiment, "run", solo_only)

        with ExperimentService(
            ServeConfig(hot_cache_size=0)
        ) as service, pytest.warns(RuntimeWarning, match="merged runs"):
            outcomes = submit_coalesced(
                service, [RunRequest("fig7", models=(m,)) for m in MODELS]
            )
            snapshot = service.snapshot()
        assert [o.batch_size for o in outcomes] == [len(MODELS)] * len(MODELS)
        assert snapshot["counters"]["merge_fallbacks_total"] == 1
        assert snapshot["counters"]["store_append_skipped_total"] == 0
        for model, outcome in zip(MODELS, outcomes):
            expected = direct_result(RunRequest("fig7", models=(model,)))
            assert outcome.result.to_json() == expected.to_json()


# ---------------------------------------------------------------------------
# Caching layers
# ---------------------------------------------------------------------------
class TestServiceCaching:
    def test_hot_cache_hit_on_repeat(self):
        with ExperimentService(ServeConfig()) as service:
            request = RunRequest("fig7", models=("alexnet",))
            first = service.submit(request)
            second = service.submit(request)
        assert not first.cache_hit
        assert second.cache_hit and second.batch_size == 0
        assert second.result.to_json() == first.result.to_json()

    def test_fig2b_on_another_preset_is_a_hot_hit_with_its_own_config(self):
        # fig2b does not read the configuration: preset B after preset A
        # is a hot hit, labelled B and equal to a cold run at B.
        at_a = RunRequest("fig2b", models=("alexnet",), config="paper-28nm")
        at_b = RunRequest(
            "fig2b", models=("alexnet",), config="paper-28nm-8macro"
        )
        with ExperimentService(ServeConfig()) as service:
            first = service.submit(at_a)
            second = service.submit(at_b)
        assert not first.cache_hit and second.cache_hit
        assert second.result.config == "paper-28nm-8macro"
        assert second.result.to_dict() == direct_result(at_b).to_dict()
        assert first.result.to_dict() == direct_result(at_a).to_dict()

    def test_fig7_on_another_preset_is_a_miss(self):
        # fig7 reads the configuration: no sharing across presets.
        with ExperimentService(ServeConfig()) as service:
            service.submit(RunRequest("fig7", models=("alexnet",)))
            other = service.submit(
                RunRequest(
                    "fig7", models=("alexnet",), config="paper-28nm-8macro"
                )
            )
        assert not other.cache_hit

    def test_packed_store_layer(self, tmp_path):
        """The hot-cache miss path falls through to the packed store."""
        from repro.store import DATA_FILENAME, PackedResultStore

        config = ServeConfig(hot_cache_size=0, cache_dir=tmp_path)
        request = RunRequest("fig7", models=("alexnet",))
        with ExperimentService(config) as service:
            first = service.submit(request)
        # The result is packed; the store directory holds nothing else.
        assert [p.name for p in tmp_path.iterdir()] == [DATA_FILENAME]
        assert len(PackedResultStore(tmp_path)) == 1
        # A fresh service (hot cache disabled) serves from the store.
        with ExperimentService(config) as service:
            second = service.submit(request)
            hits = service.snapshot()["counters"].get("disk_cache_hits", 0)
        assert hits == 1
        assert second.result.to_json() == first.result.to_json()

    def test_packed_store_shared_with_sweep(self, tmp_path):
        """A sweep-populated pack serves the daemon, and vice versa."""
        from repro.api import run_sweep

        swept = run_sweep(
            experiments=("fig7",),
            models=("alexnet",),
            cache_dir=tmp_path,
            transport="serial",
        )
        config = ServeConfig(hot_cache_size=0, cache_dir=tmp_path)
        with ExperimentService(config) as service:
            outcome = service.submit(RunRequest("fig7", models=("alexnet",)))
            hits = service.snapshot()["counters"].get("disk_cache_hits", 0)
        assert hits == 1
        assert outcome.result.to_json() == swept.results[0].to_json()

    def test_locked_pack_skips_append_visibly(self, tmp_path):
        """Another live process holding the pack lock must not fail the
        request; the skipped append shows in store_append_skipped_total."""
        import subprocess
        import sys

        from repro.store import LOCK_FILENAME, PackedResultStore

        holder = subprocess.Popen(
            [sys.executable, "-c", "import time; time.sleep(60)"]
        )
        try:
            (tmp_path / LOCK_FILENAME).write_text(f"{holder.pid}\n")
            config = ServeConfig(hot_cache_size=0, cache_dir=tmp_path)
            request = RunRequest("fig7", models=("alexnet",))
            with ExperimentService(config) as service:
                with pytest.warns(RuntimeWarning, match="packed-store append"):
                    outcome = service.submit(request)
                counters = service.snapshot()["counters"]
        finally:
            holder.kill()
            holder.wait()
        assert counters["store_append_skipped_total"] == 1
        assert outcome.result.to_json() == direct_result(request).to_json()
        assert len(PackedResultStore(tmp_path)) == 0  # nothing written

    def test_cache_backend_knob_is_gone(self):
        with pytest.raises(TypeError, match="cache_backend"):
            ServeConfig(cache_backend="packed")

    def test_metrics_snapshot_shape(self):
        with ExperimentService(ServeConfig()) as service:
            service.submit(RunRequest("fig7", models=("alexnet",)))
            snapshot = service.snapshot()
        assert snapshot["counters"]["requests_ok"] == 1
        assert snapshot["derived"]["coalesce_ratio"] == 1.0
        assert snapshot["latency"]["request"]["count"] == 1
        assert snapshot["service"]["sessions"] == 1


# ---------------------------------------------------------------------------
# Components: hot cache and metrics registry
# ---------------------------------------------------------------------------
class TestHotResultCache:
    def test_ttl_expiry(self):
        clock = [0.0]
        cache = HotResultCache(capacity=4, ttl_s=10.0, clock=lambda: clock[0])
        cache.put("a", 1)
        assert cache.get("a") == 1
        clock[0] = 10.0
        assert cache.get("a") is None
        assert len(cache) == 0

    def test_lru_eviction(self):
        cache = HotResultCache(capacity=2, ttl_s=None)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.get("a") == 1  # refresh 'a'; 'b' is now LRU
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3

    def test_capacity_zero_disables(self):
        cache = HotResultCache(capacity=0)
        cache.put("a", 1)
        assert cache.get("a") is None and len(cache) == 0

    def test_invalidate(self):
        cache = HotResultCache(capacity=4, ttl_s=None)
        cache.put("a", 1)
        cache.put("b", 2)
        assert cache.invalidate("a") == 1
        assert cache.invalidate("a") == 0
        assert cache.invalidate() == 1  # clears 'b'

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            HotResultCache(capacity=-1)
        with pytest.raises(ValueError):
            HotResultCache(ttl_s=0.0)


class TestMetrics:
    def test_latency_window_percentiles(self):
        window = LatencyWindow()
        for value in range(1, 101):
            window.record(value / 100.0)
        snapshot = window.snapshot()
        assert snapshot["count"] == 100
        assert snapshot["p50_s"] == pytest.approx(0.50, abs=0.02)
        assert snapshot["p99_s"] == pytest.approx(0.99, abs=0.02)
        assert snapshot["max_s"] == pytest.approx(1.0)

    def test_registry_derived_ratios(self):
        registry = MetricsRegistry()
        registry.increment("batches_total", 2)
        registry.increment("batched_requests_total", 6)
        registry.increment("cache_hits", 3)
        registry.increment("cache_misses", 1)
        registry.increment("timeout_total")
        registry.set_gauge("queue_depth", 4)
        registry.observe("request", 0.25)
        snapshot = registry.snapshot()
        assert snapshot["derived"]["coalesce_ratio"] == 3.0
        assert snapshot["derived"]["cache_hit_rate"] == 0.75
        assert snapshot["derived"]["errors_total"] == 1
        assert snapshot["gauges"]["queue_depth"] == 4.0
        assert snapshot["latency"]["request"]["count"] == 1

    def test_empty_registry_snapshot(self):
        snapshot = MetricsRegistry().snapshot()
        assert snapshot["derived"]["coalesce_ratio"] == 0.0
        assert snapshot["derived"]["cache_hit_rate"] == 0.0


# ---------------------------------------------------------------------------
# Service lifecycle and configuration
# ---------------------------------------------------------------------------
class TestServiceLifecycle:
    def test_threaded_submits_coalesce_and_match_serial(self):
        """Concurrent OS threads (the HTTP shape) coalesce bitwise-correctly."""
        config = ServeConfig(hot_cache_size=0)
        outcomes = {}
        with ExperimentService(config) as service:
            def submit(model):
                outcomes[model] = service.submit(
                    RunRequest("fig7", models=(model,))
                )

            threads = [
                threading.Thread(target=submit, args=(model,))
                for model in MODELS
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            ratio = service.snapshot()["derived"]["coalesce_ratio"]
        assert set(outcomes) == set(MODELS)
        for model, outcome in outcomes.items():
            expected = direct_result(RunRequest("fig7", models=(model,)))
            assert outcome.result.to_json() == expected.to_json()
        assert ratio >= 1.0  # coalescing is timing-dependent across threads

    def test_run_after_close_raises(self):
        service = ExperimentService(ServeConfig()).start()
        service.close()
        with pytest.raises(ServiceClosedError):
            service.submit(RunRequest("fig7", models=("alexnet",)))
        with pytest.raises(ServiceClosedError):
            service.submit_sweep(experiments=["table4"])

    def test_submit_before_start_raises(self):
        service = ExperimentService(ServeConfig())
        with pytest.raises(ServiceClosedError):
            service.submit(RunRequest("fig7", models=("alexnet",)))
        assert service.snapshot()["service"]["queue_depth"] == 0

    def test_core_error_fails_its_group_and_keeps_dispatching(
        self, tmp_path, monkeypatch
    ):
        """An error escaping the execution core (here a failing store read)
        reaches the callers of that group; the dispatch thread survives."""
        config = ServeConfig(hot_cache_size=0, cache_dir=tmp_path)
        with ExperimentService(config) as service:
            real_get_many = service._store.get_many

            def broken(keys):
                monkeypatch.setattr(service._store, "get_many", real_get_many)
                raise OSError("pack.data unreadable")

            monkeypatch.setattr(service._store, "get_many", broken)
            with pytest.raises(OSError, match="unreadable"):
                service.submit(RunRequest("fig7", models=("alexnet",)))
            outcome = service.submit(RunRequest("fig7", models=("alexnet",)))
            failed = service.metrics.counter("failed_total")
        assert failed == 1
        assert outcome.result.to_json() == direct_result(
            RunRequest("fig7", models=("alexnet",))
        ).to_json()

    def test_service_runtime_is_gone(self):
        with pytest.raises(ImportError):
            from repro.serve import ServiceRuntime  # noqa: F401

    def test_serve_config_validation(self):
        for kwargs in (
            {"max_queue": 0},
            {"default_timeout_s": 0.0},
            {"hot_cache_size": -1},
            {"hot_cache_ttl_s": 0.0},
        ):
            with pytest.raises(ValueError):
                ServeConfig(**kwargs)
        assert ServeConfig(hot_cache_ttl_s=None).hot_cache_ttl_s is None

    def test_batch_window_option_is_gone(self):
        """The batcher never waits for companions, so there is no window."""
        with pytest.raises(TypeError):
            ServeConfig(batch_window_s=0.005)
