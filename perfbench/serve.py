"""The ``serve-mix`` workload: a closed loop against a ``repro serve`` child.

One client process drives ``min(2, nproc)`` persistent HTTP/1.1
connections.  Each request is written with a single ``sendall`` (headers
and body together) and timed from that write until its full body is read.
Requests are single-model ``fig7`` and ``fig2b`` runs (3:1) drawn with the
workload seed over the five paper models x five presets at experiment
seed 0 -- 50 distinct keys against a hot cache of 12, so roughly a quarter
of requests hit the cache and the median stays in the miss mode.

Untraced runs start the daemon exactly as users do (``python -m
repro.api.cli serve``).  Traced runs start it through ``daemon.py``,
which installs the tracer disabled; an untraced phase measures the
baseline, then SIGUSR1 turns tracing on for the measured phase.
"""

from __future__ import annotations

import http.client
import json
import queue
import random
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from common import (
    COVERAGE_FLOOR,
    PAPER_MODELS,
    PRESETS,
    ROOT,
    Outcome,
    child_env,
    digest,
    expected_digests,
    fig7_gaps,
    load_digests,
    percentile,
    tail,
    usable_cores,
)
from tracer import SpanTree, layer_metrics

EXPERIMENT_SEED = 0
EXPERIMENTS = ("fig7", "fig2b")
HOT_CACHE_SIZE = 12
FIG7_SHARE = 0.75
MIN_REQUESTS = 1000
#: Untraced requests a traced run sends before switching tracing on.
BASELINE_REQUESTS = 250
SELFCHECK_REQUESTS = 400
SETUP_REPEATS = 2
#: Hard cap on one measured phase, so a stalled daemon cannot push the
#: run past its time limit.
PHASE_CAP_S = 100.0

Key = Tuple[str, str, str]  # (experiment, model, preset)


def all_keys() -> List[Key]:
    return [
        (experiment, model, preset)
        for experiment in EXPERIMENTS
        for model in PAPER_MODELS
        for preset in PRESETS
    ]


def request_mix(seed: int, count: int) -> List[Key]:
    """The seeded request sequence (workload input)."""
    rng = random.Random(seed)
    return [
        (
            "fig7" if rng.random() < FIG7_SHARE else "fig2b",
            rng.choice(PAPER_MODELS),
            rng.choice(PRESETS),
        )
        for _ in range(count)
    ]


def encode(key: Key, port: int) -> bytes:
    """One complete ``POST /v1/run`` request, headers and body together."""
    experiment, model, preset = key
    body = json.dumps(
        {
            "experiment": experiment,
            "models": [model],
            "config": preset,
            "seed": EXPERIMENT_SEED,
        }
    ).encode("utf-8")
    head = (
        f"POST /v1/run HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(body)}\r\n\r\n"
    ).encode("ascii")
    return head + body


class Connection:
    """A persistent HTTP/1.1 connection sending each request in one write."""

    def __init__(self, port: int) -> None:
        self.port = port
        self.sock: Optional[socket.socket] = None

    def exchange(self, raw: bytes, method: str = "POST") -> Tuple[int, bytes]:
        if self.sock is None:
            self.sock = socket.create_connection(("127.0.0.1", self.port), timeout=60)
            self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.sendall(raw)
        response = http.client.HTTPResponse(self.sock, method=method)
        response.begin()
        body = response.read()
        if response.will_close:
            self.close()
        return response.status, body

    def close(self) -> None:
        if self.sock is not None:
            self.sock.close()
            self.sock = None


def get_json(port: int, path: str) -> Dict[str, Any]:
    """One ``GET`` on a fresh connection."""
    connection = Connection(port)
    try:
        raw = f"GET {path} HTTP/1.1\r\nHost: 127.0.0.1:{port}\r\n\r\n".encode()
        status, body = connection.exchange(raw, method="GET")
    finally:
        connection.close()
    if status != 200:
        raise RuntimeError(f"GET {path} returned {status}")
    return json.loads(body)


# One client sample: (key index, status, send time, done time, body).
Sample = Tuple[int, int, float, float, bytes]


def closed_loop(
    port: int,
    connections: int,
    keys: Sequence[Key],
    sequence: Sequence[int],
    min_requests: int,
    seconds: float,
) -> Tuple[List[Sample], float, float]:
    """Drive ``connections`` closed-loop clients over ``sequence``.

    Stops once ``min_requests`` were sent and ``seconds`` elapsed (or the
    sequence or :data:`PHASE_CAP_S` runs out).

    Returns:
        (samples, wall seconds, summed per-connection loop seconds).
    """
    encoded = [encode(key, port) for key in keys]
    lock = threading.Lock()
    cursor = [0]
    samples: List[Sample] = []
    loop_time = [0.0]
    errors: List[BaseException] = []
    start = time.perf_counter()

    def client() -> None:
        connection = Connection(port)
        began = time.perf_counter()
        mine: List[Sample] = []
        try:
            while True:
                with lock:
                    issued = cursor[0]
                    elapsed = time.perf_counter() - start
                    if issued >= len(sequence) or elapsed >= PHASE_CAP_S or (
                        issued >= min_requests and elapsed >= seconds
                    ):
                        break
                    cursor[0] += 1
                index = sequence[issued]
                sent = time.perf_counter()
                status, body = connection.exchange(encoded[index])
                mine.append((index, status, sent, time.perf_counter(), body))
        except BaseException as error:  # reported by the caller
            errors.append(error)
        finally:
            connection.close()
            with lock:
                samples.extend(mine)
                loop_time[0] += time.perf_counter() - began

    threads = [threading.Thread(target=client) for _ in range(connections)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if errors:
        raise RuntimeError(f"serve client failed: {errors[0]!r}") from errors[0]
    samples.sort(key=lambda sample: sample[2])
    return samples, wall, loop_time[0]


# ---------------------------------------------------------------------------
# The daemon child
# ---------------------------------------------------------------------------
class Daemon:
    """A ``repro serve`` child on a free port, with its stdout drained."""

    def __init__(self, traced: bool, spans_path: Optional[Path] = None) -> None:
        serve_args = ["serve", "--port", "0", "--hot-cache-size", str(HOT_CACHE_SIZE)]
        if traced:
            argv = [sys.executable, str(Path(__file__).with_name("daemon.py")),
                    str(spans_path), *serve_args]
        else:
            argv = [sys.executable, "-m", "repro.api.cli", *serve_args]
        self.process = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True
        )
        self.lines: "queue.Queue[str]" = queue.Queue()
        self._reader = threading.Thread(target=self._drain, daemon=True)
        self._reader.start()
        try:
            line = self.wait_for("repro serve: listening on ", 60.0)
        except BaseException:
            self.stop()
            raise
        self.port = int(line.rsplit(":", 1)[1])

    def _drain(self) -> None:
        assert self.process.stdout is not None
        for line in self.process.stdout:
            self.lines.put(line.strip())
        self.lines.put("")

    def wait_for(self, prefix: str, timeout: float) -> str:
        deadline = time.monotonic() + timeout
        while True:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                raise RuntimeError(f"daemon never printed {prefix!r}")
            try:
                line = self.lines.get(timeout=remaining)
            except queue.Empty:
                continue
            if line.startswith(prefix):
                return line
            if not line and self.process.poll() is not None:
                raise RuntimeError(
                    f"daemon exited ({self.process.returncode}) before {prefix!r}"
                )

    def peak_rss_mb(self) -> float:
        """The daemon's peak RSS (``VmHWM``), in MiB."""
        with open(f"/proc/{self.process.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM (the daemon drains), then wait; kill if it hangs."""
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._reader.join(timeout=10)


def start_warm(traced: bool, spans_path: Optional[Path], keys: Sequence[Key],
               connections: int) -> Tuple[Daemon, float, List[Sample]]:
    """Start a daemon and warm every session; returns the set-up time."""
    start = time.perf_counter()
    daemon = Daemon(traced, spans_path)
    try:
        samples, _, _ = closed_loop(
            daemon.port, connections, keys, range(len(keys)), len(keys), 0.0
        )
    except BaseException:
        daemon.stop()
        raise
    return daemon, time.perf_counter() - start, samples


# ---------------------------------------------------------------------------
# Correctness and the harness self-check
# ---------------------------------------------------------------------------
def reference_digests(keys: Sequence[Key]) -> List[Optional[str]]:
    """Committed digest of ``Experiment(config, seed).run(...).to_dict()``
    per key (``None`` when not shipped, which fails every request)."""
    identities = [f"{e}|{p}|{m}" for e, m, p in keys]
    table = expected_digests(
        load_digests("serve-mix"), EXPERIMENT_SEED, identities
    ) or {}
    return [table.get(identity) for identity in identities]


def check(
    samples: Sequence[Sample], expected: Sequence[Optional[str]]
) -> Tuple[int, List[Dict]]:
    """Failed requests, and every result the daemon served."""
    failed = 0
    served = []
    for index, status, _, _, body in samples:
        if status != 200:
            failed += 1
            continue
        try:
            result = json.loads(body)["result"]
        except (ValueError, KeyError):
            failed += 1
            continue
        served.append(result)
        if digest(result) != expected[index]:
            failed += 1
    return failed, served


class _OneWriteHandler(BaseHTTPRequestHandler):
    """Answers every ``POST`` with a canned body, headers and body in one
    write -- the control the serve client is checked against."""

    protocol_version = "HTTP/1.1"
    body = b"{}"

    def log_message(self, format: str, *args: Any) -> None:
        pass

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler contract)
        self.rfile.read(int(self.headers.get("Content-Length") or 0))
        head = (
            "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n"
            f"Content-Length: {len(self.body)}\r\n\r\n"
        ).encode("ascii")
        self.wfile.write(head + self.body)


def selfcheck_p50_ms(connections: int, keys: Sequence[Key], body: bytes) -> float:
    """Client p50 against a one-write stdlib server (low ms if the client
    adds no stall of its own)."""
    handler = type("Handler", (_OneWriteHandler,), {"body": body})
    server = ThreadingHTTPServer(("127.0.0.1", 0), handler)
    server.daemon_threads = True
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        sequence = [i % len(keys) for i in range(SELFCHECK_REQUESTS)]
        samples, _, _ = closed_loop(
            server.server_address[1], connections, keys, sequence,
            SELFCHECK_REQUESTS, 0.0,
        )
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)
    return 1000.0 * statistics.median(s[3] - s[2] for s in samples)


# ---------------------------------------------------------------------------
# The workload
# ---------------------------------------------------------------------------
def _delta(after: Dict, before: Dict, name: str) -> int:
    return after["counters"].get(name, 0) - before["counters"].get(name, 0)


def serve_mix(seed: int, seconds: float, trace: bool, scratch: Path) -> Outcome:
    outcome = Outcome()
    connections = connection_count()
    keys = all_keys()
    expected = reference_digests(keys)
    index = {key: i for i, key in enumerate(keys)}
    sequence = [index[key] for key in request_mix(seed, 50_000)]
    spans_path = scratch / "daemon-spans.json"

    setups = []
    for repeat in range(SETUP_REPEATS):
        daemon, took, warm = start_warm(trace, spans_path, keys, connections)
        setups.append(took)
        if repeat + 1 < SETUP_REPEATS:
            daemon.stop()
    try:
        baseline: List[Sample] = []
        if trace:
            baseline, _, _ = closed_loop(
                daemon.port, connections, keys, sequence[:BASELINE_REQUESTS],
                BASELINE_REQUESTS, 0.0,
            )
            daemon.process.send_signal(signal.SIGUSR1)
            daemon.wait_for("perfbench: tracing on", 10.0)
        before = get_json(daemon.port, "/v1/metrics")
        outcome.origin = time.perf_counter()
        samples, wall, loop_time = closed_loop(
            daemon.port, connections, keys, sequence[len(baseline):],
            MIN_REQUESTS, seconds,
        )
        after = get_json(daemon.port, "/v1/metrics")
        rss = daemon.peak_rss_mb()
    finally:
        daemon.stop()

    everything = list(warm) + list(baseline) + list(samples)
    outcome.attempted = len(everything)
    outcome.failed, served = check(everything, expected)
    latencies = [s[3] - s[2] for s in samples]
    outcome.samples = latencies
    p50 = percentile(latencies, 0.50)
    if not trace:
        ok = sum(1 for s in samples if s[1] == 200)
        speedup_gap, energy_gap = fig7_gaps(served)
        outcome.end_to_end.update(
            {
                "setup_s": statistics.median(setups),
                "ops_per_s": ok / wall,
                "p50_ms": 1000.0 * p50,
                "tail_ms": 1000.0 * tail(latencies),
                "peak_rss_mb": rss,
                "fig7.speedup_gap_pct": speedup_gap,
                "fig7.energy_gap_pct": energy_gap,
            }
        )
        return outcome

    # Per-layer view: daemon spans of the traced phase, normalised per
    # 1000 requests, plus the daemon's own metrics over the same phase.
    with open(spans_path, encoding="utf-8") as handle:
        daemon_spans = [tuple(span) for span in json.load(handle)]
    per_k = 1000.0 / len(samples)
    layers = layer_metrics(SpanTree(daemon_spans))
    distinct = layers.pop("profiles.distinct")
    for name, value in layers.items():
        outcome.per_layer[name] = value * per_k
    calls = layers["profiles.calls"]
    outcome.per_layer["profiles.useful_ratio"] = distinct / calls if calls else 1.0
    outcome.per_layer["profiles.wall_share"] = layers["profiles.busy_s"] / wall

    server_p50 = 1000.0 * after["latency"]["request"]["p50_s"]
    execute_p50 = 1000.0 * after["latency"]["batch_execute"]["p50_s"]
    batches = _delta(after, before, "batches_total")
    hits = _delta(after, before, "cache_hits")
    probes = hits + _delta(after, before, "cache_misses")
    coverage = sum(latencies) / loop_time
    if coverage < COVERAGE_FLOOR:
        outcome.problems.append(
            f"client trace coverage {coverage:.3f} < {COVERAGE_FLOOR}"
        )
    outcome.per_layer.update(
        {
            "serve.server_p50_ms": server_p50,
            "serve.batch_execute_p50_ms": execute_p50,
            "serve.queue_wait_ms": server_p50 - execute_p50,
            "serve.batch_size_mean": (
                _delta(after, before, "batched_requests_total") / batches
                if batches else 0.0
            ),
            "serve.hot_hit_ratio": hits / probes if probes else 0.0,
            "serve.rejected": float(_delta(after, before, "rejected_total")),
            "serve.timeouts": float(_delta(after, before, "timeout_total")),
            "serve.http_gap_ms": 1000.0 * p50 - server_p50,
            "harness.selfcheck_p50_ms": selfcheck_p50_ms(
                connections, keys, samples[0][4]
            ),
            "trace.coverage": coverage,
            "trace.overhead_pct": 100.0 * (
                p50 / statistics.median(s[3] - s[2] for s in baseline) - 1.0
            ),
        }
    )
    outcome.spans.extend(daemon_spans)
    outcome.spans.extend(
        (0, 0, "client.request", s[2], s[3], 0, 1, None) for s in samples
    )
    return outcome


def connection_count() -> int:
    """Keep-alive connections: two, but never more than usable cores."""
    return max(1, min(2, usable_cores()))
