"""End-to-end smoke test of the ``repro serve`` daemon (CI ``serve-smoke``).

Starts the daemon as a real subprocess on an ephemeral port, exercises the
whole HTTP surface -- ``/v1/health``, ``/v1/run`` (cold + hot-cache repeat),
``/v1/sweep``, ``/v1/metrics`` -- probes keep-alive latency (hot-cache hits
on one persistent connection, where a split response write would stall
~40 ms on Nagle + delayed ACK), and finishes with a SIGTERM, asserting the
daemon drains and exits 0.  Run locally with::

    PYTHONPATH=src python scripts/serve_smoke.py

Exit code 0 means every probe passed; any assertion prints the offending
payload and exits non-zero.
"""

from __future__ import annotations

import http.client
import json
import os
import signal
import statistics
import subprocess
import sys
import time
import urllib.error
import urllib.parse
import urllib.request

TIMEOUT_S = 120
#: Hot-cache hits timed on one keep-alive connection, and the bound on
#: their median round trip (a hit costs well under 1 ms server-side).
KEEPALIVE_HITS = 20
KEEPALIVE_MEDIAN_S = 0.020


def _post(url: str, path: str, payload: dict) -> tuple:
    request = urllib.request.Request(
        url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=TIMEOUT_S) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def _get(url: str, path: str) -> tuple:
    with urllib.request.urlopen(url + path, timeout=TIMEOUT_S) as response:
        return response.status, json.loads(response.read())


def _keepalive_median(url: str, payload: dict) -> float:
    """Median round trip of hot-cache hits for ``payload`` on one
    persistent connection (the first request warms the key)."""
    address = urllib.parse.urlsplit(url)
    connection = http.client.HTTPConnection(
        address.hostname, address.port, timeout=TIMEOUT_S
    )
    body = json.dumps(payload)
    headers = {"Content-Type": "application/json"}
    elapsed = []
    try:
        for _ in range(KEEPALIVE_HITS + 1):
            start = time.perf_counter()
            connection.request("POST", "/v1/run", body=body, headers=headers)
            response = connection.getresponse()
            reply = json.loads(response.read())
            elapsed.append(time.perf_counter() - start)
            assert response.status == 200, (response.status, reply)
    finally:
        connection.close()
    assert reply["outcome"]["cache_hit"], reply
    return statistics.median(elapsed[1:])


def main() -> int:
    """Run the smoke sequence; returns the process exit code."""
    env = dict(os.environ)
    daemon = subprocess.Popen(
        [sys.executable, "-m", "repro.api.cli", "serve", "--port", "0"],
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        banner = daemon.stdout.readline().strip()
        assert "listening on http://" in banner, banner
        url = banner.rsplit(" ", 1)[-1]
        print(f"daemon up at {url}")

        status, body = _get(url, "/v1/health")
        assert status == 200 and body["status"] == "ok", (status, body)
        print("health OK")

        status, body = _post(
            url, "/v1/run", {"experiment": "fig7", "models": ["alexnet"]}
        )
        assert status == 200, (status, body)
        assert body["result"]["experiment"] == "fig7", body
        assert len(body["result"]["rows"]) == 1, body
        cold_latency = body["outcome"]["latency_s"]
        print(f"run OK ({cold_latency * 1e3:.1f} ms cold)")

        status, body = _post(
            url, "/v1/run", {"experiment": "fig7", "models": ["alexnet"]}
        )
        assert status == 200 and body["outcome"]["cache_hit"], (status, body)
        print(f"hot-cache repeat OK ({body['outcome']['latency_s'] * 1e3:.2f} ms)")

        median = _keepalive_median(
            url, {"experiment": "fig7", "models": ["alexnet"]}
        )
        print(
            f"keep-alive: {KEEPALIVE_HITS} hot hits on one connection, "
            f"median {median * 1e3:.2f} ms "
            f"(bound {KEEPALIVE_MEDIAN_S * 1e3:.0f} ms)"
        )
        assert median < KEEPALIVE_MEDIAN_S, "keep-alive median over bound"

        status, body = _post(url, "/v1/run", {"experiment": "nope"})
        assert status == 400, (status, body)
        print("validation error mapping OK (400)")

        status, body = _post(
            url,
            "/v1/sweep",
            {"experiments": ["fig7"], "models": ["alexnet", "mobilenetv2"]},
        )
        assert status == 200 and len(body["sweep"]["results"]) == 2, (
            status,
            body,
        )
        print("sweep OK")

        status, body = _get(url, "/v1/metrics")
        assert status == 200, (status, body)
        counters = body["counters"]
        assert counters["requests_total"] >= 3, counters
        assert counters["cache_hits"] >= 1, counters
        assert body["derived"]["errors_total"] == 1, body["derived"]
        print(f"metrics OK: {body['derived']}")

        daemon.send_signal(signal.SIGTERM)
        output, _ = daemon.communicate(timeout=60)
        assert "drained and stopped" in output, output
        assert daemon.returncode == 0, daemon.returncode
        print("SIGTERM drain OK (exit 0)")
        return 0
    finally:
        if daemon.poll() is None:
            daemon.kill()
            daemon.communicate(timeout=30)


if __name__ == "__main__":
    sys.exit(main())
