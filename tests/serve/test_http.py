"""Tests for the stdlib HTTP façade: endpoints, payloads, error mapping.

One daemon (port 0, background serve thread) backs the endpoint tests; the
payload-validation unit tests need no server at all.  The contract pinned
here: ``/v1/run`` responses embed results byte-identical to direct
``Experiment.run`` dispatch, typed serve errors map to their HTTP statuses
(400/503/504), and shutdown drains cleanly.
"""

import http.client
import json
import re
import socket
import statistics
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.api.experiment import Experiment
from repro.serve import RequestValidationError, RunRequest, ServeConfig
from repro.serve.http import _request_from_payload, make_server


@pytest.fixture(scope="module")
def server():
    """One live daemon shared by the endpoint tests (port 0 = ephemeral)."""
    server = make_server(host="127.0.0.1", port=0, config=ServeConfig())
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        yield server
    finally:
        server.shutdown()
        server.server_close()
        thread.join(timeout=10)


def get(server, path):
    with urllib.request.urlopen(server.url + path, timeout=30) as response:
        return response.status, json.loads(response.read())


def post(server, path, payload):
    request = urllib.request.Request(
        server.url + path,
        data=json.dumps(payload).encode("utf-8"),
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=120) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


class TestEndpoints:
    def test_health(self, server):
        status, body = get(server, "/v1/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["uptime_s"] >= 0

    def test_run_matches_direct_dispatch(self, server):
        status, body = post(
            server,
            "/v1/run",
            {"experiment": "fig7", "models": ["alexnet"]},
        )
        assert status == 200
        assert body["outcome"]["batch_size"] >= 1
        expected = Experiment().run("fig7", models=("alexnet",))
        assert json.dumps(body["result"], sort_keys=True) == json.dumps(
            expected.to_dict(), sort_keys=True
        )

    def test_repeat_run_hits_hot_cache(self, server):
        payload = {"experiment": "fig7", "models": ["resnet18"]}
        first = post(server, "/v1/run", payload)
        second = post(server, "/v1/run", payload)
        assert first[0] == second[0] == 200
        assert second[1]["outcome"]["cache_hit"] is True
        assert second[1]["result"] == first[1]["result"]

    def test_run_validation_maps_to_400(self, server):
        status, body = post(server, "/v1/run", {"experiment": "nope"})
        assert status == 400
        assert body["error"]["type"] == "RequestValidationError"
        assert "unknown experiment" in body["error"]["message"]

    def test_malformed_json_maps_to_400(self, server):
        request = urllib.request.Request(
            server.url + "/v1/run",
            data=b"{not json",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=30)
        assert excinfo.value.code == 400

    def test_sweep_endpoint(self, server):
        status, body = post(
            server,
            "/v1/sweep",
            {"experiments": ["fig7"], "models": ["alexnet", "resnet18"]},
        )
        assert status == 200
        assert len(body["sweep"]["results"]) == 2
        experiments = {
            result["experiment"] for result in body["sweep"]["results"]
        }
        assert experiments == {"fig7"}

    def test_sweep_unknown_parameter_maps_to_400(self, server):
        status, body = post(server, "/v1/sweep", {"wat": 1})
        assert status == 400
        assert "unknown sweep parameters" in body["error"]["message"]

    @pytest.mark.parametrize(
        "removed", [{"executor": "serial"}, {"cache_backend": "files"}]
    )
    def test_sweep_rejects_removed_knobs(self, server, removed):
        status, body = post(
            server, "/v1/sweep", {"experiments": ["table4"], **removed}
        )
        assert status == 400
        assert "unknown sweep parameters" in body["error"]["message"]

    @pytest.mark.parametrize(
        "body, message",
        [
            ({"transport": "osmosis"}, "unknown transport 'osmosis'"),
            ({"engine": "warp"}, "unknown engine 'warp'"),
            ({"engine": "trace"}, "not a cycle-model engine"),
            ({"experiments": ["nope"]}, "unknown experiment 'nope'"),
            ({"configs": ["nope"]}, "unknown config preset 'nope'"),
            ({"models": ["nope"]}, "unknown workload 'nope'"),
            ({"models": []}, "empty model list"),
            ({"transport": ["x"]}, "'transport' must be a string"),
            ({"engine": None}, "'engine' must be a string"),
            ({"experiments": "table4"}, "'experiments' must be a list"),
            ({"configs": [1]}, "'configs' must be a list of strings"),
            ({"seeds": ["a"]}, "'seeds' must be a list of integers"),
            (
                {"params_by_experiment": {"table4": {"wat": 1}}},
                "experiment 'table4' got unexpected parameters ['wat']",
            ),
        ],
    )
    def test_sweep_client_mistakes_map_to_400(self, server, body, message):
        before = server.service.metrics.snapshot()["counters"]
        status, reply = post(
            server, "/v1/sweep", {"experiments": ["table4"], **body}
        )
        after = server.service.metrics.snapshot()["counters"]
        assert status == 400
        assert reply["error"]["type"] == "RequestValidationError"
        assert message in reply["error"]["message"]
        assert not reply["error"]["message"].startswith(("'", '"'))
        for counter in ("sweeps_total", "sweep_failures_total"):
            assert after.get(counter, 0) == before.get(counter, 0)

    def test_sweep_accepts_named_transport(self, server):
        status, body = post(
            server,
            "/v1/sweep",
            {"experiments": ["table4"], "transport": "serial",
             "engine": "scalar", "configs": ["paper-28nm"]},
        )
        assert status == 200
        assert len(body["sweep"]["results"]) == 1

    def test_metrics_endpoint(self, server):
        status, body = get(server, "/v1/metrics")
        assert status == 200
        for section in ("counters", "gauges", "latency", "derived", "service"):
            assert section in body
        assert body["counters"]["requests_total"] >= 1
        assert body["service"]["started"] is True

    def test_unknown_path_is_404(self, server):
        for method in ("GET", "POST"):
            request = urllib.request.Request(
                server.url + "/v1/nope",
                data=b"{}" if method == "POST" else None,
                method=method,
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=30)
            assert excinfo.value.code == 404


class TestKeepAlive:
    def test_hot_hits_on_one_connection_do_not_stall(self, server):
        """Hot-cache hits over one keep-alive connection take well under
        the >=40 ms Nagle + delayed-ACK stall of a split response write."""
        host, port = server.server_address[:2]
        connection = http.client.HTTPConnection(host, port, timeout=30)
        body = json.dumps({"experiment": "fig7", "models": ["vgg19"]})
        headers = {"Content-Type": "application/json"}

        def round_trip():
            start = time.perf_counter()
            connection.request("POST", "/v1/run", body=body, headers=headers)
            response = connection.getresponse()
            payload = json.loads(response.read())
            assert response.status == 200, payload
            return time.perf_counter() - start, payload["outcome"]

        try:
            round_trip()  # warms the key
            hits = [round_trip() for _ in range(20)]
        finally:
            connection.close()
        assert all(outcome["cache_hit"] for _, outcome in hits)
        assert statistics.median(elapsed for elapsed, _ in hits) < 0.020

    def test_response_bytes(self, server):
        """Status line, headers and body leave exactly as the stdlib
        handler would frame them, and the connection stays open."""
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=30) as sock:
            for _ in range(2):
                sock.sendall(b"GET /v1/nope HTTP/1.1\r\nHost: x\r\n\r\n")
                raw = b""
                while b"\r\n\r\n" not in raw or not raw.endswith(b"}}"):
                    raw += sock.recv(65536)
                head, body = raw.split(b"\r\n\r\n", 1)
                assert json.loads(body) == {
                    "error": {"type": "NotFound", "message": "/v1/nope"}
                }
                assert re.fullmatch(
                    rb"HTTP/1\.1 404 Not Found\r\n"
                    rb"Server: BaseHTTP/[\d.]+ Python/[\d.]+\r\n"
                    rb"Date: [^\r]+ GMT\r\n"
                    rb"Content-Type: application/json\r\n"
                    rb"Content-Length: %d" % len(body),
                    head,
                ), head


class TestBodyFraming:
    @pytest.mark.parametrize(
        "length, match",
        [
            (b"abc", "Content-Length"),
            (b"-5", "Content-Length"),
            (b"1e3", "Content-Length"),
            (b"2000000", "exceeds"),
        ],
    )
    def test_rejected_body_is_400_and_closes(self, server, length, match):
        """A Content-Length that is not a non-negative integer, or is over
        the cap, is a client error; the body stays unread, so the
        connection closes instead of being kept alive."""
        host, port = server.server_address[:2]
        with socket.create_connection((host, port), timeout=5) as sock:
            sock.sendall(
                b"POST /v1/run HTTP/1.1\r\nHost: x\r\n"
                b"Content-Length: " + length + b"\r\n\r\n"
            )
            raw = b""
            while True:  # until EOF: the server must close the connection
                chunk = sock.recv(65536)
                if not chunk:
                    break
                raw += chunk
        head, body = raw.split(b"\r\n\r\n", 1)
        assert head.startswith(b"HTTP/1.1 400 "), head
        error = json.loads(body)["error"]
        assert error["type"] == "RequestValidationError"
        assert match in error["message"]


class TestPayloadParsing:
    def test_minimal_payload(self):
        request = _request_from_payload({"experiment": "fig7"})
        assert request == RunRequest("fig7")

    def test_full_payload(self):
        request = _request_from_payload(
            {
                "experiment": "fig7",
                "models": ["alexnet"],
                "config": "paper-28nm",
                "seed": 3,
                "engine": "scalar",
                "params": {},
                "timeout_s": 2.5,
            }
        )
        assert request.models == ("alexnet",)
        assert request.seed == 3
        assert request.engine == "scalar"
        assert request.timeout_s == 2.5

    @pytest.mark.parametrize(
        "payload, match",
        [
            ([], "JSON object"),
            ({"experiment": 7}, "'experiment' must be a string"),
            ({"experiment": "fig7", "models": "alexnet"}, "'models'"),
            ({"experiment": "fig7", "params": []}, "'params'"),
            ({"experiment": "fig7", "seed": "zero"}, "'seed'"),
            ({"experiment": "fig7", "seed": True}, "'seed'"),
            ({"experiment": "fig7", "timeout_s": "fast"}, "'timeout_s'"),
            ({"experiment": "fig7", "wat": 1}, "unknown request fields"),
        ],
    )
    def test_rejects_malformed_fields(self, payload, match):
        with pytest.raises(RequestValidationError, match=match):
            _request_from_payload(payload)
