"""Stdlib-only HTTP façade over the experiment service.

The transport is deliberately pluggable and thin: all queueing, coalescing,
caching and metrics live in :class:`~repro.serve.service.ExperimentService`;
this module only parses JSON bodies, submits from its handler threads
straight to the service (each blocks for its own outcome) and maps typed
serve errors to HTTP statuses.  Only the Python standard library
(:mod:`http.server`) is used -- the daemon has zero dependencies beyond the
package itself.

Endpoints:

* ``POST /v1/run`` -- one experiment request; body is a JSON object with
  ``experiment`` (required) plus optional ``models``, ``config``, ``seed``,
  ``engine``, ``params``, ``timeout_s``.  Responds 200 with
  ``{"outcome": {...}, "result": <ExperimentResult.to_dict()>}``.
* ``POST /v1/sweep`` -- a sweep grid; body keys mirror
  :func:`repro.api.sweep.run_sweep` keywords.  Responds 200 with
  ``{"sweep": <SweepResult.to_dict()>}``.
* ``GET /v1/metrics`` -- live metrics snapshot (counters, gauges, latency
  percentiles, derived ratios, service state).
* ``GET /v1/health`` -- liveness probe: ``{"status": "ok", ...}``.

Error mapping: 400 malformed request (including a ``Content-Length`` that
is not a non-negative integer), 503 queue full / shutting down,
504 deadline exceeded, 500 experiment failure -- each body is
``{"error": {"type": ..., "message": ...}}``.
"""

from __future__ import annotations

import json
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional, Tuple

from .service import (
    ExperimentService,
    RequestValidationError,
    RunRequest,
    ServeConfig,
    ServeError,
)

__all__ = ["ServeHTTPServer", "make_server"]

#: Request body size cap (the grids this service runs are tiny; anything
#: bigger than this is a client bug, not a workload).
_MAX_BODY_BYTES = 1 << 20


def _request_from_payload(payload: Any) -> RunRequest:
    """Build a :class:`RunRequest` from a decoded ``POST /v1/run`` body.

    Raises:
        RequestValidationError: non-object body or wrong field types
            (full semantic validation happens in ``RunRequest.validated``).
    """
    if not isinstance(payload, dict):
        raise RequestValidationError("request body must be a JSON object")
    unknown = set(payload) - {
        "experiment", "models", "config", "seed", "engine", "params",
        "timeout_s",
    }
    if unknown:
        raise RequestValidationError(
            f"unknown request fields {sorted(unknown)}"
        )
    experiment = payload.get("experiment")
    if not isinstance(experiment, str):
        raise RequestValidationError("'experiment' must be a string")
    models = payload.get("models")
    if models is not None:
        if isinstance(models, str) or not isinstance(models, (list, tuple)):
            raise RequestValidationError(
                "'models' must be a list of workload names"
            )
        models = tuple(str(name) for name in models)
    params = payload.get("params")
    if params is None:
        params = {}
    elif not isinstance(params, dict):
        raise RequestValidationError("'params' must be a JSON object")
    seed = payload.get("seed", 0)
    if not isinstance(seed, int) or isinstance(seed, bool):
        raise RequestValidationError("'seed' must be an integer")
    timeout_s = payload.get("timeout_s")
    if timeout_s is not None and not isinstance(timeout_s, (int, float)):
        raise RequestValidationError("'timeout_s' must be a number")
    return RunRequest(
        experiment=experiment,
        models=models,
        config=str(payload.get("config", "paper-28nm")),
        seed=seed,
        engine=str(payload.get("engine", RunRequest.engine)),
        params=params,
        timeout_s=float(timeout_s) if timeout_s is not None else None,
    )


class _Handler(BaseHTTPRequestHandler):
    """One HTTP request; the server instance carries the service."""

    server: "ServeHTTPServer"
    protocol_version = "HTTP/1.1"
    # TCP_NODELAY: a response is one write, so Nagle has nothing to merge
    # and could only hold it back.
    disable_nagle_algorithm = True

    # -- plumbing -------------------------------------------------------
    def log_message(self, format: str, *args: Any) -> None:
        """Silence the default stderr access log (metrics cover it)."""

    def _send_json(self, status: int, payload: Dict[str, Any]) -> None:
        """Serialise ``payload`` and send it with ``status`` in one write.

        ``end_headers()`` would write the head on its own; on a keep-alive
        connection the body write then waits out Nagle + delayed ACK
        (~40 ms).  So the blank line ``end_headers()`` adds and the body go
        behind the buffered head instead, and everything leaves together.
        """
        body = json.dumps(payload, sort_keys=True).encode("utf-8")
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(body)))
        head = getattr(self, "_headers_buffer", [])  # none for HTTP/0.9
        if self.request_version != "HTTP/0.9":
            head.append(b"\r\n")
        self._headers_buffer = []
        self.wfile.write(b"".join(head) + body)

    def _send_error(self, error: Exception) -> None:
        """Map a (typed) error to its HTTP status and JSON body."""
        status = error.http_status if isinstance(error, ServeError) else 500
        self._send_json(
            status,
            {
                "error": {
                    "type": type(error).__name__,
                    "message": str(error),
                }
            },
        )
        self.server.service.metrics.increment("http_errors_total")

    def _read_body(self) -> Any:
        """Decode the JSON request body (empty body -> ``{}``).

        A rejected body is left unread, so its connection is closed after
        the error response instead of being kept alive.
        """
        header = (self.headers.get("Content-Length") or "0").strip()
        if not (header.isascii() and header.isdigit()):
            self.close_connection = True
            raise RequestValidationError(
                f"Content-Length must be a non-negative integer, got {header!r}"
            )
        length = int(header)
        if length > _MAX_BODY_BYTES:
            self.close_connection = True
            raise RequestValidationError(
                f"request body exceeds {_MAX_BODY_BYTES} bytes"
            )
        raw = self.rfile.read(length) if length else b""
        if not raw:
            return {}
        try:
            return json.loads(raw)
        except ValueError as error:
            raise RequestValidationError(
                f"request body is not valid JSON: {error}"
            ) from error

    # -- routes ---------------------------------------------------------
    def do_GET(self) -> None:  # noqa: N802 (stdlib handler contract)
        """Route ``GET``: ``/v1/metrics`` and ``/v1/health``."""
        try:
            if self.path == "/v1/metrics":
                self._send_json(200, self.server.service.snapshot())
            elif self.path == "/v1/health":
                snapshot = self.server.service.snapshot()["service"]
                self._send_json(
                    200,
                    {
                        "status": "ok" if snapshot["started"] else "closed",
                        "uptime_s": snapshot["uptime_s"],
                        "queue_depth": snapshot["queue_depth"],
                    },
                )
            else:
                self._send_json(
                    404, {"error": {"type": "NotFound", "message": self.path}}
                )
        except Exception as error:  # pragma: no cover - transport guard
            self._send_error(error)

    def do_POST(self) -> None:  # noqa: N802 (stdlib handler contract)
        """Route ``POST``: ``/v1/run`` and ``/v1/sweep``."""
        try:
            if self.path == "/v1/run":
                request = _request_from_payload(self._read_body())
                outcome = self.server.service.submit(request)
                self._send_json(
                    200,
                    {
                        "outcome": {
                            "cache_hit": outcome.cache_hit,
                            "batch_size": outcome.batch_size,
                            "latency_s": outcome.latency_s,
                        },
                        "result": outcome.result.to_dict(),
                    },
                )
            elif self.path == "/v1/sweep":
                payload = self._read_body()
                if not isinstance(payload, dict):
                    raise RequestValidationError(
                        "request body must be a JSON object"
                    )
                sweep = self.server.service.submit_sweep(**payload)
                self._send_json(200, {"sweep": sweep.to_dict()})
            else:
                self._send_json(
                    404, {"error": {"type": "NotFound", "message": self.path}}
                )
        except Exception as error:
            self._send_error(error)


class ServeHTTPServer(ThreadingHTTPServer):
    """The daemon: a threading HTTP server bound to one service.

    Each handler thread blocks in :meth:`ExperimentService.submit` while
    the service's dispatch thread coalesces the queued requests -- which
    is exactly the concurrency shape the batcher exploits.

    Args:
        address: ``(host, port)`` to bind (port 0 picks a free port).
        service: a **started** :class:`ExperimentService`.
    """

    daemon_threads = True

    def __init__(
        self, address: Tuple[str, int], service: ExperimentService
    ) -> None:
        super().__init__(address, _Handler)
        self.service = service

    @property
    def url(self) -> str:
        """Base URL of the bound socket (usable even with port 0)."""
        host, port = self.server_address[:2]
        return f"http://{host}:{port}"

    def shutdown(self) -> None:
        """Stop serving, then drain and close the service."""
        super().shutdown()
        self.service.close(drain=True)


def make_server(
    host: str = "127.0.0.1",
    port: int = 8642,
    config: Optional[ServeConfig] = None,
) -> ServeHTTPServer:
    """Build and start a serve daemon (service + HTTP server).

    The returned server is bound but not serving; call
    ``serve_forever()`` (typically on a thread) and ``shutdown()`` to stop
    -- shutdown drains the request queue before returning, so accepted
    requests always complete.

    Args:
        host: interface to bind.
        port: TCP port (0 picks a free one; see :attr:`ServeHTTPServer.url`).
        config: service tunables (:class:`ServeConfig` defaults when
            omitted).
    """
    service = ExperimentService(config).start()
    try:
        return ServeHTTPServer((host, port), service)
    except Exception:
        service.close(drain=False)
        raise
