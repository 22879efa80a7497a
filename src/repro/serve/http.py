"""Minimal HTTP/1.1 transport for the verification service.

The container philosophy of this repo is zero runtime dependencies,
so the HTTP layer is a small hand-rolled server on asyncio streams:
request-line + headers, a ``Content-Length`` body (bounded), and
keep-alive.  It deliberately implements only what the wire schema
needs — chunked encoding, pipelining beyond keep-alive, TLS and
compression are out of scope (front a real proxy for those; see
docs/SERVE.md's runbook).

Routes
------
``POST /v1/verify``      one wire request in, one wire response out.
``GET  /v1/health``      service stats (queue depth, cache, counters).
``GET  /v1/schema``      the schema version and registry keys clients
                         may use — service discovery for load
                         generators.
``GET  /v1/metrics``     Prometheus text exposition: the ambient
                         registry as of the scrape plus
                         service-level gauges (scrape target).
``GET  /v1/trace/<id>``  a finished request's span tree (JSON), by
                         trace id or request id, from the bounded
                         trace ring.

The HTTP status of an error response comes straight from the error
taxonomy (:data:`repro.serve.schema.ERROR_STATUS`): ``malformed`` is
400, ``unsupported`` 422, ``overloaded`` 429, ``timeout`` 504,
``internal`` 500.  Transport-level garbage (an unparsable request
line, an oversized body) maps onto the same taxonomy so clients see
exactly one error vocabulary.
"""

from __future__ import annotations

import asyncio
import json
from typing import Any, Dict, Optional, Tuple

from .schema import (ERR_MALFORMED, ERR_UNSUPPORTED, WIRE_VERSION,
                     encode_response, error_response)
from .service import VerifyService

#: Transport bounds — requests beyond them are malformed, not buffered.
MAX_BODY_BYTES = 1 << 20
MAX_HEADER_BYTES = 16 << 10

_STATUS_TEXT = {
    200: "OK", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 408: "Request Timeout",
    413: "Payload Too Large", 422: "Unprocessable Entity",
    429: "Too Many Requests", 500: "Internal Server Error",
    504: "Gateway Timeout",
}


class _HttpError(Exception):
    """Transport-level rejection, rendered as a taxonomy response."""

    def __init__(self, status: int, code: str, message: str) -> None:
        super().__init__(message)
        self.status = status
        self.code = code
        self.message = message


#: Exposition content type (the Prometheus text format version).
METRICS_CONTENT_TYPE = "text/plain; version=0.0.4; charset=utf-8"
JSON_CONTENT_TYPE = "application/json"


def _render(status: int, body: str, keep_alive: bool,
            content_type: str = JSON_CONTENT_TYPE) -> bytes:
    head = (f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Error')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(body.encode('utf-8'))}\r\n"
            f"Connection: {'keep-alive' if keep_alive else 'close'}\r\n"
            f"\r\n")
    return head.encode("ascii") + body.encode("utf-8")


def response_status(response: Dict[str, Any]) -> int:
    """The HTTP status a wire response carries (200 for successes)."""
    if response.get("ok"):
        return 200
    return int(response["error"].get("status", 500))


async def _read_request(reader: asyncio.StreamReader
                        ) -> Optional[Tuple[str, str, Dict[str, str],
                                            bytes]]:
    """One parsed request: ``(method, path, headers, body)``, or None
    on a cleanly closed connection."""
    try:
        line = await reader.readuntil(b"\r\n")
    except asyncio.IncompleteReadError as exc:
        if not exc.partial:
            return None
        raise _HttpError(400, ERR_MALFORMED,
                         "truncated request line") from None
    except asyncio.LimitOverrunError:
        raise _HttpError(400, ERR_MALFORMED,
                         "request line too long") from None
    parts = line.decode("latin-1").rstrip("\r\n").split(" ")
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _HttpError(400, ERR_MALFORMED, "malformed request line")
    method, path, _version = parts

    headers: Dict[str, str] = {}
    header_bytes = 0
    while True:
        try:
            raw = await reader.readuntil(b"\r\n")
        except (asyncio.IncompleteReadError,
                asyncio.LimitOverrunError):
            raise _HttpError(400, ERR_MALFORMED,
                             "truncated headers") from None
        if raw == b"\r\n":
            break
        header_bytes += len(raw)
        if header_bytes > MAX_HEADER_BYTES:
            raise _HttpError(413, ERR_MALFORMED, "headers too large")
        text = raw.decode("latin-1").rstrip("\r\n")
        name, sep, value = text.partition(":")
        if not sep:
            raise _HttpError(400, ERR_MALFORMED,
                             f"malformed header line {text!r}")
        headers[name.strip().lower()] = value.strip()

    if "transfer-encoding" in headers:
        raise _HttpError(400, ERR_MALFORMED,
                         "chunked bodies are not supported; send "
                         "Content-Length")
    body = b""
    length = headers.get("content-length")
    if length is not None:
        try:
            size = int(length)
        except ValueError:
            raise _HttpError(400, ERR_MALFORMED,
                             "invalid Content-Length") from None
        if size < 0:
            raise _HttpError(400, ERR_MALFORMED,
                             "invalid Content-Length")
        if size > MAX_BODY_BYTES:
            raise _HttpError(413, ERR_MALFORMED,
                             f"body exceeds {MAX_BODY_BYTES} bytes")
        try:
            body = await reader.readexactly(size)
        except asyncio.IncompleteReadError:
            raise _HttpError(400, ERR_MALFORMED,
                             "body shorter than Content-Length") \
                from None
    return method, path, headers, body


def _schema_payload() -> Dict[str, Any]:
    from ..core.runner import ENGINES
    from ..lab.spec import GRAPHS, PROTOCOLS, PROVERS
    from .schema import CERT_LEVELS, MAX_N, MAX_TRIALS
    return {
        "v": WIRE_VERSION,
        "protocols": sorted(PROTOCOLS),
        "graphs": sorted(GRAPHS),
        "provers": sorted(PROVERS),
        "engines": list(ENGINES),
        "cert_levels": list(CERT_LEVELS),
        "limits": {"max_trials": MAX_TRIALS, "max_n": MAX_N},
    }


async def _route(service: VerifyService, method: str, path: str,
                 body: bytes) -> Tuple[int, str, str]:
    """Dispatch one request; returns (status, body, content type)."""
    def as_json(status: int, payload: Dict[str, Any]
                ) -> Tuple[int, str, str]:
        return status, json.dumps(payload, sort_keys=True), \
            JSON_CONTENT_TYPE

    if path == "/v1/verify":
        if method != "POST":
            raise _HttpError(405, ERR_UNSUPPORTED,
                             "/v1/verify only accepts POST")
        response = await service.handle(body)
        return as_json(response_status(response), response)
    if path == "/v1/health":
        if method != "GET":
            raise _HttpError(405, ERR_UNSUPPORTED,
                             "/v1/health only accepts GET")
        return as_json(200, {"v": WIRE_VERSION, "ok": True,
                             "stats": service.stats()})
    if path == "/v1/schema":
        if method != "GET":
            raise _HttpError(405, ERR_UNSUPPORTED,
                             "/v1/schema only accepts GET")
        return as_json(200, _schema_payload())
    if path == "/v1/metrics":
        if method != "GET":
            raise _HttpError(405, ERR_UNSUPPORTED,
                             "/v1/metrics only accepts GET")
        return 200, service.metrics_text(), METRICS_CONTENT_TYPE
    if path.startswith("/v1/trace/"):
        if method != "GET":
            raise _HttpError(405, ERR_UNSUPPORTED,
                             "/v1/trace only accepts GET")
        key = path[len("/v1/trace/"):]
        entry = service.trace_tree(key)
        if entry is None:
            raise _HttpError(404, ERR_UNSUPPORTED,
                             f"no retained trace for {key!r}")
        return as_json(200, {"v": WIRE_VERSION, "ok": True, **entry})
    raise _HttpError(404, ERR_UNSUPPORTED, f"unknown path {path!r}")


async def handle_connection(service: VerifyService,
                            reader: asyncio.StreamReader,
                            writer: asyncio.StreamWriter) -> None:
    """One client connection: serve requests until close/EOF."""
    try:
        while True:
            try:
                parsed = await _read_request(reader)
            except _HttpError as exc:
                payload = error_response(None, exc.code, exc.message)
                writer.write(_render(exc.status,
                                     encode_response(payload), False))
                await writer.drain()
                return
            if parsed is None:
                return
            method, path, headers, body = parsed
            keep_alive = headers.get("connection", "keep-alive") \
                .lower() != "close"
            try:
                status, rendered, content_type = await _route(
                    service, method, path, body)
            except _HttpError as exc:
                status = exc.status
                rendered = json.dumps(
                    error_response(None, exc.code, exc.message),
                    sort_keys=True)
                content_type = JSON_CONTENT_TYPE
            writer.write(_render(status, rendered, keep_alive,
                                 content_type))
            await writer.drain()
            if not keep_alive:
                return
    except (ConnectionResetError, BrokenPipeError):
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionResetError, BrokenPipeError):
            pass


async def serve_http(service: VerifyService, host: str,
                     port: int) -> "asyncio.Server":
    """Bind the HTTP transport; returns the listening server (use
    ``server.sockets[0].getsockname()`` for the bound port when
    ``port=0``)."""
    async def _client(reader: asyncio.StreamReader,
                      writer: asyncio.StreamWriter) -> None:
        await handle_connection(service, reader, writer)

    return await asyncio.start_server(_client, host, port,
                                      limit=MAX_HEADER_BYTES)
