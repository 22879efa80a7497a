"""Live exposition endpoints: ``GET /v1/metrics`` (Prometheus text)
and ``GET /v1/trace/<id>`` (finished request trees), raw HTTP/1.1."""

import asyncio
import json

from repro import obs
from repro.serve import ServeConfig, VerifyService
from repro.serve.http import METRICS_CONTENT_TYPE, serve_http


async def _with_server(scenario, config=None):
    service = VerifyService(config or ServeConfig())
    await service.start()
    server = await serve_http(service, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]
    try:
        return await scenario(port, service)
    finally:
        server.close()
        await server.wait_closed()
        await service.close()


async def _roundtrip(port, raw):
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    writer.write(raw)
    await writer.drain()
    data = await reader.read(1 << 20)
    writer.close()
    await writer.wait_closed()
    head, _, body = data.partition(b"\r\n\r\n")
    head_lines = head.decode("latin-1").split("\r\n")
    status = int(head_lines[0].split(" ")[1])
    headers = {}
    for line in head_lines[1:]:
        name, _, value = line.partition(": ")
        headers[name.lower()] = value
    return status, headers, body.decode("utf-8")


def _get(path):
    return (b"GET " + path.encode() +
            b" HTTP/1.1\r\nHost: t\r\nConnection: close\r\n\r\n")


def _post(path, body):
    return (b"POST " + path.encode() + b" HTTP/1.1\r\nHost: t\r\n"
            b"Content-Length: " + str(len(body)).encode() +
            b"\r\nConnection: close\r\n\r\n" + body)


def _verify_body(request_id="req-1"):
    job = {"protocol": "sym-dmam", "graph": "cycle", "n": 8,
           "trials": 4, "seed": 5}
    return json.dumps({"v": 1, "id": request_id, "job": job}).encode()


class TestMetricsEndpoint:
    def test_exposition_without_observability(self):
        """Well-formed and non-empty even with obs off: the service
        gauges are always there."""
        async def scenario(port, service):
            return await _roundtrip(port, _get("/v1/metrics"))

        status, headers, body = asyncio.run(_with_server(scenario))
        assert status == 200
        assert headers["content-type"] == METRICS_CONTENT_TYPE
        assert body.startswith("# HELP ")
        assert "repro_serve_up 1" in body
        assert "repro_serve_accepting 1" in body
        for line in body.strip().splitlines():
            assert line.startswith("#") or " " in line

    def test_exposition_includes_session_metrics_after_traffic(self):
        async def scenario(port, service):
            await _roundtrip(port, _post("/v1/verify", _verify_body()))
            return await _roundtrip(port, _get("/v1/metrics"))

        with obs.session():
            status, _, body = asyncio.run(_with_server(scenario))
        assert status == 200
        assert "repro_serve_requests 1" in body
        assert "repro_runner_proof_bits" in body
        assert "repro_serve_latency_ms_count 1" in body

    def test_scrape_counts_every_finished_request(self):
        """The registry is snapshotted when scraped, so a scrape right
        after two requests counts both."""
        async def scenario(port, service):
            for request_id in ("req-1", "req-2"):
                await _roundtrip(port, _post("/v1/verify",
                                             _verify_body(request_id)))
            return await _roundtrip(port, _get("/v1/metrics"))

        with obs.session():
            status, _, body = asyncio.run(_with_server(scenario))
        assert status == 200
        assert "repro_serve_requests 2" in body
        assert "repro_serve_latency_ms_count 2" in body

    def test_post_metrics_is_405(self):
        async def scenario(port, service):
            return await _roundtrip(port, _post("/v1/metrics", b"{}"))

        status, _, _ = asyncio.run(_with_server(scenario))
        assert status == 405


class TestTraceEndpoint:
    def test_unknown_trace_is_404(self):
        async def scenario(port, service):
            return await _roundtrip(port, _get("/v1/trace/nope"))

        status, _, _ = asyncio.run(_with_server(scenario))
        assert status == 404

    def test_finished_request_retrievable_by_request_id(self):
        async def scenario(port, service):
            await _roundtrip(port, _post("/v1/verify", _verify_body()))
            return await _roundtrip(port, _get("/v1/trace/req-1"))

        with obs.session():
            status, _, body = asyncio.run(_with_server(scenario))
        assert status == 200
        payload = json.loads(body)
        assert payload["ok"]
        assert payload["span"]["name"] == "serve.request"
        assert payload["aliases"] == ["req-1"]
        assert payload["span"]["meta"]["trace"] == payload["trace"]

    def test_trace_and_request_id_resolve_to_the_same_entry(self):
        async def scenario(port, service):
            await _roundtrip(port, _post("/v1/verify", _verify_body()))
            _, _, body = await _roundtrip(port, _get("/v1/trace/req-1"))
            trace_id = json.loads(body)["trace"]
            return await _roundtrip(port,
                                    _get(f"/v1/trace/{trace_id}"))

        with obs.session():
            status, _, body = asyncio.run(_with_server(scenario))
        assert status == 200
        assert json.loads(body)["aliases"] == ["req-1"]

    def test_without_observability_nothing_is_retained(self):
        async def scenario(port, service):
            await _roundtrip(port, _post("/v1/verify", _verify_body()))
            return await _roundtrip(port, _get("/v1/trace/req-1"))

        status, _, _ = asyncio.run(_with_server(scenario))
        assert status == 404
