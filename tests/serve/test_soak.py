"""Soak tier: sustained concurrent load against the service.

Deselected from tier-1 (``addopts`` carries ``-m 'not soak'``); run it
explicitly with ``pytest -m soak tests/serve``.  The test hammers one
service instance with concurrent clients for ~30 seconds and asserts
the four leak classes a long-running service can develop:

* **tasks** — every asyncio task the service spawned is gone after
  ``close()``;
* **threads** — no ``repro-serve-*`` job thread is alive after
  ``close()``;
* **file descriptors** — the process fd count returns to (near) its
  pre-soak level;
* **memory** — RSS growth over the soak stays bounded (the instance
  cache is bounded, so steady-state traffic must not grow the heap).

It also spot-checks the determinism contract under stress: a sample
of responses is replayed serially through ``run_trials`` and must
match byte-for-byte.
"""

import asyncio
import gc
import json
import os
import random
import threading
import time

import pytest

from repro.core.runner import run_trials
from repro.lab.spec import PROVERS
from repro.serve import (ServeConfig, VerifyService, parse_request,
                         resolve_instance, result_payload)

SOAK_SECONDS = float(os.environ.get("REPRO_SOAK_SECONDS", "30"))
CLIENTS = 24
#: RSS growth budget over the whole soak.  Generous — the point is
#: catching unbounded growth, not byte-level accounting.
RSS_BUDGET_KB = 64 * 1024
FD_SLACK = 4

_COMBOS = (
    ("sym-dmam", "cycle", 8),
    ("sym-dam", "cycle", 10),
    ("sym-lcp", "cycle", 8),
    ("sym-dmam", "cycle", 12),
)


def _rss_kb():
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmRSS:"):
                return int(line.split()[1])
    raise RuntimeError("no VmRSS in /proc/self/status")


def _fd_count():
    return len(os.listdir("/proc/self/fd"))


def _serve_threads():
    return [thread.name for thread in threading.enumerate()
            if thread.name.startswith("repro-serve")]


def _payload(index, rng):
    protocol, graph, n = _COMBOS[rng.randrange(len(_COMBOS))]
    if index % 17 == 16:  # a trickle of malformed traffic
        return '{"v": 1, "id": "broken", "job"'
    return json.dumps({
        "v": 1, "id": f"soak-{index}",
        "job": {"protocol": protocol, "graph": graph, "n": n,
                "trials": rng.randrange(1, 12),
                "seed": rng.randrange(1 << 20)}})


async def _soak():
    service = VerifyService(ServeConfig(queue_limit=128,
                                        pool_threads=2))
    await service.start()
    deadline = time.monotonic() + SOAK_SECONDS
    sent = {}
    sampled = []
    counter = 0
    lock = asyncio.Lock()

    async def _client(client_id):
        nonlocal counter
        rng = random.Random(0xD0 + client_id)
        while time.monotonic() < deadline:
            async with lock:
                index = counter
                counter += 1
            payload = _payload(index, rng)
            response = await service.handle(payload)
            if response.get("ok") and len(sampled) < 64 \
                    and index % 37 == 0:
                sent[response["id"]] = payload
                sampled.append(response)

    await asyncio.gather(*(_client(c) for c in range(CLIENTS)))
    drained = await service.drain()
    await service.close()
    leftover = [t for t in asyncio.all_tasks()
                if t is not asyncio.current_task() and not t.done()]
    return service, sampled, sent, drained, leftover


@pytest.mark.soak
def test_sustained_load_leaks_nothing():
    gc.collect()
    fd_before = _fd_count()
    rss_before = _rss_kb()

    service, sampled, sent, drained, leftover = asyncio.run(_soak())

    assert drained, "service did not drain after the soak"
    assert leftover == [], f"leaked asyncio tasks: {leftover}"
    assert _serve_threads() == [], "leaked job threads"
    assert service.queue.qsize() == 0
    assert service.stats()["inflight"] == 0

    counts = service.stats()["counts"]
    assert counts["requests"] > CLIENTS, "soak barely ran"
    assert counts["ok"] > 0
    # The malformed trickle must be rejected, never crash the run.
    assert counts["rejected"] >= counts["requests"] // 20

    # Serial-equivalence spot check on the sampled responses.
    assert sampled, "no responses sampled during the soak"
    for response in sampled:
        request = parse_request(sent[response["id"]])
        resolved = resolve_instance(request.job)
        prover = PROVERS[request.job.prover](resolved.protocol)
        estimate = run_trials(resolved.protocol, resolved.instance,
                              prover, request.job.trials,
                              request.job.seed,
                              context=resolved.context)
        direct = json.dumps(result_payload(request.job, estimate),
                            sort_keys=True)
        served = json.dumps(response["result"], sort_keys=True)
        assert direct == served

    gc.collect()
    fd_after = _fd_count()
    rss_after = _rss_kb()
    assert fd_after <= fd_before + FD_SLACK, (
        f"fd leak: {fd_before} -> {fd_after}")
    assert rss_after - rss_before <= RSS_BUDGET_KB, (
        f"RSS grew {rss_after - rss_before} kB over the soak "
        f"(budget {RSS_BUDGET_KB} kB)")


@pytest.mark.soak
def test_http_soak_connections_close():
    """A shorter HTTP-level soak: many short-lived connections must
    not accumulate sockets."""
    from repro.serve.http import serve_http

    async def scenario():
        service = VerifyService(ServeConfig())
        await service.start()
        server = await serve_http(service, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        body = json.dumps({
            "v": 1, "id": "h", "job": {
                "protocol": "sym-dmam", "graph": "cycle", "n": 8,
                "trials": 2, "seed": 1}}).encode()
        raw = (b"POST /v1/verify HTTP/1.1\r\nHost: t\r\n"
               b"Content-Length: " + str(len(body)).encode() +
               b"\r\nConnection: close\r\n\r\n" + body)
        deadline = time.monotonic() + min(SOAK_SECONDS / 3, 10.0)
        served = 0
        while time.monotonic() < deadline:
            reader, writer = await asyncio.open_connection(
                "127.0.0.1", port)
            writer.write(raw)
            await writer.drain()
            data = await reader.read(1 << 16)
            assert b"200 OK" in data.split(b"\r\n", 1)[0]
            writer.close()
            await writer.wait_closed()
            served += 1
        server.close()
        await server.wait_closed()
        await service.close()
        return served

    fd_before = _fd_count()
    served = asyncio.run(scenario())
    gc.collect()
    assert served > 10
    assert _fd_count() <= fd_before + FD_SLACK
    assert _serve_threads() == [], "leaked job threads"
