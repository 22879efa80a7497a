"""Service-level tests: admission, byte-identity, drain.

The load-bearing gate here is **byte-identity**: for identical jobs
the service's ``result`` object must equal ``result_payload`` over a
direct :func:`run_trials` call — across engines, cert levels,
concurrency and cache state.  The acceptance criterion demands this be
gated in tests, not just observed in the bench.
"""

import asyncio
import json
import sys
import threading
import time

import pytest

import repro.serve.service as service_module
from repro.core.kernels import numpy_available
from repro.core.runner import run_trials
from repro.lab.spec import PROVERS
from repro.serve import (ServeConfig, VerifyService, parse_request,
                         resolve_instance, result_payload)
from repro.serve.schema import encode_response


def _request(index=0, *, protocol="sym-dmam", graph="cycle", n=8,
             trials=12, seed=99, **extra):
    job = {"protocol": protocol, "graph": graph, "n": n,
           "trials": trials, "seed": seed, **extra}
    return json.dumps({"v": 1, "id": f"req-{index}", "job": job})


def _direct_result(payload):
    """The library-side half of the byte-identity comparison."""
    job = parse_request(payload).job
    resolved = resolve_instance(job)
    prover = PROVERS[job.prover](resolved.protocol)
    estimate = run_trials(resolved.protocol, resolved.instance, prover,
                          job.trials, job.seed,
                          context=resolved.context, engine=job.engine)
    return result_payload(job, estimate)


async def _serve(payloads, config=None):
    service = VerifyService(config or ServeConfig())
    await service.start()
    responses = await asyncio.gather(
        *(service.handle(p) for p in payloads))
    drained = await service.drain()
    await service.close()
    assert drained
    return responses, service


def _run(payloads, config=None):
    return asyncio.run(_serve(payloads, config))


class _HeldJobs:
    """Holds every job thread inside ``execute_job`` until released,
    so a test knows which job runs and which ones wait."""

    def __init__(self, monkeypatch):
        self.started = threading.Event()
        self.release = threading.Event()
        execute = service_module.execute_job

        def held(job, resolved):
            self.started.set()
            self.release.wait(10)
            return execute(job, resolved)

        monkeypatch.setattr(service_module, "execute_job", held)

    async def running(self):
        """Return once a job thread has taken a job and is held."""
        deadline = time.monotonic() + 10
        while not self.started.is_set():
            assert time.monotonic() < deadline, "no job thread took a job"
            await asyncio.sleep(0.001)


class TestByteIdentity:
    @pytest.mark.parametrize("engine", [
        "python",
        pytest.param("numpy", marks=pytest.mark.skipif(
            not numpy_available(), reason="numpy not installed")),
    ])
    @pytest.mark.parametrize("cert", ["none", "wilson",
                                      "clopper-pearson"])
    def test_result_equals_direct_run(self, engine, cert):
        payloads = [_request(i, seed=40 + i, engine=engine, cert=cert,
                             prover=prover)
                    for i, prover in enumerate(
                        ["honest", "committed", "honest"])]
        responses, _ = _run(payloads)
        for payload, response in zip(payloads, responses):
            assert response["ok"], response
            direct = json.dumps(_direct_result(payload), sort_keys=True)
            served = json.dumps(response["result"], sort_keys=True)
            assert direct == served

    def test_batched_jobs_identical_to_unbatched(self):
        """The cache shares the context, never randomness: a crowd of
        same-instance jobs sent together, on more job threads than
        cores switching as often as the interpreter allows, equals
        each run alone."""
        payloads = [_request(i, seed=7 + i, trials=6)
                    for i in range(16)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            batched, service = _run(payloads,
                                    ServeConfig(pool_threads=4))
        finally:
            sys.setswitchinterval(interval)
        # All sixteen share one identity key, so they share one
        # cached context.
        cache = service.cache.stats()
        assert cache["entries"] == 1
        assert cache["hits"] + cache["misses"] == len(payloads)
        for payload, response in zip(payloads, batched):
            alone, _ = _run([payload])
            assert response["result"] == alone[0]["result"]

    def test_graph6_payload_round_trip(self):
        from repro.graphs import cycle_graph
        from repro.graphs.graph6 import graph_to_graph6
        g6 = graph_to_graph6(cycle_graph(8))
        payload = json.dumps({
            "v": 1, "id": "g6",
            "job": {"protocol": "sym-dmam", "n": 8, "graph6": g6,
                    "trials": 8, "seed": 3}})
        named = _request(0, n=8, trials=8, seed=3)
        (by_g6,), _ = _run([payload])
        (by_name,), _ = _run([named])
        assert by_g6["ok"] and by_name["ok"]
        assert by_g6["result"] == by_name["result"]


class TestAdmissionControl:
    def test_queue_full_rejects_overloaded(self, monkeypatch):
        """While the one job thread runs a job, ``queue_limit`` more
        jobs wait and the next one is rejected."""
        held = _HeldJobs(monkeypatch)

        async def scenario():
            service = VerifyService(ServeConfig(queue_limit=2,
                                                pool_threads=1))
            await service.start()
            admitted = [asyncio.ensure_future(
                service.handle(_request(0)))]
            await held.running()
            admitted += [asyncio.ensure_future(
                service.handle(_request(i, seed=i))) for i in (1, 2)]
            # Arrive later than the two waiting jobs, as a client
            # sending jobs a few ms apart does.
            await asyncio.sleep(0.01)
            late = asyncio.ensure_future(
                service.handle(_request(3, seed=3)))
            await asyncio.wait({late}, timeout=2.0)
            held.release.set()
            responses = await asyncio.gather(*admitted)
            await service.close()
            return responses, await late

        responses, rejected = asyncio.run(scenario())
        assert all(response["ok"] for response in responses)
        assert not rejected["ok"]
        assert rejected["error"]["code"] == "overloaded"
        assert rejected["error"]["status"] == 429

    def test_ndjson_reads_no_further_than_queue_limit(self):
        """A producer that pipes every line at once is held back by the
        transport, not refused: the loop stops reading while
        ``queue_limit`` requests are in flight."""
        from repro.serve.stdio import serve_lines
        lines = [_request(i, n=64, trials=10, seed=i).encode()
                 for i in range(40)]

        async def source():
            for line in lines:
                yield line

        async def scenario():
            service = VerifyService(ServeConfig(queue_limit=2,
                                                pool_threads=1))
            await service.start()
            responses = []
            counts = await serve_lines(
                service, source(),
                lambda text: responses.append(json.loads(text)))
            await service.close()
            return counts, responses

        counts, responses = asyncio.run(scenario())
        assert counts == {"requests": 40, "ok": 40, "errors": 0}
        assert sorted(response["id"] for response in responses) == \
            sorted(f"req-{i}" for i in range(40))

    def test_draining_service_rejects(self):
        async def scenario():
            service = VerifyService()
            await service.start()
            await service.drain()
            response = await service.handle(_request(0))
            await service.close()
            return response

        response = asyncio.run(scenario())
        assert response["error"]["code"] == "overloaded"

    def test_zero_timeout_expires_in_queue(self):
        payload = json.dumps({
            "v": 1, "id": "hurry", "timeout": 0,
            "job": {"protocol": "sym-dmam", "graph": "cycle", "n": 8,
                    "trials": 4, "seed": 1}})
        (response,), service = _run([payload])
        assert not response["ok"]
        assert response["error"]["code"] == "timeout"
        assert response["error"]["status"] == 504
        assert service._counts["timeouts"] == 1

    def test_malformed_and_unsupported_via_handle(self):
        responses, _ = _run([
            "this is not json",
            '{"v": 9, "id": "future", "job": {}}',
            _request(0, protocol="no-such-protocol"),
            _request(1, n=4),  # cycle_graph rejects n < 3? n=4 is fine
        ])
        assert responses[0]["error"]["code"] == "malformed"
        assert responses[0]["id"] is None
        assert responses[1]["error"]["code"] == "unsupported"
        assert responses[2]["error"]["code"] == "unsupported"
        assert responses[3]["ok"]

    def test_resolution_failure_is_unsupported(self):
        # The 'rigid' family only exists at n=6.
        (response,), _ = _run([_request(0, graph="rigid", n=8)])
        assert not response["ok"]
        assert response["error"]["code"] == "unsupported"


class TestLifecycle:
    def test_close_leaves_no_tasks_behind(self):
        async def scenario():
            service = VerifyService()
            await service.start()
            await asyncio.gather(*(service.handle(_request(i, seed=i))
                                   for i in range(8)))
            await service.close()
            leftover = [t for t in asyncio.all_tasks()
                        if t is not asyncio.current_task()
                        and not t.done()]
            return leftover, service

        leftover, service = asyncio.run(scenario())
        assert leftover == []
        assert service.queue.qsize() == 0
        assert service.stats()["inflight"] == 0
        assert not [t for t in threading.enumerate()
                    if t.name.startswith("repro-serve")]

    def test_close_fails_queued_jobs(self, monkeypatch):
        """A drain that times out: ``close()`` fails the job still
        waiting and lets the running one finish."""
        held = _HeldJobs(monkeypatch)

        async def scenario():
            service = VerifyService(ServeConfig(pool_threads=1,
                                                drain_timeout=0.05))
            await service.start()
            running = asyncio.ensure_future(service.handle(_request(0)))
            await held.running()
            waiting = asyncio.ensure_future(
                service.handle(_request(1, seed=1)))
            await asyncio.sleep(0)
            closing = asyncio.ensure_future(service.close())
            await asyncio.wait({waiting}, timeout=2.0)
            held.release.set()
            await closing
            return await running, await waiting

        running, waiting = asyncio.run(scenario())
        assert running["ok"]
        assert waiting["error"]["code"] == "overloaded"
        assert waiting["error"]["message"] == \
            "service shut down before the job ran"

    def test_stats_shape(self):
        _, service = _run([_request(0)])
        stats = service.stats()
        assert set(stats) >= {"accepting", "queue", "inflight",
                              "counts", "cache", "config"}
        assert stats["counts"]["ok"] == 1


class TestWireEncoding:
    def test_responses_encode_canonically(self):
        (response,), _ = _run([_request(0)])
        text = encode_response(response)
        assert json.loads(text) == response
        # Canonical: sorted keys, no whitespace.
        assert text == json.dumps(response, sort_keys=True,
                                  separators=(",", ":"))

    def test_meta_never_leaks_into_result(self):
        """The determinism split: everything load-dependent lives in
        meta, the result carries only job-determined fields."""
        (response,), _ = _run([_request(0, cert="wilson")])
        assert set(response["result"]) == {"accepted", "trials",
                                           "probability", "interval"}
        assert set(response["meta"]) == {
            "engine", "workers", "cache_hit", "batch", "context_key",
            "queue_ms", "run_ms"}
