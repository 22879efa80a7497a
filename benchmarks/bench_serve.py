"""Load generation against the verification service.

An in-process asyncio load generator drives :class:`VerifyService`
through the same ``handle()`` entry point both transports use: a fleet
of concurrent clients submits small Sym/dMAM jobs (the service's
throughput floor in ISSUE/acceptance terms: ≥ 1000 verifications/sec
sustained, where one verification = one protocol trial), and the
benchmark reports sustained throughput plus p50/p99 request latency
per engine as a result table.

Two properties are *asserted*, not just reported:

* **byte-identity** — every success response's ``result`` object must
  equal ``result_payload`` over a direct ``run_trials`` call with the
  same job (same seeds, warm context).  Caching may never change a
  result.
* **throughput floor** — in full mode the python engine must sustain
  ≥ 1000 verifications/sec on n=8 Sym/dMAM jobs.  Skipped under
  ``BENCH_QUICK=1`` (tiny workloads are all setup noise).
"""

import asyncio
import json
import time

import pytest
from conftest import report_table

from repro.core.kernels import numpy_available
from repro.core.runner import run_trials
from repro.lab.quick import pick, quick_mode
from repro.lab.spec import PROVERS
from repro.serve import (ServeConfig, VerifyService, parse_request,
                         resolve_instance, result_payload)

QUICK = quick_mode()
#: total requests per engine scenario.
JOBS = pick(200, 24)
#: protocol trials per request — one trial is one verification.
TRIALS_PER_JOB = pick(25, 5)
CONCURRENCY = pick(32, 8)
SEED = 0xC0FFEE

#: The job mix: four content addresses so the instance cache sees
#: traffic (all small Sym instances).
COMBOS = (
    ("sym-dmam", "cycle", 8),
    ("sym-dmam", "cycle", 12),
    ("sym-dam", "cycle", 8),
    ("sym-lcp", "cycle", 10),
)


def _payloads(engine):
    lines = []
    for index in range(JOBS):
        protocol, graph, n = COMBOS[index % len(COMBOS)]
        lines.append(json.dumps({
            "v": 1, "id": f"load-{engine}-{index}",
            "job": {"protocol": protocol, "graph": graph, "n": n,
                    "trials": TRIALS_PER_JOB, "seed": SEED + index,
                    "engine": engine},
        }))
    return lines


async def _drive(engine):
    """One load run: all payloads through ``CONCURRENCY`` clients.

    Returns ``(responses, latencies_ms, wall_seconds, stats)``.
    """
    service = VerifyService(ServeConfig(
        queue_limit=max(JOBS, 64), pool_threads=2,
        default_engine=engine))
    await service.start()
    payloads = _payloads(engine)
    queue = asyncio.Queue()
    for payload in payloads:
        queue.put_nowait(payload)
    responses = []
    latencies = []

    async def _client():
        while True:
            try:
                payload = queue.get_nowait()
            except asyncio.QueueEmpty:
                return
            tick = time.monotonic()
            response = await service.handle(payload)
            latencies.append((time.monotonic() - tick) * 1000.0)
            responses.append(response)

    started = time.monotonic()
    await asyncio.gather(*(_client() for _ in range(CONCURRENCY)))
    wall = time.monotonic() - started
    drained = await service.drain()
    stats = service.stats()
    await service.close()
    assert drained, "service failed to drain after the load run"
    return responses, latencies, wall, stats


def _percentile(sorted_values, q):
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1,
                int(round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


def _assert_byte_identity(responses):
    """Every served result must equal the direct library call."""
    # Resolve each distinct instance once; run_trials per response.
    contexts = {}
    for response in responses:
        assert response["ok"], response
        job = parse_request(_reconstruct(response)).job
        key = job.identity_key
        if key not in contexts:
            contexts[key] = resolve_instance(job)
        resolved = contexts[key]
        prover = PROVERS[job.prover](resolved.protocol)
        estimate = run_trials(resolved.protocol, resolved.instance,
                              prover, job.trials, job.seed,
                              context=resolved.context,
                              engine=job.engine)
        direct = json.dumps(result_payload(job, estimate),
                            sort_keys=True)
        served = json.dumps(response["result"], sort_keys=True)
        assert direct == served, (
            f"byte-identity violated for {response['id']}: "
            f"direct={direct} served={served}")


#: request id -> original payload, rebuilt for the identity check.
_SENT = {}


def _reconstruct(response):
    return _SENT[response["id"]]


def _scenario(engine):
    for payload in _payloads(engine):
        _SENT[json.loads(payload)["id"]] = payload
    responses, latencies, wall, stats = asyncio.run(_drive(engine))
    assert len(responses) == JOBS
    rejected = [r for r in responses if not r.get("ok")]
    assert not rejected, f"load run rejected requests: {rejected[:3]}"
    _assert_byte_identity(responses)
    latencies.sort()
    verifications = JOBS * TRIALS_PER_JOB
    return {
        "engine": engine,
        "requests": JOBS,
        "verifications": verifications,
        "throughput": verifications / wall,
        "requests_per_s": JOBS / wall,
        "p50_ms": _percentile(latencies, 0.50),
        "p99_ms": _percentile(latencies, 0.99),
        "max_ms": latencies[-1],
        "cache_hits": stats["cache"]["hits"],
    }


@pytest.mark.parametrize("engine", [
    "python",
    pytest.param("numpy", marks=pytest.mark.skipif(
        not numpy_available(), reason="numpy not installed")),
])
def test_serve_load(benchmark, engine):
    summary = benchmark.pedantic(_scenario, args=(engine,),
                                 rounds=1, iterations=1)
    benchmark.extra_info.update(summary)
    report_table(
        benchmark,
        f"serve sustained load — engine={engine} "
        f"({JOBS} requests x {TRIALS_PER_JOB} trials, "
        f"{CONCURRENCY} clients)",
        ["metric", "value"],
        [["verifications/sec", f"{summary['throughput']:,.0f}"],
         ["requests/sec", f"{summary['requests_per_s']:,.1f}"],
         ["p50 latency (ms)", f"{summary['p50_ms']:.2f}"],
         ["p99 latency (ms)", f"{summary['p99_ms']:.2f}"],
         ["max latency (ms)", f"{summary['max_ms']:.2f}"],
         ["cache hits", summary["cache_hits"]]])
    if not QUICK and engine == "python":
        # The acceptance floor: small Sym/dMAM jobs must sustain
        # >= 1000 verifications/sec through the full service path.
        assert summary["throughput"] >= 1000, (
            f"sustained only {summary['throughput']:.0f} "
            f"verifications/sec (floor: 1000)")
