"""``python -m repro serve`` — run the verification service.

Modes
-----
default        bind the HTTP transport and serve until SIGINT/SIGTERM,
               then drain gracefully.
``--stdin``    serve ndjson request lines from stdin to stdout until
               EOF, drain, exit.
``--smoke N``  in-process self-test: pump ``N`` generated jobs (mixed
               valid, malformed, unsupported) through the full ndjson
               pipeline, byte-check the first result of every job kind
               against a direct ``run_trials`` call, and assert a
               clean drain.  Exit 0 only if everything holds — this is
               the CI smoke gate.
"""

from __future__ import annotations

import argparse
import asyncio
import json
import signal
import sys
from typing import Any, AsyncIterator, Dict, List, Tuple

from .service import ServeConfig, VerifyService


def _config_from_args(args: argparse.Namespace) -> ServeConfig:
    return ServeConfig(
        host=args.host, port=args.port, queue_limit=args.queue_limit,
        pool_threads=args.pool_threads, default_engine=args.engine,
        timeout=args.timeout, drain_timeout=args.drain_timeout,
        cache_capacity=args.cache_capacity)


async def _run_http(config: ServeConfig, as_json: bool) -> int:
    from .http import serve_http

    service = VerifyService(config)
    await service.start()
    server = await serve_http(service, config.host, config.port)
    host, port = server.sockets[0].getsockname()[:2]
    if as_json:
        print(json.dumps({"listening": f"http://{host}:{port}"}),
              flush=True)
    else:
        print(f"repro serve listening on http://{host}:{port} "
              f"(POST /v1/verify, GET /v1/health, GET /v1/schema)",
              flush=True)

    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:  # pragma: no cover - non-POSIX
            pass
    await stop.wait()

    print("draining ...", file=sys.stderr, flush=True)
    server.close()
    await server.wait_closed()
    drained = await service.drain()
    await service.close()
    print(f"drained={'clean' if drained else 'timed out'} "
          f"stats={json.dumps(service.stats()['counts'])}",
          file=sys.stderr, flush=True)
    return 0 if drained else 1


async def _run_stdio(config: ServeConfig) -> int:
    from .stdio import serve_stdio

    service = VerifyService(config)
    await service.start()
    counts = await serve_stdio(service)
    drained = await service.drain()
    await service.close()
    print(f"served {counts['requests']} requests "
          f"({counts['ok']} ok, {counts['errors']} errors), "
          f"drain={'clean' if drained else 'timed out'}",
          file=sys.stderr, flush=True)
    return 0 if drained else 1


# -- smoke self-test -----------------------------------------------------

#: (protocol, graph, n) combinations the smoke generator cycles over —
#: small instances from the lab registry that every engine serves.
#: Sym/dAM runs at n=8, whose Protocol-2 prime still fits the numpy
#: kernel's modulus bound (at n=10 its jobs fall back to python).
_SMOKE_COMBOS: Tuple[Tuple[str, str, int], ...] = (
    ("sym-dmam", "cycle", 8),
    ("sym-dam", "cycle", 8),
    ("sym-lcp", "cycle", 8),
    ("sym-dmam", "cycle", 12),
)

#: Protocols whose numpy jobs must run on a batch kernel, never on
#: the python fallback.
_SMOKE_KERNELS = ("sym-dmam", "sym-dam")

_SMOKE_BAD: Tuple[Tuple[str, str], ...] = (
    # (payload, expected error code)
    ('{"this is not json', "malformed"),
    ('[1, 2, 3]', "malformed"),
    ('{"v": 1, "id": "bad-missing-job"}', "malformed"),
    ('{"v": 99, "id": "bad-version", "job": {"protocol": "sym-dmam", '
     '"n": 8, "graph": "cycle"}}', "unsupported"),
    ('{"v": 1, "id": "bad-protocol", "job": {"protocol": "no-such", '
     '"n": 8, "graph": "cycle"}}', "unsupported"),
    ('{"v": 1, "id": "bad-field", "job": {"protocol": "sym-dmam", '
     '"n": 8, "graph": "cycle", "zeal": 3}}', "malformed"),
)


def _smoke_lines(count: int, seed: int,
                 engine: str) -> Tuple[List[bytes], int, int]:
    """``count`` mixed request lines: roughly one bad payload in four.
    Returns ``(lines, expected_ok, expected_errors)``."""
    lines: List[bytes] = []
    ok = bad = 0
    for index in range(count):
        if index % 4 == 3:
            payload = _SMOKE_BAD[bad % len(_SMOKE_BAD)][0]
            bad += 1
        else:
            protocol, graph, n = _SMOKE_COMBOS[ok % len(_SMOKE_COMBOS)]
            payload = json.dumps({
                "v": 1, "id": f"smoke-{index}",
                "job": {"protocol": protocol, "graph": graph, "n": n,
                        "trials": 5, "seed": seed + index,
                        "engine": engine},
            })
            ok += 1
        lines.append(payload.encode("utf-8"))
    return lines, ok, bad


async def _http_get(host: str, port: int,
                    path: str) -> Tuple[int, str]:
    """One-shot HTTP/1.1 GET against the serve transport."""
    reader, writer = await asyncio.open_connection(host, port)
    writer.write(f"GET {path} HTTP/1.1\r\nHost: {host}\r\n"
                 f"Connection: close\r\n\r\n".encode("ascii"))
    await writer.drain()
    raw = await reader.read()
    writer.close()
    try:
        await writer.wait_closed()
    except (ConnectionError, OSError):  # pragma: no cover
        pass
    head, _, body = raw.partition(b"\r\n\r\n")
    status = int(head.split(b" ", 2)[1])
    return status, body.decode("utf-8")


def _check_exposition(text: str, failures: List[str]) -> None:
    """The mid-run scrape gate: non-empty, well-formed Prometheus
    text with the serve metrics present."""
    if not text.strip():
        failures.append("/v1/metrics exposition is empty")
        return
    lines = text.strip().splitlines()
    if not lines[0].startswith("# HELP"):
        failures.append("/v1/metrics does not start with # HELP")
    for line in lines:
        if not line.startswith("#") and " " not in line:
            failures.append(f"malformed exposition line {line!r}")
            break
    if "repro_serve_up" not in text:
        failures.append("/v1/metrics lacks repro_serve_up")


async def _run_smoke(config: ServeConfig, count: int, seed: int,
                     as_json: bool) -> int:
    from ..obs.live import stitch_spans
    from ..obs.session import active
    from .http import serve_http
    from .jobs import result_payload
    from .schema import WireError, parse_request
    from .stdio import serve_lines

    lines, expected_ok, expected_errors = _smoke_lines(
        count, seed, config.default_engine)

    async def _source() -> AsyncIterator[bytes]:
        for line in lines:
            yield line

    service = VerifyService(config)
    await service.start()
    responses: List[Dict[str, Any]] = []
    counts = await serve_lines(
        service, _source(), lambda text: responses.append(
            json.loads(text)))
    drained = await service.drain()

    # The request behind every valid line, and the first ok response
    # of every job kind in completion order.
    sent: Dict[str, Any] = {}
    for line in lines:
        try:
            request = parse_request(line)
        except WireError:
            continue
        sent[request.id] = request
    ok_responses = [r for r in responses if r.get("ok")]
    first_oks: Dict[str, Dict[str, Any]] = {}
    for response in ok_responses:
        first_oks.setdefault(sent[response["id"]].job.identity_key,
                             response)
    first_ok = next(iter(first_oks.values()), None)

    # Mid-run scrape: the service is still up — bind the HTTP
    # transport and hit the exposition endpoints like a scraper would.
    failures: List[str] = []
    server = await serve_http(service, "127.0.0.1", 0)
    scrape_host, scrape_port = server.sockets[0].getsockname()[:2]
    status, exposition = await _http_get(scrape_host, scrape_port,
                                         "/v1/metrics")
    if status != 200:
        failures.append(f"/v1/metrics returned {status}")
    _check_exposition(exposition, failures)
    sess = active()
    if sess is not None and sess.tracer.enabled and first_ok is not None:
        status, trace_body = await _http_get(
            scrape_host, scrape_port, f"/v1/trace/{first_ok['id']}")
        if status != 200:
            failures.append(f"/v1/trace/{first_ok['id']} returned "
                            f"{status}")
        elif not json.loads(trace_body).get("span"):
            failures.append("/v1/trace returned no span tree")
    server.close()
    await server.wait_closed()
    await service.close()

    # Context-propagation gate: with tracing on, every admitted
    # request must stitch into one connected tree (the serve.request
    # span roots it; job-thread buffer roots link to it).
    if sess is not None and sess.tracer.enabled:
        stitched = stitch_spans(sess.tracer.export())
        request_traces = {trace: bucket
                          for trace, bucket in stitched["traces"].items()
                          if "-req" in trace}
        if stitched["orphans"]:
            failures.append(
                f"orphan spans after stitching: {stitched['orphans']}")
        disconnected = [trace for trace, bucket in request_traces.items()
                        if len(bucket["roots"]) != 1]
        if disconnected:
            failures.append(f"request traces with != 1 root: "
                            f"{sorted(disconnected)}")
        if len(request_traces) < expected_ok:
            failures.append(
                f"expected >= {expected_ok} request traces, saw "
                f"{len(request_traces)}")
    if counts["requests"] != count or len(responses) != count:
        failures.append(f"expected {count} responses, saw "
                        f"{len(responses)}")
    if counts["ok"] != expected_ok:
        failures.append(f"expected {expected_ok} ok responses, saw "
                        f"{counts['ok']}")
    if counts["errors"] != expected_errors:
        failures.append(f"expected {expected_errors} error responses, "
                        f"saw {counts['errors']}")
    if not drained:
        failures.append("service did not drain cleanly")
    if service.queue.qsize() or service._inflight:
        failures.append("drain left work behind")

    # Error codes must match the taxonomy the bad payloads were built
    # to exercise.
    by_id = {r["id"]: r for r in responses if r.get("id")}
    for payload, code in _SMOKE_BAD:
        try:
            decoded = json.loads(payload)
        except ValueError:
            continue
        bad_id = decoded.get("id") if isinstance(decoded, dict) else None
        if bad_id in by_id and by_id[bad_id]["ok"]:
            failures.append(f"payload {bad_id!r} should have failed")
        elif bad_id in by_id \
                and by_id[bad_id]["error"]["code"] != code:
            failures.append(
                f"payload {bad_id!r}: expected {code!r}, got "
                f"{by_id[bad_id]['error']['code']!r}")

    # Byte-identity spot check: the first ok response of every job
    # kind must equal a direct run_trials call with the same job.
    from ..core.runner import run_trials
    from ..lab.spec import PROVERS
    from .jobs import resolve_instance
    for response in first_oks.values():
        job = sent[response["id"]].job
        resolved = resolve_instance(job)
        prover = PROVERS[job.prover](resolved.protocol)
        estimate = run_trials(resolved.protocol, resolved.instance,
                              prover, job.trials, job.seed,
                              context=resolved.context,
                              engine=job.engine)
        direct = json.dumps(result_payload(job, estimate),
                            sort_keys=True)
        served = json.dumps(response["result"], sort_keys=True)
        if direct != served:
            failures.append(f"byte-identity violated for "
                            f"{response['id']}: direct {direct} "
                            f"!= served {served}")

    # Engine gate: a numpy job of a kernel protocol must have run on
    # its batch kernel, not on the python fallback.
    for response in ok_responses:
        job = sent[response["id"]].job
        engine = response["meta"]["engine"]
        if job.engine == "numpy" and job.protocol in _SMOKE_KERNELS \
                and engine != "numpy":
            failures.append(f"{response['id']} ({job.protocol}, "
                            f"n={job.n}) ran on the {engine} engine")

    summary = {
        "requests": count, "ok": counts["ok"],
        "errors": counts["errors"], "drained": drained,
        "cache": service.cache.stats(), "failures": failures,
        "metrics_scraped": len(exposition.strip().splitlines()),
        "traced": bool(sess is not None and sess.tracer.enabled),
        "passed": not failures,
    }
    if as_json:
        print(json.dumps(summary, indent=2, sort_keys=True))
    else:
        print(f"smoke: {count} requests, {counts['ok']} ok, "
              f"{counts['errors']} errors, drain="
              f"{'clean' if drained else 'DIRTY'}, cache hits="
              f"{service.cache.stats()['hits']}, scraped "
              f"{summary['metrics_scraped']} exposition lines")
        for failure in failures:
            print(f"  FAIL: {failure}")
        print("smoke: PASS" if not failures else "smoke: FAIL")
    return 0 if not failures else 1


def cmd_serve(args: argparse.Namespace) -> int:
    try:
        config = _config_from_args(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.smoke is not None:
        if args.smoke < 1:
            print("error: --smoke needs a positive request count",
                  file=sys.stderr)
            return 2
        # The smoke is also the context-propagation gate: run it under
        # a traced obs session (unless the caller installed one) so the
        # stitched span-tree assertions in _run_smoke are exercised.
        from contextlib import nullcontext

        from ..obs.session import active, session as obs_session
        ambient = nullcontext() if active() is not None \
            else obs_session()
        with ambient:
            return asyncio.run(_run_smoke(config, args.smoke,
                                          args.seed, args.json))
    from contextlib import nullcontext

    from ..obs.session import active, session as obs_session
    ambient = obs_session() if args.obs and active() is None \
        else nullcontext()
    with ambient:
        if args.stdin:
            return asyncio.run(_run_stdio(config))
        return asyncio.run(_run_http(config, args.json))


def add_serve_parser(sub: "argparse._SubParsersAction") -> None:
    p = sub.add_parser(
        "serve",
        help="long-running verification service (HTTP + ndjson)")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8478,
                   help="HTTP port (0 picks a free one)")
    p.add_argument("--queue-limit", type=int, default=256,
                   help="admission bound; beyond it HTTP requests get "
                        "429, and --stdin stops reading")
    p.add_argument("--pool-threads", type=int, default=2,
                   help="job threads, each running one job at a time")
    p.add_argument("--engine", default="python",
                   choices=["python", "numpy"],
                   help="engine for jobs that do not name one")
    p.add_argument("--timeout", type=float, default=30.0,
                   help="default per-request deadline, seconds")
    p.add_argument("--drain-timeout", type=float, default=10.0)
    p.add_argument("--cache-capacity", type=int, default=256,
                   help="resolved-instance cache entries")
    p.add_argument("--obs", action="store_true",
                   help="run under a live observability session: "
                        "/v1/metrics carries the full registry and "
                        "/v1/trace retains request span trees")
    p.add_argument("--stdin", action="store_true",
                   help="serve ndjson lines from stdin instead of HTTP")
    p.add_argument("--smoke", type=int, metavar="N", default=None,
                   help="run the in-process self-test with N requests")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.set_defaults(func=cmd_serve)
