"""The serve workloads: ``python -m repro serve`` driven over an HTTP
socket (serve-http-small) and an ndjson pipe (serve-ndjson-large).

Both are closed loops from this one process: two keep-alive HTTP
connections, or one ndjson pipe with a fixed window of requests in
flight.  Every response is checked, outside the timed window, against
a direct ``run_trials`` of the same job.
"""

from __future__ import annotations

import itertools
import json
import random
import socket
import subprocess
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

from common import (BenchFailure, duration, load_spans, mean, median,
                    percentile, proc_cpu_seconds, proc_peak_rss_mb,
                    program_env, repro_command, spans_named,
                    context_build_seconds, runner_layers, stop_process,
                    tail, write_obs_run)

#: serve-http-small: the four content addresses, 5 python trials each.
HTTP_ADDRESSES = (("sym-dmam", 8), ("sym-dmam", 12), ("sym-dam", 8),
                  ("sym-lcp", 10))
HTTP_SEEDS_PER_ADDRESS = 16
HTTP_CONNECTIONS = 2
HTTP_TAIL_PCT = 99.0
#: requests per "sweep" block (sweep_s on the serve workloads).
HTTP_BLOCK = 1000

#: serve-ndjson-large: requests kept in flight on the pipe.
NDJSON_WINDOW = 8
#: one block of ten requests: 6 repeated n=1024 numpy jobs, 2 n=64
#: python jobs, 2 numpy jobs on a fresh n (cache misses).
NDJSON_MIX = ("large",) * 6 + ("small",) * 2 + ("fresh",) * 2
NDJSON_LARGE_N = 1024
NDJSON_SMALL_N = 64
NDJSON_FRESH_RANGE = (300, 1000)
NDJSON_TRIALS = 100
NDJSON_SMALL_TRIALS = 10
NDJSON_SEEDS = 4
NDJSON_TAIL_PCT = 90.0
NDJSON_BLOCK = 20

SETUP_REPEATS = 3
_GOLDEN = 0.6180339887498949


def _job(protocol: str, n: int, trials: int, seed: int,
         engine: str) -> Dict[str, Any]:
    return {"protocol": protocol, "graph": "cycle", "n": n,
            "trials": trials, "seed": seed, "engine": engine}


def job_key(job: Dict[str, Any]) -> str:
    return json.dumps(job, sort_keys=True)


# -- schedules ----------------------------------------------------------------

def http_small_jobs(seed: int) -> Iterator[Dict[str, Any]]:
    """Endless request jobs: a uniform draw from 64 fixed jobs."""
    rng = random.Random(seed)
    pool = [_job(protocol, n, 5, rng.randrange(1 << 30), "python")
            for protocol, n in HTTP_ADDRESSES
            for _ in range(HTTP_SEEDS_PER_ADDRESS)]
    while True:
        yield rng.choice(pool)


def http_warm_jobs(seed: int) -> List[Dict[str, Any]]:
    """One job per content address: fills the instance cache."""
    return [_job(protocol, n, 5, seed, "python")
            for protocol, n in HTTP_ADDRESSES]


def ndjson_large_jobs(seed: int) -> Iterator[Dict[str, Any]]:
    """Endless request jobs in shuffled blocks of :data:`NDJSON_MIX`.
    Fresh sizes follow a seed-offset golden-ratio sequence over the
    range, so every run sees an evenly spread set of distinct n."""
    rng = random.Random(seed)
    large = [rng.randrange(1 << 30) for _ in range(NDJSON_SEEDS)]
    small = [rng.randrange(1 << 30) for _ in range(NDJSON_SEEDS)]
    lo, hi = NDJSON_FRESH_RANGE
    offset = rng.random()
    used = {NDJSON_LARGE_N, NDJSON_SMALL_N}
    fresh_index = itertools.count()
    while True:
        block = list(NDJSON_MIX)
        rng.shuffle(block)
        for kind in block:
            if kind == "large":
                yield _job("sym-dmam", NDJSON_LARGE_N, NDJSON_TRIALS,
                           rng.choice(large), "numpy")
            elif kind == "small":
                yield _job("sym-dmam", NDJSON_SMALL_N, NDJSON_SMALL_TRIALS,
                           rng.choice(small), "python")
            else:
                while True:
                    k = next(fresh_index)
                    n = lo + int((hi - lo) * ((offset + k * _GOLDEN) % 1.0))
                    if n not in used:
                        break
                used.add(n)
                yield _job("sym-dmam", n, NDJSON_TRIALS,
                           rng.randrange(1 << 30), "numpy")


def ndjson_warm_jobs(seed: int) -> List[Dict[str, Any]]:
    return [_job("sym-dmam", NDJSON_SMALL_N, NDJSON_SMALL_TRIALS, seed,
                 "python"),
            _job("sym-dmam", NDJSON_LARGE_N, NDJSON_TRIALS, seed, "numpy")]


# -- correctness ----------------------------------------------------------------

class Checker:
    """Direct ``run_trials`` results per distinct job, computed in this
    process from the same library the server runs."""

    def __init__(self) -> None:
        self.expected: Dict[str, str] = {}
        self._resolved: Dict[str, Any] = {}

    def expect(self, job: Dict[str, Any]) -> str:
        key = job_key(job)
        if key not in self.expected:
            from repro.core.runner import run_trials
            from repro.lab.spec import PROVERS
            from repro.serve.jobs import resolve_instance, result_payload
            from repro.serve.schema import parse_job
            spec = parse_job(job)
            resolved = self._resolved.get(spec.identity_key)
            if resolved is None:
                resolved = resolve_instance(spec)
                self._resolved[spec.identity_key] = resolved
            prover = PROVERS[spec.prover](resolved.protocol)
            estimate = run_trials(resolved.protocol, resolved.instance,
                                  prover, spec.trials, spec.seed,
                                  context=resolved.context,
                                  engine=spec.engine)
            self.expected[key] = json.dumps(
                result_payload(spec, estimate), sort_keys=True)
        return self.expected[key]

    def failures(self, samples: List["Sample"]) -> List[str]:
        bad = []
        for sample in samples:
            response = sample.response
            if not response.get("ok"):
                bad.append(f"{sample.request_id}: {response.get('error')}")
            elif json.dumps(response["result"], sort_keys=True) \
                    != self.expect(sample.job):
                bad.append(f"{sample.request_id}: result differs from "
                           f"direct run_trials")
        return bad


# -- server processes -------------------------------------------------------------

@dataclass
class Sample:
    request_id: str
    job: Dict[str, Any]
    sent: float
    received: float = 0.0
    response: Dict[str, Any] = field(default_factory=dict)

    @property
    def latency_ms(self) -> float:
        return (self.received - self.sent) * 1000


def _payload(request_id: str, job: Dict[str, Any]) -> bytes:
    return json.dumps({"v": 1, "id": request_id, "job": job}).encode()


class HttpConnection:
    """A minimal keep-alive HTTP/1.1 client on one socket."""

    def __init__(self, host: str, port: int) -> None:
        self.sock = socket.create_connection((host, port), timeout=120)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.buf = b""

    def request(self, method: str, path: str,
                body: bytes = b"") -> Tuple[int, bytes]:
        self.sock.sendall(
            f"{method} {path} HTTP/1.1\r\nHost: bench\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(body)}\r\n\r\n".encode("ascii") + body)
        while b"\r\n\r\n" not in self.buf:
            self._fill()
        head, _, rest = self.buf.partition(b"\r\n\r\n")
        lines = head.split(b"\r\n")
        status = int(lines[0].split(b" ", 2)[1])
        length = 0
        for line in lines[1:]:
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        self.buf = rest
        while len(self.buf) < length:
            self._fill()
        body, self.buf = self.buf[:length], self.buf[length:]
        return status, body

    def _fill(self) -> None:
        chunk = self.sock.recv(65536)
        if not chunk:
            raise BenchFailure("server closed the connection")
        self.buf += chunk

    def close(self) -> None:
        self.sock.close()


class Server:
    """One spawned ``repro serve`` process (HTTP or ndjson)."""

    def __init__(self, transport: str, log: Path,
                 trace_dir: Optional[Path]) -> None:
        self.transport = transport
        args = ["serve", "--port", "0", "--json"] if transport == "http" \
            else ["serve", "--stdin"]
        self.log = log.open("ab")
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            repro_command(args, trace_dir), env=program_env(),
            stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            stderr=self.log)
        self.port = 0
        self.samples: Dict[str, Sample] = {}
        self._reader: Optional[threading.Thread] = None
        self._window = threading.Semaphore(NDJSON_WINDOW)
        self._lock = threading.Lock()
        self._lines = 0
        if transport == "http":
            line = self.proc.stdout.readline()
            if not line:
                self.close()
                raise BenchFailure("serve exited before listening")
            self.port = int(json.loads(line)["listening"].rsplit(":", 1)[1])
        else:
            self._reader = threading.Thread(target=self._read_lines,
                                            daemon=True)
            self._reader.start()

    @property
    def pid(self) -> int:
        return self.proc.pid

    # ndjson ------------------------------------------------------------------

    def _read_lines(self) -> None:
        for raw in self.proc.stdout:
            received = time.perf_counter()
            response = json.loads(raw)
            with self._lock:
                sample = self.samples.get(response.get("id"))
                if sample is not None:
                    sample.response = response
                    sample.received = received
                self._lines += 1
            self._window.release()

    def send_line(self, request_id: str, job: Dict[str, Any]) -> Sample:
        """Send one request once a window slot is free."""
        payload = _payload(request_id, job) + b"\n"
        if not self._window.acquire(timeout=120):
            raise BenchFailure("ndjson server stopped answering")
        sample = Sample(request_id, job, time.perf_counter())
        with self._lock:
            self.samples[request_id] = sample
        self.proc.stdin.write(payload)
        self.proc.stdin.flush()
        return sample

    def wait_lines(self, count: int, timeout: float = 120.0) -> None:
        deadline = time.monotonic() + timeout
        while True:
            with self._lock:
                if self._lines >= count:
                    return
            if time.monotonic() > deadline or self.proc.poll() is not None:
                raise BenchFailure(f"ndjson server answered {self._lines} "
                                   f"of {count} requests")
            time.sleep(0.002)

    # lifecycle -----------------------------------------------------------------

    def close(self) -> int:
        """Stop the server cleanly (EOF or SIGTERM) and wait for it."""
        try:
            if self.transport == "ndjson" and self.proc.stdin:
                self.proc.stdin.close()
                self.proc.wait(timeout=60)
            code = stop_process(self.proc)
        finally:
            if self._reader is not None:
                self._reader.join(timeout=30)
            self.log.close()
        return code


def start_server(transport: str, warm: List[Dict[str, Any]], log: Path,
                 trace_dir: Optional[Path] = None) -> Tuple[Server, float]:
    """Spawn a server and send the first warm job; returns the server
    and its set-up time (spawn to first successful response).  The
    remaining warm jobs then fill the cache."""
    server = Server(transport, log, trace_dir)
    try:
        for index, job in enumerate(warm):
            sample = one_request(server, f"warm-{index}", job)
            if not sample.response.get("ok"):
                raise BenchFailure(f"warm-up failed: {sample.response}")
            if index == 0:
                setup = sample.received - server.spawned
    except BaseException:
        server.close()
        raise
    return server, setup


def one_request(server: Server, request_id: str,
                job: Dict[str, Any]) -> Sample:
    if server.transport == "http":
        conn = HttpConnection("127.0.0.1", server.port)
        try:
            sample = Sample(request_id, job, time.perf_counter())
            _, body = conn.request("POST", "/v1/verify",
                                   _payload(request_id, job))
            sample.response = json.loads(body)
            sample.received = time.perf_counter()
        finally:
            conn.close()
        return sample
    before = server._lines
    sample = server.send_line(request_id, job)
    server.wait_lines(before + 1)
    return sample


def http_get(server: Server, path: str) -> Dict[str, Any]:
    conn = HttpConnection("127.0.0.1", server.port)
    try:
        status, body = conn.request("GET", path)
    finally:
        conn.close()
    if status != 200:
        raise BenchFailure(f"GET {path} returned {status}")
    return json.loads(body)


# -- load loops ------------------------------------------------------------------

def http_load(server: Server, jobs: Iterator[Dict[str, Any]],
              seconds: float) -> Tuple[List[Sample], float, float]:
    """Two closed-loop keep-alive connections for ``seconds``; returns
    the samples and the window's start and end."""
    lock = threading.Lock()
    counter = itertools.count()
    samples: List[Sample] = []
    errors: List[BaseException] = []
    start = time.perf_counter()
    stop = start + seconds

    def client() -> None:
        conn = HttpConnection("127.0.0.1", server.port)
        try:
            while time.perf_counter() < stop:
                with lock:
                    index = next(counter)
                    job = next(jobs)
                request_id = f"r{index}"
                body = _payload(request_id, job)
                sample = Sample(request_id, job, time.perf_counter())
                _, raw = conn.request("POST", "/v1/verify", body)
                sample.response = json.loads(raw)
                sample.received = time.perf_counter()
                with lock:
                    samples.append(sample)
        except BaseException as exc:  # reported by the caller
            errors.append(exc)
        finally:
            conn.close()

    threads = [threading.Thread(target=client)
               for _ in range(HTTP_CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise BenchFailure(f"http client failed: {errors[0]!r}")
    return samples, start, time.perf_counter()


def ndjson_load(server: Server, jobs: Iterator[Dict[str, Any]],
                seconds: float) -> Tuple[List[Sample], float, float]:
    """Keep :data:`NDJSON_WINDOW` requests in flight for ``seconds``,
    then wait for the stragglers."""
    before = server._lines
    start = time.perf_counter()
    sent: List[Sample] = []
    index = 0
    while time.perf_counter() < start + seconds:
        sent.append(server.send_line(f"r{index}", next(jobs)))
        index += 1
    end = time.perf_counter()
    server.wait_lines(before + len(sent))
    return sent, start, end


# -- one phase: spawn, load, collect ---------------------------------------------

@dataclass
class Phase:
    samples: List[Sample]
    window: Tuple[float, float]
    setup_s: List[float]
    cpu_s: float
    peak_rss_mb: float
    health: Optional[Dict[str, Any]]
    exit_code: int


def run_phase(workload: str, seed: int, seconds: float, out: Path,
              setups: int, trace_dir: Optional[Path] = None) -> Phase:
    transport = "http" if workload == "serve-http-small" else "ndjson"
    warm = http_warm_jobs(seed) if transport == "http" \
        else ndjson_warm_jobs(seed)
    jobs = http_small_jobs(seed) if transport == "http" \
        else ndjson_large_jobs(seed)
    log = out / "server.log"
    setup_times = []
    for attempt in range(setups):
        last = attempt == setups - 1
        server, setup = start_server(
            transport, warm if last else warm[:1], log,
            trace_dir if last else None)
        setup_times.append(setup)
        if not last:
            code = server.close()
            if code != 0:
                raise BenchFailure(f"serve exited {code} after set-up")
    try:
        cpu_before = proc_cpu_seconds(server.pid)
        load = http_load if transport == "http" else ndjson_load
        samples, start, end = load(server, jobs, seconds)
        cpu = proc_cpu_seconds(server.pid) - cpu_before
        health = http_get(server, "/v1/health")["stats"] \
            if transport == "http" else None
        rss = proc_peak_rss_mb(server.pid)
    finally:
        code = server.close()
    return Phase(samples, (start, end), setup_times, cpu, rss, health,
                 code)


def _in_window(phase: Phase) -> List[Sample]:
    """The ok responses to requests sent in the measured window (the
    ndjson stragglers sent before its end count, however late)."""
    return [s for s in phase.samples if s.response.get("ok")]


def end_to_end(workload: str, phase: Phase) -> Dict[str, float]:
    done = _in_window(phase)
    if not done:
        raise BenchFailure("no request completed in the window")
    start, end = phase.window
    latencies = [s.latency_ms for s in done]
    pct = _tail_pct(workload)
    block = HTTP_BLOCK if workload == "serve-http-small" else NDJSON_BLOCK
    finished = sorted(s.received for s in done)
    marks = [start] + finished[block - 1::block]
    blocks = [b - a for a, b in zip(marks, marks[1:])]
    if not blocks:
        raise BenchFailure(f"fewer than {block} requests in the window")
    return {
        "setup_s": median(phase.setup_s),
        "latency_p50_ms": median(latencies),
        "latency_tail_ms": tail(latencies, pct),
        "requests_per_s": sum(t <= end for t in finished) / (end - start),
        "sweep_s": median(blocks),
        "peak_rss_mb": phase.peak_rss_mb,
    }


def untraced_counters(workload: str, phase: Phase) -> Dict[str, float]:
    """Per-layer numbers read off the wire and /proc: response ``meta``
    and the server's CPU time."""
    done = _in_window(phase)
    metas = [s.response["meta"] for s in done]
    queue = [m["queue_ms"] for m in metas]
    return {
        "serve.service.queue_wait_p50_ms": median(queue),
        "serve.service.queue_wait_tail_ms": percentile(queue, _tail_pct(
            workload)),
        "serve.service.batch_size_mean": mean(m["batch"] for m in metas),
        "serve.cache.hit_ratio": mean(float(m["cache_hit"]) for m in metas),
        "serve.jobs.run_ms": mean(m["run_ms"] for m in metas),
        "serve.cpu_ms_per_request": phase.cpu_s * 1000 / len(done),
        # meta.engine: the engine that actually ran each job.
        "serve.numpy_share": mean(m["engine"] == "numpy" for m in metas),
    }


def _tail_pct(workload: str) -> float:
    return HTTP_TAIL_PCT if workload == "serve-http-small" \
        else NDJSON_TAIL_PCT


def traced_layers(workload: str, phase: Phase,
                  rows: List[Dict[str, Any]]) -> Dict[str, float]:
    """Per-layer numbers from the traced phase's spans, matched to the
    client's samples by request id."""
    start, end = phase.window
    window_rows = [r for r in rows if start <= r["start"] <= end]
    handles = {r["attrs"].get("request"): r
               for r in spans_named(window_rows, "serve.request")}
    done = [s for s in _in_window(phase) if s.request_id in handles]
    if not done:
        raise BenchFailure("no traced request matched a client sample")
    transport, handback, execute_self, hit_find = [], [], [], []
    unattributed = total = 0.0
    by_trace: Dict[str, List[Dict[str, Any]]] = {}
    for row in window_rows:
        by_trace.setdefault(row["trace"], []).append(row)
    for sample in done:
        handle = handles[sample.request_id]
        handle_ms = duration(handle) * 1000
        transport.append(sample.latency_ms - handle_ms)
        spans = by_trace.get(handle["trace"], [])
        execute = [r for r in spans if r["name"] == "serve.jobs.execute_job"]
        run = sum(duration(r) for r in spans
                  if r["name"] == "runner.run_trials") * 1000
        meta = sample.response["meta"]
        if execute:
            handback.append((handle["end"] - execute[0]["end"]) * 1000)
            execute_self.append(duration(execute[0]) * 1000 - run)
        if meta["cache_hit"]:
            hit_find.extend(duration(r) * 1000 for r in spans
                            if r["name"] == "core.kernels.find_kernel")
        # handle = queue_ms (parse, admission, queue wait, resolve) +
        # run_trials + what no wrapped call covers: prover construction
        # inside execute_job and the executor-to-event-loop hand-back.
        unattributed += max(0.0, handle_ms - meta["queue_ms"] - run)
        total += sample.latency_ms
    parse = spans_named(window_rows, "serve.schema.parse_request")
    resolve = spans_named(window_rows, "serve.jobs.resolve_instance")
    name = "serve.http.transport_ms" if workload == "serve-http-small" \
        else "serve.ndjson.transport_ms"
    layers = {
        name: median(transport),
        "serve.schema.parse_ms": mean(duration(r) * 1000 for r in parse),
        "serve.jobs.resolve_ms":
            mean(duration(r) * 1000 for r in resolve),
        "serve.jobs.resolve_calls": float(len(resolve)),
        "serve.jobs.execute_self_ms": mean(execute_self),
        "serve.service.handback_ms": mean(handback),
        "core.kernels.find_kernel_on_hit_ms": mean(hit_find),
        "core.context.build_ms":
            context_build_seconds(window_rows) * 1000 / len(done),
        "bench.unattributed_ratio": unattributed / total,
    }
    layers.update(runner_layers(window_rows))
    return layers


def run(workload: str, seed: int, seconds: float, trace: bool,
        out: Path, checker: Checker) -> Tuple[Dict[str, float], int, int,
                                              Dict[str, Any]]:
    """One benchmark run; returns (metrics, attempted, failed, record)."""
    if not trace:
        phase = run_phase(workload, seed, seconds, out, SETUP_REPEATS)
        phases = [phase]
        metrics = end_to_end(workload, phase)
        counters = untraced_counters(workload, phase)
    else:
        half = max(seconds / 2.0, 1.0)
        plain = run_phase(workload, seed, half, out, 1)
        trace_dir = out / "spans"
        traced = run_phase(workload, seed, half, out, 1, trace_dir)
        phases = [plain, traced]
        rows = load_spans(trace_dir)
        counters = untraced_counters(workload, plain)
        metrics = dict(counters)
        metrics.update(traced_layers(workload, traced, rows))
        base = end_to_end(workload, plain)
        slow = end_to_end(workload, traced)
        metrics["bench.trace_overhead_ratio"] = \
            slow["latency_p50_ms"] / base["latency_p50_ms"]
        write_obs_run(out / "obs", _client_spans(traced, rows) + rows,
                      {"workload": workload, "seed": seed,
                       "metrics": metrics})
    samples = [s for phase in phases for s in phase.samples]
    problems = checker.failures(samples)
    for phase in phases:
        if phase.exit_code != 0:
            problems.append(f"serve exited with {phase.exit_code}")
    record = {
        "requests": len(samples),
        "problems": problems[:5],
        "untraced": counters,
        "health": phases[0].health,
    }
    return metrics, len(samples), len(problems), record


def _client_spans(phase: Phase,
                  rows: List[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """The load generator's request spans.  Each becomes the root of
    its request's trace: the server's ``serve.request`` span with the
    same request id is re-parented under it."""
    client = {}
    for s in phase.samples:
        if s.received:
            client[s.request_id] = {
                "name": "bench.client.request",
                "id": f"client.{s.request_id}", "parent": None,
                "trace": f"client-{s.request_id}",
                "attrs": {"request": s.request_id}, "pid": 0,
                "start": s.sent, "end": s.received}
    for row in rows:
        span = client.get(row["attrs"].get("request")) \
            if row["name"] == "serve.request" else None
        if span is not None:
            row["parent"] = span["id"]
            span["trace"] = row["trace"]
    return list(client.values())
