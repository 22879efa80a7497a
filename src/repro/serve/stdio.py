"""ndjson transport: one wire request per line, one response per line.

This is the pipe-friendly face of the service — the same schema as the
HTTP transport, minus the framing.  Blank lines are ignored; any other
line is handed to :meth:`VerifyService.handle` verbatim, so malformed
lines come back as ``malformed`` error responses rather than killing
the loop.  EOF stops admission and the loop returns once every
submitted job has resolved, which is what makes

``generate-jobs | python -m repro serve --stdin > responses.ndjson``

drain cleanly.  The loop stops reading while ``queue_limit`` requests
are in flight (submitted, not yet answered), so a producer that runs
ahead of the job threads is held back by the pipe: fewer than
``queue_limit`` jobs can be waiting when a line is submitted, and no
line is refused ``overloaded`` for queue space.

Responses are written in completion order, not submission order —
clients correlate by ``id`` (that is why the schema requires one).
"""

from __future__ import annotations

import asyncio
import sys
from typing import Any, AsyncIterator, Callable, Dict, Optional, Set

from .schema import encode_response
from .service import VerifyService


async def serve_lines(service: VerifyService,
                      lines: AsyncIterator[bytes],
                      write: Callable[[str], Any],
                      *,
                      flush: Optional[Callable[[], Any]] = None
                      ) -> Dict[str, int]:
    """Pump ``lines`` through the service, writing one encoded
    response per request via ``write``.  Returns tally counters
    (``requests``/``ok``/``errors``)."""
    pending: Set["asyncio.Task"] = set()
    counts = {"requests": 0, "ok": 0, "errors": 0}
    lock = asyncio.Lock()
    in_flight = asyncio.Semaphore(service.config.queue_limit)

    async def _one(payload: bytes) -> None:
        try:
            response = await service.handle(payload)
            if response.get("ok"):
                counts["ok"] += 1
            else:
                counts["errors"] += 1
            async with lock:  # lines must not interleave
                write(encode_response(response) + "\n")
                if flush is not None:
                    flush()
        finally:
            in_flight.release()

    async for raw in lines:
        line = raw.strip()
        if not line:
            continue
        await in_flight.acquire()  # backpressure: read no further
        counts["requests"] += 1
        task = asyncio.ensure_future(_one(line))
        pending.add(task)
        task.add_done_callback(pending.discard)

    if pending:
        await asyncio.gather(*pending)
    return counts


async def _stdin_lines() -> AsyncIterator[bytes]:
    """stdin as an async line iterator without blocking the loop."""
    loop = asyncio.get_running_loop()
    while True:
        line = await loop.run_in_executor(None, sys.stdin.buffer.readline)
        if not line:
            return
        yield line


async def serve_stdio(service: VerifyService) -> Dict[str, int]:
    """Serve ndjson requests from stdin to stdout until EOF."""
    return await serve_lines(
        service, _stdin_lines(), sys.stdout.write,
        flush=sys.stdout.flush)
