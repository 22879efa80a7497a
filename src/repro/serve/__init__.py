"""repro.serve — the long-running verification service.

A transport-agnostic asyncio service (:class:`VerifyService`) that
accepts verification jobs over a versioned JSON wire schema
(:mod:`repro.serve.schema`), admission-controls them through one
bounded queue, and runs them one at a time per job thread on the
existing ``run_trials`` engines, each on a cached
:class:`InstanceContext` it shares with every job on the same
instance.  Two transports front it: a zero-dependency HTTP/1.1 server
(:mod:`repro.serve.http`) and an ndjson pipe
(:mod:`repro.serve.stdio`).  Start it with ``python -m repro serve``.

The service's core guarantee is **byte-identity**: the ``result``
object of every success response equals what a direct
:func:`repro.core.runner.run_trials` call with the same job produces —
the cache shares static structure, never randomness.  See
docs/SERVE.md for the wire schema and an operations runbook.
"""

from .cache import InstanceCache
from .jobs import ResolvedInstance, execute_job, resolve_instance, \
    result_payload
from .schema import (CERT_LEVELS, ERROR_STATUS, WIRE_VERSION, JobSpec,
                     VerifyRequest, WireError, encode_response,
                     error_response, ok_response, parse_job,
                     parse_request, request_to_jsonable)
from .service import ServeConfig, VerifyService

__all__ = [
    "CERT_LEVELS",
    "ERROR_STATUS",
    "WIRE_VERSION",
    "InstanceCache",
    "JobSpec",
    "ResolvedInstance",
    "ServeConfig",
    "VerifyRequest",
    "VerifyService",
    "WireError",
    "encode_response",
    "error_response",
    "execute_job",
    "ok_response",
    "parse_job",
    "parse_request",
    "request_to_jsonable",
    "resolve_instance",
    "result_payload",
]
