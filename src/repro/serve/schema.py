"""The serve wire schema: versioned requests, responses, and the
error taxonomy.

Every message on the wire — HTTP bodies and ndjson lines alike — is
one JSON object.  Requests carry an explicit schema version (``"v"``)
so the service can refuse payloads from the future instead of
misreading them, and every rejection is classified by a small, closed
error taxonomy:

``malformed``
    The payload is not a JSON object of the documented shape (bad
    JSON, wrong types, missing or unknown fields, out-of-range
    numbers).  HTTP 400.
``unsupported``
    The payload is well-formed but asks for something this service
    does not provide: an unknown schema version, protocol, graph
    family, prover or engine, or a graph a protocol's model rejects.
    HTTP 422.
``overloaded``
    Admission control refused the job: the bounded queue is full, or
    the service is draining.  Clients should back off and retry —
    nothing was executed.  HTTP 429.
``timeout``
    The job's deadline expired before a result was produced.  HTTP
    504.
``internal``
    An unexpected failure inside the service (a bug, by definition —
    the taxonomy above covers everything a client can cause).  HTTP
    500.

Determinism contract
--------------------
The ``result`` object of a success response is a **pure function of
the job** — byte-identical to what a direct
:func:`repro.core.runner.run_trials` call with the same seeds
produces (see :func:`repro.serve.jobs.result_payload`).  Everything
that depends on load, caching or wall time lives in the sibling
``meta`` object, so clients (and the byte-identity gate in
``tests/serve``) can compare results across service and library runs
verbatim.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from typing import Any, Dict, Optional

#: The wire schema version this module speaks.
WIRE_VERSION = 1

#: Error taxonomy codes and their HTTP status projections.
ERR_MALFORMED = "malformed"
ERR_UNSUPPORTED = "unsupported"
ERR_OVERLOADED = "overloaded"
ERR_TIMEOUT = "timeout"
ERR_INTERNAL = "internal"

ERROR_STATUS = {
    ERR_MALFORMED: 400,
    ERR_UNSUPPORTED: 422,
    ERR_OVERLOADED: 429,
    ERR_TIMEOUT: 504,
    ERR_INTERNAL: 500,
}

#: Certification levels a job may request.
CERT_NONE = "none"
CERT_WILSON = "wilson"
CERT_CLOPPER_PEARSON = "clopper-pearson"
CERT_LEVELS = (CERT_NONE, CERT_WILSON, CERT_CLOPPER_PEARSON)

#: Admission-control bounds on job parameters.  These are *schema*
#: limits (anything beyond them is malformed, not merely slow): they
#: keep a single request from monopolizing the service.
MAX_TRIALS = 100_000
MAX_N = 4096
MAX_SEED = 2 ** 63 - 1
MAX_ID_LEN = 128
MAX_GRAPH6_LEN = 8192

_JOB_FIELDS = frozenset({"protocol", "n", "graph", "graph6", "prover",
                         "trials", "seed", "engine", "cert", "alpha"})
_REQUEST_FIELDS = frozenset({"v", "id", "job", "timeout"})


class WireError(Exception):
    """A classified wire-level rejection (never crashes the service)."""

    def __init__(self, code: str, message: str) -> None:
        if code not in ERROR_STATUS:  # pragma: no cover - internal misuse
            raise ValueError(f"unknown error code {code!r}")
        super().__init__(message)
        self.code = code
        self.message = message

    @property
    def status(self) -> int:
        return ERROR_STATUS[self.code]


@dataclass(frozen=True)
class JobSpec:
    """One verification job: which protocol to run against which
    instance, with which prover, for how many trials.

    ``graph`` names a family from the lab registry
    (:data:`repro.lab.spec.GRAPHS`) instantiated at ``n``;
    ``graph6`` carries a literal graph6-encoded network instead.
    Exactly one of the two must be set.
    """

    protocol: str
    n: int
    prover: str = "honest"
    trials: int = 1
    seed: int = 0
    graph: Optional[str] = None
    graph6: Optional[str] = None
    engine: str = "python"
    cert: str = CERT_NONE
    alpha: float = 0.01

    @property
    def identity_key(self) -> str:
        """Content address of the job's ``(protocol, instance)`` pair —
        the instance cache's key, in the same style as the lab
        spec identity hash.  Prover, trials, seed, engine and cert are
        deliberately excluded: the cached :class:`InstanceContext` is
        shared across all of them."""
        identity = {
            "protocol": self.protocol,
            "n": self.n,
            "graph": self.graph,
            "graph6": self.graph6,
        }
        digest = hashlib.sha256(
            json.dumps(identity, sort_keys=True).encode("utf-8"))
        return digest.hexdigest()[:16]


@dataclass(frozen=True)
class VerifyRequest:
    """One parsed wire request."""

    id: str
    job: JobSpec
    #: client deadline in seconds (None = the service default).
    timeout: Optional[float] = None


def _require(condition: bool, code: str, message: str) -> None:
    if not condition:
        raise WireError(code, message)


def _int_field(obj: Dict[str, Any], name: str, default: Optional[int],
               lo: int, hi: int) -> int:
    value = obj.get(name, default)
    _require(value is not None, ERR_MALFORMED,
             f"job field {name!r} is required")
    # bool is an int subclass; reject it explicitly.
    _require(isinstance(value, int) and not isinstance(value, bool),
             ERR_MALFORMED, f"job field {name!r} must be an integer")
    _require(lo <= value <= hi, ERR_MALFORMED,
             f"job field {name!r} must be in [{lo}, {hi}] (got {value})")
    return value


def parse_job(obj: Any, *, default_engine: str = "python") -> JobSpec:
    """Validate and parse the ``job`` object of a request.

    Shape errors raise ``WireError(malformed)``; well-formed jobs
    naming unknown registry keys raise ``WireError(unsupported)`` —
    the registry check happens here (not at resolution time) so a
    client learns *which* field the service cannot serve.

    ``default_engine`` applies to jobs that omit the ``engine`` field
    (a service configured with ``--engine numpy`` upgrades engine-
    agnostic clients transparently; engines are byte-equivalent by the
    kernel contract, so this never changes a result).
    """
    _require(isinstance(obj, dict), ERR_MALFORMED,
             "job must be a JSON object")
    unknown = set(obj) - _JOB_FIELDS
    _require(not unknown, ERR_MALFORMED,
             f"unknown job fields: {sorted(unknown)}")

    protocol = obj.get("protocol")
    _require(isinstance(protocol, str), ERR_MALFORMED,
             "job field 'protocol' must be a string")

    n = _int_field(obj, "n", None, 1, MAX_N)
    trials = _int_field(obj, "trials", 1, 0, MAX_TRIALS)
    seed = _int_field(obj, "seed", 0, 0, MAX_SEED)

    graph = obj.get("graph")
    graph6 = obj.get("graph6")
    _require(graph is None or isinstance(graph, str), ERR_MALFORMED,
             "job field 'graph' must be a string")
    _require(graph6 is None or isinstance(graph6, str), ERR_MALFORMED,
             "job field 'graph6' must be a string")
    _require((graph is None) != (graph6 is None), ERR_MALFORMED,
             "exactly one of 'graph' and 'graph6' must be set")
    if graph6 is not None:
        _require(len(graph6) <= MAX_GRAPH6_LEN, ERR_MALFORMED,
                 f"graph6 payload exceeds {MAX_GRAPH6_LEN} characters")

    prover = obj.get("prover", "honest")
    _require(isinstance(prover, str), ERR_MALFORMED,
             "job field 'prover' must be a string")
    engine = obj.get("engine", default_engine)
    _require(isinstance(engine, str), ERR_MALFORMED,
             "job field 'engine' must be a string")
    cert = obj.get("cert", CERT_NONE)
    _require(isinstance(cert, str), ERR_MALFORMED,
             "job field 'cert' must be a string")
    alpha = obj.get("alpha", 0.01)
    _require(isinstance(alpha, float) and 0.0 < alpha < 1.0, ERR_MALFORMED,
             "job field 'alpha' must be a float in (0, 1)")

    # Registry membership: well-formed but unknown -> unsupported.
    from ..core.runner import ENGINES
    from ..lab.spec import GRAPHS, PROTOCOLS, PROVERS
    _require(protocol in PROTOCOLS, ERR_UNSUPPORTED,
             f"unknown protocol {protocol!r}; known: "
             f"{sorted(PROTOCOLS)}")
    if graph is not None:
        _require(graph in GRAPHS, ERR_UNSUPPORTED,
                 f"unknown graph family {graph!r}; known: "
                 f"{sorted(GRAPHS)}")
    _require(prover in PROVERS, ERR_UNSUPPORTED,
             f"unknown prover {prover!r}; known: {sorted(PROVERS)}")
    _require(engine in ENGINES, ERR_UNSUPPORTED,
             f"unknown engine {engine!r}; known: {list(ENGINES)}")
    _require(cert in CERT_LEVELS, ERR_UNSUPPORTED,
             f"unknown cert level {cert!r}; known: {list(CERT_LEVELS)}")

    return JobSpec(protocol=protocol, n=n, prover=prover, trials=trials,
                   seed=seed, graph=graph, graph6=graph6, engine=engine,
                   cert=cert, alpha=alpha)


def parse_request(payload: Any, *,
                  default_engine: str = "python") -> VerifyRequest:
    """Parse one wire request from raw text/bytes or a decoded object.

    Every rejection is a :class:`WireError` — the service never sees a
    raw exception from a client payload.
    """
    if isinstance(payload, (str, bytes, bytearray)):
        try:
            payload = json.loads(payload)
        except (ValueError, UnicodeDecodeError) as exc:
            raise WireError(ERR_MALFORMED,
                            f"request is not valid JSON: {exc}") from None
    _require(isinstance(payload, dict), ERR_MALFORMED,
             "request must be a JSON object")
    unknown = set(payload) - _REQUEST_FIELDS
    _require(not unknown, ERR_MALFORMED,
             f"unknown request fields: {sorted(unknown)}")

    version = payload.get("v")
    _require(isinstance(version, int) and not isinstance(version, bool),
             ERR_MALFORMED, "request field 'v' (schema version) must be "
             "an integer")
    _require(version == WIRE_VERSION, ERR_UNSUPPORTED,
             f"unsupported wire version {version} (this service speaks "
             f"v{WIRE_VERSION})")

    request_id = payload.get("id")
    _require(isinstance(request_id, str) and request_id, ERR_MALFORMED,
             "request field 'id' must be a non-empty string")
    _require(len(request_id) <= MAX_ID_LEN, ERR_MALFORMED,
             f"request field 'id' exceeds {MAX_ID_LEN} characters")

    timeout = payload.get("timeout")
    if timeout is not None:
        _require(isinstance(timeout, (int, float))
                 and not isinstance(timeout, bool), ERR_MALFORMED,
                 "request field 'timeout' must be a number")
        timeout = float(timeout)
        _require(0.0 <= timeout <= 3600.0, ERR_MALFORMED,
                 "request field 'timeout' must be in [0, 3600] seconds")

    _require("job" in payload, ERR_MALFORMED,
             "request field 'job' is required")
    job = parse_job(payload["job"], default_engine=default_engine)
    return VerifyRequest(id=request_id, job=job, timeout=timeout)


def request_to_jsonable(request: VerifyRequest) -> Dict[str, Any]:
    """The wire form of a request — ``parse_request`` round-trips it."""
    job = {k: v for k, v in asdict(request.job).items() if v is not None}
    payload: Dict[str, Any] = {"v": WIRE_VERSION, "id": request.id,
                               "job": job}
    if request.timeout is not None:
        payload["timeout"] = request.timeout
    return payload


def ok_response(request_id: str, result: Dict[str, Any],
                meta: Dict[str, Any]) -> Dict[str, Any]:
    """A success response: deterministic ``result``, wall-clock and
    provenance in ``meta``."""
    return {"v": WIRE_VERSION, "id": request_id, "ok": True,
            "result": result, "meta": meta}


def error_response(request_id: Optional[str], code: str,
                   message: str) -> Dict[str, Any]:
    """An error response; ``id`` is None when the request was too
    malformed to carry one."""
    return {"v": WIRE_VERSION, "id": request_id, "ok": False,
            "error": {"code": code, "status": ERROR_STATUS[code],
                      "message": message}}


def encode_response(response: Dict[str, Any]) -> str:
    """The canonical one-line wire encoding of a response."""
    return json.dumps(response, sort_keys=True, separators=(",", ":"))
