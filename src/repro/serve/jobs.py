"""Job resolution and execution: from a :class:`JobSpec` to a
deterministic result payload.

Resolution maps the job's registry keys through the lab registries
(:mod:`repro.lab.spec`) — the same protocol constructors, instance
families and prover panel every experiment uses — or decodes a literal
graph6 payload, and binds a warm :class:`InstanceContext` to the pair.
The resolved triple is what the service's instance cache stores under the
job's :attr:`~repro.serve.schema.JobSpec.identity_key`: protocols,
instances and contexts are randomness-free and shared across jobs;
provers are built fresh per job.

Execution is one :func:`repro.core.runner.run_trials` call with the
job's own ``(trials, seed)``, so a service response is byte-identical
to what a direct library call produces: the cache shares static
structure across jobs, never randomness.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, Tuple

from ..core.context import InstanceContext
from ..core.model import Instance, Protocol
from ..core.runner import AcceptanceEstimate, run_trials
from .schema import (CERT_CLOPPER_PEARSON, CERT_NONE, CERT_WILSON,
                     ERR_UNSUPPORTED, JobSpec, WireError)


@dataclass(frozen=True)
class ResolvedInstance:
    """The cacheable part of a job: its ``(protocol, instance)`` pair
    and the shared per-instance structural cache.  Everything here is
    a pure function of the job's identity fields (protocol, n, graph /
    graph6) — see :attr:`JobSpec.identity_key`."""

    protocol: Protocol
    instance: Instance
    context: InstanceContext


def resolve_instance(job: JobSpec) -> ResolvedInstance:
    """Instantiate the job's protocol and instance, bind a context.

    A job that parsed cleanly can still be unservable — a fixed-size
    graph family at the wrong ``n``, a graph6 payload that does not
    decode, or an instance the protocol's model rejects (e.g. a
    disconnected network for a spanning-tree protocol).  All of those
    surface as ``WireError(unsupported)``.
    """
    from ..lab.spec import GRAPHS, PROTOCOLS

    try:
        protocol = PROTOCOLS[job.protocol](job.n)
    except (ValueError, KeyError) as exc:
        raise WireError(ERR_UNSUPPORTED,
                        f"protocol {job.protocol!r} rejects n={job.n}: "
                        f"{exc}") from None

    if job.graph6 is not None:
        from ..graphs.graph6 import graph_from_graph6
        try:
            graph = graph_from_graph6(job.graph6)
        except ValueError as exc:
            raise WireError(ERR_UNSUPPORTED,
                            f"graph6 payload does not decode: "
                            f"{exc}") from None
        if graph.n != job.n:
            raise WireError(ERR_UNSUPPORTED,
                            f"graph6 payload has n={graph.n}, job says "
                            f"n={job.n}")
        instance = Instance(graph)
    else:
        try:
            instance = GRAPHS[job.graph](job.n)
        except (ValueError, KeyError) as exc:
            raise WireError(ERR_UNSUPPORTED,
                            f"graph family {job.graph!r} rejects "
                            f"n={job.n}: {exc}") from None

    try:
        protocol.validate_instance(instance)
    except ValueError as exc:
        raise WireError(ERR_UNSUPPORTED,
                        f"instance rejected by {protocol.name}: "
                        f"{exc}") from None

    context = InstanceContext(instance, protocol)
    return ResolvedInstance(protocol=protocol, instance=instance,
                            context=context)


def result_payload(job: JobSpec,
                   estimate: AcceptanceEstimate) -> Dict[str, Any]:
    """The deterministic ``result`` object of a success response.

    A pure function of ``(job, estimate)`` with every field independent
    of wall time, worker count and cache state — the byte-identity gate
    compares this object between service and direct library runs.
    """
    result: Dict[str, Any] = {
        "accepted": estimate.accepted,
        "trials": estimate.trials,
        "probability": estimate.probability,
    }
    if job.cert == CERT_WILSON:
        lo, hi = estimate.wilson_interval()
        result["interval"] = [lo, hi]
    elif job.cert == CERT_CLOPPER_PEARSON:
        result["upper"] = estimate.clopper_pearson_upper(job.alpha)
        result["lower"] = estimate.clopper_pearson_lower(job.alpha)
        result["alpha"] = job.alpha
    else:
        assert job.cert == CERT_NONE
    return result


def execute_job(job: JobSpec, resolved: ResolvedInstance
                ) -> Tuple[Dict[str, Any], AcceptanceEstimate]:
    """Run one job on a (shared, possibly cached) resolved instance.

    Builds the job's prover fresh — provers may carry search state —
    and returns the deterministic result payload plus the estimate
    (whose instrumentation fields feed the response's ``meta``).
    """
    from ..lab.spec import PROVERS
    prover = PROVERS[job.prover](resolved.protocol)
    estimate = run_trials(resolved.protocol, resolved.instance, prover,
                          job.trials, job.seed, context=resolved.context,
                          engine=job.engine)
    return result_payload(job, estimate), estimate
