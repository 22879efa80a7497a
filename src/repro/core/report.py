"""Human-readable rendering of protocol executions.

Turning an :class:`~repro.core.runner.ExecutionResult` into something a
person can read is most of debugging a protocol: which round carried
what, which node rejected, where the bits went.  These helpers render
plain text (no dependencies, safe in any terminal).  The module also
holds :func:`execution_cost`, the transcript recompute behind every
cost gate, and the golden-transcript JSON dump.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from .model import Instance, Protocol, Prover, ROUND_ARTHUR
from .runner import ExecutionResult, run_protocol


@dataclass(frozen=True)
class ExecutionCost:
    """The independent per-round / per-node bit accounting of one
    execution, recomputed from its transcript.

    This is the *single* recompute behind every cost gate: the lab's
    per-cell ``round_bits`` provenance, the obs record gate's
    declared-bits cross-check, and the ledger's measured per-phase
    series all call :func:`execution_cost`, so the three gates agree
    by construction — none of them trusts the runner's own
    ``node_cost_bits`` accounting.
    """

    #: Per-round bits at node 0 (nodes are cost-uniform in every
    #: protocol here); one entry per round the execution reached.
    round_bits: Tuple[int, ...]
    #: Recomputed per-node totals over all reached rounds.
    node_bits: Dict[int, int]

    @property
    def total_bits(self) -> int:
        """Node 0's total — the 'bits per node' of a cost cell."""
        return sum(self.round_bits)

    @property
    def network_bits(self) -> int:
        """Whole-network total (the netsim/obs charging unit)."""
        return sum(self.node_bits.values())


def execution_cost(protocol: Protocol, instance: Instance,
                   result: ExecutionResult) -> ExecutionCost:
    """Recompute the bit bill of ``result`` from its transcript.

    Rounds the execution never reached (``stop_on_first_reject``
    truncation) contribute nothing, matching the runner's charging.
    """
    node_bits = {v: 0 for v in range(instance.n)}
    round_bits: List[int] = []
    for round_idx, kind in enumerate(protocol.pattern):
        if kind == ROUND_ARTHUR:
            if round_idx not in result.transcript.randomness:
                break
            bits = protocol.arthur_bits(instance, round_idx)
            round_bits.append(bits)
            for v in node_bits:
                node_bits[v] += bits
        else:
            messages = result.transcript.messages.get(round_idx)
            if messages is None:
                break
            round_bits.append(
                protocol.merlin_bits(instance, round_idx, messages[0]))
            for v in node_bits:
                node_bits[v] += protocol.merlin_bits(
                    instance, round_idx, messages[v])
    return ExecutionCost(tuple(round_bits), node_bits)


def trial_cost_bits(protocol: Protocol, instance: Instance,
                    prover_factory: Callable[[], Prover],
                    trials: int, seed: int, *,
                    stop_on_first_reject: bool = True) -> List[int]:
    """Whole-network declared bits per trial over the deterministic
    ``seed + t`` streams — the obs record gate's ground truth,
    re-executed outside any span bookkeeping."""
    return [
        sum(run_protocol(protocol, instance, prover_factory(),
                         random.Random(seed + t),
                         stop_on_first_reject=stop_on_first_reject)
            .node_cost_bits.values())
        for t in range(trials)]


def _preview(value: Any, limit: int = 32) -> str:
    text = repr(value)
    return text if len(text) <= limit else text[:limit - 3] + "..."


def describe_rounds(protocol: Protocol) -> List[str]:
    """One line per round: kind and, for Merlin, the field layout."""
    lines = []
    for idx, kind in enumerate(protocol.pattern):
        if kind == ROUND_ARTHUR:
            lines.append(f"round {idx}: Arthur  (nodes -> prover, random)")
        else:
            fields = sorted(protocol.merlin_fields(idx))
            broadcast = protocol.broadcast_fields(idx)
            rendered = ", ".join(
                f"{name}*" if name in broadcast else name
                for name in fields)
            lines.append(f"round {idx}: Merlin  (prover -> nodes: "
                         f"{rendered})  [* = broadcast-checked]")
    return lines


def render_execution(protocol: Protocol, instance: Instance,
                     result: ExecutionResult,
                     nodes: Optional[Iterable[int]] = None,
                     value_limit: int = 32) -> str:
    """A full text report of one execution.

    ``nodes`` restricts the per-node message dump (default: first 4
    nodes plus any rejecting node — the ones worth reading).
    """
    lines: List[str] = []
    lines.append(f"protocol {protocol.name} (pattern {protocol.pattern}) "
                 f"on n={instance.n}")
    lines.extend(describe_rounds(protocol))
    verdict = "ACCEPTED" if result.accepted else "REJECTED"
    lines.append(f"verdict: {verdict}; per-node cost "
                 f"{result.max_cost_bits} bits")
    rejecting = result.rejecting_nodes()
    if rejecting:
        lines.append(f"rejecting nodes: {rejecting}")

    if nodes is None:
        shown = sorted(set(list(range(min(4, instance.n))) + rejecting))
    else:
        shown = sorted(set(nodes))
    for v in shown:
        flag = "ok " if result.decisions.get(v, False) else "REJ"
        lines.append(f"node {v} [{flag}] "
                     f"({result.node_cost_bits.get(v, 0)} bits)")
        for round_idx, kind in enumerate(protocol.pattern):
            if kind == ROUND_ARTHUR:
                value = result.transcript.randomness[round_idx][v]
                lines.append(f"  r{round_idx} A -> "
                             f"{_preview(value, value_limit)}")
            else:
                message = result.transcript.messages[round_idx][v]
                rendered = ", ".join(
                    f"{name}={_preview(message[name], value_limit)}"
                    for name in sorted(message))
                lines.append(f"  r{round_idx} M <- {rendered}")
    return "\n".join(lines)


def _jsonable(value: Any) -> Any:
    """Recursively convert transcript values to JSON-stable types.

    Tuples become lists; mapping keys become strings (sorted by their
    original integer value where applicable, via the caller's
    ``sort_keys`` dump).  Anything already JSON-native passes through.
    """
    if isinstance(value, (tuple, list)):
        return [_jsonable(item) for item in value]
    if isinstance(value, dict):
        return {str(key): _jsonable(val) for key, val in value.items()}
    if isinstance(value, bool) or value is None or isinstance(value, str):
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        return value
    return repr(value)


def execution_to_jsonable(protocol: Protocol, instance: Instance,
                          result: ExecutionResult) -> Any:
    """A deterministic JSON-friendly dump of one execution.

    This is the golden-transcript format: dumped with
    ``json.dumps(..., sort_keys=True, indent=2)`` it is byte-stable
    across runs for a fixed seed, so regression tests can assert exact
    replay of every round, message field, and verdict.
    """
    return {
        "protocol": protocol.name,
        "pattern": protocol.pattern,
        "n": instance.n,
        "accepted": result.accepted,
        "max_cost_bits": result.max_cost_bits,
        "node_cost_bits": _jsonable(dict(result.node_cost_bits)),
        "decisions": _jsonable(dict(result.decisions)),
        "randomness": _jsonable({r: dict(values) for r, values
                                 in result.transcript.randomness.items()}),
        "messages": _jsonable({r: {v: dict(msg) for v, msg in round_msgs.items()}
                               for r, round_msgs
                               in result.transcript.messages.items()}),
    }

