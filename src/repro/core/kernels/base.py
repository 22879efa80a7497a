"""Kernel interface of the numpy batch engine.

A **trial kernel** replays a whole batch of Monte-Carlo trials as array
programs: challenges for trials ``start .. start+count-1`` are drawn
from the same per-trial streams the reference engine uses
(``random.Random(seed + t)``, identical draw order), and everything
downstream — hashing, tree aggregation, verifier decisions, bit
accounting — is vectorized over a ``(trials, nodes)`` grid.

The contract is *byte-equality with the reference engine*, not
approximate agreement: a kernel must reproduce the exact
``ExecutionResult`` of :func:`repro.core.runner.run_protocol` for any
trial it claims (:meth:`TrialKernel.execution_result`), which is how
the runner cross-checks every batch (trial 0 of each ``run_trials``
call runs on both engines) and how the parity suite in
``tests/core/test_kernels.py`` pins the rest.

Kernels are built per ``(protocol, prover, instance)`` triple by
:func:`repro.core.kernels.find_kernel`; a triple without a kernel
simply runs on the reference engine, so registering a kernel is purely
an optimization, never a semantics change.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Dict

from ..context import InstanceContext
from ..model import Instance, Protocol, Prover


class KernelMismatch(RuntimeError):
    """A kernel disagreed with the reference engine on a cross-checked
    trial.  Raised loudly instead of returning silently wrong numbers;
    seeing this means a kernel bug (or a prover/protocol change the
    kernel does not model) — rerun with ``engine="python"``."""


@dataclass
class TrialBatch:
    """Per-trial outcome arrays for trials ``start .. start+count-1``.

    All arrays are int64/bool of length ``count``, indexed by trial
    offset (``arrays[i]`` describes trial ``start + i``); the runner
    turns them into the same counters, spans and metrics the reference
    engine emits trial by trial.
    """

    start: int
    count: int
    #: did all nodes accept?
    accepted: Any
    #: decision functions the reference engine would have invoked.
    decide_calls: Any
    #: the paper's cost measure (worst node's bits) per trial.
    max_cost_bits: Any
    #: total bits over all nodes per trial (the ``proof_bits`` metric).
    proof_bits: Any
    #: bulk wall time per phase ("arthur", "merlin", "decide"), seconds.
    phase_seconds: Dict[str, float]


class TrialKernel(ABC):
    """Vectorized executor for one ``(protocol, prover, instance)``.

    Construction happens once per ``run_trials`` call (arrays are
    memoized on the :class:`InstanceContext`, so repeated calls stay
    cheap) and must fail by *returning no kernel* from
    :func:`~repro.core.kernels.find_kernel` — never by guessing:
    anything a kernel cannot model byte-exactly belongs to the
    reference engine.
    """

    def __init__(self, protocol: Protocol, instance: Instance,
                 context: InstanceContext, prover: Prover) -> None:
        self.protocol = protocol
        self.instance = instance
        self.context = context
        self.prover = prover

    @abstractmethod
    def run_batch(self, seed: int, start: int, count: int,
                  stop_on_first_reject: bool) -> TrialBatch:
        """Execute trials ``start .. start+count-1`` of the stream."""

    @abstractmethod
    def execution_result(self, seed: int, trial: int,
                         stop_on_first_reject: bool):
        """Materialize trial ``trial`` as a full
        :class:`~repro.core.runner.ExecutionResult` — equal (dataclass
        equality: verdicts, decisions, transcript, per-node bits) to
        what :func:`~repro.core.runner.run_protocol` produces on
        ``random.Random(seed + trial)``.  All values must be plain
        python ints/bools so transcripts serialize identically.
        """
