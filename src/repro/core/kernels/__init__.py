"""Vectorized trial kernels — the numpy batch engine.

``run_trials(..., engine="numpy")`` asks :func:`find_kernel` for a
kernel matching its ``(protocol, prover, instance)`` triple.  A kernel
replays whole trial batches as int64 array programs with byte-identical
results (transcripts, per-node bits, per-trial randomness streams) to
the reference python engine — see :mod:`repro.core.kernels.base` for the
contract and :mod:`repro.core.kernels.sym` for the Protocol 1/2
kernels.  Triples without a kernel (GNI, adaptive/randomized provers,
paper-sized Protocol-2 primes) fall back to the reference engine
inside the same call, so ``engine="numpy"`` is always safe to request.

numpy itself is optional (``pip install repro[fast]``); this package
imports without it and reports availability via
:func:`numpy_available`.
"""

from __future__ import annotations

from typing import Optional

from ..context import InstanceContext
from ..model import Instance, Protocol, Prover
from ._np import (MAX_MODULUS_BITS, UnsupportedModulus, mulmod,
                  numpy_available, powmod_column, require_numpy,
                  supported_modulus)
from .base import KernelMismatch, TrialBatch, TrialKernel
from .sym import build_sym_kernel


def find_kernel(protocol: Protocol, instance: Instance, prover: Prover,
                context: InstanceContext) -> Optional[TrialKernel]:
    """The kernel for this triple, or None → reference engine."""
    if not numpy_available():
        return None
    return build_sym_kernel(protocol, instance, prover, context)


__all__ = [
    "KernelMismatch",
    "MAX_MODULUS_BITS",
    "TrialBatch",
    "UnsupportedModulus",
    "TrialKernel",
    "find_kernel",
    "mulmod",
    "numpy_available",
    "powmod_column",
    "require_numpy",
    "supported_modulus",
]
