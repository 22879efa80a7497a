"""The numpy import gate and exact modular array arithmetic.

Everything in :mod:`repro.core.kernels` funnels its numpy access
through this module so the rest of the library never imports numpy at
module scope: the package stays importable (and every engine stays
runnable) on a bare interpreter, with ``engine="numpy"`` degrading to
the reference python path.

Exact arithmetic
----------------
The trial kernels evaluate the Theorem-3.2 linear hashes in int64
arrays, so every product must stay below 2⁶³ *before* reduction.
:func:`mulmod` keeps element-wise modular products exact for any
modulus below ``2^41`` by splitting one factor (classic
high/low-limb trick); :data:`MAX_MODULUS_BITS` is the advertised
ceiling kernels check at build time.  Protocol-1 primes sit in
``[10n³, 100n³]``, so the ceiling covers n ≈ 2800 — far beyond what
the python reference engine can reach at all.
"""

from __future__ import annotations

import random
from math import isqrt
from typing import Any, Optional

from ...hashing.primes import UnsupportedModulus

try:  # pragma: no cover - exercised via both CI matrix legs
    import numpy as _numpy
except ImportError:  # pragma: no cover
    _numpy = None

#: The numpy module, or None when the environment lacks it.
np: Optional[Any] = _numpy

#: Largest modulus bit-length mulmod keeps exact in int64.
MAX_MODULUS_BITS = 41

_MISSING_MESSAGE = (
    "the numpy batch engine needs numpy, which is not installed; "
    "install it with `pip install repro[fast]` (or `pip install numpy`) "
    "— run_trials(engine=\"python\") is the dependency-free fallback")


def numpy_available() -> bool:
    """Whether the batch kernels can run at all."""
    return np is not None


def require_numpy() -> Any:
    """Return numpy or raise a clean, actionable ImportError."""
    if np is None:
        raise ImportError(_MISSING_MESSAGE)
    return np


def supported_modulus(p: int) -> bool:
    """Whether int64 kernels stay exact for modulus ``p``."""
    return 2 <= p and p.bit_length() <= MAX_MODULUS_BITS


def mulmod(a: Any, b: Any, p: int) -> Any:
    """Element-wise ``a * b mod p`` on int64 arrays, exactly.

    Inputs must already be reduced mod ``p``.  For ``p < 2³¹`` the
    direct product fits int64; above that, split ``a`` into high/low
    limbs of ``k = 62 - bits(p)`` low bits so every intermediate stays
    below 2⁶³ (valid while ``bits(p) ≤ 41``; see module docstring).
    """
    bits = p.bit_length()
    if bits <= 31:
        return a * b % p
    if bits > MAX_MODULUS_BITS:
        raise UnsupportedModulus(
            f"modulus {p} needs {bits} bits; int64 kernels support "
            f"at most {MAX_MODULUS_BITS} — run_trials(engine=\"python\") "
            f"is the exact big-int fallback")
    k = 62 - bits
    hi = a >> k
    lo = a & ((1 << k) - 1)
    return ((hi * b % p << k) + lo * b) % p


def powmod_column(base: Any, exponent: int, p: int) -> Any:
    """Element-wise ``base ** exponent mod p`` by square-and-multiply.

    ``base`` is an int64 array of residues; the exponent is a shared
    python int (the kernels raise a whole trial batch of seeds to one
    structural exponent, e.g. ``s^n``).
    """
    xp = require_numpy()
    result = xp.ones_like(base)
    acc = base % p
    e = exponent
    while e:
        if e & 1:
            result = mulmod(result, acc, p)
        acc = mulmod(acc, acc, p)
        e >>= 1
    return result


def randrange_batch(rng: random.Random, p: int, count: int) -> Any:
    """``[rng.randrange(p) for _ in range(count)]`` as an int64 array
    (``0 < p < 2⁶³``), read from bulk ``getrandbits`` calls.

    ``randrange(p)`` retries ``getrandbits(bits(p))`` until the value
    is below ``p``.  Each try takes the top bits of one 32-bit Mersenne
    Twister word, or above 32 bits a whole word plus the top bits of
    the next as its high part, and ``getrandbits(32·w)`` returns the
    next ``w`` words, least significant first.  So the draws are the
    first ``count`` candidates below ``p``.  ``rng`` is consumed past
    them and must not be drawn from again.
    """
    xp = require_numpy()
    if not 0 < p < 1 << 63:
        raise ValueError(f"modulus {p} outside (0, 2^63)")
    k = p.bit_length()
    words = 1 if k <= 32 else 2
    out = xp.empty(count, dtype=xp.int64)
    filled = 0
    while filled < count:
        need = count - filled
        # 2^k / p < 2 tries per draw; the margin makes a second call rare.
        batch = (need << k) // p + 4 * isqrt(need) + 8
        raw = xp.frombuffer(rng.getrandbits(32 * words * batch).to_bytes(
            4 * words * batch, "little"), dtype="<u4").astype(xp.int64)
        if words == 1:
            raw >>= 32 - k
        else:
            raw = raw[0::2] | ((raw[1::2] >> (64 - k)) << 32)
        kept = raw[raw < p][:need]
        out[filled:filled + kept.size] = kept
        filled += kept.size
    return out
