"""Reject-path golden transcripts for the commit-hash-aggregate family.

The honest goldens of :mod:`tests.test_golden_transcripts` never reach
a reject, and the mutation sweep only checks that the network rejects.
Here Protocols 1 and 2, the fixed-map protocol and DSym each get
fixed-seed runs that fail, serialized with ``execution_to_jsonable``
so every per-node verdict and bit count is pinned byte for byte:

* ``replay`` replays an honest run recorded at another seed: only the
  root's echo check can catch it;
* ``echo`` shifts the echoed seed at every node (so the broadcast
  check passes and ``decide`` must catch it);
* ``aggregates`` shifts one non-root ``a`` and sends the root an
  unencodable ``b``;
* ``rho`` moves ρ at one node (Protocol 1); ``rho-table`` swaps two
  entries of the broadcast table at every node (Protocol 2);
* the cheaters play a smallest asymmetric graph under the p = 37
  ablation family: a committed swap, a fixed-map σ that is not an
  automorphism, and the adaptive collision search.  One committed run
  is seeded to hit a collision and accept.

Regenerate after an *intentional* change with::

    REGOLD=1 python -m pytest tests/test_sym_goldens.py

and review the diff like any other code change.
"""

import json
import os
import random
from pathlib import Path

import pytest

from repro.core import (Instance, ReplayProver, TamperingProver,
                        execution_to_jsonable, record_responses,
                        run_protocol)
from repro.graphs import (SMALLEST_ASYMMETRIC, DSymLayout, cycle_graph,
                          dsym_graph)
from repro.hashing import LinearHashFamily
from repro.protocols import (CommittedMappingProver, DSymDAMProtocol,
                             FixedMappingProtocol, SymDAMProtocol,
                             SymDMAMProtocol)
from repro.protocols.fixed_map import ForcedMappingProver
from repro.protocols.sym_dam import (AdaptiveCollisionProver,
                                     CommittedDAMProver)

GOLDEN_DIR = Path(__file__).parent / "golden" / "sym"
SEED = 20180723
#: The first seed after SEED at which the committed swap collides.
COLLISION_SEED = SEED + 6
#: Every tree root here is vertex 0: the smallest vertex the cycles'
#: automorphisms move, the fixed-map default and ``DSYM_ROOT``.
ROOT = 0
ABLATION = LinearHashFamily(m=36, p=37)
#: Swaps vertices 0 and 1, which SMALLEST_ASYMMETRIC does not allow.
NOT_AN_AUTOMORPHISM = (1, 0, 2, 3, 4, 5)


def _shift(p):
    def apply(value):
        return (value + 1) % p
    return apply


def _negative(_value):
    """Not wire-encodable: the escape lane charges 0 bits."""
    return -1


def _swap_first_two(table):
    return (table[1], table[0]) + table[2:]


def _every(n, round_idx, field, mutate):
    return {(round_idx, v, field): mutate for v in range(n)}


def _honest_cases():
    """(label, protocol, instance, Merlin round carrying the seed echo
    and the aggregates) — the honest golden configurations."""
    rotation = tuple((v + 1) % 8 for v in range(8))
    return [
        ("sym-dmam", SymDMAMProtocol(8), Instance(cycle_graph(8)), 2),
        ("sym-dam", SymDAMProtocol(6), Instance(cycle_graph(6)), 1),
        ("fixed-map", FixedMappingProtocol(rotation),
         Instance(cycle_graph(8)), 1),
        ("dsym-dam", DSymDAMProtocol(DSymLayout(6, 2)),
         Instance(dsym_graph(cycle_graph(6), 2)), 1),
    ]


def _replay(protocol, instance):
    recorded = record_responses(protocol, instance,
                                protocol.honest_prover(),
                                random.Random(SEED + 1))
    return ReplayProver(recorded)


def _tampered(protocol, corruptions):
    return lambda: TamperingProver(protocol.honest_prover(), corruptions)


def _cases():
    """(label, kind, protocol, instance, prover factory, seed)."""
    cases = []
    for label, protocol, instance, round_idx in _honest_cases():
        p = protocol.family.p
        n = instance.n
        cases += [
            (label, "replay", protocol, instance,
             lambda protocol=protocol, instance=instance:
             _replay(protocol, instance), SEED),
            (label, "echo", protocol, instance,
             _tampered(protocol, _every(n, round_idx, "seed", _shift(p))),
             SEED),
            (label, "aggregates", protocol, instance,
             _tampered(protocol, {(round_idx, 3, "a"): _shift(p),
                                  (round_idx, ROOT, "b"): _negative}),
             SEED),
        ]
    dmam, dam, _, _ = (case[1] for case in _honest_cases())
    cases += [
        ("sym-dmam", "rho", dmam, Instance(cycle_graph(8)),
         _tampered(dmam, {(0, 2, "rho"): lambda rho: (rho + 3) % 8}),
         SEED),
        ("sym-dam", "rho-table", dam, Instance(cycle_graph(6)),
         _tampered(dam, _every(6, 1, "rho_table", _swap_first_two)),
         SEED),
    ]
    rigid = Instance(SMALLEST_ASYMMETRIC)
    small_dmam = SymDMAMProtocol(6, family=ABLATION)
    small_dam = SymDAMProtocol(6, family=ABLATION)
    forced = FixedMappingProtocol(NOT_AN_AUTOMORPHISM, family=ABLATION)
    cases += [
        ("sym-dmam", "committed", small_dmam, rigid,
         lambda: CommittedMappingProver(small_dmam), COLLISION_SEED),
        ("sym-dam", "committed", small_dam, rigid,
         lambda: CommittedDAMProver(small_dam, NOT_AN_AUTOMORPHISM), SEED),
        ("sym-dam", "adaptive", small_dam, rigid,
         lambda: AdaptiveCollisionProver(small_dam), SEED),
        ("fixed-map", "forced", forced, rigid,
         lambda: ForcedMappingProver(forced), SEED),
    ]
    return cases


def _serialized(protocol, instance, make_prover, seed):
    result = run_protocol(protocol, instance, make_prover(),
                          random.Random(seed))
    payload = execution_to_jsonable(protocol, instance, result)
    return payload, json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("label,kind,protocol,instance,make_prover,seed",
                         _cases(),
                         ids=[f"{case[0]}-{case[1]}" for case in _cases()])
def test_sym_golden(label, kind, protocol, instance, make_prover, seed):
    payload, text = _serialized(protocol, instance, make_prover, seed)
    rejecting = sorted(int(v) for v, ok in payload["decisions"].items()
                       if not ok)
    if kind == "replay":
        # The replayed run is self-consistent under the old seed, so
        # every check passes except the root's echo.
        assert rejecting == [ROOT]
    elif kind == "committed" and seed == COLLISION_SEED:
        assert payload["accepted"] is True
    elif kind != "adaptive":
        # The adaptive search wins on most seeds at p = 37; every
        # other run corrupts a checked field or commits to a
        # non-automorphism off its collision seeds.
        assert payload["accepted"] is False
    path = GOLDEN_DIR / f"{label}-{kind}.json"
    if os.environ.get("REGOLD"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text)
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"golden file missing; run REGOLD=1 pytest {__file__}")
    assert path.read_text() == text, (
        f"{label}-{kind}: execution diverged from the golden transcript "
        f"— if the change is intentional, regenerate with REGOLD=1 and "
        f"review the JSON diff")
