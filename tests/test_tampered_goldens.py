"""Tampered golden transcripts for the Goldwasser–Sipser family.

The honest goldens of :mod:`tests.test_golden_transcripts` never reach
``merlin_bits``' escape lane (malformed entries cost 0 bits) or most of
``decide``'s reject paths, and the mutation sweep only checks that the
network rejects.  Here each GNI variant gets two fixed-seed
``TamperingProver`` runs, serialized with ``execution_to_jsonable`` so
every per-node verdict and bit count is pinned byte for byte:

* ``shared`` corrupts a field every variant carries: echo or claims at
  every node (so the broadcast check passes and ``decide`` must catch
  it), or partials at one node;
* ``variant`` corrupts what the variant adds to encode its set S:
  the σ tables in the claims, the automorphism aggregates, or the
  marked labels, counts and z-sums.

Regenerate after an *intentional* change with::

    REGOLD=1 python -m pytest tests/test_tampered_goldens.py

and review the diff like any other code change.
"""

import json
import os
import random
from pathlib import Path

import pytest

from repro.core import TamperingProver, execution_to_jsonable, run_protocol
from repro.graphs import Graph, path_graph, star_graph
from repro.protocols import (GNIDAMProtocol, GNIGoldwasserSipserProtocol,
                             GeneralGNIProtocol, MARK_NONE, MARK_ONE,
                             MARK_ZERO, MarkedGNIProtocol, gni_instance,
                             marked_instance)

GOLDEN_DIR = Path(__file__).parent / "golden" / "tampered"
SEED = 20180723


def _at(index, mutate):
    """Apply ``mutate`` to entry ``index`` of a per-repetition tuple."""
    def apply(value):
        return value[:index] + (mutate(value[index]),) + value[index + 1:]
    return apply


def _target_shift(q):
    """Move an echo entry's GS target ``y`` by one, staying in [q]."""
    def apply(entry):
        return entry[:3] + ((entry[3] + 1) % q,) + entry[4:]
    return apply


def _target_out_of_range(q):
    """Set the echoed target to ``q``: wire-encodable, out of range."""
    def apply(entry):
        return entry[:3] + (q,) + entry[4:]
    return apply


def _drop_last(entry):
    """Cut a tuple short: a malformed entry that costs 0 bits."""
    return entry[:-1]


def _plus_one(value):
    return value + 1


def _negative(_value):
    """Not wire-encodable: the escape lane charges 0 bits."""
    return -1


def _graph_bit_out_of_range(claim):
    return (2,) + claim[1:]


def _swap_first_two(table):
    return (table[1], table[0]) + table[2:]


def _non_permutation(table):
    return (0,) * len(table)


def _as_list(table):
    return list(table)


def _claim_table(position, mutate):
    """Mutate table ``position`` (1 = σ, 2 = α) of a claim tuple."""
    def apply(claim):
        return (claim[:position] + (mutate(claim[position]),)
                + claim[position + 1:])
    return apply


def _chain(*mutators):
    def apply(value):
        for mutate in mutators:
            value = mutate(value)
        return value
    return apply


def _every(n, round_idx, field, mutate):
    return {(round_idx, v, field): mutate for v in range(n)}


def _marked_case():
    graph_edges = [(0, 1), (1, 2), (0, 2), (0, 3),
                   (4, 5), (5, 6), (6, 7), (3, 8), (8, 4)]
    marks = {v: MARK_ZERO for v in range(4)}
    marks.update({v: MARK_ONE for v in range(4, 8)})
    marks[8] = MARK_NONE
    return marked_instance(Graph(9, graph_edges), marks)


def _cases():
    gni_yes = gni_instance(path_graph(4), star_graph(4))
    q = 5
    damam = GNIGoldwasserSipserProtocol(4, repetitions=6, q=q, threshold=0)
    dam = GNIDAMProtocol(4, repetitions=4, q=q, threshold=0)
    general = GeneralGNIProtocol(4, repetitions=4, q=q, threshold=0)
    marked = MarkedGNIProtocol(9, k=4, repetitions=4, q=q, threshold=0)
    return [
        ("gni-damam", "shared", damam, gni_yes, {
            # The echo pin fails only at the root; the unencodable
            # partial fails at node 2 and its tree parent.
            **_every(4, 1, "echo", _at(0, _target_shift(q))),
            (3, 2, "partials"): _at(1, _negative),
        }),
        ("gni-damam", "variant", damam, gni_yes, {
            **_every(4, 1, "claims",
                     _at(0, _claim_table(1, _swap_first_two))),
            **_every(4, 3, "claims", _chain(
                _at(1, _claim_table(1, _non_permutation)),
                _at(2, _claim_table(1, _as_list)))),
        }),
        ("gni-dam", "shared", dam, gni_yes, {
            **_every(4, 1, "echo", _at(3, _target_out_of_range(q))),
            (1, 2, "partials"): _at(0, _plus_one),
        }),
        ("gni-dam", "variant", dam, gni_yes, {
            **_every(4, 1, "claims", _chain(
                _at(0, _graph_bit_out_of_range),
                _at(2, _claim_table(1, _swap_first_two)))),
        }),
        ("gni-general", "shared", general, gni_yes, {
            **_every(4, 3, "echo", _at(0, _drop_last)),
            (1, 3, "partials"): _at(1, _plus_one),
        }),
        ("gni-general", "variant", general, gni_yes, {
            (1, 2, "aut_left"): _at(0, _plus_one),
            (3, 3, "aut_right"): _at(1, _negative),
            **_every(4, 3, "claims",
                     _at(0, _claim_table(2, _swap_first_two))),
        }),
        ("gni-marked", "shared", marked, _marked_case(), {
            **_every(9, 1, "echo", _at(1, _target_shift(q))),
            (3, 5, "partials"): _at(2, _negative),
        }),
        ("gni-marked", "variant", marked, _marked_case(), {
            (1, 1, "labels"): _at(0, lambda _label: 3),
            (1, 3, "count0"): _plus_one,
            (3, 6, "zsums"): _at(1, _plus_one),
            (3, 7, "zsums"): _at(3, _negative),
        }),
    ]


def _serialized(protocol, instance, corruptions):
    prover = TamperingProver(protocol.honest_prover(), corruptions)
    result = run_protocol(protocol, instance, prover, random.Random(SEED))
    payload = execution_to_jsonable(protocol, instance, result)
    return payload, json.dumps(payload, sort_keys=True, indent=2) + "\n"


@pytest.mark.parametrize("label,kind,protocol,instance,corruptions",
                         _cases(),
                         ids=[f"{case[0]}-{case[1]}" for case in _cases()])
def test_tampered_golden(label, kind, protocol, instance, corruptions):
    payload, text = _serialized(protocol, instance, corruptions)
    # Every tampered run corrupts a checked field, so the network
    # must reject; which nodes do is what the golden file pins.
    assert payload["accepted"] is False
    path = GOLDEN_DIR / f"{label}-{kind}.json"
    if os.environ.get("REGOLD"):
        GOLDEN_DIR.mkdir(exist_ok=True)
        path.write_text(text)
        pytest.skip(f"regenerated {path.name}")
    assert path.exists(), (
        f"golden file missing; run REGOLD=1 pytest {__file__}")
    assert path.read_text() == text, (
        f"{label}-{kind}: tampered execution diverged from the golden "
        f"transcript — if the change is intentional, regenerate with "
        f"REGOLD=1 and review the JSON diff")
