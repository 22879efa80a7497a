"""E9 — Extension: GNI on *general* graphs via automorphism
compensation (the Goldwasser–Sipser fix the paper's Section 4 defers
to its full version).

Regenerates two tables:

1. the collapse of the *base* protocol's set-size gap on symmetric
   inputs, next to the compensated protocol's restored 2n!-vs-n! gap;
2. end-to-end correctness of the compensated protocol on symmetric
   inputs, with the constant-factor cost overhead.
"""

import math
import random

from conftest import report_table

from repro import run_protocol
from repro.graphs import cycle_graph, star_graph
from repro.lab.quick import pick
from repro.protocols import (GeneralGNIProtocol, GNIGoldwasserSipserProtocol,
                             gni_instance, isomorphism_closure_encodings,
                             pair_catalog, per_repetition_success_rate)

RATE_TRIALS = pick(100, 40)
RUNS = pick(6, 4)


def test_gap_collapse_and_restoration(benchmark):
    g0, g1 = star_graph(6), cycle_graph(6)       # both symmetric
    g1_iso = g0.relabel([2, 0, 1, 4, 3, 5])

    def measure():
        rng = random.Random(20)
        base = GNIGoldwasserSipserProtocol(6, repetitions=8)
        general = GeneralGNIProtocol(6, repetitions=8)
        return (
            len(isomorphism_closure_encodings(g0, g1)),
            len(isomorphism_closure_encodings(g0, g1_iso)),
            len(pair_catalog(g0, g1)),
            len(pair_catalog(g0, g1_iso)),
            per_repetition_success_rate(g0, g1, base, RATE_TRIALS, rng),
            per_repetition_success_rate(g0, g1_iso, base, RATE_TRIALS,
                                        rng),
            per_repetition_success_rate(g0, g1, general, RATE_TRIALS, rng),
            per_repetition_success_rate(g0, g1_iso, general, RATE_TRIALS,
                                        rng),
        )

    (base_s_yes, base_s_no, gen_s_yes, gen_s_no,
     base_yes, base_no, gen_yes, gen_no) = benchmark.pedantic(
        measure, rounds=1, iterations=1)
    report_table(
        benchmark,
        "E9: symmetric inputs (star vs cycle) — base vs compensated GNI",
        ("protocol", "|S| YES", "|S| NO", "rate YES", "rate NO", "gap"),
        [("base (Section 4, restricted)", base_s_yes, base_s_no,
          f"{base_yes:.3f}", f"{base_no:.3f}",
          f"{base_yes - base_no:+.3f}"),
         ("compensated (this extension)", gen_s_yes, gen_s_no,
          f"{gen_yes:.3f}", f"{gen_no:.3f}",
          f"{gen_yes - gen_no:+.3f}")])
    assert gen_s_yes == 2 * math.factorial(6)
    assert gen_s_no == math.factorial(6)
    assert abs(base_yes - base_no) < 0.07      # collapsed
    assert gen_yes - gen_no > 0.08             # restored


def test_general_protocol_end_to_end(benchmark):
    protocol = GeneralGNIProtocol(6, repetitions=40)
    yes = gni_instance(star_graph(6), cycle_graph(6))
    no = gni_instance(star_graph(6),
                      star_graph(6).relabel([3, 1, 2, 0, 4, 5]))

    def run_both():
        yes_acc = sum(
            run_protocol(protocol, yes, protocol.honest_prover(),
                         random.Random(i)).accepted for i in range(RUNS))
        no_acc = sum(
            run_protocol(protocol, no, protocol.honest_prover(),
                         random.Random(i)).accepted for i in range(RUNS))
        cost = run_protocol(protocol, yes, protocol.honest_prover(),
                            random.Random(99)).max_cost_bits
        return yes_acc, no_acc, cost

    yes_acc, no_acc, cost = benchmark.pedantic(run_both, rounds=1,
                                               iterations=1)
    guarantee = protocol.guarantees()
    report_table(
        benchmark, "E9: compensated GNI end-to-end (symmetric inputs)",
        ("quantity", "value", "analytic"),
        [("YES runs accepted", f"{yes_acc}/{RUNS}",
          f"completeness {guarantee.completeness:.3f}"),
         ("NO runs accepted", f"{no_acc}/{RUNS}",
          f"soundness err {guarantee.soundness_error:.3f}"),
         ("per-node bits", cost, "Θ(n log n) per repetition")])
    assert yes_acc >= RUNS - 2
    assert no_acc <= 2
