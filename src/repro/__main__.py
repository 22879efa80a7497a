"""Command-line demos: ``python -m repro <command>``.

Commands
--------
``sym``        Run Protocol 1 on a symmetric graph and a cheating
               prover on a rigid one (Theorem 1.1 in two runs).
``separation`` Print the DSym dAM-vs-LCP cost table (Theorem 1.2).
``gni``        Run the distributed Goldwasser–Sipser audit
               (Theorem 1.5; add ``--general`` for symmetric inputs).
``certify``    Run the adversarial soundness certification battery
               (exact game values, search adversaries, and
               Clopper-Pearson bounds; ``--json`` for machine output).
``lowerbound`` Print the packing table of Theorem 1.4.
``costs``      Per-node cost of every protocol at a chosen size.
``lab``        Experiment orchestration: ``lab run`` records E1–E14
               cells into the result store, ``lab check`` is the
               regression gate, ``lab report`` regenerates tables.
``netsim``     Message-passing substrate: ``netsim run`` is the
               equivalence gate plus the wire-cost audit, ``netsim
               faults`` the fault-injection matrix with analytic
               detection bounds.
``obs``        Observability: ``obs record`` executes the golden
               battery under tracing (and gates trace bit counters
               against declared costs), ``obs report``/``obs top``
               render a recorded run (``obs report --flame`` the full
               span hierarchy), ``obs diff`` compares two runs.
``ledger``     Symbolic cost ledger: ``ledger check`` asserts every
               declared per-phase/per-channel bound against the
               measured bits in the committed store (the theorem
               gate), ``ledger table`` regenerates docs/COSTS.md,
               ``ledger fit`` prints the fitted leading constants.
``serve``      Long-running verification service: jobs over HTTP or
               ndjson stdin, batched onto the trial engines with
               admission control and a shared instance cache
               (``--smoke N`` runs the in-process self-test).
``fleet``      Sharded scale-out sweeps: ``fleet run`` partitions the
               lab grids over worker shards with lease-logged crash
               recovery and merges the shard stores, ``fleet status``
               shows per-shard progress, ``fleet diff`` asserts two
               stores agree on every deterministic field.
"""

from __future__ import annotations

import argparse
import math
import random
import sys


def cmd_sym(args: argparse.Namespace) -> int:
    from repro import Instance, SymDMAMProtocol, run_protocol
    from repro.core.runner import run_trials
    from repro.graphs import SMALLEST_ASYMMETRIC, cycle_graph
    from repro.protocols import CommittedMappingProver

    rng = random.Random(args.seed)
    graph = cycle_graph(args.n)
    protocol = SymDMAMProtocol(graph.n)
    result = run_protocol(protocol, Instance(graph),
                          protocol.honest_prover(), rng)
    print(f"YES ({args.n}-cycle): accepted={result.accepted} "
          f"cost={result.max_cost_bits} bits/node")

    rigid = SMALLEST_ASYMMETRIC
    protocol6 = SymDMAMProtocol(rigid.n)
    cheater = CommittedMappingProver(protocol6)
    estimate = run_trials(protocol6, Instance(rigid), cheater,
                          args.trials, 0, workers=args.workers)
    print(f"NO (rigid 6-vertex graph): cheater fooled the network "
          f"{estimate.accepted}/{args.trials} times "
          f"(bound m/p = {protocol6.family.collision_bound:.4f})")
    return 0


def cmd_separation(args: argparse.Namespace) -> int:
    from repro import Instance, run_protocol
    from repro.core.runner import run_trials
    from repro.graphs import DSymLayout, cycle_graph, dsym_graph
    from repro.protocols import DSymDAMProtocol, DSymLCP

    rng = random.Random(args.seed)
    print(f"{'N':>6} {'LCP bits':>10} {'dAM bits':>10} {'gap':>8}")
    inner = 6
    last = None
    while 2 * inner + 5 <= args.n:
        layout = DSymLayout(inner, 2)
        graph = dsym_graph(cycle_graph(inner), 2)
        instance = Instance(graph)
        lcp, dam = DSymLCP(layout), DSymDAMProtocol(layout)
        lcp_cost = run_protocol(lcp, instance, lcp.honest_prover(),
                                rng).max_cost_bits
        dam_cost = run_protocol(dam, instance, dam.honest_prover(),
                                rng).max_cost_bits
        print(f"{layout.total_n:>6} {lcp_cost:>10} {dam_cost:>10} "
              f"{lcp_cost / dam_cost:>7.1f}x")
        last = (dam, instance, layout.total_n)
        inner *= 2
    if last is not None and args.trials > 0:
        dam, instance, total_n = last
        estimate = run_trials(dam, instance, dam.honest_prover(),
                              args.trials, args.seed,
                              workers=args.workers)
        print(f"dAM acceptance at N={total_n}: "
              f"{estimate.accepted}/{args.trials} honest runs accepted")
    return 0


def cmd_gni(args: argparse.Namespace) -> int:
    from repro import run_protocol
    from repro.core.runner import run_trials
    from repro.graphs import cycle_graph, rigid_family_exhaustive, star_graph
    from repro.protocols import (GNIGoldwasserSipserProtocol,
                                 GeneralGNIProtocol, gni_instance)

    if args.general:
        protocol = GeneralGNIProtocol(6, repetitions=args.repetitions)
        g0, g1 = star_graph(6), cycle_graph(6)
        kind = "general (symmetric inputs allowed)"
    else:
        family = rigid_family_exhaustive(6, max_size=2)
        protocol = GNIGoldwasserSipserProtocol(
            6, repetitions=args.repetitions)
        g0, g1 = family[0], family[1]
        kind = "base (asymmetric inputs, as in the paper's Section 4)"
    guarantee = protocol.guarantees()
    print(f"protocol: {kind}")
    print(f"  t={guarantee.repetitions} threshold={guarantee.threshold} "
          f"completeness={guarantee.completeness:.3f} "
          f"soundness_error={guarantee.soundness_error:.3f}")

    runs = args.runs
    for label, second in (("YES (non-isomorphic)", g1),
                          ("NO (relabeled copy)",
                           g0.relabel([2, 0, 1, 4, 3, 5]))):
        instance = gni_instance(g0, second)
        # run_trials seeds trial t with Random(seed + t) — the exact
        # per-run streams the serial loop used — so worker count never
        # changes the accept counts.
        estimate = run_trials(protocol, instance,
                              protocol.honest_prover(), runs, args.seed,
                              workers=args.workers)
        cost = run_protocol(instance=instance, protocol=protocol,
                            prover=protocol.honest_prover(),
                            rng=random.Random(args.seed)).max_cost_bits
        print(f"  {label}: accepted {estimate.accepted}/{runs} runs, "
              f"cost={cost} bits/node")
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    from repro.adversary import (certification_jsonable,
                                 render_certification,
                                 render_solver_checks,
                                 standard_certification)

    payload = standard_certification(
        seed=args.seed, trials=args.trials, alpha=args.alpha,
        workers=args.workers,
        sections=args.sections or None)
    if args.json:
        import json
        print(json.dumps(certification_jsonable(payload), indent=2,
                         sort_keys=True))
    else:
        for report in payload["reports"]:
            print("\n".join(render_certification(report)))
        if payload["solver_checks"] is not None:
            print("\n".join(render_solver_checks(
                payload["solver_checks"])))
        print(f"overall: {'CERTIFIED' if payload['all_certified'] else 'NOT CERTIFIED'}")
    return 0 if payload["all_certified"] else 1


def cmd_lowerbound(args: argparse.Namespace) -> int:
    from repro.lowerbound import lower_bound_table

    sizes = [6, 10, 100, 10 ** 4, 10 ** 6, 10 ** 9]
    print(f"{'inner n':>10} {'log2|F|':>14} {'min L':>6} {'loglog N':>9}")
    for row in lower_bound_table(sizes):
        print(f"{row.inner_n:>10} {row.log2_family_size:>14.1f} "
              f"{row.min_simple_length:>6} {row.loglog_n:>9.2f}")
    return 0


def cmd_costs(args: argparse.Namespace) -> int:
    from repro import Instance, run_protocol
    from repro.graphs import cycle_graph
    from repro.protocols import SymDAMProtocol, SymDMAMProtocol, SymLCP

    rng = random.Random(args.seed)
    n = args.n
    instance = Instance(cycle_graph(n))
    print(f"per-node bits for Sym at n={n}:")
    for protocol in (SymDMAMProtocol(n), SymDAMProtocol(n), SymLCP(n)):
        cost = run_protocol(protocol, instance, protocol.honest_prover(),
                            rng).max_cost_bits
        print(f"  {protocol.name:>10}: {cost:>8} "
              f"({cost / math.log2(n):.1f} per log2 n)")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Interactive distributed proofs (PODC 2018) demos")
    parser.add_argument("--seed", type=int, default=2018)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sym", help="Protocol 1 demo (Theorem 1.1)")
    p.add_argument("--n", type=int, default=16)
    p.add_argument("--trials", type=int, default=100)
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for the cheater trials")
    p.set_defaults(func=cmd_sym)

    p = sub.add_parser("separation",
                       help="DSym dAM vs LCP cost table (Theorem 1.2)")
    p.add_argument("--n", type=int, default=200,
                   help="largest network size")
    p.add_argument("--trials", type=int, default=8,
                   help="honest acceptance trials at the largest size "
                        "(0 disables)")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for the acceptance trials")
    p.set_defaults(func=cmd_separation)

    p = sub.add_parser("gni", help="Goldwasser-Sipser GNI (Theorem 1.5)")
    p.add_argument("--repetitions", type=int, default=40)
    p.add_argument("--runs", type=int, default=5,
                   help="independent executions per side")
    p.add_argument("--general", action="store_true",
                   help="automorphism-compensated variant")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for the per-side runs")
    p.set_defaults(func=cmd_gni)

    p = sub.add_parser(
        "certify",
        help="adversarial soundness certification (Clopper-Pearson)")
    p.add_argument("--trials", type=int, default=60,
                   help="Monte-Carlo trials per (instance, adversary)")
    p.add_argument("--alpha", type=float, default=0.01,
                   help="per-bound confidence level")
    p.add_argument("--workers", type=int, default=1,
                   help="worker processes for trial batches")
    p.add_argument("--sections", nargs="*", metavar="SECTION",
                   choices=["sym-dmam", "sym-dam", "dsym", "gni",
                            "solver"],
                   help="battery sections to run (default: all)")
    p.add_argument("--json", action="store_true",
                   help="machine-readable output")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("lowerbound",
                       help="packing table (Theorem 1.4)")
    p.set_defaults(func=cmd_lowerbound)

    p = sub.add_parser("costs", help="protocol cost comparison")
    p.add_argument("--n", type=int, default=32)
    p.set_defaults(func=cmd_costs)

    from repro.lab.cli import add_lab_parser
    add_lab_parser(sub)

    from repro.netsim.cli import add_netsim_parser
    add_netsim_parser(sub)

    from repro.obs.cli import add_obs_parser
    add_obs_parser(sub)

    from repro.ledger.cli import add_ledger_parser
    add_ledger_parser(sub)

    from repro.serve.cli import add_serve_parser
    add_serve_parser(sub)

    from repro.fleet.cli import add_fleet_parser
    add_fleet_parser(sub)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
