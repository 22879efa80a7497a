"""The observability overhead gate: tracing must be free when off.

Every instrumentation site in :mod:`repro.core.runner` collapses to a
single module-global read when no obs session is installed.  This
benchmark pins that claim with numbers, on Protocol 1 (Sym/dMAM):

* **baseline** — a literal replica of the pre-obs trial loop:
  `run_protocol` per trial with a warm shared context and first-reject
  short-circuiting, no obs call sites at all;
* **disabled** — today's `run_trials` with observability force-disabled
  (`use_session(None)`, guarding against any ambient session the
  conftest installed), *plus* the one :func:`active` read the serve
  request path makes per request (``VerifyService._observe`` returns
  on ``None``).  Gate: at most **3%** slower than baseline, measured
  as the min-of-7 of interleaved timings (min, not mean — the noise
  is all one-sided);
* **enabled** — `run_trials` under a full tracing session, reported for
  context (spans per trial are allowed to cost real time) and checked
  for *correctness*: the session's ``runner/proof_bits`` counter must
  equal the independently recomputed declared cost, and the traced
  accepted count must match the untraced one.

``BENCH_QUICK=1`` shrinks the workload and skips the ratio assertion
(tiny batches are all setup noise); CI runs this module *without*
BENCH_QUICK so the 3% gate is enforced there.
"""

import random
import time

from conftest import report_table

from repro import Instance, run_protocol, run_trials
from repro.core.context import InstanceContext
from repro.graphs import cycle_graph
from repro.lab.quick import pick, quick_mode
from repro.obs import active, flatten_spans
from repro.obs import session as obs_session
from repro.obs import use_session
from repro.protocols import SymDMAMProtocol

QUICK = quick_mode()
N = pick(64, 16)
TRIALS = pick(200, 20)
SEED = 0x0B5
ROUNDS = 7
OVERHEAD_LIMIT = 1.03


def baseline_loop(protocol, instance, prover, context, trials, seed):
    """The pre-obs `_trial_batch` body: warm context, per-trial seed
    streams, first-reject short-circuiting — and zero obs call sites."""
    accepted = 0
    for t in range(trials):
        accepted += run_protocol(
            protocol, instance, prover, random.Random(seed + t),
            context=context, stop_on_first_reject=True).accepted
    return accepted


def test_disabled_overhead(benchmark):
    protocol = SymDMAMProtocol(N)
    instance = Instance(cycle_graph(N))
    prover = protocol.honest_prover()
    context = InstanceContext(instance, protocol)
    context.ensure_validated(protocol)

    # Interleave the two loops so drift (cache state, CPU frequency)
    # hits both sides equally; keep the per-side minimum.  The
    # disabled side also makes the serve request path's session read
    # — with no session it is one None check, inside the same 3%
    # budget.
    baseline_best = disabled_best = float("inf")
    with use_session(None):
        baseline_accepted = baseline_loop(protocol, instance, prover,
                                          context, TRIALS, SEED)
        for _ in range(ROUNDS):
            tick = time.perf_counter()
            accepted = baseline_loop(protocol, instance, prover,
                                     context, TRIALS, SEED)
            baseline_best = min(baseline_best,
                                time.perf_counter() - tick)
            assert accepted == baseline_accepted

            tick = time.perf_counter()
            estimate = run_trials(protocol, instance, prover, TRIALS,
                                  SEED, context=context)
            sess = active()
            disabled_best = min(disabled_best,
                                time.perf_counter() - tick)
            assert estimate.accepted == baseline_accepted
            assert sess is None

        benchmark.pedantic(
            lambda: run_trials(protocol, instance, prover, TRIALS, SEED,
                               context=context),
            rounds=1, iterations=1)

    ratio = disabled_best / baseline_best
    report_table(benchmark,
                 f"obs: disabled-tracer overhead (n={N}, "
                 f"trials={TRIALS}, min of {ROUNDS})",
                 ("engine", "seconds", "vs baseline"),
                 [("baseline loop (no obs sites)",
                   f"{baseline_best:.4f}", "1.000x"),
                  ("run_trials + serve session read, obs disabled",
                   f"{disabled_best:.4f}", f"{ratio:.3f}x")])
    if not QUICK:
        assert ratio <= OVERHEAD_LIMIT, (
            f"disabled-tracer path is {(ratio - 1) * 100:.1f}% over "
            f"baseline (limit {(OVERHEAD_LIMIT - 1) * 100:.0f}%)")


def test_enabled_tracing_correctness(benchmark):
    protocol = SymDMAMProtocol(N)
    instance = Instance(cycle_graph(N))
    prover = protocol.honest_prover()
    context = InstanceContext(instance, protocol)
    context.ensure_validated(protocol)

    with use_session(None):
        untraced = run_trials(protocol, instance, prover, TRIALS, SEED,
                              context=context)

    def traced_run():
        with obs_session() as sess:
            estimate = run_trials(protocol, instance, prover, TRIALS,
                                  SEED, context=context)
        return sess, estimate

    sess, traced = benchmark.pedantic(traced_run, rounds=1, iterations=1)
    assert traced == untraced  # bit-identical estimates

    declared = sum(
        sum(run_protocol(protocol, instance, prover,
                         random.Random(SEED + t), context=context,
                         stop_on_first_reject=True)
            .node_cost_bits.values())
        for t in range(TRIALS))
    metric_bits = sess.metrics.counter("runner/proof_bits").value
    assert metric_bits == declared
    assert sess.metrics.counter("runner/trials").value == TRIALS
    trial_spans = sum(
        row["name"] == "runner.trial"
        for row in flatten_spans(sess.tracer.export()))
    assert trial_spans == TRIALS

    ratio = (traced.elapsed_seconds / untraced.elapsed_seconds
             if untraced.elapsed_seconds else float("nan"))
    report_table(benchmark,
                 f"obs: enabled-tracing cost and bit consistency "
                 f"(n={N}, trials={TRIALS})",
                 ("mode", "seconds", "proof bits", "spans"),
                 [("untraced", f"{untraced.elapsed_seconds:.4f}", "-",
                   0),
                  ("traced", f"{traced.elapsed_seconds:.4f}",
                   metric_bits, trial_spans)])
    assert ratio == ratio  # timed estimates on both sides
