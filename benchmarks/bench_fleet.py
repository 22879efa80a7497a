"""Shard-count scaling of the fleet sweep executor.

Runs the same synthetic lab spec through ``run_fleet`` at increasing
shard counts (real forked workers) and reports wall time, per-shard
cell counts, and merge statistics as a result table.  Every
scenario *asserts* the byte-identity contract before reporting a
number: the merged fleet store must match a serial ``run_specs``
baseline on all deterministic fields.

A second scenario measures the recovery path — one shard killed
mid-cell on its first attempt — so the retry/steal overhead is a
tracked number rather than folklore.
"""

import tempfile
import time

import pytest
from conftest import report_table

from repro.fleet import diff_stores, run_fleet
from repro.lab import ResultStore
from repro.lab.quick import pick, quick_mode
from repro.lab.runner import run_specs
from repro.lab.spec import ExperimentSpec

QUICK = quick_mode()
#: Shard counts for the scaling table.
SHARD_COUNTS = (1, 2, 4)

#: One synthetic sweep spec sized so there is real work to spread:
#: enough cells that a 4-way split still has >1 cell per shard, sizes
#: small enough that quick CI stays under a few seconds.
SPEC = ExperimentSpec(
    name="bench-fleet",
    experiment="BENCH",
    title="fleet shard-scaling workload",
    protocol="sym-dmam",
    graph="cycle",
    grid=tuple(pick((16, 24, 32, 48, 64, 96), (8, 12, 16, 20))),
    quick_grid=(8,),
    provers=("honest",),
    trials=pick(4, 2),
    quick_trials=1,
    seed=2018,
)

#: Serial baseline store, built once per session (lazy).
_BASELINE = {}


def _serial_baseline():
    if "store" not in _BASELINE:
        tmp = tempfile.TemporaryDirectory(prefix="bench-fleet-serial-")
        _BASELINE["dir"] = tmp  # keep alive for the session
        store = ResultStore(tmp.name)
        started = time.perf_counter()
        run_specs([SPEC], store, quick=False)
        _BASELINE["wall"] = time.perf_counter() - started
        _BASELINE["store"] = store
    return _BASELINE["store"], _BASELINE["wall"]


def _assert_identical(fleet_store):
    serial, _ = _serial_baseline()
    report = diff_stores([SPEC], serial, fleet_store)
    assert report["ok"], report


def _scenario(shards, kill_shard=None):
    with tempfile.TemporaryDirectory(prefix="bench-fleet-") as tmp:
        store = ResultStore(tmp)
        summary = run_fleet([SPEC], store, shards,
                            kill_shard=kill_shard, backoff=0.05)
        assert summary["ok"], summary
        _assert_identical(store)
        return summary


@pytest.mark.parametrize("shards", SHARD_COUNTS)
def test_fleet_shard_scaling(benchmark, shards):
    serial_store, serial_wall = _serial_baseline()
    summary = benchmark.pedantic(_scenario, args=(shards,),
                                 rounds=1, iterations=1)
    cells = summary["planned"]
    summary = dict(summary, serial_wall=serial_wall,
                   speedup=serial_wall / summary["wall"]
                   if summary["wall"] else 0.0)
    benchmark.extra_info.update(
        {k: v for k, v in summary.items() if k != "store"})
    report_table(
        benchmark,
        f"fleet shard scaling — {shards} shard(s), "
        f"{cells} cells (grid {SPEC.grid}, trials {SPEC.trials})",
        ["metric", "value"],
        [["cells planned", cells],
         ["fleet wall (s)", f"{summary['wall']:.2f}"],
         ["serial wall (s)", f"{serial_wall:.2f}"],
         ["speedup vs serial", f"{summary['speedup']:.2f}x"],
         ["cells/sec", f"{cells / summary['wall']:.2f}"
          if summary["wall"] else "inf"],
         ["waves", len(summary["waves"])],
         ["cells stolen", summary["stolen"]],
         ["cells merged", summary["merged"]["appended"]],
         ["deterministic match", "yes"]])


def test_fleet_recovery_overhead(benchmark):
    """Kill shard 1 after one cell; recovery must stay byte-identical
    and its cost shows up as extra waves, not lost cells."""
    serial_store, serial_wall = _serial_baseline()
    summary = benchmark.pedantic(_scenario, args=(2,),
                                 kwargs={"kill_shard": 1},
                                 rounds=1, iterations=1)
    assert len(summary["waves"]) >= 2, summary["waves"]
    benchmark.extra_info.update(
        {k: v for k, v in summary.items() if k != "store"})
    report_table(
        benchmark,
        "fleet crash recovery — 2 shards, shard 1 killed mid-cell",
        ["metric", "value"],
        [["cells planned", summary["planned"]],
         ["wall (s)", f"{summary['wall']:.2f}"],
         ["serial wall (s)", f"{serial_wall:.2f}"],
         ["waves to converge", len(summary["waves"])],
         ["shards died (wave 0)", len(summary["waves"][0]["failed"])],
         ["cells stolen", summary["stolen"]],
         ["deterministic match", "yes"]])
