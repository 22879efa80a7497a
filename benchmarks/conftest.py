"""Shared benchmark fixtures and table-reporting helpers.

Every benchmark here reproduces one experiment from EXPERIMENTS.md.
Alongside the timing (pytest-benchmark's business), each records the
experiment's *result rows* — communication costs, acceptance rates,
implied bounds — in ``benchmark.extra_info`` and prints them, so
``pytest benchmarks/ --benchmark-only -s`` regenerates the tables.

The recording machinery is :class:`repro.obs.BenchRecorder`: every
table is attributed to the bench module that reported it (inferred
from the caller's frame), and at session end one ``BENCH_<name>.json``
summary is flushed per module — ``bench_runner.py`` produces
``BENCH_runner.json``, which is also the legacy CI artifact, so no
separate aggregate is written.

The whole pytest session runs inside a metrics-only observability
session (no span capture — benchmarks loop too hot for that), so each
summary carries the engines' deterministic counters for the work the
module actually did.
"""

from __future__ import annotations

import random
import sys
from contextlib import ExitStack
from pathlib import Path

import pytest

from repro.graphs import rigid_family_exhaustive
from repro.obs import BenchRecorder
from repro.obs import session as obs_session

_BENCH_DIR = Path(__file__).resolve().parent

#: The session's recorder; ``report_table`` delegates to it and
#: ``pytest_sessionfinish`` flushes it — including one normalized
#: trajectory record per module into ``bench_history.jsonl`` (keyed
#: bench id + git sha + quick/full mode), the input to
#: ``python -m repro obs regress``.
_RECORDER = BenchRecorder(
    _BENCH_DIR, history=_BENCH_DIR / "bench_history.jsonl")

#: Holds the session-scoped ambient obs session open between the
#: pytest session hooks.
_OBS = ExitStack()


@pytest.fixture(scope="session")
def rigid6():
    return rigid_family_exhaustive(6)


@pytest.fixture
def rng():
    return random.Random(0xBEEF)


def report_table(benchmark, title, header, rows):
    """Attach a result table to the benchmark and print it.

    ``benchmark`` may be None for plain (non-pytest-benchmark) tests;
    the table still lands in the session mirrors.  The reporting bench
    module is inferred from the caller so the table is filed into the
    right ``BENCH_<name>.json``.
    """
    module = sys._getframe(1).f_globals.get("__name__", "benchmarks")
    print(_RECORDER.report(module, benchmark, title, header, rows))


def _item_module(nodeid):
    return Path(nodeid.split("::", 1)[0]).stem


def pytest_sessionstart(session):
    _OBS.enter_context(obs_session(trace=False))


def pytest_runtest_setup(item):
    # Module-entry mark: the recorder diffs consecutive marks so each
    # history record carries only its own deterministic-counter deltas.
    _RECORDER.enter_module(_item_module(item.nodeid))


def pytest_runtest_logreport(report):
    if report.when == "call":
        _RECORDER.note_duration(_item_module(report.nodeid),
                                report.duration)


def pytest_sessionfinish(session, exitstatus):
    # Flush first: the recorder snapshots the still-active obs session's
    # metrics into each summary.
    _RECORDER.flush()
    _OBS.close()
