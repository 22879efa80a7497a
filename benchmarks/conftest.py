"""Shared benchmark fixtures and table-reporting helpers.

Every benchmark here reproduces one experiment from EXPERIMENTS.md.
Alongside the timing (pytest-benchmark's business), each records the
experiment's *result rows* — communication costs, acceptance rates,
implied bounds — in ``benchmark.extra_info`` and prints them, so
``pytest benchmarks/ --benchmark-only -s`` regenerates the tables.

The recording machinery is :class:`repro.obs.BenchRecorder`: at
session end it appends one record per bench module to
``bench_history.jsonl`` — the one bench record, which ``python -m
repro obs regress`` gates.

The whole pytest session runs inside a metrics-only observability
session (no span capture — benchmarks loop too hot for that), so each
record carries the engines' deterministic counters for the work the
module actually did.
"""

from __future__ import annotations

import random
from contextlib import ExitStack
from pathlib import Path

import pytest

from repro.graphs import rigid_family_exhaustive
from repro.obs import BenchRecorder
from repro.obs import session as obs_session

_BENCH_DIR = Path(__file__).resolve().parent

#: The session's recorder; ``report_table`` delegates to it and
#: ``pytest_sessionfinish`` flushes it: one normalized
#: trajectory record per module into ``bench_history.jsonl`` (keyed
#: bench id + git sha + quick/full mode), the input to
#: ``python -m repro obs regress``.
_RECORDER = BenchRecorder(history=_BENCH_DIR / "bench_history.jsonl")

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
    the table is then only printed.
    """
    print(_RECORDER.report(benchmark, title, header, rows))


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
    # Flush first: the last module's record diffs the still-active obs
    # session's counters.
    _RECORDER.flush()
    _OBS.close()
