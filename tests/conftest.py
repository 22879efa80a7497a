"""Shared fixtures: deterministic RNGs and canonical small instances."""

from __future__ import annotations

import random

import pytest

from repro.graphs import (SMALLEST_ASYMMETRIC, complete_graph, cycle_graph,
                          path_graph, rigid_family_exhaustive)


@pytest.fixture
def rng():
    """A fresh deterministic RNG per test."""
    return random.Random(0xC0FFEE)


@pytest.fixture(scope="session")
def rigid6():
    """All 8 connected rigid isomorphism classes on 6 vertices."""
    return rigid_family_exhaustive(6)


@pytest.fixture(scope="session")
def asym6():
    """A single rigid graph on 6 vertices."""
    return SMALLEST_ASYMMETRIC


@pytest.fixture
def cycle8():
    return cycle_graph(8)


@pytest.fixture
def path5():
    return path_graph(5)


@pytest.fixture
def k5():
    return complete_graph(5)


@pytest.fixture
def automorphism_searches():
    """``count(func, *args)``: ``func(*args)`` and how many automorphism
    searches it made.

    Profiled rather than patched, so every call of the one search
    function counts, whatever name its caller imported it under."""
    import cProfile
    import pstats

    from repro.graphs import automorphism
    code = automorphism.find_nontrivial_automorphism.__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)

    def count(func, *args):
        profile = cProfile.Profile()
        result = profile.runcall(func, *args)
        stats = pstats.Stats(profile).stats
        return result, stats[key][1] if key in stats else 0
    return count
