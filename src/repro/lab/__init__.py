"""repro.lab — experiment orchestration, result store, and
scaling-law verdicts.

The lab turns the repository's experiments (EXPERIMENTS.md E1–E12)
into declarative, content-addressed data:

* :mod:`repro.lab.spec` — :class:`ExperimentSpec` and the registry;
* :mod:`repro.lab.runner` — sweep execution with resume semantics;
* :mod:`repro.lab.store` — append-only JSONL records under
  ``benchmarks/lab_store/`` plus the benchmark-table recorder;
* :mod:`repro.lab.fitter` — least-squares scaling-law verdicts;
* :mod:`repro.lab.gate` — the ``lab check`` regression gate;
* :mod:`repro.lab.report` — byte-stable markdown projection;
* :mod:`repro.lab.quick` — the shared ``BENCH_QUICK`` switch.
"""

from .fitter import (DEFAULT_MODELS, FitVerdict, MODELS, ModelFit,
                     fit_model, fit_scaling)
from .gate import check_spec, check_specs, render_check
from .quick import quick_mode, pick
from .report import render_lab_report
from .runner import (CellResult, compute_cell, fit_points, run_spec,
                     run_specs, spec_cells)
from .spec import (ExperimentSpec, GRAPHS, PROTOCOLS, PROVERS, REGISTRY,
                   get_spec, get_specs)
from .store import (DETERMINISTIC_FIELDS, ResultStore, cell_key,
                    default_store_root, record_key)

__all__ = [
    "CellResult",
    "DEFAULT_MODELS",
    "DETERMINISTIC_FIELDS",
    "ExperimentSpec",
    "FitVerdict",
    "GRAPHS",
    "MODELS",
    "ModelFit",
    "PROTOCOLS",
    "PROVERS",
    "REGISTRY",
    "ResultStore",
    "cell_key",
    "check_spec",
    "check_specs",
    "compute_cell",
    "default_store_root",
    "fit_model",
    "fit_points",
    "fit_scaling",
    "get_spec",
    "get_specs",
    "pick",
    "quick_mode",
    "record_key",
    "render_check",
    "render_lab_report",
    "run_spec",
    "run_specs",
    "spec_cells",
]
