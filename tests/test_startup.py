"""Start-up cost guard: the CLI entry point must not import numpy.

``import numpy`` takes a noticeable share of a short CLI run (a
replay-only ``fleet run`` finishes in about half a second), so numpy
is reached only through ``repro.core.kernels._np``, when a numpy-engine
job first needs it.  A module-scope import anywhere on the CLI's import
path would pay that cost on every invocation; this test catches it.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = Path(repro.__file__).resolve().parents[1]


def test_cli_import_leaves_numpy_unloaded():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH"))))
    probe = ("import sys, repro.__main__; "
             "print('numpy' in sys.modules)")
    result = subprocess.run([sys.executable, "-c", probe], env=env,
                            capture_output=True, text=True, timeout=60,
                            check=True)
    assert result.stdout.strip() == "False", result.stderr
