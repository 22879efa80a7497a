"""Every script under ``examples/`` runs to completion.

Each one is executed in-process as ``__main__`` (what ``python
examples/<name>.py`` does) with its standard output captured, so an
example that imports a removed name or breaks one of its own asserts
fails here rather than going stale unnoticed.
"""

import runpy
from pathlib import Path

import pytest

EXAMPLES = sorted(
    (Path(__file__).resolve().parents[1] / "examples").glob("*.py"))


@pytest.mark.parametrize("path", EXAMPLES, ids=lambda path: path.stem)
def test_example_runs(path, capsys):
    runpy.run_path(str(path), run_name="__main__")
    assert capsys.readouterr().out.strip()
