"""Run a ``python -m repro`` command with the layer wrappers installed.

Usage: ``python perfbench/shim.py <trace_dir> <repro arguments...>``,
e.g. ``python perfbench/shim.py out/t serve --stdin``.  The command
runs exactly as ``python -m repro <arguments...>`` would; the spans of
every wrapped call land in ``<trace_dir>/spans-<pid>.jsonl``.
"""

import time

STARTED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402


def main() -> int:
    trace_dir, argv = Path(sys.argv[1]), sys.argv[2:]
    layers.install(trace_dir, argv[0], STARTED)
    from repro.__main__ import main as repro_main
    return repro_main(argv)


if __name__ == "__main__":
    sys.exit(main())
