"""Socket-to-store benchmark for ``python -m repro serve`` and
``python -m repro fleet run``.

Usage (from the repository root)::

    python3 perfbench/run.py --workload serve-http-small --seed 1 \\
        --seconds 12 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json``
with the program untouched.  ``--trace 1`` runs an untraced phase and
a traced phase (the program launched through ``perfbench/shim.py``,
which wraps each layer's public functions) and reports the per-layer
metrics; the traced spans are written as an obs run directory under
``perfbench/out/<workload>-trace/obs`` that
``python -m repro obs report --flame`` renders.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the workload, the seed and the untraced counters.  The exit
code is 1 when any response or merged cell was wrong.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from typing import Dict

from common import OUT_DIR, ROOT, SRC, BenchFailure, emit

WORKLOADS = ("serve-http-small", "serve-ndjson-large", "fleet-sweep")


def _units(section: str) -> Dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {metric["name"]: metric["unit"] for metric in spec[section]}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (SRC / "repro" / "__main__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a checkout "
              f"of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    trace = bool(args.trace)
    out = OUT_DIR / f"{args.workload}-{'trace' if trace else 'plain'}"
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)

    try:
        if args.workload == "fleet-sweep":
            import fleet_load
            metrics, attempted, failed, record = fleet_load.run(
                args.seed, args.seconds, trace, out)
        else:
            import serve_load
            metrics, attempted, failed, record = serve_load.run(
                args.workload, args.seed, args.seconds, trace, out,
                serve_load.Checker())
    except BenchFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if trace:
        units = _units("per_layer")
        record["not_applicable"] = sorted(set(units) - set(metrics))
        for name in record["not_applicable"]:
            metrics[name] = 0.0
        record["obs_run"] = str((out / "obs").relative_to(ROOT))
    else:
        units = _units("end_to_end")
        metrics["ok_ratio"] = (attempted - failed) / attempted
        record["failed_ratio"] = failed / attempted
    record["other"] = {name: value for name, value in metrics.items()
                       if name not in units}
    metrics = {name: value for name, value in metrics.items()
               if name in units}
    return emit(args.workload, args.seed, trace, attempted, failed,
                metrics, units, record)


if __name__ == "__main__":
    sys.exit(main())
