"""Benchmark entry point for the trcrp package.

    python3 bench/run.py --workload fit_mh --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout.  The package is imported from the
checkout's ``src/`` directory, never from an installed copy.  Workloads,
metric names and units are listed in ``BENCHMARK.json``.  The last line of
standard output is one JSON object:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {name: {"value", "unit"}}}``
with the end-to-end metrics when ``--trace 0`` and the per-layer metrics when
``--trace 1``.  Progress and failures go to standard error.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package() -> None:
    sys.path.insert(0, str(SRC))
    try:
        import trcrp
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import trcrp from {SRC}: {exc}")
    if Path(trcrp.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"bench: imported trcrp from {trcrp.__file__}, not from {SRC}")


def _metric_units(spec: dict, trace: bool) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    _import_package()
    import measure
    from workloads import WORKLOADS

    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-") as workdir:
        result = measure.run(
            WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), Path(workdir)
        )

    units = _metric_units(spec, bool(args.trace))
    unknown = sorted(set(result["metrics"]) - set(units))
    if unknown:
        raise SystemExit(f"bench: metrics missing from BENCHMARK.json: {unknown}")
    missing = sorted(set(units) - set(result["metrics"]))
    if missing:
        print(f"bench: no value for {missing}; reported as 0", file=sys.stderr)
    result["metrics"] = {
        name: {"value": float(result["metrics"].get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
