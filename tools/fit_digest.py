"""One sha256 over the benchmark's fits and queries, to show a change keeps every draw.

    python3 tools/fit_digest.py [--seeds 0 1] [--reps 10] [--each] [--parts]

Run from the root of a source checkout; the package is imported from the
checkout's ``src/`` directory, never from an installed copy.  For every
workload of ``BENCHMARK.json``, seed and repetition it builds the panel of
``bench/workloads.py``, fits it, saves and reloads the sample set, then
forecasts and imputes from the reloaded copy as ``bench/measure.py`` does.
The digest covers the panel bytes, each reloaded chain's state payload and
chain stats, the forecast draws, the imputation draws and the dependence
matrix.  Equal digests at two commits mean byte-identical chains and queries.

With ``--each`` it first prints one line per fit: the workload, seed and
repetition, then a separate sha256 of the chain payloads, the chain stats,
the forecast draws, the imputation draws and the dependence matrix, so two
commits' lines name the fit and the part that moved.  With ``--parts`` it
then prints one line per part, ``part=sha256`` over that part of every fit in
order, so a change that moves one part shows it in five lines.  The last line
is the digest either way.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def _import_package() -> None:
    sys.path[:0] = [str(SRC), str(ROOT / "bench")]
    try:
        import trcrp
    except ImportError as exc:
        raise SystemExit(f"fit_digest: cannot import trcrp from {SRC}: {exc}")
    if Path(trcrp.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"fit_digest: imported trcrp from {trcrp.__file__}, not from {SRC}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[0, 1])
    parser.add_argument("--reps", type=int, default=10, help="repetitions 0..REPS-1 per seed")
    parser.add_argument("--each", action="store_true", help="also print one line of part digests per fit")
    parser.add_argument("--parts", action="store_true", help="also print one digest per part over all fits")
    args = parser.parse_args(argv)

    _import_package()
    from trcrp import engine, predict
    from trcrp.model import state_payload
    from workloads import WORKLOADS, build_panel

    names = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    digest = hashlib.sha256()
    part_digests = {}
    with tempfile.TemporaryDirectory() as workdir:
        path = Path(workdir) / "fit.json"
        for name, seed, rep in itertools.product(names, args.seeds, range(args.reps)):
            workload = WORKLOADS[name]
            panel = build_panel(workload, seed, rep)
            config = workload.config(seed, rep)
            engine.save_sampleset(engine.fit(panel, config), config, path)
            loaded, _, _ = engine.load_sampleset(path)
            forecast = predict.forecast(loaded, workload.horizon, workload.forecast_draws, seed)
            imputed = predict.impute(loaded, workload.impute_draws, seed)
            chains = [state_payload(chain) for chain in loaded.chains]
            stats = loaded.provenance["chain_stats"]
            parts = {
                "chains": json.dumps(chains, sort_keys=True).encode(),
                "stats": json.dumps(stats, sort_keys=True).encode(),
                "forecast": forecast.draws.tobytes(),
                "impute": imputed.draws.tobytes(),
                "dependence": predict.dependence_matrix(loaded).tobytes(),
            }
            if args.each:
                sums = " ".join(f"{part}={hashlib.sha256(blob).hexdigest()}" for part, blob in parts.items())
                print(f"{name} seed={seed} rep={rep} {sums}")
            for part, blob in parts.items():
                part_digests.setdefault(part, hashlib.sha256()).update(blob)
            for blob in (
                panel.values.tobytes(),
                panel.observed.tobytes(),
                json.dumps([chains, stats], sort_keys=True).encode(),
                parts["forecast"],
                parts["impute"],
                parts["dependence"],
            ):
                digest.update(blob)
    if args.parts:
        for part, sums in part_digests.items():
            print(f"{part}={sums.hexdigest()}")
    print(digest.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
