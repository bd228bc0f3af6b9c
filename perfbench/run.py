"""The repository's benchmark: one workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads are ``prolog-stream``, ``large-corpus`` and ``served-mixed``
(see ``perfbench/README.md``).  The last line of standard output is one
JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` —
the end-to-end metrics with ``--trace 0``, the per-layer metrics of a
separate traced run with ``--trace 1``.  Earlier lines starting with
``#`` carry details (input fingerprints, tail percentiles, sample
counts).  Run it from the root of a checkout; it imports the program
from ``src/`` of that checkout and exits with status 2, printing no
result, when the program is not there.
"""

from __future__ import annotations

import argparse
import gc
import json
import shutil
import signal
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

WORKLOADS = ("prolog-stream", "large-corpus", "served-mixed")


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program under {ROOT / 'src'}; run the benchmark "
              "from the root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    # A terminated run still unwinds, so the finally blocks below stop
    # the server subprocess and remove the scratch directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    import common

    # BENCHMARK.json names every metric a run prints, with its unit.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in spec["per_layer" if args.trace else "end_to_end"]}
    module = {"prolog-stream": "prolog_stream", "large-corpus": "large_corpus",
              "served-mixed": "served_mixed"}[args.workload]
    workload = __import__(module)
    common.STATE_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-",
                                    dir=common.STATE_DIR))
    run = common.Run(args.workload, args.seed, args.seconds,
                     bool(args.trace), workdir)
    try:
        state, setup_s = common.repeated_setup(
            run, lambda: workload.setup(run), getattr(workload, "close", None))
        # The benchmark's own inputs stay resident for the whole run;
        # freezing them keeps the collector from re-scanning them
        # inside timed regions.
        gc.collect()
        gc.freeze()
        try:
            if args.trace:
                values = workload.trace(run, state)
                values["failed_ratio"] = run.failed / max(run.attempted, 1)
                # A layer the workload does not exercise reads 0.
                metrics = {name: (values.get(name, 0.0), unit)
                           for name, unit in units.items()}
            else:
                metrics = workload.measure(run, state)
                metrics["setup_s"] = (setup_s, "s")
            run.check({n: u for n, (_, u) in metrics.items()} == units,
                      f"metrics differ from BENCHMARK.json: {sorted(metrics)}")
        finally:
            if hasattr(workload, "close"):
                workload.close(state)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    run.info(problems=run.problems)
    print(json.dumps({
        "correct": not run.problems and run.failed == 0,
        "attempted": max(run.attempted, 1),
        "failed": run.failed,
        "metrics": {name: {"value": float(value), "unit": unit}
                    for name, (value, unit) in sorted(metrics.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
