"""Command line of the end-to-end benchmark.

``python -m benchmarks.e2e run [--workload NAME] [--seed N] [--seconds S]
[--trace 0|1] [--scale full|smoke] [--out DIR]`` runs workloads (all three by
default), prints every metric as ``workload metric value unit`` and, as the
last line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  Each run is appended to ``DIR/results.json`` next to the
server's final ``/stats`` (``stats-<workload>.json``) and, with ``--trace
1``, the traced repetition's spans (``trace-<workload>.json``).  It exits 1
when a check fails and 2 when the checkout holds no program to measure.

``python -m benchmarks.e2e compare BASE.json NEW.json`` prints one verdict
per workload × end-to-end metric and exits 1 on a regression.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
from pathlib import Path

from benchmarks.e2e import ROOT, SINGLE_THREADED_BLAS, SOURCE


def _require_program() -> None:
    """Import the program from this checkout's ``src``, or exit 2."""
    if not (SOURCE / "repro" / "__init__.py").is_file():
        print(f"e2e: no program to measure: {SOURCE / 'repro'} is missing",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SOURCE))
    import repro

    if Path(repro.__file__).resolve().parent != SOURCE / "repro":
        print(f"e2e: imported repro from {repro.__file__}, not {SOURCE}",
              file=sys.stderr)
        raise SystemExit(2)


def _append_results(path: Path, records: list[dict]) -> None:
    runs = json.loads(path.read_text())["runs"] if path.is_file() else []
    path.write_text(json.dumps({"runs": runs + records}, indent=1) + "\n")


def _run(args: argparse.Namespace) -> int:
    _require_program()
    from benchmarks.e2e.harness import run_workload
    from benchmarks.e2e.workloads import workloads

    specs = workloads(args.scale)
    names = args.workload or list(specs)
    unknown = [name for name in names if name not in specs]
    if unknown:
        print(f"e2e: unknown workload(s) {unknown}; choose from {list(specs)}",
              file=sys.stderr)
        return 2
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for name in names:
        record = run_workload(specs[name], args.seed, scale=args.scale,
                              seconds=args.seconds, traced=bool(args.trace), out=out)
        records.append(record)
        print(f"# {name} seed {args.seed}: {record['samples']} replies, inputs "
              f"sha256 {record['inputs_sha256'][:16]}, records {record['records']}")
        for failure in record["failures"]:
            print(f"# CHECK FAILED {name}: {failure}")
        for metric, entry in record["metrics"].items():
            print(f"{name} {metric} {entry['value']:.6g} {entry['unit']}")
    _append_results(out / "results.json", records)

    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{m}": e for r in records for m, e in r["metrics"].items()}
    correct = all(record["correct"] for record in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(record["attempted"] for record in records),
        "failed": sum(record["failed"] for record in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


def _compare(args: argparse.Namespace) -> int:
    from benchmarks.e2e.compare import compare_files

    return compare_files(Path(args.base), Path(args.new), ROOT / "BENCHMARK.json")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m benchmarks.e2e")
    commands = parser.add_subparsers(dest="command", required=True)
    run = commands.add_parser("run", help="run workloads and print their metrics")
    run.add_argument("--workload", action="append",
                     help="workload to run (repeatable; default: all three)")
    run.add_argument("--seed", type=int, default=2015, help="input seed (default 2015)")
    run.add_argument("--seconds", type=float, default=20.0,
                     help="measurement budget of one run (default 20)")
    run.add_argument("--trace", type=int, choices=(0, 1), default=0,
                     help="1: report per-layer metrics from a traced run")
    run.add_argument("--scale", choices=("full", "smoke"), default="full",
                     help="input sizes (smoke: seconds-long check of every path)")
    run.add_argument("--out", default=str(ROOT / ".e2e"),
                     help="directory for results.json, stats and traces")
    run.set_defaults(handler=_run)
    compare = commands.add_parser("compare", help="compare two results files")
    compare.add_argument("base", help="results.json of the parent")
    compare.add_argument("new", help="results.json of the change")
    compare.set_defaults(handler=_compare)
    args = parser.parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":
    os.environ.update(SINGLE_THREADED_BLAS)  # before anything imports numpy
    # SIGTERM becomes SystemExit, so finally blocks stop the server and children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    sys.exit(main())
