"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 e2ebench/run.py --workload sign-bulk --seed 1 --trace 0
    python3 e2ebench/run.py --workload ledger-ingest --spread 5

``--trace 0`` prints every end-to-end metric, ``--trace 1`` every
per-layer metric of a separate traced run.  ``--seconds`` scales the
fixed operation counts (see ``e2ebench/config.py``); it never bounds a
loop by time.  ``--spread K`` runs the workload K times with seeds
``seed .. seed+K-1`` and prints, per metric, the median, the quartiles
and the spreads beside the bound ``BENCHMARK.json`` gives it.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code
is 0 only when every output checked out; the command refuses to run
(code 2, no result) when the checkout holds no ``src/repro`` to build.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("sign-bulk", "serve-mixed", "ledger-ingest")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spread", type=int, default=0, metavar="K",
                        help="run K seeds and report the spread")
    return parser.parse_args(argv)


def _git_sha() -> str:
    if shutil.which("git") is None:
        return "unknown"
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def provenance(workload: str, seed: int, config) -> dict:
    from .config import config_hash
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = "absent"
    return {"git_sha": _git_sha(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy_version,
            "workload": workload, "seed": seed,
            "config_hash": config_hash(config)}


def _per_layer(workload: str, outcome, tracer) -> tuple[dict, list]:
    from . import layers, spans
    from .harness import TRACE_DIR

    files = [spans.load(path) for path in outcome.info.get("trace_files", ())]
    path = tracer.dump(TRACE_DIR / f"{workload}.trace")
    files.insert(0, spans.load(path))
    reductions = [spans.reduce(records, names, phases,
                               keep_durations=layers.KEEP_DURATIONS,
                               keep_requests=layers.KEEP_REQUESTS)
                  for records, names, phases in files]
    view = layers.View(reductions, layers.TIMED_PHASES[workload],
                       outcome.info.get("overhead_share", 0.0))
    values, problems = layers.compute(workload, view)
    units = {metric.name: metric.unit for metric in layers.METRICS}
    return {name: (value, units[name]) for name, value in values.items()}, \
        problems


def run_once(args) -> int:
    from . import config as configs
    from . import layers, spans
    from .ledger_ingest import run as ledger_ingest
    from .serve_mixed import run as serve_mixed
    from .sign_bulk import run as sign_bulk

    runners = {"sign-bulk": sign_bulk, "serve-mixed": serve_mixed,
               "ledger-ingest": ledger_ingest}
    seconds = args.seconds or configs.REFERENCE_SECONDS
    config = configs.scaled(configs.CONFIGS[args.workload], seconds)
    print(json.dumps({"provenance": provenance(args.workload, args.seed,
                                               config)}))
    tracer = None
    if args.trace:
        tracer = layers.install(spans.Tracer())
        tracer.enabled = True
    try:
        outcome = runners[args.workload](config, args.seed, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    metrics, problems = outcome.metrics, []
    if tracer is not None:
        metrics, problems = _per_layer(args.workload, outcome, tracer)
    rationale = {metric.name: f"moves {metric.moves}; produced on "
                 f"{', '.join(metric.on) or 'every workload'}"
                 for metric in layers.METRICS} if tracer is not None else {}
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{name:32s} {value:14.6g} {unit:8s} {rationale.get(name, '')}")
    for line in outcome.failures + problems:
        print(f"FAILED {line}", file=sys.stderr)
    info = {key: value for key, value in outcome.info.items()
            if key != "trace_files"}
    print(json.dumps({"info": info, "attempted_by_phase": outcome.attempted,
                      "failed_by_phase": outcome.failed}))
    correct = outcome.total_failed == 0 and not problems
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.total_attempted,
        "failed": outcome.total_failed + len(problems),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if correct else 1


def run_spread(args) -> int:
    from .stats import spread

    bounds = {}
    benchmark = ROOT / "BENCHMARK.json"
    if benchmark.exists():
        spec = json.loads(benchmark.read_text())
        bounds = {metric["name"]: metric.get("bound")
                  for metric in spec["end_to_end"] + spec["per_layer"]}
    values: dict[str, list[float]] = {}
    correct = True
    for offset in range(args.spread):
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", args.workload,
                   "--seed", str(args.seed + offset),
                   "--trace", str(args.trace)]
        if args.seconds:
            command += ["--seconds", str(args.seconds)]
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {"correct": False,
                                                      "metrics": {}}
        correct = correct and done.returncode == 0 and result["correct"]
        print(f"seed {args.seed + offset}: exit {done.returncode}, "
              f"correct {result['correct']}", file=sys.stderr)
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
    rows = {}
    for name, series in sorted(values.items()):
        row = spread(series)
        row["bound"] = bounds.get(name)
        row["values"] = series
        rows[name] = row
        bound = "-" if row["bound"] is None else f"{row['bound']:.3f}"
        print(f"{name:32s} median {row['median']:12.6g}  q1 "
              f"{row['q1']:12.6g}  q3 {row['q3']:12.6g}  iqr "
              f"{row['iqr_share']:7.4f}  max-dev {row['max_dev_share']:7.4f}"
              f"  bound {bound}")
    print(json.dumps({"workload": args.workload, "runs": args.spread,
                      "correct": correct, "spread": rows}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no source tree at {ROOT / 'src' / 'repro'}; "
              "run from the root of a full checkout", file=sys.stderr)
        return 2
    for path in (ROOT / "src", ROOT):
        if str(path) not in sys.path:
            sys.path.insert(0, str(path))
    if args.spread:
        return run_spread(args)
    return run_once(args)


if __name__ == "__main__":
    if __package__ in (None, ""):
        # Run as a script: put the checkout root (not this directory) on
        # the path and re-enter as the package module.
        sys.path[0] = str(ROOT)
        from e2ebench.run import main as package_main
        sys.exit(package_main())
    sys.exit(main())
