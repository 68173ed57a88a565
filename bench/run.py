"""Benchmark of the adasample package: one workload per run.

    python3 bench/run.py --workload train_default --seed 1 --seconds 24 \\
        --trace 0

Run from the repository root. The package is imported from ``src/`` of
this checkout, never from an installed copy.

With ``--trace 0`` the run sets up the inputs ``SETUP_REPEATS`` times,
then repeats timed passes of the workload until ``--seconds`` would be
exceeded (at least one pass), and reports the end-to-end metrics as
medians over the passes. With ``--trace 1`` it wraps the package's public
functions (see ``layers.py``), repeats set-up and one pass traced between
two untraced passes, and reports the per-layer metrics and the tracing
overhead; the traced run ignores ``--seconds``.

Every output check counts as an operation. The last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the exit code is 1 when a check failed and 2 when the program
cannot be imported. A run record (machine, workload properties, metrics)
and, for traced runs, every span are written under ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 3

# End-to-end metrics: (name, unit, better).
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("throughput_per_s", "1/s", "higher"),
    ("evaluate_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
]

# The workloads, and what one unit of throughput_per_s is for each.
THROUGHPUT_NAME = {
    "train_default": "train_pairs_per_s",
    "train_wide_ragged": "train_pairs_per_s",
    "eval_probe": "probe_candidates_per_s",
    "compare_small": "compare_cells_per_s",
}

BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "GOTO_NUM_THREADS",
            "ADASAMPLE_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=list(THROUGHPUT_NAME))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_program() -> float:
    """Import the package from this checkout; returns the import time."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import adasample.cli  # noqa: F401
    except ImportError as exc:
        print(f"cannot import adasample from {ROOT / 'src'}: {exc}",
              file=sys.stderr)
        sys.exit(2)
    import_s = time.perf_counter() - t0
    origin = Path(sys.modules["adasample"].__file__).resolve()
    if ROOT / "src" not in origin.parents:
        print(f"adasample was imported from {origin}, not from this "
              f"checkout", file=sys.stderr)
        sys.exit(2)
    return import_s


def loadavg() -> str:
    try:
        return Path("/proc/loadavg").read_text().strip()
    except OSError:
        return "unavailable"


def machine_record() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        "loadavg_before": loadavg(),
    }


def median(values) -> float:
    return float(statistics.median(values))


def measure(args, workdir, checks) -> tuple[dict, dict]:
    """Untraced run: repeated set-up, then passes until time is up."""
    import workloads
    from workloads import timed
    setups = [timed(workloads.setup, args.workload, args.seed, workdir)
              for _ in range(SETUP_REPEATS)]
    inputs = setups[-1][0]
    checks.check("same seed gives the same inputs",
                 len({s[0].digest for s in setups}) == 1)
    passes = []
    start = time.perf_counter()
    while True:
        result, pass_s = timed(workloads.run_pass, args.workload, inputs,
                               checks, workdir)
        passes.append(result)
        if time.perf_counter() - start + pass_s > args.seconds:
            break
    metrics = {
        "setup_s": args.import_s + median(s[1] for s in setups),
        "throughput_per_s": median(r for p in passes for r in p.rates),
        "evaluate_s": median(t for p in passes for t in p.evaluate_s),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    return metrics, {"passes": len(passes), **inputs.properties}


def trace(args, workdir, checks) -> tuple[dict, dict]:
    """Set-up and a pass traced, between two untraced passes whose mean is
    the untraced wall time the tracing overhead is measured against."""
    import layers
    import tracer as tr
    import workloads
    from workloads import timed

    def one_pass(inputs) -> float:
        return timed(workloads.run_pass, args.workload, inputs, checks,
                     workdir)[1]

    inputs = workloads.setup(args.workload, args.seed, workdir)
    plain_s = [one_pass(inputs)]
    before = tr.snapshot()
    tracer = tr.Tracer()
    try:
        for module, function, count in layers.TRACED:
            tracer.install(module, function,
                           layers.span_name(module, function), count)
        traced_s = one_pass(workloads.setup(args.workload, args.seed,
                                            workdir))
    finally:
        tracer.uninstall()
    changed = tr.changed_attributes(before)
    checks.check("tracer restored every adasample attribute", not changed,
                 changed)
    plain_s.append(one_pass(inputs))
    metrics = layers.layer_metrics(tracer)
    untraced_s = sum(plain_s) / len(plain_s)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_ratio"] = (traced_s - untraced_s) / untraced_s
    tracer.write(OUT / f"spans-{args.workload}-seed{args.seed}.csv.gz")
    return metrics, {"untraced_pass_s": plain_s, "traced_pass_s": traced_s,
                     **inputs.properties}


def print_shares(metrics: dict) -> None:
    import layers
    for name, base in layers.BASELINE_TRAIN_SHARE.items():
        print(f"share {name} = {metrics[name]:.3f} "
              f"(baseline without tracer {base:.2f})")


def main(argv=None) -> int:
    args = parse_args(argv)
    args.import_s = load_program()
    sys.path.insert(0, str(BENCH))
    import workloads
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "machine": machine_record()}
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    checks = workloads.Checks()
    metrics: dict = {}
    try:
        run = trace if args.trace else measure
        metrics, record["properties"] = run(args, workdir, checks)
    except Exception as exc:  # a failed program operation ends the run
        traceback.print_exc()
        checks.check(f"{args.workload} pass", False, repr(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    record["machine"]["loadavg_after"] = loadavg()
    units = dict((n, u) for n, u, _ in END_TO_END)
    if args.trace:
        import layers
        units = dict((n, u) for n, u, _ in layers.PER_LAYER)

    for key, value in record["machine"].items():
        print(f"machine {key} = {value}")
    for key, value in record.get("properties", {}).items():
        print(f"property {key} = {value}")
    for name, value in metrics.items():
        alias = f" ({THROUGHPUT_NAME[args.workload]})" \
            if name == "throughput_per_s" else ""
        print(f"metric {name} = {value!r} {units[name]}{alias}")
    if args.trace and metrics and args.workload == "train_default":
        print_shares(metrics)
    failed = checks.failed
    print(f"metric failed_fraction = {failed / max(checks.attempted, 1)!r} "
          f"({failed} of {checks.attempted} operations)")
    for failure in checks.failures:
        print(f"FAILED {failure}")

    result = {"correct": failed == 0, "attempted": checks.attempted,
              "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    record["result"] = result
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
     ).write_text(json.dumps(record, indent=1, default=str))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
