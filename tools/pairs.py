"""Alternating benchmark pairs of two checkouts of adasample.

For each workload, every pair runs ``python3 bench/run.py --workload W
--seed S --seconds T --trace 0`` once in each checkout, one run at a time,
on one seed; the checkout that runs first alternates from pair to pair.
Each run imports the package from its own checkout. The result is written
as JSON in the layout of ``BENCH_18.json``: per workload and end-to-end
metric, the median, quartiles and values of each side, the change's wins
over the pairs, and the relative change of the medians, with the machine
and BLAS-thread fingerprint of the runs. Usage::

    python tools/pairs.py OLD_CHECKOUT NEW_CHECKOUT --out BENCH_25.json \\
        --workload compare_small:10 --workload train_default:6 \\
        --first-seed 2501 --claim compare_small.throughput_per_s

A ``--claim`` names a metric the change claims to improve. It holds when
the change is better in at least nine pairs out of ten and its median is
better than the old median by more than the old runs' interquartile
range; ``--claim WORKLOAD.METRIC:0.15`` also asks for a relative gain of
the medians of at least 15%. The verdict is printed and written under
``claims``. With
``--trace-seed``, each workload also gets one traced run per checkout
(``--trace 1``), whose per-layer metrics go under its ``traced`` key.

Only the standard library is used. Run it with nothing else running on
the machine.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_bench(checkout: Path, workload: str, seed: int, seconds: float,
              trace: int = 0) -> dict:
    """One benchmark run; its result line and run record."""
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=checkout, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} printed "
                           f"nothing (exit {done.returncode})\n{done.stderr}")
    result = json.loads(lines[-1])
    record = json.loads((checkout / ".bench_out" / f"{workload}-seed{seed}"
                         f"-trace{trace}.json").read_text())
    return {"result": result, "record": record}


def quartiles(values: list[float]) -> dict:
    """Median, linearly interpolated quartiles (numpy's default) and the
    values themselves."""
    if len(values) > 1:
        q1, median, q3 = statistics.quantiles(values, n=4,
                                              method="inclusive")
    else:
        q1 = median = q3 = values[0]
    return {"median": median, "q1": q1, "q3": q3, "iqr": q3 - q1,
            "values": values}


def summarize(runs: dict, metrics: list[dict]) -> dict:
    """Per metric, both sides' quartiles, the change's wins over the pairs
    and the relative change of the medians."""
    out = {}
    for metric in metrics:
        name, better = metric["name"], metric["better"]
        values = {side: [r["result"]["metrics"][name]["value"]
                         for r in runs[side]] for side in SIDES}
        wins = sum((new < old) if better == "lower" else (new > old)
                   for old, new in zip(values["parent"], values["change"]))
        stats = {side: quartiles(values[side]) for side in SIDES}
        old = stats["parent"]["median"]
        out[name] = {
            "unit": metric["unit"], "better": better, **stats,
            "change_better_in_pairs": f"{wins} of {len(values['parent'])}",
            "median_change": (stats["change"]["median"] - old) / old,
        }
    return out


def claim_holds(summary: dict, target: float = 0.0) -> bool:
    """Better in at least nine of ten pairs, the median better by more
    than the old runs' interquartile range and by at least ``target``
    relative to the old median."""
    wins, pairs = map(int, summary["change_better_in_pairs"].split(" of "))
    old, new = summary["parent"]["median"], summary["change"]["median"]
    gain = old - new if summary["better"] == "lower" else new - old
    return (wins * 10 >= 9 * pairs and gain > summary["parent"]["iqr"]
            and gain >= target * abs(old))


def blas_threads(machine: dict) -> str:
    env = machine.get("env", {})
    if env:
        return ", ".join(f"{k}={v}" for k, v in sorted(env.items()))
    return (f"OpenBLAS default: no thread variable set, {machine['nproc']} "
            f"CPUs in the affinity set")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", type=Path, help="checkout to compare against")
    parser.add_argument("new", type=Path, help="checkout to check")
    parser.add_argument("--out", type=Path, required=True,
                        help="JSON file to write")
    parser.add_argument("--workload", action="append", required=True,
                        help="WORKLOAD:PAIRS, repeatable")
    parser.add_argument("--first-seed", type=int, required=True,
                        help="seed of the first pair; each pair takes the "
                             "next")
    parser.add_argument("--seconds", type=float, default=26.0)
    parser.add_argument("--claim", action="append", default=[],
                        help="WORKLOAD.METRIC[:RELATIVE_GAIN] the change "
                             "claims, repeatable")
    parser.add_argument("--trace-seed", type=int, default=None,
                        help="seed of one traced run per checkout and "
                             "workload")
    parser.add_argument("--what", default="", help="text for 'what'")
    parser.add_argument("--notes", default="", help="text for 'notes'")
    args = parser.parse_args(argv)
    checkouts = dict(zip(SIDES, (args.old.resolve(), args.new.resolve())))
    spec = json.loads((checkouts["change"] / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]

    seed = args.first_seed
    report: dict = {"what": args.what or (
        f"End-to-end benchmark metrics of {checkouts['parent'].name} "
        f"(parent) and {checkouts['change'].name} (change), from alternating "
        f"pairs of "
        f"`python3 bench/run.py --workload W --seed S --seconds "
        f"{args.seconds:g} --trace 0`, one run at a time; each pair runs one "
        f"seed on both sides, the side that runs first alternating from "
        f"pair to pair."), "notes": args.notes, "workloads": {}}
    machine: dict = {}
    for item in args.workload:
        workload, pairs = item.rsplit(":", 1)
        runs: dict = {side: [] for side in SIDES}
        seeds = []
        for pair in range(int(pairs)):
            order = SIDES if pair % 2 == 0 else SIDES[::-1]
            for side in order:
                runs[side].append(run_bench(checkouts[side], workload, seed,
                                            args.seconds))
            rates = (runs[side][-1]["result"]["metrics"]["throughput_per_s"]
                     ["value"] for side in SIDES)
            print(f"{workload} pair {pair + 1}/{pairs} seed {seed}: "
                  f"throughput parent {next(rates):.4g}, change "
                  f"{next(rates):.4g}", flush=True)
            seeds.append(seed)
            seed += 1
        first = runs["change"][0]["record"]
        machine = {k: v for k, v in first["machine"].items()
                   if not k.startswith("loadavg")}
        report["workloads"][workload] = {
            "seeds": seeds,
            "properties": first.get("properties", {}),
            "failed_operations": {side: sum(r["result"]["failed"]
                                            for r in runs[side])
                                  for side in SIDES},
            "metrics": summarize(runs, metrics),
            "loadavg_before": [r["record"]["machine"]["loadavg_before"]
                               for side in SIDES for r in runs[side]],
        }
        if args.trace_seed is not None:
            report["workloads"][workload]["traced"] = {
                "seed": args.trace_seed,
                **{side: {name: m["value"] for name, m in run_bench(
                    checkouts[side], workload, args.trace_seed,
                    args.seconds, trace=1)["result"]["metrics"].items()}
                   for side in SIDES}}
    report["machine"] = {**machine, "blas_threads": blas_threads(machine)}
    claims = {}
    for item in args.claim:
        claim, _, target = item.partition(":")
        workload, name = claim.split(".", 1)
        summary = report["workloads"][workload]["metrics"][name]
        target = float(target or 0.0)
        claims[claim] = {"holds": claim_holds(summary, target),
                         "target_gain": target,
                         "change_better_in_pairs":
                             summary["change_better_in_pairs"],
                         "median_change": summary["median_change"],
                         "parent_iqr": summary["parent"]["iqr"]}
        verdict = "holds" if claims[claim]["holds"] else "FAILS"
        print(f"claim {claim}: {verdict} ({summary['change_better_in_pairs']}"
              f" pairs, median {100 * summary['median_change']:+.1f}%)")
    if claims:
        report["claims"] = claims
    args.out.write_text(json.dumps(report, indent=1) + "\n")
    failed = sum(w["failed_operations"]["change"]
                 for w in report["workloads"].values())
    return 1 if failed or not all(c["holds"] for c in claims.values()) else 0


if __name__ == "__main__":
    sys.exit(main())
