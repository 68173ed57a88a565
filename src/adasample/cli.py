"""Command-line entry point.

Commands::

    adasample gen-data  --config cfg --out dataset.adsp
    adasample train     --config cfg --dataset dataset.adsp --out rundir
    adasample evaluate  --config cfg --params p.adnw --dataset d.adsp --out dir
    adasample diagnose  --config cfg --params p.adnw --dataset d.adsp --out dir
    adasample compare   --config cfg --dataset d.adsp --out dir \
                        --strategies 0,10 --seeds 1,2,3,4,5

Exit codes: 0 success, 1 runtime or numeric failure, 2 usage or config
errors. ``--seed`` and ``--lambda`` override the config file.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import evaluation as ev
from . import trainer as tr
from .config import (RunConfig, _parse_lambda, load_run_config, with_lambda,
                     with_seed)
from .data import (Dataset, as_dataset, generate_positives,
                   generate_synthetic, read_dataset, write_dataset)
from .errors import DatasetError, FormatError, NumericError
from .evaluation import evaluate_params, split_holdout
# bound here only for the benchmark's layer trace (ROADMAP items 1 and 9)
from .evaluation import verification_distances  # noqa: F401
from .tensornet import read_params, write_params

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def build_dataset(config: RunConfig) -> Dataset:
    dataset = generate_synthetic(config.dataset)
    if config.expand_to_k:
        rng = np.random.default_rng(
            np.random.SeedSequence([config.dataset.seed, 3]))
        dataset = as_dataset(generate_positives(g, config.expand_to_k, rng,
                                                config.rotation_range)
                             for g in dataset)
    return dataset


def write_metrics_csv(log: list[dict], path) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=tr.METRICS_COLUMNS)
        writer.writeheader()
        writer.writerows(log)


def cmd_gen_data(args) -> int:
    config = load_run_config(args.config, args.seed, args.lam)
    dataset = build_dataset(config)
    write_dataset(dataset, args.out)
    spec = config.dataset
    k = config.expand_to_k or spec.patches_per_class
    print(f"wrote {args.out}: {spec.num_classes} classes x {k} patches of "
          f"{spec.patch_size}x{spec.patch_size} (seed {spec.seed})")
    return EXIT_OK


def cmd_train(args) -> int:
    config = load_run_config(args.config, args.seed, args.lam)
    dataset = read_dataset(args.dataset)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        params, log = tr.train(config.train, dataset)
    except NumericError as exc:
        write_metrics_csv(exc.partial_log, out_dir / "metrics.csv")
        print(f"training aborted: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    write_metrics_csv(log, out_dir / "metrics.csv")
    write_params(params, out_dir / "params.adnw")
    final_loss = log[-1]["mean_loss"] if log else float("nan")
    print(f"final mean loss {final_loss:.6f} "
          f"({len(log)} steps, params in {out_dir / 'params.adnw'})")
    return EXIT_OK


def cmd_evaluate(args) -> int:
    config = load_run_config(args.config, args.seed, args.lam)
    params = read_params(args.params)
    dataset = read_dataset(args.dataset)
    report = evaluate_params(dataset, params, config)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.txt").write_text(report.to_kv_text())
    with open(out_dir / "report.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(report.csv_row()))
        writer.writeheader()
        writer.writerow(report.csv_row())
    print(f"fpr95 = {report.fpr95:.6f}")
    return EXIT_OK


def cmd_diagnose(args) -> int:
    config = load_run_config(args.config, args.seed, args.lam)
    params = read_params(args.params)
    dataset = read_dataset(args.dataset)
    result = ev.info_correlation_probe(
        dataset, params, config.train.metric, ev.eval_rng(config),
        sample_classes=config.eval.probe_classes,
        margin=config.train.margin, neg_mode=config.train.neg_mode)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "probe.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["p_dist", "p_info"])
        writer.writerows(zip(result.p_dist, result.p_info))
    (out_dir / "pearson.txt").write_text(f"pearson = {result.pearson:.6f}\n")
    if result.degenerate:
        print("warning: degenerate probe, correlation undefined",
              file=sys.stderr)
    else:
        print(f"pearson = {result.pearson:.6f}")
    return EXIT_OK


def _compare_cell(config: RunConfig, train_split, holdout,
                  lam: float, seed: int) -> float:
    cell_cfg = with_lambda(with_seed(config, seed), lam)
    params, _ = tr.train(cell_cfg.train, train_split)
    report = evaluate_params(holdout, params, cell_cfg)
    return report.fpr95


def cmd_compare(args) -> int:
    config = load_run_config(args.config, args.seed, args.lam)
    strategies = [_parse_lambda(tok) for tok in args.strategies.split(",")]
    seeds = [int(tok) for tok in args.seeds.split(",")]
    if len(strategies) < 2:
        print("compare needs at least 2 strategies", file=sys.stderr)
        return EXIT_USAGE
    if len(seeds) < 3:
        print("compare needs at least 3 seeds", file=sys.stderr)
        return EXIT_USAGE
    for lam in strategies:
        replace(config.train.sampler, lambda_=lam).validate()
    dataset = read_dataset(args.dataset)
    train_split, holdout = split_holdout(dataset,
                                         config.eval.holdout_fraction)
    results: dict[tuple[float, int], float] = {}
    failures: dict[tuple[float, int], str] = {}
    for lam in strategies:
        for seed in seeds:
            try:
                results[(lam, seed)] = _compare_cell(config, train_split,
                                                     holdout, lam, seed)
            except (NumericError, DatasetError, ValueError) as exc:
                failures[(lam, seed)] = str(exc)

    rows = []
    base = strategies[0]
    base_scores = [results[(base, s)] for s in seeds if (base, s) in results]
    for pos, lam in enumerate(strategies):
        scores = [results[(lam, s)] for s in seeds if (lam, s) in results]
        if not scores:
            rows.append({"lambda": lam, "mean_fpr95": "", "std_fpr95": "",
                         "rel_improvement": "", "p_value": "",
                         "failed_cells": len(seeds)})
            continue
        mean = float(np.mean(scores))
        std = float(np.std(scores))
        if pos == 0 or not base_scores:
            # the first strategy is its own baseline by definition
            rel, p = 0.0, 0.5
        else:
            base_mean = float(np.mean(base_scores))
            rel = (base_mean - mean) / base_mean if base_mean else 0.0
            p = ev.mann_whitney_u(scores, base_scores).p_value
        rows.append({"lambda": lam, "mean_fpr95": mean, "std_fpr95": std,
                     "rel_improvement": rel, "p_value": p,
                     "failed_cells": len(seeds) - len(scores)})

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "compare.csv", "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    print(f"{'lambda':>10}  {'fpr95':>16}  {'rel':>8}  {'p':>8}")
    for row in rows:
        if row["mean_fpr95"] == "":
            print(f"{row['lambda']:>10}  {'failed':>16}")
            continue
        print(f"{row['lambda']:>10g}  "
              f"{row['mean_fpr95']:.4f}±{row['std_fpr95']:.4f}"
              f"{'':>4}  {100 * row['rel_improvement']:>7.2f}%  "
              f"{row['p_value']:>8.3f}")
    if failures:
        for cell, msg in failures.items():
            print(f"cell {cell} failed: {msg}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser, *, dataset=False, params=False,
                out=True) -> None:
    p.add_argument("--config", required=True, help="run config file")
    if dataset:
        p.add_argument("--dataset", required=True, help="ADSP dataset file")
    if params:
        p.add_argument("--params", required=True, help="ADNW params file")
    if out:
        p.add_argument("--out", required=True, help="output path")
    p.add_argument("--seed", type=int, default=None,
                   help="override the config seed")
    p.add_argument("--lambda", dest="lam", type=float, default=None,
                   help="override sampler.lambda")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adasample",
        description="descriptor-learning laboratory with adaptive positive "
                    "sampling")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic dataset")
    _add_common(p)
    p.set_defaults(func=cmd_gen_data)

    p = sub.add_parser("train", help="train a descriptor network")
    _add_common(p, dataset=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("evaluate", help="verification and retrieval metrics")
    _add_common(p, dataset=True, params=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("diagnose", help="informativeness correlation probe")
    _add_common(p, dataset=True, params=True)
    p.set_defaults(func=cmd_diagnose)

    p = sub.add_parser("compare", help="multi-seed strategy comparison")
    _add_common(p, dataset=True)
    p.add_argument("--strategies", default="0,10",
                   help="comma-separated lambda values ('cap' for the "
                        "hardest-positive limit)")
    p.add_argument("--seeds", default="1,2,3,4,5",
                   help="comma-separated run seeds")
    p.set_defaults(func=cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except FileNotFoundError as exc:
        print(f"file error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except (FormatError, DatasetError, NumericError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
