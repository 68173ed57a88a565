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
from typing import NamedTuple

import numpy as np

from . import evaluation as ev
from . import stream
from . import trainer as tr
from .config import (RunConfig, _parse_lambda, load_run_config,
                     substream_seed, with_lambda, with_seed)
from .data import (Dataset, as_dataset, generate_positives,
                   generate_synthetic, read_dataset, write_dataset)
from .errors import DatasetError, FormatError, NumericError
from .metricspace import _paired, paired_distances
from .tensornet import forward, read_params, write_params

EXIT_OK = 0
EXIT_RUNTIME = 1
EXIT_USAGE = 2


def _eval_rng(config: RunConfig) -> np.random.Generator:
    return np.random.default_rng(substream_seed(config.seed, "eval"))


def build_dataset(config: RunConfig) -> Dataset:
    dataset = generate_synthetic(config.dataset)
    if config.expand_to_k:
        rng = np.random.default_rng(
            np.random.SeedSequence([config.dataset.seed, 3]))
        dataset = as_dataset(generate_positives(g, config.expand_to_k, rng,
                                                config.rotation_range)
                             for g in dataset)
    return dataset


def verification_distances(descs: np.ndarray, offsets: np.ndarray, kind,
                           num_pairs: int, rng: np.random.Generator
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Distances of the matching and the non-matching pairs of the rows
    of ``descs`` that :func:`verification_pairs` draws, bit for bit as
    its per-pair loop of ``rng`` calls would (see :mod:`adasample.stream`
    for the facts of numpy's stream this rests on).

    No command calls it: evaluation draws through :func:`evaluation_plan`.
    It stays because the tests call it and the benchmark's layer trace
    names it."""
    rows = verification_pairs(offsets, num_pairs, rng)
    d = paired_distances(descs[rows[0]], descs[rows[1]], kind)
    return d[:num_pairs], d[num_pairs:]


def verification_pairs(offsets: np.ndarray, num_pairs: int,
                       rng: np.random.Generator) -> np.ndarray:
    """The (2, 2 * num_pairs) rows of ``num_pairs`` sampled matching pairs
    and then ``num_pairs`` non-matching pairs, where class ``c`` owns rows
    ``offsets[c]:offsets[c + 1]``.

    The pairs, and the state ``rng`` is left in, are those of the loop ::

        for each of num_pairs matching pairs:     # usable: classes, k >= 2
            c = usable[rng.integers(len(usable))]
            i, j = rng.choice(k[c], 2, replace=False)
        for each of num_pairs non-matching pairs:
            ca, cb = rng.choice(len(k), 2, replace=False)
            i, j = rng.integers(k[ca]), rng.integers(k[cb])

    replayed from one block of the generator's words (the stream facts are
    in :mod:`adasample.stream`). A matching pair reads at most 4 words and
    a non-matching one at most 5, unless a word is rejected; a block of
    9 words per pair that the pairs overrun is drawn again twice as long.
    """
    if num_pairs < 1:
        raise ValueError(f"num_pairs must be >= 1, got {num_pairs}")
    sizes = np.diff(offsets)
    usable = np.flatnonzero(sizes >= 2)
    if usable.size < 2:
        raise DatasetError("verification needs >= 2 classes with k >= 2")
    if sizes.min() < 1:
        raise DatasetError("verification needs every class to hold a patch")

    def matching(block, pos):
        c, pos = stream.bounded(block, pos, usable.size - 1)
        c = usable[c]
        i, j, pos = stream.distinct_pair(block, pos, sizes[c])
        return offsets[c] + i, offsets[c] + j, pos

    def non_matching(block, pos):
        ca, cb, pos = stream.distinct_pair(block, pos, sizes.size)
        i, pos = stream.bounded(block, pos, sizes[ca] - 1)
        j, pos = stream.bounded(block, pos, sizes[cb] - 1)
        return offsets[ca] + i, offsets[cb] + j, pos

    state = rng.bit_generator.state
    scale = 1
    while True:
        block = stream.words(rng, 9 * num_pairs * scale)
        rows, used = [], 0
        for pair_at, stop in ((matching, 4 * num_pairs * scale),
                              (non_matching, len(block))):
            drawn = _draw_pairs(block, used, stop, num_pairs, pair_at)
            if drawn is None:
                break
            rows.append(drawn[0])
            used = drawn[1]
        else:   # both phases fit in the block
            break
        rng.bit_generator.state = state
        scale *= 2
    rng.bit_generator.state = state
    stream.words(rng, used)
    return np.concatenate(rows, axis=1)


def _draw_pairs(block: np.ndarray, start: int, stop: int, count: int,
                pair_at) -> tuple[np.ndarray, int] | None:
    """The (2, count) rows of ``count`` consecutive pairs drawn from word
    ``start`` of ``block``, and the word position after them; None when
    that position would pass ``stop``. ``pair_at(block, pos)`` gives, for
    every word position in ``pos``, the rows of the pair drawn from there
    and the position after it."""
    # positions run at most a few words past the block
    dtype = np.int32 if len(block) < 2**31 - 64 else np.int64
    pos = np.arange(start, stop + 1, dtype=dtype)
    a, b, ends = pair_at(block, pos)
    chain = stream.walk(ends - start, count)
    if chain is None:
        return None
    starts = chain[:-1]
    return np.stack([a[starts], b[starts]]), start + int(chain[-1])


class EvalPlan(NamedTuple):
    """The rows :func:`evaluate_params` compares and their labels: they
    depend on the dataset and the eval seed and options, not on params."""

    pairs: np.ndarray           # (2, 2 * num_pairs): matching, non-matching
    queries: np.ndarray
    query_labels: np.ndarray
    gallery: np.ndarray
    gallery_labels: np.ndarray


def evaluation_plan(dataset: Dataset, config: RunConfig) -> EvalPlan:
    """The verification pairs a fresh :func:`_eval_rng` draws, and the
    retrieval split: the first patch of each of the first
    ``eval.num_queries`` classes is a query, the rest of those classes the
    gallery. Drawn once per (eval seed, ``eval.num_pairs``,
    ``eval.num_queries``) and held in ``dataset.plans``."""
    seed = substream_seed(config.seed, "eval")
    key = (seed, config.eval.num_pairs, config.eval.num_queries)
    if key not in dataset.plans:
        pairs = verification_pairs(dataset.offsets, config.eval.num_pairs,
                                   np.random.default_rng(seed))
        n_queries = min(config.eval.num_queries, len(dataset))
        queries = dataset.offsets[:n_queries]
        gallery = np.delete(np.arange(dataset.offsets[n_queries]), queries)
        if gallery.size == 0:
            raise DatasetError(f"retrieval gallery is empty: each of the "
                               f"first {n_queries} classes "
                               f"(eval.num_queries) holds 1")
        labels = np.repeat(dataset.class_ids, np.diff(dataset.offsets))
        dataset.plans[key] = EvalPlan(pairs, queries, labels[queries],
                                      gallery, labels[gallery])
    return dataset.plans[key]


def evaluate_params(dataset: Dataset, params,
                    config: RunConfig) -> ev.EvalReport:
    """Verification FPR95 and retrieval mAP of :func:`evaluation_plan`'s
    rows, from one forward pass over the input rows the dataset holds."""
    descs, _ = forward(params, dataset.rows)
    kind = config.train.metric
    plan = evaluation_plan(dataset, config)
    # forward's rows are unit-norm, so the unchecked kernel runs on them
    d = _paired(descs[plan.pairs[0]], descs[plan.pairs[1]], kind)
    n = config.eval.num_pairs
    fpr95 = ev.fpr_at_recall(d[:n], d[n:], 0.95)
    result = ev.retrieval_map(descs[plan.queries], plan.query_labels,
                              descs[plan.gallery], plan.gallery_labels, kind)
    return ev.EvalReport(fpr95=fpr95, retrieval_map=result.mean_ap)


def split_holdout(dataset: Dataset,
                  fraction: float) -> tuple[Dataset, Dataset]:
    """Trailing ``fraction`` of classes becomes the held-out split."""
    n_hold = max(1, int(round(fraction * len(dataset))))
    if n_hold >= len(dataset):
        raise DatasetError("holdout fraction leaves no training classes")
    return dataset[:-n_hold], dataset[-n_hold:]


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
    rng = _eval_rng(config)
    result = ev.info_correlation_probe(
        dataset, params, config.train.metric, rng,
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
