"""The four benchmark workloads: input generation from a seed, one timed
pass over the program, and the output checks that count as operations.

Every input (dataset, params, config) is generated here from the workload
seed; the program only receives it. Set-up writes the dataset to an
``.adsp`` file and reads it back, as ``gen-data`` followed by ``train``
would.

Why these workloads:

* ``train_default`` is the README run users execute most. Per-class and
  per-pair Python loops dominate it, so vectorizing ``trainer``,
  ``sampler`` and ``miner`` shows here.
* ``train_wide_ragged`` is euclidean, 32x32 patches, a wide MLP and ragged
  classes (2 to 16 views). Matrix products and the euclidean difference
  tensor carry about half its time, and its ragged classes are what a
  padded batch must mask, so a loop gain that costs matmul-bound,
  euclidean or ragged input shows here.
* ``eval_probe`` runs ``evaluate_params`` and a 64-class probe on freshly
  initialized params. The trainer and sampler do no work here, so a
  training change should not move it.
* ``compare_small`` is the only workload made of independent cells, so a
  parallel-cell change can show only here.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from adasample import cli, config, data, evaluation, tensornet, trainer
from adasample.metricspace import MetricKind

PROBE_CLASSES = 64
COMPARE_STRATEGIES = "0,10"
COMPARE_SEEDS = "1,2,3"
COMPARE_EPOCHS = 2
WIDE_CLASSES = 300
WIDE_K_RANGE = (2, 16)
# The machine's timing noise is about 10% per call and comes in bursts of
# seconds, so evaluate_s needs several samples spread over a run: training
# passes evaluate the current params after every EVALUATE_EVERY-th epoch,
# the other passes evaluate EVALUATE_REPEATS times.
EVALUATE_EVERY = 3
EVALUATE_REPEATS = 3

# Last-epoch mean training loss: the range that seeds 1..40 span at the
# commit that introduced this benchmark (see calibrate.py), widened by its
# full width on each side. Trajectories differ at ulp level from step 2 on
# another BLAS or after a refactor, so the check is a band, not a value.
LOSS_BAND = {
    "train_default": (1.1662, 1.4455),
    "train_wide_ragged": (0.6973, 0.9853),
}


class Checks:
    """Output checks and program operations, counted as attempted/failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, name: str, ok: bool, detail: object = "") -> None:
        self.operations(name, 1, 0 if ok else 1, detail)

    def operations(self, name: str, attempted: int, failed: int,
                   detail: object = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            self.failures.append(f"{name}: {failed} of {attempted} failed "
                                 f"{detail}")


@dataclass
class Inputs:
    config: config.RunConfig
    dataset: list
    digest: str
    params: tensornet.ModelParams | None = None
    config_path: Path | None = None
    dataset_path: Path | None = None
    properties: dict = field(default_factory=dict)


@dataclass
class Pass:
    """Samples from one pass: ``rates`` of the workload's headline
    operation in work units per second (one per training epoch, else one
    per call), and the wall times of its evaluations."""

    rates: list[float]
    evaluate_s: list[float]


def _run_config(seed: int, **sections) -> config.RunConfig:
    return config.assemble_run_config({"root": {"seed": seed}, **sections})


def _ragged(dataset: list, seed: int) -> list:
    """Grow every class to the largest size, then truncate it to a size
    drawn uniformly from ``WIDE_K_RANGE``."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 7]))
    lo, hi = WIDE_K_RANGE
    sizes = rng.integers(lo, hi + 1, size=len(dataset))
    out = []
    for group, k in zip(dataset, sizes):
        grown = data.generate_positives(group, hi, rng)
        out.append(data.ClassGroup(grown.class_id, grown.patches[:int(k)]))
    return out


def setup(name: str, seed: int, workdir: Path) -> Inputs:
    """Generate the workload's inputs and round-trip the dataset on disk."""
    if name == "train_wide_ragged":
        rc = _run_config(seed, data={"num_classes": WIDE_CLASSES,
                                     "patch_size": 32},
                         train={"metric": MetricKind.EUCLIDEAN,
                                "hidden_dims": (256,), "descriptor_dim": 64,
                                "batch_size": 128})
        dataset = _ragged(data.generate_synthetic(rc.dataset), seed)
    elif name == "compare_small":
        rc = _run_config(seed, train={"epochs": COMPARE_EPOCHS})
        dataset = data.generate_synthetic(rc.dataset)
    else:
        rc = _run_config(seed)
        dataset = data.generate_synthetic(rc.dataset)
    path = workdir / f"{name}.adsp"
    data.write_dataset(dataset, path)
    digest = hashlib.sha256(path.read_bytes()).hexdigest()
    inputs = Inputs(config=rc, dataset=data.read_dataset(path), digest=digest,
                    dataset_path=path)
    input_dim = rc.dataset.patch_size ** 2
    if name in ("eval_probe", "compare_small"):
        inputs.params = tensornet.init_params(rc.train.layer_dims(input_dim),
                                              rc.train.seed,
                                              rc.train.activation)
    if name == "compare_small":
        inputs.config_path = workdir / f"{name}.cfg"
        inputs.config_path.write_text(f"seed = {seed}\n"
                                      f"train.epochs = {COMPARE_EPOCHS}\n")
    inputs.properties = properties(name, inputs)
    return inputs


def properties(name: str, inputs: Inputs) -> dict:
    """Workload properties a later change must cite."""
    rc = inputs.config
    sizes = np.array([len(g.patches) for g in inputs.dataset])
    k_max = int(sizes.max())
    steps = rc.train.epochs * max(1, rc.train.pairs_per_epoch
                                  // rc.train.batch_size)
    props = {
        "classes": len(sizes),
        "class_size_min": int(sizes.min()),
        "class_size_median": float(np.median(sizes)),
        "class_size_max": k_max,
        "class_size_hist": {int(k): int(c) for k, c in
                            zip(*np.unique(sizes, return_counts=True))},
        # share of a padded (classes, k_max) candidate tensor that holds a
        # real candidate: sum(k_i - 1) / (N (k_max - 1))
        "padded_occupancy": float((sizes - 1).sum()
                                  / (len(sizes) * (k_max - 1))),
        "metric": rc.train.metric.value,
        "model": rc.train.layer_dims(rc.dataset.patch_size ** 2),
        "batch_size": rc.train.batch_size,
        "steps": steps,
    }
    if name == "eval_probe":
        props.update(probe_classes=PROBE_CLASSES,
                     verification_pairs=2 * rc.eval.num_pairs,
                     retrieval_queries=rc.eval.num_queries, steps=0)
    if name == "compare_small":
        cells = len(COMPARE_STRATEGIES.split(",")) * len(COMPARE_SEEDS.split(","))
        props.update(cells=cells, steps_per_cell=steps, steps=cells * steps,
                     holdout_fraction=rc.eval.holdout_fraction)
    return props


def timed(fn, *args, **kwargs):
    """``fn(*args, **kwargs)`` and its wall time in seconds."""
    t0 = time.perf_counter()
    result = fn(*args, **kwargs)
    return result, time.perf_counter() - t0


def _evaluate(checks: Checks, dataset: list, params, rc: config.RunConfig,
              repeats: int = EVALUATE_REPEATS) -> list[float]:
    """Wall times of repeated ``evaluate_params`` calls, outputs checked."""
    times = []
    for _ in range(repeats):
        report, evaluate_s = timed(cli.evaluate_params, dataset, params, rc)
        times.append(evaluate_s)
        checks.check("fpr95 in [0, 1]", 0.0 <= report.fpr95 <= 1.0,
                     report.fpr95)
        checks.check("mAP in (0, 1]", 0.0 < report.retrieval_map <= 1.0,
                     report.retrieval_map)
    return times


def epoch_loss(log: list[dict], epoch: int) -> float:
    """Mean training loss over the steps of one epoch."""
    rows = [row["mean_loss"] for row in log if row["epoch"] == epoch]
    return float(np.mean(rows)) if rows else float("nan")


def _train_pass(name: str, inputs: Inputs, checks: Checks) -> Pass:
    rc = inputs.config
    epoch_s: list[float] = []
    evaluate_s: list[float] = []
    start = [time.perf_counter()]

    def on_epoch(epoch: int, state: trainer.TrainState) -> None:
        # Epoch 1 also holds train's own set-up before its first step.
        epoch_s.append(time.perf_counter() - start[0])
        if epoch % EVALUATE_EVERY == 0:
            evaluate_s.extend(_evaluate(checks, inputs.dataset, state.params,
                                        rc, repeats=1))
        start[0] = time.perf_counter()

    params, log = trainer.train(rc.train, inputs.dataset, on_epoch)
    checks.operations("training run", 1, 0)
    steps = inputs.properties["steps"]
    checks.check("finite params",
                 all(np.all(np.isfinite(w)) for w in params.layers))
    checks.check("one log row per step", len(log) == steps,
                 f"{len(log)} rows for {steps} steps")
    loss = epoch_loss(log, rc.train.epochs)
    lo, hi = LOSS_BAND[name]
    checks.check("last-epoch mean loss in band", lo <= loss <= hi,
                 f"{loss!r} outside [{lo}, {hi}]")
    pairs_per_epoch = steps // rc.train.epochs * rc.train.batch_size
    return Pass(rates=list(pairs_per_epoch / np.array(epoch_s)),
                evaluate_s=evaluate_s)


def _eval_probe_pass(inputs: Inputs, checks: Checks) -> Pass:
    rc = inputs.config
    evaluate_s = _evaluate(checks, inputs.dataset, inputs.params, rc)
    rng = np.random.default_rng(config.substream_seed(rc.seed, "eval"))
    probe, probe_s = timed(
        evaluation.info_correlation_probe, inputs.dataset, inputs.params,
        rc.train.metric, rng, sample_classes=PROBE_CLASSES,
        margin=rc.train.margin, neg_mode=rc.train.neg_mode)
    checks.check("probe not degenerate", not probe.degenerate)
    # every class of this dataset has the same size k
    expected = PROBE_CLASSES * (inputs.properties["class_size_max"] - 1)
    checks.check("probe scored sum(k - 1) candidates",
                 probe.p_dist.size == expected == probe.p_info.size,
                 f"{probe.p_dist.size} != {expected}")
    return Pass(rates=[probe.p_dist.size / probe_s], evaluate_s=evaluate_s)


def _compare_pass(inputs: Inputs, checks: Checks, workdir: Path) -> Pass:
    out_dir = workdir / "compare"
    csv_path = out_dir / "compare.csv"
    if csv_path.exists():
        csv_path.unlink()
    argv = ["compare", "--config", str(inputs.config_path),
            "--dataset", str(inputs.dataset_path), "--out", str(out_dir),
            "--strategies", COMPARE_STRATEGIES, "--seeds", COMPARE_SEEDS]
    with contextlib.redirect_stdout(io.StringIO()):
        code, compare_s = timed(cli.main, argv)
    cells = inputs.properties["cells"]
    checks.check("compare exit code 0", code == 0, code)
    rows = []
    if csv_path.exists():
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
    lambdas = [float(s) for s in COMPARE_STRATEGIES.split(",")]
    checks.check("compare.csv rows", [float(r["lambda"]) for r in rows]
                 == lambdas, rows)
    failed = sum(int(r["failed_cells"]) for r in rows) if rows else cells
    checks.operations("compare cells", cells, failed)
    checks.check("compare fpr95 in [0, 1]",
                 all(r["mean_fpr95"] != "" and 0.0 <= float(r["mean_fpr95"])
                     <= 1.0 for r in rows), rows)
    holdout = cli.split_holdout(inputs.dataset,
                                inputs.config.eval.holdout_fraction)[1]
    return Pass(rates=[(cells - failed) / compare_s],
                evaluate_s=_evaluate(checks, holdout, inputs.params,
                                     inputs.config))


def run_pass(name: str, inputs: Inputs, checks: Checks,
             workdir: Path) -> Pass:
    """One pass of the workload's operations, with their output checks."""
    if name in ("train_default", "train_wide_ragged"):
        return _train_pass(name, inputs, checks)
    if name == "eval_probe":
        return _eval_probe_pass(inputs, checks)
    os.environ.pop("ADASAMPLE_THREADS", None)
    return _compare_pass(inputs, checks, workdir)
