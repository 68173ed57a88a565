"""Training loop: batch construction, mining, weighted SGD with momentum.

One step works on n distinct classes. For each class an anchor patch is
drawn uniformly and a positive is drawn among the remaining patches with
probability proportional to descriptor distance raised to the adaptive
exponent; the chosen pairs get inverse-distance weights normalized to
batch mean 1. Hardest-in-batch negatives complete the triplets and the
hinge triplet loss is backpropagated as sum_i w_i * grad(loss_i), followed
by classical momentum SGD with weight decay:

    g = sum_i w_i grad(loss_i) + weight_decay * theta
    v = momentum * v + g
    theta = theta - lr * v

The positive draw runs once per step for the whole batch. Candidate c of
a class with k patches is patch c + (c >= anchor), so the candidates form
a padded (n, K - 1) matrix, K the largest class in the batch, and each row
masks the columns past its own k - 1. Distances, probabilities and an
inverse-CDF draw are computed row-wise on that matrix. The random stream
is that of a per-class loop: the classes, then for each class in batch
order its anchor integer followed by the uniform that picks its positive.
One ``integers`` call with alternating bounds k - 1 and 2**64 - 1 replays
that loop draw for draw (see :func:`build_batch`).

Each step runs the network once. The positive draw needs the descriptors
of every patch of the chosen classes; the network is row-wise, so the
rows of that pass that hold the batch's pairs are the forward cache the
update backpropagates through. Those rows are unit-norm by construction, so
the step runs the unchecked distance kernel; unit-norm checks run only
where rows enter ``miner``'s public functions (two per step, against five
when every distance call checked). With the one-call draw this made the
default run train about 19% more pairs per second, with byte-identical
output (alternating runs of ``bench/run.py --workload train_default``
before and after, on a 2-core machine).

The very first step samples positives uniformly because the loss average
has no observations yet; the tracker initializes from that step's mean
loss. The learning rate is divided by 10 at the end of each configured
drop epoch. Runs are reproducible from (config, dataset, seed).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, NamedTuple

import numpy as np

from . import sampler as smp
from .data import Dataset
from .errors import DatasetError, NumericError
from .metricspace import MetricKind, _candidates
from .miner import NegMode, loss_grads, mine_triplets
from .sampler import LossTracker, SamplerConfig
from .tensornet import Activation, ForwardCache, GradEstimate, ModelParams, \
    backward, forward, init_params

METRICS_COLUMNS = ("epoch", "step", "mean_loss", "l_avg", "exponent",
                   "mean_dpos", "mean_dneg", "active_fraction", "lr")


@dataclass(frozen=True)
class TrainConfig:
    batch_size: int = 64
    margin: float = 1.0
    metric: MetricKind = MetricKind.ANGULAR
    # The update sums weighted per-pair gradients, so the step scale grows
    # with batch size; 0.003 is calibrated for the desk-scale defaults
    # (64-pair batches, the small MLP, unit-mean weights).
    lr: float = 0.003
    momentum: float = 0.5
    weight_decay: float = 1e-4
    epochs: int = 12
    lr_drop_epochs: tuple[int, ...] = (4, 8, 10)
    pairs_per_epoch: int = 3200
    neg_mode: NegMode = NegMode.SAME_ROLE
    hidden_dims: tuple[int, ...] = (64,)
    descriptor_dim: int = 32
    activation: Activation = Activation.TANH
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    seed: int = 0

    def validate(self) -> None:
        if self.batch_size < 2:
            raise ValueError(f"batch size must be >= 2, got {self.batch_size}")
        if self.margin <= 0:
            raise ValueError(f"margin must be > 0, got {self.margin}")
        if self.lr < 0:
            raise ValueError(f"lr must be >= 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if self.weight_decay < 0:
            raise ValueError("weight_decay must be >= 0")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.pairs_per_epoch < self.batch_size:
            raise ValueError("pairs_per_epoch must be >= batch_size")
        if self.descriptor_dim < 2:
            raise ValueError("descriptor dim must be >= 2")
        self.sampler.validate()

    def layer_dims(self, input_dim: int) -> list[int]:
        return [input_dim, *self.hidden_dims, self.descriptor_dim]


@dataclass
class TrainState:
    params: ModelParams
    momentum_buffers: GradEstimate
    loss_tracker: LossTracker
    epoch: int = 0
    step: int = 0
    lr: float = 0.0


class Batch(NamedTuple):
    """The forward cache of a batch's rows, anchors then positives, and
    per-pair weights."""

    cache: ForwardCache         # 2n rows
    weights: np.ndarray         # (n,)

    @property
    def inputs(self) -> np.ndarray:
        """The (2n, D) input rows."""
        return self.cache.inputs


@dataclass
class BatchDiagnostics:
    """Per-pair choices of one batch; index arrays address each class's
    patches."""

    class_ids: np.ndarray
    anchor_index: np.ndarray
    positive_index: np.ndarray
    probability_used: np.ndarray
    exponent: float
    weight_clamped: bool


def build_batch(params: ModelParams, tracker: LossTracker,
                config: TrainConfig, rng: np.random.Generator,
                dataset: Dataset) -> tuple[Batch, BatchDiagnostics]:
    """Select n distinct classes of ``dataset`` (every class holds at least
    2 patches, as :func:`train` checks) and one weighted (anchor, positive)
    each.

    The batch carries the rows of this call's forward pass with ``params``,
    so it is for a :func:`train_step` with the same params.

    The anchors and uniforms come from one ``integers`` call that replays
    the per-class loop ``rng.integers(k); rng.random()`` draw for draw,
    generator state included. Its bounds alternate k - 1 and 2**64 - 1;
    :mod:`adasample.stream` states the facts of numpy's stream that make
    each entry equal its scalar draw.
    """
    n = config.batch_size
    num_classes = len(dataset)
    if num_classes < n:
        raise DatasetError(f"dataset has {num_classes} classes but the batch "
                           f"needs {n}")
    sizes = np.diff(dataset.offsets)
    exponent = smp.adaptive_exponent(tracker, config.sampler) \
        if tracker.initialized else 0.0
    chosen_classes = rng.choice(num_classes, size=n, replace=False)
    k = sizes[chosen_classes]
    highs = np.full(2 * n, np.iinfo(np.uint64).max, dtype=np.uint64)
    highs[0::2] = k - 1
    raw = rng.integers(0, highs, endpoint=True, dtype=np.uint64)
    anchor_index = raw[0::2].astype(np.int64)
    uniforms = (raw[1::2] >> np.uint64(11)) * 2.0 ** -53

    # One batched descriptor extraction over every patch of the selected
    # classes, class after class; class i starts at row first[i].
    inputs, first = dataset.gather(chosen_classes)
    descs, cache = forward(params, inputs)

    # Pad columns repeat the anchor; the counts mask them everywhere.
    c = np.arange(k.max() - 1)
    candidates = np.where(c < (k - 1)[:, None],
                          c + (c >= anchor_index[:, None]),
                          anchor_index[:, None])
    dists = _candidates(descs[first + anchor_index],
                        descs[first[:, None] + candidates], k - 1,
                        config.metric)
    probs = smp.positive_probs(dists, exponent, counts=k - 1)
    pick = smp.categorical_sample(probs, uniforms, counts=k - 1)
    slots = np.arange(n)
    positive_index = pick + (pick >= anchor_index)
    weights, clamped = smp.reweights(dists[slots, pick])
    rows = np.concatenate([first + anchor_index, first + positive_index])
    diag = BatchDiagnostics(
        class_ids=dataset.class_ids[chosen_classes],
        anchor_index=anchor_index, positive_index=positive_index,
        probability_used=probs[slots, pick], exponent=exponent,
        weight_clamped=clamped)
    return Batch(cache.take(rows), weights), diag


def train_step(state: TrainState, batch: Batch,
               config: TrainConfig) -> tuple[TrainState, dict]:
    """One update from the batch's forward cache, which must come from
    ``state.params``: mine, weighted hinge loss, backward, momentum SGD."""
    n = len(batch.weights)
    descs = batch.cache.descriptors
    desc_a, desc_p = descs[:n], descs[n:]

    mined = mine_triplets(desc_a, desc_p, config.metric, config.margin,
                          config.neg_mode)
    mean_loss = float(mined.loss.mean())
    if not np.isfinite(mean_loss):
        raise NumericError(f"non-finite batch loss at step {state.step}: "
                           f"{mined.loss}")

    grad_a, grad_p = loss_grads(desc_a, desc_p, mined, config.metric,
                                batch.weights)
    param_grads = backward(state.params, batch.cache,
                           np.vstack([grad_a, grad_p]))

    new_layers = []
    new_buffers = []
    for theta, g, v in zip(state.params.layers, param_grads.layers,
                           state.momentum_buffers.layers):
        g_total = g + config.weight_decay * theta
        v_new = config.momentum * v + g_total
        theta_new = theta - state.lr * v_new
        if not np.all(np.isfinite(theta_new)):
            raise NumericError(f"non-finite parameters at step {state.step}")
        new_layers.append(theta_new)
        new_buffers.append(v_new)

    tracker = smp.update_loss_avg(state.loss_tracker, mean_loss, config.sampler)
    new_state = TrainState(
        params=ModelParams(new_layers, state.params.activation),
        momentum_buffers=GradEstimate(new_buffers),
        loss_tracker=tracker,
        epoch=state.epoch,
        step=state.step + 1,
        lr=state.lr,
    )
    metrics = {
        "mean_loss": mean_loss,
        "l_avg": tracker.l_avg,
        "mean_dpos": float(np.mean(mined.d_pos)),
        "mean_dneg": float(np.mean(mined.d_neg)),
        "active_fraction": float(np.mean(mined.loss > 0)),
        "lr": state.lr,
    }
    return new_state, metrics


def effective_lr(base_lr: float, epoch: int,
                 drop_epochs: Iterable[int]) -> float:
    """Learning rate in effect during a 1-based epoch, with drops applied at
    the end of each listed epoch."""
    drops = sum(1 for d in drop_epochs if d < epoch)
    return base_lr / (10.0 ** drops)


def init_state(config: TrainConfig, input_dim: int) -> TrainState:
    params = init_params(config.layer_dims(input_dim), config.seed,
                         config.activation)
    return TrainState(params=params,
                      momentum_buffers=GradEstimate.zeros_like(params),
                      loss_tracker=LossTracker(),
                      epoch=0, step=0, lr=config.lr)


def train(config: TrainConfig, dataset: Dataset,
          epoch_callback: Callable[[int, TrainState], None] | None = None
          ) -> tuple[ModelParams, list[dict]]:
    """Run the full schedule; returns final params and one metrics row per
    step (columns per ``METRICS_COLUMNS``). The dataset's input rows are
    computed once and held by it (see :class:`~adasample.data.Dataset`)."""
    config.validate()
    if not dataset:
        raise DatasetError("dataset is empty")
    small = dataset.class_ids[np.diff(dataset.offsets) < 2]
    if small.size:
        raise DatasetError(f"classes with fewer than 2 patches: "
                           f"{small[:5].tolist()}")
    state = init_state(config, dataset.rows.shape[1])
    rng = np.random.default_rng(np.random.SeedSequence(config.seed))
    log: list[dict] = []
    steps_per_epoch = max(1, config.pairs_per_epoch // config.batch_size)
    try:
        for epoch in range(1, config.epochs + 1):
            state.epoch = epoch
            state.lr = effective_lr(config.lr, epoch, config.lr_drop_epochs)
            for _ in range(steps_per_epoch):
                batch, diag = build_batch(state.params, state.loss_tracker,
                                          config, rng, dataset)
                state, metrics = train_step(state, batch, config)
                log.append({"epoch": epoch, "step": state.step,
                            "mean_loss": metrics["mean_loss"],
                            "l_avg": metrics["l_avg"],
                            "exponent": diag.exponent,
                            "mean_dpos": metrics["mean_dpos"],
                            "mean_dneg": metrics["mean_dneg"],
                            "active_fraction": metrics["active_fraction"],
                            "lr": metrics["lr"]})
            if epoch_callback is not None:
                epoch_callback(epoch, state)
    except NumericError as exc:
        exc.partial_log = log
        raise
    return state.params, log
