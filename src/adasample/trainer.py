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
the positive draw runs the unchecked distance kernel, and a step checks
its rows once, where they enter mining; the loss gradients differentiate
the rows the mined triplets carry.

Runs that share a dataset, a network and a schedule and differ only in
their seed and sampler config are cells, and :func:`train_cells` steps up
to ``CELL_CHUNK`` of them in lockstep. Each cell draws its classes,
anchors and uniforms from its own generator and runs its own forward
pass, backward pass and update on its own 2-D weights. The small arrays
of a step (candidate distances, probabilities, the draw, re-weighting,
mining, loss gradients) are stacked along a leading cell axis and run
once for every cell, which divides their per-call cost by the number of
cells. Every shared kernel gives each cell's entries the bits of the
cell alone: reductions run along the last axis, products per batch, and
candidate rows are grouped by their count, so padding them to the widest
class of any cell changes nothing. :func:`train` is the one-cell case.

A cell (:class:`TrainState`) carries its weights, one momentum buffer per
weight matrix and the loss average L_avg, which is None until the first
step's mean loss sets it; until then the exponent is 0 and positives are
drawn uniformly. A cell whose forward pass or update fails records its
error and leaves the lockstep; the others step on. The learning rate is
divided by 10 at the end of each configured drop epoch. Runs are
reproducible from (config, dataset, seed), in lockstep or alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from . import sampler as smp
from .data import Dataset
from .errors import DatasetError, NumericError
from .metricspace import MetricKind, _candidates
from .miner import NegMode, loss_grads, mine_triplets
from .sampler import SamplerConfig
from .tensornet import Activation, ForwardCache, ModelParams, backward, \
    forward, init_params

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
        # NaN fails the comparisons; inf fails the upper bounds
        if not 0 < self.margin < np.inf:
            raise ValueError(f"margin must be finite and > 0, "
                             f"got {self.margin}")
        if not 0 <= self.lr < np.inf:
            raise ValueError(f"lr must be finite and >= 0, got {self.lr}")
        if not 0.0 <= self.momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {self.momentum}")
        if not 0 <= self.weight_decay < np.inf:
            raise ValueError(f"weight_decay must be finite and >= 0, "
                             f"got {self.weight_decay}")
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        for k, epoch in enumerate(self.lr_drop_epochs):
            if epoch < 1:
                raise ValueError(f"lr_drop_epochs must be >= 1, got {epoch}")
            if epoch in self.lr_drop_epochs[:k]:   # it would drop twice
                raise ValueError(f"lr_drop_epochs repeats epoch {epoch}")
        if self.pairs_per_epoch < self.batch_size:
            raise ValueError("pairs_per_epoch must be >= batch_size")
        for width in self.hidden_dims:
            if width < 1:
                raise ValueError(f"hidden_dims must be >= 1, got {width}")
        if self.descriptor_dim < 2:
            raise ValueError("descriptor dim must be >= 2")
        self.sampler.validate()

    def layer_dims(self, input_dim: int) -> list[int]:
        return [input_dim, *self.hidden_dims, self.descriptor_dim]


# Cells that :func:`train_cells` steps in one lockstep. Between its forward
# pass and the positive draw a cell holds the hidden activations and
# descriptors of every patch of its chosen classes (about 0.4 MB at the
# defaults, 3 MB for 128 classes of up to 16 patches of 32x32 pixels and
# 256 hidden units), and its batch then holds the forward cache of its 2n
# rows, their input rows included (0.35 MB at the defaults), so a chunk
# bounds that memory: a default step's traced (tracemalloc) peak is 1.6 MB
# for one cell and 5.2 MB for six. Per cell, a step took about as long at
# 16 cells (two chunks) as at 6.
CELL_CHUNK = 8
_UINT64_MAX = np.iinfo(np.uint64).max


@dataclass
class TrainState:
    """One cell: its weights, one momentum buffer per weight matrix, its
    loss average, its sampler config, the generator it draws its batches
    from, its metrics rows and the error that ended it, if one did.
    :func:`train` hands it to its epoch callback."""

    params: ModelParams
    momentum_buffers: list[np.ndarray]  # shaped like params.layers
    l_avg: float | None                 # None before the first step
    sampler: SamplerConfig
    rng: np.random.Generator
    log: list[dict] = field(default_factory=list)
    error: NumericError | None = None


def init_state(config: TrainConfig, input_dim: int) -> TrainState:
    """A cell at step 0, initialized, seeded and configured by
    ``config``."""
    params = init_params(config.layer_dims(input_dim), config.seed,
                         config.activation)
    return TrainState(params, [np.zeros_like(w) for w in params.layers],
                      None, config.sampler,
                      np.random.default_rng(np.random.SeedSequence(
                          config.seed)))


class Batch(NamedTuple):
    """One lockstep step's batches, for the ``cells`` whose forward pass
    completed, one row per cell. Cell s's batch is ``caches[s]``, the
    forward cache of its 2n rows (anchors then positives), whose
    descriptors are ``descriptors[s]``, with a row of per-pair weights and
    its per-pair choices; index arrays address each class's patches."""

    caches: list[ForwardCache]
    descriptors: np.ndarray             # (S, 2n, D)
    weights: np.ndarray                 # (S, n)
    cells: list[TrainState]
    class_ids: np.ndarray               # (S, n)
    anchor_index: np.ndarray
    positive_index: np.ndarray
    probability_used: np.ndarray
    exponent: np.ndarray                # (S,)
    weight_clamped: int                 # batches whose weights were clamped


def build_batch(cells: Sequence[TrainState], config: TrainConfig,
                dataset: Dataset) -> Batch:
    """Select n distinct classes of ``dataset`` (every class holds at least
    2 patches, as :func:`train` checks) and one weighted (anchor, positive)
    each, for every cell; ``config`` holds the fields the cells share.

    The batch carries its cells, the rows of their forward passes and its
    per-pair choices; :func:`train_step` updates those cells.

    Per cell, the anchors and uniforms come from one ``integers`` call that
    replays the per-class loop ``rng.integers(k); rng.random()`` draw for
    draw, generator state included. Its bounds alternate k - 1 and
    2**64 - 1; :mod:`adasample.stream` states the facts of numpy's stream
    that make each entry equal its scalar draw. A cell whose forward pass
    fails sets its error and leaves the batch.
    """
    n = config.batch_size
    num_classes = len(dataset)
    if num_classes < n:
        raise DatasetError(f"dataset has {num_classes} classes but the batch "
                           f"needs {n}")
    offsets = dataset.offsets
    sizes = offsets[1:] - offsets[:-1]
    highs = np.full(2 * n, _UINT64_MAX, dtype=np.uint64)
    passes = []
    for cell in cells:
        chosen = cell.rng.choice(num_classes, size=n, replace=False)
        last = sizes[chosen] - 1
        highs[0::2] = last
        raw = cell.rng.integers(0, highs, endpoint=True, dtype=np.uint64)
        # One batched descriptor extraction over every patch of the
        # selected classes, class after class; class i starts at row
        # first[i].
        inputs, first = dataset.gather(chosen)
        try:
            descs, cache = forward(cell.params, inputs)
        except NumericError as exc:
            cell.error = exc
            continue
        # The batch takes its input rows from the dataset again, so no
        # cell's whole gather outlives its forward pass.
        passes.append((cell, chosen, last, raw, first, cache.hidden,
                       cache.output_norms, descs))
        del inputs, descs, cache
    if not passes:
        none = np.empty((0, n))
        return Batch([], np.empty((0, 2 * n, 0)), none, [], none, none, none,
                     none, np.empty(0), 0)
    cells, chosen, last, raw, first, hidden, norms, descs = zip(*passes)
    # The small arrays of every cell at once, one row per (cell, class).
    chosen, last, raw, first = (np.array(a)
                                for a in (chosen, last, raw, first))
    anchor_index = raw[:, 0::2].astype(np.int64)
    uniforms = (raw[:, 1::2] >> np.uint64(11)) * 2.0 ** -53
    # Column 0 of a class's row is its anchor and column 1 + c its
    # candidate c, patch c + (c >= anchor). Pad columns past the class's
    # k - 1 candidates repeat its last patch; the counts mask them
    # everywhere, and the kernels group rows by count, so padding to the
    # widest class of any cell keeps every row's bits.
    c = np.arange(last.max())
    patches = np.empty(last.shape + (len(c) + 1,), dtype=np.int64)
    patches[..., 0] = anchor_index
    np.minimum(c + (c >= anchor_index[..., None]), last[..., None],
               out=patches[..., 1:])
    # every cell's anchor and candidate descriptors in one gather per cell
    rows = np.array([d[r] for d, r in zip(descs, first[..., None] + patches)])

    counts = last.ravel()
    dists = _candidates(rows[:, :, 0].reshape(counts.size, -1),
                        rows[:, :, 1:].reshape(counts.size, len(c), -1),
                        counts, config.metric)
    exponent = np.array([smp.adaptive_exponent(cell.l_avg, cell.sampler)
                         for cell in cells])
    probs = smp.positive_probs(dists, np.repeat(exponent, n), counts)
    pick = smp.categorical_sample(probs, uniforms.ravel(), counts)
    slots = np.arange(counts.size)
    weights, clamped = smp.reweights(dists[slots, pick].reshape(last.shape))
    used = probs[slots, pick].reshape(last.shape)
    pick = pick.reshape(last.shape)
    positive_index = pick + (pick >= anchor_index)

    # Each cell's batch rows, anchors then positives: in the candidate
    # rows (column 0 and column 1 + pick), in its forward pass and in the
    # dataset.
    column0 = slots.reshape(last.shape) * (len(c) + 1)
    descriptors = rows.reshape(-1, rows.shape[-1])[
        np.concatenate([column0, column0 + 1 + pick], axis=1)]
    picked = np.concatenate([anchor_index, positive_index], axis=1)
    in_pass = picked + np.concatenate([first, first], axis=1)
    starts = offsets[chosen]
    in_data = picked + np.concatenate([starts, starts], axis=1)
    caches = [ForwardCache(dataset.rows[d_rows], [x[p_rows] for x in h],
                           m[p_rows], d)
              for d_rows, p_rows, h, m, d in zip(in_data, in_pass, hidden,
                                                 norms, descriptors)]
    return Batch(caches, descriptors, weights, list(cells),
                 dataset.class_ids[chosen], anchor_index, positive_index,
                 used, exponent, clamped)


def train_step(batch: Batch, config: TrainConfig,
               lr: float) -> dict[str, list]:
    """One update at learning rate ``lr`` of the batch's cells from their
    forward caches, which come from the cells' params: mine, weighted hinge
    loss, backward, momentum SGD.

    Mining and the loss gradients run once over the stacked descriptors;
    cell s backpropagates row s of the gradients as is. ``backward`` and
    the update run per cell: stacked, the update's arrays outgrew the
    cache and it took about half again as long per cell. Each cell takes
    its new weights, momentum buffers and loss average, and a cell whose
    weights are no longer finite sets its error. Returns the metrics of
    every cell as one list per name.

    The update writes each new weight matrix into the gradient array that
    ``backward`` returned for it, and each cell's momentum buffers in
    place, in the operation order of the update rule. It writes no array
    of the params it replaces, so a caller holding a cell's earlier
    ``params`` sees them unchanged.
    """
    n = batch.weights.shape[1]
    mined = mine_triplets(batch.descriptors[:, :n], batch.descriptors[:, n:],
                          config.metric, config.margin, config.neg_mode)
    grads = loss_grads(mined, config.metric, batch.weights)
    # mean = sum / n, bit for bit, without np.mean's bookkeeping
    mean_loss = (np.add.reduce(mined.loss, axis=1) / n).tolist()
    for s, (cell, cache) in enumerate(zip(batch.cells, batch.caches)):
        layers = backward(cell.params, cache, grads[s])
        for theta, g, v in zip(cell.params.layers, layers,
                               cell.momentum_buffers):
            g += config.weight_decay * theta    # g + weight_decay * theta
            v *= config.momentum                # momentum * v + g
            v += g
            np.multiply(v, lr, out=g)           # theta - lr * v
            np.subtract(theta, g, out=g)
        if not all(np.isfinite(theta).all() for theta in layers):
            cell.error = NumericError(
                f"non-finite parameters at step {len(cell.log)}")
        cell.params = ModelParams(layers, cell.params.activation)
        cell.l_avg = smp.update_loss_avg(cell.l_avg, mean_loss[s],
                                         cell.sampler)
    return {
        "mean_loss": mean_loss,
        "l_avg": [cell.l_avg for cell in batch.cells],
        "mean_dpos": (np.add.reduce(mined.d_pos, axis=1) / n).tolist(),
        "mean_dneg": (np.add.reduce(mined.d_neg, axis=1) / n).tolist(),
        "active_fraction": (np.add.reduce(mined.loss > 0, axis=1,
                                          dtype=np.float64) / n).tolist(),
    }


def effective_lr(base_lr: float, epoch: int,
                 drop_epochs: Iterable[int]) -> float:
    """Learning rate in effect during a 1-based epoch, with drops applied at
    the end of each listed epoch."""
    drops = sum(1 for d in drop_epochs if d < epoch)
    return base_lr / (10.0 ** drops)


def _check_cells(configs: Sequence[TrainConfig], dataset: Dataset) -> None:
    """Raise before any step: a bad config, configs that differ in more
    than ``seed`` and ``sampler``, or a dataset a batch cannot use."""
    for config in configs:
        config.validate()
    for f in fields(TrainConfig):
        if f.name not in ("seed", "sampler") and any(
                getattr(c, f.name) != getattr(configs[0], f.name)
                for c in configs):
            raise ValueError(f"cells in lockstep must differ only in seed "
                             f"and sampler, not in {f.name}")
    if not dataset:
        raise DatasetError("dataset is empty")
    small = dataset.class_ids[np.diff(dataset.offsets) < 2]
    if small.size:
        raise DatasetError(f"classes with fewer than 2 patches: "
                           f"{small[:5].tolist()}")


def _lockstep(configs: Sequence[TrainConfig], dataset: Dataset,
              epoch_callback: Callable[[int, TrainState], None] | None = None
              ) -> list:
    """Train checked configs in lockstep; one outcome per config, as
    :func:`train_cells` returns them."""
    config = configs[0]
    all_cells = [init_state(c, dataset.rows.shape[1]) for c in configs]
    cells = all_cells
    steps_per_epoch = max(1, config.pairs_per_epoch // config.batch_size)
    for epoch in range(1, config.epochs + 1):
        lr = effective_lr(config.lr, epoch, config.lr_drop_epochs)
        for _ in range(steps_per_epoch):
            if not cells:
                break
            batch = build_batch(cells, config, dataset)
            if batch.cells:
                metrics = train_step(batch, config, lr)
                for s, cell in enumerate(batch.cells):
                    if cell.error is None:
                        cell.log.append({
                            "epoch": epoch, "step": len(cell.log) + 1,
                            "exponent": batch.exponent[s].item(),
                            **{name: values[s]
                               for name, values in metrics.items()},
                            "lr": lr})
            # the next batch is built without this one alive
            del batch
            cells = [cell for cell in cells if cell.error is None]
        if epoch_callback is not None:
            for cell in cells:
                epoch_callback(epoch, cell)
    for cell in all_cells:
        if cell.error is not None:
            cell.error.partial_log = cell.log
    return [cell.error or (cell.params, cell.log) for cell in all_cells]


def train_cells(configs: Sequence[TrainConfig], dataset: Dataset
                ) -> list[tuple[ModelParams, list[dict]] | NumericError]:
    """Train configs that differ only in ``seed`` and ``sampler`` in
    lockstep, in chunks of at most ``CELL_CHUNK`` whose sizes differ by at
    most one. Outcome i is what ``train(configs[i], dataset)`` returns, bit
    for bit, or the :class:`NumericError` it raises, with its
    ``partial_log``; a cell that fails leaves the others as they are."""
    configs = list(configs)
    if not configs:
        return []
    _check_cells(configs, dataset)
    chunks = -(-len(configs) // CELL_CHUNK)
    bounds = [len(configs) * i // chunks for i in range(chunks + 1)]
    return [outcome for start, stop in zip(bounds, bounds[1:])
            for outcome in _lockstep(configs[start:stop], dataset)]


def train(config: TrainConfig, dataset: Dataset,
          epoch_callback: Callable[[int, TrainState], None] | None = None
          ) -> tuple[ModelParams, list[dict]]:
    """Run the full schedule; returns final params and one metrics row per
    step (columns per ``METRICS_COLUMNS``). The dataset computes its
    input rows once and keeps them (see :class:`~adasample.data.Dataset`).
    This is one cell of :func:`train_cells`."""
    _check_cells([config], dataset)
    (outcome,) = _lockstep([config], dataset, epoch_callback)
    if isinstance(outcome, NumericError):
        raise outcome
    return outcome
