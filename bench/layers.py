"""Which public functions the traced run wraps, the counters read from
their arguments and results, and the per-layer metrics reported. The map
from layer to the end-to-end metric and workload it should move is in
README.md beside this file.

Span names are ``<module>.<function>``. ``self_s`` is span time minus the
time of child spans, ``total_s`` is span time, ``calls`` is the span count.
``flop`` counts are computed from matrix shapes (the matrix products only),
not measured.
"""

from __future__ import annotations

import numpy as np


def _forward_flop(args, kwargs, result) -> dict:
    params, inputs = args[0], args[1]
    rows = np.atleast_2d(inputs).shape[0]
    flop = sum(2 * rows * w.shape[0] * w.shape[1] for w in params.layers)
    return {"tensornet.forward.rows": rows, "tensornet.forward.flop": flop}


def _backward_flop(args, kwargs, result) -> dict:
    params, cache = args[0], args[1]
    rows = cache.batch_size
    # weight gradients for every layer, input gradients below the top one
    flop = sum(2 * rows * w.shape[0] * w.shape[1] * (1 if l == 0 else 2)
               for l, w in enumerate(params.layers))
    return {"tensornet.backward.rows": rows, "tensornet.backward.flop": flop}


def _mined(args, kwargs, result) -> dict:
    return {"miner.triplets": len(result),
            "miner.active": sum(1 for t in result if t.loss > 0.0)}


# (module, function, counter). Every function listed is a public function of
# the package; the tracer rebinds it in every module that imported it.
TRACED = [
    ("adasample.trainer", "train", None),
    ("adasample.trainer", "build_batch", None),
    ("adasample.trainer", "train_step", None),
    ("adasample.sampler", "positive_probs",
     lambda a, k, r: {"sampler.candidates": len(a[0])}),
    ("adasample.sampler", "categorical_sample", None),
    ("adasample.sampler", "reweights",
     lambda a, k, r: {"sampler.weight_clamped_batches": int(r.clamped)}),
    ("adasample.metricspace", "pairwise_distances",
     lambda a, k, r: {"metricspace.pairwise_distances.entries": r.size}),
    ("adasample.metricspace", "distance_grad",
     lambda a, k, r: {"metricspace.distance_grad.saturated": int(r.saturated)}),
    ("adasample.miner", "mine_triplets", _mined),
    ("adasample.miner", "hardest_negatives", None),
    ("adasample.miner", "loss_grads", None),
    ("adasample.miner", "triplet_loss", None),
    ("adasample.tensornet", "forward", _forward_flop),
    ("adasample.tensornet", "backward", _backward_flop),
    ("adasample.data", "to_input_matrix",
     lambda a, k, r: {"data.to_input_matrix.rows": len(a[0])}),
    ("adasample.data", "generate_synthetic", None),
    ("adasample.data", "generate_positives", None),
    ("adasample.data", "read_dataset", None),
    ("adasample.evaluation", "info_correlation_probe", None),
    ("adasample.evaluation", "retrieval_map", None),
    ("adasample.evaluation", "fpr_at_recall", None),
    ("adasample.evaluation", "mann_whitney_u", None),
    ("adasample.cli", "verification_distances", None),
    ("adasample.cli", "evaluate_params", None),
    ("adasample.cli", "cmd_compare", None),
]


def span_name(module: str, function: str) -> str:
    return f"{module.rsplit('.', 1)[-1]}.{function}"


# Per-layer metrics: (name, unit, better). Order is the report order.
PER_LAYER = [
    ("trainer.build_batch.self_s", "s", "lower"),
    ("trainer.build_batch.calls", "count", "lower"),
    ("trainer.train_step.self_s", "s", "lower"),
    ("sampler.positive_probs.self_s", "s", "lower"),
    ("sampler.positive_probs.calls", "count", "lower"),
    ("sampler.categorical_sample.self_s", "s", "lower"),
    ("sampler.categorical_sample.calls", "count", "lower"),
    ("sampler.reweights.self_s", "s", "lower"),
    ("sampler.candidates", "count", "lower"),
    ("sampler.weight_clamped_batches", "count", "lower"),
    ("metricspace.pairwise_distances.self_s", "s", "lower"),
    ("metricspace.pairwise_distances.calls", "count", "lower"),
    ("metricspace.pairwise_distances.entries", "count", "lower"),
    ("metricspace.distance_grad.self_s", "s", "lower"),
    ("metricspace.distance_grad.calls", "count", "lower"),
    ("metricspace.distance_grad.saturated", "count", "lower"),
    ("miner.mine_triplets.self_s", "s", "lower"),
    ("miner.hardest_negatives.self_s", "s", "lower"),
    ("miner.loss_grads.self_s", "s", "lower"),
    ("miner.loss_grads.calls", "count", "lower"),
    ("miner.triplet_loss.calls", "count", "lower"),
    ("miner.active_ratio", "ratio", "higher"),
    ("tensornet.forward.self_s", "s", "lower"),
    ("tensornet.forward.calls", "count", "lower"),
    ("tensornet.forward.rows", "count", "lower"),
    ("tensornet.forward.flop", "flop_computed", "lower"),
    ("tensornet.backward.self_s", "s", "lower"),
    ("tensornet.backward.calls", "count", "lower"),
    ("tensornet.backward.rows", "count", "lower"),
    ("tensornet.backward.flop", "flop_computed", "lower"),
    ("data.to_input_matrix.self_s", "s", "lower"),
    ("data.to_input_matrix.rows", "count", "lower"),
    ("data.generate_synthetic.total_s", "s", "lower"),
    ("data.generate_positives.total_s", "s", "lower"),
    ("data.read_dataset.total_s", "s", "lower"),
    ("evaluation.info_correlation_probe.self_s", "s", "lower"),
    ("evaluation.retrieval_map.self_s", "s", "lower"),
    ("evaluation.fpr_at_recall.self_s", "s", "lower"),
    ("evaluation.mann_whitney_u.self_s", "s", "lower"),
    ("cli.verification_distances.self_s", "s", "lower"),
    ("cli.evaluate_params.self_s", "s", "lower"),
    ("trainer.train.calls", "count", "lower"),
    ("trainer.train.total_s", "s", "lower"),
    ("cli.compare.busy_ratio", "ratio", "higher"),
    # Inclusive share of trainer.train wall time, for the check against the
    # phase split measured before this benchmark existed.
    ("trainer.build_batch.train_share", "ratio", "lower"),
    ("miner.loss_grads.train_share", "ratio", "lower"),
    ("tensornet.forward.train_share", "ratio", "lower"),
    # Traced wall time minus untraced wall time of the same workload pass.
    ("trace.overhead_s", "s", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]

# Phase split of the default angular train run measured with a scratch
# profiler before this benchmark existed: inclusive share of train wall time.
BASELINE_TRAIN_SHARE = {
    "trainer.build_batch.train_share": 0.57,
    "miner.loss_grads.train_share": 0.22,
    "tensornet.forward.train_share": 0.10,
}


def layer_metrics(tracer) -> dict[str, float]:
    """Per-layer values from a :class:`tracer.Tracer`; the ``trace.*``
    entries are left at 0 for the caller, which knows the untraced wall
    time."""
    summary, counters = tracer.summary(), tracer.counters
    names, parents, starts, ends = tracer.arrays()
    out: dict[str, float] = {}
    for name, _unit, _better in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field in ("self_s", "total_s", "calls"):
            out[name] = summary.get(span, {}).get(field, 0)
        else:
            out[name] = counters.get(name, 0)
    triplets = counters.get("miner.triplets", 0)
    out["miner.active_ratio"] = (counters.get("miner.active", 0) / triplets
                                 if triplets else 0.0)

    # Training passes evaluate from train's epoch callback; those calls are
    # not training, so their subtrees are left out of train time and shares.
    dur = ends - starts
    in_train = np.zeros(len(names), dtype=bool)
    for sid, (name, parent) in enumerate(zip(names, parents)):
        in_train[sid] = name == "trainer.train" or (
            parent >= 0 and in_train[parent]
            and name != "cli.evaluate_params")
    nested_eval = (names == "cli.evaluate_params") & np.isin(
        parents, np.flatnonzero(in_train))
    train_s = float(dur[names == "trainer.train"].sum()
                    - dur[nested_eval].sum())
    out["trainer.train.total_s"] = train_s
    for share in BASELINE_TRAIN_SHARE:
        span = share.rpartition(".")[0]
        sel = (names == span) & in_train
        out[share] = float(dur[sel].sum()) / train_s if train_s else 0.0

    compare = np.flatnonzero(names == "cli.cmd_compare")
    busy = 0.0
    if compare.size:
        cells = np.isin(parents, compare) & np.isin(
            names, ["trainer.train", "cli.evaluate_params"])
        busy = float(dur[cells].sum()) / float(dur[compare].sum())
    out["cli.compare.busy_ratio"] = busy
    return out
