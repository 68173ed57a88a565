"""Tests for batch construction and the training loop."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from adasample import metricspace, miner, trainer
from adasample.data import (ClassGroup, DatasetSpec, as_dataset,
                            generate_synthetic, to_input_matrix)
from adasample.errors import DatasetError, NumericError
from adasample.metricspace import MetricKind, pairwise_distances
from adasample.miner import loss_grads, mine_triplets
from adasample.sampler import (SamplerConfig, adaptive_exponent, reweights,
                               update_loss_avg)
from adasample.tensornet import Activation, ModelParams, backward, forward
from adasample.trainer import (TrainConfig, build_batch, effective_lr,
                               init_state, train, train_cells, train_step)
from test_sampler import scalar_categorical_sample, scalar_positive_probs


def tiny_dataset(num_classes=8, k=4, patch_size=8, seed=30, **kw):
    return generate_synthetic(DatasetSpec(
        num_classes=num_classes, patches_per_class=k, patch_size=patch_size,
        outlier_fraction=0.0, seed=seed, **kw))


def tiny_config(**kw):
    base = dict(batch_size=4, epochs=2, pairs_per_epoch=16,
                hidden_dims=(12,), descriptor_dim=6, seed=1,
                sampler=SamplerConfig(lambda_=10.0))
    base.update(kw)
    return TrainConfig(**base)


def initial_params(cfg):
    """The params a run of ``cfg`` starts from (64-pixel inputs)."""
    return init_state(cfg, 64).params


def cells_of(configs, rngs, l_avgs):
    """Cells in lockstep, cell s configured by configs[s], drawing from
    rngs[s] and with loss average l_avgs[s] (None before any step)."""
    return [replace(init_state(cfg, 64), rng=rng, l_avg=l_avg)
            for cfg, rng, l_avg in zip(configs, rngs, l_avgs, strict=True)]


def cell_row(batch, s):
    """Cell s of a lockstep batch: its cache, its weights and its row of
    the per-pair choices."""
    return batch.caches[s], batch.weights[s], SimpleNamespace(
        class_ids=batch.class_ids[s], anchor_index=batch.anchor_index[s],
        positive_index=batch.positive_index[s],
        probability_used=batch.probability_used[s],
        exponent=float(batch.exponent[s]))


def batch_of(ds, cfg, rng, l_avg=None):
    """build_batch of one cell of ``cfg`` at its initial params over
    ``ds``, a dataset or a list of its classes."""
    cells = cells_of([cfg], [rng], [l_avg])
    return cell_row(build_batch(cells, cfg, as_dataset(ds)), 0)


def scalar_build_batch(ds, params, l_avg, cfg, rng):
    """Per-class loop over one candidate vector at a time: the oracle for
    build_batch, which must equal it bit for bit and draw the same random
    stream. Returns the batch rows, the weights and the per-pair choices
    with the batch rows' descriptors."""
    n = cfg.batch_size
    exponent = adaptive_exponent(l_avg, cfg.sampler)
    groups = [ds[int(ci)] for ci in rng.choice(len(ds), size=n,
                                                replace=False)]
    flat_inputs = np.vstack([to_input_matrix(g.patches) for g in groups])
    descs, _ = forward(params, flat_inputs)
    offsets = np.cumsum([0] + [len(g) for g in groups])
    anchor, positive, used, chosen_d = [], [], [], []
    for slot, group in enumerate(groups):
        k = len(group)
        rows = descs[offsets[slot]:offsets[slot + 1]]
        a_idx = int(rng.integers(k))
        cand_idx = [i for i in range(k) if i != a_idx]
        dists = pairwise_distances(rows[cand_idx], rows[a_idx:a_idx + 1],
                                   cfg.metric)[:, 0]
        probs = scalar_positive_probs(dists, exponent)
        pick = scalar_categorical_sample(probs, rng.random())
        anchor.append(a_idx)
        positive.append(cand_idx[pick])
        used.append(probs[pick])
        chosen_d.append(dists[pick])
    weights, clamped = reweights(np.array([chosen_d]))
    starts = offsets[:-1]
    batch_rows = np.concatenate([starts + anchor, starts + positive])
    diag = dict(class_ids=[g.class_id for g in groups], anchor_index=anchor,
                positive_index=positive, probability_used=used,
                exponent=exponent, weight_clamped=clamped,
                descriptors=descs[batch_rows])
    return flat_inputs[batch_rows], weights[0], diag


def ragged_dataset(sizes, patch_size=8, seed=30):
    """Classes of 16 views each, truncated to the given sizes."""
    ds = tiny_dataset(num_classes=len(sizes), k=16, patch_size=patch_size,
                      seed=seed)
    return [ClassGroup(g.class_id, g.patches[:int(k)])
            for g, k in zip(ds, sizes)]


class TestBuildBatch:
    def test_forced_choice_with_two_patches(self):
        ds = tiny_dataset(k=2)
        _, _, diag = batch_of(ds, tiny_config(), np.random.default_rng(0))
        assert np.all(diag.anchor_index != diag.positive_index)
        assert np.all(diag.probability_used == 1.0)

    def test_rows_are_the_named_patches(self):
        """Row i holds anchor i and row n + i positive i, each equal to the
        to_input_matrix row of the class and patch the diagnostics name."""
        ds = tiny_dataset(num_classes=10, k=5)
        cfg = tiny_config(batch_size=6)
        rng = np.random.default_rng(3)
        by_id = {g.class_id: g for g in ds}
        n = cfg.batch_size
        for l_avg in (None, 0.5):
            cache, weights, diag = batch_of(ds, cfg, rng, l_avg)
            assert cache.inputs.shape == (2 * n, 64)
            assert weights.shape == (n,)
            assert weights.mean() == pytest.approx(1.0)
            for i, cid in enumerate(diag.class_ids):
                patches = by_id[int(cid)].patches
                a, p = diag.anchor_index[i], diag.positive_index[i]
                assert a != p
                np.testing.assert_array_equal(
                    cache.inputs[i], to_input_matrix(patches[[a]])[0])
                np.testing.assert_array_equal(
                    cache.inputs[n + i], to_input_matrix(patches[[p]])[0])

    def test_identical_for_fixed_seed(self):
        ds = tiny_dataset()
        cfg = tiny_config()
        c1, w1, d1 = batch_of(ds, cfg, np.random.default_rng(5))
        c2, w2, d2 = batch_of(ds, cfg, np.random.default_rng(5))
        np.testing.assert_array_equal(d1.class_ids, d2.class_ids)
        np.testing.assert_array_equal(d1.anchor_index, d2.anchor_index)
        np.testing.assert_array_equal(d1.positive_index, d2.positive_index)
        np.testing.assert_array_equal(c1.inputs, c2.inputs)
        np.testing.assert_array_equal(w1, w2)

    def test_classes_are_distinct(self):
        ds = tiny_dataset(num_classes=12)
        cfg = tiny_config(batch_size=10)
        rng = np.random.default_rng(6)
        for _ in range(20):
            _, _, diag = batch_of(ds, cfg, rng)
            assert len(set(diag.class_ids)) == len(diag.class_ids)

    def test_uniform_positive_choice_when_lambda_zero(self):
        """With the exponent forced to zero the positive is uniform over the
        k-1 candidates (3-sigma band per candidate)."""
        ds = as_dataset(tiny_dataset(num_classes=3, k=4))
        cfg = tiny_config(batch_size=2,
                          sampler=SamplerConfig(lambda_=0.0))
        # an observed loss average, so the exponent is lambda's (not the
        # first step's)
        cells = cells_of([cfg], [np.random.default_rng(7)], [1.0])
        counts = {}
        builds = 4000
        for _ in range(builds):
            _, _, diag = cell_row(build_batch(cells, cfg, ds), 0)
            assert diag.exponent == 0.0
            for key in zip(diag.class_ids, diag.anchor_index,
                           diag.positive_index):
                counts[key] = counts.get(key, 0) + 1
        # each (class, anchor) pair spreads uniformly over its 3 candidates
        per_anchor = {}
        for (cid, a, c), n in counts.items():
            per_anchor.setdefault((cid, a), []).append(n)
        for draws in per_anchor.values():
            total = sum(draws)
            if total < 300:
                continue
            expected = total / 3
            sigma = np.sqrt(total * (1 / 3) * (2 / 3))
            assert len(draws) == 3
            for n in draws:
                assert abs(n - expected) < 3 * sigma + 1

    def test_first_step_uses_zero_exponent(self):
        _, _, diag = batch_of(tiny_dataset(), tiny_config(),
                              np.random.default_rng(8))
        assert diag.exponent == 0.0

    def test_too_few_classes_rejected(self):
        ds = tiny_dataset(num_classes=3)
        with pytest.raises(DatasetError, match="classes"):
            batch_of(ds, tiny_config(batch_size=4), np.random.default_rng(0))


class TestBuildBatchOracle:
    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("ragged", [False, True])
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(num_classes=st.integers(4, 14), k=st.integers(2, 16),
           lam=st.sampled_from([None, 0.0, 3.0, 10.0, float("inf")]),
           cap=st.sampled_from([50.0, 2.0, 0.5]),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(num_classes=10, k=9, lam=float("inf"), cap=2.0, seed=21)
    @example(num_classes=10, k=9, lam=float("inf"), cap=0.5, seed=22)
    def test_equals_per_class_loop(self, metric, ragged, num_classes, k, lam,
                                   cap, seed):
        """Uniform k or ragged k in 2..16, both metrics, the bootstrap step
        (lam None), exponent 0, finite and the cap (lam inf); three cells
        in lockstep, the first with ``lam``, each equal to the oracle of
        its own config, params, loss average and generator. A cap of 2.0 or
        0.5, the powers numpy takes with square or sqrt when raised to a
        scalar, pins the exponent of the lam-inf cell (and of lam 10 at
        2.0) exactly there."""
        rng = np.random.default_rng(seed)
        sizes = (rng.integers(2, 17, size=num_classes) if ragged
                 else np.full(num_classes, k))
        ds = ragged_dataset(sizes, seed=int(rng.integers(1 << 30)))
        batch_size = int(rng.integers(2, num_classes + 1))
        lams = [lam, 10.0, float("inf")]
        configs = [tiny_config(batch_size=batch_size, metric=metric, seed=s,
                               sampler=SamplerConfig(lambda_=l or 0.0,
                                                     exponent_cap=cap))
                   for s, l in enumerate(lams)]
        l_avgs = [None if l is None else float(rng.uniform(0.05, 2.0))
                  for l in lams]
        draws = rng.integers(1 << 30, size=3)
        cells = cells_of(configs, [np.random.default_rng(d) for d in draws],
                         l_avgs)
        batch = build_batch(cells, configs[0], as_dataset(ds))
        assert batch.descriptors.shape == (3, 2 * batch_size,
                                           configs[0].descriptor_dim)
        for s, cfg in enumerate(configs):
            cache, weights, got = cell_row(batch, s)
            inputs, want_weights, want = scalar_build_batch(
                ds, cells[s].params, l_avgs[s], cfg,
                np.random.default_rng(draws[s]))
            np.testing.assert_array_equal(cache.inputs, inputs)
            # each cache's descriptors are its cell's row of the stack
            assert np.shares_memory(cache.descriptors, batch.descriptors)
            np.testing.assert_array_equal(cache.descriptors,
                                          batch.descriptors[s])
            np.testing.assert_array_equal(batch.descriptors[s],
                                          want["descriptors"])
            np.testing.assert_array_equal(weights, want_weights)
            for name in ("class_ids", "anchor_index", "positive_index",
                         "probability_used"):
                np.testing.assert_array_equal(getattr(got, name),
                                              want[name])
            assert got.exponent == want["exponent"]
        assert batch.weight_clamped == sum(
            scalar_build_batch(ds, cells[s].params, l_avgs[s], cfg,
                               np.random.default_rng(draws[s]))[2][
                                   "weight_clamped"]
            for s, cfg in enumerate(configs))

    def test_same_random_stream_as_per_class_loop(self):
        ds = ragged_dataset([2, 9, 16, 5, 3, 12])
        cfg = tiny_config(batch_size=5)
        params = initial_params(cfg)
        l_avg = 0.4
        rng_kernel, rng_oracle = (np.random.default_rng(11) for _ in "ab")
        for _ in range(5):
            batch_of(ds, cfg, rng_kernel, l_avg)
            scalar_build_batch(ds, params, l_avg, cfg, rng_oracle)
            assert rng_kernel.bit_generator.state == \
                rng_oracle.bit_generator.state

    def test_identical_patches_give_uniform_choice(self):
        """A class of identical patches has row maximum distance 0, so its
        positive is uniform over the k - 1 candidates even at the cap."""
        ds = ragged_dataset([6, 9, 4, 7])
        ds[1] = ClassGroup(ds[1].class_id,
                           np.repeat(ds[1].patches[:1], len(ds[1]), axis=0))
        cfg = tiny_config(batch_size=4, metric=MetricKind.EUCLIDEAN,
                          sampler=SamplerConfig(lambda_=float("inf")))
        _, _, diag = batch_of(ds, cfg, np.random.default_rng(2), 1.0)
        slot = int(np.flatnonzero(diag.class_ids == ds[1].class_id)[0])
        assert diag.exponent == 50.0
        assert diag.probability_used[slot] == 1.0 / 8
        # the other classes concentrate on their farthest candidate
        others = np.arange(4) != slot
        assert np.all(diag.probability_used[others] > 0.9)

    def test_two_patch_classes_are_forced_in_a_ragged_batch(self):
        ds = ragged_dataset([2, 16, 2, 9, 2, 5])
        cfg = tiny_config(batch_size=6)
        rng = np.random.default_rng(4)
        sizes = {g.class_id: len(g) for g in ds}
        for _ in range(10):
            _, _, diag = batch_of(ds, cfg, rng, 0.5)
            for cid, a, p, used in zip(diag.class_ids, diag.anchor_index,
                                       diag.positive_index,
                                       diag.probability_used):
                assert a != p and 0 <= p < sizes[int(cid)]
                if sizes[int(cid)] == 2:
                    assert p == 1 - a and used == 1.0


def manual_update(params, buffers, lr, cache, weights, config):
    """Compose the expected single-step update of one cell directly."""
    n = len(weights)
    descs, cache = forward(params, cache.inputs)
    mined = mine_triplets(descs[:n], descs[n:], config.metric, config.margin,
                          config.neg_mode)
    grads = backward(params, cache,
                     loss_grads(mined, config.metric, weights))
    new_layers = []
    for theta, g, v in zip(params.layers, grads, buffers):
        g_total = g + config.weight_decay * theta
        v_new = config.momentum * v + g_total
        new_layers.append(theta - lr * v_new)
    return new_layers


class TestTrainStep:
    def setup_batch(self, cfg, seed=9):
        cells = cells_of([cfg], [np.random.default_rng(seed)], [None])
        batch = build_batch(cells, cfg, as_dataset(tiny_dataset()))
        return cells[0], batch

    def test_zero_learning_rate_keeps_params_and_updates_loss_average(self):
        cfg = tiny_config(lr=0.0)
        cell, batch = self.setup_batch(cfg)
        before = [w.copy() for w in cell.params.layers]
        assert cell.l_avg is None
        metrics = train_step(batch, cfg, cfg.lr)
        assert cell.error is None
        for a, b in zip(before, cell.params.layers, strict=True):
            np.testing.assert_array_equal(a, b)
        assert cell.l_avg == metrics["l_avg"][0] \
            == metrics["mean_loss"][0] >= 0

    def test_inactive_hinges_without_decay_keep_params(self):
        # seed 1 yields a batch whose hinges are all inactive at this margin
        cfg = tiny_config(margin=1e-9, weight_decay=0.0)
        cell, batch = self.setup_batch(cfg, seed=1)
        before = [w.copy() for w in cell.params.layers]
        n = batch.weights.shape[1]
        descs, _ = forward(cell.params, batch.caches[0].inputs)
        mined = mine_triplets(descs[:n], descs[n:], cfg.metric, cfg.margin)
        assert all(t.loss == 0 for t in mined)
        train_step(batch, cfg, cfg.lr)
        for a, b in zip(before, cell.params.layers, strict=True):
            np.testing.assert_array_equal(a, b)

    def test_step_writes_no_array_it_does_not_own(self):
        """The update writes new weights into fresh arrays and each cell's
        momentum buffers in place: the params a step replaces keep their
        values, and no cell shares a buffer with another cell or with any
        weights."""
        configs = [tiny_config(lr=0.05, momentum=0.5, weight_decay=1e-3,
                               seed=seed) for seed in (1, 2)]
        cells = [init_state(cfg, 64) for cfg in configs]
        dataset = as_dataset(tiny_dataset())
        for _ in range(3):
            held = [cell.params for cell in cells]
            snapshot = [[w.copy() for w in p.layers] for p in held]
            batch = build_batch(cells, configs[0], dataset)
            train_step(batch, configs[0], configs[0].lr)
            for cell, params, want in zip(cells, held, snapshot):
                assert cell.error is None
                for old, new, copy in zip(params.layers, cell.params.layers,
                                          want, strict=True):
                    np.testing.assert_array_equal(old, copy)
                    assert not np.array_equal(new, copy)
            arrays = [w for cell in cells
                      for w in (*cell.momentum_buffers, *cell.params.layers)]
            arrays += [w for params in held for w in params.layers]
            for i, a in enumerate(arrays):
                for b in arrays[i + 1:]:
                    assert not np.shares_memory(a, b)

    def test_epoch_callback_keeps_the_params_it_was_shown(self):
        """An epoch callback may hold ``state.params``; later steps leave
        the arrays it holds as it saw them."""
        kept = []

        def keep(epoch, state):
            kept.append((state.params, [w.copy() for w in
                                        state.params.layers]))

        cfg = tiny_config(epochs=3)
        params, _ = train(cfg, tiny_dataset(), keep)
        assert len(kept) == cfg.epochs
        for held, copies in kept:
            for w, copy in zip(held.layers, copies, strict=True):
                np.testing.assert_array_equal(w, copy)
        assert all(np.array_equal(a, b) for a, b in
                   zip(kept[-1][0].layers, params.layers, strict=True))

    def test_update_matches_manual_composition(self):
        cfg = tiny_config(lr=0.05, momentum=0.3, weight_decay=1e-3)
        cell, batch = self.setup_batch(cfg)
        expected = manual_update(cell.params, cell.momentum_buffers, cfg.lr,
                                 batch.caches[0], batch.weights[0], cfg)
        train_step(batch, cfg, cfg.lr)
        for got, want in zip(cell.params.layers, expected):
            np.testing.assert_allclose(got, want, atol=1e-14)

    def test_single_step_descends_weighted_loss(self):
        cfg = tiny_config(lr=1e-3, momentum=0.0, weight_decay=0.0)
        cell, batch = self.setup_batch(cfg)
        n = batch.weights.shape[1]
        inputs = batch.caches[0].inputs

        def weighted_loss(params):
            descs, _ = forward(params, inputs)
            mined = mine_triplets(descs[:n], descs[n:], cfg.metric,
                                  cfg.margin)
            return float(np.dot(batch.weights[0], [t.loss for t in mined]))

        before = weighted_loss(cell.params)
        assert before > 0
        train_step(batch, cfg, cfg.lr)
        assert weighted_loss(cell.params) < before


def oracle_train_step(state, cache, weights, config, lr):
    """One cell's step as it was before cells ran in lockstep and before it
    reused build_batch's forward pass: it runs its own forward on the batch
    rows. Every cell of train_step must equal it bit for bit."""
    n = len(weights)
    descs, cache = forward(state.params, cache.inputs)
    desc_a, desc_p = descs[:n], descs[n:]

    mined = mine_triplets(desc_a, desc_p, config.metric, config.margin,
                          config.neg_mode)
    mean_loss = float(mined.loss.mean())
    param_grads = backward(state.params, cache,
                           loss_grads(mined, config.metric, weights))

    new_layers = []
    new_buffers = []
    for theta, g, v in zip(state.params.layers, param_grads,
                           state.momentum_buffers):
        g_total = g + config.weight_decay * theta
        v_new = config.momentum * v + g_total
        theta_new = theta - lr * v_new
        new_layers.append(theta_new)
        new_buffers.append(v_new)

    l_avg = update_loss_avg(state.l_avg, mean_loss, config.sampler)
    new_state = replace(
        state,
        params=ModelParams(new_layers, state.params.activation),
        momentum_buffers=new_buffers,
        l_avg=l_avg,
    )
    metrics = {
        "mean_loss": mean_loss,
        "l_avg": l_avg,
        "mean_dpos": float(np.mean(mined.d_pos)),
        "mean_dneg": float(np.mean(mined.d_neg)),
        "active_fraction": float(np.mean(mined.loss > 0)),
    }
    return new_state, metrics


def assert_states_equal(got, want):
    for name, a_layers, b_layers in (
            ("params", got.params.layers, want.params.layers),
            ("momentum_buffers", got.momentum_buffers,
             want.momentum_buffers)):
        for a, b in zip(a_layers, b_layers, strict=True):
            assert np.array_equal(a, b), name
    assert got.params.activation is want.params.activation
    assert got.l_avg == want.l_avg


class TestOneForwardPass:
    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("activation", [Activation.TANH, Activation.RELU])
    @pytest.mark.parametrize("ragged", [False, True])
    def test_steps_equal_the_step_with_its_own_forward(self, metric,
                                                       activation, ragged):
        """From the same states and batches, every cell of a lockstep step
        equals the oracle step of that cell alone, which runs its own
        forward: params, momentum buffers, loss average and metrics, over
        30 steps of three cells with different seeds and lambdas."""
        rng = np.random.default_rng(len(metric.value) + 2 * ragged)
        sizes = (rng.integers(2, 17, size=12) if ragged
                 else np.full(12, rng.integers(2, 17)))
        dataset = as_dataset(ragged_dataset(
            sizes, seed=int(rng.integers(1 << 30))))
        configs = [tiny_config(batch_size=6, metric=metric,
                               activation=activation, lr=0.02, momentum=0.5,
                               weight_decay=1e-3, seed=seed,
                               sampler=SamplerConfig(lambda_=lam))
                   for seed, lam in ((1, 0.0), (2, 10.0), (3, np.inf))]
        cells = [init_state(cfg, 64) for cfg in configs]
        want = [init_state(cfg, 64) for cfg in configs]
        for _ in range(30):
            batch = build_batch(cells, configs[0], dataset)
            metrics = train_step(batch, configs[0], configs[0].lr)
            for s, cfg in enumerate(configs):
                assert cells[s].error is None
                want[s], want_metrics = oracle_train_step(
                    want[s], batch.caches[s], batch.weights[s], cfg, cfg.lr)
                assert {name: values[s] for name, values in metrics.items()} \
                    == want_metrics
                assert_states_equal(cells[s], want[s])
        assert all(cell.l_avg is not None for cell in cells)

    def test_train_runs_one_forward_pass_per_step(self, monkeypatch):
        """train with no epoch callback runs no evaluation, so every forward
        call is a step's: one per step, over the chosen classes' patches."""
        rows = []
        real_forward = trainer.forward

        def counting_forward(params, inputs):
            rows.append(len(inputs))
            return real_forward(params, inputs)

        monkeypatch.setattr(trainer, "forward", counting_forward)
        cfg = tiny_config()
        _, log = train(cfg, tiny_dataset(k=4))
        assert len(log) == cfg.epochs * cfg.pairs_per_epoch // cfg.batch_size
        assert rows == [cfg.batch_size * 4] * len(log)


class TestUnitRowChecks:
    def test_a_step_checks_rows_once_and_build_batch_never(self,
                                                          monkeypatch):
        """The rows a step works on come out of ``forward`` unit-norm, so
        they are checked only where they enter mining, once for every cell
        of the step; loss_grads differentiates the rows the mined triplets
        carry and checks nothing again."""
        calls = []
        real = metricspace._unit_rows

        def counted(*batches, **kwargs):
            calls.append(len(batches))
            return real(*batches, **kwargs)

        monkeypatch.setattr(metricspace, "_unit_rows", counted)
        monkeypatch.setattr(miner, "_unit_rows", counted)
        ds = as_dataset(ragged_dataset([2, 9, 16, 5, 3, 12]))
        for metric in MetricKind:
            configs = [tiny_config(batch_size=5, metric=metric, seed=seed)
                       for seed in (1, 2)]
            rngs = [np.random.default_rng(12), np.random.default_rng(13)]
            for l_avg in (None, 0.4):
                cells = cells_of(configs, rngs, [l_avg, l_avg])
                batch = build_batch(cells, configs[0], ds)
                assert calls == []
                train_step(batch, configs[0], configs[0].lr)
                assert calls == [2]
                calls.clear()


class TestSchedule:
    def test_effective_lr_drops_by_tens(self):
        drops = (4, 8, 10)
        assert effective_lr(1.0, 1, drops) == 1.0
        assert effective_lr(1.0, 4, drops) == 1.0          # drop at end of 4
        assert effective_lr(1.0, 5, drops) == pytest.approx(0.1)
        assert effective_lr(1.0, 9, drops) == pytest.approx(0.01)
        assert effective_lr(1.0, 11, drops) == pytest.approx(0.001)

    def test_logged_lr_follows_schedule(self):
        ds = tiny_dataset()
        cfg = tiny_config(epochs=4, lr_drop_epochs=(2,), lr=0.01)
        _, log = train(cfg, ds)
        by_epoch = {}
        for row in log:
            by_epoch.setdefault(row["epoch"], set()).add(row["lr"])
        assert by_epoch[1] == {0.01}
        assert by_epoch[2] == {0.01}
        (lr3,) = by_epoch[3]
        assert lr3 == pytest.approx(0.001)


class TestTrain:
    def test_zero_epochs_returns_initial_params(self):
        ds = tiny_dataset()
        cfg = tiny_config(epochs=0)
        params, log = train(cfg, ds)
        assert log == []
        for a, b in zip(params.layers, initial_params(cfg).layers):
            np.testing.assert_array_equal(a, b)

    def test_numeric_failure_carries_completed_rows(self):
        """A learning rate that overflows the network output after two steps
        ends the run with the two completed metrics rows on the error."""
        cfg = tiny_config(lr=1e100)
        _, log = train(tiny_config(lr=1e100, epochs=1, pairs_per_epoch=8),
                       tiny_dataset())
        with pytest.raises(NumericError) as info:
            with np.errstate(over="ignore"):
                train(cfg, tiny_dataset())
        assert info.value.partial_log == log
        assert [row["step"] for row in log] == [1, 2]

    def test_epoch_callback_gets_each_epochs_params(self):
        """The callback runs after epochs 1..E, in order. The lr schedule
        depends only on the epoch number, so a shorter run is a prefix of a
        longer one: the params the callback gets after epoch e are, byte
        for byte, those train returns with epochs = e."""
        ds = tiny_dataset()
        cfg = tiny_config(epochs=4, lr_drop_epochs=(2,))
        seen = []
        params, _ = train(cfg, ds, lambda epoch, cell: seen.append(
            (epoch, cell.params)))
        assert [epoch for epoch, _ in seen] == [1, 2, 3, 4]
        assert seen[-1][1] is params
        for epoch, got in seen:
            want, _ = train(replace(cfg, epochs=epoch), ds)
            assert [w.tobytes() for w in got.layers] == \
                [w.tobytes() for w in want.layers]

    def test_epoch_callback_stops_with_a_failed_run(self):
        """Two steps an epoch at lr 1e100: the run fails in the first step
        of epoch 2, after the callback of epoch 1 only."""
        cfg = tiny_config(lr=1e100, pairs_per_epoch=8)
        epochs = []
        with pytest.raises(NumericError) as info:
            with np.errstate(over="ignore"):
                train(cfg, tiny_dataset(),
                      lambda epoch, cell: epochs.append(epoch))
        assert [row["epoch"] for row in info.value.partial_log] == [1, 1]
        assert epochs == [1]

    def test_classes_with_one_patch_rejected_before_the_first_batch(
            self, monkeypatch):
        """Checked once per run, naming the class ids, before any batch."""
        def no_batch(*args):
            raise AssertionError("build_batch ran")

        monkeypatch.setattr(trainer, "build_batch", no_batch)
        ds = list(tiny_dataset())
        for i in (2, 5):
            ds[i] = ClassGroup(ds[i].class_id, ds[i].patches[:1])
        with pytest.raises(DatasetError, match=r"classes with fewer than 2 "
                                               r"patches: \[2, 5\]"):
            train(tiny_config(), as_dataset(ds))

    def test_same_seed_gives_bitwise_identical_logs(self):
        ds = tiny_dataset()
        cfg = tiny_config()
        _, log1 = train(cfg, ds)
        _, log2 = train(cfg, ds)
        assert log1 == log2

    def test_first_step_identical_across_lambdas(self):
        """Positive sampling is uniform on the bootstrap step, so the first
        logged row cannot depend on lambda."""
        ds = tiny_dataset()
        log0 = train(tiny_config(sampler=SamplerConfig(lambda_=0.0)), ds)[1]
        log10 = train(tiny_config(sampler=SamplerConfig(lambda_=10.0)), ds)[1]
        assert log0[0] == log10[0]
        assert log0[1:] != log10[1:]

    def test_loss_decreases_over_training(self):
        ds = tiny_dataset(num_classes=24, k=6, patch_size=8, seed=31)
        wins = 0
        for seed in range(5):
            cfg = tiny_config(batch_size=12, epochs=6, pairs_per_epoch=144,
                              lr_drop_epochs=(4,), seed=seed)
            _, log = train(cfg, ds)
            first = np.mean([r["mean_loss"] for r in log if r["epoch"] == 1])
            last = np.mean([r["mean_loss"] for r in log
                            if r["epoch"] == cfg.epochs])
            wins += last < first
        assert wins == 5


def assert_outcome_is_train(outcome, config, dataset):
    """``outcome`` is what ``train(config, dataset)`` returns, params bytes
    and log rows, or the NumericError it raises: type, message and
    completed rows."""
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            params, log = train(config, dataset)
    except NumericError as exc:
        assert type(outcome) is type(exc)
        assert str(outcome) == str(exc)
        assert outcome.partial_log == exc.partial_log
        return False
    got_params, got_log = outcome
    assert [w.tobytes() for w in got_params.layers] == \
        [w.tobytes() for w in params.layers]
    assert got_params.activation is params.activation
    assert got_log == log
    return True


class TestTrainCells:
    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("ragged", [False, True])
    def test_every_cell_equals_train_of_its_config(self, metric, ragged):
        """Lambda 0, 10 and the cap over two seeds: six cells in one
        lockstep, on uniform classes and on classes of 2..9 patches."""
        rng = np.random.default_rng(7 + ragged)
        sizes = rng.integers(2, 10, size=16) if ragged else np.full(16, 6)
        dataset = as_dataset(ragged_dataset(sizes))
        configs = [tiny_config(batch_size=6, metric=metric, seed=seed,
                               sampler=SamplerConfig(lambda_=lam))
                   for lam in (0.0, 10.0, np.inf) for seed in (1, 2)]
        outcomes = train_cells(configs, dataset)
        assert len(outcomes) == len(configs)
        for outcome, config in zip(outcomes, configs):
            assert assert_outcome_is_train(outcome, config, dataset)

    def test_chunks_of_cells_equal_train(self, monkeypatch):
        """Five cells in chunks of at most two: sizes 1, 2 and 2."""
        monkeypatch.setattr(trainer, "CELL_CHUNK", 2)
        chunks = []
        real = trainer._lockstep

        def recorded(configs, dataset, epoch_callback=None):
            chunks.append(len(configs))
            return real(configs, dataset, epoch_callback)

        monkeypatch.setattr(trainer, "_lockstep", recorded)
        dataset = as_dataset(tiny_dataset())
        configs = [tiny_config(seed=seed) for seed in range(5)]
        outcomes = train_cells(configs, dataset)
        assert chunks == [1, 2, 2]
        for outcome, config in zip(outcomes, configs):
            assert assert_outcome_is_train(outcome, config, dataset)

    def test_a_failing_cell_ends_alone(self):
        """Three hidden ReLU units leave some samples with no live unit, so
        forward fails with a zero output: at different steps in different
        cells. Each failed cell carries train's error and completed rows;
        the others train on as they would alone."""
        dataset = as_dataset(tiny_dataset())
        configs = [tiny_config(hidden_dims=(3,), lr=0.3, seed=seed,
                               activation=Activation.RELU,
                               sampler=SamplerConfig(lambda_=lam))
                   for seed in range(1, 9) for lam in (0.0, 10.0)]
        outcomes = train_cells(configs, dataset)
        survived = [assert_outcome_is_train(outcome, config, dataset)
                    for outcome, config in zip(outcomes, configs)]
        failed_at = {len(o.partial_log) for o in outcomes
                     if isinstance(o, NumericError)}
        assert any(survived) and not all(survived) and len(failed_at) > 2

    def test_failures_in_the_update_and_in_forward(self):
        """At lr 1e308 some cells overflow their params in the first update
        and the others their output in the next forward pass."""
        dataset = as_dataset(tiny_dataset())
        configs = [tiny_config(lr=1e308, seed=seed) for seed in (1, 2, 3)]
        with np.errstate(over="ignore", invalid="ignore"):
            outcomes = train_cells(configs, dataset)
        messages = set()
        for outcome, config in zip(outcomes, configs):
            assert not assert_outcome_is_train(outcome, config, dataset)
            messages.add(str(outcome).split(" ")[0])
        assert messages == {"non-finite", "pre-normalization"}

    @pytest.mark.parametrize("name, value", [
        ("batch_size", 8), ("lr", 0.01), ("metric", MetricKind.EUCLIDEAN),
        ("epochs", 3), ("hidden_dims", (8,)),
        ("activation", Activation.RELU)])
    def test_configs_differing_beyond_seed_and_sampler_rejected(
            self, name, value):
        configs = [tiny_config(seed=1), tiny_config(seed=2, **{name: value})]
        with pytest.raises(ValueError, match=f"not in {name}"):
            train_cells(configs, as_dataset(tiny_dataset()))
