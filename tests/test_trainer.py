"""Tests for batch construction and the training loop."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adasample import metricspace, miner, trainer
from adasample.data import (ClassGroup, DatasetSpec, as_dataset,
                            generate_synthetic, to_input_matrix)
from adasample.errors import DatasetError, NumericError
from adasample.metricspace import MetricKind, pairwise_distances
from adasample.miner import loss_grads, mine_triplets
from adasample.sampler import (LossTracker, SamplerConfig, adaptive_exponent,
                               reweights, update_loss_avg)
from adasample.tensornet import (Activation, GradEstimate, ModelParams,
                                 backward, forward)
from adasample.trainer import (TrainConfig, TrainState, build_batch,
                               effective_lr, init_state, train, train_step)
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


def batch_of(ds, state, cfg, rng, tracker=None):
    """build_batch over ``ds``, a dataset or a list of its classes."""
    return build_batch(state.params, tracker or state.loss_tracker, cfg, rng,
                       as_dataset(ds))


def scalar_build_batch(ds, params, tracker, cfg, rng):
    """Per-class loop over one candidate vector at a time: the oracle for
    build_batch, which must equal it bit for bit and draw the same random
    stream. Returns the batch rows, the weights and the diagnostics."""
    n = cfg.batch_size
    exponent = adaptive_exponent(tracker, cfg.sampler) \
        if tracker.initialized else 0.0
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
    weights, clamped = reweights(np.array(chosen_d))
    starts = offsets[:-1]
    inputs = flat_inputs[np.concatenate([starts + anchor, starts + positive])]
    diag = dict(class_ids=[g.class_id for g in groups], anchor_index=anchor,
                positive_index=positive, probability_used=used,
                exponent=exponent, weight_clamped=clamped)
    return inputs, weights, diag


def ragged_dataset(sizes, patch_size=8, seed=30):
    """Classes of 16 views each, truncated to the given sizes."""
    ds = tiny_dataset(num_classes=len(sizes), k=16, patch_size=patch_size,
                      seed=seed)
    return [ClassGroup(g.class_id, g.patches[:int(k)])
            for g, k in zip(ds, sizes)]


class TestBuildBatch:
    def test_forced_choice_with_two_patches(self):
        ds = tiny_dataset(k=2)
        cfg = tiny_config()
        state = init_state(cfg, 64)
        batch, diag = batch_of(ds, state, cfg, np.random.default_rng(0))
        assert np.all(diag.anchor_index != diag.positive_index)
        assert np.all(diag.probability_used == 1.0)

    def test_rows_are_the_named_patches(self):
        """Row i holds anchor i and row n + i positive i, each equal to the
        to_input_matrix row of the class and patch the diagnostics name."""
        ds = tiny_dataset(num_classes=10, k=5)
        cfg = tiny_config(batch_size=6)
        state = init_state(cfg, 64)
        rng = np.random.default_rng(3)
        by_id = {g.class_id: g for g in ds}
        n = cfg.batch_size
        for tracker in (None, LossTracker(l_avg=0.5, initialized=True)):
            batch, diag = batch_of(ds, state, cfg, rng, tracker)
            assert batch.inputs.shape == (2 * n, 64)
            assert batch.weights.shape == (n,)
            assert batch.weights.mean() == pytest.approx(1.0)
            for i, cid in enumerate(diag.class_ids):
                patches = by_id[int(cid)].patches
                a, p = diag.anchor_index[i], diag.positive_index[i]
                assert a != p
                np.testing.assert_array_equal(batch.inputs[i],
                                              to_input_matrix(patches[[a]])[0])
                np.testing.assert_array_equal(batch.inputs[n + i],
                                              to_input_matrix(patches[[p]])[0])

    def test_identical_for_fixed_seed(self):
        ds = tiny_dataset()
        cfg = tiny_config()
        state = init_state(cfg, 64)
        b1, d1 = batch_of(ds, state, cfg, np.random.default_rng(5))
        b2, d2 = batch_of(ds, state, cfg, np.random.default_rng(5))
        np.testing.assert_array_equal(d1.class_ids, d2.class_ids)
        np.testing.assert_array_equal(d1.anchor_index, d2.anchor_index)
        np.testing.assert_array_equal(d1.positive_index, d2.positive_index)
        np.testing.assert_array_equal(b1.inputs, b2.inputs)
        np.testing.assert_array_equal(b1.weights, b2.weights)

    def test_classes_are_distinct(self):
        ds = tiny_dataset(num_classes=12)
        cfg = tiny_config(batch_size=10)
        state = init_state(cfg, 64)
        rng = np.random.default_rng(6)
        for _ in range(20):
            _, diag = batch_of(ds, state, cfg, rng)
            assert len(set(diag.class_ids)) == len(diag.class_ids)

    def test_uniform_positive_choice_when_lambda_zero(self):
        """With the exponent forced to zero the positive is uniform over the
        k-1 candidates (3-sigma band per candidate)."""
        ds = tiny_dataset(num_classes=3, k=4)
        cfg = tiny_config(batch_size=2,
                          sampler=SamplerConfig(lambda_=0.0))
        # initialized tracker so the exponent path (not the bootstrap) runs
        tracker = LossTracker(l_avg=1.0, initialized=True)
        state = init_state(cfg, 64)
        rng = np.random.default_rng(7)
        counts = {}
        builds = 4000
        for _ in range(builds):
            _, diag = batch_of(ds, state, cfg, rng, tracker)
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
        ds = tiny_dataset()
        cfg = tiny_config()
        state = init_state(cfg, 64)
        _, diag = batch_of(ds, state, cfg, np.random.default_rng(8))
        assert diag.exponent == 0.0

    def test_too_few_classes_rejected(self):
        ds = tiny_dataset(num_classes=3)
        cfg = tiny_config(batch_size=4)
        state = init_state(cfg, 64)
        with pytest.raises(DatasetError, match="classes"):
            batch_of(ds, state, cfg, np.random.default_rng(0))


class TestBuildBatchOracle:
    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("ragged", [False, True])
    @settings(max_examples=15, deadline=None, derandomize=True)
    @given(num_classes=st.integers(4, 14), k=st.integers(2, 16),
           lam=st.sampled_from([None, 0.0, 3.0, 10.0, float("inf")]),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_per_class_loop(self, metric, ragged, num_classes, k, lam,
                                   seed):
        """Uniform k or ragged k in 2..16, both metrics, the bootstrap step
        (lam None), exponent 0, finite and the cap (lam inf)."""
        rng = np.random.default_rng(seed)
        sizes = (rng.integers(2, 17, size=num_classes) if ragged
                 else np.full(num_classes, k))
        ds = ragged_dataset(sizes, seed=int(rng.integers(1 << 30)))
        cfg = tiny_config(batch_size=int(rng.integers(2, num_classes + 1)),
                          metric=metric,
                          sampler=SamplerConfig(lambda_=lam or 0.0))
        tracker = (LossTracker() if lam is None else
                   LossTracker(l_avg=float(rng.uniform(0.05, 2.0)),
                               initialized=True))
        params = init_state(cfg, 64).params
        draw = int(rng.integers(1 << 30))
        batch, diag = build_batch(params, tracker, cfg,
                                  np.random.default_rng(draw),
                                  as_dataset(ds))
        inputs, weights, want = scalar_build_batch(
            ds, params, tracker, cfg, np.random.default_rng(draw))
        np.testing.assert_array_equal(batch.inputs, inputs)
        np.testing.assert_array_equal(batch.weights, weights)
        for name in ("class_ids", "anchor_index", "positive_index",
                     "probability_used"):
            np.testing.assert_array_equal(getattr(diag, name), want[name])
        assert diag.exponent == want["exponent"]
        assert diag.weight_clamped == want["weight_clamped"]

    def test_same_random_stream_as_per_class_loop(self):
        ds = ragged_dataset([2, 9, 16, 5, 3, 12])
        cfg = tiny_config(batch_size=5)
        params = init_state(cfg, 64).params
        tracker = LossTracker(l_avg=0.4, initialized=True)
        rng_kernel, rng_oracle = (np.random.default_rng(11) for _ in "ab")
        for _ in range(5):
            build_batch(params, tracker, cfg, rng_kernel, as_dataset(ds))
            scalar_build_batch(ds, params, tracker, cfg, rng_oracle)
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
        tracker = LossTracker(l_avg=1.0, initialized=True)
        state = init_state(cfg, 64)
        _, diag = batch_of(ds, state, cfg, np.random.default_rng(2), tracker)
        slot = int(np.flatnonzero(diag.class_ids == ds[1].class_id)[0])
        assert diag.exponent == 50.0
        assert diag.probability_used[slot] == 1.0 / 8
        # the other classes concentrate on their farthest candidate
        others = np.arange(4) != slot
        assert np.all(diag.probability_used[others] > 0.9)

    def test_two_patch_classes_are_forced_in_a_ragged_batch(self):
        ds = ragged_dataset([2, 16, 2, 9, 2, 5])
        cfg = tiny_config(batch_size=6)
        tracker = LossTracker(l_avg=0.5, initialized=True)
        state = init_state(cfg, 64)
        rng = np.random.default_rng(4)
        sizes = {g.class_id: len(g) for g in ds}
        for _ in range(10):
            _, diag = batch_of(ds, state, cfg, rng, tracker)
            for cid, a, p, used in zip(diag.class_ids, diag.anchor_index,
                                       diag.positive_index,
                                       diag.probability_used):
                assert a != p and 0 <= p < sizes[int(cid)]
                if sizes[int(cid)] == 2:
                    assert p == 1 - a and used == 1.0


def manual_update(state, batch, config):
    """Compose the expected single-step update directly."""
    n = len(batch.weights)
    descs, cache = forward(state.params, batch.inputs)
    mined = mine_triplets(descs[:n], descs[n:], config.metric, config.margin,
                          config.neg_mode)
    ga, gp = loss_grads(descs[:n], descs[n:], mined, config.metric,
                        batch.weights)
    grads = backward(state.params, cache, np.vstack([ga, gp]))
    new_layers = []
    for theta, g, v in zip(state.params.layers, grads.layers,
                           state.momentum_buffers.layers):
        g_total = g + config.weight_decay * theta
        v_new = config.momentum * v + g_total
        new_layers.append(theta - state.lr * v_new)
    return new_layers


class TestTrainStep:
    def setup_batch(self, cfg, seed=9):
        ds = tiny_dataset()
        state = init_state(cfg, 64)
        batch, _ = batch_of(ds, state, cfg, np.random.default_rng(seed))
        return state, batch

    def test_zero_learning_rate_keeps_params_and_updates_tracker(self):
        cfg = tiny_config(lr=0.0)
        state, batch = self.setup_batch(cfg)
        new_state, metrics = train_step(state, batch, cfg)
        for a, b in zip(state.params.layers, new_state.params.layers):
            np.testing.assert_array_equal(a, b)
        assert new_state.loss_tracker.initialized
        assert metrics["mean_loss"] >= 0

    def test_inactive_hinges_without_decay_keep_params(self):
        # seed 1 yields a batch whose hinges are all inactive at this margin
        cfg = tiny_config(margin=1e-9, weight_decay=0.0)
        state, batch = self.setup_batch(cfg, seed=1)
        n = len(batch.weights)
        descs, _ = forward(state.params, batch.inputs)
        mined = mine_triplets(descs[:n], descs[n:], cfg.metric, cfg.margin)
        assert all(t.loss == 0 for t in mined)
        new_state, _ = train_step(state, batch, cfg)
        for a, b in zip(state.params.layers, new_state.params.layers):
            np.testing.assert_array_equal(a, b)

    def test_update_matches_manual_composition(self):
        cfg = tiny_config(lr=0.05, momentum=0.3, weight_decay=1e-3)
        state, batch = self.setup_batch(cfg)
        expected = manual_update(state, batch, cfg)
        new_state, _ = train_step(state, batch, cfg)
        for got, want in zip(new_state.params.layers, expected):
            np.testing.assert_allclose(got, want, atol=1e-14)

    def test_single_step_descends_weighted_loss(self):
        cfg = tiny_config(lr=1e-3, momentum=0.0, weight_decay=0.0)
        state, batch = self.setup_batch(cfg)
        n = len(batch.weights)

        def weighted_loss(params):
            descs, _ = forward(params, batch.inputs)
            mined = mine_triplets(descs[:n], descs[n:], cfg.metric,
                                  cfg.margin)
            return float(np.dot(batch.weights, [t.loss for t in mined]))

        before = weighted_loss(state.params)
        assert before > 0
        new_state, _ = train_step(state, batch, cfg)
        assert weighted_loss(new_state.params) < before


def oracle_train_step(state, batch, config):
    """train_step as it was before it reused build_batch's forward pass: it
    runs its own forward on the batch rows. train_step must equal it bit
    for bit."""
    n = len(batch.weights)
    descs, cache = forward(state.params, batch.inputs)
    desc_a, desc_p = descs[:n], descs[n:]

    mined = mine_triplets(desc_a, desc_p, config.metric, config.margin,
                          config.neg_mode)
    mean_loss = float(mined.loss.mean())
    if not np.isfinite(mean_loss):
        raise NumericError(f"non-finite batch loss at step {state.step}: "
                           f"{mined.loss}")

    grad_a, grad_p = loss_grads(desc_a, desc_p, mined, config.metric,
                                batch.weights)
    param_grads = backward(state.params, cache, np.vstack([grad_a, grad_p]))

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

    tracker = update_loss_avg(state.loss_tracker, mean_loss, config.sampler)
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


def assert_states_equal(got, want):
    for name in ("params", "momentum_buffers"):
        for a, b in zip(getattr(got, name).layers,
                        getattr(want, name).layers, strict=True):
            assert np.array_equal(a, b), name
    assert got.params.activation is want.params.activation
    assert got.loss_tracker == want.loss_tracker
    assert (got.epoch, got.step, got.lr) == (want.epoch, want.step, want.lr)


class TestOneForwardPass:
    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("activation", [Activation.TANH, Activation.RELU])
    @pytest.mark.parametrize("ragged", [False, True])
    def test_steps_equal_the_step_with_its_own_forward(self, metric,
                                                       activation, ragged):
        """From the same state and batch, every step equals the oracle step
        that runs its own forward: params, momentum buffers, loss tracker
        and metrics row, over 30 steps of one trajectory."""
        rng = np.random.default_rng(len(metric.value) + 2 * ragged)
        sizes = (rng.integers(2, 17, size=12) if ragged
                 else np.full(12, rng.integers(2, 17)))
        ds = ragged_dataset(sizes, seed=int(rng.integers(1 << 30)))
        cfg = tiny_config(batch_size=6, metric=metric, activation=activation,
                          lr=0.02, momentum=0.5, weight_decay=1e-3)
        state, want = init_state(cfg, 64), init_state(cfg, 64)
        dataset = as_dataset(ds)
        for _ in range(30):
            batch, _ = build_batch(state.params, state.loss_tracker, cfg,
                                   rng, dataset)
            state, metrics = train_step(state, batch, cfg)
            want, want_metrics = oracle_train_step(want, batch, cfg)
            assert metrics == want_metrics
            assert_states_equal(state, want)
        assert state.loss_tracker.initialized

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
    def test_a_step_checks_rows_twice_and_build_batch_never(self,
                                                           monkeypatch):
        """The rows a step works on come out of ``forward`` unit-norm, so
        they are checked only where they enter ``miner``'s public
        functions: once in mine_triplets, once in loss_grads."""
        calls = []
        real = metricspace._unit_rows

        def counted(*batches, **kwargs):
            calls.append(len(batches))
            return real(*batches, **kwargs)

        monkeypatch.setattr(metricspace, "_unit_rows", counted)
        monkeypatch.setattr(miner, "_unit_rows", counted)
        ds = ragged_dataset([2, 9, 16, 5, 3, 12])
        for metric in MetricKind:
            cfg = tiny_config(batch_size=5, metric=metric)
            state = init_state(cfg, 64)
            rng = np.random.default_rng(12)
            for tracker in (None, LossTracker(l_avg=0.4, initialized=True)):
                batch, _ = batch_of(ds, state, cfg, rng, tracker)
                assert calls == []
                train_step(state, batch, cfg)
                assert calls == [2, 2]
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
        reference = init_state(cfg, 64).params
        assert log == []
        for a, b in zip(params.layers, reference.layers):
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
