"""Tests for verification metrics, held-out evaluation, the probe, and the
rank-sum test."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

from adasample import data, evaluation
from adasample.config import EvalOptions, RunConfig, substream_seed
from adasample.data import (ClassGroup, DatasetSpec, as_dataset,
                            generate_synthetic, to_input_matrix)
from adasample.errors import DatasetError, UndefinedCorrelationError
from adasample.evaluation import (EXACT_MW_LIMIT, EvalReport,
                                  InfoProbeResult, evaluate_params,
                                  fpr_at_recall, info_correlation_probe,
                                  mann_whitney_u, pearson, retrieval_map,
                                  split_holdout, verification_distances)
from adasample.metricspace import MetricKind, _paired, pairwise_distances
from adasample.miner import NegMode, mine_triplets
from adasample.tensornet import Activation, backward, forward, init_params
from adasample.trainer import TrainConfig
from finite_diff import norm
from scalar_distance import scalar_distance_grad
from scalar_loss import scalar_loss_grads
from scalar_retrieval import scalar_retrieval_map
from test_miner import unit_rows


def brute_force_fpr(pos, neg, recall):
    """Sweep every positive distance as a threshold candidate and take the
    smallest one reaching the recall."""
    best = None
    for t in sorted(pos):
        if np.mean(pos <= t) >= recall:
            best = t
            break
    return float(np.mean(neg <= best))


def scalar_info_correlation_probe(dataset, params, kind, rng,
                                  sample_classes=32, margin=1.0,
                                  neg_mode=NegMode.SAME_ROLE,
                                  pair_term_only=False):
    """One full forward/mine/backward pass per (class, candidate), with the
    loss gradient from the scalar loop of ``scalar_loss``: the oracle for
    the batched info_correlation_probe. It shares neither the mining
    bookkeeping nor ``miner._triplet_grads`` with the probe."""
    usable = [g for g in dataset if len(g.patches) >= 2]
    if len(usable) < 2:
        raise ValueError("probe needs at least 2 classes with k >= 2")
    m = min(sample_classes, len(usable))
    picked = [usable[int(i)] for i in rng.choice(len(usable), size=m,
                                                 replace=False)]
    anchor_idx = [int(rng.integers(len(g.patches))) for g in picked]
    context_idx = []
    for g, a in zip(picked, anchor_idx):
        others = [i for i in range(len(g.patches)) if i != a]
        context_idx.append(others[int(rng.integers(len(others)))])

    p_dist_parts = []
    p_info_parts = []
    for slot in range(m):
        group = picked[slot]
        cand_ids = [i for i in range(len(group.patches))
                    if i != anchor_idx[slot]]
        dists = np.empty(len(cand_ids))
        infos = np.empty(len(cand_ids))
        for ci, cand in enumerate(cand_ids):
            anchors = []
            positives = []
            for other in range(m):
                anchors.append(picked[other].patches[anchor_idx[other]])
                pos_id = cand if other == slot else context_idx[other]
                positives.append(picked[other].patches[pos_id])
            inputs = to_input_matrix(anchors + positives)
            descs, cache = forward(params, inputs)
            desc_a, desc_p = descs[:m], descs[m:]
            mined = mine_triplets(desc_a, desc_p, kind, margin, neg_mode)
            dists[ci] = mined[slot].d_pos
            onehot = np.zeros(m)
            onehot[slot] = 1.0
            if pair_term_only:
                d_pos = mined[slot].d_pos
                ga, gb, _ = scalar_distance_grad(desc_a[slot], desc_p[slot],
                                                 kind)
                out_grads = np.zeros_like(descs)
                out_grads[slot] = 2.0 * d_pos * ga
                out_grads[m + slot] = 2.0 * d_pos * gb
            elif mined[slot].loss > 0.0:
                grad_a, grad_p = scalar_loss_grads(desc_a, desc_p, mined,
                                                   kind, onehot)
                out_grads = np.vstack([grad_a, grad_p])
            else:
                infos[ci] = 0.0
                continue
            grads = backward(params, cache, out_grads)
            infos[ci] = norm(grads)
        d_sum, i_sum = dists.sum(), infos.sum()
        p_dist_parts.append(dists / d_sum if d_sum > 0
                            else np.full(dists.size, 1.0 / dists.size))
        p_info_parts.append(infos / i_sum if i_sum > 0
                            else np.zeros(infos.size))

    p_dist = np.concatenate(p_dist_parts)
    p_info = np.concatenate(p_info_parts)

    def spread(v):
        scale = float(np.abs(v).max())
        return float(v.std() / scale) if scale > 0 else 0.0

    if spread(p_dist) < 1e-6 or spread(p_info) < 1e-6:
        return InfoProbeResult(p_dist, p_info, float("nan"), True)
    return InfoProbeResult(p_dist, p_info, pearson(p_dist, p_info), False)


def ragged_dataset(sizes, seed, **kw):
    """Synthetic classes cut to the given sizes (a size below 2 leaves a
    class the probe must skip)."""
    spec = dict(num_classes=len(sizes), patches_per_class=max(max(sizes), 2),
                patch_size=6, outlier_fraction=0.0, seed=seed)
    spec.update(kw)
    full = generate_synthetic(DatasetSpec(**spec))
    return as_dataset(ClassGroup(g.class_id, g.patches[:k])
                      for g, k in zip(full, sizes))


def assert_probe_matches_oracle(dataset, params, kind, seed, **kw):
    got = info_correlation_probe(dataset, params, kind,
                                 np.random.default_rng(seed), **kw)
    want = scalar_info_correlation_probe(dataset, params, kind,
                                         np.random.default_rng(seed), **kw)
    assert got.p_dist.size == want.p_dist.size
    np.testing.assert_allclose(got.p_dist, want.p_dist, rtol=1e-9,
                               atol=1e-12)
    np.testing.assert_allclose(got.p_info, want.p_info, rtol=1e-9,
                               atol=1e-12)
    assert got.degenerate == want.degenerate
    return got, want


class TestFprAtRecall:
    def test_perfect_separation_gives_zero(self):
        assert fpr_at_recall(np.array([0.1, 0.2]), np.array([0.5, 0.9])) == 0.0

    def test_total_inversion_gives_one(self):
        pos = np.array([1.0, 1.1, 1.2, 1.3])
        neg = np.array([0.1, 0.2, 0.3])
        assert fpr_at_recall(pos, neg, 0.95) == 1.0

    def test_matches_brute_force_sweep(self):
        pos = np.arange(1, 21) * 0.1
        neg = np.arange(1, 21) * 0.5 * 0.2 + 0.05
        got = fpr_at_recall(pos, neg, 0.95)
        assert got == pytest.approx(brute_force_fpr(pos, neg, 0.95))

    def test_matches_brute_force_on_random_samples(self):
        rng = np.random.default_rng(32)
        for _ in range(100):
            pos = rng.uniform(0, 2, size=rng.integers(5, 40))
            neg = rng.uniform(0, 2, size=rng.integers(5, 40))
            for recall in (0.5, 0.8, 0.95, 1.0):
                assert fpr_at_recall(pos, neg, recall) == pytest.approx(
                    brute_force_fpr(pos, neg, recall))

    def test_monotone_in_recall(self):
        rng = np.random.default_rng(33)
        pos = rng.uniform(0, 1, size=50)
        neg = rng.uniform(0, 1, size=50)
        values = [fpr_at_recall(pos, neg, r)
                  for r in np.linspace(0.05, 1.0, 20)]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            fpr_at_recall(np.array([]), np.array([1.0]))


def retrieval_inputs(seed, num_queries, gallery_size, dim, num_labels,
                     duplicate):
    """Random unit rows and labels; with ``duplicate`` every gallery row is
    one of about a third as many distinct rows and every other query is a
    copy of a gallery row, so distances tie exactly, at 0 and above."""
    rng = np.random.default_rng(seed)
    Q = unit_rows(rng, num_queries, dim)
    G = unit_rows(rng, gallery_size, dim)
    if duplicate:
        G = G[rng.integers(0, max(1, gallery_size // 3), size=gallery_size)]
        Q[::2] = G[rng.integers(0, gallery_size, size=len(Q[::2]))]
    return (Q, rng.integers(0, num_labels, size=num_queries),
            G, rng.integers(0, num_labels, size=gallery_size))


def assert_retrieval_matches_oracle(Q, ql, G, gl, kind):
    """retrieval_map equals the per-query argsort loop bit for bit."""
    got = retrieval_map(Q, ql, G, gl, kind)
    want = scalar_retrieval_map(Q, ql, G, gl, kind)
    assert (got.num_queries, got.num_excluded) == \
        (want.num_queries, want.num_excluded)
    if want.num_queries == 0:
        assert math.isnan(got.mean_ap)
    else:
        assert got.mean_ap == want.mean_ap
    return got


class TestRetrievalMap:
    def unit(self, v):
        v = np.asarray(v, dtype=np.float64)
        return v / np.linalg.norm(v)

    def test_all_matches_first_gives_one(self):
        q = np.eye(3)
        g = np.vstack([np.eye(3), self.unit([1.0, 1.0, 1.0])])
        res = retrieval_map(q, [0, 1, 2], g, [0, 1, 2, 99],
                            MetricKind.ANGULAR)
        assert res.mean_ap == pytest.approx(1.0)
        assert res.num_excluded == 0

    def test_single_relevant_at_second_rank(self):
        q = np.array([[1.0, 0.0]])
        g = np.array([[np.cos(0.1), np.sin(0.1)],
                      [np.cos(0.7), np.sin(0.7)]])
        res = retrieval_map(q, [5], g, [3, 5], MetricKind.ANGULAR)
        assert res.mean_ap == pytest.approx(0.5)

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_ties_are_broken_by_gallery_index(self, kind):
        """Items 1-3 coincide with the query: ranked 1, 2, 3 by index, the
        matches 2 and 0 sit at ranks 2 and 4 (AP 1/2), not 1 and 4."""
        q = np.array([[1.0, 0.0]])
        g = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        res = assert_retrieval_matches_oracle(q, [0], g, [0, 9, 0, 9], kind)
        assert res.mean_ap == 0.5

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_matches_the_oracle(self, kind):
        assert_retrieval_matches_oracle(*retrieval_inputs(34, 10, 30, 5, 4,
                                                          False), kind)

    @pytest.mark.parametrize("kind", list(MetricKind))
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_exact_ties_from_duplicated_gallery_rows(self, kind, seed):
        Q, ql, G, gl = retrieval_inputs(seed, 12, 60, 4, 3, True)
        dists = pairwise_distances(Q, G, kind)
        assert any(np.unique(row).size < row.size for row in dists)
        assert np.any(dists == 0.0)
        assert_retrieval_matches_oracle(Q, ql, G, gl, kind)

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_every_gallery_row_tied(self, kind):
        rng = np.random.default_rng(36)
        G = np.repeat(unit_rows(rng, 1, 5), 20, axis=0)
        ql, gl = rng.integers(0, 3, size=7), rng.integers(0, 3, size=20)
        assert_retrieval_matches_oracle(unit_rows(rng, 7, 5), ql, G, gl,
                                        kind)

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_queries_without_a_match(self, kind):
        Q, ql, G, gl = retrieval_inputs(37, 9, 25, 4, 3, True)
        ql[::3] = 7                                 # no gallery item is 7
        res = assert_retrieval_matches_oracle(Q, ql, G, gl, kind)
        assert (res.num_queries, res.num_excluded) == (6, 3)
        res = assert_retrieval_matches_oracle(Q, np.full(9, 7), G, gl, kind)
        assert (res.num_queries, res.num_excluded) == (0, 9)

    @pytest.mark.parametrize("kind", list(MetricKind))
    @pytest.mark.parametrize("duplicate", [False, True])
    def test_relevant_counts_from_1_to_16(self, kind, duplicate):
        """Query c has c + 1 matches among 136 class items and 30
        distractors, every count in one call."""
        Q, _, G, _ = retrieval_inputs(38, 16, 166, 6, 1, duplicate)
        gl = np.concatenate([np.repeat(np.arange(16), np.arange(1, 17)),
                             np.full(30, -1)])
        gl = np.random.default_rng(39).permutation(gl)
        res = assert_retrieval_matches_oracle(Q, np.arange(16), G, gl, kind)
        assert res.num_queries == 16

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 2**16), num_queries=st.integers(1, 20),
           gallery_size=st.integers(1, 60), dim=st.integers(1, 6),
           num_labels=st.integers(1, 8), duplicate=st.booleans(),
           kind=st.sampled_from(list(MetricKind)))
    def test_matches_the_oracle_on_drawn_shapes(self, seed, num_queries,
                                                gallery_size, dim,
                                                num_labels, duplicate, kind):
        assert_retrieval_matches_oracle(
            *retrieval_inputs(seed, num_queries, gallery_size, dim,
                              num_labels, duplicate), kind)

    def test_unmatched_queries_are_excluded_and_counted(self):
        q = np.eye(2)
        g = np.eye(2)
        res = retrieval_map(q, [0, 7], g, [0, 1], MetricKind.ANGULAR)
        assert res.num_excluded == 1
        assert res.num_queries == 1

    def test_invariant_under_monotone_distance_transform(self):
        """Rank-based, so squashing the metric cannot change the result."""
        rng = np.random.default_rng(35)
        Q = rng.normal(size=(6, 4))
        Q /= np.linalg.norm(Q, axis=1, keepdims=True)
        G = rng.normal(size=(20, 4))
        G /= np.linalg.norm(G, axis=1, keepdims=True)
        ql = rng.integers(0, 3, size=6)
        gl = rng.integers(0, 3, size=20)
        # euclidean and angular are monotone transforms of one another on
        # the sphere, so the mean AP must agree exactly
        r1 = retrieval_map(Q, ql, G, gl, MetricKind.EUCLIDEAN)
        r2 = retrieval_map(Q, ql, G, gl, MetricKind.ANGULAR)
        assert r1.mean_ap == pytest.approx(r2.mean_ap, abs=1e-12)


class TestPearson:
    def test_affine_relation_gives_one(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        assert pearson(x, 2 * x + 1) == pytest.approx(1.0)

    def test_negation_gives_minus_one(self):
        x = np.array([1.0, 2.0, 3.0])
        assert pearson(x, -x) == pytest.approx(-1.0)

    def test_five_point_closed_form(self):
        x = np.array([1.0, 2.0, 3.0, 4.0, 5.0])
        y = np.array([2.0, 1.0, 4.0, 3.0, 5.0])
        xc, yc = x - x.mean(), y - y.mean()
        expected = float(xc @ yc / np.sqrt((xc @ xc) * (yc @ yc)))
        assert pearson(x, y) == pytest.approx(expected, abs=1e-12)

    def test_invariant_under_positive_affine_maps(self):
        rng = np.random.default_rng(36)
        x = rng.normal(size=30)
        y = rng.normal(size=30)
        base = pearson(x, y)
        assert pearson(3.0 * x + 5.0, y) == pytest.approx(base, abs=1e-12)
        assert pearson(x, 0.25 * y - 2.0) == pytest.approx(base, abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(UndefinedCorrelationError):
            pearson(np.ones(4), np.arange(4.0))


class TestInfoCorrelationProbe:
    def probe_dataset(self, **kw):
        base = dict(num_classes=10, patches_per_class=4, patch_size=8,
                    outlier_fraction=0.0, seed=40)
        base.update(kw)
        return generate_synthetic(DatasetSpec(**base))

    def test_output_lengths_match_candidate_count(self):
        ds = self.probe_dataset()
        params = init_params([64, 16, 8], seed=2)
        res = info_correlation_probe(ds, params, MetricKind.ANGULAR,
                                     np.random.default_rng(0),
                                     sample_classes=6)
        assert res.p_dist.shape == res.p_info.shape == (6 * 3,)

    def test_constant_output_across_candidates_is_degenerate(self):
        """Classes whose views are identical produce no ordering signal, so
        the probe flags the correlation as undefined."""
        ds = self.probe_dataset(warp_magnitude=0.0, noise_sigma=0.0,
                                brightness_jitter=0.0)
        params = init_params([64, 16, 8], seed=2)
        res = info_correlation_probe(ds, params, MetricKind.ANGULAR,
                                     np.random.default_rng(0),
                                     sample_classes=5)
        assert res.degenerate
        assert np.isnan(res.pearson)

    def test_near_proportional_case_correlates(self):
        """Probed on the squared matching distance alone, the gradient norm
        is close to proportional to the distance (the leftover variation is
        per-sample Jacobian anisotropy), so the correlation approaches 1."""
        ds = self.probe_dataset(warp_magnitude=3.0, noise_sigma=0.01,
                                brightness_jitter=0.01)
        params = init_params([64, 24, 8], seed=3)
        res = info_correlation_probe(ds, params, MetricKind.EUCLIDEAN,
                                     np.random.default_rng(1),
                                     sample_classes=8, pair_term_only=True)
        assert not res.degenerate
        assert res.pearson > 0.95

    def test_deterministic_given_rng(self):
        ds = self.probe_dataset()
        params = init_params([64, 16, 8], seed=2)
        r1 = info_correlation_probe(ds, params, MetricKind.ANGULAR,
                                    np.random.default_rng(5), sample_classes=4)
        r2 = info_correlation_probe(ds, params, MetricKind.ANGULAR,
                                    np.random.default_rng(5), sample_classes=4)
        assert np.array_equal(r1.p_dist, r2.p_dist)
        assert np.array_equal(r1.p_info, r2.p_info)


class TestProbeDraws:
    """The probe draws its anchors and contexts as two array calls; the
    per-class scalar calls they replace are the oracle."""

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(sizes=st.lists(st.integers(2, 40), min_size=1, max_size=64),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_array_draws_equal_per_class_calls(self, sizes, seed):
        sizes = np.array(sizes)
        rng, oracle = (np.random.default_rng(seed) for _ in "ab")
        anchor = rng.integers(0, sizes)
        context = rng.integers(0, sizes - 1)
        want_anchor = [int(oracle.integers(k)) for k in sizes.tolist()]
        want_context = [int(oracle.integers(k - 1)) for k in sizes.tolist()]
        assert anchor.tolist() == want_anchor
        assert context.tolist() == want_context
        assert rng.bit_generator.state == oracle.bit_generator.state

    def test_probe_consumes_the_per_class_stream(self):
        dataset = ragged_dataset([5, 2, 9, 1, 7, 3, 4], seed=12)
        params = init_params([36, 10, 5], seed=2)
        rng, oracle = (np.random.default_rng(8) for _ in "ab")
        info_correlation_probe(dataset, params, MetricKind.ANGULAR, rng,
                               sample_classes=4)
        usable = [g for g in dataset if len(g) >= 2]
        sizes = [len(usable[int(i)]) for i in
                 oracle.choice(len(usable), size=4, replace=False)]
        [int(oracle.integers(k)) for k in sizes]
        [int(oracle.integers(k - 1)) for k in sizes]
        assert rng.bit_generator.state == oracle.bit_generator.state


class TestInfoCorrelationProbeOracle:
    """The batched probe against the per-candidate loop it replaced."""

    @pytest.mark.parametrize("kind", list(MetricKind))
    @pytest.mark.parametrize("neg_mode", list(NegMode))
    @pytest.mark.parametrize("pair_term_only", [False, True])
    def test_matches_scalar_probe(self, kind, neg_mode, pair_term_only):
        sizes = [2, 9, 1, 5, 3, 0, 8, 4, 6, 7]
        ds = ragged_dataset(sizes, seed=41)
        params = init_params([36, 12, 6], seed=4)
        got, _ = assert_probe_matches_oracle(
            ds, params, kind, 7, sample_classes=6, margin=1.0,
            neg_mode=neg_mode, pair_term_only=pair_term_only)
        assert not got.degenerate

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(sizes=st.lists(st.integers(0, 9), min_size=2, max_size=9)
           .filter(lambda s: sum(k >= 2 for k in s) >= 2),
           sample=st.integers(2, 11), seed=st.integers(0, 2**16),
           kind=st.sampled_from(list(MetricKind)),
           neg_mode=st.sampled_from(list(NegMode)),
           pair_term_only=st.booleans(),
           margin=st.sampled_from([0.05, 0.5, 1.0, 4.0]),
           relu=st.booleans())
    def test_matches_scalar_probe_on_drawn_shapes(
            self, sizes, sample, seed, kind, neg_mode, pair_term_only,
            margin, relu):
        """Ragged sizes 0..9, sample_classes from 2 to past the usable
        classes, margins that deactivate some hinges, both activations."""
        ds = ragged_dataset(sizes, seed=seed)
        params = init_params([36, 10, 5], seed=seed,
                             activation=Activation.RELU if relu
                             else Activation.TANH)
        assert_probe_matches_oracle(
            ds, params, kind, seed + 1,
            sample_classes=sample,
            margin=margin, neg_mode=neg_mode, pair_term_only=pair_term_only)

    def test_all_hinges_inactive_scores_zero(self):
        ds = ragged_dataset([3, 4, 5], seed=8)
        params = init_params([36, 12, 6], seed=6)
        got, _ = assert_probe_matches_oracle(ds, params, MetricKind.ANGULAR,
                                             2, sample_classes=3,
                                             margin=-10.0)
        assert np.all(got.p_info == 0.0)
        assert got.degenerate


def oracle_verification_distances(dataset, params, kind, num_pairs, rng):
    """Lists of sampled patches and a forward pass over them: the oracle
    for evaluation.verification_distances, which draws the same random
    stream."""
    usable = [g for g in dataset if len(g.patches) >= 2]
    if len(usable) < 2:
        raise DatasetError("verification needs >= 2 classes with k >= 2")
    patches = []
    for _ in range(num_pairs):
        g = usable[int(rng.integers(len(usable)))]
        i, j = rng.choice(len(g.patches), size=2, replace=False)
        patches.append(g.patches[int(i)])
        patches.append(g.patches[int(j)])
    for _ in range(num_pairs):
        gi, gj = rng.choice(len(dataset), size=2, replace=False)
        pa = dataset[int(gi)].patches
        pb = dataset[int(gj)].patches
        patches.append(pa[int(rng.integers(len(pa)))])
        patches.append(pb[int(rng.integers(len(pb)))])
    descs, _ = forward(params, to_input_matrix(patches))
    d = _paired(descs[0::2], descs[1::2], kind)     # forward's unit rows
    return d[:num_pairs], d[num_pairs:]


def oracle_evaluate_params(dataset, params, config):
    """Patch lists and one forward pass each for the verification pairs,
    the queries and the gallery, and the per-query retrieval loop: the
    oracle for evaluation.evaluate_params.
    Returns the report and the verification distances."""
    rng = np.random.default_rng(substream_seed(config.seed, "eval"))
    kind = config.train.metric
    pos_d, neg_d = oracle_verification_distances(
        dataset, params, kind, config.eval.num_pairs, rng)
    fpr95 = fpr_at_recall(pos_d, neg_d, 0.95)
    n_queries = min(config.eval.num_queries, len(dataset))
    query_patches, query_labels = [], []
    gallery_patches, gallery_labels = [], []
    for g in dataset[:n_queries]:
        query_patches.append(g.patches[0])
        query_labels.append(g.class_id)
        gallery_patches.extend(g.patches[1:])
        gallery_labels.extend([g.class_id] * (len(g) - 1))
    q_descs, _ = forward(params, to_input_matrix(query_patches))
    g_descs, _ = forward(params, to_input_matrix(gallery_patches))
    result = scalar_retrieval_map(q_descs, query_labels, g_descs,
                                  gallery_labels, kind)
    report = EvalReport(fpr95=fpr95, retrieval_map=result.mean_ap)
    return report, pos_d, neg_d


def eval_config(seed, metric, num_pairs, num_queries, **train):
    return RunConfig(seed=seed, train=TrainConfig(metric=metric, **train),
                     eval=EvalOptions(num_pairs=num_pairs,
                                      num_queries=num_queries))


def assert_evaluation_matches_oracle(dataset, params, config):
    """evaluate_params and verification_distances equal the oracle bit for
    bit: the same metrics and the same verification distances."""
    want, want_pos, want_neg = oracle_evaluate_params(dataset, params, config)
    got = evaluate_params(dataset, params, config)
    assert got.fpr95 == want.fpr95
    assert got.retrieval_map == want.retrieval_map
    descs, _ = forward(params, dataset.rows)
    rng = np.random.default_rng(substream_seed(config.seed, "eval"))
    pos, neg = verification_distances(descs, dataset.offsets,
                                      config.train.metric,
                                      config.eval.num_pairs, rng)
    assert np.array_equal(pos, want_pos)
    assert np.array_equal(neg, want_neg)
    return got


class TestEvaluateParamsOracle:
    """Evaluation from one forward pass over the stacked class inputs
    against the patch lists and three forward passes it replaced.

    Equal verification distances need BLAS to compute each row of a
    product independently of the other rows. OpenBLAS does so only above
    a size it picks per product (on Haswell, at 0.3.31, about 1,200
    output entries: 39 rows of the default network's last layer), so
    every case runs the default network on at least 64 rows in both
    paths. The workloads evaluate hundreds of patches and 4 x num_pairs
    rows."""

    DIMS = [256, 64, 32]

    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("activation", [Activation.TANH, Activation.RELU])
    @pytest.mark.parametrize("num_queries", [5, 20])
    def test_ragged_classes_match_the_oracle(self, metric, activation,
                                             num_queries):
        """Classes of one patch are negatives only and queries without a
        gallery match; 20 queries exceed the 16 classes."""
        sizes = [1, 3, 6, 2, 1, 5, 4, 9, 2, 1, 3, 6, 8, 7, 1, 5]
        ds = ragged_dataset(sizes, seed=23, patch_size=16)
        params = init_params(self.DIMS, seed=5, activation=activation)
        got = assert_evaluation_matches_oracle(
            ds, params, eval_config(3, metric, 400, num_queries))
        assert 0.0 < got.retrieval_map <= 1.0

    @pytest.mark.parametrize("metric", list(MetricKind))
    @pytest.mark.parametrize("num_pairs", [
        5000, evaluation._PAIR_BLOCK + evaluation._PAIR_BLOCK // 4 + 1])
    def test_holdout_split_matches_the_oracle(self, metric, num_pairs):
        """The desk-scale held-out split compare evaluates: the trailing 50
        of 200 classes, 5000 pairs; and a pair count whose distances fill
        two blocks of ``_PAIR_BLOCK`` and part of a third."""
        ds = generate_synthetic(DatasetSpec(seed=11))
        holdout = split_holdout(ds, 0.25)[1]
        params = init_params(self.DIMS, seed=2)
        assert_evaluation_matches_oracle(
            holdout, params, eval_config(4, metric, num_pairs, 200))

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(sizes=st.lists(st.integers(1, 9), min_size=10, max_size=16)
           .filter(lambda s: sum(s) >= 64 and sum(k >= 2 for k in s) >= 2),
           num_pairs=st.integers(16, 300), num_queries=st.integers(1, 20),
           seed=st.integers(0, 2**16),
           metric=st.sampled_from(list(MetricKind)), relu=st.booleans())
    def test_matches_the_oracle_on_drawn_shapes(self, sizes, num_pairs,
                                                num_queries, seed, metric,
                                                relu):
        ds = ragged_dataset(sizes, seed=seed, patch_size=16)
        if all(len(g.patches) == 1 for g in ds[:num_queries]):
            return                      # no gallery: both raise
        params = init_params(self.DIMS, seed=seed,
                             activation=Activation.RELU if relu
                             else Activation.TANH)
        assert_evaluation_matches_oracle(
            ds, params, eval_config(seed, metric, num_pairs, num_queries))

    def test_one_stack_and_one_forward_per_call(self, monkeypatch):
        """A dataset is normalized on its first call only; every call runs
        one forward pass over every patch."""
        calls = {"normalized": [], "forward": []}
        real_normalize, real_forward = (data.to_input_matrix,
                                        evaluation.forward)

        def counting_normalize(patches):
            calls["normalized"].append(len(patches))
            return real_normalize(patches)

        def counting_forward(params, inputs):
            calls["forward"].append(len(inputs))
            return real_forward(params, inputs)

        monkeypatch.setattr(data, "to_input_matrix", counting_normalize)
        monkeypatch.setattr(evaluation, "forward", counting_forward)
        ds = ragged_dataset([1, 3, 6, 2, 5], seed=9)
        params = init_params([36, 10, 5], seed=1)
        config = eval_config(1, MetricKind.ANGULAR, 2000, 3)
        evaluate_params(ds, params, config)
        assert calls == {"normalized": [17], "forward": [17]}
        for _ in range(2):
            evaluate_params(ds, params, config)
        assert calls == {"normalized": [17], "forward": [17, 17, 17]}

    def test_too_few_classes_with_pairs_rejected(self):
        ds = ragged_dataset([1, 4, 1], seed=9)
        with pytest.raises(DatasetError, match="k >= 2"):
            evaluate_params(ds, init_params([36, 10, 5], seed=1),
                            eval_config(1, MetricKind.ANGULAR, 10, 3))


def enumerate_exact_p(a, b):
    """Oracle: P(U <= U_obs) by enumerating every assignment of the pooled
    values to the first sample."""
    pooled = np.concatenate([a, b])
    n1 = len(a)

    def u_of(idx):
        mask = np.zeros(len(pooled), dtype=bool)
        mask[list(idx)] = True
        x, y = pooled[mask], pooled[~mask]
        return (x[:, None] > y[None, :]).sum() + 0.5 * (x[:, None] == y[None, :]).sum()

    u_obs = u_of(range(n1))
    us = [u_of(c) for c in itertools.combinations(range(len(pooled)), n1)]
    return float(np.mean([u <= u_obs + 1e-12 for u in us]))


class TestMannWhitney:
    def test_clean_separation_two_vs_two(self):
        res = mann_whitney_u([1.0, 2.0], [3.0, 4.0])
        assert res.exact
        assert res.u == 0.0
        assert res.p_value == pytest.approx(1 / 6)

    def test_clean_separation_five_vs_five(self):
        res = mann_whitney_u(np.arange(1.0, 6.0), np.arange(6.0, 11.0))
        assert res.u == 0.0
        assert res.p_value == pytest.approx(1 / 252)

    def test_identical_large_samples_sit_near_half(self):
        x = np.arange(15.0)
        res = mann_whitney_u(x, x.copy())
        assert not res.exact
        assert res.p_value == pytest.approx(0.5, abs=0.05)

    def test_exact_branch_matches_enumeration_small_samples(self):
        rng = np.random.default_rng(37)
        for _ in range(40):
            n1 = int(rng.integers(1, 6))
            n2 = int(rng.integers(1, 11 - n1))
            a = rng.integers(0, 6, size=n1).astype(float)   # ties likely
            b = rng.integers(0, 6, size=n2).astype(float)
            res = mann_whitney_u(a, b)
            assert res.exact
            assert res.p_value == pytest.approx(enumerate_exact_p(a, b),
                                                abs=1e-12)

    def test_exact_branch_matches_enumeration_without_ties(self):
        rng = np.random.default_rng(38)
        for _ in range(30):
            n1 = int(rng.integers(2, 6))
            n2 = int(rng.integers(2, 11 - n1))
            pool = rng.permutation(100)[:n1 + n2].astype(float)
            a, b = pool[:n1], pool[n1:]
            res = mann_whitney_u(a, b)
            assert res.exact
            assert res.p_value == pytest.approx(enumerate_exact_p(a, b),
                                                abs=1e-12)

    def test_exact_and_normal_agree_at_the_boundary(self):
        """At pooled size 20 the exact and approximate branches land within
        0.02 of each other on continuous data."""
        rng = np.random.default_rng(39)
        for _ in range(25):
            a = rng.normal(size=10)
            b = rng.normal(loc=rng.uniform(-1, 1), size=10)
            exact = mann_whitney_u(a, b)
            assert exact.exact
            # the normal approximation of the same statistic, counted by
            # brute force
            u = (a[:, None] > b[None, :]).sum() \
                + 0.5 * (a[:, None] == b[None, :]).sum()
            assert exact.u == u
            mean = 100 / 2.0
            var = 100 * 21 / 12.0
            approx = float(ndtr((u - mean + 0.5) / np.sqrt(var)))
            assert abs(exact.p_value - approx) < 0.02

    @pytest.mark.parametrize("pooled", range(11, EXACT_MW_LIMIT + 1))
    def test_exact_branch_matches_enumeration_with_ties_up_to_the_limit(
            self, pooled):
        """The subset count equals enumeration with ties at every pooled
        size above the enumeration tests' 10, up to the exact branch's
        limit; the split is the most balanced one with at most 32,000
        assignments, so the whole set enumerates in a few seconds."""
        n1 = max(k for k in range(1, pooled // 2 + 1)
                 if math.comb(pooled, k) <= 32_000)
        rng = np.random.default_rng(pooled)
        values = rng.integers(0, pooled // 3, size=pooled).astype(float)
        assert np.unique(values).size < pooled
        a, b = values[:n1], values[n1:]
        res = mann_whitney_u(a, b)
        assert res.exact
        assert res.p_value == pytest.approx(enumerate_exact_p(a, b),
                                            abs=1e-12)

    @pytest.mark.parametrize("a, b", [([1.0, np.nan], [2.0, 3.0]),
                                      ([1.0], [np.nan] * 25)])
    def test_nan_sample_rejected(self, a, b):
        with pytest.raises(ValueError, match="NaN"):
            mann_whitney_u(a, b)

    def test_one_sided_direction(self):
        low = [0.1, 0.2, 0.3, 0.35, 0.15]
        high = [0.5, 0.6, 0.7, 0.65, 0.55]
        assert mann_whitney_u(low, high).p_value < 0.05
        assert mann_whitney_u(high, low).p_value > 0.9

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            mann_whitney_u([], [1.0])


class TestEvalReport:
    def test_kv_text_lists_both_metrics(self):
        rep = EvalReport(fpr95=0.125, retrieval_map=0.75)
        assert rep.to_kv_text() == ("fpr95 = 0.125000\n"
                                    "retrieval_map = 0.750000\n")

    def test_csv_row_holds_both_metrics(self):
        rep = EvalReport(fpr95=0.2, retrieval_map=0.5)
        assert rep.csv_row() == {"fpr95": 0.2, "retrieval_map": 0.5}
