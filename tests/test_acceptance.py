"""Acceptance suite.

Each test prints one [ACCEPTANCE] pass/fail line (visible with -s). The
estimator-level criteria run against exhaustive oracles at their stated
tolerances; the training-level criteria run the desk-scale benchmark:
200 textured classes of 8 views (2% junk views) for training, a clean
50-class split for held-out verification. The ablation uses a 4-lambda x
5-seed grid; the relative-improvement criterion pairs lambda 10 with
lambda 0 over 30 seeds.

Run with: pytest tests/test_acceptance.py -v -s
"""

import itertools
import time

import numpy as np
import pytest
from scipy.stats import chisquare, wilcoxon

from adasample.config import EvalOptions, RunConfig, substream_seed
from adasample.data import DatasetSpec, generate_synthetic
from adasample.evaluation import (evaluate_params, info_correlation_probe,
                                  mann_whitney_u)
from adasample.metricspace import MetricKind
from adasample.miner import (NEG_SOURCES, NegSource, hardest_negatives,
                             loss_grads, mine_triplets)
from adasample.sampler import (LossTracker, SamplerConfig, adaptive_exponent,
                               categorical_sample, optimal_probs,
                               positive_probs, trace_variance,
                               unbiased_weights)
from adasample.tensornet import backward, forward, init_params
from adasample.trainer import TrainConfig, train
from finite_diff import finite_diff_grad
from scalar_distance import distance

# ----------------------------------------------------------------------
# desk-scale benchmark configuration (shared by the training criteria):
# 200 hard textured classes with 2% junk views for training, a clean
# 50-class split for held-out verification.
# ----------------------------------------------------------------------
TRAIN_SPEC = DatasetSpec(num_classes=200, patches_per_class=8, patch_size=16,
                         warp_magnitude=35.0, noise_sigma=0.14,
                         outlier_fraction=0.02, seed=20260810)
HOLDOUT_SPEC = DatasetSpec(num_classes=50, patches_per_class=8, patch_size=16,
                           warp_magnitude=35.0, noise_sigma=0.14,
                           outlier_fraction=0.0, seed=777)
SEEDS = (1, 2, 3, 4, 5)
LAMBDAS = (0.0, 1.0, 10.0, float("inf"))
EVAL_PAIRS = 5000
# The relative-improvement claim is tested on paired seeds: seed s gives
# every lambda the same init and first batch, and the paired difference has
# a standard deviation of about 0.037 FPR95, so a gain of about half of it
# needs ~30 seeds to show at level 0.1 with power ~0.9.
PAIRED_SEEDS = tuple(range(1, 31))


def bench_config(lam: float, seed: int, **kw) -> TrainConfig:
    base = dict(batch_size=64, epochs=12, pairs_per_epoch=3200,
                seed=substream_seed(seed, "train"),
                sampler=SamplerConfig(lambda_=lam))
    base.update(kw)
    return TrainConfig(**base)


def criterion(name: str, ok: bool, detail: str = "") -> None:
    print(f"\n[ACCEPTANCE] {name}: {'PASS' if ok else 'FAIL'}"
          f"{'  (' + detail + ')' if detail else ''}")
    assert ok, f"{name} failed: {detail}"


@pytest.fixture(scope="module")
def benchmark_data():
    return generate_synthetic(TRAIN_SPEC), generate_synthetic(HOLDOUT_SPEC)


def heldout_fpr95(benchmark_data, lam: float, seed: int) -> float:
    """Train one (lambda, seed) cell and score it on the held-out split as
    ``evaluate`` and ``compare`` do."""
    train_split, holdout = benchmark_data
    config = RunConfig(seed=seed, train=bench_config(lam, seed),
                       eval=EvalOptions(num_pairs=EVAL_PAIRS))
    params, _ = train(config.train, train_split)
    return evaluate_params(holdout, params, config).fpr95


@pytest.fixture(scope="module")
def ablation_scores(benchmark_data):
    """Held-out FPR95 for every (lambda, seed) cell of the benchmark grid."""
    return {(lam, seed): heldout_fpr95(benchmark_data, lam, seed)
            for lam in LAMBDAS for seed in SEEDS}


@pytest.fixture(scope="module")
def paired_scores(benchmark_data, ablation_scores):
    """Held-out FPR95 of lambda 0 and 10 for every seed in PAIRED_SEEDS.
    Cells are deterministic, so the grid's cells are reused, not retrained."""
    return {cell: ablation_scores[cell] if cell in ablation_scores
            else heldout_fpr95(benchmark_data, *cell)
            for cell in itertools.product((0.0, 10.0), PAIRED_SEEDS)}


# ----------------------------------------------------------------------
# estimator-level criteria
# ----------------------------------------------------------------------

def test_unbiasedness_of_reweighted_estimator():
    """On a K=8 quadratic problem the sampled re-weighted gradient matches
    the mean gradient of the powered losses, by exhaustive summation."""
    t0 = time.time()
    rng = np.random.default_rng(100)
    K, dim = 8, 7
    theta = rng.normal(size=dim)
    centers = rng.normal(size=(K, dim))
    L = 0.5 * np.sum((theta - centers) ** 2, axis=1)
    grads = theta - centers
    norms = np.linalg.norm(grads, axis=1)
    worst = 0.0
    for alpha in (1.0, 2.0, 3.0):
        p = optimal_probs(L, norms, alpha)
        w = unbiased_weights(p, L, alpha, K)
        estimate = (p * w) @ grads                      # exhaustive E[G]
        target = np.mean(alpha * L[:, None] ** (alpha - 1) * grads, axis=0)
        worst = max(worst, float(np.max(np.abs(estimate - target))))
    elapsed = time.time() - t0
    criterion("unbiasedness", worst < 1e-10 and elapsed < 1.0,
              f"max abs err {worst:.2e}, {elapsed:.2f}s")


def test_variance_optimality_of_sampling_probabilities():
    """The closed-form distribution never loses to random simplex points."""
    t0 = time.time()
    rng = np.random.default_rng(101)
    violations = 0
    for _ in range(100):
        K = int(rng.integers(2, 7))
        L = rng.uniform(0.1, 2.0, size=K)
        grads = [rng.normal(size=5) for _ in range(K)]
        norms = np.array([np.linalg.norm(g) for g in grads])
        alpha = float(rng.choice([1.0, 2.0, 3.0]))
        p_star = optimal_probs(L, norms, alpha)
        w_star = unbiased_weights(p_star, L, alpha, K)
        tv_star = trace_variance(p_star, w_star, grads)
        for _ in range(1000):
            p = rng.dirichlet(np.ones(K))
            w = unbiased_weights(p, L, alpha, K)
            if tv_star > trace_variance(p, w, grads) + 1e-12:
                violations += 1
    elapsed = time.time() - t0
    criterion("variance-optimality", violations == 0 and elapsed < 10.0,
              f"{violations} violations in 100x1000 trials, {elapsed:.1f}s")


def test_expected_progress_identity():
    """The closed-form expected one-step progress equals the exhaustive
    expectation over sampled indices."""
    from adasample.sampler import expected_rectification
    t0 = time.time()
    rng = np.random.default_rng(102)
    worst = 0.0
    for _ in range(100):
        K = int(rng.integers(2, 9))
        dim = int(rng.integers(2, 7))
        theta = rng.normal(size=dim)
        theta_star = rng.normal(size=dim)
        eta = float(rng.uniform(0.01, 0.5))
        grads = [rng.normal(size=dim) for _ in range(K)]
        p = rng.dirichlet(np.ones(K))
        w = rng.uniform(0.2, 2.0, size=K)
        exhaustive = -sum(
            pi * (np.linalg.norm(theta - eta * wi * gi - theta_star) ** 2
                  - np.linalg.norm(theta - theta_star) ** 2)
            for pi, wi, gi in zip(p, w, grads))
        got = expected_rectification(theta, theta_star, eta, p, w, grads)
        worst = max(worst, abs(got - exhaustive))
    elapsed = time.time() - t0
    criterion("expected-progress-identity", worst < 1e-10 and elapsed < 5.0,
              f"max abs err {worst:.2e}, {elapsed:.1f}s")


def test_positive_gradient_norm_equals_twice_matching_distance():
    """Euclidean metric, active hinge, anchor-side negatives: the loss
    gradient on the positive descriptor has norm exactly 2 d_pos."""
    rng = np.random.default_rng(103)
    worst = 0.0
    cases = 0
    while cases < 100:
        base = rng.normal(size=8)
        base /= np.linalg.norm(base)
        jitter = base + 0.05 * rng.normal(size=8)
        A = np.stack([base, jitter / np.linalg.norm(jitter)])
        P = rng.normal(size=(2, 8))
        P /= np.linalg.norm(P, axis=1, keepdims=True)
        if min(np.linalg.norm(P[0] - A[0]), np.linalg.norm(P[1] - A[1]),
               np.linalg.norm(P[0] - P[1])) < 0.8:
            continue
        mined = mine_triplets(A, P, MetricKind.EUCLIDEAN, margin=1.0)
        if not all(t.loss > 0
                   and t.neg_source is NegSource.ANCHOR_VS_ANCHOR
                   for t in mined):
            continue
        _, gp = loss_grads(A, P, mined, MetricKind.EUCLIDEAN)
        for t in mined:
            worst = max(worst, abs(np.linalg.norm(gp[t.pair_index])
                                   - 2.0 * t.d_pos))
        cases += 1
    criterion("matching-gradient-identity", worst < 1e-10,
              f"max abs err {worst:.2e} over 100 cases")


def test_end_to_end_gradient_correctness():
    """Forward + mining + hinge loss gradients track central finite
    differences through the whole pipeline."""
    rng = np.random.default_rng(104)
    worst = 0.0
    for n_layers, batch in itertools.product((1, 2, 3), (2, 5, 8)):
        dims = [6] + [7] * (n_layers - 1) + [5]
        checked = False
        attempt = 0
        while not checked and attempt < 20:
            attempt += 1
            params = init_params(dims, seed=int(rng.integers(1 << 30)))
            X = rng.normal(size=(2 * batch, dims[0]))
            w = rng.uniform(0.5, 1.5, size=batch)

            def total_loss(p):
                descs, _ = forward(p, X)
                mined = mine_triplets(descs[:batch], descs[batch:],
                                      MetricKind.ANGULAR, margin=1.0)
                return float(np.dot(w, [t.loss for t in mined]))

            descs, cache = forward(params, X)
            mined = mine_triplets(descs[:batch], descs[batch:],
                                  MetricKind.ANGULAR, margin=1.0)
            if min(abs(1.0 + t.d_pos ** 2 - t.d_neg ** 2)
                   for t in mined) < 1e-3:
                continue
            ga, gp = loss_grads(descs[:batch], descs[batch:], mined,
                                MetricKind.ANGULAR, w)
            analytic = backward(params, cache, np.vstack([ga, gp]))
            fd = finite_diff_grad(params, total_loss, eps=1e-6)
            num = np.linalg.norm(analytic.flatten() - fd.flatten())
            den = max(np.linalg.norm(fd.flatten()), 1e-300)
            worst = max(worst, num / den)
            checked = True
        assert checked, f"no boundary-safe batch found for {dims}, {batch}"
    criterion("end-to-end-gradients", worst < 1e-5,
              f"worst rel err {worst:.2e}")


def test_hardest_negative_mining_equals_exhaustive_search():
    rng = np.random.default_rng(105)
    mismatches = 0
    worst = 0.0
    for _ in range(1000):
        n = int(rng.integers(2, 17))
        A = rng.normal(size=(n, 5))
        A /= np.linalg.norm(A, axis=1, keepdims=True)
        P = rng.normal(size=(n, 5))
        P /= np.linalg.norm(P, axis=1, keepdims=True)
        got = hardest_negatives(A, P, MetricKind.ANGULAR)
        for i in range(n):
            best = (np.inf, None, None)
            for j in range(n):
                if j == i:
                    continue
                for d, src in ((distance(A[i], A[j], MetricKind.ANGULAR),
                                NegSource.ANCHOR_VS_ANCHOR),
                               (distance(P[i], P[j], MetricKind.ANGULAR),
                                NegSource.POSITIVE_VS_POSITIVE)):
                    if d < best[0]:
                        best = (d, src, j)
            dg, sg, jg = got.d_neg[i], NEG_SOURCES[got.source[i]], got.j[i]
            if (sg, jg) != (best[1], best[2]):
                mismatches += 1
            worst = max(worst, abs(dg - best[0]))
    criterion("hardest-in-batch-oracle", mismatches == 0 and worst < 1e-12,
              f"{mismatches} index mismatches, max value err {worst:.2e}")


def test_sampler_limit_behavior():
    """Zero exponent samples uniformly (chi-square); a capped exponent
    always picks the unique farthest candidate."""
    cfg_zero = SamplerConfig(lambda_=0.0)
    tracker = LossTracker(l_avg=0.8, initialized=True)
    assert adaptive_exponent(tracker, cfg_zero) == 0.0
    rng = np.random.default_rng(106)
    k = 7
    dists = rng.uniform(0.2, 1.4, size=k)
    probs = positive_probs(dists, 0.0)
    counts = np.zeros(k)
    for _ in range(10_000):
        counts[categorical_sample(probs, rng.random())] += 1
    p_value = chisquare(counts).pvalue

    cfg_inf = SamplerConfig(lambda_=float("inf"))
    exponent = adaptive_exponent(tracker, cfg_inf)
    assert exponent == cfg_inf.exponent_cap
    dists = np.array([0.3, 0.45, 0.9, 0.6, 0.25, 0.5])
    probs_hard = positive_probs(dists, exponent)
    hits = sum(categorical_sample(probs_hard, rng.random()) == 2
               for _ in range(10_000))
    criterion("sampler-limits", p_value > 0.01 and hits == 10_000,
              f"chi-square p {p_value:.3f}, argmax hits {hits}/10000")


def test_rank_test_exactness():
    """Exact branch equals full enumeration of assignments for every
    sample-size split with pooled size <= 10."""
    rng = np.random.default_rng(107)
    worst = 0.0
    for n1 in range(1, 10):
        for n2 in range(1, 11 - n1):
            for tie_prone in (False, True):
                if tie_prone:
                    pooled = rng.integers(0, 4, size=n1 + n2).astype(float)
                else:
                    pooled = rng.permutation(1000)[:n1 + n2].astype(float)
                a, b = pooled[:n1], pooled[n1:]
                res = mann_whitney_u(a, b)
                assert res.exact
                # oracle: enumerate every assignment of pooled values to a
                def u_of(idx):
                    mask = np.zeros(n1 + n2, dtype=bool)
                    mask[list(idx)] = True
                    x, y = pooled[mask], pooled[~mask]
                    return ((x[:, None] > y[None, :]).sum()
                            + 0.5 * (x[:, None] == y[None, :]).sum())
                u_obs = u_of(range(n1))
                us = [u_of(c) for c in
                      itertools.combinations(range(n1 + n2), n1)]
                expected = float(np.mean([u <= u_obs + 1e-12 for u in us]))
                worst = max(worst, abs(res.p_value - expected))
    criterion("rank-test-exactness", worst < 1e-12,
              f"max abs p err {worst:.2e}")


# ----------------------------------------------------------------------
# training-level criteria on the desk benchmark
# ----------------------------------------------------------------------

@pytest.mark.slow
def test_informativeness_correlation_through_training(benchmark_data):
    """The distance-induced sampling probabilities track the gradient-norm
    induced ones through a full desk-scale run."""
    train_split, _ = benchmark_data
    t0 = time.time()
    correlations = []

    def probe_epoch(epoch, state):
        res = info_correlation_probe(
            train_split, state.params, MetricKind.ANGULAR,
            np.random.default_rng(1000 + epoch), sample_classes=64,
            margin=1.0)
        correlations.append(res.pearson)

    train(bench_config(10.0, 1), train_split, epoch_callback=probe_epoch)
    elapsed = time.time() - t0
    good = sum(c > 0.6 for c in correlations)
    criterion("informativeness-correlation",
              good >= 0.8 * len(correlations) and elapsed < 600.0,
              f"{good}/{len(correlations)} epochs above 0.6, {elapsed:.0f}s; "
              f"values {' '.join(f'{c:.2f}' for c in correlations)}")


@pytest.mark.slow
def test_adaptive_sampling_beats_uniform_baseline(paired_scores):
    """Adaptive sampling (lambda 10) lowers held-out FPR95 against uniform
    sampling (lambda 0): one-sided Wilcoxon signed-rank test on the per-seed
    paired differences at level 0.1."""
    adaptive = np.array([paired_scores[(10.0, s)] for s in PAIRED_SEEDS])
    baseline = np.array([paired_scores[(0.0, s)] for s in PAIRED_SEEDS])
    diff = adaptive - baseline
    p_value = wilcoxon(diff, alternative="less").pvalue
    ok = diff.mean() <= 0 and p_value < 0.1
    criterion("relative-improvement", ok,
              f"{len(diff)} paired seeds, mean diff {diff.mean():+.4f}, "
              f"adaptive wins {int(np.sum(diff < 0))}/{len(diff)}, "
              f"one-sided Wilcoxon p {p_value:.4f}; "
              f"fpr95 {adaptive.mean():.4f} vs {baseline.mean():.4f}")


@pytest.mark.slow
def test_intermediate_hardness_wins_ablation(ablation_scores):
    wins = 0
    bests = []
    for s in SEEDS:
        per = {lam: ablation_scores[(lam, s)] for lam in LAMBDAS}
        best = min(per, key=per.get)
        bests.append(best)
        if best not in (0.0, float("inf")):
            wins += 1
    criterion("hardness-ablation-shape", wins >= 3,
              f"intermediate best in {wins}/5 seeds (best: {bests})")
