"""Tests for the hypersphere distance functions and their gradients."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adasample import metricspace
from adasample.evaluation import retrieval_map, verification_distances
from adasample.metricspace import (MetricKind, _candidates, _paired,
                                   _paired_grads, distance_grad,
                                   pairwise_distances)
from adasample.miner import hardest_negatives, loss_grads, mine_triplets
from scalar_distance import distance, scalar_distance_grad


def unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


def random_unit(rng, d=6):
    return unit(rng.normal(size=d))


class TestDistance:
    def test_identical_points_have_zero_distance(self):
        a = unit([1.0, 2.0, -1.0])
        for kind in MetricKind:
            assert distance(a, a, kind) == pytest.approx(0.0, abs=1e-7)

    def test_orthogonal_unit_vectors(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 1.0, 0.0])
        assert distance(a, b, MetricKind.ANGULAR) == pytest.approx(np.pi / 2)
        assert distance(a, b, MetricKind.EUCLIDEAN) == pytest.approx(np.sqrt(2))

    def test_antipodal_unit_vectors(self):
        a = np.array([0.0, 0.0, 1.0])
        assert distance(a, -a, MetricKind.ANGULAR) == pytest.approx(np.pi)
        assert distance(a, -a, MetricKind.EUCLIDEAN) == pytest.approx(2.0)

    def test_non_unit_input_rejected(self):
        a = np.array([1.0, 1.0, 0.0])    # norm sqrt(2), off by > 1e-3
        b = np.array([1.0, 0.0, 0.0])
        with pytest.raises(ValueError, match="unit-norm"):
            distance(a, b, MetricKind.ANGULAR)
        with pytest.raises(ValueError, match="unit-norm"):
            distance(np.array([np.nan, 0.0, 0.0]), b, MetricKind.ANGULAR)

    def test_symmetry_is_exact(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b = random_unit(rng), random_unit(rng)
            for kind in MetricKind:
                assert distance(a, b, kind) == distance(b, a, kind)

    def test_euclidean_angular_relation(self):
        """euclidean^2 = 2 - 2 cos(angular) on the unit sphere."""
        rng = np.random.default_rng(5)
        for _ in range(200):
            a, b = random_unit(rng), random_unit(rng)
            e = distance(a, b, MetricKind.EUCLIDEAN)
            t = distance(a, b, MetricKind.ANGULAR)
            assert abs(e * e - (2.0 - 2.0 * np.cos(t))) < 1e-10

    def test_angular_triangle_inequality(self):
        rng = np.random.default_rng(6)
        for _ in range(1000):
            a, b, c = (random_unit(rng) for _ in range(3))
            dab = distance(a, b, MetricKind.ANGULAR)
            dbc = distance(b, c, MetricKind.ANGULAR)
            dac = distance(a, c, MetricKind.ANGULAR)
            assert dac <= dab + dbc + 1e-12


class TestDistanceGrad:
    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_matches_finite_differences(self, kind):
        rng = np.random.default_rng(7)
        for _ in range(25):
            a, b = random_unit(rng), random_unit(rng)
            ga, gb, saturated = distance_grad(a, b, kind)
            assert not saturated
            eps = 1e-7
            for grad, point, other, order in ((ga, a, b, 0), (gb, b, a, 1)):
                fd = np.zeros_like(point)
                for k in range(point.size):
                    dp = point.copy()
                    dm = point.copy()
                    dp[k] += eps
                    dm[k] -= eps
                    args = (dp, other) if order == 0 else (other, dp)
                    argsm = (dm, other) if order == 0 else (other, dm)
                    fd[k] = (_raw_distance(*args, kind)
                             - _raw_distance(*argsm, kind)) / (2 * eps)
                rel = np.linalg.norm(grad - fd) / np.linalg.norm(fd)
                assert rel < 1e-6

    def test_euclidean_gradient_formula(self):
        rng = np.random.default_rng(8)
        a, b = random_unit(rng), random_unit(rng)
        d = distance(a, b, MetricKind.EUCLIDEAN)
        ga, gb, _ = distance_grad(a, b, MetricKind.EUCLIDEAN)
        np.testing.assert_allclose(ga, (a - b) / d, atol=1e-14)
        np.testing.assert_allclose(gb, (b - a) / d, atol=1e-14)

    def test_angular_gradient_is_unit_at_orthogonality(self):
        a = np.array([1.0, 0.0, 0.0])
        b = np.array([0.0, 0.0, 1.0])
        ga, gb, saturated = distance_grad(a, b, MetricKind.ANGULAR)
        assert not saturated
        assert np.linalg.norm(ga) == pytest.approx(1.0, abs=1e-12)
        assert np.linalg.norm(gb) == pytest.approx(1.0, abs=1e-12)

    def test_swap_mirrors_roles(self):
        rng = np.random.default_rng(9)
        a, b = random_unit(rng), random_unit(rng)
        for kind in MetricKind:
            ga, gb, _ = distance_grad(a, b, kind)
            gb2, ga2, _ = distance_grad(b, a, kind)
            np.testing.assert_array_equal(ga, ga2)
            np.testing.assert_array_equal(gb, gb2)

    def test_saturation_flagged_for_nearly_identical_inputs(self):
        a = np.array([1.0, 0.0, 0.0])
        ga, gb, saturated = distance_grad(a, a.copy(), MetricKind.ANGULAR)
        assert saturated
        assert np.all(np.isfinite(ga)) and np.all(np.isfinite(gb))

    def test_euclidean_zero_distance_gives_zero_subgradient(self):
        a = np.array([0.0, 1.0, 0.0])
        ga, gb, saturated = distance_grad(a, a.copy(), MetricKind.EUCLIDEAN)
        assert saturated
        assert np.all(ga == 0) and np.all(gb == 0)

    @pytest.mark.parametrize("shape", [(1, 3), (), (3, 1)])
    def test_input_that_is_not_1d_rejected(self, shape):
        a = np.ones(shape) / np.sqrt(max(1, np.prod(shape)))
        with pytest.raises(ValueError, match="1-D"):
            distance_grad(a, np.array([1.0, 0.0, 0.0]), MetricKind.ANGULAR)

    def test_non_unit_input_rejected(self):
        with pytest.raises(ValueError, match="not unit-norm"):
            distance_grad(np.array([1.0, 1.0, 0.0]),
                          np.array([1.0, 0.0, 0.0]), MetricKind.EUCLIDEAN)


def _raw_distance(a, b, kind):
    """Distance without the unit-norm precondition, for finite differencing."""
    if kind is MetricKind.EUCLIDEAN:
        return float(np.linalg.norm(a - b))
    return float(np.arccos(np.clip(np.dot(a, b), -1.0, 1.0)))


class TestPairwiseDistances:
    def test_zero_diagonal_for_same_batch(self):
        rng = np.random.default_rng(10)
        A = np.stack([random_unit(rng) for _ in range(5)])
        for kind in MetricKind:
            D = pairwise_distances(A, A, kind)
            np.testing.assert_allclose(np.diag(D), 0.0, atol=1e-6)

    def test_single_pair_matches_scalar(self):
        rng = np.random.default_rng(11)
        a, b = random_unit(rng), random_unit(rng)
        for kind in MetricKind:
            D = pairwise_distances(a[None, :], b[None, :], kind)
            assert D.shape == (1, 1)
            assert D[0, 0] == pytest.approx(distance(a, b, kind), abs=1e-15)

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_entries_match_scalar_distance(self, kind):
        rng = np.random.default_rng(12)
        A = np.stack([random_unit(rng) for _ in range(4)])
        B = np.stack([random_unit(rng) for _ in range(5)])
        D = pairwise_distances(A, B, kind)
        for i in range(4):
            for j in range(5):
                assert abs(D[i, j] - distance(A[i], B[j], kind)) < 1e-12
        d = _paired(A, B[:4], kind)
        for i in range(4):
            assert abs(d[i] - distance(A[i], B[i], kind)) < 1e-12

    @pytest.mark.parametrize("budget", [1, 30, 108, 270, 1 << 16])
    def test_chunking_does_not_change_results(self, monkeypatch, budget):
        """The euclidean block size, from one row through even and ragged
        blocks to the whole batch, leaves every distance unchanged bit for
        bit (D = 6; a pairwise or candidate row holds 54 differences)."""
        rng = np.random.default_rng(13)
        A = np.stack([random_unit(rng) for _ in range(9)])
        C = np.stack([A[::-1], A])
        counts = np.array([9, 4])
        kind = MetricKind.EUCLIDEAN

        def all_three():
            return (pairwise_distances(A, A, kind),
                    _paired(A, A[::-1], kind),
                    _candidates(A[:2], C, counts, kind))

        want = all_three()
        monkeypatch.setattr(metricspace, "_BLOCK_ENTRIES", budget)
        for got, expected in zip(all_three(), want):
            np.testing.assert_array_equal(got, expected)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError, match="dimension mismatch"):
            pairwise_distances(np.eye(3), np.eye(4), MetricKind.ANGULAR)

    def test_non_unit_row_rejected(self):
        A = np.eye(3)
        B = np.eye(3) * 1.5
        with pytest.raises(ValueError, match="not unit-norm"):
            pairwise_distances(A, B, MetricKind.EUCLIDEAN)


class TestPairedDistances:
    """The row-wise kernel behind mining and verification, on unit rows."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(1, 40), dim=st.integers(2, 48),
           kind=st.sampled_from(list(MetricKind)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_rows_match_scalar_distance(self, n, dim, kind, seed):
        rng = np.random.default_rng(seed)
        A = np.stack([random_unit(rng, dim) for _ in range(n)])
        B = np.stack([random_unit(rng, dim) for _ in range(n)])
        d = _paired(A, B, kind)
        assert d.shape == (n,)
        for i in range(n):
            assert abs(d[i] - distance(A[i], B[i], kind)) < 1e-12


class TestPairedDistanceGrads:
    """The row-wise gradient kernel behind ``loss_grads``, on unit rows, and
    ``distance_grad``, its one-row case, against the one-pair oracle."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(1, 40), dim=st.integers(2, 48),
           kind=st.sampled_from(list(MetricKind)),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_rows_equal_distance_grad(self, n, dim, kind, seed):
        rng = np.random.default_rng(seed)
        A = np.stack([random_unit(rng, dim) for _ in range(n)])
        B = np.stack([random_unit(rng, dim) for _ in range(n)])
        ga, gb, saturated = _paired_grads(A, B, kind)
        for i in range(n):
            want = scalar_distance_grad(A[i], B[i], kind)
            for got in ((ga[i], gb[i], saturated[i]),
                        distance_grad(A[i], B[i], kind)):
                np.testing.assert_array_equal(got[0], want[0])
                np.testing.assert_array_equal(got[1], want[1])
                assert got[2] == want[2]

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_degenerate_rows_match_distance_grad(self, kind):
        """Identical, antipodal and ordinary rows side by side: angular
        saturation and the euclidean zero-distance subgradient come out as
        in the one-pair oracle and in distance_grad, row by row."""
        rng = np.random.default_rng(14)
        a, b = random_unit(rng), random_unit(rng)
        A = np.stack([a, a, b, a])
        B = np.stack([a.copy(), -a, a, b])
        ga, gb, saturated = _paired_grads(A, B, kind)
        if kind is MetricKind.ANGULAR:
            assert saturated.tolist() == [True, True, False, False]
        else:
            assert saturated.tolist() == [True, False, False, False]
            assert np.all(ga[0] == 0) and np.all(gb[0] == 0)
        for i in range(4):
            want = scalar_distance_grad(A[i], B[i], kind)
            for got in ((ga[i], gb[i], saturated[i]),
                        distance_grad(A[i], B[i], kind)):
                np.testing.assert_array_equal(got[0], want[0])
                np.testing.assert_array_equal(got[1], want[1])
                assert got[2] == want[2]
        assert np.all(np.isfinite(ga)) and np.all(np.isfinite(gb))

    def test_non_unit_row_rejected(self):
        with pytest.raises(ValueError, match=r"batch_b\[0\] is not unit-norm"):
            distance_grad(np.eye(3)[0], np.eye(3)[1] * 1.5,
                          MetricKind.ANGULAR)


class TestCandidates:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(n=st.integers(1, 20), width=st.integers(1, 16),
           dim=st.integers(2, 40), kind=st.sampled_from(list(MetricKind)),
           ragged=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_rows_equal_per_row_pairwise(self, n, width, dim, kind, ragged,
                                         seed):
        """Each row of the kernel build_batch runs equals, bit for bit,
        pairwise_distances on that row's own candidates, and its pad
        columns are 0."""
        rng = np.random.default_rng(seed)
        anchors = np.stack([random_unit(rng, dim) for _ in range(n)])
        cands = np.stack([np.stack([random_unit(rng, dim)
                                    for _ in range(width)])
                          for _ in range(n)])
        counts = (rng.integers(1, width + 1, size=n) if ragged
                  else np.full(n, width))
        D = _candidates(anchors, cands, counts, kind)
        assert D.shape == (n, width)
        for i, m in enumerate(counts):
            want = pairwise_distances(cands[i, :m], anchors[i:i + 1],
                                      kind)[:, 0]
            np.testing.assert_array_equal(D[i, :m], want)
            assert np.all(D[i, m:] == 0.0)


def euclidean_oracle(a, b):
    """||a - b|| along the last axis, one vector pair (or one row of pairs)
    at a time, summed as ``np.linalg.norm(..., axis=-1)`` sums: numpy's
    add.reduce of the squares. The 1-D norm without an axis runs a BLAS dot
    instead, which differs from it in the last ulp."""
    diff = a - b
    return np.sqrt(np.add.reduce(diff * diff, axis=-1))


def unit_rows(rng, *shape):
    X = rng.normal(size=shape)
    return X / np.linalg.norm(X, axis=-1, keepdims=True)


class TestEuclideanKernel:
    """The blocked euclidean kernel against a per-entry oracle, bit for bit.
    With D = 64 and the 2**16-entry block: 3 x 1100 runs one row per block
    (m * D > budget), 10 x 300 blocks of 3 rows with a ragged last block,
    128 x 128 blocks of 8 rows, and 200 x 1600 one row per block."""

    @pytest.mark.parametrize("n, m", [(3, 1100), (10, 300), (128, 128),
                                      (200, 1600)])
    def test_pairwise_equals_oracle(self, n, m):
        rng = np.random.default_rng(n * m)
        A, B = unit_rows(rng, n, 64), unit_rows(rng, m, 64)
        got = pairwise_distances(A, B, MetricKind.EUCLIDEAN)
        if n * m <= 20_000:
            want = np.array([[euclidean_oracle(a, b) for b in B] for a in A])
        else:       # row by row: each entry still sums its own 64 squares
            want = np.stack([euclidean_oracle(a, B) for a in A])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n", [1, 7, 1024, 3000])
    def test_paired_equals_oracle(self, n):
        rng = np.random.default_rng(n)
        A, B = unit_rows(rng, n, 64), unit_rows(rng, n, 64)
        got = _paired(A, B, MetricKind.EUCLIDEAN)
        want = np.array([euclidean_oracle(a, b) for a, b in zip(A, B)])
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("n, width", [(128, 15), (3, 1100), (70, 2)])
    def test_candidates_equal_oracle(self, n, width):
        rng = np.random.default_rng(n + width)
        anchors = unit_rows(rng, n, 64)
        cands = unit_rows(rng, n, width, 64)
        counts = rng.integers(1, width + 1, size=n)
        got = _candidates(anchors, cands, counts, MetricKind.EUCLIDEAN)
        for i, m in enumerate(counts):
            want = [euclidean_oracle(c, anchors[i]) for c in cands[i, :m]]
            assert np.array_equal(got[i, :m], want)
            assert np.all(got[i, m:] == 0.0)

    def test_working_set_stays_cache_sized(self):
        """A 200 x 1600 x 64 call allocates its output plus a block, not
        the 160 MB (200, 1600, 64) difference tensor."""
        rng = np.random.default_rng(15)
        A, B = unit_rows(rng, 200, 64), unit_rows(rng, 1600, 64)
        tracemalloc.start()
        try:
            out = pairwise_distances(A, B, MetricKind.EUCLIDEAN)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.nbytes + 8 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"


# Every public function that takes descriptor rows, called on rows A and B;
# ``good`` is a unit-norm copy of A. ``loss_grads`` takes its rows from the
# triplets mined on them, so its rows are checked where they are mined.
ROW_TAKERS = {
    "pairwise_distances": lambda A, B, kind, good: pairwise_distances(
        A, B, kind),
    "distance_grad": lambda A, B, kind, good: [
        distance_grad(a, b, kind) for a, b in zip(A, B)],
    "hardest_negatives": lambda A, B, kind, good: hardest_negatives(
        A, B, kind),
    "hardest_negatives, opposing": lambda A, B, kind, good:
        hardest_negatives(good, good, kind,
                          opposing=(A, B, np.roll(np.arange(len(A)), 1))),
    "mine_triplets": lambda A, B, kind, good: mine_triplets(A, B, kind, 1.0),
    "mine_triplets, opposing": lambda A, B, kind, good: mine_triplets(
        good, good, kind, 1.0, opposing=(A, B, np.roll(np.arange(len(A)),
                                                        1))),
    "loss_grads": lambda A, B, kind, good: loss_grads(
        mine_triplets(A, B, kind, 4.0), kind),
    "retrieval_map": lambda A, B, kind, good: retrieval_map(
        A, np.arange(len(A)), B, np.arange(len(B)), kind),
    "verification_distances": lambda A, B, kind, good:
        verification_distances(np.vstack([A, B]), np.arange(0, 2 * len(A) + 1,
                                                             2),  # k = 2
                               kind, 8, np.random.default_rng(0)),
}


class TestUnitNormBoundary:
    """Rows are checked once where a caller's rows enter; the kernels
    behind the public functions check nothing, so each public function
    must still reject a non-unit row, on either side."""

    @pytest.mark.parametrize("name", list(ROW_TAKERS))
    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_non_unit_row_rejected(self, name, side, kind):
        rng = np.random.default_rng(31)
        good = np.stack([random_unit(rng) for _ in range(5)])
        rows = [good.copy(), np.stack([random_unit(rng) for _ in range(5)])]
        ROW_TAKERS[name](*rows, kind, good)
        rows[side][3] *= 1.01
        with pytest.raises(ValueError, match="not unit-norm"):
            ROW_TAKERS[name](*rows, kind, good)

    @pytest.mark.parametrize("name", list(ROW_TAKERS))
    @pytest.mark.parametrize("side", [0, 1])
    @pytest.mark.parametrize("kind", list(MetricKind))
    @pytest.mark.parametrize("value, norm", [(np.nan, "nan"),
                                             (np.inf, "inf"),
                                             (-np.inf, "inf")])
    def test_nan_or_inf_row_rejected(self, name, side, kind, value, norm):
        """A NaN norm compares False with any tolerance, so the check must
        accept a row only when its distance from 1 is within it."""
        rng = np.random.default_rng(32)
        good = np.stack([random_unit(rng) for _ in range(5)])
        rows = [good.copy(), np.stack([random_unit(rng) for _ in range(5)])]
        rows[side][3, 1] = value
        with pytest.raises(ValueError,
                           match=rf"not unit-norm \(norm {norm}\)"):
            ROW_TAKERS[name](*rows, kind, good)
