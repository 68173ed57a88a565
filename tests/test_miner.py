"""Tests for hardest-in-batch mining and the hinge triplet loss."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from adasample.metricspace import UNIT_NORM_TOL, MetricKind, \
    pairwise_distances
from adasample.miner import (NEG_SOURCES, MinedTriplets, Negatives,
                             NegMode, NegSource, hardest_negatives,
                             loss_grads, mine_triplets, triplet_loss)
from scalar_distance import distance
from scalar_loss import scalar_loss_grads


def unit_rows(rng, n, d=6):
    X = rng.normal(size=(n, d))
    return X / np.linalg.norm(X, axis=1, keepdims=True)


def negative_rows(neg):
    """hardest_negatives' arrays as one (d_neg, NegSource, j) per pair."""
    return [(float(d), NEG_SOURCES[s], int(j))
            for d, s, j in zip(neg.d_neg, neg.source, neg.j)]


def brute_force_hardest(A, P, kind, neg_mode=NegMode.SAME_ROLE,
                        opposing=None):
    """Plain double loop over every (j, source) candidate, scanning j
    ascending with the anchor-side source first and keeping strict minima,
    so the tie-break order matches the contract. Query pair i is mined
    against the opposing pairs ``(OA, OP, own)`` and skips ``own[i]``; by
    default the batch opposes itself."""
    n = A.shape[0]
    OA, OP, own = (A, P, range(n)) if opposing is None else opposing
    out = []
    for i in range(n):
        best = (np.inf, None, None)
        for j in range(len(OA)):
            if j == own[i]:
                continue
            if neg_mode is NegMode.SAME_ROLE:
                cands = [(distance(A[i], OA[j], kind),
                          NegSource.ANCHOR_VS_ANCHOR),
                         (distance(P[i], OP[j], kind),
                          NegSource.POSITIVE_VS_POSITIVE)]
            else:
                cands = [(distance(A[i], OP[j], kind),
                          NegSource.ANCHOR_VS_POSITIVE),
                         (distance(P[i], OA[j], kind),
                          NegSource.POSITIVE_VS_ANCHOR)]
            for d, src in cands:
                if d < best[0]:
                    best = (d, src, j)
        out.append(best)
    return out


def full_matrix_negatives(A, P, kind, neg_mode=NegMode.SAME_ROLE,
                          opposing=None):
    """The full-matrix selection: both sides' exact distance matrices, then
    per row the first j minimizing their element-wise minimum, on side 1
    only where it is strictly nearer. Stacked batches run one at a time,
    each its own call."""
    if A.ndim == 3:
        return Negatives(*map(np.stack, zip(*(
            full_matrix_negatives(a, p, kind, neg_mode)
            for a, p in zip(A, P)))))
    n = len(A)
    OA, OP, own = (A, P, np.arange(n)) if opposing is None else opposing
    if neg_mode is NegMode.SAME_ROLE:
        sides, first_code = ((A, OA), (P, OP)), 0
    else:
        sides, first_code = ((A, OP), (P, OA)), 2
    D_first, D_second = (pairwise_distances(X, Y, kind) for X, Y in sides)
    nearest = np.minimum(D_first, D_second)
    nearest[np.arange(n), own] = np.inf
    j = np.argmin(nearest, axis=1)
    r = np.arange(n)
    return Negatives(nearest[r, j],
                     first_code + (D_second[r, j] < D_first[r, j]), j)


def assert_equals_full_matrix(A, P, kind, neg_mode, opposing=None):
    got = hardest_negatives(A, P, kind, neg_mode, opposing)
    want = full_matrix_negatives(A, P, kind, neg_mode, opposing)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.shape == w.shape
        np.testing.assert_array_equal(g, w)


def scaled_to_norm_tol(rng, X):
    """X with each row scaled to a norm within 1 +- UNIT_NORM_TOL."""
    return X * (1.0 + rng.choice([-1, 1], size=X.shape[:-1] + (1,))
                * 0.999 * UNIT_NORM_TOL)


class TestAgainstFullMatrix:
    """``hardest_negatives`` selects from keys and exact distances at
    near-minimal candidates only; it must equal the full-matrix selection
    bit for bit, in d_neg, source and j."""

    @pytest.mark.parametrize("kind", list(MetricKind))
    @pytest.mark.parametrize("neg_mode", list(NegMode))
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(dim=st.sampled_from([2, 32, 64, 256]), n=st.integers(2, 24),
           form=st.sampled_from(["batch", "stacked", "opposing"]),
           ties=st.booleans(), seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_oracle(self, kind, neg_mode, dim, n, form, ties, seed):
        """Random batches, 2-D, stacked (S, n, D) or against opposing
        pairs as the probe mines; with ``ties``, rows are duplicated,
        nudged by an ulp, swapped between anchor and positive and scaled
        to the unit-norm tolerance."""
        rng = np.random.default_rng(seed)
        lead = (int(rng.integers(1, 4)),) if form == "stacked" else ()
        A = unit_rows(rng, int(np.prod(lead, dtype=int)) * n, dim)
        P = unit_rows(rng, len(A), dim)
        A, P = A.reshape(*lead, n, dim), P.reshape(*lead, n, dim)
        if ties:
            A[..., -1, :] = A[..., 0, :]
            P[..., 1, :] = A[..., 0, :]
            A[..., n // 2, 0] = np.nextafter(A[..., n // 2, 0], 2.0)
            A, P = scaled_to_norm_tol(rng, A), scaled_to_norm_tol(rng, P)
        opposing = None
        if form == "opposing":
            m = int(rng.integers(2, 9))
            OA, OP = unit_rows(rng, m, dim), unit_rows(rng, m, dim)
            if ties:
                OP[0] = P[0]
            own = rng.integers(0, m, size=n)
            A, opposing = OA[own], (OA, OP, own)
        assert_equals_full_matrix(A, P, kind, neg_mode, opposing)

    @pytest.mark.parametrize("kind", list(MetricKind))
    @pytest.mark.parametrize("neg_mode", list(NegMode))
    @pytest.mark.parametrize("case", ["duplicated", "one_ulp", "swapped",
                                      "norm_tol", "antipodal", "coincident"])
    @pytest.mark.parametrize("dim", [2, 32, 64, 256])
    def test_near_ties(self, kind, neg_mode, case, dim):
        """duplicated rows; rows one ulp from another; an anchor equal to
        another pair's positive (and that positive's anchor to the first
        pair's positive), so the two sides tie; rows at the unit-norm
        tolerance; antipodal and coincident rows, whose products the
        angular clip reaches."""
        rng = np.random.default_rng(dim)
        n = 9
        A, P = unit_rows(rng, n, dim), unit_rows(rng, n, dim)
        if case == "duplicated":
            A[3:6], P[5:8] = A[2], P[4]
        elif case == "one_ulp":
            for i in range(1, n):
                A[i] = A[0]
                A[i, i % dim] = np.nextafter(A[0, i % dim], i % 2 * 2 - 1.0)
        elif case == "swapped":
            A[1], P[1] = P[0], A[0]
            A[4], P[6] = P[3], A[3]
        elif case == "norm_tol":
            A[1:5] = A[0]
            A, P = scaled_to_norm_tol(rng, A), scaled_to_norm_tol(rng, P)
        elif case == "antipodal":
            A[1::2], P[1::2] = -A[0], -A[0]
            A = scaled_to_norm_tol(rng, A)
        else:
            A[1:], P[1:] = A[0], A[0]
            A = A * (1.0 + 0.999 * UNIT_NORM_TOL * rng.uniform(-1, 1,
                                                               (n, 1)))
        assert_equals_full_matrix(A, P, kind, neg_mode)
        assert_equals_full_matrix(np.stack([A, A[::-1]]),
                                  np.stack([P, P[::-1]]), kind, neg_mode)

    def test_key_misorders_near_equal_candidates(self):
        """Candidates at one true distance from the anchor: a unit vector
        near it, its entries permuted within the two halves on which the
        anchor is constant. Rounding orders their keys otherwise than their
        exact distances, which differ by ulps; the exact order wins."""
        dim, n = 64, 12
        half = dim // 2
        tol = 64 * (dim + 4) * np.finfo(np.float64).eps
        kind = MetricKind.EUCLIDEAN
        for seed in range(50):
            rng = np.random.default_rng(seed)
            x = np.repeat(rng.uniform(0.5, 1.5, 2), half)
            x /= np.linalg.norm(x)
            v = x + 0.1 * rng.normal(size=dim)
            v /= np.linalg.norm(v)
            A = np.vstack([x] + [np.r_[rng.permutation(v[:half]),
                                       rng.permutation(v[half:])]
                                 for _ in range(n - 1)])
            # the key as hardest_negatives forms it, for the anchor x
            sq = np.einsum("...d,...d->...", A, A)
            key = ((sq[0] - 2.0 * (A @ A.T)[0]) + sq)[1:]
            exact = pairwise_distances(A, A, kind)[0, 1:]
            if np.argmin(key) != np.argmin(exact):
                break
        else:
            pytest.fail("no batch whose key misorders its candidates")
        assert exact.max() - exact.min() < tol
        assert key[np.argmin(exact)] > key.min()
        P = -unit_rows(rng, n, dim)   # the anchor side decides pair 0
        for neg_mode in NegMode:
            assert_equals_full_matrix(A, P, kind, neg_mode)
        neg = hardest_negatives(A, P, kind)
        assert neg.j[0] == 1 + np.argmin(exact)
        assert neg.source[0] == 0


class TestHardestNegatives:
    def test_two_pairs_hand_computed(self):
        A = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        P = np.array([[0.0, 0.0, 1.0], [0.6, 0.8, 0.0]])
        got = negative_rows(hardest_negatives(A, P, MetricKind.ANGULAR))
        # pair 0: d(a0, a1) = pi/2; d(p0, p1) = pi/2; anchor source wins tie
        d0, src0, j0 = got[0]
        assert d0 == pytest.approx(np.pi / 2)
        assert src0 is NegSource.ANCHOR_VS_ANCHOR and j0 == 1
        # pair 1: d(p1, p0) = pi/2 while d(a1, a0) = pi/2: anchor first again
        d1, src1, j1 = got[1]
        assert d1 == pytest.approx(np.pi / 2)
        assert src1 is NegSource.ANCHOR_VS_ANCHOR and j1 == 0

    @pytest.mark.parametrize("kind", list(MetricKind))
    @pytest.mark.parametrize("neg_mode", list(NegMode))
    @pytest.mark.parametrize("opposed", [False, True])
    def test_matches_brute_force_on_random_batches(self, kind, neg_mode,
                                                   opposed):
        """The batch against itself, or (``opposed``) against other pairs,
        each query skipping the pair it stands in for and sharing its
        anchor, as the probe mines its candidates."""
        rng = np.random.default_rng(14)
        for _ in range(60):
            n = int(rng.integers(2, 17))
            A, P = unit_rows(rng, n), unit_rows(rng, n)
            opposing = None
            if opposed:
                m = int(rng.integers(2, 9))
                OA, OP = unit_rows(rng, m), unit_rows(rng, m)
                own = rng.integers(0, m, size=n)
                A, opposing = OA[own], (OA, OP, own)
            got = negative_rows(hardest_negatives(A, P, kind, neg_mode,
                                                  opposing))
            want = brute_force_hardest(A, P, kind, neg_mode, opposing)
            for (dg, sg, jg), (dw, sw, jw) in zip(got, want):
                assert jg == jw and sg is sw
                assert dg == pytest.approx(dw, abs=1e-12)
            for t in mine_triplets(A, P, kind, 1.0, neg_mode, opposing):
                i = t.pair_index
                assert abs(t.d_pos - distance(A[i], P[i], kind)) < 1e-12

    def test_mismatched_opposing_pairs_rejected(self):
        rng = np.random.default_rng(24)
        OA, OP = unit_rows(rng, 4), unit_rows(rng, 4)
        A, P = unit_rows(rng, 3), unit_rows(rng, 3)
        for opposing in ((OA, OP[:3], np.zeros(3, int)),
                         (OA, OP, np.zeros(2, int))):
            with pytest.raises(ValueError, match="opposing"):
                hardest_negatives(A, P, MetricKind.EUCLIDEAN,
                                  opposing=opposing)
        with pytest.raises(ValueError, match="at least 2"):
            hardest_negatives(A, P, MetricKind.EUCLIDEAN,
                              opposing=(OA[:1], OP[:1], np.zeros(3, int)))

    def test_tie_break_prefers_lowest_index_then_anchor_source(self):
        # identical anchors at three slots: every candidate distance ties
        e0 = np.array([1.0, 0.0, 0.0])
        e1 = np.array([0.0, 1.0, 0.0])
        A = np.stack([e0, e1, e1, e1])
        P = np.stack([e1, e0, e0, e0])
        got = negative_rows(hardest_negatives(A, P, MetricKind.EUCLIDEAN))
        # for pair 0, candidates j=1,2,3 are all identical by symmetry
        d0, src0, j0 = got[0]
        assert j0 == 1
        assert src0 is NegSource.ANCHOR_VS_ANCHOR

    def test_orthogonal_anchors_with_copied_positives(self):
        A = np.eye(4)
        got = hardest_negatives(A, A.copy(), MetricKind.ANGULAR)
        for d, src, j in negative_rows(got):
            assert d == pytest.approx(np.pi / 2)
            assert src is NegSource.ANCHOR_VS_ANCHOR

    def test_single_pair_rejected(self):
        A = np.array([[1.0, 0.0]])
        with pytest.raises(ValueError, match="at least 2"):
            hardest_negatives(A, A.copy(), MetricKind.EUCLIDEAN)


class TestTripletLoss:
    def test_hinge_boundary_is_zero(self):
        assert triplet_loss(0.0, 1.0, 1.0) == 0.0

    def test_active_hinge_value(self):
        assert triplet_loss(1.0, 1.0, 1.0) == pytest.approx(1.0)

    def test_hinge_clamps_to_zero(self):
        assert triplet_loss(0.0, 2.0, 1.0) == 0.0

    def test_nonnegative_everywhere(self):
        rng = np.random.default_rng(15)
        for _ in range(300):
            assert triplet_loss(rng.uniform(0, 3), rng.uniform(0, 3),
                                rng.uniform(0.1, 2)) >= 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            triplet_loss(np.nan, 1.0, 1.0)
        with pytest.raises(ValueError):
            triplet_loss(np.array([0.5, np.inf]), np.ones(2), 1.0)

    def test_arrays_match_scalar_hinge(self):
        rng = np.random.default_rng(21)
        d_pos, d_neg = rng.uniform(0, 3, 50), rng.uniform(0, 3, 50)
        got = triplet_loss(d_pos, d_neg, 0.7)
        want = [max(0.7 + float(p) * float(p) - float(q) * float(q), 0.0)
                for p, q in zip(d_pos, d_neg)]
        np.testing.assert_array_equal(got, want)


class TestMinedTriplets:
    def test_rows_read_the_arrays(self):
        rng = np.random.default_rng(22)
        A, P = unit_rows(rng, 5), unit_rows(rng, 5)
        for neg_mode in NegMode:
            mined = mine_triplets(A, P, MetricKind.ANGULAR, 1.0, neg_mode)
            neg = hardest_negatives(A, P, MetricKind.ANGULAR, neg_mode)
            assert len(mined) == 5 and len(list(mined)) == 5
            for i, t in enumerate(mined):
                assert t == mined[i]
                assert t.pair_index == i
                assert (t.d_neg, t.neg_source, t.neg_pair_index) == \
                    negative_rows(neg)[i]
                assert t.d_pos == mined.d_pos[i]
                assert t.loss == float(triplet_loss(t.d_pos, t.d_neg, 1.0))
            assert mined[-1] == mined[4]
            with pytest.raises(IndexError):
                mined[5]


def indexed(mined, index):
    """``mined`` with every array indexed by ``index``: batch s of a stack,
    or a leading axis for None."""
    return MinedTriplets(*(getattr(mined, f.name)[index]
                           for f in dataclasses.fields(mined)))


def total_loss(A, P, kind, margin, weights):
    return float(np.dot(weights, mine_triplets(A, P, kind, margin).loss))


class TestLossGrads:
    def test_inactive_hinges_give_zero_gradients(self):
        rng = np.random.default_rng(16)
        A, P = unit_rows(rng, 3), unit_rows(rng, 3)
        mined = mine_triplets(A, P, MetricKind.ANGULAR, margin=1.0)
        quenched = dataclasses.replace(mined, loss=np.zeros(3))
        ga, gp = loss_grads(quenched, MetricKind.ANGULAR)
        assert np.all(ga == 0) and np.all(gp == 0)

    def test_positive_term_gradient_norm_is_twice_matching_distance(self):
        """With the euclidean metric and an anchor-side negative, the whole
        gradient on the positive descriptor comes from the squared matching
        distance and has norm exactly 2 d_pos."""
        rng = np.random.default_rng(17)
        for _ in range(100):
            base = unit_rows(rng, 1, 8)[0]
            jitter = rng.normal(size=8) * 0.05
            a0 = base
            a1 = (base + jitter) / np.linalg.norm(base + jitter)
            # positives far apart so both mined negatives are anchor-side
            P = unit_rows(rng, 2, 8)
            while min(np.linalg.norm(P[0] - a0), np.linalg.norm(P[1] - a1),
                      np.linalg.norm(P[0] - P[1])) < 0.8:
                P = unit_rows(rng, 2, 8)
            A = np.stack([a0, a1])
            mined = mine_triplets(A, P, MetricKind.EUCLIDEAN, margin=1.0)
            assert all(t.neg_source is NegSource.ANCHOR_VS_ANCHOR
                       for t in mined)
            assert all(t.loss > 0 for t in mined)
            ga, gp = loss_grads(mined, MetricKind.EUCLIDEAN)
            for t in mined:
                assert np.linalg.norm(gp[t.pair_index]) == pytest.approx(
                    2.0 * t.d_pos, abs=1e-10)

    @pytest.mark.parametrize("kind", list(MetricKind))
    def test_matches_finite_differences_through_whole_loss(self, kind):
        rng = np.random.default_rng(18)
        checked = 0
        while checked < 8:
            n = int(rng.integers(2, 6))
            A, P = unit_rows(rng, n), unit_rows(rng, n)
            w = rng.uniform(0.5, 1.5, size=n)
            mined = mine_triplets(A, P, kind, margin=1.0)
            # stay away from hinge boundaries and mining switch points
            margins = [abs(1.0 + t.d_pos ** 2 - t.d_neg ** 2) for t in mined]
            if min(margins) < 1e-3:
                continue
            ga, gp = loss_grads(mined, kind, w)
            eps = 1e-7
            for target, grad in ((A, ga), (P, gp)):
                fd = np.zeros_like(target)
                for r in range(n):
                    for c in range(target.shape[1]):
                        up = target.copy()
                        dn = target.copy()
                        up[r, c] += eps
                        dn[r, c] -= eps
                        args_up = (up, P) if target is A else (A, up)
                        args_dn = (dn, P) if target is A else (A, dn)
                        fd[r, c] = (total_loss(*args_up, kind, 1.0, w)
                                    - total_loss(*args_dn, kind, 1.0, w)) \
                            / (2 * eps)
                rel = np.linalg.norm(grad - fd) / max(np.linalg.norm(fd), 1e-12)
                assert rel < 1e-5
            checked += 1

    def test_weights_of_another_shape_rejected(self):
        rng = np.random.default_rng(19)
        A, P = unit_rows(rng, 3), unit_rows(rng, 3)
        mined = mine_triplets(A, P, MetricKind.EUCLIDEAN, margin=1.0)
        for w in (np.ones(2), np.ones(4), np.ones((1, 3))):
            with pytest.raises(ValueError, match="weights shape"):
                loss_grads(mined, MetricKind.EUCLIDEAN, w)

    def test_cross_role_sources_route_gradients(self):
        rng = np.random.default_rng(20)
        A, P = unit_rows(rng, 3), unit_rows(rng, 3)
        mined = mine_triplets(A, P, MetricKind.EUCLIDEAN, margin=2.0,
                              neg_mode=NegMode.CROSS_ROLE)
        assert all(t.neg_source in (NegSource.ANCHOR_VS_POSITIVE,
                                    NegSource.POSITIVE_VS_ANCHOR)
                   for t in mined)
        ga, gp = loss_grads(mined, MetricKind.EUCLIDEAN)
        assert np.any(ga != 0) or np.any(gp != 0)

    @pytest.mark.parametrize("kind", list(MetricKind))
    @pytest.mark.parametrize("neg_mode", list(NegMode))
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(n=st.integers(2, 24), dim=st.integers(2, 16),
           margin=st.sampled_from([1e-9, 0.3, 1.0, 4.0]),
           stack=st.integers(0, 3), seed=st.integers(0, 2 ** 32 - 1))
    def test_equals_scalar_oracle(self, kind, neg_mode, n, dim, margin,
                                  stack, seed):
        """Random batches, both metrics and modes, a margin range that makes
        hinges inactive, duplicated rows (angular saturation, euclidean zero
        distance) and random quenching: equal to the per-triplet loop. With
        ``stack`` > 0 the batches are a (stack, n, dim) stack, as a lockstep
        step's, and each batch's gradients equal its own oracle."""
        rng = np.random.default_rng(seed)
        S = max(stack, 1)
        A = np.stack([unit_rows(rng, n, dim) for _ in range(S)])
        P = np.stack([unit_rows(rng, n, dim) for _ in range(S)])
        P[:, 0] = A[:, 0]
        if n > 2:
            A[:, 2] = A[:, 1]
        w = rng.uniform(0.1, 3.0, size=(S, n))
        if not stack:
            A, P, w = A[0], P[0], w[0]
        mined = mine_triplets(A, P, kind, margin, neg_mode)
        quench = rng.random(w.shape) < 0.2
        mined = dataclasses.replace(mined,
                                    loss=np.where(quench, 0.0, mined.loss))
        ga, gp = loss_grads(mined, kind, w)
        if not stack:   # the 2-D batch, checked as a stack of one
            A, P, w, ga, gp = (x[None] for x in (A, P, w, ga, gp))
            mined = indexed(mined, None)
        for s in range(S):
            want_a, want_p = scalar_loss_grads(A[s], P[s], indexed(mined, s),
                                               kind, w[s])
            np.testing.assert_array_equal(ga[s], want_a)
            np.testing.assert_array_equal(gp[s], want_p)
