"""Tests for the dense network: forward/backward, oracles, serialization."""

from dataclasses import fields

import numpy as np
import pytest

from adasample.errors import DegenerateOutputError, FormatError
from adasample.tensornet import (Activation, ForwardCache, GradEstimate,
                                 ModelParams, backward, forward,
                                 group_grad_norms, init_params, read_params,
                                 write_params)
from finite_diff import finite_diff_grad


class TestInitParams:
    def test_deterministic_for_fixed_seed(self):
        a = init_params([4, 4], seed=7)
        b = init_params([4, 4], seed=7)
        for wa, wb in zip(a.layers, b.layers):
            assert np.array_equal(wa, wb)

    def test_shape_chaining(self):
        params = init_params([8, 16, 32], seed=0)
        assert params.layers[0].shape == (16, 8)
        assert params.layers[1].shape == (32, 16)
        assert params.layer_dims() == [8, 16, 32]

    def test_entry_statistics(self):
        """Sample mean of the entries stays within 3 standard errors of 0."""
        params = init_params([64, 32], seed=1)
        entries = params.layers[0].ravel()
        sigma = np.sqrt(2.0 / 64)
        stderr = sigma / np.sqrt(entries.size)
        assert abs(entries.mean()) < 3 * stderr
        # the spread itself should be near the configured sigma
        assert abs(entries.std() - sigma) < 0.15 * sigma

    @pytest.mark.parametrize("dims", [[], [5], [0, 4], [4, -1], [4, 0, 3]])
    def test_invalid_dims_rejected(self, dims):
        with pytest.raises(ValueError):
            init_params(dims, seed=0)


class TestForward:
    def test_identity_single_layer_passes_unit_input_through(self):
        params = ModelParams([np.eye(4)], Activation.TANH)
        x = np.array([[0.5, 0.5, 0.5, 0.5]])
        descs, _ = forward(params, x)
        np.testing.assert_allclose(descs, x, atol=1e-15)

    def test_outputs_are_unit_norm(self):
        rng = np.random.default_rng(0)
        params = init_params([6, 10, 5], seed=3)
        descs, _ = forward(params, rng.normal(size=(32, 6)))
        np.testing.assert_allclose(np.linalg.norm(descs, axis=1), 1.0,
                                   atol=1e-6)

    def test_forward_is_pure(self):
        rng = np.random.default_rng(1)
        params = init_params([5, 4], seed=2)
        x = rng.normal(size=(3, 5))
        d1, _ = forward(params, x)
        d2, _ = forward(params, x)
        assert np.array_equal(d1, d2)

    def test_dimension_mismatch_rejected(self):
        params = init_params([5, 4], seed=2)
        with pytest.raises(ValueError, match="input dimension"):
            forward(params, np.zeros((2, 6)))

    def test_zero_prenormalization_output_rejected(self):
        params = ModelParams([np.zeros((3, 4))], Activation.TANH)
        with pytest.raises(DegenerateOutputError):
            forward(params, np.ones((1, 4)))

    def test_normalization_invariant_to_input_scaling_of_linear_net(self):
        """Scaling the pre-normalization vector leaves the output unchanged."""
        params = ModelParams([np.array([[1.0, 2.0], [3.0, -1.0]])],
                             Activation.TANH)
        x = np.array([[0.8, -0.6]])
        d1, _ = forward(params, x)
        d2, _ = forward(params, 7.5 * x)
        np.testing.assert_allclose(d1, d2, atol=1e-12)


class TestBackward:
    def test_zero_output_grads_give_zero_everything(self):
        params = init_params([4, 6, 3], seed=5)
        descs, cache = forward(params, np.random.default_rng(0).normal(size=(4, 4)))
        grads = backward(params, cache, np.zeros_like(descs))
        norms = group_grad_norms(params, cache, np.zeros_like(descs), 1)
        assert all(np.all(g == 0) for g in grads.layers)
        assert np.all(norms == 0)

    @pytest.mark.parametrize("dims", [[5, 3], [5, 7, 3], [5, 7, 6, 3]])
    @pytest.mark.parametrize("activation", [Activation.TANH, Activation.RELU])
    def test_matches_finite_differences(self, dims, activation):
        """Analytic gradients of sum(V * f(X)) track central differences."""
        rng = np.random.default_rng(hash((len(dims), activation.value)) % 2**32)
        params = init_params(dims, seed=11, activation=activation)
        X = rng.normal(size=(3, dims[0]))
        V = rng.normal(size=(3, dims[-1]))

        analytic = backward(params, forward(params, X)[1], V)

        def loss(p):
            return float(np.sum(V * forward(p, X)[0]))

        fd = finite_diff_grad(params, loss, eps=1e-6)
        for a, f in zip(analytic.layers, fd.layers):
            rel = np.linalg.norm(a - f) / max(np.linalg.norm(f), 1e-300)
            assert rel < 1e-5

    def test_per_sample_norm_homogeneity(self):
        rng = np.random.default_rng(2)
        params = init_params([4, 5, 3], seed=1)
        _, cache = forward(params, rng.normal(size=(5, 4)))
        V = rng.normal(size=(5, 3))
        base = group_grad_norms(params, cache, V, 1)
        scaled = group_grad_norms(params, cache, -2.5 * V, 1)
        np.testing.assert_allclose(scaled, 2.5 * base, rtol=1e-12)

    def test_per_sample_norms_match_single_sample_backward(self):
        """Row i's norm equals backward run on row i alone, bitwise."""
        rng = np.random.default_rng(3)
        params = init_params([6, 8, 4], seed=9)
        _, cache = forward(params, rng.normal(size=(6, 6)))
        V = rng.normal(size=(6, 4))
        norms = group_grad_norms(params, cache, V, 1)
        for i in range(6):
            grads_i = backward(params, cache.take([i]), V[i:i + 1])
            norm_i = group_grad_norms(params, cache.take([i]), V[i:i + 1], 1)
            assert norm_i[0] == norms[i]
            assert abs(grads_i.norm() - norms[i]) < 1e-12 * max(norms[i], 1.0)

    def test_radial_output_grads_vanish(self):
        """Gradients pointing along the descriptor itself lie in the null
        space of the normalization Jacobian, so the informativeness is zero."""
        rng = np.random.default_rng(4)
        params = init_params([5, 6, 4], seed=12)
        descs, cache = forward(params, rng.normal(size=(4, 5)))
        norms = group_grad_norms(params, cache, 3.7 * descs, 1)
        np.testing.assert_allclose(norms, 0.0, atol=1e-12)

    def test_batch_mismatch_rejected(self):
        params = init_params([4, 3], seed=0)
        _, cache = forward(params, np.ones((2, 4)))
        with pytest.raises(ValueError, match="output_grads shape"):
            backward(params, cache, np.ones((3, 3)))


def per_sample_norms_loop(params, cache, output_grads):
    """The per-sample norm loop of backward before it shared its recursion
    with group_grad_norms: the bit-for-bit oracle for group size 1."""
    y = cache.descriptors
    delta = output_grads - np.sum(output_grads * y, axis=1,
                                  keepdims=True) * y
    delta = delta / cache.output_norms[:, None]
    sq_norms = np.zeros(cache.batch_size)
    for l in range(len(params.layers) - 1, -1, -1):
        x_prev = cache.inputs if l == 0 else cache.hidden[l - 1]
        sq_norms += np.sum(delta * delta, axis=1) * np.sum(x_prev * x_prev,
                                                           axis=1)
        if l > 0:
            h = cache.pre[l - 1]
            deriv = (1.0 - cache.hidden[l - 1] ** 2
                     if params.activation is Activation.TANH
                     else (h > 0.0).astype(np.float64))
            delta = (delta @ params.layers[l]) * deriv
    return np.sqrt(sq_norms)


class TestForwardCacheTake:
    @pytest.mark.parametrize("dims, batch_rows, taken_rows", [
        ([256, 64, 32], 512, 128),          # train_default: 64 classes x 8
        ([1024, 256, 64], 1152, 256),       # train_wide_ragged: 128 x 2..16
    ])
    @pytest.mark.parametrize("activation", [Activation.TANH, Activation.RELU])
    def test_taken_rows_equal_a_forward_of_those_rows(self, dims, batch_rows,
                                                      taken_rows, activation):
        """The network is row-wise, so rows taken from the cache of a larger
        pass equal a pass over those rows alone, bit for bit in every field
        and every layer. The trainer relies on it to backpropagate through
        the rows of the pass that drew the positives; a BLAS whose row
        results depend on the other rows of the product fails here."""
        rng = np.random.default_rng(dims[0] + batch_rows)
        params = init_params(dims, seed=dims[1], activation=activation)
        for _ in range(3):
            X = rng.normal(size=(batch_rows, dims[0]))
            rows = rng.choice(batch_rows, size=taken_rows, replace=False)
            taken = forward(params, X)[1].take(rows)
            alone = forward(params, X[rows])[1]
            for f in fields(ForwardCache):
                got, want = getattr(taken, f.name), getattr(alone, f.name)
                if isinstance(want, list):
                    assert len(got) == len(want), f.name
                    for g, w in zip(got, want):
                        assert np.array_equal(g, w), f.name
                else:
                    assert np.array_equal(got, want), f.name


class TestGroupGradNorms:
    @pytest.mark.parametrize("group", [1, 2, 3, 5])
    @pytest.mark.parametrize("activation", [Activation.TANH, Activation.RELU])
    def test_group_norm_is_norm_of_group_backward(self, group, activation):
        rng = np.random.default_rng(group)
        params = init_params([7, 16, 12, 4], seed=group,
                             activation=activation)
        X = rng.normal(size=(4 * group, 7))
        V = rng.normal(size=(4 * group, 4))
        _, cache = forward(params, X)
        norms = group_grad_norms(params, cache, V, group)
        assert norms.shape == (4,)
        for g in range(4):
            rows = np.arange(g * group, (g + 1) * group)
            grads = backward(params, cache.take(rows), V[rows])
            assert abs(norms[g] - grads.norm()) <= 1e-12 * grads.norm()

    @pytest.mark.parametrize("activation", [Activation.TANH, Activation.RELU])
    def test_group_of_one_is_the_per_sample_norm_bit_for_bit(self,
                                                             activation):
        rng = np.random.default_rng(7)
        params = init_params([33, 20, 12, 5], seed=3, activation=activation)
        X = rng.normal(size=(70, 33))
        V = rng.normal(size=(70, 5))
        _, cache = forward(params, X)
        want = per_sample_norms_loop(params, cache, V)
        assert np.array_equal(group_grad_norms(params, cache, V, 1), want)

    def test_identical_rows_with_opposite_gradients_give_zero(self):
        rng = np.random.default_rng(8)
        params = init_params([6, 8, 3], seed=4)
        x = rng.normal(size=6)
        v = rng.normal(size=3)
        _, cache = forward(params, np.vstack([x, x]))
        norms = group_grad_norms(params, cache, np.vstack([v, -v]), 2)
        assert norms[0] == 0.0

    def test_near_cancelling_groups_stay_finite(self):
        """Rows a rounding error apart with opposite gradients: the Gram sum
        is 0 up to rounding and may land below it, so it is clamped."""
        rng = np.random.default_rng(9)
        params = init_params([6, 8, 3], seed=4)
        X = np.repeat(rng.normal(size=(200, 6)), 2, axis=0)
        X[1::2] += rng.normal(scale=1e-13, size=(200, 6))
        V = np.repeat(rng.normal(size=(200, 3)), 2, axis=0)
        V[1::2] *= -1.0
        _, cache = forward(params, X)
        norms = group_grad_norms(params, cache, V, 2)
        assert np.all(np.isfinite(norms))
        assert np.all(norms < 1e-6)

    def test_rows_must_split_into_groups(self):
        params = init_params([4, 3], seed=0)
        _, cache = forward(params, np.ones((5, 4)))
        with pytest.raises(ValueError, match="groups of 2"):
            group_grad_norms(params, cache, np.ones((5, 3)), 2)


class TestFiniteDiffGrad:
    def test_quadratic_gradient_is_theta(self):
        params = init_params([3, 4], seed=4)

        def loss(p):
            return 0.5 * float(sum(np.sum(w * w) for w in p.layers))

        fd = finite_diff_grad(params, loss, eps=1e-5)
        for g, w in zip(fd.layers, params.layers):
            np.testing.assert_allclose(g, w, atol=1e-8)

    def test_constant_loss_gives_zero(self):
        params = init_params([3, 2], seed=4)
        fd = finite_diff_grad(params, lambda p: 1.25, eps=1e-5)
        assert all(np.all(g == 0) for g in fd.layers)

    def test_entry_sum_gives_ones(self):
        params = init_params([3, 2], seed=4)

        def loss(p):
            return float(sum(np.sum(w) for w in p.layers))

        fd = finite_diff_grad(params, loss, eps=1e-5)
        for g in fd.layers:
            np.testing.assert_allclose(g, 1.0, atol=1e-9)

    def test_nonpositive_eps_rejected(self):
        params = init_params([3, 2], seed=4)
        with pytest.raises(ValueError):
            finite_diff_grad(params, lambda p: 0.0, eps=0.0)


class TestSerialization:
    def test_round_trip(self, tmp_path):
        params = init_params([6, 5, 4], seed=13, activation=Activation.RELU)
        path = tmp_path / "weights.adnw"
        write_params(params, path)
        loaded = read_params(path)
        assert loaded.activation is Activation.RELU
        for a, b in zip(params.layers, loaded.layers):
            assert np.array_equal(a, b)

    def test_bad_magic_reports_offset_zero(self, tmp_path):
        path = tmp_path / "weights.adnw"
        path.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(FormatError) as err:
            read_params(path)
        assert err.value.offset == 0

    def test_truncation_reports_offset(self, tmp_path):
        params = init_params([6, 5], seed=13)
        path = tmp_path / "weights.adnw"
        write_params(params, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) - 9])
        with pytest.raises(FormatError, match="truncated"):
            read_params(path)


class TestGradEstimate:
    def test_flatten_and_norm_agree(self):
        g = GradEstimate([np.array([[3.0, 0.0]]), np.array([[4.0]])])
        assert g.norm() == pytest.approx(5.0)
        assert np.array_equal(g.flatten(), np.array([3.0, 0.0, 4.0]))
