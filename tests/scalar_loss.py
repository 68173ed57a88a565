"""A per-triplet loop over the scalar distance gradients: the oracle for
``miner.loss_grads`` and, through it, for ``miner._triplet_grads``, the
kernel it shares with the probe. It shares no code with the batched
kernels."""

import numpy as np

from adasample.miner import NegSource
from scalar_distance import scalar_distance_grad


def scalar_loss_grads(A, P, mined, kind, weights):
    """Per-triplet loop over scalar distance gradients: the oracle for
    loss_grads, which must equal it bit for bit."""
    n = A.shape[0]
    grad_a = np.zeros_like(A)
    grad_p = np.zeros_like(P)
    for t in mined:
        i, j = t.pair_index, t.neg_pair_index
        if t.loss <= 0.0:
            continue
        ga, gp, _ = scalar_distance_grad(A[i], P[i], kind)
        grad_a[i] += weights[i] * 2.0 * t.d_pos * ga
        grad_p[i] += weights[i] * 2.0 * t.d_pos * gp
        scale = weights[i] * 2.0 * t.d_neg
        if t.neg_source is NegSource.ANCHOR_VS_ANCHOR:
            gx, gy, _ = scalar_distance_grad(A[i], A[j], kind)
            grad_a[i] -= scale * gx
            grad_a[j] -= scale * gy
        elif t.neg_source is NegSource.POSITIVE_VS_POSITIVE:
            gx, gy, _ = scalar_distance_grad(P[i], P[j], kind)
            grad_p[i] -= scale * gx
            grad_p[j] -= scale * gy
        elif t.neg_source is NegSource.ANCHOR_VS_POSITIVE:
            gx, gy, _ = scalar_distance_grad(A[i], P[j], kind)
            grad_a[i] -= scale * gx
            grad_p[j] -= scale * gy
        else:
            gx, gy, _ = scalar_distance_grad(P[i], A[j], kind)
            grad_p[i] -= scale * gx
            grad_a[j] -= scale * gy
    assert len(mined) == n
    return grad_a, grad_p
