"""Hardest-in-batch negative mining and the hinge triplet loss.

Given a batch of n matching descriptor pairs (anchor_i, positive_i), each
from a distinct class, the negative distance for pair i is the smallest
distance from its anchor to any other anchor or from its positive to any
other positive:

    d_neg_i = min_{j != i} min( d(anchor_i, anchor_j),
                                d(positive_i, positive_j) )

and the per-pair loss is max(margin + d_pos^2 - d_neg^2, 0), with squared
distances. ``NegMode.CROSS_ROLE`` instead compares anchors against the
other pairs' positives (and vice versa), the variant used by earlier
hardest-in-batch pipelines; ``SAME_ROLE`` is the default.

Ties are broken deterministically: lowest opposing pair index first, and
the anchor-side candidate before the positive-side candidate.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .metricspace import MetricKind, distance_grad, \
    paired_distances, pairwise_distances


class NegSource(enum.Enum):
    ANCHOR_VS_ANCHOR = "anchor_vs_anchor"
    POSITIVE_VS_POSITIVE = "positive_vs_positive"
    ANCHOR_VS_POSITIVE = "anchor_vs_positive"
    POSITIVE_VS_ANCHOR = "positive_vs_anchor"


class NegMode(enum.Enum):
    SAME_ROLE = "same_role"
    CROSS_ROLE = "cross_role"

    @classmethod
    def parse(cls, name: str) -> "NegMode":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown neg_mode {name!r}; expected one of "
                             f"{[m.value for m in cls]}") from None


@dataclass(frozen=True)
class MinedTriplet:
    pair_index: int
    d_pos: float
    d_neg: float
    neg_source: NegSource
    neg_pair_index: int
    loss: float


_SOURCES = {
    NegMode.SAME_ROLE: (NegSource.ANCHOR_VS_ANCHOR,
                        NegSource.POSITIVE_VS_POSITIVE),
    NegMode.CROSS_ROLE: (NegSource.ANCHOR_VS_POSITIVE,
                         NegSource.POSITIVE_VS_ANCHOR),
}


def hardest_negatives(anchors: np.ndarray, positives: np.ndarray,
                      kind: MetricKind,
                      neg_mode: NegMode = NegMode.SAME_ROLE
                      ) -> list[tuple[float, NegSource, int]]:
    """Per pair, the minimum over both candidate distance matrices.

    Returns one (d_neg, source, j) triple per pair. The scan order over the
    flattened (j, source) candidates makes the tie-break exact: lowest j
    wins, and within a j the anchor-side source wins.
    """
    A = np.atleast_2d(np.asarray(anchors, dtype=np.float64))
    P = np.atleast_2d(np.asarray(positives, dtype=np.float64))
    n = A.shape[0]
    if P.shape[0] != n:
        raise ValueError(f"anchor/positive counts differ: {n} vs {P.shape[0]}")
    if n < 2:
        raise ValueError(f"need at least 2 pairs to mine negatives, got {n}")
    src_a, src_p = _SOURCES[neg_mode]
    if neg_mode is NegMode.SAME_ROLE:
        D_first = pairwise_distances(A, A, kind)
        D_second = pairwise_distances(P, P, kind)
    else:
        D_first = pairwise_distances(A, P, kind)
        D_second = pairwise_distances(P, A, kind)
    # Candidate tensor ordered (j, source); argmin picks the first minimum,
    # which implements the tie-break.
    C = np.stack([D_first, D_second], axis=2)
    idx = np.arange(n)
    C[idx, idx, :] = np.inf
    flatidx = np.argmin(C.reshape(n, 2 * n), axis=1)
    out = []
    for i in range(n):
        j, s = divmod(int(flatidx[i]), 2)
        source = src_a if s == 0 else src_p
        out.append((float(C[i, j, s]), source, j))
    return out


def triplet_loss(d_pos: float, d_neg: float, margin: float) -> float:
    """max(margin + d_pos^2 - d_neg^2, 0)."""
    if not (np.isfinite(d_pos) and np.isfinite(d_neg) and np.isfinite(margin)):
        raise ValueError("triplet loss inputs must be finite")
    return float(max(margin + d_pos * d_pos - d_neg * d_neg, 0.0))


def mine_triplets(anchors: np.ndarray, positives: np.ndarray,
                  kind: MetricKind, margin: float,
                  neg_mode: NegMode = NegMode.SAME_ROLE) -> list[MinedTriplet]:
    """Mine hardest negatives and evaluate the hinge loss for every pair."""
    A = np.atleast_2d(np.asarray(anchors, dtype=np.float64))
    P = np.atleast_2d(np.asarray(positives, dtype=np.float64))
    mined = hardest_negatives(A, P, kind, neg_mode)
    d_pos = paired_distances(A, P, kind)
    return [
        MinedTriplet(pair_index=i, d_pos=float(d_pos[i]), d_neg=dn,
                     neg_source=src, neg_pair_index=j,
                     loss=triplet_loss(float(d_pos[i]), dn, margin))
        for i, (dn, src, j) in enumerate(mined)
    ]


def loss_grads(anchors: np.ndarray, positives: np.ndarray,
               mined: list[MinedTriplet], kind: MetricKind,
               weights: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """Descriptor-space gradients of sum_i w_i * loss_i.

    Each active pair contributes 2 d_pos * grad(d_pos) through its own
    anchor and positive, and -2 d_neg * grad(d_neg) through the two
    descriptors forming its mined negative distance. Inactive hinges (and
    the exact hinge boundary) contribute the zero subgradient.
    """
    A = np.atleast_2d(np.asarray(anchors, dtype=np.float64))
    P = np.atleast_2d(np.asarray(positives, dtype=np.float64))
    n = A.shape[0]
    if weights is None:
        weights = np.ones(n)
    w = np.asarray(weights, dtype=np.float64)
    if w.shape != (n,):
        raise ValueError(f"weights shape {w.shape} does not match batch size {n}")
    grad_a = np.zeros_like(A)
    grad_p = np.zeros_like(P)
    for t in mined:
        i, j = t.pair_index, t.neg_pair_index
        if not (0 <= i < n and 0 <= j < n and j != i):
            raise ValueError(f"mined triplet has stale indices ({i}, {j}) "
                             f"for batch size {n}")
        if t.loss <= 0.0:
            continue
        ga, gp, _ = distance_grad(A[i], P[i], kind)
        grad_a[i] += w[i] * 2.0 * t.d_pos * ga
        grad_p[i] += w[i] * 2.0 * t.d_pos * gp
        scale = w[i] * 2.0 * t.d_neg
        if t.neg_source is NegSource.ANCHOR_VS_ANCHOR:
            gx, gy, _ = distance_grad(A[i], A[j], kind)
            grad_a[i] -= scale * gx
            grad_a[j] -= scale * gy
        elif t.neg_source is NegSource.POSITIVE_VS_POSITIVE:
            gx, gy, _ = distance_grad(P[i], P[j], kind)
            grad_p[i] -= scale * gx
            grad_p[j] -= scale * gy
        elif t.neg_source is NegSource.ANCHOR_VS_POSITIVE:
            gx, gy, _ = distance_grad(A[i], P[j], kind)
            grad_a[i] -= scale * gx
            grad_p[j] -= scale * gy
        else:
            gx, gy, _ = distance_grad(P[i], A[j], kind)
            grad_p[i] -= scale * gx
            grad_a[j] -= scale * gy
    return grad_a, grad_p
