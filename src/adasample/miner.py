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
from typing import NamedTuple

import numpy as np

from .metricspace import MetricKind, paired_distance_grads, \
    paired_distances, pairwise_distances


class NegSource(enum.Enum):
    ANCHOR_VS_ANCHOR = "anchor_vs_anchor"
    POSITIVE_VS_POSITIVE = "positive_vs_positive"
    ANCHOR_VS_POSITIVE = "anchor_vs_positive"
    POSITIVE_VS_ANCHOR = "positive_vs_anchor"


# Source codes index NEG_SOURCES. Whether the descriptor of pair i (first)
# and of pair j (second) that form the negative distance is a positive:
NEG_SOURCES = tuple(NegSource)
_FIRST_IS_POSITIVE = np.array([0, 1, 0, 1])
_SECOND_IS_POSITIVE = np.array([0, 1, 1, 0])


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


class Negatives(NamedTuple):
    """Per pair i: the hardest negative distance, its source code (an index
    into ``NEG_SOURCES``) and the opposing pair j."""

    d_neg: np.ndarray
    source: np.ndarray
    j: np.ndarray


@dataclass(frozen=True)
class MinedTriplets:
    """The mined triplets of a batch as arrays; entry i belongs to pair i.
    Indexing gives the :class:`MinedTriplet` of one pair."""

    d_pos: np.ndarray
    d_neg: np.ndarray
    source: np.ndarray
    j: np.ndarray
    loss: np.ndarray

    def __len__(self) -> int:
        return len(self.loss)

    def __getitem__(self, i: int) -> MinedTriplet:
        if not -len(self) <= i < len(self):
            raise IndexError(f"pair {i} out of range for {len(self)} pairs")
        i %= len(self)
        return MinedTriplet(pair_index=i, d_pos=float(self.d_pos[i]),
                            d_neg=float(self.d_neg[i]),
                            neg_source=NEG_SOURCES[self.source[i]],
                            neg_pair_index=int(self.j[i]),
                            loss=float(self.loss[i]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def first_minimum(first: np.ndarray, second: np.ndarray,
                  skip: np.ndarray) -> tuple[np.ndarray, np.ndarray,
                                             np.ndarray]:
    """Per row i, the minimum over the candidates ``first[i, j]`` (side 0)
    and ``second[i, j]`` (side 1) for j != skip[i], with its j and side.

    The scan order over the flattened (j, side) candidates makes the
    tie-break exact: lowest j wins, and within a j side 0 wins.
    """
    C = np.stack([first, second], axis=2)
    idx = np.arange(C.shape[0])
    C[idx, skip, :] = np.inf
    flat = C.reshape(C.shape[0], -1)
    best = np.argmin(flat, axis=1)
    j, side = np.divmod(best, 2)
    return flat[idx, best], j, side


def hardest_negatives(anchors: np.ndarray, positives: np.ndarray,
                      kind: MetricKind,
                      neg_mode: NegMode = NegMode.SAME_ROLE) -> Negatives:
    """Per pair, the minimum over both candidate distance matrices, with
    the tie-break of :func:`first_minimum` (the anchor side is side 0)."""
    A = np.atleast_2d(np.asarray(anchors, dtype=np.float64))
    P = np.atleast_2d(np.asarray(positives, dtype=np.float64))
    n = A.shape[0]
    if P.shape[0] != n:
        raise ValueError(f"anchor/positive counts differ: {n} vs {P.shape[0]}")
    if n < 2:
        raise ValueError(f"need at least 2 pairs to mine negatives, got {n}")
    if neg_mode is NegMode.SAME_ROLE:
        D_first = pairwise_distances(A, A, kind)
        D_second = pairwise_distances(P, P, kind)
        first_code = 0
    else:
        D_first = pairwise_distances(A, P, kind)
        D_second = pairwise_distances(P, A, kind)
        first_code = 2
    d_neg, j, side = first_minimum(D_first, D_second, np.arange(n))
    return Negatives(d_neg, first_code + side, j)


def triplet_loss(d_pos, d_neg, margin: float) -> np.ndarray:
    """Element-wise max(margin + d_pos^2 - d_neg^2, 0)."""
    d_pos = np.asarray(d_pos, dtype=np.float64)
    d_neg = np.asarray(d_neg, dtype=np.float64)
    if not (np.all(np.isfinite(d_pos)) and np.all(np.isfinite(d_neg))
            and np.isfinite(margin)):
        raise ValueError("triplet loss inputs must be finite")
    return np.maximum(margin + d_pos * d_pos - d_neg * d_neg, 0.0)


def mine_triplets(anchors: np.ndarray, positives: np.ndarray,
                  kind: MetricKind, margin: float,
                  neg_mode: NegMode = NegMode.SAME_ROLE) -> MinedTriplets:
    """Mine hardest negatives and evaluate the hinge loss for every pair."""
    neg = hardest_negatives(anchors, positives, kind, neg_mode)
    d_pos = paired_distances(anchors, positives, kind)
    return MinedTriplets(d_pos=d_pos, d_neg=neg.d_neg, source=neg.source,
                         j=neg.j, loss=triplet_loss(d_pos, neg.d_neg, margin))


def loss_grads(anchors: np.ndarray, positives: np.ndarray,
               mined: MinedTriplets, kind: MetricKind,
               weights: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """Descriptor-space gradients of sum_i w_i * loss_i.

    Each active pair contributes 2 d_pos * grad(d_pos) through its own
    anchor and positive, and -2 d_neg * grad(d_neg) through the two
    descriptors forming its mined negative distance. Inactive hinges (and
    the exact hinge boundary) contribute the zero subgradient. A descriptor
    receives its terms in pair order, and within a pair in the order
    anchor, positive, pair-i side and pair-j side of the negative.
    """
    A = np.atleast_2d(np.asarray(anchors, dtype=np.float64))
    P = np.atleast_2d(np.asarray(positives, dtype=np.float64))
    n = A.shape[0]
    w = np.ones(n) if weights is None else np.asarray(weights, np.float64)
    if w.shape != (n,):
        raise ValueError(f"weights shape {w.shape} does not match batch size {n}")
    j = np.asarray(mined.j)
    stale = (j < 0) | (j >= n) | (j == np.arange(len(j)))
    if len(mined) != n or np.any(stale):
        bad = int(np.argmax(stale)) if np.any(stale) else len(j)
        raise ValueError(f"mined triplets have stale indices (pair {bad} of "
                         f"{len(mined)}) for batch size {n}")
    # Rows 0..n-1 of X are the anchors, rows n..2n-1 the positives.
    X = np.vstack([A, P])
    act = np.flatnonzero(mined.loss > 0.0)
    j = j[act]
    code = mined.source[act]
    first = act + n * _FIRST_IS_POSITIVE[code]
    second = j + n * _SECOND_IS_POSITIVE[code]
    ga, gb, _ = paired_distance_grads(X[np.concatenate([act, first])],
                                      X[np.concatenate([act + n, second])],
                                      kind)
    m = len(act)
    pos = (w[act] * 2.0 * mined.d_pos[act])[:, None]
    neg = (w[act] * 2.0 * mined.d_neg[act])[:, None]
    terms = np.stack([pos * ga[:m], pos * gb[:m],
                      -(neg * ga[m:]), -(neg * gb[m:])], axis=1)
    rows = np.stack([act, act + n, first, second], axis=1)
    grads = np.zeros_like(X)
    # unbuffered, in index order: each row sums its terms as the
    # per-triplet loop would
    np.add.at(grads, rows.ravel(), terms.reshape(-1, X.shape[1]))
    return grads[:n], grads[n:]
