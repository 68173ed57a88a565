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

The opposing pairs may be another set than the batch: the informativeness
probe mines each candidate against fixed anchors and contexts. Training and
the probe both differentiate the loss through ``_triplet_grads``.

Each public function checks once that its descriptor rows are unit-norm
(:func:`mine_triplets` through :func:`hardest_negatives`) and then runs
the unchecked ``metricspace`` kernels.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from .metricspace import MetricKind, _paired, _paired_grads, _pairwise, \
    _unit_rows


class NegSource(enum.Enum):
    ANCHOR_VS_ANCHOR = "anchor_vs_anchor"
    POSITIVE_VS_POSITIVE = "positive_vs_positive"
    ANCHOR_VS_POSITIVE = "anchor_vs_positive"
    POSITIVE_VS_ANCHOR = "positive_vs_anchor"


# Source codes index NEG_SOURCES. The descriptor of pair i that forms the
# negative distance is a positive when ``source % 2``; whether the one of
# opposing pair j is:
NEG_SOURCES = tuple(NegSource)
_SECOND_IS_POSITIVE = np.array([0, 1, 1, 0])
_ROW_NAMES = ("anchors", "positives", "opposing anchors",
              "opposing positives")


class NegMode(enum.Enum):
    SAME_ROLE = "same_role"
    CROSS_ROLE = "cross_role"


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


def hardest_negatives(anchors: np.ndarray, positives: np.ndarray,
                      kind: MetricKind,
                      neg_mode: NegMode = NegMode.SAME_ROLE,
                      opposing: tuple | None = None) -> Negatives:
    """Per query pair i, the hardest negative against the opposing pairs
    ``opposing = (anchors, positives, own)``, skipping opposing pair
    ``own[i]``. The default opposes the batch to itself with own[i] = i.

    The candidates of pair i are the distances on side 0 (its anchor) and
    side 1 (its positive) to each opposing pair j. Scanning the flattened
    (j, side) candidates makes the tie-break exact: lowest j wins, and
    within a j side 0 wins.
    """
    if opposing is None:
        A, P = _unit_rows(anchors, positives, names=_ROW_NAMES)
        OA, OP, own = A, P, np.arange(A.shape[0])
    else:
        A, P, OA, OP = _unit_rows(anchors, positives, *opposing[:2],
                                  names=_ROW_NAMES)
        own = opposing[2]
    n = A.shape[0]
    if P.shape[0] != n:
        raise ValueError(f"anchor/positive counts differ: {n} vs {P.shape[0]}")
    if OA.shape[0] != OP.shape[0] or np.shape(own) != (n,):
        raise ValueError(f"opposing pairs do not match {n} query pairs")
    if OA.shape[0] < 2:
        raise ValueError(f"need at least 2 pairs to mine negatives, "
                         f"got {OA.shape[0]}")
    if neg_mode is NegMode.SAME_ROLE:
        D_first = _pairwise(A, OA, kind)
        D_second = _pairwise(P, OP, kind)
        first_code = 0
    else:
        D_first = _pairwise(A, OP, kind)
        D_second = _pairwise(P, OA, kind)
        first_code = 2
    C = np.stack([D_first, D_second], axis=2)
    idx = np.arange(n)
    C[idx, own, :] = np.inf
    flat = C.reshape(n, -1)
    best = np.argmin(flat, axis=1)
    j, side = np.divmod(best, 2)
    return Negatives(flat[idx, best], first_code + side, j)


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
                  neg_mode: NegMode = NegMode.SAME_ROLE,
                  opposing: tuple | None = None) -> MinedTriplets:
    """Mine hardest negatives (against ``opposing``, as
    :func:`hardest_negatives`, which checks the rows) and evaluate the
    hinge loss for every pair."""
    neg = hardest_negatives(anchors, positives, kind, neg_mode, opposing)
    d_pos = _paired(np.atleast_2d(np.asarray(anchors, dtype=np.float64)),
                    np.atleast_2d(np.asarray(positives, dtype=np.float64)),
                    kind)
    return MinedTriplets(d_pos=d_pos, d_neg=neg.d_neg, source=neg.source,
                         j=neg.j, loss=triplet_loss(d_pos, neg.d_neg, margin))


def _triplet_grads(X: np.ndarray, own: np.ndarray, other: np.ndarray,
                   mined: MinedTriplets, kind: MetricKind,
                   weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of X and weighted hinge gradients of each mined triplet.

    ``own[t]`` holds the rows of triplet t's anchor and positive,
    ``other[j]`` those of opposing pair j. Returns ``rows`` (T, 4): the
    anchor, the positive, and the pair-t and pair-j sides of the mined
    negative; and ``terms`` (T, 4, D), the gradient of weights[t] * loss_t
    through each row: 2 d_pos * grad(d_pos) and -2 d_neg * grad(d_neg).
    Every hinge is taken as active; callers drop or zero the others.
    """
    T = len(own)
    rows = np.stack([own[:, 0], own[:, 1],
                     own[np.arange(T), mined.source % 2],
                     other[mined.j, _SECOND_IS_POSITIVE[mined.source]]],
                    axis=1)
    ga, gb, _ = _paired_grads(
        X[np.concatenate([rows[:, 0], rows[:, 2]])],
        X[np.concatenate([rows[:, 1], rows[:, 3]])], kind)
    pos = (weights * 2.0 * mined.d_pos)[:, None]
    neg = (weights * 2.0 * mined.d_neg)[:, None]
    terms = np.stack([pos * ga[:T], pos * gb[:T],
                      -(neg * ga[T:]), -(neg * gb[T:])], axis=1)
    return rows, terms


def loss_grads(anchors: np.ndarray, positives: np.ndarray,
               mined: MinedTriplets, kind: MetricKind,
               weights: np.ndarray | None = None
               ) -> tuple[np.ndarray, np.ndarray]:
    """Descriptor-space gradients of sum_i w_i * loss_i.

    Each active pair contributes the ``_triplet_grads`` terms. Inactive
    hinges (and the exact hinge boundary) contribute the zero subgradient.
    A descriptor receives its terms in pair order, and within a pair in the
    order anchor, positive, pair-i side and pair-j side of the negative.
    """
    A, P = _unit_rows(anchors, positives, names=_ROW_NAMES)
    n = A.shape[0]
    if P.shape[0] != n:
        raise ValueError(f"anchor/positive counts differ: {n} vs {P.shape[0]}")
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
    active = MinedTriplets(*(np.asarray(getattr(mined, f.name))[act]
                             for f in fields(MinedTriplets)))
    pairs = np.arange(n)[:, None] + [0, n]
    rows, terms = _triplet_grads(X, pairs[act], pairs, active, kind, w[act])
    # One scatter over the flat indices row * D + column. bincount adds each
    # entry's terms in index order, starting from 0.0, as the per-triplet
    # loop (and np.add.at) would.
    D = X.shape[1]
    flat = (rows.reshape(-1, 1) * D + np.arange(D)).ravel()
    grads = np.bincount(flat, weights=terms.ravel(),
                        minlength=X.size).reshape(X.shape)
    return grads[:n], grads[n:]
