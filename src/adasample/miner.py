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

Mining takes exact distances only where the hardest negative can be. Each
side's keys come from ``metricspace._keys``, lower for nearer. Pair i's
candidates are the opposing pairs j whose key, the lesser of the two
sides', is within that kernel's ``tol`` of row i's least key; only there
are both sides' exact distances taken (``_paired``, or the arccos of the
negated angular keys, the clipped products), and the first minimum wins as
above. The ``metricspace`` docstring says why ``tol`` keeps every exact
tie among the candidates.

Rows are checked once, where they enter: :func:`hardest_negatives` (and
:func:`mine_triplets` through it) checks that its descriptor rows are
unit-norm and then runs the unchecked ``metricspace`` kernels. The mined
triplets carry the rows they were measured on, and :func:`loss_grads`
differentiates those rows, so it checks nothing again and cannot be handed
another batch's rows. Triplets mined against ``opposing`` pairs record
so, and :func:`loss_grads` rejects them: their ``j`` indexes the opposing
set, not the batch.

A batch's arrays may carry leading axes: (S, n, D) descriptors are S
batches, one per lockstep training cell, mined and differentiated in one
call. Every batch gets the values its own call gives, bit for bit.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .metricspace import (MetricKind, _keys, _paired, _paired_grads,
                          _unit_rows)


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
_TWICE = np.array([2.0, -2.0])
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
    """The mined triplets of a batch as arrays; entry i belongs to pair i,
    whose anchor and positive are rows i of ``anchors`` and ``positives``,
    the float64 rows they were mined from. Indexing gives the
    :class:`MinedTriplet` of one pair. ``opposed`` is true when they were
    mined against ``opposing`` pairs, whose set ``j`` then indexes.

    The arrays of stacked batches have shape (S, n) (rows (S, n, D));
    ``len`` then counts all S * n triplets, and indexing runs over them
    batch after batch."""

    d_pos: np.ndarray
    d_neg: np.ndarray
    source: np.ndarray
    j: np.ndarray
    loss: np.ndarray
    anchors: np.ndarray
    positives: np.ndarray
    opposed: bool = False

    def __len__(self) -> int:
        return self.loss.size

    def __getitem__(self, i: int) -> MinedTriplet:
        if not -len(self) <= i < len(self):
            raise IndexError(f"pair {i} out of range for {len(self)} pairs")
        i %= len(self)
        return MinedTriplet(pair_index=i % self.loss.shape[-1],
                            d_pos=float(self.d_pos.flat[i]),
                            d_neg=float(self.d_neg.flat[i]),
                            neg_source=NEG_SOURCES[self.source.flat[i]],
                            neg_pair_index=int(self.j.flat[i]),
                            loss=float(self.loss.flat[i]))

    def __iter__(self):
        return (self[i] for i in range(len(self)))


def hardest_negatives(anchors: np.ndarray, positives: np.ndarray,
                      kind: MetricKind,
                      neg_mode: NegMode = NegMode.SAME_ROLE,
                      opposing: tuple | None = None) -> Negatives:
    """Per query pair i, the hardest negative against the opposing pairs
    ``opposing = (anchors, positives, own)``, skipping opposing pair
    ``own[i]``. The default opposes the batch to itself with own[i] = i;
    stacked (S, n, D) batches are each opposed to themselves.

    The candidates of pair i are the distances on side 0 (its anchor) and
    side 1 (its positive) to each opposing pair j. The hardest is the
    first minimum in (j, side) order: lowest j wins, and within a j side 0
    wins. The module docstring says how it is found.
    """
    if opposing is None:
        A, P = _unit_rows(anchors, positives, names=_ROW_NAMES)
        OA, OP, own = A, P, np.arange(A.shape[-2])
    else:
        A, P, OA, OP = _unit_rows(anchors, positives, *opposing[:2],
                                  names=_ROW_NAMES)
        own = opposing[2]
    n = A.shape[-2]
    if P.shape[:-1] != A.shape[:-1]:
        raise ValueError(f"anchor/positive counts differ: {n} vs "
                         f"{P.shape[-2]}")
    if OA.shape[:-1] != OP.shape[:-1] or np.shape(own) != (n,):
        raise ValueError(f"opposing pairs do not match {n} query pairs")
    if OA.shape[-2] < 2:
        raise ValueError(f"need at least 2 pairs to mine negatives, "
                         f"got {OA.shape[-2]}")
    if neg_mode is NegMode.SAME_ROLE:
        sides, first_code = ((A, OA), (P, OP)), 0
    else:
        sides, first_code = ((A, OP), (P, OA)), 2
    (first, tol), (second, _) = (_keys(X, Y, kind) for X, Y in sides)
    key = np.minimum(first, second)
    key[..., np.arange(n), own] = np.inf
    m, D = key.shape[-1], A.shape[-1]
    key = key.reshape(-1, m)
    flat = np.flatnonzero(key <= key.min(axis=1)[:, None] + tol)
    r, j = divmod(flat, m)
    if kind is MetricKind.EUCLIDEAN:
        exact = [_paired(X.reshape(-1, D)[r], Y.reshape(-1, D)[r // n * m + j],
                         kind) for X, Y in sides]
    else:
        exact = [np.arccos(-K.ravel()[flat]) for K in (first, second)]
    d = np.minimum(*exact)
    # The first candidate of each row at the row's least exact distance;
    # candidates come in (row, j) order, one or more per row.
    if len(r) > len(key):
        pick = np.lexsort((j, d, r))[np.flatnonzero(np.diff(r, prepend=-1))]
        d, j, exact = d[pick], j[pick], [e[pick] for e in exact]
    shape = A.shape[:-1]
    return Negatives(d.reshape(shape),
                     (first_code + (exact[1] < exact[0])).reshape(shape),
                     j.reshape(shape))


def triplet_loss(d_pos, d_neg, margin: float) -> np.ndarray:
    """Element-wise max(margin + d_pos^2 - d_neg^2, 0)."""
    d_pos = np.asarray(d_pos, dtype=np.float64)
    d_neg = np.asarray(d_neg, dtype=np.float64)
    if not (np.isfinite(d_pos).all() and np.isfinite(d_neg).all()
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
    A, P = (np.atleast_2d(np.asarray(X, dtype=np.float64))
            for X in (anchors, positives))
    neg = hardest_negatives(A, P, kind, neg_mode, opposing)
    d_pos = _paired(A, P, kind)
    return MinedTriplets(d_pos=d_pos, d_neg=neg.d_neg, source=neg.source,
                         j=neg.j, loss=triplet_loss(d_pos, neg.d_neg, margin),
                         anchors=A, positives=P, opposed=opposing is not None)


def _triplet_grads(X: np.ndarray, own: np.ndarray, other: np.ndarray,
                   source: np.ndarray, j: np.ndarray, d_pos: np.ndarray,
                   d_neg: np.ndarray, kind: MetricKind,
                   weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows of X and weighted hinge gradients of mined triplets.

    ``own[t]`` holds the rows of triplet t's anchor and positive,
    ``other[j]`` those of opposing pair j; triplet t's hardest negative has
    source code ``source[t]`` against opposing pair ``j[t]``, and its
    distances are ``d_pos[t]`` and ``d_neg[t]``. Returns ``rows`` (T, 4):
    the anchor, the positive, and the pair-t and pair-j sides of the mined
    negative; and ``terms`` (T, 4, D), the gradient of weights[t] * loss_t
    through each row: 2 d_pos * grad(d_pos) and -2 d_neg * grad(d_neg).
    Every hinge is taken as active; callers drop or zero the others.
    """
    T, D = len(own), X.shape[-1]
    rows = np.empty((T, 4), dtype=own.dtype)
    rows[:, :2] = own
    rows[:, 2] = own[np.arange(T), source % 2]
    rows[:, 3] = other[j, _SECOND_IS_POSITIVE[source]]
    # Triplet t differentiates two distances, side 0 between its rows 0
    # and 1 and side 1 between its rows 2 and 3; (T, side, row of the pair).
    pairs = X[rows].reshape(T, 2, 2, D)
    ga, gb, _ = _paired_grads(pairs[:, :, 0], pairs[:, :, 1], kind)
    # w 2 d_pos on side 0 and -(w 2 d_neg) on side 1, negated exactly
    scale = (np.array([d_pos, d_neg]).T * (weights[:, None] * _TWICE))[
        :, :, None]
    terms = np.empty(pairs.shape)
    np.multiply(scale, ga, out=terms[:, :, 0])
    np.multiply(scale, gb, out=terms[:, :, 1])
    return rows, terms.reshape(T, 4, D)


def loss_grads(mined: MinedTriplets, kind: MetricKind,
               weights: np.ndarray) -> np.ndarray:
    """Gradients of sum_i w_i * loss_i with respect to the rows ``mined``
    was mined from, against its own batch, in the batch's row order: the
    n anchors, then the n positives. Triplets mined against ``opposing``
    pairs raise ``ValueError``.

    Each active pair contributes the ``_triplet_grads`` terms. Inactive
    hinges (and the exact hinge boundary) contribute the zero subgradient.
    A descriptor receives its terms in pair order, and within a pair in the
    order anchor, positive, pair-i side and pair-j side of the negative.
    Stacked (S, n, D) batches, with (S, n) mined arrays and weights, give
    (S, 2n, D) gradients, each batch's as its own call gives them.
    """
    if mined.opposed:
        raise ValueError("loss_grads differentiates triplets mined against "
                         "their own batch, not against opposing pairs")
    A, P = mined.anchors, mined.positives
    n, D = A.shape[-2:]
    w = np.asarray(weights, np.float64)
    if w.shape != A.shape[:-1]:
        raise ValueError(f"weights shape {w.shape} does not match batch size {n}")
    # Batch s owns rows 2ns..2ns+n-1 of X for its anchors and the next n
    # for its positives; its pair i is pair sn + i of the stack.
    X = np.concatenate([A.reshape(-1, n, D), P.reshape(-1, n, D)],
                       axis=1).reshape(-1, D)
    pairs = np.arange(len(X)).reshape(-1, 2, n).swapaxes(1, 2).reshape(-1, 2)
    act = np.flatnonzero(mined.loss > 0.0)
    rows, terms = _triplet_grads(
        X, pairs[act], pairs, mined.source.ravel()[act],
        act - act % n + mined.j.ravel()[act], mined.d_pos.ravel()[act],
        mined.d_neg.ravel()[act], kind, w.ravel()[act])
    # One scatter over the flat indices row * D + column. bincount adds each
    # entry's terms in index order, starting from 0.0, as the per-triplet
    # loop (and np.add.at) would.
    flat = (rows.reshape(-1, 1) * D + np.arange(D)).ravel()
    return np.bincount(flat, weights=terms.ravel(), minlength=X.size
                       ).reshape(A.shape[:-2] + (2 * n, D))
