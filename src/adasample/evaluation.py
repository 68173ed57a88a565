"""Verification metrics, the informativeness diagnostic, and rank testing.

* FPR at fixed recall over matching/non-matching distance samples.
* Retrieval mean average precision, distance ties broken by gallery index.
* A probe that compares, per class, the positive-sampling probabilities
  induced by descriptor distance against the ones induced by the true
  per-sample full-parameter gradient norm of the mined triplet loss, and
  reports their Pearson correlation.
* A one-sided Mann-Whitney U test (alternative: sample a is stochastically
  smaller than sample b), exact with ties for small pooled sizes and a
  tie-corrected normal approximation otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .data import ClassGroup, Dataset, as_dataset
from .errors import DatasetError, UndefinedCorrelationError
from .metricspace import MetricKind, pairwise_distances
from .miner import NegMode, _triplet_grads, mine_triplets
from .tensornet import ModelParams, forward, group_grad_norms

EXACT_MW_LIMIT = 20


@dataclass
class EvalReport:
    fpr95: float
    retrieval_map: float

    def to_kv_text(self) -> str:
        return (f"fpr95 = {self.fpr95:.6f}\n"
                f"retrieval_map = {self.retrieval_map:.6f}\n")

    def csv_row(self) -> dict:
        return {"fpr95": self.fpr95, "retrieval_map": self.retrieval_map}


def fpr_at_recall(pos_distances: np.ndarray, neg_distances: np.ndarray,
                  recall: float = 0.95) -> float:
    """False positive rate at the smallest threshold reaching the recall.

    The threshold is the smallest observed positive distance t such that
    the fraction of positives with distance <= t is at least ``recall``;
    the return value is the fraction of negatives <= t.
    """
    pos = np.asarray(pos_distances, dtype=np.float64)
    neg = np.asarray(neg_distances, dtype=np.float64)
    if pos.size == 0 or neg.size == 0:
        raise ValueError("both distance samples must be nonempty")
    if not 0.0 < recall <= 1.0:
        raise ValueError(f"recall must be in (0, 1], got {recall}")
    pos_sorted = np.sort(pos)
    need = int(np.ceil(recall * pos.size))
    threshold = pos_sorted[need - 1]
    return float(np.mean(neg <= threshold))


class RetrievalResult(NamedTuple):
    mean_ap: float
    num_queries: int
    num_excluded: int


def retrieval_map(query_descs: np.ndarray, query_labels: Sequence[int],
                  gallery_descs: np.ndarray, gallery_labels: Sequence[int],
                  kind: MetricKind) -> RetrievalResult:
    """Mean average precision of distance-ranked galleries.

    A query ranks gallery item r at 1 + #{g : d_g < d_r} + #{g < r : d_g =
    d_r}: by distance, ties broken by gallery index. Queries without any
    gallery match are excluded from the mean and counted in the result.
    """
    Q = np.atleast_2d(np.asarray(query_descs, dtype=np.float64))
    G = np.atleast_2d(np.asarray(gallery_descs, dtype=np.float64))
    ql = np.asarray(query_labels)
    gl = np.asarray(gallery_labels)
    if Q.shape[0] != ql.size or G.shape[0] != gl.size:
        raise ValueError("descriptor/label counts do not match")
    if Q.shape[0] == 0 or G.shape[0] == 0:
        raise ValueError("queries and gallery must be nonempty")
    dists = pairwise_distances(Q, G, kind)
    n = G.shape[0]
    query, item = np.divmod(np.flatnonzero(gl == ql[:, None]), n)
    d = dists[query, item]
    # Complex numbers order lexicographically, so the (query, distance) keys
    # of the sorted rows form one sorted vector to search for every match.
    keys = 1j * np.sort(dists, axis=1)
    keys.real = np.arange(Q.shape[0])[:, None]
    below, through = (np.searchsorted(keys.ravel(), query + 1j * d, side)
                      - query * n for side in ("left", "right"))
    tied = np.flatnonzero(through - below > 1)
    ranks = below + 1
    ranks[tied] += np.sum((dists[query[tied]] == d[tied, None])
                          & (np.arange(n) < item[tied, None]), axis=1)
    matched = np.unique(query, return_counts=True)[1]
    aps = np.empty(matched.size)
    for m in np.unique(matched):
        of_m = matched == m
        # each mean sums m values, as np.mean of one query's vector does
        ranked = np.sort(ranks[np.repeat(of_m, matched)].reshape(-1, m))
        aps[of_m] = np.mean(np.arange(1, m + 1) / ranked, axis=1)
    mean_ap = float(np.mean(aps)) if aps.size else float("nan")
    return RetrievalResult(mean_ap, matched.size, Q.shape[0] - matched.size)


def pearson(x: np.ndarray, y: np.ndarray) -> float:
    """Sample Pearson correlation coefficient."""
    xv = np.asarray(x, dtype=np.float64)
    yv = np.asarray(y, dtype=np.float64)
    if xv.shape != yv.shape or xv.ndim != 1 or xv.size < 2:
        raise ValueError("inputs must be equal-length vectors of size >= 2")
    xc = xv - xv.mean()
    yc = yv - yv.mean()
    sx = float(np.sqrt(xc @ xc))
    sy = float(np.sqrt(yc @ yc))
    if sx == 0.0 or sy == 0.0:
        raise UndefinedCorrelationError("an input has zero variance")
    return float((xc @ yc) / (sx * sy))


class InfoProbeResult(NamedTuple):
    p_dist: np.ndarray
    p_info: np.ndarray
    pearson: float
    degenerate: bool


def _relative_spread(v: np.ndarray) -> float:
    scale = float(np.abs(v).max())
    return float(v.std() / scale) if scale > 0 else 0.0


def info_correlation_probe(dataset: Dataset | list[ClassGroup],
                           params: ModelParams,
                           kind: MetricKind, rng: np.random.Generator,
                           sample_classes: int = 32, margin: float = 1.0,
                           neg_mode: NegMode = NegMode.SAME_ROLE,
                           pair_term_only: bool = False) -> InfoProbeResult:
    """Compare distance-induced and gradient-norm-induced probabilities.

    Per sampled class, one anchor is fixed and every remaining patch plays
    the positive of a mined triplet against context pairs from the other
    sampled classes. Candidate probabilities are formed within the class
    (a) from descriptor distances and (b) from the exact full-parameter
    gradient norms of the loss; the pooled vectors and their Pearson
    correlation are returned.

    With ``pair_term_only`` the loss is just the squared matching distance,
    the regime where the gradient norm is provably close to proportional to
    the distance itself.

    A probe without usable spread in either vector (identical views, a
    network that maps every candidate to the same point, all hinges
    inactive) is flagged degenerate instead of raising.

    Every patch of the sampled classes runs through the network once, from
    the input rows the dataset holds (see :class:`~adasample.data.Dataset`).
    The network is row-wise, so a candidate's batch differs from the others
    only in its own positive row: its triplet is mined alone against the
    fixed anchors and contexts, and its loss gradient touches at most three
    rows (its anchor, itself and the other-pair side of the negative),
    whose summed gradient norm comes from per-layer Gram matrices.
    """
    inputs = as_dataset(dataset).inputs
    all_sizes = np.diff(inputs.offsets)
    usable = np.flatnonzero(all_sizes >= 2)
    if usable.size < 2:
        raise DatasetError("probe needs at least 2 classes with k >= 2")
    m = min(sample_classes, usable.size)
    picked = usable[rng.choice(usable.size, size=m, replace=False)]
    sizes = all_sizes[picked]
    # Array bounds draw as the per-class scalar calls rng.integers(k) would.
    anchor = rng.integers(0, sizes)
    # the context is drawn among the k - 1 patches other than the anchor
    context = rng.integers(0, sizes - 1)
    context += context >= anchor

    # Row offsets into the one forward pass over every picked patch.
    first_row = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    anchor_row = first_row + anchor
    context_row = first_row + context
    # Candidates in class order; candidate c of a class is its patch
    # c + (c >= anchor).
    counts = sizes - 1
    slot = np.repeat(np.arange(m), counts)
    first_cand = np.concatenate([[0], np.cumsum(counts)[:-1]])
    cand = np.arange(slot.size) - first_cand[slot]
    cand_row = first_row[slot] + cand + (cand >= anchor[slot])

    # the held rows of the picked classes, class after class
    gather = np.repeat(inputs.offsets[picked] - first_row, sizes) \
        + np.arange(sizes.sum())
    descs, cache = forward(params, inputs.rows[gather])
    own = np.stack([anchor_row[slot], cand_row], axis=1)
    other = np.stack([anchor_row, context_row], axis=1)
    mined = mine_triplets(descs[own[:, 0]], descs[own[:, 1]], kind, margin,
                          neg_mode, opposing=(descs[anchor_row],
                                              descs[context_row], slot))
    # mine_triplets has checked these rows
    rows, terms = _triplet_grads(descs, own, other, mined, kind,
                                 np.ones(slot.size))
    if pair_term_only:
        rows, terms = rows[:, :2], terms[:, :2]
    else:
        # The scored pair's side of the negative is its anchor or the
        # candidate: fold its term into that row's.
        terms[np.arange(slot.size), mined.source % 2] += terms[:, 2]
        rows, terms = rows[:, [0, 1, 3]], terms[:, [0, 1, 3]]
        # inactive hinges (and the exact boundary) score 0
        terms[mined.loss <= 0.0] = 0.0
    infos = group_grad_norms(params, cache.take(rows.ravel()),
                             terms.reshape(-1, descs.shape[1]),
                             rows.shape[1])

    dists = mined.d_pos
    d_sum = np.repeat(np.add.reduceat(dists, first_cand), counts)
    i_sum = np.repeat(np.add.reduceat(infos, first_cand), counts)
    p_dist = np.divide(dists, d_sum, where=d_sum > 0,
                       out=1.0 / np.repeat(counts, counts))
    p_info = np.divide(infos, i_sum, where=i_sum > 0,
                       out=np.zeros(infos.size))
    # Spread below ~1e-6 of the magnitude is floating-point residue, not an
    # ordering signal (identical views still differ in the last few ulps).
    if _relative_spread(p_dist) < 1e-6 or _relative_spread(p_info) < 1e-6:
        return InfoProbeResult(p_dist, p_info, float("nan"), True)
    # both spreads are positive, so pearson cannot see a zero variance
    return InfoProbeResult(p_dist, p_info, pearson(p_dist, p_info), False)


class MannWhitneyResult(NamedTuple):
    u: float
    p_value: float
    exact: bool


def mann_whitney_u(sample_a: np.ndarray,
                   sample_b: np.ndarray) -> MannWhitneyResult:
    """One-sided test that sample_a is stochastically smaller than sample_b.

    U counts pairs where a exceeds b (ties count one half), so small U
    supports the alternative. Exact distribution for pooled size <= 20,
    ties included, tie-corrected normal approximation with continuity
    correction otherwise.

    Both branches read U from twice the 1-based mid-ranks of the pooled
    values, which are integers: 2U = sum of a's doubled ranks - n1(n1 + 1).
    The exact p is a subset count over those ranks (the shift algorithm of
    Streitberg & Roehmel 1986): ``counts[i, s]`` is the number of i-subsets
    of the pooled values whose doubled ranks sum to s.
    """
    a = np.asarray(sample_a, dtype=np.float64).ravel()
    b = np.asarray(sample_b, dtype=np.float64).ravel()
    if a.size == 0 or b.size == 0:
        raise ValueError("both samples must be nonempty")
    pooled = np.concatenate([a, b])
    if np.isnan(pooled).any():
        raise ValueError("a NaN has no rank")
    n1, n2 = a.size, b.size
    n = n1 + n2
    ordered = np.sort(pooled)
    below = np.searchsorted(ordered, pooled, "left")
    through = np.searchsorted(ordered, pooled, "right")
    ranks2 = below + through + 1
    rank_sum2 = int(ranks2[:n1].sum())
    u_obs = (rank_sum2 - n1 * (n1 + 1)) / 2
    if n <= EXACT_MW_LIMIT:
        counts = np.zeros((n1 + 1, n * (n + 1) + 1), dtype=np.int64)
        counts[0, 0] = 1
        for r in ranks2.tolist():
            counts[1:, r:] = counts[1:, r:] + counts[:-1, :-r]
        p = counts[n1, :rank_sum2 + 1].sum() / counts[n1].sum()
        return MannWhitneyResult(u_obs, float(p), True)
    mean = n1 * n2 / 2.0
    # a value tied t times contributes t(t^2 - 1), i.e. t^2 - 1 per copy
    ties = through - below
    tie_term = float(np.sum(ties * ties - 1)) / (n * (n - 1))
    var = n1 * n2 / 12.0 * ((n + 1) - tie_term)
    if var <= 0:
        return MannWhitneyResult(u_obs, 1.0, False)
    z = (u_obs - mean + 0.5) / np.sqrt(var)
    # imported here: scipy.special takes most of the package's import time
    from scipy.special import ndtr
    return MannWhitneyResult(u_obs, float(ndtr(z)), False)
