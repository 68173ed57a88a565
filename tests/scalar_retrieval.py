"""One stable ``argsort`` of the whole gallery row per query: the oracle for
``adasample.evaluation.retrieval_map``, which ranks only each query's
matches within sorted distance rows and agrees with this loop bit for bit."""

import numpy as np

from adasample.evaluation import RetrievalResult
from adasample.metricspace import pairwise_distances


def scalar_average_precision(dists, relevant):
    """Mean over the relevant items of (relevant items ranked so far) /
    rank, in the order of a stable argsort of one query's distances, so
    that ties go by gallery index."""
    order = np.argsort(dists, kind="stable")
    hits = relevant[order]
    ranks = np.nonzero(hits)[0] + 1
    return float(np.mean(np.cumsum(hits)[hits.nonzero()] / ranks))


def scalar_retrieval_map(query_descs, query_labels, gallery_descs,
                         gallery_labels, kind):
    ql = np.asarray(query_labels)
    gl = np.asarray(gallery_labels)
    dists = pairwise_distances(query_descs, gallery_descs, kind)
    aps = [scalar_average_precision(dists[qi], gl == ql[qi])
           for qi in range(ql.size) if np.any(gl == ql[qi])]
    mean_ap = float(np.mean(aps)) if aps else float("nan")
    return RetrievalResult(mean_ap, len(aps), ql.size - len(aps))
