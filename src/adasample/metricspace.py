"""Distance functions on the unit hypersphere and their gradients.

Descriptors are unit-norm vectors. Two metrics are supported:

* ``euclidean``: d(a, b) = ||a - b||_2, range [0, 2] on the sphere.
* ``angular``:   d(a, b) = arccos(a . b), the geodesic distance, range [0, pi].

The angular dot product is clamped to [-(1 - eps), 1 - eps] before arccos
and before the gradient chain factor -1/sqrt(1 - s^2), because matching
descriptors frequently nearly coincide early in training; callers are told
via a ``saturated`` flag instead of receiving NaNs.

Rows are checked for unit norm once, where a caller's rows enter: each
public function checks its inputs and runs one private kernel, which
checks nothing. Code that holds rows known to be unit-norm (the network's
output, or rows a public entry point has already checked) calls the
kernels directly. The kernels and the row check also take a stack of
batches, with leading axes before the (rows, D) ones: the lockstep trainer
runs one call for the batches of all its cells, and every entry equals,
bit for bit, that of the call on its own batch.

Mining and retrieval order distances without computing most of them.
:func:`_keys` gives each pair of rows a key, lower for nearer, from one
matrix product: the squared-distance estimate |x|^2 - 2 x.y + |y|^2
(euclidean), or minus the product clipped to [-1, 1] (angular). A caller
takes exact distances only where two keys lie within ``tol = 64 (D + 4)
eps`` of each other, or of an exact squared distance; farther apart, the
keys order the exact distances as they are.

Why ``tol`` is enough. Euclidean, with u = eps / 2 and R = 1 +
UNIT_NORM_TOL the largest row norm: a dot of D terms errs by at most
about D u |x||y| <= D u R^2 in any summation order (Cauchy-Schwarz), as
does a squared norm, so a key errs by about (4D + 7) u R^2 from the true
squared distance, and an exact distance d (``_euclidean_norms``) has a
square within 4 (D + 4) u R^2 of it. Both bounds below are under a
seventh of ``tol``, which also covers the rounding of ``at +- tol``:

* Key against key (mining): each key lies within delta = (8D + 23) u R^2
  of the square of its pair's exact distance, so a pair at most as far as
  another has a key at most 2 delta = (8D + 23) eps R^2 above the other's.
* Key against ``at = fl(d_r * d_r)``, the square of a pair's exact
  distance d_r (retrieval), which errs by at most 4 u R^2: a pair at
  least as far as d_r has a key above at - (8D + 27) u R^2, and a pair at
  most as far one below at + (8D + 27) u R^2.

Angular, where ``at`` is the pair's own key: arccos has slope at most -1,
so with arccos within 4 ulps (<= 8 eps on [0, pi]) a clipped product over
16 eps below another is strictly farther; 16 eps is under a twentieth of
``tol``.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Sequence

import numpy as np

UNIT_NORM_TOL = 1e-3
ANGULAR_CLAMP_EPS = 1e-9
_BLOCK_ENTRIES = 1 << 16    # float64 euclidean differences (512 KB)
_EPS = np.finfo(np.float64).eps


class MetricKind(enum.Enum):
    EUCLIDEAN = "euclidean"
    ANGULAR = "angular"


class DistanceGrads(NamedTuple):
    grad_a: np.ndarray
    grad_b: np.ndarray
    saturated: bool | np.ndarray


def distance_grad(a: np.ndarray, b: np.ndarray, kind: MetricKind) -> DistanceGrads:
    """Gradients of the distance between unit-norm vectors a and b under
    ``kind`` with respect to each: the one-row case of :func:`_paired_grads`,
    kept for the benchmark's trace."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.ndim != 1 or b.ndim != 1:
        raise ValueError(f"a and b must be 1-D vectors, got shapes "
                         f"{a.shape} and {b.shape}")
    grad_a, grad_b, saturated = _paired_grads(*_unit_rows(a[None], b[None]),
                                              kind)
    return DistanceGrads(grad_a[0], grad_b[0], bool(saturated[0]))


def _row_dots(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Entry (..., i) = X[..., i, :] . Y[..., i, :]. One (1, D) @ (D, 1)
    product per row runs the same BLAS dot as ``np.dot`` on the pair of 1-D
    rows, so each entry equals it bit for bit (``np.sum(X * Y, axis=1)``
    sums in another order)."""
    return (X[..., None, :] @ Y[..., :, None])[..., 0, 0]


def _paired_grads(A: np.ndarray, B: np.ndarray,
                  kind: MetricKind) -> DistanceGrads:
    """Row (..., i) holds the gradients of ``distance(A[..., i, :],
    B[..., i, :], kind)`` with respect to each row; ``saturated`` is a
    boolean array.

    Euclidean: grad_a = (a - b)/d. At d = 0 the distance is not
    differentiable; the zero subgradient is returned with ``saturated``.

    Angular: grad_a = -b / sqrt(1 - s^2) with s = a . b. When |s| exceeds
    1 - 1e-9 the gradient is evaluated at the clamped point and flagged.
    """
    if kind is MetricKind.EUCLIDEAN:
        diff = A - B
        # sqrt of the dot, as 1-D np.linalg.norm computes it
        d = np.sqrt(_row_dots(diff, diff))
        saturated = d < 1e-12
        d = np.where(saturated, 1.0, d)[..., None]
        keep = ~saturated[..., None]
        return DistanceGrads(np.where(keep, diff / d, 0.0),
                             np.where(keep, -diff / d, 0.0), saturated)
    s = _row_dots(A, B)
    limit = 1.0 - ANGULAR_CLAMP_EPS
    saturated = np.abs(s) >= limit
    s = np.clip(s, -limit, limit)
    factor = (-1.0 / np.sqrt(1.0 - s * s))[..., None]
    return DistanceGrads(factor * B, factor * A, saturated)


def _unit_rows(*batches, names: Sequence[str] = ("batch_a", "batch_b")
               ) -> tuple[np.ndarray, ...]:
    """The batches as 2-D float64 arrays of unit-norm rows of equal width;
    a failure names the batch (from ``names``) and the row."""
    out = tuple(np.atleast_2d(np.asarray(b, dtype=np.float64))
                for b in batches)
    widths = {M.shape[-1] for M in out}
    if len(widths) > 1:
        raise ValueError(f"dimension mismatch: "
                         f"{' vs '.join(str(M.shape[-1]) for M in out)}")
    for M, name in zip(out, names):
        norms = np.sqrt(np.add.reduce(M * M, axis=-1))
        if not (np.abs(norms - 1.0) <= UNIT_NORM_TOL).all():  # NaN fails
            bad = np.unravel_index(np.argmax(np.abs(norms - 1.0)),
                                   norms.shape)
            raise ValueError(f"{name}[{', '.join(map(str, bad))}] is not "
                             f"unit-norm (norm {norms[bad]:.6g})")
    return out


def _euclidean_norms(X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(X - Y, axis=-1)`` of X and Y broadcast together, bit
    for bit (each entry still sums its own D squares), in leading-axis blocks
    of at most ``_BLOCK_ENTRIES`` differences squared in place."""
    X, Y = np.broadcast_arrays(X, Y)
    out = np.empty(X.shape[:-1])
    step = max(1, _BLOCK_ENTRIES // max(1, int(np.prod(X.shape[1:]))))
    for start in range(0, len(out), step):
        diff = X[start:start + step] - Y[start:start + step]
        np.multiply(diff, diff, out=diff)
        np.sqrt(np.add.reduce(diff, axis=-1), out=out[start:start + step])
    return out


def _keys(X: np.ndarray, Y: np.ndarray,
          kind: MetricKind) -> tuple[np.ndarray, float]:
    """Keys (..., i, j) of rows X[..., i, :] and Y[..., j, :], lower for
    nearer, formed in place of the product ``X @ Y.swapaxes(-1, -2)`` (the
    one :func:`pairwise_distances` forms), and the bound ``tol`` of the
    module docstring. An angular key negates the clipped product, so
    ``np.arccos(-key)`` is the distance, bit for bit."""
    key = X @ Y.swapaxes(-1, -2)
    if kind is MetricKind.EUCLIDEAN:
        key *= -2.0
        key += np.einsum("...d,...d->...", X, X)[..., :, None]
        key += np.einsum("...d,...d->...", Y, Y)[..., None, :]
    else:
        np.negative(np.clip(key, -1.0, 1.0, out=key), out=key)
    return key, 64 * (X.shape[-1] + 4) * _EPS


def pairwise_distances(batch_a: Sequence[np.ndarray] | np.ndarray,
                       batch_b: Sequence[np.ndarray] | np.ndarray,
                       kind: MetricKind) -> np.ndarray:
    """Matrix with entry (i, j) = distance(a_i, b_j, kind).

    No command calls it: mining and retrieval rank from :func:`_keys`. It
    stays as the tests' oracle for both, and because the benchmark's
    layer trace names it."""
    A, B = _unit_rows(batch_a, batch_b)
    if kind is MetricKind.EUCLIDEAN:
        return _euclidean_norms(A[..., :, None, :], B[..., None, :, :])
    return np.arccos(np.clip(A @ B.swapaxes(-1, -2), -1.0, 1.0))


def _paired(A: np.ndarray, B: np.ndarray, kind: MetricKind) -> np.ndarray:
    """Entry (..., i) = distance(A[..., i, :], B[..., i, :], kind)."""
    if kind is MetricKind.EUCLIDEAN:
        return _euclidean_norms(A, B)
    return np.arccos(np.clip(np.add.reduce(A * B, axis=-1), -1.0, 1.0))


def _count_groups(counts: np.ndarray) -> list[tuple[int, np.ndarray]]:
    """(m, counts == m) for each distinct value m of ``counts`` (integers
    >= 0), ascending."""
    return [(m, counts == m) for m in np.flatnonzero(np.bincount(counts))]


def _candidates(A: np.ndarray, X: np.ndarray, counts: np.ndarray,
                kind: MetricKind) -> np.ndarray:
    """Matrix with entry (i, c) = distance(X[i, c], A[i], kind) for
    c < counts[i]; the pad columns c >= counts[i] hold 0.

    Row i equals, bit for bit, ``pairwise_distances(X[i, :counts[i]],
    A[i:i + 1], kind)[:, 0]``. BLAS orders the sums of a matrix-vector
    product by its row count, so the angular dot products run as one
    batched product per distinct count.
    """
    n, K = X.shape[:2]
    if kind is MetricKind.EUCLIDEAN:
        return np.where(np.arange(K) < counts[:, None],
                        _euclidean_norms(X, A[:, None, :]), 0.0)
    out = np.zeros((n, K))
    for m, rows in _count_groups(counts):
        dots = (X[rows, :m] @ A[rows, :, None])[:, :, 0]
        out[rows, :m] = np.arccos(np.clip(dots, -1.0, 1.0, out=dots),
                                  out=dots)
    return out
