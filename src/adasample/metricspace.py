"""Distance functions on the unit hypersphere and their gradients.

Descriptors are unit-norm vectors. Two metrics are supported:

* ``euclidean``: d(a, b) = ||a - b||_2, range [0, 2] on the sphere.
* ``angular``:   d(a, b) = arccos(a . b), the geodesic distance, range [0, pi].

The angular dot product is clamped to [-(1 - eps), 1 - eps] before arccos
and before the gradient chain factor -1/sqrt(1 - s^2), because matching
descriptors frequently nearly coincide early in training; callers are told
via a ``saturated`` flag instead of receiving NaNs.
"""

from __future__ import annotations

import enum
from typing import NamedTuple, Sequence

import numpy as np

UNIT_NORM_TOL = 1e-3
ANGULAR_CLAMP_EPS = 1e-9


class MetricKind(enum.Enum):
    EUCLIDEAN = "euclidean"
    ANGULAR = "angular"

    @classmethod
    def parse(cls, name: str) -> "MetricKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown metric kind {name!r}; expected one of "
                             f"{[m.value for m in cls]}") from None


class DistanceGrads(NamedTuple):
    grad_a: np.ndarray
    grad_b: np.ndarray
    saturated: bool


def _check_unit(v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
    if abs(norm - 1.0) > UNIT_NORM_TOL:
        raise ValueError(f"{name} is not unit-norm: ||{name}|| = {norm:.6g}")
    return v


def distance(a: np.ndarray, b: np.ndarray, kind: MetricKind) -> float:
    """Distance between two unit-norm descriptors under ``kind``."""
    a = _check_unit(a, "a")
    b = _check_unit(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if kind is MetricKind.EUCLIDEAN:
        return float(np.linalg.norm(a - b))
    s = float(np.clip(np.dot(a, b), -1.0, 1.0))
    return float(np.arccos(s))


def distance_grad(a: np.ndarray, b: np.ndarray, kind: MetricKind) -> DistanceGrads:
    """Gradients of ``distance(a, b, kind)`` with respect to each argument.

    Euclidean: grad_a = (a - b)/d. At d = 0 the distance is not
    differentiable; the zero subgradient is returned with ``saturated=True``.

    Angular: grad_a = -b / sqrt(1 - s^2) with s = a . b. When |s| exceeds
    1 - 1e-9 the gradient is evaluated at the clamped point and flagged.
    """
    a = _check_unit(a, "a")
    b = _check_unit(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if kind is MetricKind.EUCLIDEAN:
        diff = a - b
        d = float(np.linalg.norm(diff))
        if d < 1e-12:
            zero = np.zeros_like(a)
            return DistanceGrads(zero, zero.copy(), True)
        return DistanceGrads(diff / d, -diff / d, False)
    s = float(np.dot(a, b))
    limit = 1.0 - ANGULAR_CLAMP_EPS
    saturated = abs(s) >= limit
    s = float(np.clip(s, -limit, limit))
    factor = -1.0 / np.sqrt(1.0 - s * s)
    return DistanceGrads(factor * b, factor * a, saturated)


def _unit_rows(batch_a, batch_b) -> tuple[np.ndarray, np.ndarray]:
    """Both batches as 2-D float64 arrays of unit-norm rows of equal width."""
    A = np.atleast_2d(np.asarray(batch_a, dtype=np.float64))
    B = np.atleast_2d(np.asarray(batch_b, dtype=np.float64))
    if A.shape[1] != B.shape[1]:
        raise ValueError(f"dimension mismatch: {A.shape[1]} vs {B.shape[1]}")
    for M, name in ((A, "batch_a"), (B, "batch_b")):
        norms = np.linalg.norm(M, axis=1)
        if np.any(np.abs(norms - 1.0) > UNIT_NORM_TOL):
            bad = int(np.argmax(np.abs(norms - 1.0)))
            raise ValueError(f"{name}[{bad}] is not unit-norm "
                             f"(norm {norms[bad]:.6g})")
    return A, B


def pairwise_distances(batch_a: Sequence[np.ndarray] | np.ndarray,
                       batch_b: Sequence[np.ndarray] | np.ndarray,
                       kind: MetricKind,
                       chunk_rows: int = 256) -> np.ndarray:
    """Matrix with entry (i, j) = distance(a_i, b_j, kind).

    Rows are processed in chunks so the (n, m, D) difference tensor used by
    the euclidean branch stays bounded.
    """
    A, B = _unit_rows(batch_a, batch_b)
    out = np.empty((A.shape[0], B.shape[0]), dtype=np.float64)
    for start in range(0, A.shape[0], chunk_rows):
        stop = min(start + chunk_rows, A.shape[0])
        if kind is MetricKind.EUCLIDEAN:
            diff = A[start:stop, None, :] - B[None, :, :]
            out[start:stop] = np.linalg.norm(diff, axis=2)
        else:
            gram = np.clip(A[start:stop] @ B.T, -1.0, 1.0)
            out[start:stop] = np.arccos(gram)
    return out


def paired_distances(batch_a: Sequence[np.ndarray] | np.ndarray,
                     batch_b: Sequence[np.ndarray] | np.ndarray,
                     kind: MetricKind) -> np.ndarray:
    """Vector with entry i = distance(a_i, b_i, kind)."""
    A, B = _unit_rows(batch_a, batch_b)
    if A.shape[0] != B.shape[0]:
        raise ValueError(f"row counts differ: {A.shape[0]} vs {B.shape[0]}")
    if kind is MetricKind.EUCLIDEAN:
        return np.linalg.norm(A - B, axis=1)
    return np.arccos(np.clip(np.sum(A * B, axis=1), -1.0, 1.0))
