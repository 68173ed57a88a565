"""One pair at a time with ``np.dot`` and 1-D ``np.linalg.norm``: the
scalar distance and distance-gradient oracles for the batched kernels of
``adasample.metricspace``. The distances agree with them to about 1e-12,
not bit for bit; the gradients agree bit for bit."""

import numpy as np

from adasample.metricspace import ANGULAR_CLAMP_EPS, UNIT_NORM_TOL, MetricKind


def check_unit(v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    if v.ndim != 1:
        raise ValueError(f"{name} must be a 1-D vector, got shape {v.shape}")
    norm = float(np.linalg.norm(v))
    if not abs(norm - 1.0) <= UNIT_NORM_TOL:        # NaN fails too
        raise ValueError(f"{name} is not unit-norm: ||{name}|| = {norm:.6g}")
    return v


def distance(a: np.ndarray, b: np.ndarray, kind: MetricKind) -> float:
    """Distance between two unit-norm descriptors under ``kind``."""
    a = check_unit(a, "a")
    b = check_unit(b, "b")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    if kind is MetricKind.EUCLIDEAN:
        return float(np.linalg.norm(a - b))
    return float(np.arccos(np.clip(np.dot(a, b), -1.0, 1.0)))


def scalar_distance_grad(a, b, kind):
    """One pair at a time with np.dot and 1-D np.linalg.norm: the oracle
    for the row-wise kernel ``_paired_grads`` and its one-row case
    ``distance_grad``."""
    if kind is MetricKind.EUCLIDEAN:
        diff = a - b
        d = float(np.linalg.norm(diff))
        if d < 1e-12:
            return np.zeros_like(a), np.zeros_like(a), True
        return diff / d, -diff / d, False
    s = float(np.dot(a, b))
    limit = 1.0 - ANGULAR_CLAMP_EPS
    saturated = abs(s) >= limit
    s = float(np.clip(s, -limit, limit))
    factor = -1.0 / np.sqrt(1.0 - s * s)
    return factor * b, factor * a, saturated
