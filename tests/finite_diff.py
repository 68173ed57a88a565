"""Central finite differences over every weight entry: the gradient oracle
for the network's backward pass, and the flat views of a per-layer
gradient that the tests compare."""

from typing import Callable

import numpy as np

from adasample.errors import NumericError
from adasample.tensornet import ModelParams


def flatten(grads: list[np.ndarray]) -> np.ndarray:
    """The per-layer gradient matrices raveled and concatenated."""
    return np.concatenate([g.ravel() for g in grads])


def norm(grads: list[np.ndarray]) -> float:
    """Euclidean norm of a per-layer gradient over every weight entry."""
    return float(np.sqrt(sum(float(np.sum(g * g)) for g in grads)))


def finite_diff_grad(params: ModelParams,
                     loss_closure: Callable[[ModelParams], float],
                     eps: float = 1e-6) -> list[np.ndarray]:
    """Central finite differences of a scalar loss over every weight entry,
    one matrix per layer as :func:`~adasample.tensornet.backward` returns."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    grads = [np.zeros_like(w) for w in params.layers]
    work = ModelParams([w.copy() for w in params.layers], params.activation)
    for l, w in enumerate(work.layers):
        flat = w.ravel()
        gflat = grads[l].ravel()
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + eps
            up = loss_closure(work)
            flat[idx] = orig - eps
            down = loss_closure(work)
            flat[idx] = orig
            if not (np.isfinite(up) and np.isfinite(down)):
                raise NumericError(
                    f"loss closure returned non-finite value near layer {l}, "
                    f"entry {idx}")
            gflat[idx] = (up - down) / (2.0 * eps)
    return grads
