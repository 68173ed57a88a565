"""Central finite differences over every weight entry: the gradient oracle
for the network's backward pass."""

from typing import Callable

import numpy as np

from adasample.errors import NumericError
from adasample.tensornet import GradEstimate, ModelParams


def finite_diff_grad(params: ModelParams,
                     loss_closure: Callable[[ModelParams], float],
                     eps: float = 1e-6) -> GradEstimate:
    """Central finite differences of a scalar loss over every weight entry."""
    if eps <= 0:
        raise ValueError(f"eps must be positive, got {eps}")
    grads = GradEstimate.zeros_like(params)
    work = params.copy()
    for l, w in enumerate(work.layers):
        flat = w.ravel()
        gflat = grads.layers[l].ravel()
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
