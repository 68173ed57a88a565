"""Adaptive positive sampling, unbiased re-weighting, and variance oracles.

Positive candidates are drawn with probability proportional to a power of
their descriptor distance from the anchor, p_i = d_i^e / sum_j d_j^e, and
the drawn sample is re-weighted by w_i proportional to 1/d_i so the
estimator stays unbiased. The exponent e = lambda / L_avg grows as the
moving-average loss shrinks, so sampling hardens as training progresses;
e = 0 is plain uniform sampling and a capped exponent degenerates into
always picking the most distant candidate.

The module also carries the estimator-level machinery that the adaptive
rule approximates: the variance-optimal sampling distribution
p_i = L_i^(a-1) ||g_i|| / Z under the constraint p_i w_i = (a/K) L_i^(a-1),
the trace of the estimator covariance, and the expected one-step reduction
of the squared distance to a parameter optimum. These are exact and are
exercised against exhaustive-expectation oracles in the tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateDistributionError

DISTANCE_FLOOR = 1e-6


@dataclass(frozen=True)
class SamplerConfig:
    """Knobs for the adaptive exponent e = lambda / L_avg."""

    lambda_: float = 10.0
    ema_decay: float = 0.99
    exponent_cap: float = 50.0
    loss_floor: float = 1e-4

    def validate(self) -> None:
        # lambda = inf is allowed: it pins the exponent at the cap, the
        # always-pick-the-farthest-positive limit.
        if np.isnan(self.lambda_) or self.lambda_ < 0:
            raise ValueError(f"lambda must be >= 0, got {self.lambda_}")
        if not 0.0 < self.ema_decay < 1.0:
            raise ValueError(f"ema_decay must be in (0, 1), got {self.ema_decay}")
        # NaN fails the comparisons; inf fails the upper bounds
        if not 0 < self.exponent_cap < np.inf:
            raise ValueError(f"exponent_cap must be finite and > 0, "
                             f"got {self.exponent_cap}")
        if not 0 < self.loss_floor < np.inf:
            raise ValueError(f"loss_floor must be finite and > 0, "
                             f"got {self.loss_floor}")


class Reweights(NamedTuple):
    weights: np.ndarray
    clamped: int    # batches holding a distance at or below the floor


def update_loss_avg(l_avg: float | None, batch_mean_loss: float,
                    config: SamplerConfig) -> float:
    """Exponential moving average of batch mean losses; ``l_avg`` is None
    before the first observation, which becomes the average directly."""
    if not np.isfinite(batch_mean_loss) or batch_mean_loss < 0:
        raise ValueError(f"batch mean loss must be finite and >= 0, "
                         f"got {batch_mean_loss}")
    if l_avg is None:
        return float(batch_mean_loss)
    beta = config.ema_decay
    return beta * l_avg + (1.0 - beta) * batch_mean_loss


def adaptive_exponent(l_avg: float | None, config: SamplerConfig) -> float:
    """min(lambda / max(L_avg, loss_floor), exponent_cap), and 0 (uniform
    sampling) before any loss is observed."""
    if l_avg is None:
        return 0.0
    return float(min(config.lambda_ / max(l_avg, config.loss_floor),
                     config.exponent_cap))


def _real_columns(values: np.ndarray, counts
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``values`` as a 2-D float64 array (a 1-D vector is the one-row case),
    the number of real leading columns of each row (all columns when
    ``counts`` is None) and the mask of those columns."""
    v = np.asarray(values, dtype=np.float64)
    if v.ndim not in (1, 2) or v.size == 0:
        raise ValueError("expected a nonempty 1-D vector or 2-D matrix")
    v = np.atleast_2d(v)
    n, K = v.shape
    counts = np.full(n, K) if counts is None else np.asarray(counts)
    if counts.shape != (n,) or (counts < 1).any() or (counts > K).any():
        raise ValueError(f"counts must be {n} values in [1, {K}]")
    return v, counts, np.arange(K) < counts[:, None]


def positive_probs(distances: np.ndarray, exponent: float | np.ndarray, *,
                   counts: np.ndarray | None = None) -> np.ndarray:
    """Row-wise p_i = d_i^e / sum_j d_j^e over the candidate positives.

    Row r of a 2-D ``distances`` holds its ``counts[r]`` candidates first;
    the pad columns after them are ignored and get probability 0. A 1-D
    vector is the one-row case and gives a 1-D result. ``exponent`` is one
    value for every row or a vector of one per row. (numpy raises to a
    scalar power of 2 or 0.5 with ``square`` or ``sqrt``, whose last bit
    may differ from that of the same power given per row.)

    Distances are rescaled by their row maximum before exponentiation so
    that large exponents cannot overflow or underflow the normalization. An
    all-zero row (exact duplicates) and e = 0 both fall back to the uniform
    distribution.
    """
    d, counts, real = _real_columns(distances, counts)
    d = np.where(real, d, 0.0)
    if not np.isfinite(d).all():
        raise ValueError("distances must be finite")
    if (d < 0).any():
        raise ValueError("distances must be nonnegative")
    e = np.asarray(exponent, dtype=np.float64)
    if e.shape not in ((), (len(d),)):
        raise ValueError(f"need one exponent or one per row, got shape "
                         f"{e.shape} for {len(d)} rows")
    if (e < 0).any():
        raise ValueError(f"exponent must be >= 0, got {exponent}")
    d_max = d.max(axis=1)
    uniform = (d_max == 0.0) | (e == 0.0)
    # pad columns stay 0 on the rows that are not uniform, where e > 0
    scaled = (d / np.where(uniform, 1.0, d_max)[:, None]) \
        ** (e[:, None] if e.ndim else exponent)
    # numpy's pairwise summation groups terms by the length it is given, so
    # each row is summed over exactly its real columns, one length at a time
    total = np.empty(len(d))
    for m in np.unique(counts):
        rows = counts == m
        total[rows] = scaled[rows, :m].sum(axis=1)
    probs = np.where(uniform[:, None], real / counts[:, None],
                     scaled / np.where(uniform, 1.0, total)[:, None])
    return probs if np.ndim(distances) == 2 else probs[0]


def reweights(distances: np.ndarray) -> Reweights:
    """Inverse-distance weights normalized to batch mean 1, for a batch or
    for each row of a matrix of batches.

    Distances at or below ``DISTANCE_FLOOR`` are clamped to the floor;
    ``clamped`` counts the batches that held one.
    """
    d = np.asarray(distances, dtype=np.float64)
    if d.ndim not in (1, 2) or d.size == 0:
        raise ValueError("distances must be a nonempty 1-D vector or 2-D "
                         "matrix")
    if not np.isfinite(d).all():
        raise ValueError("distances must be finite")
    if (d < 0).any():
        raise ValueError("distances must be nonnegative")
    clamped = np.count_nonzero((d <= DISTANCE_FLOOR).any(axis=-1))
    inv = 1.0 / np.maximum(d, DISTANCE_FLOOR)
    return Reweights(inv / inv.mean(axis=-1, keepdims=True), clamped)


def categorical_sample(probs: np.ndarray, uniforms: float | np.ndarray, *,
                       counts: np.ndarray | None = None) -> int | np.ndarray:
    """Row-wise inverse-CDF draw from probability vectors.

    Row r uses the pre-drawn uniform ``uniforms[r]`` in [0, 1) against the
    cumulative sum of its first ``counts[r]`` entries (pad columns after
    them are ignored). Ties in the CDF (zero-mass entries) resolve to the
    lowest index carrying mass; a uniform at or above the row's last CDF
    value picks its last real column. A 1-D ``probs`` with a scalar uniform
    is the one-row case and returns an int.
    """
    p, counts, real = _real_columns(probs, counts)
    p = np.where(real, p, 0.0)
    u = np.asarray(uniforms, dtype=np.float64).reshape(-1)
    if u.shape != (len(p),):
        raise ValueError(f"need one uniform per row, got {u.size} for "
                         f"{len(p)} rows")
    if (p < 0).any():
        raise ValueError("probabilities must be nonnegative")
    total = p.sum(axis=1)
    if (np.abs(total - 1.0) > 1e-9).any():
        bad = int(np.argmax(np.abs(total - 1.0)))
        raise ValueError(f"probabilities must sum to 1, got {total[bad]!r} "
                         f"in row {bad}")
    cdf = np.cumsum(p, axis=1)
    # searchsorted(cdf, u, side="right") on each nondecreasing row
    idx = np.minimum((cdf <= u[:, None]).sum(axis=1), counts - 1)
    return idx if np.ndim(probs) == 2 else int(idx[0])


def optimal_probs(losses: np.ndarray, grad_norms: np.ndarray,
                  alpha: float) -> np.ndarray:
    """Variance-minimizing sampling distribution p_i = L_i^(a-1) ||g_i|| / Z."""
    L = np.asarray(losses, dtype=np.float64)
    g = np.asarray(grad_norms, dtype=np.float64)
    if L.shape != g.shape or L.ndim != 1 or L.size == 0:
        raise ValueError("losses and grad_norms must be equal-length vectors")
    if np.any(L <= 0):
        raise ValueError("losses must be positive")
    if np.any(g < 0):
        raise ValueError("grad norms must be nonnegative")
    if alpha < 1:
        raise ValueError(f"alpha must be >= 1, got {alpha}")
    mass = L ** (alpha - 1.0) * g
    Z = float(mass.sum())
    if Z == 0.0:
        raise DegenerateDistributionError(
            "all loss^(alpha-1) * grad_norm products are zero")
    return mass / Z


def unbiased_weights(probs: np.ndarray, losses: np.ndarray, alpha: float,
                     K: int) -> np.ndarray:
    """Weights enforcing p_i w_i = (alpha/K) L_i^(alpha-1).

    With these weights the sampled, re-weighted gradient is an unbiased
    estimator of the gradient of (1/K) sum_i L_i^alpha.
    """
    p = np.asarray(probs, dtype=np.float64)
    L = np.asarray(losses, dtype=np.float64)
    if p.shape != L.shape or p.ndim != 1:
        raise ValueError("probs and losses must be equal-length vectors")
    if K <= 0:
        raise ValueError(f"K must be positive, got {K}")
    target = (alpha / K) * L ** (alpha - 1.0)
    positive = p > 0.0
    if not positive.all():
        bad = (p == 0.0) & (target != 0.0)
        if bad.any():
            raise ZeroDivisionError(
                f"zero probability at index {int(np.argmax(bad))} with "
                f"nonzero target product")
    return np.divide(target, p, out=np.zeros_like(target), where=positive)


def trace_variance(probs: np.ndarray, weights: np.ndarray,
                   grads: Sequence) -> float:
    """tr Var[G] = sum_i p_i w_i^2 ||g_i||^2 - ||sum_i p_i w_i g_i||^2.

    ``grads`` holds flat gradient vectors, each the concatenation of a
    :func:`~adasample.tensornet.backward` result's raveled layers.
    """
    p = np.asarray(probs, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    flat = [np.asarray(g, dtype=np.float64) for g in grads]
    if not (p.shape == w.shape and p.ndim == 1 and p.size == len(flat)):
        raise ValueError("probs, weights and grads must have matching lengths")
    shapes = {g.shape for g in flat}
    if len(shapes) != 1 or flat[0].ndim != 1:
        raise ValueError(f"grads must be flat vectors of one size, got "
                         f"shapes {sorted(shapes)}")
    # np.array stacks the equal-size rows as np.stack does, at a fraction
    # of its per-call cost
    G = np.array(flat)
    pw = p * w
    second_moment = float((pw * w * (G * G).sum(axis=1)).sum())
    mu = pw @ G
    return second_moment - float(mu @ mu)


def expected_rectification(theta: np.ndarray, theta_star: np.ndarray,
                           eta: float, probs: np.ndarray,
                           weights: np.ndarray, grads: Sequence) -> float:
    """Expected reduction of ||theta - theta*||^2 after one sampled step.

    Evaluates 2 eta (theta - theta*)^T mu - eta^2 ||mu||^2 - eta^2 tr Var[G]
    with mu = sum_i p_i w_i g_i.
    """
    th = np.asarray(theta, dtype=np.float64).ravel()
    ts = np.asarray(theta_star, dtype=np.float64).ravel()
    if th.shape != ts.shape:
        raise ValueError(f"theta shape {th.shape} != theta_star shape {ts.shape}")
    if eta <= 0:
        raise ValueError(f"eta must be positive, got {eta}")
    p = np.asarray(probs, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    flat = [np.asarray(g, dtype=np.float64) for g in grads]
    if any(g.shape != th.shape for g in flat):
        raise ValueError("gradient vectors must match theta's shape")
    G = np.stack(flat)
    mu = (p * w) @ G
    tvar = trace_variance(p, w, flat)
    return (2.0 * eta * float((th - ts) @ mu)
            - eta * eta * float(mu @ mu)
            - eta * eta * tvar)
