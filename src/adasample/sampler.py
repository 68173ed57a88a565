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

from dataclasses import dataclass, replace
from typing import NamedTuple, Sequence

import numpy as np

from .errors import DegenerateDistributionError, StateError
from .tensornet import GradEstimate

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
        if self.exponent_cap <= 0:
            raise ValueError(f"exponent_cap must be > 0, got {self.exponent_cap}")
        if self.loss_floor <= 0:
            raise ValueError(f"loss_floor must be > 0, got {self.loss_floor}")


@dataclass(frozen=True)
class LossTracker:
    """Exponential moving average of batch mean losses."""

    l_avg: float = 0.0
    initialized: bool = False


class Reweights(NamedTuple):
    weights: np.ndarray
    clamped: bool


def update_loss_avg(tracker: LossTracker, batch_mean_loss: float,
                    config: SamplerConfig) -> LossTracker:
    """EMA update; the first observation initializes the average directly."""
    if not np.isfinite(batch_mean_loss) or batch_mean_loss < 0:
        raise ValueError(f"batch mean loss must be finite and >= 0, "
                         f"got {batch_mean_loss}")
    if not tracker.initialized:
        return LossTracker(l_avg=float(batch_mean_loss), initialized=True)
    beta = config.ema_decay
    return replace(tracker,
                   l_avg=beta * tracker.l_avg + (1.0 - beta) * batch_mean_loss)


def adaptive_exponent(tracker: LossTracker, config: SamplerConfig) -> float:
    """min(lambda / max(L_avg, loss_floor), exponent_cap)."""
    if not tracker.initialized:
        raise StateError("loss tracker has no observations yet")
    return float(min(config.lambda_ / max(tracker.l_avg, config.loss_floor),
                     config.exponent_cap))


def positive_probs(distances: np.ndarray, exponent: float) -> np.ndarray:
    """p_i = d_i^e / sum_j d_j^e over the candidate positives.

    Distances are rescaled by their maximum before exponentiation so that
    large exponents cannot overflow or underflow the normalization. An
    all-zero distance vector (exact duplicates) and e = 0 both fall back to
    the uniform distribution.
    """
    d = np.asarray(distances, dtype=np.float64)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("distances must be a nonempty 1-D vector")
    if not np.all(np.isfinite(d)):
        raise ValueError("distances must be finite")
    if np.any(d < 0):
        raise ValueError("distances must be nonnegative")
    if exponent < 0:
        raise ValueError(f"exponent must be >= 0, got {exponent}")
    d_max = float(d.max())
    if exponent == 0.0 or d_max == 0.0:
        return np.full(d.size, 1.0 / d.size)
    scaled = (d / d_max) ** exponent
    return scaled / scaled.sum()


def reweights(distances: np.ndarray) -> Reweights:
    """Inverse-distance weights normalized to batch mean 1.

    Distances at or below ``DISTANCE_FLOOR`` are clamped to the floor and
    the result is flagged.
    """
    d = np.asarray(distances, dtype=np.float64)
    if d.ndim != 1 or d.size == 0:
        raise ValueError("distances must be a nonempty 1-D vector")
    if not np.all(np.isfinite(d)):
        raise ValueError("distances must be finite")
    if np.any(d < 0):
        raise ValueError("distances must be nonnegative")
    clamped = bool(np.any(d <= DISTANCE_FLOOR))
    inv = 1.0 / np.maximum(d, DISTANCE_FLOOR)
    return Reweights(inv / inv.mean(), clamped)


def categorical_sample(probs: np.ndarray, rng: np.random.Generator) -> int:
    """Draw an index from a probability vector.

    Uses a single uniform draw against the CDF; ties in the CDF (zero-mass
    entries) resolve to the lowest index carrying mass.
    """
    p = np.asarray(probs, dtype=np.float64)
    if p.ndim != 1 or p.size == 0:
        raise ValueError("probs must be a nonempty 1-D vector")
    if np.any(p < 0):
        raise ValueError("probabilities must be nonnegative")
    total = float(p.sum())
    if abs(total - 1.0) > 1e-9:
        raise ValueError(f"probabilities must sum to 1, got {total!r}")
    u = rng.random()
    cdf = np.cumsum(p)
    idx = int(np.searchsorted(cdf, u, side="right"))
    return min(idx, p.size - 1)


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
    bad = (p == 0.0) & (target != 0.0)
    if np.any(bad):
        raise ZeroDivisionError(
            f"zero probability at index {int(np.argmax(bad))} with nonzero "
            f"target product")
    with np.errstate(invalid="ignore", divide="ignore"):
        w = np.where(p > 0.0, target / np.where(p > 0.0, p, 1.0), 0.0)
    return w


def _as_flat(grad) -> np.ndarray:
    if isinstance(grad, GradEstimate):
        return grad.flatten()
    return np.asarray(grad, dtype=np.float64).ravel()


def trace_variance(probs: np.ndarray, weights: np.ndarray,
                   grads: Sequence) -> float:
    """tr Var[G] = sum_i p_i w_i^2 ||g_i||^2 - ||sum_i p_i w_i g_i||^2.

    ``grads`` may hold flat vectors or :class:`GradEstimate` objects.
    """
    p = np.asarray(probs, dtype=np.float64)
    w = np.asarray(weights, dtype=np.float64)
    flat = [_as_flat(g) for g in grads]
    if not (p.shape == w.shape and p.ndim == 1 and p.size == len(flat)):
        raise ValueError("probs, weights and grads must have matching lengths")
    dims = {g.size for g in flat}
    if len(dims) != 1:
        raise ValueError(f"gradient vectors have mismatched sizes {dims}")
    G = np.stack(flat)
    second_moment = float(np.sum(p * w * w * np.sum(G * G, axis=1)))
    mu = (p * w) @ G
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
    flat = [_as_flat(g) for g in grads]
    if any(g.shape != th.shape for g in flat):
        raise ValueError("gradient vectors must match theta's shape")
    G = np.stack(flat)
    mu = (p * w) @ G
    tvar = trace_variance(p, w, flat)
    return (2.0 * eta * float((th - ts) @ mu)
            - eta * eta * float(mu @ mu)
            - eta * eta * tvar)
