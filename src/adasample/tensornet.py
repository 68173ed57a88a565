"""Minimal dense feed-forward network with manual forward/backward passes.

The model is a bias-free multi-layer perceptron: each layer multiplies by a
weight matrix, hidden layers apply a pointwise nonlinearity, and the final
affine output is projected onto the unit sphere. The backward pass applies
the exact normalization Jacobian (I - y y^T)/||z|| rather than treating the
projection as a constant, and returns the batch-summed gradient. The
norm of the summed gradient of each group of consecutive rows (of each
sample, for groups of one) comes from per-layer Gram matrices without
forming the group's gradient.
"""

from __future__ import annotations

import enum
import struct
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import ByteReader, DegenerateOutputError, FormatError, \
    NumericError

PARAMS_MAGIC = b"ADNW"
PARAMS_VERSION = 1


class Activation(enum.Enum):
    TANH = "tanh"
    RELU = "relu"


@dataclass
class ModelParams:
    """Ordered weight matrices; layers[l] has shape (M_{l+1}, M_l)."""

    layers: list[np.ndarray]
    activation: Activation = Activation.TANH

    def layer_dims(self) -> list[int]:
        return [self.layers[0].shape[1]] + [w.shape[0] for w in self.layers]

    def copy(self) -> "ModelParams":
        return ModelParams([w.copy() for w in self.layers], self.activation)

    def validate(self) -> None:
        if not self.layers:
            raise ValueError("model must have at least one layer")
        for l, w in enumerate(self.layers):
            if w.ndim != 2:
                raise ValueError(f"layer {l} is not a matrix: shape {w.shape}")
            if not np.all(np.isfinite(w)):
                raise ValueError(f"layer {l} contains non-finite entries")
            if l > 0 and w.shape[1] != self.layers[l - 1].shape[0]:
                raise ValueError(
                    f"layer shapes do not chain: layer {l} expects input "
                    f"dim {w.shape[1]} but layer {l - 1} outputs "
                    f"{self.layers[l - 1].shape[0]}")


@dataclass
class ForwardCache:
    """Per-layer intermediates recorded by :func:`forward` for one batch."""

    inputs: np.ndarray                      # (B, M_0)
    hidden: list[np.ndarray]                # activated outputs of layers 1..L-1
    output_norms: np.ndarray                # (B,)
    descriptors: np.ndarray                 # (B, M_L), unit rows

    @property
    def batch_size(self) -> int:
        return self.inputs.shape[0]

    def take(self, rows: np.ndarray) -> "ForwardCache":
        """The cache of the batch made of ``rows`` of this one; the network
        is row-wise, so no forward pass is needed."""
        return ForwardCache(inputs=self.inputs[rows],
                            hidden=[x[rows] for x in self.hidden],
                            output_norms=self.output_norms[rows],
                            descriptors=self.descriptors[rows])


@dataclass
class GradEstimate:
    """Per-layer gradient matrices, shape-matched to :class:`ModelParams`."""

    layers: list[np.ndarray] = field(default_factory=list)

    @classmethod
    def zeros_like(cls, params: ModelParams) -> "GradEstimate":
        return cls([np.zeros_like(w) for w in params.layers])

    def flatten(self) -> np.ndarray:
        return np.concatenate([g.ravel() for g in self.layers])

    def norm(self) -> float:
        return float(np.sqrt(sum(float(np.sum(g * g)) for g in self.layers)))


def init_params(layer_dims: Sequence[int], seed: int,
                activation: Activation = Activation.TANH) -> ModelParams:
    """Fan-in-scaled zero-mean normal initialization, deterministic per seed.

    Entries of layer l are drawn N(0, 2 / M_{l-1}).
    """
    dims = list(layer_dims)
    if len(dims) < 2:
        raise ValueError(f"need at least 2 layer dims, got {dims}")
    if any(int(d) <= 0 or int(d) != d for d in dims):
        raise ValueError(f"layer dims must be positive integers, got {dims}")
    rng = np.random.default_rng(seed)
    layers = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        std = np.sqrt(2.0 / fan_in)
        layers.append(rng.normal(0.0, std, size=(fan_out, fan_in)))
    params = ModelParams(layers, activation)
    params.validate()
    return params


def _activate(h: np.ndarray, activation: Activation) -> np.ndarray:
    if activation is Activation.TANH:
        return np.tanh(h)
    return np.maximum(h, 0.0)


def _activate_deriv_from_output(x: np.ndarray,
                                activation: Activation) -> np.ndarray:
    if activation is Activation.TANH:
        return 1.0 - x * x
    # x = max(h, 0) is positive exactly where h is (NaN in both is not)
    return (x > 0.0).astype(np.float64)


def forward(params: ModelParams,
            inputs: np.ndarray) -> tuple[np.ndarray, ForwardCache]:
    """Run the network on a batch of flattened patches.

    Returns unit-norm descriptors (one row per input row) and the cache
    needed by :func:`backward`.
    """
    X = np.atleast_2d(np.asarray(inputs, dtype=np.float64))
    first = params.layers[0]
    if X.shape[1] != first.shape[1]:
        raise ValueError(f"input dimension {X.shape[1]} does not match first "
                         f"layer fan-in {first.shape[1]}")
    hidden: list[np.ndarray] = []
    x = X
    for w in params.layers[:-1]:
        x = _activate(x @ w.T, params.activation)
        hidden.append(x)
    z = x @ params.layers[-1].T
    norms = np.linalg.norm(z, axis=1)
    if not np.all(np.isfinite(norms)):
        bad = int(np.argmin(np.isfinite(norms)))
        raise NumericError(
            f"pre-normalization output of sample {bad} is not finite")
    if np.any(norms < 1e-300):
        bad = int(np.argmin(norms))
        raise DegenerateOutputError(
            f"pre-normalization output of sample {bad} is zero")
    descriptors = z / norms[:, None]
    cache = ForwardCache(inputs=X, hidden=hidden, output_norms=norms,
                         descriptors=descriptors)
    return descriptors, cache


def _deltas(params: ModelParams, cache: ForwardCache, output_grads: np.ndarray):
    """Backpropagate dLoss/dDescriptor rows through the cached batch.

    Yields ``(l, delta, x_prev)`` from the top layer down: ``delta`` holds
    each row's gradient with respect to layer l's output (before its
    nonlinearity) and ``x_prev`` the row's input to layer l, so row r's
    gradient of layer l's weights is the outer product delta_r x_prev_r^T.
    """
    G = np.atleast_2d(np.asarray(output_grads, dtype=np.float64))
    if G.shape != cache.descriptors.shape:
        raise ValueError(f"output_grads shape {G.shape} does not match "
                         f"cached batch shape {cache.descriptors.shape}")
    y = cache.descriptors
    # Jacobian of z -> z/||z||:  (I - y y^T) / ||z||, applied row-wise.
    delta = (G - np.sum(G * y, axis=1, keepdims=True) * y)
    delta = delta / cache.output_norms[:, None]
    for l in range(len(params.layers) - 1, -1, -1):
        x_prev = cache.inputs if l == 0 else cache.hidden[l - 1]
        yield l, delta, x_prev
        if l > 0:
            dx = delta @ params.layers[l]
            deriv = _activate_deriv_from_output(cache.hidden[l - 1],
                                                params.activation)
            delta = dx * deriv


def _group_sq_norms(delta: np.ndarray, x_prev: np.ndarray,
                    group: int) -> np.ndarray:
    """Per group of ``group`` consecutive rows, the squared Frobenius norm
    of sum_r delta_r x_r^T, evaluated as sum_{r,s} (delta_r . delta_s)
    (x_r . x_s) and clamped at 0 (rounding can push an exact 0 below it).

    The dot products are element-wise products summed over the last axis,
    so a group of one row gives (delta . delta)(x . x) exactly as
    ``np.sum(delta * delta, axis=1) * np.sum(x * x, axis=1)``.
    """
    def gram(v: np.ndarray) -> np.ndarray:
        v = v.reshape(-1, group, 1, v.shape[1])
        return np.sum(v * v.swapaxes(1, 2), axis=3)

    return np.maximum(np.sum(gram(delta) * gram(x_prev), axis=(1, 2)), 0.0)


def backward(params: ModelParams, cache: ForwardCache,
             output_grads: np.ndarray) -> GradEstimate:
    """Reverse-mode pass from descriptor-space gradients to weight gradients.

    ``output_grads`` holds dLoss/dDescriptor per sample. Returns the
    gradient summed over the batch; the per-sample gradient norms are
    ``group_grad_norms(params, cache, output_grads, 1)``.
    """
    grads: list[np.ndarray] = [None] * len(params.layers)  # type: ignore
    for l, delta, x_prev in _deltas(params, cache, output_grads):
        grads[l] = delta.T @ x_prev
    return GradEstimate(grads)


def group_grad_norms(params: ModelParams, cache: ForwardCache,
                     output_grads: np.ndarray, group: int) -> np.ndarray:
    """Full-parameter gradient norm of each group of ``group`` consecutive
    rows: entry g is ``backward(...).norm()`` of rows g*group ..
    (g+1)*group - 1 alone, computed from per-layer Gram matrices without
    forming any weight gradient (Goodfellow 2015, arXiv:1510.01799).
    ``group = 1`` gives the per-sample gradient norms.
    """
    if group < 1 or cache.batch_size % group:
        raise ValueError(f"batch of {cache.batch_size} rows does not split "
                         f"into groups of {group}")
    sq_norms = np.zeros(cache.batch_size // group)
    for _, delta, x_prev in _deltas(params, cache, output_grads):
        sq_norms += _group_sq_norms(delta, x_prev, group)
    return np.sqrt(sq_norms)


def write_params(params: ModelParams, path) -> None:
    """Serialize weights: magic, version, layer count, dims, activation, then
    row-major float64 little-endian matrices."""
    params.validate()
    dims = params.layer_dims()
    act_code = 0 if params.activation is Activation.TANH else 1
    with open(path, "wb") as fh:
        fh.write(PARAMS_MAGIC)
        fh.write(struct.pack("<II", PARAMS_VERSION, len(params.layers)))
        fh.write(struct.pack(f"<{len(dims)}I", *dims))
        fh.write(struct.pack("<I", act_code))
        for w in params.layers:
            fh.write(np.ascontiguousarray(w, dtype="<f8").tobytes())


def read_params(path) -> ModelParams:
    with open(path, "rb") as fh:
        reader = ByteReader(fh.read())
    take = reader.take
    magic = take(4, "magic")
    if magic != PARAMS_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {PARAMS_MAGIC!r}", 0)
    version, layer_count = struct.unpack("<II", take(8, "header"))
    if version != PARAMS_VERSION:
        raise FormatError(f"unsupported version {version}", 4)
    if layer_count == 0:
        raise FormatError("layer count is zero", 8)
    dims = struct.unpack(f"<{layer_count + 1}I",
                         take(4 * (layer_count + 1), "dims"))
    if 0 in dims:
        raise FormatError(f"dimension {dims.index(0)} is zero",
                          12 + 4 * dims.index(0))
    (act_code,) = struct.unpack("<I", take(4, "activation"))
    if act_code not in (0, 1):
        raise FormatError(f"unknown activation code {act_code}",
                          reader.offset - 4)
    activation = Activation.TANH if act_code == 0 else Activation.RELU
    layers = []
    for l in range(layer_count):
        rows, cols = dims[l + 1], dims[l]
        raw = take(8 * rows * cols, f"layer {l} weights")
        layers.append(np.frombuffer(raw, dtype="<f8").reshape(rows, cols).copy())
    if reader.offset != len(reader.blob):
        raise FormatError("trailing bytes after weights", reader.offset)
    params = ModelParams(layers, activation)
    params.validate()
    return params
