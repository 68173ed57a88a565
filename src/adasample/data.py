"""Synthetic patch dataset generation, normalization into stacked input
rows, and on-disk format.

Each class is a smooth random texture prototype rendered at a canvas twice
the patch size; its k views are produced by small random similarity warps
(rotation, isotropic scale, subpixel shift) of that prototype plus additive
Gaussian noise and a brightness shift. Classes use independently derived
RNG substreams, so generation is deterministic per seed and parallelizable
per class.

Patches travel as float64 in memory and float32 on disk.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import ndimage

from .errors import DatasetError, FormatError

DATASET_MAGIC = b"ADSP"
DATASET_VERSION = 1


@dataclass
class Patch:
    pixels: np.ndarray          # (P, P) float64
    class_id: int
    patch_id: int

    @property
    def size(self) -> int:
        return self.pixels.shape[0]


@dataclass
class ClassGroup:
    class_id: int
    patches: list[Patch]

    def __len__(self) -> int:
        return len(self.patches)


@dataclass(frozen=True)
class DatasetSpec:
    num_classes: int = 200
    patches_per_class: int = 8
    patch_size: int = 16
    texture_octaves: int = 3
    warp_magnitude: float = 35.0    # max |rotation| of a view, in degrees
    noise_sigma: float = 0.14
    brightness_jitter: float = 0.2
    # Fraction of views rendered as unrelated textures, mimicking the bad
    # crops and mismatches real patch datasets contain.
    outlier_fraction: float = 0.02
    seed: int = 0

    def validate(self) -> None:
        if self.num_classes < 2:
            raise ValueError(f"need >= 2 classes, got {self.num_classes}")
        if self.patches_per_class < 2:
            raise ValueError(f"need >= 2 patches per class, "
                             f"got {self.patches_per_class}")
        if self.patch_size < 4:
            raise ValueError(f"patch size must be >= 4, got {self.patch_size}")
        if self.texture_octaves < 1:
            raise ValueError("texture_octaves must be >= 1")
        for name in ("warp_magnitude", "noise_sigma", "brightness_jitter"):
            value = getattr(self, name)
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"{name} = {value}; need a finite value >= 0")
        if not 0.0 <= self.outlier_fraction <= 1.0:
            raise ValueError("outlier_fraction must be in [0, 1]")


def _texture_prototype(canvas: int, octaves: int,
                       rng: np.random.Generator) -> np.ndarray:
    """Sum of band-limited noise layers, standardized to mean 0, std 1."""
    tex = np.zeros((canvas, canvas))
    for o in range(octaves):
        sigma = max(canvas / (2.0 ** (o + 2)), 0.6)
        layer = ndimage.gaussian_filter(rng.standard_normal((canvas, canvas)),
                                        sigma, mode="wrap")
        std = layer.std()
        if std > 0:
            tex += layer / std / (2.0 ** o)
    tex -= tex.mean()
    std = tex.std()
    return tex / std if std > 0 else tex


def _warp_crop(canvas_img: np.ndarray, patch_size: int, angle_deg: float,
               scale: float, shift: np.ndarray) -> np.ndarray:
    """Rotate/scale/shift about the canvas center, bilinear, reflect padding,
    then crop the central patch."""
    c = (np.asarray(canvas_img.shape) - 1) / 2.0
    theta = np.deg2rad(angle_deg)
    rot = np.array([[np.cos(theta), -np.sin(theta)],
                    [np.sin(theta), np.cos(theta)]]) / scale
    offset = c - rot @ (c + shift)
    warped = ndimage.affine_transform(canvas_img, rot, offset=offset,
                                      order=1, mode="reflect")
    lo = (canvas_img.shape[0] - patch_size) // 2
    return warped[lo:lo + patch_size, lo:lo + patch_size].copy()


def generate_synthetic(spec: DatasetSpec) -> list[ClassGroup]:
    """Build ``num_classes`` classes of ``patches_per_class`` warped views."""
    spec.validate()
    canvas = 2 * spec.patch_size
    root = np.random.SeedSequence(spec.seed)
    children = root.spawn(spec.num_classes)
    dataset = []
    for class_id in range(spec.num_classes):
        rng = np.random.default_rng(children[class_id])
        proto = _texture_prototype(canvas, spec.texture_octaves, rng)
        patches = []
        for patch_id in range(spec.patches_per_class):
            # Outlier views render an unrelated texture, standing in for the
            # wrong crops and mismatches real patch data contains. The first
            # view of a class is always clean.
            flag = rng.random() < spec.outlier_fraction
            outlier = patch_id > 0 and flag
            src = _texture_prototype(canvas, spec.texture_octaves, rng) \
                if outlier else proto
            angle = rng.uniform(-spec.warp_magnitude, spec.warp_magnitude)
            scale = float(np.exp(rng.uniform(-1.0, 1.0)
                                 * spec.warp_magnitude / 300.0))
            shift = rng.uniform(-1.0, 1.0, size=2) * spec.warp_magnitude / 15.0
            pix = _warp_crop(src, spec.patch_size, angle, scale, shift)
            pix += rng.normal(0.0, spec.noise_sigma, size=pix.shape)
            pix += rng.uniform(-spec.brightness_jitter, spec.brightness_jitter)
            patches.append(Patch(pix, class_id, patch_id))
        dataset.append(ClassGroup(class_id, patches))
    return dataset


def rotate_patch(pixels: np.ndarray, angle_deg: float) -> np.ndarray:
    """Continuous rotation about the patch center, bilinear, reflect padding."""
    return _warp_crop(pixels, pixels.shape[0], angle_deg, 1.0, np.zeros(2))


def generate_positives(class_group: ClassGroup, target_k: int,
                       rng: np.random.Generator,
                       rotation_range: float = 30.0) -> ClassGroup:
    """Grow a class to ``target_k`` members by rotating existing patches.

    New views are continuous rotations of uniformly chosen original patches;
    class identity is preserved and patch ids continue the numbering.
    """
    k = len(class_group.patches)
    if target_k < k:
        raise ValueError(f"target_k {target_k} is below current size {k}")
    originals = class_group.patches
    grown = list(originals)
    next_id = max(p.patch_id for p in originals) + 1
    while len(grown) < target_k:
        src = originals[int(rng.integers(k))]
        angle = rng.uniform(-rotation_range, rotation_range)
        grown.append(Patch(rotate_patch(src.pixels, angle),
                           class_group.class_id, next_id))
        next_id += 1
    return ClassGroup(class_group.class_id, grown)


def to_input_matrix(patches: list[Patch]) -> np.ndarray:
    """Stack row-major-flattened patches into a (B, P*P) matrix with each
    row at zero mean and unit variance; constant patches give zero rows."""
    X = np.stack([p.pixels.ravel() for p in patches]).astype(np.float64)
    X -= X.mean(axis=1, keepdims=True)
    std = X.std(axis=1, keepdims=True)
    return np.divide(X, std, out=np.zeros_like(X), where=std > 0)


class ClassInputs(NamedTuple):
    """Input rows of every patch of a dataset, stacked in dataset order;
    class ``c`` owns rows ``offsets[c]:offsets[c + 1]``."""

    rows: np.ndarray            # (total patches, D)
    offsets: np.ndarray         # (classes + 1,)
    class_ids: np.ndarray       # (classes,)


def stack_class_inputs(dataset: list[ClassGroup]) -> ClassInputs:
    """The input matrix of every patch, as from :func:`to_input_matrix`,
    with per-class offsets."""
    offsets = np.concatenate([[0], np.cumsum([len(g.patches)
                                              for g in dataset])])
    rows = np.empty((offsets[-1], dataset[0].patches[0].size ** 2))
    # class by class: no temporary the size of the whole dataset
    for c, group in enumerate(dataset):
        rows[offsets[c]:offsets[c + 1]] = to_input_matrix(group.patches)
    return ClassInputs(rows, offsets,
                       np.array([g.class_id for g in dataset]))


def _check_finite(pixels: np.ndarray, names: list[tuple[int, int]]) -> None:
    """Raise :class:`DatasetError` naming the first patch (by class and
    patch id, ``names[i]`` for ``pixels[i]``) holding a NaN or an infinity.
    One pass over all pixels; the patch is located only on failure."""
    finite = np.isfinite(pixels)
    if finite.all():
        return
    bad = int(np.argmin(finite.reshape(len(pixels), -1).all(axis=1)))
    class_id, patch_id = names[bad]
    raise DatasetError(f"patch {patch_id} of class {class_id} has a pixel "
                       f"that is not a finite float32")


def write_dataset(dataset: list[ClassGroup], path) -> None:
    if not dataset:
        raise DatasetError("refusing to write an empty dataset")
    if any(not group.patches for group in dataset):
        raise DatasetError("every class must hold at least one patch")
    patch_size = dataset[0].patches[0].size
    for group in dataset:
        for patch in group.patches:
            if patch.pixels.shape != (patch_size, patch_size):
                raise DatasetError(
                    f"patch {patch.patch_id} of class {group.class_id} "
                    f"has shape {patch.pixels.shape}, expected "
                    f"({patch_size}, {patch_size})")
    # values beyond the float32 range become infinities, rejected below
    with np.errstate(over="ignore"):
        pixels = np.array([p.pixels for g in dataset for p in g.patches],
                          dtype="<f4")
    _check_finite(pixels, [(g.class_id, p.patch_id)
                           for g in dataset for p in g.patches])
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<III", DATASET_VERSION, len(dataset), patch_size))
        start = 0
        for group in dataset:
            fh.write(struct.pack("<II", group.class_id, len(group.patches)))
            stop = start + len(group.patches)
            fh.write(pixels[start:stop].tobytes())
            start = stop


def read_dataset(path) -> list[ClassGroup]:
    with open(path, "rb") as fh:
        blob = fh.read()
    offset = 0

    def take(n: int, what: str) -> bytes:
        nonlocal offset
        if offset + n > len(blob):
            raise FormatError(f"truncated file while reading {what}", offset)
        chunk = blob[offset:offset + n]
        offset += n
        return chunk

    magic = take(4, "magic")
    if magic != DATASET_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {DATASET_MAGIC!r}", 0)
    version, num_classes, patch_size = struct.unpack("<III", take(12, "header"))
    if version != DATASET_VERSION:
        raise FormatError(f"unsupported version {version}", 4)
    if num_classes == 0:
        raise DatasetError("dataset holds no classes")
    classes = []
    names = []
    chunks = []
    for _ in range(num_classes):
        class_id, k = struct.unpack("<II", take(8, "class header"))
        if k == 0:
            raise DatasetError(f"class {class_id} holds no patches")
        for patch_id in range(k):
            chunks.append(take(4 * patch_size * patch_size,
                               f"patch {patch_id} of class {class_id}"))
            names.append((class_id, patch_id))
        classes.append((class_id, k))
    if offset != len(blob):
        raise FormatError("trailing bytes after last class", offset)
    pixels = np.frombuffer(b"".join(chunks), dtype="<f4").astype(np.float64)
    pixels = pixels.reshape(len(names), patch_size, patch_size)
    _check_finite(pixels, names)
    dataset = []
    start = 0
    for class_id, k in classes:
        dataset.append(ClassGroup(class_id, [
            Patch(pixels[start + patch_id], class_id, patch_id)
            for patch_id in range(k)]))
        start += k
    return dataset
