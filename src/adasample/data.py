"""Synthetic patch dataset generation, the dataset value with its
normalized input rows, and the on-disk format.

Each class is a smooth random texture prototype rendered at a canvas twice
the patch size; its k views are produced by small random similarity warps
(rotation, isotropic scale, subpixel shift) of that prototype plus additive
Gaussian noise and a brightness shift. Classes use independently derived
RNG substreams, so generation is deterministic per seed and parallelizable
per class.

A class holds its k views as one (k, P, P) array; a patch is identified
by its class id and its index in that array. Pixels travel as float64 in
memory and float32 on disk. A file reads into a :class:`Dataset`: every
patch in one read-only (N, P, P) array, with per-class offsets, whose
normalized input rows are computed on first use and then held. Its
classes are views of that array, so nothing here writes into a class's
array.

scipy's ``ndimage`` is imported by the generation functions that use it,
not with this module: reading, normalizing and evaluating do not need it,
and it takes most of the package's import time.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import Iterable, NamedTuple

import numpy as np

from .errors import DatasetError, FormatError

DATASET_MAGIC = b"ADSP"
DATASET_VERSION = 1


@dataclass(frozen=True)
class ClassGroup:
    class_id: int
    patches: np.ndarray         # (k, P, P) float64; patch i is view i

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
    from scipy import ndimage
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
    from scipy import ndimage
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
    """Build ``num_classes`` classes of ``patches_per_class`` warped views.

    Finite but huge jitter values can overflow to non-finite pixels; each
    class is checked once, as a file is on read, and such a patch raises
    :class:`DatasetError` naming its class and index."""
    spec.validate()
    canvas = 2 * spec.patch_size
    root = np.random.SeedSequence(spec.seed)
    children = root.spawn(spec.num_classes)
    dataset = []
    for class_id in range(spec.num_classes):
        rng = np.random.default_rng(children[class_id])
        proto = _texture_prototype(canvas, spec.texture_octaves, rng)
        views = np.empty((spec.patches_per_class, spec.patch_size,
                          spec.patch_size))
        for i, view in enumerate(views):
            # Outlier views render an unrelated texture, standing in for the
            # wrong crops and mismatches real patch data contains. The first
            # view of a class is always clean.
            flag = rng.random() < spec.outlier_fraction
            outlier = i > 0 and flag
            src = _texture_prototype(canvas, spec.texture_octaves, rng) \
                if outlier else proto
            angle = rng.uniform(-spec.warp_magnitude, spec.warp_magnitude)
            scale = float(np.exp(rng.uniform(-1.0, 1.0)
                                 * spec.warp_magnitude / 300.0))
            shift = rng.uniform(-1.0, 1.0, size=2) * spec.warp_magnitude / 15.0
            view[...] = _warp_crop(src, spec.patch_size, angle, scale, shift)
            view += rng.normal(0.0, spec.noise_sigma, size=view.shape)
            view += rng.uniform(-spec.brightness_jitter, spec.brightness_jitter)
        _check_patches(views, [(class_id, len(views))])
        dataset.append(ClassGroup(class_id, views))
    return dataset


def rotate_patch(pixels: np.ndarray, angle_deg: float) -> np.ndarray:
    """Continuous rotation about the patch center, bilinear, reflect padding."""
    return _warp_crop(pixels, pixels.shape[0], angle_deg, 1.0, np.zeros(2))


def generate_positives(class_group: ClassGroup, target_k: int,
                       rng: np.random.Generator,
                       rotation_range: float = 30.0) -> ClassGroup:
    """Grow a class to ``target_k`` members by rotating existing patches.

    New views are continuous rotations of uniformly chosen original patches,
    appended after the originals; the class id is kept.
    """
    originals = class_group.patches
    k = len(originals)
    if target_k < k:
        raise ValueError(f"target_k {target_k} is below current size {k}")
    grown = [rotate_patch(originals[int(rng.integers(k))],
                          rng.uniform(-rotation_range, rotation_range))[None]
             for _ in range(target_k - k)]
    return ClassGroup(class_group.class_id,
                      np.concatenate([originals, *grown]))


def to_input_matrix(patches: np.ndarray) -> np.ndarray:
    """Flatten (B, P, P) patches row-major into a (B, P*P) matrix with each
    row at zero mean and unit variance; constant patches give zero rows."""
    X = np.asarray(patches, dtype=np.float64).reshape(len(patches), -1)
    X = X - X.mean(axis=1, keepdims=True)
    std = X.std(axis=1, keepdims=True)
    return np.divide(X, std, out=np.zeros_like(X), where=std > 0)


class ClassInputs(NamedTuple):
    """Input rows of every patch of a dataset, stacked in dataset order;
    class ``c`` owns rows ``offsets[c]:offsets[c + 1]``."""

    rows: np.ndarray            # (total patches, D)
    offsets: np.ndarray         # (classes + 1,)
    class_ids: np.ndarray       # (classes,)


def _read_only(array: np.ndarray) -> np.ndarray:
    view = array.view()
    view.flags.writeable = False
    return view


class Dataset:
    """Every patch of a dataset in one read-only (N, P, P) float64 pixel
    array, class after class: class ``c`` has id ``class_ids[c]`` and owns
    patches ``offsets[c]:offsets[c + 1]``.

    Its input rows (:attr:`inputs`) are computed on first use and then
    held, and so are the evaluation plans that ``cli.evaluate_params``
    draws from it (:attr:`plans`). Both depend on the arrays alone, which
    are read-only so that neither can go stale.

    ``len`` counts classes. An int index gives the class as a
    :class:`ClassGroup` view of the pixels, iteration gives every class,
    and a slice gives the :class:`Dataset` of a run of classes.
    """

    def __init__(self, pixels: np.ndarray, offsets, class_ids) -> None:
        self._pixels = _read_only(np.asarray(pixels, dtype=np.float64))
        self._offsets = _read_only(np.asarray(offsets, dtype=np.int64))
        self._class_ids = _read_only(np.asarray(class_ids, dtype=np.int64))
        self._inputs: ClassInputs | None = None
        # (eval seed, pairs, queries) -> plan, filled by cli.evaluation_plan
        self.plans: dict = {}

    pixels = property(lambda self: self._pixels)
    offsets = property(lambda self: self._offsets)
    class_ids = property(lambda self: self._class_ids)

    def __len__(self) -> int:
        return len(self._class_ids)

    def __iter__(self):
        return (self[c] for c in range(len(self)))

    def __getitem__(self, key):
        if isinstance(key, slice):
            run = range(len(self))[key]
            if run.step != 1:
                raise ValueError("a dataset slices into runs of classes")
            start, stop = run.start, max(run.start, run.stop)
            first, last = self._offsets[start], self._offsets[stop]
            return Dataset(self._pixels[first:last],
                           self._offsets[start:stop + 1] - first,
                           self._class_ids[start:stop])
        c = range(len(self))[key]
        return ClassGroup(int(self._class_ids[c]),
                          self._pixels[self._offsets[c]:self._offsets[c + 1]])

    @property
    def inputs(self) -> ClassInputs:
        """The input matrix of every patch, as from :func:`to_input_matrix`,
        with per-class offsets; computed on first use, then held."""
        if self._inputs is None:
            offsets, pixels = self._offsets, self._pixels
            rows = np.empty((len(pixels), int(np.prod(pixels.shape[1:]))))
            # Runs of whole classes of at most 2**16 pixels (512 KB), or one
            # larger class, per call: rows are normalized one by one,
            # whatever the run.
            step, start = max(1, (1 << 16) // max(1, rows.shape[1])), 0
            while start < len(self):
                stop = max(start + 1, np.searchsorted(
                    offsets, offsets[start] + step, "right") - 1)
                rows[offsets[start]:offsets[stop]] = to_input_matrix(
                    pixels[offsets[start]:offsets[stop]])
                start = stop
            self._inputs = ClassInputs(_read_only(rows), offsets,
                                       self._class_ids)
        return self._inputs


def as_dataset(dataset: Dataset | Iterable[ClassGroup]) -> Dataset:
    """``dataset`` itself, or its classes stacked into a :class:`Dataset`."""
    if isinstance(dataset, Dataset):
        return dataset
    groups = list(dataset)
    sizes = [len(g.patches) for g in groups]
    pixels = np.concatenate([g.patches for g in groups]) if groups \
        else np.empty((0, 0, 0))
    return Dataset(pixels, np.concatenate([[0], np.cumsum(sizes)]),
                   [g.class_id for g in groups])


def _check_patches(pixels: np.ndarray, classes: list[tuple[int, int]]) -> None:
    """Raise :class:`DatasetError` naming the first patch holding a NaN or an
    infinity, or whose pixels are all equal (its input row would be zero,
    and so would the network's output); ``pixels`` holds the (class id,
    patch count) ``classes`` one after another. One vectorized pass over
    all pixels; the patch is located only on failure."""
    flat = pixels.reshape(len(pixels), -1)
    finite = np.isfinite(flat).all(axis=1)
    usable = finite & (flat != flat[:, :1]).any(axis=1)
    if usable.all():
        return
    index = int(np.argmin(usable))
    problem = "is constant" if finite[index] else \
        f"has a pixel that is not a finite {pixels.dtype}"
    for class_id, k in classes:
        if index < k:
            break
        index -= k
    raise DatasetError(f"patch {index} of class {class_id} {problem}")


def _check_unique_ids(class_ids: list[int]) -> None:
    ids, counts = np.unique(class_ids, return_counts=True)
    if counts.max() > 1:
        raise DatasetError(f"class id {ids[np.argmax(counts)]} is used by "
                           f"more than one class")


def write_dataset(dataset: Dataset | list[ClassGroup], path) -> None:
    if not dataset:
        raise DatasetError("refusing to write an empty dataset")
    if any(not len(group) for group in dataset):
        raise DatasetError("every class must hold at least one patch")
    _check_unique_ids([g.class_id for g in dataset])
    patch_size = dataset[0].patches.shape[-1]
    for group in dataset:
        if group.patches.shape[1:] != (patch_size, patch_size):
            raise DatasetError(
                f"class {group.class_id} holds patches of shape "
                f"{group.patches.shape[1:]}, expected "
                f"({patch_size}, {patch_size})")
    # values beyond the float32 range become infinities, rejected below
    with np.errstate(over="ignore"):
        pixels = np.concatenate([g.patches for g in dataset], dtype="<f4")
    _check_patches(pixels, [(g.class_id, len(g)) for g in dataset])
    with open(path, "wb") as fh:
        fh.write(DATASET_MAGIC)
        fh.write(struct.pack("<III", DATASET_VERSION, len(dataset), patch_size))
        start = 0
        for group in dataset:
            fh.write(struct.pack("<II", group.class_id, len(group)))
            fh.write(pixels[start:start + len(group)].tobytes())
            start += len(group)


def read_dataset(path) -> Dataset:
    with open(path, "rb") as fh:
        blob = fh.read()
    offset = 0

    def take(n: int, what: str) -> bytes:
        nonlocal offset
        if offset + n > len(blob):
            raise FormatError(f"truncated file while reading {what}",
                              len(blob))
        chunk = blob[offset:offset + n]
        offset += n
        return chunk

    magic = take(4, "magic")
    if magic != DATASET_MAGIC:
        raise FormatError(f"bad magic {magic!r}, expected {DATASET_MAGIC!r}", 0)
    version, num_classes, patch_size = struct.unpack("<III", take(12, "header"))
    if version != DATASET_VERSION:
        raise FormatError(f"unsupported version {version}", 4)
    if patch_size == 0:
        raise FormatError("patch size is zero", 12)
    if num_classes == 0:
        raise DatasetError("dataset holds no classes")
    classes = []
    chunks = []
    for _ in range(num_classes):
        class_id, k = struct.unpack("<II", take(8, "class header"))
        if k == 0:
            raise DatasetError(f"class {class_id} holds no patches")
        chunks.append(take(4 * k * patch_size * patch_size,
                           f"the {k} patches of class {class_id}"))
        classes.append((class_id, k))
    if offset != len(blob):
        raise FormatError("trailing bytes after last class", offset)
    _check_unique_ids([class_id for class_id, _ in classes])
    starts = np.cumsum([0] + [k for _, k in classes]).tolist()
    pixels = np.frombuffer(b"".join(chunks), dtype="<f4").astype(np.float64)
    pixels = pixels.reshape(starts[-1], patch_size, patch_size)
    _check_patches(pixels, classes)
    return Dataset(pixels, starts, [class_id for class_id, _ in classes])
