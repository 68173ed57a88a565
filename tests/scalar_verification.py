"""One ``rng.integers`` or ``rng.choice`` call per draw: the oracle for
``adasample.cli.verification_pairs``, which replays this loop's random
stream from one block of words."""

import numpy as np

from adasample.errors import DatasetError


def scalar_verification_pairs(offsets, num_pairs, rng):
    """The (2, 2 * num_pairs) rows of ``num_pairs`` matching pairs, then
    ``num_pairs`` non-matching pairs; class ``c`` owns rows
    ``offsets[c]:offsets[c + 1]``."""
    sizes = np.diff(offsets).tolist()
    starts = np.asarray(offsets).tolist()
    usable = [c for c, k in enumerate(sizes) if k >= 2]
    if len(usable) < 2:
        raise DatasetError("verification needs >= 2 classes with k >= 2")
    rows = []
    for _ in range(num_pairs):
        c = usable[int(rng.integers(len(usable)))]
        i, j = rng.choice(sizes[c], size=2, replace=False)
        rows.append((starts[c] + int(i), starts[c] + int(j)))
    for _ in range(num_pairs):
        ca, cb = rng.choice(len(sizes), size=2, replace=False)
        rows.append((starts[ca] + int(rng.integers(sizes[ca])),
                     starts[cb] + int(rng.integers(sizes[cb]))))
    return np.array(rows, dtype=np.int64).T
