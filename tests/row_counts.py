"""Per-row candidate counts for the masked kernels' oracle tests.

``build_batch`` pads every class's row to the widest class of its
lockstep batch, so a kernel sees three kinds of counts: ragged, all equal
to the padded width, or all equal and below it (every class of one cell
has the same size, narrower than a class of another cell). The third
kind checks that a kernel masks pad columns when every row has the same
count.
"""

import numpy as np

COUNT_MODES = ("ragged", "full", "one_below_width")


def draw_counts(rng: np.random.Generator, n: int, width: int,
                mode: str) -> np.ndarray:
    """``n`` counts in [1, width] of the given mode. A width of 1 has no
    count below it; "one_below_width" then gives the full width."""
    if mode == "ragged":
        return rng.integers(1, width + 1, size=n)
    if mode == "full" or width == 1:
        return np.full(n, width)
    return np.full(n, rng.integers(1, width))
