"""numpy's bounded random draws replayed as array operations on a block of
the generator's raw 32-bit words.

The stream facts, for ``np.random.Generator`` over PCG64 (the generator
every command builds), that :func:`adasample.trainer.build_batch` and
:func:`adasample.cli.verification_distances` rely on:

* PCG64 makes 64-bit outputs. A 32-bit draw takes the low half of a fresh
  output and keeps the high half in the generator's buffer; the next
  32-bit draw takes that buffered half. These halves are the *words* of
  the stream. A 64-bit draw takes a fresh output and leaves the buffer as
  it is.
* A bounded integer draw on [0, r] with 0 < r < 2**32 - 1 is Lemire's
  draw (Lemire 2019, "Fast Random Integer Generation in an Interval",
  ACM TOMACS) on words: the value is ``(w * (r + 1)) >> 32``, and a word
  whose product has low 32 bits below ``2**32 % (r + 1)`` is rejected and
  the next word is tried. This holds for ``integers(r + 1)``, for every
  entry of ``integers(0, highs, endpoint=True)`` and for every bounded
  step of ``choice`` and of its shuffle.
* A bound of 1, ``integers(1)`` (r = 0), consumes no word.
* ``integers(0, 2**32 - 1, size=n, endpoint=True, dtype=np.uint32)`` is
  the next n words themselves. In ``integers(0, highs, endpoint=True,
  dtype=np.uint64)`` an entry whose bound is 2**64 - 1 is one fresh
  64-bit output ``raw``, and ``(raw >> 11) * 2**-53`` of it is exactly
  what ``Generator.random()`` returns.
* ``choice(k, 2, replace=False)`` is Floyd's algorithm (Bentley & Floyd
  1987, CACM 30(9)): a draw on [0, k - 2], then one on [0, k - 1] that
  becomes k - 1 when it repeats the first; its shuffle then swaps the two
  when one more draw on [0, 1] gives 0.

So a loop of bounded draws whose bounds depend on earlier values can be
replayed from a block of :func:`words`: for every word position at once,
arrays compute what a loop iteration starting there draws and where the
next iteration starts (:func:`bounded`, :func:`distinct_pair`), and
:func:`walk` follows those positions from the first word.
"""

from __future__ import annotations

import numpy as np

WORD_MAX = 2**32 - 1


def words(rng: np.random.Generator, count: int) -> np.ndarray:
    """The next ``count`` words of ``rng``, in one call that advances
    ``rng`` by exactly those words."""
    return rng.integers(0, WORD_MAX, size=count, endpoint=True,
                        dtype=np.uint32)


def bounded(block: np.ndarray, pos: np.ndarray, r) -> tuple[np.ndarray,
                                                            np.ndarray]:
    """What ``integers(r + 1)`` gives when the stream is at word ``pos``
    of ``block``, for each entry of ``pos`` (``r`` an int or an array of
    ints broadcast against it, each 0 <= r < 2**32 - 1), and the word
    position after the draw.

    A draw that runs past the block returns a position past
    ``len(block)`` and a value that is in [0, r] but not the stream's.
    """
    m = np.asarray(r).astype(np.uint64) + np.uint64(1)
    threshold = np.uint64(2**32) % m
    last = len(block) - 1
    # r = 0: the product is the word itself, below 2**32, so the value is 0
    # and no word is rejected; only the position must not move
    product = block[np.minimum(pos, last)] * m
    value = (product >> np.uint64(32)).astype(np.intp)
    pos = pos + (m > 1)
    rejected = product & np.uint64(WORD_MAX) < threshold
    # a word read past the block ends the retries: the position already
    # lies past it
    todo = np.flatnonzero(rejected & (pos <= len(block)))
    m, threshold = (np.broadcast_to(a, pos.shape) for a in (m, threshold))
    while todo.size:
        at = pos[todo]
        product = block[np.minimum(at, last)] * m[todo]
        value[todo] = product >> np.uint64(32)
        pos[todo] = at + 1
        rejected = product & np.uint64(WORD_MAX) < threshold[todo]
        todo = todo[rejected & (at <= last)]
    return value, pos


def distinct_pair(block: np.ndarray, pos: np.ndarray, k
                  ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """What ``choice(k, 2, replace=False)`` gives at word ``pos`` of
    ``block``, as two index arrays, and the word position after it
    (k >= 2, broadcast as in :func:`bounded`)."""
    first, pos = bounded(block, pos, k - 2)
    second, pos = bounded(block, pos, k - 1)
    second = np.where(second == first, k - 1, second)
    keep, pos = bounded(block, pos, 1)
    return (np.where(keep == 0, second, first),
            np.where(keep == 0, first, second), pos)


def walk(ends: np.ndarray, count: int) -> np.ndarray | None:
    """Start positions of ``count`` consecutive loop iterations from
    position 0, then the position after the last, where ``ends[p]`` is the
    position after an iteration that starts at ``p``; None if one of them
    lies past the table."""
    limit = len(ends)
    # every position past the table steps to the sentinel ``limit``; a
    # memoryview reads Python ints without a list of them
    step = np.empty(limit + 1, dtype=ends.dtype)
    np.minimum(ends, limit, out=step[:limit])
    step[limit] = limit
    step = memoryview(step)
    chain = [0] * (count + 1)
    p = 0
    for i in range(1, count + 1):
        p = step[p]
        chain[i] = p
    return None if p == limit else np.array(chain, dtype=np.intp)
