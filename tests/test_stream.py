"""Bounded draws replayed from a block of words (``adasample.stream``) and
the verification pairs drawn with them (``cli.verification_pairs``),
against the scalar draws they replay: the same values and the same
generator state afterwards."""

import numpy as np
import pytest

from adasample import stream
from adasample.cli import verification_pairs
from adasample.errors import DatasetError
from scalar_verification import scalar_verification_pairs


def offsets_of(sizes):
    return np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)


class TestBounded:
    R = 2**31   # 2**32 % (R + 1) = 2**31 - 1: about half the words reject

    def test_rejections_replay_scalar_draws(self):
        """Chained through the positions ``bounded`` returns for every word
        of the block at once, the draws equal ``integers(R + 1)`` one at a
        time, and the words they read leave the generator where the
        scalar draws do."""
        want_rng = np.random.default_rng(4)
        want = [int(want_rng.integers(self.R + 1)) for _ in range(300)]
        rng = np.random.default_rng(4)
        state = rng.bit_generator.state
        block = stream.words(rng, 1000)
        values, after = stream.bounded(block, np.arange(len(block)), self.R)
        got, p = [], 0
        for _ in range(300):
            got.append(int(values[p]))
            p = int(after[p])
        assert got == want
        assert p - 300 > 100, "too few rejections to test them"
        rng.bit_generator.state = state
        stream.words(rng, p)
        assert rng.bit_generator.state == want_rng.bit_generator.state

    def test_running_out_of_words_lands_past_the_block(self):
        block = stream.words(np.random.default_rng(5), 200)
        _, after = stream.bounded(block, np.arange(len(block)), self.R)
        rejected = np.flatnonzero(after > np.arange(len(block)) + 1)
        assert rejected.size
        last_word = block[rejected[:1]]
        _, after = stream.bounded(last_word, np.array([0, 1]), self.R)
        assert np.all(after > 1)

    def test_a_bound_of_one_reads_no_word(self):
        block = stream.words(np.random.default_rng(6), 4)
        pos = np.arange(5)
        values, after = stream.bounded(block, pos, np.zeros(5, np.int64))
        assert np.all(values == 0)
        assert np.array_equal(after, pos)


def assert_pairs_match(sizes, num_pairs, seed):
    offsets = offsets_of(sizes)
    want_rng = np.random.default_rng(seed)
    want = scalar_verification_pairs(offsets, num_pairs, want_rng)
    rng = np.random.default_rng(seed)
    got = verification_pairs(offsets, num_pairs, rng)
    np.testing.assert_array_equal(got, want)
    assert rng.bit_generator.state == want_rng.bit_generator.state


SIZES = {
    "uniform-200x8": [8] * 200,
    # the held-out split of the acceptance criteria
    "holdout-50x8": [8] * 50,
    # classes of one patch are drawn only as non-matching
    "sizes-1-to-16": np.random.default_rng(7).integers(1, 17, 300).tolist(),
    # Floyd's first draw on [0, k - 2] reads no word when k = 2
    "mostly-k-2": [2] * 60 + [3, 9, 4],
    "two-classes": [5, 9],
    "two-classes-k-2": [2, 2],
    # class draws of bound 70,000 reject about one word in 90,000
    "70000-classes": [3] * 70_000,
}


class TestVerificationPairs:
    @pytest.mark.parametrize("sizes", SIZES.values(), ids=SIZES.keys())
    @pytest.mark.parametrize("num_pairs", [1, 7, 5000])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_matches_the_loop(self, sizes, num_pairs, seed):
        assert_pairs_match(sizes, num_pairs, seed)

    def test_block_grows_when_rejections_overrun_it(self, monkeypatch):
        """Every pair of these classes reads the most words a pair can
        without a rejection, 4 or 5, and draws on [0, 2**31 + 1] reject
        about half their words, so the first block of 9 words per pair is
        too short and is drawn again longer."""
        blocks = []
        words = stream.words

        def counted(rng, count):
            blocks.append(count)
            return words(rng, count)

        monkeypatch.setattr(stream, "words", counted)
        assert_pairs_match([2**31 + 2, 3, 2**31 + 2, 8], 50, seed=2)
        assert blocks[0] == 9 * 50
        assert max(blocks) > 9 * 50

    @pytest.mark.parametrize("sizes", [[1, 5, 1], [4], [1, 1]])
    def test_needs_two_classes_of_two(self, sizes):
        with pytest.raises(DatasetError, match="k >= 2"):
            verification_pairs(offsets_of(sizes), 10,
                               np.random.default_rng(0))

    def test_rejects_an_empty_class(self):
        with pytest.raises(DatasetError, match="hold a patch"):
            verification_pairs(offsets_of([3, 0, 4]), 10,
                               np.random.default_rng(0))

    def test_rejects_no_pairs(self):
        with pytest.raises(ValueError, match="num_pairs"):
            verification_pairs(offsets_of([3, 4]), 0,
                               np.random.default_rng(0))
