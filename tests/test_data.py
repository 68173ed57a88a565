"""Tests for synthetic patch generation, normalization, and the file format."""

import struct

import numpy as np
import pytest

from adasample.data import (DATASET_MAGIC, DATASET_VERSION, DatasetSpec,
                            Patch, generate_positives, generate_synthetic,
                            read_dataset, rotate_patch, stack_class_inputs,
                            to_input_matrix, write_dataset)
from adasample.errors import DatasetError, FormatError
from adasample.metricspace import MetricKind, pairwise_distances
from adasample.tensornet import forward, init_params


def small_spec(**kw):
    base = dict(num_classes=6, patches_per_class=4, patch_size=8,
                outlier_fraction=0.0, seed=3)
    base.update(kw)
    return DatasetSpec(**base)


class TestGenerateSynthetic:
    def test_same_seed_gives_identical_dataset(self):
        a = generate_synthetic(small_spec())
        b = generate_synthetic(small_spec())
        for ga, gb in zip(a, b):
            assert ga.class_id == gb.class_id
            for pa, pb in zip(ga.patches, gb.patches):
                assert np.array_equal(pa.pixels, pb.pixels)

    def test_different_seeds_differ(self):
        a = generate_synthetic(small_spec(seed=3))
        b = generate_synthetic(small_spec(seed=4))
        assert not np.array_equal(a[0].patches[0].pixels,
                                  b[0].patches[0].pixels)

    def test_zero_jitter_collapses_views(self):
        spec = small_spec(warp_magnitude=0.0, noise_sigma=0.0,
                          brightness_jitter=0.0)
        ds = generate_synthetic(spec)
        for group in ds:
            first = group.patches[0].pixels
            for p in group.patches[1:]:
                np.testing.assert_allclose(p.pixels, first, atol=1e-12)

    @pytest.mark.parametrize("field", ["warp_magnitude", "noise_sigma",
                                       "brightness_jitter"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_jitter_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} = {value}; need a "
                                             f"finite value"):
            generate_synthetic(small_spec(**{field: value}))

    def test_shapes_and_ids(self):
        ds = generate_synthetic(small_spec())
        assert len(ds) == 6
        for cid, group in enumerate(ds):
            assert group.class_id == cid
            assert len(group.patches) == 4
            for pid, p in enumerate(group.patches):
                assert p.pixels.shape == (8, 8)
                assert (p.class_id, p.patch_id) == (cid, pid)

    def test_random_network_separates_classes(self):
        """Even an untrained embedding puts matching views closer together
        than views of different classes, on average."""
        ds = generate_synthetic(DatasetSpec(num_classes=50,
                                            patches_per_class=4,
                                            patch_size=16,
                                            outlier_fraction=0.0, seed=21))
        params = init_params([256, 32, 16], seed=0)
        rng = np.random.default_rng(1)
        intra, inter = [], []
        for _ in range(1000):
            gi = int(rng.integers(50))
            i, j = rng.choice(4, size=2, replace=False)
            descs, _ = forward(params, to_input_matrix(
                [ds[gi].patches[int(i)], ds[gi].patches[int(j)]]))
            intra.append(pairwise_distances(descs[:1], descs[1:],
                                            MetricKind.ANGULAR)[0, 0])
            ga, gb = rng.choice(50, size=2, replace=False)
            descs, _ = forward(params, to_input_matrix(
                [ds[int(ga)].patches[0], ds[int(gb)].patches[0]]))
            inter.append(pairwise_distances(descs[:1], descs[1:],
                                            MetricKind.ANGULAR)[0, 0])
        assert np.mean(intra) < np.mean(inter)

    def test_invalid_spec_rejected(self):
        with pytest.raises(ValueError):
            generate_synthetic(small_spec(num_classes=1))
        with pytest.raises(ValueError):
            generate_synthetic(small_spec(patches_per_class=1))
        with pytest.raises(ValueError):
            generate_synthetic(small_spec(patch_size=2))


class TestGeneratePositives:
    def group(self):
        ds = generate_synthetic(small_spec(patches_per_class=2))
        return ds[0]

    def test_noop_when_target_equals_current(self):
        g = self.group()
        out = generate_positives(g, 2, np.random.default_rng(0))
        assert len(out.patches) == 2
        for a, b in zip(g.patches, out.patches):
            assert np.array_equal(a.pixels, b.pixels)

    def test_grows_two_to_fifteen(self):
        g = self.group()
        out = generate_positives(g, 15, np.random.default_rng(0))
        assert len(out.patches) == 15
        assert len(out.patches) - len(g.patches) == 13

    def test_new_patches_keep_class_and_get_fresh_ids(self):
        g = self.group()
        out = generate_positives(g, 6, np.random.default_rng(0))
        assert all(p.class_id == g.class_id for p in out.patches)
        assert sorted(p.patch_id for p in out.patches) == list(range(6))

    def test_shrinking_rejected(self):
        with pytest.raises(ValueError, match="below current"):
            generate_positives(self.group(), 1, np.random.default_rng(0))

    def test_zero_rotation_reproduces_source(self):
        pix = np.arange(64.0).reshape(8, 8)
        np.testing.assert_allclose(rotate_patch(pix, 0.0), pix, atol=1e-12)


def normalize_pixels(pixels):
    """Scalar oracle for one row of to_input_matrix: zero mean, unit
    variance; a constant patch maps to zeros with a flag."""
    pix = np.asarray(pixels, dtype=np.float64)
    centered = pix - pix.mean()
    std = centered.std()
    if std == 0.0:
        return np.zeros_like(pix), True
    return centered / std, False


def input_rows(*pixels):
    return to_input_matrix([Patch(p, 0, i) for i, p in enumerate(pixels)])


class TestNormalize:
    def test_idempotent(self):
        rng = np.random.default_rng(24)
        once = input_rows(rng.normal(2.0, 3.0, size=(6, 6)))[0]
        again = input_rows(once.reshape(6, 6))[0]
        np.testing.assert_allclose(again, once, atol=1e-12)

    def test_constant_patch_flagged_and_zeroed(self):
        pix = np.full((5, 5), 3.3)
        assert normalize_pixels(pix)[1]
        assert np.all(input_rows(pix) == 0)

    def test_affine_invariance(self):
        rng = np.random.default_rng(25)
        X = rng.normal(size=(6, 6))
        a, b = input_rows(X, 2.5 * X - 7.0)
        np.testing.assert_allclose(a, b, atol=1e-10)

    def test_moments_after_normalization(self):
        rng = np.random.default_rng(26)
        row = input_rows(rng.normal(5, 9, size=(8, 8)))[0]
        assert abs(row.mean()) < 1e-9
        assert abs(row.var() - 1.0) < 1e-6

    def test_input_matrix_matches_per_patch_normalization(self):
        rng = np.random.default_rng(27)
        patches = [Patch(rng.normal(size=(5, 5)), 0, i) for i in range(4)]
        patches.append(Patch(np.full((5, 5), 2.0), 0, 4))   # constant row
        M = to_input_matrix(patches)
        for i, p in enumerate(patches):
            np.testing.assert_allclose(M[i],
                                       normalize_pixels(p.pixels)[0].ravel(),
                                       atol=1e-12)


class TestStackClassInputs:
    def test_rows_are_per_class_input_matrices_at_their_offsets(self):
        ds = generate_synthetic(small_spec())
        ds[2].patches = ds[2].patches[:1]
        ds[4].patches = ds[4].patches[:3]
        stacked = stack_class_inputs(ds)
        assert stacked.offsets.tolist() == [0, 4, 8, 9, 13, 16, 20]
        assert stacked.class_ids.tolist() == [g.class_id for g in ds]
        for c, group in enumerate(ds):
            rows = stacked.rows[stacked.offsets[c]:stacked.offsets[c + 1]]
            assert np.array_equal(rows, to_input_matrix(group.patches))


def adsp_bytes(classes, patch_size=8):
    """An ``.adsp`` file holding ``(class_id, patch count)`` classes of
    zero-filled patches, written by hand so it may break the format's
    invariants."""
    blob = DATASET_MAGIC + struct.pack("<III", DATASET_VERSION,
                                       len(classes), patch_size)
    for class_id, k in classes:
        blob += struct.pack("<II", class_id, k)
        blob += bytes(4 * k * patch_size * patch_size)
    return blob


class TestDatasetIO:
    def test_round_trip_at_float32_precision(self, tmp_path):
        ds = generate_synthetic(small_spec())
        path = tmp_path / "d.adsp"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert len(back) == len(ds)
        for ga, gb in zip(ds, back):
            assert ga.class_id == gb.class_id
            for pa, pb in zip(ga.patches, gb.patches):
                assert (pa.class_id, pa.patch_id) == (pb.class_id, pb.patch_id)
                np.testing.assert_array_equal(
                    pa.pixels.astype(np.float32), pb.pixels.astype(np.float32))

    def test_write_read_write_is_stable(self, tmp_path):
        ds = generate_synthetic(small_spec())
        p1 = tmp_path / "a.adsp"
        p2 = tmp_path / "b.adsp"
        write_dataset(ds, p1)
        write_dataset(read_dataset(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_truncated_file_reports_format_error_with_offset(self, tmp_path):
        ds = generate_synthetic(small_spec())
        path = tmp_path / "d.adsp"
        write_dataset(ds, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:37])
        with pytest.raises(FormatError, match="truncated") as err:
            read_dataset(path)
        assert 0 < err.value.offset <= 37

    def test_wrong_magic_names_expectation(self, tmp_path):
        path = tmp_path / "d.adsp"
        path.write_bytes(b"XXXX" + bytes(24))
        with pytest.raises(FormatError, match="ADSP"):
            read_dataset(path)

    def test_trailing_garbage_rejected(self, tmp_path):
        ds = generate_synthetic(small_spec())
        path = tmp_path / "d.adsp"
        write_dataset(ds, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(FormatError, match="trailing"):
            read_dataset(path)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixel_named_on_read(self, tmp_path, bad):
        ds = generate_synthetic(small_spec())
        path = tmp_path / "d.adsp"
        write_dataset(ds, path)
        blob = bytearray(path.read_bytes())
        # header 16 bytes, then per class an 8-byte header and 4 patches of
        # 8x8 float32: pixel 5 of patch 2 of class 3
        offset = 16 + 3 * (8 + 4 * 256) + 8 + 2 * 256 + 5 * 4
        blob[offset:offset + 4] = np.float32(bad).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(DatasetError, match="patch 2 of class 3 "):
            read_dataset(path)

    def test_non_finite_pixel_named_on_write(self, tmp_path):
        ds = generate_synthetic(small_spec())
        ds[4].patches[1].pixels[0, 7] = 1e300      # beyond float32
        path = tmp_path / "d.adsp"
        with pytest.raises(DatasetError, match="patch 1 of class 4 "):
            write_dataset(ds, path)
        assert not path.exists()

    def test_class_without_patches_named_on_read(self, tmp_path):
        path = tmp_path / "d.adsp"
        path.write_bytes(adsp_bytes([(0, 2), (17, 0), (2, 3)]))
        with pytest.raises(DatasetError, match="class 17 holds no patches"):
            read_dataset(path)

    def test_dataset_without_classes_rejected_on_read(self, tmp_path):
        path = tmp_path / "d.adsp"
        path.write_bytes(adsp_bytes([]))
        with pytest.raises(DatasetError, match="no classes"):
            read_dataset(path)
