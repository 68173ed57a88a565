"""Tests for synthetic patch generation, normalization, and the file format."""

import struct

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from adasample import data
from adasample.data import (DATASET_MAGIC, DATASET_VERSION, ClassGroup,
                            DatasetSpec, as_dataset, generate_positives,
                            generate_synthetic, read_dataset, rotate_patch,
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
            assert np.array_equal(ga.patches, gb.patches)

    def test_different_seeds_differ(self):
        a = generate_synthetic(small_spec(seed=3))
        b = generate_synthetic(small_spec(seed=4))
        assert not np.array_equal(a[0].patches[0], b[0].patches[0])

    def test_zero_jitter_collapses_views(self):
        spec = small_spec(warp_magnitude=0.0, noise_sigma=0.0,
                          brightness_jitter=0.0)
        ds = generate_synthetic(spec)
        for group in ds:
            first = group.patches[0]
            for p in group.patches[1:]:
                np.testing.assert_allclose(p, first, atol=1e-12)

    @pytest.mark.parametrize("field", ["warp_magnitude", "noise_sigma",
                                       "brightness_jitter"])
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_jitter_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} = {value}; need a "
                                             f"finite value"):
            generate_synthetic(small_spec(**{field: value}))

    def test_overflowing_noise_names_the_patch(self):
        """A finite noise_sigma passes validation, but at 1e308 the noise
        overflows to infinite pixels; the output is checked once."""
        with pytest.raises(DatasetError, match="patch 0 of class 0 has a "
                                               "pixel that is not a finite"):
            generate_synthetic(small_spec(noise_sigma=1e308))

    def test_shapes_and_ids(self):
        ds = generate_synthetic(small_spec())
        assert len(ds) == 6
        for cid, group in enumerate(ds):
            assert group.class_id == cid
            assert len(group) == 4
            assert group.patches.shape == (4, 8, 8)
            assert group.patches.dtype == np.float64

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
                ds[gi].patches[[int(i), int(j)]]))
            intra.append(pairwise_distances(descs[:1], descs[1:],
                                            MetricKind.ANGULAR)[0, 0])
            ga, gb = rng.choice(50, size=2, replace=False)
            descs, _ = forward(params, to_input_matrix(
                np.stack([ds[int(ga)].patches[0], ds[int(gb)].patches[0]])))
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
        assert np.array_equal(out.patches, g.patches)

    def test_grows_two_to_fifteen(self):
        g = self.group()
        out = generate_positives(g, 15, np.random.default_rng(0))
        assert out.patches.shape == (15, 8, 8)
        assert len(out) - len(g) == 13

    def test_originals_first_and_unchanged_class_id_kept(self):
        g = self.group()
        out = generate_positives(g, 6, np.random.default_rng(0))
        assert out.class_id == g.class_id
        assert np.array_equal(out.patches[:2], g.patches)
        # the new views are rotations, none a copy of an original
        for new in out.patches[2:]:
            assert not any(np.array_equal(new, old) for old in g.patches)

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
    return to_input_matrix(np.stack(pixels))


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
        patches = rng.normal(size=(5, 5, 5))
        patches[4] = 2.0                                   # constant row
        M = to_input_matrix(patches)
        for i, p in enumerate(patches):
            np.testing.assert_allclose(M[i], normalize_pixels(p)[0].ravel(),
                                       atol=1e-12)


class TestStackClassInputs:
    def test_rows_are_per_class_input_matrices_at_their_offsets(self):
        ds = generate_synthetic(small_spec())
        ds[2] = ClassGroup(ds[2].class_id, ds[2].patches[:1])
        ds[4] = ClassGroup(ds[4].class_id, ds[4].patches[:3])
        stacked = as_dataset(ds).inputs
        assert stacked.offsets.tolist() == [0, 4, 8, 9, 13, 16, 20]
        assert stacked.class_ids.tolist() == [g.class_id for g in ds]
        for c, group in enumerate(ds):
            rows = stacked.rows[stacked.offsets[c]:stacked.offsets[c + 1]]
            assert np.array_equal(rows, to_input_matrix(group.patches))


def random_classes(sizes, patch_size, seed=28):
    rng = np.random.default_rng(seed)
    return [ClassGroup(c, rng.normal(size=(k, patch_size, patch_size)))
            for c, k in enumerate(sizes)]


# more pixels than one run of Dataset.inputs holds (2**16): 256 rows of
# 16 x 16, and a class larger than that
MANY_RUNS = [300, 5, 200, 40, 1, 120, 150]


class TestBlockedStacking:
    """Dataset.inputs normalizes runs of whole classes of at most 2**16
    pixels, or one larger class, per to_input_matrix call."""

    @pytest.mark.parametrize("patch_size, sizes, runs", [
        # 256 rows per run: class 2 straddles row 256, class 4 exceeds it
        (16, [100, 100, 100, 60, 300, 7], [200, 160, 300, 7]),
        # D = 81 and 1089 do not divide 2**16: 809 and 60 rows per run
        (9, [500, 300, 9, 900, 3], [809, 900, 3]),
        (33, [25, 25, 25, 61, 1, 2], [50, 25, 61, 3]),
    ])
    def test_runs_equal_per_class_input_matrices(self, monkeypatch,
                                                 patch_size, sizes, runs):
        ds = random_classes(sizes, patch_size)
        ds[1].patches[0] = 1.5                  # a zero row
        calls = []

        def recording(patches):
            calls.append(len(patches))
            return to_input_matrix(patches)

        monkeypatch.setattr(data, "to_input_matrix", recording)
        stacked = as_dataset(ds).inputs
        assert calls == runs
        for c, group in enumerate(ds):
            rows = stacked.rows[stacked.offsets[c]:stacked.offsets[c + 1]]
            assert np.array_equal(rows, to_input_matrix(group.patches))

    def test_classes_read_from_a_file(self, tmp_path):
        path = tmp_path / "d.adsp"
        write_dataset(random_classes(MANY_RUNS, 16), path)
        ds = read_dataset(path)
        assert ds[0].patches.base is ds[-1].patches.base
        stacked = as_dataset(ds).inputs
        assert np.array_equal(stacked.rows, np.concatenate(
            [to_input_matrix(g.patches) for g in ds]))


class TestClassArraysUnchanged:
    """The classes read from a file are views of one buffer, so a function
    that wrote into a class's array would change other classes too."""

    @pytest.mark.parametrize("many_runs", [False, True])
    def test_readers_leave_every_class_unchanged(self, tmp_path, many_runs):
        path = tmp_path / "d.adsp"
        write_dataset(random_classes(MANY_RUNS, 16) if many_runs
                      else generate_synthetic(small_spec()), path)
        ds = read_dataset(path)
        assert ds[0].patches.base is ds[-1].patches.base
        before = [g.patches.copy() for g in ds]
        to_input_matrix(ds[2].patches)
        as_dataset(ds).inputs
        generate_positives(ds[3], len(ds[3]) + 5, np.random.default_rng(0))
        write_dataset(ds, tmp_path / "again.adsp")
        for group, want in zip(ds, before):
            assert np.array_equal(group.patches, want)

    def test_write_rejects_a_class_of_another_patch_size(self, tmp_path):
        ds = generate_synthetic(small_spec())
        ds[3] = ClassGroup(ds[3].class_id, ds[3].patches[:, :6, :6])
        path = tmp_path / "d.adsp"
        with pytest.raises(DatasetError, match=r"class 3 holds patches of "
                                               r"shape \(6, 6\)"):
            write_dataset(ds, path)
        assert not path.exists()


def adsp_bytes(classes, patch_size=8):
    """An ``.adsp`` file holding ``(class_id, patch count)`` classes whose
    patches are the ramp 0, 1, 2, ..., written by hand so it may break the
    format's invariants."""
    blob = DATASET_MAGIC + struct.pack("<III", DATASET_VERSION,
                                       len(classes), patch_size)
    ramp = np.arange(patch_size * patch_size, dtype="<f4").tobytes()
    for class_id, k in classes:
        blob += struct.pack("<II", class_id, k)
        blob += ramp * k
    return blob


# Small datasets: distinct class ids, 1-3 classes of 1-3 patches of 2-4
# pixels a side, pixels from a seeded normal draw.
small_datasets = st.builds(
    lambda ids, sizes, patch_size, seed: [
        ClassGroup(class_id, np.random.default_rng(seed + c).normal(
            size=(k, patch_size, patch_size)).astype(np.float32)
                   .astype(np.float64))
        for c, (class_id, k) in enumerate(zip(ids, sizes))],
    st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=3,
             unique=True),
    st.lists(st.integers(1, 3), min_size=3, max_size=3),
    st.integers(2, 4), st.integers(0, 2 ** 16))
file_settings = settings(max_examples=15, deadline=None, derandomize=True,
                         suppress_health_check=[
                             HealthCheck.function_scoped_fixture])


class TestDatasetFormatFuzz:
    @file_settings
    @given(dataset=small_datasets)
    def test_round_trip(self, tmp_path, dataset):
        path = tmp_path / "d.adsp"
        write_dataset(dataset, path)
        back = read_dataset(path)
        assert [g.class_id for g in back] == [g.class_id for g in dataset]
        for got, want in zip(back, dataset):
            np.testing.assert_array_equal(got.patches, want.patches)

    @file_settings
    @given(dataset=small_datasets)
    def test_truncation_at_every_offset_names_that_offset(self, tmp_path,
                                                          dataset):
        path = tmp_path / "d.adsp"
        write_dataset(dataset, path)
        blob = path.read_bytes()
        for end in range(len(blob)):
            path.write_bytes(blob[:end])
            with pytest.raises(FormatError, match="truncated") as err:
                read_dataset(path)
            assert err.value.offset == end

    @file_settings
    @given(dataset=small_datasets,
           magic=st.binary(min_size=4, max_size=4).filter(
               lambda m: m != DATASET_MAGIC))
    def test_bad_magic_at_offset_zero(self, tmp_path, dataset, magic):
        path = tmp_path / "d.adsp"
        write_dataset(dataset, path)
        path.write_bytes(magic + path.read_bytes()[4:])
        with pytest.raises(FormatError, match="bad magic") as err:
            read_dataset(path)
        assert err.value.offset == 0

    @file_settings
    @given(dataset=small_datasets, extra=st.binary(min_size=1, max_size=9))
    def test_trailing_bytes_at_the_end_of_the_data(self, tmp_path, dataset,
                                                   extra):
        path = tmp_path / "d.adsp"
        write_dataset(dataset, path)
        size = path.stat().st_size
        path.write_bytes(path.read_bytes() + extra)
        with pytest.raises(FormatError, match="trailing") as err:
            read_dataset(path)
        assert err.value.offset == size


class TestDatasetIO:
    def test_round_trip_at_float32_precision(self, tmp_path):
        ds = generate_synthetic(small_spec())
        path = tmp_path / "d.adsp"
        write_dataset(ds, path)
        back = read_dataset(path)
        assert len(back) == len(ds)
        for ga, gb in zip(ds, back):
            assert ga.class_id == gb.class_id
            assert gb.patches.dtype == np.float64
            np.testing.assert_array_equal(ga.patches.astype(np.float32),
                                          gb.patches.astype(np.float32))

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
        ds[4].patches[1, 0, 7] = 1e300      # beyond float32
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

    def test_zero_patch_size_is_a_format_error_at_its_field(self, tmp_path):
        path = tmp_path / "d.adsp"
        path.write_bytes(adsp_bytes([(0, 2), (1, 3)], patch_size=0))
        with pytest.raises(FormatError, match="patch size is zero") as err:
            read_dataset(path)
        assert err.value.offset == 12

    def test_repeated_class_id_named_on_read(self, tmp_path):
        path = tmp_path / "d.adsp"
        path.write_bytes(adsp_bytes([(5, 2), (9, 3), (5, 2)]))
        with pytest.raises(DatasetError, match="class id 5 is used by more"):
            read_dataset(path)

    def test_repeated_class_id_named_on_write(self, tmp_path):
        ds = generate_synthetic(small_spec())
        ds[4] = ClassGroup(ds[1].class_id, ds[4].patches)
        path = tmp_path / "d.adsp"
        with pytest.raises(DatasetError, match="class id 1 is used by more"):
            write_dataset(ds, path)
        assert not path.exists()

    def test_constant_patch_named_on_read(self, tmp_path):
        ds = generate_synthetic(small_spec())
        path = tmp_path / "d.adsp"
        write_dataset(ds, path)
        blob = bytearray(path.read_bytes())
        # patch 3 of class 2 (16-byte header, 8-byte class headers, four
        # 8x8 float32 patches per class)
        offset = 16 + 2 * (8 + 4 * 256) + 8 + 3 * 256
        blob[offset:offset + 256] = np.full(64, 0.25, "<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(DatasetError, match="patch 3 of class 2 is "
                                               "constant"):
            read_dataset(path)

    def test_constant_patch_named_on_write(self, tmp_path):
        ds = generate_synthetic(small_spec())
        ds[5].patches[0] = -1.5
        path = tmp_path / "d.adsp"
        with pytest.raises(DatasetError, match="patch 0 of class 5 is "
                                               "constant"):
            write_dataset(ds, path)
        assert not path.exists()

    def test_patch_constant_only_at_float32_refused_on_write(self, tmp_path):
        """The check sees the float32 pixels the file would hold."""
        ds = generate_synthetic(small_spec())
        ds[0].patches[2] = 1.0
        ds[0].patches[2, 4, 4] += 1e-12
        with pytest.raises(DatasetError, match="patch 2 of class 0 is "
                                               "constant"):
            write_dataset(ds, tmp_path / "d.adsp")
