"""Tests for the dataset value: read-only pixels and rows, views and
slices, input rows and evaluation plans computed once, and the same
results from a Dataset read from a file as from one stacked from copies
of its classes."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import adasample
from adasample import data
from adasample.cli import build_dataset, main
from adasample.config import EvalOptions, RunConfig
from adasample.data import (ClassGroup, Dataset, DatasetSpec, as_dataset,
                            generate_positives, generate_synthetic,
                            read_dataset, to_input_matrix, write_dataset)
from adasample.errors import DatasetError
from adasample.evaluation import (evaluate_params, info_correlation_probe,
                                  split_holdout)
from adasample.metricspace import MetricKind
from adasample.tensornet import init_params
from adasample.trainer import TrainConfig, train


def classes(shape):
    """24 classes of 16 x 16 patches: 6 each, or 2 to 9."""
    full = generate_synthetic(DatasetSpec(num_classes=24, patches_per_class=9,
                                          patch_size=16, seed=41))
    sizes = [6] * 24 if shape == "uniform" else \
        np.random.default_rng(42).integers(2, 10, size=24)
    return [ClassGroup(g.class_id, g.patches[:k])
            for g, k in zip(full, sizes)]


def held_and_list(tmp_path, shape):
    """The classes read back from a file as a Dataset, and a list holding
    copies of the same classes."""
    path = tmp_path / "d.adsp"
    write_dataset(classes(shape), path)
    held = read_dataset(path)
    return held, [ClassGroup(g.class_id, g.patches.copy()) for g in held]


def eval_config(seed, metric, num_pairs=600, num_queries=12):
    return RunConfig(seed=seed, train=TrainConfig(metric=metric),
                     eval=EvalOptions(num_pairs=num_pairs,
                                      num_queries=num_queries))


SHAPES = ["uniform", "ragged"]


class TestDatasetValue:
    def test_arrays_are_read_only_and_views_frozen(self, tmp_path):
        held, _ = held_and_list(tmp_path, "ragged")
        for array in (held.pixels, held.offsets, held.class_ids,
                      held[3].patches, held.rows, held[2:5].pixels):
            with pytest.raises(ValueError, match="read-only"):
                array.flat[0] = 1
        with pytest.raises(dataclasses.FrozenInstanceError):
            held[3].patches = held[3].patches[:1]
        with pytest.raises(AttributeError):
            held.pixels = held.pixels[:1]

    def test_indexing_iteration_and_slices(self, tmp_path):
        held, groups = held_and_list(tmp_path, "ragged")
        assert len(held) == len(groups) == 24
        for got, want in zip(held, groups):
            assert got.class_id == want.class_id
            assert type(got.class_id) is int
            assert np.array_equal(got.patches, want.patches)
        assert held[-1].class_id == 23
        with pytest.raises(IndexError):
            held[24]
        run = held[5:-3]
        assert isinstance(run, Dataset)
        assert run.class_ids.tolist() == list(range(5, 21))
        assert run.offsets[0] == 0
        assert np.array_equal(run.pixels, np.concatenate(
            [g.patches for g in groups[5:21]]))
        assert np.array_equal(run.rows,
                              held.rows[held.offsets[5]:held.offsets[21]])
        assert len(held[7:2]) == 0
        with pytest.raises(ValueError, match="runs of classes"):
            held[::2]

    def test_rows_computed_on_first_use_only(self, tmp_path, monkeypatch):
        held, groups = held_and_list(tmp_path, "uniform")
        rows = []

        def counting(patches):
            rows.append(len(patches))
            return to_input_matrix(patches)

        monkeypatch.setattr(data, "to_input_matrix", counting)
        split_holdout(held, 0.25)
        assert rows == []
        first = held.rows
        assert held.rows is first and sum(rows) == 24 * 6
        assert np.array_equal(first, np.concatenate(
            [to_input_matrix(g.patches) for g in groups]))

    def test_as_dataset(self, tmp_path):
        held, groups = held_and_list(tmp_path, "ragged")
        assert as_dataset(held) is held
        stacked = as_dataset(groups)
        assert np.array_equal(stacked.pixels, held.pixels)
        assert np.array_equal(stacked.offsets, held.offsets)
        assert np.array_equal(stacked.class_ids, held.class_ids)
        assert len(as_dataset([])) == 0


class TestEveryProducerGivesADataset:
    SPEC = DatasetSpec(num_classes=6, patches_per_class=3, patch_size=8,
                       seed=5)

    def test_generate_synthetic(self):
        ds = generate_synthetic(self.SPEC)
        assert isinstance(ds, Dataset)
        assert ds.offsets.tolist() == [0, 3, 6, 9, 12, 15, 18]
        assert ds.class_ids.tolist() == list(range(6))

    @pytest.mark.parametrize("expand_to_k", [0, 5])
    def test_build_dataset(self, expand_to_k):
        """The generated classes, each grown class by class as the list
        of classes was before it became one dataset."""
        ds = build_dataset(RunConfig(dataset=self.SPEC,
                                     expand_to_k=expand_to_k))
        assert isinstance(ds, Dataset)
        want = list(generate_synthetic(self.SPEC))
        if expand_to_k:
            rng = np.random.default_rng(np.random.SeedSequence([5, 3]))
            want = [generate_positives(g, expand_to_k, rng, 30.0)
                    for g in want]
        assert len(ds) == len(want)
        for got, group in zip(ds, want):
            assert got.class_id == group.class_id
            assert np.array_equal(got.patches, group.patches)
        assert np.diff(ds.offsets).tolist() == [expand_to_k or 3] * 6

    def test_read_dataset_and_split_holdout(self, tmp_path):
        path = tmp_path / "d.adsp"
        write_dataset(generate_synthetic(self.SPEC), path)
        ds = read_dataset(path)
        assert isinstance(ds, Dataset)
        train_split, holdout = split_holdout(ds, 0.3)
        assert isinstance(train_split, Dataset)
        assert isinstance(holdout, Dataset)
        assert holdout.class_ids.tolist() == [4, 5]

    @pytest.mark.parametrize("shape", SHAPES)
    def test_writing_a_dataset_writes_its_classes(self, tmp_path, shape):
        ds = as_dataset(classes(shape))
        write_dataset(ds, tmp_path / "dataset.adsp")
        write_dataset(list(ds), tmp_path / "list.adsp")
        write_dataset(iter(classes(shape)), tmp_path / "groups.adsp")
        want = (tmp_path / "list.adsp").read_bytes()
        assert (tmp_path / "dataset.adsp").read_bytes() == want
        assert (tmp_path / "groups.adsp").read_bytes() == want


class TestGather:
    @pytest.mark.parametrize("seed", range(4))
    def test_rows_of_shuffled_classes_of_a_ragged_dataset(self, seed):
        """Each class's rows, class after class in the order asked for,
        and the row at which each starts."""
        rng = np.random.default_rng(seed)
        sizes = rng.integers(1, 8, size=9)
        ds = as_dataset(ClassGroup(10 + c, rng.normal(size=(k, 5, 5)))
                        for c, k in enumerate(sizes))
        picked = rng.permutation(9)[:int(rng.integers(1, 10))]
        rows, first = ds.gather(picked)
        want = [to_input_matrix(ds[int(c)].patches) for c in picked]
        assert np.array_equal(rows, np.concatenate(want))
        assert first.tolist() == np.cumsum(
            [0] + [len(w) for w in want[:-1]]).tolist()


@pytest.mark.parametrize("metric", list(MetricKind))
@pytest.mark.parametrize("shape", SHAPES)
class TestSameResultsFromDatasetAndList:
    """A dataset read from a file gives the results of one stacked by
    ``as_dataset`` from copies of its classes, and held rows and plans do
    not change them."""

    def test_evaluate_params(self, tmp_path, metric, shape):
        held, groups = held_and_list(tmp_path, shape)
        params = init_params([256, 64, 32], seed=3)
        want = {seed: evaluate_params(as_dataset(groups), params,
                                      eval_config(seed, metric))
                for seed in (5, 6)}
        first = evaluate_params(held, params, eval_config(5, metric))
        cached = evaluate_params(held, params, eval_config(5, metric))
        other = evaluate_params(held, params, eval_config(6, metric))
        again = evaluate_params(held, params, eval_config(5, metric))
        assert first == cached == again == want[5]
        assert other == want[6]
        assert len(held.plans) == 2
        # a plan is keyed by its eval options too
        fewer = evaluate_params(held, params, eval_config(5, metric, 300, 4))
        assert fewer == evaluate_params(as_dataset(groups), params,
                                        eval_config(5, metric, 300, 4))
        assert len(held.plans) == 3

    def test_info_correlation_probe(self, tmp_path, metric, shape):
        held, groups = held_and_list(tmp_path, shape)
        params = init_params([256, 64, 32], seed=4)
        results, states = [], []
        for dataset in (as_dataset(groups), held, held):
            rng = np.random.default_rng(8)
            results.append(info_correlation_probe(dataset, params, metric,
                                                  rng, sample_classes=10))
            states.append(rng.bit_generator.state)
        for got in results[1:]:
            assert np.array_equal(got.p_dist, results[0].p_dist)
            assert np.array_equal(got.p_info, results[0].p_info)
            assert got.pearson == results[0].pearson
            assert got.degenerate == results[0].degenerate
        assert states[0] == states[1] == states[2]

    def test_train(self, tmp_path, metric, shape):
        held, groups = held_and_list(tmp_path, shape)
        config = TrainConfig(metric=metric, batch_size=8, epochs=2,
                             pairs_per_epoch=48, hidden_dims=(16,),
                             descriptor_dim=8, seed=2)
        want_params, want_log = train(config, as_dataset(groups))
        for _ in range(2):
            got_params, got_log = train(config, held)
            assert got_log == want_log
            for got, want in zip(got_params.layers, want_params.layers):
                assert np.array_equal(got, want)


def test_empty_gallery_raises_on_every_call_and_holds_no_plan():
    held = as_dataset([ClassGroup(c, np.random.default_rng(c).normal(
        size=(1 if c < 3 else 4, 6, 6))) for c in range(6)])
    params = init_params([36, 10, 5], seed=1)
    for _ in range(2):
        with pytest.raises(DatasetError, match="gallery is empty"):
            evaluate_params(held, params,
                            eval_config(1, MetricKind.ANGULAR, 50, 3))
    assert held.plans == {}


COMPARE_CONFIG = """
seed = 9
data.patch_size = 8
train.batch_size = 4
train.epochs = 1
train.pairs_per_epoch = 16
train.hidden_dims = 12
train.descriptor_dim = 6
eval.num_pairs = 200
eval.holdout_fraction = 0.3
"""


def test_compare_normalizes_each_split_once(tmp_path, monkeypatch):
    path = tmp_path / "d.adsp"
    write_dataset(generate_synthetic(DatasetSpec(num_classes=10,
                                                 patches_per_class=4,
                                                 patch_size=8, seed=3)),
                  path)
    cfg = tmp_path / "cmp.cfg"
    cfg.write_text(COMPARE_CONFIG)
    rows = []

    def counting(patches):
        rows.append(len(patches))
        return to_input_matrix(patches)

    monkeypatch.setattr(data, "to_input_matrix", counting)
    assert main(["compare", "--config", str(cfg), "--dataset", str(path),
                 "--out", str(tmp_path / "cmp"), "--strategies", "0,10",
                 "--seeds", "1,2,3"]) == 0
    # 7 training classes and 3 held-out classes of 4 patches, each split
    # normalized in one run, once for the 6 cells
    assert rows == [28, 12]


def test_importing_the_cli_leaves_scipy_unloaded():
    """scipy.ndimage and scipy.special are imported where they are used,
    so the commands that do not generate data or run the normal
    approximation never load them."""
    src = str(Path(adasample.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    code = ("import sys, adasample.cli; print(sorted(m for m in "
            "('scipy.ndimage', 'scipy.special') if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"
