"""What the benchmark in ``bench/`` uses of the package, checked without
editing it: a change to ``src/`` that would break ``bench/run.py`` (a
traced function deleted or renamed, a result it counts reshaped, a dataset
idiom it builds) fails here first."""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

from adasample import cli, evaluation, miner
from adasample.data import (DatasetSpec, generate_synthetic, read_dataset,
                            write_dataset)
from adasample.metricspace import MetricKind
from adasample.miner import NegMode, mine_triplets
from adasample.tensornet import init_params

BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_module(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}",
                                                  BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module     # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


layers = bench_module("layers")
workloads = bench_module("workloads")


@pytest.mark.parametrize("module, function",
                         [entry[:2] for entry in layers.TRACED])
def test_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(module), function))


def test_input_rows_counter_reads_a_class_array():
    counter = {f: c for _, f, c in layers.TRACED}["to_input_matrix"]
    patches = np.zeros((5, 4, 4))
    assert counter((patches,), {}, None) == {"data.to_input_matrix.rows": 5}


@pytest.mark.parametrize("kind", list(MetricKind))
def test_mined_counter_reads_a_mine_triplets_result(kind):
    rng = np.random.default_rng(3)
    A, P = (rng.normal(size=(12, 8)) for _ in range(2))
    A /= np.linalg.norm(A, axis=1, keepdims=True)
    P /= np.linalg.norm(P, axis=1, keepdims=True)
    mined = mine_triplets(A, P, kind, 1.0, NegMode.SAME_ROLE)
    counts = layers._mined((A, P), {}, mined)
    assert counts == {"miner.triplets": 12,
                      "miner.active": int(np.sum(mined.loss > 0.0))}


def test_probe_mines_once_through_the_traced_name(monkeypatch):
    """The probe reaches ``miner.mine_triplets`` under the name the tracer
    rebinds in ``evaluation``, once per call, so ``miner.active_ratio`` is
    fed by ``eval_probe`` too."""
    assert evaluation.mine_triplets is miner.mine_triplets
    results = []

    def counted(*args, **kwargs):
        results.append(miner.mine_triplets(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(evaluation, "mine_triplets", counted)
    dataset = generate_synthetic(DatasetSpec(num_classes=6,
                                             patches_per_class=4,
                                             patch_size=8, seed=2))
    probe = evaluation.info_correlation_probe(
        dataset, init_params([64, 12, 6], seed=1), MetricKind.ANGULAR,
        np.random.default_rng(0), sample_classes=5)
    assert len(results) == 1
    assert len(results[0]) == probe.p_dist.size == 5 * 3


def test_ragged_dataset_round_trips_through_the_file(tmp_path):
    dataset = generate_synthetic(DatasetSpec(num_classes=12,
                                             patches_per_class=3,
                                             patch_size=8, seed=5))
    ragged = workloads._ragged(dataset, seed=1)
    lo, hi = workloads.WIDE_K_RANGE
    sizes = [len(g.patches) for g in ragged]
    assert all(lo <= k <= hi for k in sizes) and len(set(sizes)) > 1
    path = tmp_path / "ragged.adsp"
    write_dataset(ragged, path)
    back = read_dataset(path)
    assert [g.class_id for g in back] == [g.class_id for g in ragged]
    assert [len(g.patches) for g in back] == sizes
    for want, got in zip(ragged, back):
        np.testing.assert_array_equal(got.patches,
                                      want.patches.astype(np.float32))


def test_workload_idioms_work_on_a_read_dataset(tmp_path):
    """``bench/workloads.py`` reads ``g.class_id`` and ``len(g.patches)``
    over a ``read_dataset`` result, grows one with ``_ragged`` and
    evaluates the held-out split of one."""
    path = tmp_path / "d.adsp"
    write_dataset(generate_synthetic(DatasetSpec(num_classes=12,
                                                 patches_per_class=3,
                                                 patch_size=8, seed=5)),
                  path)
    dataset = read_dataset(path)
    assert [g.class_id for g in dataset] == list(range(12))
    assert [len(g.patches) for g in dataset] == [3] * 12
    lo, hi = workloads.WIDE_K_RANGE
    sizes = [len(g.patches) for g in workloads._ragged(dataset, seed=1)]
    assert all(lo <= k <= hi for k in sizes) and len(set(sizes)) > 1
    rc = workloads._run_config(1, data={"num_classes": 12, "patch_size": 8})
    inputs = workloads.Inputs(config=rc, dataset=dataset, digest="")
    props = workloads.properties("eval_probe", inputs)
    assert props["classes"] == 12 and props["class_size_hist"] == {3: 12}
    params = init_params(rc.train.layer_dims(64), seed=1)
    holdout = cli.split_holdout(dataset, rc.eval.holdout_fraction)[1]
    checks = workloads.Checks()
    assert len(workloads._evaluate(checks, holdout, params, rc)) == 3
    assert checks.attempted == 6 and checks.failed == 0
