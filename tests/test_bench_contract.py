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

from adasample import cli, evaluation, metricspace, miner
from adasample.config import EvalOptions, RunConfig
from adasample.data import (Dataset, DatasetSpec, generate_synthetic,
                            read_dataset, write_dataset)
from adasample.metricspace import MetricKind
from adasample.miner import NegMode, mine_triplets
from adasample.tensornet import init_params
from adasample.trainer import TrainConfig, train

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


@pytest.mark.parametrize("function", ["evaluate_params", "split_holdout",
                                      "verification_distances"])
def test_cli_binds_the_evaluation_function_itself(function):
    """The benchmark calls and traces these under ``cli``. The tracer
    rebinds a traced object in every module that holds it, so ``cli`` must
    hold ``evaluation``'s own function: a wrapper would split the traced
    span from the code it measures."""
    assert getattr(cli, function) is getattr(evaluation, function)


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


@pytest.mark.parametrize("name", ["eval_probe", "compare_small"])
def test_setup_holds_a_dataset_its_properties_read(tmp_path, name):
    """The benchmark's own set-up, run as it runs: a change that narrows
    what the package accepts or returns fails here, not in a benchmark
    run."""
    inputs = workloads.setup(name, 1, tmp_path)
    assert isinstance(inputs.dataset, Dataset)
    props = workloads.properties(name, inputs)
    assert props == inputs.properties
    assert props["classes"] == len(inputs.dataset) == 200
    assert props["class_size_hist"] == {8: 200}


COUNTED = ("positive_probs", "reweights", "pairwise_distances",
           "distance_grad", "forward", "backward")
TRAIN = dict(batch_size=4, epochs=1, pairs_per_epoch=16, hidden_dims=(12,),
             descriptor_dim=6, seed=1)
CLASS_SIZE = 4


def counter_of(function):
    return {f: c for _, f, c in layers.TRACED}[function]


@pytest.fixture(scope="module")
def recorded():
    """The real ``(args, kwargs, result)`` of every call to each counted
    function during a 1-epoch ``train`` and one ``evaluate_params``. Each
    function is wrapped in every package module that holds it, as the
    tracer rebinds it; ``distance_grad`` has no caller, so it is called
    directly."""
    calls = {function: [] for function in COUNTED}
    with pytest.MonkeyPatch.context() as mp:
        for module, function, _ in layers.TRACED:
            if function not in calls:
                continue
            real = getattr(importlib.import_module(module), function)

            def wrapped(*args, _real=real, _calls=calls[function], **kwargs):
                result = _real(*args, **kwargs)
                _calls.append((args, kwargs, result))
                return result

            for name, mod in list(sys.modules.items()):
                if name.split(".")[0] == "adasample":
                    for attr, value in list(vars(mod).items()):
                        if value is real:
                            mp.setattr(mod, attr, wrapped)

        dataset = generate_synthetic(DatasetSpec(
            num_classes=10, patches_per_class=CLASS_SIZE, patch_size=8,
            seed=4))
        config = RunConfig(seed=1, train=TrainConfig(**TRAIN),
                           eval=EvalOptions(num_pairs=40, num_queries=6))
        params, log = train(config.train, dataset)
        evaluation.evaluate_params(dataset, params, config)
        rng = np.random.default_rng(5)
        for kind in MetricKind:
            a, b = (v / np.linalg.norm(v) for v in rng.normal(size=(2, 6)))
            metricspace.distance_grad(a, b, kind)
            metricspace.distance_grad(a, a, kind)
    assert len(log) == TRAIN["pairs_per_epoch"] // TRAIN["batch_size"]
    return calls


def applied(recorded, function):
    calls = recorded[function]
    assert calls, f"{function} was not called"
    return [counter_of(function)(*call) for call in calls], calls


def test_candidates_counter_reads_a_positive_probs_call(recorded):
    counts, _ = applied(recorded, "positive_probs")
    assert len(counts) == TRAIN["pairs_per_epoch"] // TRAIN["batch_size"]
    for c in counts:
        assert set(c) == {"sampler.candidates"}
        assert isinstance(c["sampler.candidates"], int)
        assert c["sampler.candidates"] >= 1


def test_clamped_counter_reads_a_reweights_result(recorded):
    counts, _ = applied(recorded, "reweights")
    for c in counts:
        assert set(c) == {"sampler.weight_clamped_batches"}
        assert c["sampler.weight_clamped_batches"] in (0, 1)


def test_entries_counter_reads_a_pairwise_distances_result(recorded):
    counts, calls = applied(recorded, "pairwise_distances")
    for c, (args, _, _) in zip(counts, calls):
        assert set(c) == {"metricspace.pairwise_distances.entries"}
        assert c["metricspace.pairwise_distances.entries"] == \
            len(args[0]) * len(args[1])


def test_saturated_counter_reads_a_distance_grad_result(recorded):
    counts, calls = applied(recorded, "distance_grad")
    for c, (_, _, result) in zip(counts, calls):
        assert set(c) == {"metricspace.distance_grad.saturated"}
        assert c["metricspace.distance_grad.saturated"] == int(result[2])
    # per metric, distinct random vectors do not saturate; a == a does
    assert [c["metricspace.distance_grad.saturated"] for c in counts] == \
        [0, 1] * len(MetricKind)


def layer_products(dims):
    """(out * in) of each layer of a network with these layer dims."""
    return [o * i for i, o in zip(dims[:-1], dims[1:])]


def test_forward_counter_matches_the_batch_and_layer_shapes(recorded):
    counts, _ = applied(recorded, "forward")
    dims = [64, *TRAIN["hidden_dims"], TRAIN["descriptor_dim"]]
    steps = TRAIN["pairs_per_epoch"] // TRAIN["batch_size"]
    # one forward per step over the chosen classes' patches, then
    # evaluate_params' pass over every row of the dataset
    rows = [TRAIN["batch_size"] * CLASS_SIZE] * steps + [10 * CLASS_SIZE]
    assert [c["tensornet.forward.rows"] for c in counts] == rows
    for c, r in zip(counts, rows):
        assert set(c) == {"tensornet.forward.rows", "tensornet.forward.flop"}
        assert c["tensornet.forward.flop"] == 2 * r * sum(layer_products(dims))


def test_backward_counter_matches_the_batch_and_layer_shapes(recorded):
    counts, calls = applied(recorded, "backward")
    dims = [64, *TRAIN["hidden_dims"], TRAIN["descriptor_dim"]]
    steps = TRAIN["pairs_per_epoch"] // TRAIN["batch_size"]
    assert len(counts) == steps
    rows = 2 * TRAIN["batch_size"]      # anchors, then positives
    # weight gradients for every layer, input gradients above the first
    products = layer_products(dims)
    flop = 2 * rows * (products[0] + 2 * sum(products[1:]))
    for c, (args, _, result) in zip(counts, calls):
        assert c == {"tensornet.backward.rows": rows,
                     "tensornet.backward.flop": flop}
        assert [g.shape for g in result] == \
            [w.shape for w in args[0].layers]
