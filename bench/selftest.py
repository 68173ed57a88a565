"""Checks of the benchmark's own machinery.

    python3 bench/selftest.py        # or: python3 -m pytest bench/selftest.py

* self time is computed correctly on a synthetic nested call tree;
* a traced call into the package records the inner calls that the
  package's modules make through names they imported, with the right
  parents;
* after the tracer is removed, every ``adasample`` module attribute is the
  original object again, so untraced timings really are untraced;
* ``BENCHMARK.json`` lists exactly the workloads and metrics the code
  reports.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
import tracer as tr  # noqa: E402
# cli is not imported by the package itself; the tracer wraps its functions
from adasample import cli, data, trainer  # noqa: E402,F401


def expect(ok: bool, message: str) -> None:
    if not ok:
        raise AssertionError(message)


def test_self_times_on_nested_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has a1 [2, 3.5];
    # a second root r2 [11, 12] has no children.
    parents = [-1, 0, 1, 0, -1]
    starts = [0.0, 1.0, 2.0, 5.0, 11.0]
    ends = [10.0, 4.0, 3.5, 9.0, 12.0]
    own = tr.self_times(parents, starts, ends)
    expect(np.allclose(own, [3.0, 1.5, 1.5, 4.0, 1.0]), f"self times {own}")


def test_summary_of_wrapped_calls():
    t = tr.Tracer()

    def inner(x):
        return x + 1

    traced_inner = t.wrap("inner", inner, lambda a, k, r: {"seen": a[0]})

    def outer(n):
        return sum(traced_inner(i) for i in range(n))

    expect(t.wrap("outer", outer)(4) == 10, "wrapped result changed")
    summary = t.summary()
    expect(summary["inner"]["calls"] == 4, f"{summary}")
    expect(summary["outer"]["calls"] == 1, f"{summary}")
    expect(t.counters["seen"] == 6, f"{dict(t.counters)}")
    outer_s = summary["outer"]
    expect(abs(outer_s["total_s"] - summary["inner"]["total_s"]
               - outer_s["self_s"]) < 1e-12, f"{summary}")
    expect(all(p == 0 for p in t.parents[1:]), f"parents {t.parents}")


def tiny_dataset():
    spec = data.DatasetSpec(num_classes=4, patches_per_class=3,
                            patch_size=8, seed=3)
    return data.generate_synthetic(spec)


def test_trace_reaches_imported_names_and_restores():
    before = tr.snapshot()
    t = tr.Tracer()
    config = trainer.TrainConfig(batch_size=2, epochs=1, pairs_per_epoch=2,
                                 hidden_dims=(8,), descriptor_dim=4)
    try:
        for module, function, count in layers.TRACED:
            t.install(module, function, layers.span_name(module, function),
                      count)
        expect(bool(tr.changed_attributes(before)), "nothing was rebound")
        trainer.train(config, tiny_dataset())
    finally:
        t.uninstall()
    expect(tr.changed_attributes(before) == [],
           f"not restored: {tr.changed_attributes(before)}")
    names, parents, _, _ = t.arrays()
    # build_batch calls pairwise_distances through trainer's own import
    dist_parents = {names[p] for n, p in zip(names, parents)
                    if n == "metricspace.pairwise_distances"}
    expect(dist_parents == {"trainer.build_batch", "miner.hardest_negatives"},
           f"pairwise_distances parents {dist_parents}")
    summary = t.summary()
    expect(summary["trainer.train"]["calls"] == 1, f"{summary}")
    expect(summary["sampler.positive_probs"]["calls"] == 2, f"{summary}")
    expect(t.counters["sampler.candidates"] == 4, f"{dict(t.counters)}")

    # the untraced call records nothing more
    spans = len(t.names)
    trainer.train(config, tiny_dataset())
    expect(len(t.names) == spans, "spans recorded after uninstall")


def test_benchmark_json_matches_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expect([w["name"] for w in spec["workloads"]]
           == list(run.THROUGHPUT_NAME), "workload names differ")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["end_to_end"]]
           == run.END_TO_END, "end_to_end metrics differ")
    expect([(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]]
           == layers.PER_LAYER, "per_layer metrics differ")


if __name__ == "__main__":
    tests = [fn for name, fn in sorted(globals().items())
             if name.startswith("test_")]
    for fn in tests:
        fn()
        print(f"ok {fn.__name__}")
