"""In-process A/B timing of the training step of two checkouts of adasample.

Each checkout's ``src/adasample`` is imported under its own package name
(the package imports itself only relatively), so both run in one process
on one warmed-up interpreter. Round r trains the default config (seed 7,
``EPOCHS`` epochs) once with each checkout, the old one first in even
rounds and the new one first in odd rounds. Both read one dataset, written
by the old checkout and read back by each. After every round the two
runs' params must be equal byte for byte and their metrics logs equal, or
the tool stops with exit code 1.

It prints, per side, the median and the minimum wall time per step, then
the median over rounds of old/new (above 1: the new checkout is faster)
and the number of rounds the new checkout won. With ``--wide-rounds N``
it does the same on the inputs of the ``train_wide_ragged`` benchmark
workload (also ``EPOCHS`` epochs), which ``bench/workloads.setup`` of
the new checkout builds (the dataset file goes to a temporary directory).
Usage::

    OPENBLAS_NUM_THREADS=1 python tools/stepab.py OLD_CHECKOUT NEW_CHECKOUT \\
        --rounds 30 --wide-rounds 10

Separate processes of identical code spread widely on a small shared
machine; interleaving both sides in one process cancels most of that.
"""

from __future__ import annotations

import argparse
import dataclasses
import enum
import importlib
import importlib.util
import os
import statistics
import sys
import tempfile
import time
from pathlib import Path

PACKAGE = "adasample"
EPOCHS = 2


def load(checkout: Path, name: str):
    """``checkout``'s package, imported as ``name``."""
    root = checkout / "src" / PACKAGE
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for module in ("config", "data", "trainer"):
        importlib.import_module(f"{name}.{module}")
    return package


def port(value, name: str):
    """``value`` with every dataclass and enum of the adasample package
    rebuilt from package ``name``'s classes of the same module and name."""
    if isinstance(value, tuple):
        return tuple(port(v, name) for v in value)
    if not (isinstance(value, enum.Enum) or dataclasses.is_dataclass(value)):
        return value
    module = sys.modules[f"{name}.{type(value).__module__.rsplit('.', 1)[-1]}"]
    cls = getattr(module, type(value).__name__)
    if isinstance(value, enum.Enum):
        return cls(value.value)
    return cls(**{f.name: port(getattr(value, f.name), name)
                  for f in dataclasses.fields(value)})


def run(package, train_config, dataset) -> tuple[float, list, list[bytes]]:
    """Seconds per step of one ``train``, its log and its params' bytes."""
    t0 = time.perf_counter()
    params, log = package.trainer.train(train_config, dataset)
    elapsed = time.perf_counter() - t0
    return elapsed / len(log), log, [w.tobytes() for w in params.layers]


def ab(label: str, packages: dict, configs: dict, datasets: dict,
       rounds: int) -> bool:
    """Interleaved rounds of both sides; prints the summary and returns
    whether every round gave equal outputs."""
    times: dict[str, list[float]] = {side: [] for side in packages}
    sides = list(packages)
    for r in range(rounds):
        outputs = {}
        for side in (sides if r % 2 == 0 else sides[::-1]):
            step_s, log, params = run(packages[side], configs[side],
                                      datasets[side])
            times[side].append(step_s)
            outputs[side] = (log, params)
        if outputs["old"] != outputs["new"]:
            print(f"{label}: round {r}: params or logs differ")
            return False
    ratios = [old / new for old, new in zip(times["old"], times["new"])]
    for side in sides:
        print(f"{label} {side}: median {1e3 * statistics.median(times[side]):.3f}"
              f" ms/step, min {1e3 * min(times[side]):.3f} ms/step")
    wins = sum(new < old for old, new in zip(times["old"], times["new"]))
    print(f"{label}: old/new median {statistics.median(ratios):.3f}, new "
          f"faster in {wins} of {rounds} rounds; outputs equal")
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", type=Path, help="checkout to compare against")
    parser.add_argument("new", type=Path, help="checkout to check")
    parser.add_argument("--rounds", type=int, default=30)
    parser.add_argument("--wide-rounds", type=int, default=0,
                        help="rounds on the train_wide_ragged inputs")
    args = parser.parse_args(argv)
    checkouts = {"old": args.old.resolve(), "new": args.new.resolve()}
    packages = {side: load(path, f"{PACKAGE}_{side}")
                for side, path in checkouts.items()}
    print(f"OPENBLAS_NUM_THREADS={os.environ.get('OPENBLAS_NUM_THREADS')}, "
          f"{os.cpu_count()} CPUs")
    ok = True
    with tempfile.TemporaryDirectory(prefix="adasample-stepab-") as tmp:
        old = packages["old"]
        rc = old.config.assemble_run_config(
            {"root": {"seed": 7}, "train": {"epochs": EPOCHS}})
        path = Path(tmp) / "default.adsp"
        old.data.write_dataset(old.data.generate_synthetic(rc.dataset), path)
        datasets = {side: p.data.read_dataset(path)
                    for side, p in packages.items()}
        configs = {side: port(rc.train, p.__name__)
                   for side, p in packages.items()}
        ok = ab("train_default", packages, configs, datasets, args.rounds)
        if ok and args.wide_rounds:
            sys.path[:0] = [str(checkouts["new"] / "src"),
                            str(checkouts["new"] / "bench")]
            workloads = importlib.import_module("workloads")
            inputs = workloads.setup("train_wide_ragged", 7, Path(tmp))
            train = dataclasses.replace(inputs.config.train,
                                        epochs=EPOCHS)
            datasets = {side: p.data.read_dataset(inputs.dataset_path)
                        for side, p in packages.items()}
            configs = {side: port(train, p.__name__)
                       for side, p in packages.items()}
            ok = ab("train_wide_ragged", packages, configs, datasets,
                    args.wide_rounds)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
