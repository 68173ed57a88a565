"""Output identity of two checkouts of adasample.

Runs the same commands on each checkout, one at a time, each side in its
own temporary directory with its own ``PYTHONPATH`` and with
``OPENBLAS_NUM_THREADS=1``:

* ``gen-data``, without and with ``data.expand_to_k``;
* ``train`` under the angular and the euclidean metric, and under the
  euclidean metric with cross-role negatives;
* ``evaluate`` and ``diagnose`` of the angular and the euclidean network,
  and ``diagnose`` of the cross-role euclidean network under its own
  config (the probe mines against opposing pairs, same-role and
  cross-role);
* ``compare`` of lambda 0 and 10 over seeds 1, 2, 3 (6 cells);
* ``compare`` of lambda 0, 10 and the cap over seeds 1, 2, 3 (9 cells) on
  a ragged dataset, classes of 2 to 9 patches, which each checkout writes
  with its own ``data.write_dataset``, under each metric (the
  euclidean cells mine their batches stacked);
* ``compare`` of the same 9 cells with 8 hidden ReLU units at lr 0.3, where
  some cells fail in ``forward``'s zero-output check and the others train.
  The command exits 1 and names each failed cell on standard error.

It then prints the SHA-256 of every output file, and of every command's
exit code and standard output (and standard error, for a step expected to
fail), side by side, and exits 1 on any difference or when a command
exits with another code than its step expects. Usage::

    python tools/identity.py OLD_CHECKOUT NEW_CHECKOUT

Only the standard library is used; each checkout's ``src/`` provides the
package.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import subprocess
import sys
import tempfile
from pathlib import Path

BASE_CONFIG = """\
seed = 7
data.num_classes = 100
data.patches_per_class = 6
train.epochs = 3
train.pairs_per_epoch = 640
"""
CONFIGS = {
    "base.cfg": BASE_CONFIG,
    "expanded.cfg": BASE_CONFIG + "data.expand_to_k = 8\n",
    "euclidean.cfg": BASE_CONFIG + "train.metric = euclidean\n",
    "euclidean-cross.cfg": BASE_CONFIG + "train.metric = euclidean\n"
                           "train.neg_mode = cross_role\n",
    "diverging.cfg": BASE_CONFIG + "train.activation = relu\n"
                     "train.hidden_dims = 8\ntrain.lr = 0.3\n",
}
# The ragged dataset: 100 classes of 16x16 patches, each truncated to a
# size drawn from 2..9.
RAGGED = """\
import numpy as np
from adasample.data import (ClassGroup, DatasetSpec, generate_synthetic,
                            write_dataset)
dataset = generate_synthetic(DatasetSpec(num_classes=100,
                                         patches_per_class=9, seed=11))
sizes = np.random.default_rng(5).integers(2, 10, size=len(dataset))
write_dataset([ClassGroup(g.class_id, g.patches[:k])
               for g, k in zip(dataset, sizes)], "ragged.adsp")
"""
CLI = ["-m", "adasample.cli"]
# (step name, interpreter arguments), run in order in one directory
STEPS = [
    ("gen-data", [*CLI, "gen-data", "--config", "base.cfg",
                  "--out", "data.adsp"]),
    ("gen-data-expanded", [*CLI, "gen-data", "--config", "expanded.cfg",
                           "--out", "expanded.adsp"]),
    ("gen-data-ragged", ["-c", RAGGED]),
    ("train-angular", [*CLI, "train", "--config", "base.cfg", "--dataset",
                       "data.adsp", "--out", "angular"]),
    ("train-euclidean", [*CLI, "train", "--config", "euclidean.cfg",
                         "--dataset", "data.adsp", "--out", "euclidean"]),
    ("train-euclidean-cross", [*CLI, "train", "--config",
                               "euclidean-cross.cfg", "--dataset",
                               "data.adsp", "--out", "euclidean-cross"]),
    ("evaluate-angular", [*CLI, "evaluate", "--config", "base.cfg",
                          "--params", "angular/params.adnw",
                          "--dataset", "data.adsp",
                          "--out", "evaluate-angular"]),
    ("evaluate-euclidean", [*CLI, "evaluate", "--config", "euclidean.cfg",
                            "--params", "euclidean/params.adnw",
                            "--dataset", "data.adsp",
                            "--out", "evaluate-euclidean"]),
    ("diagnose", [*CLI, "diagnose", "--config", "base.cfg", "--params",
                  "angular/params.adnw", "--dataset", "data.adsp",
                  "--out", "diagnose"]),
    ("diagnose-euclidean", [*CLI, "diagnose", "--config", "euclidean.cfg",
                            "--params", "euclidean/params.adnw",
                            "--dataset", "data.adsp",
                            "--out", "diagnose-euclidean"]),
    ("diagnose-euclidean-cross", [*CLI, "diagnose", "--config",
                                  "euclidean-cross.cfg", "--params",
                                  "euclidean-cross/params.adnw",
                                  "--dataset", "data.adsp",
                                  "--out", "diagnose-euclidean-cross"]),
    ("compare", [*CLI, "compare", "--config", "base.cfg", "--dataset",
                 "data.adsp", "--out", "compare", "--strategies", "0,10",
                 "--seeds", "1,2,3"]),
    ("compare-ragged", [*CLI, "compare", "--config", "base.cfg",
                        "--dataset", "ragged.adsp", "--out",
                        "compare-ragged", "--strategies", "0,10,cap",
                        "--seeds", "1,2,3"]),
    ("compare-euclidean-ragged", [*CLI, "compare", "--config",
                                  "euclidean.cfg", "--dataset", "ragged.adsp",
                                  "--out", "compare-euclidean-ragged",
                                  "--strategies", "0,10,cap",
                                  "--seeds", "1,2,3"]),
    ("compare-diverging", [*CLI, "compare", "--config", "diverging.cfg",
                           "--dataset", "data.adsp", "--out",
                           "compare-diverging", "--strategies", "0,10,cap",
                           "--seeds", "1,2,3"]),
]
# The exit code of each step expected to fail; the standard error of these
# steps, their failure lines, is hashed as well.
FAILING = {"compare-diverging": 1}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_side(checkout: Path, workdir: Path) -> tuple[dict[str, str], int]:
    """The hash of every output of :data:`STEPS` run on ``checkout`` in
    ``workdir``, by path relative to it (``<step>.stdout`` and
    ``<step>.exit`` for each command, ``<step>.stderr`` for those in
    :data:`FAILING`), and the number of commands that exited with another
    code than expected."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(checkout / "src"))
    for name, text in CONFIGS.items():
        (workdir / name).write_text(text)
    hashes, failed = {}, 0
    for step, args in STEPS:
        done = subprocess.run([sys.executable, *args], cwd=workdir,
                              env=env, capture_output=True)
        hashes[f"{step}.exit"] = sha256(str(done.returncode).encode())
        hashes[f"{step}.stdout"] = sha256(done.stdout)
        if step in FAILING:
            hashes[f"{step}.stderr"] = sha256(done.stderr)
        if done.returncode != FAILING.get(step, 0):
            failed += 1
            print(f"{checkout}: {step} exited {done.returncode}\n"
                  f"{done.stderr.decode(errors='replace')}", file=sys.stderr)
    for path in sorted(workdir.rglob("*")):
        if path.is_file() and path.name not in CONFIGS:
            hashes[str(path.relative_to(workdir))] = sha256(path.read_bytes())
    return hashes, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("old", type=Path, help="checkout to compare against")
    parser.add_argument("new", type=Path, help="checkout to check")
    args = parser.parse_args(argv)
    sides, failed = [], 0
    for checkout in (args.old, args.new):
        with tempfile.TemporaryDirectory(prefix="adasample-identity-") as tmp:
            hashes, side_failed = run_side(checkout.resolve(), Path(tmp))
        sides.append(hashes)
        failed += side_failed
    old, new = sides
    width = max(map(len, old.keys() | new.keys()))
    differ = 0
    print(f"{'output':<{width}}  {'old':<64}  {'new':<64}")
    for key in sorted(old.keys() | new.keys()):
        a, b = old.get(key, "missing"), new.get(key, "missing")
        same = a == b
        differ += not same
        print(f"{key:<{width}}  {a:<64}  {b:<64}  "
              f"{'same' if same else 'DIFFERENT'}")
    print(f"{len(old.keys() | new.keys()) - differ} same, {differ} different, "
          f"{failed} failed commands")
    return 1 if differ or failed else 0


if __name__ == "__main__":
    sys.exit(main())
