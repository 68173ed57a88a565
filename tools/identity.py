"""Output identity of two checkouts of adasample.

Runs the same commands on each checkout, one at a time, each side in its
own temporary directory with its own ``PYTHONPATH`` and with
``OPENBLAS_NUM_THREADS=1``:

* ``gen-data``, without and with ``data.expand_to_k``;
* ``train`` under the angular and the euclidean metric;
* ``evaluate`` of both trained networks, ``diagnose`` of the angular one;
* ``compare`` of lambda 0 and 10 over seeds 1, 2, 3 (6 cells).

It then prints the SHA-256 of every output file, and of every command's
exit code and standard output, side by side, and exits 1 on any
difference or when a command fails. Usage::

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
}
# (step name, command arguments), run in order in one directory
STEPS = [
    ("gen-data", ["gen-data", "--config", "base.cfg", "--out", "data.adsp"]),
    ("gen-data-expanded", ["gen-data", "--config", "expanded.cfg",
                           "--out", "expanded.adsp"]),
    ("train-angular", ["train", "--config", "base.cfg", "--dataset",
                       "data.adsp", "--out", "angular"]),
    ("train-euclidean", ["train", "--config", "euclidean.cfg", "--dataset",
                         "data.adsp", "--out", "euclidean"]),
    ("evaluate-angular", ["evaluate", "--config", "base.cfg", "--params",
                          "angular/params.adnw", "--dataset", "data.adsp",
                          "--out", "evaluate-angular"]),
    ("evaluate-euclidean", ["evaluate", "--config", "euclidean.cfg",
                            "--params", "euclidean/params.adnw",
                            "--dataset", "data.adsp",
                            "--out", "evaluate-euclidean"]),
    ("diagnose", ["diagnose", "--config", "base.cfg", "--params",
                  "angular/params.adnw", "--dataset", "data.adsp",
                  "--out", "diagnose"]),
    ("compare", ["compare", "--config", "base.cfg", "--dataset",
                 "data.adsp", "--out", "compare", "--strategies", "0,10",
                 "--seeds", "1,2,3"]),
]


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def run_side(checkout: Path, workdir: Path) -> tuple[dict[str, str], int]:
    """The hash of every output of :data:`STEPS` run on ``checkout`` in
    ``workdir``, by path relative to it (``<step>.stdout`` and
    ``<step>.exit`` for each command), and the number of failed commands."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(checkout / "src"))
    for name, text in CONFIGS.items():
        (workdir / name).write_text(text)
    hashes, failed = {}, 0
    for step, args in STEPS:
        done = subprocess.run([sys.executable, "-m", "adasample.cli", *args],
                              cwd=workdir, env=env, capture_output=True)
        hashes[f"{step}.exit"] = sha256(str(done.returncode).encode())
        hashes[f"{step}.stdout"] = sha256(done.stdout)
        if done.returncode != 0:
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
