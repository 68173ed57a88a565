"""Measure the last-epoch mean training loss over workload seeds.

    python3 bench/calibrate.py --seeds 1-40

Prints, per training workload, the first- and last-epoch loss of each
seed and the band that ``workloads.LOSS_BAND`` should hold: the range the
last-epoch losses span, widened by its full width on each side. Run it
from the repository root.
"""

from __future__ import annotations

import argparse
import shutil
import sys
import tempfile
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import workloads  # noqa: E402
from adasample import trainer  # noqa: E402


def epoch_losses(name: str, seed: int, workdir: Path) -> tuple[float, float]:
    inputs = workloads.setup(name, seed, workdir)
    _, log = trainer.train(inputs.config.train, inputs.dataset)
    return (workloads.epoch_loss(log, 1),
            workloads.epoch_loss(log, inputs.config.train.epochs))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-40", help="first-last")
    first, last = (int(t) for t in parser.parse_args().seeds.split("-"))
    out = BENCH.parent / ".bench_out"
    out.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(dir=out))
    try:
        for name in ("train_default", "train_wide_ragged"):
            losses = []
            for seed in range(first, last + 1):
                start, end = epoch_losses(name, seed, workdir)
                losses.append(end)
                print(f"{name} seed {seed}: epoch 1 {start!r}, last epoch "
                      f"{end!r}", flush=True)
            lo, hi = min(losses), max(losses)
            pad = hi - lo
            print(f"{name}: seeds span [{lo:.4f}, {hi:.4f}], band "
                  f"({lo - pad:.4f}, {hi + pad:.4f})", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
