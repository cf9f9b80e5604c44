"""Record the one-epoch training loss and parameter-update norm of each
train-workload slice.

The train workload checks every epoch it runs against these values, so
they must come from code whose training output is known to be right.  Run
from the repository root:

    python3 bench/record_train_losses.py
"""

from __future__ import annotations

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import common  # noqa: E402  (sets thread variables before numpy loads)

import json  # noqa: E402


def main() -> int:
    common.add_src_path()
    import workloads

    losses = {fam: [] for fam in workloads.TRAIN_VARIANTS}
    updates = {fam: [] for fam in workloads.TRAIN_VARIANTS}
    for k in range(workloads.TRAIN_SLICES):
        wl = workloads.Train(k, probe=None)
        wl.setup_inputs()
        for fam in losses:
            loss, update, _ = wl.epoch(fam)
            losses[fam].append(loss)
            updates[fam].append(update)
            print(f"slice {k} {fam}: loss {loss!r} update {update!r}",
                  file=sys.stderr)
    with open(workloads.TRAIN_LOSSES, "w", encoding="utf-8") as f:
        json.dump({"slices": workloads.TRAIN_SLICES,
                   "slice_utts": workloads.TRAIN_SLICE_UTTS,
                   "losses": losses, "update_norms": updates},
                  f, indent=2, sort_keys=True)
        f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
