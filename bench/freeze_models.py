"""Train the frozen decode models that the benchmark's decode workloads load.

Trains AED baseline/tcpgen and RNN-T baseline/tcpgen_db with the package's
own training stage at the default experiment config (2000 training
utterances, 3 epochs, seed 17), then records each checkpoint's SHA-256 and
epoch losses in bench/models/<family>.json.  The decode workloads refuse a
checkpoint whose hash differs from the manifest.

Run from the repository root (about 3 to 4 minutes per family on one core):

    python3 bench/freeze_models.py              # both families
    python3 bench/freeze_models.py --family aed # one family
"""

from __future__ import annotations

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402  (sets thread variables before numpy loads)

import argparse  # noqa: E402
import json  # noqa: E402
import time  # noqa: E402


def freeze(family: str) -> None:
    from tcpgen.harness import experiment as ex
    from tcpgen.harness.corpus import generate_corpus

    cfg = common.frozen_config(family)
    corpus = generate_corpus(cfg, cfg.seed)
    paths = ex.RunPaths(common.MODELS_DIR)
    t0 = time.time()
    losses = ex.stage_train(cfg, corpus, paths,
                            log=lambda m: print(m, file=sys.stderr, flush=True))
    entries = {}
    for variant in cfg.variant_list():
        name = f"{family}_{variant}.tcpg"
        entries[name] = {
            "sha256": common.sha256_file(os.path.join(common.CKPT_DIR, name)),
            "epoch_losses": losses[variant],
        }
    manifest = {
        "trained_by": "bench/freeze_models.py",
        "train_seconds": round(time.time() - t0, 1),
        "config": cfg.canonical_text().splitlines(),
        "checkpoints": entries,
    }
    with open(common.manifest_path(family), "w", encoding="utf-8") as f:
        json.dump(manifest, f, indent=2, sort_keys=True)
        f.write("\n")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--family", choices=("aed", "rnnt"), action="append")
    args = ap.parse_args()
    common.add_src_path()
    for family in args.family or ["aed", "rnnt"]:
        freeze(family)
    return 0


if __name__ == "__main__":
    sys.exit(main())
