"""Pinned settings and helpers shared by the benchmark scripts.

Importing this module caps BLAS/OpenMP threads at one, so it must be
imported before numpy.
"""

from __future__ import annotations

import hashlib
import os
import sys

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(HERE)
SRC_DIR = os.path.join(REPO_ROOT, "src")
MODELS_DIR = os.path.join(HERE, "models")
CKPT_DIR = os.path.join(MODELS_DIR, "ckpt")

CORPUS_SEED = 17     # the frozen checkpoints were trained on this corpus

# Every experiment setting the benchmark depends on, pinned here so that a
# change to ExperimentConfig defaults does not change the workloads.
PINNED = dict(
    seed=CORPUS_SEED,
    corpus_words=150, corpus_rare_words=30, corpus_train=2000,
    corpus_test=200, corpus_rare_occurrences=2, corpus_min_words=3,
    corpus_max_words=8, corpus_zipf=1.2, corpus_feat_dim=16,
    corpus_proto_scale=0.18, corpus_noise_sigma=0.1, corpus_frames_min=2,
    corpus_frames_max=4, corpus_chapter_utts=50, corpus_book_chapters=4,
    corpus_second_rare_prob=0.25,
    hidden=32, emb_dim=32, attn_dim=32, attn_val_dim=32, encoder_stride=3,
    lr=0.01, epochs=3, batch_size=8, drop_rate=0.4, train_distractors=50,
    clip_norm=5.0,
    list_levels="utterance", list_distractors=50, list_cap=1000,
    chapter_window=1000, book_window=10000, rare_freq_threshold=2,
    beam=8, lm_weight=0.0, max_symbols_per_frame=3, max_len=60,
)

FROZEN_VARIANTS = {"aed": ("baseline", "tcpgen"),
                   "rnnt": ("baseline", "tcpgen_db")}


class BenchError(RuntimeError):
    """The benchmark cannot run here (missing sources, bad checkpoint)."""


def add_src_path() -> None:
    if not os.path.isfile(os.path.join(SRC_DIR, "tcpgen", "__init__.py")):
        raise BenchError(f"package sources not found under {SRC_DIR}")
    if SRC_DIR not in sys.path:
        sys.path.insert(0, SRC_DIR)


def frozen_config(family: str):
    from tcpgen.harness.config import ExperimentConfig, validate_config
    cfg = ExperimentConfig(**PINNED, family=family,
                           variants=",".join(FROZEN_VARIANTS[family]))
    validate_config(cfg)
    return cfg


def manifest_path(family: str) -> str:
    return os.path.join(MODELS_DIR, f"{family}.json")


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        for chunk in iter(lambda: f.read(1 << 16), b""):
            h.update(chunk)
    return h.hexdigest()
