"""Flat key = value experiment configuration.

One option per line, '#' starts a comment, unknown keys are rejected.
The canonical rendering (sorted keys) feeds the run-directory hash, so two
configs hash alike exactly when every effective option matches.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..rng import hash_bytes


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    seed: int = 17
    data_dir: str = ""              # empty: generate under the run dir

    # synthetic corpus
    corpus_words: int = 150
    corpus_rare_words: int = 30
    corpus_train: int = 2000
    corpus_test: int = 200
    corpus_rare_occurrences: int = 2   # max training utterances per rare word
    corpus_min_words: int = 3
    corpus_max_words: int = 8
    corpus_zipf: float = 1.2
    corpus_feat_dim: int = 16
    corpus_proto_scale: float = 0.18
    corpus_noise_sigma: float = 0.1
    corpus_frames_min: int = 2
    corpus_frames_max: int = 4
    corpus_chapter_utts: int = 50
    corpus_book_chapters: int = 4
    corpus_second_rare_prob: float = 0.25

    # model
    family: str = "aed"             # aed | rnnt
    variants: str = "baseline,tcpgen"
    hidden: int = 32
    emb_dim: int = 32
    attn_dim: int = 32
    attn_val_dim: int = 32
    encoder_stride: int = 3

    # training
    lr: float = 0.01
    epochs: int = 3
    batch_size: int = 8
    drop_rate: float = 0.4
    train_distractors: int = 50
    clip_norm: float = 5.0

    # biasing lists
    list_levels: str = "utterance"  # comma list of utterance|chapter|book
    list_distractors: int = 50
    list_cap: int = 1000
    chapter_window: int = 1000
    book_window: int = 10000
    rare_freq_threshold: int = 2

    # decoding
    beam: int = 8
    lm_weight: float = 0.0
    max_symbols_per_frame: int = 3
    max_len: int = 60

    def variant_list(self) -> list[str]:
        return [v.strip() for v in self.variants.split(",") if v.strip()]

    def level_list(self) -> list[str]:
        return [v.strip() for v in self.list_levels.split(",") if v.strip()]

    def canonical_text(self) -> str:
        lines = []
        for f in sorted(fields(self), key=lambda f: f.name):
            lines.append(f"{f.name} = {getattr(self, f.name)}")
        return "\n".join(lines) + "\n"

    def run_hash(self) -> str:
        return f"{hash_bytes(0, self.canonical_text().encode()):016x}"


def parse_config(text: str) -> ExperimentConfig:
    cfg = ExperimentConfig()
    types = {f.name: f.type for f in fields(cfg)}
    for lineno, raw in enumerate(text.split("\n"), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in types:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        kind = types[key]
        try:
            if kind in ("int", int):
                setattr(cfg, key, int(value))
            elif kind in ("float", float):
                setattr(cfg, key, float(value))
            else:
                setattr(cfg, key, value)
        except ValueError as e:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {e}") from e
    validate_config(cfg)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as f:
        return parse_config(f.read())


POSITIVE_KEYS = ("beam", "epochs", "batch_size", "hidden", "emb_dim", "attn_dim",
                 "attn_val_dim", "encoder_stride", "max_len", "corpus_train",
                 "corpus_test", "corpus_rare_words", "corpus_min_words",
                 "corpus_chapter_utts", "corpus_book_chapters", "lr")
NON_NEGATIVE_KEYS = ("lm_weight", "max_symbols_per_frame", "train_distractors",
                     "list_distractors", "corpus_rare_occurrences")


def validate_config(cfg: ExperimentConfig) -> None:
    for key in POSITIVE_KEYS:
        if not getattr(cfg, key) > 0:
            raise ConfigError(f"{key} must be > 0, got {getattr(cfg, key)}")
    for key in NON_NEGATIVE_KEYS:
        if not getattr(cfg, key) >= 0:
            raise ConfigError(f"{key} must be >= 0, got {getattr(cfg, key)}")
    if cfg.family not in ("aed", "rnnt"):
        raise ConfigError(f"unknown family {cfg.family!r}")
    from ..toy_models import VARIANTS
    for v in cfg.variant_list():
        if v not in VARIANTS:
            raise ConfigError(f"unknown variant {v!r}")
    for lv in cfg.level_list():
        if lv not in ("utterance", "chapter", "book"):
            raise ConfigError(f"unknown list level {lv!r}")
    if not cfg.variant_list():
        raise ConfigError("variants must not be empty")
    if not 0.0 <= cfg.drop_rate <= 1.0:
        raise ConfigError("drop_rate must lie in [0, 1]")
    if cfg.corpus_words <= cfg.corpus_rare_words:
        raise ConfigError("corpus_words must exceed corpus_rare_words")
    if cfg.corpus_min_words > cfg.corpus_max_words:
        raise ConfigError("corpus_min_words must be <= corpus_max_words")
    if cfg.corpus_rare_occurrences * cfg.corpus_rare_words > cfg.corpus_train:
        raise ConfigError("not enough training utterances for rare-word slots")
    if cfg.corpus_frames_min < 1 or cfg.corpus_frames_max < cfg.corpus_frames_min:
        raise ConfigError("bad frame count range")
