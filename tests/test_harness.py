import os
from collections import Counter

import numpy as np
import pytest

from tcpgen.harness.checkpoint import (CheckpointError, load_checkpoint,
                                       save_checkpoint)
from tcpgen.harness.config import (ConfigError, ExperimentConfig, parse_config)
from tcpgen.harness.corpus import (SYLLABLES, build_vocab_text, chapter_span,
                                   generate_corpus, load_corpus, write_corpus)
from tcpgen.harness import cli, corpus as corpus_mod
from tcpgen.harness.experiment import StageError, run_paths, stage_data
from tcpgen.lexicon import tokenize_sentence
from tcpgen.rng import Stream


def small_cfg(**kw) -> ExperimentConfig:
    cfg = ExperimentConfig(corpus_words=30, corpus_rare_words=6,
                           corpus_train=40, corpus_test=8,
                           corpus_chapter_utts=10, corpus_book_chapters=2,
                           epochs=1, batch_size=4, beam=2, max_len=30,
                           corpus_feat_dim=4, hidden=6, emb_dim=6,
                           attn_dim=4, attn_val_dim=4, list_distractors=3,
                           train_distractors=3)
    for k, v in kw.items():
        setattr(cfg, k, v)
    return cfg


# -- config -------------------------------------------------------------------

def test_parse_config_roundtrip_and_comments():
    text = "seed = 23\n# a comment\nfamily = rnnt\nlr = 0.5  # inline\n"
    cfg = parse_config(text)
    assert cfg.seed == 23 and cfg.family == "rnnt" and cfg.lr == 0.5


def test_parse_config_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("bogus = 1\n")


def test_parse_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        parse_config("seed = notanint\n")
    with pytest.raises(ConfigError):
        parse_config("family = transformer\n")
    with pytest.raises(ConfigError):
        parse_config("variants = baseline,warp\n")
    with pytest.raises(ConfigError):
        parse_config("drop_rate = 1.5\n")
    for key in ("beam", "epochs", "batch_size", "hidden", "emb_dim", "attn_dim",
                "attn_val_dim", "encoder_stride", "max_len", "corpus_train",
                "corpus_test", "corpus_rare_words", "corpus_min_words",
                "corpus_chapter_utts", "corpus_book_chapters", "lr"):
        for value in ("0", "-1"):
            with pytest.raises(ConfigError, match=f"{key} must be > 0"):
                parse_config(f"{key} = {value}\n")
    with pytest.raises(ConfigError, match="corpus_words must exceed"):
        parse_config("corpus_words = 30\ncorpus_rare_words = 30\n")
    with pytest.raises(ConfigError, match="corpus_min_words must be <="):
        parse_config("corpus_min_words = 5\ncorpus_max_words = 4\n")
    with pytest.raises(ConfigError, match="lr must be > 0"):
        parse_config("lr = nan\n")
    for key in ("lm_weight", "max_symbols_per_frame", "train_distractors",
                "list_distractors", "corpus_rare_occurrences"):
        with pytest.raises(ConfigError, match=f"{key} must be >= 0"):
            parse_config(f"{key} = -1\n")
        parse_config(f"{key} = 0\n")


def test_config_hash_depends_on_every_key():
    a = ExperimentConfig()
    b = ExperimentConfig(beam=9)
    assert a.run_hash() != b.run_hash()
    assert a.run_hash() == ExperimentConfig().run_hash()
    assert len(a.run_hash()) == 16


# -- checkpoint ---------------------------------------------------------------

def test_checkpoint_roundtrip_bit_exact(tmp_path):
    tensors = {
        "a.mat": Stream(1).gauss_array((3, 4)),
        "b.vec": Stream(2).gauss_array((7,)),
        "c.scalar": np.array(3.25),
    }
    p = str(tmp_path / "m.tcpg")
    save_checkpoint(tensors, p, config_text="x = 1\n")
    ck = load_checkpoint(p)
    assert ck.version == 1 and ck.config_text == "x = 1\n"
    for k, v in tensors.items():
        assert np.array_equal(ck.tensors[k], v)
        assert ck.tensors[k].dtype == np.float64
    p2 = str(tmp_path / "m2.tcpg")
    save_checkpoint(ck.tensors, p2)
    assert open(p, "rb").read() == open(p2, "rb").read()


def test_checkpoint_empty_set(tmp_path):
    p = str(tmp_path / "empty.tcpg")
    save_checkpoint({}, p)
    assert load_checkpoint(p).tensors == {}


def test_checkpoint_truncation_names_offender(tmp_path):
    tensors = {"aed.W_out": Stream(3).gauss_array((4, 4))}
    p = str(tmp_path / "t.tcpg")
    save_checkpoint(tensors, p)
    blob = open(p, "rb").read()
    with open(p, "wb") as f:
        f.write(blob[:-8])
    with pytest.raises(CheckpointError, match="aed.W_out"):
        load_checkpoint(p)


def test_checkpoint_bad_magic_and_trailing(tmp_path):
    p = str(tmp_path / "bad.tcpg")
    with open(p, "wb") as f:
        f.write(b"NOPE" + b"\x00" * 12)
    with pytest.raises(CheckpointError, match="magic"):
        load_checkpoint(p)
    save_checkpoint({}, p)
    with open(p, "ab") as f:
        f.write(b"z")
    with pytest.raises(CheckpointError, match="trailing"):
        load_checkpoint(p)


def test_checkpoint_rejects_non_finite():
    with pytest.raises(ValueError):
        save_checkpoint({"x": np.array([np.nan])}, "/tmp/never-written.tcpg")


# -- corpus --------------------------------------------------------------------

def test_vocab_covers_all_syllables():
    text = build_vocab_text()
    units = text.strip().split("\n")
    assert len(units) == 2 * len(SYLLABLES)
    assert set(units) == set(SYLLABLES) | {s + "_" for s in SYLLABLES}


def test_corpus_shapes_and_rare_occurrence_bound():
    cfg = small_cfg()
    corpus = generate_corpus(cfg, seed=5)
    assert len(corpus.train) == 40 and len(corpus.test) == 8
    assert len(corpus.common_words) == 24 and len(corpus.rare_words) == 6
    counts = Counter()
    for words in corpus.train.values():
        for w in set(words):
            if w in set(corpus.rare_words):
                counts[w] += 1
    assert counts and all(c <= cfg.corpus_rare_occurrences
                          for c in counts.values())
    for words in corpus.train.values():
        assert cfg.corpus_min_words <= len(words) <= cfg.corpus_max_words
    # every test utterance carries at least one rare word
    rare = set(corpus.rare_words)
    assert all(any(w in rare for w in words) for words in corpus.test.values())


def test_corpus_features_are_prototype_repeats_when_noiseless():
    cfg = small_cfg(corpus_noise_sigma=0.0)
    corpus = generate_corpus(cfg, seed=6)
    utt = sorted(corpus.train)[0]
    feats = corpus.train_feats[utt]
    ids = tokenize_sentence(corpus.vocab, corpus.train[utt]).ids
    protos = {tuple(np.round(r, 12)) for r in feats}
    assert len(protos) <= len(set(ids))
    span = cfg.corpus_frames_max - cfg.corpus_frames_min + 1
    assert cfg.corpus_frames_min * len(ids) <= len(feats) \
        <= cfg.corpus_frames_max * len(ids)


def test_corpus_write_load_and_determinism(tmp_path):
    cfg = small_cfg()
    c1 = generate_corpus(cfg, seed=7)
    c2 = generate_corpus(cfg, seed=7)
    d1, d2 = str(tmp_path / "a"), str(tmp_path / "b")
    write_corpus(c1, d1)
    write_corpus(c2, d2)
    for name in ("vocab.txt", "lexicon.tsv", "train.tsv", "test.tsv",
                 "book.txt", "index.tsv", "feats_train.tcpg",
                 "feats_test.tcpg"):
        b1 = open(os.path.join(d1, name), "rb").read()
        b2 = open(os.path.join(d2, name), "rb").read()
        assert b1 == b2, name
    loaded = load_corpus(d1)
    assert loaded.train == c1.train and loaded.test == c1.test
    assert loaded.rare_words == c1.rare_words
    for u in c1.train:
        assert np.array_equal(loaded.train_feats[u], c1.train_feats[u])
    assert loaded.book_lines == c1.book_lines
    # different seed -> different transcripts
    c3 = generate_corpus(cfg, seed=8)
    assert c3.train != c1.train


def test_stage_data_regenerates_after_interrupted_write(tmp_path, monkeypatch):
    """A corpus whose write failed part-way is not loaded as complete."""
    cfg = small_cfg()
    paths = run_paths(cfg, str(tmp_path))
    calls = []

    def failing_save(tensors, path, **kw):
        calls.append(path)
        if len(calls) == 2:
            raise OSError("disk full")
        return save_checkpoint(tensors, path, **kw)

    monkeypatch.setattr(corpus_mod, "save_checkpoint", failing_save)
    with pytest.raises(StageError) as info:
        stage_data(cfg, paths)
    assert info.value.stage == "gen-data"
    monkeypatch.undo()
    got = stage_data(cfg, paths)
    fresh = generate_corpus(cfg, cfg.seed)
    for c in (got, load_corpus(paths.data)):
        assert c.train == fresh.train and c.test == fresh.test
        assert c.rare_words == fresh.rare_words
        assert c.book_lines == fresh.book_lines
        for u in fresh.train:
            assert np.array_equal(c.train_feats[u], fresh.train_feats[u])
        for u in fresh.test:
            assert np.array_equal(c.test_feats[u], fresh.test_feats[u])


def test_chapter_span_covers_whole_chapter():
    cfg = small_cfg()
    corpus = generate_corpus(cfg, seed=9)
    span = chapter_span(corpus, "train-0003")
    assert span == (0, cfg.corpus_chapter_utts)
    ix = corpus.index["train-0003"]
    assert span[0] <= ix.start_line < ix.end_line <= span[1]


# -- CLI -----------------------------------------------------------------------

def write_small_config(tmp_path, **kw) -> str:
    cfg = small_cfg(**kw)
    p = str(tmp_path / "exp.cfg")
    with open(p, "w") as f:
        f.write(cfg.canonical_text())
    return p


def test_cli_gen_data_and_error_paths(tmp_path, capsys):
    cfg_path = write_small_config(tmp_path)
    out = str(tmp_path / "runs")
    assert cli.main(["gen-data", "--config", cfg_path, "--out", out]) == 0
    runs = os.listdir(out)
    assert len(runs) == 1
    assert os.path.exists(os.path.join(out, runs[0], "data", "vocab.txt"))
    # unknown config key -> exit 1 with machine-parsable error line
    bad = str(tmp_path / "bad.cfg")
    with open(bad, "w") as f:
        f.write("nonsense = 1\n")
    assert cli.main(["gen-data", "--config", bad, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:")
    # a bad value fails at parse time, before any training
    with open(bad, "w") as f:
        f.write(small_cfg(beam=0).canonical_text())
    assert cli.main(["train", "--config", bad, "--out", out]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: config:") and err.count("\n") == 1
    assert not any("ckpt" in dirs for _, dirs, _ in os.walk(out))


def test_cli_decode_without_training_fails_cleanly(tmp_path, capsys):
    cfg_path = write_small_config(tmp_path)
    out = str(tmp_path / "runs")
    assert cli.main(["gen-data", "--config", cfg_path, "--out", out]) == 0
    rc = cli.main(["decode", "--config", cfg_path, "--out", out])
    assert rc == 1
    assert "error:" in capsys.readouterr().err
