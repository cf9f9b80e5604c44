"""Synthetic audiobook-style corpus: lexicon, transcripts, features, and a
book/chapter index.

Words are built from a fixed consonant-vowel syllable inventory, so the
subword vocabulary (each syllable in word-internal and word-final form)
segments every word.  Rare words are near-miss variants of common words
(one syllable swapped), which is what makes them confusable for a model
that has barely seen them.  Features emit one prototype vector per subword
for 2-4 frames plus Gaussian noise; prototypes are drawn once per corpus,
so acoustic difficulty is set by the prototype scale vs. the noise sigma.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from ..lexicon import WORD_END, SubwordVocab, load_vocab, tokenize_sentence
from ..rng import Stream, derive_seed
from .checkpoint import load_checkpoint, save_checkpoint
from .config import ExperimentConfig

CONSONANTS = "BDGKLMNPRT"
VOWELS = "AEIO"
SYLLABLES = tuple(c + v for c in CONSONANTS for v in VOWELS)


@dataclass
class UttIndex:
    book_id: int
    chapter_id: int
    start_line: int   # into book.txt, end exclusive
    end_line: int


@dataclass
class SyntheticCorpus:
    vocab: SubwordVocab
    common_words: tuple[str, ...]
    rare_words: tuple[str, ...]
    train: dict[str, list[str]]        # utt_id -> word sequence
    test: dict[str, list[str]]
    train_feats: dict[str, np.ndarray]
    test_feats: dict[str, np.ndarray]
    index: dict[str, UttIndex]
    book_lines: list[str]


def build_vocab_text() -> str:
    units = list(SYLLABLES) + [s + WORD_END for s in SYLLABLES]
    return "\n".join(units) + "\n"


def _random_word(stream: Stream) -> str:
    n = 2 + stream.randint(3)
    return "".join(stream.choice(SYLLABLES) for _ in range(n))


def _make_lexicon(cfg: ExperimentConfig, stream: Stream) -> tuple[list[str], list[str]]:
    n_common = cfg.corpus_words - cfg.corpus_rare_words
    common: list[str] = []
    seen = set()
    while len(common) < n_common:
        w = _random_word(stream)
        if w not in seen:
            seen.add(w)
            common.append(w)
    rare: list[str] = []
    while len(rare) < cfg.corpus_rare_words:
        base = stream.choice(common)
        sylls = [base[i:i + 2] for i in range(0, len(base), 2)]
        pos = stream.randint(len(sylls))
        repl = stream.choice(SYLLABLES)
        if repl == sylls[pos]:
            continue
        sylls[pos] = repl
        w = "".join(sylls)
        if w not in seen:
            seen.add(w)
            rare.append(w)
    return common, rare


def _zipf_cdf(n: int, a: float) -> np.ndarray:
    w = 1.0 / np.arange(1, n + 1, dtype=np.float64) ** a
    return np.cumsum(w / w.sum())


def _sample_word(cdf: np.ndarray, words: list[str], stream: Stream) -> str:
    return words[int(np.searchsorted(cdf, stream.uniform(), side="right"))]


def _features_for(vocab: SubwordVocab, words: list[str], protos: np.ndarray,
                  cfg: ExperimentConfig, stream: Stream) -> np.ndarray:
    ids = tokenize_sentence(vocab, words).ids
    frames = []
    span = cfg.corpus_frames_max - cfg.corpus_frames_min + 1
    for sid in ids:
        n = cfg.corpus_frames_min + stream.randint(span)
        for _ in range(n):
            noise = stream.gauss_array((cfg.corpus_feat_dim,),
                                       scale=cfg.corpus_noise_sigma)
            frames.append(protos[sid] + noise)
    return np.stack(frames)


def generate_corpus(cfg: ExperimentConfig, seed: int) -> SyntheticCorpus:
    vocab = load_vocab(build_vocab_text())
    common, rare = _make_lexicon(cfg, Stream(derive_seed(seed, "lexicon")))
    cdf = _zipf_cdf(len(common), cfg.corpus_zipf)

    sent_stream = Stream(derive_seed(seed, "sentences"))
    span = cfg.corpus_max_words - cfg.corpus_min_words + 1

    def sentence() -> list[str]:
        n = cfg.corpus_min_words + sent_stream.randint(span)
        return [_sample_word(cdf, common, sent_stream) for _ in range(n)]

    train = {f"train-{i:04d}": sentence() for i in range(cfg.corpus_train)}
    test = {f"test-{i:04d}": sentence() for i in range(cfg.corpus_test)}

    # rare-word injection: each rare word lands in exactly
    # corpus_rare_occurrences distinct training utterances
    inj = Stream(derive_seed(seed, "inject-train"))
    slots = inj.sample(range(cfg.corpus_train),
                       cfg.corpus_rare_occurrences * cfg.corpus_rare_words)
    for r, word in enumerate(rare):
        for j in range(cfg.corpus_rare_occurrences):
            utt_id = f"train-{slots[r * cfg.corpus_rare_occurrences + j]:04d}"
            words = train[utt_id]
            words[inj.randint(len(words))] = word

    tinj = Stream(derive_seed(seed, "inject-test"))
    for utt_id in sorted(test):
        words = test[utt_id]
        pos = tinj.randint(len(words))
        words[pos] = tinj.choice(rare)
        if tinj.uniform() < cfg.corpus_second_rare_prob:
            pos2 = tinj.randint(len(words))
            if pos2 != pos:
                words[pos2] = tinj.choice(rare)

    protos = Stream(derive_seed(seed, "prototypes")).gauss_array(
        (vocab.n_lexical, cfg.corpus_feat_dim), scale=cfg.corpus_proto_scale)
    train_feats = {u: _features_for(vocab, train[u], protos, cfg,
                                    Stream(derive_seed(seed, "feat", u)))
                   for u in sorted(train)}
    test_feats = {u: _features_for(vocab, test[u], protos, cfg,
                                   Stream(derive_seed(seed, "feat", u)))
                  for u in sorted(test)}

    book_lines: list[str] = []
    index: dict[str, UttIndex] = {}
    per_chapter = cfg.corpus_chapter_utts
    per_book = per_chapter * cfg.corpus_book_chapters
    for utt_id in list(sorted(train)) + list(sorted(test)):
        line_no = len(book_lines)
        words = train.get(utt_id) or test[utt_id]
        book_lines.append(" ".join(words))
        index[utt_id] = UttIndex(book_id=line_no // per_book,
                                 chapter_id=line_no // per_chapter,
                                 start_line=line_no, end_line=line_no + 1)

    return SyntheticCorpus(vocab=vocab, common_words=tuple(common),
                           rare_words=tuple(rare), train=train, test=test,
                           train_feats=train_feats, test_feats=test_feats,
                           index=index, book_lines=book_lines)


def chapter_span(corpus: SyntheticCorpus, utt_id: str) -> tuple[int, int]:
    """Line span of the utterance's chapter in the book text."""
    chap = corpus.index[utt_id].chapter_id
    lines = [ix for ix in corpus.index.values() if ix.chapter_id == chap]
    return (min(ix.start_line for ix in lines),
            max(ix.end_line for ix in lines))


def write_corpus(corpus: SyntheticCorpus, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)

    def path(name):
        return os.path.join(out_dir, name)

    with open(path("lexicon.tsv"), "w", encoding="utf-8") as f:
        for w in corpus.common_words:
            f.write(f"{w}\tcommon\n")
        for w in corpus.rare_words:
            f.write(f"{w}\trare\n")
    for split, trans in (("train", corpus.train), ("test", corpus.test)):
        with open(path(f"{split}.tsv"), "w", encoding="utf-8") as f:
            for u in sorted(trans):
                f.write(f"{u}\t{' '.join(trans[u])}\n")
    save_checkpoint(corpus.train_feats, path("feats_train.tcpg"))
    save_checkpoint(corpus.test_feats, path("feats_test.tcpg"))
    with open(path("book.txt"), "w", encoding="utf-8") as f:
        f.write("\n".join(corpus.book_lines) + "\n")
    with open(path("index.tsv"), "w", encoding="utf-8") as f:
        for u in sorted(corpus.index):
            ix = corpus.index[u]
            f.write(f"{u}\t{ix.book_id}\t{ix.chapter_id}\t"
                    f"{ix.start_line}\t{ix.end_line}\n")
    # written last: its presence marks the corpus complete (stage_data)
    with open(path("vocab.txt"), "w", encoding="utf-8") as f:
        f.write("\n".join(corpus.vocab.units) + "\n")


def load_corpus(data_dir: str) -> SyntheticCorpus:
    def path(name):
        return os.path.join(data_dir, name)

    with open(path("vocab.txt"), "r", encoding="utf-8") as f:
        vocab = load_vocab(f.read())
    common, rare = [], []
    with open(path("lexicon.tsv"), "r", encoding="utf-8") as f:
        for line in f:
            word, kind = line.rstrip("\n").split("\t")
            (rare if kind == "rare" else common).append(word)

    def read_trans(name):
        out: dict[str, list[str]] = {}
        with open(path(name), "r", encoding="utf-8") as f:
            for line in f:
                utt_id, _, text = line.rstrip("\n").partition("\t")
                out[utt_id] = text.split()
        return out

    train = read_trans("train.tsv")
    test = read_trans("test.tsv")
    train_feats = load_checkpoint(path("feats_train.tcpg")).tensors
    test_feats = load_checkpoint(path("feats_test.tcpg")).tensors
    with open(path("book.txt"), "r", encoding="utf-8") as f:
        book_lines = f.read().rstrip("\n").split("\n")
    index: dict[str, UttIndex] = {}
    with open(path("index.tsv"), "r", encoding="utf-8") as f:
        for line in f:
            u, b, c, s, e = line.rstrip("\n").split("\t")
            index[u] = UttIndex(int(b), int(c), int(s), int(e))
    return SyntheticCorpus(vocab=vocab, common_words=tuple(common),
                           rare_words=tuple(rare), train=train, test=test,
                           train_feats=train_feats, test_feats=test_feats,
                           index=index, book_lines=book_lines)
