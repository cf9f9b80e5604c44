"""Biasing-list construction at utterance, chapter, and book level, plus the
rare-word list the lists draw from.

Chapter lists grow a window forward from the chapter start (then backward
at a book boundary); book lists center a larger window on the utterance and
spill to the other end at boundaries.  "Least frequent" is resolved against
training-corpus unigram counts with a lexicographic tie-break, and all
distractor sampling is uniform without replacement from a seeded stream.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

from .lexicon import SubwordVocab, tokenize_word
from .rng import Stream

LEVELS = ("utterance", "chapter", "book")


@dataclass(frozen=True)
class BiasingList:
    words: tuple[str, ...]
    level: str
    source_id: str = ""

    def __post_init__(self):
        if self.level not in LEVELS:
            raise ValueError(f"unknown list level {self.level!r}")
        if len(set(self.words)) != len(self.words):
            raise ValueError("biasing list contains duplicates")

    def word_set(self) -> set[str]:
        # copied from a dict, the set is sized for its final count: half the
        # memory of set(tuple) for the large lists callers keep per utterance
        return set(dict.fromkeys(self.words))


@dataclass(frozen=True)
class RareWordList:
    words: tuple[str, ...]   # sorted, deduplicated

    def __post_init__(self):
        if not self.words:
            raise ValueError("rare word list is empty")

    def word_set(self) -> set[str]:
        return set(self.words)


def build_rare_word_list(transcripts, freq_threshold: int) -> RareWordList:
    """Corpus-derived rare list: words at or below a frequency threshold.

    `transcripts` is an iterable of word sequences.
    """
    counts = Counter()
    for words in transcripts:
        counts.update(words)
    if not counts:
        raise ValueError("empty corpus")
    kept = [w for w, c in counts.items() if c <= freq_threshold]
    return RareWordList(tuple(sorted(kept)))


def drop_unsegmentable(vocab: SubwordVocab, words) -> tuple[list[str], list[str]]:
    """Split words into (segmentable, rejected) under `vocab`."""
    ok, bad = [], []
    for w in words:
        try:
            tokenize_word(vocab, w)
            ok.append(w)
        except ValueError:
            bad.append(w)
    return ok, bad


def sample_distractors(rare: RareWordList, exclude: set[str], n: int,
                       stream: Stream) -> list[str]:
    """Uniform sample without replacement from rare \\ exclude."""
    pool = [w for w in rare.words if w not in exclude]
    return stream.sample(pool, n)


def build_utterance_list(ref_words, rare: RareWordList, n_distractors: int,
                         stream: Stream, source_id: str = "") -> BiasingList:
    """Reference rare words plus n sampled distractors (fewer if the pool
    runs out)."""
    ref_set = set(ref_words)
    members = sorted(ref_set.intersection(rare.words))
    distractors = sample_distractors(rare, ref_set, n_distractors, stream)
    return BiasingList(tuple(members + distractors), "utterance", source_id)


def _window_forward(n_lines: int, start: int, end: int, window: int) -> tuple[int, int]:
    """Grow [start, end) forward to `window` lines, then backward at the
    book boundary; clamp to the book."""
    end = min(n_lines, max(end, start + window))
    if end - start < window:
        start = max(0, end - window)
    return start, end


def _window_centered(n_lines: int, start: int, end: int, window: int) -> tuple[int, int]:
    """Center a `window`-line span on [start, end); spill the overhang to
    the other end; clamp to the book."""
    center = (start + end) // 2
    lo = center - window // 2
    hi = lo + window
    if lo < 0:
        hi += -lo
        lo = 0
    if hi > n_lines:
        lo = max(0, lo - (hi - n_lines))
        hi = n_lines
    return lo, hi


def _list_from_window(book_lines, lo: int, hi: int, rare: RareWordList,
                      train_freq, cap: int, level: str, stream: Stream,
                      source_id: str) -> BiasingList:
    rare_set = rare.word_set()
    found = set()
    for line in book_lines[lo:hi]:
        for w in line.split():
            if w in rare_set:
                found.add(w)
    if len(found) > cap:
        # keep the cap least frequent words; ties break lexicographically
        ranked = sorted(found, key=lambda w: (train_freq.get(w, 0), w))
        words = sorted(ranked[:cap])
    else:
        words = sorted(found)
        if len(words) < cap:
            words = words + sample_distractors(rare, set(words),
                                               cap - len(words), stream)
    return BiasingList(tuple(words), level, source_id)


def build_chapter_list(book_lines, chapter_span: tuple[int, int],
                       rare: RareWordList, train_freq, stream: Stream,
                       cap: int = 1000, window: int = 1000,
                       source_id: str = "") -> BiasingList:
    """Rare words in a ~window-line span around the utterance's chapter."""
    lo, hi = _window_forward(len(book_lines), chapter_span[0],
                             chapter_span[1], window)
    return _list_from_window(book_lines, lo, hi, rare, train_freq, cap,
                             "chapter", stream, source_id)


def build_book_list(book_lines, utt_span: tuple[int, int],
                    rare: RareWordList, train_freq, stream: Stream,
                    cap: int = 1000, window: int = 10000,
                    source_id: str = "") -> BiasingList:
    """Rare words in a ~window-line span centered on the utterance."""
    lo, hi = _window_centered(len(book_lines), utt_span[0], utt_span[1],
                              window)
    return _list_from_window(book_lines, lo, hi, rare, train_freq, cap,
                             "book", stream, source_id)


def coverage(refs: dict[str, list[str]], lists: dict[str, BiasingList]) -> float:
    """Biasing word tokens over total word tokens across the set."""
    total = 0
    biased = 0
    for utt_id in sorted(refs):
        words = refs[utt_id]
        total += len(words)
        lst = lists[utt_id].word_set()
        biased += sum(1 for w in words if w in lst)
    if total == 0:
        raise ValueError("no reference tokens")
    return biased / total


def format_list(blist: BiasingList) -> str:
    return "\n".join(blist.words) + "\n"


def parse_list(text: str, level: str, source_id: str = "") -> BiasingList:
    words = tuple(w for w in text.split("\n") if w)
    return BiasingList(words, level, source_id)
