"""Subword vocabulary, special symbols, and word <-> subword segmentation.

The subword inventory is closed: every unit either ends with the word-end
suffix `_` (word-final) or not (word-internal).  Words are segmented by greedy
longest match after appending the suffix, so segmentation is a pure
function of (vocab, word).
"""

from __future__ import annotations

from dataclasses import dataclass


class VocabError(ValueError):
    pass


class UnsegmentableWord(ValueError):
    def __init__(self, word: str, position: int):
        super().__init__(f"no subword covers {word!r} at position {position}")
        self.word = word
        self.position = position


# Specials are appended after the lexical units, in this fixed order.
SPECIALS = ("<ool>", "<sos>", "<eos>", "<blank>")
WORD_END = "_"   # suffix marking word-final units


class SubwordVocab:
    """Closed subword alphabet; id = position (lexical first, then specials).

    Immutable after construction; safe to share across workers.  It owns
    the memo of successful `tokenize_word` results, which only caches a
    pure function of (vocab, word).
    """

    def __init__(self, units: list[str]):
        if not units:
            raise VocabError("vocabulary has no lexical units")
        self.units = tuple(units)
        self.n_lexical = len(self.units)
        self.ool = self.n_lexical
        self.sos = self.n_lexical + 1
        self.eos = self.n_lexical + 2
        self.blank = self.n_lexical + 3
        self.n_total = self.n_lexical + len(SPECIALS)
        self._index = {u: i for i, u in enumerate(self.units)}
        if len(self._index) != self.n_lexical:
            raise VocabError("duplicate subword unit")
        self._word_final = tuple(u.endswith(WORD_END) for u in self.units)
        self._max_unit_len = max(len(u) for u in self.units)
        self._segmentations: dict[str, TokenSeq] = {}

    def is_lexical(self, sid: int) -> bool:
        return 0 <= sid < self.n_lexical

    def is_word_final(self, sid: int) -> bool:
        return self._word_final[sid]

    def __len__(self) -> int:
        return self.n_total

    def __repr__(self) -> str:
        return f"SubwordVocab({self.n_lexical} lexical units)"


@dataclass(frozen=True)
class TokenSeq:
    """Sequence of lexical subword ids."""

    ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.ids)


def load_vocab(text: str) -> SubwordVocab:
    """Parse a vocab file body: one subword per line, line index = id."""
    if text.strip() == "":
        raise VocabError("empty vocabulary file")
    units: list[str] = []
    seen: dict[str, int] = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line == "" and lineno == text.count("\n") + 1:
            break  # trailing newline
        unit = line.rstrip("\r")
        if unit == "":
            raise VocabError(f"empty subword at line {lineno}")
        if unit in seen:
            raise VocabError(
                f"duplicate subword {unit!r} at line {lineno} "
                f"(first at line {seen[unit]})")
        seen[unit] = lineno
        units.append(unit)
    return SubwordVocab(units)


def tokenize_word(vocab: SubwordVocab, word: str) -> TokenSeq:
    """Greedy longest-match segmentation of `word` + word-end suffix.

    Results are memoised on the vocab; a bad word raises on every call.
    """
    seq = vocab._segmentations.get(word)
    if seq is None:
        seq = vocab._segmentations[word] = _segment(vocab, word)
    return seq


def _segment(vocab: SubwordVocab, word: str) -> TokenSeq:
    if not word or not word.isalpha() or word.upper() != word:
        raise ValueError(f"word must be nonempty uppercase letters: {word!r}")
    s = word + WORD_END
    ids: list[int] = []
    pos = 0
    while pos < len(s):
        best = -1
        limit = min(vocab._max_unit_len, len(s) - pos)
        for n in range(limit, 0, -1):
            cand = vocab._index.get(s[pos:pos + n])
            if cand is not None:
                best = cand
                pos += n
                break
        if best < 0:
            raise UnsegmentableWord(word, pos)
        ids.append(best)
    return TokenSeq(tuple(ids))


def detokenize(vocab: SubwordVocab, seq: TokenSeq) -> tuple[list[str], str | None]:
    """Recover words by splitting at word-final units.

    Returns (complete words, trailing partial fragment or None).
    """
    words: list[str] = []
    buf = ""
    for sid in seq:
        if not vocab.is_lexical(sid):
            raise ValueError(f"non-lexical id {sid} in token sequence")
        unit = vocab.units[sid]
        if vocab.is_word_final(sid):
            words.append(buf + unit[:-1])
            buf = ""
        else:
            buf += unit
    return words, (buf if buf else None)


def tokenize_sentence(vocab: SubwordVocab, words: list[str]) -> TokenSeq:
    ids: list[int] = []
    for w in words:
        ids.extend(tokenize_word(vocab, w).ids)
    return TokenSeq(tuple(ids))
