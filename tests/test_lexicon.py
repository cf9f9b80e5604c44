import pytest
from hypothesis import given, settings, strategies as st

from tcpgen.lexicon import (SubwordVocab, TokenSeq, UnsegmentableWord,
                            VocabError, detokenize, load_vocab, tokenize_word)


def vocab_of(*units):
    return SubwordVocab(list(units))


def test_load_vocab_line_order_is_id():
    v = load_vocab("TUR\nN_\nIN_\nNER_\n")
    assert v.units == ("TUR", "N_", "IN_", "NER_")
    assert tokenize_word(v, "TURNER").ids == (0, 3)
    assert (v.ool, v.sos, v.eos, v.blank) == (4, 5, 6, 7)
    assert v.is_word_final(1) and not v.is_word_final(0)


def test_load_vocab_duplicate_rejected_with_line():
    with pytest.raises(VocabError, match="line 2"):
        load_vocab("TUR\nTUR\n")


def test_load_vocab_empty_rejected():
    with pytest.raises(VocabError):
        load_vocab("")
    with pytest.raises(VocabError):
        load_vocab("\n\n")


def test_tokenize_forced_segmentation():
    v = vocab_of("TUR", "N_", "IN_", "NER_")
    assert tokenize_word(v, "TURN").ids == (0, 1)


def test_tokenize_greedy_longest_match():
    v = vocab_of("TUR", "N_", "IN_", "NER_")
    assert tokenize_word(v, "TURNER").ids == (0, 3)


def test_tokenize_unsegmentable():
    v = vocab_of("TUR", "N_")
    with pytest.raises(UnsegmentableWord):
        tokenize_word(v, "TURIN")


def test_tokenize_rejects_bad_input():
    v = vocab_of("A_")
    for bad in ("", "a", "A B", "A1"):
        with pytest.raises(ValueError):
            tokenize_word(v, bad)


def test_detokenize_examples():
    v = vocab_of("TUR", "N_", "IN_", "NER_")
    assert detokenize(v, TokenSeq((0, 3))) == (["TURNER"], None)
    assert detokenize(v, TokenSeq((0, 1, 0, 2))) == (["TURN", "TURIN"], None)
    assert detokenize(v, TokenSeq((0,))) == ([], "TUR")


def test_detokenize_rejects_specials():
    v = vocab_of("TUR", "N_")
    with pytest.raises(ValueError):
        detokenize(v, TokenSeq((v.eos,)))


def _brute_force_tokenize(units, word, suffix="_"):
    """Longest prefix at each position, re-derived from scratch."""
    s = word + suffix
    out = []
    pos = 0
    while pos < len(s):
        match = None
        for u in units:
            if s.startswith(u, pos) and (match is None or len(u) > len(match)):
                match = u
        if match is None:
            return None
        out.append(match)
        pos += len(match)
    return out


@st.composite
def vocab_and_word(draw):
    letters = "ABCD"
    pieces = draw(st.sets(
        st.text(alphabet=letters, min_size=1, max_size=3), min_size=1, max_size=8))
    units = sorted(pieces) + sorted({p + "_" for p in draw(st.sets(
        st.text(alphabet=letters, min_size=1, max_size=3), min_size=1, max_size=8))})
    word = draw(st.text(alphabet=letters, min_size=1, max_size=10))
    return units, word


@settings(max_examples=300, deadline=None)
@given(vocab_and_word())
def test_greedy_matches_brute_force_oracle(vw):
    units, word = vw
    v = SubwordVocab(units)
    expect = _brute_force_tokenize(units, word)
    if expect is None:
        with pytest.raises(UnsegmentableWord):
            tokenize_word(v, word)
    else:
        got = tokenize_word(v, word)
        assert [v.units[i] for i in got.ids] == expect
        assert "".join(expect) == word + "_"


@settings(max_examples=300, deadline=None)
@given(vocab_and_word())
def test_roundtrip_for_segmentable_words(vw):
    units, word = vw
    v = SubwordVocab(units)
    try:
        seq = tokenize_word(v, word)
    except UnsegmentableWord:
        return
    words, partial = detokenize(v, seq)
    assert words == [word] and partial is None


def test_tokenize_deterministic():
    v = vocab_of("TUR", "N_", "IN_", "NER_")
    assert tokenize_word(v, "TURNER").ids == tokenize_word(v, "TURNER").ids
