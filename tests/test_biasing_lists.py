from collections import Counter

import pytest

from tcpgen.biasing_lists import (BiasingList, RareWordList,
                                  build_book_list, build_chapter_list,
                                  build_rare_word_list, build_utterance_list,
                                  coverage, drop_unsegmentable, format_list,
                                  parse_list, sample_distractors)
from tcpgen.lexicon import SubwordVocab
from tcpgen.rng import Stream


def make_rare(*words):
    return RareWordList(tuple(sorted(words)))


# -- rare word list ---------------------------------------------------------

def test_threshold_semantics():
    corpus = [["THE"] * 50 + ["VIGNETTE"], ["THE"] * 50 + ["TURNER", "TURNER"]]
    rare = build_rare_word_list(corpus, freq_threshold=2)
    assert "VIGNETTE" in rare.word_set() and "TURNER" in rare.word_set()
    assert "THE" not in rare.word_set()


def test_threshold_zero_rejects_empty_result():
    with pytest.raises(ValueError):
        build_rare_word_list([["A", "B"]], freq_threshold=0)
    with pytest.raises(ValueError):
        build_rare_word_list([], freq_threshold=1)   # empty corpus


def test_rare_list_matches_counting_oracle():
    stream = Stream(70)
    words = [f"W{i:02d}" for i in range(40)]
    corpus = []
    for _ in range(60):
        corpus.append([words[min(39, int(stream.uniform() ** 2 * 40))]
                       for _ in range(6)])
    counts = Counter(w for sent in corpus for w in sent)
    thr = 3
    want = {w for w, c in counts.items() if c <= thr}
    got = build_rare_word_list(corpus, freq_threshold=thr).word_set()
    assert got == want


# -- utterance level ----------------------------------------------------------

def test_utterance_list_no_distractors():
    rare = make_rare("VIGNETTE", "TURNER", "OTHER")
    bl = build_utterance_list(["THE", "VIGNETTE", "OF", "TURNER"], rare, 0,
                              Stream(71))
    assert bl.words == ("TURNER", "VIGNETTE")
    assert bl.level == "utterance"


def test_utterance_list_pure_distractors():
    rare = make_rare(*(f"R{i}" for i in range(10)))
    bl = build_utterance_list(["COMMON", "WORDS"], rare, 5, Stream(72))
    assert len(bl.words) == 5
    assert set(bl.words) <= rare.word_set()


def test_utterance_list_seeded_and_disjoint():
    rare = make_rare(*(f"R{i}" for i in range(20)), "INREF")
    ref = ["INREF", "X"]
    a = build_utterance_list(ref, rare, 7, Stream(73))
    b = build_utterance_list(ref, rare, 7, Stream(73))
    assert a.words == b.words
    distractors = set(a.words) - {"INREF"}
    assert len(distractors) == 7 and "INREF" not in distractors
    assert not distractors & set(ref)


# -- chapter level --------------------------------------------------------------

def test_chapter_list_padding_to_cap():
    book = ["THE VIGNETTE HERE"] + ["FILLER TEXT"] * 10
    rare = make_rare("VIGNETTE", *(f"R{i:03d}" for i in range(1500)))
    bl = build_chapter_list(book, (0, 1), rare, {}, Stream(74), cap=1000,
                            window=5)
    assert "VIGNETTE" in bl.words
    assert len(bl.words) == 1000


def test_chapter_list_keeps_least_frequent_with_sort_cut_oracle():
    words = [f"R{i:04d}" for i in range(1200)]
    book = [" ".join(words[i:i + 12]) for i in range(0, 1200, 12)]
    rare = make_rare(*words)
    freq = {w: (i * 7) % 100 for i, w in enumerate(words)}
    bl = build_chapter_list(book, (0, len(book)), rare, freq, Stream(75),
                            cap=1000, window=len(book))
    assert len(bl.words) == 1000
    ranked = sorted(words, key=lambda w: (freq[w], w))
    assert set(bl.words) == set(ranked[:1000])
    kept_max = max(freq[w] for w in bl.words)
    excl_min = min(freq[w] for w in set(words) - set(bl.words))
    assert kept_max <= excl_min


def test_chapter_window_grows_forward_then_backward():
    book = [f"W{i:03d}" for i in range(100)]
    rare = make_rare(*(f"W{i:03d}" for i in range(100)))
    # chapter at the end: forward growth hits the boundary, extends backward
    bl = build_chapter_list(book, (95, 100), rare, {}, Stream(76), cap=10,
                            window=10)
    assert set(bl.words) == {f"W{i:03d}" for i in range(90, 100)}
    # chapter at the start grows forward only
    bl2 = build_chapter_list(book, (0, 5), rare, {}, Stream(77), cap=10,
                             window=10)
    assert set(bl2.words) == {f"W{i:03d}" for i in range(0, 10)}


def test_chapter_window_fully_off_rare_vocabulary():
    book = ["COMMON TEXT"] * 30
    rare = make_rare(*(f"R{i:02d}" for i in range(40)))
    bl = build_chapter_list(book, (0, 2), rare, {}, Stream(78), cap=20,
                            window=10)
    assert len(bl.words) == 20
    assert set(bl.words) <= rare.word_set()


# -- book level -------------------------------------------------------------------

def test_book_window_boundary_extension():
    book = [f"W{i:05d}" for i in range(20000)]
    rare = make_rare(*(f"W{i:05d}" for i in range(20000)))
    bl = build_book_list(book, (50, 51), rare, {}, Stream(79), cap=10000,
                         window=10000)
    assert set(bl.words) == {f"W{i:05d}" for i in range(0, 10000)}


def test_book_window_short_book_uses_whole_book():
    book = [f"W{i:04d}" for i in range(3000)]
    rare = make_rare(*(f"W{i:04d}" for i in range(3000)))
    bl = build_book_list(book, (1500, 1501), rare, {}, Stream(80), cap=3000,
                         window=10000)
    assert set(bl.words) == set(rare.word_set())


def test_book_window_mid_book_symmetric():
    book = [f"W{i:05d}" for i in range(30000)]
    rare = make_rare(*(f"W{i:05d}" for i in range(30000)))
    bl = build_book_list(book, (15000, 15001), rare, {}, Stream(81),
                         cap=10000, window=10000)
    assert set(bl.words) == {f"W{i:05d}" for i in range(10000, 20000)}


# -- shared invariants ---------------------------------------------------------------

def test_lists_are_duplicate_free_and_capped():
    rare = make_rare(*(f"R{i:03d}" for i in range(200)))
    book = [" ".join(f"R{i:03d}" for i in range(j, j + 5))
            for j in range(0, 200, 5)]
    for builder, span in ((build_chapter_list, (0, 10)),
                          (build_book_list, (10, 11))):
        bl = builder(book, span, rare, {}, Stream(82), cap=50, window=20)
        assert len(bl.words) == len(set(bl.words)) <= 50


def test_reference_coverage_always_included():
    rare = make_rare("AAA", "BBB", "CCC")
    for n in (0, 1, 3):
        bl = build_utterance_list(["AAA", "XXX", "BBB"], rare, n, Stream(83))
        assert {"AAA", "BBB"} <= set(bl.words)


def test_coverage_statistic():
    refs = {"u1": ["A", "B", "C"], "u2": ["D", "E"]}
    lists = {"u1": BiasingList(("A", "C"), "utterance", "u1"),
             "u2": BiasingList(("Z",), "utterance", "u2")}
    assert coverage(refs, lists) == pytest.approx(2 / 5)


def test_format_parse_roundtrip_and_determinism():
    rare = make_rare(*(f"R{i}" for i in range(30)))
    a = build_utterance_list(["R1", "X"], rare, 10, Stream(84), source_id="u")
    b = build_utterance_list(["R1", "X"], rare, 10, Stream(84), source_id="u")
    assert format_list(a) == format_list(b)
    back = parse_list(format_list(a), "utterance", "u")
    assert back.words == a.words


def test_drop_unsegmentable():
    vocab = SubwordVocab(["KA", "TO_"])
    ok, bad = drop_unsegmentable(vocab, ["KATO", "KAXI", "KAKATO"])
    assert ok == ["KATO", "KAKATO"] and bad == ["KAXI"]


def test_duplicate_biasing_list_rejected():
    with pytest.raises(ValueError):
        BiasingList(("A", "A"), "utterance", "u")
    with pytest.raises(ValueError):
        BiasingList(("A",), "bogus-level", "u")
