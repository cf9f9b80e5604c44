import pytest
from hypothesis import given, settings, strategies as st

from tcpgen.biasing_tree import (DETACHED_STATE, ROOT_STATE, advance_state,
                                 build_tree, valid_set)
from tcpgen.lexicon import SubwordVocab, UnsegmentableWord, tokenize_word

from helpers import oracle_valid_set, random_tree_case, tree_words

FIG_VOCAB = SubwordVocab(["TUR", "N_", "NER_", "IN_"])


def ids(*units):
    return [FIG_VOCAB.units.index(u) for u in units]


def test_three_word_tree_structure():
    # {TURN, TURNER, TURIN}: root -> TUR -> {N_ (end), NER_ (end), IN_ (end)}
    tree = build_tree(FIG_VOCAB, ["TURN", "TURNER", "TURIN"])
    assert valid_set(tree, ROOT_STATE) == ids("TUR")
    after_tur = advance_state(tree, ROOT_STATE, FIG_VOCAB.units.index("TUR"))
    assert valid_set(tree, after_tur) == ids("N_", "NER_", "IN_")
    assert tree_words(FIG_VOCAB, tree) == ["TURIN", "TURN", "TURNER"]


def test_two_word_tree_valid_pieces_after_tur():
    # with previous output TUR, n_ and in_ are the two valid word pieces
    tree = build_tree(FIG_VOCAB, ["TURN", "TURIN"])
    after_tur = advance_state(tree, ROOT_STATE, FIG_VOCAB.units.index("TUR"))
    assert valid_set(tree, after_tur) == ids("N_", "IN_")


def test_empty_list_gives_root_only_tree():
    tree = build_tree(FIG_VOCAB, [])
    assert len(tree.children) == 1
    assert valid_set(tree, ROOT_STATE) == []


def test_duplicates_collapse():
    a = build_tree(FIG_VOCAB, ["TURN", "TURN"])
    b = build_tree(FIG_VOCAB, ["TURN"])
    assert a.children == b.children
    assert tree_words(FIG_VOCAB, a) == ["TURN"]


def test_unsegmentable_words_skipped_and_reported():
    v = SubwordVocab(["TUR", "N_"])
    tree = build_tree(v, ["TURN", "TURIN"])
    assert tree_words(v, tree) == ["TURN"]


def test_node_count_bound():
    words = ["TURN", "TURNER", "TURIN"]
    tree = build_tree(FIG_VOCAB, words)
    total_tokens = sum(len(tokenize_word(FIG_VOCAB, w)) for w in words)
    assert len(tree.children) <= 1 + total_tokens


def test_word_final_resets_to_root():
    tree = build_tree(FIG_VOCAB, ["TURNER"])
    st1 = advance_state(tree, ROOT_STATE, FIG_VOCAB.units.index("TUR"))
    assert st1 != ROOT_STATE
    st2 = advance_state(tree, st1, FIG_VOCAB.units.index("NER_"))
    assert st2 == ROOT_STATE


def test_off_tree_word_final_goes_to_root():
    tree = build_tree(FIG_VOCAB, ["TURN"])
    assert advance_state(tree, ROOT_STATE, FIG_VOCAB.units.index("N_")) == ROOT_STATE


def test_off_tree_word_internal_detaches_and_stays():
    v = SubwordVocab(["TUR", "X", "N_"])
    tree = build_tree(v, ["TURN"])
    st1 = advance_state(tree, ROOT_STATE, v.units.index("X"))
    assert st1 == DETACHED_STATE
    assert valid_set(tree, st1) == []
    st2 = advance_state(tree, st1, v.units.index("TUR"))
    assert st2 == DETACHED_STATE
    # word boundary reattaches
    assert advance_state(tree, st1, v.units.index("N_")) == ROOT_STATE


def test_non_lexical_id_rejected():
    tree = build_tree(FIG_VOCAB, ["TURN"])
    with pytest.raises(ValueError):
        advance_state(tree, ROOT_STATE, FIG_VOCAB.eos)


def test_oracle_equivalence_bulk():
    from tcpgen.rng import Stream
    stream = Stream(2024)
    for _ in range(300):
        vocab, tree, seqs, emitted = random_tree_case(stream)
        state = ROOT_STATE
        word_final = tuple(vocab._word_final)
        for i in range(len(emitted) + 1):
            got = valid_set(tree, state)
            want = oracle_valid_set(seqs, emitted[:i], word_final)
            assert got == want, (emitted[:i], got, want)
            if i < len(emitted):
                state = advance_state(tree, state, emitted[i])
                if word_final[emitted[i]]:
                    assert state == ROOT_STATE


def test_valid_set_size_bounded_by_branching():
    from tcpgen.rng import Stream
    stream = Stream(99)
    vocab, tree, seqs, emitted = random_tree_case(stream)
    max_branch = max(len(c) for c in tree.children)
    state = ROOT_STATE
    for tok in emitted:
        assert len(valid_set(tree, state)) <= max_branch
        state = advance_state(tree, state, tok)
