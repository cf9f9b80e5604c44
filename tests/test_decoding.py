import math

import numpy as np
import pytest

from tcpgen import autodiff as ad
from tcpgen import decoding
from tcpgen.biasing_tree import (DETACHED_STATE, ROOT_STATE, advance_state,
                                 build_tree)
from tcpgen.decoding import (BigramLM, DecodeConfig, beam_search_aed,
                             beam_search_rnnt, format_nbest, fuse_lm,
                             hypothesis_words, train_bigram_lm)
from tcpgen.lexicon import SubwordVocab
from tcpgen.rng import Stream

from helpers import (FakeAED, FakeRNNT, TINY_VOCAB, copy_shared_weights,
                     enumerate_rnnt_marginals, lm_context,
                     reference_beam_search_aed,
                     reference_beam_search_rnnt, tiny_model)

V2 = SubwordVocab(["A_", "B_"])   # 2 lexical units


# -- scripted-model oracles ------------------------------------------------

def test_aed_beam1_on_one_hot_model_is_greedy_argmax_chain():
    one_hot = [
        [0.0, 1.0, 0.0],   # emit B
        [1.0, 0.0, 0.0],   # emit A
        [0.0, 0.0, 1.0],   # emit EOS
    ]
    m = FakeAED(V2, one_hot)
    best = beam_search_aed(m, np.zeros((2, 1)), None,
                           DecodeConfig(beam=1, max_len=10))[0]
    assert best.tokens == (1, 0)
    assert best.log_score == pytest.approx(0.0, abs=1e-12)
    assert not best.hit_max_len


def enumerate_aed(model, feats, max_len, lm=None, lam=0.0):
    """Exhaustive search over token sequences ending in EOS."""
    L = model.vocab.n_lexical
    results = {}
    with ad.no_grad():
        h_enc = model.encode(feats)

        def rec(state, y_prev, tokens, score):
            p, new_state, _ = model.step(h_enc, state, y_prev, [])
            with np.errstate(divide="ignore"):
                logp = np.log(p.data)
            if lm is not None:
                logp = fuse_lm(logp, lm, lm_context(lm, tokens), lam,
                               include_eos=True)
            results[tuple(tokens)] = score + logp[L]
            if len(tokens) < max_len - 1:
                for sym in range(L):
                    if logp[sym] == -math.inf:
                        continue
                    rec(new_state, sym, tokens + [sym], score + logp[sym])

        rec(model.init_state(), model.vocab.sos, [], 0.0)
    return results


def test_aed_full_beam_matches_exhaustive_enumeration():
    table = [
        [0.5, 0.3, 0.2],
        [0.1, 0.6, 0.3],
        [0.2, 0.2, 0.6],
    ]
    m = FakeAED(V2, table)
    feats = np.zeros((3, 1))
    cfg = DecodeConfig(beam=10 ** 6, max_len=3)
    hyps = beam_search_aed(m, feats, None, cfg)
    want = enumerate_aed(m, feats, max_len=3)
    ranked = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))
    got_eos = [h for h in hyps if not h.hit_max_len]
    assert len(got_eos) >= len(ranked)
    for (tokens, score), hyp in zip(ranked, got_eos):
        assert hyp.tokens == tokens
        assert hyp.log_score == pytest.approx(score, rel=1e-12)


def test_aed_beam_monotonicity():
    m = tiny_model("aed", "baseline", 52)
    feats = Stream(53).gauss_array((4, 2))
    best_by_beam = []
    for beam in (1, 2, 4, 64):
        hyps = beam_search_aed(m, feats, None, DecodeConfig(beam=beam, max_len=8))
        best_by_beam.append(hyps[0].log_score)
    assert all(b2 >= b1 - 1e-12 for b1, b2 in zip(best_by_beam, best_by_beam[1:]))


def test_rnnt_beam1_on_one_hot_table_is_greedy_alignment():
    # frame 0 emits label 1 then blank; frame 1 emits blank
    table = {
        (0, 0): [0.0, 1.0, 0.0],   # label 1
        (0, 1): [0.0, 0.0, 1.0],   # blank
        (1, 1): [0.0, 0.0, 1.0],   # blank
        (1, 0): [0.0, 0.0, 1.0],
    }
    m = FakeRNNT(V2, table)
    hyps = beam_search_rnnt(m, np.zeros((2, 1)), None,
                            DecodeConfig(beam=1, max_symbols_per_frame=2))
    assert hyps[0].tokens == (1,)
    assert hyps[0].log_score == pytest.approx(0.0, abs=1e-12)


def test_rnnt_full_beam_matches_alignment_enumeration():
    stream = Stream(54)
    T, L, cap = 3, 2, 2
    table = {}
    for t in range(T):
        for u in range(T * cap + 1):
            raw = np.array([stream.uniform() + 0.05 for _ in range(L + 1)])
            table[(t, u)] = raw / raw.sum()
    m = FakeRNNT(V2, table)
    cfg = DecodeConfig(beam=10 ** 6, max_symbols_per_frame=cap)
    hyps = beam_search_rnnt(m, np.zeros((T, 1)), None, cfg)
    want = enumerate_rnnt_marginals(table, T, L, cap)
    assert len(hyps) == len(want)
    ranked = sorted(want.items(), key=lambda kv: (-kv[1], kv[0]))
    for (tokens, score), hyp in zip(ranked, hyps):
        assert hyp.tokens == tokens
        assert hyp.log_score == pytest.approx(score, abs=1e-10)


def test_rnnt_real_model_top1_matches_enumeration():
    m = tiny_model("rnnt", "baseline", 55)
    feats = Stream(56).gauss_array((3, 2))
    cap = 1
    cfg = DecodeConfig(beam=4096, max_symbols_per_frame=cap)
    hyps = beam_search_rnnt(m, feats, None, cfg)
    # recursive enumeration through the real joint network
    L = m.vocab.n_lexical
    out = {}
    with ad.no_grad():
        h_enc = m.encode(feats)
        rows = [ad.Tensor(h_enc.data[t:t + 1]) for t in range(3)]

        def rec(t, this_frame, state, y_prev, tokens, acc):
            if t == 3:
                key = tuple(tokens)
                out[key] = np.logaddexp(out[key], acc) if key in out else acc
                return
            p, _ = m.joint_rows(state, rows[t], y_prev, [])
            logp = np.log(p.data[0])
            rec(t + 1, 0, state, y_prev, tokens, acc + logp[L])
            if this_frame < cap:
                for sym in range(L):
                    rec(t, this_frame + 1, m.predictor_step(state, sym), sym,
                        tokens + [sym], acc + logp[sym])

        rec(0, 0, m.predictor_step(m.init_pred_state(), m.vocab.sos),
            m.vocab.sos, [], 0.0)
    ranked = sorted(out.items(), key=lambda kv: (-kv[1], kv[0]))
    assert hyps[0].tokens == ranked[0][0]
    assert hyps[0].log_score == pytest.approx(ranked[0][1], abs=1e-10)


# -- survivors-only searches vs the full-expansion references ---------------

def nbest_fields(hyps):
    return [(h.tokens, h.log_score, h.tree_state, h.hit_max_len)
            for h in hyps]


AED_GRID = [DecodeConfig(beam=beam, lm_weight=lam, max_len=max_len)
            for beam in (1, 2, 4, 64) for max_len in (1, 3, 8)
            for lam in (0.0, 0.7)]


@pytest.mark.parametrize("variant", ["baseline", "db", "tcpgen", "tcpgen_db"])
def test_aed_search_matches_full_expansion_reference(variant):
    m = tiny_model("aed", variant, 74)
    lm = train_bigram_lm([[0, 1, 3], [2, 4], [1, 1, 0]], TINY_VOCAB)
    trees = [None, build_tree(TINY_VOCAB, []),
             build_tree(TINY_VOCAB, ["KATO", "KARI", "TORI"])]
    feats = Stream(75).gauss_array((4, 2))
    detached = False
    for tree in trees:
        for cfg in AED_GRID:
            use_lm = lm if cfg.lm_weight > 0 else None
            got = beam_search_aed(m, feats, tree, cfg, lm=use_lm)
            want = reference_beam_search_aed(m, feats, tree, cfg, lm=use_lm)
            assert nbest_fields(got) == nbest_fields(want), (tree, cfg)
            detached |= any(h.tree_state == DETACHED_STATE for h in got)
    # the 3-word tree's cursor leaves the tree on some kept hypothesis
    assert detached == (variant != "baseline")


def test_aed_search_breaks_exact_score_ties_by_tokens():
    flat = [1.0 / (TINY_VOCAB.n_lexical + 1)] * (TINY_VOCAB.n_lexical + 1)
    m = FakeAED(TINY_VOCAB, [flat])
    lm = train_bigram_lm([[0, 1, 3], [2, 4]], TINY_VOCAB)
    for cfg in AED_GRID:
        use_lm = lm if cfg.lm_weight > 0 else None
        got = beam_search_aed(m, np.zeros((3, 1)), None, cfg, lm=use_lm)
        want = reference_beam_search_aed(m, np.zeros((3, 1)), None, cfg,
                                         lm=use_lm)
        assert nbest_fields(got) == nbest_fields(want), cfg
    # (1,) outranks (0,), yet (1, 1) and (0, 0) score log .59 + log .4 in
    # either order of addition: the beam-2 frontier keeps (0, 0) by tokens
    swap = [[0.4, 0.59, 0.01], [0.59, 0.4, 0.01], [0.005, 0.005, 0.99]]
    best = beam_search_aed(FakeAED(V2, swap), np.zeros((1, 1)), None,
                           DecodeConfig(beam=2, max_len=3))
    assert [h.tokens for h in best] == [(1, 0), (0, 0)]


def test_aed_search_advances_tree_for_survivors_only():
    m = tiny_model("aed", "tcpgen", 76)
    rounds = []           # advance_state calls after each batch of steps
    in_round = False
    step = m.step

    def counting_step(*args):
        nonlocal in_round
        if not in_round:
            rounds.append(0)
            in_round = True
        return step(*args)

    def counting_advance(tree, state, emitted):
        nonlocal in_round
        in_round = False
        rounds[-1] += 1
        return advance_state(tree, state, emitted)

    m.step = counting_step
    feats = Stream(77).gauss_array((6, 2))
    tree = build_tree(TINY_VOCAB, ["KATO", "KARI", "TORI"])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(decoding, "advance_state", counting_advance)
        for beam in (1, 2, 4):
            rounds.clear()
            in_round = False
            beam_search_aed(m, feats, tree, DecodeConfig(beam=beam, max_len=8))
            assert rounds and 0 < max(rounds) <= beam, (beam, rounds)


RNNT_GRID = [DecodeConfig(beam=beam, lm_weight=lam, max_symbols_per_frame=cap)
             for beam in (1, 2, 4, 64) for cap in (0, 1, 3)
             for lam in (0.0, 0.7)]


@pytest.mark.parametrize("variant", ["baseline", "db", "tcpgen", "tcpgen_db"])
def test_rnnt_search_matches_full_expansion_reference(variant):
    m = tiny_model("rnnt", variant, 70)
    lm = train_bigram_lm([[0, 1, 3], [2, 4], [1, 1, 0]], TINY_VOCAB)
    trees = [None, build_tree(TINY_VOCAB, []),
             build_tree(TINY_VOCAB, ["KATO", "KARI", "TORI"])]
    feats = Stream(71).gauss_array((4, 2))
    detached = False
    for tree in trees:
        for cfg in RNNT_GRID:
            use_lm = lm if cfg.lm_weight > 0 else None
            got = beam_search_rnnt(m, feats, tree, cfg, lm=use_lm)
            want = reference_beam_search_rnnt(m, feats, tree, cfg, lm=use_lm)
            assert nbest_fields(got) == nbest_fields(want), (tree, cfg)
            detached |= any(h.tree_state == DETACHED_STATE for h in got)
    # the 3-word tree's cursor leaves the tree on some kept hypothesis
    assert detached == (variant != "baseline")


def test_rnnt_search_breaks_exact_score_ties_by_tokens():
    T, L = 3, TINY_VOCAB.n_lexical
    flat = [1.0 / (L + 1)] * (L + 1)
    table = {(t, u): flat for t in range(T) for u in range(T * 3 + 1)}
    m = FakeRNNT(TINY_VOCAB, table)
    lm = train_bigram_lm([[0, 1, 3], [2, 4]], TINY_VOCAB)
    for cfg in RNNT_GRID:
        use_lm = lm if cfg.lm_weight > 0 else None
        got = beam_search_rnnt(m, np.zeros((T, 1)), None, cfg, lm=use_lm)
        want = reference_beam_search_rnnt(m, np.zeros((T, 1)), None, cfg,
                                          lm=use_lm)
        assert nbest_fields(got) == nbest_fields(want), cfg
    # (1,) outranks (0,), yet (1, 1) and (0, 0) score log .59 + log .4 in
    # either order of addition: the beam-2 frontier keeps (0, 0) by tokens
    swap = {(0, 0): [0.4, 0.59, 0.01], (0, 1): [0.59, 0.4, 0.01],
            (0, 2): [0.005, 0.005, 0.99]}
    best = beam_search_rnnt(FakeRNNT(V2, swap), np.zeros((1, 1)), None,
                            DecodeConfig(beam=2, max_symbols_per_frame=2))
    assert [h.tokens for h in best] == [(1, 0), (0, 0)]


def test_rnnt_search_steps_predictor_for_survivors_only():
    m = tiny_model("rnnt", "tcpgen", 72)
    calls = 0
    step = m.predictor_step

    def counting_step(state, y_in):
        nonlocal calls
        calls += 1
        return step(state, y_in)

    m.predictor_step = counting_step
    feats = Stream(73).gauss_array((6, 2))
    T = m.encode(feats).data.shape[0]
    tree = build_tree(TINY_VOCAB, ["KATO", "KARI", "TORI"])
    for beam, cap in ((1, 1), (2, 3), (4, 2)):
        calls = 0
        beam_search_rnnt(m, feats, tree,
                         DecodeConfig(beam=beam, max_symbols_per_frame=cap))
        assert 0 < calls <= 1 + beam * cap * T, (beam, cap, calls)


def test_decode_config_rejects_bad_values():
    for bad in (dict(beam=0), dict(lm_weight=-0.1),
                dict(max_symbols_per_frame=-1), dict(max_len=0)):
        with pytest.raises(ValueError):
            DecodeConfig(**bad)
    DecodeConfig(beam=1, lm_weight=0.0, max_symbols_per_frame=0, max_len=1)


# -- inertness ---------------------------------------------------------------

@pytest.mark.parametrize("family", ["aed", "rnnt"])
def test_empty_tree_decode_matches_baseline(family):
    base = tiny_model(family, "baseline", 57)
    biased = tiny_model(family, "tcpgen", 58)
    copy_shared_weights(base, biased)
    empty = build_tree(TINY_VOCAB, [])
    search = beam_search_aed if family == "aed" else beam_search_rnnt
    cfg = DecodeConfig(beam=4, max_len=12, max_symbols_per_frame=2)
    for trial in range(5):
        feats = Stream(59 + trial).gauss_array((4, 2))
        h0 = search(base, feats, None, cfg)
        h1 = search(biased, feats, empty, cfg)
        assert [h.tokens for h in h0] == [h.tokens for h in h1]
        for a, b in zip(h0, h1):
            assert abs(a.log_score - b.log_score) < 1e-9


# -- tree-state consistency ---------------------------------------------------

@pytest.mark.parametrize("family", ["aed", "rnnt"])
def test_tree_state_replay_consistency(family):
    m = tiny_model(family, "tcpgen", 60)
    tree = build_tree(TINY_VOCAB, ["KATO", "KARI", "TORI"])
    search = beam_search_aed if family == "aed" else beam_search_rnnt
    cfg = DecodeConfig(beam=4, max_len=10, max_symbols_per_frame=2)
    feats = Stream(61).gauss_array((5, 2))
    for hyp in search(m, feats, tree, cfg):
        state = ROOT_STATE
        for tok in hyp.tokens:
            state = advance_state(tree, state, tok)
        assert hyp.tree_state == state


# -- LM fusion ----------------------------------------------------------------

def test_bigram_lm_hand_counts():
    seqs = [[0, 1], [0, 0], [1]]
    lm = train_bigram_lm(seqs, V2)
    # contexts: 0, 1, SOS; targets: 0, 1, EOS; add-one smoothing
    # from context 0: pairs (0->1), (0->0); row counts = [2, 2, 2] -> 1/3 each
    assert lm.log_prob_vector(0)[0] == pytest.approx(math.log(1 / 3))
    # SOS row: starts 0, 0, 1 -> counts [3, 2, 1] / 6
    sos = lm.n_lexical   # SOS context row
    assert lm.log_prob_vector(sos)[0] == pytest.approx(math.log(3 / 6))
    assert lm.log_prob_vector(sos)[1] == pytest.approx(math.log(2 / 6))
    # context 1: one EOS ending after [0,1], one after [1] -> counts [1,1,3]/5
    assert lm.log_prob_vector(1)[2] == pytest.approx(math.log(3 / 5))


def test_fuse_lm_validates_and_shifts():
    lm = train_bigram_lm([[0, 1]], V2)
    base = np.array([-1.0, -2.0, -3.0])
    with pytest.raises(ValueError):
        fuse_lm(base, lm, 0, -0.1, include_eos=True)
    out = fuse_lm(base, lm, 0, 0.5, include_eos=True)
    want = base + 0.5 * lm.log_prob_vector(0)
    assert np.allclose(out, want, atol=0, rtol=0)
    out2 = fuse_lm(base, lm, 0, 0.5, include_eos=False)
    assert out2[2] == base[2]          # blank slot untouched


def test_lambda_zero_fusion_is_noop():
    m = tiny_model("aed", "baseline", 62)
    feats = Stream(63).gauss_array((4, 2))
    lm = train_bigram_lm([[0, 1, 2], [3, 4]], TINY_VOCAB)
    cfg0 = DecodeConfig(beam=4, max_len=10, lm_weight=0.0)
    h0 = beam_search_aed(m, feats, None, cfg0)
    h1 = beam_search_aed(m, feats, None, cfg0, lm=lm)
    assert [(h.tokens, h.log_score) for h in h0] == \
           [(h.tokens, h.log_score) for h in h1]


def test_uniform_lm_shifts_each_step_equally():
    uniform = BigramLM(np.full((3, 3), math.log(1 / 3)), n_lexical=2)
    table = [[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.2, 0.2, 0.6]]
    m = FakeAED(V2, table)
    feats = np.zeros((3, 1))
    lam = 0.7
    h0 = beam_search_aed(m, feats, None, DecodeConfig(beam=50, max_len=3))
    h1 = beam_search_aed(m, feats, None,
                         DecodeConfig(beam=50, max_len=3, lm_weight=lam),
                         lm=uniform)
    # every sequence's score shifts by lam*ln(1/3) per emitted symbol (+EOS),
    # so same-length sequences keep their relative order
    by_tokens = {h.tokens: h.log_score for h in h1}
    assert set(by_tokens) == {h.tokens for h in h0}
    for a in h0:
        steps = len(a.tokens) + (0 if a.hit_max_len else 1)   # EOS term
        shift = lam * math.log(1 / 3) * steps
        assert by_tokens[a.tokens] == pytest.approx(a.log_score + shift, rel=1e-12)
    for a, b in zip(h0, h0[1:]):
        if len(a.tokens) == len(b.tokens):
            assert by_tokens[a.tokens] >= by_tokens[b.tokens]


def test_fused_best_path_matches_hand_scored_enumeration():
    lm = train_bigram_lm([[0, 1], [1, 1], [0]], V2)
    table = [[0.45, 0.45, 0.10], [0.3, 0.3, 0.4], [0.1, 0.1, 0.8]]
    m = FakeAED(V2, table)
    feats = np.zeros((3, 1))
    lam = 0.9
    cfg = DecodeConfig(beam=10 ** 6, max_len=3, lm_weight=lam)
    best = beam_search_aed(m, feats, None, cfg, lm=lm)[0]
    want = enumerate_aed(m, feats, max_len=3, lm=lm, lam=lam)
    top = max(sorted(want.items()), key=lambda kv: kv[1])
    assert best.tokens == top[0]
    assert best.log_score == pytest.approx(top[1], rel=1e-12)


# -- output format -------------------------------------------------------------

def test_format_nbest_lines_and_partial_words():
    m = tiny_model("aed", "baseline", 64)
    feats = Stream(65).gauss_array((4, 2))
    hyps = beam_search_aed(m, feats, None, DecodeConfig(beam=3, max_len=8))
    text = format_nbest(TINY_VOCAB, "utt-1", hyps)
    lines = text.rstrip("\n").split("\n")
    assert len(lines) == len(hyps)
    for rank, line in enumerate(lines):
        utt, r, score, words = line.split("\t")
        assert utt == "utt-1" and int(r) == rank
        assert float(score) == pytest.approx(hyps[rank].log_score, abs=5e-7)
        assert words == " ".join(hypothesis_words(TINY_VOCAB, hyps[rank]))
