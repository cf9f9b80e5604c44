"""Acceptance suite: one test per criterion, each printing a PASS line.

Criteria 1-7 are property/oracle suites with pinned tolerances; criterion 8
is the directional synthetic biasing experiment; 9 measures decode-time
scaling with biasing-list size; 10 checks full-pipeline determinism.
Run with `pytest tests/test_acceptance.py -v -s`.
"""

import filecmp
import math
import os
import time

import numpy as np
import pytest

from tcpgen import autodiff as ad
from tcpgen import tcpgen_core as tc
from tcpgen.autodiff import Tensor
from tcpgen.biasing_tree import ROOT_STATE, advance_state, build_tree, valid_set
from tcpgen.decoding import DecodeConfig, beam_search_aed, beam_search_rnnt
from tcpgen.eval_scoring import align, rwer_counts, wer_counts
from tcpgen.harness.checkpoint import load_checkpoint, save_checkpoint
from tcpgen.harness.config import ExperimentConfig
from tcpgen.harness.corpus import SYLLABLES, generate_corpus
from tcpgen.harness.experiment import run_experiment
from tcpgen.lexicon import SubwordVocab
from tcpgen.rng import Stream, derive_seed
from tcpgen.toy_models import ModelConfig, build_model, transducer_loss

from helpers import (copy_shared_weights, enumeration_transducer_loss,
                     fd_param_check, one_row, oracle_valid_set,
                     random_log_lattice, random_tree_case, tiny_instance,
                     tiny_model)


def report(num: int, name: str, ok: bool = True) -> None:
    print(f"\nACCEPTANCE {num:2d} {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def random_distribution(stream: Stream, n: int) -> np.ndarray:
    x = stream.gauss_array((n,))
    e = np.exp(x - x.max())
    return e / e.sum()


def make_ptr(p_ptr: np.ndarray, p_gen: float) -> tc.PtrStep:
    n = p_ptr.shape[-1] - 1
    scaled = p_gen * (1.0 - p_ptr[n])
    return tc.PtrStep(p_ptr=Tensor(p_ptr), h_ptr=Tensor(np.zeros(2)),
                      p_gen=Tensor(np.array(p_gen)),
                      p_gen_scaled=Tensor(np.array(scaled)))


def test_criterion_1_normalization_suite():
    t0 = time.time()
    stream = Stream(1001)
    for _ in range(10000):
        L = 2 + stream.randint(8)
        p_mdl = random_distribution(stream, L + 1)
        k = stream.randint(L + 1)
        support = sorted(stream.sample(range(L), k))
        probs = random_distribution(stream, len(support) + 1)
        p_ptr = np.zeros(L + 1)
        p_ptr[support] = probs[:-1]
        p_ptr[L] = probs[-1]
        ptr = make_ptr(p_ptr, stream.uniform())
        for out in (tc.interpolate_aed(Tensor(p_mdl), ptr, L),
                    tc.interpolate_rnnt(Tensor(p_mdl[None]), one_row(ptr), L)):
            assert abs(out.data.sum() - 1.0) < 1e-9
            assert np.all(out.data >= 0.0)
    elapsed = time.time() - t0
    assert elapsed < 10.0, f"normalization suite took {elapsed:.1f}s"
    report(1, f"normalization 10k draws in {elapsed:.1f}s")


def test_criterion_2_mask_exactness():
    stream = Stream(1002)
    vocab = SubwordVocab(list(SYLLABLES) + [s + "_" for s in SYLLABLES])
    L = vocab.n_lexical
    params = tc.init_tcpgen_params(Stream(7), d=8, d_v=8, ctx_dim=8,
                                   emb_dim=8, hidden_dim=8)
    emb = Tensor(Stream(8).gauss_array((vocab.n_total, 8)))
    syl = list(SYLLABLES)
    for _ in range(1000):
        n_words = 1 + stream.randint(20)
        words = {"".join(stream.choice(syl) for _ in range(1 + stream.randint(3)))
                 for _ in range(n_words)}
        tree = build_tree(vocab, sorted(words))
        state = ROOT_STATE
        for _ in range(stream.randint(12)):
            state = advance_state(tree, state, stream.randint(L))
        valid = valid_set(tree, state)
        q = Tensor(stream.gauss_array((8,)))
        p_ptr, _ = tc.ptr_attention(params, q, valid, emb, L)
        off = np.ones(L + 1, dtype=bool)
        off[sorted(valid)] = False
        off[L] = False
        assert np.all(p_ptr.data[off] == 0.0)
        assert abs(p_ptr.data.sum() - 1.0) < 1e-12
    report(2, "pointer mass off valid set exactly zero (1000 cases)")


@pytest.fixture(scope="module")
def small_corpus():
    cfg = ExperimentConfig(corpus_train=60, corpus_test=50,
                           corpus_rare_occurrences=2, corpus_words=60,
                           corpus_rare_words=12, corpus_chapter_utts=10,
                           corpus_book_chapters=2)
    return cfg, generate_corpus(cfg, seed=17)


def test_criterion_3_inertness_empty_list(small_corpus):
    cfg, corpus = small_corpus
    utts = sorted(corpus.test)[:50]
    empty = build_tree(corpus.vocab, [])
    for family, search in (("aed", beam_search_aed), ("rnnt", beam_search_rnnt)):
        mcfg = dict(feat_dim=cfg.corpus_feat_dim, hidden=12, emb_dim=12,
                    attn_dim=8, attn_val_dim=8, encoder_stride=3)
        base = build_model(corpus.vocab,
                           ModelConfig(family=family, variant="baseline", **mcfg),
                           Stream(42))
        biased = build_model(corpus.vocab,
                             ModelConfig(family=family, variant="tcpgen", **mcfg),
                             Stream(43))
        copy_shared_weights(base, biased)
        dcfg = DecodeConfig(beam=4, max_len=40, max_symbols_per_frame=3)
        for u in utts:
            feats = corpus.test_feats[u]
            h0 = search(base, feats, None, dcfg)
            h1 = search(biased, feats, empty, dcfg)
            assert [h.tokens for h in h0] == [h.tokens for h in h1], (family, u)
            for a, b in zip(h0, h1):
                assert abs(a.log_score - b.log_score) < 1e-9
    report(3, "empty-list decode identical to baseline (50 utts, AED+RNN-T)")


def test_criterion_4_tree_oracle():
    stream = Stream(1004)
    for _ in range(1000):
        vocab, tree, seqs, emitted = random_tree_case(stream)
        word_final = tuple(vocab._word_final)
        state = ROOT_STATE
        for i in range(len(emitted) + 1):
            got = valid_set(tree, state)
            want = oracle_valid_set(seqs, emitted[:i], word_final)
            assert got == want
            if i < len(emitted):
                state = advance_state(tree, state, emitted[i])
    report(4, "tree traversal matches suffix-matching oracle (1000 cases)")


def test_criterion_5_transducer_loss_oracle():
    stream = Stream(1005)
    for _ in range(200):
        U = stream.randint(4)            # |target| <= 3
        T = 1 + stream.randint(4)        # T <= 4
        V = 3 + stream.randint(4)
        targets = [stream.randint(V - 1) for _ in range(U)]
        lat = random_log_lattice(stream, U, T, V)
        got = transducer_loss(Tensor(lat), targets, blank=V - 1).item()
        want = enumeration_transducer_loss(lat, targets, blank=V - 1)
        assert abs(got - want) <= 1e-10, (U, T, V, got, want)
    report(5, "transducer forward equals alignment enumeration (200 cases)")


def test_criterion_6_gradient_checks():
    t0 = time.time()
    n_instances = 20
    for family in ("aed", "rnnt"):
        for variant in ("baseline", "db", "tcpgen", "tcpgen_db"):
            stream = Stream(derive_seed(1006, family, variant))
            for trial in range(n_instances):
                model = tiny_model(family, variant, 500 + trial)
                feats, targets, tree = tiny_instance(stream, max_T=4, max_U=2)
                tree_arg = tree if variant != "baseline" else None
                fd_param_check(model,
                               lambda: model.loss(feats, targets, tree_arg),
                               step=1e-5, rel_tol=1e-4)
    elapsed = time.time() - t0
    assert elapsed < 300.0, f"gradient checks took {elapsed:.0f}s"
    report(6, f"20 FD gradient checks x 8 model variants in {elapsed:.0f}s")


GOLDEN_SCORING_CASES = [
    # (ref, hyp, biasing list, WER (S,D,I,N), R-WER (S,D,I,Nbias))
    ("A B C", "A B C", set(), (0, 0, 0, 3), (0, 0, 0, 0)),
    ("A B C", "A X C", {"B"}, (1, 0, 0, 3), (1, 0, 0, 1)),
    ("A B C", "A X C", {"C"}, (1, 0, 0, 3), (0, 0, 0, 1)),
    ("A B", "A B C", {"C"}, (0, 0, 1, 2), (0, 0, 1, 0)),
    ("A B", "A B C", {"B"}, (0, 0, 1, 2), (0, 0, 0, 1)),
    ("THE VIGNETTE OF TURNER", "THE VIGNETTE OF TURNIP",
     {"VIGNETTE", "TURNER"}, (1, 0, 0, 4), (1, 0, 0, 2)),
    ("VIGNETTE", "VIGNETTE TURNER", {"VIGNETTE", "TURNER"},
     (0, 0, 1, 1), (0, 0, 1, 1)),
    ("A", "A B", set(), (0, 0, 1, 1), (0, 0, 0, 0)),
    ("A B C D", "B C D", {"A"}, (0, 1, 0, 4), (0, 1, 0, 1)),
    ("A B", "", {"A", "B"}, (0, 2, 0, 2), (0, 2, 0, 2)),
    ("X", "TURNER", {"TURNER"}, (1, 0, 0, 1), (0, 0, 0, 0)),
    ("TURNER", "TURNER TURNER TURNER", {"TURNER"}, (0, 0, 2, 1), (0, 0, 2, 1)),
    ("A B", "B A", {"A"}, (2, 0, 0, 2), (1, 0, 0, 1)),
    ("A TURNER B", "A C TURNER B", {"TURNER"}, (0, 0, 1, 3), (0, 0, 0, 1)),
    ("A TURNER C D", "TURNER X D", {"TURNER", "C"}, (1, 1, 0, 4), (1, 0, 0, 2)),
    ("A B", "TURNER A B", {"TURNER"}, (0, 0, 1, 2), (0, 0, 1, 0)),
    ("TURNER VIGNETTE", "X Y", {"TURNER", "VIGNETTE"}, (2, 0, 0, 2), (2, 0, 0, 2)),
    ("A A", "A", {"A"}, (0, 1, 0, 2), (0, 1, 0, 2)),
    ("P Q R S", "P R S", {"Q", "S"}, (0, 1, 0, 4), (0, 1, 0, 2)),
    ("M TURNER", "M TURNER TURNIP", {"TURNER", "TURNIP"},
     (0, 0, 1, 2), (0, 0, 1, 1)),
]


def test_criterion_7_scoring_golden_suite():
    assert len(GOLDEN_SCORING_CASES) == 20
    for ref, hyp, blist, wer_want, rwer_want in GOLDEN_SCORING_CASES:
        ops = align(ref.split(), hyp.split())
        w = wer_counts(ops)
        assert (w.sub, w.dele, w.ins, w.n_ref) == wer_want, (ref, hyp)
        r = rwer_counts(ops, blist)
        assert (r.sub, r.dele, r.ins, r.n_bias) == rwer_want, (ref, hyp)
    report(7, "20-case golden WER/R-WER suite exact")


@pytest.fixture(scope="module")
def directional_runs(tmp_path_factory):
    """Criterion 8's two experiments (AED, RNN-T) on the default corpus."""
    out = str(tmp_path_factory.mktemp("directional"))
    data_dir = os.path.join(out, "data")
    t0 = time.time()
    aed_cfg = ExperimentConfig(data_dir=data_dir)
    assert (aed_cfg.seed, aed_cfg.corpus_words, aed_cfg.corpus_rare_words,
            aed_cfg.corpus_train, aed_cfg.corpus_test,
            aed_cfg.list_distractors) == (17, 150, 30, 2000, 200, 50)
    aed = run_experiment(aed_cfg, out)
    rnnt_cfg = ExperimentConfig(data_dir=data_dir, family="rnnt",
                                variants="baseline,tcpgen_db")
    rnnt = run_experiment(rnnt_cfg, out)
    elapsed = time.time() - t0
    return aed_cfg, aed, rnnt_cfg, rnnt, elapsed


def test_criterion_8_directional_biasing(directional_runs):
    aed_cfg, aed, rnnt_cfg, rnnt, elapsed = directional_runs
    lines = []
    for label, res, variant in (("AED", aed, "tcpgen"),
                                ("RNN-T", rnnt, "tcpgen_db")):
        base = res.reports[("baseline", "utterance")]
        sys = res.reports[(variant, "utterance")]
        rel = (base.rwer.rate - sys.rwer.rate) / base.rwer.rate
        lines.append(f"{label}: WER {base.wer.rate:.4f}->{sys.wer.rate:.4f} "
                     f"R-WER_u {base.rwer.rate:.4f}->{sys.rwer.rate:.4f} "
                     f"(rel -{100 * rel:.1f}%)")
        assert rel >= 0.20, f"{label} relative R-WER_u reduction {rel:.3f} < 0.20"
        assert sys.wer.rate <= base.wer.rate + 0.005, \
            f"{label} WER {sys.wer.rate:.4f} worse than baseline + 0.5abs"
    assert elapsed < 1800.0, f"directional experiment took {elapsed:.0f}s"
    report(8, "; ".join(lines) + f"; total {elapsed:.0f}s")


def test_criterion_9_decode_time_independent_of_list_size(directional_runs):
    aed_cfg, aed, _, _, _ = directional_runs
    from tcpgen.harness.corpus import load_corpus
    from tcpgen.harness.experiment import load_model, run_paths, rare_list_for
    from tcpgen.biasing_lists import build_utterance_list, RareWordList

    corpus = load_corpus(aed_cfg.data_dir)
    paths = run_paths(aed_cfg, os.path.dirname(aed.run_dir))
    model = load_model(aed_cfg, corpus, paths, "tcpgen")
    rare = rare_list_for(aed_cfg, corpus)
    # enlarge the distractor pool with segmentable pseudo-words
    stream = Stream(1009)
    syl = list(SYLLABLES)
    pool = set(rare.words)
    while len(pool) < 5100:
        pool.add("".join(stream.choice(syl) for _ in range(2 + stream.randint(3))))
    big_rare = RareWordList(tuple(sorted(pool)))
    utts = sorted(corpus.test)[:50]
    dcfg = DecodeConfig(beam=aed_cfg.beam, max_len=aed_cfg.max_len)

    def decode_all(n_distractors):
        t0 = time.time()
        for u in utts:
            bl = build_utterance_list(corpus.test[u], big_rare, n_distractors,
                                      Stream(derive_seed(7, u)), u)
            tree = build_tree(corpus.vocab, bl.words)
            beam_search_aed(model, corpus.test_feats[u], tree, dcfg)
        return time.time() - t0

    decode_all(50)                      # warm-up, excluded from timing
    small_t = decode_all(50)
    big_t = decode_all(5000)
    ratio = big_t / small_t
    assert ratio <= 1.5, f"5000-word decode {ratio:.2f}x slower than 50-word"
    report(9, f"decode time ratio 5000-vs-50 words = {ratio:.2f} (<= 1.5)")


def test_criterion_10_full_pipeline_determinism(tmp_path):
    cfg_kwargs = dict(corpus_words=40, corpus_rare_words=8, corpus_train=60,
                      corpus_test=10, corpus_chapter_utts=10,
                      corpus_book_chapters=2, epochs=1, batch_size=8,
                      hidden=8, emb_dim=8, attn_dim=8, attn_val_dim=8,
                      corpus_feat_dim=4, beam=2, max_len=30,
                      list_distractors=4, train_distractors=4,
                      variants="baseline,tcpgen")
    runs = []
    for sub in ("a", "b"):
        cfg = ExperimentConfig(**cfg_kwargs)
        runs.append(run_experiment(cfg, str(tmp_path / sub)))
    files_a, files_b = [], []
    for res, acc in zip(runs, (files_a, files_b)):
        for root, _, names in os.walk(res.run_dir):
            for n in sorted(names):
                acc.append(os.path.join(root, n))
    rel_a = sorted(os.path.relpath(p, runs[0].run_dir) for p in files_a)
    rel_b = sorted(os.path.relpath(p, runs[1].run_dir) for p in files_b)
    assert rel_a == rel_b
    for rel in rel_a:
        pa = os.path.join(runs[0].run_dir, rel)
        pb = os.path.join(runs[1].run_dir, rel)
        assert filecmp.cmp(pa, pb, shallow=False), f"{rel} differs between runs"
    # checkpoint roundtrip bit-exactness
    ckpts = [r for r in rel_a if r.endswith(".tcpg") and "ckpt" in r]
    assert ckpts
    for rel in ckpts:
        src = os.path.join(runs[0].run_dir, rel)
        dst = str(tmp_path / "roundtrip.tcpg")
        save_checkpoint(load_checkpoint(src).tensors, dst)
        assert open(src, "rb").read() == open(dst, "rb").read()
    report(10, f"two runs byte-identical across {len(rel_a)} artifacts")
