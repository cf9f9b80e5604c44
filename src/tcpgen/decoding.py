"""Beam-search inference for both model families with per-hypothesis tree
cursors, optional shallow fusion with a subword bigram LM, and n-best output.

A hypothesis's search state is plain values: its tokens, its score, its
model state, and its tree cursor, a node id of the biasing tree (see
`biasing_tree`) whose valid ids come as an ascending list.  The LM context
is not stored: it is the hypothesis's last token, or SOS when it is empty.

The encoder-decoder search is label-synchronous; the transducer search is
time-synchronous with a per-frame emission cap, merging duplicate label
sequences by log-sum-exp.  Both share one expansion step that builds
survivors only: each frontier hypothesis adds its log-probs (LM-fused when
an LM is set) to its score as one row of an (F, L) label matrix, the top
`beam` entries are taken, and only those get a `Hypothesis`, a tree-cursor
advance, and a child model state (the encoder-decoder reuses the
parent's decoder step; the transducer steps its predictor).  The work per
step thus grows with the beam, not with beam x vocabulary.  A model
without biasing decodes with no tree.  All searches run without gradient
recording and break score ties by token-id lexicographic order, so
decoding is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .biasing_tree import PrefixTree, ROOT_STATE, advance_state, valid_set
from .lexicon import SubwordVocab, TokenSeq, detokenize


@dataclass
class DecodeConfig:
    beam: int = 8
    lm_weight: float = 0.0
    max_symbols_per_frame: int = 3
    max_len: int = 60

    def __post_init__(self):
        if self.beam < 1:
            raise ValueError("beam width must be >= 1")
        if self.lm_weight < 0:
            raise ValueError("LM weight must be >= 0")
        if self.max_symbols_per_frame < 0:
            raise ValueError("max_symbols_per_frame must be >= 0")
        if self.max_len < 1:
            raise ValueError("max_len must be >= 1")


@dataclass
class Hypothesis:
    tokens: tuple[int, ...]
    log_score: float
    model_state: object
    tree_state: int
    hit_max_len: bool = False

    def sort_key(self):
        return (-self.log_score, self.tokens)


class BigramLM:
    """Add-one-smoothed subword bigram; contexts are SOS or a lexical id,
    targets are lexical ids plus EOS in the last column."""

    def __init__(self, logp: np.ndarray, n_lexical: int):
        self.logp = logp          # (L+1 contexts, L+1 targets)
        self.n_lexical = n_lexical

    def log_prob_vector(self, context: int) -> np.ndarray:
        """Log P(. | context) over lexical targets + EOS (last slot)."""
        return self.logp[context]


def train_bigram_lm(token_seqs, vocab: SubwordVocab) -> BigramLM:
    """Counts over (context, next) with add-one smoothing.

    Each sequence contributes SOS -> first, consecutive pairs, and
    last -> EOS.  Contexts: lexical ids plus SOS (last row)."""
    L = vocab.n_lexical
    counts = np.ones((L + 1, L + 1), dtype=np.float64)   # add-one
    for seq in token_seqs:
        ctx = L
        for tok in seq:
            counts[ctx, tok] += 1.0
            ctx = tok
        counts[ctx, L] += 1.0                            # EOS column
    logp = np.log(counts / counts.sum(axis=1, keepdims=True))
    return BigramLM(logp, L)


def fuse_lm(step_logprob: np.ndarray, lm: BigramLM, context: int,
            lam: float, include_eos: bool) -> np.ndarray:
    """Log-linear combination of model and LM scores.

    Adds lam * log P_LM to lexical slots; the last slot gets the LM
    end-of-sentence term when include_eos (encoder-decoder) and is left
    untouched otherwise (transducer blank, which has no LM probability).
    """
    if lam < 0:
        raise ValueError("LM weight must be >= 0")
    lmvec = lm.log_prob_vector(context)
    out = step_logprob.copy()
    L = lm.n_lexical
    out[:L] += lam * lmvec[:L]
    if include_eos:
        out[L] += lam * lmvec[L]
    return out


def _start(model_state) -> Hypothesis:
    return Hypothesis(tokens=(), log_score=0.0, model_state=model_state,
                      tree_state=ROOT_STATE)


def _valid(tree: PrefixTree | None, hyp: Hypothesis) -> list[int]:
    return [] if tree is None else valid_set(tree, hyp.tree_state)


def _log_probs(p: np.ndarray, hyp: Hypothesis, lm: BigramLM | None,
               cfg: DecodeConfig, include_eos: bool) -> np.ndarray:
    """Log of one model row, fused with the LM when one is set."""
    with np.errstate(divide="ignore"):
        logp = np.log(p)
    if lm is not None and cfg.lm_weight > 0:
        context = hyp.tokens[-1] if hyp.tokens else lm.n_lexical
        logp = fuse_lm(logp, lm, context, cfg.lm_weight, include_eos)
    return logp


def _top_labels(scores: np.ndarray, prefixes: list[tuple[int, ...]],
                k: int) -> list[tuple[int, int, float]]:
    """The k best finite entries of an (F, L) score matrix as (row, label,
    score), in `Hypothesis.sort_key` order: score descending, then the token
    tuple prefixes[row] + (label,).

    A partition threshold keeps only the entries that can rank in the top
    k; ties at the threshold are all kept and settled by the full key.
    """
    L = scores.shape[1]
    flat = scores.ravel()
    idx = np.flatnonzero(flat != -math.inf)
    if idx.size > k:
        vals = flat[idx]
        kth = np.partition(vals, idx.size - k)[idx.size - k]
        idx = idx[vals >= kth]
    keyed = sorted((-flat[i], prefixes[i // L] + (i % L,), i)
                   for i in idx.tolist())
    return [(i // L, i % L, flat[i]) for _, _, i in keyed[:k]]


def _survivors(frontier: list[Hypothesis], rows: list[np.ndarray], k: int,
               tree: PrefixTree | None, child_state) -> list[Hypothesis]:
    """The k best one-label extensions of `frontier`, where rows[i] holds
    frontier[i]'s score plus each lexical label's log-prob.  Only these
    survivors get a tree-cursor advance and the model state
    `child_state(i, label)`."""
    out = []
    for row, sym, score in _top_labels(np.stack(rows),
                                       [h.tokens for h in frontier], k):
        parent = frontier[row]
        out.append(Hypothesis(
            tokens=parent.tokens + (sym,), log_score=score,
            model_state=child_state(row, sym),
            tree_state=(parent.tree_state if tree is None
                        else advance_state(tree, parent.tree_state, sym))))
    return out


def beam_search_aed(model, features: np.ndarray, tree: PrefixTree | None,
                    cfg: DecodeConfig, lm: BigramLM | None = None) -> list[Hypothesis]:
    """Label-synchronous beam search; hypotheses finish on EOS.

    Each step runs the decoder once per active hypothesis; every finite EOS
    score finishes a hypothesis, and the top `beam` lexical extensions,
    which reuse their parent's decoder output state, stay active.  Returns
    hypotheses ranked by log score (ties broken by token ids).  Hypotheses
    that reach max_len without EOS are finalized with hit_max_len set.
    """
    vocab = model.vocab
    L = vocab.n_lexical
    if not model.cfg.biased:
        tree = None
    with ad.no_grad():
        h_enc = model.encode(features)
        active = [_start(model.init_state())]
        finished: list[Hypothesis] = []
        for _ in range(cfg.max_len):
            if not active:
                break
            rows, states = [], []
            for hyp in active:
                y_prev = hyp.tokens[-1] if hyp.tokens else vocab.sos
                p, new_state, _ = model.step(h_enc, hyp.model_state, y_prev,
                                             _valid(tree, hyp))
                logp = _log_probs(p.data, hyp, lm, cfg, include_eos=True)
                eos_score = hyp.log_score + logp[L]
                if eos_score != -math.inf:
                    finished.append(replace(hyp, log_score=eos_score))
                rows.append(hyp.log_score + logp[:L])
                states.append(new_state)
            active = _survivors(active, rows, cfg.beam, tree,
                                lambda row, sym: states[row])
            if len(finished) >= cfg.beam:
                finished.sort(key=Hypothesis.sort_key)
                # scores only decrease, so a strictly worse frontier is done
                if active and active[0].log_score < finished[cfg.beam - 1].log_score:
                    break
        for hyp in active:   # ran out of length budget
            finished.append(replace(hyp, hit_max_len=True))
        finished.sort(key=Hypothesis.sort_key)
        return finished[:cfg.beam]


def beam_search_rnnt(model, features: np.ndarray, tree: PrefixTree | None,
                     cfg: DecodeConfig, lm: BigramLM | None = None) -> list[Hypothesis]:
    """Time-synchronous beam search with a per-frame emission cap.

    At each frame every hypothesis may emit up to max_symbols_per_frame
    labels and then a blank; hypotheses with identical label sequences are
    merged by log-sum-exp when they re-enter the per-frame beam.  Only the
    top `beam` label extensions of each emission step get a predictor step.
    """
    vocab = model.vocab
    L = vocab.n_lexical
    if not model.cfg.biased:
        tree = None
    with ad.no_grad():
        h_enc = model.encode(features)
        T = h_enc.data.shape[0]
        frame_rows = [Tensor(h_enc.data[t:t + 1]) for t in range(T)]
        beam = [_start(model.predictor_step(model.init_pred_state(), vocab.sos))]
        for t in range(T):
            merged: dict[tuple[int, ...], Hypothesis] = {}
            frontier = beam
            for s in range(cfg.max_symbols_per_frame + 1):
                rows = []
                for hyp in frontier:
                    y_prev = hyp.tokens[-1] if hyp.tokens else vocab.sos
                    p, _ = model.joint_rows(hyp.model_state, frame_rows[t],
                                            y_prev, _valid(tree, hyp))
                    # the blank slot takes no LM term
                    logp = _log_probs(p.data[0], hyp, lm, cfg, include_eos=False)
                    blank_score = hyp.log_score + logp[L]
                    prev = merged.get(hyp.tokens)
                    if prev is None:
                        merged[hyp.tokens] = replace(hyp, log_score=blank_score)
                    else:
                        prev.log_score = np.logaddexp(prev.log_score, blank_score)
                    rows.append(hyp.log_score + logp[:L])
                if s == cfg.max_symbols_per_frame:
                    break
                frontier = _survivors(
                    frontier, rows, cfg.beam, tree,
                    lambda row, sym: model.predictor_step(frontier[row].model_state,
                                                          sym))
                if not frontier:
                    break
            beam = sorted(merged.values(), key=Hypothesis.sort_key)[:cfg.beam]
        return beam


def hypothesis_words(vocab: SubwordVocab, hyp: Hypothesis) -> list[str]:
    """Words of a hypothesis; a trailing partial word is kept as a token."""
    words, partial = detokenize(vocab, TokenSeq(hyp.tokens))
    if partial:
        words.append(partial)
    return words


def format_nbest(vocab: SubwordVocab, utt_id: str,
                 hyps: list[Hypothesis]) -> str:
    """n-best lines: utt_id, rank, log score, space-joined words."""
    lines = []
    for rank, hyp in enumerate(hyps):
        words = " ".join(hypothesis_words(vocab, hyp))
        lines.append(f"{utt_id}\t{rank}\t{hyp.log_score:.6f}\t{words}")
    return "\n".join(lines) + "\n"
