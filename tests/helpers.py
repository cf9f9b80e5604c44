"""Shared independent oracles and small-instance builders for the tests."""

import math
from dataclasses import replace

import numpy as np

from tcpgen import autodiff as ad
from tcpgen import tcpgen_core as tc
from tcpgen.autodiff import Tensor
from tcpgen.biasing_tree import ROOT_STATE, advance_state, build_tree, valid_set
from tcpgen.decoding import Hypothesis, fuse_lm
from tcpgen.lexicon import SubwordVocab
from tcpgen.rng import Stream
from tcpgen.toy_models import ModelConfig, build_model

TINY_VOCAB = SubwordVocab(["KA", "TO", "KA_", "TO_", "RI_"])


def enumeration_transducer_loss(logp: np.ndarray, targets, blank: int) -> float:
    """Brute-force marginal over all blank-augmented alignments.

    Walks every interleaving of T blanks (each consuming a frame) and the
    labels in order (consuming none); paths terminate after the last frame
    with all labels emitted.
    """
    U = len(targets)
    T = logp.shape[1]
    total = -math.inf

    def rec(t, u, acc):
        nonlocal total
        if t == T:
            if u == U:
                total = np.logaddexp(total, acc)
            return
        rec(t + 1, u, acc + logp[u, t, blank])
        if u < U:
            rec(t, u + 1, acc + logp[u, t, targets[u]])

    rec(0, 0, 0.0)
    return -total


def random_log_lattice(stream: Stream, U: int, T: int, V: int) -> np.ndarray:
    """Random (U+1, T, V) lattice of log-distributions over the last axis."""
    raw = stream.gauss_array((U + 1, T, V))
    z = raw - raw.max(axis=-1, keepdims=True)
    return z - np.log(np.exp(z).sum(axis=-1, keepdims=True))


def tiny_model(family: str, variant: str, seed: int,
               vocab: SubwordVocab = TINY_VOCAB):
    cfg = ModelConfig(family=family, variant=variant, feat_dim=2, hidden=3,
                      emb_dim=3, attn_dim=2, attn_val_dim=2, encoder_stride=1)
    return build_model(vocab, cfg, Stream(seed))


def tiny_instance(stream: Stream, vocab: SubwordVocab = TINY_VOCAB,
                  max_T: int = 5, max_U: int = 3):
    """Random (features, targets, tree) for a tiny model."""
    T = 2 + stream.randint(max_T - 1)
    feats = stream.gauss_array((T, 2))
    U = 1 + stream.randint(max_U)
    targets = [stream.randint(vocab.n_lexical) for _ in range(U)]
    words = ["KATO", "KARI", "TORI"]
    tree = build_tree(vocab, stream.sample(words, 1 + stream.randint(3)))
    return feats, targets, tree


def copy_shared_weights(src, dst) -> None:
    """Copy tensors present in both models (base weights of a variant).

    Where the destination widens a matrix with extra input columns (the
    transducer joint taking a biasing vector), the leading block is copied
    so the base path matches exactly.
    """
    sp = src.named_params()
    for name, p in dst.named_params().items():
        if name not in sp:
            continue
        s = sp[name].data
        if s.shape == p.data.shape:
            p.data = s.copy()
        elif (s.ndim == 2 and p.data.ndim == 2 and s.shape[0] == p.data.shape[0]
              and s.shape[1] < p.data.shape[1]):
            p.data[:, :s.shape[1]] = s


def one_row(ptr: tc.PtrStep) -> tc.PtrStep:
    """A single-vector pointer step as one transducer row: (1, L+1) p_ptr,
    (1, dv) h_ptr and (1,) generation probabilities."""
    return tc.PtrStep(p_ptr=Tensor(ptr.p_ptr.data.reshape(1, -1)),
                      h_ptr=Tensor(ptr.h_ptr.data.reshape(1, -1)),
                      p_gen=Tensor(ptr.p_gen.data.reshape(1)),
                      p_gen_scaled=Tensor(ptr.p_gen_scaled.data.reshape(1)))


def tree_words(vocab: SubwordVocab, tree) -> list[str]:
    """The words a prefix tree holds, sorted: every path from the root that
    ends on a word-final unit."""
    words = []

    def walk(node, prefix):
        for sid, child in tree.children[node].items():
            unit = vocab.units[sid]
            if vocab.is_word_final(sid):
                words.append(prefix + unit[:-1])
            else:
                walk(child, prefix + unit)

    walk(0, "")
    return sorted(words)


def oracle_valid_set(word_token_seqs, emitted, word_final):
    """Naive matcher: longest suffix of tokens since the last word-final
    unit, matched against every biasing word's token-sequence prefixes.
    Returns the valid ids as an ascending list."""
    prefix = []
    for tok in emitted:
        if word_final[tok]:
            prefix = []
        else:
            prefix.append(tok)
    valid = set()
    for seq in word_token_seqs:
        if len(seq) > len(prefix) and list(seq[:len(prefix)]) == prefix:
            valid.add(seq[len(prefix)])
    return sorted(valid)


def random_tree_case(stream, max_words: int = 50, max_stream: int = 100):
    """Random (vocab, tree, word token seqs, emitted id stream)."""
    from tcpgen.lexicon import tokenize_word

    syl = ["KA", "TO", "RI", "NU", "PE", "LO"]
    units = syl + [s + "_" for s in syl]
    vocab = SubwordVocab(units)
    n_words = 1 + stream.randint(max_words)
    words = set()
    while len(words) < n_words:
        n = 1 + stream.randint(3)
        words.add("".join(stream.choice(syl) for _ in range(n)))
    words = sorted(words)
    tree = build_tree(vocab, words)
    seqs = [tokenize_word(vocab, w).ids for w in words]
    stream_len = 1 + stream.randint(max_stream)
    emitted = [stream.randint(vocab.n_lexical) for _ in range(stream_len)]
    return vocab, tree, seqs, emitted


class _FakeCfg:
    variant = "baseline"
    biased = False


class FakeAED:
    """Scripted encoder-decoder: step u emits a prescribed distribution over
    lexical + EOS, independent of history.  State counts emitted steps."""

    def __init__(self, vocab, table):
        self.vocab = vocab
        self.cfg = _FakeCfg()
        self.table = table   # list of prob vectors, cycled by step index

    def encode(self, features):
        return ad.Tensor(np.zeros((len(features), 1)))

    def init_state(self):
        return 0

    def step(self, h_enc, state, y_prev, valid):
        p = self.table[min(state, len(self.table) - 1)]
        return ad.Tensor(np.asarray(p, dtype=np.float64)), state + 1, None


class FakeRNNT:
    """Scripted transducer: joint distribution depends on (frame, #labels).

    Encoder output row t carries the frame index; the predictor state is
    the number of consumed labels."""

    def __init__(self, vocab, table):
        self.vocab = vocab
        self.cfg = _FakeCfg()
        self.table = table   # dict (t, u) -> prob vector over lexical+blank

    def encode(self, features):
        T = len(features)
        return ad.Tensor(np.arange(T, dtype=np.float64).reshape(T, 1))

    def init_pred_state(self):
        return -1

    def predictor_step(self, state, y_in):
        return 0 if state == -1 else state + 1

    def joint_rows(self, state, frame_row, y_prev, valid):
        t = int(frame_row.data[0, 0])
        p = self.table[(t, state)]
        return ad.Tensor(np.asarray(p, dtype=np.float64).reshape(1, -1)), None


def enumerate_rnnt_marginals(table, T: int, n_lexical: int, cap: int):
    """All label sequences with per-frame emission cap, scored by the
    log-sum-exp of their alignment probabilities."""
    out: dict[tuple[int, ...], float] = {}

    def rec(t, tokens, this_frame, acc):
        if t == T:
            key = tuple(tokens)
            out[key] = np.logaddexp(out[key], acc) if key in out else acc
            return
        p = np.asarray(table[(t, len(tokens))], dtype=np.float64)
        with np.errstate(divide="ignore"):
            logp = np.log(p)
        if np.isfinite(logp[n_lexical]):
            rec(t + 1, tokens, 0, acc + logp[n_lexical])
        if this_frame < cap:
            for sym in range(n_lexical):
                if np.isfinite(logp[sym]):
                    rec(t, tokens + [sym], this_frame + 1, acc + logp[sym])

    rec(0, [], 0, 0.0)
    return out


def lm_context(lm, tokens):
    """Bigram context of a token prefix: its last token, or SOS when empty."""
    return tokens[-1] if tokens else lm.n_lexical


def reference_beam_search_rnnt(model, features, tree, cfg, lm=None):
    """The transducer beam search that expands every label of every
    frontier hypothesis before pruning (predictor step and tree advance for
    all of them).  Reference for the survivors-only search, which must
    return the same n-best bit for bit."""
    vocab = model.vocab
    L = vocab.n_lexical
    biasing = model.cfg.variant != "baseline"
    if not biasing or tree is None:
        get_valid, advance = (lambda st: []), (lambda st, tok: st)
    else:
        get_valid = lambda st: valid_set(tree, st)              # noqa: E731
        advance = lambda st, tok: advance_state(tree, st, tok)  # noqa: E731
    with ad.no_grad():
        h_enc = model.encode(features)
        T = h_enc.data.shape[0]
        frame_rows = [Tensor(h_enc.data[t:t + 1]) for t in range(T)]
        init = Hypothesis(tokens=(), log_score=0.0,
                          model_state=model.predictor_step(model.init_pred_state(),
                                                           vocab.sos),
                          tree_state=ROOT_STATE)
        beam = [init]
        for t in range(T):
            merged: dict[tuple[int, ...], Hypothesis] = {}
            frontier = beam
            for s in range(cfg.max_symbols_per_frame + 1):
                expansions: list[Hypothesis] = []
                for hyp in frontier:
                    y_prev = hyp.tokens[-1] if hyp.tokens else vocab.sos
                    p, _ = model.joint_rows(hyp.model_state, frame_rows[t],
                                            y_prev, get_valid(hyp.tree_state))
                    with np.errstate(divide="ignore"):
                        logp = np.log(p.data[0])
                    blank_score = hyp.log_score + logp[L]
                    prev = merged.get(hyp.tokens)
                    if prev is None:
                        merged[hyp.tokens] = replace(hyp, log_score=blank_score)
                    else:
                        prev.log_score = np.logaddexp(prev.log_score, blank_score)
                    if s == cfg.max_symbols_per_frame:
                        continue
                    if lm is not None and cfg.lm_weight > 0:
                        logp = fuse_lm(logp, lm, lm_context(lm, hyp.tokens),
                                       cfg.lm_weight, include_eos=False)
                    for sym in range(L):
                        score = hyp.log_score + logp[sym]
                        if score == -math.inf:
                            continue
                        expansions.append(Hypothesis(
                            tokens=hyp.tokens + (sym,), log_score=score,
                            model_state=model.predictor_step(hyp.model_state, sym),
                            tree_state=advance(hyp.tree_state, sym)))
                expansions.sort(key=Hypothesis.sort_key)
                frontier = expansions[:cfg.beam]
                if not frontier:
                    break
            beam = sorted(merged.values(), key=Hypothesis.sort_key)[:cfg.beam]
        return beam


def reference_beam_search_aed(model, features, tree, cfg, lm=None):
    """The encoder-decoder beam search that builds a hypothesis (tree
    advance included) for every finite label of every active hypothesis
    before pruning.  Reference for the survivors-only search, which must
    return the same n-best bit for bit."""
    vocab = model.vocab
    L = vocab.n_lexical
    biasing = model.cfg.variant != "baseline"
    if not biasing or tree is None:
        get_valid, advance = (lambda st: []), (lambda st, tok: st)
    else:
        get_valid = lambda st: valid_set(tree, st)              # noqa: E731
        advance = lambda st, tok: advance_state(tree, st, tok)  # noqa: E731
    with ad.no_grad():
        h_enc = model.encode(features)
        init = Hypothesis(tokens=(), log_score=0.0,
                          model_state=model.init_state(),
                          tree_state=ROOT_STATE)
        active = [init]
        finished: list[Hypothesis] = []
        for _ in range(cfg.max_len):
            if not active:
                break
            cands: list[Hypothesis] = []
            for hyp in active:
                y_prev = hyp.tokens[-1] if hyp.tokens else vocab.sos
                p, new_state, _ = model.step(h_enc, hyp.model_state, y_prev,
                                             get_valid(hyp.tree_state))
                with np.errstate(divide="ignore"):
                    logp = np.log(p.data)
                if lm is not None and cfg.lm_weight > 0:
                    logp = fuse_lm(logp, lm, lm_context(lm, hyp.tokens),
                                   cfg.lm_weight, include_eos=True)
                for sym in range(L + 1):
                    score = hyp.log_score + logp[sym]
                    if score == -math.inf:
                        continue
                    if sym == L:   # EOS
                        finished.append(replace(hyp, log_score=score))
                    else:
                        cands.append(Hypothesis(
                            tokens=hyp.tokens + (sym,), log_score=score,
                            model_state=new_state,
                            tree_state=advance(hyp.tree_state, sym)))
            cands.sort(key=Hypothesis.sort_key)
            active = cands[:cfg.beam]
            if len(finished) >= cfg.beam:
                finished.sort(key=Hypothesis.sort_key)
                # scores only decrease, so a strictly worse frontier is done
                if active and active[0].log_score < finished[cfg.beam - 1].log_score:
                    break
        for hyp in active:   # ran out of length budget
            finished.append(replace(hyp, hit_max_len=True))
        finished.sort(key=Hypothesis.sort_key)
        return finished[:cfg.beam]


def fd_param_check(model, loss_fn, step: float = 1e-5, rel_tol: float = 1e-4):
    """Central finite differences against analytic grads for every tensor."""
    params = model.named_params()
    for p in params.values():
        p.zero_grad()
    loss = loss_fn()
    loss.backward()
    grads = {k: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
             for k, p in params.items()}
    for name, p in params.items():
        flat = p.data.reshape(-1)
        gflat = grads[name].reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            with ad.no_grad():
                hi = loss_fn().item()
            flat[k] = orig - step
            with ad.no_grad():
                lo = loss_fn().item()
            flat[k] = orig
            num = (hi - lo) / (2 * step)
            got = float(gflat[k])
            denom = max(abs(num), abs(got), 1e-6)
            assert abs(got - num) / denom <= rel_tol, \
                f"{name}[{k}]: analytic {got} vs fd {num}"
