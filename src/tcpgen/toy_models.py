"""Small trainable encoder-decoder and transducer models with optional
deep biasing and pointer components, their losses, and the training loop.

Both families share one embedding table (also the pointer's key/value
source) and a single-layer tanh recurrent encoder.  Everything runs in
double precision through the in-package autodiff engine; training is
single-threaded and fully determined by the seed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from . import tcpgen_core as tcp
from .autodiff import Tensor
from .biasing_tree import (PrefixTree, ROOT_STATE, advance_state, build_tree,
                           valid_set)
from .lexicon import SubwordVocab
from .rng import Stream, derive_seed

VARIANTS = ("baseline", "db", "tcpgen", "tcpgen_db")


class TrainingDiverged(RuntimeError):
    def __init__(self, epoch: int, step: int):
        super().__init__(f"non-finite loss at epoch {epoch}, step {step}")
        self.epoch = epoch
        self.step = step


@dataclass
class ModelConfig:
    family: str = "aed"        # aed | rnnt
    variant: str = "baseline"  # baseline | db | tcpgen | tcpgen_db
    feat_dim: int = 16
    hidden: int = 32
    emb_dim: int = 32
    attn_dim: int = 32         # pointer attention width d
    attn_val_dim: int = 32     # pointer value width d_v
    encoder_stride: int = 3    # keep every k-th encoder state (frame rate cut)

    def __post_init__(self):
        if self.family not in ("aed", "rnnt"):
            raise ValueError(f"unknown model family {self.family!r}")
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}")

    @property
    def biased(self) -> bool:
        """Whether the model reads the biasing tree's valid sets."""
        return self.variant != "baseline"

    @property
    def uses_tcpgen(self) -> bool:
        return self.variant in ("tcpgen", "tcpgen_db")

    @property
    def uses_db(self) -> bool:
        return self.variant in ("db", "tcpgen_db")


@dataclass
class TrainConfig:
    lr: float = 0.01
    epochs: int = 3
    batch_size: int = 8
    drop_rate: float = 0.40
    distractors: int = 50
    clip_norm: float = 5.0

    def __post_init__(self):
        if not 0.0 <= self.drop_rate <= 1.0:
            raise ValueError("drop_rate must lie in [0, 1]")


@dataclass
class TrainItem:
    utt_id: str
    features: np.ndarray        # (T, F)
    targets: tuple[int, ...]    # lexical subword ids
    ref_words: tuple[str, ...]  # reference word sequence


def _winit(stream: Stream, rows: int, cols: int) -> Tensor:
    return ad.parameter(stream.gauss_array((rows, cols), scale=1.0 / math.sqrt(cols)))


class ToyModel:
    """Parameters and reference replay shared by both families.

    Draw order from the init stream: embedding table, encoder, the family's
    own parameters (`_init_head`), then the TCPGen projections.
    """

    family = ""

    def __init__(self, vocab: SubwordVocab, cfg: ModelConfig, stream: Stream):
        if cfg.family != self.family:
            raise ValueError(f"ModelConfig.family must be {self.family!r}")
        self.vocab = vocab
        self.cfg = cfg
        h, e = cfg.hidden, cfg.emb_dim
        self.emb = _winit(stream, vocab.n_total, e)
        self.w_enc = _winit(stream, h, cfg.feat_dim + h)
        self.b_enc = ad.parameter(np.zeros(h))
        self._head = self._init_head(stream)
        self.tcpgen = (tcp.init_tcpgen_params(
            stream, cfg.attn_dim, cfg.attn_val_dim, ctx_dim=h,
            emb_dim=e, hidden_dim=h) if cfg.uses_tcpgen else None)

    def _init_head(self, stream: Stream) -> dict[str, Tensor]:
        """Draw the family's parameters; returns them by checkpoint name."""
        raise NotImplementedError

    def named_params(self) -> dict[str, Tensor]:
        out = {"emb.table": self.emb,
               f"{self.family}.W_enc": self.w_enc,
               f"{self.family}.b_enc": self.b_enc}
        out.update(self._head)
        if self.tcpgen is not None:
            out.update(self.tcpgen.named())
        return out

    def encode(self, features: np.ndarray) -> Tensor:
        """Single-layer tanh recurrence over feature frames -> (T', hidden).

        With k = encoder_stride only every k-th hidden state is kept (the
        recurrence still sees every frame), trimming the attention/joint grid
        roughly to one position per subword at the synthetic frame rates."""
        feat_dim, hidden = self.cfg.feat_dim, self.cfg.hidden
        stride = self.cfg.encoder_stride
        feats = np.asarray(features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[1] != feat_dim:
            raise ValueError(f"features must be (T, {feat_dim}), got {feats.shape}")
        if feats.shape[0] < 1:
            raise ValueError("features must contain at least one frame")
        if not np.all(np.isfinite(feats)):
            raise ValueError("non-finite values in input features")
        x = Tensor(feats)
        xp = x @ ad.transpose(self.w_enc[:, :feat_dim])    # (T, hidden)
        wh = self.w_enc[:, feat_dim:feat_dim + hidden]
        h = Tensor(np.zeros(hidden))
        rows = []
        T = feats.shape[0]
        for t in range(T):
            h = ad.tanh(xp[t] + wh @ h + self.b_enc)
            if (t + 1) % stride == 0 or t == T - 1:
                rows.append(h)
        return ad.stack(rows)

    def replay(self, targets: list[int], tree: PrefixTree | None):
        """Tree cursor replayed along a reference.

        Yields (y_prev, valid) before each of the len(targets) + 1 output
        steps.  `valid` is empty for the baseline or without a tree.
        """
        if not self.cfg.biased:
            tree = None
        y_prev, cursor = self.vocab.sos, ROOT_STATE
        for u in range(len(targets) + 1):
            yield y_prev, ([] if tree is None else valid_set(tree, cursor))
            if u < len(targets):
                y_prev = targets[u]
                if tree is not None:
                    cursor = advance_state(tree, cursor, y_prev)


class ToyAED(ToyModel):
    """Encoder, hybrid monotonic/content attention, recurrent decoder.

    Attention combines a content dot-product with a Gaussian location prior
    whose center advances by a learned positive step each output token;
    pure content attention cannot bootstrap alignment at this scale.
    """

    family = "aed"
    ATTN_WIDTH = 1.5   # Gaussian prior std, in subsampled frame positions

    def _init_head(self, stream: Stream) -> dict[str, Tensor]:
        L, h, e = self.vocab.n_lexical, self.cfg.hidden, self.cfg.emb_dim
        self.w_dec = _winit(stream, h, e + h + h)
        self.b_dec = ad.parameter(np.zeros(h))
        self.w_step = ad.parameter(np.zeros(h))
        # softplus(b) = 1: one subsampled position per output token at init
        self.b_step = ad.parameter(np.array(math.log(math.e - 1.0)))
        self.w_out = _winit(stream, L + 1, 2 * h)   # lexical + EOS
        self.w_db = _winit(stream, L + 1, e) if self.cfg.uses_db else None
        head = {"aed.W_dec": self.w_dec, "aed.b_dec": self.b_dec,
                "aed.w_step": self.w_step, "aed.b_step": self.b_step,
                "aed.W_out": self.w_out}
        if self.w_db is not None:
            head["aed.W_db"] = self.w_db
        return head

    @property
    def eos_slot(self) -> int:
        return self.vocab.n_lexical

    def init_state(self):
        """Decoder state: (hidden vector, attention center position)."""
        return (Tensor(np.zeros(self.cfg.hidden)), Tensor(np.array(-0.5)))

    def step(self, h_enc: Tensor, state, y_prev: int, valid: list[int]):
        """One decoder step; returns (output distribution, new state, ptr).

        `valid` is the current tree valid set; the baseline ignores it.
        """
        h_prev, center_prev = state
        y_emb = self.emb[y_prev]
        center = center_prev + ad.softplus(self.w_step @ h_prev + self.b_step)
        positions = Tensor(np.arange(h_enc.data.shape[0], dtype=np.float64))
        offset = positions - center
        location = offset * offset * (-0.5 / self.ATTN_WIDTH ** 2)
        content = (h_enc @ h_prev) * (1.0 / math.sqrt(self.cfg.hidden))
        alpha = ad.softmax(content + location)
        c = alpha @ h_enc
        h_dec = ad.tanh(self.w_dec @ ad.cat([y_emb, h_prev, c]) + self.b_dec)
        logits = self.w_out @ ad.cat([h_dec, c])
        if self.w_db is not None:
            logits = logits + self.w_db @ tcp.deep_biasing_vector(self.emb, valid)
        p_mdl = ad.softmax(logits)
        ptr = None
        if self.tcpgen is not None:
            q = tcp.query(self.tcpgen, c, y_emb)
            ptr = tcp.pointer_step(self.tcpgen, q, valid, self.emb,
                                   h_dec, self.vocab.n_lexical)
            p = tcp.interpolate_aed(p_mdl, ptr, self.vocab.n_lexical)
        else:
            p = p_mdl
        return p, (h_dec, center), ptr

    def loss(self, features: np.ndarray, targets, tree: PrefixTree | None) -> Tensor:
        """Teacher-forced cross-entropy, summed over steps incl. the EOS step.

        `targets` are lexical ids; the EOS step is appended internally.  The
        tree state is replayed along the reference.
        """
        h_enc = self.encode(features)
        state = self.init_state()
        targets = list(targets)
        terms = []
        for tgt, (y_prev, valid) in zip(targets + [self.eos_slot],
                                        self.replay(targets, tree)):
            p, state, _ = self.step(h_enc, state, y_prev, valid)
            terms.append(-ad.log(p[tgt]))
        total = terms[0]
        for t in terms[1:]:
            total = total + t
        return total


class ToyRNNT(ToyModel):
    """Encoder, recurrent predictor, and joint network with blank output."""

    family = "rnnt"

    def _init_head(self, stream: Stream) -> dict[str, Tensor]:
        cfg = self.cfg
        L, h, e = self.vocab.n_lexical, cfg.hidden, cfg.emb_dim
        self.w_pred = _winit(stream, h, e + h)
        self.b_pred = ad.parameter(np.zeros(h))
        # joint input: [h_pred; h_enc] plus a biasing vector for db variants
        self.bias_dim = 0 if not cfg.uses_db else (
            cfg.attn_val_dim if cfg.uses_tcpgen else e)
        self.w_joint = _winit(stream, h, 2 * h + self.bias_dim)
        self.b_joint = ad.parameter(np.zeros(h))
        self.w_joint2 = _winit(stream, L + 1, h)    # lexical + BLANK
        return {"rnnt.W_pred": self.w_pred, "rnnt.b_pred": self.b_pred,
                "rnnt.W_joint": self.w_joint, "rnnt.b_joint": self.b_joint,
                "rnnt.W_joint2": self.w_joint2}

    @property
    def blank_slot(self) -> int:
        return self.vocab.n_lexical

    def init_pred_state(self) -> Tensor:
        return Tensor(np.zeros(self.cfg.hidden))

    def predictor_step(self, state: Tensor, y_in: int) -> Tensor:
        y_emb = self.emb[y_in]
        return ad.tanh(self.w_pred @ ad.cat([y_emb, state]) + self.b_pred)

    def joint_rows(self, h_pred: Tensor, h_enc: Tensor, y_prev: int,
                   valid: list[int]) -> tuple[Tensor, tcp.PtrStep | None]:
        """Joint distribution for one predictor state across encoder rows.

        h_enc is (T, hidden); returns (T, L+1) probabilities with the blank
        slot last, plus the pointer step for TCPGen variants.
        """
        h, L = self.cfg.hidden, self.vocab.n_lexical
        w_pred_part = self.w_joint[:, :h]
        w_enc_part = self.w_joint[:, h:2 * h]
        z = h_enc @ ad.transpose(w_enc_part) + w_pred_part @ h_pred + self.b_joint
        p_ptr = h_ptr = None
        if self.tcpgen is not None:
            y_emb = self.emb[y_prev]
            q = tcp.query(self.tcpgen, h_enc, y_emb)
            p_ptr, h_ptr = tcp.ptr_attention(self.tcpgen, q, valid, self.emb, L)
        if self.bias_dim:
            w_bias = self.w_joint[:, 2 * h:2 * h + self.bias_dim]
            if self.tcpgen is not None:
                z = z + h_ptr @ ad.transpose(w_bias)
            else:
                z = z + w_bias @ tcp.deep_biasing_vector(self.emb, valid)
        h_joint = ad.tanh(z)
        p_mdl = ad.softmax(h_joint @ ad.transpose(self.w_joint2), axis=-1)
        ptr = None
        if self.tcpgen is not None:
            p_gen, p_gen_scaled = tcp.generation_prob(self.tcpgen, h_joint,
                                                      h_ptr, p_ptr[:, L])
            ptr = tcp.PtrStep(p_ptr=p_ptr, h_ptr=h_ptr, p_gen=p_gen,
                              p_gen_scaled=p_gen_scaled)
            p = tcp.interpolate_rnnt(p_mdl, ptr, L)
        else:
            p = p_mdl
        return p, ptr

    def log_lattice(self, features: np.ndarray, targets,
                    tree: PrefixTree | None) -> Tensor:
        """(U+1, T, L+1) log-probability lattice along the reference prefix."""
        h_enc = self.encode(features)
        state = self.init_pred_state()
        rows = []
        for y_prev, valid in self.replay(list(targets), tree):
            state = self.predictor_step(state, y_prev)
            p, _ = self.joint_rows(state, h_enc, y_prev, valid)
            rows.append(ad.log(p))
        return ad.stack(rows)

    def loss(self, features: np.ndarray, targets, tree: PrefixTree | None) -> Tensor:
        lattice = self.log_lattice(features, targets, tree)
        return transducer_loss(lattice, list(targets), self.blank_slot)


def transducer_loss(lattice: Tensor, targets: list[int], blank: int) -> Tensor:
    """Full-sum transducer loss from a (U+1, T, V) log-probability lattice.

    Marginalizes over all blank-augmented alignments with the standard
    forward recursion alpha[t,u] = logadd(alpha[t-1,u] + blank,
    alpha[t,u-1] + label); the backward pass injects analytic gradients
    computed from alpha/beta occupancies, so this is a single fused node.
    """
    logp = lattice.data
    if logp.ndim != 3:
        raise ValueError("lattice must be (U+1, T, V)")
    U = len(targets)
    T = logp.shape[1]
    if logp.shape[0] != U + 1:
        raise ValueError(f"lattice has {logp.shape[0]} rows, need {U + 1}")
    if T < 1:
        raise ValueError("lattice must cover at least one frame")

    B = logp[:, :, blank]                                   # (U+1, T)
    Lb = (logp[np.arange(U), :, targets] if U else
          np.zeros((0, T)))                                 # (U, T)

    neg = -np.inf
    alpha = np.full((T, U + 1), neg)
    alpha[0, 0] = 0.0
    for t in range(T):
        for u in range(U + 1):
            if t == 0 and u == 0:
                continue
            a = alpha[t - 1, u] + B[u, t - 1] if t > 0 else neg
            b = alpha[t, u - 1] + Lb[u - 1, t] if u > 0 else neg
            alpha[t, u] = np.logaddexp(a, b)
    log_total = alpha[T - 1, U] + B[U, T - 1]

    beta = np.full((T, U + 1), neg)
    beta[T - 1, U] = B[U, T - 1]
    for t in range(T - 1, -1, -1):
        for u in range(U, -1, -1):
            if t == T - 1 and u == U:
                continue
            a = B[u, t] + beta[t + 1, u] if t < T - 1 else neg
            b = Lb[u, t] + beta[t, u + 1] if u < U else neg
            beta[t, u] = np.logaddexp(a, b)

    grad = np.zeros_like(logp)
    for t in range(T):
        for u in range(U + 1):
            if not np.isfinite(alpha[t, u]):
                continue
            # blank transition (t,u) -> (t+1,u); terminal at (T-1, U)
            if t < T - 1:
                occ = math.exp(alpha[t, u] + B[u, t] + beta[t + 1, u] - log_total)
                grad[u, t, blank] -= occ
            elif u == U:
                grad[u, t, blank] -= math.exp(alpha[t, u] + B[u, t] - log_total)
            # label transition (t,u) -> (t,u+1)
            if u < U:
                occ = math.exp(alpha[t, u] + Lb[u, t] + beta[t, u + 1] - log_total)
                grad[u, t, targets[u]] -= occ

    return ad.custom(-log_total, (lattice,), (lambda g: g * grad,))


def build_model(vocab: SubwordVocab, cfg: ModelConfig, stream: Stream):
    return (ToyAED if cfg.family == "aed" else ToyRNNT)(vocab, cfg, stream)


def param_gradients(model, batch: list[tuple[np.ndarray, list[int], PrefixTree | None]]
                    ) -> tuple[float, dict[str, np.ndarray]]:
    """Mean-over-utterance loss and gradients for every trainable tensor."""
    params = model.named_params()
    for p in params.values():
        p.zero_grad()
    total = None
    for features, targets, tree in batch:
        term = model.loss(features, targets, tree) * (1.0 / len(batch))
        total = term if total is None else total + term
    total.backward()
    grads = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data))
             for name, p in params.items()}
    return total.item(), grads


class Adam:
    """Adam with global gradient-norm clipping; deterministic update order."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8

    def __init__(self, params: dict[str, Tensor], cfg: TrainConfig):
        self.params = dict(sorted(params.items()))
        self.cfg = cfg
        self.m = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in self.params.items()}
        self.t = 0

    def step(self, grads: dict[str, np.ndarray]) -> None:
        c = self.cfg
        norm = math.sqrt(sum(float((grads[k] ** 2).sum()) for k in self.params))
        scale = c.clip_norm / norm if norm > c.clip_norm else 1.0
        self.t += 1
        b1, b2 = self.BETA1, self.BETA2
        bc1 = 1.0 - b1 ** self.t
        bc2 = 1.0 - b2 ** self.t
        for k, p in self.params.items():
            g = grads[k] * scale
            self.m[k] = b1 * self.m[k] + (1 - b1) * g
            self.v[k] = b2 * self.v[k] + (1 - b2) * g * g
            p.data -= c.lr * (self.m[k] / bc1) / (np.sqrt(self.v[k] / bc2) + self.EPS)


def build_train_tree(vocab: SubwordVocab, ref_words, rare: set[str],
                     drop_rate: float, n_distractors: int,
                     stream: Stream) -> PrefixTree:
    """Per-utterance training biasing tree: reference rare words minus drops,
    plus sampled distractors from the rest of the rare list."""
    ref_set = set(ref_words)
    kept = [w for w in sorted(ref_set & rare) if stream.uniform() >= drop_rate]
    pool = sorted(rare - ref_set)
    distractors = stream.sample(pool, n_distractors)
    return build_tree(vocab, kept + distractors)


def train(model, cfg: TrainConfig, items: list[TrainItem], rare: set[str],
          seed: int, log=None) -> list[float]:
    """Train in place; returns per-epoch mean losses.  Deterministic in seed."""
    optim = Adam(model.named_params(), cfg)
    rare = set(rare)
    epoch_losses = []
    for epoch in range(cfg.epochs):
        order = list(range(len(items)))
        Stream(derive_seed(seed, "order", epoch)).shuffle(order)
        running = 0.0
        n_batches = 0
        for b0 in range(0, len(order), cfg.batch_size):
            batch = []
            for idx in order[b0:b0 + cfg.batch_size]:
                item = items[idx]
                tree = None
                if model.cfg.biased:
                    tree = build_train_tree(
                        model.vocab, item.ref_words, rare, cfg.drop_rate,
                        cfg.distractors,
                        Stream(derive_seed(seed, "list", epoch, item.utt_id)))
                batch.append((item.features, list(item.targets), tree))
            loss, grads = param_gradients(model, batch)
            if not math.isfinite(loss):
                raise TrainingDiverged(epoch, n_batches)
            optim.step(grads)
            running += loss
            n_batches += 1
        epoch_losses.append(running / max(n_batches, 1))
        if log is not None:
            log(f"epoch {epoch}: mean loss {epoch_losses[-1]:.4f}")
    return epoch_losses


def export_tensors(model) -> dict[str, np.ndarray]:
    return {k: p.data.copy() for k, p in model.named_params().items()}


def load_tensors(model, tensors: dict[str, np.ndarray]) -> None:
    params = model.named_params()
    for name, p in params.items():
        if name not in tensors:
            raise KeyError(f"checkpoint is missing tensor {name!r}")
        if tensors[name].shape != p.data.shape:
            raise ValueError(f"shape mismatch for {name!r}: "
                             f"{tensors[name].shape} vs {p.data.shape}")
        p.data = tensors[name].astype(np.float64).copy()
