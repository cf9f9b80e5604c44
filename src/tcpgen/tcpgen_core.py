"""Tree-constrained pointer generator: masked attention over the valid set,
pointer output vector, generation probability, and distribution interpolation.

The pointer distribution lives over lexical subwords plus a trailing OOL
slot (index = number of lexical units).  Masking is done by restricting the
softmax support to the valid set plus OOL — entries off that support are
exact zeros, not large-negative approximations.  The query, attention and
generation-probability functions take one query as a vector or many as
rows through the same code: the last axis is the feature or label axis and
any leading axis is carried along.  The encoder-decoder model evaluates
one vector per step and mixes it in with `interpolate_aed`; the transducer
evaluates one row per encoder frame and mixes them in with
`interpolate_rnnt`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import autodiff as ad
from .autodiff import Tensor
from .rng import Stream

P_GEN_FLOOR = 1e-7  # keeps log terms finite in losses


@dataclass
class TCPGenParams:
    """Trainable projections of the pointer component.

    wq_c: (d, ctx)   query from context / encoder state
    wq_y: (d, emb)   query from previous-token embedding
    wk:   (d, emb)   key projection of the shared embedding table
    wv:   (dv, emb)  value projection of the shared embedding table
    wgen: (1, hidden + dv)
    ool_emb: (emb,)  dedicated learned embedding for the OOL slot
    """

    wq_c: Tensor
    wq_y: Tensor
    wk: Tensor
    wv: Tensor
    wgen: Tensor
    ool_emb: Tensor
    d: int

    def named(self, prefix: str = "tcpgen") -> dict[str, Tensor]:
        return {
            f"{prefix}.Wq_c": self.wq_c,
            f"{prefix}.Wq_y": self.wq_y,
            f"{prefix}.Wk": self.wk,
            f"{prefix}.Wv": self.wv,
            f"{prefix}.Wgen": self.wgen,
            f"{prefix}.ool_emb": self.ool_emb,
        }


def init_tcpgen_params(stream: Stream, d: int, d_v: int, ctx_dim: int,
                       emb_dim: int, hidden_dim: int) -> TCPGenParams:
    def w(rows, cols):
        return ad.parameter(stream.gauss_array((rows, cols), scale=1.0 / math.sqrt(cols)))

    return TCPGenParams(
        wq_c=w(d, ctx_dim),
        wq_y=w(d, emb_dim),
        wk=w(d, emb_dim),
        wv=w(d_v, emb_dim),
        wgen=w(1, hidden_dim + d_v),
        ool_emb=ad.parameter(stream.gauss_array((emb_dim,), scale=1.0 / math.sqrt(emb_dim))),
        d=d,
    )


@dataclass
class PtrStep:
    """One pointer evaluation for a vector query (no leading axis) or for
    query rows (leading axis T), the leading shape shared by every field.

    p_ptr: (..., L+1)  lexical subwords plus OOL at index L, exactly zero
                       off valid ∪ {OOL}
    h_ptr: (..., dv)   pointer output vector
    p_gen, p_gen_scaled: (...)
    """

    p_ptr: Tensor
    h_ptr: Tensor
    p_gen: Tensor
    p_gen_scaled: Tensor


def query(params: TCPGenParams, ctx: Tensor, y_prev_emb: Tensor) -> Tensor:
    """Pointer query from context (..., ctx) and the previous token -> (..., d).

    The context is the attention context vector (encoder-decoder) or the
    encoder rows (transducer)."""
    return ctx @ ad.transpose(params.wq_c) + params.wq_y @ y_prev_emb


def ptr_attention(params: TCPGenParams, query: Tensor, valid: list[int],
                  embeddings: Tensor, n_lexical: int) -> tuple[Tensor, Tensor]:
    """Scaled dot-product attention restricted to valid ∪ {OOL}.

    Returns (p_ptr, h_ptr) for a (..., d) query; the attention columns
    follow the order of `valid`, then OOL.  An empty valid set is legal:
    the softmax runs over OOL alone, so p_ptr[..., OOL] = 1 and h_ptr is
    the OOL value vector.
    """
    if valid and (min(valid) < 0 or max(valid) >= n_lexical):
        raise ValueError("valid set must contain lexical ids only")
    k_ool = ad.reshape(params.wk @ params.ool_emb, (1, -1))
    v_ool = ad.reshape(params.wv @ params.ool_emb, (1, -1))
    if valid:
        rows = embeddings[valid]
        keys = ad.cat([rows @ ad.transpose(params.wk), k_ool])
        vals = ad.cat([rows @ ad.transpose(params.wv), v_ool])
    else:
        keys, vals = k_ool, v_ool
    scale = 1.0 / math.sqrt(params.d)
    logits = (query @ ad.transpose(keys)) * scale
    attn = ad.softmax(logits, axis=-1)
    p_ptr = ad.scatter(attn, valid + [n_lexical], n_lexical + 1)
    h_ptr = attn @ vals
    return p_ptr, h_ptr


def generation_prob(params: TCPGenParams, hidden: Tensor, h_ptr: Tensor,
                    p_ool: Tensor) -> tuple[Tensor, Tensor]:
    """p_gen = sigmoid(Wgen [hidden; h_ptr]), and its OOL-scaled variant."""
    z = ad.cat([hidden, h_ptr], axis=-1) @ params.wgen[0]
    p_gen = ad.clip(ad.sigmoid(z), P_GEN_FLOOR, 1.0 - P_GEN_FLOOR)
    return p_gen, p_gen * (1.0 - p_ool)


def pointer_step(params: TCPGenParams, query: Tensor, valid: list[int],
                 embeddings: Tensor, hidden: Tensor, n_lexical: int) -> PtrStep:
    """Full pointer evaluation: attention, output vector, generation prob,
    for a (..., d) query and a (..., hidden) state of equal leading shape."""
    p_ptr, h_ptr = ptr_attention(params, query, valid, embeddings, n_lexical)
    p_gen, p_gen_scaled = generation_prob(params, hidden, h_ptr,
                                          p_ptr[..., n_lexical])
    return PtrStep(p_ptr=p_ptr, h_ptr=h_ptr, p_gen=p_gen, p_gen_scaled=p_gen_scaled)


def interpolate_aed(p_mdl: Tensor, ptr: PtrStep, n_lexical: int) -> Tensor:
    """P(y) = P_mdl(y) (1 - scaled_gen) + P_ptr(y) p_gen, over lexical + EOS.

    One decoder step: p_mdl is (L+1,) and `ptr` has no leading axis.  EOS
    gets no pointer mass; the pointer's OOL mass is absorbed through
    the scaled generation probability, so the result sums to one.
    """
    ptr_lex = ad.cat([ptr.p_ptr[:n_lexical], Tensor(np.zeros(1))])
    return p_mdl * (1.0 - ptr.p_gen_scaled) + ptr_lex * ptr.p_gen


def interpolate_rnnt(p_mdl: Tensor, ptr: PtrStep, n_lexical: int) -> Tensor:
    """Blank-aware interpolation over lexical + BLANK (blank slot last).

    P(blank) passes through unchanged; lexical entries mix the model and
    pointer terms with the pointer side scaled by the total non-blank model
    mass so the result sums to one.  p_mdl is (T, L+1), one row per
    encoder frame, and `ptr` has the leading axis T.
    """
    L = n_lexical
    T = p_mdl.data.shape[0]
    blank = p_mdl[:, L]
    s = 1.0 - blank
    lex = (p_mdl[:, :L] * ad.reshape(1.0 - ptr.p_gen_scaled, (T, 1))
           + ptr.p_ptr[:, :L] * ad.reshape(ptr.p_gen * s, (T, 1)))
    return ad.cat([lex, ad.reshape(blank, (T, 1))], axis=1)


def deep_biasing_vector(embeddings: Tensor, valid: list[int]) -> Tensor:
    """Sum of embedding rows over the valid set; zero vector when empty."""
    if not valid:
        return Tensor(np.zeros(embeddings.data.shape[1]))
    return ad.tsum(embeddings[valid], axis=0)
