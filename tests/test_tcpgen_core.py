import math

import numpy as np
import pytest

from tcpgen import autodiff as ad
from tcpgen import tcpgen_core as tc
from tcpgen.autodiff import Tensor
from tcpgen.rng import Stream

from helpers import one_row


def make_params(stream, d=4, d_v=3, ctx=5, emb=4, hidden=6):
    return tc.init_tcpgen_params(stream, d, d_v, ctx, emb, hidden)


def make_ptr(p_ptr, p_gen):
    p_ptr = np.asarray(p_ptr, dtype=np.float64)
    p_gen = float(p_gen)
    n = p_ptr.shape[-1] - 1
    scaled = p_gen * (1.0 - p_ptr[n])
    return tc.PtrStep(p_ptr=Tensor(p_ptr), h_ptr=Tensor(np.zeros(3)),
                      p_gen=Tensor(np.array(p_gen)),
                      p_gen_scaled=Tensor(np.array(scaled)))


# -- queries --------------------------------------------------------------

def test_query_zero_inputs():
    p = make_params(Stream(1))
    q = tc.query(p, Tensor(np.zeros(5)), Tensor(np.zeros(4)))
    assert np.array_equal(q.data, np.zeros(4))


def test_query_identity_projection():
    p = make_params(Stream(2), d=5, ctx=5)
    p.wq_c = ad.parameter(np.eye(5))
    p.wq_y = ad.parameter(np.zeros((5, 4)))
    c = Stream(3).gauss_array((5,))
    q = tc.query(p, Tensor(c), Tensor(np.ones(4)))
    assert np.allclose(q.data, c, atol=0, rtol=0)


def test_query_matches_manual_matmul():
    p = make_params(Stream(4))
    c = Stream(5).gauss_array((5,))
    y = Stream(6).gauss_array((4,))
    q = tc.query(p, Tensor(c), Tensor(y))
    manual = np.array([
        sum(p.wq_c.data[i, j] * c[j] for j in range(5))
        + sum(p.wq_y.data[i, j] * y[j] for j in range(4))
        for i in range(4)])
    assert np.max(np.abs(q.data - manual)) < 1e-12


def test_query_rnnt_uses_encoder_state_and_batches():
    p = make_params(Stream(7))
    h = Stream(8).gauss_array((6, 5))
    y = Stream(9).gauss_array((4,))
    q2 = tc.query(p, Tensor(h), Tensor(y))
    assert q2.data.shape == (6, 4)
    for t in range(6):
        q1 = p.wq_c.data @ h[t] + p.wq_y.data @ y
        assert np.max(np.abs(q2.data[t] - q1)) < 1e-12


# -- attention ------------------------------------------------------------

def test_attention_empty_valid_set_is_all_ool():
    p = make_params(Stream(10))
    emb = Tensor(Stream(11).gauss_array((9, 4)))
    q = Tensor(Stream(12).gauss_array((4,)))
    p_ptr, h_ptr = tc.ptr_attention(p, q, [], emb, n_lexical=8)
    assert p_ptr.data[8] == 1.0
    assert np.all(p_ptr.data[:8] == 0.0)
    v_ool = p.wv.data @ p.ool_emb.data
    assert np.allclose(h_ptr.data, v_ool, rtol=0, atol=1e-15)


def test_attention_equal_logits_is_uniform():
    p = make_params(Stream(13))
    p.wk = ad.parameter(np.zeros((4, 4)))   # all keys zero -> equal logits
    emb = Tensor(Stream(14).gauss_array((9, 4)))
    q = Tensor(Stream(15).gauss_array((4,)))
    p_ptr, _ = tc.ptr_attention(p, q, [1, 5], emb, n_lexical=8)
    for idx in (1, 5, 8):
        assert p_ptr.data[idx] == pytest.approx(1.0 / 3.0, abs=1e-15)
    assert p_ptr.data[[0, 2, 3, 4, 6, 7]].sum() == 0.0


def test_attention_matches_explicit_logit_oracle():
    stream = Stream(16)
    for _ in range(20):
        p = make_params(stream)
        emb = Stream(stream.randint(10 ** 6)).gauss_array((12, 4))
        q = Stream(stream.randint(10 ** 6)).gauss_array((4,))
        support = sorted(stream.sample(range(11), 5))
        p_ptr, h_ptr = tc.ptr_attention(p, Tensor(q), support, Tensor(emb),
                                        n_lexical=11)
        keys = [p.wk.data @ emb[j] for j in support] + [p.wk.data @ p.ool_emb.data]
        vals = [p.wv.data @ emb[j] for j in support] + [p.wv.data @ p.ool_emb.data]
        logits = np.array([q @ k for k in keys]) / math.sqrt(p.d)
        e = np.exp(logits - logits.max())
        soft = e / e.sum()
        expect = np.zeros(12)
        expect[support] = soft[:-1]
        expect[11] = soft[-1]
        assert np.max(np.abs(p_ptr.data - expect)) < 1e-12
        off = [i for i in range(12) if i not in support and i != 11]
        assert np.all(p_ptr.data[off] == 0.0)
        assert np.max(np.abs(h_ptr.data - sum(s * v for s, v in zip(soft, vals)))) < 1e-12


def test_attention_batched_matches_single():
    """Row t of a call on rows equals the call on row t as a vector, for
    every pointer function."""
    p = make_params(Stream(17))
    emb = Tensor(Stream(18).gauss_array((9, 4)))
    Q = Stream(19).gauss_array((5, 4))
    C = Stream(33).gauss_array((5, 5))
    H = Stream(34).gauss_array((5, 6))
    y = Tensor(Stream(35).gauss_array((4,)))
    valid = [0, 3, 7]
    q2 = tc.query(p, Tensor(C), y)
    p2, h2 = tc.ptr_attention(p, Tensor(Q), valid, emb, n_lexical=8)
    g2, s2 = tc.generation_prob(p, Tensor(H), h2, p2[:, 8])
    step2 = tc.pointer_step(p, Tensor(Q), valid, emb, Tensor(H), n_lexical=8)
    for t in range(5):
        q1 = tc.query(p, Tensor(C[t]), y)
        p1, h1 = tc.ptr_attention(p, Tensor(Q[t]), valid, emb, n_lexical=8)
        g1, s1 = tc.generation_prob(p, Tensor(H[t]), h1, p1[8])
        step1 = tc.pointer_step(p, Tensor(Q[t]), valid, emb, Tensor(H[t]),
                                n_lexical=8)
        pairs = [(q2, q1), (p2, p1), (h2, h1), (g2, g1), (s2, s1),
                 (step2.p_ptr, step1.p_ptr), (step2.h_ptr, step1.h_ptr),
                 (step2.p_gen, step1.p_gen),
                 (step2.p_gen_scaled, step1.p_gen_scaled)]
        for rows, single in pairs:
            assert rows.data.shape[1:] == single.data.shape
            assert np.max(np.abs(rows.data[t] - single.data)) < 1e-12


def test_attention_rejects_non_lexical_valid_ids():
    p = make_params(Stream(20))
    emb = Tensor(Stream(21).gauss_array((9, 4)))
    for q in (Tensor(np.zeros(4)), Tensor(np.zeros((3, 4)))):
        # the unsorted lists hide the bad id between two lexical ends
        for valid in ([8], [0, 3, 8], [-1, 0, 3], [3, 8, 0], [3, -1, 5]):
            with pytest.raises(ValueError):
                tc.ptr_attention(p, q, valid, emb, n_lexical=8)


# -- generation probability ----------------------------------------------

def test_gen_prob_zero_weights_gives_half():
    p = make_params(Stream(22))
    p.wgen = ad.parameter(np.zeros((1, 9)))
    p_gen, scaled = tc.generation_prob(p, Tensor(np.ones(6)),
                                       Tensor(np.ones(3)), Tensor(np.array(0.0)))
    assert p_gen.item() == pytest.approx(0.5)
    assert scaled.item() == pytest.approx(0.5)


def test_gen_prob_full_ool_mass_kills_scaled():
    p = make_params(Stream(23))
    p_gen, scaled = tc.generation_prob(p, Tensor(np.ones(6)),
                                       Tensor(np.ones(3)), Tensor(np.array(1.0)))
    assert scaled.item() == pytest.approx(0.0)


def test_gen_prob_hand_scaling():
    p = make_params(Stream(24))
    p.wgen = ad.parameter(np.zeros((1, 9)))  # p_gen = 0.5
    _, scaled = tc.generation_prob(p, Tensor(np.zeros(6)),
                                   Tensor(np.zeros(3)), Tensor(np.array(0.2)))
    assert scaled.item() == pytest.approx(0.4)


def test_monotone_ool_damping():
    stream = Stream(25)
    for _ in range(200):
        p_gen = stream.uniform()
        p_ool = stream.uniform()
        ptr = make_ptr([0.0, 1.0 - p_ool, p_ool], p_gen)
        assert ptr.p_gen_scaled.item() <= ptr.p_gen.item() + 1e-15
    ptr = make_ptr([0.3, 0.7, 0.0], 0.8)
    assert ptr.p_gen_scaled.item() == pytest.approx(0.8)


# -- interpolation --------------------------------------------------------

def test_interpolate_aed_zero_gen_is_model():
    p_mdl = Tensor(np.array([0.5, 0.3, 0.2]))
    ptr = make_ptr([0.1, 0.7, 0.2], 0.0)
    out = tc.interpolate_aed(p_mdl, ptr, n_lexical=2)
    assert np.array_equal(out.data, p_mdl.data)


def test_interpolate_aed_hand_case():
    # model [0.5, 0.5] over {a, b}; pointer {a: 0, b: 0.8, OOL: 0.2}; gen 0.5
    p_mdl = Tensor(np.array([0.5, 0.5, 0.0]))   # EOS slot zero
    ptr = make_ptr([0.0, 0.8, 0.2], 0.5)
    assert ptr.p_gen_scaled.item() == pytest.approx(0.4)
    out = tc.interpolate_aed(p_mdl, ptr, n_lexical=2)
    assert out.data[0] == pytest.approx(0.30)
    assert out.data[1] == pytest.approx(0.70)
    assert out.data.sum() == pytest.approx(1.0, abs=1e-12)


def test_interpolate_aed_inert_when_all_ool():
    p_mdl = Tensor(np.array([0.4, 0.35, 0.25]))
    ptr = make_ptr([0.0, 0.0, 1.0], 0.9)
    out = tc.interpolate_aed(p_mdl, ptr, n_lexical=2)
    assert np.array_equal(out.data, p_mdl.data)


def test_interpolate_rnnt_hand_case():
    # model {blank: 0.5, a: 0.25, b: 0.25}; ptr {a: .6, b: .2, OOL: .2}; gen .5
    p_mdl = Tensor(np.array([[0.25, 0.25, 0.5]]))  # one frame, blank slot last
    ptr = one_row(make_ptr([0.6, 0.2, 0.2], 0.5))
    out = tc.interpolate_rnnt(p_mdl, ptr, n_lexical=2)
    assert out.data.shape == (1, 3)
    assert out.data[0, 2] == pytest.approx(0.5)
    assert out.data[0, 0] == pytest.approx(0.30)
    assert out.data[0, 1] == pytest.approx(0.20)
    assert out.data.sum() == pytest.approx(1.0, abs=1e-12)


def test_interpolate_rnnt_zero_gen_is_model():
    p_mdl = Tensor(np.array([[0.25, 0.25, 0.5]]))
    ptr = one_row(make_ptr([0.6, 0.2, 0.2], 0.0))
    out = tc.interpolate_rnnt(p_mdl, ptr, n_lexical=2)
    assert np.array_equal(out.data, p_mdl.data)


def test_interpolate_rnnt_all_blank_kills_pointer():
    p_mdl = Tensor(np.array([[0.0, 0.0, 1.0]]))
    ptr = one_row(make_ptr([0.6, 0.2, 0.2], 0.7))
    out = tc.interpolate_rnnt(p_mdl, ptr, n_lexical=2)
    assert np.allclose(out.data, p_mdl.data, atol=1e-15)


def random_distribution(stream, n):
    x = np.array([stream.gauss() for _ in range(n)])
    e = np.exp(x - x.max())
    return e / e.sum()


def test_normalization_randomized():
    stream = Stream(26)
    for _ in range(2000):
        L = 2 + stream.randint(6)
        p_mdl = random_distribution(stream, L + 1)
        k = stream.randint(L + 1)
        support = sorted(stream.sample(range(L), k))
        probs = random_distribution(stream, len(support) + 1)
        p_ptr = np.zeros(L + 1)
        p_ptr[support] = probs[:-1]
        p_ptr[L] = probs[-1]
        ptr = make_ptr(p_ptr, stream.uniform())
        out_a = tc.interpolate_aed(Tensor(p_mdl), ptr, L)
        out_r = tc.interpolate_rnnt(Tensor(p_mdl[None]), one_row(ptr), L)
        for out in (out_a, out_r):
            assert abs(out.data.sum() - 1.0) < 1e-9
            assert np.all(out.data >= 0.0)


def test_deep_biasing_vector():
    emb = Tensor(np.arange(12.0).reshape(4, 3))
    assert np.array_equal(tc.deep_biasing_vector(emb, []).data, np.zeros(3))
    assert np.array_equal(tc.deep_biasing_vector(emb, [2]).data, emb.data[2])
    got = tc.deep_biasing_vector(emb, [1, 3]).data
    expect = np.array([emb.data[1][j] + emb.data[3][j] for j in range(3)])
    assert np.array_equal(got, expect)


# -- differentiability ----------------------------------------------------

def test_gradients_match_finite_differences():
    stream = Stream(27)
    emb0 = Stream(28).gauss_array((9, 4))
    c0 = Stream(29).gauss_array((5,))
    hid0 = Stream(30).gauss_array((6,))
    w = Stream(31).gauss_array((9,))
    valid = [1, 4, 6]

    def build(params, emb):
        c = Tensor(c0)
        hidden = Tensor(hid0)
        q = tc.query(params, c, emb[0])
        ptr = tc.pointer_step(params, q, valid, emb, hidden, n_lexical=8)
        p_mdl = ad.softmax(Tensor(Stream(32).gauss_array((9,))))
        out = tc.interpolate_aed(p_mdl, ptr, n_lexical=8)
        return ad.tsum(ad.log(out) * Tensor(w))

    params = make_params(stream)
    emb = ad.parameter(emb0)
    loss = build(params, emb)
    loss.backward()
    leaves = dict(params.named())
    leaves["emb"] = emb
    step = 1e-5
    for name, leaf in leaves.items():
        analytic = leaf.grad if leaf.grad is not None else np.zeros_like(leaf.data)
        flat = leaf.data.reshape(-1)
        for k in range(flat.size):
            orig = flat[k]
            flat[k] = orig + step
            hi = build(params, emb).item()
            flat[k] = orig - step
            lo = build(params, emb).item()
            flat[k] = orig
            num = (hi - lo) / (2 * step)
            got = float(analytic.reshape(-1)[k])
            denom = max(abs(num), abs(got), 1e-8)
            assert abs(got - num) / denom < 1e-4, (name, k, got, num)
