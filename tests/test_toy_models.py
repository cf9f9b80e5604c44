import math

import numpy as np
import pytest

from tcpgen import autodiff as ad
from tcpgen.autodiff import Tensor
from tcpgen.biasing_tree import ROOT_STATE, advance_state, build_tree, valid_set
from tcpgen.lexicon import SubwordVocab
from tcpgen.rng import Stream
from tcpgen.toy_models import (Adam, ModelConfig, TrainConfig, TrainItem,
                               TrainingDiverged, build_model, build_train_tree,
                               export_tensors, load_tensors, param_gradients,
                               train, transducer_loss)

from helpers import (TINY_VOCAB, copy_shared_weights, enumeration_transducer_loss,
                     fd_param_check, random_log_lattice, tiny_instance, tiny_model,
                     tree_words)


# -- encoder ---------------------------------------------------------------

def test_encode_zero_params_zero_input_gives_zeros():
    m = tiny_model("aed", "baseline", 1)
    m.w_enc.data[:] = 0.0
    m.b_enc.data[:] = 0.0
    out = m.encode(np.zeros((4, 2)))
    assert np.array_equal(out.data, np.zeros((4, 3)))


def test_encode_single_frame_is_one_cell_application():
    m = tiny_model("aed", "baseline", 2)
    x = Stream(3).gauss_array((1, 2))
    out = m.encode(x)
    manual = np.tanh(m.w_enc.data[:, :2] @ x[0] + m.b_enc.data)
    assert np.max(np.abs(out.data[0] - manual)) < 1e-15


def test_encode_matches_unrolled_recurrence_oracle():
    m = tiny_model("rnnt", "baseline", 4)
    x = Stream(5).gauss_array((6, 2))
    out = m.encode(x)
    h = np.zeros(3)
    for t in range(6):
        h = np.tanh(m.w_enc.data @ np.concatenate([x[t], h]) + m.b_enc.data)
        assert np.max(np.abs(out.data[t] - h)) < 1e-12


def test_encode_stride_keeps_every_kth_state_plus_last():
    from tcpgen.toy_models import ModelConfig, build_model
    cfg = ModelConfig(family="aed", variant="baseline", feat_dim=2, hidden=3,
                      emb_dim=3, attn_dim=2, attn_val_dim=2, encoder_stride=3)
    m = build_model(TINY_VOCAB, cfg, Stream(99))
    x = Stream(100).gauss_array((7, 2))
    strided = m.encode(x)
    cfg1 = ModelConfig(family="aed", variant="baseline", feat_dim=2, hidden=3,
                       emb_dim=3, attn_dim=2, attn_val_dim=2, encoder_stride=1)
    m1 = build_model(TINY_VOCAB, cfg1, Stream(99))
    full = m1.encode(x)
    # states at t = 2, 5 and the final frame 6 (0-based)
    assert strided.data.shape == (3, 3)
    for row, t in zip(range(3), (2, 5, 6)):
        assert np.array_equal(strided.data[row], full.data[t])


def test_encode_rejects_nan():
    m = tiny_model("aed", "baseline", 6)
    bad = np.zeros((3, 2))
    bad[1, 0] = np.nan
    with pytest.raises(ValueError):
        m.encode(bad)


# -- step distributions ----------------------------------------------------

@pytest.mark.parametrize("variant", ["baseline", "db", "tcpgen", "tcpgen_db"])
def test_aed_step_distribution_sums_to_one(variant):
    m = tiny_model("aed", variant, 7)
    tree = build_tree(TINY_VOCAB, ["KATO", "TORI"])
    h_enc = m.encode(Stream(8).gauss_array((4, 2)))
    state = m.init_state()
    tree_state = ROOT_STATE
    for tok in [0, 2, 1]:
        valid = valid_set(tree, tree_state) if variant != "baseline" else []
        p, state, _ = m.step(h_enc, state, tok, valid)
        assert abs(p.data.sum() - 1.0) < 1e-9
        assert np.all(p.data >= 0)
        tree_state = advance_state(tree, tree_state, tok)


@pytest.mark.parametrize("variant", ["baseline", "db", "tcpgen", "tcpgen_db"])
def test_rnnt_joint_distribution_sums_to_one(variant):
    m = tiny_model("rnnt", variant, 9)
    tree = build_tree(TINY_VOCAB, ["KATO", "TORI"])
    h_enc = m.encode(Stream(10).gauss_array((4, 2)))
    h_pred = m.predictor_step(m.init_pred_state(), TINY_VOCAB.sos)
    valid = valid_set(tree, ROOT_STATE) if variant != "baseline" else []
    p, _ = m.joint_rows(h_pred, h_enc, TINY_VOCAB.sos, valid)
    sums = p.data.sum(axis=1)
    assert np.max(np.abs(sums - 1.0)) < 1e-9


@pytest.mark.parametrize("family,variant", [
    ("aed", "tcpgen"), ("aed", "db"), ("rnnt", "tcpgen"), ("rnnt", "db")])
def test_empty_tree_inertness_vs_baseline(family, variant):
    """With an empty biasing tree, biased models with the baseline's weights
    reproduce the baseline's loss and distributions."""
    base = tiny_model(family, "baseline", 11)
    biased = tiny_model(family, variant, 12)
    copy_shared_weights(base, biased)
    empty = build_tree(TINY_VOCAB, [])
    feats = Stream(13).gauss_array((4, 2))
    targets = [0, 3]
    l0 = base.loss(feats, targets, None).item()
    l1 = biased.loss(feats, targets, empty).item()
    assert abs(l0 - l1) < 1e-9
    if family == "aed":
        h0 = base.encode(feats)
        p0, _, _ = base.step(h0, base.init_state(), TINY_VOCAB.sos, [])
        p1, _, _ = biased.step(biased.encode(feats), biased.init_state(),
                               TINY_VOCAB.sos, [])
        assert np.max(np.abs(p0.data - p1.data)) < 1e-12


def test_aed_uniform_model_loss_is_length_times_logV():
    m = tiny_model("aed", "baseline", 14)
    m.w_out.data[:] = 0.0
    feats = Stream(15).gauss_array((3, 2))
    targets = [0, 2, 4]
    V = TINY_VOCAB.n_lexical + 1
    loss = m.loss(feats, targets, None).item()
    assert loss == pytest.approx((len(targets) + 1) * math.log(V), rel=1e-12)


def test_aed_near_one_hot_target_gives_near_zero_loss():
    m = tiny_model("aed", "baseline", 16)
    # force overwhelming mass on EOS: h_dec saturates to ones, and only the
    # EOS output row reads it with large weight
    m.w_out.data[:] = 0.0
    m.w_dec.data[:] = 0.0
    m.b_dec.data[:] = 100.0   # h_dec = tanh(100) ~ 1
    m.w_out.data[m.eos_slot, :3] = 100.0
    loss = m.loss(Stream(17).gauss_array((2, 2)), [], None).item()
    assert loss < 1e-10


def test_aed_loss_matches_gathered_step_logprobs():
    m = tiny_model("aed", "tcpgen", 18)
    tree = build_tree(TINY_VOCAB, ["KATO", "KARI"])
    feats = Stream(19).gauss_array((4, 2))
    targets = [0, 2, 1, 3]
    loss = m.loss(feats, targets, tree).item()
    h_enc = m.encode(feats)
    state = m.init_state()
    tree_state = ROOT_STATE
    y_prev = TINY_VOCAB.sos
    total = 0.0
    for tgt in targets + [m.eos_slot]:
        p, state, _ = m.step(h_enc, state, y_prev, valid_set(tree, tree_state))
        total -= math.log(p.data[tgt])
        if tgt != m.eos_slot:
            tree_state = advance_state(tree, tree_state, tgt)
            y_prev = tgt
    assert loss == pytest.approx(total, rel=1e-12)


def test_rnnt_lattice_matches_hand_replayed_joint_rows():
    m = tiny_model("rnnt", "tcpgen_db", 30)
    tree = build_tree(TINY_VOCAB, ["KATO", "KARI"])
    feats = Stream(31).gauss_array((4, 2))
    # TO leaves the tree, KA_ ends that word back at the root, KA RI_
    # re-enters the tree and completes KARI
    targets = [1, 2, 0, 4]
    lattice = m.log_lattice(feats, targets, tree).data
    h_enc = m.encode(feats)
    state = m.init_pred_state()
    tree_state = ROOT_STATE
    y_prev = TINY_VOCAB.sos
    valids = []
    for u in range(len(targets) + 1):
        state = m.predictor_step(state, y_prev)
        valids.append(valid_set(tree, tree_state))
        p, _ = m.joint_rows(state, h_enc, y_prev, valids[-1])
        assert lattice[u] == pytest.approx(np.log(p.data), rel=1e-12)
        if u < len(targets):
            tree_state = advance_state(tree, tree_state, targets[u])
            y_prev = targets[u]
    assert valids == [[0], [], [0], [3, 4], [0]]


# -- transducer loss -------------------------------------------------------

def test_transducer_single_frame_empty_target():
    lat = random_log_lattice(Stream(20), U=0, T=1, V=4)
    loss = transducer_loss(Tensor(lat), [], blank=3).item()
    assert loss == pytest.approx(-lat[0, 0, 3], rel=1e-12)


def test_transducer_two_frames_one_label_two_alignments():
    lat = random_log_lattice(Stream(21), U=1, T=2, V=4)
    loss = transducer_loss(Tensor(lat), [2], blank=3).item()
    # alignments: (label, blank, blank) and (blank, label, blank)
    a1 = lat[0, 0, 2] + lat[1, 0, 3] + lat[1, 1, 3]
    a2 = lat[0, 0, 3] + lat[0, 1, 2] + lat[1, 1, 3]
    assert loss == pytest.approx(-np.logaddexp(a1, a2), rel=1e-12)


def test_transducer_uniform_lattice_closed_form():
    V = 5
    lat = np.full((2, 2, V), -math.log(V))
    loss = transducer_loss(Tensor(lat), [1], blank=V - 1).item()
    assert loss == pytest.approx(-(math.log(2) - 3 * math.log(V)), rel=1e-12)


def test_transducer_matches_enumeration_oracle():
    stream = Stream(22)
    for _ in range(60):
        U = stream.randint(4)
        T = 1 + stream.randint(4)
        V = 3 + stream.randint(3)
        targets = [stream.randint(V - 1) for _ in range(U)]
        lat = random_log_lattice(stream, U, T, V)
        got = transducer_loss(Tensor(lat), targets, blank=V - 1).item()
        want = enumeration_transducer_loss(lat, targets, blank=V - 1)
        assert got == pytest.approx(want, abs=1e-10)


def test_transducer_gradient_matches_fd():
    stream = Stream(23)
    lat0 = random_log_lattice(stream, U=2, T=3, V=4)
    lat = ad.parameter(lat0.copy())
    loss = transducer_loss(lat, [0, 2], blank=3)
    loss.backward()
    step = 1e-6
    flat = lat.data.reshape(-1)
    gflat = lat.grad.reshape(-1)
    for k in range(flat.size):
        orig = flat[k]
        flat[k] = orig + step
        hi = transducer_loss(Tensor(lat.data), [0, 2], blank=3).item()
        flat[k] = orig - step
        lo = transducer_loss(Tensor(lat.data), [0, 2], blank=3).item()
        flat[k] = orig
        num = (hi - lo) / (2 * step)
        assert gflat[k] == pytest.approx(num, abs=1e-6)


def test_transducer_rejects_bad_shapes():
    with pytest.raises(ValueError):
        transducer_loss(Tensor(np.zeros((2, 0, 3))), [1], blank=2)
    with pytest.raises(ValueError):
        transducer_loss(Tensor(np.zeros((2, 3, 3))), [1, 1], blank=2)


def test_rnnt_loss_matches_lattice_plus_fused_op():
    m = tiny_model("rnnt", "tcpgen_db", 24)
    feats, targets, tree = tiny_instance(Stream(25))
    loss = m.loss(feats, targets, tree).item()
    lat = m.log_lattice(feats, targets, tree)
    want = enumeration_transducer_loss(lat.data, targets, m.blank_slot)
    assert loss == pytest.approx(want, abs=1e-10)


# -- gradients -------------------------------------------------------------

def test_unused_embedding_rows_get_zero_gradient():
    m = tiny_model("aed", "baseline", 26)
    feats, targets, _ = tiny_instance(Stream(27))
    _, grads = param_gradients(m, [(feats, targets, None)])
    g = grads["emb.table"]
    for row in (TINY_VOCAB.ool, TINY_VOCAB.eos, TINY_VOCAB.blank):
        assert np.all(g[row] == 0.0)
    assert np.any(g[TINY_VOCAB.sos] != 0.0)


def test_gradient_doubles_when_batch_duplicated():
    m = tiny_model("rnnt", "baseline", 28)
    feats, targets, _ = tiny_instance(Stream(29))
    loss1, g1 = param_gradients(m, [(feats, targets, None)])
    loss2, g2 = param_gradients(m, [(feats, targets, None)] * 2)
    # mean reduction: duplicating the batch keeps loss and grads equal
    assert loss2 == pytest.approx(loss1, rel=1e-12)
    for k in g1:
        assert np.allclose(g1[k], g2[k], atol=1e-12)
    # sum over two distinct copies scales the contribution of each by 1/2
    feats2, targets2, _ = tiny_instance(Stream(30))
    _, g3 = param_gradients(m, [(feats, targets, None), (feats2, targets2, None)])
    half = {k: 0.5 * g1[k] for k in g1}
    _, g4 = param_gradients(m, [(feats2, targets2, None)])
    for k in g1:
        assert np.allclose(g3[k], half[k] + 0.5 * g4[k], atol=1e-12)


@pytest.mark.parametrize("family", ["aed", "rnnt"])
@pytest.mark.parametrize("variant", ["baseline", "db", "tcpgen", "tcpgen_db"])
def test_gradcheck_all_variants_quick(family, variant):
    stream = Stream(hash((family, variant)) % 1000 + 31)
    for trial in range(3):
        m = tiny_model(family, variant, 100 + trial)
        feats, targets, tree = tiny_instance(stream)
        tree_arg = tree if variant != "baseline" else None
        fd_param_check(m, lambda: m.loss(feats, targets, tree_arg))


# -- training --------------------------------------------------------------

def test_build_train_tree_drop_extremes():
    rare = {"KATO", "KARI", "TORI"}
    ref = ("KATO", "KARI", "RIRI")
    t_full = build_train_tree(TINY_VOCAB, ref, rare, 0.0, 0, Stream(32))
    assert tree_words(TINY_VOCAB, t_full) == ["KARI", "KATO"]   # both kept
    t_none = build_train_tree(TINY_VOCAB, ref, rare, 1.0, 1, Stream(33))
    assert tree_words(TINY_VOCAB, t_none) == ["TORI"]   # distractor only
    t_only_distractors = build_train_tree(TINY_VOCAB, ref, rare, 1.0, 5, Stream(34))
    # the pool is rare \ ref = {TORI}
    assert tree_words(TINY_VOCAB, t_only_distractors) == ["TORI"]


def make_items(n, seed):
    items = []
    stream = Stream(seed)
    words = {0: "KATO", 1: "TORI", 2: "KARI"}
    for i in range(n):
        feats, targets, _ = tiny_instance(stream)
        ref = tuple(words[t % 3] for t in targets)
        items.append(TrainItem(utt_id=f"u{i:03d}", features=feats,
                               targets=tuple(targets), ref_words=ref))
    return items


def test_train_decreases_loss_and_is_deterministic():
    items = make_items(12, 35)
    rare = {"KATO", "TORI"}
    cfg = TrainConfig(lr=0.02, epochs=3, batch_size=4, distractors=1)

    m1 = tiny_model("aed", "tcpgen", 36)
    losses1 = train(m1, cfg, items, rare, seed=77)
    assert losses1[-1] < losses1[0]

    m2 = tiny_model("aed", "tcpgen", 36)
    losses2 = train(m2, cfg, items, rare, seed=77)
    assert losses1 == losses2
    t1, t2 = export_tensors(m1), export_tensors(m2)
    for k in t1:
        assert np.array_equal(t1[k], t2[k]), k


def test_train_divergence_aborts_with_location():
    items = make_items(4, 37)
    cfg = TrainConfig(lr=0.01, epochs=2, batch_size=2)
    m = tiny_model("aed", "baseline", 38)
    m.w_out.data[:] = np.nan   # poisoned weights -> non-finite loss
    with pytest.raises(TrainingDiverged) as exc:
        train(m, cfg, items, set(), seed=5)
    assert exc.value.epoch == 0 and exc.value.step == 0


def test_export_load_roundtrip():
    m = tiny_model("rnnt", "tcpgen_db", 39)
    tensors = export_tensors(m)
    m2 = tiny_model("rnnt", "tcpgen_db", 40)
    load_tensors(m2, tensors)
    for k, v in export_tensors(m2).items():
        assert np.array_equal(v, tensors[k])
    with pytest.raises(KeyError):
        load_tensors(tiny_model("rnnt", "baseline", 41),
                     {"rnnt.W_enc": tensors["rnnt.W_enc"]})
