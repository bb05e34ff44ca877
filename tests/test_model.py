import hashlib
import itertools
import json
import struct
import tracemalloc
import zlib

import numpy as np
import pytest

from gradcheck import as_float64, copy_model
from lemtag import decode
from lemtag import model as model_mod
from lemtag.model import (Batch, CheckpointError, ModelConfig, _dropout_mask, _forward,
                          _lstm_backward, _lstm_forward, _lstm_step, _sigmoid, _softmax,
                          attend, backward, decode_step, encode_source, forward_loss,
                          init_decoder_state, init_model, load_model,
                          make_batch, save_model, sgd_update)
from lemtag.snippets import (CONTROL_SYMBOLS, PAD_ID, START_ID, SnippetConfig, Vocab,
                             build_vocab, examples_for_corpus)
from toycorpus import make_corpus


def tiny_config(**overrides):
    base = dict(source_vocab_size=11, target_vocab_size=12, embedding_size=4,
                hidden_units=3, layers=1, dropout_p=0.0, rng_seed=0)
    base.update(overrides)
    return ModelConfig(**base)


def tiny_vocab(cfg):
    src = CONTROL_SYMBOLS + tuple(chr(ord("a") + i) for i in range(cfg.source_vocab_size - 5))
    tgt = CONTROL_SYMBOLS + tuple(chr(ord("a") + i) for i in range(cfg.target_vocab_size - 5))
    return Vocab(src, tgt, 1)


def sample_batch(cfg, seed=0, rows=3):
    rng = np.random.default_rng(seed)
    pairs = []
    for _ in range(rows):
        s = rng.integers(5, cfg.source_vocab_size, size=int(rng.integers(2, 6))).tolist()
        t = [2] + rng.integers(5, cfg.target_vocab_size, size=int(rng.integers(1, 5))).tolist() + [3]
        pairs.append((s, t))
    return make_batch(pairs)


def zero_grads(m):
    return {k: np.zeros_like(v) for k, v in m.params.items()}


def test_config_validation():
    with pytest.raises(ValueError):
        tiny_config(layers=0)
    with pytest.raises(ValueError):
        tiny_config(dropout_p=1.0)
    with pytest.raises(ValueError):
        tiny_config(embedding_size=0)
    with pytest.raises(ValueError):
        tiny_config(attention="dot")
    with pytest.raises(ValueError):
        tiny_config(layers=1.0)
    for seed in (1.5, -1, True):
        with pytest.raises(ValueError, match="rng_seed"):
            tiny_config(rng_seed=seed)
    # a bool used to pass as 1 or 0, and text raised TypeError
    for dropout_p in (False, True, "0.3", None):
        with pytest.raises(ValueError, match="dropout_p"):
            tiny_config(dropout_p=dropout_p)


def test_init_deterministic_and_seed_sensitive():
    a = init_model(tiny_config())
    b = init_model(tiny_config())
    c = init_model(tiny_config(rng_seed=1))
    for name in a.params:
        assert np.array_equal(a.params[name], b.params[name])
    assert any(not np.array_equal(a.params[n], c.params[n]) for n in a.params)


def test_init_ranges_and_forget_bias():
    m = init_model(tiny_config())
    h = m.config.hidden_units
    for name, p in m.params.items():
        if name.endswith("_b") and name != "out_b":
            assert np.all(p[h:2 * h] == 1.0)
            rest = np.concatenate([p[:h], p[2 * h:]])
            assert np.all(np.abs(rest) <= 0.1)
        else:
            assert np.all(np.abs(p) <= 0.1)


def test_make_batch_padding_and_masks():
    batch = make_batch([([5, 6], [2, 5, 3]), ([7, 8, 9, 10], [2, 6, 7, 3])])
    assert batch.src.shape == (2, 4)
    assert batch.src[0, 2] == PAD_ID and batch.src[0, 3] == PAD_ID
    assert batch.src_mask.tolist() == [[1, 1, 0, 0], [1, 1, 1, 1]]
    assert batch.tgt.shape == (2, 4)
    assert batch.loss_mask.tolist() == [[1, 1, 0], [1, 1, 1]]
    assert batch.src_mask.dtype == batch.loss_mask.dtype == bool
    assert batch.size == 2


def test_make_batch_source_only_and_errors():
    batch = make_batch([([5], None), ([6, 7], None)])
    assert batch.tgt is None
    with pytest.raises(ValueError):
        make_batch([])
    with pytest.raises(ValueError):
        make_batch([([5], [2, 3]), ([6], None)])


def test_encoder_shapes_and_determinism():
    cfg = tiny_config(layers=2)
    m = init_model(cfg)
    batch = sample_batch(cfg)
    states, finals = encode_source(m, batch)
    assert states.shape == (batch.size, batch.src.shape[1], 2 * cfg.hidden_units)
    assert len(finals) == cfg.layers
    again, _ = encode_source(m, batch)
    assert np.array_equal(states, again)


def assert_close(actual, desired, rtol=1e-12):
    # rtol, with an absolute floor at that share of the tensor's largest value
    np.testing.assert_allclose(actual, desired, rtol=rtol,
                               atol=rtol * float(np.abs(desired).max()))


def test_encode_source_padded_rows_match_windows_encoded_alone():
    cfg = tiny_config(layers=2, hidden_units=5)
    m = init_model(cfg)
    sources = [[5, 6, 7, 8, 9, 10], [7, 5], [9, 8, 6]]
    states, finals = encode_source(m, make_batch([(s, None) for s in sources]))
    for row, src in enumerate(sources):
        alone, alone_finals = encode_source(m, make_batch([(src, None)]))
        assert_close(states[row:row + 1, :len(src)], alone)
        assert np.all(states[row, len(src):] == 0.0)
        for (h, c), (h_alone, c_alone) in zip(finals, alone_finals):
            assert_close(h[row:row + 1], h_alone)
            assert_close(c[row:row + 1], c_alone)


def reference_lstm(Wx, Wh, b, inputs, mask, reverse, h, c, d_outputs, dh, dc):
    """One LSTM layer stepped a position at a time, forward and backward,
    with a mask select at every step, zero outputs at padded positions and
    the weight gradients accumulated per step.  The input projection and the
    input gradient are one product each, as in the layer, so every
    per-position value compares bytewise."""
    bsz, steps, din = inputs.shape
    hid = Wh.shape[0]
    xw = (inputs.reshape(-1, din) @ Wx).reshape(bsz, steps, -1)
    outputs = np.zeros((bsz, steps, hid), dtype=inputs.dtype)
    tape = []
    for t in (range(steps - 1, -1, -1) if reverse else range(steps)):
        h_new, c_new, gates = _lstm_step(xw[:, t, :], Wh, b, h, c)
        m = mask[:, t][:, None] > 0
        tape.append((t, h, c, m, gates))
        h, c = np.where(m, h_new, h), np.where(m, c_new, c)
        outputs[:, t, :] = np.where(m, h, 0.0)
    final = (h, c)
    dWx, dWh, db = np.zeros_like(Wx), np.zeros_like(Wh), np.zeros_like(b)
    dz_all = np.zeros((bsz, steps, 4 * hid), dtype=d_outputs.dtype)
    for t, h_prev, c_prev, m, (i, f, g, o, tanh_c) in reversed(tape):
        dh_t = dh + d_outputs[:, t, :]
        dh_in, dc_in = np.where(m, dh_t, 0.0), np.where(m, dc, 0.0)
        dc_full = dc_in + dh_in * o * (1.0 - tanh_c ** 2)
        dz = np.concatenate([dc_full * g * i * (1.0 - i), dc_full * c_prev * f * (1.0 - f),
                             dc_full * i * (1.0 - g ** 2), dh_in * tanh_c * o * (1.0 - o)],
                            axis=1)
        dWx += inputs[:, t, :].T @ dz
        dWh += h_prev.T @ dz
        db += dz.sum(axis=0)
        dz_all[:, t, :] = dz
        dh, dc = np.where(m, dz @ Wh.T, dh_t), np.where(m, dc_full * f, dc)
    d_inputs = (dz_all.reshape(-1, 4 * hid) @ Wx.T).reshape(bsz, steps, -1)
    return outputs, final, (d_inputs, dWx, dWh, db, dh, dc)


def lstm_case(lengths, hid, dtype):
    """Seeded weights, inputs, a (B, 6) mask of the given row lengths,
    initial state and incoming gradients for one LSTM layer of 4 inputs."""
    rng = np.random.default_rng(3)
    bsz, steps, din = len(lengths), 6, 4

    def draw(*shape, scale=1.0):
        return rng.normal(scale=scale, size=shape).astype(dtype)

    mask = np.arange(steps)[None, :] < np.array(lengths)[:, None]
    weights = draw(din, 4 * hid, scale=0.5), draw(hid, 4 * hid, scale=0.5), draw(4 * hid, scale=0.5)
    inputs, h0, c0 = draw(bsz, steps, din), draw(bsz, hid), draw(bsz, hid)
    d_outputs = draw(bsz, steps, hid) * mask[:, :, None]
    return weights, inputs, mask, (h0, c0), d_outputs, (draw(bsz, hid), draw(bsz, hid))


def stack_layer(Wx, Wh, b, inputs, mask, reverse, h0, c0, d_outputs, dh, dc):
    """One layer run forward and back as ``_stack_forward`` and
    ``_stack_backward`` run a layer above the first: one input projection
    before the layer, and ``dWx`` and the input gradient from the returned
    ``dz`` after it."""
    bsz, steps, din = inputs.shape
    x = inputs.reshape(-1, din)
    xw = (x @ Wx).reshape(bsz, steps, -1)
    outputs, final, cache = _lstm_forward(xw, Wh, b, mask, reverse, h0, c0)
    dz, dWh, db, dh0, dc0 = _lstm_backward(Wh, d_outputs, cache, dh, dc)
    d_inputs = (dz @ Wx.T).reshape(bsz, steps, -1)
    return outputs, final, (d_inputs, x.T @ dz, dWh, db, dh0, dc0)


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_layer_matches_stepwise_reference(reverse):
    """Steps with no padding skip the select, and every per-position value
    keeps the bytes of selecting at every step: in both dtypes, for masks
    with padded steps, with none and with one row; mask None keeps the bytes
    of an all-True mask.  At 16 units OpenBLAS sums ``dz @ Wh.T`` in another
    order when ``Wh.T`` is a contiguous copy, so the recurrence must keep the
    transposed view."""
    cases = itertools.product(([6, 3, 1], [6, 6, 4, 6], [6, 6, 6], [6]), (5, 16),
                              (np.float64, np.float32))
    for lengths, hid, dtype in cases:
        (Wx, Wh, b), inputs, mask, (h0, c0), d_outputs, (dh, dc) = lstm_case(lengths, hid, dtype)
        outputs, final, (d_inputs, *weight_grads, dh0, dc0) = stack_layer(
            Wx, Wh, b, inputs, mask, reverse, h0, c0, d_outputs, dh, dc)
        ref_outputs, ref_final, (ref_d_inputs, *ref_weight_grads, ref_dh0, ref_dc0) = \
            reference_lstm(Wx, Wh, b, inputs, mask, reverse, h0, c0, d_outputs, dh, dc)
        for got, want in zip((outputs, *final, d_inputs, dh0, dc0),
                             (ref_outputs, *ref_final, ref_d_inputs, ref_dh0, ref_dc0)):
            assert got.dtype == want.dtype == dtype
            assert np.array_equal(got, want), (lengths, hid, dtype)
        # the weight gradients sum over the steps in another order
        for got, want in zip(weight_grads, ref_weight_grads):
            assert got.dtype == dtype
            assert_close(got, want, rtol=1e-12 if dtype == np.float64 else 1e-5)
        if mask.all():
            # mask None means no padding: the bytes of an all-True mask
            none_outputs, none_final, none_grads = stack_layer(
                Wx, Wh, b, inputs, None, reverse, h0, c0, d_outputs, dh, dc)
            for got, want in zip((none_outputs, *none_final, *none_grads),
                                 (outputs, *final, d_inputs, *weight_grads, dh0, dc0)):
                assert np.array_equal(got, want), (lengths, hid, dtype)


def test_padded_ids_change_neither_loss_nor_gradients():
    """Padding is read by the encoder recurrence, attention and the loss
    only: other ids at the padded positions of ``src`` and ``tgt`` leave the
    loss and every gradient as they are, with dropout on, and the
    teacher-forced decoder runs with no mask at any step."""
    cfg = tiny_config(layers=2, hidden_units=5, dropout_p=0.3)
    m = init_model(cfg)
    batch = make_batch([([5, 6, 7, 8, 9], [2, 5, 3]), ([7, 5], [2, 6, 7, 8, 9, 3]),
                        ([9, 8, 6], [2, 10, 3])])
    draw = np.random.default_rng(1).integers  # ids past the control symbols, never PAD_ID
    tgt_mask = np.concatenate([batch.src_mask[:, :1], batch.loss_mask], axis=1)
    other = Batch(
        np.where(batch.src_mask, batch.src, draw(5, cfg.source_vocab_size, batch.src.shape)),
        batch.src_mask,
        np.where(tgt_mask, batch.tgt, draw(5, cfg.target_vocab_size, batch.tgt.shape)),
        batch.loss_mask)
    assert (other.src != batch.src).sum() == 5 and (other.tgt != batch.tgt).sum() == 6
    loss, grads = backward(m, batch, np.random.default_rng(7))
    other_loss, other_grads = backward(m, other, np.random.default_rng(7))
    assert loss == other_loss
    for name in grads:
        assert np.array_equal(grads[name], other_grads[name]), name
    _, cache = _forward(m, other, np.random.default_rng(7))
    dec_masks = [entry[2] for traces, _, _ in cache["dec_caches"]
                 for _, (_, trace) in traces for entry in trace]
    assert len(dec_masks) == cfg.layers * other.loss_mask.shape[1]
    assert all(mask is None for mask in dec_masks)


def test_first_layer_gradients_equal_the_per_position_forms(monkeypatch):
    """The first layer of each stack sums its ``dz`` per symbol: in float64
    its ``Wx`` gradients and the embedding gradients equal the per-position
    forms ``x.T @ dz`` and a scatter-add of ``dz @ Wx.T`` into zeros, for a
    batch with a repeated id, padded positions and a symbol it never uses,
    whose gradient row is exactly zero."""
    cfg = tiny_config(layers=2, hidden_units=5, dropout_p=0.3)
    m = as_float64(init_model(cfg))
    p = m.params
    batch = make_batch([([5, 6, 5, 8, 9], [2, 5, 5, 3]), ([7, 5], [2, 6, 7, 8, 9, 3]),
                        ([9, 8, 6], [2, 10, 3])])
    dz_of, real_backward = {}, model_mod._lstm_backward

    def spy(Wh, *args):
        result = real_backward(Wh, *args)
        dz_of[next(name for name, a in p.items() if a is Wh).removesuffix("_Wh")] = result[0]
        return result

    monkeypatch.setattr(model_mod, "_lstm_backward", spy)
    _, grads = backward(m, batch, np.random.default_rng(7))
    for embed, ids, names in (("src_embed", batch.src, ["enc0_fwd", "enc0_bwd"]),
                              ("tgt_embed", batch.tgt[:, :-1], ["dec0"])):
        assert (ids == PAD_ID).any() and len(np.unique(ids)) < ids.size
        x = p[embed][ids].reshape(-1, cfg.embedding_size)
        dense = np.zeros_like(p[embed])
        for name in names:
            dz = dz_of[name]
            assert_close(grads[f"{name}_Wx"], x.T @ dz)
            np.add.at(dense, ids, (dz @ p[f"{name}_Wx"].T).reshape(*ids.shape, -1))
        assert_close(grads[embed], dense)
        unused = np.setdiff1d(np.arange(len(p[embed])), ids)
        assert len(p[embed]) - 1 in unused  # a symbol past the control ids
        assert np.all(grads[embed][unused] == 0.0)


def test_sigmoid_matches_two_branch_form_bytewise():
    mags = np.array([0.0, 1e-300, 1.0, 20.0, 40.0, 709.0, 745.0, 800.0, np.inf])
    x = np.concatenate([mags, -mags, np.random.default_rng(0).normal(scale=30, size=37)])
    ref = np.empty_like(x)
    pos = x >= 0
    ref[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    ref[~pos] = e / (1.0 + e)
    with np.errstate(over="raise"):
        assert _sigmoid(x).tobytes() == ref.tobytes()
        assert _sigmoid(x.reshape(1, -1)).tobytes() == ref.tobytes()
        assert np.isnan(_sigmoid(np.array([np.nan, -np.nan]))).all()


def test_sigmoid_matches_select_form_bytewise():
    """The branch-free max(e, x >= 0) numerator gives the bytes of the
    select it replaced, signed zeros, infinities and NaN included."""
    def where_sigmoid(x):
        e = np.exp(-np.abs(x))
        return np.where(x >= 0, 1.0, e) / (1.0 + e)

    mags = np.array([0.0, 1e-300, 20.0, 745.0, 800.0, np.inf])
    rng = np.random.default_rng(0)
    blocks = [np.concatenate([mags, -mags, [np.nan]])]
    blocks += [rng.normal(scale=4, size=shape) for shape in ((32, 256), (192, 256), (32, 2000))]
    for x in blocks:
        got, want = _sigmoid(x), where_sigmoid(x)
        assert np.array_equal(got, want, equal_nan=True)
        assert np.array_equal(np.signbit(got), np.signbit(want))


def test_softmax_matches_separate_forms_bytewise():
    """One exp gives the bytes of e / e.sum() and of
    x - m - log(sum(exp(x - m))), with -inf entries (masked attention) and
    rows holding a single finite entry."""
    rng = np.random.default_rng(0)
    blocks = [rng.normal(scale=s, size=shape)
              for s, shape in ((1, (3, 5)), (8, (4, 6, 13)), (30, (32, 250)))]
    for x in blocks:
        x[rng.random(x.shape) < 0.4] = -np.inf
        x[..., 0] = rng.normal(size=x.shape[:-1])  # every row keeps a finite entry
        x[0, ..., 1:] = -np.inf  # rows of one finite entry
        x[1, ..., :-1] = -np.inf
        x[1, ..., -1] = 7.0
        m = x.max(axis=-1, keepdims=True)
        e = np.exp(x - m)
        probs, log_probs = _softmax(x)
        assert probs.tobytes() == (e / e.sum(axis=-1, keepdims=True)).tobytes()
        want = x - m - np.log(np.exp(x - m).sum(axis=-1, keepdims=True))
        assert log_probs.tobytes() == want.tobytes()
        assert (probs[0, ..., 0] == 1.0).all() and (log_probs[1, ..., -1] == 0.0).all()


def test_encoder_is_direction_sensitive():
    cfg = tiny_config()
    m = init_model(cfg)
    fwd = make_batch([([5, 6], None)])
    rev = make_batch([([6, 5], None)])
    s1, _ = encode_source(m, fwd)
    s2, _ = encode_source(m, rev)
    assert not np.allclose(s1, s2[:, ::-1, :])


def test_encoder_rejects_out_of_range_ids():
    cfg = tiny_config()
    m = init_model(cfg)
    with pytest.raises(ValueError):
        encode_source(m, make_batch([([cfg.source_vocab_size], None)]))


def test_negative_and_final_gold_ids_are_rejected():
    cfg = tiny_config()
    m = init_model(cfg)
    for pair in [([5, -1, 6], [2, 5, 3]),                   # negative source id
                 ([5, 6], [2, -2, 3]),                      # negative target id
                 ([5, 6], [2, 5, cfg.target_vocab_size])]:  # final gold id
        with pytest.raises(ValueError, match="id -?[0-9]+ out of range"):
            forward_loss(m, make_batch([pair]))
    batch = make_batch([([5, 6], None)])
    enc, finals = encode_source(m, batch)
    with pytest.raises(ValueError, match="target id -3 out of range"):
        decode_step(m, [-3], init_decoder_state(m, finals), enc, batch.src_mask)


def test_attend_is_a_distribution():
    cfg = tiny_config()
    m = init_model(cfg)
    rng = np.random.default_rng(0)
    enc = rng.normal(size=(2, 7, 2 * cfg.hidden_units))
    states = rng.normal(size=(2, 3, cfg.hidden_units))
    mask = np.array([[1, 1, 1, 1, 0, 0, 0], [1, 1, 0, 0, 0, 0, 0]], dtype=float)
    logits, parts = attend(m, states, enc, mask)
    weights = parts["weights"]
    assert np.all(np.abs(weights.sum(axis=2) - 1.0) < 1e-6)
    assert np.all(weights[0, :, 4:] == 0) and np.all(weights[1, :, 2:] == 0)
    assert parts["context"].shape == (2, 3, 2 * cfg.hidden_units)
    assert logits.shape == (2, 3, cfg.target_vocab_size)


def test_attend_single_unmasked_position():
    cfg = tiny_config()
    m = init_model(cfg)
    enc = np.random.default_rng(1).normal(size=(1, 4, 2 * cfg.hidden_units))
    mask = np.array([[0, 0, 1, 0]], dtype=float)
    _, parts = attend(m, np.zeros((1, 1, cfg.hidden_units)), enc, mask)
    assert parts["weights"][0, 0, 2] == 1.0
    assert np.allclose(parts["context"][0, 0], enc[0, 2])


def test_attend_uniform_scores():
    cfg = tiny_config()
    m = init_model(cfg)
    enc = np.zeros((1, 5, 2 * cfg.hidden_units))
    _, parts = attend(m, np.ones((1, 1, cfg.hidden_units)), enc, np.ones((1, 5)))
    assert np.allclose(parts["weights"], 0.2)


def test_attend_all_masked_raises():
    cfg = tiny_config()
    m = init_model(cfg)
    enc = np.zeros((1, 3, 2 * cfg.hidden_units))
    with pytest.raises(ValueError):
        attend(m, np.zeros((1, 1, cfg.hidden_units)), enc, np.zeros((1, 3)))


def test_decode_step_normalized_and_pure():
    cfg = tiny_config(layers=2)
    m = init_model(cfg)
    batch = sample_batch(cfg)
    enc, finals = encode_source(m, batch)
    state = init_decoder_state(m, finals)
    logits, new_state = decode_step(m, batch.tgt[:, 0], state, enc, batch.src_mask)
    assert logits.shape == (batch.size, cfg.target_vocab_size)
    probs = np.exp(logits - logits.max(axis=1, keepdims=True))
    probs /= probs.sum(axis=1, keepdims=True)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)
    logits2, _ = decode_step(m, batch.tgt[:, 0], state, enc, batch.src_mask)
    assert np.array_equal(logits, logits2)
    assert len(new_state) == cfg.layers


def test_zero_model_gives_uniform_logits():
    cfg = tiny_config()
    m = init_model(cfg)
    for p in m.params.values():
        p[...] = 0.0
    batch = sample_batch(cfg)
    enc, finals = encode_source(m, batch)
    logits, _ = decode_step(m, batch.tgt[:, 0], init_decoder_state(m, finals),
                            enc, batch.src_mask)
    assert np.allclose(logits, logits[0, 0])


def test_uniform_loss_is_log_vocab():
    cfg = tiny_config()
    m = init_model(cfg)
    for p in m.params.values():
        p[...] = 0.0
    batch = sample_batch(cfg)
    assert forward_loss(m, batch) == pytest.approx(np.log(cfg.target_vocab_size))


def test_loss_is_token_weighted_mean_of_rows():
    cfg = tiny_config()
    m = as_float64(init_model(cfg))  # the tolerances below are float64's
    pairs = [([5, 6, 7], [2, 5, 6, 3]), ([8, 9], [2, 7, 3])]
    full = forward_loss(m, make_batch(pairs))
    parts = []
    for pair in pairs:
        n = len(pair[1]) - 1
        parts.append((forward_loss(m, make_batch([pair])), n))
    expected = sum(l * n for l, n in parts) / sum(n for _, n in parts)
    assert full == pytest.approx(expected, rel=1e-12)
    # padded positions (source and target) contribute no gradient either
    _, full_grads = backward(m, make_batch(pairs))
    row_grads = [(backward(m, make_batch([pair]))[1], len(pair[1]) - 1) for pair in pairs]
    total = sum(n for _, n in row_grads)
    for name, grad in full_grads.items():
        expected = sum(g[name] * n for g, n in row_grads) / total
        np.testing.assert_allclose(grad, expected, rtol=1e-10, err_msg=name)


def test_forward_loss_requires_targets():
    cfg = tiny_config()
    m = init_model(cfg)
    with pytest.raises(ValueError, match="requires targets"):
        forward_loss(m, make_batch([([5, 6], None)]))
    # a target of the start id alone predicts nothing
    empty = make_batch([([5, 6], [START_ID])])
    for run in (forward_loss, backward):
        with pytest.raises(ValueError, match="empty loss mask"):
            run(m, empty)


def test_dropout_needs_rng_and_changes_loss():
    cfg = tiny_config(dropout_p=0.5)
    m = init_model(cfg)
    batch = sample_batch(cfg)
    with pytest.raises(ValueError):
        backward(m, batch)
    rng = np.random.default_rng(0)
    a, _ = backward(m, batch, rng=rng)
    b, _ = backward(m, batch, rng=rng)
    assert a != b  # different masks drawn from the stream
    assert forward_loss(m, batch) == forward_loss(m, batch)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_dropout_mask_matches_divide_and_cast_form_bytewise(dtype):
    """The keep mask times the scale in the array's dtype gives the bytes
    of dividing the keep mask by 1 - p in float64 and casting, and draws
    the same random stream."""
    like = np.empty((32, 22, 16), dtype=dtype)
    for p in (0.1, 0.3, 0.5, 0.7, 0.999, 1e-9):
        rng, ref_rng = np.random.default_rng(5), np.random.default_rng(5)
        got = _dropout_mask(rng, like, p)
        want = ((ref_rng.random(like.shape) >= p) / (1.0 - p)).astype(dtype)
        assert got.dtype == dtype
        assert got.tobytes() == want.tobytes()
        assert rng.random() == ref_rng.random()


def test_unused_embedding_rows_get_zero_gradient():
    cfg = tiny_config()
    m = init_model(cfg)
    batch = make_batch([([5, 6], [2, 5, 3])])
    _, grads = backward(m, batch)
    used_src = {0, 5, 6}  # padding id is present in no row but harmless
    for row in range(cfg.source_vocab_size):
        if row not in used_src:
            assert np.all(grads["src_embed"][row] == 0.0)
    used_tgt = {2, 5, 3}
    for row in range(cfg.target_vocab_size):
        if row not in used_tgt:
            assert np.all(grads["tgt_embed"][row] == 0.0)


def test_duplicated_batch_keeps_mean_gradients():
    cfg = tiny_config()
    m = init_model(cfg)
    pairs = [([5, 6, 7], [2, 5, 6, 3])]
    _, g1 = backward(m, make_batch(pairs))
    _, g2 = backward(m, make_batch(pairs * 2))
    for name in g1:
        assert np.allclose(g1[name], g2[name], atol=1e-12)


def test_backward_gradients_follow_parameter_order_in_fresh_arrays():
    cfg = tiny_config(layers=2, dropout_p=0.3)
    m = init_model(cfg)
    _, grads = backward(m, sample_batch(cfg), rng=np.random.default_rng(0))
    assert list(grads) == list(m.params)
    for name, g in grads.items():
        assert g.shape == m.params[name].shape, name
    others = list(m.params.values()) + list(grads.values())
    for name, g in grads.items():
        assert sum(np.shares_memory(g, other) for other in others) == 1, name  # itself only


def test_sgd_zero_gradients_identity():
    m = init_model(tiny_config())
    before = {k: v.copy() for k, v in m.params.items()}
    sgd_update(m, zero_grads(m), lr=1.0, clip_norm=5.0)
    for name in before:
        assert np.array_equal(before[name], m.params[name])


def test_sgd_scalar_arithmetic():
    m = init_model(tiny_config())
    grads = zero_grads(m)
    m.params["out_b"][0] = 1.0
    grads["out_b"][0] = 0.2
    sgd_update(m, grads, lr=0.5, clip_norm=None)
    assert m.params["out_b"][0] == pytest.approx(0.9, abs=1e-7)


def test_sgd_clipping_rescales():
    m = init_model(tiny_config())
    grads = zero_grads(m)
    m.params["out_b"][0] = 0.0
    grads["out_b"][0] = 10.0  # global norm 10, clip 5 -> effective 5
    sgd_update(m, grads, lr=1.0, clip_norm=5.0)
    assert m.params["out_b"][0] == pytest.approx(-5.0, abs=1e-6)


def test_sgd_rejects_non_finite():
    m = init_model(tiny_config())
    before = copy_model(m)
    grads = {k: np.ones_like(v) for k, v in m.params.items()}

    def assert_unchanged():
        for name in before.params:
            assert np.array_equal(m.params[name], before.params[name]), name

    # an infinite rate used to write NaN weights with only a RuntimeWarning;
    # a bool used to pass as 1, and text raised TypeError
    for lr in (float("nan"), float("inf"), -float("inf"), -1.0, -1e-300, True, "1"):
        with pytest.raises(ValueError, match="learning rate"):
            sgd_update(m, grads, lr=lr)
        assert_unchanged()
    # a NaN, zero, negative or infinite clip norm used to switch clipping off silently
    for clip_norm in (float("nan"), 0.0, -1.0, float("inf"), True, "1"):
        with pytest.raises(ValueError, match="clip_norm"):
            sgd_update(m, grads, lr=1.0, clip_norm=clip_norm)
        assert_unchanged()
    grads["out_b"][0] = np.nan
    with pytest.raises(ValueError):
        sgd_update(m, grads, lr=1.0, clip_norm=5.0)
    assert_unchanged()


def test_sgd_zero_rate_changes_nothing():
    # a halving schedule underflows to 0.0; such a step keeps every bit, -0.0 included
    m = init_model(tiny_config())
    m.params["out_b"][0] = -0.0
    before = copy_model(m)
    grads = {k: -np.ones_like(v) for k, v in m.params.items()}
    sgd_update(m, grads, lr=0.0, clip_norm=5.0)
    for name in before.params:
        assert m.params[name].tobytes() == before.params[name].tobytes(), name


def test_clipped_sgd_matches_scaled_subtract():
    cfg = tiny_config(layers=2)
    m = init_model(cfg)
    ref = copy_model(m)
    batch = sample_batch(cfg)
    lr, clip_norm = 0.7, 0.05
    for _ in range(3):
        _, grads = backward(m, batch)
        sq = 0.0
        for g in grads.values():
            sq += float((g.astype(np.float64) ** 2).sum())
        norm = float(np.sqrt(sq))
        assert norm > clip_norm
        for name, param in ref.params.items():
            param -= lr * (clip_norm / norm) * grads[name]
        sgd_update(m, grads, lr, clip_norm)
        for name in m.params:
            assert m.params[name].tobytes() == ref.params[name].tobytes(), name


def test_clipping_a_huge_float32_gradient_keeps_the_weights_finite():
    # a float32 square overflows from about 2e19, so the norm sums squares in float64
    m = init_model(tiny_config())
    before = m.params["out_b"][0]
    grads = zero_grads(m)
    grads["out_b"][0] = 1e20
    sgd_update(m, grads, lr=1.0, clip_norm=5.0)
    assert all(p.dtype == np.float32 and np.isfinite(p).all() for p in m.params.values())
    assert m.params["out_b"][0] == pytest.approx(before - 5.0)


def test_weights_stay_on_float32_grid(tmp_path):
    # float32 parameters through every update, so a checkpoint round-trips them bit for bit
    cfg = tiny_config()
    m = init_model(cfg)
    batch = sample_batch(cfg)
    for _ in range(3):
        _, grads = backward(m, batch)
        sgd_update(m, grads, lr=0.5, clip_norm=5.0)
    path = tmp_path / "trained.ckpt"
    save_model(m, tiny_vocab(cfg), path)
    loaded, _ = load_model(path)
    for name, p in m.params.items():
        assert p.dtype == np.float32
        assert loaded.params[name].tobytes() == p.tobytes(), name


def float_arrays(tree):
    """The floating-point arrays in a nest of tuples, lists and dicts."""
    if isinstance(tree, np.ndarray):
        return [tree] if tree.dtype.kind == "f" else []
    if isinstance(tree, dict):
        tree = list(tree.values())
    if isinstance(tree, (tuple, list)):
        return [a for item in tree for a in float_arrays(item)]
    return []


def test_every_array_takes_the_parameters_dtype(tmp_path):
    """init_model's float32 parameters keep every array of the forward pass
    (dropout masks included), every gradient and every updated parameter
    float32; a float64 copy computes in float64 throughout, as the gradient
    checks need.  Checkpoints store float32, so a loaded model is float32."""
    cfg = tiny_config(layers=2, dropout_p=0.3)
    vocab = tiny_vocab(cfg)
    batch = sample_batch(cfg)
    m32 = init_model(cfg)
    m64 = as_float64(m32)
    for m, dtype in ((m32, np.float32), (m64, np.float64)):
        _, cache = _forward(m, batch, np.random.default_rng(0))
        assert isinstance(cache["out_drop"], np.ndarray)
        _, grads = backward(m, batch, np.random.default_rng(0))
        states, finals = encode_source(m, batch)
        logits, new_state = decode_step(m, batch.tgt[:, 0], init_decoder_state(m, finals),
                                        states, batch.src_mask)
        sgd_update(m, grads, lr=0.5, clip_norm=5.0)
        arrays = float_arrays([cache, grads, states, finals, logits, new_state, m.params])
        assert {a.dtype for a in arrays} == {np.dtype(dtype)}
        path = tmp_path / f"{np.dtype(dtype).name}.ckpt"
        save_model(m, vocab, path)
        loaded, _ = load_model(path)
        assert {p.dtype for p in loaded.params.values()} == {np.dtype(np.float32)}


def test_checkpoint_round_trip(tmp_path):
    cfg = tiny_config(layers=2)
    m = init_model(cfg)
    vocab = tiny_vocab(cfg)
    batch = sample_batch(cfg)
    path = tmp_path / "model.ckpt"
    save_model(m, vocab, path)
    loaded, loaded_vocab = load_model(path, expect_vocab=vocab)
    assert loaded_vocab == vocab
    assert loaded.config == cfg
    assert forward_loss(loaded, batch) == forward_loss(m, batch)
    for name in m.params:
        assert np.array_equal(loaded.params[name], m.params[name])


def test_checkpoint_truncation_detected(tmp_path):
    cfg = tiny_config()
    m = init_model(cfg)
    path = tmp_path / "model.ckpt"
    save_model(m, tiny_vocab(cfg), path)
    blob = path.read_bytes()
    path.write_bytes(blob[:-10])
    with pytest.raises(CheckpointError):
        load_model(path)


def test_checkpoint_corruption_detected(tmp_path):
    cfg = tiny_config()
    m = init_model(cfg)
    path = tmp_path / "model.ckpt"
    save_model(m, tiny_vocab(cfg), path)
    blob = bytearray(path.read_bytes())
    blob[60] ^= 0xFF
    path.write_bytes(bytes(blob))
    with pytest.raises(CheckpointError):
        load_model(path)


def test_checkpoint_vocab_mismatch(tmp_path):
    cfg = tiny_config()
    m = init_model(cfg)
    vocab = tiny_vocab(cfg)
    path = tmp_path / "model.ckpt"
    save_model(m, vocab, path)
    other = Vocab(vocab.source_symbols, CONTROL_SYMBOLS + ("x",) + vocab.target_symbols[6:], 1)
    with pytest.raises(CheckpointError):
        load_model(path, expect_vocab=other)


def test_save_model_rejects_a_vocabulary_that_does_not_fit(tmp_path):
    path = tmp_path / "model.ckpt"
    model = init_model(tiny_config(source_vocab_size=14, target_vocab_size=14))
    with pytest.raises(ValueError, match="model and vocabulary sizes disagree"):
        save_model(model, tiny_vocab(tiny_config()), path)
    assert not path.exists()


def test_checkpoint_not_a_checkpoint(tmp_path):
    path = tmp_path / "garbage.ckpt"
    path.write_bytes(b"not a checkpoint at all, definitely")
    with pytest.raises(CheckpointError):
        load_model(path)


# SHA-256 of the checkpoint of init_model(tiny_config(layers=2, rng_seed=7))
CHECKPOINT_SHA256 = "76f7defd7a442ca626e31d69e1752f9bbdd1075bb7933932e385f38c9963e4d4"


def test_checkpoint_bytes_match_golden_digest(tmp_path):
    # pins the file format: header layout, tensor order, float32 bytes, CRC32
    cfg = tiny_config(layers=2, rng_seed=7)
    path = tmp_path / "model.ckpt"
    save_model(init_model(cfg), tiny_vocab(cfg), path)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == CHECKPOINT_SHA256


def saved_checkpoint(tmp_path):
    cfg = tiny_config()
    path = tmp_path / "model.ckpt"
    save_model(init_model(cfg), tiny_vocab(cfg), path)
    return path


def with_crc(edit):
    """A file edit applying ``edit`` to the bytes before the CRC32 trailer
    and giving the result a valid checksum again."""
    def rewrite(blob):
        body = edit(blob[:-4])
        return body + struct.pack("<I", zlib.crc32(body))
    return rewrite


@pytest.mark.parametrize("edit, message", [
    (lambda blob: blob[:19], "checkpoint file truncated"),
    (lambda blob: blob[:-5] + bytes([blob[-5] ^ 0x01]) + blob[-4:],
     r"checkpoint checksum mismatch \(corrupt or truncated file\)"),
    (with_crc(lambda body: b"LMTX" + body[4:]), r"not a checkpoint file \(bad magic\)"),
    (with_crc(lambda body: body[:4] + struct.pack("<I", 2) + body[8:]),
     "unsupported checkpoint format version 2"),
    (with_crc(lambda body: body[:-4]), "checkpoint tensor data truncated"),
    (with_crc(lambda body: body + bytes(4)), "trailing bytes after tensor data"),
    # the last weight of out_W, which the 12 floats of out_b follow
    *[(with_crc(lambda body, v=value: body[:-52] + struct.pack("<f", v) + body[-48:]),
       "non-finite weights in tensor out_W") for value in (np.nan, np.inf, -np.inf)],
], ids=["short-file", "flipped-tensor-byte", "bad-magic", "version-2", "missing-tensor-tail",
        "trailing-bytes", "nan-weight", "inf-weight", "minus-inf-weight"])
def test_checkpoint_load_rejections(tmp_path, edit, message):
    path = saved_checkpoint(tmp_path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(CheckpointError, match=f"^{message}$"):
        load_model(path)


def test_a_header_claiming_many_layers_fails_without_building_them(tmp_path):
    path = saved_checkpoint(tmp_path)
    blob = path.read_bytes()
    header_len = struct.unpack_from("<Q", blob, 8)[0]
    header = json.loads(blob[16:16 + header_len])
    header["config"]["layers"] = 20000
    head = json.dumps(header).encode("utf-8")
    body = blob[:8] + struct.pack("<Q", len(head)) + head + blob[16 + header_len:-4]
    path.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    tracemalloc.start()
    try:
        with pytest.raises(CheckpointError, match="^checkpoint tensor data truncated$"):
            load_model(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_a_loaded_model_trains_without_touching_its_file(tmp_path):
    cfg = tiny_config()
    path = saved_checkpoint(tmp_path)
    blob = path.read_bytes()
    m, _ = load_model(path)
    _, grads = backward(m, sample_batch(cfg))
    sgd_update(m, grads, lr=0.5, clip_norm=5.0)
    assert path.read_bytes() == blob
    fresh = init_model(cfg)
    assert any(not np.array_equal(m.params[k], fresh.params[k]) for k in m.params)


def test_model_copy_is_deep():
    m = init_model(tiny_config())
    c = copy_model(m)
    c.params["out_b"][0] = 123.0
    assert m.params["out_b"][0] != 123.0


def test_float32_weights_keep_float32_through_inference(monkeypatch):
    corpus = make_corpus(2, seed=0)
    snip = SnippetConfig(mode="context_window", window=1, tc_mode="both")
    vocab = build_vocab(examples_for_corpus(corpus, snip), min_freq=1)
    cfg = tiny_config(source_vocab_size=vocab.source_size,
                      target_vocab_size=vocab.target_size, layers=2)
    m = init_model(cfg)
    batch = sample_batch(cfg)
    states, finals = encode_source(m, batch)
    logits, new_state = decode_step(m, batch.tgt[:, 0], init_decoder_state(m, finals),
                                    states, batch.src_mask)
    attended, parts = attend(m, new_state[-1][0][:, None, :], states, batch.src_mask)
    arrays = [states, logits, attended, parts["weights"], parts["context"]]
    arrays += [a for state in finals + new_state for a in state]
    assert all(a.dtype == np.float32 for a in arrays)

    # predict_corpus searches with the caller's own float32 arrays and leaves them alone
    before = {k: v.copy() for k, v in m.params.items()}
    searched, real_search = [], decode._search

    def spy(model, sources, decode_cfg):
        searched.append(all(model.params[k] is m.params[k] for k in m.params))
        return real_search(model, sources, decode_cfg)

    monkeypatch.setattr(decode, "_search", spy)
    decode.predict_corpus(m, corpus, vocab, snip, decode.DecodeConfig(beam_size=2, max_length=4))
    assert searched and all(searched)
    for name, value in m.params.items():
        assert value.dtype == np.float32
        assert value.tobytes() == before[name].tobytes()
