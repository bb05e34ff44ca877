import hashlib
import struct
import zlib

import numpy as np
import pytest

from lemtag.model import (Batch, CheckpointError, Model, ModelConfig, _lstm_backward,
                          _lstm_forward, _lstm_step, _sigmoid, attend, backward,
                          decode_step, encode_source, forward_loss,
                          init_decoder_state, init_model, load_model,
                          make_batch, save_model, sgd_update)
from lemtag.snippets import CONTROL_SYMBOLS, PAD_ID, Vocab


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


def assert_close(actual, desired):
    # rtol 1e-12, with an absolute floor at that share of the tensor's largest value
    np.testing.assert_allclose(actual, desired, rtol=1e-12,
                               atol=1e-12 * float(np.abs(desired).max()))


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
    with the weight gradients accumulated per step."""
    bsz, steps, _ = inputs.shape
    outputs = np.zeros((bsz, steps, Wh.shape[0]))
    tape = []
    for t in (range(steps - 1, -1, -1) if reverse else range(steps)):
        x = inputs[:, t, :]
        h_new, c_new, gates = _lstm_step(x @ Wx, Wh, b, h, c)
        m = mask[:, t][:, None] > 0
        tape.append((t, x, h, c, m, gates))
        h, c = np.where(m, h_new, h), np.where(m, c_new, c)
        outputs[:, t, :] = h
    final = (h, c)
    dWx, dWh, db = np.zeros_like(Wx), np.zeros_like(Wh), np.zeros_like(b)
    d_inputs = np.zeros_like(inputs)
    for t, x, h_prev, c_prev, m, (i, f, g, o, tanh_c) in reversed(tape):
        dh_t = dh + d_outputs[:, t, :]
        dh_in, dc_in = np.where(m, dh_t, 0.0), np.where(m, dc, 0.0)
        dc_full = dc_in + dh_in * o * (1.0 - tanh_c ** 2)
        dz = np.concatenate([dc_full * g * i * (1.0 - i), dc_full * c_prev * f * (1.0 - f),
                             dc_full * i * (1.0 - g ** 2), dh_in * tanh_c * o * (1.0 - o)],
                            axis=1)
        dWx += x.T @ dz
        dWh += h_prev.T @ dz
        db += dz.sum(axis=0)
        d_inputs[:, t, :] = dz @ Wx.T
        dh, dc = np.where(m, dz @ Wh.T, dh_t), np.where(m, dc_full * f, dc)
    return outputs, final, (d_inputs, dWx, dWh, db, dh, dc)


@pytest.mark.parametrize("reverse", [False, True])
def test_lstm_layer_matches_stepwise_reference(reverse):
    rng = np.random.default_rng(3)
    bsz, steps, din, hid = 3, 6, 4, 5
    Wx = rng.normal(scale=0.5, size=(din, 4 * hid))
    Wh = rng.normal(scale=0.5, size=(hid, 4 * hid))
    b = rng.normal(scale=0.5, size=4 * hid)
    inputs = rng.normal(size=(bsz, steps, din))
    mask = (np.arange(steps)[None, :] < np.array([[6], [3], [1]])).astype(np.float64)
    h0, c0 = rng.normal(size=(bsz, hid)), rng.normal(size=(bsz, hid))
    d_outputs = rng.normal(size=(bsz, steps, hid)) * mask[:, :, None]
    dh, dc = rng.normal(size=(bsz, hid)), rng.normal(size=(bsz, hid))

    outputs, final, cache = _lstm_forward(Wx, Wh, b, inputs, mask, reverse, h0, c0)
    grads = _lstm_backward(Wx, Wh, d_outputs, cache, dh, dc)
    ref_outputs, ref_final, ref_grads = reference_lstm(
        Wx, Wh, b, inputs, mask, reverse, h0, c0, d_outputs, dh, dc)
    for got, want in zip((outputs, *final, *grads), (ref_outputs, *ref_final, *ref_grads)):
        assert got.shape == want.shape
        assert_close(got, want)


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
    m = init_model(cfg)
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
    with pytest.raises(ValueError):
        forward_loss(m, make_batch([([5, 6], None)]))


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
    grads = zero_grads(m)
    with pytest.raises(ValueError, match="learning rate"):
        sgd_update(m, grads, lr=float("nan"))
    # a NaN, zero or negative clip norm used to switch clipping off silently
    for clip_norm in (float("nan"), 0.0, -1.0):
        with pytest.raises(ValueError, match="clip_norm"):
            sgd_update(m, grads, lr=1.0, clip_norm=clip_norm)
    grads["out_b"][0] = np.nan
    with pytest.raises(ValueError):
        sgd_update(m, grads, lr=1.0, clip_norm=5.0)


def test_clipped_sgd_matches_subtract_then_snap():
    cfg = tiny_config(layers=2)
    m = init_model(cfg)
    ref = m.copy()
    batch = sample_batch(cfg)
    lr, clip_norm = 0.7, 0.05
    for _ in range(3):
        _, grads = backward(m, batch)
        sq = 0.0
        for g in grads.values():
            sq += float((g * g).sum())
        norm = float(np.sqrt(sq))
        assert norm > clip_norm
        for name, param in ref.params.items():
            param -= lr * (clip_norm / norm) * grads[name]
            param[...] = param.astype(np.float32).astype(np.float64)
        sgd_update(m, grads, lr, clip_norm)
        for name in m.params:
            assert m.params[name].tobytes() == ref.params[name].tobytes(), name


def test_weights_stay_on_float32_grid():
    cfg = tiny_config()
    m = init_model(cfg)
    batch = sample_batch(cfg)
    for _ in range(3):
        _, grads = backward(m, batch)
        sgd_update(m, grads, lr=0.5, clip_norm=5.0)
    for p in m.params.values():
        assert np.array_equal(p, p.astype(np.float32).astype(np.float64))


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
], ids=["short-file", "flipped-tensor-byte", "bad-magic", "version-2", "missing-tensor-tail",
        "trailing-bytes"])
def test_checkpoint_load_rejections(tmp_path, edit, message):
    path = saved_checkpoint(tmp_path)
    path.write_bytes(edit(path.read_bytes()))
    with pytest.raises(CheckpointError, match=f"^{message}$"):
        load_model(path)


def test_model_copy_is_deep():
    m = init_model(tiny_config())
    c = m.copy()
    c.params["out_b"][0] = 123.0
    assert m.params["out_b"][0] != 123.0
