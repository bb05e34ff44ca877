"""The learnable network and its exact gradients.

Architecture: source/target embeddings, a stacked bidirectional LSTM
encoder, a stacked LSTM decoder initialized through a linear bridge from
the encoder's final states, bilinear ("general") global attention over the
encoder states, a tanh combination layer, and a projection to the target
vocabulary.  Everything is plain numpy with hand-written backpropagation;
gradients are exact for the realized dropout masks and are checked against
finite differences in the test suite.  Padding is handled in three places:
the encoder recurrence (frozen state, zero outputs), the attention scores
(-inf) and the loss weights.

Parameters are float32 from ``init_model`` on, as checkpoints store them,
and every array of training and inference takes the parameters' dtype, so
a float64 copy of a model (as the gradient checks use) computes in float64.
"""

from __future__ import annotations

import json
import math
import struct
import zlib
from dataclasses import asdict, dataclass

import numpy as np

from .snippets import PAD_ID, Vocab, check_integer, check_real

CHECKPOINT_MAGIC = b"LMTG"
CHECKPOINT_VERSION = 1


class CheckpointError(Exception):
    """Unreadable, corrupt or incompatible checkpoint file."""


@dataclass(frozen=True)
class ModelConfig:
    source_vocab_size: int
    target_vocab_size: int
    embedding_size: int = 700
    hidden_units: int = 500
    layers: int = 2
    dropout_p: float = 0.3
    attention: str = "general"
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("source_vocab_size", "target_vocab_size", "embedding_size",
                     "hidden_units", "layers"):
            check_integer(name, getattr(self, name), 1)
        check_integer("rng_seed", self.rng_seed, 0)
        check_real("dropout_p must be in [0, 1)", self.dropout_p, high=1.0, closed_low=True)
        if self.attention != "general":
            raise ValueError(f"unsupported attention score {self.attention!r}")


def _param_shapes(cfg: ModelConfig):
    """Parameter names and shapes in declared (checkpoint) order, yielded
    one at a time: a checkpoint header may claim more layers than its data
    holds, and ``load_model`` stops at the first tensor that is missing."""
    e, h, g = cfg.embedding_size, cfg.hidden_units, 4 * cfg.hidden_units
    yield "src_embed", (cfg.source_vocab_size, e)
    yield "tgt_embed", (cfg.target_vocab_size, e)
    for layer in range(cfg.layers):
        din = e if layer == 0 else 2 * h
        for direction in ("fwd", "bwd"):
            yield f"enc{layer}_{direction}_Wx", (din, g)
            yield f"enc{layer}_{direction}_Wh", (h, g)
            yield f"enc{layer}_{direction}_b", (g,)
    for layer in range(cfg.layers):
        din = e if layer == 0 else h
        yield f"dec{layer}_Wx", (din, g)
        yield f"dec{layer}_Wh", (h, g)
        yield f"dec{layer}_b", (g,)
    for layer in range(cfg.layers):
        yield f"bridge{layer}_h", (2 * h, h)
        yield f"bridge{layer}_c", (2 * h, h)
    yield "attn_W", (h, 2 * h)
    yield "combo_W", (3 * h, h)
    yield "out_W", (h, cfg.target_vocab_size)
    yield "out_b", (cfg.target_vocab_size,)


class Model:
    """Configuration plus named parameter tensors in declared order."""

    def __init__(self, config: ModelConfig, params: dict[str, np.ndarray]):
        self.config = config
        self.params = params

    def copy(self) -> "Model":
        return Model(self.config, {k: v.copy() for k, v in self.params.items()})


def init_model(cfg: ModelConfig) -> Model:
    """Uniform [-0.1, 0.1] init from cfg.rng_seed; LSTM forget biases set to 1."""
    rng = np.random.default_rng(cfg.rng_seed)
    params = {}
    for name, shape in _param_shapes(cfg):
        params[name] = rng.uniform(-0.1, 0.1, size=shape).astype(np.float32)
    h = cfg.hidden_units
    for name in params:
        if name.endswith("_b") and name != "out_b":
            params[name][h:2 * h] = 1.0
    return Model(cfg, params)


@dataclass
class Batch:
    """Padded id matrices, ``src`` (B, S) and ``tgt`` (B, T) with targets
    framed by the start/end ids, and boolean masks that are False exactly on
    padding: ``src_mask`` (B, S), read by the encoder recurrence and by
    ``attend``, and ``loss_mask`` (B, T-1), read only by the loss.
    """

    src: np.ndarray
    src_mask: np.ndarray
    tgt: np.ndarray | None = None
    loss_mask: np.ndarray | None = None

    @property
    def size(self):
        return self.src.shape[0]


def _pad(seqs):
    """(B, longest) id matrix padded with PAD_ID, and its boolean mask."""
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    ids = np.full((len(seqs), lengths.max()), PAD_ID, dtype=np.int64)
    for i, s in enumerate(seqs):
        ids[i, :len(s)] = s
    return ids, np.arange(ids.shape[1])[None, :] < lengths[:, None]


def make_batch(pairs) -> Batch:
    """Pad a list of (source ids, optional framed target ids) into a Batch."""
    if not pairs:
        raise ValueError("empty batch")
    src, src_mask = _pad([p[0] for p in pairs])
    tgts = [p[1] for p in pairs]
    if all(t is None for t in tgts):
        return Batch(src, src_mask)
    if any(t is None for t in tgts):
        raise ValueError("mixed batch: some examples lack targets")
    tgt, tgt_mask = _pad(tgts)
    # position k predicts tgt[:, k + 1], so the loss mask is the target mask shifted by one
    return Batch(src, src_mask, tgt, tgt_mask[:, 1:])


# ---------------------------------------------------------------------------
# primitives


def _sigmoid(x):
    # exp(-|x|) never overflows; same bytes as 1/(1+exp(-x)) | exp(x)/(1+exp(x)).
    # e <= 1, so max(e, x >= 0) is 1 or e without a data-dependent branch
    e = np.exp(-np.abs(x))
    return np.maximum(e, x >= 0) / (1.0 + e)


def _softmax(logits):
    """Probabilities and log-probabilities over the last axis, from one exp."""
    shifted = logits - logits.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=-1, keepdims=True)
    return e / total, shifted - np.log(total)


def _lstm_step(xw, Wh, b, h, c):
    # xw is the step's input already projected: x @ Wx, (B, 4H)
    hid = Wh.shape[0]
    z = xw + h @ Wh + b
    s = _sigmoid(z)
    i, f, o = s[:, :hid], s[:, hid:2 * hid], s[:, 3 * hid:]
    g = np.tanh(z[:, 2 * hid:3 * hid])
    c_new = f * c + i * g
    tanh_c = np.tanh(c_new)
    h_new = o * tanh_c
    return h_new, c_new, (i, f, g, o, tanh_c)


def _lstm_forward(Wx, Wh, b, inputs, mask, reverse, h, c):
    """Run one LSTM layer over (B, T, Din) inputs from the state (h, c).

    ``mask`` (B, T), or None for no padding, freezes the state and zeroes
    the output at padded positions, so the final state is the state at each
    row's last real position; ``reverse`` processes time back to front.
    ``inputs @ Wx`` is one GEMM before the time loop.  A step with no
    padding takes the new state as it is; only a step with padding selects
    between the new and the frozen state.  Returns outputs (B, T, H), the
    final (h, c), and a cache for the backward pass: the (B*T, Din) inputs,
    each step's starting h (B, T, H) and per-step tuples, whose (B, 1) mask
    is None at a step with no padding.
    """
    bsz, steps, din = inputs.shape
    x = inputs.reshape(-1, din)
    xw = (x @ Wx).reshape(bsz, steps, -1)
    outputs = np.zeros((bsz, steps, Wh.shape[0]), dtype=xw.dtype)
    h_prev = np.empty_like(outputs)
    full = [True] * steps if mask is None else mask.all(axis=0).tolist()
    order = range(steps - 1, -1, -1) if reverse else range(steps)
    trace = []
    for t in order:
        h_prev[:, t, :] = h
        h_new, c_new, gates = _lstm_step(xw[:, t, :], Wh, b, h, c)
        m = None if full[t] else mask[:, t][:, None]
        trace.append((t, c, m, *gates))
        if m is None:
            h, c = h_new, c_new
        else:
            h, c = np.where(m, h_new, h), np.where(m, c_new, c)
        outputs[:, t, :] = h if m is None else h * m
    return outputs, (h, c), (x, h_prev, trace)


def _lstm_backward(Wx, Wh, d_outputs, cache, dh, dc):
    """Backpropagate through one LSTM layer.

    ``d_outputs`` holds gradients w.r.t. the per-position outputs, zero at
    padded positions, where the outputs are constant; ``dh`` and ``dc``
    (arrays, zero for none) hold the gradient flowing into the final state
    (e.g. from the encoder-decoder bridge).  Returns gradients for the
    inputs, the three weight tensors, and the initial state.  Only
    ``dz @ Wh.T`` runs per step; the rest are one GEMM or sum over all dz;
    a step with no padding (mask None in the trace) selects nothing.
    """
    x, h_prev, trace = cache
    bsz, steps, hid = d_outputs.shape
    dz_all = np.empty((bsz, steps, 4 * hid), dtype=d_outputs.dtype)
    for (t, c_prev, m, i, f, g, o, tanh_c) in reversed(trace):
        dh_t = dh + d_outputs[:, t, :]
        if m is None:
            dh_in, dc_in = dh_t, dc
        else:
            dh_in, dc_in = np.where(m, dh_t, 0.0), np.where(m, dc, 0.0)
        do = dh_in * tanh_c
        dc_full = dc_in + dh_in * o * (1.0 - tanh_c ** 2)
        di = dc_full * g
        df = dc_full * c_prev
        dg = dc_full * i
        dz = np.concatenate([di * i * (1.0 - i), df * f * (1.0 - f), dg * (1.0 - g ** 2),
                             do * o * (1.0 - o)], axis=1, out=dz_all[:, t, :])
        if m is None:
            dh, dc = dz @ Wh.T, dc_full * f
        else:
            # padded positions pass the state gradient straight through
            dh, dc = np.where(m, dz @ Wh.T, dh_t), np.where(m, dc_full * f, dc)
    dz = dz_all.reshape(-1, 4 * hid)
    d_inputs = (dz @ Wx.T).reshape(bsz, steps, -1)
    return d_inputs, x.T @ dz, h_prev.reshape(-1, hid).T @ dz, dz.sum(axis=0), dh, dc


def _dropout_mask(rng, like, p):
    """A scaled keep mask with the shape and dtype of ``like``, or 1.0 when
    not training (no ``rng``) or ``p`` is 0."""
    if rng is None or p == 0:
        return 1.0
    return (rng.random(like.shape) >= p) * like.dtype.type(1.0 / (1.0 - p))


def _check_ids(ids, size, what):
    bad = ids[(ids < 0) | (ids >= size)]
    if bad.size:
        raise ValueError(f"{what} id {int(bad[0])} out of range (vocab size {size})")


# ---------------------------------------------------------------------------
# forward


def _stack_forward(model, stack, inputs, mask, init, rng):
    """Run the "enc" or "dec" LSTM stack over (B, T, E) inputs under a (B, T) mask.

    Each encoder layer runs directions ``enc{l}_fwd`` and ``enc{l}_bwd``
    from zero states; each decoder layer runs the one direction ``dec{l}``
    from ``init[l]``, the bridge's (h, c).  Layers above the first see their
    input through dropout when ``rng`` is given (training).  Returns the
    top layer's outputs and each layer's final (h, c), both with the
    directions concatenated along the last axis, and a cache for
    ``_stack_backward``.  The decoder runs with mask None, so its final
    states include the padded steps; nothing reads them.
    """
    cfg = model.config
    p = model.params
    finals = []
    caches = []
    for layer in range(cfg.layers):
        drop = _dropout_mask(rng, inputs, cfg.dropout_p) if layer > 0 else 1.0
        inputs = inputs * drop
        if stack == "enc":
            zero = np.zeros((len(inputs), cfg.hidden_units), dtype=inputs.dtype)
            directions = [(f"enc{layer}_fwd", False, zero, zero),
                          (f"enc{layer}_bwd", True, zero, zero)]
        else:
            directions = [(f"dec{layer}", False, *init[layer])]
        outputs, traces, layer_finals = [], [], []
        for name, reverse, h0, c0 in directions:
            out, final, trace = _lstm_forward(
                p[f"{name}_Wx"], p[f"{name}_Wh"], p[f"{name}_b"], inputs, mask, reverse, h0, c0)
            outputs.append(out)
            traces.append((name, trace))
            layer_finals.append(final)
        caches.append((traces, drop))
        finals.append([np.concatenate(state, axis=1) for state in zip(*layer_finals)])
        inputs = np.concatenate(outputs, axis=2)
    return inputs, finals, caches


def _encode(model, batch, rng):
    """Check the source ids, embed them and run the "enc" stack, with
    dropout when ``rng`` is given.  Returns the per-position states
    (B, S, 2*hidden), zero on padding, each layer's final (h, c), each
    (B, 2*hidden), and the stack cache."""
    _check_ids(batch.src, model.config.source_vocab_size, "source")
    return _stack_forward(
        model, "enc", model.params["src_embed"][batch.src], batch.src_mask, None, rng)


def _forward(model, batch, rng):
    """Full teacher-forced pass, with dropout when ``rng`` is given;
    returns loss and a cache for backward."""
    if batch.tgt is None or batch.loss_mask is None:
        raise ValueError("forward pass requires targets")
    n_tokens = batch.loss_mask.sum()
    if n_tokens == 0:
        raise ValueError("empty loss mask")
    cfg = model.config
    _check_ids(batch.tgt, cfg.target_vocab_size, "target")  # inputs and gold ids
    enc_states, finals, enc_caches = _encode(model, batch, rng)
    tgt_in = batch.tgt[:, :-1]
    # unmasked: padded target positions follow the real ones and carry zero loss weight
    dec_out, _, dec_caches = _stack_forward(model, "dec", model.params["tgt_embed"][tgt_in],
                                            None, init_decoder_state(model, finals), rng)
    out_drop = _dropout_mask(rng, dec_out, cfg.dropout_p)
    logits, att = attend(model, dec_out, enc_states, batch.src_mask, out_drop)

    gold = batch.tgt[:, 1:]
    probs, log_probs = _softmax(logits)
    nll = -np.take_along_axis(log_probs, gold[:, :, None], axis=2)[:, :, 0]
    loss = float((nll * batch.loss_mask).sum() / n_tokens)

    cache = dict(
        enc_states=enc_states, finals=finals, enc_caches=enc_caches,
        tgt_in=tgt_in, dec_out=dec_out, dec_caches=dec_caches,
        probs=probs, gold=gold, n_tokens=n_tokens, **att,
    )
    return loss, cache


def forward_loss(model, batch) -> float:
    """Mean masked token cross-entropy (nats) under teacher forcing, for
    inference only: no dropout is applied (``backward`` trains)."""
    loss, _ = _forward(model, batch, None)
    return loss


def encode_source(model, batch):
    """Per-position encoder states (B, S, 2*hidden) plus per-layer final
    (h, c), each (B, 2*hidden)."""
    states, finals, _ = _encode(model, batch, None)
    return states, finals


def attend(model, decoder_states, encoder_states, source_mask, out_drop=1.0):
    """Bilinear attention, tanh combination and output projection.

    Takes decoder states (B, T, H), encoder states (B, S, 2H) and the
    source mask (B, S); ``out_drop`` is the dropout mask on the combined
    states (1.0 for none).  Returns logits (B, T, V) and a dict of the
    intermediate values (weights (B, T, S), context (B, T, 2H), ...).
    """
    p = model.params
    if not source_mask.any(axis=1).all():
        raise ValueError("attention over fully masked source")
    proj = decoder_states @ p["attn_W"]
    scores = proj @ encoder_states.transpose(0, 2, 1)
    scores = np.where(source_mask[:, None, :], scores, -np.inf)
    weights, _ = _softmax(scores)
    context = weights @ encoder_states
    combined = np.concatenate([context, decoder_states], axis=2)
    tilde = np.tanh(combined @ p["combo_W"])
    tilde_d = tilde * out_drop
    logits = tilde_d @ p["out_W"] + p["out_b"]
    return logits, dict(proj=proj, weights=weights, context=context, combined=combined,
                        tilde=tilde, out_drop=out_drop, tilde_d=tilde_d)


def init_decoder_state(model, finals):
    """Initial per-layer (h, c) decoder states from the bridge projection."""
    p = model.params
    return [(eh @ p[f"bridge{layer}_h"], ec @ p[f"bridge{layer}_c"])
            for layer, (eh, ec) in enumerate(finals)]


def decode_step(model, prev_ids, state, encoder_states, source_mask):
    """One inference step: embed previous ids, advance the LSTM stack and
    attend.  The rows are grouped per source: encoder states (N, S, 2H)
    and mask (N, S) serve rows/N consecutive rows each, attended to as one
    (N, rows/N, H) batch.  Returns (logits (rows, V), new state)."""
    p = model.params
    prev_ids = np.asarray(prev_ids, dtype=np.int64)
    _check_ids(prev_ids, model.config.target_vocab_size, "target")
    x = p["tgt_embed"][prev_ids]
    new_state = []
    for layer, (h, c) in enumerate(state):
        h_new, c_new, _ = _lstm_step(
            x @ p[f"dec{layer}_Wx"], p[f"dec{layer}_Wh"], p[f"dec{layer}_b"], h, c)
        new_state.append((h_new, c_new))
        x = h_new
    logits, _ = attend(model, x.reshape(len(encoder_states), -1, x.shape[1]),
                       encoder_states, source_mask)
    return logits.reshape(len(x), -1), new_state


# ---------------------------------------------------------------------------
# backward


def _stack_backward(model, grads, caches, d_outputs, d_finals=None):
    """Backpropagate through a stack run by ``_stack_forward``.

    ``d_outputs`` is the gradient w.r.t. the top layer's outputs and
    ``d_finals`` the gradient w.r.t. each layer's final (h, c), if any flows
    into them.  Sets each direction's weight gradients in ``grads``; returns
    the gradient w.r.t. the stack's inputs and, per layer and direction,
    the gradient w.r.t. the initial (h, c).
    """
    p = model.params
    hid = model.config.hidden_units
    d_init = [None] * len(caches)
    for layer in range(len(caches) - 1, -1, -1):
        traces, drop = caches[layer]
        d_inputs, d_init[layer] = [], []
        for k, (name, trace) in enumerate(traces):
            part = slice(k * hid, (k + 1) * hid)
            if d_finals:
                dh, dc = (d[:, part] for d in d_finals[layer])
            else:
                dh = dc = np.zeros_like(d_outputs[:, 0, part])
            d_in, dWx, dWh, db, dh0, dc0 = _lstm_backward(
                p[f"{name}_Wx"], p[f"{name}_Wh"], d_outputs[:, :, part], trace, dh, dc)
            grads[f"{name}_Wx"], grads[f"{name}_Wh"], grads[f"{name}_b"] = dWx, dWh, db
            d_inputs.append(d_in)
            d_init[layer].append((dh0, dc0))
        d_outputs = sum(d_inputs[1:], d_inputs[0]) * drop
    return d_outputs, d_init


def backward(model, batch, rng=None):
    """Loss and exact gradients for every parameter tensor, as a dict in
    ``model.params`` order.

    Dropout masks are drawn once from ``rng`` and the gradients are exact
    for that realization.
    """
    cfg = model.config
    p = model.params
    if rng is None and cfg.dropout_p > 0:
        raise ValueError("dropout is active; a random generator is required")
    loss, cache = _forward(model, batch, rng)
    grads = {}

    # cross-entropy -> logits: probabilities minus the one-hot gold, in
    # place, as nothing reads the cache after this
    d_logits = cache["probs"]
    np.subtract.at(d_logits.reshape(-1, cfg.target_vocab_size),
                   (np.arange(cache["gold"].size), cache["gold"].ravel()), 1.0)
    d_logits *= (batch.loss_mask / cache["n_tokens"])[:, :, None]

    tilde_d = cache["tilde_d"]
    hid = cfg.hidden_units
    flat = lambda a: a.reshape(-1, a.shape[-1])
    grads["out_W"] = flat(tilde_d).T @ flat(d_logits)
    grads["out_b"] = d_logits.sum(axis=(0, 1))
    d_tilde = d_logits @ p["out_W"].T * cache["out_drop"]
    d_pre = d_tilde * (1.0 - cache["tilde"] ** 2)
    grads["combo_W"] = flat(cache["combined"]).T @ flat(d_pre)
    d_combined = d_pre @ p["combo_W"].T
    d_context = d_combined[:, :, :2 * hid]
    d_dec_out = d_combined[:, :, 2 * hid:].copy()

    # attention
    enc_states = cache["enc_states"]
    weights = cache["weights"]
    d_weights = d_context @ enc_states.transpose(0, 2, 1)
    d_enc = weights.transpose(0, 2, 1) @ d_context
    d_scores = weights * (d_weights - (d_weights * weights).sum(axis=2, keepdims=True))
    d_proj = d_scores @ enc_states
    d_enc += d_scores.transpose(0, 2, 1) @ cache["proj"]
    grads["attn_W"] = flat(cache["dec_out"]).T @ flat(d_proj)
    d_dec_out += d_proj @ p["attn_W"].T

    # decoder stack, bridge, encoder stack
    d_tgt, d_init = _stack_backward(model, grads, cache["dec_caches"], d_dec_out)
    # embedding rows repeat within a batch, so these two scatter-add into zeros
    grads["tgt_embed"] = np.zeros_like(p["tgt_embed"])
    np.add.at(grads["tgt_embed"], cache["tgt_in"], d_tgt)
    d_finals = []
    for layer, ((dh0, dc0),) in enumerate(d_init):
        eh, ec = cache["finals"][layer]
        grads[f"bridge{layer}_h"] = eh.T @ dh0
        grads[f"bridge{layer}_c"] = ec.T @ dc0
        d_finals.append((dh0 @ p[f"bridge{layer}_h"].T, dc0 @ p[f"bridge{layer}_c"].T))
    # padded source positions have attention weight 0, so d_enc is already 0 there
    d_src, _ = _stack_backward(model, grads, cache["enc_caches"], d_enc, d_finals)
    grads["src_embed"] = np.zeros_like(p["src_embed"])
    np.add.at(grads["src_embed"], batch.src, d_src)
    # sgd_update sums the global norm in this order
    return loss, {name: grads[name] for name in p}


def sgd_update(model, grads, lr, clip_norm=None):
    """Clip gradients to a global norm (``clip_norm`` None for no
    clipping), then take one SGD step in place; a rate of 0, where a long
    halving schedule underflows, leaves the parameters as they are."""
    check_real("learning rate must be non-negative and finite", lr, closed_low=True)
    if clip_norm is not None:
        check_real("clip_norm must be positive and finite, or None", clip_norm)
    sq = 0.0
    for g in grads.values():
        # squared in double precision: a float32 square overflows from about 2e19
        sq += float(np.square(g, dtype=float).sum())
    norm = float(np.sqrt(sq))
    if not np.isfinite(norm):
        raise ValueError("non-finite gradients")
    step = lr
    if clip_norm is not None and norm > clip_norm:
        step = lr * (clip_norm / norm)
    if step:  # subtracting a zero step could still turn a -0.0 weight into 0.0
        for name, param in model.params.items():
            param -= step * grads[name]
    return model


# ---------------------------------------------------------------------------
# persistence


def check_vocab(cfg: ModelConfig, vocab: Vocab):
    """Raise ValueError unless the model's symbol table sizes are the vocabulary's."""
    if cfg.source_vocab_size != vocab.source_size or cfg.target_vocab_size != vocab.target_size:
        raise ValueError("model and vocabulary sizes disagree")


def save_model(model: Model, vocab: Vocab, path):
    """Write a versioned checkpoint: header, float32 tensors, CRC32 trailer."""
    check_vocab(model.config, vocab)
    header = json.dumps({
        "config": asdict(model.config),
        "source_symbols": list(vocab.source_symbols),
        "target_symbols": list(vocab.target_symbols),
        "min_freq": vocab.min_freq,
    }).encode("utf-8")
    head = struct.pack("<4sIQ", CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(header)) + header
    with open(path, "wb") as f:
        f.write(head)
        crc = zlib.crc32(head)
        for tensor in model.params.values():
            chunk = np.ascontiguousarray(tensor, dtype="<f4")
            f.write(chunk)
            crc = zlib.crc32(chunk, crc)
        f.write(struct.pack("<I", crc))


def load_model(path, expect_vocab: Vocab | None = None):
    """Read a checkpoint back into (Model, Vocab); verifies checksum/version."""
    with open(path, "rb") as f:
        blob = memoryview(f.read())
    if len(blob) < len(CHECKPOINT_MAGIC) + 4 + 8 + 4:
        raise CheckpointError("checkpoint file truncated")
    end = len(blob) - 4  # tensor data stops at the CRC32 trailer
    if zlib.crc32(blob[:end]) != struct.unpack_from("<I", blob, end)[0]:
        raise CheckpointError("checkpoint checksum mismatch (corrupt or truncated file)")
    magic, version, header_len = struct.unpack_from("<4sIQ", blob)
    if magic != CHECKPOINT_MAGIC:
        raise CheckpointError("not a checkpoint file (bad magic)")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(f"unsupported checkpoint format version {version}")
    try:
        header = json.loads(str(blob[16:16 + header_len], "utf-8"))
        cfg = ModelConfig(**header["config"])
        vocab = Vocab(header["source_symbols"], header["target_symbols"], header["min_freq"])
        check_vocab(cfg, vocab)
    except (KeyError, TypeError, ValueError, UnicodeDecodeError) as err:
        raise CheckpointError(f"malformed checkpoint header: {err}") from None
    if expect_vocab is not None and expect_vocab != vocab:
        raise CheckpointError("checkpoint vocabulary does not match the provided one")
    params = {}
    offset = 16 + header_len
    for name, shape in _param_shapes(cfg):
        count = math.prod(shape)
        if offset + 4 * count > end:
            raise CheckpointError("checkpoint tensor data truncated")
        # a writable copy: the view into the file's bytes is read-only
        params[name] = np.frombuffer(blob, "<f4", count, offset).reshape(shape).astype(np.float32)
        if not np.isfinite(params[name]).all():
            raise CheckpointError(f"non-finite weights in tensor {name}")
        offset += 4 * count
    if offset != end:
        raise CheckpointError("trailing bytes after tensor data")
    return Model(cfg, params), vocab
