"""Trained models for decode-oriented tests.

Untrained models rarely emit the end symbol inside the length limit, so
tests that need finished decodes either train a tiny model just long
enough for greedy rollouts on a few probe inputs to terminate, or load
the benchmark's trained fixture model.
"""

import importlib.util
import sys
from pathlib import Path

from lemtag.conllu import parse_corpus
from lemtag.decode import DecodeConfig, greedy_ids
from lemtag.model import (ModelConfig, backward, init_model, load_model,
                          make_batch, sgd_update)
from lemtag.snippets import SnippetConfig, build_vocab, encode, examples_for_corpus
from toycorpus import make_corpus

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


def fixture_job(seed=1):
    """A predict-h64 test corpus (surface only; the same on every workload)
    and the fixture model."""
    corpusgen = load_perfbench("corpusgen")
    text = corpusgen.to_text(corpusgen.make_sentences(8, seed, 2), gold=False)
    model, vocab = load_model(PERFBENCH / "fixture" / "h64.ckpt")
    snip = SnippetConfig(mode="context_window", window=1, tc_mode="both")
    return model, parse_corpus(text, mode="surface_only"), vocab, snip


def warm_model(seed=0, n_sentences=6, hidden=32, max_steps=1200, n_probes=3):
    """Train until greedy decoding finishes on the probe inputs.

    Returns (model, vocab, corpus, snippet config, encoded pairs).
    """
    corpus = make_corpus(n_sentences, seed=seed)
    snip = SnippetConfig(mode="context_window", window=1, tc_mode="both")
    examples = examples_for_corpus(corpus, snip)
    vocab = build_vocab(examples, min_freq=1)
    cfg = ModelConfig(source_vocab_size=vocab.source_size,
                      target_vocab_size=vocab.target_size,
                      embedding_size=16, hidden_units=hidden, layers=1,
                      dropout_p=0.0, rng_seed=seed)
    model = init_model(cfg)
    pairs = [encode(ex, vocab) for ex in examples]
    batch = make_batch(pairs)
    probes = [src for src, _ in pairs[:n_probes]]
    done = DecodeConfig(beam_size=1)
    for step in range(max_steps):
        _, grads = backward(model, batch)
        sgd_update(model, grads, lr=1.0, clip_norm=5.0)
        if (step + 1) % 50 == 0:
            if all(greedy_ids(model, src, done)[1] for src in probes):
                break
    return model, vocab, corpus, snip, pairs
