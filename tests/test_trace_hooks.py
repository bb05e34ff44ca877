"""The benchmark in ``perfbench/`` wraps lemtag functions by name and checks
the corpora it predicts by digest; these tests keep those names, the
argument the tracer reads and the predicted bytes in step with the package."""

import hashlib
import importlib
import inspect

import pytest

from lemtag import decode
from lemtag.conllu import Corpus, parse_corpus, write_corpus
from lemtag.decode import DecodeConfig, predict_corpus
from lemtag.model import ModelConfig, init_model
from lemtag.snippets import SnippetConfig, build_vocab, examples_for_corpus
from lemtag.training import TrainConfig, train
from modelgen import PERFBENCH, fixture_job, load_perfbench


def load_spantrace():
    return load_perfbench("spantrace")


def test_traced_functions_exist():
    for module, function in load_spantrace().LAYER_FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"lemtag.{module}"), function, None)), \
            f"lemtag.{module}.{function}"


def test_blas_runs_on_one_thread_as_in_the_benchmark(monkeypatch):
    """``tests/conftest.py`` pins BLAS to one thread before numpy loads."""
    # run.py imports its sibling modules by their bare names
    monkeypatch.syspath_prepend(str(PERFBENCH))
    _, _, threads = load_perfbench("run").blas_info()
    assert threads == 1


def test_decode_step_rows_come_from_prev_ids():
    from lemtag.model import decode_step
    assert list(inspect.signature(decode_step).parameters)[1] == "prev_ids"


# corpus seed -> SHA-256 prefixes of the greedy and the beam-5 + vote corpus
FIXTURE_DIGESTS = {
    1: ("a5c3587220f51ca6", "6228d1ae8e6737f4"),
    2: ("257e8c014894aa9f", "4959983e6285a6b7"),
    3: ("f7ca988a6a666410", "b0a0e36563e849c4"),
    4: ("b404111981976956", "2645f43f5526a42a"),
    5: ("3e01d8426f17c9bb", "3e01d8426f17c9bb"),
    6: ("61ca8135a9221cfd", "3469a1d0c974fba5"),
}
FIXTURE_CASES = [(seed, beam_size, voting, digest)
                 for seed, digests in FIXTURE_DIGESTS.items()
                 for (beam_size, voting), digest in zip([(1, False), (5, True)], digests)]


@pytest.mark.parametrize("seed, beam_size, voting, digest", FIXTURE_CASES,
                         ids=[f"{b}-{v}-{d}" for _, b, v, d in FIXTURE_CASES])
def test_fixture_predictions_match_benchmark_digests(seed, beam_size, voting, digest):
    model, corpus, vocab, snip = fixture_job(seed)
    predicted, _ = predict_corpus(model, corpus, vocab, snip,
                                  DecodeConfig(beam_size=beam_size), voting=voting)
    assert hashlib.sha256(write_corpus(predicted).encode()).hexdigest().startswith(digest)


# beam size -> SHA-256 prefixes of the corpus and of the flag lines the
# fixture model predicts on the seed-1 corpus in full-sequence mode
FULL_SEQUENCE_DIGESTS = {1: ("ae0acc7a557aed68", "5de869bd4c3c01e2"),
                         2: ("ecbae7598c309d32", "5de869bd4c3c01e2")}


@pytest.mark.parametrize("beam_size", sorted(FULL_SEQUENCE_DIGESTS))
def test_fixture_full_sequence_predictions_match_digests(beam_size):
    model, corpus, vocab, _ = fixture_job(1)
    predicted, flags = predict_corpus(model, corpus, vocab, SnippetConfig(mode="full_sequence"),
                                      DecodeConfig(beam_size=beam_size))
    flag_lines = "".join("\t".join(f or "-" for f in sentence) + "\n" for sentence in flags)
    digests = [hashlib.sha256(text.encode()).hexdigest()[:16]
               for text in (write_corpus(predicted), flag_lines)]
    assert tuple(digests) == FULL_SEQUENCE_DIGESTS[beam_size]


def test_traced_predict_corpus_records_encoder_and_decoder_spans():
    import lemtag
    spantrace = load_spantrace()
    model, corpus, vocab, snip = fixture_job()
    corpus = Corpus(corpus.sentences[:2])
    tracer = spantrace.Tracer()
    tracer.install(lemtag)
    try:
        decode.predict_corpus(model, corpus, vocab, snip, DecodeConfig(beam_size=2))
    finally:
        tracer.uninstall()
    names = [span[spantrace.NAME] for span in tracer.spans]
    assert "decode.predict_corpus" in names
    assert "model.encode_source" in names
    assert "model.decode_step" in names
    rows = [span[spantrace.COUNT] for span in tracer.spans
            if span[spantrace.NAME] == "model.decode_step"]
    assert min(rows) >= 1
    # decode.focal_unit_share reads these: one parse per decoded window
    # (one window per token here) and one vote per token
    for name in ("decode.parse_analysis_units", "decode.majority_vote"):
        assert names.count(name) == corpus.token_count(), name


def test_training_losses_match_benchmark_digest(tmp_path):
    """perfbench's train-h64 seed-1 run: E32/H64/L2, dropout 0.3, 24 steps of
    batch 32 in 3 checkpoint intervals; its checkpoint losses pin the
    gradients, the SGD step and the loop's batch order bit for bit."""
    corpusgen = load_perfbench("corpusgen")
    train_corpus = parse_corpus(corpusgen.to_text(corpusgen.make_sentences(22, 1, 0, n_tokens=256)))
    dev = parse_corpus(corpusgen.to_text(corpusgen.make_sentences(1, 1, 1, n_tokens=6)))
    snip = SnippetConfig(mode="context_window", window=1, tc_mode="both")
    examples = examples_for_corpus(train_corpus, snip)
    vocab = build_vocab(examples, min_freq=1)
    model = init_model(ModelConfig(vocab.source_size, vocab.target_size, embedding_size=32,
                                   hidden_units=64, layers=2, dropout_p=0.3, rng_seed=0))
    cfg = TrainConfig(total_steps=24, checkpoint_every=8, batch_size=32, rng_seed=0,
                      checkpoint_dir=str(tmp_path))
    _, report = train(model, examples, dev, vocab, snip, cfg)
    losses = " ".join(float(r.train_loss).hex() for r in report.checkpoints)
    assert hashlib.sha256(losses.encode()).hexdigest().startswith("6128587e4f164248")
