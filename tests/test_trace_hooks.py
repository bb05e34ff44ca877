"""The benchmark in ``perfbench/`` wraps lemtag functions by name and checks
the corpora it predicts by digest; these tests keep those names, the
argument the tracer reads and the predicted bytes in step with the package."""

import hashlib
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from lemtag import decode
from lemtag.conllu import Corpus, parse_corpus, write_corpus
from lemtag.decode import DecodeConfig, predict_corpus
from lemtag.model import load_model
from lemtag.snippets import SnippetConfig

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def load_spantrace():
    return load_perfbench("spantrace")


def test_traced_functions_exist():
    for module, function in load_spantrace().LAYER_FUNCTIONS:
        assert callable(getattr(importlib.import_module(f"lemtag.{module}"), function, None)), \
            f"lemtag.{module}.{function}"


def test_decode_step_rows_come_from_prev_ids():
    from lemtag.model import decode_step
    assert list(inspect.signature(decode_step).parameters)[1] == "prev_ids"


def fixture_job():
    """The predict-h64 seed-1 test corpus (surface only) and the fixture model."""
    corpusgen = load_perfbench("corpusgen")
    text = corpusgen.to_text(corpusgen.make_sentences(8, 1, 2), gold=False)
    model, vocab = load_model(PERFBENCH / "fixture" / "h64.ckpt")
    snip = SnippetConfig(mode="context_window", window=1, tc_mode="both")
    return model, parse_corpus(text, mode="surface_only"), vocab, snip


@pytest.mark.parametrize("beam_size, voting, digest", [
    (1, False, "a5c3587220f51ca6"),
    (5, True, "6228d1ae8e6737f4"),
])
def test_fixture_predictions_match_benchmark_digests(beam_size, voting, digest):
    model, corpus, vocab, snip = fixture_job()
    predicted, _ = predict_corpus(model, corpus, vocab, snip,
                                  DecodeConfig(beam_size=beam_size), voting=voting)
    assert hashlib.sha256(write_corpus(predicted).encode()).hexdigest().startswith(digest)


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
