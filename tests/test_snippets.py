import dataclasses
import hashlib
import math

import numpy as np
import pytest

from lemtag.conllu import Analysis, Corpus, MorphoTag, Sentence, Token, parse_corpus
from lemtag.decode import DecodeConfig
from lemtag.model import ModelConfig
from lemtag.snippets import (BOUNDARY_ID, CONTROL_SYMBOLS, END_ID, PAD_ID,
                             SPACE, START_ID, TC_MODES, UNK_ID, SEQUENCE_END,
                             SEQUENCE_START, UNKNOWN, WORD_BOUNDARY, SnippetConfig,
                             Vocab, build_vocab, encode,
                             examples_for_corpus, format_example, is_grammeme_symbol,
                             tokenize_analysis, tokenize_surface, window_span)
from lemtag.training import TrainConfig
from toycorpus import make_corpus


def _sentence():
    return Sentence((
        Token("Bats", gold=Analysis("bat", MorphoTag(("n", "pl")))),
        Token("are", gold=Analysis("be", MorphoTag(("aux", "prs")))),
        Token("flying", gold=Analysis("fly", MorphoTag(("prog", "v")))),
    ))


FULL = SnippetConfig(mode="full_sequence")


def sentence_examples(sentence, cfg):
    """The examples of a one-sentence corpus."""
    return examples_for_corpus(Corpus((sentence,)), cfg)


def test_control_symbols_fixed_ids():
    assert CONTROL_SYMBOLS.index("<PAD>") == PAD_ID == 0
    assert CONTROL_SYMBOLS.index("<UNK>") == UNK_ID == 1
    assert CONTROL_SYMBOLS.index(SEQUENCE_START) == START_ID == 2
    assert CONTROL_SYMBOLS.index(SEQUENCE_END) == END_ID == 3
    assert CONTROL_SYMBOLS.index(WORD_BOUNDARY) == BOUNDARY_ID == 4


def test_grammeme_symbols_are_atomic():
    assert is_grammeme_symbol("+pl")
    assert not is_grammeme_symbol("+")  # a bare plus is an ordinary character
    assert not is_grammeme_symbol("pl")


def test_tokenizers():
    assert tokenize_surface(Token("Bats")) == ["B", "a", "t", "s", WORD_BOUNDARY]
    analysis = Analysis("bat", MorphoTag(("n", "pl")))
    assert tokenize_analysis(analysis) == ["b", "a", "t", "+n", "+pl", WORD_BOUNDARY]


def test_full_sequence_example():
    ex, = sentence_examples(_sentence(), FULL)
    assert ex.source == ("B", "a", "t", "s", WORD_BOUNDARY,
                         "a", "r", "e", WORD_BOUNDARY,
                         "f", "l", "y", "i", "n", "g", WORD_BOUNDARY)
    assert ex.target == ("b", "a", "t", "+n", "+pl", WORD_BOUNDARY,
                         "b", "e", "+aux", "+prs", WORD_BOUNDARY,
                         "f", "l", "y", "+prog", "+v", WORD_BOUNDARY)


def test_full_sequence_without_gold_has_no_target():
    sent = Sentence((Token("a"), Token("b")))
    ex, = sentence_examples(sent, FULL)
    assert ex.target is None


def test_window_examples_count_and_focus():
    cfg = SnippetConfig(mode="context_window", window=1, tc_mode="both")
    examples = sentence_examples(_sentence(), cfg)
    assert len(examples) == 3
    # middle snippet sees all three words on the source side
    assert examples[1].source == ("B", "a", "t", "s", WORD_BOUNDARY,
                                  "a", "r", "e", WORD_BOUNDARY,
                                  "f", "l", "y", "i", "n", "g", WORD_BOUNDARY)
    # edge snippet is clipped
    assert examples[0].source == ("B", "a", "t", "s", WORD_BOUNDARY,
                                  "a", "r", "e", WORD_BOUNDARY)


def test_window_target_context_variants():
    sent = _sentence()
    focal_unit = ["b", "e", "+aux", "+prs", WORD_BOUNDARY]
    left_full = ["b", "a", "t", "+n", "+pl", WORD_BOUNDARY]
    right_full = ["f", "l", "y", "+prog", "+v", WORD_BOUNDARY]

    by_mode = {}
    for tc in ("none", "lemmata", "tags", "both", "surface"):
        cfg = SnippetConfig(mode="context_window", window=1, tc_mode=tc)
        by_mode[tc] = sentence_examples(sent, cfg)[1].target

    assert by_mode["none"] == tuple(focal_unit)
    assert by_mode["both"] == tuple(left_full + focal_unit + right_full)
    assert by_mode["lemmata"] == tuple(["b", "a", "t", WORD_BOUNDARY] + focal_unit
                                       + ["f", "l", "y", WORD_BOUNDARY])
    assert by_mode["tags"] == tuple(["+n", "+pl", WORD_BOUNDARY] + focal_unit
                                    + ["+prog", "+v", WORD_BOUNDARY])
    assert by_mode["surface"] == tuple(["B", "a", "t", "s", WORD_BOUNDARY] + focal_unit
                                       + ["f", "l", "y", "i", "n", "g", WORD_BOUNDARY])


def test_snippet_config_validation():
    with pytest.raises(ValueError):
        SnippetConfig(mode="bogus")
    with pytest.raises(ValueError):
        SnippetConfig(window=-1)
    with pytest.raises(ValueError):
        SnippetConfig(tc_mode="everything")
    for window in (1.5, True, "1"):
        with pytest.raises(ValueError, match="must be an integer"):
            SnippetConfig(window=window)
    assert SnippetConfig(window=np.int64(2)).window == 2


# each config with the fewest settings that let every other field take its
# boundary value: ModelConfig has no default vocabulary sizes, and
# TrainConfig's checkpoint_every must divide total_steps
RULED_CONFIGS = {SnippetConfig: {}, DecodeConfig: {},
                 ModelConfig: {"source_vocab_size": 1, "target_vocab_size": 1},
                 TrainConfig: {"total_steps": 1, "checkpoint_every": 1}}


def boundary_values(field):
    """(values at the edge of ``field``'s rule, values just outside it or
    of the wrong kind)."""
    bounds = field.metadata["rule"]
    refused = [True, False, math.nan, math.inf, -math.inf, "text", np.array([0, 1])]
    if not field.type.endswith(" | None"):
        refused.append(None)
    if "choices" in bounds:
        return list(bounds["choices"]), refused + ["", bounds["choices"][0].upper()]
    if field.type.startswith("int"):
        low = bounds["minimum"]
        return [low, np.int64(low)], refused + [low - 1, low + 0.5, float(low), str(low)]
    low = 0.0 if bounds.get("closed_low") else math.nextafter(0.0, 1.0)
    high = bounds.get("high", math.inf)
    accepted = [low, np.float64(low)] + ([math.nextafter(high, 0.0)] if high < math.inf else [])
    return accepted, refused + [math.nextafter(low, -1.0), high, str(low), 1j]


def test_every_config_field_rule_holds_at_its_boundary():
    walked, unruled = 0, []
    for config, base in RULED_CONFIGS.items():
        for field in dataclasses.fields(config):
            if "rule" not in field.metadata:
                unruled.append(field.name)
                continue
            accepted, refused = boundary_values(field)
            for value in accepted:
                assert getattr(config(**{**base, field.name: value}), field.name) == value
            for value in refused:
                with pytest.raises(ValueError) as err:
                    config(**{**base, field.name: value})
                assert str(err.value).startswith(f"{field.name} must be "), (field.name, value)
            walked += 1
    assert walked == 3 + 2 + 8 + 9
    assert unruled == ["checkpoint_dir", "retain_all"]


def test_examples_for_corpus_modes():
    corpus = make_corpus(6, seed=0)
    full = examples_for_corpus(corpus, SnippetConfig(mode="full_sequence"))
    assert len(full) == len(corpus)
    cw = examples_for_corpus(corpus, SnippetConfig(mode="context_window", window=1))
    assert len(cw) == corpus.token_count()
    assert [e.sentence_id for e in full] == list(range(len(corpus)))


def test_overlap_law_small_cases():
    # window 1, three tokens: edge tokens covered twice, middle three times
    for i, expect in ((0, 2), (1, 3), (2, 2)):
        covering = [j for j in range(3) if abs(i - j) <= 1]
        assert len(covering) == expect


def test_vocab_orders_controls_first_and_sorts_rest():
    cfg = SnippetConfig(mode="context_window", window=1, tc_mode="both")
    examples = sentence_examples(_sentence(), cfg)
    vocab = build_vocab(examples)
    assert vocab.source_symbols[:5] == CONTROL_SYMBOLS
    assert vocab.target_symbols[:5] == CONTROL_SYMBOLS
    rest_src = vocab.source_symbols[5:]
    assert list(rest_src) == sorted(rest_src)
    assert "+pl" in vocab.target_symbols
    assert "+pl" not in vocab.source_symbols


def test_vocab_min_freq_filters():
    examples = sentence_examples(_sentence(), FULL)
    vocab1 = build_vocab(examples, min_freq=1)
    vocab2 = build_vocab(examples, min_freq=2)
    assert vocab2.source_size < vocab1.source_size
    # "a" occurs twice on the source side, "B" only once
    assert "a" in vocab2.source_symbols
    assert "B" not in vocab2.source_symbols


@pytest.mark.parametrize("min_freq", [0, 1.5, True])
def test_vocab_rejects_bad_min_freq(min_freq):
    examples = sentence_examples(_sentence(), FULL)
    with pytest.raises(ValueError, match="min_freq must be an integer >= 1"):
        build_vocab(examples, min_freq=min_freq)
    with pytest.raises(ValueError, match="min_freq"):
        Vocab(CONTROL_SYMBOLS, CONTROL_SYMBOLS, min_freq)


def test_vocab_lookup_and_unk():
    vocab = Vocab(CONTROL_SYMBOLS + ("a",), CONTROL_SYMBOLS + ("b",), 1)
    assert vocab.source_id("a") == 5
    assert vocab.source_id("zzz") == UNK_ID
    assert vocab.target_symbol(5) == "b"
    assert vocab.source_symbol(UNK_ID) == UNKNOWN


def test_vocab_requires_control_prefix():
    with pytest.raises(ValueError):
        Vocab(("a",) + CONTROL_SYMBOLS, CONTROL_SYMBOLS, 1)
    with pytest.raises(ValueError):
        Vocab(CONTROL_SYMBOLS + ("a", "a"), CONTROL_SYMBOLS, 1)


def test_vocab_admits_only_target_symbols_the_tokenizers_write():
    Vocab(CONTROL_SYMBOLS, CONTROL_SYMBOLS + ("+", " ", "+pl", "+Case=Nom"), 1)
    Vocab(CONTROL_SYMBOLS + ("ab",), CONTROL_SYMBOLS, 1)  # the source side is not checked
    for symbol in ("ab", "+_", "+a;b", "+a b", UNKNOWN):
        with pytest.raises(ValueError):
            Vocab(CONTROL_SYMBOLS, CONTROL_SYMBOLS + (symbol,), 1)


def test_encode_frames_target():
    cfg = SnippetConfig(mode="context_window", window=1, tc_mode="none")
    examples = sentence_examples(_sentence(), cfg)
    vocab = build_vocab(examples)
    src, tgt = encode(examples[0], vocab)
    assert tgt[0] == START_ID and tgt[-1] == END_ID
    assert all(i != PAD_ID for i in src)
    symbols = tuple(vocab.target_symbol(i) for i in tgt[1:-1])
    assert symbols == examples[0].target


def test_encode_unknown_symbols_to_unk():
    cfg = SnippetConfig(mode="context_window", window=0, tc_mode="none")
    examples = sentence_examples(_sentence(), cfg)
    vocab = build_vocab(examples[:1])  # only knows the first word
    src, _ = encode(examples[2], vocab)
    assert UNK_ID in src


def test_format_example_round_readable():
    cfg = SnippetConfig(mode="context_window", window=1, tc_mode="none")
    ex = sentence_examples(_sentence(), cfg)[0]
    line = format_example(ex)
    src_text, tgt_text = line.split("\t")
    assert tuple(src_text.split(" ")) == ex.source
    assert tuple(tgt_text.split(" ")) == ex.target


def test_format_example_prints_a_space_symbol_so_the_line_splits_back():
    corpus = parse_corpus("New York\tNew York\tPROPN\n")
    ex, = examples_for_corpus(corpus, SnippetConfig(mode="context_window", window=0))
    assert len(ex.source) == 9 and len(ex.target) == 10
    src_text, tgt_text = format_example(ex).split("\t")
    assert src_text.split(" ") == [SPACE if s == " " else s for s in ex.source]
    assert tgt_text.split(" ") == [SPACE if s == " " else s for s in ex.target]
    assert src_text.split(" ")[3] == SPACE == "<SP>"


def test_window_examples_random_lengths_emit_one_per_token():
    rng = np.random.default_rng(5)
    for _ in range(60):
        length = int(rng.integers(1, 13))
        window = int(rng.integers(0, 4))
        tokens = tuple(Token("ab", gold=Analysis("a")) for _ in range(length))
        cfg = SnippetConfig(mode="context_window", window=window, tc_mode="both")
        examples = sentence_examples(Sentence(tokens), cfg)
        assert len(examples) == length
        for i, ex in enumerate(examples):
            lo = max(0, i - window)
            hi = min(length - 1, i + window)
            assert ex.source.count(WORD_BOUNDARY) == hi - lo + 1


def test_examples_for_corpus_golden_digest():
    # every mode's training and prediction inputs, pinned byte for byte
    corpus = make_corpus(8, seed=3)
    surface_only = Corpus(tuple(Sentence(tuple(Token(t.surface) for t in s.tokens))
                                for s in corpus))
    configs = [SnippetConfig(mode="full_sequence")]
    configs += [SnippetConfig(mode="context_window", window=w, tc_mode=tc)
                for w in (0, 1, 2) for tc in TC_MODES]
    digest = hashlib.sha256()
    count = 0
    for source in (corpus, surface_only):
        for cfg in configs:
            for e in examples_for_corpus(source, cfg):
                digest.update((format_example(e) + "\n").encode("utf-8"))
                digest.update(repr(e.sentence_id).encode("utf-8"))
                count += 1
    assert count == 916
    assert digest.hexdigest()[:16] == "27420776f5876e95"


def test_window_span_matches_covering_formula():
    assert window_span(5, 0, 1) == (0, 1)  # clipped on the left
    assert window_span(5, 4, 1) == (3, 4)  # clipped on the right
    assert window_span(5, 2, 1) == (1, 3)
    assert window_span(5, 3, 0) == (3, 3)
    assert window_span(3, 1, 7) == (0, 2)  # a window wider than the sentence
    for length in range(1, 8):
        for window in range(0, length + 2):
            for focal in range(length):
                first, last = window_span(length, focal, window)
                covered = [j for j in range(length) if abs(j - focal) <= window]
                assert list(range(first, last + 1)) == covered
