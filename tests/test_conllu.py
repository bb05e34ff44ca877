import numpy as np
import pytest

from lemtag.conllu import (Analysis, Corpus, CorpusFormatError, EMPTY_TAG,
                           MorphoTag, Sentence, Token, corpus_stats,
                           lexical_forms, normalize_tag, parse_corpus,
                           read_corpus_file, tag_to_string, write_corpus)

SAMPLE = "Bats\tbat\tN;PL\nbit\tbite\tPST;V\ncats\tcat\tN;PL\n"


def test_parse_three_token_block():
    corpus = parse_corpus(SAMPLE)
    assert len(corpus) == 1
    sent = corpus.sentences[0]
    assert sent.surfaces() == ["Bats", "bit", "cats"]
    assert sent.tokens[0].gold == Analysis("bat", MorphoTag(("N", "PL")))
    assert sent.tokens[1].gold == Analysis("bite", MorphoTag(("PST", "V")))
    assert sent.tokens[2].gold == Analysis("cat", MorphoTag(("N", "PL")))


def test_parse_empty_tag_sentinel():
    corpus = parse_corpus("cat\tcat\t_\n")
    assert corpus.sentences[0].tokens[0].gold == Analysis("cat", EMPTY_TAG)


def test_parse_space_separated_line_fails_with_line_number():
    text = SAMPLE + "\ncats cat N;PL\n"
    with pytest.raises(CorpusFormatError) as err:
        parse_corpus(text)
    assert err.value.line == 5


def test_parse_multiple_sentences_and_comments():
    text = "# header\na\tb\t_\n\n# middle\nc\td\tX\n\n"
    corpus = parse_corpus(text)
    assert [s.surfaces() for s in corpus] == [["a"], ["c"]]


def test_parse_comment_only_block_is_an_error():
    with pytest.raises(CorpusFormatError) as err:
        parse_corpus("a\tb\t_\n\n# lonely comment\n")
    assert "without tokens" in str(err.value)


def test_trailing_comment_only_block_reports_its_first_line():
    for text in (SAMPLE + "\n# one\n# two", SAMPLE + "\n# one\n# two\n"):
        with pytest.raises(CorpusFormatError, match="without tokens") as err:
            parse_corpus(text)
        assert err.value.line == 5


def test_parse_without_trailing_newline():
    two = SAMPLE + "\nowls\towl\tN;PL\n"
    assert parse_corpus(SAMPLE.rstrip("\n")) == parse_corpus(SAMPLE)
    corpus = parse_corpus(two.rstrip("\n"))
    assert corpus == parse_corpus(two)
    assert [len(s) for s in corpus] == [3, 1]


def test_parse_crlf_text_as_lf_text():
    text = "# s1\n" + SAMPLE + "\nowls\towl\tN;PL\n"
    assert parse_corpus(text.replace("\n", "\r\n")) == parse_corpus(text)
    bad = (SAMPLE + "\nowls owl N;PL\n").replace("\n", "\r\n")
    with pytest.raises(CorpusFormatError) as err:
        parse_corpus(bad)
    assert err.value.line == 5


def test_parse_extra_columns_ignored():
    corpus = parse_corpus("a\tb\tX\textra\tmore\n")
    assert corpus.sentences[0].tokens[0].gold == Analysis("b", MorphoTag(("X",)))


def test_parse_missing_columns_in_gold_mode():
    with pytest.raises(CorpusFormatError) as err:
        parse_corpus("justform\n")
    assert err.value.line == 1


def test_parse_surface_only_ignores_columns():
    corpus = parse_corpus("a\nb\tanything\n", mode="surface_only")
    toks = corpus.sentences[0].tokens
    assert [t.surface for t in toks] == ["a", "b"]
    assert all(t.gold is None for t in toks)


def test_parse_unknown_mode():
    with pytest.raises(ValueError):
        parse_corpus(SAMPLE, mode="strict")


def test_parse_empty_form_column():
    with pytest.raises(CorpusFormatError):
        parse_corpus("\tlemma\tX\n")


def test_parse_blank_form_is_an_error_at_its_line():
    # a whitespace-only line is not a sentence break, nor a token
    for text, mode in (("a\nb\n \nc\n", "surface_only"),
                       ("a\ta\t_\nb\tb\t_\n \t \t_\nc\tc\t_\n", "gold")):
        with pytest.raises(CorpusFormatError, match="blank surface form") as err:
            parse_corpus(text, mode=mode)
        assert err.value.line == 3


def test_grammeme_with_a_space_is_an_error_at_its_line():
    with pytest.raises(CorpusFormatError, match="invalid grammeme ' PL'") as err:
        parse_corpus("a\ta\tN\nb\tb\tN; PL\n")
    assert err.value.line == 2
    assert str(err.value).startswith("line 2: ")


def test_underscore_grammeme_is_an_error_at_its_line():
    """``_`` marks the empty tag, so as a grammeme it would be written as
    ``_`` and read back as no grammeme at all."""
    for tag in ("_;_", "N;_"):
        with pytest.raises(CorpusFormatError, match="invalid grammeme '_'") as err:
            parse_corpus(f"a\ta\tN\nb\tb\t{tag}\n")
        assert err.value.line == 2
    assert parse_corpus("a\ta\t_\n").sentences[0].tokens[0].gold.tag == EMPTY_TAG


def test_carriage_return_inside_a_field_is_an_error_at_its_line():
    """Only the line end's own CR is dropped.  A CR left inside a field
    would be written back as a CRLF line end and lost on reading (``N\r``
    read as ``N``), or leave a line that does not parse (a tag ``\r``)."""
    for bad, mode in (("a\ta\tN\r\r\n", "gold"), ("sleep\tsleep\t\r\r\n", "gold"),
                      ("a\tb\rc\tN\n", "gold"), ("a\tb\rc\tN\r\n", "gold"),
                      ("a\rb\tab\tN;PL\n", "gold"), ("a\ta\tN;\rPL\n", "gold"),
                      ("b\r\r\n", "surface_only")):
        with pytest.raises(CorpusFormatError, match="tab or line break|invalid grammeme") as err:
            parse_corpus("x\tx\tN\n" + bad, mode=mode)
        assert err.value.line == 2
    assert parse_corpus("a\ta\tN\r\n") == parse_corpus("a\ta\tN\n")
    for bad in (lambda: Token("a\rb"), lambda: Analysis("a\r"), lambda: MorphoTag(("\r",))):
        with pytest.raises(ValueError):
            bad()


def test_form_starting_with_a_byte_order_mark_is_an_error_at_its_line(tmp_path):
    """The reader skips one leading mark; a second one would start the
    first FORM and be lost when the corpus is written and read again."""
    path = tmp_path / "bom.tsv"
    for form in ("a", ""):
        path.write_bytes(b"\xef\xbb\xbf\xef\xbb\xbf" + form.encode() + b"\ta\tN\n")
        with pytest.raises(CorpusFormatError, match="byte-order mark") as err:
            read_corpus_file(path)
        assert err.value.line == 1
    with pytest.raises(CorpusFormatError, match="byte-order mark") as err:
        parse_corpus("x\tx\tN\n\ufeffb\tb\tV\n", mode="gold")
    assert err.value.line == 2


def test_form_starting_with_a_hash_cannot_be_written():
    # its line would read back as a comment, and the sentence lose a token
    with pytest.raises(ValueError, match="'#'"):
        Token("#x", Analysis("x"))
    assert Token("x#", Analysis("x")).surface == "x#"


def test_write_round_trips_sample():
    corpus = parse_corpus(SAMPLE)
    text = write_corpus(corpus)
    assert text == SAMPLE + "\n"
    assert parse_corpus(text) == corpus


def test_write_empty_tag_as_underscore():
    corpus = parse_corpus("cat\tcat\t_\n")
    assert "\t_" in write_corpus(corpus)


def test_write_two_sentences_single_blank_line():
    corpus = parse_corpus("a\ta\tX\n\nb\tb\tY\n")
    assert write_corpus(corpus) == "a\ta\tX\n\nb\tb\tY\n\n"


def test_write_requires_analyses():
    corpus = parse_corpus("a\n", mode="surface_only")
    with pytest.raises(ValueError):
        write_corpus(corpus)


def test_normalize_tag_sorts_and_dedupes():
    assert normalize_tag("V;PST") == MorphoTag(("PST", "V"))
    assert normalize_tag("PST;V") == MorphoTag(("PST", "V"))
    assert normalize_tag("V;V;PST") == MorphoTag(("PST", "V"))
    assert normalize_tag("_") == EMPTY_TAG


def test_normalize_tag_idempotent_on_random_tags():
    rng = np.random.default_rng(0)
    symbols = ["N", "V", "PL", "SG", "PST", "PRS", "ACC", "DAT"]
    for _ in range(100):
        k = int(rng.integers(1, 6))
        parts = [symbols[i] for i in rng.integers(0, len(symbols), k)]
        tag = normalize_tag(";".join(parts))
        again = normalize_tag(tag_to_string(tag))
        assert again == tag
        assert list(tag.grammemes) == sorted(set(tag.grammemes))


def test_normalize_tag_rejects_empty_grammeme():
    with pytest.raises(CorpusFormatError):
        normalize_tag("N;;PL")
    with pytest.raises(CorpusFormatError):
        normalize_tag("")


def test_tag_to_string_inverse():
    assert tag_to_string(MorphoTag(("N", "PL"))) == "N;PL"
    assert tag_to_string(EMPTY_TAG) == "_"


def test_morphotag_validates_order_and_content():
    with pytest.raises(ValueError):
        MorphoTag(("V", "PST"))  # unsorted
    with pytest.raises(ValueError):
        MorphoTag(("N", "N"))
    with pytest.raises(ValueError):
        MorphoTag(("has space",))


def test_token_and_sentence_invariants():
    for blank in ("", " ", "\u3000"):
        with pytest.raises(ValueError):
            Token(blank)
    with pytest.raises(ValueError):
        Token("a\tb")
    with pytest.raises(ValueError):
        Sentence(())
    with pytest.raises(ValueError):
        Analysis("bad\tlemma")
    Analysis("")  # placeholder lemmata are allowed


def test_corpus_stats_counts_and_ratio():
    corpus = parse_corpus(SAMPLE)
    stats = corpus_stats(corpus)
    assert stats.sentence_count == 1
    assert stats.token_count == 3
    assert stats.grammeme_form_ratio == pytest.approx(2.0)
    assert stats.oov_rate is None


def test_corpus_stats_self_reference_oov_zero():
    corpus = parse_corpus(SAMPLE)
    assert corpus_stats(corpus, corpus).oov_rate == 0.0


def test_corpus_stats_oov_on_lexical_forms_not_surfaces():
    reference = parse_corpus("cut\tcut\tV\n")
    evaluation = parse_corpus("cut\tcut\tN\n")
    stats = corpus_stats(evaluation, reference)
    assert stats.oov_rate == 1.0


def test_corpus_stats_requires_gold():
    corpus = parse_corpus("a\n", mode="surface_only")
    with pytest.raises(ValueError):
        corpus_stats(corpus)


def test_empty_corpus_stats_are_zero():
    stats = corpus_stats(Corpus(()))
    assert stats.sentence_count == 0
    assert stats.token_count == 0
    assert stats.grammeme_form_ratio == 0.0


def test_lexical_forms():
    corpus = parse_corpus(SAMPLE)
    assert lexical_forms(corpus) == {
        Analysis("bat", MorphoTag(("N", "PL"))),
        Analysis("bite", MorphoTag(("PST", "V"))),
        Analysis("cat", MorphoTag(("N", "PL"))),
    }


def test_read_corpus_file(tmp_path):
    path = tmp_path / "corpus.tsv"
    path.write_text(SAMPLE, encoding="utf-8")
    corpus = read_corpus_file(path)
    assert corpus == parse_corpus(SAMPLE)


def test_read_corpus_file_bad_utf8(tmp_path):
    path = tmp_path / "bad.tsv"
    path.write_bytes(b"a\tb\tX\n\xff\xfe\n")
    with pytest.raises(CorpusFormatError) as err:
        read_corpus_file(path)
    assert err.value.line == 2


def test_unicode_surfaces_round_trip():
    text = "κόσμος\tκόσμος\tN;SG\nvögel\tvogel\tN;PL\n"
    corpus = parse_corpus(text)
    assert write_corpus(corpus) == text + "\n"


def test_read_corpus_file_accepts_crlf_and_bom(tmp_path):
    two_sentences = "# s1\n" + SAMPLE + "\nowls\towl\tN;PL\n"
    bad = SAMPLE + "\nowls owl N;PL\n"

    def both_copies(text, name):
        lf, crlf = tmp_path / f"{name}_lf.tsv", tmp_path / f"{name}_crlf.tsv"
        lf.write_bytes(text.encode("utf-8"))
        crlf.write_bytes(b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode("utf-8"))
        return lf, crlf

    for text, name in ((two_sentences, "two"), (SAMPLE, "one")):
        lf, crlf = both_copies(text, name)
        for mode in ("gold", "surface_only"):
            assert read_corpus_file(crlf, mode) == read_corpus_file(lf, mode)
    lf, crlf = both_copies(bad, "bad")
    lines = []
    for path in (lf, crlf):
        with pytest.raises(CorpusFormatError) as err:
            read_corpus_file(path)
        lines.append(err.value.line)
    assert lines == [5, 5]
