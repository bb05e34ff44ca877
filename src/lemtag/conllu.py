"""Tab-separated annotated-corpus reading, writing and statistics.

The format is a minimal three-column cousin of the usual treebank column
files: one token per line as FORM<TAB>LEMMA<TAB>TAG, sentences separated
by blank lines, ``#`` starting a comment line.  TAG is a ``;``-separated
grammeme list, ``_`` when the token carries no features.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterator


class CorpusFormatError(ValueError):
    """Malformed corpus input; carries a 1-based line number when known."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


@dataclass(frozen=True)
class MorphoTag:
    """Sorted unique grammeme symbols; ``_`` marks the empty tag, so it is none."""

    grammemes: tuple[str, ...] = ()

    def __post_init__(self):
        for g in self.grammemes:
            if not g or g == "_" or ";" in g or " " in g or "\t" in g or "\n" in g or "\r" in g:
                raise ValueError(f"invalid grammeme {g!r}")
        if list(self.grammemes) != sorted(set(self.grammemes)):
            raise ValueError(
                f"grammemes must be unique and sorted: {self.grammemes!r}"
            )

    def __len__(self):
        return len(self.grammemes)


EMPTY_TAG = MorphoTag()


@dataclass(frozen=True)
class Analysis:
    """A lexical form: lemma string plus morpho-tag."""

    lemma: str
    tag: MorphoTag = EMPTY_TAG

    def __post_init__(self):
        if "\t" in self.lemma or "\n" in self.lemma or "\r" in self.lemma:
            raise ValueError(f"lemma contains a tab or line break: {self.lemma!r}")


@dataclass(frozen=True)
class Token:
    surface: str
    gold: Analysis | None = None

    def __post_init__(self):
        if not self.surface.strip():
            raise ValueError(f"blank surface form {self.surface!r}")
        # a written line starting so would read back as a comment or lose the mark
        if self.surface.startswith(("#", "\ufeff")):
            raise ValueError(f"surface starts with '#' or a byte-order mark: {self.surface!r}")
        if "\t" in self.surface or "\n" in self.surface or "\r" in self.surface:
            raise ValueError(f"surface contains a tab or line break: {self.surface!r}")


@dataclass(frozen=True)
class Sentence:
    tokens: tuple[Token, ...]

    def __post_init__(self):
        if not self.tokens:
            raise ValueError("empty sentence")

    def __len__(self):
        return len(self.tokens)

    def surfaces(self):
        return [t.surface for t in self.tokens]


@dataclass(frozen=True)
class Corpus:
    sentences: tuple[Sentence, ...]

    def __len__(self):
        return len(self.sentences)

    def __iter__(self) -> Iterator[Sentence]:
        return iter(self.sentences)

    def token_count(self):
        return sum(len(s) for s in self.sentences)


@dataclass(frozen=True)
class CorpusStats:
    sentence_count: int
    token_count: int
    grammeme_form_ratio: float
    oov_rate: float | None = None


def normalize_tag(raw: str) -> MorphoTag:
    """Turn a ``;``-separated grammeme string into a normalized MorphoTag.

    ``_`` denotes the empty tag.  Duplicates are dropped and the result is
    sorted so that equal feature sets always compare equal.
    """
    if raw == "_":
        return EMPTY_TAG
    parts = raw.split(";")
    if any(p == "" for p in parts):
        raise CorpusFormatError(f"empty grammeme in tag {raw!r}")
    return MorphoTag(tuple(sorted(set(parts))))


def tag_to_string(tag: MorphoTag) -> str:
    return ";".join(tag.grammemes) if tag.grammemes else "_"


def parse_corpus(text: str, mode: str = "gold") -> Corpus:
    """Parse corpus text into a Corpus.  Lines end at LF; one CR before
    an LF (a CRLF line end) is dropped.

    In ``gold`` mode every token line needs FORM, LEMMA and TAG columns and
    tags are normalized; in ``surface_only`` mode anything past FORM is
    ignored.  Raises CorpusFormatError with a line number on bad input.
    """
    if mode not in ("gold", "surface_only"):
        raise ValueError(f"unknown parse mode {mode!r}")
    sentences = []
    tokens: list[Token] = []
    block_start = None
    # the blank line after the input ends the last block like any other
    for lineno, line in enumerate(itertools.chain(text.split("\n"), [""]), start=1):
        line = line.removesuffix("\r")
        if line == "":
            if block_start is not None:
                if not tokens:
                    raise CorpusFormatError("sentence block without tokens", block_start)
                sentences.append(Sentence(tuple(tokens)))
                tokens, block_start = [], None
            continue
        if block_start is None:
            block_start = lineno
        if line.startswith("#"):
            continue
        cols = line.split("\t")
        if mode == "gold" and len(cols) < 3:
            raise CorpusFormatError(
                f"expected at least 3 tab-separated columns, got {len(cols)}",
                lineno,
            )
        try:
            gold = Analysis(cols[1], normalize_tag(cols[2])) if mode == "gold" else None
            tokens.append(Token(cols[0], gold))
        except ValueError as err:
            raise CorpusFormatError(str(err), lineno) from None
    return Corpus(tuple(sentences))


def write_corpus(corpus: Corpus) -> str:
    """Serialize a gold corpus; inverse of parse_corpus on normalized input."""
    out = []
    for sent in corpus:
        for tok in sent.tokens:
            if tok.gold is None:
                raise ValueError(f"token {tok.surface!r} has no analysis")
            out.append(f"{tok.surface}\t{tok.gold.lemma}\t{tag_to_string(tok.gold.tag)}")
        out.append("")
    return "\n".join(out) + "\n" if out else ""


def read_text_file(path) -> str:
    """A UTF-8 file's text with any leading byte-order mark skipped; bytes
    that are not UTF-8 raise CorpusFormatError with their line."""
    with open(path, "rb") as f:
        raw = f.read()
    try:
        return raw.decode("utf-8-sig")
    except UnicodeDecodeError as err:
        line = raw[: err.start].count(b"\n") + 1
        raise CorpusFormatError("input is not valid UTF-8", line) from None


def read_corpus_file(path, mode: str = "gold") -> Corpus:
    """Read (``read_text_file``) and parse a corpus file; CRLF line ends
    are accepted."""
    return parse_corpus(read_text_file(path), mode)


def lexical_forms(corpus: Corpus) -> set[Analysis]:
    """The set of gold analyses, each a (lemma, tag) pair, attested in the corpus."""
    return {tok.gold for sent in corpus for tok in sent.tokens if tok.gold is not None}


def corpus_stats(corpus: Corpus, reference: Corpus | None = None) -> CorpusStats:
    """Sentence/token counts, mean grammemes per token, optional OOV rate.

    A token is out-of-vocabulary when its exact gold (lemma, tag) pair never
    occurs as a gold lexical form in ``reference``; surface overlap does not
    count.
    """
    golds = [tok.gold for sent in corpus for tok in sent.tokens]
    if any(g is None for g in golds):
        raise ValueError("corpus_stats requires gold analyses")
    n_tokens = len(golds)
    ratio = sum(len(g.tag) for g in golds) / n_tokens if n_tokens else 0.0
    rate = None
    if reference is not None:
        seen = lexical_forms(reference)
        oov = sum(g not in seen for g in golds)
        rate = oov / n_tokens if n_tokens else 0.0
    return CorpusStats(len(corpus.sentences), n_tokens, ratio, rate)
