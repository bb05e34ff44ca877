"""Source/target symbol sequence construction and vocabularies.

A sequence is a list of atomic symbols: single characters, ``+``-prefixed
grammeme labels, or multi-character control symbols.  Words on the source
side and analyses on the target side are each terminated by the word
boundary symbol.  This module owns the analysis format both ways
(``tokenize_analysis``, ``parse_analysis_units``) and the window layout
both ways (``examples_for_corpus`` writes windows, ``build_ballots`` reads
their decodes back into per-token ballots).  Two operating modes exist:
one sequence pair per sentence (full_sequence, the one window around
token 0 as wide as the sentence), or one pair per focal token covering
``W`` words of context to each side (context_window); both are written
and read through the same window spans.  It also holds the config rules:
a config field declares its rule with ``rule``, and ``check_fields`` checks it.
"""

from __future__ import annotations

import math
import numbers
from collections import Counter
from dataclasses import MISSING, dataclass, field, fields

from .conllu import EMPTY_TAG, Analysis, Corpus, MorphoTag, Token

# Control symbols, always present in both vocabularies at these indices.
PADDING = "<PAD>"
UNKNOWN = "<UNK>"
SEQUENCE_START = "<S>"
SEQUENCE_END = "</S>"
WORD_BOUNDARY = "<WB>"

CONTROL_SYMBOLS = (PADDING, UNKNOWN, SEQUENCE_START, SEQUENCE_END, WORD_BOUNDARY)
PAD_ID, UNK_ID, START_ID, END_ID, BOUNDARY_ID = range(5)

GRAMMEME_PREFIX = "+"
SPACE = "<SP>"  # how format_example prints the symbol " "

TC_MODES = ("none", "lemmata", "tags", "both", "surface")
MODES = ("full_sequence", "context_window")


def check_integer(name: str, value, minimum: int):
    """Reject a config value that is not an integer (bools included) or is
    below ``minimum``."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}")


def check_real(name: str, value, high: float = math.inf, closed_low: bool = False):
    """Reject a config value that is not a real number (bools included) or
    lies outside (0, high), [0, high) when ``closed_low``; NaN lies outside
    every range.  The message names ``name`` and the range."""
    if (not isinstance(value, numbers.Real) or isinstance(value, bool)
            or not (0 <= value if closed_low else 0 < value) or not value < high):
        bounds = (f"in {'[' if closed_low else '('}0, {high:g})" if high < math.inf
                  else f"{'non-negative' if closed_low else 'positive'} and finite")
        raise ValueError(f"{name} must be {bounds}")


def check_choice(name: str, value, choices: tuple):
    if not (isinstance(value, str) and value in choices):  # an array compares elementwise
        raise ValueError(f"{name} must be one of {choices}")


_CHECKS = {"int": check_integer, "float": check_real, "str": check_choice}


def rule(default=MISSING, **bounds):
    """A dataclass field whose value ``check_fields`` checks against ``bounds``."""
    return field(default=default, metadata={"rule": bounds})


def check_fields(config):
    """Check each ``rule`` field of a config by its type; ``T | None`` admits None."""
    for f in fields(config):
        value, bounds = getattr(config, f.name), f.metadata.get("rule")
        if bounds is not None and not (value is None and f.type.endswith(" | None")):
            _CHECKS[f.type.removesuffix(" | None")](f.name, value, **bounds)


def is_grammeme_symbol(symbol: str) -> bool:
    # single-character "+" is an ordinary character, not a grammeme label
    return len(symbol) > 1 and symbol.startswith(GRAMMEME_PREFIX)


@dataclass(frozen=True)
class SnippetConfig:
    """How to slice sentences into training sequences.

    ``window`` and ``tc_mode`` only apply in context_window mode: the
    window is measured in words, and tc_mode picks what context tokens
    contribute to the target side (their full analyses, lemmata only, tag
    symbols only, raw surface characters, or nothing).
    """

    mode: str = rule("context_window", choices=MODES)
    window: int = rule(1, minimum=0)
    tc_mode: str = rule("both", choices=TC_MODES)
    __post_init__ = check_fields

    @property
    def target_window(self) -> int:
        """Context words to each side that a window's target renders, one
        unit per word: none under tc_mode "none", else ``window``."""
        return 0 if self.tc_mode == "none" else self.window


@dataclass(frozen=True)
class SnippetExample:
    """One source/target sequence pair of sentence ``sentence_id``."""

    source: tuple[str, ...]
    target: tuple[str, ...] | None = None
    sentence_id: int = 0


def tokenize_surface(token: Token) -> list[str]:
    """Surface form as one symbol per character, boundary-terminated."""
    return list(token.surface) + [WORD_BOUNDARY]


def tokenize_analysis(analysis: Analysis) -> list[str]:
    """Lemma characters, then one atomic symbol per grammeme, then boundary."""
    symbols = list(analysis.lemma)
    symbols.extend(GRAMMEME_PREFIX + g for g in analysis.tag.grammemes)
    symbols.append(WORD_BOUNDARY)
    return symbols


def parse_analysis_units(symbols) -> tuple[list[Analysis], list[bool]]:
    """Split a decoded symbol stream on word boundaries into analyses.

    Within a unit, non-grammeme symbols form the lemma and "+"-prefixed
    symbols form the tag (normalized order).  A trailing unit without a
    boundary is kept.  Returns (units, malformed flags); a unit is
    malformed when it has no lemma character, a lemma character follows a
    grammeme, or it holds a multi-character non-grammeme symbol (``<UNK>``).
    """
    units: list[Analysis] = []
    malformed: list[bool] = []
    chunk: list[str] = []
    symbols = list(symbols)
    if symbols and symbols[-1] != WORD_BOUNDARY:
        symbols.append(WORD_BOUNDARY)  # the trailing unit ends like any other
    for sym in symbols:
        if sym == WORD_BOUNDARY:
            analysis, bad = _parse_unit(chunk)
            units.append(analysis)
            malformed.append(bad)
            chunk = []
        else:
            chunk.append(sym)
    return units, malformed


def _parse_unit(chunk):
    lemma_parts = []
    grammemes = []
    bad = False
    for sym in chunk:
        if is_grammeme_symbol(sym):
            grammemes.append(sym[len(GRAMMEME_PREFIX):])
        else:
            if grammemes or len(sym) > 1:
                bad = True  # a lemma character after a grammeme, or <UNK>
            lemma_parts.append(sym)
    tag = MorphoTag(tuple(sorted(set(grammemes)))) if grammemes else EMPTY_TAG
    return Analysis("".join(lemma_parts), tag), bad or not lemma_parts


def _target_unit(token: Token, tc_mode: str) -> list[str]:
    """Target-side rendering of a token, boundary-terminated: its whole
    analysis ("both"), the lemma ("lemmata") or the tag ("tags") part of
    it, or its surface characters ("surface")."""
    if tc_mode == "surface":
        return tokenize_surface(token)
    unit = tokenize_analysis(token.gold)
    if tc_mode == "lemmata":
        return unit[:len(token.gold.lemma)] + unit[-1:]
    if tc_mode == "tags":
        return unit[len(token.gold.lemma):]
    return unit


def window_span(length: int, focal: int, window: int) -> tuple[int, int]:
    """First and last token of the window around ``focal``, clipped at the
    sentence edges: the tokens j with |j - focal| <= window."""
    return max(0, focal - window), min(length - 1, focal + window)


def examples_for_corpus(corpus: Corpus, cfg: SnippetConfig) -> list[SnippetExample]:
    """All examples of a corpus in sentence order: in full_sequence mode one
    per sentence, covering it whole with every token rendered by its
    analysis; in context_window mode one per focal token, its source and
    target windows (``window`` and ``target_window``) clipped at the
    sentence edges.  A source renders the surfaces of its window, a target
    the focal token's analysis and every other token of its window by
    ``tc_mode``; targets are present only when the whole sentence has gold
    analyses."""
    full = cfg.mode == "full_sequence"
    tc_mode = "both" if full else cfg.tc_mode
    examples = []
    for sid, sentence in enumerate(corpus):
        tokens, length = sentence.tokens, len(sentence)
        # a full sequence is the one window around token 0 as wide as the sentence
        window, target_window = (length, length) if full else (cfg.window, cfg.target_window)
        have_gold = all(tok.gold is not None for tok in tokens)
        for focal in range(1 if full else length):
            first, last = window_span(length, focal, window)
            source = [sym for tok in tokens[first:last + 1] for sym in tokenize_surface(tok)]
            target = None
            if have_gold:
                first, last = window_span(length, focal, target_window)
                target = []
                for j in range(first, last + 1):
                    target.extend(_target_unit(tokens[j], "both" if j == focal else tc_mode))
                target = tuple(target)
            examples.append(SnippetExample(tuple(source), target, sid))
    return examples


def build_ballots(sentence_length: int, cfg: SnippetConfig, decoded_units):
    """Collect per-token candidate lists from every decoded window.

    ``decoded_units`` holds, per window in ``examples_for_corpus`` order,
    its list of decoded units.  In context_window mode window j is the
    focal token j's target window (``target_window`` words to each side);
    in full_sequence mode the one window is token 0's as wide as the
    sentence, so token k gets unit k and units past the last token are
    dropped.  Unit k of window j belongs to token k plus the first token of
    j's window; a window too short to supply the unit contributes None at
    that slot.  Each ballot entry is (unit-or-None, focal distance, window
    index), in window order.
    """
    window = sentence_length if cfg.mode == "full_sequence" else cfg.target_window
    ballots = [[] for _ in range(sentence_length)]
    for j, units in enumerate(decoded_units):
        first, last = window_span(sentence_length, j, window)
        for k, i in enumerate(range(first, last + 1)):
            ballots[i].append((units[k] if k < len(units) else None, abs(i - j), j))
    return ballots


class Vocab:
    """Bidirectional symbol<->id maps for the source and target sides.

    Control symbols occupy the first five indices on both sides; symbols
    seen fewer than ``min_freq`` times map to the unknown id.  A symbol is
    a non-empty string without a tab or a line break; a target symbol after
    the control symbols is one character or a valid grammeme symbol.
    """

    def __init__(self, source_symbols, target_symbols, min_freq=1):
        self.source_symbols = tuple(source_symbols)
        self.target_symbols = tuple(target_symbols)
        self.min_freq = min_freq
        check_integer("min_freq", min_freq, 1)
        for s in self.source_symbols + self.target_symbols:
            if not isinstance(s, str) or not s or "\t" in s or "\n" in s or "\r" in s:
                raise ValueError(f"invalid symbol {s!r}")
        if self.source_symbols[:5] != CONTROL_SYMBOLS or self.target_symbols[:5] != CONTROL_SYMBOLS:
            raise ValueError("vocab must start with the control symbols")
        for s in self.target_symbols[len(CONTROL_SYMBOLS):]:
            if len(s) > 1:
                if not is_grammeme_symbol(s):
                    raise ValueError(f"invalid target symbol {s!r}")
                MorphoTag((s[len(GRAMMEME_PREFIX):],))  # raises for an invalid grammeme
        self._source_index = {s: i for i, s in enumerate(self.source_symbols)}
        self._target_index = {s: i for i, s in enumerate(self.target_symbols)}
        if len(self._source_index) != len(self.source_symbols):
            raise ValueError("duplicate source symbol")
        if len(self._target_index) != len(self.target_symbols):
            raise ValueError("duplicate target symbol")

    @property
    def source_size(self):
        return len(self.source_symbols)

    @property
    def target_size(self):
        return len(self.target_symbols)

    def source_id(self, symbol: str) -> int:
        return self._source_index.get(symbol, UNK_ID)

    def target_id(self, symbol: str) -> int:
        return self._target_index.get(symbol, UNK_ID)

    def source_symbol(self, idx: int) -> str:
        return self.source_symbols[idx]

    def target_symbol(self, idx: int) -> str:
        return self.target_symbols[idx]

    def __eq__(self, other):
        return (
            isinstance(other, Vocab)
            and self.source_symbols == other.source_symbols
            and self.target_symbols == other.target_symbols
            and self.min_freq == other.min_freq
        )

    def __repr__(self):
        return f"Vocab(source={self.source_size}, target={self.target_size})"


def build_vocab(examples, min_freq: int = 1) -> Vocab:
    """Count symbols over the examples and keep those at or above min_freq."""
    src_counts: Counter = Counter()
    tgt_counts: Counter = Counter()
    for ex in examples:
        src_counts.update(ex.source)
        if ex.target is not None:
            tgt_counts.update(ex.target)

    def kept(counts):
        return sorted(
            s for s, c in counts.items() if c >= min_freq and s not in CONTROL_SYMBOLS
        )

    return Vocab(
        CONTROL_SYMBOLS + tuple(kept(src_counts)),
        CONTROL_SYMBOLS + tuple(kept(tgt_counts)),
        min_freq,
    )


def encode(example: SnippetExample, vocab: Vocab):
    """Map an example to id sequences; targets are framed by start/end ids."""
    source_ids = [vocab.source_id(s) for s in example.source]
    target_ids = None
    if example.target is not None:
        target_ids = [START_ID]
        target_ids.extend(vocab.target_id(s) for s in example.target)
        target_ids.append(END_ID)
    return source_ids, target_ids


def format_example(example: SnippetExample) -> str:
    """One-line rendering: source symbols, tab, target symbols, each side
    space-separated with the symbol " " printed as ``SPACE``."""
    target = example.target if example.target is not None else ()
    return "\t".join(" ".join(SPACE if s == " " else s for s in side)
                     for side in (example.source, target))
