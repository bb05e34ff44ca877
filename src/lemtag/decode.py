"""Inference: greedy and beam search, parsing decoded symbol streams back
into analyses, and majority voting over overlapping context windows.

Per-token flags record anything suspicious on the way from symbols to
analyses: "truncated" (decode hit the length limit), "malformed" (a unit
with a grammeme before any lemma character, or an empty unit), "short"
(decode produced fewer units than the window needs, fallback used) and
"mismatch" (full-sequence unit count differs from the token count).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from .conllu import EMPTY_TAG, Analysis, Corpus, MorphoTag, Sentence, Token
from .model import (Model, _log_softmax, decode_step, encode_source,
                    forward_loss, init_decoder_state, make_batch)
from .snippets import (END_ID, PAD_ID, START_ID, WORD_BOUNDARY,
                       GRAMMEME_PREFIX, SnippetConfig, Vocab,
                       build_full_sequence_example, build_window_examples,
                       encode, is_grammeme_symbol)

FLAG_TRUNCATED = "truncated"
FLAG_MALFORMED = "malformed"
FLAG_SHORT = "short"
FLAG_MISMATCH = "mismatch"


@dataclass(frozen=True)
class DecodeConfig:
    beam_size: int = 5
    max_length: int | None = None

    def __post_init__(self):
        if self.beam_size < 1:
            raise ValueError("beam_size must be >= 1")
        if self.max_length is not None and self.max_length < 1:
            raise ValueError("max_length must be >= 1")

    def length_limit(self, source_length: int) -> int:
        if self.max_length is not None:
            return self.max_length
        return 2 * source_length + 16


def _check_vocab(model: Model, vocab: Vocab):
    if (model.config.source_vocab_size != vocab.source_size
            or model.config.target_vocab_size != vocab.target_size):
        raise ValueError("model and vocabulary sizes disagree")


def _search(model: Model, source_ids, cfg: DecodeConfig, beam_size: int):
    """Beam search with the greedy rollout decoded alongside as a candidate.

    The source is encoded once; each step decodes the alive hypotheses and
    the greedy one as rows of one ``decode_step`` call (``beam_size`` 0
    leaves the greedy row alone).  The alive list is kept sorted by ids, so
    one stable argsort over the flat (rows x V) scores breaks ties toward
    the lexicographically smallest ids.  Returns (ids, finished flag).
    """
    batch = make_batch([(list(source_ids), None)])
    enc, finals = encode_source(model, batch)
    state = init_decoder_state(model, finals)
    alive = [((), 0.0, 0)] if beam_size else []  # (ids, score, state row)
    finished, best = [], -np.inf  # (score, ids) of ended hypotheses; best score
    greedy, greedy_score, greedy_row, greedy_live = [], 0.0, 0, True
    for _ in range(cfg.length_limit(len(source_ids))):
        if alive or greedy_row:  # a lone greedy row needs no gather
            rows = [row for _, _, row in alive] + [greedy_row] * greedy_live
            state = [(h[rows], c[rows]) for h, c in state]
        prev = [ids[-1] if ids else START_ID for ids, _, _ in alive]
        prev += [greedy[-1] if greedy else START_ID] * greedy_live
        logits, state = decode_step(model, np.array(prev), state,
                                    enc[0], batch.src_mask[0])
        if beam_size:
            logp = _log_softmax(logits)
            logp[:, PAD_ID] = logp[:, START_ID] = -np.inf
        if greedy_live:
            row = logits[-1]
            row[PAD_ID] = row[START_ID] = -np.inf
            nxt = int(np.argmax(row))
            if beam_size:
                greedy_score += logp[-1, nxt]
            greedy_live = nxt != END_ID
            greedy += [nxt] * greedy_live
            greedy_row = len(alive)  # greedy is the last row
        if alive:
            totals = (np.array([score for _, score, _ in alive])[:, None]
                      + logp[:len(alive)]).ravel()
            expanded = []
            for k in np.argsort(-totals, kind="stable"):
                if len(expanded) == beam_size or not np.isfinite(totals[k]):
                    break
                bi, sym = divmod(int(k), logp.shape[1])
                if sym == END_ID:
                    finished.append((totals[k], alive[bi][0]))
                    best = max(best, totals[k])
                else:
                    expanded.append((alive[bi][0] + (sym,), totals[k], bi))
            alive = sorted(expanded)
            if alive and best >= max(score for _, score, _ in alive):
                alive = []  # scores only decrease as hypotheses grow
        if greedy_live and best > greedy_score:
            greedy_live, greedy_score = False, -np.inf  # it can no longer win
        if not alive and not greedy_live:
            break

    candidates = finished + [(greedy_score, tuple(greedy))] * (not greedy_live)
    if candidates:
        return list(min(candidates, key=lambda c: (-c[0], c[1]))[1]), True
    if alive:
        return list(min(alive, key=lambda a: (-a[1], a[0]))[0]), False
    return greedy, False


def greedy_ids(model: Model, source_ids, cfg: DecodeConfig):
    """Argmax rollout. Returns (ids without start/end, finished flag)."""
    return _search(model, source_ids, cfg, 0)


def score_sequence(model: Model, source_ids, target_ids) -> float:
    """Model log-probability (nats) of the framed target given the source."""
    framed = [START_ID] + list(target_ids) + [END_ID]
    batch = make_batch([(list(source_ids), framed)])
    n_predicted = len(framed) - 1
    return -forward_loss(model, batch) * n_predicted


def beam_ids(model: Model, source_ids, cfg: DecodeConfig):
    """Beam search over summed log-probabilities.

    Finished hypotheses retire at the end symbol; the best finished one is
    returned with score ties broken toward the lexicographically smallest
    id sequence.  The greedy rollout is decoded alongside as a candidate,
    scored by its summed log-probabilities, so the result never scores
    below it.  Returns (ids, finished flag).
    """
    if cfg.beam_size == 1:
        return greedy_ids(model, source_ids, cfg)
    return _search(model, source_ids, cfg, cfg.beam_size)


def greedy_decode(model: Model, source_ids, vocab: Vocab,
                  cfg: DecodeConfig | None = None) -> list[str]:
    """Greedy rollout as target symbols, start/end stripped."""
    _check_vocab(model, vocab)
    ids, _ = greedy_ids(model, source_ids, cfg or DecodeConfig())
    return [vocab.target_symbol(i) for i in ids]


def beam_decode(model: Model, source_ids, vocab: Vocab,
                cfg: DecodeConfig | None = None) -> list[str]:
    """Beam-search output as target symbols, start/end stripped."""
    _check_vocab(model, vocab)
    ids, _ = beam_ids(model, source_ids, cfg or DecodeConfig())
    return [vocab.target_symbol(i) for i in ids]


# ---------------------------------------------------------------------------
# symbols -> analyses


def parse_analysis_units(symbols) -> tuple[list[Analysis], list[bool]]:
    """Split a decoded symbol stream on word boundaries into analyses.

    Within a unit, the leading run of non-grammeme symbols forms the lemma
    and "+"-prefixed symbols form the tag (normalized order).  A trailing
    unit without a boundary is kept.  Returns (units, malformed flags); a
    unit is malformed when a grammeme precedes any lemma character, a lemma
    character follows a grammeme, or the unit is empty.
    """
    units: list[Analysis] = []
    malformed: list[bool] = []
    chunk: list[str] = []
    for sym in symbols:
        if sym == WORD_BOUNDARY:
            analysis, bad = _parse_unit(chunk)
            units.append(analysis)
            malformed.append(bad)
            chunk = []
        else:
            chunk.append(sym)
    if chunk:
        analysis, bad = _parse_unit(chunk)
        units.append(analysis)
        malformed.append(bad)
    return units, malformed


def _parse_unit(chunk):
    lemma_parts = []
    grammemes = []
    bad = not chunk
    for sym in chunk:
        if is_grammeme_symbol(sym):
            grammemes.append(sym[len(GRAMMEME_PREFIX):])
        else:
            if grammemes:
                bad = True  # lemma character after a grammeme
            lemma_parts.append(sym)
    if grammemes and not lemma_parts:
        bad = True
    tag = MorphoTag(tuple(sorted(set(grammemes)))) if grammemes else EMPTY_TAG
    return Analysis("".join(lemma_parts), tag), bad


def align_full_sequence(units: list[Analysis], sentence: Sentence):
    """Map decoded units onto tokens positionally.

    Equal counts align one-to-one.  Otherwise the longest positional prefix
    is kept, missing positions fall back to (surface, empty tag), extra
    units are dropped, and the mismatch flag is returned True.
    """
    length = len(sentence)
    if len(units) == length:
        return list(units), False
    aligned = []
    for i, token in enumerate(sentence.tokens):
        if i < len(units):
            aligned.append(units[i])
        else:
            aligned.append(Analysis(token.surface, EMPTY_TAG))
    return aligned, True


# ---------------------------------------------------------------------------
# voting


def build_ballots(sentence_length: int, window: int, decoded_units):
    """Collect per-token candidate lists from every covering snippet.

    ``decoded_units`` holds, per snippet (one per focal token), its list of
    decoded units.  Token i is covered by snippet j when |i - j| <= window; the
    unit ordinal inside snippet j is i - max(0, j - window).  A snippet too
    short to supply the unit contributes None at that slot.  Each ballot
    entry is (unit-or-None, focal distance, snippet index).
    """
    ballots = []
    for i in range(sentence_length):
        entries = []
        for j in range(max(0, i - window), min(sentence_length - 1, i + window) + 1):
            ordinal = i - max(0, j - window)
            units = decoded_units[j]
            got = units[ordinal] if ordinal < len(units) else None
            entries.append((got, abs(i - j), j))
        ballots.append(entries)
    return ballots


def majority_vote(ballot):
    """Most frequent analysis; ties to the smaller focal distance, then to
    the lower snippet index."""
    if not ballot:
        raise ValueError("empty ballot")
    counts = Counter(analysis for analysis, _, _ in ballot)
    ranked = []
    for analysis, count in counts.items():
        dist = min(d for a, d, _ in ballot if a == analysis)
        idx = min(s for a, _, s in ballot if a == analysis)
        ranked.append((-count, dist, idx, analysis))
    ranked.sort(key=lambda r: r[:3])
    return ranked[0][3]


# ---------------------------------------------------------------------------
# sentence / corpus prediction


def _decode_example(model, vocab, example, cfg):
    source_ids, _ = encode(example, vocab)
    ids, finished = beam_ids(model, source_ids, cfg)
    symbols = [vocab.target_symbol(i) for i in ids]
    units, malformed = parse_analysis_units(symbols)
    return units, malformed, finished


def predict_sentence(model: Model, sentence: Sentence, vocab: Vocab,
                     snippet_cfg: SnippetConfig, decode_cfg: DecodeConfig,
                     voting: bool = False):
    """Predict one analysis per token.

    Returns (analyses, flags), both of sentence length; a flag string is
    "" for a clean token, else comma-joined flag names.
    """
    _check_vocab(model, vocab)
    if voting and snippet_cfg.mode != "context_window":
        raise ValueError("voting requires context_window mode")
    length = len(sentence)
    flags = [set() for _ in range(length)]

    if snippet_cfg.mode == "full_sequence":
        example = build_full_sequence_example(sentence)
        units, malformed, finished = _decode_example(model, vocab, example, decode_cfg)
        analyses, mismatch = align_full_sequence(units, sentence)
        for i in range(length):
            if not finished:
                flags[i].add(FLAG_TRUNCATED)
            if mismatch:
                flags[i].add(FLAG_MISMATCH)
            if i < len(malformed) and malformed[i]:
                flags[i].add(FLAG_MALFORMED)
        return analyses, _render_flags(flags)

    examples = build_window_examples(sentence, snippet_cfg)
    decoded = [_decode_example(model, vocab, e, decode_cfg) for e in examples]
    ballots = build_ballots(length, snippet_cfg.window,
                            [list(zip(units, malformed)) for units, malformed, _ in decoded])
    analyses: list[Analysis] = []
    for i, ballot in enumerate(ballots):
        if not voting:
            ballot = [entry for entry in ballot if entry[1] == 0]  # the focal window
        filled = []
        for unit, dist, j in ballot:
            if unit is None:
                flags[i].add(FLAG_SHORT)
                unit = (Analysis(sentence.tokens[i].surface, EMPTY_TAG), False)
            got, bad = unit
            if bad:
                flags[i].add(FLAG_MALFORMED)
            if not decoded[j][2]:
                flags[i].add(FLAG_TRUNCATED)
            filled.append((got, dist, j))
        analyses.append(majority_vote(filled))
    return analyses, _render_flags(flags)


def _render_flags(flag_sets):
    return [",".join(sorted(s)) for s in flag_sets]


def predict_corpus(model: Model, corpus: Corpus, vocab: Vocab,
                   snippet_cfg: SnippetConfig, decode_cfg: DecodeConfig,
                   voting: bool = False):
    """Predict every sentence; returns (corpus with analyses, per-sentence flags)."""
    sentences = []
    all_flags = []
    for sentence in corpus:
        analyses, flags = predict_sentence(
            model, sentence, vocab, snippet_cfg, decode_cfg, voting)
        tokens = [Token(tok.surface, gold=analysis)
                  for tok, analysis in zip(sentence.tokens, analyses)]
        sentences.append(Sentence(tuple(tokens)))
        all_flags.append(flags)
    return Corpus(tuple(sentences), source_path=corpus.source_path), all_flags
