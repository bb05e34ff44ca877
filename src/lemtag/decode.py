"""Inference: greedy and beam search, parsing decoded symbol streams back
into analyses, and majority voting over overlapping context windows.

Per-token flags record anything suspicious on the way from symbols to
analyses: "truncated" (decode hit the length limit), "malformed" (a unit
with a grammeme before any lemma character, or an empty unit), "short"
(decode produced fewer units than the window needs, fallback used) and
"mismatch" (full-sequence unit count differs from the token count).
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .conllu import EMPTY_TAG, Analysis, Corpus, MorphoTag, Sentence, Token
from .model import (Model, _log_softmax, decode_step, encode_source,
                    forward_loss, init_decoder_state, make_batch)
from .snippets import (END_ID, PAD_ID, START_ID, WORD_BOUNDARY,
                       GRAMMEME_PREFIX, SnippetConfig, Vocab, check_integer,
                       encode, examples_for_corpus, is_grammeme_symbol,
                       window_span)

FLAG_TRUNCATED = "truncated"
FLAG_MALFORMED = "malformed"
FLAG_SHORT = "short"
FLAG_MISMATCH = "mismatch"


# examples per batched search in predict_corpus; outputs do not depend on
# it, it only trades padding against batch width
CHUNK_SOURCES = 32


@dataclass(frozen=True)
class DecodeConfig:
    beam_size: int = 5
    max_length: int | None = None

    def __post_init__(self):
        check_integer("beam_size", self.beam_size, 1)
        if self.max_length is not None:
            check_integer("max_length", self.max_length, 1)

    def length_limit(self, source_length: int) -> int:
        if self.max_length is not None:
            return self.max_length
        return 2 * source_length + 16


def _check_vocab(model: Model, vocab: Vocab):
    if (model.config.source_vocab_size != vocab.source_size
            or model.config.target_vocab_size != vocab.target_size):
        raise ValueError("model and vocabulary sizes disagree")


class _Source:
    """One source's search: alive beam hypotheses (kept sorted by ids),
    ended ones, and the greedy rollout decoded alongside as a candidate."""

    def __init__(self, index, limit, beam_size):
        self.index, self.limit = index, limit
        self.alive = [((), 0.0, 0)] if beam_size else []  # (ids, score, row in block)
        self.finished, self.best = [], -np.inf  # (score, ids) of ended hypotheses; best score
        self.greedy, self.greedy_score, self.greedy_live = [], 0.0, True

    def result(self):
        candidates = list(self.finished)
        if not self.greedy_live:
            candidates.append((self.greedy_score, tuple(self.greedy)))
        if candidates:
            return list(min(candidates, key=lambda c: (-c[0], c[1]))[1]), True
        if self.alive:
            return list(min(self.alive, key=lambda a: (-a[1], a[0]))[0]), False
        return self.greedy, False


def _search(model: Model, sources, cfg: DecodeConfig, beam_size: int):
    """Beam search over many sources, each with its greedy rollout decoded
    alongside as a candidate (``beam_size`` 0 leaves the greedy rollouts
    alone).  Returns one (ids, finished flag) per source.

    The sources are encoded once, as one padded batch.  Each live source
    owns a block of ``beam_size + 1`` consecutive decoder rows, its beam
    rows and then its greedy row, and each step decodes every block in one
    ``decode_step`` call.  Unused slots carry the start id and a copy of
    the greedy row's state; their outputs are ignored.  Within a block the
    best ``2 * beam_size`` of the flat (hypothesis x V) scores are selected
    with a partition at the cut-off and ordered as a stable sort would order
    them, so ties go to the lexicographically smallest ids.  A source that
    stops leaves the batch by row gather.
    """
    batch = make_batch([(list(s), None) for s in sources])
    enc, finals = encode_source(model, batch)
    mask = batch.src_mask
    width = beam_size + 1
    live = [_Source(i, cfg.length_limit(len(s)), beam_size) for i, s in enumerate(sources)]
    results = [None] * len(sources)
    state = init_decoder_state(model, finals)
    rows = np.repeat(np.arange(len(sources)), width)  # state row of each decoder row
    prev = [START_ID] * len(rows)
    for step in itertools.count(1):
        state = [(h[rows], c[rows]) for h, c in state]
        logits, state = decode_step(model, np.array(prev), state, enc, mask)
        vocab_size = logits.shape[1]
        greedy_logits = logits[beam_size::width].copy()
        greedy_logits[:, [PAD_ID, START_ID]] = -np.inf
        greedy_next = greedy_logits.argmax(axis=1)
        if beam_size:
            logp = _log_softmax(logits).reshape(len(live), width, vocab_size)
            logp[:, :, [PAD_ID, START_ID]] = -np.inf
            greedy_logp = logp[np.arange(len(live)), beam_size, greedy_next].tolist()
            scores = np.full((len(live), beam_size), -np.inf)
            for b, src in enumerate(live):
                scores[b, :len(src.alive)] = [score for _, score, _ in src.alive]
            totals = (scores[:, :, None] + logp[:, :beam_size]).reshape(len(live), -1)
            # each alive hypothesis ends at most once, so 2 * beam_size
            # entries always fill the beam or reach the non-finite tail.
            # Every entry up to the row's cut-off is kept, ties at it
            # included, then ordered as a stable argsort of -totals would.
            neg, depth = -totals, 2 * beam_size
            cut = np.partition(neg, depth - 1, axis=1)[:, depth - 1:depth]
            cand_row, cand_col = np.nonzero(~(neg > cut))  # a NaN cut-off keeps the whole row
            order = np.lexsort((cand_col, neg[cand_row, cand_col], cand_row))
            first = np.searchsorted(cand_row, np.arange(len(live)))  # each row's first candidate
            pick = order[first[:, None] + np.arange(depth)]
            top = cand_col[pick].tolist()
            top_totals = totals[cand_row[pick], cand_col[pick]].tolist()
        greedy_next = greedy_next.tolist()
        rows, prev, kept = [], [], []
        for b, src in enumerate(live):
            if src.greedy_live:
                nxt = greedy_next[b]
                if beam_size:
                    src.greedy_score += greedy_logp[b]
                src.greedy_live = nxt != END_ID
                src.greedy += [nxt] * src.greedy_live
            if src.alive:
                expanded = []
                for k, total in zip(top[b], top_totals[b]):
                    if len(expanded) == beam_size or not math.isfinite(total):
                        break
                    bi, sym = divmod(k, vocab_size)
                    if sym == END_ID:
                        src.finished.append((total, src.alive[bi][0]))
                        src.best = max(src.best, total)
                    else:
                        expanded.append((src.alive[bi][0] + (sym,), total, bi))
                src.alive = sorted(expanded)
                if src.alive and src.best >= max(score for _, score, _ in src.alive):
                    src.alive = []  # scores only decrease as hypotheses grow
            if src.greedy_live and src.best > src.greedy_score:
                src.greedy_live, src.greedy_score = False, -np.inf  # it can no longer win
            if step == src.limit or not (src.alive or src.greedy_live):
                results[src.index] = src.result()
                continue
            base, unused = b * width, beam_size - len(src.alive)
            kept.append(b)
            rows += [base + bi for _, _, bi in src.alive] + [base + beam_size] * (unused + 1)
            prev += [ids[-1] for ids, _, _ in src.alive] + [START_ID] * unused
            prev.append(src.greedy[-1] if src.greedy_live else START_ID)
        if not kept:
            return results
        if len(kept) < len(live):
            live = [live[b] for b in kept]
            enc, mask = enc[kept], mask[kept]


def greedy_ids(model: Model, source_ids, cfg: DecodeConfig):
    """Argmax rollout. Returns (ids without start/end, finished flag)."""
    return _search(model, [source_ids], cfg, 0)[0]


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
    return _search(model, [source_ids], cfg, cfg.beam_size)[0]


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
    fallbacks = [Analysis(token.surface, EMPTY_TAG) for token in sentence.tokens[len(units):]]
    return list(units[:len(sentence)]) + fallbacks, len(units) != len(sentence)


# ---------------------------------------------------------------------------
# voting


def build_ballots(sentence_length: int, window: int, decoded_units):
    """Collect per-token candidate lists from every covering snippet.

    ``decoded_units`` holds, per snippet (one per focal token), its list of
    decoded units.  Token i is covered by snippet j when |i - j| <= window; the
    unit ordinal inside snippet j is i minus the first token of j's window
    (``window_span``).  A snippet too short to supply the unit contributes
    None at that slot.  Each ballot entry is (unit-or-None, focal distance,
    snippet index).
    """
    ballots = []
    for i in range(sentence_length):
        entries = []
        first, last = window_span(sentence_length, i, window)
        for j in range(first, last + 1):
            ordinal = i - window_span(sentence_length, j, window)[0]
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


def predict_sentence(model: Model, sentence: Sentence, vocab: Vocab,
                     snippet_cfg: SnippetConfig, decode_cfg: DecodeConfig,
                     voting: bool = False):
    """Predict one analysis per token.

    Returns (analyses, flags), both of sentence length; a flag string is
    "" for a clean token, else comma-joined flag names.
    """
    predicted, flags = predict_corpus(model, Corpus((sentence,)), vocab, snippet_cfg,
                                      decode_cfg, voting)
    return [token.gold for token in predicted.sentences[0].tokens], flags[0]


def _sentence_analyses(sentence, decoded, snippet_cfg, voting):
    """Analyses and flags of one sentence from its examples' decodes,
    each (units, malformed flags, finished flag)."""
    length = len(sentence)
    if snippet_cfg.mode == "full_sequence":
        # one ballot entry per token: its aligned unit or the surface fallback
        (units, malformed, _), = decoded
        aligned, mismatch = align_full_sequence(units, sentence)
        ballots = [[(unit, 0, 0)] for unit in zip(aligned, malformed + [False] * length)]
    else:
        mismatch = False
        ballots = build_ballots(length, snippet_cfg.window,
                                [list(zip(units, malformed)) for units, malformed, _ in decoded])
    flags = [{FLAG_MISMATCH} if mismatch else set() for _ in range(length)]
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
    return analyses, [",".join(sorted(s)) for s in flags]


def predict_corpus(model: Model, corpus: Corpus, vocab: Vocab,
                   snippet_cfg: SnippetConfig, decode_cfg: DecodeConfig,
                   voting: bool = False):
    """Predict every sentence; returns (corpus with analyses, per-sentence flags).

    Every example of the corpus (one per token in context-window mode,
    one per sentence in full-sequence mode) is decoded by one batched
    search per chunk of ``CHUNK_SOURCES`` examples of similar length.
    """
    _check_vocab(model, vocab)
    if voting and snippet_cfg.mode != "context_window":
        raise ValueError("voting requires context_window mode")
    sources = [encode(e, vocab)[0] for e in examples_for_corpus(corpus, snippet_cfg)]
    beam_size = decode_cfg.beam_size if decode_cfg.beam_size > 1 else 0
    order = sorted(range(len(sources)), key=lambda i: (len(sources[i]), i))
    decoded = [None] * len(sources)
    for start in range(0, len(order), CHUNK_SOURCES):
        chunk = order[start:start + CHUNK_SOURCES]
        searched = _search(model, [sources[i] for i in chunk], decode_cfg, beam_size)
        for i, (ids, finished) in zip(chunk, searched):
            units, malformed = parse_analysis_units([vocab.target_symbol(k) for k in ids])
            decoded[i] = (units, malformed, finished)
    sentences, all_flags, start = [], [], 0
    for sentence in corpus:
        count = 1 if snippet_cfg.mode == "full_sequence" else len(sentence)
        analyses, flags = _sentence_analyses(sentence, decoded[start:start + count],
                                             snippet_cfg, voting)
        start += count
        tokens = [Token(tok.surface, gold=analysis)
                  for tok, analysis in zip(sentence.tokens, analyses)]
        sentences.append(Sentence(tuple(tokens)))
        all_flags.append(flags)
    return Corpus(tuple(sentences)), all_flags
