"""Inference: greedy and beam search, and majority voting over
overlapping context windows; ``snippets``, the owner of the analysis
symbol format and of the window layout, reads decoded symbol streams back
into analyses and gathers each token's units into its ballot.

Per-token flags record anything suspicious on the way from symbols to
analyses: "truncated" (decode hit the length limit), "malformed" (a unit
with no lemma character, a lemma character after a grammeme, or <UNK>),
"short" (a context window decoded fewer units than it needs, fallback
used) and "mismatch" (full-sequence unit count differs from the token count;
a token left without a unit takes the same fallback, without "short").
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace

import numpy as np

from .conllu import EMPTY_TAG, Analysis, Corpus, Sentence, Token
from .model import (Model, _softmax, check_vocab, decode_step, encode_source,
                    forward_loss, init_decoder_state, make_batch)
from .snippets import (END_ID, PAD_ID, START_ID, SnippetConfig, Vocab,
                       build_ballots, check_integer, encode,
                       examples_for_corpus, parse_analysis_units)

FLAG_TRUNCATED = "truncated"
FLAG_MALFORMED = "malformed"
FLAG_SHORT = "short"
FLAG_MISMATCH = "mismatch"


# examples per batched search in predict_corpus, trading padding against
# batch width; the padded batch can move float32 logits in the last bits,
# though no decode in the tests or on the benchmark corpora has changed
CHUNK_SOURCES = 32


@dataclass(frozen=True)
class DecodeConfig:
    """``beam_size`` 1 is the greedy rollout alone; a wider beam keeps the
    greedy rollout as a candidate.  See ``length_limit`` for ``max_length``."""

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


def _search(model: Model, sources, cfg: DecodeConfig):
    """Beam search of width ``cfg.beam_size`` over many sources, each with
    its greedy rollout decoded alongside as a candidate (width 1 leaves the
    greedy rollouts alone).  Returns one (ids, finished flag) per source.

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
    beam_size = cfg.beam_size if cfg.beam_size > 1 else 0  # beam rows per source
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
            logp = _softmax(logits)[1].reshape(len(live), width, vocab_size)
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
    return _search(model, [source_ids], replace(cfg, beam_size=1))[0]


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
    return _search(model, [source_ids], cfg)[0]


def beam_decode(model: Model, source_ids, vocab: Vocab,
                cfg: DecodeConfig | None = None) -> list[str]:
    """Beam-search output as target symbols, start/end stripped."""
    check_vocab(model.config, vocab)
    ids, _ = beam_ids(model, source_ids, cfg or DecodeConfig())
    return [vocab.target_symbol(i) for i in ids]


def greedy_decode(model: Model, source_ids, vocab: Vocab,
                  cfg: DecodeConfig | None = None) -> list[str]:
    """Greedy rollout as target symbols: ``beam_decode`` at width 1."""
    return beam_decode(model, source_ids, vocab, replace(cfg or DecodeConfig(), beam_size=1))


# ---------------------------------------------------------------------------
# voting


def majority_vote(ballot):
    """Most frequent analysis; ties to the smaller focal distance, then to
    the lower snippet index."""
    if not ballot:
        raise ValueError("empty ballot")
    ranks = {}  # analysis -> (-count, nearest distance, lowest index)
    for analysis, dist, idx in ballot:
        count, nearest, lowest = ranks.get(analysis, (0, dist, idx))
        ranks[analysis] = (count - 1, min(nearest, dist), min(lowest, idx))
    return min(ranks, key=ranks.get)  # the first-seen analysis wins a full tie


# ---------------------------------------------------------------------------
# sentence / corpus prediction


def check_voting(snippet_cfg: SnippetConfig):
    """Raise ValueError unless a vote would count analyses alone: in
    context_window mode, a target renders its context words as full
    analyses (tc_mode "both") or not at all."""
    if snippet_cfg.mode != "context_window" or (snippet_cfg.target_window
                                                and snippet_cfg.tc_mode != "both"):
        raise ValueError("voting requires context_window mode, with tc_mode 'both' or "
                         "'none' unless the window is 0")


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
    each (units, malformed flags, finished flag).  Without voting each
    token takes its nearest window: the focal one in context_window mode,
    the only one in full_sequence mode."""
    length = len(sentence)
    # a full sequence flags every token when its unit count is off, not each missing unit
    mismatch = snippet_cfg.mode == "full_sequence" and len(decoded[0][0]) != length
    ballots = build_ballots(length, snippet_cfg,
                            [list(zip(units, malformed)) for units, malformed, _ in decoded])
    flags = [{FLAG_MISMATCH} if mismatch else set() for _ in range(length)]
    analyses: list[Analysis] = []
    for i, ballot in enumerate(ballots):
        if not voting:
            ballot = [min(ballot, key=lambda entry: entry[1])]
        filled = []
        for unit, dist, j in ballot:
            if unit is None:
                if not mismatch:
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

    Every example of ``examples_for_corpus`` is decoded by one batched
    search per chunk of ``CHUNK_SOURCES`` examples of similar length, and
    the decodes are grouped back by their example's sentence.
    """
    check_vocab(model.config, vocab)
    if voting:
        check_voting(snippet_cfg)
    examples = examples_for_corpus(corpus, snippet_cfg)
    sources = [encode(e, vocab)[0] for e in examples]
    order = sorted(range(len(sources)), key=lambda i: (len(sources[i]), i))
    decoded = [None] * len(sources)
    for start in range(0, len(order), CHUNK_SOURCES):
        chunk = order[start:start + CHUNK_SOURCES]
        searched = _search(model, [sources[i] for i in chunk], decode_cfg)
        for i, (ids, finished) in zip(chunk, searched):
            units, malformed = parse_analysis_units([vocab.target_symbol(k) for k in ids])
            decoded[i] = (units, malformed, finished)
    sentences, all_flags = [], []
    by_sentence = itertools.groupby(zip(examples, decoded), key=lambda pair: pair[0].sentence_id)
    for sentence, (_, group) in zip(corpus, by_sentence):
        analyses, flags = _sentence_analyses(sentence, [d for _, d in group], snippet_cfg, voting)
        tokens = [Token(tok.surface, gold=analysis)
                  for tok, analysis in zip(sentence.tokens, analyses)]
        sentences.append(Sentence(tuple(tokens)))
        all_flags.append(flags)
    return Corpus(tuple(sentences)), all_flags
