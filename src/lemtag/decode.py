"""Inference: greedy and beam search, and majority voting over
overlapping context windows; ``snippets``, the owner of the analysis
symbol format and of the window layout, reads decoded symbol streams back
into analyses and gathers each token's units into its ballot.

Beam search decodes one row per alive hypothesis.  The greedy rollout,
kept as a candidate, reads the row of the hypothesis it equals and takes
a row of its own only after it leaves the beam.

Per-token flags record anything suspicious on the way from symbols to
analyses: "truncated" (decode hit the length limit), "malformed" (a unit
with no lemma character, a lemma character after a grammeme, or <UNK>),
"short" (a context window decoded fewer units than it needs, fallback
used) and "mismatch" (full-sequence unit count differs from the token count;
a token left without a unit takes the same fallback, without "short").
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, replace

import numpy as np

from .conllu import EMPTY_TAG, Analysis, Corpus, Sentence, Token
from .model import (Model, _softmax, check_vocab, decode_step, encode_source,
                    forward_loss, init_decoder_state, make_batch)
from .snippets import (END_ID, PAD_ID, START_ID, SnippetConfig, Vocab,
                       build_ballots, check_fields, encode,
                       examples_for_corpus, parse_analysis_units, rule)

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

    beam_size: int = rule(5, minimum=1)
    max_length: int | None = rule(None, minimum=1)
    __post_init__ = check_fields

    def length_limit(self, source_length: int) -> int:
        if self.max_length is not None:
            return self.max_length
        return 2 * source_length + 16


def _search(model: Model, sources, cfg: DecodeConfig):
    """Beam search of width ``cfg.beam_size`` over many sources, each with
    its greedy rollout kept as a candidate (width 1 is the greedy rollouts
    alone).  Returns one (ids, finished flag) per source.

    The sources are encoded once, as one padded batch, and each step
    decodes every live source in one ``decode_step`` call, as a block of
    rows per source; the block is as wide as the most rows any live source
    needs.  A source's alive hypotheses take the first rows of its block in
    slot order (sorted by ids).  Its greedy rollout reads its logits from
    the row of the alive hypothesis it equals: the same previous id, the
    same state row and the same product give the same logits.  Once its
    next symbol leaves the beam, or the beam is pruned, it takes its own
    row after the alive ones; it can never rejoin, since every hypothesis
    descends from an alive one.  So step 1 is one row per source.  Unused
    rows carry the start id and a copy of slot 0's state; their outputs
    are never read.

    Each source's state is held in arrays over (live sources, slots):
    alive scores (-inf in an empty slot) and ids, the best finished score,
    and the greedy rollout's ids, length, score, live flag and slot (-1
    for its own row).  Within a block the best ``2 * beam_size`` of the
    flat (slot x V) scores are selected with a partition at the cut-off
    and ordered as a stable sort would order them, so ties go to the
    lexicographically smallest ids.  Python touches only the sources that
    finish a hypothesis or stop; a source that stops leaves the batch by
    row gather.
    """
    beam_size = cfg.beam_size if cfg.beam_size > 1 else 0  # slots per source
    batch = make_batch([(list(s), None) for s in sources])
    enc, finals = encode_source(model, batch)
    mask = batch.src_mask
    state = init_decoder_state(model, finals)
    index = np.arange(len(sources))  # each live source's place in sources
    limit = np.array([cfg.length_limit(len(s)) for s in sources])
    results, finished = [None] * len(sources), [[] for _ in sources]  # (score, ids) ended
    scores = np.zeros((len(sources), min(beam_size, 1)))  # the empty hypothesis, or none
    ids = np.zeros(scores.shape + (0,), dtype=np.int64)
    n_alive = np.full(len(sources), scores.shape[1])
    best = np.full(len(sources), -np.inf)
    greedy = np.zeros((len(sources), 0), dtype=np.int64)  # grown per step: no cost for the limit
    greedy_len = np.zeros(len(sources), dtype=np.int64)
    greedy_score = np.zeros(len(sources))
    greedy_live = np.ones(len(sources), dtype=bool)
    greedy_slot = np.full(len(sources), 0 if beam_size else -1)
    greedy_col = np.zeros(len(sources), dtype=np.int64)  # the greedy rollout's row in its block
    prev, width = np.full(len(sources), START_ID), 1
    for step in itertools.count(1):
        logits, state = decode_step(model, prev.ravel(), state, enc, mask)
        live = np.arange(len(index))
        greedy_logits = logits[live * width + greedy_col]
        greedy_logits[:, [PAD_ID, START_ID]] = -np.inf
        greedy_next = greedy_logits.argmax(axis=1)
        if beam_size:
            vocab_size = logits.shape[1]
            logp = _softmax(logits)[1].reshape(len(live), width, vocab_size)
            logp[:, :, [PAD_ID, START_ID]] = -np.inf
            greedy_score += np.where(greedy_live, logp[live, greedy_col, greedy_next], 0.0)
            totals = (scores[:, :, None] + logp[:, :scores.shape[1]]).reshape(len(live), -1)
            # each alive hypothesis ends at most once, so 2 * beam_size
            # entries always fill the beam or reach the non-finite tail.
            # Every entry up to the row's cut-off is kept, ties at it
            # included, then ordered as a stable argsort of -totals would
            # (the candidates come in row-major order, and lexsort is stable)
            n_cols = totals.shape[1]
            neg, depth = -totals, min(2 * beam_size, n_cols)
            cut = np.partition(neg, depth - 1, axis=1)[:, depth - 1:depth]
            cand = np.flatnonzero(~(neg > cut))  # a NaN cut-off keeps the whole row
            cand_row = cand // n_cols
            order = np.lexsort((neg.ravel()[cand], cand_row))
            pick = cand[order[np.searchsorted(cand_row, live)[:, None] + np.arange(depth)]]
            top, top_totals = pick % n_cols, totals.ravel()[pick]
            # walk each row up to its first non-finite total, until beam_size
            # hypotheses are alive; an end symbol retires its hypothesis
            taken = np.isfinite(top_totals)
            grows = taken & (top % vocab_size != END_ID)
            taken &= np.cumsum(grows, axis=1) - grows < beam_size
            grows &= taken
            for b, k in zip(*np.nonzero(taken & ~grows)):
                total, b_index = top_totals[b, k], index[b]
                finished[b_index].append((total, tuple(ids[b, top[b, k] // vocab_size].tolist())))
                best[b] = max(best[b], total)
            # the alive hypotheses are sorted by ids, so their children are
            # sorted by (parent slot, symbol): by flat index
            children = np.sort(np.where(grows, top, n_cols), axis=1)
            children = children[:, :max(1, grows.sum(axis=1).max())]
            alive = children < n_cols
            scores = np.where(alive, totals[live[:, None], np.minimum(children, n_cols - 1)],
                              -np.inf)
            alive &= (best < scores.max(axis=1))[:, None]  # scores only decrease as hypotheses grow
            scores[~alive] = -np.inf
            n_alive = alive.sum(axis=1)
            # an unused slot decodes the start id from slot 0's state
            children[~alive] = START_ID
            parent, sym = np.divmod(children, vocab_size)
            ids = np.concatenate((ids[live[:, None], parent], sym[:, :, None]), axis=2)
        greedy_live &= greedy_next != END_ID
        greedy = np.concatenate((greedy, greedy_next[:, None]), axis=1)
        greedy_len += greedy_live
        if beam_size:
            lost = greedy_live & (best > greedy_score)  # it can no longer win
            greedy_live &= ~lost
            greedy_score[lost] = -np.inf
            same = children == (greedy_slot * vocab_size + greedy_next)[:, None]
            greedy_slot = np.where(greedy_live & same.any(axis=1), same.argmax(axis=1), -1)
        stop = (step == limit) | ~(greedy_live | (n_alive > 0))
        for b in np.flatnonzero(stop):
            candidates = finished[index[b]]
            if not greedy_live[b]:
                candidates.append((greedy_score[b], tuple(greedy[b, :greedy_len[b]].tolist())))
            if candidates:
                results[index[b]] = list(min(candidates, key=lambda c: (-c[0], c[1]))[1]), True
            elif n_alive[b]:
                hypotheses = zip(scores[b, :n_alive[b]], ids[b, :n_alive[b]].tolist())
                results[index[b]] = min(hypotheses, key=lambda h: (-h[0], h[1]))[1], False
            else:
                results[index[b]] = greedy[b, :greedy_len[b]].tolist(), False
        if stop.all():
            return results
        kept = live
        if stop.any():
            kept = np.flatnonzero(~stop)
            index, limit, enc, mask = index[kept], limit[kept], enc[kept], mask[kept]
            greedy, greedy_len, greedy_live, greedy_next, greedy_col, n_alive = (
                greedy[kept], greedy_len[kept], greedy_live[kept], greedy_next[kept],
                greedy_col[kept], n_alive[kept])
            if beam_size:
                best, greedy_score, greedy_slot = best[kept], greedy_score[kept], greedy_slot[kept]
                scores, ids, parent, sym = scores[kept], ids[kept], parent[kept], sym[kept]
        if beam_size:
            # the next block: the alive rows in slot order, then the greedy
            # rollout's own row if it needs one
            own = greedy_live & (greedy_slot < 0)
            block, slots = (n_alive + own).max(), max(1, n_alive.max())
            scores, ids = scores[:, :slots], ids[:, :slots]
            cols = np.zeros((len(index), block), dtype=np.int64)
            prev = np.full((len(index), block), START_ID)
            cols[:, :slots], prev[:, :slots] = parent[:, :slots], sym[:, :slots]
            mine = np.flatnonzero(own)
            cols[mine, n_alive[mine]] = greedy_col[mine]
            prev[mine, n_alive[mine]] = greedy_next[mine]
            greedy_col = np.where(own, n_alive, np.maximum(greedy_slot, 0))
            rows, width = (kept[:, None] * width + cols).ravel(), block
            state = [(h[rows], c[rows]) for h, c in state]
        else:
            prev = greedy_next
            if len(kept) < len(live):
                state = [(h[kept], c[kept]) for h, c in state]


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
    id sequence.  The greedy rollout is kept as a candidate, scored by its
    summed log-probabilities, so the result never scores below it.
    Returns (ids, finished flag).
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
