from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from lemtag import decode as decode_mod
from lemtag import snippets as snippets_mod
from lemtag.conllu import EMPTY_TAG, Analysis, Corpus, MorphoTag, Sentence, Token
from lemtag.decode import (DecodeConfig, beam_decode, beam_ids, build_ballots,
                           greedy_decode, greedy_ids, majority_vote,
                           parse_analysis_units, predict_corpus, predict_sentence,
                           score_sequence)
from lemtag.model import (ModelConfig, decode_step, encode_source,
                          init_decoder_state, init_model, make_batch)
from lemtag.snippets import (END_ID, PAD_ID, START_ID, TC_MODES, WORD_BOUNDARY,
                             SnippetConfig, build_vocab, encode, examples_for_corpus)
from toycorpus import make_corpus


def setup_model(seed=0, hidden=6, n_sentences=6):
    corpus = make_corpus(n_sentences, seed=seed)
    snip = SnippetConfig(mode="context_window", window=1, tc_mode="both")
    vocab = build_vocab(examples_for_corpus(corpus, snip), min_freq=1)
    cfg = ModelConfig(source_vocab_size=vocab.source_size,
                      target_vocab_size=vocab.target_size,
                      embedding_size=5, hidden_units=hidden, layers=1,
                      dropout_p=0.0, rng_seed=seed)
    return init_model(cfg), vocab, corpus, snip


def zeroed(model):
    for p in model.params.values():
        p[...] = 0.0
    return model


def vocab_letter(vocab):
    return next(s for s in vocab.target_symbols[5:] if len(s) == 1)


def vocab_grammeme(vocab):
    return next(s for s in vocab.target_symbols if s.startswith("+"))


def analysis(lemma, *grammemes):
    return Analysis(lemma, MorphoTag(tuple(sorted(grammemes))) if grammemes else EMPTY_TAG)


def test_decode_config_validation():
    with pytest.raises(ValueError):
        DecodeConfig(beam_size=0)
    with pytest.raises(ValueError):
        DecodeConfig(max_length=0)
    for sizes in ({"beam_size": 2.5}, {"beam_size": True}, {"max_length": 2.5}):
        with pytest.raises(ValueError, match="must be an integer"):
            DecodeConfig(**sizes)
    assert DecodeConfig().length_limit(10) == 36
    assert DecodeConfig(max_length=7).length_limit(10) == 7


def test_parse_two_clean_units():
    symbols = ["b", "a", "t", "+N", "+PL", WORD_BOUNDARY,
               "b", "i", "t", "e", "+PST", "+V", WORD_BOUNDARY]
    units, bad = parse_analysis_units(symbols)
    assert units == [analysis("bat", "N", "PL"), analysis("bite", "PST", "V")]
    assert bad == [False, False]


def test_parse_empty_stream():
    assert parse_analysis_units([]) == ([], [])


def test_parse_grammemes_without_lemma_is_malformed():
    units, bad = parse_analysis_units(["+N", WORD_BOUNDARY])
    assert units == [analysis("", "N")]
    assert bad == [True]


def test_parse_trailing_unit_without_boundary():
    units, bad = parse_analysis_units(["a", "b"])
    assert units == [analysis("ab")]
    assert bad == [False]


def test_parse_empty_unit_is_malformed():
    units, bad = parse_analysis_units([WORD_BOUNDARY])
    assert units == [analysis("")]
    assert bad == [True]


def test_parse_unknown_symbol_in_lemma_is_malformed():
    units, bad = parse_analysis_units(["b", "<UNK>", "t", "+N", WORD_BOUNDARY,
                                       "a", "+N", WORD_BOUNDARY])
    assert units == [analysis("b<UNK>t", "N"), analysis("a", "N")]
    assert bad == [True, False]


def test_parse_lemma_character_after_grammeme():
    units, bad = parse_analysis_units(["a", "+N", "b", WORD_BOUNDARY])
    assert units == [analysis("ab", "N")]
    assert bad == [True]


def test_parse_normalizes_grammemes():
    units, bad = parse_analysis_units(["x", "+Z", "+A", "+Z", WORD_BOUNDARY])
    assert units == [analysis("x", "A", "Z")]
    assert bad == [False]


def test_vote_unanimous():
    a = analysis("cat", "N")
    assert majority_vote([(a, 1, 0), (a, 0, 1), (a, 1, 2)]) == a


def test_vote_majority_beats_distance():
    a, b = analysis("cat", "N"), analysis("cut", "V")
    assert majority_vote([(a, 1, 0), (b, 0, 1), (a, 1, 2)]) == a


def test_vote_count_tie_prefers_focal():
    a, b = analysis("cat", "N"), analysis("cut", "V")
    assert majority_vote([(a, 1, 0), (b, 0, 1)]) == b


def test_vote_full_tie_prefers_lower_snippet_index():
    a, b = analysis("cat", "N"), analysis("cut", "V")
    assert majority_vote([(a, 1, 1), (b, 1, 0)]) == b


def test_vote_count_tie_takes_lowest_index_of_all_entries():
    # token 2 of 5, window 2: A and B each get two votes at nearest distance
    # 1; A's entries have indices 3 and 0, B's 1 and 4, so A wins on its
    # lowest index, where the nearest single entry (B, 1, 1) would pick B
    a, b, c = analysis("cat", "N"), analysis("cut", "V"), analysis("cot")
    per_snippet = [a, b, c, a, b]
    ballot = build_ballots(5, SnippetConfig(window=2), [[got] * 5 for got in per_snippet])[2]
    assert sorted((d, j) for _, d, j in ballot) == [(0, 2), (1, 1), (1, 3), (2, 0), (2, 4)]
    assert majority_vote(ballot) == a


def test_vote_is_order_invariant():
    a, b, c = analysis("cat", "N"), analysis("cut", "V"), analysis("cot")
    ballot = [(a, 1, 0), (b, 0, 1), (a, 1, 2), (c, 2, 3), (b, 2, 4)]
    winner = majority_vote(ballot)
    for _ in range(10):
        np.random.default_rng(_).shuffle(ballot)
        assert majority_vote(ballot) == winner


def test_vote_rejects_empty_ballot():
    with pytest.raises(ValueError):
        majority_vote([])


def test_ballots_structure_window_one():
    a = [analysis(f"a{i}") for i in range(2)]
    b = [analysis(f"b{i}") for i in range(3)]
    c = [analysis(f"c{i}") for i in range(2)]
    ballots = build_ballots(3, SnippetConfig(window=1), [a, b, c])
    assert ballots[0] == [(a[0], 0, 0), (b[0], 1, 1)]
    assert ballots[1] == [(a[1], 1, 0), (b[1], 0, 1), (c[0], 1, 2)]
    assert ballots[2] == [(b[2], 1, 1), (c[1], 0, 2)]


def test_ballots_short_snippet_contributes_none():
    units = [[analysis("a0")], [analysis("b0")], [analysis("c0")]]
    ballots = build_ballots(3, SnippetConfig(window=1), units)
    # token 1 is the second unit of snippets 0 and 1 (both too short) and
    # the first unit of snippet 2
    assert ballots[1] == [(None, 1, 0), (None, 0, 1), (analysis("c0"), 1, 2)]
    # a full sequence is one window around token 0 as wide as the sentence:
    # token k takes unit k, a missing unit is None and extra units are dropped
    full = SnippetConfig(mode="full_sequence")
    assert build_ballots(3, full, [units[0]]) == [[(analysis("a0"), 0, 0)],
                                                  [(None, 1, 0)], [(None, 2, 0)]]
    four = [analysis(f"u{k}") for k in range(4)]
    assert build_ballots(3, full, [four]) == [[(four[k], k, 0)] for k in range(3)]


def test_ballots_are_built_where_windows_are_laid_out():
    # snippets writes the window layout (examples_for_corpus) and reads it back
    assert decode_mod.build_ballots is snippets_mod.build_ballots


def test_ballots_take_each_window_span_once(monkeypatch):
    span, calls = snippets_mod.window_span, []

    def counted(length, focal, window):
        calls.append(focal)
        return span(length, focal, window)

    monkeypatch.setattr(snippets_mod, "window_span", counted)
    build_ballots(5, SnippetConfig(window=1), [[analysis("x")] * 3 for _ in range(5)])
    assert calls == [0, 1, 2, 3, 4]


def test_ballot_sizes_match_coverage_law():
    rng = np.random.default_rng(0)
    for _ in range(50):
        length = int(rng.integers(1, 12))
        window = int(rng.integers(0, 4))
        units = [[analysis("x")] for _ in range(length)]
        ballots = build_ballots(length, SnippetConfig(window=window), units)
        for i, ballot in enumerate(ballots):
            expect = min(length - 1, i + window) - max(0, i - window) + 1
            assert len(ballot) == expect


def test_greedy_is_deterministic_and_clean():
    model, vocab, corpus, snip = setup_model()
    src, _ = decode_mod.encode(examples_for_corpus(corpus, snip)[0], vocab)
    cfg = DecodeConfig(beam_size=1)
    ids, finished = greedy_ids(model, src, cfg)
    again, _ = greedy_ids(model, src, cfg)
    assert ids == again
    assert PAD_ID not in ids and START_ID not in ids
    assert len(ids) <= cfg.length_limit(len(src))
    assert isinstance(finished, bool)


def test_greedy_respects_max_length():
    model, vocab, corpus, snip = setup_model()
    src, _ = decode_mod.encode(examples_for_corpus(corpus, snip)[0], vocab)
    ids, _ = greedy_ids(model, src, DecodeConfig(max_length=1))
    assert len(ids) <= 1


def test_beam_size_one_equals_greedy():
    for seed in range(4):
        model, vocab, corpus, snip = setup_model(seed=seed)
        src, _ = decode_mod.encode(examples_for_corpus(corpus, snip)[0], vocab)
        cfg = DecodeConfig(beam_size=1)
        assert beam_ids(model, src, cfg) == greedy_ids(model, src, cfg)


def test_beam_never_scores_below_greedy():
    from modelgen import warm_model
    compared = 0
    for seed in range(3):
        model, vocab, corpus, snip = warm_model(seed=seed)[:4]
        src, _ = decode_mod.encode(examples_for_corpus(corpus, snip)[seed % 3], vocab)
        greedy_out, greedy_done = greedy_ids(model, src, DecodeConfig(beam_size=1))
        beam_out, beam_done = beam_ids(model, src, DecodeConfig(beam_size=5))
        if greedy_done and beam_done:
            g = score_sequence(model, src, greedy_out)
            b = score_sequence(model, src, beam_out)
            assert b >= g - 1e-9
            compared += 1
    assert compared >= 2  # warmed models end their outputs reliably


# From the start symbol, 5 and 6 tie; then 5 -> 9 and 6 -> 4, and both end
# next.  Every other symbol is e^50 times less likely, too little to move a
# row's normalizer off 1 (or 2), so the tied scores are exactly equal.
TIED_NEXT = {START_ID: (5, 6), 5: (9,), 6: (4,)}


def tied_step(next_ids):
    """A decode_step whose rows put equal logits on ``next_ids[prev]`` (the
    end symbol for any other previous id) and -50 on every other symbol."""
    def step(model, prev_ids, state, encoder_states, source_mask):
        logits = np.full((len(prev_ids), model.config.target_vocab_size), -50.0)
        for row, prev in enumerate(prev_ids):
            logits[row, list(next_ids.get(int(prev), (END_ID,)))] = 0.0
        return logits, state
    return step


tied_decode_step = tied_step(TIED_NEXT)


def test_beam_score_ties_go_to_smallest_ids(monkeypatch):
    model, vocab, corpus, snip = setup_model()
    src, _ = decode_mod.encode(examples_for_corpus(corpus, snip)[0], vocab)
    monkeypatch.setattr(decode_mod, "decode_step", tied_decode_step)
    for beam_size in (2, 3, 5):
        # ordering by (score, last symbol) would pick [6, 4]
        assert beam_ids(model, src, DecodeConfig(beam_size=beam_size)) == ([5, 9], True)


def test_beam_encodes_once_and_decodes_greedy_alongside(monkeypatch):
    model, vocab, corpus, snip = setup_model()
    src, _ = decode_mod.encode(examples_for_corpus(corpus, snip)[0], vocab)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(decode_mod, "encode_source",
                        counted("encode_source", decode_mod.encode_source))
    monkeypatch.setattr(decode_mod, "forward_loss",
                        counted("forward_loss", decode_mod.forward_loss))
    monkeypatch.setattr(decode_mod, "decode_step",
                        counted("decode_step", tied_decode_step))
    assert beam_ids(model, src, DecodeConfig(beam_size=3)) == ([5, 9], True)
    names = ("encode_source", "forward_loss", "decode_step")
    assert [calls[name] for name in names] == [1, 0, 3]


def one_source_search(model, source_ids, cfg, step=decode_step):
    """The search of one source alone, one hypothesis list per step: the
    reference the batched search is held to.  Width 1 is the greedy
    rollout alone."""
    beam_size = cfg.beam_size if cfg.beam_size > 1 else 0
    batch = make_batch([(list(source_ids), None)])
    enc, finals = encode_source(model, batch)
    state = init_decoder_state(model, finals)
    alive = [((), 0.0, 0)] if beam_size else []
    finished, best = [], -np.inf
    greedy, greedy_score, greedy_row, greedy_live = [], 0.0, 0, True
    for _ in range(cfg.length_limit(len(source_ids))):
        rows = [row for _, _, row in alive] + [greedy_row] * greedy_live
        state = [(h[rows], c[rows]) for h, c in state]
        prev = [ids[-1] if ids else START_ID for ids, _, _ in alive]
        prev += [greedy[-1] if greedy else START_ID] * greedy_live
        logits, state = step(model, np.array(prev), state,
                             np.repeat(enc, len(prev), axis=0),
                             np.repeat(batch.src_mask, len(prev), axis=0))
        _, logp = decode_mod._softmax(logits)
        logp[:, [PAD_ID, START_ID]] = -np.inf
        if greedy_live:
            row = logits[-1].copy()
            row[[PAD_ID, START_ID]] = -np.inf
            nxt = int(np.argmax(row))
            greedy_score += logp[-1, nxt] if beam_size else 0.0
            greedy_live = nxt != END_ID
            greedy += [nxt] * greedy_live
            greedy_row = len(alive)
        expanded = []
        for bi, (ids, score, _) in enumerate(alive):
            for sym in range(logp.shape[1]):
                expanded.append((score + logp[bi, sym], ids + (sym,), bi))
        expanded.sort(key=lambda e: (-e[0], e[1]))  # ties to the smallest ids
        alive = []
        for total, ids, bi in expanded:
            if len(alive) == beam_size or not np.isfinite(total):
                break
            if ids[-1] == END_ID:
                finished.append((total, ids[:-1]))
                best = max(best, total)
            else:
                alive.append((ids, total, bi))
        alive.sort()
        if alive and best >= max(score for _, score, _ in alive):
            alive = []
        if greedy_live and best > greedy_score:
            greedy_live, greedy_score = False, -np.inf
        if not alive and not greedy_live:
            break
    candidates = finished + [(greedy_score, tuple(greedy))] * (not greedy_live)
    if candidates:
        return list(min(candidates, key=lambda c: (-c[0], c[1]))[1]), True
    if alive:
        return list(min(alive, key=lambda a: (-a[1], a[0]))[0]), False
    return greedy, False


def ragged_sources(vocab, corpus, snip, count):
    sources = [decode_mod.encode(e, vocab)[0] for e in examples_for_corpus(corpus, snip)]
    sources = [sources[i] for i in np.random.default_rng(0).permutation(len(sources))]
    return sources[:count]


def test_batched_search_equals_one_source_search():
    from modelgen import warm_model
    random_1 = setup_model(seed=1)
    random_2 = setup_model(seed=2)
    random_2 = (init_model(replace(random_2[0].config, layers=2)),) + random_2[1:]
    warm = warm_model(seed=0)[:4]
    checked = 0
    for model, vocab, corpus, snip in (random_1, random_2, warm):
        sources = ragged_sources(vocab, corpus, snip, 7)
        assert len({len(s) for s in sources}) > 1
        for beam_size in (1, 2, 3, 5):
            for max_length in (None, 3, 9):
                cfg = DecodeConfig(beam_size=beam_size, max_length=max_length)
                batched = decode_mod._search(model, sources, cfg)
                assert batched == [one_source_search(model, s, cfg) for s in sources]
                assert batched == [decode_mod._search(model, [s], cfg)[0] for s in sources]
                checked += len(sources)
    assert checked == 3 * 4 * 3 * 7


def test_batched_search_and_chunks_leave_outputs_alone(monkeypatch):
    model, vocab, corpus, snip = setup_model(n_sentences=12)
    assert corpus.token_count() > decode_mod.CHUNK_SOURCES
    sources = ragged_sources(vocab, corpus, snip, decode_mod.CHUNK_SOURCES + 9)
    cfg = DecodeConfig(beam_size=2, max_length=9)
    greedy = replace(cfg, beam_size=1)
    assert decode_mod._search(model, sources, greedy) == \
        [one_source_search(model, s, greedy) for s in sources]
    chunks = (1, 5, decode_mod.CHUNK_SOURCES)
    outputs = []
    for chunk in chunks:
        monkeypatch.setattr(decode_mod, "CHUNK_SOURCES", chunk)
        outputs.append(predict_corpus(model, corpus, vocab, snip, cfg, voting=True))
    assert outputs[0] == outputs[1] == outputs[2]
    # float32 padding noise (about 1e-7 relative, against 1e-14 in float64)
    # leaves more room for a near-tie to follow the chunk: the trained
    # fixture model on the benchmark's test corpora must not show one
    from modelgen import fixture_job
    for seed in range(1, 7):
        model, corpus, vocab, snip = fixture_job(seed)
        outputs = []
        for chunk in chunks:
            monkeypatch.setattr(decode_mod, "CHUNK_SOURCES", chunk)
            outputs.append(predict_corpus(model, corpus, vocab, snip, DecodeConfig(beam_size=5),
                                          voting=True))
        assert outputs[0] == outputs[1] == outputs[2], seed


def test_float32_search_equals_float64_search():
    """A model's float64 upcast holds the same weights and computes in
    float64; float32 rounding must not change the ids the searches pick."""
    from gradcheck import as_float64
    from modelgen import fixture_job, warm_model
    jobs = [warm_model(seed=seed)[:4] for seed in range(4)]
    jobs += [(model, vocab, corpus, snip)
             for model, corpus, vocab, snip in map(fixture_job, range(1, 7))]
    compared = 0
    for model, vocab, corpus, snip in jobs:
        sources = [decode_mod.encode(e, vocab)[0] for e in examples_for_corpus(corpus, snip)]
        for beam_size in (1, 5):
            cfg = DecodeConfig(beam_size=beam_size)
            assert decode_mod._search(model, sources, cfg) == \
                decode_mod._search(as_float64(model), sources, cfg)
        compared += len(sources)
    assert compared == 91 + 6 * 96


def test_batched_beam_score_ties_go_to_smallest_ids(monkeypatch):
    model, vocab, corpus, snip = setup_model()
    sources = ragged_sources(vocab, corpus, snip, 3)
    monkeypatch.setattr(decode_mod, "decode_step", tied_decode_step)
    for beam_size in (2, 3, 5):
        assert decode_mod._search(model, sources, DecodeConfig(beam_size=beam_size)) == \
            [([5, 9], True)] * 3


# From the start symbol 11 symbols tie, more than 2 * beam_size for beam 5,
# so the tie spans the selection cut-off.  All but 5 end next; 5 goes on to
# two tied symbols, so the greedy rollout [5, 9] scores lower and the
# search must return the smallest of the rest.
WIDE_TIED_NEXT = {START_ID: tuple(range(5, 16)), 5: (9, 10)}


def test_batched_beam_ties_across_the_cut_off_go_to_smallest_ids(monkeypatch):
    model, vocab, corpus, snip = setup_model()
    assert model.config.target_vocab_size > max(WIDE_TIED_NEXT[START_ID])
    sources = ragged_sources(vocab, corpus, snip, 3)
    step = tied_step(WIDE_TIED_NEXT)
    monkeypatch.setattr(decode_mod, "decode_step", step)
    for beam_size in (2, 3, 5):
        assert len(WIDE_TIED_NEXT[START_ID]) > 2 * beam_size
        cfg = DecodeConfig(beam_size=beam_size)
        batched = decode_mod._search(model, sources, cfg)
        assert batched == [one_source_search(model, s, cfg, step) for s in sources]
        assert batched == [([6], True)] * 3


def test_batched_search_encodes_each_chunk_once(monkeypatch):
    model, vocab, corpus, snip = setup_model()
    sources = ragged_sources(vocab, corpus, snip, 6)
    cfg = DecodeConfig(beam_size=3)
    calls = Counter()

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(decode_mod, "encode_source",
                        counted("encode_source", decode_mod.encode_source))
    monkeypatch.setattr(decode_mod, "forward_loss",
                        counted("forward_loss", decode_mod.forward_loss))
    monkeypatch.setattr(decode_mod, "decode_step",
                        counted("decode_step", decode_mod.decode_step))
    steps = []
    for src in sources:
        calls.clear()
        decode_mod._search(model, [src], cfg)
        steps.append(calls["decode_step"])
    assert len(set(steps)) > 1  # the sources need different numbers of steps
    calls.clear()
    decode_mod._search(model, sources, cfg)
    names = ("encode_source", "forward_loss", "decode_step")
    assert [calls[name] for name in names] == [1, 0, max(steps)]


def test_score_sequence_matches_stepwise_sum():
    model, vocab, corpus, snip = setup_model()
    src, _ = decode_mod.encode(examples_for_corpus(corpus, snip)[0], vocab)
    target = [5, 6, 4]
    batch = make_batch([(list(src), None)])
    enc, finals = encode_source(model, batch)
    state = init_decoder_state(model, finals)
    total = 0.0
    prev = START_ID
    for tid in target + [3]:
        logits, state = decode_step(model, np.array([prev]), state,
                                    enc, batch.src_mask)
        row = logits[0]
        logp = row - row.max() - np.log(np.exp(row - row.max()).sum())
        total += logp[tid]
        prev = tid
    assert score_sequence(model, src, target) == pytest.approx(total, abs=1e-9)


def test_decode_helpers_return_symbols():
    model, vocab, corpus, snip = setup_model()
    src, _ = decode_mod.encode(examples_for_corpus(corpus, snip)[0], vocab)
    for fn in (greedy_decode, beam_decode):
        symbols = fn(model, src, vocab, DecodeConfig(beam_size=2, max_length=8))
        assert all(isinstance(s, str) for s in symbols)
        assert "<S>" not in symbols and "<PAD>" not in symbols


def test_decode_rejects_mismatched_vocab():
    model, vocab, corpus, snip = setup_model()
    small = ModelConfig(source_vocab_size=vocab.source_size - 1,
                        target_vocab_size=vocab.target_size,
                        embedding_size=5, hidden_units=6, layers=1,
                        dropout_p=0.0, rng_seed=0)
    with pytest.raises(ValueError):
        greedy_decode(init_model(small), [5, 6], vocab)


def test_predict_sentence_zero_model_context_window():
    model, vocab, corpus, snip = setup_model()
    zeroed(model)
    sent = corpus.sentences[0]
    for voting in (False, True):
        analyses, flags = predict_sentence(model, sent, vocab, snip,
                                           DecodeConfig(beam_size=1), voting=voting)
        assert len(analyses) == len(sent) and len(flags) == len(sent)
        assert all(isinstance(a, Analysis) for a in analyses)
        assert all("truncated" in f for f in flags)


def test_predict_sentence_zero_model_full_sequence():
    model, vocab, corpus, _ = setup_model()
    zeroed(model)
    sent = corpus.sentences[0]
    full = SnippetConfig(mode="full_sequence")
    analyses, flags = predict_sentence(model, sent, vocab, full,
                                       DecodeConfig(beam_size=1))
    assert len(analyses) == len(sent)
    assert all("mismatch" in f for f in flags)
    # positions past the single decoded unit fall back to the surface
    assert analyses[-1] == Analysis(sent.tokens[-1].surface, EMPTY_TAG)


def test_predict_sentence_rejects_voting_outside_window_mode():
    model, vocab, corpus, _ = setup_model()
    with pytest.raises(ValueError):
        predict_sentence(model, corpus.sentences[0], vocab,
                         SnippetConfig(mode="full_sequence"),
                         DecodeConfig(), voting=True)


def oracle_search(monkeypatch, corpus, vocab, snip):
    """Make ``_search`` return each example's own target, in the (length,
    index) order in which ``predict_corpus`` searches; a source window can
    repeat with different targets, so examples are not matched by source."""
    encoded = [encode(e, vocab) for e in examples_for_corpus(corpus, snip)]
    queue = sorted(encoded, key=lambda pair: len(pair[0]))  # stable: ties keep index order

    def oracle(model_, sources, cfg):
        batch = queue[:len(sources)]
        del queue[:len(sources)]
        assert [src for src, _ in batch] == [list(s) for s in sources]
        return [(tgt[1:-1], True) for _, tgt in batch]

    monkeypatch.setattr(decode_mod, "_search", oracle)


def test_oracle_decodes_give_back_the_gold_corpus(monkeypatch):
    # a decoder that returns every window's training target must yield the
    # gold analyses, all flags clean, wherever voting is allowed; a vote
    # over context units that are not analyses is refused
    corpus = make_corpus(8, seed=3)
    surfaces = Corpus(tuple(Sentence(tuple(Token(t.surface) for t in s.tokens))
                            for s in corpus))
    cases = [(SnippetConfig(mode="full_sequence"), False)]
    cases += [(SnippetConfig(mode="context_window", window=w, tc_mode=tc), voting)
              for w in (0, 1, 2) for tc in TC_MODES for voting in (False, True)]
    refused = 0
    for snip, voting in cases:
        vocab = build_vocab(examples_for_corpus(corpus, snip))
        model = init_model(ModelConfig(vocab.source_size, vocab.target_size,
                                       embedding_size=2, hidden_units=2, layers=1))
        oracle_search(monkeypatch, corpus, vocab, snip)
        if voting and snip.window and snip.tc_mode not in ("both", "none"):
            refused += 1
            with pytest.raises(ValueError, match="context_window"):
                predict_corpus(model, surfaces, vocab, snip, DecodeConfig(), voting)
            continue
        predicted, flags = predict_corpus(model, surfaces, vocab, snip, DecodeConfig(), voting)
        assert predicted == corpus, (snip, voting)
        assert all(f == "" for sent in flags for f in sent), (snip, voting)
    assert (len(cases), refused) == (31, 6)


def fixed_ids(vocab, symbols):
    return [vocab.target_id(s) for s in symbols]


def test_predict_sentence_flags_malformed_units(monkeypatch):
    model, vocab, corpus, snip = setup_model()
    sent = corpus.sentences[0]
    gs = vocab_grammeme(vocab)
    crafted = fixed_ids(vocab, [gs, WORD_BOUNDARY] * (2 * snip.window + 1))

    def fake(model_, sources, cfg):
        return [(list(crafted), True) for _ in sources]

    monkeypatch.setattr(decode_mod, "_search", fake)
    for voting in (False, True):
        analyses, flags = predict_sentence(model, sent, vocab, snip,
                                           DecodeConfig(beam_size=1), voting=voting)
        assert len(analyses) == len(sent)
        assert all("malformed" in f for f in flags)
        assert all(a == analysis("", gs[1:]) for a in analyses)


def test_predict_sentence_short_snippets_fall_back(monkeypatch):
    model, vocab, corpus, snip = setup_model()
    sent = corpus.sentences[0]
    ch = vocab_letter(vocab)
    one_unit = fixed_ids(vocab, [ch, WORD_BOUNDARY])

    def fake(model_, sources, cfg):
        return [(list(one_unit), True) for _ in sources]

    monkeypatch.setattr(decode_mod, "_search", fake)
    analyses, flags = predict_sentence(model, sent, vocab, snip,
                                       DecodeConfig(beam_size=1))
    assert analyses[0] == analysis(ch)
    for i in range(1, len(sent)):
        assert "short" in flags[i]
        assert analyses[i] == Analysis(sent.tokens[i].surface, EMPTY_TAG)


def test_predict_sentence_voting_prefers_agreement(monkeypatch):
    model, vocab, corpus, snip = setup_model()
    sent = corpus.sentences[0]
    ch = vocab_letter(vocab)
    agreed = [ch, WORD_BOUNDARY] * 3

    def fake(model_, sources, cfg):
        return [(fixed_ids(vocab, agreed), True) for _ in sources]

    monkeypatch.setattr(decode_mod, "_search", fake)
    analyses, flags = predict_sentence(model, sent, vocab, snip,
                                       DecodeConfig(beam_size=1), voting=True)
    assert all(a == analysis(ch) for a in analyses)
    assert all(f == "" for f in flags)


def full_sequence_flags(monkeypatch, symbols, finished=True):
    """predict_sentence in full-sequence mode on a faked decode of ``symbols``."""
    model, vocab, corpus, _ = setup_model()
    sent = corpus.sentences[0]

    def fake(model_, sources, cfg):
        return [(fixed_ids(vocab, symbols), finished) for _ in sources]

    monkeypatch.setattr(decode_mod, "_search", fake)
    return sent, predict_sentence(model, sent, vocab, SnippetConfig(mode="full_sequence"),
                                  DecodeConfig(beam_size=1))


def vocab_letters(vocab, count):
    return [s for s in vocab.target_symbols[5:] if len(s) == 1][:count]


def test_predict_sentence_full_sequence_extra_units_are_dropped(monkeypatch):
    vocab = setup_model()[1]
    letters = vocab_letters(vocab, 7)
    units = [sym for ch in letters for sym in (ch, WORD_BOUNDARY)]
    sent, (analyses, flags) = full_sequence_flags(monkeypatch, units)
    assert len(sent) < len(letters)
    assert analyses == [analysis(ch) for ch in letters[:len(sent)]]
    assert flags == ["mismatch"] * len(sent)


def test_predict_sentence_full_sequence_missing_units_fall_back(monkeypatch):
    _, vocab, corpus, _ = setup_model()
    n = len(corpus.sentences[0])
    letters = vocab_letters(vocab, n - 1)
    units = [sym for ch in letters for sym in (ch, WORD_BOUNDARY)]
    sent, (analyses, flags) = full_sequence_flags(monkeypatch, units)
    assert analyses[:-1] == [analysis(ch) for ch in letters]
    assert analyses[-1] == Analysis(sent.tokens[-1].surface, EMPTY_TAG)
    assert flags == ["mismatch"] * n


def test_predict_sentence_full_sequence_flags_one_malformed_unit(monkeypatch):
    _, vocab, corpus, _ = setup_model()
    n = len(corpus.sentences[0])
    ch, gs = vocab_letter(vocab), vocab_grammeme(vocab)
    k = 1
    units = []
    for i in range(n):
        units += [gs, WORD_BOUNDARY] if i == k else [ch, WORD_BOUNDARY]
    _, (analyses, flags) = full_sequence_flags(monkeypatch, units)
    assert analyses[k] == analysis("", gs[1:])
    assert flags == ["malformed" if i == k else "" for i in range(n)]


def test_predict_sentence_full_sequence_unfinished_is_truncated(monkeypatch):
    _, vocab, corpus, _ = setup_model()
    n = len(corpus.sentences[0])
    ch = vocab_letter(vocab)
    _, (analyses, flags) = full_sequence_flags(monkeypatch, [ch, WORD_BOUNDARY] * n,
                                               finished=False)
    assert analyses == [analysis(ch)] * n
    assert flags == ["truncated"] * n


def test_predict_corpus_shapes_and_surfaces():
    model, vocab, corpus, snip = setup_model(n_sentences=3)
    zeroed(model)
    predicted, flags = predict_corpus(model, corpus, vocab, snip,
                                      DecodeConfig(beam_size=1))
    assert len(predicted.sentences) == len(corpus.sentences)
    assert len(flags) == len(corpus.sentences)
    for got, want, sent_flags in zip(predicted, corpus, flags):
        assert [t.surface for t in got.tokens] == [t.surface for t in want.tokens]
        assert all(t.gold is not None for t in got.tokens)
        assert len(sent_flags) == len(want)


def test_predict_corpus_empty_corpus(monkeypatch):
    model, vocab, _, snip = setup_model()

    def no_batch(pairs):
        raise AssertionError("make_batch called for an empty corpus")

    monkeypatch.setattr(decode_mod, "make_batch", no_batch)
    for mode_cfg, voting in ((snip, False), (snip, True),
                             (SnippetConfig(mode="full_sequence"), False)):
        predicted, flags = predict_corpus(model, Corpus(()), vocab, mode_cfg,
                                          DecodeConfig(beam_size=3), voting)
        assert predicted.sentences == () and flags == []
