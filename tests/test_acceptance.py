"""End-to-end acceptance checks.

Each test covers one release criterion and prints a single PASS line with
the measured numbers; tolerances and budgets are stated inline.
"""

import itertools
import time

import numpy as np
import pytest

from gradcheck import finite_difference_check
from lemtag import decode as decode_mod
from lemtag.conllu import (EMPTY_TAG, Analysis, Corpus, MorphoTag, Sentence,
                           Token, parse_corpus, write_corpus)
from lemtag.decode import (DecodeConfig, beam_ids, build_ballots, greedy_ids,
                           majority_vote, predict_sentence, score_sequence)
from lemtag.metrics import evaluate, levenshtein, tag_f1
from lemtag.model import (ModelConfig, forward_loss, init_model, load_model,
                          make_batch, save_model)
from lemtag.snippets import (SnippetConfig, WORD_BOUNDARY, build_vocab,
                             examples_for_corpus)
from lemtag.training import TrainConfig, lr_schedule, train
from modelgen import warm_model
from toycorpus import make_corpus, tiny_corpus


def test_criterion_1_gradient_oracle():
    budget = 60.0
    tolerance = 1e-3
    start = time.monotonic()
    cfg = ModelConfig(source_vocab_size=11, target_vocab_size=12,
                      embedding_size=4, hidden_units=3, layers=1,
                      dropout_p=0.0, rng_seed=0)
    model = init_model(cfg)
    rng = np.random.default_rng(0)
    pairs = []
    for _ in range(3):
        src = rng.integers(5, 11, size=int(rng.integers(2, 6))).tolist()
        tgt = [2] + rng.integers(5, 12, size=int(rng.integers(1, 5))).tolist() + [3]
        pairs.append((src, tgt))
    worst = finite_difference_check(model, make_batch(pairs), eps=1e-4)
    elapsed = time.monotonic() - start
    assert worst <= tolerance, f"worst relative error {worst:.3e}"
    assert elapsed < budget, f"{elapsed:.1f}s over the {budget:.0f}s budget"
    print(f"criterion 1 gradient oracle: PASS "
          f"(worst rel err {worst:.2e}, {elapsed:.1f}s)")


def test_criterion_2_overfit_run(tmp_path):
    budget = 600.0
    start = time.monotonic()
    corpus = make_corpus(32, seed=0)
    snip = SnippetConfig(mode="context_window", window=1, tc_mode="both")
    examples = examples_for_corpus(corpus, snip)
    vocab = build_vocab(examples, min_freq=1)
    model = init_model(ModelConfig(
        source_vocab_size=vocab.source_size, target_vocab_size=vocab.target_size,
        embedding_size=32, hidden_units=64, layers=2, dropout_p=0.0, rng_seed=0))
    cfg = TrainConfig(total_steps=3000, checkpoint_every=1000, lr_initial=1.0,
                      lr_halve_start_step=1500, lr_halve_every=500,
                      batch_size=32, clip_norm=5.0, rng_seed=0,
                      checkpoint_dir=str(tmp_path / "overfit"))
    _, report = train(model, examples, corpus, vocab, snip, cfg)
    best = next(r for r in report.checkpoints if r.step == report.selected_step)
    accuracy = best.dev_metrics["analysis_accuracy"]
    elapsed = time.monotonic() - start
    assert accuracy >= 0.99, f"selected-checkpoint accuracy {accuracy:.3f}"
    assert elapsed < budget, f"{elapsed:.1f}s over the {budget:.0f}s budget"
    print(f"criterion 2 overfit run: PASS (analysis accuracy {accuracy:.3f} "
          f"at step {report.selected_step}, {elapsed:.1f}s)")


def test_criterion_3_metric_oracle():
    footnote = tag_f1(MorphoTag(("A",)), MorphoTag(("A", "B")))
    assert footnote.precision == 1.0
    assert footnote.recall == 0.5
    assert footnote.f1 == pytest.approx(2 / 3)

    def oracle_distance(a, b):
        table = [[0] * (len(b) + 1) for _ in range(len(a) + 1)]
        for i in range(len(a) + 1):
            table[i][0] = i
        for j in range(len(b) + 1):
            table[0][j] = j
        for i in range(1, len(a) + 1):
            for j in range(1, len(b) + 1):
                table[i][j] = min(table[i - 1][j] + 1, table[i][j - 1] + 1,
                                  table[i - 1][j - 1] + (a[i - 1] != b[j - 1]))
        return table[len(a)][len(b)]

    rng = np.random.default_rng(0)
    letters = list("abcde")
    for _ in range(1000):
        a = "".join(rng.choice(letters, size=rng.integers(0, 13)))
        b = "".join(rng.choice(letters, size=rng.integers(0, 13)))
        assert levenshtein(a, b) == oracle_distance(a, b)

    lemmas = ["ana", "bo", "cyc", "dude", ""]
    pool = ["N", "V", "PL", "SG"]

    def random_rows(n):
        rows = []
        for t in range(n):
            grammemes = tuple(rng.choice(pool, size=rng.integers(0, 3), replace=False))
            rows.append((f"w{t}", str(rng.choice(lemmas)), grammemes))
        return rows

    def to_corpus(sent_rows):
        sentences = []
        for rows in sent_rows:
            tokens = [Token(s, gold=Analysis(l, MorphoTag(tuple(sorted(g)))))
                      for s, l, g in rows]
            sentences.append(Sentence(tuple(tokens)))
        return Corpus(tuple(sentences))

    for _ in range(100):
        shape = [int(rng.integers(1, 5)) for _ in range(int(rng.integers(1, 4)))]
        gold_rows = [random_rows(n) for n in shape]
        pred_rows = [random_rows(n) for n in shape]
        got = evaluate(to_corpus(pred_rows), to_corpus(gold_rows)).overall
        flat = [(p, g) for ps, gs in zip(pred_rows, gold_rows)
                for p, g in zip(ps, gs)]
        n = len(flat)
        assert got.token_count == n
        assert got.lemma_accuracy == pytest.approx(
            sum(p[1] == g[1] for p, g in flat) / n)
        assert got.avg_lemma_distance == pytest.approx(
            sum(oracle_distance(p[1], g[1]) for p, g in flat) / n)
        assert got.tag_accuracy == pytest.approx(
            sum(set(p[2]) == set(g[2]) for p, g in flat) / n)
        assert got.avg_tag_f1 == pytest.approx(
            sum(tag_f1(MorphoTag(tuple(sorted(p[2]))),
                       MorphoTag(tuple(sorted(g[2])))).f1 for p, g in flat) / n)
        assert got.analysis_accuracy == pytest.approx(
            sum(p[1] == g[1] and set(p[2]) == set(g[2]) for p, g in flat) / n)
    print("criterion 3 metric oracle: PASS (footnote case exact, "
          "1000 distance pairs, 100 corpora)")


def test_criterion_4_snippet_laws():
    rng = np.random.default_rng(0)
    checked = 0
    for _ in range(500):
        length = int(rng.integers(1, 13))
        window = int(rng.integers(0, 4))
        tokens = tuple(Token("ab", gold=Analysis("ab", EMPTY_TAG))
                       for _ in range(length))
        sentence = Sentence(tokens)
        cfg = SnippetConfig(mode="context_window", window=window, tc_mode="both")
        examples = examples_for_corpus(Corpus((sentence,)), cfg)
        assert len(examples) == length
        units = [[Analysis("ab", EMPTY_TAG)] * (2 * window + 1)] * length
        ballots = build_ballots(length, cfg, units)
        for i in range(length):
            covering = sum(1 for j in range(length)
                           if max(0, j - window) <= i <= min(length - 1, j + window))
            expected = min(length - 1, i + window) - max(0, i - window) + 1
            assert covering == expected == len(ballots[i])
        if window == 1 and length >= 3:
            sizes = [len(b) for b in ballots]
            assert sizes[0] == sizes[-1] == 2  # edges: two covering snippets
            assert all(s == 3 for s in sizes[1:-1])  # interior: three
        checked += 1
    assert checked == 500
    print("criterion 4 snippet laws: PASS (500 cases, coverage formula and "
          "window-1 edge/interior counts)")


def test_criterion_5_decode_equivalences(monkeypatch):
    models = []
    for seed in range(4):
        models.append(warm_model(seed=seed, n_sentences=9, n_probes=25))
    compared = 0
    for model, vocab, corpus, snip, pairs in models:
        for src, _ in pairs[:25]:
            one = DecodeConfig(beam_size=1)
            greedy_out, greedy_done = greedy_ids(model, src, one)
            assert beam_ids(model, src, one) == (greedy_out, greedy_done)
            assert greedy_done, "probe decode did not finish"
            beam_out, beam_done = beam_ids(model, src, DecodeConfig(beam_size=5))
            assert beam_done
            g = score_sequence(model, src, greedy_out)
            b = score_sequence(model, src, beam_out)
            assert b >= g - 1e-9
            compared += 1
    assert compared == 100

    model, vocab, corpus, snip, _ = models[0]
    for sentence in corpus.sentences[:3]:
        for mode_cfg, voting in ((snip, False), (snip, True),
                                 (SnippetConfig(mode="full_sequence"), False)):
            analyses, flags = predict_sentence(model, sentence, vocab, mode_cfg,
                                               DecodeConfig(beam_size=2), voting)
            assert len(analyses) == len(sentence) == len(flags)

    # forced-malformed decodes still yield one analysis per token
    gs = next(s for s in vocab.target_symbols if s.startswith("+"))
    bad_ids = [vocab.target_id(gs), vocab.target_id(WORD_BOUNDARY)]

    def malformed(model_, sources, cfg):
        return [(list(bad_ids), False) for _ in sources]

    monkeypatch.setattr(decode_mod, "_search", malformed)
    for sentence in corpus.sentences[:3]:
        for voting in (False, True):
            analyses, flags = predict_sentence(model, sentence, vocab, snip,
                                               DecodeConfig(beam_size=1), voting)
            assert len(analyses) == len(sentence)
            assert all(isinstance(a, Analysis) for a in analyses)
    print("criterion 5 decode equivalences: PASS (100 beam/greedy pairs, "
          "sentence predictions always full length)")


def test_criterion_6_voting_properties():
    candidates = [Analysis("cat", MorphoTag(("N",))),
                  Analysis("cut", MorphoTag(("V",))),
                  Analysis("cot", EMPTY_TAG)]

    def reference_winner(ballot):
        tally = {}
        for analysis, dist, idx in ballot:
            count, best_dist, best_idx = tally.get(analysis, (0, None, None))
            tally[analysis] = (
                count + 1,
                dist if best_dist is None else min(best_dist, dist),
                idx if best_idx is None else min(best_idx, idx),
            )
        return min(tally.items(),
                   key=lambda kv: (-kv[1][0], kv[1][1], kv[1][2]))[0]

    total = 0
    for size in (1, 2, 3):
        for assignment in itertools.product(range(3), repeat=size):
            for distances in itertools.product(range(3), repeat=size):
                ballot = [(candidates[assignment[k]], distances[k], k)
                          for k in range(size)]
                got = majority_vote(ballot)
                want = reference_winner(ballot)
                assert got == want, f"ballot {ballot}"
                counts = [assignment.count(v) for v in set(assignment)]
                if len(set(assignment)) == 1:
                    assert got == candidates[assignment[0]]  # unanimity
                elif max(counts) > size // 2:
                    majority = max(set(assignment), key=assignment.count)
                    assert got == candidates[majority]  # strict majority
                total += 1
    assert total == 9 + 81 + 729  # 9**size ballots per size
    print(f"criterion 6 voting properties: PASS ({total} exhaustive ballots)")


def test_criterion_7_schedule():
    cfg = TrainConfig()
    points = [(0, 1.0), (24999, 1.0), (25000, 0.5), (35000, 0.25), (45000, 0.125)]
    for step, want in points:
        assert lr_schedule(cfg, step) == want
    print("criterion 7 schedule: PASS (5 reference points exact)")


def test_criterion_8_determinism_and_persistence(tmp_path):
    corpus = make_corpus(6, seed=0)
    snip = SnippetConfig(mode="context_window", window=1, tc_mode="both")
    examples = examples_for_corpus(corpus, snip)
    vocab = build_vocab(examples, min_freq=1)

    def run(tag):
        model = init_model(ModelConfig(
            source_vocab_size=vocab.source_size,
            target_vocab_size=vocab.target_size,
            embedding_size=8, hidden_units=12, layers=1, dropout_p=0.1,
            rng_seed=0))
        cfg = TrainConfig(total_steps=6, checkpoint_every=3, lr_initial=0.5,
                          batch_size=16, rng_seed=0,
                          checkpoint_dir=str(tmp_path / tag))
        return train(model, examples, corpus, vocab, snip, cfg)

    (model_a, report_a), (model_b, report_b) = run("a"), run("b")
    assert report_a == report_b
    for name in model_a.params:
        assert np.array_equal(model_a.params[name], model_b.params[name])

    from lemtag.snippets import encode
    fixed_batch = make_batch([encode(e, vocab) for e in examples[:8]])
    path = tmp_path / "persisted.ckpt"
    save_model(model_a, vocab, path)
    loaded, _ = load_model(path, expect_vocab=vocab)
    assert forward_loss(loaded, fixed_batch) == forward_loss(model_a, fixed_batch)
    for src, _ in [encode(e, vocab) for e in examples[:5]]:
        assert greedy_ids(loaded, src, DecodeConfig(beam_size=1)) == \
            greedy_ids(model_a, src, DecodeConfig(beam_size=1))
    print("criterion 8 determinism and persistence: PASS (reports equal, "
          "losses and decodes bit-identical after reload)")


def test_criterion_9_format_round_trip():
    rng = np.random.default_rng(0)
    letters = list("abcdefghçñü")
    pool = ["N", "V", "PL", "SG", "PST", "Case=Nom"]
    sentences = []
    for _ in range(1000):
        tokens = []
        for _ in range(int(rng.integers(1, 6))):
            surface = "".join(rng.choice(letters, size=rng.integers(1, 7)))
            lemma = "".join(rng.choice(letters, size=rng.integers(0, 7)))
            grammemes = tuple(sorted(rng.choice(pool, size=rng.integers(0, 4),
                                                replace=False)))
            tokens.append(Token(surface, gold=Analysis(lemma, MorphoTag(grammemes))))
        sentences.append(Sentence(tuple(tokens)))
    fuzzed = Corpus(tuple(sentences))
    assert parse_corpus(write_corpus(fuzzed)) == Corpus(fuzzed.sentences)

    sample = tiny_corpus()
    assert parse_corpus(write_corpus(sample)) == Corpus(sample.sentences)
    print("criterion 9 format round-trip: PASS (1000 fuzzed sentences and "
          "the sample corpus)")
