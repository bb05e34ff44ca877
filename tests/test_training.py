import dataclasses
import json
import os

import numpy as np
import pytest

from lemtag.conllu import Corpus, Sentence, Token
from lemtag.model import ModelConfig, init_model, load_model
from lemtag.snippets import SnippetConfig, build_vocab, examples_for_corpus
from lemtag.training import (CheckpointRecord, TrainConfig,
                             TrainingDivergedError, TrainReport, _select_best,
                             checkpoint_path, lr_schedule, make_batches, train)
from toycorpus import make_corpus


def micro_setup(n_sentences=8, seed=0, hidden=12):
    corpus = make_corpus(n_sentences, seed=seed)
    snip = SnippetConfig(mode="context_window", window=1, tc_mode="both")
    examples = examples_for_corpus(corpus, snip)
    vocab = build_vocab(examples, min_freq=1)
    mcfg = ModelConfig(source_vocab_size=vocab.source_size,
                       target_vocab_size=vocab.target_size,
                       embedding_size=8, hidden_units=hidden, layers=1,
                       dropout_p=0.0, rng_seed=0)
    return corpus, snip, examples, vocab, init_model(mcfg)


def test_lr_schedule_reference_points():
    cfg = TrainConfig()
    assert lr_schedule(cfg, 0) == 1.0
    assert lr_schedule(cfg, 24999) == 1.0
    assert lr_schedule(cfg, 25000) == 0.5
    assert lr_schedule(cfg, 35000) == 0.25
    assert lr_schedule(cfg, 45000) == 0.125


def test_lr_schedule_constant_before_start():
    cfg = TrainConfig(total_steps=50, checkpoint_every=50, lr_halve_start_step=100,
                      lr_halve_every=10)
    assert all(lr_schedule(cfg, s) == 1.0 for s in range(50))


def test_lr_schedule_monotone_non_increasing():
    cfg = TrainConfig(total_steps=2000, checkpoint_every=500, lr_initial=0.7,
                      lr_halve_start_step=37, lr_halve_every=13)
    rates = [lr_schedule(cfg, s) for s in range(2000)]
    assert all(a >= b for a, b in zip(rates, rates[1:]))
    assert rates[0] == 0.7 and rates[-1] < 0.7


def test_lr_schedule_rejects_negative_step():
    with pytest.raises(ValueError):
        lr_schedule(TrainConfig(), -1)


def test_train_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(total_steps=10, checkpoint_every=3)
    with pytest.raises(ValueError):
        TrainConfig(selection_metric="loss")
    with pytest.raises(ValueError):
        TrainConfig(rng_seed=-1)
    with pytest.raises(ValueError):
        TrainConfig(batch_size=0)
    with pytest.raises(ValueError):
        TrainConfig(clip_norm=0.0)
    with pytest.raises(ValueError):
        TrainConfig(lr_initial=0.0)
    # a bool used to pass as 1 or 0, and text raised TypeError
    for value in (float("nan"), float("inf"), True, False, "1"):
        for name in ("lr_initial", "clip_norm"):
            with pytest.raises(ValueError, match=f"{name} must be positive and finite"):
                TrainConfig(**{name: value})
    for sizes in ({"batch_size": 2.5}, {"checkpoint_every": 2.0}, {"rng_seed": 1.5},
                  {"total_steps": 10.0, "checkpoint_every": 5},
                  {"lr_halve_start_step": 0.5}, {"lr_halve_every": 1.5},
                  {"batch_size": True}, {"lr_halve_start_step": -1}):
        with pytest.raises(ValueError, match="must be an integer"):
            TrainConfig(**sizes)


def test_checkpoint_path_format(tmp_path):
    assert checkpoint_path(str(tmp_path), 20).endswith("step_000020.ckpt")


def indexed_pairs(n, rng):
    # target position 1 carries the example index so coverage is checkable
    return [([5] * int(rng.integers(1, 41)), [2, 100 + i, 3]) for i in range(n)]


def test_make_batches_covers_every_example_once():
    rng = np.random.default_rng(0)
    pairs = indexed_pairs(100, rng)
    cfg = TrainConfig(total_steps=10, checkpoint_every=10, batch_size=8)
    batches = make_batches(pairs, cfg, epoch_seed=0)
    seen = []
    for batch in batches:
        seen.extend(int(v) for v in batch.tgt[:, 1])
    assert sorted(seen) == [100 + i for i in range(100)]
    assert all(b.size <= 8 for b in batches)


def test_make_batches_deterministic_and_epoch_sensitive():
    rng = np.random.default_rng(1)
    pairs = indexed_pairs(50, rng)
    cfg = TrainConfig(total_steps=10, checkpoint_every=10, batch_size=4)
    a = make_batches(pairs, cfg, epoch_seed=3)
    b = make_batches(pairs, cfg, epoch_seed=3)
    c = make_batches(pairs, cfg, epoch_seed=4)
    assert len(a) == len(b)
    for x, y in zip(a, b):
        assert np.array_equal(x.src, y.src) and np.array_equal(x.tgt, y.tgt)
    assert any(x.src.shape != y.src.shape or not np.array_equal(x.src, y.src)
               for x, y in zip(a, c))


def test_make_batches_bucketing_cuts_padding():
    rng = np.random.default_rng(2)
    pairs = indexed_pairs(1000, rng)
    cfg = TrainConfig(total_steps=10, checkpoint_every=10, batch_size=32)
    batches = make_batches(pairs, cfg, epoch_seed=0)
    total_rows = sum(b.size for b in batches)
    assert total_rows == 1000
    bucketed = sum(b.size * b.src.shape[1] for b in batches)
    # same shuffle but chunked without length sorting
    order = np.random.default_rng((cfg.rng_seed, 0)).permutation(1000)
    naive = 0
    for start in range(0, 1000, cfg.batch_size):
        chunk = [pairs[i] for i in order[start:start + cfg.batch_size]]
        naive += len(chunk) * max(len(src) for src, _ in chunk)
    assert bucketed < naive


def test_make_batches_rejects_empty():
    cfg = TrainConfig(total_steps=10, checkpoint_every=10)
    with pytest.raises(ValueError):
        make_batches([], cfg, epoch_seed=0)


def test_select_best_prefers_earliest_tie():
    records = [CheckpointRecord(10, 1.0, {"analysis_accuracy": 0.5}),
               CheckpointRecord(20, 0.9, {"analysis_accuracy": 0.5}),
               CheckpointRecord(30, 0.8, {"analysis_accuracy": 0.4})]
    assert _select_best(records, "analysis_accuracy") == 10


def test_select_best_takes_strict_improvement():
    records = [CheckpointRecord(10, 1.0, {"analysis_accuracy": 0.5}),
               CheckpointRecord(20, 0.9, {"analysis_accuracy": 0.7}),
               CheckpointRecord(30, 0.8, {"analysis_accuracy": 0.7})]
    assert _select_best(records, "analysis_accuracy") == 20


def test_train_validates_inputs(tmp_path):
    corpus, snip, examples, vocab, model = micro_setup(2)
    cfg = TrainConfig(total_steps=2, checkpoint_every=2, batch_size=4,
                      checkpoint_dir=str(tmp_path / "run"))
    with pytest.raises(ValueError):
        train(model, [], corpus, vocab, snip, cfg)
    with pytest.raises(ValueError):
        train(model, examples, corpus, vocab, snip,
              dataclasses.replace(cfg, checkpoint_dir=None))
    stripped = [dataclasses.replace(examples[0], target=None)]
    with pytest.raises(ValueError):
        train(model, stripped, corpus, vocab, snip, cfg)
    with pytest.raises(ValueError, match="empty dev corpus"):
        train(model, examples, Corpus(()), vocab, snip, cfg)
    surface_only = Corpus(tuple(Sentence(tuple(Token(t.surface) for t in s.tokens))
                                for s in corpus))
    with pytest.raises(ValueError, match="dev corpus without gold analyses"):
        train(model, examples, surface_only, vocab, snip, cfg)
    assert not (tmp_path / "run").exists()  # each refused before the directory is made


def test_train_rejects_a_model_that_does_not_fit_the_vocabulary(tmp_path):
    corpus, snip, examples, vocab, _ = micro_setup(2)
    model = init_model(ModelConfig(source_vocab_size=vocab.source_size + 3,
                                   target_vocab_size=vocab.target_size + 2,
                                   embedding_size=8, hidden_units=12, layers=1,
                                   dropout_p=0.0))
    run_dir = tmp_path / "run"
    cfg = TrainConfig(total_steps=2, checkpoint_every=2, batch_size=4,
                      checkpoint_dir=str(run_dir))
    with pytest.raises(ValueError, match="model and vocabulary sizes disagree"):
        train(model, examples, corpus, vocab, snip, cfg)
    assert not run_dir.exists()  # refused before any step or checkpoint


def test_train_refuses_a_used_checkpoint_directory(tmp_path):
    def snapshot(directory):
        return {p.name: os.readlink(p) if p.is_symlink() else p.read_bytes()
                for p in directory.iterdir()}

    corpus, snip, examples, vocab, model = micro_setup(4)
    run_dir = tmp_path / "run"
    cfg = TrainConfig(total_steps=6, checkpoint_every=2, batch_size=16,
                      retain_all=True, checkpoint_dir=str(run_dir))
    train(model, examples, corpus, vocab, snip, cfg)
    first = snapshot(run_dir)
    assert "step_000006.ckpt" in first and "best.ckpt" in first
    _, _, _, _, fresh = micro_setup(4)
    with pytest.raises(ValueError, match="not empty"):
        train(fresh, examples, corpus, vocab, snip,
              dataclasses.replace(cfg, total_steps=2, retain_all=False))
    assert snapshot(run_dir) == first


def test_train_micro_run_artifacts(tmp_path):
    corpus, snip, examples, vocab, model = micro_setup(8)
    run_dir = tmp_path / "run"
    cfg = TrainConfig(total_steps=60, checkpoint_every=20, lr_initial=0.5,
                      lr_halve_start_step=1000, batch_size=32,
                      rng_seed=0, checkpoint_dir=str(run_dir))
    best, report = train(model, examples, corpus, vocab, snip, cfg)
    assert [r.step for r in report.checkpoints] == [20, 40, 60]
    assert report.selected_step in (20, 40, 60)
    assert report.selection_metric == "analysis_accuracy"
    assert report.checkpoints[-1].train_loss < report.checkpoints[0].train_loss
    for record in report.checkpoints:
        assert set(record.dev_metrics) == {"lemma_accuracy", "avg_lemma_distance",
                                           "tag_accuracy", "avg_tag_f1",
                                           "analysis_accuracy"}
    link = run_dir / "best.ckpt"
    assert link.is_symlink()
    assert os.readlink(link) == f"step_{report.selected_step:06d}.ckpt"
    kept = sorted(p.name for p in run_dir.glob("step_*.ckpt"))
    expected = sorted({f"step_{report.selected_step:06d}.ckpt", "step_000060.ckpt"})
    assert kept == expected
    assert (run_dir / "training.log").exists()
    written = json.loads((run_dir / "train_report.json").read_text(encoding="utf-8"))
    assert TrainReport(
        checkpoints=tuple(CheckpointRecord(**r) for r in written["checkpoints"]),
        selected_step=written["selected_step"],
        selection_metric=written["selection_metric"]) == report
    reloaded, _ = load_model(str(link), expect_vocab=vocab)
    for name in best.params:
        assert np.array_equal(best.params[name], reloaded.params[name])


def test_train_retain_all_keeps_every_checkpoint(tmp_path):
    corpus, snip, examples, vocab, model = micro_setup(4)
    run_dir = tmp_path / "run"
    cfg = TrainConfig(total_steps=4, checkpoint_every=2, batch_size=16,
                      retain_all=True, checkpoint_dir=str(run_dir))
    train(model, examples, corpus, vocab, snip, cfg)
    kept = sorted(p.name for p in run_dir.glob("step_*.ckpt"))
    assert kept == ["step_000002.ckpt", "step_000004.ckpt"]


def test_train_frozen_weights_tie_picks_earliest(tmp_path):
    corpus, snip, examples, vocab, model = micro_setup(4)
    cfg = TrainConfig(total_steps=6, checkpoint_every=2, lr_initial=1e-12,
                      batch_size=16, checkpoint_dir=str(tmp_path / "run"))
    _, report = train(model, examples, corpus, vocab, snip, cfg)
    # updates below float32 resolution leave the weights untouched
    first = report.checkpoints[0].dev_metrics
    assert all(r.dev_metrics == first for r in report.checkpoints)
    assert report.selected_step == 2


def test_train_divergence_reports_step(tmp_path):
    corpus, snip, examples, vocab, model = micro_setup(2)
    model.params["out_b"][0] = np.nan
    cfg = TrainConfig(total_steps=2, checkpoint_every=2, batch_size=8,
                      checkpoint_dir=str(tmp_path / "run"))
    with pytest.raises(TrainingDivergedError, match="step 0"):
        train(model, examples, corpus, vocab, snip, cfg)


def test_train_is_deterministic(tmp_path):
    runs = []
    for tag in ("a", "b"):
        corpus, snip, examples, vocab, model = micro_setup(4)
        cfg = TrainConfig(total_steps=6, checkpoint_every=3, lr_initial=0.5,
                          batch_size=16, checkpoint_dir=str(tmp_path / tag))
        runs.append(train(model, examples, corpus, vocab, snip, cfg))
    (best_a, report_a), (best_b, report_b) = runs
    assert report_a == report_b
    for name in best_a.params:
        assert np.array_equal(best_a.params[name], best_b.params[name])


def test_train_report_is_a_value_object():
    rec = CheckpointRecord(10, 0.5, {"analysis_accuracy": 0.9})
    same = CheckpointRecord(10, 0.5, {"analysis_accuracy": 0.9})
    other = CheckpointRecord(10, 0.5, {"analysis_accuracy": 0.8})
    assert rec == same and rec != other
    assert TrainReport(checkpoints=(rec,), selected_step=10,
                       selection_metric="analysis_accuracy") == \
        TrainReport(checkpoints=(same,), selected_step=10, selection_metric="analysis_accuracy")
