"""Step-driven training: SGD with a halving learning-rate schedule,
periodic checkpoints, and dev-set model selection.
"""

from __future__ import annotations

import itertools
import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .conllu import Corpus
from .decode import DecodeConfig, predict_corpus
from .metrics import evaluate
from .model import Model, backward, check_vocab, load_model, make_batch, save_model, sgd_update
from .snippets import SnippetConfig, Vocab, check_fields, encode, rule

SELECTION_METRICS = ("analysis_accuracy", "lemma_accuracy", "tag_accuracy")
_DROPOUT_SALT = 0xD0D0


class TrainingDivergedError(RuntimeError):
    """Loss or gradients went non-finite; carries the failing step."""


@dataclass(frozen=True)
class TrainConfig:
    """Rules sit at the fields, but for one: ``checkpoint_every`` divides ``total_steps``."""

    total_steps: int = rule(50000, minimum=1)
    checkpoint_every: int = rule(1000, minimum=1)
    lr_initial: float = rule(1.0)
    lr_halve_start_step: int = rule(25000, minimum=0)
    lr_halve_every: int = rule(10000, minimum=1)
    batch_size: int = rule(32, minimum=1)
    clip_norm: float | None = rule(5.0)
    selection_metric: str = rule("analysis_accuracy", choices=SELECTION_METRICS)
    rng_seed: int = rule(0, minimum=0)
    checkpoint_dir: str | None = None
    retain_all: bool = False

    def __post_init__(self):
        check_fields(self)
        if self.total_steps % self.checkpoint_every != 0:
            raise ValueError("checkpoint_every must divide total_steps")


@dataclass(frozen=True, eq=True)
class CheckpointRecord:
    step: int
    train_loss: float
    dev_metrics: dict


@dataclass(frozen=True)
class TrainReport:
    # train() writes the fields to train_report.json in this order
    selection_metric: str
    selected_step: int
    checkpoints: tuple


def lr_schedule(cfg: TrainConfig, step: int) -> float:
    """Learning rate for a 0-based step: halved every lr_halve_every steps,
    first halving taking effect exactly at lr_halve_start_step."""
    if step < 0:
        raise ValueError("step must be non-negative")
    if step < cfg.lr_halve_start_step:
        return cfg.lr_initial
    halvings = (step - cfg.lr_halve_start_step) // cfg.lr_halve_every + 1
    return cfg.lr_initial * 0.5 ** halvings


def make_batches(examples, cfg: TrainConfig, epoch_seed: int):
    """One epoch of batches: shuffle with a seed derived from
    (rng_seed, epoch_seed), bucket by source length within pools to limit
    padding, then shuffle the batch order.

    ``examples`` are encoded (source ids, framed target ids) pairs.
    """
    if not examples:
        raise ValueError("no training examples")
    rng = np.random.default_rng((cfg.rng_seed, epoch_seed))
    order = rng.permutation(len(examples))
    pool_size = cfg.batch_size * 16
    batches = []
    for start in range(0, len(order), pool_size):
        pool = sorted(order[start:start + pool_size],
                      key=lambda i: (len(examples[i][0]), i))
        for b in range(0, len(pool), cfg.batch_size):
            batches.append([examples[i] for i in pool[b:b + cfg.batch_size]])
    rng.shuffle(batches)
    return [make_batch(pairs) for pairs in batches]


def checkpoint_path(directory, step: int) -> str:
    return os.path.join(directory, f"step_{step:06d}.ckpt")


def _dev_metrics(model, dev_corpus, vocab, snippet_cfg):
    predicted, _ = predict_corpus(
        model, dev_corpus, vocab, snippet_cfg, DecodeConfig(beam_size=1), voting=False)
    scores = asdict(evaluate(predicted, dev_corpus).overall)
    del scores["token_count"]
    return scores


def _select_best(records, metric):
    # max keeps the first of equal maxima: ties go to the earliest step
    return max(records, key=lambda rec: rec.dev_metrics[metric]).step


def train(model: Model, train_examples, dev_corpus: Corpus, vocab: Vocab,
          snippet_cfg: SnippetConfig, cfg: TrainConfig):
    """Run the full loop and return (best model, TrainReport).

    Checkpoints are written to cfg.checkpoint_dir every checkpoint_every
    steps and scored on the dev corpus with greedy decoding; the checkpoint
    maximizing the selection metric (ties to the earliest step) is reloaded
    from disk and returned.  Unless retain_all is set, only the selected
    and final checkpoints are kept, and "best.ckpt" links to the winner.
    The directory also gets "training.log" and "train_report.json"; it
    must be empty or not exist yet, so that it holds one run only.
    """
    if cfg.checkpoint_dir is None:
        raise ValueError("cfg.checkpoint_dir is required")
    if os.path.isdir(cfg.checkpoint_dir) and os.listdir(cfg.checkpoint_dir):
        raise ValueError(f"checkpoint directory {cfg.checkpoint_dir!r} is not empty")
    check_vocab(model.config, vocab)
    if not train_examples:
        raise ValueError("no training examples")
    if not dev_corpus.sentences:
        raise ValueError("empty dev corpus")
    if any(tok.gold is None for sentence in dev_corpus for tok in sentence.tokens):
        raise ValueError("dev corpus without gold analyses")
    encoded = []
    for example in train_examples:
        src, tgt = encode(example, vocab)
        if tgt is None:
            raise ValueError("training example without a gold analysis")
        encoded.append((src, tgt))

    os.makedirs(cfg.checkpoint_dir, exist_ok=True)
    log_path = os.path.join(cfg.checkpoint_dir, "training.log")
    dropout_rng = np.random.default_rng((cfg.rng_seed, _DROPOUT_SALT))
    records = []
    loss_sum = 0.0
    batches = itertools.chain.from_iterable(
        make_batches(encoded, cfg, epoch) for epoch in itertools.count())
    with open(log_path, "w", encoding="utf-8") as log:
        log.write(f"training: steps={cfg.total_steps} batch={cfg.batch_size} "
                  f"examples={len(encoded)} seed={cfg.rng_seed}\n")
        for step, batch in zip(range(cfg.total_steps), batches):
            lr = lr_schedule(cfg, step)
            try:
                loss, grads = backward(model, batch, rng=dropout_rng)
                if not np.isfinite(loss):
                    raise ValueError("non-finite loss")
                sgd_update(model, grads, lr, cfg.clip_norm)
            except ValueError as err:
                raise TrainingDivergedError(f"step {step}: {err}") from err
            loss_sum += loss
            if (step + 1) % cfg.checkpoint_every == 0:
                ckpt_step = step + 1
                save_model(model, vocab, checkpoint_path(cfg.checkpoint_dir, ckpt_step))
                metrics = _dev_metrics(model, dev_corpus, vocab, snippet_cfg)
                record = CheckpointRecord(ckpt_step, loss_sum / cfg.checkpoint_every, metrics)
                records.append(record)
                shown = " ".join(f"{k}={v:.4f}" for k, v in metrics.items())
                log.write(f"step {ckpt_step} lr {lr:g} loss {record.train_loss:.6f} {shown}\n")
                log.flush()
                loss_sum = 0.0

    selected = _select_best(records, cfg.selection_metric)
    best_model, _ = load_model(checkpoint_path(cfg.checkpoint_dir, selected),
                               expect_vocab=vocab)
    if not cfg.retain_all:
        keep = {selected, records[-1].step}
        for record in records:
            if record.step not in keep:
                os.remove(checkpoint_path(cfg.checkpoint_dir, record.step))
    os.symlink(os.path.basename(checkpoint_path(cfg.checkpoint_dir, selected)),
               os.path.join(cfg.checkpoint_dir, "best.ckpt"))
    report = TrainReport(cfg.selection_metric, selected, tuple(records))
    with open(os.path.join(cfg.checkpoint_dir, "train_report.json"), "w", encoding="utf-8") as f:
        f.write(json.dumps(asdict(report), indent=2) + "\n")
    return best_model, report
