"""Train the checked-in prediction model, ``fixture/h64.ckpt``.

The benchmark decodes with this file instead of a model trained in the
run, so both sides of a comparison decode with identical weights and the
decodes end at the end symbol, as a trained model's do.  Its training time
counts in no metric.  Run from the repository root:

    python3 perfbench/make_fixture.py

and update ``FIXTURE_SHA256`` in ``run.py`` with the digest it prints.
The model is trained on its own corpus seed, which no workload uses.
"""

from __future__ import annotations

import hashlib
import os
import shutil
import sys
import tempfile
from pathlib import Path

os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import corpusgen  # noqa: E402
from lemtag import (ModelConfig, SnippetConfig, TrainConfig, build_vocab,  # noqa: E402
                    examples_for_corpus, init_model, parse_corpus, save_model,
                    train)

FIXTURE_SEED = 999_983
STEPS = 6400
CHECKPOINT_EVERY = 1600
LR_HALVE_START = 3200
LR_HALVE_EVERY = 1600


def main():
    snip = SnippetConfig(mode="context_window", window=1, tc_mode="both")
    train_corpus = parse_corpus(corpusgen.to_text(
        corpusgen.make_sentences(400, FIXTURE_SEED, 0)))
    dev_corpus = parse_corpus(corpusgen.to_text(
        corpusgen.make_sentences(6, FIXTURE_SEED, 1)))
    examples = examples_for_corpus(train_corpus, snip)
    vocab = build_vocab(examples, min_freq=1)
    lexicon_symbols = {c for surface, _, _ in corpusgen.lexicon() for c in surface}
    missing = lexicon_symbols - set(vocab.source_symbols)
    if missing:
        raise SystemExit(f"fixture corpus misses source symbols {sorted(missing)}")
    model = init_model(ModelConfig(
        source_vocab_size=vocab.source_size, target_vocab_size=vocab.target_size,
        embedding_size=32, hidden_units=64, layers=2, dropout_p=0.3, rng_seed=0))
    workdir = tempfile.mkdtemp(prefix="fixture_", dir=HERE)
    try:
        best, report = train(model, examples, dev_corpus, vocab, snip, TrainConfig(
            total_steps=STEPS, checkpoint_every=CHECKPOINT_EVERY, batch_size=32,
            lr_halve_start_step=LR_HALVE_START, lr_halve_every=LR_HALVE_EVERY,
            rng_seed=0, checkpoint_dir=workdir))
    finally:
        shutil.rmtree(workdir)
    for record in report.checkpoints:
        print(f"step {record.step} loss {record.train_loss:.4f} "
              f"dev analysis_accuracy {record.dev_metrics['analysis_accuracy']:.4f}")
    out = HERE / "fixture" / "h64.ckpt"
    out.parent.mkdir(exist_ok=True)
    save_model(best, vocab, out)
    print(f"selected step {report.selected_step}; wrote {out.relative_to(HERE.parent)} "
          f"sha256 {hashlib.sha256(out.read_bytes()).hexdigest()}")


if __name__ == "__main__":
    main()
