import dataclasses
import hashlib
import json
import struct
import sys
import zlib

import pytest

from lemtag import cli
from lemtag.cli import main
from lemtag.conllu import (Analysis, Corpus, MorphoTag, Sentence, Token, read_corpus_file,
                           write_corpus)
from lemtag.model import (CheckpointError, ModelConfig, init_model, load_model,
                          save_model)
from lemtag.snippets import (CONTROL_SYMBOLS, SnippetConfig, Vocab,
                             examples_for_corpus, format_example)
from lemtag.training import TrainConfig, TrainingDivergedError
from toycorpus import make_corpus, tiny_corpus


@pytest.fixture
def gold_file(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text(write_corpus(make_corpus(4, seed=0)), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_stats_exact_lines(tmp_path, capsys):
    path = tmp_path / "tiny.tsv"
    path.write_text(write_corpus(tiny_corpus()), encoding="utf-8")
    code, out, _ = run(capsys, "stats", str(path), "--reference", str(path))
    assert code == 0
    assert out.splitlines() == [
        "sentences 1",
        "tokens 3",
        "grammeme-form 2.00",
        "oov_rate 0.000",
    ]


def test_stats_without_reference_omits_oov(tmp_path, capsys, gold_file):
    code, out, _ = run(capsys, "stats", gold_file)
    assert code == 0
    assert "oov_rate" not in out
    assert out.startswith("sentences 4\n")


def test_stats_missing_file_is_a_data_error(capsys, tmp_path):
    code, _, err = run(capsys, "stats", str(tmp_path / "nope.tsv"))
    assert code == 2
    assert "error:" in err


def test_stats_malformed_corpus(tmp_path, capsys):
    bad = tmp_path / "bad.tsv"
    for text, line in (("onlyform\n\n", 1), ("a\ta\t_\n \ta\t_\n", 2),  # a blank FORM
                       ("a\ta\tN; PL\n", 1)):  # a grammeme holding a space
        bad.write_text(text, encoding="utf-8")
        code, _, err = run(capsys, "stats", str(bad))
        assert code == 2
        assert f"line {line}:" in err


def test_snippetize_stdout_matches_library(capsys, gold_file):
    code, out, _ = run(capsys, "snippetize", gold_file, "--window", "2", "--tc", "tags")
    assert code == 0
    corpus = read_corpus_file(gold_file)
    cfg = SnippetConfig(mode="context_window", window=2, tc_mode="tags")
    expected = [format_example(e) for e in examples_for_corpus(corpus, cfg)]
    assert out.splitlines() == expected


def test_snippetize_to_file_and_surface_only(tmp_path, capsys, gold_file):
    out_path = tmp_path / "snips.tsv"
    code, out, _ = run(capsys, "snippetize", gold_file, "--surface-only",
                       "--out", str(out_path))
    assert code == 0 and out == ""
    lines = out_path.read_text(encoding="utf-8").split("\n")[:-1]
    assert lines
    # surface-only examples keep the tab but have an empty target column
    assert all(line.endswith("\t") and line.count("\t") == 1 for line in lines)


def test_config_file_sets_options_and_flags_win(tmp_path, capsys, gold_file):
    cfg = tmp_path / "opts.cfg"
    cfg.write_text("# snippet options\nwindow = 2\ntc = tags\n", encoding="utf-8")
    _, from_config, _ = run(capsys, "snippetize", gold_file, "--config", str(cfg))
    _, explicit, _ = run(capsys, "snippetize", gold_file, "--window", "2", "--tc", "tags")
    assert from_config == explicit
    _, overridden, _ = run(capsys, "snippetize", gold_file, "--config", str(cfg),
                           "--window", "1")
    _, window_one, _ = run(capsys, "snippetize", gold_file, "--window", "1",
                           "--tc", "tags")
    assert overridden == window_one
    assert overridden != from_config


def test_config_file_errors(tmp_path, capsys, gold_file):
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("windowz=2\n", encoding="utf-8")
    code, _, err = run(capsys, "snippetize", gold_file, "--config", str(unknown))
    assert code == 1 and "unknown option" in err
    bad_value = tmp_path / "badvalue.cfg"
    bad_value.write_text("window=two\n", encoding="utf-8")
    code, _, err = run(capsys, "snippetize", gold_file, "--config", str(bad_value))
    assert code == 1 and "badvalue.cfg:1" in err
    no_equals = tmp_path / "noeq.cfg"
    no_equals.write_text("window\n", encoding="utf-8")
    code, _, err = run(capsys, "snippetize", gold_file, "--config", str(no_equals))
    assert code == 1 and "key=value" in err
    code, _, err = run(capsys, "snippetize", gold_file, "--config",
                       str(tmp_path / "absent.cfg"))
    assert code == 1


def test_config_file_may_start_with_a_byte_order_mark(tmp_path, capsys, gold_file):
    cfg = tmp_path / "bom.cfg"
    cfg.write_bytes(b"\xef\xbb\xbfwindow = 2\r\ntc = tags\r\n")
    code, from_config, err = run(capsys, "snippetize", gold_file, "--config", str(cfg))
    assert code == 0, err
    _, explicit, _ = run(capsys, "snippetize", gold_file, "--window", "2", "--tc", "tags")
    assert from_config == explicit


def test_config_file_not_utf8_is_a_usage_error_at_its_line(tmp_path, capsys, gold_file):
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes(b"window = 2\n# caf\xe9\n")
    code, _, err = run(capsys, "snippetize", gold_file, "--config", str(cfg))
    assert code == 1
    assert f"{cfg}:2:" in err


def test_invalid_flag_values_are_usage_errors(capsys, gold_file):
    code, _, err = run(capsys, "snippetize", gold_file, "--window", "-1")
    assert code == 1 and "error:" in err
    code, _, _ = run(capsys, "snippetize", gold_file, "--mode", "sideways")
    assert code == 1
    code, _, _ = run(capsys)
    assert code == 1


def test_optional_number_flags_name_their_type(capsys, tmp_path):
    code, _, err = run(capsys, "predict", str(tmp_path / "no.ckpt"), str(tmp_path / "no.tsv"),
                       "--out", str(tmp_path / "o.tsv"), "--max-length", "abc")
    assert code == 1 and "argument --max-length: invalid int value: 'abc'" in err
    code, _, err = run(capsys, "train", str(tmp_path / "no.tsv"), str(tmp_path / "no.tsv"),
                       "--checkpoint-dir", str(tmp_path / "run"), "--clip-norm", "x")
    assert code == 1 and "argument --clip-norm: invalid float value: 'x'" in err


def test_vote_needs_context_window_before_any_file_access(capsys, tmp_path):
    code, _, err = run(capsys, "predict", str(tmp_path / "no.ckpt"),
                       str(tmp_path / "no.tsv"), "--out", str(tmp_path / "o.tsv"),
                       "--mode", "full_sequence", "--vote")
    assert code == 1
    assert "context_window" in err


def test_vote_over_partial_context_units_is_refused_before_any_file_access(capsys, tmp_path):
    code, _, err = run(capsys, "predict", str(tmp_path / "no.ckpt"),
                       str(tmp_path / "no.tsv"), "--out", str(tmp_path / "o.tsv"),
                       "--tc", "lemmata", "--vote")
    assert code == 1
    assert "voting requires" in err
    assert not (tmp_path / "o.tsv").exists()


def test_predict_rejects_bad_beam_before_loading(capsys, tmp_path):
    code, _, _ = run(capsys, "predict", str(tmp_path / "no.ckpt"),
                     str(tmp_path / "no.tsv"), "--out", str(tmp_path / "o.tsv"),
                     "--beam", "0")
    assert code == 1


def test_predict_empty_corpus_writes_empty_output(capsys, tmp_path):
    vocab = Vocab(CONTROL_SYMBOLS + ("a",), CONTROL_SYMBOLS + ("b",))
    model = init_model(ModelConfig(vocab.source_size, vocab.target_size,
                                   embedding_size=2, hidden_units=2, layers=1))
    ckpt = tmp_path / "tiny.ckpt"
    save_model(model, vocab, ckpt)
    empty = tmp_path / "empty.tsv"
    empty.write_text("", encoding="utf-8")
    out, flags = tmp_path / "o.tsv", tmp_path / "flags.txt"
    for extra in ((), ("--vote", "--beam", "3"), ("--mode", "full_sequence")):
        code, _, err = run(capsys, "predict", str(ckpt), str(empty), "--out", str(out),
                           "--flags-out", str(flags), *extra)
        assert code == 0, err
        assert out.read_text(encoding="utf-8") == ""
        assert flags.read_text(encoding="utf-8") == ""


def test_predict_corrupt_checkpoint_is_a_data_error(capsys, tmp_path, gold_file):
    ckpt = tmp_path / "junk.ckpt"
    ckpt.write_bytes(b"\x00" * 64)
    code, _, err = run(capsys, "predict", str(ckpt), gold_file,
                       "--out", str(tmp_path / "o.tsv"))
    assert code == 2 and "error:" in err


@pytest.mark.parametrize("key, edit", [
    ("config", lambda config: {k: v for k, v in config.items() if k != "source_vocab_size"}),
    ("config", lambda config: dict(config, beam_width=5)),
    ("config", lambda config: list(config.values())),
    ("config", lambda config: dict(config, layers=1.0)),
    ("config", lambda config: dict(config, hidden_units=64.0)),
    ("config", lambda config: dict(config, embedding_size=True)),
    ("config", lambda config: dict(config, rng_seed=1.5)),
    ("config", lambda config: dict(config, dropout_p=False)),
    ("min_freq", lambda min_freq: 0),
    ("min_freq", lambda min_freq: "x"),
    ("min_freq", lambda min_freq: 1.5),
    ("min_freq", lambda min_freq: None),
    ("config", lambda config: dict(config, source_vocab_size=config["source_vocab_size"] + 1)),
    ("target_symbols", lambda symbols: symbols[:-1] + [5]),
    ("target_symbols", lambda symbols: symbols[:-1] + [""]),
    ("target_symbols", lambda symbols: symbols[:-1] + ["\t"]),
    ("target_symbols", lambda symbols: symbols[:-1] + ["\r"]),
    ("target_symbols", lambda symbols: symbols[:-1] + ["+_"]),
    ("target_symbols", lambda symbols: symbols[:-1] + ["+a;b"]),
    ("target_symbols", lambda symbols: symbols[:-1] + ["ab"]),
], ids=["missing-field", "unknown-field", "not-an-object", "float-layers",
        "float-hidden-units", "bool-embedding-size", "float-rng-seed", "bool-dropout",
        "zero-min-freq", "text-min-freq", "float-min-freq", "null-min-freq", "vocab-size-mismatch",
        "int-symbol", "empty-symbol", "tab-symbol", "cr-symbol", "empty-tag-grammeme",
        "multi-grammeme-symbol", "multi-character-symbol"])
def test_predict_checkpoint_with_bad_config_is_a_data_error(capsys, tmp_path, gold_file, key,
                                                            edit):
    vocab = Vocab(CONTROL_SYMBOLS + ("a",), CONTROL_SYMBOLS + ("b",))
    model = init_model(ModelConfig(vocab.source_size, vocab.target_size,
                                   embedding_size=2, hidden_units=2, layers=1))
    ckpt = tmp_path / "bad-config.ckpt"
    save_model(model, vocab, ckpt)
    # rewrite one header field and give the file a valid checksum again
    body = ckpt.read_bytes()[:-4]
    (header_len,) = struct.unpack("<Q", body[8:16])
    header = json.loads(body[16:16 + header_len])
    header[key] = edit(header[key])
    text = json.dumps(header).encode("utf-8")
    body = body[:8] + struct.pack("<Q", len(text)) + text + body[16 + header_len:]
    ckpt.write_bytes(body + struct.pack("<I", zlib.crc32(body)))
    with pytest.raises(CheckpointError, match="malformed checkpoint header"):
        load_model(ckpt)
    code, _, err = run(capsys, "predict", str(ckpt), gold_file,
                       "--out", str(tmp_path / "o.tsv"))
    assert code == 2 and "malformed checkpoint header" in err


def test_train_divergence_exits_three(capsys, monkeypatch, tmp_path, gold_file):
    def blow_up(*args, **kwargs):
        raise TrainingDivergedError("step 3: non-finite loss")

    monkeypatch.setattr(cli, "train", blow_up)
    code, _, err = run(capsys, "train", gold_file, gold_file,
                       "--checkpoint-dir", str(tmp_path / "run"),
                       "--steps", "2", "--checkpoint-every", "2",
                       "--embedding-size", "8", "--hidden-units", "8",
                       "--layers", "1")
    assert code == 3
    assert "step 3" in err


def test_train_rejects_uneven_checkpoint_interval(capsys, tmp_path, gold_file):
    code, _, err = run(capsys, "train", gold_file, gold_file,
                       "--checkpoint-dir", str(tmp_path / "run"),
                       "--steps", "5", "--checkpoint-every", "2")
    assert code == 1
    assert "divide" in err


def test_train_rejects_an_empty_dev_corpus(capsys, tmp_path, gold_file):
    empty = tmp_path / "dev.tsv"
    empty.write_text("", encoding="utf-8")
    code, _, err = run(capsys, "train", gold_file, str(empty),
                       "--checkpoint-dir", str(tmp_path / "run"),
                       "--steps", "2", "--checkpoint-every", "2")
    assert code == 3
    assert "empty dev corpus" in err
    assert not (tmp_path / "run").exists()


def test_train_rejects_min_freq_below_one(capsys, tmp_path, gold_file):
    code, _, err = run(capsys, "train", gold_file, gold_file,
                       "--checkpoint-dir", str(tmp_path / "run"),
                       "--steps", "2", "--checkpoint-every", "2", "--min-freq", "0")
    assert code == 1
    assert "min_freq must be an integer >= 1" in err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("flag, value", [
    ("--lr", "nan"), ("--lr", "inf"), ("--clip-norm", "nan"),
])
def test_train_rejects_non_finite_learning_settings(capsys, tmp_path, gold_file, flag, value):
    code, _, err = run(capsys, "train", gold_file, gold_file,
                       "--checkpoint-dir", str(tmp_path / "run"),
                       "--steps", "2", "--checkpoint-every", "2",
                       "--embedding-size", "8", "--hidden-units", "8",
                       "--layers", "1", flag, value)
    assert code == 1
    assert "finite" in err
    assert not (tmp_path / "run").exists()


def test_train_out_of_memory_exits_three(capsys, tmp_path, gold_file):
    # a (4, 4e13) float64 weight draw is larger than a 47-bit address
    # space, so the allocation fails at once, whatever the overcommit setting
    code, _, err = run(capsys, "train", gold_file, gold_file,
                       "--checkpoint-dir", str(tmp_path / "run"),
                       "--steps", "2", "--checkpoint-every", "2",
                       "--embedding-size", "4", "--hidden-units", str(10**13),
                       "--layers", "1")
    assert code == 3
    assert err.startswith("error: Unable to allocate")
    assert not (tmp_path / "run").exists()


def _refused_text(field):
    """A config-file value that ``field``'s rule refuses."""
    bounds = field.metadata["rule"]
    if "choices" in bounds:
        return "bogus"
    if "minimum" in bounds:
        return str(bounds["minimum"] - 1)
    return str(bounds["high"]) if bounds.get("closed_low") else "0"


_TRAIN_RULES = [(key, field) for key, (owner, name) in cli._OPTIONS.items()
                if owner in (SnippetConfig, ModelConfig, TrainConfig)
                for field in dataclasses.fields(owner)
                if field.name == name and "rule" in field.metadata]


def test_every_ruled_train_option_is_walked():
    assert [key for key, _ in _TRAIN_RULES] == [
        "mode", "window", "tc", "embedding_size", "hidden_units", "layers", "dropout",
        "steps", "checkpoint_every", "lr", "lr_halve_start", "lr_halve_every",
        "batch_size", "clip_norm", "selection_metric", "seed"]


@pytest.mark.parametrize("key, field", _TRAIN_RULES, ids=[key for key, _ in _TRAIN_RULES])
def test_train_config_value_outside_its_rule_is_a_usage_error(capsys, tmp_path, gold_file,
                                                              key, field):
    # a small run that the refused value, the file's last line, overrides
    config = tmp_path / "train.cfg"
    config.write_text("embedding_size=8\nhidden_units=8\nlayers=1\nsteps=2\n"
                      f"checkpoint_every=2\n{key}={_refused_text(field)}\n", encoding="utf-8")
    run_dir = tmp_path / "run"
    code, out, err = run(capsys, "train", gold_file, gold_file, "--checkpoint-dir", str(run_dir),
                         "--config", str(config))
    assert code == 1
    assert err.startswith(f"error: {field.name} must ") and out == ""
    assert not run_dir.exists()


def test_train_outputs_match_golden_digests(capsys, tmp_path, gold_file):
    # 6 steps over 4 batches an epoch: an epoch boundary, clipping, the
    # halving schedule, dropout and a tie in the selection metric
    run_dir = tmp_path / "run"
    code, out, err = run(capsys, "train", gold_file, gold_file, "--checkpoint-dir", str(run_dir),
                         "--steps", "6", "--checkpoint-every", "2", "--embedding-size", "8",
                         "--hidden-units", "8", "--layers", "2", "--batch-size", "4",
                         "--seed", "5", "--lr", "0.5", "--clip-norm", "1.0",
                         "--lr-halve-start", "2", "--lr-halve-every", "2")
    assert code == 0, err
    assert out.startswith("selected step 2\n")
    digests = {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest()
               for name in ("train_report.json", "training.log")}
    assert digests == {
        "train_report.json": "1ebe8f616db571482e3e5c363f7b652190fcc0c66315e5fdbeeddb80920807f2",
        "training.log": "b6cf8a858b62a003c01c279be791314e12ee52e846fb6920e88fa3a3f4d87eff",
    }


def test_full_round_trip(tmp_path, capsys, gold_file):
    run_dir = tmp_path / "run"
    code, out, _ = run(capsys, "train", gold_file, gold_file,
                       "--checkpoint-dir", str(run_dir),
                       "--steps", "4", "--checkpoint-every", "2",
                       "--embedding-size", "8", "--hidden-units", "8",
                       "--layers", "1", "--dropout", "0.0",
                       "--batch-size", "16", "--seed", "0")
    assert code == 0
    assert "selected step" in out
    report = json.loads((run_dir / "train_report.json").read_text(encoding="utf-8"))
    assert report["selection_metric"] == "analysis_accuracy"
    assert [c["step"] for c in report["checkpoints"]] == [2, 4]
    assert (run_dir / "best.ckpt").exists()

    pred_path = tmp_path / "pred.tsv"
    flags_path = tmp_path / "flags.tsv"
    code, _, _ = run(capsys, "predict", str(run_dir / "best.ckpt"), gold_file,
                     "--out", str(pred_path), "--flags-out", str(flags_path),
                     "--beam", "2", "--max-length", "8")
    assert code == 0
    predicted = read_corpus_file(str(pred_path))
    gold = read_corpus_file(gold_file)
    assert len(predicted) == len(gold)
    flag_lines = flags_path.read_text(encoding="utf-8").splitlines()
    assert len(flag_lines) == len(gold)
    for line, sent in zip(flag_lines, gold.sentences):
        assert len(line.split("\t")) == len(sent)

    code, out, _ = run(capsys, "evaluate", str(pred_path), gold_file,
                       "--reference", gold_file, "--kv")
    assert code == 0
    assert "metric" in out and "oov" in out and "seen" in out
    assert any(line.startswith("overall.analysis_accuracy=") for line in out.splitlines())


def test_evaluate_misaligned_is_a_data_error(tmp_path, capsys, gold_file):
    other = tmp_path / "other.tsv"
    other.write_text(write_corpus(make_corpus(3, seed=1)), encoding="utf-8")
    code, _, err = run(capsys, "evaluate", str(other), gold_file)
    assert code == 2
    assert "error:" in err


def test_evaluate_plain_table(tmp_path, capsys, gold_file):
    code, out, _ = run(capsys, "evaluate", gold_file, gold_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["metric", "overall"]
    table = {line.split()[0]: line.split()[1] for line in lines[1:]}
    assert table["lemma_accuracy"] == "1.0000"
    assert table["avg_lemma_distance"] == "0.0000"
    assert table["analysis_accuracy"] == "1.0000"


def _scored_files(tmp_path):
    """A gold corpus, a prediction with wrong lemmata and tags, and a
    reference that has seen some of the gold lexical forms."""
    gold = make_corpus(6, seed=0)

    def predicted(k, tok):
        lemma = tok.gold.lemma + ("x" if k % 3 == 0 else "")
        tag = MorphoTag(("n", "sg")) if k % 4 == 0 else tok.gold.tag
        return Token(tok.surface, Analysis(lemma, tag))

    pred = Corpus(tuple(Sentence(tuple(predicted(s + j, tok) for j, tok in enumerate(sent.tokens)))
                        for s, sent in enumerate(gold)))
    paths = {}
    for name, corpus in (("pred", pred), ("gold", gold), ("ref", make_corpus(2, seed=0))):
        paths[name] = tmp_path / f"{name}.tsv"
        paths[name].write_text(write_corpus(corpus), encoding="utf-8")
    return paths


def _digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def test_evaluate_output_bytes_are_pinned(tmp_path, capsys):
    paths = _scored_files(tmp_path)
    code, table, err = run(capsys, "evaluate", str(paths["pred"]), str(paths["gold"]))
    assert code == 0, err
    code, split_kv, err = run(capsys, "evaluate", str(paths["pred"]), str(paths["gold"]),
                              "--reference", str(paths["ref"]), "--kv")
    assert code == 0, err
    assert "oov" in split_kv and "overall.token_count=" in split_kv
    assert {"table": _digest(table), "split_kv": _digest(split_kv)} == {
        "table": "8208dc6f3df081465b933731e3c1f857a547d136dec7dbd444a7dd09c977a960",
        "split_kv": "3ab17d1945a652e5ef2f511a761257b6127458c6ef26fb0c05ce94d0cc534567",
    }


@pytest.mark.skipif(sys.version_info[:2] != (3, 11),
                    reason="argparse lays out help differently in other Python releases")
def test_help_bytes_are_pinned(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    digests = {}
    for sub in ("stats", "snippetize", "train", "predict", "evaluate"):
        with pytest.raises(SystemExit) as exit_:
            main([sub, "--help"])
        assert exit_.value.code == 0
        digests[sub] = _digest(capsys.readouterr().out)
    assert digests == {
        "stats": "a5dead73bcfcfaf95ebfdc58fecb53216a18eef87ddc231518d3b88c4e8d6dc2",
        "snippetize": "94bb6d74dd4c700b1824860410d60dfb056d88cb8d9ea2e1db102feba75a73d8",
        "train": "4c1d12a09e1da5ccc111e04cd93f8ba4ff7308bd4139a34483ccd299556c8de4",
        "predict": "239ea529b480216c9259ac22a2590696484dfc86307bb3ff6441dc9401820224",
        "evaluate": "e6db9ad8accecc042e0a002f7dd74978f47c369ea2d77cf3df4dd96c50bcb6be",
    }


@pytest.mark.parametrize("config", ["absent", "latin1", "unknown"])
def test_stats_and_evaluate_read_the_config_file(tmp_path, capsys, gold_file, config):
    path = tmp_path / f"{config}.cfg"
    if config == "latin1":
        path.write_bytes(b"window = 2\n# caf\xe9\n")
    elif config == "unknown":
        path.write_text("window = 2\nwindowz = 2\n", encoding="utf-8")
    for argv in (("stats", gold_file), ("evaluate", gold_file, gold_file)):
        code, out, err = run(capsys, *argv, "--config", str(path))
        assert code == 1 and out == ""
        if config != "absent":
            assert f"{path}:2:" in err
