"""Seeded mutation fuzzing of every input format the CLI reads: corpora
(LF and CRLF renderings), config files and checkpoint headers.

Each test mutates a small valid input with numpy's generator seeded from
``SEED`` and runs the subcommands on it in-process through ``cli.main``.
A run may succeed or fail as a usage (1) or data (2) error, never as a
runtime failure (3) or an uncaught exception, and a corpus file that
reads is read back equal from the file ``write_corpus`` makes of it.
The three tests share a budget of ``BUDGET_S`` seconds; a test that runs
out of its share stops early and prints how many mutations it ran.
"""

import json
import re
import struct
import time
import zlib

import numpy as np
import pytest

from lemtag import cli
from lemtag.conllu import CorpusFormatError, read_corpus_file, write_corpus
from lemtag.model import ModelConfig, init_model, save_model
from lemtag.snippets import SnippetConfig, build_vocab, examples_for_corpus
from toycorpus import make_corpus

SEED = 0
BUDGET_S = 5.0
INSERTS = (b"\t", b"\r", b"\xef\xbb\xbf", b"\x00", b" ", b"\n")


def _mutate(data: bytes, rng) -> bytes:
    """One to three byte flips, deletions, truncations or insertions; half
    the insertions go next to a tab, CR or newline, where fields meet."""
    data = bytearray(data)
    for _ in range(int(rng.integers(1, 4))):
        at = int(rng.integers(0, len(data) + 1))
        kind = int(rng.integers(0, 6))
        if kind == 0 and at < len(data):
            data[at] ^= 1 << int(rng.integers(0, 8))
        elif kind == 1:
            del data[at:at + int(rng.integers(1, 4))]
        elif kind == 2:
            del data[at:]
        elif kind >= 3:
            seams = [i for i, byte in enumerate(data) if byte in b"\t\r\n"]
            if seams and rng.random() < 0.5:
                at = seams[int(rng.integers(0, len(seams)))] + int(rng.integers(0, 2))
            data[at:at] = INSERTS[int(rng.integers(0, len(INSERTS)))]
    return bytes(data)


def _runs(count, share):
    """range(count), cut short once ``share`` of the budget is spent."""
    deadline = time.monotonic() + share * BUDGET_S
    for i in range(count):
        if time.monotonic() > deadline:
            print(f"budget spent after {i} of {count} mutations")
            return
        yield i
    print(f"{count} mutations")


def _main(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    assert code in (0, 1, 2), (argv, err)
    return code, err


def _corpus_text():
    text = write_corpus(make_corpus(4, seed=0))
    return "# comment\n" + text + "owls\towl\t_\n"


@pytest.fixture
def gold_path(tmp_path):
    path = tmp_path / "gold.tsv"
    path.write_text(_corpus_text(), encoding="utf-8")
    return path


def test_mutated_corpora(tmp_path, capsys, gold_path):
    text = _corpus_text()
    renderings = (text.encode("utf-8"), b"\xef\xbb\xbf" + text.replace("\n", "\r\n").encode())
    rng = np.random.default_rng((SEED, 1))
    path, out, written = tmp_path / "mutated.tsv", tmp_path / "out.txt", tmp_path / "written.tsv"
    for i in _runs(200, 0.4):
        path.write_bytes(_mutate(renderings[i % 2], rng))
        try:
            corpus = read_corpus_file(path)
        except CorpusFormatError as err:
            corpus = None
            assert err.line is not None, err
            code, msg = _main(capsys, "stats", path, "--reference", path)
            assert code == 2 and msg == f"error: {err}\n"
            assert msg.startswith(f"error: line {err.line}: ")
        else:
            written.write_bytes(write_corpus(corpus).encode("utf-8"))
            assert read_corpus_file(written) == corpus, path.read_bytes()
            assert _main(capsys, "stats", path, "--reference", path)[0] == 0
        code, _ = _main(capsys, "snippetize", path, "--out", out)
        assert code == (0 if corpus is not None else 2)
        _main(capsys, "evaluate", path, gold_path)


def test_mutated_config_files(tmp_path, capsys, gold_path):
    base = ("# options\nmode = context_window\nwindow = 2\ntc = tags\nmin_freq = 1\n"
            "clip_norm = none\nretain_all = yes\nlr = 0.5\nbeam = 3\nvote = off\n").encode()
    rng = np.random.default_rng((SEED, 2))
    path, out = tmp_path / "mutated.cfg", tmp_path / "out.txt"
    for i in _runs(150, 0.2):
        path.write_bytes(_mutate(base, rng))
        try:
            cli._read_config_file(path)
        except cli.UsageError as err:
            assert re.match(rf"{re.escape(str(path))}:\d+: ", str(err)), err
            for argv in (("stats", gold_path), ("snippetize", gold_path, "--out", out)):
                assert _main(capsys, *argv, "--config", path) == (1, f"error: {err}\n")
        else:
            assert _main(capsys, "stats", gold_path, "--config", path)[0] == 0
            # a well-formed value can still be out of range (window = -2)
            assert _main(capsys, "snippetize", gold_path, "--config", path,
                         "--out", out)[0] in (0, 1)


def _retyped(value, rng):
    if isinstance(value, str) and value and rng.random() < 0.5:
        at = int(rng.integers(0, len(value) + 1))
        return value[:at] + "\t\r\n ;+_"[int(rng.integers(0, 7))] + value[at:]
    others = (0, -1, 2, 1.5, True, None, "", "x", "+x", [], {}, [value])
    return others[int(rng.integers(0, len(others)))]


def test_mutated_checkpoint_headers(tmp_path, capsys, gold_path):
    snip = SnippetConfig()
    vocab = build_vocab(examples_for_corpus(read_corpus_file(gold_path), snip))
    model = init_model(ModelConfig(vocab.source_size, vocab.target_size,
                                   embedding_size=4, hidden_units=4, layers=1))
    ckpt, out = tmp_path / "tiny.ckpt", tmp_path / "pred.tsv"
    save_model(model, vocab, ckpt)
    body = ckpt.read_bytes()[:-4]
    (header_len,) = struct.unpack("<Q", body[8:16])
    original = body[16:16 + header_len]
    tensors = body[16 + header_len:]
    rng = np.random.default_rng((SEED, 3))
    for _ in _runs(250, 0.4):
        header = json.loads(original)
        # a slot is a (container, key) pair anywhere in the header
        slots = [(header, k) for k in header]
        slots += [(header["config"], k) for k in header["config"]]
        for key in ("source_symbols", "target_symbols"):
            slots += [(header[key], i) for i in range(len(header[key]))]
        for _ in range(int(rng.integers(1, 3))):
            (c1, k1), (c2, k2) = (slots[int(i)] for i in rng.integers(0, len(slots), 2))
            scalars = not isinstance(c1[k1], (dict, list)) and not isinstance(c2[k2], (dict, list))
            if scalars and rng.random() < 0.5:
                c1[k1], c2[k2] = c2[k2], c1[k1]
            else:
                c1[k1] = _retyped(c1[k1], rng)
        text = json.dumps(header).encode("utf-8")
        mutated = body[:8] + struct.pack("<Q", len(text)) + text + tensors
        ckpt.write_bytes(mutated + struct.pack("<I", zlib.crc32(mutated)))
        _main(capsys, "predict", ckpt, gold_path, "--out", out, "--max-length", "4")
