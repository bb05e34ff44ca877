"""Command-line entry point: stats, snippetize, train, predict, evaluate.

Exit codes: 0 success, 1 usage error, 2 data error (unreadable or
malformed inputs), 3 runtime failure.  Every subcommand reads its config
file of key=value lines, which can preset any option; explicit flags win.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import sys

from .conllu import (CorpusFormatError, corpus_stats, read_corpus_file,
                     read_text_file, write_corpus)
from .decode import DecodeConfig, check_voting, predict_corpus
from .metrics import EvalAlignmentError, SplitScores, evaluate
from .model import CheckpointError, ModelConfig, init_model, load_model
from .snippets import SnippetConfig, build_vocab, examples_for_corpus, format_example
from .training import TrainConfig, TrainingDivergedError, train


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _parse_bool(raw):
    low = raw.strip().lower()
    if low in ("1", "true", "yes", "on"):
        return True
    if low in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"not a boolean: {raw!r}")


def _parse_optional(cast):
    """``cast``, or None for "none"; named after ``cast``, as argparse
    errors name the parser ("invalid int value")."""
    def parse(raw):
        return None if raw.strip().lower() == "none" else cast(raw)
    parse.__name__ = cast.__name__
    return parse


# option -> (config class or function, field or parameter); each option's
# default and type come from that field, and its choices from the field's rule
_OPTIONS = {
    "mode": (SnippetConfig, "mode"),
    "window": (SnippetConfig, "window"),
    "tc": (SnippetConfig, "tc_mode"),
    "min_freq": (build_vocab, "min_freq"),
    "embedding_size": (ModelConfig, "embedding_size"),
    "hidden_units": (ModelConfig, "hidden_units"),
    "layers": (ModelConfig, "layers"),
    "dropout": (ModelConfig, "dropout_p"),
    "steps": (TrainConfig, "total_steps"),
    "checkpoint_every": (TrainConfig, "checkpoint_every"),
    "lr": (TrainConfig, "lr_initial"),
    "lr_halve_start": (TrainConfig, "lr_halve_start_step"),
    "lr_halve_every": (TrainConfig, "lr_halve_every"),
    "batch_size": (TrainConfig, "batch_size"),
    "clip_norm": (TrainConfig, "clip_norm"),
    "selection_metric": (TrainConfig, "selection_metric"),
    "seed": (TrainConfig, "rng_seed"),
    "retain_all": (TrainConfig, "retain_all"),
    "beam": (DecodeConfig, "beam_size"),
    "max_length": (DecodeConfig, "max_length"),
    "vote": (predict_corpus, "voting"),
}

_PARSERS = {"int": int, "float": float, "str": str, "bool": _parse_bool,
            "int | None": _parse_optional(int), "float | None": _parse_optional(float)}

_FIELDS = {key: inspect.signature(owner).parameters[name]
           for key, (owner, name) in _OPTIONS.items()}

_RULES = {key: owner.__dataclass_fields__[name].metadata.get("rule", {})
          for key, (owner, name) in _OPTIONS.items() if dataclasses.is_dataclass(owner)}


def _cast(key):
    return _PARSERS[_FIELDS[key].annotation]


def _read_config_file(path):
    try:
        text = read_text_file(path)
    except OSError as err:
        raise UsageError(f"cannot read config file: {err}") from None
    except CorpusFormatError as err:
        raise UsageError(f"{path}:{err.line}: not valid UTF-8") from None
    values = {}
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected key=value")
        key, _, raw = line.partition("=")
        key = key.strip()
        if key not in _OPTIONS:
            raise UsageError(f"{path}:{lineno}: unknown option {key!r}")
        try:
            values[key] = _cast(key)(raw.strip())
        except ValueError as err:
            raise UsageError(f"{path}:{lineno}: {err}") from None
    return values


def _settings(args):
    """Builtin defaults, overridden by the config file, overridden by flags."""
    values = {key: field.default for key, field in _FIELDS.items()}
    if getattr(args, "config", None):
        values.update(_read_config_file(args.config))
    for key in _OPTIONS:
        flag = getattr(args, key, None)
        if flag is not None:
            values[key] = flag
    return values


def _checked(ctor, **kwargs):
    try:
        return ctor(**kwargs)
    except ValueError as err:
        raise UsageError(str(err)) from None


def _config(owner, s, **extra):
    """``owner`` called with the settings of the options mapped to it."""
    fields = {name: s[key] for key, (o, name) in _OPTIONS.items() if o is owner}
    return _checked(owner, **fields, **extra)


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as f:
        f.write(text)


def _write_lines(path, lines):
    """One newline-terminated line per entry to ``path``, or to stdout
    without one; no lines write nothing."""
    text = "".join(line + "\n" for line in lines)
    if path:
        _write_text(path, text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# subcommands


def run_stats(args, s):
    corpus = read_corpus_file(args.corpus, mode="gold")
    reference = read_corpus_file(args.reference, mode="gold") if args.reference else None
    stats = corpus_stats(corpus, reference)
    print(f"sentences {stats.sentence_count}")
    print(f"tokens {stats.token_count}")
    print(f"grammeme-form {stats.grammeme_form_ratio:.2f}")
    if stats.oov_rate is not None:
        print(f"oov_rate {stats.oov_rate:.3f}")
    return 0


def run_snippetize(args, s):
    snip_cfg = _config(SnippetConfig, s)
    mode = "surface_only" if args.surface_only else "gold"
    corpus = read_corpus_file(args.corpus, mode=mode)
    _write_lines(args.out, (format_example(e) for e in examples_for_corpus(corpus, snip_cfg)))
    return 0


def run_train(args, s):
    snip_cfg = _config(SnippetConfig, s)
    train_cfg = _config(TrainConfig, s, checkpoint_dir=args.checkpoint_dir)

    train_corpus = read_corpus_file(args.train_corpus, mode="gold")
    dev_corpus = read_corpus_file(args.dev_corpus, mode="gold")
    examples = examples_for_corpus(train_corpus, snip_cfg)
    vocab = _config(build_vocab, s, examples=examples)
    model_cfg = _config(
        ModelConfig, s, source_vocab_size=vocab.source_size,
        target_vocab_size=vocab.target_size, rng_seed=s["seed"])
    model = init_model(model_cfg)
    _, report = train(model, examples, dev_corpus, vocab, snip_cfg, train_cfg)
    best = next(r for r in report.checkpoints if r.step == report.selected_step)
    print(f"selected step {report.selected_step}")
    for key, value in best.dev_metrics.items():
        print(f"{key} {value:.4f}")
    return 0


def run_predict(args, s):
    snip_cfg = _config(SnippetConfig, s)
    voting = bool(s["vote"])
    if voting:
        _checked(check_voting, snippet_cfg=snip_cfg)
    decode_cfg = _config(DecodeConfig, s)
    model, vocab = load_model(args.checkpoint)
    corpus = read_corpus_file(args.corpus, mode="surface_only")
    predicted, flags = predict_corpus(model, corpus, vocab, snip_cfg, decode_cfg, voting)
    _write_text(args.out, write_corpus(predicted))
    if args.flags_out:
        _write_lines(args.flags_out, ("\t".join(f or "-" for f in sent) for sent in flags))
    return 0


def run_evaluate(args, s):
    pred = read_corpus_file(args.pred, mode="gold")
    gold = read_corpus_file(args.gold, mode="gold")
    reference = read_corpus_file(args.reference, mode="gold") if args.reference else None
    report = evaluate(pred, gold, reference)
    splits = [("overall", report.overall)]
    if report.oov is not None:
        splits.append(("oov", report.oov))
        splits.append(("seen", report.seen))
    names = [name for name, _ in splits]
    print("{:<20}".format("metric") + "".join(f"{n:>12}" for n in names))
    for name in (field.name for field in dataclasses.fields(SplitScores)):
        label, fmt = ("tokens", "{:d}") if name == "token_count" else (name, "{:.4f}")
        cells = "".join(f"{fmt.format(getattr(sc, name)):>12}" for _, sc in splits)
        print(f"{label:<20}" + cells)
    if args.kv:
        for name, sc in splits:
            for key, value in dataclasses.asdict(sc).items():
                print(f"{name}.{key}={value}")
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_options(parser, *owners):
    """Flags, in ``_OPTIONS`` order, for the options ``owners`` hold.  They
    default to None, so that the config file and defaults fill in the rest."""
    for key in (key for key, (owner, _) in _OPTIONS.items() if owner in owners):
        flag = "--" + key.replace("_", "-")
        if _FIELDS[key].annotation == "bool":
            parser.add_argument(flag, dest=key, action="store_true", default=None)
        else:
            parser.add_argument(flag, dest=key, type=_cast(key),
                                choices=_RULES.get(key, {}).get("choices"))


def build_parser() -> argparse.ArgumentParser:
    shared = _Parser(add_help=False)
    shared.add_argument("--config", help="key=value option file; flags override it")

    snippet_opts = _Parser(add_help=False)
    _add_options(snippet_opts, SnippetConfig)

    parser = _Parser(prog="lemtag",
                     description="Joint lemmatization and morphological tagging.")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("stats", parents=[shared], help="corpus statistics")
    p.add_argument("corpus")
    p.add_argument("--reference", help="training corpus for the OOV rate")
    p.set_defaults(func=run_stats)

    p = sub.add_parser("snippetize", parents=[shared, snippet_opts],
                       help="write source/target symbol lines")
    p.add_argument("corpus")
    p.add_argument("--out", help="output path (default stdout)")
    p.add_argument("--surface-only", action="store_true",
                   help="input has no gold analyses")
    p.set_defaults(func=run_snippetize)

    p = sub.add_parser("train", parents=[shared, snippet_opts], help="train a model")
    p.add_argument("train_corpus")
    p.add_argument("dev_corpus")
    p.add_argument("--checkpoint-dir", required=True)
    _add_options(p, build_vocab, ModelConfig, TrainConfig)
    p.set_defaults(func=run_train)

    p = sub.add_parser("predict", parents=[shared, snippet_opts],
                       help="analyze a surface corpus")
    p.add_argument("checkpoint")
    p.add_argument("corpus")
    p.add_argument("--out", required=True)
    p.add_argument("--flags-out", dest="flags_out",
                   help="per-token diagnostic flags, one line per sentence")
    _add_options(p, DecodeConfig, predict_corpus)
    p.set_defaults(func=run_predict)

    p = sub.add_parser("evaluate", parents=[shared], help="score predictions")
    p.add_argument("pred")
    p.add_argument("gold")
    p.add_argument("--reference", help="training corpus for the OOV split")
    p.add_argument("--kv", action="store_true", help="also print key=value lines")
    p.set_defaults(func=run_evaluate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, _settings(args))
    except UsageError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except (CorpusFormatError, CheckpointError, EvalAlignmentError,
            FileNotFoundError, IsADirectoryError, NotADirectoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (TrainingDivergedError, OSError, ValueError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
