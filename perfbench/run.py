"""lemtag benchmark: one workload per process, BLAS pinned to one thread.

    python3 perfbench/run.py --workload train-h64 --seed 1 --seconds 40 --trace 0

Run from anywhere; the package is imported from ``src/`` next to this
directory.  Every workload is a closed-loop, single-caller session of the
three jobs users wait on, each timed around one public call:

* train:  ``train()`` from ``init_model`` weights, with checkpoints, their
          saves and greedy dev evals (``train_examples_per_s``,
          ``train_loss``);
* greedy: ``predict_corpus`` with beam 1 and no voting, the dev-eval path
          (``greedy_tokens_per_s``);
* beam:   ``predict_corpus`` with beam 5 and ``voting=True``, the README's
          ``predict`` command (``beam5_vote_tokens_per_s``,
          ``analysis_accuracy``).

Both predict jobs decode with the checked-in trained model
``fixture/h64.ckpt`` (E32/H64/L2), so their decodes stop at the end symbol
as real ones do and both sides of a comparison decode with the same bytes.
The workloads differ in model size and in how the run's time is shared:

* train-h64:   E32/H64/L2 training, several checkpoints; bound by Python
               and small-op overhead in the recurrent core;
* train-h500:  the paper's E700/H500/L2 size for a few steps, one
               checkpoint, a tiny dev corpus; GEMM-bound, largest memory;
* predict-h64: most of the time in the two predict jobs (decode and
               inference-side model work) on a larger unseen corpus.

The jobs are interleaved, each runs at least twice, and each gets its share
of ``--seconds``.  Every timed call is calibrated against a fixed probe
run just before and after it (see ``Calibrator``), and a metric is the
median over its calibrated jobs.  ``setup_s`` (import, corpus read,
snippetizing, vocabulary, ``init_model`` and ``load_model``) is the median
of five calibrated set-ups.  ``--trace 1`` alternates untraced and traced jobs and
prints the per-layer metrics from the traced ones instead.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``attempted`` counts training
steps and predicted tokens; ``failed`` counts diverged steps and predicted
tokens flagged ``truncated`` or ``short``.
"""

from __future__ import annotations

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from dataclasses import dataclass  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402

import corpusgen  # noqa: E402
from spantrace import SpanIndex, Tracer  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURE = HERE / "fixture" / "h64.ckpt"
FIXTURE_SHA256 = "fca96e49ff8247b687c8478a08f693dc49e3388fb10424e0993ccfb020b498e3"

BATCH = 32
SETUP_REPEATS = 5
PHASES = ("train", "greedy", "beam")
ACCURACY_FLOOR = 0.3  # the fixture scores well above this on every seed tried
FLAGS_COUNTED = ("truncated", "short")


@dataclass(frozen=True)
class Workload:
    why: str
    embedding: int
    hidden: int
    train_tokens: int      # a multiple of BATCH, so every batch is full
    train_sentences: int
    epochs: int            # training steps = epochs * train_tokens / BATCH
    checkpoints: int
    dev_tokens: int
    dev_sentences: int
    test_sentences: int
    shares: tuple          # share of --seconds for the train, greedy, beam jobs

    def __post_init__(self):
        if self.train_tokens % BATCH or self.steps % self.checkpoints:
            raise ValueError("training must run whole batches and whole checkpoint intervals")

    @property
    def steps(self):
        return self.epochs * self.train_tokens // BATCH


WORKLOADS = {
    "train-h64": Workload(
        "train() at the test size: Python and small-op overhead, saves, dev evals",
        embedding=32, hidden=64, train_tokens=256, train_sentences=22, epochs=3,
        checkpoints=3, dev_tokens=6, dev_sentences=1, test_sentences=8,
        shares=(0.4, 0.25, 0.35)),
    "train-h500": Workload(
        "train() at the paper's size: GEMM-bound steps, sgd_update, peak memory",
        embedding=700, hidden=500, train_tokens=64, train_sentences=6, epochs=1,
        checkpoints=1, dev_tokens=3, dev_sentences=1, test_sentences=8,
        shares=(0.6, 0.12, 0.28)),
    "predict-h64": Workload(
        "predict_corpus greedy and beam 5 + vote on unseen sentences",
        embedding=32, hidden=64, train_tokens=128, train_sentences=11, epochs=2,
        checkpoints=1, dev_tokens=3, dev_sentences=1, test_sentences=8,
        shares=(0.1, 0.3, 0.6)),
}

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "train_examples_per_s": "1/s",
    "train_loss": "nats",
    "greedy_tokens_per_s": "1/s",
    "beam5_vote_tokens_per_s": "1/s",
    "analysis_accuracy": "share",
    "peak_rss_mb": "MB",
}


class BenchmarkError(Exception):
    """The benchmark cannot produce a result (missing package, no usable run)."""


# ---------------------------------------------------------------------------
# environment


def blas_info():
    """BLAS library, version and the thread count it reports."""
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name, version = deps.get("name", "?"), deps.get("version", "?")
    except (KeyError, TypeError):
        name = version = "?"
    threads = None
    symbols = ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
               "openblas_get_num_threads")
    try:
        with open("/proc/self/maps", encoding="utf-8", errors="replace") as maps:
            libs = sorted({line.split()[-1] for line in maps if "openblas" in line.lower()})
    except OSError:
        libs = []
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in symbols:
            if hasattr(lib, symbol):
                threads = int(getattr(lib, symbol)())
                break
        if threads is not None:
            break
    return name, version, threads


def fresh_import():
    """Import lemtag from this checkout's src/, dropping any earlier copy."""
    for name in [n for n in sys.modules if n == "lemtag" or n.startswith("lemtag.")]:
        del sys.modules[name]
    module = importlib.import_module("lemtag")
    if Path(module.__file__).resolve().parent != SRC / "lemtag":
        raise BenchmarkError(f"imported lemtag from {module.__file__}, not {SRC}")
    return module


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# ---------------------------------------------------------------------------
# statistics


def median(values):
    return statistics.median(values)


class Calibrator:
    """Scales wall times to the host's reference speed.

    Other tenants of a shared host slow everything on it, by up to 1.8x
    and for minutes at a time, so raw wall times of identical runs drift
    far more than any change worth detecting.  A fixed probe (a Python
    loop of small numpy LSTM-cell operations plus one medium GEMM, the mix
    lemtag itself runs) is timed just before and after each timed call;
    the call's wall time is multiplied by ``REFERENCE_S / probe``.  The
    probe does not touch lemtag, so a change to lemtag moves the
    calibrated times exactly as it moves the raw ones.
    """

    REFERENCE_S = 0.005  # the probe's time on the 2-vCPU host in a quiet spell
    REPEATS = 5

    def __init__(self):
        rng = np.random.default_rng(0)
        self.w = rng.standard_normal((128, 256)) * 0.1
        self.b = rng.standard_normal(256) * 0.1
        self.lhs = rng.standard_normal((32, 350))
        self.rhs = rng.standard_normal((350, 1000))

    def _kernel(self):
        h = np.zeros((4, 64))
        c = np.zeros((4, 64))
        x = np.ones((4, 64))
        for _ in range(120):
            z = np.concatenate([x, h], axis=1) @ self.w + self.b
            i = 0.5 * (1.0 + np.tanh(0.5 * z[:, :64]))
            f = 0.5 * (1.0 + np.tanh(0.5 * z[:, 64:128]))
            c = f * c + i * np.tanh(z[:, 128:192])
            h = np.tanh(c) * 0.5 * (1.0 + np.tanh(0.5 * z[:, 192:]))
        return self.lhs @ self.rhs

    def probe(self):
        times = []
        for _ in range(self.REPEATS):
            start = perf_counter()
            self._kernel()
            times.append(perf_counter() - start)
        return median(times)

    def timed(self, call):
        """Run ``call``; return (result, raw wall, calibrated wall)."""
        before = self.probe()
        start = perf_counter()
        result = call()
        wall = perf_counter() - start
        speed = (before + self.probe()) / 2
        return result, wall, wall * self.REFERENCE_S / speed


def high_percentile(values):
    """(p, value) for the highest whole percentile with at least ten samples
    above it, or None when there are too few samples."""
    n = len(values)
    if n < 11:
        return None
    p = math.floor(100 * (n - 10) / n)
    ordered = sorted(values)
    return p, ordered[max(0, math.ceil(p / 100 * n) - 1)]


def describe(values, unit):
    text = f"n={len(values)} median {median(values):.4f} {unit}"
    high = high_percentile(values)
    if high is None:
        return text + ", no percentile has 10 samples above it"
    return text + f", p{high[0]} {high[1]:.4f} {unit}"


# ---------------------------------------------------------------------------
# inputs and set-up


def write_inputs(workload: Workload, seed: int, workdir: Path):
    """Generate the seed's corpora as files; returns their paths and shapes."""
    train = corpusgen.make_sentences(workload.train_sentences, seed, 0,
                                     n_tokens=workload.train_tokens)
    dev = corpusgen.make_sentences(workload.dev_sentences, seed, 1,
                                   n_tokens=workload.dev_tokens)
    test = corpusgen.make_sentences(workload.test_sentences, seed, 2)
    paths = {
        "train": (workdir / "train.tsv", corpusgen.to_text(train)),
        "dev": (workdir / "dev.tsv", corpusgen.to_text(dev)),
        "test_gold": (workdir / "test.tsv", corpusgen.to_text(test)),
        "test_surface": (workdir / "test_surface.tsv", corpusgen.to_text(test, gold=False)),
    }
    for path, text in paths.values():
        path.write_text(text, encoding="utf-8")
    return {k: p for k, (p, _) in paths.items()}, {"train": train, "test": test}


@dataclass
class State:
    lm: object
    train: object
    dev: object
    test_surface: object
    test_gold: object
    snip: object
    examples: list
    vocab: object
    model_cfg: object
    fixture: object
    fixture_vocab: object


def set_up(workload: Workload, paths, tracer):
    """The user's set-up; timed by the caller and traced when ``tracer``."""
    lm = fresh_import()
    if tracer is not None:
        tracer.install(lm)
    try:
        with tracer.region("setup") if tracer is not None else nullcontext():
            train = lm.read_corpus_file(paths["train"])
            dev = lm.read_corpus_file(paths["dev"])
            test_surface = lm.read_corpus_file(paths["test_surface"], mode="surface_only")
            test_gold = lm.read_corpus_file(paths["test_gold"])
            snip = lm.SnippetConfig(mode="context_window", window=1, tc_mode="both")
            examples = lm.examples_for_corpus(train, snip)
            vocab = lm.build_vocab(examples, min_freq=1)
            model_cfg = lm.ModelConfig(
                source_vocab_size=vocab.source_size, target_vocab_size=vocab.target_size,
                embedding_size=workload.embedding, hidden_units=workload.hidden,
                layers=2, dropout_p=0.3, rng_seed=0)
            lm.init_model(model_cfg)
            fixture, fixture_vocab = lm.load_model(FIXTURE)
    finally:
        if tracer is not None:
            tracer.uninstall()
    return State(lm, train, dev, test_surface, test_gold, snip, examples, vocab,
                 model_cfg, fixture, fixture_vocab)


# ---------------------------------------------------------------------------
# jobs


@dataclass
class JobResult:
    wall: float
    calibrated: float
    digest: str
    attempted: int
    failed: int
    problems: list
    loss: float | None = None
    dev_accuracy: float | None = None
    accuracy: float | None = None
    flags: dict | None = None


def train_job(state: State, workload: Workload, model, ckpt_dir: Path, cal: Calibrator):
    lm = state.lm
    cfg = lm.TrainConfig(
        total_steps=workload.steps, checkpoint_every=workload.steps // workload.checkpoints,
        batch_size=BATCH, rng_seed=0, checkpoint_dir=str(ckpt_dir))
    try:
        (_, report), wall, calibrated = cal.timed(lambda: lm.train(
            model, state.examples, state.dev, state.vocab, state.snip, cfg))
    except lm.TrainingDivergedError as err:
        return JobResult(0.0, 0.0, "diverged", workload.steps, 1, [f"training diverged: {err}"])
    shutil.rmtree(ckpt_dir)
    losses = [r.train_loss for r in report.checkpoints]
    problems = []
    if len(losses) != workload.checkpoints:
        problems.append(f"{len(losses)} checkpoints, expected {workload.checkpoints}")
    if not all(math.isfinite(x) for x in losses):
        problems.append(f"non-finite checkpoint loss in {losses}")
    selected = next(r for r in report.checkpoints if r.step == report.selected_step)
    digest = sha256(" ".join(float(x).hex() for x in losses).encode())
    return JobResult(wall, calibrated, digest, workload.steps, 0, problems, loss=losses[-1],
                     dev_accuracy=selected.dev_metrics["analysis_accuracy"])


def predict_job(state: State, beam: int, voting: bool, cal: Calibrator):
    lm = state.lm
    decode_cfg = lm.DecodeConfig(beam_size=beam)
    (predicted, flags), wall, calibrated = cal.timed(lambda: lm.predict_corpus(
        state.fixture, state.test_surface, state.fixture_vocab, state.snip, decode_cfg,
        voting=voting))
    problems = []
    if len(predicted) != len(state.test_surface):
        problems.append(f"{len(predicted)} sentences predicted, "
                        f"expected {len(state.test_surface)}")
    for i, (got, want) in enumerate(zip(predicted, state.test_surface)):
        if [t.surface for t in got.tokens] != [t.surface for t in want.tokens]:
            problems.append(f"sentence {i}: predicted {len(got)} tokens, expected {len(want)}")
            break
    counts = {}
    flagged = 0
    for sentence_flags in flags:
        for token_flags in sentence_flags:
            names = [f for f in token_flags.split(",") if f]
            for name in names:
                counts[name] = counts.get(name, 0) + 1
            flagged += any(name in FLAGS_COUNTED for name in names)
    text = lm.write_corpus(predicted)
    accuracy = lm.evaluate(predicted, state.test_gold).overall.analysis_accuracy
    tokens = state.test_surface.token_count()
    return JobResult(wall, calibrated, sha256(text.encode()), tokens, flagged, problems,
                     accuracy=accuracy, flags=counts)


def run_jobs(state, workload, seconds, workdir, tracer, cal):
    """Interleave the three jobs so that each gets its share of ``seconds``.

    The next job is the one furthest below its share, so a slow spell on
    the machine falls on all three rather than on one.  Each job runs at
    least twice (with a tracer: once untraced and once traced, in turn);
    no job starts once the minimums are met and it would end past
    ``seconds``.  Returns {phase: (untraced results, traced results)}.
    """
    jobs = {phase: ([], []) for phase in PHASES}
    used = dict.fromkeys(PHASES, 0.0)
    share = dict(zip(PHASES, workload.shares))

    def enough(phase):
        untraced, traced = jobs[phase]
        return min(len(untraced), len(traced)) >= 1 if tracer else len(untraced) >= 2

    start = perf_counter()
    while True:
        short = [p for p in PHASES if not enough(p)]
        phase = min(short or PHASES, key=lambda p: used[p] / share[p])
        if not short:
            untraced, traced = jobs[phase]
            typical = median([r.wall for r in untraced + traced])
            if perf_counter() - start + typical > seconds:
                return jobs
        untraced, traced = jobs[phase]
        with_trace = tracer is not None and len(traced) < len(untraced)
        if phase == "train":
            # fresh weights for every job, made outside the timed call
            model = state.lm.init_model(state.model_cfg)
            run = lambda: train_job(state, workload, model, workdir / "checkpoints", cal)
        elif phase == "greedy":
            run = lambda: predict_job(state, 1, False, cal)
        else:
            run = lambda: predict_job(state, 5, True, cal)
        began = perf_counter()
        if with_trace:
            tracer.install(state.lm)
            try:
                with tracer.region(phase):
                    traced.append(run())
            finally:
                tracer.uninstall()
        else:
            untraced.append(run())
        model = run = None
        used[phase] += perf_counter() - began


# ---------------------------------------------------------------------------
# reporting


def corpus_shape(sentences, examples=None):
    """Work shape: a sentence has one window per token, a window W=1 covers
    up to three words, and a token gets one vote per covering window."""
    lengths = [len(s) for s in sentences]
    words_per_window = [min(n - 1, i + 1) - max(0, i - 1) + 1 for n in lengths for i in range(n)]
    shape = {
        "sentences": len(lengths),
        "tokens": sum(lengths),
        "tokens_per_sentence_mean": round(sum(lengths) / len(lengths), 2),
        "tokens_per_sentence_max": max(lengths),
        "words_per_window_mean": round(statistics.mean(words_per_window), 3),
    }
    if examples is not None:
        shape["source_symbols_per_example_mean"] = round(
            statistics.mean(len(e.source) for e in examples), 2)
        shape["target_symbols_per_example_mean"] = round(
            statistics.mean(len(e.target) for e in examples), 2)
    return shape


def layer_metrics(tracer, jobs, setups, test_tokens, overhead):
    """Per-layer figures per session: one set-up plus one job of each phase."""
    index = SpanIndex(tracer.spans)
    counts = {"setup": setups, **{p: len(jobs[p][1]) for p in PHASES}}

    def per_session(measure, name, roots=tuple(counts), **filters):
        return sum(measure(index.select(name, root=root, **filters)) / counts[root]
                   for root in roots if counts[root])

    def seconds(name, **filters):
        return per_session(index.duration, name, **filters)

    def calls(indices):
        return len(indices)

    backward_ms = [1000 * index.duration([i]) for i in index.select("model.backward")]
    step_calls = index.select("model.decode_step")
    decoded_units = per_session(index.count, "decode.parse_analysis_units",
                                roots=("greedy", "beam"))
    used_units = test_tokens + per_session(index.count, "decode.majority_vote", roots=("beam",))
    symbols = (per_session(index.count, "decode.greedy_ids", roots=("greedy",))
               + per_session(index.count, "decode.beam_ids", roots=("beam",)))
    p50, p90 = np.percentile(backward_ms, [50, 90])
    values = {
        "model.backward_s": (seconds("model.backward"), "s"),
        "model.backward_ms_p50": (float(p50), "ms"),
        "model.backward_ms_p90": (float(p90), "ms"),
        "model.sgd_update_s": (seconds("model.sgd_update"), "s"),
        "model.save_model_s": (seconds("model.save_model"), "s"),
        "model.decode_step_s": (seconds("model.decode_step"), "s"),
        "model.decode_step_calls": (per_session(calls, "model.decode_step"), "count"),
        "model.decode_step_rows_mean": (index.count(step_calls) / len(step_calls), "rows"),
        "model.encode_source_s": (seconds("model.encode_source"), "s"),
        "model.forward_loss_s": (seconds("model.forward_loss"), "s"),
        "decode.greedy_ids_s": (seconds("decode.greedy_ids"), "s"),
        "decode.beam_ids_s": (seconds("decode.beam_ids"), "s"),
        "decode.beam_ids_self_s": (per_session(index.self_time, "decode.beam_ids"), "s"),
        "decode.vote_s": (seconds("decode.majority_vote"), "s"),
        "decode.symbols_per_token": (symbols / (2 * test_tokens), "symbols"),
        "decode.focal_unit_share": (used_units / decoded_units, "share"),
        "training.make_batches_s": (seconds("training.make_batches"), "s"),
        "training.dev_eval_s": (seconds("decode.predict_corpus", under="training.train")
                                + seconds("metrics.evaluate", under="training.train"), "s"),
        "metrics.evaluate_s": (seconds("metrics.evaluate"), "s"),
        "conllu.read_corpus_file_s": (seconds("conllu.read_corpus_file"), "s"),
        "conllu.write_corpus_s": (seconds("conllu.write_corpus"), "s"),
        "snippets.examples_for_corpus_s": (seconds("snippets.examples_for_corpus"), "s"),
        "snippets.build_vocab_s": (seconds("snippets.build_vocab"), "s"),
        "model.init_model_s": (seconds("model.init_model"), "s"),
        "model.load_model_s": (seconds("model.load_model"), "s"),
        "trace.overhead_share": (overhead, "share"),
    }
    return values, len(backward_ms)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    if not (SRC / "lemtag" / "__init__.py").is_file():
        raise BenchmarkError(f"no lemtag package under {SRC}")
    if not FIXTURE.is_file():
        raise BenchmarkError(f"missing prediction model {FIXTURE}")
    sys.path.insert(0, str(SRC))
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None

    workdir = HERE / ".work" / f"{args.workload}-s{args.seed}-p{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=False)
    try:
        return run(args, workload, tracer, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


def run(args, workload, tracer, workdir):
    problems = []
    fixture_digest = sha256(FIXTURE.read_bytes())
    if fixture_digest != FIXTURE_SHA256:
        problems.append(f"fixture digest {fixture_digest} != {FIXTURE_SHA256}")
    paths, sentences = write_inputs(workload, args.seed, workdir)

    cal = Calibrator()
    setup_walls, setup_calibrated = [], []
    for _ in range(SETUP_REPEATS):
        state, wall, calibrated = cal.timed(lambda: set_up(workload, paths, tracer))
        setup_walls.append(wall)
        setup_calibrated.append(calibrated)
    test_chars = {c for sentence in sentences["test"] for surface, _, _ in sentence
                  for c in surface}
    if not test_chars <= set(state.fixture_vocab.source_symbols):
        problems.append("test corpus has characters the prediction model never saw")
    test_tokens = state.test_surface.token_count()

    jobs = run_jobs(state, workload, args.seconds, workdir, tracer, cal)

    attempted = failed = 0
    for phase in PHASES:
        results = jobs[phase][0] + jobs[phase][1]
        for result in results:
            attempted += result.attempted
            failed += result.failed
            problems.extend(f"{phase}: {p}" for p in result.problems)
        digests = {r.digest for r in results}
        if len(digests) != 1:
            problems.append(f"{phase}: outputs differ between repeated jobs "
                            f"({len(digests)} digests{', traced vs untraced' if tracer else ''})")
    finished = [r for r in jobs["train"][0] + jobs["train"][1] if r.loss is not None]
    if not finished:
        raise BenchmarkError("every training job diverged: " + "; ".join(problems))
    train0 = finished[0]
    diverged = sum(r.failed for r in jobs["train"][0] + jobs["train"][1])
    accuracy = jobs["beam"][0][0].accuracy
    if accuracy < ACCURACY_FLOOR:
        problems.append(f"beam-5 + vote analysis accuracy {accuracy:.3f} < {ACCURACY_FLOOR}")

    name, version, threads = blas_info()
    print(f"lemtag benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print(f"  why: {workload.why}")
    print(f"  python {platform.python_version()}  numpy {np.__version__}  "
          f"blas {name} {version}  blas_threads {threads}  "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")
    print(f"  model E{workload.embedding}/H{workload.hidden}/L2 dropout 0.3, batch {BATCH}, "
          f"{workload.steps} steps x {workload.checkpoints} checkpoints; "
          f"context_window W=1 tc=both; predict model {FIXTURE.name} sha256 {fixture_digest[:16]}")
    print(f"  train corpus {json.dumps(corpus_shape(sentences['train'], state.examples))}")
    print(f"  test corpus  {json.dumps(corpus_shape(sentences['test']))}")
    print(f"  setup: raw {describe(setup_walls, 's')}; "
          f"calibrated {describe(setup_calibrated, 's')}")
    for phase in PHASES:
        for label, results in zip(("untraced", "traced"), jobs[phase]):
            if results:
                print(f"  {phase:6s} job {label}: raw {describe([r.wall for r in results], 's')}; "
                      f"calibrated {describe([r.calibrated for r in results], 's')}")
    print(f"  train: last checkpoint loss {train0.loss!r}; selected checkpoint dev "
          f"analysis accuracy {train0.dev_accuracy:.4f} (tiny dev corpus)")
    for phase in ("greedy", "beam"):
        r = jobs[phase][0][0]
        print(f"  {phase}: {test_tokens} tokens, flags {r.flags or {}}, "
              f"analysis accuracy {r.accuracy:.4f}")
    print(f"  digests: train_losses {train0.digest[:16]}  "
          f"greedy_corpus {jobs['greedy'][0][0].digest[:16]}  "
          f"beam5_vote_corpus {jobs['beam'][0][0].digest[:16]}")
    steps = sum(len(jobs['train'][k]) for k in (0, 1)) * workload.steps
    print(f"  operations: {steps} training steps attempted, {diverged} diverged; "
          f"{attempted - steps} tokens predicted, {failed - diverged} "
          f"flagged {'/'.join(FLAGS_COUNTED)}")
    for p in problems:
        print(f"  CHECK FAILED: {p}")

    if tracer is None:
        train_walls = [r.calibrated for r in jobs["train"][0] if r.loss is not None]
        values = {
            "setup_s": median(setup_calibrated),
            "train_examples_per_s": workload.steps * BATCH / median(train_walls),
            "train_loss": train0.loss,
            "greedy_tokens_per_s": test_tokens / median([r.calibrated for r in jobs["greedy"][0]]),
            "beam5_vote_tokens_per_s": test_tokens / median([r.calibrated for r in jobs["beam"][0]]),
            "analysis_accuracy": accuracy,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        metrics = {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}
    else:
        overhead = (sum(median([r.calibrated for r in jobs[p][1]]) for p in PHASES)
                    / sum(median([r.calibrated for r in jobs[p][0]]) for p in PHASES) - 1.0)
        values, n_backward = layer_metrics(tracer, jobs, SETUP_REPEATS, test_tokens, overhead)
        print(f"  traced backward calls: {n_backward}")
        for key, (value, unit) in values.items():
            print(f"  {key:34s} {value:.6g} {unit}")
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in values.items()}
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchmarkError as err:
        print(f"benchmark: {err}", file=sys.stderr)
        sys.exit(2)
