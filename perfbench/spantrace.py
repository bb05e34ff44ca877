"""Spans around lemtag's public functions, installed from outside the package.

``Tracer.install`` replaces each function in ``LAYER_FUNCTIONS`` with a
wrapper in every ``lemtag`` namespace that holds it, so calls from one
module into another (``train`` -> ``backward``, ``predict_corpus`` ->
``beam_ids`` -> ``decode_step``) are recorded as well as the harness's
own calls.  ``uninstall`` puts the originals back; untraced runs never
install it.  Spans stay in memory as ``[name, parent, start, end, count]``
lists; ``count`` holds a per-call figure (rows, symbols, units, ballot
entries) where the function has one.
"""

from __future__ import annotations

import functools
import sys
from contextlib import contextmanager
from time import perf_counter

NAME, PARENT, START, END, COUNT = range(5)


def _rows(args, result):
    return len(args[1])  # decode_step(model, prev_ids, ...)


def _ids(args, result):
    return len(result[0])  # greedy_ids / beam_ids -> (ids, finished)


def _units(args, result):
    return len(result[0])  # parse_analysis_units -> (units, malformed)


def _ballot(args, result):
    return len(args[0])  # majority_vote(ballot)


LAYER_FUNCTIONS = {
    ("conllu", "read_corpus_file"): None,
    ("conllu", "write_corpus"): None,
    ("snippets", "examples_for_corpus"): None,
    ("snippets", "build_vocab"): None,
    ("model", "init_model"): None,
    ("model", "load_model"): None,
    ("model", "save_model"): None,
    ("model", "backward"): None,
    ("model", "sgd_update"): None,
    ("model", "forward_loss"): None,
    ("model", "encode_source"): None,
    ("model", "decode_step"): _rows,
    ("decode", "greedy_ids"): _ids,
    ("decode", "beam_ids"): _ids,
    ("decode", "parse_analysis_units"): _units,
    ("decode", "majority_vote"): _ballot,
    ("decode", "predict_corpus"): None,
    ("training", "make_batches"): None,
    ("training", "train"): None,
    ("metrics", "evaluate"): None,
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def _open(self, name):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, parent, perf_counter(), 0.0, 0])
        self._stack.append(index)
        return self.spans[index]

    def _close(self, span):
        span[END] = perf_counter()
        self._stack.pop()

    @contextmanager
    def region(self, name):
        """A root span for one harness step, e.g. a job of one phase."""
        span = self._open(name)
        try:
            yield
        finally:
            self._close(span)

    def _wrap(self, name, fn, count):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if count is not None:
                span[COUNT] = count(args, result)
            return result
        return traced

    def install(self, package):
        """Wrap every layer function in all loaded modules of ``package``."""
        if self._patched:
            raise RuntimeError("tracer already installed")
        prefix = package.__name__
        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == prefix or n.startswith(prefix + "."))]
        for (module, function), count in LAYER_FUNCTIONS.items():
            original = getattr(sys.modules[f"{prefix}.{module}"], function)
            wrapper = self._wrap(f"{module}.{function}", original, count)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._patched.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched = []


class SpanIndex:
    """Queries over recorded spans: totals per name under a root, self time."""

    def __init__(self, spans):
        self.spans = spans
        self.root = []
        self.children_time = [0.0] * len(spans)
        self.by_name: dict[str, list[int]] = {}
        for i, span in enumerate(spans):
            self.by_name.setdefault(span[NAME], []).append(i)
            parent = span[PARENT]
            self.root.append(i if parent < 0 else self.root[parent])
            if parent >= 0:
                self.children_time[parent] += span[END] - span[START]

    def ancestors(self, i):
        parent = self.spans[i][PARENT]
        while parent >= 0:
            yield self.spans[parent][NAME]
            parent = self.spans[parent][PARENT]

    def select(self, name, root=None, under=None):
        """Indices of spans called ``name``, optionally only those whose root
        region is called ``root`` and that have an ancestor called ``under``."""
        out = []
        for i in self.by_name.get(name, []):
            if root is not None and self.spans[self.root[i]][NAME] != root:
                continue
            if under is not None and under not in self.ancestors(i):
                continue
            out.append(i)
        return out

    def duration(self, indices):
        return sum(self.spans[i][END] - self.spans[i][START] for i in indices)

    def self_time(self, indices):
        return sum(self.spans[i][END] - self.spans[i][START] - self.children_time[i]
                   for i in indices)

    def count(self, indices):
        return sum(self.spans[i][COUNT] for i in indices)
