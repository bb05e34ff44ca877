"""Seeded synthetic corpora for the benchmark.

The lexicon is fixed (built from a constant seed), so a model trained on
one corpus has seen every word and symbol of any other corpus.  A seed
only decides which words fill which sentence.

A corpus is fixed in shape and free in arrangement.  Its sentence lengths
are a fixed log-normal profile's evenly spaced quantiles (median 11
tokens, a tail past 20), and its words are the Zipf word distribution's
evenly spaced quantiles; the seed shuffles both, so it decides which
words share a sentence and a context window.  Every corpus of one size
thus asks for nearly the same amount of work whatever the seed, which
keeps run-to-run spread small on small corpora.

Corpora are returned as the tab-separated text that ``lemtag`` reads.
"""

from __future__ import annotations

from statistics import NormalDist

import numpy as np

_LEXICON_SEED = 20201021
_ONSETS = "b c d f g h k l m n p r s t v w z br cl dr fl gr pl st tr".split()
_VOWELS = "a e i o u ai ea ou".split()
_CODAS = "b d g k l m n p r t x lk mp nd rt st".split()

_NOUN_STEMS = 16
_VERB_STEMS = 10
_ADJ_STEMS = 6
_CLOSED = (
    ("the", "the", "DET"), ("a", "a", "DET;INDF"), ("and", "and", "CCONJ"),
    ("of", "of", "ADP"), ("to", "to", "ADP"), ("in", "in", "ADP"),
    ("he", "he", "3;NOM;PRON;SG"), ("they", "they", "3;NOM;PL;PRON"),
    (",", ",", "PUNCT"),
)
_PERIOD = (".", ".", "PUNCT")

_LENGTH_MEDIAN = 11.0
_LENGTH_SIGMA = 0.45
_LENGTH_MIN, _LENGTH_MAX = 3, 40


def _stems(rng, count, taken):
    stems = []
    while len(stems) < count:
        parts = [_ONSETS[rng.integers(len(_ONSETS))], _VOWELS[rng.integers(len(_VOWELS))]]
        if rng.random() < 0.5:
            parts += [_ONSETS[rng.integers(len(_ONSETS))], _VOWELS[rng.integers(len(_VOWELS))]]
        parts.append(_CODAS[rng.integers(len(_CODAS))])
        stem = "".join(parts)
        if stem not in taken:
            taken.add(stem)
            stems.append(stem)
    return stems


def lexicon():
    """Fixed list of (surface, lemma, tag) entries in frequency-rank order."""
    rng = np.random.default_rng(_LEXICON_SEED)
    taken: set[str] = set()
    nouns = _stems(rng, _NOUN_STEMS, taken)
    verbs = _stems(rng, _VERB_STEMS, taken)
    adjs = _stems(rng, _ADJ_STEMS, taken)
    entries = []
    for stem in nouns:
        entries += [(stem, stem, "N;SG"), (stem + "s", stem, "N;PL")]
    for stem in verbs:
        entries += [(stem, stem, "NFIN;V"), (stem + "s", stem, "3;PRS;SG;V"),
                    (stem + "ed", stem, "PST;V"), (stem + "ing", stem, "PRS;PTCP;V")]
    for stem in adjs:
        entries += [(stem, stem, "ADJ"), (stem + "er", stem, "ADJ;CMPR"),
                    (stem + "est", stem, "ADJ;SPRL")]
    order = rng.permutation(len(entries))
    return list(_CLOSED) + [entries[int(i)] for i in order]


def sentence_lengths(n_sentences, n_tokens=None):
    """The length profile's n evenly spaced quantiles, ascending.

    With ``n_tokens`` the longest sentences give up (or take) one token at
    a time until the lengths sum to exactly that many tokens.
    """
    dist = NormalDist(float(np.log(_LENGTH_MEDIAN)), _LENGTH_SIGMA)
    lengths = [int(np.clip(round(float(np.exp(dist.inv_cdf((k + 0.5) / n_sentences)))),
                           _LENGTH_MIN, _LENGTH_MAX))
               for k in range(n_sentences)]
    if n_tokens is not None:
        if not _LENGTH_MIN * n_sentences <= n_tokens <= _LENGTH_MAX * n_sentences:
            raise ValueError(f"{n_tokens} tokens do not fit {n_sentences} sentences")
        k = n_sentences - 1
        while sum(lengths) != n_tokens:
            step = 1 if sum(lengths) < n_tokens else -1
            if _LENGTH_MIN <= lengths[k] + step <= _LENGTH_MAX:
                lengths[k] += step
            k = (k - 1) % n_sentences
    return lengths


def make_sentences(n_sentences, seed, stream, n_tokens=None):
    """Seeded sentences as lists of (surface, lemma, tag); each ends in ".".

    ``stream`` separates the corpora drawn from one seed (train, dev,
    test) so they are arranged independently; ``n_tokens`` fixes the
    token count.
    """
    entries = lexicon()
    weights = 1.0 / (np.arange(len(entries)) + 3.0)
    cdf = np.cumsum(weights) / weights.sum()
    lengths = sentence_lengths(n_sentences, n_tokens)
    n_words = sum(lengths) - n_sentences
    words = np.searchsorted(cdf, (np.arange(n_words) + 0.5) / n_words)
    rng = np.random.default_rng((seed, stream))
    rng.shuffle(lengths)
    words = iter(rng.permutation(words))
    return [[entries[int(next(words))] for _ in range(length - 1)] + [_PERIOD]
            for length in lengths]


def to_text(sentences, gold=True):
    """Corpus file text; surface-only text keeps just the FORM column."""
    lines = []
    for sid, sentence in enumerate(sentences):
        lines.append(f"# sent {sid}")
        for surface, lemma, tag in sentence:
            lines.append(f"{surface}\t{lemma}\t{tag}" if gold else surface)
        lines.append("")
    return "\n".join(lines)
