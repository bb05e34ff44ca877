"""Scoring: lemma accuracy, mean edit distance, tag accuracy, mean tag F1,
and joint analysis accuracy, each reported overall and split by whether the
gold lexical form was seen in a reference training corpus.
"""

from __future__ import annotations

from dataclasses import dataclass

from .conllu import Corpus, MorphoTag, lexical_forms


class EvalAlignmentError(ValueError):
    """Predicted and gold corpora do not line up token for token."""


def levenshtein(a: str, b: str) -> int:
    """Minimum insert/delete/substitute count between two strings."""
    if len(a) < len(b):
        a, b = b, a
    if not b:
        return len(a)
    prev = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        cur = [i]
        for j, cb in enumerate(b, start=1):
            cur.append(min(prev[j] + 1,
                           cur[j - 1] + 1,
                           prev[j - 1] + (ca != cb)))
        prev = cur
    return prev[len(b)]


@dataclass(frozen=True)
class TagScore:
    precision: float
    recall: float
    f1: float


def tag_f1(pred: MorphoTag, gold: MorphoTag) -> TagScore:
    """Set precision/recall/F1 over grammemes.

    Two empty tags agree perfectly (score 1); an empty tag against a
    non-empty one scores 0, since the set formula is undefined there.
    """
    p = set(pred.grammemes)
    g = set(gold.grammemes)
    if not p and not g:
        return TagScore(1.0, 1.0, 1.0)
    if not p or not g:
        return TagScore(0.0, 0.0, 0.0)
    common = len(p & g)
    precision = common / len(p)
    recall = common / len(g)
    if precision + recall == 0:
        return TagScore(0.0, 0.0, 0.0)
    return TagScore(precision, recall,
                    2 * precision * recall / (precision + recall))


@dataclass(frozen=True)
class SplitScores:
    token_count: int
    lemma_accuracy: float
    avg_lemma_distance: float
    tag_accuracy: float
    avg_tag_f1: float
    analysis_accuracy: float


_EMPTY_SPLIT = SplitScores(0, 0.0, 0.0, 0.0, 0.0, 0.0)


@dataclass(frozen=True)
class EvalReport:
    overall: SplitScores
    oov: SplitScores | None = None
    seen: SplitScores | None = None


def _score_rows(rows) -> SplitScores:
    # each row is (lemma ok, lemma distance, tag ok, tag F1, analysis ok)
    n = len(rows)
    if n == 0:
        return _EMPTY_SPLIT
    return SplitScores(n, *(sum(col) / n for col in zip(*rows)))


def evaluate(pred: Corpus, gold: Corpus, train_reference: Corpus | None = None) -> EvalReport:
    """Score a predicted corpus against gold, token for token.

    The corpora must align exactly (same sentence lengths, same surfaces);
    the first mismatch is a hard error carrying its location.  With a
    reference corpus, tokens whose gold (lemma, tag) pair never occurs in
    the reference are split out as OOV.
    """
    if len(pred) != len(gold):
        raise EvalAlignmentError(
            f"corpora differ in sentence count: {len(pred)} vs {len(gold)}")
    known = lexical_forms(train_reference) if train_reference is not None else None
    rows = []
    oov_mask = []
    for si, (ps, gs) in enumerate(zip(pred, gold)):
        if len(ps) != len(gs):
            raise EvalAlignmentError(
                f"sentence {si}: token counts differ ({len(ps)} vs {len(gs)})")
        for ti, (pt, gt) in enumerate(zip(ps.tokens, gs.tokens)):
            if pt.surface != gt.surface:
                raise EvalAlignmentError(
                    f"sentence {si}, token {ti}: surface mismatch "
                    f"({pt.surface!r} vs {gt.surface!r})")
            if pt.gold is None or gt.gold is None:
                raise EvalAlignmentError(
                    f"sentence {si}, token {ti}: missing analysis")
            lemma_ok = pt.gold.lemma == gt.gold.lemma
            distance = levenshtein(pt.gold.lemma, gt.gold.lemma)
            tag_ok = pt.gold.tag == gt.gold.tag
            f1 = tag_f1(pt.gold.tag, gt.gold.tag).f1
            rows.append((lemma_ok, distance, tag_ok, f1, lemma_ok and tag_ok))
            if known is not None:
                oov_mask.append(gt.gold not in known)
    overall = _score_rows(rows)
    if known is None:
        return EvalReport(overall)
    oov_rows = [r for r, is_oov in zip(rows, oov_mask) if is_oov]
    seen_rows = [r for r, is_oov in zip(rows, oov_mask) if not is_oov]
    return EvalReport(overall, _score_rows(oov_rows), _score_rows(seen_rows))
