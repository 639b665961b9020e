"""Prediction post-processing and evaluation metrics.

Phrases are compared as case-folded token tuples, exact match only.
Extraction and F1 read only the Viterbi decode; ranking and F1@k add
marginal-product confidences. Dataset-level scores are micro-averaged
(supports summed over documents); macro averaging is available for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import LabeledDocument, Phrase, bio_to_phrases
from .crf import marginals, viterbi
from .encoder import encode_forward, time_major
from .model import Model

TOKEN_BUDGET = 1024  # padded tokens n_max × B per batched decode; a longer document decodes alone


@dataclass
class PhrasePrediction:
    phrase: Phrase  # case-folded
    span: tuple[int, int]
    confidence: float


@dataclass
class MetricReport:
    precision: float
    recall: float
    f1: float
    n_pred: int
    n_gold: int
    n_match: int


def _fold(phrase) -> Phrase:
    return tuple(t.casefold() for t in phrase)


def gold_phrases(doc: LabeledDocument) -> set[Phrase]:
    """Case-folded gold phrase set implied by a document's labels."""
    return {_fold(p) for _, p in bio_to_phrases(doc.tokens, doc.labels)}


def dedup_predictions(preds) -> list[PhrasePrediction]:
    """Collapse case-folded duplicates, keeping the highest-confidence
    occurrence (the earliest span on ties); output ordered by span start."""
    best: dict[Phrase, PhrasePrediction] = {}
    for p in sorted(preds, key=lambda p: p.span[0]):
        kept = best.get(p.phrase)
        if kept is None or p.confidence > kept.confidence:
            best[p.phrase] = p
    return sorted(best.values(), key=lambda p: p.span[0])


def _decode(model: Model, docs, rank: bool) -> list:
    """Viterbi-decode documents as one batch: per document what ``extract``
    returns or, with ``rank``, what ``rank_phrases`` returns."""
    ids, lengths = time_major([model.vocab.encode(d.tokens) for d in docs])
    emissions, _ = encode_forward(model.encoder, ids, lengths)
    paths, _ = viterbi(emissions, model.crf, lengths)
    labels = [tuple(paths[: len(d.tokens), b].tolist()) for b, d in enumerate(docs)]
    spans = [bio_to_phrases(d.tokens, path) for d, path in zip(docs, labels)]
    if not rank:
        return [({_fold(p) for _, p in s}, s, path) for s, path in zip(spans, labels)]
    marg = marginals(emissions, model.crf, lengths)
    # a phrase's confidence: the product of its decoded labels' posterior marginals
    return [
        rank_predictions(dedup_predictions(
            PhrasePrediction(
                _fold(p), (s, e), float(np.prod(marg[np.arange(s, e), b, paths[s:e, b]]))
            )
            for (s, e), p in doc_spans
        ))
        for b, doc_spans in enumerate(spans)
    ]


def decode_batches(model: Model, docs, rank: bool = False) -> list:
    """The only Viterbi decode: per document in input order, what ``extract`` returns (label path
    included) or with ``rank`` what ``rank_phrases`` returns, confidences to rounding (3.6e-15
    relative on the ``extract`` benchmark). Ascending-length groups (a stable sort) decode together
    while their padded size ``n_max × B`` stays within ``TOKEN_BUDGET``; a longer one alone."""
    docs, groups = list(docs), []
    for i in sorted(range(len(docs)), key=lambda i: len(docs[i].tokens)):
        if not groups or len(docs[i].tokens) * (len(groups[-1]) + 1) > TOKEN_BUDGET:
            groups.append([])
        groups[-1].append(i)
    out = [None] * len(docs)
    for group in groups:
        for i, result in zip(group, _decode(model, [docs[j] for j in group], rank)):
            out[i] = result
    return out


def extract(model: Model, doc) -> tuple[set[Phrase], list, tuple[int, ...]]:
    """Viterbi-decode a document: its case-folded phrase set, its spans ``[((start, end),
    tokens)]`` and its raw label path (an orphan I stays I). Computes no marginals."""
    return decode_batches(model, [doc])[0]


def exact_f1(pred: set, gold: set) -> MetricReport:
    """Set-level exact-match precision/recall/F1 on case-folded phrases."""
    pred = {_fold(p) for p in pred}
    gold = {_fold(p) for p in gold}
    return _report(n_pred=len(pred), n_gold=len(gold), n_match=len(pred & gold))


def _report(n_pred: int, n_gold: int, n_match: int) -> MetricReport:
    precision = n_match / n_pred if n_pred else 0.0
    recall = n_match / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return MetricReport(precision, recall, f1, n_pred, n_gold, n_match)


def rank_predictions(preds) -> list[PhrasePrediction]:
    """Sort predictions by confidence descending; ties go to the earlier
    span start, then the shorter phrase."""
    return sorted(preds, key=lambda p: (-p.confidence, p.span[0], len(p.phrase)))


def rank_phrases(model: Model, doc) -> list[PhrasePrediction]:
    """De-duplicated predictions for one document in ranking order."""
    return decode_batches(model, [doc], rank=True)[0]


def f1_at_k(ranked, gold: set, k: int) -> MetricReport:
    """Exact-match F1 of the top-k ranked predictions (all of them if fewer)."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    top = {p.phrase for p in ranked[:k]}
    return exact_f1(top, gold)


def evaluate(model: Model, dataset, k: int | None = None) -> dict[str, MetricReport]:
    """Exact-match ``f1`` (micro) and ``f1_macro`` over a labeled dataset, and
    ``f1@k`` (micro) over confidence-ranked phrases when ``k`` is given.

    Documents are decoded once each by ``decode_batches``; marginals are
    computed only for ``f1@k``.
    """
    docs = list(dataset)
    full, top = [], []
    for d, result in zip(docs, decode_batches(model, docs, rank=k is not None)):
        gold = gold_phrases(d)
        full.append(exact_f1(result[0] if k is None else {p.phrase for p in result}, gold))
        if k is not None:
            top.append(f1_at_k(result, gold, k))
    reports = {"f1": _micro(full), "f1_macro": _macro(full)}
    if k is not None:
        reports[f"f1@{k}"] = _micro(top)
    return reports


def dataset_f1(model: Model, dataset) -> MetricReport:
    """Micro-averaged exact-match F1 of extraction over a labeled dataset."""
    return evaluate(model, dataset)["f1"]


def _micro(reports: list) -> MetricReport:
    """Scores of the counts summed over documents."""
    return _report(
        sum(r.n_pred for r in reports),
        sum(r.n_gold for r in reports),
        sum(r.n_match for r in reports),
    )


def _macro(reports: list) -> MetricReport:
    """Per-document scores averaged; counts summed."""
    rep, n = _micro(reports), len(reports) or 1
    rep.precision = sum(r.precision for r in reports) / n
    rep.recall = sum(r.recall for r in reports) / n
    rep.f1 = sum(r.f1 for r in reports) / n
    return rep
