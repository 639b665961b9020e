"""Prediction post-processing and evaluation metrics.

Phrases are compared as case-folded token tuples, exact match only.
Extraction and F1 read only the Viterbi decode; ranking and F1@k add
marginal-product confidences. Dataset-level scores are micro-averaged
(supports summed over documents); macro averaging is available for reporting.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import LabeledDocument, Phrase, _fold, bio_to_phrases
from .crf import marginals, viterbi
from .encoder import BLOCK_ROWS, encode_forward, pack
from .errors import DataError
from .model import Model

# The bytes a decode pass may hold at its peak, as ``_pass_bytes`` counts them from the dims:
# at 64/64 this keeps ``extract``'s 100 documents in one pass and the worst cases within 10 MB.
PASS_BYTES = 8 * 2**20


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


def _pass_bytes(dims, rows: int, distinct: int, docs: int) -> int:
    """The bytes a decode pass of ``docs`` documents, ``rows`` real tokens and ``distinct``
    distinct ids holds at its peak, ``rank`` included, in words of 8 B: per packed row its ring
    slot, 2h (the ring holds at most ``BLOCK_ROWS``), and 8 words of ids, layout and path plus 16
    per label of label scores, emissions, CRF arrays and backpointers; per distinct token its
    input-table row, 2 x 4h; per document its ``(B, 2, .)`` step buffers, 24h."""
    return 8 * (dims.hidden_dim * (2 * min(rows, BLOCK_ROWS) + 8 * distinct + 24 * docs)
                + (8 + 16 * dims.num_labels) * rows)


def _passes(dims, encoded) -> list:
    """Document indices, longest first (a stable sort), in passes whose ``_pass_bytes`` stay
    within ``PASS_BYTES``; a document over it by itself decodes alone."""
    passes, seen, rows = [], set(), 0
    for i in sorted(range(len(encoded)), key=lambda i: -len(encoded[i])):
        words = set(encoded[i].tolist())
        distinct, rows = len(seen) + len(words - seen), rows + len(encoded[i])
        if not passes or _pass_bytes(dims, rows, distinct, len(passes[-1]) + 1) > PASS_BYTES:
            passes.append([])
            seen, rows = set(), len(encoded[i])
        passes[-1].append(i)
        seen |= words
    return passes


def label_paths(model: Model, encoded, rank: bool = False) -> list:
    """The only Viterbi decode: each document's raw label path (an orphan I stays I), given its
    token ids, or with ``rank`` its path and ``(length, L)`` marginals. Each pass (``_passes``)
    decodes as one packed batch, laid out once, by one ``encode_forward(..., for_backward=False)``,
    so it takes as many serial steps as its longest document."""
    out = [None] * len(encoded)
    for docs in _passes(model.dims, encoded):
        layout = pack([len(encoded[i]) for i in docs])
        ids = layout.rows([encoded[i] for i in docs])
        emissions, _ = encode_forward(model.encoder, ids, layout, for_backward=False)
        decoded = [p.tolist() for p in layout.columns(viterbi(emissions, model.crf, layout)[0])]
        if rank:
            decoded = zip(decoded, layout.columns(marginals(emissions, model.crf, layout)))
        for i, result in zip(docs, decoded):
            out[i] = result
    return out


def decode_batches(model: Model, docs, rank: bool = False) -> list:
    """Per document in input order, what ``extract`` returns or with ``rank`` what ``rank_phrases``
    returns, confidences to rounding (4.5e-16 relative on the ``extract`` benchmark)."""
    docs = list(docs)
    decoded = label_paths(model, [model.vocab.encode(d.tokens) for d in docs], rank)
    if not rank:
        spans = [bio_to_phrases(d.tokens, path) for d, path in zip(docs, decoded)]
        return [({_fold(p) for _, p in s}, s, tuple(path)) for s, path in zip(spans, decoded)]
    # a phrase's confidence: the product of its decoded labels' posterior marginals
    return [
        rank_predictions(dedup_predictions(
            PhrasePrediction(_fold(p), (s, e), float(np.prod(marg[np.arange(s, e), path[s:e]])))
            for (s, e), p in bio_to_phrases(d.tokens, path)
        ))
        for d, (path, marg) in zip(docs, decoded)
    ]


def extract(model: Model, doc) -> tuple[set[Phrase], list, tuple[int, ...]]:
    """Viterbi-decode a document: its case-folded phrase set, its spans ``[((start, end),
    tokens)]`` and its raw label path (an orphan I stays I). Computes no marginals."""
    return decode_batches(model, [doc])[0]


def exact_f1(pred: set, gold: set) -> MetricReport:
    """Set-level exact-match precision/recall/F1 on case-folded phrases."""
    return _counted({_fold(p) for p in pred}, {_fold(p) for p in gold})


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
    _check_cutoff(k)
    top = {p.phrase for p in ranked[:k]}
    return exact_f1(top, gold)


def _check_cutoff(k) -> None:
    if type(k) is not int or k < 1:
        raise ValueError(f"k must be >= 1, got {k}")


def evaluate(model: Model, dataset, k: int | None = None) -> dict[str, MetricReport]:
    """Exact-match ``f1`` (micro) and ``f1_macro`` over a labeled dataset, and
    ``f1@k`` (micro) over confidence-ranked phrases when ``k`` is given.

    Documents are decoded once each by ``decode_batches``; marginals are
    computed only for ``f1@k``. A ``k`` that is not an int >= 1 is a ValueError and an unlabeled
    document a DataError, both before any decode.
    """
    docs = list(dataset)
    if k is not None:
        _check_cutoff(k)
    unlabeled = [d.id for d in docs if not isinstance(d, LabeledDocument)]
    if unlabeled:
        raise DataError(f"evaluation needs labeled documents; document {unlabeled[0]!r} has none")
    full, top = [], []
    for d, result in zip(docs, decode_batches(model, docs, rank=k is not None)):
        gold = gold_phrases(d)
        full.append(_counted(result[0] if k is None else {p.phrase for p in result}, gold))
        if k is not None:
            top.append(f1_at_k(result, gold, k))
    reports = {"f1": _micro(full), "f1_macro": _macro(full)}
    if k is not None:
        reports[f"f1@{k}"] = _micro(top)
    return reports


def dataset_f1(model: Model, dataset) -> MetricReport:
    """Micro-averaged exact-match F1 of extraction over a labeled dataset."""
    return evaluate(model, dataset)["f1"]


def encoded_f1(model: Model, docs, encoded, gold) -> MetricReport:
    """``dataset_f1`` of labeled ``docs`` given with their token ids ``encoded`` and their folded
    gold phrase sets ``gold``, so that a training run encodes and folds its dev set only once."""
    spans = (bio_to_phrases(d.tokens, path) for d, path in zip(docs, label_paths(model, encoded)))
    return _micro([_counted({_fold(p) for _, p in s}, g) for s, g in zip(spans, gold)])


def _counted(pred: set, gold: set) -> MetricReport:
    """Scores of a predicted against a gold phrase set, both already case-folded."""
    return _report(len(pred), len(gold), len(pred & gold))


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
