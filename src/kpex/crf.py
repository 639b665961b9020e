"""Linear-chain CRF over the three BIO labels.

The score of a label sequence y for emissions e is

    S(y) = start[y_0] + sum_t e[t, y_t] + sum_t trans[y_t, y_{t+1}] + end[y_{n-1}]

and all inference is one forward recursion run in two semirings: log-sum-exp
for the partition function, marginals and likelihood gradients, max-plus for
Viterbi. The log-sum-exp recursion subtracts each step's label-0 score, so its
scores stay at one step's scale however long the document, and marginals are
normalised position by position. Every function takes a time-major batch:
emissions ``(n_max, B, L)``, one document per column, and the ``(B,)`` lengths;
padding rows sit at each column's tail, so no time loop needs a mask. ``viterbi`` and
``marginals`` also take a decode's columns that hold several documents back to back
(``bounds``, see :func:`kpex.encoder.documents`): the recursion restarts at each document's
first row, from ``start`` reading forward and from ``end`` reading reversed. No
transition is forbidden; O->I decodes are repaired by :mod:`kpex.corpus`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import NUM_LABELS, check_lengths, documents, restarts, reversal
from .errors import NumericError


@dataclass
class CrfParams:
    trans: np.ndarray  # (L, L); trans[i, j] scores label j following label i
    start: np.ndarray  # (L,)
    end: np.ndarray  # (L,)

    @classmethod
    def zeros(cls, num_labels: int = NUM_LABELS) -> "CrfParams":
        return cls(np.zeros((num_labels, num_labels)), np.zeros(num_labels), np.zeros(num_labels))


def crf_tensors(crf: CrfParams) -> dict:
    return {"crf.trans": crf.trans, "crf.start": crf.start, "crf.end": crf.end}


def real_positions(lengths: np.ndarray, n_max: int) -> np.ndarray:
    """``(n_max, B)`` mask, true where row t lies inside column b."""
    return np.arange(n_max)[:, None] < lengths


def _check(emissions, lengths) -> tuple[np.ndarray, np.ndarray]:
    emissions = np.asarray(emissions, dtype=np.float64)
    if emissions.ndim != 3:
        raise ValueError(f"emissions must be (n_max, B, L), got shape {emissions.shape}")
    lengths = check_lengths(lengths, *emissions.shape[:2])
    if not np.all(np.isfinite(emissions)):
        raise NumericError("non-finite emission score")
    return emissions, lengths


def _alphas(emissions, trans, first, shift=None, reduce=np.logaddexp.reduce, fresh=None):
    """Forward scores ``(n, ..., L)`` of every column, C-contiguous, from a label-major loop: each
    step reduces ``alpha[t - 1] + trans`` over the leading previous-label axis into ``alpha[t]``,
    so ``trans`` is ``(L, L, ...)`` and ``first`` ``(L, ...)``, broadcast over the axes between.
    The columns ``fresh[t]`` (on the last axis) start again from ``first`` at step t. With
    ``shift``, shaped as the emissions less labels, each step's label-0 score moves into it."""
    e, fresh = np.moveaxis(emissions, -1, 1), fresh or {}
    alpha = np.empty(e.shape)
    np.add(first, e[0], out=alpha[0])
    for t in range(len(alpha)):
        if t:
            reduce(alpha[t - 1][:, None] + trans, axis=0, out=alpha[t])
            alpha[t] += e[t]
            if t in fresh:
                alpha[t][..., fresh[t]] = first + e[t][..., fresh[t]]
        if shift is not None:
            shift[t] = alpha[t, 0]
            alpha[t] -= shift[t]
    return np.ascontiguousarray(np.moveaxis(alpha, 1, -1))


def _normalised(scores, real) -> np.ndarray:
    """``exp(scores)`` normalised over all axes after (t, b) within each real ``(n, B)`` row;
    padding rows, whose scores carry no meaning, are zero."""
    labels = tuple(range(2, scores.ndim))
    probs = np.exp(scores - scores.max(axis=labels, keepdims=True))
    probs /= probs.sum(axis=labels, keepdims=True)
    return np.where(np.expand_dims(real, labels), probs, 0.0)


def _forward_backward(emissions, lengths, crf: CrfParams, bounds=None):
    """Per column: ``alpha`` and ``beta + emissions``, each off by a constant per position, the
    forward shifts, the real-position mask and the posterior marginals (zero on padding). One
    shifted recursion runs both directions on axis 1: the betas are the alphas of each document
    reversed within its rows, transitions transposed and the end scores as the start."""
    n, batch = emissions.shape[:2]
    docs = documents(lengths, bounds)
    rev, shift = reversal(lengths, n, docs), np.empty((n, 2, batch))
    ends = np.stack((crf.start, crf.end), axis=-1)[..., None]  # label-major, (L, 2, 1)
    trans = np.stack((crf.trans, crf.trans.T), axis=-1)[..., None]  # (L, L, 2, 1)
    stacked = np.stack((emissions, emissions[rev]), 1)
    both = _alphas(stacked, trans, ends, shift, fresh=restarts(docs))
    alpha, beta_e, real = both[:, 0], both[:, 1][rev], real_positions(lengths, n)
    return alpha, beta_e, shift[:, 0], real, _normalised(alpha + beta_e - emissions, real)


def _log_z(alpha, shift, real, lengths, crf: CrfParams) -> np.ndarray:
    """``log Z`` per column of one document: the forward shifts of its real rows plus the last
    one's log-sum-exp."""
    log_z = np.where(real, shift, 0.0).sum(axis=0)
    log_z += np.logaddexp.reduce(alpha[lengths - 1, np.arange(len(lengths))] + crf.end, axis=1)
    return log_z


def log_partition(emissions, crf: CrfParams, lengths) -> np.ndarray:
    """log of the summed exponentiated scores over all label sequences, per column."""
    emissions, lengths = _check(emissions, lengths)
    alpha, _, shift, real, _ = _forward_backward(emissions, lengths, crf)
    return _log_z(alpha, shift, real, lengths, crf)


def sequence_score(emissions, crf: CrfParams, labels, lengths) -> np.ndarray:
    """S(labels) under the score decomposition above, per column of ``labels`` (n_max, B)."""
    emissions, lengths = _check(emissions, lengths)
    return _path_score(emissions, crf, labels, lengths)


def _path_score(emissions, crf: CrfParams, labels, lengths) -> np.ndarray:
    """``sequence_score`` of emissions and lengths that ``_check`` has passed."""
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != emissions.shape[:2]:
        raise ValueError(f"labels of shape {y.shape} for emissions of shape {emissions.shape}")
    real = real_positions(lengths, y.shape[0])
    emitted = np.where(real, np.take_along_axis(emissions, y[:, :, None], axis=2)[:, :, 0], 0.0)
    moved = np.where(real[1:], crf.trans[y[:-1], y[1:]], 0.0)
    last = y[lengths - 1, np.arange(len(lengths))]
    return crf.start[y[0]] + emitted.sum(axis=0) + crf.end[last] + moved.sum(axis=0)


def viterbi(emissions, crf: CrfParams, lengths, bounds=None) -> tuple[np.ndarray, np.ndarray]:
    """Best-scoring label sequence of every document, ``(n_max, B)`` with O past each column's
    length, and the best scores, one per document in ``bounds`` order (per column by default):
    the max-plus ``_alphas``, then every backpointer in one argmax after the loop. Ties are broken
    toward the lowest label index at every backtracking step, so all-zero scores decode to all-O.
    """
    emissions, lengths = _check(emissions, lengths)
    docs = col, start, length = documents(lengths, bounds)
    delta = _alphas(emissions, crf.trans[..., None], crf.start[:, None], reduce=np.maximum.reduce,
                    fresh=restarts(docs))
    # backpointers (t, B, to, from), lowest index on ties, as lists for the serial backtrack
    steps = (delta[:-1, :, None, :] + crf.trans.T).argmax(axis=3).tolist()
    last = start + length - 1
    final = delta[last, col] + crf.end
    best = np.argmax(final, axis=1)
    path = np.zeros(emissions.shape[:2], dtype=np.int64)
    for b, first, end, label in zip(col.tolist(), start.tolist(), last.tolist(), best.tolist()):
        for t in range(end, first, -1):
            path[t, b] = label
            label = steps[t - 1][b][label]
        path[first, b] = label
    return path, final[np.arange(len(col)), best]


def marginals(emissions, crf: CrfParams, lengths, bounds=None) -> np.ndarray:
    """Posterior P(y_t = label) for every real position, rows summing to one;
    padding rows are zero."""
    emissions, lengths = _check(emissions, lengths)
    return _forward_backward(emissions, lengths, crf, bounds)[4]


def nll_and_grad(
    emissions, crf: CrfParams, gold, lengths
) -> tuple[np.ndarray, np.ndarray, CrfParams]:
    """Negative log-likelihood of each column of ``gold`` plus exact gradients
    of their sum.

    Returns ``(losses, d_emissions, d_crf)`` where the gradients are the
    usual expected-minus-observed sufficient statistics: ``d_emissions[t, b,
    l] = P(y_t = l) - [gold_t = l]`` (zero on padding) and likewise for
    transition and boundary counts. Each loss is ``log_partition - S(gold)
    >= 0``.
    """
    emissions, lengths = _check(emissions, lengths)
    y = np.asarray(gold, dtype=np.int64)
    n, batch, num_labels = emissions.shape
    cols, last = np.arange(batch), lengths - 1
    alpha, beta_e, shift, real, probs = _forward_backward(emissions, lengths, crf)
    log_z = _log_z(alpha, shift, real, lengths, crf)
    losses = log_z - _path_score(emissions, crf, y, lengths)  # checks the shape of y

    d_start = probs[0].sum(axis=0) - np.bincount(y[0], minlength=num_labels)
    d_end = probs[last, cols].sum(axis=0) - np.bincount(y[last, cols], minlength=num_labels)
    t, b = np.nonzero(real)
    d_emissions = probs
    d_emissions[t, b, y[t, b]] -= 1.0

    # expected transition counts: P(y_t = i, y_{t+1} = j) summed over t and columns
    moves = real[1:]
    pair = alpha[:-1, :, :, None] + crf.trans + beta_e[1:, :, None, :]
    d_trans = _normalised(pair, moves).sum(axis=(0, 1))
    np.add.at(d_trans, (y[:-1][moves], y[1:][moves]), -1.0)
    return losses, d_emissions, CrfParams(trans=d_trans, start=d_start, end=d_end)
