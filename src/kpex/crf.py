"""Linear-chain CRF over the three BIO labels.

The score of a label sequence y for emissions e is

    S(y) = start[y_0] + sum_t e[t, y_t] + sum_t trans[y_t, y_{t+1}] + end[y_{n-1}]

and all inference (partition function, Viterbi, posterior marginals,
likelihood gradients) runs in log space with stable log-sum-exp. Every
function takes a time-major batch: emissions ``(n_max, B, L)``, one
document per column, and the ``(B,)`` lengths; padding rows sit at each
column's tail, so no time loop needs a mask. No
transition is forbidden; O->I decodes are repaired downstream by the
orphan-I rule in :mod:`kpex.corpus`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import NUM_LABELS, check_lengths
from .errors import NumericError


@dataclass
class CrfParams:
    trans: np.ndarray  # (L, L); trans[i, j] scores label j following label i
    start: np.ndarray  # (L,)
    end: np.ndarray  # (L,)

    @classmethod
    def zeros(cls, num_labels: int = NUM_LABELS) -> "CrfParams":
        return cls(
            trans=np.zeros((num_labels, num_labels)),
            start=np.zeros(num_labels),
            end=np.zeros(num_labels),
        )

    def copy(self) -> "CrfParams":
        return CrfParams(self.trans.copy(), self.start.copy(), self.end.copy())


def crf_tensors(crf: CrfParams) -> dict:
    return {"crf.trans": crf.trans, "crf.start": crf.start, "crf.end": crf.end}


def real_positions(lengths: np.ndarray, n_max: int) -> np.ndarray:
    """``(n_max, B)`` mask, true where row t lies inside column b."""
    return np.arange(n_max)[:, None] < lengths


def reversal(lengths: np.ndarray, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather indices ``(rows, cols)`` that reverse each column's first ``lengths[b]``
    rows and keep its padding at the tail; the gather is its own inverse."""
    t = np.arange(n_max)[:, None]
    return np.where(t < lengths, lengths - 1 - t, t), np.arange(len(lengths))


def _check(emissions, lengths) -> tuple[np.ndarray, np.ndarray]:
    emissions = np.asarray(emissions, dtype=np.float64)
    if emissions.ndim != 3:
        raise ValueError(f"emissions must be (n_max, B, L), got shape {emissions.shape}")
    lengths = check_lengths(lengths, *emissions.shape[:2])
    if not np.all(np.isfinite(emissions)):
        raise NumericError("non-finite emission score")
    return emissions, lengths


def _alphas(emissions: np.ndarray, trans: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Forward log-scores of every column; padding at the tail never feeds a real row."""
    alpha = np.empty_like(emissions)
    alpha[0] = first + emissions[0]
    for t in range(1, emissions.shape[0]):
        alpha[t] = np.logaddexp.reduce(alpha[t - 1][:, :, None] + trans, axis=1) + emissions[t]
    return alpha


def _forward_backward(emissions, lengths, crf: CrfParams):
    """Per column: ``alpha``, ``beta + emissions``, ``log Z`` and the
    posterior marginals (zero on padding). The betas are the alphas of each
    column reversed within its length, transitions transposed and the end
    scores as the start."""
    rev = reversal(lengths, emissions.shape[0])
    alpha = _alphas(emissions, crf.trans, crf.start)
    beta_e = _alphas(emissions[rev], crf.trans.T, crf.end)[rev]
    log_z = np.logaddexp.reduce(alpha[lengths - 1, np.arange(len(lengths))] + crf.end, axis=1)
    real = real_positions(lengths, emissions.shape[0])[:, :, None]
    # padding rows are masked before exp: their scores carry no meaning and can overflow
    probs = np.exp(np.where(real, alpha + beta_e - emissions - log_z[:, None], -np.inf))
    return alpha, beta_e, log_z, probs


def log_partition(emissions, crf: CrfParams, lengths) -> np.ndarray:
    """log of the summed exponentiated scores over all label sequences, per column."""
    return _forward_backward(*_check(emissions, lengths), crf)[2]


def sequence_score(emissions, crf: CrfParams, labels, lengths) -> np.ndarray:
    """S(labels) under the score decomposition above, per column of ``labels`` (n_max, B)."""
    emissions, lengths = _check(emissions, lengths)
    y = np.asarray(labels, dtype=np.int64)
    if y.shape != emissions.shape[:2]:
        raise ValueError(f"labels of shape {y.shape} for emissions of shape {emissions.shape}")
    real = real_positions(lengths, y.shape[0])
    emitted = np.where(real, np.take_along_axis(emissions, y[:, :, None], axis=2)[:, :, 0], 0.0)
    moved = np.where(real[1:], crf.trans[y[:-1], y[1:]], 0.0)
    last = y[lengths - 1, np.arange(len(lengths))]
    return crf.start[y[0]] + emitted.sum(axis=0) + crf.end[last] + moved.sum(axis=0)


def viterbi(emissions, crf: CrfParams, lengths) -> tuple[np.ndarray, np.ndarray]:
    """Best-scoring label sequence of every column, ``(n_max, B)`` with O past
    each length, and the ``(B,)`` best scores.

    Ties are broken toward the lowest label index at every backtracking
    step, so an all-zero score instance decodes to all-O.
    """
    emissions, lengths = _check(emissions, lengths)
    n, batch, num_labels = emissions.shape
    cols = np.arange(batch)
    delta = np.empty_like(emissions)
    delta[0] = crf.start + emissions[0]
    backptr = np.empty((n, batch, num_labels), dtype=np.int64)
    into = crf.trans.T.copy()  # into[j, i] scores label j following label i
    for t in range(1, n):
        scores = delta[t - 1][:, None, :] + into  # (B, to, from)
        backptr[t] = scores.argmax(axis=2)  # argmax keeps the lowest index on ties
        delta[t] = np.maximum.reduce(scores, axis=2) + emissions[t]
    final = delta[lengths - 1, cols] + crf.end
    best = np.argmax(final, axis=1)
    path = np.zeros((n, batch), dtype=np.int64)
    steps = backptr.tolist()  # the serial backtrack runs faster on Python lists
    for b, (length, label) in enumerate(zip(lengths.tolist(), best.tolist())):
        for t in range(length - 1, 0, -1):
            path[t, b] = label
            label = steps[t][b][label]
        path[0, b] = label
    return path, final[cols, best]


def marginals(emissions, crf: CrfParams, lengths) -> np.ndarray:
    """Posterior P(y_t = label) for every real position, rows summing to one;
    padding rows are zero."""
    return _forward_backward(*_check(emissions, lengths), crf)[3]


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
    cols = np.arange(batch)
    last = lengths - 1
    real = real_positions(lengths, n)

    alpha, beta_e, log_z, probs = _forward_backward(emissions, lengths, crf)
    losses = log_z - sequence_score(emissions, crf, y, lengths)  # checks the shape of y

    d_start = probs[0].sum(axis=0) - np.bincount(y[0], minlength=num_labels)
    d_end = probs[last, cols].sum(axis=0) - np.bincount(y[last, cols], minlength=num_labels)
    t, b = np.nonzero(real)
    d_emissions = probs
    d_emissions[t, b, y[t, b]] -= 1.0

    # expected transition counts: P(y_t = i, y_{t+1} = j) summed over t and columns
    pair = alpha[:-1, :, :, None] + crf.trans + beta_e[1:, :, None, :] - log_z[:, None, None]
    d_trans = np.exp(np.where(real[1:, :, None, None], pair, -np.inf)).sum(axis=(0, 1))
    moves = real[1:]
    np.add.at(d_trans, (y[:-1][moves], y[1:][moves]), -1.0)
    return losses, d_emissions, CrfParams(trans=d_trans, start=d_start, end=d_end)


def phrase_confidence(marg: np.ndarray, span: tuple[int, int], span_labels) -> float:
    """Probability of a decoded phrase under the per-token independence product.

    ``span`` is half-open over the document and ``span_labels`` are the
    decoded labels on it; the confidence is the product of the posterior
    marginals of those labels.
    """
    s, e = span
    if e <= s:
        raise ValueError(f"empty span [{s}, {e})")
    if s < 0 or e > marg.shape[0]:
        raise ValueError(f"span [{s}, {e}) outside document of length {marg.shape[0]}")
    y = np.asarray(span_labels, dtype=np.int64)
    if y.shape[0] != e - s:
        raise ValueError(f"{y.shape[0]} span labels for span of length {e - s}")
    return float(np.prod(marg[np.arange(s, e), y]))
