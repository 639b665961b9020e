"""Linear-chain CRF over the three BIO labels.

The score of a label sequence y for emissions e is

    S(y) = start[y_0] + sum_t e[t, y_t] + sum_t trans[y_t, y_{t+1}] + end[y_{n-1}]

and all inference (partition function, Viterbi, posterior marginals,
likelihood gradients) runs in log space with stable log-sum-exp. No
transition is forbidden; O->I decodes are repaired downstream by the
orphan-I rule in :mod:`kpex.corpus`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import NUM_LABELS
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


def _check(emissions: np.ndarray) -> np.ndarray:
    emissions = np.asarray(emissions, dtype=np.float64)
    if emissions.ndim != 2 or emissions.shape[0] < 1:
        raise ValueError(f"emissions must be (n >= 1, L), got shape {emissions.shape}")
    if not np.all(np.isfinite(emissions)):
        raise NumericError("non-finite emission score")
    return emissions


def _alphas(emissions: np.ndarray, crf: CrfParams) -> np.ndarray:
    n = emissions.shape[0]
    alpha = np.empty_like(emissions)
    alpha[0] = crf.start + emissions[0]
    for t in range(1, n):
        alpha[t] = np.logaddexp.reduce(alpha[t - 1][:, None] + crf.trans, axis=0) + emissions[t]
    return alpha


def _betas(emissions: np.ndarray, crf: CrfParams) -> np.ndarray:
    n = emissions.shape[0]
    beta = np.empty_like(emissions)
    beta[n - 1] = crf.end
    for t in range(n - 2, -1, -1):
        beta[t] = np.logaddexp.reduce(
            crf.trans + emissions[t + 1][None, :] + beta[t + 1][None, :], axis=1
        )
    return beta


def log_partition(emissions, crf: CrfParams) -> float:
    """log of the summed exponentiated scores over all label sequences."""
    emissions = _check(emissions)
    alpha = _alphas(emissions, crf)
    return float(np.logaddexp.reduce(alpha[-1] + crf.end))


def sequence_score(emissions, crf: CrfParams, labels) -> float:
    """S(labels) under the score decomposition above."""
    emissions = _check(emissions)
    y = np.asarray(labels, dtype=np.int64)
    if y.shape[0] != emissions.shape[0]:
        raise ValueError(f"{y.shape[0]} labels for {emissions.shape[0]} emission rows")
    score = crf.start[y[0]] + emissions[np.arange(len(y)), y].sum() + crf.end[y[-1]]
    score += crf.trans[y[:-1], y[1:]].sum()
    return float(score)


def viterbi(emissions, crf: CrfParams) -> tuple[np.ndarray, float]:
    """Best-scoring label sequence and its score.

    Ties are broken toward the lowest label index at every backtracking
    step, so an all-zero score instance decodes to all-O.
    """
    emissions = _check(emissions)
    n, num_labels = emissions.shape
    delta = crf.start + emissions[0]
    backptr = np.empty((n, num_labels), dtype=np.int64)
    for t in range(1, n):
        scores = delta[:, None] + crf.trans  # (from, to)
        backptr[t] = np.argmax(scores, axis=0)  # argmax keeps the lowest index on ties
        delta = scores[backptr[t], np.arange(num_labels)] + emissions[t]
    final = delta + crf.end
    best = int(np.argmax(final))
    path = np.empty(n, dtype=np.int64)
    path[-1] = best
    for t in range(n - 1, 0, -1):
        path[t - 1] = backptr[t, path[t]]
    return path, float(final[best])


def marginals(emissions, crf: CrfParams) -> np.ndarray:
    """Posterior P(y_t = label) for every position, rows summing to one."""
    emissions = _check(emissions)
    alpha = _alphas(emissions, crf)
    beta = _betas(emissions, crf)
    log_z = np.logaddexp.reduce(alpha[-1] + crf.end)
    return np.exp(alpha + beta - log_z)


def nll_and_grad(emissions, crf: CrfParams, gold) -> tuple[float, np.ndarray, CrfParams]:
    """Negative log-likelihood of ``gold`` plus exact gradients.

    Returns ``(loss, d_emissions, d_crf)`` where the gradients are the usual
    expected-minus-observed sufficient statistics: ``d_emissions[t, l] =
    P(y_t = l) - [gold_t = l]`` and likewise for transition and boundary
    counts. The loss is ``log_partition - S(gold) >= 0``.
    """
    emissions = _check(emissions)
    y = np.asarray(gold, dtype=np.int64)
    n = emissions.shape[0]
    if y.shape[0] != n:
        raise ValueError(f"{y.shape[0]} gold labels for {n} emission rows")

    alpha = _alphas(emissions, crf)
    beta = _betas(emissions, crf)
    log_z = float(np.logaddexp.reduce(alpha[-1] + crf.end))
    probs = np.exp(alpha + beta - log_z)

    loss = log_z - sequence_score(emissions, crf, y)

    d_emissions = probs.copy()
    d_emissions[np.arange(n), y] -= 1.0

    # expected transition counts: P(y_t = i, y_{t+1} = j) summed over t
    pair = alpha[:-1, :, None] + crf.trans + (emissions[1:] + beta[1:])[:, None, :]
    d_trans = np.exp(pair - log_z).sum(axis=0)
    np.add.at(d_trans, (y[:-1], y[1:]), -1.0)

    d_start = probs[0].copy()
    d_start[y[0]] -= 1.0
    d_end = probs[-1].copy()
    d_end[y[-1]] -= 1.0
    return loss, d_emissions, CrfParams(trans=d_trans, start=d_start, end=d_end)


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
