"""Linear-chain CRF over the three BIO labels.

The score of a label sequence y for emissions e is

    S(y) = start[y_0] + sum_t e[t, y_t] + sum_t trans[y_t, y_{t+1}] + end[y_{n-1}]

and all inference is one forward recursion run in two semirings: log-sum-exp
for the partition function, marginals and likelihood gradients, max-plus for
Viterbi. The log-sum-exp recursion subtracts each step's label-0 score, so its
scores stay at one step's scale however long the document, and marginals are
normalised position by position. Every function takes the packed rows of a
batch, as the encoder returns them: emissions ``(N, L)``, labels ``(N,)`` and
the batch's :class:`kpex.encoder.Layout`, in which step s holds the documents
still inside their lengths, a prefix of step s - 1's in the same ranks. Per-row
results (paths, marginals, ``d_emissions``) are packed rows too, and per-document
ones ``(B,)`` in column order. No transition is forbidden; O->I decodes are
repaired by :mod:`kpex.corpus`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import NUM_LABELS, Layout, check_integers
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


def _check(emissions, layout: Layout) -> np.ndarray:
    emissions = np.asarray(emissions, dtype=np.float64)
    if emissions.ndim != 2 or len(emissions) != len(layout.t):
        raise ValueError(f"emissions must be ({len(layout.t)}, L) for lengths summing to "
                         f"{len(layout.t)}, got shape {emissions.shape}")
    if not np.all(np.isfinite(emissions)):
        raise NumericError("non-finite emission score")
    return emissions


def _labels(labels, layout: Layout, what: str, num_labels: int) -> np.ndarray:
    """Packed ``labels`` of ``layout``, each an integer in [0, ``num_labels``)."""
    y = check_integers(labels, what)
    if y.shape != layout.t.shape:
        raise ValueError(f"{what} of shape {y.shape} for {len(layout.t)} packed rows")
    if y.min() < 0 or y.max() >= num_labels:
        bad = np.unique(y[(y < 0) | (y >= num_labels)]).tolist()
        raise ValueError(f"{what} must be in [0, {num_labels}), got {bad}")
    return y


def _alphas(emissions, trans, first, off, shift=None, reduce=np.logaddexp.reduce) -> np.ndarray:
    """Forward scores ``(N, ..., L)`` of packed rows, C-contiguous, from a label-major loop: step
    s's rows ``off[s]:off[s + 1]`` reduce the first rows of step s - 1's plus ``trans`` over the
    leading previous-label axis, so ``trans`` is ``(L, L, ...)`` and ``first`` ``(L, ...)``,
    broadcast over the axes between. With ``shift``, shaped ``(..., N)``, each row's label-0 score
    moves into it."""
    e, off = np.ascontiguousarray(emissions.T), off.tolist()
    alpha = np.empty(e.shape)
    np.add(first, e[..., : off[1]], out=alpha[..., : off[1]])
    for s, (start, stop) in enumerate(zip(off, off[1:])):
        a = alpha[..., start:stop]
        if s:
            prev = alpha[..., off[s - 1] : off[s - 1] + stop - start]
            reduce(prev[:, None] + trans, axis=0, out=a)
            a += e[..., start:stop]
        if shift is not None:
            shift[..., start:stop] = a[0]
            a -= shift[..., start:stop]
    return np.ascontiguousarray(alpha.T)


def _normalised(scores) -> np.ndarray:
    """``exp(scores)`` normalised over all axes after the first, row by row."""
    labels = tuple(range(1, scores.ndim))
    probs = np.exp(scores - scores.max(axis=labels, keepdims=True))
    probs /= probs.sum(axis=labels, keepdims=True)
    return probs


def _forward_backward(e, layout: Layout, crf: CrfParams):
    """Per packed row ``alpha`` and ``beta + emissions``, each off by a constant per row, the
    forward shifts and the posterior marginals. One shifted recursion runs both directions on
    axis 1: the betas are the alphas of direction 1, which reads each column reversed at the
    ``mirror`` rows, with transitions transposed and the end scores as the start."""
    shift = np.empty((2, len(e)))
    ends = np.stack((crf.start, crf.end), axis=-1)[..., None]  # label-major, (L, 2, 1)
    trans = np.stack((crf.trans, crf.trans.T), axis=-1)[..., None]  # (L, L, 2, 1)
    both = _alphas(np.stack((e, e[layout.mirror]), 1), trans, ends, layout.off, shift)
    alpha, beta_e = both[:, 0], both[:, 1][layout.mirror]
    return alpha, beta_e, shift[0], _normalised(alpha + beta_e - e)


def _log_z(layout: Layout, alpha, shift, crf: CrfParams) -> np.ndarray:
    """``log Z`` per column: the forward shifts of its rows, summed in the padded batch's order,
    plus its last row's log-sum-exp."""
    return layout.column_sums(shift) + np.logaddexp.reduce(alpha[layout.last] + crf.end, axis=1)


def log_partition(emissions, crf: CrfParams, layout: Layout) -> np.ndarray:
    """log of the summed exponentiated scores over all label sequences, per column."""
    alpha, _, shift, _ = _forward_backward(_check(emissions, layout), layout, crf)
    return _log_z(layout, alpha, shift, crf)


def sequence_score(emissions, crf: CrfParams, labels, layout: Layout) -> np.ndarray:
    """S(labels) under the score decomposition above, per column, of packed ``labels``."""
    emissions = _check(emissions, layout)
    return _path_score(emissions, crf, _labels(labels, layout, "labels", len(crf.start)), layout)


def _path_score(emissions, crf: CrfParams, y, layout: Layout) -> np.ndarray:
    """``sequence_score`` of checked emissions and labels; each column's emitted and transition
    scores are summed in the padded batch's order."""
    emitted = layout.column_sums(emissions[np.arange(len(y)), y])
    moved = layout.column_sums(crf.trans[y[layout.prev], y[len(layout.lengths) :]], skip=1)
    return crf.start[y[layout.first]] + emitted + crf.end[y[layout.last]] + moved


def viterbi(emissions, crf: CrfParams, layout: Layout) -> tuple[np.ndarray, np.ndarray]:
    """Best-scoring label sequence of every column, as ``(N,)`` packed rows, and the ``(B,)``
    best scores: the max-plus ``_alphas``, then every backpointer in one argmax after the loop.
    Ties are broken toward the lowest label index at every backtracking step, so all-zero scores
    decode to all-O.
    """
    emissions, batch = _check(emissions, layout), len(layout.lengths)
    delta = _alphas(emissions, crf.trans[..., None], crf.start[:, None], layout.off,
                    reduce=np.maximum.reduce)
    # backpointers (row, to) of the rows after step 0, from their rows one step back, as lists
    # for the serial backtrack
    back = (delta[layout.prev, None, :] + crf.trans.T).argmax(axis=2).tolist()
    final = delta[layout.last] + crf.end
    best = np.argmax(final, axis=1)
    path, prev = [0] * len(delta), layout.prev.tolist()
    for row, label in zip(layout.last.tolist(), best.tolist()):
        while row >= batch:
            path[row] = label
            label = back[row - batch][label]
            row = prev[row - batch]
        path[row] = label
    return np.array(path), final[np.arange(batch), best]


def marginals(emissions, crf: CrfParams, layout: Layout) -> np.ndarray:
    """Posterior P(y_t = label) of every packed row, ``(N, L)``, rows summing to one."""
    return _forward_backward(_check(emissions, layout), layout, crf)[-1]


def nll_and_grad(
    emissions, crf: CrfParams, gold, layout: Layout
) -> tuple[np.ndarray, np.ndarray, CrfParams]:
    """Negative log-likelihood of each column of packed ``gold`` labels plus exact gradients
    of their sum.

    Returns ``(losses, d_emissions, d_crf)`` where the gradients are the
    usual expected-minus-observed sufficient statistics: packed ``d_emissions[r,
    l] = P(y_r = l) - [gold_r = l]`` and likewise for transition and boundary
    counts. Each loss is ``log_partition - S(gold) >= 0``.
    """
    emissions, num_labels = _check(emissions, layout), len(crf.start)
    y = _labels(gold, layout, "gold labels", num_labels)
    t, col, batch = layout.t, layout.col, len(layout.lengths)
    alpha, beta_e, shift, probs = _forward_backward(emissions, layout, crf)
    losses = _log_z(layout, alpha, shift, crf) - _path_score(emissions, crf, y, layout)

    # the boundary rows are summed in column order, as the padded batch's rows were
    first, last = layout.first, layout.last
    d_start = probs[first].sum(axis=0) - np.bincount(y[first], minlength=num_labels)
    d_end = probs[last].sum(axis=0) - np.bincount(y[last], minlength=num_labels)
    d_emissions = probs
    d_emissions[np.arange(len(y)), y] -= 1.0

    # expected transition counts: P(y_t = i, y_{t+1} = j) summed over t and columns, in that
    # order, which the padded batch's sum takes
    order = np.argsort(t[batch:] * batch + col[batch:])
    moves, before = batch + order, layout.prev[order]
    pair = alpha[before, :, None] + crf.trans + beta_e[moves, None, :]
    d_trans = _normalised(pair).sum(axis=0)
    np.add.at(d_trans, (y[before], y[moves]), -1.0)
    return losses, d_emissions, CrfParams(trans=d_trans, start=d_start, end=d_end)
