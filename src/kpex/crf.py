"""Linear-chain CRF over the three BIO labels.

The score of a label sequence y for emissions e is

    S(y) = start[y_0] + sum_t e[t, y_t] + sum_t trans[y_t, y_{t+1}] + end[y_{n-1}]

and all inference is one forward recursion run in two semirings: log-sum-exp
for the partition function, marginals and likelihood gradients, max-plus for
Viterbi. The log-sum-exp recursion subtracts each step's label-0 score, so its
scores stay at one step's scale however long the document, and marginals are
normalised position by position. Every function takes a time-major batch:
emissions ``(n_max, B, L)``, one document per column, and the ``(B,)`` lengths.
The recursion runs over the encoder's packed rows (:func:`kpex.encoder._pack`):
step s holds the columns still inside their documents, a prefix of step s - 1's
in the same ranks, so padding is never computed. No transition is forbidden;
O->I decodes are repaired by :mod:`kpex.corpus`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import NUM_LABELS, _pack, _previous, check_integers, check_lengths
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


def _padded(packed, t, col, shape) -> np.ndarray:
    """Packed rows laid out at their ``(t, col)`` positions of a zero array of ``shape``."""
    out = np.zeros(shape, dtype=packed.dtype)
    out[t, col] = packed
    return out


def _forward_backward(emissions, lengths, crf: CrfParams):
    """The packed layout, and per packed row ``alpha`` and ``beta + emissions``, each off by a
    constant per row, the forward shifts and the posterior marginals. One shifted recursion runs both directions on axis 1: the betas are the alphas of
    direction 1, which reads each column reversed at the ``mirror`` rows, with transitions
    transposed and the end scores as the start."""
    layout = t, col, mirror, off = _pack(lengths, len(emissions))
    e, shift = emissions[t, col], np.empty((2, len(t)))
    ends = np.stack((crf.start, crf.end), axis=-1)[..., None]  # label-major, (L, 2, 1)
    trans = np.stack((crf.trans, crf.trans.T), axis=-1)[..., None]  # (L, L, 2, 1)
    both = _alphas(np.stack((e, e[mirror]), 1), trans, ends, off, shift)
    alpha, beta_e = both[:, 0], both[:, 1][mirror]
    return layout, alpha, beta_e, shift[0], _normalised(alpha + beta_e - e)


def _log_z(layout, alpha, shift, shape, crf: CrfParams) -> np.ndarray:
    """``log Z`` per column: the forward shifts of its rows, summed down the zero-padded
    ``(n_max, B)`` array so that each column sums in the same order at any batch size, plus its
    last row's log-sum-exp. A column's last row is the mirror of its first, at its rank."""
    t, col, mirror, _ = layout
    log_z = _padded(shift, t, col, shape).sum(axis=0)
    log_z += np.logaddexp.reduce(alpha[mirror[np.argsort(col[: shape[1]])]] + crf.end, axis=1)
    return log_z


def log_partition(emissions, crf: CrfParams, lengths) -> np.ndarray:
    """log of the summed exponentiated scores over all label sequences, per column."""
    emissions, lengths = _check(emissions, lengths)
    layout, alpha, _, shift, _ = _forward_backward(emissions, lengths, crf)
    return _log_z(layout, alpha, shift, emissions.shape[:2], crf)


def sequence_score(emissions, crf: CrfParams, labels, lengths) -> np.ndarray:
    """S(labels) under the score decomposition above, per column of ``labels`` (n_max, B)."""
    emissions, lengths = _check(emissions, lengths)
    return _path_score(emissions, crf, labels, lengths)


def _path_score(emissions, crf: CrfParams, labels, lengths) -> np.ndarray:
    """``sequence_score`` of emissions and lengths that ``_check`` has passed."""
    y = check_integers(labels, "labels")
    if y.shape != emissions.shape[:2]:
        raise ValueError(f"labels of shape {y.shape} for emissions of shape {emissions.shape}")
    real = real_positions(lengths, y.shape[0])
    emitted = np.where(real, np.take_along_axis(emissions, y[:, :, None], axis=2)[:, :, 0], 0.0)
    moved = np.where(real[1:], crf.trans[y[:-1], y[1:]], 0.0)
    last = y[lengths - 1, np.arange(len(lengths))]
    return crf.start[y[0]] + emitted.sum(axis=0) + crf.end[last] + moved.sum(axis=0)


def viterbi(emissions, crf: CrfParams, lengths) -> tuple[np.ndarray, np.ndarray]:
    """Best-scoring label sequence of every column, ``(n_max, B)`` with O past
    each length, and the ``(B,)`` best scores: the max-plus ``_alphas``, then
    every backpointer in one argmax after the loop. Ties are broken toward the
    lowest label index at every backtracking step, so all-zero scores decode to all-O.
    """
    emissions, lengths = _check(emissions, lengths)
    n, batch = emissions.shape[:2]
    t, col, mirror, off = _pack(lengths, n)
    delta = _alphas(emissions[t, col], crf.trans[..., None], crf.start[:, None], off,
                    reduce=np.maximum.reduce)
    # backpointers (row, to) of the rows after step 0, from their rows one step back, as lists
    # for the serial backtrack
    prev = _previous(t, batch)
    back = (delta[prev, None, :] + crf.trans.T).argmax(axis=2).tolist()
    last = mirror[np.argsort(col[:batch])]  # each column's last row
    final = delta[last] + crf.end
    best = np.argmax(final, axis=1)
    path, prev = [0] * len(t), prev.tolist()
    for row, label in zip(last.tolist(), best.tolist()):
        while row >= batch:
            path[row] = label
            label = back[row - batch][label]
            row = prev[row - batch]
        path[row] = label
    return _padded(np.array(path), t, col, (n, batch)), final[np.arange(batch), best]


def marginals(emissions, crf: CrfParams, lengths) -> np.ndarray:
    """Posterior P(y_t = label) for every real position, rows summing to one;
    padding rows are zero."""
    emissions, lengths = _check(emissions, lengths)
    (t, col, _, _), *_, probs = _forward_backward(emissions, lengths, crf)
    return _padded(probs, t, col, emissions.shape)


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
    y = check_integers(gold, "gold labels")
    n, batch, num_labels = emissions.shape
    layout, alpha, beta_e, shift, probs = _forward_backward(emissions, lengths, crf)
    log_z = _log_z(layout, alpha, shift, (n, batch), crf)
    losses = log_z - _path_score(emissions, crf, y, lengths)  # checks the shape of y
    t, col, _, _ = layout

    d_emissions = _padded(probs, t, col, emissions.shape)
    cols, last = np.arange(batch), lengths - 1
    d_start = d_emissions[0].sum(axis=0) - np.bincount(y[0], minlength=num_labels)
    d_end = d_emissions[last, cols].sum(axis=0) - np.bincount(y[last, cols], minlength=num_labels)
    labels = y[t, col]
    d_emissions[t, col, labels] -= 1.0

    # expected transition counts: P(y_t = i, y_{t+1} = j) summed over t and columns, in that
    # order, which the padded batch's sum takes
    order = np.argsort(t[batch:] * batch + col[batch:])
    moves, before = batch + order, _previous(t, batch)[order]
    pair = alpha[before, :, None] + crf.trans + beta_e[moves, None, :]
    d_trans = _normalised(pair).sum(axis=0)
    np.add.at(d_trans, (labels[before], labels[moves]), -1.0)
    return losses, d_emissions, CrfParams(trans=d_trans, start=d_start, end=d_end)
