"""One document as the B = 1 call of the time-major engine.

Each helper puts a single document's ``(n,)`` token ids, ``(n, L)``
emissions or ``(n,)`` labels into a one-column batch, calls the batched
function, and takes the column back out, so the oracle tests check the
only engine there is.
"""

import numpy as np

from kpex import crf, encoder


def column(a) -> np.ndarray:
    return np.asarray(a)[:, None]


def encode_forward(params, ids):
    emissions, cache = encoder.encode_forward(params, column(ids), [len(ids)])
    return emissions[:, 0], cache


def encode_backward(params, cache, d_emissions, out=None):
    return encoder.encode_backward(params, cache, column(d_emissions), out)


def log_partition(emissions, params) -> float:
    return float(crf.log_partition(column(emissions), params, [len(emissions)])[0])


def sequence_score(emissions, params, labels) -> float:
    return float(crf.sequence_score(column(emissions), params, column(labels), [len(emissions)])[0])


def viterbi(emissions, params):
    path, score = crf.viterbi(column(emissions), params, [len(emissions)])
    return path[:, 0], float(score[0])


def marginals(emissions, params) -> np.ndarray:
    return crf.marginals(column(emissions), params, [len(emissions)])[:, 0]


def nll_and_grad(emissions, params, gold):
    loss, d_emissions, d_crf = crf.nll_and_grad(
        column(emissions), params, column(gold), [len(emissions)]
    )
    return float(loss[0]), d_emissions[:, 0], d_crf
