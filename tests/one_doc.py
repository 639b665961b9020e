"""One document as the B = 1 call of the packed engine.

A single document's packed rows are its own rows in reading order, so each
helper only lays out its one length, calls the batched function and takes
the one column's scalars out: the oracle tests check the only engine there is.
"""

from kpex import crf, encoder


def encode_forward(params, ids):
    return encoder.encode_forward(params, ids, encoder.pack([len(ids)]))


encode_backward = encoder.encode_backward


def log_partition(emissions, params) -> float:
    return float(crf.log_partition(emissions, params, encoder.pack([len(emissions)]))[0])


def sequence_score(emissions, params, labels) -> float:
    return float(crf.sequence_score(emissions, params, labels, encoder.pack([len(emissions)]))[0])


def viterbi(emissions, params):
    path, score = crf.viterbi(emissions, params, encoder.pack([len(emissions)]))
    return path, float(score[0])


def marginals(emissions, params):
    return crf.marginals(emissions, params, encoder.pack([len(emissions)]))


def nll_and_grad(emissions, params, gold):
    loss, d_emissions, d_crf = crf.nll_and_grad(
        emissions, params, gold, encoder.pack([len(emissions)])
    )
    return float(loss[0]), d_emissions, d_crf
