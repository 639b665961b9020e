"""The time-major batch against its B = 1 columns.

Every engine function takes a padded ``(n_max, B)`` batch; the single-
document oracle tests call it with B = 1. These tests tie the two together
on a batch of mixed lengths, a one-token document included.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import one_doc
from kpex.crf import CrfParams, crf_tensors, log_partition, marginals, nll_and_grad, viterbi
from kpex.encoder import (
    EncoderDims,
    encode_backward,
    encode_forward,
    init_params,
    real_positions,
    time_major,
)

from oracles import relative_error

DIMS = EncoderDims(vocab_size=12, embed_dim=5, hidden_dim=4)
LENGTHS = [5, 1, 9, 3, 9, 2]
UNUSED = DIMS.vocab_size - 1  # a token id that only padding slots hold


def _random_crf(rng):
    return CrfParams(rng.normal(size=(3, 3)), rng.normal(size=3), rng.normal(size=3))


def _batch(seed=0):
    rng = np.random.default_rng(seed)
    docs = [rng.integers(1, UNUSED, n) for n in LENGTHS]
    golds = [rng.integers(0, 3, n) for n in LENGTHS]
    ids, lengths = time_major(docs)
    ids[~real_positions(lengths, ids.shape[0])] = UNUSED
    gold, _ = time_major(golds)
    return init_params(DIMS, seed), _random_crf(rng), docs, golds, ids, gold, lengths


def _gradients(params, crf, ids, gold, lengths, junk=None):
    emissions, cache = encode_forward(params, ids, lengths)
    losses, d_emissions, d_crf = nll_and_grad(emissions, crf, gold, lengths)
    if junk is not None:
        d_emissions = d_emissions + junk
    grads = {**encode_backward(params, cache, d_emissions), **crf_tensors(d_crf)}
    return losses, d_emissions, grads


def test_time_major_stacks_columns_with_zero_padding():
    ids, lengths = time_major([[3, 4], [5], [6, 7, 8]])
    npt.assert_array_equal(ids, [[3, 5, 6], [4, 0, 7], [0, 0, 8]])
    npt.assert_array_equal(lengths, [2, 1, 3])


def _assert_gradients_are_single_document_sums(params, crf, docs, golds, ids, gold, lengths):
    losses, _, batched = _gradients(params, crf, ids, gold, lengths)
    summed = {name: np.zeros_like(g) for name, g in batched.items()}
    for b, (doc, y) in enumerate(zip(docs, golds)):
        emissions, cache = one_doc.encode_forward(params, doc)
        loss, d_emissions, d_crf = one_doc.nll_and_grad(emissions, crf, y)
        assert abs(loss - losses[b]) <= 1e-12 * abs(loss)
        for name, g in {**one_doc.encode_backward(params, cache, d_emissions),
                        **crf_tensors(d_crf)}.items():
            summed[name] += g
    for name, g in batched.items():
        assert relative_error(g, summed[name]) <= 1e-12, name


def _assert_viterbi_matches_single_documents(emissions, crf, lengths):
    paths, scores = viterbi(emissions, crf, lengths)
    for b, n in enumerate(lengths):
        path, score = one_doc.viterbi(emissions[:n, b], crf)
        npt.assert_array_equal(paths[:n, b], path)
        assert scores[b] == score
        npt.assert_array_equal(paths[n:, b], 0)
    return paths


def test_batched_gradients_equal_the_sum_of_single_document_gradients():
    _assert_gradients_are_single_document_sums(*_batch())


def test_padding_receives_exactly_zero_gradient():
    params, crf, _, _, ids, gold, lengths = _batch(1)
    padding = ~real_positions(lengths, ids.shape[0])
    _, d_emissions, grads = _gradients(params, crf, ids, gold, lengths)
    assert np.all(d_emissions[padding] == 0.0)
    assert np.all(grads["embed"][UNUSED] == 0.0)
    # whatever sits at the padding rows of d_emissions is ignored, bit for bit
    junk = np.where(padding[:, :, None], np.random.default_rng(2).normal(size=d_emissions.shape), 0)
    _, _, junked = _gradients(params, crf, ids, gold, lengths, junk)
    for name, g in grads.items():
        npt.assert_array_equal(junked[name], g, err_msg=name)


def test_padding_token_ids_leave_real_emissions_bit_identical():
    params, _, _, _, ids, _, lengths = _batch(3)
    real = real_positions(lengths, ids.shape[0])
    other = ids.copy()
    other[~real] = np.random.default_rng(4).integers(0, DIMS.vocab_size, (~real).sum())
    first, _ = encode_forward(params, ids, lengths)
    second, _ = encode_forward(params, other, lengths)
    npt.assert_array_equal(first[real], second[real])


@pytest.mark.parametrize("crf_seed", [None, 5])
def test_batched_viterbi_paths_are_the_single_document_paths(crf_seed):
    rng = np.random.default_rng(6)
    crf = CrfParams.zeros() if crf_seed is None else _random_crf(np.random.default_rng(crf_seed))
    emissions = rng.normal(size=(max(LENGTHS), len(LENGTHS), 3))
    emissions[:, 2] = 0.0  # the longest column is a total tie under the zero CRF
    paths = _assert_viterbi_matches_single_documents(emissions, crf, np.array(LENGTHS))
    if crf_seed is None:
        npt.assert_array_equal(paths[:, 2], 0)


def test_batched_marginals_and_log_partition_match_single_documents():
    rng = np.random.default_rng(7)
    crf = _random_crf(rng)
    emissions = rng.normal(size=(max(LENGTHS), len(LENGTHS), 3))
    lengths = np.array(LENGTHS)
    probs = marginals(emissions, crf, lengths)
    log_z = log_partition(emissions, crf, lengths)
    for b, n in enumerate(LENGTHS):
        npt.assert_allclose(probs[:n, b], one_doc.marginals(emissions[:n, b], crf), rtol=1e-12)
        assert abs(log_z[b] - one_doc.log_partition(emissions[:n, b], crf)) <= 1e-12 * abs(log_z[b])
        npt.assert_array_equal(probs[n:, b], 0.0)


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    lengths=st.lists(st.integers(1, 30), min_size=1, max_size=12),
    hidden=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_any_length_mix_batches_as_its_single_documents(lengths, hidden, seed):
    rng = np.random.default_rng(seed)
    params = init_params(EncoderDims(DIMS.vocab_size, DIMS.embed_dim, hidden), rng)
    crf = _random_crf(rng)
    docs = [rng.integers(1, DIMS.vocab_size, n) for n in lengths]
    golds = [rng.integers(0, 3, n) for n in lengths]
    ids, lengths = time_major(docs)
    gold, _ = time_major(golds)
    padding = ~real_positions(lengths, ids.shape[0])
    ids[padding] = rng.integers(0, DIMS.vocab_size, padding.sum())  # junk, any valid id
    _assert_gradients_are_single_document_sums(params, crf, docs, golds, ids, gold, lengths)
    emissions, _ = encode_forward(params, ids, lengths)
    _assert_viterbi_matches_single_documents(emissions, crf, lengths)


def test_long_and_short_columns_raise_no_overflow():
    """Padding rows of a short column beside a long one hold scores that grow
    with the long column; they must never reach exp."""
    rng = np.random.default_rng(8)
    crf = _random_crf(rng)
    lengths = np.array([300, 2])
    emissions = rng.normal(size=(300, 2, 3))
    gold = rng.integers(0, 3, (300, 2))
    with np.errstate(over="raise"):
        probs = marginals(emissions, crf, lengths)
        losses, d_emissions, d_crf = nll_and_grad(emissions, crf, gold, lengths)
    for b, n in enumerate(lengths):
        npt.assert_allclose(probs[:n, b], one_doc.marginals(emissions[:n, b], crf), rtol=1e-12)
        loss, d_col, _ = one_doc.nll_and_grad(emissions[:n, b], crf, gold[:n, b])
        assert abs(losses[b] - loss) <= 1e-12 * abs(loss)
        npt.assert_allclose(d_emissions[:n, b], d_col, rtol=1e-12, atol=1e-15)
    npt.assert_array_equal(probs[2:, 1], 0.0)
    npt.assert_array_equal(d_emissions[2:, 1], 0.0)
    assert np.all(np.isfinite(d_crf.trans))


@pytest.mark.parametrize("lengths", [[0, 2], [3, 2], [2], []])
def test_lengths_must_fit_the_batch(lengths):
    with pytest.raises(ValueError, match="length"):
        encode_forward(init_params(DIMS, 0), np.ones((2, 2), dtype=np.int64), lengths)
    with pytest.raises(ValueError, match="length"):
        viterbi(np.zeros((2, 2, 3)), CrfParams.zeros(), lengths)
