import math

import numpy as np
import numpy.testing as npt
import pytest

from kpex import NumericError
from kpex.crf import CrfParams, phrase_confidence

from one_doc import log_partition, marginals, nll_and_grad, sequence_score, viterbi
from oracles import brute_force_crf, central_difference_grad, relative_error


def random_instance(rng, n):
    emissions = rng.normal(size=(n, 3))
    crf = CrfParams(
        trans=rng.normal(size=(3, 3)), start=rng.normal(size=3), end=rng.normal(size=3)
    )
    return emissions, crf


# -- log partition -----------------------------------------------------------


def test_uniform_single_position():
    assert log_partition(np.zeros((1, 3)), CrfParams.zeros()) == pytest.approx(
        1.0986122886681098, abs=1e-12
    )


def test_uniform_two_positions():
    assert log_partition(np.zeros((2, 3)), CrfParams.zeros()) == pytest.approx(
        2.1972245773362196, abs=1e-12
    )


def test_log_partition_matches_enumeration():
    rng = np.random.default_rng(0)
    for _ in range(25):
        emissions, crf = random_instance(rng, 6)
        ref = brute_force_crf(emissions, crf.trans, crf.start, crf.end)
        assert abs(log_partition(emissions, crf) - ref["log_z"]) <= 1e-10


def test_nonfinite_emissions_rejected():
    e = np.zeros((2, 3))
    e[1, 1] = np.inf
    with pytest.raises(NumericError):
        log_partition(e, CrfParams.zeros())


def test_shift_invariance():
    rng = np.random.default_rng(3)
    for _ in range(10):
        emissions, crf = random_instance(rng, 5)
        shifted = emissions + 2.5
        assert log_partition(shifted, crf) == pytest.approx(
            log_partition(emissions, crf) + 5 * 2.5, abs=1e-9
        )
        npt.assert_allclose(marginals(shifted, crf), marginals(emissions, crf), atol=1e-12)
        npt.assert_array_equal(viterbi(shifted, crf)[0], viterbi(emissions, crf)[0])


# -- Viterbi -----------------------------------------------------------------


def test_zero_transitions_decode_per_position_argmax():
    rng = np.random.default_rng(1)
    emissions = rng.normal(size=(6, 3))
    crf = CrfParams.zeros()
    path, score = viterbi(emissions, crf)
    npt.assert_array_equal(path, emissions.argmax(axis=1))
    assert score == pytest.approx(emissions.max(axis=1).sum())


def test_total_tie_decodes_all_o():
    path, score = viterbi(np.zeros((5, 3)), CrfParams.zeros())
    npt.assert_array_equal(path, 0)
    assert score == 0.0


def test_viterbi_matches_enumeration_exactly():
    rng = np.random.default_rng(2)
    for _ in range(25):
        emissions, crf = random_instance(rng, 6)
        ref = brute_force_crf(emissions, crf.trans, crf.start, crf.end)
        path, score = viterbi(emissions, crf)
        assert score == ref["max_score"]  # same left-to-right additions, bit-exact
        assert tuple(path) == ref["best_path"]


# -- marginals ---------------------------------------------------------------


def test_uniform_marginals():
    npt.assert_allclose(marginals(np.zeros((4, 3)), CrfParams.zeros()), 1.0 / 3.0)


def test_rows_sum_to_one():
    rng = np.random.default_rng(4)
    for _ in range(20):
        emissions, crf = random_instance(rng, int(rng.integers(1, 9)))
        probs = marginals(emissions, crf)
        npt.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-10)
        assert probs.min() >= 0.0


def test_marginals_match_enumeration():
    rng = np.random.default_rng(5)
    for _ in range(25):
        emissions, crf = random_instance(rng, 5)
        ref = brute_force_crf(emissions, crf.trans, crf.start, crf.end)
        npt.assert_allclose(marginals(emissions, crf), ref["marginals"], atol=1e-10)


def test_log_partition_gradient_is_the_marginal_matrix():
    rng = np.random.default_rng(6)
    emissions, crf = random_instance(rng, 4)
    numeric = central_difference_grad(
        lambda: log_partition(emissions, crf), emissions, step=1e-4
    )
    npt.assert_allclose(numeric, marginals(emissions, crf), atol=1e-7)


# -- NLL and gradients -------------------------------------------------------


def test_peaked_emissions_drive_loss_to_zero():
    rng = np.random.default_rng(7)
    emissions, crf = random_instance(rng, 5)
    gold = rng.integers(0, 3, 5)
    peaked = emissions.copy()
    peaked[np.arange(5), gold] += 1e6
    loss, d_emissions, d_crf = nll_and_grad(peaked, crf, gold)
    assert loss == pytest.approx(0.0, abs=1e-6)
    assert np.abs(d_emissions).max() == pytest.approx(0.0, abs=1e-6)
    assert np.abs(d_crf.trans).max() == pytest.approx(0.0, abs=1e-6)


def test_uniform_single_position_loss_and_gradient():
    loss, d_emissions, d_crf = nll_and_grad(np.zeros((1, 3)), CrfParams.zeros(), [1])
    assert loss == pytest.approx(math.log(3), abs=1e-12)
    npt.assert_allclose(d_emissions, [[1 / 3, 1 / 3 - 1, 1 / 3]], atol=1e-12)
    npt.assert_array_equal(d_crf.trans, 0.0)  # no transition in a one-token document


def test_loss_is_a_nonnegative_log_probability():
    rng = np.random.default_rng(8)
    for _ in range(20):
        emissions, crf = random_instance(rng, 5)
        gold = rng.integers(0, 3, 5)
        loss, _, _ = nll_and_grad(emissions, crf, gold)
        assert loss >= -1e-12
        p = math.exp(sequence_score(emissions, crf, gold) - log_partition(emissions, crf))
        assert 0.0 <= p <= 1.0 + 1e-12


def test_gradients_match_finite_differences():
    rng = np.random.default_rng(9)
    for _ in range(5):
        emissions, crf = random_instance(rng, 5)
        gold = rng.integers(0, 3, 5)

        def loss():
            return nll_and_grad(emissions, crf, gold)[0]

        _, d_emissions, d_crf = nll_and_grad(emissions, crf, gold)
        pairs = [
            (d_emissions, emissions),
            (d_crf.trans, crf.trans),
            (d_crf.start, crf.start),
            (d_crf.end, crf.end),
        ]
        for analytic, arr in pairs:
            numeric = central_difference_grad(loss, arr, step=1e-3)
            assert relative_error(analytic, numeric) <= 1e-6


# -- phrase confidence -------------------------------------------------------


def test_confidence_is_the_marginal_product():
    marg = np.array([[0.05, 0.9, 0.05], [0.1, 0.1, 0.8], [1.0, 0.0, 0.0]])
    assert phrase_confidence(marg, (0, 2), [1, 2]) == pytest.approx(0.72)
    assert phrase_confidence(marg, (2, 3), [0]) == pytest.approx(1.0)


def test_confidence_rejects_empty_span():
    with pytest.raises(ValueError, match="empty span"):
        phrase_confidence(np.full((3, 3), 1 / 3), (1, 1), [])


def test_confidence_bounded_and_monotone_under_extension():
    rng = np.random.default_rng(10)
    for _ in range(20):
        emissions, crf = random_instance(rng, 6)
        marg = marginals(emissions, crf)
        labels = rng.integers(0, 3, 6)
        full = phrase_confidence(marg, (1, 5), labels[1:5])
        shorter = phrase_confidence(marg, (1, 4), labels[1:4])
        assert full <= shorter + 1e-15  # extending a span never raises confidence
        assert full <= marg[np.arange(1, 5), labels[1:5]].min() + 1e-15
