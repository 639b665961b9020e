import math

import numpy as np
import numpy.testing as npt
import pytest

from kpex import NumericError
from kpex import crf as batched
from kpex.crf import CrfParams, crf_tensors
from kpex.encoder import pack

from one_doc import log_partition, marginals, nll_and_grad, sequence_score, viterbi
from oracles import (
    brute_force_crf,
    central_difference_grad,
    longdouble_forward_backward,
    reduce_alphas,
    relative_error,
)


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


def test_viterbi_ties_break_to_the_lowest_label_at_every_backtracking_step():
    """Scores in {-1, 0, 1} make several paths tie for the best score in about
    half the instances. The decode takes the lowest label at each backtracking
    step: among the best paths, the one smallest when read from its end. Each
    group of instances shares one CRF and decodes again as a mixed-length batch."""
    rng = np.random.default_rng(5)
    ties = 0
    for _ in range(30):
        crf = CrfParams(*(rng.integers(-1, 2, size=s).astype(float) for s in [(3, 3), 3, 3]))
        layout = pack(rng.integers(1, 7, size=10))
        docs = [rng.integers(-1, 2, size=(n, 3)).astype(float) for n in layout.lengths]
        paths, scores = batched.viterbi(layout.rows(docs), crf, layout)
        for b, (doc, batched_path) in enumerate(zip(docs, layout.columns(paths))):
            ref = brute_force_crf(doc, crf.trans, crf.start, crf.end)
            best = [p for p, s in zip(ref["paths"], ref["scores"]) if s == ref["max_score"]]
            ties += len(best) > 1
            path, score = viterbi(doc, crf)
            assert score == ref["max_score"] == scores[b]  # integer sums, bit-exact
            assert tuple(path) == min(best, key=lambda p: p[::-1])
            npt.assert_array_equal(batched_path, path)
    assert ties >= 100


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


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(np.float64).eps, reason="no extended precision"
)
@pytest.mark.parametrize("batch, seed", [(1, 0), (1, 1), (3, 2), (3, 3)])
def test_long_columns_match_an_extended_precision_reference(batch, seed):
    """The error of the marginals does not grow with length: columns of 300-450 tokens at
    emission scale 3-5 stay within 1e-13 of an unshifted long-double forward-backward."""
    rng = np.random.default_rng(seed)
    layout = pack(rng.integers(300, 451, batch))
    emissions = rng.normal(scale=rng.uniform(3, 5), size=(len(layout.t), 3))
    _, crf = random_instance(rng, 1)
    probs = layout.columns(batched.marginals(emissions, crf, layout))
    log_z = batched.log_partition(emissions, crf, layout)
    for b, doc in enumerate(layout.columns(emissions)):
        ref_z, ref = longdouble_forward_backward(doc, crf.trans, crf.start, crf.end)
        npt.assert_allclose(probs[b], ref.astype(np.float64), rtol=1e-13, atol=0)
        npt.assert_allclose(log_z[b], float(ref_z), rtol=1e-12, atol=0)


@pytest.mark.parametrize("spread", [1e3, 1e10, 1e300])
def test_extreme_scores_stay_finite(spread):
    rng = np.random.default_rng(10)
    layout = pack([1, 6, 12])
    emissions = 1e3 * rng.uniform(-1, 1, (19, 3))
    crf = CrfParams(*(spread * rng.uniform(-1, 1, shape) for shape in ((3, 3), 3, 3)))
    probs = batched.marginals(emissions, crf, layout)
    assert np.all(np.isfinite(probs))
    npt.assert_allclose(probs.sum(axis=1), 1.0, rtol=0, atol=1e-12)
    losses, d_emissions, d_crf = batched.nll_and_grad(emissions, crf, rng.integers(0, 3, 19), layout)
    for arr in (losses, d_emissions, *crf_tensors(d_crf).values()):
        assert np.all(np.isfinite(arr))


@pytest.mark.parametrize("batch", [1, 8, 100])
@pytest.mark.parametrize("reduce", [np.logaddexp.reduce, np.maximum.reduce], ids=["lse", "max"])
@pytest.mark.parametrize("shifted", [False, True], ids=["unshifted", "shifted"])
@pytest.mark.parametrize("directions", [(), (2,)], ids=["one", "stacked"])
@pytest.mark.parametrize("ties", [False, True], ids=["normal", "integer"])
def test_label_major_alphas_equal_the_textbook_recursion(batch, reduce, shifted, directions, ties):
    """Bit for bit, in both semirings, shifted or not, with the direction axis of the stacked
    forward-backward or without it, and with integer scores, whose ties make the reduce order
    show. The columns are all 23 long, so the packed rows are the padded batch's, step by step."""
    rng = np.random.default_rng([batch, len(directions), ties])

    def draw(*shape):
        return rng.integers(-2, 3, shape).astype(float) if ties else rng.normal(size=shape)

    emissions = draw(23, *directions, batch, 3)
    trans, first = draw(*directions, 1, 3, 3), draw(*directions, 1, 3)  # broadcast over columns
    shift, ref_shift = np.empty((*directions, 23 * batch)), np.empty(emissions.shape[:-1])
    if not shifted:
        shift = ref_shift = None
    ref = reduce_alphas(emissions, trans, first, ref_shift, reduce)
    packed = np.moveaxis(emissions, -2, 1).reshape(-1, *directions, 3)  # rows (t, column)
    got = batched._alphas(
        packed, np.moveaxis(trans, (-2, -1), (0, 1)), np.moveaxis(first, -1, 0),
        np.arange(24) * batch, shift, reduce,
    )
    assert got.flags.c_contiguous
    npt.assert_array_equal(got, np.moveaxis(ref, -2, 1).reshape(packed.shape))
    if shifted:
        npt.assert_array_equal(shift.T.reshape(23, batch, *directions), np.moveaxis(ref_shift, -1, 1))


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
