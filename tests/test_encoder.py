import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from kpex import NumericError, build_vocab, encoder, gen_synthetic
from kpex.corpus import PAD_INDEX
from kpex.encoder import EncoderDims, OptimizerState, adam_step, encoder_tensors, init_params
from kpex.model import Model, init_model, model_tensors

from one_doc import encode_backward, encode_forward
from oracles import central_difference_grad, per_tensor_adam_step, relative_error

DIMS = EncoderDims(vocab_size=9, embed_dim=4, hidden_dim=3)


def small_params(seed=0, dims=DIMS):
    return init_params(dims, seed)


# -- initialization ----------------------------------------------------------


def test_init_is_deterministic():
    a, b = small_params(7), small_params(7)
    for name, arr in encoder_tensors(a).items():
        npt.assert_array_equal(arr, encoder_tensors(b)[name])


def test_forget_gate_bias_is_one():
    p = small_params()
    h = DIMS.hidden_dim
    assert p.lstm_b.shape == (2, 4 * h)
    npt.assert_array_equal(p.lstm_b[:, h : 2 * h], 1.0)
    npt.assert_array_equal(p.lstm_b[:, :h], 0.0)
    npt.assert_array_equal(p.lstm_b[:, 2 * h :], 0.0)


def test_pad_row_zero_and_other_rows_bounded():
    p = small_params()
    npt.assert_array_equal(p.embed[PAD_INDEX], 0.0)
    assert np.abs(p.embed[1:]).max() <= 0.1


def test_xavier_bound_respected():
    p = small_params()
    h, d = DIMS.hidden_dim, DIMS.embed_dim
    assert p.lstm_Wx.shape == (2, 4 * h, d) and p.lstm_Wh.shape == (2, 4 * h, h)
    for direction in range(2):
        assert np.abs(p.lstm_Wx[direction]).max() <= np.sqrt(6.0 / (4 * h + d))
        assert np.abs(p.lstm_Wh[direction]).max() <= np.sqrt(6.0 / (4 * h + h))


# -- forward -----------------------------------------------------------------


def test_zero_parameters_emit_projection_bias():
    p = small_params()
    for arr in encoder_tensors(p).values():
        arr[...] = 0.0
    p.proj_b[:] = [1.0, 2.0, 3.0]
    emissions, _ = encode_forward(p, [2, 3, 4, 5])
    npt.assert_allclose(emissions, np.tile([1.0, 2.0, 3.0], (4, 1)))


@pytest.mark.parametrize("n", [1, 2, 7])
def test_emission_shape(n):
    emissions, _ = encode_forward(small_params(), np.arange(2, 2 + n) % DIMS.vocab_size)
    assert emissions.shape == (n, 3)


def test_forward_is_deterministic():
    p = small_params(3)
    ids = [2, 5, 2, 8]
    e1, _ = encode_forward(p, ids)
    e2, _ = encode_forward(p, ids)
    npt.assert_array_equal(e1, e2)


def test_out_of_range_token_rejected():
    with pytest.raises(ValueError, match="out of range"):
        encode_forward(small_params(), [1, 99])


def test_reversed_input_with_swapped_directions_mirrors_states():
    # running the reversed sequence through a model whose fwd/bwd weights are
    # swapped must swap the two directions' states
    p = small_params(11)
    ids = np.array([2, 3, 4, 5, 6, 7])
    swapped = small_params(11)
    swapped.lstm_Wx, swapped.lstm_Wh, swapped.lstm_b = (
        p.lstm_Wx[::-1].copy(), p.lstm_Wh[::-1].copy(), p.lstm_b[::-1].copy()
    )

    _, cache = encode_forward(p, ids)
    _, cache_swapped = encode_forward(swapped, ids[::-1])

    # each direction caches its states in the order it stepped through them
    npt.assert_allclose(cache_swapped.h[:, 0], cache.h[:, 1], atol=1e-12)
    npt.assert_allclose(cache_swapped.h[:, 1], cache.h[:, 0], atol=1e-12)


def test_emissions_depend_on_the_whole_sequence():
    p = small_params(4)
    e1, _ = encode_forward(p, [2, 3, 4, 5])
    e2, _ = encode_forward(p, [2, 3, 4, 6])
    assert abs(e1[0] - e2[0]).max() > 0  # bidirectionality reaches row 0


def _forward_peak_per_real_token(vocab_size, ids, lengths, **kwargs) -> float:
    params = init_params(EncoderDims(vocab_size=vocab_size, embed_dim=64, hidden_dim=64), 0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        encoder.encode_forward(params, ids, lengths, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / lengths.sum()


LENGTHS = np.array([370, 300, 200, 130])


def test_forward_memory_per_real_token():
    """At embed/hidden 64 the gate, cell and state caches are 6 KB per real token; the
    projection adds little to the peak of one forward pass. The input table's 4 KB per distinct
    token sit beside the caches until the forward returns, all of them at worst."""
    ids = np.random.default_rng(0).integers(1, 50, (370, 4))
    assert _forward_peak_per_real_token(50, ids, LENGTHS) <= 7.0 * 1024
    distinct = np.arange(1, 1 + 370 * 4).reshape(370, 4)
    assert _forward_peak_per_real_token(1500, distinct, LENGTHS) <= 11.0 * 1024


def test_forward_without_cache_memory_per_real_token():
    """Without the backward cache the states (1 KB per real token at hidden 64) dominate when
    tokens repeat; the input table adds 4 KB per distinct token, all of them at worst."""
    repeated = np.random.default_rng(0).integers(1, 50, (370, 4))
    assert _forward_peak_per_real_token(50, repeated, LENGTHS, for_backward=False) <= 2.0 * 1024
    distinct = np.arange(1, 1 + 370 * 4).reshape(370, 4)
    assert _forward_peak_per_real_token(1500, distinct, LENGTHS, for_backward=False) <= 6.0 * 1024


# -- backward ----------------------------------------------------------------


def test_zero_upstream_gradient_gives_zero_gradients():
    p = small_params(5)
    _, cache = encode_forward(p, [2, 3, 4])
    grads = encode_backward(p, cache, np.zeros((3, 3)))
    for g in grads.values():
        npt.assert_array_equal(g, 0.0)


def test_a_cache_without_gates_is_rejected():
    p = small_params(5)
    _, cache = encoder.encode_forward(p, [[2], [3], [4]], [3], for_backward=False)
    with pytest.raises(ValueError, match="for_backward=False"):
        encode_backward(p, cache, np.zeros((3, 3)))
    _, cache = encode_forward(p, [2, 3, 4])
    encode_backward(p, cache, np.zeros((3, 3)))
    with pytest.raises(ValueError, match="consumed"):  # a second backward on the same cache
        encode_backward(p, cache, np.zeros((3, 3)))


def test_gradient_shape_mismatch_rejected():
    p = small_params(5)
    _, cache = encode_forward(p, [2, 3, 4])
    with pytest.raises(ValueError, match="shape"):
        encode_backward(p, cache, np.zeros((4, 3)))
    _, cache = encoder.encode_forward(p, [[2, 5], [3, 6], [4, 7]], [3, 3])
    for bad in [(3, 2, 2), (3, 1, 3), (2, 2, 3)]:  # the check runs before the cache is consumed
        message = f"d_emissions shape {bad} does not match emissions shape (3, 2, 3)"
        with pytest.raises(ValueError, match=re.escape(message)):
            encoder.encode_backward(p, cache, np.zeros(bad))


@pytest.mark.parametrize("n", [1, 2, 5])
def test_gradients_match_finite_differences(n):
    # n = 1 and 2 exercise the zero initial-state rows of both directions
    rng = np.random.default_rng(0)
    p = small_params(1)
    ids = rng.integers(2, DIMS.vocab_size, n)
    weight = rng.normal(size=(n, 3))  # random linear functional of the emissions

    def loss():
        e, _ = encode_forward(p, ids)
        return float((weight * e).sum())

    _, cache = encode_forward(p, ids)
    grads = encode_backward(p, cache, weight)
    for name, arr in encoder_tensors(p).items():
        numeric = central_difference_grad(loss, arr, step=1e-3)
        if name == "embed":
            numeric[PAD_INDEX] = 0.0  # frozen row
        assert relative_error(grads[name], numeric) <= 1e-4, name


def test_repeated_token_accumulates_both_positions():
    # duplicate a token's embedding row under a new id: the single-row gradient
    # must equal the sum of the two split-row gradients
    p = small_params(6)
    p.embed[7] = p.embed[5]
    d_emissions = np.random.default_rng(1).normal(size=(3, 3))

    e_dup, cache_dup = encode_forward(p, [5, 3, 5])
    e_split, cache_split = encode_forward(p, [5, 3, 7])
    npt.assert_allclose(e_dup, e_split, atol=1e-14)

    g_dup = encode_backward(p, cache_dup, d_emissions)["embed"]
    g_split = encode_backward(p, cache_split, d_emissions)["embed"]
    npt.assert_allclose(g_dup[5], g_split[5] + g_split[7], atol=1e-12)


def test_pad_gradient_is_forced_to_zero():
    p = small_params(2)
    _, cache = encode_forward(p, [PAD_INDEX, 2, 3])
    grads = encode_backward(p, cache, np.ones((3, 3)))
    npt.assert_array_equal(grads["embed"][PAD_INDEX], 0.0)


# -- Adam --------------------------------------------------------------------


def _models(seed=0):
    """A model of ``DIMS`` and an all-zero gradient of its layout."""
    model = Model(DIMS, vocab=None)
    init_params(DIMS, seed, out=model.encoder)
    return model, Model(DIMS, vocab=None)


def test_zero_gradient_is_a_fixed_point():
    model, grad = _models()
    before = model.flat.copy()
    opt = OptimizerState(lr_lower=0.1, lr_upper=0.1)
    for _ in range(5):
        adam_step(model, grad, opt)
    npt.assert_array_equal(model.flat, before)


def test_first_step_moves_by_learning_rate():
    model, grad = Model(DIMS, vocab=None), Model(DIMS, vocab=None)
    grad.flat[:] = np.resize([0.5, -2.0, 0.0], grad.flat.size)
    adam_step(model, grad, OptimizerState(lr_lower=1e-3, lr_upper=1e-2))
    # bias-corrected first step: -lr * g / (|g| + eps) per coordinate, lr_lower on embed
    lr = np.where(np.arange(grad.flat.size) < model.encoder.embed.size, 1e-3, 1e-2)
    npt.assert_allclose(model.flat, -lr * np.sign(grad.flat), rtol=0, atol=1e-9)


def test_learning_rate_groups_are_separate():
    model, grad = _models()
    before = Model(DIMS, None, model.flat.copy())
    grad.flat[:] = 1.0
    adam_step(model, grad, OptimizerState(lr_lower=0.0, lr_upper=0.1))
    npt.assert_array_equal(model.encoder.embed, before.encoder.embed)  # frozen group
    for name, arr in encoder_tensors(model.encoder).items():
        if name != "embed":  # moving group
            assert np.all(arr < encoder_tensors(before.encoder)[name]), name
    assert np.all(model.crf.trans < before.crf.trans)


def test_nonfinite_gradient_names_the_tensor():
    for name, where in [("embed", (1, 2)), ("lstm_bwd.Wh", (3, 1)), ("crf.end", (0,))]:
        model, grad = _models()
        before = model.flat.copy()
        model_tensors(grad)[name][where] = np.nan
        with pytest.raises(NumericError, match=f"'{name}'"):
            adam_step(model, grad, OptimizerState(lr_lower=0.1, lr_upper=0.1))
        npt.assert_array_equal(model.flat, before)  # nothing moved


def test_flat_adam_matches_the_per_tensor_reference():
    vocab = build_vocab(gen_synthetic(2, 20, vocab_size=30))
    model = init_model(vocab, 6, 5, seed=1)
    reference, grad, moments = model.copy(), Model(model.dims, vocab), {}
    opt = OptimizerState(lr_lower=3e-3, lr_upper=2e-2)
    rng = np.random.default_rng(4)
    for step in range(1, 7):
        grad.flat[:] = rng.normal(scale=10.0 ** rng.integers(-3, 2), size=grad.flat.size)
        adam_step(model, grad, opt)
        per_tensor_adam_step(
            model_tensors(reference), model_tensors(grad), moments, step, 3e-3, 2e-2
        )
        npt.assert_array_equal(model.flat, reference.flat)


def test_an_adam_step_allocates_no_buffer_of_the_parameters_size():
    vocab = build_vocab(gen_synthetic(2, 20, vocab_size=30))
    model = init_model(vocab, 16, 16, seed=1)
    grad = Model(model.dims, vocab)
    grad.flat[:] = np.random.default_rng(0).normal(size=grad.flat.size)
    opt = OptimizerState(lr_lower=1e-3, lr_upper=1e-2)
    adam_step(model, grad, opt)  # makes the moments and the work buffers
    tracemalloc.start()
    try:
        adam_step(model, grad, opt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < grad.flat.nbytes // 4  # the finiteness mask is an eighth


def test_pad_row_stays_zero_through_training_steps():
    model, grad = _models(8)
    opt = OptimizerState(lr_lower=0.05, lr_upper=0.05)
    rng = np.random.default_rng(0)
    for _ in range(10):
        _, cache = encode_forward(model.encoder, rng.integers(1, DIMS.vocab_size, 6))
        encode_backward(model.encoder, cache, rng.normal(size=(6, 3)), out=grad.encoder)
        adam_step(model, grad, opt)
    npt.assert_array_equal(model.encoder.embed[PAD_INDEX], 0.0)
