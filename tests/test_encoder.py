import re
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kpex import NumericError, build_vocab, encoder, gen_synthetic
from kpex.corpus import PAD_INDEX
from kpex.encoder import EncoderDims, OptimizerState, adam_step, encoder_tensors, init_params, pack
from kpex.model import Model, init_model, model_tensors

from one_doc import encode_backward, encode_forward
from oracles import (
    bilstm_backward,
    bilstm_forward,
    central_difference_grad,
    per_tensor_adam_step,
    relative_error,
)

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


LAYOUT = pack([370, 300, 200, 130])


def _forward_peak_per_real_token(vocab_size, ids, **kwargs) -> float:
    params = init_params(EncoderDims(vocab_size=vocab_size, embed_dim=64, hidden_dim=64), 0)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        encoder.encode_forward(params, ids, LAYOUT, **kwargs)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / len(ids)


def test_forward_memory_per_real_token():
    """At embed/hidden 64 the gate, cell and state caches are 6 KB per real token; the
    projection adds little to the peak of one forward pass. The input table's 4 KB per distinct
    token sit beside the caches until the forward returns, all of them at worst."""
    ids = np.random.default_rng(0).integers(1, 50, len(LAYOUT.t))
    assert _forward_peak_per_real_token(50, ids) <= 7.0 * 1024
    distinct = np.arange(1, 1 + len(LAYOUT.t))
    assert _forward_peak_per_real_token(1500, distinct) <= 11.0 * 1024


def test_forward_without_cache_memory_per_real_token():
    """Without the backward cache the states (1 KB per real token at hidden 64) dominate when
    tokens repeat; the input table adds 4 KB per distinct token, all of them at worst."""
    repeated = np.random.default_rng(0).integers(1, 50, len(LAYOUT.t))
    assert _forward_peak_per_real_token(50, repeated, for_backward=False) <= 2.0 * 1024
    distinct = np.arange(1, 1 + len(LAYOUT.t))
    assert _forward_peak_per_real_token(1500, distinct, for_backward=False) <= 6.0 * 1024


# -- backward ----------------------------------------------------------------


def test_zero_upstream_gradient_gives_zero_gradients():
    p = small_params(5)
    _, cache = encode_forward(p, [2, 3, 4])
    grads = encode_backward(p, cache, np.zeros((3, 3)))
    for g in grads.values():
        npt.assert_array_equal(g, 0.0)


def test_a_cache_without_gates_is_rejected():
    p = small_params(5)
    _, cache = encoder.encode_forward(p, [2, 3, 4], pack([3]), for_backward=False)
    with pytest.raises(ValueError, match="for_backward=False"):
        encode_backward(p, cache, np.zeros((3, 3)))
    _, cache = encode_forward(p, [2, 3, 4])
    encode_backward(p, cache, np.zeros((3, 3)))
    with pytest.raises(ValueError, match="consumed"):  # a second backward on the same cache
        encode_backward(p, cache, np.zeros((3, 3)))


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


# over 300 draws of up to 6 documents of 1-30 tokens the worst was 1.7e-15 on emissions and
# 4.4e-14 on gradients
TEXTBOOK_RTOL = 1e-12


@settings(derandomize=True, deadline=None, max_examples=40)
@given(
    lengths=st.lists(st.integers(1, 20), min_size=1, max_size=6),
    embed=st.integers(1, 6),
    hidden=st.integers(1, 6),
    scale=st.sampled_from([0.5, 1.0, 3.0]),
    seed=st.integers(0, 2**32 - 1),
)
@example(lengths=[1], embed=1, hidden=1, scale=1.0, seed=0)
@example(lengths=[1, 7, 1, 3], embed=4, hidden=5, scale=3.0, seed=1)
def test_the_batch_is_the_textbook_bilstm(lengths, embed, hidden, scale, seed):
    """Emissions and every gradient equal a per-document BiLSTM with separate sigmoid and tanh
    gates, the reverse direction read as ``x[::-1]`` and plain backpropagation through time,
    with the weights scaled away from their initialization."""
    rng = np.random.default_rng(seed)
    params = init_params(EncoderDims(vocab_size=9, embed_dim=embed, hidden_dim=hidden), rng)
    for arr in encoder_tensors(params).values():
        arr *= scale
    params.lstm_b[...] += rng.normal(size=params.lstm_b.shape)
    docs = [rng.integers(0, 9, n) for n in lengths]
    layout = pack(lengths)
    emissions, cache = encoder.encode_forward(params, layout.rows(docs), layout)
    d_emissions = rng.normal(size=emissions.shape)
    grads = encoder.encode_backward(params, cache, d_emissions)
    want = {name: np.zeros_like(g) for name, g in grads.items()}
    for doc, column, d_column in zip(docs, layout.columns(emissions), layout.columns(d_emissions)):
        alone, memo = bilstm_forward(params, doc)
        assert relative_error(column, alone) <= TEXTBOOK_RTOL
        for name, g in bilstm_backward(params, memo, d_column).items():
            want[name] += g
    for name, g in grads.items():
        assert relative_error(g, want[name]) <= TEXTBOOK_RTOL, name


def test_gradient_shape_mismatch_rejected():
    p = small_params(5)
    _, cache = encoder.encode_forward(p, [2, 5, 3, 6, 4, 7], pack([3, 3]))
    for bad in [(5, 3), (6, 2), (6, 1, 3), (3, 2, 3)]:  # the check runs before the cache is consumed
        with pytest.raises(ValueError, match=re.escape(f"d_emissions shape {bad} does not match")):
            encoder.encode_backward(p, cache, np.zeros(bad))
    encoder.encode_backward(p, cache, np.zeros((6, 3)))


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


def _assert_nonfinite_gradient_names_the_tensor() -> list:
    """The block of each NaN, which names its tensor and moves nothing."""
    blocks = []
    for name, where in [("embed", (1, 2)), ("lstm_bwd.Wh", (3, 1)), ("crf.end", (0,))]:
        model, grad = _models()
        before = model.flat.copy()
        model_tensors(grad)[name][where] = np.nan
        blocks.append(int(np.flatnonzero(np.isnan(grad.flat))[0]) // encoder.ADAM_BLOCK)
        opt = OptimizerState(lr_lower=0.1, lr_upper=0.1)
        with pytest.raises(NumericError, match=f"'{name}' at step 1"):
            adam_step(model, grad, opt)
        npt.assert_array_equal(model.flat, before)  # nothing moved
        assert opt.step == 1 and opt.m is None
    return blocks


def test_nonfinite_gradient_names_the_tensor():
    _assert_nonfinite_gradient_names_the_tensor()


def test_nonfinite_gradient_names_the_tensor_in_small_blocks(monkeypatch):
    """A NaN in a later block stops the step before the earlier blocks move."""
    monkeypatch.setattr(encoder, "ADAM_BLOCK", 16)  # DIMS' 36-element embed ends in the third
    blocks = _assert_nonfinite_gradient_names_the_tensor()
    assert blocks[0] == 0 and min(blocks[1:]) > 2


def _assert_flat_adam_matches_the_per_tensor_reference():
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
    assert len(opt.m_hat) == len(opt.scratch) == min(encoder.ADAM_BLOCK, model.flat.size)
    return model


def test_flat_adam_matches_the_per_tensor_reference():
    _assert_flat_adam_matches_the_per_tensor_reference()


def test_blocked_adam_matches_the_per_tensor_reference(monkeypatch):
    monkeypatch.setattr(encoder, "ADAM_BLOCK", 100)
    model = _assert_flat_adam_matches_the_per_tensor_reference()
    # several blocks, the last one partial, and embed's end inside one
    assert model.flat.size > 2 * 100 and model.flat.size % 100 and model.encoder.embed.size % 100


def test_an_adam_step_allocates_no_buffer_of_the_parameters_size(monkeypatch):
    monkeypatch.setattr(encoder, "ADAM_BLOCK", 1024)
    vocab = build_vocab(gen_synthetic(2, 20, vocab_size=30))
    model = init_model(vocab, 16, 16, seed=1)
    grad = Model(model.dims, vocab)
    grad.flat[:] = np.random.default_rng(0).normal(size=grad.flat.size)
    assert grad.flat.size > 4 * 1024
    opt = OptimizerState(lr_lower=1e-3, lr_upper=1e-2)
    adam_step(model, grad, opt)  # makes the moments and the one-block work buffers
    assert opt.m_hat.shape == opt.scratch.shape == (1024,)
    tracemalloc.start()
    try:
        adam_step(model, grad, opt)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * grad.flat.itemsize  # a block's finiteness mask, an eighth of this


def test_pad_row_stays_zero_through_training_steps():
    model, grad = _models(8)
    opt = OptimizerState(lr_lower=0.05, lr_upper=0.05)
    rng = np.random.default_rng(0)
    for _ in range(10):
        _, cache = encode_forward(model.encoder, rng.integers(1, DIMS.vocab_size, 6))
        encode_backward(model.encoder, cache, rng.normal(size=(6, 3)), out=grad.encoder)
        adam_step(model, grad, opt)
    npt.assert_array_equal(model.encoder.embed[PAD_INDEX], 0.0)
