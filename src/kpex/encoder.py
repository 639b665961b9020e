"""Token encoder: trainable embeddings, a single-layer BiLSTM, and a dense
projection onto the three label scores, with an exact analytic backward pass.

Everything runs in float64. Gate blocks inside the stacked LSTM weight
matrices are ordered (input, forget, cell, output). Both directions run the
same left-to-right recurrence: the reverse direction runs on the flipped
input, and its hidden states and input gradients are flipped back. The
padding embedding row (index 0) is kept at zero and receives no gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import PAD_INDEX
from .errors import NumericError

NUM_LABELS = 3


@dataclass(frozen=True)
class EncoderDims:
    vocab_size: int
    embed_dim: int = 64
    hidden_dim: int = 64
    num_labels: int = NUM_LABELS


@dataclass
class LstmWeights:
    Wx: np.ndarray  # (4h, embed_dim)
    Wh: np.ndarray  # (4h, h)
    b: np.ndarray  # (4h,)

    def copy(self) -> "LstmWeights":
        return LstmWeights(self.Wx.copy(), self.Wh.copy(), self.b.copy())


@dataclass
class EncoderParams:
    embed: np.ndarray  # (V, embed_dim), row PAD_INDEX frozen at zero
    fwd: LstmWeights
    bwd: LstmWeights
    proj_W: np.ndarray  # (num_labels, 2h)
    proj_b: np.ndarray  # (num_labels,)

    @property
    def dims(self) -> EncoderDims:
        return EncoderDims(
            vocab_size=self.embed.shape[0],
            embed_dim=self.embed.shape[1],
            hidden_dim=self.fwd.Wh.shape[1],
            num_labels=self.proj_W.shape[0],
        )

    def copy(self) -> "EncoderParams":
        return EncoderParams(
            self.embed.copy(), self.fwd.copy(), self.bwd.copy(),
            self.proj_W.copy(), self.proj_b.copy(),
        )


def encoder_tensors(params: EncoderParams) -> dict:
    """Canonical name -> array view of every encoder tensor."""
    return {
        "embed": params.embed,
        "lstm_fwd.Wx": params.fwd.Wx,
        "lstm_fwd.Wh": params.fwd.Wh,
        "lstm_fwd.b": params.fwd.b,
        "lstm_bwd.Wx": params.bwd.Wx,
        "lstm_bwd.Wh": params.bwd.Wh,
        "lstm_bwd.b": params.bwd.b,
        "proj.W": params.proj_W,
        "proj.b": params.proj_b,
    }


def _xavier(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    # fan counts taken from the full matrix shape (rows = outputs)
    bound = math.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-bound, bound, shape)


def init_params(dims: EncoderDims, seed) -> EncoderParams:
    """Initialize encoder parameters.

    Embeddings come from Uniform(-0.1, 0.1) with the PAD row zeroed; LSTM
    and projection weights are Xavier-uniform; all biases are zero except
    the LSTM forget-gate block, which starts at 1.0. ``seed`` may be an int
    or a ``numpy.random.Generator``; identical seeds give identical bytes.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    h, d_e = dims.hidden_dim, dims.embed_dim

    embed = rng.uniform(-0.1, 0.1, (dims.vocab_size, d_e))
    embed[PAD_INDEX] = 0.0

    def lstm() -> LstmWeights:
        Wx = _xavier(rng, (4 * h, d_e))
        Wh = _xavier(rng, (4 * h, h))
        b = np.zeros(4 * h)
        b[h : 2 * h] = 1.0  # forget gate
        return LstmWeights(Wx, Wh, b)

    fwd = lstm()
    bwd = lstm()
    proj_W = _xavier(rng, (dims.num_labels, 2 * h))
    proj_b = np.zeros(dims.num_labels)
    return EncoderParams(embed, fwd, bwd, proj_W, proj_b)


@dataclass
class _DirectionCache:
    """One direction's states, row t being the t-th step it processed."""

    gates: np.ndarray  # (n, 4h) activations of the (i, f, g, o) blocks
    c: np.ndarray  # (n, h)
    tc: np.ndarray  # tanh(c)
    h: np.ndarray


@dataclass
class ForwardCache:
    """Every intermediate needed to rerun the backward pass exactly."""

    token_ids: np.ndarray
    x: np.ndarray  # (n, embed_dim)
    fwd: _DirectionCache
    bwd: _DirectionCache  # steps over the flipped sequence
    hidden: np.ndarray  # (n, 2h) concatenated fwd/bwd states
    emissions: np.ndarray  # (n, num_labels)


def _shift_down(states: np.ndarray) -> np.ndarray:
    """Row t holds the state before step t: a zero row, then rows 0..n-2."""
    return np.vstack([np.zeros((1, states.shape[1])), states[:-1]])


def _run_direction(w: LstmWeights, x: np.ndarray) -> _DirectionCache:
    """Left-to-right LSTM over the rows of ``x``, starting from zero states.

    All four gate blocks share one tanh through sigmoid(z) = 0.5 + 0.5 *
    tanh(z / 2): the pre-activations are multiplied by ``scale`` (halving,
    exact in binary) and the activations are ``scale * tanh + 1 - scale``.
    """
    n, h = x.shape[0], w.Wh.shape[1]
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], h)  # sigmoid blocks i, f, o; tanh block g
    shift = 1.0 - scale
    xz = (x @ w.Wx.T + w.b) * scale
    Wh = w.Wh * scale[:, None]
    cache = _DirectionCache(*(np.empty((n, width)) for width in (4 * h, h, h, h)))
    h_t = np.zeros(h)
    c_t = np.zeros(h)
    for t in range(n):
        a = scale * np.tanh(xz[t] + Wh @ h_t) + shift
        c_t = a[h : 2 * h] * c_t + a[:h] * a[2 * h : 3 * h]
        tc = np.tanh(c_t)
        h_t = a[3 * h :] * tc
        cache.gates[t], cache.c[t], cache.tc[t], cache.h[t] = a, c_t, tc, h_t
    return cache


def encode_forward(params: EncoderParams, token_ids) -> tuple[np.ndarray, ForwardCache]:
    """Compute per-token emission scores.

    Both LSTM directions start from zero states; emission row t is
    ``proj_W @ concat(h_fwd[t], h_bwd[t]) + proj_b``.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim != 1 or ids.size == 0:
        raise ValueError("token_ids must be a non-empty 1-d sequence")
    if ids.min() < 0 or ids.max() >= params.embed.shape[0]:
        raise ValueError(
            f"token id out of range [0, {params.embed.shape[0]}): "
            f"{int(ids.min())}..{int(ids.max())}"
        )
    x = params.embed[ids]
    fwd = _run_direction(params.fwd, x)
    bwd = _run_direction(params.bwd, x[::-1])
    hidden = np.concatenate([fwd.h, bwd.h[::-1]], axis=1)
    emissions = hidden @ params.proj_W.T + params.proj_b
    return emissions, ForwardCache(ids, x, fwd, bwd, hidden, emissions)


def _direction_backward(
    w: LstmWeights, x: np.ndarray, cache: _DirectionCache, d_h: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of one left-to-right direction, given dLoss/dh per step.

    The time loop carries only dh and dc and writes one row of ``dz``, the
    gradient at the gate pre-activations; the weight and input gradients are
    then one matrix product each over all steps.
    """
    n, h = d_h.shape
    i, f, g, o = np.split(cache.gates, 4, axis=1)
    c_prev = _shift_down(cache.c)
    # dz[t] = [dc, dc, dc, dh] * dz_coef[t], the chain rule through each gate
    dz_coef = np.concatenate(
        [g * i * (1.0 - i), c_prev * f * (1.0 - f), i * (1.0 - g * g), cache.tc * o * (1.0 - o)],
        axis=1,
    )
    dc_dh = o * (1.0 - cache.tc**2)

    dz = np.empty((n, 4 * h))
    dh_carry = np.zeros(h)
    dc_carry = np.zeros(h)
    for t in range(n - 1, -1, -1):
        dh = d_h[t] + dh_carry
        dc = dc_carry + dh * dc_dh[t]
        dz[t] = np.concatenate((dc, dc, dc, dh)) * dz_coef[t]
        dh_carry = dz[t] @ w.Wh
        dc_carry = dc * f[t]
    return dz.T @ x, dz.T @ _shift_down(cache.h), dz.sum(axis=0), dz @ w.Wx


def encode_backward(
    params: EncoderParams, cache: ForwardCache, d_emissions: np.ndarray
) -> dict:
    """Exact gradients of a scalar loss w.r.t. every encoder tensor.

    ``d_emissions`` is the loss gradient at the emission matrix produced by
    the matching :func:`encode_forward` call. Embedding gradients accumulate
    over repeated token occurrences; the PAD row gradient is forced to zero.
    """
    d_emissions = np.asarray(d_emissions, dtype=np.float64)
    if d_emissions.shape != cache.emissions.shape:
        raise ValueError(
            f"d_emissions shape {d_emissions.shape} does not match "
            f"emissions shape {cache.emissions.shape}"
        )
    h = params.fwd.Wh.shape[1]

    d_proj_W = d_emissions.T @ cache.hidden
    d_proj_b = d_emissions.sum(axis=0)
    d_hidden = d_emissions @ params.proj_W

    dWx_f, dWh_f, db_f, dx_f = _direction_backward(
        params.fwd, cache.x, cache.fwd, d_hidden[:, :h]
    )
    dWx_b, dWh_b, db_b, dx_b = _direction_backward(
        params.bwd, cache.x[::-1], cache.bwd, d_hidden[::-1, h:]
    )

    d_embed = np.zeros_like(params.embed)
    np.add.at(d_embed, cache.token_ids, dx_f + dx_b[::-1])
    d_embed[PAD_INDEX] = 0.0

    return {
        "embed": d_embed,
        "lstm_fwd.Wx": dWx_f, "lstm_fwd.Wh": dWh_f, "lstm_fwd.b": db_f,
        "lstm_bwd.Wx": dWx_b, "lstm_bwd.Wh": dWh_b, "lstm_bwd.b": db_b,
        "proj.W": d_proj_W, "proj.b": d_proj_b,
    }


# ---------------------------------------------------------------------------
# Adam with two learning-rate groups
# ---------------------------------------------------------------------------


@dataclass
class OptimizerState:
    """Adam moments plus the two-group learning rates.

    The ``embed`` tensor belongs to the lower group; every other tensor
    (LSTM, projection, CRF scores) uses ``lr_upper``.
    """

    lr_lower: float
    lr_upper: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, opt: OptimizerState):
    """One bias-corrected Adam update, in place, over named tensors."""
    if set(params) != set(grads):
        raise ValueError(
            f"parameter/gradient name mismatch: {sorted(set(params) ^ set(grads))}"
        )
    opt.step += 1
    t = opt.step
    for name in params:
        g = grads[name]
        if not np.all(np.isfinite(g)):
            raise NumericError(f"non-finite gradient for tensor '{name}' at step {t}")
        if name not in opt.m:
            opt.m[name] = np.zeros_like(params[name])
            opt.v[name] = np.zeros_like(params[name])
        m, v = opt.m[name], opt.v[name]
        m *= opt.beta1
        m += (1.0 - opt.beta1) * g
        v *= opt.beta2
        v += (1.0 - opt.beta2) * g * g
        m_hat = m / (1.0 - opt.beta1**t)
        v_hat = v / (1.0 - opt.beta2**t)
        lr = opt.lr_lower if name == "embed" else opt.lr_upper
        params[name] -= lr * m_hat / (np.sqrt(v_hat) + opt.eps)
    return params, opt
