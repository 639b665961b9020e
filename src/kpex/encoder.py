"""Token encoder: trainable embeddings, a single-layer BiLSTM, and a dense
projection onto the three label scores, with an exact analytic backward pass.

Everything runs in float64. Gate blocks inside the stacked LSTM weight
matrices are ordered (input, forget, cell, output). Both directions run the
same left-to-right recurrence over a time-major batch: token ids are
``(n_max, B)``, one document per column with its padding at the tail, and
an explicit ``lengths`` vector says where each column ends. The reverse
direction runs on each column reversed within its length, so its padding
also comes last, and its hidden states and input gradients are gathered
back. No time loop needs a mask. The padding embedding row (index 0) is
kept at zero and receives no gradient.
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


def time_major(seqs) -> tuple[np.ndarray, np.ndarray]:
    """Stack integer sequences as the columns of an ``(n_max, B)`` array,
    zero past each sequence's end, and return it with their lengths."""
    lengths = np.array([len(s) for s in seqs], dtype=np.int64)
    out = np.zeros((lengths.max(), len(seqs)), dtype=np.int64)
    for b, s in enumerate(seqs):
        out[: len(s), b] = s
    return out, lengths


def check_lengths(lengths, n_max: int, batch: int) -> np.ndarray:
    """The ``(B,)`` lengths of a batch of ``n_max`` rows, each in [1, n_max]."""
    lengths = np.asarray(lengths, dtype=np.int64)
    if lengths.shape != (batch,) or batch < 1 or not np.all((lengths >= 1) & (lengths <= n_max)):
        raise ValueError(f"need {batch} >= 1 lengths in [1, {n_max}], got {lengths.tolist()}")
    return lengths


def real_positions(lengths: np.ndarray, n_max: int) -> np.ndarray:
    """``(n_max, B)`` mask, true where row t lies inside column b."""
    return np.arange(n_max)[:, None] < lengths


def reversal(lengths: np.ndarray, n_max: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather indices ``(rows, cols)`` that reverse each column's first ``lengths[b]``
    rows and keep its padding at the tail; the gather is its own inverse."""
    t = np.arange(n_max)[:, None]
    return np.where(t < lengths, lengths - 1 - t, t), np.arange(len(lengths))


@dataclass
class _DirectionCache:
    """One direction's states, row t being the t-th step it processed."""

    gates: np.ndarray  # (n, B, 4h) activations of the (i, f, g, o) blocks
    c: np.ndarray  # (n, B, h)
    h: np.ndarray  # (n, B, h)


@dataclass
class ForwardCache:
    """What the backward pass needs beyond the parameters. One backward pass
    consumes it: the gate arrays become its workspace and are released."""

    token_ids: np.ndarray  # (n_max, B)
    lengths: np.ndarray  # (B,)
    fwd: _DirectionCache | None
    bwd: _DirectionCache | None  # steps over each column reversed, padding still last
    emissions: np.ndarray  # (n_max, B, num_labels)


def _dense(a: np.ndarray, W: np.ndarray) -> np.ndarray:
    """``a @ W`` over the last axis of ``a``, as one 2-d matrix product."""
    return (a.reshape(-1, a.shape[-1]) @ W).reshape(*a.shape[:-1], W.shape[1])


def _run_direction(w: LstmWeights, x: np.ndarray) -> _DirectionCache:
    """Left-to-right LSTM over the rows of ``x`` (n, B, e), from zero states.

    All four gate blocks share one tanh through sigmoid(z) = 0.5 + 0.5 *
    tanh(z / 2): the weight and bias rows are multiplied by ``scale``
    (halving, exact in binary) and the activations are ``scale * tanh + 1 -
    scale``. Row t of the hoisted input product is overwritten by step t's
    gates.
    """
    n, batch, h = x.shape[0], x.shape[1], w.Wh.shape[1]
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], h)  # sigmoid blocks i, f, o; tanh block g
    shift = 1.0 - scale
    gates = _dense(x, (w.Wx * scale[:, None]).T)
    gates += w.b * scale
    WhT = (w.Wh * scale[:, None]).T.copy()
    cache = _DirectionCache(gates, np.empty((n, batch, h)), np.empty((n, batch, h)))
    i, f, g, o = np.split(gates, 4, axis=2)
    h_t = np.zeros((batch, h))
    c_t = np.zeros((batch, h))
    for t in range(n):
        a = gates[t]
        np.tanh(a + h_t @ WhT, out=a)
        a *= scale
        a += shift
        c_t = cache.c[t] = f[t] * c_t + i[t] * g[t]
        h_t = cache.h[t] = o[t] * np.tanh(c_t)
    return cache


def encode_forward(
    params: EncoderParams, token_ids, lengths
) -> tuple[np.ndarray, ForwardCache]:
    """Emission scores ``(n_max, B, num_labels)`` for a time-major batch.

    ``token_ids`` is ``(n_max, B)``; column b holds a document in its first
    ``lengths[b]`` rows and padding, which may hold any valid id, after them.
    Both LSTM directions start from zero states at each document's own ends,
    so real rows never see the padding; emission row t of column b is
    ``proj_W @ concat(h_fwd[t, b], h_bwd[t, b]) + proj_b``. Rows past a
    column's length hold finite values that carry no meaning.
    """
    ids = np.asarray(token_ids, dtype=np.int64)
    if ids.ndim != 2:
        raise ValueError(f"token_ids must be (n_max, B), got shape {ids.shape}")
    lengths = check_lengths(lengths, *ids.shape)
    if ids.min() < 0 or ids.max() >= params.embed.shape[0]:
        raise ValueError(
            f"token id out of range [0, {params.embed.shape[0]}): "
            f"{int(ids.min())}..{int(ids.max())}"
        )
    rev = reversal(lengths, ids.shape[0])
    x = params.embed[ids]
    fwd = _run_direction(params.fwd, x)
    bwd = _run_direction(params.bwd, x[rev])
    hidden = np.concatenate([fwd.h, bwd.h[rev]], axis=2)
    emissions = _dense(hidden, params.proj_W.T) + params.proj_b
    return emissions, ForwardCache(ids, lengths, fwd, bwd, emissions)


def _direction_backward(
    w: LstmWeights, embed: np.ndarray, ids: np.ndarray, cache: _DirectionCache, d_h: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradients of one left-to-right direction over inputs ``embed[ids]``,
    given dLoss/dh per step.

    The gate activations are overwritten, block by block, with ``dz``, the
    gradient at the gate pre-activations: first with each gate's chain-rule
    coefficient, then, in the time loop, which carries only dh and dc, row t
    is scaled by ``[dc, dc, dc, dh]``. The weight and input gradients are
    one matrix product each. Padding rows, last and with zero ``d_h``, stay
    exactly zero.
    """
    n, batch, h = d_h.shape
    dz = cache.gates
    i, f, g, o = np.split(dz, 4, axis=2)
    f_gate = f.copy()
    f *= (1.0 - f) * np.concatenate([np.zeros_like(f[:1]), cache.c[:-1]])  # c before each step
    tc = np.tanh(cache.c)
    dc_dh = o * (1.0 - tc * tc)
    o *= (1.0 - o) * tc
    del tc
    g_coef = i * (1.0 - g * g)
    i *= (1.0 - i) * g
    g[...] = g_coef

    dh_carry = np.zeros((batch, h))
    dc_carry = np.zeros((batch, h))
    for t in range(n - 1, -1, -1):
        dh = d_h[t] + dh_carry
        dc = dc_carry + dh * dc_dh[t]
        dz[t] *= np.concatenate((dc, dc, dc, dh), axis=1)
        dh_carry = dz[t] @ w.Wh
        dc_carry = dc * f_gate[t]
    del f_gate, dc_dh, g_coef
    flat = dz.reshape(n * batch, 4 * h)
    return (
        flat.T @ embed[ids].reshape(n * batch, -1),
        flat[batch:].T @ cache.h[:-1].reshape(-1, h),  # the state before step 0 is zero
        flat.sum(axis=0),
        _dense(dz, w.Wx),
    )


def encode_backward(
    params: EncoderParams, cache: ForwardCache, d_emissions: np.ndarray
) -> dict:
    """Exact gradients of a scalar loss w.r.t. every encoder tensor.

    ``d_emissions`` is the loss gradient at the emission tensor produced by
    the matching :func:`encode_forward` call, with the same ``params``; its
    padding rows are ignored. The gradients are summed over the batch.
    Embedding gradients accumulate over repeated token occurrences; the PAD
    row gradient is forced to zero. A cache serves one backward pass.
    """
    d_emissions = np.asarray(d_emissions, dtype=np.float64)
    if d_emissions.shape != cache.emissions.shape:
        raise ValueError(
            f"d_emissions shape {d_emissions.shape} does not match "
            f"emissions shape {cache.emissions.shape}"
        )
    fwd, bwd, cache.fwd, cache.bwd = cache.fwd, cache.bwd, None, None  # gates become workspace
    h = params.fwd.Wh.shape[1]
    ids, (n, batch) = cache.token_ids, cache.token_ids.shape
    real = real_positions(cache.lengths, n)
    rev = reversal(cache.lengths, n)
    d_emissions = np.where(real[:, :, None], d_emissions, 0.0)
    d_flat = d_emissions.reshape(n * batch, -1)
    d_proj_W = np.hstack([d_flat.T @ s.reshape(n * batch, h) for s in (fwd.h, bwd.h[rev])])
    d_proj_b = d_flat.sum(axis=0)
    d_h = _dense(d_emissions, params.proj_W[:, :h])
    dWx_f, dWh_f, db_f, dx = _direction_backward(params.fwd, params.embed, ids, fwd, d_h)
    del fwd
    d_h = _dense(d_emissions, params.proj_W[:, h:])[rev]
    dWx_b, dWh_b, db_b, dx_b = _direction_backward(params.bwd, params.embed, ids[rev], bwd, d_h)
    dx += dx_b[rev]

    d_embed = np.zeros_like(params.embed)
    np.add.at(d_embed, ids[real], dx[real])
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
