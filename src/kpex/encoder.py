"""Token encoder: trainable embeddings, a single-layer BiLSTM, and a dense
projection onto the three label scores, with an exact analytic backward pass.

Everything runs in float64. Batches are time-major: token ids are
``(n_max, B)``, one document per column with its padding at the tail, and an
explicit ``lengths`` vector says where each column ends. The LSTM tensors
carry a leading direction axis: direction 0 reads each column left to right,
direction 1 reads it reversed within its length, so its padding also comes
last, and both run as one recurrence over that axis. They meet only at the
projection, where direction 1's states are gathered back into reading order
and the emission gradient into its step order. Gate blocks are ordered
(input, forget, cell, output). No time loop needs a mask. The padding
embedding row (index 0) is kept at zero and receives no gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .corpus import PAD_INDEX
from .errors import NumericError

NUM_LABELS = 3
DIRECTIONS = ("fwd", "bwd")  # the checkpoint names of LSTM directions 0 and 1


@dataclass(frozen=True)
class EncoderDims:
    vocab_size: int
    embed_dim: int = 64
    hidden_dim: int = 64
    num_labels: int = NUM_LABELS


@dataclass
class EncoderParams:
    embed: np.ndarray  # (V, embed_dim), row PAD_INDEX frozen at zero
    lstm_Wx: np.ndarray  # (2, 4h, embed_dim), one matrix per direction
    lstm_Wh: np.ndarray  # (2, 4h, h)
    lstm_b: np.ndarray  # (2, 4h)
    proj_W: np.ndarray  # (num_labels, 2h): columns :h read direction 0, h: direction 1
    proj_b: np.ndarray  # (num_labels,)

    @classmethod
    def zeros(cls, dims: EncoderDims, fill=np.zeros) -> "EncoderParams":
        """The tensors of ``dims``, each made by ``fill(shape)``: all zero by default."""
        h, e, n = dims.hidden_dim, dims.embed_dim, dims.num_labels
        shapes = [(dims.vocab_size, e), (2, 4 * h, e), (2, 4 * h, h), (2, 4 * h), (n, 2 * h), (n,)]
        return cls(*map(fill, shapes))

    @property
    def dims(self) -> EncoderDims:
        return EncoderDims(
            vocab_size=self.embed.shape[0],
            embed_dim=self.embed.shape[1],
            hidden_dim=self.lstm_Wh.shape[2],
            num_labels=self.proj_W.shape[0],
        )

    def copy(self) -> "EncoderParams":
        return EncoderParams(
            self.embed.copy(), self.lstm_Wx.copy(), self.lstm_Wh.copy(), self.lstm_b.copy(),
            self.proj_W.copy(), self.proj_b.copy(),
        )


def _by_direction(lstm: dict) -> dict:
    """``lstm_fwd.<name>``/``lstm_bwd.<name>`` -> row 0/1 of each stacked tensor,
    as views, so that in-place updates of the named tensors reach the stack."""
    return {f"lstm_{d}.{name}": a[i] for i, d in enumerate(DIRECTIONS) for name, a in lstm.items()}


def encoder_tensors(params: EncoderParams) -> dict:
    """Canonical name -> array view of every encoder tensor."""
    return {
        "embed": params.embed,
        **_by_direction({"Wx": params.lstm_Wx, "Wh": params.lstm_Wh, "b": params.lstm_b}),
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
    params = EncoderParams.zeros(dims)
    params.embed[:] = rng.uniform(-0.1, 0.1, params.embed.shape)
    params.embed[PAD_INDEX] = 0.0
    for d in range(2):  # the draws run Wx, Wh of direction 0, then of direction 1
        params.lstm_Wx[d] = _xavier(rng, params.lstm_Wx.shape[1:])
        params.lstm_Wh[d] = _xavier(rng, params.lstm_Wh.shape[1:])
    params.lstm_b[:, dims.hidden_dim : 2 * dims.hidden_dim] = 1.0  # forget gate
    params.proj_W[:] = _xavier(rng, params.proj_W.shape)
    return params


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
class ForwardCache:
    """What the backward pass needs beyond the parameters. Axis 0 of
    ``gates``, ``c`` and ``h`` is the direction and axis 1 the step that
    direction took, so row t of direction 1 is row ``lengths - 1 - t`` of
    its column. One backward pass consumes the cache: the gate and cell
    arrays become its workspace and are released."""

    token_ids: np.ndarray  # (n_max, B)
    lengths: np.ndarray  # (B,)
    gates: np.ndarray | None  # (2, n_max, B, 4h) activations of the (i, f, g, o) blocks
    c: np.ndarray | None  # (2, n_max, B, h)
    h: np.ndarray  # (2, n_max, B, h)
    emissions: np.ndarray  # (n_max, B, num_labels)


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

    Each time step is one batched ``(2, B, h) @ (2, h, 4h)`` product for both
    directions. All four gate blocks share one tanh through sigmoid(z) = 0.5
    + 0.5 * tanh(z / 2): the weight and bias rows are multiplied by ``scale``
    (halving, exact in binary) and the activations are ``scale * tanh + 1 -
    scale``. Step t's gates overwrite row t of the hoisted input product.
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
    (n, batch), h = ids.shape, params.lstm_Wh.shape[2]
    rev = reversal(lengths, n)
    x = params.embed[np.stack((ids, ids[rev]))].reshape(2, n * batch, -1)
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], h)  # sigmoid blocks i, f, o; tanh block g
    shift = 1.0 - scale
    gates = (x @ (params.lstm_Wx * scale[:, None]).transpose(0, 2, 1)).reshape(2, n, batch, 4 * h)
    del x
    gates += (params.lstm_b * scale)[:, None, None]
    WhT = (params.lstm_Wh * scale[:, None]).transpose(0, 2, 1).copy()
    c, hs = np.empty((2, n, batch, h)), np.empty((2, n, batch, h))
    i, f, g, o = np.split(gates, 4, axis=3)
    h_t = np.zeros((2, batch, h))
    c_t = np.zeros((2, batch, h))
    for t in range(n):
        a = gates[:, t]
        np.tanh(a + h_t @ WhT, out=a)
        a *= scale
        a += shift
        c_t = c[:, t] = f[:, t] * c_t + i[:, t] * g[:, t]
        h_t = hs[:, t] = o[:, t] * np.tanh(c_t)
    hidden = np.concatenate([hs[0], hs[1][rev]], axis=2).reshape(n * batch, 2 * h)
    emissions = (hidden @ params.proj_W.T + params.proj_b).reshape(n, batch, -1)
    return emissions, ForwardCache(ids, lengths, gates, c, hs, emissions)


def encode_backward(
    params: EncoderParams, cache: ForwardCache, d_emissions: np.ndarray
) -> dict:
    """Exact gradients of a scalar loss w.r.t. every encoder tensor.

    ``d_emissions`` is the loss gradient at the emission tensor produced by
    the matching :func:`encode_forward` call, with the same ``params``; its
    padding rows are ignored. The gradients are summed over the batch.
    Embedding gradients accumulate over repeated token occurrences; the PAD
    row gradient is forced to zero. A cache serves one backward pass.

    Both directions run back through one time loop, each over its own step
    order. The gate activations are overwritten, block by block, with
    ``dz``, the gradient at the gate pre-activations: first with each gate's
    chain-rule coefficient, then, in the time loop, which carries only dh and
    dc, step t is scaled by ``[dc, dc, dc, dh]``. The weight and input
    gradients are one batched matrix product each. Padding rows, last and
    with zero ``d_h``, stay exactly zero.
    """
    d_emissions = np.asarray(d_emissions, dtype=np.float64)
    if d_emissions.shape != cache.emissions.shape:
        raise ValueError(
            f"d_emissions shape {d_emissions.shape} does not match "
            f"emissions shape {cache.emissions.shape}"
        )
    dz, c, cache.gates, cache.c = cache.gates, cache.c, None, None  # they become workspace
    (n, batch), h = cache.token_ids.shape, params.lstm_Wh.shape[2]
    real = real_positions(cache.lengths, n)
    rev = reversal(cache.lengths, n)
    d_emissions = np.where(real[:, :, None], d_emissions, 0.0)
    d_steps = np.stack((d_emissions, d_emissions[rev])).reshape(2, n * batch, -1)
    hs = cache.h.reshape(2, n * batch, h)
    d_proj_W = (d_steps.transpose(0, 2, 1) @ hs).transpose(1, 0, 2).reshape(-1, 2 * h)
    d_proj_b = d_emissions.reshape(n * batch, -1).sum(axis=0)

    i, f, g, o = np.split(dz, 4, axis=3)
    f_gate = f.copy()
    f *= (1.0 - f) * np.concatenate([np.zeros_like(c[:, :1]), c[:, :-1]], axis=1)  # c before step t
    tc = np.tanh(c, out=c)  # the cell states are not read after this
    dc_dh = o * (1.0 - tc * tc)
    o *= (1.0 - o) * tc
    del tc, c
    g_coef = i * (1.0 - g * g)
    i *= (1.0 - i) * g
    g[...] = g_coef
    del g_coef, i, f, g, o

    # each direction's columns of proj_W, applied in that direction's step order
    d_h = (d_steps @ params.proj_W.reshape(-1, 2, h).transpose(1, 0, 2)).reshape(2, n, batch, h)
    dh_carry = np.zeros((2, batch, h))
    dc_carry = np.zeros((2, batch, h))
    for t in range(n - 1, -1, -1):
        dh = d_h[:, t] + dh_carry
        dc = dc_carry + dh * dc_dh[:, t]
        dz[:, t] *= np.concatenate((dc, dc, dc, dh), axis=2)
        dh_carry = dz[:, t] @ params.lstm_Wh
        dc_carry = dc * f_gate[:, t]
    del f_gate, dc_dh, d_h

    steps = np.stack((cache.token_ids, cache.token_ids[rev]))  # the ids each direction read
    dz = dz.reshape(2, n * batch, 4 * h)
    d_lstm = {
        "Wx": dz.transpose(0, 2, 1) @ params.embed[steps].reshape(2, n * batch, -1),
        "Wh": dz[:, batch:].transpose(0, 2, 1) @ hs[:, :-batch],  # the state before step 0 is 0
        "b": dz.sum(axis=1),
    }
    dx = (dz @ params.lstm_Wx).reshape(2, n, batch, -1)
    del dz
    d_embed = np.zeros_like(params.embed)
    np.add.at(d_embed, steps[:, real], dx[:, real])
    d_embed[PAD_INDEX] = 0.0

    return {"embed": d_embed, **_by_direction(d_lstm), "proj.W": d_proj_W, "proj.b": d_proj_b}


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
