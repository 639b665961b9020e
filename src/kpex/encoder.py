"""Token encoder: trainable embeddings, a single-layer BiLSTM, and a dense
projection onto the three label scores, with an exact analytic backward pass.

Everything runs in float64. Batches are time-major: token ids are
``(n_max, B)``, one document per column with its padding at the tail, and an
explicit ``lengths`` vector says where each column ends. The LSTM runs on
packed sequences: columns are ranked longest first, and packed step s holds
those still inside their documents as one contiguous block of rows of
``(N, 2, ...)`` arrays, N = ``lengths.sum()``; padding is never computed.
Axis 1 is the direction: direction 0 reads each column left to right,
direction 1 reads it reversed within its length, so both share each step's
columns and run as one recurrence. They meet only at the projection: each
direction's states meet its own half of ``proj_W``, direction 1's label scores
are gathered back into reading order and the emission gradient into its step
order. Gate blocks are ordered (input, forget, cell, output). The padding
embedding row (index 0) is kept at zero and receives no gradient.
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
    return {f"lstm_{d}.{k}": a[i] for i, d in enumerate(("fwd", "bwd")) for k, a in lstm.items()}


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
    rng = np.random.default_rng(seed)  # a Generator is returned as it is
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


def _pack(lengths: np.ndarray, n_max: int):
    """The packed layout: per packed row, the position direction 0 reads, its
    column and the row at which direction 1 reads that position; per step, its
    row slice and the number of columns ending there, which are ranked last."""
    order = np.argsort(-lengths, kind="stable")
    ranked = lengths[order]
    t, k = np.nonzero(np.arange(n_max)[:, None] < ranked)  # step-major, by rank inside
    off = np.searchsorted(t, np.arange(n_max + 1))  # each step's first row, then N
    bounds, ends = off.tolist(), np.bincount(lengths - 1, minlength=n_max).tolist()
    steps = list(zip(map(slice, bounds, bounds[1:]), ends))
    return t, order[k], off[ranked[k] - 1 - t] + k, steps


@dataclass
class ForwardCache:
    """What the backward pass needs: the batch, its packed layout (``_pack``)
    and per direction, on axis 1, the gates, cells and states of its packed
    rows in the order it stepped. One backward pass consumes the cache: the
    gate and cell arrays become its workspace and are released."""

    token_ids: np.ndarray  # (n_max, B)
    lengths: np.ndarray  # (B,)
    t: np.ndarray  # (N,)
    col: np.ndarray  # (N,)
    mirror: np.ndarray  # (N,), an involution
    steps: list  # (rows, ends) per step
    gates: np.ndarray | None  # (N, 2, 4h) activations of the (i, f, g, o) blocks
    c: np.ndarray | None  # (N, 2, h)
    h: np.ndarray  # (N, 2, h)
    emissions: np.ndarray  # (n_max, B, num_labels)


def encode_forward(
    params: EncoderParams, token_ids, lengths
) -> tuple[np.ndarray, ForwardCache]:
    """Emission scores ``(n_max, B, num_labels)`` for a time-major batch.

    ``token_ids`` is ``(n_max, B)``; column b holds a document in its first
    ``lengths[b]`` rows and padding, which may hold any valid id, after them.
    Both LSTM directions start from zero states at each document's own ends
    and run over real positions only; emission row t of column b is
    ``proj_W @ concat(h_fwd[t, b], h_bwd[t, b]) + proj_b``, summed as the two
    directions' halves, and rows past a column's length are zero.

    Each step is one batched ``(2, active, h) @ (2, h, 4h)`` product for both
    directions; the carried states drop the columns that have ended. All four
    gate blocks share one tanh through sigmoid(z) = 0.5 + 0.5 * tanh(z / 2):
    the hoisted input product and ``Wh`` are multiplied by ``scale`` (halving,
    exact in binary) and the activations are ``scale * tanh + 1 - scale``.
    Step s's gates overwrite its contiguous rows of the input product; its
    cells and states are written into its cache rows, the next step's carries.
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
    layout = t, col, mirror, steps = _pack(lengths, n)
    read = ids[t, col]
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], h)  # sigmoid blocks i, f, o; tanh block g
    shift = 1.0 - scale
    gates = np.empty((len(read), 2, 4 * h))
    np.matmul(params.embed[np.stack((read, read[mirror]))], params.lstm_Wx.transpose(0, 2, 1),
              out=gates.transpose(1, 0, 2))
    gates += params.lstm_b
    gates *= scale
    WhT = params.lstm_Wh.transpose(0, 2, 1).copy()
    WhT *= scale
    c, hs = np.empty((len(read), 2, h)), np.empty((len(read), 2, h))
    i, f, g, o = gates.reshape(-1, 2, 4, h).transpose(2, 0, 1, 3)  # views of the blocks
    h_t = c_t = np.zeros((batch, 2, h))
    recurrent = np.empty((batch, 2, 4 * h))  # the step's h_t @ WhT, rows [:active]
    for rows, ends in steps:
        a, hw = gates[rows], recurrent[: len(h_t)]
        np.matmul(h_t.transpose(1, 0, 2), WhT, out=hw.transpose(1, 0, 2))
        a += hw
        np.tanh(a, out=a)
        a *= scale
        a += shift
        c_t = np.multiply(f[rows], c_t, out=c[rows])
        c_t += i[rows] * g[rows]
        h_t = np.tanh(c_t, out=hs[rows])
        h_t *= o[rows]
        if ends:  # the columns that took their last step drop out, ranked last
            h_t, c_t = h_t[:-ends], c_t[:-ends]
    scores = hs.transpose(1, 0, 2) @ params.proj_W.reshape(-1, 2, h).transpose(1, 2, 0)
    emissions = np.zeros((n, batch, params.proj_W.shape[0]))
    emissions[t, col] = scores[0] + scores[1][mirror] + params.proj_b
    return emissions, ForwardCache(ids, lengths, *layout, gates, c, hs, emissions)


def encode_backward(
    params: EncoderParams, cache: ForwardCache, d_emissions: np.ndarray
) -> dict:
    """Exact gradients of a scalar loss w.r.t. every encoder tensor.

    ``d_emissions`` is the loss gradient at the emission tensor produced by
    the matching :func:`encode_forward` call, with the same ``params``; its
    padding rows are ignored. The gradients are summed over the batch.
    Embedding gradients accumulate over repeated token occurrences; the PAD
    row gradient is forced to zero. A cache serves one backward pass.

    Both directions run back through one loop over the packed steps, each in
    its own step order. The gate activations are overwritten, block by
    block, with ``dz``, the gradient at the gate pre-activations: first with
    each gate's chain-rule coefficient, then, in the step loop, which carries
    only dh and dc, step s's contiguous rows are scaled in place by
    ``[dc, dc, dc, dh]``. The carries are the first rows of two ``(B, 2, h)``
    buffers, so a column's are zero until its last step. The weight and
    input gradients are one batched matrix product each, over real rows only.
    """
    d_emissions = np.asarray(d_emissions, dtype=np.float64)
    if d_emissions.shape != cache.emissions.shape:
        raise ValueError(
            f"d_emissions shape {d_emissions.shape} does not match "
            f"emissions shape {cache.emissions.shape}"
        )
    dz, c, cache.gates, cache.c = cache.gates, cache.c, None, None  # they become workspace
    hs, mirror, h, batch = cache.h, cache.mirror, params.lstm_Wh.shape[2], len(cache.lengths)
    prev = np.arange(batch, len(mirror)) - np.bincount(cache.t)[cache.t[batch:] - 1]  # row at s-1
    d_read = d_emissions[cache.t, cache.col]
    d_steps = np.stack((d_read, d_read[mirror]))
    d_proj_W = d_steps.transpose(0, 2, 1) @ hs.transpose(1, 0, 2)
    d_proj_W = d_proj_W.transpose(1, 0, 2).reshape(-1, 2 * h)
    d_proj_b = d_read.sum(axis=0)

    i, f, g, o = dz.reshape(-1, 2, 4, h).transpose(2, 0, 1, 3)
    f_gate = f.copy()
    f *= (1.0 - f) * np.concatenate([np.zeros_like(c[:batch]), c[prev]])
    tc = np.tanh(c, out=c)  # the cell states are not read after this
    dc_dh = o * (1.0 - tc * tc)
    o *= (1.0 - o) * tc
    del tc, c
    g_coef = i * (1.0 - g * g)
    i *= (1.0 - i) * g
    g[...] = g_coef
    del g_coef, i, f, g, o

    # each direction's columns of proj_W, applied in that direction's step order
    d_h = np.empty_like(hs)
    proj_by_direction = params.proj_W.reshape(-1, 2, h).transpose(1, 0, 2)
    np.matmul(d_steps, proj_by_direction, out=d_h.transpose(1, 0, 2))
    dh_carry, dc_carry = np.zeros((batch, 2, h)), np.zeros((batch, 2, h))
    dz_scale = np.empty((batch, 2, 4, h))  # [dc, dc, dc, dh] per gate block
    for rows, _ in reversed(cache.steps):
        k = rows.stop - rows.start
        dh, dc, z, s = dh_carry[:k], dc_carry[:k], dz[rows], dz_scale[:k]
        dh += d_h[rows]
        dc += dh * dc_dh[rows]
        s[:, :, :3] = dc[:, :, None]
        s[:, :, 3] = dh
        z *= s.reshape(k, 2, 4 * h)
        np.matmul(z.transpose(1, 0, 2), params.lstm_Wh, out=dh.transpose(1, 0, 2))
        dc *= f_gate[rows]
    del f_gate, dc_dh, d_h

    read = cache.token_ids[cache.t, cache.col]  # direction 1 reads them at the mirror rows
    d_lstm = {
        "Wx": dz.transpose(1, 2, 0) @ params.embed[np.stack((read, read[mirror]))],
        # the state before step 0 is 0
        "Wh": dz[batch:].transpose(1, 2, 0) @ hs[prev].transpose(1, 0, 2),
        "b": dz.sum(axis=0),
    }
    dx = dz.transpose(1, 0, 2) @ params.lstm_Wx
    del dz
    d_embed = np.zeros_like(params.embed)
    np.add.at(d_embed, read, dx[0] + dx[1][mirror])  # both directions read each position
    d_embed[PAD_INDEX] = 0.0

    return {"embed": d_embed, **_by_direction(d_lstm), "proj.W": d_proj_W, "proj.b": d_proj_b}


# ---------------------------------------------------------------------------
# Adam with two learning-rate groups
# ---------------------------------------------------------------------------

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8


@dataclass
class OptimizerState:
    """Adam moments plus the two-group learning rates.

    The ``embed`` tensor belongs to the lower group; every other tensor
    (LSTM, projection, CRF scores) uses ``lr_upper``.
    """

    lr_lower: float
    lr_upper: float
    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, opt: OptimizerState) -> None:
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
        m, v, scratch = opt.m[name], opt.v[name], np.empty_like(g)
        m *= BETA1
        m += np.multiply(1.0 - BETA1, g, out=scratch)
        v *= BETA2
        v += np.multiply(np.multiply(1.0 - BETA2, g, out=scratch), g, out=scratch)
        denom = np.divide(v, 1.0 - BETA2**t, out=scratch)  # v_hat, then its root + EPS
        np.sqrt(denom, out=denom)
        denom += EPS
        m_hat = m / (1.0 - BETA1**t)
        m_hat *= opt.lr_lower if name == "embed" else opt.lr_upper
        m_hat /= denom
        params[name] -= m_hat
