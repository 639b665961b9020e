"""Token encoder: trainable embeddings, a single-layer BiLSTM, and a dense
projection onto the three label scores, with an exact analytic backward pass.

Everything runs in float64. A batch is packed (:func:`pack`): its documents
are ranked longest first, and packed step s holds those still inside their
documents as one contiguous block of rows of ``(N, ...)`` arrays, N the
batch's real tokens, so there is no padding anywhere. Token ids, emissions
and their gradient are packed rows; :meth:`Layout.rows` and
:meth:`Layout.columns` convert from and to per-document arrays, and a single
document's packed rows are its own, in reading order. Axis 1 of the LSTM
arrays is the direction: direction 0 reads each document left to right,
direction 1 reads it reversed, at the ``mirror`` rows, so both share each
step's documents and run as one recurrence. They meet only at the
projection: each direction's states meet its own half of ``proj_W`` and
direction 1's label scores are gathered back into reading order. Gate blocks
are ordered (input, forget, cell, output). The padding embedding row (index
0) is kept at zero and receives no gradient.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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

    @staticmethod
    def shapes(dims: EncoderDims) -> list[tuple[int, ...]]:
        """The shape of each field, in field order."""
        h, e, n = dims.hidden_dim, dims.embed_dim, dims.num_labels
        return [(dims.vocab_size, e), (2, 4 * h, e), (2, 4 * h, h), (2, 4 * h), (n, 2 * h), (n,)]

    @classmethod
    def zeros(cls, dims: EncoderDims) -> "EncoderParams":
        return cls(*map(np.zeros, cls.shapes(dims)))


def encoder_tensors(params: EncoderParams) -> dict:
    """Canonical name -> array view of every encoder tensor; ``lstm_fwd.<name>`` and
    ``lstm_bwd.<name>`` are rows 0 and 1 of the stacked LSTM tensors."""
    lstm = {"Wx": params.lstm_Wx, "Wh": params.lstm_Wh, "b": params.lstm_b}
    return {
        "embed": params.embed,
        **{f"lstm_{d}.{k}": a[i] for i, d in enumerate(("fwd", "bwd")) for k, a in lstm.items()},
        "proj.W": params.proj_W,
        "proj.b": params.proj_b,
    }


def _xavier(rng: np.random.Generator, shape: tuple[int, int]) -> np.ndarray:
    # fan counts taken from the full matrix shape (rows = outputs)
    bound = math.sqrt(6.0 / (shape[0] + shape[1]))
    return rng.uniform(-bound, bound, shape)


def init_params(dims: EncoderDims, seed, out: EncoderParams | None = None) -> EncoderParams:
    """Initialize encoder parameters, in ``out`` (all zero) if given.

    Embeddings come from Uniform(-0.1, 0.1) with the PAD row zeroed; LSTM
    and projection weights are Xavier-uniform; all biases are zero except
    the LSTM forget-gate block, which starts at 1.0. ``seed`` may be an int
    or a ``numpy.random.Generator``; identical seeds give identical bytes.
    """
    rng = np.random.default_rng(seed)  # a Generator is returned as it is
    params = EncoderParams.zeros(dims) if out is None else out
    params.embed[:] = rng.uniform(-0.1, 0.1, params.embed.shape)
    params.embed[PAD_INDEX] = 0.0
    for d in range(2):  # the draws run Wx, Wh of direction 0, then of direction 1
        params.lstm_Wx[d] = _xavier(rng, params.lstm_Wx.shape[1:])
        params.lstm_Wh[d] = _xavier(rng, params.lstm_Wh.shape[1:])
    params.lstm_b[:, dims.hidden_dim : 2 * dims.hidden_dim] = 1.0  # forget gate
    params.proj_W[:] = _xavier(rng, params.proj_W.shape)
    return params


def check_integers(values, what: str) -> np.ndarray:
    """``values`` as an int64 array; floats and bools are a ValueError, never truncated."""
    values = np.asarray(values)
    if values.dtype.kind not in "iu":
        raise ValueError(f"{what} must be integers, got {values.dtype}")
    return values.astype(np.int64, copy=False)


def check_lengths(lengths) -> np.ndarray:
    """The ``(B,)`` lengths of a batch of B >= 1 documents, each an integer >= 1."""
    lengths = check_integers(lengths, "lengths")
    if lengths.ndim != 1 or len(lengths) < 1 or not np.all(lengths >= 1):
        raise ValueError(f"need one or more lengths, each >= 1, got {lengths.tolist()}")
    return lengths


@dataclass(frozen=True, eq=False)  # compared by identity: its fields are arrays
class Layout:
    """The packed layout of a batch, built once by :func:`pack` and shared by every engine call
    on it. Documents are ranked longest first (a stable sort); step s's rows
    ``off[s]:off[s + 1]`` are the documents still inside their lengths, the first ranks of step
    s - 1's at the same ranks, and a document's column is its place in the batch."""

    lengths: np.ndarray  # (B,)
    t: np.ndarray  # (N,) the position each row holds, as direction 0 reads it
    col: np.ndarray  # (N,) its column
    mirror: np.ndarray  # (N,) the row at which direction 1 reads that position, an involution
    off: np.ndarray  # (n_max + 1,) each step's first row, then N
    prev: np.ndarray  # (N - B,) each row after step 0's rank's row one step back
    first: np.ndarray  # (B,) each column's first row, in column order
    last: np.ndarray  # (B,) each column's last row, in column order
    steps: list  # (rows, ends) per step: its rows, and how many columns take their last step
    reading: np.ndarray  # (N,) each row's place in the documents laid end to end

    def rows(self, seqs) -> np.ndarray:
        """The packed rows of one sequence (ids, labels, emissions) per column, in column
        order, each as long as its document."""
        if [len(s) for s in seqs] != self.lengths.tolist():
            raise ValueError(f"sequences of lengths {[len(s) for s in seqs]} for a batch of "
                             f"lengths {self.lengths.tolist()}")
        return np.concatenate(seqs)[self.reading]

    def columns(self, packed) -> list:
        """Each column's rows of ``packed``, in reading order: the inverse of :meth:`rows`."""
        out = np.empty_like(packed)
        out[self.reading] = packed
        return np.split(out, np.cumsum(self.lengths)[:-1])

    def column_sums(self, values, skip: int = 0) -> np.ndarray:
        """Per column, the sum of ``values`` of its rows from step ``skip`` on, summed down a
        zero-padded ``(n_max - skip, B)`` array, row t - skip holding position t: numpy sums
        one column pairwise and several column by column, and this is the order of both."""
        out = np.zeros((len(self.off) - 1 - skip, len(self.lengths)))
        rows = slice(self.off[skip], None)
        out[self.t[rows] - skip, self.col[rows]] = values
        return out.sum(axis=0)


def pack(lengths) -> Layout:
    """The packed layout of a batch of documents of ``lengths``, which are checked here once."""
    lengths = check_lengths(lengths)
    order = np.argsort(-lengths, kind="stable")
    ranked = lengths[order]
    ends = np.bincount(ranked - 1)  # per step, the columns that take their last step at it
    active = len(lengths) - np.cumsum(ends) + ends
    off = np.concatenate(([0], np.cumsum(active)))
    t = np.repeat(np.arange(len(active)), active)  # step-major, by rank inside
    k = np.arange(len(t)) - off[t]
    mirror = off[ranked[k] - 1 - t] + k
    prev = np.arange(len(lengths), len(t)) - active[t[len(lengths) :] - 1]
    first = np.argsort(order)  # a column's rank is its row at step 0
    rows, starts = off.tolist(), np.cumsum(lengths) - lengths
    steps = list(zip(map(slice, rows, rows[1:]), ends.tolist()))
    col = order[k]
    return Layout(lengths, t, col, mirror, off, prev, first, mirror[first], steps, starts[col] + t)


@dataclass
class ForwardCache:
    """What the backward pass needs: the packed token ids, their layout and per direction, on
    axis 1, the gates, cells and states of the packed rows in the order it stepped. A forward with
    ``for_backward=False`` keeps the ids and the layout only. One backward pass consumes the
    cache: the gate and cell arrays become its workspace and are released."""

    token_ids: np.ndarray  # (N,)
    layout: Layout
    gates: np.ndarray | None  # (N, 2, 4h) activations of the (i, f, g, o) blocks
    c: np.ndarray | None  # (N, 2, h)
    h: np.ndarray | None  # (N, 2, h)


# Packed rows per projection block; a decode holds the states of one block and one step. At
# hidden 64 that ring is 2 MB, and freeing it raises glibc's mmap threshold above a training
# step's temporaries, which smaller blocks leave to fault in fresh pages (see the README).
BLOCK_ROWS = 2048


def encode_forward(
    params: EncoderParams, token_ids, layout: Layout, *, for_backward: bool = True
) -> tuple[np.ndarray, ForwardCache]:
    """Emission scores ``(N, num_labels)`` of a packed batch: ``token_ids`` are the ``(N,)``
    packed rows of ``layout``. Both LSTM directions start from zero states at each document's own
    ends; the emission row of position t is ``proj_W @ concat(h_fwd[t], h_bwd[t]) + proj_b``,
    summed as the two directions' halves.

    Each step gathers its input rows from a table ``(embed[tokens] @ Wx.T + b) * scale`` of the
    distinct tokens, both directions, and adds one batched ``(2, active, h) @ (2, h, 4h)`` product;
    the carried states drop the columns that have ended. All four gate blocks share one tanh
    through sigmoid(z) = 0.5 + 0.5 * tanh(z / 2): the table and ``Wh`` are multiplied by ``scale``
    (halving, exact) and the activations are ``scale * tanh + 1 - scale``. Gates and cells fill
    step s's rows of ``(N, 2, ·)`` caches, or (``for_backward=False``) one ``(B, 2, ·)`` block.
    Finished states meet ``proj_W`` in blocks of ``BLOCK_ROWS`` packed rows; a training forward
    keeps them all for the backward, a decode only the unprojected ones, at most a block and a
    step, so both project the same blocks and agree bit for bit.
    """
    ids = check_integers(token_ids, "token ids")
    if ids.shape != layout.t.shape:
        raise ValueError(f"need {len(layout.t)} packed token ids for lengths summing to "
                         f"{len(layout.t)}, got shape {ids.shape}")
    if ids.min() < 0 or ids.max() >= params.embed.shape[0]:
        raise ValueError(
            f"token id out of range [0, {params.embed.shape[0]}): "
            f"{int(ids.min())}..{int(ids.max())}"
        )
    batch, h, n, mirror = len(layout.lengths), params.lstm_Wh.shape[2], len(ids), layout.mirror
    tokens, inverse = np.unique(ids, return_inverse=True)
    idx = np.stack((2 * inverse, 2 * inverse[mirror] + 1), axis=1)  # table rows (token, direction)
    scale = np.repeat([0.5, 0.5, 1.0, 0.5], h)  # sigmoid blocks i, f, o; tanh block g
    shift = 1.0 - scale
    table = np.empty((len(tokens), 2, 4 * h))
    np.matmul(params.embed[tokens], params.lstm_Wx.swapaxes(1, 2), out=table.swapaxes(0, 1))
    table += params.lstm_b
    table *= scale
    table = table.reshape(-1, 4 * h)
    WhT = np.multiply(params.lstm_Wh.swapaxes(1, 2), scale, order="C")
    proj = params.proj_W.reshape(-1, 2, h).transpose(1, 2, 0)  # (2, h, L), by direction
    scores = np.empty((2, n, proj.shape[2]))

    def project(states, first):  # the label scores of packed rows first, first + 1, ...
        np.matmul(states.transpose(1, 0, 2), proj, out=scores[:, first : first + len(states)])

    kept = n if for_backward else batch
    gates, c = np.empty((kept, 2, 4 * h)), np.empty((kept, 2, h))
    hs = np.empty((n if for_backward else min(n, BLOCK_ROWS + batch), 2, h))
    i, f, g, o = gates.reshape(-1, 2, 4, h).transpose(2, 0, 1, 3)  # views of the blocks
    h_t = c_t = np.zeros((batch, 2, h))
    recurrent = np.empty((batch, 2, 4 * h))  # the step's h_t @ WhT, rows [:active]
    done = held = 0  # packed rows projected, and unprojected rows held after them in hs
    full = len(hs) + 1 if for_backward else BLOCK_ROWS  # rows held when a decode projects a block
    for rows, ends in layout.steps:
        at = rows if for_backward else slice(rows.stop - rows.start)
        a, hw = gates[at], recurrent[: len(h_t)]
        table.take(idx[rows], axis=0, out=a, mode="clip")  # "raise" would buffer out
        np.matmul(h_t.transpose(1, 0, 2), WhT, out=hw.transpose(1, 0, 2))
        while held >= full:  # h_t is read: project a whole block
            project(hs[:BLOCK_ROWS], done)
            done, held = done + BLOCK_ROWS, held - BLOCK_ROWS
            hs[:held] = hs[BLOCK_ROWS : BLOCK_ROWS + held]
        a += hw
        np.tanh(a, out=a)
        a *= scale
        a += shift
        c_t = np.multiply(f[at], c_t, out=c[at])
        c_t += i[at] * g[at]
        h_t = np.tanh(c_t, out=hs[held : held + len(c_t)])
        h_t *= o[at]
        held += len(h_t)
        if ends:  # the columns that took their last step drop out, ranked last
            h_t, c_t = h_t[:-ends], c_t[:-ends]
    for first in range(0, held, BLOCK_ROWS):
        project(hs[first : min(first + BLOCK_ROWS, held)], done + first)
    if not for_backward:  # the decode's states are projected: drop them before the scores meet
        gates = c = hs = h_t = table = None
    emissions = scores[0] + scores[1][mirror] + params.proj_b
    return emissions, ForwardCache(ids, layout, gates, c, hs)


def encode_backward(
    params: EncoderParams, cache: ForwardCache, d_emissions: np.ndarray,
    out: EncoderParams | None = None,
) -> dict:
    """Exact gradients of a scalar loss w.r.t. every encoder tensor, written into ``out`` (new
    tensors by default) and returned as its named views (:func:`encoder_tensors`).

    ``d_emissions`` is the loss gradient at the ``(N, num_labels)`` emissions of
    the matching :func:`encode_forward` call, with the same ``params``, in its
    packed rows. The gradients are summed over the batch.
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
    d_read = np.asarray(d_emissions, dtype=np.float64)
    if d_read.shape != (len(cache.token_ids), params.proj_W.shape[0]):
        raise ValueError(f"d_emissions shape {d_read.shape} does not match the emissions' "
                         f"{(len(cache.token_ids), params.proj_W.shape[0])}")
    if cache.gates is None:
        raise ValueError("the cache holds no gates: built with for_backward=False, or consumed")
    dz, c, cache.gates, cache.c = cache.gates, cache.c, None, None  # they become workspace
    out = EncoderParams(*map(np.zeros_like, vars(params).values())) if out is None else out
    layout, hs, h = cache.layout, cache.h, params.lstm_Wh.shape[2]
    mirror, prev, batch = layout.mirror, layout.prev, len(layout.lengths)
    d_steps = np.stack((d_read, d_read[mirror]))
    d_proj_W = d_steps.transpose(0, 2, 1) @ hs.transpose(1, 0, 2)
    out.proj_W[...] = d_proj_W.transpose(1, 0, 2).reshape(-1, 2 * h)
    np.sum(d_read, axis=0, out=out.proj_b)

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
    for rows, _ in reversed(layout.steps):
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

    read = cache.token_ids  # direction 1 reads them at the mirror rows
    np.matmul(dz.transpose(1, 2, 0), params.embed[np.stack((read, read[mirror]))], out=out.lstm_Wx)
    # the state before step 0 is 0
    np.matmul(dz[batch:].transpose(1, 2, 0), hs[prev].transpose(1, 0, 2), out=out.lstm_Wh)
    np.sum(dz, axis=0, out=out.lstm_b)
    dx = dz.transpose(1, 0, 2) @ params.lstm_Wx
    del dz
    out.embed[...] = 0.0
    np.add.at(out.embed, read, dx[0] + dx[1][mirror])  # both directions read each position
    out.embed[PAD_INDEX] = 0.0
    return encoder_tensors(out)


# ---------------------------------------------------------------------------
# Adam with two learning-rate groups
# ---------------------------------------------------------------------------

BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
# Elements per Adam block: a step makes each of its passes over one block of the flat buffers
# before the next block, so its work buffers and finiteness mask are one block long and a
# block's passes run in cache.
ADAM_BLOCK = 16384


@dataclass
class OptimizerState:
    """Adam moments plus the two-group learning rates.

    ``m`` and ``v`` are flat, in the layout of :class:`kpex.model.Model`'s parameter buffer, and
    made on the first step with the step's two work buffers, each ``ADAM_BLOCK`` elements long
    (the buffer's size if smaller), so that a step allocates nothing of the buffer's size. Its
    leading ``embed`` slice belongs to the lower group; every other parameter (LSTM, projection,
    CRF scores) uses ``lr_upper``.
    """

    lr_lower: float
    lr_upper: float
    step: int = 0
    m: np.ndarray | None = None
    v: np.ndarray | None = None
    m_hat: np.ndarray | None = None  # the step's work buffers, one block each
    scratch: np.ndarray | None = None


def adam_step(model, grad, opt: OptimizerState) -> None:
    """One bias-corrected Adam update, in place, of ``model``'s parameter buffer by ``grad``'s:
    two :class:`kpex.model.Model` of one layout. The buffers are updated one ``ADAM_BLOCK`` at a
    time, each element by the same operations in the same order as a whole-buffer update, the
    lower-rate boundary split inside its block. A non-finite gradient, checked block by block
    before any update, raises NumericError naming its tensor, with no parameter moved."""
    opt.step += 1
    t, g = opt.step, grad.flat
    blocks = [slice(a, a + ADAM_BLOCK) for a in range(0, g.size, ADAM_BLOCK)]
    if not all(np.isfinite(g[b]).all() for b in blocks):
        from .model import model_tensors  # kpex.model imports this module

        name = next(k for k, a in model_tensors(grad).items() if not np.isfinite(a).all())
        raise NumericError(f"non-finite gradient for tensor '{name}' at step {t}")
    if opt.m is None:
        opt.m, opt.v = np.zeros_like(g), np.zeros_like(g)
        n = min(g.size, ADAM_BLOCK)
        opt.m_hat, opt.scratch = np.empty(n), np.empty(n)
    lower = model.encoder.embed.size  # the buffer's leading slice
    for b in blocks:
        m, v, gb, p = opt.m[b], opt.v[b], g[b], model.flat[b]
        m_hat, scratch = opt.m_hat[: len(gb)], opt.scratch[: len(gb)]
        m *= BETA1
        m += np.multiply(1.0 - BETA1, gb, out=scratch)
        v *= BETA2
        v += np.multiply(np.multiply(1.0 - BETA2, gb, out=scratch), gb, out=scratch)
        denom = np.divide(v, 1.0 - BETA2**t, out=scratch)  # v_hat, then its root + EPS
        np.sqrt(denom, out=denom)
        denom += EPS
        np.divide(m, 1.0 - BETA1**t, out=m_hat)
        split = max(lower - b.start, 0)  # slicing clamps it to the block
        m_hat[:split] *= opt.lr_lower
        m_hat[split:] *= opt.lr_upper
        m_hat /= denom
        p -= m_hat
