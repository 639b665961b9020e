"""Full model state (encoder + CRF + vocabulary) and its checkpoint format.

In memory, every parameter lives in one float64 buffer, ``Model.flat``, laid out from the
dimensions as ``embed`` ``(V, e)``, ``lstm_Wx`` ``(2, 4h, e)``, ``lstm_Wh`` ``(2, 4h, h)``,
``lstm_b`` ``(2, 4h)``, ``proj_W`` ``(L, 2h)``, ``proj_b`` ``(L,)``, then ``crf.trans``
``(L, L)``, ``crf.start`` and ``crf.end`` ``(L,)``; the encoder's and the CRF's tensors are
C-contiguous views into it, the LSTM ones stacked by direction on axis 0. A gradient, the
Adam moments and a snapshot are buffers of the same layout.

Checkpoint layout: the 8-byte magic ``KFCKPT01``, a little-endian u32 JSON
header length, the JSON header, then the raw little-endian float64 payload.
The header maps each tensor name to dtype/shape/offset/length and records
the vocabulary (tokens and sha256), dimensions, and the label-index map.
The payload holds the tensors in :func:`model_tensors` order, where each LSTM
direction's ``Wx``, ``Wh`` and ``b`` follow one another (``lstm_fwd.*``, then
``lstm_bwd.*``): the loops of :func:`checkpoint_bytes` and :func:`load_checkpoint`
over those named views are the only place this order lives.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict
from itertools import accumulate
from pathlib import Path

import numpy as np

from .corpus import LABEL_INDEX, Vocabulary, parse_json, write_atomic
from .crf import CrfParams, crf_tensors
from .encoder import EncoderDims, EncoderParams, encoder_tensors, init_params
from .errors import DataError

CHECKPOINT_MAGIC = b"KFCKPT01"


def _shapes(dims: EncoderDims) -> list[tuple[int, ...]]:
    """The shape of each view of the parameter buffer, in buffer order."""
    n = dims.num_labels
    return [*EncoderParams.shapes(dims), (n, n), (n,), (n,)]


class Model:
    """The complete learnable state bound to one vocabulary: the parameter buffer ``flat``
    (all zero by default) and its views ``encoder`` and ``crf``."""

    def __init__(self, dims: EncoderDims, vocab: Vocabulary, flat: np.ndarray | None = None):
        shapes = _shapes(dims)
        bounds = [0, *accumulate(map(math.prod, shapes))]
        self.dims, self.vocab = dims, vocab
        self.flat = np.zeros(bounds[-1]) if flat is None else flat
        views = [self.flat[a:b].reshape(s) for a, b, s in zip(bounds, bounds[1:], shapes)]
        *encoder, trans, start, end = views
        self.encoder, self.crf = EncoderParams(*encoder), CrfParams(trans, start, end)

    def copy(self) -> "Model":
        return Model(self.dims, self.vocab, self.flat.copy())


def init_model(vocab: Vocabulary, embed_dim: int, hidden_dim: int, seed) -> Model:
    """Fresh model: randomly initialized encoder, all-zero CRF scores."""
    model = Model(EncoderDims(len(vocab), embed_dim, hidden_dim), vocab)
    init_params(model.dims, seed, out=model.encoder)
    return model


def model_tensors(model: Model) -> dict:
    """Canonical name -> array view over all trainable tensors, in checkpoint order."""
    return {**encoder_tensors(model.encoder), **crf_tensors(model.crf)}


def checkpoint_bytes(model: Model) -> bytes:
    entries = {}
    offset = 0
    chunks = []
    for name, tensor in model_tensors(model).items():
        raw = np.ascontiguousarray(tensor, dtype="<f8").tobytes()
        entries[name] = {
            "dtype": "f64",
            "shape": list(tensor.shape),
            "offset": offset,
            "length": len(raw),
        }
        chunks.append(raw)
        offset += len(raw)
    header = {
        "tensors": entries,
        "vocab_sha256": model.vocab.sha256,
        "vocab_tokens": list(model.vocab.itos),
        "vocab_min_count": model.vocab.min_count,
        "dims": asdict(model.dims),
        "labels": LABEL_INDEX,
    }
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return CHECKPOINT_MAGIC + struct.pack("<I", len(head)) + head + b"".join(chunks)


def save_checkpoint(model: Model, path) -> None:
    write_atomic(path, checkpoint_bytes(model))


def load_checkpoint(path) -> Model:
    """Read a checkpoint; an unreadable file or malformed or inconsistent
    content raises DataError."""
    try:
        blob = Path(path).read_bytes()
    except OSError as exc:
        raise DataError(f"cannot read checkpoint {path}: {exc.strerror or exc}") from exc
    if blob[:8] != CHECKPOINT_MAGIC:
        raise DataError(f"{path}: not a checkpoint (bad magic)")
    if len(blob) < 12:
        raise DataError(f"{path}: truncated checkpoint header")
    (head_len,) = struct.unpack("<I", blob[8:12])
    header = parse_json(blob[12 : 12 + head_len], DataError, f"{path} header")
    try:
        return _model_from(header, blob[12 + head_len :], path)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: malformed checkpoint ({exc!r})") from exc


def _model_from(header: dict, payload: bytes, path) -> Model:
    dims = header["dims"]
    if (dims["num_labels"], dims["vocab_size"]) != (len(LABEL_INDEX), len(header["vocab_tokens"])):
        raise DataError(f"{path}: dims {dims} disagree with the labels or the vocabulary")
    vocab = Vocabulary(
        itos=tuple(header["vocab_tokens"]), min_count=header.get("vocab_min_count", 1)
    )
    if vocab.sha256 != header["vocab_sha256"]:
        raise DataError(f"{path}: vocabulary hash mismatch")
    if header["labels"] != LABEL_INDEX:
        raise DataError(f"{path}: incompatible label-index map {header['labels']}")
    if not all(type(dims[k]) is int and dims[k] >= 1 for k in ("embed_dim", "hidden_dim")):
        raise DataError(f"{path}: dims {dims} need embed_dim and hidden_dim as integers >= 1")
    sizes = EncoderDims(dims["vocab_size"], dims["embed_dim"], dims["hidden_dim"])
    expected = 8 * sum(map(math.prod, _shapes(sizes)))  # checked before a buffer is sized
    if len(payload) != expected:
        raise DataError(f"{path}: payload holds {len(payload)} bytes, its dims {expected}")

    model, metas, offset = Model(sizes, vocab), header["tensors"], 0
    for name, arr in model_tensors(model).items():
        meta = metas[name]
        if meta["dtype"] != "f64":
            raise DataError(f"{path}: tensor {name} has unsupported dtype {meta['dtype']}")
        if meta["shape"] != list(arr.shape):
            raise DataError(f"{path}: tensor {name} has shape {meta['shape']}, not {arr.shape}")
        if (meta["offset"], meta["length"]) != (offset, 8 * arr.size):
            raise DataError(f"{path}: tensor {name} has an inconsistent offset or length")
        arr[...] = np.frombuffer(payload, "<f8", arr.size, offset).reshape(arr.shape)
        offset += meta["length"]
    if not np.isfinite(model.flat).all():
        raise DataError(f"{path}: checkpoint holds non-finite tensor values")
    return model
