"""Full model state (encoder + CRF + vocabulary) and its checkpoint format.

Checkpoint layout: the 8-byte magic ``KFCKPT01``, a little-endian u32 JSON
header length, the JSON header, then the raw little-endian float64 payload.
The header maps each tensor name to dtype/shape/offset/length and records
the vocabulary (tokens and sha256), dimensions, and the label-index map.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import LABEL_INDEX, Vocabulary, write_atomic
from .crf import CrfParams, crf_tensors
from .encoder import EncoderDims, EncoderParams, encoder_tensors, init_params
from .errors import DataError

CHECKPOINT_MAGIC = b"KFCKPT01"

TENSOR_ORDER = (
    "embed",
    "lstm_fwd.Wx", "lstm_fwd.Wh", "lstm_fwd.b",
    "lstm_bwd.Wx", "lstm_bwd.Wh", "lstm_bwd.b",
    "proj.W", "proj.b",
    "crf.trans", "crf.start", "crf.end",
)


@dataclass
class Model:
    """The complete learnable state bound to one vocabulary."""

    encoder: EncoderParams
    crf: CrfParams
    vocab: Vocabulary

    @property
    def dims(self) -> EncoderDims:
        return self.encoder.dims

    def copy(self) -> "Model":
        return Model(encoder=self.encoder.copy(), crf=self.crf.copy(), vocab=self.vocab)


def init_model(vocab: Vocabulary, embed_dim: int, hidden_dim: int, seed) -> Model:
    """Fresh model: randomly initialized encoder, all-zero CRF scores."""
    dims = EncoderDims(vocab_size=len(vocab), embed_dim=embed_dim, hidden_dim=hidden_dim)
    return Model(encoder=init_params(dims, seed), crf=CrfParams.zeros(), vocab=vocab)


def model_tensors(model: Model) -> dict:
    """Canonical name -> array view over all trainable tensors."""
    tensors = {**encoder_tensors(model.encoder), **crf_tensors(model.crf)}
    return {name: tensors[name] for name in TENSOR_ORDER}


def checkpoint_bytes(model: Model) -> bytes:
    tensors = model_tensors(model)
    entries = {}
    offset = 0
    chunks = []
    for name in TENSOR_ORDER:
        raw = np.ascontiguousarray(tensors[name], dtype="<f8").tobytes()
        entries[name] = {
            "dtype": "f64",
            "shape": list(tensors[name].shape),
            "offset": offset,
            "length": len(raw),
        }
        chunks.append(raw)
        offset += len(raw)
    dims = model.dims
    header = {
        "tensors": entries,
        "vocab_sha256": model.vocab.sha256,
        "vocab_tokens": list(model.vocab.itos),
        "vocab_min_count": model.vocab.min_count,
        "dims": {
            "vocab_size": dims.vocab_size,
            "embed_dim": dims.embed_dim,
            "hidden_dim": dims.hidden_dim,
            "num_labels": dims.num_labels,
        },
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
    try:
        header = json.loads(blob[12 : 12 + head_len].decode("utf-8"))
        return _model_from(header, blob[12 + head_len :], path)
    except (KeyError, TypeError, ValueError) as exc:  # includes JSON and UTF-8 decode errors
        raise DataError(f"{path}: malformed checkpoint ({exc!r})") from exc


def _tensor_shapes(dims: EncoderDims) -> dict:
    """Shape of every tensor of a model of ``dims``, found without allocating its arrays."""
    encoder = EncoderParams.zeros(dims, fill=lambda shape: np.broadcast_to(0.0, shape))
    tensors = model_tensors(Model(encoder, CrfParams.zeros(), vocab=None))
    return {name: list(a.shape) for name, a in tensors.items()}


def _model_from(header: dict, payload: bytes, path) -> Model:
    dims = header["dims"]
    if (dims["num_labels"], dims["vocab_size"]) != (len(LABEL_INDEX), len(header["vocab_tokens"])):
        raise DataError(f"{path}: dims {dims} disagree with the labels or the vocabulary")
    sizes = EncoderDims(dims["vocab_size"], dims["embed_dim"], dims["hidden_dim"])
    shapes = _tensor_shapes(sizes)
    metas = header["tensors"]
    offset = 0
    for name in TENSOR_ORDER:
        meta = metas[name]
        if meta["dtype"] != "f64":
            raise DataError(f"{path}: tensor {name} has unsupported dtype {meta['dtype']}")
        if meta["shape"] != shapes[name]:
            raise DataError(f"{path}: tensor {name} has shape {meta['shape']}, not {shapes[name]}")
        if meta["offset"] != offset or meta["length"] != 8 * math.prod(meta["shape"]):
            raise DataError(f"{path}: tensor {name} has an inconsistent offset or length")
        offset += meta["length"]
    if len(payload) != offset:
        raise DataError(f"{path}: payload holds {len(payload)} bytes, its tensors {offset}")
    values = np.frombuffer(payload, dtype="<f8")
    if not np.isfinite(values).all():
        raise DataError(f"{path}: checkpoint holds non-finite tensor values")

    vocab = Vocabulary(
        itos=tuple(header["vocab_tokens"]), min_count=header.get("vocab_min_count", 1)
    )
    if vocab.sha256 != header["vocab_sha256"]:
        raise DataError(f"{path}: vocabulary hash mismatch")
    if header["labels"] != LABEL_INDEX:
        raise DataError(f"{path}: incompatible label-index map {header['labels']}")

    # every tensor checked against dims and the payload: fill a zero model of dims
    model = Model(encoder=EncoderParams.zeros(sizes), crf=CrfParams.zeros(), vocab=vocab)
    for name, arr in model_tensors(model).items():
        start = metas[name]["offset"] // 8
        arr[...] = values[start : start + arr.size].reshape(arr.shape)
    return model
