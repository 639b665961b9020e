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
the vocabulary (tokens and sha256), dimensions, and the label-index map; one
function, ``_header``, builds it from a model, and a file's header must equal,
as JSON, the one that its vocabulary and dims give (its vocabulary tokens are compared as
the list of strings they are). The payload holds the
tensors in :func:`model_tensors` order, where each LSTM direction's ``Wx``,
``Wh`` and ``b`` follow one another (``lstm_fwd.*``, then ``lstm_bwd.*``): the
offsets of ``_header`` are the only place this order lives.
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
        offsets = [0, *accumulate(map(math.prod, shapes))]
        self.dims, self.vocab = dims, vocab
        self.flat = np.zeros(offsets[-1]) if flat is None else flat
        views = [self.flat[a:b].reshape(s) for a, b, s in zip(offsets, offsets[1:], shapes)]
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


def _header(model: Model, tensors: dict) -> dict:
    """The checkpoint header of ``model``, whose :func:`model_tensors` are ``tensors``: each
    tensor's dtype, shape, payload offset and byte length, the vocabulary, the dims and the
    label-index map. The writer writes it; the reader requires a file's header to equal it."""
    entries, offset = {}, 0
    for name, arr in tensors.items():
        entries[name] = {"dtype": "f64", "shape": list(arr.shape), "offset": offset,
                         "length": 8 * arr.size}
        offset += 8 * arr.size
    vocab = model.vocab
    return {"tensors": entries, "vocab_sha256": vocab.sha256, "vocab_tokens": list(vocab.itos),
            "vocab_min_count": vocab.min_count, "dims": asdict(model.dims), "labels": LABEL_INDEX}


def _text(value) -> str:
    """``value`` as a header is written: JSON, keys sorted, no spaces. Unlike ``==``, the text
    tells ``1.0`` and ``true`` from ``1``."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"))


def checkpoint_bytes(model: Model) -> bytes:
    tensors = model_tensors(model)
    head = _text(_header(model, tensors)).encode("utf-8")
    payload = b"".join(np.ascontiguousarray(t, dtype="<f8").tobytes() for t in tensors.values())
    return CHECKPOINT_MAGIC + struct.pack("<I", len(head)) + head + payload


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
    vocab = Vocabulary(tuple(header["vocab_tokens"]), header.setdefault("vocab_min_count", 1))
    if not all(type(dims[k]) is int and dims[k] >= 1 for k in ("embed_dim", "hidden_dim")):
        raise DataError(f"{path}: dims {dims} need embed_dim and hidden_dim as integers >= 1")
    sizes = EncoderDims(len(vocab), dims["embed_dim"], dims["hidden_dim"])
    expected = 8 * sum(map(math.prod, _shapes(sizes)))  # checked before a buffer is sized
    if len(payload) != expected:
        raise DataError(f"{path}: payload holds {len(payload)} bytes, its dims {expected}")

    model = Model(sizes, vocab)
    tensors = model_tensors(model)
    want = _header(model, tensors)
    # the tokens are the strings Vocabulary has checked, so == is exact and writes no JSON
    rest = [{k: v for k, v in h.items() if k != "vocab_tokens"} for h in (header, want)]
    if header["vocab_tokens"] != want["vocab_tokens"] or _text(rest[0]) != _text(rest[1]):
        raise DataError(f"{path}: header {_differing(header, want)} is not what its vocabulary "
                        "and dims give")
    for arr, entry in zip(tensors.values(), want["tensors"].values()):
        arr[...] = np.frombuffer(payload, "<f8", arr.size, entry["offset"]).reshape(arr.shape)
    if not np.isfinite(model.flat).all():
        raise DataError(f"{path}: checkpoint holds non-finite tensor values")
    return model


# what a mismatch message calls each header key
_HEADER_KEYS = {"dims": "the model dimensions", "labels": "the label-index map",
                "tensors": "the tensor table", "vocab_min_count": "the vocabulary's min_count",
                "vocab_sha256": "the vocabulary hash", "vocab_tokens": "the vocabulary tokens"}


def _differing(found: dict, want: dict) -> str:
    """Where two unequal headers first differ, in sorted key order: a tensor's entry or a key."""
    def first(a: dict, b: dict) -> str:
        return next(k for k in sorted(a.keys() | b.keys())
                    if k not in a or k not in b or _text(a[k]) != _text(b[k]))

    key = first(found, want)
    if key == "tensors" and isinstance(found[key], dict):
        return f"entry of tensor {first(found[key], want[key])}"
    return f"key {key} ({_HEADER_KEYS.get(key, 'not one the writer writes')})"
