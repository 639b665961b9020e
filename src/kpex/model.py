"""Full model state (encoder + CRF + vocabulary) and its checkpoint format.

In memory, every parameter lives in one float64 buffer, ``Model.flat``, laid out from the
dimensions as ``embed`` ``(V, e)``, ``lstm_Wx`` ``(2, 4h, e)``, ``lstm_Wh`` ``(2, 4h, h)``,
``lstm_b`` ``(2, 4h)``, ``proj_W`` ``(L, 2h)``, ``proj_b`` ``(L,)``, then ``crf.trans``
``(L, L)``, ``crf.start`` and ``crf.end`` ``(L,)``; the encoder's and the CRF's tensors are
C-contiguous views into it, the LSTM ones stacked by direction on axis 0. A gradient, the
Adam moments and a snapshot are buffers of the same layout.

Checkpoint layout: the 8-byte magic ``KFCKPT02``, a little-endian u32 header length, the
header as UTF-8 JSON (keys sorted, no spaces) holding ``dims``, ``labels`` (the label-index
map), ``vocab_min_count``, ``vocab_sha256`` and ``vocab_tokens``, then ``Model.flat`` as
little-endian float64, so the dims give the payload's length and every tensor's place in
it. One function, ``_header``, builds the header, and a file's header must equal, as JSON,
the one that its vocabulary and dims give (its vocabulary tokens are compared as the list
of strings they are).
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

CHECKPOINT_MAGIC = b"KFCKPT02"


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
    """Canonical name -> array view over all trainable tensors, each LSTM direction under its
    own name (``lstm_fwd.*``, then ``lstm_bwd.*``)."""
    return {**encoder_tensors(model.encoder), **crf_tensors(model.crf)}


def _header(dims: EncoderDims, vocab: Vocabulary) -> dict:
    """The checkpoint header of a model of these dims and vocabulary. The writer writes it;
    the reader requires a file's header to equal it."""
    return {"dims": asdict(dims), "labels": LABEL_INDEX, "vocab_min_count": vocab.min_count,
            "vocab_sha256": vocab.sha256, "vocab_tokens": list(vocab.itos)}


def _text(value) -> str:
    """``value`` as a header is written: JSON, keys sorted, no spaces, non-ASCII text raw.
    Unlike ``==``, the text tells ``1.0`` and ``true`` from ``1``."""
    return json.dumps(value, sort_keys=True, separators=(",", ":"), ensure_ascii=False)


def checkpoint_bytes(model: Model) -> bytes:
    head = _text(_header(model.dims, model.vocab)).encode("utf-8")
    payload = model.flat.astype("<f8", copy=False).tobytes()
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
    vocab = Vocabulary(tuple(header["vocab_tokens"]), header["vocab_min_count"])
    if not all(type(dims[k]) is int and dims[k] >= 1 for k in ("embed_dim", "hidden_dim")):
        raise DataError(f"{path}: dims {dims} need embed_dim and hidden_dim as integers >= 1")
    sizes = EncoderDims(len(vocab), dims["embed_dim"], dims["hidden_dim"])
    expected = 8 * sum(map(math.prod, _shapes(sizes)))  # checked before a buffer is sized
    if len(payload) != expected:
        raise DataError(f"{path}: payload holds {len(payload)} bytes, its dims {expected}")

    want = _header(sizes, vocab)
    # the tokens are the strings Vocabulary has checked, so == is exact and writes no JSON
    rest = [{k: v for k, v in h.items() if k != "vocab_tokens"} for h in (header, want)]
    if header["vocab_tokens"] != want["vocab_tokens"] or _text(rest[0]) != _text(rest[1]):
        raise DataError(f"{path}: header {_differing(header, want)} is not what its vocabulary "
                        "and dims give")
    flat = np.frombuffer(payload, "<f8").astype(np.float64)
    if not np.isfinite(flat).all():
        raise DataError(f"{path}: checkpoint holds non-finite tensor values")
    return Model(sizes, vocab, flat)


# what a mismatch message calls each header key
_HEADER_KEYS = {"dims": "the model dimensions", "labels": "the label-index map",
                "vocab_min_count": "the vocabulary's min_count",
                "vocab_sha256": "the vocabulary hash", "vocab_tokens": "the vocabulary tokens"}


def _differing(found: dict, want: dict) -> str:
    """The first key, in sorted order, where two unequal headers differ."""
    key = next(k for k in sorted(found.keys() | want.keys())
               if k not in found or k not in want or _text(found[k]) != _text(want[k]))
    return f"key {key} ({_HEADER_KEYS.get(key, 'not one the writer writes')})"
