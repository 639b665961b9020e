import json
import struct

import numpy as np
import numpy.testing as npt
import pytest

from kpex import DataError, Dataset, Document, LabeledDocument, build_vocab, init_model
from kpex.model import (
    CHECKPOINT_MAGIC,
    TENSOR_ORDER,
    checkpoint_bytes,
    load_checkpoint,
    model_tensors,
    save_checkpoint,
)


@pytest.fixture
def model():
    docs = [
        LabeledDocument(doc=Document(id=f"d{i}", tokens=("alpha", "beta", f"tok{i}")),
                        labels=(0, 0, 0))
        for i in range(5)
    ]
    vocab = build_vocab(Dataset("t", docs))
    m = init_model(vocab, embed_dim=6, hidden_dim=4, seed=3)
    m.crf.trans[:] = np.arange(9).reshape(3, 3) * 0.1
    return m


def test_round_trip_restores_every_tensor(model, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    loaded = load_checkpoint(path)
    for name, arr in model_tensors(model).items():
        npt.assert_array_equal(arr, model_tensors(loaded)[name])
    assert loaded.vocab.itos == model.vocab.itos
    assert loaded.vocab.sha256 == model.vocab.sha256
    assert loaded.dims == model.dims


def test_serialization_is_byte_deterministic(model):
    assert checkpoint_bytes(model) == checkpoint_bytes(model)


def test_round_trip_preserves_bytes(model, tmp_path):
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    assert checkpoint_bytes(load_checkpoint(path)) == path.read_bytes()


def test_format_layout(model):
    blob = checkpoint_bytes(model)
    assert blob[:8] == CHECKPOINT_MAGIC
    (head_len,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12 : 12 + head_len])
    assert set(header["tensors"]) == set(TENSOR_ORDER)
    assert header["labels"] == {"O": 0, "B": 1, "I": 2}
    assert header["dims"]["embed_dim"] == 6
    total = sum(t["length"] for t in header["tensors"].values())
    assert len(blob) == 12 + head_len + total
    for name, meta in header["tensors"].items():
        assert meta["dtype"] == "f64"
        assert meta["length"] == 8 * int(np.prod(meta["shape"]))


def test_bad_magic_rejected(model, tmp_path):
    path = tmp_path / "m.ckpt"
    path.write_bytes(b"NOTACKPT" + checkpoint_bytes(model)[8:])
    with pytest.raises(DataError, match="magic"):
        load_checkpoint(path)


def test_vocab_hash_mismatch_rejected(model, tmp_path):
    blob = checkpoint_bytes(model)
    corrupted = blob.replace(model.vocab.sha256.encode(), b"0" * 64)
    path = tmp_path / "m.ckpt"
    path.write_bytes(corrupted)
    with pytest.raises(DataError, match="hash"):
        load_checkpoint(path)


def test_tensor_views_share_memory_with_model(model):
    tensors = model_tensors(model)
    tensors["crf.trans"][0, 0] = 42.0
    assert model.crf.trans[0, 0] == 42.0
    assert tuple(tensors) == TENSOR_ORDER


def _with_header(blob: bytes, edit) -> bytes:
    """Rewrite a checkpoint's JSON header through ``edit``, keeping the payload."""
    (head_len,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12 : 12 + head_len])
    edit(header)
    head = json.dumps(header).encode("utf-8")
    return blob[:8] + struct.pack("<I", len(head)) + head + blob[12 + head_len :]


def _shrink_proj_b(header):
    # one element fewer, same byte length: the length no longer matches the shape
    header["tensors"]["proj.b"]["shape"] = [2]


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda blob: blob[:10],
        lambda blob: blob[:-8],
        lambda blob: blob + bytes(8),
        lambda blob: blob[:12] + b"\xff" + blob[13:],
        lambda blob: _with_header(blob, _shrink_proj_b),
        lambda blob: _with_header(blob, lambda h: h.pop("vocab_tokens")),
    ],
    ids=[
        "short_header",
        "truncated_payload",
        "trailing_payload",
        "non_utf8_header",
        "length_not_shape",
        "missing_key",
    ],
)
def test_malformed_checkpoint_is_a_data_error(model, tmp_path, corrupt):
    path = tmp_path / "m.ckpt"
    path.write_bytes(corrupt(checkpoint_bytes(model)))
    with pytest.raises(DataError):
        load_checkpoint(path)
