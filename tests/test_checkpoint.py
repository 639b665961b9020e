import hashlib
import json
import os
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kpex import (
    ConfigError,
    DataError,
    Dataset,
    Document,
    LabeledDocument,
    build_vocab,
    init_model,
)
from kpex.encoder import EncoderDims, OptimizerState, adam_step
from kpex.model import (
    CHECKPOINT_MAGIC,
    Model,
    checkpoint_bytes,
    load_checkpoint,
    model_tensors,
    save_checkpoint,
)

# the checkpoint's tensor order, spelled out here as an independent reference for the format
TENSOR_ORDER = (
    "embed",
    "lstm_fwd.Wx", "lstm_fwd.Wh", "lstm_fwd.b",
    "lstm_bwd.Wx", "lstm_bwd.Wh", "lstm_bwd.b",
    "proj.W", "proj.b",
    "crf.trans", "crf.start", "crf.end",
)


def _tiny_vocab():
    docs = [
        LabeledDocument(doc=Document(id=f"d{i}", tokens=("alpha", "beta", f"tok{i}")),
                        labels=(0, 0, 0))
        for i in range(5)
    ]
    return build_vocab(Dataset("t", docs))


def _tiny_model():
    m = init_model(_tiny_vocab(), embed_dim=6, hidden_dim=4, seed=3)
    m.crf.trans[:] = np.arange(9).reshape(3, 3) * 0.1
    return m


@pytest.fixture
def model():
    return _tiny_model()


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


def _fail_part_way_through_the_write(monkeypatch):
    write_bytes = Path.write_bytes

    def half_then_full_disk(self, data):
        write_bytes(self, data[: len(data) // 2])
        raise OSError("No space left on device")

    monkeypatch.setattr(Path, "write_bytes", half_then_full_disk)


def _fail_at_the_rename(monkeypatch):
    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)


@pytest.mark.parametrize("fail", [_fail_part_way_through_the_write, _fail_at_the_rename])
def test_a_failed_save_keeps_the_previous_checkpoint(model, tmp_path, monkeypatch, fail):
    path = tmp_path / "m.ckpt"
    save_checkpoint(model, path)
    before = path.read_bytes()
    model.crf.trans += 1.0
    fail(monkeypatch)
    with pytest.raises(ConfigError, match="cannot write"):
        save_checkpoint(model, path)
    assert path.read_bytes() == before
    assert list(tmp_path.iterdir()) == [path]


def test_format_layout(model):
    blob = checkpoint_bytes(model)
    assert blob[:8] == CHECKPOINT_MAGIC
    (head_len,) = struct.unpack("<I", blob[8:12])
    header = json.loads(blob[12 : 12 + head_len])
    assert list(header["tensors"]) == sorted(TENSOR_ORDER)  # the header's keys are sorted
    offsets = [header["tensors"][name]["offset"] for name in TENSOR_ORDER]
    assert offsets == sorted(offsets)
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


def test_every_tensor_is_a_contiguous_view_of_the_one_buffer(model):
    views = [*vars(model.encoder).values(), *vars(model.crf).values()]
    assert all(v.flags.c_contiguous and np.shares_memory(v, model.flat) for v in views)
    assert sum(v.size for v in views) == model.flat.size
    assert np.shares_memory(model.flat[: model.encoder.embed.size], model.encoder.embed)
    snapshot = model.copy()
    assert not np.shares_memory(snapshot.flat, model.flat)
    npt.assert_array_equal(snapshot.flat, model.flat)
    model.crf.end[:] = 5.0
    assert not np.any(snapshot.crf.end == 5.0)


def test_initial_checkpoint_bytes_are_pinned():
    # a change to the initial draws, their order or the checkpoint layout changes this digest
    blob = checkpoint_bytes(init_model(_tiny_vocab(), 8, 4, seed=0))
    assert hashlib.sha256(blob).hexdigest() == (
        "336bf694cd7e53eddb7c8c945db29cd253bdc7b49d5b3057702416d29d3fb8d5"
    )


def test_named_lstm_tensors_are_views_of_the_stacked_directions(model):
    enc = model.encoder
    stacks = {"Wx": enc.lstm_Wx, "Wh": enc.lstm_Wh, "b": enc.lstm_b}
    named = {
        (d, name): f"lstm_{direction}.{name}"
        for d, direction in enumerate(("fwd", "bwd"))
        for name in stacks
    }
    tensors = model_tensors(model)
    for (d, name), key in named.items():
        assert np.shares_memory(tensors[key], stacks[name])
        npt.assert_array_equal(tensors[key], stacks[name][d])

    before = {name: arr.copy() for name, arr in stacks.items()}
    grad = Model(model.dims, model.vocab)
    grad.flat[:] = 1.0
    adam_step(model, grad, OptimizerState(lr_lower=0.1, lr_upper=0.1))
    for d, name in named:
        # Adam's first step moves each coordinate by lr against the gradient's sign
        npt.assert_allclose(stacks[name][d], before[name][d] - 0.1, rtol=0, atol=1e-6)


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


def _transpose_proj_w(header):
    # same element count and byte length: only the dims can tell
    header["tensors"]["proj.W"]["shape"].reverse()


def _duplicate_vocab_token(header):
    # the hash still matches: only the uniqueness check can tell
    tokens = header["vocab_tokens"]
    tokens[-1] = tokens[2]
    header["vocab_sha256"] = hashlib.sha256("\n".join(tokens).encode("utf-8")).hexdigest()


def _uncased_vocab_token(header):
    # unique and hashed: only the case-folding check can tell that lookup never reaches it
    tokens = header["vocab_tokens"]
    tokens[-1] = tokens[-1].upper()
    header["vocab_sha256"] = hashlib.sha256("\n".join(tokens).encode("utf-8")).hexdigest()


@pytest.mark.parametrize(
    "corrupt",
    [
        lambda blob: blob[:10],
        lambda blob: blob[:-8],
        lambda blob: blob + bytes(8),
        lambda blob: blob[:12] + b"\xff" + blob[13:],
        lambda blob: _with_header(blob, _shrink_proj_b),
        lambda blob: _with_header(blob, lambda h: h.pop("vocab_tokens")),
        lambda blob: _with_header(blob, _transpose_proj_w),
        lambda blob: _with_header(blob, lambda h: h["dims"].update(vocab_size=99)),
        lambda blob: blob[:-8] + struct.pack("<d", float("nan")),
        lambda blob: _with_header(blob, _duplicate_vocab_token),
        lambda blob: _with_header(blob, _uncased_vocab_token),
    ],
    ids=[
        "short_header",
        "truncated_payload",
        "trailing_payload",
        "non_utf8_header",
        "length_not_shape",
        "missing_key",
        "shape_not_dims",
        "dims_not_vocab",
        "non_finite_value",
        "duplicate_vocab_token",
        "uncased_vocab_token",
    ],
)
def test_malformed_checkpoint_is_a_data_error(model, tmp_path, corrupt):
    path = tmp_path / "m.ckpt"
    path.write_bytes(corrupt(checkpoint_bytes(model)))
    with pytest.raises(DataError):
        load_checkpoint(path)


# -- property: only DataError escapes, or the model matches its dims ---------

_TINY = _tiny_model()
_BLOB = checkpoint_bytes(_TINY)
_RANKS = {name: arr.ndim for name, arr in model_tensors(_TINY).items()}


def _permute_shape(name, order):
    def edit(header):
        shape = header["tensors"][name]["shape"]
        header["tensors"][name]["shape"] = [shape[i] for i in order]

    return edit


def _set_dim(field, value):
    return lambda header: header["dims"].update({field: value})


_mutated_blobs = st.one_of(
    st.binary(max_size=600).map(lambda tail: CHECKPOINT_MAGIC + tail),
    st.sampled_from(TENSOR_ORDER).flatmap(
        lambda name: st.permutations(range(_RANKS[name])).map(
            lambda order: _with_header(_BLOB, _permute_shape(name, order))
        )
    ),
    st.tuples(
        st.sampled_from(["vocab_size", "embed_dim", "hidden_dim", "num_labels"]),
        st.one_of(
            st.integers(-3, 40), st.sampled_from([4.0, 6.0, None, "4", [4]]), st.floats(0, 10)
        ),
    ).map(lambda fv: _with_header(_BLOB, _set_dim(*fv))),
)


@pytest.fixture(scope="module")
def fuzz_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "m.ckpt"


@settings(derandomize=True, deadline=None, max_examples=200)
@given(blob=_mutated_blobs)
def test_loading_any_blob_yields_a_consistent_model_or_a_data_error(fuzz_path, blob):
    fuzz_path.write_bytes(blob)
    try:
        loaded = load_checkpoint(fuzz_path)
    except DataError:
        return
    (head_len,) = struct.unpack("<I", blob[8:12])
    dims = json.loads(blob[12 : 12 + head_len])["dims"]
    assert EncoderDims(**dims) == loaded.dims
    assert dims["vocab_size"] == len(loaded.vocab)
    reference = init_model(loaded.vocab, loaded.dims.embed_dim, loaded.dims.hidden_dim, seed=0)
    for name, arr in model_tensors(loaded).items():
        assert arr.shape == model_tensors(reference)[name].shape


@pytest.mark.parametrize("value", [2**31, 2**62, 2**64])
@pytest.mark.parametrize("field", ["vocab_size", "embed_dim", "hidden_dim"])
def test_huge_header_dims_are_a_data_error_without_allocating(tmp_path, field, value):
    path = tmp_path / "m.ckpt"
    path.write_bytes(_with_header(_BLOB, _set_dim(field, value)))
    tracemalloc.start()
    try:
        with pytest.raises(DataError):
            load_checkpoint(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
