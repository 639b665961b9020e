"""The packed batch against its B = 1 documents.

Every engine function takes a batch's packed rows and its layout; the
single-document oracle tests call it with B = 1, whose packed rows are the
document's own. These tests tie the two together on a batch of mixed lengths,
a one-token document included, and hold the CRF to the zero-padded
``(n_max, B)`` batch it once ran over, kept as the padded oracles.
"""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import one_doc
from kpex import encoder
from kpex.crf import (
    CrfParams,
    crf_tensors,
    log_partition,
    marginals,
    nll_and_grad,
    sequence_score,
    viterbi,
)
from kpex.encoder import EncoderDims, encode_backward, encode_forward, init_params, pack

from oracles import padded_forward_backward, padded_nll_and_grad, padded_viterbi, relative_error

DIMS = EncoderDims(vocab_size=12, embed_dim=5, hidden_dim=4)
LENGTHS = [5, 1, 9, 3, 9, 2]


def _random_crf(rng):
    return CrfParams(rng.normal(size=(3, 3)), rng.normal(size=3), rng.normal(size=3))


def _batch(seed=0):
    rng = np.random.default_rng(seed)
    docs = [rng.integers(1, DIMS.vocab_size, n) for n in LENGTHS]
    golds = [rng.integers(0, 3, n) for n in LENGTHS]
    return init_params(DIMS, seed), _random_crf(rng), docs, golds


def _packed(layout, padded) -> np.ndarray:
    """The packed rows of a zero-padded ``(n_max, B, ...)`` batch."""
    return layout.rows([padded[:n, b] for b, n in enumerate(layout.lengths)])


def _padded(layout, packed) -> np.ndarray:
    """Packed rows as the zero-padded ``(n_max, B, ...)`` batch of the padded oracles."""
    out = np.zeros((layout.lengths.max(), len(layout.lengths), *packed.shape[1:]), packed.dtype)
    for b, column in enumerate(layout.columns(packed)):
        out[: len(column), b] = column
    return out


def _gradients(params, crf, docs, golds):
    layout = pack([len(doc) for doc in docs])
    emissions, cache = encode_forward(params, layout.rows(docs), layout)
    losses, d_emissions, d_crf = nll_and_grad(emissions, crf, layout.rows(golds), layout)
    return losses, {**encode_backward(params, cache, d_emissions), **crf_tensors(d_crf)}


def test_rows_and_columns_convert_between_documents_and_packed_rows():
    layout = pack([2, 1, 3])
    ids = layout.rows([[3, 4], [5], [6, 7, 8]])
    npt.assert_array_equal(ids, [6, 3, 5, 7, 4, 8])  # step-major, longest first
    assert [c.tolist() for c in layout.columns(ids)] == [[3, 4], [5], [6, 7, 8]]
    scores = np.arange(18.0).reshape(6, 3)
    npt.assert_array_equal(layout.rows(layout.columns(scores)), scores)
    npt.assert_array_equal(pack([3]).rows([[6, 7, 8]]), [6, 7, 8])  # B = 1: reading order
    with pytest.raises(ValueError, match="lengths"):
        layout.rows([[3], [5], [6, 7, 8]])


def _assert_gradients_are_single_document_sums(params, crf, docs, golds):
    losses, batched = _gradients(params, crf, docs, golds)
    summed = {name: np.zeros_like(g) for name, g in batched.items()}
    for b, (doc, y) in enumerate(zip(docs, golds)):
        emissions, cache = one_doc.encode_forward(params, doc)
        loss, d_emissions, d_crf = one_doc.nll_and_grad(emissions, crf, y)
        assert abs(loss - losses[b]) <= 1e-12 * abs(loss)
        for name, g in {**one_doc.encode_backward(params, cache, d_emissions),
                        **crf_tensors(d_crf)}.items():
            summed[name] += g
    for name, g in batched.items():
        assert relative_error(g, summed[name]) <= 1e-12, name


def _assert_viterbi_matches_single_documents(emissions, crf, layout):
    paths, scores = viterbi(emissions, crf, layout)
    paths = layout.columns(paths)
    for b, scores_b in enumerate(layout.columns(emissions)):
        path, score = one_doc.viterbi(scores_b, crf)
        npt.assert_array_equal(paths[b], path)
        assert scores[b] == score
    return paths


ASCENDING = np.argsort(LENGTHS, kind="stable")
SHUFFLED = np.random.default_rng(9).permutation(len(LENGTHS))
# the layout ranks columns by length inside; no order may leak out
ORDERS = (range(len(LENGTHS)), ASCENDING, ASCENDING[::-1], SHUFFLED)


def test_batched_gradients_equal_the_sum_of_single_document_gradients():
    params, crf, docs, golds = _batch()
    for order in ORDERS:
        _assert_gradients_are_single_document_sums(
            params, crf, [docs[b] for b in order], [golds[b] for b in order]
        )


def _assert_a_forward_without_cache_gives_the_same_bits():
    params, _, docs, _ = _batch(2)
    batches = [[docs[b] for b in order] for order in ORDERS] + [[doc] for doc in docs]  # B = 1
    for batch in batches:
        layout = pack([len(doc) for doc in batch])
        ids = layout.rows(batch)
        kept, _ = encode_forward(params, ids, layout)
        emissions, cache = encode_forward(params, ids, layout, for_backward=False)
        assert np.array_equal(emissions, kept) and cache.h is None  # a decode keeps no states


def test_a_forward_without_cache_gives_the_same_bits():
    _assert_a_forward_without_cache_gives_the_same_bits()


def test_a_forward_without_cache_gives_the_same_bits_over_several_blocks(monkeypatch):
    """With blocks of 3 packed rows a decode projects most blocks from its ring of states, and a
    step of 6 columns fills more than one of them."""
    monkeypatch.setattr(encoder, "BLOCK_ROWS", 3)
    _assert_a_forward_without_cache_gives_the_same_bits()


def test_the_cache_holds_real_positions_only():
    params, _, docs, _ = _batch()
    layout = pack(LENGTHS)
    emissions, cache = encode_forward(params, layout.rows(docs), layout)
    rows, h = sum(LENGTHS), DIMS.hidden_dim
    assert emissions.shape == (rows, 3) and cache.layout is layout
    assert cache.gates.shape == (rows, 2, 4 * h)
    assert cache.c.shape == cache.h.shape == (rows, 2, h)
    assert layout.t.shape == layout.col.shape == layout.mirror.shape == (rows,)
    # step-major: each packed step's rows of both directions are one contiguous block
    for step, *_ in layout.steps:
        for name in ("gates", "c", "h"):
            assert getattr(cache, name)[step].flags.c_contiguous, (name, step)
    # a decode keeps the ids and the layout, and no gates, cells or states
    _, cache = encode_forward(params, layout.rows(docs), layout, for_backward=False)
    assert cache.gates is None and cache.c is None and cache.h is None
    assert cache.token_ids.shape == (rows,) and cache.layout is layout


@pytest.mark.parametrize("crf_seed", [None, 5])
def test_batched_viterbi_paths_are_the_single_document_paths(crf_seed):
    rng = np.random.default_rng(6)
    crf = CrfParams.zeros() if crf_seed is None else _random_crf(np.random.default_rng(crf_seed))
    layout = pack(LENGTHS)
    docs = [rng.normal(size=(n, 3)) for n in LENGTHS]
    docs[2][...] = 0.0  # the longest column is a total tie under the zero CRF
    paths = _assert_viterbi_matches_single_documents(layout.rows(docs), crf, layout)
    if crf_seed is None:
        npt.assert_array_equal(paths[2], 0)


def test_batched_marginals_and_log_partition_match_single_documents():
    rng = np.random.default_rng(7)
    crf = _random_crf(rng)
    layout = pack(LENGTHS)
    docs = [rng.normal(size=(n, 3)) for n in LENGTHS]
    probs = layout.columns(marginals(layout.rows(docs), crf, layout))
    log_z = log_partition(layout.rows(docs), crf, layout)
    for b, doc in enumerate(docs):
        npt.assert_allclose(probs[b], one_doc.marginals(doc, crf), rtol=1e-12)
        assert abs(log_z[b] - one_doc.log_partition(doc, crf)) <= 1e-12 * abs(log_z[b])


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    lengths=st.lists(st.integers(1, 30), min_size=1, max_size=12),
    hidden=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_any_length_mix_batches_as_its_single_documents(lengths, hidden, seed):
    rng = np.random.default_rng(seed)
    params = init_params(EncoderDims(DIMS.vocab_size, DIMS.embed_dim, hidden), rng)
    crf = _random_crf(rng)
    docs = [rng.integers(1, DIMS.vocab_size, n) for n in lengths]
    golds = [rng.integers(0, 3, n) for n in lengths]
    _assert_gradients_are_single_document_sums(params, crf, docs, golds)
    layout = pack(lengths)
    emissions, _ = encode_forward(params, layout.rows(docs), layout)
    _assert_viterbi_matches_single_documents(emissions, crf, layout)


def test_long_and_short_columns_raise_no_overflow():
    """A short column beside a long one never meets exp with the long one's growing scores."""
    rng = np.random.default_rng(8)
    crf = _random_crf(rng)
    layout = pack([300, 2])
    docs = [rng.normal(size=(n, 3)) for n in (300, 2)]
    golds = [rng.integers(0, 3, n) for n in (300, 2)]
    with np.errstate(over="raise"):
        probs = marginals(layout.rows(docs), crf, layout)
        losses, d_emissions, d_crf = nll_and_grad(layout.rows(docs), crf, layout.rows(golds), layout)
    for b, (doc, gold, p, d) in enumerate(zip(docs, golds, layout.columns(probs),
                                               layout.columns(d_emissions))):
        npt.assert_allclose(p, one_doc.marginals(doc, crf), rtol=1e-12)
        loss, d_col, _ = one_doc.nll_and_grad(doc, crf, gold)
        assert abs(losses[b] - loss) <= 1e-12 * abs(loss)
        npt.assert_allclose(d, d_col, rtol=1e-12, atol=1e-15)
    assert np.all(np.isfinite(d_crf.trans))


@pytest.mark.parametrize("lengths", [[0, 2], [3, 2], [2], []])
def test_lengths_must_fit_the_batch(lengths):
    """Lengths of at least one token each, summing to the packed rows given with them."""
    with pytest.raises(ValueError, match="length"):
        encode_forward(init_params(DIMS, 0), np.ones(4, dtype=np.int64), pack(lengths))
    with pytest.raises(ValueError, match="length"):
        viterbi(np.zeros((4, 3)), CrfParams.zeros(), pack(lengths))


_IDS, _SCORES = np.array([1, 2]), np.zeros((3, 3))
_INTEGERS = "{}.* must be integers"
_IN_RANGE = r"{}.* must be in \[0, 3\), got \[{}\]"


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda p: encode_forward(p, np.array([1.7, 2.2]), pack([2])), _INTEGERS.format("token ids")),
        (lambda p: encode_forward(p, np.array([True, False]), pack([2])), _INTEGERS.format("token ids")),
        (lambda p: encode_forward(p, _IDS, pack([1.9])), _INTEGERS.format("lengths")),
        (lambda p: encode_forward(p, _IDS, pack([True])), _INTEGERS.format("lengths")),
        (lambda p: viterbi(_SCORES, CrfParams.zeros(), pack([2.5])), _INTEGERS.format("lengths")),
        (lambda p: nll_and_grad(_SCORES, CrfParams.zeros(), [0.9, 1.2, 2.7], pack([3])),
         _INTEGERS.format("gold")),
        (lambda p: nll_and_grad(_SCORES, CrfParams.zeros(), np.ones(3, bool), pack([3])),
         _INTEGERS.format("gold")),
        (lambda p: sequence_score(_SCORES, CrfParams.zeros(), [0.0, 1.0, 2.0], pack([3])),
         _INTEGERS.format("labels")),
        # once read as label 2 at a non-first position, and numpy's or an IndexError elsewhere
        (lambda p: nll_and_grad(_SCORES, CrfParams.zeros(), [0, -1, 1], pack([3])),
         _IN_RANGE.format("gold labels", -1)),
        (lambda p: sequence_score(_SCORES, CrfParams.zeros(), [0, -1, 1], pack([3])),
         _IN_RANGE.format("labels", -1)),
        (lambda p: nll_and_grad(_SCORES, CrfParams.zeros(), [-1, 0, 1], pack([3])),
         _IN_RANGE.format("gold labels", -1)),
        (lambda p: nll_and_grad(_SCORES, CrfParams.zeros(), [0, 3, 1], pack([3])),
         _IN_RANGE.format("gold labels", 3)),
    ],
    ids=["float_ids", "bool_ids", "float_length", "bool_length", "viterbi_float_length",
         "float_gold", "bool_gold", "float_labels", "negative_gold", "negative_labels",
         "negative_first_gold", "gold_past_the_labels"],
)
def test_ids_lengths_and_labels_must_be_integers_not_truncated(call, message):
    with pytest.raises(ValueError, match=message):
        call(init_params(DIMS, 0))


# -- packed rows: the columns still running, longest first ---------------------

MIXES = st.lists(st.integers(1, 9), min_size=1, max_size=8)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(lengths=MIXES)
@example(lengths=[1, 5, 1, 3])
def test_pack_mirrors_each_column_within_its_length(lengths):
    layout = pack(lengths)
    lengths, batch = np.array(lengths), len(lengths)
    t, col, mirror, off = layout.t, layout.col, layout.mirror, layout.off
    npt.assert_array_equal(mirror[mirror], np.arange(len(t)))  # an involution
    npt.assert_array_equal(col[mirror], col)
    npt.assert_array_equal(t[mirror], lengths[col] - 1 - t)
    assert sorted(zip(t.tolist(), col.tolist())) == [
        (pos, b) for pos in range(lengths.max()) for b in range(batch) if pos < lengths[b]
    ]
    for s, (start, stop) in enumerate(zip(off, off[1:])):  # step s: the first ranks of s - 1's
        npt.assert_array_equal(t[start:stop], s)
        if s:
            npt.assert_array_equal(col[start:stop], col[off[s - 1] : off[s - 1] + stop - start])
    npt.assert_array_equal(col[layout.prev], col[batch:])
    npt.assert_array_equal(t[layout.prev], t[batch:] - 1)
    npt.assert_array_equal(col[layout.first], np.arange(batch))
    npt.assert_array_equal(t[layout.first], 0)
    npt.assert_array_equal(col[layout.last], np.arange(batch))
    npt.assert_array_equal(t[layout.last], lengths - 1)
    assert [(rows.start, rows.stop) for rows, _ in layout.steps] == list(zip(off, off[1:]))
    assert [ends for _, ends in layout.steps] == np.bincount(lengths - 1).tolist()


@settings(derandomize=True, deadline=None, max_examples=100)
@given(
    lengths=st.lists(st.integers(1, 30), min_size=1, max_size=40),
    ties=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@example(lengths=[1], ties=False, seed=0)
@example(lengths=[1, 1, 4, 1, 9, 1], ties=True, seed=1)
def test_the_packed_crf_is_the_padded_crf_bit_for_bit(lengths, ties, seed):
    """Paths, scores, marginals, log Z, losses and every gradient equal the padded batch's, whose
    padding rows hold junk, and with integer scores, whose ties make the argmax order show."""
    rng = np.random.default_rng(seed)
    lengths, layout = np.array(lengths), pack(lengths)
    emissions = rng.normal(size=(lengths.max(), len(lengths), 3))
    crf = _random_crf(rng)
    if ties:
        emissions, crf = np.round(emissions), CrfParams(*map(np.round, vars(crf).values()))
    gold = rng.integers(0, 3, emissions.shape[:2])
    packed, y = _packed(layout, emissions), _packed(layout, gold)
    paths, scores = viterbi(packed, crf, layout)
    ref_paths, ref_scores = padded_viterbi(emissions, crf, lengths)
    npt.assert_array_equal(_padded(layout, paths), ref_paths)
    npt.assert_array_equal(scores, ref_scores)
    _, _, log_z, _, probs = padded_forward_backward(emissions, crf, lengths)
    npt.assert_array_equal(_padded(layout, marginals(packed, crf, layout)), probs)
    npt.assert_array_equal(log_partition(packed, crf, layout), log_z)
    losses, d_emissions, d_crf = nll_and_grad(packed, crf, y, layout)
    ref_losses, ref_d_emissions, ref_d_crf = padded_nll_and_grad(emissions, crf, gold, lengths)
    npt.assert_array_equal(losses, ref_losses)
    npt.assert_array_equal(_padded(layout, d_emissions), ref_d_emissions)
    for got, want in zip((d_crf.trans, d_crf.start, d_crf.end), ref_d_crf):
        npt.assert_array_equal(got, want)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(lengths=MIXES, seed=st.integers(0, 2**32 - 1))
def test_decode_emissions_are_the_single_document_emissions(lengths, seed):
    """Also with blocks of 4 packed rows, so that the decode's ring of states wraps."""
    rng = np.random.default_rng(seed)
    params = init_params(DIMS, rng)
    docs = [rng.integers(1, DIMS.vocab_size, n) for n in lengths]
    layout = pack(lengths)
    for block in (encoder.BLOCK_ROWS, 4):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(encoder, "BLOCK_ROWS", block)
            emissions, _ = encode_forward(params, layout.rows(docs), layout, for_backward=False)
        for doc, column in zip(docs, layout.columns(emissions)):
            alone, _ = one_doc.encode_forward(params, doc)
            npt.assert_allclose(column, alone, rtol=1e-12, atol=1e-14)
