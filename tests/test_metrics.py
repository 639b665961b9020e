import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import kpex.metrics
from kpex import (
    DataError,
    Dataset,
    Document,
    build_vocab,
    dataset_f1,
    evaluate,
    extract,
    gold_phrases,
    gen_synthetic,
    init_model,
    rank_phrases,
)
from kpex.corpus import PAD_TOKEN, UNK_TOKEN, Vocabulary, bio_to_phrases
from kpex.encoder import encode_forward, pack
from kpex.metrics import (
    MetricReport,
    PhrasePrediction,
    _pass_bytes,
    _passes,
    decode_batches,
    dedup_predictions,
    exact_f1,
    f1_at_k,
    rank_predictions,
)

from oracles import brute_force_crf, f1_reference
from peak_workspace import PeakWorkspace


def pred(phrase, start, conf):
    return PhrasePrediction(phrase=tuple(phrase), span=(start, start + len(phrase)), confidence=conf)


# -- exact_f1 ----------------------------------------------------------------


def test_partial_overlap():
    rep = exact_f1({("a", "b"), ("c",)}, {("c",), ("d",)})
    assert (rep.precision, rep.recall, rep.f1) == (0.5, 0.5, 0.5)


def test_perfect_match():
    rep = exact_f1({("a",), ("b", "c")}, {("b", "c"), ("a",)})
    assert rep.f1 == 1.0


def test_empty_prediction_convention():
    rep = exact_f1(set(), {("a",)})
    assert (rep.precision, rep.recall, rep.f1) == (0.0, 0.0, 0.0)


def test_comparison_is_case_folded():
    assert exact_f1({("Deep", "Learning")}, {("deep", "learning")}).f1 == 1.0


def test_swapping_sides_swaps_precision_and_recall():
    rng = np.random.default_rng(0)
    universe = [(f"w{i}",) for i in range(12)]
    for _ in range(50):
        a = {universe[i] for i in rng.choice(12, rng.integers(0, 8), replace=False)}
        b = {universe[i] for i in rng.choice(12, rng.integers(0, 8), replace=False)}
        fwd, rev = exact_f1(a, b), exact_f1(b, a)
        assert fwd.precision == rev.recall and fwd.recall == rev.precision
        assert fwd.f1 == pytest.approx(rev.f1)
        assert 0.0 <= fwd.f1 <= 1.0
        if fwd.precision > 0 and fwd.recall > 0:
            assert min(fwd.precision, fwd.recall) <= fwd.f1 <= max(fwd.precision, fwd.recall)


# -- ranking -----------------------------------------------------------------


def test_rank_by_confidence_descending():
    ranked = rank_predictions([pred("a", 0, 0.72), pred("b", 1, 0.9)])
    assert [p.confidence for p in ranked] == [0.9, 0.72]


def test_rank_tie_prefers_earlier_span():
    ranked = rank_predictions([pred("x", 7, 0.5), pred("y", 3, 0.5)])
    assert [p.span[0] for p in ranked] == [3, 7]


def test_rank_tie_prefers_shorter_phrase():
    ranked = rank_predictions([pred(("a", "b"), 2, 0.5), pred(("c",), 2, 0.5)])
    assert [len(p.phrase) for p in ranked] == [1, 2]


def test_rank_invariant_under_monotone_confidence_transforms():
    rng = np.random.default_rng(1)
    preds = [pred((f"w{i}",), int(rng.integers(0, 20)), float(c))
             for i, c in enumerate(rng.random(15))]
    preds += [pred(("t", "u"), 4, preds[0].confidence)]  # force one tie
    base = [p.phrase for p in rank_predictions(preds)]
    for transform in (np.exp, np.sqrt, lambda c: 3.0 * c + 2.0):
        mapped = [
            PhrasePrediction(p.phrase, p.span, float(transform(p.confidence))) for p in preds
        ]
        assert [p.phrase for p in rank_predictions(mapped)] == base


# -- de-duplication ----------------------------------------------------------


def test_dedup_keeps_highest_confidence_occurrence():
    deduped = dedup_predictions([pred("a", 0, 0.7), pred("a", 5, 0.9)])
    assert len(deduped) == 1
    assert deduped[0].confidence == 0.9
    assert deduped[0].span == (5, 6)


def test_dedup_tie_keeps_earliest_span():
    deduped = dedup_predictions([pred("a", 5, 0.7), pred("a", 0, 0.7)])
    assert deduped[0].span == (0, 1)


# -- f1_at_k -----------------------------------------------------------------


def test_truncation_uses_what_is_available():
    ranked = [pred("a", 0, 0.9), pred("b", 1, 0.8), pred("c", 2, 0.7)]
    rep = f1_at_k(ranked, {("a",), ("b",), ("c",)}, k=5)
    assert rep.f1 == 1.0
    assert rep.n_pred == 3


def test_perfect_top_k():
    ranked = [pred("a", 0, 0.9), pred("b", 1, 0.8)]
    assert f1_at_k(ranked, {("a",), ("b",)}, k=2).f1 == 1.0


def test_f1_at_k_matches_reference_recomputation():
    rng = np.random.default_rng(2)
    universe = [(f"w{i}",) for i in range(20)]
    for _ in range(100):
        n = int(rng.integers(0, 12))
        ranked = rank_predictions(
            [pred(universe[i], int(rng.integers(0, 30)), float(rng.random()))
             for i in rng.choice(20, n, replace=False)]
        )
        gold = {universe[i] for i in rng.choice(20, rng.integers(1, 8), replace=False)}
        for k in (5, 10, 15):
            rep = f1_at_k(ranked, gold, k)
            p, r, f1 = f1_reference({p.phrase for p in ranked[:k]}, gold)
            assert (rep.precision, rep.recall, rep.f1) == pytest.approx((p, r, f1))


def test_recall_non_decreasing_in_k_and_full_k_equals_exact():
    rng = np.random.default_rng(3)
    universe = [(f"w{i}",) for i in range(15)]
    for _ in range(25):
        ranked = rank_predictions(
            [pred(universe[i], i, float(rng.random()))
             for i in rng.choice(15, 8, replace=False)]
        )
        gold = {universe[i] for i in rng.choice(15, 5, replace=False)}
        recalls = [f1_at_k(ranked, gold, k).recall for k in (1, 2, 4, 8, 15)]
        assert recalls == sorted(recalls)
        full = f1_at_k(ranked, gold, len(ranked) + 3)
        exact = exact_f1({p.phrase for p in ranked}, gold)
        assert full == exact


# -- extraction on real models ----------------------------------------------


def test_zero_model_extracts_nothing(standard_corpus):
    from kpex import build_vocab, init_model
    from kpex.encoder import encoder_tensors

    train, _, _ = standard_corpus
    model = init_model(build_vocab(train), 16, 16, 0)
    for arr in encoder_tensors(model.encoder).values():
        arr[...] = 0.0
    phrases, spans, _ = extract(model, train[0])
    assert phrases == set() and spans == []


def test_trained_model_recovers_planted_phrases(trained_standard):
    exact = 0
    test = trained_standard.test
    for d in test:
        phrases, _, _ = extract(trained_standard.model, d)
        if phrases == gold_phrases(d):
            exact += 1
    assert exact >= 0.9 * len(test)


def test_micro_and_macro_dataset_scores(trained_standard):
    reports = evaluate(trained_standard.model, trained_standard.test)
    assert list(reports) == ["f1", "f1_macro"]
    micro, macro = reports["f1"], reports["f1_macro"]
    assert isinstance(micro, MetricReport) and isinstance(macro, MetricReport)
    assert micro.f1 >= 0.9 and macro.f1 >= 0.9
    assert micro == dataset_f1(trained_standard.model, trained_standard.test)


# -- one Viterbi decode per document -----------------------------------------


def test_extract_and_rank_agree_on_the_phrase_set(trained_standard):
    model = trained_standard.model
    for d in trained_standard.test:
        phrases, spans, _ = extract(model, d)
        assert phrases == {p.phrase for p in rank_phrases(model, d)}
        assert [span for span, _ in spans] == sorted(span for span, _ in spans)


def test_only_ranking_computes_marginals(trained_standard, monkeypatch):
    def no_marginals(*args, **kwargs):
        raise AssertionError("marginals computed outside ranking")

    model, test = trained_standard.model, trained_standard.test
    monkeypatch.setattr(kpex.metrics, "marginals", no_marginals)
    extract(model, test[0])
    dataset_f1(model, test)
    evaluate(model, test)
    with pytest.raises(AssertionError, match="outside ranking"):
        rank_phrases(model, test[0])


def _column_documents(token_ids, layout) -> list:
    """The token ids of each document that a pass holds, one per column."""
    return [tuple(column.tolist()) for column in layout.columns(token_ids)]


def test_evaluate_decodes_each_document_once(trained_standard, monkeypatch):
    model, test = trained_standard.model, trained_standard.test
    plain = evaluate(model, test)
    passes, documents = [], []
    forward = kpex.metrics.encode_forward

    def counting(params, token_ids, layout, **kwargs):
        assert kwargs["for_backward"] is False and set(kwargs) == {"for_backward", "work"}
        docs = _column_documents(token_ids, layout)
        held = _pass_bytes(model.dims, len(token_ids), len(set().union(*docs)), len(docs))
        assert held <= kpex.metrics.PASS_BYTES or len(docs) == 1
        passes.append((len(layout.steps), max(map(len, docs)), len(docs)))
        documents.extend(docs)
        return forward(params, token_ids, layout, **kwargs)

    monkeypatch.setattr(kpex.metrics, "encode_forward", counting)
    ranked = evaluate(model, test, k=5)
    assert sorted(documents) == sorted(tuple(model.vocab.encode(d.tokens).tolist()) for d in test)
    # documents share passes, and a pass takes as many serial steps as its longest document
    assert any(held > 1 for *_, held in passes)
    assert all(steps == longest for steps, longest, _ in passes)
    assert list(ranked) == ["f1", "f1_macro", "f1@5"]
    assert ranked["f1"] == plain["f1"] and ranked["f1_macro"] == plain["f1_macro"]
    assert ranked["f1@5"].n_pred <= ranked["f1"].n_pred


def test_evaluate_rejects_a_cutoff_below_one(trained_standard):
    with pytest.raises(ValueError, match="k must be >= 1"):
        evaluate(trained_standard.model, trained_standard.test, k=0)


# -- decode passes under the token budgets ----------------------------------------

_CORPUS = gen_synthetic(5, 60, vocab_size=40)
_VOCAB = build_vocab(_CORPUS)


def _random_model(seed):
    """A small untrained model whose emissions outweigh its random CRF scores,
    so that decoded paths hold phrases."""
    model = init_model(_VOCAB, 4, 3, seed)
    rng = np.random.default_rng(seed)
    model.encoder.embed[1:] = rng.normal(size=model.encoder.embed[1:].shape)  # row 0 is PAD
    model.encoder.proj_W *= 5
    for arr in (model.crf.trans, model.crf.start, model.crf.end):
        arr[...] = rng.normal(size=arr.shape)
    return model


@settings(derandomize=True, deadline=None, max_examples=12)
@given(
    lengths=st.lists(st.integers(1, 600), min_size=1, max_size=40),
    seed=st.integers(0, 2**32 - 1),
)
@example(lengths=[1, 1, 1, 257, 411], seed=41103)  # two long columns in one group
def test_batched_decode_returns_the_single_document_results(lengths, seed):
    model = _random_model(seed)
    rng = np.random.default_rng(seed)
    words = list(_VOCAB.itos)
    docs = [Document(f"d{i}", tuple(rng.choice(words, n))) for i, n in enumerate(lengths)]
    assert list(decode_batches(model, docs)) == [extract(model, d) for d in docs]
    for batched, d in zip(decode_batches(model, docs, rank=True), docs):
        single = rank_phrases(model, d)
        assert [(p.phrase, p.span) for p in batched] == [(p.phrase, p.span) for p in single]
        np.testing.assert_allclose(
            [p.confidence for p in batched], [p.confidence for p in single], rtol=1e-11, atol=0
        )


def test_the_byte_budget_splits_passes(monkeypatch):
    """A pass closes when its next document would take its modelled bytes over PASS_BYTES, a
    document over it by itself decodes alone, and the results are those of one document at a
    time."""
    model, rng = _random_model(7), np.random.default_rng(7)
    words = list(_VOCAB.itos)
    docs = [Document(f"d{i}", tuple(rng.choice(words, n))) for i, n in enumerate([3, 5, 9, 30, 8])]
    monkeypatch.setattr(kpex.metrics, "PASS_BYTES", 15_000)
    passes, forward = [], kpex.metrics.encode_forward

    def recording(params, token_ids, layout, **kwargs):
        passes.append(_column_documents(token_ids, layout))
        return forward(params, token_ids, layout, **kwargs)

    def held(documents):
        return _pass_bytes(model.dims, sum(map(len, documents)), len(set().union(*documents)),
                           len(documents))

    monkeypatch.setattr(kpex.metrics, "encode_forward", recording)
    batched = decode_batches(model, docs, rank=True)
    assert [len(p) for p in passes] == [1, 2, 2]  # 30 alone; 9 and 8; 5 and 3
    assert held(passes[0]) > 15_000  # the longest document comes first, alone
    assert all(held(p) <= 15_000 for p in passes[1:])
    assert all(held(p + q[:1]) > 15_000 for p, q in zip(passes, passes[1:]))
    for got, d in zip(batched, docs):
        single = rank_phrases(model, d)
        assert [(p.phrase, p.span) for p in got] == [(p.phrase, p.span) for p in single]
        np.testing.assert_allclose(
            [p.confidence for p in got], [p.confidence for p in single], rtol=1e-11, atol=0
        )


def _peak_and_paths(model, encoded) -> tuple[int, list]:
    """The peak bytes ``label_paths`` holds over ``encoded``, every pass's fresh arrays
    (tracemalloc) plus the most its workspace held, and its paths."""
    work = PeakWorkspace()
    traced, paths = work.traced(lambda: kpex.metrics.label_paths(model, encoded, work=work))
    return traced + work.peak, paths


def test_a_long_document_beside_many_one_token_documents_decodes_in_bounded_memory():
    """A pass holds packed rows only, never a padded (n_max, B) array: one 4,000-token document
    beside 4,000 one-token documents at 64/64 shares a pass with 340 of them within 10 MB."""
    model = init_model(_VOCAB, 64, 64, seed=1)
    rng = np.random.default_rng(2)
    long = rng.integers(1, len(_VOCAB), 4000)
    ids = rng.integers(1, len(_VOCAB), 4000)
    peak, paths = _peak_and_paths(model, [long, *(ids[i : i + 1] for i in range(len(ids)))])
    assert peak < 10 * 2**20
    alone = {i: kpex.metrics.label_paths(model, [np.array([i])])[0] for i in set(ids.tolist())}
    assert paths == kpex.metrics.label_paths(model, [long]) + [alone[i] for i in ids.tolist()]


def test_a_decode_pass_lays_its_documents_out_once(monkeypatch):
    """Per pass, one layout with one lengths check serves the forward, Viterbi and marginals, and
    every array passed to or returned from them has a row per real token or per document, never
    the (n_max, B) shape of a padded batch."""
    model, rng = _random_model(4), np.random.default_rng(4)
    encoded = [rng.integers(1, len(_VOCAB), n) for n in (7, 1, 12, 3, 12, 5)]
    longest = np.concatenate([encoded[i] for i in (2, 4, 0, 5)])
    budget = _pass_bytes(model.dims, len(longest), len(set(longest.tolist())), 4)
    monkeypatch.setattr(kpex.metrics, "PASS_BYTES", budget)  # passes of 12, 12, 7, 5 and of 3, 1
    checks, calls = [], []
    check_lengths = kpex.encoder.check_lengths
    monkeypatch.setattr(kpex.encoder, "check_lengths",
                        lambda *a: checks.append(len(calls)) or check_lengths(*a))
    for name in ("encode_forward", "viterbi", "marginals"):
        def spy(*args, fn=getattr(kpex.metrics, name), **kwargs):
            out = fn(*args, **kwargs)
            returned = out if isinstance(out, tuple) else (out,)
            calls.append((args[2], [a for a in (*args, *returned) if isinstance(a, np.ndarray)]))
            return out

        monkeypatch.setattr(kpex.metrics, name, spy)
    paths = kpex.metrics.label_paths(model, encoded, rank=True)
    assert [len(path) for path, _ in paths] == [7, 1, 12, 3, 12, 5]
    assert checks == [0, 3] and len(calls) == 6  # forward, Viterbi, marginals; twice
    for first in (0, 3):
        assert len({id(layout) for layout, _ in calls[first : first + 3]}) == 1
    for layout, arrays in calls:
        padded = (max(layout.lengths), len(layout.lengths))
        assert padded[0] != len(layout.t) and padded[1] > 1  # the shapes can be told apart
        for a in arrays:
            assert len(a) in (len(layout.t), len(layout.lengths)) and a.shape[:2] != padded


def test_many_short_documents_decode_in_bounded_memory():
    """A pass's step buffers grow with its documents, so the byte budget counts them: 8,192
    one-token documents at 64/64 make passes of 598 columns, not one pass of 8,192."""
    model = init_model(_VOCAB, 64, 64, seed=1)
    ids = np.random.default_rng(1).integers(1, len(_VOCAB), 8192)
    peak, paths = _peak_and_paths(model, [ids[i : i + 1] for i in range(len(ids))])
    assert peak < 10 * 2**20
    # a one-token document's path depends on its token alone
    alone = {i: kpex.metrics.label_paths(model, [np.array([i])])[0] for i in set(ids.tolist())}
    assert paths == [alone[i] for i in ids.tolist()]


def test_documents_of_distinct_tokens_decode_in_bounded_memory():
    """The input table's 2 x 4h words per distinct token count toward the byte budget: 80
    documents of 100 tokens, all 8,000 distinct, at 64/64 would hold 31 MB of table rows in one
    pass, and decode in passes within 10 MB."""
    vocab = Vocabulary((PAD_TOKEN, UNK_TOKEN, *(f"t{i}" for i in range(8000))))
    model = init_model(vocab, 64, 64, seed=1)
    encoded = np.split(np.random.default_rng(3).permutation(np.arange(2, len(vocab))), 80)
    peak, paths = _peak_and_paths(model, encoded)
    assert peak < 10 * 2**20
    assert paths == [kpex.metrics.label_paths(model, [ids])[0] for ids in encoded]


@pytest.mark.parametrize("rank", [False, True], ids=["paths", "rank"])
@pytest.mark.parametrize("dim", [64, 32])
def test_every_pass_holds_at_most_its_counted_bytes(dim, rank):
    """Each pass's fresh arrays (tracemalloc) plus the most its workspace holds stay within
    ``_pass_bytes``, on a low-repetition corpus whose passes the input table fills."""
    corpus = gen_synthetic(1, 300, vocab_size=20000)
    model = init_model(build_vocab(corpus), dim, dim, seed=1)
    encoded = [model.vocab.encode(d.tokens) for d in corpus]
    passes = _passes(model.dims, encoded)
    assert len(passes) > 2
    for docs in passes:
        ids, work = [encoded[i] for i in docs], PeakWorkspace()
        traced, _ = work.traced(lambda: kpex.metrics._decode_pass(model, ids, rank, work))
        distinct = len(set(np.concatenate(ids).tolist()))
        assert traced + work.peak <= _pass_bytes(model.dims, sum(map(len, ids)), distinct, len(ids))


@pytest.mark.parametrize("spread", [1e3, 1e10, 1e300])
def test_ranking_stays_finite_under_extreme_scores(spread):
    model, rng = _random_model(3), np.random.default_rng(3)
    model.encoder.proj_W *= 1e3 / np.abs(model.encoder.proj_W).max()  # emission spread 1e3
    cycle = np.array([[-1, 1, -1], [-1, -1, 1], [1, -1, -1]])  # O -> B -> I -> O decodes phrases
    model.crf.trans[...] = spread * (cycle + 0.1 * rng.uniform(-1, 1, (3, 3)))
    model.crf.start[...] = spread * np.array([-1, 1, -1])
    model.crf.end[...] = spread * rng.uniform(-1, 1, 3)
    words = list(_VOCAB.itos)
    for n in (2, 7, 15):
        ranked = rank_phrases(model, Document("d", tuple(words[1 : n + 1])))
        assert ranked
        assert all(np.isfinite(p.confidence) and 0 <= p.confidence <= 1 for p in ranked)


def test_ranked_confidences_are_brute_force_marginal_products():
    """Each ranked phrase's confidence is the product of the exhaustive posterior
    marginals of its decoded labels, through rank_phrases and a mixed-length batch."""
    words, phrases = list(_VOCAB.itos), 0
    for seed in range(6):  # mixed lengths up to 6, so that 3**n paths enumerate
        model = _random_model(seed)
        rng = np.random.default_rng(seed)
        docs = [Document(f"d{n}", tuple(rng.choice(words, n))) for n in (6, 1, 4, 2, 5, 3)]
        batched = decode_batches(model, docs, rank=True)
        for doc, ranked in [*zip(docs, batched), *((d, rank_phrases(model, d)) for d in docs)]:
            ids = model.vocab.encode(doc.tokens)
            emissions = encode_forward(model.encoder, ids, pack([len(ids)]))[0]
            oracle = brute_force_crf(emissions, model.crf.trans, model.crf.start, model.crf.end)
            labels = np.array(oracle["best_path"])
            spans = {span for span, _ in bio_to_phrases(doc.tokens, labels)}
            for p in ranked:
                s, e = p.span
                assert p.span in spans
                marg = oracle["marginals"][np.arange(s, e), labels[s:e]]
                assert p.confidence == pytest.approx(np.prod(marg), rel=1e-12, abs=0)
                assert p.confidence <= marg.min() * (1 + 1e-12)
            phrases += len(ranked)
    assert phrases > 0


def test_no_documents_decode_to_nothing(monkeypatch):
    def no_batch(*args, **kwargs):
        raise AssertionError("encode_forward called on no documents")

    monkeypatch.setattr(kpex.metrics, "encode_forward", no_batch)
    model = _random_model(0)
    assert list(decode_batches(model, [])) == []
    assert list(decode_batches(model, [], rank=True)) == []


def _no_decode(*args, **kwargs):
    raise AssertionError("decoded before the arguments were checked")


@pytest.mark.parametrize(
    "call",
    [
        lambda model: evaluate(model, Dataset("e", []), k=0),
        lambda model: evaluate(model, _CORPUS, k=True),
        lambda model: f1_at_k([pred(["a"], 0, 0.5)], {("a",)}, 2.5),
    ],
    ids=["zero_on_no_documents", "a_bool", "a_float"],
)
def test_a_cutoff_must_be_an_int_of_at_least_one_before_any_decode(call, monkeypatch):
    monkeypatch.setattr(kpex.metrics, "encode_forward", _no_decode)
    with pytest.raises(ValueError, match="k must be >= 1"):
        call(_random_model(0))


def test_evaluation_rejects_an_unlabeled_document_before_any_decode(monkeypatch):
    mixed = Dataset("mixed", [*_CORPUS.documents[:3], Document("plain", ("w001", "w002"))])
    monkeypatch.setattr(kpex.metrics, "encode_forward", _no_decode)
    for score in (evaluate, dataset_f1):
        with pytest.raises(DataError, match="'plain'"):
            score(_random_model(0), mixed)
