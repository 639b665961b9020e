import tracemalloc

import numpy as np
import pytest

from kpex import (
    DataError,
    Dataset,
    Document,
    LabeledDocument,
    build_vocab,
    gen_synthetic,
    load_jsonl,
    save_jsonl,
)
from kpex.corpus import (
    LABEL_B,
    LABEL_I,
    LABEL_O,
    MAX_SYNTH,
    UNK_INDEX,
    Vocabulary,
    bio_to_phrases,
    keyphrases_to_bio,
    make_synthetic_rule,
    sample_batch,
)

from oracles import leftmost_longest_spans

B, I, O = LABEL_B, LABEL_I, LABEL_O


def doc(*tokens):
    return Document(id="d", tokens=tokens)


# -- keyphrases_to_bio -------------------------------------------------------


def test_single_exact_match():
    labels = keyphrases_to_bio(
        ["neural", "keyphrase", "extraction", "works"], {("keyphrase", "extraction")}
    )
    assert labels == [O, B, I, O]


def test_leftmost_match_consumes_overlap():
    assert keyphrases_to_bio(["a", "b", "c"], {("a", "b"), ("b", "c")}) == [B, I, O]


def test_absent_phrase_yields_all_o():
    assert keyphrases_to_bio(["a", "b"], {("z",)}) == [O, O]


def test_longest_match_wins_at_same_position():
    assert keyphrases_to_bio(["a", "b", "c"], {("a",), ("a", "b", "c")}) == [B, I, I]


def test_matching_is_case_folded():
    assert keyphrases_to_bio(["Deep", "Learning"], {("deep", "learning")}) == [B, I]


# -- bio_to_phrases ----------------------------------------------------------


def test_span_recovery():
    assert bio_to_phrases(["w", "x", "y", "z"], [O, B, I, O]) == [((1, 3), ("x", "y"))]


def test_orphan_i_promoted():
    assert bio_to_phrases(["a", "b", "c"], [I, O, B]) == [
        ((0, 1), ("a",)),
        ((2, 3), ("c",)),
    ]


def test_all_o_is_empty():
    assert bio_to_phrases(["a", "b"], [O, O]) == []


def test_adjacent_b_starts_new_phrase():
    assert bio_to_phrases(["a", "b", "c"], [B, B, I]) == [
        ((0, 1), ("a",)),
        ((1, 3), ("b", "c")),
    ]


def test_spans_cover_exactly_the_labeled_tokens():
    rng = np.random.default_rng(5)
    for _ in range(100):
        n = int(rng.integers(1, 15))
        labels = [int(l) for l in rng.integers(0, 3, n)]
        tokens = [f"t{i}" for i in range(n)]
        spans = bio_to_phrases(tokens, labels)
        # non-overlapping, ordered, and the phrase tokens are the labeled ones
        flat = [i for (s, e), _ in spans for i in range(s, e)]
        assert flat == sorted(set(flat))
        assert set(flat) == {i for i, l in enumerate(labels) if l != O}
        for (s, e), phrase in spans:
            assert phrase == tuple(tokens[s:e])


# -- round trip --------------------------------------------------------------


def _random_case(rng):
    n = int(rng.integers(1, 30))
    alphabet = [f"v{i}" for i in range(int(rng.integers(2, 8)))]
    tokens = [alphabet[int(j)] for j in rng.integers(0, len(alphabet), n)]
    phrases = set()
    for _ in range(int(rng.integers(0, 6))):
        if rng.random() < 0.7:  # substring of the document, likely present
            s = int(rng.integers(0, n))
            e = min(n, s + int(rng.integers(1, 4)))
            phrases.add(tuple(tokens[s:e]))
        else:  # random phrase, likely absent
            length = int(rng.integers(1, 4))
            phrases.add(tuple(alphabet[int(j)] for j in rng.integers(0, len(alphabet), length)))
    return tokens, phrases


@pytest.mark.parametrize("seed", range(8))
def test_round_trip_matches_independent_matcher(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        tokens, phrases = _random_case(rng)
        labels = keyphrases_to_bio(tokens, phrases)
        recovered = bio_to_phrases(tokens, labels)
        expected = leftmost_longest_spans(tokens, phrases)
        got = [((s, e), tuple(t.casefold() for t in p)) for (s, e), p in recovered]
        assert got == expected


# -- build_vocab -------------------------------------------------------------


def _labeled(tokens):
    return LabeledDocument(
        doc=Document(id=f"x{hash(tuple(tokens)) & 0xFFFF}", tokens=tuple(tokens)),
        labels=tuple([O] * len(tokens)),
    )


def test_vocab_frequency_threshold():
    ds = Dataset("t", [_labeled(["a", "a", "b"])])
    vocab = build_vocab(ds, min_count=2)
    assert vocab.itos == ("<pad>", "<unk>", "a")


def test_vocab_tie_broken_lexicographically():
    ds = Dataset("t", [_labeled(["a", "b"]), _labeled(["b", "a"])])
    vocab = build_vocab(ds, min_count=1)
    assert vocab.lookup("a") == 2
    assert vocab.lookup("b") == 3


def test_vocab_unseen_token_is_unk():
    ds = Dataset("t", [_labeled(["a"])])
    vocab = build_vocab(ds, min_count=1)
    assert vocab.lookup("zzz") == UNK_INDEX == 1


def test_vocab_is_case_folded():
    ds = Dataset("t", [_labeled(["Foo", "foo"])])
    vocab = build_vocab(ds, min_count=2)
    assert vocab.lookup("FOO") == 2


def test_literal_pad_token_encodes_to_unk():
    vocab = build_vocab(Dataset("t", [_labeled(["<pad>", "a"])]), min_count=1)
    assert vocab.encode(["<pad>", "<PAD>", "<unk>", "a"]).tolist() == [UNK_INDEX] * 3 + [2]


def test_vocab_rejects_duplicate_tokens():
    with pytest.raises(DataError, match="unique"):
        Vocabulary(itos=("<pad>", "<unk>", "a", "b", "a"))


def test_vocab_min_count_validated():
    ds = Dataset("t", [_labeled(["a"])])
    with pytest.raises(DataError):
        build_vocab(ds, min_count=0)


# -- sample_batch ------------------------------------------------------------


def _tiny_dataset(n):
    return Dataset("t", [Document(id=f"d{i}", tokens=("x",)) for i in range(n)])


def test_sampling_is_deterministic():
    ds = _tiny_dataset(10)
    ids1 = [d.id for d in sample_batch(ds, 3, np.random.default_rng(0))]
    ids2 = [d.id for d in sample_batch(ds, 3, np.random.default_rng(0))]
    assert ids1 == ids2


def test_batch_without_replacement_when_it_fits():
    ds = _tiny_dataset(10)
    ids = [d.id for d in sample_batch(ds, 10, np.random.default_rng(1))]
    assert len(set(ids)) == 10


def test_oversized_batch_repeats():
    ds = _tiny_dataset(3)
    batch = sample_batch(ds, 5, np.random.default_rng(2))
    assert len(batch) == 5


def test_sampling_is_uniform():
    ds = _tiny_dataset(4)
    rng = np.random.default_rng(0)
    counts = {f"d{i}": 0 for i in range(4)}
    for _ in range(10_000):
        counts[sample_batch(ds, 1, rng)[0].id] += 1
    for c in counts.values():
        assert abs(c - 2500) <= 125  # within 5% of the uniform expectation


def test_sampling_empty_dataset_fails():
    with pytest.raises(DataError):
        sample_batch(Dataset("t", []), 1, np.random.default_rng(0))


# -- JSONL loading -----------------------------------------------------------


def test_load_labeled_record(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text('{"id":"d1","tokens":["a","b"],"labels":["B","I"]}\n')
    ds = load_jsonl(p, expect_labels=True)
    assert len(ds) == 1
    assert ds[0].labels == (B, I)
    assert ds[0].label_source == "gold"
    assert ds[0].keyphrases == {("a", "b")}


def test_load_length_mismatch_reports_line(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text('{"id":"d2","tokens":["a"],"labels":["B","I"]}\n')
    with pytest.raises(DataError, match="length mismatch at line 1"):
        load_jsonl(p, expect_labels=True)


def test_load_unlabeled_record(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text('{"id":"d3","tokens":["x","y"]}\n')
    ds = load_jsonl(p, expect_labels=False)
    assert isinstance(ds[0], Document)
    assert ds[0].tokens == ("x", "y")


def test_load_missing_labels_rejected_when_expected(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text('{"id":"d3","tokens":["x"]}\n')
    with pytest.raises(DataError, match="line 1"):
        load_jsonl(p, expect_labels=True)


def test_load_malformed_json_reports_line(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text('{"id":"a","tokens":["x"],"labels":["O"]}\n{oops\n')
    with pytest.raises(DataError, match="line 2"):
        load_jsonl(p, expect_labels=True)


def test_load_non_utf8_reports_line(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_bytes(b'{"id":"a","tokens":["x"]}\n{"id":"b","tokens":["\xff"]}\n')
    with pytest.raises(DataError, match="line 2 is not valid UTF-8"):
        load_jsonl(p, expect_labels=False)


@pytest.mark.parametrize(
    "record",
    [
        '{"id":"a","tokens":"hello"}',
        '{"id":"a","tokens":["x","y","z"],"labels":"BIO"}',
        '{"id":"a","tokens":["x","y"],"keyphrases":"x"}',
        '{"id":"a","tokens":["x","y"],"keyphrases":["xy"]}',
        '{"id":"a","tokens":["x","y"],"keyphrases":[["x",3]]}',
    ],
    ids=["tokens", "labels", "keyphrases", "keyphrase_string", "keyphrase_number"],
)
def test_load_string_in_place_of_array_rejected(tmp_path, record):
    # a string would otherwise iterate as one-character tokens, labels or phrases
    p = tmp_path / "d.jsonl"
    p.write_text(record + "\n")
    with pytest.raises(DataError, match="at line 1 must be a JSON array"):
        load_jsonl(p, expect_labels=False)


def test_labels_derived_from_keyphrases(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text('{"id":"d","tokens":["a","b","c"],"keyphrases":[["b","c"]]}\n')
    ds = load_jsonl(p, expect_labels=True)
    assert ds[0].labels == (O, B, I)


def test_jsonl_round_trip_is_semantically_identical(tmp_path):
    ds = gen_synthetic(5, 20, vocab_size=40, keyword_fraction=0.2)
    p1, p2 = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_jsonl(ds, p1)
    reloaded = load_jsonl(p1, expect_labels=True)
    save_jsonl(reloaded, p2)
    assert p1.read_bytes() == p2.read_bytes()
    for a, b in zip(ds, reloaded):
        assert a.doc.id == b.doc.id
        assert a.doc.tokens == b.doc.tokens
        assert a.labels == b.labels
        assert a.keyphrases == b.keyphrases


def test_duplicate_ids_rejected(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text(
        '{"id":"d","tokens":["a"],"labels":["O"]}\n{"id":"d","tokens":["b"],"labels":["O"]}\n'
    )
    with pytest.raises(DataError, match="duplicate"):
        load_jsonl(p, expect_labels=True)


# -- synthetic generator -----------------------------------------------------


def test_generator_is_byte_deterministic(tmp_path):
    a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    save_jsonl(gen_synthetic(7, 30), a)
    save_jsonl(gen_synthetic(7, 30), b)
    assert a.read_bytes() == b.read_bytes()


def test_generated_documents_round_trip():
    ds = gen_synthetic(13, 200, vocab_size=60, keyword_fraction=0.3)
    for d in ds:
        recovered = {p for _, p in bio_to_phrases(d.doc.tokens, d.labels)}
        present = {kp for kp in d.keyphrases}
        assert recovered == present
        assert 10 <= len(d.doc.tokens) <= 40


def test_generated_label_density_matches_expectation():
    vocab_size, fraction = 80, 0.2
    rule = make_synthetic_rule(3, vocab_size, fraction)
    # expectation derived directly from the rule: tokens come from uniform
    # keyword-or-filler draws, keywords expanding to their template
    p = len(rule.keywords) / (len(rule.keywords) + len(rule.fillers))
    mean_len = sum(len(t) for t in rule.templates.values()) / len(rule.templates)
    expected = p * mean_len / (p * mean_len + (1 - p))

    ds = gen_synthetic(3, 1000, vocab_size=vocab_size, keyword_fraction=fraction)
    total = labeled = 0
    for d in ds:
        total += len(d.labels)
        labeled += sum(1 for l in d.labels if l != O)
    observed = labeled / total
    assert abs(observed - expected) / expected <= 0.20


def test_generator_validates_bounds():
    with pytest.raises(DataError):
        gen_synthetic(0, 10, vocab_size=10, keyword_fraction=0.2)
    with pytest.raises(DataError):
        gen_synthetic(0, 10, vocab_size=30, keyword_fraction=0.6)
    with pytest.raises(DataError):
        gen_synthetic(0, 0, vocab_size=30, keyword_fraction=0.2)
    with pytest.raises(DataError, match="seed"):
        gen_synthetic(-1, 10, vocab_size=30, keyword_fraction=0.2)


@pytest.mark.parametrize("value", [MAX_SYNTH + 1, 2**64])
@pytest.mark.parametrize("field", ["n_docs", "vocab_size"])
def test_huge_synthetic_sizes_are_a_data_error_without_allocating(field, value):
    sizes = {"n_docs": 10, "vocab_size": 30, field: value}
    tracemalloc.start()
    try:
        with pytest.raises(DataError, match=field):
            gen_synthetic(0, **sizes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20
