import json
import re
import tracemalloc
from pathlib import Path

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
    split_dataset,
)
from kpex.corpus import (
    LABEL_B,
    LABEL_I,
    LABEL_INDEX,
    LABEL_NAMES,
    LABEL_O,
    MAX_SYNTH,
    UNK_INDEX,
    Vocabulary,
    bio_to_phrases,
    keyphrases_to_bio,
    make_synthetic_rule,
    sample_batch,
)

from kpex.metrics import gold_phrases

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
    assert vocab.encode(["a", "b"]).tolist() == [2, 3]


def test_vocab_unseen_token_is_unk():
    ds = Dataset("t", [_labeled(["a"])])
    vocab = build_vocab(ds, min_count=1)
    assert vocab.encode(["zzz"]).tolist() == [UNK_INDEX] == [1]


def test_vocab_is_case_folded():
    ds = Dataset("t", [_labeled(["Foo", "foo"])])
    vocab = build_vocab(ds, min_count=2)
    assert vocab.encode(["FOO"]).tolist() == [2]


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


class _IndexOnly:
    """A sequence that can be indexed but not iterated."""

    def __init__(self, docs):
        self.docs = docs

    def __len__(self):
        return len(self.docs)

    def __getitem__(self, i):
        return self.docs[i]

    def __iter__(self):
        raise AssertionError("iterated")


def _copying_sample(dataset, size, rng):
    # the reference: copy the dataset, then draw its indices
    docs = list(dataset)
    return [docs[int(i)] for i in rng.choice(len(docs), size=size, replace=size > len(docs))]


@pytest.mark.parametrize("size", [1, 6, 10, 25])  # 25 draws with replacement
def test_sampling_indexes_without_copying(size):
    ds = _tiny_dataset(10)
    got = sample_batch(_IndexOnly(ds.documents), size, np.random.default_rng(size))
    assert got == _copying_sample(ds, size, np.random.default_rng(size))


def test_sampling_empty_dataset_fails():
    with pytest.raises(DataError):
        sample_batch(Dataset("t", []), 1, np.random.default_rng(0))


# -- JSONL loading -----------------------------------------------------------


def test_load_labeled_record(tmp_path):
    p = tmp_path / "d.jsonl"
    # blank lines are skipped, one holding only a non-ASCII space (U+00A0) too
    p.write_text('\n{"id":"d1","tokens":["a","b"],"labels":["B","I"]}\n \t\n\u00a0\n', "utf-8")
    ds = load_jsonl(p, expect_labels=True)
    assert len(ds) == 1
    assert ds[0].labels == (B, I)
    assert (ds[0].id, ds[0].tokens) == ("d1", ("a", "b"))
    assert gold_phrases(ds[0]) == {("a", "b")}


def test_load_length_mismatch_reports_line(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text('{"id":"d2","tokens":["a"],"labels":["B","I"]}\n')
    with pytest.raises(DataError, match="line 1: document 'd2': 2 labels for 1 tokens"):
        load_jsonl(p, expect_labels=True)


@pytest.mark.parametrize("value", ["null", "true", "1.0", "[1]", '{"a": 1}'])
def test_an_id_that_is_no_string_or_integer_is_rejected(tmp_path, value):
    # str() would turn these into the ids "None", "True", "1.0", "[1]" and "{'a': 1}"
    p = tmp_path / "d.jsonl"
    p.write_text('{"id": "a", "tokens": ["x"]}\n{"id": %s, "tokens": ["y"]}\n' % value)
    with pytest.raises(DataError, match="'id' at line 2 must be a JSON string or integer"):
        load_jsonl(p, expect_labels=False)
    # nor can a library Document hold one, which save_jsonl would write and load_jsonl reject
    with pytest.raises(DataError, match=f"^document id {re.escape(value)} is not a string$"):
        Document(id=json.loads(value), tokens=("y",))


@pytest.mark.parametrize("value", ["1.7", '"2"', "true", "null", '["B"]', '"b"', "3"])
def test_a_label_that_is_no_label_is_rejected_by_its_json_spelling(tmp_path, value):
    # int() would read 1.7, "2" and true as labels, str() report true as 'True'
    p = tmp_path / "d.jsonl"
    p.write_text('{"id": "a", "tokens": ["x", "y"], "labels": [%s, "O"]}\n' % value)
    with pytest.raises(DataError, match=f"^line 1: unknown label {re.escape(value)}$"):
        load_jsonl(p, expect_labels=False)
    with pytest.raises(DataError, match=f"^document 'a': label {re.escape(value)} is not 0, 1"):
        LabeledDocument(Document(id="a", tokens=("x", "y")), [json.loads(value), 0])


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


def test_labels_and_keyphrases_that_disagree_are_rejected(tmp_path):
    p = tmp_path / "d.jsonl"
    p.write_text(
        '{"id":"a","tokens":["x"],"labels":["B"]}\n'
        '{"tokens":["x","y","z"],"labels":["O","O","O"],"keyphrases":[["x","y"]],"id":"b"}\n'
    )
    for expect_labels in (True, False):
        with pytest.raises(DataError, match="'labels' and 'keyphrases' at line 2 disagree"):
            load_jsonl(p, expect_labels=expect_labels)


@pytest.mark.parametrize(
    "record, phrases",
    [
        ('{"id":"a","tokens":["Deep","net"],"labels":["B","I"],"keyphrases":[["deep","NET"]]}',
         {("deep", "net")}),
        ('{"id":"a","tokens":["x","y"],"labels":["B","B"],"keyphrases":[["x"],["y"],["x"]]}',
         {("x",), ("y",)}),
        ('{"id":"a","tokens":["x","y"],"labels":["O","B"],"keyphrases":[["y"],[]]}', {("y",)}),
        ('{"id":"a","tokens":["x","y"],"labels":["O","O"],"keyphrases":[[]]}', set()),
        # one record of the form that save_jsonl wrote for gen_synthetic before it dropped the
        # keyphrases key: the sorted planted templates beside the labels
        ('{"id": "syn00000", "tokens": ["w000", "kw000", "w004", "w007", "kw001", "mid002", '
         '"mid001", "w006", "w009", "w003"], "labels": ["O", "B", "O", "O", "B", "I", "I", "O", '
         '"O", "O"], "keyphrases": [["kw000"], ["kw001", "mid002", "mid001"]]}',
         {("kw000",), ("kw001", "mid002", "mid001")}),
    ],
    ids=["case", "duplicate", "empty_phrase", "only_empty", "earlier_synth_record"],
)
def test_labels_and_keyphrases_that_agree_load_as_the_labels(tmp_path, record, phrases):
    p = tmp_path / "d.jsonl"
    p.write_text(record + "\n")
    (loaded,) = load_jsonl(p, expect_labels=True)
    assert gold_phrases(loaded) == phrases
    assert loaded.labels == tuple(LABEL_INDEX[l] for l in json.loads(record)["labels"])


def test_earlier_synth_files_load_to_the_same_labels(tmp_path):
    # save_jsonl once wrote each synthetic document's sorted planted templates as "keyphrases"
    ds = gen_synthetic(5, 60, vocab_size=40, keyword_fraction=0.3)
    lines = []
    for d in ds:
        planted = sorted({p for _, p in bio_to_phrases(d.tokens, d.labels)})
        rec = {"id": d.id, "tokens": list(d.tokens), "labels": [LABEL_NAMES[l] for l in d.labels],
               "keyphrases": [list(p) for p in planted]}
        lines.append(json.dumps(rec) + "\n")
    p = tmp_path / "d.jsonl"
    p.write_text("".join(lines))
    assert [d.labels for d in load_jsonl(p, expect_labels=True)] == [d.labels for d in ds]


def test_readme_data_format_example_loads_as_described(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Data format\n", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    p = tmp_path / "d.jsonl"
    p.write_text(block)
    given, derived, unlabeled, both = load_jsonl(p, expect_labels=False)
    assert given.labels == (B, I, O)
    assert derived.labels == (B, O)  # from "keyphrases" alone
    assert isinstance(unlabeled, Document) and not isinstance(unlabeled, LabeledDocument)
    assert both.labels == (B, I, O)
    assert gold_phrases(both) == {("neural", "nets")}
    with pytest.raises(DataError, match="missing labels at line 3"):
        load_jsonl(p, expect_labels=True)


def test_saved_records_hold_only_id_tokens_and_labels(tmp_path):
    p = tmp_path / "d.jsonl"
    save_jsonl([*gen_synthetic(2, 3), Document(id="u", tokens=("x",))], p)
    keys = [list(json.loads(line)) for line in p.read_text().splitlines()]
    assert keys == [["id", "tokens", "labels"]] * 3 + [["id", "tokens"]]


@pytest.mark.parametrize("doc", [
    Document(id="\ud800", tokens=("x",)),
    LabeledDocument(Document(id="d", tokens=("\udc80x",)), labels=(LABEL_O,)),
], ids=["id", "token"])
def test_a_lone_surrogate_is_a_data_error_naming_the_record(tmp_path, doc):
    p = tmp_path / "d.jsonl"
    p.write_bytes(b"previous\n")
    message = f"record 2 (document {doc.id!r}) holds a lone surrogate"
    with pytest.raises(DataError, match=f"^{re.escape(message)}"):
        save_jsonl([Document(id="ok", tokens=("y",)), doc], p)
    assert p.read_bytes() == b"previous\n"


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
        assert type(a) is type(b)
        assert gold_phrases(a) == gold_phrases(b)


def test_a_library_dataset_round_trips_through_jsonl(tmp_path):
    docs = [
        LabeledDocument(Document(id="7", tokens=("Deep", "nets")), (B, I)),
        Document(id="caf\u00e9 \U0001f600", tokens=("\u00e9t\u00e9", "x")),
        LabeledDocument(Document(id="", tokens=("y",)), [O]),
    ]
    p = tmp_path / "d.jsonl"
    save_jsonl(Dataset("lib", docs), p)
    loaded = load_jsonl(p, expect_labels=False)
    assert [type(d) for d in loaded] == [type(d) for d in docs]
    assert [(d.id, d.tokens) for d in loaded] == [(d.id, d.tokens) for d in docs]
    assert [d.labels for d in loaded[::2]] == [(B, I), (O,)]


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
    templates = set(make_synthetic_rule(13, 60, 0.3).templates.values())
    for d in ds:
        recovered = {p for _, p in bio_to_phrases(d.doc.tokens, d.labels)}
        assert recovered <= templates
        assert tuple(keyphrases_to_bio(d.doc.tokens, recovered)) == d.labels
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


@pytest.mark.parametrize(
    "sizes, names",
    [([-2, 5], None), ([3, 3], ["x"]), ([3], ["x", "y"]), ([6, 5], None)],
    ids=["negative_size", "fewer_names", "more_names", "too_many_documents"],
)
def test_split_that_cannot_give_its_parts_is_a_data_error(sizes, names):
    ds = gen_synthetic(0, 10, vocab_size=30, keyword_fraction=0.2)
    with pytest.raises(DataError, match="cannot split 10 documents"):
        split_dataset(ds, sizes, names=names)
