"""Datasets of tokenized documents with BIO keyphrase labels.

Conventions used throughout the package:

* a label is the int O=0, B=1 or I=2, on disk the JSON string "O", "B" or "I", and a document
  id a str (a JSONL integer id reads as its string): no other type is coerced to either;
* tokens are case-folded for matching and vocabulary lookup, while the
  stored tokens keep their original case;
* index 0 of every vocabulary is the padding token and index 1 the
  unknown token;
* the on-disk format is JSONL, one record per line:
  ``{"id": ..., "tokens": [...], "labels": [...]?, "keyphrases": [[...]...]?}``.
  The labels are a document's one annotation. ``keyphrases`` alone derives them on load;
  beside ``labels`` it must name the same phrases, case-folded, as a set;
* every string loaded from a file, by :func:`parse_json`, is encodable as UTF-8.

All functions here are pure; random sampling takes a caller-owned
``numpy.random.Generator`` so that nothing in this module shares state.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import re
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, DataError, KpexError

LABEL_O = 0
LABEL_B = 1
LABEL_I = 2
LABEL_NAMES = ("O", "B", "I")
LABEL_INDEX = {name: i for i, name in enumerate(LABEL_NAMES)}

PAD_INDEX = 0
UNK_INDEX = 1
PAD_TOKEN = "<pad>"
UNK_TOKEN = "<unk>"

Phrase = tuple[str, ...]

MAX_SYNTH = 2**20  # the largest vocab_size and n_docs of a synthetic corpus
_DRAW_CHUNK = 4096  # 32-bit words a synthetic corpus draws at a time (~160 KB as Python ints)


@dataclass
class Document:
    """A tokenized document without labels."""

    id: str
    tokens: tuple[str, ...]

    def __post_init__(self):
        if type(self.id) is not str:
            raise DataError(f"document id {json.dumps(self.id, default=repr)} is not a string")
        self.tokens = tuple(self.tokens)
        if not self.tokens:
            raise DataError(f"document {self.id!r} has no tokens")
        if any(not isinstance(t, str) or not t for t in self.tokens):
            raise DataError(f"document {self.id!r} contains an empty or non-string token")

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class LabeledDocument:
    """A document plus per-token BIO labels, its one annotation (a record's
    ``keyphrases`` is read on load only, as the module docstring says)."""

    doc: Document
    labels: tuple[int, ...]

    def __post_init__(self):
        self.labels = tuple(self.labels)
        if len(self.labels) != len(self.doc.tokens):
            raise DataError(f"document {self.doc.id!r}: {len(self.labels)} labels for "
                            f"{len(self.doc.tokens)} tokens")
        # a set of the labels alone would take 1.0 or True for 1
        if not (set(map(type, self.labels)) <= {int} and set(self.labels) <= {0, 1, 2}):
            bad = next(l for l in self.labels if type(l) is not int or l not in (0, 1, 2))
            raise DataError(f"document {self.doc.id!r}: label {json.dumps(bad, default=repr)} "
                            "is not 0, 1 or 2")

    @property
    def id(self) -> str:
        return self.doc.id

    @property
    def tokens(self) -> tuple[str, ...]:
        return self.doc.tokens


@dataclass
class Dataset:
    """A named collection of documents with unique ids."""

    name: str
    documents: list

    def __post_init__(self):
        seen = set()
        for d in self.documents:
            if d.id in seen:
                raise DataError(f"dataset {self.name!r}: duplicate document id {d.id!r}")
            seen.add(d.id)

    def __len__(self) -> int:
        return len(self.documents)

    def __iter__(self) -> Iterator:
        return iter(self.documents)

    def __getitem__(self, i):
        return self.documents[i]

    @property
    def labeled(self) -> bool:
        return all(isinstance(d, LabeledDocument) for d in self.documents)


@dataclass
class Vocabulary:
    """Token-to-index mapping with reserved PAD (0) and UNK (1) entries.

    Indices are deterministic: descending frequency, ties broken by the
    case-folded token string. Encoding case-folds each token, so every entry
    must be case-folded itself. An unseen token, or the PAD token itself,
    encodes as UNK.
    """

    itos: tuple[str, ...]
    min_count: int = 1
    stoi: dict = field(init=False, repr=False)
    sha256: str = field(init=False, repr=False)

    def __post_init__(self):
        self.itos = tuple(self.itos)
        if type(self.min_count) is not int or self.min_count < 1:  # a bool is no count
            raise DataError(f"vocabulary min_count must be an int >= 1, not {self.min_count!r}")
        if len(self.itos) < 2 or self.itos[0] != PAD_TOKEN or self.itos[1] != UNK_TOKEN:
            raise DataError("vocabulary must start with the PAD and UNK tokens")
        for tok in self.itos:
            if not isinstance(tok, str) or tok != tok.casefold():
                raise DataError(
                    f"vocabulary token {tok!r} is not a case-folded string, so lookup misses it"
                )
        try:  # a checkpoint header names the vocabulary by this hash
            self.sha256 = hashlib.sha256("\n".join(self.itos).encode("utf-8")).hexdigest()
        except UnicodeEncodeError as exc:
            tok = next(t for t in self.itos if exc.object[exc.start] in t)
            raise DataError(f"vocabulary token {tok!r} holds a lone surrogate, which UTF-8 "
                            "cannot encode") from None
        self.stoi = {tok: i for i, tok in enumerate(self.itos)}
        if len(self.stoi) != len(self.itos):
            raise DataError("vocabulary tokens must be unique")
        self.stoi[PAD_TOKEN] = UNK_INDEX  # index 0 is padding only: a literal "<pad>" is unknown

    def __len__(self) -> int:
        return len(self.itos)

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        get = self.stoi.get
        return np.array([get(t.casefold(), UNK_INDEX) for t in tokens], dtype=np.int64)


def keyphrases_to_bio(tokens: Sequence[str], keyphrases: Iterable[Phrase]) -> list[int]:
    """Label ``tokens`` with BIO indices by matching ``keyphrases`` against them.

    Matching is greedy leftmost-longest on case-folded tokens: scanning left
    to right, the longest phrase starting at the current position wins and
    its span is consumed, so matched spans never overlap. Phrases that do
    not occur in the document contribute nothing.
    """
    folded = [t.casefold() for t in tokens]
    by_first: dict[str, list[Phrase]] = {}
    for kp in keyphrases:
        if not kp:
            continue
        fkp = tuple(t.casefold() for t in kp)
        by_first.setdefault(fkp[0], []).append(fkp)
    for candidates in by_first.values():
        candidates.sort(key=lambda p: (-len(p), p))

    n = len(folded)
    labels = [LABEL_O] * n
    i = 0
    while i < n:
        candidates = by_first.get(folded[i], ())
        matched = next((c for c in candidates if tuple(folded[i : i + len(c)]) == c), None)
        if matched is None:
            i += 1
            continue
        labels[i : i + len(matched)] = [LABEL_B] + [LABEL_I] * (len(matched) - 1)
        i += len(matched)
    return labels


def bio_to_phrases(
    tokens: Sequence[str], labels: Sequence[int]
) -> list[tuple[tuple[int, int], Phrase]]:
    """Recover phrase spans from a BIO label sequence.

    Each maximal B I I... run becomes one phrase. An I with no phrase open
    to its left is promoted to B and starts a new phrase, so no labeled
    token is ever dropped. Returns ``((start, end), phrase_tokens)`` pairs
    ordered by start position; spans are half-open and never overlap.
    """
    if len(labels) != len(tokens):
        raise ValueError(f"{len(labels)} labels for {len(tokens)} tokens")
    spans: list[tuple[int, int]] = []
    start = None
    for t, lab in enumerate(labels):
        if lab == LABEL_B:
            if start is not None:
                spans.append((start, t))
            start = t
        elif lab == LABEL_I:
            if start is None:  # orphan I: promote to phrase start
                start = t
        else:
            if start is not None:
                spans.append((start, t))
                start = None
    if start is not None:
        spans.append((start, len(tokens)))
    return [((s, e), tuple(tokens[s:e])) for s, e in spans]


def build_vocab(dataset, min_count: int = 1) -> Vocabulary:
    """Build a Vocabulary from every case-folded token with frequency >= min_count."""
    docs = list(dataset)
    if not docs:
        raise DataError("cannot build a vocabulary from an empty dataset")
    counts: Counter = Counter()  # one pass over the tokens, then case-folding of the distinct ones
    for tok, c in Counter(itertools.chain.from_iterable(d.tokens for d in docs)).items():
        counts[tok.casefold()] += c
    kept = [t for t, c in counts.items() if c >= min_count and t not in (PAD_TOKEN, UNK_TOKEN)]
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary(itos=(PAD_TOKEN, UNK_TOKEN, *kept), min_count=min_count)


def sample_batch(dataset, size: int, rng: np.random.Generator) -> list:
    """Draw ``size`` documents of an indexable ``dataset`` uniformly at random.

    Within one batch documents are drawn without replacement whenever
    ``size`` does not exceed the dataset, with replacement otherwise.
    Deterministic for a fixed generator state.
    """
    if not len(dataset):
        raise DataError("cannot sample from an empty dataset")
    if size < 1:
        raise DataError(f"batch size must be >= 1, got {size}")
    idx = rng.choice(len(dataset), size=size, replace=size > len(dataset))
    return [dataset[int(i)] for i in idx]


# ---------------------------------------------------------------------------
# JSONL serialization
# ---------------------------------------------------------------------------


def parse_json(data: bytes, error: type[KpexError], where: str):
    """Decode ``data`` as UTF-8 and parse it as one JSON value. Every failure, a string that
    no UTF-8 writer can write (a lone surrogate escape) included, raises ``error`` naming
    ``where``."""
    try:
        text = data.decode("utf-8")
        obj = json.loads(text)
        if re.search(r"\\u[dD][89a-fA-F]", text):  # only an escape in D800-DFFF writes a surrogate
            json.dumps(obj, ensure_ascii=False).encode("utf-8")
        return obj
    except UnicodeDecodeError as exc:
        raise error(f"{where} is not valid UTF-8 ({exc.reason})") from None
    except (ValueError, RecursionError) as exc:  # a plain ValueError: past the int digit limit
        reasons = {RecursionError: "nested too deeply", UnicodeEncodeError: "lone surrogate escape"}
        reason = reasons.get(type(exc)) or getattr(exc, "msg", exc)  # JSONDecodeError.msg
        raise error(f"{where}: invalid JSON ({reason})") from None


def load_jsonl(path, expect_labels: bool) -> Dataset:
    """Load a dataset from a JSONL file, in line order, skipping blank lines.

    Records carrying ``labels`` and/or ``keyphrases`` become LabeledDocuments
    (labels derived via :func:`keyphrases_to_bio` when only keyphrases are
    given; both must name the same case-folded phrase set, empty phrases and
    duplicates aside); bare records become unlabeled Documents, which is an
    error when ``expect_labels`` is set. An id is a JSON string or integer.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"dataset file not found (or not a file): {path}")
    documents = []
    try:
        with path.open("rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                try:
                    obj = parse_json(raw, DataError, f"line {lineno}")
                except DataError:
                    if raw.decode("utf-8", "replace").isspace():  # as str.strip() finds it
                        continue
                    raise
                if not isinstance(obj, dict) or "id" not in obj or "tokens" not in obj:
                    raise DataError(f"record at line {lineno} lacks 'id' or 'tokens'")
                if type(obj["id"]) not in (str, int):  # a bool, float or null is no id
                    raise DataError(f"'id' at line {lineno} must be a JSON string or integer")
                for key in ("tokens", "labels", "keyphrases"):  # the last two may be null
                    value = obj.get(key)
                    if (value is not None or key == "tokens") and not isinstance(value, list):
                        raise DataError(f"'{key}' at line {lineno} must be a JSON array")
                raw_labels = obj.get("labels")
                raw_phrases = obj.get("keyphrases")
                if raw_phrases is not None and not all(
                    isinstance(p, list) and all(isinstance(t, str) for t in p) for p in raw_phrases
                ):
                    raise DataError(
                        f"'keyphrases' at line {lineno} must be a JSON array of string arrays"
                    )
                try:
                    doc = Document(id=str(obj["id"]), tokens=tuple(obj["tokens"]))
                    if raw_labels is not None:
                        for l in raw_labels:
                            if type(l) is not str or l not in LABEL_INDEX:
                                raise DataError(f"unknown label {json.dumps(l)}")
                        doc = LabeledDocument(doc, [LABEL_INDEX[l] for l in raw_labels])
                    elif raw_phrases is not None:
                        doc = LabeledDocument(doc, keyphrases_to_bio(doc.tokens, raw_phrases))
                except DataError as exc:
                    raise DataError(f"line {lineno}: {exc}") from exc
                if raw_labels is not None and raw_phrases is not None:
                    spans = bio_to_phrases(doc.tokens, doc.labels)
                    if {_fold(p) for p in raw_phrases if p} != {_fold(p) for _, p in spans}:
                        raise DataError(f"'labels' and 'keyphrases' at line {lineno} disagree")
                if expect_labels and not isinstance(doc, LabeledDocument):
                    raise DataError(f"missing labels at line {lineno} (expect_labels=true)")
                documents.append(doc)
    except OSError as exc:  # e.g. an I/O error partway through
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None
    return Dataset(name=path.stem, documents=documents)


def _fold(phrase) -> Phrase:
    return tuple(t.casefold() for t in phrase)


def save_jsonl(dataset, path) -> None:
    """Write a dataset as UTF-8 JSONL, one LF-terminated record per line:
    ``id``, ``tokens`` and, for a LabeledDocument, ``labels``; through :func:`write_atomic`.
    A record whose id or tokens hold a lone surrogate, which UTF-8 cannot encode, is a
    DataError and nothing is written."""
    lines = []
    for n, d in enumerate(dataset, 1):
        rec = {"id": d.id, "tokens": list(d.tokens)}
        if isinstance(d, LabeledDocument):
            rec["labels"] = [LABEL_NAMES[l] for l in d.labels]
        try:
            lines.append((json.dumps(rec, ensure_ascii=False) + "\n").encode("utf-8"))
        except UnicodeEncodeError:
            raise DataError(f"record {n} (document {d.id!r}) holds a lone surrogate, "
                            "which UTF-8 cannot encode") from None
    write_atomic(path, b"".join(lines))


def write_atomic(path, data: bytes) -> None:
    """Write ``data`` to a temporary file beside ``path``, then rename it
    over ``path``: the file holds its old bytes or all of the new ones,
    never part of them, and a failed write leaves no temporary file."""
    path = Path(path)
    if path.is_dir():
        raise ConfigError(f"output path is a directory: {path}")
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except OSError as exc:  # e.g. its directory is missing
        raise ConfigError(f"cannot write {path}: {exc.strerror or exc}") from None
    finally:
        tmp.unlink(missing_ok=True)


def split_dataset(dataset: Dataset, sizes: Sequence[int], names: Sequence[str] | None = None):
    """Slice a dataset into consecutive non-overlapping parts of the given sizes, one per name."""
    names = [f"{dataset.name}[{i}]" for i in range(len(sizes))] if names is None else names
    if min(sizes, default=0) < 0 or sum(sizes) > len(dataset) or len(names) != len(sizes):
        raise DataError(f"cannot split {len(dataset)} documents into {names} of sizes {sizes}")
    ends = [0, *itertools.accumulate(sizes)]
    return tuple(Dataset(name, dataset.documents[a:b]) for name, a, b in zip(names, ends, ends[1:]))


# ---------------------------------------------------------------------------
# Synthetic corpora with a planted, learnable keyphrase rule
# ---------------------------------------------------------------------------


@dataclass
class SyntheticRule:
    """The planted keyphrase rule behind a synthetic corpus.

    The vocabulary splits into three disjoint pools: keyword tokens, which
    only ever occur as the first token of a keyphrase; continuation tokens,
    which only ever occur inside keyphrases; and filler tokens, which are
    never part of any keyphrase. Each keyword owns one fixed template of
    1 to 3 tokens, so the label of every token is decidable from the token
    identity alone.
    """

    keywords: tuple[str, ...]
    continuations: tuple[str, ...]
    fillers: tuple[str, ...]
    templates: dict


def _bounded_draws(rng: np.random.Generator):
    """``draw(low, high)``, returning what each ``int(rng.integers(low, high))`` call would, from
    bulk 32-bit draws of ``rng``: numpy's multiply-shift with rejection (Lemire, arXiv 1805.10941)
    replayed on each word, where a one-value range takes no word."""
    words = itertools.chain.from_iterable(iter(
        lambda: rng.integers(0, 2**32, size=_DRAW_CHUNK, dtype=np.uint32).tolist(), None))

    def draw(low: int, high: int) -> int:
        r = high - low
        if not 1 <= r <= 2**32:
            raise ValueError(f"cannot draw from [{low}, {high}): its size must be in 1..2**32")
        m = next(words) * r if r > 1 else 0
        # reject while the low word is below (2**32 - r) % r; testing < r first skips the modulo
        while m & 0xFFFFFFFF < r and m & 0xFFFFFFFF < (2**32 - r) % r:
            m = next(words) * r
        return low + (m >> 32)

    return draw


def make_synthetic_rule(seed: int, vocab_size: int, keyword_fraction: float) -> SyntheticRule:
    """Deterministically derive the planted rule used by :func:`gen_synthetic`."""
    if seed < 0:
        raise DataError(f"seed must be >= 0, got {seed}")
    if not 20 <= vocab_size <= MAX_SYNTH:
        raise DataError(f"vocab_size must be in [20, {MAX_SYNTH}], got {vocab_size}")
    if not 0.0 < keyword_fraction < 0.5:
        raise DataError(f"keyword_fraction must be in (0, 0.5), got {keyword_fraction}")
    n_keywords = max(1, round(keyword_fraction * vocab_size))
    n_continuations = max(1, min(n_keywords, (vocab_size - n_keywords) // 3))
    n_fillers = vocab_size - n_keywords - n_continuations

    keywords = tuple(f"kw{i:03d}" for i in range(n_keywords))
    continuations = tuple(f"mid{i:03d}" for i in range(n_continuations))
    fillers = tuple(f"w{i:03d}" for i in range(n_fillers))

    draw = _bounded_draws(np.random.default_rng([seed, 0]))
    templates = {}
    for kw in keywords:
        tail = range(draw(1, 4) - 1)  # numpy draws a tail array one element at a time
        templates[kw] = (kw, *(continuations[draw(0, n_continuations)] for _ in tail))
    return SyntheticRule(keywords, continuations, fillers, templates)


def gen_synthetic(
    seed: int, n_docs: int, vocab_size: int = 120, keyword_fraction: float = 0.25
) -> Dataset:
    """Generate a labeled corpus of 10-40 token documents with planted keyphrases.

    Token slots are filled by drawing uniformly over keyword and filler
    types; a keyword draw expands to that keyword's full template (or falls
    back to a filler when the template does not fit before the document's
    target length). A placed template is labeled B I..., a filler O. As the
    token pools are disjoint and each keyword owns one template, these equal
    :func:`keyphrases_to_bio` of the planted templates (an oracle test pins
    it), so every document round-trips through :func:`bio_to_phrases`
    exactly. Byte-identical output for a fixed seed.
    """
    if not 1 <= n_docs <= MAX_SYNTH:
        raise DataError(f"n_docs must be in [1, {MAX_SYNTH}], got {n_docs}")
    rule = make_synthetic_rule(seed, vocab_size, keyword_fraction)
    draw = _bounded_draws(np.random.default_rng([seed, 1]))
    n_kw, n_fill = len(rule.keywords), len(rule.fillers)
    templates = [(t, (LABEL_B,) + (LABEL_I,) * (len(t) - 1)) for t in rule.templates.values()]

    documents = []
    for d in range(n_docs):
        target = draw(10, 41)
        tokens, labels = [], []
        while len(tokens) < target:
            pick = draw(0, n_kw + n_fill)
            if pick < n_kw:
                template, template_labels = templates[pick]
                if len(tokens) + len(template) <= target:
                    tokens += template
                    labels += template_labels
                    continue
                pick = n_kw + draw(0, n_fill)
            tokens.append(rule.fillers[pick - n_kw])
            labels.append(LABEL_O)
        doc = Document(id=f"syn{d:05d}", tokens=tuple(tokens))
        documents.append(LabeledDocument(doc, tuple(labels)))
    return Dataset(name=f"synthetic-{seed}", documents=documents)
