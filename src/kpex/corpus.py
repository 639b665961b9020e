"""Datasets of tokenized documents with BIO keyphrase labels.

Conventions used throughout the package:

* label indices are fixed as O=0, B=1, I=2;
* tokens are case-folded for matching and vocabulary lookup, while the
  stored tokens keep their original case;
* index 0 of every vocabulary is the padding token and index 1 the
  unknown token;
* the on-disk format is JSONL, one record per line:
  ``{"id": ..., "tokens": [...], "labels": [...]?, "keyphrases": [[...]...]?}``.
  If only ``keyphrases`` is present the labels are derived on load.

All functions here are pure; random sampling takes a caller-owned
``numpy.random.Generator`` so that nothing in this module shares state.
"""

from __future__ import annotations

import hashlib
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from .errors import ConfigError, DataError

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


@dataclass
class Document:
    """A tokenized document without labels."""

    id: str
    tokens: tuple[str, ...]

    def __post_init__(self):
        self.tokens = tuple(self.tokens)
        if not self.tokens:
            raise DataError(f"document {self.id!r} has no tokens")
        if any(not isinstance(t, str) or not t for t in self.tokens):
            raise DataError(f"document {self.id!r} contains an empty or non-string token")

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass
class LabeledDocument:
    """A document plus per-token BIO labels and its keyphrase set.

    ``label_source`` records provenance: "gold" for annotated data,
    "pseudo" for labels produced by a model, which leave ``keyphrases`` empty.
    """

    doc: Document
    labels: tuple[int, ...]
    keyphrases: frozenset[Phrase] = frozenset()
    label_source: str = "gold"

    def __post_init__(self):
        self.labels = tuple(int(l) for l in self.labels)
        self.keyphrases = frozenset(tuple(p) for p in self.keyphrases)
        if len(self.labels) != len(self.doc.tokens):
            raise DataError(
                f"document {self.doc.id!r}: {len(self.labels)} labels for "
                f"{len(self.doc.tokens)} tokens"
            )
        if any(l not in (LABEL_O, LABEL_B, LABEL_I) for l in self.labels):
            raise DataError(f"document {self.doc.id!r}: label index out of range")
        if self.label_source not in ("gold", "pseudo"):
            raise DataError(f"unknown label source {self.label_source!r}")

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
    case-folded token string. Lookup case-folds its argument, so every entry
    must be case-folded itself. Lookup of an unseen token, or of the PAD
    token itself, returns UNK.
    """

    itos: tuple[str, ...]
    min_count: int = 1
    stoi: dict = field(init=False, repr=False)

    def __post_init__(self):
        self.itos = tuple(self.itos)
        if len(self.itos) < 2 or self.itos[0] != PAD_TOKEN or self.itos[1] != UNK_TOKEN:
            raise DataError("vocabulary must start with the PAD and UNK tokens")
        self.stoi = {tok: i for i, tok in enumerate(self.itos)}
        if len(self.stoi) != len(self.itos):
            raise DataError("vocabulary tokens must be unique")
        for tok in self.itos:
            if tok != tok.casefold():
                raise DataError(
                    f"vocabulary token {tok!r} is not case-folded, so lookup never reaches it"
                )
        self.stoi[PAD_TOKEN] = UNK_INDEX  # index 0 is padding only: a literal "<pad>" is unknown

    def __len__(self) -> int:
        return len(self.itos)

    def lookup(self, token: str) -> int:
        return self.stoi.get(token.casefold(), UNK_INDEX)

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        return np.array([self.lookup(t) for t in tokens], dtype=np.int64)

    @property
    def sha256(self) -> str:
        return hashlib.sha256("\n".join(self.itos).encode("utf-8")).hexdigest()


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
    if min_count < 1:
        raise DataError(f"min_count must be >= 1, got {min_count}")
    docs = list(dataset)
    if not docs:
        raise DataError("cannot build a vocabulary from an empty dataset")
    counts: Counter = Counter()
    for d in docs:
        counts.update(t.casefold() for t in d.tokens)
    counts.pop(PAD_TOKEN, None)
    counts.pop(UNK_TOKEN, None)
    kept = sorted(
        (tok for tok, c in counts.items() if c >= min_count),
        key=lambda tok: (-counts[tok], tok),
    )
    return Vocabulary(itos=(PAD_TOKEN, UNK_TOKEN, *kept), min_count=min_count)


def sample_batch(dataset, size: int, rng: np.random.Generator) -> list:
    """Draw ``size`` documents uniformly at random.

    Within one batch documents are drawn without replacement whenever
    ``size`` does not exceed the dataset, with replacement otherwise.
    Deterministic for a fixed generator state.
    """
    docs = list(dataset)
    if not docs:
        raise DataError("cannot sample from an empty dataset")
    if size < 1:
        raise DataError(f"batch size must be >= 1, got {size}")
    idx = rng.choice(len(docs), size=size, replace=size > len(docs))
    return [docs[int(i)] for i in idx]


# ---------------------------------------------------------------------------
# JSONL serialization
# ---------------------------------------------------------------------------


def load_jsonl(path, expect_labels: bool) -> Dataset:
    """Load a dataset from a JSONL file.

    Records carrying ``labels`` and/or ``keyphrases`` become LabeledDocuments
    (labels derived via :func:`keyphrases_to_bio` when only keyphrases are
    given); bare records become unlabeled Documents, which is an error when
    ``expect_labels`` is set. Line order is preserved.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"dataset file not found (or not a file): {path}")
    documents = []
    with path.open("rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                line = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise DataError(f"line {lineno} is not valid UTF-8 ({exc.reason})") from exc
            if not line.strip():
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"malformed JSON at line {lineno}: {exc.msg}") from exc
            if not isinstance(obj, dict) or "id" not in obj or "tokens" not in obj:
                raise DataError(f"record at line {lineno} lacks 'id' or 'tokens'")
            for key in ("tokens", "labels", "keyphrases"):
                if obj.get(key) is not None and not isinstance(obj[key], list):
                    raise DataError(f"'{key}' at line {lineno} must be a JSON array")
            try:
                doc = Document(id=str(obj["id"]), tokens=tuple(obj["tokens"]))
            except DataError as exc:
                raise DataError(f"line {lineno}: {exc}") from exc

            raw_labels = obj.get("labels")
            raw_phrases = obj.get("keyphrases")
            if raw_phrases is not None and not all(
                isinstance(p, list) and all(isinstance(t, str) for t in p) for p in raw_phrases
            ):
                raise DataError(
                    f"'keyphrases' at line {lineno} must be a JSON array of string arrays"
                )
            keyphrases = (
                frozenset(tuple(p) for p in raw_phrases) if raw_phrases is not None else None
            )

            if raw_labels is not None:
                if len(raw_labels) != len(doc.tokens):
                    raise DataError(
                        f"length mismatch at line {lineno}: {len(raw_labels)} labels "
                        f"for {len(doc.tokens)} tokens"
                    )
                try:
                    labels = tuple(LABEL_INDEX[str(l)] for l in raw_labels)
                except KeyError as exc:
                    raise DataError(f"unknown label {exc.args[0]!r} at line {lineno}") from exc
            elif keyphrases is not None:
                labels = tuple(keyphrases_to_bio(doc.tokens, keyphrases))
            else:
                if expect_labels:
                    raise DataError(f"missing labels at line {lineno} (expect_labels=true)")
                documents.append(doc)
                continue

            if keyphrases is None:
                keyphrases = frozenset(p for _, p in bio_to_phrases(doc.tokens, labels))
            documents.append(LabeledDocument(doc=doc, labels=labels, keyphrases=keyphrases))
    return Dataset(name=path.stem, documents=documents)


def save_jsonl(dataset, path) -> None:
    """Write a dataset as UTF-8 JSONL, one LF-terminated record per line,
    through :func:`write_atomic`."""
    lines = []
    for d in dataset:
        if isinstance(d, LabeledDocument):
            rec = {
                "id": d.doc.id,
                "tokens": list(d.doc.tokens),
                "labels": [LABEL_NAMES[l] for l in d.labels],
                "keyphrases": sorted(list(p) for p in d.keyphrases),
            }
        else:
            rec = {"id": d.id, "tokens": list(d.tokens)}
        lines.append(json.dumps(rec, ensure_ascii=False) + "\n")
    write_atomic(path, "".join(lines).encode("utf-8"))


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
    """Slice a dataset into consecutive non-overlapping parts of the given sizes."""
    if sum(sizes) > len(dataset):
        raise DataError(f"cannot split {len(dataset)} documents into parts of sizes {sizes}")
    if names is None:
        names = [f"{dataset.name}[{i}]" for i in range(len(sizes))]
    parts = []
    offset = 0
    for size, name in zip(sizes, names):
        parts.append(Dataset(name=name, documents=dataset.documents[offset : offset + size]))
        offset += size
    return tuple(parts)


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

    rng = np.random.default_rng([seed, 0])
    templates = {}
    for kw in keywords:
        length = int(rng.integers(1, 4))
        tail = tuple(continuations[int(j)] for j in rng.integers(0, n_continuations, length - 1))
        templates[kw] = (kw, *tail)
    return SyntheticRule(keywords, continuations, fillers, templates)


def gen_synthetic(
    seed: int, n_docs: int, vocab_size: int = 120, keyword_fraction: float = 0.25
) -> Dataset:
    """Generate a labeled corpus of 10-40 token documents with planted keyphrases.

    Token slots are filled by drawing uniformly over keyword and filler
    types; a keyword draw expands to that keyword's full template (or falls
    back to a filler when the template does not fit before the document's
    target length). Labels come from :func:`keyphrases_to_bio` against the
    set of planted templates, so every generated document round-trips
    through :func:`bio_to_phrases` exactly. Byte-identical output for a
    fixed seed.
    """
    if not 1 <= n_docs <= MAX_SYNTH:
        raise DataError(f"n_docs must be in [1, {MAX_SYNTH}], got {n_docs}")
    rule = make_synthetic_rule(seed, vocab_size, keyword_fraction)
    rng = np.random.default_rng([seed, 1])
    n_kw, n_fill = len(rule.keywords), len(rule.fillers)

    documents = []
    for d in range(n_docs):
        target = int(rng.integers(10, 41))
        tokens: list[str] = []
        planted: set[Phrase] = set()
        while len(tokens) < target:
            pick = int(rng.integers(0, n_kw + n_fill))
            if pick < n_kw:
                template = rule.templates[rule.keywords[pick]]
                if len(tokens) + len(template) <= target:
                    tokens.extend(template)
                    planted.add(template)
                    continue
                pick = n_kw + int(rng.integers(0, n_fill))
            tokens.append(rule.fillers[pick - n_kw])
        labels = keyphrases_to_bio(tokens, planted)
        documents.append(
            LabeledDocument(
                doc=Document(id=f"syn{d:05d}", tokens=tuple(tokens)),
                labels=tuple(labels),
                keyphrases=frozenset(planted),
            )
        )
    return Dataset(name=f"synthetic-{seed}", documents=documents)
