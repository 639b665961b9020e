"""The benchmark's workloads: fixed work derived from a seed, plus output checks.

Each workload builds its inputs from the workload seed alone, does its
set-up, and then runs one timed call per repeat. Calls into kpex go through
module attributes (``kpex.train_supervised``, ``kpex.cli.main``) so that the
tracer's wrappers see them. Early stopping is off everywhere, so every
repeat does the same number of steps.

* ``supervised``: ``train_supervised`` on the criterion-4 corpus (vocabulary
  120, 500/100/100 split), default 64/64 dims, batch 8, 50 steps with dev
  eval at steps 0 and 50. The backward-heavy case; no pseudo-labeling runs.
* ``jlsd``: ``jlsd_train`` on the criterion-5 setting (vocabulary 1200,
  100 labeled / 2000 unlabeled / 100 dev / 100 test, dims 32, r = 1) with a
  40-step teacher and a 60-step student, dev eval every 20 steps. The only
  workload with pseudo-labeling, teacher swaps and the 10x embedding table.
* ``extract``: ``kpex extract`` in-process on a checkpoint trained in set-up,
  over 100 unseen documents of 10 to 370 tokens (7,975 in all). Inference
  alone: forward, Viterbi and marginals, no backward, update or pseudo-label.
"""

from __future__ import annotations

import contextlib
import io
import json
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import kpex
import kpex.cli
from kpex import Dataset, Document, JlsdConfig, LabeledDocument

NO_EARLY_STOP = 10**9


class CheckFailed(Exception):
    """A timed call finished but its result is wrong."""


@dataclass
class Outcome:
    elapsed_s: float  # wall time of the timed call
    steps: int  # Adam steps, or documents decoded for extract
    docs: int  # documents through the model
    f1: float  # exact-match micro F1 on the held-out split
    output: bytes  # checkpoint or extracted JSONL, compared across repeats


def timed(call, tracer=None):
    """Run ``call()``; with a tracer, inside its wrappers. Returns (seconds, result)."""
    with tracer.installed() if tracer is not None else contextlib.nullcontext():
        start = time.perf_counter()
        result = call()
        elapsed = time.perf_counter() - start
    return elapsed, result


def _iterations(report) -> int:
    return sum(e["event"] == "iteration" for e in report.events)


class Supervised:
    name = "supervised"
    f1_floor = 0.9

    def __init__(self, seed: int):
        self.seed = seed
        # lr 5e-3 (the top of the upper-rate grid) reaches F1 ~1.0 in 50 steps
        self.config = JlsdConfig(
            T=50, eval_every=50, patience=NO_EARLY_STOP, lr_lower=5e-3, lr_upper=5e-3, seed=seed
        )

    def inputs(self) -> dict:
        corpus = kpex.gen_synthetic(self.seed, 700, vocab_size=120, keyword_fraction=0.25)
        parts = kpex.split_dataset(corpus, [500, 100, 100], names=["train", "dev", "test"])
        return dict(zip(("train", "dev", "test"), parts))

    def setup(self, work_dir: Path) -> None:
        self.data = self.inputs()
        self.vocab = kpex.build_vocab(self.data["train"], self.config.min_count)

    def run(self, work_dir: Path, tracer=None) -> Outcome:
        ckpt = work_dir / "supervised.ckpt"

        def call():
            model, report = kpex.train_supervised(
                self.data["train"], self.data["dev"], self.config, vocab=self.vocab
            )
            kpex.save_checkpoint(model, ckpt)
            return model, report

        elapsed, (model, report) = timed(call, tracer)
        steps = _iterations(report)
        if steps != self.config.T:
            raise CheckFailed(f"{steps} steps, expected {self.config.T}")
        return Outcome(
            elapsed, steps, steps * self.config.batch_size,
            kpex.dataset_f1(model, self.data["test"]).f1, ckpt.read_bytes(),
        )


class Jlsd:
    name = "jlsd"
    f1_floor = 0.6  # seeds score 0.79 to 0.90; a broken run scores far lower

    def __init__(self, seed: int):
        self.seed = seed
        # lr 5e-3 (the top of the upper-rate grid) lets the short budgets
        # reach a steady, unsaturated F1 (about 0.87) with three swaps
        self.config = JlsdConfig(
            T=60, teacher_T=40, eval_every=20, patience=NO_EARLY_STOP, batch_size=8, r=1.0,
            embed_dim=32, hidden_dim=32, lr_lower=5e-3, lr_upper=5e-3, seed=seed,
        )

    def inputs(self) -> dict:
        corpus = kpex.gen_synthetic(self.seed, 2300, vocab_size=1200, keyword_fraction=0.3)
        names = ["labeled", "unlabeled", "dev", "test"]
        data = dict(zip(names, kpex.split_dataset(corpus, [100, 2000, 100, 100], names=names)))
        # the pool's gold labels stay hidden from training
        data["unlabeled"] = Dataset("unlabeled", [d.doc for d in data["unlabeled"]])
        return data

    def setup(self, work_dir: Path) -> None:
        self.data = self.inputs()

    def run(self, work_dir: Path, tracer=None) -> Outcome:
        ckpt = work_dir / "jlsd.ckpt"
        cfg = self.config

        def call():
            model, report = kpex.jlsd_train(
                self.data["labeled"], self.data["unlabeled"], self.data["dev"], cfg
            )
            kpex.save_checkpoint(model, ckpt)
            return model, report

        elapsed, (model, report) = timed(call, tracer)
        teacher_steps = _iterations(report.prior_phase)
        student_steps = _iterations(report)
        if (teacher_steps, student_steps) != (cfg.teacher_T, cfg.T):
            raise CheckFailed(
                f"{teacher_steps}+{student_steps} steps, expected {cfg.teacher_T}+{cfg.T}"
            )
        docs = teacher_steps * cfg.batch_size + student_steps * (
            cfg.batch_size + cfg.unlabeled_per_batch
        )
        return Outcome(
            elapsed, teacher_steps + student_steps, docs,
            kpex.dataset_f1(model, self.data["test"]).f1, ckpt.read_bytes(),
        )


class Extract:
    name = "extract"
    f1_floor = 0.9
    n_docs = 100
    max_tokens = 450

    def __init__(self, seed: int):
        self.seed = seed
        self.fixture_config = JlsdConfig(
            T=40, eval_every=40, patience=NO_EARLY_STOP, lr_lower=5e-3, lr_upper=5e-3, seed=seed
        )

    def _lengths(self) -> np.ndarray:
        # Token length of each extract document: 9 + geometric, 10 to 370
        # tokens with a mean of ~80, never above max_tokens. The generator is fixed, so every seed decodes
        # the same length mix and token count and docs_per_s compares across
        # seeds; only the content depends on the seed.
        lengths = 9 + np.random.default_rng(0).geometric(1 / 60, self.n_docs)
        return np.minimum(lengths, self.max_tokens)

    def inputs(self) -> dict:
        lengths = self._lengths()
        pool_size = int(lengths.sum()) // 10 + self.n_docs  # generated docs have >= 10 tokens
        corpus = kpex.gen_synthetic(
            self.seed, 700 + pool_size, vocab_size=120, keyword_fraction=0.25
        )
        train, dev, _, pool = kpex.split_dataset(
            corpus, [500, 100, 100, pool_size], names=["train", "dev", "test", "pool"]
        )
        pieces = iter(pool.documents)
        docs, sources = [], []
        for i, length in enumerate(lengths):
            # concatenate unseen documents, cut to the target length; a cut
            # keyphrase stays a valid (shorter) gold phrase
            parts = []
            while sum(len(p.tokens) for p in parts) < length:
                parts.append(next(pieces))
            tokens = tuple(t for p in parts for t in p.tokens)[:length]
            labels = tuple(l for p in parts for l in p.labels)[:length]
            docs.append(LabeledDocument(doc=Document(f"x{i:04d}", tokens), labels=labels))
            sources.append(tuple(p.id for p in parts))
        return {"train": train, "dev": dev, "docs": docs, "sources": sources}

    def setup(self, work_dir: Path) -> None:
        self.data = self.inputs()
        self.tokens = sum(len(d.tokens) for d in self.data["docs"])
        self.ckpt = work_dir / "fixture.ckpt"
        self.in_path = work_dir / "extract-in.jsonl"
        model, _ = kpex.train_supervised(self.data["train"], self.data["dev"], self.fixture_config)
        kpex.save_checkpoint(model, self.ckpt)
        kpex.save_jsonl(Dataset("extract", [d.doc for d in self.data["docs"]]), self.in_path)

    def run(self, work_dir: Path, tracer=None) -> Outcome:
        out_path = work_dir / "extract-out.jsonl"
        argv = ["extract", "--ckpt", str(self.ckpt), "--test", str(self.in_path), "--out", str(out_path)]

        def call():
            with contextlib.redirect_stdout(io.StringIO()):
                return kpex.cli.main(argv)

        elapsed, code = timed(call, tracer)
        if code != 0:
            raise CheckFailed(f"kpex extract exited with code {code}")
        output = out_path.read_bytes()
        records = [json.loads(line) for line in output.decode("utf-8").splitlines()]
        docs = self.data["docs"]
        if [r["id"] for r in records] != [d.id for d in docs]:
            raise CheckFailed("extracted records do not match the input documents")
        n_pred = n_gold = n_match = 0
        for rec, doc in zip(records, docs):
            pred = {tuple(p) for p in rec["phrases"]}
            gold = kpex.gold_phrases(doc)
            n_pred, n_gold, n_match = n_pred + len(pred), n_gold + len(gold), n_match + len(pred & gold)
        f1 = 2 * n_match / (n_pred + n_gold) if n_pred + n_gold else 0.0
        return Outcome(elapsed, len(docs), len(docs), f1, output)


WORKLOADS = {w.name: w for w in (Supervised, Jlsd, Extract)}
