"""Byte-identical reruns under both BLAS thread settings.

Batched training and decoding run matrix products large enough for a
multi-threaded BLAS to split, so the criterion-7 configuration is rerun in
fresh processes, twice with ``OPENBLAS_NUM_THREADS=1`` and twice with the
thread count left to the library. Each run trains in all four modes and hashes
every trained model's checkpoint, event log, ranked dev-set confidences and
extracted dev-set phrases, spans and label paths.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"

RUN = """
import hashlib
from kpex import (
    JlsdConfig, gen_synthetic, jlsd_train, split_dataset, train_simple_joint,
    train_simple_pretrain, train_supervised,
)
from kpex.metrics import decode_batches
from kpex.model import checkpoint_bytes

ds = gen_synthetic(8, 260, vocab_size=60, keyword_fraction=0.25)
labeled, unlabeled, dev = split_dataset(ds, [40, 180, 40])
cfg = JlsdConfig(
    T=30, teacher_T=20, eval_every=10, batch_size=4, seed=13, embed_dim=8, hidden_dim=8,
)
runs = (
    train_supervised(labeled, dev, cfg),
    jlsd_train(labeled, unlabeled, dev, cfg),
    # the unlabeled split keeps its labels, so it serves as the source corpus
    train_simple_pretrain(unlabeled, labeled, dev, cfg),
    train_simple_joint(unlabeled, labeled, dev, cfg),
)
for model, report in runs:
    print(hashlib.sha256(checkpoint_bytes(model)).hexdigest())
    print(hashlib.sha256(report.to_jsonl().encode("utf-8")).hexdigest())
    ranked = decode_batches(model, dev, rank=True)
    confidences = [(p.phrase, p.span, p.confidence.hex()) for doc in ranked for p in doc]
    print(hashlib.sha256(repr(confidences).encode("utf-8")).hexdigest())
    # the extract path: phrase sets sorted, since a set's order depends on the string hash seed
    extracted = [(sorted(s), spans, path) for s, spans, path in decode_batches(model, dev)]
    print(hashlib.sha256(repr(extracted).encode("utf-8")).hexdigest())
"""

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "GOTO_NUM_THREADS")


def _digests(threads: str | None) -> str:
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", RUN], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


@pytest.mark.parametrize("threads", ["1", None], ids=["one_thread", "library_default"])
def test_reruns_are_byte_identical_under_a_blas_setting(threads):
    first = _digests(threads)
    assert len(first.split()) == 16
    assert _digests(threads) == first
