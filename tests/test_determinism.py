"""Byte-identical reruns under both BLAS thread settings.

Batched training and decoding run matrix products large enough for a
multi-threaded BLAS to split, so the criterion-7 configuration is rerun in
fresh processes, twice with ``OPENBLAS_NUM_THREADS=1`` and twice with the
thread count left to the library. Each run trains in all four modes and hashes
every trained model's checkpoint, event log, ranked dev-set confidences and
extracted dev-set phrases, spans and label paths. The ``train``, ``extract``,
``rank`` and ``eval --k 5`` subcommands, at the same shape, also write the same
files under one and under two BLAS threads; ``jlsd`` does not yet.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from kpex import gen_synthetic, save_jsonl, split_dataset

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


def _python(code: str, threads: str | None, *args) -> str:
    """The stdout of ``code`` run in a fresh interpreter with ``threads`` BLAS threads, or the
    library's default."""
    env = {k: v for k, v in os.environ.items() if k not in THREAD_VARS}
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    env["PYTHONPATH"] = os.pathsep.join([str(SRC), env.get("PYTHONPATH", "")])
    done = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


@pytest.mark.parametrize("threads", ["1", None], ids=["one_thread", "library_default"])
def test_reruns_are_byte_identical_under_a_blas_setting(threads):
    first = _python(RUN, threads)
    assert len(first.split()) == 16
    assert _python(RUN, threads) == first


CLI = """
import sys
from kpex.cli import main

data, out = sys.argv[1:]
assert main(["train", "--train", f"{data}/labeled.jsonl", "--dev", f"{data}/dev.jsonl",
             "--config", f"{data}/config.json", "--out", out]) == 0
for mode in ("extract", "rank"):
    assert main([mode, "--ckpt", f"{out}/model.ckpt", "--test", f"{data}/dev.jsonl",
                 "--out", f"{out}/{mode}.jsonl"]) == 0
assert main(["eval", "--ckpt", f"{out}/model.ckpt", "--test", f"{data}/dev.jsonl", "--k", "5",
             "--out", f"{out}/eval.jsonl"]) == 0
"""


def test_train_and_extract_write_the_same_bytes_under_one_and_two_blas_threads(tmp_path):
    ds = gen_synthetic(8, 260, vocab_size=60, keyword_fraction=0.25)
    labeled, _, dev = split_dataset(ds, [40, 180, 40])
    save_jsonl(labeled, tmp_path / "labeled.jsonl")
    save_jsonl(dev, tmp_path / "dev.jsonl")
    config = {"T": 30, "eval_every": 10, "batch_size": 4, "seed": 13, "embed_dim": 8,
              "hidden_dim": 8}
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    files = ("model.ckpt", "events.jsonl", "extract.jsonl", "rank.jsonl", "eval.jsonl")
    written = []
    for threads in ("1", "2"):  # never more: the point is a second thread, not a large pool
        out = tmp_path / f"threads{threads}"
        _python(CLI, threads, str(tmp_path), str(out))
        written.append([(out / name).read_bytes() for name in files])
    assert all(written[0]) and written[0] == written[1]
