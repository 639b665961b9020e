"""kpex: keyphrase extraction as BIO sequence labeling with a BiLSTM-CRF
tagger trained by exact gradients, plus self-distillation over unlabeled
documents."""

from .corpus import (
    Dataset,
    Document,
    LabeledDocument,
    build_vocab,
    gen_synthetic,
    load_jsonl,
    save_jsonl,
    split_dataset,
)
from .encoder import encode_forward  # bench/test_bench.py pins kpex.encode_forward as imported
from .errors import ConfigError, DataError, KpexError, NumericError
from .jlsd import (
    JlsdConfig,
    jlsd_train,
    train_simple_joint,
    train_simple_pretrain,
    train_supervised,
)
from .metrics import dataset_f1, evaluate, extract, gold_phrases, rank_phrases
from .model import init_model, load_checkpoint, save_checkpoint

__version__ = "0.1.0"
