"""kpex: keyphrase extraction as BIO sequence labeling with a BiLSTM-CRF
tagger trained by exact gradients, plus self-distillation over unlabeled
documents."""

from .corpus import (
    Dataset,
    Document,
    LabeledDocument,
    Vocabulary,
    bio_to_phrases,
    build_vocab,
    gen_synthetic,
    keyphrases_to_bio,
    load_jsonl,
    make_synthetic_rule,
    sample_batch,
    save_jsonl,
    split_dataset,
)
from .crf import CrfParams, log_partition, marginals, nll_and_grad, viterbi
from .encoder import (
    EncoderDims,
    EncoderParams,
    OptimizerState,
    adam_step,
    encode_backward,
    encode_forward,
    init_params,
)
from .errors import ConfigError, DataError, KpexError, NumericError
from .jlsd import (
    JlsdConfig,
    TrainReport,
    jlsd_train,
    pseudo_label,
    train_simple_joint,
    train_simple_pretrain,
    train_supervised,
)
from .metrics import (
    MetricReport,
    PhrasePrediction,
    dataset_f1,
    evaluate,
    exact_f1,
    extract,
    f1_at_k,
    gold_phrases,
    rank_phrases,
    rank_predictions,
)
from .model import Model, checkpoint_bytes, init_model, load_checkpoint, model_tensors, save_checkpoint

__version__ = "0.1.0"
