"""Training engines.

Four modes share one mini-batch Adam loop:

* ``train_supervised``: the labeled-only baseline;
* ``jlsd_train``: joint learning by self-distillation. A teacher is first
  trained on the labeled data, a student starts as an exact parameter copy,
  and each iteration the student takes one gradient step on a batch of
  labeled documents plus teacher-pseudo-labeled unlabeled documents. When
  the student's dev score strictly beats the best seen so far, the teacher
  is overwritten with the student's parameters, so the teacher's quality
  never decreases;
* ``train_simple_pretrain``: train on a labeled source corpus, then keep
  training on the target with a fresh optimizer;
* ``train_simple_joint``: train on the target plus a freshly sampled
  same-size slice of the labeled source, the slice renewed every epoch.

Every mode is a deterministic function of (datasets, config, seed): reruns
produce byte-identical checkpoints and reports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import Dataset, LabeledDocument, bio_to_phrases, build_vocab, sample_batch
from .crf import crf_tensors, nll_and_grad, viterbi
from .encoder import OptimizerState, adam_step, encode_backward, encode_forward, time_major
from .errors import ConfigError, DataError
from .metrics import dataset_f1
from .model import Model, init_model, model_tensors

@dataclass
class JlsdConfig:
    """Shared configuration for all training modes.

    ``r`` is the unlabeled-to-labeled sampling ratio: each iteration the
    student sees ``batch_size`` labeled and ``round(r * batch_size)``
    pseudo-labeled documents. ``lr_lower`` applies to the embedding table
    (default 1e-3: cold-start embeddings need larger steps than the 2e-5 to
    5e-5 fine-tuning rates of a pretrained encoder), ``lr_upper`` to
    everything else. ``T = 0`` means evaluate-only, used by degenerate phases.
    """

    T: int = 2000
    r: float = 1.0
    batch_size: int = 8
    lr_lower: float = 1e-3
    lr_upper: float = 1e-3
    eval_every: int = 50
    patience: int = 10
    seed: int = 0
    embed_dim: int = 64
    hidden_dim: int = 64
    min_count: int = 1
    teacher_T: int | None = None  # jlsd teacher phase budget; None = T
    source_T: int | None = None  # pretrain source phase budget; None = T
    source_pool_size: int | None = None  # joint per-epoch source draw; None = |target_train|

    def __post_init__(self):
        checks = [
            (self.T >= 0, "T must be >= 0"),
            (0 < self.r < math.inf, "r must be finite and > 0"),
            (self.batch_size >= 1, "batch_size must be >= 1"),
            (0 <= self.lr_lower < math.inf, "lr_lower must be finite and >= 0"),
            (0 <= self.lr_upper < math.inf, "lr_upper must be finite and >= 0"),
            (self.eval_every >= 1, "eval_every must be >= 1"),
            (self.patience >= 1, "patience must be >= 1"),
            (self.seed >= 0, "seed must be >= 0"),
            (self.embed_dim >= 1 and self.hidden_dim >= 1, "model dims must be >= 1"),
            (self.min_count >= 1, "min_count must be >= 1"),
            (self.teacher_T is None or self.teacher_T >= 0, "teacher_T must be >= 0"),
            (self.source_T is None or self.source_T >= 0, "source_T must be >= 0"),
            (
                self.source_pool_size is None or self.source_pool_size >= 0,
                "source_pool_size must be >= 0",
            ),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(msg)

    @property
    def unlabeled_per_batch(self) -> int:
        # round half up: ratios like 0.25 and 1.5 can land on a half
        return int(math.floor(self.r * self.batch_size + 0.5))


@dataclass
class TrainReport:
    """Event log of one training run.

    ``events`` holds one dict per iteration, evaluation, teacher swap, pool
    refresh, or early stop, in order. Serializes to a JSONL stream that is
    byte-identical across reruns with the same seed.
    """

    events: list = field(default_factory=list)
    best_score: float = 0.0
    best_iteration: int = 0
    checkpoint_path: str | None = None
    prior_phase: "TrainReport | None" = None

    @property
    def swap_events(self) -> list[tuple[int, float, float]]:
        return [
            (e["iteration"], e["old_score"], e["new_score"])
            for e in self.events
            if e["event"] == "swap"
        ]

    @property
    def eval_scores(self) -> list[tuple[int, float]]:
        return [
            (e["iteration"], e["dev_f1"]) for e in self.events if e["event"] == "eval"
        ]

    def to_jsonl(self) -> str:
        prior = self.prior_phase.events if self.prior_phase is not None else []
        final = {
            "event": "final",
            "best_iteration": self.best_iteration,
            "best_score": self.best_score,
            "checkpoint": self.checkpoint_path,
        }
        records = [{"phase": "pretraining", **e} for e in prior] + self.events + [final]
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def _require_labeled(dataset: Dataset, role: str) -> None:
    if len(dataset) == 0:
        raise DataError(f"{role} dataset is empty")
    if not dataset.labeled:
        raise DataError(f"{role} dataset must be fully labeled")


def _batch_gradients(model: Model, batch) -> tuple[float, float, float, dict]:
    """Mean-per-document NLL and gradients over a mixed gold/pseudo batch,
    computed as one padded time-major batch."""
    ids, lengths = time_major([model.vocab.encode(ld.doc.tokens) for ld in batch])
    gold, _ = time_major([ld.labels for ld in batch])
    emissions, cache = encode_forward(model.encoder, ids, lengths)
    losses, d_emissions, d_crf = nll_and_grad(emissions, model.crf, gold, lengths)
    grads = {**encode_backward(model.encoder, cache, d_emissions), **crf_tensors(d_crf)}
    n = len(batch)
    for g in grads.values():
        g /= n
    sums = {"gold": [0.0, 0], "pseudo": [0.0, 0]}  # label source -> [loss sum, documents]
    for ld, loss in zip(batch, losses.tolist()):
        sums[ld.label_source][0] += loss
        sums[ld.label_source][1] += 1
    means = [total / count if count else 0.0 for total, count in sums.values()]
    return *means, (sums["gold"][0] + sums["pseudo"][0]) / n, grads


def _seed_stream(config: JlsdConfig, index: int) -> np.random.Generator:
    """Child ``index`` of the run's seed: 0 initializes a fresh model, 1 draws
    the batches."""
    return np.random.default_rng(np.random.SeedSequence(config.seed).spawn(2)[index])


def _fresh_model(vocab, config: JlsdConfig) -> Model:
    return init_model(vocab, config.embed_dim, config.hidden_dim, _seed_stream(config, 0))


def _train_loop(
    model: Model,
    dev: Dataset,
    config: JlsdConfig,
    make_batch,
    events: list,
    on_new_best=None,
    initial_score: float | None = None,
) -> tuple[Model, float, int]:
    """The shared loop: evaluate at iteration 0 (unless the model's dev F1 is
    given), then Adam steps with periodic dev evaluation, best-checkpoint
    tracking, and patience-based early stopping on strict improvement.
    ``make_batch(it, rng)`` draws from the seed's data stream."""
    data_rng = _seed_stream(config, 1)
    opt = OptimizerState(lr_lower=config.lr_lower, lr_upper=config.lr_upper)
    params = model_tensors(model)

    best_score = dataset_f1(model, dev).f1 if initial_score is None else initial_score
    best_model = model.copy()
    best_iteration = 0
    events.append({"event": "eval", "iteration": 0, "dev_f1": best_score, "improved": True})

    stale = 0
    for it in range(1, config.T + 1):
        batch = make_batch(it, data_rng)
        loss_labeled, loss_pseudo, loss, grads = _batch_gradients(model, batch)
        adam_step(params, grads, opt)
        events.append(
            {
                "event": "iteration",
                "iteration": it,
                "loss": loss,
                "loss_labeled": loss_labeled,
                "loss_pseudo": loss_pseudo,
            }
        )
        if it % config.eval_every == 0 or it == config.T:
            score = dataset_f1(model, dev).f1
            improved = score > best_score
            events.append(
                {"event": "eval", "iteration": it, "dev_f1": score, "improved": improved}
            )
            if improved:
                if on_new_best is not None:
                    on_new_best(it, best_score, score)
                best_score = score
                best_model = model.copy()
                best_iteration = it
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    events.append({"event": "early_stop", "iteration": it})
                    break
    return best_model, best_score, best_iteration


def train_supervised(
    train: Dataset,
    dev: Dataset,
    config: JlsdConfig,
    init: Model | None = None,
    vocab=None,
) -> tuple[Model, TrainReport]:
    """Mini-batch Adam training of the CRF negative log-likelihood.

    Evaluates exact-match F1 on ``dev`` every ``eval_every`` iterations and
    returns the best-on-dev checkpoint. ``init`` continues training from an
    existing model (fresh optimizer state); otherwise parameters are
    initialized from the seed and the vocabulary is built from ``train``.
    """
    _require_labeled(train, "train")
    _require_labeled(dev, "dev")
    if init is None and vocab is None:
        vocab = build_vocab(train, config.min_count)
    model = init.copy() if init is not None else _fresh_model(vocab, config)

    events: list = []
    best_model, best_score, best_iteration = _train_loop(
        model, dev, config, lambda it, rng: sample_batch(train, config.batch_size, rng), events
    )
    return best_model, TrainReport(events, best_score, best_iteration)


def pseudo_label(teacher: Model, docs) -> list[LabeledDocument]:
    """Hard pseudo-labels: Viterbi-decode the documents with the teacher, as
    one batch.

    Accepts Documents or LabeledDocuments (existing labels are ignored);
    unknown tokens map to UNK through the teacher's vocabulary.
    """
    docs = [d.doc if isinstance(d, LabeledDocument) else d for d in docs]
    if not docs:
        return []
    ids, lengths = time_major([teacher.vocab.encode(doc.tokens) for doc in docs])
    emissions, _ = encode_forward(teacher.encoder, ids, lengths)
    paths, _ = viterbi(emissions, teacher.crf, lengths)
    out = []
    for b, doc in enumerate(docs):
        labels = tuple(paths[: lengths[b], b].tolist())
        phrases = frozenset(p for _, p in bio_to_phrases(doc.tokens, labels))
        out.append(
            LabeledDocument(doc=doc, labels=labels, keyphrases=phrases, label_source="pseudo")
        )
    return out


def jlsd_train(
    labeled: Dataset, unlabeled: Dataset, dev: Dataset, config: JlsdConfig
) -> tuple[Model, TrainReport]:
    """Joint learning by self-distillation.

    First trains a teacher on the labeled data alone, then runs ``T``
    student iterations. Each iteration samples ``batch_size`` labeled and
    ``round(r * batch_size)`` unlabeled documents, pseudo-labels the latter
    with the current teacher on the fly, and takes one gradient step on the
    combined batch with equal per-document weight. Whenever the student's
    dev score strictly exceeds the best seen, the teacher's parameters are
    overwritten with the student's and a swap event is recorded, which makes
    the sequence of swap scores strictly increasing. Returns the best-on-dev
    student.
    """
    _require_labeled(labeled, "labeled")
    _require_labeled(dev, "dev")
    if len(unlabeled) == 0:
        raise DataError("unlabeled dataset is empty; use train_supervised instead")

    vocab = build_vocab(list(labeled.documents) + list(unlabeled.documents), config.min_count)
    # the teacher phase gets its own seed so the student loop's sampling
    # stream matches what train_supervised would draw under config.seed
    teacher_config = replace(
        config,
        seed=config.seed + 1,
        T=config.teacher_T if config.teacher_T is not None else config.T,
    )
    teacher, teacher_report = train_supervised(labeled, dev, teacher_config, vocab=vocab)

    student = teacher.copy()  # the student starts as an exact parameter copy
    teacher_tensors = model_tensors(teacher)
    student_tensors = model_tensors(student)

    events: list = []
    k = config.unlabeled_per_batch

    def make_batch(it, rng):
        batch = sample_batch(labeled, config.batch_size, rng)
        if k > 0:
            batch = batch + pseudo_label(teacher, sample_batch(unlabeled, k, rng))
        return batch

    def swap_teacher(iteration, old_score, new_score):
        for name, arr in teacher_tensors.items():
            np.copyto(arr, student_tensors[name])
        events.append(
            {
                "event": "swap",
                "iteration": iteration,
                "old_score": old_score,
                "new_score": new_score,
            }
        )

    best_model, best_score, best_iteration = _train_loop(
        student, dev, config, make_batch, events, swap_teacher, teacher_report.best_score
    )
    report = TrainReport(events, best_score, best_iteration, prior_phase=teacher_report)
    return best_model, report


def _transfer_vocab(source, target_train, target_dev, config: JlsdConfig):
    """Check a transfer mode's three labeled datasets; one vocabulary covers
    source and target, so the embedding table carries over."""
    _require_labeled(source, "source")
    _require_labeled(target_train, "target_train")
    _require_labeled(target_dev, "target_dev")
    return build_vocab(list(source.documents) + list(target_train.documents), config.min_count)


def train_simple_pretrain(
    source: Dataset, target_train: Dataset, target_dev: Dataset, config: JlsdConfig
) -> tuple[Model, TrainReport]:
    """Train on the labeled source corpus, then keep training on the target.

    The target phase starts from the source phase's best checkpoint with a
    fresh optimizer. Both phases share one vocabulary built over source and
    target so the embedding table carries over. ``config.source_T`` bounds
    the source phase (0 skips it entirely).
    """
    vocab = _transfer_vocab(source, target_train, target_dev, config)
    source_config = replace(
        config, T=config.source_T if config.source_T is not None else config.T
    )
    warm, source_report = train_supervised(source, target_dev, source_config, vocab=vocab)
    best, report = train_supervised(target_train, target_dev, config, init=warm)
    report.prior_phase = source_report
    return best, report


def train_simple_joint(
    source: Dataset, target_train: Dataset, target_dev: Dataset, config: JlsdConfig
) -> tuple[Model, TrainReport]:
    """Train on the target plus a per-epoch refreshed sample of the source.

    At the start of every epoch (one epoch = enough batches to cover the
    pool once) ``source_pool_size`` source documents (default:
    ``|target_train|``) are drawn and concatenated with the target training
    set; batches are then sampled uniformly from that pool. Evaluation and
    early stopping behave exactly as in :func:`train_supervised`; with a
    source draw of zero the run is identical to it.
    """
    vocab = _transfer_vocab(source, target_train, target_dev, config)
    draw = (
        config.source_pool_size
        if config.source_pool_size is not None
        else len(target_train)
    )
    pool = list(target_train.documents)
    epoch_len = max(1, math.ceil((len(target_train) + draw) / config.batch_size))

    events: list = []

    def make_batch(it, rng):
        nonlocal pool
        if draw > 0 and (it - 1) % epoch_len == 0:
            pool = list(target_train.documents) + sample_batch(source, draw, rng)
            events.append(
                {"event": "pool_refresh", "iteration": it, "pool_size": len(pool)}
            )
        return sample_batch(pool, config.batch_size, rng)

    best_model, best_score, best_iteration = _train_loop(
        _fresh_model(vocab, config), target_dev, config, make_batch, events
    )
    return best_model, TrainReport(events, best_score, best_iteration)
