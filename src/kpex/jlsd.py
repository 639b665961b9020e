"""Training engines.

Four modes share one mini-batch Adam loop:

* ``train_supervised``: the labeled-only baseline;
* ``jlsd_train``: joint learning by self-distillation. A teacher is first
  trained on the labeled data, then trained on as the student: each
  iteration the student takes one gradient step on a batch of labeled
  documents plus unlabeled documents pseudo-labeled, a window of draws at a
  time, by the teacher: the best-on-dev checkpoint so far. It moves to the
  student only when the student's dev score strictly beats the best seen,
  so the teacher's quality never decreases;
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
import typing
from collections import deque
from dataclasses import dataclass, field, replace

import numpy as np

from .corpus import Dataset, build_vocab, sample_batch
from .crf import nll_and_grad, viterbi  # noqa: F401 (bench traces jlsd.viterbi)
from .encoder import OptimizerState, adam_step, encode_backward, encode_forward, pack
from .errors import ConfigError, DataError
from .metrics import encoded_f1, gold_phrases, label_paths
from .model import Model, init_model

MAX_DRAW = 4096  # the most documents drawn from one dataset for one training step
MAX_POOL = 2**20  # the most source documents drawn into joint's per-epoch pool
MAX_DIM = 1024  # the largest embed_dim and hidden_dim: a 64 MiB LSTM weight tensor


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
        for name, types in CONFIG_TYPES.items():
            value = getattr(self, name)
            # a bool is no number, an int is also a float, and null fits only X | None
            if type(value) not in types and not (type(value) is int and float in types):
                want = " or ".join("null" if t is type(None) else t.__name__ for t in types)
                raise ConfigError(f"config key {name} must be {want}, "
                                  f"not {json.dumps(value, default=repr)}")
        drawn = self.r * min(self.batch_size, MAX_DRAW)  # min: a huge int overflows a float
        checks = [
            (self.T >= 0, "T must be >= 0"),
            (0 < self.r < math.inf, "r must be finite and > 0"),
            (1 <= self.batch_size <= MAX_DRAW, f"batch_size must be in [1, {MAX_DRAW}]"),
            (drawn <= MAX_DRAW, f"r * batch_size must be <= {MAX_DRAW}"),
            (0 <= self.lr_lower < math.inf, "lr_lower must be finite and >= 0"),
            (0 <= self.lr_upper < math.inf, "lr_upper must be finite and >= 0"),
            (self.eval_every >= 1, "eval_every must be >= 1"),
            (self.patience >= 1, "patience must be >= 1"),
            (self.seed >= 0, "seed must be >= 0"),
            (1 <= self.embed_dim <= MAX_DIM and 1 <= self.hidden_dim <= MAX_DIM,
             f"embed_dim and hidden_dim must be in [1, {MAX_DIM}]"),
            (self.min_count >= 1, "min_count must be >= 1"),
            (self.teacher_T is None or self.teacher_T >= 0, "teacher_T must be >= 0"),
            (self.source_T is None or self.source_T >= 0, "source_T must be >= 0"),
            (self.source_pool_size is None or 0 <= self.source_pool_size <= MAX_POOL,
             f"source_pool_size must be in [0, {MAX_POOL}]"),
        ]
        for ok, msg in checks:
            if not ok:
                raise ConfigError(msg)

    @property
    def unlabeled_per_batch(self) -> int:
        # round half up: ratios like 0.25 and 1.5 can land on a half
        return int(math.floor(self.r * self.batch_size + 0.5))


# field -> the types its value may have (``X | None`` unpacked); a CLI flag parses as the first
CONFIG_TYPES = {n: typing.get_args(t) or (t,) for n, t in typing.get_type_hints(JlsdConfig).items()}


@dataclass
class TrainReport:
    """Event log of one training phase, as ``_train_loop`` records it.

    ``events`` holds one dict per iteration, evaluation, teacher swap, pool
    refresh, or early stop, in order. ``prior_phase`` is the report of the
    phase that trained this one's starting model (jlsd's teacher phase,
    pretrain's source phase), or None. Serializes to a JSONL stream, the prior
    phase's records first, that is byte-identical across reruns with the same
    seed, wherever it is written.
    """

    events: list = field(default_factory=list)
    best_score: float = 0.0
    best_iteration: int = 0
    prior_phase: "TrainReport | None" = None

    @property
    def swap_events(self) -> list[tuple[int, float, float]]:
        swaps = (e for e in self.events if e["event"] == "swap")
        return [(e["iteration"], e["old_score"], e["new_score"]) for e in swaps]

    @property
    def eval_scores(self) -> list[tuple[int, float]]:
        return [(e["iteration"], e["dev_f1"]) for e in self.events if e["event"] == "eval"]

    def to_jsonl(self) -> str:
        prior = self.prior_phase.events if self.prior_phase is not None else []
        final = {
            "event": "final",
            "best_iteration": self.best_iteration,
            "best_score": self.best_score,
        }
        records = [{"phase": "pretraining", **e} for e in prior] + self.events + [final]
        return "".join(json.dumps(r, sort_keys=True) + "\n" for r in records)


def _require_labeled(dataset: Dataset, role: str) -> None:
    if len(dataset) == 0:
        raise DataError(f"{role} dataset is empty")
    if not dataset.labeled:
        raise DataError(f"{role} dataset must be fully labeled")


class _Run:
    """What a training run works out once from its data and drops when it ends: the rows of its
    labeled sets, and its dev set's documents, token ids and folded gold phrase sets."""

    def __init__(self, vocab, dev: Dataset):
        self.vocab, docs = vocab, list(dev)
        self.dev = docs, [vocab.encode(d.tokens) for d in docs], [gold_phrases(d) for d in docs]

    def rows(self, dataset) -> list:
        """A labeled dataset's training rows: each document's (token ids, labels), in order."""
        return [(self.vocab.encode(d.tokens), d.labels) for d in dataset]


def _batch_gradients(model: Model, gold: list, pseudo: list, grad: Model):
    """Mean NLLs (gold, pseudo or 0.0 for none, all) over ``gold`` then ``pseudo`` rows as one
    packed batch, laid out once; its gradient fills ``grad``, a buffer of ``model``'s layout."""
    batch = gold + pseudo
    layout = pack([len(ids) for ids, _ in batch])
    ids, labels = layout.rows([ids for ids, _ in batch]), layout.rows([y for _, y in batch])
    emissions, cache = encode_forward(model.encoder, ids, layout)
    losses, d_emissions, d_crf = nll_and_grad(emissions, model.crf, labels, layout)
    encode_backward(model.encoder, cache, d_emissions, out=grad.encoder)
    out = grad.crf
    out.trans[...], out.start[...], out.end[...] = d_crf.trans, d_crf.start, d_crf.end
    n = len(batch)
    grad.flat /= n
    sums, counts = [0.0, 0.0], (len(gold), len(pseudo))
    for i, loss in enumerate(losses.tolist()):  # in order with +=: sum() compensates from 3.12
        sums[i >= counts[0]] += loss
    means = [total / count if count else 0.0 for total, count in zip(sums, counts)]
    return *means, (sums[0] + sums[1]) / n


def _seed_stream(config: JlsdConfig, index: int) -> np.random.Generator:
    """Child ``index`` of the run's seed: 0 initializes a fresh model, 1 draws
    the batches."""
    return np.random.default_rng(np.random.SeedSequence(config.seed).spawn(2)[index])


def _next_eval(it: int, config: JlsdConfig) -> int:
    """The first dev eval at or after ``it``: each ``eval_every``-th iteration, and the last."""
    return min(config.T, -(-it // config.eval_every) * config.eval_every)


def _fresh_model(vocab, config: JlsdConfig) -> Model:
    return init_model(vocab, config.embed_dim, config.hidden_dim, _seed_stream(config, 0))


def _train_loop(
    model: Model, run: _Run, config: JlsdConfig, make_batch, prior=None, swaps=False
) -> tuple[Model, TrainReport]:
    """The shared loop, which makes each phase's event list and report: evaluate at
    iteration 0, then Adam steps with periodic dev evaluation, best-checkpoint tracking, and
    patience-based early stopping on strict improvement, all on ``run``'s data.
    ``make_batch(it, rng, best, events)`` draws a step's (gold, pseudo) rows from the seed's
    data stream; ``best`` is the best-on-dev checkpoint so far, starting as a copy of
    ``model``, and a record it appends to ``events`` precedes the step's. ``prior``, the report
    of the phase that trained ``model``, gives the iteration-0 score without a dev decode and
    becomes the report's ``prior_phase``. With ``swaps``, each improving eval is followed by a
    swap record: the teacher moves to the student."""
    data_rng = _seed_stream(config, 1)
    opt = OptimizerState(lr_lower=config.lr_lower, lr_upper=config.lr_upper)
    grad = Model(model.dims, model.vocab)
    events: list = []

    best_score = encoded_f1(model, *run.dev).f1 if prior is None else prior.best_score
    best_model = model.copy()
    best_iteration = 0
    events.append({"event": "eval", "iteration": 0, "dev_f1": best_score, "improved": True})

    stale = 0
    for it in range(1, config.T + 1):
        gold, pseudo = make_batch(it, data_rng, best_model, events)
        loss_labeled, loss_pseudo, loss = _batch_gradients(model, gold, pseudo, grad)
        adam_step(model, grad, opt)
        events.append({"event": "iteration", "iteration": it, "loss": loss,
                       "loss_labeled": loss_labeled, "loss_pseudo": loss_pseudo})
        if it == _next_eval(it, config):
            score = encoded_f1(model, *run.dev).f1
            improved = score > best_score
            events.append({"event": "eval", "iteration": it, "dev_f1": score, "improved": improved})
            if improved:
                if swaps:
                    events.append({"event": "swap", "iteration": it, "old_score": best_score,
                                   "new_score": score})
                best_score = score
                best_model = model.copy()
                best_iteration = it
                stale = 0
            else:
                stale += 1
                if stale >= config.patience:
                    events.append({"event": "early_stop", "iteration": it})
                    break
    return best_model, TrainReport(events, best_score, best_iteration, prior)


def train_supervised(
    train: Dataset, dev: Dataset, config: JlsdConfig, init: Model | None = None, vocab=None
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
    run = _Run(vocab if init is None else init.vocab, dev)
    return _supervised(run.rows(train), run, config, None if init is None else (init.copy(), None))


def _supervised(rows: list, run: _Run, config: JlsdConfig, start=None):
    """``train_supervised`` on a checked dataset's rows, scored on ``run``'s dev set.
    ``start`` is the ``(model, report or None)`` to train on in place, such as an earlier
    phase's return value, whose report then gives the iteration-0 score; None starts a fresh
    model from the seed."""
    model, prior = start or (_fresh_model(run.vocab, config), None)

    def make_batch(it, rng, best, events):
        return sample_batch(rows, config.batch_size, rng), []

    return _train_loop(model, run, config, make_batch, prior)


def pseudo_label(teacher: Model, docs) -> list[tuple[np.ndarray, list[int]]]:
    """Hard pseudo-labels as training rows: each document's ``tokens`` as the teacher's token ids
    (unknown tokens map to UNK) and the teacher's raw Viterbi path from ``metrics.label_paths``."""
    encoded = [teacher.vocab.encode(d.tokens) for d in docs]
    return list(zip(encoded, label_paths(teacher, encoded)))


def jlsd_train(
    labeled: Dataset, unlabeled: Dataset, dev: Dataset, config: JlsdConfig
) -> tuple[Model, TrainReport]:
    """Joint learning by self-distillation.

    First trains a teacher on the labeled data alone, then trains that model on as the
    student for ``T`` iterations. Each iteration samples ``batch_size`` labeled and
    ``round(r * batch_size)`` unlabeled documents, pseudo-labeled by the teacher, for one
    gradient step with equal per-document weight. The teacher is the best-on-dev checkpoint
    so far: when the student's dev score strictly exceeds the best seen, the student becomes
    the teacher and a swap event is recorded, so swap scores strictly increase. The teacher
    changes only at a dev eval, so the batches up to the next eval (at most ``MAX_DRAW``
    documents) are drawn at once, in per-iteration order, and pseudo-labeled in one call.
    Returns the best-on-dev student.
    """
    _require_labeled(labeled, "labeled")
    _require_labeled(dev, "dev")
    if len(unlabeled) == 0:
        raise DataError("unlabeled dataset is empty; use train_supervised instead")

    vocab = build_vocab(list(labeled.documents) + list(unlabeled.documents), config.min_count)
    run = _Run(vocab, dev)  # the teacher phase and the student share it, and its labeled rows
    rows = run.rows(labeled)
    # the teacher phase gets its own seed so the student loop's sampling
    # stream matches what train_supervised would draw under config.seed
    teacher_T = config.teacher_T if config.teacher_T is not None else config.T
    teacher_config = replace(config, seed=config.seed + 1, T=teacher_T)
    # the teacher phase's best checkpoint is trained on in place as the student;
    # _train_loop's first best-checkpoint copy of it is the starting teacher
    student, teacher_report = _supervised(rows, run, teacher_config)

    k = config.unlabeled_per_batch
    window = max(1, MAX_DRAW // (config.batch_size + k))  # iterations whose draws fit MAX_DRAW
    queue = deque()

    def make_batch(it, rng, teacher, events):
        if not queue:
            draws = [
                (sample_batch(rows, config.batch_size, rng),
                 sample_batch(unlabeled, k, rng) if k > 0 else [])
                for _ in range(it, min(_next_eval(it, config), it + window - 1) + 1)
            ]
            pseudo = iter(pseudo_label(teacher, [d for _, drawn in draws for d in drawn]))
            queue.extend((gold, [next(pseudo) for _ in drawn]) for gold, drawn in draws)
        return queue.popleft()

    return _train_loop(student, run, config, make_batch, teacher_report, swaps=True)


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

    The target phase starts from the source phase's best checkpoint, and its dev
    score, with a fresh optimizer. Both phases share one vocabulary built over
    source and target so the embedding table carries over. ``config.source_T``
    bounds the source phase (0 skips it entirely).
    """
    run = _Run(_transfer_vocab(source, target_train, target_dev, config), target_dev)
    source_config = replace(config, T=config.T if config.source_T is None else config.source_T)
    warm = _supervised(run.rows(source), run, source_config)  # (best model, source report)
    return _supervised(run.rows(target_train), run, config, warm)


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
    run = _Run(_transfer_vocab(source, target_train, target_dev, config), target_dev)
    draw = len(target_train) if config.source_pool_size is None else config.source_pool_size
    pool = target_rows = run.rows(target_train)
    source_rows = run.rows(source)
    epoch_len = max(1, math.ceil((len(target_train) + draw) / config.batch_size))

    def make_batch(it, rng, best, events):
        nonlocal pool
        if draw > 0 and (it - 1) % epoch_len == 0:
            pool = target_rows + sample_batch(source_rows, draw, rng)
            events.append(
                {"event": "pool_refresh", "iteration": it, "pool_size": len(pool)}
            )
        return sample_batch(pool, config.batch_size, rng), []

    return _train_loop(_fresh_model(run.vocab, config), run, config, make_batch)
